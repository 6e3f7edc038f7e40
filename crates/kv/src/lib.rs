//! A replicated key-value store built on skip rotating vectors.
//!
//! [`KvStore`] is the downstream-facing face of the `optrep` stack: each
//! key carries its own [`Srv`] metadata, so conflicts are detected
//! per key with O(1) comparisons, and anti-entropy between two stores
//! ([`KvStore::sync`]) transfers only the metadata *differences* —
//! the paper's `SYNCS` — plus the values that actually changed.
//!
//! Deletions are tombstones (an update writing no value), so they
//! propagate and reconcile like any other write. Conflicting writes are
//! resolved by a deterministic [`Resolver`]; the default
//! [`JoinResolver`] is a join (commutative, associative, idempotent), so
//! any gossip schedule converges to the same store everywhere.
//!
//! ```
//! use optrep_kv::KvStore;
//! use optrep_core::SiteId;
//!
//! let mut alice = KvStore::new(SiteId::new(0));
//! let mut bob = KvStore::new(SiteId::new(1));
//! alice.put("greeting", "hello");
//! bob.sync(&alice).run()?;
//! assert_eq!(bob.get("greeting"), Some(&b"hello"[..]));
//!
//! // Concurrent writes to the same key conflict and resolve
//! // deterministically on both sides.
//! alice.put("greeting", "hi");
//! bob.put("greeting", "hey");
//! bob.sync(&alice).run()?;
//! alice.sync(&bob).run()?;
//! assert_eq!(alice.get("greeting"), bob.get("greeting"));
//! # Ok::<(), optrep_core::Error>(())
//! ```
//!
//! One [`SyncRequest`] builder configures a pull: the resolver, and
//! optionally a seeded [`FaultyLink`] over the in-process link
//! ([`SyncRequest::via`]).
//!
//! This file is the public types and the plain read/write API. The rest
//! of [`KvStore`] lives in one private module per concern: `record` (an
//! entry as the bytes every image writes — the only code that knows the
//! layout), `shard` (a shard's records, digest and live count, changed
//! only by `Shard::upsert`, and the walks over shards), `journal` (the
//! keys changed lately), `codec` (snapshots, shard images, log records),
//! `plan` (digest vectors, the plan, every endpoint) and `apply` (the
//! one commit path).

#![forbid(unsafe_code)]

mod apply;
mod codec;
mod journal;
mod plan;
mod record;
mod shard;
#[cfg(test)]
mod tests;

use bytes::Bytes;
use journal::Journal;
use optrep_core::obs::{CounterSink, CounterSnapshot};
use optrep_core::{Result, RotatingVector, SiteId, Srv};
use optrep_replication::mux::{pull_contact, Faulted, InProcessLink};
use optrep_replication::planner::{placement, ShardPlan, MAX_PLAN_SHARDS};
use optrep_replication::FaultyLink;
use record::{entry_hash, with_version_vector, Record};
use shard::Shard;

/// Default shard count when `OPTREP_KV_SHARDS` is unset: small enough
/// that a toy store's digest vector stays a handful of bytes, large
/// enough that a dirty key confines a planned contact to 1/16 of a big
/// store.
pub const DEFAULT_SHARDS: usize = 16;

/// Upper bound on the physical shard count: the planner's wire cap.
pub const MAX_SHARDS: usize = MAX_PLAN_SHARDS as usize;

/// The shard count `KvStore::new` uses: `OPTREP_KV_SHARDS` when set
/// and parseable, else [`DEFAULT_SHARDS`].
fn env_shards() -> usize {
    std::env::var("OPTREP_KV_SHARDS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_SHARDS)
}

/// The stored state of one key: `None` is a tombstone (deleted).
pub type Value = Option<Bytes>;

/// Resolves a conflicting (concurrent) pair of values for one key.
///
/// For the store to be eventually consistent under arbitrary gossip, the
/// resolution must be deterministic and symmetric: `resolve(a, b)` and
/// `resolve(b, a)` must produce the same value on both sites.
pub trait Resolver {
    /// Produces the reconciled value from the local (`ours`) and remote
    /// (`theirs`) conflicting values.
    fn resolve(&self, key: &str, ours: &Value, theirs: &Value) -> Value;
}

/// The default resolver: a deterministic join. A present value beats a
/// tombstone; two present values resolve to the byte-wise larger one.
/// Commutative, associative and idempotent, so every replica converges.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinResolver;

impl Resolver for JoinResolver {
    fn resolve(&self, _key: &str, ours: &Value, theirs: &Value) -> Value {
        match (ours, theirs) {
            (Some(a), Some(b)) => Some(std::cmp::max(a, b).clone()),
            (Some(a), None) => Some(a.clone()),
            (None, Some(b)) => Some(b.clone()),
            (None, None) => None,
        }
    }
}

/// A resolver that keeps the local value ("ours wins"). Deterministic
/// per site but *asymmetric*: replicas converge only after further
/// syncs settle the winner — use [`JoinResolver`] unless the application
/// resolves conflicts at a designated site.
#[derive(Debug, Clone, Copy, Default)]
pub struct OursResolver;

impl Resolver for OursResolver {
    fn resolve(&self, _key: &str, ours: &Value, _theirs: &Value) -> Value {
        ours.clone()
    }
}

/// Aggregate report of one anti-entropy pull.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvSyncReport {
    /// Keys examined (present on the source).
    pub keys_examined: usize,
    /// Keys created on this store.
    pub keys_created: usize,
    /// Keys fast-forwarded to the source's version.
    pub keys_fast_forwarded: usize,
    /// Keys with concurrent writes, reconciled by the resolver.
    pub keys_reconciled: usize,
    /// Keys already up to date (or ahead).
    pub keys_unchanged: usize,
    /// Metadata bytes exchanged (comparison + `SYNCS`, both directions).
    pub meta_bytes: usize,
    /// Value bytes shipped.
    pub value_bytes: usize,
    /// Shards the sync planner considered (zero on an unplanned pull).
    pub shards_total: usize,
    /// Shards skipped with zero object rounds (digests matched).
    pub shards_skipped: usize,
    /// Shards synced incrementally.
    pub shards_incremental: usize,
    /// Shards applied as whole snapshots.
    pub shards_snapshot: usize,
    /// Planner-phase wire bytes (digest vector, plan with its blobs and
    /// child digests, scope).
    pub digest_bytes: usize,
    /// Incremental shards narrowed to their differing children.
    pub shards_refined: usize,
    /// Shard digests the opening frame shipped: `shards_total` for a
    /// full vector, the shards that changed since the connection's last
    /// pull for a delta.
    pub digests_sent: usize,
    /// Incremental shards the source proposed the scope of, from the
    /// keys it changed since the connection's last pull.
    pub shards_proposed: usize,
    /// Of those, shards this store refused — the rest of the shard did
    /// not match the proposal's residual — and walked whole.
    pub shards_refused: usize,
}

/// A replicated key-value store: one [`Srv`] per key, anti-entropy
/// synchronization, tombstoned deletes, durable snapshots, and a
/// sharded key space whose per-shard digests let the sync planner
/// price a contact at O(dirty shards).
///
/// Keys are placed into a fixed power-of-two shard map by a hash of
/// the key bytes, so placement agrees across sites and shard counts
/// fold into each other by index masking. Every mutation maintains the
/// owning shard's content digest incrementally; the whole-store
/// [`replica_digest`](Self::replica_digest) is a fold over the cached
/// shard digests instead of an O(n) walk.
#[derive(Debug, Clone)]
pub struct KvStore {
    site: SiteId,
    shards: Vec<Shard>,
    stats: CounterSink,
    /// Bumped on every local write. Lets a daemon detect that the store
    /// changed between snapshotting a pull's endpoint and applying its
    /// outcomes (see [`KvStore::generation`]).
    generation: u64,
    /// The keys the last `JOURNAL_CAP` generation bumps touched.
    journal: Journal,
}

/// Equality is over the replicated state (site and entries) and is
/// shard-count independent: a 1-shard and a 256-shard store holding
/// the same entries are equal. The local cost counters are operational
/// bookkeeping, not state. Records are canonical, so equal entries are
/// equal bytes.
impl PartialEq for KvStore {
    fn eq(&self, other: &Self) -> bool {
        self.site == other.site
            && self.tracked_entries() == other.tracked_entries()
            && self
                .records()
                .all(|ours| other.record(ours.key_bytes()).map(Record::bytes) == Some(ours.bytes()))
    }
}

impl KvStore {
    /// Creates an empty store hosted on `site`, with the shard count
    /// taken from `OPTREP_KV_SHARDS` (clamped to a power of two;
    /// default [`DEFAULT_SHARDS`]).
    pub fn new(site: SiteId) -> Self {
        Self::with_shards(site, env_shards())
    }

    /// Creates an empty store with an explicit shard count. `shards` is
    /// clamped to `1..=`[`MAX_SHARDS`] and rounded up to a power of
    /// two. The shard count is a local layout choice: it never appears
    /// in snapshots, digests, or the contact protocol, and peers with
    /// different counts interoperate (the planner folds to the
    /// puller's count).
    pub fn with_shards(site: SiteId, shards: usize) -> Self {
        let count = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        KvStore {
            site,
            shards: vec![Shard::default(); count],
            stats: CounterSink::new(),
            generation: 0,
            journal: Journal::default(),
        }
    }

    /// The hosting site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The physical shard count (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A snapshot of the cumulative anti-entropy costs this store has paid
    /// (as the pulling side).
    pub fn stats(&self) -> CounterSnapshot {
        self.stats.snapshot()
    }

    /// Writes a value. Counts as one update on this site's element of the
    /// key's vector.
    pub fn put(&mut self, key: impl Into<String>, value: impl Into<Bytes>) {
        self.write(key.into(), Some(value.into()));
    }

    /// Deletes a key by writing a tombstone; the deletion propagates and
    /// reconciles like any other update.
    pub fn delete(&mut self, key: impl Into<String>) {
        self.write(key.into(), None);
    }

    /// Counts one change of `key` into the store's generation and its
    /// journal; returns the key's shard.
    fn touch(&mut self, key: &str) -> usize {
        let hash = placement(key.as_bytes());
        self.generation += 1;
        self.journal.record(self.generation, hash);
        (hash & (self.shards.len() as u64 - 1)) as usize
    }

    fn write(&mut self, key: String, value: Value) {
        let idx = self.touch(&key);
        let shard = &mut self.shards[idx];
        let old = shard.get(key.as_bytes());
        let mut meta = old.map_or_else(Srv::new, |old| old.view().srv());
        meta.record_update(self.site);
        shard.upsert(Record::new(&key, &meta, value.as_deref()));
    }

    /// Reads a key. Tombstoned and absent keys both read as `None`.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.record(key.as_bytes()).and_then(|r| r.view().value)
    }

    /// The key's metadata, if the key (or its tombstone) exists. The
    /// vector is returned *owned*: a store keeps a key's vector encoded
    /// inside its record, and this is a working copy decoded from it —
    /// changing it changes nothing in the store.
    pub fn meta(&self, key: &str) -> Option<Srv> {
        self.record(key.as_bytes()).map(|r| r.view().srv())
    }

    /// Live (non-tombstoned) keys, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        let mut live: Vec<&str> = self
            .records()
            .map(Record::entry)
            .filter(|(_, e)| e.value.is_some())
            .map(|(k, _)| k)
            .collect();
        live.sort_unstable();
        live.into_iter()
    }

    /// Number of live keys. O(shards): each shard counts its own.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.live()).sum()
    }

    /// `true` iff the store has no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries including tombstones (the replication footprint).
    pub fn tracked_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.summary().entries as usize)
            .sum()
    }

    /// Starts an anti-entropy pull from `src`, returning a
    /// [`SyncRequest`] builder. Nothing happens until
    /// [`run()`](SyncRequest::run):
    ///
    /// ```
    /// # use optrep_kv::{KvStore, OursResolver};
    /// # use optrep_core::SiteId;
    /// # let mut dst = KvStore::new(SiteId::new(0));
    /// # let src = KvStore::new(SiteId::new(1));
    /// dst.sync(&src).run()?;                             // defaults
    /// dst.sync(&src).with_resolver(&OursResolver).run()?; // custom resolver
    /// # Ok::<(), optrep_core::Error>(())
    /// ```
    ///
    /// The pull brings every key of `src` into this store over **one**
    /// multiplexed connection ([`optrep_replication::mux`]). Each key's
    /// session is a stream: all O(1) comparisons travel in a single
    /// batched frame (one round trip amortized over every key), clean keys
    /// coalesce their `Done`s, dirty keys run the per-stream `SYNCS` and
    /// ship their value, and keys this store has never seen are discovered
    /// and created. Concurrent writes are resolved with the configured
    /// [`Resolver`] ([`JoinResolver`] unless overridden), followed by the
    /// Parker §C increment so the resolved version dominates both parents.
    pub fn sync<'a>(&'a mut self, src: &'a KvStore) -> SyncRequest<'a> {
        SyncRequest {
            store: self,
            src,
            resolver: &JoinResolver,
            faults: None,
        }
    }

    /// Monotone change counter: bumped by every [`put`](Self::put),
    /// [`delete`](Self::delete) and replayed log record, and once by a
    /// commit that changed any key. A daemon serving concurrent clients
    /// snapshots this together with
    /// [`client_endpoint_refined`](Self::client_endpoint_refined),
    /// releases its lock for the network exchange, and re-checks the
    /// generation before
    /// [`apply_planned_tracked`](Self::apply_planned_tracked): if it
    /// moved, the pull raced a local write and must be retried against
    /// fresh metadata instead of committing stale outcomes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// How many generations back the change journal is complete: a
    /// connection whose last pull was planned no longer ago than this is
    /// proposed to from the journal, an older one from digests alone. A
    /// value that stays below the generations a peer lets pass between
    /// its pulls says the journal
    /// ([`JOURNAL_CAP`](optrep_replication::planner::JOURNAL_CAP) keys) is
    /// too small
    /// for the write rate.
    pub fn journal_floor_lag(&self) -> u64 {
        self.generation - self.journal.floor()
    }

    /// `true` iff both stores hold identical keys, values and metadata
    /// values — the eventual-consistency check.
    pub fn consistent_with(&self, other: &KvStore) -> bool {
        if self.tracked_entries() != other.tracked_entries() {
            return false;
        }
        self.records().all(|ours| {
            other.record(ours.key_bytes()).is_some_and(|theirs| {
                let (ours, theirs) = (ours.view(), theirs.view());
                ours.value == theirs.value
                    && with_version_vector(ours.meta, |ours| {
                        with_version_vector(theirs.meta, |theirs| ours == theirs)
                    })
            })
        })
    }

    /// A site-independent digest of the replicated state: two stores
    /// have equal digests iff they hold the same keys, values and
    /// version vectors — [`consistent_with`](Self::consistent_with)
    /// without needing both stores in one process. This is what
    /// `optrep digest` prints and what the cluster smoke test compares
    /// across daemons.
    ///
    /// (The [snapshot](Self::encode_snapshot) embeds the hosting site
    /// id and raw rotating-vector segments, both of which legitimately
    /// differ between converged replicas, so snapshot bytes cannot be
    /// compared across sites.)
    pub fn replica_digest(&self) -> u64 {
        // Fold over the incrementally maintained shard digests: O(shards),
        // not O(n). The wrapping sum of shard digests equals the wrapping
        // sum of every entry's hash regardless of how the keys are grouped
        // into shards, so the result is shard-count-independent.
        let sum = self
            .shards
            .iter()
            .fold(0u64, |acc, shard| acc.wrapping_add(shard.summary().digest));
        Self::mix_digest(self.tracked_entries() as u64, sum)
    }

    /// [`replica_digest`](Self::replica_digest) recomputed from scratch
    /// by hashing every entry — O(n). The property suite asserts this
    /// equals the cached fold after arbitrary mutation schedules; it is
    /// the ground truth the incremental maintenance is checked against.
    pub fn replica_digest_full(&self) -> u64 {
        let mut sum = 0u64;
        let mut count = 0u64;
        for record in self.records() {
            sum = sum.wrapping_add(entry_hash(record));
            count += 1;
        }
        Self::mix_digest(count, sum)
    }

    /// FNV-1a over `(tracked count, entry-hash sum)` — the final mix both
    /// digest paths share.
    fn mix_digest(count: u64, sum: u64) -> u64 {
        let mut feed = [0u8; 16];
        feed[..8].copy_from_slice(&count.to_le_bytes());
        feed[8..].copy_from_slice(&sum.to_le_bytes());
        // `placement` is FNV-1a, the one the shard map uses.
        placement(&feed)
    }
}

/// A configured anti-entropy pull, built by [`KvStore::sync`]. Chain
/// the builders, then [`run()`](Self::run) executes the contact;
/// dropping the request without running it does nothing.
#[must_use = "a sync request does nothing until `run()`"]
pub struct SyncRequest<'a> {
    store: &'a mut KvStore,
    src: &'a KvStore,
    resolver: &'a dyn Resolver,
    faults: Option<&'a mut FaultyLink>,
}

impl std::fmt::Debug for SyncRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncRequest")
            .field("dst", &self.store.site)
            .field("src", &self.src.site)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl<'a> SyncRequest<'a> {
    /// Resolves concurrent writes with `resolver` instead of the default
    /// [`JoinResolver`].
    pub fn with_resolver(mut self, resolver: &'a dyn Resolver) -> Self {
        self.resolver = resolver;
        self
    }

    /// Puts the in-process link under `faults`' weather — injected
    /// frame loss, truncation and cuts
    /// ([`optrep_replication::mux::Faulted`]).
    pub fn via(mut self, faults: &'a mut FaultyLink) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Executes the pull. Application is transactional in both
    /// directions:
    ///
    /// * If the contact fails (link death, stall, decode error)
    ///   **nothing** happened: no key, no metadata, no counter moved. A
    ///   clean follow-up sync picks up exactly where this one left off.
    /// * If it completes, every outcome is decoded and validated into a
    ///   staging list *before* the first key is touched, so a corrupt
    ///   payload mid-batch also leaves the store byte-identical.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and staging errors.
    pub fn run(self) -> Result<KvSyncReport> {
        let mut client = self.store.client_endpoint();
        let mut server = self.src.server_endpoint();
        let mut link = InProcessLink::new(&mut server);
        let contact = match self.faults {
            Some(faults) => pull_contact(&mut client, &mut Faulted::new(link, faults)),
            None => pull_contact(&mut client, &mut link),
        }?;
        let unplanned = ShardPlan::default();
        let (report, _changed) =
            (self.store).apply_planned_tracked(self.resolver, client, &contact, &unplanned)?;
        Ok(report)
    }
}
