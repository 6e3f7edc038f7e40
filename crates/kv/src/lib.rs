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
//! [`KvStore::sync`] is the daemon's pull, in process: the digest vector
//! crosses first, the source plans per shard, and only what the plan
//! leaves open is walked. One [`SyncRequest`] builder configures it: the
//! resolver, a [`Connection`] kept across pulls so that later pulls
//! behave like pulls over one pooled socket ([`SyncRequest::over`]), and
//! a seeded [`FaultyLink`] over the in-process link
//! ([`SyncRequest::via`]). A [`KvCluster`] gossips between stores
//! through `optrep_replication`'s contact engine: one connection a
//! directed pair, and the place fault plans are injected.
//!
//! This file is the public types and the plain read/write API. The rest
//! of [`KvStore`] lives in one private module per concern: `record` (an
//! entry as the bytes a page and an image hold — the only code that
//! knows the layout), `shard` (a shard's records in pages of up to
//! sixteen, each an image of its records, its
//! digest and counts, changed only by `Shard::place` and
//! `Shard::append`, and the walks over shards), `journal` (the
//! keys changed lately), `codec` (images with front-coded keys and
//! each vector written only where it is not the one before, log
//! records, and the chunked reader a snapshot or a log is read back
//! through),
//! `plan` (digest vectors, the plan, every endpoint), `apply` (the
//! one commit path) and `cluster` (the gossip host).

#![forbid(unsafe_code)]

mod apply;
mod cluster;
mod codec;
mod journal;
mod plan;
mod record;
mod shard;
#[cfg(test)]
mod tests;

pub use apply::{Committed, StagedImage};
pub use cluster::KvCluster;
pub use codec::{ChunkReader, Entries, Entry, EntryImage, Reach, ReadError, SnapshotImage};

use bytes::Bytes;
use journal::Journal;
use optrep_core::rng::{fold, FOLD_BASIS};
use optrep_core::{Result, SiteId, Srv};
use optrep_net::FrameLink;
use optrep_replication::mux::{
    pull_planned, BatchPullClient, ContactAsk, ContactReport, Faulted, InProcessLink, Serving,
};
use optrep_replication::planner::{
    placement, ShardDigest, ShardPlan, VectorMemory, MAX_PLAN_SHARDS,
};
use optrep_replication::FaultyLink;
use record::{entry_hash, with_version_vector};
use shard::{Cursor, Shard};

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
    /// Planner-phase wire bytes (digest vector, plan with its image and
    /// child digests, scope).
    pub digest_bytes: usize,
    /// Incremental shards narrowed to their differing children.
    pub shards_refined: usize,
    /// Shard digests the opening frame shipped: `shards_total` for a
    /// full vector, for a delta the shards that differ from what the
    /// connection remembers.
    pub digests_sent: usize,
    /// Incremental shards the source proposed the scope of, from the
    /// keys it changed since the connection's last pull: cut to those
    /// keys, the rest of the shard checked equal by the source.
    pub shards_proposed: usize,
    /// Framing bytes of the object exchange (frame headers, stream ids,
    /// key names; both directions) — what `meta_bytes`, `value_bytes`
    /// and `digest_bytes` leave out of the contact's wire bytes.
    pub framing_bytes: usize,
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
    /// Bumped on every local write. Lets a daemon detect that the store
    /// changed between snapshotting a pull's endpoint and applying its
    /// outcomes (see [`KvStore::generation`]).
    generation: u64,
    /// The keys the last `JOURNAL_CAP` generation bumps touched.
    journal: Journal,
}

/// Equality is over the replicated state (site and entries) and is
/// shard-count independent: a 1-shard and a 256-shard store holding
/// the same entries are equal. The write generation and the change
/// journal are local bookkeeping, not state. Records are canonical, so
/// equal states are equal bytes.
impl PartialEq for KvStore {
    fn eq(&self, other: &Self) -> bool {
        self.site == other.site
            && self.tracked_entries() == other.tracked_entries()
            && self.all(|key, ours| other.view(key) == Some(ours))
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
    /// journal, with what it did to the key's shard — or, where later
    /// changes of the same call evict it before anyone can ask (`None`),
    /// as passed.
    fn touch(&mut self, key: &[u8], change: Option<ShardDigest>) {
        self.generation += 1;
        match change {
            Some(change) => self.journal.record(self.generation, placement(key), change),
            None => self.journal.pass(self.generation),
        }
    }

    /// One local write: one walk of the page the key belongs in finds
    /// the vector it holds, and the record with its vector one update
    /// further is written where it stands or into the page's rewrite.
    fn write(&mut self, key: String, value: Value) {
        let idx = shard::shard_index(key.as_bytes(), self.shards.len());
        let shard = &mut self.shards[idx];
        let before = shard.summary();
        shard.put(&key, self.site, value.as_deref());
        let change = shard.summary() - before;
        self.touch(key.as_bytes(), Some(change));
    }

    /// Reads a key. Tombstoned and absent keys both read as `None`.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.view(key.as_bytes()).and_then(|view| view.value)
    }

    /// The key's metadata, if the key (or its tombstone) exists. The
    /// vector is returned *owned*: a store keeps a key's vector encoded
    /// inside its record, and this is a working copy decoded from it —
    /// changing it changes nothing in the store.
    pub fn meta(&self, key: &str) -> Option<Srv> {
        self.view(key.as_bytes()).map(|view| view.srv())
    }

    /// Live (non-tombstoned) keys, in sorted order: the store's merge,
    /// walked as it is read. A page holds its keys front-coded, so each
    /// is rebuilt and handed out as a copy.
    pub fn keys(&self) -> impl Iterator<Item = String> + '_ {
        let mut sorted = self.sorted();
        std::iter::from_fn(move || {
            while sorted.step() {
                if sorted.view().value.is_some() {
                    let key = std::str::from_utf8(sorted.key()).expect("a stored key is UTF-8");
                    return Some(key.to_owned());
                }
            }
            None
        })
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
    /// # use optrep_kv::{Connection, KvStore, OursResolver};
    /// # use optrep_core::SiteId;
    /// # let mut dst = KvStore::new(SiteId::new(0));
    /// # let src = KvStore::new(SiteId::new(1));
    /// dst.sync(&src).run()?;                             // defaults
    /// dst.sync(&src).with_resolver(&OursResolver).run()?; // custom resolver
    /// let mut link = Connection::default();
    /// dst.sync(&src).over(&mut link).run()?;             // a kept connection
    /// dst.sync(&src).over(&mut link).run()?;             // ... its second pull
    /// # Ok::<(), optrep_core::Error>(())
    /// ```
    ///
    /// The pull is the daemon's, over an in-process link whose far end
    /// is `src` ([`pull_planned`]): this store's shard digests cross
    /// first, `src` plans per shard — clean shards skipped, shards this
    /// store never populated sent whole, dirty ones offered as child
    /// digests or proposed from `src`'s change journal — and the rest
    /// is **one** multiplexed exchange ([`optrep_replication::mux`]).
    /// Each key's session there is a stream: all O(1) comparisons travel
    /// in a single batched frame, clean keys coalesce their `Done`s,
    /// dirty keys run the per-stream `SYNCS` and ship their value, and
    /// keys this store has never seen are discovered and created.
    /// Concurrent writes are resolved with the configured [`Resolver`]
    /// ([`JoinResolver`] unless overridden), followed by the Parker §C
    /// increment so the resolved version dominates both parents.
    pub fn sync<'a>(&'a mut self, src: &'a KvStore) -> SyncRequest<'a> {
        SyncRequest {
            store: self,
            src,
            resolver: &JoinResolver,
            connection: None,
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
        self.all(|key, ours| {
            other.view(key).is_some_and(|theirs| {
                ours.value == theirs.value
                    && with_version_vector(ours.meta, |ours| {
                        with_version_vector(theirs.meta, |theirs| ours == theirs)
                    })
            })
        })
    }

    /// A site-independent 64-bit digest of the replicated state: two
    /// stores that hold the same keys, values and version vectors have
    /// equal digests, and two that do not have equal digests with
    /// probability about 2⁻⁶⁴ — each entry's hash is finalized before it
    /// is summed, so no pattern of honest writes makes sums meet. Equal
    /// digests are therefore strong evidence, not proof, of
    /// [`consistent_with`](Self::consistent_with), and need no second
    /// store in the process. This is what `optrep digest` prints and what
    /// the cluster smoke test compares across daemons.
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
        self.all(|key, view| {
            sum = sum.wrapping_add(entry_hash(key, view));
            count += 1;
            true
        });
        Self::mix_digest(count, sum)
    }

    /// `(tracked count, entry-hash sum)` folded ([`fold`]) — the final
    /// mix both digest paths share.
    fn mix_digest(count: u64, sum: u64) -> u64 {
        fold(fold(FOLD_BASIS, count), sum)
    }
}

/// One in-process connection from a puller to its source, as the two
/// memories its ends keep between pulls: the puller's last digest vector
/// ([`VectorMemory`]), settled after each commit at the shards that
/// landed as served, and the source's [`Serving`] — the vector it was
/// sent, each shard it served at its as-served digest (but where the
/// puller held something it lacks: as sent), and the generation it last
/// planned at. Kept across
/// [`SyncRequest::over`] calls it makes consecutive pulls what pulls over
/// one pooled socket are: the digest vector crosses as a delta, and the
/// source proposes the keys it changed since. A fresh one is a fresh
/// dial. A pull that fails empties it, as a failed socket is discarded.
///
/// It belongs to the `(puller, source)` site pair of its last pull: a
/// pull of another pair over it empties it first, so the memories it
/// answers from are never another pair's.
#[derive(Debug, Default)]
pub struct Connection {
    pair: Option<(SiteId, SiteId)>,
    remembered: VectorMemory,
    serving: Serving,
}

/// A configured anti-entropy pull, built by [`KvStore::sync`]. Chain
/// the builders, then [`run()`](Self::run) executes the contact;
/// dropping the request without running it does nothing.
#[must_use = "a sync request does nothing until `run()`"]
pub struct SyncRequest<'a> {
    store: &'a mut KvStore,
    src: &'a KvStore,
    resolver: &'a dyn Resolver,
    connection: Option<&'a mut Connection>,
    faults: Option<&'a mut FaultyLink>,
}

impl std::fmt::Debug for SyncRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncRequest")
            .field("dst", &self.store.site)
            .field("src", &self.src.site)
            .field("connection", &self.connection)
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

    /// Pulls over `connection` — the one this puller kept from its last
    /// pull of the same source — instead of a fresh one.
    pub fn over(mut self, connection: &'a mut Connection) -> Self {
        self.connection = Some(connection);
        self
    }

    /// Puts the in-process link under `faults`' weather — injected
    /// frame loss, truncation and cuts
    /// ([`optrep_replication::mux::Faulted`]), the planning turn's
    /// frames included.
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
    /// * If it completes, the plan's image is staged and every outcome
    ///   validated in place *before* the first key is touched, so a
    ///   corrupt payload mid-batch also leaves the store byte-identical.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and staging errors; the connection
    /// is then emptied.
    pub fn run(self) -> Result<KvSyncReport> {
        let mut fresh = Connection::default();
        let connection = self.connection.unwrap_or(&mut fresh);
        let pair = Some((self.store.site, self.src.site));
        if connection.pair != pair {
            *connection = Connection {
                pair,
                ..Connection::default()
            };
        }
        let src = self.src;
        let mut far = |ask: ContactAsk<'_>| src.open_contact(ask);
        let link = InProcessLink::serving(&mut connection.serving, &mut far);
        let remembered = &mut connection.remembered;
        let pulled = match self.faults {
            Some(faults) => pull(self.store, &mut Faulted::new(link, faults), remembered),
            None => pull(self.store, &mut { link }, remembered),
        };
        let synced = pulled.and_then(|(client, plan, contact)| {
            let committed = (self.store).apply_planned(self.resolver, client, &contact, &plan)?;
            connection.remembered.settle(&committed.landed);
            Ok(committed.report)
        });
        if synced.is_err() {
            *connection = Connection::default();
        }
        synced
    }
}

/// The puller's half of a planned pull over `link`: this store's digest
/// vector, and the endpoint cut as finely as the plan allows.
fn pull<L: FrameLink>(
    store: &KvStore,
    link: &mut L,
    remembered: &mut VectorMemory,
) -> Result<(BatchPullClient, ShardPlan, ContactReport)> {
    let digests = store.shard_digest_vector();
    pull_planned(link, remembered, &digests, |plan, push| {
        store.client_endpoint_refined(plan, push, store.generation())
    })
}
