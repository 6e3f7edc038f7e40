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

use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::obs::{CounterSink, CounterSnapshot, SessionTotals};
use optrep_core::{wire, Causality, Result, RotatingVector, SiteId, Srv};
use optrep_replication::mux::{
    pull_contact, pull_planned, BatchPullClient, BatchPullServer, ContactAnswer, ContactAsk,
    ContactReport, Faulted, InProcessLink, Restricted,
};
use optrep_replication::planner::{
    decide, nothing_to_pull, placement, shard_of, Candidates, ChildDigests, Cut, DigestVector,
    PlanConfig, Proposal, ShardAction, ShardDigest, ShardPlan, ShardScope, VectorMemory,
    JOURNAL_CAP, MAX_PLAN_SHARDS,
};
use optrep_replication::FaultyLink;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

/// What the store keeps per key: one exactly sized block holding the
/// entry as every image writes it — the length-prefixed key, then the
/// entry's state as a log record carries it: the length-prefixed vector
/// snapshot, a one-byte tag (`0` a tombstone, `1` a value) and, behind
/// tag 1, the length-prefixed value. Snapshots, shard images and log
/// records are copies of these bytes; reading a field is a walk over
/// length prefixes ([`Record::view`]); an [`Srv`] exists only while a
/// vector is being operated on and is encoded back before it is stored.
///
/// The key lives inside the block because a block of its own would cost
/// what the record saves (a second handle in the node, a second malloc
/// header), and a record *is* its key to the set that holds it: ordered,
/// compared and looked up by key bytes alone, whose byte order is `str`
/// order. Whole-record equality is [`Record::bytes`].
///
/// A record is **canonical**: only [`Record::new`] builds one, from a
/// decoded key, vector and value, never by keeping input bytes (a
/// decoder accepts overlong varints no encoder writes) — so two equal
/// states hold equal bytes, and nothing a store holds refers to the
/// snapshot image, log record or socket chunk it was read from.
#[derive(Debug, Clone)]
struct Record(Box<[u8]>);

/// A stored entry's state, borrowed from its [`Record`]: the vector's
/// snapshot bytes and the value (`None` a tombstone).
#[derive(Debug, Clone, Copy, PartialEq)]
struct View<'a> {
    meta: &'a [u8],
    value: Option<&'a [u8]>,
}

/// Why a stored field always parses.
const CANONICAL: &str = "a record holds its own encoder's output";

/// Splits the length-prefixed field at the front of `bytes` off it.
fn field<'a>(bytes: &mut &'a [u8]) -> &'a [u8] {
    let len = wire::get_varint(bytes).expect(CANONICAL) as usize;
    let (field, rest) = bytes.split_at(len);
    *bytes = rest;
    field
}

impl Record {
    /// Encodes one entry, in one allocation of its exact size.
    fn new(key: &str, meta: &Srv, value: Option<&[u8]>) -> Record {
        let meta = meta.as_core();
        let meta_len = meta.snapshot_len();
        let value_len = value.map_or(0, |v| wire::bytes_len(v.len()));
        let len = wire::bytes_len(key.len()) + wire::bytes_len(meta_len) + 1 + value_len;
        let mut buf = Vec::with_capacity(len);
        wire::put_bytes(&mut buf, key.as_bytes());
        wire::put_varint(&mut buf, meta_len as u64);
        meta.put_snapshot(&mut buf);
        match value {
            Some(v) => {
                buf.put_u8(1);
                wire::put_bytes(&mut buf, v);
            }
            None => buf.put_u8(0),
        }
        debug_assert_eq!(buf.len(), len);
        Record(buf.into_boxed_slice())
    }

    /// The whole record: what an image writes for this entry.
    fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// The key's bytes and the entry's state behind them — what
    /// [`KvStore::encode_entry`] returns.
    fn split(&self) -> (&[u8], &[u8]) {
        let mut rest = &self.0[..];
        let key = field(&mut rest);
        (key, rest)
    }

    fn key_bytes(&self) -> &[u8] {
        self.split().0
    }

    fn view(&self) -> View<'_> {
        let mut state = self.split().1;
        let meta = field(&mut state);
        let value = match state.split_first() {
            Some((1, mut rest)) => Some(field(&mut rest)),
            _ => None,
        };
        View { meta, value }
    }

    /// The key and the state, as a walk over entries wants them.
    fn entry(&self) -> (&str, View<'_>) {
        let key = std::str::from_utf8(self.key_bytes()).expect(CANONICAL);
        (key, self.view())
    }
}

impl View<'_> {
    /// The vector, materialised: a working copy to operate on.
    fn srv(&self) -> Srv {
        let mut meta = self.meta;
        Srv::decode_snapshot(&mut meta).expect(CANONICAL)
    }
}

impl Borrow<[u8]> for Record {
    fn borrow(&self) -> &[u8] {
        self.key_bytes()
    }
}

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        self.key_bytes() == other.key_bytes()
    }
}

impl Eq for Record {}

impl PartialOrd for Record {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Record {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key_bytes().cmp(other.key_bytes())
    }
}

/// One shard of the store's key space: its records plus an
/// incrementally maintained content digest (the wrapping sum of
/// [`entry_hash`] over every record, so updates are O(1): subtract the
/// old hash, add the new one) and live-key count. A node slot is one
/// pointer and a length, so the slack a B-tree node carries (sequential
/// inserts leave it six-elevenths full) multiplies 16 bytes a key.
#[derive(Debug, Clone, Default)]
struct Shard {
    entries: BTreeSet<Record>,
    digest: u64,
    /// Records holding a value (not tombstones). Bookkeeping like the
    /// digest's, so [`KvStore::len`] need not walk.
    live: usize,
}

impl Shard {
    /// Stores `record` in place of whatever its key held and brings the
    /// digest and the live count in step: the one place either changes.
    /// A caller that edits an entry reads the old record, builds the new
    /// one and hands it here. Returns whether the key was tracked before.
    fn upsert(&mut self, record: Record) -> bool {
        self.digest = self.digest.wrapping_add(entry_hash(&record));
        self.live += usize::from(record.view().value.is_some());
        match self.entries.replace(record) {
            Some(old) => {
                self.digest = self.digest.wrapping_sub(entry_hash(&old));
                self.live -= usize::from(old.view().value.is_some());
                true
            }
            None => false,
        }
    }
}

/// A key's shard index in a map of `count` shards (`count` a power of
/// two): the planner's placement, which both sides of a contact share.
fn shard_index(key: &[u8], count: usize) -> usize {
    shard_of(key, count as u64) as usize
}

/// Vectors of up to this many elements — `core::order`'s own bound on a
/// vector without an index, and nearly every vector a store holds — are
/// hashed and compared without touching the heap.
const INLINE_SITES: usize = 8;

/// Lends `read` the version vector that a record's vector bytes stand
/// for: the non-zero `(site, count)` pairs, order and bits dropped,
/// sorted by site.
fn with_version_vector<R>(mut meta: &[u8], read: impl FnOnce(&[(u32, u64)]) -> R) -> R {
    let n = wire::get_varint(&mut meta).expect(CANONICAL) as usize;
    let mut inline = [(0u32, 0u64); INLINE_SITES];
    let mut spilled = Vec::new();
    let pairs = match inline.get_mut(..n) {
        Some(pairs) => pairs,
        None => {
            spilled.resize(n, (0, 0));
            &mut spilled[..]
        }
    };
    let mut kept = 0;
    for _ in 0..n {
        let site = wire::get_u32(&mut meta).expect(CANONICAL);
        let count = wire::get_varint(&mut meta).expect(CANONICAL) >> 2;
        if count > 0 {
            pairs[kept] = (site, count);
            kept += 1;
        }
    }
    let pairs = &mut pairs[..kept];
    pairs.sort_unstable_by_key(|&(site, _)| site);
    read(pairs)
}

/// The content hash of one entry, the unit the per-shard digests sum:
/// FNV-1a over the key, the tagged value, and the sorted version
/// vector — the same feed per entry that the replica digest has always
/// eaten, so the digest stays site-independent (raw rotating-vector
/// segments, which differ between converged replicas, are *not*
/// hashed).
fn entry_hash(record: &Record) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    let (key, view) = (record.key_bytes(), record.view());
    eat(&(key.len() as u64).to_le_bytes());
    eat(key);
    match view.value {
        Some(v) => {
            eat(&[1]);
            eat(&(v.len() as u64).to_le_bytes());
            eat(v);
        }
        None => eat(&[0]),
    }
    with_version_vector(view.meta, |pairs| {
        eat(&(pairs.len() as u64).to_le_bytes());
        for &(site, count) in pairs {
            eat(&u64::from(site).to_le_bytes());
            eat(&count.to_le_bytes());
        }
    });
    hash
}

/// What a store changed lately: the placement hash of every key a
/// generation bump touched, with that generation, newest last, the
/// oldest evicted once [`JOURNAL_CAP`] are held. A serving store
/// [proposes](KvStore::plan_contact_since) from it. It is bookkeeping,
/// not state — in no snapshot, log record, digest or comparison — and
/// nothing is wrong when it is short or lost: a proposal is checked
/// against the shard digests, so the journal can only cost bytes.
#[derive(Debug, Clone, Default)]
struct Journal {
    /// `(generation, placement hash)`, generations non-decreasing.
    /// Allocated once, at the cap, by the first change (a clone is sized
    /// to what it holds and brought to the cap by its first).
    entries: VecDeque<(u64, u64)>,
    /// The generation of the newest entry evicted: the journal lists
    /// every key changed at a generation above it, and possibly not
    /// every key changed at or below.
    floor: u64,
}

impl Journal {
    fn record(&mut self, generation: u64, hash: u64) {
        if self.entries.capacity() < JOURNAL_CAP {
            let held = self.entries.len();
            self.entries.reserve_exact(JOURNAL_CAP - held);
        }
        if self.entries.len() == JOURNAL_CAP {
            if let Some((evicted, _)) = self.entries.pop_front() {
                self.floor = evicted;
            }
        }
        self.entries.push_back((generation, hash));
    }

    /// The hashes of the keys changed at generations above `since`, or
    /// `None` when the journal no longer reaches back that far.
    fn changed_since(&self, since: u64) -> Option<impl Iterator<Item = u64> + '_> {
        (self.floor <= since).then(|| {
            let newer = self.entries.partition_point(|&(at, _)| at <= since);
            self.entries.range(newer..).map(|&(_, hash)| hash)
        })
    }
}

/// One decoded, validated contact outcome awaiting commit — the staging
/// form that makes application transactional.
enum Staged {
    Create { value: Value },
    FastForward { value: Value },
    Reconcile { theirs: Value },
    Clean,
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
    /// The keys the last [`JOURNAL_CAP`] generation bumps touched.
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

    fn record(&self, key: &[u8]) -> Option<&Record> {
        self.shards[shard_index(key, self.shards.len())]
            .entries
            .get(key)
    }

    /// Every tracked record, in unspecified order.
    fn records(&self) -> impl Iterator<Item = &Record> {
        self.shards.iter().flat_map(|shard| &shard.entries)
    }

    /// Every tracked record, sorted by key — the deterministic order
    /// snapshots and endpoints present, so wire images and stream-id
    /// assignment are independent of the local shard layout.
    fn records_sorted(&self) -> Vec<&Record> {
        let mut all = Vec::with_capacity(self.tracked_entries());
        all.extend(self.records());
        all.sort_unstable();
        all
    }

    /// Calls `visit` on every tracked record of the given plan shards at
    /// plan-shard count `count`, touching only the physical shards they
    /// live in: plan shard `s` is the physical shards `i ≡ s (mod
    /// count)` when the plan is no finer than the store, and a slice of
    /// physical shard `s mod physical` when it is.
    fn visit_shards<'a>(&'a self, shards: &[u64], count: usize, mut visit: impl FnMut(&'a Record)) {
        let physical = self.shards.len();
        let mut wanted = vec![false; count];
        for &shard in shards {
            if (shard as usize) < count {
                wanted[shard as usize] = true;
            }
        }
        if count <= physical {
            for (index, shard) in self.shards.iter().enumerate() {
                if wanted[index & (count - 1)] {
                    shard.entries.iter().for_each(&mut visit);
                }
            }
            return;
        }
        let mut holds_wanted = vec![false; physical];
        for (shard, _) in wanted.iter().enumerate().filter(|(_, &w)| w) {
            holds_wanted[shard & (physical - 1)] = true;
        }
        for (index, shard) in self.shards.iter().enumerate() {
            if holds_wanted[index] {
                for record in &shard.entries {
                    if wanted[shard_index(record.key_bytes(), count)] {
                        visit(record);
                    }
                }
            }
        }
    }

    /// The tracked records of the given plan shards at plan-shard count
    /// `count` whose key `keep` admits, sorted by key. Visits and sorts
    /// only what the plan names, never the rest of the store.
    fn records_in(
        &self,
        shards: &[u64],
        count: usize,
        keep: impl Fn(&[u8]) -> bool,
    ) -> Vec<&Record> {
        let mut kept = Vec::new();
        self.visit_shards(shards, count, |record| {
            if keep(record.key_bytes()) {
                kept.push(record);
            }
        });
        kept.sort_unstable();
        kept
    }

    /// The tracked records a planned contact runs over, sorted by key —
    /// what either endpoint of it is built from.
    fn records_cut(&self, cut: &Cut<'_>) -> Vec<&Record> {
        self.records_in(cut.incremental, cut.count as usize, |key| cut.admits(key))
    }

    /// The digests of the `fanout` children of each of `parents` (plan
    /// shards at `count`, strictly increasing), one vector per parent:
    /// child `j` of shard `s` is shard `s + j·count` at `count ·
    /// fanout`. Hashes the entries of those shards only.
    fn child_digests(&self, parents: &[u64], count: u64, fanout: u64) -> Vec<Vec<ShardDigest>> {
        let mut children = vec![vec![ShardDigest::default(); fanout as usize]; parents.len()];
        self.visit_shards(parents, count as usize, |record| {
            let hash = placement(record.key_bytes());
            if let Ok(slot) = parents.binary_search(&(hash & (count - 1))) {
                let child = &mut children[slot][((hash / count) & (fanout - 1)) as usize];
                child.digest = child.digest.wrapping_add(entry_hash(record));
                child.entries += 1;
            }
        });
        children
    }

    /// For each of `proposed` — plan shards at `whole.len()` shards,
    /// strictly increasing, with their candidates — this store's
    /// summary of the shard *less* its entries placed under the
    /// candidates. `whole` is this store's digests at that count. Walks
    /// those shards only, and hashes only the entries it subtracts.
    fn residuals(&self, whole: &[ShardDigest], proposed: &[Candidates]) -> Vec<ShardDigest> {
        let count = whole.len();
        let shards: Vec<u64> = proposed.iter().map(|(shard, _)| *shard).collect();
        let mut residuals: Vec<ShardDigest> =
            shards.iter().map(|&shard| whole[shard as usize]).collect();
        self.visit_shards(&shards, count, |record| {
            let hash = placement(record.key_bytes());
            if let Ok(slot) = shards.binary_search(&(hash & (count as u64 - 1))) {
                let candidates = &proposed[slot].1;
                if candidates
                    .binary_search(&(hash & (MAX_PLAN_SHARDS - 1)))
                    .is_ok()
                {
                    let residual = &mut residuals[slot];
                    residual.digest = residual.digest.wrapping_sub(entry_hash(record));
                    residual.entries -= 1;
                }
            }
        });
        residuals
    }

    /// Inserts or replaces one entry; returns whether its key was
    /// tracked before.
    fn insert(&mut self, record: Record) -> bool {
        let idx = shard_index(record.key_bytes(), self.shards.len());
        self.shards[idx].upsert(record)
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
        let old = shard.entries.get(key.as_bytes());
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
        self.shards.iter().map(|shard| shard.live).sum()
    }

    /// `true` iff the store has no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries including tombstones (the replication footprint).
    pub fn tracked_entries(&self) -> usize {
        self.shards.iter().map(|shard| shard.entries.len()).sum()
    }

    /// Causal relation of this store's copy of `key` vs a peer's.
    pub fn compare_key(&self, other: &KvStore, key: &str) -> Option<Causality> {
        let (ours, theirs) = (self.meta(key)?, other.meta(key)?);
        Some(ours.compare(&theirs))
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

    /// Monotone write counter: bumped on every [`put`](Self::put) /
    /// [`delete`](Self::delete). A daemon serving concurrent clients
    /// snapshots this together with [`client_endpoint`](Self::client_endpoint),
    /// releases its lock for the network exchange, and re-checks the
    /// generation before [`apply_contact`](Self::apply_contact): if it
    /// moved, the pull raced a local write and must be retried against
    /// fresh metadata instead of committing stale outcomes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// How many generations back the change journal is complete: a
    /// connection whose last pull was planned no longer ago than this is
    /// proposed to from the journal, an older one from digests alone. A
    /// value that stays below the generations a peer lets pass between
    /// its pulls says the journal ([`JOURNAL_CAP`] keys) is too small
    /// for the write rate.
    pub fn journal_floor_lag(&self) -> u64 {
        self.generation - self.journal.floor
    }

    /// The pulling half of an anti-entropy contact: one stream per
    /// tracked key (tombstones included), carrying this store's current
    /// metadata. Pair it with a peer's
    /// [`server_endpoint`](Self::server_endpoint), drive the contact
    /// over any transport (in-process lockstep, a `TcpLink`, …), then
    /// commit with [`apply_contact`](Self::apply_contact).
    pub fn client_endpoint(&self) -> BatchPullClient {
        pulling(self.records_sorted())
    }

    /// The serving half of an anti-entropy contact: metadata plus the
    /// encoded value for every tracked key, ready to answer any puller.
    /// The serving store is never modified by a contact.
    pub fn server_endpoint(&self) -> BatchPullServer {
        serving(self.records_sorted())
    }

    /// [`client_endpoint`](Self::client_endpoint) restricted to the
    /// keys of the given plan shards at plan-shard count `count` —
    /// the pulling half of a planned contact. Keys are presented in
    /// sorted order, so stream-id assignment (and therefore the whole
    /// framed exchange) is independent of the local shard layout.
    pub fn client_endpoint_for(&self, shards: &[u64], count: usize) -> BatchPullClient {
        pulling(self.records_in(shards, count, |_| true))
    }

    /// The pulling half of a planned contact, cut as finely as `plan`
    /// allows. Where the plan offers child digests, this store's
    /// children of the same shards are compared with them and the
    /// endpoint keeps, of those shards, only the keys of children that
    /// differ. Where it proposes a shard's scope, this store's summary
    /// of the shard less its own entries under the proposal's candidates
    /// is compared with the proposal's residual: equal — digest *and*
    /// entry count, the evidence a skipped shard is skipped on — and
    /// every other entry of the shard is the source's, so the endpoint
    /// keeps only the keys under the candidates; different — this store
    /// wrote or pulled something the source's journal knows nothing of —
    /// and the shard is refused and presented whole. The [`ShardScope`]
    /// returned with the endpoint tells the server all of it, so both
    /// sides cut alike; every other incremental shard is presented
    /// whole. For a plan that offers nothing this is
    /// [`client_endpoint_for`](Self::client_endpoint_for) over its
    /// incremental shards. Call it under the guard that snapshots the
    /// [`generation`](Self::generation): digests and endpoint are one
    /// view of the store.
    pub fn client_endpoint_refined(&self, plan: &ShardPlan) -> Restricted {
        let count = plan.count as usize;
        let Some(offer) = plan.offer() else {
            return self.client_endpoint_for(&plan.incremental, count).into();
        };
        let mut differing = Vec::new();
        if let Some(theirs) = &plan.children {
            let ours = self.child_digests(&offer.parents, offer.count, offer.fanout);
            for ((shard, theirs), ours) in theirs.parents.iter().zip(&ours) {
                for (j, (ours, theirs)) in ours.iter().zip(theirs).enumerate() {
                    if !nothing_to_pull(ours, theirs) {
                        differing.push(shard + j as u64 * offer.count);
                    }
                }
            }
            differing.sort_unstable();
        }
        let refused = (!plan.proposed.is_empty()).then(|| {
            let ours = self.residuals(&self.shard_digests_at(count), &offer.proposed);
            (plan.proposed.iter().zip(ours))
                .filter(|(proposal, ours)| proposal.residual != *ours)
                .map(|(proposal, _)| proposal.shard)
                .collect()
        });
        let scope = ShardScope {
            count: offer.count * offer.fanout,
            children: differing,
            refused,
        };
        let client = pulling(self.records_cut(&Cut {
            count: plan.count,
            incremental: &plan.incremental,
            narrowed: Some((&offer, &scope)),
        }));
        Restricted {
            client,
            scope: Some(scope),
        }
    }

    /// [`server_endpoint`](Self::server_endpoint) restricted to the
    /// keys of the given plan shards at plan-shard count `count` —
    /// the serving half of a planned contact whose puller walks the
    /// planned shards whole. Discovery offers only keys inside them, so
    /// clean shards cost zero object rounds.
    pub fn server_endpoint_for(&self, shards: &[u64], count: usize) -> BatchPullServer {
        self.server_endpoint_cut(&Cut {
            count: count as u64,
            incremental: shards,
            narrowed: None,
        })
    }

    /// The serving half of a planned contact, over the keys of `cut` and
    /// no others: the mirror of
    /// [`client_endpoint_refined`](Self::client_endpoint_refined) —
    /// filter, *then* decode the vector and copy the key and value — and
    /// the one place a planned serving endpoint is built. Every vector
    /// is read with its value, from `self` as it stands now.
    pub fn server_endpoint_cut(&self, cut: &Cut<'_>) -> BatchPullServer {
        serving(self.records_cut(cut))
    }

    /// This store's per-shard digests at its physical shard count —
    /// what a planned pull sends as its opening frame. O(shards): the
    /// digests are maintained incrementally by every mutation.
    pub fn shard_digest_vector(&self) -> DigestVector {
        DigestVector {
            shards: self
                .shards
                .iter()
                .map(|shard| ShardDigest {
                    digest: shard.digest,
                    entries: shard.entries.len() as u64,
                })
                .collect(),
        }
    }

    /// This store's shard digests folded to an arbitrary power-of-two
    /// `count` — how a server answers a puller whose shard count
    /// differs from its own. Folding down is O(physical shards)
    /// (wrapping sums compose across the index mask); folding *up*
    /// recomputes per entry, O(n), the price of serving a
    /// finer-sharded puller.
    pub fn shard_digests_at(&self, count: usize) -> Vec<ShardDigest> {
        let physical = self.shards.len();
        if count == physical {
            return self.shard_digest_vector().shards;
        }
        let mut out = vec![ShardDigest::default(); count];
        if count < physical {
            for (index, shard) in self.shards.iter().enumerate() {
                let target = &mut out[index & (count - 1)];
                target.digest = target.digest.wrapping_add(shard.digest);
                target.entries += shard.entries.len() as u64;
            }
        } else {
            for record in self.records() {
                let target = &mut out[shard_index(record.key_bytes(), count)];
                target.digest = target.digest.wrapping_add(entry_hash(record));
                target.entries += 1;
            }
        }
        out
    }

    /// Encodes one plan shard's whole image at plan-shard count
    /// `count`: a varint entry count followed by each entry's key,
    /// metadata snapshot, and tagged value (the per-entry layout of
    /// [`encode_snapshot`](Self::encode_snapshot), without the site
    /// header — shard snapshots cross sites, so they carry no site id).
    pub fn encode_shard_snapshot(&self, shard: u64, count: usize) -> Bytes {
        encode_image(None, &self.records_in(&[shard], count, |_| true))
    }

    /// The planner phase in one call, for an in-process caller that
    /// holds the store for the whole contact (`crates/perf`'s mirror):
    /// the plan of a connection's first contact
    /// ([`plan_contact_since`](Self::plan_contact_since) with nothing to
    /// propose from) and the serving endpoint over its incremental
    /// shards, whole — both from this one view of the store. A
    /// [`Serving`](optrep_replication::mux::Serving) does not come
    /// through here: it asks for the plan and, once the puller has
    /// answered it, for the endpoint
    /// ([`open_contact`](Self::open_contact)).
    pub fn plan_contact(
        &self,
        digests: &DigestVector,
        config: &PlanConfig,
    ) -> (ShardPlan, BatchPullServer) {
        let plan = self.plan_contact_since(digests, None, config);
        let endpoint = self.server_endpoint_for(&plan.incremental, plan.count as usize);
        (plan, endpoint)
    }

    /// The serving half of the planner phase: folds this store's
    /// digests to the puller's shard count, [`decide`]s per shard,
    /// encodes snapshot blobs for the bulk-load shards, digests the
    /// children of the shards `decide` priced as worth narrowing and
    /// the residuals of the shards it proposes — all from one view of
    /// the store, the one whose [`generation`](Self::generation) the
    /// caller remembers as the connection's next `since` (call under
    /// one lock in a daemon).
    ///
    /// `since` is this store's generation when it planned the same
    /// connection's previous contact. Where the change
    /// journal still reaches back to it, the keys changed since are the
    /// hints `decide` prices, and each shard it chooses to propose
    /// carries them as candidates beside the digest of everything else
    /// in the shard. With `None`, or a journal that has since evicted
    /// past `since`, the plan is what digests alone give.
    ///
    /// No endpoint is built here: which keys the contact will open is
    /// not known until the puller has answered what the plan offers
    /// ([`server_endpoint_cut`](Self::server_endpoint_cut)).
    pub fn plan_contact_since(
        &self,
        digests: &DigestVector,
        since: Option<u64>,
        config: &PlanConfig,
    ) -> ShardPlan {
        let count = digests.shards.len().clamp(1, MAX_SHARDS);
        let ours = self.shard_digests_at(count);
        let mut hints: Vec<Candidates> = Vec::new();
        if let Some(changed) = since.and_then(|since| self.journal.changed_since(since)) {
            let mut by_shard: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for hash in changed {
                let candidates = by_shard.entry(hash & (count as u64 - 1)).or_default();
                candidates.push(hash & (MAX_PLAN_SHARDS - 1));
            }
            for (shard, mut candidates) in by_shard {
                candidates.sort_unstable();
                candidates.dedup();
                hints.push((shard, candidates));
            }
        }
        let decision = decide(&digests.shards[..count], &ours, &hints, config);
        let mut plan = ShardPlan {
            count: count as u64,
            ..ShardPlan::default()
        };
        let mut bulk = Vec::new();
        for (shard, action) in decision.actions.iter().enumerate() {
            match action {
                ShardAction::Skip => {}
                ShardAction::Incremental => plan.incremental.push(shard as u64),
                ShardAction::Snapshot => bulk.push(shard as u64),
            }
        }
        // Each walk sorts the shards it names and nothing else; within
        // a walk, bucketing keeps key order, so each image is what
        // `encode_shard_snapshot` would sort out for that shard alone.
        let mut images: BTreeMap<u64, Vec<&Record>> =
            bulk.iter().map(|&shard| (shard, Vec::new())).collect();
        for record in self.records_in(&bulk, count, |_| true) {
            let shard = shard_index(record.key_bytes(), count) as u64;
            images.get_mut(&shard).expect("a bulk shard").push(record);
        }
        plan.snapshots = images
            .iter()
            .map(|(&shard, image)| (shard, encode_image(None, image)))
            .collect();
        if !decision.refined.is_empty() {
            let children = self.child_digests(&decision.refined, plan.count, decision.fanout);
            plan.children = Some(ChildDigests {
                fanout: decision.fanout,
                parents: decision.refined.into_iter().zip(children).collect(),
            });
        }
        if !decision.proposed.is_empty() {
            hints.retain(|(shard, _)| decision.proposed.binary_search(shard).is_ok());
            let residuals = self.residuals(&ours, &hints);
            plan.proposed = (hints.into_iter().zip(residuals))
                .map(|((shard, candidates), residual)| Proposal {
                    shard,
                    candidates,
                    residual,
                })
                .collect();
        }
        plan
    }

    /// This store's answer to what a
    /// [`Serving`](optrep_replication::mux::Serving) asks its source.
    /// At the digest frame: [`plan_contact_since`](Self::plan_contact_since)
    /// and this store's [`generation`](Self::generation) — the `since`
    /// of the connection's next contact — from one view. At the first
    /// frame of the puller's burst:
    /// [`server_endpoint_cut`](Self::server_endpoint_cut) over what the
    /// puller left of the plan, or the full
    /// [`server_endpoint`](Self::server_endpoint) for a puller that sent
    /// no digest vector.
    ///
    /// A daemon locks once per ask, so the endpoint is a later view of
    /// the store than the plan. A key written in between is served at
    /// its newer state — vector and value read together here — if the
    /// cut admits it, and is otherwise left to the connection's next
    /// contact, whose `since` is the plan's generation and so still
    /// behind the write (see
    /// [`ContactSource`](optrep_replication::mux::ContactSource)).
    pub fn open_contact(&self, ask: ContactAsk<'_>, config: &PlanConfig) -> ContactAnswer {
        match ask {
            ContactAsk::Plan { digests, since } => {
                let plan = self.plan_contact_since(digests, since, config);
                ContactAnswer::Plan(plan, self.generation)
            }
            ContactAsk::Endpoint(Some(cut)) => {
                ContactAnswer::Endpoint(self.server_endpoint_cut(&cut))
            }
            ContactAsk::Endpoint(None) => ContactAnswer::Endpoint(self.server_endpoint()),
        }
    }

    /// A *planned* in-process pull from `src`: the full planner path —
    /// digest exchange, per-shard [`decide`], restricted contact over
    /// the incremental shards, snapshot bulk-load of the rest — in one
    /// call: [`pull_planned`] over an in-process link whose far end is
    /// `src`, so both planner frames cross the codec like every other
    /// frame. The daemon's pull is the same three steps over a socket;
    /// this is what it is tested against, and what the benches mirror.
    ///
    /// Every call opens a fresh in-process link, so nothing is
    /// remembered between calls: the digest vector always crosses in
    /// full (`digests_sent == shards_total`) and `src` proposes nothing
    /// — the *first* contact of a daemon's connection. A daemon's later
    /// pulls over the same pooled socket send a delta, are proposed to
    /// from the source's journal, and report fewer `digest_bytes`,
    /// `meta_bytes` and `keys_examined` than this mirror; they end in
    /// the same state.
    ///
    /// Returns the sync report and the contact report (planner counters
    /// filled in, planner bytes excluded from the four byte planes).
    ///
    /// # Errors
    ///
    /// Propagates protocol errors; on error no key is modified.
    pub fn sync_planned(
        &mut self,
        src: &KvStore,
        resolver: &dyn Resolver,
        config: &PlanConfig,
    ) -> Result<(KvSyncReport, ContactReport)> {
        let digests = self.shard_digest_vector();
        let mut far = |ask: ContactAsk<'_>| src.open_contact(ask, config);
        let (client, plan, contact) = pull_planned(
            &mut InProcessLink::serving(&mut far),
            &mut VectorMemory::default(),
            &digests,
            |plan| self.client_endpoint_refined(plan),
        )?;
        let (report, _) = self.apply_planned_tracked(resolver, client, &contact, &plan)?;
        Ok((report, contact))
    }

    /// Commits a completed contact's outcomes to this store.
    ///
    /// `client` must be the endpoint created by
    /// [`client_endpoint`](Self::client_endpoint) **on this store in its
    /// current state**, driven to completion; `contact` is the report the
    /// driver returned. Application is transactional: every outcome is
    /// decoded and validated into a staging list before the first key is
    /// touched, so a corrupt payload mid-batch leaves the store
    /// byte-identical and uncounted.
    ///
    /// # Errors
    ///
    /// Returns a wire error if an outcome's payload is missing or
    /// malformed; the store is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the contact has not run to completion (the endpoint
    /// still holds undelivered frames).
    pub fn apply_contact(
        &mut self,
        resolver: &dyn Resolver,
        client: BatchPullClient,
        contact: &ContactReport,
    ) -> Result<KvSyncReport> {
        let staged = Self::stage_contact(client)?;
        Ok(self.commit_staged(resolver, staged, Vec::new(), contact).0)
    }

    /// [`apply_contact`](Self::apply_contact) for a *planned* contact:
    /// commits the restricted contact's outcomes **and** the plan's
    /// whole-shard snapshot blobs as one transaction, and carries the
    /// planner counters into the report. Also returns the keys the
    /// commit actually changed (created, fast-forwarded or reconciled —
    /// clean keys are not listed): a daemon logging committed mutations
    /// captures each changed key's post-state
    /// ([`encode_entry`](Self::encode_entry)) under the same lock as the
    /// commit, so one contact becomes one atomic log record.
    ///
    /// Snapshot entries are decoded and validated before the first key
    /// is touched — each key must hash into its blob's claimed shard at
    /// the plan's shard count, so a hostile blob cannot smuggle keys
    /// into shards the plan skipped. An entry whose key this store
    /// already tracks is *not* applied (a rotating vector has no merge;
    /// the write that raced the plan keeps the shard dirty and it
    /// reconciles incrementally on the next contact).
    ///
    /// # Errors / Panics
    ///
    /// As [`apply_contact`](Self::apply_contact), plus a wire error on
    /// a malformed or mis-sharded snapshot blob; the store is untouched
    /// on any error.
    pub fn apply_planned_tracked(
        &mut self,
        resolver: &dyn Resolver,
        client: BatchPullClient,
        contact: &ContactReport,
        plan: &ShardPlan,
    ) -> Result<(KvSyncReport, Vec<String>)> {
        let staged = Self::stage_contact(client)?;
        let snapshots = self.stage_snapshots(plan)?;
        Ok(self.commit_staged(resolver, staged, snapshots, contact))
    }

    /// Decodes and validates a finished contact's outcomes into a
    /// staging list — every fallible step of an apply, before any key
    /// is touched.
    fn stage_contact(client: BatchPullClient) -> Result<Vec<(String, Srv, SessionTotals, Staged)>> {
        let mut staged: Vec<(String, Srv, SessionTotals, Staged)> = Vec::new();
        for result in client.finish() {
            let Some(outcome) = result.outcome else {
                // Our key, absent on the source — or a stream that aborted
                // mid-session: nothing is applied either way.
                continue;
            };
            let key = String::from_utf8(result.name.to_vec())
                .map_err(|_| optrep_core::Error::Wire(WireError::InvalidPayload))?;
            let value_of = |payload: Option<Bytes>| -> Result<Value> {
                let payload = payload.ok_or(optrep_core::Error::Wire(WireError::InvalidPayload))?;
                decode_value(payload).map_err(optrep_core::Error::Wire)
            };
            let action = if result.discovered {
                Staged::Create {
                    value: value_of(outcome.payload)?,
                }
            } else {
                match outcome.relation {
                    Causality::Equal | Causality::After => Staged::Clean,
                    Causality::Before => Staged::FastForward {
                        value: value_of(outcome.payload)?,
                    },
                    Causality::Concurrent => Staged::Reconcile {
                        theirs: value_of(outcome.payload)?,
                    },
                }
            };
            staged.push((key, outcome.vector, outcome.stats.totals(), action));
        }
        Ok(staged)
    }

    /// Decodes and validates a plan's snapshot blobs into ready-to-commit
    /// entries, skipping keys this store already tracks (see
    /// [`apply_planned_tracked`](Self::apply_planned_tracked)).
    fn stage_snapshots(&self, plan: &ShardPlan) -> Result<Vec<Record>> {
        let count = plan.count as usize;
        let mut entries = Vec::new();
        for (shard, blob) in &plan.snapshots {
            if *shard >= plan.count {
                return Err(optrep_core::Error::Wire(WireError::InvalidPayload));
            }
            let mut buf = blob.clone();
            let n = wire::get_varint(&mut buf).map_err(optrep_core::Error::Wire)?;
            for _ in 0..n {
                let record = decode_keyed(&mut buf).map_err(optrep_core::Error::Wire)?;
                // The shard-map invariant: every key must hash into the
                // blob's claimed shard at the plan's count.
                if shard_index(record.key_bytes(), count) != *shard as usize {
                    return Err(optrep_core::Error::Wire(WireError::InvalidPayload));
                }
                if self.record(record.key_bytes()).is_some() {
                    continue;
                }
                entries.push(record);
            }
            if buf.has_remaining() {
                return Err(optrep_core::Error::Wire(WireError::InvalidPayload));
            }
        }
        Ok(entries)
    }

    /// Commits staged contact outcomes plus staged snapshot entries.
    /// Infallible: every fallible step happened in staging.
    fn commit_staged(
        &mut self,
        resolver: &dyn Resolver,
        staged: Vec<(String, Srv, SessionTotals, Staged)>,
        snapshots: Vec<Record>,
        contact: &ContactReport,
    ) -> (KvSyncReport, Vec<String>) {
        let totals = contact.totals();
        self.stats.record_contact(contact.round_trips);
        self.stats.absorb(&totals);
        let mut report = KvSyncReport {
            meta_bytes: totals.meta_wire_bytes() as usize,
            value_bytes: totals.payload_bytes as usize,
            shards_total: contact.shards_total as usize,
            shards_skipped: contact.shards_skipped as usize,
            shards_incremental: contact.shards_incremental as usize,
            shards_snapshot: contact.shards_snapshot as usize,
            digest_bytes: contact.digest_bytes as usize,
            shards_refined: contact.shards_refined as usize,
            digests_sent: contact.digests_sent as usize,
            shards_proposed: contact.shards_proposed as usize,
            shards_refused: contact.shards_refused as usize,
            ..KvSyncReport::default()
        };
        let site = self.site;
        let mut changed = Vec::new();
        for (key, mut meta, stream_totals, action) in staged {
            self.stats.absorb(&stream_totals);
            report.keys_examined += 1;
            match action {
                Staged::Clean => report.keys_unchanged += 1,
                Staged::Create { value } => {
                    self.insert(Record::new(&key, &meta, value.as_deref()));
                    report.keys_created += 1;
                    changed.push(key);
                }
                Staged::FastForward { value } => {
                    let tracked = self.insert(Record::new(&key, &meta, value.as_deref()));
                    assert!(tracked, "client named our key");
                    self.stats.record_fast_forward();
                    report.keys_fast_forwarded += 1;
                    changed.push(key);
                }
                Staged::Reconcile { theirs } => {
                    let ours = self.record(key.as_bytes()).expect("client named our key");
                    // The resolver's currency is the API's: lend it
                    // our side as a buffer of its own.
                    let mine = ours.view().value.map(Bytes::copy_from_slice);
                    let resolved = resolver.resolve(&key, &mine, &theirs);
                    // Parker §C: the resolved version must dominate
                    // both parents.
                    meta.record_update(site);
                    self.insert(Record::new(&key, &meta, resolved.as_deref()));
                    self.stats.record_reconciliation();
                    report.keys_reconciled += 1;
                    changed.push(key);
                }
            }
        }
        for record in snapshots {
            report.keys_examined += 1;
            report.keys_created += 1;
            changed.push(record.entry().0.to_owned());
            self.insert(record);
        }
        // One bump for the whole commit, every changed key journalled
        // under it.
        if !changed.is_empty() {
            self.generation += 1;
            for key in &changed {
                self.journal
                    .record(self.generation, placement(key.as_bytes()));
            }
        }
        (report, changed)
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
            .fold(0u64, |acc, shard| acc.wrapping_add(shard.digest));
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

    /// Serializes the whole store into a durable snapshot: the site,
    /// then the image of every record in key order.
    pub fn encode_snapshot(&self) -> Bytes {
        encode_image(Some(self.site), &self.records_sorted())
    }

    /// The wire form of one entry's *current* state: metadata snapshot
    /// plus the tagged value, exactly the per-entry layout
    /// [`encode_snapshot`](Self::encode_snapshot) uses (minus the key,
    /// which the caller frames separately). This is what a write-ahead
    /// log records per mutated key — logging post-states instead of
    /// operations makes replay exact and idempotent regardless of what
    /// produced the state (a local write, a fast-forward, or a
    /// resolver's reconciliation).
    ///
    /// Returns `None` if the key is not tracked (never written).
    pub fn encode_entry(&self, key: &str) -> Option<Bytes> {
        let (_, state) = self.record(key.as_bytes())?.split();
        Some(Bytes::copy_from_slice(state))
    }

    /// Overwrites one entry with a state captured by
    /// [`encode_entry`](Self::encode_entry), bumping the write
    /// generation. The WAL replay path: applying every logged
    /// post-state in order rebuilds the store the log described.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input (trailing
    /// bytes included); the store is untouched on error.
    pub fn apply_encoded_entry(
        &mut self,
        key: impl Into<String>,
        buf: &mut Bytes,
    ) -> std::result::Result<(), WireError> {
        let (meta, value) = decode_state(buf)?;
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        let key = key.into();
        let idx = self.touch(&key);
        self.shards[idx].upsert(Record::new(&key, &meta, value.as_deref()));
        Ok(())
    }

    /// Rebuilds a store from [`encode_snapshot`](Self::encode_snapshot)
    /// output.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input.
    pub fn decode_snapshot(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        let site = wire::get_site(buf)?;
        let n = wire::get_varint(buf)? as usize;
        // The shard count is a local layout choice, never serialized:
        // rebuilding at the environment's count reshards at boot for free.
        let mut store = KvStore::with_shards(site, env_shards());
        for _ in 0..n {
            store.insert(decode_keyed(buf)?);
        }
        Ok(store)
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
        self.store.apply_contact(self.resolver, client, &contact)
    }
}

/// A pulling endpoint over `records`: one stream per key, carrying its
/// current metadata.
fn pulling(records: Vec<&Record>) -> BatchPullClient {
    BatchPullClient::new(records.into_iter().map(|record| {
        let key = Bytes::copy_from_slice(record.key_bytes());
        (key, record.view().srv())
    }))
}

/// A serving endpoint over `records`: metadata plus the encoded value
/// per key.
fn serving(records: Vec<&Record>) -> BatchPullServer {
    BatchPullServer::new(records.into_iter().map(|record| {
        let key = Bytes::copy_from_slice(record.key_bytes());
        let view = record.view();
        (key, view.srv(), encode_value(view.value))
    }))
}

/// Reads the one wire form of an entry's state — its metadata snapshot,
/// length-prefixed, then the value behind a one-byte tag (`0` a
/// tombstone, `1` length-prefixed bytes) — into the vector and the value
/// a [`Record`] is built from. The value is still a slice of `buf`;
/// [`Record::new`] copies it.
fn decode_state(buf: &mut Bytes) -> std::result::Result<(Srv, Value), WireError> {
    let mut meta_bytes = wire::get_bytes(buf)?;
    let meta = Srv::decode_snapshot(&mut meta_bytes)?;
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEof);
    }
    let value = match buf.get_u8() {
        0 => None,
        1 => Some(wire::get_bytes(buf)?),
        _ => return Err(WireError::InvalidPayload),
    };
    Ok((meta, value))
}

/// Reads one entry of an image: its key, which must be UTF-8, and its
/// state. Every decoded entry comes through [`decode_state`] and
/// [`Record::new`], so a store holds what its own encoder writes for the
/// state it read, never the bytes it read it from.
fn decode_keyed(buf: &mut Bytes) -> std::result::Result<Record, WireError> {
    let key = wire::get_bytes(buf)?;
    let key = std::str::from_utf8(&key).map_err(|_| WireError::InvalidPayload)?;
    let (meta, value) = decode_state(buf)?;
    Ok(Record::new(key, &meta, value.as_deref()))
}

/// An image of (sorted) `records`: the site for a whole store's
/// snapshot (a shard's crosses sites and carries none), a varint count,
/// then each record's bytes. One buffer of the image's exact size.
fn encode_image(site: Option<SiteId>, records: &[&Record]) -> Bytes {
    let site = site.map(|site| u64::from(site.index()));
    let body: usize = records.iter().map(|record| record.bytes().len()).sum();
    let head = site.map_or(0, wire::varint_len) + wire::varint_len(records.len() as u64);
    let mut buf = BytesMut::with_capacity(head + body);
    if let Some(site) = site {
        wire::put_varint(&mut buf, site);
    }
    wire::put_varint(&mut buf, records.len() as u64);
    for record in records {
        buf.put_slice(record.bytes());
    }
    buf.freeze()
}

/// Wire form of a value in flight: `[0]` is a tombstone, `[1, bytes…]` a
/// value — the same one-byte tag the snapshot format uses.
fn encode_value(value: Option<&[u8]>) -> Bytes {
    match value {
        Some(v) => {
            let mut buf = BytesMut::with_capacity(v.len() + 1);
            buf.put_u8(1);
            buf.put_slice(v);
            buf.freeze()
        }
        None => Bytes::from(vec![0u8]),
    }
}

fn decode_value(mut buf: Bytes) -> std::result::Result<Value, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEof);
    }
    match buf.get_u8() {
        0 if !buf.has_remaining() => Ok(None),
        1 => Ok(Some(buf)),
        _ => Err(WireError::InvalidPayload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrep_core::rng::SplitMix64;
    use optrep_replication::mux::run_contact;

    fn s(i: u32) -> SiteId {
        SiteId::new(i)
    }

    /// The walks over `(key, state)` pairs the tests below read stores
    /// through.
    impl KvStore {
        fn iter_entries(&self) -> impl Iterator<Item = (&str, View<'_>)> {
            self.records().map(Record::entry)
        }

        fn entries_sorted(&self) -> Vec<(&str, View<'_>)> {
            let sorted = self.records_sorted();
            sorted.into_iter().map(Record::entry).collect()
        }
    }

    #[test]
    fn put_get_delete() {
        let mut kv = KvStore::new(s(0));
        assert!(kv.is_empty());
        kv.put("a", "1");
        kv.put("b", "2");
        assert_eq!(kv.get("a"), Some(&b"1"[..]));
        assert_eq!(kv.len(), 2);
        kv.delete("a");
        assert_eq!(kv.get("a"), None);
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.tracked_entries(), 2, "tombstone is tracked");
        assert_eq!(kv.keys().collect::<Vec<_>>(), vec!["b"]);
    }

    #[test]
    fn sync_replicates_and_fast_forwards() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        a.put("x", "1");
        a.put("y", "2");
        let report = b.sync(&a).run().unwrap();
        assert_eq!(report.keys_created, 2);
        assert_eq!(b.get("x"), Some(&b"1"[..]));
        a.put("x", "10");
        let report = b.sync(&a).run().unwrap();
        assert_eq!(report.keys_fast_forwarded, 1);
        assert_eq!(report.keys_unchanged, 1);
        assert_eq!(b.get("x"), Some(&b"10"[..]));
        assert!(b.consistent_with(&a));
    }

    #[test]
    fn deletions_propagate() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        a.put("x", "1");
        b.sync(&a).run().unwrap();
        a.delete("x");
        b.sync(&a).run().unwrap();
        assert_eq!(b.get("x"), None);
        assert_eq!(b.tracked_entries(), 1);
    }

    #[test]
    fn concurrent_writes_converge_with_join() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        a.put("k", "base");
        b.sync(&a).run().unwrap();
        a.put("k", "from-a");
        b.put("k", "from-b");
        assert_eq!(
            a.compare_key(&b, "k"),
            Some(Causality::Concurrent),
            "conflict detected"
        );
        let report = b.sync(&a).run().unwrap();
        assert_eq!(report.keys_reconciled, 1);
        // b's resolution dominates; a fast-forwards to it.
        let report = a.sync(&b).run().unwrap();
        assert_eq!(report.keys_fast_forwarded, 1);
        assert_eq!(a.get("k"), b.get("k"));
        assert_eq!(a.get("k"), Some(&b"from-b"[..]), "join picks the max");
        assert!(a.consistent_with(&b));
    }

    #[test]
    fn delete_vs_write_conflict_value_wins() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        a.put("k", "base");
        b.sync(&a).run().unwrap();
        a.delete("k");
        b.put("k", "rescued");
        b.sync(&a).run().unwrap();
        a.sync(&b).run().unwrap();
        assert_eq!(a.get("k"), Some(&b"rescued"[..]));
        assert!(a.consistent_with(&b));
    }

    #[test]
    fn three_stores_converge_under_any_gossip() {
        let mut stores = [KvStore::new(s(0)), KvStore::new(s(1)), KvStore::new(s(2))];
        stores[0].put("k", "seed");
        // Propagate the seed.
        let src = stores[0].clone();
        for t in &mut stores[1..] {
            t.sync(&src).run().unwrap();
        }
        // Everyone writes concurrently.
        for (i, store) in stores.iter_mut().enumerate() {
            store.put("k", format!("w{i}").into_bytes());
        }
        // A few rounds of all-pairs gossip settle it.
        for _ in 0..3 {
            for i in 0..3 {
                for j in 0..3 {
                    if i != j {
                        let src = stores[j].clone();
                        stores[i].sync(&src).run().unwrap();
                    }
                }
            }
        }
        assert!(stores[0].consistent_with(&stores[1]));
        assert!(stores[1].consistent_with(&stores[2]));
        assert_eq!(stores[0].get("k"), Some(&b"w2"[..]), "deterministic max");
    }

    #[test]
    fn meta_bytes_stay_small_on_repeat_syncs() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        for i in 0..50 {
            a.put(format!("key{i}"), "v");
        }
        let first = b.sync(&a).run().unwrap();
        assert_eq!(first.keys_created, 50);
        // Nothing changed: the second pull costs only O(1) comparisons —
        // about ten bytes per key, independent of vector size.
        let second = b.sync(&a).run().unwrap();
        assert_eq!(second.keys_unchanged, 50);
        assert_eq!(second.value_bytes, 0);
        assert!(
            second.meta_bytes <= 50 * 12,
            "repeat sync cost {} exceeds O(1) per key (initial was {})",
            second.meta_bytes,
            first.meta_bytes
        );
        // One changed key costs one delta, not 50 vectors.
        a.put("key7", "v2");
        let third = b.sync(&a).run().unwrap();
        assert_eq!(third.keys_fast_forwarded, 1);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut a = KvStore::new(s(0));
        a.put("x", "1");
        a.delete("x");
        a.put("y", "2");
        let mut buf = a.encode_snapshot();
        let decoded = KvStore::decode_snapshot(&mut buf).unwrap();
        assert!(buf.is_empty());
        assert_eq!(decoded, a);
        assert_eq!(decoded.get("y"), Some(&b"2"[..]));
        assert_eq!(decoded.get("x"), None);
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let mut a = KvStore::new(s(3));
        a.put("key", "value");
        let bytes = a.encode_snapshot();
        for cut in 0..bytes.len() {
            let mut buf = bytes.slice(0..cut);
            assert!(KvStore::decode_snapshot(&mut buf).is_err(), "cut {cut}");
        }
    }

    /// What no encoder writes, a snapshot decoder refuses as the log and
    /// shard-image decoders do — `InvalidPayload`, and no store.
    #[test]
    fn hostile_snapshots_are_invalid_payload() {
        let mut a = KvStore::new(s(3));
        a.put("key", "value");
        let honest = a.encode_snapshot().to_vec();
        // site, count, "key", the vector, then tag, length, "value".
        assert_eq!(honest[2..6], *b"\x03key");
        let tag = honest.len() - 1 - b"value".len() - 1;
        assert_eq!(honest[tag], 1);
        for (at, byte, what) in [
            (tag, 2, "value tag 2"),
            (tag, 255, "value tag 255"),
            (4, 0xff, "a key that is not UTF-8"),
        ] {
            let mut image = honest.clone();
            image[at] = byte;
            let decoded = KvStore::decode_snapshot(&mut Bytes::from(image));
            assert_eq!(decoded.err(), Some(WireError::InvalidPayload), "{what}");
        }
    }

    /// `len()` and `is_empty()` read a count each shard keeps beside its
    /// digest; the walk they replaced is the reference. Every way an
    /// entry comes to hold or lose a value goes by here.
    #[test]
    fn the_live_count_equals_the_walk_after_every_step() {
        fn check(store: &KvStore, step: &str) {
            let walked = store.iter_entries().filter(|(_, e)| e.value.is_some());
            assert_eq!(store.len(), walked.count(), "{step}");
            assert_eq!(store.is_empty(), store.keys().next().is_none(), "{step}");
        }
        let plan = PlanConfig::default();
        let (mut revived, mut snapshot_loaded) = (0, 0);
        let mut pulled = KvSyncReport::default();
        for shards in [1, 16, 512] {
            for seed in 0..6u64 {
                let mut rng = SplitMix64::new(seed * 0x9e37 + shards as u64);
                let mut a = KvStore::with_shards(s(0), shards);
                let mut b = KvStore::with_shards(s(1), shards);
                for step in 0..160 {
                    let key = format!("k{:02}", rng.next_u64() % 24);
                    let op = rng.next_u64() % 12;
                    let step = format!("{shards} shards, seed {seed}, step {step}, op {op}");
                    let store = if rng.next_u64() & 1 == 0 {
                        &mut a
                    } else {
                        &mut b
                    };
                    match op {
                        0..=3 => {
                            let tombstone = store.meta(&key).is_some() && store.get(&key).is_none();
                            revived += usize::from(tombstone);
                            store.put(key, format!("v{step}").into_bytes());
                        }
                        4..=6 => store.delete(key),
                        7 => {
                            let report = b.sync(&a).run().unwrap();
                            pulled.keys_created += report.keys_created;
                            pulled.keys_fast_forwarded += report.keys_fast_forwarded;
                            pulled.keys_reconciled += report.keys_reconciled;
                        }
                        8 => {
                            a.sync_planned(&b, &JoinResolver, &plan).unwrap();
                        }
                        9 => {
                            // A checkpoint reloaded (at the environment's
                            // shard count, like a daemon's).
                            *store =
                                KvStore::decode_snapshot(&mut store.encode_snapshot()).unwrap();
                        }
                        10 => {
                            // A log of `a`'s post-states replayed over `b`.
                            for (key, _) in a.entries_sorted() {
                                let mut record = a.encode_entry(key).unwrap();
                                b.apply_encoded_entry(key, &mut record).unwrap();
                                check(&b, &step);
                            }
                        }
                        _ => {
                            // A joiner bulk-loads whole shards.
                            let mut joiner = KvStore::with_shards(s(2), shards);
                            let (report, _) =
                                joiner.sync_planned(store, &JoinResolver, &plan).unwrap();
                            snapshot_loaded += report.shards_snapshot;
                            assert_eq!(joiner.len(), store.len(), "{step}");
                            check(&joiner, &step);
                        }
                    }
                    check(&a, &step);
                    check(&b, &step);
                }
            }
        }
        assert!(revived > 0 && snapshot_loaded > 0, "every path was taken");
        assert!(
            pulled.keys_created > 0 && pulled.keys_fast_forwarded > 0 && pulled.keys_reconciled > 0,
            "{pulled:?}"
        );
    }

    /// `2³² + 1` is not site 1: the snapshot's own site id is refused
    /// above `u32::MAX`, as every vector element's is.
    #[test]
    fn a_snapshot_site_above_u32_is_refused_not_truncated() {
        let mut image = BytesMut::new();
        wire::put_varint(&mut image, (1 << 32) + 1);
        wire::put_varint(&mut image, 0);
        let decoded = KvStore::decode_snapshot(&mut image.freeze());
        assert_eq!(decoded.err(), Some(WireError::InvalidPayload));
    }

    /// What [`entry_hash`] was before it read a record's bytes: the
    /// vector walked, its pairs collected on the heap and sorted.
    fn entry_hash_by_the_vector(key: &str, meta: &Srv, value: Option<&[u8]>) -> u64 {
        let mut feed = Vec::new();
        feed.extend_from_slice(&(key.len() as u64).to_le_bytes());
        feed.extend_from_slice(key.as_bytes());
        match value {
            Some(v) => {
                feed.push(1);
                feed.extend_from_slice(&(v.len() as u64).to_le_bytes());
                feed.extend_from_slice(v);
            }
            None => feed.push(0),
        }
        let mut pairs: Vec<(u32, u64)> = (meta.as_core().iter())
            .filter(|e| e.value > 0)
            .map(|e| (e.site.index(), e.value))
            .collect();
        pairs.sort_unstable_by_key(|&(site, _)| site);
        feed.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
        for (site, count) in pairs {
            feed.extend_from_slice(&u64::from(site).to_le_bytes());
            feed.extend_from_slice(&count.to_le_bytes());
        }
        placement(&feed)
    }

    /// A seeded entry state covering what moves a length prefix or a
    /// branch: 0–12 sites (so both sides of `INLINE_SITES`), zero-valued
    /// elements, both bits, every kind of value and key.
    fn random_state(rng: &mut SplitMix64) -> (String, Srv, Option<Vec<u8>>) {
        let key = match rng.next_u64() % 8 {
            0 => String::new(),
            1 => "k".repeat(127),
            2 => "k".repeat(128),
            3 => format!("ключ-{}-鍵", rng.next_u64() % 100),
            _ => format!("k{:07}", rng.next_u64() % 10_000_000),
        };
        let mut sites = Vec::new();
        for _ in 0..rng.next_u64() % 13 {
            let site = match rng.next_u64() % 4 {
                0 => u32::MAX - (rng.next_u64() % 4) as u32,
                1 => 128 + (rng.next_u64() % 20_000) as u32,
                _ => (rng.next_u64() % 16) as u32,
            };
            if !sites.contains(&site) {
                sites.push(site);
            }
        }
        let meta = Srv::from_order(sites.into_iter().map(|site| {
            let bits = rng.next_u64();
            optrep_core::order::Element {
                site: s(site),
                value: match bits >> 8 & 3 {
                    0 => 0,
                    1 => bits >> 16 & 0x1f,
                    _ => bits >> 16 & 0xffff_ffff,
                },
                conflict: bits & 1 == 1,
                segment: bits & 2 == 2,
            }
        }));
        let value = match rng.next_u64() % 6 {
            0 => None,
            1 => Some(0),
            2 => Some(1),
            3 => Some(127),
            4 => Some(128),
            _ => Some(20 * 1024),
        };
        let fill = rng.next_u64() as u8;
        (key, meta, value.map(|len| vec![fill; len]))
    }

    #[test]
    fn a_record_reads_back_the_state_it_was_built_from() {
        let mut rng = SplitMix64::new(0x0005_EED0_F2EC_02D5);
        let (mut spilled, mut tombstones) = (0, 0);
        let mut records = Vec::new();
        for case in 0..2000 {
            let (key, meta, value) = random_state(&mut rng);
            let record = Record::new(&key, &meta, value.as_deref());
            let snapshot = meta.encode_snapshot();
            let view = View {
                meta: &snapshot,
                value: value.as_deref(),
            };
            assert_eq!(record.entry(), (key.as_str(), view), "case {case}");
            assert_eq!(record.key_bytes(), key.as_bytes(), "case {case}");
            // `==` on a vector is structural: `≺` order, values, both bits.
            assert_eq!(record.view().srv(), meta, "case {case}");
            // The block is the image's layout and nothing else.
            let mut image = BytesMut::new();
            wire::put_bytes(&mut image, key.as_bytes());
            wire::put_bytes(&mut image, &snapshot);
            match &value {
                Some(v) => {
                    image.put_u8(1);
                    wire::put_bytes(&mut image, v);
                }
                None => image.put_u8(0),
            }
            assert_eq!(record.bytes(), &image[..], "case {case}");
            assert_eq!(record.split().1, &image[wire::bytes_len(key.len())..]);
            assert_eq!(
                entry_hash(&record),
                entry_hash_by_the_vector(&key, &meta, value.as_deref()),
                "case {case}"
            );
            spilled += usize::from(meta.len() > INLINE_SITES);
            tombstones += usize::from(value.is_none());
            records.push((key, record));
        }
        assert!(spilled > 100 && tombstones > 100, "{spilled} {tombstones}");
        // A record is its key to whatever orders it, and byte order is
        // `str` order.
        for pair in records.windows(2) {
            let [(a_key, a), (b_key, b)] = pair else {
                unreachable!()
            };
            assert_eq!(a.cmp(b), a_key.cmp(b_key));
            assert_eq!(a == b, a_key == b_key);
            assert_eq!(Borrow::<[u8]>::borrow(a), a_key.as_bytes());
        }
    }

    /// Which varint of an image a test writes one group longer than any
    /// encoder would (`[0x83, 0x00]` for 3): `wire::get_varint` reads it
    /// as the same number.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Overlong {
        Nothing,
        KeyLen,
        VectorLen,
        ElementCount,
        Site,
        Packed,
        ValueLen,
    }

    fn put_varint_as(buf: &mut BytesMut, value: u64, overlong: bool) {
        if !overlong {
            return wire::put_varint(buf, value);
        }
        let mut rest = value;
        loop {
            buf.put_u8((rest & 0x7f) as u8 | 0x80);
            rest >>= 7;
            if rest == 0 {
                break;
            }
        }
        buf.put_u8(0);
    }

    /// One entry's state as a log record carries it, written from the
    /// decoded state with `pad`'s varints overlong.
    fn state_image(view: View<'_>, pad: Overlong) -> BytesMut {
        let mut meta = BytesMut::new();
        let elements: Vec<_> = view.srv().iter().collect();
        put_varint_as(
            &mut meta,
            elements.len() as u64,
            pad == Overlong::ElementCount,
        );
        for e in elements {
            put_varint_as(&mut meta, u64::from(e.site.index()), pad == Overlong::Site);
            let packed = e.value << 2 | u64::from(e.conflict) << 1 | u64::from(e.segment);
            put_varint_as(&mut meta, packed, pad == Overlong::Packed);
        }
        let mut buf = BytesMut::new();
        put_varint_as(&mut buf, meta.len() as u64, pad == Overlong::VectorLen);
        buf.extend_from_slice(&meta);
        match view.value {
            Some(v) => {
                buf.put_u8(1);
                put_varint_as(&mut buf, v.len() as u64, pad == Overlong::ValueLen);
                buf.extend_from_slice(v);
            }
            None => buf.put_u8(0),
        }
        buf
    }

    /// A shard image of `entries`, or with `site` a whole store's.
    fn image_as(site: Option<SiteId>, entries: &[(&str, View<'_>)], pad: Overlong) -> Bytes {
        let mut buf = BytesMut::new();
        if let Some(site) = site {
            wire::put_varint(&mut buf, u64::from(site.index()));
        }
        wire::put_varint(&mut buf, entries.len() as u64);
        for (key, view) in entries {
            put_varint_as(&mut buf, key.len() as u64, pad == Overlong::KeyLen);
            buf.extend_from_slice(key.as_bytes());
            buf.extend_from_slice(&state_image(*view, pad));
        }
        buf.freeze()
    }

    /// A decoder stores the state it read, re-encoded — never the bytes
    /// it read it from: an image no encoder writes, but every decoder
    /// accepts, leaves the store it would have left written honestly.
    #[test]
    fn overlong_varints_decode_to_the_canonical_store() {
        // Multi-site vectors with bits set, tombstones, and a key and a
        // value on each side of a one-byte length.
        let mut stores = [
            KvStore::with_shards(s(0), 4),
            KvStore::with_shards(s(300), 4),
            KvStore::with_shards(s(2), 4),
        ];
        let mut rng = SplitMix64::new(0x000C_A202_1CA1);
        for step in 0..400 {
            let who = (rng.next_u64() % 3) as usize;
            let key = match rng.next_u64() % 12 {
                0 => "k".repeat(128),
                1 => String::new(),
                k => format!("k{k:02}"),
            };
            match rng.next_u64() % 8 {
                0..=3 => {
                    let len = [0, 1, 127, 128, 300][(rng.next_u64() % 5) as usize];
                    stores[who].put(key, vec![step as u8; len]);
                }
                4 => stores[who].delete(key),
                _ => {
                    let src = stores[(who + 1) % 3].clone();
                    stores[who].sync(&src).run().unwrap();
                }
            }
        }
        let honest = &stores[1];
        let honest_image = honest.encode_snapshot();
        let entries = honest.entries_sorted();
        assert!(entries.iter().any(|(_, e)| e.srv().len() == 3));
        assert!(entries.iter().any(|(_, e)| e.value.is_none()));
        assert_eq!(
            image_as(Some(honest.site()), &entries, Overlong::Nothing),
            honest_image
        );
        let joined = |image: Bytes| {
            let plan = ShardPlan {
                count: 1,
                snapshots: vec![(0, image)],
                ..ShardPlan::default()
            };
            let mut joiner = KvStore::with_shards(s(9), 1);
            let mut client = joiner.client_endpoint_for(&[], 1);
            let mut server = KvStore::with_shards(s(8), 1).server_endpoint_for(&[], 1);
            let contact = run_contact(&mut client, &mut server).unwrap();
            joiner
                .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
                .unwrap();
            joiner
        };
        let honest_joiner = joined(image_as(None, &entries, Overlong::Nothing));
        assert_eq!(honest_joiner.tracked_entries(), entries.len());
        for pad in [
            Overlong::KeyLen,
            Overlong::VectorLen,
            Overlong::ElementCount,
            Overlong::Site,
            Overlong::Packed,
            Overlong::ValueLen,
        ] {
            // A checkpoint.
            let image = image_as(Some(honest.site()), &entries, pad);
            assert!(image.len() > honest_image.len(), "{pad:?}");
            let decoded = KvStore::decode_snapshot(&mut image.clone()).unwrap();
            assert_eq!(decoded, *honest, "{pad:?}");
            assert_eq!(decoded.encode_snapshot(), honest_image, "{pad:?}");
            assert_eq!(decoded.replica_digest(), honest.replica_digest());
            // A peer's shard image.
            let joiner = joined(image_as(None, &entries, pad));
            assert_eq!(joiner, honest_joiner, "{pad:?}");
            assert_eq!(joiner.encode_snapshot(), honest_joiner.encode_snapshot());
            // A log, record by record.
            let mut replayed = KvStore::with_shards(honest.site(), 4);
            let mut padded = 0;
            for (key, view) in &entries {
                let mut record = state_image(*view, pad).freeze();
                let canonical = honest.encode_entry(key).unwrap();
                padded += usize::from(record.len() > canonical.len());
                replayed.apply_encoded_entry(*key, &mut record).unwrap();
                assert_eq!(replayed.encode_entry(key), Some(canonical), "{pad:?}");
            }
            // (A log record frames no key.)
            assert_eq!(padded > 0, pad != Overlong::KeyLen, "{pad:?}");
            assert_eq!(replayed, *honest, "{pad:?}");
            assert_eq!(replayed.encode_snapshot(), honest_image, "{pad:?}");
        }
    }

    #[test]
    fn failed_contact_leaves_store_byte_identical() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        a.put("x", "1");
        b.sync(&a).run().unwrap();
        a.put("x", "2");
        a.put("y", "fresh");
        b.put("z", "local");
        let snapshot = b.encode_snapshot();
        let stats = b.stats();

        // The contact dies partway through: the hello crosses, then the
        // link cuts inside the server's answer. Nothing may be applied.
        let mut cut = FaultyLink::new(optrep_replication::FaultPlan::disconnect_at(40));
        let err = b.sync(&a).via(&mut cut).run().unwrap_err();
        assert!(matches!(
            err,
            optrep_core::Error::ConnectionLost { after_bytes: 40 }
        ));
        assert!(cut.stats().frames_delivered >= 1, "the hello crossed");
        assert_eq!(b.encode_snapshot(), snapshot, "store must be untouched");
        assert_eq!(b.stats(), stats, "no costs recorded for an aborted sync");

        // A clean follow-up sync converges as if the abort never happened.
        b.sync(&a).run().unwrap();
        a.sync(&b).run().unwrap();
        assert!(a.consistent_with(&b));
        assert_eq!(b.get("x"), Some(&b"2"[..]));
        assert_eq!(b.get("y"), Some(&b"fresh"[..]));
    }

    #[test]
    fn replica_digest_is_site_independent() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        a.put("x", "1");
        a.put("y", "2");
        a.delete("y");
        assert_ne!(a.replica_digest(), b.replica_digest());
        b.sync(&a).run().unwrap();
        assert!(b.consistent_with(&a));
        assert_eq!(
            a.replica_digest(),
            b.replica_digest(),
            "converged replicas on different sites must digest equal"
        );
        // Snapshot bytes, by contrast, embed the site id.
        assert_ne!(a.encode_snapshot(), b.encode_snapshot());
        b.put("x", "3");
        assert_ne!(a.replica_digest(), b.replica_digest());
    }

    #[test]
    fn generation_tracks_every_state_change() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        assert_eq!(b.generation(), 0);
        b.put("k", "v");
        assert_eq!(b.generation(), 1);
        b.delete("k");
        assert_eq!(b.generation(), 2);
        a.put("other", "v");
        let before = b.generation();
        b.sync(&a).run().unwrap();
        assert!(b.generation() > before, "an applied pull moves the store");
        // A no-op pull (nothing to apply) leaves the generation alone.
        let before = b.generation();
        b.sync(&a).run().unwrap();
        assert_eq!(b.generation(), before);
    }

    #[test]
    fn public_endpoints_drive_a_contact_like_sync() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        a.put("x", "1");
        a.put("y", "2");
        b.put("x", "0");
        let mut reference = b.clone();
        reference.sync(&a).run().unwrap();

        let mut client = b.client_endpoint();
        let mut server = a.server_endpoint();
        let contact = run_contact(&mut client, &mut server).unwrap();
        let report = b.apply_contact(&JoinResolver, client, &contact).unwrap();
        assert_eq!(report.keys_examined, 2);
        assert!(b.consistent_with(&reference));
        assert_eq!(b.replica_digest(), reference.replica_digest());
    }

    #[test]
    fn entry_encoding_roundtrips_and_tracks_generation() {
        let mut a = KvStore::new(s(0));
        a.put("x", "1");
        a.put("gone", "2");
        a.delete("gone");
        assert!(a.encode_entry("absent").is_none());

        // Replaying both entries' post-states into a fresh store on the
        // same site rebuilds identical replicated state.
        let mut b = KvStore::new(s(0));
        for key in ["x", "gone"] {
            let mut blob = a.encode_entry(key).unwrap();
            b.apply_encoded_entry(key, &mut blob).unwrap();
        }
        assert_eq!(b, a);
        assert_eq!(b.generation(), 2, "each applied entry moves the store");

        // Truncations and trailing junk are rejected without touching
        // the store.
        let blob = a.encode_entry("x").unwrap();
        for cut in 0..blob.len() {
            let snapshot = b.encode_snapshot();
            let mut buf = blob.slice(0..cut);
            assert!(b.apply_encoded_entry("x", &mut buf).is_err(), "cut {cut}");
            assert_eq!(b.encode_snapshot(), snapshot);
        }
        let mut padded = BytesMut::new();
        padded.extend_from_slice(&blob);
        padded.put_u8(0);
        let mut buf = padded.freeze();
        assert!(b.apply_encoded_entry("x", &mut buf).is_err());
    }

    #[test]
    fn apply_planned_tracked_names_exactly_the_changed_keys() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        a.put("both", "base");
        b.sync(&a).run().unwrap();
        a.put("created", "new"); // will be created on b
        a.put("both", "ff"); // will fast-forward on b
        b.put("mine", "local"); // a never sees it: no outcome
        let mut client = b.client_endpoint();
        let mut server = a.server_endpoint();
        let contact = run_contact(&mut client, &mut server).unwrap();
        let unplanned = ShardPlan::default();
        let (report, mut changed) = b
            .apply_planned_tracked(&JoinResolver, client, &contact, &unplanned)
            .unwrap();
        changed.sort();
        assert_eq!(changed, vec!["both".to_string(), "created".to_string()]);
        assert_eq!(report.keys_created + report.keys_fast_forwarded, 2);

        // A clean repeat pull changes nothing and names nothing.
        let mut client = b.client_endpoint();
        let mut server = a.server_endpoint();
        let contact = run_contact(&mut client, &mut server).unwrap();
        let before = b.generation();
        let (_, changed) = b
            .apply_planned_tracked(&JoinResolver, client, &contact, &unplanned)
            .unwrap();
        assert!(changed.is_empty());
        assert_eq!(b.generation(), before);
    }

    #[test]
    fn ours_resolver_is_sticky() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        a.put("k", "base");
        b.sync(&a).run().unwrap();
        a.put("k", "a-side");
        b.put("k", "b-side");
        b.sync(&a).with_resolver(&OursResolver).run().unwrap();
        assert_eq!(b.get("k"), Some(&b"b-side"[..]));
        // b's resolution now dominates; a adopts it.
        a.sync(&b).with_resolver(&OursResolver).run().unwrap();
        assert_eq!(a.get("k"), Some(&b"b-side"[..]));
    }

    #[test]
    fn stores_equal_and_digest_equal_across_shard_counts() {
        let mut stores: Vec<KvStore> = [1usize, 2, 16, 64]
            .iter()
            .map(|&n| KvStore::with_shards(s(0), n))
            .collect();
        for store in &mut stores {
            for i in 0..50 {
                store.put(format!("key-{i}"), format!("v{i}"));
            }
            store.delete("key-7");
            store.put("key-3", "rewritten");
        }
        let reference = stores.pop().unwrap();
        for store in &stores {
            assert_eq!(*store, reference);
            assert_eq!(store.replica_digest(), reference.replica_digest());
            assert_eq!(store.replica_digest(), store.replica_digest_full());
            assert_eq!(store.encode_snapshot(), reference.encode_snapshot());
        }
    }

    #[test]
    fn shard_digests_fold_across_counts() {
        let mut store = KvStore::with_shards(s(0), 64);
        for i in 0..200 {
            store.put(format!("key-{i}"), format!("v{i}"));
        }
        for count in [1usize, 4, 16, 64, 256] {
            let folded = store.shard_digests_at(count);
            let mirror = {
                let mut m = KvStore::with_shards(s(1), count);
                for record in store.records() {
                    m.insert(record.clone());
                }
                m.shard_digest_vector().shards
            };
            assert_eq!(folded, mirror, "fold to {count} shards");
        }
    }

    #[test]
    fn planned_sync_matches_unplanned_and_skips_clean_shards() {
        let config = PlanConfig {
            snapshot_threshold: 2.0, // incremental-only: exercise skip logic
        };
        let mut a = KvStore::with_shards(s(0), 16);
        let mut b = KvStore::with_shards(s(1), 16);
        for i in 0..100 {
            a.put(format!("key-{i}"), format!("v{i}"));
        }
        let mut reference = b.clone();
        reference.sync(&a).run().unwrap();
        let (report, contact) = b.sync_planned(&a, &JoinResolver, &config).unwrap();
        assert!(b.consistent_with(&reference));
        assert_eq!(b.replica_digest(), reference.replica_digest());
        assert_eq!(report.shards_total, 16);
        assert_eq!(report.shards_snapshot, 0);
        assert!(report.digest_bytes > 0);
        assert_eq!(contact.shards_total, 16);

        // A second immediate pull: every shard digest matches, so the
        // planner opens zero object streams.
        let (report, _) = b.sync_planned(&a, &JoinResolver, &config).unwrap();
        assert_eq!(report.shards_skipped, report.shards_total);
        assert_eq!(report.shards_incremental, 0);
        assert_eq!(report.keys_examined, 0);
        assert_eq!(report.value_bytes, 0);
    }

    #[test]
    fn planned_sync_across_different_shard_counts() {
        // Puller at 4 shards, server at 64: the server folds down.
        // Puller at 64, server at 4: the server recomputes up.
        for (pull_shards, serve_shards) in [(4usize, 64usize), (64, 4), (1, 16)] {
            let mut src = KvStore::with_shards(s(0), serve_shards);
            for i in 0..80 {
                src.put(format!("key-{i}"), format!("v{i}"));
            }
            let mut dst = KvStore::with_shards(s(1), pull_shards);
            dst.put("key-3", "local");
            let mut reference = dst.clone();
            reference.sync(&src).run().unwrap();
            let (_, contact) = dst
                .sync_planned(&src, &JoinResolver, &PlanConfig::default())
                .unwrap();
            assert!(dst.consistent_with(&reference));
            assert_eq!(dst.replica_digest(), reference.replica_digest());
            assert_eq!(contact.shards_total as usize, pull_shards);
        }
    }

    #[test]
    fn planned_sync_snapshots_empty_shards() {
        let mut src = KvStore::with_shards(s(0), 8);
        for i in 0..60 {
            src.put(format!("key-{i}"), format!("v{i}"));
        }
        src.delete("key-11");
        let mut dst = KvStore::with_shards(s(1), 8);
        let mut reference = dst.clone();
        reference.sync(&src).run().unwrap();
        let (report, contact) = dst
            .sync_planned(&src, &JoinResolver, &PlanConfig::default())
            .unwrap();
        // Every local shard is empty, so every dirty shard bulk-loads.
        assert_eq!(report.shards_incremental, 0);
        assert!(report.shards_snapshot > 0);
        assert_eq!(report.keys_created, 60);
        // A pure snapshot plan opens zero object streams: the contact is
        // just the empty BatchHello handshake.
        let empty_contact = {
            let empty = KvStore::with_shards(s(2), 8);
            let mut c = empty.client_endpoint_for(&[], 8);
            let mut sv = empty.server_endpoint_for(&[], 8);
            run_contact(&mut c, &mut sv).unwrap()
        };
        assert_eq!(contact.frames, empty_contact.frames);
        assert_eq!(contact.payload_bytes, 0);
        assert!(dst.consistent_with(&reference));
        assert_eq!(dst.replica_digest(), reference.replica_digest());
        // Tombstones survive the bulk load.
        assert_eq!(dst.get("key-11"), None);
        assert!(dst.meta("key-11").is_some());
    }

    #[test]
    fn one_walk_plan_matches_the_per_shard_builders() {
        let mut src = KvStore::with_shards(s(0), 8);
        for i in 0..120 {
            src.put(format!("key-{i}"), format!("v{i}"));
        }
        src.delete("key-17");
        // Plan counts below, equal to and above the physical count; a
        // puller holding one stale key has incremental shards too.
        for count in [2usize, 8, 32] {
            let mut dst = KvStore::with_shards(s(1), count);
            dst.put("key-3", "stale");
            let digests = dst.shard_digest_vector();
            let (plan, endpoint) = src.plan_contact(&digests, &PlanConfig::default());
            assert_eq!(plan.incremental.len(), 1, "{count} shards");
            assert!(!plan.snapshots.is_empty(), "{count} shards");
            for (shard, blob) in &plan.snapshots {
                assert_eq!(
                    *blob,
                    src.encode_shard_snapshot(*shard, count),
                    "shard {shard} of {count}"
                );
            }
            let reference = src.server_endpoint_for(&plan.incremental, count);
            assert_eq!(format!("{endpoint:?}"), format!("{reference:?}"));
        }
    }

    #[test]
    fn shard_walks_visit_exactly_what_a_whole_store_filter_keeps() {
        for physical in [1usize, 8, 64] {
            let mut store = KvStore::with_shards(s(0), physical);
            for i in 0..300 {
                store.put(format!("key-{i}"), format!("v{i}"));
            }
            store.delete("key-42");
            for count in [1usize, 4, 8, 32, 256] {
                // Every other shard, plus one index past the map.
                let shards: Vec<u64> = (0..count as u64).step_by(2).chain([count as u64]).collect();
                let named = |key: &[u8]| shards.contains(&(shard_index(key, count) as u64));
                let mut filtered = store.records_sorted();
                filtered.retain(|record| named(record.key_bytes()));
                let walked = store.records_in(&shards, count, |_| true);
                let bytes = |records: Vec<&Record>| -> Vec<Vec<u8>> {
                    records.iter().map(|r| r.bytes().to_vec()).collect()
                };
                assert_eq!(bytes(walked), bytes(filtered), "{count} over {physical}");

                // Children: the digests at count * F, regrouped by parent.
                let fanout = 4usize;
                let parents: Vec<u64> = (0..count as u64).step_by(2).collect();
                let finer = store.shard_digests_at(count * fanout);
                let children = store.child_digests(&parents, count as u64, fanout as u64);
                for (parent, digests) in parents.iter().zip(&children) {
                    for (j, child) in digests.iter().enumerate() {
                        assert_eq!(*child, finer[*parent as usize + j * count]);
                    }
                }
            }
        }
    }

    /// One planned pull by a puller that ignores the plan's children and
    /// walks its incremental shards whole.
    fn flat_planned_pull(dst: &mut KvStore, src: &KvStore) -> (KvSyncReport, ContactReport) {
        let config = PlanConfig::default();
        let digests = dst.shard_digest_vector();
        let mut far = |ask: ContactAsk<'_>| src.open_contact(ask, &config);
        let (client, plan, contact) = pull_planned(
            &mut InProcessLink::serving(&mut far),
            &mut VectorMemory::default(),
            &digests,
            |plan| dst.client_endpoint_for(&plan.incremental, plan.count as usize),
        )
        .unwrap();
        let (report, _) = dst
            .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
            .unwrap();
        (report, contact)
    }

    /// A converged pair at 64 shards holding `keys` keys of 32-byte
    /// values, and then one key rewritten at the source in each of the
    /// first `dirty_shards` shards.
    fn pair_with_dirty_shards(keys: usize, dirty_shards: usize) -> (KvStore, KvStore) {
        let mut src = KvStore::with_shards(s(1), 64);
        for i in 0..keys {
            src.put(format!("key-{i:05}"), vec![b'v'; 32]);
        }
        let mut dst = KvStore::with_shards(s(0), 64);
        dst.sync(&src).run().unwrap();
        for shard in 0..dirty_shards {
            let key = (0..keys)
                .map(|i| format!("key-{i:05}"))
                .find(|key| shard_index(key.as_bytes(), 64) == shard)
                .expect("every shard holds a key");
            src.put(key, vec![b'w'; 32]);
        }
        (dst, src)
    }

    #[test]
    fn a_sparse_pull_moves_half_the_bytes_once_cut_at_the_children() {
        // 195 keys a shard, one dirty key in each of four shards.
        let (dst, src) = pair_with_dirty_shards(64 * 195, 4);
        let bytes = |r: &KvSyncReport| r.meta_bytes + r.value_bytes + r.digest_bytes;
        let mut flat_dst = dst.clone();
        let (flat, _) = flat_planned_pull(&mut flat_dst, &src);
        let mut refined_dst = dst;
        let (refined, _) = refined_dst
            .sync_planned(&src, &JoinResolver, &PlanConfig::default())
            .unwrap();
        assert_eq!((flat.keys_fast_forwarded, flat.shards_refined), (4, 0));
        assert_eq!(
            (refined.keys_fast_forwarded, refined.shards_refined),
            (4, 4)
        );
        assert_eq!(
            refined_dst.replica_digest_full(),
            flat_dst.replica_digest_full()
        );
        assert_eq!(refined_dst.replica_digest(), src.replica_digest());
        // Per changed key: the digest vector is most of what is left.
        assert!(
            bytes(&refined) * 2 <= bytes(&flat),
            "refined {} B, flat {} B for 4 keys",
            bytes(&refined),
            bytes(&flat)
        );
        assert!(refined.keys_examined * 8 < flat.keys_examined);
    }

    #[test]
    fn a_dense_pull_is_offered_no_children_and_runs_as_it_always_did() {
        // 40 keys a shard, every shard dirty.
        let (dst, src) = pair_with_dirty_shards(64 * 40, 64);
        let digests = dst.shard_digest_vector();
        let (plan, _) = src.plan_contact(&digests, &PlanConfig::default());
        assert_eq!(plan.incremental.len(), 64);
        assert_eq!(plan.children, None);
        let mut flat_dst = dst.clone();
        let flat = flat_planned_pull(&mut flat_dst, &src);
        let mut planned_dst = dst;
        let planned = planned_dst
            .sync_planned(&src, &JoinResolver, &PlanConfig::default())
            .unwrap();
        assert_eq!(planned, flat, "same frames, same bytes, same verdicts");
        assert_eq!(planned_dst.replica_digest(), src.replica_digest());
    }

    #[test]
    fn planned_sync_snapshot_skips_racing_local_keys() {
        let mut src = KvStore::with_shards(s(0), 1);
        src.put("a", "src");
        src.put("b", "src");
        let digests = KvStore::with_shards(s(1), 1).shard_digest_vector();
        // Plan against an empty view, then write locally before applying:
        // the staged snapshot must not clobber the racing write.
        let (plan, mut server) = src.plan_contact(&digests, &PlanConfig::default());
        assert_eq!(plan.snapshots.len(), 1);
        let mut dst = KvStore::with_shards(s(1), 1);
        dst.put("a", "local");
        let mut client = dst.client_endpoint_for(&plan.incremental, 1);
        let contact = run_contact(&mut client, &mut server).unwrap();
        let (report, changed) = dst
            .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
            .unwrap();
        assert_eq!(dst.get("a"), Some(&b"local"[..]), "racing write survives");
        assert_eq!(dst.get("b"), Some(&b"src"[..]));
        assert_eq!(report.keys_created, 1);
        assert_eq!(changed, vec!["b".to_string()]);
        assert_eq!(dst.replica_digest(), dst.replica_digest_full());
    }

    /// An honest two-site vector image with its second site renamed to
    /// its first: no encoder writes it, and decoding it used to yield a
    /// one-element vector without a word.
    fn repeated_site_meta() -> Bytes {
        let mut meta = Srv::new();
        meta.record_update(s(3));
        meta.record_update(s(5));
        let mut image = meta.encode_snapshot().to_vec();
        assert_eq!(image, [2, 5, 4, 3, 4], "count, then (site, value·4) pairs");
        image[3] = image[1];
        Bytes::from(image)
    }

    /// An entry holding `meta` and the value "v", in the layout
    /// `encode_entry` writes.
    fn entry_image(meta: &[u8]) -> BytesMut {
        let mut buf = BytesMut::new();
        wire::put_bytes(&mut buf, meta);
        buf.put_u8(1);
        wire::put_bytes(&mut buf, b"v");
        buf
    }

    #[test]
    fn a_repeated_site_is_refused_by_every_decoder() {
        let meta = repeated_site_meta();
        let refused = Err(WireError::InvalidPayload);

        // WAL replay: one logged post-state.
        let mut store = KvStore::with_shards(s(1), 4);
        store.put("mine", "1");
        let before = store.clone();
        let mut entry = entry_image(&meta).freeze();
        assert_eq!(store.apply_encoded_entry("x", &mut entry), refused);

        // Checkpoint: a whole-store image holding that entry.
        let mut image = BytesMut::new();
        wire::put_varint(&mut image, 1); // site
        wire::put_varint(&mut image, 1); // entries
        wire::put_bytes(&mut image, b"x");
        image.extend_from_slice(&entry_image(&meta));
        assert_eq!(
            KvStore::decode_snapshot(&mut image.freeze()).map(|_| ()),
            refused
        );

        // A peer's plan: a shard snapshot blob holding that entry.
        let mut src = KvStore::with_shards(s(0), 4);
        src.put("x", "1");
        let digests = KvStore::with_shards(s(1), 4).shard_digest_vector();
        let (mut plan, mut server) = src.plan_contact(&digests, &PlanConfig::default());
        let mut client = KvStore::with_shards(s(1), 4).client_endpoint_for(&plan.incremental, 4);
        let contact = run_contact(&mut client, &mut server).unwrap();
        let mut blob = BytesMut::new();
        wire::put_varint(&mut blob, 1);
        wire::put_bytes(&mut blob, b"x");
        blob.extend_from_slice(&entry_image(&meta));
        plan.snapshots[0].1 = blob.freeze();
        assert_eq!(
            store.apply_planned_tracked(&JoinResolver, client, &contact, &plan),
            Err(optrep_core::Error::Wire(WireError::InvalidPayload))
        );

        assert_eq!(store, before);
        assert_eq!(store.generation(), before.generation());
        assert_eq!(store.replica_digest(), store.replica_digest_full());
    }

    #[test]
    fn hostile_snapshot_blobs_are_rejected_untouched() {
        let mut src = KvStore::with_shards(s(0), 4);
        src.put("x", "1");
        let digests = KvStore::with_shards(s(1), 4).shard_digest_vector();
        let (mut plan, mut server) = src.plan_contact(&digests, &PlanConfig::default());
        let mut client = KvStore::with_shards(s(1), 4).client_endpoint_for(&plan.incremental, 4);
        let contact = run_contact(&mut client, &mut server).unwrap();
        // Re-home the blob under the wrong shard index: the key no longer
        // hashes into its claimed shard.
        let (shard, blob) = plan.snapshots.pop().unwrap();
        plan.snapshots.push(((shard + 1) % 4, blob));
        let mut dst = KvStore::with_shards(s(1), 4);
        let before = dst.clone();
        let err = dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan);
        assert!(err.is_err(), "mis-sharded blob must be rejected");
        assert_eq!(dst, before);
        assert_eq!(dst.generation(), before.generation());
    }
    #[test]
    fn the_journal_lists_what_changed_and_knows_how_far_back() {
        let mut store = KvStore::with_shards(s(0), 4);
        assert_eq!(store.journal_floor_lag(), 0);
        for i in 0..10 {
            store.put(format!("k{i}"), "v");
        }
        let hash = |key: &str| placement(key.as_bytes());
        let since = |store: &KvStore, at: u64| -> Option<Vec<u64>> {
            store.journal.changed_since(at).map(Iterator::collect)
        };
        assert_eq!(since(&store, 8), Some(vec![hash("k8"), hash("k9")]));
        assert_eq!(since(&store, 10), Some(Vec::new()));
        assert_eq!(since(&store, 0).map(|all| all.len()), Some(10));
        assert_eq!(store.journal_floor_lag(), 10);
        // A commit is one generation with every changed key under it.
        let mut dst = KvStore::with_shards(s(1), 4);
        dst.put("mine", "1");
        dst.sync(&store).run().unwrap();
        assert_eq!(dst.generation(), 2);
        assert_eq!(since(&dst, 1).map(|all| all.len()), Some(10));
        // So is a replayed log record.
        let mut entry = store.encode_entry("k3").unwrap();
        dst.apply_encoded_entry("k3", &mut entry).unwrap();
        assert_eq!(since(&dst, 2), Some(vec![hash("k3")]));
        // Past the cap the oldest go and the floor follows them: asked
        // about anything older, the journal says it cannot know.
        for i in 0..JOURNAL_CAP {
            store.put(format!("k{}", i % 7), "w");
        }
        assert_eq!(store.journal.entries.len(), JOURNAL_CAP);
        assert_eq!(store.journal.floor, 10);
        assert_eq!(store.journal_floor_lag(), JOURNAL_CAP as u64);
        assert_eq!(since(&store, 9), None);
        assert_eq!(since(&store, 10).map(|all| all.len()), Some(JOURNAL_CAP));
        // It is bookkeeping: no part of equality, snapshots or digests.
        let image = store.encode_snapshot();
        let reloaded = KvStore::decode_snapshot(&mut image.clone()).unwrap();
        assert!(reloaded.journal.entries.is_empty());
        assert_eq!(reloaded.replica_digest(), store.replica_digest());
        let mut emptied = store.clone();
        emptied.journal = Journal::default();
        assert_eq!(emptied, store);
        assert_eq!(emptied.encode_snapshot(), image);
    }

    /// One planned pull of `dst` over `link`, as a daemon makes it.
    fn pull_over(
        dst: &mut KvStore,
        link: &mut InProcessLink<'_>,
        remembered: &mut VectorMemory,
    ) -> KvSyncReport {
        let digests = dst.shard_digest_vector();
        let (client, plan, contact) = pull_planned(link, remembered, &digests, |plan| {
            dst.client_endpoint_refined(plan)
        })
        .unwrap();
        let applied = dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan);
        applied.unwrap().0
    }

    /// Two planned pulls of `dst` from `src` over one in-process link —
    /// a connection that remembers — with `between` run on both stores
    /// once the first has committed.
    fn pull_twice(
        dst: &mut KvStore,
        src: &std::cell::RefCell<KvStore>,
        between: impl FnOnce(&mut KvStore, &mut KvStore),
    ) -> [KvSyncReport; 2] {
        let config = PlanConfig::default();
        let mut far = |ask: ContactAsk<'_>| src.borrow().open_contact(ask, &config);
        let mut link = InProcessLink::serving(&mut far);
        let mut remembered = VectorMemory::default();
        let first = pull_over(dst, &mut link, &mut remembered);
        between(dst, &mut src.borrow_mut());
        [first, pull_over(dst, &mut link, &mut remembered)]
    }

    #[test]
    fn a_warm_pull_is_proposed_the_keys_the_source_changed() {
        let (dst, src) = pair_with_dirty_shards(64 * 195, 4);
        let bytes = |r: &KvSyncReport| r.meta_bytes + r.value_bytes + r.digest_bytes;
        let rewrite = |src: &mut KvStore| {
            for key in ["key-00007", "key-00420", "key-01234"] {
                src.put(key, vec![b'x'; 32]);
            }
        };
        // The same second pull over a link that remembers nothing: a
        // fresh in-process link per pull, as `sync_planned` makes.
        let mut cold_dst = dst.clone();
        let mut cold_src = src.clone();
        cold_dst
            .sync_planned(&cold_src, &JoinResolver, &PlanConfig::default())
            .unwrap();
        rewrite(&mut cold_src);
        let (cold, _) = cold_dst
            .sync_planned(&cold_src, &JoinResolver, &PlanConfig::default())
            .unwrap();

        let mut warm_dst = dst;
        let src = std::cell::RefCell::new(src);
        let [first, warm] = pull_twice(&mut warm_dst, &src, |_, src| rewrite(src));
        assert_eq!((first.shards_proposed, first.shards_refined), (0, 4));
        assert_eq!((cold.shards_proposed, cold.shards_refined), (0, 3));
        assert_eq!(
            (
                warm.shards_proposed,
                warm.shards_refused,
                warm.shards_refined
            ),
            (3, 0, 0)
        );
        assert_eq!((warm.keys_examined, warm.keys_fast_forwarded), (3, 3));
        assert!(cold.keys_examined >= 3 * 8, "{cold:?}");
        assert!(
            bytes(&warm) * 2 < bytes(&cold),
            "warm {} B, cold {} B for 3 keys",
            bytes(&warm),
            bytes(&cold)
        );
        assert!(warm.digest_bytes < cold.digest_bytes);
        assert_eq!(
            warm_dst.replica_digest_full(),
            cold_dst.replica_digest_full()
        );
        assert_eq!(warm_dst.replica_digest(), src.borrow().replica_digest());
    }

    #[test]
    fn an_overflowed_journal_and_a_dense_shard_are_planned_from_digests_alone() {
        // The journal evicted past the connection's last plan: the
        // second pull is the one a fresh link would make.
        let (mut dst, src) = pair_with_dirty_shards(64 * 40, 2);
        let src = std::cell::RefCell::new(src);
        let [_, second] = pull_twice(&mut dst, &src, |_, src| {
            for round in 0..=JOURNAL_CAP / 64 {
                for i in 0..64 {
                    src.put(format!("key-{i:05}"), format!("round {round}"));
                }
            }
        });
        assert_eq!(second.shards_proposed, 0);
        assert_eq!(second.keys_fast_forwarded, 64);
        assert_eq!(dst.replica_digest(), src.borrow().replica_digest());
        // Most of a shard's keys changed: listing them costs more than
        // walking the shard, so it is walked.
        let (mut dst, src) = pair_with_dirty_shards(64 * 8, 2);
        let src = std::cell::RefCell::new(src);
        let [_, second] = pull_twice(&mut dst, &src, |_, src| {
            for i in 0..64 * 8 {
                src.put(format!("key-{i:05}"), "rewritten");
            }
        });
        assert_eq!(second.shards_proposed, 0);
        assert_eq!(second.keys_fast_forwarded, 64 * 8);
        assert_eq!(dst.replica_digest(), src.borrow().replica_digest());
    }

    /// The model: whatever the source's journal claims — entries lost,
    /// entries for keys that never changed, a floor that says complete
    /// when it is not — and whatever the puller did meanwhile, a warm
    /// planned pull ends where an unplanned pull ends, and refuses
    /// exactly the proposals whose candidates missed a differing key.
    #[test]
    fn a_wrong_journal_costs_refusals_never_convergence() {
        let mut rng = SplitMix64::new(0x0000_10E5_0FA1_1E50);
        let (mut proposed, mut refused, mut accepted_stale) = (0, 0, 0);
        for case in 0..48u64 {
            let pull_shards = [4, 16, 64][(case % 3) as usize];
            let serve_shards = [1, 16, 256][(case / 3 % 3) as usize];
            let keys = 400 + (rng.next_u64() % 1200) as usize;
            let pick = |rng: &mut SplitMix64| format!("k{:04}", rng.next_u64() % keys as u64);
            let mut src = KvStore::with_shards(s(1), serve_shards);
            let mut dst = KvStore::with_shards(s(0), pull_shards);
            let mut third = KvStore::with_shards(s(2), 8);
            for i in 0..keys {
                src.put(format!("k{i:04}"), format!("base{i}"));
            }
            let at = format!("case {case}: {pull_shards} from {serve_shards} shards, {keys} keys");
            let src = std::cell::RefCell::new(src);
            let mut plan_of_the_second = None;
            let mut oracle_refused = Vec::new();
            let mut before = None;
            let [_, second] = pull_twice(&mut dst, &src, |dst, src| {
                let since = src.generation();
                // Both sides move on: the source in ways its journal
                // sees, the puller in ways it cannot.
                for i in 0..1 + rng.next_u64() % 12 {
                    match rng.next_u64() % 5 {
                        0 => src.delete(pick(&mut rng)),
                        1 => src.put(format!("new-{case}-{i}"), "created"),
                        _ => src.put(pick(&mut rng), format!("ahead{i}")),
                    }
                }
                for i in 0..rng.next_u64() % 3 {
                    match rng.next_u64() % 3 {
                        0 => dst.put(format!("mine-{case}-{i}"), "local"),
                        1 => dst.put(pick(&mut rng), "ours"),
                        _ => {
                            third.put(pick(&mut rng), "from a third site");
                            dst.sync(&third).run().unwrap();
                        }
                    }
                }
                // Then the journal is made to lie.
                let lie = case % 4;
                if lie == 1 {
                    // Entries lost.
                    let mut keep = rng.clone();
                    (src.journal.entries).retain(|_| keep.next_u64() % 3 >= 1);
                } else if lie == 2 {
                    // Keys that never changed, listed as changed.
                    for _ in 0..1 + rng.next_u64() % 6 {
                        let stale = placement(pick(&mut rng).as_bytes());
                        src.journal.record(src.generation, stale);
                    }
                } else if lie == 3 {
                    // Evicted without the floor following.
                    let half = src.journal.entries.len() / 2;
                    src.journal.entries.drain(..half);
                    src.journal.entries.retain(|&(at, _)| at > since + 1);
                }
                // What the second pull will be offered, and which of
                // its proposals miss a key that differs.
                let digests = dst.shard_digest_vector();
                let plan = src.plan_contact_since(&digests, Some(since), &PlanConfig::default());
                let differs = |key: &str| {
                    let hash = |store: &KvStore| store.record(key.as_bytes()).map(entry_hash);
                    hash(dst) != hash(src)
                };
                for proposal in &plan.proposed {
                    let missed = (dst.iter_entries().chain(src.iter_entries()))
                        .map(|(key, _)| key)
                        .filter(|key| {
                            shard_index(key.as_bytes(), plan.count as usize) as u64
                                == proposal.shard
                        })
                        .filter(|key| {
                            let fine = placement(key.as_bytes()) & (MAX_PLAN_SHARDS - 1);
                            proposal.candidates.binary_search(&fine).is_err()
                        })
                        .any(differs);
                    if missed {
                        oracle_refused.push(proposal.shard);
                    } else if lie == 2 {
                        accepted_stale += 1;
                    }
                }
                let scope = dst.client_endpoint_refined(&plan).scope;
                let answered = scope.and_then(|scope| scope.refused);
                assert_eq!(
                    answered.unwrap_or_default(),
                    oracle_refused,
                    "{at}: refused exactly where the hint was incomplete"
                );
                plan_of_the_second = Some(plan);
                let mut full = dst.clone();
                full.sync(src).run().unwrap();
                before = Some(full.replica_digest_full());
            });
            let plan = plan_of_the_second.expect("the second pull was planned");
            assert_eq!(second.shards_proposed, plan.proposed.len(), "{at}");
            assert_eq!(second.shards_refused, oracle_refused.len(), "{at}");
            assert_eq!(Some(dst.replica_digest_full()), before, "{at}");
            assert_eq!(dst.replica_digest(), dst.replica_digest_full(), "{at}");
            proposed += second.shards_proposed;
            refused += second.shards_refused;
        }
        assert!(
            proposed > 100,
            "the cases must exercise proposals: {proposed}"
        );
        assert!(refused > 10, "and refusals: {refused}");
        assert!(
            accepted_stale > 5,
            "and harmless stale hints: {accepted_stale}"
        );
    }
}
