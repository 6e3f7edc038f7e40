//! The daemon's logic, with no thread, socket, clock or file inside: a
//! [`NodeCore`] and the steps that change it, each driven by a caller
//! that holds the links, reads the clock and owns the threads — the shell
//! in `node.rs`, or a test, over in-process links and in-memory dirs.

use crate::persist::{Due, Persist, ReplayReport};
use crate::proto::{Request, Response};
use optrep_core::obs::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use optrep_core::{Error, Result, SiteId};
use optrep_kv::{JoinResolver, KvStore, KvSyncReport};
use optrep_net::FrameLink;
use optrep_replication::{
    pull_planned, BatchPullClient, ContactAnswer, ContactAsk, ContactReport, ShardPlan,
    VectorMemory,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

#[cfg(test)]
mod tests;

/// How many times an outbound pull retries after racing a local write
/// (the exchange itself succeeded; only the commit was stale).
const APPLY_RACE_RETRIES: u32 = 3;

/// What a pull's exchange leaves to commit: the client endpoint, the
/// plan it was cut to, and the contact's report.
pub(super) type Pulled = (BatchPullClient, ShardPlan, ContactReport);

/// One attempt of a pull, run by whoever holds the link and its memory.
pub(super) type Contact<'a, L> = &'a mut dyn FnMut(&mut L, &mut VectorMemory) -> Result<Pulled>;

/// The core's metric instruments: the store's shape, the write-ahead
/// log, the planner's and serving side's counts, gossip's quarantine.
struct CoreMetrics {
    store_keys: Arc<Gauge>,
    store_tracked: Arc<Gauge>,
    store_generation: Arc<Gauge>,
    /// Generations back the store's change journal is complete
    /// (`KvStore::journal_floor_lag`): below what a peer lets pass
    /// between pulls, its pulls are planned without proposals.
    store_journal_floor_lag: Arc<Gauge>,
    /// Peers the last gossip pass failed to pull from.
    quarantined_peers: Arc<Gauge>,
    /// WAL records appended (one per committed mutation).
    wal_records_total: Arc<Counter>,
    /// WAL record bytes appended.
    wal_bytes_total: Arc<Counter>,
    /// WAL fsyncs issued (per-append under `always`, batched under
    /// `interval`).
    wal_fsyncs_total: Arc<Counter>,
    /// Snapshot checkpoints written.
    checkpoints_total: Arc<Counter>,
    /// Current WAL file length (header included); sampled at scrape.
    wal_size_bytes: Arc<Gauge>,
    /// WAL sequence the on-disk snapshot covers.
    checkpoint_seq: Arc<Gauge>,
    /// Boot recovery wall-clock — one sample per replay, so restarts
    /// accumulate a recovery-time distribution in the same registry.
    replay_micros: Arc<Histogram>,
    /// Shards the sync planner skipped outright (digests matched),
    /// summed over every outbound pull.
    planner_shards_skipped_total: Arc<Counter>,
    /// Shards synced incrementally under a plan.
    planner_shards_incremental_total: Arc<Counter>,
    /// Shards bulk-loaded as whole-shard snapshots under a plan.
    planner_shards_snapshot_total: Arc<Counter>,
    /// Incremental shards narrowed to their differing children.
    planner_shards_refined_total: Arc<Counter>,
    /// Incremental shards a source proposed the scope of.
    planner_shards_proposed_total: Arc<Counter>,
    /// Proposed shards this daemon refused and walked whole.
    planner_shards_refused_total: Arc<Counter>,
    /// Planner-phase wire bytes (digest vectors + plans, both
    /// directions; excluded from the contact byte planes).
    planner_digest_bytes_total: Arc<Counter>,
    /// Shard digests the opening frames actually shipped: the shard
    /// count on a connection's first pull, the changed shards after.
    planner_digests_sent_total: Arc<Counter>,
    /// Objects in each serving endpoint when it is built — what a pull
    /// cost this daemon to serve, to set against the keys it moved.
    serving_endpoint_keys: Arc<Histogram>,
    /// The four byte planes of every exchange an outbound pull
    /// completed, a commit lost to a racing write included
    /// (`ContactReport`'s; the planner's bytes are
    /// `planner_digest_bytes_total`).
    compare_bytes_total: Arc<Counter>,
    meta_bytes_total: Arc<Counter>,
    framing_bytes_total: Arc<Counter>,
    payload_bytes_total: Arc<Counter>,
    /// Keys committed pulls fast-forwarded and reconciled
    /// (`KvSyncReport::keys_fast_forwarded`, `keys_reconciled`).
    fast_forwards_total: Arc<Counter>,
    reconciliations_total: Arc<Counter>,
    /// Blocking round trips of each completed exchange.
    contact_round_trips: Arc<Histogram>,
    /// Wire bytes of each completed exchange (the four planes summed).
    contact_wire_bytes: Arc<Histogram>,
    /// Server turns each completed exchange took, the planning turn and
    /// the FIN included (`ContactReport::link_turns`): about the longest
    /// stream's messages, not the frame count.
    contact_link_turns: Arc<Histogram>,
}

impl CoreMetrics {
    fn register(registry: &MetricsRegistry) -> CoreMetrics {
        CoreMetrics {
            store_keys: registry.gauge("optrep_store_keys"),
            store_tracked: registry.gauge("optrep_store_tracked"),
            store_generation: registry.gauge("optrep_store_generation"),
            store_journal_floor_lag: registry.gauge("optrep_store_journal_floor_lag"),
            quarantined_peers: registry.gauge("optrep_quarantined_peers"),
            wal_records_total: registry.counter("optrep_wal_records_total"),
            wal_bytes_total: registry.counter("optrep_wal_bytes_total"),
            wal_fsyncs_total: registry.counter("optrep_wal_fsyncs_total"),
            checkpoints_total: registry.counter("optrep_checkpoints_total"),
            wal_size_bytes: registry.gauge("optrep_wal_size_bytes"),
            checkpoint_seq: registry.gauge("optrep_checkpoint_seq"),
            replay_micros: registry.histogram("optrep_replay_micros"),
            planner_shards_skipped_total: registry.counter("optrep_planner_shards_skipped_total"),
            planner_shards_incremental_total: registry
                .counter("optrep_planner_shards_incremental_total"),
            planner_shards_snapshot_total: registry.counter("optrep_planner_shards_snapshot_total"),
            planner_shards_refined_total: registry.counter("optrep_planner_shards_refined_total"),
            planner_shards_proposed_total: registry.counter("optrep_planner_shards_proposed_total"),
            planner_shards_refused_total: registry.counter("optrep_planner_shards_refused_total"),
            planner_digest_bytes_total: registry.counter("optrep_planner_digest_bytes_total"),
            planner_digests_sent_total: registry.counter("optrep_planner_digests_sent_total"),
            serving_endpoint_keys: registry.histogram("optrep_serving_endpoint_keys"),
            compare_bytes_total: registry.counter("optrep_compare_bytes_total"),
            meta_bytes_total: registry.counter("optrep_meta_bytes_total"),
            framing_bytes_total: registry.counter("optrep_framing_bytes_total"),
            payload_bytes_total: registry.counter("optrep_payload_bytes_total"),
            fast_forwards_total: registry.counter("optrep_fast_forwards_total"),
            reconciliations_total: registry.counter("optrep_reconciliations_total"),
            contact_round_trips: registry.histogram("optrep_contact_round_trips"),
            contact_wire_bytes: registry.histogram("optrep_contact_wire_bytes"),
            contact_link_turns: registry.histogram("optrep_contact_link_turns"),
        }
    }

    /// Counts one completed exchange, from its report.
    fn record_contact(&self, report: &ContactReport) {
        self.compare_bytes_total.add(report.compare_bytes);
        self.meta_bytes_total.add(report.meta_bytes);
        self.framing_bytes_total.add(report.framing_bytes);
        self.payload_bytes_total.add(report.payload_bytes);
        self.contact_round_trips.record(report.round_trips);
        self.contact_wire_bytes.record(report.total_bytes);
        self.contact_link_turns.record(report.link_turns);
    }
}

/// One replica: its store, its durable layer (a [`Persist`], writing
/// through a directory), the resolver its pulls commit with, and the
/// metrics they feed.
pub(super) struct NodeCore {
    pub(super) site: SiteId,
    store: Mutex<KvStore>,
    /// The durable layer (WAL append handle + checkpoint bookkeeping),
    /// when configured. **Lock order is store → persist**: every
    /// appender holds the store lock across its append, and a
    /// checkpoint acquires persist while still holding store, so the
    /// two locks together always frame a frozen (store, WAL seq) pair.
    /// Never acquire the store lock while holding this one.
    persist: Option<Mutex<Persist>>,
    /// What boot recovery found (durable nodes only).
    pub(super) replay: Option<ReplayReport>,
    resolver: JoinResolver,
    /// The daemon's metric families, served by the `Metrics` verb.
    registry: Arc<MetricsRegistry>,
    metrics: CoreMetrics,
}

impl NodeCore {
    /// A core serving `store`, durable through `persist` when given (with
    /// what its boot found), counting into `registry`.
    pub(super) fn new(
        store: KvStore,
        persist: Option<(Persist, ReplayReport)>,
        registry: Arc<MetricsRegistry>,
    ) -> NodeCore {
        let metrics = CoreMetrics::register(&registry);
        let replay = persist.as_ref().map(|(_, report)| *report);
        if let Some(report) = replay {
            metrics
                .replay_micros
                .record(report.elapsed.as_micros() as u64);
        }
        NodeCore {
            site: store.site(),
            store: Mutex::new(store),
            persist: persist.map(|(persist, _)| Mutex::new(persist)),
            replay,
            resolver: JoinResolver,
            registry,
            metrics,
        }
    }

    /// Locks the store, recovering from a poisoned lock: the store's
    /// transactional apply discipline never leaves it half-written, so
    /// a handler that panicked elsewhere must not wedge the daemon.
    pub(super) fn store(&self) -> MutexGuard<'_, KvStore> {
        match self.store.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Locks the durable layer, if there is one (same poison recovery
    /// as [`NodeCore::store`]).
    fn persist(&self) -> Option<MutexGuard<'_, Persist>> {
        self.persist.as_ref().map(|persist| match persist.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        })
    }

    /// Logs the post-states of `keys` as **one** WAL record — a whole
    /// committed mutation, whether a single `put` or everything an
    /// `apply_planned_tracked` changed — before that mutation is
    /// acknowledged.
    /// Call with the store lock held (the `store` argument is the
    /// guard's referent), so record order matches commit order and a
    /// checkpoint holding both locks sees a frozen pair. No-op on a
    /// memory-only node or an empty commit.
    ///
    /// # Errors
    ///
    /// The append or fsync failure; the caller reports it instead of
    /// acknowledging (the in-memory commit stands — it dies with the
    /// process either way, which is exactly what the log now fails to
    /// prevent).
    pub(super) fn wal_append(&self, store: &KvStore, keys: &[String]) -> Result<()> {
        let Some(mut persist) = self.persist() else {
            return Ok(());
        };
        if keys.is_empty() {
            return Ok(());
        }
        debug_assert!(
            keys.iter().all(|key| store.encoded_entry(key).is_some()),
            "changed keys must be tracked"
        );
        // Each entry is read where it lies, as the record is written.
        let changed = (keys.iter())
            .filter_map(|key| store.encoded_entry(key).map(|entry| (key.as_str(), entry)));
        let fsyncs_before = persist.fsyncs();
        match persist.append_entries(changed) {
            Ok(bytes) => {
                let m = &self.metrics;
                m.wal_records_total.inc();
                m.wal_bytes_total.add(bytes);
                m.wal_fsyncs_total.add(persist.fsyncs() - fsyncs_before);
                Ok(())
            }
            Err(e) => Err(Error::UnexpectedMessage {
                protocol: "wal",
                message: format!("append failed: {e}"),
            }),
        }
    }

    /// Applies one local write and logs its post-state under a single
    /// store guard: log order is commit order, and the caller
    /// acknowledges only once the record is down.
    ///
    /// # Errors
    ///
    /// As [`NodeCore::wal_append`].
    pub(super) fn write(&self, key: String, value: Option<bytes::Bytes>) -> Result<()> {
        let mut store = self.store();
        match value {
            Some(value) => store.put(key.clone(), value),
            None => store.delete(key.clone()),
        }
        self.wal_append(&store, std::slice::from_ref(&key))
    }

    /// A metrics snapshot, the store's and the log's gauges refreshed
    /// first (counters and histograms are always current; gauges are
    /// sampled here, at snapshot time).
    pub(super) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let (keys, tracked, generation, journal_floor_lag) = {
            let store = self.store();
            (
                store.len() as u64,
                store.tracked_entries() as u64,
                store.generation(),
                store.journal_floor_lag(),
            )
        };
        let m = &self.metrics;
        m.store_keys.set(keys);
        m.store_tracked.set(tracked);
        m.store_generation.set(generation);
        m.store_journal_floor_lag.set(journal_floor_lag);
        if let Some(persist) = self.persist() {
            m.wal_size_bytes.set(persist.wal_len());
            m.checkpoint_seq.set(persist.snapshot_seq());
        }
        self.registry.snapshot()
    }

    /// Executes one client verb. `sync` needs a connection to its peer,
    /// which only the shell has: here it is refused.
    pub(super) fn dispatch_request(&self, request: Request) -> Response {
        match request {
            Request::Get { key } => {
                let store = self.store();
                Response::Value(store.get(&key).map(bytes::Bytes::copy_from_slice))
            }
            Request::Put { key, value } => written(self.write(key, Some(value))),
            Request::Delete { key } => written(self.write(key, None)),
            Request::Digest => Response::Digest(self.store().replica_digest()),
            Request::Sync { peer } => Response::Err(format!("sync failed: no link to {peer}")),
            Request::Metrics => Response::Metrics(self.metrics_snapshot()),
        }
    }

    /// The serving side of a contact: the plan or the endpoint a
    /// connection's `Serving` asks for, built under one store lock.
    pub(super) fn open_contact(&self, ask: ContactAsk<'_>) -> ContactAnswer {
        let answer = self.store().open_contact(ask);
        if let ContactAnswer::Endpoint(endpoint) = &answer {
            let keys = endpoint.object_count() as u64;
            self.metrics.serving_endpoint_keys.record(keys);
        }
        answer
    }

    /// One generation-checked pull, each attempt run by `over` on the
    /// link it holds.
    ///
    /// The client endpoint is snapshotted *inside* the attempt, so an
    /// attempt `over` reruns (the pool's, on a fresh connection after a
    /// stale one) gets fresh metadata — and, its vector memory dropped
    /// with the stale connection, opens with a full digest vector again
    /// (to a serving end that, being new, proposes nothing). Before
    /// committing, the store's write generation is compared with the
    /// snapshot's: if a local write (or another pull) landed in between,
    /// the staged outcomes describe a store that no longer exists, so the
    /// pull is retried against fresh metadata instead of committed —
    /// bounded by [`APPLY_RACE_RETRIES`].
    ///
    /// # Errors
    ///
    /// What `over` returns, a staging or WAL failure, or
    /// [`Error::Incomplete`] when local writes outran every attempt.
    pub(super) fn pull_from<L: FrameLink>(
        &self,
        mut over: impl FnMut(Contact<'_, L>) -> Result<Pulled>,
    ) -> Result<KvSyncReport> {
        for _ in 0..APPLY_RACE_RETRIES {
            // A planned pull: ship this store's shard digests, get back
            // the peer's per-shard plan, run the contact restricted to
            // the incremental shards — cut, where the plan offers child
            // digests, at the children that differ from this store's,
            // and where it proposes a scope and the residual matches, at
            // the proposal's candidates; both compared under the same
            // guard that snapshots the generation.
            // The digest vector is snapshotted under its own (brief)
            // lock; a write landing between it and the endpoint snapshot
            // only makes a shard look dirtier than planned, never
            // cleaner — and the commit's generation check still guards
            // the endpoint snapshot itself.
            let mut generation = 0;
            // An exchange counts once it completes, whether or not its
            // commit then loses the generation race.
            let (client, plan, report) = over(&mut |link, remembered| {
                let digests = self.store().shard_digest_vector();
                let pulled = pull_planned(link, remembered, &digests, |plan| {
                    let store = self.store();
                    generation = store.generation();
                    store.client_endpoint_refined(plan)
                })?;
                self.metrics.record_contact(&pulled.2);
                Ok(pulled)
            })?;
            // Commit: generation re-check, transactional apply, and WAL
            // append all under ONE store guard. A local write that raced
            // the network exchange forces a retry; once the check passes,
            // nothing can land between it and the commit, and the log
            // record (the whole contact as one record — snapshot-applied
            // keys included) freezes inside the same critical section the
            // commit does.
            let mut store = self.store();
            if store.generation() != generation {
                continue;
            }
            let (synced, changed) =
                store.apply_planned_tracked(&self.resolver, client, &report, &plan)?;
            self.wal_append(&store, &changed)?;
            drop(store);
            let m = &self.metrics;
            m.fast_forwards_total.add(synced.keys_fast_forwarded as u64);
            m.reconciliations_total.add(synced.keys_reconciled as u64);
            m.planner_shards_skipped_total
                .add(synced.shards_skipped as u64);
            m.planner_shards_incremental_total
                .add(synced.shards_incremental as u64);
            m.planner_shards_snapshot_total
                .add(synced.shards_snapshot as u64);
            m.planner_digest_bytes_total.add(synced.digest_bytes as u64);
            m.planner_digests_sent_total.add(synced.digests_sent as u64);
            m.planner_shards_refined_total
                .add(synced.shards_refined as u64);
            m.planner_shards_proposed_total
                .add(synced.shards_proposed as u64);
            m.planner_shards_refused_total
                .add(synced.shards_refused as u64);
            return Ok(synced);
        }
        // Local writes outran every attempt; the next gossip pass will
        // carry them anyway.
        Err(Error::Incomplete {
            protocol: "daemon pull",
        })
    }

    /// One gossip pass: one [`pull_from`](Self::pull_from) each of
    /// `peers`, in turn, each attempt run by `over` on that peer's link.
    /// A peer that fails is counted in `optrep_quarantined_peers` until
    /// the next pass, which tries it again.
    pub(super) fn gossip_pass<P, L: FrameLink>(
        &self,
        peers: impl IntoIterator<Item = P>,
        mut over: impl FnMut(&P, Contact<'_, L>) -> Result<Pulled>,
    ) {
        let failed = (peers.into_iter())
            .filter(|peer| self.pull_from(|contact| over(peer, contact)).is_err())
            .count();
        self.metrics.quarantined_peers.set(failed as u64);
    }

    /// Writes a checkpoint right now, if the WAL holds anything the
    /// snapshot doesn't — asked before a byte of the store is read. Both
    /// guards are taken, store first: every appender holds store across
    /// its append, so once both are held the store and `Persist::seq`
    /// describe the same instant. The image is streamed from the store's
    /// records into the snapshot's tmp file under both; the store guard
    /// is then released, and the fsync, the rename and the log
    /// truncation proceed under the persist guard alone, appends
    /// queueing behind it rather than landing in the log being
    /// truncated. Returns whether a checkpoint was written.
    pub(super) fn checkpoint_now(&self) -> bool {
        if self.persist.is_none() {
            return false;
        }
        let store = self.store();
        let Some(mut persist) = self.persist() else {
            return false;
        };
        if persist.seq() == persist.snapshot_seq() {
            return false;
        }
        match persist.checkpoint_store(store) {
            Ok(()) => {
                self.metrics.checkpoints_total.inc();
                true
            }
            // Checkpointing is an optimization; the old snapshot + full
            // log still recover. The next tick retries.
            Err(_) => false,
        }
    }

    /// Fsyncs the WAL if it holds unsynced bytes.
    pub(super) fn sync_wal(&self) {
        if let Some(mut persist) = self.persist() {
            if let Ok(true) = persist.sync() {
                self.metrics.wal_fsyncs_total.inc();
            }
        }
    }

    /// The durability tick at `now`: a checkpoint when one is due (on
    /// schedule, or early once the WAL outgrows its bound), else the
    /// `interval` policy's backstop fsync — appends only sync
    /// opportunistically, and a quiet log would otherwise sit dirty
    /// forever. A checkpoint that fails falls back to the fsync. Returns
    /// whether a checkpoint was written.
    pub(super) fn durability_tick(&self, now: Instant) -> bool {
        let due = self
            .persist()
            .map_or(Due::Nothing, |persist| persist.due(now));
        if due == Due::Checkpoint && self.checkpoint_now() {
            return true;
        }
        if due != Due::Nothing {
            self.sync_wal();
        }
        false
    }
}

/// The acknowledgement of a logged write.
fn written(logged: Result<()>) -> Response {
    match logged {
        Ok(()) => Response::Ok,
        Err(e) => Response::Err(format!("{e}")),
    }
}
