//! The `optrepd` node: event-driven connection core, verb service,
//! pull service, persistent peer pulls, gossip.
//!
//! A [`Node`] owns one [`KvStore`] behind a mutex and serves it over
//! real sockets. Every connection opens with a
//! [`Handshake`](wire::Handshake) frame; its
//! [`Intent`](wire::Intent) selects the service:
//!
//! * **Verbs** — a request/response exchange speaking
//!   [`proto`](crate::proto) on the control stream
//!   (`get`/`put`/`delete`/`status`/`digest`/`sync`).
//! * **Pull** — the connector drives one batched anti-entropy contact
//!   as the pulling side and the connection ends with it.
//! * **Peer** — a persistent pulling connection: successive contacts
//!   pipeline over the same socket, each served from a fresh endpoint
//!   that [`KvStore::open_contact`] builds: over every key, asked for
//!   at an unplanned contact's first frame, or — for a puller that
//!   opened with its shard digests — the plan asked for at that frame
//!   and the endpoint over the keys the contact will open, asked for at
//!   the first frame of the puller's answer. One store lock per ask.
//!
//! All connections are multiplexed onto **one event thread**:
//! a `poll(2)` loop (see `optrep_net::reactor`) drives per-connection
//! state machines (`Handshake → Verbs | Serve → Closing`), so the
//! daemon's thread count is fixed — event loop, optional gossip thread,
//! and one lazily started executor for blocking verbs — no matter how
//! many hundreds of peers are connected. Cheap verbs and contact frames
//! are handled inline on the event thread (the store lock is held only
//! for in-memory work, never across socket I/O); the `sync` verb, which
//! performs a network pull, runs on the executor so it cannot stall the
//! loop. Accept errors back off exponentially up to a cap instead of
//! hot-looping.
//!
//! Outbound pulls ([`Node::sync_with`], the `sync` verb, and the
//! periodic gossip thread) draw persistent connections from a
//! [`ConnPool`]: the first pull to a peer dials and handshakes
//! ([`Intent::Peer`]) once, and every later pull pipelines over that
//! socket; a stale pooled connection is discarded and redialed once,
//! folding reconnects into the callers' existing retry schedules. The
//! pool keeps, beside each socket, the digest vector the last pull sent
//! down it, so every later pull ships only the shards that changed
//! since (`replication::planner`, "The vector crosses a connection
//! once"); the memory is dropped with the socket. The serving end of
//! such a connection remembers, in its `Serving`, the store generation
//! it last planned at, and the store a journal of the keys it changed:
//! a later pull is told which keys moved instead of being offered
//! child digests ("The server proposes the scope"). Each
//! pull runs the generation-checked discipline `KvStore::generation`
//! was built for: snapshot the client endpoint
//! (`client_endpoint_refined`) under the lock, release
//! it for the whole network exchange, re-lock and commit only if no
//! local write raced the pull — otherwise retry against fresh metadata.
//! A connection that dies mid-contact therefore aborts before anything
//! is staged, leaving the store byte-identical.

#[cfg(not(unix))]
compile_error!("optrepd's core is the poll(2) reactor; unix only");

use crate::persist::{DurabilityConfig, Persist, ReplayReport};
use crate::proto::{Request, Response, StatusInfo};
use optrep_core::obs::metrics::{
    Counter, Gauge, Histogram, MetricsRegistry, MetricsSink, MetricsSnapshot,
};
use optrep_core::obs::{self, Sink};
use optrep_core::wire::{Handshake, Intent};
use optrep_core::{Error, Result, SiteId};
use optrep_kv::{JoinResolver, KvStore, KvSyncReport};
use optrep_net::{ConnPool, ConnectOptions, PoolMetrics};
use optrep_replication::{
    pull_planned, ContactAnswer, RetryPolicy, ServeStep, Serving, VectorMemory, CONTROL_STREAM,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Shutdown-poll slice for gossip sleeps.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// First backoff after a transient accept error; doubles per
/// consecutive error up to [`ACCEPT_BACKOFF_CAP`].
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Upper bound on the accept-error backoff: a persistent error
/// condition (fd exhaustion, say) retries at this period instead of
/// spinning.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// How many times an outbound pull retries after racing a local write
/// (the exchange itself succeeded; only the commit was stale).
const APPLY_RACE_RETRIES: u32 = 3;

/// Configuration for one [`Node`].
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This replica's site id.
    pub site: SiteId,
    /// Listen address; port 0 picks an ephemeral port (see
    /// [`Node::addr`]).
    pub listen: SocketAddr,
    /// Peers the gossip thread pulls from, round-robin.
    pub peers: Vec<SocketAddr>,
    /// Gossip period; `None` disables the gossip thread (pulls then
    /// happen only via `optrep sync` / [`Node::sync_with`]).
    pub gossip_interval: Option<Duration>,
    /// Retry budget for outbound pulls (attempts per peer per gossip
    /// tick; the same policy shape the in-process engine uses).
    pub retry: RetryPolicy,
    /// Socket dial/deadline policy for every connection this node opens
    /// or accepts.
    pub connect: ConnectOptions,
    /// Feed per-event metric families (contact histograms, byte
    /// counters) from the sync-event stream. On by default; benches
    /// turn it off to measure the sink's own overhead. Gauges and the
    /// runtime-internal histograms stay live either way.
    pub metrics_events: bool,
    /// Durable state (write-ahead log + snapshot checkpoints) in a data
    /// dir. `None` — the default — keeps the store memory-only, exactly
    /// the pre-durability behavior.
    pub durability: Option<DurabilityConfig>,
}

impl NodeConfig {
    /// A node for `site` listening on `listen`, no peers, no gossip,
    /// default retry and socket policies.
    pub fn new(site: SiteId, listen: SocketAddr) -> Self {
        NodeConfig {
            site,
            listen,
            peers: Vec::new(),
            gossip_interval: None,
            retry: RetryPolicy::default(),
            connect: ConnectOptions::default(),
            metrics_events: true,
            durability: None,
        }
    }

    /// Adds gossip peers.
    #[must_use]
    pub fn with_peers(mut self, peers: impl IntoIterator<Item = SocketAddr>) -> Self {
        self.peers.extend(peers);
        self
    }

    /// Enables the periodic gossip thread.
    #[must_use]
    pub fn with_gossip(mut self, interval: Duration) -> Self {
        self.gossip_interval = Some(interval);
        self
    }

    /// Sets the outbound pull retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the socket dial/deadline policy.
    #[must_use]
    pub fn with_connect(mut self, connect: ConnectOptions) -> Self {
        self.connect = connect;
        self
    }

    /// Enables or disables event-driven metric families (see
    /// [`NodeConfig::metrics_events`]).
    #[must_use]
    pub fn with_metrics_events(mut self, enabled: bool) -> Self {
        self.metrics_events = enabled;
        self
    }

    /// Makes the node durable with these WAL/checkpoint settings.
    #[must_use]
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Makes the node durable in `data_dir` with the default policies
    /// (what `optrepd --data-dir` without further flags gives).
    #[must_use]
    pub fn with_data_dir(self, data_dir: impl Into<std::path::PathBuf>) -> Self {
        self.with_durability(DurabilityConfig::new(data_dir))
    }
}

/// A finished blocking verb on its way back from the executor to the
/// event loop, addressed by connection id.
struct VerbDone {
    conn: u64,
    stream: u64,
    response: Response,
}

/// The daemon's directly updated metric instruments (gauges sampled at
/// scrape time, histograms fed inline by the runtime internals the
/// event stream never reaches).
struct NodeMetrics {
    uptime_secs: Arc<Gauge>,
    store_keys: Arc<Gauge>,
    store_tracked: Arc<Gauge>,
    store_generation: Arc<Gauge>,
    /// Generations back the store's change journal is complete
    /// (`KvStore::journal_floor_lag`): below what a peer lets pass
    /// between pulls, its pulls are planned without proposals.
    store_journal_floor_lag: Arc<Gauge>,
    conn_live: Arc<Gauge>,
    /// Jobs submitted to the sync worker and not yet picked up.
    worker_queue_depth: Arc<Gauge>,
    /// Wall-clock of each verb handled (inline or on the worker).
    verb_service_micros: Arc<Histogram>,
    /// Bytes still buffered per connection each time a socket pushed
    /// back mid-flush — one sample per backpressure incident.
    write_backlog_bytes: Arc<Histogram>,
    /// Peers whose every pull attempt failed in the last gossip pass.
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
    /// Checkpoint wall-clock (snapshot encode + atomic writes + trim).
    checkpoint_micros: Arc<Histogram>,
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
    reactor: optrep_net::reactor::ReactorMetrics,
}

impl NodeMetrics {
    fn register(registry: &MetricsRegistry) -> NodeMetrics {
        NodeMetrics {
            uptime_secs: registry.gauge("optrep_uptime_secs"),
            store_keys: registry.gauge("optrep_store_keys"),
            store_tracked: registry.gauge("optrep_store_tracked"),
            store_generation: registry.gauge("optrep_store_generation"),
            store_journal_floor_lag: registry.gauge("optrep_store_journal_floor_lag"),
            conn_live: registry.gauge("optrep_conn_live"),
            worker_queue_depth: registry.gauge("optrep_worker_queue_depth"),
            verb_service_micros: registry.histogram("optrep_verb_service_micros"),
            write_backlog_bytes: registry.histogram("optrep_write_backlog_bytes"),
            quarantined_peers: registry.gauge("optrep_quarantined_peers"),
            wal_records_total: registry.counter("optrep_wal_records_total"),
            wal_bytes_total: registry.counter("optrep_wal_bytes_total"),
            wal_fsyncs_total: registry.counter("optrep_wal_fsyncs_total"),
            checkpoints_total: registry.counter("optrep_checkpoints_total"),
            wal_size_bytes: registry.gauge("optrep_wal_size_bytes"),
            checkpoint_seq: registry.gauge("optrep_checkpoint_seq"),
            replay_micros: registry.histogram("optrep_replay_micros"),
            checkpoint_micros: registry.histogram("optrep_checkpoint_micros"),
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
            reactor: optrep_net::reactor::ReactorMetrics::register(registry, "optrep_reactor"),
        }
    }
}

/// State shared between the connection core, the executor, the gossip
/// thread, and the owning [`Node`] handle.
struct Shared {
    site: SiteId,
    store: Mutex<KvStore>,
    /// The durable layer (WAL append handle + checkpoint bookkeeping),
    /// when configured. **Lock order is store → persist**: every
    /// appender holds the store lock across its append, and a
    /// checkpoint acquires persist while still holding store, so the
    /// two locks together always frame a frozen (store, WAL seq) pair.
    /// Never acquire the store lock while holding this one.
    persist: Option<Mutex<Persist>>,
    /// Durability settings (the background task's checkpoint cadence).
    durability: Option<DurabilityConfig>,
    /// What boot recovery found (durable nodes only).
    replay: Option<ReplayReport>,
    resolver: JoinResolver,
    peers: Vec<SocketAddr>,
    retry: RetryPolicy,
    connect: ConnectOptions,
    /// Persistent outbound peer connections; every pull pipelines over
    /// a pooled socket instead of dialing fresh. Each connection
    /// carries the memory of the last digest vector sent down it.
    pool: ConnPool<VectorMemory>,
    shutdown: AtomicBool,
    /// When the daemon started (`status` uptime, `optrep_uptime_secs`).
    started: Instant,
    /// The daemon's metric families, served by the `Metrics` verb.
    registry: Arc<MetricsRegistry>,
    /// The event-driven sink feeding [`Self::registry`]; installed on
    /// every daemon thread via [`Self::sinks`], and pushed by
    /// [`Node::sync_with`] onto *caller* threads so embedded pulls are
    /// metered too. Inert when [`Self::metrics_events`] is off.
    metrics_sink: Arc<dyn Sink>,
    /// Whether [`Self::metrics_sink`] is wired up (see
    /// [`NodeConfig::metrics_events`]).
    metrics_events: bool,
    metrics: NodeMetrics,
    /// Obs sinks captured at [`Node::start`] plus the daemon's own
    /// [`Self::metrics_sink`]; re-installed on every spawned thread
    /// (shared `Arc`s, as the engine's wave workers do) so socket-driven
    /// contacts trace into the starter's aggregators.
    sinks: Vec<Arc<dyn Sink>>,
    /// Wakes the event loop from other threads: executor completions
    /// and [`Node::stop`].
    waker: optrep_net::reactor::Waker,
    /// Finished executor verbs awaiting delivery by the event loop.
    completions: Mutex<Vec<VerbDone>>,
}

impl Shared {
    /// Locks the store, recovering from a poisoned lock: the store's
    /// transactional apply discipline never leaves it half-written, so
    /// a handler that panicked elsewhere must not wedge the daemon.
    fn store(&self) -> MutexGuard<'_, KvStore> {
        match self.store.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Locks the durable layer, if there is one (same poison recovery
    /// as [`Shared::store`]).
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
    fn wal_append(&self, store: &KvStore, keys: &[String]) -> Result<()> {
        let Some(mut persist) = self.persist() else {
            return Ok(());
        };
        if keys.is_empty() {
            return Ok(());
        }
        let changed: Vec<(String, bytes::Bytes)> = keys
            .iter()
            .filter_map(|key| store.encode_entry(key).map(|entry| (key.clone(), entry)))
            .collect();
        debug_assert_eq!(changed.len(), keys.len(), "changed keys must be tracked");
        let fsyncs_before = persist.fsyncs();
        match persist.append(&changed) {
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
    /// As [`Shared::wal_append`].
    fn write(&self, key: String, value: Option<bytes::Bytes>) -> Result<()> {
        let mut store = self.store();
        match value {
            Some(value) => store.put(key.clone(), value),
            None => store.delete(key.clone()),
        }
        self.wal_append(&store, std::slice::from_ref(&key))
    }

    fn completions(&self) -> MutexGuard<'_, Vec<VerbDone>> {
        match self.completions.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// A running `optrepd` node.
///
/// Dropping the handle does **not** stop the daemon; call
/// [`Node::stop`] (or let the process exit).
pub struct Node {
    shared: Arc<Shared>,
    addr: SocketAddr,
    core: Option<std::thread::JoinHandle<()>>,
    gossip: Option<std::thread::JoinHandle<()>>,
    persist: Option<std::thread::JoinHandle<()>>,
}

impl Node {
    /// Binds the listener and starts the connection core (and the
    /// gossip thread, if configured). Returns once the node is
    /// reachable.
    ///
    /// On a durable node ([`NodeConfig::with_durability`]), the data
    /// dir is recovered first — snapshot, then WAL, dropping a torn
    /// tail — and the node starts serving the recovered store; see
    /// [`Node::replay_report`] for what recovery found.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedMessage`] if the listen address cannot be
    /// bound — an environment problem, not link weather — or if the
    /// data dir fails to recover (I/O trouble, a foreign site's files,
    /// or log corruption anywhere before the tail).
    pub fn start(config: NodeConfig) -> Result<Node> {
        let listener = TcpListener::bind(config.listen).map_err(|e| Error::UnexpectedMessage {
            protocol: "daemon",
            message: format!("cannot bind {}: {e}", config.listen),
        })?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::UnexpectedMessage {
                protocol: "daemon",
                message: format!("listener has no address: {e}"),
            })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::UnexpectedMessage {
                protocol: "daemon",
                message: format!("cannot poll listener: {e}"),
            })?;
        let waker = optrep_net::reactor::Waker::new().map_err(|e| Error::UnexpectedMessage {
            protocol: "daemon",
            message: format!("cannot create event waker: {e}"),
        })?;
        let registry = Arc::new(MetricsRegistry::new());
        let metrics_sink: Arc<dyn Sink> = Arc::new(MetricsSink::new(&registry));
        let metrics = NodeMetrics::register(&registry);
        let pool = ConnPool::new(config.site.index(), config.connect);
        pool.set_metrics(PoolMetrics::register(&registry, "optrep_pool"));
        // Every daemon thread gets the starter's sinks plus the metrics
        // sink, so sync-verb events raised on the worker and gossip
        // threads reach both the user's tracers and the registry.
        let mut sinks = obs::installed();
        if config.metrics_events {
            sinks.push(Arc::clone(&metrics_sink));
        }
        // Recover durable state before the listener serves anything:
        // the first verb must already see the replayed store.
        let (persist, store, replay) = match config.durability.as_ref() {
            Some(durability) => {
                let (persist, store, report) = Persist::open(durability, config.site)?;
                metrics
                    .replay_micros
                    .record(report.elapsed.as_micros() as u64);
                (Some(Mutex::new(persist)), store, Some(report))
            }
            None => (None, KvStore::new(config.site), None),
        };
        let shared = Arc::new(Shared {
            site: config.site,
            store: Mutex::new(store),
            persist,
            durability: config.durability,
            replay,
            resolver: JoinResolver,
            peers: config.peers,
            retry: config.retry,
            connect: config.connect,
            pool,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            registry,
            metrics_sink,
            metrics_events: config.metrics_events,
            metrics,
            sinks,
            waker,
            completions: Mutex::new(Vec::new()),
        });
        let core = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || event::event_loop(&shared, &listener))
        };
        let gossip = config.gossip_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            // The gossip thread needs the shared sinks installed just
            // like the event loop and the executor: without them its
            // pulls' contact/session events silently vanish from
            // daemon-side traces and metrics.
            std::thread::spawn(move || {
                obs::with_all(shared.sinks.clone(), || gossip_loop(&shared, interval))
            })
        });
        let persist = shared.persist.is_some().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || persist_loop(&shared))
        });
        Ok(Node {
            shared,
            addr,
            core: Some(core),
            gossip,
            persist,
        })
    }

    /// The bound listen address (the actual port when configured with 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This node's site id.
    pub fn site(&self) -> SiteId {
        self.shared.site
    }

    /// Runs `f` with the store locked — the in-process equivalent of a
    /// verb session, for embedding and tests. Mutations made here
    /// bypass the WAL: this is the raw-store escape hatch, not the
    /// durable write path ([`Node::put`]/[`Node::delete`] are).
    pub fn with_store<R>(&self, f: impl FnOnce(&mut KvStore) -> R) -> R {
        f(&mut self.shared.store())
    }

    /// Writes `key` through the full verb path — on a durable node the
    /// post-state is WAL-logged before this returns — without a socket.
    ///
    /// # Errors
    ///
    /// The WAL append/fsync failure on a durable node (never errs on a
    /// memory-only one).
    pub fn put(&self, key: impl Into<String>, value: impl Into<bytes::Bytes>) -> Result<()> {
        self.shared.write(key.into(), Some(value.into()))
    }

    /// Deletes `key` through the full verb path, durably on a durable
    /// node (the logged post-state is the tombstone).
    ///
    /// # Errors
    ///
    /// The WAL append/fsync failure on a durable node.
    pub fn delete(&self, key: impl Into<String>) -> Result<()> {
        self.shared.write(key.into(), None)
    }

    /// What boot recovery found in the data dir (`None` on a
    /// memory-only node).
    pub fn replay_report(&self) -> Option<ReplayReport> {
        self.shared.replay
    }

    /// The site-independent replica digest (`optrep digest`).
    pub fn digest(&self) -> u64 {
        self.shared.store().replica_digest()
    }

    /// This node's outbound peer-connection counters, summed over all
    /// peers (what the `status` verb reports in its `conn_*` fields).
    pub fn conn_totals(&self) -> optrep_net::PoolStats {
        self.shared.pool.totals()
    }

    /// A metrics snapshot, exactly as the `Metrics` verb serves it
    /// (point-in-time gauges refreshed first).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        refresh_gauges(&self.shared);
        self.shared.registry.snapshot()
    }

    /// Pulls from `peer` right now, exactly as the `sync` verb does,
    /// over this node's pooled persistent connection to that peer.
    ///
    /// The daemon's metrics sink rides along on the calling thread (on
    /// top of whatever sinks the caller installed), so embedded pulls
    /// land in the same histograms as verb- and gossip-driven ones.
    ///
    /// # Errors
    ///
    /// Propagates dial, transport, and protocol errors; the store is
    /// untouched unless the pull committed.
    pub fn sync_with(&self, peer: SocketAddr) -> Result<KvSyncReport> {
        if !self.shared.metrics_events {
            return pull_from(&self.shared, peer);
        }
        obs::with(Arc::clone(&self.shared.metrics_sink), || {
            pull_from(&self.shared, peer)
        })
    }

    /// Blocks until the node is stopped.
    pub fn wait(mut self) {
        self.join_threads();
    }

    /// Stops the connection core, gossip, and durability threads,
    /// waits for them, then settles durable state — final checkpoint,
    /// WAL fsync — and FINs the pooled peer connections. After this
    /// returns, a durable node's data dir holds a fresh snapshot and an
    /// empty log: the next boot replays nothing.
    pub fn stop(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.waker.wake();
        self.join_threads();
        checkpoint_now(&self.shared);
        if let Some(mut persist) = self.shared.persist() {
            let _ = persist.sync();
        }
        self.shared.pool.clear();
    }

    fn join_threads(&mut self) {
        if let Some(core) = self.core.take() {
            let _ = core.join();
        }
        if let Some(gossip) = self.gossip.take() {
            let _ = gossip.join();
        }
        if let Some(persist) = self.persist.take() {
            let _ = persist.join();
        }
    }
}

/// The readiness-driven connection core.
///
/// One thread owns the listener and every accepted connection. Each
/// connection is a small state machine fed whole frames by a
/// [`FrameDecoder`](wire::FrameDecoder); output is buffered per
/// connection and flushed as the socket accepts it, with `POLLOUT`
/// interest only while a buffer is nonempty. The loop never blocks on
/// any single connection, and it never sleeps to poll a condition —
/// every wait is a `poll(2)` with a deadline.
mod event {
    use super::*;
    use bytes::BytesMut;
    use optrep_core::wire::{self, FrameDecoder};
    use optrep_net::reactor::{capped_poll_backoff, poll_ready_metered, Interest};
    use std::collections::HashMap;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;
    use std::sync::mpsc;
    use std::time::Instant;

    /// Poll deadline when nothing else bounds it, so the loop re-checks
    /// the shutdown flag even if no fd ever fires (belt to the waker's
    /// suspenders).
    const IDLE_POLL: Duration = Duration::from_millis(500);

    /// Read buffer per wakeup; matches `TcpLink`'s.
    const READ_BUF: usize = 8 * 1024;

    /// Where one connection is in its life.
    enum ConnState {
        /// Waiting for the opening handshake frame.
        Handshake,
        /// A verb session; each request frame yields one response frame.
        Verbs,
        /// Serving anti-entropy contacts as the pulled-from side: every
        /// frame goes to the serving step, which asks the store for a
        /// plan when a contact opens with the puller's shard digests,
        /// and for the endpoint — over the keys the puller's answer to
        /// the plan left in the contact, or full for an unplanned one —
        /// at the first frame of the exchange: one store lock per ask,
        /// so what is built is what will be served. The
        /// `Serving` lives as long as the connection, and with it the
        /// puller's last digest vector, which its next contact may
        /// send a delta against.
        Serve { serving: Serving, persistent: bool },
        /// Done; close once the write buffer drains.
        Closing,
    }

    struct Conn {
        stream: TcpStream,
        decoder: FrameDecoder,
        out: BytesMut,
        state: ConnState,
        /// A blocking verb is on the executor: frames already received
        /// stay queued in the decoder and the socket is dropped from
        /// read interest (TCP backpressure does the rest) until the
        /// response comes back.
        busy: bool,
        dead: bool,
    }

    impl Conn {
        fn new(stream: TcpStream) -> Conn {
            Conn {
                stream,
                decoder: FrameDecoder::new(),
                out: BytesMut::new(),
                state: ConnState::Handshake,
                busy: false,
                dead: false,
            }
        }

        fn done(&self) -> bool {
            self.dead || (matches!(self.state, ConnState::Closing) && self.out.is_empty())
        }
    }

    /// A verb handed off the event thread (only `sync` qualifies — it
    /// blocks on a network pull).
    struct Job {
        conn: u64,
        stream: u64,
        request: Request,
    }

    /// The lazily started single worker for blocking verbs. One worker
    /// is enough: concurrent `sync` verbs would race each other's
    /// generation checks anyway, and the thread count stays fixed.
    struct Executor {
        tx: mpsc::Sender<Job>,
    }

    fn spawn_executor(shared: &Arc<Shared>) -> Executor {
        let (tx, rx) = mpsc::channel::<Job>();
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            obs::with_all(shared.sinks.clone(), || {
                while let Ok(job) = rx.recv() {
                    shared.metrics.worker_queue_depth.dec();
                    let response = handle_request(&shared, job.request);
                    shared.completions().push(VerbDone {
                        conn: job.conn,
                        stream: job.stream,
                        response,
                    });
                    shared.waker.wake();
                }
            });
        });
        Executor { tx }
    }

    pub(super) fn event_loop(shared: &Arc<Shared>, listener: &TcpListener) {
        obs::with_all(shared.sinks.clone(), || run(shared, listener));
    }

    fn run(shared: &Arc<Shared>, listener: &TcpListener) {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id: u64 = 0;
        let mut exec: Option<Executor> = None;
        let mut accept_errors: u32 = 0;
        let mut accept_retry_at: Option<Instant> = None;

        loop {
            if shared.stopping() {
                return;
            }

            // Deliver finished executor verbs, then resume parsing any
            // frames the connection queued while it was busy.
            let done: Vec<VerbDone> = std::mem::take(&mut *shared.completions());
            for verb in done {
                if let Some(conn) = conns.get_mut(&verb.conn) {
                    conn.busy = false;
                    push_response(conn, verb.stream, &verb.response);
                    process(shared, verb.conn, conn, &mut exec);
                    flush(shared, conn);
                }
            }
            conns.retain(|_, conn| !conn.done());

            // Assemble the poll set: waker, listener (unless accept
            // errors have it in backoff), then every connection.
            let now = Instant::now();
            if accept_retry_at.is_some_and(|at| now >= at) {
                accept_retry_at = None;
            }
            let mut fds = Vec::with_capacity(conns.len() + 2);
            fds.push((shared.waker.fd(), Interest::READ));
            let listener_slot = if accept_retry_at.is_none() {
                fds.push((listener.as_raw_fd(), Interest::READ));
                Some(fds.len() - 1)
            } else {
                None
            };
            let base = fds.len();
            let ids: Vec<u64> = conns.keys().copied().collect();
            for id in &ids {
                let conn = &conns[id];
                fds.push((
                    conn.stream.as_raw_fd(),
                    Interest {
                        readable: !conn.busy,
                        writable: !conn.out.is_empty(),
                    },
                ));
            }
            let timeout = match accept_retry_at {
                Some(at) => at.saturating_duration_since(now).min(IDLE_POLL),
                None => IDLE_POLL,
            };
            let Ok((_, ready)) = poll_ready_metered(&fds, Some(timeout), &shared.metrics.reactor)
            else {
                // poll(2) itself failed (fd exhaustion). Breathe and
                // retry; connections are still intact.
                std::thread::sleep(ACCEPT_BACKOFF_BASE);
                continue;
            };
            if shared.stopping() {
                return;
            }
            if ready[0].readable {
                shared.waker.drain();
            }
            if listener_slot.is_some_and(|slot| ready[slot].readable) {
                accept_all(
                    listener,
                    &mut conns,
                    &mut next_id,
                    &mut accept_errors,
                    &mut accept_retry_at,
                );
            }
            for (slot, id) in ids.iter().enumerate() {
                let readiness = ready[base + slot];
                let Some(conn) = conns.get_mut(id) else {
                    continue;
                };
                if readiness.readable {
                    let open = read_into(conn);
                    process(shared, *id, conn, &mut exec);
                    if !open {
                        flush(shared, conn);
                        conn.dead = true;
                    }
                } else if readiness.error {
                    conn.dead = true;
                }
                if !conn.dead && !conn.out.is_empty() {
                    flush(shared, conn);
                }
            }
            conns.retain(|_, conn| !conn.done());
        }
    }

    /// Drains the accept queue. A transient accept error (aborted
    /// handshake, fd pressure) puts the listener into capped
    /// exponential backoff — it leaves the poll set until the deadline
    /// — instead of the loop spinning on a hot error.
    fn accept_all(
        listener: &TcpListener,
        conns: &mut HashMap<u64, Conn>,
        next_id: &mut u64,
        accept_errors: &mut u32,
        accept_retry_at: &mut Option<Instant>,
    ) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    *accept_errors = 0;
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    *next_id += 1;
                    conns.insert(*next_id, Conn::new(stream));
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    let backoff = capped_poll_backoff(
                        *accept_errors,
                        ACCEPT_BACKOFF_BASE,
                        ACCEPT_BACKOFF_CAP,
                    );
                    *accept_errors = accept_errors.saturating_add(1);
                    *accept_retry_at = Some(Instant::now() + backoff);
                    return;
                }
            }
        }
    }

    /// Reads until the socket would block, feeding the frame decoder.
    /// Returns `false` on EOF or a socket error — frames already
    /// decoded are still processed, then the connection dies.
    fn read_into(conn: &mut Conn) -> bool {
        let mut buf = [0u8; READ_BUF];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => conn.decoder.push(&buf[..n]),
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Runs decoded frames through the connection's state machine until
    /// the decoder runs dry or the connection blocks (busy verb, done,
    /// dead).
    fn process(shared: &Arc<Shared>, id: u64, conn: &mut Conn, exec: &mut Option<Executor>) {
        while !conn.busy && !conn.dead && !matches!(conn.state, ConnState::Closing) {
            let frame = match conn.decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            };
            on_frame(shared, id, conn, frame, exec);
        }
    }

    /// Advances one connection state machine by one frame.
    fn on_frame(
        shared: &Arc<Shared>,
        id: u64,
        conn: &mut Conn,
        frame: wire::Frame,
        exec: &mut Option<Executor>,
    ) {
        match &mut conn.state {
            ConnState::Handshake => {
                if frame.stream != CONTROL_STREAM {
                    conn.dead = true;
                    return;
                }
                let mut payload = frame.payload;
                match Handshake::decode(&mut payload) {
                    Ok(handshake) => {
                        conn.state = match handshake.intent {
                            Intent::Verbs => ConnState::Verbs,
                            // The endpoint is taken lazily at the first
                            // contact frame for both intents, so a
                            // one-shot pull can open with a planner
                            // phase too.
                            Intent::Pull => ConnState::Serve {
                                serving: Serving::default(),
                                persistent: false,
                            },
                            Intent::Peer => ConnState::Serve {
                                serving: Serving::default(),
                                persistent: true,
                            },
                        };
                    }
                    Err(_) => conn.dead = true,
                }
            }
            ConnState::Verbs => {
                let stream = frame.stream;
                let mut payload = frame.payload;
                match Request::decode(&mut payload) {
                    // `sync` blocks on a network pull; it runs on the
                    // executor so the event loop keeps turning.
                    Ok(request @ Request::Sync { .. }) => {
                        conn.busy = true;
                        let exec = exec.get_or_insert_with(|| spawn_executor(shared));
                        if exec
                            .tx
                            .send(Job {
                                conn: id,
                                stream,
                                request,
                            })
                            .is_err()
                        {
                            conn.dead = true;
                        } else {
                            shared.metrics.worker_queue_depth.inc();
                        }
                    }
                    Ok(request) => {
                        let response = handle_request(shared, request);
                        push_response(conn, stream, &response);
                    }
                    Err(e) => {
                        push_response(conn, stream, &Response::Err(format!("bad request: {e}")));
                    }
                }
            }
            ConnState::Serve {
                serving,
                persistent,
            } => {
                let step = serving.on_frame(
                    frame,
                    &mut |ask| {
                        let answer = shared.store().open_contact(ask);
                        if let ContactAnswer::Endpoint(endpoint) = &answer {
                            let keys = endpoint.object_count() as u64;
                            shared.metrics.serving_endpoint_keys.record(keys);
                        }
                        answer
                    },
                    &mut conn.out,
                );
                match step {
                    Ok(ServeStep::Continue) => {}
                    Ok(ServeStep::Done) if *persistent => {}
                    Ok(ServeStep::Done) => conn.state = ConnState::Closing,
                    Err(_) => conn.dead = true,
                }
            }
            ConnState::Closing => {}
        }
    }

    /// Encodes one response frame onto the connection's write buffer.
    fn push_response(conn: &mut Conn, stream: u64, response: &Response) {
        let payload = response.encode();
        wire::put_frame(&mut conn.out, stream, &payload);
    }

    /// Writes as much of the buffered output as the socket accepts now;
    /// the remainder keeps `POLLOUT` interest for the next round. Each
    /// time the socket pushes back, the bytes left behind are one
    /// sample in the write-backlog histogram.
    fn flush(shared: &Shared, conn: &mut Conn) {
        while !conn.out.is_empty() {
            match conn.stream.write(&conn.out) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => {
                    let _ = conn.out.split_to(n);
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    shared
                        .metrics
                        .write_backlog_bytes
                        .record(conn.out.len() as u64);
                    return;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }
}

/// Refreshes the point-in-time gauges a scrape reports: store shape,
/// pool liveness, uptime. Counters and histograms are always current;
/// only gauges are sampled lazily, at snapshot time.
fn refresh_gauges(shared: &Shared) {
    let (keys, tracked, generation, journal_floor_lag) = {
        let store = shared.store();
        (
            store.len() as u64,
            store.tracked_entries() as u64,
            store.generation(),
            store.journal_floor_lag(),
        )
    };
    let m = &shared.metrics;
    m.store_keys.set(keys);
    m.store_tracked.set(tracked);
    m.store_generation.set(generation);
    m.store_journal_floor_lag.set(journal_floor_lag);
    m.conn_live.set(shared.pool.live() as u64);
    m.uptime_secs.set(shared.started.elapsed().as_secs());
    if let Some(persist) = shared.persist() {
        m.wal_size_bytes.set(persist.wal_len());
        m.checkpoint_seq.set(persist.snapshot_seq());
    }
}

/// Executes one client verb against the shared store, timing it into
/// `optrep_verb_service_micros`.
fn handle_request(shared: &Shared, request: Request) -> Response {
    let started = Instant::now();
    let response = dispatch_request(shared, request);
    shared
        .metrics
        .verb_service_micros
        .record(started.elapsed().as_micros() as u64);
    response
}

/// The acknowledgement of a logged write.
fn written(logged: Result<()>) -> Response {
    match logged {
        Ok(()) => Response::Ok,
        Err(e) => Response::Err(format!("{e}")),
    }
}

fn dispatch_request(shared: &Shared, request: Request) -> Response {
    match request {
        Request::Get { key } => {
            let store = shared.store();
            Response::Value(store.get(&key).map(bytes::Bytes::copy_from_slice))
        }
        Request::Put { key, value } => written(shared.write(key, Some(value))),
        Request::Delete { key } => written(shared.write(key, None)),
        Request::Status => {
            let (keys, tracked, generation) = {
                let store = shared.store();
                (
                    store.len() as u64,
                    store.tracked_entries() as u64,
                    store.generation(),
                )
            };
            let totals = shared.pool.totals();
            let (wal_records, wal_bytes, wal_fsyncs, wal_checkpoint_seq) = match shared.persist() {
                Some(persist) => (
                    persist.records(),
                    persist.appended_bytes(),
                    persist.fsyncs(),
                    persist.snapshot_seq(),
                ),
                None => (0, 0, 0, 0),
            };
            let m = &shared.metrics;
            Response::Status(StatusInfo {
                site: shared.site.index(),
                keys,
                tracked,
                generation,
                conn_dials: totals.dials,
                conn_contacts: totals.contacts,
                conn_live: shared.pool.live() as u64,
                uptime_secs: shared.started.elapsed().as_secs(),
                metrics_seq: shared.registry.seq(),
                wal_records,
                wal_bytes,
                wal_fsyncs,
                wal_checkpoint_seq,
                planner_shards_skipped: m.planner_shards_skipped_total.get(),
                planner_shards_incremental: m.planner_shards_incremental_total.get(),
                planner_shards_snapshot: m.planner_shards_snapshot_total.get(),
                planner_digest_bytes: m.planner_digest_bytes_total.get(),
                planner_shards_refined: m.planner_shards_refined_total.get(),
                planner_digests_sent: m.planner_digests_sent_total.get(),
                planner_shards_proposed: m.planner_shards_proposed_total.get(),
                planner_shards_refused: m.planner_shards_refused_total.get(),
            })
        }
        Request::Digest => Response::Digest(shared.store().replica_digest()),
        Request::Sync { peer } => match peer.parse::<SocketAddr>() {
            Ok(addr) => match pull_from(shared, addr) {
                Ok(report) => Response::Synced(report),
                Err(e) => Response::Err(format!("sync failed: {e}")),
            },
            Err(_) => Response::Err(format!("bad peer address: {peer}")),
        },
        Request::Metrics => {
            refresh_gauges(shared);
            Response::Metrics(shared.registry.snapshot())
        }
    }
}

/// One generation-checked pull from `peer`, over the pooled persistent
/// connection to it.
///
/// The pool hands back the peer's long-lived socket (dialing and
/// handshaking only if there is none yet); the contact leaves the
/// socket open, so the connection stays checked in for the next pull. The
/// client endpoint is snapshotted *inside* the pooled closure so a
/// stale-connection rerun gets fresh metadata — and, the pool having
/// dropped the stale connection's vector memory with it, opens with a
/// full digest vector again (to a serving end that, being new, proposes
/// nothing). Before committing, the
/// store's write generation is compared with the snapshot's: if a local
/// write (or another pull) landed in between, the staged outcomes
/// describe a store that no longer exists, so the pull is retried
/// against fresh metadata instead of committed — bounded by
/// [`APPLY_RACE_RETRIES`].
fn pull_from(shared: &Shared, peer: SocketAddr) -> Result<KvSyncReport> {
    for _ in 0..APPLY_RACE_RETRIES {
        // A planned pull: ship this store's shard digests, get back the
        // peer's per-shard plan, run the contact restricted to the
        // incremental shards — cut, where the plan offers child
        // digests, at the children that differ from this store's, and
        // where it proposes a scope and the residual matches, at the
        // proposal's candidates; both compared under the same guard
        // that snapshots the generation.
        // The digest vector is snapshotted under its own (brief) lock;
        // a write landing between it and the endpoint snapshot only
        // makes a shard look dirtier than planned, never cleaner — and
        // the commit's generation check still guards the endpoint
        // snapshot itself.
        let mut generation = 0;
        let (client, plan, report) = shared.pool.with_conn(peer, |link, remembered| {
            let digests = shared.store().shard_digest_vector();
            pull_planned(link, remembered, &digests, |plan| {
                let store = shared.store();
                generation = store.generation();
                store.client_endpoint_refined(plan)
            })
        })?;
        // Commit: generation re-check, transactional apply, and WAL
        // append all under ONE store guard. A local write that raced
        // the network exchange forces a retry; once the check passes,
        // nothing can land between it and the commit, and the log
        // record (the whole contact as one record — snapshot-applied
        // keys included) freezes inside the same critical section the
        // commit does.
        let mut store = shared.store();
        if store.generation() != generation {
            continue;
        }
        let (synced, changed) =
            store.apply_planned_tracked(&shared.resolver, client, &report, &plan)?;
        shared.wal_append(&store, &changed)?;
        drop(store);
        let m = &shared.metrics;
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
    // Local writes outran every attempt; the next gossip tick will
    // carry them anyway.
    Err(Error::Incomplete {
        protocol: "daemon pull",
    })
}

/// The durability tick: a backstop fsync for the `interval` policy
/// (appends only sync opportunistically — a quiet log would otherwise
/// sit dirty forever) and periodic checkpoints, taken on schedule or
/// early once the WAL outgrows the configured size.
fn persist_loop(shared: &Arc<Shared>) {
    const TICK: Duration = Duration::from_millis(25);
    let Some(config) = shared.durability.clone() else {
        return;
    };
    let mut last_checkpoint = Instant::now();
    while !shared.stopping() {
        sleep_watching(shared, TICK);
        if shared.stopping() {
            return;
        }
        let (sync_due, checkpoint_due) = match shared.persist() {
            Some(persist) => (
                persist.fsync_due(),
                persist.needs_checkpoint()
                    && (last_checkpoint.elapsed() >= config.checkpoint_interval
                        || persist.wal_len() >= config.checkpoint_wal_bytes),
            ),
            None => return,
        };
        if sync_due {
            if let Some(mut persist) = shared.persist() {
                if let Ok(true) = persist.sync() {
                    shared.metrics.wal_fsyncs_total.inc();
                }
            }
        }
        if checkpoint_due {
            checkpoint_now(shared);
            last_checkpoint = Instant::now();
        }
    }
}

/// Writes a checkpoint right now (if the WAL holds anything the
/// snapshot doesn't). The store lock freezes appends while the
/// snapshot is encoded *and* while the persist lock is acquired —
/// every appender holds store across its append, so once both guards
/// are held the image and `Persist::seq` describe the same instant;
/// the store guard is then released and the slow file work (two atomic
/// swaps) proceeds under the persist guard alone, appends queueing
/// behind it rather than landing in the log being truncated.
fn checkpoint_now(shared: &Shared) -> bool {
    if shared.persist.is_none() {
        return false;
    }
    let started = Instant::now();
    let store = shared.store();
    let image = store.encode_snapshot();
    let Some(mut persist) = shared.persist() else {
        return false;
    };
    drop(store);
    if !persist.needs_checkpoint() {
        return false;
    }
    match persist.checkpoint(&image) {
        Ok(()) => {
            let m = &shared.metrics;
            m.checkpoints_total.inc();
            m.checkpoint_micros
                .record(started.elapsed().as_micros() as u64);
            true
        }
        // Checkpointing is an optimization; the old snapshot + full
        // log still recover. The next tick retries.
        Err(_) => false,
    }
}

/// Pulls from each configured peer in turn, one pass per `interval`,
/// retrying per [`RetryPolicy`] with capped exponential backoff (the
/// policy's round counts scaled to the socket backoff schedule).
fn gossip_loop(shared: &Arc<Shared>, interval: Duration) {
    while !shared.stopping() {
        sleep_watching(shared, interval);
        if shared.stopping() {
            return;
        }
        let mut quarantined: u64 = 0;
        for &peer in &shared.peers {
            let attempts = shared.retry.max_attempts.max(1);
            let mut reached = false;
            for attempt in 0..attempts {
                if shared.stopping() {
                    return;
                }
                if attempt > 0 {
                    let factor = 1u32 << (attempt - 1).min(16);
                    std::thread::sleep(
                        shared
                            .connect
                            .backoff_base
                            .saturating_mul(factor)
                            .min(shared.connect.backoff_cap),
                    );
                }
                if pull_from(shared, peer).is_ok() {
                    reached = true;
                    break;
                }
            }
            if !reached {
                quarantined += 1;
            }
        }
        // Peers that burned the whole retry budget this pass sit out
        // until the next tick — the fleet-view "quarantine" column.
        shared.metrics.quarantined_peers.set(quarantined);
    }
}

/// Sleeps `total` in slices, returning early on shutdown.
fn sleep_watching(shared: &Shared, total: Duration) {
    let slice = total.min(ACCEPT_POLL.max(Duration::from_millis(1)));
    let mut slept = Duration::ZERO;
    while slept < total && !shared.stopping() {
        let step = slice.min(total - slept);
        std::thread::sleep(step);
        slept += step;
    }
}
