//! The `optrepd` node: the shell that runs a `NodeCore` (`node::core`,
//! the daemon's logic, with no thread, socket, clock or file inside) on
//! threads, over sockets, at wall-clock instants.
//!
//! * **The event thread.** A `poll(2)` loop (`optrep_net::reactor`)
//!   owns the listener and every connection, each a small state machine
//!   (`Handshake → Verbs | Serve`) selected by its opening
//!   [`Handshake`](wire::Handshake)'s [`Intent`](wire::Intent): a verb
//!   session speaking [`proto`](crate::proto), or a persistent `Peer`
//!   connection whose pipelined contacts the core serves, one store lock
//!   per ask. Cheap verbs and contact frames are handled inline; accept
//!   errors back off exponentially up to a cap.
//! * **The executor.** One lazily started thread for the `sync` verb,
//!   which performs a network pull and so must not stall the loop.
//! * **Two timer threads.** On a durable node the durability tick every
//!   25 ms, and with gossip configured a gossip pass every interval. Both
//!   wait on the node's stop signal, so [`Node::stop`] ends them at once.
//! * **The connection pool.** Outbound pulls ([`Node::sync_with`], the
//!   `sync` verb, gossip) pipeline over one persistent [`ConnPool`]
//!   connection per peer ([`Intent::Peer`]), redialed once when stale,
//!   which remembers the digest vector its last pull sent, each shard
//!   that pull served as it landed
//!   (`replication::planner`, "The vector crosses a connection once").
//!
//! The thread count is fixed no matter how many peers are connected.

#[cfg(not(unix))]
compile_error!("optrepd's core is the poll(2) reactor; unix only");

use crate::persist::{DurabilityConfig, Persist, ReplayReport};
use crate::proto::{Request, Response};
use optrep_core::obs::metrics::{Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use optrep_core::obs::{self, Sink};
use optrep_core::wire::{Handshake, Intent};
use optrep_core::{Error, Result, SiteId};
use optrep_kv::{KvStore, KvSyncReport};
use optrep_net::{ConnPool, ConnectOptions, TcpLink};
use optrep_replication::{Serving, VectorMemory, CONTROL_STREAM};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

mod core;

use self::core::{Contact, Landed, NodeCore};

/// First backoff after a transient accept error; doubles per
/// consecutive error up to [`ACCEPT_BACKOFF_CAP`].
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Upper bound on the accept-error backoff: a persistent error
/// condition (fd exhaustion, say) retries at this period instead of
/// spinning.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// What every thread a [`Node`] runs is named with: `optrepd-event`,
/// `optrepd-durable`, `optrepd-gossip` or `optrepd-worker`.
pub const THREAD_PREFIX: &str = "optrepd-";

/// Configuration for one [`Node`].
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This replica's site id.
    pub site: SiteId,
    /// Listen address; port 0 picks an ephemeral port (see
    /// [`Node::addr`]).
    pub listen: SocketAddr,
    /// Peers the gossip thread pulls from, each once a pass.
    pub peers: Vec<SocketAddr>,
    /// Gossip period; `None` disables the gossip thread (pulls then
    /// happen only via `optrep sync` / [`Node::sync_with`]).
    pub gossip_interval: Option<Duration>,
    /// Socket dial/deadline policy for every connection this node opens
    /// or accepts.
    pub connect: ConnectOptions,
    /// Durable state (write-ahead log + snapshot checkpoints) in a data
    /// dir. `None` — the default — keeps the store memory-only, exactly
    /// the pre-durability behavior.
    pub durability: Option<DurabilityConfig>,
}

impl NodeConfig {
    /// A node for `site` listening on `listen`, no peers, no gossip,
    /// default socket policy.
    pub fn new(site: SiteId, listen: SocketAddr) -> Self {
        NodeConfig {
            site,
            listen,
            peers: Vec::new(),
            gossip_interval: None,
            connect: ConnectOptions::default(),
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

    /// Sets the socket dial/deadline policy.
    #[must_use]
    pub fn with_connect(mut self, connect: ConnectOptions) -> Self {
        self.connect = connect;
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

/// The shell's metric instruments: what its sockets, threads and clock
/// see (the core counts the rest).
struct NodeMetrics {
    /// Wall-clock of each pull attempt that completed on its pooled
    /// connection, the planning turn included and the dial not.
    contact_micros: Arc<Histogram>,
    uptime_secs: Arc<Gauge>,
    conn_live: Arc<Gauge>,
    /// Jobs submitted to the sync worker and not yet picked up.
    worker_queue_depth: Arc<Gauge>,
    /// Wall-clock of each verb handled (inline or on the worker).
    verb_service_micros: Arc<Histogram>,
    /// Bytes still buffered per connection each time a socket pushed
    /// back mid-flush — one sample per backpressure incident.
    write_backlog_bytes: Arc<Histogram>,
    /// Checkpoint wall-clock (snapshot encode + atomic writes + trim).
    checkpoint_micros: Arc<Histogram>,
    reactor: optrep_net::reactor::ReactorMetrics,
}

impl NodeMetrics {
    fn register(registry: &MetricsRegistry) -> NodeMetrics {
        NodeMetrics {
            contact_micros: registry.histogram("optrep_contact_micros"),
            uptime_secs: registry.gauge("optrep_uptime_secs"),
            conn_live: registry.gauge("optrep_conn_live"),
            worker_queue_depth: registry.gauge("optrep_worker_queue_depth"),
            verb_service_micros: registry.histogram("optrep_verb_service_micros"),
            write_backlog_bytes: registry.histogram("optrep_write_backlog_bytes"),
            checkpoint_micros: registry.histogram("optrep_checkpoint_micros"),
            reactor: optrep_net::reactor::ReactorMetrics::register(registry, "optrep_reactor"),
        }
    }
}

/// State shared between the event thread, the executor, the timer
/// threads, and the owning [`Node`] handle.
struct Shared {
    core: NodeCore,
    peers: Vec<SocketAddr>,
    /// Persistent outbound peer connections; every pull pipelines over
    /// a pooled socket instead of dialing fresh. Each connection
    /// carries the memory of the last digest vector sent down it.
    pool: ConnPool<VectorMemory>,
    /// Set once, by [`Node::stop`]; the timer threads wait on it.
    stopped: Mutex<bool>,
    stop_signal: Condvar,
    /// When the daemon started (`optrep_uptime_secs`).
    started: Instant,
    metrics: NodeMetrics,
    /// Obs sinks captured at [`Node::start`]; re-installed (shared
    /// `Arc`s) on the threads the node spawns that run contacts — event
    /// loop, sync worker, gossip thread — so socket-driven contacts
    /// trace into the starter's tracers.
    sinks: Vec<Arc<dyn Sink>>,
    /// Wakes the event loop from other threads: executor completions
    /// and [`Node::stop`].
    waker: optrep_net::reactor::Waker,
    /// Finished executor verbs awaiting delivery by the event loop.
    completions: Mutex<Vec<VerbDone>>,
}

impl Shared {
    fn completions(&self) -> MutexGuard<'_, Vec<VerbDone>> {
        match self.completions.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn stopping(&self) -> bool {
        *self.stopped.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits `timeout`, or until the node stops. Returns whether it has.
    fn wait_stop(&self, timeout: Duration) -> bool {
        let stopped = self.stopped.lock().unwrap_or_else(PoisonError::into_inner);
        let waited = (self.stop_signal).wait_timeout_while(stopped, timeout, |stopped| !*stopped);
        *waited.unwrap_or_else(PoisonError::into_inner).0
    }

    /// Runs `task` on a thread of its own, named `optrepd-{role}`, under
    /// the node's sinks (or its pulls' contact events would vanish from
    /// traces). A thread a daemon thread starts unnamed carries its
    /// starter's name, so every daemon thread counts under that prefix.
    fn spawn(
        self: &Arc<Self>,
        role: &str,
        task: impl FnOnce(&Arc<Shared>) + Send + 'static,
    ) -> std::thread::JoinHandle<()> {
        let shared = Arc::clone(self);
        let thread = std::thread::Builder::new().name(format!("{THREAD_PREFIX}{role}"));
        let run = move || obs::with_all(shared.sinks.clone(), || task(&shared));
        thread.spawn(run).expect("failed to spawn a daemon thread")
    }

    /// One pull from `peer` over the pooled persistent connection to it
    /// ([`NodeCore::pull_from`]).
    fn pull_from(&self, peer: SocketAddr) -> Result<KvSyncReport> {
        (self.core).pull_from(|contact| self.with_conn(peer, contact))
    }

    /// Runs one pull attempt over the pooled connection to `peer`,
    /// timing each run that completes — its exchange and its commit —
    /// into `optrep_contact_micros`.
    fn with_conn(&self, peer: SocketAddr, contact: Contact<'_, TcpLink>) -> Result<Landed> {
        self.pool.with_conn(peer, |link, remembered| {
            let started = Instant::now();
            let pulled = contact(link, remembered)?;
            let micros = started.elapsed().as_micros() as u64;
            self.metrics.contact_micros.record(micros);
            Ok(pulled)
        })
    }

    /// Runs `step`, timing into `optrep_checkpoint_micros` the checkpoint
    /// it reports having written.
    fn checkpoint(&self, step: impl FnOnce(&NodeCore) -> bool) {
        let started = Instant::now();
        if step(&self.core) {
            let micros = started.elapsed().as_micros() as u64;
            self.metrics.checkpoint_micros.record(micros);
        }
    }

    /// A metrics snapshot, exactly as the `Metrics` verb serves it
    /// (point-in-time gauges refreshed first).
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let m = &self.metrics;
        m.conn_live.set(self.pool.live() as u64);
        m.uptime_secs.set(self.started.elapsed().as_secs());
        self.core.metrics_snapshot()
    }
}

/// A running `optrepd` node.
///
/// Dropping the handle does **not** stop the daemon; call
/// [`Node::stop`] (or let the process exit).
pub struct Node {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Node {
    /// Binds the listener and starts the event thread (and the
    /// durability and gossip threads, if configured). Returns once the
    /// node is reachable.
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
        let metrics = NodeMetrics::register(&registry);
        // Recover durable state before the listener serves anything:
        // the first verb must already see the replayed store.
        let (store, persist) = match config.durability.as_ref() {
            Some(durability) => {
                let (persist, store, report) = Persist::open(durability, config.site)?;
                (store, Some((persist, report)))
            }
            None => (KvStore::new(config.site), None),
        };
        let core = NodeCore::new(store, persist, Arc::clone(&registry));
        let pool = ConnPool::new(config.site.index(), config.connect, &registry);
        // The one fact a snapshot needs that no counter carries.
        registry
            .gauge("optrep_site")
            .set(u64::from(config.site.index()));
        // Every daemon thread gets the starter's sinks, so sync-verb
        // events raised on the worker and gossip threads reach the
        // user's tracers.
        let sinks = obs::installed();
        let shared = Arc::new(Shared {
            core,
            peers: config.peers,
            pool,
            stopped: Mutex::new(false),
            stop_signal: Condvar::new(),
            started: Instant::now(),
            metrics,
            sinks,
            waker,
            completions: Mutex::new(Vec::new()),
        });
        let mut threads = vec![shared.spawn("event", move |shared| event::run(shared, &listener))];
        if config.durability.is_some() {
            // Every 25 ms, a checkpoint when due, else the backstop fsync.
            threads.push(shared.spawn("durable", |shared| {
                while !shared.wait_stop(Duration::from_millis(25)) {
                    shared.checkpoint(|core| core.durability_tick(Instant::now()));
                }
            }));
        }
        if let Some(interval) = config.gossip_interval {
            // One pass an interval; a peer that fails waits for the next.
            threads.push(shared.spawn("gossip", move |shared| {
                while !shared.wait_stop(interval) {
                    let peers = shared.peers.iter().take_while(|_| !shared.stopping());
                    (shared.core)
                        .gossip_pass(peers, |&&peer, contact| shared.with_conn(peer, contact));
                }
            }));
        }
        Ok(Node {
            shared,
            addr,
            threads,
        })
    }

    /// The bound listen address (the actual port when configured with 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This node's site id.
    pub fn site(&self) -> SiteId {
        self.shared.core.site
    }

    /// Runs `f` with the store locked — the in-process equivalent of a
    /// verb session, for embedding and tests. Mutations made here
    /// bypass the WAL: this is the raw-store escape hatch, not the
    /// durable write path ([`Node::put`]/[`Node::delete`] are).
    pub fn with_store<R>(&self, f: impl FnOnce(&mut KvStore) -> R) -> R {
        f(&mut self.shared.core.store())
    }

    /// Writes `key` through the full verb path — on a durable node the
    /// post-state is WAL-logged before this returns — without a socket.
    ///
    /// # Errors
    ///
    /// The WAL append/fsync failure on a durable node (never errs on a
    /// memory-only one).
    pub fn put(&self, key: impl Into<String>, value: impl Into<bytes::Bytes>) -> Result<()> {
        self.shared.core.write(key.into(), Some(value.into()))
    }

    /// Deletes `key` through the full verb path, durably on a durable
    /// node (the logged post-state is the tombstone).
    ///
    /// # Errors
    ///
    /// The WAL append/fsync failure on a durable node.
    pub fn delete(&self, key: impl Into<String>) -> Result<()> {
        self.shared.core.write(key.into(), None)
    }

    /// What boot recovery found in the data dir (`None` on a
    /// memory-only node).
    pub fn replay_report(&self) -> Option<ReplayReport> {
        self.shared.core.replay
    }

    /// The site-independent replica digest (`optrep digest`).
    pub fn digest(&self) -> u64 {
        self.shared.core.store().replica_digest()
    }

    /// This node's outbound peer-connection counters, summed over all
    /// peers: the `optrep_pool_*_total` families, read as one struct.
    pub fn conn_totals(&self) -> optrep_net::PoolStats {
        self.shared.pool.totals()
    }

    /// A metrics snapshot, exactly as the `Metrics` verb serves it
    /// (point-in-time gauges refreshed first).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics_snapshot()
    }

    /// Pulls from `peer` right now, exactly as the `sync` verb does,
    /// over this node's pooled persistent connection to that peer, and
    /// counts it in the same families. Its events reach the sinks
    /// installed on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates dial, transport, and protocol errors; the store is
    /// untouched unless the pull committed.
    pub fn sync_with(&self, peer: SocketAddr) -> Result<KvSyncReport> {
        self.shared.pull_from(peer)
    }

    /// Blocks until the node is stopped.
    pub fn wait(mut self) {
        self.join_threads();
    }

    /// Stops the event, gossip and durability threads,
    /// waits for them, then settles durable state — final checkpoint
    /// when the log holds anything the snapshot does not, WAL fsync —
    /// and FINs the pooled peer connections. After this returns, a
    /// durable node's data dir holds a snapshot covering its whole log:
    /// the next boot applies no log record. Then the node is dropped,
    /// its store with it, and the heap's free pages go back to the
    /// system.
    pub fn stop(mut self) {
        *self
            .shared
            .stopped
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
        self.shared.stop_signal.notify_all();
        self.shared.waker.wake();
        self.join_threads();
        self.shared.checkpoint(NodeCore::checkpoint_now);
        self.shared.core.sync_wal();
        self.shared.pool.clear();
        drop(self);
        heap::release_free();
    }

    fn join_threads(&mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The process heap, as a stopped node leaves it.
mod heap {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }

    /// Hands the heap's free pages back to the system. glibc returns
    /// freed heap on its own only from the heap's top end, so once a
    /// node's store is freed, whether its tens of MB stay resident turns
    /// on which small blocks happen to lie above it: in a process that
    /// runs nodes one after another (the test suites, `crates/perf`) the
    /// next node's peak moved by up to 3 MB from seed to seed without
    /// this. Bound by hand, as `optrep_net::reactor` binds `poll(2)`; a
    /// no-op on another libc.
    pub(super) fn release_free() {
        // SAFETY: `malloc_trim` takes a byte count and touches only the
        // allocator's own free lists and the free pages they describe.
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The readiness-driven event thread.
///
/// One thread owns the listener and every accepted connection. Each
/// connection is a small state machine fed whole frames by a
/// [`FrameDecoder`](wire::FrameDecoder); output is buffered per
/// connection and flushed as the socket accepts it, with `POLLOUT`
/// interest only while a buffer is nonempty. The loop never blocks on
/// any single connection. Each wait is one
/// [`PollSet::wait`](optrep_net::reactor::PollSet::wait): zero-timeout
/// polls, yielding between them, for at most
/// [`SPIN_BUDGET`](optrep_net::reactor::SPIN_BUDGET) (20 µs), so a
/// client's next request or a peer's next frame is found without a
/// sleep and a wake; then a `poll(2)` with a deadline, in which an idle
/// daemon sleeps. It never sleeps to poll a condition.
mod event {
    use super::*;
    use bytes::BytesMut;
    use optrep_core::wire::{self, FrameDecoder};
    use optrep_net::reactor::{capped_poll_backoff, Interest, PollSet};
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
        /// the plan left in the contact — at the first frame of the
        /// exchange: one store lock per ask,
        /// so what is built is what will be served — none, where the
        /// plan walks no shard and its push is the contact. The
        /// `Serving` lives as long as the connection, and with it the
        /// puller's last digest vector, which its next contact may
        /// send a delta against; beside it, the keys the last plan
        /// pushed, for the contact's one endpoint sample.
        Serve(Serving, u64),
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
        shared.spawn("worker", move |shared| {
            while let Ok(job) = rx.recv() {
                shared.metrics.worker_queue_depth.dec();
                let response = handle_request(shared, job.request);
                shared.completions().push(VerbDone {
                    conn: job.conn,
                    stream: job.stream,
                    response,
                });
                shared.waker.wake();
            }
        });
        Executor { tx }
    }

    pub(super) fn run(shared: &Arc<Shared>, listener: &TcpListener) {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id: u64 = 0;
        let mut exec: Option<Executor> = None;
        let mut accept_errors: u32 = 0;
        let mut accept_retry_at: Option<Instant> = None;
        // The poll set and the connection id in each of its slots past
        // `base`, refilled each round in buffers that outlive it.
        let mut set = PollSet::new();
        let mut ids: Vec<u64> = Vec::new();

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
            conns.retain(|_, conn| !conn.dead);

            // Refill the poll set: waker, listener (unless accept errors
            // have it in backoff), then every connection.
            let now = Instant::now();
            if accept_retry_at.is_some_and(|at| now >= at) {
                accept_retry_at = None;
            }
            set.clear();
            set.push(shared.waker.fd(), Interest::READ);
            let listener_slot = accept_retry_at
                .is_none()
                .then(|| set.push(listener.as_raw_fd(), Interest::READ));
            let base = set.len();
            ids.clear();
            ids.extend(conns.keys().copied());
            for id in &ids {
                let conn = &conns[id];
                set.push(
                    conn.stream.as_raw_fd(),
                    Interest {
                        readable: !conn.busy,
                        writable: !conn.out.is_empty(),
                    },
                );
            }
            let timeout = match accept_retry_at {
                Some(at) => at.saturating_duration_since(now).min(IDLE_POLL),
                None => IDLE_POLL,
            };
            if set
                .wait_metered(Some(timeout), &shared.metrics.reactor)
                .is_err()
            {
                // poll(2) itself failed (fd exhaustion). Breathe and
                // retry; connections are still intact.
                std::thread::sleep(ACCEPT_BACKOFF_BASE);
                continue;
            }
            if shared.stopping() {
                return;
            }
            if set.readiness(0).readable {
                shared.waker.drain();
            }
            if listener_slot.is_some_and(|slot| set.readiness(slot).readable) {
                accept_all(
                    listener,
                    &mut conns,
                    &mut next_id,
                    &mut accept_errors,
                    &mut accept_retry_at,
                );
            }
            for (slot, id) in ids.iter().enumerate() {
                let readiness = set.readiness(base + slot);
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
            conns.retain(|_, conn| !conn.dead);
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

    /// Reads until a read comes back short, feeding the frame decoder.
    /// A short read has most likely emptied the socket, and `poll` is
    /// level-triggered: bytes still there fire the next round, so no
    /// request pays a trailing read that only says `EAGAIN`. Returns
    /// `false` on EOF or a socket error — frames already decoded are
    /// still processed, then the connection dies.
    fn read_into(conn: &mut Conn) -> bool {
        let mut buf = [0u8; wire::READ_CHUNK];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.decoder.push(&buf[..n]);
                    if n < buf.len() {
                        return true;
                    }
                }
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
        while !conn.busy && !conn.dead {
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
                            Intent::Peer => ConnState::Serve(Serving::default(), 0),
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
            ConnState::Serve(serving, pushed) => {
                let step = serving.on_frame(
                    frame,
                    &mut |ask| shared.core.open_contact(ask, pushed),
                    &mut conn.out,
                );
                if step.is_err() {
                    conn.dead = true;
                }
            }
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
    /// sample in the write-backlog histogram. A buffer written out is
    /// let go of, so a plan's burst is not held after it has left.
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
        conn.out = BytesMut::new();
    }
}

/// Executes one client verb, timing it into
/// `optrep_verb_service_micros`: `sync` over the pool, the rest on the
/// core.
fn handle_request(shared: &Shared, request: Request) -> Response {
    let started = Instant::now();
    let response = match request {
        Request::Sync { peer } => match peer.parse::<SocketAddr>() {
            Ok(addr) => match shared.pull_from(addr) {
                Ok(report) => Response::Synced(report),
                Err(e) => Response::Err(format!("sync failed: {e}")),
            },
            Err(_) => Response::Err(format!("bad peer address: {peer}")),
        },
        Request::Metrics => Response::Metrics(shared.metrics_snapshot()),
        request => shared.core.dispatch_request(request),
    };
    shared
        .metrics
        .verb_service_micros
        .record(started.elapsed().as_micros() as u64);
    response
}
