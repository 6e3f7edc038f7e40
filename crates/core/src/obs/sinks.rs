//! Event destinations: the [`Sink`] trait, per-thread dispatch, and the
//! counter, ring and JSONL sinks.

use super::{lock_recovering, Counter, SessionTotals, SyncEvent};
use std::sync::Arc;

/// A destination for [`SyncEvent`]s.
///
/// Sinks use interior mutability: [`record`](Sink::record) takes `&self`
/// so one sink can be shared between the installing scope (which keeps
/// a handle to read results) and the dispatch layer.
pub trait Sink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &SyncEvent);

    /// `true` if this sink wants COMPARE verdicts cross-checked against
    /// the O(n) version-vector oracle. The oracle costs a full-vector
    /// comparison per session, so emission sites compute it only when a
    /// sink asks (see [`wants_oracle`]).
    fn wants_oracle(&self) -> bool {
        false
    }
}

/// Emits an event when tracing is enabled on this thread.
///
/// The event expression is only evaluated behind the
/// [`enabled`](crate::obs::enabled) check, so a thread with no sink pays
/// one thread-local read and builds no event.
#[macro_export]
macro_rules! obs_emit {
    ($ev:expr) => {
        if $crate::obs::enabled() {
            $crate::obs::emit(&$ev);
        }
    };
}

/// Lock-free counter aggregation: the ledger behind the gossip
/// cluster's statistics (`optrep_replication::ClusterSnapshot`), and
/// the witness a test or bench installs to check the event stream
/// against the reports (a daemon counts from its pulls' reports, never
/// from events).
///
/// Counters are absorbed either directly (the stats path, which needs
/// no installed sink) or as an event [`Sink`] consuming
/// [`SyncEvent::SessionClose`] / [`SyncEvent::ContactEnd`] — both
/// funnel through [`absorb`](CounterSink::absorb), so the two paths
/// cannot drift.
#[derive(Debug, Default)]
pub struct CounterSink {
    sessions: Arc<Counter>,
    compare_bytes: Arc<Counter>,
    meta_bytes: Arc<Counter>,
    payload_bytes: Arc<Counter>,
    framing_bytes: Arc<Counter>,
    meta_elements: Arc<Counter>,
    delta_total: Arc<Counter>,
    gamma_total: Arc<Counter>,
    skips_total: Arc<Counter>,
    fast_forwards: Arc<Counter>,
    reconciliations: Arc<Counter>,
    conflicts: Arc<Counter>,
    contacts: Arc<Counter>,
    round_trips: Arc<Counter>,
}

impl CounterSink {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a totals value to the counters.
    pub fn absorb(&self, t: &SessionTotals) {
        self.sessions.add(t.sessions);
        self.compare_bytes.add(t.compare_bytes);
        self.meta_bytes.add(t.meta_bytes);
        self.payload_bytes.add(t.payload_bytes);
        self.framing_bytes.add(t.framing_bytes);
        self.meta_elements.add(t.meta_elements);
        self.delta_total.add(t.delta);
        self.gamma_total.add(t.gamma);
        self.skips_total.add(t.skips);
    }

    /// Records a fast-forward session outcome.
    pub fn record_fast_forward(&self) {
        self.fast_forwards.inc();
    }

    /// Records a reconciliation outcome.
    pub fn record_reconciliation(&self) {
        self.reconciliations.inc();
    }

    /// Records a conflict excluded from reconciliation.
    pub fn record_conflict(&self) {
        self.conflicts.inc();
    }

    /// Records one completed contact and its blocking round trips.
    pub fn record_contact(&self, round_trips: u64) {
        self.contacts.inc();
        self.round_trips.add(round_trips);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            sessions: self.sessions.get(),
            compare_bytes: self.compare_bytes.get(),
            meta_bytes: self.meta_bytes.get(),
            payload_bytes: self.payload_bytes.get(),
            framing_bytes: self.framing_bytes.get(),
            meta_elements: self.meta_elements.get(),
            delta_total: self.delta_total.get(),
            gamma_total: self.gamma_total.get(),
            skips_total: self.skips_total.get(),
            fast_forwards: self.fast_forwards.get(),
            reconciliations: self.reconciliations.get(),
            conflicts: self.conflicts.get(),
            contacts: self.contacts.get(),
            round_trips: self.round_trips.get(),
        }
    }
}

/// A clone starts from the original's values and counts on its own:
/// the counters are copied, never shared.
impl Clone for CounterSink {
    fn clone(&self) -> Self {
        let s = self.snapshot();
        let sink = CounterSink::new();
        sink.absorb(&SessionTotals {
            sessions: s.sessions,
            compare_bytes: s.compare_bytes,
            meta_bytes: s.meta_bytes,
            framing_bytes: s.framing_bytes,
            payload_bytes: s.payload_bytes,
            meta_elements: s.meta_elements,
            delta: s.delta_total,
            gamma: s.gamma_total,
            skips: s.skips_total,
        });
        sink.fast_forwards.add(s.fast_forwards);
        sink.reconciliations.add(s.reconciliations);
        sink.conflicts.add(s.conflicts);
        sink.contacts.add(s.contacts);
        sink.round_trips.add(s.round_trips);
        sink
    }
}

impl Sink for CounterSink {
    fn record(&self, event: &SyncEvent) {
        match event {
            SyncEvent::SessionClose {
                totals, outcome, ..
            } => {
                self.absorb(totals);
                // The close labels are the `Outcome::label()` vocabulary;
                // sessions from layers with other outcomes simply don't
                // move the outcome counters.
                match outcome.as_ref() {
                    "fast_forwarded" => self.record_fast_forward(),
                    "reconciled" => self.record_reconciliation(),
                    "conflict_excluded" => self.record_conflict(),
                    _ => {}
                }
            }
            SyncEvent::ContactEnd {
                totals,
                round_trips,
                ..
            } => {
                self.absorb(totals);
                self.record_contact(*round_trips);
            }
            _ => {}
        }
    }
}

/// A point-in-time copy of [`CounterSink`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Synchronization sessions completed.
    pub sessions: u64,
    /// COMPARE bytes exchanged.
    pub compare_bytes: u64,
    /// Protocol metadata bytes exchanged.
    pub meta_bytes: u64,
    /// Replica payload bytes transferred.
    pub payload_bytes: u64,
    /// Connection framing overhead bytes.
    pub framing_bytes: u64,
    /// Metadata elements transferred.
    pub meta_elements: u64,
    /// Σ `|Δ|` over all sessions.
    pub delta_total: u64,
    /// Σ `|Γ|` over all sessions.
    pub gamma_total: u64,
    /// Σ γ (segment skips) over all sessions.
    pub skips_total: u64,
    /// Sessions that fast-forwarded the receiver.
    pub fast_forwards: u64,
    /// Sessions that reconciled concurrent replicas.
    pub reconciliations: u64,
    /// Conflicts recorded without reconciliation.
    pub conflicts: u64,
    /// Multiplexed contacts completed.
    pub contacts: u64,
    /// Blocking round trips across all contacts.
    pub round_trips: u64,
}

mod dispatch {
    use super::{Sink, SyncEvent};
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    thread_local! {
        static SINKS: RefCell<Vec<Arc<dyn Sink>>> = const { RefCell::new(Vec::new()) };
        static ENABLED: Cell<bool> = const { Cell::new(false) };
        static ORACLE: Cell<bool> = const { Cell::new(false) };
        static CURRENT_SESSION: Cell<u64> = const { Cell::new(0) };
        static CURRENT_CONTACT: Cell<u64> = const { Cell::new(0) };
    }

    fn refresh_flags() {
        SINKS.with(|s| {
            let sinks = s.borrow();
            ENABLED.with(|e| e.set(!sinks.is_empty()));
            ORACLE.with(|o| o.set(sinks.iter().any(|sink| sink.wants_oracle())));
        });
    }

    /// Installs `sink` on this thread for the duration of `f`.
    ///
    /// Sinks nest: every installed sink receives every event. The sink
    /// is removed when `f` returns or panics.
    pub fn with<R>(sink: Arc<dyn Sink>, f: impl FnOnce() -> R) -> R {
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                SINKS.with(|s| {
                    s.borrow_mut().pop();
                });
                refresh_flags();
            }
        }
        SINKS.with(|s| s.borrow_mut().push(sink));
        refresh_flags();
        let _guard = Guard;
        f()
    }

    /// A snapshot of the sinks installed on this thread, outermost
    /// first.
    ///
    /// The daemon captures this on the thread that starts a node and
    /// re-installs it via [`with_all`] on the threads the node spawns
    /// that run contacts — event loop, sync worker, gossip loop — so a
    /// sink such as `CheckSink` observes their events as it would the
    /// starter's. Sinks are `Send + Sync` and are shared (not cloned),
    /// so one sink instance aggregates events from every daemon thread —
    /// its own synchronization is the merge point.
    pub fn installed() -> Vec<Arc<dyn Sink>> {
        SINKS.with(|s| s.borrow().clone())
    }

    /// Installs every sink in `sinks` on this thread for the duration of
    /// `f` — on a spawned daemon thread, the mirror of a stack captured
    /// with [`installed`]. All sinks are removed when `f` returns or
    /// panics.
    pub fn with_all<R>(sinks: Vec<Arc<dyn Sink>>, f: impl FnOnce() -> R) -> R {
        struct Guard(usize);
        impl Drop for Guard {
            fn drop(&mut self) {
                SINKS.with(|s| {
                    let mut s = s.borrow_mut();
                    let keep = s.len().saturating_sub(self.0);
                    s.truncate(keep);
                });
                refresh_flags();
            }
        }
        let n = sinks.len();
        SINKS.with(|s| s.borrow_mut().extend(sinks));
        refresh_flags();
        let _guard = Guard(n);
        f()
    }

    /// `true` iff at least one sink is installed on this thread.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.with(Cell::get)
    }

    /// `true` iff an installed sink wants the O(n) COMPARE oracle.
    #[inline]
    pub fn wants_oracle() -> bool {
        ORACLE.with(Cell::get)
    }

    /// Delivers `event` to every installed sink.
    pub fn emit(event: &SyncEvent) {
        SINKS.with(|s| {
            for sink in s.borrow().iter() {
                sink.record(event);
            }
        });
    }

    /// The session id events on this thread are attributed to
    /// (0 = none).
    #[inline]
    pub fn current_session() -> u64 {
        CURRENT_SESSION.with(Cell::get)
    }

    /// The contact id events on this thread are attributed to
    /// (0 = none).
    #[inline]
    pub fn current_contact() -> u64 {
        CURRENT_CONTACT.with(Cell::get)
    }

    /// A scope attributing subsequent events to one session.
    ///
    /// Scopes are ownership-aware: opening a scope inside an existing
    /// one (e.g. the core sync driver nested under a replication-layer
    /// session) joins the outer session instead of opening a new one,
    /// and its [`close`](SessionScope::close) is a no-op — exactly one
    /// `SessionOpen`/`SessionClose` pair is emitted per session.
    #[must_use = "close the scope with SessionScope::close to emit SessionClose"]
    pub struct SessionScope {
        id: u64,
        owner: bool,
        closed: bool,
    }

    /// Opens a session scope (see [`SessionScope`]).
    pub fn session_scope(scheme: &'static str) -> SessionScope {
        if !enabled() {
            return SessionScope {
                id: 0,
                owner: false,
                closed: true,
            };
        }
        let current = CURRENT_SESSION.with(Cell::get);
        if current != 0 {
            return SessionScope {
                id: current,
                owner: false,
                closed: true,
            };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        CURRENT_SESSION.with(|c| c.set(id));
        emit(&SyncEvent::SessionOpen {
            session: id,
            scheme: scheme.into(),
        });
        SessionScope {
            id,
            owner: true,
            closed: false,
        }
    }

    impl SessionScope {
        /// The scope's session id (0 when tracing is disabled).
        pub fn id(&self) -> u64 {
            self.id
        }

        /// Emits `SessionClose` (owning scopes only) and ends the scope.
        pub fn close(mut self, outcome: &'static str, totals: super::SessionTotals) {
            if self.owner && !self.closed {
                self.closed = true;
                emit(&SyncEvent::SessionClose {
                    session: self.id,
                    outcome: outcome.into(),
                    totals,
                });
                CURRENT_SESSION.with(|c| c.set(0));
            }
        }
    }

    impl Drop for SessionScope {
        fn drop(&mut self) {
            // An abandoned owning scope (error path) must not leak its id
            // into later sessions.
            if self.owner && !self.closed {
                CURRENT_SESSION.with(|c| c.set(0));
            }
        }
    }

    /// A scope attributing subsequent events to one multiplexed contact.
    #[must_use = "close the scope with ContactScope::close to emit ContactEnd"]
    pub struct ContactScope {
        id: u64,
        open: bool,
    }

    /// Opens a contact scope, emitting `ContactBegin`.
    pub fn contact_scope(streams: u64) -> ContactScope {
        if !enabled() {
            return ContactScope { id: 0, open: false };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        CURRENT_CONTACT.with(|c| c.set(id));
        emit(&SyncEvent::ContactBegin {
            contact: id,
            streams,
        });
        ContactScope { id, open: true }
    }

    impl ContactScope {
        /// The scope's contact id (0 when tracing is disabled).
        pub fn id(&self) -> u64 {
            self.id
        }

        /// Emits `ContactEnd` and ends the scope.
        pub fn close(mut self, round_trips: u64, totals: super::SessionTotals) {
            if self.open {
                self.open = false;
                emit(&SyncEvent::ContactEnd {
                    contact: self.id,
                    round_trips,
                    totals,
                });
                CURRENT_CONTACT.with(|c| c.set(0));
            }
        }

        /// Emits `SessionAborted` (stream 0 = the whole contact) and
        /// ends the scope without a `ContactEnd`: an aborted contact has
        /// no meaningful final byte totals, so sinks treat it as
        /// discarded rather than conserved.
        pub fn abort(mut self, reason: &'static str) {
            if self.open {
                self.open = false;
                emit(&SyncEvent::SessionAborted {
                    contact: self.id,
                    stream: 0,
                    reason: reason.into(),
                });
                CURRENT_CONTACT.with(|c| c.set(0));
            }
        }
    }

    impl Drop for ContactScope {
        fn drop(&mut self) {
            if self.open {
                CURRENT_CONTACT.with(|c| c.set(0));
            }
        }
    }
}

pub use dispatch::{
    contact_scope, current_contact, current_session, emit, enabled, installed, session_scope,
    wants_oracle, with, with_all, ContactScope, SessionScope,
};

/// A bounded in-memory event log for post-mortem inspection in tests.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: std::sync::Mutex<std::collections::VecDeque<SyncEvent>>,
}

impl RingSink {
    /// Creates a ring keeping the most recent `cap` events.
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: std::sync::Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<SyncEvent> {
        lock_recovering(&self.buf).iter().cloned().collect()
    }

    /// Drops all buffered events.
    pub fn clear(&self) {
        lock_recovering(&self.buf).clear();
    }
}

impl Sink for RingSink {
    fn record(&self, event: &SyncEvent) {
        let mut buf = lock_recovering(&self.buf);
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Serializes every event as one JSON line for external tooling
/// (`crates/bench/src/bin/timeline.rs` renders per-session timelines
/// and Δ/Γ/γ/byte histograms from the output).
pub struct JsonlSink {
    out: std::sync::Mutex<Box<dyn std::io::Write + Send>>,
}

impl JsonlSink {
    /// Wraps any writer.
    pub fn new(out: Box<dyn std::io::Write + Send>) -> Self {
        JsonlSink {
            out: std::sync::Mutex::new(out),
        }
    }

    /// Creates (truncating) `path` and writes events to it buffered.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn flush(&self) -> std::io::Result<()> {
        lock_recovering(&self.out).flush()
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &SyncEvent) {
        let mut out = lock_recovering(&self.out);
        // A full sink is not worth a panic inside a protocol run.
        let _ = writeln!(out, "{}", event.to_json());
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = lock_recovering(&self.out).flush();
    }
}
