//! Structured sync-event tracing and metrics: the `obs` layer.
//!
//! Every protocol run can be turned into an auditable stream of
//! [`SyncEvent`]s — session open/close, per-element COMPARE outcomes,
//! segment skips, conflict-bit hits, reconcile decisions, frame tx/rx
//! with stream ids, gossip contact begin/end, and link-metered bytes —
//! recorded through the pluggable [`Sink`] trait. Sinks are installed
//! per-thread with [`with`]; emission sites guard every event behind
//! [`enabled`] (via [`obs_emit!`](crate::obs_emit)) so an idle layer
//! costs one thread-local read, and compiling without the `obs` feature
//! replaces the dispatch functions with inline no-op stubs that the
//! optimizer deletes entirely.
//!
//! The aggregation currency is [`SessionTotals`]: one value type that
//! every layer's report (`SyncReport`, `SessionReport`, `ContactReport`,
//! [`ReceiverStats`]) converts into, absorbed by [`CounterSink`] — the
//! single source of truth behind cluster- and store-level statistics.
//! `CounterSink` and its [`CounterSnapshot`] are *not* feature-gated:
//! statistics survive `--no-default-features`; only event dispatch and
//! the diagnostic sinks ([`RingSink`], [`JsonlSink`], [`CheckSink`])
//! need the feature.

use crate::causality::Causality;
use crate::sync::ReceiverStats;
use std::sync::Arc;

pub mod metrics;
pub use metrics::{
    bucket_bound, bucket_index, Counter, FamilySnapshot, FamilyValue, Gauge, Histogram,
    HistogramSnapshot, MetricsRegistry, MetricsSink, MetricsSnapshot, BUCKETS,
};

#[cfg(feature = "obs")]
pub mod flight;
#[cfg(feature = "obs")]
pub use flight::FlightRecorder;

/// Per-session cost totals: the common currency all layer reports
/// convert into and [`CounterSink`] aggregates.
///
/// `sessions` is the number of completed sessions the value describes
/// (1 for a session report, 0 for connection-level byte totals), so
/// absorbing a totals value is a single call regardless of which layer
/// produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTotals {
    /// Completed sessions described by this value.
    pub sessions: u64,
    /// COMPARE bytes (the O(1) first-element exchange).
    pub compare_bytes: u64,
    /// Protocol metadata bytes (vector elements + control messages).
    pub meta_bytes: u64,
    /// Connection framing overhead bytes (stream id + length prefixes).
    pub framing_bytes: u64,
    /// Replica payload bytes.
    pub payload_bytes: u64,
    /// Metadata elements transferred.
    pub meta_elements: u64,
    /// `|Δ|`: elements applied (value strictly advanced).
    pub delta: u64,
    /// `|Γ|`: redundant elements received (value already known).
    pub gamma: u64,
    /// γ: segment skips requested.
    pub skips: u64,
}

impl SessionTotals {
    /// All wire bytes: compare + meta + framing + payload.
    pub fn wire_bytes(&self) -> u64 {
        self.compare_bytes + self.meta_bytes + self.framing_bytes + self.payload_bytes
    }

    /// Metadata-side wire bytes (compare + meta), the quantity tracked
    /// by `KvSyncReport::meta_bytes` (framing excluded).
    pub fn meta_wire_bytes(&self) -> u64 {
        self.compare_bytes + self.meta_bytes
    }
}

impl ReceiverStats {
    /// The receiver's counters as one absorbed session.
    pub fn totals(&self) -> SessionTotals {
        SessionTotals {
            sessions: 1,
            meta_elements: self.elements_received as u64,
            delta: self.delta as u64,
            gamma: self.gamma as u64,
            skips: self.skips as u64,
            ..SessionTotals::default()
        }
    }
}

/// One structured observation from the sync stack.
///
/// Identifiers: `session` numbers one object-level synchronization
/// (0 = unattributed, e.g. a receiver driven outside a session scope);
/// `contact` numbers one multiplexed connection contact.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncEvent {
    /// A synchronization session opened.
    SessionOpen {
        /// Session id.
        session: u64,
        /// Metadata scheme driving the session (`"BRV"`, `"SRV"`, …).
        scheme: &'static str,
        /// `true` when driven by the deterministic lockstep harness
        /// (the regime in which the SYNCS transfer bound is exact).
        lockstep: bool,
    },
    /// The COMPARE verdict for a session.
    Compare {
        /// Session id.
        session: u64,
        /// O(1) verdict produced by the rotating comparison.
        relation: Causality,
        /// The O(n) version-vector oracle's verdict, computed only when
        /// an installed sink [`wants_oracle`](Sink::wants_oracle).
        oracle: Option<Causality>,
        /// Bytes attributed to the comparison.
        cost_bytes: u64,
    },
    /// One vector element examined by a receiver.
    Element {
        /// Session id (0 when driven outside a session scope).
        session: u64,
        /// Site name `i` of the element.
        site: u32,
        /// Element value `b[i]`.
        value: u64,
        /// `true` iff the value was already known (`b[i] ≤ a[i]`) — a Γ
        /// element when redundant.
        known: bool,
        /// The element's conflict bit.
        conflict: bool,
        /// The element's trailing-segment bit.
        segment: bool,
    },
    /// A conflict bit observed on a known element (the receiver must
    /// keep listening past it).
    ConflictBit {
        /// Session id.
        session: u64,
        /// Site name of the tagged element.
        site: u32,
    },
    /// The receiver asked the sender to skip the rest of a segment.
    SegmentSkip {
        /// Session id.
        session: u64,
        /// Segment index, as counted by the receiver.
        seg: u64,
    },
    /// A reconcile decision for a concurrent pair.
    Reconcile {
        /// Session id.
        session: u64,
        /// `"merged"` when a reconciler combined the payloads,
        /// `"excluded"` when the conflict was only recorded.
        decision: &'static str,
    },
    /// A session closed with its final totals.
    SessionClose {
        /// Session id.
        session: u64,
        /// Outcome label (`"fast_forwarded"`, `"reconciled"`, …).
        outcome: &'static str,
        /// The session's cost totals.
        totals: SessionTotals,
    },
    /// One causal-graph node examined by a `SYNCG` receiver.
    GraphNode {
        /// Session id.
        session: u64,
        /// Node sequence number within its site's log.
        value: u64,
        /// `true` iff the node advanced the receiver's graph.
        applied: bool,
    },
    /// A multiplexed frame sent by a contact endpoint, with its bytes
    /// classified by `ContactReport::account`'s taxonomy.
    FrameTx {
        /// Enclosing contact id (0 outside a contact scope).
        contact: u64,
        /// Stream id (0 = connection control stream).
        stream: u64,
        /// `true` when the client endpoint sent the frame.
        client: bool,
        /// COMPARE bytes in the frame.
        compare: u64,
        /// Metadata bytes in the frame.
        meta: u64,
        /// Framing overhead bytes in the frame.
        framing: u64,
        /// Payload bytes in the frame.
        payload: u64,
    },
    /// A frame reassembled from a byte stream by `FrameDecoder`.
    FrameRx {
        /// Stream id of the decoded frame.
        stream: u64,
        /// Encoded size of the frame (header + payload).
        bytes: u64,
    },
    /// A multiplexed gossip contact began.
    ContactBegin {
        /// Contact id.
        contact: u64,
        /// Streams the client opens in its first burst.
        streams: u64,
    },
    /// A multiplexed gossip contact completed.
    ContactEnd {
        /// Contact id.
        contact: u64,
        /// Blocking round trips the contact cost.
        round_trips: u64,
        /// Connection-level byte totals (`sessions == 0`).
        totals: SessionTotals,
    },
    /// A gossip round started.
    GossipRound {
        /// 1-based round number.
        round: u64,
    },
    /// A message metered by a transport's [`LinkStats`] counters.
    ///
    /// [`LinkStats`]: https://docs.rs/optrep-net
    LinkBytes {
        /// `true` for the forward (a → b) direction.
        forward: bool,
        /// Encoded bytes of the message.
        bytes: u64,
    },
    /// Pipelining excess: payload bytes delivered after the receiver
    /// had already sent a negative response.
    LinkExcess {
        /// Excess bytes.
        bytes: u64,
    },
    /// A session (or a whole contact) aborted before a clean close: the
    /// link died, a frame was lost past the stall budget, or a peer
    /// produced an unrecoverable protocol error. Nothing staged by the
    /// aborted work is applied; the objects are re-pulled on the next
    /// contact.
    SessionAborted {
        /// Enclosing contact id (0 outside a contact scope).
        contact: u64,
        /// Stream whose session aborted; 0 when the whole contact
        /// (its control stream) went down.
        stream: u64,
        /// Stable snake_case abort reason (`"connection_lost"`,
        /// `"peer_failed"`, `"decode_error"`, `"stalled"`, …).
        reason: &'static str,
    },
    /// A gossip-layer retry of a failed contact, with its capped
    /// exponential backoff.
    Retry {
        /// Site that initiated the contact (pull destination).
        dst: u32,
        /// Site it tried to contact (pull source).
        src: u32,
        /// 1-based attempt number that just failed.
        attempt: u64,
        /// Rounds the peer is quarantined before the next attempt
        /// (0 = retried within the same round).
        backoff: u64,
    },
}

impl SyncEvent {
    /// The event's kind as a stable snake_case label (the `"ev"` field
    /// of the JSONL schema).
    pub fn kind(&self) -> &'static str {
        match self {
            SyncEvent::SessionOpen { .. } => "session_open",
            SyncEvent::Compare { .. } => "compare",
            SyncEvent::Element { .. } => "element",
            SyncEvent::ConflictBit { .. } => "conflict_bit",
            SyncEvent::SegmentSkip { .. } => "segment_skip",
            SyncEvent::Reconcile { .. } => "reconcile",
            SyncEvent::SessionClose { .. } => "session_close",
            SyncEvent::GraphNode { .. } => "graph_node",
            SyncEvent::FrameTx { .. } => "frame_tx",
            SyncEvent::FrameRx { .. } => "frame_rx",
            SyncEvent::ContactBegin { .. } => "contact_begin",
            SyncEvent::ContactEnd { .. } => "contact_end",
            SyncEvent::GossipRound { .. } => "gossip_round",
            SyncEvent::LinkBytes { .. } => "link_bytes",
            SyncEvent::LinkExcess { .. } => "link_excess",
            SyncEvent::SessionAborted { .. } => "session_aborted",
            SyncEvent::Retry { .. } => "retry",
        }
    }

    /// Serializes the event as one JSON object (one JSONL line, without
    /// the trailing newline). Keys are fixed per kind; values are
    /// numbers, booleans and identifier strings, so no escaping is
    /// needed.
    pub fn to_json(&self) -> String {
        fn relation_name(c: Causality) -> &'static str {
            match c {
                Causality::Equal => "equal",
                Causality::Before => "before",
                Causality::After => "after",
                Causality::Concurrent => "concurrent",
            }
        }
        fn totals_json(t: &SessionTotals) -> String {
            format!(
                "{{\"sessions\":{},\"compare_bytes\":{},\"meta_bytes\":{},\
                 \"framing_bytes\":{},\"payload_bytes\":{},\"meta_elements\":{},\
                 \"delta\":{},\"gamma\":{},\"skips\":{}}}",
                t.sessions,
                t.compare_bytes,
                t.meta_bytes,
                t.framing_bytes,
                t.payload_bytes,
                t.meta_elements,
                t.delta,
                t.gamma,
                t.skips
            )
        }
        let kind = self.kind();
        match self {
            SyncEvent::SessionOpen {
                session,
                scheme,
                lockstep,
            } => format!(
                "{{\"ev\":\"{kind}\",\"session\":{session},\"scheme\":\"{scheme}\",\
                 \"lockstep\":{lockstep}}}"
            ),
            SyncEvent::Compare {
                session,
                relation,
                oracle,
                cost_bytes,
            } => {
                let oracle = match oracle {
                    Some(o) => format!("\"{}\"", relation_name(*o)),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"ev\":\"{kind}\",\"session\":{session},\"relation\":\"{}\",\
                     \"oracle\":{oracle},\"cost_bytes\":{cost_bytes}}}",
                    relation_name(*relation)
                )
            }
            SyncEvent::Element {
                session,
                site,
                value,
                known,
                conflict,
                segment,
            } => format!(
                "{{\"ev\":\"{kind}\",\"session\":{session},\"site\":{site},\
                 \"value\":{value},\"known\":{known},\"conflict\":{conflict},\
                 \"segment\":{segment}}}"
            ),
            SyncEvent::ConflictBit { session, site } => {
                format!("{{\"ev\":\"{kind}\",\"session\":{session},\"site\":{site}}}")
            }
            SyncEvent::SegmentSkip { session, seg } => {
                format!("{{\"ev\":\"{kind}\",\"session\":{session},\"seg\":{seg}}}")
            }
            SyncEvent::Reconcile { session, decision } => {
                format!("{{\"ev\":\"{kind}\",\"session\":{session},\"decision\":\"{decision}\"}}")
            }
            SyncEvent::SessionClose {
                session,
                outcome,
                totals,
            } => format!(
                "{{\"ev\":\"{kind}\",\"session\":{session},\"outcome\":\"{outcome}\",\
                 \"totals\":{}}}",
                totals_json(totals)
            ),
            SyncEvent::GraphNode {
                session,
                value,
                applied,
            } => format!(
                "{{\"ev\":\"{kind}\",\"session\":{session},\"value\":{value},\
                 \"applied\":{applied}}}"
            ),
            SyncEvent::FrameTx {
                contact,
                stream,
                client,
                compare,
                meta,
                framing,
                payload,
            } => format!(
                "{{\"ev\":\"{kind}\",\"contact\":{contact},\"stream\":{stream},\
                 \"client\":{client},\"compare\":{compare},\"meta\":{meta},\
                 \"framing\":{framing},\"payload\":{payload}}}"
            ),
            SyncEvent::FrameRx { stream, bytes } => {
                format!("{{\"ev\":\"{kind}\",\"stream\":{stream},\"bytes\":{bytes}}}")
            }
            SyncEvent::ContactBegin { contact, streams } => {
                format!("{{\"ev\":\"{kind}\",\"contact\":{contact},\"streams\":{streams}}}")
            }
            SyncEvent::ContactEnd {
                contact,
                round_trips,
                totals,
            } => format!(
                "{{\"ev\":\"{kind}\",\"contact\":{contact},\"round_trips\":{round_trips},\
                 \"totals\":{}}}",
                totals_json(totals)
            ),
            SyncEvent::GossipRound { round } => {
                format!("{{\"ev\":\"{kind}\",\"round\":{round}}}")
            }
            SyncEvent::LinkBytes { forward, bytes } => {
                format!("{{\"ev\":\"{kind}\",\"forward\":{forward},\"bytes\":{bytes}}}")
            }
            SyncEvent::LinkExcess { bytes } => {
                format!("{{\"ev\":\"{kind}\",\"bytes\":{bytes}}}")
            }
            SyncEvent::SessionAborted {
                contact,
                stream,
                reason,
            } => format!(
                "{{\"ev\":\"{kind}\",\"contact\":{contact},\"stream\":{stream},\
                 \"reason\":\"{reason}\"}}"
            ),
            SyncEvent::Retry {
                dst,
                src,
                attempt,
                backoff,
            } => format!(
                "{{\"ev\":\"{kind}\",\"dst\":{dst},\"src\":{src},\
                 \"attempt\":{attempt},\"backoff\":{backoff}}}"
            ),
        }
    }
}

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
/// [`enabled`](crate::obs::enabled) check; with the `obs` feature off the
/// check is `const false` and the whole statement is dead code.
#[macro_export]
macro_rules! obs_emit {
    ($ev:expr) => {
        if $crate::obs::enabled() {
            $crate::obs::emit(&$ev);
        }
    };
}

/// Lock-free counter aggregation: the single source of truth behind
/// `ClusterStats`, `KvStore` statistics, and — through
/// [`metrics::MetricsSink`], which holds one registered under the
/// daemon's `optrep_*_total` names — the metrics registry.
///
/// Counters are absorbed either directly (the stats path, available
/// with or without the `obs` feature) or as an event [`Sink`] consuming
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
                match *outcome {
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

#[cfg(feature = "obs")]
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
    /// The parallel contact engine captures this on the scheduling
    /// thread and re-installs it on every worker via [`with_all`], so a
    /// sink such as `CheckSink` observes each worker's events exactly as
    /// it would a sequential run. Sinks are `Send + Sync` and are shared
    /// (not cloned), so one sink instance aggregates events from every
    /// worker — its own synchronization is the merge point.
    pub fn installed() -> Vec<Arc<dyn Sink>> {
        SINKS.with(|s| s.borrow().clone())
    }

    /// Installs every sink in `sinks` on this thread for the duration of
    /// `f` — the worker-thread mirror of a stack captured with
    /// [`installed`]. All sinks are removed when `f` returns or panics.
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
    pub fn session_scope(scheme: &'static str, lockstep: bool) -> SessionScope {
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
            scheme,
            lockstep,
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
                    outcome,
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
                    reason,
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

#[cfg(not(feature = "obs"))]
mod dispatch {
    //! Inline no-op stubs: with the `obs` feature off, [`enabled`] is
    //! `const false`, so every `obs_emit!` site is dead code and the
    //! scope helpers compile to nothing.

    use super::{Sink, SyncEvent};
    use std::sync::Arc;

    /// Runs `f` directly; no sink is installed without the `obs` feature.
    pub fn with<R>(_sink: Arc<dyn Sink>, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Always empty without the `obs` feature.
    pub fn installed() -> Vec<Arc<dyn Sink>> {
        Vec::new()
    }

    /// Runs `f` directly; no sinks are installed without the `obs`
    /// feature.
    pub fn with_all<R>(_sinks: Vec<Arc<dyn Sink>>, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Always `false` without the `obs` feature.
    #[inline(always)]
    pub const fn enabled() -> bool {
        false
    }

    /// Always `false` without the `obs` feature.
    #[inline(always)]
    pub const fn wants_oracle() -> bool {
        false
    }

    /// No-op without the `obs` feature.
    #[inline(always)]
    pub fn emit(_event: &SyncEvent) {}

    /// Always 0 without the `obs` feature.
    #[inline(always)]
    pub const fn current_session() -> u64 {
        0
    }

    /// Always 0 without the `obs` feature.
    #[inline(always)]
    pub const fn current_contact() -> u64 {
        0
    }

    /// Inert session scope.
    pub struct SessionScope;

    /// Returns an inert scope without the `obs` feature.
    #[inline(always)]
    pub fn session_scope(_scheme: &'static str, _lockstep: bool) -> SessionScope {
        SessionScope
    }

    impl SessionScope {
        /// Always 0 without the `obs` feature.
        #[inline(always)]
        pub fn id(&self) -> u64 {
            0
        }

        /// No-op without the `obs` feature.
        #[inline(always)]
        pub fn close(self, _outcome: &'static str, _totals: super::SessionTotals) {}
    }

    /// Inert contact scope.
    pub struct ContactScope;

    /// Returns an inert scope without the `obs` feature.
    #[inline(always)]
    pub fn contact_scope(_streams: u64) -> ContactScope {
        ContactScope
    }

    impl ContactScope {
        /// Always 0 without the `obs` feature.
        #[inline(always)]
        pub fn id(&self) -> u64 {
            0
        }

        /// No-op without the `obs` feature.
        #[inline(always)]
        pub fn close(self, _round_trips: u64, _totals: super::SessionTotals) {}

        /// No-op without the `obs` feature.
        #[inline(always)]
        pub fn abort(self, _reason: &'static str) {}
    }
}

pub use dispatch::{
    contact_scope, current_contact, current_session, emit, enabled, installed, session_scope,
    wants_oracle, with, with_all, ContactScope, SessionScope,
};

/// Locks `mutex`, recovering the data if a previous holder panicked.
///
/// The diagnostic sinks guard plain data (an event buffer, a writer, a
/// check table) whose invariants hold between `record` calls, so a
/// poisoned lock — e.g. a `CheckSink` assertion panicking mid-record on
/// another test thread — must not cascade `PoisonError` panics into
/// unrelated sessions sharing the sink.
#[cfg(feature = "obs")]
pub(crate) fn lock_recovering<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A bounded in-memory event log for post-mortem inspection in tests.
#[cfg(feature = "obs")]
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: std::sync::Mutex<std::collections::VecDeque<SyncEvent>>,
}

#[cfg(feature = "obs")]
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

#[cfg(feature = "obs")]
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
#[cfg(feature = "obs")]
pub struct JsonlSink {
    out: std::sync::Mutex<Box<dyn std::io::Write + Send>>,
}

#[cfg(feature = "obs")]
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

#[cfg(feature = "obs")]
impl Sink for JsonlSink {
    fn record(&self, event: &SyncEvent) {
        let mut out = lock_recovering(&self.out);
        // A full sink is not worth a panic inside a protocol run.
        let _ = writeln!(out, "{}", event.to_json());
    }
}

#[cfg(feature = "obs")]
impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = lock_recovering(&self.out).flush();
    }
}

/// A debug sink asserting cross-layer invariants online.
///
/// Checked invariants (violations panic with a description):
///
/// 1. **Byte conservation** — within one contact, the classified bytes
///    of every `FrameTx` must sum to the `ContactEnd` totals: the
///    per-frame attribution and the contact report are two independent
///    accountings of the same wire traffic.
/// 2. **Session counter conservation** — the `Element`/`SegmentSkip`
///    events observed during a session must reproduce the `Δ`/`Γ`/γ
///    counters reported at `SessionClose`.
/// 3. **SYNCS transfer bound (Theorem 5.1)** — for a lockstep `SRV`
///    session, every received element is either applied (`|Δ|`) or
///    redundant, and the redundancy is O(γ): at most one element per
///    skip request, one per observed segment boundary, plus the single
///    halting element. `Γ ≤ γ + boundaries + 1`.
/// 4. **COMPARE oracle agreement** — the O(1) rotating verdict must
///    match the O(n) version-vector comparison whenever the oracle is
///    attached ([`wants_oracle`](Sink::wants_oracle) makes emission
///    sites compute it).
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct CheckSink {
    state: std::sync::Mutex<CheckState>,
}

#[cfg(feature = "obs")]
#[derive(Debug, Default)]
struct CheckState {
    sessions: std::collections::HashMap<u64, SessionCheck>,
    contacts: std::collections::HashMap<u64, SessionTotals>,
    checked_sessions: u64,
    checked_contacts: u64,
    checked_compares: u64,
    aborted: u64,
}

#[cfg(feature = "obs")]
#[derive(Debug, Default)]
struct SessionCheck {
    scheme: &'static str,
    lockstep: bool,
    delta: u64,
    gamma: u64,
    skips: u64,
    boundaries: u64,
}

#[cfg(feature = "obs")]
impl CheckSink {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sessions whose close-time invariants were checked.
    pub fn checked_sessions(&self) -> u64 {
        lock_recovering(&self.state).checked_sessions
    }

    /// Number of contacts whose byte conservation was checked.
    pub fn checked_contacts(&self) -> u64 {
        lock_recovering(&self.state).checked_contacts
    }

    /// Number of COMPARE verdicts checked against the oracle.
    pub fn checked_compares(&self) -> u64 {
        lock_recovering(&self.state).checked_compares
    }

    /// Number of aborted sessions/contacts whose pending state was
    /// discarded rather than conservation-checked.
    pub fn aborted(&self) -> u64 {
        lock_recovering(&self.state).aborted
    }
}

#[cfg(feature = "obs")]
impl Sink for CheckSink {
    fn wants_oracle(&self) -> bool {
        true
    }

    fn record(&self, event: &SyncEvent) {
        let mut state = lock_recovering(&self.state);
        match event {
            SyncEvent::SessionOpen {
                session,
                scheme,
                lockstep,
            } => {
                state.sessions.insert(
                    *session,
                    SessionCheck {
                        scheme,
                        lockstep: *lockstep,
                        ..SessionCheck::default()
                    },
                );
            }
            SyncEvent::Compare {
                session,
                relation,
                oracle: Some(oracle),
                ..
            } => {
                assert_eq!(
                    relation, oracle,
                    "CheckSink: session {session}: COMPARE verdict {relation:?} \
                     disagrees with the O(n) version-vector oracle {oracle:?}"
                );
                state.checked_compares += 1;
            }
            SyncEvent::Element {
                session,
                known,
                segment,
                ..
            } => {
                if let Some(check) = state.sessions.get_mut(session) {
                    if *known {
                        check.gamma += 1;
                        if *segment {
                            check.boundaries += 1;
                        }
                    } else {
                        check.delta += 1;
                    }
                }
            }
            SyncEvent::SegmentSkip { session, .. } => {
                if let Some(check) = state.sessions.get_mut(session) {
                    check.skips += 1;
                }
            }
            SyncEvent::SessionClose {
                session,
                outcome,
                totals,
            } => {
                if let Some(check) = state.sessions.remove(session) {
                    // Invariant 2: events reproduce the reported counters.
                    // Element events are only observable when the receiver
                    // ran on this thread; a session that reports counters
                    // without any observed elements (e.g. events disabled
                    // mid-flight) has nothing to cross-check.
                    let observed = check.delta + check.gamma;
                    if observed > 0 || totals.meta_elements == 0 {
                        assert_eq!(
                            (check.delta, check.gamma, check.skips),
                            (totals.delta, totals.gamma, totals.skips),
                            "CheckSink: session {session} ({outcome}): event-derived \
                             Δ/Γ/γ disagree with reported totals {totals:?}"
                        );
                        assert_eq!(
                            totals.meta_elements,
                            totals.delta + totals.gamma,
                            "CheckSink: session {session}: element accounting identity \
                             broken (received ≠ Δ + Γ)"
                        );
                        // Invariant 3: Theorem 5.1 transfer bound for SYNCS.
                        if check.scheme == "SRV" && check.lockstep {
                            assert!(
                                totals.gamma <= totals.skips + check.boundaries + 1,
                                "CheckSink: session {session}: SYNCS redundancy \
                                 Γ={} exceeds γ={} + boundaries={} + 1",
                                totals.gamma,
                                totals.skips,
                                check.boundaries
                            );
                        }
                        state.checked_sessions += 1;
                    }
                }
            }
            SyncEvent::ContactBegin { contact, .. } => {
                state.contacts.insert(*contact, SessionTotals::default());
            }
            SyncEvent::FrameTx {
                contact,
                compare,
                meta,
                framing,
                payload,
                ..
            } => {
                if let Some(acc) = state.contacts.get_mut(contact) {
                    acc.compare_bytes += compare;
                    acc.meta_bytes += meta;
                    acc.framing_bytes += framing;
                    acc.payload_bytes += payload;
                }
            }
            SyncEvent::ContactEnd {
                contact, totals, ..
            } => {
                if let Some(acc) = state.contacts.remove(contact) {
                    // Invariant 1: frame-level attribution conserves bytes.
                    assert_eq!(
                        (
                            acc.compare_bytes,
                            acc.meta_bytes,
                            acc.framing_bytes,
                            acc.payload_bytes
                        ),
                        (
                            totals.compare_bytes,
                            totals.meta_bytes,
                            totals.framing_bytes,
                            totals.payload_bytes
                        ),
                        "CheckSink: contact {contact}: per-frame byte attribution \
                         disagrees with the contact report"
                    );
                    state.checked_contacts += 1;
                }
            }
            SyncEvent::SessionAborted {
                contact, stream, ..
            } => {
                // An aborted contact never emits `ContactEnd`, so its
                // pending frame attribution is discarded rather than
                // conservation-checked; likewise any sessions opened
                // under it never close. Dropping the pending state here
                // keeps the "begun but never ended" discipline intact
                // for the contacts that *should* close cleanly.
                if *stream == 0 {
                    state.contacts.remove(contact);
                    state.sessions.clear();
                }
                state.aborted += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sink_absorbs_and_snapshots() {
        let sink = CounterSink::new();
        sink.absorb(&SessionTotals {
            sessions: 1,
            compare_bytes: 3,
            meta_bytes: 10,
            framing_bytes: 2,
            payload_bytes: 20,
            meta_elements: 4,
            delta: 2,
            gamma: 2,
            skips: 1,
        });
        sink.record_fast_forward();
        sink.record_contact(2);
        let s = sink.snapshot();
        assert_eq!(s.sessions, 1);
        assert_eq!(s.compare_bytes, 3);
        assert_eq!(s.meta_bytes, 10);
        assert_eq!(s.framing_bytes, 2);
        assert_eq!(s.payload_bytes, 20);
        assert_eq!(s.meta_elements, 4);
        assert_eq!(s.delta_total, 2);
        assert_eq!(s.gamma_total, 2);
        assert_eq!(s.skips_total, 1);
        assert_eq!(s.fast_forwards, 1);
        assert_eq!(s.contacts, 1);
        assert_eq!(s.round_trips, 2);
        // Clone preserves every counter.
        assert_eq!(sink.clone().snapshot(), s);
    }

    #[test]
    fn receiver_stats_convert_to_totals() {
        let stats = ReceiverStats {
            delta: 3,
            gamma: 2,
            skips: 1,
            elements_received: 5,
        };
        let t = stats.totals();
        assert_eq!(t.sessions, 1);
        assert_eq!(t.delta, 3);
        assert_eq!(t.gamma, 2);
        assert_eq!(t.skips, 1);
        assert_eq!(t.meta_elements, 5);
        assert_eq!(t.wire_bytes(), 0);
    }

    #[test]
    fn event_json_is_one_object_per_kind() {
        let events = [
            SyncEvent::SessionOpen {
                session: 1,
                scheme: "SRV",
                lockstep: true,
            },
            SyncEvent::Compare {
                session: 1,
                relation: Causality::Before,
                oracle: Some(Causality::Before),
                cost_bytes: 4,
            },
            SyncEvent::Element {
                session: 1,
                site: 3,
                value: 9,
                known: false,
                conflict: true,
                segment: false,
            },
            SyncEvent::SessionClose {
                session: 1,
                outcome: "fast_forwarded",
                totals: SessionTotals::default(),
            },
            SyncEvent::LinkBytes {
                forward: true,
                bytes: 12,
            },
        ];
        for ev in &events {
            let json = ev.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(
                json.contains(&format!("\"ev\":\"{}\"", ev.kind())),
                "{json}"
            );
            assert!(!json.contains('\n'));
        }
    }

    #[cfg(feature = "obs")]
    mod enabled_dispatch {
        use super::super::*;
        use std::sync::Arc;

        #[test]
        fn with_installs_and_removes_sink() {
            assert!(!enabled());
            let ring = Arc::new(RingSink::new(16));
            with(ring.clone(), || {
                assert!(enabled());
                crate::obs_emit!(SyncEvent::GossipRound { round: 1 });
            });
            assert!(!enabled());
            assert_eq!(ring.events().len(), 1);
        }

        #[test]
        fn session_scopes_nest_without_double_counting() {
            let ring = Arc::new(RingSink::new(64));
            with(ring.clone(), || {
                let outer = session_scope("SRV", true);
                let outer_id = outer.id();
                assert_ne!(outer_id, 0);
                let inner = session_scope("SRV", true);
                assert_eq!(inner.id(), outer_id, "nested scope joins the session");
                inner.close("ignored", SessionTotals::default());
                outer.close("done", SessionTotals::default());
                // A fresh scope gets a fresh id.
                let next = session_scope("BRV", false);
                assert_ne!(next.id(), outer_id);
                next.close("done", SessionTotals::default());
            });
            let opens = ring
                .events()
                .iter()
                .filter(|e| matches!(e, SyncEvent::SessionOpen { .. }))
                .count();
            let closes = ring
                .events()
                .iter()
                .filter(|e| matches!(e, SyncEvent::SessionClose { .. }))
                .count();
            assert_eq!(opens, 2);
            assert_eq!(closes, 2);
        }

        #[test]
        fn ring_sink_is_bounded() {
            let ring = RingSink::new(3);
            for round in 0..10 {
                ring.record(&SyncEvent::GossipRound { round });
            }
            let events = ring.events();
            assert_eq!(events.len(), 3);
            assert_eq!(events[0], SyncEvent::GossipRound { round: 7 });
        }

        #[test]
        fn jsonl_sink_writes_one_line_per_event() {
            use std::sync::Mutex;
            struct Shared(Arc<Mutex<Vec<u8>>>);
            impl std::io::Write for Shared {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    self.0.lock().unwrap().extend_from_slice(buf);
                    Ok(buf.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            let buf = Arc::new(Mutex::new(Vec::new()));
            let sink = JsonlSink::new(Box::new(Shared(buf.clone())));
            sink.record(&SyncEvent::GossipRound { round: 1 });
            sink.record(&SyncEvent::LinkExcess { bytes: 9 });
            sink.flush().unwrap();
            let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
            assert_eq!(text.lines().count(), 2);
            assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        }

        #[test]
        fn check_sink_accepts_consistent_session() {
            let check = Arc::new(CheckSink::new());
            with(check.clone(), || {
                assert!(wants_oracle());
                let scope = session_scope("SRV", true);
                let id = scope.id();
                emit(&SyncEvent::Element {
                    session: id,
                    site: 0,
                    value: 2,
                    known: false,
                    conflict: false,
                    segment: false,
                });
                emit(&SyncEvent::Element {
                    session: id,
                    site: 1,
                    value: 1,
                    known: true,
                    conflict: false,
                    segment: false,
                });
                scope.close(
                    "fast_forwarded",
                    SessionTotals {
                        sessions: 1,
                        meta_elements: 2,
                        delta: 1,
                        gamma: 1,
                        ..SessionTotals::default()
                    },
                );
            });
            assert_eq!(check.checked_sessions(), 1);
        }

        #[test]
        #[should_panic(expected = "disagree with reported totals")]
        fn check_sink_rejects_miscounted_session() {
            let check = Arc::new(CheckSink::new());
            with(check, || {
                let scope = session_scope("SRV", true);
                emit(&SyncEvent::Element {
                    session: scope.id(),
                    site: 0,
                    value: 2,
                    known: false,
                    conflict: false,
                    segment: false,
                });
                scope.close(
                    "fast_forwarded",
                    SessionTotals {
                        sessions: 1,
                        meta_elements: 2,
                        delta: 2,
                        ..SessionTotals::default()
                    },
                );
            });
        }

        #[test]
        #[should_panic(expected = "COMPARE verdict")]
        fn check_sink_rejects_oracle_disagreement() {
            let check = Arc::new(CheckSink::new());
            with(check, || {
                emit(&SyncEvent::Compare {
                    session: 1,
                    relation: Causality::Before,
                    oracle: Some(Causality::Concurrent),
                    cost_bytes: 0,
                });
            });
        }

        #[test]
        fn contact_abort_skips_conservation_check() {
            let check = Arc::new(CheckSink::new());
            let ring = Arc::new(RingSink::new(16));
            with(check.clone(), || {
                with(ring.clone(), || {
                    let scope = contact_scope(2);
                    let id = scope.id();
                    // Frame attribution that would fail conservation if
                    // the contact were closed with empty totals.
                    emit(&SyncEvent::FrameTx {
                        contact: id,
                        stream: 1,
                        client: true,
                        compare: 3,
                        meta: 1,
                        framing: 2,
                        payload: 0,
                    });
                    scope.abort("connection_lost");
                    assert_eq!(current_contact(), 0, "abort clears the scope");
                });
            });
            assert_eq!(check.checked_contacts(), 0);
            assert_eq!(check.aborted(), 1);
            let aborts: Vec<_> = ring
                .events()
                .into_iter()
                .filter(|e| matches!(e, SyncEvent::SessionAborted { .. }))
                .collect();
            assert_eq!(aborts.len(), 1);
            let SyncEvent::SessionAborted {
                contact,
                stream,
                reason,
            } = &aborts[0]
            else {
                unreachable!()
            };
            assert_ne!(*contact, 0);
            assert_eq!(*stream, 0);
            assert_eq!(*reason, "connection_lost");
        }

        #[test]
        fn sinks_recover_from_poisoned_locks() {
            // CheckSink: poison its state lock by panicking inside
            // `record` (an oracle disagreement asserts under the lock).
            let check = Arc::new(CheckSink::new());
            {
                let check = check.clone();
                let _ = std::thread::spawn(move || {
                    check.record(&SyncEvent::Compare {
                        session: 1,
                        relation: Causality::Before,
                        oracle: Some(Causality::Concurrent),
                        cost_bytes: 0,
                    });
                })
                .join();
            }
            // The lock is poisoned; reads and further records still work.
            assert_eq!(check.checked_compares(), 0);
            check.record(&SyncEvent::Compare {
                session: 2,
                relation: Causality::Before,
                oracle: Some(Causality::Before),
                cost_bytes: 0,
            });
            assert_eq!(check.checked_compares(), 1);

            // JsonlSink: poison its writer lock with a writer that
            // panics exactly once.
            struct Fused(bool);
            impl std::io::Write for Fused {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    if self.0 {
                        self.0 = false;
                        panic!("writer blew up");
                    }
                    Ok(buf.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            let jsonl = Arc::new(JsonlSink::new(Box::new(Fused(true))));
            {
                let jsonl = jsonl.clone();
                let _ = std::thread::spawn(move || {
                    jsonl.record(&SyncEvent::GossipRound { round: 1 });
                })
                .join();
            }
            // Poisoned, but flush and record still go through.
            jsonl.flush().unwrap();
            jsonl.record(&SyncEvent::GossipRound { round: 2 });
        }

        #[test]
        fn check_sink_verifies_contact_byte_conservation() {
            let check = Arc::new(CheckSink::new());
            with(check.clone(), || {
                let scope = contact_scope(2);
                emit(&SyncEvent::FrameTx {
                    contact: scope.id(),
                    stream: 1,
                    client: true,
                    compare: 3,
                    meta: 0,
                    framing: 2,
                    payload: 0,
                });
                emit(&SyncEvent::FrameTx {
                    contact: scope.id(),
                    stream: 1,
                    client: false,
                    compare: 0,
                    meta: 4,
                    framing: 2,
                    payload: 8,
                });
                scope.close(
                    1,
                    SessionTotals {
                        compare_bytes: 3,
                        meta_bytes: 4,
                        framing_bytes: 4,
                        payload_bytes: 8,
                        ..SessionTotals::default()
                    },
                );
            });
            assert_eq!(check.checked_contacts(), 1);
        }
    }
}
