//! Structured sync-event tracing and metrics: the `obs` layer.
//!
//! Every protocol run can be turned into an auditable stream of
//! [`SyncEvent`]s — session open/close, per-element COMPARE outcomes,
//! segment skips, conflict-bit hits, reconcile decisions, frame tx/rx
//! with stream ids, gossip contact begin/end, and link-metered bytes —
//! recorded through the pluggable [`Sink`] trait. Sinks are installed
//! per-thread with [`with`]; emission sites guard every event behind
//! [`enabled`] (via [`obs_emit!`](crate::obs_emit)) so an idle layer
//! costs one thread-local read. Whether a sink is installed is the one
//! switch: the layer is always compiled, and a thread with no sink
//! evaluates no event.
//!
//! The aggregation currency is [`SessionTotals`]: one value type that
//! every layer's report (`SyncReport`, `SessionReport`, `ContactReport`,
//! [`ReceiverStats`](crate::sync::ReceiverStats)) converts into,
//! absorbed by [`CounterSink`] — the ledger behind the gossip cluster's
//! statistics. Reports never depend
//! on the event stream: a pull reports the same with or without a sink
//! installed, and a daemon's metrics are recorded from those reports.

pub mod metrics;
pub use metrics::{
    bucket_bound, bucket_index, Counter, FamilySnapshot, FamilyValue, Gauge, Histogram,
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot, BUCKETS,
};

pub mod flight;
pub use flight::FlightRecorder;

mod events;
pub use events::{SessionTotals, SyncEvent};

mod sinks;
pub use sinks::{
    contact_scope, current_contact, current_session, emit, enabled, installed, session_scope,
    wants_oracle, with, with_all, ContactScope, CounterSink, CounterSnapshot, JsonlSink, RingSink,
    SessionScope, Sink,
};

mod check;
pub use check::{check_trace, CheckSink};

/// Locks `mutex`, recovering the data if a previous holder panicked.
///
/// The diagnostic sinks guard plain data (an event buffer, a writer, a
/// check table) whose invariants hold between `record` calls, so a
/// poisoned lock — e.g. a writer panicking mid-record on another test
/// thread — must not cascade `PoisonError` panics into unrelated
/// sessions sharing the sink.
pub(crate) fn lock_recovering<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests;
