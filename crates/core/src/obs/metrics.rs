//! Daemon-native metrics: lock-free histograms, counters and gauges
//! behind a named-family registry with self-describing snapshots.
//!
//! The `obs` event stream answers "what happened, exactly, in order" —
//! perfect for offline replay, too heavy to keep forever on a live
//! daemon. This module is the always-on complement: a fixed set of
//! *named families* (counters, gauges, log2-bucket [`Histogram`]s) that
//! cost one or two relaxed atomic operations per observation and can be
//! snapshotted at any moment without stopping the world.
//!
//! * [`Histogram`] — a fixed-bucket base-2 histogram: value `v` lands
//!   in the bucket of its bit width, so 65 buckets cover all of `u64`
//!   with zero configuration and any quantile estimate is within 2× of
//!   the true order statistic. Recording is entirely lock-free
//!   (relaxed `fetch_add`s); merging and snapshotting never block
//!   writers.
//! * [`MetricsRegistry`] — named families in registration order, a
//!   monotonically increasing snapshot sequence number, and
//!   [`MetricsSnapshot`] — the value type the daemon's `Metrics` verb
//!   ships over the wire and [`MetricsSnapshot::to_prometheus`] renders
//!   in text exposition format.
//! * [`MetricsSink`] — an event [`Sink`](super::Sink) folding the
//!   existing [`SyncEvent`](super::SyncEvent) stream into families:
//!   contact latency / round trips / bytes histograms, Δ/Γ/skip
//!   counters, conflict and abort and retry counters. Its counters are
//!   a [`CounterSink`](super::CounterSink) registered under the family
//!   names, so its totals are *exactly* the counter totals — asserted
//!   against an independent witness by bench e13.
//!
//! Everything here compiles with or without the `obs` feature: only
//! event *dispatch* is feature-gated, and a daemon built without it
//! still serves its directly updated gauges (store shape, pool, reactor,
//! worker) through the `Metrics` verb.

use super::{CounterSink, Sink, SyncEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Histogram bucket count: bucket 0 holds the value 0, bucket `i`
/// (1..=64) holds values of bit width `i`, i.e. `2^(i-1) ..= 2^i - 1`.
pub const BUCKETS: usize = 65;

/// The bucket a value lands in: its bit width (0 for 0).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (the Prometheus `le` label).
///
/// # Panics
///
/// Panics if `i >= BUCKETS`.
pub fn bucket_bound(i: usize) -> u64 {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        0
    } else if i == 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonically increasing counter family.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge family: a value that goes up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero (a dec racing a set is a
    /// telemetry blip, never a wraparound to 2^64).
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free fixed-bucket base-2 histogram.
///
/// [`record`](Histogram::record) is three relaxed `fetch_add`s — no
/// locks, no allocation, no resizing — so it can sit on the daemon's
/// hottest paths (per poll wake, per contact, per dial). Quantile
/// estimates come from a [`snapshot`](Histogram::snapshot); with log2
/// buckets they are exact to within a factor of 2, which is the right
/// resolution for latency work ("p99 jumped from ~4ms to ~30ms") at a
/// fixed 65 × 8 bytes of memory.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds another histogram's observations into this one.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter().zip(&other.counts) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy (buckets, sum, count).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }

    /// Convenience: `snapshot().quantile(q)`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`BUCKETS`] entries).
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The `q`-quantile estimate (`0.0 ..= 1.0`): the upper bound of the
    /// bucket holding the rank-`⌈q·count⌉` observation, so the estimate
    /// is an upper bound within 2× of the true order statistic. Returns
    /// 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// One family's value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilyValue {
    /// A monotonically increasing counter.
    Counter(u64),
    /// A point-in-time gauge.
    Gauge(u64),
    /// A histogram snapshot.
    Histogram(HistogramSnapshot),
}

/// One named family in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// Family name (Prometheus conventions: `optrep_contacts_total`).
    pub name: String,
    /// The family's value.
    pub value: FamilyValue,
}

/// A self-describing point-in-time copy of every registered family —
/// what the daemon's `Metrics` verb returns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Snapshot sequence number: how many snapshots this registry has
    /// served, including this one. Also reported by the `status` verb so
    /// operators can tell whether anyone is scraping a daemon.
    pub seq: u64,
    /// Every family, in registration order.
    pub families: Vec<FamilySnapshot>,
}

impl MetricsSnapshot {
    /// The named family, if present.
    pub fn family(&self, name: &str) -> Option<&FamilyValue> {
        self.families
            .iter()
            .find(|f| f.name == name)
            .map(|f| &f.value)
    }

    /// The named counter's value (`None` when absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.family(name)? {
            FamilyValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The named gauge's value (`None` when absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.family(name)? {
            FamilyValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The named histogram (`None` when absent or not a histogram).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.family(name)? {
            FamilyValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4): a `# TYPE` line per family, cumulative
    /// `_bucket{le="…"}` series plus `_sum`/`_count` for histograms.
    /// Every daemon answering the `Metrics` verb is thereby scrapeable
    /// with `optrep <addr> metrics | curl --data-binary @- …` or plain
    /// file collection.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for family in &self.families {
            match &family.value {
                FamilyValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {} counter", family.name);
                    let _ = writeln!(out, "{} {v}", family.name);
                }
                FamilyValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {} gauge", family.name);
                    let _ = writeln!(out, "{} {v}", family.name);
                }
                FamilyValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {} histogram", family.name);
                    let mut cumulative = 0u64;
                    let last = h.counts.iter().rposition(|&c| c != 0).unwrap_or(0);
                    for (i, c) in h.counts.iter().enumerate().take(last + 1) {
                        cumulative += c;
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {cumulative}",
                            family.name,
                            bucket_bound(i)
                        );
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", family.name, h.count);
                    let _ = writeln!(out, "{}_sum {}", family.name, h.sum);
                    let _ = writeln!(out, "{}_count {}", family.name, h.count);
                }
            }
        }
        out
    }
}

/// A handle to one registered family.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn snapshot(&self) -> FamilyValue {
        match self {
            Metric::Counter(c) => FamilyValue::Counter(c.get()),
            Metric::Gauge(g) => FamilyValue::Gauge(g.get()),
            Metric::Histogram(h) => FamilyValue::Histogram(h.snapshot()),
        }
    }
}

/// Named metric families in registration order.
///
/// Registration is idempotent by name: asking for an existing family of
/// the same kind returns the same handle, so independent subsystems
/// (a [`MetricsSink`], the pool, the reactor) can register without
/// coordinating. Snapshots walk the list under a short lock; recording
/// into the returned handles never touches the registry again.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<(String, Metric)>>,
    seq: AtomicU64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(String, Metric)>> {
        self.families
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers (or finds) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut families = self.lock();
        for (n, m) in families.iter() {
            if n == name {
                if let Metric::Counter(c) = m {
                    return Arc::clone(c);
                }
            }
        }
        let c = Arc::new(Counter::new());
        families.push((name.to_string(), Metric::Counter(Arc::clone(&c))));
        c
    }

    /// Registers (or finds) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut families = self.lock();
        for (n, m) in families.iter() {
            if n == name {
                if let Metric::Gauge(g) = m {
                    return Arc::clone(g);
                }
            }
        }
        let g = Arc::new(Gauge::new());
        families.push((name.to_string(), Metric::Gauge(Arc::clone(&g))));
        g
    }

    /// Registers (or finds) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut families = self.lock();
        for (n, m) in families.iter() {
            if n == name {
                if let Metric::Histogram(h) = m {
                    return Arc::clone(h);
                }
            }
        }
        let h = Arc::new(Histogram::new());
        families.push((name.to_string(), Metric::Histogram(Arc::clone(&h))));
        h
    }

    /// Attaches an existing counter under `name` (for subsystems that
    /// own their instruments, like the connection pool).
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) {
        self.lock()
            .push((name.to_string(), Metric::Counter(counter)));
    }

    /// Attaches an existing gauge under `name`.
    pub fn register_gauge(&self, name: &str, gauge: Arc<Gauge>) {
        self.lock().push((name.to_string(), Metric::Gauge(gauge)));
    }

    /// Attaches an existing histogram under `name`.
    pub fn register_histogram(&self, name: &str, histogram: Arc<Histogram>) {
        self.lock()
            .push((name.to_string(), Metric::Histogram(histogram)));
    }

    /// Snapshots taken so far (the `status` verb's `metrics_seq`).
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every family, stamped with the next
    /// sequence number.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let families = self
            .lock()
            .iter()
            .map(|(name, metric)| FamilySnapshot {
                name: name.clone(),
                value: metric.snapshot(),
            })
            .collect();
        MetricsSnapshot { seq, families }
    }
}

/// The event-driven metric families: one [`Sink`] turning the
/// [`SyncEvent`](super::SyncEvent) stream into named counters and
/// histograms.
///
/// The counters *are* a [`CounterSink`] whose handles are registered
/// under the `optrep_*_total` names, and every event goes through its
/// `record` — one fold of the close-time events (`SessionClose`,
/// `ContactEnd`), so the registry's totals cannot drift from any other
/// `CounterSink`'s (bench e13 asserts the equality against an
/// independent witness). This sink adds only what that fold lacks: the
/// abort and retry counters, five histograms, and contact latency,
/// measured sink-side — `record` runs at emission time, so the
/// `ContactBegin`→`ContactEnd` wall-clock interval is the contact's
/// service time on its driving thread. An installed `MetricsSink` costs
/// nothing per element.
pub struct MetricsSink {
    counters: CounterSink,
    aborts: Arc<Counter>,
    retries: Arc<Counter>,
    contact_micros: Arc<Histogram>,
    contact_round_trips: Arc<Histogram>,
    contact_wire_bytes: Arc<Histogram>,
    session_delta: Arc<Histogram>,
    session_gamma: Arc<Histogram>,
    /// `ContactBegin` wall-clock per open contact id.
    inflight: Mutex<std::collections::HashMap<u64, Instant>>,
}

impl MetricsSink {
    /// Registers the sink's families in `registry` and returns the sink.
    pub fn new(registry: &MetricsRegistry) -> MetricsSink {
        // Registration order is exposition order; it predates the
        // shared fold, hence the locals.
        let contacts = registry.counter("optrep_contacts_total");
        let sessions = registry.counter("optrep_sessions_total");
        let aborts = registry.counter("optrep_session_aborts_total");
        let retries = registry.counter("optrep_retries_total");
        MetricsSink {
            counters: CounterSink {
                contacts,
                sessions,
                conflicts: registry.counter("optrep_conflicts_total"),
                reconciliations: registry.counter("optrep_reconciliations_total"),
                fast_forwards: registry.counter("optrep_fast_forwards_total"),
                compare_bytes: registry.counter("optrep_compare_bytes_total"),
                meta_bytes: registry.counter("optrep_meta_bytes_total"),
                framing_bytes: registry.counter("optrep_framing_bytes_total"),
                payload_bytes: registry.counter("optrep_payload_bytes_total"),
                delta_total: registry.counter("optrep_delta_total"),
                gamma_total: registry.counter("optrep_gamma_total"),
                skips_total: registry.counter("optrep_skips_total"),
                // Counted, but not families of their own: the round-trip
                // histogram's sum and the Δ + Γ counters carry them.
                meta_elements: Arc::default(),
                round_trips: Arc::default(),
            },
            aborts,
            retries,
            contact_micros: registry.histogram("optrep_contact_micros"),
            contact_round_trips: registry.histogram("optrep_contact_round_trips"),
            contact_wire_bytes: registry.histogram("optrep_contact_wire_bytes"),
            session_delta: registry.histogram("optrep_session_delta"),
            session_gamma: registry.histogram("optrep_session_gamma"),
            inflight: Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn inflight(&self) -> std::sync::MutexGuard<'_, std::collections::HashMap<u64, Instant>> {
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Sink for MetricsSink {
    fn record(&self, event: &SyncEvent) {
        self.counters.record(event);
        match event {
            SyncEvent::ContactBegin { contact, .. } => {
                self.inflight().insert(*contact, Instant::now());
            }
            SyncEvent::ContactEnd {
                contact,
                round_trips,
                totals,
            } => {
                self.contact_round_trips.record(*round_trips);
                self.contact_wire_bytes.record(totals.wire_bytes());
                if let Some(started) = self.inflight().remove(contact) {
                    self.contact_micros
                        .record(started.elapsed().as_micros() as u64);
                }
            }
            SyncEvent::SessionClose { totals, .. } => {
                self.session_delta.record(totals.delta);
                self.session_gamma.record(totals.gamma);
            }
            SyncEvent::SessionAborted {
                contact, stream, ..
            } => {
                self.aborts.inc();
                if *stream == 0 {
                    self.inflight().remove(contact);
                }
            }
            SyncEvent::Retry { .. } => {
                self.retries.inc();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every value is ≤ its bucket's bound and > the previous one's.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i));
            if i > 0 {
                assert!(v > bucket_bound(i - 1));
            }
        }
    }

    #[test]
    fn registry_is_idempotent_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x_total");
        let b = registry.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.counter("x_total"), Some(3));
        assert_eq!(registry.snapshot().seq, 2);
    }

    #[test]
    fn prometheus_rendering_has_type_lines_and_cumulative_buckets() {
        let registry = MetricsRegistry::new();
        registry.counter("optrep_c_total").add(7);
        registry.gauge("optrep_g").set(3);
        let h = registry.histogram("optrep_h");
        h.record(1);
        h.record(5);
        h.record(5);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE optrep_c_total counter"));
        assert!(text.contains("optrep_c_total 7"));
        assert!(text.contains("# TYPE optrep_g gauge"));
        assert!(text.contains("# TYPE optrep_h histogram"));
        assert!(text.contains("optrep_h_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("optrep_h_sum 11"));
        assert!(text.contains("optrep_h_count 3"));
        // Buckets are cumulative: the value-5 bucket (bit width 3,
        // le="7") includes the value-1 observation.
        assert!(text.contains("optrep_h_bucket{le=\"7\"} 3"), "{text}");
    }
}
