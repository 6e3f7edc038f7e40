//! What the benchmark runs and what it reports: the four workloads and
//! the metric tables. `BENCHMARK.json` repeats these names; a test keeps
//! the two in step.

/// Shards per store, on daemons and mirrors alike (`OPTREP_KV_SHARDS`).
pub const SHARDS: usize = 512;

/// How a workload's rounds are shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One driver: puts at the source, a pull, gets at the sink.
    Pull,
    /// Driver P does puts and pulls back to back while driver C reads the
    /// sink the whole time.
    RwUnderPull,
    /// Each round a fresh empty sink joins, is read, and is restarted.
    ColdJoin,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload is for.
    pub why: &'static str,
    pub kind: Kind,
    /// Keys in the converged store.
    pub keys: usize,
    pub value_len: usize,
    /// Puts at the source per round (D).
    pub puts: usize,
    /// Gets at the sink per round (G).
    pub gets: usize,
    /// Blocks the measured phase is cut into.
    pub blocks: usize,
    /// Rounds per measured second on the 2-core box this was calibrated
    /// on. The round count is `rounds(seconds)`, a pure function of
    /// `--seconds`: fixed, not time-boxed, so counts repeat exactly.
    pub rounds_per_s: f64,
}

impl Workload {
    /// Measured rounds for a run of `seconds`: a multiple of `blocks`.
    pub fn rounds(&self, seconds: u64) -> usize {
        let per_block = (self.rounds_per_s * seconds as f64 / self.blocks as f64).round() as usize;
        // At least two: a traced run leaves one round per block untraced.
        self.blocks * per_block.max(2)
    }

    /// The same shapes about 100× smaller, for tests and `ci.sh`.
    pub fn smoke(&self) -> Workload {
        let keys = (self.keys / 100).max(256);
        Workload {
            keys,
            puts: self.puts.min(keys / 8),
            gets: (self.gets / 50).max(16),
            rounds_per_s: 0.0,
            ..*self
        }
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sparse_pull",
        why: "100k keys, 16 dirty per pull: time is the digest/plan turn and both sides' endpoint build over the whole store (kv, planner); mux and TCP carry almost nothing.",
        kind: Kind::Pull,
        keys: 100_000,
        value_len: 32,
        puts: 16,
        gets: 2048,
        blocks: 6,
        rounds_per_s: 4.8,
    },
    Workload {
        name: "dense_pull",
        why: "20k keys x 256 B, 3072 dirty per pull (15%, all but ~1 of 512 shards): the planner skips nothing; time is mux, SYNCS, frame codec, TCP, apply and one big WAL record, beside 4k client ops.",
        kind: Kind::Pull,
        keys: 20_000,
        value_len: 256,
        puts: 3072,
        gets: 1024,
        blocks: 6,
        rounds_per_s: 1.5,
    },
    Workload {
        name: "rw_under_pull",
        why: "sparse_pull's store with a second driver reading the sink the whole time: every read queues behind the store lock and the lone worker while a pull builds its endpoint and commits.",
        kind: Kind::RwUnderPull,
        keys: 100_000,
        value_len: 32,
        puts: 16,
        gets: 0,
        blocks: 6,
        rounds_per_s: 10.0,
    },
    Workload {
        name: "cold_join",
        why: "A fresh empty durable sink bulk-loads every shard as a snapshot, is read, then restarts from its data dir: snapshot encode/apply, one huge WAL record and a fresh dial instead of incremental streams.",
        kind: Kind::ColdJoin,
        keys: 16_000,
        value_len: 32,
        puts: 0,
        gets: 8192,
        blocks: 3,
        rounds_per_s: 0.6,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees and this sandbox can hold steady.
/// Every workload reports every one, from untraced runs.
///
/// Issue 12 named seven and set the rule: a metric that cannot hold a
/// bound of at most 10 % in A/A is demoted to a per-layer metric, its
/// bound never widened. On this VM no timing can — a pinned, cache-sized
/// sort drifts by ±25 % within a minute (README, "Why the timings are
/// not gated") — so `pull_ms_p50`, `client_ops_per_s`, `restart_ms` and
/// `cpu_ms_per_round` are in [`PER_LAYER`]. `setup_s` is the exception
/// the benchmark contract makes: it must be listed, the driver holds it
/// to its bound on medians only, and it takes the largest bound.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wire_bytes_per_key", "B", Lower, 0.01),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
];

/// Every number an untraced run prints, in print order: the end-to-end
/// metrics and the four demoted timings.
pub const UNTRACED: [&str; 7] = [
    "setup_s",
    "pull_ms_p50",
    "wire_bytes_per_key",
    "client_ops_per_s",
    "restart_ms",
    "cpu_ms_per_round",
    "peak_rss_mb",
];

/// Single layers, from the traced run, and the demoted timings (which an
/// untraced run prints too; quote those). Not gated.
pub const PER_LAYER: [MetricDef; 45] = [
    layer("pull_ms_p50", "ms", Lower),
    layer("client_ops_per_s", "1/s", Higher),
    layer("restart_ms", "ms", Lower),
    layer("cpu_ms_per_round", "ms", Lower),
    layer("core.frame_codec_mb_per_s", "MB/s", Higher),
    layer("core.srv_compare_ns_p50", "ns", Lower),
    layer("replication.contact_ms_p50", "ms", Lower),
    layer("replication.plan_bytes", "B", Lower),
    layer("replication.frames_per_contact", "count", Lower),
    layer("replication.round_trips", "count", Lower),
    layer("replication.meta_bytes_per_key", "B", Lower),
    layer("replication.value_bytes_per_key", "B", Lower),
    layer("kv.digest_vector_us_p50", "us", Lower),
    layer("kv.plan_contact_ms_p50", "ms", Lower),
    layer("kv.client_endpoint_ms_p50", "ms", Lower),
    layer("kv.apply_ms_p50", "ms", Lower),
    layer("kv.keys_walked_per_changed_key", "ratio", Lower),
    layer("kv.shards_skipped_share", "ratio", Higher),
    layer("kv.put_ns_p50", "ns", Lower),
    layer("kv.get_ns_p50", "ns", Lower),
    layer("kv.snapshot_encode_mb_per_s", "MB/s", Higher),
    layer("kv.snapshot_decode_mb_per_s", "MB/s", Higher),
    layer("kv.resident_bytes_per_key", "B", Lower),
    layer("net.frame_rtt_us_p50", "us", Lower),
    layer("net.tcp_mb_per_s", "MB/s", Higher),
    layer("net.dial_ms_p50", "ms", Lower),
    layer("net.pool_dials", "count", Lower),
    layer("net.pool_reuses", "count", Higher),
    layer("server.get_us_p50", "us", Lower),
    layer("server.put_us_p50", "us", Lower),
    layer("server.verb_service_us_p50", "us", Lower),
    layer("server.reactor_wakes_per_op", "ratio", Lower),
    layer("server.client_stall_ms_p50", "ms", Lower),
    layer("server.pull_ms_p95", "ms", Lower),
    layer("server.pull_other_ms", "ms", Lower),
    layer("server.wal_append_us_p50", "us", Lower),
    layer("server.wal_append_contact_ms_p50", "ms", Lower),
    layer("server.wal_bytes_per_user_byte", "ratio", Lower),
    layer("server.wal_fsyncs_per_round", "count", Lower),
    layer("server.checkpoints", "count", Lower),
    layer("server.replay_krec_per_s", "krec/s", Higher),
    layer("server.checkpoint_ms_p50", "ms", Lower),
    layer("host.calib_ms_p50", "ms", Lower),
    layer("host.calib_spread_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(well_formed(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        // Issue 12: no bound above 10 %, except the one the contract
        // gives `setup_s`.
        for m in &END_TO_END {
            let cap = if m.name == "setup_s" { 0.25 } else { 0.10 };
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= cap), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for name in UNTRACED {
            assert!(seen.contains(name), "{name}");
        }
    }

    #[test]
    fn round_counts_are_whole_blocks_and_scale_with_seconds() {
        for w in &WORKLOADS {
            for seconds in [1, 10, 20, 60] {
                let rounds = w.rounds(seconds);
                assert!(rounds >= w.blocks && rounds % w.blocks == 0, "{}", w.name);
            }
            assert!(w.rounds(40) > w.rounds(10), "{}", w.name);
            let smoke = w.smoke();
            assert_eq!(smoke.rounds(20), 2 * w.blocks);
            assert!(smoke.keys <= (w.keys / 50).max(256) && smoke.puts <= smoke.keys / 8);
        }
    }
}
