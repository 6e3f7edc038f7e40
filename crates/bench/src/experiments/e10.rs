//! E10 — Parallel contact engine: wall-clock speedup at identical bytes.
//!
//! The engine schedules each gossip round as a maximal matching of
//! site-disjoint contacts and runs every wave on a scoped worker pool,
//! so contacts whose endpoints don't overlap proceed concurrently. With
//! a simulated per-round-trip link latency (the regime the paper's WAN
//! anti-entropy lives in), the round's wall-clock collapses from the
//! *sum* of its contacts' latencies to roughly the *maximum* per wave.
//!
//! The headline claim is not just the speedup: because the whole
//! round's pairing is drawn from the RNG up front and conflicting
//! contacts keep their schedule order across waves, the parallel run is
//! **byte-identical** to the sequential one — same rounds to converge,
//! same transferred-byte counters, same final site digests. This
//! experiment asserts all three and reports the speedup.
//!
//! Release runs use the acceptance-criteria workload (64 sites, 256
//! objects, 2 ms links); debug/test runs scale it down so the suite
//! stays fast, without changing what is asserted.

use crate::table::{ratio, Table};
use optrep_core::rng::SplitMix64;
use optrep_core::SiteId;
use optrep_replication::object::ObjectId;
use optrep_replication::{Cluster, ClusterSnapshot, ContactOptions, TokenSet, UnionReconciler};
use std::time::{Duration, Instant};

#[cfg(not(debug_assertions))]
mod params {
    pub const SITES: u32 = 64;
    pub const OBJECTS: u64 = 256;
    pub const LATENCY_US: u64 = 2_000;
}
#[cfg(debug_assertions)]
mod params {
    pub const SITES: u32 = 16;
    pub const OBJECTS: u64 = 48;
    pub const LATENCY_US: u64 = 300;
}

use params::{LATENCY_US, OBJECTS, SITES};

/// Convergence budget in gossip rounds.
const MAX_ROUNDS: u64 = 400;

/// What one engine run produced.
struct EngineRun {
    elapsed: Duration,
    rounds: u64,
    stats: ClusterSnapshot,
    digests: Vec<Vec<u8>>,
}

/// Converges a fresh cluster through the engine with `workers` and
/// returns the timing, cost counters and final per-site digests.
fn engine_run(workers: usize) -> EngineRun {
    let mut rng = SplitMix64::new(0xE10);
    let mut cluster: Cluster<optrep_core::Srv, TokenSet, UnionReconciler> =
        Cluster::new(SITES, UnionReconciler);
    for i in 0..OBJECTS {
        cluster
            .site_mut(SiteId::new((i % u64::from(SITES)) as u32))
            .create_object(ObjectId::new(i), TokenSet::singleton(format!("seed{i}")));
    }
    let opts = ContactOptions::mux()
        .with_workers(workers)
        .with_link_latency(Duration::from_micros(LATENCY_US));
    let start = Instant::now();
    let mut rounds = 0;
    for round in 1..=MAX_ROUNDS {
        cluster
            .round_with(&mut rng, &opts)
            .expect("clean links cannot fail");
        if cluster.fully_replicated() {
            rounds = round;
            break;
        }
    }
    let elapsed = start.elapsed();
    assert!(
        rounds > 0,
        "cluster failed to fully replicate within {MAX_ROUNDS} rounds"
    );
    let digests = (0..SITES)
        .map(|s| cluster.site_digest(SiteId::new(s)))
        .collect();
    EngineRun {
        elapsed,
        rounds,
        stats: cluster.stats(),
        digests,
    }
}

/// Runs the experiment.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "E10: parallel contact engine, {SITES} sites, {OBJECTS} objects, \
             {LATENCY_US} µs links"
        ),
        &[
            "workers",
            "rounds",
            "contacts",
            "wire bytes",
            "wall ms",
            "speedup",
        ],
    );
    let baseline = engine_run(1);
    for workers in [1usize, 2, 8] {
        let run = if workers == 1 {
            EngineRun {
                elapsed: baseline.elapsed,
                rounds: baseline.rounds,
                stats: baseline.stats,
                digests: baseline.digests.clone(),
            }
        } else {
            engine_run(workers)
        };
        // The engine's determinism guarantee: worker count changes
        // wall-clock only, never the trajectory.
        assert_eq!(
            run.rounds, baseline.rounds,
            "{workers}-worker run took a different number of rounds"
        );
        assert_eq!(
            run.stats, baseline.stats,
            "{workers}-worker run moved different bytes"
        );
        assert_eq!(
            run.digests, baseline.digests,
            "{workers}-worker run reached different final state"
        );
        let wire = run.stats.compare_bytes
            + run.stats.meta_bytes
            + run.stats.framing_bytes
            + run.stats.payload_bytes;
        t.row([
            workers.to_string(),
            run.rounds.to_string(),
            run.stats.contacts.to_string(),
            wire.to_string(),
            format!("{:.1}", run.elapsed.as_secs_f64() * 1e3),
            ratio(baseline.elapsed.as_secs_f64(), run.elapsed.as_secs_f64()),
        ]);
    }
    t.note("identical rounds, byte counters and site digests at every worker count (asserted)");
    t.note("speedup is wall-clock vs the 1-worker baseline; waves overlap their link latencies");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn parallel_runs_are_byte_identical() {
        // The asserts inside `run` are the test.
        let tables = super::run();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 3);
    }
}
