//! E9 — Chaos: convergence under frame loss.
//!
//! A 16-store cluster (`optrep_kv::KvCluster`) gossips over
//! fault-injected links that drop whole frames at a seeded per-mille
//! rate. Every contact is the daemon's planned pull, over the pair's
//! kept connection. Aborted contacts commit nothing (transactional
//! application) and cost the pair its connection, are retried with
//! capped backoff, and repeat offenders are quarantined — so the cluster
//! still converges, just later and at a byte premium. This experiment
//! measures both costs: extra rounds to convergence and excess wire
//! bytes relative to the loss-free baseline.
//!
//! Every run is deterministic: the gossip schedule comes from one seeded
//! RNG and every link's fault schedule derives from the attempt's salt,
//! so the table is reproducible bit-for-bit.

use crate::table::{ratio, Table};
use optrep_core::obs::{self, CounterSink};
use optrep_core::rng::SplitMix64;
use optrep_core::SiteId;
use optrep_kv::KvCluster;
use optrep_net::{FaultPlan, FaultStats};
use optrep_replication::RoundReport;
use std::sync::Arc;

/// Stores in the cluster.
const SITES: u32 = 16;

/// Shards a store: one, so that the six keys share a shard and every
/// pull after a store's first walks them as streams (`SYNCS` under
/// loss). At the default sixteen they almost never share one, and every
/// pull is a bulk load or a skip.
const SHARDS: usize = 1;

/// Keys seeded across the first few stores.
const KEYS: u32 = 6;

/// Convergence budget in gossip rounds.
const MAX_ROUNDS: u64 = 300;

/// What one chaos run produced.
struct ChaosRun {
    rounds: u64,
    reports: Vec<RoundReport>,
    wire: FaultStats,
    committed_bytes: u64,
    digest_bytes: u64,
}

/// Converges a fresh 16-store cluster under `drop_per_mille` frame loss
/// and returns the cost accounting. The committed bytes are the four
/// planes of every exchange that completed, as a [`CounterSink`] folds
/// them from the contacts' events; an aborted contact completes none.
fn chaos_run(drop_per_mille: u16) -> ChaosRun {
    let witness = Arc::new(CounterSink::new());
    let mut rng = SplitMix64::new(0xE9);
    let plan = FaultPlan::dropping(0xBAD5_EED0 ^ u64::from(drop_per_mille), drop_per_mille);
    let mut cluster = KvCluster::new(SITES, SHARDS).with_fault(plan);
    for i in 0..KEYS {
        let store = cluster.store_mut(SiteId::new(i % 4));
        store.put(format!("key{i}"), format!("seed{i}"));
    }
    let mut reports: Vec<RoundReport> = Vec::new();
    let mut rounds = 0;
    for round in 1..=MAX_ROUNDS {
        // One burst of divergence, so a conflict reconciles under loss
        // too. (Sustained concurrent writing can livelock randomized
        // gossip — every reconciliation's Parker §C increment seeds the
        // next conflict — so the burst is deliberately one-shot.)
        if round == 1 {
            for i in 0..2u32 {
                let site = SiteId::new(i);
                let store = cluster.store_mut(site);
                if store.meta("key0").is_some() {
                    store.put("key0", format!("{site}:{round}"));
                }
            }
        }
        let report = obs::with(witness.clone(), || cluster.round(&mut rng))
            .expect("staging errors cannot occur on our own wire format");
        reports.push(report);
        if round > 1 && cluster.converged() {
            rounds = round;
            break;
        }
    }
    assert!(
        rounds > 0,
        "cluster failed to converge within {MAX_ROUNDS} rounds at {drop_per_mille}‰ drop"
    );
    // Per-round fault accounting rides on the report itself.
    let wire = reports.iter().fold(FaultStats::default(), |mut acc, r| {
        acc.frames_offered += r.fault.frames_offered;
        acc.frames_delivered += r.fault.frames_delivered;
        acc.frames_dropped += r.fault.frames_dropped;
        acc.frames_truncated += r.fault.frames_truncated;
        acc.bytes_delivered += r.fault.bytes_delivered;
        acc
    });
    let seen = witness.snapshot();
    let committed_bytes =
        seen.compare_bytes + seen.meta_bytes + seen.framing_bytes + seen.payload_bytes;
    ChaosRun {
        rounds,
        reports,
        wire,
        committed_bytes,
        digest_bytes: cluster.digest_bytes(),
    }
}

/// Runs the experiment.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E9: convergence under frame loss, 16 stores, seeded chaos",
        &[
            "drop ‰",
            "rounds",
            "contacts",
            "aborted",
            "retries",
            "frames dropped",
            "wire bytes",
            "committed bytes",
            "planner B / contact",
            "excess vs clean",
        ],
    );
    let mut clean_wire_bytes = None;
    for &pm in &[0u16, 10, 50, 100, 200] {
        let run = chaos_run(pm);
        let contacts: u64 = run.reports.iter().map(|r| r.contacts).sum();
        let aborted: u64 = run.reports.iter().map(|r| r.aborted).sum();
        let retries: u64 = run.reports.iter().map(|r| r.retries).sum();
        let clean = *clean_wire_bytes.get_or_insert(run.wire.bytes_delivered);
        if pm == 0 {
            assert_eq!(aborted, 0, "a clean link never aborts");
            assert_eq!(run.wire.frames_dropped, 0);
        } else if pm >= 100 {
            assert!(
                aborted > 0,
                "{pm}‰ drop over {contacts} contacts should abort at least one"
            );
        }
        t.row([
            pm.to_string(),
            run.rounds.to_string(),
            contacts.to_string(),
            aborted.to_string(),
            retries.to_string(),
            run.wire.frames_dropped.to_string(),
            run.wire.bytes_delivered.to_string(),
            run.committed_bytes.to_string(),
            format!("{:.1}", run.digest_bytes as f64 / contacts as f64),
            ratio(run.wire.bytes_delivered as f64, clean as f64),
        ]);
    }
    t.note(
        "aborted contacts commit nothing: every byte they moved is pure excess, repaid by a retry",
    );
    t.note(
        "wire bytes include the planning turn's frames; committed bytes are the object \
         exchanges' four planes, planner B / contact the committed pulls' digest_bytes over \
         contacts",
    );
    t.note("quarantine keeps repeat offenders out of the source pool, so convergence degrades gracefully");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn chaos_table_covers_all_rates() {
        let tables = super::run();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 5);
    }
}
