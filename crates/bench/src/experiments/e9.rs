//! E9 — Chaos: convergence under frame loss.
//!
//! A 16-site cluster gossips over fault-injected links that drop whole
//! frames at a seeded per-mille rate. Aborted contacts commit nothing
//! (transactional application), are retried with capped backoff, and
//! repeat offenders are quarantined — so the cluster still converges,
//! just later and at a byte premium. This experiment measures both
//! costs: extra rounds to convergence and excess wire bytes relative to
//! the loss-free baseline.
//!
//! Every run is deterministic: the gossip schedule comes from one seeded
//! RNG and every link's fault schedule derives from the attempt's salt,
//! so the table is reproducible bit-for-bit.

use crate::table::{ratio, Table};
use optrep_core::rng::SplitMix64;
use optrep_core::SiteId;
use optrep_net::{FaultPlan, FaultStats};
use optrep_replication::object::ObjectId;
use optrep_replication::{
    Cluster, ContactOptions, RetryPolicy, RoundReport, TokenSet, UnionReconciler,
};

/// Sites in the cluster.
const SITES: u32 = 16;

/// Objects seeded across the first few sites.
const OBJECTS: u64 = 6;

/// Convergence budget in gossip rounds.
const MAX_ROUNDS: u64 = 300;

/// What one chaos run produced.
struct ChaosRun {
    rounds: u64,
    reports: Vec<RoundReport>,
    wire: FaultStats,
    committed_bytes: u64,
}

/// Converges a fresh 16-site cluster under `drop_per_mille` frame loss
/// and returns the cost accounting.
fn chaos_run(drop_per_mille: u16) -> ChaosRun {
    let mut rng = SplitMix64::new(0xE9);
    let mut cluster: Cluster<optrep_core::Srv, TokenSet, UnionReconciler> =
        Cluster::new(SITES, UnionReconciler);
    for i in 0..OBJECTS {
        cluster
            .site_mut(SiteId::new((i % 4) as u32))
            .create_object(ObjectId::new(i), TokenSet::singleton(format!("seed{i}")));
    }
    let opts = ContactOptions::mux()
        .with_fault(FaultPlan::dropping(
            0xBAD5_EED0 ^ u64::from(drop_per_mille),
            drop_per_mille,
        ))
        .with_retry(RetryPolicy::default());
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
                if cluster.site(site).replica(ObjectId::new(0)).is_some() {
                    cluster.site_mut(site).update(ObjectId::new(0), |p| {
                        p.insert(format!("{site}:{round}"));
                    });
                }
            }
        }
        let report = cluster
            .round_with(&mut rng, &opts)
            .expect("staging errors cannot occur on our own wire format");
        reports.push(report);
        if round > 1 && cluster.fully_replicated() {
            rounds = round;
            break;
        }
    }
    assert!(
        rounds > 0,
        "cluster failed to converge within {MAX_ROUNDS} rounds at {drop_per_mille}‰ drop"
    );
    let stats = cluster.stats();
    // Per-round fault accounting now rides on the report itself.
    let wire = reports.iter().fold(FaultStats::default(), |mut acc, r| {
        acc.frames_offered += r.fault.frames_offered;
        acc.frames_delivered += r.fault.frames_delivered;
        acc.frames_dropped += r.fault.frames_dropped;
        acc.frames_truncated += r.fault.frames_truncated;
        acc.bytes_delivered += r.fault.bytes_delivered;
        acc
    });
    ChaosRun {
        rounds,
        reports,
        wire,
        committed_bytes: stats.compare_bytes
            + stats.meta_bytes
            + stats.framing_bytes
            + stats.payload_bytes,
    }
}

/// Runs the experiment.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E9: convergence under frame loss, 16 sites, seeded chaos",
        &[
            "drop ‰",
            "rounds",
            "contacts",
            "aborted",
            "retries",
            "frames dropped",
            "wire bytes",
            "committed bytes",
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
            ratio(run.wire.bytes_delivered as f64, clean as f64),
        ]);
    }
    t.note(
        "aborted contacts commit nothing: every byte they moved is pure excess, repaid by a retry",
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
