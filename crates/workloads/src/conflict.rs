//! Conflict-rate controlled workloads (experiment E4).
//!
//! §4 motivates SRV with workloads where conflicts are *not* rare — e.g.
//! a heavily updated append-only log where syntactic conflicts abound.
//! [`ConflictConfig::run`] drives a star-shaped cluster in rounds. Each
//! round, a causal *chain* of `chain_len` spokes updates (spoke `k+1`
//! pulls spoke `k` before updating, so the hub later receives the whole
//! chain as one multi-element prefix), and with probability
//! `conflict_rate` the hub updates concurrently — a syntactic conflict
//! whose reconciliation tags the chain as a closed multi-element segment.
//! CRV must retransmit those tagged elements on every later encounter
//! (the `Γ` term grows with the rate); SRV skips each known segment after
//! its first element, keeping communication near `|Δ| + γ`.

use optrep_core::rng::SplitMix64;
use optrep_core::{Result, SiteId};
use optrep_replication::{
    Cluster, ClusterSnapshot, ObjectId, ReplicaMeta, TokenSet, UnionReconciler,
};

/// Parameters of the conflict workload.
#[derive(Debug, Clone, Copy)]
pub struct ConflictConfig {
    /// Number of sites. Must be ≥ 2.
    pub sites: u32,
    /// Update/sync rounds to run.
    pub rounds: usize,
    /// Probability that a round produces concurrent updates (a conflict).
    pub conflict_rate: f64,
    /// Length of the causal update chain per round — the resulting
    /// segment length (clamped to the spoke count).
    pub chain_len: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ConflictConfig {
    fn default() -> Self {
        ConflictConfig {
            sites: 8,
            rounds: 200,
            conflict_rate: 0.2,
            chain_len: 3,
            seed: 0,
        }
    }
}

/// Results of a conflict workload run.
#[derive(Debug, Clone, Copy)]
pub struct ConflictStats {
    /// Aggregated cluster counters.
    pub cluster: ClusterSnapshot,
    /// Rounds that actually produced concurrent updates.
    pub conflicting_rounds: u64,
    /// Average metadata bytes per synchronization session that ran a
    /// protocol (fast-forward or reconcile).
    pub meta_bytes_per_sync: f64,
}

impl ConflictConfig {
    /// Runs the workload under metadata scheme `M` and returns the
    /// aggregate statistics.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    ///
    /// # Panics
    ///
    /// Panics if `sites < 2`.
    pub fn run<M: ReplicaMeta>(&self) -> Result<ConflictStats> {
        assert!(self.sites >= 2, "conflict workload needs two sites");
        let object = ObjectId::new(0);
        let mut rng = SplitMix64::new(self.seed);
        let mut cluster: Cluster<M, TokenSet, UnionReconciler> =
            Cluster::new(self.sites, UnionReconciler);
        cluster
            .site_mut(SiteId::new(0))
            .create_object(object, TokenSet::singleton("init"));
        // Seed every site with a replica first.
        for i in 1..self.sites {
            cluster.sync(SiteId::new(i), SiteId::new(0), object)?;
        }
        let hub = SiteId::new(0);
        let chain_len = self.chain_len.clamp(1, self.sites - 1) as usize;
        let mut conflicting_rounds = 0;
        let mut token = 0u64;
        for _ in 0..self.rounds {
            // Pick the round's chain of distinct spokes.
            let mut spokes: Vec<u32> = (1..self.sites).collect();
            rng.shuffle(&mut spokes);
            spokes.truncate(chain_len);
            let spokes: Vec<SiteId> = spokes.into_iter().map(SiteId::new).collect();

            // Freshness step: every chain member starts from the hub's
            // state, so the chain's updates are concurrent with the hub's
            // *only* when this round injects a conflict — the knob controls
            // the conflict rate exactly.
            for &s in &spokes {
                cluster.sync(s, hub, object)?;
            }
            // Causal chain: spoke k+1 pulls spoke k before updating, so the
            // last spoke accumulates a chain_len-element prefix.
            let mut prev: Option<SiteId> = None;
            for &s in &spokes {
                if let Some(p) = prev {
                    cluster.sync(s, p, object)?;
                }
                token += 1;
                let t = format!("{s}:{token}");
                cluster.site_mut(s).update(object, |p| {
                    p.insert(t);
                });
                prev = Some(s);
            }
            let conflict = rng.chance(self.conflict_rate);
            if conflict {
                conflicting_rounds += 1;
                token += 1;
                let t = format!("{hub}:{token}");
                cluster.site_mut(hub).update(object, |p| {
                    p.insert(t);
                });
            }
            // The hub pulls the whole chain in one sync (reconciling when
            // the round conflicted), then the chain members settle.
            let last = *spokes.last().expect("chain has at least one spoke");
            cluster.sync(hub, last, object)?;
            for &s in &spokes {
                cluster.sync(s, hub, object)?;
            }
        }
        let stats = cluster.stats();
        let protocol_sessions = stats.fast_forwards + stats.reconciliations;
        Ok(ConflictStats {
            cluster: stats,
            conflicting_rounds,
            meta_bytes_per_sync: if protocol_sessions == 0 {
                0.0
            } else {
                stats.meta_bytes as f64 / protocol_sessions as f64
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrep_core::{Crv, Srv};

    #[test]
    fn zero_rate_produces_no_reconciliations() {
        let cfg = ConflictConfig {
            conflict_rate: 0.0,
            rounds: 50,
            ..ConflictConfig::default()
        };
        let stats = cfg.run::<Srv>().unwrap();
        assert_eq!(stats.cluster.reconciliations, 0);
        assert_eq!(stats.conflicting_rounds, 0);
        assert!(stats.cluster.fast_forwards > 0);
    }

    #[test]
    fn high_rate_produces_reconciliations() {
        let cfg = ConflictConfig {
            conflict_rate: 0.9,
            rounds: 50,
            ..ConflictConfig::default()
        };
        let stats = cfg.run::<Srv>().unwrap();
        assert!(stats.cluster.reconciliations > 20);
        assert!(stats.conflicting_rounds > 30);
    }

    #[test]
    fn crv_gamma_exceeds_srv_gamma_under_conflict() {
        // Multi-update bursts make reconciled segments longer than one
        // element; SRV then skips their tails while CRV retransmits them.
        // (With singleton segments the two behave identically — skipping
        // an exhausted segment saves nothing, exactly as the γ analysis
        // predicts.)
        let cfg = ConflictConfig {
            sites: 6,
            rounds: 300,
            conflict_rate: 0.6,
            chain_len: 4,
            seed: 5,
        };
        let crv = cfg.run::<Crv>().unwrap();
        let srv = cfg.run::<Srv>().unwrap();
        // Identical trace: Δ totals match, but CRV retransmits Γ elements
        // where SRV skips whole segments.
        assert!(
            crv.cluster.gamma_total > srv.cluster.gamma_total,
            "CRV Γ {} vs SRV Γ {}",
            crv.cluster.gamma_total,
            srv.cluster.gamma_total
        );
        assert!(srv.cluster.skips_total > 0, "SRV used segment skips");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ConflictConfig::default();
        let a = cfg.run::<Srv>().unwrap();
        let b = cfg.run::<Srv>().unwrap();
        assert_eq!(a.cluster, b.cluster);
    }
}
