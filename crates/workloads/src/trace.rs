//! Randomized update/sync traces and their replay.
//!
//! A trace is a flat list of [`Event`]s over one replicated object: local
//! updates and pairwise synchronizations. [`TraceConfig`] controls the
//! site count, the update:sync ratio, and the synchronization
//! [`Topology`]; [`replay`] executes a trace against a cluster using any
//! metadata scheme and reports aggregate costs — the workhorse of
//! experiments T1, E3 and E5.

use optrep_core::rng::SplitMix64;
use optrep_core::{Result, SiteId};
use optrep_replication::{Cluster, ObjectId, ReplicaMeta, TokenSet, UnionReconciler};

/// One trace event over the (implicit) single object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A local update on `site`.
    Update {
        /// The updating site.
        site: SiteId,
    },
    /// A synchronization pulling `src`'s replica into `dst`.
    Sync {
        /// The receiving site (its replica is modified).
        dst: SiteId,
        /// The sending site.
        src: SiteId,
    },
}

/// Which pairs of sites synchronize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Any ordered pair, uniformly at random.
    #[default]
    Random,
    /// Ring: site `i` pulls from `i−1` or `i+1` (mod n).
    Ring,
    /// Star: spokes pull from and push to site 0.
    Star,
}

/// Parameters of a generated trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Number of sites (`n`). Must be ≥ 2.
    pub sites: u32,
    /// Number of events to generate.
    pub events: usize,
    /// Probability that an event is a local update (the rest are syncs).
    pub update_fraction: f64,
    /// Synchronization topology.
    pub topology: Topology,
    /// RNG seed; equal configs generate equal traces.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sites: 8,
            events: 1000,
            update_fraction: 0.5,
            topology: Topology::Random,
            seed: 0,
        }
    }
}

impl TraceConfig {
    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if `sites < 2`.
    pub fn generate(&self) -> Vec<Event> {
        assert!(self.sites >= 2, "a trace needs at least two sites");
        let mut rng = SplitMix64::new(self.seed);
        let n = self.sites as usize;
        (0..self.events)
            .map(|_| {
                if rng.chance(self.update_fraction) {
                    Event::Update {
                        site: SiteId::new(rng.below(n) as u32),
                    }
                } else {
                    let (dst, src) = match self.topology {
                        Topology::Random => {
                            let dst = rng.below(n);
                            let mut src = rng.below(n - 1);
                            if src >= dst {
                                src += 1;
                            }
                            (dst, src)
                        }
                        Topology::Ring => {
                            let dst = rng.below(n);
                            let src = if rng.chance(0.5) {
                                (dst + 1) % n
                            } else {
                                (dst + n - 1) % n
                            };
                            (dst, src)
                        }
                        Topology::Star => {
                            let spoke = rng.range(1..n);
                            if rng.chance(0.5) {
                                (0, spoke)
                            } else {
                                (spoke, 0)
                            }
                        }
                    };
                    Event::Sync {
                        dst: SiteId::new(dst as u32),
                        src: SiteId::new(src as u32),
                    }
                }
            })
            .collect()
    }
}

/// Aggregate results of a replay.
#[derive(Debug, Clone)]
pub struct ReplayStats {
    /// The cluster statistics (bytes, outcomes).
    pub cluster: optrep_replication::ClusterSnapshot,
    /// Updates skipped because the site had no replica yet.
    pub skipped_updates: u64,
    /// Updates applied.
    pub applied_updates: u64,
}

/// Replays a trace against a fresh cluster using metadata scheme `M` and
/// union reconciliation. The object is created on site 0 before the first
/// event; updates on sites that do not host a replica yet are skipped
/// (they have nothing to update).
///
/// Returns the final cluster and the aggregate statistics.
///
/// # Errors
///
/// Propagates protocol errors (none are expected for CRV/SRV/FULL;
/// BRV replays fail only if the trace produces conflicts, which BRV
/// systems cannot reconcile — those sessions end as recorded conflicts,
/// not errors).
pub fn replay<M: ReplicaMeta>(
    sites: u32,
    events: &[Event],
) -> Result<(Cluster<M, TokenSet, UnionReconciler>, ReplayStats)> {
    let object = ObjectId::new(0);
    let mut cluster: Cluster<M, TokenSet, UnionReconciler> = Cluster::new(sites, UnionReconciler);
    cluster
        .site_mut(SiteId::new(0))
        .create_object(object, TokenSet::singleton("init"));
    let mut stats = ReplayStats {
        cluster: Default::default(),
        skipped_updates: 0,
        applied_updates: 0,
    };
    let mut update_counter = 0u64;
    for event in events {
        match *event {
            Event::Update { site } => {
                if cluster.site(site).replica(object).is_some() {
                    update_counter += 1;
                    let token = format!("{site}:{update_counter}");
                    cluster.site_mut(site).update(object, |p| {
                        p.insert(token);
                    });
                    stats.applied_updates += 1;
                } else {
                    stats.skipped_updates += 1;
                }
            }
            Event::Sync { dst, src } => {
                cluster.sync(dst, src, object)?;
            }
        }
    }
    stats.cluster = cluster.stats();
    Ok((cluster, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrep_core::{Crv, Srv, VersionVector};

    #[test]
    fn generation_is_deterministic() {
        let cfg = TraceConfig::default();
        assert_eq!(cfg.generate(), cfg.generate());
        let other = TraceConfig {
            seed: 1,
            ..TraceConfig::default()
        };
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn update_fraction_respected_roughly() {
        let cfg = TraceConfig {
            events: 2000,
            update_fraction: 0.25,
            ..TraceConfig::default()
        };
        let updates = cfg
            .generate()
            .iter()
            .filter(|e| matches!(e, Event::Update { .. }))
            .count();
        assert!((300..700).contains(&updates), "got {updates}");
    }

    #[test]
    fn topologies_constrain_pairs() {
        let cfg = TraceConfig {
            sites: 6,
            events: 500,
            update_fraction: 0.0,
            topology: Topology::Star,
            ..TraceConfig::default()
        };
        for e in cfg.generate() {
            if let Event::Sync { dst, src } = e {
                assert!(dst.index() == 0 || src.index() == 0);
                assert_ne!(dst, src);
            }
        }
        let ring = TraceConfig {
            topology: Topology::Ring,
            ..cfg
        };
        for e in ring.generate() {
            if let Event::Sync { dst, src } = e {
                let d = (dst.index() as i64 - src.index() as i64).rem_euclid(6);
                assert!(d == 1 || d == 5, "ring neighbors only");
            }
        }
    }

    #[test]
    fn replay_converges_across_schemes() {
        let cfg = TraceConfig {
            sites: 6,
            events: 800,
            update_fraction: 0.3,
            seed: 99,
            ..TraceConfig::default()
        };
        let events = cfg.generate();
        let (srv, srv_stats) = replay::<Srv>(cfg.sites, &events).unwrap();
        let (crv, _) = replay::<Crv>(cfg.sites, &events).unwrap();
        let (full, _) = replay::<VersionVector>(cfg.sites, &events).unwrap();
        // Same trace ⇒ same replica values under every scheme.
        let obj = ObjectId::new(0);
        for i in 0..cfg.sites {
            let site = SiteId::new(i);
            let s = srv.site(site).replica(obj).map(|r| r.payload.clone());
            let c = crv.site(site).replica(obj).map(|r| r.payload.clone());
            let f = full.site(site).replica(obj).map(|r| r.payload.clone());
            assert_eq!(s, c, "site {site}");
            assert_eq!(s, f, "site {site}");
        }
        assert!(srv_stats.applied_updates > 0);
        assert!(srv_stats.cluster.sessions > 0);
    }
}
