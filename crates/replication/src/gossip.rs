//! Anti-entropy gossip over a cluster of sites.
//!
//! [`Cluster`] hosts `n` sites and drives randomized pairwise
//! synchronization rounds until every replica of an object is consistent —
//! the eventual-consistency guarantee of §2.1. All randomness comes from a
//! caller-provided seeded RNG, so runs are reproducible; all costs are
//! aggregated into [`ClusterSnapshot`], which the benchmark harness reads.

use crate::engine::Gossip;
use crate::meta::ReplicaMeta;
use crate::object::ObjectId;
use crate::payload::ReplicaPayload;
use crate::reconcile::Reconciler;
use crate::session::{sync_replica, Outcome, SessionReport};
use crate::site::Site;
use optrep_core::obs::{CounterSink, CounterSnapshot};
use optrep_core::{Result, SiteId};

/// Point-in-time view of a cluster's aggregated costs and outcomes.
///
/// [`Cluster::stats`] hands out a *copy*: the `at_round` field records the
/// gossip round at snapshot time so a stale read (a snapshot taken before
/// more rounds ran) is visible instead of silently passing for live
/// totals. The counters themselves live in a [`CounterSink`] inside the
/// cluster — the same aggregation the event layer uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// Gossip rounds completed when the snapshot was taken.
    pub at_round: u64,
    /// The counter values at snapshot time.
    pub counters: CounterSnapshot,
}

impl std::ops::Deref for ClusterSnapshot {
    type Target = CounterSnapshot;

    fn deref(&self) -> &CounterSnapshot {
        &self.counters
    }
}

/// A cluster of sites sharing replicated objects, synchronized by gossip.
#[derive(Debug, Clone)]
pub struct Cluster<M, P, R> {
    pub(crate) sites: Vec<Site<M, P>>,
    pub(crate) reconciler: R,
    pub(crate) stats: CounterSink,
    pub(crate) gossip: Gossip,
}

impl<M, P, R> Cluster<M, P, R>
where
    M: ReplicaMeta,
    P: ReplicaPayload,
    R: Reconciler<P>,
{
    /// Creates a cluster of `n` sites (ids `0..n`).
    pub fn new(n: u32, reconciler: R) -> Self {
        Cluster {
            sites: (0..n).map(|i| Site::new(SiteId::new(i))).collect(),
            reconciler,
            stats: CounterSink::new(),
            gossip: Gossip::new(n),
        }
    }

    /// `true` while `site` is quarantined as a gossip source (its recent
    /// contacts exhausted their retries).
    pub fn quarantined(&self, site: SiteId) -> bool {
        self.gossip.quarantined(site)
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` iff the cluster has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Read access to a site.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn site(&self, id: SiteId) -> &Site<M, P> {
        &self.sites[id.index() as usize]
    }

    /// Mutable access to a site (for local updates).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn site_mut(&mut self, id: SiteId) -> &mut Site<M, P> {
        &mut self.sites[id.index() as usize]
    }

    /// A snapshot of the aggregated statistics so far, stamped with the
    /// number of gossip rounds completed.
    pub fn stats(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            at_round: self.gossip.rounds(),
            counters: self.stats.snapshot(),
        }
    }

    /// Synchronizes `dst`'s replica of `object` from `src` and records the
    /// costs.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    ///
    /// # Panics
    ///
    /// Panics if `dst == src` or either id is out of range.
    pub fn sync(&mut self, dst: SiteId, src: SiteId, object: ObjectId) -> Result<SessionReport> {
        let (dst_site, src_site) = split_pair(&mut self.sites, dst, src);
        let report = sync_replica(dst_site, src_site, object, &self.reconciler)?;
        self.stats.absorb(&report.totals());
        match report.outcome {
            Outcome::FastForwarded => self.stats.record_fast_forward(),
            Outcome::Reconciled => self.stats.record_reconciliation(),
            Outcome::ConflictExcluded => self.stats.record_conflict(),
            _ => {}
        }
        Ok(report)
    }

    /// `true` iff every site hosting `object` has an identical payload and
    /// identical metadata values (eventual consistency reached).
    pub fn is_consistent(&self, object: ObjectId) -> bool {
        self.consistent_over(std::iter::once(object))
    }

    /// The one consistency-check loop shared by
    /// [`is_consistent`](Self::is_consistent),
    /// [`is_consistent_all`](Self::is_consistent_all) and
    /// [`fully_replicated`](Self::fully_replicated): for every listed
    /// object, every hosting site agrees on payload and metadata values.
    fn consistent_over(&self, objects: impl IntoIterator<Item = ObjectId>) -> bool {
        objects.into_iter().all(|object| {
            let mut reference: Option<(&P, optrep_core::VersionVector)> = None;
            for site in &self.sites {
                if let Some(replica) = site.replica(object) {
                    let values = replica.meta.values();
                    match &reference {
                        None => reference = Some((&replica.payload, values)),
                        Some((payload, vv)) => {
                            if **payload != replica.payload || *vv != values {
                                return false;
                            }
                        }
                    }
                }
            }
            true
        })
    }

    /// Deterministically brings every replica of `object` to consistency
    /// with a two-phase star sweep: site 0 pulls from every other site
    /// (reconciling as needed), then every site pulls from site 0.
    ///
    /// Randomized gossip with reconciling metadata can *livelock*: every
    /// reconciliation records a Parker §C increment, which is itself a new
    /// concurrent update seeding the next round's conflicts. The sweep
    /// sidesteps that: after phase one, site 0 dominates everything; after
    /// phase two, everyone equals site 0.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    pub fn settle(&mut self, object: ObjectId) -> Result<()> {
        let hub = SiteId::new(0);
        // Phase 0: the hub pulls from every spoke (reconciling as needed);
        // phase 1: every spoke pulls the settled state back.
        for phase in 0..2 {
            for i in 1..self.sites.len() as u32 {
                let spoke = SiteId::new(i);
                let (dst, src) = if phase == 0 {
                    (hub, spoke)
                } else {
                    (spoke, hub)
                };
                self.sync(dst, src, object)?;
            }
        }
        Ok(())
    }

    /// Every object id hosted by at least one site, sorted.
    pub fn all_objects(&self) -> Vec<ObjectId> {
        let mut objects: Vec<ObjectId> =
            self.sites.iter().flat_map(|site| site.objects()).collect();
        objects.sort_unstable();
        objects.dedup();
        objects
    }

    /// [`is_consistent`](Self::is_consistent) over every hosted object.
    pub fn is_consistent_all(&self) -> bool {
        self.consistent_over(self.all_objects())
    }

    /// Full convergence: every site hosts every object the cluster knows
    /// about, and all replicas agree.
    /// [`is_consistent_all`](Self::is_consistent_all) alone ignores sites
    /// an object never reached, which under heavy frame loss would
    /// declare victory early.
    #[must_use]
    pub fn fully_replicated(&self) -> bool {
        let objects = self.all_objects();
        !objects.is_empty()
            && self
                .sites
                .iter()
                .all(|site| objects.iter().all(|&object| site.replica(object).is_some()))
            && self.consistent_over(objects)
    }
}

/// `dst`'s site to write and `src`'s to read, borrowed apart: the one
/// split borrow behind every pairwise sync.
///
/// # Panics
///
/// Panics if `dst == src` or either id is out of range.
fn split_pair<M, P>(
    sites: &mut [Site<M, P>],
    dst: SiteId,
    src: SiteId,
) -> (&mut Site<M, P>, &Site<M, P>) {
    assert_ne!(dst, src, "a site does not sync with itself");
    let (d, s) = (dst.index() as usize, src.index() as usize);
    if d < s {
        let (lo, hi) = sites.split_at_mut(s);
        (&mut lo[d], &hi[0])
    } else {
        let (lo, hi) = sites.split_at_mut(d);
        (&mut hi[0], &lo[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ContactOptions;
    use crate::payload::TokenSet;
    use crate::reconcile::UnionReconciler;
    use optrep_core::rng::SplitMix64;
    use optrep_core::{Crv, Srv, VersionVector};

    fn obj() -> ObjectId {
        ObjectId::new(0)
    }

    /// Five rounds of gossip with up to four sites updating concurrently
    /// after each, then random pulls until every replica agrees. At n = 6
    /// and n = 8 every seed in 0..256 agrees within 200 rounds (the
    /// slowest after 34 and 133); at n = 10, 93 of them are still in the
    /// reconciliation storm of EXPERIMENTS.md "Findings beyond the paper"
    /// 2 after 200, 42 among them:
    /// `a_reconciliation_storm_outlasts_200_rounds_and_settle_ends_it`.
    fn converged_cluster<M: ReplicaMeta>(
        n: u32,
        seed: u64,
        opts: &ContactOptions,
    ) -> Cluster<M, TokenSet, UnionReconciler> {
        let mut rng = SplitMix64::new(seed);
        let mut cluster = diverged_cluster(n, &mut rng, opts);
        let (rounds, _) = cluster.converge_with(&mut rng, opts, 200).unwrap();
        assert!(rounds.is_some(), "cluster failed to converge");
        cluster
    }

    fn diverged_cluster<M: ReplicaMeta>(
        n: u32,
        rng: &mut SplitMix64,
        opts: &ContactOptions,
    ) -> Cluster<M, TokenSet, UnionReconciler> {
        let mut cluster: Cluster<M, TokenSet, UnionReconciler> = Cluster::new(n, UnionReconciler);
        cluster
            .site_mut(SiteId::new(0))
            .create_object(obj(), TokenSet::singleton("init"));
        // Concurrent updates on several sites once replicas exist.
        for round in 0..5u32 {
            cluster.round_with(rng, opts).unwrap();
            for i in 0..n.min(4) {
                let site = SiteId::new(i);
                if cluster.site(site).replica(obj()).is_some() {
                    cluster.site_mut(site).update(obj(), |p| {
                        p.insert(format!("{site}:{round}"));
                    });
                }
            }
        }
        cluster
    }

    fn direct() -> ContactOptions {
        ContactOptions::direct().with_object(obj())
    }

    /// Seed 42 at ten sites, the schedule this module's tests use: every
    /// token is everywhere within ten rounds, and random pulls then
    /// reconcile about six times a round until round 998 — each Parker §C
    /// increment is a fresh concurrent update — until luck ends it.
    /// `settle` ends it in 2(n − 1) pulls, and it stays ended. (The same
    /// schedule between `KvStore`s is `optrep_kv::cluster`'s
    /// `the_storm_schedule_between_stores`.)
    #[test]
    fn a_reconciliation_storm_outlasts_200_rounds_and_settle_ends_it() {
        let opts = direct();
        let mut rng = SplitMix64::new(42);
        let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> =
            diverged_cluster(10, &mut rng, &opts);
        let payload = |cluster: &Cluster<Srv, TokenSet, UnionReconciler>, i| {
            cluster
                .site(SiteId::new(i))
                .replica(obj())
                .map(|r| r.payload.clone())
        };
        let (rounds, _) = cluster.converge_with(&mut rng, &opts, 10).unwrap();
        assert_eq!(rounds, None);
        assert!((1..10).all(|i| payload(&cluster, i) == payload(&cluster, 0)));
        assert!(
            payload(&cluster, 0).unwrap().len() > 10,
            "every token arrived"
        );

        let before = cluster.stats().reconciliations;
        let (rounds, _) = cluster.converge_with(&mut rng, &opts, 190).unwrap();
        assert_eq!(rounds, None, "the storm outlasts 200 rounds");
        let stormed = cluster.stats().reconciliations - before;
        assert!(
            stormed > 3 * 190,
            "{stormed} reconciliations of equal payloads"
        );

        cluster.settle(obj()).unwrap();
        assert!(cluster.is_consistent(obj()));
        let settled = cluster.stats().reconciliations;
        let (rounds, _) = cluster.converge_with(&mut rng, &opts, 10).unwrap();
        assert_eq!(rounds, Some(1));
        assert_eq!(
            cluster.stats().reconciliations,
            settled,
            "nothing re-opens it"
        );
    }

    #[test]
    fn srv_cluster_converges() {
        let cluster = converged_cluster::<Srv>(8, 42, &direct());
        assert!(cluster.is_consistent(obj()));
        assert!(
            cluster.stats().reconciliations > 0,
            "conflicts were reconciled"
        );
        // All update tokens made it everywhere.
        let payload = &cluster.site(SiteId::new(0)).replica(obj()).unwrap().payload;
        assert!(payload.len() > 10);
    }

    #[test]
    fn crv_and_full_agree_with_srv() {
        let srv = converged_cluster::<Srv>(6, 7, &direct());
        let crv = converged_cluster::<Crv>(6, 7, &direct());
        let full = converged_cluster::<VersionVector>(6, 7, &direct());
        let p = |c: &dyn Fn() -> TokenSet| c();
        let srv_payload = p(&|| {
            srv.site(SiteId::new(0))
                .replica(obj())
                .unwrap()
                .payload
                .clone()
        });
        let crv_payload = p(&|| {
            crv.site(SiteId::new(0))
                .replica(obj())
                .unwrap()
                .payload
                .clone()
        });
        let full_payload = p(&|| {
            full.site(SiteId::new(0))
                .replica(obj())
                .unwrap()
                .payload
                .clone()
        });
        // Same seed → same trace → same final payload across schemes.
        assert_eq!(srv_payload, crv_payload);
        assert_eq!(srv_payload, full_payload);
    }

    #[test]
    fn stats_accumulate() {
        let cluster = converged_cluster::<Srv>(8, 42, &direct());
        let stats = cluster.stats();
        assert!(stats.sessions > 0);
        assert!(stats.meta_bytes > 0);
        assert!(stats.payload_bytes > 0);
        assert!(stats.fast_forwards > 0);
    }

    #[test]
    #[should_panic(expected = "does not sync with itself")]
    fn self_sync_rejected() {
        let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(2, UnionReconciler);
        let _ = cluster.sync(SiteId::new(0), SiteId::new(0), obj());
    }
}
