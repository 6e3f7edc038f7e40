//! Eventual consistency across the whole stack: clusters of sites running
//! randomized traces under every metadata scheme must converge to
//! identical replicas (§2.1), and all schemes must agree on the final
//! state for the same trace.

use optrep::core::rng::SplitMix64;
use optrep::core::{Crv, SiteId, Srv, VersionVector};
use optrep::replication::{
    Cluster, ContactOptions, ObjectId, ReplicaMeta, TokenSet, UnionReconciler,
};
use optrep::workloads::trace::{replay, Topology, TraceConfig};

fn obj() -> ObjectId {
    ObjectId::new(0)
}

/// Replays a trace, then settles, and returns the converged payload.
fn converged_payload<M: ReplicaMeta>(cfg: &TraceConfig) -> TokenSet {
    let events = cfg.generate();
    let (mut cluster, _) = replay::<M>(cfg.sites, &events).expect("replay");
    cluster.settle(obj()).expect("settle");
    assert!(cluster.is_consistent(obj()), "cluster must converge");
    cluster
        .site(SiteId::new(0))
        .replica(obj())
        .expect("site 0 hosts the object")
        .payload
        .clone()
}

#[test]
fn all_schemes_converge_to_the_same_state() {
    for seed in [1u64, 7, 42] {
        for topology in [Topology::Random, Topology::Ring, Topology::Star] {
            let cfg = TraceConfig {
                sites: 8,
                events: 600,
                update_fraction: 0.35,
                topology,
                seed,
            };
            let srv = converged_payload::<Srv>(&cfg);
            let crv = converged_payload::<Crv>(&cfg);
            let full = converged_payload::<VersionVector>(&cfg);
            assert_eq!(srv, crv, "seed {seed}, {topology:?}");
            assert_eq!(srv, full, "seed {seed}, {topology:?}");
            assert!(!srv.is_empty());
        }
    }
}

#[test]
fn payload_reflects_every_applied_update() {
    // The union payload must contain exactly one token per applied update
    // plus the initial token — nothing lost, nothing invented.
    let cfg = TraceConfig {
        sites: 6,
        events: 500,
        update_fraction: 0.4,
        seed: 99,
        ..TraceConfig::default()
    };
    let events = cfg.generate();
    let (mut cluster, stats) = replay::<Srv>(cfg.sites, &events).expect("replay");
    cluster.settle(obj()).expect("settle");
    let payload = &cluster
        .site(SiteId::new(0))
        .replica(obj())
        .expect("replica")
        .payload;
    assert_eq!(payload.len() as u64, stats.applied_updates + 1);
}

#[test]
fn convergence_under_sustained_conflict_storm() {
    // Every site updates every round before gossiping: maximal conflict
    // pressure. The cluster must still settle to a single state.
    let mut rng = SplitMix64::new(5);
    let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(6, UnionReconciler);
    cluster
        .site_mut(SiteId::new(0))
        .create_object(obj(), TokenSet::singleton("init"));
    // Give everyone a replica first.
    cluster.settle(obj()).expect("initial settle");
    for round in 0..30 {
        for i in 0..6 {
            let site = SiteId::new(i);
            cluster.site_mut(site).update(obj(), |p| {
                p.insert(format!("{site}:{round}"));
            });
        }
        cluster
            .round_with(&mut rng, &ContactOptions::direct().with_object(obj()))
            .expect("gossip");
    }
    cluster.settle(obj()).expect("final settle");
    assert!(cluster.is_consistent(obj()));
    let payload = &cluster
        .site(SiteId::new(0))
        .replica(obj())
        .expect("replica")
        .payload;
    assert_eq!(payload.len(), 1 + 6 * 30, "all updates survived the storm");
    assert!(cluster.stats().reconciliations > 0);
}

#[test]
fn brv_cluster_converges_without_conflicts() {
    // A single-writer workload never conflicts, so even BRV (manual
    // resolution only) reaches eventual consistency.
    let mut rng = SplitMix64::new(3);
    let mut cluster: Cluster<optrep::core::Brv, TokenSet, UnionReconciler> =
        Cluster::new(8, UnionReconciler);
    cluster
        .site_mut(SiteId::new(0))
        .create_object(obj(), TokenSet::singleton("init"));
    for round in 0..20 {
        cluster.site_mut(SiteId::new(0)).update(obj(), |p| {
            p.insert(format!("w{round}"));
        });
        cluster
            .round_with(&mut rng, &ContactOptions::direct().with_object(obj()))
            .expect("gossip");
    }
    cluster.settle(obj()).expect("settle");
    assert!(cluster.is_consistent(obj()));
    assert_eq!(cluster.stats().conflicts, 0);
}

#[test]
fn brv_conflicts_are_excluded_and_manually_resolvable() {
    let mut cluster: Cluster<optrep::core::Brv, TokenSet, UnionReconciler> =
        Cluster::new(2, UnionReconciler);
    let (a, b) = (SiteId::new(0), SiteId::new(1));
    cluster
        .site_mut(a)
        .create_object(obj(), TokenSet::singleton("init"));
    cluster.sync(b, a, obj()).expect("replicate");
    cluster.site_mut(a).update(obj(), |p| {
        p.insert("A");
    });
    cluster.site_mut(b).update(obj(), |p| {
        p.insert("B");
    });
    cluster.sync(b, a, obj()).expect("conflicting sync");
    assert_eq!(cluster.stats().conflicts, 1);
    assert_eq!(cluster.site(b).conflicts().len(), 1);
    // Manual resolution: b adopts a's replica wholesale.
    let winner = cluster.site(a).replica(obj()).expect("replica").clone();
    cluster.site_mut(b).resolve_adopt(obj(), &winner);
    assert!(cluster.site(b).conflicts().is_empty());
    assert!(cluster.is_consistent(obj()));
}
