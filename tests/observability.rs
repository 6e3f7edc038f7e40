//! Cross-layer acceptance tests for the `obs` tracing layer: the event
//! stream is a second, independent accounting of the same execution, so
//! it must agree byte-for-byte with the transport's own counters and
//! survive the online invariant checker under arbitrary workloads.
//!
//! * Seeded property: for a random multi-object mux pull, the `FrameTx` events
//!   (classified per frame by direction) must account for exactly the
//!   `LinkStats` byte counters of the same contact replayed over the
//!   simulated link: client frames equal `bytes_ab`, server frames
//!   lower-bound `bytes_ba` (the timed regime only adds overrun), and
//!   the `LinkBytes`/`LinkExcess` events reproduce the link's counters.
//! * `CheckSink` (byte conservation, `meta_elements == |Δ|+|Γ|`, the
//!   Theorem 5.1 redundancy bound, COMPARE-vs-oracle agreement) holds
//!   across the sync drivers, random legal traces, and gossip
//!   convergence.

use std::sync::Arc;

use bytes::Bytes;
use optrep::core::obs::{self, CheckSink, RingSink, SyncEvent};
use optrep::core::rng::{cases, SplitMix64};
use optrep::core::sync::drive::{sync_brv, sync_crv, sync_srv};
use optrep::core::{RotatingVector, SiteId, Srv};
use optrep::kv::KvCluster;
use optrep::net::sim::{SimConfig, SimLink};
use optrep::replication::mux::{run_contact, BatchPullClient, BatchPullServer};
use optrep::replication::payload::TokenSet;
use optrep::replication::reconcile::UnionReconciler;
use optrep::replication::{Cluster, ContactOptions, ObjectId};

/// Client-side `(name, vector)` and server-side `(name, vector, payload)`
/// object sets built from one random spec per object:
/// `(shared updates, server is dirty, payload length)`.
#[allow(clippy::type_complexity)]
fn scenario(spec: &[(u8, bool, u8)]) -> (Vec<(Bytes, Srv)>, Vec<(Bytes, Srv, Bytes)>) {
    let mut client = Vec::with_capacity(spec.len());
    let mut server = Vec::with_capacity(spec.len());
    for (i, &(updates, dirty, payload_len)) in spec.iter().enumerate() {
        let name = Bytes::from(format!("obj{i:04}").into_bytes());
        let mut v = Srv::new();
        for u in 0..updates {
            v.record_update(SiteId::new(u32::from(u) % 5));
        }
        client.push((name.clone(), v.clone()));
        let mut sv = v;
        if dirty {
            sv.record_update(SiteId::new(9));
        }
        let payload = Bytes::from(vec![b'x'; payload_len as usize]);
        server.push((name, sv, payload));
    }
    (client, server)
}

/// Satellite: per-contact event bytes equal the link's byte counters
/// in both directions, for random object sets.
#[test]
fn mux_frame_events_conserve_link_bytes() {
    cases(48, |_, rng| {
        let spec: Vec<(u8, bool, u8)> = (0..rng.range(1..24))
            .map(|_| (rng.below(6) as u8, rng.chance(0.5), rng.below(48) as u8))
            .collect();
        // Lockstep run under RingSink (event capture) + CheckSink
        // (online invariants, including per-contact byte conservation).
        let ring = Arc::new(RingSink::new(1 << 16));
        let check = Arc::new(CheckSink::new());
        let (c, s) = scenario(&spec);
        let report = obs::with(check.clone(), || {
            obs::with(ring.clone(), || {
                run_contact(&mut BatchPullClient::new(c), &mut BatchPullServer::new(s))
            })
        })
        .expect("lockstep contact");
        check.finish().expect("the contact ends");
        assert!(check.checked_contacts() >= 1);

        let (mut client_bytes, mut server_bytes) = (0u64, 0u64);
        for ev in ring.events() {
            if let SyncEvent::FrameTx {
                client,
                compare,
                meta,
                framing,
                payload,
                ..
            } = ev
            {
                let total = compare + meta + framing + payload;
                if client {
                    client_bytes += total
                } else {
                    server_bytes += total
                }
            }
        }
        assert_eq!(client_bytes + server_bytes, report.total_bytes);

        // The same contact replayed over the simulated link, capturing
        // the link-level events. The timed regime lets the server
        // stream ahead of the client's cancellations, so its wire bytes
        // exceed the lockstep accounting by exactly the β overrun —
        // the paper's decomposition of timed cost into optimal + excess.
        let ring = Arc::new(RingSink::new(1 << 16));
        let (c, s) = scenario(&spec);
        let sim = obs::with(ring.clone(), || {
            let mut link = SimLink::new(
                BatchPullClient::new(c),
                BatchPullServer::new(s),
                SimConfig::symmetric(1_000_000, None),
            );
            link.run()
        })
        .expect("contact over sim link");
        assert_eq!(
            client_bytes, sim.stats.bytes_ab as u64,
            "client direction is request-driven: identical in both regimes"
        );
        // The timed server direction can only *add* overrun (payload β
        // plus speculative metadata) on top of the lockstep optimum.
        let timed_ba = sim.stats.bytes_ba as u64;
        assert!(
            server_bytes <= timed_ba,
            "timed server bytes {timed_ba} below the lockstep accounting {server_bytes}"
        );

        // And the `LinkBytes`/`LinkExcess` events must reproduce the
        // link's own counters exactly.
        let (mut ab, mut ba, mut excess) = (0u64, 0u64, 0u64);
        for ev in ring.events() {
            match ev {
                SyncEvent::LinkBytes {
                    forward: true,
                    bytes,
                } => ab += bytes,
                SyncEvent::LinkBytes {
                    forward: false,
                    bytes,
                } => ba += bytes,
                SyncEvent::LinkExcess { bytes } => excess += bytes,
                _ => {}
            }
        }
        assert_eq!(
            ab, sim.stats.bytes_ab as u64,
            "LinkBytes events vs bytes_ab"
        );
        assert_eq!(
            ba, sim.stats.bytes_ba as u64,
            "LinkBytes events vs bytes_ba"
        );
        assert_eq!(excess, sim.excess_bytes as u64, "LinkExcess events vs β");
    });
}

/// `CheckSink` holds over random legal traces of the three rotating
/// schemes, including concurrent (reconciling) syncs with the
/// Parker §C increment.
#[test]
fn check_sink_holds_over_random_traces() {
    cases(48, |_, rng| {
        let ops: Vec<(usize, usize, bool)> = (0..rng.range(1..32))
            .map(|_| (rng.below(4), rng.below(4), rng.chance(0.5)))
            .collect();
        let check = Arc::new(CheckSink::new());
        let mut expected_sessions = 0u64;
        obs::with(check.clone(), || -> Result<(), optrep::core::Error> {
            let mut brv = vec![optrep::core::Brv::new(); 4];
            let mut crv = vec![optrep::core::Crv::new(); 4];
            let mut srv = vec![Srv::new(); 4];
            for &(a, mut b, update) in &ops {
                if update {
                    brv[a].record_update(SiteId::new(a as u32));
                    crv[a].record_update(SiteId::new(a as u32));
                    srv[a].record_update(SiteId::new(a as u32));
                    continue;
                }
                if b == a {
                    b = (b + 1) % 4;
                }
                // BRV systems *exclude* conflicts: the driver refuses
                // concurrent vectors, so only sync when causally related.
                if !brv[a].compare(&brv[b]).is_concurrent() {
                    let src = brv[b].clone();
                    sync_brv(&mut brv[a], &src)?;
                    expected_sessions += 1;
                }
                let src = crv[b].clone();
                let concurrent = sync_crv(&mut crv[a], &src)?
                    .relation
                    .is_some_and(|r| r.is_concurrent());
                let src = srv[b].clone();
                sync_srv(&mut srv[a], &src)?;
                expected_sessions += 2;
                if concurrent {
                    // Parker §C: reconciliation ends with a local update.
                    crv[a].record_update(SiteId::new(a as u32));
                    srv[a].record_update(SiteId::new(a as u32));
                }
            }
            Ok(())
        })
        .expect("trace syncs");
        check.finish().expect("every session closes");
        // Every close-time invariant and every COMPARE-vs-oracle verdict
        // was checked.
        assert_eq!(check.checked_sessions(), expected_sessions);
        assert_eq!(check.checked_compares(), expected_sessions);
    });
}

/// `CheckSink` holds across full gossip convergence (per-object sessions,
/// and the planned multiplexed pulls of a cluster of stores), where
/// sessions nest inside replication scopes and reconciliation paths
/// fire.
#[test]
fn check_sink_holds_over_gossip_convergence() {
    let obj = ObjectId::new(7);
    let check = Arc::new(CheckSink::new());
    obs::with(check.clone(), || {
        let mut rng = SplitMix64::new(42);
        let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(6, UnionReconciler);
        cluster
            .site_mut(SiteId::new(0))
            .create_object(obj, TokenSet::singleton("init"));
        for round in 0..4u32 {
            cluster
                .round_with(&mut rng, &ContactOptions::direct().with_object(obj))
                .expect("gossip round");
            for i in 0..4u32 {
                let site = SiteId::new(i);
                if cluster.site(site).replica(obj).is_some() {
                    cluster.site_mut(site).update(obj, |p| {
                        p.insert(format!("{site}:{round}"));
                    });
                }
            }
        }
        let (rounds, _) = cluster
            .converge_with(&mut rng, &ContactOptions::direct().with_object(obj), 200)
            .expect("gossip");
        // Six sites leave the reconciliation storm (EXPERIMENTS.md finding
        // 2) inside 200 rounds on every seed in 0..256; were this seed one
        // that does not, the sweep is what ends it.
        if rounds.is_none() {
            cluster.settle(obj).expect("settle");
        }
        assert!(cluster.stats().sessions > 0);
        // The same writes between stores, whose contacts are mux pulls.
        let mut stores = KvCluster::new(6, 4);
        for round in 0..4u32 {
            for i in 0..4u32 {
                let site = SiteId::new(i);
                stores.store_mut(site).put("obj", format!("{site}:{round}"));
            }
            stores.round(&mut rng).expect("gossip round");
        }
        let converged = (0..200).any(|_| {
            stores.round(&mut rng).expect("gossip round");
            stores.converged()
        });
        assert!(converged, "the stores converged");
    });
    // Replication sessions compare *through* the sync protocol
    // (`COMPARE_IS_SYNC`), so no oracle verdicts are expected here —
    // only the close-time and byte-conservation invariants.
    check
        .finish()
        .expect("every session closes and every contact ends");
    assert!(check.checked_sessions() > 0, "sessions were checked");
    assert!(check.checked_contacts() > 0, "contacts were checked");
}

/// The trace is an accounting layer, not a participant: running the same
/// contact with and without sinks must move exactly the same bytes.
#[test]
fn tracing_does_not_change_wire_traffic() {
    let spec: Vec<(u8, bool, u8)> = (0..32).map(|i| (i % 5, i % 7 == 0, i)).collect();
    let (c, s) = scenario(&spec);
    let bare = run_contact(&mut BatchPullClient::new(c), &mut BatchPullServer::new(s))
        .expect("bare contact");
    let ring = Arc::new(RingSink::new(1 << 16));
    let (c, s) = scenario(&spec);
    let traced = obs::with(ring.clone(), || {
        run_contact(&mut BatchPullClient::new(c), &mut BatchPullServer::new(s))
    })
    .expect("traced contact");
    assert_eq!(bare.total_bytes, traced.total_bytes);
    assert_eq!(bare.round_trips, traced.round_trips);
    assert!(!ring.events().is_empty());
}
