//! Cross-transport equivalence: the same protocol endpoints must produce
//! identical results under the lockstep driver, the timed driver with
//! adversarial latencies, the discrete-event simulator, and the threaded
//! in-memory transport — the sans-io design's core promise.

use optrep::core::graph::{CausalGraph, NodeId, SyncGReceiver, SyncGSender};
use optrep::core::rng::SplitMix64;
use optrep::core::sync::drive::{sync_srv, sync_srv_opts};
use optrep::core::sync::sender::VectorSender;
use optrep::core::sync::{Endpoint, SyncOptions, SyncSReceiver};
use optrep::core::{Causality, RotatingVector, SiteId, Srv};
use optrep::net::mem::run_pair;
use optrep::net::sim::{SimConfig, SimLink};

fn s(i: u32) -> SiteId {
    SiteId::new(i)
}

/// Builds a reconciliation-heavy pair of vectors through a legal history.
fn diverged_pair(seed: u64) -> (Srv, Srv) {
    let mut rng = SplitMix64::new(seed);
    let mut a = Srv::new();
    for i in 0..10 {
        a.record_update(s(i));
    }
    let mut b = a.clone();
    for step in 0..30 {
        let on_a = rng.chance(0.5);
        let site = s(rng.below(10) as u32 + if on_a { 0 } else { 20 });
        if on_a {
            a.record_update(site);
        } else {
            b.record_update(site);
        }
        if step % 7 == 6 {
            // Periodic reconciliation keeps segment structure interesting.
            let relation = a.compare(&b);
            sync_srv(&mut a, &b).expect("reconcile");
            if relation.is_concurrent() {
                a.record_update(s(0));
            }
        }
    }
    (a, b)
}

#[test]
fn srv_sync_identical_across_all_transports() {
    for seed in 0..8u64 {
        let (a, b) = diverged_pair(seed);
        let relation = a.compare(&b);

        // 1. Lockstep reference.
        let mut lockstep = a.clone();
        sync_srv(&mut lockstep, &b).expect("lockstep");

        // 2. Timed driver with asymmetric latency and bandwidth pacing —
        // pipelining overruns and stale skips galore.
        for (lf, lb, bw) in [(3u64, 9u64, None), (20, 1, Some(1)), (5, 5, Some(2))] {
            let mut timed = a.clone();
            sync_srv_opts(
                &mut timed,
                &b,
                SyncOptions {
                    latency_forward: lf,
                    latency_backward: lb,
                    bandwidth: bw,
                    ..SyncOptions::default()
                },
            )
            .expect("timed");
            assert_eq!(
                timed.to_version_vector(),
                lockstep.to_version_vector(),
                "seed {seed}, latency ({lf},{lb},{bw:?})"
            );
        }

        // 3. Discrete-event simulator.
        let tx = VectorSender::new(b.clone());
        let rx = SyncSReceiver::new(a.clone(), relation);
        let mut link = SimLink::new(tx, rx, SimConfig::symmetric(777_777, Some(500)));
        link.run().expect("sim");
        let (_, rx) = link.into_parts();
        let (sim_out, _) = rx.finish();
        assert_eq!(sim_out.to_version_vector(), lockstep.to_version_vector());

        // 4. Threaded transport (real concurrency + wire round trip).
        let tx = VectorSender::new(b.clone());
        let rx = SyncSReceiver::new(a.clone(), relation);
        let (_, rx, _) = run_pair(tx, rx).expect("threads");
        let (threaded, _) = rx.finish();
        assert_eq!(threaded.to_version_vector(), lockstep.to_version_vector());
    }
}

#[test]
fn graph_sync_identical_across_transports() {
    // A branchy graph: shared chain, two divergent branches, merge.
    let mut b = CausalGraph::new();
    let n = |i: u32| NodeId::of(s(0), i);
    b.record_root(n(0));
    for i in 1..50 {
        b.record_op(n(i));
    }
    b.insert_remote(
        NodeId::of(s(1), 0),
        optrep::core::graph::Parents::one(n(10)),
    );
    b.record_merge(n(50), NodeId::of(s(1), 0));
    let mut a = CausalGraph::new();
    a.record_root(n(0));
    for i in 1..30 {
        a.record_op(n(i));
    }

    let mut lockstep = a.clone();
    let report = optrep::core::graph::sync_graph(&mut lockstep, &b).expect("lockstep");
    assert!(report.nodes_added > 0);

    let tx = SyncGSender::new(b.clone());
    let rx = SyncGReceiver::new(a.clone());
    let mut link = SimLink::new(tx, rx, SimConfig::symmetric(1_000_000, Some(200)));
    link.run().expect("sim");
    let (_, rx) = link.into_parts();
    let (sim_out, _) = rx.finish();
    assert_eq!(sim_out, lockstep);

    let tx = SyncGSender::new(b.clone());
    let rx = SyncGReceiver::new(a.clone());
    let (_, rx, stats) = run_pair(tx, rx).expect("threads");
    let (threaded, _) = rx.finish();
    assert_eq!(threaded, lockstep);
    assert!(stats.bytes_ab > 0);
}

#[test]
fn stop_and_wait_equals_pipelined_under_simulation() {
    use optrep::core::sync::FlowControl;
    let (a, b) = diverged_pair(3);
    let relation = a.compare(&b);
    let run = |flow: FlowControl| {
        let tx = VectorSender::with_flow(b.clone(), flow);
        let rx = optrep::core::sync::SyncSReceiver::with_flow(a.clone(), relation, flow);
        let mut link = SimLink::new(tx, rx, SimConfig::symmetric(123_456, None));
        let report = link.run().expect("sim");
        let (_, rx) = link.into_parts();
        let (out, _) = rx.finish();
        (out.to_version_vector(), report.duration_ns)
    };
    let (piped, piped_ns) = run(FlowControl::Pipelined);
    let (saw, saw_ns) = run(FlowControl::StopAndWait);
    assert_eq!(piped, saw, "flow control never changes the outcome");
    assert!(saw_ns >= piped_ns, "stop-and-wait is never faster");
}

/// Over 64 fixtures — whichever way the pair ends up related; seed 11, the
/// one this test used alone, is `Concurrent`, and 58 of the seeds 0..256
/// end `After`, which it used to refuse as a precondition.
#[test]
fn full_replica_session_over_sim_and_threads() {
    let seen: Vec<Causality> = (0..64).map(full_replica_session).collect();
    for relation in [Causality::After, Causality::Concurrent] {
        assert!(seen.contains(&relation), "no fixture ended {relation:?}");
    }
}

fn full_replica_session(seed: u64) -> Causality {
    use bytes::Bytes;
    use optrep::replication::{apply_pull, PullClient, PullServer};

    let (a, b) = diverged_pair(seed);
    let relation = a.compare(&b);
    let server_state = Bytes::from_static(b"server payload");

    // Reference: lockstep by hand.
    let run_lockstep = || {
        let mut client = PullClient::new(a.clone());
        let mut server = PullServer::new(b.clone(), server_state.clone());
        loop {
            let mut progress = false;
            while let Some(m) = client.poll_send() {
                server.on_receive(m).unwrap();
                progress = true;
            }
            if let Some(m) = server.poll_send() {
                client.on_receive(m).unwrap();
                progress = true;
            }
            if client.is_done() && server.is_done() {
                break;
            }
            assert!(progress, "lockstep session stalled");
        }
        client.finish()
    };
    let reference = run_lockstep();

    // Simulator with bandwidth pacing and asymmetric latency.
    let client = PullClient::new(a.clone());
    let server = PullServer::new(b.clone(), server_state.clone());
    let mut link = SimLink::new(client, server, SimConfig::symmetric(2_000_000, Some(2_000)));
    let report = link.run().expect("sim session");
    let (client, _) = link.into_parts();
    let sim_outcome = client.finish();
    assert_eq!(sim_outcome.relation, reference.relation);
    assert_eq!(sim_outcome.payload, reference.payload);
    assert_eq!(
        sim_outcome.vector.to_version_vector(),
        reference.vector.to_version_vector()
    );
    assert!(report.stats.bytes_ab > 0 && report.stats.bytes_ba > 0);

    // Threads with real wire round trips.
    let client = PullClient::new(a.clone());
    let server = PullServer::new(b.clone(), server_state.clone());
    let (client, _, _) = run_pair(client, server).expect("threaded session");
    let threaded = client.finish();
    assert_eq!(threaded.relation, reference.relation);
    assert_eq!(threaded.payload, reference.payload);
    assert_eq!(
        threaded.vector.to_version_vector(),
        reference.vector.to_version_vector()
    );

    // Applying the pull merges payloads on reconciliation.
    let ours = Bytes::from_static(b"our payload");
    let applied = apply_pull(&reference, &ours, |mine, theirs| {
        let mut v = mine.to_vec();
        v.extend_from_slice(theirs);
        Bytes::from(v)
    });
    match relation {
        Causality::Concurrent => assert_eq!(&applied[..], b"our payloadserver payload"),
        Causality::Before => assert_eq!(applied, server_state),
        Causality::After | Causality::Equal => assert_eq!(applied, ours),
    }
    relation
}
