//! In-process daemon cluster tests: the same 3-node loopback topology
//! the README quickstart and the CI smoke script drive with real
//! processes, pulls over TCP checked against the in-memory ones, and a
//! daemon dying mid-sync, which must leave the survivors' metadata
//! byte-identical. Connections, threads and restarts have files of their
//! own: `connections.rs`, `daemon_threads.rs`, `restarts.rs`.

use optrep_core::wire::{Handshake, Intent};
use optrep_core::{Error, SiteId};
use optrep_kv::{JoinResolver, KvStore, KvSyncReport};
use optrep_net::TcpLink;
use optrep_replication::{
    pull_planned, ContactAsk, ContactReport, InProcessLink, Serving, CONTROL_STREAM,
};
use optrep_server::proto::{Request, Response};
use optrep_server::{Client, Node};
use std::io::{Read, Write};
use std::net::TcpListener;

mod support;
use support::*;

#[test]
fn three_node_cluster_converges_via_sync_verbs() {
    let nodes = [start_node(0), start_node(1), start_node(2)];
    // Divergent writes, including a conflict on "shared" and a tombstone.
    nodes[0].with_store(|s| {
        s.put("alpha", "from-a");
        s.put("shared", "a-version");
    });
    nodes[1].with_store(|s| {
        s.put("beta", "from-b");
        s.put("shared", "b-version");
    });
    nodes[2].with_store(|s| {
        s.put("gamma", "from-c");
        s.delete("gamma");
        s.put("delta", "from-c");
    });
    let digests: Vec<u64> = nodes.iter().map(Node::digest).collect();
    assert_eq!(
        digests
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len(),
        3
    );

    // Pull rounds over the verb protocol until every digest agrees,
    // exactly as `optrep sync` does from the shell.
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let mut clients: Vec<Client> = nodes
        .iter()
        .map(|n| Client::connect(n.addr(), &fast_connect()).expect("client connects"))
        .collect();
    // Per daemon, the keys its pulls reported (reconciled, fast-forwarded).
    let mut reported = [(0u64, 0u64); 3];
    for _round in 0..4 {
        for (dst, client) in clients.iter_mut().enumerate() {
            for (src, addr) in addrs.iter().enumerate() {
                if dst != src {
                    let synced = client.sync(addr).expect("sync verb succeeds");
                    reported[dst].0 += synced.keys_reconciled as u64;
                    reported[dst].1 += synced.keys_fast_forwarded as u64;
                }
            }
        }
        let digests: Vec<u64> = nodes.iter().map(Node::digest).collect();
        if digests.iter().all(|d| *d == digests[0]) {
            break;
        }
    }
    let digests: Vec<u64> = nodes.iter().map(Node::digest).collect();
    assert!(
        digests.iter().all(|d| *d == digests[0]),
        "cluster did not converge: {digests:x?}"
    );
    // Every replica serves every key; the conflict resolved identically.
    let shared = clients[0].get("shared").expect("get").expect("present");
    for client in &mut clients {
        assert_eq!(
            client.get("alpha").expect("get").as_deref(),
            Some(&b"from-a"[..])
        );
        assert_eq!(
            client.get("beta").expect("get").as_deref(),
            Some(&b"from-b"[..])
        );
        assert_eq!(
            client.get("delta").expect("get").as_deref(),
            Some(&b"from-c"[..])
        );
        assert_eq!(
            client.get("gamma").expect("get"),
            None,
            "tombstone replicated"
        );
        assert_eq!(
            client.get("shared").expect("get").as_deref(),
            Some(&shared[..])
        );
    }
    // Each daemon counts exactly what its pulls reported, and the
    // conflict on "shared" was reconciled somewhere.
    for (node, &(reconciled, fast_forwarded)) in nodes.iter().zip(&reported) {
        let metrics = node.metrics_snapshot();
        let counted = |name| metrics.counter(name).expect("family");
        assert_eq!(counted("optrep_reconciliations_total"), reconciled);
        assert_eq!(counted("optrep_fast_forwards_total"), fast_forwarded);
    }
    let reconciled: u64 = reported.iter().map(|&(reconciled, _)| reconciled).sum();
    assert!(reconciled >= 1, "no pull reconciled the conflict");
    for node in nodes {
        node.stop();
    }
}

#[test]
fn verbs_roundtrip_over_the_wire() {
    let node = start_node(7);
    let mut client = Client::connect(node.addr(), &fast_connect()).expect("connect");
    assert_eq!(client.get("missing").expect("get"), None);
    client.put("k", &b"v1"[..]).expect("put");
    assert_eq!(client.get("k").expect("get").as_deref(), Some(&b"v1"[..]));
    let metrics = client.metrics().expect("metrics");
    let gauge = |name: &str| metrics.gauge(name);
    assert_eq!(gauge("optrep_site"), Some(7));
    let shape = (gauge("optrep_store_keys"), gauge("optrep_store_tracked"));
    assert_eq!(shape, (Some(1), Some(1)));
    assert!(gauge("optrep_store_generation") > Some(0));
    client.delete("k").expect("delete");
    assert_eq!(client.get("k").expect("get"), None);
    let metrics = client.metrics().expect("metrics");
    let gauge = |name: &str| metrics.gauge(name);
    assert_eq!(
        (gauge("optrep_store_keys"), gauge("optrep_store_tracked")),
        (Some(0), Some(1)),
        "tombstones stay tracked"
    );
    assert_eq!(client.digest().expect("digest"), node.digest());

    // The retired `Status` verb's tag, as a parent client sends it: a bad
    // request, on a connection that stays usable.
    let mut link = TcpLink::connect(node.addr(), &fast_connect()).expect("dial");
    let hello = Handshake::new(u32::MAX, Intent::Verbs).encode();
    link.send_frame(CONTROL_STREAM, &hello).expect("handshake");
    let mut ask = |payload: &[u8]| {
        link.send_frame(CONTROL_STREAM, payload).expect("request");
        let mut answer = link.recv_frame().expect("answer").payload;
        Response::decode(&mut answer).expect("answer decodes")
    };
    match ask(&[4]) {
        Response::Err(reason) => assert!(reason.contains("bad request"), "{reason}"),
        other => panic!("tag 4 answered {other:?}"),
    }
    match ask(&Request::Metrics.encode()) {
        Response::Metrics(metrics) => assert_eq!(metrics.gauge("optrep_site"), Some(7)),
        other => panic!("metrics answered {other:?}"),
    }
    node.stop();
}

#[test]
fn tcp_pull_report_matches_in_memory_sync() {
    // The same two stores, one pair synced in-process and one served
    // over real sockets: the pull reports (including meta/value byte
    // counts and the planner's shard verdicts) must be identical —
    // sockets add wall-clock, not bytes. A daemon's pull is
    // `KvStore::sync`'s, and a fresh dial is a fresh connection.
    let seed_dst = |s: &mut KvStore| {
        s.put("common", "dst");
        s.put("mine", "dst-only");
    };
    let seed_src = |s: &mut KvStore| {
        s.put("common", "src");
        s.put("theirs", "src-only");
        s.delete("mine-gone");
    };
    let mut mem_dst = KvStore::new(SiteId::new(0));
    let mut mem_src = KvStore::new(SiteId::new(1));
    seed_dst(&mut mem_dst);
    seed_src(&mut mem_src);
    let reference = mem_dst
        .sync(&mem_src)
        .run()
        .expect("in-memory planned sync");

    let dst = start_node(0);
    let src = start_node(1);
    dst.with_store(seed_dst);
    src.with_store(seed_src);
    let report = dst.sync_with(src.addr()).expect("tcp pull");
    assert_eq!(report, reference, "byte-for-byte identical pull report");
    assert_eq!(dst.digest(), mem_dst.replica_digest());
    dst.stop();
    src.stop();
}

#[test]
fn daemon_pull_is_cut_at_the_children_like_the_in_memory_one() {
    // Two converged 16-shard stores of 960 keys, two keys moved on at
    // the source: the plan offers the children of the two dirty shards,
    // the daemon answers with a scope, and the report — `shards_refined`
    // included — is the in-memory planned sync's, byte for byte.
    let mut mem_src = KvStore::with_shards(SiteId::new(1), 16);
    for i in 0..960 {
        mem_src.put(format!("key-{i:03}"), "value");
    }
    let mut mem_dst = KvStore::with_shards(SiteId::new(0), 16);
    mem_dst.sync(&mem_src).run().expect("bootstrap");
    mem_src.put("key-007", "moved on");
    mem_src.put("key-424", "moved on");

    let dst = start_node(0);
    let src = start_node(1);
    dst.with_store(|s| *s = mem_dst.clone());
    src.with_store(|s| *s = mem_src.clone());
    let reference = mem_dst
        .sync(&mem_src)
        .run()
        .expect("in-memory planned sync");
    assert_eq!(reference.shards_refined, 2);
    assert!(reference.keys_examined < 40, "{reference:?}");

    let mut client = Client::connect(dst.addr(), &fast_connect()).expect("connect");
    let report = client.sync(&src.addr().to_string()).expect("sync verb");
    assert_eq!(report, reference, "byte-for-byte identical pull report");
    assert_eq!(dst.digest(), src.digest());
    let refined = dst
        .metrics_snapshot()
        .counter("optrep_planner_shards_refined_total");
    assert_eq!(refined, Some(2));
    dst.stop();
    src.stop();
}

/// `KvStore::sync`'s pull on a fresh connection, with the contact report
/// it leaves out (`link_turns` is in no sync report and no obs event):
/// the pump and the commit it runs, by hand.
fn contact_of_a_pull(dst: &mut KvStore, src: &KvStore) -> (KvSyncReport, ContactReport) {
    let digests = dst.shard_digest_vector();
    let mut far = |ask: ContactAsk<'_>| src.open_contact(ask);
    let (client, plan, contact) = pull_planned(
        &mut InProcessLink::serving(&mut Serving::default(), &mut far),
        &mut Default::default(),
        &digests,
        |plan, pushed| dst.client_endpoint_refined(plan, pushed, dst.generation()),
    )
    .expect("in-memory planned pull");
    let (report, _) = dst
        .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
        .expect("commit");
    (report, contact)
}

/// A dense pull over real sockets: 3 072 keys the source wrote once
/// more, all at one site, 256 B each. A serving turn carries one
/// message per live stream, so the pull takes about as many turns as
/// one key's stream has messages — its answer, its element, its value —
/// plus the turns 768 KB of values spill into, not one turn a frame.
/// The daemon's `optrep_contact_link_turns` says so, and says what the
/// in-memory pull of the same stores counts: turns, like bytes, are a
/// property of the contact, not of the transport.
#[test]
fn a_dense_pull_takes_a_turn_per_message_of_the_longest_stream() {
    let keys = 3072;
    let mut mem_src = KvStore::new(SiteId::new(1));
    for i in 0..keys {
        mem_src.put(format!("key-{i:05}"), "old");
    }
    let mut mem_dst = KvStore::new(SiteId::new(0));
    mem_dst.sync(&mem_src).run().expect("bootstrap");
    for i in 0..keys {
        mem_src.put(format!("key-{i:05}"), vec![b'v'; 256]);
    }
    let dst = start_node(0);
    let src = start_node(1);
    dst.with_store(|s| *s = mem_dst.clone());
    src.with_store(|s| *s = mem_src.clone());
    let (reference, contact) = contact_of_a_pull(&mut mem_dst, &mem_src);
    assert_eq!(reference.keys_fast_forwarded, keys);

    let mut client = Client::connect(dst.addr(), &fast_connect()).expect("connect");
    let report = client.sync(&src.addr().to_string()).expect("sync verb");
    assert_eq!(report, reference);
    // The framing the `sync` verb reports: 91 414 B over the 3 072
    // changed keys, ≈ 29.8 B a key — frame headers, stream ids and the
    // names of the keys compared.
    assert_eq!(report.framing_bytes, 91_414);
    assert_eq!(dst.digest(), src.digest());
    let metrics = client.metrics().expect("metrics");
    let turns = metrics
        .histogram("optrep_contact_link_turns")
        .expect("family");
    assert_eq!((turns.count, turns.sum), (1, contact.link_turns));
    // Three messages a key's stream, four turns with none of them —
    // the plan, the `BatchServerFirst` alone, the payload requests'
    // round trip, the FIN — and what the window spills.
    let spilled = contact.total_bytes.div_ceil(64 * 1024);
    assert!(turns.sum <= 3 + 4 + spilled, "{turns:?} {contact:?}");
    assert!(contact.frames > 3 * keys as u64, "{contact:?}");
    dst.stop();
    src.stop();
}

#[test]
fn dead_peer_leaves_survivor_metadata_untouched() {
    let survivor = start_node(0);
    survivor.with_store(|s| {
        s.put("stable", "value");
        s.put("other", "value");
    });
    let before = survivor.digest();

    // Peer 1: nothing listening (daemon killed before the dial).
    let dead = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let err = survivor.sync_with(dead).expect_err("dial must fail");
    assert!(matches!(err, Error::ConnectionLost { .. }), "{err:?}");
    assert_eq!(survivor.digest(), before, "failed dial mutated the store");

    // Peer 2: accepts, reads the burst, answers with a truncated frame,
    // dies mid-sync. The survivor must abort — digest-identical state.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let killer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf);
        // A frame header promising more payload than will ever come.
        let _ = stream.write_all(&[3, 200, 1, 2, 3]);
        drop(stream);
    });
    let err = survivor
        .sync_with(addr)
        .expect_err("mid-frame death must fail");
    assert!(
        matches!(err, Error::ConnectionLost { .. } | Error::Incomplete { .. }),
        "{err:?}"
    );
    killer.join().expect("killer thread");
    assert_eq!(survivor.digest(), before, "aborted pull mutated the store");

    // The survivor still syncs fine with a healthy peer afterwards.
    let healthy = start_node(1);
    healthy.with_store(|s| s.put("fresh", "peer"));
    survivor.sync_with(healthy.addr()).expect("healthy pull");
    assert_ne!(survivor.digest(), before);
    survivor.with_store(|s| assert_eq!(s.get("fresh"), Some(&b"peer"[..])));
    survivor.stop();
    healthy.stop();
}
