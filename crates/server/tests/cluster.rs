//! In-process daemon cluster tests: the same 3-node loopback topology
//! the README quickstart and the CI smoke script drive with real
//! processes, plus the fault cases the ISSUE pins down (a daemon dying
//! mid-sync must leave the survivors' metadata byte-identical).

use bytes::BytesMut;
use optrep_core::sync::WireMsg;
use optrep_core::wire::{self, Handshake, Intent};
use optrep_core::{Error, SiteId};
use optrep_kv::{Connection, JoinResolver, KvStore, KvSyncReport};
use optrep_net::{ConnectOptions, TcpLink};
use optrep_replication::{
    pull_planned, ContactAsk, ContactReport, CtrlMsg, InProcessLink, MuxMsg, Serving,
    CONTROL_STREAM,
};
use optrep_server::proto::{Request, Response};
use optrep_server::{Client, Node, NodeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Short deadlines so failure tests don't wait out 5 s socket timeouts.
fn fast_connect() -> ConnectOptions {
    ConnectOptions::new()
        .attempts(2)
        .backoff(Duration::from_millis(1), Duration::from_millis(4))
        .timeouts(
            Some(Duration::from_millis(400)),
            Some(Duration::from_millis(400)),
        )
}

fn ephemeral() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback")
}

fn start_node(site: u32) -> Node {
    Node::start(NodeConfig::new(SiteId::new(site), ephemeral()).with_connect(fast_connect()))
        .expect("node starts")
}

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
        |plan| dst.client_endpoint_refined(plan),
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

/// Dials `node`, writes `payloads` as control-stream frames and
/// returns once the daemon has closed the connection.
fn dropped_after(node: &Node, payloads: &[&[u8]]) {
    let mut stream = std::net::TcpStream::connect(node.addr()).expect("dial");
    let mut out = BytesMut::new();
    for payload in payloads {
        wire::put_frame(&mut out, CONTROL_STREAM, payload);
    }
    stream.write_all(&out).expect("write");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = [0u8; 64];
    match stream.read(&mut buf) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the daemon kept the connection: {other:?}"),
    }
}

#[test]
fn a_daemon_serves_planned_contacts_only() {
    let src = start_node(0);
    src.with_store(|s| {
        s.put("alpha", "a");
        s.put("beta", "b");
    });
    // Intent byte 1, the retired one-shot pull, is no handshake.
    let mut one_shot = Handshake::new(7, Intent::Peer).encode().to_vec();
    *one_shot.last_mut().expect("intent byte") = 1;
    dropped_after(&src, &[&one_shot]);
    // A peer connection whose contact opens with a bare `BatchHello`
    // instead of a digest vector.
    let peer = Handshake::new(7, Intent::Peer).encode();
    let hello = MuxMsg::Ctrl(CtrlMsg::BatchHello {
        discover: true,
        opens: Vec::new(),
    })
    .to_bytes();
    dropped_after(&src, &[&peer, &hello]);
    // A planned pull from the same daemon still converges.
    let dst = start_node(1);
    dst.sync_with(src.addr()).expect("planned pull");
    assert_eq!(dst.digest(), src.digest());
    dst.stop();
    src.stop();
}

#[test]
fn repeated_syncs_reuse_one_peer_connection() {
    let dst = start_node(0);
    let src = start_node(1);
    for i in 0..6 {
        src.with_store(|s| s.put(format!("k{i}"), "v"));
        dst.sync_with(src.addr()).expect("pull");
    }
    let totals = dst.conn_totals();
    assert_eq!(totals.dials, 1, "every pull must pipeline over one socket");
    assert!(totals.contacts >= 6, "contacts: {}", totals.contacts);
    assert_eq!(totals.discards, 0);
    // The metrics verb reports the same counters over the wire — this is
    // what smoke_cluster.sh asserts from the shell.
    let mut client = Client::connect(dst.addr(), &fast_connect()).expect("connect");
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.counter("optrep_pool_dials_total"), Some(1));
    assert!(metrics.counter("optrep_pool_contacts_total") >= Some(6));
    assert_eq!(metrics.gauge("optrep_conn_live"), Some(1));
    dst.stop();
    src.stop();
}

/// What a pull over a warm connection has in common with the same pull
/// over a fresh dial: the plan's verdict per shard and what the commit
/// changed. How the dirty keys were *located* — digests shipped, shards
/// refined or proposed, keys examined, the bytes all that took — is
/// what a connection's memory is for.
fn what_was_pulled(report: KvSyncReport) -> KvSyncReport {
    KvSyncReport {
        keys_examined: 0,
        keys_unchanged: 0,
        meta_bytes: 0,
        digest_bytes: 0,
        digests_sent: 0,
        shards_refined: 0,
        shards_proposed: 0,
        shards_refused: 0,
        ..report
    }
}

#[test]
fn a_connection_remembers_the_vector_and_the_source_proposes_until_a_redial() {
    // 960 keys over 16 shards, converged; each round one key moves on
    // at the source and the daemon pulls, mirrored by an in-memory pull
    // over one kept connection — byte for byte the daemon's — and
    // compared with the same pull over a fresh connection, which sends
    // the whole vector and is never proposed to.
    let mut mem_src = KvStore::with_shards(SiteId::new(1), 16);
    for i in 0..960 {
        mem_src.put(format!("key-{i:03}"), "value");
    }
    let mut mem_dst = KvStore::with_shards(SiteId::new(0), 16);
    mem_dst.sync(&mem_src).run().expect("bootstrap");
    let dst = start_node(0);
    let mut src = start_node(1);
    dst.with_store(|s| *s = mem_dst.clone());
    src.with_store(|s| *s = mem_src.clone());

    let mut round = |src: &Node, link: &mut Connection, key: &str| {
        if !key.is_empty() {
            src.with_store(|s| s.put(key, "moved on"));
            mem_src.put(key, "moved on");
        }
        let report = dst.sync_with(src.addr()).expect("tcp pull");
        let fresh = mem_dst.clone().sync(&mem_src).run().expect("fresh pull");
        let mirror = mem_dst.sync(&mem_src).over(link).run().expect("kept pull");
        assert_eq!(report, mirror, "{key}: the daemon's pull, byte for byte");
        assert_eq!(dst.digest(), mem_dst.replica_digest(), "{key}");
        assert_eq!(
            fresh.digests_sent, 16,
            "a fresh connection remembers nothing"
        );
        assert_eq!(fresh.shards_proposed, 0, "and is proposed nothing");
        assert_eq!(what_was_pulled(report), what_was_pulled(fresh), "{key}");
        (report, fresh)
    };
    let mut link = Connection::default();
    // One dirty key over a warm connection: its shard's digest in the
    // opening frame, its shard proposed, it alone examined — in fewer
    // bytes of every kind than the same pull costs a fresh dial, which
    // ships the vector, is offered children and compares a child.
    let warm_pull_of_one_key = |warm: optrep_kv::KvSyncReport, mirror: optrep_kv::KvSyncReport| {
        assert_eq!(warm.digests_sent, 1, "{warm:?}");
        let offered =
            |r: &optrep_kv::KvSyncReport| (r.shards_proposed, r.shards_refused, r.shards_refined);
        assert_eq!((offered(&warm), offered(&mirror)), ((1, 0, 0), (0, 0, 1)));
        assert_eq!((warm.keys_examined, warm.keys_fast_forwarded), (1, 1));
        assert!(mirror.keys_examined > 1, "{mirror:?}");
        assert!(warm.meta_bytes < mirror.meta_bytes, "{warm:?} {mirror:?}");
        assert!(
            warm.digest_bytes < mirror.digest_bytes,
            "{warm:?} {mirror:?}"
        );
    };

    // A fresh dial: the whole vector, the mirror's bytes exactly.
    let (cold, mirror) = round(&src, &mut link, "key-007");
    assert_eq!(cold, mirror);
    // The same socket again.
    let (warm, mirror) = round(&src, &mut link, "key-424");
    warm_pull_of_one_key(warm, mirror);
    // Converged and asked again: nothing to ship but the check, and
    // nothing to propose where no shard differs.
    let (idle, mirror) = round(&src, &mut link, "");
    assert_eq!(
        (idle.digests_sent, idle.shards_skipped),
        (1, 16),
        "{idle:?}"
    );
    assert_eq!(idle.meta_bytes, mirror.meta_bytes);
    let (idle, mirror) = round(&src, &mut link, "");
    assert_eq!(
        (idle.digests_sent, idle.shards_skipped, idle.shards_proposed),
        (0, 16, 0),
        "{idle:?}"
    );
    assert_eq!((idle.digest_bytes, mirror.digest_bytes), (19, 155));
    // What the source built to serve those four pulls is what the
    // puller examined — one child's keys, one candidate, nothing twice
    // — not the two dirty shards' 120.
    let served = src.metrics_snapshot();
    let built = served
        .histogram("optrep_serving_endpoint_keys")
        .expect("family");
    let examined = (cold.keys_examined + warm.keys_examined) as u64;
    assert_eq!((built.count, built.sum), (4, examined), "{cold:?}");
    assert!(examined < 30, "{cold:?}");

    // The source restarts on its address: the pooled socket is stale,
    // the pool redials once, and both memories went with the old socket
    // — the rerun opens with the whole vector and is proposed nothing,
    // as the first pull was: the store handed to the restarted source
    // brings its journal along, but a journal proposes only from a
    // `since`, and a new connection has none.
    let addr = src.addr();
    let store = src.with_store(|s| s.clone());
    src.stop();
    src = Node::start(NodeConfig::new(SiteId::new(1), addr).with_connect(fast_connect()))
        .expect("source restarts on its address");
    src.with_store(|s| *s = store);
    let mut link = Connection::default();
    let (redialed, mirror) = round(&src, &mut link, "key-100");
    assert_eq!(redialed, mirror, "a redial sends today's bytes");
    let totals = dst.conn_totals();
    assert_eq!((totals.dials, totals.stale_reruns), (2, 1), "{totals:?}");
    // And the pull after that is a delta, answered with a proposal,
    // again.
    let (warm, mirror) = round(&src, &mut link, "key-200");
    warm_pull_of_one_key(warm, mirror);

    // The counters add up, too.
    let sent: u64 = [16, 1, 1, 0, 16, 1].iter().sum();
    let metrics = dst.metrics_snapshot();
    let counter = |name: &str| metrics.counter(name);
    assert_eq!(counter("optrep_planner_digests_sent_total"), Some(sent));
    assert_eq!(counter("optrep_planner_shards_proposed_total"), Some(2));
    assert_eq!(counter("optrep_planner_shards_refused_total"), Some(0));
    // The source's journal still reaches back over every write the
    // store has seen: 960 keys and four rewrites, under the cap.
    let lag = src
        .metrics_snapshot()
        .gauge("optrep_store_journal_floor_lag");
    assert_eq!(lag, Some(964));
    dst.stop();
    src.stop();
}

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("proc")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("Threads line")
        .trim()
        .parse()
        .expect("thread count")
}

/// The event-driven core's whole point: connections are states in one
/// loop, not threads. Tolerate a little drift from concurrently running
/// tests — a thread-per-connection regression would add ~64.
#[cfg(target_os = "linux")]
#[test]
fn daemon_thread_count_is_independent_of_connections() {
    let node = start_node(9);
    let mut warm = Client::connect(node.addr(), &fast_connect()).expect("connect");
    warm.put("k", &b"v"[..]).expect("put");
    let before = thread_count();
    let mut clients: Vec<Client> = (0..64)
        .map(|_| Client::connect(node.addr(), &fast_connect()).expect("connect"))
        .collect();
    for client in &mut clients {
        assert_eq!(client.get("k").expect("get").as_deref(), Some(&b"v"[..]));
    }
    let during = thread_count();
    assert!(
        during <= before + 4,
        "64 connections grew the process from {before} to {during} threads"
    );
    node.stop();
}

#[test]
fn gossip_thread_converges_without_explicit_syncs() {
    let seeded = start_node(0);
    seeded.with_store(|s| {
        s.put("origin", "seeded");
    });
    let follower = Node::start(
        NodeConfig::new(SiteId::new(1), ephemeral())
            .with_connect(fast_connect())
            .with_peers([seeded.addr()])
            .with_gossip(Duration::from_millis(20)),
    )
    .expect("follower starts");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while follower.digest() != seeded.digest() {
        assert!(
            std::time::Instant::now() < deadline,
            "gossip did not converge in time"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    follower.with_store(|s| assert_eq!(s.get("origin"), Some(&b"seeded"[..])));
    follower.stop();
    seeded.stop();
}

#[test]
fn concurrent_writes_during_pull_are_not_lost() {
    // A local write racing the pull's network phase must survive: the
    // generation check forces a retry instead of committing outcomes
    // staged against pre-write metadata.
    let dst = start_node(0);
    let src = start_node(1);
    src.with_store(|s| {
        for i in 0..50 {
            s.put(format!("bulk{i}"), "payload");
        }
    });
    let writer = {
        let addr = dst.addr();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, &fast_connect()).expect("connect");
            for i in 0..20 {
                client
                    .put(&format!("racing{i}"), &b"local"[..])
                    .expect("put");
            }
        })
    };
    // Pull repeatedly while the writer hammers; racing pulls may error
    // out (raced too often) but must never drop a local write.
    for _ in 0..5 {
        let _ = dst.sync_with(src.addr());
    }
    writer.join().expect("writer thread");
    let _ = dst.sync_with(src.addr());
    dst.with_store(|s| {
        for i in 0..20 {
            assert_eq!(
                s.get(&format!("racing{i}")),
                Some(&b"local"[..]),
                "local write racing{i} was lost"
            );
        }
        for i in 0..50 {
            assert_eq!(s.get(&format!("bulk{i}")), Some(&b"payload"[..]));
        }
    });
    dst.stop();
    src.stop();
}

/// Regression for a real bug: the daemon's sync worker is spawned
/// lazily on the first `sync` verb, from the event-loop thread — if
/// the spawn does not re-install the sinks captured at `Node::start`,
/// every event the executor's pulls emit silently vanishes. Drive a
/// pull through the verb path (client → event loop → worker thread)
/// under an installed `CounterSink` and demand the events arrived.
#[test]
fn worker_thread_events_reach_sinks_installed_at_start() {
    use optrep_core::obs::{self, CounterSink};
    use std::sync::Arc;

    let sink = Arc::new(CounterSink::new());
    let (dst, src) = obs::with(Arc::clone(&sink) as Arc<dyn obs::Sink>, || {
        (start_node(0), start_node(1))
    });
    src.with_store(|s| s.put("observed", "value"));
    let mut client = Client::connect(dst.addr(), &fast_connect()).expect("connect");
    client.sync(&src.addr().to_string()).expect("sync verb");
    let counts = sink.snapshot();
    assert!(
        counts.contacts >= 1,
        "worker-thread pull emitted no contact events: {counts:?}"
    );
    assert!(
        counts.compare_bytes + counts.framing_bytes >= 1,
        "no byte totals: {counts:?}"
    );
    dst.stop();
    src.stop();
}

/// The `Metrics` verb end to end: the snapshot a client pulls over the
/// wire must agree with the daemon's own activity, its sequence number
/// must advance per snapshot, and the
/// Prometheus rendering must carry the families `optrep top` reads.
#[test]
fn metrics_verb_reports_daemon_activity() {
    let born = std::time::Instant::now();
    let dst = start_node(0);
    let src = start_node(1);
    src.with_store(|s| s.put("k", "v"));
    let mut client = Client::connect(dst.addr(), &fast_connect()).expect("connect");
    client.sync(&src.addr().to_string()).expect("sync verb");

    let first = client.metrics().expect("metrics verb");
    let second = client.metrics().expect("metrics verb");
    assert!(second.seq > first.seq, "snapshot sequence must advance");
    // Decoded, not junk: no longer than the node has been alive.
    let alive = born.elapsed().as_secs();
    let uptime = second.gauge("optrep_uptime_secs").expect("family");
    assert!(
        uptime <= alive + 1,
        "uptime {uptime}s for a node alive {alive}s"
    );

    // Gauges mirror the store the verbs see.
    assert_eq!(second.gauge("optrep_store_keys"), Some(1));
    assert_eq!(second.gauge("optrep_conn_live"), Some(1));
    // The sync above must have landed in the histograms and counters.
    let contacts = second
        .counter("optrep_pool_contacts_total")
        .expect("family");
    let latency = second.histogram("optrep_contact_micros").expect("family");
    assert!(contacts >= 1, "contacts: {contacts}");
    assert_eq!(latency.count, contacts, "one latency sample per contact");

    let text = second.to_prometheus();
    for family in [
        "# TYPE optrep_pool_contacts_total counter",
        "# TYPE optrep_contact_micros histogram",
        "# TYPE optrep_store_keys gauge",
        "optrep_contact_micros_bucket{le=\"+Inf\"}",
    ] {
        assert!(text.contains(family), "missing {family:?} in:\n{text}");
    }
    dst.stop();
    src.stop();
}

/// A throwaway data dir under the system temp dir (no tempfile crate in
/// the workspace); best-effort cleanup at the end of each test.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "optrep-cluster-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn start_durable(site: u32, dir: &std::path::Path) -> Node {
    Node::start(
        NodeConfig::new(SiteId::new(site), ephemeral())
            .with_connect(fast_connect())
            .with_data_dir(dir),
    )
    .expect("durable node starts")
}

/// A durable node stopped gracefully and restarted from its data dir
/// comes back with the identical store — including state that arrived
/// three different ways: the durable write path, the verb protocol,
/// and a WAL-logged anti-entropy contact.
#[test]
fn durable_node_recovers_identical_store_after_restart() {
    let dir = scratch_dir("restart");
    let peer = start_node(1);
    peer.with_store(|s| {
        s.put("from-peer", "gossiped");
        s.put("shared", "peer-version");
        s.delete("from-peer"); // a tombstone must survive recovery too
    });

    let node = start_durable(0, &dir);
    node.put("local", "durable-path").expect("durable put");
    node.put("shared", "local-version").expect("durable put");
    let mut client = Client::connect(node.addr(), &fast_connect()).expect("connect");
    client.put("via-verb", &b"wire"[..]).expect("verb put");
    client.delete("local").expect("verb delete");
    node.sync_with(peer.addr()).expect("contact commits");
    let digest = node.digest();
    let keys = node.with_store(|s| s.encode_snapshot());
    node.stop();

    let revived = start_durable(0, &dir);
    let replay = revived
        .replay_report()
        .expect("durable node reports replay");
    assert_eq!(
        replay.wal_records_applied, 0,
        "graceful stop checkpoints; boot replays nothing: {replay:?}"
    );
    assert!(replay.snapshot_bytes > 0, "state came from the snapshot");
    assert_eq!(revived.digest(), digest, "recovered replica diverged");
    assert_eq!(
        revived.with_store(|s| s.encode_snapshot()),
        keys,
        "recovered store is not byte-identical"
    );
    revived.stop();
    peer.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for the pull-commit TOCTOU window: the generation
/// re-check and the `apply_planned_tracked` commit must happen under ONE store
/// guard. Hammer local writes into a node while it pulls repeatedly;
/// if check and commit ever take the lock separately, a write landing
/// between them is clobbered by a commit that passed a stale check.
#[test]
fn pull_commit_cannot_clobber_a_write_racing_the_guard() {
    let dst = start_node(0);
    let src = start_node(1);
    src.with_store(|s| {
        for i in 0..50 {
            s.put(format!("bulk{i}"), vec![0u8; 256]);
        }
    });
    let stop_flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let acks = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let writer = {
        let addr = dst.addr();
        let stop_flag = std::sync::Arc::clone(&stop_flag);
        let acks = std::sync::Arc::clone(&acks);
        // Generous deadlines: the writer competes with contact commits
        // for the event loop; a slow ack is fine, only a LOST ack
        // matters. Unacked puts (connection hiccups) are skipped — the
        // clobber claim is only about writes the daemon acknowledged.
        let patient = ConnectOptions::new()
            .timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)));
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, &patient).expect("connect");
            let mut acked = Vec::new();
            let mut n = 0u32;
            while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                match client.put(&format!("racing{n}"), &b"local"[..]) {
                    Ok(()) => {
                        acked.push(n);
                        acks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Err(_) => {
                        if let Ok(fresh) = Client::connect(addr, &patient) {
                            client = fresh;
                        }
                    }
                }
                n += 1;
                // Pace just enough that pulls can occasionally win the
                // generation race and commit — an unbroken write storm
                // only ever exercises the retry-exhausted path.
                std::thread::sleep(Duration::from_millis(1));
            }
            acked
        })
    };
    // Many pulls while the writer hammers: each one exercises the
    // re-check-then-commit window. Races may exhaust a pull's retries
    // (an error), but no committed pull may lose a local write. Fifteen
    // pulls can all finish before the writer's first put is acked, so
    // pulling goes on until a few puts have raced them (or a deadline).
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut pulls = 0;
    while pulls < 15
        || (acks.load(std::sync::atomic::Ordering::Relaxed) < 5 && Instant::now() < deadline)
    {
        let _ = dst.sync_with(src.addr());
        pulls += 1;
    }
    stop_flag.store(true, std::sync::atomic::Ordering::Relaxed);
    let acked = writer.join().expect("writer thread");
    assert!(!acked.is_empty(), "writer never got a put acknowledged");
    dst.with_store(|s| {
        for n in &acked {
            assert!(
                s.get(&format!("racing{n}")).is_some(),
                "acked write racing{n} was clobbered by a pull commit"
            );
        }
    });
    dst.stop();
    src.stop();
}

/// A pull that completes on the wire and is then retried because a
/// local write raced its commit (`APPLY_RACE_RETRIES`) reruns over the
/// same socket, and both ends remembered the abandoned contact's
/// vector: the rerun's delta must find the server in step. If it did
/// not, the check would fail, the connection would be discarded and
/// redialed — so under a write storm that forces retries, the pool
/// must still hold its one, never-discarded connection.
#[test]
fn pulls_retried_after_a_racing_write_stay_in_step_on_their_connection() {
    let dst = start_node(0);
    let src = start_node(1);
    src.with_store(|s| {
        for i in 0..200 {
            s.put(format!("bulk{i}"), vec![0u8; 64]);
        }
    });
    dst.sync_with(src.addr()).expect("first pull");
    let stop_flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let addr = dst.addr();
        let stop_flag = std::sync::Arc::clone(&stop_flag);
        let patient = ConnectOptions::new()
            .timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)));
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, &patient).expect("connect");
            let mut n = 0u32;
            while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = client.put(&format!("racing{n}"), &b"local"[..]);
                n += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    // Pull under the storm until some pull has had to retry: every
    // contact counts in the pool, a retried pull more than once.
    let mut pulls = 1;
    for i in 0..200 {
        src.with_store(|s| s.put(format!("bulk{}", i % 200), format!("moved{i}")));
        let _ = dst.sync_with(src.addr());
        pulls += 1;
        if i >= 15 && dst.conn_totals().contacts > pulls {
            break;
        }
    }
    stop_flag.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().expect("writer thread");
    let totals = dst.conn_totals();
    assert!(
        totals.contacts > pulls,
        "no pull was ever retried: {totals:?} over {pulls} pulls"
    );
    assert_eq!((totals.dials, totals.discards), (1, 0), "{totals:?}");
    // Quiet again: the next pulls are deltas and converge — the first
    // commits what the storm left, the second tells the source so, the
    // third has nothing to tell.
    for _ in 0..2 {
        dst.sync_with(src.addr()).expect("quiet pull");
    }
    let last = dst.sync_with(src.addr()).expect("quiet pull");
    assert_eq!(last.digests_sent, 0, "{last:?}");
    let held =
        |node: &Node, i: u32| node.with_store(|s| s.get(&format!("bulk{i}")).map(<[u8]>::to_vec));
    for i in 0..200 {
        assert_eq!(held(&dst, i), held(&src, i), "bulk{i}");
    }
    assert_eq!(dst.conn_totals().dials, 1);
    dst.stop();
    src.stop();
}

/// The WAL families count activity on a durable node and read zero on a
/// memory-only one.
#[test]
fn metrics_report_wal_counters_only_when_durable() {
    let dir = scratch_dir("wal-metrics");
    let durable = Node::start(
        NodeConfig::new(SiteId::new(0), ephemeral())
            .with_connect(fast_connect())
            .with_durability(
                optrep_server::DurabilityConfig::new(&dir)
                    .with_fsync(optrep_server::FsyncPolicy::Always),
            ),
    )
    .expect("durable node starts");
    let plain = start_node(1);

    let mut client = Client::connect(durable.addr(), &fast_connect()).expect("connect");
    client.put("a", &b"1"[..]).expect("put");
    client.put("b", &b"2"[..]).expect("put");
    let metrics = client.metrics().expect("metrics");
    let counter = |name: &str| metrics.counter(name).expect("family");
    assert_eq!(
        counter("optrep_wal_records_total"),
        2,
        "one WAL record per committed put"
    );
    assert!(counter("optrep_wal_bytes_total") > 0);
    assert!(
        counter("optrep_wal_fsyncs_total") >= 2,
        "fsync=always syncs each append"
    );
    assert!(metrics.gauge("optrep_wal_size_bytes").unwrap_or(0) > 0);

    let mut client = Client::connect(plain.addr(), &fast_connect()).expect("connect");
    client.put("a", &b"1"[..]).expect("put");
    let metrics = client.metrics().expect("metrics");
    let counter = |name: &str| metrics.counter(name).expect("family");
    assert_eq!(
        (
            counter("optrep_wal_records_total"),
            counter("optrep_wal_bytes_total"),
            counter("optrep_wal_fsyncs_total")
        ),
        (0, 0, 0),
        "memory-only daemon reports no WAL activity"
    );

    durable.stop();
    plain.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
