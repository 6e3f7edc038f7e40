//! A daemon's connections: it serves planned contacts only, a pull
//! reuses one connection, and the connection's memory of the last vector
//! is what the source proposes against until a redial.

use bytes::BytesMut;
use optrep_core::sync::WireMsg;
use optrep_core::wire::{self, Handshake, Intent};
use optrep_core::SiteId;
use optrep_kv::{Connection, KvStore, KvSyncReport};
use optrep_replication::{CtrlMsg, MuxMsg, CONTROL_STREAM};
use optrep_server::{Client, Node, NodeConfig};
use std::io::{Read, Write};
use std::time::Duration;

mod support;
use support::*;

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
        framing_bytes: 0,
        digest_bytes: 0,
        digests_sent: 0,
        shards_refined: 0,
        shards_proposed: 0,
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
    // One dirty key over a warm connection: no digest in the opening
    // frame — the shard the last pull moved landed as served, and both
    // ends remember it so — its shard proposed, it alone examined — in
    // fewer bytes of every kind than the same pull costs a fresh dial,
    // which ships the vector, is offered children and compares a child.
    let warm_pull_of_one_key = |warm: optrep_kv::KvSyncReport, mirror: optrep_kv::KvSyncReport| {
        assert_eq!(warm.digests_sent, 0, "{warm:?}");
        let offered = |r: &optrep_kv::KvSyncReport| (r.shards_proposed, r.shards_refined);
        assert_eq!((offered(&warm), offered(&mirror)), ((1, 0), (0, 1)));
        assert_eq!((warm.keys_examined, warm.keys_fast_forwarded), (1, 1));
        // Framing: 14 B for the one key pushed — the push frame's header
        // and tag, the image's count, the key and its two heads — against
        // the 100 B or so a fresh dial frames naming a child's keys (18
        // while the push framed its name, its element and its value
        // apart).
        assert_eq!(warm.framing_bytes, 14, "{warm:?}");
        assert!(mirror.framing_bytes > 3 * warm.framing_bytes, "{mirror:?}");
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
    // The same socket again. Its one dirty shard proposed, the warm
    // pull is the push: two link turns, the planning turn's and the
    // FIN's, by the daemon's `optrep_contact_link_turns`.
    let link_turns = |node: &Node| {
        let metrics = node.metrics_snapshot();
        let turns = metrics.histogram("optrep_contact_link_turns");
        turns.expect("family").sum
    };
    let before = link_turns(&dst);
    let (warm, mirror) = round(&src, &mut link, "key-424");
    assert!(link_turns(&dst) - before <= 2, "{warm:?}");
    warm_pull_of_one_key(warm, mirror);
    // Converged and asked again: nothing to ship but the check, and
    // nothing to propose where no shard differs.
    let (idle, mirror) = round(&src, &mut link, "");
    assert_eq!(
        (idle.digests_sent, idle.shards_skipped),
        (0, 16),
        "{idle:?}"
    );
    assert_eq!(idle.meta_bytes, mirror.meta_bytes);
    assert_eq!(idle.digest_bytes, 19);
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
    // again, in two turns.
    let before = link_turns(&dst);
    let (warm, mirror) = round(&src, &mut link, "key-200");
    assert!(link_turns(&dst) - before <= 2, "{warm:?}");
    warm_pull_of_one_key(warm, mirror);

    // The counters add up, too.
    let sent: u64 = [16, 0, 0, 0, 16, 0].iter().sum();
    let metrics = dst.metrics_snapshot();
    let counter = |name: &str| metrics.counter(name);
    assert_eq!(counter("optrep_planner_digests_sent_total"), Some(sent));
    assert_eq!(counter("optrep_planner_shards_proposed_total"), Some(2));
    // The source's journal still reaches back over every write the
    // store has seen: 960 keys and four rewrites, under the cap.
    let lag = src
        .metrics_snapshot()
        .gauge("optrep_store_journal_floor_lag");
    assert_eq!(lag, Some(964));
    dst.stop();
    src.stop();
}
