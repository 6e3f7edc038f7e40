//! Durable daemons in a cluster: a restart recovers the identical store,
//! a pull's commit never clobbers a write racing its guard, retried pulls
//! stay in step on their connection, and the WAL counters show only
//! where a node is durable.

use optrep_core::SiteId;
use optrep_net::ConnectOptions;
use optrep_server::{Client, Node, NodeConfig};
use std::time::{Duration, Instant};

mod support;
use support::*;

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
