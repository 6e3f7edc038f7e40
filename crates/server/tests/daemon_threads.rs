//! A daemon's threads: their count does not grow with connections, the
//! gossip thread converges on its own, writes racing a pull survive, the
//! worker's events reach the sinks installed at start, the metrics verb
//! counts what the daemon did, and an idle daemon stops spinning.

use optrep_core::SiteId;
use optrep_server::{Client, Node, NodeConfig};
use std::time::Duration;

mod support;
use support::*;

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
    // A version of the puller's own: the shard is walked, not
    // bulk-loaded, so the contact has an exchange to count.
    dst.with_store(|s| s.put("observed", "mine"));
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

/// A daemon polls only briefly after its last request before it
/// sleeps: over an idle window after a burst of verbs its reactor's
/// wake counter moves by a few wakes at most (the idle poll's
/// deadline), never by the thousands a wait that kept spinning would
/// count.
#[test]
fn an_idle_daemon_stops_spinning_after_a_burst_of_verbs() {
    let node = start_node(0);
    let mut client = Client::connect(node.addr(), &fast_connect()).expect("connect");
    for i in 0..500 {
        let key = format!("k{i}");
        client.put(&key, format!("v{i}")).expect("put");
        assert!(client.get(&key).expect("get").is_some());
    }
    let wakes = || {
        node.metrics_snapshot()
            .counter("optrep_reactor_wakes_total")
            .expect("family")
    };
    let busy = wakes();
    assert!(busy >= 1_000, "one wake a verb at least: {busy}");
    let before = wakes();
    std::thread::sleep(Duration::from_millis(200));
    let idle = wakes() - before;
    assert!(idle <= 3, "{idle} wakes over 200 ms of idle");
    drop(client);
    node.stop();
}
