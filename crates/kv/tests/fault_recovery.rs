//! Chaos and socket-failure recovery for `KvStore` pulls.
//!
//! Tier-1 coverage for the fault-injection layer: a seeded 16-store
//! cluster must converge under 10% frame loss with zero panics, under
//! the invariant-checking sink, and a refused dial, a peer dying
//! mid-frame and a stalled peer must each abort a pull over a real
//! socket with both stores byte-identical to their pre-contact state,
//! after which clean pulls converge the pair. (A cut at every byte of an
//! in-process pull is `contact_paths`'s sweep, in
//! `crates/replication/tests`.)

use optrep_core::obs::{self, CheckSink, Sink, SyncEvent};
use optrep_core::rng::SplitMix64;
use optrep_core::{Error, Result, SiteId};
use optrep_kv::{KvCluster, KvStore};
use optrep_net::{ConnectOptions, TcpLink};
use optrep_replication::{pull_planned, ContactReport, FaultPlan, VectorMemory};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Builds the 16-store chaos cluster of the acceptance criteria: six
/// keys spread over the first four stores plus one conflicting burst,
/// under a 10% seeded frame drop with the default retries. One shard a
/// store, as in E9, so the keys share a shard and a pull between stores
/// that both hold keys walks them as streams (at sixteen shards six keys
/// never share one, and every pull is a bulk load or a skip).
fn chaos_cluster() -> KvCluster {
    let mut cluster = KvCluster::new(16, 1).with_fault(FaultPlan::dropping(0xD10, 100));
    for i in 0..6u32 {
        let store = cluster.store_mut(SiteId::new(i % 4));
        store.put(format!("key{i}"), format!("seed{i}"));
    }
    for i in 0..2u32 {
        let store = cluster.store_mut(SiteId::new(i));
        if store.meta("key0").is_some() {
            store.put("key0", format!("burst{i}"));
        }
    }
    cluster
}

/// The gossip-schedule seed: `OPTREP_CHAOS_SEED` when set (CI runs a
/// fixed matrix of them), a fixed default otherwise.
fn chaos_seed() -> u64 {
    std::env::var("OPTREP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x16C)
}

/// The invariant-checking sink, and counts of the exchanges that began,
/// of those that aborted whole (a `SessionAborted` on stream 0) and of
/// the frames sent on a key's stream rather than the control stream.
#[derive(Default)]
struct Audit {
    check: CheckSink,
    begun: AtomicU64,
    aborted: AtomicU64,
    stream_frames: AtomicU64,
}

impl Sink for Audit {
    fn wants_oracle(&self) -> bool {
        self.check.wants_oracle()
    }

    fn record(&self, event: &SyncEvent) {
        match event {
            SyncEvent::ContactBegin { .. } => self.begun.fetch_add(1, Ordering::Relaxed),
            SyncEvent::FrameTx { stream, .. } if *stream != 0 => {
                self.stream_frames.fetch_add(1, Ordering::Relaxed)
            }
            SyncEvent::SessionAborted { stream: 0, .. } => {
                self.aborted.fetch_add(1, Ordering::Relaxed)
            }
            _ => 0,
        };
        self.check.record(event);
    }
}

/// The headline acceptance criterion: a seeded 10% frame-drop plan on a
/// 16-store cluster converges through the contact engine, every contact
/// the daemon's planned pull, with zero panics, while the
/// invariant-checking sink — installed once around the rounds, which
/// run their contacts where they are called — audits every event.
/// (That an aborted attempt left its store untouched is asserted inside
/// the cluster's attempt in debug builds, which tests are.)
#[test]
fn sixteen_sites_converge_under_ten_percent_frame_loss() {
    let sink = Arc::new(Audit::default());
    let (rounds, reports) = obs::with(sink.clone(), || {
        let mut rng = SplitMix64::new(chaos_seed());
        let mut cluster = chaos_cluster();
        let mut reports = Vec::new();
        let mut rounds = None;
        for round in 1..=300u64 {
            reports.push(
                cluster
                    .round(&mut rng)
                    .expect("staging never fails on our own wire format"),
            );
            if cluster.converged() {
                rounds = Some(round);
                break;
            }
        }
        (rounds, reports)
    });
    let rounds = rounds.expect("16 stores must converge under 10% loss within 300 rounds");
    let committed: u64 = reports.iter().map(|r| r.contacts).sum();
    let aborted: u64 = reports.iter().map(|r| r.aborted).sum();
    let check = &sink.check;
    check.finish().expect("every contact ends or aborts");
    assert_eq!(
        check.checked_contacts(),
        committed,
        "the sink audits every committed pull's exchange"
    );
    assert!(
        sink.stream_frames.load(Ordering::Relaxed) > 0,
        "pulls under loss must walk streams, not only bulk-load and skip"
    );
    // An attempt aborted in its object exchange emits a whole-contact
    // SessionAborted; one aborted in the planning turn, before the
    // exchange opens its obs scope, emits none. So every exchange that
    // began either committed or aborted whole, and the whole-contact
    // aborts are the aborted attempts less those of the planning turn.
    let exchange_aborts = sink.aborted.load(Ordering::Relaxed);
    assert_eq!(
        sink.begun.load(Ordering::Relaxed),
        committed + exchange_aborts
    );
    assert!(
        0 < exchange_aborts && exchange_aborts <= aborted,
        "{exchange_aborts} exchanges of {aborted} aborted attempts over {rounds} rounds"
    );
    assert!(
        check.aborted() >= exchange_aborts,
        "aborts flow through the sink"
    );
}

// ---------------------------------------------------------------------
// TcpLink failure modes.
//
// The recovery contract of the fault-injection layer over real sockets:
// a refused dial, a peer dying mid-frame, and a stalled peer tripping
// the read deadline must each abort the pull with both stores
// byte-identical to their pre-contact state, and clean follow-up pulls
// must still converge the pair.

/// A pair mid-history at one shard, so every key is in one incremental
/// shard: the source is ahead on `obj` (a fast-forward stream), holds a
/// key the puller has never seen (discovery), and — when `diverge` —
/// the puller wrote `obj` too (reconcile).
fn dirty_pair(tokens: &[&str], diverge: bool) -> (KvStore, KvStore) {
    let mut dst = KvStore::with_shards(SiteId::new(0), 1);
    let mut src = KvStore::with_shards(SiteId::new(1), 1);
    src.put("obj", "seed");
    dst.sync(&src).run().expect("clean bootstrap pull");
    for token in tokens {
        src.put("obj", token.to_string());
    }
    src.put("fresh", "new");
    if diverge {
        dst.put("obj", "local");
    }
    (dst, src)
}

/// Converges the pair over clean pulls after a fault, pulling both ways
/// so a reconciliation's Parker §C increment also propagates back.
fn settle_pair(dst: &mut KvStore, src: &mut KvStore) {
    for _ in 0..4 {
        dst.sync(src).run().expect("clean follow-up pull");
        src.sync(dst).run().expect("clean follow-up pull");
        if dst.consistent_with(src) {
            return;
        }
    }
    panic!("clean follow-up pulls failed to converge the pair");
}

/// Both stores, byte for byte.
fn images(dst: &KvStore, src: &KvStore) -> (bytes::Bytes, bytes::Bytes) {
    (dst.encode_snapshot(), src.encode_snapshot())
}

/// One planned pull of `dst` from whatever listens at `addr`, over a
/// real socket, exactly as a daemon starts one — nothing committed.
fn tcp_pull(dst: &KvStore, addr: SocketAddr) -> Result<ContactReport> {
    // One attempt and short deadlines: these tests *want* the failure.
    let opts = ConnectOptions::new()
        .attempts(1)
        .backoff(Duration::from_millis(1), Duration::from_millis(2))
        .timeouts(
            Some(Duration::from_millis(200)),
            Some(Duration::from_millis(200)),
        );
    let mut link = TcpLink::connect(addr, &opts)?;
    let digests = dst.shard_digest_vector();
    let pulled = pull_planned(
        &mut link,
        &mut VectorMemory::default(),
        &digests,
        |plan, pushed| dst.client_endpoint_refined(plan, pushed, dst.generation()),
    );
    // One-shot connection: close it behind a completed contact.
    pulled.map(|(_, _, report)| report).inspect(|_| link.fin())
}

#[test]
fn tcp_connect_refused_leaves_metadata_byte_identical() {
    let (mut dst, mut src) = dirty_pair(&["t1", "t2"], true);
    let before = images(&dst, &src);
    // Bind then immediately drop: the kernel refuses the dial.
    let dead = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.local_addr().expect("bound address")
    };
    let err = tcp_pull(&dst, dead).expect_err("dial must fail");
    assert!(matches!(err, Error::ConnectionLost { .. }), "{err:?}");
    assert_eq!(images(&dst, &src), before, "refused dial mutated a store");
    settle_pair(&mut dst, &mut src);
}

#[test]
fn tcp_peer_death_mid_frame_leaves_metadata_byte_identical() {
    let (mut dst, mut src) = dirty_pair(&["t1"], true);
    let before = images(&dst, &src);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let killer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 4096];
        let _ = stream.read(&mut buf);
        // A frame header promising more payload than will ever arrive,
        // then a hangup mid-frame.
        let _ = stream.write_all(&[3, 200, 1, 2, 3]);
        drop(stream);
    });
    let err = tcp_pull(&dst, addr).expect_err("mid-frame death must abort");
    assert!(
        matches!(err, Error::ConnectionLost { .. } | Error::Incomplete { .. }),
        "{err:?}"
    );
    killer.join().expect("killer thread");
    assert_eq!(
        images(&dst, &src),
        before,
        "mid-frame death mutated a store"
    );
    settle_pair(&mut dst, &mut src);
}

#[test]
fn tcp_read_timeout_aborts_without_mutation() {
    let (mut dst, mut src) = dirty_pair(&["t1"], false);
    let before = images(&dst, &src);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let stall = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Swallow the puller's digest vector and answer nothing: the
        // read deadline must fire. The loop drains until the aborting
        // puller FINs, so the thread always exits.
        let mut buf = [0u8; 4096];
        while stream.read(&mut buf).map(|n| n > 0).unwrap_or(false) {}
    });
    let err = tcp_pull(&dst, addr).expect_err("stalled peer must time out");
    assert!(matches!(err, Error::Incomplete { .. }), "{err:?}");
    stall.join().expect("stall thread");
    assert_eq!(images(&dst, &src), before, "timeout abort mutated a store");
    settle_pair(&mut dst, &mut src);
}
