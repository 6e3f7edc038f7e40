//! Mid-session EOF and chaos recovery.
//!
//! Tier-1 coverage for the fault-injection layer: truncating the wire
//! byte-stream at *every* prefix length must leave both replicas with
//! valid, COMPARE-consistent vectors (byte-identical to their
//! pre-contact state, in fact), and a follow-up clean sync must fully
//! converge. A seeded 16-site cluster must converge under 10% frame
//! loss with zero panics, under the invariant-checking sink.

use bytes::BytesMut;
use optrep_core::rng::{cases, SplitMix64};
use optrep_core::{wire, Error, Result, SiteId, Srv};
use optrep_net::{ConnectOptions, FaultPlan, FaultyLink, TcpLink};
use optrep_replication::{
    pull_contact, BatchPullClient, Cluster, ContactOptions, ContactReport, ObjectId, RetryPolicy,
    TokenSet, UnionReconciler,
};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

const OBJ: ObjectId = ObjectId::new(0);

/// A two-site cluster mid-history: site 1 is ahead of site 0 on `OBJ`
/// (fast-forward stream), hosts an object site 0 has never seen
/// (discovery stream), and — when `diverge` — site 0 has a concurrent
/// local update (reconcile stream). One contact exercises every
/// per-stream outcome the transactional apply stages.
fn dirty_pair(tokens: &[String], diverge: bool) -> Cluster<Srv, TokenSet, UnionReconciler> {
    let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(2, UnionReconciler);
    let (a, b) = (SiteId::new(0), SiteId::new(1));
    cluster
        .site_mut(b)
        .create_object(OBJ, TokenSet::singleton("seed"));
    cluster.contact(a, b).expect("clean bootstrap contact");
    for t in tokens {
        cluster.site_mut(b).update(OBJ, |p| {
            p.insert(t.clone());
        });
    }
    cluster
        .site_mut(b)
        .create_object(ObjectId::new(1), TokenSet::singleton("fresh"));
    if diverge {
        cluster.site_mut(a).update(OBJ, |p| {
            p.insert("local".to_string());
        });
    }
    cluster
}

/// Converges the pair over clean contacts after a fault, pulling both
/// ways so a reconciliation's Parker §C increment also propagates back.
fn settle_pair(cluster: &mut Cluster<Srv, TokenSet, UnionReconciler>) {
    let (a, b) = (SiteId::new(0), SiteId::new(1));
    for _ in 0..4 {
        cluster.contact(a, b).expect("clean follow-up contact");
        cluster.contact(b, a).expect("clean follow-up contact");
        if cluster.is_consistent_all() {
            return;
        }
    }
    panic!("clean follow-up contacts failed to converge the pair");
}

/// Cutting the connection after *every* possible byte prefix aborts
/// the contact without mutating either endpoint, and a clean
/// follow-up sync still converges — mid-session EOF can corrupt
/// nothing, no matter where the scissors land.
#[test]
fn truncation_at_every_prefix_is_recoverable() {
    cases(12, |_, rng| {
        let tokens: Vec<String> = (0..rng.range(1..4))
            .map(|_| format!("t{}", rng.below(1 << 16)))
            .collect();
        let diverge = rng.chance(0.5);
        // The loss-free contact measures how many bytes there are to cut.
        let mut reference = dirty_pair(&tokens, diverge);
        let mut link = FaultyLink::clean();
        reference
            .contact_faulty(SiteId::new(0), SiteId::new(1), &mut link)
            .expect("clean faulty link is transparent");
        let total = link.stats().bytes_delivered;
        assert!(total > 0);

        for cut in 0..total {
            let mut cluster = dirty_pair(&tokens, diverge);
            let (a, b) = (SiteId::new(0), SiteId::new(1));
            let before_dst = cluster.site_digest(a);
            let before_src = cluster.site_digest(b);
            let mut link = FaultyLink::new(FaultPlan::disconnect_at(cut));
            let err = cluster.contact_faulty(a, b, &mut link);
            assert!(err.is_err(), "cut at {cut}/{total} bytes did not abort");
            // Both replicas are exactly as they were: valid vectors,
            // COMPARE-consistent with their own pre-contact state.
            assert_eq!(
                cluster.site_digest(a),
                before_dst,
                "dst mutated at cut {cut}"
            );
            assert_eq!(
                cluster.site_digest(b),
                before_src,
                "src mutated at cut {cut}"
            );
            settle_pair(&mut cluster);
            assert!(cluster.is_consistent_all());
        }
    });
}

/// Builds the 16-site chaos cluster of the acceptance criteria: six
/// objects spread over the first four sites plus one conflicting burst.
fn chaos_cluster() -> Cluster<Srv, TokenSet, UnionReconciler> {
    let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(16, UnionReconciler);
    for i in 0..6u64 {
        cluster
            .site_mut(SiteId::new((i % 4) as u32))
            .create_object(ObjectId::new(i), TokenSet::singleton(format!("seed{i}")));
    }
    for i in 0..2u32 {
        let site = SiteId::new(i);
        if cluster.site(site).replica(OBJ).is_some() {
            cluster.site_mut(site).update(OBJ, |p| {
                p.insert(format!("burst{i}"));
            });
        }
    }
    cluster
}

/// The chaos contact options: 10% seeded frame drop, default retries,
/// and a parallel worker pool. Workers default to
/// `OPTREP_ENGINE_WORKERS` (the CI matrix drives 2 and 8); when unset,
/// force a pool of four so the test exercises the engine's concurrent
/// path either way.
fn chaos_opts() -> ContactOptions {
    let opts = ContactOptions::mux()
        .with_fault(FaultPlan::dropping(0xD10, 100))
        .with_retry(RetryPolicy::default());
    if std::env::var_os("OPTREP_ENGINE_WORKERS").is_none() {
        opts.with_workers(4)
    } else {
        opts
    }
}

/// The gossip-schedule seed: `OPTREP_CHAOS_SEED` when set (CI runs a
/// fixed matrix of them), a fixed default otherwise.
fn chaos_seed() -> u64 {
    std::env::var("OPTREP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x16C)
}

/// The headline acceptance criterion: a seeded 10% frame-drop plan on a
/// 16-site cluster converges through the parallel contact engine, with
/// zero panics, while the invariant-checking sink — re-installed on
/// every engine worker — audits every event. (Metadata byte-identity
/// across each aborted attempt is additionally asserted inside the
/// engine's faulty driver in debug builds, which tests are.)
#[cfg(feature = "obs")]
#[test]
fn sixteen_sites_converge_under_ten_percent_frame_loss() {
    use optrep_core::obs::{self, CheckSink};
    use std::sync::Arc;

    let sink = Arc::new(CheckSink::new());
    let (rounds, reports) = obs::with(sink.clone(), || {
        let mut rng = SplitMix64::new(chaos_seed());
        let mut cluster = chaos_cluster();
        let opts = chaos_opts();
        let mut reports = Vec::new();
        let mut rounds = None;
        for round in 1..=300u64 {
            reports.push(
                cluster
                    .round_with(&mut rng, &opts)
                    .expect("staging never fails on our own wire format"),
            );
            if cluster.fully_replicated() {
                rounds = Some(round);
                break;
            }
        }
        (rounds, reports)
    });
    let rounds = rounds.expect("16 sites must converge under 10% loss within 300 rounds");
    let aborted: u64 = reports.iter().map(|r| r.aborted).sum();
    assert!(
        aborted > 0,
        "10% loss over {rounds} rounds should abort something"
    );
    assert!(
        sink.checked_contacts() > 0,
        "the sink must have audited completed contacts"
    );
    // Every aborted attempt emits a whole-contact SessionAborted; any
    // per-stream aborts only add to the sink's count.
    assert!(
        sink.aborted() >= aborted,
        "every abort flows through the sink"
    );
}

/// Without `obs` the same chaos run must still converge silently.
#[cfg(not(feature = "obs"))]
#[test]
fn sixteen_sites_converge_under_ten_percent_frame_loss() {
    let mut rng = SplitMix64::new(chaos_seed());
    let mut cluster = chaos_cluster();
    let opts = chaos_opts();
    let mut converged = false;
    for _ in 1..=300u64 {
        cluster
            .round_with(&mut rng, &opts)
            .expect("staging never fails on our own wire format");
        if cluster.fully_replicated() {
            converged = true;
            break;
        }
    }
    assert!(
        converged,
        "16 sites must converge under 10% loss within 300 rounds"
    );
}

// ---------------------------------------------------------------------
// TcpLink failure modes.
//
// The same recovery contract the fault-injection layer proves above,
// but over real sockets: a refused dial, a peer dying mid-frame, and a
// stalled peer tripping the read deadline must each abort the contact
// with site metadata byte-identical to its pre-contact state, and a
// clean follow-up sync must still converge the pair.

/// Snapshots `dst`'s pull endpoint (exactly as a contact would) and
/// drives one real-socket contact against whatever listens at `addr`.
/// On an abort the endpoint's staged state is abandoned, so a returned
/// error must leave the cluster byte-identical — which the callers
/// assert via [`Cluster::site_digest`].
fn tcp_pull(
    cluster: &Cluster<Srv, TokenSet, UnionReconciler>,
    dst: SiteId,
    addr: SocketAddr,
) -> Result<ContactReport> {
    let site = cluster.site(dst);
    let mut client = BatchPullClient::new(site.objects().into_iter().map(|object| {
        let mut name = BytesMut::new();
        wire::put_varint(&mut name, object.index());
        let meta = site
            .replica(object)
            .expect("listed object exists")
            .meta
            .clone();
        (name.freeze(), meta)
    }));
    // One attempt and short deadlines: these tests *want* the failure.
    let opts = ConnectOptions::new()
        .attempts(1)
        .backoff(Duration::from_millis(1), Duration::from_millis(2))
        .timeouts(
            Some(Duration::from_millis(200)),
            Some(Duration::from_millis(200)),
        );
    let mut link = TcpLink::connect(addr, &opts)?;
    // One-shot connection: close it behind a completed contact.
    pull_contact(&mut client, &mut link).inspect(|_| link.fin())
}

fn digests(cluster: &Cluster<Srv, TokenSet, UnionReconciler>) -> (Vec<u8>, Vec<u8>) {
    (
        cluster.site_digest(SiteId::new(0)),
        cluster.site_digest(SiteId::new(1)),
    )
}

#[test]
fn tcp_connect_refused_leaves_metadata_byte_identical() {
    let tokens = vec!["t1".to_string(), "t2".to_string()];
    let mut cluster = dirty_pair(&tokens, true);
    let before = digests(&cluster);
    // Bind then immediately drop: the kernel refuses the dial.
    let dead = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.local_addr().expect("bound address")
    };
    let err = tcp_pull(&cluster, SiteId::new(0), dead).expect_err("dial must fail");
    assert!(matches!(err, Error::ConnectionLost { .. }), "{err:?}");
    assert_eq!(digests(&cluster), before, "refused dial mutated a site");
    settle_pair(&mut cluster);
    assert!(cluster.is_consistent_all());
}

#[test]
fn tcp_peer_death_mid_frame_leaves_metadata_byte_identical() {
    let tokens = vec!["t1".to_string()];
    let mut cluster = dirty_pair(&tokens, true);
    let before = digests(&cluster);
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
    let err = tcp_pull(&cluster, SiteId::new(0), addr).expect_err("mid-frame death must abort");
    assert!(
        matches!(err, Error::ConnectionLost { .. } | Error::Incomplete { .. }),
        "{err:?}"
    );
    killer.join().expect("killer thread");
    assert_eq!(digests(&cluster), before, "mid-frame death mutated a site");
    settle_pair(&mut cluster);
    assert!(cluster.is_consistent_all());
}

#[test]
fn tcp_read_timeout_aborts_without_mutation() {
    let tokens = vec!["t1".to_string()];
    let mut cluster = dirty_pair(&tokens, false);
    let before = digests(&cluster);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let stall = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Swallow the client's burst and answer nothing: the read
        // deadline must fire. The loop drains until the aborting client
        // FINs, so the thread always exits.
        let mut buf = [0u8; 4096];
        while stream.read(&mut buf).map(|n| n > 0).unwrap_or(false) {}
    });
    let err = tcp_pull(&cluster, SiteId::new(0), addr).expect_err("stalled peer must time out");
    assert!(matches!(err, Error::Incomplete { .. }), "{err:?}");
    stall.join().expect("stall thread");
    assert_eq!(digests(&cluster), before, "timeout abort mutated a site");
    settle_pair(&mut cluster);
    assert!(cluster.is_consistent_all());
}
