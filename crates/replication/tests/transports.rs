//! One contact loop, many links: every transport prices and finishes a
//! contact identically — planned or not — and the two ends of a
//! connection remember what its contacts served alike.

use bytes::Bytes;
use optrep_core::error::WireError;
use optrep_core::obs::metrics::MetricsRegistry;
use optrep_core::obs::{self, CheckSink, RingSink, SyncEvent};
use optrep_core::rng::SplitMix64;
use optrep_core::{Causality, Error, Result, RotatingVector, SiteId, Srv};
use optrep_kv::{Committed, JoinResolver, KvStore, KvSyncReport};
use optrep_net::{ConnPool, ConnectOptions, FaultyLink, FrameLink, TcpLink};
use optrep_replication::mux::TURN_STREAM;
use optrep_replication::planner::shard_of;
use optrep_replication::{
    pull_contact, pull_planned, run_contact, serve_contact, serve_from, BatchPullClient,
    BatchPullServer, ContactAsk, ContactReport, DigestVector, Faulted, InProcessLink, Serving,
    ShardPlan, VectorMemory,
};
use std::cell::RefCell;
use std::sync::{mpsc, Arc, Mutex};

mod support;
use support::unplanned::unplanned_pull;
use support::*;

// ---------------------------------------------------------------------
// (a) Every transport agrees.

/// What one transport made of a case: the report, the per-stream
/// outcomes, and the puller's `FrameTx` sequence.
#[derive(Debug, PartialEq)]
struct Observed {
    report: ContactReport,
    outcomes: Vec<Finished>,
    frames: Vec<(u64, bool, u64, u64, u64, u64)>,
}

/// Runs `pull` on this thread under a ring sink and collects what it
/// produced. Serving threads install no sink, so the ring sees exactly
/// the puller's events on every transport.
fn observe(
    case: &Case,
    pull: impl FnOnce(&mut BatchPullClient, BatchPullServer) -> Result<ContactReport>,
) -> Observed {
    let ring = Arc::new(RingSink::new(1 << 16));
    let (report, outcomes) = obs::with(ring.clone(), || pull_case(case, pull));
    let frames = ring
        .events()
        .into_iter()
        .filter_map(|ev| match ev {
            SyncEvent::FrameTx {
                stream,
                client,
                compare,
                meta,
                framing,
                payload,
                ..
            } => Some((stream, client, compare, meta, framing, payload)),
            _ => None,
        })
        .collect();
    Observed {
        report,
        outcomes,
        frames,
    }
}

/// Runs `pull` on this thread with whatever sinks it has installed:
/// the report and the per-stream outcomes.
fn pull_case(
    case: &Case,
    pull: impl FnOnce(&mut BatchPullClient, BatchPullServer) -> Result<ContactReport>,
) -> (ContactReport, Vec<Finished>) {
    let (mut client, server) = case.endpoints();
    let report = pull(&mut client, server).unwrap_or_else(|e| panic!("{}: {e}", case.name));
    (report, finished(client))
}

fn over_channel(
    client: &mut BatchPullClient,
    mut server: BatchPullServer,
) -> Result<ContactReport> {
    let (mut near, mut far) = channel_pair();
    let serving = std::thread::spawn(move || serve_contact(&mut server, &mut far));
    let report = pull_contact(client, &mut near);
    serving.join().expect("server thread")?;
    report
}

fn over_tcp(client: &mut BatchPullClient, mut server: BatchPullServer) -> Result<ContactReport> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let opts = ConnectOptions::new();
    let serving = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut link = TcpLink::from_stream(stream, &opts)?;
        serve_contact(&mut server, &mut link)
    });
    let mut link = TcpLink::connect(addr, &opts)?;
    let report = pull_contact(client, &mut link);
    link.fin();
    serving.join().expect("server thread")?;
    report
}

#[test]
fn every_transport_prices_and_finishes_a_contact_identically() {
    for case in [empty_case(), one_object_case(), many_objects_case()] {
        let reference = observe(&case, |c, mut s| run_contact(c, &mut s));
        assert_eq!(
            reference.frames.len() as u64,
            reference.report.frames,
            "{}: one FrameTx per accounted frame",
            case.name
        );
        // A report does not depend on the event stream: unwatched, the
        // same pull prices and finishes the same.
        assert!(!obs::enabled());
        let (report, outcomes) = pull_case(&case, |c, mut s| run_contact(c, &mut s));
        assert_eq!(report, reference.report, "{}: no sink", case.name);
        assert_eq!(outcomes, reference.outcomes, "{}: no sink", case.name);
        let channel = observe(&case, over_channel);
        assert_eq!(channel, reference, "{}: channel pair", case.name);
        let tcp = observe(&case, over_tcp);
        assert_eq!(tcp, reference, "{}: loopback tcp", case.name);
        let mut weather = FaultyLink::clean();
        let faulted = observe(&case, |c, mut s| {
            pull_contact(
                c,
                &mut Faulted::new(InProcessLink::new(&mut s), &mut weather),
            )
        });
        assert_eq!(faulted, reference, "{}: clean fault plan", case.name);
        assert_eq!(weather.stats().frames_delivered, reference.report.frames);
        assert_eq!(
            weather.stats().bytes_delivered,
            reference.report.total_bytes
        );
    }
}

/// All objects equal: the whole contact is one Hello/ServerFirst
/// exchange, zero payload bytes, one blocking round trip — on a link as
/// in-process.
#[test]
fn identical_pair_is_compare_only_over_a_link() {
    let objects: ClientObjects = (0..4u32)
        .map(|i| {
            (
                Bytes::from(vec![b'o', i as u8]),
                updated(Srv::new(), &[1, 2]),
            )
        })
        .collect();
    let case = Case {
        name: "identical",
        server: objects
            .iter()
            .map(|(n, v)| (n.clone(), v.clone(), Bytes::new()))
            .collect(),
        client: objects,
    };
    let report = observe(&case, over_channel).report;
    assert_eq!(report.payload_bytes, 0);
    assert_eq!(report.round_trips, 1);
}

/// One planned pull of `dst` from `src` over every link: the same
/// contact each time, ending where the in-memory reference does and
/// where an unplanned pull would. `verdicts` is the plan's `(total,
/// skipped, incremental, snapshot, refined)`; `planner_frames` what the
/// planning turn puts on the wire beside the exchange's frames.
fn planned_pull_is_the_same_over_every_link(
    dst: KvStore,
    src: KvStore,
    verdicts: (u64, u64, u64, u64, u64),
    planner_frames: u64,
) {
    let mut unplanned = dst.clone();
    unplanned_pull(&mut unplanned, &src);

    let mut reference = dst.clone();
    let synced = reference.sync(&src).run().expect("reference");
    assert_eq!(reference.replica_digest(), unplanned.replica_digest());
    assert!(reference.consistent_with(&unplanned));

    let mut source = source_of(&src);
    let mut in_process = dst.clone();
    let mut serving = Serving::default();
    let link = &mut InProcessLink::serving(&mut serving, &mut source);
    let (contact, pulled) = planned_pull(&mut in_process, link).expect("in-process");
    assert_eq!(pulled, synced);
    assert_eq!(in_process.replica_digest(), reference.replica_digest());
    let planned = (
        contact.shards_total,
        contact.shards_skipped,
        contact.shards_incremental,
        contact.shards_snapshot,
        contact.shards_refined,
    );
    assert_eq!(planned, verdicts);

    let mut weather = FaultyLink::clean();
    let mut faulted = dst.clone();
    let pulled = planned_pull(
        &mut faulted,
        &mut Faulted::new(
            InProcessLink::serving(&mut Serving::default(), &mut source),
            &mut weather,
        ),
    );
    assert_eq!(pulled.expect("clean fault plan"), (contact, synced));
    assert_eq!(faulted.replica_digest(), reference.replica_digest());
    // The weather saw the planner frames beside the exchange's.
    assert_eq!(
        weather.stats().frames_delivered,
        contact.frames + planner_frames
    );
    assert_eq!(
        weather.stats().bytes_delivered,
        contact.total_bytes + contact.digest_bytes
    );

    let (mut near, far) = channel_pair();
    let serving = serving_thread(src.clone(), far);
    let mut channel = dst.clone();
    let pulled = planned_pull(&mut channel, &mut near);
    serving.join().expect("server thread").expect("serve");
    assert_eq!(pulled.expect("channel pair"), (contact, synced));
    assert_eq!(channel.replica_digest(), reference.replica_digest());

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let opts = ConnectOptions::new();
    let accepting = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        TcpLink::from_stream(stream, &opts).expect("accepted link")
    });
    let mut link = TcpLink::connect(addr, &opts).expect("dial");
    let serving = serving_thread(src.clone(), accepting.join().expect("accept thread"));
    let mut tcp = dst.clone();
    let pulled = planned_pull(&mut tcp, &mut link);
    link.fin();
    serving.join().expect("server thread").expect("serve");
    assert_eq!(pulled.expect("loopback tcp"), (contact, synced));
    assert_eq!(tcp.replica_digest(), reference.replica_digest());
}

/// A planned pull — clean, dirty and never-populated shards, 4 against
/// 16 shards — is the same contact over every link.
#[test]
fn every_transport_runs_a_planned_pull_identically() {
    let (dst, src) = planned_stores();
    planned_pull_is_the_same_over_every_link(dst, src, (4, 1, 2, 1, 0), 2);
}

/// So is a refined one — 16 against 64 shards, three dirty shards cut
/// at their children — with the scope frame the third planner frame.
#[test]
fn every_transport_runs_a_refined_pull_identically() {
    let (dst, src) = refined_stores();
    planned_pull_is_the_same_over_every_link(dst, src, (16, 13, 3, 0, 3), 3);
}

/// One planned pull of `dst` from `src` in which both stores are
/// written to *between* the plan and the puller's answer to it — after
/// the server fixed its plan, before the puller compares children and
/// builds its endpoint, and so before the server builds its own.
/// `refined` picks the endpoint cut at the children or the flat one.
/// Returns what the commit changed.
fn raced_pull(
    dst: &mut KvStore,
    src: &RefCell<KvStore>,
    races: &[(bool, String, String)],
    refined: bool,
) -> (Vec<String>, KvSyncReport) {
    let mut source = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
    let mut serving = Serving::default();
    let mut link = InProcessLink::serving(&mut serving, &mut source);
    let (digests, digested_at) = (dst.shard_digest_vector(), dst.generation());
    let mut fresh = VectorMemory::default();
    let (client, plan, contact) = pull_planned(&mut link, &mut fresh, &digests, |plan, push| {
        for (at_source, key, value) in races {
            match at_source {
                true => src.borrow_mut().put(key.clone(), value.clone()),
                false => dst.put(key.clone(), value.clone()),
            }
        }
        match refined {
            true => dst.client_endpoint_refined(plan, push, digested_at),
            false => Ok(dst
                .client_endpoint_for(&plan.incremental, plan.count as usize)
                .into()),
        }
    })
    .expect("pull");
    let (synced, mut changed) = dst
        .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
        .expect("commit");
    changed.sort();
    (changed, synced)
}

/// From any pair of stores — any of 1, 16 and 256 shards on either
/// side, sparse or dense divergence, writes racing in on both sides
/// between the plan and the scope — the pull cut at the children and
/// the pull over whole shards change the same keys and end in the same
/// state, the keys the source wrote after its plan aside: the serving
/// endpoint is built once the scope is known, so the flat walk meets
/// such a key in any incremental shard and the cut one only under a
/// child it lists. Either way the next pull brings it.
#[test]
fn refined_and_flat_pulls_commit_the_same_state() {
    let mut rng = SplitMix64::new(0x0000_F1A7_0C47_5EED);
    let (mut refined_shards, mut parted) = (0, 0);
    for case in 0..36u64 {
        let pull_shards = [1, 16, 256][(case % 3) as usize];
        let serve_shards = [1, 16, 256][(case / 3 % 3) as usize];
        let keys = 600 + (rng.next_u64() % 2400) as usize;
        let pick = |rng: &mut SplitMix64| format!("k{:04}", rng.next_u64() % keys as u64);
        let mut src = KvStore::with_shards(SiteId::new(1), serve_shards);
        let mut dst = KvStore::with_shards(SiteId::new(0), pull_shards);
        for i in 0..keys {
            src.put(format!("k{i:04}"), format!("base{i}"));
        }
        dst.sync(&src).run().expect("bootstrap");
        // Sparse cases move a handful of keys, dense ones a tenth.
        let moved = match case % 4 {
            0 => keys / 10,
            _ => 1 + (rng.next_u64() % 6) as usize,
        };
        for i in 0..moved {
            let key = pick(&mut rng);
            match rng.next_u64() % 6 {
                0 => src.delete(key),
                1 => src.put(format!("new-{case}-{i}"), "created"),
                2 => dst.put(format!("mine-{case}-{i}"), "local"),
                3 => {
                    src.put(key.clone(), "theirs");
                    dst.put(key, "ours");
                }
                _ => src.put(key, format!("ahead{i}")),
            }
        }
        let races: Vec<(bool, String, String)> = (0..rng.next_u64() % 4)
            .map(|i| {
                let at_source = rng.next_u64() & 1 == 0;
                let key = match rng.next_u64() % 3 {
                    0 => format!("raced-{case}-{i}"),
                    _ => pick(&mut rng),
                };
                (at_source, key, format!("raced{i}"))
            })
            .collect();

        let (mut flat_dst, flat_src) = (dst.clone(), RefCell::new(src.clone()));
        let (flat_changed, _) = raced_pull(&mut flat_dst, &flat_src, &races, false);
        let src = RefCell::new(src);
        let (changed, synced) = raced_pull(&mut dst, &src, &races, true);
        let at = format!("case {case}: {pull_shards} from {serve_shards} shards, {keys} keys");
        let settled = |changed: &[String]| -> Vec<String> {
            let raced = |key: &String| races.iter().any(|(at, raced, _)| *at && raced == key);
            changed.iter().filter(|key| !raced(key)).cloned().collect()
        };
        assert_eq!(settled(&changed), settled(&flat_changed), "{at}");
        assert!(
            changed.iter().all(|key| flat_changed.contains(key)),
            "{at}: the cut serves nothing the walk does not"
        );
        if changed == flat_changed {
            assert_eq!(
                dst.replica_digest_full(),
                flat_dst.replica_digest_full(),
                "{at}"
            );
            assert!(dst.consistent_with(&flat_dst), "{at}");
        } else {
            parted += 1;
        }
        assert_eq!(dst.replica_digest(), dst.replica_digest_full(), "{at}");
        refined_shards += synced.shards_refined;

        // Once the racing writes have settled, a second pull converges
        // on what the source holds.
        let (_, again) = raced_pull(&mut dst, &src, &[], true);
        let mut full = flat_dst.clone();
        unplanned_pull(&mut full, &flat_src.borrow());
        assert_eq!(
            dst.replica_digest_full(),
            full.replica_digest_full(),
            "{at}"
        );
        refined_shards += again.shards_refined;
    }
    assert!(refined_shards > 20, "the cases must exercise refinement");
    assert!(parted > 0, "a source's late write must land outside a cut");
}

/// The server vanishes after the opening burst; the puller must get a
/// connection error, not hang or report success.
#[test]
fn peer_death_mid_contact_aborts_the_pull() {
    let (mut client, _) = one_object_case().endpoints();
    let (mut near, mut far) = channel_pair();
    let dying = std::thread::spawn(move || {
        while matches!(far.recv_frame(), Ok(frame) if frame.stream != TURN_STREAM) {}
    });
    let err = pull_contact(&mut client, &mut near).unwrap_err();
    dying.join().expect("server thread");
    assert!(matches!(err, Error::ConnectionLost { .. }), "{err:?}");
}

// ---------------------------------------------------------------------
// (e) What a contact served, both ends remember as served: a memory the
// two ends do not share is caught at the check, and none goes unshared.

/// A source serving, one at a time, every connection a pool dials to it:
/// the pool's handshake read, then contacts through one [`Serving`]
/// until the link fails, and the error that ended it sent on. It waits
/// for the next dial until a connection ends with the receiver gone:
/// drop the receiver, then the pool, then join.
fn serve_dials(
    src: Arc<Mutex<KvStore>>,
) -> (
    std::net::SocketAddr,
    mpsc::Receiver<Error>,
    std::thread::JoinHandle<()>,
) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let (tx, rx) = mpsc::channel();
    // Idle between pulls for as long as the test likes.
    let opts = ConnectOptions::new().timeouts(None, Some(std::time::Duration::from_secs(5)));
    let serving = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let Ok(mut link) = TcpLink::from_stream(stream, &opts) else {
                continue;
            };
            let mut source = |ask: ContactAsk<'_>| src.lock().unwrap().open_contact(ask);
            let mut serving = Serving::default();
            let ended = match link.recv_frame() {
                Ok(_handshake) => loop {
                    if let Err(e) = serve_from(&mut serving, &mut source, &mut link) {
                        break e;
                    }
                },
                Err(e) => e,
            };
            if tx.send(ended).is_err() {
                return;
            }
        }
    });
    (addr, rx, serving)
}

/// A memory the two ends do not share costs a contact, never a plan.
/// Shard 7, where the puller holds a key of its own, was served and
/// kept at the digest the puller sent; a puller that remembers it at
/// what the shard now holds instead — a hand-built memory, equal to the
/// real one elsewhere — remembers a digest the server does not. The
/// next contact's delta leaves the shard out,
/// the server's patched vector fails the check, the contact dies at its
/// opening frame, and the pool discards the link and redials: the rerun
/// sends the whole vector, is proposed nothing, and converges — no dirty
/// shard skipped — under the invariant-checking sink.
#[test]
fn as_served_a_wrong_memory_costs_a_contact_never_a_plan() {
    let (mut dst, src) = refined_stores();
    let src = Arc::new(Mutex::new(src));
    let (addr, ended, serving) = serve_dials(Arc::clone(&src));
    let registry = MetricsRegistry::new();
    let pool: ConnPool<VectorMemory> = ConnPool::new(0, ConnectOptions::new(), &registry);
    let pull = |dst: &mut KvStore| {
        pool.with_conn(addr, |link, remembered| {
            planned_pull_on(dst, link, remembered)
        })
    };
    let (first, _) = pull(&mut dst).expect("the first pull");
    assert_eq!(first.digests_sent, 16);
    // Shard 7 was served — its incremental shards are 2, 7 and 11 — and
    // kept as sent: a key of the puller's own is there. The first pull
    // moved the shard, so the memory is not what it holds now.
    let mine = dst.shard_digest_vector().shards[7];
    pool.with_conn(addr, |_, remembered| {
        let mut wrong = DigestVector {
            shards: (0..16)
                .map(|s| remembered.digest(s).expect("16 shards"))
                .collect(),
        };
        assert_eq!(remembered.opening_frame(&wrong).1, 0, "no shard is marked");
        assert_ne!(wrong.shards[7], mine, "shard 7 is kept as sent");
        wrong.shards[7] = mine;
        remembered.remember(&wrong, []);
        Ok(())
    })
    .expect("a pooled connection");
    source_moves_on(&mut src.lock().unwrap());

    let check = Arc::new(CheckSink::new());
    let (rerun, synced) = obs::with(check.clone(), || pull(&mut dst)).expect("the rerun commits");
    check.finish().expect("the contact ends");
    let totals = pool.totals();
    let redial = (totals.dials, totals.discards, totals.stale_reruns);
    assert_eq!(redial, (2, 1, 1), "{totals:?}");
    let refused = (ended.recv_timeout(std::time::Duration::from_secs(5)))
        .expect("the first connection ended");
    assert!(
        matches!(refused, Error::Wire(WireError::InvalidPayload)),
        "the server refused the delta at its check: {refused:?}"
    );
    assert_eq!((rerun.digests_sent, rerun.shards_total), (16, 16));
    assert_eq!(
        rerun.shards_proposed, 0,
        "a new serving end proposes nothing"
    );
    assert_eq!(
        check.checked_contacts(),
        1,
        "the refused contact opened no scope"
    );
    assert!(synced.keys_created + synced.keys_fast_forwarded > 0);
    let mut full = dst.clone();
    unplanned_pull(&mut full, &src.lock().unwrap());
    assert_eq!(dst.replica_digest_full(), full.replica_digest_full());
    drop((ended, pool));
    serving.join().expect("the serving thread");
}

/// What a seeded run of pulls over one pooled connection met, summed
/// over its seeds: each is a path the as-served memories must survive.
#[derive(Debug, Default)]
struct Met {
    bulk_loaded: u64,
    proposed: u64,
    reconciled: u64,
    ahead: u64,
    raced: u64,
    /// Children the source held nothing of and the puller something.
    empty_children: u64,
    landed: u64,
    warm_deltas: u64,
}

/// The both ends' memories of the shards contacts served stay in step
/// over seeded schedules that throw everything at them — a writing
/// puller, keys it holds ahead of the source, reconciliations, a write
/// racing the commit (the exchange thrown away and rerun on the same
/// link, as a daemon does), bulk-loaded shards, proposals and children
/// the source holds nothing of — pulled over one pooled
/// connection: no contact fails its check
/// (`optrep_pool_discards_total` stays 0), warm contacts open with a
/// delta, no shard crosses again and again once the writes stop, and
/// the puller ends where an unplanned pull ends.
#[test]
fn as_served_memories_stay_in_step_over_seeded_contacts() {
    let mut met = Met::default();
    optrep_core::rng::cases(6, |seed, rng| {
        let src = Arc::new(Mutex::new(KvStore::with_shards(SiteId::new(1), 16)));
        let keys: Vec<String> = (0..400).map(|i| format!("key-{seed}-{i}")).collect();
        for key in &keys {
            src.lock().unwrap().put(key.clone(), "base");
        }
        let mut dst = KvStore::with_shards(SiteId::new(0), 16);
        let (addr, ended, serving) = serve_dials(Arc::clone(&src));
        let registry = MetricsRegistry::new();
        let pool: ConnPool<VectorMemory> = ConnPool::new(0, ConnectOptions::new(), &registry);
        for step in 0..40 {
            let key = |rng: &mut SplitMix64| keys[rng.below(keys.len())].clone();
            for _ in 0..rng.below(4) {
                let (key, value) = (key(rng), format!("src {seed}.{step}"));
                match rng.chance(0.1) {
                    true => src.lock().unwrap().delete(key),
                    false => src.lock().unwrap().put(key, value),
                }
            }
            if rng.chance(0.4) {
                let key = match rng.chance(0.5) {
                    true => key_of_its_own(&src.lock().unwrap(), &keys, &format!("{seed}.{step}")),
                    false => key(rng),
                };
                dst.put(key, format!("dst {seed}.{step}"));
            }
            if rng.chance(0.2) {
                src.lock()
                    .unwrap()
                    .sync(&dst)
                    .run()
                    .expect("the source pulls back");
            }
            met.ahead += u64::from(ahead_of(&dst, &src.lock().unwrap()));
            let mut race = rng.chance(0.15).then(|| format!("race-{seed}.{step}"));
            let (report, committed) = pool
                .with_conn(addr, |link, remembered| loop {
                    let digests = dst.shard_digest_vector();
                    let (client, plan, report) =
                        pull_planned(link, remembered, &digests, |plan, push| {
                            dst.client_endpoint_refined(plan, push, dst.generation())
                        })?;
                    if let Some(key) = race.take() {
                        // Abandoned: nothing committed, nothing settled.
                        dst.put(key, "racing");
                        met.raced += 1;
                        continue;
                    }
                    met.empty_children += empty_children_held(&dst, &plan);
                    met.bulk_loaded += plan.bulk.len() as u64;
                    let committed = dst.apply_planned(&JoinResolver, client, &report, &plan)?;
                    remembered.settle(&committed.landed);
                    return Ok((report, committed));
                })
                .unwrap_or_else(|e| panic!("seed {seed}, step {step}: {e}"));
            let Committed {
                report: synced,
                landed,
                ..
            } = committed;
            met.proposed += report.shards_proposed;
            met.reconciled += synced.keys_reconciled as u64;
            met.landed += landed.len() as u64;
            met.warm_deltas += u64::from(step > 0 && report.digests_sent < report.shards_total);
        }
        // Quiet again: a shard the puller holds something of that the
        // source lacks was kept as sent, so it crosses once more after it
        // moved, and then not again — the third quiet pull ships nothing.
        let quiet: Vec<u64> = (0..3)
            .map(|_| {
                let pulled = pool.with_conn(addr, |link, remembered| {
                    planned_pull_on(&mut dst, link, remembered)
                });
                pulled.expect("a quiet pull").0.digests_sent
            })
            .collect();
        assert_eq!(quiet[2], 0, "seed {seed}: {quiet:?}");
        let totals = pool.totals();
        assert_eq!((totals.dials, totals.discards), (1, 0), "{totals:?}");
        let mut full = dst.clone();
        unplanned_pull(&mut full, &src.lock().unwrap());
        assert_eq!(dst.replica_digest_full(), full.replica_digest_full());
        drop((ended, pool));
        serving.join().expect("the serving thread");
    });
    let all = [
        met.bulk_loaded,
        met.proposed,
        met.reconciled,
        met.ahead,
        met.raced,
        met.empty_children,
        met.landed,
    ];
    assert!(all.iter().all(|&n| n > 0), "{met:?}");
    assert!(met.warm_deltas > 6 * 30, "{met:?}");
}

/// A key the source does not hold, placed where — at 128 shards, the
/// children a plan at 16 offers of a shard of about 25 keys — the source
/// holds nothing, if it holds nothing somewhere.
fn key_of_its_own(src: &KvStore, written: &[String], tag: &str) -> String {
    // `written` is every key the source wrote: deleted ones are tracked
    // as tombstones, and `keys` lists the live ones, pulled ones too.
    let tracked = written.iter().cloned().chain(src.keys());
    let held: std::collections::BTreeSet<u64> =
        tracked.map(|key| shard_of(key.as_bytes(), 128)).collect();
    let mine = (0..1000).map(|n| format!("mine-{tag}.{n}"));
    let mut mine = mine.peekable();
    let first = mine.peek().cloned().expect("a key");
    mine.find(|key| !held.contains(&shard_of(key.as_bytes(), 128)))
        .unwrap_or(first)
}

/// Whether the puller holds some key ahead of the source's version.
fn ahead_of(dst: &KvStore, src: &KvStore) -> bool {
    dst.keys().any(|key| {
        let (ours, theirs) = (dst.meta(&key), src.meta(&key));
        ours.zip(theirs).is_some_and(|(ours, theirs)| {
            let (ours, theirs) = (ours.to_version_vector(), theirs.to_version_vector());
            ours.compare(&theirs) == Causality::After
        })
    })
}

/// Of `plan`'s refined shards' children, those the source holds nothing
/// of and the puller holds keys in.
fn empty_children_held(dst: &KvStore, plan: &ShardPlan) -> u64 {
    let Some(children) = &plan.children else {
        return 0;
    };
    let wide = plan.count * children.fanout;
    let held: std::collections::BTreeSet<u64> = dst
        .keys()
        .map(|key| shard_of(key.as_bytes(), wide))
        .collect();
    let mut count = 0;
    for (shard, digests) in &children.parents {
        for (j, child) in (0u64..).zip(digests) {
            let index = shard + j * plan.count;
            count += u64::from(child.entries == 0 && held.contains(&index));
        }
    }
    count
}
