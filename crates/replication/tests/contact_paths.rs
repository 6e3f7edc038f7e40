//! One contact loop, many links: every transport must price and finish a
//! contact identically — planned or not — the bytes on the wire are
//! pinned, every cut aborts cleanly, hostile frame sequences fail the
//! two step machines instead of wedging them, and the two ends of a
//! connection remember what its contacts served alike.

use bytes::{Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::obs::metrics::MetricsRegistry;
use optrep_core::obs::{self, CheckSink, RingSink, SyncEvent};
use optrep_core::rng::{fold_bytes, SplitMix64, FOLD_BASIS};
use optrep_core::sync::{Endpoint, Framed, Msg, ReceiverStats, WireMsg};
use optrep_core::wire::{self, FrameDecoder};
use optrep_core::{Causality, Error, Result, RotatingVector, SiteId, Srv};
use optrep_kv::{Committed, EntryImage, JoinResolver, KvStore, KvSyncReport};
use optrep_net::{ConnPool, ConnectOptions, FaultPlan, FaultyLink, FrameLink, TcpLink};
use optrep_replication::mux::{classify_push, FrameBytes, Pushed, StreamOpen, TURN_STREAM};
use optrep_replication::planner::{
    digest_vector_frame, plan_frame, scope_frame, shard_of, JOURNAL_PLACEMENTS,
};
use optrep_replication::{
    classify, pull_contact, pull_planned, reason_label, run_contact, serve_contact, serve_frame,
    serve_from, BatchPullClient, BatchPullServer, ContactAnswer, ContactAsk, ContactReport,
    CtrlMsg, DigestDelta, DigestVector, Faulted, InProcessLink, MuxMsg, PlanConfig, Puller,
    ServeStep, Serving, SessionMsg, ShardPlan, ShardScope, VectorMemory, CONTROL_STREAM,
};
use optrep_replication::{ChildDigests, ShardDigest};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex};

#[path = "../../kv/tests/support/mod.rs"]
mod support;
use support::unplanned_pull;

// ---------------------------------------------------------------------
// Fixture: seeded endpoint pairs.

type ClientObjects = Vec<(Bytes, Srv)>;
type ServerObjects = Vec<(Bytes, Srv, Bytes)>;

/// One contact's starting state: what the puller tracks and what the
/// server holds. Every transport builds fresh endpoints from it.
struct Case {
    name: &'static str,
    client: ClientObjects,
    server: ServerObjects,
}

impl Case {
    fn endpoints(&self) -> (BatchPullClient, BatchPullServer) {
        (
            BatchPullClient::new(self.client.clone()),
            BatchPullServer::new(self.server.clone()),
        )
    }
}

fn updated(mut vector: Srv, sites: &[u32]) -> Srv {
    for &site in sites {
        RotatingVector::record_update(&mut vector, SiteId::new(site));
    }
    vector
}

fn empty_case() -> Case {
    Case {
        name: "empty",
        client: Vec::new(),
        server: Vec::new(),
    }
}

/// One shared object the server has moved ahead on.
fn one_object_case() -> Case {
    let base = updated(Srv::new(), &[1, 2]);
    Case {
        name: "one object",
        client: vec![(Bytes::from_static(b"k"), base.clone())],
        server: vec![(
            Bytes::from_static(b"k"),
            updated(base, &[3]),
            Bytes::from_static(b"newer"),
        )],
    }
}

/// 64 objects cycling through every per-stream outcome: equal vectors,
/// creations (server-only), fast-forwards, concurrent vectors, objects
/// only the puller tracks, and a puller that is ahead. Payload lengths
/// straddle the one-, two- and three-byte varint boundaries.
fn many_objects_case() -> Case {
    let mut rng = SplitMix64::new(0x0C0F_FEE5_EED5);
    let (mut client, mut server) = (Vec::new(), Vec::new());
    for i in 0..64usize {
        let name = Bytes::from(format!("obj{i:02}").into_bytes());
        let history: Vec<u32> = (0..1 + rng.next_u64() % 6)
            .map(|_| (rng.next_u64() % 8) as u32)
            .collect();
        let base = updated(Srv::new(), &history);
        let len = match i {
            7 => 127,
            8 => 128,
            9 => 17_000,
            _ => (rng.next_u64() % 300) as usize,
        };
        let payload = Bytes::from(vec![b'a' + (i % 26) as u8; len]);
        let extra: Vec<u32> = (0..1 + rng.next_u64() % 3)
            .map(|_| 10 + (rng.next_u64() % 4) as u32)
            .collect();
        match i % 6 {
            0 => {
                client.push((name.clone(), base.clone()));
                server.push((name, base, payload));
            }
            1 => server.push((name, updated(base, &extra), payload)),
            2 => {
                client.push((name.clone(), base.clone()));
                server.push((name, updated(base, &extra), payload));
            }
            3 => {
                client.push((name.clone(), updated(base.clone(), &[20, 21])));
                server.push((name, updated(base, &extra), payload));
            }
            4 => client.push((name, base)),
            _ => {
                client.push((name.clone(), updated(base.clone(), &extra)));
                server.push((name, base, payload));
            }
        }
    }
    Case {
        name: "64 objects",
        client,
        server,
    }
}

/// An in-memory duplex [`FrameLink`]: each half owns a sender to the
/// peer and a receiver for its own inbox, so the pumps run under real
/// thread interleaving without sockets. Every write is kept, whole: a
/// half's writes are the turns it took, and its transcript
/// ([`assert_transcript`]).
struct ChannelLink {
    tx: Option<mpsc::Sender<Vec<u8>>>,
    rx: mpsc::Receiver<Vec<u8>>,
    decoder: FrameDecoder,
    sent: Vec<Vec<u8>>,
}

fn channel_pair() -> (ChannelLink, ChannelLink) {
    let (atx, arx) = mpsc::channel();
    let (btx, brx) = mpsc::channel();
    let half = |tx, rx| ChannelLink {
        tx: Some(tx),
        rx,
        decoder: FrameDecoder::new(),
        sent: Vec::new(),
    };
    (half(atx, brx), half(btx, arx))
}

impl FrameLink for ChannelLink {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.sent.push(bytes.to_vec());
        self.tx
            .as_ref()
            .and_then(|tx| tx.send(bytes.to_vec()).ok())
            .ok_or(Error::ConnectionLost { after_bytes: 0 })
    }

    fn recv_frame(&mut self) -> Result<wire::Frame> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            match self.rx.recv() {
                Ok(bytes) => self.decoder.push(&bytes),
                Err(_) => return Err(Error::ConnectionLost { after_bytes: 0 }),
            }
        }
    }

    fn fin(&mut self) {
        self.tx = None;
    }
}

/// A puller at 4 shards and a source at 16, arranged so the plan (at
/// the puller's count) has every verdict: shard 0 converged (skip),
/// shard 1 behind with creations, a tombstone and a puller-only key,
/// shard 2 with concurrent writes (both incremental), shard 3 never
/// populated on the puller (snapshot, tombstone included).
fn planned_stores() -> (KvStore, KvStore) {
    let mut rng = SplitMix64::new(0x0000_91A4_4ED5_EED5);
    let mut value = |tag: &str| {
        let len = (rng.next_u64() % 200) as usize;
        format!("{tag}:{}", "x".repeat(len))
    };
    let keys: Vec<String> = (0..96).map(|i| format!("key-{i:03}")).collect();
    let in_shard = |shard: u64| {
        keys.iter()
            .filter(move |key| shard_of(key.as_bytes(), 4) == shard)
    };
    let mut src = KvStore::with_shards(SiteId::new(1), 16);
    let mut dst = KvStore::with_shards(SiteId::new(0), 4);
    for key in keys.iter().filter(|key| shard_of(key.as_bytes(), 4) != 3) {
        src.put(key.clone(), value("base"));
    }
    dst.sync(&src).run().expect("bootstrap");
    for (i, key) in in_shard(1).enumerate().take(6) {
        match i % 3 {
            0 => src.put(key.clone(), value("ahead")),
            1 => src.delete(key.clone()),
            _ => {}
        }
    }
    let fresh = (0..).map(|i| format!("fresh-{i}"));
    for key in fresh.filter(|key| shard_of(key.as_bytes(), 4) == 1).take(2) {
        src.put(key, value("created"));
    }
    let mine = (0..).map(|i| format!("mine-{i}"));
    for key in mine.filter(|key| shard_of(key.as_bytes(), 4) == 1).take(1) {
        dst.put(key, value("local"));
    }
    for key in in_shard(2).take(3) {
        src.put(key.clone(), value("theirs"));
        dst.put(key.clone(), value("ours"));
    }
    for (i, key) in in_shard(3).enumerate() {
        src.put(key.clone(), value("cold"));
        if i == 1 {
            src.delete(key.clone());
        }
    }
    (dst, src)
}

/// A puller at 16 shards and a source at 64, converged over 2 400 keys
/// (150 a shard), then diverged in three of the sixteen shards — keys
/// moved on, deleted and created at the source, one written on both
/// sides, one only the puller holds. Few and large enough dirty shards
/// that the plan offers their children.
fn refined_stores() -> (KvStore, KvStore) {
    let mut rng = SplitMix64::new(0x0000_5C09_ED5E_ED5E);
    let mut value = |tag: &str| {
        let len = (rng.next_u64() % 40) as usize;
        format!("{tag}:{}", "y".repeat(len))
    };
    let keys: Vec<String> = (0..2400).map(|i| format!("key-{i:04}")).collect();
    let in_shard = |shard: u64| {
        keys.iter()
            .filter(move |key| shard_of(key.as_bytes(), 16) == shard)
    };
    let mut src = KvStore::with_shards(SiteId::new(1), 64);
    let mut dst = KvStore::with_shards(SiteId::new(0), 16);
    for key in &keys {
        src.put(key.clone(), value("base"));
    }
    dst.sync(&src).run().expect("bootstrap");
    for (i, key) in in_shard(2).enumerate().take(3) {
        match i {
            0 => src.put(key.clone(), value("ahead")),
            1 => src.delete(key.clone()),
            _ => {
                src.put(key.clone(), value("theirs"));
                dst.put(key.clone(), value("ours"));
            }
        }
    }
    let fresh = (0..).map(|i| format!("fresh-{i}"));
    for key in fresh
        .filter(|key| shard_of(key.as_bytes(), 16) == 7)
        .take(1)
    {
        src.put(key, value("created"));
    }
    let mine = (0..).map(|i| format!("mine-{i}"));
    for key in mine.filter(|key| shard_of(key.as_bytes(), 16) == 7).take(1) {
        dst.put(key, value("local"));
    }
    for key in in_shard(11).take(1) {
        src.put(key.clone(), value("ahead"));
    }
    (dst, src)
}

/// One planned pull of `dst` from whatever serves the far end of
/// `link` — the steps `pull_from` and `KvStore::sync` are: digests, the
/// planned-pull pump over the endpoint cut as finely as the plan
/// allows, the planned commit, the memory settled at the shards that
/// landed as served — with the contact report they leave out.
/// `remembered` is the pulling end's memory of `link`, as
/// `optrep_net::ConnPool` keeps it.
fn planned_pull_on<L: FrameLink>(
    dst: &mut KvStore,
    link: &mut L,
    remembered: &mut VectorMemory,
) -> Result<(ContactReport, KvSyncReport)> {
    let digests = dst.shard_digest_vector();
    let (client, plan, contact) = pull_planned(link, remembered, &digests, |plan, push| {
        dst.client_endpoint_refined(plan, push, dst.generation())
    })?;
    let committed = dst.apply_planned(&JoinResolver, client, &contact, &plan)?;
    remembered.settle(&committed.landed);
    Ok((contact, committed.report))
}

/// The first — or only — planned pull over `link`: nothing remembered.
fn planned_pull<L: FrameLink>(
    dst: &mut KvStore,
    link: &mut L,
) -> Result<(ContactReport, KvSyncReport)> {
    planned_pull_on(dst, link, &mut VectorMemory::default())
}

/// The same pull by a puller that ignores the plan's child digests and
/// walks the incremental shards whole: what every planned pull was
/// before plans had a second level, and what `crates/perf`'s mirror
/// still replays.
fn flat_pull<L: FrameLink>(
    dst: &mut KvStore,
    link: &mut L,
) -> Result<(ContactReport, KvSyncReport)> {
    let digests = dst.shard_digest_vector();
    let (client, plan, contact) =
        pull_planned(link, &mut VectorMemory::default(), &digests, |plan, _| {
            Ok(dst.client_endpoint_for(&plan.incremental, plan.count as usize))
        })?;
    let (synced, _) = dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan)?;
    Ok((contact, synced))
}

/// `src` as a serving step's source, planning at the default policy.
fn source_of(src: &KvStore) -> impl FnMut(ContactAsk<'_>) -> ContactAnswer + '_ {
    |ask| src.open_contact(ask)
}

/// Serves one planned contact out of `src` on its own thread.
fn serving_thread<L: FrameLink + Send + 'static>(
    src: KvStore,
    mut far: L,
) -> std::thread::JoinHandle<Result<L>> {
    std::thread::spawn(move || {
        serve_from(&mut Serving::default(), &mut source_of(&src), &mut far).map(|()| far)
    })
}

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

/// One stream's `finish()` result, the vector as its order-preserving
/// snapshot: `(stream, name, discovered, aborted, outcome)`.
type Finished = (
    u64,
    Bytes,
    bool,
    bool,
    Option<(Causality, Option<Bytes>, Bytes, ReceiverStats)>,
);

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

/// A finished client's per-stream results.
fn finished(client: BatchPullClient) -> Vec<Finished> {
    client
        .finish()
        .into_iter()
        .map(|r| {
            let outcome = r
                .outcome
                .map(|o| (o.relation, o.payload, o.vector.encode_snapshot(), o.stats));
            (r.stream, r.name, r.discovered, r.aborted, outcome)
        })
        .collect()
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
// (b) The bytes on the wire are pinned.

/// A half's writes as text: one line per frame — the half, the write
/// (burst) it left in, its stream, its tag and length, and its four
/// byte planes (`-` for a turn marker or a planner frame, which the
/// planes leave out) — then the workspace's fold of the raw writes
/// ([`fold_bytes`]: each write behind its length), so no byte or burst
/// boundary moves unseen.
fn render_transcript(half: &str, writes: &[Vec<u8>]) -> String {
    use std::fmt::Write;
    let mut text = String::new();
    let mut hash = FOLD_BASIS;
    for (burst, write) in (1..).zip(writes) {
        hash = fold_bytes(hash, write);
        let mut bytes = Bytes::copy_from_slice(write);
        while !bytes.is_empty() {
            let before = bytes.len();
            let frame = wire::get_frame(&mut bytes).expect("a half writes whole frames");
            let len = before - bytes.len();
            let (stream, tag) = match frame.stream {
                TURN_STREAM => ("turn".to_string(), None),
                stream => (stream.to_string(), frame.payload.first().copied()),
            };
            let (name, planes) = describe_frame(frame);
            let tag = tag.map_or("-".to_string(), |tag| format!("{tag:#04x}"));
            writeln!(
                text,
                "{half} {burst:>2} {stream:>5} {tag} {name:<13} {len:>6} {planes}"
            )
            .expect("a string takes any write");
        }
    }
    writeln!(text, "fold {hash:#018x}").expect("a string takes any write");
    text
}

/// A frame's message name and its `compare meta framing payload` bytes.
fn describe_frame(frame: wire::Frame) -> (&'static str, String) {
    let planner = match frame.payload.first() {
        _ if frame.stream == TURN_STREAM => Some(match &frame.payload[..] {
            [] => "turn",
            _ => "fin",
        }),
        Some(&tag) if frame.stream == CONTROL_STREAM && (0x35..=0x39).contains(&tag) => Some(
            ["digests", "plan", "scope", "plan.refined", "digests.delta"][usize::from(tag - 0x35)],
        ),
        _ => None,
    };
    if let Some(name) = planner {
        return (name, "- - - -".to_string());
    }
    let planes = |b: FrameBytes| format!("{} {} {} {}", b.compare, b.meta, b.framing, b.payload);
    if frame.stream == CONTROL_STREAM && frame.payload.first() == Some(&TAG_PUSH) {
        // The push, priced as a puller prices it: its keys taken by a
        // store of their own, against a plan of one shard.
        let len = wire::Frame::encoded_len(CONTROL_STREAM, frame.payload.len());
        let plan = ShardPlan {
            count: 1,
            ..ShardPlan::default()
        };
        let store = KvStore::new(SiteId::new(99));
        let image = frame.payload.slice(1..);
        let taken = store.client_endpoint_refined(&plan, &image, store.generation());
        let price = taken.expect("a push a store reads").client.push_price();
        return ("push", planes(classify_push(len as u64, price)));
    }
    let stream = frame.stream;
    let mut payload = frame.payload;
    let msg = MuxMsg::decode(&mut payload).expect("a half writes whole messages");
    let name = match &msg {
        MuxMsg::Ctrl(CtrlMsg::BatchHello { .. }) => "hello",
        MuxMsg::Ctrl(CtrlMsg::BatchServerFirst { .. }) => "server_first",
        MuxMsg::Ctrl(CtrlMsg::BatchDone { .. }) => "done",
        MuxMsg::Ctrl(CtrlMsg::Cancel { .. }) => "cancel",
        MuxMsg::Session(SessionMsg::Vector(_)) => "s.vector",
        MuxMsg::Session(SessionMsg::PayloadRequest) => "s.payload_req",
        MuxMsg::Session(SessionMsg::Payload { .. }) => "s.payload",
        MuxMsg::Session(_) => "s.other",
    };
    (name, planes(classify(&Framed::new(stream, msg))))
}

/// Checks a half's writes against `transcripts/<name>.txt`. On a
/// mismatch the rendering is written beside it as `<name>.actual` — a
/// re-pin is a copy, which the diff then shows frame by frame.
fn assert_transcript(name: &str, half: &str, writes: &[Vec<u8>]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/transcripts");
    let actual = render_transcript(half, writes);
    let pinned = std::fs::read_to_string(dir.join(format!("{name}.txt"))).unwrap_or_default();
    if actual != pinned {
        let path = dir.join(format!("{name}.actual"));
        std::fs::write(&path, &actual).expect("write the actual transcript");
        panic!("transcript {name} moved: see {}", path.display());
    }
}

/// The 64-object case, unplanned, each serving turn one message a live
/// stream: the hello burst and the answer turn, the `BatchDone` of the
/// 21 equal and ahead streams, then the live streams' elements a turn
/// at a time.
#[test]
fn wire_transcript_is_pinned() {
    let (mut client, mut server) = many_objects_case().endpoints();
    let (mut near, mut far) = channel_pair();
    let serving = std::thread::spawn(move || {
        serve_contact(&mut server, &mut far).expect("serve");
        far.sent
    });
    let report = pull_contact(&mut client, &mut near).expect("pull");
    let served = serving.join().expect("server thread");
    assert_transcript("wire.server", "server", &served);
    assert_transcript("wire.puller", "puller", &near.sent);
    assert_eq!((report.frames, report.total_bytes), (206, 23_762));
    assert_eq!((near.sent.len(), report.link_turns), (10, 10));
    assert_eq!(report.round_trips, 2);
}

/// The planned pull of [`planned_stores`]: the planning turn, then the
/// exchange, the nine live streams' payloads in one turn.
#[test]
fn planned_wire_transcript_is_pinned_and_priced_by_the_old_arithmetic() {
    let (mut dst, src) = planned_stores();
    // The oracle: the plan computed directly, the planner bytes as the
    // sum of the two encoded frames — how the in-process planned pull
    // priced the turn before it crossed the codec, and how
    // `crates/perf`'s mirror still does.
    let digests = dst.shard_digest_vector();
    let (plan, _) = src.plan_contact(&digests, &PlanConfig::default());
    let oracle = (digest_vector_frame(&digests).len() + plan_frame(&plan).len()) as u64;

    let (mut near, far) = channel_pair();
    let serving = serving_thread(src, far);
    let (report, synced) = planned_pull(&mut dst, &mut near).expect("pull");
    let far = serving.join().expect("server thread").expect("serve");
    assert_transcript("planned.server", "server", &far.sent);
    assert_transcript("planned.puller", "puller", &near.sent);

    assert_eq!(report.digest_bytes, oracle);
    // 2604 while a shard image wrote each key whole: every key of the
    // bulk-loaded shard but its first shares `key-` and more with the
    // key before it, and the image is 106 B shorter front-coded. 2498
    // while it wrote every vector: 21 of its 24 keys hold the vector of
    // the key before (one put at site 1; the second key, deleted after
    // its put, and the third, behind it, do not), and each writes an
    // empty field, 3 B short of the vector's 4. 2435 while an empty
    // shard's summary wrote its digest: the puller's vector holds one
    // empty shard, now its zero count alone. The plan bulk-loads one
    // shard, so its frame was then byte for byte what it was. 2427 while
    // each image entry wrote its shared length, its rest's length, its
    // vector's field where it repeats, its tag and its value's length:
    // folded into a key head and a state head, the plan frame is 59 B
    // shorter (2395 → 2336 in the transcript).
    assert_eq!(report.digest_bytes, 2368);
    assert_eq!(report.shards_total, plan.count);
    assert_eq!(report.shards_skipped, plan.skipped());
    assert_eq!(report.shards_incremental, plan.incremental.len() as u64);
    assert_eq!(report.shards_snapshot, plan.bulk.len() as u64);
    // The planning turn is in neither the frame count nor the four
    // planes, but it blocks: a round trip beside the exchange's two.
    assert_eq!((report.frames, report.total_bytes), (39, 1589));
    assert_eq!(
        (near.sent.len(), far.sent.len(), report.link_turns),
        (6, 6, 6)
    );
    assert_eq!(report.round_trips, 3);
    let created_ff_reconciled = (
        synced.keys_created,
        synced.keys_fast_forwarded,
        synced.keys_reconciled,
    );
    assert_eq!(created_ff_reconciled, (26, 4, 3));
    assert_eq!(synced.digest_bytes as u64, oracle);
    // Framing — frame headers, stream ids, key names — the one plane a
    // `KvSyncReport` used to leave out: 617 B over its 33 changed keys,
    // ≈ 18.7 B a key.
    assert_eq!(
        (synced.framing_bytes as u64, report.framing_bytes),
        (617, 617)
    );
}

/// The refined pull of [`refined_stores`]: the plan frame under its
/// refined tag with the children of three shards behind it, the scope
/// frame leading the puller's opening burst.
#[test]
fn refined_wire_transcript_is_pinned_and_adds_no_turn() {
    /// One pull over a channel pair: both halves' writes, the reports,
    /// and where the puller ended.
    fn over_channel(
        pull: fn(&mut KvStore, &mut ChannelLink) -> Result<(ContactReport, KvSyncReport)>,
    ) -> ([Writes; 2], ContactReport, KvSyncReport, u64) {
        let (mut dst, src) = refined_stores();
        let (mut near, far) = channel_pair();
        let serving = serving_thread(src, far);
        let (contact, synced) = pull(&mut dst, &mut near).expect("pull");
        let far = serving.join().expect("server thread").expect("serve");
        (
            [near.sent, far.sent],
            contact,
            synced,
            dst.replica_digest_full(),
        )
    }
    let (refined, report, synced, ended) = over_channel(planned_pull);
    let (flat, flat_report, flat_synced, flat_ended) = over_channel(flat_pull);
    assert_transcript("refined.puller", "puller", &refined[0]);
    assert_transcript("refined.server", "server", &refined[1]);

    // No turn is added: each half writes exactly as often as in the
    // flat pull of the same stores, and the round trips are the same
    // three, the planning turn's among them.
    assert_eq!(
        (refined[0].len(), refined[1].len()),
        (flat[0].len(), flat[1].len())
    );
    assert_eq!((refined[0].len(), report.link_turns), (6, 6));
    assert_eq!(report.round_trips, 3);
    assert_eq!(flat_report.round_trips, 3);

    // The oracle: plan and scope computed directly, the planner bytes
    // the sum of the three encoded frames.
    let (dst, src) = refined_stores();
    let digests = dst.shard_digest_vector();
    let (plan, _) = src.plan_contact(&digests, &PlanConfig::default());
    let children = plan.children.as_ref().expect("three shards refined");
    assert_eq!((children.fanout, children.parents.len()), (16, 3));
    let scope = dst
        .client_endpoint_refined(&plan, &Bytes::new(), dst.generation())
        .expect("no push")
        .scope
        .expect("a scope");
    assert_eq!(scope.children.len(), 6, "one child per dirty key");
    let flat_oracle = (digest_vector_frame(&digests).len() + plan_frame(&plan).len()) as u64;
    assert_eq!(flat_report.digest_bytes, flat_oracle);
    assert_eq!(
        report.digest_bytes,
        flat_oracle + scope_frame(&scope).len() as u64
    );
    assert_eq!((report.shards_refined, flat_report.shards_refined), (3, 0));

    // Same end state, same keys changed; the refined pull compared the
    // keys of six children instead of three shards.
    assert_eq!(ended, flat_ended);
    let changed = |synced: &KvSyncReport| {
        (
            synced.keys_created,
            synced.keys_fast_forwarded,
            synced.keys_reconciled,
        )
    };
    assert_eq!(changed(&synced), changed(&flat_synced));
    assert_eq!(changed(&synced), (1, 3, 1));
    assert_eq!((synced.keys_examined, flat_synced.keys_examined), (59, 452));
    assert_eq!(
        (report.compare_bytes, flat_report.compare_bytes),
        (469, 3613)
    );
    assert_eq!((report.digest_bytes, flat_report.digest_bytes), (630, 612));
    assert_eq!((report.frames, flat_report.frames), (23, 23));
    // Framing over the five changed keys — 144.8 B a key refined, 1 206
    // walked flat: most of it names the keys compared, so the children
    // cut it too.
    assert_eq!(
        (synced.framing_bytes, flat_synced.framing_bytes),
        (724, 6030)
    );
}

// What both sides do between the first pull of [`refined_stores`] and
// the second over the same link: the source moves on in shards 2 (dirty
// before, too), 4 and 13, the puller writes one key of its own in
// shard 9. With shard 7, where the puller has held a key of its own all
// along, five of sixteen shards differ — while the puller's *vector*
// changed in four: the three the first pull committed into, and 9.
// The source's journal lists what it did in 2, 4 and 13, and in 4 and
// 13 the puller's digest is what the journal sums the shard back to, so
// those two are proposed; 7 and 9 differ through the puller's doing
// alone, have no candidates and are offered their children as before.
// And shard 2 is not proposed: the first pull *reconciled* a key there
// (written on both sides), the §C increment left the puller's copy
// ahead of the source's, so the puller's digest of the shard is not the
// source's at the last plan — the check says so — and it is offered
// its children too.

fn refined_keys_in(shard: u64) -> impl Iterator<Item = String> {
    (0..2400)
        .map(|i| format!("key-{i:04}"))
        .filter(move |key| shard_of(key.as_bytes(), 16) == shard)
}

fn source_moves_on(src: &mut KvStore) {
    for key in refined_keys_in(4)
        .take(2)
        .chain(refined_keys_in(2).skip(5).take(1))
    {
        src.put(key, "later:source");
    }
    src.delete(refined_keys_in(13).next().expect("150 keys a shard"));
}

fn puller_moves_on(dst: &mut KvStore) {
    let mine = (0..).map(|i| format!("later-{i}"));
    for key in mine.filter(|key| shard_of(key.as_bytes(), 16) == 9).take(1) {
        dst.put(key, "later:puller");
    }
}

/// The puller's half of the two contacts over `link`; `between` runs
/// once the first is committed (an in-process far end moves the source
/// on in there). With `remember` off the second contact forgets the
/// first — what a fresh link would do.
fn pull_twice<L: FrameLink>(
    dst: &mut KvStore,
    link: &mut L,
    remember: bool,
    between: impl FnOnce(&mut L),
) -> [(ContactReport, KvSyncReport); 2] {
    let mut remembered = VectorMemory::default();
    let first = planned_pull_on(dst, link, &mut remembered).expect("first pull");
    between(link);
    puller_moves_on(dst);
    if !remember {
        remembered = VectorMemory::default();
    }
    let second = planned_pull_on(dst, link, &mut remembered).expect("second pull");
    [first, second]
}

/// The serving half, on its own thread: one contact, the source moves
/// on, `between`, another contact — through one [`Serving`], or with
/// `remember` off a fresh one each.
fn serving_twice<L: FrameLink + Send + 'static>(
    mut src: KvStore,
    mut far: L,
    remember: bool,
    between: impl FnOnce(&mut L) + Send + 'static,
) -> std::thread::JoinHandle<Result<L>> {
    std::thread::spawn(move || {
        let mut serving = Serving::default();
        serve_from(&mut serving, &mut source_of(&src), &mut far)?;
        source_moves_on(&mut src);
        between(&mut far);
        if !remember {
            serving = Serving::default();
        }
        serve_from(&mut serving, &mut source_of(&src), &mut far)?;
        Ok(far)
    })
}

/// A half's writes, in order.
type Writes = Vec<Vec<u8>>;

/// A [`ChannelLink`]'s writes so far, leaving none.
fn take_transcript(link: &mut ChannelLink) -> Writes {
    std::mem::take(&mut link.sent)
}

/// The second pull over the link of [`refined_stores`], both ends
/// remembering the first: the digest delta, the plan that proposes
/// shards 4 and 13 and offers the children of 2, 7 and 9, the scope and
/// the exchange it leaves.
#[test]
fn second_pull_over_a_link_is_proposed_what_the_source_changed() {
    /// Both contacts over one channel pair: per contact, both halves'
    /// writes and the reports; where the puller ended.
    type Halves = [Writes; 2];
    fn over_channel(remember: bool) -> ([Halves; 2], [(ContactReport, KvSyncReport); 2], u64) {
        let (mut dst, src) = refined_stores();
        let (mut near, far) = channel_pair();
        let (tx, rx) = mpsc::channel();
        let serving = serving_twice(src, far, remember, move |far| {
            tx.send(take_transcript(far)).expect("the test waits");
        });
        let mut near_first = Vec::new();
        let pulls = pull_twice(&mut dst, &mut near, remember, |near| {
            near_first = take_transcript(near);
        });
        let mut far = serving.join().expect("server thread").expect("serve");
        let far_first = rx.recv().expect("first contact served");
        let halves = [
            [near_first, far_first],
            [take_transcript(&mut near), take_transcript(&mut far)],
        ];
        (halves, pulls, dst.replica_digest_full())
    }
    let (warm, [first, (report, synced)], ended) = over_channel(true);
    let (cold, [cold_first, (cold_report, cold_synced)], cold_ended) = over_channel(false);

    // The first contact on a link is the pinned refined pull, byte for
    // byte, whether or not anything will be remembered of it.
    for halves in [&warm[0], &cold[0]] {
        assert_transcript("refined.puller", "puller", &halves[0]);
        assert_transcript("refined.server", "server", &halves[1]);
    }
    assert_eq!(first, cold_first);
    assert_eq!((first.0.digests_sent, first.0.shards_proposed), (16, 0));

    // The second: no turn added or saved by the proposals.
    assert_transcript("second.puller", "puller", &warm[1][0]);
    assert_transcript("second.server", "server", &warm[1][1]);
    assert_eq!(
        (warm[1][0].len(), warm[1][1].len()),
        (cold[1][0].len(), cold[1][1].len())
    );
    assert_eq!((warm[1][0].len(), report.link_turns), (6, 6));
    assert_eq!((report.round_trips, cold_report.round_trips), (3, 3));
    // Nothing the push carried went unused: no puller write raced it.
    assert_eq!((report.excess_bytes, cold_report.excess_bytes), (0, 0));

    // The oracle: the three planner frames computed directly, as the
    // serving store plans them given the generation it was at when it
    // planned the first contact.
    let (mut dst, mut src) = refined_stores();
    let mut remembered = dst.shard_digest_vector();
    dst.sync(&src).run().expect("first");
    let since = src.generation();
    // Of the shards the first pull served, 11 — where the puller
    // fast-forwarded a key — landed as served, and both ends remember it
    // as it now is; 2 (reconciled) and 7 (a key of the puller's own) did
    // not, and are listed whatever they read.
    remembered.shards[11] = dst.shard_digest_vector().shards[11];
    puller_moves_on(&mut dst);
    source_moves_on(&mut src);
    let next = dst.shard_digest_vector();
    let delta = DigestDelta::between(&remembered, &next).expect("same count");
    let shards = |delta: &DigestDelta| -> Vec<u64> { delta.changed.iter().map(|c| c.0).collect() };
    assert_eq!(
        shards(&delta),
        [2, 7, 9],
        "what the first pull did not land as served, and what the puller touched"
    );
    let mut delta_frame = BytesMut::new();
    wire::put_frame(&mut delta_frame, CONTROL_STREAM, &delta.encode());
    let saved = (digest_vector_frame(&next).len() - delta_frame.len()) as u64;
    assert_eq!((delta_frame.len(), saved), (46, 119));

    let (blind, _) = src.plan_contact(&next, &PlanConfig::default());
    let plan = src.plan_contact_since(&next, Some(since));
    let refined = |plan: &ShardPlan| -> Vec<u64> {
        let children = plan.children.as_ref().expect("children");
        children.parents.iter().map(|p| p.0).collect()
    };
    assert_eq!(plan.incremental, [2, 4, 7, 9, 13]);
    assert_eq!(plan.incremental, blind.incremental);
    assert_eq!(
        (refined(&blind), blind.proposed.len()),
        (vec![2, 4, 7, 9, 13], 0)
    );
    assert_eq!(refined(&plan), [2, 7, 9]);
    assert_eq!(plan.proposed, [4, 13], "not 2: the reconciled key");
    assert_eq!(
        (plan_frame(&blind).len(), plan_frame(&plan).len()),
        (739, 447)
    );
    let scope = dst
        .client_endpoint_refined(&plan, &Bytes::new(), dst.generation())
        .expect("no push")
        .scope
        .expect("a scope");
    let blind_scope = dst
        .client_endpoint_refined(&blind, &Bytes::new(), dst.generation())
        .expect("no push")
        .scope
        .expect("a scope");
    assert_eq!((scope.children.len(), blind_scope.children.len()), (4, 7));
    assert_eq!(
        (scope_frame(&blind_scope).len(), scope_frame(&scope).len()),
        (18, 13)
    );

    let planner_frames = delta_frame.len() + plan_frame(&plan).len() + scope_frame(&scope).len();
    assert_eq!(report.digest_bytes, planner_frames as u64);
    let blind_frames = digest_vector_frame(&next).len()
        + plan_frame(&blind).len()
        + scope_frame(&blind_scope).len();
    assert_eq!(cold_report.digest_bytes, blind_frames as u64);
    assert_eq!((report.digests_sent, cold_report.digests_sent), (3, 16));
    let offered = |r: &ContactReport| (r.shards_refined, r.shards_proposed);
    assert_eq!((offered(&report), offered(&cold_report)), ((3, 2), (5, 0)));
    assert_eq!(
        (synced.shards_proposed, synced.digest_bytes),
        (2, planner_frames)
    );
    // Shard 2, where the puller holds a reconciled key ahead of the
    // source's, is not proposed and is cut at its children like 7 and
    // 9: 39 keys against the cold pull's 64.
    assert_eq!((synced.keys_examined, cold_synced.keys_examined), (39, 64));
    // Framing over the four changed keys: 114.25 B a key warm, 195.25
    // cold (538.5 B while shard 2 was refused and walked whole; 123 warm
    // while the push named its keys in a frame of their own, then sent
    // each element and value in a frame of its own: 49 B of framing
    // where its image spends 14).
    assert_eq!(
        (synced.framing_bytes, cold_synced.framing_bytes),
        (457, 781)
    );

    // Both end where an unplanned pull ends, having changed the same keys.
    let changed = |synced: &KvSyncReport| {
        (
            synced.keys_created,
            synced.keys_fast_forwarded,
            synced.keys_reconciled,
        )
    };
    assert_eq!(changed(&synced), changed(&cold_synced));
    assert_eq!(ended, cold_ended);
    let mut full = dst.clone();
    unplanned_pull(&mut full, &src);
    assert_eq!(ended, full.replica_digest_full());
}

/// The same two contacts over TCP and over an in-process link: each
/// remembers across them what the channel pair does.
#[test]
fn every_transport_runs_the_second_pull_identically() {
    let (mut dst, src) = refined_stores();
    let (mut near, far) = channel_pair();
    let serving = serving_twice(src, far, true, |_| ());
    let reference = pull_twice(&mut dst, &mut near, true, |_| ());
    serving.join().expect("server thread").expect("serve");
    let ended = dst.replica_digest_full();
    let sent = [reference[0].0.digests_sent, reference[1].0.digests_sent];
    assert_eq!(sent, [16, 3]);
    let proposed = [
        reference[0].0.shards_proposed,
        reference[1].0.shards_proposed,
    ];
    assert_eq!(proposed, [0, 2], "the warm contact is a proposed one");

    let (mut dst, src) = refined_stores();
    let src = RefCell::new(src);
    let mut source = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
    let mut serving = Serving::default();
    let mut link = InProcessLink::serving(&mut serving, &mut source);
    let in_process = pull_twice(&mut dst, &mut link, true, |_| {
        source_moves_on(&mut src.borrow_mut());
    });
    assert_eq!(in_process, reference, "in-process");
    assert_eq!(dst.replica_digest_full(), ended);

    let (mut dst, src) = refined_stores();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let opts = ConnectOptions::new();
    let accepting = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        TcpLink::from_stream(stream, &opts).expect("accepted link")
    });
    let mut link = TcpLink::connect(addr, &opts).expect("dial");
    let far = accepting.join().expect("accept thread");
    let serving = serving_twice(src, far, true, |_| ());
    let tcp = pull_twice(&mut dst, &mut link, true, |_| ());
    link.fin();
    serving.join().expect("server thread").expect("serve");
    assert_eq!(tcp, reference, "loopback tcp");
    assert_eq!(dst.replica_digest_full(), ended);
}

/// What a daemon's `APPLY_RACE_RETRIES` does: a pull completes on the
/// wire, its outcome is thrown away because a local write raced it, and
/// the pull runs again over the same link. Both ends remembered the
/// vector of the abandoned contact — the server shard 11, which it
/// served and could land, as served, the puller that shard marked,
/// never settled; both the shards the exchange kept (2, reconciled, and
/// 7, a key of the puller's own) as sent — so the rerun — a delta
/// against it that lists shard 11 again — stays in step and commits
/// what a pull over a fresh link commits.
#[test]
fn a_pull_abandoned_after_the_wire_leaves_the_memories_in_step() {
    let (mut dst, src) = refined_stores();
    let mut reference = dst.clone();
    reference.put("raced", "local write");
    let mut source = source_of(&src);
    let (fresh, _) = planned_pull(
        &mut reference.clone(),
        &mut InProcessLink::serving(&mut Serving::default(), &mut source),
    )
    .expect("reference");
    reference.sync(&src).run().expect("reference");

    let mut serving = Serving::default();
    let mut link = InProcessLink::serving(&mut serving, &mut source);
    let mut remembered = VectorMemory::default();
    let digests = dst.shard_digest_vector();
    let abandoned = pull_planned(&mut link, &mut remembered, &digests, |plan, push| {
        dst.client_endpoint_refined(plan, push, dst.generation())
    })
    .expect("the contact itself completes");
    drop(abandoned);
    dst.put("raced", "local write");
    let (rerun, _) = planned_pull_on(&mut dst, &mut link, &mut remembered).expect("rerun");
    assert_eq!(
        rerun.digests_sent, 2,
        "the shard the racing write landed in, and the one the abandoned contact left marked"
    );
    assert_eq!(
        rerun,
        ContactReport {
            digest_bytes: rerun.digest_bytes,
            digests_sent: 2,
            ..fresh
        }
    );
    assert!(rerun.digest_bytes < fresh.digest_bytes);
    assert_eq!(dst.replica_digest_full(), reference.replica_digest_full());
}

/// The same abandonment with the source moving on around it: the rerun
/// is planned from what the source changed since it planned the
/// *abandoned* contact — whose outcome the puller never applied. Where
/// that matters the puller's digest is not what the source's journal
/// sums the shard back to, the shard is not proposed, and the rerun
/// alone converges.
#[test]
fn a_rerun_after_an_abandoned_pull_is_not_proposed_what_it_never_applied() {
    let (mut dst, src) = refined_stores();
    let src = RefCell::new(src);
    let mut source = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
    let mut serving = Serving::default();
    let mut link = InProcessLink::serving(&mut serving, &mut source);
    let mut remembered = VectorMemory::default();
    planned_pull_on(&mut dst, &mut link, &mut remembered).expect("first pull");

    source_moves_on(&mut src.borrow_mut());
    let digests = dst.shard_digest_vector();
    let abandoned = pull_planned(&mut link, &mut remembered, &digests, |plan, push| {
        dst.client_endpoint_refined(plan, push, dst.generation())
    })
    .expect("the contact itself completes");
    assert_eq!(abandoned.2.shards_proposed, 2, "4 and 13");
    drop(abandoned);
    // The write that raced it: a key the source holds too, in a shard
    // of its own.
    dst.put(refined_keys_in(10).next().expect("a key"), "local write");

    // The source moves on again: in shard 4, where the abandoned
    // contact would have brought two keys, and in shard 5, clean so far.
    for key in refined_keys_in(4)
        .skip(2)
        .take(1)
        .chain(refined_keys_in(5).take(1))
    {
        src.borrow_mut().put(key, "later still");
    }
    let (rerun, synced) = planned_pull_on(&mut dst, &mut link, &mut remembered).expect("rerun");
    let (proposed, refined) = (rerun.shards_proposed, rerun.shards_refined);
    assert_eq!(
        (proposed, refined),
        (1, 5),
        "5 proposed; 4 — the puller holds it as it stood before the abandoned plan — \
         refined beside 2, 7, 10 and 13, which have no news"
    );
    assert_eq!(rerun.round_trips, 3);
    assert_eq!(
        synced.keys_fast_forwarded, 6,
        "both rounds of the source's writes"
    );
    let mut full = dst.clone();
    unplanned_pull(&mut full, &src.borrow());
    assert_eq!(dst.replica_digest_full(), full.replica_digest_full());
}

// A planned pull's server reads its store at two moments: the plan at
// the digest frame, the endpoint at the first frame of the puller's
// burst. Every place a write can land in between, at every form a plan
// takes.

/// The form of the plan the racing pull is answered with.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    /// Thirteen of sixteen shards dirty: nothing offered, the
    /// incremental shards walked whole.
    Flat,
    /// A link's first contact with three dirty shards: the two large
    /// ones offered their children, the three-key one left whole.
    Children,
    /// A link's later contact: the journal names what changed, and the
    /// source proposes it but in the one shard the puller wrote in
    /// itself, three keys walked whole.
    Proposed,
}

/// Where the source's write lands between its plan and its endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Race {
    /// A put to a key of an offered shard outside what the offer keeps:
    /// not pushed, in a child that does not differ. (A flat plan offers
    /// nothing, so there the whole shard is kept.)
    BesideTheCut,
    /// A put to a key the contact is about: a pushed key, the differing
    /// key.
    PutCandidate,
    /// The same key deleted.
    DeleteCandidate,
    /// A put into a shard the plan skips.
    SkippedShard,
    /// A put into an incremental shard the cut keeps whole: one the
    /// source could not propose, never offered, or any shard of a flat
    /// plan.
    WholeShard,
}

const FORMS: [Form; 3] = [Form::Flat, Form::Children, Form::Proposed];
const RACES: [Race; 5] = [
    Race::BesideTheCut,
    Race::PutCandidate,
    Race::DeleteCandidate,
    Race::SkippedShard,
    Race::WholeShard,
];

/// The racing fixture's keys in `shard` of 16: `refined_stores`' key
/// universe with shard 9 thinned to three keys, too few for `decide` to
/// offer its children.
fn racing_keys_in(shard: u64) -> Vec<String> {
    let take = if shard == 9 { 3 } else { usize::MAX };
    refined_keys_in(shard).take(take).collect()
}

/// Runs `pull` under the invariant-checking sink and requires it to
/// have audited a contact.
fn audited<T>(pull: impl FnOnce() -> T) -> T {
    let check = Arc::new(CheckSink::new());
    let pulled = obs::with(check.clone(), pull);
    check.finish().expect("every contact ends");
    assert!(check.checked_contacts() > 0, "the sink audits the contact");
    pulled
}

/// One interleaving: a pull whose plan has `form`, the source written
/// to as `race` says between the two asks of that pull, and the next
/// pull over the same link.
fn a_write_between_plan_and_endpoint(form: Form, race: Race) {
    let at = format!("{form:?}, {race:?}");
    let key = |shard: u64, nth: usize| racing_keys_in(shard)[nth].clone();
    let mut src = KvStore::with_shards(SiteId::new(1), 64);
    let mut dst = KvStore::with_shards(SiteId::new(0), 16);
    for shard in 0..16 {
        for key in racing_keys_in(shard) {
            src.put(key, "base");
        }
    }
    dst.sync(&src).run().expect("bootstrap");

    // The source's answers, with the scripted write ahead of the
    // endpoint ask of the pull that is armed.
    let about = key(2, 0);
    let beside = racing_keys_in(2)
        .into_iter()
        .find(|key| shard_of(key.as_bytes(), 256) != shard_of(about.as_bytes(), 256))
        .expect("150 keys a shard");
    let raced = match race {
        Race::BesideTheCut => beside,
        Race::PutCandidate | Race::DeleteCandidate => about.clone(),
        Race::SkippedShard => key(12, 0),
        Race::WholeShard if form == Form::Children => key(9, 1),
        Race::WholeShard if form == Form::Proposed => key(9, 2),
        Race::WholeShard => key(10, 2),
    };
    let src = RefCell::new(src);
    let armed = std::cell::Cell::new(false);
    let mut source = |ask: ContactAsk<'_>| {
        if matches!(ask, ContactAsk::Endpoint(..)) && armed.replace(false) {
            match race {
                Race::DeleteCandidate => src.borrow_mut().delete(raced.clone()),
                _ => src.borrow_mut().put(raced.clone(), "raced"),
            }
        }
        src.borrow().open_contact(ask)
    };
    let mut serving = Serving::default();
    let mut link = InProcessLink::serving(&mut serving, &mut source);
    let mut remembered = VectorMemory::default();
    // Settled as a daemon settles, so that the next pull's check proves
    // the as-served digests the racing pull left at both ends.
    let mut pull = |dst: &mut KvStore| {
        audited(|| {
            let digests = dst.shard_digest_vector();
            let mut keys = Vec::new();
            let (client, plan, contact) =
                pull_planned(&mut link, &mut remembered, &digests, |plan, push| {
                    let restricted = dst.client_endpoint_refined(plan, push, dst.generation())?;
                    keys = restricted.client.pushed_keys().cloned().collect();
                    Ok(restricted)
                })
                .expect("pull");
            let committed = dst
                .apply_planned(&JoinResolver, client, &contact, &plan)
                .expect("commit");
            remembered.settle(&committed.landed);
            let mut changed = committed.keys(dst);
            changed.sort();
            (plan, contact, changed, keys)
        })
    };

    // What the plan will be about.
    let local = key(10, 1);
    match form {
        Form::Flat => {
            for shard in (0..=13).filter(|&shard| shard != 12) {
                src.borrow_mut().put(key(shard, 0), "ahead");
            }
            dst.put(local.clone(), "local");
        }
        Form::Children => {
            for shard in [2, 5, 9] {
                src.borrow_mut().put(key(shard, 0), "ahead");
            }
        }
        Form::Proposed => {
            let (plan, ..) = pull(&mut dst);
            assert_eq!(plan.skipped(), 16, "{at}: converged");
            for shard in [2, 5, 9] {
                src.borrow_mut().put(key(shard, 0), "ahead");
            }
            dst.put(key(9, 1), "local");
        }
    }

    // The racing pull.
    let before = dst.clone();
    armed.set(true);
    let (plan, contact, changed, _) = pull(&mut dst);
    assert!(!armed.get(), "{at}: the endpoint was asked for");
    let refined: Vec<u64> = (plan.children.iter())
        .flat_map(|children| children.parents.iter().map(|(shard, _)| *shard))
        .collect();
    let offered = (refined, plan.proposed.clone());
    match form {
        Form::Flat => assert_eq!(offered, (vec![], vec![]), "{at}"),
        Form::Children => assert_eq!(offered, (vec![2, 5], vec![]), "{at}"),
        Form::Proposed => assert_eq!(offered, (vec![], vec![2, 5]), "{at}"),
    }
    assert_eq!(contact.shards_proposed, offered.1.len() as u64, "{at}");
    // Served at its newer state where the cut admits it, untouched
    // where it does not — a pushed key was read with the plan, before
    // the write — and never a vector of one view with the value of the
    // other: what moved is what the source held at the plan, pushed, or
    // at the endpoint, walked.
    let admitted = match race {
        Race::BesideTheCut => form == Form::Flat,
        Race::SkippedShard => false,
        Race::PutCandidate | Race::DeleteCandidate => form != Form::Proposed,
        Race::WholeShard => true,
    };
    // The key pushed before the write moved to the plan's state.
    let pushed_at_plan = form == Form::Proposed && raced == about;
    assert_eq!(
        changed.contains(&raced),
        admitted || pushed_at_plan,
        "{at}: {changed:?}"
    );
    assert!(changed.contains(&about), "{at}: {changed:?}");
    let src_now = src.borrow().clone();
    for key in changed
        .iter()
        .filter(|key| !pushed_at_plan || **key != raced)
    {
        assert_eq!(
            dst.encode_entry(key),
            src_now.encode_entry(key),
            "{at}: {key}"
        );
    }
    if !admitted && !pushed_at_plan {
        assert_eq!(
            dst.encode_entry(&raced),
            before.encode_entry(&raced),
            "{at}"
        );
    }

    // The next pull over the link is proposed from the *plan's*
    // generation: it pushes the raced key, which the journal holds, and
    // nothing the racing pull was already told about.
    let mut expected = dst.clone();
    unplanned_pull(&mut expected, &src_now);
    let (_, _, changed, pushed) = pull(&mut dst);
    let raced_bytes = Bytes::from(raced.clone().into_bytes());
    if admitted {
        assert!(pushed.iter().all(|k| *k == raced_bytes), "{at}: {pushed:?}");
        assert_eq!(changed, Vec::<String>::new(), "{at}");
    } else {
        assert_eq!(pushed, [raced_bytes], "{at}");
        assert_eq!(changed, std::slice::from_ref(&raced), "{at}");
    }
    assert_eq!(
        dst.encode_entry(&raced),
        src_now.encode_entry(&raced),
        "{at}"
    );
    assert_eq!(
        dst.replica_digest_full(),
        expected.replica_digest_full(),
        "{at}"
    );
    if form == Form::Children {
        assert_eq!(
            dst.replica_digest_full(),
            src_now.replica_digest_full(),
            "{at}"
        );
    }
    assert_eq!(
        *src.borrow(),
        src_now,
        "{at}: a contact never writes to its source"
    );
}

/// All fifteen, enumerated rather than sampled: with two views of the
/// source in one pull, *which* interleaving goes wrong is what a seeded
/// schedule would have to be lucky about.
#[test]
fn a_racing_write_between_plan_and_endpoint_is_served_whole_or_left_for_the_next_pull() {
    for form in FORMS {
        for race in RACES {
            a_write_between_plan_and_endpoint(form, race);
        }
    }
}

/// A write on the *pulling* side between its digest vector and its
/// endpoint, to a key the source pushes: the push rests on the vector's
/// proof, which does not cover the write, so the puller cancels that
/// stream — its bytes crossed for nothing and are reported as excess —
/// and lands its sibling. The key's shard is not remembered as served,
/// and the key meets the source's version on the next pull, as a
/// conflict. Every event of both pulls passes `CheckSink`.
#[test]
fn a_pushed_key_the_puller_wrote_after_its_digest_is_cancelled_and_lands_next_pull() {
    let (mut dst, mut src) = refined_stores();
    let (mut serving, mut remembered) = (Serving::default(), VectorMemory::default());
    let ring = Arc::new(RingSink::new(1 << 16));
    let pull = |dst: &mut KvStore,
                src: &KvStore,
                serving: &mut Serving,
                remembered: &mut VectorMemory,
                racing: Option<&str>| {
        let mut source = source_of(src);
        let mut link = InProcessLink::serving(serving, &mut source);
        let (digests, digested_at) = (dst.shard_digest_vector(), dst.generation());
        let mut keys = Vec::new();
        let (client, plan, contact) =
            pull_planned(&mut link, remembered, &digests, |plan, push| {
                if let Some(key) = racing {
                    dst.put(key, "mine, after the digest");
                }
                let restricted = dst.client_endpoint_refined(plan, push, digested_at)?;
                keys = restricted.client.pushed_keys().cloned().collect();
                Ok(restricted)
            })
            .expect("pull");
        let committed = dst.apply_planned(&JoinResolver, client, &contact, &plan);
        let committed = committed.expect("commit");
        remembered.settle(&committed.landed);
        (plan, contact, committed, keys)
    };
    obs::with(ring.clone(), || {
        pull(&mut dst, &src, &mut serving, &mut remembered, None);
    });
    let [raced, sibling] = {
        let mut two: Vec<String> = refined_keys_in(4).take(2).collect();
        two.sort();
        [two[0].clone(), two[1].clone()]
    };
    for key in [&raced, &sibling] {
        src.put(key.clone(), "theirs");
    }
    let (plan, contact, committed, pushed) = obs::with(ring.clone(), || {
        pull(&mut dst, &src, &mut serving, &mut remembered, Some(&raced))
    });
    assert_eq!(plan.proposed, [4]);
    let names: Vec<&[u8]> = pushed.iter().map(|key| &key[..]).collect();
    assert_eq!(names, [raced.as_bytes(), sibling.as_bytes()]);
    assert_eq!(committed.keys(&dst), [sibling.as_str()]);
    assert_eq!(dst.get(&raced), Some(&b"mine, after the digest"[..]));
    assert!(committed.landed.iter().all(|(shard, _)| *shard != 4));
    // The key not run, priced as the push prices it: its one element
    // (3 B, the `SYNCS` message that sends it) and its value (7 B, a tag
    // and `theirs`), and nothing else: its sibling was all taken.
    let excess = contact.excess_bytes;
    assert_eq!(excess, 3 + 7, "{contact:?}");
    let reported: Vec<u64> = (ring.events().into_iter())
        .filter_map(|event| match event {
            SyncEvent::LinkExcess { bytes } => Some(bytes),
            _ => None,
        })
        .collect();
    assert_eq!(reported, [excess]);
    // The next pull: the shard is walked, the key reconciled.
    let mut expected = dst.clone();
    unplanned_pull(&mut expected, &src);
    let (plan, contact, committed, _) = obs::with(ring.clone(), || {
        pull(&mut dst, &src, &mut serving, &mut remembered, None)
    });
    assert!(plan.proposed.is_empty(), "{plan:?}");
    assert_eq!(committed.report.keys_reconciled, 1);
    assert_eq!(contact.excess_bytes, 0);
    assert_eq!(dst.replica_digest_full(), expected.replica_digest_full());
    let check = CheckSink::new();
    for event in ring.events() {
        check
            .check(&event)
            .expect("Theorem 5.1 and byte conservation");
    }
    check.finish().expect("every contact ends");
    assert_eq!(check.checked_contacts(), 3);
}

// ---------------------------------------------------------------------
// (b') A turn carries one message a stream; each stream's transcript is
// the lockstep's.

/// What a serving step answers one received frame with.
type Step = fn(&mut BatchPullServer, wire::Frame, &mut BytesMut) -> Result<ServeStep>;

/// The serving step as it was before a turn carried one message per
/// live stream: exactly one frame a turn, the whole outbox at the FIN.
/// Never served; the reference [`serve_frame`] is checked against.
fn one_frame_a_turn(
    server: &mut BatchPullServer,
    frame: wire::Frame,
    out: &mut BytesMut,
) -> Result<ServeStep> {
    if frame.stream != TURN_STREAM {
        let mut payload = frame.payload;
        server.on_receive(Framed::new(frame.stream, MuxMsg::decode(&mut payload)?))?;
        return Ok(ServeStep::Continue);
    }
    let fin = frame.payload[..] == [1];
    while let Some(framed) = server.poll_send() {
        framed.encode(out);
        if !fin {
            break;
        }
    }
    wire::put_frame(out, TURN_STREAM, if fin { &[1] } else { &[] });
    Ok(if fin {
        ServeStep::Done
    } else {
        ServeStep::Continue
    })
}

/// Each stream's messages, both ways, in wire order: `(from the puller,
/// message)`, the control frames that batch streams split into one
/// message a stream.
type StreamLogs = BTreeMap<u64, Vec<(bool, MuxMsg)>>;

/// An in-process link whose far end is `step` on `server`, logging what
/// crosses each stream. With `poison` set, a second greeting on stream
/// 1 follows the `BatchHello`, and the server cancels that stream.
struct StepLink<'a> {
    server: &'a mut BatchPullServer,
    step: Step,
    poison: bool,
    out: BytesMut,
    inbox: Bytes,
    logs: StreamLogs,
    /// Frames and bytes the server wrote, markers aside.
    served: (u64, u64),
}

impl StepLink<'_> {
    fn log(&mut self, from_puller: bool, frame: &wire::Frame) -> MuxMsg {
        let msg = MuxMsg::decode(&mut frame.payload.clone()).expect("a well-formed frame");
        let mut put = |stream: u64, msg: CtrlMsg| {
            let log = self.logs.entry(stream).or_default();
            log.push((from_puller, MuxMsg::Ctrl(msg)));
        };
        match msg.clone() {
            MuxMsg::Ctrl(CtrlMsg::BatchHello { discover, opens }) => {
                for open in opens {
                    let opens = vec![open.clone()];
                    put(open.stream, CtrlMsg::BatchHello { discover, opens });
                }
            }
            MuxMsg::Ctrl(CtrlMsg::BatchServerFirst { answers, offers }) => {
                for answer in answers {
                    let (stream, answers) = (answer.stream, vec![answer]);
                    let offers = Vec::new();
                    put(stream, CtrlMsg::BatchServerFirst { answers, offers });
                }
                for offer in offers {
                    let (stream, offers) = (offer.stream, vec![offer]);
                    let answers = Vec::new();
                    put(stream, CtrlMsg::BatchServerFirst { answers, offers });
                }
            }
            MuxMsg::Ctrl(CtrlMsg::BatchDone { streams }) => {
                for stream in streams {
                    let streams = vec![stream];
                    put(stream, CtrlMsg::BatchDone { streams });
                }
            }
            MuxMsg::Ctrl(CtrlMsg::Cancel { streams }) => {
                for stream in streams {
                    put(
                        stream,
                        CtrlMsg::Cancel {
                            streams: vec![stream],
                        },
                    );
                }
            }
            MuxMsg::Session(_) => {
                let log = self.logs.entry(frame.stream).or_default();
                log.push((from_puller, msg.clone()));
            }
        }
        msg
    }
}

impl FrameLink for StepLink<'_> {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let mut burst = Bytes::copy_from_slice(bytes);
        while !burst.is_empty() {
            let frame = wire::get_frame(&mut burst)?;
            let mut frames = vec![frame];
            if frames[0].stream != TURN_STREAM {
                let msg = self.log(true, &frames[0]);
                if self.poison && matches!(msg, MuxMsg::Ctrl(CtrlMsg::BatchHello { .. })) {
                    let again = msg_frame(1, MuxMsg::Session(SessionMsg::Hello { first: None }));
                    self.log(true, &again);
                    frames.push(again);
                }
            }
            for frame in frames {
                (self.step)(self.server, frame, &mut self.out)?;
            }
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<wire::Frame> {
        if self.inbox.is_empty() {
            self.inbox = self.out.split().freeze();
        }
        if self.inbox.is_empty() {
            return Err(Error::Incomplete {
                protocol: "step link",
            });
        }
        let frame = wire::get_frame(&mut self.inbox)?;
        if frame.stream != TURN_STREAM {
            self.log(false, &frame);
            self.served.0 += 1;
            self.served.1 += wire::Frame::encoded_len(frame.stream, frame.payload.len()) as u64;
        }
        Ok(frame)
    }

    fn fin(&mut self) {}
}

/// What one serving step made of a contact.
struct Served {
    report: ContactReport,
    outcomes: Vec<Finished>,
    logs: StreamLogs,
    /// Frames and bytes the server wrote, markers aside.
    served: (u64, u64),
}

impl Served {
    /// The most messages the server sent down one stream.
    fn longest_stream(&self) -> u64 {
        let served = |log: &Vec<(bool, MuxMsg)>| log.iter().filter(|(puller, _)| !puller).count();
        self.logs.values().map(served).max().unwrap_or(0) as u64
    }

    /// What the turns may cost under one message a stream a turn: the
    /// longest stream, the turns a window's worth of bytes spills into,
    /// and the turns with no stream message — the one that carries
    /// `BatchServerFirst` alone, the payload requests' round trip, the
    /// FIN. Nothing in it grows with the number of streams.
    fn turn_bound(&self) -> u64 {
        self.longest_stream() + self.served.1.div_ceil(64 * 1024) + 3
    }
}

fn serve_with(
    step: Step,
    (mut client, mut server): (BatchPullClient, BatchPullServer),
    poison: bool,
) -> Served {
    let mut link = StepLink {
        server: &mut server,
        step,
        poison,
        out: BytesMut::new(),
        inbox: Bytes::new(),
        logs: BTreeMap::new(),
        served: (0, 0),
    };
    let report = pull_contact(&mut client, &mut link).expect("contact");
    let (logs, served) = (link.logs, link.served);
    Served {
        report,
        outcomes: finished(client),
        logs,
        served,
    }
}

/// Runs one contact's endpoints under [`serve_frame`] and under the
/// lockstep reference, and requires of every stream the same messages
/// both ways and the same outcome — `Δ`/`Γ`/`γ` included — and of the
/// contact the same compare, meta and payload planes; frames and
/// framing may only shrink, as `BatchDone`s coalesce. Returns both.
fn same_streams(
    name: &str,
    endpoints: impl Fn() -> (BatchPullClient, BatchPullServer),
    poison: bool,
) -> (Served, Served) {
    let lockstep = serve_with(one_frame_a_turn, endpoints(), poison);
    let turns = serve_with(serve_frame, endpoints(), poison);
    assert_eq!(turns.logs.len(), lockstep.logs.len(), "{name}");
    for ((stream, log), (_, reference)) in turns.logs.iter().zip(&lockstep.logs) {
        assert_eq!(log, reference, "{name}: stream {stream}");
    }
    assert_eq!(turns.outcomes, lockstep.outcomes, "{name}");
    let planes = |r: &ContactReport| {
        (
            r.compare_bytes,
            r.meta_bytes,
            r.payload_bytes,
            r.round_trips,
        )
    };
    assert_eq!(planes(&turns.report), planes(&lockstep.report), "{name}");
    assert!(turns.report.frames <= lockstep.report.frames, "{name}");
    assert!(
        turns.report.framing_bytes <= lockstep.report.framing_bytes,
        "{name}"
    );
    assert!(
        turns.report.link_turns <= turns.turn_bound(),
        "{name}: {} turns, bound {}",
        turns.report.link_turns,
        turns.turn_bound()
    );
    (turns, lockstep)
}

/// The exchanges of `pulls` planned pulls of `dst` from `src` over one
/// in-process link — the first of [`refined_stores`]' second-pull
/// fixture's moves between two: each pull's restricted client and
/// served endpoint over the walked shards, built a second time from the
/// views the pull built its own from. (The push is no exchange: its
/// keys are whole in the planning turn.)
fn planned_exchanges(
    mut dst: KvStore,
    src: KvStore,
    pulls: usize,
) -> Vec<(BatchPullClient, BatchPullServer)> {
    let src = RefCell::new(src);
    let served = RefCell::new(Vec::new());
    let mut source = |ask: ContactAsk<'_>| {
        if let ContactAnswer::Endpoint(server, _) = src.borrow().open_contact(ask) {
            served.borrow_mut().push(server);
        }
        src.borrow().open_contact(ask)
    };
    let mut serving = Serving::default();
    let mut link = InProcessLink::serving(&mut serving, &mut source);
    let (mut remembered, mut clients) = (VectorMemory::default(), Vec::new());
    for pull in 0..pulls {
        if pull > 0 {
            source_moves_on(&mut src.borrow_mut());
            puller_moves_on(&mut dst);
        }
        let digests = dst.shard_digest_vector();
        let (client, plan, contact) =
            pull_planned(&mut link, &mut remembered, &digests, |plan, push| {
                let generation = dst.generation();
                let unpushed = dst.client_endpoint_refined(plan, &Bytes::new(), generation)?;
                clients.push(unpushed.client);
                dst.client_endpoint_refined(plan, push, generation)
            })
            .expect("pull");
        dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan)
            .expect("commit");
    }
    drop(link);
    clients.into_iter().zip(served.into_inner()).collect()
}

/// `n` keys written once more at the source than the puller holds, all
/// at one site: `crates/perf`'s `dense_pull` as one contact, a 256-byte
/// value a key.
fn dense_case(n: usize) -> Case {
    let (mut client, mut server) = (Vec::new(), Vec::new());
    for i in 0..n {
        let name = Bytes::from(format!("key-{i:05}").into_bytes());
        let written = 1 + (i % 3) as u32;
        let history = vec![1; written as usize];
        client.push((name.clone(), updated(Srv::new(), &history)));
        let value = Bytes::from(vec![b'a' + (i % 26) as u8; 256]);
        server.push((
            name,
            updated(Srv::new(), &[history, vec![1]].concat()),
            value,
        ));
    }
    Case {
        name: "dense",
        client,
        server,
    }
}

/// `ours` after pulling `theirs` from a concurrent peer: the
/// reconciled vector, its elements tagged with the conflict.
fn reconciled(ours: Srv, theirs: Srv) -> Srv {
    let name = Bytes::from_static(b"r");
    let mut client = BatchPullClient::new([(name.clone(), ours)]);
    let mut server = BatchPullServer::new([(name, theirs, Bytes::new())]);
    run_contact(&mut client, &mut server).expect("reconcile");
    let outcome = client.finish().remove(0).outcome.expect("reconciled");
    assert_eq!(outcome.relation, Causality::Concurrent);
    outcome.vector
}

/// 240 objects over twelve sites with long shared histories, cycling
/// through equal, behind, ahead and concurrent vectors, objects only
/// the server holds (offered) and only the puller tracks. A concurrent
/// server has reconciled with a third site before moving on, so the
/// puller meets tagged elements it knows and skips their segments.
fn mixed_case() -> Case {
    let mut rng = SplitMix64::new(0x0000_5EA5_0CA1_1ED5);
    let mut draw = |n: u64, sites: u64| -> Vec<u32> {
        (0..n).map(|_| (rng.next_u64() % sites) as u32).collect()
    };
    let (mut client, mut server) = (Vec::new(), Vec::new());
    for i in 0..240usize {
        let name = Bytes::from(format!("m{i:03}").into_bytes());
        let base = updated(Srv::new(), &draw(4 + i as u64 % 12, 12));
        let (theirs, ours) = (draw(1 + i as u64 % 3, 12), draw(1 + i as u64 % 2, 12));
        let payload = Bytes::from(vec![b'p'; 20 + i % 200]);
        match i % 6 {
            0 => {
                client.push((name.clone(), base.clone()));
                server.push((name, base, payload));
            }
            1 => {
                client.push((name.clone(), base.clone()));
                server.push((name, updated(base, &theirs), payload));
            }
            2 => {
                client.push((name.clone(), updated(base.clone(), &ours)));
                server.push((name, base, payload));
            }
            3 => {
                let ours: Vec<u32> = ours.iter().map(|s| s + 20).collect();
                let third = updated(base.clone(), &[30, 31]);
                let merged = reconciled(updated(base.clone(), &theirs), third);
                client.push((name.clone(), updated(base, &ours)));
                server.push((name, updated(merged, &[32]), payload));
            }
            4 => server.push((name, base, payload)),
            _ => client.push((name, base)),
        }
    }
    Case {
        name: "mixed",
        client,
        server,
    }
}

/// Two keys that share all 31 bits of placement: a journal that lists
/// one lists the other, so a push of a change to one pushes both.
const SHARING_PLACEMENT: [&str; 2] = ["p133bba9a1", "p9aa423960"];

/// A pushed key reaches its receiver as its stream would, one message a
/// turn: over keys the server moved on from where the puller holds them —
/// plainly, so that the receiver halts on the first element of the
/// multi-site base it knows, and the sender's elements past it are
/// not wanted; or after reconciling with a third site, so that the
/// puller meets tagged elements it knows and skips their segments — keys
/// the puller does not hold, keys it holds equal, keys whose last
/// segment the receiver is skipping when the sender reaches its end (the
/// session run at the puller sends its `SegSkipped`, then its `HALT`,
/// neither of which crossed), and an unchanged key pushed because it
/// shares its placement with a changed one, the push's per-key
/// outcomes, Δ/Γ/γ included, are the lockstep's, and what the lockstep
/// would not have sent (an equal key's session, elements past a `HALT`
/// or inside a skipped segment) is excess.
#[test]
fn a_pushed_stream_reaches_its_receiver_as_the_lockstep_would() {
    let mut rng = SplitMix64::new(0x0000_9B5E_D5EA_5EED);
    let mut draw = |n: u64| -> Vec<u32> { (0..n).map(|_| (rng.next_u64() % 12) as u32).collect() };
    let (mut held, mut served) = (Vec::new(), Vec::new());
    for i in 0..200usize {
        let name = Bytes::from(format!("p{i:03}").into_bytes());
        let base = updated(Srv::new(), &draw(4 + i as u64 % 12));
        let theirs = draw(1 + i as u64 % 3);
        let (ours, theirs) = match i % 5 {
            0 => (Some(base.clone()), updated(base, &theirs)),
            1 => {
                // The puller holds the third site's version the server
                // reconciled with: its tagged elements are known.
                let third = updated(base.clone(), &[30, 31]);
                let merged = reconciled(updated(base, &theirs), third.clone());
                (Some(third), updated(merged, &[32]))
            }
            2 => (None, base),
            3 => (Some(base.clone()), base),
            _ => {
                // The puller reconciled two sites' writes and wrote
                // again: its own element leaves the tail, and the
                // tagged elements it took in are the vector's last
                // segment. A server that took that in and wrote sends
                // its own element, then that segment — which the
                // receiver meets known and tagged, and skips to the end.
                let (ours, theirs) = (20 + i as u32 % 4, 24 + i as u32 % 4);
                let other = updated(Srv::new(), &[theirs]);
                let held = updated(reconciled(updated(Srv::new(), &[ours]), other), &[ours]);
                let own = updated(Srv::new(), &[28]);
                (Some(held.clone()), updated(reconciled(own, held), &[28]))
            }
        };
        held.push((name.clone(), ours));
        served.push((name, theirs, Bytes::from(vec![b'p'; 20 + i % 200])));
    }
    // The pair sharing a placement: one moved on, the other equal.
    let [moved, unchanged] = SHARING_PLACEMENT.map(|key| Bytes::from_static(key.as_bytes()));
    assert_eq!(
        shard_of(&moved, JOURNAL_PLACEMENTS),
        shard_of(&unchanged, JOURNAL_PLACEMENTS)
    );
    let base = updated(Srv::new(), &[1, 2, 3]);
    held.push((moved.clone(), Some(base.clone())));
    served.push((
        moved,
        updated(base.clone(), &[4]),
        Bytes::from_static(b"moved"),
    ));
    held.push((unchanged.clone(), Some(base.clone())));
    served.push((unchanged.clone(), base, Bytes::from_static(b"same")));
    let lockstep = {
        let named = held
            .iter()
            .filter_map(|(n, v)| Some((n.clone(), v.clone()?)));
        let endpoints = (
            BatchPullClient::new(named),
            BatchPullServer::new(served.clone()),
        );
        serve_with(one_frame_a_turn, endpoints, false)
    };
    // What the lockstep shows of each case, per key: the receiver
    // halted while the sender had elements left, in a vector of more
    // than one site; and the receiver was skipping the last segment
    // when the sender reached its end (its `SegSkipped`, then `HALT`).
    let names: BTreeMap<u64, Bytes> = (lockstep.outcomes.iter())
        .map(|(stream, name, ..)| (*stream, name.clone()))
        .collect();
    let sites: BTreeMap<Bytes, usize> = (served.iter())
        .map(|(name, vector, _)| (name.clone(), vector.len()))
        .collect();
    let session = |msg: &MuxMsg| match msg {
        MuxMsg::Session(SessionMsg::Vector(msg)) => Some(msg.clone()),
        _ => None,
    };
    let (mut halted_early, mut skipping_at_end) = (0, 0);
    for (stream, log) in &lockstep.logs {
        let from_server: Vec<Msg> = (log.iter())
            .filter(|(puller, _)| !puller)
            .filter_map(|(_, msg)| session(msg))
            .collect();
        let puller_halted =
            (log.iter()).any(|(puller, msg)| *puller && session(msg) == Some(Msg::Halt));
        if puller_halted && sites[&names[stream]] > 1 {
            halted_early += 1;
        }
        if matches!(from_server[..], [.., Msg::SegSkipped { .. }, Msg::Halt]) {
            skipping_at_end += 1;
        }
    }
    // The first two cases and the key that moved; the fifth case.
    assert_eq!((halted_early, skipping_at_end), (81, 40));

    // The planning turn of a link's later contact at one shard, which
    // it proposes: the plan, then the push, then the marker.
    let digests = DigestVector {
        shards: vec![ShardDigest::default()],
    };
    let mut remembered = VectorMemory::default();
    remembered.remember(&digests, []);
    let plan = ShardPlan {
        count: 1,
        incremental: vec![0],
        proposed: vec![0],
        ..ShardPlan::default()
    };
    let mut turn_bytes = plan_frame(&plan);
    served.sort_by(|a, b| a.0.cmp(&b.0));
    let push = push_frame(&image_of(&served));
    wire::put_frame(&mut turn_bytes, CONTROL_STREAM, &push.payload);
    wire::put_frame(&mut turn_bytes, TURN_STREAM, &[]);
    let mut out = BytesMut::new();
    let mut puller = Puller::open_planned(&digests, &remembered, &mut out);
    let mut turn_bytes = turn_bytes.freeze();
    while !turn_bytes.is_empty() {
        let frame = wire::get_frame(&mut turn_bytes).expect("a frame");
        assert!(puller
            .on_frame(frame, &mut out)
            .expect("the push")
            .is_none());
    }
    puller.take_plan().expect("the plan");
    assert_eq!(puller.push_image()[..], push.payload[1..]);
    // Each key taken as a store reads it off the push.
    let ours: BTreeMap<Bytes, Option<Srv>> = held.into_iter().collect();
    let mut client = BatchPullClient::new(Vec::new());
    for (key, theirs, value) in &served {
        let held = match &ours[key] {
            Some(vector) => Pushed::Held(vector.clone()),
            None => Pushed::Absent,
        };
        client.take_pushed(key.clone(), held, theirs.clone(), Some(value.clone()));
    }
    out.clear();
    puller
        .exchange(&mut client, 1, None, 0, &mut out)
        .expect("the push lands");
    let report = puller.on_frame(fin(), &mut out).expect("done");
    let report = report.expect("the contact ends with the server's FIN");
    assert_eq!(report.round_trips, 1);

    // Per key, by name: a pushed key rides no stream.
    let by_name = |outcomes: Vec<Finished>| -> BTreeMap<Bytes, _> {
        (outcomes.into_iter())
            .map(|(_, name, discovered, aborted, outcome)| (name, (discovered, aborted, outcome)))
            .collect()
    };
    let pushed = by_name(finished(client));
    let reference = by_name(lockstep.outcomes);
    assert_eq!(pushed.len(), 202);
    assert_eq!(pushed, reference);
    // The key that shares its placement arrives equal and costs no value.
    let (_, _, outcome) = &pushed[&unchanged];
    let (relation, value, ..) = outcome.as_ref().expect("an outcome");
    assert_eq!((*relation, value), (Causality::Equal, &None));
    let stats = pushed.values().filter_map(|o| o.2.as_ref().map(|o| o.3));
    let (skips, gamma) = stats.fold((0, 0), |(s, g), st| (s + st.skips, g + st.gamma));
    assert!(
        skips > 0 && gamma > 0,
        "segments skipped: {skips}, Γ {gamma}"
    );
    // What the push carried that the receivers took moved fewer bytes
    // than the lockstep did: no hello, no answer, no reply. The image is
    // shorter than the elements and values it carries, priced as their
    // streams carried them (a vector of 4 to 15 sites costs a byte an
    // element less written out than as `SYNCS` messages): it is priced
    // at its bytes, no framing.
    assert_eq!(
        (
            report.excess_bytes,
            report.total_bytes,
            report.framing_bytes
        ),
        (7_012, 27_810, 0),
        "{report:?}"
    );
    assert_eq!(lockstep.report.total_bytes, 28_520);
    let taken = report.total_bytes - report.excess_bytes;
    assert!(taken < lockstep.report.total_bytes, "{report:?}");
}

#[test]
fn a_turn_carries_one_message_a_stream_and_every_stream_its_lockstep_transcript() {
    // The pinned fixtures: the 64 objects, and the exchanges of the
    // planned, the refined and the proposed second pull.
    let many = many_objects_case();
    let (turns, lockstep) = same_streams(many.name, || many.endpoints(), false);
    assert_eq!(
        (turns.report.link_turns, lockstep.report.link_turns),
        (10, 150)
    );
    let planned = || planned_exchanges(planned_stores().0, planned_stores().1, 1);
    let refined = || planned_exchanges(refined_stores().0, refined_stores().1, 1);
    let second = || planned_exchanges(refined_stores().0, refined_stores().1, 2);
    same_streams("planned", || planned().remove(0), false);
    same_streams("refined", || refined().remove(0), false);
    same_streams("second pull", || second().remove(1), false);

    // Every per-stream outcome, a cancelled stream and discovery.
    let mixed = mixed_case();
    let (turns, _) = same_streams(mixed.name, || mixed.endpoints(), true);
    let stats = turns
        .outcomes
        .iter()
        .filter_map(|o| o.4.as_ref().map(|o| o.3));
    let (skips, gamma) = stats.fold((0, 0), |(s, g), st| (s + st.skips, g + st.gamma));
    assert!(
        skips > 0 && gamma > 0,
        "segments skipped: {skips}, Γ {gamma}"
    );
    assert!(turns.outcomes.iter().any(|o| o.2), "an object was offered");
    let cancelled: Vec<u64> = turns.outcomes.iter().filter(|o| o.3).map(|o| o.0).collect();
    assert_eq!(cancelled, [1]);
    let relations: std::collections::BTreeSet<String> = (turns.outcomes.iter())
        .filter_map(|o| o.4.as_ref().map(|o| format!("{:?}", o.0)))
        .collect();
    assert_eq!(relations.len(), 4, "{relations:?}");

    // Dense and one-site: the turns follow the longest stream and the
    // window, not the stream count; one frame a turn took a turn a
    // server frame.
    let small = dense_case(96);
    let (small, _) = same_streams(small.name, || small.endpoints(), false);
    let dense = dense_case(3072);
    let (turns, lockstep) = same_streams(dense.name, || dense.endpoints(), false);
    assert_eq!(turns.longest_stream(), small.longest_stream());
    let spilled = turns.served.1.div_ceil(64 * 1024);
    assert!(turns.report.link_turns <= small.report.link_turns + spilled);
    assert!(lockstep.report.link_turns >= lockstep.served.0);
    eprintln!(
        "dense: {} turns ({} one frame a turn, {} server frames) over {} streams, {} B served; 96 streams: {} turns",
        turns.report.link_turns,
        lockstep.report.link_turns,
        lockstep.served.0,
        turns.logs.len(),
        turns.served.1,
        small.report.link_turns,
    );
}

// ---------------------------------------------------------------------
// (c) Every cut aborts cleanly.

/// One in-process pull of `case` over a link that dies `k` bytes in.
fn cut_pull(case: &Case, k: u64) -> Result<ContactReport> {
    let (mut client, mut server) = case.endpoints();
    let mut cut = FaultyLink::new(FaultPlan::disconnect_at(k));
    pull_contact(
        &mut client,
        &mut Faulted::new(InProcessLink::new(&mut server), &mut cut),
    )
}

#[test]
fn a_cut_at_every_byte_aborts_without_a_trace() {
    let case = one_object_case();
    let mut weather = FaultyLink::clean();
    let (mut client, mut server) = case.endpoints();
    pull_contact(
        &mut client,
        &mut Faulted::new(InProcessLink::new(&mut server), &mut weather),
    )
    .expect("clean plan is transparent");
    let total = weather.stats().bytes_delivered;
    assert!(total > 0);

    // A budget of exactly `total` bytes is never exceeded, so the last
    // cut that can abort the contact is one byte short of it.
    for k in 0..total {
        let ring = Arc::new(RingSink::new(1 << 12));
        let err = obs::with(ring.clone(), || cut_pull(&case, k)).expect_err("cut must abort");
        let events = ring.events();
        let aborts = events
            .iter()
            .filter(|ev| matches!(ev, SyncEvent::SessionAborted { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|ev| matches!(ev, SyncEvent::ContactEnd { .. }))
            .count();
        assert_eq!((aborts, ends), (1, 0), "cut at {k}/{total}");
        assert!(
            matches!(reason_label(&err), "connection_lost" | "stalled"),
            "cut at {k}/{total}: {err:?}"
        );
    }
}

/// The planning turn is part of the contact: a cut anywhere in a
/// planned pull — digest vector, plan, scope, exchange — aborts it with
/// the destination untouched, and a clean retry converges, and so does
/// the pair once the source pulls back.
fn a_cut_at_every_byte_leaves_the_store_alone(mut dst: KvStore, mut src: KvStore) -> KvSyncReport {
    let mut clean = FaultyLink::clean();
    let mut reference = dst.clone();
    let pulled = reference.sync(&src).via(&mut clean).run();
    let pulled = pulled.expect("clean plan");
    let total = clean.stats().bytes_delivered;

    let before = (dst.replica_digest(), dst.generation());
    let source = (src.replica_digest(), src.generation());
    for k in 0..total {
        let mut cut = FaultyLink::new(FaultPlan::disconnect_at(k));
        let err = dst
            .sync(&src)
            .via(&mut cut)
            .run()
            .expect_err("cut must abort");
        assert!(
            matches!(reason_label(&err), "connection_lost" | "stalled"),
            "cut at {k}/{total}: {err:?}"
        );
        let after = (dst.replica_digest(), dst.generation());
        assert_eq!(after, before, "cut at {k}/{total} moved the store");
        assert_eq!((src.replica_digest(), src.generation()), source);
    }
    let mut exact = FaultyLink::new(FaultPlan::disconnect_at(total));
    dst.sync(&src)
        .via(&mut exact)
        .run()
        .expect("the retry is not cut");
    assert_eq!(dst.replica_digest(), reference.replica_digest());
    src.sync(&dst).run().expect("the source pulls back");
    dst.sync(&src).run().expect("and the puller again");
    assert!(dst.consistent_with(&src), "the pair converges");
    pulled
}

/// Every stream outcome a commit stages crosses the sweep: keys created
/// in an incremental shard (discovery), fast-forwarded and reconciled,
/// and a shard bulk-loaded whole.
#[test]
fn a_cut_at_every_byte_of_a_planned_pull_leaves_the_store_alone() {
    let (dst, src) = planned_stores();
    // The source's keys in the puller's never-populated shard 3 of 4.
    let bulk: u64 = (src.shard_digest_vector().shards.iter().enumerate())
        .filter(|(shard, _)| shard % 4 == 3)
        .map(|(_, digest)| digest.entries)
        .sum();
    let pulled = a_cut_at_every_byte_leaves_the_store_alone(dst, src);
    let kinds = [
        pulled.keys_created as u64 - bulk,
        pulled.keys_fast_forwarded as u64,
        pulled.keys_reconciled as u64,
        pulled.shards_snapshot as u64,
    ];
    assert!(kinds.iter().all(|&n| n > 0), "{pulled:?}");
}

/// The sweep again through a plan with children and a scope frame. The
/// puller's digest vector is most of the bytes and is swept by the test
/// above; this fixture is small so that the sweep stays quick.
#[test]
fn a_cut_at_every_byte_of_a_refined_pull_leaves_the_store_alone() {
    let mut src = KvStore::with_shards(SiteId::new(1), 8);
    let mut dst = KvStore::with_shards(SiteId::new(0), 8);
    for i in 0..320 {
        src.put(format!("k{i:03}"), "v");
    }
    dst.sync(&src).run().expect("bootstrap");
    src.put("k007", "moved on");
    dst.put("k007", "meanwhile");
    let digests = dst.shard_digest_vector();
    let (plan, _) = src.plan_contact(&digests, &PlanConfig::default());
    assert!(
        plan.children.is_some(),
        "the sweep must cross a scope frame"
    );
    a_cut_at_every_byte_leaves_the_store_alone(dst, src);
}

/// The sweep once more through a link's *second* contact, the one that
/// opens with a delta and is answered with a proposal: a cut anywhere in
/// it leaves the store alone and the puller's memory empty, so the next
/// pull — on a fresh link, the old one being dead, whose serving end
/// remembers nothing either — sends a full vector, is proposed nothing
/// and converges.
#[test]
fn a_cut_at_every_byte_of_a_second_pull_leaves_the_store_and_no_memory() {
    let mut src = KvStore::with_shards(SiteId::new(1), 8);
    let mut dst = KvStore::with_shards(SiteId::new(0), 8);
    for i in 0..320 {
        src.put(format!("k{i:03}"), "v");
    }
    dst.sync(&src).run().expect("bootstrap");
    src.put("k007", "moved on");

    /// What two pulls over one link made of a store.
    struct TwoPulls {
        first: Result<(ContactReport, KvSyncReport)>,
        /// The puller's `(digest, generation)` as the second pull began.
        before: (u64, u64),
        second: Result<(ContactReport, KvSyncReport)>,
        remembered: VectorMemory,
        delivered: u64,
        src: KvStore,
    }
    // Pull, both sides move on, pull again — over one in-process link
    // under `weather`.
    let two_pulls = |dst: &mut KvStore, mut weather: FaultyLink| {
        let src = RefCell::new(src.clone());
        let mut source = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
        let mut remembered = VectorMemory::default();
        let mut serving = Serving::default();
        let mut link = Faulted::new(
            InProcessLink::serving(&mut serving, &mut source),
            &mut weather,
        );
        let first = planned_pull_on(dst, &mut link, &mut remembered);
        src.borrow_mut().put("k100", "moved on later");
        dst.put("k200", "meanwhile");
        let before = (dst.replica_digest(), dst.generation());
        let second = planned_pull_on(dst, &mut link, &mut remembered);
        TwoPulls {
            first,
            before,
            second,
            remembered,
            delivered: weather.stats().bytes_delivered,
            src: src.into_inner(),
        }
    };

    let mut reference = dst.clone();
    let clean = two_pulls(&mut reference, FaultyLink::clean());
    let (first, _) = clean.first.expect("clean first pull");
    let (second, _) = clean.second.expect("clean second pull");
    // The shard the puller wrote; not `k007`'s, which the first pull
    // fast-forwarded and both ends remember as served.
    assert_eq!((second.digests_sent, second.shards_total), (1, 8));
    assert_eq!(second.shards_proposed, 1, "the sweep must cross a proposal");
    let first_bytes = first.total_bytes + first.digest_bytes;
    let total = first_bytes + second.total_bytes + second.digest_bytes;
    assert_eq!(clean.delivered, total);

    // A budget of exactly `first_bytes` lets the first contact through
    // and cuts the second before its first byte.
    for k in first_bytes..total {
        let mut dst = dst.clone();
        let cut = two_pulls(&mut dst, FaultyLink::new(FaultPlan::disconnect_at(k)));
        cut.first.expect("the first pull fits the budget");
        let err = cut.second.expect_err("cut must abort");
        assert!(
            matches!(reason_label(&err), "connection_lost" | "stalled"),
            "cut at {k}/{total}: {err:?}"
        );
        assert_eq!(
            (dst.replica_digest(), dst.generation()),
            cut.before,
            "cut at {k}/{total} moved the store"
        );
        assert_eq!(
            cut.remembered,
            VectorMemory::default(),
            "cut at {k}/{total}"
        );
        let mut remembered = cut.remembered;
        let mut source = source_of(&cut.src);
        let mut serving = Serving::default();
        let mut fresh = InProcessLink::serving(&mut serving, &mut source);
        let (retry, _) =
            planned_pull_on(&mut dst, &mut fresh, &mut remembered).expect("the retry is not cut");
        assert_eq!(retry.digests_sent, retry.shards_total, "cut at {k}/{total}");
        assert_eq!(
            retry.shards_proposed, 0,
            "a fresh link remembers no contact"
        );
        assert_eq!(dst.replica_digest(), reference.replica_digest());
    }
}

// ---------------------------------------------------------------------
// (d) Hostile sequences fail the step machines; nothing panics or loops.

/// A push's tag.
const TAG_PUSH: u8 = 0x3b;

/// The state of a record as `KvStore::encode_entry` writes it.
fn state_of(vector: &Srv, value: &[u8]) -> Bytes {
    let mut buf = BytesMut::new();
    wire::put_bytes(&mut buf, &vector.encode_snapshot());
    buf.extend_from_slice(&[1]);
    wire::put_bytes(&mut buf, value);
    buf.freeze()
}

/// The image of `records`, keys strictly ascending, as a store writes
/// one.
fn image_of(records: &[(Bytes, Srv, Bytes)]) -> Bytes {
    let states: Vec<(Bytes, Bytes)> = (records.iter())
        .map(|(key, vector, value)| (key.clone(), state_of(vector, value)))
        .collect();
    let image = EntryImage::new(states.iter().map(|(key, state)| (key, state)));
    let mut buf = Vec::new();
    (image.expect("keys ascending").write_to(&mut buf)).expect("a Vec takes every byte");
    Bytes::from(buf)
}

/// The push frame of `image`: its tag, then the image.
fn push_frame(image: &[u8]) -> wire::Frame {
    frame(CONTROL_STREAM, &[&[TAG_PUSH], image].concat())
}

fn frame(stream: u64, payload: &[u8]) -> wire::Frame {
    wire::Frame {
        stream,
        payload: Bytes::copy_from_slice(payload),
    }
}

fn turn() -> wire::Frame {
    frame(TURN_STREAM, &[])
}

fn fin() -> wire::Frame {
    frame(TURN_STREAM, &[1])
}

fn msg_frame(stream: u64, msg: MuxMsg) -> wire::Frame {
    frame(stream, &msg.to_bytes())
}

/// A `BatchHello` opening one stream on the server's only object.
fn hello() -> wire::Frame {
    msg_frame(
        CONTROL_STREAM,
        MuxMsg::Ctrl(CtrlMsg::BatchHello {
            discover: false,
            opens: vec![StreamOpen {
                stream: 1,
                name: Bytes::from_static(b"k"),
                first: None,
            }],
        }),
    )
}

/// A planner frame (tag `0x35`, outside the mux tag space).
fn planner_frame() -> wire::Frame {
    frame(CONTROL_STREAM, &[0x35, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
}

/// Feeds `frames` to a fresh server over the one-object case and
/// returns the first error; panics if the whole sequence is accepted.
fn serve_until_error(frames: Vec<wire::Frame>) -> Error {
    let (_, mut server) = one_object_case().endpoints();
    let mut out = BytesMut::new();
    for frame in frames {
        if let Err(e) = serve_frame(&mut server, frame, &mut out) {
            return e;
        }
    }
    panic!("the server accepted a hostile sequence");
}

#[test]
fn hostile_sequences_fail_the_serving_step() {
    serve_until_error(vec![turn()]);
    serve_until_error(vec![fin(), fin()]);
    serve_until_error(vec![hello(), fin()]);
    serve_until_error(vec![hello(), turn(), planner_frame()]);
    serve_until_error(vec![hello(), frame(TURN_STREAM, b"junk")]);
    // A completed (empty) contact accepts nothing more.
    let empty_hello = msg_frame(
        CONTROL_STREAM,
        MuxMsg::Ctrl(CtrlMsg::BatchHello {
            discover: false,
            opens: Vec::new(),
        }),
    );
    let (_, mut server) = empty_case().endpoints();
    let mut out = BytesMut::new();
    assert_eq!(
        serve_frame(&mut server, empty_hello, &mut out).unwrap(),
        ServeStep::Continue
    );
    assert_eq!(
        serve_frame(&mut server, fin(), &mut out).unwrap(),
        ServeStep::Done
    );
    serve_frame(&mut server, fin(), &mut out).expect_err("second FIN");
    serve_frame(&mut server, turn(), &mut out).expect_err("turn after FIN");
}

/// Feeds `frames` to a fresh puller over the one-object case; returns
/// the first error. The machine may write bursts meanwhile — they go
/// nowhere.
fn pull_until_error(frames: Vec<wire::Frame>) -> Error {
    let (mut client, _) = one_object_case().endpoints();
    let mut out = BytesMut::new();
    let mut puller = Puller::open(&mut client, 0, &mut out);
    for frame in frames {
        match puller.on_frame(frame, &mut out) {
            Ok(None) => {}
            Ok(Some(report)) => panic!("hostile sequence completed: {report:?}"),
            Err(e) => return e,
        }
    }
    panic!("the puller accepted a hostile sequence");
}

#[test]
fn hostile_sequences_fail_the_pulling_step() {
    // The turn keeps coming back with no BatchServerFirst: the first
    // empty exchange still moved the hello, the second moved nothing.
    let err = pull_until_error(vec![turn(), turn()]);
    assert_eq!(reason_label(&err), "stalled");
    // The server FINs while the puller still expects frames.
    let err = pull_until_error(vec![fin()]);
    assert_eq!(reason_label(&err), "stalled");
    pull_until_error(vec![fin(), fin()]);
    pull_until_error(vec![planner_frame()]);
    pull_until_error(vec![frame(TURN_STREAM, b"junk")]);
    pull_until_error(vec![hello()]);
    // A finished puller accepts nothing more.
    let (mut client, _) = empty_case().endpoints();
    let mut out = BytesMut::new();
    let mut puller = Puller::open(&mut client, 0, &mut out);
    let answer = Framed::new(
        CONTROL_STREAM,
        MuxMsg::Ctrl(CtrlMsg::BatchServerFirst {
            answers: Vec::new(),
            offers: Vec::new(),
        }),
    );
    assert!(puller
        .on_frame(msg_frame(answer.stream, answer.msg), &mut out)
        .unwrap()
        .is_none());
    assert!(puller.on_frame(turn(), &mut out).unwrap().is_none());
    assert!(puller.on_frame(fin(), &mut out).unwrap().is_some());
    puller.on_frame(fin(), &mut out).expect_err("second FIN");
}

/// The four-shard digest vector of an empty puller, and its frame.
fn empty_digests() -> DigestVector {
    KvStore::with_shards(SiteId::new(0), 4).shard_digest_vector()
}

fn digests_frame() -> wire::Frame {
    frame(CONTROL_STREAM, &empty_digests().encode())
}

/// Feeds `frames` to a fresh [`Serving`] over a one-key store and
/// returns the first error; panics if the whole sequence is accepted.
fn serving_until_error(frames: Vec<wire::Frame>) -> Error {
    let mut src = KvStore::with_shards(SiteId::new(1), 4);
    src.put("k", "v");
    serving_from_until_error(&src, frames)
}

fn serving_from_until_error(src: &KvStore, frames: Vec<wire::Frame>) -> Error {
    let mut source = source_of(src);
    let mut serving = Serving::default();
    let mut out = BytesMut::new();
    for frame in frames {
        if let Err(e) = serving.on_frame(frame, &mut source, &mut out) {
            return e;
        }
    }
    panic!("the serving step accepted a hostile sequence");
}

#[test]
fn hostile_planner_sequences_fail_the_serving_step() {
    let scope_frame = |count, children: &[u64]| {
        let children = children.to_vec();
        let scope = ShardScope { count, children };
        frame(CONTROL_STREAM, &scope.encode())
    };
    // A contact opens with a digest vector: a bare hello or a scope in
    // its place is refused before the source is asked for anything.
    let mut asked = 0;
    let mut counting = |_: ContactAsk<'_>| {
        asked += 1;
        ContactAnswer::Endpoint(BatchPullServer::new(Vec::new()), Vec::new())
    };
    for first in [hello(), scope_frame(16, &[])] {
        let refused = Serving::default().on_frame(first, &mut counting, &mut BytesMut::new());
        assert!(
            matches!(
                refused,
                Err(Error::UnexpectedMessage {
                    protocol: "sync planner",
                    ..
                })
            ),
            "{refused:?}"
        );
    }
    assert_eq!(asked, 0, "the source was asked");
    // The digest vector only opens a contact; it never follows a hello.
    serving_until_error(vec![hello(), digests_frame()]);
    serving_until_error(vec![hello(), turn(), digests_frame()]);
    // After it, only the puller's plain turn marker is acceptable.
    serving_until_error(vec![digests_frame(), digests_frame()]);
    serving_until_error(vec![digests_frame(), fin()]);
    serving_until_error(vec![digests_frame(), hello()]);
    serving_until_error(vec![digests_frame(), frame(TURN_STREAM, b"junk")]);
    // A truncated vector, and one on a non-control stream (there it is
    // just an undecodable session frame).
    serving_until_error(vec![frame(CONTROL_STREAM, &[0x35, 4, 0])]);
    serving_until_error(vec![frame(3, &digests_frame().payload)]);
    // A scope answers an offer: the plan of the one-key store refines
    // nothing — there the frame is just not a mux message.
    serving_until_error(vec![digests_frame(), turn(), scope_frame(16, &[])]);
    // Against a plan that does offer children (of shards 2, 7 and 11 of
    // 16, at F = 16): at most one scope, only ahead of the hello, and
    // never in place of the turn marker.
    let (dst, src) = refined_stores();
    let opening = frame(CONTROL_STREAM, &dst.shard_digest_vector().encode());
    let refuse = |mut frames: Vec<wire::Frame>| {
        frames.insert(0, opening.clone());
        serving_from_until_error(&src, frames)
    };
    let honest = || scope_frame(256, &[2, 7 + 16 * 3]);
    refuse(vec![turn(), honest(), honest()]);
    refuse(vec![turn(), hello(), honest()]);
    refuse(vec![honest()]);
    // At the plan's count, or another fan-out's, instead of the offer's.
    refuse(vec![turn(), scope_frame(16, &[2])]);
    refuse(vec![turn(), scope_frame(128, &[2])]);
    // A child of a shard the plan skips; indices out of order, repeated
    // and out of range.
    refuse(vec![turn(), scope_frame(256, &[0])]);
    refuse(vec![turn(), scope_frame(256, &[7 + 16 * 3, 2])]);
    refuse(vec![turn(), scope_frame(256, &[2, 2])]);
    refuse(vec![turn(), scope_frame(256, &[2 + 16 * 16])]);
    // Truncated, padded, and claiming more indices than were offered.
    let full = honest().payload;
    refuse(vec![turn(), frame(CONTROL_STREAM, &full[..full.len() - 1])]);
    refuse(vec![
        turn(),
        frame(CONTROL_STREAM, &[&full[..], &[0]].concat()),
    ]);
    refuse(vec![turn(), frame(CONTROL_STREAM, &[0x37, 128, 2, 49, 2])]);
    // The honest burst: the scope is absorbed, the hello opens the
    // narrowed endpoint.
    let mut source = source_of(&src);
    let mut serving = Serving::default();
    let mut out = BytesMut::new();
    let closing_hello = msg_frame(
        CONTROL_STREAM,
        MuxMsg::Ctrl(CtrlMsg::BatchHello {
            discover: false,
            opens: Vec::new(),
        }),
    );
    for (sent, step) in [
        (opening.clone(), ServeStep::Continue),
        (turn(), ServeStep::Continue),
        (honest(), ServeStep::Continue),
        (closing_hello, ServeStep::Continue),
        (fin(), ServeStep::Done),
    ] {
        assert_eq!(serving.on_frame(sent, &mut source, &mut out).unwrap(), step);
    }
    // A source that hands out no plan cannot serve a planned contact.
    let mut serving = Serving::default();
    let mut unplanned =
        |_: ContactAsk<'_>| ContactAnswer::Endpoint(BatchPullServer::new(Vec::new()), Vec::new());
    serving
        .on_frame(digests_frame(), &mut unplanned, &mut BytesMut::new())
        .expect_err("no plan to answer with");
    // Nor one whose digests fall short of what it plans or serves: an
    // image digest short of the shards the plan bulk-loads (an empty
    // puller is bulk-loaded the shard of the source's one key), a sum
    // short of the cut's incremental shards (a puller holding another
    // version of the key walks that shard).
    let mut src = KvStore::with_shards(SiteId::new(1), 4);
    src.put("k", "v");
    let mut short = |ask: ContactAsk<'_>| match src.open_contact(ask) {
        ContactAnswer::Plan(plan, generation, _, push) => {
            ContactAnswer::Plan(plan, generation, Vec::new(), push)
        }
        ContactAnswer::Endpoint(server, _) => ContactAnswer::Endpoint(server, Vec::new()),
    };
    let mut dst = KvStore::with_shards(SiteId::new(0), 4);
    dst.put("k", "w");
    let walked = frame(CONTROL_STREAM, &dst.shard_digest_vector().encode());
    for (frames, what) in [
        (vec![digests_frame()], "of a plan that bulk-loads 1"),
        (vec![walked, turn(), hello()], "shards of a cut"),
    ] {
        let (mut serving, mut out) = (Serving::default(), BytesMut::new());
        let refused = frames
            .into_iter()
            .map(|frame| serving.on_frame(frame, &mut short, &mut out))
            .find_map(Result::err);
        assert!(
            matches!(
                &refused,
                Some(Error::UnexpectedMessage { protocol: "sync planner", message })
                    if message.contains(what)
            ),
            "{what}: {refused:?}"
        );
    }
    // The honest sequence, for contrast: plan parked, then released
    // with the turn, then the puller's FIN — a plan that walks no shard
    // has no exchange — twice over one `Serving`, as on a persistent
    // connection. A hello there is one no plan asked for.
    let src = KvStore::with_shards(SiteId::new(1), 4);
    let mut source = source_of(&src);
    let mut serving = Serving::default();
    let empty_hello = msg_frame(
        CONTROL_STREAM,
        MuxMsg::Ctrl(CtrlMsg::BatchHello {
            discover: true,
            opens: Vec::new(),
        }),
    );
    for _ in 0..2 {
        let mut out = BytesMut::new();
        let mut step = |frame| serving.on_frame(frame, &mut source, &mut out);
        assert_eq!(step(digests_frame()).unwrap(), ServeStep::Continue);
        assert_eq!(step(turn()).unwrap(), ServeStep::Continue);
        assert_eq!(step(fin()).unwrap(), ServeStep::Done);
    }
    let mut out = BytesMut::new();
    let mut step = |frame| serving.on_frame(frame, &mut source, &mut out);
    step(digests_frame()).unwrap();
    step(turn()).unwrap();
    let err = step(empty_hello.clone()).expect_err("a hello no plan asked for");
    assert!(err.to_string().contains("BatchHello"), "{err}");

    // A delta opens a contact only on a connection that remembers a
    // vector at its shard count, and only if it patches that vector to
    // the one its check describes. First frame of a fresh `Serving`:
    // nothing is remembered.
    let delta_frame = |delta: &DigestDelta| frame(CONTROL_STREAM, &delta.encode());
    let base = empty_digests();
    let mut next = base.clone();
    next.shards[2] = ShardDigest {
        digest: 7,
        entries: 1,
    };
    let honest = DigestDelta::between(&base, &next).expect("same count");
    serving_until_error(vec![delta_frame(&honest)]);
    // After one honest contact that opened with `base` in full:
    fn feed(
        serving: &mut Serving,
        src: &KvStore,
        frames: impl IntoIterator<Item = wire::Frame>,
    ) -> Result<()> {
        let mut source = source_of(src);
        for frame in frames {
            serving.on_frame(frame, &mut source, &mut BytesMut::new())?;
        }
        Ok(())
    }
    let contact = |opening: wire::Frame| {
        let rest = [turn(), fin()];
        [opening].into_iter().chain(rest)
    };
    let warm = || {
        let mut serving = Serving::default();
        feed(&mut serving, &src, contact(digests_frame())).expect("honest contact");
        serving
    };
    let refuse = |opening: wire::Frame| {
        let mut serving = warm();
        feed(&mut serving, &src, [opening]).expect_err("hostile delta");
        // Whatever was wrong with it, nothing is remembered after.
        feed(&mut serving, &src, [delta_frame(&honest)])
            .expect_err("a failed delta forgets the vector");
    };
    // At another shard count than the remembered vector's.
    let eight = KvStore::with_shards(SiteId::new(0), 8).shard_digest_vector();
    refuse(delta_frame(&DigestDelta::between(&eight, &eight).unwrap()));
    // A check that describes another vector.
    refuse(delta_frame(&DigestDelta {
        check: honest.check ^ 1,
        ..honest.clone()
    }));
    // More changed shards than shards; more than the payload holds; an
    // index past the count; a gap that overflows; truncated; padded.
    refuse(frame(
        CONTROL_STREAM,
        &[0x39, 4, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ));
    refuse(frame(
        CONTROL_STREAM,
        &[0x39, 4, 4, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7],
    ));
    let raw = |shard: &[u8]| {
        let changed = [1, 0, 0, 0, 0, 0, 0, 0, 7];
        let check = honest.check.to_be_bytes();
        frame(
            CONTROL_STREAM,
            &[&[0x39, 4, 1], shard, &changed, &check].concat(),
        )
    };
    feed(&mut warm(), &src, [raw(&[2])]).expect("well-formed by hand");
    refuse(raw(&[4]));
    refuse(raw(&[
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
    ]));
    let full = delta_frame(&honest).payload;
    refuse(frame(CONTROL_STREAM, &full[..full.len() - 1]));
    refuse(frame(CONTROL_STREAM, &[&full[..], &[0]].concat()));
    // The honest delta opens the second contact; replayed inside its
    // planning turn it is a second frame where the turn marker is due.
    let mut serving = warm();
    feed(&mut serving, &src, [delta_frame(&honest)]).expect("the second contact opens");
    feed(&mut serving, &src, [delta_frame(&honest)]).expect_err("replayed in the planning turn");
    // Replayed verbatim as the opening of the *next* contact it is
    // served: a delta carries the changed shards' values, not
    // differences, so patching twice lands on the same vector and the
    // check still holds — the puller is saying its vector did not move.
    let mut serving = warm();
    for _ in 0..2 {
        feed(&mut serving, &src, contact(delta_frame(&honest)))
            .expect("the delta, and the delta again");
    }

    // A connection's second contact may be answered with proposals, and
    // they bind: the scope answering the same plan's children carries
    // nothing about them. After a first contact of `refined_stores` that
    // opened nothing the source moves on: shards 4 (two candidates) and
    // 13 (one), which the puller holds as the source did, are proposed;
    // 2, 7 and 11, which it does not, are offered their children.
    let (dst, before) = refined_stores();
    let mut after = before.clone();
    source_moves_on(&mut after);
    let digests = dst.shard_digest_vector();
    let plan = after.plan_contact_since(&digests, Some(before.generation()));
    let offer = plan.offer().expect("an offer");
    assert_eq!(
        (plan.proposed.clone(), offer.parents),
        (vec![4, 13], vec![2, 7, 11])
    );
    let opening = frame(CONTROL_STREAM, &digests.encode());
    let nothing_opened = msg_frame(
        CONTROL_STREAM,
        MuxMsg::Ctrl(CtrlMsg::BatchHello {
            discover: false,
            opens: Vec::new(),
        }),
    );
    let answered = |children: &[u8]| {
        let mut serving = Serving::default();
        let first = [opening.clone(), turn(), nothing_opened.clone(), fin()];
        feed(&mut serving, &before, first).expect("the link's first contact");
        let scope = [&[0x37, 0x80, 0x02][..], children].concat();
        let second = [opening.clone(), turn(), frame(CONTROL_STREAM, &scope)];
        feed(&mut serving, &after, second)
    };
    answered(&[0]).expect("no child differs");
    answered(&[2, 2, 7]).expect("two children");
    answered(&[]).expect_err("truncated");
    answered(&[0, 0]).expect_err("a refusal tail, where none is due");
    answered(&[1, 4]).expect_err("a child of a proposed shard");
    answered(&[1, 13]).expect_err("a child of the other");
    answered(&[1, 3]).expect_err("a child of a shard the plan skips");
}

/// Feeds `frames` to a puller that opened with a four-shard digest
/// vector; returns the first error.
fn plan_until_error(frames: Vec<wire::Frame>) -> Error {
    let mut out = BytesMut::new();
    let mut puller = Puller::open_planned(&empty_digests(), &VectorMemory::default(), &mut out);
    for frame in frames {
        match puller.on_frame(frame, &mut out) {
            Ok(None) => {}
            Ok(Some(report)) => panic!("hostile sequence completed: {report:?}"),
            Err(e) => return e,
        }
    }
    panic!("the puller accepted a hostile planning sequence");
}

#[test]
fn hostile_planner_sequences_fail_the_pulling_step() {
    let plan_at = |count: u64| {
        let plan = ShardPlan {
            count,
            incremental: vec![1],
            ..ShardPlan::default()
        };
        frame(CONTROL_STREAM, &plan.encode())
    };
    // The turn comes back — or the server FINs — with no plan.
    assert_eq!(reason_label(&plan_until_error(vec![turn()])), "stalled");
    assert_eq!(reason_label(&plan_until_error(vec![fin()])), "stalled");
    assert_eq!(
        reason_label(&plan_until_error(vec![plan_at(4), fin()])),
        "stalled"
    );
    // More than the one plan frame, or a plan off the control stream.
    plan_until_error(vec![plan_at(4), plan_at(4)]);
    plan_until_error(vec![frame(3, &plan_at(4).payload)]);
    // A plan that does not echo the digest vector's shard count.
    plan_until_error(vec![plan_at(8)]);
    plan_until_error(vec![plan_at(2)]);
    // Anything that is not a plan, a malformed marker, and a frame
    // after the turn completed but before the exchange began.
    plan_until_error(vec![hello()]);
    plan_until_error(vec![digests_frame()]);
    plan_until_error(vec![frame(TURN_STREAM, b"junk")]);
    plan_until_error(vec![plan_at(4), turn(), turn()]);
    // A plan under the refined tag with no children behind it; children
    // of a shard the plan does not sync; a fan-out past the shard cap.
    let refined = |children: ChildDigests| {
        let plan = ShardPlan {
            count: 4,
            incremental: vec![1],
            children: Some(children),
            ..ShardPlan::default()
        };
        frame(CONTROL_STREAM, &plan.encode())
    };
    let pair = vec![ShardDigest::default(); 2];
    let mut untailed = plan_at(4).payload.to_vec();
    untailed[0] = 0x38;
    plan_until_error(vec![frame(CONTROL_STREAM, &untailed)]);
    plan_until_error(vec![refined(ChildDigests {
        fanout: 2,
        parents: vec![(2, pair.clone())],
    })]);
    plan_until_error(vec![refined(ChildDigests {
        fanout: 1 << 19,
        parents: vec![(1, Vec::new())],
    })]);

    // A delta is a puller's frame: at the puller it is not a plan.
    let unchanged = DigestDelta::between(&empty_digests(), &empty_digests()).unwrap();
    plan_until_error(vec![frame(CONTROL_STREAM, &unchanged.encode())]);
    // A puller that remembers the link's last vector opens with the
    // delta, and holds the plan to the vector's shard count all the
    // same; one that remembers a vector at another count sends today's
    // frame. (Its shards hold a key each: four empty shards are a
    // vector of 6 B, shorter than any delta, and always cross whole.)
    let held = DigestVector {
        shards: vec![
            ShardDigest {
                digest: 7,
                entries: 1
            };
            4
        ],
    };
    let opening_tag = |remembered: &VectorMemory| {
        let mut out = BytesMut::new();
        let mut puller = Puller::open_planned(&held, remembered, &mut out);
        puller
            .on_frame(plan_at(8), &mut BytesMut::new())
            .expect_err("a plan at another count");
        wire::get_frame(&mut out.freeze()).expect("a frame").payload[0]
    };
    let mut remembered = VectorMemory::default();
    assert_eq!(opening_tag(&remembered), 0x35);
    remembered.remember(&empty_digests(), []);
    assert_eq!(opening_tag(&remembered), 0x35);
    remembered.remember(&held, []);
    assert_eq!(opening_tag(&remembered), 0x39);
    remembered.remember(
        &KvStore::with_shards(SiteId::new(0), 8).shard_digest_vector(),
        [],
    );
    assert_eq!(opening_tag(&remembered), 0x35);

    // A proposal is made from what the server remembers of the link's
    // last contact, and it is the push behind the plan: this plan frame
    // lists shard 2, which it walks, and the keys pushed behind it name
    // the shard it proposes. Under the retired proposing tag (`0x3a`) —
    // the same plan as it was once sent, shard 1 flagged proposed in a
    // bitmap behind the lists — a plan frame is no plan, whoever
    // receives it.
    let proposing = ShardPlan {
        count: 4,
        incremental: vec![1, 2],
        proposed: vec![1],
        ..ShardPlan::default()
    };
    let proposing = || frame(CONTROL_STREAM, &proposing.encode());
    let retired = frame(CONTROL_STREAM, &[0x3a, 4, 2, 1, 0, 0, 0, 0b01]);
    for memory in [&VectorMemory::default(), &remembered] {
        let mut out = BytesMut::new();
        let mut puller = Puller::open_planned(&empty_digests(), memory, &mut out);
        let err = puller.on_frame(retired.clone(), &mut out).unwrap_err();
        assert_eq!(reason_label(&err), "decode_error");
    }

    // The push behind a plan: one frame on the control stream under its
    // own tag, held as the image it carries for the store to read — in
    // the planning turn, once, behind the plan, and only on a link the
    // server has planned for before.
    let push = || push_frame(b"\x01image");
    let mut out = BytesMut::new();
    let mut puller = Puller::open_planned(&empty_digests(), &remembered, &mut out);
    for frame in [proposing(), push(), turn()] {
        assert!(puller.on_frame(frame, &mut out).unwrap().is_none());
    }
    let handed = puller.take_plan().expect("the plan");
    assert_eq!(
        (handed.incremental.clone(), handed.proposed.clone()),
        (vec![2], vec![])
    );
    assert_eq!(&puller.push_image()[..], b"\x01image");
    let warm_until_error = |frames: Vec<wire::Frame>| {
        let mut out = BytesMut::new();
        let mut puller = Puller::open_planned(&empty_digests(), &remembered, &mut out);
        let err = frames
            .into_iter()
            .find_map(|frame| puller.on_frame(frame, &mut out).err());
        err.expect("the puller refused the turn")
    };
    let hostile = [
        ("a second push", vec![proposing(), push(), push()]),
        ("an empty push", vec![proposing(), push_frame(b"")]),
        ("a push with no plan before it", vec![push(), proposing()]),
        (
            "a push off the control stream",
            vec![proposing(), frame(3, &push().payload)],
        ),
        (
            "a session frame behind the push",
            vec![proposing(), push(), hello()],
        ),
    ];
    for (what, frames) in hostile {
        let err = warm_until_error(frames);
        assert_eq!(reason_label(&err), "protocol_error", "{what}: {err}");
    }
    // A push on a link's first contact.
    let err = plan_until_error(vec![plan_at(4), push()]);
    assert_eq!(reason_label(&err), "protocol_error");
    // A push after the planning turn's marker: the push is whole inside
    // the turn.
    let mut out = BytesMut::new();
    let mut puller = Puller::open_planned(&empty_digests(), &remembered, &mut out);
    for frame in [proposing(), turn()] {
        assert!(puller.on_frame(frame, &mut out).unwrap().is_none());
    }
    puller.take_plan().expect("the plan");
    let mut client = BatchPullClient::new(vec![(Bytes::from_static(b"k"), Srv::new())]);
    (puller.exchange(&mut client, 0, None, 0, &mut out)).expect("the exchange begins");
    let err = puller.on_frame(push(), &mut out).unwrap_err();
    assert_eq!(reason_label(&err), "decode_error");
    // A push the client took no key of, and a client that took keys of
    // no push: the endpoint did not read what crossed.
    let (record, value) = (Bytes::from_static(b"k"), Some(Bytes::from_static(b"v")));
    for (frames, took) in [
        (vec![proposing(), push(), turn()], false),
        (vec![proposing(), turn()], true),
    ] {
        let mut out = BytesMut::new();
        let mut puller = Puller::open_planned(&empty_digests(), &remembered, &mut out);
        for frame in frames {
            assert!(puller.on_frame(frame, &mut out).unwrap().is_none());
        }
        puller.take_plan().expect("the plan");
        let mut client = BatchPullClient::new(Vec::new());
        if took {
            let vector = updated(Srv::new(), &[1]);
            client.take_pushed(record.clone(), Pushed::Absent, vector, value.clone());
        }
        let err = (puller.exchange(&mut client, 1, None, 0, &mut out)).unwrap_err();
        assert_eq!(reason_label(&err), "protocol_error");
    }
    // The honest turn hands the plan out exactly once.
    let mut out = BytesMut::new();
    let nothing = VectorMemory::default();
    let mut puller = Puller::open_planned(&empty_digests(), &nothing, &mut out);
    assert!(puller.take_plan().is_none());
    assert!(puller.on_frame(plan_at(4), &mut out).unwrap().is_none());
    assert!(
        puller.take_plan().is_none(),
        "the turn is still the server's"
    );
    assert!(puller.on_frame(turn(), &mut out).unwrap().is_none());
    assert_eq!(
        puller.take_plan().map(|plan| plan.incremental),
        Some(vec![1])
    );
    assert!(puller.take_plan().is_none());

    // A well-formed refined plan is handed out with its children.
    let mut puller = Puller::open_planned(&empty_digests(), &nothing, &mut out);
    let children = ChildDigests {
        fanout: 2,
        parents: vec![(1, pair)],
    };
    let offered = refined(children.clone());
    assert!(puller.on_frame(offered, &mut out).unwrap().is_none());
    assert!(puller.on_frame(turn(), &mut out).unwrap().is_none());
    assert_eq!(
        puller.take_plan().and_then(|plan| plan.children),
        Some(children)
    );
}

/// A far end that plays `script` back — whole frames — whatever the
/// puller says, and is gone once it has.
struct Scripted {
    script: Bytes,
}

impl FrameLink for Scripted {
    fn send_bytes(&mut self, _bytes: &[u8]) -> Result<()> {
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<wire::Frame> {
        match self.script.is_empty() {
            true => Err(Error::ConnectionLost { after_bytes: 0 }),
            false => Ok(wire::get_frame(&mut self.script)?),
        }
    }

    fn fin(&mut self) {}
}

/// An entry written by hand: the key head of `shared` bytes of the key
/// before and `rest`, the rest, the state head of a value `value` and of
/// `vector` — `None` the vector before — the vector's field, the value.
fn hand_entry(shared: usize, rest: &[u8], vector: Option<&[u8]>, value: &[u8]) -> Vec<u8> {
    let mut entry = BytesMut::new();
    wire::put_varint(&mut entry, (shared << 3 | rest.len().min(7)) as u64);
    if rest.len() >= 7 {
        wire::put_varint(&mut entry, rest.len() as u64 - 7);
    }
    entry.extend_from_slice(rest);
    let repeats = u64::from(vector.is_none());
    wire::put_varint(&mut entry, (value.len() as u64 + 1) << 1 | repeats);
    if let Some(vector) = vector {
        wire::put_bytes(&mut entry, vector);
    }
    entry.extend_from_slice(value);
    entry.to_vec()
}

/// A push the plan does not own, or that no store writes, is refused,
/// and the puller's store, generation and digest are as they were: a
/// push into a shard the plan walks, refines or bulk-loads, a plan under
/// the retired proposing tag, a push on a link's first contact, a second
/// push frame and one with no plan before it; every cut of the pushed
/// entry, bytes after it, keys out of order or repeated, a vector
/// written other than as a store writes it. The honest turn the hostile
/// ones are cut from — the source's own plan and push for a key it
/// wrote since the link's last contact — lands.
#[test]
fn a_push_the_plan_does_not_own_leaves_the_puller_alone() {
    let (mut dst, mut src) = refined_stores();
    dst.sync(&src).run().expect("the puller catches up");
    src.sync(&dst).run().expect("and the source");
    let since = src.generation();
    let key = refined_keys_in(4).next().expect("150 keys a shard");
    src.put(key.clone(), "later");
    let digests = dst.shard_digest_vector();
    let ask = ContactAsk::Plan {
        digests: &digests,
        since: Some(since),
    };
    let ContactAnswer::Plan(honest, _, _, push) = src.open_contact(ask) else {
        panic!("a plan answers a plan ask");
    };
    assert_eq!((honest.proposed.clone(), push[0]), (vec![4], 1));
    // The pushed entry as a hand writes it, byte for byte the source's.
    let vector = src.meta(&key).expect("a key it wrote").encode_snapshot();
    let entry = |vector: &[u8]| hand_entry(0, key.as_bytes(), Some(vector), b"later");
    let image = |entries: &[Vec<u8>]| {
        let mut image = BytesMut::new();
        wire::put_varint(&mut image, entries.len() as u64);
        entries
            .iter()
            .for_each(|entry| image.extend_from_slice(entry));
        image.freeze()
    };
    assert_eq!(image(&[entry(&vector)]), push);
    // A planning turn: the plan frame, the push's, the marker, then the
    // server's FIN, which ends a contact that walks nothing.
    let script = |frames: &[wire::Frame]| {
        let mut script = BytesMut::new();
        for frame in frames {
            wire::put_frame(&mut script, frame.stream, &frame.payload);
        }
        wire::put_frame(&mut script, TURN_STREAM, &[]);
        wire::put_frame(&mut script, TURN_STREAM, &[1]);
        script.freeze()
    };
    let plan = |plan_frame: &[u8]| frame(CONTROL_STREAM, plan_frame);
    let turn = |plan_frame: &[u8]| script(&[plan(plan_frame), push_frame(&push)]);
    let listing = |plan: ShardPlan| turn(&plan.encode());
    let pushing = |image: &[u8]| script(&[plan(&honest.encode()), push_frame(image)]);
    let pair = vec![ShardDigest::default(); 2];
    let mut hostile = vec![
        (
            "a push into a shard the plan walks".to_string(),
            listing(ShardPlan {
                count: 16,
                incremental: vec![4],
                ..ShardPlan::default()
            }),
            true,
            "protocol_error",
        ),
        (
            "a push into a shard the plan refines".to_string(),
            listing(ShardPlan {
                count: 16,
                incremental: vec![4],
                children: Some(ChildDigests {
                    fanout: 2,
                    parents: vec![(4, pair)],
                }),
                ..ShardPlan::default()
            }),
            true,
            "protocol_error",
        ),
        (
            "a push into a shard the plan bulk-loads".to_string(),
            listing(ShardPlan {
                count: 16,
                bulk: vec![4],
                image: Some(Bytes::from_static(b"\0")),
                ..ShardPlan::default()
            }),
            true,
            "protocol_error",
        ),
        (
            "the honest plan under the retired proposing tag".to_string(),
            turn(&[0x3a, 16, 1, 4, 0, 0, 0b1]),
            true,
            "decode_error",
        ),
        (
            "the honest turn on a link's first contact".to_string(),
            listing(honest.clone()),
            false,
            "protocol_error",
        ),
        (
            "a second push".to_string(),
            script(&[plan(&honest.encode()), push_frame(&push), push_frame(&push)]),
            true,
            "protocol_error",
        ),
        (
            "a push with no plan before it".to_string(),
            script(&[push_frame(&push), plan(&honest.encode())]),
            true,
            "protocol_error",
        ),
        (
            "bytes after the last entry".to_string(),
            pushing(&[&push[..], &[0]].concat()),
            true,
            "decode_error",
        ),
    ];
    for cut in 1..push.len() {
        let what = format!("the push cut at {cut} of {} bytes", push.len());
        hostile.push((what, pushing(&push[..cut]), true, "decode_error"));
    }
    // Behind the pushed entry: a key before it, the key again, and keys
    // after it with vectors a store does not write there — the vector
    // before written out, an empty vector field. And a first entry that
    // repeats the vector before it, which it does not have.
    let shared = key.len() - 1;
    let last = key.as_bytes()[shared];
    let other = updated(Srv::new(), &[1]).encode_snapshot();
    let behind = |rest: &[u8], vector: &[u8]| hand_entry(shared, rest, Some(vector), b"v");
    let again = hand_entry(shared + 1, b"", Some(&other), b"v");
    let unvectored = hand_entry(0, key.as_bytes(), None, b"later");
    for (what, image) in [
        (
            "keys out of order",
            image(&[entry(&vector), behind(&[last - 1], &other)]),
        ),
        ("a key pushed twice", image(&[entry(&vector), again])),
        (
            "the vector before, written out",
            image(&[entry(&vector), behind(&[last + 1], &vector)]),
        ),
        (
            "an empty vector field",
            image(&[entry(&vector), behind(&[last + 1], &[])]),
        ),
        ("a repeated vector on the first entry", image(&[unvectored])),
    ] {
        hostile.push((what.to_string(), pushing(&image), true, "decode_error"));
    }
    for (what, script, warm, label) in hostile {
        let before = (dst.clone(), dst.generation(), dst.replica_digest());
        let mut remembered = VectorMemory::default();
        if warm {
            remembered.remember(&digests, []);
        }
        let mut link = Scripted { script };
        let err = planned_pull_on(&mut dst, &mut link, &mut remembered).expect_err(&what);
        assert_eq!(reason_label(&err), label, "{what}: {err}");
        assert!(remembered.is_empty(), "{what}");
        let after = (dst.clone(), dst.generation(), dst.replica_digest());
        assert!(after == before, "{what} moved the store");
    }
    let mut remembered = VectorMemory::default();
    remembered.remember(&digests, []);
    let mut link = Scripted {
        script: listing(honest),
    };
    let (report, synced) = planned_pull_on(&mut dst, &mut link, &mut remembered).expect("honest");
    assert_eq!((report.shards_proposed, synced.keys_fast_forwarded), (1, 1));
    assert_eq!(dst.get(&key), Some(&b"later"[..]));
    assert_eq!(dst.replica_digest(), src.replica_digest());
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
