//! One contact loop, many links: every transport must price and finish a
//! contact identically — planned or not — the bytes on the wire are
//! pinned, every cut aborts cleanly, and hostile frame sequences fail
//! the two step machines instead of wedging them.

use bytes::{Bytes, BytesMut};
use optrep_core::rng::SplitMix64;
use optrep_core::sync::{Framed, ReceiverStats, WireMsg};
use optrep_core::wire::{self, FrameDecoder};
use optrep_core::{Causality, Error, Result, RotatingVector, SiteId, Srv};
use optrep_kv::{JoinResolver, KvStore, KvSyncReport};
use optrep_net::{ConnectOptions, FaultPlan, FaultyLink, FrameLink, TcpLink};
use optrep_replication::mux::{StreamOpen, TURN_STREAM};
use optrep_replication::planner::{digest_vector_frame, plan_frame, scope_frame, MAX_PLAN_SHARDS};
use optrep_replication::{
    pull_contact, pull_planned, reason_label, run_contact, serve_contact, serve_frame, serve_from,
    BatchPullClient, BatchPullServer, ContactAnswer, ContactAsk, ContactReport, CtrlMsg,
    DigestDelta, DigestVector, Faulted, InProcessLink, MuxMsg, PlanConfig, Proposal, Puller,
    ServeStep, Serving, ShardPlan, ShardScope, VectorMemory, CONTROL_STREAM,
};
use optrep_replication::{ChildDigests, ShardDigest};
use std::cell::RefCell;
use std::sync::mpsc;

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
/// thread interleaving without sockets. Every write is folded — length
/// first, so burst boundaries count — into the half's FNV-1a transcript,
/// and counted: a half's writes are the turns it took.
struct ChannelLink {
    tx: Option<mpsc::Sender<Vec<u8>>>,
    rx: mpsc::Receiver<Vec<u8>>,
    decoder: FrameDecoder,
    transcript: u64,
    writes: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn channel_pair() -> (ChannelLink, ChannelLink) {
    let (atx, arx) = mpsc::channel();
    let (btx, brx) = mpsc::channel();
    let half = |tx, rx| ChannelLink {
        tx: Some(tx),
        rx,
        decoder: FrameDecoder::new(),
        transcript: FNV_OFFSET,
        writes: 0,
    };
    (half(atx, brx), half(btx, arx))
}

impl FrameLink for ChannelLink {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.transcript = fnv1a(self.transcript, &(bytes.len() as u64).to_le_bytes());
        self.transcript = fnv1a(self.transcript, bytes);
        self.writes += 1;
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

/// A key's shard at `count` shards — the store's own placement (FNV-1a
/// of the key bytes, masked), recomputed here so the fixture can aim
/// keys at shards.
fn shard_at(key: &str, count: u64) -> u64 {
    fnv1a(FNV_OFFSET, key.as_bytes()) & (count - 1)
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
    let in_shard = |shard: u64| keys.iter().filter(move |key| shard_at(key, 4) == shard);
    let mut src = KvStore::with_shards(SiteId::new(1), 16);
    let mut dst = KvStore::with_shards(SiteId::new(0), 4);
    for key in keys.iter().filter(|key| shard_at(key, 4) != 3) {
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
    for key in fresh.filter(|key| shard_at(key, 4) == 1).take(2) {
        src.put(key, value("created"));
    }
    let mine = (0..).map(|i| format!("mine-{i}"));
    for key in mine.filter(|key| shard_at(key, 4) == 1).take(1) {
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
    let in_shard = |shard: u64| keys.iter().filter(move |key| shard_at(key, 16) == shard);
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
    for key in fresh.filter(|key| shard_at(key, 16) == 7).take(1) {
        src.put(key, value("created"));
    }
    let mine = (0..).map(|i| format!("mine-{i}"));
    for key in mine.filter(|key| shard_at(key, 16) == 7).take(1) {
        dst.put(key, value("local"));
    }
    for key in in_shard(11).take(1) {
        src.put(key.clone(), value("ahead"));
    }
    (dst, src)
}

/// One planned pull of `dst` from whatever serves the far end of
/// `link` — the three steps `pull_from` and `KvStore::sync_planned`
/// are: digests, the planned-pull pump over the endpoint cut as finely
/// as the plan allows, the planned commit. `remembered` is the pulling
/// end's memory of `link`, as `optrep_net::ConnPool` keeps it.
fn planned_pull_on<L: FrameLink>(
    dst: &mut KvStore,
    link: &mut L,
    remembered: &mut VectorMemory,
) -> Result<(ContactReport, KvSyncReport)> {
    let digests = dst.shard_digest_vector();
    let (client, plan, contact) = pull_planned(link, remembered, &digests, |plan| {
        dst.client_endpoint_refined(plan)
    })?;
    let (synced, _) = dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan)?;
    Ok((contact, synced))
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
        pull_planned(link, &mut VectorMemory::default(), &digests, |plan| {
            dst.client_endpoint_for(&plan.incremental, plan.count as usize)
        })?;
    let (synced, _) = dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan)?;
    Ok((contact, synced))
}

/// `src` as a serving step's source, planning at the default policy.
fn source_of(src: &KvStore) -> impl FnMut(ContactAsk<'_>) -> ContactAnswer + '_ {
    |ask| src.open_contact(ask)
}

/// Serves one contact, planned or not, out of `src` on its own thread.
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
/// outcomes, and — with `obs` — the puller's `FrameTx` sequence.
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
    let (mut client, server) = case.endpoints();
    #[cfg(feature = "obs")]
    let (report, frames) = {
        use optrep_core::obs::{self, RingSink, SyncEvent};
        let ring = std::sync::Arc::new(RingSink::new(1 << 16));
        let report = obs::with(ring.clone(), || pull(&mut client, server));
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
        (report, frames)
    };
    #[cfg(not(feature = "obs"))]
    let (report, frames) = (pull(&mut client, server), Vec::new());
    let report = report.unwrap_or_else(|e| panic!("{}: {e}", case.name));
    Observed {
        report,
        outcomes: client
            .finish()
            .into_iter()
            .map(|r| {
                let outcome = r
                    .outcome
                    .map(|o| (o.relation, o.payload, o.vector.encode_snapshot(), o.stats));
                (r.stream, r.name, r.discovered, r.aborted, outcome)
            })
            .collect(),
        frames,
    }
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
        if cfg!(feature = "obs") {
            assert_eq!(
                reference.frames.len() as u64,
                reference.report.frames,
                "{}: one FrameTx per accounted frame",
                case.name
            );
        }
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
    unplanned.sync(&src).run().expect("unplanned pull");

    let mut reference = dst.clone();
    let (synced, contact) = reference
        .sync_planned(&src, &JoinResolver)
        .expect("reference");
    assert_eq!(reference.replica_digest(), unplanned.replica_digest());
    assert!(reference.consistent_with(&unplanned));
    let planned = (
        contact.shards_total,
        contact.shards_skipped,
        contact.shards_incremental,
        contact.shards_snapshot,
        contact.shards_refined,
    );
    assert_eq!(planned, verdicts);

    let mut source = source_of(&src);
    let mut in_process = dst.clone();
    let pulled = planned_pull(&mut in_process, &mut InProcessLink::serving(&mut source));
    assert_eq!(pulled.expect("in-process"), (contact, synced));
    assert_eq!(in_process.replica_digest(), reference.replica_digest());

    let mut weather = FaultyLink::clean();
    let mut faulted = dst.clone();
    let pulled = planned_pull(
        &mut faulted,
        &mut Faulted::new(InProcessLink::serving(&mut source), &mut weather),
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
    let mut link = InProcessLink::serving(&mut source);
    let digests = dst.shard_digest_vector();
    let mut fresh = VectorMemory::default();
    let (client, plan, contact) = pull_planned(&mut link, &mut fresh, &digests, |plan| {
        for (at_source, key, value) in races {
            match at_source {
                true => src.borrow_mut().put(key.clone(), value.clone()),
                false => dst.put(key.clone(), value.clone()),
            }
        }
        match refined {
            true => dst.client_endpoint_refined(plan),
            false => dst
                .client_endpoint_for(&plan.incremental, plan.count as usize)
                .into(),
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
        full.sync(&flat_src.borrow()).run().expect("unplanned pull");
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

/// FNV-1a over every write of each half (lengths included) for the
/// 64-object case, computed at the commit *before* the contact drivers
/// were collapsed into one pump. Same frames, same burst boundaries,
/// same markers — or this moves.
const PINNED_PULLER_TRANSCRIPT: u64 = 0xf3c0_fea1_f029_4fd7;
const PINNED_SERVER_TRANSCRIPT: u64 = 0x4d4c_7e6e_10bd_c141;

#[test]
fn wire_transcript_is_pinned() {
    let (mut client, mut server) = many_objects_case().endpoints();
    let (mut near, mut far) = channel_pair();
    let serving = std::thread::spawn(move || {
        serve_contact(&mut server, &mut far).expect("serve");
        far.transcript
    });
    let report = pull_contact(&mut client, &mut near).expect("pull");
    assert_eq!(
        serving.join().expect("server thread"),
        PINNED_SERVER_TRANSCRIPT
    );
    assert_eq!(near.transcript, PINNED_PULLER_TRANSCRIPT);
    assert_eq!((report.frames, report.total_bytes), (206, 23_762));
    assert_eq!(report.round_trips, 2);
}

/// The same two hashes for the planned pull of [`planned_stores`],
/// computed at the commit *before* the digest/plan turn moved into the
/// contact machines — there the puller ran the planner's blocking
/// exchange function, then `pull_contact`, and the server wrote
/// `plan_frame` plus a turn marker as one write before `serve_contact`.
const PINNED_PLANNED_PULLER_TRANSCRIPT: u64 = 0x07ca_32dd_8664_fee6;
const PINNED_PLANNED_SERVER_TRANSCRIPT: u64 = 0x6f2a_515e_3cd6_aaea;

#[test]
fn planned_wire_transcript_is_pinned_and_priced_by_the_old_arithmetic() {
    let (mut dst, src) = planned_stores();
    // The oracle: the plan computed directly, the planner bytes as the
    // sum of the two encoded frames — how `sync_planned` priced the
    // turn before it crossed the codec, and how `crates/perf`'s mirror
    // still does.
    let digests = dst.shard_digest_vector();
    let (plan, _) = src.plan_contact(&digests, &PlanConfig::default());
    let oracle = (digest_vector_frame(&digests).len() + plan_frame(&plan).len()) as u64;

    let (mut near, far) = channel_pair();
    let serving = serving_thread(src, far);
    let (report, synced) = planned_pull(&mut dst, &mut near).expect("pull");
    let far = serving.join().expect("server thread").expect("serve");
    assert_eq!(far.transcript, PINNED_PLANNED_SERVER_TRANSCRIPT);
    assert_eq!(near.transcript, PINNED_PLANNED_PULLER_TRANSCRIPT);

    assert_eq!(report.digest_bytes, oracle);
    assert_eq!(report.digest_bytes, 2604);
    assert_eq!(report.shards_total, plan.count);
    assert_eq!(report.shards_skipped, plan.skipped());
    assert_eq!(report.shards_incremental, plan.incremental.len() as u64);
    assert_eq!(report.shards_snapshot, plan.snapshots.len() as u64);
    // The planning turn is in neither the frame count, the four planes
    // nor the round trips.
    assert_eq!((report.frames, report.total_bytes), (39, 1589));
    assert_eq!(report.round_trips, 2);
    let created_ff_reconciled = (
        synced.keys_created,
        synced.keys_fast_forwarded,
        synced.keys_reconciled,
    );
    assert_eq!(created_ff_reconciled, (26, 4, 3));
    assert_eq!(synced.digest_bytes as u64, oracle);
}

/// The same two hashes for the refined pull of [`refined_stores`]:
/// the plan frame under its refined tag with the children of three
/// shards behind it, the scope frame leading the puller's opening
/// burst. Computed when the second level landed.
const PINNED_REFINED_PULLER_TRANSCRIPT: u64 = 0x0428_601f_1551_7ddc;
const PINNED_REFINED_SERVER_TRANSCRIPT: u64 = 0xf1d7_13e6_bd76_1426;

#[test]
fn refined_wire_transcript_is_pinned_and_adds_no_turn() {
    /// One pull over a channel pair: both halves' `(transcript,
    /// writes)`, the reports, and where the puller ended.
    fn over_channel(
        pull: fn(&mut KvStore, &mut ChannelLink) -> Result<(ContactReport, KvSyncReport)>,
    ) -> ([(u64, u64); 2], ContactReport, KvSyncReport, u64) {
        let (mut dst, src) = refined_stores();
        let (mut near, far) = channel_pair();
        let serving = serving_thread(src, far);
        let (contact, synced) = pull(&mut dst, &mut near).expect("pull");
        let far = serving.join().expect("server thread").expect("serve");
        let halves = [(near.transcript, near.writes), (far.transcript, far.writes)];
        (halves, contact, synced, dst.replica_digest_full())
    }
    let (refined, report, synced, ended) = over_channel(planned_pull);
    let (flat, flat_report, flat_synced, flat_ended) = over_channel(flat_pull);
    assert_eq!(refined[0].0, PINNED_REFINED_PULLER_TRANSCRIPT);
    assert_eq!(refined[1].0, PINNED_REFINED_SERVER_TRANSCRIPT);

    // No turn is added: each half writes exactly as often as in the
    // flat pull of the same stores, the round trips are the same two,
    // and the planning turn still counts in neither them nor `frames`.
    assert_eq!((refined[0].1, refined[1].1), (flat[0].1, flat[1].1));
    assert_eq!(report.round_trips, 2);
    assert_eq!(flat_report.round_trips, 2);

    // The oracle: plan and scope computed directly, the planner bytes
    // the sum of the three encoded frames.
    let (dst, src) = refined_stores();
    let digests = dst.shard_digest_vector();
    let (plan, _) = src.plan_contact(&digests, &PlanConfig::default());
    let children = plan.children.as_ref().expect("three shards refined");
    assert_eq!((children.fanout, children.parents.len()), (16, 3));
    let scope = dst.client_endpoint_refined(&plan).scope.expect("a scope");
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
}

// What both sides do between the first pull of [`refined_stores`] and
// the second over the same link: the source moves on in shards 2 (dirty
// before, too), 4 and 13, the puller writes one key of its own in
// shard 9. With shard 7, where the puller has held a key of its own all
// along, five of sixteen shards differ — while the puller's *vector*
// changed in four: the three the first pull committed into, and 9.
// The source's journal lists what it did in 2, 4 and 13, so those three
// are proposed; 7 and 9 differ through the puller's doing alone, have
// no candidates and are offered their children as before. And shard 2
// is refused: the first pull *reconciled* a key there (written on both
// sides), the §C increment left the puller's copy ahead of the
// source's, and no journal of the source's can know that — the
// residual says so.

fn refined_keys_in(shard: u64) -> impl Iterator<Item = String> {
    (0..2400)
        .map(|i| format!("key-{i:04}"))
        .filter(move |key| shard_at(key, 16) == shard)
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
    for key in mine.filter(|key| shard_at(key, 16) == 9).take(1) {
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

/// A [`ChannelLink`]'s `(transcript, writes)` so far, and a fresh count.
fn take_transcript(link: &mut ChannelLink) -> (u64, u64) {
    let taken = (link.transcript, link.writes);
    (link.transcript, link.writes) = (FNV_OFFSET, 0);
    taken
}

/// The second pull's transcripts when both ends remember the first.
/// Pinned when the digest delta landed (puller `0xec52_0055_58d9_fa38`,
/// server `0x1452_3d85_0b4b_9899`) and re-pinned, once, when the server
/// began to propose. Frame by frame, against that contact:
///
/// 1. the puller's opening burst — the delta frame naming shards 2, 7,
///    9 and 11, and the turn marker — is unchanged (57 + 11 B);
/// 2. the plan frame keeps its incremental list `[2, 4, 7, 9, 13]` but
///    is tagged `0x3a`, carries the children of shards 7 and 9 only
///    (2 × 16 digests instead of 5 × 16), and ends in three proposals —
///    shard 2 with one candidate, 4 with two, 13 with one, each with
///    its residual: 739 B → 352 B;
/// 3. the scope frame, still leading the puller's second burst, lists
///    two differing children (73 under shard 9, 135 under 7) instead of
///    seven, and then its new tail: one refusal, shard 2: 18 B → 11 B;
/// 4. the `BatchHello` behind it opens shard 2 whole, the keys under the
///    three candidates of 4 and 13, and the two children — 175 keys
///    where the children alone had cut the five shards to 64 — and
///    every later frame follows from that.
///
/// Same turns: both halves write as often as before, and `round_trips`
/// is 2.
const PINNED_SECOND_PULLER_TRANSCRIPT: u64 = 0x4bad_4a1b_c614_08f9;
const PINNED_SECOND_SERVER_TRANSCRIPT: u64 = 0xc384_663d_bbe6_681c;

#[test]
fn second_pull_over_a_link_is_proposed_what_the_source_changed() {
    /// Both contacts over one channel pair: per contact, both halves'
    /// `(transcript, writes)` and the reports; where the puller ended.
    type Halves = [(u64, u64); 2];
    fn over_channel(remember: bool) -> ([Halves; 2], [(ContactReport, KvSyncReport); 2], u64) {
        let (mut dst, src) = refined_stores();
        let (mut near, far) = channel_pair();
        let (tx, rx) = mpsc::channel();
        let serving = serving_twice(src, far, remember, move |far| {
            tx.send(take_transcript(far)).expect("the test waits");
        });
        let mut near_first = (0, 0);
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
    for halves in [warm[0], cold[0]] {
        assert_eq!(halves[0].0, PINNED_REFINED_PULLER_TRANSCRIPT);
        assert_eq!(halves[1].0, PINNED_REFINED_SERVER_TRANSCRIPT);
    }
    assert_eq!(first, cold_first);
    assert_eq!((first.0.digests_sent, first.0.shards_proposed), (16, 0));

    // The second: no turn added or saved by the proposals.
    assert_eq!(warm[1][0].0, PINNED_SECOND_PULLER_TRANSCRIPT);
    assert_eq!(warm[1][1].0, PINNED_SECOND_SERVER_TRANSCRIPT);
    assert_eq!((warm[1][0].1, warm[1][1].1), (cold[1][0].1, cold[1][1].1));
    assert_eq!((report.round_trips, cold_report.round_trips), (2, 2));

    // The oracle: the three planner frames computed directly, as the
    // serving store plans them given the generation it was at when it
    // planned the first contact.
    let (mut dst, mut src) = refined_stores();
    let base = dst.shard_digest_vector();
    {
        let mut source = source_of(&src);
        planned_pull(&mut dst, &mut InProcessLink::serving(&mut source)).expect("first");
    }
    let since = src.generation();
    puller_moves_on(&mut dst);
    source_moves_on(&mut src);
    let next = dst.shard_digest_vector();
    let delta = DigestDelta::between(&base, &next).expect("same count");
    let shards = |delta: &DigestDelta| -> Vec<u64> { delta.changed.iter().map(|c| c.0).collect() };
    assert_eq!(
        shards(&delta),
        [2, 7, 9, 11],
        "what the first pull and the puller touched"
    );
    let mut delta_frame = BytesMut::new();
    wire::put_frame(&mut delta_frame, CONTROL_STREAM, &delta.encode());
    let saved = (digest_vector_frame(&next).len() - delta_frame.len()) as u64;
    assert_eq!((delta_frame.len(), saved), (57, 108));

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
    assert_eq!(refined(&plan), [7, 9]);
    let proposed: Vec<(u64, usize)> = (plan.proposed.iter())
        .map(|p| (p.shard, p.candidates.len()))
        .collect();
    assert_eq!(proposed, [(2, 1), (4, 2), (13, 1)]);
    assert_eq!(
        (plan_frame(&blind).len(), plan_frame(&plan).len()),
        (739, 352)
    );
    let scope = dst.client_endpoint_refined(&plan).scope.expect("a scope");
    let blind_scope = dst.client_endpoint_refined(&blind).scope.expect("a scope");
    assert_eq!((scope.children.len(), blind_scope.children.len()), (2, 7));
    assert_eq!(scope.refused, Some(vec![2]), "the reconciled key");
    assert_eq!(
        (scope_frame(&blind_scope).len(), scope_frame(&scope).len()),
        (18, 11)
    );

    let planner_frames = delta_frame.len() + plan_frame(&plan).len() + scope_frame(&scope).len();
    assert_eq!(report.digest_bytes, planner_frames as u64);
    let blind_frames = digest_vector_frame(&next).len()
        + plan_frame(&blind).len()
        + scope_frame(&blind_scope).len();
    assert_eq!(cold_report.digest_bytes, blind_frames as u64);
    assert_eq!((report.digests_sent, cold_report.digests_sent), (4, 16));
    let offered = |r: &ContactReport| (r.shards_refined, r.shards_proposed, r.shards_refused);
    assert_eq!(
        (offered(&report), offered(&cold_report)),
        ((2, 3, 1), (5, 0, 0))
    );
    assert_eq!(
        (
            synced.shards_proposed,
            synced.shards_refused,
            synced.digest_bytes
        ),
        (3, 1, planner_frames)
    );
    // The refusal is what this fixture pays for having reconciled: the
    // walk of shard 2 outweighs what the proposals for 4 and 13 saved.
    assert_eq!((synced.keys_examined, cold_synced.keys_examined), (175, 64));

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
    full.sync(&src).run().expect("unplanned pull");
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
    assert_eq!(sent, [16, 4]);
    let proposed = [
        reference[0].0.shards_proposed,
        reference[1].0.shards_proposed,
    ];
    assert_eq!(proposed, [0, 3], "the warm contact is a proposed one");

    let (mut dst, src) = refined_stores();
    let src = RefCell::new(src);
    let mut source = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
    let mut link = InProcessLink::serving(&mut source);
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
/// vector of the abandoned contact, so the rerun — a delta against it —
/// stays in step and commits what a pull over a fresh link commits.
#[test]
fn a_pull_abandoned_after_the_wire_leaves_the_memories_in_step() {
    let (mut dst, src) = refined_stores();
    let mut reference = dst.clone();
    reference.put("raced", "local write");
    let mut source = source_of(&src);
    let (fresh, _) = planned_pull(
        &mut reference.clone(),
        &mut InProcessLink::serving(&mut source),
    )
    .expect("reference");
    planned_pull(&mut reference, &mut InProcessLink::serving(&mut source)).expect("reference");

    let mut link = InProcessLink::serving(&mut source);
    let mut remembered = VectorMemory::default();
    let digests = dst.shard_digest_vector();
    let abandoned = pull_planned(&mut link, &mut remembered, &digests, |plan| {
        dst.client_endpoint_refined(plan)
    })
    .expect("the contact itself completes");
    drop(abandoned);
    dst.put("raced", "local write");
    let (rerun, _) = planned_pull_on(&mut dst, &mut link, &mut remembered).expect("rerun");
    assert_eq!(
        rerun.digests_sent, 1,
        "the shard the racing write landed in"
    );
    assert_eq!(
        rerun,
        ContactReport {
            digest_bytes: rerun.digest_bytes,
            digests_sent: 1,
            ..fresh
        }
    );
    assert!(rerun.digest_bytes < fresh.digest_bytes);
    assert_eq!(dst.replica_digest_full(), reference.replica_digest_full());
}

/// The same abandonment with the source moving on around it: the rerun
/// is proposed only what the source changed since it planned the
/// *abandoned* contact — whose outcome the puller never applied. Where
/// that matters the residual does not match, the stale proposal is
/// refused, the shard walked whole, and the rerun alone converges.
#[test]
fn a_rerun_after_an_abandoned_pull_refuses_its_stale_proposals() {
    let (mut dst, src) = refined_stores();
    let src = RefCell::new(src);
    let mut source = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
    let mut link = InProcessLink::serving(&mut source);
    let mut remembered = VectorMemory::default();
    planned_pull_on(&mut dst, &mut link, &mut remembered).expect("first pull");

    source_moves_on(&mut src.borrow_mut());
    let digests = dst.shard_digest_vector();
    let abandoned = pull_planned(&mut link, &mut remembered, &digests, |plan| {
        dst.client_endpoint_refined(plan)
    })
    .expect("the contact itself completes");
    assert_eq!(abandoned.2.shards_proposed, 3);
    drop(abandoned);
    // The write that raced it: a key the source holds too, in a shard
    // of its own (a key only the puller holds would have told the
    // server, by the entry count, not to propose that shard at all).
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
    assert_eq!(
        (rerun.shards_proposed, rerun.shards_refused),
        (2, 1),
        "4 and 5 proposed, 4 refused; 2 and 13 have no news and keep their children"
    );
    assert_eq!(rerun.round_trips, 2);
    assert_eq!(
        synced.keys_fast_forwarded, 6,
        "both rounds of the source's writes"
    );
    let mut full = dst.clone();
    full.sync(&src.borrow()).run().expect("unplanned pull");
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
    /// puller refuses one proposal — a shard it wrote in itself.
    Proposed,
}

/// Where the source's write lands between its plan and its endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Race {
    /// A put to a key of an offered shard outside what the offer keeps:
    /// under no candidate, in a child that does not differ. (A flat plan
    /// offers nothing, so there the whole shard is kept.)
    BesideTheCut,
    /// A put to a key the contact is about: a candidate, the differing key.
    PutCandidate,
    /// The same key deleted.
    DeleteCandidate,
    /// A put into a shard the plan skips.
    SkippedShard,
    /// A put into an incremental shard the cut keeps whole: refused by
    /// the puller, never offered, or any shard of a flat plan.
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

/// Runs `pull` under the invariant-checking sink where `obs` is built
/// in, and requires it to have audited a contact.
fn audited<T>(pull: impl FnOnce() -> T) -> T {
    #[cfg(feature = "obs")]
    {
        use optrep_core::obs::{self, CheckSink};
        let check = std::sync::Arc::new(CheckSink::new());
        let pulled = obs::with(check.clone(), pull);
        assert!(check.checked_contacts() > 0, "the sink audits the contact");
        pulled
    }
    #[cfg(not(feature = "obs"))]
    pull()
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
        .find(|key| shard_at(key, 256) != shard_at(&about, 256))
        .expect("150 keys a shard");
    let raced = match race {
        Race::BesideTheCut => beside,
        Race::PutCandidate | Race::DeleteCandidate => about.clone(),
        Race::SkippedShard => key(12, 0),
        Race::WholeShard if form == Form::Children => key(9, 1),
        Race::WholeShard => key(10, 2),
    };
    let src = RefCell::new(src);
    let armed = std::cell::Cell::new(false);
    let mut source = |ask: ContactAsk<'_>| {
        if matches!(ask, ContactAsk::Endpoint(_)) && armed.replace(false) {
            match race {
                Race::DeleteCandidate => src.borrow_mut().delete(raced.clone()),
                _ => src.borrow_mut().put(raced.clone(), "raced"),
            }
        }
        src.borrow().open_contact(ask)
    };
    let mut link = InProcessLink::serving(&mut source);
    let mut remembered = VectorMemory::default();
    let mut pull = |dst: &mut KvStore| {
        audited(|| {
            let digests = dst.shard_digest_vector();
            let (client, plan, contact) =
                pull_planned(&mut link, &mut remembered, &digests, |plan| {
                    dst.client_endpoint_refined(plan)
                })
                .expect("pull");
            let (_, mut changed) = dst
                .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
                .expect("commit");
            changed.sort();
            (plan, contact, changed)
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
            for shard in [2, 5, 10] {
                src.borrow_mut().put(key(shard, 0), "ahead");
            }
            dst.put(local.clone(), "local");
        }
    }

    // The racing pull.
    let before = dst.clone();
    armed.set(true);
    let (plan, contact, changed) = pull(&mut dst);
    assert!(!armed.get(), "{at}: the endpoint was asked for");
    let refined: Vec<u64> = (plan.children.iter())
        .flat_map(|children| children.parents.iter().map(|(shard, _)| *shard))
        .collect();
    let proposed: Vec<u64> = plan.proposed.iter().map(|p| p.shard).collect();
    let offered = (refined, proposed, contact.shards_refused);
    match form {
        Form::Flat => assert_eq!(offered, (vec![], vec![], 0), "{at}"),
        Form::Children => assert_eq!(offered, (vec![2, 5], vec![], 0), "{at}"),
        Form::Proposed => assert_eq!(offered, (vec![], vec![2, 5, 10], 1), "{at}"),
    }
    // Served at its newer state where the cut admits it, untouched
    // where it does not — and never a vector of one view with the value
    // of the other: what moved is what the source held at the endpoint.
    let admitted = match race {
        Race::BesideTheCut => form == Form::Flat,
        Race::SkippedShard => false,
        Race::PutCandidate | Race::DeleteCandidate | Race::WholeShard => true,
    };
    assert_eq!(changed.contains(&raced), admitted, "{at}: {changed:?}");
    assert!(changed.contains(&about), "{at}: {changed:?}");
    let src_now = src.borrow().clone();
    for key in &changed {
        assert_eq!(
            dst.encode_entry(key),
            src_now.encode_entry(key),
            "{at}: {key}"
        );
    }
    if !admitted {
        assert_eq!(
            dst.encode_entry(&raced),
            before.encode_entry(&raced),
            "{at}"
        );
    }

    // The next pull over the link is proposed from the *plan's*
    // generation: the raced key, which the journal holds, and nothing
    // the racing pull was already told about.
    let placed = fnv1a(FNV_OFFSET, raced.as_bytes()) & (MAX_PLAN_SHARDS - 1);
    let mut expected = dst.clone();
    expected.sync(&src_now).run().expect("unplanned pull");
    let (plan, _, changed) = pull(&mut dst);
    let candidates: Vec<u64> = (plan.proposed.iter())
        .flat_map(|p| p.candidates.iter().copied())
        .collect();
    if admitted {
        assert!(
            candidates.iter().all(|&c| c == placed),
            "{at}: {candidates:?}"
        );
        assert_eq!(changed, Vec::<String>::new(), "{at}");
    } else {
        assert_eq!(candidates, [placed], "{at}");
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

    let (mut dst, mut src) = (KvStore::new(SiteId::new(0)), KvStore::new(SiteId::new(1)));
    src.put("k", "v1");
    dst.sync(&src).run().expect("bootstrap");
    src.put("k", "v2");
    src.put("fresh", "new");
    dst.put("mine", "local");
    let mut clean = FaultyLink::clean();
    dst.clone()
        .sync(&src)
        .via(&mut clean)
        .run()
        .expect("clean kv pull");
    let kv_total = clean.stats().bytes_delivered;

    // A budget of exactly `total` bytes is never exceeded, so the last
    // cut that can abort the contact is one byte short of it.
    for k in 0..total.max(kv_total) {
        if k < total {
            #[cfg(feature = "obs")]
            let err = {
                use optrep_core::obs::{self, RingSink, SyncEvent};
                let ring = std::sync::Arc::new(RingSink::new(1 << 12));
                let err =
                    obs::with(ring.clone(), || cut_pull(&case, k)).expect_err("cut must abort");
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
                err
            };
            #[cfg(not(feature = "obs"))]
            let err = cut_pull(&case, k).expect_err("cut must abort");
            assert!(
                matches!(reason_label(&err), "connection_lost" | "stalled"),
                "cut at {k}/{total}: {err:?}"
            );
        }
        if k < kv_total {
            let before = (dst.replica_digest(), dst.generation());
            let mut cut = FaultyLink::new(FaultPlan::disconnect_at(k));
            dst.sync(&src)
                .via(&mut cut)
                .run()
                .expect_err("cut must abort the kv pull");
            assert_eq!(
                (dst.replica_digest(), dst.generation()),
                before,
                "cut at {k}/{kv_total} moved the store"
            );
        }
    }
    let mut exact = FaultyLink::new(FaultPlan::disconnect_at(kv_total));
    dst.sync(&src).via(&mut exact).run().expect("uncut contact");
    assert_eq!(dst.get("k"), Some(&b"v2"[..]));
}

/// The planning turn is part of the contact: a cut anywhere in a
/// planned pull — digest vector, plan, scope, exchange — aborts it with
/// the destination untouched, and a clean retry converges.
fn a_cut_at_every_byte_leaves_the_store_alone(mut dst: KvStore, src: KvStore) {
    let mut source = source_of(&src);
    let mut pull_under = |dst: &mut KvStore, weather: &mut FaultyLink| {
        planned_pull(
            dst,
            &mut Faulted::new(InProcessLink::serving(&mut source), weather),
        )
    };
    let mut clean = FaultyLink::clean();
    let mut reference = dst.clone();
    let (contact, _) = pull_under(&mut reference, &mut clean).expect("clean plan");
    let total = clean.stats().bytes_delivered;
    assert_eq!(total, contact.total_bytes + contact.digest_bytes);

    let before = (dst.replica_digest(), dst.generation());
    for k in 0..total {
        let mut cut = FaultyLink::new(FaultPlan::disconnect_at(k));
        let err = pull_under(&mut dst, &mut cut).expect_err("cut must abort");
        assert!(
            matches!(reason_label(&err), "connection_lost" | "stalled"),
            "cut at {k}/{total}: {err:?}"
        );
        assert_eq!(
            (dst.replica_digest(), dst.generation()),
            before,
            "cut at {k}/{total} moved the store"
        );
    }
    let mut exact = FaultyLink::new(FaultPlan::disconnect_at(total));
    pull_under(&mut dst, &mut exact).expect("the retry is not cut");
    assert_eq!(dst.replica_digest(), reference.replica_digest());
}

#[test]
fn a_cut_at_every_byte_of_a_planned_pull_leaves_the_store_alone() {
    let (dst, src) = planned_stores();
    a_cut_at_every_byte_leaves_the_store_alone(dst, src);
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
        let mut link = Faulted::new(InProcessLink::serving(&mut source), &mut weather);
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
    assert_eq!((second.digests_sent, second.shards_total), (2, 8));
    assert_eq!(
        (second.shards_proposed, second.shards_refused),
        (1, 0),
        "the sweep must cross a proposal"
    );
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
        let mut fresh = InProcessLink::serving(&mut source);
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
    // nothing, and an unplanned contact has no plan at all — there the
    // frame is just not a mux message.
    let scope_frame = |count, children: &[u64]| {
        let children = children.to_vec();
        let scope = ShardScope {
            count,
            children,
            refused: None,
        };
        frame(CONTROL_STREAM, &scope.encode())
    };
    serving_until_error(vec![digests_frame(), turn(), scope_frame(16, &[])]);
    serving_until_error(vec![scope_frame(16, &[])]);
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
        |_: ContactAsk<'_>| ContactAnswer::Endpoint(BatchPullServer::new(Vec::new()));
    serving
        .on_frame(digests_frame(), &mut unplanned, &mut BytesMut::new())
        .expect_err("no plan to answer with");
    // The honest sequence, for contrast: plan parked, then released
    // with the turn, then an ordinary (empty) exchange — twice over one
    // `Serving`, as on a persistent connection.
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
        assert_eq!(step(empty_hello.clone()).unwrap(), ServeStep::Continue);
        assert_eq!(step(turn()).unwrap(), ServeStep::Continue);
        assert_eq!(step(fin()).unwrap(), ServeStep::Done);
    }

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
        let rest = [turn(), empty_hello.clone(), turn(), fin()];
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
    // the scope answering those ends in the refusals: it can refuse
    // only what was proposed, and must say so in order, once, in full.
    // After the first contact of `refined_stores` the source moves on:
    // shards 2 (one candidate), 4 (two) and 13 (one) are proposed; 7,
    // where the puller holds a key of its own, keeps its children.
    let (dst, before) = refined_stores();
    let mut after = before.clone();
    source_moves_on(&mut after);
    let opening = frame(CONTROL_STREAM, &dst.shard_digest_vector().encode());
    let nothing_opened = msg_frame(
        CONTROL_STREAM,
        MuxMsg::Ctrl(CtrlMsg::BatchHello {
            discover: false,
            opens: Vec::new(),
        }),
    );
    let answered = |refusals: &[u8]| {
        let mut serving = Serving::default();
        let first = [opening.clone(), turn(), nothing_opened.clone(), fin()];
        feed(&mut serving, &before, first).expect("the link's first contact");
        let scope = [&[0x37, 0x80, 0x02, 0][..], refusals].concat();
        let second = [opening.clone(), turn(), frame(CONTROL_STREAM, &scope)];
        feed(&mut serving, &after, second)
    };
    answered(&[0]).expect("every proposal accepted");
    answered(&[2, 2, 13]).expect("two refused");
    answered(&[]).expect_err("a plan that proposed is owed the refusals");
    answered(&[1, 7]).expect_err("refusing a refined shard");
    answered(&[1, 3]).expect_err("refusing a shard the plan skips");
    answered(&[1, 34]).expect_err("a child index where a shard is due");
    answered(&[2, 13, 2]).expect_err("out of order");
    answered(&[2, 4, 4]).expect_err("twice");
    answered(&[4, 2, 4, 13, 13]).expect_err("more refusals than proposals");
    answered(&[1]).expect_err("truncated");
    answered(&[1, 2, 0]).expect_err("padded");
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
    // frame.
    let opening_tag = |remembered: &VectorMemory| {
        let mut out = BytesMut::new();
        let mut puller = Puller::open_planned(&empty_digests(), remembered, &mut out);
        puller
            .on_frame(plan_at(8), &mut BytesMut::new())
            .expect_err("a plan at another count");
        wire::get_frame(&mut out.freeze()).expect("a frame").payload[0]
    };
    let mut remembered = VectorMemory::default();
    assert_eq!(opening_tag(&remembered), 0x35);
    remembered.remember(&empty_digests());
    assert_eq!(opening_tag(&remembered), 0x39);
    remembered.remember(&KvStore::with_shards(SiteId::new(0), 8).shard_digest_vector());
    assert_eq!(opening_tag(&remembered), 0x35);

    // A proposal is made from what the server remembers of the link's
    // last contact. A puller that remembers none — it opened a fresh
    // link with its vector in full — was not owed one: protocol error.
    // The same frame is the plan of a link's later contact.
    let proposing = ShardPlan {
        count: 4,
        incremental: vec![1],
        proposed: vec![Proposal {
            shard: 1,
            candidates: vec![1 + 4 * 77],
            residual: ShardDigest::default(),
        }],
        ..ShardPlan::default()
    };
    let proposing = || frame(CONTROL_STREAM, &proposing.encode());
    let err = plan_until_error(vec![proposing()]);
    assert_eq!(reason_label(&err), "protocol_error");
    let mut out = BytesMut::new();
    let mut puller = Puller::open_planned(&empty_digests(), &remembered, &mut out);
    assert!(puller.on_frame(proposing(), &mut out).unwrap().is_none());
    assert!(puller.on_frame(turn(), &mut out).unwrap().is_none());
    let handed = puller.take_plan().expect("the plan");
    assert_eq!(handed.proposed.len(), 1);
    // Its malformed cousins fail in the decoder whoever receives them:
    // a candidate past the shard's range, a shard both refined and
    // proposed, the tail cut off.
    let mut beyond = proposing().payload.to_vec();
    let at = beyond.len() - 10;
    assert_eq!(beyond[at], 77);
    beyond.splice(at..=at, [0x80, 0x80, 0x10]);
    let cut = proposing().payload.slice(..at);
    let both = ShardPlan {
        children: Some(ChildDigests {
            fanout: 2,
            parents: vec![(1, vec![ShardDigest::default(); 2])],
        }),
        ..handed
    };
    for payload in [&beyond[..], &cut[..], &both.encode()[..]] {
        let mut puller = Puller::open_planned(&empty_digests(), &remembered, &mut out);
        let err = puller.on_frame(frame(CONTROL_STREAM, payload), &mut out);
        assert_eq!(reason_label(&err.unwrap_err()), "decode_error");
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
