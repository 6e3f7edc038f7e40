//! What the contact tests share: the seeded endpoint pairs and store
//! pairs every subject runs its contacts over, the in-memory duplex link,
//! the planned pull as `KvStore::sync` runs it, and the frames a test
//! writes by hand. Each test binary uses some of it.
#![allow(dead_code)]

use bytes::{Bytes, BytesMut};
use optrep_core::rng::SplitMix64;
use optrep_core::sync::{ReceiverStats, WireMsg};
use optrep_core::wire::{self, FrameDecoder};
use optrep_core::{Causality, Error, Result, RotatingVector, SiteId, Srv};
use optrep_kv::{EntryImage, JoinResolver, KvStore, KvSyncReport};
use optrep_net::FrameLink;
use optrep_replication::mux::{StreamOpen, TURN_STREAM};
use optrep_replication::planner::shard_of;
use optrep_replication::{
    pull_planned, run_contact, serve_from, BatchPullClient, BatchPullServer, ContactAnswer,
    ContactAsk, ContactReport, CtrlMsg, MuxMsg, Serving, VectorMemory, CONTROL_STREAM,
};
use std::sync::mpsc;

#[path = "../../../kv/tests/support/mod.rs"]
pub mod unplanned;

// ---------------------------------------------------------------------
// Fixture: seeded endpoint pairs.

pub type ClientObjects = Vec<(Bytes, Srv)>;
pub type ServerObjects = Vec<(Bytes, Srv, Bytes)>;

/// One contact's starting state: what the puller tracks and what the
/// server holds. Every transport builds fresh endpoints from it.
pub struct Case {
    pub name: &'static str,
    pub client: ClientObjects,
    pub server: ServerObjects,
}

impl Case {
    pub fn endpoints(&self) -> (BatchPullClient, BatchPullServer) {
        (
            BatchPullClient::new(self.client.clone()),
            BatchPullServer::new(self.server.clone()),
        )
    }
}

pub fn updated(mut vector: Srv, sites: &[u32]) -> Srv {
    for &site in sites {
        RotatingVector::record_update(&mut vector, SiteId::new(site));
    }
    vector
}

pub fn empty_case() -> Case {
    Case {
        name: "empty",
        client: Vec::new(),
        server: Vec::new(),
    }
}

/// One shared object the server has moved ahead on.
pub fn one_object_case() -> Case {
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
pub fn many_objects_case() -> Case {
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
pub struct ChannelLink {
    tx: Option<mpsc::Sender<Vec<u8>>>,
    rx: mpsc::Receiver<Vec<u8>>,
    decoder: FrameDecoder,
    pub sent: Vec<Vec<u8>>,
}

pub fn channel_pair() -> (ChannelLink, ChannelLink) {
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
pub fn planned_stores() -> (KvStore, KvStore) {
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
pub fn refined_stores() -> (KvStore, KvStore) {
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
pub fn planned_pull_on<L: FrameLink>(
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
pub fn planned_pull<L: FrameLink>(
    dst: &mut KvStore,
    link: &mut L,
) -> Result<(ContactReport, KvSyncReport)> {
    planned_pull_on(dst, link, &mut VectorMemory::default())
}

/// The same pull by a puller that ignores the plan's child digests and
/// walks the incremental shards whole: what every planned pull was
/// before plans had a second level, and what `crates/perf`'s mirror
/// still replays.
pub fn flat_pull<L: FrameLink>(
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
pub fn source_of(src: &KvStore) -> impl FnMut(ContactAsk<'_>) -> ContactAnswer + '_ {
    |ask| src.open_contact(ask)
}

/// Serves one planned contact out of `src` on its own thread.
pub fn serving_thread<L: FrameLink + Send + 'static>(
    src: KvStore,
    mut far: L,
) -> std::thread::JoinHandle<Result<L>> {
    std::thread::spawn(move || {
        serve_from(&mut Serving::default(), &mut source_of(&src), &mut far).map(|()| far)
    })
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

pub fn refined_keys_in(shard: u64) -> impl Iterator<Item = String> {
    (0..2400)
        .map(|i| format!("key-{i:04}"))
        .filter(move |key| shard_of(key.as_bytes(), 16) == shard)
}

pub fn source_moves_on(src: &mut KvStore) {
    for key in refined_keys_in(4)
        .take(2)
        .chain(refined_keys_in(2).skip(5).take(1))
    {
        src.put(key, "later:source");
    }
    src.delete(refined_keys_in(13).next().expect("150 keys a shard"));
}

pub fn puller_moves_on(dst: &mut KvStore) {
    let mine = (0..).map(|i| format!("later-{i}"));
    for key in mine.filter(|key| shard_of(key.as_bytes(), 16) == 9).take(1) {
        dst.put(key, "later:puller");
    }
}

/// The puller's half of the two contacts over `link`; `between` runs
/// once the first is committed (an in-process far end moves the source
/// on in there). With `remember` off the second contact forgets the
/// first — what a fresh link would do.
pub fn pull_twice<L: FrameLink>(
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
pub fn serving_twice<L: FrameLink + Send + 'static>(
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
pub type Writes = Vec<Vec<u8>>;

/// A [`ChannelLink`]'s writes so far, leaving none.
pub fn take_transcript(link: &mut ChannelLink) -> Writes {
    std::mem::take(&mut link.sent)
}

/// `n` keys written once more at the source than the puller holds, all
/// at one site: `crates/perf`'s `dense_pull` as one contact, a 256-byte
/// value a key.
pub fn dense_case(n: usize) -> Case {
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
pub fn reconciled(ours: Srv, theirs: Srv) -> Srv {
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
pub fn mixed_case() -> Case {
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

/// A push's tag.
pub const TAG_PUSH: u8 = 0x3b;

/// The state of a record as `KvStore::encode_entry` writes it.
pub fn state_of(vector: &Srv, value: &[u8]) -> Bytes {
    let mut buf = BytesMut::new();
    wire::put_bytes(&mut buf, &vector.encode_snapshot());
    buf.extend_from_slice(&[1]);
    wire::put_bytes(&mut buf, value);
    buf.freeze()
}

/// The image of `records`, keys strictly ascending, as a store writes
/// one.
pub fn image_of(records: &[(Bytes, Srv, Bytes)]) -> Bytes {
    let states: Vec<(Bytes, Bytes)> = (records.iter())
        .map(|(key, vector, value)| (key.clone(), state_of(vector, value)))
        .collect();
    let image = EntryImage::new(states.iter().map(|(key, state)| (key, state)));
    let mut buf = Vec::new();
    (image.expect("keys ascending").write_to(&mut buf)).expect("a Vec takes every byte");
    Bytes::from(buf)
}

/// The push frame of `image`: its tag, then the image.
pub fn push_frame(image: &[u8]) -> wire::Frame {
    frame(CONTROL_STREAM, &[&[TAG_PUSH], image].concat())
}

pub fn frame(stream: u64, payload: &[u8]) -> wire::Frame {
    wire::Frame {
        stream,
        payload: Bytes::copy_from_slice(payload),
    }
}

pub fn turn() -> wire::Frame {
    frame(TURN_STREAM, &[])
}

pub fn fin() -> wire::Frame {
    frame(TURN_STREAM, &[1])
}

pub fn msg_frame(stream: u64, msg: MuxMsg) -> wire::Frame {
    frame(stream, &msg.to_bytes())
}

/// A `BatchHello` opening one stream on the server's only object.
pub fn hello() -> wire::Frame {
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
pub fn planner_frame() -> wire::Frame {
    frame(CONTROL_STREAM, &[0x35, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
}

/// One stream's `finish()` result, the vector as its order-preserving
/// snapshot: `(stream, name, discovered, aborted, outcome)`.
pub type Finished = (
    u64,
    Bytes,
    bool,
    bool,
    Option<(Causality, Option<Bytes>, Bytes, ReceiverStats)>,
);

/// A finished client's per-stream results.
pub fn finished(client: BatchPullClient) -> Vec<Finished> {
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
