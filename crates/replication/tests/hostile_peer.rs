//! A hostile peer: every contact machine — the serving half (`Serving`,
//! `serve_frame`), the pulling half (`Puller`, the client) and the store
//! that reads a push — held by `optrep_core::hostile::peer` to be total,
//! capped and whole-or-none over what a peer may send it, and never to
//! move a key backwards.
//!
//! Each fixture is one pinned contact, recorded once over a channel
//! pair: the 64-object, dense and mixed unplanned cases, the planned,
//! refined and second pulls, and a join that bulk-loads every shard. The
//! puller's frames are fed to a fresh serving half, the server's to a
//! fresh pulling half, each edited as the enumerator edits them and
//! spliced with the frames of the same half of the other fixtures;
//! crafted payloads no edit reaches are extra inputs, each refused as it
//! states. What a machine must not do with a sequence the enumerator
//! does not derive — a source that cannot plan, a machine fed past its
//! end — is `machines.rs`'s.

use bytes::{Bytes, BytesMut};
use optrep_core::hostile::peer::{Fed, Peer, Ran};
use optrep_core::hostile::Counting;
use optrep_core::obs::{self, CheckSink};
use optrep_core::wire::{self, Frame};
use optrep_core::{Causality, Error, Result, RotatingVector, SiteId, VersionVector};
use optrep_kv::KvStore;
use optrep_net::FrameLink;
use optrep_replication::mux::TURN_STREAM;
use optrep_replication::planner::{shard_of, ChildDigests, DigestDelta, ShardDigest, ShardScope};
use optrep_replication::{
    pull_contact, reason_label, run_contact, serve_contact, serve_from, BatchPullClient,
    BatchPullServer, InProcessLink, Serving, ShardPlan, VectorMemory, CONTROL_STREAM,
};
use std::sync::{Arc, OnceLock};

mod support;
use support::*;

#[global_allocator]
static COUNTING: Counting = Counting;

// ---------------------------------------------------------------------
// The fixtures: the frames both halves of each pinned contact sent.

/// One pinned contact: the frames each honest half wrote.
struct Transcript {
    name: &'static str,
    puller: Vec<Frame>,
    server: Vec<Frame>,
}

/// A half's writes, cut into their frames.
fn frames_of(writes: &[Vec<u8>]) -> Vec<Frame> {
    let mut bytes = Bytes::from(writes.concat());
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        frames.push(wire::get_frame(&mut bytes).expect("a half writes whole frames"));
    }
    frames
}

/// An unplanned contact over `case`, as `wire_transcript_is_pinned` runs it.
fn unplanned(name: &'static str, case: &Case) -> Transcript {
    let (mut client, mut server) = case.endpoints();
    let (mut near, mut far) = channel_pair();
    let serving = std::thread::spawn(move || {
        serve_contact(&mut server, &mut far).expect("serve");
        far.sent
    });
    pull_contact(&mut client, &mut near).expect("pull");
    let served = serving.join().expect("server thread");
    Transcript {
        name,
        puller: frames_of(&near.sent),
        server: frames_of(&served),
    }
}

/// A link's first planned pull of `dst` from `src`.
fn planned(name: &'static str, (mut dst, src): (KvStore, KvStore)) -> Transcript {
    let (mut near, far) = channel_pair();
    let serving = serving_thread(src, far);
    planned_pull(&mut dst, &mut near).expect("pull");
    let far = serving.join().expect("server thread").expect("serve");
    Transcript {
        name,
        puller: frames_of(&near.sent),
        server: frames_of(&far.sent),
    }
}

/// The second pull over the link of [`refined_stores`], both ends
/// remembering the first.
fn second() -> Transcript {
    let (mut dst, src) = refined_stores();
    let (mut near, far) = channel_pair();
    let serving = serving_twice(src, far, true, |far| far.sent.clear());
    pull_twice(&mut dst, &mut near, true, |near| near.sent.clear());
    let far = serving.join().expect("server thread").expect("serve");
    Transcript {
        name: "second",
        puller: frames_of(&near.sent),
        server: frames_of(&far.sent),
    }
}

/// An empty puller at 16 shards and a source of 200 keys at 16: the plan
/// bulk-loads every shard.
fn join_stores() -> (KvStore, KvStore) {
    let mut src = KvStore::with_shards(SiteId::new(1), 16);
    for i in 0..200 {
        src.put(format!("join-{i:03}"), format!("value {i}"));
    }
    src.delete("join-007");
    (KvStore::with_shards(SiteId::new(0), 16), src)
}

/// Every fixture's transcript, recorded once a test binary.
fn transcripts() -> &'static [Transcript] {
    static RECORDED: OnceLock<Vec<Transcript>> = OnceLock::new();
    RECORDED.get_or_init(|| {
        vec![
            unplanned("wire", &many_objects_case()),
            unplanned("dense", &dense_case(96)),
            unplanned("mixed", &mixed_case()),
            planned("planned", planned_stores()),
            planned("refined", refined_stores()),
            second(),
            planned("join", join_stores()),
        ]
    })
}

fn transcript(name: &str) -> &'static Transcript {
    let found = transcripts().iter().find(|t| t.name == name);
    found.expect("a fixture")
}

/// The half `half` of `name`'s transcript, with the frames the same half
/// of every other fixture sent to splice in, at the default cap.
fn peer(name: &'static str, half: &'static str) -> Peer<'static> {
    let of = |t: &'static Transcript| match half {
        "puller" => &t.puller,
        _ => &t.server,
    };
    let honest = of(transcript(name)).clone();
    let label: &'static str = Box::leak(format!("{name}.{half}").into_boxed_str());
    let peer = Peer::new(label, honest, CONTROL_STREAM, TURN_STREAM).cap(CAP_PER_BYTE, CAP_FIXED);
    let others = transcripts().iter().filter(|t| t.name != name);
    others.fold(peer, |peer, other| {
        peer.splices(other.name, of(other).iter().cloned())
    })
}

// ---------------------------------------------------------------------
// The link a sequence is fed over.

/// The near half of a [`ChannelLink`] pair whose far half wrote a
/// sequence, then closed: counts the frames the machine asks for and the
/// writes it makes, and refuses a write past the sequence's bound, so
/// that a machine that loops ends. The link is a byte stream: where one
/// write ends is nothing the machine sees.
struct Fedlink {
    near: ChannelLink,
    _far: ChannelLink,
    read: usize,
    turns: usize,
    max_turns: usize,
}

impl Fedlink {
    fn new(fed: &Fed) -> Self {
        let (near, mut far) = channel_pair();
        if !fed.is_empty() {
            far.send_bytes(&fed.bytes()).expect("the near half reads");
        }
        far.fin();
        Fedlink {
            near,
            _far: far,
            read: 0,
            turns: 0,
            max_turns: fed.max_turns,
        }
    }

    fn ran<T>(&self, ended: &Result<T>) -> Ran {
        Ran {
            refused: ended.as_ref().err().map(reason_label),
            read: self.read,
            turns: self.turns,
        }
    }
}

impl FrameLink for Fedlink {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.turns += 1;
        if self.turns > self.max_turns {
            return Err(Error::Incomplete {
                protocol: "hostile peer",
            });
        }
        self.near.send_bytes(bytes)
    }

    fn recv_frame(&mut self) -> Result<Frame> {
        self.read += 1;
        self.near.recv_frame()
    }

    fn fin(&mut self) {
        self.near.fin();
    }
}

// ---------------------------------------------------------------------
// The properties a pulling half is held to beside the enumerator's.

/// Runs `pull` under the invariant-checking sink: every contact it began
/// ended, and no event broke an invariant (the sink panics at one).
fn checked<T>(pull: impl FnOnce() -> T) -> std::result::Result<T, String> {
    let check = Arc::new(CheckSink::new());
    let pulled = obs::with(check.clone(), pull);
    check.finish().map(|()| pulled)
}

/// Whether `after` dominates or equals `before`.
fn not_behind(before: &VersionVector, after: &VersionVector) -> bool {
    matches!(before.compare(after), Causality::Before | Causality::Equal)
}

/// Every key `store` tracks, tombstones included, with its vector.
fn tracked(store: &KvStore) -> Vec<(String, VersionVector)> {
    let mut client = store.client_endpoint_for(&[0], 1);
    let mut nothing = BatchPullServer::new(Vec::new());
    run_contact(&mut client, &mut nothing).expect("a contact with an empty source");
    let names = client.finish().into_iter().map(|result| result.name);
    names
        .map(|name| {
            let key = String::from_utf8(name.to_vec()).expect("a stored key is UTF-8");
            let vector = store.meta(&key).expect("tracked").to_version_vector();
            (key, vector)
        })
        .collect()
}

/// A pulling store and its memory of the link, before a contact.
#[derive(Clone)]
struct Pulling {
    dst: KvStore,
    remembered: VectorMemory,
}

/// Holds a planned pull of `before` to whole-or-none and never-backwards
/// over every sequence `peer` derives: on `Err` the store is as it was —
/// generation, entries and the shard digests over them, journal — and the
/// link's memory holds nothing but what this end sent; on `Ok` the
/// contact passed `CheckSink` and no key's vector fell behind. (Every
/// write keeps its shard's digest; that the digests stay the sum of the
/// entries is the store's own property suite's to check.)
fn check_pulling(peer: Peer<'_>, before: Pulling) -> (usize, usize) {
    let digests = before.dst.shard_digest_vector();
    let count = digests.shards.len() as u64;
    let keys: Vec<_> = (tracked(&before.dst).into_iter())
        .map(|(key, vector)| (shard_of(key.as_bytes(), count) as usize, key, vector))
        .collect();
    let state = |store: &KvStore| {
        let vector = store.shard_digest_vector();
        let floor = store.journal_floor_lag();
        (store.generation(), store.tracked_entries(), vector, floor)
    };
    let was = state(&before.dst);
    let checked_run = peer.check(
        || before.clone(),
        |mut pulling, fed| {
            let mut link = Fedlink::new(fed);
            let Pulling { dst, remembered } = &mut pulling;
            let pulled = checked(|| planned_pull_on(dst, &mut link, remembered))?;
            match &pulled {
                Err(_) => {
                    if state(dst) != was {
                        return Err("a refused contact moved the store".into());
                    }
                    let sent = |shard: usize| remembered.digest(shard as u64);
                    let only_sent = remembered.is_empty()
                        || (0..digests.shards.len()).all(|s| sent(s) == Some(digests.shards[s]));
                    if !only_sent {
                        return Err("a refused contact left a memory it did not send".into());
                    }
                }
                Ok(_) => {
                    // A shard whose digest stayed holds what it held.
                    let moved = dst.shard_digest_vector();
                    let keys = keys
                        .iter()
                        .filter(|(s, ..)| moved.shards[*s] != digests.shards[*s]);
                    for (_, key, vector) in keys {
                        let after = dst.meta(key).map(|meta| meta.to_version_vector());
                        if !after.is_some_and(|after| not_behind(vector, &after)) {
                            return Err(format!("an accepted contact moved {key} backwards"));
                        }
                    }
                }
            }
            Ok(link.ran(&pulled))
        },
    );
    (checked_run.sequences, checked_run.accepted)
}

/// Holds an unplanned pull of `case`'s client to never-backwards: on `Ok`
/// the contact passed `CheckSink` and each stream's vector dominates or
/// equals the one the client held. The client holds no store: a caller
/// drops it on `Err`.
fn check_client(peer: Peer<'_>, case: &Case) -> (usize, usize) {
    let held: Vec<(Bytes, VersionVector)> = (case.client.iter())
        .map(|(name, vector)| (name.clone(), vector.to_version_vector()))
        .collect();
    let checked_run = peer.check(
        || BatchPullClient::new(case.client.clone()),
        |mut client, fed| {
            let mut link = Fedlink::new(fed);
            let pulled = checked(|| pull_contact(&mut client, &mut link))?;
            if pulled.is_ok() {
                for result in client.finish() {
                    let Some(outcome) = result.outcome else {
                        continue;
                    };
                    let before = held.iter().find(|(name, _)| *name == result.name);
                    let after = outcome.vector.to_version_vector();
                    if before.is_some_and(|(_, before)| !not_behind(before, &after)) {
                        return Err(format!(
                            "an accepted contact moved {:?} backwards",
                            result.name
                        ));
                    }
                }
            }
            Ok(link.ran(&pulled))
        },
    );
    (checked_run.sequences, checked_run.accepted)
}

/// Holds the serving half of a planned contact out of `src` to the
/// enumerator's properties; `warm` readies the connection's [`Serving`]
/// as its earlier contacts left it. The source is only read, and a
/// connection whose contact failed is dropped with its memory.
fn check_serving(peer: Peer<'_>, src: &KvStore, warm: impl Fn() -> Serving) -> (usize, usize) {
    let peer = peer.cap(CAP_PER_BYTE, CAP_FIXED + CAP_PER_KEY * src.len());
    let checked_run = peer.check(warm, |mut serving, fed| {
        let mut link = Fedlink::new(fed);
        let served = serve_from(&mut serving, &mut source_of(src), &mut link);
        Ok(link.ran(&served))
    });
    (checked_run.sequences, checked_run.accepted)
}

/// The same for the serving half of an unplanned contact over `case`.
fn check_server(peer: Peer<'_>, case: &Case) -> (usize, usize) {
    let checked_run = peer.check(
        || BatchPullServer::new(case.server.clone()),
        |mut server, fed| {
            let mut link = Fedlink::new(fed);
            let served = serve_contact(&mut server, &mut link);
            Ok(link.ran(&served))
        },
    );
    (checked_run.sequences, checked_run.accepted)
}

/// Prints what one fixture's two checks ran.
fn report(name: &str, started: std::time::Instant, halves: [(usize, usize); 2]) {
    let [(served, served_ok), (pulled, pulled_ok)] = halves;
    eprintln!(
        "{name}: {served} sequences to the serving half ({served_ok} accepted), \
         {pulled} to the pulling half ({pulled_ok} accepted), {:.2} s",
        started.elapsed().as_secs_f64()
    );
}

// ---------------------------------------------------------------------
// The fixtures, each half fed to the other half's machine.

/// Crafted sequences, each with what it is and the refusal it must end
/// in.
type Extras = Vec<(&'static str, Vec<Frame>, &'static str)>;

/// `peer` with `extras` to refuse.
fn with_extras(peer: Peer<'static>, extras: Extras) -> Peer<'static> {
    (extras.into_iter()).fold(peer, |peer, (label, frames, why)| {
        peer.extra(label, frames, why)
    })
}

/// `frames` as `edit` leaves them.
fn edited(frames: &[Frame], edit: impl FnOnce(&mut Vec<Frame>)) -> Vec<Frame> {
    let mut frames = frames.to_vec();
    edit(&mut frames);
    frames
}

/// `frames` with `frame` at `at`, in place of the frame there.
fn with_at(frames: &[Frame], at: usize, frame: Frame) -> Vec<Frame> {
    edited(frames, |frames| frames[at] = frame)
}

/// `frames` with `frame` inserted at `at`.
fn with_in(frames: &[Frame], at: usize, frame: Frame) -> Vec<Frame> {
    edited(frames, |frames| frames.insert(at, frame))
}

/// `frames` with frame `at` sent twice.
fn twice(frames: &[Frame], at: usize) -> Vec<Frame> {
    with_in(frames, at, frames[at].clone())
}

/// `frames` with frame `at` on `stream`.
fn moved(frames: &[Frame], at: usize, stream: u64) -> Vec<Frame> {
    edited(frames, |frames| frames[at].stream = stream)
}

fn unplanned_fixture(name: &'static str, case: Case, [serving, pulling]: [Extras; 2]) {
    let started = std::time::Instant::now();
    let served = check_server(with_extras(peer(name, "puller"), serving), &case);
    let pulled = check_client(with_extras(peer(name, "server"), pulling), &case);
    report(name, started, [served, pulled]);
}

/// What a run may ask of the heap a byte fed, beside a fixed part for
/// the machine and its fixture.
const CAP_PER_BYTE: usize = 64;
const CAP_FIXED: usize = 1 << 20;

/// What a serving half may ask a key of its source beside: a digest
/// vector at another count plans every key into one image.
const CAP_PER_KEY: usize = 512;

#[test]
fn the_64_object_contact_is_total_over_a_hostile_peer() {
    // The unplanned server: a contact opens with a hello, once; a marker
    // carries a FIN flag or nothing; a planner's frame is no mux message.
    let puller = &transcript("wire").puller;
    let marker = puller.iter().position(|frame| frame.stream == TURN_STREAM);
    let marker = marker.expect("a turn ends in its marker");
    let digests = transcript("planned").puller[0].clone();
    let serving = vec![
        (
            "a marker before the hello",
            edited(puller, |f| _ = f.remove(0)),
            "stalled",
        ),
        (
            "two FINs where the hello is due",
            vec![fin(), fin()],
            "stalled",
        ),
        (
            "a FIN where the marker is due",
            with_at(puller, marker, fin()),
            "stalled",
        ),
        (
            "a digest vector behind the marker",
            with_in(puller, marker + 1, digests),
            "decode_error",
        ),
        (
            "a marker with a payload",
            with_at(puller, marker, junk()),
            "decode_error",
        ),
    ];
    // The unplanned puller: the answer comes first, as a mux message.
    let server = &transcript("wire").server;
    let plan = transcript("planned").server[0].clone();
    let pulling = vec![
        (
            "a marker where the answer is due",
            edited(server, |f| _ = f.remove(0)),
            "protocol_error",
        ),
        (
            "two markers where the answer is due",
            vec![turn(), turn()],
            "stalled",
        ),
        ("a FIN where the answer is due", vec![fin()], "stalled"),
        (
            "a FIN twice where the answer is due",
            vec![fin(), fin()],
            "stalled",
        ),
        (
            "a plan where the answer is due",
            with_in(server, 0, plan),
            "decode_error",
        ),
        ("a marker with a payload", vec![junk()], "decode_error"),
        (
            "a hello where the answer is due",
            vec![hello()],
            "protocol_error",
        ),
    ];
    unplanned_fixture("wire", many_objects_case(), [serving, pulling]);
}

/// A marker with a payload.
fn junk() -> Frame {
    frame(TURN_STREAM, b"junk")
}

#[test]
fn the_dense_contact_is_total_over_a_hostile_peer() {
    unplanned_fixture("dense", dense_case(96), [Vec::new(), Vec::new()]);
}

#[test]
fn the_mixed_contact_is_total_over_a_hostile_peer() {
    unplanned_fixture("mixed", mixed_case(), [Vec::new(), Vec::new()]);
}

/// A first planned pull of `stores`, both halves, each with crafted
/// sequences it must refuse.
fn planned_fixture(
    name: &'static str,
    (dst, src): (KvStore, KvStore),
    [serving, pulling]: [Extras; 2],
) {
    let started = std::time::Instant::now();
    let served = check_serving(
        with_extras(peer(name, "puller"), serving),
        &src,
        Serving::default,
    );
    let before = Pulling {
        dst,
        remembered: VectorMemory::default(),
    };
    let pulled = check_pulling(with_extras(peer(name, "server"), pulling), before);
    report(name, started, [served, pulled]);
}

#[test]
fn the_planned_contact_is_total_over_a_hostile_peer() {
    // The serving half: the planning turn hands the turn back with its
    // marker and nothing else — not the vector again, a hello, a FIN or
    // a marker with a payload — and a scope answers only an offer, a
    // delta only a vector the connection remembers.
    let puller = &transcript("planned").puller;
    let scope = transcript("refined").puller[2].clone();
    let delta = transcript("second").puller[0].clone();
    let serving = vec![
        (
            "the digest vector twice",
            twice(puller, 0),
            "protocol_error",
        ),
        (
            "the digest vector where its marker is due",
            with_at(puller, 1, puller[0].clone()),
            "protocol_error",
        ),
        (
            "a hello where the marker is due",
            with_at(puller, 1, hello()),
            "protocol_error",
        ),
        (
            "a FIN where the marker is due",
            with_at(puller, 1, fin()),
            "protocol_error",
        ),
        (
            "a marker with a payload",
            with_at(puller, 1, junk()),
            "decode_error",
        ),
        (
            "the digest vector on stream 3",
            moved(puller, 0, 3),
            "protocol_error",
        ),
        (
            "a scope no plan offered",
            with_in(puller, 2, scope),
            "decode_error",
        ),
        (
            "a delta on a fresh connection",
            with_at(puller, 0, delta),
            "decode_error",
        ),
    ];
    // The pulling half: one plan, at the vector's shard count, on the
    // control stream, then its marker; a push only on a link the server
    // planned for before. Crafted: plans at another count, a puller's
    // frames, a marker with a payload, and a plan under the refined tag
    // with no children behind it, where the plan is due.
    let server = &transcript("planned").server;
    let plan_at = |count: u64| {
        let plan = ShardPlan {
            count,
            incremental: vec![1],
            ..ShardPlan::default()
        };
        with_at(server, 0, frame(CONTROL_STREAM, &plan.encode()))
    };
    let vector = KvStore::with_shards(SiteId::new(0), 4).shard_digest_vector();
    let delta = DigestDelta::between(&vector, &vector).expect("same count");
    let mut untailed = plan_at(4);
    let mut tag = untailed[0].payload.to_vec();
    tag[0] = 0x38;
    untailed[0] = frame(CONTROL_STREAM, &tag);
    let push = transcript("second").server[1].clone();
    let planless = |first: Frame| with_at(server, 0, first);
    let pulling = vec![
        ("a marker where the plan is due", vec![turn()], "stalled"),
        ("a FIN where the plan is due", vec![fin()], "stalled"),
        (
            "a FIN where the marker is due",
            vec![server[0].clone(), fin()],
            "stalled",
        ),
        ("the plan twice", twice(server, 0), "protocol_error"),
        (
            "the plan on stream 3",
            moved(server, 0, 3),
            "protocol_error",
        ),
        (
            "two empty turns behind the plan",
            vec![server[0].clone(), turn(), turn(), turn()],
            "stalled",
        ),
        (
            "a push on a link's first contact",
            with_in(server, 1, push),
            "protocol_error",
        ),
        (
            "a plan at 8 shards for a vector of 4",
            plan_at(8),
            "protocol_error",
        ),
        (
            "a plan at 2 shards for a vector of 4",
            plan_at(2),
            "protocol_error",
        ),
        (
            "a digest vector where the plan is due",
            planless(frame(CONTROL_STREAM, &vector.encode())),
            "decode_error",
        ),
        (
            "a delta where the plan is due",
            planless(frame(CONTROL_STREAM, &delta.encode())),
            "decode_error",
        ),
        (
            "a hello where the plan is due",
            planless(hello()),
            "decode_error",
        ),
        ("a marker with a payload", vec![junk()], "decode_error"),
        (
            "a plan under the refined tag with no children",
            untailed,
            "decode_error",
        ),
    ];
    planned_fixture("planned", planned_stores(), [serving, pulling]);
}

#[test]
fn the_refined_contact_is_total_over_a_hostile_peer() {
    let server = &transcript("refined").server;
    let refined = |children: ChildDigests| {
        let plan = ShardPlan {
            count: 16,
            incremental: vec![2],
            children: Some(children),
            ..ShardPlan::default()
        };
        with_at(server, 0, frame(CONTROL_STREAM, &plan.encode()))
    };
    let pair = vec![ShardDigest::default(); 2];
    let pulling = vec![
        (
            "children of a shard the plan does not sync",
            refined(ChildDigests {
                fanout: 2,
                parents: vec![(3, pair)],
            }),
            "decode_error",
        ),
        (
            "a fan-out past the shard cap",
            refined(ChildDigests {
                fanout: 1 << 19,
                parents: vec![(2, Vec::new())],
            }),
            "decode_error",
        ),
    ];
    // The scope answers the offer once, ahead of the hello, never in
    // place of the marker. Crafted scopes: at the plan's count or another
    // fan-out's instead of the offer's, children out of range and more
    // indices than offered (a scope's decoder registration holds the rest
    // of its malformations).
    let puller = &transcript("refined").puller;
    let scoped = |scope: &[u8]| with_at(puller, 2, frame(CONTROL_STREAM, scope));
    let scope = |count: u64, children: &[u64]| {
        let children = children.to_vec();
        scoped(&ShardScope { count, children }.encode())
    };
    let serving = vec![
        ("the scope twice", twice(puller, 2), "decode_error"),
        (
            "the hello before the scope",
            edited(puller, |f| f.swap(2, 3)),
            "decode_error",
        ),
        (
            "a scope where the marker is due",
            edited(puller, |f| _ = f.remove(1)),
            "protocol_error",
        ),
        (
            "a scope at the plan's count",
            scope(16, &[2]),
            "decode_error",
        ),
        (
            "a scope at another fan-out",
            scope(128, &[2]),
            "decode_error",
        ),
        (
            "a child out of range",
            scope(256, &[2 + 16 * 16]),
            "decode_error",
        ),
        (
            "more indices than offered",
            scoped(&[0x37, 128, 2, 49, 2]),
            "decode_error",
        ),
    ];
    planned_fixture("refined", refined_stores(), [serving, pulling]);
}

#[test]
fn a_join_is_total_over_a_hostile_peer() {
    planned_fixture("join", join_stores(), [Vec::new(), Vec::new()]);
}

/// The first of the two contacts of [`second`], run in-process: the
/// pulling store and memory and the serving connection as it leaves
/// them, and the source moved on.
fn after_the_first_contact() -> (Pulling, KvStore) {
    let (mut dst, mut src) = refined_stores();
    let mut remembered = VectorMemory::default();
    let mut serving = Serving::default();
    {
        let mut source = source_of(&src);
        let mut link = InProcessLink::serving(&mut serving, &mut source);
        planned_pull_on(&mut dst, &mut link, &mut remembered).expect("the first pull");
    }
    source_moves_on(&mut src);
    puller_moves_on(&mut dst);
    (Pulling { dst, remembered }, src)
}

#[test]
fn the_second_contact_over_a_link_is_total_over_a_hostile_peer() {
    let started = std::time::Instant::now();
    let (pulling, src) = after_the_first_contact();
    let (_, before) = refined_stores();
    // The serving half, warmed by the first contact's honest frames.
    let first = transcript("refined").puller.clone();
    let warm = || {
        let mut serving = Serving::default();
        let mut source = source_of(&before);
        for frame in &first {
            serving
                .on_frame(frame.clone(), &mut source, &mut BytesMut::new())
                .expect("the first contact");
        }
        serving
    };
    let puller = &transcript("second").puller;
    let opened = |opening: Vec<u8>| with_at(puller, 0, frame(CONTROL_STREAM, &opening));
    let delta = puller[0].payload.to_vec();
    let mut other_check = delta.clone();
    *other_check.last_mut().expect("a delta ends in its check") ^= 1;
    let changed = [1, 0, 0, 0, 0, 0, 0, 0, 7];
    let eight = KvStore::with_shards(SiteId::new(0), 8).shard_digest_vector();
    let eight = DigestDelta::between(&eight, &eight).expect("same count");
    let scoped = |children: &[u8]| {
        let scope = [&[0x37, 0x80, 0x02][..], children].concat();
        with_at(puller, 2, frame(CONTROL_STREAM, &scope))
    };
    let serving_extras = vec![
        ("the delta twice", twice(puller, 0), "protocol_error"),
        (
            "a delta at another shard count",
            opened(eight.encode().to_vec()),
            "decode_error",
        ),
        (
            "a delta whose check describes another vector",
            opened(other_check),
            "decode_error",
        ),
        (
            "a delta listing more shards than the vector",
            opened([&[0x39, 16, 17][..], &[0; 40]].concat()),
            "decode_error",
        ),
        (
            "a delta naming a shard past the count",
            opened([&[0x39, 16, 1, 16][..], &changed, &[0; 8]].concat()),
            "decode_error",
        ),
        (
            "a delta whose gap overflows",
            opened([&[0x39, 16, 1][..], &[0xff; 9], &[1], &changed, &[0; 8]].concat()),
            "decode_error",
        ),
        (
            "a scope with a refusal tail, where none is due",
            scoped(&[0, 0]),
            "decode_error",
        ),
        (
            "a scope naming a child of a proposed shard",
            scoped(&[1, 4]),
            "decode_error",
        ),
        (
            "a scope naming a child of the other proposed shard",
            scoped(&[1, 13]),
            "decode_error",
        ),
        (
            "a scope naming a child of a skipped shard",
            scoped(&[1, 3]),
            "decode_error",
        ),
    ];
    let serving = with_extras(peer("second", "puller"), serving_extras);
    let served = check_serving(serving, &src, warm);

    // The pulling half: the plan, its push, once, on the control stream,
    // then the marker; crafted plans around the honest push, and an empty
    // push.
    let server = &transcript("second").server;
    let listing = |plan: ShardPlan| with_at(server, 0, frame(CONTROL_STREAM, &plan.encode()));
    let pair = vec![ShardDigest::default(); 2];
    let pulling_extras = vec![
        ("the push twice", twice(server, 1), "protocol_error"),
        (
            "the push before the plan",
            edited(server, |f| f.swap(0, 1)),
            "protocol_error",
        ),
        (
            "the push on stream 3",
            moved(server, 1, 3),
            "protocol_error",
        ),
        (
            "a hello behind the push",
            with_in(server, 2, hello()),
            "protocol_error",
        ),
        (
            "the push after the marker",
            edited(server, |f| f.swap(1, 2)),
            "decode_error",
        ),
        (
            "a push into a shard the plan walks",
            listing(ShardPlan {
                count: 16,
                incremental: vec![4, 13],
                ..ShardPlan::default()
            }),
            "protocol_error",
        ),
        (
            "a push into a shard the plan refines",
            listing(ShardPlan {
                count: 16,
                incremental: vec![4],
                children: Some(ChildDigests {
                    fanout: 2,
                    parents: vec![(4, pair)],
                }),
                ..ShardPlan::default()
            }),
            "protocol_error",
        ),
        (
            "a push into a shard the plan bulk-loads",
            listing(ShardPlan {
                count: 16,
                bulk: vec![4, 13],
                image: Some(Bytes::from_static(b"\0")),
                ..ShardPlan::default()
            }),
            "protocol_error",
        ),
        (
            "an empty push",
            with_at(server, 1, push_frame(b"")),
            "protocol_error",
        ),
    ];
    let pulling_peer = with_extras(peer("second", "server"), pulling_extras);
    let pulled = check_pulling(pulling_peer, pulling);
    report("second", started, [served, pulled]);
}
