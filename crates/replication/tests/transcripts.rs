//! The bytes on the wire are pinned: each half of the unplanned, the
//! planned, the refined and the second pull over a link is checked
//! against its transcript under `transcripts/`, and the second pull runs
//! alike over every transport.

use bytes::{Bytes, BytesMut};
use optrep_core::rng::{fold_bytes, FOLD_BASIS};
use optrep_core::sync::{Framed, WireMsg};
use optrep_core::wire::{self};
use optrep_core::{Result, SiteId};
use optrep_kv::{KvStore, KvSyncReport};
use optrep_net::{ConnectOptions, TcpLink};
use optrep_replication::mux::{classify_push, FrameBytes, TURN_STREAM};
use optrep_replication::planner::{digest_vector_frame, plan_frame, scope_frame};
use optrep_replication::{
    classify, pull_contact, serve_contact, ContactAsk, ContactReport, CtrlMsg, DigestDelta,
    InProcessLink, MuxMsg, PlanConfig, Serving, SessionMsg, ShardPlan, CONTROL_STREAM,
};
use std::cell::RefCell;
use std::sync::mpsc;

mod support;
use support::unplanned::unplanned_pull;
use support::*;

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
