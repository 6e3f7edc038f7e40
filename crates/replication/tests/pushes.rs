//! A turn carries one message a stream and every stream its lockstep
//! transcript, and a pushed key reaches its receiver as its stream would
//! have.

use bytes::{Bytes, BytesMut};
use optrep_core::rng::SplitMix64;
use optrep_core::sync::{Endpoint, Framed, Msg, WireMsg};
use optrep_core::wire::{self};
use optrep_core::{Causality, Error, Result, RotatingVector, Srv};
use optrep_kv::{JoinResolver, KvStore};
use optrep_net::FrameLink;
use optrep_replication::mux::{Pushed, TURN_STREAM};
use optrep_replication::planner::{plan_frame, shard_of, JOURNAL_PLACEMENTS};
use optrep_replication::ShardDigest;
use optrep_replication::{
    pull_contact, pull_planned, serve_frame, BatchPullClient, BatchPullServer, ContactAnswer,
    ContactAsk, ContactReport, CtrlMsg, DigestVector, InProcessLink, MuxMsg, Puller, ServeStep,
    Serving, SessionMsg, ShardPlan, VectorMemory, CONTROL_STREAM,
};
use std::cell::RefCell;
use std::collections::BTreeMap;

mod support;
use support::*;

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
