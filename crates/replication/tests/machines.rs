//! What no peer's sequence reaches, fed to the contact machines by hand:
//! a machine fed past its end, the source a serving half asks, what a
//! serving connection remembers across contacts, the opening a puller
//! chooses, and the planning turn's hand-out of its plan and push. Every
//! sequence a peer may send is `hostile_peer.rs`'s.

use bytes::{Bytes, BytesMut};
use optrep_core::wire::{self, Frame};
use optrep_core::{Error, Result, SiteId, Srv};
use optrep_kv::KvStore;
use optrep_replication::planner::{ChildDigests, DigestDelta, ShardDigest, ShardPlan, ShardScope};
use optrep_replication::{
    reason_label, serve_frame, BatchPullClient, BatchPullServer, ContactAnswer, ContactAsk,
    CtrlMsg, DigestVector, MuxMsg, Puller, Pushed, ServeStep, Serving, VectorMemory,
    CONTROL_STREAM,
};

mod support;
use support::*;

/// An empty `BatchHello`, discovering or not.
fn empty_hello(discover: bool) -> Frame {
    let opens = Vec::new();
    msg_frame(
        CONTROL_STREAM,
        MuxMsg::Ctrl(CtrlMsg::BatchHello { discover, opens }),
    )
}

/// A contact's pumps stop at its end; the machines under them refuse
/// what a caller feeds them past it.
#[test]
fn a_finished_machine_accepts_nothing_more() {
    let (mut client, mut server) = empty_case().endpoints();
    let mut out = BytesMut::new();
    assert_eq!(
        serve_frame(&mut server, empty_hello(false), &mut out).unwrap(),
        ServeStep::Continue
    );
    assert_eq!(
        serve_frame(&mut server, fin(), &mut out).unwrap(),
        ServeStep::Done
    );
    serve_frame(&mut server, fin(), &mut out).expect_err("a second FIN");
    serve_frame(&mut server, turn(), &mut out).expect_err("a turn after the FIN");

    let mut puller = Puller::open(&mut client, 0, &mut out);
    let answer = MuxMsg::Ctrl(CtrlMsg::BatchServerFirst {
        answers: Vec::new(),
        offers: Vec::new(),
    });
    let answer = msg_frame(CONTROL_STREAM, answer);
    assert!(puller.on_frame(answer, &mut out).unwrap().is_none());
    assert!(puller.on_frame(turn(), &mut out).unwrap().is_none());
    assert!(puller.on_frame(fin(), &mut out).unwrap().is_some());
    puller.on_frame(fin(), &mut out).expect_err("a second FIN");
}

/// A contact opens with a digest vector: a bare hello or a scope in its
/// place is refused before the source is asked for anything. A source
/// that hands out no plan, or whose digests fall short of what it plans
/// or serves, cannot serve a planned contact; the contact stops at the
/// step that asked it.
#[test]
fn a_serving_half_asks_its_source_only_what_a_digest_vector_opens() {
    let digests = || KvStore::with_shards(SiteId::new(0), 4).shard_digest_vector();
    let digests_frame = || frame(CONTROL_STREAM, &digests().encode());
    let asked = std::cell::Cell::new(0);
    let mut counting = |_: ContactAsk<'_>| {
        asked.set(asked.get() + 1);
        ContactAnswer::Endpoint(BatchPullServer::new(Vec::new()), Vec::new())
    };
    let scope = ShardScope {
        count: 16,
        children: Vec::new(),
    };
    for first in [hello(), frame(CONTROL_STREAM, &scope.encode())] {
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
    assert_eq!(asked.get(), 0, "the source was asked");
    Serving::default()
        .on_frame(digests_frame(), &mut counting, &mut BytesMut::new())
        .expect_err("no plan to answer with");

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
}

/// One [`Serving`] serves contact after contact, as a persistent
/// connection does; a hello no plan asked for is refused. A delta replayed
/// verbatim as the next contact's opening is served — it carries the
/// changed shards' values, so the check still holds — and after a refused
/// delta nothing is remembered.
#[test]
fn a_serving_connection_remembers_only_what_its_contacts_crossed() {
    let src = KvStore::with_shards(SiteId::new(1), 4);
    let feed = |serving: &mut Serving, frames: Vec<Frame>| -> Result<()> {
        let mut source = source_of(&src);
        for frame in frames {
            serving.on_frame(frame, &mut source, &mut BytesMut::new())?;
        }
        Ok(())
    };
    let base = KvStore::with_shards(SiteId::new(0), 4).shard_digest_vector();
    let opening = frame(CONTROL_STREAM, &base.encode());
    let mut serving = Serving::default();
    for _ in 0..2 {
        feed(&mut serving, vec![opening.clone(), turn(), fin()]).expect("a contact");
    }
    feed(
        &mut serving,
        vec![opening.clone(), turn(), empty_hello(true)],
    )
    .expect_err("a hello no plan asked for");

    let mut next = base.clone();
    next.shards[2] = ShardDigest {
        digest: 7,
        entries: 1,
    };
    let delta = frame(
        CONTROL_STREAM,
        &DigestDelta::between(&base, &next)
            .expect("same count")
            .encode(),
    );
    let warm = || {
        let mut serving = Serving::default();
        feed(&mut serving, vec![opening.clone(), turn(), fin()]).expect("a first contact");
        serving
    };
    let mut serving = warm();
    for _ in 0..2 {
        feed(&mut serving, vec![delta.clone(), turn(), fin()]).expect("the delta, and again");
    }
    let mut serving = warm();
    let mut bad = delta.payload.to_vec();
    *bad.last_mut().expect("a check") ^= 1;
    feed(&mut serving, vec![frame(CONTROL_STREAM, &bad)]).expect_err("a check that fails");
    feed(&mut serving, vec![delta]).expect_err("a failed delta forgets the vector");
}

/// A puller that remembers the link's last vector opens with the delta;
/// one that remembers nothing, or a vector at another count, sends the
/// whole vector. (Its shards hold a key each: four empty shards are a
/// vector of 6 B, shorter than any delta, and always cross whole.)
#[test]
fn a_puller_opens_with_a_delta_only_against_a_vector_at_its_count() {
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
        Puller::open_planned(&held, remembered, &mut out);
        wire::get_frame(&mut out.freeze()).expect("a frame").payload[0]
    };
    let empty = KvStore::with_shards(SiteId::new(0), 4).shard_digest_vector();
    let eight = KvStore::with_shards(SiteId::new(0), 8).shard_digest_vector();
    let mut remembered = VectorMemory::default();
    assert_eq!(opening_tag(&remembered), 0x35);
    remembered.remember(&empty, []);
    assert_eq!(opening_tag(&remembered), 0x35);
    remembered.remember(&held, []);
    assert_eq!(opening_tag(&remembered), 0x39);
    remembered.remember(&eight, []);
    assert_eq!(opening_tag(&remembered), 0x35);
}

/// The planning turn hands its plan out once, after its marker, with the
/// children of a refined plan and the push behind a proposing one; the
/// exchange refuses a push the client took no key of, and a client that
/// took keys of no push.
#[test]
fn a_planning_turn_hands_out_its_plan_once_and_its_push_to_the_endpoint() {
    let empty = KvStore::with_shards(SiteId::new(0), 4).shard_digest_vector();
    let nothing = VectorMemory::default();
    let mut remembered = VectorMemory::default();
    remembered.remember(&empty, []);
    let plan = |plan: ShardPlan| frame(CONTROL_STREAM, &plan.encode());
    let walking = || {
        plan(ShardPlan {
            count: 4,
            incremental: vec![1],
            ..ShardPlan::default()
        })
    };
    let mut out = BytesMut::new();
    let mut puller = Puller::open_planned(&empty, &nothing, &mut out);
    assert!(puller.take_plan().is_none());
    assert!(puller.on_frame(walking(), &mut out).unwrap().is_none());
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
    // Between the planning turn and the exchange the puller reads
    // nothing: a contact takes the plan before it reads on.
    let mut puller = Puller::open_planned(&empty, &nothing, &mut out);
    for frame in [walking(), turn()] {
        assert!(puller.on_frame(frame, &mut out).unwrap().is_none());
    }
    let err = puller.on_frame(turn(), &mut out).unwrap_err();
    assert_eq!(reason_label(&err), "protocol_error");

    let children = ChildDigests {
        fanout: 2,
        parents: vec![(1, vec![ShardDigest::default(); 2])],
    };
    let mut puller = Puller::open_planned(&empty, &nothing, &mut out);
    let refined = plan(ShardPlan {
        count: 4,
        incremental: vec![1],
        children: Some(children.clone()),
        ..ShardPlan::default()
    });
    assert!(puller.on_frame(refined, &mut out).unwrap().is_none());
    assert!(puller.on_frame(turn(), &mut out).unwrap().is_none());
    let handed = puller.take_plan().and_then(|plan| plan.children);
    assert_eq!(handed, Some(children));

    let proposing = || {
        plan(ShardPlan {
            count: 4,
            incremental: vec![1, 2],
            proposed: vec![1],
            ..ShardPlan::default()
        })
    };
    let push = || push_frame(b"\x01image");
    let mut puller = Puller::open_planned(&empty, &remembered, &mut out);
    for frame in [proposing(), push(), turn()] {
        assert!(puller.on_frame(frame, &mut out).unwrap().is_none());
    }
    let handed = puller.take_plan().expect("the plan");
    assert_eq!((handed.incremental, handed.proposed), (vec![2], vec![]));
    assert_eq!(&puller.push_image()[..], b"\x01image");

    let (record, value) = (Bytes::from_static(b"k"), Some(Bytes::from_static(b"v")));
    for (frames, took) in [
        (vec![proposing(), push(), turn()], false),
        (vec![proposing(), turn()], true),
    ] {
        let mut out = BytesMut::new();
        let mut puller = Puller::open_planned(&empty, &remembered, &mut out);
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
}
