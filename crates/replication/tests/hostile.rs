//! Every decoder of `optrep-replication`, registered once in the
//! hostile-bytes harness (`optrep_core::hostile`): the mux connection's
//! control and session messages, the planner's digest vector, digest
//! delta, plan (both tags) and scope, and the operation-transfer
//! replica's snapshot.

use bytes::{Buf, Bytes};
use optrep_core::error::WireError;
use optrep_core::hostile::{Counting, Decoder};
use optrep_core::sync::{Msg, WireMsg};
use optrep_core::SiteId;
use optrep_replication::mux::{CtrlMsg, MuxMsg, StreamAnswer, StreamOffer, StreamOpen};
use optrep_replication::planner::{
    ChildDigests, DigestDelta, DigestVector, Offer, ShardDigest, ShardPlan, ShardScope,
};
use optrep_replication::{OpReplica, SessionMsg};

#[global_allocator]
static COUNTING: Counting = Counting;

fn mux(msg: MuxMsg) -> Bytes {
    msg.to_bytes()
}

#[test]
fn mux_messages() {
    let s = SiteId::new;
    let hello = CtrlMsg::BatchHello {
        discover: true,
        opens: vec![
            StreamOpen {
                stream: 1,
                name: Bytes::from_static(b"a"),
                first: Some((s(3), 7)),
            },
            StreamOpen {
                stream: 2,
                name: Bytes::new(),
                first: None,
            },
        ],
    };
    let answers = CtrlMsg::BatchServerFirst {
        answers: vec![
            StreamAnswer {
                stream: 1,
                missing: false,
                first: Some((s(1), 2)),
                client_known: true,
                client_equal: false,
            },
            StreamAnswer {
                stream: 2,
                missing: true,
                first: None,
                client_known: false,
                client_equal: true,
            },
        ],
        offers: vec![StreamOffer {
            stream: 3,
            name: Bytes::from_static(b"new"),
            first: Some((s(9), 1)),
            client_equal: true,
        }],
    };
    let server_first = SessionMsg::ServerFirst {
        first: Some((s(4), 300)),
        client_known: true,
        client_equal: true,
    };
    Decoder::new("mux::MuxMsg", |mut buf: Bytes| {
        let msg = MuxMsg::decode(&mut buf)?;
        match buf.has_remaining() {
            true => Err(WireError::InvalidPayload),
            false => Ok(msg),
        }
    })
    .canonical(|msg| msg.to_bytes().to_vec())
    .cap(48, 64)
    .accepts("BatchHello", mux(MuxMsg::Ctrl(hello)))
    .accepts("BatchServerFirst", mux(MuxMsg::Ctrl(answers)))
    .accepts(
        "BatchDone",
        mux(MuxMsg::Ctrl(CtrlMsg::BatchDone {
            streams: vec![1, 300],
        })),
    )
    .accepts(
        "Cancel",
        mux(MuxMsg::Ctrl(CtrlMsg::Cancel {
            streams: vec![2, 70_000],
        })),
    )
    .accepts(
        "Hello",
        mux(MuxMsg::Session(SessionMsg::Hello {
            first: Some((s(2), 5)),
        })),
    )
    .accepts("ServerFirst", mux(MuxMsg::Session(server_first)))
    .accepts(
        "Vector",
        mux(MuxMsg::Session(SessionMsg::Vector(Msg::Skip { seg: 2 }))),
    )
    .accepts(
        "PayloadRequest",
        mux(MuxMsg::Session(SessionMsg::PayloadRequest)),
    )
    .accepts(
        "Payload",
        mux(MuxMsg::Session(SessionMsg::Payload {
            data: Bytes::from_static(b"state"),
        })),
    )
    .accepts("Done", mux(MuxMsg::Session(SessionMsg::Done)))
    .rejects("a discover byte of 2", [0x31, 2, 0])
    .rejects("an element's presence byte of 2", [0x21, 2, 1, 1])
    .rejects("a ServerFirst's flags past its two bits", [0x22, 0, 4])
    .rejects(
        "an answer's flags past its three bits",
        [0x32, 1, 1, 8, 0, 0],
    )
    .rejects(
        "an offer's client_equal byte of 2",
        [0x32, 0, 1, 3, 0, 2, 0],
    )
    .rejects("a BatchDone of 2^12 streams in 3 bytes", [0x33, 0x80, 0x20])
    .rejects(
        "a BatchHello of 2^10 opens in 4 bytes",
        [0x31, 0, 0x80, 0x08],
    )
    .check();
}

fn summary(digest: u64, entries: u64) -> ShardDigest {
    ShardDigest {
        digest: if entries == 0 { 0 } else { digest },
        entries,
    }
}

fn vector() -> DigestVector {
    DigestVector {
        shards: vec![
            summary(0xdead_beef_0123_4567, 3),
            summary(0, 0),
            summary(u64::MAX, 1 << 40),
            summary(42, 7),
        ],
    }
}

#[test]
fn digest_vectors_and_deltas() {
    let base = vector();
    Decoder::new("planner::DigestVector::decode", |mut buf| {
        DigestVector::decode(&mut buf)
    })
    .canonical(|vector| vector.encode().to_vec())
    .cap(16, 64)
    .accepts("four shards", base.encode())
    .accepts(
        "one empty shard",
        DigestVector {
            shards: vec![summary(0, 0)],
        }
        .encode(),
    )
    .rejects("2^20 shards in 4 bytes", [0x35, 0x80, 0x80, 0x40])
    .rejects("a trailing byte", [&base.encode()[..], &[0]].concat())
    .check();

    let mut next = base.clone();
    next.shards[1] = summary(9, 1);
    next.shards[3] = summary(0, 0);
    let delta = DigestDelta::between(&base, &next).expect("same shard count");
    Decoder::new("planner::DigestDelta::decode", |mut buf| {
        DigestDelta::decode(&mut buf, &base)
    })
    .canonical(|delta| delta.encode().to_vec())
    .cap(12, 64)
    .accepts("two of four shards", delta.encode())
    .accepts(
        "no shard",
        DigestDelta::between(&base, &base).unwrap().encode(),
    )
    .rejects("another shard count", [0x39, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    .rejects(
        "a fifth shard of four",
        [0x39, 4, 2, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    )
    .check();
}

/// A plan at 4 shards that walks 0 and 3, bulk-loads 2, and refines 3
/// into two children.
fn refined() -> ShardPlan {
    ShardPlan {
        count: 4,
        incremental: vec![0, 3],
        bulk: vec![2],
        image: Some(Bytes::from_static(b"\x00blob")),
        children: Some(ChildDigests {
            fanout: 2,
            parents: vec![(3, vec![summary(7, 1), summary(u64::MAX, 300)])],
        }),
        proposed: Vec::new(),
    }
}

#[test]
fn plans_and_scopes() {
    let plain = ShardPlan {
        children: None,
        ..refined()
    };
    Decoder::new("planner::ShardPlan::decode", |mut buf| {
        ShardPlan::decode(&mut buf)
    })
    .canonical(|plan| plan.encode().to_vec())
    .cap(40, 256)
    .accepts("a plan", plain.encode())
    .accepts("a refined plan", refined().encode())
    .accepts(
        "an empty plan",
        ShardPlan {
            count: 1,
            ..ShardPlan::default()
        }
        .encode(),
    )
    .rejects(
        "2^20 walked shards in 7 bytes",
        [0x36, 0x80, 0x80, 0x40, 0x80, 0x80, 0x40],
    )
    .rejects(
        "the retired proposing tag",
        [&[0x3a][..], &plain.encode()[1..]].concat(),
    )
    .rejects(
        "the children tail under the plain tag",
        [&[0x36][..], &refined().encode()[1..]].concat(),
    )
    .check();

    let offer = Offer {
        count: 4,
        fanout: 4,
        parents: vec![1, 2],
    };
    let scope = |children: &[u64]| {
        ShardScope {
            count: 16,
            children: children.to_vec(),
        }
        .encode()
    };
    Decoder::new("planner::ShardScope::decode", |mut buf| {
        ShardScope::decode(&mut buf, &offer)
    })
    .canonical(|scope| scope.encode().to_vec())
    .cap(8, 64)
    .accepts("four children", scope(&[1, 2, 13, 14]))
    .accepts("no child", scope(&[]))
    .rejects("a child of a shard the plan skipped", scope(&[4]))
    .rejects("children out of order", scope(&[5, 1]))
    .rejects("a child listed twice", scope(&[5, 5]))
    .rejects(
        "more children than were offered",
        [0x37, 16, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    )
    .check();
}

#[test]
fn op_replica_snapshots() {
    let mut replica = OpReplica::new(SiteId::new(3));
    replica.record("create");
    replica.record("edit");
    let honest = replica.encode_snapshot();
    Decoder::new("oplog::OpReplica::decode_snapshot", |mut buf: Bytes| {
        let replica = OpReplica::decode_snapshot(&mut buf)?;
        match buf.has_remaining() {
            true => Err(WireError::InvalidPayload),
            false => Ok(replica),
        }
    })
    .canonical(|replica| replica.encode_snapshot().to_vec())
    .cap(160, 1024)
    .accepts("two operations", &honest)
    .accepts(
        "a fresh replica",
        OpReplica::new(SiteId::new(0)).encode_snapshot(),
    )
    .rejects(
        "2^16 operations in 3 bytes",
        [0, 0, 2, 0, 0, 0x80, 0x80, 0x04],
    )
    .rejects("a byte past the graph in its field", [0, 0, 3, 0, 0, 0, 0])
    .rejects("operations out of order", [0, 0, 2, 0, 0, 2, 2, 0, 1, 0])
    .check();
}
