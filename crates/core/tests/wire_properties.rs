//! Seeded property tests for the wire layer: arbitrary messages round-trip
//! exactly and encoded lengths are exact. Hostile bytes are the
//! hostile-bytes harness's (`tests/hostile.rs`).

use bytes::Bytes;
use optrep_core::graph::{syncg::GraphMsg, NodeId, Parents};
use optrep_core::rng::{cases, SplitMix64};
use optrep_core::sync::{Msg, WireMsg};
use optrep_core::{wire, SiteId};
use std::ops::Range;

/// A word of any magnitude, so every varint length is drawn.
fn word(rng: &mut SplitMix64) -> u64 {
    rng.next_u64() >> rng.below(64)
}

fn bytes(rng: &mut SplitMix64, len: Range<usize>) -> Vec<u8> {
    (0..rng.range(len)).map(|_| rng.next_u64() as u8).collect()
}

fn site(rng: &mut SplitMix64) -> SiteId {
    SiteId::new(rng.below(1 << 20) as u32)
}

/// Values stay below 2^61 so the two-bit packing of ElemS cannot
/// overflow (documented domain limit).
fn value(rng: &mut SplitMix64) -> u64 {
    word(rng) >> 3
}

fn msg(rng: &mut SplitMix64) -> Msg {
    let (site, value) = (site(rng), value(rng));
    let (conflict, segment) = (rng.chance(0.5), rng.chance(0.5));
    match rng.below(8) {
        0 => Msg::ElemB { site, value },
        1 => Msg::ElemC {
            site,
            value,
            conflict,
        },
        2 => Msg::ElemS {
            site,
            value,
            conflict,
            segment,
        },
        3 => Msg::Halt,
        4 => Msg::Continue,
        5 => Msg::Skip {
            seg: word(rng) >> 24,
        },
        6 => Msg::SegSkipped {
            seg: word(rng) >> 24,
        },
        _ => Msg::FullVector {
            pairs: (0..rng.below(20))
                .map(|_| (self::site(rng), self::value(rng)))
                .collect(),
        },
    }
}

fn node(rng: &mut SplitMix64) -> NodeId {
    NodeId::of(
        SiteId::new(rng.below(1 << 16) as u32),
        rng.below(1 << 16) as u32,
    )
}

fn graph_msg(rng: &mut SplitMix64) -> GraphMsg {
    match rng.below(4) {
        // A right parent requires a left parent in well-formed graphs,
        // but the wire layer must carry anything.
        0 => GraphMsg::Node {
            id: node(rng),
            parents: Parents {
                left: rng.chance(0.5).then(|| node(rng)),
                right: rng.chance(0.5).then(|| node(rng)),
            },
            payload: Bytes::from(bytes(rng, 0..64)),
        },
        1 => GraphMsg::SkipTo { id: node(rng) },
        2 => GraphMsg::SkipToEnd,
        _ => GraphMsg::Halt,
    }
}

#[test]
fn varint_roundtrip() {
    cases(256, |seed, rng| {
        // Every length boundary once, then words of every magnitude.
        let v = match seed {
            0..=63 => 1 << seed,
            64..=127 => (1 << (seed - 64)) - 1,
            128 => u64::MAX,
            _ => word(rng),
        };
        let mut buf = bytes::BytesMut::new();
        wire::put_varint(&mut buf, v);
        assert_eq!(buf.len(), wire::varint_len(v));
        let mut bytes = buf.freeze();
        assert_eq!(wire::get_varint(&mut bytes).unwrap(), v);
        assert!(bytes.is_empty());
    });
}

#[test]
fn msg_roundtrip() {
    cases(256, |_, rng| {
        let msg = msg(rng);
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.encoded_len());
        let mut buf = bytes;
        let decoded = Msg::decode(&mut buf).unwrap();
        assert_eq!(decoded, msg);
        assert!(buf.is_empty());
    });
}

#[test]
fn graph_msg_roundtrip() {
    cases(256, |_, rng| {
        let msg = graph_msg(rng);
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.encoded_len());
        let mut buf = bytes;
        let decoded = GraphMsg::decode(&mut buf).unwrap();
        assert_eq!(decoded, msg);
        assert!(buf.is_empty());
    });
}

#[test]
fn concatenated_messages_decode_in_sequence() {
    cases(256, |_, rng| {
        let msgs: Vec<Msg> = (0..rng.range(1..10)).map(|_| msg(rng)).collect();
        let mut buf = bytes::BytesMut::new();
        for m in &msgs {
            m.encode(&mut buf);
        }
        let mut bytes = buf.freeze();
        for m in &msgs {
            assert_eq!(&Msg::decode(&mut bytes).unwrap(), m);
        }
        assert!(bytes.is_empty());
    });
}
