//! Every decoder of `optrep-core`, registered once in the hostile-bytes
//! harness (`optrep_core::hostile`): varints and byte strings, the frame
//! decoder, the connection handshake, the `SYNCB/C/S` and `SYNCG`
//! messages, the rotating vector's snapshot and its re-encoder, the
//! causal graph's snapshot and the event trace's JSON lines.

use bytes::{Buf, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::graph::syncg::GraphMsg;
use optrep_core::graph::{CausalGraph, NodeId};
use optrep_core::hostile::{Counting, Decoder};
use optrep_core::obs::SyncEvent;
use optrep_core::order::RotCore;
use optrep_core::sync::{Msg, WireMsg};
use optrep_core::wire::{self, FrameDecoder, Handshake, Intent};
use optrep_core::{RotatingVector, SiteId, Srv};

#[global_allocator]
static COUNTING: Counting = Counting;

/// Decodes one `M` that must be the whole input, as a frame carries one.
fn whole<M: WireMsg>(mut buf: Bytes) -> Result<M, WireError> {
    let msg = M::decode(&mut buf)?;
    match buf.has_remaining() {
        true => Err(WireError::InvalidPayload),
        false => Ok(msg),
    }
}

fn varint(value: u64) -> Vec<u8> {
    let mut buf = BytesMut::new();
    wire::put_varint(&mut buf, value);
    buf.to_vec()
}

#[test]
fn varints_and_byte_strings() {
    Decoder::new("wire::get_varint", |mut buf: Bytes| {
        let value = wire::get_varint(&mut buf)?;
        match buf.has_remaining() {
            true => Err(WireError::InvalidPayload),
            false => Ok(value),
        }
    })
    .canonical(|&value| varint(value))
    .cap(0, 0)
    .torn(|e| *e == WireError::UnexpectedEof)
    .accepts("0", [0])
    .accepts("300", [0xac, 0x02])
    .accepts("2^63", varint(1 << 63))
    .accepts("u64::MAX", varint(u64::MAX))
    .rejects("0 written in two bytes", [0x80, 0x00])
    .rejects(
        "a tenth byte past bit 63",
        [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
    )
    .rejects("eleven bytes", [0x80; 11])
    .check();

    Decoder::new("wire::get_bytes", |mut buf: Bytes| {
        let field = wire::get_bytes(&mut buf)?;
        match buf.has_remaining() {
            true => Err(WireError::InvalidPayload),
            false => Ok(field),
        }
    })
    .canonical(|field| [varint(field.len() as u64), field.to_vec()].concat())
    .cap(0, 0)
    .accepts("empty", [0])
    .accepts("three bytes", b"\x03abc")
    .check();
}

/// One frame, the whole input: what a socket's read completes.
fn frame(buf: Bytes) -> Result<wire::Frame, WireError> {
    let mut decoder = FrameDecoder::new();
    decoder.push(&buf);
    let frame = decoder.next_frame()?.ok_or(WireError::UnexpectedEof)?;
    match decoder.buffered() {
        0 => Ok(frame),
        _ => Err(WireError::InvalidPayload),
    }
}

fn framed(stream: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    wire::put_frame(&mut buf, stream, payload);
    buf.to_vec()
}

/// The frame decoder reserves the rest of a frame it has begun, and a read
/// chunk past it, as soon as it knows the frame's length: its cap is the
/// largest frame it takes and that chunk, over the bytes it was handed.
#[test]
fn frame_decoder() {
    Decoder::new("wire::FrameDecoder", frame)
        .canonical(|frame| framed(frame.stream, &frame.payload))
        .cap(4, wire::DEFAULT_MAX_FRAME + wire::READ_CHUNK + 1024)
        .torn(|e| *e == WireError::UnexpectedEof)
        .accepts("a frame", framed(7, b"hi"))
        .accepts("a frame of 130 bytes", framed(300, &[9; 130]))
        .accepts("a turn marker", framed(u64::MAX, &[]))
        .rejects("a frame of 2^24 + 1 bytes", [0, 0x81, 0x80, 0x80, 0x08])
        .check();
}

#[test]
fn handshake() {
    let peer = Handshake::new(7, Intent::Peer).encode();
    let mut trailing = peer.to_vec();
    trailing.push(0);
    Decoder::new("wire::Handshake::decode", |mut buf| {
        Handshake::decode(&mut buf)
    })
    .canonical(|handshake| handshake.encode().to_vec())
    .cap(0, 0)
    .accepts("a peer's", &peer)
    .accepts(
        "an anonymous client's",
        Handshake::new(u32::MAX, Intent::Verbs).encode(),
    )
    .rejects("a byte past the intent", trailing)
    .check();
}

fn msg(msg: Msg) -> Vec<u8> {
    msg.to_bytes().to_vec()
}

#[test]
fn sync_messages() {
    let s = SiteId::new;
    let pairs = vec![(s(0), 1), (s(300), 1 << 40), (s(u32::MAX), 0)];
    Decoder::new("sync::Msg", whole::<Msg>)
        .canonical(|m| msg(m.clone()))
        .cap(8, 64)
        .accepts(
            "ElemB",
            msg(Msg::ElemB {
                site: s(1000),
                value: 1 << 40,
            }),
        )
        .accepts(
            "ElemC",
            msg(Msg::ElemC {
                site: s(3),
                value: 9,
                conflict: true,
            }),
        )
        .accepts(
            "ElemS",
            msg(Msg::ElemS {
                site: s(5),
                value: 9,
                conflict: false,
                segment: true,
            }),
        )
        .accepts("Skip", msg(Msg::Skip { seg: 300 }))
        .accepts("SegSkipped", msg(Msg::SegSkipped { seg: 2 }))
        .accepts("Halt", msg(Msg::Halt))
        .accepts("Continue", msg(Msg::Continue))
        .accepts("FullVector", msg(Msg::FullVector { pairs }))
        .rejects("a Halt with a field", [1 << 3 | 4])
        .rejects("a Continue with a field", [1 << 3 | 7])
        .rejects("a FullVector of 2^16 pairs in 3 bytes", [0x80, 0x80, 0x04])
        .check();

    let id = NodeId::of(s(2), 5);
    let node = GraphMsg::Node {
        id,
        parents: optrep_core::graph::Parents::two(NodeId::of(s(2), 4), NodeId::of(s(9), 1)),
        payload: Bytes::from_static(b"op"),
    };
    let mut high_presence = node.to_bytes().to_vec();
    high_presence[1 + wire::varint_len(id.raw())] |= 4;
    Decoder::new("graph::syncg::GraphMsg", whole::<GraphMsg>)
        .canonical(|m| m.to_bytes().to_vec())
        .cap(0, 64)
        .accepts("Node", node.to_bytes())
        .accepts(
            "SkipTo",
            GraphMsg::SkipTo {
                id: NodeId::of(s(1), 3),
            }
            .to_bytes(),
        )
        .accepts("SkipToEnd", GraphMsg::SkipToEnd.to_bytes())
        .accepts("Halt", GraphMsg::Halt.to_bytes())
        .rejects("a presence byte above both parents", high_presence)
        .check();
}

fn vector(sites: u32) -> Srv {
    let mut v = Srv::new();
    for i in 0..sites {
        v.record_update(SiteId::new(i * 37));
    }
    v.record_update(SiteId::new(0));
    v
}

#[test]
fn rotating_vector_snapshots() {
    let repeated = [2, 5, 4, 5, 8];
    Decoder::new("order::RotCore::decode_snapshot", |mut buf: Bytes| {
        let core = RotCore::decode_snapshot(&mut buf)?;
        match buf.has_remaining() {
            true => Err(WireError::InvalidPayload),
            false => Ok(core),
        }
    })
    .canonical(|core| core.encode_snapshot().to_vec())
    .cap(24, 256)
    .accepts("empty", [0])
    .accepts("three sites", vector(3).encode_snapshot())
    .accepts("twelve sites, indexed", vector(12).encode_snapshot())
    .rejects("a site named twice", repeated)
    .rejects(
        "a site above u32::MAX",
        [1, 0x81, 0x80, 0x80, 0x80, 0x10, 4],
    )
    .check();

    Decoder::new("order::RotCore::recode_snapshot", |mut buf: Bytes| {
        let mut out = Vec::new();
        RotCore::recode_snapshot(&mut buf, &mut out)?;
        match buf.has_remaining() {
            true => Err(WireError::InvalidPayload),
            false => Ok(out),
        }
    })
    .canonical(Vec::clone)
    .cap(12, 256)
    .accepts("empty", [0])
    .accepts("three sites", vector(3).encode_snapshot())
    .accepts("twelve sites, spilled", vector(12).encode_snapshot())
    .rejects("a site named twice", repeated)
    .check();
}

fn graph() -> CausalGraph {
    let s = SiteId::new;
    let mut graph = CausalGraph::new();
    graph.record_root(NodeId::of(s(9), 0));
    graph.record_op(NodeId::of(s(0), 1));
    graph.record_op(NodeId::of(s(0), 2));
    graph
}

#[test]
fn causal_graph_snapshots() {
    let honest = graph().encode_snapshot().to_vec();
    Decoder::new("graph::CausalGraph::decode_snapshot", |mut buf: Bytes| {
        let graph = CausalGraph::decode_snapshot(&mut buf)?;
        match buf.has_remaining() {
            true => Err(WireError::InvalidPayload),
            false => Ok(graph),
        }
    })
    .canonical(|graph| graph.encode_snapshot().to_vec())
    .cap(64, 1024)
    .accepts("empty", CausalGraph::new().encode_snapshot())
    .accepts("a chain of three", &honest)
    .torn(|e| *e == WireError::UnexpectedEof)
    .corrupt("no head behind a head tag of 2", [0, 2])
    .corrupt("a node listed twice", [2, 1, 0, 1, 0, 0])
    .corrupt("nodes out of order", [2, 2, 0, 1, 0, 0])
    .corrupt("a presence byte above both parents", [1, 1, 4, 0])
    .corrupt("a head naming no node", [1, 1, 0, 1, 2])
    .check();
}

/// One line of each kind the stack emits, as `to_json` writes it.
const LINES: [&str; 17] = [
    r#"{"ev":"session_open","session":1,"scheme":"SRV"}"#,
    r#"{"ev":"compare","session":2,"relation":"concurrent","oracle":null,"cost_bytes":0}"#,
    r#"{"ev":"element","session":1,"site":3,"value":9,"known":false,"conflict":true,"segment":false}"#,
    r#"{"ev":"conflict_bit","session":1,"site":4294967295}"#,
    r#"{"ev":"segment_skip","session":1,"seg":2}"#,
    r#"{"ev":"reconcile","session":1,"decision":"merged"}"#,
    r#"{"ev":"session_close","session":1,"outcome":"fast_forwarded","totals":{"sessions":1,"compare_bytes":2,"meta_bytes":3,"framing_bytes":4,"payload_bytes":5,"meta_elements":6,"delta":4,"gamma":2,"skips":1}}"#,
    r#"{"ev":"graph_node","session":5,"value":7,"applied":true}"#,
    r#"{"ev":"frame_tx","contact":8,"stream":0,"client":true,"compare":48,"meta":1,"framing":166,"payload":2}"#,
    r#"{"ev":"frame_rx","stream":3,"bytes":18446744073709551615}"#,
    r#"{"ev":"contact_begin","contact":8,"streams":16}"#,
    r#"{"ev":"contact_end","contact":8,"round_trips":2,"totals":{"sessions":0,"compare_bytes":0,"meta_bytes":0,"framing_bytes":0,"payload_bytes":0,"meta_elements":0,"delta":0,"gamma":0,"skips":0}}"#,
    r#"{"ev":"gossip_round","round":1}"#,
    r#"{"ev":"link_bytes","forward":false,"bytes":12}"#,
    r#"{"ev":"link_excess","bytes":9}"#,
    r#"{"ev":"session_aborted","contact":8,"stream":0,"reason":"connection_lost"}"#,
    r#"{"ev":"retry","dst":1,"src":2,"attempt":3,"backoff":4}"#,
];

#[test]
fn event_lines() {
    let decoder = Decoder::new("obs::SyncEvent::from_json", |buf: Bytes| {
        let line = std::str::from_utf8(&buf).map_err(|e| e.to_string())?;
        SyncEvent::from_json(line)
    })
    .canonical(|event| event.to_json().into_bytes())
    .cap(4, 256)
    .substitutes(b' '..=b'~')
    .rejects("a key out of order", r#"{"round":1,"ev":"gossip_round"}"#)
    .rejects("a leading zero", r#"{"ev":"gossip_round","round":01}"#);
    LINES
        .iter()
        .fold(decoder, |decoder, line| decoder.accepts(line, line))
        .check();
}
