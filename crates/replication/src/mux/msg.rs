//! The frame vocabulary of the multiplexed connection: control and
//! session messages and their codec, the link-layer turn markers, and
//! the two errors every machine raises alike.

use crate::protocol::{get_opt_elem, opt_elem_len, put_opt_elem, SessionMsg};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::{Error, Result, WireError};
use optrep_core::sync::{Framed, ProtocolMsg, WireMsg};
use optrep_core::{wire, SiteId};

/// Stream identifier reserved for connection-level control frames.
pub const CONTROL_STREAM: u64 = 0;

/// One stream-open request inside a [`CtrlMsg::BatchHello`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOpen {
    /// Client-chosen stream identifier (never [`CONTROL_STREAM`]).
    pub stream: u64,
    /// Application name of the object (key bytes, object id, …).
    pub name: Bytes,
    /// The client's first element `⌊a⌋` for this object.
    pub first: Option<(SiteId, u64)>,
}

/// The server's per-stream half of Algorithm 1, inside a
/// [`CtrlMsg::BatchServerFirst`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamAnswer {
    /// Stream this answers (matches a [`StreamOpen`]).
    pub stream: u64,
    /// `true` if the server does not hold the named object at all.
    pub missing: bool,
    /// The server's first element `⌊b⌋`.
    pub first: Option<(SiteId, u64)>,
    /// `u_a ≤ b[l_a]` evaluated at the server.
    pub client_known: bool,
    /// `u_a = b[l_a]` evaluated at the server.
    pub client_equal: bool,
}

/// An object the client did not name, which the server opens on a
/// stream above all client streams (discovery), the client's
/// `client_known` implied against the empty vector it pulls it into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOffer {
    /// Server-chosen stream identifier.
    pub stream: u64,
    /// Application name of the object.
    pub name: Bytes,
    /// The server's first element `⌊b⌋`.
    pub first: Option<(SiteId, u64)>,
    /// `client_equal` computed against the implicit empty client vector.
    pub client_equal: bool,
}

/// Control-stream messages of the multiplexed connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Puller → server: open all streams at once, one `Hello` each.
    BatchHello {
        /// Ask the server to offer objects the client did not name.
        discover: bool,
        /// One entry per object the client wants to pull.
        opens: Vec<StreamOpen>,
    },
    /// Server → puller: every answer (and offer) in one frame.
    BatchServerFirst {
        /// Answers to the client's opens, in the same order.
        answers: Vec<StreamAnswer>,
        /// Server-discovered objects (empty unless discovery was asked).
        offers: Vec<StreamOffer>,
    },
    /// Puller → server: the listed streams are finished (coalesced
    /// per-stream `Done`s; cancels speculative streaming).
    BatchDone {
        /// Streams whose sessions ended clean.
        streams: Vec<u64>,
    },
    /// Either direction: the listed streams aborted mid-session. The
    /// receiver tears its halves down and tolerates late frames for
    /// them; sibling streams and the contact itself continue. The
    /// objects are simply re-pulled on the next contact.
    Cancel {
        /// Streams whose sessions aborted.
        streams: Vec<u64>,
    },
}

const TAG_BATCH_HELLO: u8 = 0x31;
const TAG_BATCH_SERVER_FIRST: u8 = 0x32;
const TAG_BATCH_DONE: u8 = 0x33;
const TAG_CANCEL: u8 = 0x34;

/// Any message of the multiplexed connection: control traffic on stream
/// [`CONTROL_STREAM`], per-object session traffic on every other stream.
///
/// Wrapped in [`Framed`] it is what the transports carry; the tag spaces
/// of [`CtrlMsg`] (`0x31..=0x34`) and [`SessionMsg`] (`0x21..`) are disjoint,
/// so decoding is unambiguous without looking at the stream id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuxMsg {
    /// A control-stream message.
    Ctrl(CtrlMsg),
    /// A per-object session message.
    Session(SessionMsg),
}

/// A tag and a list of stream ids: the body of `BatchDone` and `Cancel`.
fn put_streams(buf: &mut BytesMut, tag: u8, streams: &[u64]) {
    buf.put_u8(tag);
    wire::put_varint(buf, streams.len() as u64);
    for s in streams {
        wire::put_varint(buf, *s);
    }
}

/// The list behind a `BatchDone` or `Cancel` tag, which is still in `buf`.
fn get_streams(buf: &mut Bytes) -> std::result::Result<Vec<u64>, WireError> {
    buf.advance(1);
    let count = wire::get_varint(buf)? as usize;
    let mut streams = Vec::with_capacity(count.min(buf.remaining()));
    for _ in 0..count {
        streams.push(wire::get_varint(buf)?);
    }
    Ok(streams)
}

/// The list of a `BatchServerFirst`'s offers.
fn put_offers(buf: &mut BytesMut, offers: &[StreamOffer]) {
    wire::put_varint(buf, offers.len() as u64);
    for offer in offers {
        wire::put_varint(buf, offer.stream);
        wire::put_bytes(buf, &offer.name);
        buf.put_u8(u8::from(offer.client_equal));
        put_opt_elem(buf, &offer.first);
    }
}

fn get_offers(buf: &mut Bytes) -> std::result::Result<Vec<StreamOffer>, WireError> {
    let count = wire::get_varint(buf)? as usize;
    // A stream id, a name's length, a flag and a presence byte at least.
    let mut offers = Vec::with_capacity(count.min(buf.remaining() / 4));
    for _ in 0..count {
        let stream = wire::get_varint(buf)?;
        let name = wire::get_bytes(buf)?;
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let client_equal = get_bool(buf.get_u8())?;
        let first = get_opt_elem(buf)?;
        offers.push(StreamOffer {
            stream,
            name,
            first,
            client_equal,
        });
    }
    Ok(offers)
}

/// A flag byte, which the writer writes 0 or 1.
fn get_bool(byte: u8) -> std::result::Result<bool, WireError> {
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::InvalidPayload),
    }
}

fn offers_len(offers: &[StreamOffer]) -> usize {
    wire::varint_len(offers.len() as u64) + offers.iter().map(offer_len).sum::<usize>()
}

/// One offer's bytes in its list.
fn offer_len(offer: &StreamOffer) -> usize {
    wire::varint_len(offer.stream)
        + wire::bytes_len(offer.name.len())
        + 1
        + opt_elem_len(&offer.first)
}

impl WireMsg for MuxMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            MuxMsg::Ctrl(CtrlMsg::BatchHello { discover, opens }) => {
                buf.put_u8(TAG_BATCH_HELLO);
                buf.put_u8(u8::from(*discover));
                wire::put_varint(buf, opens.len() as u64);
                for open in opens {
                    wire::put_varint(buf, open.stream);
                    wire::put_bytes(buf, &open.name);
                    put_opt_elem(buf, &open.first);
                }
            }
            MuxMsg::Ctrl(CtrlMsg::BatchServerFirst { answers, offers }) => {
                buf.put_u8(TAG_BATCH_SERVER_FIRST);
                wire::put_varint(buf, answers.len() as u64);
                for ans in answers {
                    wire::put_varint(buf, ans.stream);
                    buf.put_u8(
                        u8::from(ans.client_known)
                            | u8::from(ans.client_equal) << 1
                            | u8::from(ans.missing) << 2,
                    );
                    put_opt_elem(buf, &ans.first);
                }
                put_offers(buf, offers);
            }
            MuxMsg::Ctrl(CtrlMsg::BatchDone { streams }) => {
                put_streams(buf, TAG_BATCH_DONE, streams)
            }
            MuxMsg::Ctrl(CtrlMsg::Cancel { streams }) => put_streams(buf, TAG_CANCEL, streams),
            MuxMsg::Session(inner) => inner.encode(buf),
        }
    }

    fn decode(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        match buf[0] {
            TAG_BATCH_HELLO => {
                buf.advance(1);
                if !buf.has_remaining() {
                    return Err(WireError::UnexpectedEof);
                }
                let discover = get_bool(buf.get_u8())?;
                let count = wire::get_varint(buf)? as usize;
                // A stream id, a name's length and a presence byte at least.
                let mut opens = Vec::with_capacity(count.min(buf.remaining() / 3));
                for _ in 0..count {
                    let stream = wire::get_varint(buf)?;
                    let name = wire::get_bytes(buf)?;
                    let first = get_opt_elem(buf)?;
                    opens.push(StreamOpen {
                        stream,
                        name,
                        first,
                    });
                }
                Ok(MuxMsg::Ctrl(CtrlMsg::BatchHello { discover, opens }))
            }
            TAG_BATCH_SERVER_FIRST => {
                buf.advance(1);
                let count = wire::get_varint(buf)? as usize;
                // A stream id, the flags and a presence byte at least.
                let mut answers = Vec::with_capacity(count.min(buf.remaining() / 3));
                for _ in 0..count {
                    let stream = wire::get_varint(buf)?;
                    if !buf.has_remaining() {
                        return Err(WireError::UnexpectedEof);
                    }
                    let flags = buf.get_u8();
                    if flags > 7 {
                        return Err(WireError::InvalidPayload);
                    }
                    let first = get_opt_elem(buf)?;
                    answers.push(StreamAnswer {
                        stream,
                        missing: flags & 4 == 4,
                        first,
                        client_known: flags & 1 == 1,
                        client_equal: flags & 2 == 2,
                    });
                }
                let offers = get_offers(buf)?;
                Ok(MuxMsg::Ctrl(CtrlMsg::BatchServerFirst { answers, offers }))
            }
            TAG_BATCH_DONE => {
                let streams = get_streams(buf)?;
                Ok(MuxMsg::Ctrl(CtrlMsg::BatchDone { streams }))
            }
            TAG_CANCEL => {
                let streams = get_streams(buf)?;
                Ok(MuxMsg::Ctrl(CtrlMsg::Cancel { streams }))
            }
            _ => Ok(MuxMsg::Session(SessionMsg::decode(buf)?)),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            MuxMsg::Ctrl(CtrlMsg::BatchHello { opens, .. }) => {
                2 + wire::varint_len(opens.len() as u64)
                    + opens
                        .iter()
                        .map(|o| {
                            wire::varint_len(o.stream)
                                + wire::bytes_len(o.name.len())
                                + opt_elem_len(&o.first)
                        })
                        .sum::<usize>()
            }
            MuxMsg::Ctrl(CtrlMsg::BatchServerFirst { answers, offers }) => {
                1 + wire::varint_len(answers.len() as u64)
                    + answers
                        .iter()
                        .map(|a| wire::varint_len(a.stream) + 1 + opt_elem_len(&a.first))
                        .sum::<usize>()
                    + offers_len(offers)
            }
            MuxMsg::Ctrl(CtrlMsg::BatchDone { streams })
            | MuxMsg::Ctrl(CtrlMsg::Cancel { streams }) => {
                1 + wire::varint_len(streams.len() as u64)
                    + streams.iter().map(|s| wire::varint_len(*s)).sum::<usize>()
            }
            MuxMsg::Session(inner) => inner.encoded_len(),
        }
    }
}

impl ProtocolMsg for MuxMsg {
    fn is_payload(&self) -> bool {
        matches!(self, MuxMsg::Session(inner) if inner.is_payload())
    }

    fn is_nak(&self) -> bool {
        matches!(
            self,
            MuxMsg::Ctrl(CtrlMsg::BatchDone { .. }) | MuxMsg::Ctrl(CtrlMsg::Cancel { .. })
        ) || matches!(self, MuxMsg::Session(inner) if inner.is_nak())
    }
}

/// Stream identifier reserved for link-layer turn markers. Never a
/// protocol stream: markers are consumed by the two step machines
/// ([`Puller`](super::Puller), [`serve_frame`](super::serve_frame)) and
/// are not accounted in the [`ContactReport`](super::ContactReport)
/// (they are transport overhead, like TCP headers —
/// [`optrep_net::TcpLink`]'s own byte counters see them).
pub const TURN_STREAM: u64 = u64::MAX;

/// The bytes of a turn marker that passes the turn (not a FIN).
pub(crate) const MARKER_LEN: usize = wire::Frame::encoded_len(TURN_STREAM, 0);

/// Appends a turn marker (`[]` = your turn, `[1]` = FIN: no more frames
/// from this side, drain and close).
pub(super) fn put_marker(out: &mut BytesMut, fin: bool) {
    wire::put_frame(out, TURN_STREAM, if fin { &[1] } else { &[] });
}

/// Reads a [`TURN_STREAM`] marker: `true` for FIN, `false` for a turn.
/// Any other payload is not a marker either side ever writes.
pub(super) fn marker_fin(frame: &wire::Frame) -> Result<bool> {
    match &frame.payload[..] {
        [] => Ok(false),
        [1] => Ok(true),
        _ => Err(Error::Wire(WireError::InvalidPayload)),
    }
}

/// Decodes a received frame's payload as exactly one mux message.
pub(super) fn decode_frame_msg(frame: wire::Frame) -> Result<Framed<MuxMsg>> {
    let mut payload = frame.payload;
    let msg = MuxMsg::decode(&mut payload)?;
    if !payload.is_empty() {
        // A frame is exactly one message.
        return Err(Error::from(WireError::UnexpectedEof));
    }
    Ok(Framed::new(frame.stream, msg))
}

/// The contact starved: the side holding the turn has nothing to say
/// and the other side still expects traffic.
pub(super) const STALLED: Error = Error::Incomplete {
    protocol: "mux contact",
};

/// A violation of the mux frame discipline, either side.
pub(super) fn violation(message: impl Into<String>) -> Error {
    Error::UnexpectedMessage {
        protocol: "mux",
        message: message.into(),
    }
}

/// A frame that names a stream neither side opened.
pub(super) fn unknown_stream(stream: u64) -> Error {
    violation(format!("message for unknown stream {stream}"))
}

/// A violation of the planning turn's frame discipline, either side.
pub(super) fn planning_violation(message: String) -> Error {
    Error::UnexpectedMessage {
        protocol: "sync planner",
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::fixtures::s;

    #[test]
    fn ctrl_msgs_roundtrip() {
        let msgs = [
            MuxMsg::Ctrl(CtrlMsg::BatchHello {
                discover: true,
                opens: vec![
                    StreamOpen {
                        stream: 1,
                        name: Bytes::from_static(b"a"),
                        first: Some((s(3), 7)),
                    },
                    StreamOpen {
                        stream: 2,
                        name: Bytes::from_static(b""),
                        first: None,
                    },
                ],
            }),
            MuxMsg::Ctrl(CtrlMsg::BatchServerFirst {
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
                        client_equal: false,
                    },
                ],
                offers: vec![StreamOffer {
                    stream: 3,
                    name: Bytes::from_static(b"new"),
                    first: Some((s(9), 1)),
                    client_equal: false,
                }],
            }),
            MuxMsg::Ctrl(CtrlMsg::BatchDone {
                streams: vec![1, 300],
            }),
            MuxMsg::Ctrl(CtrlMsg::Cancel {
                streams: vec![2, 70_000],
            }),
            MuxMsg::Ctrl(CtrlMsg::Cancel { streams: vec![] }),
            MuxMsg::Session(SessionMsg::Done),
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(bytes.len(), m.encoded_len(), "{m:?}");
            let mut buf = bytes;
            assert_eq!(MuxMsg::decode(&mut buf).unwrap(), m);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn framed_mux_roundtrip() {
        let framed = Framed::new(4, MuxMsg::Session(SessionMsg::PayloadRequest));
        let bytes = framed.to_bytes();
        assert_eq!(bytes.len(), framed.encoded_len());
        let mut buf = bytes;
        assert_eq!(Framed::<MuxMsg>::decode(&mut buf).unwrap(), framed);
    }
}
