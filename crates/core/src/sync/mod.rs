//! Vector synchronization protocols: `SYNCB`, `SYNCC`, `SYNCS` and the
//! traditional full-vector baseline.
//!
//! All protocols are *sans-io* state machines: a [`sender`] endpoint and a
//! protocol-specific receiver endpoint exchange [`Msg`] values through any
//! transport. The endpoints implement [`Endpoint`]; drive them with the
//! lockstep driver in [`drive`], or over the discrete-event simulator of
//! the `optrep-net` crate.
//!
//! The direction names follow the paper's `SYNC*_b(a)` convention: vector
//! `b` is hosted on the *sender* ("b's hosting site"), vector `a` on the
//! *receiver* ("a's hosting site"); the receiver's vector is modified.
//!
//! # Pipelining
//!
//! Following §3.1, the sender speculatively streams elements until an
//! asynchronous negative response (`HALT`, or `SKIP` for `SYNCS`) is heard,
//! saving `(k−1)·rtt` over stop-and-wait. Both modes are implemented — see
//! [`FlowControl`] — so the saving is measurable (experiment E2).

pub mod drive;
pub mod full;
pub mod sender;
pub mod syncb;
pub mod syncc;
pub mod syncs;

use crate::error::{Error, Result, WireError};
use crate::site::SiteId;
use crate::wire;
use bytes::{Buf, Bytes, BytesMut};

pub use drive::SyncReport;
pub use full::{FullReceiver, FullSender};
pub use sender::VectorSender;
pub use syncb::SyncBReceiver;
pub use syncc::SyncCReceiver;
pub use syncs::SyncSReceiver;

/// A message of the vector synchronization protocols.
///
/// `ElemB`/`ElemC`/`ElemS` are the per-element payloads of `SYNCB`,
/// `SYNCC` and `SYNCS` (a pair, triple and quadruple in the paper).
/// `Halt`, `Skip` and `SegSkipped` are control messages; `Continue` is the
/// per-element acknowledgement used only by the stop-and-wait baseline.
/// `FullVector` is the traditional whole-vector transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// A `SYNCB` element: the pair `(i, b[i])`.
    ElemB {
        /// Site name `i`.
        site: SiteId,
        /// Value `b[i]`.
        value: u64,
    },
    /// A `SYNCC` element: the triple `(i, b[i], c_i)`.
    ElemC {
        /// Site name `i`.
        site: SiteId,
        /// Value `b[i]`.
        value: u64,
        /// Conflict bit `b.c[i]`.
        conflict: bool,
    },
    /// A `SYNCS` element: the quadruple `(i, b[i], c_i, s_i)`.
    ElemS {
        /// Site name `i`.
        site: SiteId,
        /// Value `b[i]`.
        value: u64,
        /// Conflict bit `b.c[i]`.
        conflict: bool,
        /// Segment bit `b.s[i]`.
        segment: bool,
    },
    /// Terminates the protocol (sent by either side).
    Halt,
    /// `SYNCS` receiver → sender: skip the rest of segment `seg`.
    Skip {
        /// The index of the segment to skip, as counted by the receiver.
        seg: u64,
    },
    /// `SYNCS` sender → receiver: segment `seg` was skipped to its end.
    ///
    /// This O(1) control message is this implementation's documented
    /// addition to Algorithm 4 (the paper omits receiver-side `segs`
    /// maintenance "for brevity"); it keeps both segment counters aligned
    /// under pipelining. One is sent per *honored* skip, so the γ term of
    /// the communication bound is unchanged.
    SegSkipped {
        /// The index of the segment that was skipped.
        seg: u64,
    },
    /// Stop-and-wait acknowledgement granting the sender one send credit.
    /// Pipelining makes these implicit (§3.1: "suppresses (k−1) reply
    /// messages").
    Continue,
    /// The traditional baseline: the entire vector in one message.
    FullVector {
        /// All `(site, value)` pairs of the sender's vector.
        pairs: Vec<(SiteId, u64)>,
    },
}

impl Msg {
    /// `true` for element-bearing messages (the ones that consume a send
    /// credit under stop-and-wait).
    pub fn is_element(&self) -> bool {
        matches!(
            self,
            Msg::ElemB { .. } | Msg::ElemC { .. } | Msg::ElemS { .. }
        )
    }

    /// A short human-readable description used in error reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Msg::ElemB { .. } => "ElemB",
            Msg::ElemC { .. } => "ElemC",
            Msg::ElemS { .. } => "ElemS",
            Msg::Halt => "Halt",
            Msg::Skip { .. } => "Skip",
            Msg::SegSkipped { .. } => "SegSkipped",
            Msg::Continue => "Continue",
            Msg::FullVector { .. } => "FullVector",
        }
    }
}

// Wire format: every message starts with one varint whose low 3 bits are
// the tag and whose high bits carry the first field (site name, segment
// index, or element count). Element messages therefore pay no framing
// byte — their cost is the paper's log(site)+log(value)+bits, rounded up
// to varint bytes, directly comparable to the packed full-vector pairs.
const TAG_FULL_VECTOR: u64 = 0;
const TAG_ELEM_B: u64 = 1;
const TAG_ELEM_C: u64 = 2;
const TAG_ELEM_S: u64 = 3;
const TAG_HALT: u64 = 4;
const TAG_SKIP: u64 = 5;
const TAG_SEG_SKIPPED: u64 = 6;
const TAG_CONTINUE: u64 = 7;

fn put_head(buf: &mut BytesMut, tag: u64, field: u64) {
    wire::put_varint(buf, field << 3 | tag);
}

const fn head_len(tag: u64, field: u64) -> usize {
    wire::varint_len(field << 3 | tag)
}

/// Protocol-level classification of messages, used by the drivers and
/// transports for flow accounting. Implemented by [`Msg`] and by the
/// causal-graph messages in [`crate::graph::syncg`].
pub trait ProtocolMsg: WireMsg {
    /// `true` for payload-bearing messages (vector elements, graph nodes) —
    /// the ones that consume a send credit under stop-and-wait and count
    /// as pipelining excess when streamed past a NAK.
    fn is_payload(&self) -> bool;

    /// `true` for negative responses (`HALT`, `SKIP`, `SKIPTO`) that a
    /// pipelined sender reacts to asynchronously.
    fn is_nak(&self) -> bool;
}

impl ProtocolMsg for Msg {
    fn is_payload(&self) -> bool {
        self.is_element()
    }

    fn is_nak(&self) -> bool {
        matches!(self, Msg::Halt | Msg::Skip { .. })
    }
}

/// Messages that can be encoded to and decoded from wire bytes, with an
/// exact size accounting. Implemented by [`Msg`] and by the causal-graph
/// messages in [`crate::graph::syncg`].
pub trait WireMsg: Sized {
    /// Appends the encoded message to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decodes one message from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the buffer is truncated or carries an
    /// unknown tag.
    fn decode(buf: &mut Bytes) -> std::result::Result<Self, WireError>;

    /// Exact number of bytes [`encode`](Self::encode) appends.
    fn encoded_len(&self) -> usize;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }
}

impl WireMsg for Msg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Msg::ElemB { site, value } => {
                put_head(buf, TAG_ELEM_B, u64::from(site.index()));
                wire::put_varint(buf, *value);
            }
            Msg::ElemC {
                site,
                value,
                conflict,
            } => {
                put_head(buf, TAG_ELEM_C, u64::from(site.index()));
                wire::put_varint(buf, value << 1 | u64::from(*conflict));
            }
            Msg::ElemS {
                site,
                value,
                conflict,
                segment,
            } => {
                put_head(buf, TAG_ELEM_S, u64::from(site.index()));
                wire::put_varint(
                    buf,
                    value << 2 | u64::from(*conflict) << 1 | u64::from(*segment),
                );
            }
            Msg::Halt => put_head(buf, TAG_HALT, 0),
            Msg::Skip { seg } => put_head(buf, TAG_SKIP, *seg),
            Msg::SegSkipped { seg } => put_head(buf, TAG_SEG_SKIPPED, *seg),
            Msg::Continue => put_head(buf, TAG_CONTINUE, 0),
            Msg::FullVector { pairs } => {
                put_head(buf, TAG_FULL_VECTOR, pairs.len() as u64);
                for (site, value) in pairs {
                    wire::put_varint(buf, u64::from(site.index()));
                    wire::put_varint(buf, *value);
                }
            }
        }
    }

    fn decode(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let head = wire::get_varint(buf)?;
        let (tag, field) = (head & 7, head >> 3);
        match tag {
            TAG_ELEM_B => {
                let value = wire::get_varint(buf)?;
                Ok(Msg::ElemB {
                    site: wire::site_id(field)?,
                    value,
                })
            }
            TAG_ELEM_C => {
                let packed = wire::get_varint(buf)?;
                Ok(Msg::ElemC {
                    site: wire::site_id(field)?,
                    value: packed >> 1,
                    conflict: packed & 1 == 1,
                })
            }
            TAG_ELEM_S => {
                let packed = wire::get_varint(buf)?;
                Ok(Msg::ElemS {
                    site: wire::site_id(field)?,
                    value: packed >> 2,
                    conflict: packed >> 1 & 1 == 1,
                    segment: packed & 1 == 1,
                })
            }
            // A marker carries no field: the writer writes it 0.
            TAG_HALT | TAG_CONTINUE if field != 0 => Err(WireError::InvalidPayload),
            TAG_HALT => Ok(Msg::Halt),
            TAG_SKIP => Ok(Msg::Skip { seg: field }),
            TAG_SEG_SKIPPED => Ok(Msg::SegSkipped { seg: field }),
            TAG_CONTINUE => Ok(Msg::Continue),
            TAG_FULL_VECTOR => {
                // Two varints, so at least two bytes, a pair.
                if field > (buf.remaining() / 2) as u64 {
                    return Err(WireError::UnexpectedEof);
                }
                let n = field as usize;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let site = wire::get_site(buf)?;
                    let value = wire::get_varint(buf)?;
                    pairs.push((site, value));
                }
                Ok(Msg::FullVector { pairs })
            }
            _ => unreachable!("tag is three bits"),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            Msg::ElemB { site, value } => {
                head_len(TAG_ELEM_B, u64::from(site.index())) + wire::varint_len(*value)
            }
            Msg::ElemC {
                site,
                value,
                conflict,
            } => {
                head_len(TAG_ELEM_C, u64::from(site.index()))
                    + wire::varint_len(value << 1 | u64::from(*conflict))
            }
            Msg::ElemS {
                site,
                value,
                conflict,
                segment,
            } => {
                head_len(TAG_ELEM_S, u64::from(site.index()))
                    + wire::varint_len(value << 2 | u64::from(*conflict) << 1 | u64::from(*segment))
            }
            Msg::Halt => head_len(TAG_HALT, 0),
            Msg::Continue => head_len(TAG_CONTINUE, 0),
            Msg::Skip { seg } => head_len(TAG_SKIP, *seg),
            Msg::SegSkipped { seg } => head_len(TAG_SEG_SKIPPED, *seg),
            Msg::FullVector { pairs } => {
                head_len(TAG_FULL_VECTOR, pairs.len() as u64)
                    + pairs
                        .iter()
                        .map(|(s, v)| wire::varint_len(u64::from(s.index())) + wire::varint_len(*v))
                        .sum::<usize>()
            }
        }
    }
}

/// A message tagged with the multiplexed stream it belongs to.
///
/// `Framed<M>` is the typed face of the connection frame layer: its wire
/// format is exactly one [`wire::Frame`] — stream varint, payload length
/// varint, then the encoded inner message — so a byte-stream transport can
/// reassemble frames with [`wire::FrameDecoder`] and decode the payload
/// with `M::decode`, while a message-oriented transport ([`SimLink`])
/// carries `Framed<M>` values directly. Any [`WireMsg`] can be
/// multiplexed this way; flow accounting delegates to the inner message.
///
/// [`SimLink`]: https://docs.rs/optrep-net
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed<M> {
    /// Stream identifier (`0` = connection control stream).
    pub stream: u64,
    /// The multiplexed message.
    pub msg: M,
}

impl<M> Framed<M> {
    /// Tags `msg` with `stream`.
    pub fn new(stream: u64, msg: M) -> Self {
        Framed { stream, msg }
    }

    /// Bytes of framing overhead (stream id + length prefix) this frame
    /// adds on top of the inner message's own encoding.
    pub fn header_len(&self) -> usize
    where
        M: WireMsg,
    {
        wire::varint_len(self.stream) + wire::varint_len(self.msg.encoded_len() as u64)
    }
}

impl<M: WireMsg> WireMsg for Framed<M> {
    fn encode(&self, buf: &mut BytesMut) {
        wire::put_varint(buf, self.stream);
        wire::put_varint(buf, self.msg.encoded_len() as u64);
        self.msg.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        let frame = wire::get_frame(buf)?;
        let mut payload = frame.payload;
        let msg = M::decode(&mut payload)?;
        if !payload.is_empty() {
            // A frame is exactly one message; trailing bytes mean the
            // sender and receiver disagree about the inner format.
            return Err(WireError::UnexpectedEof);
        }
        Ok(Framed::new(frame.stream, msg))
    }

    fn encoded_len(&self) -> usize {
        let inner = self.msg.encoded_len();
        wire::varint_len(self.stream) + wire::bytes_len(inner)
    }
}

impl<M: ProtocolMsg> ProtocolMsg for Framed<M> {
    fn is_payload(&self) -> bool {
        self.msg.is_payload()
    }

    fn is_nak(&self) -> bool {
        self.msg.is_nak()
    }
}

/// Flow-control mode for a synchronization run (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowControl {
    /// Network pipelining: the sender streams elements speculatively until
    /// it hears a negative response. This is the paper's mode.
    #[default]
    Pipelined,
    /// Stop-and-wait baseline: one element in flight; each element waits
    /// for an explicit [`Msg::Continue`] (or another reply) before the next
    /// is sent. Costs `(k−1)·rtt` extra completion time.
    StopAndWait,
}

/// A protocol endpoint: one half of a synchronization session.
///
/// The transport repeatedly calls [`poll_send`](Endpoint::poll_send) to
/// drain outgoing messages and [`on_receive`](Endpoint::on_receive) to
/// deliver incoming ones, until both endpoints report
/// [`is_done`](Endpoint::is_done).
pub trait Endpoint {
    /// Message type exchanged by this protocol.
    type Msg;

    /// Returns the next outgoing message, or `None` if the endpoint has
    /// nothing to send right now (it may be waiting for input or credit).
    fn poll_send(&mut self) -> Option<Self::Msg>;

    /// Delivers one incoming message.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if the message is invalid in the endpoint's
    /// current state; the session should be aborted.
    fn on_receive(&mut self, msg: Self::Msg) -> Result<()>;

    /// `true` once the endpoint has halted (sent or received `HALT`).
    fn is_done(&self) -> bool;
}

/// Counters maintained by every receiver endpoint, matching the paper's
/// Table 1 notation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// `|Δ|`: elements applied (value strictly advanced).
    pub delta: usize,
    /// `|Γ|`: elements received whose value was already known
    /// (`b[i] ≤ a[i]`), i.e. redundant transmission.
    pub gamma: usize,
    /// γ: number of `SKIP` requests sent (skipped segments).
    pub skips: usize,
    /// Total element messages received.
    pub elements_received: usize,
}

/// Raised when a receiver gets a message kind its protocol cannot handle.
pub(crate) fn unexpected(protocol: &'static str, msg: &Msg) -> Error {
    Error::UnexpectedMessage {
        protocol,
        message: msg.kind_name().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Msg) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.encoded_len(), "length of {msg:?}");
        let mut buf = bytes.clone();
        let decoded = Msg::decode(&mut buf).unwrap();
        assert_eq!(decoded, msg);
        assert!(buf.is_empty());
    }

    #[test]
    fn a_site_above_u32_is_refused_by_every_message_that_names_one() {
        let site = (1u64 << 32) + 1;
        let mut hostile = Vec::new();
        for tag in [TAG_ELEM_B, TAG_ELEM_C, TAG_ELEM_S] {
            let mut buf = BytesMut::new();
            put_head(&mut buf, tag, site);
            wire::put_varint(&mut buf, 7);
            hostile.push(buf.freeze());
        }
        let mut buf = BytesMut::new();
        put_head(&mut buf, TAG_FULL_VECTOR, 1);
        wire::put_varint(&mut buf, site);
        wire::put_varint(&mut buf, 7);
        hostile.push(buf.freeze());
        for mut message in hostile {
            assert_eq!(
                Msg::decode(&mut message),
                Err(WireError::InvalidPayload),
                "truncated, it would name site 1"
            );
        }
    }

    #[test]
    fn all_messages_roundtrip() {
        let s = SiteId::new(300);
        roundtrip(Msg::ElemB { site: s, value: 7 });
        roundtrip(Msg::ElemC {
            site: s,
            value: 7,
            conflict: true,
        });
        roundtrip(Msg::ElemC {
            site: s,
            value: 7,
            conflict: false,
        });
        for conflict in [false, true] {
            for segment in [false, true] {
                roundtrip(Msg::ElemS {
                    site: s,
                    value: 123456,
                    conflict,
                    segment,
                });
            }
        }
        roundtrip(Msg::Halt);
        roundtrip(Msg::Skip { seg: 0 });
        roundtrip(Msg::Skip { seg: 1 << 40 });
        roundtrip(Msg::SegSkipped { seg: 3 });
        roundtrip(Msg::Continue);
        roundtrip(Msg::FullVector { pairs: vec![] });
        roundtrip(Msg::FullVector {
            pairs: vec![(SiteId::new(0), 1), (SiteId::new(9999), u32::MAX as u64)],
        });
    }

    #[test]
    fn framed_roundtrip_matches_raw_frame() {
        let msg = Msg::ElemS {
            site: SiteId::new(300),
            value: 42,
            conflict: false,
            segment: true,
        };
        let framed = Framed::new(9, msg.clone());
        let bytes = framed.to_bytes();
        assert_eq!(bytes.len(), framed.encoded_len());
        assert_eq!(framed.header_len(), bytes.len() - msg.encoded_len());

        // The typed encoding is byte-identical to a raw wire::Frame.
        let mut raw = BytesMut::new();
        wire::put_frame(&mut raw, 9, &msg.to_bytes());
        assert_eq!(bytes, raw.freeze());

        let mut buf = bytes;
        let decoded = Framed::<Msg>::decode(&mut buf).unwrap();
        assert_eq!(decoded, framed);
        assert!(buf.is_empty());
    }

    #[test]
    fn framed_rejects_trailing_bytes_in_frame() {
        let mut raw = BytesMut::new();
        let mut payload = Msg::Halt.to_bytes().to_vec();
        payload.push(0xaa); // junk after the message
        wire::put_frame(&mut raw, 1, &payload);
        let mut buf = raw.freeze();
        assert!(Framed::<Msg>::decode(&mut buf).is_err());
    }

    #[test]
    fn framed_delegates_flow_classification() {
        let elem = Framed::new(
            2,
            Msg::ElemB {
                site: SiteId::new(1),
                value: 1,
            },
        );
        assert!(elem.is_payload() && !elem.is_nak());
        let halt = Framed::new(2, Msg::Halt);
        assert!(!halt.is_payload() && halt.is_nak());
    }

    #[test]
    fn element_sizes_are_compact() {
        // A small element costs 2 bytes: the tag rides in the site varint.
        let m = Msg::ElemB {
            site: SiteId::new(5),
            value: 9,
        };
        assert_eq!(m.encoded_len(), 2);
        // The SRV quadruple packs both bits into the value varint.
        let m = Msg::ElemS {
            site: SiteId::new(5),
            value: 9,
            conflict: true,
            segment: true,
        };
        assert_eq!(m.encoded_len(), 2);
        assert_eq!(Msg::Halt.encoded_len(), 1);
        // Elements cost at most two bytes more than a packed FULL pair
        // (tag bits may spill each varint into the next byte).
        let pair_cost = crate::wire::varint_len(5) + crate::wire::varint_len(9);
        assert!(m.encoded_len() <= pair_cost + 2);
    }

    #[test]
    fn is_element_classification() {
        assert!(Msg::ElemB {
            site: SiteId::new(0),
            value: 1
        }
        .is_element());
        assert!(!Msg::Halt.is_element());
        assert!(!Msg::Continue.is_element());
        assert!(!Msg::FullVector { pairs: vec![] }.is_element());
    }
}
