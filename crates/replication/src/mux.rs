//! Multiplexed multi-object anti-entropy sessions over one framed
//! connection.
//!
//! [`crate::protocol`] synchronizes *one* object per connection: every
//! object costs its own `Hello`/`ServerFirst` exchange, so pulling `n`
//! objects costs at least `n` round trips even when almost all of them are
//! already identical. This module multiplexes an arbitrary set of objects
//! over a single connection as interleaved streams (see
//! [`optrep_core::sync::Framed`] and [`optrep_core::wire::FrameDecoder`]):
//!
//! * Each object's session is one stream; stream `0` carries connection
//!   control.
//! * All first elements travel together in one [`CtrlMsg::BatchHello`]
//!   frame and are answered by one [`CtrlMsg::BatchServerFirst`] — the
//!   comparison half-round-trip is amortized over all `n` objects while
//!   each object still pays only Algorithm 1's O(1) element exchange.
//! * Per-stream `Done` verdicts coalesce into one [`CtrlMsg::BatchDone`].
//! * Objects the client did not name can be *offered* by the server
//!   (discovery), so a contact also creates replicas the puller has never
//!   seen.
//!
//! Inside each stream the protocol is exactly [`crate::protocol`]'s: the
//! server streams `SYNCS` elements speculatively (§3.1 pipelining) and a
//! late `Done` cancels it cheaply. The result is that a batched pull of
//! `n` objects with `d` dirty ones completes in `O(1 + d/n·k)` round
//! trips instead of `Ω(n)`, with per-object `Δ`/`Γ`/`γ` accounting
//! identical to the single-object path.

use crate::planner::{
    plan_frame, scope_frame, Cut, DigestVector, Offer, ShardPlan, ShardScope, VectorMemory,
    TAG_SHARD_DIGESTS, TAG_SHARD_DIGESTS_DELTA, TAG_SHARD_SCOPE,
};
use crate::protocol::{
    get_opt_elem, opt_elem_len, put_opt_elem, PullClient, PullOutcome, PullServer, SessionMsg,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::{Error, Result, WireError};
use optrep_core::obs::{self, SessionTotals};
use optrep_core::sync::{Endpoint, Framed, ProtocolMsg, WireMsg};
use optrep_core::{obs_emit, wire, SiteId, Srv};
use optrep_net::{FaultyLink, FrameLink, TransmitOutcome};
use std::collections::{BTreeMap, VecDeque};

/// Stream identifier reserved for connection-level control frames.
pub const CONTROL_STREAM: u64 = 0;

/// The fields of a per-stream `ServerFirst` answer:
/// `(first, client_known, client_equal)`.
type ServerFirstFields = (Option<(SiteId, u64)>, bool, bool);

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

/// A server-discovered object the client did not name, opened by the
/// server on a fresh stream (the client pulls it from scratch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOffer {
    /// Server-chosen stream identifier (above all client streams).
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
/// of [`CtrlMsg`] (`0x31..`) and [`SessionMsg`] (`0x21..`) are disjoint,
/// so decoding is unambiguous without looking at the stream id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuxMsg {
    /// A control-stream message.
    Ctrl(CtrlMsg),
    /// A per-object session message.
    Session(SessionMsg),
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
                wire::put_varint(buf, offers.len() as u64);
                for offer in offers {
                    wire::put_varint(buf, offer.stream);
                    wire::put_bytes(buf, &offer.name);
                    buf.put_u8(u8::from(offer.client_equal));
                    put_opt_elem(buf, &offer.first);
                }
            }
            MuxMsg::Ctrl(CtrlMsg::BatchDone { streams }) => {
                buf.put_u8(TAG_BATCH_DONE);
                wire::put_varint(buf, streams.len() as u64);
                for s in streams {
                    wire::put_varint(buf, *s);
                }
            }
            MuxMsg::Ctrl(CtrlMsg::Cancel { streams }) => {
                buf.put_u8(TAG_CANCEL);
                wire::put_varint(buf, streams.len() as u64);
                for s in streams {
                    wire::put_varint(buf, *s);
                }
            }
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
                let discover = buf.get_u8() != 0;
                let count = wire::get_varint(buf)? as usize;
                let mut opens = Vec::with_capacity(count.min(1024));
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
                let mut answers = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let stream = wire::get_varint(buf)?;
                    if !buf.has_remaining() {
                        return Err(WireError::UnexpectedEof);
                    }
                    let flags = buf.get_u8();
                    let first = get_opt_elem(buf)?;
                    answers.push(StreamAnswer {
                        stream,
                        missing: flags & 4 == 4,
                        first,
                        client_known: flags & 1 == 1,
                        client_equal: flags & 2 == 2,
                    });
                }
                let count = wire::get_varint(buf)? as usize;
                let mut offers = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let stream = wire::get_varint(buf)?;
                    let name = wire::get_bytes(buf)?;
                    if !buf.has_remaining() {
                        return Err(WireError::UnexpectedEof);
                    }
                    let client_equal = buf.get_u8() != 0;
                    let first = get_opt_elem(buf)?;
                    offers.push(StreamOffer {
                        stream,
                        name,
                        first,
                        client_equal,
                    });
                }
                Ok(MuxMsg::Ctrl(CtrlMsg::BatchServerFirst { answers, offers }))
            }
            TAG_BATCH_DONE => {
                buf.advance(1);
                let count = wire::get_varint(buf)? as usize;
                let mut streams = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    streams.push(wire::get_varint(buf)?);
                }
                Ok(MuxMsg::Ctrl(CtrlMsg::BatchDone { streams }))
            }
            TAG_CANCEL => {
                buf.advance(1);
                let count = wire::get_varint(buf)? as usize;
                let mut streams = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    streams.push(wire::get_varint(buf)?);
                }
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
                    + wire::varint_len(offers.len() as u64)
                    + offers
                        .iter()
                        .map(|o| {
                            wire::varint_len(o.stream)
                                + wire::bytes_len(o.name.len())
                                + 1
                                + opt_elem_len(&o.first)
                        })
                        .sum::<usize>()
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

/// What one stream of a finished batched pull produced.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Stream the object rode on.
    pub stream: u64,
    /// Application name of the object.
    pub name: Bytes,
    /// `true` if the server offered this object (the client had no
    /// replica; the pull transferred it from scratch).
    pub discovered: bool,
    /// `true` if this stream's session aborted mid-contact (the object
    /// was cancelled and is re-pulled on the next contact).
    pub aborted: bool,
    /// The per-object session outcome; `None` if the server does not
    /// hold the object or the stream aborted.
    pub outcome: Option<PullOutcome>,
}

#[derive(Debug)]
struct ClientStream {
    name: Bytes,
    discovered: bool,
    missing: bool,
    aborted: bool,
    /// Already counted out of `unfinished` — set once, the first time
    /// the stream is seen missing, aborted, or session-done.
    finished: bool,
    client: PullClient,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientPhase {
    Start,
    AwaitServerFirst,
    Running,
}

/// The pulling side of a batched, multiplexed contact: one
/// [`PullClient`] per stream behind a single control stream.
///
/// Implements [`Endpoint`] over [`Framed`]`<`[`MuxMsg`]`>`, so any
/// transport that can carry the single-object session (the discrete-event
/// simulator, OS threads, a lockstep driver) can carry a whole contact.
#[derive(Debug)]
pub struct BatchPullClient {
    phase: ClientPhase,
    discover: bool,
    streams: BTreeMap<u64, ClientStream>,
    order: Vec<u64>,
    /// Streams with possible pending work: every received frame enqueues
    /// its stream here, and [`gather`](Self::gather) drains the queue —
    /// so a contact costs O(frames), not O(streams × frames). Entries
    /// may be stale (already-finished streams); gather skips them.
    ready: VecDeque<u64>,
    /// Streams not yet missing, aborted, or session-done. Maintained by
    /// [`settle`](Self::settle) so `is_done` is O(1), not a scan.
    unfinished: usize,
    pending_dones: Vec<u64>,
    pending_cancels: Vec<u64>,
    outbox: VecDeque<Framed<MuxMsg>>,
}

impl BatchPullClient {
    /// Creates a client pulling the named objects, with server-side
    /// discovery of unnamed objects enabled.
    pub fn new<I>(objects: I) -> Self
    where
        I: IntoIterator<Item = (Bytes, Srv)>,
    {
        let mut streams = BTreeMap::new();
        let mut order = Vec::new();
        for (i, (name, vector)) in objects.into_iter().enumerate() {
            let stream = i as u64 + 1;
            streams.insert(
                stream,
                ClientStream {
                    name,
                    discovered: false,
                    missing: false,
                    aborted: false,
                    finished: false,
                    client: PullClient::new(vector),
                },
            );
            order.push(stream);
        }
        let unfinished = streams.len();
        BatchPullClient {
            phase: ClientPhase::Start,
            discover: true,
            streams,
            order,
            ready: VecDeque::new(),
            unfinished,
            pending_dones: Vec::new(),
            pending_cancels: Vec::new(),
            outbox: VecDeque::new(),
        }
    }

    /// Creates a client that only pulls the objects it names (the server
    /// offers nothing extra).
    pub fn without_discovery<I>(objects: I) -> Self
    where
        I: IntoIterator<Item = (Bytes, Srv)>,
    {
        let mut client = Self::new(objects);
        client.discover = false;
        client
    }

    /// Number of streams (named plus discovered).
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Moves session messages out of every *ready* per-stream client
    /// into the connection outbox, coalescing `Done`s. A stream is ready
    /// only when a received frame put it there, so a contact's total
    /// gather work is O(frames) — idle streams are never scanned.
    fn gather(&mut self) {
        while let Some(stream) = self.ready.pop_front() {
            let st = self.streams.get_mut(&stream).expect("stream exists");
            if !st.missing && !st.aborted {
                while let Some(msg) = st.client.poll_send() {
                    if msg == SessionMsg::Done {
                        self.pending_dones.push(stream);
                    } else {
                        self.outbox
                            .push_back(Framed::new(stream, MuxMsg::Session(msg)));
                    }
                }
            }
            self.settle(stream);
        }
    }

    /// Counts `stream` out of `unfinished` the first time it turns
    /// missing, aborted, or session-done. Called at every point a
    /// stream's state can flip, keeping `is_done` a counter check.
    fn settle(&mut self, stream: u64) {
        let st = self.streams.get_mut(&stream).expect("stream exists");
        if !st.finished && (st.missing || st.aborted || st.client.is_done()) {
            st.finished = true;
            self.unfinished -= 1;
        }
    }

    fn unknown_stream(stream: u64) -> Error {
        Error::UnexpectedMessage {
            protocol: "mux",
            message: format!("message for unknown stream {stream}"),
        }
    }

    /// Consumes the finished client, yielding one result per stream.
    ///
    /// # Panics
    ///
    /// Panics if the contact has not completed (check
    /// [`is_done`](Endpoint::is_done) first).
    pub fn finish(self) -> Vec<StreamResult> {
        assert!(
            self.phase == ClientPhase::Running
                && self.pending_dones.is_empty()
                && self.pending_cancels.is_empty()
                && self.outbox.is_empty(),
            "contact still in progress"
        );
        self.streams
            .into_iter()
            .map(|(stream, st)| StreamResult {
                stream,
                name: st.name,
                discovered: st.discovered,
                aborted: st.aborted,
                outcome: if st.missing || st.aborted {
                    None
                } else {
                    Some(st.client.finish())
                },
            })
            .collect()
    }

    /// Marks one stream aborted and queues a [`CtrlMsg::Cancel`] so the
    /// server tears its half down; sibling streams continue untouched.
    fn abort_stream(&mut self, stream: u64, reason: &'static str, notify_peer: bool) {
        let st = self.streams.get_mut(&stream).expect("stream exists");
        if st.aborted {
            return;
        }
        st.aborted = true;
        if notify_peer {
            self.pending_cancels.push(stream);
        }
        self.settle(stream);
        obs_emit!(obs::SyncEvent::SessionAborted {
            contact: obs::current_contact(),
            stream,
            reason,
        });
    }
}

impl Endpoint for BatchPullClient {
    type Msg = Framed<MuxMsg>;

    fn poll_send(&mut self) -> Option<Framed<MuxMsg>> {
        if self.phase == ClientPhase::Start {
            let mut opens = Vec::with_capacity(self.order.len());
            for &stream in &self.order {
                let st = self.streams.get_mut(&stream).expect("stream exists");
                let first = match st.client.poll_send() {
                    Some(SessionMsg::Hello { first }) => first,
                    other => unreachable!("fresh client must greet, got {other:?}"),
                };
                opens.push(StreamOpen {
                    stream,
                    name: st.name.clone(),
                    first,
                });
            }
            self.phase = ClientPhase::AwaitServerFirst;
            return Some(Framed::new(
                CONTROL_STREAM,
                MuxMsg::Ctrl(CtrlMsg::BatchHello {
                    discover: self.discover,
                    opens,
                }),
            ));
        }
        self.gather();
        if !self.pending_cancels.is_empty() {
            let streams = std::mem::take(&mut self.pending_cancels);
            return Some(Framed::new(
                CONTROL_STREAM,
                MuxMsg::Ctrl(CtrlMsg::Cancel { streams }),
            ));
        }
        if !self.pending_dones.is_empty() {
            let streams = std::mem::take(&mut self.pending_dones);
            return Some(Framed::new(
                CONTROL_STREAM,
                MuxMsg::Ctrl(CtrlMsg::BatchDone { streams }),
            ));
        }
        self.outbox.pop_front()
    }

    fn on_receive(&mut self, framed: Framed<MuxMsg>) -> Result<()> {
        match framed.msg {
            MuxMsg::Ctrl(CtrlMsg::BatchServerFirst { answers, offers }) => {
                if self.phase != ClientPhase::AwaitServerFirst {
                    return Err(Error::UnexpectedMessage {
                        protocol: "mux",
                        message: "BatchServerFirst out of order".into(),
                    });
                }
                for ans in answers {
                    let st = self
                        .streams
                        .get_mut(&ans.stream)
                        .ok_or_else(|| Self::unknown_stream(ans.stream))?;
                    if ans.missing {
                        st.missing = true;
                    } else {
                        st.client.on_receive(SessionMsg::ServerFirst {
                            first: ans.first,
                            client_known: ans.client_known,
                            client_equal: ans.client_equal,
                        })?;
                    }
                    self.ready.push_back(ans.stream);
                }
                for offer in offers {
                    let mut client = PullClient::new(Srv::new());
                    // The server answered the implicit empty Hello; pump
                    // and discard ours to keep the state machines aligned.
                    match client.poll_send() {
                        Some(SessionMsg::Hello { first: None }) => {}
                        other => unreachable!("empty client greets with None, got {other:?}"),
                    }
                    client.on_receive(SessionMsg::ServerFirst {
                        first: offer.first,
                        client_known: true,
                        client_equal: offer.client_equal,
                    })?;
                    if self.streams.contains_key(&offer.stream) {
                        return Err(Error::UnexpectedMessage {
                            protocol: "mux",
                            message: format!("offer reuses stream {}", offer.stream),
                        });
                    }
                    self.streams.insert(
                        offer.stream,
                        ClientStream {
                            name: offer.name,
                            discovered: true,
                            missing: false,
                            aborted: false,
                            finished: false,
                            client,
                        },
                    );
                    self.order.push(offer.stream);
                    self.unfinished += 1;
                    self.ready.push_back(offer.stream);
                }
                self.phase = ClientPhase::Running;
                Ok(())
            }
            MuxMsg::Session(msg) => {
                let st = self
                    .streams
                    .get_mut(&framed.stream)
                    .ok_or_else(|| Self::unknown_stream(framed.stream))?;
                if st.aborted {
                    // A frame already in flight when the stream aborted;
                    // drop it rather than poisoning the contact.
                    return Ok(());
                }
                match st.client.on_receive(msg) {
                    Ok(()) => {
                        self.ready.push_back(framed.stream);
                        Ok(())
                    }
                    Err(e) => {
                        // A per-stream protocol error kills that session
                        // only: cancel it, keep its siblings, re-pull the
                        // object on the next contact.
                        self.abort_stream(framed.stream, reason_label(&e), true);
                        Ok(())
                    }
                }
            }
            MuxMsg::Ctrl(CtrlMsg::Cancel { streams }) => {
                // The server tore these streams down (its half errored);
                // mirror the abort locally without echoing a Cancel back.
                for stream in streams {
                    if !self.streams.contains_key(&stream) {
                        return Err(Self::unknown_stream(stream));
                    }
                    self.abort_stream(stream, "peer_cancelled", false);
                }
                Ok(())
            }
            MuxMsg::Ctrl(other) => Err(Error::UnexpectedMessage {
                protocol: "mux",
                message: format!("{other:?} at client"),
            }),
        }
    }

    fn is_done(&self) -> bool {
        self.phase == ClientPhase::Running
            && self.pending_dones.is_empty()
            && self.pending_cancels.is_empty()
            && self.outbox.is_empty()
            && self.ready.is_empty()
            && self.unfinished == 0
    }
}

/// The serving side of a batched, multiplexed contact: one
/// [`PullServer`] per opened stream behind a single control stream.
#[derive(Debug)]
pub struct BatchPullServer {
    objects: BTreeMap<Bytes, (Srv, Bytes)>,
    streams: BTreeMap<u64, PullServer>,
    /// Streams with possible pending output: every received frame
    /// enqueues its stream, `poll_send` drains the queue — O(frames)
    /// per contact, never a scan over idle streams. Entries may be
    /// stale (dropped or drained streams); poll_send skips them.
    ready: VecDeque<u64>,
    /// Streams whose session has completed, counted out of `unfinished`
    /// exactly once by [`settle`](Self::settle).
    done_streams: std::collections::BTreeSet<u64>,
    /// Live streams not yet session-done, so `is_done` is O(1).
    unfinished: usize,
    seen_hello: bool,
    /// The contact completed ([`serve_frame`] answered the client's FIN).
    closed: bool,
    cancelled: std::collections::BTreeSet<u64>,
    outbox: VecDeque<Framed<MuxMsg>>,
}

impl BatchPullServer {
    /// Creates a server holding the named objects (vector plus serialized
    /// payload each).
    pub fn new<I>(objects: I) -> Self
    where
        I: IntoIterator<Item = (Bytes, Srv, Bytes)>,
    {
        BatchPullServer {
            objects: objects
                .into_iter()
                .map(|(name, vector, payload)| (name, (vector, payload)))
                .collect(),
            streams: BTreeMap::new(),
            ready: VecDeque::new(),
            done_streams: std::collections::BTreeSet::new(),
            unfinished: 0,
            seen_hello: false,
            closed: false,
            cancelled: std::collections::BTreeSet::new(),
            outbox: VecDeque::new(),
        }
    }

    /// How many objects this server holds, opened or not.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Tears one stream down after a cancel or a local error: the
    /// per-stream server is dropped, late frames for the stream are
    /// tolerated, siblings stay sound.
    fn drop_stream(&mut self, stream: u64) {
        if self.streams.remove(&stream).is_some() && !self.done_streams.remove(&stream) {
            self.unfinished -= 1;
        }
        self.cancelled.insert(stream);
    }

    /// Counts `stream` out of `unfinished` the first time its session
    /// completes. Called after every event that can finish a stream.
    fn settle(&mut self, stream: u64) {
        if let Some(server) = self.streams.get(&stream) {
            if server.is_done() && self.done_streams.insert(stream) {
                self.unfinished -= 1;
            }
        }
    }

    /// Opens a per-stream server, feeds it the (possibly implicit) Hello
    /// and pumps out its `ServerFirst` fields.
    fn open_stream(
        &mut self,
        stream: u64,
        vector: Srv,
        payload: Bytes,
        hello_first: Option<(SiteId, u64)>,
    ) -> Result<ServerFirstFields> {
        let mut server = PullServer::new(vector, payload);
        server.on_receive(SessionMsg::Hello { first: hello_first })?;
        let (first, client_known, client_equal) = match server.poll_send() {
            Some(SessionMsg::ServerFirst {
                first,
                client_known,
                client_equal,
            }) => (first, client_known, client_equal),
            other => unreachable!("server answers Hello with ServerFirst, got {other:?}"),
        };
        self.streams.insert(stream, server);
        self.unfinished += 1;
        self.ready.push_back(stream);
        self.settle(stream);
        Ok((first, client_known, client_equal))
    }
}

impl Endpoint for BatchPullServer {
    type Msg = Framed<MuxMsg>;

    fn poll_send(&mut self) -> Option<Framed<MuxMsg>> {
        if let Some(f) = self.outbox.pop_front() {
            return Some(f);
        }
        // One message per ready stream per call keeps concurrent streams
        // interleaved on the wire; a stream that yields goes back on the
        // queue until it drains.
        while let Some(stream) = self.ready.pop_front() {
            let Some(server) = self.streams.get_mut(&stream) else {
                continue; // dropped after a cancel; stale queue entry
            };
            if let Some(msg) = server.poll_send() {
                self.ready.push_back(stream);
                self.settle(stream);
                return Some(Framed::new(stream, MuxMsg::Session(msg)));
            }
            self.settle(stream);
        }
        None
    }

    fn on_receive(&mut self, framed: Framed<MuxMsg>) -> Result<()> {
        match framed.msg {
            MuxMsg::Ctrl(CtrlMsg::BatchHello { discover, opens }) => {
                if self.seen_hello {
                    return Err(Error::UnexpectedMessage {
                        protocol: "mux",
                        message: "BatchHello after connection start".into(),
                    });
                }
                self.seen_hello = true;
                // The client chooses stream ids, so they are untrusted
                // input: the control stream is reserved, duplicates would
                // make two sessions share one state machine, and an id at
                // u64::MAX would wrap offer allocation back onto client
                // streams. (A client retrying after an aborted contact
                // builds a fresh connection, but a *buggy* or hostile one
                // may replay ids — reject, don't collide.)
                let mut highest: u64 = 0;
                let mut seen = std::collections::BTreeSet::new();
                for open in &opens {
                    if open.stream == CONTROL_STREAM {
                        return Err(Error::UnexpectedMessage {
                            protocol: "mux",
                            message: "open names the control stream".into(),
                        });
                    }
                    if !seen.insert(open.stream) {
                        return Err(Error::UnexpectedMessage {
                            protocol: "mux",
                            message: format!("open reuses stream {}", open.stream),
                        });
                    }
                    highest = highest.max(open.stream);
                }
                let mut next_stream =
                    highest
                        .checked_add(1)
                        .ok_or_else(|| Error::UnexpectedMessage {
                            protocol: "mux",
                            message: "stream id space exhausted".into(),
                        })?;
                let mut answers = Vec::with_capacity(opens.len());
                for open in opens {
                    match self.objects.remove(&open.name) {
                        Some((vector, payload)) => {
                            let (first, client_known, client_equal) =
                                self.open_stream(open.stream, vector, payload, open.first)?;
                            answers.push(StreamAnswer {
                                stream: open.stream,
                                missing: false,
                                first,
                                client_known,
                                client_equal,
                            });
                        }
                        None => answers.push(StreamAnswer {
                            stream: open.stream,
                            missing: true,
                            first: None,
                            client_known: false,
                            client_equal: false,
                        }),
                    }
                }
                let mut offers = Vec::new();
                if discover {
                    for (name, (vector, payload)) in std::mem::take(&mut self.objects) {
                        let stream = next_stream;
                        next_stream =
                            next_stream
                                .checked_add(1)
                                .ok_or_else(|| Error::UnexpectedMessage {
                                    protocol: "mux",
                                    message: "stream id space exhausted".into(),
                                })?;
                        let (first, _known, client_equal) =
                            self.open_stream(stream, vector, payload, None)?;
                        offers.push(StreamOffer {
                            stream,
                            name,
                            first,
                            client_equal,
                        });
                    }
                }
                self.outbox.push_back(Framed::new(
                    CONTROL_STREAM,
                    MuxMsg::Ctrl(CtrlMsg::BatchServerFirst { answers, offers }),
                ));
                Ok(())
            }
            MuxMsg::Ctrl(CtrlMsg::BatchDone { streams }) => {
                for stream in streams {
                    let Some(server) = self.streams.get_mut(&stream) else {
                        if self.cancelled.contains(&stream) {
                            // A Done already in flight when the stream was
                            // cancelled.
                            continue;
                        }
                        return Err(BatchPullClient::unknown_stream(stream));
                    };
                    server.on_receive(SessionMsg::Done)?;
                    self.ready.push_back(stream);
                    self.settle(stream);
                }
                Ok(())
            }
            MuxMsg::Ctrl(CtrlMsg::Cancel { streams }) => {
                for stream in streams {
                    if !self.streams.contains_key(&stream) && !self.cancelled.contains(&stream) {
                        return Err(BatchPullClient::unknown_stream(stream));
                    }
                    self.drop_stream(stream);
                }
                Ok(())
            }
            MuxMsg::Session(msg) => {
                let Some(server) = self.streams.get_mut(&framed.stream) else {
                    if self.cancelled.contains(&framed.stream) {
                        // Late frame for a cancelled stream; drop it.
                        return Ok(());
                    }
                    return Err(BatchPullClient::unknown_stream(framed.stream));
                };
                match server.on_receive(msg) {
                    Ok(()) => {
                        self.ready.push_back(framed.stream);
                        self.settle(framed.stream);
                        Ok(())
                    }
                    Err(_) => {
                        // A per-stream error tears down this session only;
                        // the client mirrors the abort on our Cancel and
                        // re-pulls the object next contact.
                        self.drop_stream(framed.stream);
                        self.outbox.push_back(Framed::new(
                            CONTROL_STREAM,
                            MuxMsg::Ctrl(CtrlMsg::Cancel {
                                streams: vec![framed.stream],
                            }),
                        ));
                        Ok(())
                    }
                }
            }
            MuxMsg::Ctrl(other) => Err(Error::UnexpectedMessage {
                protocol: "mux",
                message: format!("{other:?} at server"),
            }),
        }
    }

    fn is_done(&self) -> bool {
        self.seen_hello && self.outbox.is_empty() && self.unfinished == 0
    }
}

/// Byte and latency accounting for one batched contact, attributed per
/// the paper's cost model: comparison/`SYNCS` metadata, state-transfer
/// payload, and connection framing (headers, stream ids, object names).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContactReport {
    /// Blocking dependency depth of the contact under §3.1 pipelining:
    /// one for the batched comparison exchange (`BatchHello` →
    /// `BatchServerFirst`), plus one more iff any stream went on to
    /// request a state transfer — the streams progress concurrently, so
    /// their `PayloadRequest`s overlap into a single extra round trip.
    /// Fire-and-forget frames (`BatchDone`, `SKIP`, speculative `SYNCS`
    /// elements) add none. A planned pull's digest/plan turn blocks too
    /// but is **not** counted here: the field has priced the object
    /// exchange alone since the planner landed, and counting the turn
    /// is a behaviour change for its own issue.
    pub round_trips: u64,
    /// Comparison bytes: the per-stream first elements, verdict flags and
    /// coalesced `Done`s carried by the control stream (Algorithm 1's
    /// O(1)-per-object exchange).
    pub compare_bytes: u64,
    /// `SYNCS` metadata bytes on the per-object streams (both directions).
    pub meta_bytes: u64,
    /// Connection framing overhead: frame headers, stream ids, names.
    pub framing_bytes: u64,
    /// State-transfer payload bytes.
    pub payload_bytes: u64,
    /// Every byte on the wire (`compare + meta + framing + payload`).
    pub total_bytes: u64,
    /// Number of frames exchanged.
    pub frames: u64,
    /// Shards the planner phase considered (zero on an unplanned
    /// contact). Planner-phase traffic travels before the batched
    /// exchange and is accounted separately in
    /// [`digest_bytes`](Self::digest_bytes) — it is **not** part of the
    /// four byte planes, `total_bytes`, or `frames`, so per-contact
    /// byte conservation over the object exchange is unchanged.
    pub shards_total: u64,
    /// Shards skipped outright: digests matched, zero object rounds.
    pub shards_skipped: u64,
    /// Shards synced incrementally (rotating-vector streams).
    pub shards_incremental: u64,
    /// Shards transferred as whole-shard snapshots.
    pub shards_snapshot: u64,
    /// Incremental shards narrowed to their dirty children: the plan
    /// offered their child digests and the puller answered with a
    /// [`ShardScope`]. Zero when the plan refined nothing or the puller
    /// walked the shards whole.
    pub shards_refined: u64,
    /// Incremental shards whose scope the server proposed from its
    /// change journal ([`Proposal`](crate::planner::Proposal)) and the
    /// puller answered with a [`ShardScope`]. Zero on a connection's
    /// first contact, and when the puller walked the shards whole.
    pub shards_proposed: u64,
    /// Of those, the shards whose residual the puller could not match:
    /// refused in the scope frame and walked whole in this same contact.
    pub shards_refused: u64,
    /// Bytes of the planner exchange (the opening frame — the digest
    /// vector, or its delta against the last one the connection
    /// carried — + plan frame, snapshot blobs, child digests and
    /// proposals included, + the scope frame; turn markers excluded) —
    /// the fifth plane, priced by [`Puller`].
    /// The planner frames emit no `FrameTx` event: the obs contact
    /// scope opens with the object exchange, and widening it is a
    /// behaviour change for its own issue.
    pub digest_bytes: u64,
    /// Shard digests the opening frame actually shipped:
    /// [`shards_total`](Self::shards_total) for a full vector, the
    /// shards that changed since the connection's last contact for a
    /// delta — zero when a converged puller asks again.
    pub digests_sent: u64,
}

/// One frame's bytes, split by the paper's cost taxonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameBytes {
    /// Comparison bytes (first elements, verdict flags, coalesced `Done`s).
    pub compare: u64,
    /// `SYNCS` metadata bytes.
    pub meta: u64,
    /// Framing overhead bytes (headers, stream ids, names).
    pub framing: u64,
    /// State-transfer payload bytes.
    pub payload: u64,
}

impl FrameBytes {
    /// Every byte of the frame.
    pub fn total(&self) -> u64 {
        self.compare + self.meta + self.framing + self.payload
    }
}

/// Classifies one frame's encoded bytes into the cost taxonomy of
/// [`ContactReport`]: comparison, metadata, framing, payload.
pub fn classify(framed: &Framed<MuxMsg>) -> FrameBytes {
    let total = framed.encoded_len() as u64;
    let mut bytes = FrameBytes::default();
    match &framed.msg {
        MuxMsg::Ctrl(CtrlMsg::BatchHello { opens, .. }) => {
            bytes.compare = opens
                .iter()
                .map(|o| opt_elem_len(&o.first) as u64)
                .sum::<u64>();
        }
        MuxMsg::Ctrl(CtrlMsg::BatchServerFirst { answers, offers }) => {
            bytes.compare = answers
                .iter()
                .map(|a| opt_elem_len(&a.first) as u64 + 1)
                .sum::<u64>()
                + offers
                    .iter()
                    .map(|o| opt_elem_len(&o.first) as u64 + 1)
                    .sum::<u64>();
        }
        MuxMsg::Ctrl(CtrlMsg::BatchDone { streams })
        | MuxMsg::Ctrl(CtrlMsg::Cancel { streams }) => {
            bytes.compare = streams.len() as u64;
        }
        MuxMsg::Session(SessionMsg::Payload { data }) => {
            bytes.payload = data.len() as u64;
        }
        MuxMsg::Session(inner) => {
            bytes.meta = inner.encoded_len() as u64;
        }
    }
    bytes.framing = total - bytes.compare - bytes.meta - bytes.payload;
    bytes
}

impl ContactReport {
    /// Adds one frame to the four byte planes; returns its split.
    fn account(&mut self, framed: &Framed<MuxMsg>) -> FrameBytes {
        let bytes = classify(framed);
        self.total_bytes += bytes.total();
        self.frames += 1;
        self.compare_bytes += bytes.compare;
        self.meta_bytes += bytes.meta;
        self.framing_bytes += bytes.framing;
        self.payload_bytes += bytes.payload;
        bytes
    }

    /// The contact's wire costs as one absorbed counter delta
    /// (connection-level: `sessions == 0`).
    pub fn totals(&self) -> SessionTotals {
        SessionTotals {
            compare_bytes: self.compare_bytes,
            meta_bytes: self.meta_bytes,
            framing_bytes: self.framing_bytes,
            payload_bytes: self.payload_bytes,
            ..SessionTotals::default()
        }
    }
}

/// Maps an error to the stable snake_case abort-reason vocabulary of
/// [`obs::SyncEvent::SessionAborted`].
pub fn reason_label(e: &Error) -> &'static str {
    match e {
        Error::ConnectionLost { .. } => "connection_lost",
        Error::PeerFailed { .. } => "peer_failed",
        Error::Incomplete { .. } => "stalled",
        Error::Wire(_) => "decode_error",
        _ => "protocol_error",
    }
}

/// Stream identifier reserved for link-layer turn markers. Never a
/// protocol stream: markers are consumed by the two step machines
/// ([`Puller`], [`serve_frame`]) and are not accounted in the
/// [`ContactReport`] (they are transport overhead, like TCP headers —
/// [`optrep_net::TcpLink`]'s own byte counters see them).
pub const TURN_STREAM: u64 = u64::MAX;

/// Appends a turn marker (`[]` = your turn, `[1]` = FIN: no more frames
/// from this side, drain and close).
pub(crate) fn put_marker(out: &mut BytesMut, fin: bool) {
    wire::put_frame(out, TURN_STREAM, if fin { &[1] } else { &[] });
}

/// Reads a [`TURN_STREAM`] marker: `true` for FIN, `false` for a turn.
/// Any other payload is not a marker either side ever writes.
pub(crate) fn marker_fin(frame: &wire::Frame) -> Result<bool> {
    match &frame.payload[..] {
        [] => Ok(false),
        [1] => Ok(true),
        _ => Err(Error::Wire(WireError::InvalidPayload)),
    }
}

/// Decodes a received frame's payload as exactly one mux message.
fn decode_frame_msg(frame: wire::Frame) -> Result<Framed<MuxMsg>> {
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
const STALLED: Error = Error::Incomplete {
    protocol: "mux contact",
};

/// A violation of the planning turn's frame discipline, either side.
fn planning_violation(message: String) -> Error {
    Error::UnexpectedMessage {
        protocol: "sync planner",
        message,
    }
}

/// Where a [`Puller`] is in its contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PullPhase {
    /// A planned contact's first state: the digest vector is out; one
    /// [`ShardPlan`] frame at its shard count, then the server's turn
    /// marker, is due back.
    Planning { shards: u64 },
    /// The plan is in; [`Puller::exchange`] starts the exchange.
    Planned,
    /// Trading bursts for single answers, turn by turn.
    Exchanging,
    /// The client completed and FIN'd; absorbing the server's tail.
    Draining,
    /// The report was handed out; nothing more is accepted.
    Finished,
}

/// The pulling half of a contact as a push-style step machine — the
/// counterpart of [`Serving`], and the only place a contact is priced.
///
/// A *planned* contact ([`open_planned`](Self::open_planned)) starts
/// one turn earlier: the puller sends its [`DigestVector`], the server
/// answers one [`ShardPlan`] ([`take_plan`](Self::take_plan)), and the
/// caller continues with a client restricted to the plan's incremental
/// shards ([`exchange`](Self::exchange)) — or, where the plan offered
/// child digests or proposed scopes and the caller checked them against
/// its store, to the children that differ and the candidates of the
/// proposals it accepts, named to the server by a [`ShardScope`] frame
/// that leads the opening burst.
///
/// The exchange is half-duplex lockstep: the client flushes a whole
/// burst and passes the turn with a [`TURN_STREAM`] marker; the server
/// answers *one* frame and passes the turn back, so `Done`
/// cancellations land before speculative elements flood the wire and
/// per-object `Δ`/`Γ`/`γ` stay identical to the single-object path.
/// When the client completes it sends a FIN marker and absorbs the
/// server's remaining frames until the server's FIN.
///
/// The machine does no I/O. The `open*` constructors,
/// [`exchange`](Self::exchange) and [`on_frame`](Self::on_frame) append
/// what the puller has to say to a byte buffer — a burst always ends in
/// its marker, so flushing the buffer in one write keeps a burst one
/// syscall — and every frame of the exchange, in either direction,
/// passes through [`tally`](Self::tally). The serving side emits
/// nothing, so the puller's trace alone satisfies per-contact byte
/// conservation (`tables --check-jsonl`).
#[derive(Debug)]
pub struct Puller<'a> {
    /// `None` while a planned contact plans.
    client: Option<&'a mut BatchPullClient>,
    /// The server's plan, until [`take_plan`](Self::take_plan).
    plan: Option<ShardPlan>,
    /// Shards whose children the plan offered, and shards whose scope
    /// it proposed.
    offered: (u64, u64),
    /// Nothing was remembered of this link when the contact opened: it
    /// is the link's first, so its server has nothing to propose from.
    first_on_link: bool,
    contact: u64,
    report: ContactReport,
    /// Round trips are the blocking dependency depth, not the burst
    /// count: the streams run concurrently, so however the lockstep
    /// trickles their `PayloadRequest`s out, they all overlap into one
    /// extra exchange after the batched comparison.
    payload_requested: bool,
    /// A frame moved, in either direction, since the last burst began.
    moved: bool,
    phase: PullPhase,
}

impl<'a> Puller<'a> {
    fn in_phase(phase: PullPhase) -> Self {
        Puller {
            client: None,
            plan: None,
            offered: (0, 0),
            first_on_link: false,
            contact: 0,
            report: ContactReport::default(),
            payload_requested: false,
            moved: false,
            phase,
        }
    }

    /// Starts an unplanned contact: writes the opening burst
    /// (`BatchHello` plus its marker) to `out`. `contact` is the obs
    /// contact id stamped on every frame event (0 when nothing listens).
    pub fn open(client: &'a mut BatchPullClient, contact: u64, out: &mut BytesMut) -> Self {
        let mut puller = Self::in_phase(PullPhase::Planned);
        puller.exchange(client, None, contact, out);
        puller
    }

    /// Starts a planned contact: writes the opening frame — `digests`
    /// in full, or as a delta against the vector `remembered` from the
    /// connection's last completed contact, whichever is shorter — plus
    /// a turn marker to `out` as one burst and waits for the plan. The
    /// caller owns the memory's discipline ([`pull_planned`] does it):
    /// nothing may be remembered across a contact that did not
    /// complete.
    pub fn open_planned(
        digests: &DigestVector,
        remembered: &VectorMemory,
        out: &mut BytesMut,
    ) -> Self {
        let mut puller = Self::in_phase(PullPhase::Planning {
            shards: digests.shards.len() as u64,
        });
        puller.first_on_link = remembered.is_empty();
        let (frame, sent) = remembered.opening_frame(digests);
        puller.report.digest_bytes = frame.len() as u64;
        puller.report.digests_sent = sent;
        out.extend_from_slice(&frame);
        put_marker(out, false);
        puller
    }

    /// The server's plan, handed out once, when the planning turn has
    /// completed.
    pub fn take_plan(&mut self) -> Option<ShardPlan> {
        self.plan.take_if(|_| self.phase == PullPhase::Planned)
    }

    /// Begins the object exchange of a planned contact with the
    /// restricted `client`: writes `scope` (if the caller narrowed the
    /// plan's refined shards to it — `client` must be cut the same
    /// way), `BatchHello` and its marker to `out` as one burst. The
    /// scope frame is planner traffic: priced into
    /// [`ContactReport::digest_bytes`], not into the four planes.
    /// `contact` as for [`open`](Self::open).
    ///
    /// # Panics
    ///
    /// Panics unless the planning turn has just completed, or if a
    /// scope answers a plan that offered nothing to narrow.
    pub fn exchange(
        &mut self,
        client: &'a mut BatchPullClient,
        scope: Option<&ShardScope>,
        contact: u64,
        out: &mut BytesMut,
    ) {
        assert_eq!(self.phase, PullPhase::Planned, "no plan to exchange under");
        if let Some(scope) = scope {
            let (refined, proposed) = self.offered;
            assert!(
                refined + proposed > 0,
                "a scope for a plan that offered nothing"
            );
            let frame = scope_frame(scope);
            self.report.digest_bytes += frame.len() as u64;
            self.report.shards_refined = refined;
            self.report.shards_proposed = proposed;
            self.report.shards_refused = scope.refused.as_ref().map_or(0, |r| r.len() as u64);
            out.extend_from_slice(&frame);
        }
        self.client = Some(client);
        self.contact = contact;
        self.phase = PullPhase::Exchanging;
        self.burst(out);
    }

    fn client(&mut self) -> &mut BatchPullClient {
        self.client.as_deref_mut().expect("the exchange has begun")
    }

    /// Prices one frame: byte planes, the frame event, and the §3.1
    /// round-trip rule — one trip for the batched comparison, one more
    /// iff any stream asks for a state transfer.
    fn tally(&mut self, framed: &Framed<MuxMsg>, from_client: bool) {
        let bytes = self.report.account(framed);
        obs_emit!(obs::SyncEvent::FrameTx {
            contact: self.contact,
            stream: framed.stream,
            client: from_client,
            compare: bytes.compare,
            meta: bytes.meta,
            framing: bytes.framing,
            payload: bytes.payload,
        });
        match framed.msg {
            MuxMsg::Ctrl(CtrlMsg::BatchHello { .. }) => self.report.round_trips += 1,
            MuxMsg::Session(SessionMsg::PayloadRequest) => self.payload_requested = true,
            _ => {}
        }
    }

    /// Drains everything the client has to say into `out` and appends
    /// the marker: FIN once the client is done, a turn otherwise.
    fn burst(&mut self, out: &mut BytesMut) {
        self.moved = false;
        while let Some(framed) = self.client().poll_send() {
            self.tally(&framed, true);
            framed.encode(out);
            self.moved = true;
        }
        let fin = self.client().is_done();
        if fin {
            // Completion is permanent: late frames for finished streams
            // are tolerated, never answered.
            self.phase = PullPhase::Draining;
        }
        put_marker(out, fin);
    }

    /// The planning state's step: prices and keeps the one plan frame,
    /// and leaves the state on the server's turn marker.
    fn on_planning_frame(&mut self, frame: wire::Frame, shards: u64) -> Result<()> {
        if frame.stream == TURN_STREAM {
            if marker_fin(&frame)? || self.plan.is_none() {
                // The server FIN'd, or passed the turn empty-handed.
                return Err(Error::Incomplete {
                    protocol: "sync planner",
                });
            }
            self.phase = PullPhase::Planned;
            return Ok(());
        }
        if self.plan.is_some() || frame.stream != CONTROL_STREAM {
            return Err(planning_violation(format!(
                "unexpected frame on stream {}",
                frame.stream
            )));
        }
        self.report.digest_bytes +=
            wire::Frame::encoded_len(frame.stream, frame.payload.len()) as u64;
        let mut payload = frame.payload;
        let plan = ShardPlan::decode(&mut payload)?;
        if plan.count != shards {
            // Both restricted endpoints are cut at the plan's count:
            // any other than the digests' is a different shard map.
            return Err(planning_violation(format!(
                "plan at {} shards answers {shards} digests",
                plan.count
            )));
        }
        self.report.shards_total = plan.count;
        self.report.shards_skipped = plan.skipped();
        self.report.shards_incremental = plan.incremental.len() as u64;
        self.report.shards_snapshot = plan.snapshots.len() as u64;
        if self.first_on_link && !plan.proposed.is_empty() {
            // A server proposes from what it remembers of the link's
            // last contact; this link had none.
            return Err(planning_violation(
                "a proposal on a link with no previous contact".into(),
            ));
        }
        let refined = plan.children.as_ref().map_or(0, |c| c.parents.len());
        self.offered = (refined as u64, plan.proposed.len() as u64);
        self.plan = Some(plan);
        Ok(())
    }

    /// Advances the contact by one received frame, appending the next
    /// burst to `out` when the frame hands the turn back. Yields the
    /// report on the server's FIN.
    ///
    /// # Errors
    ///
    /// Decode errors and protocol violations — in the planning state
    /// anything but one plan frame (at the digest vector's shard count,
    /// on the control stream) followed by a turn marker;
    /// [`Error::Incomplete`] if a whole exchange moved no frame in
    /// either direction, or the server FINs while the client still
    /// expects traffic. Any error poisons the connection.
    pub fn on_frame(
        &mut self,
        frame: wire::Frame,
        out: &mut BytesMut,
    ) -> Result<Option<ContactReport>> {
        match self.phase {
            PullPhase::Planning { shards } => {
                return self.on_planning_frame(frame, shards).map(|()| None)
            }
            PullPhase::Planned | PullPhase::Finished => {
                return Err(Error::UnexpectedMessage {
                    protocol: "mux",
                    message: "frame outside the exchange".into(),
                });
            }
            PullPhase::Exchanging | PullPhase::Draining => {}
        }
        if frame.stream != TURN_STREAM {
            let framed = decode_frame_msg(frame)?;
            self.tally(&framed, false);
            self.moved = true;
            self.client().on_receive(framed)?;
            return Ok(None);
        }
        match (self.phase, marker_fin(&frame)?) {
            (PullPhase::Draining, true) => {
                self.phase = PullPhase::Finished;
                self.report.round_trips += u64::from(self.payload_requested);
                Ok(Some(self.report))
            }
            (PullPhase::Draining, false) => Ok(None),
            (_, true) => Err(STALLED),
            (_, false) if !self.moved => Err(STALLED),
            (_, false) => {
                self.burst(out);
                Ok(None)
            }
        }
    }
}

/// One turn of the blocking pump around [`Puller`]: flushes what the
/// machine wrote, then feeds it the next frame off `link`.
fn pump<L: FrameLink>(
    puller: &mut Puller<'_>,
    link: &mut L,
    out: &mut BytesMut,
) -> Result<Option<ContactReport>> {
    if !out.is_empty() {
        link.send_bytes(out)?;
        out.clear();
    }
    puller.on_frame(link.recv_frame()?, out)
}

/// Pumps the object exchange to its report, closing `scope` with it —
/// or, on any error, FINs the link and aborts the scope.
fn pump_exchange<L: FrameLink>(
    puller: &mut Puller<'_>,
    link: &mut L,
    out: &mut BytesMut,
    scope: obs::ContactScope,
) -> Result<ContactReport> {
    let mut exchange = || loop {
        if let Some(report) = pump(puller, link, out)? {
            return Ok(report);
        }
    };
    match exchange() {
        Ok(report) => {
            scope.close(report.round_trips, report.totals());
            Ok(report)
        }
        Err(e) => {
            link.fin();
            scope.abort(reason_label(&e));
            Err(e)
        }
    }
}

/// Drives the pulling half of one unplanned contact over `link` — the
/// blocking pump around [`Puller`]; every transport is a [`FrameLink`]
/// handed to it. The far half is [`serve_contact`] / [`serve_from`], or
/// a daemon's reactor feeding [`Serving`].
///
/// The link stays open on success: both endpoints finish at a clean
/// frame boundary (each has consumed the other's FIN *marker*), so the
/// next contact can be pipelined over the same connection with no
/// dial, handshake, or teardown. A caller done with the connection
/// calls [`FrameLink::fin`] itself.
///
/// # Errors
///
/// Any transport error ([`Error::ConnectionLost`] on a cut,
/// [`Error::Incomplete`] on a timeout or a starved exchange), decode
/// error, or protocol violation aborts the contact: the link is FIN'd
/// so the peer unblocks — a failed contact poisons the connection and
/// the caller must discard it — and a
/// [`obs::SyncEvent::SessionAborted`] is emitted for the whole contact
/// (stream 0). Staged state is abandoned by the caller, leaving replica
/// metadata untouched.
pub fn pull_contact<L: FrameLink>(
    client: &mut BatchPullClient,
    link: &mut L,
) -> Result<ContactReport> {
    let scope = obs::contact_scope(client.streams.len() as u64);
    let mut out = BytesMut::new();
    let mut puller = Puller::open(client, scope.id(), &mut out);
    pump_exchange(&mut puller, link, &mut out, scope)
}

/// The pulling endpoint of a planned contact, as [`pull_planned`]'s
/// caller builds it from the plan.
#[derive(Debug)]
pub struct Restricted {
    /// The client over the keys the contact will exchange.
    pub client: BatchPullClient,
    /// The children of the plan's refined shards that differ and the
    /// proposed shards refused, when the caller checked what the plan
    /// offered and cut `client` accordingly; `None` for a client over
    /// the whole incremental shards.
    pub scope: Option<ShardScope>,
}

impl From<BatchPullClient> for Restricted {
    /// A client over the plan's incremental shards, whole.
    fn from(client: BatchPullClient) -> Self {
        Restricted {
            client,
            scope: None,
        }
    }
}

/// Drives one *planned* pull over `link`, the digest/plan turn
/// included: sends `digests` — as a delta against what `remembered`
/// holds of the link's last contact, where that is shorter — takes the
/// server's [`ShardPlan`], asks
/// `endpoint` for the client restricted to it (a daemon takes its store
/// lock in there) — a [`Restricted`] cut at the plan's child digests
/// and proposals, or a plain [`BatchPullClient`] over the incremental
/// shards — and
/// runs the object exchange exactly as [`pull_contact`] does. Returns
/// the finished client, the plan, and the report with the planner
/// fields ([`ContactReport::digest_bytes`], `digests_sent`, `shards_*`)
/// filled in — what `KvStore::apply_planned_tracked` commits.
///
/// A plan that [proposes](crate::planner::Proposal) is an error on a
/// link of which `remembered` holds nothing: the far end has planned no
/// contact of this link to propose from.
///
/// `remembered` is the pulling end's [`VectorMemory`] of **this link**
/// and must live and die with it (`optrep_net::ConnPool` keeps it
/// beside the pooled socket; a one-shot link passes a fresh one). It is
/// emptied while the contact runs and holds `digests` once the contact
/// has completed, so a delta is never encoded against a vector whose
/// contact failed.
///
/// The obs contact scope opens when the exchange begins, with the
/// restricted client's stream count; the planning turn emits nothing.
///
/// # Errors
///
/// As [`pull_contact`]; a failure during the planning turn (no plan
/// before the turn comes back, more than one frame, a FIN, a plan at
/// the wrong shard count) FINs the link the same way, before any obs
/// scope exists.
pub fn pull_planned<L: FrameLink, E: Into<Restricted>>(
    link: &mut L,
    remembered: &mut VectorMemory,
    digests: &DigestVector,
    endpoint: impl FnOnce(&ShardPlan) -> E,
) -> Result<(BatchPullClient, ShardPlan, ContactReport)> {
    // Declared ahead of the machine that borrows it for the exchange.
    let mut client;
    let mut out = BytesMut::new();
    let base = std::mem::take(remembered);
    let mut puller = Puller::open_planned(digests, &base, &mut out);
    let plan = loop {
        if let Err(e) = pump(&mut puller, link, &mut out) {
            link.fin();
            return Err(e);
        }
        if let Some(plan) = puller.take_plan() {
            break plan;
        }
    };
    let restricted = endpoint(&plan).into();
    client = restricted.client;
    let scope = obs::contact_scope(client.streams.len() as u64);
    puller.exchange(&mut client, restricted.scope.as_ref(), scope.id(), &mut out);
    let report = pump_exchange(&mut puller, link, &mut out, scope)?;
    remembered.remember(digests);
    Ok((client, plan, report))
}

/// Drives one contact to completion in-process (zero-latency regime):
/// [`pull_contact`] over an [`InProcessLink`] to `server`.
///
/// # Errors
///
/// As [`pull_contact`].
pub fn run_contact(
    client: &mut BatchPullClient,
    server: &mut BatchPullServer,
) -> Result<ContactReport> {
    pull_contact(client, &mut InProcessLink::new(server))
}

/// The blocking pump around a serving step (`serve_frame` on one
/// endpoint, or a [`Serving`] with its source): one frame in, whatever
/// the step wrote out as one write, until the contact is done. On any
/// error the link is FIN'd so the peer unblocks.
fn serve_steps<L: FrameLink>(
    link: &mut L,
    mut step: impl FnMut(wire::Frame, &mut BytesMut) -> Result<ServeStep>,
) -> Result<()> {
    let mut out = BytesMut::new();
    let mut serve = || loop {
        let frame = link.recv_frame()?;
        out.clear();
        let step = step(frame, &mut out)?;
        if !out.is_empty() {
            link.send_bytes(&out)?;
        }
        if step == ServeStep::Done {
            return Ok(());
        }
    };
    serve().inspect_err(|_| link.fin())
}

/// Serves the far half of one [`pull_contact`] from a fixed endpoint:
/// a thin blocking pump around [`serve_frame`], which holds the actual
/// turn discipline. The link stays open on success, so a persistent
/// connection serves the next contact with a fresh [`BatchPullServer`].
///
/// The serving side opens **no** obs contact scope and emits no frame
/// events — the puller accounts both directions. A serving daemon's own
/// trace still carries the per-session element/skip events its
/// `PullServer`s emit.
///
/// # Errors
///
/// Transport and decode errors as [`pull_contact`];
/// [`Error::Incomplete`] if the client FINs while streams are still
/// open. On any error the link is FIN'd so the peer unblocks.
pub fn serve_contact<L: FrameLink>(server: &mut BatchPullServer, link: &mut L) -> Result<()> {
    serve_steps(link, |frame, out| serve_frame(server, frame, out))
}

/// Serves the far half of one contact — planned ([`pull_planned`]) or
/// not ([`pull_contact`]), the puller's first frame decides — with the
/// plan and the endpoint taken from `source` as [`Serving`] comes to
/// need them: the same pump as [`serve_contact`] around `serving`, the
/// connection's [`Serving`].
/// Pass the same one for every contact of a link (it remembers the
/// puller's last digest vector for the next), a fresh one for a
/// one-shot link.
///
/// # Errors
///
/// As [`serve_contact`], plus the planning turn's violations (see
/// [`Serving::on_frame`]).
pub fn serve_from<L: FrameLink>(
    serving: &mut Serving,
    source: &mut ContactSource<'_>,
    link: &mut L,
) -> Result<()> {
    serve_steps(link, |frame, out| serving.on_frame(frame, source, out))
}

/// What a [`serve_frame`] call concluded about the contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStep {
    /// Mid-contact: keep feeding frames (and flush whatever was queued
    /// in `out` — a turn answer, or nothing for an absorbed burst frame).
    Continue,
    /// The contact completed cleanly: `out` ends with the server's FIN
    /// marker. A persistent connection serves the next contact with a
    /// fresh [`BatchPullServer`]; a one-shot connection closes.
    Done,
}

/// Advances the serving half of a contact by one received frame,
/// appending any response bytes to `out`.
///
/// This is the server's turn discipline as a push-style step, so the
/// blocking pump ([`serve_contact`]), the in-process link and the
/// daemon's readiness-driven event loop share one state machine: absorb
/// burst frames silently; on a turn marker answer exactly *one* frame
/// plus a turn marker; on the client's FIN marker drain the whole
/// outbox, confirm completion, and append the server's FIN marker.
///
/// # Errors
///
/// Decode errors and protocol violations; [`Error::Incomplete`] if the
/// client passes the turn before opening, or FINs while streams are
/// still open; a protocol error for any frame after the contact ended.
/// The caller must treat any error as poisoning the connection.
pub fn serve_frame(
    server: &mut BatchPullServer,
    frame: wire::Frame,
    out: &mut BytesMut,
) -> Result<ServeStep> {
    if server.closed {
        return Err(Error::UnexpectedMessage {
            protocol: "mux",
            message: "frame after the contact ended".into(),
        });
    }
    if frame.stream != TURN_STREAM {
        server.on_receive(decode_frame_msg(frame)?)?;
        return Ok(ServeStep::Continue);
    }
    let fin = marker_fin(&frame)?;
    if !server.seen_hello {
        // Nothing was opened, so there is nothing to answer and no
        // honest puller passes the turn: starved before it began.
        return Err(STALLED);
    }
    if fin {
        while let Some(framed) = server.poll_send() {
            framed.encode(out);
        }
        if !server.is_done() {
            // The client walked away from open streams. Cut the
            // connection instead of FIN-ing clean — the puller must
            // see an aborted contact, not a completed one.
            return Err(STALLED);
        }
        server.closed = true;
        put_marker(out, true);
        return Ok(ServeStep::Done);
    }
    if let Some(framed) = server.poll_send() {
        framed.encode(out);
    }
    put_marker(out, false);
    Ok(ServeStep::Continue)
}

/// What a [`Serving`] asks its source — twice for a planned contact,
/// at the two moments the protocol has, once for an unplanned one.
#[derive(Debug, Clone, Copy)]
pub enum ContactAsk<'a> {
    /// At the digest frame: the plan for a puller holding `digests`,
    /// and the source's generation at that plan. `since` is the
    /// generation this source answered with when the connection's
    /// previous contact was planned, if there was one — only ever a
    /// value the same source handed out over the same connection, so a
    /// source that does not propose may ignore it and answer any
    /// generation. Plan and generation are one view of the store.
    Plan {
        /// The puller's digest vector.
        digests: &'a DigestVector,
        /// The source's generation at the connection's previous plan.
        since: Option<u64>,
    },
    /// At the first frame of the puller's burst: the endpoint the
    /// exchange runs against — over the keys of a planned contact's
    /// [`Cut`], over everything (`None`) for a puller that sent no
    /// digest vector. Every vector is read with its value, under one
    /// view of the store; that view may be later than the plan's.
    Endpoint(Option<Cut<'a>>),
}

/// A source's answer to a [`ContactAsk`], variant for variant.
#[derive(Debug)]
pub enum ContactAnswer {
    /// The plan, and the store's generation when it was made.
    Plan(ShardPlan, u64),
    /// The endpoint. To a [`ContactAsk::Plan`] it says the source serves
    /// unplanned contacts only.
    Endpoint(BatchPullServer),
}

/// Where a [`Serving`] gets a contact's plan and endpoint
/// (`KvStore::open_contact` is a store's answer; a daemon takes its
/// store lock once per ask, inside the closure).
///
/// The two asks of a planned contact see two views of the store, and
/// that is sound. A key written in between is either in the [`Cut`] — a
/// candidate, a key of a listed child, of a refused or of an un-offered
/// shard — and served as it stands at the second ask, vector and value
/// together; or it is not, and the next contact finds it: the
/// connection's `since` is the *plan's* generation, which the write
/// came after. What the plan proved (equal residuals, equal children)
/// it proved of entries the contact does not transfer.
pub type ContactSource<'a> = dyn FnMut(ContactAsk<'_>) -> ContactAnswer + 'a;

/// What [`Serving`] keeps of a plan between handing it out and cutting
/// the endpoint: shard indices and candidate placements, no key, vector
/// or value.
#[derive(Debug)]
struct Planned {
    count: u64,
    incremental: Vec<u64>,
    /// What the plan offered to narrow. A scope leading the puller's
    /// burst is checked against it; anything else there forfeits the
    /// offer — so a contact takes at most one scope, and only ahead of
    /// its `BatchHello`.
    offer: Option<Offer>,
}

/// The serving half of a connection, one frame at a time: the state in
/// front of [`serve_frame`] that decides, at the *first frames of each
/// contact*, which endpoint the contact runs against — the mirror of
/// [`Puller`]'s planning state.
///
/// A [`DigestVector`] opens a planned contact: the source is asked for
/// the plan, the encoded plan is parked until the puller's turn marker
/// hands the link over, and of the plan only its incremental shards and
/// its [`Offer`] are kept. The first frame of the puller's burst then
/// fixes the [`Cut`] — if the plan offered child digests or proposed
/// scopes and the burst opens with a [`ShardScope`], the children it
/// lists and the candidates of the proposals it does not refuse; the
/// incremental shards whole otherwise — and only then is the source
/// asked for the endpoint, so what is built is what will be served. Any
/// other first frame asks the source for the full endpoint and is an
/// ordinary [`serve_frame`] step.
///
/// One `Serving` serves a persistent connection's contacts back to
/// back. Between them it holds no endpoint, but it does keep the last
/// digest vector the puller sent ([`VectorMemory`], 16 B × the shard
/// count the peer chose — at most 16 MiB at
/// [`MAX_PLAN_SHARDS`](crate::planner::MAX_PLAN_SHARDS)): the next
/// contact may open with a [`DigestDelta`](crate::planner::DigestDelta)
/// against it instead of the whole vector. Beside it sits `since`, one
/// `u64`: the source's generation at that contact's plan, which the
/// source gets back when the next contact is planned and may propose
/// from. It is a hint and needs no discipline
/// — a contact abandoned after the wire, or state the puller got
/// elsewhere, only makes proposals the puller refuses. Both memories are
/// the connection's — a new connection starts with a new `Serving`.
#[derive(Debug, Default)]
pub struct Serving {
    /// The open contact's endpoint, from the first frame of the puller's
    /// burst. Boxed: a batch server carries per-stream state and would
    /// otherwise dominate every idle connection's state.
    server: Option<Box<BatchPullServer>>,
    /// A planned contact's plan frame, until the puller passes the turn.
    parked: Option<BytesMut>,
    /// A planned contact's plan, from the digest frame until the first
    /// frame of the puller's burst.
    planned: Option<Planned>,
    /// The puller's vector as of the last contact it opened here; with
    /// `since`, what outlives [`ServeStep::Done`].
    remembered: VectorMemory,
    /// The source's generation when it planned that contact.
    since: Option<u64>,
}

impl Serving {
    /// Advances the connection by one received frame, appending any
    /// response bytes to `out`. `source` is asked at most once a call:
    /// for the plan at a digest frame, for the endpoint at the first
    /// frame of the puller's burst.
    ///
    /// # Errors
    ///
    /// As [`serve_frame`]; in the planning turn, a malformed digest
    /// vector, a delta that does not patch the remembered vector to
    /// the one its check describes (or finds none remembered), a
    /// source that cannot plan, and anything but a plain turn
    /// marker (a FIN, a second frame) after the digest vector; a scope
    /// that does not answer the plan's offer (and, as an undecodable
    /// frame, any scope where none is due). The caller must treat any
    /// error as poisoning the connection.
    pub fn on_frame(
        &mut self,
        frame: wire::Frame,
        source: &mut ContactSource<'_>,
        out: &mut BytesMut,
    ) -> Result<ServeStep> {
        if let Some(reply) = self.parked.take() {
            // Anything but a clean turn hand-off aborts the planned
            // contact before it starts.
            if frame.stream != TURN_STREAM || marker_fin(&frame)? {
                return Err(planning_violation(format!(
                    "stream {} frame in the planning turn",
                    frame.stream
                )));
            }
            out.extend_from_slice(&reply);
            put_marker(out, false);
            return Ok(ServeStep::Continue);
        }
        let on_control =
            |tag: u8| frame.stream == CONTROL_STREAM && frame.payload.first() == Some(&tag);
        let server = match &mut self.server {
            Some(server) => server,
            None => match self.planned.take() {
                Some(planned) => {
                    let scope = match &planned.offer {
                        Some(offer) if on_control(TAG_SHARD_SCOPE) => {
                            Some(ShardScope::decode(&mut frame.payload.clone(), offer)?)
                        }
                        _ => None,
                    };
                    let cut = Cut {
                        count: planned.count,
                        incremental: &planned.incremental,
                        narrowed: planned.offer.as_ref().zip(scope.as_ref()),
                    };
                    let server = self.server.insert(endpoint_from(source, Some(cut))?);
                    if scope.is_some() {
                        return Ok(ServeStep::Continue);
                    }
                    server
                }
                None if on_control(TAG_SHARD_DIGESTS) || on_control(TAG_SHARD_DIGESTS_DELTA) => {
                    let mut payload = frame.payload;
                    let digests = self.remembered.receive(&mut payload)?;
                    let since = self.since.take();
                    let ContactAnswer::Plan(plan, generation) =
                        source(ContactAsk::Plan { digests, since })
                    else {
                        return Err(planning_violation(
                            "this endpoint serves unplanned contacts only".into(),
                        ));
                    };
                    self.since = Some(generation);
                    self.parked = Some(plan_frame(&plan));
                    self.planned = Some(Planned {
                        count: plan.count,
                        offer: plan.offer(),
                        incremental: plan.incremental,
                    });
                    return Ok(ServeStep::Continue);
                }
                None => self.server.insert(endpoint_from(source, None)?),
            },
        };
        let step = serve_frame(server, frame, out)?;
        if step == ServeStep::Done {
            self.server = None;
        }
        Ok(step)
    }
}

/// Asks `source` for a contact's endpoint.
fn endpoint_from(
    source: &mut ContactSource<'_>,
    cut: Option<Cut<'_>>,
) -> Result<Box<BatchPullServer>> {
    match source(ContactAsk::Endpoint(cut)) {
        ContactAnswer::Endpoint(server) => Ok(Box::new(server)),
        ContactAnswer::Plan(..) => Err(planning_violation(
            "the source answered a plan where the endpoint was due".into(),
        )),
    }
}

/// The in-process transport: a [`FrameLink`] whose far end is a serving
/// step — [`serve_frame`] on a [`BatchPullServer`], or a [`Serving`]
/// with its source — run on the caller's own thread. Every frame still
/// crosses the real codec — what the puller writes is parsed back into
/// frames, what the server writes likewise — so an in-memory contact
/// exercises the same bytes a socket carries.
///
/// It behaves like a socket whose peer cuts the connection on an error:
/// what the server wrote before failing is still readable, and the
/// failure surfaces on the read that finds the buffer dry (or on the
/// write itself when nothing is buffered). A read with nothing buffered
/// and no failure pending would block forever, so it reports a stall.
#[derive(Debug)]
pub struct InProcessLink<'a> {
    far: FarEnd<'a>,
    /// Bytes the server has written and the puller has not yet read,
    /// oldest in `inbox`.
    inbox: Bytes,
    out: BytesMut,
    cut: Option<Error>,
}

/// What steps on the far side of an [`InProcessLink`].
enum FarEnd<'a> {
    Endpoint(&'a mut BatchPullServer),
    Source(Serving, &'a mut ContactSource<'a>),
}

impl std::fmt::Debug for FarEnd<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarEnd::Endpoint(server) => server.fmt(f),
            FarEnd::Source(serving, _) => serving.fmt(f),
        }
    }
}

impl<'a> InProcessLink<'a> {
    fn to(far: FarEnd<'a>) -> Self {
        InProcessLink {
            far,
            inbox: Bytes::new(),
            out: BytesMut::new(),
            cut: None,
        }
    }

    /// A link to `server`, serving one unplanned contact.
    pub fn new(server: &'a mut BatchPullServer) -> Self {
        Self::to(FarEnd::Endpoint(server))
    }

    /// A link to a [`Serving`] fed from `source`: serves planned and
    /// unplanned contacts, any number of them.
    pub fn serving(source: &'a mut ContactSource<'a>) -> Self {
        Self::to(FarEnd::Source(Serving::default(), source))
    }
}

impl FrameLink for InProcessLink<'_> {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let mut burst = Bytes::copy_from_slice(bytes);
        while burst.has_remaining() {
            let frame = wire::get_frame(&mut burst)?;
            let step = match &mut self.far {
                FarEnd::Endpoint(server) => serve_frame(server, frame, &mut self.out),
                FarEnd::Source(serving, source) => serving.on_frame(frame, source, &mut self.out),
            };
            if let Err(e) = step {
                if self.inbox.is_empty() && self.out.is_empty() {
                    return Err(e);
                }
                self.cut = Some(e);
                break;
            }
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<wire::Frame> {
        if self.inbox.is_empty() {
            self.inbox = self.out.split().freeze();
        }
        if self.inbox.is_empty() {
            return Err(self.cut.take().unwrap_or(STALLED));
        }
        Ok(wire::get_frame(&mut self.inbox)?)
    }

    fn fin(&mut self) {}
}

/// Fault injection as a decorator: a [`FrameLink`] that offers every
/// frame crossing `inner`, in either direction, to a [`FaultyLink`],
/// which may deliver it, drop it, truncate it mid-write, or kill the
/// connection.
///
/// The mux rides a *reliable ordered* transport (§2.1); a dropped frame
/// is a sequence gap, and a real stack tears the connection down the
/// moment bytes arrive past the hole. Modelling that per direction is
/// what keeps loss from silently corrupting per-stream outcomes: SYNCS
/// ships fire-and-forget element frames, so a swallowed frame would
/// otherwise let both endpoints "complete" while disagreeing on what
/// was said. Turn markers are link overhead and bypass the fault plan,
/// so a plan's decision stream is consumed by protocol frames only.
///
/// A [`pull_contact`] over a faulted link fails with
/// [`Error::ConnectionLost`] on a hard cut or a detected gap and with
/// [`Error::Incomplete`] on a stall (silent death, or a dropped frame
/// starving both endpoints). The endpoints' *staged* state is abandoned
/// by the caller — transactional application is the caller's
/// discipline (see `gossip` and `KvStore::sync`) — so an aborted
/// contact leaves replica metadata untouched.
#[derive(Debug)]
pub struct Faulted<'a, L> {
    inner: L,
    faults: &'a mut FaultyLink,
    /// A frame towards the server / the puller was dropped: the next
    /// delivered one in that direction arrives past a hole.
    gap_out: bool,
    gap_in: bool,
    scratch: BytesMut,
}

impl<'a, L: FrameLink> Faulted<'a, L> {
    /// Puts `inner` under `faults`' weather.
    pub fn new(inner: L, faults: &'a mut FaultyLink) -> Self {
        Faulted {
            inner,
            faults,
            gap_out: false,
            gap_in: false,
            scratch: BytesMut::new(),
        }
    }

    /// Offers one encoded frame to the fault plan. `Ok(true)` means it
    /// arrived; `Ok(false)` that it vanished, leaving a gap in `gap`.
    fn transmit(faults: &mut FaultyLink, gap: &mut bool, frame: &[u8]) -> Result<bool> {
        match faults.transmit(frame) {
            // Bytes past a hole: the receiver detects the gap and kills
            // the connection rather than reassemble a stream with a
            // frame missing. A truncated prefix can never complete
            // either (links die for good); report the cut.
            TransmitOutcome::Delivered(_) if *gap => Err(Error::ConnectionLost {
                after_bytes: faults.stats().bytes_delivered,
            }),
            TransmitOutcome::Delivered(_) => Ok(true),
            TransmitOutcome::Dropped => {
                *gap = true;
                Ok(false)
            }
            TransmitOutcome::Died { stalled: true, .. } => Err(STALLED),
            TransmitOutcome::Died { .. } => Err(Error::ConnectionLost {
                after_bytes: faults.stats().bytes_delivered,
            }),
        }
    }
}

impl<L: FrameLink> FrameLink for Faulted<'_, L> {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let mut rest = Bytes::copy_from_slice(bytes);
        while rest.has_remaining() {
            let at = bytes.len() - rest.remaining();
            let marker = wire::get_frame(&mut rest)?.stream == TURN_STREAM;
            let frame = &bytes[at..bytes.len() - rest.remaining()];
            if marker || Self::transmit(self.faults, &mut self.gap_out, frame)? {
                self.inner.send_bytes(frame)?;
            }
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<wire::Frame> {
        // A dropped answer voids the turn that carried it. Surfacing the
        // empty turn would have an idle puller report a stall; handing
        // the turn straight back lets the server's next frame arrive
        // past the hole, so the loss is detected as the gap it is.
        let mut voided = false;
        loop {
            let frame = self.inner.recv_frame()?;
            if frame.stream == TURN_STREAM {
                if voided && !marker_fin(&frame)? {
                    voided = false;
                    self.scratch.clear();
                    put_marker(&mut self.scratch, false);
                    self.inner.send_bytes(&self.scratch)?;
                    continue;
                }
                return Ok(frame);
            }
            self.scratch.clear();
            wire::put_frame(&mut self.scratch, frame.stream, &frame.payload);
            if Self::transmit(self.faults, &mut self.gap_in, &self.scratch)? {
                return Ok(frame);
            }
            voided = true;
        }
    }

    fn fin(&mut self) {
        self.inner.fin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrep_core::RotatingVector;
    use optrep_net::FaultPlan;

    fn s(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn name(i: usize) -> Bytes {
        Bytes::from(format!("obj{i}").into_bytes())
    }

    fn vec_with(updates: &[u32]) -> Srv {
        let mut v = Srv::new();
        for &i in updates {
            RotatingVector::record_update(&mut v, s(i));
        }
        v
    }

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

    #[test]
    fn all_clean_contact_takes_one_blocking_round_trip() {
        let n = 8;
        let vectors: Vec<Srv> = (0..n).map(|i| vec_with(&[i as u32, 7])).collect();
        let mut client = BatchPullClient::new(
            vectors
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i), v.clone())),
        );
        let mut server = BatchPullServer::new(
            vectors
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i), v.clone(), Bytes::from_static(b"state"))),
        );
        let report = run_contact(&mut client, &mut server).unwrap();
        assert_eq!(report.round_trips, 1, "only the BatchHello blocks");
        assert_eq!(report.payload_bytes, 0);
        let results = client.finish();
        assert_eq!(results.len(), n);
        for r in &results {
            let outcome = r.outcome.as_ref().unwrap();
            assert_eq!(outcome.relation, optrep_core::Causality::Equal);
            assert!(outcome.payload.is_none());
            assert_eq!(outcome.stats.elements_received, 0, "no elements flowed");
        }
    }

    #[test]
    fn dirty_stream_matches_single_object_path() {
        // One object diverged concurrently; its per-stream outcome must be
        // byte-for-byte what the dedicated single-object session produces.
        let base = vec_with(&[0, 1, 2, 3, 4, 5]);
        let mut theirs = base.clone();
        RotatingVector::record_update(&mut theirs, s(0));
        RotatingVector::record_update(&mut theirs, s(1));
        let mut ours = base.clone();
        RotatingVector::record_update(&mut ours, s(9));

        // Reference: the single-object path, in the same lockstep regime.
        let mut ref_client = PullClient::new(ours.clone());
        let mut ref_server = PullServer::new(theirs.clone(), Bytes::from_static(b"their state"));
        loop {
            while let Some(m) = ref_client.poll_send() {
                ref_server.on_receive(m).unwrap();
            }
            if let Some(m) = ref_server.poll_send() {
                ref_client.on_receive(m).unwrap();
            }
            if ref_client.is_done() && ref_server.is_done() {
                break;
            }
        }
        let reference = ref_client.finish();

        // Batched: the dirty object rides with seven clean ones.
        let clean: Vec<Srv> = (0..7).map(|i| vec_with(&[i as u32 + 20])).collect();
        let mut objects = vec![(name(0), ours)];
        objects.extend(
            clean
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i + 1), v.clone())),
        );
        let mut server_objects = vec![(name(0), theirs, Bytes::from_static(b"their state"))];
        server_objects.extend(
            clean
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i + 1), v.clone(), Bytes::from_static(b"clean"))),
        );
        let mut client = BatchPullClient::new(objects);
        let mut server = BatchPullServer::new(server_objects);
        run_contact(&mut client, &mut server).unwrap();
        let results = client.finish();
        let dirty = results.iter().find(|r| r.name == name(0)).unwrap();
        let outcome = dirty.outcome.as_ref().unwrap();

        assert_eq!(outcome.relation, reference.relation);
        assert_eq!(outcome.stats, reference.stats, "Δ/Γ/γ must match");
        assert_eq!(outcome.payload, reference.payload);
        assert_eq!(
            outcome.vector.to_version_vector(),
            reference.vector.to_version_vector()
        );
        for r in &results {
            if r.name != name(0) {
                let o = r.outcome.as_ref().unwrap();
                assert_eq!(o.relation, optrep_core::Causality::Equal);
            }
        }
    }

    #[test]
    fn missing_and_discovered_objects() {
        // Client names one object the server lacks; server holds one the
        // client never heard of.
        let shared = vec_with(&[1]);
        let mut client = BatchPullClient::new(vec![
            (Bytes::from_static(b"shared"), shared.clone()),
            (Bytes::from_static(b"mine-only"), vec_with(&[2])),
        ]);
        let fresh = vec_with(&[3, 4]);
        let mut server = BatchPullServer::new(vec![
            (
                Bytes::from_static(b"shared"),
                shared,
                Bytes::from_static(b"s"),
            ),
            (
                Bytes::from_static(b"theirs-only"),
                fresh.clone(),
                Bytes::from_static(b"fresh state"),
            ),
        ]);
        run_contact(&mut client, &mut server).unwrap();
        let results = client.finish();
        assert_eq!(results.len(), 3);

        let missing = results
            .iter()
            .find(|r| r.name == Bytes::from_static(b"mine-only"))
            .unwrap();
        assert!(missing.outcome.is_none());

        let discovered = results
            .iter()
            .find(|r| r.name == Bytes::from_static(b"theirs-only"))
            .unwrap();
        assert!(discovered.discovered);
        let outcome = discovered.outcome.as_ref().unwrap();
        assert_eq!(outcome.relation, optrep_core::Causality::Before);
        assert_eq!(outcome.payload.as_deref(), Some(&b"fresh state"[..]));
        assert_eq!(
            outcome.vector.to_version_vector(),
            fresh.to_version_vector()
        );
    }

    #[test]
    fn no_discovery_leaves_server_objects_alone() {
        let mut client =
            BatchPullClient::without_discovery(vec![(Bytes::from_static(b"a"), vec_with(&[1]))]);
        let mut server = BatchPullServer::new(vec![
            (Bytes::from_static(b"a"), vec_with(&[1]), Bytes::new()),
            (Bytes::from_static(b"b"), vec_with(&[2]), Bytes::new()),
        ]);
        run_contact(&mut client, &mut server).unwrap();
        assert_eq!(client.finish().len(), 1);
    }

    #[test]
    fn byte_attribution_adds_up() {
        let mut client =
            BatchPullClient::new(vec![(name(0), vec_with(&[1])), (name(1), vec_with(&[2]))]);
        let mut server = BatchPullServer::new(vec![
            (name(0), vec_with(&[1]), Bytes::from_static(b"x")),
            (name(1), vec_with(&[2, 3]), Bytes::from_static(b"bigger")),
        ]);
        let report = run_contact(&mut client, &mut server).unwrap();
        assert_eq!(
            report.total_bytes,
            report.compare_bytes + report.meta_bytes + report.framing_bytes + report.payload_bytes
        );
        assert!(report.compare_bytes > 0);
        assert!(report.payload_bytes >= 6, "dirty object ships its state");
        assert!(report.frames >= 4);
    }

    /// A client/server pair where every object has diverged (the server
    /// holds one newer update), so all streams live past the comparison
    /// phase and ship a payload.
    fn dirty_pair(n: usize) -> (BatchPullClient, BatchPullServer) {
        let client_vecs: Vec<Srv> = (0..n).map(|i| vec_with(&[i as u32])).collect();
        let server_vecs: Vec<Srv> = client_vecs
            .iter()
            .map(|v| {
                let mut v = v.clone();
                RotatingVector::record_update(&mut v, s(30));
                v
            })
            .collect();
        let client = BatchPullClient::new(
            client_vecs
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i), v.clone())),
        );
        let server = BatchPullServer::new(
            server_vecs
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i), v.clone(), Bytes::from_static(b"fresh"))),
        );
        (client, server)
    }

    #[test]
    fn hostile_stream_ids_are_rejected() {
        let hello = |opens: Vec<StreamOpen>| {
            Framed::new(
                CONTROL_STREAM,
                MuxMsg::Ctrl(CtrlMsg::BatchHello {
                    discover: true,
                    opens,
                }),
            )
        };
        let open = |stream| StreamOpen {
            stream,
            name: name(stream as usize),
            first: None,
        };

        // The control stream is reserved.
        let mut server = BatchPullServer::new(vec![]);
        let err = server
            .on_receive(hello(vec![open(CONTROL_STREAM)]))
            .unwrap_err();
        assert!(err.to_string().contains("control stream"), "{err}");

        // Duplicate ids would alias two sessions onto one state machine.
        let mut server = BatchPullServer::new(vec![]);
        let err = server
            .on_receive(hello(vec![open(7), open(7)]))
            .unwrap_err();
        assert!(err.to_string().contains("reuses stream 7"), "{err}");

        // An id at u64::MAX would wrap offer allocation back onto client
        // streams.
        let mut server = BatchPullServer::new(vec![(name(0), vec_with(&[1]), Bytes::new())]);
        let err = server.on_receive(hello(vec![open(u64::MAX)])).unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");

        // A Cancel for a stream that never existed is a protocol error,
        // not a silent no-op.
        let mut server = BatchPullServer::new(vec![]);
        server.on_receive(hello(vec![])).unwrap();
        let err = server
            .on_receive(Framed::new(
                CONTROL_STREAM,
                MuxMsg::Ctrl(CtrlMsg::Cancel { streams: vec![9] }),
            ))
            .unwrap_err();
        assert!(err.to_string().contains("unknown stream 9"), "{err}");
    }

    #[test]
    fn per_stream_abort_leaves_siblings_unharmed() {
        let (mut client, mut server) = dirty_pair(3);
        let mut injected = false;
        loop {
            let mut progress = false;
            while let Some(framed) = client.poll_send() {
                progress = true;
                server.on_receive(framed).unwrap();
                if !injected {
                    injected = true;
                    // A second greeting is a protocol violation on stream
                    // 1: the server must tear down that stream only and
                    // Cancel it back to the client.
                    server
                        .on_receive(Framed::new(
                            1,
                            MuxMsg::Session(SessionMsg::Hello { first: None }),
                        ))
                        .unwrap();
                }
            }
            if let Some(framed) = server.poll_send() {
                progress = true;
                client.on_receive(framed).unwrap();
            }
            if client.is_done() && server.is_done() {
                break;
            }
            assert!(progress, "contact stalled");
        }
        let results = client.finish();
        assert_eq!(results.len(), 3);
        for r in &results {
            if r.stream == 1 {
                assert!(r.aborted, "poisoned stream must abort");
                assert!(r.outcome.is_none());
            } else {
                assert!(!r.aborted, "sibling stream {} must survive", r.stream);
                let outcome = r.outcome.as_ref().unwrap();
                assert_eq!(outcome.relation, optrep_core::Causality::Before);
                assert_eq!(outcome.payload.as_deref(), Some(&b"fresh"[..]));
            }
        }
    }

    #[test]
    fn client_side_stream_error_cancels_at_the_server() {
        let (mut client, mut server) = dirty_pair(2);
        // Run the comparison exchange, then poison stream 2 at the client
        // with an out-of-order control answer... not possible per-stream;
        // instead feed it a session message its state machine rejects.
        let hello = client.poll_send().unwrap();
        server.on_receive(hello).unwrap();
        let first = server.poll_send().unwrap();
        client.on_receive(first).unwrap();
        // A bare ServerFirst repeat is invalid once the session is running.
        client
            .on_receive(Framed::new(
                2,
                MuxMsg::Session(SessionMsg::ServerFirst {
                    first: None,
                    client_known: false,
                    client_equal: false,
                }),
            ))
            .unwrap();
        // The poisoned stream is aborted locally and a Cancel is queued.
        loop {
            let mut progress = false;
            while let Some(framed) = client.poll_send() {
                progress = true;
                server.on_receive(framed).unwrap();
            }
            if let Some(framed) = server.poll_send() {
                progress = true;
                client.on_receive(framed).unwrap();
            }
            if client.is_done() && server.is_done() {
                break;
            }
            assert!(progress, "contact stalled");
        }
        let results = client.finish();
        let poisoned = results.iter().find(|r| r.stream == 2).unwrap();
        assert!(poisoned.aborted);
        assert!(poisoned.outcome.is_none());
        let healthy = results.iter().find(|r| r.stream == 1).unwrap();
        assert_eq!(
            healthy.outcome.as_ref().unwrap().payload.as_deref(),
            Some(&b"fresh"[..])
        );
    }

    /// One in-process contact under `link`'s weather.
    fn run_faulted(
        client: &mut BatchPullClient,
        server: &mut BatchPullServer,
        link: &mut FaultyLink,
    ) -> Result<ContactReport> {
        pull_contact(client, &mut Faulted::new(InProcessLink::new(server), link))
    }

    #[test]
    fn faulty_contact_with_clean_plan_matches_run_contact() {
        let (mut c1, mut s1) = dirty_pair(4);
        let (mut c2, mut s2) = dirty_pair(4);
        let reference = run_contact(&mut c1, &mut s1).unwrap();
        let mut link = FaultyLink::clean();
        let report = run_faulted(&mut c2, &mut s2, &mut link).unwrap();
        assert_eq!(report, reference, "a clean link must be transparent");
        let (r1, r2) = (c1.finish(), c2.finish());
        assert_eq!(r1.len(), r2.len());
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(
                a.outcome.as_ref().unwrap().payload,
                b.outcome.as_ref().unwrap().payload
            );
        }
        assert_eq!(link.stats().frames_delivered, reference.frames);
        assert_eq!(link.stats().bytes_delivered, reference.total_bytes);
    }

    #[test]
    fn disconnected_contact_aborts_with_connection_lost() {
        let (mut client, mut server) = dirty_pair(4);
        let mut link = FaultyLink::new(FaultPlan::disconnect_at(40));
        let err = run_faulted(&mut client, &mut server, &mut link).unwrap_err();
        assert!(
            matches!(err, Error::ConnectionLost { after_bytes: 40 }),
            "got {err:?}"
        );
        assert!(link.is_dead());
    }

    #[test]
    fn dropped_hello_starves_the_contact_into_incomplete() {
        let (mut client, mut server) = dirty_pair(2);
        // 100% drop: the BatchHello vanishes and nobody can ever answer.
        let mut link = FaultyLink::new(FaultPlan::dropping(11, 1000));
        let err = run_faulted(&mut client, &mut server, &mut link).unwrap_err();
        assert!(matches!(err, Error::Incomplete { .. }), "got {err:?}");
    }

    #[test]
    fn stalled_link_aborts_as_incomplete() {
        let (mut client, mut server) = dirty_pair(2);
        let plan = FaultPlan {
            stall_after_frames: Some(1),
            ..FaultPlan::clean()
        };
        let mut link = FaultyLink::new(plan);
        let err = run_faulted(&mut client, &mut server, &mut link).unwrap_err();
        assert!(matches!(err, Error::Incomplete { .. }), "got {err:?}");
    }

    #[test]
    fn reason_labels_are_stable() {
        assert_eq!(
            reason_label(&Error::ConnectionLost { after_bytes: 1 }),
            "connection_lost"
        );
        assert_eq!(
            reason_label(&Error::PeerFailed { protocol: "x" }),
            "peer_failed"
        );
        assert_eq!(
            reason_label(&Error::Incomplete { protocol: "x" }),
            "stalled"
        );
        assert_eq!(
            reason_label(&Error::Wire(WireError::UnexpectedEof)),
            "decode_error"
        );
        assert_eq!(
            reason_label(&Error::UnexpectedMessage {
                protocol: "mux",
                message: String::new(),
            }),
            "protocol_error"
        );
    }
}
