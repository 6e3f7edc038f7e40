//! The complete replica-synchronization session as a wire protocol.
//!
//! [`crate::session::sync_replica`] computes the comparison locally and
//! only the vector exchange is a real protocol. This module implements
//! the *whole* §2.1 session — distributed O(1) comparison, `SYNCS`, and
//! state transfer — as a pair of sans-io endpoints, so a full pull runs
//! over any transport (the discrete-event simulator, OS threads) with
//! honest end-to-end byte and latency accounting:
//!
//! 1. The puller sends [`SessionMsg::Hello`] carrying its first element
//!    (`⌊a⌋`, one element — Algorithm 1's half of the comparison).
//! 2. The server replies with [`SessionMsg::ServerFirst`] (its `⌊b⌋` plus
//!    its half of the verdict) and — pipelining, §3.1 — immediately starts
//!    streaming `SYNCS` elements without waiting to hear whether the
//!    puller actually needs them.
//! 3. The puller derives the verdict: `Equal`/`After` → it sends
//!    [`SessionMsg::Done`] (the in-flight elements are discarded);
//!    otherwise it runs the `SYNCS` receiver over the embedded
//!    [`SessionMsg::Vector`] messages.
//! 4. After the vector phase, the puller requests the payload
//!    ([`SessionMsg::PayloadRequest`]); the server ships the whole object
//!    state ([`SessionMsg::Payload`]) — state transfer.
//!
//! The endpoints stop at returning the relation and the received payload;
//! applying the overwrite/merge and the Parker §C increment stays with
//! the caller (see [`PullClient::finish`]), keeping the protocol free of
//! application payload semantics.

use crate::meta::ReplicaMeta;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::{Error, Result, WireError};
use optrep_core::sync::sender::VectorSender;
use optrep_core::sync::{Endpoint, Msg, ProtocolMsg, ReceiverStats, SyncSReceiver, WireMsg};
use optrep_core::{wire, Causality, RotatingVector, SiteId, Srv};
use std::collections::VecDeque;

/// A message of the session protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionMsg {
    /// Puller → server: open the session with `⌊a⌋`.
    Hello {
        /// The puller's first element, absent if its vector is empty.
        first: Option<(SiteId, u64)>,
    },
    /// Server → puller: `⌊b⌋` plus the server-side half of Algorithm 1.
    ServerFirst {
        /// The server's first element, absent if its vector is empty.
        first: Option<(SiteId, u64)>,
        /// `u_a ≤ b[l_a]` evaluated at the server.
        client_known: bool,
        /// `u_a = b[l_a]` evaluated at the server.
        client_equal: bool,
    },
    /// An embedded `SYNCS` message (either direction).
    Vector(Msg),
    /// Puller → server: the vector phase is over, ship the object state.
    PayloadRequest,
    /// Server → puller: the whole object state (state transfer).
    Payload {
        /// The serialized object payload.
        data: Bytes,
    },
    /// Puller → server: session over, nothing (more) needed.
    Done,
}

const TAG_HELLO: u8 = 0x21;
const TAG_SERVER_FIRST: u8 = 0x22;
const TAG_VECTOR: u8 = 0x23;
const TAG_PAYLOAD_REQUEST: u8 = 0x24;
const TAG_PAYLOAD: u8 = 0x25;
const TAG_DONE: u8 = 0x26;

pub(crate) fn put_opt_elem(buf: &mut BytesMut, elem: &Option<(SiteId, u64)>) {
    match elem {
        Some((site, value)) => {
            buf.put_u8(1);
            wire::put_varint(buf, u64::from(site.index()));
            wire::put_varint(buf, *value);
        }
        None => buf.put_u8(0),
    }
}

pub(crate) fn get_opt_elem(
    buf: &mut Bytes,
) -> std::result::Result<Option<(SiteId, u64)>, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEof);
    }
    if buf.get_u8() == 0 {
        return Ok(None);
    }
    let site = wire::get_site(buf)?;
    let value = wire::get_varint(buf)?;
    Ok(Some((site, value)))
}

pub(crate) fn opt_elem_len(elem: &Option<(SiteId, u64)>) -> usize {
    1 + elem
        .map(|(s, v)| wire::varint_len(u64::from(s.index())) + wire::varint_len(v))
        .unwrap_or(0)
}

impl WireMsg for SessionMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            SessionMsg::Hello { first } => {
                buf.put_u8(TAG_HELLO);
                put_opt_elem(buf, first);
            }
            SessionMsg::ServerFirst {
                first,
                client_known,
                client_equal,
            } => {
                buf.put_u8(TAG_SERVER_FIRST);
                put_opt_elem(buf, first);
                buf.put_u8(u8::from(*client_known) | u8::from(*client_equal) << 1);
            }
            SessionMsg::Vector(inner) => {
                buf.put_u8(TAG_VECTOR);
                inner.encode(buf);
            }
            SessionMsg::PayloadRequest => buf.put_u8(TAG_PAYLOAD_REQUEST),
            SessionMsg::Payload { data } => {
                buf.put_u8(TAG_PAYLOAD);
                wire::put_bytes(buf, data);
            }
            SessionMsg::Done => buf.put_u8(TAG_DONE),
        }
    }

    fn decode(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        match buf.get_u8() {
            TAG_HELLO => Ok(SessionMsg::Hello {
                first: get_opt_elem(buf)?,
            }),
            TAG_SERVER_FIRST => {
                let first = get_opt_elem(buf)?;
                if !buf.has_remaining() {
                    return Err(WireError::UnexpectedEof);
                }
                let flags = buf.get_u8();
                Ok(SessionMsg::ServerFirst {
                    first,
                    client_known: flags & 1 == 1,
                    client_equal: flags & 2 == 2,
                })
            }
            TAG_VECTOR => Ok(SessionMsg::Vector(Msg::decode(buf)?)),
            TAG_PAYLOAD_REQUEST => Ok(SessionMsg::PayloadRequest),
            TAG_PAYLOAD => Ok(SessionMsg::Payload {
                data: wire::get_bytes(buf)?,
            }),
            TAG_DONE => Ok(SessionMsg::Done),
            other => Err(WireError::UnknownTag(other)),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            SessionMsg::Hello { first } => opt_elem_len(first),
            SessionMsg::ServerFirst { first, .. } => opt_elem_len(first) + 1,
            SessionMsg::Vector(inner) => inner.encoded_len(),
            SessionMsg::PayloadRequest | SessionMsg::Done => 0,
            SessionMsg::Payload { data } => wire::bytes_len(data.len()),
        }
    }
}

impl ProtocolMsg for SessionMsg {
    fn is_payload(&self) -> bool {
        matches!(self, SessionMsg::Payload { .. })
            || matches!(self, SessionMsg::Vector(inner) if inner.is_payload())
    }

    fn is_nak(&self) -> bool {
        matches!(self, SessionMsg::Done)
            || matches!(self, SessionMsg::Vector(inner) if inner.is_nak())
    }
}

#[derive(Debug)]
enum ServerState {
    AwaitHello,
    Streaming(VectorSender<Srv>),
    AwaitPayloadDecision,
    Done,
}

/// The serving side of a pull session: answers the comparison, streams
/// `SYNCS` elements speculatively, and ships the object state on request.
#[derive(Debug)]
pub struct PullServer {
    vector: Srv,
    payload: Bytes,
    state: ServerState,
    outbox: VecDeque<SessionMsg>,
}

impl PullServer {
    /// Creates a server for one replica: its vector and its serialized
    /// object state.
    pub fn new(vector: Srv, payload: Bytes) -> Self {
        PullServer {
            vector,
            payload,
            state: ServerState::AwaitHello,
            outbox: VecDeque::new(),
        }
    }
}

impl Endpoint for PullServer {
    type Msg = SessionMsg;

    fn poll_send(&mut self) -> Option<SessionMsg> {
        if let Some(m) = self.outbox.pop_front() {
            return Some(m);
        }
        if let ServerState::Streaming(sender) = &mut self.state {
            if let Some(inner) = sender.poll_send() {
                return Some(SessionMsg::Vector(inner));
            }
            if sender.is_done() {
                self.state = ServerState::AwaitPayloadDecision;
            }
        }
        None
    }

    fn on_receive(&mut self, msg: SessionMsg) -> Result<()> {
        match msg {
            SessionMsg::Hello { first } => {
                if !matches!(self.state, ServerState::AwaitHello) {
                    return Err(Error::UnexpectedMessage {
                        protocol: "session",
                        message: "Hello after session start".into(),
                    });
                }
                let (client_known, client_equal) = match first {
                    None => (true, self.vector.is_empty()),
                    Some((la, ua)) => (ua <= self.vector.value(la), ua == self.vector.value(la)),
                };
                self.outbox.push_back(SessionMsg::ServerFirst {
                    first: self.vector.first().map(|e| (e.site, e.value)),
                    client_known,
                    client_equal,
                });
                // Pipelining: start streaming without waiting for the
                // verdict; a Done cancels us cheaply.
                self.state = ServerState::Streaming(VectorSender::new(self.vector.clone()));
                Ok(())
            }
            SessionMsg::Vector(inner) => {
                if let ServerState::Streaming(sender) = &mut self.state {
                    sender.on_receive(inner)?;
                    if sender.is_done() {
                        self.state = ServerState::AwaitPayloadDecision;
                    }
                    Ok(())
                } else {
                    // Late vector replies after the stream finished.
                    Ok(())
                }
            }
            SessionMsg::PayloadRequest => {
                self.outbox.push_back(SessionMsg::Payload {
                    data: self.payload.clone(),
                });
                self.state = ServerState::Done;
                Ok(())
            }
            SessionMsg::Done => {
                self.state = ServerState::Done;
                Ok(())
            }
            other => Err(Error::UnexpectedMessage {
                protocol: "session",
                message: format!("{other:?} at server"),
            }),
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.state, ServerState::Done) && self.outbox.is_empty()
    }
}

#[derive(Debug)]
enum ClientState {
    Start,
    AwaitServerFirst,
    Vector(Box<SyncSReceiver>),
    AwaitPayload,
    Done,
}

/// What a completed pull produced.
#[derive(Debug, Clone)]
pub struct PullOutcome {
    /// The synchronized vector (element-wise max when a transfer ran).
    pub vector: Srv,
    /// The relation found by the distributed comparison.
    pub relation: Causality,
    /// The server's payload, present when one was transferred.
    pub payload: Option<Bytes>,
    /// Receiver-side counters of the vector phase.
    pub stats: ReceiverStats,
}

/// The pulling side of a session: runs the distributed comparison, the
/// `SYNCS` receiver, and collects the payload.
#[derive(Debug)]
pub struct PullClient {
    state: ClientState,
    vector: Option<Srv>,
    relation: Option<Causality>,
    payload: Option<Bytes>,
    stats: ReceiverStats,
    outbox: VecDeque<SessionMsg>,
}

impl PullClient {
    /// Creates a client pulling into vector `a`.
    pub fn new(vector: Srv) -> Self {
        PullClient {
            state: ClientState::Start,
            vector: Some(vector),
            relation: None,
            payload: None,
            stats: ReceiverStats::default(),
            outbox: VecDeque::new(),
        }
    }

    /// Moves from the vector phase to the payload phase once the inner
    /// receiver has halted and drained its replies.
    fn maybe_finish_vector(&mut self) {
        let finished = matches!(&self.state, ClientState::Vector(rx) if rx.is_done());
        if !finished {
            return;
        }
        let rx = match std::mem::replace(&mut self.state, ClientState::AwaitPayload) {
            ClientState::Vector(rx) => rx,
            _ => unreachable!("just matched"),
        };
        self.stats = rx.stats();
        let (vector, _) = rx.finish();
        self.vector = Some(vector);
        self.outbox.push_back(SessionMsg::PayloadRequest);
    }

    /// Consumes the finished client.
    ///
    /// # Panics
    ///
    /// Panics if the session has not completed (check
    /// [`is_done`](Endpoint::is_done) first).
    pub fn finish(self) -> PullOutcome {
        assert!(
            matches!(self.state, ClientState::Done),
            "session still in progress"
        );
        PullOutcome {
            vector: self.vector.expect("vector retained"),
            relation: self.relation.expect("relation decided"),
            payload: self.payload,
            stats: self.stats,
        }
    }
}

impl Endpoint for PullClient {
    type Msg = SessionMsg;

    fn poll_send(&mut self) -> Option<SessionMsg> {
        if matches!(self.state, ClientState::Start) {
            let first = self
                .vector
                .as_ref()
                .and_then(|v| v.first())
                .map(|e| (e.site, e.value));
            self.state = ClientState::AwaitServerFirst;
            return Some(SessionMsg::Hello { first });
        }
        if let Some(m) = self.outbox.pop_front() {
            return Some(m);
        }
        if let ClientState::Vector(rx) = &mut self.state {
            if let Some(inner) = rx.poll_send() {
                return Some(SessionMsg::Vector(inner));
            }
            self.maybe_finish_vector();
            return self.outbox.pop_front();
        }
        None
    }

    fn on_receive(&mut self, msg: SessionMsg) -> Result<()> {
        match msg {
            SessionMsg::ServerFirst {
                first,
                client_known,
                client_equal,
            } => {
                if !matches!(self.state, ClientState::AwaitServerFirst) {
                    return Err(Error::UnexpectedMessage {
                        protocol: "session",
                        message: "ServerFirst out of order".into(),
                    });
                }
                let vector = self.vector.take().expect("vector available");
                let (server_known, server_equal) = match first {
                    None => (true, vector.is_empty()),
                    Some((lb, ub)) => (ub <= vector.value(lb), ub == vector.value(lb)),
                };
                let relation = if client_equal && server_equal {
                    Causality::Equal
                } else if client_known {
                    Causality::Before
                } else if server_known {
                    Causality::After
                } else {
                    Causality::Concurrent
                };
                self.relation = Some(relation);
                match relation {
                    Causality::Equal | Causality::After => {
                        self.vector = Some(vector);
                        self.outbox.push_back(SessionMsg::Done);
                        self.state = ClientState::Done;
                    }
                    Causality::Before | Causality::Concurrent => {
                        self.state =
                            ClientState::Vector(Box::new(SyncSReceiver::new(vector, relation)));
                    }
                }
                Ok(())
            }
            SessionMsg::Vector(inner) => {
                match &mut self.state {
                    ClientState::Vector(rx) => {
                        rx.on_receive(inner)?;
                        // Replies (and the phase transition once the inner
                        // receiver halts) drain through poll_send.
                        self.maybe_finish_vector();
                        Ok(())
                    }
                    // In-flight elements after Done / during payload wait.
                    _ => Ok(()),
                }
            }
            SessionMsg::Payload { data } => {
                if !matches!(self.state, ClientState::AwaitPayload) {
                    return Err(Error::UnexpectedMessage {
                        protocol: "session",
                        message: "Payload out of order".into(),
                    });
                }
                self.payload = Some(data);
                self.state = ClientState::Done;
                Ok(())
            }
            other => Err(Error::UnexpectedMessage {
                protocol: "session",
                message: format!("{other:?} at client"),
            }),
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.state, ClientState::Done) && self.outbox.is_empty()
    }
}

/// Applies a finished pull to the puller's replica payload, returning the
/// new payload: overwrite on fast-forward, `merge` on reconciliation
/// (caller must then record the Parker §C increment on the vector).
pub fn apply_pull<FMerge>(outcome: &PullOutcome, ours: &Bytes, merge: FMerge) -> Bytes
where
    FMerge: FnOnce(&Bytes, &Bytes) -> Bytes,
{
    match (outcome.relation, &outcome.payload) {
        (Causality::Before, Some(theirs)) => theirs.clone(),
        (Causality::Concurrent, Some(theirs)) => merge(ours, theirs),
        _ => ours.clone(),
    }
}

/// Convenience: `true` if this metadata scheme can run the session
/// protocol (it is `SYNCS`-based, so only [`Srv`] qualifies).
pub fn supports_session<M: ReplicaMeta>() -> bool {
    M::NAME == "SRV"
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrep_core::sync::drive::sync_srv;

    fn s(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn lockstep(client: &mut PullClient, server: &mut PullServer) {
        loop {
            let mut progress = false;
            while let Some(m) = client.poll_send() {
                server.on_receive(m).expect("server");
                progress = true;
            }
            if let Some(m) = server.poll_send() {
                client.on_receive(m).expect("client");
                progress = true;
            }
            if client.is_done() && server.is_done() {
                return;
            }
            assert!(progress, "session stalled");
        }
    }

    #[test]
    fn a_first_element_naming_a_site_above_u32_is_refused() {
        let mut buf = BytesMut::new();
        put_opt_elem(&mut buf, &Some((s(u32::MAX), 5)));
        assert_eq!(get_opt_elem(&mut buf.freeze()), Ok(Some((s(u32::MAX), 5))));
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        wire::put_varint(&mut buf, (1 << 32) + 1);
        wire::put_varint(&mut buf, 5);
        assert_eq!(
            get_opt_elem(&mut buf.freeze()),
            Err(WireError::InvalidPayload),
            "truncated, it would name site 1"
        );
    }

    fn diverged() -> (Srv, Srv) {
        let mut b = Srv::new();
        for i in 0..6 {
            RotatingVector::record_update(&mut b, s(i));
        }
        let mut a = b.clone();
        RotatingVector::record_update(&mut b, s(0));
        RotatingVector::record_update(&mut b, s(1));
        RotatingVector::record_update(&mut a, s(9)); // concurrent twist
        (a, b)
    }

    #[test]
    fn full_session_reconciles_and_ships_payload() {
        let (a, b) = diverged();
        let mut client = PullClient::new(a.clone());
        let mut server = PullServer::new(b.clone(), Bytes::from_static(b"server state"));
        lockstep(&mut client, &mut server);
        let outcome = client.finish();
        assert_eq!(outcome.relation, Causality::Concurrent);
        assert_eq!(outcome.payload.as_deref(), Some(&b"server state"[..]));
        // The vector matches a lockstep drive::sync_srv run.
        let mut reference = a;
        sync_srv(&mut reference, &b).unwrap();
        assert_eq!(
            outcome.vector.to_version_vector(),
            reference.to_version_vector()
        );
        assert!(outcome.stats.delta > 0);
    }

    #[test]
    fn equal_replicas_cost_one_round_trip_and_no_payload() {
        let mut v = Srv::new();
        RotatingVector::record_update(&mut v, s(0));
        let mut client = PullClient::new(v.clone());
        let mut server = PullServer::new(v.clone(), Bytes::from_static(b"state"));
        lockstep(&mut client, &mut server);
        let outcome = client.finish();
        assert_eq!(outcome.relation, Causality::Equal);
        assert_eq!(outcome.payload, None);
        assert_eq!(outcome.vector, v);
    }

    #[test]
    fn ahead_client_downloads_nothing() {
        let mut b = Srv::new();
        RotatingVector::record_update(&mut b, s(0));
        let mut a = b.clone();
        RotatingVector::record_update(&mut a, s(1));
        let mut client = PullClient::new(a.clone());
        let mut server = PullServer::new(b, Bytes::from_static(b"old"));
        lockstep(&mut client, &mut server);
        let outcome = client.finish();
        assert_eq!(outcome.relation, Causality::After);
        assert_eq!(outcome.payload, None);
        assert_eq!(outcome.vector, a);
    }

    #[test]
    fn fast_forward_overwrites_via_apply_pull() {
        let mut b = Srv::new();
        RotatingVector::record_update(&mut b, s(0));
        let a = b.clone();
        RotatingVector::record_update(&mut b, s(0));
        let mut client = PullClient::new(a);
        let mut server = PullServer::new(b.clone(), Bytes::from_static(b"new state"));
        lockstep(&mut client, &mut server);
        let outcome = client.finish();
        assert_eq!(outcome.relation, Causality::Before);
        let ours = Bytes::from_static(b"old state");
        let merged = apply_pull(&outcome, &ours, |_, _| unreachable!("no merge on ff"));
        assert_eq!(&merged[..], b"new state");
        assert_eq!(outcome.vector.to_version_vector(), b.to_version_vector());
    }

    #[test]
    fn session_msgs_roundtrip() {
        let msgs = [
            SessionMsg::Hello { first: None },
            SessionMsg::Hello {
                first: Some((s(3), 7)),
            },
            SessionMsg::ServerFirst {
                first: Some((s(1), 2)),
                client_known: true,
                client_equal: false,
            },
            SessionMsg::Vector(Msg::ElemS {
                site: s(2),
                value: 9,
                conflict: true,
                segment: false,
            }),
            SessionMsg::Vector(Msg::Halt),
            SessionMsg::PayloadRequest,
            SessionMsg::Payload {
                data: Bytes::from_static(b"xyz"),
            },
            SessionMsg::Done,
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(bytes.len(), m.encoded_len(), "{m:?}");
            let mut buf = bytes;
            assert_eq!(SessionMsg::decode(&mut buf).unwrap(), m);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn supports_session_only_for_srv() {
        assert!(supports_session::<Srv>());
        assert!(!supports_session::<optrep_core::Brv>());
        assert!(!supports_session::<optrep_core::VersionVector>());
    }
}
