//! The pulling endpoint of a batched contact: one [`PullClient`] per
//! stream behind a single control stream.

use super::msg::{unknown_stream, violation, CtrlMsg, MuxMsg, StreamOpen, CONTROL_STREAM};
use super::reason_label;
use crate::protocol::{PullClient, PullOutcome, SessionMsg};
use bytes::Bytes;
use optrep_core::error::Result;
use optrep_core::obs;
use optrep_core::sync::{Endpoint, Framed, Msg, WireMsg};
use optrep_core::{obs_emit, wire, Srv};
use std::collections::{BTreeMap, VecDeque};

/// What the pulling end holds of a key the server pushes, read when its
/// endpoint is built ([`BatchPullClient::with_pushed`]).
#[derive(Debug, Clone)]
pub enum Pushed {
    /// The key at this vector, not written since the digest vector the
    /// plan answered: the push runs against it.
    Held(Srv),
    /// No record of the key: the push creates it, as an offer would.
    Absent,
    /// The key was written after the digest vector was read. The proof
    /// the push rests on does not cover that write, so the stream is
    /// cancelled, its bytes are excess, and the key is left to the next
    /// contact.
    Written,
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
    /// A pushed stream's stand-in for the sender it cannot answer.
    push: Option<Push>,
}

/// What one message a turn would have made of a pushed stream: the
/// sender hears the puller's NAKs there, and a push never lets it. So
/// the puller answers for the sender — an element past a `HALT`, or in a
/// segment it asked to skip, and a value it did not ask for, never
/// reach the receiver; a skipped segment's end reaches it as the
/// sender's `SegSkipped` — and the receiver sees, and counts, exactly
/// the lockstep's messages. What it does not see is excess.
///
/// Two of those messages do not cross: the answer to the implied hello,
/// whose `⌊b⌋` is the stream's first element, and the sender's `HALT`,
/// which its value implies. Each is handed to the receiver where it
/// would have arrived — the answer before the first element, the
/// `HALT` before the value — and heard before what follows.
#[derive(Debug, Default)]
struct Push {
    /// Written since the digest vector: cancelled as the push arrives.
    written: bool,
    /// The stream's first element arrived, and with it the answer.
    opened: bool,
    /// The receiver halted, or the session ended: no element is wanted.
    halted: bool,
    /// The receiver asked to skip the segment the sender is in.
    skipping: bool,
    /// Segment boundaries the sender has passed.
    segs: u64,
    /// The receiver asked for the value and has not had it.
    wants_payload: bool,
}

impl Push {
    /// What the receiver is handed before `msg`, which did not cross:
    /// the answer before the first element, the `HALT` before the value.
    fn implied(&mut self, msg: &SessionMsg) -> Result<Option<SessionMsg>> {
        match msg {
            SessionMsg::Vector(Msg::ElemS { site, value, .. }) if !self.opened => {
                self.opened = true;
                Ok(Some(SessionMsg::ServerFirst {
                    first: Some((*site, *value)),
                    client_known: true,
                    client_equal: true,
                }))
            }
            _ if !self.opened => Err(violation("a pushed stream opens with no element")),
            SessionMsg::Payload { .. } => Ok(Some(SessionMsg::Vector(Msg::Halt))),
            _ => Ok(None),
        }
    }

    /// What of a pushed message the receiver gets, and whether the
    /// message is excess.
    fn sift(&mut self, msg: SessionMsg) -> (Vec<SessionMsg>, bool) {
        let vector = |msg| SessionMsg::Vector(msg);
        match msg {
            SessionMsg::Vector(_) if self.halted => (Vec::new(), true),
            SessionMsg::Vector(Msg::ElemS { segment, .. }) if self.skipping => {
                if !segment {
                    return (Vec::new(), true);
                }
                let seg = self.segs;
                (self.segs, self.skipping) = (seg + 1, false);
                (vec![vector(Msg::SegSkipped { seg })], true)
            }
            SessionMsg::Vector(Msg::Halt) if self.skipping => {
                self.skipping = false;
                let seg = self.segs;
                (
                    vec![vector(Msg::SegSkipped { seg }), vector(Msg::Halt)],
                    false,
                )
            }
            SessionMsg::Vector(element @ Msg::ElemS { segment, .. }) => {
                self.segs += u64::from(segment);
                (vec![vector(element)], false)
            }
            SessionMsg::Payload { .. } if !self.wants_payload => (Vec::new(), true),
            SessionMsg::Payload { data } => {
                self.wants_payload = false;
                (vec![SessionMsg::Payload { data }], false)
            }
            other => (vec![other], false),
        }
    }

    /// Takes in what the receiver would have said to the sender.
    fn hear(&mut self, msg: &SessionMsg) {
        match msg {
            SessionMsg::Vector(Msg::Halt) | SessionMsg::Done => self.halted = true,
            SessionMsg::Vector(Msg::Skip { seg }) if *seg == self.segs => self.skipping = true,
            SessionMsg::PayloadRequest => self.wants_payload = true,
            _ => {}
        }
    }
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
/// simulator, in-memory channels, a lockstep loop) can carry a whole
/// contact.
#[derive(Debug)]
pub struct BatchPullClient {
    phase: ClientPhase,
    streams: BTreeMap<u64, ClientStream>,
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
    /// See [`source_behind`](Self::source_behind).
    source_behind: Vec<Bytes>,
    /// Streams `1..=pushed` are the server's push.
    pushed: u64,
    /// See [`excess_bytes`](Self::excess_bytes).
    excess: u64,
}

impl BatchPullClient {
    /// Creates a client pulling the named objects, with server-side
    /// discovery of unnamed objects enabled.
    pub fn new<I>(objects: I) -> Self
    where
        I: IntoIterator<Item = (Bytes, Srv)>,
    {
        Self::with_pushed(Vec::new(), objects)
    }

    /// A client for a planned contact whose server pushed keys with the
    /// plan: `pushed` names them, in the push's order, each with what
    /// this end holds of it, on streams `1, 2, …`; `objects` are the
    /// ones it names itself, on the streams above, as for
    /// [`new`](Self::new). A pushed stream is answered by no hello and
    /// no frame of this end's, but a cancel ([`Pushed::Written`]).
    pub fn with_pushed<P, I>(pushed: P, objects: I) -> Self
    where
        P: IntoIterator<Item = (Bytes, Pushed)>,
        I: IntoIterator<Item = (Bytes, Srv)>,
    {
        let stream = |name, vector, discovered, push| ClientStream {
            name,
            discovered,
            missing: false,
            aborted: false,
            finished: false,
            client: PullClient::new(vector),
            push,
        };
        let mut streams = BTreeMap::new();
        for (name, held) in pushed {
            let (vector, discovered, written) = match held {
                Pushed::Held(vector) => (vector, false, false),
                Pushed::Absent => (Srv::new(), true, false),
                Pushed::Written => (Srv::new(), false, true),
            };
            let push = Push {
                written,
                ..Push::default()
            };
            let mut pushed = stream(name, vector, discovered, Some(push));
            // The push implies the hello: pump ours and drop it, as for
            // an offer.
            pushed.client.poll_send();
            streams.insert(streams.len() as u64 + 1, pushed);
        }
        let pushed = streams.len() as u64;
        for (name, vector) in objects {
            streams.insert(streams.len() as u64 + 1, stream(name, vector, false, None));
        }
        let unfinished = streams.len();
        BatchPullClient {
            phase: ClientPhase::Start,
            streams,
            ready: VecDeque::new(),
            unfinished,
            pending_dones: Vec::new(),
            pending_cancels: Vec::new(),
            outbox: VecDeque::new(),
            source_behind: Vec::new(),
            pushed,
            excess: 0,
        }
    }

    /// Bytes of pushed frames that crossed for nothing: all of a stream
    /// cancelled as [`Pushed::Written`], and what a stream sent past the
    /// point where one message a turn would have stopped it.
    pub fn excess_bytes(&self) -> u64 {
        self.excess
    }

    /// Begins the exchange with no `BatchHello`: the plan walks no shard,
    /// so this end names nothing and nothing is left to discover.
    pub(super) fn open_without_hello(&mut self) {
        debug_assert!(
            self.streams.len() as u64 == self.pushed,
            "named streams need a hello"
        );
        self.phase = ClientPhase::Running;
    }

    /// The server's push: the keys on streams `1, 2, …`, each answered
    /// when its first element arrives. A key written since the digest
    /// vector is cancelled here.
    fn on_push(&mut self, names: Vec<Bytes>) -> Result<()> {
        if self.phase != ClientPhase::Start || names.len() as u64 != self.pushed {
            return Err(violation(format!(
                "a push of {} keys where {} were pushed, or after the exchange began",
                names.len(),
                self.pushed
            )));
        }
        for (stream, name) in (1..).zip(names) {
            let st = self.streams.get_mut(&stream).expect("a pushed stream");
            if st.name != name {
                return Err(violation(format!("push on stream {stream} of another key")));
            }
            if st.push.as_ref().is_some_and(|push| push.written) {
                self.excess += wire::bytes_len(name.len()) as u64;
                self.abort_stream(stream, "written_since_digest", true);
            }
        }
        Ok(())
    }

    /// A pushed stream's session message: what of it the receiver gets,
    /// what the receiver says back heard for the sender — after what the
    /// message implies ([`Push::implied`]), which has no bytes of its own.
    fn on_pushed(&mut self, stream: u64, msg: SessionMsg) -> Result<()> {
        // The frame's bytes: its stream id, its length, the message.
        let len = msg.encoded_len();
        let len = wire::varint_len(stream) + wire::bytes_len(len);
        let st = self.streams.get_mut(&stream).expect("a pushed stream");
        let implied = st.push.as_mut().expect("a pushed stream").implied(&msg)?;
        let messages = implied.map(|implied| (implied, false)).into_iter();
        for (msg, crossed) in messages.chain([(msg, true)]) {
            let st = self.streams.get_mut(&stream).expect("a pushed stream");
            let push = st.push.as_mut().expect("a pushed stream");
            let (fed, excess) = match st.aborted {
                true => (Vec::new(), true),
                false => push.sift(msg),
            };
            if excess && crossed {
                self.excess += len as u64;
            }
            for msg in fed {
                let st = self.streams.get_mut(&stream).expect("a pushed stream");
                if let Err(e) = st.client.on_receive(msg) {
                    self.abort_stream(stream, reason_label(&e), true);
                    break;
                }
                self.hear_pushed(stream);
            }
        }
        Ok(())
    }

    /// Drains what a pushed stream's client says into its [`Push`]: the
    /// sender it would go to has finished already.
    fn hear_pushed(&mut self, stream: u64) {
        let st = self.streams.get_mut(&stream).expect("a pushed stream");
        let push = st.push.as_mut().expect("a pushed stream");
        while let Some(msg) = st.client.poll_send() {
            push.hear(&msg);
        }
        self.settle(stream);
    }

    /// The objects the server answered it holds no record of, or one
    /// that this end's vector does not follow from (`client_known`
    /// false): what this end holds of them the source lacks. Read off
    /// the answers alone, so the serving end lists the same names
    /// ([`BatchPullServer::source_behind`](super::BatchPullServer::source_behind)),
    /// whatever becomes of the streams after.
    pub fn source_behind(&self) -> &[Bytes] {
        &self.source_behind
    }

    /// Number of streams (named plus discovered).
    pub(super) fn stream_count(&self) -> usize {
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
            reason: reason.into(),
        });
    }
}

impl Endpoint for BatchPullClient {
    type Msg = Framed<MuxMsg>;

    fn poll_send(&mut self) -> Option<Framed<MuxMsg>> {
        if self.phase == ClientPhase::Start {
            // Streams are numbered in the order the objects were named.
            let mut opens = Vec::with_capacity(self.streams.len());
            let named = self.streams.iter_mut().filter(|(_, st)| st.push.is_none());
            for (&stream, st) in named {
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
                    discover: true,
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
                    return Err(violation("BatchServerFirst out of order"));
                }
                for ans in answers {
                    let st = self
                        .streams
                        .get_mut(&ans.stream)
                        .ok_or_else(|| unknown_stream(ans.stream))?;
                    if ans.missing || !ans.client_known {
                        self.source_behind.push(st.name.clone());
                    }
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
                        return Err(violation(format!("offer reuses stream {}", offer.stream)));
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
                            push: None,
                        },
                    );
                    self.unfinished += 1;
                    self.ready.push_back(offer.stream);
                }
                self.phase = ClientPhase::Running;
                Ok(())
            }
            MuxMsg::Ctrl(CtrlMsg::BatchPush { names }) => self.on_push(names),
            MuxMsg::Session(msg) => {
                let st = self
                    .streams
                    .get_mut(&framed.stream)
                    .ok_or_else(|| unknown_stream(framed.stream))?;
                if st.push.is_some() {
                    return self.on_pushed(framed.stream, msg);
                }
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
                        return Err(unknown_stream(stream));
                    }
                    self.abort_stream(stream, "peer_cancelled", false);
                }
                Ok(())
            }
            MuxMsg::Ctrl(other) => Err(violation(format!("{other:?} at client"))),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::fixtures::{dirty_pair, vec_with};
    use crate::mux::{run_contact, BatchPullServer};
    use optrep_core::{RotatingVector, SiteId};

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

    /// What a pushed stream hands its receiver for what did not cross:
    /// the answer before the first element, and before the value the
    /// `HALT` — behind the `SegSkipped` the sender would have sent where
    /// the receiver was skipping the last segment, and nothing where it
    /// had halted already.
    #[test]
    fn a_pushed_stream_hands_over_what_it_implies() {
        let vector = SessionMsg::Vector;
        let element = vector(Msg::ElemS {
            site: SiteId::new(3),
            value: 9,
            conflict: false,
            segment: false,
        });
        let value = SessionMsg::Payload {
            data: Bytes::from_static(b"v"),
        };
        // The stream opens with an element, whose `⌊b⌋` the answer names.
        let mut push = Push::default();
        for first in [
            value.clone(),
            vector(Msg::Halt),
            vector(Msg::SegSkipped { seg: 0 }),
        ] {
            assert!(push.implied(&first).is_err(), "{first:?}");
        }
        let answer = SessionMsg::ServerFirst {
            first: Some((SiteId::new(3), 9)),
            client_known: true,
            client_equal: true,
        };
        assert_eq!(push.implied(&element).unwrap(), Some(answer));
        assert_eq!(push.implied(&element).unwrap(), None);
        // Skipping the last segment: its end, the `HALT`, and once the
        // receiver asks, the value.
        push.segs = 2;
        push.hear(&vector(Msg::Skip { seg: 2 }));
        let halt = push.implied(&value).unwrap().expect("the implied HALT");
        let skipped = vec![vector(Msg::SegSkipped { seg: 2 }), vector(Msg::Halt)];
        assert_eq!(push.sift(halt), (skipped, false));
        push.hear(&SessionMsg::PayloadRequest);
        assert_eq!(push.sift(value.clone()), (vec![value.clone()], false));
        // Halted already: nothing is implied to it, and the value is
        // excess.
        let mut push = Push {
            opened: true,
            ..Push::default()
        };
        push.hear(&vector(Msg::Halt));
        let halt = push.implied(&value).unwrap().expect("the implied HALT");
        assert_eq!(push.sift(halt), (Vec::new(), true));
        assert_eq!(push.sift(value), (Vec::new(), true));
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
}
