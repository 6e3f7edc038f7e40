//! The pulling endpoint of a batched contact: one [`PullClient`] per
//! stream behind a single control stream.

use super::msg::{unknown_stream, violation, CtrlMsg, MuxMsg, StreamOpen, CONTROL_STREAM};
use super::reason_label;
use crate::protocol::{PullClient, PullOutcome, PullServer, SessionMsg};
use bytes::Bytes;
use optrep_core::error::Result;
use optrep_core::obs;
use optrep_core::order::Element;
use optrep_core::sync::{Endpoint, Framed, Msg, WireMsg};
use optrep_core::{obs_emit, wire, RotatingVector, Srv};
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
    /// A pushed key written since the digest vector: its stream is
    /// cancelled as the push arrives.
    written: bool,
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
    /// A pushed stream's elements in `≺` order, from its first until
    /// its value: what rebuilds the vector its sender streamed.
    elements: BTreeMap<u64, Vec<Element>>,
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
    /// [`new`](Self::new). A pushed stream is answered by no frame of
    /// this end's but a cancel ([`Pushed::Written`]): its session runs
    /// here, hello and all, when its value arrives.
    pub fn with_pushed<P, I>(pushed: P, objects: I) -> Self
    where
        P: IntoIterator<Item = (Bytes, Pushed)>,
        I: IntoIterator<Item = (Bytes, Srv)>,
    {
        let stream = |name, vector, discovered, written| ClientStream {
            name,
            discovered,
            missing: false,
            aborted: false,
            finished: false,
            written,
            client: PullClient::new(vector),
        };
        let mut streams = BTreeMap::new();
        for (name, held) in pushed {
            let (vector, discovered, written) = match held {
                Pushed::Held(vector) => (vector, false, false),
                Pushed::Absent => (Srv::new(), true, false),
                Pushed::Written => (Srv::new(), false, true),
            };
            let pushed = stream(name, vector, discovered, written);
            streams.insert(streams.len() as u64 + 1, pushed);
        }
        let pushed = streams.len() as u64;
        for (name, vector) in objects {
            streams.insert(streams.len() as u64 + 1, stream(name, vector, false, false));
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
            elements: BTreeMap::new(),
            excess: 0,
        }
    }

    /// Bytes of pushed frames that crossed for nothing: all of a stream
    /// cancelled as [`Pushed::Written`], and of every other stream what
    /// its session, run one message a turn, did not send.
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

    /// The server's push: the keys on streams `1, 2, …`, each run when
    /// its value arrives. A key written since the digest vector is
    /// cancelled here.
    fn on_push(&mut self, names: Vec<Bytes>) -> Result<()> {
        if self.phase != ClientPhase::Start || names.len() as u64 != self.pushed {
            return Err(violation(format!(
                "a push of {} keys where {} were pushed, or after the exchange began",
                names.len(),
                self.pushed
            )));
        }
        for (stream, name) in (1..).zip(names) {
            let st = self.streams.get(&stream).expect("a pushed stream");
            if st.name != name {
                return Err(violation(format!("push on stream {stream} of another key")));
            }
            if st.written {
                self.excess += wire::bytes_len(name.len()) as u64;
                self.abort_stream(stream, "written_since_digest", true);
            }
        }
        Ok(())
    }

    /// A pushed stream's frame: an element is kept, the value runs the
    /// stream's session ([`replay`](Self::replay)). Every byte is excess
    /// until the session sends it.
    fn on_pushed(&mut self, stream: u64, msg: SessionMsg) -> Result<()> {
        self.excess += frame_len(stream, &msg);
        let st = self.streams.get(&stream).expect("a pushed stream");
        if st.aborted {
            return Ok(());
        }
        if st.finished {
            return Err(violation(format!(
                "a frame on pushed stream {stream} after its value"
            )));
        }
        match msg {
            SessionMsg::Vector(Msg::ElemS {
                site,
                value,
                conflict,
                segment,
            }) => {
                let element = Element {
                    site,
                    value,
                    conflict,
                    segment,
                };
                self.elements.entry(stream).or_default().push(element);
                Ok(())
            }
            SessionMsg::Payload { data } => self.replay(stream, data),
            other => Err(violation(format!("{other:?} on a pushed stream"))),
        }
    }

    /// A pushed stream's value: rebuilds the vector its elements came
    /// from and runs the stream's session against it, one message a
    /// turn — the walked key's session, so the receiver sees and counts
    /// the lockstep's messages. What the session's sender sends of the
    /// elements and the value is what crossed for it; its answer,
    /// `HALT`s and `SegSkipped`s never cross.
    fn replay(&mut self, stream: u64, value: Bytes) -> Result<()> {
        let elements = self.elements.remove(&stream).unwrap_or_default();
        let listed = elements.len();
        if listed == 0 {
            return Err(violation("a pushed stream opens with its value"));
        }
        let vector = Srv::from_order(elements);
        if vector.len() != listed {
            return Err(violation("a pushed stream names a site twice"));
        }
        let mut server = PullServer::new(vector, value);
        let st = self.streams.get_mut(&stream).expect("a pushed stream");
        let excess = &mut self.excess;
        let mut session = || -> Result<()> {
            loop {
                while let Some(msg) = st.client.poll_send() {
                    server.on_receive(msg)?;
                }
                let Some(msg) = server.poll_send() else {
                    debug_assert!(st.client.is_done(), "a session ends with its sender");
                    return Ok(());
                };
                if matches!(
                    msg,
                    SessionMsg::Vector(Msg::ElemS { .. }) | SessionMsg::Payload { .. }
                ) {
                    *excess -= frame_len(stream, &msg);
                }
                st.client.on_receive(msg)?;
            }
        };
        match session() {
            Ok(()) => self.settle(stream),
            Err(e) => self.abort_stream(stream, reason_label(&e), true),
        }
        Ok(())
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

/// The bytes of `msg`'s frame on `stream`: its stream id, its length,
/// the message.
fn frame_len(stream: u64, msg: &SessionMsg) -> u64 {
    let len = msg.encoded_len();
    (wire::varint_len(stream) + wire::bytes_len(len)) as u64
}

impl Endpoint for BatchPullClient {
    type Msg = Framed<MuxMsg>;

    fn poll_send(&mut self) -> Option<Framed<MuxMsg>> {
        if self.phase == ClientPhase::Start {
            // Streams are numbered in the order the objects were named.
            let mut opens = Vec::with_capacity(self.streams.len());
            for (&stream, st) in self.streams.range_mut(self.pushed + 1..) {
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
                            written: false,
                            client,
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
                if framed.stream <= self.pushed {
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
