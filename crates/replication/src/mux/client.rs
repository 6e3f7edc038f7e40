//! The pulling endpoint of a batched contact: one [`PullClient`] per
//! stream behind a single control stream.

use super::msg::{unknown_stream, violation, CtrlMsg, MuxMsg, StreamOpen, CONTROL_STREAM};
use super::{reason_label, FrameBytes};
use crate::protocol::{PullClient, PullOutcome, PullServer, SessionMsg};
use bytes::Bytes;
use optrep_core::error::Result;
use optrep_core::obs;
use optrep_core::sync::sender::SyncVector;
use optrep_core::sync::{Endpoint, Framed, Msg, WireMsg};
use optrep_core::{obs_emit, RotatingVector, Srv};
use std::collections::{BTreeMap, VecDeque};

/// What the pulling end holds of a key the server pushes, read as the
/// push is read ([`BatchPullClient::take_pushed`]).
#[derive(Debug, Clone)]
pub enum Pushed {
    /// The key at this vector, not written since the digest vector the
    /// plan answered: the push runs against it.
    Held(Srv),
    /// No record of the key: the push creates it, as an offer would.
    Absent,
    /// The key was written after the digest vector was read. The proof
    /// the push rests on does not cover that write, so the key is not
    /// run, what the push carried of it is excess, and it is left to
    /// the next contact.
    Written,
}

/// What one stream of a finished batched pull produced, or one key of
/// the push.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Stream the object rode on; [`CONTROL_STREAM`] for a pushed key,
    /// which rode none: its outcome's payload is then its value as the
    /// push carried it, `None` a tombstone
    /// ([`take_pushed`](BatchPullClient::take_pushed)).
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
    /// What each key of the push came to, in the push's order.
    pushed: Vec<StreamResult>,
    /// See [`push_price`](Self::push_price).
    push_price: FrameBytes,
    /// See [`excess_bytes`](Self::excess_bytes).
    excess: u64,
}

impl BatchPullClient {
    /// Creates a client pulling the named objects, with server-side
    /// discovery of unnamed objects enabled. A planned contact's client
    /// takes the keys pushed with the plan as well
    /// ([`take_pushed`](Self::take_pushed)), before the exchange begins.
    pub fn new<I>(objects: I) -> Self
    where
        I: IntoIterator<Item = (Bytes, Srv)>,
    {
        let streams: BTreeMap<u64, ClientStream> = (1..)
            .zip(objects)
            .map(|(stream, (name, vector))| {
                let st = ClientStream {
                    name,
                    discovered: false,
                    missing: false,
                    aborted: false,
                    finished: false,
                    client: PullClient::new(vector),
                };
                (stream, st)
            })
            .collect();
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
            pushed: Vec::new(),
            push_price: FrameBytes::default(),
            excess: 0,
        }
    }

    /// Bytes of the push that crossed for nothing — the lockstep would
    /// not have carried them: all of a key the puller wrote after its
    /// digest vector ([`Pushed::Written`]), and of every other key what
    /// its session, run one message a turn, did not send. Priced as
    /// [`push_price`](Self::push_price) prices the push.
    pub fn excess_bytes(&self) -> u64 {
        self.excess
    }

    /// What the keys taken from the push cost in the meta and payload
    /// planes, priced as their streams carried them before a push was
    /// one image: each element of a key's vector as the `SYNCS` message
    /// that sends it, its value as the payload that carries it — a tag,
    /// then the value. Δ/Γ/γ and the two planes of a pushed key are
    /// therefore those of the lockstep's stream; the rest of the push
    /// frame is framing ([`classify_push`](super::classify_push)).
    pub fn push_price(&self) -> FrameBytes {
        self.push_price
    }

    /// How many keys were taken from the push.
    pub(super) fn pushed(&self) -> usize {
        self.pushed.len()
    }

    /// Makes room for `keys` more keys of the push, so that taking them
    /// grows the list of their outcomes once.
    pub fn reserve_pushed(&mut self, keys: usize) {
        self.pushed.reserve_exact(keys);
    }

    /// The keys taken from the push, in its order.
    pub fn pushed_keys(&self) -> impl Iterator<Item = &Bytes> {
        self.pushed.iter().map(|result| &result.name)
    }

    /// Begins the exchange with no `BatchHello`: the plan walks no shard,
    /// so this end names nothing and nothing is left to discover.
    pub(super) fn open_without_hello(&mut self) {
        debug_assert!(self.streams.is_empty(), "named streams need a hello");
        self.phase = ClientPhase::Running;
    }

    /// Takes one key of the server's push, read off the image behind the
    /// plan: what this end holds of it, the vector the server sent and
    /// its value, a slice of the push (`None` a tombstone). The key's
    /// session runs here and now, against the server's vector, one
    /// message a turn — the walked key's session, so this end sees and
    /// counts the lockstep's messages, and what the session's sender
    /// sends of the elements and the value is what the push carried for
    /// it; its hello, the answer, its `HALT`s and `SegSkipped`s never
    /// cross. No stream is opened: the outcome is kept, and nothing else.
    /// A key written since the digest vector is not run.
    pub fn take_pushed(&mut self, name: Bytes, held: Pushed, vector: Srv, value: Option<Bytes>) {
        let payload = 1 + value.as_ref().map_or(0, Bytes::len) as u64;
        let meta: u64 = (vector.iter())
            .map(|e| SessionMsg::Vector(Srv::element_msg(e)).encoded_len() as u64)
            .sum();
        self.push_price.meta += meta;
        self.push_price.payload += payload;
        let (mut client, discovered) = match held {
            Pushed::Held(vector) => (PullClient::new(vector), false),
            Pushed::Absent => (PullClient::new(Srv::new()), true),
            Pushed::Written => {
                self.excess += meta + payload;
                self.pushed.push(StreamResult {
                    stream: CONTROL_STREAM,
                    name,
                    discovered: false,
                    aborted: true,
                    outcome: None,
                });
                return;
            }
        };
        let mut server = PullServer::new(vector, value.clone().unwrap_or_default());
        let mut sent = 0;
        let mut session = || -> Result<()> {
            loop {
                while let Some(msg) = client.poll_send() {
                    server.on_receive(msg)?;
                }
                let Some(msg) = server.poll_send() else {
                    debug_assert!(client.is_done(), "a session ends with its sender");
                    return Ok(());
                };
                sent += match &msg {
                    SessionMsg::Vector(Msg::ElemS { .. }) => msg.encoded_len() as u64,
                    SessionMsg::Payload { .. } => payload,
                    _ => 0,
                };
                client.on_receive(msg)?;
            }
        };
        let ran = session();
        self.excess += meta + payload - sent;
        let outcome = ran.ok().map(|()| {
            let mut outcome = client.finish();
            outcome.payload = outcome.payload.and(value);
            outcome
        });
        self.pushed.push(StreamResult {
            stream: CONTROL_STREAM,
            name,
            discovered,
            aborted: outcome.is_none(),
            outcome,
        });
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

    /// Consumes the finished client, yielding one result per pushed key,
    /// in the push's order, then one per stream.
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
        let mut results = self.pushed;
        results.extend(self.streams.into_iter().map(|(stream, st)| StreamResult {
            stream,
            name: st.name,
            discovered: st.discovered,
            aborted: st.aborted,
            outcome: if st.missing || st.aborted {
                None
            } else {
                Some(st.client.finish())
            },
        }));
        results
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
            for (&stream, st) in self.streams.iter_mut() {
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
                        },
                    );
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
                    .ok_or_else(|| unknown_stream(framed.stream))?;
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
