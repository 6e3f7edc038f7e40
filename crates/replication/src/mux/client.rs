//! The pulling endpoint of a batched contact: one [`PullClient`] per
//! stream behind a single control stream.

use super::msg::{unknown_stream, violation, CtrlMsg, MuxMsg, StreamOpen, CONTROL_STREAM};
use super::reason_label;
use crate::protocol::{PullClient, PullOutcome, SessionMsg};
use bytes::Bytes;
use optrep_core::error::Result;
use optrep_core::obs;
use optrep_core::sync::{Endpoint, Framed};
use optrep_core::{obs_emit, Srv};
use std::collections::{BTreeMap, VecDeque};

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
}

impl BatchPullClient {
    /// Creates a client pulling the named objects, with server-side
    /// discovery of unnamed objects enabled.
    pub fn new<I>(objects: I) -> Self
    where
        I: IntoIterator<Item = (Bytes, Srv)>,
    {
        let mut streams = BTreeMap::new();
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
        }
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
            reason,
        });
    }
}

impl Endpoint for BatchPullClient {
    type Msg = Framed<MuxMsg>;

    fn poll_send(&mut self) -> Option<Framed<MuxMsg>> {
        if self.phase == ClientPhase::Start {
            // Streams are numbered in the order the objects were named.
            let mut opens = Vec::with_capacity(self.streams.len());
            for (&stream, st) in &mut self.streams {
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
    use optrep_core::RotatingVector;

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
