//! The serving endpoint of a batched contact — one [`PullServer`] per
//! opened stream — and its turn discipline, one received frame at a time.

use super::msg::{
    decode_frame_msg, marker_fin, put_marker, unknown_stream, violation, CtrlMsg, MuxMsg,
    StreamAnswer, StreamOffer, CONTROL_STREAM, STALLED, TURN_STREAM,
};
use crate::protocol::{PullServer, SessionMsg};
use bytes::{Bytes, BytesMut};
use optrep_core::error::Result;
use optrep_core::sync::{Endpoint, Framed, WireMsg};
use optrep_core::{wire, SiteId, Srv};
use std::collections::{BTreeMap, VecDeque};

/// The fields of a per-stream `ServerFirst` answer:
/// `(first, client_known, client_equal)`.
type ServerFirstFields = (Option<(SiteId, u64)>, bool, bool);

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
                    return Err(violation("BatchHello after connection start"));
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
                        return Err(violation("open names the control stream"));
                    }
                    if !seen.insert(open.stream) {
                        return Err(violation(format!("open reuses stream {}", open.stream)));
                    }
                    highest = highest.max(open.stream);
                }
                let mut next_stream = highest
                    .checked_add(1)
                    .ok_or_else(|| violation("stream id space exhausted"))?;
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
                        next_stream = next_stream
                            .checked_add(1)
                            .ok_or_else(|| violation("stream id space exhausted"))?;
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
                        return Err(unknown_stream(stream));
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
                        return Err(unknown_stream(stream));
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
                    return Err(unknown_stream(framed.stream));
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
            MuxMsg::Ctrl(other) => Err(violation(format!("{other:?} at server"))),
        }
    }

    fn is_done(&self) -> bool {
        self.seen_hello && self.outbox.is_empty() && self.unfinished == 0
    }
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
/// blocking pump ([`serve_contact`](super::serve_contact)), the in-process
/// link and the daemon's readiness-driven event loop share one state
/// machine: absorb
/// burst frames silently; on a turn marker answer exactly *one* frame
/// plus a turn marker; on the client's FIN marker drain the whole
/// outbox, confirm completion, and append the server's FIN marker.
///
/// # Errors
///
/// Decode errors and protocol violations;
/// [`Error::Incomplete`](optrep_core::Error::Incomplete) if the client
/// passes the turn before opening, or FINs while streams are still open; a protocol error for any frame after the contact ended.
/// The caller must treat any error as poisoning the connection.
pub fn serve_frame(
    server: &mut BatchPullServer,
    frame: wire::Frame,
    out: &mut BytesMut,
) -> Result<ServeStep> {
    if server.closed {
        return Err(violation("frame after the contact ended"));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::fixtures::{dirty_pair, name, vec_with};
    use crate::mux::StreamOpen;

    #[test]
    fn no_discovery_leaves_server_objects_alone() {
        let mut server = BatchPullServer::new(vec![
            (Bytes::from_static(b"a"), vec_with(&[1]), Bytes::new()),
            (Bytes::from_static(b"b"), vec_with(&[2]), Bytes::new()),
        ]);
        let hello = CtrlMsg::BatchHello {
            discover: false,
            opens: vec![StreamOpen {
                stream: 1,
                name: Bytes::from_static(b"a"),
                first: None,
            }],
        };
        server
            .on_receive(Framed::new(CONTROL_STREAM, MuxMsg::Ctrl(hello)))
            .unwrap();
        let Some(MuxMsg::Ctrl(CtrlMsg::BatchServerFirst { answers, offers })) =
            server.poll_send().map(|framed| framed.msg)
        else {
            panic!("the hello is answered first");
        };
        assert_eq!((answers.len(), offers.len()), (1, 0));
        assert_eq!(
            server.object_count(),
            1,
            "`b` was neither named nor offered"
        );
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
}
