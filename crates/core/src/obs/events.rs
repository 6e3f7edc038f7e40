//! The event vocabulary: [`SessionTotals`] and [`SyncEvent`] with its
//! JSON line.

use crate::causality::Causality;
use crate::sync::ReceiverStats;
use std::borrow::Cow;

/// Per-session cost totals: the common currency all layer reports
/// convert into and [`CounterSink`](super::CounterSink) aggregates.
///
/// `sessions` is the number of completed sessions the value describes
/// (1 for a session report, 0 for connection-level byte totals), so
/// absorbing a totals value is a single call regardless of which layer
/// produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTotals {
    /// Completed sessions described by this value.
    pub sessions: u64,
    /// COMPARE bytes (the O(1) first-element exchange).
    pub compare_bytes: u64,
    /// Protocol metadata bytes (vector elements + control messages).
    pub meta_bytes: u64,
    /// Connection framing overhead bytes (stream id + length prefixes).
    pub framing_bytes: u64,
    /// Replica payload bytes.
    pub payload_bytes: u64,
    /// Metadata elements transferred.
    pub meta_elements: u64,
    /// `|Δ|`: elements applied (value strictly advanced).
    pub delta: u64,
    /// `|Γ|`: redundant elements received (value already known).
    pub gamma: u64,
    /// γ: segment skips requested.
    pub skips: u64,
}

impl SessionTotals {
    /// All wire bytes: compare + meta + framing + payload.
    pub fn wire_bytes(&self) -> u64 {
        self.compare_bytes + self.meta_bytes + self.framing_bytes + self.payload_bytes
    }

    /// Metadata-side wire bytes (compare + meta), the quantity tracked
    /// by `KvSyncReport::meta_bytes` (framing excluded).
    pub fn meta_wire_bytes(&self) -> u64 {
        self.compare_bytes + self.meta_bytes
    }
}

impl ReceiverStats {
    /// The receiver's counters as one absorbed session.
    pub fn totals(&self) -> SessionTotals {
        SessionTotals {
            sessions: 1,
            meta_elements: self.elements_received as u64,
            delta: self.delta as u64,
            gamma: self.gamma as u64,
            skips: self.skips as u64,
            ..SessionTotals::default()
        }
    }
}

/// One structured observation from the sync stack.
///
/// Identifiers: `session` numbers one object-level synchronization
/// (0 = unattributed, e.g. a receiver driven outside a session scope);
/// `contact` numbers one multiplexed connection contact.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncEvent {
    /// A synchronization session opened.
    SessionOpen {
        /// Session id.
        session: u64,
        /// Metadata scheme driving the session (`"BRV"`, `"SRV"`, …).
        scheme: Cow<'static, str>,
    },
    /// The COMPARE verdict for a session.
    Compare {
        /// Session id.
        session: u64,
        /// O(1) verdict produced by the rotating comparison.
        relation: Causality,
        /// The O(n) version-vector oracle's verdict, computed only when
        /// an installed sink [`wants_oracle`](super::Sink::wants_oracle).
        oracle: Option<Causality>,
        /// Bytes attributed to the comparison.
        cost_bytes: u64,
    },
    /// One vector element examined by a receiver.
    Element {
        /// Session id (0 when driven outside a session scope).
        session: u64,
        /// Site name `i` of the element.
        site: u32,
        /// Element value `b[i]`.
        value: u64,
        /// `true` iff the value was already known (`b[i] ≤ a[i]`) — a Γ
        /// element when redundant.
        known: bool,
        /// The element's conflict bit.
        conflict: bool,
        /// The element's trailing-segment bit.
        segment: bool,
    },
    /// A conflict bit observed on a known element (the receiver must
    /// keep listening past it).
    ConflictBit {
        /// Session id.
        session: u64,
        /// Site name of the tagged element.
        site: u32,
    },
    /// The receiver asked the sender to skip the rest of a segment.
    SegmentSkip {
        /// Session id.
        session: u64,
        /// Segment index, as counted by the receiver.
        seg: u64,
    },
    /// A reconcile decision for a concurrent pair.
    Reconcile {
        /// Session id.
        session: u64,
        /// `"merged"` when a reconciler combined the payloads,
        /// `"excluded"` when the conflict was only recorded.
        decision: Cow<'static, str>,
    },
    /// A session closed with its final totals.
    SessionClose {
        /// Session id.
        session: u64,
        /// Outcome label (`"fast_forwarded"`, `"reconciled"`, …).
        outcome: Cow<'static, str>,
        /// The session's cost totals.
        totals: SessionTotals,
    },
    /// One causal-graph node examined by a `SYNCG` receiver.
    GraphNode {
        /// Session id.
        session: u64,
        /// Node sequence number within its site's log.
        value: u64,
        /// `true` iff the node advanced the receiver's graph.
        applied: bool,
    },
    /// A multiplexed frame sent by a contact endpoint, with its bytes
    /// classified by `ContactReport::account`'s taxonomy.
    FrameTx {
        /// Enclosing contact id (0 outside a contact scope).
        contact: u64,
        /// Stream id (0 = connection control stream).
        stream: u64,
        /// `true` when the client endpoint sent the frame.
        client: bool,
        /// COMPARE bytes in the frame.
        compare: u64,
        /// Metadata bytes in the frame.
        meta: u64,
        /// Framing overhead bytes in the frame.
        framing: u64,
        /// Payload bytes in the frame.
        payload: u64,
    },
    /// A frame reassembled from a byte stream by `FrameDecoder`.
    FrameRx {
        /// Stream id of the decoded frame.
        stream: u64,
        /// Encoded size of the frame (header + payload).
        bytes: u64,
    },
    /// A multiplexed gossip contact began.
    ContactBegin {
        /// Contact id.
        contact: u64,
        /// Streams the client opens in its first burst.
        streams: u64,
    },
    /// A multiplexed gossip contact completed.
    ContactEnd {
        /// Contact id.
        contact: u64,
        /// Blocking round trips the contact cost.
        round_trips: u64,
        /// Connection-level byte totals (`sessions == 0`).
        totals: SessionTotals,
    },
    /// A gossip round started.
    GossipRound {
        /// 1-based round number.
        round: u64,
    },
    /// A message metered by a transport's [`LinkStats`] counters.
    ///
    /// [`LinkStats`]: https://docs.rs/optrep-net
    LinkBytes {
        /// `true` for the forward (a → b) direction.
        forward: bool,
        /// Encoded bytes of the message.
        bytes: u64,
    },
    /// Pipelining excess: payload bytes delivered after the receiver
    /// had already sent a negative response.
    LinkExcess {
        /// Excess bytes.
        bytes: u64,
    },
    /// A session (or a whole contact) aborted before a clean close: the
    /// link died, a frame was lost past the stall budget, or a peer
    /// produced an unrecoverable protocol error. Nothing staged by the
    /// aborted work is applied; the objects are re-pulled on the next
    /// contact.
    SessionAborted {
        /// Enclosing contact id (0 outside a contact scope).
        contact: u64,
        /// Stream whose session aborted; 0 when the whole contact
        /// (its control stream) went down.
        stream: u64,
        /// Stable snake_case abort reason (`"connection_lost"`,
        /// `"peer_failed"`, `"decode_error"`, `"stalled"`, …).
        reason: Cow<'static, str>,
    },
    /// A gossip-layer retry of a failed contact, with its capped
    /// exponential backoff.
    Retry {
        /// Site that initiated the contact (pull destination).
        dst: u32,
        /// Site it tried to contact (pull source).
        src: u32,
        /// 1-based attempt number that just failed.
        attempt: u64,
        /// Rounds the peer is quarantined before the next attempt
        /// (0 = retried within the same round).
        backoff: u64,
    },
}

impl SyncEvent {
    /// The event's kind as a stable snake_case label (the `"ev"` field
    /// of the JSONL schema).
    pub fn kind(&self) -> &'static str {
        match self {
            SyncEvent::SessionOpen { .. } => "session_open",
            SyncEvent::Compare { .. } => "compare",
            SyncEvent::Element { .. } => "element",
            SyncEvent::ConflictBit { .. } => "conflict_bit",
            SyncEvent::SegmentSkip { .. } => "segment_skip",
            SyncEvent::Reconcile { .. } => "reconcile",
            SyncEvent::SessionClose { .. } => "session_close",
            SyncEvent::GraphNode { .. } => "graph_node",
            SyncEvent::FrameTx { .. } => "frame_tx",
            SyncEvent::FrameRx { .. } => "frame_rx",
            SyncEvent::ContactBegin { .. } => "contact_begin",
            SyncEvent::ContactEnd { .. } => "contact_end",
            SyncEvent::GossipRound { .. } => "gossip_round",
            SyncEvent::LinkBytes { .. } => "link_bytes",
            SyncEvent::LinkExcess { .. } => "link_excess",
            SyncEvent::SessionAborted { .. } => "session_aborted",
            SyncEvent::Retry { .. } => "retry",
        }
    }

    /// Serializes the event as one JSON object (one JSONL line, without
    /// the trailing newline). Keys are fixed per kind; values are
    /// numbers, booleans and identifier strings, so no escaping is
    /// needed.
    pub fn to_json(&self) -> String {
        fn totals_json(t: &SessionTotals) -> String {
            format!(
                "{{\"sessions\":{},\"compare_bytes\":{},\"meta_bytes\":{},\
                 \"framing_bytes\":{},\"payload_bytes\":{},\"meta_elements\":{},\
                 \"delta\":{},\"gamma\":{},\"skips\":{}}}",
                t.sessions,
                t.compare_bytes,
                t.meta_bytes,
                t.framing_bytes,
                t.payload_bytes,
                t.meta_elements,
                t.delta,
                t.gamma,
                t.skips
            )
        }
        let kind = self.kind();
        match self {
            SyncEvent::SessionOpen { session, scheme } => {
                format!("{{\"ev\":\"{kind}\",\"session\":{session},\"scheme\":\"{scheme}\"}}")
            }
            SyncEvent::Compare {
                session,
                relation,
                oracle,
                cost_bytes,
            } => {
                let oracle = match oracle {
                    Some(o) => format!("\"{}\"", o.label()),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"ev\":\"{kind}\",\"session\":{session},\"relation\":\"{}\",\
                     \"oracle\":{oracle},\"cost_bytes\":{cost_bytes}}}",
                    relation.label()
                )
            }
            SyncEvent::Element {
                session,
                site,
                value,
                known,
                conflict,
                segment,
            } => format!(
                "{{\"ev\":\"{kind}\",\"session\":{session},\"site\":{site},\
                 \"value\":{value},\"known\":{known},\"conflict\":{conflict},\
                 \"segment\":{segment}}}"
            ),
            SyncEvent::ConflictBit { session, site } => {
                format!("{{\"ev\":\"{kind}\",\"session\":{session},\"site\":{site}}}")
            }
            SyncEvent::SegmentSkip { session, seg } => {
                format!("{{\"ev\":\"{kind}\",\"session\":{session},\"seg\":{seg}}}")
            }
            SyncEvent::Reconcile { session, decision } => {
                format!("{{\"ev\":\"{kind}\",\"session\":{session},\"decision\":\"{decision}\"}}")
            }
            SyncEvent::SessionClose {
                session,
                outcome,
                totals,
            } => format!(
                "{{\"ev\":\"{kind}\",\"session\":{session},\"outcome\":\"{outcome}\",\
                 \"totals\":{}}}",
                totals_json(totals)
            ),
            SyncEvent::GraphNode {
                session,
                value,
                applied,
            } => format!(
                "{{\"ev\":\"{kind}\",\"session\":{session},\"value\":{value},\
                 \"applied\":{applied}}}"
            ),
            SyncEvent::FrameTx {
                contact,
                stream,
                client,
                compare,
                meta,
                framing,
                payload,
            } => format!(
                "{{\"ev\":\"{kind}\",\"contact\":{contact},\"stream\":{stream},\
                 \"client\":{client},\"compare\":{compare},\"meta\":{meta},\
                 \"framing\":{framing},\"payload\":{payload}}}"
            ),
            SyncEvent::FrameRx { stream, bytes } => {
                format!("{{\"ev\":\"{kind}\",\"stream\":{stream},\"bytes\":{bytes}}}")
            }
            SyncEvent::ContactBegin { contact, streams } => {
                format!("{{\"ev\":\"{kind}\",\"contact\":{contact},\"streams\":{streams}}}")
            }
            SyncEvent::ContactEnd {
                contact,
                round_trips,
                totals,
            } => format!(
                "{{\"ev\":\"{kind}\",\"contact\":{contact},\"round_trips\":{round_trips},\
                 \"totals\":{}}}",
                totals_json(totals)
            ),
            SyncEvent::GossipRound { round } => {
                format!("{{\"ev\":\"{kind}\",\"round\":{round}}}")
            }
            SyncEvent::LinkBytes { forward, bytes } => {
                format!("{{\"ev\":\"{kind}\",\"forward\":{forward},\"bytes\":{bytes}}}")
            }
            SyncEvent::LinkExcess { bytes } => {
                format!("{{\"ev\":\"{kind}\",\"bytes\":{bytes}}}")
            }
            SyncEvent::SessionAborted {
                contact,
                stream,
                reason,
            } => format!(
                "{{\"ev\":\"{kind}\",\"contact\":{contact},\"stream\":{stream},\
                 \"reason\":\"{reason}\"}}"
            ),
            SyncEvent::Retry {
                dst,
                src,
                attempt,
                backoff,
            } => format!(
                "{{\"ev\":\"{kind}\",\"dst\":{dst},\"src\":{src},\
                 \"attempt\":{attempt},\"backoff\":{backoff}}}"
            ),
        }
    }

    /// Decodes one line [`to_json`](Self::to_json) wrote: its exact
    /// inverse, so `from_json(&e.to_json()) == Ok(e)`.
    ///
    /// Only that canonical line is accepted: the kind's keys in
    /// `to_json`'s order and nothing else, no whitespace, integers
    /// without sign or leading zero that fit the field, and labels of
    /// ASCII letters, digits and `_` (every label the stack emits is
    /// one).
    ///
    /// # Errors
    ///
    /// Names the first byte at which `line` departs from every line
    /// `to_json` can write.
    pub fn from_json(line: &str) -> Result<SyncEvent, String> {
        let mut r = Reader { line, rest: line };
        r.lit("{\"ev\":")?;
        let kind = r.word()?;
        let event = match kind {
            "session_open" => SyncEvent::SessionOpen {
                session: r.num("session")?,
                scheme: r.label("scheme")?,
            },
            "compare" => SyncEvent::Compare {
                session: r.num("session")?,
                relation: r.relation("relation")?,
                oracle: {
                    r.key("oracle")?;
                    if r.lit("null").is_ok() {
                        None
                    } else {
                        Some(r.causality()?)
                    }
                },
                cost_bytes: r.num("cost_bytes")?,
            },
            "element" => SyncEvent::Element {
                session: r.num("session")?,
                site: r.num("site")?,
                value: r.num("value")?,
                known: r.flag("known")?,
                conflict: r.flag("conflict")?,
                segment: r.flag("segment")?,
            },
            "conflict_bit" => SyncEvent::ConflictBit {
                session: r.num("session")?,
                site: r.num("site")?,
            },
            "segment_skip" => SyncEvent::SegmentSkip {
                session: r.num("session")?,
                seg: r.num("seg")?,
            },
            "reconcile" => SyncEvent::Reconcile {
                session: r.num("session")?,
                decision: r.label("decision")?,
            },
            "session_close" => SyncEvent::SessionClose {
                session: r.num("session")?,
                outcome: r.label("outcome")?,
                totals: r.totals()?,
            },
            "graph_node" => SyncEvent::GraphNode {
                session: r.num("session")?,
                value: r.num("value")?,
                applied: r.flag("applied")?,
            },
            "frame_tx" => SyncEvent::FrameTx {
                contact: r.num("contact")?,
                stream: r.num("stream")?,
                client: r.flag("client")?,
                compare: r.num("compare")?,
                meta: r.num("meta")?,
                framing: r.num("framing")?,
                payload: r.num("payload")?,
            },
            "frame_rx" => SyncEvent::FrameRx {
                stream: r.num("stream")?,
                bytes: r.num("bytes")?,
            },
            "contact_begin" => SyncEvent::ContactBegin {
                contact: r.num("contact")?,
                streams: r.num("streams")?,
            },
            "contact_end" => SyncEvent::ContactEnd {
                contact: r.num("contact")?,
                round_trips: r.num("round_trips")?,
                totals: r.totals()?,
            },
            "gossip_round" => SyncEvent::GossipRound {
                round: r.num("round")?,
            },
            "link_bytes" => SyncEvent::LinkBytes {
                forward: r.flag("forward")?,
                bytes: r.num("bytes")?,
            },
            "link_excess" => SyncEvent::LinkExcess {
                bytes: r.num("bytes")?,
            },
            "session_aborted" => SyncEvent::SessionAborted {
                contact: r.num("contact")?,
                stream: r.num("stream")?,
                reason: r.label("reason")?,
            },
            "retry" => SyncEvent::Retry {
                dst: r.num("dst")?,
                src: r.num("src")?,
                attempt: r.num("attempt")?,
                backoff: r.num("backoff")?,
            },
            _ => return Err(format!("unknown event kind {kind:?}")),
        };
        r.lit("}")?;
        if !r.rest.is_empty() {
            return Err(format!("trailing bytes at byte {}", r.at()));
        }
        Ok(event)
    }
}

/// A cursor over one event line, for [`SyncEvent::from_json`].
struct Reader<'a> {
    line: &'a str,
    rest: &'a str,
}

impl<'a> Reader<'a> {
    fn at(&self) -> usize {
        self.line.len() - self.rest.len()
    }

    fn lit(&mut self, lit: &str) -> Result<(), String> {
        let at = self.at();
        self.rest =
            (self.rest.strip_prefix(lit)).ok_or_else(|| format!("expected {lit} at byte {at}"))?;
        Ok(())
    }

    /// `,"key":` — every field but `"ev"` follows a comma.
    fn key(&mut self, key: &str) -> Result<(), String> {
        let at = self.at();
        self.rest = (self.rest.strip_prefix(",\""))
            .and_then(|r| r.strip_prefix(key))
            .and_then(|r| r.strip_prefix("\":"))
            .ok_or_else(|| format!("expected field {key:?} at byte {at}"))?;
        Ok(())
    }

    /// A canonical unsigned integer (no sign, no leading zero) that
    /// fits `T`.
    fn uint<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, String> {
        let len = self.rest.bytes().take_while(u8::is_ascii_digit).count();
        let (digits, rest) = self.rest.split_at(len);
        let canonical = len == 1 || !digits.starts_with('0');
        let value = digits.parse().ok().filter(|_| canonical);
        let value = value.and_then(|v: u64| T::try_from(v).ok());
        let value = value.ok_or_else(|| {
            format!(
                "field {key:?} is not an integer in range at byte {}",
                self.at()
            )
        })?;
        self.rest = rest;
        Ok(value)
    }

    fn num<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, String> {
        self.key(key)?;
        self.uint(key)
    }

    fn flag(&mut self, key: &str) -> Result<bool, String> {
        self.key(key)?;
        if self.lit("true").is_ok() {
            return Ok(true);
        }
        self.lit("false").map(|()| false)
    }

    /// A quoted label of ASCII letters, digits and `_`.
    fn word(&mut self) -> Result<&'a str, String> {
        let at = self.at();
        let quoted = self.rest.strip_prefix('"').and_then(|r| {
            let len = (r.bytes())
                .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
                .count();
            let rest = r[len..].strip_prefix('"')?;
            (len > 0).then(|| (&r[..len], rest))
        });
        let (word, rest) = quoted.ok_or_else(|| format!("expected a label at byte {at}"))?;
        self.rest = rest;
        Ok(word)
    }

    fn label(&mut self, key: &str) -> Result<Cow<'static, str>, String> {
        self.key(key)?;
        self.word().map(|w| Cow::Owned(w.to_string()))
    }

    fn causality(&mut self) -> Result<Causality, String> {
        let at = self.at();
        let word = self.word()?;
        [
            Causality::Equal,
            Causality::Before,
            Causality::After,
            Causality::Concurrent,
        ]
        .into_iter()
        .find(|c| c.label() == word)
        .ok_or_else(|| format!("unknown relation {word:?} at byte {at}"))
    }

    fn relation(&mut self, key: &str) -> Result<Causality, String> {
        self.key(key)?;
        self.causality()
    }

    /// `,"totals":{…}` with [`SessionTotals`]' fields in `to_json`'s order.
    fn totals(&mut self) -> Result<SessionTotals, String> {
        self.key("totals")?;
        self.lit("{\"sessions\":")?;
        let totals = SessionTotals {
            sessions: self.uint("sessions")?,
            compare_bytes: self.num("compare_bytes")?,
            meta_bytes: self.num("meta_bytes")?,
            framing_bytes: self.num("framing_bytes")?,
            payload_bytes: self.num("payload_bytes")?,
            meta_elements: self.num("meta_elements")?,
            delta: self.num("delta")?,
            gamma: self.num("gamma")?,
            skips: self.num("skips")?,
        };
        self.lit("}")?;
        Ok(totals)
    }
}
