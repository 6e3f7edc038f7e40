//! [`CheckSink`]: the trace invariants, checked online as a sink and
//! offline over a JSONL trace by [`check_trace`].

use super::{lock_recovering, SessionTotals, Sink, SyncEvent};
use std::collections::{HashMap, HashSet};

/// The one implementation of the trace invariants: installed as a sink
/// it checks a run as it happens (a violation panics with its
/// description), and [`check_trace`] replays a recorded trace through
/// it.
///
/// Checked invariants:
///
/// 1. **Byte conservation** — within one contact, the classified bytes
///    of every `FrameTx` must sum to the `ContactEnd` totals: the
///    per-frame attribution and the contact report are two independent
///    accountings of the same wire traffic.
/// 2. **Session counter conservation** — every close reports
///    `meta_elements = Δ + Γ`, and the `Element`/`SegmentSkip` events
///    observed during a session must reproduce the `Δ`/`Γ`/γ counters
///    reported at `SessionClose`.
/// 3. **SYNCS transfer bound (Theorem 5.1)** — for every scoped `SRV`
///    session (a scope is always driven in lockstep), every received
///    element is either applied (`|Δ|`) or redundant, and the redundancy
///    is O(γ): at most one element per skip request, one per observed
///    segment boundary, plus the single halting element.
///    `Γ ≤ γ + boundaries + 1`.
/// 4. **COMPARE oracle agreement** — the O(1) rotating verdict must
///    match the O(n) version-vector comparison whenever the oracle is
///    attached ([`wants_oracle`](Sink::wants_oracle) makes emission
///    sites compute it).
/// 5. **Pairing** — a session opens once and closes once, after its
///    open, and `Element`/`SegmentSkip` events name an open session (or
///    session 0, events outside any scope); a contact begins once and
///    ends once, after its begin. A whole-contact abort (stream 0)
///    discards the contact and the sessions open at the time. What is
///    still open when the run ends is reported by
///    [`finish`](CheckSink::finish).
#[derive(Debug, Default)]
pub struct CheckSink {
    state: std::sync::Mutex<CheckState>,
}

#[derive(Debug, Default)]
struct CheckState {
    /// Events checked so far: an event's number is its line in a trace.
    events: u64,
    sessions: HashMap<u64, SessionCheck>,
    closed: HashSet<u64>,
    contacts: HashMap<u64, ContactCheck>,
    ended: HashSet<u64>,
    checked_sessions: u64,
    checked_contacts: u64,
    checked_compares: u64,
    aborted: u64,
}

#[derive(Debug, Default)]
struct SessionCheck {
    opened_at: u64,
    srv: bool,
    delta: u64,
    gamma: u64,
    skips: u64,
    boundaries: u64,
}

#[derive(Debug, Default)]
struct ContactCheck {
    begun_at: u64,
    frames: SessionTotals,
}

impl CheckState {
    /// The open session `session` names; `None` for session 0.
    fn open_session(&mut self, session: u64) -> Result<Option<&mut SessionCheck>, String> {
        match self.sessions.get_mut(&session) {
            None if session != 0 => Err(format!("session {session} has events but is not open")),
            check => Ok(check),
        }
    }
}

impl CheckSink {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks one event against the events checked before it.
    ///
    /// # Errors
    ///
    /// Describes the invariant `event` breaks.
    pub fn check(&self, event: &SyncEvent) -> Result<(), String> {
        let mut state = lock_recovering(&self.state);
        state.events += 1;
        let line = state.events;
        match event {
            SyncEvent::SessionOpen { session, scheme } => {
                if state.sessions.contains_key(session) || state.closed.contains(session) {
                    return Err(format!("session {session} opened twice"));
                }
                let check = SessionCheck {
                    opened_at: line,
                    srv: scheme == "SRV",
                    ..SessionCheck::default()
                };
                state.sessions.insert(*session, check);
            }
            SyncEvent::Compare {
                session,
                relation,
                oracle: Some(oracle),
                ..
            } => {
                if relation != oracle {
                    return Err(format!(
                        "session {session}: COMPARE verdict {relation:?} disagrees \
                         with the O(n) version-vector oracle {oracle:?}"
                    ));
                }
                state.checked_compares += 1;
            }
            SyncEvent::Element {
                session,
                known,
                segment,
                ..
            } => {
                if let Some(check) = state.open_session(*session)? {
                    if *known {
                        check.gamma += 1;
                        check.boundaries += u64::from(*segment);
                    } else {
                        check.delta += 1;
                    }
                }
            }
            SyncEvent::SegmentSkip { session, .. } => {
                if let Some(check) = state.open_session(*session)? {
                    check.skips += 1;
                }
            }
            SyncEvent::SessionClose {
                session,
                outcome,
                totals,
            } => {
                let Some(check) = state.sessions.remove(session) else {
                    return Err(match state.closed.contains(session) {
                        true => format!("session {session} closed twice"),
                        false => format!("session {session} closed before open"),
                    });
                };
                state.closed.insert(*session);
                if totals.meta_elements != totals.delta + totals.gamma {
                    return Err(format!(
                        "session {session}: element accounting identity broken \
                         (meta_elements {} ≠ Δ {} + Γ {})",
                        totals.meta_elements, totals.delta, totals.gamma
                    ));
                }
                // Element events are only observable when the receiver
                // ran inside the scope; a session that reports elements
                // none of which were observed has nothing to cross-check.
                let observed = (check.delta, check.gamma, check.skips);
                if observed != (0, 0, 0) || totals.meta_elements == 0 {
                    if observed != (totals.delta, totals.gamma, totals.skips) {
                        return Err(format!(
                            "session {session} ({outcome}): event-derived Δ/Γ/γ \
                             {observed:?} disagree with reported totals {totals:?}"
                        ));
                    }
                    if check.srv && totals.gamma > totals.skips + check.boundaries + 1 {
                        return Err(format!(
                            "session {session}: SYNCS redundancy Γ={} exceeds \
                             γ={} + boundaries={} + 1 (Theorem 5.1)",
                            totals.gamma, totals.skips, check.boundaries
                        ));
                    }
                    state.checked_sessions += 1;
                }
            }
            SyncEvent::ContactBegin { contact, .. } => {
                if state.contacts.contains_key(contact) || state.ended.contains(contact) {
                    return Err(format!("contact {contact} begun twice"));
                }
                let check = ContactCheck {
                    begun_at: line,
                    ..ContactCheck::default()
                };
                state.contacts.insert(*contact, check);
            }
            SyncEvent::FrameTx {
                contact,
                compare,
                meta,
                framing,
                payload,
                ..
            } => {
                if let Some(check) = state.contacts.get_mut(contact) {
                    check.frames.compare_bytes += compare;
                    check.frames.meta_bytes += meta;
                    check.frames.framing_bytes += framing;
                    check.frames.payload_bytes += payload;
                }
            }
            SyncEvent::ContactEnd {
                contact, totals, ..
            } => {
                let Some(check) = state.contacts.remove(contact) else {
                    return Err(match state.ended.contains(contact) {
                        true => format!("contact {contact} ended twice"),
                        false => format!("contact {contact} ended before it began"),
                    });
                };
                state.ended.insert(*contact);
                let (sums, t) = (check.frames, totals);
                let planes = [
                    ("compare", sums.compare_bytes, t.compare_bytes),
                    ("meta", sums.meta_bytes, t.meta_bytes),
                    ("framing", sums.framing_bytes, t.framing_bytes),
                    ("payload", sums.payload_bytes, t.payload_bytes),
                ];
                if let Some((plane, sum, total)) = planes.into_iter().find(|(_, s, t)| s != t) {
                    return Err(format!(
                        "contact {contact}: frame_tx {plane} bytes sum to {sum}, \
                         the contact report says {total} (byte conservation)"
                    ));
                }
                state.checked_contacts += 1;
            }
            SyncEvent::SessionAborted {
                contact, stream, ..
            } => {
                // An aborted contact never emits `ContactEnd`, so its
                // pending frame attribution is discarded rather than
                // conservation-checked; likewise any sessions opened
                // under it never close.
                if *stream == 0 {
                    state.contacts.remove(contact);
                    state.sessions.clear();
                }
                state.aborted += 1;
            }
            _ => {}
        }
        Ok(())
    }

    /// Checks the end of a run: every session opened has closed and
    /// every contact begun has ended (or aborted).
    ///
    /// # Errors
    ///
    /// Names the earliest session or contact still open, by the number
    /// of its opening event.
    pub fn finish(&self) -> Result<(), String> {
        let state = lock_recovering(&self.state);
        let session = state.sessions.iter().map(|(id, s)| (s.opened_at, id)).min();
        if let Some((line, id)) = session {
            return Err(format!("line {line}: session {id} opened but never closed"));
        }
        let contact = state.contacts.iter().map(|(id, c)| (c.begun_at, id)).min();
        if let Some((line, id)) = contact {
            return Err(format!("line {line}: contact {id} begun but never ended"));
        }
        Ok(())
    }

    /// Number of sessions whose close-time invariants were checked.
    pub fn checked_sessions(&self) -> u64 {
        lock_recovering(&self.state).checked_sessions
    }

    /// Number of contacts whose byte conservation was checked.
    pub fn checked_contacts(&self) -> u64 {
        lock_recovering(&self.state).checked_contacts
    }

    /// Number of COMPARE verdicts checked against the oracle.
    pub fn checked_compares(&self) -> u64 {
        lock_recovering(&self.state).checked_compares
    }

    /// Number of aborted sessions/contacts whose pending state was
    /// discarded rather than conservation-checked.
    pub fn aborted(&self) -> u64 {
        lock_recovering(&self.state).aborted
    }
}

impl Sink for CheckSink {
    fn wants_oracle(&self) -> bool {
        true
    }

    fn record(&self, event: &SyncEvent) {
        if let Err(e) = self.check(event) {
            panic!("CheckSink: {e}");
        }
    }
}

/// Checks a JSONL trace as [`JsonlSink`](super::JsonlSink) writes it:
/// every line must decode with [`SyncEvent::from_json`] and pass
/// [`CheckSink::check`], and the trace must pass
/// [`CheckSink::finish`]. Returns the number of events.
///
/// # Errors
///
/// The first violation, prefixed with the line it was found on.
pub fn check_trace(text: &str) -> Result<usize, String> {
    let check = CheckSink::new();
    let mut events = 0;
    for (i, line) in text.lines().enumerate() {
        SyncEvent::from_json(line)
            .and_then(|event| check.check(&event))
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        events += 1;
    }
    if events == 0 {
        return Err("empty trace".to_string());
    }
    check.finish()?;
    Ok(events)
}
