//! Renders per-session timelines and cost histograms from a JSONL event
//! trace written by `optrep_core::obs::JsonlSink`, each line decoded with
//! `SyncEvent::from_json`.
//!
//! Usage:
//!
//! ```text
//! timeline <events.jsonl>
//! ```
//!
//! Produce a trace by running the tables binary with the sink enabled:
//!
//! ```text
//! OPTREP_OBS_JSONL=/tmp/e8.jsonl cargo run --release --bin tables e8
//! cargo run --release --bin timeline /tmp/e8.jsonl
//! ```
//!
//! The output has three parts: one row per sync session (scheme, outcome,
//! |Δ|, |Γ|, γ, wire bytes, and a compact event trail), power-of-two
//! histograms over the per-session Δ / Γ / γ / byte distributions, and a
//! contact summary aggregating the mux frame-byte taxonomy.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

use optrep_bench::Table;
use optrep_core::obs::SyncEvent;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let path = match args.next() {
        Some(p) if p != "--help" && p != "-h" => p,
        _ => {
            eprintln!("usage: timeline <events.jsonl>");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("timeline: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let events = text
        .lines()
        .enumerate()
        .map(|(i, line)| SyncEvent::from_json(line).map_err(|e| format!("line {}: {e}", i + 1)));
    let events = match events.collect::<Result<Vec<_>, _>>() {
        Ok(events) => events,
        Err(e) => {
            eprintln!("timeline: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    // Ignore a failed write so `timeline … | head` ends quietly on the
    // reader closing the pipe instead of panicking.
    let _ = std::io::stdout().write_all(render(&events).as_bytes());
    ExitCode::SUCCESS
}

/// Accumulated view of one sync session, in event order.
#[derive(Default)]
struct Session {
    scheme: String,
    relation: String,
    outcome: String,
    elements: u64,
    skips: u64,
    conflicts: u64,
    reconcile: String,
    delta: u64,
    gamma: u64,
    close_skips: u64,
    wire_bytes: u64,
    closed: bool,
}

impl Session {
    /// A compact trail like `open compare elem×12 skip×3 reconcile close`.
    fn trail(&self) -> String {
        let mut t = String::from("open");
        if !self.relation.is_empty() {
            t.push_str(" compare");
        }
        if self.elements > 0 {
            t.push_str(&format!(" elem×{}", self.elements));
        }
        if self.skips > 0 {
            t.push_str(&format!(" skip×{}", self.skips));
        }
        if self.conflicts > 0 {
            t.push_str(&format!(" conflict×{}", self.conflicts));
        }
        if !self.reconcile.is_empty() {
            t.push_str(&format!(" reconcile[{}]", self.reconcile));
        }
        if self.closed {
            t.push_str(" close");
        }
        t
    }
}

fn render(events: &[SyncEvent]) -> String {
    let mut sessions: BTreeMap<u64, Session> = BTreeMap::new();
    let mut contacts = 0u64;
    let mut round_trips = 0u64;
    let mut frames = 0u64;
    let mut compare_bytes = 0u64;
    let mut meta_bytes = 0u64;
    let mut framing_bytes = 0u64;
    let mut payload_bytes = 0u64;
    let mut gossip_rounds = 0u64;
    let mut link_bytes = 0u64;
    let mut link_excess = 0u64;

    for event in events {
        match event {
            SyncEvent::SessionOpen { session, scheme } => {
                sessions.entry(*session).or_default().scheme = scheme.to_string();
            }
            SyncEvent::Compare {
                session, relation, ..
            } => {
                sessions.entry(*session).or_default().relation = relation.label().to_string();
            }
            SyncEvent::Element { session, .. } => {
                sessions.entry(*session).or_default().elements += 1
            }
            SyncEvent::SegmentSkip { session, .. } => {
                sessions.entry(*session).or_default().skips += 1
            }
            SyncEvent::ConflictBit { session, .. } => {
                sessions.entry(*session).or_default().conflicts += 1
            }
            SyncEvent::Reconcile { session, decision } => {
                sessions.entry(*session).or_default().reconcile = decision.to_string();
            }
            SyncEvent::SessionClose {
                session,
                outcome,
                totals,
            } => {
                let entry = sessions.entry(*session).or_default();
                entry.outcome = outcome.to_string();
                entry.delta = totals.delta;
                entry.gamma = totals.gamma;
                entry.close_skips = totals.skips;
                entry.wire_bytes = totals.wire_bytes();
                entry.closed = true;
            }
            SyncEvent::ContactEnd {
                round_trips: trips, ..
            } => {
                contacts += 1;
                round_trips += trips;
            }
            SyncEvent::FrameTx {
                compare,
                meta,
                framing,
                payload,
                ..
            } => {
                frames += 1;
                compare_bytes += compare;
                meta_bytes += meta;
                framing_bytes += framing;
                payload_bytes += payload;
            }
            SyncEvent::GossipRound { .. } => gossip_rounds += 1,
            SyncEvent::LinkBytes { bytes, .. } => link_bytes += bytes,
            SyncEvent::LinkExcess { bytes } => link_excess += bytes,
            _ => {}
        }
    }

    let mut timeline = Table::new(
        "per-session timeline",
        &[
            "session", "scheme", "relation", "outcome", "|Δ|", "|Γ|", "γ", "bytes", "trail",
        ],
    );
    // Session 0 collects events emitted outside any session scope
    // (interleaved mux streams); it is not a session of its own.
    let unattributed = sessions
        .get(&0)
        .map(|s| s.elements + s.skips + s.conflicts)
        .unwrap_or(0);
    sessions.remove(&0);
    for (id, sess) in &sessions {
        timeline.row([
            id.to_string(),
            sess.scheme.clone(),
            sess.relation.clone(),
            sess.outcome.clone(),
            sess.delta.to_string(),
            sess.gamma.to_string(),
            sess.close_skips.to_string(),
            sess.wire_bytes.to_string(),
            sess.trail(),
        ]);
    }
    timeline.note(format!("{} sessions", sessions.len()));
    if unattributed > 0 {
        timeline.note(format!(
            "{unattributed} events outside session scopes (interleaved mux streams)"
        ));
    }
    let mut out = String::new();
    let _ = writeln!(out, "{timeline}");

    let closed: Vec<&Session> = sessions.values().filter(|s| s.closed).collect();
    let _ = write!(
        out,
        "{}",
        histogram(
            "|Δ| histogram (new updates)",
            closed.iter().map(|s| s.delta)
        )
    );
    let _ = write!(
        out,
        "{}",
        histogram(
            "|Γ| histogram (redundant elements)",
            closed.iter().map(|s| s.gamma)
        )
    );
    let _ = write!(
        out,
        "{}",
        histogram(
            "γ histogram (skipped segments)",
            closed.iter().map(|s| s.close_skips)
        )
    );
    let _ = writeln!(
        out,
        "{}",
        histogram(
            "session wire-byte histogram",
            closed.iter().map(|s| s.wire_bytes)
        )
    );

    let mut summary = Table::new("aggregate", &["metric", "value"]);
    summary
        .row(["contacts", &contacts.to_string()])
        .row(["round trips", &round_trips.to_string()])
        .row(["frames sent", &frames.to_string()])
        .row(["compare bytes", &compare_bytes.to_string()])
        .row(["metadata bytes", &meta_bytes.to_string()])
        .row(["framing bytes", &framing_bytes.to_string()])
        .row(["payload bytes", &payload_bytes.to_string()])
        .row(["gossip rounds", &gossip_rounds.to_string()])
        .row(["link bytes (both ways)", &link_bytes.to_string()])
        .row(["link excess (β overrun)", &link_excess.to_string()]);
    let _ = write!(out, "{summary}");
    out
}

/// Renders a power-of-two bucketed histogram (`0`, `1`, `2`, `3–4`,
/// `5–8`, …) with a unicode bar per bucket.
fn histogram(title: &str, values: impl Iterator<Item = u64>) -> Table {
    let values: Vec<u64> = values.collect();
    let mut buckets: BTreeMap<u32, u64> = BTreeMap::new();
    for &v in &values {
        // Bucket index: 0→0, 1→1, 2→2, 3..4→3, 5..8→4, 2^(k-2)+1..2^(k-1)→k.
        let idx = match v {
            0 => 0,
            1 => 1,
            n => 64 - (n - 1).leading_zeros() + 1,
        };
        *buckets.entry(idx).or_default() += 1;
    }
    let max = buckets.values().copied().max().unwrap_or(0);
    let mut t = Table::new(title, &["bucket", "count", "bar"]);
    for (&idx, &count) in &buckets {
        let label = match idx {
            0 => "0".to_string(),
            1 => "1".to_string(),
            2 => "2".to_string(),
            k => format!("{}–{}", (1u64 << (k - 2)) + 1, 1u64 << (k - 1)),
        };
        let bar_len = if max == 0 {
            0
        } else {
            (count * 40).div_ceil(max) as usize
        };
        t.row([label, count.to_string(), "▪".repeat(bar_len)]);
    }
    t.note(format!("{} samples", values.len()));
    t
}
