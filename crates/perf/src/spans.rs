//! An in-memory span recorder around the calls the benchmark makes.
//!
//! The benchmark traces from outside: no span lives in a library crate.
//! A span is a name, a start and an end in nanoseconds since the
//! recorder's epoch, the span that caused it, and the round it belongs
//! to. Spans stay in memory and are written out as JSON lines when the
//! run ends. With tracing off the recorder still hands back durations —
//! the benchmark has one timing path — but stores nothing.

use crate::json::Json;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
    pub parent: Option<u32>,
    pub round: u32,
}

/// A span that has been opened and not yet closed.
#[derive(Debug)]
#[must_use = "close the span to get its duration"]
pub struct Open {
    id: Option<u32>,
    start: Instant,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        }
    }

    /// Starts or stops storing spans; durations are handed back either
    /// way. Only between spans: an open span must be closed first.
    ///
    /// # Panics
    ///
    /// Panics if a span is open (a bug in the benchmark).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "no span is open");
        self.enabled = enabled;
    }

    /// Spans opened from now on belong to `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: None,
                parent: self.stack.last().copied(),
                round: self.round,
            });
            self.stack.push(id);
            id
        });
        Open { id, start }
    }

    /// Closes `open` and returns how long it was open.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a bug in the benchmark).
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(id) = open.id {
            assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = Some(self.ns(end));
        }
        end.duration_since(open.start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every closed span called `name`, in
    /// recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| Some((s.end_ns? - s.start_ns) as f64 / 1e6))
            .collect()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// The writer's error.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        let self_ns = self_times(&self.spans);
        for (id, (span, self_ns)) in self.spans.iter().zip(self_ns).enumerate() {
            let end = span.end_ns.map_or("null".to_string(), |e| e.to_string());
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{end},\"parent\":{parent},\"round\":{},\"self_ns\":{self_ns}}}",
                span.name, span.start_ns, span.round
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once). An
/// open span has self time 0.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let (Some(parent), Some(end)) = (span.parent, span.end_ns) {
            children[parent as usize].push((span.start_ns, end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            let Some(end) = span.end_ns else { return 0 };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(end);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (end - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// A span as [`check`] sees it: `(start_ns, end_ns, parent)`.
pub type RawSpan = (u64, Option<u64>, Option<u32>);

/// Reads back what [`Recorder::write_jsonl`] wrote.
///
/// # Errors
///
/// `line: what is wrong with it` for the first line that is not a span
/// record with the id its position implies.
pub fn parse_jsonl(text: &str) -> Result<Vec<RawSpan>, String> {
    text.lines()
        .enumerate()
        .map(|(id, line)| {
            let json = Json::parse(line).map_err(|e| format!("{}: {e}", id + 1))?;
            let num = |key: &str| json.get(key).and_then(Json::as_f64);
            match (
                num("id"),
                json.get("name").and_then(Json::as_str),
                num("start_ns"),
            ) {
                (Some(seen), Some(_), Some(start)) if seen == id as f64 => Ok((
                    start as u64,
                    num("end_ns").map(|v| v as u64),
                    num("parent").map(|v| v as u32),
                )),
                _ => Err(format!("{}: not a span record", id + 1)),
            }
        })
        .collect()
}

/// What [`check`] found wrong with a trace, if anything.
#[derive(Debug, PartialEq, Eq)]
pub enum TraceFault {
    Open(usize),
    MissingParent(usize),
    OutsideParent(usize),
}

/// A well-formed trace: every span closed, every parent present and
/// recorded before its child, every child inside its parent.
///
/// # Errors
///
/// The first fault, with the index of the span that shows it.
pub fn check(spans: &[RawSpan]) -> Result<(), TraceFault> {
    for (id, &(start, end, parent)) in spans.iter().enumerate() {
        let end = end.ok_or(TraceFault::Open(id))?;
        if end < start {
            return Err(TraceFault::Open(id));
        }
        if let Some(parent) = parent {
            let &(p_start, p_end, _) = spans
                .get(parent as usize)
                .filter(|_| (parent as usize) < id)
                .ok_or(TraceFault::MissingParent(id))?;
            if start < p_start || p_end.is_some_and(|p_end| end > p_end) {
                return Err(TraceFault::OutsideParent(id));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: Some(end),
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            // Overlaps the previous child by 10 and the parent's end by 20.
            span(20, 120, Some(0)),
            span(25, 28, Some(1)),
        ];
        // Parent: 100 − (10..30 ∪ 20..100 = 90) = 10.
        assert_eq!(self_times(&spans), vec![10, 17, 100, 3]);
        let mut open = spans;
        open[0].end_ns = None;
        assert_eq!(self_times(&open)[0], 0);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_stores_nothing() {
        let mut rec = Recorder::new(true);
        rec.set_round(3);
        let outer = rec.open("round");
        let inner = rec.open("sync_verb");
        assert!(rec.close(inner) <= rec.close(outer));
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].round, 3);
        assert_eq!(rec.durations_ms("sync_verb").len(), 1);
        let mut jsonl = Vec::new();
        rec.write_jsonl(&mut jsonl).expect("vec write");
        let raw = parse_jsonl(std::str::from_utf8(&jsonl).expect("ascii")).expect("own output");
        let recorded: Vec<RawSpan> = rec
            .spans()
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.parent))
            .collect();
        assert_eq!(raw, recorded);
        assert_eq!(check(&raw), Ok(()));
        assert!(parse_jsonl("{\"id\":3}").is_err());

        let mut off = Recorder::new(false);
        let t = off.open("round");
        let _ = off.close(t);
        assert!(off.spans().is_empty());
        off.set_enabled(true);
        let t = off.open("round");
        let _ = off.close(t);
        off.set_enabled(false);
        let t = off.open("round");
        let _ = off.close(t);
        assert_eq!(off.spans().len(), 1);
    }

    #[test]
    fn check_names_the_fault() {
        assert_eq!(check(&[(0, None, None)]), Err(TraceFault::Open(0)));
        assert_eq!(
            check(&[(0, Some(5), Some(7))]),
            Err(TraceFault::MissingParent(0))
        );
        assert_eq!(
            check(&[(0, Some(5), None), (3, Some(9), Some(0))]),
            Err(TraceFault::OutsideParent(1))
        );
    }
}
