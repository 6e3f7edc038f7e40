//! The offline trace checker against a corpus of corrupted traces.
//!
//! One real trace is recorded with `JsonlSink` (beside an online
//! `CheckSink`, which also makes every COMPARE carry its oracle): an
//! in-process `KvStore::sync` pull, whose contact is a multiplexed
//! exchange, and one round of an SRV gossip `Cluster`, whose contacts
//! are per-object sessions. `obs::check_trace` must accept the trace as
//! recorded and reject each single corruption of it, naming the line
//! where the violation shows: the corrupted line itself, or, for a
//! counter or a byte plane that only disagrees with its total, the
//! `session_close` / `contact_end` line that reports the total.

use std::sync::{Arc, Mutex};

use optrep::core::obs::{self, check_trace, CheckSink, JsonlSink};
use optrep::core::rng::SplitMix64;
use optrep::core::{SiteId, Srv};
use optrep::kv::KvStore;
use optrep::replication::payload::TokenSet;
use optrep::replication::reconcile::UnionReconciler;
use optrep::replication::{Cluster, ContactOptions, ObjectId};

/// A writer into a buffer the test keeps a handle on.
struct Shared(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Records the corpus trace, one event a line.
fn record() -> Vec<String> {
    let obj = ObjectId::new(7);
    let mut rng = SplitMix64::new(7);
    // An SRV cluster with a reconciled history, so the traced round
    // meets tagged elements, segment boundaries and skips.
    let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(6, UnionReconciler);
    cluster
        .site_mut(SiteId::new(0))
        .create_object(obj, TokenSet::singleton("init"));
    let opts = ContactOptions::direct().with_object(obj);
    for round in 0..6u32 {
        cluster.round_with(&mut rng, &opts).expect("gossip round");
        for i in 0..6u32 {
            let site = SiteId::new(i);
            if cluster.site(site).replica(obj).is_some() {
                cluster.site_mut(site).update(obj, |p| {
                    p.insert(format!("{site}:{round}"));
                });
            }
        }
    }
    let mut dst = KvStore::with_shards(SiteId::new(0), 4);
    let mut src = KvStore::with_shards(SiteId::new(1), 4);
    for k in 0..8 {
        src.put(format!("k{k}"), format!("v{k}"));
    }
    dst.put("k0", "mine");

    let buf = Arc::new(Mutex::new(Vec::new()));
    let jsonl = Arc::new(JsonlSink::new(Box::new(Shared(buf.clone()))));
    let check = Arc::new(CheckSink::new());
    obs::with(check.clone(), || {
        obs::with(jsonl.clone(), || {
            dst.sync(&src).run().expect("store pull");
            cluster.round_with(&mut rng, &opts).expect("gossip round");
        })
    });
    check.finish().expect("the recorded run passes online");
    jsonl.flush().unwrap();
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    text.lines().map(str::to_string).collect()
}

/// The 1-based number of the first line holding every one of `parts`.
fn find(lines: &[String], parts: &[&str]) -> usize {
    1 + lines
        .iter()
        .position(|l| parts.iter().all(|p| l.contains(p)))
        .unwrap_or_else(|| panic!("no line holds {parts:?}"))
}

/// `lines` with line `n`'s first `from` replaced by `to`.
fn replace(lines: &[String], n: usize, from: &str, to: &str) -> Vec<String> {
    let mut out = lines.to_vec();
    assert!(out[n - 1].contains(from), "{from} not on line {n}");
    out[n - 1] = out[n - 1].replacen(from, to, 1);
    out
}

/// `lines` with line `n` replaced by `line`.
fn with_line(lines: &[String], n: usize, line: String) -> Vec<String> {
    let mut out = lines.to_vec();
    out[n - 1] = line;
    out
}

/// `lines` with line `n` written twice.
fn repeat(lines: &[String], n: usize) -> Vec<String> {
    let mut out = lines.to_vec();
    out.insert(n, out[n - 1].clone());
    out
}

/// `lines` without line `n`.
fn drop_line(lines: &[String], n: usize) -> Vec<String> {
    let mut out = lines.to_vec();
    out.remove(n - 1);
    out
}

/// `line` with its `"key":N` raised to `N + by`.
fn bump(line: &str, key: &str, by: u64) -> String {
    let value = field(line, key);
    let from = format!("\"{key}\":{value}");
    line.replacen(&from, &format!("\"{key}\":{}", value + by), 1)
}

/// The value of `"key":N` on `line`.
fn field(line: &str, key: &str) -> u64 {
    let at = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn the_recorded_trace_passes() {
    let lines = record();
    let kinds = [
        "session_open",
        "compare",
        "element",
        "segment_skip",
        "session_close",
        "contact_begin",
        "frame_tx",
        "contact_end",
    ];
    for kind in kinds {
        find(&lines, &[&format!("\"ev\":\"{kind}\"")]);
    }
    assert!(lines.iter().any(|l| l.contains("\"oracle\":\"")));
    assert_eq!(check_trace(&lines.join("\n")), Ok(lines.len()));
    assert_eq!(check_trace(""), Err("empty trace".to_string()));
}

#[test]
fn every_corruption_is_rejected_at_its_line() {
    let lines = record();
    let open = find(&lines, &["\"ev\":\"session_open\""]);
    let session = field(&lines[open - 1], "session");
    let of = format!("\"session\":{session},");
    let close = find(&lines, &["\"ev\":\"session_close\"", &of]);
    let begin = find(&lines, &["\"ev\":\"contact_begin\""]);
    let frame = find(&lines, &["\"ev\":\"frame_tx\""]);
    let end = find(&lines, &["\"ev\":\"contact_end\""]);
    let compare = find(&lines, &["\"ev\":\"compare\"", "\"oracle\":\""]);
    let oracle = ["equal", "before", "after", "concurrent"].map(|r| format!("\"oracle\":\"{r}\""));
    let verdict = oracle
        .iter()
        .find(|o| lines[compare - 1].contains(*o))
        .unwrap();
    let other = oracle.iter().find(|o| *o != verdict).unwrap();
    let oracle_flipped = replace(&lines, compare, verdict, other);
    let elements = format!(
        "\"meta_elements\":{}",
        field(&lines[close - 1], "meta_elements")
    );

    // A session with a skip, and the first known element of a session.
    let skip = find(&lines, &["\"ev\":\"segment_skip\""]);
    let skipped = format!("\"session\":{},", field(&lines[skip - 1], "session"));
    let skip_close = find(&lines, &["\"ev\":\"session_close\"", &skipped]);
    let known = (1..=lines.len())
        .find(|&n| {
            let l = &lines[n - 1];
            l.contains("\"ev\":\"element\"")
                && l.contains("\"known\":true")
                && !l.contains("\"session\":0,")
        })
        .expect("a known element inside a session");
    let flipped = format!("\"session\":{},", field(&lines[known - 1], "session"));
    let flipped_close = find(&lines, &["\"ev\":\"session_close\"", &flipped]);

    let mut cases: Vec<(&str, Vec<String>, usize, &str)> = vec![
        (
            "unknown kind",
            replace(&lines, frame, "frame_tx", "frame_txt"),
            frame,
            "unknown event kind",
        ),
        (
            "missing field",
            replace(&lines, frame, "\"stream\":", "\"strum\":"),
            frame,
            "expected field \"stream\"",
        ),
        (
            "non-integer field",
            replace(&lines, frame, "\"compare\":", "\"compare\":-"),
            frame,
            "not an integer",
        ),
        (
            "session opened twice",
            repeat(&lines, open),
            open + 1,
            "opened twice",
        ),
        (
            "session closed before open",
            replace(&lines, close, &of, "\"session\":999999,"),
            close,
            "closed before open",
        ),
        (
            "session closed twice",
            repeat(&lines, close),
            close + 1,
            "closed twice",
        ),
        (
            "session never closed",
            drop_line(&lines, close),
            open,
            "never closed",
        ),
        (
            "events with no open",
            replace(&lines, known, &flipped, "\"session\":999999,"),
            known,
            "not open",
        ),
        (
            "contact begun twice",
            repeat(&lines, begin),
            begin + 1,
            "begun twice",
        ),
        (
            "contact ended before it began",
            drop_line(&lines, begin),
            end - 1,
            "ended before it began",
        ),
        (
            "contact ended twice",
            repeat(&lines, end),
            end + 1,
            "ended twice",
        ),
        (
            "contact never ended",
            drop_line(&lines, end),
            begin,
            "never ended",
        ),
        (
            "meta_elements ≠ Δ+Γ",
            replace(&lines, close, &elements, "\"meta_elements\":999"),
            close,
            "accounting identity",
        ),
        (
            "close totals disagree with the events",
            with_line(
                &lines,
                close,
                bump(&bump(&lines[close - 1], "delta", 1), "meta_elements", 1),
            ),
            close,
            "disagree with reported totals",
        ),
        (
            "oracle disagrees",
            oracle_flipped,
            compare,
            "disagrees with the O(n) version-vector oracle",
        ),
        // What the checker before `CheckSink` replayed traces let through.
        (
            "flipped known flag",
            replace(&lines, known, "\"known\":true", "\"known\":false"),
            flipped_close,
            "disagree with reported totals",
        ),
        (
            "dropped segment_skip",
            drop_line(&lines, skip),
            skip_close - 1,
            "disagree with reported totals",
        ),
    ];
    for plane in ["compare", "meta", "framing", "payload"] {
        let mutated = with_line(&lines, frame, bump(&lines[frame - 1], plane, 1));
        cases.push((
            "one frame_tx plane off by one",
            mutated,
            end,
            "byte conservation",
        ));
    }

    // An SRV session whose redundancy Γ exceeds γ + boundaries + 1: the
    // events and the close agree, and the bound alone is broken.
    let close_line = &lines[flipped_close - 1];
    let boundaries = (lines.iter())
        .filter(|l| l.contains(&flipped) && l.contains("\"known\":true"))
        .filter(|l| l.contains("\"segment\":true"))
        .count() as u64;
    let (gamma, skips) = (field(close_line, "gamma"), field(close_line, "skips"));
    let extra = (skips + boundaries + 2).saturating_sub(gamma).max(1);
    let redundant = format!(
        "{{\"ev\":\"element\",{flipped}\"site\":99,\"value\":1,\"known\":true,\
         \"conflict\":false,\"segment\":false}}"
    );
    let closed = bump(&bump(close_line, "gamma", extra), "meta_elements", extra);
    let mut bound = with_line(&lines, flipped_close, closed);
    for _ in 0..extra {
        bound.insert(flipped_close - 1, redundant.clone());
    }
    let at = flipped_close + extra as usize;
    cases.push((
        "SYNCS redundancy past Theorem 5.1",
        bound,
        at,
        "Theorem 5.1",
    ));

    for (what, mutated, line, needle) in cases {
        let err = check_trace(&mutated.join("\n")).expect_err(what);
        assert!(
            err.starts_with(&format!("line {line}: ")) && err.contains(needle),
            "{what}: expected line {line} and {needle:?}, got {err}"
        );
    }
}
