//! Prints the paper's tables and figures from live runs.
//!
//! ```text
//! tables all          # every experiment, in document order
//! tables t2 e4 f2     # a selection
//! tables --list       # available ids
//! tables --check-jsonl <path>   # check an event trace
//! tables --check-prom <path>    # check a Prometheus scrape
//! ```
//!
//! Each experiment additionally writes its tables to `BENCH_<id>.json`
//! (one JSON array of `{title, headers, rows, notes}` objects) in the
//! current directory, so the performance trajectory is machine-trackable
//! across revisions.
//!
//! Setting `OPTREP_OBS_JSONL=<path>` streams every sync event of the
//! run to `<path>` as JSONL (see `optrep_core::obs::JsonlSink`); render
//! it with the `timeline` binary or check it with `--check-jsonl`, which
//! decodes every line with `SyncEvent::from_json` and replays the trace
//! through `obs::CheckSink` (`obs::check_trace`): schema, pairing, byte
//! and counter conservation, Theorem 5.1 and the COMPARE oracle.

use optrep_bench::experiments;
use optrep_bench::Table;
use optrep_core::obs;

/// A file check: the count of what it checked, or the first violation.
type Check = fn(&str) -> Result<usize, String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let checks: [(&str, Check, &str); 2] = [
        (
            "--check-jsonl",
            obs::check_trace,
            "events, schema and invariants hold",
        ),
        (
            "--check-prom",
            optrep_bench::prom::check,
            "families, exposition format and histogram identities hold",
        ),
    ];
    for (flag, check, holds) in checks {
        if let Some(pos) = args.iter().position(|a| a == flag) {
            let Some(path) = args.get(pos + 1) else {
                eprintln!("usage: tables {flag} <path>");
                std::process::exit(2);
            };
            let checked = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read: {e}"))
                .and_then(|text| check(&text));
            match checked {
                Ok(n) => println!("ok: {path}: {n} {holds}"),
                Err(e) => {
                    eprintln!("check failed: {path}: {e}");
                    std::process::exit(1);
                }
            }
            return;
        }
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: tables [all | --list | --check-jsonl <path> | \
             --check-prom <path> | <experiment id>...]"
        );
        eprintln!("ids: {}", experiments::ALL.join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        for id in experiments::ALL {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        experiments::ALL.to_vec()
    } else {
        let mut ids = Vec::new();
        for arg in &args {
            if !experiments::is_known(arg) {
                eprintln!(
                    "unknown experiment {arg:?}; known ids: {}",
                    experiments::ALL.join(" ")
                );
                std::process::exit(2);
            }
            ids.push(arg.as_str());
        }
        ids
    };
    run_traced(&ids);
}

/// Runs the selected experiments, wrapped in a `JsonlSink` when
/// `OPTREP_OBS_JSONL` is set.
fn run_traced(ids: &[&str]) {
    match std::env::var("OPTREP_OBS_JSONL") {
        Ok(path) if !path.is_empty() => {
            let sink = match obs::JsonlSink::create(&path) {
                Ok(s) => std::sync::Arc::new(s),
                Err(e) => {
                    eprintln!("cannot create {path}: {e}");
                    std::process::exit(2);
                }
            };
            obs::with(sink.clone(), || run_experiments(ids));
            if let Err(e) = sink.flush() {
                eprintln!("warning: could not flush {path}: {e}");
            } else {
                eprintln!("wrote event trace to {path}");
            }
        }
        _ => run_experiments(ids),
    }
}

fn run_experiments(ids: &[&str]) {
    for id in ids {
        let tables = experiments::run(id);
        for table in &tables {
            println!("{table}");
        }
        let json = format!(
            "[{}]\n",
            tables
                .iter()
                .map(Table::to_json)
                .collect::<Vec<_>>()
                .join(",")
        );
        let path = format!("BENCH_{id}.json");
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}
