//! Every workload at smoke size, end to end: real daemons, real sockets,
//! every value and digest checked. Also that `BENCHMARK.json` names what
//! the binary measures, and that the op sequence is a function of the
//! seed alone.

use optrep_perf::cli::check_benchmark_json;
use optrep_perf::cluster::{self, Placement};
use optrep_perf::spans;
use optrep_perf::spec::{self, Kind, PER_LAYER, UNTRACED, WORKLOADS};
use optrep_perf::workload::{self, Options, Outcome};
use std::time::{Duration, Instant};

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    // Cargo's per-package scratch dir: tests run with the package as the
    // working directory, where a relative `target/` would be litter.
    std::env::set_var("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"));
    cluster::fix_environment();
    std::fs::create_dir_all(cluster::out_dir()).expect("scratch dir");
    let opts = Options {
        seed,
        seconds: 1,
        trace,
        smoke: true,
    };
    let spec = spec::workload(workload).expect("known workload");
    let (placement, _) = Placement::apply();
    workload::run(spec, &opts, &placement).expect("smoke run completes")
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .samples
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no {name}"))
        .value
}

#[test]
fn benchmark_json_names_what_the_binary_measures() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    check_benchmark_json(&text).expect("BENCHMARK.json matches the binary");
}

#[test]
fn every_workload_runs_clean_and_fast_at_smoke_size() {
    for w in &WORKLOADS {
        let started = Instant::now();
        let outcome = run(w.name, 1, false);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{} took {:?}",
            w.name,
            started.elapsed()
        );
        assert_eq!(outcome.failed, 0, "{}", w.name);
        assert!(outcome.attempted > 100, "{}", w.name);
        for name in UNTRACED {
            let v = value(&outcome, name);
            assert!(v.is_finite() && v > 0.0, "{} {name} = {v}", w.name);
        }
    }
}

#[test]
fn the_seed_alone_decides_the_op_sequence_and_the_byte_counts() {
    for w in WORKLOADS.iter().filter(|w| w.kind != Kind::RwUnderPull) {
        let (a, b, other) = (
            run(w.name, 7, false),
            run(w.name, 7, false),
            run(w.name, 8, false),
        );
        assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name);
        assert_eq!(a.attempted, b.attempted, "{}", w.name);
        assert_eq!(
            value(&a, "wire_bytes_per_key"),
            value(&b, "wire_bytes_per_key"),
            "{}",
            w.name
        );
        assert_ne!(a.fingerprint, other.fingerprint, "{}", w.name);
    }
    // With two drivers the byte counts still repeat: D is fixed.
    let (a, b) = (
        run("rw_under_pull", 7, false),
        run("rw_under_pull", 7, false),
    );
    assert_eq!(
        value(&a, "wire_bytes_per_key"),
        value(&b, "wire_bytes_per_key")
    );
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn a_traced_run_reports_every_layer_and_writes_a_well_formed_trace() {
    for w in &WORKLOADS {
        let outcome = run(w.name, 2, true);
        assert_eq!(
            outcome.failed, 0,
            "{}: mirror digests match the daemons'",
            w.name
        );
        for def in &PER_LAYER {
            assert!(
                value(&outcome, def.name).is_finite(),
                "{} {}",
                w.name,
                def.name
            );
        }
        let overhead = outcome
            .samples
            .iter()
            .find(|s| s.name == "trace.overhead_pct")
            .expect("overhead is reported");
        assert!(overhead.n > 0, "{}: untraced rounds alternate", w.name);
        let path = outcome.trace_file.expect("traced run writes a trace");
        let text = std::fs::read_to_string(&path).expect("trace file");
        let spans = spans::parse_jsonl(&text).expect("one span record per line");
        assert!(spans.len() > 20, "{}: {} spans", w.name, spans.len());
        assert_eq!(spans::check(&spans), Ok(()), "{}", w.name);
        for name in [
            "round",
            "sync_verb",
            "mirror",
            "plan_contact",
            "apply",
            "wal_append",
        ] {
            assert!(
                text.contains(&format!("\"name\":\"{name}\"")),
                "{}: no {name} span",
                w.name
            );
        }
    }
}
