//! What a run prints: one `name value unit n=…` line per metric, then a
//! final one-line JSON object with exactly the keys the benchmark
//! contract names.

use crate::spec::{MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::workload::{Options, Outcome};

/// A number as JSON: every digit as measured; never `NaN` or `inf`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The metric set the final JSON carries: every end-to-end metric for an
/// untraced run, every per-layer metric for a traced one.
fn gated_set(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The contract's last line of standard output.
///
/// # Panics
///
/// Panics if the run did not produce a metric its set names — a bug in
/// the benchmark, not a property of the program under test.
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = gated_set(trace)
        .iter()
        .map(|def| {
            let sample = outcome
                .samples
                .iter()
                .find(|s| s.name == def.name)
                .unwrap_or_else(|| panic!("run produced no {}", def.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                number(sample.value),
                def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Prints the run: a header, every metric by name with its unit, the
/// failure accounting, and the JSON line last.
pub fn print(spec: &Workload, opts: &Options, outcome: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.smoke { " smoke" } else { "" }
    );
    for sample in &outcome.samples {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|def| def.name == sample.name)
            .map_or("", |def| def.unit);
        println!(
            "{} {} {unit} n={}{}{}",
            sample.name,
            number(sample.value),
            sample.n,
            if sample.detail.is_empty() { "" } else { " " },
            sample.detail
        );
    }
    println!(
        "attempted {} failed {} failed_pct {:.4}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 * 100.0 / outcome.attempted.max(1) as f64
    );
    println!("ops_fingerprint {:016x}", outcome.fingerprint);
    for note in &outcome.notes {
        println!("note: {note}");
    }
    if let Some(path) = &outcome.trace_file {
        println!("trace written to {}", path.display());
    }
    println!("{}", result_json(outcome, opts.trace));
}
