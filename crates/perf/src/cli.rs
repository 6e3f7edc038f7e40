//! The `perf` command line: one run, and the tools around runs — `list`,
//! `all`, `aa`, `compare`, `check-trace`.

use crate::cluster::{self, Placement};
use crate::estimator::median;
use crate::json::{quote, Json};
use crate::report::{self, number};
use crate::spans;
use crate::spec::{self, Better, END_TO_END, PER_LAYER, UNTRACED, WORKLOADS};
use crate::sys;
use crate::workload::{self, Options};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: perf --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke]
       perf list [--check <BENCHMARK.json>]
       perf all  [--seed <u64>] [--seconds <n>] [--smoke] [--out <file>]
       perf aa   [--runs <n>=5] [--seed <u64>] [--vary-seed] [--seconds <n>] [--smoke] [--out <file>]
       perf compare <old.json> <new.json>
       perf check-trace <trace.jsonl>";

/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

/// Which dependencies `run.sh` built this binary against.
const DEPENDENCIES: &str = match option_env!("OPTREP_PERF_DEPS") {
    Some(which) => which,
    None => "unknown (not built through crates/perf/run.sh)",
};

/// `workload → metric → one value per run`.
type Results = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct Args(Vec<String>);

impl Args {
    /// Removes `--name value` and returns the value.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn number(&mut self, name: &str) -> Result<Option<u64>, String> {
        self.value(name)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name}: {v:?} is not a number"))
            })
            .transpose()
    }

    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

/// Runs the command line; the process exit code.
pub fn main(args: Vec<String>) -> ExitCode {
    match dispatch(Args(args)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(mut args: Args) -> Result<ExitCode, String> {
    let command = match args.0.first() {
        Some(first) if !first.starts_with("--") => args.0.remove(0),
        Some(_) => "run".to_string(),
        None => return Err("nothing to do".into()),
    };
    match command.as_str() {
        "run" => run_one(args),
        "list" => list(args),
        "all" => all(args),
        "aa" => aa(args),
        "compare" => compare(args),
        "check-trace" => check_trace(args),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn run_one(mut args: Args) -> Result<ExitCode, String> {
    let name = args.value("--workload")?.ok_or("--workload is required")?;
    let spec = spec::workload(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let opts = Options {
        seed: args.number("--seed")?.ok_or("--seed is required")?,
        seconds: args.number("--seconds")?.unwrap_or(DEFAULT_SECONDS).max(1),
        trace: match args.number("--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        smoke: args.flag("--smoke"),
    };
    args.done()?;

    sys::steady_allocator();
    cluster::fix_environment();
    let out = cluster::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    println!("data dirs and traces under {}", out.display());
    println!("dependencies: {DEPENDENCIES}");
    let (placement, line) = Placement::apply();
    println!("{line}");
    match workload::run(spec, &opts, &placement) {
        Ok(outcome) => {
            report::print(spec, &opts, &outcome);
            Ok(if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Err(e) => {
            eprintln!("perf: {} failed: {e}", spec.name);
            Ok(ExitCode::FAILURE)
        }
    }
}

fn list(mut args: Args) -> Result<ExitCode, String> {
    let check = args.value("--check")?;
    args.done()?;
    for w in &WORKLOADS {
        println!("workload {}", w.name);
    }
    for (kind, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for m in defs {
            let bound = m.bound.map_or(String::new(), |b| format!(" bound {b}"));
            println!("{kind} {} {} {}{bound}", m.name, m.unit, m.better.as_str());
        }
    }
    let Some(path) = check else {
        return Ok(ExitCode::SUCCESS);
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match check_benchmark_json(&text) {
        Ok(()) => {
            println!("{path} names exactly these workloads and metrics");
            Ok(ExitCode::SUCCESS)
        }
        Err(problem) => {
            eprintln!("perf: {path}: {problem}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `BENCHMARK.json` must name exactly the binary's workloads and metrics,
/// with the same units, directions and bounds.
///
/// # Errors
///
/// The first difference found.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    let json = Json::parse(text)?;
    let entries = |key: &str| -> Result<&[Json], String> {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("no array {key:?}"))
    };
    let field = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).map(str::to_string);

    let listed: Vec<(String, String)> = entries("workloads")?
        .iter()
        .map(|w| Some((field(w, "name")?, field(w, "why")?)))
        .collect::<Option<_>>()
        .ok_or("a workload lacks name or why")?;
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    if listed != ours {
        return Err(format!(
            "workloads differ: file has {:?}",
            listed.iter().map(|w| &w.0).collect::<Vec<_>>()
        ));
    }
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = entries(key)?;
        if listed.len() != defs.len() {
            return Err(format!(
                "{key}: file lists {}, binary {}",
                listed.len(),
                defs.len()
            ));
        }
        for (entry, def) in listed.iter().zip(defs) {
            let same = field(entry, "name").as_deref() == Some(def.name)
                && field(entry, "unit").as_deref() == Some(def.unit)
                && field(entry, "better").as_deref() == Some(def.better.as_str())
                && entry.get("bound").and_then(Json::as_f64) == def.bound;
            if !same {
                return Err(format!("{key}: {} differs from the binary", def.name));
            }
        }
    }
    let seconds = json.get("run_seconds").and_then(Json::as_f64);
    if seconds != Some(DEFAULT_SECONDS as f64) {
        return Err(format!(
            "run_seconds is {seconds:?}, the binary's default is {DEFAULT_SECONDS}"
        ));
    }
    Ok(())
}

/// Runs one workload in a child process (peak RSS is per process) and
/// returns every metric it printed: an untraced run prints the seven
/// untraced numbers, a traced run those and every per-layer one. `echo`
/// passes the child's lines through.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    echo: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}",
            output.status
        ));
    }
    // Metric lines read `name value unit n=…`.
    Ok(stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let name = words.next()?;
            let def = END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .find(|d| d.name == name)?;
            Some((def.name.to_string(), words.next()?.parse().ok()?))
        })
        .collect())
}

fn write_results(path: &str, seconds: u64, runs: usize, results: &Results) -> Result<(), String> {
    let workloads: Vec<String> = results
        .iter()
        .map(|(workload, metrics)| {
            let metrics: Vec<String> = metrics
                .iter()
                .map(|(name, values)| {
                    let values: Vec<String> = values.iter().map(|v| number(*v)).collect();
                    format!("{}: [{}]", quote(name), values.join(", "))
                })
                .collect();
            format!("{}: {{{}}}", quote(workload), metrics.join(", "))
        })
        .collect();
    let text = format!(
        "{{\"seconds\": {seconds}, \"runs\": {runs}, \"workloads\": {{{}}}}}\n",
        workloads.join(", ")
    );
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = json
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path}: no workloads"))?;
    Ok(workloads
        .iter()
        .map(|(workload, metrics)| {
            let metrics = metrics
                .as_obj()
                .into_iter()
                .flatten()
                .map(|(name, values)| {
                    let values = values.as_arr().unwrap_or(&[]);
                    (
                        name.clone(),
                        values.iter().filter_map(Json::as_f64).collect(),
                    )
                })
                .collect();
            (workload.clone(), metrics)
        })
        .collect())
}

/// Appends one run's metrics to `results`. Of a traced run only the
/// per-layer numbers the untraced run before it did not print: what both
/// print is quoted from the untraced one.
fn record(results: &mut Results, workload: &str, metrics: BTreeMap<String, f64>, traced: bool) {
    let entry = results.entry(workload.to_string()).or_default();
    for (name, value) in metrics {
        if !(traced && UNTRACED.contains(&name.as_str())) {
            entry.entry(name).or_default().push(value);
        }
    }
}

/// Every workload once untraced, then once traced.
fn all(mut args: Args) -> Result<ExitCode, String> {
    let seed = args.number("--seed")?.unwrap_or(1);
    let seconds = args.number("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let smoke = args.flag("--smoke");
    let out = args.value("--out")?;
    args.done()?;
    let mut results = Results::new();
    let mut failed = false;
    for w in &WORKLOADS {
        for trace in [false, true] {
            match child_run(w.name, seed, seconds, trace, smoke, true) {
                Ok(metrics) => record(&mut results, w.name, metrics, trace),
                Err(e) => {
                    eprintln!("perf: {e}");
                    failed = true;
                }
            }
        }
    }
    if let Some(out) = out {
        write_results(&out, seconds, 1, &results)?;
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` gives (the
/// driver's estimator): `(q1, q2, q3)`.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// `(interquartile range, full range)` as shares of the median. `aa`
/// and `compare` judge by the first, the spread the driver and the
/// `choosing-metrics` guide use; the second is printed for the reader.
fn spreads(values: &[f64]) -> (f64, f64) {
    let mid = median(values);
    if mid == 0.0 {
        return (0.0, 0.0);
    }
    let iqr = quartiles(values).map_or(0.0, |(q1, _, q3)| q3 - q1);
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (iqr / mid.abs(), (hi - lo) / mid.abs())
}

/// A/A: every workload `runs` times on one build and one seed, the order
/// rotated each pass, then the spread of every untraced number beside its
/// bound. `--vary-seed` gives each pass its own seed, as the driver's
/// acceptance check does; exact counts then differ by what the seed moves.
fn aa(mut args: Args) -> Result<ExitCode, String> {
    let runs = args.number("--runs")?.unwrap_or(5) as usize;
    if runs < 5 {
        return Err("--runs must be at least 5".into());
    }
    let seed = args.number("--seed")?.unwrap_or(1);
    let vary_seed = args.flag("--vary-seed");
    let seconds = args.number("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let smoke = args.flag("--smoke");
    let out = args.value("--out")?;
    args.done()?;
    let mut results = Results::new();
    for pass in 0..runs {
        let seed = seed + if vary_seed { pass as u64 } else { 0 };
        for slot in 0..WORKLOADS.len() {
            let w = &WORKLOADS[(slot + pass) % WORKLOADS.len()];
            let metrics = child_run(w.name, seed, seconds, false, smoke, false)?;
            println!("pass {} {} seed {seed} done", pass + 1, w.name);
            record(&mut results, w.name, metrics, false);
        }
    }
    if let Some(out) = out {
        write_results(&out, seconds, runs, &results)?;
    }
    println!(
        "{:<14} {:<20} {:>14} {:>8} {:>8}  bound%",
        "workload", "metric", "median", "iqr%", "range%"
    );
    let mut over = false;
    for w in &WORKLOADS {
        for name in UNTRACED {
            let values = &results[w.name][name];
            let (iqr, range) = spreads(values);
            let bound = spec::end_to_end(name).and_then(|def| def.bound);
            let exceeds = bound.is_some_and(|bound| iqr > bound);
            over |= exceeds;
            println!(
                "{:<14} {:<20} {:>14.4} {:>8.2} {:>8.2}  {}{}",
                w.name,
                name,
                median(values),
                iqr * 100.0,
                range * 100.0,
                bound.map_or("not gated".to_string(), |b| format!("{:.1}", b * 100.0)),
                if exceeds { "  OVER" } else { "" }
            );
        }
    }
    Ok(if over {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// One row per workload × metric: medians of both files, the change in
/// the metric's own direction, and a verdict against its bound.
fn compare(mut args: Args) -> Result<ExitCode, String> {
    if args.0.len() != 2 {
        return Err("compare takes two result files".into());
    }
    let new = read_results(&args.0.remove(1))?;
    let old = read_results(&args.0.remove(0))?;
    println!(
        "{:<14} {:<32} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "old", "new", "worse%"
    );
    let mut worse = false;
    for w in &WORKLOADS {
        let (Some(old), Some(new)) = (old.get(w.name), new.get(w.name)) else {
            continue;
        };
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let (Some(a), Some(b)) = (old.get(def.name), new.get(def.name)) else {
                continue;
            };
            let (a_mid, b_mid) = (median(a), median(b));
            // Positive = worse, in the metric's own direction.
            let change = if a_mid == 0.0 {
                0.0
            } else {
                match def.better {
                    Better::Lower => (b_mid - a_mid) / a_mid.abs(),
                    Better::Higher => (a_mid - b_mid) / a_mid.abs(),
                }
            };
            let verdict = match def.bound {
                None => "not gated",
                Some(bound) if spreads(a).0.max(spreads(b).0) > bound => {
                    "unresolved (spread > bound)"
                }
                Some(bound) if change > bound => {
                    worse = true;
                    "worse"
                }
                Some(bound) if change < -bound => "better",
                Some(_) => "within bound",
            };
            println!(
                "{:<14} {:<32} {:>14.4} {:>14.4} {:>9.2}  {verdict}",
                w.name,
                def.name,
                a_mid,
                b_mid,
                change * 100.0
            );
        }
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Re-parses a span trace: every span closed, every parent present,
/// children inside parents.
fn check_trace(mut args: Args) -> Result<ExitCode, String> {
    if args.0.len() != 1 {
        return Err("check-trace takes one file".into());
    }
    let path = args.0.remove(0);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parsed = spans::parse_jsonl(&text).map_err(|e| format!("{path}:{e}"))?;
    match spans::check(&parsed) {
        Ok(()) if !parsed.is_empty() => {
            println!(
                "{path}: {} spans, all closed, parents present, children inside parents",
                parsed.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        Ok(()) => Err(format!("{path}: no spans")),
        Err(fault) => {
            eprintln!("perf: {path}: {fault:?}");
            Ok(ExitCode::FAILURE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), Some((3.5, 13.5, 31.0)));
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), Some((1.5, 3.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn args_take_values_flags_and_reject_leftovers() {
        let mut args = Args(["--seed", "7", "--smoke", "x"].map(String::from).to_vec());
        assert_eq!(args.number("--seed"), Ok(Some(7)));
        assert!(args.flag("--smoke") && !args.flag("--smoke"));
        assert_eq!(args.value("--out"), Ok(None));
        assert!(args.done().is_err());
        assert!(Args(vec!["--seed".into()]).value("--seed").is_err());
    }
}
