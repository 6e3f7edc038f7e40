//! E14 — the durability tax and the recovery bill.
//!
//! PR 8's tentpole measured: what does write-ahead logging cost a live
//! daemon, and what does replaying it cost a rebooting one?
//!
//! **Part 1 — contact throughput per fsync policy.** A plain source
//! node seeds waves of writes; a sink daemon pulls each wave over a
//! real socket. The sink runs four ways: WAL off, and WAL on under each
//! fsync policy (`never`, `interval` — the 50 ms default — and
//! `always`). Every committed contact appends one WAL record *before*
//! the pull is acknowledged, so the wall-clock premium over the WAL-off
//! run is exactly the durability tax. Convergence is asserted per run
//! (sink digest == source digest), and in release builds the headline
//! acceptance bar is asserted too: `interval` costs at most 1.3× the
//! WAL-off wall-clock — judged on the median ratio of alternating
//! (`off`, `interval`) pairs, not on one sample a policy, which a busy
//! two-core host swings past the bar. The pairs run in rounds of
//! [`TAX_ROUND`] until the ratios' interquartile range lies wholly on
//! one side of the bar, or [`TAX_PAIRS`] have run: the sample is sized
//! by its own spread.
//!
//! **Part 2 — recovery time vs log length.** A log of N single-key
//! records (no checkpoint, the worst case) is written through
//! [`Persist`], the process "dies" (the handle drops), and
//! [`Persist::open`] replays it cold. The replayed store's digest must
//! equal the writer's, every record must apply, and the reported replay
//! time is the boot-latency bill an operator pays for skipping
//! checkpoints — the number that justifies `--checkpoint-ms`.
//!
//! Release runs drive 40 waves × 100 keys and logs up to 50k records;
//! debug/test runs scale down without changing what is asserted.

use crate::table::{ratio, Table};
use optrep_core::obs::{FamilyValue, MetricsSnapshot};
use optrep_core::SiteId;
use optrep_net::ConnectOptions;
use optrep_server::{DurabilityConfig, FsyncPolicy, Node, NodeConfig, Persist};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[cfg(not(debug_assertions))]
const WAVES: usize = 40;
#[cfg(debug_assertions)]
const WAVES: usize = 8;

#[cfg(not(debug_assertions))]
const KEYS_PER_WAVE: usize = 100;
#[cfg(debug_assertions)]
const KEYS_PER_WAVE: usize = 25;

/// Bulky enough that a wave spans many frames, small enough that the
/// WAL-off baseline is not pure memcpy.
const VALUE_BYTES: usize = 256;

/// Replayed log lengths for part 2.
#[cfg(not(debug_assertions))]
const LOG_LENGTHS: &[usize] = &[1_000, 10_000, 50_000];
#[cfg(debug_assertions)]
const LOG_LENGTHS: &[usize] = &[200, 1_000];

/// The release-only bar: `interval`'s wall-clock over WAL-off's.
#[cfg(not(debug_assertions))]
const TAX_BAR: f64 = 1.3;

/// Alternating (`off`, `interval`) pairs run at a time before the
/// ratios' spread is read.
#[cfg(not(debug_assertions))]
const TAX_ROUND: usize = 5;

/// The most pairs run: the bar is judged on the median of their ratios
/// however widely they spread.
#[cfg(not(debug_assertions))]
const TAX_PAIRS: usize = 25;

/// Distinct keys the part-2 log cycles over: replay applies every
/// record, but the final store stays bounded (the realistic hot-key
/// shape, and it keeps digest verification cheap).
const LOG_KEYS: usize = 512;

fn connect_options() -> ConnectOptions {
    ConnectOptions::new()
        .attempts(2)
        .backoff(Duration::from_millis(1), Duration::from_millis(8))
        .timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
}

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "optrep-e14-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .families
        .iter()
        .find(|f| f.name == name)
        .map_or(0, |f| match f.value {
            FamilyValue::Counter(v) | FamilyValue::Gauge(v) => v,
            FamilyValue::Histogram(_) => 0,
        })
}

/// One sink configuration: WAL off (`None`) or on under a policy.
struct PolicyRun {
    label: &'static str,
    elapsed: Duration,
    wal_bytes: u64,
    wal_records: u64,
    fsyncs: u64,
}

fn run_policy(label: &'static str, fsync: Option<FsyncPolicy>) -> PolicyRun {
    let dir = scratch_dir(label);
    let source = Node::start(
        NodeConfig::new(SiteId::new(1), "127.0.0.1:0".parse().expect("loopback"))
            .with_connect(connect_options()),
    )
    .expect("source starts");
    let mut sink_config = NodeConfig::new(SiteId::new(0), "127.0.0.1:0".parse().expect("loopback"))
        .with_connect(connect_options());
    if let Some(policy) = fsync {
        sink_config = sink_config.with_durability(DurabilityConfig::new(&dir).with_fsync(policy));
    }
    let sink = Node::start(sink_config).expect("sink starts");

    // Only the pulls are timed: seeding the source is workload setup,
    // not contact cost. Each pull commits one whole wave as one WAL
    // record on the sink before the contact is acknowledged.
    let mut elapsed = Duration::ZERO;
    for wave in 0..WAVES {
        source.with_store(|s| {
            for k in 0..KEYS_PER_WAVE {
                s.put(format!("w{wave:03}k{k:03}"), vec![wave as u8; VALUE_BYTES]);
            }
        });
        let start = Instant::now();
        sink.sync_with(source.addr()).expect("contact commits");
        elapsed += start.elapsed();
    }
    assert_eq!(
        sink.digest(),
        source.digest(),
        "{label}: sink did not converge on the source"
    );

    let snapshot = sink.metrics_snapshot();
    let run = PolicyRun {
        label,
        elapsed,
        wal_bytes: counter(&snapshot, "optrep_wal_bytes_total"),
        wal_records: counter(&snapshot, "optrep_wal_records_total"),
        fsyncs: counter(&snapshot, "optrep_wal_fsyncs_total"),
    };
    if fsync.is_some() {
        assert_eq!(
            run.wal_records, WAVES as u64,
            "{label}: each contact must commit exactly one WAL record"
        );
    }
    sink.stop();
    source.stop();
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// `interval`'s wall-clock over WAL-off's in alternating pairs, the two
/// runs of a pair back to back, [`TAX_ROUND`] pairs at a time until the
/// interquartile range of the ratios lies wholly on one side of
/// [`TAX_BAR`] or [`TAX_PAIRS`] have run: sorted, so the middle one is
/// the median.
#[cfg(not(debug_assertions))]
fn interval_tax() -> Vec<f64> {
    let interval = FsyncPolicy::parse("interval").expect("default interval policy");
    let mut ratios = Vec::new();
    loop {
        for _ in 0..TAX_ROUND {
            let off = run_policy("off", None).elapsed.as_secs_f64();
            let on = run_policy("interval", Some(interval)).elapsed.as_secs_f64();
            ratios.push(on / off);
        }
        ratios.sort_by(f64::total_cmp);
        let (low, high) = quartiles(&ratios);
        if high <= TAX_BAR || low > TAX_BAR || ratios.len() >= TAX_PAIRS {
            return ratios;
        }
    }
}

/// The lower and upper quartiles of `sorted`, by nearest rank.
#[cfg(not(debug_assertions))]
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    (sorted[sorted.len() / 4], sorted[sorted.len() * 3 / 4])
}

/// One part-2 row: write a `records`-long log, reopen, measure replay.
struct RecoveryRun {
    records: usize,
    wal_bytes: u64,
    replay: Duration,
}

fn run_recovery(records: usize) -> RecoveryRun {
    let dir = scratch_dir("recover");
    let config = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
    let site = SiteId::new(0);
    let (mut persist, mut store, _) = Persist::open(&config, site).expect("open");
    for i in 0..records {
        let key = format!("k{:04}", i % LOG_KEYS);
        store.put(key.clone(), vec![(i % 251) as u8; 64]);
        let entry = store.encode_entry(&key).expect("tracked");
        persist.append(&[(key, entry)]).expect("append");
    }
    let wal_bytes = persist.wal_len();
    let digest = store.replica_digest();
    drop(persist); // the "crash": nothing checkpointed, the log is all there is

    let (_, recovered, report) = Persist::open(&config, site).expect("replay");
    assert_eq!(
        report.wal_records_applied, records as u64,
        "replay must apply every record"
    );
    assert!(!report.torn_tail, "clean log replayed as torn");
    assert_eq!(
        recovered.replica_digest(),
        digest,
        "replay of {records} records diverged from the writer"
    );
    let _ = std::fs::remove_dir_all(&dir);
    RecoveryRun {
        records,
        wal_bytes,
        replay: report.elapsed,
    }
}

/// Runs the experiment.
pub fn run() -> Vec<Table> {
    let mut t1 = Table::new(
        "E14a: contact throughput vs fsync policy (WAL tax on committed pulls)",
        &[
            "policy",
            "waves",
            "keys/wave",
            "contact ms",
            "vs off",
            "wal KiB",
            "records",
            "fsyncs",
        ],
    );
    let runs = [
        run_policy("off", None),
        run_policy("never", Some(FsyncPolicy::Never)),
        run_policy(
            "interval",
            Some(FsyncPolicy::parse("interval").expect("default interval policy")),
        ),
        run_policy(
            "always",
            Some(FsyncPolicy::parse("always").expect("always")),
        ),
    ];
    let baseline = runs[0].elapsed.as_secs_f64();
    for run in &runs {
        t1.row([
            run.label.to_string(),
            WAVES.to_string(),
            KEYS_PER_WAVE.to_string(),
            format!("{:.1}", run.elapsed.as_secs_f64() * 1e3),
            ratio(run.elapsed.as_secs_f64(), baseline),
            format!("{:.0}", run.wal_bytes as f64 / 1024.0),
            run.wal_records.to_string(),
            run.fsyncs.to_string(),
        ]);
    }
    t1.note("sink digest == source digest asserted for every policy");
    t1.note("one WAL record per committed contact (asserted); 'off' rows log nothing");
    // The acceptance bar: at the default `interval` policy the WAL
    // costs at most 1.3x the WAL-off wall-clock, in the median of
    // alternating pairs, as many as their spread asks for. Release-only
    // — debug builds measure the compiler, not the log.
    #[cfg(not(debug_assertions))]
    {
        let ratios = interval_tax();
        let (pairs, median) = (ratios.len(), ratios[ratios.len() / 2]);
        let (low, high) = quartiles(&ratios);
        t1.note(format!(
            "interval/off over {pairs} alternating pairs: median {median:.2}x, \
             IQR {low:.2}x-{high:.2}x"
        ));
        assert!(
            median <= TAX_BAR,
            "fsync=interval contact wall-clock is {median:.2}x the WAL-off baseline in the \
             median of {pairs} alternating pairs (IQR {low:.2}x-{high:.2}x), past {TAX_BAR}x"
        );
        t1.note(format!("asserted: that median <= {TAX_BAR}x"));
    }

    let mut t2 = Table::new(
        "E14b: cold recovery time vs WAL length (no checkpoint, worst case)",
        &["records", "wal KiB", "replay ms", "krec/s"],
    );
    for &records in LOG_LENGTHS {
        let run = run_recovery(records);
        let secs = run.replay.as_secs_f64().max(1e-9);
        t2.row([
            run.records.to_string(),
            format!("{:.0}", run.wal_bytes as f64 / 1024.0),
            format!("{:.2}", secs * 1e3),
            format!("{:.0}", run.records as f64 / secs / 1e3),
        ]);
    }
    t2.note("replay applies every record and lands on the writer's digest (asserted)");
    t2.note("checkpoints exist to bound this column: a fresh snapshot replays wal 0");
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    #[test]
    fn durability_tax_and_recovery_scale() {
        let _alone = crate::experiments::daemons_alone();
        // The asserts inside `run` are the test.
        let tables = super::run();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 4);
        assert_eq!(tables[1].len(), super::LOG_LENGTHS.len());
    }
}
