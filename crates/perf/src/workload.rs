//! The four workloads: set-up, rounds, checks, and the numbers that come
//! out of a run.
//!
//! A round is: the client **puts** D keys at the source → `Client::sync`
//! asks the sink to pull from the source (the production path: Sync verb
//! → worker → `pull_from`) → the client **gets** G keys at the sink. The
//! op sequence is a pure function of the seed, and the round count a
//! pure function of `--seconds`, so counts and the op fingerprint repeat
//! exactly. Every returned value and every digest is checked; a miss
//! counts as a failed operation.
//!
//! A traced run (`--trace 1`) leaves the first quarter of every block
//! untraced — no spans, no per-op timers, the mirror replay put off until
//! those rounds are over — so the cost of tracing is read inside one
//! process, from rounds that alternate, not from two runs minutes apart.

use crate::cluster::{self, fatal, Daemon, Placement, Scratch, SINK, SOURCE};
use crate::estimator::{self, Estimate, Quiet};
use crate::mirror::{self, Mirror};
use crate::probes::{self, Scale};
use crate::rng::{value_for, version_of, Fingerprint, Rng};
use crate::spans::Recorder;
use crate::spec::{Kind, Workload, SHARDS};
use crate::sys;
use bytes::Bytes;
use optrep_core::obs::metrics::HistogramSnapshot;
use optrep_core::Result;
use optrep_kv::{KvStore, KvSyncReport};
use optrep_server::{Client, Node};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds run and discarded at the end of each set-up.
const WARMUP_ROUNDS: u32 = 3;
/// Restarts timed at the end of a run (`cold_join` restarts every round).
const RESTARTS: usize = 7;
/// The daemons' background checkpoint period at smoke size, so that the
/// tests see checkpoints. Full-size runs keep the shipped default (30 s,
/// or 8 MiB of log — which `dense_pull` fills every nine rounds or so,
/// and so gets its background cycles). An issue-12 draft gave
/// `dense_pull` 5 s: its peak RSS then read 121 or 127 MiB by whether a
/// timed checkpoint's image happened to overlap a pull; the log-size ones
/// land at the same point of a round every time.
const SMOKE_CHECKPOINT: Duration = Duration::from_millis(200);
/// `round` value while the second driver's reads are not being counted.
const NOT_MEASURING: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Sample {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// The reader's view: overall median, tail, block spread.
    pub detail: String,
}

#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// fnv64 over the op sequence and everything the daemons returned:
    /// read values, pull reports, digests (the first driver's; the second
    /// driver's reads race the pulls by design).
    pub fingerprint: u64,
    pub samples: Vec<Sample>,
    pub notes: Vec<String>,
    pub trace_file: Option<PathBuf>,
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The seeded op source and the benchmark's own record of what every key
/// must hold.
struct Inputs {
    seed: u64,
    value_len: usize,
    keys: Arc<Vec<String>>,
    versions: Vec<u32>,
    /// A permutation of the key indices; a partial Fisher–Yates over its
    /// front draws distinct keys for a round's puts.
    order: Vec<u32>,
    rng: Rng,
}

impl Inputs {
    fn new(spec: &Workload, seed: u64) -> Inputs {
        Inputs {
            seed,
            value_len: spec.value_len,
            keys: Arc::new((0..spec.keys).map(|i| format!("k{i:07}")).collect()),
            versions: vec![1; spec.keys],
            order: (0..spec.keys as u32).collect(),
            rng: Rng::new(seed),
        }
    }

    /// The converged starting store, hosted on the source site: every
    /// key at version 1.
    fn build_source(&self) -> KvStore {
        let mut store = KvStore::with_shards(SOURCE, SHARDS);
        for (index, key) in self.keys.iter().enumerate() {
            store.put(key.clone(), value_for(self.seed, index, 1, self.value_len));
        }
        store
    }

    fn value(&self, index: usize) -> Vec<u8> {
        value_for(self.seed, index, self.versions[index], self.value_len)
    }

    /// `n` distinct keys with their next values; bumps the versions.
    fn draw_puts(&mut self, n: usize) -> Vec<(usize, Bytes)> {
        let total = self.order.len();
        (0..n.min(total))
            .map(|i| {
                let j = i + self.rng.below(total - i);
                self.order.swap(i, j);
                let index = self.order[i] as usize;
                self.versions[index] += 1;
                (index, Bytes::from(self.value(index)))
            })
            .collect()
    }

    /// `n` keys (repeats allowed) with the values they must read as.
    fn draw_gets(&mut self, n: usize) -> Vec<(usize, Vec<u8>)> {
        (0..n)
            .map(|_| {
                let index = self.rng.below(self.keys.len());
                (index, self.value(index))
            })
            .collect()
    }
}

/// Daemon-side counters read at no cost to the run: registry counters,
/// the verb histogram, the pool's totals.
#[derive(Debug, Clone, Default)]
struct Counters {
    wakes: u64,
    wal_bytes: u64,
    wal_fsyncs: u64,
    checkpoints: u64,
    dials: u64,
    reuses: u64,
    verbs: HistogramSnapshot,
}

impl Counters {
    fn read(node: &Node) -> Counters {
        let snapshot = node.metrics_snapshot();
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        let pool = node.conn_totals();
        Counters {
            wakes: counter("optrep_reactor_wakes_total"),
            wal_bytes: counter("optrep_wal_bytes_total"),
            wal_fsyncs: counter("optrep_wal_fsyncs_total"),
            checkpoints: counter("optrep_checkpoints_total"),
            dials: pool.dials,
            reuses: pool.reuses,
            verbs: snapshot
                .histogram("optrep_verb_service_micros")
                .cloned()
                .unwrap_or_default(),
        }
    }

    /// `self += sign × other`, field by field.
    fn fold(&mut self, other: &Counters, add: bool) {
        let f = |a: &mut u64, b: u64| *a = if add { *a + b } else { a.saturating_sub(b) };
        f(&mut self.wakes, other.wakes);
        f(&mut self.wal_bytes, other.wal_bytes);
        f(&mut self.wal_fsyncs, other.wal_fsyncs);
        f(&mut self.checkpoints, other.checkpoints);
        f(&mut self.dials, other.dials);
        f(&mut self.reuses, other.reuses);
        for (mine, theirs) in self.verbs.counts.iter_mut().zip(&other.verbs.counts) {
            f(mine, *theirs);
        }
    }
}

/// What the two drivers of `rw_under_pull` share: per key, the lowest and
/// highest version the sink may legally hold right now.
struct Shared {
    lo: Vec<AtomicU32>,
    hi: Vec<AtomicU32>,
    /// The measured round the first driver is in, or [`NOT_MEASURING`].
    round: AtomicU32,
    /// Whether that round is traced (the reader then keeps latencies).
    tracing: AtomicBool,
    stop: AtomicBool,
}

#[derive(Debug, Default)]
struct ReaderStats {
    tally: Tally,
    /// Reads completed during each measured round.
    ops: Vec<u32>,
    /// Slowest read that overlapped each measured round, µs.
    slowest_us: Vec<f64>,
    /// Every read's latency in µs (traced rounds only).
    latencies_us: Vec<f64>,
}

/// The second driver: closed-loop gets at the sink, each value checked
/// against the versions its key may legally hold.
fn reader(
    mut client: Client,
    shared: &Shared,
    keys: &[String],
    seed: u64,
    value_len: usize,
    rounds: usize,
) -> ReaderStats {
    let mut stats = ReaderStats {
        ops: vec![0; rounds],
        slowest_us: vec![0.0; rounds],
        ..ReaderStats::default()
    };
    let mut rng = Rng::new(seed ^ 0x7265_6164_6572);
    while !shared.stop.load(Ordering::SeqCst) {
        let index = rng.below(keys.len());
        let lo = shared.lo[index].load(Ordering::SeqCst);
        let started = Instant::now();
        let got = client.get(&keys[index]);
        let latency_us = started.elapsed().as_nanos() as f64 / 1e3;
        let hi = shared.hi[index].load(Ordering::SeqCst);
        let legal = got.ok().flatten().is_some_and(|value| {
            version_of(&value).is_some_and(|version| {
                (lo..=hi).contains(&version)
                    && value[..] == value_for(seed, index, version, value_len)[..]
            })
        });
        stats.tally.check(legal);
        let round = shared.round.load(Ordering::SeqCst) as usize;
        if round < rounds {
            stats.ops[round] += 1;
            stats.slowest_us[round] = stats.slowest_us[round].max(latency_us);
            if shared.tracing.load(Ordering::SeqCst) {
                stats.latencies_us.push(latency_us);
            }
        }
    }
    stats
}

/// Everything one set-up builds.
struct Env {
    inputs: Inputs,
    source: Daemon,
    /// `None` between `cold_join` rounds.
    sink: Option<Daemon>,
    source_addr: String,
    mirror: Option<Mirror>,
    /// Mirror work of untraced rounds of a traced run, oldest first.
    deferred: Vec<Deferred>,
    shared: Option<Arc<Shared>>,
    reader: Option<std::thread::JoinHandle<ReaderStats>>,
    /// Declared last: removed after the daemons above have stopped.
    scratch: Scratch,
}

/// What one round owes the mirrors: its ops and the digest the real sink
/// answered with after the pull.
struct Deferred {
    puts: Vec<(usize, Bytes)>,
    gets: Vec<(usize, Vec<u8>)>,
    sink_digest: u64,
    /// The round began with a fresh empty sink (`cold_join`).
    fresh_sink: bool,
}

/// Per-round samples of the measured phase.
#[derive(Debug, Default)]
struct Measured {
    /// Whether each round was traced (never, in an untraced run).
    traced: Vec<bool>,
    pull_ms: Vec<f64>,
    /// The first driver's ops completed per second of client phase.
    ops_per_s: Vec<f64>,
    /// Process CPU time per round.
    cpu_ms: Vec<f64>,
    round_wall_s: Vec<f64>,
    client_ops: u64,
    restart_ms: Vec<f64>,
    calib_ms: Vec<f64>,
    wire_bytes: u64,
    reports: KvSyncReport,
    /// Key plus value bytes the client put.
    user_bytes: u64,
    // Traced runs only.
    put_us: Vec<f64>,
    get_us: Vec<f64>,
    kv_put_ns: Vec<f64>,
    kv_get_ns: Vec<f64>,
    plan_bytes: Vec<f64>,
    frames: Vec<f64>,
    round_trips: Vec<f64>,
}

struct Run<'a> {
    spec: Workload,
    opts: &'a Options,
    placement: &'a Placement,
    rec: Recorder,
    tally: Tally,
    fp: Fingerprint,
    m: Measured,
    counters: Counters,
    /// Sinks started so far by `cold_join` rounds (names their dirs).
    joins: u32,
    /// RSS growth per key while the first set-up built its source store
    /// (later set-ups reuse the memory the earlier ones freed).
    resident_bytes_per_key: Option<f64>,
}

fn changed(report: &KvSyncReport) -> usize {
    report.keys_created + report.keys_fast_forwarded + report.keys_reconciled
}

fn add_report(sum: &mut KvSyncReport, r: &KvSyncReport) {
    sum.keys_examined += r.keys_examined;
    sum.keys_created += r.keys_created;
    sum.keys_fast_forwarded += r.keys_fast_forwarded;
    sum.keys_reconciled += r.keys_reconciled;
    sum.keys_unchanged += r.keys_unchanged;
    sum.meta_bytes += r.meta_bytes;
    sum.value_bytes += r.value_bytes;
    sum.shards_total += r.shards_total;
    sum.shards_skipped += r.shards_skipped;
    sum.shards_incremental += r.shards_incremental;
    sum.shards_snapshot += r.shards_snapshot;
    sum.digest_bytes += r.digest_bytes;
}

impl Run<'_> {
    fn set_up(&mut self) -> Result<Env> {
        let scratch = Scratch::new(self.spec.name)?;
        let inputs = Inputs::new(&self.spec, self.opts.seed);
        let rss_before = sys::rss_bytes();
        let store = inputs.build_source();
        self.resident_bytes_per_key.get_or_insert(
            sys::rss_bytes().saturating_sub(rss_before) as f64 / self.spec.keys as f64,
        );
        let source_dir = scratch.join("source");
        cluster::seed_dir_from_store(&source_dir, &store)?;
        let checkpoint = self.checkpoint();
        let mut source = Daemon::start(SOURCE, &source_dir, checkpoint, self.placement)?;
        let source_addr = source.addr.to_string();

        let (sink, mirror_sink) = if self.spec.kind == Kind::ColdJoin {
            (None, KvStore::with_shards(SINK, SHARDS))
        } else {
            let sink_dir = scratch.join("sink");
            let copy = cluster::seed_dir_converged(&sink_dir, SINK, &store, &inputs.keys)?;
            let mut sink = Daemon::start(SINK, &sink_dir, checkpoint, self.placement)?;
            // Initial convergence: the first pull dials the pooled peer
            // link and must find nothing to do.
            let first = sink.client.sync(&source_addr)?;
            let converged = changed(&first) == 0
                && sink.client.digest()? == source.client.digest()?
                && copy.replica_digest() == store.replica_digest();
            self.tally.check(converged);
            (Some(sink), copy)
        };
        let mirror = if self.opts.trace {
            Some(Mirror::new(
                store,
                mirror_sink,
                &scratch.join("mirror-log"),
            )?)
        } else {
            None
        };

        let (shared, reader_thread) = if self.spec.kind == Kind::RwUnderPull {
            let shared = Arc::new(Shared {
                lo: (0..self.spec.keys).map(|_| AtomicU32::new(1)).collect(),
                hi: (0..self.spec.keys).map(|_| AtomicU32::new(1)).collect(),
                round: AtomicU32::new(NOT_MEASURING),
                tracing: AtomicBool::new(false),
                stop: AtomicBool::new(false),
            });
            let client = sink.as_ref().expect("pooled sink").connect()?;
            let (shared2, keys) = (Arc::clone(&shared), Arc::clone(&inputs.keys));
            let (seed, value_len, rounds) = (self.opts.seed, self.spec.value_len, self.rounds());
            let thread = std::thread::spawn(move || {
                reader(client, &shared2, &keys, seed, value_len, rounds)
            });
            (Some(shared), Some(thread))
        } else {
            (None, None)
        };

        let mut env = Env {
            inputs,
            source,
            sink,
            source_addr,
            mirror,
            deferred: Vec::new(),
            shared,
            reader: reader_thread,
            scratch,
        };
        // A join round costs seconds; one is enough to warm the source.
        let warmups = if self.spec.kind == Kind::ColdJoin {
            1
        } else {
            WARMUP_ROUNDS
        };
        for _ in 0..warmups {
            self.round(&mut env, None)?;
        }
        Ok(env)
    }

    fn checkpoint(&self) -> Option<Duration> {
        self.opts.smoke.then_some(SMOKE_CHECKPOINT)
    }

    /// Blocks of the measured phase. A traced run does every pull twice,
    /// on the daemons and on the mirrors, and runs the probes: half the
    /// blocks, each as long as an untraced run's, keep it about as long.
    fn blocks(&self) -> usize {
        if self.opts.trace {
            self.spec.blocks.div_ceil(2)
        } else {
            self.spec.blocks
        }
    }

    fn per_block(&self) -> usize {
        self.spec.rounds(self.opts.seconds) / self.spec.blocks
    }

    /// Measured rounds.
    fn rounds(&self) -> usize {
        self.per_block() * self.blocks()
    }

    /// The per-round samples this run's numbers rest on: every round of
    /// an untraced run, the traced rounds of a traced one.
    fn kept(&self, per_round: &[f64]) -> Vec<f64> {
        self.of_rounds(per_round, self.opts.trace)
    }

    fn of_rounds(&self, per_round: &[f64], traced: bool) -> Vec<f64> {
        per_round
            .iter()
            .zip(&self.m.traced)
            .filter_map(|(&v, &t)| (t == traced).then_some(v))
            .collect()
    }

    /// Stops the second driver (if any) and the daemons.
    fn tear_down(&mut self, mut env: Env) -> ReaderStats {
        let stats = self.stop_reader(&mut env);
        if let Some(sink) = env.sink.take() {
            sink.stop();
        }
        env.source.stop();
        stats
    }

    fn stop_reader(&mut self, env: &mut Env) -> ReaderStats {
        let Some(thread) = env.reader.take() else {
            return ReaderStats::default();
        };
        if let Some(shared) = &env.shared {
            shared.stop.store(true, Ordering::SeqCst);
        }
        let stats = thread.join().expect("second driver does not panic");
        self.tally.attempted += stats.tally.attempted;
        self.tally.failed += stats.tally.failed;
        stats
    }

    /// Whether measured round `round` of a traced run goes untraced: the
    /// first quarter of every block, at least one round.
    fn goes_untraced(&self, round: u32) -> bool {
        let per_block = self.per_block();
        (round as usize % per_block) < (per_block / 4).max(1)
    }

    /// One round; `measured` is its index in the measured phase, `None`
    /// for a warm-up round.
    fn round(&mut self, env: &mut Env, measured: Option<u32>) -> Result<()> {
        let keep = measured.is_some();
        let traced = self.opts.trace && !measured.is_some_and(|r| self.goes_untraced(r));
        if traced {
            self.settle_mirrors(env);
        }
        if keep {
            self.rec.set_enabled(traced);
            if let Some(shared) = &env.shared {
                shared.tracing.store(traced, Ordering::SeqCst);
            }
        }
        self.rec.set_round(measured.unwrap_or(0));
        let puts = env.inputs.draw_puts(self.spec.puts);
        let gets = env.inputs.draw_gets(self.spec.gets);
        let cpu_before = sys::process_cpu();
        let round_span = self.rec.open("round");
        if let (Some(shared), Some(round)) = (&env.shared, measured) {
            shared.round.store(round, Ordering::SeqCst);
        }

        let fresh_sink = self.spec.kind == Kind::ColdJoin;
        if fresh_sink {
            self.joins += 1;
            let dir = env.scratch.join(&format!("sink-{}", self.joins));
            let t = self.rec.open("sink_start");
            let sink = Daemon::start(SINK, &dir, self.checkpoint(), self.placement);
            let _ = self.rec.close(t);
            env.sink = Some(sink?);
        }

        let put_s = self.put_phase(env, &puts, keep, traced && keep)?;
        let pull = self.sync_verb(env, keep)?;
        mark_delivered(env, &puts);
        let sink_digest = if env.shared.is_none() || self.opts.trace {
            Some(self.check_converged(env)?)
        } else {
            None
        };
        let get_s = self.get_phase(env, &gets, traced && keep)?;
        if keep {
            self.m.traced.push(traced);
            self.m.pull_ms.push(pull.as_secs_f64() * 1e3);
            let ops = puts.len() + gets.len();
            self.m
                .ops_per_s
                .push(ops as f64 / (put_s + get_s).max(1e-9));
            self.m.client_ops += ops as u64;
        }
        if let (Some(sink_digest), true) = (sink_digest, env.mirror.is_some()) {
            let owed = Deferred {
                puts,
                gets,
                sink_digest,
                fresh_sink,
            };
            if traced {
                self.mirror_round(env, &owed, keep);
            } else {
                env.deferred.push(owed);
            }
        }

        if fresh_sink {
            let sink = env.sink.as_mut().expect("joined sink");
            if self.opts.trace {
                self.counters.fold(&Counters::read(&sink.node), true);
            }
            let before = sink.client.digest()?;
            self.restart_sink(env, before, keep)?;
            let t = self.rec.open("sink_stop");
            env.sink.take().expect("restarted sink").stop();
            let _ = self.rec.close(t);
        }
        let wall = self.rec.close(round_span);
        if keep {
            self.m.round_wall_s.push(wall.as_secs_f64());
            self.m
                .cpu_ms
                .push(sys::process_cpu().saturating_sub(cpu_before).as_secs_f64() * 1e3);
        }
        Ok(())
    }

    /// Replays on the mirrors what the untraced rounds of a traced run
    /// put off, outside every span.
    fn settle_mirrors(&mut self, env: &mut Env) {
        if env.deferred.is_empty() {
            return;
        }
        self.rec.set_enabled(false);
        for owed in std::mem::take(&mut env.deferred) {
            self.mirror_round(env, &owed, false);
        }
    }

    /// `Node::stop` then `Node::start` on the sink's data dir, until it
    /// answers with the digest it held before; one `restart_ms` sample.
    fn restart_sink(&mut self, env: &mut Env, before: u64, keep: bool) -> Result<()> {
        let sink = env.sink.take().expect("a sink is up");
        let t = self.rec.open("restart");
        let restarted = sink.restart(self.placement);
        let _ = self.rec.close(t);
        let (sink, took, after) = restarted?;
        env.sink = Some(sink);
        self.tally.check(after == before);
        if keep {
            self.m.restart_ms.push(took.as_secs_f64() * 1e3);
        }
        Ok(())
    }

    /// The round's puts at the source; `timed` also times each one.
    fn put_phase(
        &mut self,
        env: &mut Env,
        puts: &[(usize, Bytes)],
        keep: bool,
        timed: bool,
    ) -> Result<f64> {
        if let Some(shared) = &env.shared {
            // From now until the pull returns, a reader may see either
            // version of these keys.
            for (index, _) in puts {
                shared.hi[*index].store(env.inputs.versions[*index], Ordering::SeqCst);
            }
        }
        let phase = self.rec.open("put_phase");
        for (index, value) in puts {
            let key = &env.inputs.keys[*index];
            let started = timed.then(Instant::now);
            let ok = env.source.client.put(key, value.clone());
            if let Some(started) = started {
                self.m
                    .put_us
                    .push(started.elapsed().as_nanos() as f64 / 1e3);
            }
            self.tally.check(ok.is_ok());
            ok?;
        }
        let took = self.rec.close(phase).as_secs_f64();
        for (index, value) in puts {
            self.fp.eat_u64(*index as u64);
            self.fp.eat(value);
            if keep {
                self.m.user_bytes += (env.inputs.keys[*index].len() + value.len()) as u64;
            }
        }
        Ok(took)
    }

    /// One `Client::sync` verb, request to `Synced` reply.
    fn sync_verb(&mut self, env: &mut Env, keep: bool) -> Result<Duration> {
        let sink = env.sink.as_mut().expect("a sink is up");
        let t = self.rec.open("sync_verb");
        let report = sink.client.sync(&env.source_addr);
        let took = self.rec.close(t);
        self.tally.check(report.is_ok());
        let report = report?;
        let wire = (report.meta_bytes + report.value_bytes + report.digest_bytes) as u64;
        self.fp.eat_u64(changed(&report) as u64);
        self.fp.eat_u64(wire);
        if keep {
            self.m.wire_bytes += wire;
            add_report(&mut self.m.reports, &report);
        }
        Ok(took)
    }

    /// After a pull the two daemons must hold the same replica digest.
    fn check_converged(&mut self, env: &mut Env) -> Result<u64> {
        let sink = env.sink.as_mut().expect("a sink is up").client.digest()?;
        let source = env.source.client.digest()?;
        self.tally.check(sink == source);
        self.fp.eat_u64(sink);
        self.fp.eat_u64(source);
        Ok(sink)
    }

    /// The round's gets at the sink, each returned value checked (and
    /// fingerprinted) once the phase is over; `timed` also times each one.
    fn get_phase(&mut self, env: &mut Env, gets: &[(usize, Vec<u8>)], timed: bool) -> Result<f64> {
        let sink = env.sink.as_mut().expect("a sink is up");
        let mut returned = Vec::with_capacity(gets.len());
        let phase = self.rec.open("get_phase");
        for (index, _) in gets {
            let started = timed.then(Instant::now);
            let got = sink.client.get(&env.inputs.keys[*index]);
            if let Some(started) = started {
                self.m
                    .get_us
                    .push(started.elapsed().as_nanos() as f64 / 1e3);
            }
            returned.push(got?);
        }
        let took = self.rec.close(phase).as_secs_f64();
        for ((index, expected), got) in gets.iter().zip(&returned) {
            self.tally
                .check(got.as_deref() == Some(expected.as_slice()));
            self.fp.eat_u64(*index as u64);
            self.fp.eat(got.as_deref().unwrap_or(b"<absent>"));
        }
        Ok(took)
    }

    /// Feeds a round's ops to the mirrors, replays the pull on them and
    /// checks the mirror sink against the real one.
    fn mirror_round(&mut self, env: &mut Env, owed: &Deferred, keep: bool) {
        let mirror = env.mirror.as_mut().expect("traced run");
        let keys = &env.inputs.keys;
        let Deferred { puts, gets, .. } = owed;
        if owed.fresh_sink {
            mirror.sink = KvStore::with_shards(SINK, SHARDS);
        }
        let t = self.rec.open("mirror_put");
        for (index, value) in puts {
            mirror.source.put(keys[*index].clone(), value.clone());
        }
        let put_ns = self.rec.close(t).as_nanos() as f64 / puts.len().max(1) as f64;
        let pulled = mirror.pull(&mut self.rec);
        let t = self.rec.open("mirror_get");
        let mut all_match = true;
        for (index, expected) in gets {
            all_match &= mirror.sink.get(&keys[*index]) == Some(expected.as_slice());
        }
        let get_ns = self.rec.close(t).as_nanos() as f64 / gets.len().max(1) as f64;
        self.tally.check(all_match);
        self.tally
            .check(pulled.is_ok() && mirror.sink.replica_digest() == owed.sink_digest);
        if let (Ok(pulled), true) = (pulled, keep) {
            if !puts.is_empty() {
                self.m.kv_put_ns.push(put_ns);
            }
            if !gets.is_empty() {
                self.m.kv_get_ns.push(get_ns);
            }
            self.m.plan_bytes.push(pulled.plan_bytes as f64);
            self.m.frames.push(pulled.frames as f64);
            self.m.round_trips.push(pulled.round_trips as f64);
        }
    }

    /// The measured phase: `rounds` rounds in `blocks` equal blocks, the
    /// host calibrated between blocks.
    fn measure(&mut self, env: &mut Env) -> Result<()> {
        let (rounds, per_block) = (self.rounds(), self.per_block());
        self.rec = Recorder::new(self.opts.trace);
        self.m = Measured::default();
        let base = self.counters_now(env);
        self.counters = Counters::default();
        for round in 0..rounds {
            if round % per_block == 0 {
                self.m.calib_ms.push(probes::calibrate());
            }
            self.round(env, Some(round as u32))?;
        }
        if let Some(shared) = &env.shared {
            shared.round.store(NOT_MEASURING, Ordering::SeqCst);
        }
        self.settle_mirrors(env);
        self.rec.set_enabled(self.opts.trace);
        let end = self.counters_now(env);
        self.counters.fold(&end, true);
        self.counters.fold(&base, false);
        // Dials are reported over the sinks' whole lives: the one dial of
        // a pooled link happens at initial convergence, before this phase.
        self.counters.dials += base.dials;
        Ok(())
    }

    /// Counters of the daemons that live across rounds.
    fn counters_now(&self, env: &Env) -> Counters {
        if !self.opts.trace {
            return Counters::default();
        }
        let mut now = Counters::read(&env.source.node);
        if let Some(sink) = &env.sink {
            now.fold(&Counters::read(&sink.node), true);
        }
        now
    }

    /// `Node::stop` then `Node::start` on the sink's data dir, a small
    /// pull before each so the final checkpoint has something to write.
    fn restarts(&mut self, env: &mut Env) -> Result<()> {
        let restarts = if self.opts.smoke { 3 } else { RESTARTS };
        for _ in 0..restarts {
            let puts = env.inputs.draw_puts(self.spec.puts.clamp(1, 16));
            self.put_phase(env, &puts, false, false)?;
            self.sync_verb(env, false)?;
            mark_delivered(env, &puts);
            let before = self.check_converged(env)?;
            self.restart_sink(env, before, true)?;
            if env.mirror.is_some() {
                // Keep the mirrors in step with the daemons, outside the
                // spans: these small pulls are not the workload's.
                let owed = Deferred {
                    puts,
                    gets: Vec::new(),
                    sink_digest: before,
                    fresh_sink: false,
                };
                self.rec.set_enabled(false);
                self.mirror_round(env, &owed, false);
                self.rec.set_enabled(self.opts.trace);
            }
        }
        Ok(())
    }
}

/// The pull that carried `puts` has returned: from now on the sink holds
/// at least these versions (only `rw_under_pull` has a reader to tell).
fn mark_delivered(env: &Env, puts: &[(usize, Bytes)]) {
    if let Some(shared) = &env.shared {
        for (index, _) in puts {
            shared.lo[*index].store(env.inputs.versions[*index], Ordering::SeqCst);
        }
    }
}

fn sample(name: &'static str, value: f64, n: usize) -> Sample {
    Sample {
        name,
        value,
        n,
        detail: String::new(),
    }
}

fn estimated(name: &'static str, est: &Estimate, tail: Option<(f64, f64)>) -> Sample {
    let tail = tail.map_or(String::new(), |(p, v)| format!(" p{p}={v:.4}"));
    Sample {
        name,
        value: est.value,
        n: est.n,
        detail: format!(
            "all={:.4} total_n={}{tail} block_spread={:.1}%",
            est.overall,
            est.total_n,
            est.spread * 100.0
        ),
    }
}

/// Runs one workload once.
///
/// # Errors
///
/// A daemon cannot start, a connection is lost, or the scratch dir
/// cannot be written. Wrong values and digests are not errors: they are
/// counted in [`Outcome::failed`].
pub fn run(spec: &Workload, opts: &Options, placement: &Placement) -> Result<Outcome> {
    let spec = if opts.smoke { spec.smoke() } else { *spec };
    let mut run = Run {
        spec,
        opts,
        placement,
        rec: Recorder::new(false),
        tally: Tally::default(),
        fp: Fingerprint::default(),
        m: Measured::default(),
        counters: Counters::default(),
        joins: 0,
        resident_bytes_per_key: None,
    };
    let mut notes = Vec::new();

    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..SETUPS {
        if let Some(previous) = env.take() {
            run.tear_down(previous);
        }
        let started = Instant::now();
        env = Some(run.set_up()?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");

    run.measure(&mut env)?;
    let reader_stats = run.stop_reader(&mut env);
    if spec.kind == Kind::RwUnderPull {
        // The first driver's final pull is in; with the readers quiet
        // the two daemons must agree.
        run.check_converged(&mut env)?;
    }
    if spec.kind != Kind::ColdJoin {
        run.restarts(&mut env)?;
    }

    let block_medians: Vec<f64> = estimator::into_blocks(&run.kept(&run.m.pull_ms), run.blocks())
        .iter()
        .map(|b| estimator::median(b))
        .collect();
    notes.push(format!("pull_ms block medians {block_medians:.2?}"));
    notes.push(format!(
        "host calibration per block, ms {:.2?}",
        run.m.calib_ms
    ));
    let layers = if opts.trace {
        per_layer(&mut run, &mut env, &reader_stats)?
    } else {
        Vec::new()
    };
    let trace_file = if opts.trace {
        let path = cluster::out_dir().join(format!("trace-{}-{}.jsonl", spec.name, opts.seed));
        std::fs::File::create(&path)
            .and_then(|file| run.rec.write_jsonl(std::io::BufWriter::new(file)))
            .map_err(|e| fatal(format!("cannot write {}: {e}", path.display())))?;
        Some(path)
    } else {
        None
    };
    run.tear_down(env);
    // After tear-down, so the peak covers every daemon and store of the run.
    let mut samples = end_to_end(&run, &setup_s, &reader_stats);
    samples.extend(layers);
    Ok(Outcome {
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        fingerprint: run.fp.value(),
        samples,
        notes,
        trace_file,
    })
}

fn end_to_end(run: &Run<'_>, setup_s: &[f64], reader: &ReaderStats) -> Vec<Sample> {
    let m = &run.m;
    let blocks = run.blocks();
    let quiet = |per_round: &[f64], quiet| estimator::quiet(&run.kept(per_round), blocks, quiet);
    let pull = quiet(&m.pull_ms, Quiet::Lowest);
    let ops = if run.spec.kind == Kind::RwUnderPull {
        let rates: Vec<f64> = reader
            .ops
            .iter()
            .zip(&m.round_wall_s)
            .map(|(&ops, wall)| f64::from(ops) / wall.max(1e-9))
            .collect();
        quiet(&rates, Quiet::Highest)
    } else {
        quiet(&m.ops_per_s, Quiet::Highest)
    };
    let cpu = quiet(&m.cpu_ms, Quiet::Lowest);
    let keys_changed = changed(&m.reports);

    vec![
        Sample {
            detail: format!("median of {setup_s:.3?}"),
            ..sample("setup_s", estimator::median(setup_s), setup_s.len())
        },
        estimated("pull_ms_p50", &pull, estimator::tail(&run.kept(&m.pull_ms))),
        Sample {
            detail: format!("{} B over {keys_changed} keys", m.wire_bytes),
            ..sample(
                "wire_bytes_per_key",
                m.wire_bytes as f64 / keys_changed.max(1) as f64,
                m.pull_ms.len(),
            )
        },
        estimated("client_ops_per_s", &ops, None),
        Sample {
            detail: format!("median of {:.1?}", m.restart_ms),
            ..sample(
                "restart_ms",
                estimator::median(&m.restart_ms),
                m.restart_ms.len(),
            )
        },
        estimated("cpu_ms_per_round", &cpu, None),
        sample("peak_rss_mb", sys::peak_rss_mib(), 1),
    ]
}

/// The traced run's per-layer numbers: mirror spans, exact counts, the
/// daemons' own counters, and the single-layer probes.
fn per_layer(run: &mut Run<'_>, env: &mut Env, reader: &ReaderStats) -> Result<Vec<Sample>> {
    let blocks = run.blocks();
    let scale = Scale::new(run.opts.smoke);
    let quiet_span = |rec: &Recorder, name: &str| {
        estimator::quiet(&rec.durations_ms(name), blocks, Quiet::Lowest)
    };
    let mut out = Vec::new();

    // Mirror phases: where a pull's time goes.
    let phases: Vec<Estimate> = mirror::PHASES
        .iter()
        .map(|name| quiet_span(&run.rec, name))
        .collect();
    let traced_pulls = run.kept(&run.m.pull_ms);
    let pull = estimator::quiet(&traced_pulls, blocks, Quiet::Lowest);
    let phase_sum: f64 = phases.iter().map(|e| e.value).sum();
    let [digest_vector, plan_contact, client_endpoint, contact, apply, wal_append] =
        <[Estimate; 6]>::try_from(phases).expect("six phases");
    out.push(estimated("replication.contact_ms_p50", &contact, None));
    out.push(Sample {
        detail: format!(
            "all={:.2} total_n={}",
            digest_vector.overall * 1e3,
            digest_vector.total_n
        ),
        ..sample(
            "kv.digest_vector_us_p50",
            digest_vector.value * 1e3,
            digest_vector.n,
        )
    });
    out.push(estimated("kv.plan_contact_ms_p50", &plan_contact, None));
    out.push(estimated(
        "kv.client_endpoint_ms_p50",
        &client_endpoint,
        None,
    ));
    out.push(estimated("kv.apply_ms_p50", &apply, None));
    out.push(estimated(
        "server.wal_append_contact_ms_p50",
        &wal_append,
        None,
    ));
    out.push(Sample {
        detail: format!(
            "traced pull_ms_p50 {:.4} - mirror phases {phase_sum:.4}",
            pull.value
        ),
        ..sample("server.pull_other_ms", pull.value - phase_sum, pull.n)
    });
    out.push(sample(
        "server.pull_ms_p95",
        estimator::quantile(&traced_pulls, 0.95),
        traced_pulls.len(),
    ));

    // Exact counts.
    let m = &run.m;
    let reports = &m.reports;
    let keys_changed = changed(reports).max(1) as f64;
    let pulls = m.pull_ms.len();
    out.push(sample(
        "replication.plan_bytes",
        estimator::median(&m.plan_bytes),
        pulls,
    ));
    out.push(sample(
        "replication.frames_per_contact",
        estimator::median(&m.frames),
        pulls,
    ));
    out.push(sample(
        "replication.round_trips",
        estimator::median(&m.round_trips),
        pulls,
    ));
    out.push(sample(
        "replication.meta_bytes_per_key",
        reports.meta_bytes as f64 / keys_changed,
        pulls,
    ));
    out.push(sample(
        "replication.value_bytes_per_key",
        reports.value_bytes as f64 / keys_changed,
        pulls,
    ));
    out.push(sample(
        "kv.keys_walked_per_changed_key",
        reports.keys_examined as f64 / keys_changed,
        pulls,
    ));
    out.push(sample(
        "kv.shards_skipped_share",
        reports.shards_skipped as f64 / reports.shards_total.max(1) as f64,
        pulls,
    ));
    out.push(sample(
        "kv.put_ns_p50",
        estimator::median(&m.kv_put_ns),
        m.kv_put_ns.len(),
    ));
    out.push(sample(
        "kv.get_ns_p50",
        estimator::median(&m.kv_get_ns),
        m.kv_get_ns.len(),
    ));
    out.push(sample(
        "kv.resident_bytes_per_key",
        run.resident_bytes_per_key.unwrap_or(0.0),
        run.spec.keys,
    ));

    // The daemons' own counters over the measured phase.
    let c = &run.counters;
    let client_ops = m.client_ops as f64 + f64::from(reader.ops.iter().sum::<u32>());
    out.push(sample("net.pool_dials", c.dials as f64, pulls));
    out.push(sample("net.pool_reuses", c.reuses as f64, pulls));
    out.push(sample(
        "server.verb_service_us_p50",
        c.verbs.p50() as f64,
        c.verbs.counts.iter().sum::<u64>() as usize,
    ));
    out.push(sample(
        "server.reactor_wakes_per_op",
        c.wakes as f64 / client_ops.max(1.0),
        client_ops as usize,
    ));
    out.push(sample(
        "server.wal_bytes_per_user_byte",
        if m.user_bytes == 0 {
            0.0
        } else {
            c.wal_bytes as f64 / m.user_bytes as f64
        },
        pulls,
    ));
    out.push(sample(
        "server.wal_fsyncs_per_round",
        c.wal_fsyncs as f64 / pulls.max(1) as f64,
        pulls,
    ));
    out.push(sample("server.checkpoints", c.checkpoints as f64, pulls));

    // Client-side verb latencies from the run itself.
    let get_us = if reader.latencies_us.is_empty() {
        &m.get_us
    } else {
        &reader.latencies_us
    };
    out.push(sample(
        "server.get_us_p50",
        estimator::median(get_us),
        get_us.len(),
    ));
    out.push(sample(
        "server.put_us_p50",
        estimator::median(&m.put_us),
        m.put_us.len(),
    ));
    let stall_ms: Vec<f64> = reader.slowest_us.iter().map(|us| us / 1e3).collect();
    let stall_ms = run.kept(&stall_ms);
    out.push(sample(
        "server.client_stall_ms_p50",
        estimator::median(&stall_ms),
        stall_ms.len(),
    ));

    // Host.
    let calib = estimator::median(&m.calib_ms);
    let (lo, hi) = m
        .calib_ms
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    out.push(sample("host.calib_ms_p50", calib, m.calib_ms.len()));
    out.push(sample(
        "host.calib_spread_pct",
        (hi - lo) / calib.max(1e-9) * 100.0,
        m.calib_ms.len(),
    ));

    // Single-layer probes.
    let (v, n) = probes::frame_codec(scale);
    out.push(sample("core.frame_codec_mb_per_s", v, n));
    let (v, n) = probes::srv_compare(scale);
    out.push(sample("core.srv_compare_ns_p50", v, n));
    let (v, n) = probes::frame_rtt(scale)?;
    out.push(sample("net.frame_rtt_us_p50", v, n));
    let (v, n) = probes::tcp_bulk(scale)?;
    out.push(sample("net.tcp_mb_per_s", v, n));
    let (v, n) = probes::dial(env.source.addr, scale)?;
    out.push(sample("net.dial_ms_p50", v, n));
    let (v, n) = probes::wal_replay(scale)?;
    out.push(sample("server.replay_krec_per_s", v, n));
    let mirror = env.mirror.as_mut().expect("traced run");
    let ((v, n), (v2, n2)) = probes::snapshot_codec(&mirror.source, scale);
    out.push(sample("kv.snapshot_encode_mb_per_s", v, n));
    out.push(sample("kv.snapshot_decode_mb_per_s", v2, n2));
    let mut append_us = Vec::with_capacity(scale.appends);
    for i in 0..scale.appends {
        let key = &env.inputs.keys[i % env.inputs.keys.len()];
        let started = Instant::now();
        let appended = mirror.append_one(key);
        append_us.push(started.elapsed().as_nanos() as f64 / 1e3);
        appended.map_err(|e| fatal(format!("probe append failed: {e}")))?;
    }
    out.push(sample(
        "server.wal_append_us_p50",
        estimator::median(&append_us),
        append_us.len(),
    ));
    for _ in 0..scale.repeats {
        mirror.checkpoint(&mut run.rec)?;
    }
    let checkpoints = run.rec.durations_ms("checkpoint");
    out.push(sample(
        "server.checkpoint_ms_p50",
        estimator::median(&checkpoints),
        checkpoints.len(),
    ));

    // Tracing overhead: the traced rounds against the untraced rounds
    // that alternate with them, block by block, in this process.
    let untraced = estimator::median(&run.of_rounds(&run.m.pull_ms, false));
    let traced = estimator::median(&traced_pulls);
    out.push(Sample {
        detail: format!("traced rounds {traced:.4} ms vs untraced rounds {untraced:.4} ms"),
        ..sample(
            "trace.overhead_pct",
            if untraced > 0.0 {
                (traced / untraced - 1.0) * 100.0
            } else {
                0.0
            },
            run.m.traced.iter().filter(|&&t| !t).count(),
        )
    });
    Ok(out)
}
