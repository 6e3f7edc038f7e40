//! The `optrepd` daemon: one replica site served over TCP.
//!
//! ```text
//! optrepd --site <id> --listen <addr> [--peer <addr>]... [--gossip-ms <n>]
//!         [--data-dir <path>] [--fsync always|interval[:ms]|never]
//!         [--checkpoint-ms <n>]
//! ```
//!
//! * `--site` — this replica's site id: a numeric index, a letter
//!   (`A` = 0), or the `S<n>` form.
//! * `--listen` — bind address, e.g. `127.0.0.1:7701` (port 0 picks an
//!   ephemeral port; the bound address is printed on startup).
//! * `--peer` — a peer daemon to pull from periodically; repeatable.
//! * `--gossip-ms` — gossip period in milliseconds (default 500 when
//!   peers are given, off otherwise).
//! * `--data-dir` — makes the daemon durable: every committed mutation
//!   is WAL-logged here before it is acknowledged, checkpoints compact
//!   the log in the background, and a restart (even after `kill -9`)
//!   replays snapshot + WAL back to exactly the committed state. A
//!   `recovered ...` line reports what boot replay found.
//! * `--fsync` — when WAL appends reach the disk: `always` (an acked
//!   write survives a crash), `interval[:ms]` (bounded loss, default
//!   50 ms — the default policy), or `never` (the OS decides).
//! * `--checkpoint-ms` — background checkpoint period (default 30000).
//!
//! On SIGINT/SIGTERM the daemon shuts down gracefully: it stops its
//! threads, writes a final checkpoint, fsyncs the WAL, FINs pooled peer
//! connections, and flushes any `OPTREP_OBS_JSONL`/`OPTREP_FLIGHT_JSONL`
//! sinks before exiting.
//!
//! `OPTREP_OBS_JSONL=<path>` streams every sync event the daemon's
//! contacts emit to `<path>`; `tables --check-jsonl <path>` replays it
//! through `obs::CheckSink` (schema, pairing, byte and counter
//! conservation, Theorem 5.1, the COMPARE oracle).
//! `OPTREP_FLIGHT_JSONL=<path>` arms the
//! slow-contact flight recorder: each contact's recent events ride a
//! bounded ring, and rings of contacts slower than
//! `OPTREP_FLIGHT_SLOW_MS` (default 250) — or aborted ones — are dumped
//! to `<path>` as JSONL: a `"ev":"flight"` header, then one
//! `SyncEvent::from_json` line per event. Both can be set at once; they
//! are independent sinks over the same event stream.
//!
//! The daemon prints one `listening on <addr>` line once reachable and
//! runs until killed; by then SIGINT and SIGTERM stop it gracefully.

use optrep_core::{obs, SiteId};
use optrep_server::{DurabilityConfig, FsyncPolicy, Node, NodeConfig};
use std::net::SocketAddr;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: optrepd --site <id> --listen <addr> [--peer <addr>]... [--gossip-ms <n>]\n\
         \x20              [--data-dir <path>] [--fsync always|interval[:ms]|never] \
         [--checkpoint-ms <n>]"
    );
    std::process::exit(2)
}

/// SIGINT/SIGTERM latch: the handler only flips an atomic; the
/// main thread polls it and runs the actual shutdown outside signal
/// context. Installed with `signal(2)` bound directly — the same
/// no-libc-crate FFI discipline `optrep_net::reactor` uses for
/// `poll(2)`.
mod signals {
    use std::ffi::c_int;
    use std::sync::atomic::{AtomicBool, Ordering};

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: c_int) {
        // Only async-signal-safe work here: one atomic store.
        REQUESTED.store(true, Ordering::Release);
    }

    /// Installs the latch for SIGINT and SIGTERM.
    pub fn install() {
        let handler = on_signal as extern "C" fn(c_int) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::Acquire)
    }
}

fn parse_site(s: &str) -> SiteId {
    SiteId::parse(s)
        .or_else(|| s.parse::<u32>().ok().map(SiteId::new))
        .unwrap_or_else(|| {
            eprintln!("optrepd: bad site id: {s}");
            std::process::exit(2)
        })
}

fn parse_addr(s: &str) -> SocketAddr {
    s.parse().unwrap_or_else(|_| {
        eprintln!("optrepd: bad address: {s}");
        std::process::exit(2)
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut site: Option<SiteId> = None;
    let mut listen: Option<SocketAddr> = None;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut gossip_ms: Option<u64> = None;
    let mut data_dir: Option<String> = None;
    let mut fsync: Option<FsyncPolicy> = None;
    let mut checkpoint_ms: Option<u64> = None;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("optrepd: {flag} needs a value");
                std::process::exit(2)
            })
        };
        match arg.as_str() {
            "--site" => site = Some(parse_site(&value("--site"))),
            "--listen" => listen = Some(parse_addr(&value("--listen"))),
            "--peer" => peers.push(parse_addr(&value("--peer"))),
            "--gossip-ms" => {
                let raw = value("--gossip-ms");
                match raw.parse::<u64>() {
                    Ok(ms) => gossip_ms = Some(ms),
                    Err(_) => {
                        eprintln!("optrepd: bad gossip period: {raw}");
                        std::process::exit(2);
                    }
                }
            }
            "--data-dir" => data_dir = Some(value("--data-dir")),
            "--fsync" => {
                let raw = value("--fsync");
                match FsyncPolicy::parse(&raw) {
                    Some(policy) => fsync = Some(policy),
                    None => {
                        eprintln!("optrepd: bad fsync policy: {raw}");
                        std::process::exit(2);
                    }
                }
            }
            "--checkpoint-ms" => {
                let raw = value("--checkpoint-ms");
                match raw.parse::<u64>() {
                    Ok(ms) => checkpoint_ms = Some(ms),
                    Err(_) => {
                        eprintln!("optrepd: bad checkpoint period: {raw}");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("optrepd: unknown argument: {other}");
                usage()
            }
        }
    }
    let (Some(site), Some(listen)) = (site, listen) else {
        usage()
    };
    let gossip = match (gossip_ms, peers.is_empty()) {
        (Some(ms), _) => Some(Duration::from_millis(ms.max(1))),
        (None, false) => Some(Duration::from_millis(500)),
        (None, true) => None,
    };
    let mut config = NodeConfig::new(site, listen).with_peers(peers);
    if let Some(interval) = gossip {
        config = config.with_gossip(interval);
    }
    match data_dir {
        Some(dir) => {
            let mut durability = DurabilityConfig::new(dir);
            if let Some(policy) = fsync {
                durability = durability.with_fsync(policy);
            }
            if let Some(ms) = checkpoint_ms {
                durability = durability.with_checkpoint_interval(Duration::from_millis(ms.max(1)));
            }
            config = config.with_durability(durability);
        }
        None if fsync.is_some() || checkpoint_ms.is_some() => {
            eprintln!("optrepd: --fsync/--checkpoint-ms need --data-dir");
            std::process::exit(2);
        }
        None => {}
    }
    run_traced(config);
}

/// A set env var whose value is a non-empty string, or `None`.
fn env_path(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|path| !path.is_empty())
}

/// Starts the node, wrapped in the sinks the environment asks for —
/// a `JsonlSink` for `OPTREP_OBS_JSONL`, a `FlightRecorder` for
/// `OPTREP_FLIGHT_JSONL`. Sinks are installed *before* [`Node::start`]
/// so the node's threads inherit them; with neither set, none is.
fn run_traced(config: NodeConfig) {
    let serve = move || {
        let node = match Node::start(config) {
            Ok(node) => node,
            Err(e) => {
                eprintln!("optrepd: {e}");
                std::process::exit(1);
            }
        };
        if let Some(replay) = node.replay_report() {
            println!(
                "optrepd site {} recovered {} entries \
                 (snapshot {} bytes seq {}, wal {} applied {} skipped{}) in {:?}",
                node.site(),
                replay.entries,
                replay.snapshot_bytes,
                replay.snapshot_seq,
                replay.wal_records_applied,
                replay.wal_records_skipped,
                if replay.torn_tail {
                    ", torn tail dropped"
                } else {
                    ""
                },
                replay.elapsed,
            );
        }
        // Watch for SIGINT/SIGTERM and shut down gracefully — final
        // checkpoint, WAL fsync, pooled connections FINned — then
        // return so the obs scope below flushes its sinks on the way
        // out. The latch is in place before the ready line: a signal
        // sent the moment the line is read is a graceful stop.
        signals::install();
        println!("optrepd site {} listening on {}", node.site(), node.addr());
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        while !signals::requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        println!("optrepd site {} shutting down", node.site());
        let _ = std::io::stdout().flush();
        node.stop();
    };
    let mut sinks: Vec<std::sync::Arc<dyn obs::Sink>> = Vec::new();
    if let Some(path) = env_path("OPTREP_OBS_JSONL") {
        // Line-buffered, not block-buffered: daemons die by signal, so
        // every event must reach the file as it is emitted or the trace
        // ends mid-buffer.
        match std::fs::File::create(&path) {
            Ok(file) => sinks.push(std::sync::Arc::new(obs::JsonlSink::new(Box::new(
                std::io::LineWriter::new(file),
            )))),
            Err(e) => {
                eprintln!("optrepd: cannot create {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = env_path("OPTREP_FLIGHT_JSONL") {
        let slow_ms = std::env::var("OPTREP_FLIGHT_SLOW_MS")
            .ok()
            .and_then(|raw| raw.parse::<u64>().ok())
            .unwrap_or(250);
        match obs::FlightRecorder::create(&path, Duration::from_millis(slow_ms)) {
            Ok(recorder) => sinks.push(std::sync::Arc::new(recorder)),
            Err(e) => {
                eprintln!("optrepd: cannot create {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    obs::with_all(sinks, serve);
}
