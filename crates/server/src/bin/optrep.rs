//! The `optrep` client: one or more verbs against one daemon over a
//! single connection, then exit — plus `optrep top`, a polling live
//! fleet view across many daemons.
//!
//! ```text
//! optrep <daemon-addr> <verb> [args] [<verb> [args] ...]
//! verbs: get <key> | put <key> <value> | delete <key> |
//!        status | digest | sync <peer-addr> | metrics
//! optrep top [--interval-ms <n>] [--iters <n>] <addr> [<addr> ...]
//! ```
//!
//! Verbs chain: `optrep 127.0.0.1:7701 put a 1 put b 2 status` runs
//! all three request/response exchanges over the same TCP connection —
//! the daemon sees one verb session, not three dials. `sync` asks the
//! daemon to pull from `<peer-addr>` and prints the pull report.
//! `digest` prints the site-independent replica digest as hex — equal
//! digests across daemons mean converged replicas. `metrics` prints the
//! daemon's metric families in Prometheus text exposition format, so a
//! daemon is scrapeable with nothing but this binary and a pipe.
//! Exit status is 0 when every verb succeeded, 1 on the first failed
//! verb (later verbs are not run), 2 on usage errors (nothing is run).
//!
//! `optrep top` polls `status` + `metrics` from every listed daemon on
//! one persistent connection each and renders a per-daemon table row:
//! uptime, store shape, contact count and latency p50/p99, wire bytes,
//! live pooled connections, sync-worker queue depth and quarantined
//! peers. `--iters 1` prints one table and exits (scriptable);
//! otherwise it redraws every `--interval-ms` (default 1000).

use optrep_core::obs::MetricsSnapshot;
use optrep_net::ConnectOptions;
use optrep_server::proto::StatusInfo;
use optrep_server::Client;
use std::net::SocketAddr;

fn usage() -> ! {
    eprintln!(
        "usage: optrep <addr> <verb> [args] [<verb> [args] ...]\n\
         verbs: get <key> | put <key> <value> | delete <key> | \
         status | digest | sync <peer> | metrics\n\
         or:    optrep top [--interval-ms <n>] [--iters <n>] <addr> [<addr> ...]"
    );
    std::process::exit(2)
}

/// One parsed verb; argument counts already validated.
enum Verb {
    Get(String),
    Put(String, String),
    Delete(String),
    Status,
    Digest,
    Sync(String),
    Metrics,
}

/// Parses the whole command line greedily, verb by verb, so a typo in
/// the fourth verb is caught before the first one runs.
fn parse(args: &[String]) -> Option<Vec<Verb>> {
    let mut verbs = Vec::new();
    let mut rest = args;
    while let [verb, tail @ ..] = rest {
        let (parsed, tail) = match (verb.as_str(), tail) {
            ("get", [key, tail @ ..]) => (Verb::Get(key.clone()), tail),
            ("put", [key, value, tail @ ..]) => (Verb::Put(key.clone(), value.clone()), tail),
            ("delete", [key, tail @ ..]) => (Verb::Delete(key.clone()), tail),
            ("status", tail) => (Verb::Status, tail),
            ("digest", tail) => (Verb::Digest, tail),
            ("sync", [peer, tail @ ..]) => (Verb::Sync(peer.clone()), tail),
            ("metrics", tail) => (Verb::Metrics, tail),
            _ => return None,
        };
        verbs.push(parsed);
        rest = tail;
    }
    if verbs.is_empty() {
        return None;
    }
    Some(verbs)
}

fn run(client: &mut Client, verb: &Verb) -> optrep_core::Result<()> {
    match verb {
        Verb::Get(key) => client.get(key).map(|value| match value {
            Some(v) => match std::str::from_utf8(&v) {
                Ok(text) => println!("{text}"),
                Err(_) => println!("{v:?}"),
            },
            None => println!("(nil)"),
        }),
        Verb::Put(key, value) => client.put(key, value.clone().into_bytes()),
        Verb::Delete(key) => client.delete(key),
        Verb::Status => client.status().map(|info| {
            println!(
                "site {} keys {} tracked {} generation {} \
                 conn-dials {} conn-contacts {} conn-live {} \
                 uptime {} metrics-seq {} \
                 wal-records {} wal-bytes {} wal-fsyncs {} ckpt-seq {} \
                 planner-skipped {} planner-incremental {} planner-snapshot {} planner-bytes {} \
                 planner-refined {} planner-digests {} planner-proposed {} planner-refused {}",
                info.site,
                info.keys,
                info.tracked,
                info.generation,
                info.conn_dials,
                info.conn_contacts,
                info.conn_live,
                info.uptime_secs,
                info.metrics_seq,
                info.wal_records,
                info.wal_bytes,
                info.wal_fsyncs,
                info.wal_checkpoint_seq,
                info.planner_shards_skipped,
                info.planner_shards_incremental,
                info.planner_shards_snapshot,
                info.planner_digest_bytes,
                info.planner_shards_refined,
                info.planner_digests_sent,
                info.planner_shards_proposed,
                info.planner_shards_refused,
            );
        }),
        Verb::Digest => client.digest().map(|digest| println!("{digest:016x}")),
        Verb::Sync(peer) => client.sync(peer).map(|report| {
            println!(
                "examined {} created {} fast-forwarded {} reconciled {} \
                 unchanged {} meta-bytes {} value-bytes {} \
                 shards {} skipped {} incremental {} snapshot {} digest-bytes {} refined {} \
                 digests {}/{} proposed {} (refused {})",
                report.keys_examined,
                report.keys_created,
                report.keys_fast_forwarded,
                report.keys_reconciled,
                report.keys_unchanged,
                report.meta_bytes,
                report.value_bytes,
                report.shards_total,
                report.shards_skipped,
                report.shards_incremental,
                report.shards_snapshot,
                report.digest_bytes,
                report.shards_refined,
                report.digests_sent,
                report.shards_total,
                report.shards_proposed,
                report.shards_refused,
            );
        }),
        Verb::Metrics => client
            .metrics()
            .map(|snapshot| print!("{}", snapshot.to_prometheus())),
    }
}

fn verb_name(verb: &Verb) -> &'static str {
    match verb {
        Verb::Get(_) => "get",
        Verb::Put(..) => "put",
        Verb::Delete(_) => "delete",
        Verb::Status => "status",
        Verb::Digest => "digest",
        Verb::Sync(_) => "sync",
        Verb::Metrics => "metrics",
    }
}

/// One daemon in the `top` fleet: its address plus the persistent
/// connection, re-dialled lazily after any failure so a daemon that
/// restarts mid-watch comes back as soon as it answers again.
struct FleetPeer {
    addr: SocketAddr,
    client: Option<Client>,
}

impl FleetPeer {
    /// Polls `status` + `metrics` over the persistent connection,
    /// dialling first if the previous tick failed.
    fn poll(&mut self) -> optrep_core::Result<(StatusInfo, MetricsSnapshot)> {
        if self.client.is_none() {
            self.client = Some(Client::connect(self.addr, &ConnectOptions::default())?);
        }
        let client = self.client.as_mut().expect("client just ensured");
        let polled = client.status().and_then(|s| Ok((s, client.metrics()?)));
        if polled.is_err() {
            self.client = None;
        }
        polled
    }
}

/// Formats one fleet-table row from a successful poll.
///
/// Latency quantiles come from the `optrep_contact_micros` histogram;
/// wire bytes are the four per-plane byte counters summed, matching
/// how `SessionTotals::wire_bytes()` counts them on the daemon side.
fn top_row(addr: SocketAddr, status: &StatusInfo, metrics: &MetricsSnapshot) -> String {
    let contacts = metrics
        .counter("optrep_contacts_total")
        .unwrap_or(status.conn_contacts);
    let latency = metrics.histogram("optrep_contact_micros");
    let (p50, p99) = latency
        .map(|h| (h.p50() as f64 / 1000.0, h.p99() as f64 / 1000.0))
        .unwrap_or((0.0, 0.0));
    let bytes: u64 = [
        "optrep_compare_bytes_total",
        "optrep_meta_bytes_total",
        "optrep_framing_bytes_total",
        "optrep_payload_bytes_total",
    ]
    .iter()
    .filter_map(|name| metrics.counter(name))
    .sum();
    format!(
        "{:<4} {:<21} {:>6} {:>6} {:>5} {:>8} {:>9.2} {:>9.2} {:>10} {:>4} {:>5} {:>4} {:>8}",
        status.site,
        addr,
        status.uptime_secs,
        status.keys,
        status.generation,
        contacts,
        p50,
        p99,
        bytes,
        status.conn_live,
        metrics.gauge("optrep_worker_queue_depth").unwrap_or(0),
        metrics.gauge("optrep_quarantined_peers").unwrap_or(0),
        status.planner_shards_skipped,
    )
}

/// `optrep top`: poll every daemon each tick and redraw the table.
///
/// `iters == 0` runs forever; `--iters 1` prints one table with no
/// screen clearing, so scripts (and CI) can grep the output.
fn top(addrs: &[SocketAddr], interval: std::time::Duration, iters: u64) -> ! {
    let mut fleet: Vec<FleetPeer> = addrs
        .iter()
        .map(|&addr| FleetPeer { addr, client: None })
        .collect();
    let mut tick = 0u64;
    loop {
        let rows: Vec<String> = fleet
            .iter_mut()
            .map(|peer| match peer.poll() {
                Ok((status, metrics)) => top_row(peer.addr, &status, &metrics),
                Err(e) => format!("{:<4} {:<21} unreachable: {e}", "-", peer.addr),
            })
            .collect();
        if iters != 1 {
            // Clear and re-home only when actually animating.
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "{:<4} {:<21} {:>6} {:>6} {:>5} {:>8} {:>9} {:>9} {:>10} {:>4} {:>5} {:>4} {:>8}",
            "SITE",
            "ADDR",
            "UP(S)",
            "KEYS",
            "GEN",
            "CONTACT",
            "P50(MS)",
            "P99(MS)",
            "BYTES",
            "LIVE",
            "WORKQ",
            "QUAR",
            "SKIPPED",
        );
        for row in rows {
            println!("{row}");
        }
        use std::io::Write;
        let _ = std::io::stdout().flush();
        tick += 1;
        if iters != 0 && tick >= iters {
            std::process::exit(0);
        }
        std::thread::sleep(interval);
    }
}

/// Parses `top`'s own arguments: interleaved `--interval-ms`/`--iters`
/// options and one or more daemon addresses.
fn parse_top(args: &[String]) -> ! {
    let mut addrs = Vec::new();
    let mut interval_ms = 1000u64;
    let mut iters = 0u64;
    let mut rest = args;
    while let [arg, tail @ ..] = rest {
        rest = match (arg.as_str(), tail) {
            ("--interval-ms", [value, tail @ ..]) => {
                interval_ms = value.parse().unwrap_or_else(|_| usage());
                tail
            }
            ("--iters", [value, tail @ ..]) => {
                iters = value.parse().unwrap_or_else(|_| usage());
                tail
            }
            (addr, tail) => {
                addrs.push(addr.parse::<SocketAddr>().unwrap_or_else(|_| {
                    eprintln!("optrep: bad daemon address: {addr}");
                    std::process::exit(2)
                }));
                tail
            }
        };
    }
    if addrs.is_empty() {
        usage()
    }
    top(&addrs, std::time::Duration::from_millis(interval_ms), iters)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [addr, rest @ ..] = args.as_slice() else {
        usage()
    };
    if addr == "top" {
        parse_top(rest);
    }
    let Some(verbs) = parse(rest) else { usage() };
    let addr: SocketAddr = addr.parse().unwrap_or_else(|_| {
        eprintln!("optrep: bad daemon address: {addr}");
        std::process::exit(2)
    });
    let mut client = match Client::connect(addr, &ConnectOptions::default()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("optrep: cannot reach {addr}: {e}");
            std::process::exit(1)
        }
    };
    for verb in &verbs {
        if let Err(e) = run(&mut client, verb) {
            eprintln!("optrep: {} failed: {e}", verb_name(verb));
            std::process::exit(1);
        }
    }
}
