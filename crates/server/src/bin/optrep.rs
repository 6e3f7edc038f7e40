//! The `optrep` client: one or more verbs against one daemon over a
//! single connection, then exit — plus `optrep top`, a polling live
//! fleet view across many daemons.
//!
//! ```text
//! optrep <daemon-addr> <verb> [args] [<verb> [args] ...]
//! verbs: get <key> | put <key> <value> | delete <key> |
//!        digest | sync <peer-addr> | metrics
//! optrep top [--interval-ms <n>] [--iters <n>] <addr> [<addr> ...]
//! ```
//!
//! Verbs chain: `optrep 127.0.0.1:7701 put a 1 put b 2 digest` runs
//! all three request/response exchanges over the same TCP connection —
//! the daemon sees one verb session, not three dials. `sync` asks the
//! daemon to pull from `<peer-addr>` and prints the pull report.
//! `digest` prints the site-independent replica digest as hex — equal
//! digests across daemons mean converged replicas. `metrics` prints the
//! daemon's metric families in Prometheus text exposition format, so a
//! daemon is scrapeable with nothing but this binary and a pipe; every
//! count a daemon keeps is one of those families.
//! Exit status is 0 when every verb succeeded, 1 on the first failed
//! verb (later verbs are not run), 2 on usage errors (nothing is run).
//!
//! `optrep top` polls `metrics` from every listed daemon, one request a
//! tick on one persistent connection each, and renders a per-daemon
//! table row from the families: site, uptime, store shape, contact
//! count and latency p50/p99, wire bytes, live pooled connections,
//! sync-worker queue depth, quarantined peers and skipped shards.
//! `--iters 1` prints one table and exits (scriptable); otherwise it
//! redraws every `--interval-ms` (default 1000).

use optrep_core::obs::MetricsSnapshot;
use optrep_net::ConnectOptions;
use optrep_server::Client;
use std::net::SocketAddr;

fn usage() -> ! {
    eprintln!(
        "usage: optrep <addr> <verb> [args] [<verb> [args] ...]\n\
         verbs: get <key> | put <key> <value> | delete <key> | \
         digest | sync <peer> | metrics\n\
         or:    optrep top [--interval-ms <n>] [--iters <n>] <addr> [<addr> ...]"
    );
    std::process::exit(2)
}

/// One parsed verb; argument counts already validated.
enum Verb {
    Get(String),
    Put(String, String),
    Delete(String),
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
        Verb::Digest => client.digest().map(|digest| println!("{digest:016x}")),
        Verb::Sync(peer) => client.sync(peer).map(|report| {
            println!(
                "examined {} created {} fast-forwarded {} reconciled {} \
                 unchanged {} meta-bytes {} value-bytes {} framing-bytes {} \
                 shards {} skipped {} incremental {} snapshot {} digest-bytes {} refined {} \
                 digests {}/{} proposed {}",
                report.keys_examined,
                report.keys_created,
                report.keys_fast_forwarded,
                report.keys_reconciled,
                report.keys_unchanged,
                report.meta_bytes,
                report.value_bytes,
                report.framing_bytes,
                report.shards_total,
                report.shards_skipped,
                report.shards_incremental,
                report.shards_snapshot,
                report.digest_bytes,
                report.shards_refined,
                report.digests_sent,
                report.shards_total,
                report.shards_proposed,
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
    /// Polls `metrics` over the persistent connection, dialling first
    /// if the previous tick failed.
    fn poll(&mut self) -> optrep_core::Result<MetricsSnapshot> {
        if self.client.is_none() {
            self.client = Some(Client::connect(self.addr, &ConnectOptions::default())?);
        }
        let client = self.client.as_mut().expect("client just ensured");
        let polled = client.metrics();
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
/// how `SessionTotals::wire_bytes()` counts them on the daemon side. A
/// family the daemon does not export reads 0 (the site, `-`).
fn top_row(addr: SocketAddr, metrics: &MetricsSnapshot) -> String {
    let gauge = |name| metrics.gauge(name).unwrap_or(0);
    let counter = |name| metrics.counter(name).unwrap_or(0);
    let site = metrics
        .gauge("optrep_site")
        .map_or("-".to_string(), |s| s.to_string());
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
    .into_iter()
    .map(counter)
    .sum();
    format!(
        "{:<4} {:<21} {:>6} {:>6} {:>5} {:>8} {:>9.2} {:>9.2} {:>10} {:>4} {:>5} {:>4} {:>8}",
        site,
        addr,
        gauge("optrep_uptime_secs"),
        gauge("optrep_store_keys"),
        gauge("optrep_store_generation"),
        counter("optrep_pool_contacts_total"),
        p50,
        p99,
        bytes,
        gauge("optrep_conn_live"),
        gauge("optrep_worker_queue_depth"),
        gauge("optrep_quarantined_peers"),
        counter("optrep_planner_shards_skipped_total"),
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
                Ok(metrics) => top_row(peer.addr, &metrics),
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
