//! E12 — a 256-daemon loopback cluster on persistent peer connections.
//!
//! PR 6's tentpole at full scale: every pull in this experiment travels
//! over a real socket served by a real `optrepd` event loop, yet each
//! daemon dials each peer exactly **once** — successive contacts
//! pipeline over the pooled connection instead of re-dialing. The
//! experiment stands up N daemons on loopback, disseminates seeded
//! writes along a hypercube schedule (site `i` pulls from `i ^ 2^r` in
//! round `r`, so log2(N) rounds converge the cluster), then writes a
//! second wave and sweeps again to show connection reuse: contacts
//! land at exactly twice the dial count.
//!
//! Three things are asserted, mirroring the tentpole's acceptance bar:
//!
//! * **Byte-identical reports** — every TCP pull is mirrored by the
//!   same pull between plain in-memory [`KvStore`]s, and the two
//!   [`KvSyncReport`]s (including meta/value byte counters) must be
//!   equal. Sockets add wall-clock, never bytes — and a warm socket
//!   *removes* some, because both of its ends remember the last
//!   contact: the first sweep dials fresh and is held to full equality;
//!   the second runs over the pooled connections, where the daemon
//!   opens with the delta against the vector the first sweep sent and
//!   may be proposed the keys the source changed since, while the
//!   mirror (a fresh in-process link per pull) sends the whole vector
//!   again and walks every dirty shard. There the two must still agree on what
//!   the pull changed and on every shard's verdict, and the socket
//!   moves no more bytes than the mirror on any plane — strictly fewer
//!   planner bytes on every pull, and fewer metadata bytes over the
//!   sweep wherever anything was proposed. That takes a dirty shard of
//!   three keys or more (two are cheaper walked than named, and
//!   `decide` prices the proposal out): at 256 daemons a thousand keys
//!   over 512 shards give enough of those, at CI's 64 none, and the two
//!   metadata columns are then equal. The hypercube also makes this the
//!   hard case for proposals — both ends of an edge have news in the
//!   same sweep — so a share of them is refused and walked whole.
//!   (`crates/perf`'s `sparse_pull`, 195 keys a shard and a puller
//!   that never writes, is where they pay in full.)
//! * **Fixed thread count** — the process thread count after both
//!   sweeps equals the count right after daemon start-up, although by
//!   then every daemon holds log2(N) client connections and serves
//!   log2(N) more: connections are poll-loop states, not threads.
//! * **Connection reuse** — total dials across the cluster equal
//!   N·log2(N) (one per directed hypercube edge) while contacts equal
//!   2·N·log2(N), and no pooled connection is ever discarded.
//!
//! The tcp/mem wall-clock column is one sample on whatever host ran
//! it (1.36× on the many-core host of PR 6, anywhere from 3× to 10× on
//! a 2-core sandbox, parent commit included — see EXPERIMENTS.md); the
//! asserted facts above are counts and do not move.
//!
//! Release runs drive 256 daemons; debug/test runs scale down to 64
//! (CI's `tables e12` job) without changing what is asserted.

use crate::table::{ratio, Table};
use optrep_core::SiteId;
use optrep_kv::{KvStore, KvSyncReport};
use optrep_net::ConnectOptions;
use optrep_server::{Node, NodeConfig};
use std::time::{Duration, Instant};

/// Daemon counts per row; powers of two so the hypercube is exact.
#[cfg(not(debug_assertions))]
const CLUSTERS: &[usize] = &[256];
#[cfg(debug_assertions)]
const CLUSTERS: &[usize] = &[64];

/// Seeded keys per site before the first sweep.
const KEYS_PER_SITE: usize = 2;

/// Shards per store, daemons and mirrors alike — the count
/// `crates/perf` runs its daemons at. At the default 16 every shard of
/// every store changes between the two sweeps (a site learns half the
/// cluster's keys in between), the full vector is the shorter frame,
/// and both sweeps would be byte-identical to the mirror: true, and
/// asserted by the first sweep, but it would leave the second nothing
/// to show.
const SHARDS: usize = 512;

/// Loopback dials succeed on the first attempt; short timeouts keep a
/// wedged run from stalling the whole bench.
fn connect_options() -> ConnectOptions {
    ConnectOptions::new()
        .attempts(2)
        .backoff(Duration::from_millis(1), Duration::from_millis(8))
        .timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
}

/// One converged cluster run at `daemons` sites.
struct ClusterRun {
    contacts: u64,
    dials: u64,
    /// Planner bytes per sweep, `[tcp, mirror]`: equal on the fresh
    /// dials of sweep 0, smaller on the warm sockets of sweep 1.
    digest_bytes: [[usize; 2]; 2],
    /// Metadata bytes likewise.
    meta_bytes: [[usize; 2]; 2],
    /// Shards proposed over sweep 1's warm sockets, and how many of
    /// those the pullers refused.
    proposed: [usize; 2],
    threads_base: usize,
    threads_after: usize,
    mem_elapsed: Duration,
    tcp_elapsed: Duration,
}

/// The in-memory mirror of one TCP pull: `mirrors[dst]` pulls from
/// `mirrors[src]` via the exact same protocol — planner phase included,
/// since daemon pulls always plan — just without sockets, and without a
/// connection to remember anything across: `sync_planned` opens a fresh
/// in-process link per call, so the mirror's digest vector crosses in
/// full every time.
fn mirror_pull(mirrors: &mut [KvStore], dst: usize, src: usize) -> KvSyncReport {
    assert_ne!(dst, src);
    let (dst_store, src_store) = if dst < src {
        let (left, right) = mirrors.split_at_mut(src);
        (&mut left[dst], &right[0])
    } else {
        let (left, right) = mirrors.split_at_mut(dst);
        (&mut right[0], &left[src])
    };
    let (report, _) = dst_store
        .sync_planned(src_store, &optrep_kv::JoinResolver)
        .expect("in-memory planned sync");
    report
}

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("Threads line")
        .trim()
        .parse()
        .expect("thread count")
}

#[cfg(not(target_os = "linux"))]
fn thread_count() -> usize {
    0
}

fn run_cluster(daemons: usize) -> ClusterRun {
    assert!(daemons.is_power_of_two() && daemons >= 2);
    let bits = daemons.trailing_zeros() as usize;

    let nodes: Vec<Node> = (0..daemons)
        .map(|i| {
            let config = NodeConfig::new(
                SiteId::new(i as u32),
                "127.0.0.1:0".parse().expect("loopback"),
            )
            .with_connect(connect_options());
            Node::start(config).expect("daemon starts")
        })
        .collect();
    let addrs: Vec<std::net::SocketAddr> = nodes.iter().map(Node::addr).collect();
    let mut mirrors: Vec<KvStore> = (0..daemons)
        .map(|i| KvStore::with_shards(SiteId::new(i as u32), SHARDS))
        .collect();
    for (node, mirror) in nodes.iter().zip(&mirrors) {
        node.with_store(|s| *s = mirror.clone());
    }

    // Every daemon is up, no connection exists yet: this is the thread
    // baseline the fixed-thread-count assertion compares against.
    let threads_base = thread_count();

    let seed = |wave: usize, site: usize, store: &mut KvStore| {
        for k in 0..KEYS_PER_SITE {
            store.put(
                format!("w{wave}s{site:04}k{k}"),
                format!("wave-{wave} value {k} from site {site}"),
            );
        }
    };
    for (site, node) in nodes.iter().enumerate() {
        node.with_store(|s| seed(0, site, s));
        seed(0, site, &mut mirrors[site]);
    }

    let mut mem_elapsed = Duration::ZERO;
    let mut tcp_elapsed = Duration::ZERO;
    let mut digest_bytes = [[0usize; 2]; 2];
    let mut meta_bytes = [[0usize; 2]; 2];
    let mut proposed = [0usize; 2];
    // Two full hypercube sweeps; the second lands on the connections the
    // first one opened, which is what pushes contacts to 2× dials.
    for wave in 0..2 {
        if wave == 1 {
            for (site, node) in nodes.iter().enumerate() {
                node.with_store(|s| seed(1, site, s));
                seed(1, site, &mut mirrors[site]);
            }
        }
        for round in 0..bits {
            for (dst, node) in nodes.iter().enumerate() {
                let src = dst ^ (1 << round);
                let start = Instant::now();
                let tcp = node.sync_with(addrs[src]).expect("tcp pull");
                tcp_elapsed += start.elapsed();
                let start = Instant::now();
                let mem = mirror_pull(&mut mirrors, dst, src);
                mem_elapsed += start.elapsed();
                digest_bytes[wave][0] += tcp.digest_bytes;
                digest_bytes[wave][1] += mem.digest_bytes;
                meta_bytes[wave][0] += tcp.meta_bytes;
                meta_bytes[wave][1] += mem.meta_bytes;
                let at = format!("TCP pull {dst}<-{src} (wave {wave}, round {round})");
                if wave == 0 {
                    assert_eq!(
                        tcp, mem,
                        "{at} moved different bytes than the in-memory mirror"
                    );
                } else {
                    // A warm socket: the daemon sent only the shards
                    // that changed since wave 0's pull on this edge, and
                    // was told which keys the source changed since. What
                    // the pull *did* is the mirror's; how the dirty keys
                    // were located is what the connection remembers for.
                    let what_was_pulled = |report: KvSyncReport| KvSyncReport {
                        keys_examined: 0,
                        keys_unchanged: 0,
                        meta_bytes: 0,
                        digest_bytes: 0,
                        digests_sent: 0,
                        shards_refined: 0,
                        shards_proposed: 0,
                        shards_refused: 0,
                        ..report
                    };
                    assert_eq!(
                        what_was_pulled(tcp),
                        what_was_pulled(mem),
                        "{at} changed something else than the in-memory mirror"
                    );
                    assert_eq!(
                        (mem.digests_sent, mem.shards_proposed),
                        (SHARDS, 0),
                        "{at}: the mirror sends every shard and is proposed none"
                    );
                    assert!(
                        tcp.digest_bytes < mem.digest_bytes && tcp.digests_sent < SHARDS,
                        "{at} sent no delta over its warm connection: {tcp:?}"
                    );
                    assert!(
                        tcp.meta_bytes <= mem.meta_bytes && tcp.keys_examined <= mem.keys_examined,
                        "{at} walked more over its warm connection: {tcp:?} vs {mem:?}"
                    );
                    proposed[0] += tcp.shards_proposed;
                    proposed[1] += tcp.shards_refused;
                }
            }
        }
    }
    let threads_after = thread_count();

    assert!(
        digest_bytes[1][0] < digest_bytes[1][1]
            && meta_bytes[1][0] <= meta_bytes[1][1]
            && (meta_bytes[1][0] < meta_bytes[1][1]) == (proposed[0] > proposed[1]),
        "sweep 1's warm sockets saved nothing: {digest_bytes:?}, {meta_bytes:?}, {proposed:?}"
    );

    // Convergence, and socket state == mirror state, site by site.
    let reference = mirrors[0].replica_digest();
    for (site, node) in nodes.iter().enumerate() {
        let mirror = mirrors[site].replica_digest();
        assert_eq!(mirror, reference, "mirror {site} did not converge");
        assert_eq!(node.digest(), mirror, "daemon {site} diverged from mirror");
    }

    // Connection reuse: one dial per directed hypercube edge, two
    // pipelined contacts on each, nothing discarded as stale.
    let mut contacts = 0u64;
    let mut dials = 0u64;
    for node in &nodes {
        let totals = node.conn_totals();
        assert_eq!(totals.discards, 0, "a pooled connection went stale");
        contacts += totals.contacts;
        dials += totals.dials;
    }
    assert_eq!(dials, (daemons * bits) as u64, "unexpected dial count");
    assert_eq!(contacts, 2 * dials, "contacts did not pipeline over dials");

    if cfg!(target_os = "linux") {
        assert_eq!(
            threads_after,
            threads_base,
            "{} peer connections grew the process from {threads_base} to \
             {threads_after} threads",
            2 * daemons * bits,
        );
    }

    for node in nodes {
        node.stop();
    }
    ClusterRun {
        contacts,
        dials,
        digest_bytes,
        meta_bytes,
        proposed,
        threads_base,
        threads_after,
        mem_elapsed,
        tcp_elapsed,
    }
}

/// Runs the experiment.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E12: daemon loopback cluster on persistent peer connections (pooled sockets vs in-memory)",
        &[
            "daemons",
            "contacts",
            "dials",
            "threads",
            "digest B w0 tcp=mem",
            "digest B w1 tcp",
            "digest B w1 mem",
            "meta B w1 tcp",
            "meta B w1 mem",
            "proposed (refused)",
            "mem ms",
            "tcp ms",
            "tcp/mem",
        ],
    );
    for &daemons in CLUSTERS {
        let run = run_cluster(daemons);
        t.row([
            daemons.to_string(),
            run.contacts.to_string(),
            run.dials.to_string(),
            format!("{}\u{2192}{}", run.threads_base, run.threads_after),
            run.digest_bytes[0][0].to_string(),
            run.digest_bytes[1][0].to_string(),
            run.digest_bytes[1][1].to_string(),
            run.meta_bytes[1][0].to_string(),
            run.meta_bytes[1][1].to_string(),
            format!("{} ({})", run.proposed[0], run.proposed[1]),
            format!("{:.1}", run.mem_elapsed.as_secs_f64() * 1e3),
            format!("{:.1}", run.tcp_elapsed.as_secs_f64() * 1e3),
            ratio(run.tcp_elapsed.as_secs_f64(), run.mem_elapsed.as_secs_f64()),
        ]);
    }
    t.note(
        "sweep 0 (fresh dials): every TCP pull report byte-identical to its in-memory mirror \
         (asserted)",
    );
    t.note(
        "sweep 1 (warm sockets): same keys changed, same verdict per shard, same end state - the \
         daemon sends the changed shards' digests and, where a dirty shard holds three keys or \
         more, is proposed the ones its source changed; the mirror sends all 512 digests again \
         and walks every dirty shard (asserted per pull: strictly fewer planner bytes, no more \
         metadata bytes; over the sweep: strictly fewer metadata bytes iff any proposal was \
         accepted - none is at 64 daemons, where no shard is that big)",
    );
    t.note("the ms columns are one sample each on whatever host ran this; they measure nothing");
    t.note("contacts == 2x dials: both sweeps pipeline over one pooled connection per peer");
    t.note(
        "threads col is process thread count after start-up -> after both sweeps (asserted equal)",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn daemon_cluster_pipelines_and_matches_memory() {
        // The asserts inside `run` are the test.
        let tables = super::run();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), super::CLUSTERS.len());
    }
}
