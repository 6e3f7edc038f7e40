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
//!   same pull between plain in-memory [`KvStore`]s, each directed pair
//!   over its own kept [`Connection`], and the two [`KvSyncReport`]s
//!   (including meta/value byte counters) must be equal, on both
//!   sweeps. Sockets add wall-clock, never bytes. The first sweep dials
//!   fresh; the second runs over the pooled connections, and both ends
//!   of a connection remember its last contact: the puller opens with
//!   the delta against the vector the first sweep sent where that is
//!   the shorter frame (the sweep sends fewer digests than the first:
//!   asserted) and may be
//!   proposed the keys its source changed since — in process exactly as
//!   over the socket. A proposal takes a dirty shard of two keys or
//!   more (one is cheaper walked than named, and `decide` prices the
//!   proposal out). The hypercube is the hard case for proposals — both
//!   ends of an edge have news in the same sweep — so the source finds
//!   a share of the dirty shards moved at the puller too and proposes
//!   none of those: they are walked (too small for children).
//!   (`crates/perf`'s `sparse_pull`, 195 keys a shard and a puller that
//!   never writes, is where proposals pay in full.)
//! * **Fixed thread count** — the daemons' thread count (the process's
//!   threads named `optrepd-…`) after both sweeps equals the count
//!   right after daemon start-up, although by
//!   then every daemon holds log2(N) client connections and serves
//!   log2(N) more: connections are poll-loop states, not threads.
//! * **Connection reuse** — total dials across the cluster equal
//!   N·log2(N) (one per directed hypercube edge) while contacts equal
//!   2·N·log2(N), and no pooled connection is ever discarded.
//!
//! Every column is a count; the table times nothing. A pull's
//! wall-clock is `crates/perf`'s to measure.
//!
//! Release runs drive 256 daemons; debug/test runs scale down to 64
//! (CI's `tables e12` job) without changing what is asserted.

use crate::table::Table;
use optrep_core::SiteId;
use optrep_kv::{Connection, KvStore, KvSyncReport};
use optrep_net::ConnectOptions;
use optrep_server::{Node, NodeConfig};
use std::collections::BTreeMap;
use std::time::Duration;

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
/// to show. At 512 the edges of the later rounds send deltas.
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
    /// Planner bytes per sweep, the sockets' and the mirror's alike.
    digest_bytes: [usize; 2],
    /// Metadata bytes of sweep 1 likewise.
    meta_bytes: usize,
    /// Shards proposed over sweep 1's warm connections, and shards
    /// refined there.
    proposed: [usize; 2],
    threads_base: usize,
    threads_after: usize,
}

/// The in-process connections of the mirror, one a directed pair
/// `(dst, src)`, as each daemon pools one socket a peer.
type Connections = BTreeMap<(usize, usize), Connection>;

/// The in-memory mirror of one TCP pull: `mirrors[dst]` pulls from
/// `mirrors[src]` via the exact same protocol — `KvStore::sync`, the
/// daemon's planned pull — just without sockets, over the pair's kept
/// connection, which remembers what the daemon's pooled socket does.
fn mirror_pull(
    mirrors: &mut [KvStore],
    connections: &mut Connections,
    dst: usize,
    src: usize,
) -> KvSyncReport {
    assert_ne!(dst, src);
    let (dst_store, src_store) = if dst < src {
        let (left, right) = mirrors.split_at_mut(src);
        (&mut left[dst], &right[0])
    } else {
        let (left, right) = mirrors.split_at_mut(dst);
        (&mut right[0], &left[src])
    };
    dst_store
        .sync(src_store)
        .over(connections.entry((dst, src)).or_default())
        .run()
        .expect("in-memory planned sync")
}

/// The daemons' threads in this process: those named under
/// [`THREAD_PREFIX`](optrep_server::node::THREAD_PREFIX). A test
/// harness's threads come and go beside the sweeps and are not counted.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter(|task| {
            let comm = task.as_ref().expect("a task").path().join("comm");
            // A thread that ended since the listing has no name to read.
            let name = std::fs::read_to_string(comm);
            name.is_ok_and(|name| name.starts_with(optrep_server::node::THREAD_PREFIX))
        })
        .count()
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

    let mut connections = Connections::new();
    let mut digest_bytes = [0usize; 2];
    let mut meta_bytes = 0usize;
    let mut proposed = [0usize; 2];
    let mut digests_sent = [0usize; 2];
    // Two full hypercube sweeps; the second lands on the connections the
    // first one opened, which is what pushes contacts to 2× dials.
    for (wave, sweep_digest_bytes) in digest_bytes.iter_mut().enumerate() {
        if wave == 1 {
            for (site, node) in nodes.iter().enumerate() {
                node.with_store(|s| seed(1, site, s));
                seed(1, site, &mut mirrors[site]);
            }
        }
        for round in 0..bits {
            for (dst, node) in nodes.iter().enumerate() {
                let src = dst ^ (1 << round);
                let tcp = node.sync_with(addrs[src]).expect("tcp pull");
                let mem = mirror_pull(&mut mirrors, &mut connections, dst, src);
                assert_eq!(
                    tcp, mem,
                    "TCP pull {dst}<-{src} (wave {wave}, round {round}) moved different bytes \
                     than the in-memory mirror"
                );
                *sweep_digest_bytes += tcp.digest_bytes;
                digests_sent[wave] += tcp.digests_sent;
                if wave == 1 {
                    meta_bytes += tcp.meta_bytes;
                    proposed[0] += tcp.shards_proposed;
                    proposed[1] += tcp.shards_refined;
                }
            }
        }
    }
    let threads_after = thread_count();
    // A warm connection sends the shorter of its full vector and the
    // delta against what the edge remembers of wave 0's pull. An empty
    // shard's summary is a byte, so a puller whose shards mostly moved
    // since — an edge of the first rounds, whose puller has learned most
    // of the cluster's keys in between — sends its full vector, and the
    // others a delta: the warm sweep sends fewer digests than the cold.
    assert!(
        digests_sent[1] < digests_sent[0],
        "warm connections sent {} digests, the cold sweep {}",
        digests_sent[1],
        digests_sent[0]
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
            "{} peer connections grew the daemons from {threads_base} to \
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
            "digest B w0",
            "digest B w1",
            "meta B w1",
            "proposed / refined",
        ],
    );
    for &daemons in CLUSTERS {
        let run = run_cluster(daemons);
        t.row([
            daemons.to_string(),
            run.contacts.to_string(),
            run.dials.to_string(),
            format!("{}\u{2192}{}", run.threads_base, run.threads_after),
            run.digest_bytes[0].to_string(),
            run.digest_bytes[1].to_string(),
            run.meta_bytes.to_string(),
            format!("{} / {}", run.proposed[0], run.proposed[1]),
        ]);
    }
    t.note(
        "every TCP pull report byte-identical to its in-memory mirror, each directed pair over \
         its kept connection (asserted, both sweeps)",
    );
    t.note(
        "sweep 1 (warm connections): the puller sends the changed shards' digests where that is \
         shorter than its whole vector and, where it holds a dirty shard as the source did, is \
         pushed the keys its source changed there with the plan",
    );
    t.note("contacts == 2x dials: both sweeps pipeline over one pooled connection per peer");
    t.note(
        "threads col is the daemons' thread count after start-up -> after both sweeps (asserted \
         equal)",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn daemon_cluster_pipelines_and_matches_memory() {
        let _alone = crate::experiments::daemons_alone();
        // The asserts inside `run` are the test.
        let tables = super::run();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), super::CLUSTERS.len());
    }
}
