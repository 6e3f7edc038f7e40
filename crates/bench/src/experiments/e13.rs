//! E13 — that daemon-native metrics count right.
//!
//! The same loopback hypercube cluster as E12 runs with a plain
//! [`CounterSink`] installed on the pulling thread as a witness. A
//! daemon counts from the reports its pulls return and installs no sink,
//! so the witness, which folds the contact events, is independent of
//! the registry: the check is events against reports. Asserted, not
//! reported: summed over all daemons, the `optrep_contact_micros`
//! histogram holds exactly one sample per contact the witness counted
//! and the pools made, and the four per-plane byte counters equal the
//! witness's byte totals to the byte. Histograms approximate *values*
//! (log2 buckets), never *counts*.
//!
//! Release runs drive 64 daemons; debug/test runs scale down to 16
//! (CI's `tables e13` job) without changing what is asserted.

use crate::table::Table;
use optrep_core::obs::{self, CounterSink, MetricsSnapshot};
use optrep_core::SiteId;
use optrep_net::ConnectOptions;
use optrep_server::{Node, NodeConfig};
use std::sync::Arc;
use std::time::Duration;

/// Daemon counts per row; powers of two so the hypercube is exact.
#[cfg(not(debug_assertions))]
const CLUSTERS: &[usize] = &[64];
#[cfg(debug_assertions)]
const CLUSTERS: &[usize] = &[16];

/// Seeded keys per site before each sweep wave.
const KEYS_PER_SITE: usize = 2;

fn connect_options() -> ConnectOptions {
    ConnectOptions::new()
        .attempts(2)
        .backoff(Duration::from_millis(1), Duration::from_millis(8))
        .timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
}

/// One cluster run: the contacts its pools made plus the per-node
/// metrics snapshots taken after convergence.
struct ClusterRun {
    contacts: u64,
    snapshots: Vec<MetricsSnapshot>,
}

/// Stands up `daemons` nodes, seeds two write waves, and pulls along
/// the hypercube schedule until converged — E12's schedule minus the
/// in-memory mirrors.
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

    let seed = |wave: usize, site: usize, node: &Node| {
        node.with_store(|s| {
            for k in 0..KEYS_PER_SITE {
                s.put(
                    format!("w{wave}s{site:04}k{k}"),
                    format!("wave-{wave} value {k} from site {site}"),
                );
            }
        });
    };
    for (site, node) in nodes.iter().enumerate() {
        seed(0, site, node);
    }

    for wave in 0..2 {
        if wave == 1 {
            for (site, node) in nodes.iter().enumerate() {
                seed(1, site, node);
            }
        }
        for round in 0..bits {
            for (dst, node) in nodes.iter().enumerate() {
                let src = dst ^ (1 << round);
                node.sync_with(addrs[src]).expect("tcp pull");
            }
        }
    }

    let reference = nodes[0].digest();
    for (site, node) in nodes.iter().enumerate() {
        assert_eq!(node.digest(), reference, "daemon {site} did not converge");
    }
    let mut contacts = 0u64;
    for node in &nodes {
        contacts += node.conn_totals().contacts;
    }
    let snapshots: Vec<MetricsSnapshot> = nodes.iter().map(Node::metrics_snapshot).collect();
    for node in nodes {
        node.stop();
    }
    ClusterRun {
        contacts,
        snapshots,
    }
}

/// Sums one counter family across all snapshots.
fn sum_counter(snapshots: &[MetricsSnapshot], name: &str) -> u64 {
    snapshots.iter().filter_map(|s| s.counter(name)).sum()
}

/// Runs the experiment.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E13: metrics exactness (report-fed histograms and counters vs a CounterSink witness of the events)",
        &[
            "daemons",
            "contacts",
            "hist samples",
            "hist bytes",
            "witness bytes",
        ],
    );
    for &daemons in CLUSTERS {
        let witness = Arc::new(CounterSink::new());
        let run = obs::with(Arc::clone(&witness) as Arc<dyn obs::Sink>, || {
            run_cluster(daemons)
        });

        // Summed over the cluster, the contact-latency histogram carries
        // one sample per contact and the per-plane byte counters agree
        // with the independent witness — exactly.
        let counted = witness.snapshot();
        let hist_samples: u64 = run
            .snapshots
            .iter()
            .filter_map(|s| s.histogram("optrep_contact_micros"))
            .map(|h| h.count)
            .sum();
        let hist_bytes: u64 = [
            "optrep_compare_bytes_total",
            "optrep_meta_bytes_total",
            "optrep_framing_bytes_total",
            "optrep_payload_bytes_total",
        ]
        .iter()
        .map(|name| sum_counter(&run.snapshots, name))
        .sum();
        let witness_bytes = counted.compare_bytes
            + counted.meta_bytes
            + counted.framing_bytes
            + counted.payload_bytes;
        assert_eq!(
            hist_samples, counted.contacts,
            "contact histogram and CounterSink disagree on contact count"
        );
        assert_eq!(
            hist_samples, run.contacts,
            "contact histogram and the pools disagree on contact count"
        );
        assert_eq!(
            hist_bytes, witness_bytes,
            "metric byte counters and CounterSink disagree"
        );

        t.row([
            daemons.to_string(),
            run.contacts.to_string(),
            hist_samples.to_string(),
            hist_bytes.to_string(),
            witness_bytes.to_string(),
        ]);
    }
    t.note(
        "hist samples == witness contacts == pool contacts; hist bytes == witness bytes (asserted)",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn metrics_count_exactly() {
        let _alone = crate::experiments::daemons_alone();
        // The asserts inside `run` are the test.
        let tables = super::run();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), super::CLUSTERS.len());
    }
}
