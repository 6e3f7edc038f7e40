//! What the daemon cluster tests share: nodes on loopback ports with
//! short connect deadlines, and durable ones over a throwaway data dir.
#![allow(dead_code)]

use optrep_core::SiteId;
use optrep_net::ConnectOptions;
use optrep_server::{Node, NodeConfig};
use std::net::SocketAddr;
use std::time::Duration;

/// Short deadlines so failure tests don't wait out 5 s socket timeouts.
pub fn fast_connect() -> ConnectOptions {
    ConnectOptions::new()
        .attempts(2)
        .backoff(Duration::from_millis(1), Duration::from_millis(4))
        .timeouts(
            Some(Duration::from_millis(400)),
            Some(Duration::from_millis(400)),
        )
}

pub fn ephemeral() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback")
}

pub fn start_node(site: u32) -> Node {
    Node::start(NodeConfig::new(SiteId::new(site), ephemeral()).with_connect(fast_connect()))
        .expect("node starts")
}

/// A throwaway data dir under the system temp dir (no tempfile crate in
/// the workspace); best-effort cleanup at the end of each test.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "optrep-cluster-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

pub fn start_durable(site: u32, dir: &std::path::Path) -> Node {
    Node::start(
        NodeConfig::new(SiteId::new(site), ephemeral())
            .with_connect(fast_connect())
            .with_data_dir(dir),
    )
    .expect("durable node starts")
}
