//! The daemons under test: real `optrepd` cores started in-process, each
//! durable in its own data dir, reached over loopback TCP through the
//! public [`Client`].

use crate::spec::SHARDS;
use crate::sys;
use bytes::Bytes;
use optrep_core::{Error, Result, SiteId};
use optrep_kv::KvStore;
use optrep_net::ConnectOptions;
use optrep_server::{Client, DurabilityConfig, FsyncPolicy, Node, NodeConfig, Persist};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The site that takes the client's writes.
pub const SOURCE: SiteId = SiteId::new(1);
/// The site that pulls.
pub const SINK: SiteId = SiteId::new(0);

/// Keys per WAL record when a data dir is seeded through the log.
const SEED_RECORD_KEYS: usize = 8192;

/// Where the benchmark writes: data dirs, traces, results. Inside the
/// checkout, under cargo's target dir.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("perf")
}

/// Fixes the process environment the daemons read at start: the shard
/// count, and the default planner policy whatever the caller's shell
/// holds. Call once, before any thread exists.
pub fn fix_environment() {
    std::env::set_var("OPTREP_KV_SHARDS", SHARDS.to_string());
    std::env::remove_var("OPTREP_PLAN_SNAPSHOT_THRESHOLD");
}

pub fn connect_options() -> ConnectOptions {
    ConnectOptions::new()
        .attempts(3)
        .backoff(Duration::from_millis(2), Duration::from_millis(50))
        .timeouts(Some(Duration::from_secs(60)), Some(Duration::from_secs(60)))
}

/// A failure of the benchmark's own plumbing (a scratch dir, a log), in
/// the workspace's error type.
pub(crate) fn fatal(message: String) -> Error {
    Error::UnexpectedMessage {
        protocol: "perf",
        message,
    }
}

/// Which CPUs the daemons' threads and the benchmark's drivers run on.
///
/// With two or more CPUs the daemons share the first allowed CPU and the
/// drivers the second. Three placements were tried (README,
/// "Placement"): unpinned, this one, and everything on one CPU. Unpinned
/// flips between two modes from run to run — the scheduler sometimes
/// co-locates a client with its daemon, which makes a verb six times
/// faster — and one CPU had twice this placement's A/A spread; both were
/// deleted. With one CPU nothing is pinned.
#[derive(Debug, Clone)]
pub struct Placement {
    daemons: Vec<usize>,
    drivers: Vec<usize>,
}

impl Placement {
    /// Decides the placement and pins the calling (driver) thread; also
    /// returns a line saying what took effect.
    pub fn apply() -> (Placement, String) {
        let allowed = sys::allowed_cpus();
        let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        let &[daemons, drivers, ..] = allowed.as_slice() else {
            let line = format!(
                "placement: WARNING fewer than 2 CPUs allowed (parallelism {parallelism}); nothing pinned, daemons and drivers time-share"
            );
            return (
                Placement {
                    daemons: allowed.clone(),
                    drivers: allowed,
                },
                line,
            );
        };
        let placement = Placement {
            daemons: vec![daemons],
            drivers: vec![drivers],
        };
        let took = placement.pin_driver();
        let line = format!(
            "placement: daemons on cpu {daemons}, drivers on cpu {drivers} (parallelism {parallelism}); pinning {}",
            if took { "took effect" } else { "was refused, running unpinned" }
        );
        (placement, line)
    }

    /// Pins the calling thread to the drivers' CPU.
    fn pin_driver(&self) -> bool {
        sys::pin_current_thread(&self.drivers)
    }

    /// Runs `start` with the calling thread on the daemons' CPU, so the
    /// threads it spawns inherit that affinity, then moves the caller
    /// back to the drivers' CPU.
    fn spawning_daemon<R>(&self, start: impl FnOnce() -> R) -> R {
        sys::pin_current_thread(&self.daemons);
        let out = start();
        self.pin_driver();
        out
    }
}

/// Writes `store` into `dir` as a checkpoint, so a daemon started on the
/// dir recovers exactly it.
///
/// # Errors
///
/// I/O trouble in the data dir.
pub fn seed_dir_from_store(dir: &Path, store: &KvStore) -> Result<()> {
    let config = DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Never);
    let (mut persist, _, _) = Persist::open(&config, store.site())?;
    persist
        .checkpoint(&store.encode_snapshot())
        .map_err(|e| fatal(format!("cannot seed {}: {e}", dir.display())))
}

/// Seeds `dir` for `site` with a converged copy of `source`'s entries and
/// returns that copy. The entries travel as WAL records of post-states
/// (`encode_entry` → `Persist::append`), which is how a daemon logs what
/// a pull changed; reopening the dir replays them into a store hosted on
/// `site`, which is then checkpointed.
///
/// # Errors
///
/// I/O trouble in the data dir.
pub fn seed_dir_converged(
    dir: &Path,
    site: SiteId,
    source: &KvStore,
    keys: &[String],
) -> Result<KvStore> {
    let config = DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Never);
    let (mut persist, _, _) = Persist::open(&config, site)?;
    for chunk in keys.chunks(SEED_RECORD_KEYS) {
        let changed: Vec<(String, Bytes)> = chunk
            .iter()
            .filter_map(|key| Some((key.clone(), source.encode_entry(key)?)))
            .collect();
        persist
            .append(&changed)
            .map_err(|e| fatal(format!("cannot seed {}: {e}", dir.display())))?;
    }
    drop(persist);
    let (mut persist, store, _) = Persist::open(&config, site)?;
    persist
        .checkpoint(&store.encode_snapshot())
        .map_err(|e| fatal(format!("cannot seed {}: {e}", dir.display())))?;
    Ok(store)
}

/// One running daemon and the benchmark's verb session to it.
pub struct Daemon {
    pub node: Node,
    pub client: Client,
    pub addr: SocketAddr,
    site: SiteId,
    dir: PathBuf,
    checkpoint: Option<Duration>,
}

impl Daemon {
    /// Starts a durable daemon (`--fsync interval`, the shipped default)
    /// on `dir` and opens a client connection to it.
    ///
    /// # Errors
    ///
    /// The listen address cannot be bound, the data dir does not recover,
    /// or the client cannot connect.
    pub fn start(
        site: SiteId,
        dir: &Path,
        checkpoint: Option<Duration>,
        placement: &Placement,
    ) -> Result<Daemon> {
        let mut durability =
            DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Interval(Duration::from_millis(50)));
        if let Some(interval) = checkpoint {
            durability = durability.with_checkpoint_interval(interval);
        }
        let config = NodeConfig::new(site, SocketAddr::from(([127, 0, 0, 1], 0)))
            .with_connect(connect_options())
            .with_durability(durability);
        let node = placement.spawning_daemon(|| Node::start(config))?;
        let addr = node.addr();
        let client = Client::connect(addr, &connect_options())?;
        Ok(Daemon {
            node,
            client,
            addr,
            site,
            dir: dir.to_path_buf(),
            checkpoint,
        })
    }

    /// Another verb session to this daemon (a second driver's).
    ///
    /// # Errors
    ///
    /// The dial fails.
    pub fn connect(&self) -> Result<Client> {
        Client::connect(self.addr, &connect_options())
    }

    /// `Node::stop` (final checkpoint), then `Node::start` on the same
    /// data dir, until `Client::digest` answers. Returns the restarted
    /// daemon, how long that took, and the digest it answered with.
    ///
    /// # Errors
    ///
    /// The data dir does not recover or the daemon does not answer.
    pub fn restart(self, placement: &Placement) -> Result<(Daemon, Duration, u64)> {
        let Daemon {
            node,
            client,
            site,
            dir,
            checkpoint,
            ..
        } = self;
        drop(client);
        let started = Instant::now();
        node.stop();
        let mut daemon = Daemon::start(site, &dir, checkpoint, placement)?;
        let digest = daemon.client.digest()?;
        Ok((daemon, started.elapsed(), digest))
    }

    pub fn stop(self) {
        drop(self.client);
        self.node.stop();
    }
}

/// A scratch directory under [`out_dir`] that is removed when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn new(tag: &str) -> Result<Scratch> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join(format!(
            "data-{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)
            .map_err(|e| fatal(format!("cannot create {}: {e}", path.display())))?;
        Ok(Scratch(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
