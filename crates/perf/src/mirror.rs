//! The traced run's view inside a pull, taken from outside.
//!
//! Two in-process mirror stores are fed the identical op sequence as the
//! daemons. Each round, after the real pull, the pull is replayed on the
//! mirrors phase by phase — the same public calls `pull_from` and the
//! serving daemon make, in the same order — with a span around each. The
//! mirror sink's digest must then equal the real sink's, which is what
//! makes the decomposition a decomposition of the real path.

use crate::cluster::fatal;
use crate::spans::Recorder;
use bytes::Bytes;
use optrep_core::Result;
use optrep_kv::{JoinResolver, KvStore, KvSyncReport};
use optrep_replication::planner::{digest_vector_frame, plan_frame};
use optrep_replication::{run_contact, PlanConfig};
use optrep_server::{DurabilityConfig, FsyncPolicy, Persist};
use std::path::Path;
use std::time::Duration;

/// The phases of one mirrored pull, in order; also their span names.
pub const PHASES: [&str; 6] = [
    "digest_vector",
    "plan_contact",
    "client_endpoint",
    "contact",
    "apply",
    "wal_append",
];

/// WAL length past which the mirror log is checkpointed, as the daemon's
/// background task would (its 8 MiB default).
const CHECKPOINT_WAL_BYTES: u64 = 8 * 1024 * 1024;

pub struct Mirror {
    pub source: KvStore,
    pub sink: KvStore,
    /// A benchmark-owned log the mirrored commits are appended to.
    persist: Persist,
}

/// The exact counts of one mirrored pull.
#[derive(Debug, Clone, Copy, Default)]
pub struct MirrorPull {
    /// `digest_vector_frame` + `plan_frame` lengths.
    pub plan_bytes: u64,
    pub frames: u64,
    pub round_trips: u64,
    pub report: KvSyncReport,
    pub changed: usize,
}

impl Mirror {
    /// # Errors
    ///
    /// The scratch log cannot be opened.
    pub fn new(source: KvStore, sink: KvStore, log_dir: &Path) -> Result<Mirror> {
        let config = DurabilityConfig::new(log_dir)
            .with_fsync(FsyncPolicy::Interval(Duration::from_millis(50)));
        let (persist, _, _) = Persist::open(&config, sink.site())?;
        Ok(Mirror {
            source,
            sink,
            persist,
        })
    }

    /// Replays one pull of `sink` from `source`, a span per phase.
    ///
    /// # Errors
    ///
    /// A protocol error from the contact or the apply, or a failed log
    /// append.
    pub fn pull(&mut self, rec: &mut Recorder) -> Result<MirrorPull> {
        let outer = rec.open("mirror");
        let pulled = self.phases(rec);
        let _ = rec.close(outer);
        if self.persist.wal_len() >= CHECKPOINT_WAL_BYTES {
            self.checkpoint(rec)?;
        }
        pulled
    }

    fn phases(&mut self, rec: &mut Recorder) -> Result<MirrorPull> {
        let t = rec.open("digest_vector");
        let digests = self.sink.shard_digest_vector();
        let _ = rec.close(t);

        // The serving side: decide per shard, encode snapshot blobs,
        // build the restricted serving endpoint.
        let t = rec.open("plan_contact");
        let (plan, mut server) = self.source.plan_contact(&digests, &PlanConfig::default());
        let _ = rec.close(t);
        let plan_bytes = (digest_vector_frame(&digests).len() + plan_frame(&plan).len()) as u64;

        let t = rec.open("client_endpoint");
        let mut client = self
            .sink
            .client_endpoint_for(&plan.incremental, plan.count as usize);
        let _ = rec.close(t);

        let t = rec.open("contact");
        let contact = run_contact(&mut client, &mut server);
        let _ = rec.close(t);
        let contact = contact?;

        let t = rec.open("apply");
        let applied = self
            .sink
            .apply_planned_tracked(&JoinResolver, client, &contact, &plan);
        let _ = rec.close(t);
        let (report, changed) = applied?;

        // What `wal_append` does under the store lock: one post-state
        // per changed key, one record for the whole contact.
        let t = rec.open("wal_append");
        let entries: Vec<(String, Bytes)> = changed
            .iter()
            .filter_map(|key| Some((key.clone(), self.sink.encode_entry(key)?)))
            .collect();
        let appended = self.persist.append(&entries);
        let _ = rec.close(t);
        appended.map_err(|e| fatal(format!("mirror log append failed: {e}")))?;

        Ok(MirrorPull {
            plan_bytes,
            frames: contact.frames,
            round_trips: contact.round_trips,
            report,
            changed: changed.len(),
        })
    }

    /// One checkpoint of the mirror log (`encode_snapshot` +
    /// `Persist::checkpoint`), under a `checkpoint` span.
    ///
    /// # Errors
    ///
    /// The file swap fails.
    pub fn checkpoint(&mut self, rec: &mut Recorder) -> Result<()> {
        let t = rec.open("checkpoint");
        let image = self.sink.encode_snapshot();
        let done = self.persist.checkpoint(&image);
        let _ = rec.close(t);
        done.map_err(|e| fatal(format!("mirror checkpoint failed: {e}")))
    }

    /// Appends a one-key record (the put path's log write), timed by the
    /// caller.
    ///
    /// # Errors
    ///
    /// The append fails.
    pub fn append_one(&mut self, key: &str) -> std::io::Result<u64> {
        let Some(entry) = self.sink.encode_entry(key) else {
            return Ok(0);
        };
        self.persist.append(&[(key.to_string(), entry)])
    }
}
