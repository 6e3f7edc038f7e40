//! E15 — sharded contacts cost O(dirty), not O(n).
//!
//! PR 10's tentpole measured: two replicas share a large converged
//! state, a tiny fraction of it changes, and the puller contacts the
//! source again. The planned path opens with one shard-digest exchange,
//! skips every clean shard outright, and walks only the dirty ones; the
//! unplanned (all-shards) path re-examines every tracked key. The gap
//! between the two — wall-clock and bytes — is the whole point of the
//! shard map.
//!
//! Per row, from the same converged base pair, the source dirties a
//! fraction of the keys and the puller syncs three ways:
//!
//! * **planned, sharded** — the measured path: digest exchange, clean
//!   shards skipped, dirty shards walked incrementally.
//! * **unplanned** — the seed path at identical state: every key
//!   examined, no digest phase. This is the baseline the speedup
//!   columns compare against.
//! * **planned, unsharded mirror** — the same planned pull against a
//!   1-shard pair that replayed the identical schedule. Its committed
//!   replica digest must equal the sharded run's: shard count is
//!   layout, never semantics.
//!
//! Release runs drive 1M objects over 2048 shards and assert the
//! acceptance bar at the 0.01% row: the planned contact is at least
//! 10× cheaper than the all-shards path in both wall-clock and bytes
//! moved. Debug/test runs scale to 100k objects over 256 shards
//! (the CI `tables e15` job) without changing the identity asserts.

use crate::table::{ratio, Table};
use optrep_core::SiteId;
use optrep_kv::{JoinResolver, KvStore, KvSyncReport};
use optrep_replication::PlanConfig;
use std::time::{Duration, Instant};

#[cfg(not(debug_assertions))]
const OBJECTS: usize = 1_000_000;
#[cfg(debug_assertions)]
const OBJECTS: usize = 100_000;

#[cfg(not(debug_assertions))]
const SHARDS: usize = 2048;
#[cfg(debug_assertions)]
const SHARDS: usize = 256;

/// Dirty fractions per row, in parts per million. The first row is the
/// headline 0.01% the acceptance bar is asserted on.
#[cfg(not(debug_assertions))]
const DIRTY_PPM: &[usize] = &[100, 1_000, 10_000];
#[cfg(debug_assertions)]
const DIRTY_PPM: &[usize] = &[100, 1_000];

/// Small values: the experiment measures contact discipline, not memcpy.
const VALUE_BYTES: usize = 32;

/// A converged pair at one shard count: `dst` pulled everything `src`
/// seeded, so only the per-row dirtying diverges them again.
struct BasePair {
    dst: KvStore,
    src: KvStore,
}

fn build_base(shards: usize) -> BasePair {
    let mut src = KvStore::with_shards(SiteId::new(1), shards);
    for i in 0..OBJECTS {
        src.put(format!("obj{i:07}"), vec![(i % 251) as u8; VALUE_BYTES]);
    }
    let mut dst = KvStore::with_shards(SiteId::new(0), shards);
    dst.sync(&src).run().expect("initial convergence");
    assert_eq!(dst.replica_digest(), src.replica_digest());
    BasePair { dst, src }
}

/// Dirties `count` keys on the source, deterministically strided so
/// every run (and the unsharded mirror) touches the identical set.
fn dirty(src: &mut KvStore, count: usize) {
    let stride = (OBJECTS / count).max(1);
    for d in 0..count {
        let i = (d * stride) % OBJECTS;
        src.put(format!("obj{i:07}"), vec![0xD1u8; VALUE_BYTES]);
    }
}

struct Row {
    dirty_keys: usize,
    planned: KvSyncReport,
    planned_elapsed: Duration,
    full: KvSyncReport,
    full_elapsed: Duration,
}

/// Bytes a contact moved, as the sync report accounts them: metadata +
/// values + (for planned pulls) the digest/plan exchange itself.
fn contact_bytes(report: &KvSyncReport) -> usize {
    report.meta_bytes + report.value_bytes + report.digest_bytes
}

fn run_row(base: &BasePair, mirror: &BasePair, dirty_keys: usize) -> Row {
    let config = PlanConfig::default();

    let mut src = base.src.clone();
    dirty(&mut src, dirty_keys);
    let mut planned_dst = base.dst.clone();
    let mut full_dst = base.dst.clone();

    let start = Instant::now();
    let (planned, _) = planned_dst
        .sync_planned(&src, &JoinResolver, &config)
        .expect("planned pull");
    let planned_elapsed = start.elapsed();

    let start = Instant::now();
    let full = full_dst.sync(&src).run().expect("unplanned pull");
    let full_elapsed = start.elapsed();

    // Identity: the planned pull commits exactly the state the seed
    // path commits, and the incremental digest fold stays exact.
    assert!(
        planned_dst.consistent_with(&full_dst),
        "planned and unplanned pulls committed different state"
    );
    assert_eq!(planned_dst.replica_digest(), full_dst.replica_digest());
    assert_eq!(
        planned_dst.replica_digest(),
        planned_dst.replica_digest_full()
    );

    // Identity across shard counts: the same schedule against the
    // 1-shard mirror lands on the same replica digest.
    let mut mirror_src = mirror.src.clone();
    dirty(&mut mirror_src, dirty_keys);
    let mut mirror_dst = mirror.dst.clone();
    let (mirror_report, _) = mirror_dst
        .sync_planned(&mirror_src, &JoinResolver, &config)
        .expect("mirror planned pull");
    assert_eq!(
        mirror_dst.replica_digest(),
        planned_dst.replica_digest(),
        "unsharded mirror diverged from the sharded run"
    );
    assert_eq!(mirror_report.shards_total, 1);

    // The plan covered every shard, and no clean shard was walked:
    // each dirty key dirties at most one shard.
    assert_eq!(
        planned.shards_skipped + planned.shards_incremental + planned.shards_snapshot,
        planned.shards_total
    );
    assert!(
        planned.shards_total - planned.shards_skipped <= dirty_keys,
        "more dirty shards ({}) than dirty keys ({dirty_keys})",
        planned.shards_total - planned.shards_skipped
    );

    Row {
        dirty_keys,
        planned,
        planned_elapsed,
        full,
        full_elapsed,
    }
}

/// Runs the experiment.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E15: planned (sharded) vs unplanned contact at mostly-converged state",
        &[
            "objects",
            "shards",
            "dirty keys",
            "dirty shards",
            "skipped",
            "plan ms",
            "plan KiB",
            "full ms",
            "full KiB",
            "time ratio",
            "bytes ratio",
        ],
    );
    let base = build_base(SHARDS);
    let mirror = build_base(1);
    let mut headline: Option<Row> = None;
    for &ppm in DIRTY_PPM {
        let dirty_keys = (OBJECTS * ppm / 1_000_000).max(1);
        let row = run_row(&base, &mirror, dirty_keys);
        let plan_bytes = contact_bytes(&row.planned);
        let full_bytes = contact_bytes(&row.full);
        t.row([
            OBJECTS.to_string(),
            SHARDS.to_string(),
            row.dirty_keys.to_string(),
            (row.planned.shards_total - row.planned.shards_skipped).to_string(),
            row.planned.shards_skipped.to_string(),
            format!("{:.1}", row.planned_elapsed.as_secs_f64() * 1e3),
            format!("{:.1}", plan_bytes as f64 / 1024.0),
            format!("{:.1}", row.full_elapsed.as_secs_f64() * 1e3),
            format!("{:.1}", full_bytes as f64 / 1024.0),
            ratio(
                row.full_elapsed.as_secs_f64(),
                row.planned_elapsed.as_secs_f64(),
            ),
            ratio(full_bytes as f64, plan_bytes as f64),
        ]);
        if headline.is_none() {
            headline = Some(row);
        }
    }

    // The acceptance bar, on the headline 0.01% row: the planned
    // contact is at least 10x cheaper than the all-shards path in both
    // wall-clock and bytes. Release-only — debug builds measure the
    // compiler, not the planner.
    #[cfg(not(debug_assertions))]
    {
        let row = headline.as_ref().expect("headline row");
        let plan_bytes = contact_bytes(&row.planned) as f64;
        let full_bytes = contact_bytes(&row.full) as f64;
        assert!(
            plan_bytes * 10.0 <= full_bytes,
            "planned contact moved {plan_bytes} bytes, more than a tenth \
             of the unplanned {full_bytes}"
        );
        let plan_secs = row.planned_elapsed.as_secs_f64();
        let full_secs = row.full_elapsed.as_secs_f64();
        assert!(
            plan_secs * 10.0 <= full_secs,
            "planned contact took {:.1}ms, more than a tenth of the \
             unplanned {:.1}ms",
            plan_secs * 1e3,
            full_secs * 1e3,
        );
    }
    let _ = headline;

    t.note("planned state == unplanned state, digest-identical to a 1-shard mirror (asserted)");
    t.note("dirty shards <= dirty keys, skipped + dirty == total (asserted)");
    t.note("KiB cols count metadata + values + (planned) the digest/plan exchange");
    #[cfg(not(debug_assertions))]
    t.note("asserted: planned contact >= 10x cheaper than unplanned, wall-clock and bytes");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn planned_contacts_scale_with_dirty_shards() {
        // The asserts inside `run` are the test.
        let tables = super::run();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), super::DIRTY_PPM.len());
    }
}
