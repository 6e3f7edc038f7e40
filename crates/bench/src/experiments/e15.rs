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
//! fraction of the keys and the puller syncs four ways:
//!
//! * **refined** — the path a daemon runs: digest exchange, clean
//!   shards skipped, and where the plan offers the dirty shards'
//!   child digests, only the children that differ walked.
//! * **planned, sharded** — the same pull by a puller that ignores the
//!   children and walks the dirty shards whole: PR 10's path, and the
//!   column the ≥ 10× bar was set on.
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
//! At either scale the run fails if the refined pull of any row moves
//! more bytes than the planned one: a count, not a timing.

use crate::table::{ratio, Table};
use optrep_core::SiteId;
use optrep_kv::{JoinResolver, KvStore, KvSyncReport};
use optrep_replication::{pull_planned, ContactAsk, InProcessLink, Serving, VectorMemory};
use std::time::{Duration, Instant};

// The unplanned pull, the seed path: every tracked key of both stores a
// stream, no digest turn.
#[path = "../../../kv/tests/support/mod.rs"]
mod support;
use support::unplanned_pull;

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
    refined: KvSyncReport,
    refined_elapsed: Duration,
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

/// A planned pull by a puller that ignores the plan's child digests:
/// `KvStore::sync` with the endpoint over the incremental shards whole.
fn flat_planned_pull(dst: &mut KvStore, src: &KvStore) -> KvSyncReport {
    let digests = dst.shard_digest_vector();
    let mut far = |ask: ContactAsk<'_>| src.open_contact(ask);
    let (client, plan, contact) = pull_planned(
        &mut InProcessLink::serving(&mut Serving::default(), &mut far),
        &mut VectorMemory::default(),
        &digests,
        |plan, _| Ok(dst.client_endpoint_for(&plan.incremental, plan.count as usize)),
    )
    .expect("planned pull");
    let (report, _) = dst
        .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
        .expect("planned commit");
    report
}

fn run_row(base: &BasePair, mirror: &BasePair, dirty_keys: usize) -> Row {
    let mut src = base.src.clone();
    dirty(&mut src, dirty_keys);
    let mut refined_dst = base.dst.clone();
    let mut planned_dst = base.dst.clone();
    let mut full_dst = base.dst.clone();

    let start = Instant::now();
    let refined = refined_dst.sync(&src).run().expect("refined pull");
    let refined_elapsed = start.elapsed();

    let start = Instant::now();
    let planned = flat_planned_pull(&mut planned_dst, &src);
    let planned_elapsed = start.elapsed();

    let start = Instant::now();
    let full = unplanned_pull(&mut full_dst, &src);
    let full_elapsed = start.elapsed();

    // Identity: both planned pulls commit exactly the state the seed
    // path commits, and the incremental digest fold stays exact.
    for (name, dst) in [("refined", &refined_dst), ("planned", &planned_dst)] {
        assert!(
            dst.consistent_with(&full_dst),
            "{name} and unplanned pulls committed different state"
        );
        assert_eq!(dst.replica_digest(), full_dst.replica_digest(), "{name}");
        assert_eq!(dst.replica_digest(), dst.replica_digest_full(), "{name}");
    }
    // Same plan, same verdicts; the children only ever remove keys
    // from the walk, and must never cost more than they save.
    assert_eq!(refined.shards_skipped, planned.shards_skipped);
    assert_eq!(planned.shards_refined, 0);
    assert!(refined.keys_examined <= planned.keys_examined);
    assert!(
        contact_bytes(&refined) <= contact_bytes(&planned),
        "the refined pull moved {} bytes, the planned one {}",
        contact_bytes(&refined),
        contact_bytes(&planned)
    );

    // Identity across shard counts: the same schedule against the
    // 1-shard mirror lands on the same replica digest.
    let mut mirror_src = mirror.src.clone();
    dirty(&mut mirror_src, dirty_keys);
    let mut mirror_dst = mirror.dst.clone();
    let mirror_report = mirror_dst
        .sync(&mirror_src)
        .run()
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
        refined,
        refined_elapsed,
        planned,
        planned_elapsed,
        full,
        full_elapsed,
    }
}

/// Runs the experiment.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E15: refined vs planned (sharded) vs unplanned contact at mostly-converged state",
        &[
            "objects",
            "shards",
            "dirty keys",
            "dirty shards",
            "skipped",
            "refined",
            "refined ms",
            "refined KiB",
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
            row.refined.shards_refined.to_string(),
            format!("{:.1}", row.refined_elapsed.as_secs_f64() * 1e3),
            format!("{:.1}", contact_bytes(&row.refined) as f64 / 1024.0),
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

    t.note("refined state == planned state == unplanned state, digest-identical to a 1-shard mirror (asserted)");
    t.note("refined bytes <= planned bytes on every row (asserted, debug and release)");
    t.note("ratio cols: unplanned over planned (the PR 10 path), as before");
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
