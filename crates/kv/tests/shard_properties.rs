//! Seeded property tests for the sharded store and the sync planner.
//!
//! Three invariants pin the shard map:
//!
//! 1. **Incremental digest maintenance is exact**: after any put /
//!    delete / sync / planned-sync schedule, the O(shards) fold
//!    (`replica_digest`) equals the O(n) ground-truth recomputation
//!    (`replica_digest_full`).
//! 2. **Shard count is invisible**: the same schedule run at any
//!    power-of-two shard count produces equal stores, equal digests,
//!    and identical snapshot bytes — the count is a local layout
//!    choice, never semantic.
//! 3. **A planned contact commits exactly what the seed path commits**:
//!    for any divergence the planner's digest-exchange / skip /
//!    incremental / snapshot pipeline converges the puller to the same
//!    replicated state as a full unplanned pull, at any shard-count
//!    pairing.

use optrep_core::rng::{cases, SplitMix64};
use optrep_core::SiteId;
use optrep_kv::{JoinResolver, KvStore, KvSyncReport};

mod support;
use support::unplanned_pull;

#[derive(Debug, Clone)]
enum Op {
    Put {
        store: usize,
        key: u8,
        val: u8,
    },
    Delete {
        store: usize,
        key: u8,
    },
    /// The value the key holds written again, or its tombstone: only
    /// its vector moves.
    Rewrite {
        store: usize,
        key: u8,
    },
    Sync {
        dst: usize,
        src: usize,
    },
    PlannedSync {
        dst: usize,
        src: usize,
    },
}

fn ops(rng: &mut SplitMix64, stores: usize, len: usize) -> Vec<Op> {
    (0..rng.range(1..len))
        .map(|_| {
            let (store, key) = (rng.below(stores), rng.below(8) as u8);
            let src = (store + rng.range(1..stores)) % stores;
            match rng.below(5) {
                0 => Op::Put {
                    store,
                    key,
                    val: rng.next_u64() as u8,
                },
                1 => Op::Delete { store, key },
                2 => Op::Rewrite { store, key },
                3 => Op::Sync { dst: store, src },
                _ => Op::PlannedSync { dst: store, src },
            }
        })
        .collect()
}

/// Runs one schedule with each store at its own shard count.
fn run(shard_counts: &[usize], schedule: &[Op]) -> Vec<KvStore> {
    let mut fleet: Vec<KvStore> = shard_counts
        .iter()
        .enumerate()
        .map(|(i, &n)| KvStore::with_shards(SiteId::new(i as u32), n))
        .collect();
    for op in schedule {
        match op {
            Op::Put { store, key, val } => {
                fleet[*store].put(format!("k{key}"), vec![*val]);
            }
            Op::Delete { store, key } => {
                fleet[*store].delete(format!("k{key}"));
            }
            Op::Rewrite { store, key } => {
                let (store, key) = (&mut fleet[*store], format!("k{key}"));
                match store.get(&key).map(<[u8]>::to_vec) {
                    Some(held) => store.put(key, held),
                    None => store.delete(key),
                }
            }
            Op::Sync { dst, src } => {
                let src = fleet[*src].clone();
                unplanned_pull(&mut fleet[*dst], &src);
            }
            Op::PlannedSync { dst, src } => {
                let src = fleet[*src].clone();
                fleet[*dst].sync(&src).run().expect("planned sync");
            }
        }
    }
    fleet
}

/// Satellite invariant: the cached per-shard digest fold equals the
/// full O(n) recomputation after arbitrary multi-site schedules —
/// every mutation path (write, delete, fast-forward, reconcile,
/// snapshot bulk-load, WAL-style insert) maintains the digests
/// exactly.
#[test]
fn cached_digest_fold_matches_full_recomputation() {
    cases(32, |_, rng| {
        let schedule = ops(rng, 3, 60);
        let shift = rng.below(5);
        let counts = [1usize << shift, 16, 4];
        for store in run(&counts, &schedule) {
            assert_eq!(store.replica_digest(), store.replica_digest_full());
        }
    });
}

/// The same schedule at different shard counts produces equal
/// stores, equal digests, and byte-identical snapshots: sharding is
/// pure layout.
#[test]
fn shard_count_is_invisible() {
    cases(32, |_, rng| {
        let schedule = ops(rng, 3, 40);
        let narrow = run(&[1, 1, 1], &schedule);
        let wide = run(&[64, 8, 256], &schedule);
        for (a, b) in narrow.iter().zip(&wide) {
            assert_eq!(a, b);
            assert_eq!(a.replica_digest(), b.replica_digest());
            assert_eq!(a.encode_snapshot(), b.encode_snapshot());
        }
    });
}

/// Digest identity: from any divergent pair, one planned contact
/// commits state digest-identical to the unplanned seed path — at
/// any shard-count pairing, snapshot verdicts included.
#[test]
fn planned_contact_commits_identical_state() {
    cases(32, |_, rng| {
        let schedule = ops(rng, 2, 40);
        let (pull_shift, serve_shift) = (rng.below(7), rng.below(7));
        let fleet = run(&[1 << pull_shift, 1 << serve_shift], &schedule);
        let src = fleet[1].clone();
        let mut planned = fleet[0].clone();
        let mut unplanned = fleet[0].clone();
        unplanned_pull(&mut unplanned, &src);
        let report = planned.sync(&src).run().expect("planned pull");
        assert!(planned.consistent_with(&unplanned));
        assert_eq!(planned.replica_digest(), unplanned.replica_digest());
        assert_eq!(planned.replica_digest(), planned.replica_digest_full());
        assert_eq!(report.shards_total, 1usize << pull_shift);
        assert_eq!(
            report.shards_skipped + report.shards_incremental + report.shards_snapshot,
            report.shards_total
        );

        // An immediate second planned pull is a no-op. When the puller
        // fully converged to the server (no local-only keys, no
        // reconciliations that bumped past it), every digest matches and
        // every shard is skipped outright.
        let converged = planned.consistent_with(&src);
        let before = planned.generation();
        let report = planned.sync(&src).run().expect("second planned pull");
        assert_eq!(planned.generation(), before, "second pull changed state");
        assert_eq!(
            report.keys_created + report.keys_fast_forwarded + report.keys_reconciled,
            0
        );
        if converged {
            assert_eq!(report.shards_skipped, report.shards_total);
            assert_eq!(report.keys_examined, 0);
        }
    });
}
