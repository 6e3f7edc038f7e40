use super::*;
use crate::tests::s;
use crate::JoinResolver;
use optrep_core::rng::SplitMix64;
use optrep_replication::mux::run_contact;
use optrep_replication::planner::JOURNAL_CAP;

#[test]
fn public_endpoints_drive_a_contact_like_sync() {
    let mut a = KvStore::new(s(0));
    let mut b = KvStore::new(s(1));
    a.put("x", "1");
    a.put("y", "2");
    b.put("x", "0");
    let mut reference = b.clone();
    reference.sync(&a).run().unwrap();

    let mut client = b.client_endpoint();
    let mut server = a.server_endpoint();
    let contact = run_contact(&mut client, &mut server).unwrap();
    let (report, _) = b
        .apply_planned_tracked(&JoinResolver, client, &contact, &ShardPlan::default())
        .unwrap();
    assert_eq!(report.keys_examined, 2);
    assert!(b.consistent_with(&reference));
    assert_eq!(b.replica_digest(), reference.replica_digest());
}

#[test]
fn shard_digests_fold_across_counts() {
    let mut store = KvStore::with_shards(s(0), 64);
    for i in 0..200 {
        store.put(format!("key-{i}"), format!("v{i}"));
    }
    for count in [1usize, 4, 16, 64, 256] {
        let folded = store.shard_digests_at(count);
        let mirror = {
            let mut m = KvStore::with_shards(s(1), count);
            for record in store.records() {
                m.insert(record.clone());
            }
            m.shard_digest_vector().shards
        };
        assert_eq!(folded, mirror, "fold to {count} shards");
    }
}

#[test]
fn child_digests_are_the_finer_map_regrouped_by_parent() {
    for physical in [1usize, 8, 64] {
        let mut store = KvStore::with_shards(s(0), physical);
        for i in 0..300 {
            store.put(format!("key-{i}"), format!("v{i}"));
        }
        store.delete("key-42");
        for count in [1usize, 4, 8, 32, 256] {
            let fanout = 4usize;
            let parents: Vec<u64> = (0..count as u64).step_by(2).collect();
            let finer = store.shard_digests_at(count * fanout);
            let children = store.child_digests(&parents, count as u64, fanout as u64);
            for (parent, digests) in parents.iter().zip(&children) {
                for (j, child) in digests.iter().enumerate() {
                    assert_eq!(*child, finer[*parent as usize + j * count]);
                }
            }
        }
    }
}

#[test]
fn planned_sync_matches_unplanned_and_skips_clean_shards() {
    let mut a = KvStore::with_shards(s(0), 16);
    let mut b = KvStore::with_shards(s(1), 16);
    // Every shard of the puller holds a key before the planned pull, so
    // the dirty ones are walked: only an empty shard is bulk-loaded.
    for i in 0..200 {
        a.put(format!("seed-{i}"), "s");
    }
    b.sync(&a).run().unwrap();
    let seeded = b.shard_digest_vector().shards;
    assert!(seeded.iter().all(|shard| shard.entries > 0));
    for i in 0..100 {
        a.put(format!("key-{i}"), format!("v{i}"));
    }
    let mut reference = b.clone();
    reference.sync(&a).run().unwrap();
    let (report, contact) = b.sync_planned(&a, &JoinResolver).unwrap();
    assert!(b.consistent_with(&reference));
    assert_eq!(b.replica_digest(), reference.replica_digest());
    assert_eq!(report.shards_total, 16);
    assert_eq!(report.shards_snapshot, 0);
    assert_eq!(report.shards_incremental + report.shards_skipped, 16);
    assert_eq!(report.keys_created, 100);
    assert!(report.digest_bytes > 0);
    assert_eq!(contact.shards_total, 16);

    // A second immediate pull: every shard digest matches, so the
    // planner opens zero object streams.
    let (report, _) = b.sync_planned(&a, &JoinResolver).unwrap();
    assert_eq!(report.shards_skipped, report.shards_total);
    assert_eq!(report.shards_incremental, 0);
    assert_eq!(report.keys_examined, 0);
    assert_eq!(report.value_bytes, 0);
}

#[test]
fn planned_sync_across_different_shard_counts() {
    // Puller at 4 shards, server at 64: the server folds down.
    // Puller at 64, server at 4: the server recomputes up.
    for (pull_shards, serve_shards) in [(4usize, 64usize), (64, 4), (1, 16)] {
        let mut src = KvStore::with_shards(s(0), serve_shards);
        for i in 0..80 {
            src.put(format!("key-{i}"), format!("v{i}"));
        }
        let mut dst = KvStore::with_shards(s(1), pull_shards);
        dst.put("key-3", "local");
        let mut reference = dst.clone();
        reference.sync(&src).run().unwrap();
        let (_, contact) = dst.sync_planned(&src, &JoinResolver).unwrap();
        assert!(dst.consistent_with(&reference));
        assert_eq!(dst.replica_digest(), reference.replica_digest());
        assert_eq!(contact.shards_total as usize, pull_shards);
    }
}

#[test]
fn planned_sync_snapshots_empty_shards() {
    let mut src = KvStore::with_shards(s(0), 8);
    for i in 0..60 {
        src.put(format!("key-{i}"), format!("v{i}"));
    }
    src.delete("key-11");
    let mut dst = KvStore::with_shards(s(1), 8);
    let mut reference = dst.clone();
    reference.sync(&src).run().unwrap();
    let (report, contact) = dst.sync_planned(&src, &JoinResolver).unwrap();
    // Every local shard is empty, so every dirty shard bulk-loads.
    assert_eq!(report.shards_incremental, 0);
    assert!(report.shards_snapshot > 0);
    assert_eq!(report.keys_created, 60);
    // A pure snapshot plan opens zero object streams: the contact is
    // just the empty BatchHello handshake.
    let empty_contact = {
        let empty = KvStore::with_shards(s(2), 8);
        let mut c = empty.client_endpoint_for(&[], 8);
        let mut sv = empty.server_endpoint_for(&[], 8);
        run_contact(&mut c, &mut sv).unwrap()
    };
    assert_eq!(contact.frames, empty_contact.frames);
    assert_eq!(contact.payload_bytes, 0);
    assert!(dst.consistent_with(&reference));
    assert_eq!(dst.replica_digest(), reference.replica_digest());
    // Tombstones survive the bulk load.
    assert_eq!(dst.get("key-11"), None);
    assert!(dst.meta("key-11").is_some());
}

#[test]
fn one_walk_plan_matches_the_per_shard_builders() {
    let mut src = KvStore::with_shards(s(0), 8);
    for i in 0..120 {
        src.put(format!("key-{i}"), format!("v{i}"));
    }
    src.delete("key-17");
    // Plan counts below, equal to and above the physical count; a
    // puller holding one stale key has incremental shards too.
    for count in [2usize, 8, 32] {
        let mut dst = KvStore::with_shards(s(1), count);
        dst.put("key-3", "stale");
        let digests = dst.shard_digest_vector();
        let (plan, endpoint) = src.plan_contact(&digests, &PlanConfig::default());
        assert_eq!(plan.incremental.len(), 1, "{count} shards");
        assert!(!plan.snapshots.is_empty(), "{count} shards");
        for (shard, blob) in &plan.snapshots {
            assert_eq!(
                *blob,
                src.encode_shard_snapshot(*shard, count),
                "shard {shard} of {count}"
            );
        }
        let reference = src.server_endpoint_for(&plan.incremental, count);
        assert_eq!(format!("{endpoint:?}"), format!("{reference:?}"));
    }
}

/// One planned pull by a puller that ignores the plan's children and
/// walks its incremental shards whole.
fn flat_planned_pull(dst: &mut KvStore, src: &KvStore) -> (KvSyncReport, ContactReport) {
    let digests = dst.shard_digest_vector();
    let mut far = |ask: ContactAsk<'_>| src.open_contact(ask);
    let (client, plan, contact) = pull_planned(
        &mut InProcessLink::serving(&mut far),
        &mut VectorMemory::default(),
        &digests,
        |plan| dst.client_endpoint_for(&plan.incremental, plan.count as usize),
    )
    .unwrap();
    let (report, _) = dst
        .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
        .unwrap();
    (report, contact)
}

/// A converged pair at 64 shards holding `keys` keys of 32-byte
/// values, and then one key rewritten at the source in each of the
/// first `dirty_shards` shards.
fn pair_with_dirty_shards(keys: usize, dirty_shards: usize) -> (KvStore, KvStore) {
    let mut src = KvStore::with_shards(s(1), 64);
    for i in 0..keys {
        src.put(format!("key-{i:05}"), vec![b'v'; 32]);
    }
    let mut dst = KvStore::with_shards(s(0), 64);
    dst.sync(&src).run().unwrap();
    for shard in 0..dirty_shards {
        let key = (0..keys)
            .map(|i| format!("key-{i:05}"))
            .find(|key| shard_index(key.as_bytes(), 64) == shard)
            .expect("every shard holds a key");
        src.put(key, vec![b'w'; 32]);
    }
    (dst, src)
}

#[test]
fn a_sparse_pull_moves_half_the_bytes_once_cut_at_the_children() {
    // 195 keys a shard, one dirty key in each of four shards.
    let (dst, src) = pair_with_dirty_shards(64 * 195, 4);
    let bytes = |r: &KvSyncReport| r.meta_bytes + r.value_bytes + r.digest_bytes;
    let mut flat_dst = dst.clone();
    let (flat, _) = flat_planned_pull(&mut flat_dst, &src);
    let mut refined_dst = dst;
    let (refined, _) = refined_dst.sync_planned(&src, &JoinResolver).unwrap();
    assert_eq!((flat.keys_fast_forwarded, flat.shards_refined), (4, 0));
    assert_eq!(
        (refined.keys_fast_forwarded, refined.shards_refined),
        (4, 4)
    );
    assert_eq!(
        refined_dst.replica_digest_full(),
        flat_dst.replica_digest_full()
    );
    assert_eq!(refined_dst.replica_digest(), src.replica_digest());
    // Per changed key: the digest vector is most of what is left.
    assert!(
        bytes(&refined) * 2 <= bytes(&flat),
        "refined {} B, flat {} B for 4 keys",
        bytes(&refined),
        bytes(&flat)
    );
    assert!(refined.keys_examined * 8 < flat.keys_examined);
}

#[test]
fn a_dense_pull_is_offered_no_children_and_runs_flat() {
    // 40 keys a shard, every shard dirty.
    let (dst, src) = pair_with_dirty_shards(64 * 40, 64);
    let digests = dst.shard_digest_vector();
    let (plan, _) = src.plan_contact(&digests, &PlanConfig::default());
    assert_eq!(plan.incremental.len(), 64);
    assert_eq!(plan.children, None);
    let mut flat_dst = dst.clone();
    let flat = flat_planned_pull(&mut flat_dst, &src);
    let mut planned_dst = dst;
    let planned = planned_dst.sync_planned(&src, &JoinResolver).unwrap();
    assert_eq!(planned, flat, "same frames, same bytes, same verdicts");
    assert_eq!(planned_dst.replica_digest(), src.replica_digest());
}

/// One planned pull of `dst` over `link`, as a daemon makes it.
fn pull_over(
    dst: &mut KvStore,
    link: &mut InProcessLink<'_>,
    remembered: &mut VectorMemory,
) -> KvSyncReport {
    let digests = dst.shard_digest_vector();
    let (client, plan, contact) = pull_planned(link, remembered, &digests, |plan| {
        dst.client_endpoint_refined(plan)
    })
    .unwrap();
    let applied = dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan);
    applied.unwrap().0
}

/// Two planned pulls of `dst` from `src` over one in-process link —
/// a connection that remembers — with `between` run on both stores
/// once the first has committed.
fn pull_twice(
    dst: &mut KvStore,
    src: &std::cell::RefCell<KvStore>,
    between: impl FnOnce(&mut KvStore, &mut KvStore),
) -> [KvSyncReport; 2] {
    let mut far = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
    let mut link = InProcessLink::serving(&mut far);
    let mut remembered = VectorMemory::default();
    let first = pull_over(dst, &mut link, &mut remembered);
    between(dst, &mut src.borrow_mut());
    [first, pull_over(dst, &mut link, &mut remembered)]
}

#[test]
fn a_warm_pull_is_proposed_the_keys_the_source_changed() {
    let (dst, src) = pair_with_dirty_shards(64 * 195, 4);
    let bytes = |r: &KvSyncReport| r.meta_bytes + r.value_bytes + r.digest_bytes;
    let rewrite = |src: &mut KvStore| {
        for key in ["key-00007", "key-00420", "key-01234"] {
            src.put(key, vec![b'x'; 32]);
        }
    };
    // The same second pull over a link that remembers nothing: a
    // fresh in-process link per pull, as `sync_planned` makes.
    let mut cold_dst = dst.clone();
    let mut cold_src = src.clone();
    cold_dst.sync_planned(&cold_src, &JoinResolver).unwrap();
    rewrite(&mut cold_src);
    let (cold, _) = cold_dst.sync_planned(&cold_src, &JoinResolver).unwrap();

    let mut warm_dst = dst;
    let src = std::cell::RefCell::new(src);
    let [first, warm] = pull_twice(&mut warm_dst, &src, |_, src| rewrite(src));
    assert_eq!((first.shards_proposed, first.shards_refined), (0, 4));
    assert_eq!((cold.shards_proposed, cold.shards_refined), (0, 3));
    assert_eq!(
        (
            warm.shards_proposed,
            warm.shards_refused,
            warm.shards_refined
        ),
        (3, 0, 0)
    );
    assert_eq!((warm.keys_examined, warm.keys_fast_forwarded), (3, 3));
    assert!(cold.keys_examined >= 3 * 8, "{cold:?}");
    assert!(
        bytes(&warm) * 2 < bytes(&cold),
        "warm {} B, cold {} B for 3 keys",
        bytes(&warm),
        bytes(&cold)
    );
    assert!(warm.digest_bytes < cold.digest_bytes);
    assert_eq!(
        warm_dst.replica_digest_full(),
        cold_dst.replica_digest_full()
    );
    assert_eq!(warm_dst.replica_digest(), src.borrow().replica_digest());
}

#[test]
fn an_overflowed_journal_and_a_dense_shard_are_planned_from_digests_alone() {
    // The journal evicted past the connection's last plan: the
    // second pull is the one a fresh link would make.
    let (mut dst, src) = pair_with_dirty_shards(64 * 40, 2);
    let src = std::cell::RefCell::new(src);
    let [_, second] = pull_twice(&mut dst, &src, |_, src| {
        for round in 0..=JOURNAL_CAP / 64 {
            for i in 0..64 {
                src.put(format!("key-{i:05}"), format!("round {round}"));
            }
        }
    });
    assert_eq!(second.shards_proposed, 0);
    assert_eq!(second.keys_fast_forwarded, 64);
    assert_eq!(dst.replica_digest(), src.borrow().replica_digest());
    // Most of a shard's keys changed: listing them costs more than
    // walking the shard, so it is walked.
    let (mut dst, src) = pair_with_dirty_shards(64 * 8, 2);
    let src = std::cell::RefCell::new(src);
    let [_, second] = pull_twice(&mut dst, &src, |_, src| {
        for i in 0..64 * 8 {
            src.put(format!("key-{i:05}"), "rewritten");
        }
    });
    assert_eq!(second.shards_proposed, 0);
    assert_eq!(second.keys_fast_forwarded, 64 * 8);
    assert_eq!(dst.replica_digest(), src.borrow().replica_digest());
}

/// The model: whatever the source's journal claims — entries lost,
/// entries for keys that never changed, a floor that says complete
/// when it is not — and whatever the puller did meanwhile, a warm
/// planned pull ends where an unplanned pull ends, and refuses
/// exactly the proposals whose candidates missed a differing key.
#[test]
fn a_wrong_journal_costs_refusals_never_convergence() {
    let mut rng = SplitMix64::new(0x0000_10E5_0FA1_1E50);
    let (mut proposed, mut refused, mut accepted_stale) = (0, 0, 0);
    for case in 0..48u64 {
        let pull_shards = [4, 16, 64][(case % 3) as usize];
        let serve_shards = [1, 16, 256][(case / 3 % 3) as usize];
        let keys = 400 + (rng.next_u64() % 1200) as usize;
        let pick = |rng: &mut SplitMix64| format!("k{:04}", rng.next_u64() % keys as u64);
        let mut src = KvStore::with_shards(s(1), serve_shards);
        let mut dst = KvStore::with_shards(s(0), pull_shards);
        let mut third = KvStore::with_shards(s(2), 8);
        for i in 0..keys {
            src.put(format!("k{i:04}"), format!("base{i}"));
        }
        let at = format!("case {case}: {pull_shards} from {serve_shards} shards, {keys} keys");
        let src = std::cell::RefCell::new(src);
        let mut plan_of_the_second = None;
        let mut oracle_refused = Vec::new();
        let mut before = None;
        let [_, second] = pull_twice(&mut dst, &src, |dst, src| {
            let since = src.generation();
            // Both sides move on: the source in ways its journal
            // sees, the puller in ways it cannot.
            for i in 0..1 + rng.next_u64() % 12 {
                match rng.next_u64() % 5 {
                    0 => src.delete(pick(&mut rng)),
                    1 => src.put(format!("new-{case}-{i}"), "created"),
                    _ => src.put(pick(&mut rng), format!("ahead{i}")),
                }
            }
            for i in 0..rng.next_u64() % 3 {
                match rng.next_u64() % 3 {
                    0 => dst.put(format!("mine-{case}-{i}"), "local"),
                    1 => dst.put(pick(&mut rng), "ours"),
                    _ => {
                        third.put(pick(&mut rng), "from a third site");
                        dst.sync(&third).run().unwrap();
                    }
                }
            }
            // Then the journal is made to lie.
            let lie = case % 4;
            if lie == 1 {
                // Entries lost.
                let mut keep = rng.clone();
                (src.journal.entries_mut()).retain(|_| keep.next_u64() % 3 >= 1);
            } else if lie == 2 {
                // Keys that never changed, listed as changed.
                for _ in 0..1 + rng.next_u64() % 6 {
                    let stale = placement(pick(&mut rng).as_bytes());
                    src.journal.record(src.generation, stale);
                }
            } else if lie == 3 {
                // Evicted without the floor following.
                let half = src.journal.entries_mut().len() / 2;
                src.journal.entries_mut().drain(..half);
                src.journal.entries_mut().retain(|&(at, _)| at > since + 1);
            }
            // What the second pull will be offered, and which of
            // its proposals miss a key that differs.
            let digests = dst.shard_digest_vector();
            let plan = src.plan_contact_since(&digests, Some(since));
            let differs = |key: &str| {
                let hash = |store: &KvStore| store.record(key.as_bytes()).map(entry_hash);
                hash(dst) != hash(src)
            };
            for proposal in &plan.proposed {
                let missed = (dst.iter_entries().chain(src.iter_entries()))
                    .map(|(key, _)| key)
                    .filter(|key| {
                        shard_index(key.as_bytes(), plan.count as usize) as u64 == proposal.shard
                    })
                    .filter(|key| {
                        let fine = placement(key.as_bytes()) & (MAX_PLAN_SHARDS - 1);
                        proposal.candidates.binary_search(&fine).is_err()
                    })
                    .any(differs);
                if missed {
                    oracle_refused.push(proposal.shard);
                } else if lie == 2 {
                    accepted_stale += 1;
                }
            }
            let scope = dst.client_endpoint_refined(&plan).scope;
            let answered = scope.and_then(|scope| scope.refused);
            assert_eq!(
                answered.unwrap_or_default(),
                oracle_refused,
                "{at}: refused exactly where the hint was incomplete"
            );
            plan_of_the_second = Some(plan);
            let mut full = dst.clone();
            full.sync(src).run().unwrap();
            before = Some(full.replica_digest_full());
        });
        let plan = plan_of_the_second.expect("the second pull was planned");
        assert_eq!(second.shards_proposed, plan.proposed.len(), "{at}");
        assert_eq!(second.shards_refused, oracle_refused.len(), "{at}");
        assert_eq!(Some(dst.replica_digest_full()), before, "{at}");
        assert_eq!(dst.replica_digest(), dst.replica_digest_full(), "{at}");
        proposed += second.shards_proposed;
        refused += second.shards_refused;
    }
    assert!(
        proposed > 100,
        "the cases must exercise proposals: {proposed}"
    );
    assert!(refused > 10, "and refusals: {refused}");
    assert!(
        accepted_stale > 5,
        "and harmless stale hints: {accepted_stale}"
    );
}

/// A vector no decoder admits — `shards` is a public field — is refused
/// where the plan begins, through either door, not planned from.
#[test]
fn a_malformed_digest_vector_is_refused_at_the_door() {
    let mut src = KvStore::with_shards(s(0), 4);
    src.put("x", "1");
    for shards in [0, 3] {
        let digests = DigestVector {
            shards: vec![ShardDigest::default(); shards],
        };
        let refused =
            |plan: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(plan)).is_err();
        assert!(
            refused(&|| drop(src.plan_contact(&digests, &PlanConfig::default()))),
            "{shards} shards"
        );
        let ask = ContactAsk::Plan {
            digests: &digests,
            since: None,
        };
        assert!(refused(&|| drop(src.open_contact(ask))), "{shards} shards");
    }
}

/// Two pullers of one source, a link each: what a link remembers — the
/// source's `since`, the puller's last vector — is that link's alone.
#[test]
fn two_pullers_of_one_source_keep_their_links_memories_apart() {
    let (first, src) = pair_with_dirty_shards(64 * 195, 0);
    let (mut first, mut second) = (first.clone(), first);
    let src = std::cell::RefCell::new(src);
    let mut far_one = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
    let mut far_two = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
    type End<'a> = (InProcessLink<'a>, VectorMemory);
    let mut one: End<'_> = (
        InProcessLink::serving(&mut far_one),
        VectorMemory::default(),
    );
    let mut two: End<'_> = (
        InProcessLink::serving(&mut far_two),
        VectorMemory::default(),
    );
    let write = |key: &str| src.borrow_mut().put(key, vec![b'x'; 32]);
    // Digests sent, shards proposed, keys examined.
    let pull = |dst: &mut KvStore, (link, remembered): &mut End<'_>| {
        let r = pull_over(dst, link, remembered);
        assert_eq!(r.shards_refused, 0);
        (r.digests_sent, r.shards_proposed, r.keys_examined)
    };
    // Each link's first pull: nothing remembered at either end.
    assert_eq!(pull(&mut first, &mut one), (64, 0, 0));
    assert_eq!(pull(&mut second, &mut two), (64, 0, 0));
    // Three keys of three shards, written one at a time.
    write("key-00007");
    assert_eq!(pull(&mut first, &mut one), (0, 1, 1));
    write("key-00420");
    // The second link's `since` is its own first pull: it is told both
    // keys, though the first link's pull journalled past one of them.
    assert_eq!(pull(&mut second, &mut two), (0, 2, 2));
    // The first link is told only what came after its own last pull, and
    // its delta is against the vector it sent then: one shard moved.
    assert_eq!(pull(&mut first, &mut one), (1, 1, 1));
    write("key-01234");
    assert_eq!(pull(&mut second, &mut two), (2, 1, 1));
    assert_eq!(pull(&mut first, &mut one), (1, 1, 1));
    assert!(first.consistent_with(&src.borrow()));
    assert!(second.consistent_with(&src.borrow()));
}

/// A puller ahead on one key of a shard the source keeps writing refuses
/// that shard's proposal on every pull and walks it whole — the count
/// pinned here is the cost of a writing puller — until the source has
/// pulled the key back.
#[test]
fn a_refused_shard_written_again_is_refused_again_until_the_source_catches_up() {
    let (mut dst, src) = pair_with_dirty_shards(64 * 195, 0);
    let shard = 5;
    let in_shard = src.shard_digest_vector().shards[shard].entries as usize;
    let theirs: Vec<String> = (0..64 * 195)
        .map(|i| format!("key-{i:05}"))
        .filter(|key| shard_index(key.as_bytes(), 64) == shard)
        .take(4)
        .collect();
    let src = std::cell::RefCell::new(src);
    let mut far = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
    let mut link = InProcessLink::serving(&mut far);
    let mut remembered = VectorMemory::default();
    let mut pull = |dst: &mut KvStore| {
        let r = pull_over(dst, &mut link, &mut remembered);
        (r.shards_proposed, r.shards_refused, r.keys_examined)
    };
    assert_eq!(pull(&mut dst), (0, 0, 0));
    // (A key of its own would not do: a shard where the puller holds more
    // entries than the source is never proposed.)
    dst.put(theirs[3].as_str(), "ahead");
    for key in &theirs[..2] {
        src.borrow_mut().put(key.as_str(), "again");
        // Proposed one key, refused, and the source's whole shard walked.
        assert_eq!(pull(&mut dst), (1, 1, in_shard), "{key}");
        assert_eq!(dst.get(key), Some(&b"again"[..]));
        assert_eq!(dst.get(&theirs[3]), Some(&b"ahead"[..]));
    }
    // The source pulls the puller's key back: its journal now names it,
    // and the rest of the shard is the same on both sides again.
    src.borrow_mut().sync(&dst).run().unwrap();
    src.borrow_mut().put(theirs[2].as_str(), "again");
    assert_eq!(pull(&mut dst), (1, 0, 2));
    assert!(dst.consistent_with(&src.borrow()));
}

/// A puller rebuilt at another shard count between two pulls of one
/// link: there is nothing to patch, so the full vector crosses — and the
/// source still proposes from the `since` it remembers.
#[test]
fn a_puller_resharded_between_two_pulls_sends_its_vector_whole() {
    let mut src = KvStore::with_shards(s(1), 64);
    for i in 0..64 * 195 {
        src.put(format!("key-{i:05}"), vec![b'v'; 32]);
    }
    let src = std::cell::RefCell::new(src);
    let mut dst = KvStore::with_shards(s(0), 16);
    let [first, second] = pull_twice(&mut dst, &src, |dst, src| {
        for key in ["key-00007", "key-00420", "key-01234"] {
            src.put(key, vec![b'x'; 32]);
        }
        let mut wider = KvStore::with_shards(dst.site(), 64);
        for record in dst.records() {
            wider.insert(record.clone());
        }
        assert_eq!(wider, *dst);
        *dst = wider;
    });
    assert_eq!((first.shards_total, first.shards_snapshot), (16, 16));
    assert_eq!((second.shards_total, second.digests_sent), (64, 64));
    assert_eq!((second.shards_proposed, second.shards_refused), (3, 0));
    assert_eq!((second.keys_examined, second.keys_fast_forwarded), (3, 3));
    assert_eq!(dst.shard_count(), 64);
    assert_eq!(dst.replica_digest(), src.borrow().replica_digest());
}
