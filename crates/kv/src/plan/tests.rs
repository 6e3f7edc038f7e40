use super::*;
use crate::tests::{s, unplanned_pull};
use crate::{Connection, JoinResolver, KvSyncReport};
use optrep_core::obs::{self, CounterSink, CounterSnapshot};
use optrep_core::rng::SplitMix64;
use optrep_replication::mux::{pull_planned, ContactReport, InProcessLink, Serving};
use optrep_replication::planner::{VectorMemory, JOURNAL_CAP};

/// The keys of an image, in its order.
fn keys_of(image: &[u8]) -> Vec<String> {
    let mut rest = image;
    let n = wire::get_varint(&mut rest).unwrap_or(0);
    let mut entries = ImageEntries::default();
    let keys = (0..n).map(|_| entries.take(&mut rest).map(|(key, _)| key.to_owned()));
    keys.collect::<std::result::Result<_, _>>()
        .expect("an image a store writes")
}

#[test]
fn public_endpoints_drive_a_contact_like_sync() {
    let mut a = KvStore::new(s(0));
    let mut b = KvStore::new(s(1));
    a.put("x", "1");
    a.put("y", "2");
    b.put("x", "0");
    let mut reference = b.clone();
    reference.sync(&a).run().unwrap();

    let report = unplanned_pull(&mut b, &a);
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
            for (key, view) in store.iter_entries() {
                m.insert_record(key.as_bytes(), view);
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
    unplanned_pull(&mut reference, &a);
    let report = b.sync(&a).run().unwrap();
    assert!(b.consistent_with(&reference));
    assert_eq!(b.replica_digest(), reference.replica_digest());
    assert_eq!(report.shards_total, 16);
    assert_eq!(report.shards_snapshot, 0);
    assert_eq!(report.shards_incremental + report.shards_skipped, 16);
    assert_eq!(report.keys_created, 100);
    assert!(report.digest_bytes > 0);

    // A second immediate pull: every shard digest matches, so the
    // planner opens zero object streams.
    let report = b.sync(&a).run().unwrap();
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
        unplanned_pull(&mut reference, &src);
        let report = dst.sync(&src).run().unwrap();
        assert!(dst.consistent_with(&reference));
        assert_eq!(dst.replica_digest(), reference.replica_digest());
        assert_eq!(report.shards_total, pull_shards);
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
    unplanned_pull(&mut reference, &src);
    let (report, seen) = witnessed_sync(&mut dst, &src);
    // Every local shard is empty, so every dirty shard bulk-loads.
    assert_eq!(report.shards_incremental, 0);
    assert!(report.shards_snapshot > 0);
    assert_eq!(report.keys_created, 60);
    // A pure snapshot plan opens zero object streams and walks no
    // shard: the contact is the planning turn alone, one round trip,
    // no hello and no session.
    assert_eq!((report.meta_bytes, report.value_bytes), (0, 0));
    assert_eq!((seen.contacts, seen.round_trips, seen.sessions), (1, 1, 0));
    assert!(dst.consistent_with(&reference));
    assert_eq!(dst.replica_digest(), reference.replica_digest());
    // Tombstones survive the bulk load.
    assert_eq!(dst.get("key-11"), None);
    assert!(dst.meta("key-11").is_some());
}

/// A plan that bulk-loads no shard, or one, is byte for byte what it
/// was when each bulk shard carried an image of its own: its one image
/// is that shard's. The length and FNV-1a of each plan frame below were
/// read off the same stores at the commit before bulk shards shared an
/// image. The plans that bulk-load nothing walk every dirty shard whole
/// (every shard is dirty, so none is refined), so no digest is in them.
/// The plans that bulk-load one shard were re-pinned once, and nothing
/// else, when an image entry's structure bytes folded into a key head and
/// a state head: before, `(6530, 0xc99f_8bfd_98b5_2533)`,
/// `(462, 0xce82_5b95_bba8_afbb)` and `(282, 0xa64a_a4ac_bc45_c9b5)` at
/// 1, 16 and 512 shards (at 512 the shard holds one key, whose 7-byte
/// rest takes the escape: its three structure bytes are three still).
#[test]
fn plans_of_no_bulk_shard_or_one_are_what_they_were() {
    let pinned = [
        (
            1,
            [(5, 0x691f_25d4_0448_b073), (5931, 0xa22f_c58a_8d73_3fc2)],
        ),
        (
            16,
            [(20, 0x331f_12e0_6807_4aa3), (417, 0x16db_85d8_75bc_2e38)],
        ),
        (
            512,
            [(142, 0x2447_816f_35e8_18ff), (282, 0x2011_cb3d_b9fd_2b7f)],
        ),
    ];
    for (shards, frames) in pinned {
        let mut src = KvStore::with_shards(s(0), shards);
        for i in 0..300 {
            src.put(format!("key-{i:03}"), vec![i as u8; 1 + i % 40]);
        }
        src.delete("key-007");
        // No bulk shard: a puller that holds an older write of half the
        // keys.
        let mut held = KvStore::with_shards(s(1), shards);
        held.sync(&src).run().unwrap();
        for i in (0..300).step_by(2) {
            src.put(format!("key-{i:03}"), "newer");
        }
        // One bulk shard: a puller that lacks only the keys of the shard
        // of `key-042` (at one shard, an empty one).
        let lonely = shard_index(b"key-042", shards);
        let mut lacking = KvStore::with_shards(s(2), shards);
        for i in (0..300).filter(|_| shards > 1) {
            let key = format!("key-{i:03}");
            if shard_index(key.as_bytes(), shards) != lonely {
                lacking.put(key, "mine");
            }
        }
        for (bulk, (puller, (len, hash))) in [&held, &lacking].into_iter().zip(frames).enumerate() {
            let (plan, _) = src.plan_contact(&puller.shard_digest_vector(), &PlanConfig::default());
            assert_eq!(plan.bulk.len(), bulk, "{shards} shards");
            let frame = plan.encode();
            assert_eq!(
                (frame.len(), placement(&frame)),
                (len, hash),
                "{shards} shards, {bulk} bulk"
            );
        }
    }
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
        assert!(!plan.bulk.is_empty(), "{count} shards");
        let image = src.encode_shard_snapshot(&plan.bulk, count);
        assert_eq!(plan.image, Some(image), "{count} shards");
        let reference = src.server_endpoint_for(&plan.incremental, count);
        assert_eq!(format!("{endpoint:?}"), format!("{reference:?}"));
    }
}

/// `dst.sync(src).run()` under a `CounterSink` witness: the report, and
/// what the pull's contact events counted.
fn witnessed_sync(dst: &mut KvStore, src: &KvStore) -> (KvSyncReport, CounterSnapshot) {
    let witness = std::sync::Arc::new(CounterSink::new());
    let report = obs::with(witness.clone(), || dst.sync(src).run()).unwrap();
    (report, witness.snapshot())
}

/// One planned pull by a puller that ignores the plan's children and
/// walks its incremental shards whole.
fn flat_planned_pull(dst: &mut KvStore, src: &KvStore) -> (KvSyncReport, ContactReport) {
    let digests = dst.shard_digest_vector();
    let mut far = |ask: ContactAsk<'_>| src.open_contact(ask);
    let (client, plan, contact) = pull_planned(
        &mut InProcessLink::serving(&mut Serving::default(), &mut far),
        &mut VectorMemory::default(),
        &digests,
        |plan, _| Ok(dst.client_endpoint_for(&plan.incremental, plan.count as usize)),
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
    let refined = refined_dst.sync(&src).run().unwrap();
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
    let (flat, contact) = flat_planned_pull(&mut flat_dst, &src);
    let mut planned_dst = dst;
    let (planned, seen) = witnessed_sync(&mut planned_dst, &src);
    assert_eq!(planned, flat, "same bytes, same verdicts");
    assert_eq!(seen.round_trips, contact.round_trips);
    assert_eq!(planned_dst.replica_digest(), src.replica_digest());
}

/// Two planned pulls of `dst` from `src` over one kept connection, with
/// `between` run on both stores once the first has committed.
fn pull_twice(
    dst: &mut KvStore,
    src: &mut KvStore,
    between: impl FnOnce(&mut KvStore, &mut KvStore),
) -> [KvSyncReport; 2] {
    let mut link = Connection::default();
    let first = dst.sync(src).over(&mut link).run().unwrap();
    between(dst, src);
    [first, dst.sync(src).over(&mut link).run().unwrap()]
}

/// A pull over `connection` as `SyncRequest::run` makes one, with the
/// contact report it leaves out.
fn pull_reported(
    dst: &mut KvStore,
    src: &KvStore,
    connection: &mut Connection,
) -> (KvSyncReport, ContactReport) {
    let mut far = |ask: ContactAsk<'_>| src.open_contact(ask);
    let mut link = InProcessLink::serving(&mut connection.serving, &mut far);
    let pulled = crate::pull(dst, &mut link, &mut connection.remembered);
    let (client, plan, contact) = pulled.unwrap();
    let committed = (dst.apply_planned(&JoinResolver, client, &contact, &plan)).unwrap();
    connection.remembered.settle(&committed.landed);
    (committed.report, contact)
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
    // fresh connection per pull.
    let mut cold_dst = dst.clone();
    let mut cold_src = src.clone();
    cold_dst.sync(&cold_src).run().unwrap();
    rewrite(&mut cold_src);
    let cold = cold_dst.sync(&cold_src).run().unwrap();

    let mut warm_dst = dst;
    let mut src = src;
    let mut link = Connection::default();
    let first = warm_dst.sync(&src).over(&mut link).run().unwrap();
    rewrite(&mut src);
    let (warm, contact) = pull_reported(&mut warm_dst, &src, &mut link);
    // Every dirty shard proposed: the push is the contact — one blocking
    // round trip, the planning turn, in two link turns with the FIN, and
    // nothing pushed for nothing.
    assert_eq!((contact.round_trips, contact.link_turns), (1, 2));
    assert_eq!(contact.excess_bytes, 0);
    assert_eq!((first.shards_proposed, first.shards_refined), (0, 4));
    assert_eq!((cold.shards_proposed, cold.shards_refined), (0, 3));
    assert_eq!((warm.shards_proposed, warm.shards_refined), (3, 0));
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
    assert_eq!(warm_dst.replica_digest(), src.replica_digest());
}

/// Warm pulls at `crates/perf`'s two pull shapes — 100 000 keys of
/// 32 B with 16 dirty a pull (`sparse_pull`), 20 000 of 256 B with
/// 3 072 (`dense_pull`), both at 512 shards — over a kept connection:
/// every dirty shard is proposed, and the pull is the planning turn's
/// one round trip, in two link turns with the FIN.
#[test]
fn warm_pulls_at_the_benchmark_shapes_take_two_turns() {
    for (keys, len, dirty) in [(100_000, 32, 16), (20_000, 256, 3_072)] {
        let mut src = KvStore::with_shards(s(1), 512);
        for i in 0..keys {
            src.put(format!("key-{i:06}"), vec![b'v'; len]);
        }
        let mut dst = KvStore::with_shards(s(0), 512);
        let mut link = Connection::default();
        dst.sync(&src).over(&mut link).run().unwrap();
        let stride = keys / dirty;
        for i in (0..keys).step_by(stride).take(dirty) {
            src.put(format!("key-{i:06}"), vec![b'w'; len]);
        }
        let (warm, contact) = pull_reported(&mut dst, &src, &mut link);
        let at = format!("{keys} keys, {dirty} dirty");
        assert_eq!(warm.shards_proposed, warm.shards_incremental, "{at}");
        assert_eq!(warm.keys_fast_forwarded, dirty, "{at}");
        assert_eq!((contact.round_trips, contact.link_turns), (1, 2), "{at}");
        assert_eq!(contact.excess_bytes, 0, "{at}");
        assert_eq!(dst.replica_digest(), src.replica_digest(), "{at}");
    }
}

/// A connection kept by one pair and handed to another is emptied
/// before the other pair's pull, which is then a fresh dial's: the whole
/// vector, nothing proposed — not a delta against the first puller's
/// vector, answered from the generation the source planned it at.
#[test]
fn a_connection_handed_to_another_pair_starts_afresh() {
    let mut src = KvStore::with_shards(s(1), 4);
    for i in 0..64 {
        src.put(format!("key-{i:05}"), "v");
    }
    let (mut dst, mut other) = (KvStore::with_shards(s(0), 4), KvStore::with_shards(s(2), 4));
    dst.sync(&src).run().unwrap();
    other.sync(&src).run().unwrap();
    let mut link = Connection::default();
    dst.sync(&src).over(&mut link).run().unwrap();
    src.put("key-00007", "moved on");
    other.put("key-00420", "mine");
    let fresh = other.clone().sync(&src).run().unwrap();
    let handed = other.sync(&src).over(&mut link).run().unwrap();
    assert_eq!((fresh.digests_sent, fresh.shards_proposed), (4, 0));
    assert_eq!(handed, fresh);
}

#[test]
fn an_overflowed_journal_is_planned_from_digests_alone_and_a_rewritten_shard_pushed() {
    // The journal evicted past the connection's last plan: the
    // second pull is the one a fresh link would make.
    let (mut dst, mut src) = pair_with_dirty_shards(64 * 40, 2);
    let [_, second] = pull_twice(&mut dst, &mut src, |_, src| {
        for round in 0..=JOURNAL_CAP / 64 {
            for i in 0..64 {
                src.put(format!("key-{i:05}"), format!("round {round}"));
            }
        }
    });
    assert_eq!(second.shards_proposed, 0);
    assert_eq!(second.keys_fast_forwarded, 64);
    assert_eq!(dst.replica_digest(), src.replica_digest());
    // Every key of every shard changed: a pushed key costs half of one
    // walked, hello and answer, so even then each shard is proposed.
    let (mut dst, mut src) = pair_with_dirty_shards(64 * 8, 2);
    let [_, second] = pull_twice(&mut dst, &mut src, |_, src| {
        for i in 0..64 * 8 {
            src.put(format!("key-{i:05}"), "rewritten");
        }
    });
    assert_eq!(second.shards_proposed, 64);
    assert_eq!(second.keys_fast_forwarded, 64 * 8);
    assert_eq!(dst.replica_digest(), src.replica_digest());
}

/// A proposed shard is named by its push alone, so every shard a plan
/// proposes pushes a record: one whose only change is a tombstone, and
/// one whose only change rewrites the value a key already held, too.
#[test]
fn every_proposed_shard_pushes_a_record() {
    let mut src = KvStore::with_shards(s(1), 16);
    for i in 0..400 {
        src.put(format!("key-{i:03}"), format!("v{i}"));
    }
    let mut dst = KvStore::with_shards(s(0), 16);
    let shard = |key: &[u8]| shard_index(key, 16) as u64;
    let deleted = "key-007";
    let rewritten = (0..400)
        .map(|i| format!("key-{i:03}"))
        .find(|key| shard(key.as_bytes()) != shard(deleted.as_bytes()))
        .expect("400 keys over 16 shards");
    let [_, second] = pull_twice(&mut dst, &mut src, |dst, src| {
        let since = src.generation();
        src.delete(deleted);
        let held = src.get(&rewritten).expect("held").to_vec();
        src.put(rewritten.clone(), held);
        let (plan, _, pushed) = src.plan_from(&dst.shard_digest_vector(), Some(since));
        // One record a proposed shard: the tombstone, the rewrite.
        let pushed = keys_of(&pushed);
        let mut named: Vec<(u64, &[u8])> = (pushed.iter())
            .map(|key| (shard(key.as_bytes()), key.as_bytes()))
            .collect();
        named.sort_unstable();
        let mut expected = [deleted.as_bytes(), rewritten.as_bytes()].map(|key| (shard(key), key));
        expected.sort_unstable();
        assert_eq!(named, expected);
        assert_eq!(plan.proposed, expected.map(|(shard, _)| shard));
        assert_eq!(plan.incremental, plan.proposed);
    });
    assert_eq!((second.shards_proposed, second.shards_incremental), (2, 2));
    assert_eq!(second.keys_examined, 2);
    assert_eq!(dst.get(deleted), None);
    assert_eq!(dst.replica_digest(), src.replica_digest());
}

/// A journal that files a change under a placement no key of its shard
/// holds — the shard's sums come out, the push would be empty — gets
/// the shard walked, not proposed: a proposed shard is named by its
/// push, and an empty push names none.
#[test]
fn a_shard_its_push_would_leave_empty_is_walked() {
    let mut src = KvStore::with_shards(s(1), 16);
    for i in 0..400 {
        src.put(format!("key-{i:03}"), format!("v{i}"));
    }
    let mut dst = KvStore::with_shards(s(0), 16);
    let created = "created";
    let shard = shard_index(created.as_bytes(), 16) as u64;
    let [_, second] = pull_twice(&mut dst, &mut src, |dst, src| {
        let since = src.generation();
        src.put(created, "new");
        // Filed under the key's shard, at a placement no key holds.
        let elsewhere = placement(created.as_bytes()) ^ 1 << 20;
        assert!(src
            .iter_entries()
            .all(|(key, _)| placement(key.as_bytes()) != elsewhere));
        let last = src.journal.entries_mut().back_mut().expect("journalled");
        *last = last.misplaced(elsewhere);
        let (plan, _, pushed) = src.plan_from(&dst.shard_digest_vector(), Some(since));
        assert!(pushed.is_empty());
        assert_eq!((plan.incremental, plan.proposed), (vec![shard], vec![]));
    });
    assert_eq!((second.shards_proposed, second.shards_incremental), (0, 1));
    assert_eq!(dst.get(created), Some(&b"new"[..]));
    assert_eq!(dst.replica_digest(), src.replica_digest());
}

/// The model: whatever the source's journal claims — entries lost,
/// entries for keys that never changed, a floor that says complete when
/// it is not, changes filed wrong — and whatever the puller did
/// meanwhile, a warm planned pull ends where an unplanned pull ends,
/// and every shard the source proposes is one the puller holds, outside
/// the keys it pushes, as the source does: no key there differs. A
/// wrong journal costs proposals, never convergence.
#[test]
fn a_wrong_journal_costs_proposals_never_convergence() {
    let mut rng = SplitMix64::new(0x0000_10E5_0FA1_1E50);
    // Proposals made, by lie: none, lost, stale, floor, misfiled.
    let mut proposed = [0usize; 5];
    for case in 0..60u64 {
        let pull_shards = [4, 16, 64][(case % 3) as usize];
        let serve_shards = [1, 16, 256][(case / 3 % 3) as usize];
        let lie = (case % 5) as usize;
        let keys = 400 + (rng.next_u64() % 1200) as usize;
        let pick = |rng: &mut SplitMix64| format!("k{:04}", rng.next_u64() % keys as u64);
        let mut src = KvStore::with_shards(s(1), serve_shards);
        let mut dst = KvStore::with_shards(s(0), pull_shards);
        let mut third = KvStore::with_shards(s(2), 8);
        for i in 0..keys {
            src.put(format!("k{i:04}"), format!("base{i}"));
        }
        let at = format!("case {case}: {pull_shards} from {serve_shards} shards, {keys} keys");
        let mut plan_of_the_second = None;
        let mut before = None;
        let [_, second] = pull_twice(&mut dst, &mut src, |dst, src| {
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
            let journal = &mut src.journal;
            match lie {
                1 => {
                    // Entries lost.
                    let mut keep = rng.clone();
                    journal.entries_mut().retain(|_| keep.next_u64() % 3 >= 1);
                }
                2 => {
                    // Keys that never changed, listed as changed.
                    for _ in 0..1 + rng.next_u64() % 6 {
                        let stale = placement(pick(&mut rng).as_bytes());
                        journal.record(src.generation, stale, ShardDigest::default());
                    }
                }
                3 => {
                    // Evicted without the floor following.
                    let held: Vec<_> = journal.entries_mut().drain(..).collect();
                    let half = held.len() / 2;
                    let after = |entry: &_| journal.is_after(entry, since + 1);
                    let kept: Vec<_> = held.into_iter().skip(half).filter(after).collect();
                    journal.entries_mut().extend(kept);
                }
                4 => {
                    // Changes filed wrong.
                    for entry in journal.entries_mut() {
                        if rng.next_u64() & 1 == 0 {
                            *entry = entry.corrupted(rng.next_u64() | 1);
                        }
                    }
                }
                _ => {}
            }
            // What the second pull will be offered: in each proposed
            // shard, no key the push leaves out differs.
            let digests = dst.shard_digest_vector();
            let (plan, _, pushed) = src.plan_from(&digests, Some(since));
            let count = plan.count as usize;
            let pushed = keys_of(&pushed);
            let differs = |key: &str| {
                let hash = |store: &KvStore| {
                    let view = store.view(key.as_bytes());
                    view.map(|view| entry_hash(key.as_bytes(), view))
                };
                hash(dst) != hash(src)
            };
            for &shard in &plan.proposed {
                let named = |key: &String| shard_index(key.as_bytes(), count) as u64 == shard;
                assert!(
                    pushed.iter().any(named),
                    "{at}: shard {shard} pushes nothing"
                );
                let missed = (dst.iter_entries().chain(src.iter_entries()))
                    .map(|(key, _)| key)
                    .filter(|key| shard_index(key.as_bytes(), count) as u64 == shard)
                    .filter(|key| !pushed.iter().any(|pushed| pushed == key))
                    .find(|key| differs(key));
                assert_eq!(missed, None, "{at}: shard {shard}");
            }
            plan_of_the_second = Some(plan);
            let mut full = dst.clone();
            unplanned_pull(&mut full, src);
            before = Some(full.replica_digest_full());
        });
        let plan = plan_of_the_second.expect("the second pull was planned");
        assert_eq!(second.shards_proposed, plan.proposed.len(), "{at}");
        assert_eq!(Some(dst.replica_digest_full()), before, "{at}");
        assert_eq!(dst.replica_digest(), dst.replica_digest_full(), "{at}");
        proposed[lie] += second.shards_proposed;
    }
    // The honest journal proposes, and so does one listing stale keys
    // beside the true ones (their changes sum to nothing).
    assert!(
        proposed[0] > 20,
        "the cases must exercise proposals: {proposed:?}"
    );
    assert!(proposed[2] > 20, "and harmless stale hints: {proposed:?}");
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

/// Two pullers of one source, a connection each: what a connection
/// remembers — the source's `since`, the puller's last vector — is that
/// connection's alone.
#[test]
fn two_pullers_of_one_source_keep_their_links_memories_apart() {
    let (first, mut src) = pair_with_dirty_shards(64 * 195, 0);
    let (mut first, mut second) = (first.clone(), first);
    let (mut one, mut two) = (Connection::default(), Connection::default());
    // Digests sent, shards proposed, keys examined.
    let pull = |dst: &mut KvStore, src: &KvStore, link: &mut Connection| {
        let r = dst.sync(src).over(link).run().unwrap();
        (r.digests_sent, r.shards_proposed, r.keys_examined)
    };
    // Each link's first pull: nothing remembered at either end.
    assert_eq!(pull(&mut first, &src, &mut one), (64, 0, 0));
    assert_eq!(pull(&mut second, &src, &mut two), (64, 0, 0));
    // Three keys of three shards, written one at a time.
    src.put("key-00007", vec![b'x'; 32]);
    assert_eq!(pull(&mut first, &src, &mut one), (0, 1, 1));
    src.put("key-00420", vec![b'x'; 32]);
    // The second link's `since` is its own first pull: it is told both
    // keys, though the first link's pull journalled past one of them.
    assert_eq!(pull(&mut second, &src, &mut two), (0, 2, 2));
    // The first link is told only what came after its own last pull, and
    // its delta is against what it remembers of it: the shard that pull
    // moved, as served — so no shard differs.
    assert_eq!(pull(&mut first, &src, &mut one), (0, 1, 1));
    src.put("key-01234", vec![b'x'; 32]);
    assert_eq!(pull(&mut second, &src, &mut two), (0, 1, 1));
    assert_eq!(pull(&mut first, &src, &mut one), (0, 1, 1));
    assert!(first.consistent_with(&src));
    assert!(second.consistent_with(&src));
}

/// Every byte a pull moved: the planner frames and the exchange's
/// four planes.
fn contact_bytes(r: &KvSyncReport) -> usize {
    r.digest_bytes + r.meta_bytes + r.value_bytes + r.framing_bytes
}

/// A puller ahead on one key of a shard the source keeps writing holds
/// the shard as the source never held it, so the source proposes it on
/// no pull — its children are offered instead, and the pull compares the
/// two that differ — until the source has pulled the key back and the
/// puller holds what the source held at the connection's last plan.
#[test]
fn a_shard_the_puller_is_ahead_on_is_not_proposed() {
    let (mut dst, src) = pair_with_dirty_shards(64 * 195, 0);
    let shard = 5;
    let theirs: Vec<String> = (0..64 * 195)
        .map(|i| format!("key-{i:05}"))
        .filter(|key| shard_index(key.as_bytes(), 64) == shard)
        .take(4)
        .collect();
    let mut src = src;
    let mut link = Connection::default();
    // Proposed, refined, keys examined, planner bytes; and every byte.
    let mut pull = |dst: &mut KvStore, src: &KvStore| {
        let r = dst.sync(src).over(&mut link).run().unwrap();
        let pinned = (
            r.shards_proposed,
            r.shards_refined,
            r.keys_examined,
            r.digest_bytes,
        );
        (pinned, contact_bytes(&r))
    };
    // Converged: the planning turn alone, no hello.
    assert_eq!(pull(&mut dst, &src), ((0, 0, 0, 651), 651));
    dst.put(theirs[3].as_str(), "ahead");
    // The two children that differ, the source's key's and the puller's:
    // 25 and 24 keys of the shard's 195.
    for (key, pinned) in theirs[..2].iter().zip([(0, 1, 25, 188), (0, 1, 24, 188)]) {
        src.put(key.as_str(), "again");
        let (got, bytes) = pull(&mut dst, &src);
        assert_eq!(got, pinned, "{key}");
        // What refusing the proposal and walking the shard whole cost.
        assert!(bytes < REFUSED_AND_WALKED, "{key}: {bytes} B");
        assert_eq!(dst.get(key), Some(&b"again"[..]));
        assert_eq!(dst.get(&theirs[3]), Some(&b"ahead"[..]));
    }
    // The source pulls the puller's key back; the puller still holds
    // the shard as the source did not at the last plan, and is offered
    // children once more. From then on the two agree on it.
    src.sync(&dst).run().unwrap();
    src.put(theirs[2].as_str(), "again");
    assert_eq!(pull(&mut dst, &src), ((0, 1, 16, 187), 543));
    src.put(theirs[0].as_str(), "once more");
    // The key pushed: its entry, its key, vector and value, in the one
    // frame behind the plan (52 B while it crossed as a frame of its
    // name, a frame of its one element and a frame of its value).
    assert_eq!(pull(&mut dst, &src), ((1, 0, 1, 19), 48));
    assert!(dst.consistent_with(&src));
}

/// What each pull of the puller ahead cost where the source proposed
/// the shard regardless, the puller refused it and walked it whole: its
/// 195 keys compared, in every byte the contact moved.
const REFUSED_AND_WALKED: usize = 4_728;

/// A puller rebuilt at another shard count between two pulls of one
/// link: there is nothing to patch, so the full vector crosses — and the
/// source still proposes from the `since` it remembers.
#[test]
fn a_puller_resharded_between_two_pulls_sends_its_vector_whole() {
    let mut src = KvStore::with_shards(s(1), 64);
    for i in 0..64 * 195 {
        src.put(format!("key-{i:05}"), vec![b'v'; 32]);
    }
    let mut dst = KvStore::with_shards(s(0), 16);
    let [first, second] = pull_twice(&mut dst, &mut src, |dst, src| {
        for key in ["key-00007", "key-00420", "key-01234"] {
            src.put(key, vec![b'x'; 32]);
        }
        let mut wider = KvStore::with_shards(dst.site(), 64);
        for (key, view) in dst.iter_entries() {
            wider.insert_record(key.as_bytes(), view);
        }
        assert_eq!(wider, *dst);
        *dst = wider;
    });
    assert_eq!((first.shards_total, first.shards_snapshot), (16, 16));
    assert_eq!((second.shards_total, second.digests_sent), (64, 64));
    assert_eq!(second.shards_proposed, 3);
    assert_eq!((second.keys_examined, second.keys_fast_forwarded), (3, 3));
    assert_eq!(dst.shard_count(), 64);
    assert_eq!(dst.replica_digest(), src.replica_digest());
}
