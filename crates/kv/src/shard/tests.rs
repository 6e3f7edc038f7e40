use super::*;
use crate::tests::s;
use crate::{JoinResolver, KvSyncReport};
use optrep_core::rng::SplitMix64;

/// `len()` and `is_empty()` read a count each shard keeps beside its
/// digest; the walk they replaced is the reference. Every way an
/// entry comes to hold or lose a value goes by here.
#[test]
fn the_live_count_equals_the_walk_after_every_step() {
    fn check(store: &KvStore, step: &str) {
        let walked = store.iter_entries().filter(|(_, e)| e.value.is_some());
        assert_eq!(store.len(), walked.count(), "{step}");
        assert_eq!(store.is_empty(), store.keys().next().is_none(), "{step}");
    }
    let (mut revived, mut snapshot_loaded) = (0, 0);
    let mut pulled = KvSyncReport::default();
    for shards in [1, 16, 512] {
        for seed in 0..6u64 {
            let mut rng = SplitMix64::new(seed * 0x9e37 + shards as u64);
            let mut a = KvStore::with_shards(s(0), shards);
            let mut b = KvStore::with_shards(s(1), shards);
            for step in 0..160 {
                let key = format!("k{:02}", rng.next_u64() % 24);
                let op = rng.next_u64() % 12;
                let step = format!("{shards} shards, seed {seed}, step {step}, op {op}");
                let store = if rng.next_u64() & 1 == 0 {
                    &mut a
                } else {
                    &mut b
                };
                match op {
                    0..=3 => {
                        let tombstone = store.meta(&key).is_some() && store.get(&key).is_none();
                        revived += usize::from(tombstone);
                        store.put(key, format!("v{step}").into_bytes());
                    }
                    4..=6 => store.delete(key),
                    7 => {
                        let report = b.sync(&a).run().unwrap();
                        pulled.keys_created += report.keys_created;
                        pulled.keys_fast_forwarded += report.keys_fast_forwarded;
                        pulled.keys_reconciled += report.keys_reconciled;
                    }
                    8 => {
                        a.sync_planned(&b, &JoinResolver).unwrap();
                    }
                    9 => {
                        // A checkpoint reloaded (at the environment's
                        // shard count, like a daemon's).
                        *store = KvStore::decode_snapshot(&mut store.encode_snapshot()).unwrap();
                    }
                    10 => {
                        // A log of `a`'s post-states replayed over `b`.
                        for (key, _) in a.entries_sorted() {
                            let mut record = a.encode_entry(key).unwrap();
                            b.apply_encoded_entry(key, &mut record).unwrap();
                            check(&b, &step);
                        }
                    }
                    _ => {
                        // A joiner bulk-loads whole shards.
                        let mut joiner = KvStore::with_shards(s(2), shards);
                        let (report, _) = joiner.sync_planned(store, &JoinResolver).unwrap();
                        snapshot_loaded += report.shards_snapshot;
                        assert_eq!(joiner.len(), store.len(), "{step}");
                        check(&joiner, &step);
                    }
                }
                check(&a, &step);
                check(&b, &step);
            }
        }
    }
    assert!(revived > 0 && snapshot_loaded > 0, "every path was taken");
    assert!(
        pulled.keys_created > 0 && pulled.keys_fast_forwarded > 0 && pulled.keys_reconciled > 0,
        "{pulled:?}"
    );
}

#[test]
fn shard_walks_visit_exactly_what_a_whole_store_filter_keeps() {
    for physical in [1usize, 8, 64] {
        let mut store = KvStore::with_shards(s(0), physical);
        for i in 0..300 {
            store.put(format!("key-{i}"), format!("v{i}"));
        }
        store.delete("key-42");
        for count in [1usize, 4, 8, 32, 256] {
            // Every other shard, plus one index past the map.
            let shards: Vec<u64> = (0..count as u64).step_by(2).chain([count as u64]).collect();
            let named = |key: &[u8]| shards.contains(&(shard_index(key, count) as u64));
            let mut filtered = store.records_sorted();
            filtered.retain(|record| named(record.key_bytes()));
            let walked = store.records_in(&shards, count, |_| true);
            let bytes = |records: Vec<&Record>| -> Vec<Vec<u8>> {
                records.iter().map(|r| r.bytes().to_vec()).collect()
            };
            assert_eq!(bytes(walked), bytes(filtered), "{count} over {physical}");
        }
    }
}
