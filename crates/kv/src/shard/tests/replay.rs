//! A log replayed record by record against the same log replayed key
//! by key and by the oracle.

use super::*;
use crate::ChunkReader;
use bytes::Bytes;
use optrep_core::error::WireError;

/// A log, record by record: each record's `(key, entry)` pairs.
type Log = Vec<Vec<(String, Bytes)>>;

/// Replays `record` as a store once did, the test oracle: each entry's
/// vector decoded and written back into its page, a generation bump an
/// entry.
fn replay_by_the_oracle(store: &mut KvStore, record: &[(String, Bytes)]) {
    for (key, entry) in record {
        let (meta, value) = crate::codec::decode_state(&mut entry.clone()).unwrap();
        let idx = shard_index(key.as_bytes(), store.shards.len());
        let before = store.shards[idx].summary();
        store.shards[idx].write(key, meta, value.as_deref());
        let change = store.shards[idx].summary() - before;
        store.touch(key.as_bytes(), Some(change));
    }
}

/// A seeded log written by a store over `keys` keys of every shape
/// ([`shaped_keys`]) whose first record finds half of them booted:
/// records in `order`, a key repeated inside one now and then (an older
/// state first, so the last must win),
/// tombstones, values past a page, one-key records and a record of every
/// key.
fn seeded_log(rng: &mut SplitMix64, keys: usize, order: &str) -> (Bytes, Log) {
    let universe = shaped_keys(keys / 7 + 1);
    let key = |i: usize| universe[i].clone();
    let mut source = KvStore::with_shards(s(0), 16);
    let mut peer = KvStore::with_shards(s(1), 16);
    for i in keys / 4..keys / 4 + keys / 2 {
        source.put(key(i), vec![b'b'; rng.below(40)]);
    }
    let base = source.encode_snapshot();
    let mut logged: BTreeMap<String, Bytes> = BTreeMap::new();
    let mut log = Log::new();
    for _ in 0..8 {
        for _ in 0..rng.below(keys) {
            let k = key(rng.below(keys));
            match (value_of(rng), rng.below(8)) {
                (_, 0) => peer.put(k, vec![b'p'; rng.below(20)]),
                (_, 1) => {
                    source.sync(&peer).run().unwrap();
                }
                (Some(value), _) => source.put(k, value),
                (None, _) => source.delete(k),
            }
        }
        let mut indices: Vec<usize> = match rng.below(4) {
            0 => vec![rng.below(keys)],
            1 => (0..keys).collect(),
            _ => (0..keys).filter(|_| rng.chance(0.3)).collect(),
        };
        match order {
            "ascending" => {}
            "descending" => indices.reverse(),
            _ => rng.shuffle(&mut indices),
        }
        let mut record = Vec::new();
        for i in indices {
            let Some(entry) = source.encode_entry(&key(i)) else {
                continue;
            };
            if rng.chance(0.05) {
                if let Some(older) = logged.get(&key(i)) {
                    record.push((key(i), older.clone()));
                }
            }
            logged.insert(key(i), entry.clone());
            record.push((key(i), entry));
        }
        log.push(record);
    }
    (base, log)
}

/// The journal's entries — placements and what each change did to its
/// shard — at the generations a log's records ended at.
fn journal_at(store: &KvStore, generations: &[u64]) -> Vec<Option<Vec<(u64, ShardDigest)>>> {
    let listed = |at: u64| store.journal.changed_since(at).map(Iterator::collect);
    generations.iter().map(|&at| listed(at)).collect()
}

/// Replaying a log record by record — each record one image, merged
/// into each shard once — leaves what replaying it key by key leaves,
/// and what the oracle leaves: equal stores and snapshots, digests in
/// step with the walk, the same generation and the same journal, every
/// page within the caps — over booted stores at 1, 16 and 512 shards.
/// A record lists its keys ascending, each once, as `Persist::append`
/// logs them: the last state listed of a key. Listed otherwise — keys
/// descending or at random, a key twice — it is refused, the store
/// untouched.
#[test]
fn a_log_replayed_by_record_is_the_log_replayed_key_by_key() {
    let mut refused = 0;
    for shards in [1usize, 16, 512] {
        for order in ["ascending", "descending", "random"] {
            cases(3, |seed, rng| {
                let keys = rng.range(1..300);
                let (base, log) = seeded_log(rng, keys, order);
                let boot = || {
                    let mut reader = ChunkReader::one(base.clone());
                    KvStore::read_snapshot_at(&mut reader, |_| {}, shards).unwrap()
                };
                let (mut oracle, mut by_record, mut by_key) = (boot(), boot(), boot());
                let mut ends = vec![0];
                for (at, listed) in log.iter().enumerate() {
                    let at = format!("{shards} shards, {order}, seed {seed}, record {at}");
                    let record: BTreeMap<&String, &Bytes> =
                        listed.iter().map(|(k, e)| (k, e)).collect();
                    let record: Vec<(String, Bytes)> = (record.into_iter())
                        .map(|(k, e)| (k.clone(), e.clone()))
                        .collect();
                    let pairs = |record: &[(String, Bytes)]| {
                        let pairs = record.iter().map(|(k, e)| (k.as_bytes(), &e[..]));
                        crate::codec::image_as_listed(pairs)
                    };
                    if *listed != record {
                        let before = by_record.clone();
                        let image = pairs(listed);
                        assert_eq!(
                            by_record.apply_image(&image),
                            Err(WireError::InvalidPayload)
                        );
                        assert!(by_record == before, "{at}");
                        assert_eq!(by_record.generation(), before.generation(), "{at}");
                        refused += 1;
                    }
                    replay_by_the_oracle(&mut oracle, &record);
                    by_record.apply_image(&pairs(&record)).unwrap();
                    for (key, entry) in &record {
                        by_key.apply_encoded_entry(key, &mut entry.clone()).unwrap();
                    }
                    ends.push(oracle.generation());
                    let model = Model::of(&oracle);
                    for replayed in [&by_record, &by_key] {
                        assert!(*replayed == oracle, "{at}");
                        assert_eq!(replayed.encode_snapshot(), oracle.encode_snapshot(), "{at}");
                        assert_eq!(replayed.replica_digest(), oracle.replica_digest(), "{at}");
                        assert_eq!(replayed.generation(), oracle.generation(), "{at}");
                        assert_eq!(journal_at(replayed, &ends), journal_at(&oracle, &ends));
                        check(replayed, &model, &at);
                    }
                }
            });
        }
    }
    assert!(refused > 0, "no record was listed out of order");
}
