use super::*;
use crate::tests::{s, unplanned_pull};
use crate::{ChunkReader, KvSyncReport};
use bytes::Bytes;
use optrep_core::error::WireError;
use optrep_core::rng::{cases, SplitMix64};
use optrep_core::RotatingVector;
use std::collections::BTreeMap;

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
                        let report = unplanned_pull(&mut b, &a);
                        pulled.keys_created += report.keys_created;
                        pulled.keys_fast_forwarded += report.keys_fast_forwarded;
                        pulled.keys_reconciled += report.keys_reconciled;
                    }
                    8 => {
                        a.sync(&b).run().unwrap();
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
                        let report = joiner.sync(store).run().unwrap();
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

/// Every tracked record, sorted by key the way the store once listed
/// them for an image or an endpoint: collected, then sorted. The
/// reference the merge is checked against.
fn sorted_by_sort(store: &KvStore) -> Vec<Record<'_>> {
    let mut all: Vec<Record<'_>> = store.records().collect();
    all.sort_unstable_by_key(|record| record.key_bytes());
    all
}

/// What a list of records is, byte for byte and in order.
fn bytes<'a>(records: impl IntoIterator<Item = Record<'a>>) -> Vec<Vec<u8>> {
    records.into_iter().map(|r| r.bytes().to_vec()).collect()
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
            let mut filtered = sorted_by_sort(&store);
            filtered.retain(|record| named(record.key_bytes()));
            let walked = store.records_in(&shards, count, |_| true);
            assert_eq!(bytes(walked), bytes(filtered), "{count} over {physical}");
        }
    }
}

/// The merge lists what the sort listed, in the same order: every
/// record once, by key, over seeded stores at 1, 16 and 512 physical
/// shards — tombstones and multi-site vectors among them, most shards
/// empty at 512, a one-key store and an empty one — and so does every
/// filtered merge a plan walks, at plan counts below, at and above the
/// physical count.
#[test]
fn the_merge_lists_what_a_sort_of_the_records_lists() {
    for physical in [1usize, 16, 512] {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(seed * 0x51ed + physical as u64);
            let mut a = KvStore::with_shards(s(0), physical);
            let mut b = KvStore::with_shards(s(1), physical);
            let keys = [0, 1, 40, 400][seed as usize % 4];
            for step in 0..keys * 2 {
                let key = format!("k{:04}", rng.next_u64() % keys.max(1));
                match rng.next_u64() % 8 {
                    0..=3 => a.put(key, format!("a{step}").into_bytes()),
                    4 => b.put(key, format!("b{step}").into_bytes()),
                    5 => a.delete(key),
                    _ => {
                        b.sync(&a).run().unwrap();
                        a.sync(&b).run().unwrap();
                    }
                }
            }
            for store in [&a, &b] {
                let at = format!("{physical} shards, seed {seed}, {keys} keys");
                let reference = sorted_by_sort(store);
                assert_eq!(reference.len(), store.tracked_entries(), "{at}");
                assert_eq!(bytes(store.sorted()), bytes(reference.clone()), "{at}");
                for count in [1usize, 4, 16, 64, 1024] {
                    let shards: Vec<u64> = (0..count as u64).filter(|s| s % 3 != 1).collect();
                    let keep = |key: &[u8]| key.last().is_some_and(|b| b % 2 == 0);
                    let mut filtered = reference.clone();
                    filtered.retain(|record| {
                        let key = record.key_bytes();
                        shards.contains(&(shard_index(key, count) as u64)) && keep(key)
                    });
                    let merged = store.records_in(&shards, count, keep);
                    assert_eq!(bytes(merged), bytes(filtered), "{at}, plan count {count}");
                }
            }
            let multi_site = a.records().any(|r| r.view().srv().len() > 1);
            let tombstones = a.tracked_entries() > a.len();
            assert!(
                keys < 40 || (multi_site && tombstones),
                "{physical} shards, seed {seed}"
            );
        }
    }
}

/// What a paged store should hold: every key's record, as its one
/// writer writes it.
#[derive(Default)]
struct Model(BTreeMap<Vec<u8>, Vec<u8>>);

impl Model {
    /// Upserts one entry into `store` and into the model; returns
    /// whether the store tracked the key before, checked against the
    /// model.
    fn put(&mut self, store: &mut KvStore, key: &str, meta: &Srv, value: Option<&[u8]>) {
        let mut record = Vec::new();
        Record::write(&mut record, key, meta, value);
        let tracked = store.insert(key, meta.clone(), value);
        let before = self.0.insert(key.as_bytes().to_vec(), record);
        assert_eq!(tracked, before.is_some(), "{key}");
    }
}

/// Pushes one entry onto `run` as a boot or a log reads it: its state
/// as [`Record::write`] writes it, the vector canonical.
fn push(run: &mut Run, key: &str, meta: &Srv, value: Option<&[u8]>) {
    let mut record = Vec::new();
    Record::write(&mut record, key, meta, value);
    let (record, rest) = Record::split_first(&record);
    assert!(rest.is_empty());
    run.push(key, record.view());
}

/// The store against the model after a step: every page within the
/// caps, keyed by its first record, its records ascending and above the
/// page's before it; each shard's summary and live count summed from the
/// model; `get` of every key and of a key just above each; `records()`,
/// every record once; `sorted()`, in key order; and the cached digest
/// against the walk.
fn check(store: &KvStore, model: &Model, at: &str) {
    let count = store.shards.len();
    let mut sums = vec![(ShardDigest::default(), 0usize); count];
    for (key, bytes) in &model.0 {
        let record = Record::split_first(bytes).0;
        let (summary, live) = &mut sums[shard_index(key, count)];
        summary.digest = summary.digest.wrapping_add(entry_hash(record));
        summary.entries += 1;
        *live += usize::from(record.view().value.is_some());
    }
    for (index, (shard, sum)) in store.shards.iter().zip(&sums).enumerate() {
        assert_eq!((shard.summary(), shard.live()), *sum, "{at}: shard {index}");
        let mut last: Option<&[u8]> = None;
        for page in &shard.pages {
            let records: Vec<Record<'_>> = page.into_iter().collect();
            let len = page.0.len();
            assert!(
                fits(records.len(), len),
                "{at}: {} records in {len} B",
                records.len()
            );
            assert_eq!(page.first_key(), records[0].key_bytes(), "{at}");
            for record in records {
                assert!(last < Some(record.key_bytes()), "{at}: keys ascend");
                last = Some(record.key_bytes());
            }
        }
    }
    for (key, bytes) in &model.0 {
        assert_eq!(
            store.record(key).map(Record::bytes),
            Some(&bytes[..]),
            "{at}"
        );
        let above = [&key[..], &b"!"[..]].concat();
        let held = model.0.get(&above).map(Vec::as_slice);
        assert_eq!(store.record(&above).map(Record::bytes), held, "{at}");
    }
    let expected = model.0.iter().map(|(key, bytes)| (&key[..], &bytes[..]));
    let walked: BTreeMap<&[u8], &[u8]> = store
        .records()
        .map(|r| (r.key_bytes(), r.bytes()))
        .collect();
    assert_eq!(
        store.records().count(),
        model.0.len(),
        "{at}: every record once"
    );
    assert!(walked.into_iter().eq(expected), "{at}: records()");
    let sorted = store.sorted().map(Record::bytes);
    assert!(
        sorted.eq(model.0.values().map(Vec::as_slice)),
        "{at}: sorted()"
    );
    assert_eq!(store.replica_digest(), store.replica_digest_full(), "{at}");
}

/// A seeded value: mostly short, some a few hundred bytes (so a page
/// closes on its bytes before its count), some longer than a page, some
/// tombstones.
fn value_of(rng: &mut SplitMix64) -> Option<Vec<u8>> {
    match rng.below(12) {
        0 | 1 => None,
        2 | 3 => Some(vec![b'm'; 300]),
        4 => Some(vec![b'l'; 4200]),
        _ => Some(vec![b'v'; rng.below(40)]),
    }
}

/// A paged shard holds what a map of records holds, after every upsert
/// of seeded schedules at 1, 16 and 512 shards: each key once in
/// ascending, then in descending order, or at random with repeats —
/// then random rewrites, among them records grown past a page, records
/// shrunk to tombstones, and records rewritten at their own length (the
/// page keeps its block: the record is overwritten where it stands).
#[test]
fn a_paged_store_holds_what_a_map_of_records_holds() {
    let (mut grown_past, mut to_tombstone, mut same_length) = (0, 0, 0);
    for shards in [1usize, 16, 512] {
        for order in ["ascending", "descending", "random"] {
            cases(4, |seed, rng| {
                let mut store = KvStore::with_shards(s(0), shards);
                let mut model = Model::default();
                let keys = rng.range(1..160);
                for step in 0..2 * keys {
                    let index = match order {
                        "ascending" if step < keys => step,
                        "descending" if step < keys => keys - 1 - step,
                        _ => rng.below(keys),
                    };
                    let key = format!("k{index:03}");
                    let mut meta = store.meta(&key).unwrap_or_default();
                    meta.record_update(s(rng.below(3) as u32));
                    let value = value_of(rng);
                    let mut block = None;
                    if let Some(old) = store.record(key.as_bytes()) {
                        let (old_len, old_live) = (old.bytes().len(), old.view().value.is_some());
                        let new_len = Record::encoded_len(&key, &meta, value.as_deref());
                        grown_past += usize::from(old_len <= PAGE_BYTES && new_len > PAGE_BYTES);
                        to_tombstone += usize::from(old_live && value.is_none());
                        if new_len == old_len {
                            same_length += 1;
                            block = Some(page_of(&store, key.as_bytes()));
                        }
                    }
                    model.put(&mut store, &key, &meta, value.as_deref());
                    if let Some(block) = block {
                        assert_eq!(page_of(&store, key.as_bytes()), block, "{key}");
                    }
                    let at = format!("{shards} shards, {order}, seed {seed}, step {step}");
                    check(&store, &model, &at);
                }
            });
        }
    }
    assert!(
        grown_past > 0 && to_tombstone > 0 && same_length > 0,
        "{grown_past} {to_tombstone} {same_length}"
    );
}

/// Where the block of the page holding `key` starts.
fn page_of(store: &KvStore, key: &[u8]) -> *const u8 {
    let shard = &store.shards[shard_index(key, store.shards.len())];
    let mut pages = shard.pages.iter();
    let page = pages.rfind(|page| page.first_key() <= key).unwrap();
    page.0.as_ptr()
}

/// Where pages split: sixteen ascending records are one page, the
/// seventeenth starts a second, thirty-two fill two; a key below the
/// first page's first key goes into that page, re-keyed, which splits in
/// halves; a record grown past a page's bytes ends up a page of its own,
/// and shrunk back to a tombstone it stays one (pages never merge). A
/// run of the same records pushed in key order fills the same pages.
#[test]
fn pages_split_where_the_caps_say() {
    let meta = {
        let mut meta = Srv::new();
        meta.record_update(s(0));
        meta
    };
    let key = |i: usize| format!("k{i:03}");
    let counts = |store: &KvStore| -> Vec<usize> {
        let pages = store.shards[0].pages.iter();
        pages.map(|page| page.into_iter().count()).collect()
    };
    let mut store = KvStore::with_shards(s(0), 1);
    let mut model = Model::default();
    for (through, pages) in [(16, vec![16]), (17, vec![16, 1]), (32, vec![16, 16])] {
        for i in model.0.len() + 1..=through {
            model.put(&mut store, &key(i), &meta, Some(b"v"));
        }
        assert_eq!(counts(&store), pages, "{through} records");
        check(&store, &model, &format!("{through} records"));

        let mut run = Run::default();
        for i in 1..=through {
            push(&mut run, &key(i), &meta, Some(b"v"));
        }
        let mut appended = KvStore::with_shards(s(0), 1);
        appended.shards[0].append(run);
        assert_eq!(counts(&appended), pages, "a run of {through} records");
        check(&appended, &model, &format!("a run of {through} records"));
    }

    model.put(&mut store, &key(0), &meta, Some(b"v"));
    assert_eq!(counts(&store), [8, 9, 16], "below the first key");
    assert_eq!(store.shards[0].pages.first().unwrap().first_key(), b"k000");
    check(&store, &model, "below the first key");

    let long = vec![b'l'; PAGE_BYTES + 1];
    model.put(&mut store, &key(20), &meta, Some(&long));
    let alone = |store: &KvStore| {
        let mut pages = store.shards[0].pages.iter();
        pages.any(|page| page.first_key() == b"k020" && page.into_iter().count() == 1)
    };
    assert!(alone(&store), "{:?}", counts(&store));
    check(&store, &model, "grown past a page");
    let pages = counts(&store).len();
    model.put(&mut store, &key(20), &meta, None);
    assert!(alone(&store) && counts(&store).len() == pages);
    check(&store, &model, "shrunk to a tombstone");
}

/// A run appended to a shard stores what upserting its records would:
/// into an empty shard it moves in whole, and into a shard that holds
/// records it is merged — keys it shares with the shard replaced.
#[test]
fn an_appended_run_stores_what_upserts_would() {
    cases(8, |seed, rng| {
        for shards in [1usize, 16, 512] {
            let mut store = KvStore::with_shards(s(0), shards);
            let mut model = Model::default();
            let meta = |rng: &mut SplitMix64| {
                let mut meta = Srv::new();
                meta.record_update(s(rng.below(3) as u32));
                meta
            };
            let filled = seed % 2 == 1;
            if filled {
                for _ in 0..rng.range(1..100) {
                    let key = format!("k{:04}", rng.below(2000));
                    let value = value_of(rng);
                    model.put(&mut store, &key, &meta(rng), value.as_deref());
                }
            }
            let mut keys: Vec<usize> = (0..rng.range(1..400)).map(|_| rng.below(2000)).collect();
            keys.sort_unstable();
            keys.dedup();
            let mut runs: Vec<Run> = (0..shards).map(|_| Run::default()).collect();
            for index in keys {
                let key = format!("k{index:04}");
                let (meta, value) = (meta(rng), value_of(rng));
                let mut record = Vec::new();
                Record::write(&mut record, &key, &meta, value.as_deref());
                model.0.insert(key.as_bytes().to_vec(), record);
                push(
                    &mut runs[shard_index(key.as_bytes(), shards)],
                    &key,
                    &meta,
                    value.as_deref(),
                );
            }
            for (shard, run) in store.shards.iter_mut().zip(runs) {
                shard.append(run);
            }
            let at = format!("seed {seed}, {shards} shards, filled {filled}");
            check(&store, &model, &at);
        }
    });
}

/// A run merged into a shard that holds records rewrites only the pages
/// its keys fall in, each filled to the caps, and the run's pages past
/// the shard's last key, behind a closed page, move in whole: the
/// untouched pages and those run pages keep their blocks.
#[test]
fn a_merged_run_rewrites_only_the_pages_its_keys_fall_in() {
    let meta = {
        let mut meta = Srv::new();
        meta.record_update(s(0));
        meta
    };
    let key = |i: usize| format!("k{i:03}");
    let mut store = KvStore::with_shards(s(0), 1);
    let mut model = Model::default();
    for i in 0..64 {
        model.put(&mut store, &key(i), &meta, Some(b"v"));
    }
    let blocks = |store: &KvStore| -> Vec<*const u8> {
        store.shards[0]
            .pages
            .iter()
            .map(|page| page.0.as_ptr())
            .collect()
    };
    let before = blocks(&store);
    assert_eq!(before.len(), 4, "four full pages");
    let mut run = Run::default();
    let mut pushed = |run: &mut Run, key: &str| {
        push(run, key, &meta, Some(b"w"));
        let mut record = Vec::new();
        Record::write(&mut record, key, &meta, Some(b"w"));
        model.0.insert(key.as_bytes().to_vec(), record);
    };
    // Between k030 and k031: the second page's. Then fifteen keys of
    // the last page again, so the run's first page ends there, and 34
    // keys past the shard's last.
    pushed(&mut run, "k0305");
    for i in (48..63).chain(100..134) {
        pushed(&mut run, &key(i));
    }
    run.seal();
    let run_blocks: Vec<*const u8> = run.pages.iter().map(|page| page.0.as_ptr()).collect();
    store.shards[0].append(run);
    check(&store, &model, "merged");
    let counts: Vec<usize> = (store.shards[0].pages.iter())
        .map(|page| page.into_iter().count())
        .collect();
    assert_eq!(counts, [16, 16, 1, 16, 16, 16, 16, 2]);
    let after = blocks(&store);
    assert_eq!(
        (after[0], after[3]),
        (before[0], before[2]),
        "untouched pages"
    );
    assert_ne!(after[1], before[1], "the second page is rewritten");
    assert_eq!(
        after[5..],
        run_blocks[1..],
        "the run's pages past the last key"
    );
}

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

/// A seeded log written by a store over `keys` keys whose first record
/// finds half of them booted: records in `order`, a key repeated inside
/// one now and then (an older state first, so the last must win),
/// tombstones, values past a page, one-key records and a record of every
/// key.
fn seeded_log(rng: &mut SplitMix64, keys: usize, order: &str) -> (Bytes, Log) {
    let key = |i: usize| format!("k{i:04}");
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
                    let model = Model(
                        (oracle.records())
                            .map(|r| (r.key_bytes().to_vec(), r.bytes().to_vec()))
                            .collect(),
                    );
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

/// `put` and `delete`, one walk of a page each, hold what a map of the
/// records their vectors say they hold: each key's vector one update at
/// the store's site past the one it held — some held vectors written by
/// other sites — over seeded schedules at 1, 16 and 512 shards, with
/// values rewritten at their own length (the page keeps its block),
/// records grown past a page and keys below the first page's first key.
#[test]
fn puts_and_deletes_hold_what_a_map_of_records_holds() {
    let (mut same_length, mut grown_past, mut below_first) = (0, 0, 0);
    for shards in [1usize, 16, 512] {
        cases(6, |seed, rng| {
            let mut store = KvStore::with_shards(s(0), shards);
            let mut model = Model::default();
            let keys = rng.range(1..200);
            for step in 0..3 * keys {
                // Descending at first, so new keys land below the first.
                let index = if step < keys {
                    keys - 1 - step
                } else {
                    rng.below(keys)
                };
                let key = format!("k{index:03}");
                let held = store.meta(&key);
                if rng.chance(0.1) {
                    // Another site's write, stored as a commit stores it.
                    let mut meta = held.unwrap_or_default();
                    meta.record_update(s(1 + rng.below(3) as u32));
                    model.put(&mut store, &key, &meta, Some(b"theirs"));
                    continue;
                }
                let value = match (held.is_some(), rng.below(4)) {
                    (true, 0) => store.get(&key).map(<[u8]>::to_vec),
                    _ => value_of(rng),
                };
                let mut meta = held.clone().unwrap_or_default();
                meta.record_update(s(0));
                let mut record = Vec::new();
                Record::write(&mut record, &key, &meta, value.as_deref());
                let shard = &store.shards[shard_index(key.as_bytes(), shards)];
                below_first += usize::from(
                    (shard.pages.first()).is_some_and(|page| key.as_bytes() < page.first_key()),
                );
                let old = store.record(key.as_bytes()).map(|r| r.bytes().len());
                grown_past += usize::from(
                    old.is_some_and(|old| old <= PAGE_BYTES) && record.len() > PAGE_BYTES,
                );
                let block = (old == Some(record.len())).then(|| page_of(&store, key.as_bytes()));
                match &value {
                    Some(value) => store.put(key.clone(), value.clone()),
                    None => store.delete(key.clone()),
                }
                if let Some(block) = block {
                    same_length += 1;
                    assert_eq!(page_of(&store, key.as_bytes()), block, "{key}");
                }
                model.0.insert(key.as_bytes().to_vec(), record);
                check(
                    &store,
                    &model,
                    &format!("{shards} shards, seed {seed}, step {step}"),
                );
            }
        });
    }
    assert!(
        same_length > 0 && grown_past > 0 && below_first > 0,
        "{same_length} {grown_past} {below_first}"
    );
}
