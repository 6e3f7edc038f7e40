use super::*;
use crate::tests::{s, unplanned_pull};
use crate::{KvStore, KvSyncReport};
use optrep_core::rng::{cases, SplitMix64};
use std::collections::BTreeMap;

mod replay;

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
                            let mut record = a.encode_entry(&key).unwrap();
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
fn sorted_by_sort(store: &KvStore) -> Vec<(Vec<u8>, View<'_>)> {
    let mut all: Vec<(Vec<u8>, View<'_>)> = (store.iter_entries())
        .map(|(key, view)| (key.into_bytes(), view))
        .collect();
    all.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
    all
}

/// What a cursor lists, each key copied out, in order.
fn listed<'a>(mut cursor: impl Cursor<'a>) -> Vec<(Vec<u8>, View<'a>)> {
    let mut listed = Vec::new();
    while cursor.step() {
        listed.push((cursor.key().to_vec(), cursor.view()));
    }
    listed
}

/// What a collected list of records is, its keys as vectors.
fn collected(records: Vec<(bytes::Bytes, View<'_>)>) -> Vec<(Vec<u8>, View<'_>)> {
    (records.into_iter())
        .map(|(key, view)| (key.to_vec(), view))
        .collect()
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
            filtered.retain(|(key, _)| named(key));
            let walked = store.records_in(&shards, count, |_| true);
            assert_eq!(collected(walked), filtered, "{count} over {physical}");
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
                assert_eq!(listed(store.sorted()), reference, "{at}");
                for count in [1usize, 4, 16, 64, 1024] {
                    let shards: Vec<u64> = (0..count as u64).filter(|s| s % 3 != 1).collect();
                    let keep = |key: &[u8]| key.last().is_some_and(|b| b % 2 == 0);
                    let mut filtered = reference.clone();
                    filtered.retain(|(key, _)| {
                        shards.contains(&(shard_index(key, count) as u64)) && keep(key)
                    });
                    let merged = collected(store.records_in(&shards, count, keep));
                    assert_eq!(merged, filtered, "{at}, plan count {count}");
                }
            }
            let multi_site = a.iter_entries().any(|(_, view)| view.srv().len() > 1);
            let tombstones = a.tracked_entries() > a.len();
            assert!(
                keys < 40 || (multi_site && tombstones),
                "{physical} shards, seed {seed}"
            );
        }
    }
}

/// A key's state as the model holds it: its vector's snapshot and its
/// value.
type State = (Vec<u8>, Option<Vec<u8>>);

/// What a paged store should hold: every key's state.
#[derive(Default)]
struct Model(BTreeMap<Vec<u8>, State>);

/// `state` as a store's walks lend it.
fn view(state: &State) -> View<'_> {
    View {
        meta: &state.0,
        value: state.1.as_deref(),
    }
}

/// The state of `meta` and `value`.
fn state(meta: &Srv, value: Option<&[u8]>) -> State {
    (meta.encode_snapshot().to_vec(), value.map(<[u8]>::to_vec))
}

impl Model {
    /// Every entry `store` holds.
    fn of(store: &KvStore) -> Self {
        let mut model = Model::default();
        store.all(|key, view| {
            let state = (view.meta.to_vec(), view.value.map(<[u8]>::to_vec));
            model.0.insert(key.to_vec(), state);
            true
        });
        model
    }

    /// Upserts one entry into `store` and into the model; returns
    /// whether the store tracked the key before, checked against the
    /// model. The write is watched ([`Watch`]).
    fn put(&mut self, store: &mut KvStore, key: &str, meta: &Srv, value: Option<&[u8]>) {
        let watch = Watch::before(store, key.as_bytes());
        let tracked = store.insert(key, meta.clone(), value);
        watch.after(store);
        let before = self.0.insert(key.as_bytes().to_vec(), state(meta, value));
        assert_eq!(tracked, before.is_some(), "{key}");
    }
}

/// Pushes one entry onto `run` as a boot or a log reads it: its vector's
/// snapshot as its encoder writes it.
fn push(run: &mut Run, key: &str, meta: &Srv, value: Option<&[u8]>) {
    let mut snapshot = crate::record::Key::default();
    run.push(key, View::written(meta, value, &mut snapshot));
}

/// The records of a page, each key copied out.
fn page_records(slot: &Slot) -> Vec<(Vec<u8>, View<'_>)> {
    listed(Records::of(std::slice::from_ref(slot)))
}

/// The store against the model after a step: every page within the
/// caps, keyed by its first record, its records ascending and above the
/// page's before it, and coded as its writer codes them — its first key
/// and vector whole, each key after them sharing the longest prefix it
/// can with the key before, each vector written only where it is not the
/// one before — each shard's summary and live count summed from the
/// model; `get` of every key and of a key just above each; a walk of
/// every record once; `sorted()`, in key order; and the cached digest
/// against the walk.
fn check(store: &KvStore, model: &Model, at: &str) {
    let count = store.shards.len();
    let mut sums = vec![(ShardDigest::default(), 0usize); count];
    for (key, state) in &model.0 {
        let (summary, live) = &mut sums[shard_index(key, count)];
        summary.digest = summary.digest.wrapping_add(entry_hash(key, view(state)));
        summary.entries += 1;
        *live += usize::from(state.1.is_some());
    }
    for (index, (shard, sum)) in store.shards.iter().zip(&sums).enumerate() {
        assert_eq!((shard.summary(), shard.live()), *sum, "{at}: shard {index}");
        let mut last: Option<Vec<u8>> = None;
        for slot in &shard.pages {
            let records = page_records(slot);
            let len = slot.0.len();
            assert!(
                fits(records.len(), len),
                "{at}: {} records in {len} B",
                records.len()
            );
            assert_eq!(slot.first_key(), &records[0].0[..], "{at}");
            assert_eq!(slot.prefix, prefix(&records[0].0), "{at}");
            let mut open = Open::default();
            for (key, view) in &records {
                assert!(last.as_ref() < Some(key), "{at}: keys ascend");
                last = Some(key.clone());
                let coded = open.coded(key, *view);
                open.put(coded);
            }
            assert!(
                open.buf[..] == slot.0[..],
                "{at}: a page as its writer codes it"
            );
        }
    }
    for (key, state) in &model.0 {
        assert_eq!(store.view(key), Some(view(state)), "{at}");
        let above = [&key[..], &b"!"[..]].concat();
        let held = model.0.get(&above).map(view);
        assert_eq!(store.view(&above), held, "{at}");
    }
    let mut walked = BTreeMap::new();
    store.all(|key, view| walked.insert(key.to_vec(), view).is_none());
    assert_eq!(walked.len(), model.0.len(), "{at}: every record once");
    let expected = model
        .0
        .iter()
        .map(|(key, state)| (key.clone(), view(state)));
    assert!(
        walked.into_iter().eq(expected.clone()),
        "{at}: every record"
    );
    assert!(
        listed(store.sorted()).into_iter().eq(expected),
        "{at}: sorted()"
    );
    assert_eq!(store.replica_digest(), store.replica_digest_full(), "{at}");
}

/// A write of one key watched: the page it falls in before and after.
/// A write re-encodes at most the key's record and the one after it, so
/// where the page is not split or left behind, the bytes before the
/// key's record and those after the record after it are the page's
/// before; and a write to a held key whose page keeps its length is
/// written where it stands, so the page keeps its block.
struct Watch {
    key: Vec<u8>,
    page: Option<Before>,
}

/// The page a watched write falls in, before it.
struct Before {
    block: *const u8,
    bytes: Vec<u8>,
    records: usize,
    /// Whether it holds the key.
    held: bool,
    /// Where the records the write may re-encode start and end.
    start: usize,
    end: usize,
}

/// The page of `store` that holds `key`, or that it would go in.
fn page_at<'s>(store: &'s KvStore, key: &[u8]) -> Option<&'s Slot> {
    let shard = &store.shards[shard_index(key, store.shards.len())];
    Some(&shard.pages[shard.page_of(key)?])
}

impl Watch {
    fn before(store: &KvStore, key: &[u8]) -> Self {
        let page = page_at(store, key).map(|slot| {
            let bytes = slot.0.to_vec();
            let (mut rest, mut last, mut records) = (&bytes[..], Vec::new(), 0);
            let (mut start, mut end, mut held) = (None, bytes.len(), false);
            while !rest.is_empty() {
                let at = bytes.len() - rest.len();
                let (coded, after) = Coded::split_first(rest);
                last.truncate(coded.shared);
                last.extend_from_slice(coded.rest);
                records += 1;
                rest = after;
                match start {
                    None if &last[..] >= key => {
                        start = Some(at);
                        held = last == key;
                        end = bytes.len() - rest.len();
                    }
                    // The record after the key's own.
                    Some(_) if held && end == at => end = bytes.len() - rest.len(),
                    _ => {}
                }
            }
            Before {
                block: slot.0.as_ptr(),
                start: start.unwrap_or(bytes.len()),
                bytes,
                records,
                held,
                end,
            }
        });
        Watch {
            key: key.to_vec(),
            page,
        }
    }

    fn after(self, store: &KvStore) {
        let Some(Before {
            block,
            bytes: old,
            records,
            held,
            start,
            end,
        }) = self.page
        else {
            return;
        };
        let slot = page_at(store, &self.key).expect("a page holds the key");
        if page_records(slot).len() != records + usize::from(!held) {
            return;
        }
        let new = &slot.0[..];
        assert_eq!(new[..start], old[..start], "the records before the key's");
        let tail = old.len() - end;
        assert!(new.len() >= tail + start, "the records after");
        assert_eq!(new[new.len() - tail..], old[end..], "the records after");
        if held && new.len() == old.len() {
            assert_eq!(slot.0.as_ptr(), block, "a write in place keeps the block");
        }
    }
}

/// Keys of every shape a key head and a shared prefix take, sorted: the
/// empty key; short keys; keys that extend the key before them; rests of
/// 6, 7 and 8 bytes (the key head's escape); keys of 127 and 128 bytes
/// sharing 124 and 125 bytes with their neighbours; multi-byte UTF-8,
/// where a shared prefix may split a character.
fn shaped_keys(n: usize) -> Vec<String> {
    let mut keys = vec![String::new()];
    for i in 0..n {
        keys.push(format!("k{i:03}"));
        keys.push(format!("k{i:03}x"));
        keys.push(format!("k{i:03}{}", "y".repeat(6 + i % 3)));
        keys.push(format!("{}{i:03}", "p".repeat(124)));
        keys.push(format!("{}{i:03}", "q".repeat(125)));
        keys.push(format!("ключ-{i:03}-鍵"));
        keys.push(format!("ключ-{i:03}-л"));
    }
    keys.sort_unstable();
    keys
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

/// How many of a store's records write their vector out, and how many
/// repeat the one before theirs.
fn vectors(store: &KvStore) -> (usize, usize) {
    let (mut written, mut repeated) = (0, 0);
    for shard in &store.shards {
        for slot in &shard.pages {
            let mut rest = &slot.0[..];
            while !rest.is_empty() {
                let (coded, after) = Coded::split_first(rest);
                match coded.vector {
                    Some(_) => written += 1,
                    None => repeated += 1,
                }
                rest = after;
            }
        }
    }
    (written, repeated)
}

/// A paged shard holds what a map of records holds, after every upsert
/// of seeded schedules at 1, 16 and 512 shards over keys of every shape
/// ([`shaped_keys`]): each key once in ascending, then in descending
/// order, or at random with repeats — then random rewrites, among them
/// records grown past a page and records shrunk to tombstones — each
/// written at one of two sites, first writes mostly at one, so that
/// neighbours' vectors are now equal, now not. Every write is watched
/// ([`Watch`]).
#[test]
fn a_paged_store_holds_what_a_map_of_records_holds() {
    let keys = shaped_keys(24);
    let (mut grown_past, mut to_tombstone, mut in_place) = (0, 0, 0);
    let (mut written, mut repeated) = (0, 0);
    for shards in [1usize, 16, 512] {
        for order in ["ascending", "descending", "random"] {
            cases(4, |seed, rng| {
                let mut store = KvStore::with_shards(s(0), shards);
                let mut model = Model::default();
                let n = rng.range(1..keys.len());
                for step in 0..2 * n {
                    let index = match order {
                        "ascending" if step < n => step,
                        "descending" if step < n => n - 1 - step,
                        _ => rng.below(n),
                    };
                    let key = &keys[index];
                    let mut meta = store.meta(key).unwrap_or_default();
                    meta.record_update(s(u32::from(rng.chance(0.2))));
                    let value = value_of(rng);
                    if let Some(old) = store.view(key.as_bytes()) {
                        let len = |state| Coded::of(key.as_bytes(), state, None).len();
                        let mut snapshot = crate::record::Key::default();
                        let new = View::written(&meta, value.as_deref(), &mut snapshot);
                        grown_past += usize::from(len(old) <= PAGE_BYTES && len(new) > PAGE_BYTES);
                        to_tombstone += usize::from(old.value.is_some() && value.is_none());
                        let page = page_at(&store, key.as_bytes()).unwrap().0.len();
                        in_place += usize::from(len(old) == len(new) && page <= PAGE_BYTES);
                    }
                    model.put(&mut store, key, &meta, value.as_deref());
                    let at = format!("{shards} shards, {order}, seed {seed}, step {step}");
                    check(&store, &model, &at);
                }
                let (w, r) = vectors(&store);
                (written, repeated) = (written + w, repeated + r);
            });
        }
    }
    assert!(
        grown_past > 0 && to_tombstone > 0 && in_place > 0,
        "{grown_past} {to_tombstone} {in_place}"
    );
    assert!(written > 100 && repeated > 100, "{written} {repeated}");
}

/// A vector and a value, written once at site 0: `[1, 0, 4]`.
fn once() -> Srv {
    let mut meta = Srv::new();
    meta.record_update(s(0));
    meta
}

/// Sixteen keys written once at one site, each with a 32-byte value, are
/// one page of 570 B: the first key and the vector whole (44 B: 1 + 6 +
/// 1 + 4 + 32), then each key as its key head, the rest it does not share
/// with the key before, a state head and the value — the vector left
/// out (1 + 1 + 1 + 32 B a key, one more where the rest is two digits).
/// Written apart, each whole behind a length, their records were 45 B
/// each, 720 B a page.
#[test]
fn a_page_of_sixteen_write_once_keys_holds_its_vector_once() {
    let mut store = KvStore::with_shards(s(0), 1);
    let value = [b'v'; 32];
    for i in 0..16 {
        store.put(format!("key-{i:02}"), value.to_vec());
    }
    let pages = &store.shards[0].pages;
    assert_eq!(pages.len(), 1);
    let mut written = Vec::new();
    // "key-00": shared 0, rest 6; a 32-byte value; the vector [1, 0, 4].
    written.extend_from_slice(&[6, b'k', b'e', b'y', b'-', b'0', b'0', 33 << 1, 3, 1, 0, 4]);
    written.extend_from_slice(&value);
    for i in 1..16u8 {
        // Shared 4 ("key-") or 5, the rest one or two digits; the vector
        // the one before.
        let digits = format!("{i:02}").into_bytes();
        let shared = if i % 10 == 0 { 4 } else { 5 };
        let rest = &digits[shared - 4..];
        written.push((shared as u8) << 3 | rest.len() as u8);
        written.extend_from_slice(rest);
        written.push(33 << 1 | 1);
        written.extend_from_slice(&value);
    }
    assert_eq!(written.len(), 44 + 14 * 35 + 36);
    assert_eq!(pages[0].0[..], written[..]);
    assert_eq!(once().encode_snapshot()[..], [1, 0, 4]);
}

/// A put that changes one key's vector re-encodes that record and the
/// one after it, and no other: its own vector is written out, and the
/// record after it, which repeated the vector the key held, now writes
/// that vector out — the page is rewritten, three bytes longer a vector,
/// its other records copied. Put back where both were the one vector, the
/// page is as it was.
#[test]
fn a_put_changing_one_vector_re_encodes_that_record_and_the_next() {
    let mut store = KvStore::with_shards(s(0), 1);
    let mut model = Model::default();
    let keys = shaped_keys(2);
    for key in &keys[..12] {
        model.put(&mut store, key, &once(), Some(b"v"));
    }
    check(&store, &model, "written once");
    let before = store.shards[0].pages[0].0.to_vec();
    let key = &keys[5];
    let mut twice = once();
    twice.record_update(s(0));
    // `Watch` asserts the bytes before the key's record and after the
    // record after it are the page's before.
    model.put(&mut store, key, &twice, Some(b"v"));
    check(&store, &model, "one vector changed");
    let after = store.shards[0].pages[0].0.to_vec();
    // Its vector written out (3 B and its length) and the next's (as
    // much again).
    assert_eq!(after.len(), before.len() + 2 * 4);
    let records = page_records(&store.shards[0].pages[0]);
    let coded: Vec<bool> = {
        let mut rest = &after[..];
        let mut written = Vec::new();
        while !rest.is_empty() {
            let (coded, next) = Coded::split_first(rest);
            written.push(coded.vector.is_some());
            rest = next;
        }
        written
    };
    assert_eq!(records.len(), 12);
    let expected: Vec<bool> = (0..12).map(|i| i == 0 || i == 5 || i == 6).collect();
    assert_eq!(coded, expected);
    model.put(&mut store, key, &once(), Some(b"v"));
    check(&store, &model, "put back");
    assert_eq!(store.shards[0].pages[0].0[..], before[..]);
}

/// A rewrite of a held key at its own length that changes neither its
/// record's length nor the record after it — a value of the same length,
/// the vector one more update at the same site, or the same vector — is
/// written where it stands: the page keeps its block, and every other
/// byte of it.
#[test]
fn a_same_length_rewrite_that_changes_neither_stays_in_the_pages_block() {
    let mut store = KvStore::with_shards(s(0), 1);
    let mut model = Model::default();
    let keys = shaped_keys(2);
    for (i, key) in keys[..12].iter().enumerate() {
        // Every other key written twice: no two neighbours share a vector.
        let mut meta = once();
        if i % 2 == 1 {
            meta.record_update(s(0));
        }
        model.put(&mut store, key, &meta, Some(b"v"));
    }
    let (key, block) = (&keys[4], store.shards[0].pages[0].0.as_ptr());
    let before = store.shards[0].pages[0].0.to_vec();
    let held = store.meta(key).unwrap();
    // The same vector, another value of the same length.
    model.put(&mut store, key, &held, Some(b"w"));
    // One more update at the same site: a vector of the same length.
    let mut next = held.clone();
    next.record_update(s(0));
    next.record_update(s(0));
    model.put(&mut store, key, &next, Some(b"x"));
    check(&store, &model, "rewritten in place");
    let page = &store.shards[0].pages[0].0;
    assert_eq!(page.as_ptr(), block, "the page keeps its block");
    assert_eq!(page.len(), before.len());
    let changed: Vec<usize> = (0..page.len()).filter(|&i| page[i] != before[i]).collect();
    assert!(
        changed.len() <= 2,
        "{changed:?}: the vector's count and the value"
    );
}

/// Where pages split: sixteen ascending records are one page, the
/// seventeenth starts a second, thirty-two fill two; a key below the
/// first page's first key goes into that page, re-keyed, which splits in
/// halves, each coded from its first record whole; a record grown past a
/// page's bytes ends up a page of its own, and shrunk back to a
/// tombstone it stays one (pages never merge). A run of the same records
/// pushed in key order fills the same pages.
#[test]
fn pages_split_where_the_caps_say() {
    let meta = once();
    let key = |i: usize| format!("k{i:03}");
    let counts = |store: &KvStore| -> Vec<usize> {
        let pages = store.shards[0].pages.iter();
        pages.map(|page| page_records(page).len()).collect()
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
        pages.any(|page| page.first_key() == b"k020" && page_records(page).len() == 1)
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
/// records it is merged — keys it shares with the shard replaced — over
/// keys of every shape, vectors now equal to their neighbours', now not,
/// and tombstones.
#[test]
fn an_appended_run_stores_what_upserts_would() {
    let universe = shaped_keys(40);
    cases(8, |seed, rng| {
        for shards in [1usize, 16, 512] {
            let mut store = KvStore::with_shards(s(0), shards);
            let mut model = Model::default();
            let meta = |rng: &mut SplitMix64| {
                let mut meta = Srv::new();
                meta.record_update(s(rng.below(2) as u32));
                meta
            };
            let filled = seed % 2 == 1;
            if filled {
                for _ in 0..rng.range(1..100) {
                    let key = &universe[rng.below(universe.len())];
                    let value = value_of(rng);
                    model.put(&mut store, key, &meta(rng), value.as_deref());
                }
            }
            let mut keys: Vec<usize> = (0..rng.range(1..200))
                .map(|_| rng.below(universe.len()))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut runs: Vec<Run> = (0..shards).map(|_| Run::default()).collect();
            for index in keys {
                let key = &universe[index];
                let (meta, value) = (meta(rng), value_of(rng));
                model
                    .0
                    .insert(key.as_bytes().to_vec(), state(&meta, value.as_deref()));
                let run = &mut runs[shard_index(key.as_bytes(), shards)];
                push(run, key, &meta, value.as_deref());
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
    let meta = once();
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
        model
            .0
            .insert(key.as_bytes().to_vec(), state(&meta, Some(b"w")));
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
        .map(|page| page_records(page).len())
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

/// `put` and `delete`, one walk of a page each, hold what a map of the
/// records their vectors say they hold: each key's vector one update at
/// the store's site past the one it held — some held vectors written by
/// other sites — over seeded schedules at 1, 16 and 512 shards and keys
/// of every shape, with values rewritten at their own length, records
/// grown past a page and keys below the first page's first key. Every
/// write is watched ([`Watch`]).
#[test]
fn puts_and_deletes_hold_what_a_map_of_records_holds() {
    let universe = shaped_keys(30);
    let (mut same_length, mut grown_past, mut below_first) = (0, 0, 0);
    for shards in [1usize, 16, 512] {
        cases(6, |seed, rng| {
            let mut store = KvStore::with_shards(s(0), shards);
            let mut model = Model::default();
            let keys = rng.range(1..universe.len());
            for step in 0..3 * keys {
                // Descending at first, so new keys land below the first.
                let index = if step < keys {
                    keys - 1 - step
                } else {
                    rng.below(keys)
                };
                let key = &universe[index];
                let held = store.meta(key);
                if rng.chance(0.1) {
                    // Another site's write, stored as a commit stores it.
                    let mut meta = held.unwrap_or_default();
                    meta.record_update(s(1 + rng.below(3) as u32));
                    model.put(&mut store, key, &meta, Some(b"theirs"));
                    continue;
                }
                let value = match (held.is_some(), rng.below(4)) {
                    (true, 0) => store.get(key).map(<[u8]>::to_vec),
                    _ => value_of(rng),
                };
                let mut meta = held.clone().unwrap_or_default();
                meta.record_update(s(0));
                let shard = &store.shards[shard_index(key.as_bytes(), shards)];
                below_first += usize::from(
                    (shard.pages.first()).is_some_and(|page| key.as_bytes() < page.first_key()),
                );
                let len = |state| Coded::of(key.as_bytes(), state, None).len();
                let mut snapshot = crate::record::Key::default();
                let new = View::written(&meta, value.as_deref(), &mut snapshot);
                let old = store.view(key.as_bytes()).map(len);
                grown_past +=
                    usize::from(old.is_some_and(|old| old <= PAGE_BYTES) && len(new) > PAGE_BYTES);
                same_length += usize::from(old == Some(len(new)));
                let watch = Watch::before(&store, key.as_bytes());
                match &value {
                    Some(value) => store.put(key.clone(), value.clone()),
                    None => store.delete(key.clone()),
                }
                watch.after(&store);
                model
                    .0
                    .insert(key.as_bytes().to_vec(), state(&meta, value.as_deref()));
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
