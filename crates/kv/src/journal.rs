//! The bounded journal of the keys a store changed lately, and what each
//! change did to its shard's digest.

use optrep_replication::planner::{ShardDigest, JOURNAL_CAP, JOURNAL_PLACEMENTS};
use std::collections::VecDeque;

/// One change: 16 bytes, so the journal is one allocation of 16 B ×
/// [`JOURNAL_CAP`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    /// What the change added to its shard's digest (wrapping).
    digest: u64,
    /// The low 32 bits of the generation the change was counted in.
    /// Every generation bump journals at least one entry, so the held
    /// entries span fewer than [`JOURNAL_CAP`] generations and the low
    /// bits name each one exactly, read back from the newest.
    generation: u32,
    /// The key's placement hash masked at [`JOURNAL_PLACEMENTS`] — a
    /// plan at any count reads its shard off the low bits, and a push
    /// its keys off all 31 — and, in [`CREATED`], whether the change
    /// added a record to the shard.
    placed: u32,
}

/// The bit of [`Entry::placed`] that says the change created its record.
const CREATED: u32 = 1 << 31;

/// The journal's entry is exactly 16 bytes.
const _: () = assert!(std::mem::size_of::<Entry>() == 16);
/// A placement masked at [`JOURNAL_PLACEMENTS`] fills the bits beside
/// [`CREATED`].
const _: () = assert!(JOURNAL_PLACEMENTS == CREATED as u64);

impl Entry {
    /// The placement hash masked at [`JOURNAL_PLACEMENTS`].
    fn placed(&self) -> u64 {
        u64::from(self.placed & !CREATED)
    }

    /// What the change did to its shard's summary.
    fn change(&self) -> ShardDigest {
        ShardDigest {
            digest: self.digest,
            entries: u64::from(self.placed & CREATED != 0),
        }
    }
}

/// What a store changed lately: the placement of every key a generation
/// bump touched and what the change did to the key's shard — the record
/// it wrote less the one it replaced — with that generation, newest
/// last, the oldest evicted once [`JOURNAL_CAP`] are held. A serving
/// store [proposes](crate::KvStore::plan_contact_since) from it: the
/// keys changed since a generation are the candidates, and a shard's
/// summary now less what the changes since did to it is the shard as it
/// stood then.
///
/// It is bookkeeping, not state — in no snapshot, log record, digest or
/// comparison. A server proposes a shard only where that summary equals
/// the one the puller sent, so an entry lost, listed stale, or filed
/// with a wrong change, and a floor that claims too much, make the sum
/// come out wrong and the shard is not proposed: the journal can only
/// cost bytes. What the check trusts is that each change is filed under
/// its own key's placement — both are taken from the one key.
#[derive(Debug, Clone, Default)]
pub(crate) struct Journal {
    /// Generations non-decreasing. Allocated once, at the cap, by the
    /// first change (a clone is sized to what it holds and brought to
    /// the cap by its first).
    entries: VecDeque<Entry>,
    /// The generation of the newest entry evicted: the journal lists
    /// every key changed at a generation above it, and possibly not
    /// every key changed at or below.
    floor: u64,
    /// The generation of the newest entry recorded.
    newest: u64,
}

impl Journal {
    /// The generation of the newest entry evicted.
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    /// Records that the key placed at `hash` changed at `generation`,
    /// changing its shard's summary by `change` (a record replaced adds
    /// no entry; one created adds one).
    pub(crate) fn record(&mut self, generation: u64, hash: u64, change: ShardDigest) {
        debug_assert!(change.entries <= 1, "a change creates at most its record");
        if self.entries.capacity() < JOURNAL_CAP {
            let held = self.entries.len();
            self.entries.reserve_exact(JOURNAL_CAP - held);
        }
        if self.entries.len() == JOURNAL_CAP {
            if let Some(evicted) = self.entries.pop_front() {
                self.floor = self.generation_of(&evicted);
            }
        }
        self.newest = generation;
        let created = if change.entries > 0 { CREATED } else { 0 };
        self.entries.push_back(Entry {
            digest: change.digest,
            generation: generation as u32,
            placed: (hash & (JOURNAL_PLACEMENTS - 1)) as u32 | created,
        });
    }

    /// Records a change at `generation` that later changes of the same
    /// call evict before anyone can ask: the journal then lists nothing
    /// at or below it, as though it had been recorded and evicted.
    pub(crate) fn pass(&mut self, generation: u64) {
        self.entries.clear();
        self.floor = generation;
        self.newest = generation;
    }

    /// The whole generation of `entry`, read back from the newest.
    fn generation_of(&self, entry: &Entry) -> u64 {
        let behind = (self.newest as u32).wrapping_sub(entry.generation);
        self.newest - u64::from(behind)
    }

    /// The keys changed at generations above `since` — each as its
    /// placement masked at [`JOURNAL_PLACEMENTS`], with what the change
    /// did to its shard — or `None` when the journal no longer reaches
    /// back that far.
    pub(crate) fn changed_since(
        &self,
        since: u64,
    ) -> Option<impl Iterator<Item = (u64, ShardDigest)> + '_> {
        (self.floor <= since).then(|| {
            let newer = (self.entries).partition_point(|entry| self.generation_of(entry) <= since);
            let changes = self.entries.range(newer..);
            changes.map(|entry| (entry.placed(), entry.change()))
        })
    }
}

#[cfg(test)]
impl Journal {
    /// The entries themselves, for a test that makes the journal lie.
    pub(crate) fn entries_mut(&mut self) -> &mut VecDeque<Entry> {
        &mut self.entries
    }

    /// Whether `entry` was recorded at a generation above `since`.
    pub(crate) fn is_after(&self, entry: &Entry, since: u64) -> bool {
        self.generation_of(entry) > since
    }
}

#[cfg(test)]
impl Entry {
    /// The entry with its change's digest part flipped by `mask`.
    pub(crate) fn corrupted(self, mask: u64) -> Entry {
        Entry {
            digest: self.digest ^ mask,
            ..self
        }
    }

    /// The entry filed under `placed`, masked at [`JOURNAL_PLACEMENTS`].
    pub(crate) fn misplaced(self, placed: u64) -> Entry {
        let placed = (placed & (JOURNAL_PLACEMENTS - 1)) as u32;
        Entry {
            placed: (self.placed & CREATED) | placed,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::image_as_listed;
    use crate::tests::s;
    use crate::KvStore;
    use optrep_core::error::WireError;
    use optrep_core::rng::{cases, SplitMix64};
    use optrep_replication::planner::placement;
    use std::collections::BTreeMap;

    #[test]
    fn the_journal_lists_what_changed_and_knows_how_far_back() {
        let mut store = KvStore::with_shards(s(0), 4);
        assert_eq!(store.journal_floor_lag(), 0);
        for i in 0..10 {
            store.put(format!("k{i}"), "v");
        }
        let hash = |key: &str| placement(key.as_bytes()) & (JOURNAL_PLACEMENTS - 1);
        let since = |store: &KvStore, at: u64| -> Option<Vec<u64>> {
            let changed = store.journal.changed_since(at);
            changed.map(|changed| changed.map(|(placed, _)| placed).collect())
        };
        assert_eq!(since(&store, 8), Some(vec![hash("k8"), hash("k9")]));
        assert_eq!(since(&store, 10), Some(Vec::new()));
        assert_eq!(since(&store, 0).map(|all| all.len()), Some(10));
        assert_eq!(store.journal_floor_lag(), 10);
        // A commit is one generation with every changed key under it.
        let mut dst = KvStore::with_shards(s(1), 4);
        dst.put("mine", "1");
        dst.sync(&store).run().unwrap();
        assert_eq!(dst.generation(), 2);
        assert_eq!(since(&dst, 1).map(|all| all.len()), Some(10));
        // So is a replayed log record.
        let mut entry = store.encode_entry("k3").unwrap();
        dst.apply_encoded_entry("k3", &mut entry).unwrap();
        assert_eq!(since(&dst, 2), Some(vec![hash("k3")]));
        // Past the cap the oldest go and the floor follows them: asked
        // about anything older, the journal says it cannot know.
        for i in 0..JOURNAL_CAP {
            store.put(format!("k{}", i % 7), "w");
        }
        assert_eq!(store.journal.entries.len(), JOURNAL_CAP);
        assert_eq!(store.journal.floor, 10);
        assert_eq!(store.journal_floor_lag(), JOURNAL_CAP as u64);
        assert_eq!(since(&store, 9), None);
        assert_eq!(since(&store, 10).map(|all| all.len()), Some(JOURNAL_CAP));
        // It is bookkeeping: no part of equality, snapshots or digests.
        let image = store.encode_snapshot();
        let reloaded = KvStore::decode_snapshot(&mut image.clone()).unwrap();
        assert!(reloaded.journal.entries.is_empty());
        assert_eq!(reloaded.replica_digest(), store.replica_digest());
        let mut emptied = store.clone();
        emptied.journal = Journal::default();
        assert_eq!(emptied, store);
        assert_eq!(emptied.encode_snapshot(), image);
    }

    /// Generations past 2³² read back whole from their low bits.
    #[test]
    fn generations_read_back_whole_across_the_low_bits_wrapping() {
        let mut journal = Journal::default();
        let start = (1u64 << 32) - 3;
        for generation in start..start + 8 {
            journal.record(generation, generation, ShardDigest::default());
        }
        for since in start - 1..start + 8 {
            let listed: Vec<u64> = journal.changed_since(since).unwrap().map(|c| c.0).collect();
            let expected: Vec<u64> = (since + 1..start + 8)
                .map(|generation| generation & (JOURNAL_PLACEMENTS - 1))
                .collect();
            assert_eq!(listed, expected, "since {since}");
        }
    }

    /// A log record longer than the journal, its keys in order, journals
    /// what its entries applied one at a time journal: the last
    /// `JOURNAL_CAP` changes, the floor at the one before them. A record
    /// that lists keys again and again, or out of order, is refused, and
    /// the store, its generation and its journal are untouched.
    #[test]
    fn a_record_longer_than_the_journal_journals_its_tail() {
        for (keys, ordered) in [(JOURNAL_CAP + 300, true), (500, false)] {
            let mut src = KvStore::with_shards(s(0), 16);
            let mut record = Vec::new();
            for i in 0..JOURNAL_CAP + 300 {
                let key = format!("k{:05}", i % keys);
                src.put(key.clone(), format!("v{i}"));
                record.push((key.clone(), src.encode_entry(&key).unwrap()));
            }
            let mut base = KvStore::with_shards(s(1), 16);
            base.put("k00001", "before");
            let (mut by_record, mut by_entry) = (base.clone(), base);
            let entries = record.iter().map(|(key, e)| (key.as_bytes(), &e[..]));
            let image = image_as_listed(entries);
            let at = format!("ordered {ordered}");
            if !ordered {
                let refused = by_record.apply_image(&image);
                assert_eq!(refused, Err(WireError::InvalidPayload), "{at}");
                assert!(by_record == by_entry, "{at}");
                assert_eq!(by_record.generation(), by_entry.generation(), "{at}");
                assert_eq!(by_record.journal.newest, by_entry.journal.newest, "{at}");
                continue;
            }
            by_record.apply_image(&image).unwrap();
            for (key, entry) in &record {
                by_entry
                    .apply_encoded_entry(key, &mut entry.clone())
                    .unwrap();
            }
            assert!(by_record == by_entry, "{at}");
            assert_eq!(by_record.generation(), by_entry.generation(), "{at}");
            let floor = by_entry.journal.floor();
            assert_eq!((by_record.journal.floor(), floor), (floor, 301), "{at}");
            let listed = |store: &KvStore| -> Vec<(u64, ShardDigest)> {
                store.journal.changed_since(floor).unwrap().collect()
            };
            assert_eq!(listed(&by_record), listed(&by_entry), "{at}");
            assert_eq!(listed(&by_record).len(), JOURNAL_CAP, "{at}");
        }
    }

    /// Plan counts the property is checked at.
    const COUNTS: [usize; 4] = [1, 16, 512, 1 << 10];

    /// A store's generation and its shard digests at each of [`COUNTS`].
    fn kept(store: &KvStore) -> (u64, Vec<Vec<ShardDigest>>) {
        let digests = COUNTS.map(|count| store.shard_digests_at(count));
        (store.generation(), digests.to_vec())
    }

    /// Over seeded schedules of puts, deletes, commits of pulls, joins
    /// of bulk-loaded shards and replayed log records, at 1, 16, 512 and
    /// 2¹⁰ plan shards: a store's digests now less the changes it
    /// journalled since a generation are the digests it held at that
    /// generation — for every generation kept at or above the journal's
    /// floor.
    #[test]
    fn digests_less_the_changes_since_are_the_digests_then() {
        let keys = |rng: &mut SplitMix64| format!("k{:03}", rng.next_u64() % 300);
        let (mut checked, mut reached, mut refused_records) = (0, 0, 0);
        cases(8, |seed, rng| {
            let physical = [1, 16, 64][(seed % 3) as usize];
            let mut store = KvStore::with_shards(s(0), physical);
            let mut peer = KvStore::with_shards(s(1), 16);
            let mut then = vec![kept(&store)];
            for step in 0..100 {
                match rng.next_u64() % 8 {
                    0 | 1 => store.put(keys(rng), format!("v{step}")),
                    2 => store.delete(keys(rng)),
                    3 | 4 => {
                        // The peer moves on, then is pulled: a commit
                        // that creates, fast-forwards and reconciles.
                        for i in 0..rng.next_u64() % 8 {
                            peer.put(keys(rng), format!("peer{step}.{i}"));
                        }
                        store.sync(&peer).run().unwrap();
                    }
                    5 => {
                        // A store joined whole: every shard bulk-loaded.
                        let mut joined = KvStore::with_shards(s(0), physical);
                        joined.sync(&store).run().unwrap();
                        then.clear();
                        store = joined;
                    }
                    _ => {
                        // A log record replayed: its keys ascending, each
                        // once. Listed as written — a key twice now and
                        // then, or reversed — it is refused untouched.
                        let mut other = store.clone();
                        let mut record: Vec<(String, Vec<u8>)> = Vec::new();
                        for i in 0..1 + rng.next_u64() % 6 {
                            let key = keys(rng);
                            other.put(key.clone(), format!("logged{step}.{i}"));
                            record.push((key.clone(), other.encode_entry(&key).unwrap().to_vec()));
                        }
                        if rng.next_u64() % 2 == 0 {
                            record.reverse();
                        }
                        let logged: BTreeMap<&str, &[u8]> =
                            record.iter().map(|(k, e)| (k.as_str(), &e[..])).collect();
                        let listed = record.iter().map(|(k, _)| k.as_str());
                        if !logged.keys().copied().eq(listed) {
                            let listed = record.iter().map(|(k, e)| (k.as_bytes(), &e[..]));
                            let before = kept(&store);
                            let refused = store.apply_image(&image_as_listed(listed));
                            assert_eq!(refused, Err(WireError::InvalidPayload));
                            assert_eq!(kept(&store), before);
                            refused_records += 1;
                        }
                        let logged = logged.iter().map(|(k, e)| (k.as_bytes(), *e));
                        store.apply_image(&image_as_listed(logged)).unwrap();
                    }
                }
                if rng.next_u64() % 8 == 0 {
                    for _ in 0..JOURNAL_CAP / 8 {
                        store.put(keys(rng), "churn");
                    }
                }
                then.retain(|(since, _)| *since >= store.journal.floor());
                then.push(kept(&store));
                for (slot, count) in COUNTS.into_iter().enumerate() {
                    let now = store.shard_digests_at(count);
                    for (since, digests) in &then {
                        let mut back = now.clone();
                        let changed = store.journal.changed_since(*since);
                        for (placed, change) in changed.expect("at or above the floor") {
                            let shard = &mut back[(placed & (count as u64 - 1)) as usize];
                            *shard = *shard - change;
                        }
                        let at = format!("seed {seed}, step {step}, {count} shards, since {since}");
                        assert_eq!(back, digests[slot], "{at}");
                        checked += 1;
                    }
                }
                reached = reached.max(then.len());
            }
        });
        assert!(
            checked > 10_000 && reached > 20 && refused_records > 0,
            "{checked} checks, {reached} kept, {refused_records} records refused"
        );
    }
}
