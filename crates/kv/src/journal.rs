//! The bounded journal of the keys a store changed lately.

use optrep_replication::planner::JOURNAL_CAP;
use std::collections::VecDeque;

/// What a store changed lately: the placement hash of every key a
/// generation bump touched, with that generation, newest last, the
/// oldest evicted once [`JOURNAL_CAP`] are held. A serving store
/// [proposes](crate::KvStore::plan_contact_since) from it. It is bookkeeping,
/// not state — in no snapshot, log record, digest or comparison — and
/// nothing is wrong when it is short or lost: a proposal is checked
/// against the shard digests, so the journal can only cost bytes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Journal {
    /// `(generation, placement hash)`, generations non-decreasing.
    /// Allocated once, at the cap, by the first change (a clone is sized
    /// to what it holds and brought to the cap by its first).
    entries: VecDeque<(u64, u64)>,
    /// The generation of the newest entry evicted: the journal lists
    /// every key changed at a generation above it, and possibly not
    /// every key changed at or below.
    floor: u64,
}

impl Journal {
    /// The generation of the newest entry evicted.
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    pub(crate) fn record(&mut self, generation: u64, hash: u64) {
        if self.entries.capacity() < JOURNAL_CAP {
            let held = self.entries.len();
            self.entries.reserve_exact(JOURNAL_CAP - held);
        }
        if self.entries.len() == JOURNAL_CAP {
            if let Some((evicted, _)) = self.entries.pop_front() {
                self.floor = evicted;
            }
        }
        self.entries.push_back((generation, hash));
    }

    /// The hashes of the keys changed at generations above `since`, or
    /// `None` when the journal no longer reaches back that far.
    pub(crate) fn changed_since(&self, since: u64) -> Option<impl Iterator<Item = u64> + '_> {
        (self.floor <= since).then(|| {
            let newer = self.entries.partition_point(|&(at, _)| at <= since);
            self.entries.range(newer..).map(|&(_, hash)| hash)
        })
    }
}

#[cfg(test)]
impl Journal {
    /// The entries themselves, for a test that makes the journal lie.
    pub(crate) fn entries_mut(&mut self) -> &mut VecDeque<(u64, u64)> {
        &mut self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::s;
    use crate::KvStore;
    use optrep_replication::planner::placement;

    #[test]
    fn the_journal_lists_what_changed_and_knows_how_far_back() {
        let mut store = KvStore::with_shards(s(0), 4);
        assert_eq!(store.journal_floor_lag(), 0);
        for i in 0..10 {
            store.put(format!("k{i}"), "v");
        }
        let hash = |key: &str| placement(key.as_bytes());
        let since = |store: &KvStore, at: u64| -> Option<Vec<u64>> {
            store.journal.changed_since(at).map(Iterator::collect)
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
}
