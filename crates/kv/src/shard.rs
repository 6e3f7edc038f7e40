//! One shard of the key space — its records, content digest and live
//! count, changed only through [`Shard::upsert`] — and the walks over a
//! store's shards.

use crate::record::{entry_hash, Record};
use crate::KvStore;
use optrep_replication::planner::{shard_of, Cut, ShardDigest};
use std::collections::BTreeSet;

/// One shard of the store's key space: its records plus an
/// incrementally maintained content digest (the wrapping sum of
/// [`entry_hash`] over every record, so updates are O(1): subtract the
/// old hash, add the new one) and live-key count. A node slot is one
/// pointer and a length, so the slack a B-tree node carries (sequential
/// inserts leave it six-elevenths full) multiplies 16 bytes a key.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shard {
    entries: BTreeSet<Record>,
    digest: u64,
    /// Records holding a value (not tombstones). Bookkeeping like the
    /// digest's, so [`KvStore::len`] need not walk.
    live: usize,
}

impl Shard {
    /// The record `key` holds, tombstones included.
    pub(crate) fn get(&self, key: &[u8]) -> Option<&Record> {
        self.entries.get(key)
    }

    /// The shard as a digest vector lists it: the wrapping sum of
    /// [`entry_hash`] over its records, and how many it holds
    /// (tombstones included).
    pub(crate) fn summary(&self) -> ShardDigest {
        ShardDigest {
            digest: self.digest,
            entries: self.entries.len() as u64,
        }
    }

    /// Records holding a value.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Stores `record` in place of whatever its key held and brings the
    /// digest and the live count in step: the one place either changes.
    /// A caller that edits an entry reads the old record, builds the new
    /// one and hands it here. Returns whether the key was tracked before.
    pub(crate) fn upsert(&mut self, record: Record) -> bool {
        self.digest = self.digest.wrapping_add(entry_hash(&record));
        self.live += usize::from(record.view().value.is_some());
        match self.entries.replace(record) {
            Some(old) => {
                self.digest = self.digest.wrapping_sub(entry_hash(&old));
                self.live -= usize::from(old.view().value.is_some());
                true
            }
            None => false,
        }
    }
}

/// A key's shard index in a map of `count` shards (`count` a power of
/// two): the planner's placement, which both sides of a contact share.
pub(crate) fn shard_index(key: &[u8], count: usize) -> usize {
    shard_of(key, count as u64) as usize
}

impl KvStore {
    pub(crate) fn record(&self, key: &[u8]) -> Option<&Record> {
        self.shards[shard_index(key, self.shards.len())]
            .entries
            .get(key)
    }

    /// Every tracked record, in unspecified order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &Record> {
        self.shards.iter().flat_map(|shard| &shard.entries)
    }

    /// Every tracked record, sorted by key — the deterministic order
    /// snapshots and endpoints present, so wire images and stream-id
    /// assignment are independent of the local shard layout.
    pub(crate) fn records_sorted(&self) -> Vec<&Record> {
        let mut all = Vec::with_capacity(self.tracked_entries());
        all.extend(self.records());
        all.sort_unstable();
        all
    }

    /// Calls `visit` on every tracked record of the given plan shards at
    /// plan-shard count `count`, touching only the physical shards they
    /// live in: plan shard `s` is the physical shards `i ≡ s (mod
    /// count)` when the plan is no finer than the store, and a slice of
    /// physical shard `s mod physical` when it is.
    pub(crate) fn visit_shards<'a>(
        &'a self,
        shards: &[u64],
        count: usize,
        mut visit: impl FnMut(&'a Record),
    ) {
        let physical = self.shards.len();
        let mut wanted = vec![false; count];
        for &shard in shards {
            if (shard as usize) < count {
                wanted[shard as usize] = true;
            }
        }
        if count <= physical {
            for (index, shard) in self.shards.iter().enumerate() {
                if wanted[index & (count - 1)] {
                    shard.entries.iter().for_each(&mut visit);
                }
            }
            return;
        }
        let mut holds_wanted = vec![false; physical];
        for (shard, _) in wanted.iter().enumerate().filter(|(_, &w)| w) {
            holds_wanted[shard & (physical - 1)] = true;
        }
        for (index, shard) in self.shards.iter().enumerate() {
            if holds_wanted[index] {
                for record in &shard.entries {
                    if wanted[shard_index(record.key_bytes(), count)] {
                        visit(record);
                    }
                }
            }
        }
    }

    /// The tracked records of the given plan shards at plan-shard count
    /// `count` whose key `keep` admits, sorted by key. Visits and sorts
    /// only what the plan names, never the rest of the store.
    pub(crate) fn records_in(
        &self,
        shards: &[u64],
        count: usize,
        keep: impl Fn(&[u8]) -> bool,
    ) -> Vec<&Record> {
        let mut kept = Vec::new();
        self.visit_shards(shards, count, |record| {
            if keep(record.key_bytes()) {
                kept.push(record);
            }
        });
        kept.sort_unstable();
        kept
    }

    /// The tracked records a planned contact runs over, sorted by key —
    /// what either endpoint of it is built from.
    pub(crate) fn records_cut(&self, cut: &Cut<'_>) -> Vec<&Record> {
        self.records_in(cut.incremental, cut.count as usize, |key| cut.admits(key))
    }

    /// Inserts or replaces one entry; returns whether its key was
    /// tracked before.
    pub(crate) fn insert(&mut self, record: Record) -> bool {
        let idx = shard_index(record.key_bytes(), self.shards.len());
        self.shards[idx].upsert(record)
    }
}

#[cfg(test)]
mod tests;
