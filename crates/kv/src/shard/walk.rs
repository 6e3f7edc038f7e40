//! The walks over a store's shards: a cursor over a shard's pages, each
//! record read against the one before it, and a store's records in no
//! order, or in key order as one merge of the shards' cursors. A record
//! no longer holds its whole key, so a walk lends each key from a buffer
//! of its own until it steps; keys are copied out only where records are
//! collected ([`KvStore::records_in`]).

use super::{prefix, Shard, Slot};
use crate::record::{Coded, Key, View};
use crate::KvStore;
use bytes::Bytes;
use optrep_replication::planner::Cut;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Records in key order, one at a time: each key is the cursor's, lent
/// until it steps again.
pub(crate) trait Cursor<'a> {
    /// Steps to the next record; `false` past the last.
    fn step(&mut self) -> bool;

    /// The key of the record stepped to.
    fn key(&self) -> &[u8];

    /// Its state.
    fn view(&self) -> View<'a>;
}

/// A shard's records in key order, page by page: it holds the pages and
/// the rest of one page, the key it rebuilt and the vector last written,
/// and nothing else — a merge of 512 shards holds 512 of these, and a
/// checkpoint's heap is bounded at 128 B a shard beside its chunk.
#[derive(Debug, Clone)]
pub(crate) struct Records<'a> {
    pages: &'a [Slot],
    /// The rest of the page being read.
    rest: &'a [u8],
    vector: &'a [u8],
    value: Option<&'a [u8]>,
    key: Key,
    /// The pages not yet started.
    next: u32,
    /// Whether the record stepped to is the first of its page.
    first: bool,
}

impl<'a> Records<'a> {
    /// The records of `pages`.
    pub(crate) fn of(pages: &'a [Slot]) -> Self {
        Records {
            pages,
            rest: &[],
            vector: &[],
            value: None,
            key: Key::default(),
            next: 0,
            first: false,
        }
    }

    /// The records written back to back in `bytes`, as a page holds them.
    pub(crate) fn of_bytes(bytes: &'a [u8]) -> Self {
        Records {
            pages: &[],
            rest: bytes,
            vector: &[],
            value: None,
            key: Key::default(),
            next: 0,
            first: false,
        }
    }

    /// Whether the record stepped to is the first of its page: a page
    /// that may be moved whole from there.
    pub(super) fn at_page_start(&self) -> bool {
        self.first
    }

    /// The index of the page the record stepped to is in.
    pub(super) fn page(&self) -> usize {
        self.next as usize - 1
    }
}

impl<'a> Cursor<'a> for Records<'a> {
    fn step(&mut self) -> bool {
        self.first = self.rest.is_empty();
        if self.first {
            let Some(slot) = self.pages.get(self.next as usize) else {
                return false;
            };
            self.rest = &slot.page.0;
            self.next += 1;
        }
        // A page's first record is written whole: the key and the vector
        // start over there.
        let (coded, rest) = Coded::split_first(self.rest);
        self.rest = rest;
        self.key.rebuild(coded.shared, coded.rest);
        self.vector = coded.vector.unwrap_or(self.vector);
        self.value = coded.value;
        true
    }

    fn key(&self) -> &[u8] {
        self.key.as_slice()
    }

    fn view(&self) -> View<'a> {
        View {
            meta: self.vector,
            value: self.value,
        }
    }
}

/// The records of a cursor in the plan shards `named` names whose key
/// `keep` admits.
#[derive(Debug, Clone)]
pub(crate) struct Only<'n, C, F> {
    cursor: C,
    named: &'n Named,
    keep: F,
}

impl<'a, C: Cursor<'a>, F: Fn(&[u8]) -> bool> Cursor<'a> for Only<'_, C, F> {
    fn step(&mut self) -> bool {
        while self.cursor.step() {
            let key = self.cursor.key();
            if self.named.admits(key) && (self.keep)(key) {
                return true;
            }
        }
        false
    }

    fn key(&self) -> &[u8] {
        self.cursor.key()
    }

    fn view(&self) -> View<'a> {
        self.cursor.view()
    }
}

/// Records in key order, merged from cursors that each yield records in
/// key order and no key another yields — one per shard. The heap holds
/// each live cursor at its record, so a record is compared against the
/// other cursors' next keys alone, about log₂(cursors) times, where a
/// sort of the records compares each about log₂(records) times against
/// records scattered over the heap. It holds the cursors in one block:
/// nothing that grows with the records. The record stepped to is the
/// least cursor's, and that cursor steps on only when the merge does.
#[derive(Debug, Clone)]
pub(crate) struct Merge<C> {
    heads: BinaryHeap<Head<C>>,
    /// Whether the least cursor has been lent, so that the next step
    /// steps it.
    lent: bool,
}

/// A cursor behind its key's first eight bytes, zero-padded, as a
/// big-endian number. The order is the key's, reversed: the heap's
/// greatest is the least key. Prefixes are compared first: two keys that
/// differ there compare as their prefixes do, without a read of either
/// cursor's key.
#[derive(Debug, Clone)]
pub(crate) struct Head<C> {
    prefix: u64,
    cursor: C,
}

impl<'a, C: Cursor<'a>> Merge<C> {
    pub(crate) fn new(cursors: impl Iterator<Item = C>) -> Self {
        let (least, most) = cursors.size_hint();
        let mut heads = Vec::with_capacity(most.unwrap_or(least));
        for mut cursor in cursors {
            if cursor.step() {
                let prefix = prefix(cursor.key());
                heads.push(Head { prefix, cursor });
            }
        }
        Merge {
            heads: heads.into(),
            lent: false,
        }
    }

    fn least(&self) -> &C {
        &self
            .heads
            .peek()
            .expect("a merge read where it stepped")
            .cursor
    }
}

impl<'a, C: Cursor<'a>> Cursor<'a> for Merge<C> {
    fn step(&mut self) -> bool {
        if std::mem::replace(&mut self.lent, true) {
            let Some(mut least) = self.heads.peek_mut() else {
                return false;
            };
            // Dropping the heap's handle sifts the cursor down.
            match least.cursor.step() {
                true => least.prefix = prefix(least.cursor.key()),
                false => drop(PeekMut::pop(least)),
            }
        }
        !self.heads.is_empty()
    }

    fn key(&self) -> &[u8] {
        self.least().key()
    }

    fn view(&self) -> View<'a> {
        self.least().view()
    }
}

impl<'a, C: Cursor<'a>> PartialEq for Head<C> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<'a, C: Cursor<'a>> Eq for Head<C> {}

impl<'a, C: Cursor<'a>> PartialOrd for Head<C> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<'a, C: Cursor<'a>> Ord for Head<C> {
    fn cmp(&self, other: &Self) -> Ordering {
        match other.prefix.cmp(&self.prefix) {
            Ordering::Equal => other.cursor.key().cmp(self.cursor.key()),
            order => order,
        }
    }
}

/// The physical shards that hold the records of some plan shards at
/// plan-shard count `count`, and which of their keys those are: plan
/// shard `s` is the physical shards `i ≡ s (mod count)` when the plan is
/// no finer than the store, and a slice of physical shard `s mod
/// physical` when it is.
#[derive(Debug, Clone)]
pub(crate) struct Named {
    /// Plan shards, by index: named or not.
    wanted: Vec<bool>,
    /// Physical shards, by index: holding a named plan shard or not.
    holds: Vec<bool>,
    count: usize,
    /// Whether the plan is finer than the store, so that a physical
    /// shard holds keys of plan shards not named.
    finer: bool,
}

impl Named {
    pub(crate) fn new(shards: &[u64], count: usize, physical: usize) -> Self {
        let mut wanted = vec![false; count];
        for &shard in shards {
            if (shard as usize) < count {
                wanted[shard as usize] = true;
            }
        }
        let finer = count > physical;
        let holds = (0..physical)
            .map(|index| {
                if finer {
                    (index..count).step_by(physical).any(|shard| wanted[shard])
                } else {
                    wanted[index & (count - 1)]
                }
            })
            .collect();
        Named {
            wanted,
            holds,
            count,
            finer,
        }
    }

    /// Of `shards`, the physical shards, those that hold a named plan
    /// shard.
    fn holding<'s>(&self, shards: &'s [Shard]) -> impl Iterator<Item = &'s Shard> + use<'s, '_> {
        let holds = shards.iter().zip(&self.holds);
        holds.filter(|(_, holds)| **holds).map(|(shard, _)| shard)
    }

    /// Whether a key of a shard [`holding`](Self::holding) yields is in a
    /// named plan shard.
    fn admits(&self, key: &[u8]) -> bool {
        !self.finer || self.wanted[shard_index(key, self.count)]
    }

    /// The records of `store` in the named plan shards whose key `keep`
    /// admits, in key order: a merge of the physical shards they live
    /// in, each filtered. Walks only what the plan names, never the rest
    /// of the store.
    pub(crate) fn sorted<'s, F: Fn(&[u8]) -> bool + Copy>(
        &self,
        store: &'s KvStore,
        keep: F,
    ) -> Merge<Only<'_, Records<'s>, F>> {
        let holding = self.holding(&store.shards);
        Merge::new(holding.map(|shard| Only {
            cursor: shard.records(),
            named: self,
            keep,
        }))
    }
}

use super::shard_index;

impl KvStore {
    /// Whether `each` holds of every tracked record, in unspecified
    /// order: a walk of each shard's pages that stops at the first it
    /// does not hold of.
    pub(crate) fn all<'a>(&'a self, mut each: impl FnMut(&[u8], View<'a>) -> bool) -> bool {
        self.shards.iter().all(|shard| {
            let mut records = shard.records();
            while records.step() {
                if !each(records.key(), records.view()) {
                    return false;
                }
            }
            true
        })
    }

    /// Every tracked record, in key order — the deterministic order
    /// snapshots and endpoints present, so wire images and stream-id
    /// assignment are independent of the local shard layout: a merge of
    /// the shards' pages, one cursor a shard.
    pub(crate) fn sorted(&self) -> Merge<Records<'_>> {
        Merge::new(self.shards.iter().map(Shard::records))
    }

    /// Calls `visit` on every tracked record of the given plan shards at
    /// plan-shard count `count`, touching only the physical shards they
    /// live in.
    pub(crate) fn visit_shards<'a>(
        &'a self,
        shards: &[u64],
        count: usize,
        mut visit: impl FnMut(&[u8], View<'a>),
    ) {
        let named = Named::new(shards, count, self.shards.len());
        for shard in named.holding(&self.shards) {
            let mut records = shard.records();
            while records.step() {
                if named.admits(records.key()) {
                    visit(records.key(), records.view());
                }
            }
        }
    }

    /// The tracked records of the given plan shards at plan-shard count
    /// `count` whose key `keep` admits, in key order, each key copied out
    /// ([`Named::sorted`]).
    pub(crate) fn records_in(
        &self,
        shards: &[u64],
        count: usize,
        keep: impl Fn(&[u8]) -> bool + Copy,
    ) -> Vec<(Bytes, View<'_>)> {
        let named = Named::new(shards, count, self.shards.len());
        let mut sorted = named.sorted(self, keep);
        let mut records = Vec::new();
        while sorted.step() {
            records.push((Bytes::copy_from_slice(sorted.key()), sorted.view()));
        }
        records
    }

    /// The tracked records a planned contact runs over, sorted by key —
    /// what either endpoint of it is built from.
    pub(crate) fn records_cut(&self, cut: &Cut<'_>) -> Vec<(Bytes, View<'_>)> {
        self.records_in(cut.walked, cut.count as usize, |key| cut.admits(key))
    }
}
