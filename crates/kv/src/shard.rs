//! One shard of the key space — its records in pages, its content
//! digest and counts, changed only through [`Shard::place`] and
//! [`Shard::append`] — and the walks over a store's shards: in no order,
//! or in key order as one merge of the shards' sorted pages.

use crate::record::{entry_hash, Record, View};
use crate::KvStore;
use optrep_core::{RotatingVector, SiteId, Srv};
use optrep_replication::planner::{shard_of, Cut, ShardDigest};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// The most records a page holds.
const PAGE_RECORDS: usize = 16;

/// The most bytes a page of more than one record holds: a record longer
/// than this is a page of its own.
const PAGE_BYTES: usize = 4096;

/// Whether `records` records of `bytes` bytes in all make one page.
fn fits(records: usize, bytes: usize) -> bool {
    records == 1 || (records <= PAGE_RECORDS && bytes <= PAGE_BYTES)
}

/// Records written back to back in strictly ascending key order, as
/// many as [`fits`]: one exactly sized block for up to sixteen keys,
/// where a block a record paid a malloc header and a set slot a key.
/// Ordered by its first key.
#[derive(Debug, Clone)]
pub(crate) struct Page(Box<[u8]>);

impl Page {
    fn first_key(&self) -> &[u8] {
        Record::key_at(&self.0)
    }
}

/// A key's first eight bytes, zero-padded, as a big-endian number: two
/// keys whose prefixes differ compare as their prefixes do.
fn prefix(key: &[u8]) -> u64 {
    let mut bytes = [0; 8];
    let len = key.len().min(8);
    bytes[..len].copy_from_slice(&key[..len]);
    u64::from_be_bytes(bytes)
}

/// A page in a shard's list, behind its first key's [`prefix`]: a
/// lookup compares the prefixes of the list, one block, and reads a
/// page's first key only where the prefixes are equal.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    prefix: u64,
    page: Page,
}

impl Slot {
    fn new(page: Page) -> Self {
        Slot {
            prefix: prefix(page.first_key()),
            page,
        }
    }

    /// Whether the page starts at or below `key`, whose prefix is
    /// `prefix`.
    fn starts_at_or_below(&self, prefix: u64, key: &[u8]) -> bool {
        self.prefix < prefix || (self.prefix == prefix && self.page.first_key() <= key)
    }
}

impl std::ops::Deref for Slot {
    type Target = Page;

    fn deref(&self) -> &Page {
        &self.page
    }
}

/// The records of a page, in order.
#[derive(Debug, Clone)]
pub(crate) struct Walk<'a>(&'a [u8]);

impl<'a> Iterator for Walk<'a> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        if self.0.is_empty() {
            return None;
        }
        let (record, rest) = Record::split_first(self.0);
        self.0 = rest;
        Some(record)
    }
}

impl<'a> IntoIterator for &'a Page {
    type Item = Record<'a>;
    type IntoIter = Walk<'a>;

    fn into_iter(self) -> Walk<'a> {
        Walk(&self.0)
    }
}

/// A shard's records in key order, page by page: a cursor of a store's
/// merge, so it holds the pages' iterator and the rest of one page and
/// nothing else.
#[derive(Debug, Clone)]
pub(crate) struct Records<'a> {
    pages: std::slice::Iter<'a, Slot>,
    page: Walk<'a>,
}

impl<'a> Iterator for Records<'a> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        loop {
            if let Some(record) = self.page.next() {
                return Some(record);
            }
            self.page = self.pages.next()?.page.into_iter();
        }
    }
}

/// What [`Shard::place`] stores for a key: a copy of a record, or an
/// entry encoded straight into the page it is to live in.
pub(crate) enum New<'a> {
    Copy(Record<'a>),
    Entry(&'a str, Srv, Option<&'a [u8]>),
}

impl New<'_> {
    fn len(&self) -> usize {
        match self {
            New::Copy(record) => record.bytes().len(),
            New::Entry(key, meta, value) => Record::encoded_len(key, meta, *value),
        }
    }

    fn write(&self, buf: &mut Vec<u8>) {
        match self {
            New::Copy(record) => buf.extend_from_slice(record.bytes()),
            New::Entry(key, meta, value) => Record::write(buf, key, meta, *value),
        }
    }
}

/// One shard of the store's key space: its records, in pages, plus an
/// incrementally maintained content digest (the wrapping sum of
/// [`entry_hash`] over every record, so updates are O(1): subtract the
/// old hash, add the new one) and counts. The pages are a vector sorted
/// by first key, found by binary search: a slot is a page's pointer and
/// length and its first key's prefix, 24 bytes for up to sixteen keys,
/// and a page is written where it stands.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shard {
    pages: Vec<Slot>,
    /// Records held, tombstones included.
    entries: usize,
    digest: u64,
    /// Records holding a value (not tombstones). Bookkeeping like the
    /// digest's, so [`KvStore::len`] need not walk.
    live: usize,
}

impl Shard {
    /// The index of the page `key` belongs in: the last that starts at
    /// or before it, or the first for a key below every page; `None` in
    /// an empty shard.
    fn page_of(&self, key: &[u8]) -> Option<usize> {
        let above = self.pages_at_or_below(key);
        (!self.pages.is_empty()).then(|| above.saturating_sub(1))
    }

    /// How many pages start at or below `key`.
    fn pages_at_or_below(&self, key: &[u8]) -> usize {
        let prefix = prefix(key);
        (self.pages).partition_point(|slot| slot.starts_at_or_below(prefix, key))
    }

    /// The record `key` holds, tombstones included: a walk of the one
    /// page it would be in, the last that starts at or before it.
    pub(crate) fn get(&self, key: &[u8]) -> Option<Record<'_>> {
        let page = &self.pages[self.pages_at_or_below(key).checked_sub(1)?];
        let record = page.into_iter().find(|record| record.key_bytes() >= key)?;
        (record.key_bytes() == key).then_some(record)
    }

    /// Every record, in key order.
    pub(crate) fn records(&self) -> Records<'_> {
        Records {
            pages: self.pages.iter(),
            page: Walk(&[]),
        }
    }

    /// The shard as a digest vector lists it: the wrapping sum of
    /// [`entry_hash`] over its records, and how many it holds
    /// (tombstones included).
    pub(crate) fn summary(&self) -> ShardDigest {
        ShardDigest {
            digest: self.digest,
            entries: self.entries as u64,
        }
    }

    /// What storing `new` in place of whatever its key holds would do
    /// to [`summary`](Self::summary): its hash in, the held record's out,
    /// and one more entry if the key is not held.
    pub(crate) fn change_of(&self, new: Record<'_>) -> ShardDigest {
        let held = self.get(new.key_bytes());
        ShardDigest {
            digest: entry_hash(new).wrapping_sub(held.map_or(0, entry_hash)),
            entries: u64::from(held.is_none()),
        }
    }

    /// Records holding a value.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Counts `record` in: the digest, the live count, the entries.
    fn count_in(&mut self, record: Record<'_>) {
        self.digest = self.digest.wrapping_add(entry_hash(record));
        self.live += usize::from(record.view().value.is_some());
        self.entries += 1;
    }

    /// Counts `record` out, as [`count_in`](Self::count_in) counted it.
    fn count_out(&mut self, record: Record<'_>) {
        self.digest = self.digest.wrapping_sub(entry_hash(record));
        self.live -= usize::from(record.view().value.is_some());
        self.entries -= 1;
    }

    /// A local write of `key`: its vector, derived from the one it held,
    /// counts one more update at `site`.
    pub(crate) fn put(&mut self, key: &str, site: SiteId, value: Option<&[u8]>) {
        self.place(key.as_bytes(), |held| {
            let mut meta = held.map_or_else(Srv::new, |held| held.srv());
            meta.record_update(site);
            New::Entry(key, meta, value)
        });
    }

    /// Stores one entry in place of whatever its key held; returns
    /// whether the key was tracked before.
    pub(crate) fn write(&mut self, key: &str, meta: Srv, value: Option<&[u8]>) -> bool {
        self.place(key.as_bytes(), |_| New::Entry(key, meta, value))
    }

    /// Stores a copy of `record` in place of whatever its key held;
    /// returns whether the key was tracked before.
    pub(crate) fn upsert(&mut self, record: Record<'_>) -> bool {
        self.place(record.key_bytes(), |_| New::Copy(record))
    }

    /// Stores what `new` makes of the state `key` holds, in place of it,
    /// and brings the digest and the counts in step: the one place any
    /// of them changes but [`append`](Self::append). Returns whether the
    /// key was tracked before. One walk of the one page the key belongs
    /// in finds the held record and where the key goes; the record is
    /// then written where it stands when it keeps its length, else into
    /// the page's rewrite. Over a cap, a record after the page's last key
    /// starts a page of its own, so an ascending load leaves every page
    /// full, and anything else splits the page in halves. Records are
    /// never removed (a delete writes a tombstone), so pages never merge.
    pub(crate) fn place<'n>(
        &mut self,
        key: &[u8],
        new: impl FnOnce(Option<View<'_>>) -> New<'n>,
    ) -> bool {
        let Some(at) = self.page_of(key) else {
            self.alone(0, &new(None));
            return false;
        };
        let old = &self.pages[at].0;
        // The page's records below the key (a prefix: they ascend), and
        // the one the key holds.
        let (mut before, mut records, mut held) = (0, 0, None);
        for record in Walk(old) {
            records += 1;
            match record.key_bytes().cmp(key) {
                Ordering::Less => before += record.bytes().len(),
                Ordering::Equal => held = Some(record),
                Ordering::Greater => {}
            }
        }
        let new = new(held.map(Record::view));
        let len = new.len();
        let after = before + held.map_or(0, |record| record.bytes().len());
        let tracked = held.is_some();
        if let Some(held) = held {
            let (hash, live) = (entry_hash(held), held.view().value.is_some());
            self.digest = self.digest.wrapping_sub(hash);
            self.live -= usize::from(live);
            self.entries -= 1;
        }
        let old = &self.pages[at].0;
        if tracked && len == after - before {
            // The same length: the record is overwritten where it stands
            // and the page keeps its block. Rewriting the page into a new
            // block of about 4 KiB for every changed value left the heap
            // in holes whose layout moved with the order keys changed in.
            let mut encoded = Vec::new();
            let bytes = match &new {
                New::Copy(record) => record.bytes(),
                New::Entry(..) => {
                    encoded.reserve_exact(len);
                    new.write(&mut encoded);
                    &encoded
                }
            };
            self.pages[at].page.0[before..after].copy_from_slice(bytes);
            self.count_in(Record::split_first(bytes).0);
            return true;
        }
        let records = records + usize::from(!tracked);
        let total = old.len() - (after - before) + len;
        if !tracked && before == old.len() && !fits(records, total) {
            self.alone(at + 1, &new);
            return false;
        }
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(&old[..before]);
        new.write(&mut buf);
        buf.extend_from_slice(&old[after..]);
        self.count_in(Record::split_first(&buf[before..]).0);
        self.file(at, buf, records);
        tracked
    }

    /// Files `page` behind the last.
    fn push_page(&mut self, page: Page) {
        push_slot(&mut self.pages, Slot::new(page));
    }

    /// Stores `new`, a key no page holds, as a page of its own at index
    /// `at`.
    fn alone(&mut self, at: usize, new: &New<'_>) {
        let mut buf = Vec::with_capacity(new.len());
        new.write(&mut buf);
        self.count_in(Record::split_first(&buf).0);
        room(&mut self.pages, 1);
        (self.pages).insert(at, Slot::new(Page(buf.into_boxed_slice())));
    }

    /// Files `records` records, written back to back in key order in
    /// `buf`, as the pages that replace page `at`, the one they came
    /// from: one page, if they fit one, else halves, halved again until
    /// each fits.
    fn file(&mut self, at: usize, buf: Vec<u8>, records: usize) {
        if fits(records, buf.len()) {
            self.pages[at] = Slot::new(Page(buf.into_boxed_slice()));
            return;
        }
        let mut bounds = [0; PAGE_RECORDS + 2];
        let mut rest = &buf[..];
        for bound in &mut bounds[1..=records] {
            rest = Record::split_first(rest).1;
            *bound = buf.len() - rest.len();
        }
        let mut halves = Vec::new();
        cut(&buf, &bounds[..=records], &mut halves);
        room(&mut self.pages, halves.len() - 1);
        self.pages
            .splice(at..=at, halves.into_iter().map(Slot::new));
    }

    /// Stores every record of `run` as [`upsert`](Self::upsert) would,
    /// one by one. Into an empty shard, the run moves in whole: its
    /// pages, filled as the records arrived, become the shard's. Into a
    /// shard that holds records, it is merged page by page: only the
    /// pages its keys fall in are rewritten, each filled to the caps, and
    /// where the rewrite of the shard's last page closes a page in front
    /// of the start of one of the run's, that page and the rest move in
    /// whole. A run of one record is upserted.
    pub(crate) fn append(&mut self, mut run: Run) {
        if run.len == 1 && self.entries > 0 {
            for record in run.records() {
                self.upsert(record);
            }
            return;
        }
        run.seal();
        if self.entries > 0 {
            return self.merge(run.pages);
        }
        for record in run.pages.iter().flat_map(|slot| &slot.page) {
            self.count_in(record);
        }
        self.pages = run.pages;
    }

    /// Merges `run`'s pages, their keys strictly ascending, into this
    /// shard, which holds records: see [`append`](Self::append).
    fn merge(&mut self, mut run_pages: Vec<Slot>) {
        let mut run = Cursor::default();
        let Some(first) = run.peek(&run_pages) else {
            return;
        };
        let from = self
            .page_of(first.key_bytes())
            .expect("a shard that holds records");
        let mut pages = self.pages.split_off(from).into_iter().peekable();
        let mut fill = Fill::new();
        while let Some(page) = pages.next() {
            // The run's records below the next page's first key fall in
            // this page; past the last page, all of them do.
            let bound = pages.peek().map(|slot| slot.first_key());
            let falls = |record: &Record<'_>| bound.is_none_or(|bound| record.key_bytes() < bound);
            if !run.peek(&run_pages).is_some_and(|record| falls(&record)) {
                push_slot(&mut self.pages, page);
                continue;
            }
            let mut held = Walk(&page.0).peekable();
            loop {
                let next = run.peek(&run_pages).filter(&falls);
                let record = match (held.peek().copied(), next) {
                    (None, None) => break,
                    (Some(old), None) => {
                        held.next();
                        old
                    }
                    (Some(old), Some(new)) if old.key_bytes() < new.key_bytes() => {
                        held.next();
                        old
                    }
                    (old, Some(new)) => {
                        if old.is_some_and(|old| old.key_bytes() == new.key_bytes()) {
                            self.count_out(held.next().expect("peeked"));
                        } else if old.is_none() && bound.is_none() && run.at == 0 && !fill.fits(new)
                        {
                            // Past the shard's last key, at the start of
                            // one of the run's pages, with a page closed
                            // in front of it: the rest moves in whole.
                            fill.close(self);
                            break;
                        }
                        self.count_in(new);
                        run.step(new, &run_pages);
                        new
                    }
                };
                fill.push(record, self);
            }
            fill.close(self);
        }
        for slot in run_pages.drain(run.page..) {
            for record in &slot.page {
                self.count_in(record);
            }
            push_slot(&mut self.pages, slot);
        }
    }
}

/// Makes room in a page list for `more` pages: it grows by an eighth at
/// a time, by what is asked at least, so a list of up to sixteen pages
/// is of its exact length.
fn room(pages: &mut Vec<Slot>, more: usize) {
    if pages.capacity() - pages.len() < more {
        pages.reserve_exact(more.max(pages.len() / 8));
    }
}

/// Files `slot` behind the last of `pages`.
fn push_slot(pages: &mut Vec<Slot>, slot: Slot) {
    room(pages, 1);
    pages.push(slot);
}

/// Files the records of `buf` between `bounds` (where each starts, and
/// where the last ends) behind `pages`, halving them until each half fits
/// a page.
fn cut(buf: &[u8], bounds: &[usize], pages: &mut Vec<Page>) {
    let records = bounds.len() - 1;
    let (start, end) = (bounds[0], bounds[records]);
    if fits(records, end - start) {
        pages.push(Page(buf[start..end].into()));
        return;
    }
    let half = records / 2;
    cut(buf, &bounds[..=half], pages);
    cut(buf, &bounds[half..], pages);
}

/// Where a merge is in a run's pages: at byte `at` of page `page`.
#[derive(Debug, Default)]
struct Cursor {
    page: usize,
    at: usize,
}

impl Cursor {
    /// The record the cursor is at.
    fn peek<'p>(&self, pages: &'p [Slot]) -> Option<Record<'p>> {
        let page = pages.get(self.page)?;
        Some(Record::split_first(&page.0[self.at..]).0)
    }

    /// Steps past `record`, the one [`peek`](Self::peek) returned.
    fn step(&mut self, record: Record<'_>, pages: &[Slot]) {
        self.at += record.bytes().len();
        if self.at == pages[self.page].0.len() {
            self.page += 1;
            self.at = 0;
        }
    }
}

/// The page a merge is filling: records copied back to back, closed into
/// a page of its exact size when the next does not fit.
#[derive(Debug)]
struct Fill {
    buf: Vec<u8>,
    records: usize,
}

impl Fill {
    /// A fill with room for a page of many records from the start. A
    /// merge's fill grown from empty by doubling, with page lists grown by
    /// doubling (see [`room`]), left blocks of 16 B to 1 KiB behind
    /// among the pages of a replayed store, a log record's worth a shard,
    /// and `rw_under_pull`'s peak landed in a second layout 2 MiB higher
    /// in about half its runs; with both reserved, in none of 40.
    fn new() -> Self {
        Fill {
            buf: Vec::with_capacity(PAGE_BYTES),
            records: 0,
        }
    }

    fn fits(&self, record: Record<'_>) -> bool {
        fits(self.records + 1, self.buf.len() + record.bytes().len())
    }

    fn push(&mut self, record: Record<'_>, shard: &mut Shard) {
        if !self.fits(record) {
            self.close(shard);
        }
        self.buf.extend_from_slice(record.bytes());
        self.records += 1;
    }

    fn close(&mut self, shard: &mut Shard) {
        if self.records > 0 {
            shard.push_page(Page(self.buf[..].into()));
            self.buf.clear();
            self.records = 0;
        }
    }
}

/// A shard's records as a boot, a log record or a join receives them —
/// an image's, so pushed in strictly ascending key order — written into
/// pages as they arrive: the pages filled so far and one open page, no
/// block a record. Its pages are a shard's as they stand.
#[derive(Debug, Default)]
pub(crate) struct Run {
    pages: Vec<Slot>,
    /// The page being filled: `open_records` records.
    open: Vec<u8>,
    open_records: usize,
    /// Records pushed.
    len: usize,
}

impl Run {
    /// Writes the record of `key`, a key above every key pushed before
    /// it, holding `state` behind those records — into the open page, or
    /// into a new one when it does not fit there.
    pub(crate) fn push(&mut self, key: &str, state: View<'_>) {
        let len = state.record_len(key);
        if self.open_records > 0 && !fits(self.open_records + 1, self.open.len() + len) {
            self.seal();
        }
        // The open page grows by each record's exact length, so the
        // shards' open pages hold nothing beyond their records, and it
        // is a page as it stands.
        self.open.reserve_exact(len);
        Record::write_state(&mut self.open, key, state);
        self.open_records += 1;
        self.len += 1;
    }

    /// Closes the open page: its buffer, exactly sized, becomes a page
    /// behind those before it.
    fn seal(&mut self) {
        if self.open_records == 0 {
            return;
        }
        let page = std::mem::take(&mut self.open).into_boxed_slice();
        push_slot(&mut self.pages, Slot::new(Page(page)));
        self.open_records = 0;
    }

    /// Records pushed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The records pushed, in the order pushed.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record<'_>> {
        let pages = self.pages.iter().flat_map(|slot| &slot.page);
        pages.chain(Walk(&self.open))
    }
}

/// A key's shard index in a map of `count` shards (`count` a power of
/// two): the planner's placement, which both sides of a contact share.
pub(crate) fn shard_index(key: &[u8], count: usize) -> usize {
    shard_of(key, count as u64) as usize
}

/// Records in key order, merged from cursors that each yield records in
/// key order and no key another yields — one per shard. The heap holds
/// each live cursor behind its next record, so a record is compared
/// against the other cursors' next keys alone, about log₂(cursors) times,
/// where a sort of the records compares each about log₂(records) times
/// against records scattered over the heap. It holds the cursors and
/// their heads in one block: nothing that grows with the records.
#[derive(Debug, Clone)]
pub(crate) struct Merge<'a, I> {
    heads: BinaryHeap<Head<'a, I>>,
}

/// A cursor behind its next record and that record's key. The order is
/// the key's, reversed: the heap's greatest is the least key. The key's
/// first eight bytes, zero-padded, are cached as a big-endian number and
/// compared first: two keys that differ there compare as their prefixes
/// do, without a walk to either record's page.
#[derive(Debug, Clone)]
pub(crate) struct Head<'a, I> {
    prefix: u64,
    key: &'a [u8],
    record: Record<'a>,
    rest: I,
}

impl<'a, I: Iterator<Item = Record<'a>>> Merge<'a, I> {
    pub(crate) fn new(cursors: impl Iterator<Item = I>) -> Self {
        let (least, most) = cursors.size_hint();
        Self::with_heads(Vec::with_capacity(most.unwrap_or(least)), cursors)
    }

    /// [`new`](Self::new) into `heads`, an empty list reserved for the
    /// cursors where the caller wants the block to lie.
    pub(crate) fn with_heads(
        mut heads: Vec<Head<'a, I>>,
        cursors: impl Iterator<Item = I>,
    ) -> Self {
        for mut rest in cursors {
            if let Some(record) = rest.next() {
                let key = record.key_bytes();
                heads.push(Head {
                    prefix: prefix(key),
                    key,
                    record,
                    rest,
                });
            }
        }
        Merge {
            heads: heads.into(),
        }
    }
}

impl<'a, I: Iterator<Item = Record<'a>>> Iterator for Merge<'a, I> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        let mut least = self.heads.peek_mut()?;
        let record = least.record;
        match least.rest.next() {
            // Dropping the heap's handle sifts the new head down.
            Some(next) => {
                least.key = next.key_bytes();
                least.prefix = prefix(least.key);
                least.record = next;
            }
            None => {
                PeekMut::pop(least);
            }
        }
        Some(record)
    }
}

impl<I> PartialEq for Head<'_, I> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<I> Eq for Head<'_, I> {}

impl<I> PartialOrd for Head<'_, I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<I> Ord for Head<'_, I> {
    fn cmp(&self, other: &Self) -> Ordering {
        let prefixes = other.prefix.cmp(&self.prefix);
        prefixes.then_with(|| other.key.cmp(self.key))
    }
}

/// The physical shards that hold the records of some plan shards at
/// plan-shard count `count`, and which of their keys those are: plan
/// shard `s` is the physical shards `i ≡ s (mod count)` when the plan is
/// no finer than the store, and a slice of physical shard `s mod
/// physical` when it is.
struct Named {
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
    fn new(shards: &[u64], count: usize, physical: usize) -> Self {
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
}

impl KvStore {
    pub(crate) fn record(&self, key: &[u8]) -> Option<Record<'_>> {
        self.shards[shard_index(key, self.shards.len())].get(key)
    }

    /// Every tracked record, in unspecified order.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record<'_>> {
        self.shards.iter().flat_map(Shard::records)
    }

    /// Every tracked record, in key order — the deterministic order
    /// snapshots and endpoints present, so wire images and stream-id
    /// assignment are independent of the local shard layout: a merge of
    /// the shards' pages, one cursor a shard.
    pub(crate) fn sorted(&self) -> Merge<'_, Records<'_>> {
        Merge::new(self.shards.iter().map(Shard::records))
    }

    /// Calls `visit` on every tracked record of the given plan shards at
    /// plan-shard count `count`, touching only the physical shards they
    /// live in.
    pub(crate) fn visit_shards<'a>(
        &'a self,
        shards: &[u64],
        count: usize,
        mut visit: impl FnMut(Record<'a>),
    ) {
        let named = Named::new(shards, count, self.shards.len());
        for shard in named.holding(&self.shards) {
            for record in shard.records() {
                if named.admits(record.key_bytes()) {
                    visit(record);
                }
            }
        }
    }

    /// The tracked records of the given plan shards at plan-shard count
    /// `count` whose key `keep` admits, in key order: a merge of the
    /// physical shards they live in, each filtered. Walks only what the
    /// plan names, never the rest of the store.
    pub(crate) fn records_in(
        &self,
        shards: &[u64],
        count: usize,
        keep: impl Fn(&[u8]) -> bool,
    ) -> Vec<Record<'_>> {
        let named = Named::new(shards, count, self.shards.len());
        let admit = |record: &Record<'_>| {
            let key = record.key_bytes();
            named.admits(key) && keep(key)
        };
        let holding = named.holding(&self.shards);
        Merge::new(holding.map(|shard| shard.records().filter(admit))).collect()
    }

    /// The tracked records a planned contact runs over, sorted by key —
    /// what either endpoint of it is built from.
    pub(crate) fn records_cut(&self, cut: &Cut<'_>) -> Vec<Record<'_>> {
        self.records_in(cut.walked, cut.count as usize, |key| cut.admits(key))
    }

    /// Inserts or replaces one entry; returns whether its key was
    /// tracked before.
    pub(crate) fn insert(&mut self, key: &str, meta: Srv, value: Option<&[u8]>) -> bool {
        let idx = shard_index(key.as_bytes(), self.shards.len());
        self.shards[idx].write(key, meta, value)
    }
}

#[cfg(test)]
mod tests;
