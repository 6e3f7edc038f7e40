//! One shard of the key space — its records in pages, its content
//! digest and counts, changed only through [`Shard::place`] and
//! [`Shard::append`]. A page is an image of its records ([`Coded`]): its
//! first key and vector written whole, each key after them front-coded
//! against the key before, and each vector written only where it is not
//! the vector of the record before. The walks over a store's shards — in
//! no order, or in key order as one merge of the shards' sorted pages —
//! are in [`walk`].

use crate::record::{entry_hash, shared_prefix, Coded, Key, View};
use crate::KvStore;
use optrep_core::{RotatingVector, SiteId, Srv};
use optrep_replication::planner::{shard_of, ShardDigest};
use std::cmp::Ordering;
use std::ops::Range;

mod walk;

pub(crate) use walk::{Cursor, Merge, Named, Records};

/// The most records a page holds.
const PAGE_RECORDS: usize = 16;

/// The most bytes a page of more than one record holds: a record longer
/// than this is a page of its own.
const PAGE_BYTES: usize = 4096;

/// Whether `records` records of `bytes` bytes in all make one page.
fn fits(records: usize, bytes: usize) -> bool {
    records == 1 || (records <= PAGE_RECORDS && bytes <= PAGE_BYTES)
}

/// Records written back to back in strictly ascending key order, each
/// against the one before it ([`Coded`]), as many as [`fits`]: one
/// exactly sized block for up to sixteen keys, where a block a record
/// paid a malloc header and a set slot a key. Ordered by its first key,
/// which it holds whole at its front.
#[derive(Debug, Clone)]
pub(crate) struct Page(Box<[u8]>);

impl Page {
    fn first_key(&self) -> &[u8] {
        Coded::split_first(&self.0).0.rest
    }
}

/// A key's first eight bytes, zero-padded, as a big-endian number: two
/// keys whose prefixes differ compare as their prefixes do.
fn prefix(key: &[u8]) -> u64 {
    if let Some(bytes) = key.first_chunk::<8>() {
        return u64::from_be_bytes(*bytes);
    }
    let mut bytes = [0; 8];
    bytes[..key.len()].copy_from_slice(key);
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

/// How the record `coded` compares with `key`, given the length of the
/// prefix the record before it (the page's records below `key`) shares
/// with `key`, and the length of the prefix the record shares with
/// `key`. No key is rebuilt: a record that shares more with the record
/// before than `key` does is below `key` as that one was, one that
/// shares less is above it, and only one that shares as much is
/// compared, from there.
fn against(coded: &Coded<'_>, key: &[u8], matched: usize) -> (Ordering, usize) {
    match coded.shared.cmp(&matched) {
        Ordering::Greater => (Ordering::Less, matched),
        Ordering::Less => (Ordering::Greater, coded.shared),
        Ordering::Equal => {
            let tail = &key[matched..];
            let common = shared_prefix(coded.rest, tail);
            let order = match (coded.rest.get(common), tail.get(common)) {
                (Some(ours), Some(theirs)) => ours.cmp(theirs),
                (ours, theirs) => ours.is_some().cmp(&theirs.is_some()),
            };
            (order, matched + common)
        }
    }
}

/// Where a key stands in a page, found by one walk of it that rebuilds
/// no key ([`against`]): what [`Shard::place`] re-encodes there.
#[derive(Debug)]
struct Spot<'p> {
    /// Where the key's record starts, or where it would.
    start: usize,
    /// The length of the prefix the key shares with the record before
    /// it: 0 at the front of the page.
    shared: usize,
    /// The vector of the record before it; empty at the front of the
    /// page (no vector snapshot is empty).
    before: &'p [u8],
    /// The record the key holds, and where it ends.
    held: Option<(View<'p>, usize)>,
    /// The record after the key, coded against it, its vector whole, and
    /// where it ends.
    next: Option<(Coded<'p>, usize)>,
    /// The records of the page up to the record after the key.
    records: usize,
}

impl<'p> Spot<'p> {
    fn find(page: &'p [u8], key: &[u8]) -> Self {
        let mut spot = Spot {
            start: 0,
            shared: 0,
            before: &[],
            held: None,
            next: None,
            records: 0,
        };
        let mut rest = page;
        while !rest.is_empty() {
            let (coded, after) = Coded::split_first(rest);
            let (order, common) = against(&coded, key, spot.shared);
            spot.records += 1;
            rest = after;
            let at = |rest: &[u8]| page.len() - rest.len();
            match order {
                Ordering::Less => {
                    spot.start = at(rest);
                    spot.shared = common;
                    spot.before = coded.vector.unwrap_or(spot.before);
                    continue;
                }
                Ordering::Equal => {
                    let vector = coded.vector.unwrap_or(spot.before);
                    spot.held = Some((coded.view(spot.before), at(rest)));
                    if !rest.is_empty() {
                        let (next, beyond) = Coded::split_first(rest);
                        spot.next = Some((next.whole(vector), at(beyond)));
                        spot.records += 1;
                    }
                }
                Ordering::Greater => {
                    // The record above the key now follows it: it shares
                    // with the key what it shares with the key, at least
                    // what it shared with the record before.
                    let next = Coded {
                        shared: common,
                        rest: &coded.rest[common - coded.shared..],
                        ..coded.whole(spot.before)
                    };
                    spot.next = Some((next, at(rest)));
                }
            }
            break;
        }
        spot
    }

    /// The records of `page`, the page it was found in.
    fn records(&self, page: &[u8]) -> usize {
        let (mut rest, mut records) = (&page[self.end()..], self.records);
        while !rest.is_empty() {
            rest = Coded::split_first(rest).1;
            records += 1;
        }
        records
    }

    /// Where the records the key's write re-encodes end: its own and the
    /// one after it.
    fn end(&self) -> usize {
        match (&self.next, &self.held) {
            (Some((_, end)), _) | (None, Some((_, end))) => *end,
            (None, None) => self.start,
        }
    }
}

impl<'a> Coded<'a> {
    /// The state it holds, `vector` the vector of the record before it.
    fn view(&self, before: &'a [u8]) -> View<'a> {
        View {
            meta: self.vector.unwrap_or(before),
            value: self.value,
        }
    }

    /// It with its vector written out, `before` the vector of the record
    /// before it: to be re-coded behind another.
    fn whole(self, before: &'a [u8]) -> Self {
        Coded {
            vector: Some(self.vector.unwrap_or(before)),
            ..self
        }
    }

    /// It, its vector written out, behind a record whose vector is
    /// `before`: left out where they are the same.
    fn behind(self, before: &[u8]) -> Self {
        let vector = self.vector.filter(|vector| *vector != before);
        Coded { vector, ..self }
    }
}

/// What [`Shard::place`] stores for a key: a state to copy, or a vector
/// and a value to write.
pub(crate) enum New<'a> {
    State(View<'a>),
    Entry(Srv, Option<&'a [u8]>),
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
    /// digest's, so [`KvStore::len`](crate::KvStore::len) need not walk.
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

    /// The state `key` holds, tombstones included: a walk of the one page
    /// it would be in, the last that starts at or before it, that
    /// rebuilds no key ([`against`]) and holds the vector last written.
    pub(crate) fn get(&self, key: &[u8]) -> Option<View<'_>> {
        let page = &self.pages[self.pages_at_or_below(key).checked_sub(1)?];
        let (mut rest, mut matched, mut before) = (&page.0[..], 0, &[][..]);
        while !rest.is_empty() {
            let (coded, after) = Coded::split_first(rest);
            let (order, common) = against(&coded, key, matched);
            match order {
                Ordering::Less => {}
                Ordering::Equal => return Some(coded.view(before)),
                Ordering::Greater => return None,
            }
            before = coded.vector.unwrap_or(before);
            (rest, matched) = (after, common);
        }
        None
    }

    /// Every record, in key order.
    pub(crate) fn records(&self) -> Records<'_> {
        Records::of(&self.pages)
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

    /// What storing `state` under `key` in place of whatever the key
    /// holds would do to [`summary`](Self::summary): its hash in, the
    /// held record's out, and one more entry if the key is not held.
    pub(crate) fn change_of(&self, key: &[u8], state: View<'_>) -> ShardDigest {
        let held = self.get(key);
        ShardDigest {
            digest: entry_hash(key, state)
                .wrapping_sub(held.map_or(0, |held| entry_hash(key, held))),
            entries: u64::from(held.is_none()),
        }
    }

    /// Records holding a value.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Counts `key` holding `state` in: the digest, the live count, the
    /// entries.
    fn count_in(&mut self, key: &[u8], state: View<'_>) {
        self.digest = self.digest.wrapping_add(entry_hash(key, state));
        self.live += usize::from(state.value.is_some());
        self.entries += 1;
    }

    /// Counts `key` holding `state` out, as [`count_in`](Self::count_in)
    /// counted it.
    fn count_out(&mut self, key: &[u8], state: View<'_>) {
        self.digest = self.digest.wrapping_sub(entry_hash(key, state));
        self.live -= usize::from(state.value.is_some());
        self.entries -= 1;
    }

    /// A local write of `key`: its vector, derived from the one it held,
    /// counts one more update at `site`.
    pub(crate) fn put(&mut self, key: &str, site: SiteId, value: Option<&[u8]>) {
        self.place(key.as_bytes(), |held| {
            let mut meta = held.map_or_else(Srv::new, |held| held.srv());
            meta.record_update(site);
            New::Entry(meta, value)
        });
    }

    /// Stores one entry in place of whatever its key held; returns
    /// whether the key was tracked before.
    pub(crate) fn write(&mut self, key: &str, meta: Srv, value: Option<&[u8]>) -> bool {
        self.place(key.as_bytes(), |_| New::Entry(meta, value))
    }

    /// Stores `key` holding a copy of `state` in place of whatever the
    /// key held; returns whether the key was tracked before.
    pub(crate) fn upsert(&mut self, key: &[u8], state: View<'_>) -> bool {
        self.place(key, |_| New::State(state))
    }

    /// Stores what `new` makes of the state `key` holds, in place of it,
    /// and brings the digest and the counts in step: the one place any
    /// of them changes but [`append`](Self::append). Returns whether the
    /// key was tracked before. One walk of the one page the key belongs
    /// in finds the held record and where the key goes ([`Spot`]). A
    /// record is coded against the one before it, so a write re-encodes
    /// two: the key's own, and the one after it, whose vector the key's
    /// may have been or become. Where the two keep their length between
    /// them — a value of the same length, the vector changed or not, and
    /// the record after repeating or writing its own vector as before —
    /// they are overwritten where they stand, else the page is rewritten into a
    /// block of its new size, the records around those two copied. (A
    /// page resized in its own block instead, by `realloc`, left
    /// `dense_pull`'s peak 1.6 % higher, 0 of 4 pairs lower: a block
    /// shrunk where it lies leaves a fragment behind.) Over a cap,
    /// a record after the page's last key starts a page of its own, so an
    /// ascending load leaves every page full, and anything else splits
    /// the page in halves. Records are never removed (a delete writes a
    /// tombstone), so pages never merge.
    pub(crate) fn place<'n>(
        &mut self,
        key: &[u8],
        new: impl FnOnce(Option<View<'_>>) -> New<'n>,
    ) -> bool {
        let mut snapshot = Key::default();
        let Some(at) = self.page_of(key) else {
            let state = written(new(None), &mut snapshot);
            self.alone(0, key, state);
            return false;
        };
        let page = &self.pages[at].0;
        let spot = Spot::find(page, key);
        let state = written(new(spot.held.map(|(held, _)| held)), &mut snapshot);
        let tracked = spot.held.is_some();
        let out = spot
            .held
            .map(|(held, _)| (entry_hash(key, held), held.value.is_some()));
        // The key's record against the record before, and the record
        // after against it.
        let own = Coded {
            shared: spot.shared,
            rest: &key[spot.shared..],
            vector: Some(state.meta),
            value: state.value,
        }
        .behind(spot.before);
        let next = spot.next.map(|(next, _)| next.behind(state.meta));
        let (start, end) = (spot.start, spot.end());
        let len = own.len() + next.map_or(0, |next| next.len());
        // The same lengths: the records are overwritten where they stand
        // and the page keeps its block. Rewriting the page into a new
        // block of about 4 KiB for every changed value left the heap in
        // holes whose layout moved with the order keys changed in.
        // (The record after is read from the bytes it is written over,
        // so both are written aside first.)
        let placed = if tracked && len == end - start {
            let mut coded = Vec::with_capacity(len);
            write(&own, &mut coded);
            next.inspect(|next| write(next, &mut coded));
            Placed::Over(coded)
        } else {
            let records = spot.records(page) + usize::from(!tracked);
            let total = page.len() - (end - start) + len;
            match !tracked && start == page.len() && !fits(records, total) {
                true => Placed::Alone,
                false => {
                    let mut buf = Vec::with_capacity(total);
                    buf.extend_from_slice(&page[..start]);
                    write(&own, &mut buf);
                    next.inspect(|next| write(next, &mut buf));
                    buf.extend_from_slice(&page[end..]);
                    Placed::Rewrite(buf, records)
                }
            }
        };
        let hash = entry_hash(key, state);
        if let Some((hash, live)) = out {
            self.digest = self.digest.wrapping_sub(hash);
            self.live -= usize::from(live);
            self.entries -= 1;
        }
        self.digest = self.digest.wrapping_add(hash);
        self.live += usize::from(state.value.is_some());
        self.entries += 1;
        match placed {
            Placed::Over(coded) => self.pages[at].page.0[start..end].copy_from_slice(&coded),
            Placed::Alone => self.new_page(at + 1, key, state),
            Placed::Rewrite(buf, records) => self.file(at, buf, records),
        }
        tracked
    }

    /// Files `page` behind the last.
    fn push_page(&mut self, page: Page) {
        push_slot(&mut self.pages, Slot::new(page));
    }

    /// Stores `key` holding `state`, a key no page holds, as a page of its
    /// own at index `at`, counted in.
    fn alone(&mut self, at: usize, key: &[u8], state: View<'_>) {
        self.count_in(key, state);
        self.new_page(at, key, state);
    }

    /// Files `key` holding `state`, counted, as a page of its own at index
    /// `at`.
    fn new_page(&mut self, at: usize, key: &[u8], state: View<'_>) {
        let coded = Coded::of(key, state, None);
        let mut buf = Vec::with_capacity(coded.len());
        write(&coded, &mut buf);
        room(&mut self.pages, 1);
        (self.pages).insert(at, Slot::new(Page(buf.into_boxed_slice())));
    }

    /// Files `records` records, written back to back in key order in
    /// `buf`, as the pages that replace page `at`, the one they came
    /// from: one page, if they fit one, else halves, halved again until
    /// each fits, each re-encoded from its first record whole.
    fn file(&mut self, at: usize, buf: Vec<u8>, records: usize) {
        if fits(records, buf.len()) {
            self.pages[at] = Slot::new(Page(buf.into_boxed_slice()));
            return;
        }
        // The records' keys, rebuilt back to back, and each record's key
        // and state.
        let mut keys = Vec::new();
        let mut held: Vec<(Range<usize>, View<'_>)> = Vec::with_capacity(records);
        let mut walk = Records::of_bytes(&buf);
        while walk.step() {
            let start = keys.len();
            keys.extend_from_slice(walk.key());
            held.push((start..keys.len(), walk.view()));
        }
        let mut halves = Vec::new();
        cut(&keys, &held, &mut halves);
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
            let mut records = run.records();
            while records.step() {
                self.upsert(records.key(), records.view());
            }
            return;
        }
        run.seal();
        if self.entries > 0 {
            return self.merge(run.pages);
        }
        let mut records = Records::of(&run.pages);
        while records.step() {
            self.count_in(records.key(), records.view());
        }
        self.pages = run.pages;
    }

    /// Merges `run`'s pages, their keys strictly ascending, into this
    /// shard, which holds records: see [`append`](Self::append).
    fn merge(&mut self, mut run_pages: Vec<Slot>) {
        let mut run = Records::of(&run_pages);
        if !run.step() {
            return;
        }
        let from = self.page_of(run.key()).expect("a shard that holds records");
        let mut pages = self.pages.split_off(from).into_iter().peekable();
        let mut fill = Fill::new();
        let mut live = true;
        while let Some(page) = pages.next() {
            // The run's records below the next page's first key fall in
            // this page; past the last page, all of them do.
            let bound = pages.peek().map(|slot| slot.first_key());
            let falls = |key: &[u8]| bound.is_none_or(|bound| key < bound);
            if !(live && falls(run.key())) {
                push_slot(&mut self.pages, page);
                continue;
            }
            let mut held = Records::of(std::slice::from_ref(&page));
            let mut holds = held.step();
            loop {
                let next = live && falls(run.key());
                let take_held = match (holds, next) {
                    (false, false) => break,
                    (true, false) => true,
                    (true, true) => held.key() < run.key(),
                    (false, true) => false,
                };
                if take_held {
                    fill.push(held.key(), held.view(), self);
                    holds = held.step();
                    continue;
                }
                if holds && held.key() == run.key() {
                    self.count_out(held.key(), held.view());
                    holds = held.step();
                } else if !holds && bound.is_none() && run.at_page_start() && !fill.fits(&run) {
                    // Past the shard's last key, at the start of one of
                    // the run's pages, with a page closed in front of
                    // it: the rest moves in whole.
                    fill.close(self);
                    break;
                }
                self.count_in(run.key(), run.view());
                fill.push(run.key(), run.view(), self);
                live = run.step();
            }
            fill.close(self);
        }
        let rest = if live { run.page() } else { run_pages.len() };
        for slot in run_pages.drain(rest..) {
            let mut records = Records::of(std::slice::from_ref(&slot));
            while records.step() {
                self.count_in(records.key(), records.view());
            }
            push_slot(&mut self.pages, slot);
        }
    }
}

/// The state `new` stands for, a vector's snapshot written into
/// `snapshot`.
fn written<'n>(new: New<'n>, snapshot: &'n mut Key) -> View<'n> {
    match new {
        New::State(state) => state,
        New::Entry(meta, value) => View::written(&meta, value, snapshot),
    }
}

/// How [`Shard::place`] writes a key's record: with the record after it,
/// over theirs; as a page of its own behind the key's; or into the page's
/// rewrite, of so many records.
enum Placed {
    Over(Vec<u8>),
    Alone,
    Rewrite(Vec<u8>, usize),
}

/// Appends `coded` to `buf`.
fn write(coded: &Coded<'_>, buf: &mut Vec<u8>) {
    coded.write_to(buf).expect("a Vec takes every byte");
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

/// Files `records` — each a key's bounds in `keys` and its state — behind
/// `pages`, each page coded from its first record whole, halving them
/// until each half fits a page.
fn cut(keys: &[u8], records: &[(Range<usize>, View<'_>)], pages: &mut Vec<Page>) {
    let mut open = Open::default();
    for (key, state) in records {
        let coded = open.coded(&keys[key.clone()], *state);
        open.buf.reserve_exact(coded.len());
        open.put(coded);
    }
    if fits(records.len(), open.buf.len()) {
        pages.push(open.take());
        return;
    }
    let half = records.len() / 2;
    cut(keys, &records[..half], pages);
    cut(keys, &records[half..], pages);
}

/// A page being written: its records coded back to back, each against
/// the one before it, with the last key and where the last vector
/// written lies.
#[derive(Debug, Default)]
struct Open {
    buf: Vec<u8>,
    records: usize,
    /// The key of the last record.
    key: Key,
    /// Where the vector of the last record lies in `buf`.
    vector: Range<usize>,
}

impl Open {
    /// `key` holding `state` as it would be coded behind the last record.
    fn coded<'k>(&self, key: &'k [u8], state: View<'k>) -> Coded<'k> {
        let last = || (self.key.as_slice(), &self.buf[self.vector.clone()]);
        let before = (self.records > 0).then(last);
        Coded::of(key, state, before)
    }

    /// Whether `coded` fits behind the records written.
    fn fits(&self, coded: &Coded<'_>) -> bool {
        fits(self.records + 1, self.buf.len() + coded.len())
    }

    /// Writes `coded`, as [`coded`](Self::coded) coded it, behind the
    /// last record.
    fn put(&mut self, coded: Coded<'_>) {
        write(&coded, &mut self.buf);
        if let Some(vector) = coded.vector {
            let end = self.buf.len() - coded.value.map_or(0, <[u8]>::len);
            self.vector = end - vector.len()..end;
        }
        self.key.rebuild(coded.shared, coded.rest);
        self.records += 1;
    }

    /// The records written, as a page of their exact size; the writer is
    /// left empty, its buffer kept.
    fn take(&mut self) -> Page {
        let page = Page(self.buf[..].into());
        self.buf.clear();
        self.records = 0;
        page
    }
}

/// The page a merge is filling: records coded back to back, closed into
/// a page of its exact size when the next does not fit.
#[derive(Debug)]
struct Fill(Open);

impl Fill {
    /// A fill with room for a page of many records from the start. A
    /// merge's fill grown from empty by doubling, with page lists grown by
    /// doubling (see [`room`]), left blocks of 16 B to 1 KiB behind
    /// among the pages of a replayed store, a log record's worth a shard,
    /// and `rw_under_pull`'s peak landed in a second layout 2 MiB higher
    /// in about half its runs; with both reserved, in none of 40.
    fn new() -> Self {
        Fill(Open {
            buf: Vec::with_capacity(PAGE_BYTES),
            ..Open::default()
        })
    }

    /// Whether the record `at` is at fits behind the records filled.
    fn fits(&self, at: &Records<'_>) -> bool {
        self.0.fits(&self.0.coded(at.key(), at.view()))
    }

    fn push(&mut self, key: &[u8], state: View<'_>, shard: &mut Shard) {
        if self.0.records > 0 && !self.0.fits(&self.0.coded(key, state)) {
            self.close(shard);
        }
        let coded = self.0.coded(key, state);
        self.0.put(coded);
    }

    fn close(&mut self, shard: &mut Shard) {
        if self.0.records > 0 {
            shard.push_page(self.0.take());
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
    /// The page being filled.
    open: Open,
    /// Records pushed.
    len: usize,
}

impl Run {
    /// Writes the record of `key`, a key above every key pushed before
    /// it, holding `state` behind those records — into the open page, or
    /// into a new one when it does not fit there.
    pub(crate) fn push(&mut self, key: &str, state: View<'_>) {
        let key = key.as_bytes();
        if self.open.records > 0 && !self.open.fits(&self.open.coded(key, state)) {
            self.seal();
        }
        let coded = self.open.coded(key, state);
        // The open page grows by each record's exact length, so the
        // shards' open pages hold nothing beyond their records, and it
        // is a page as it stands.
        self.open.buf.reserve_exact(coded.len());
        self.open.put(coded);
        self.len += 1;
    }

    /// Closes the open page: its buffer, exactly sized, becomes a page
    /// behind those before it.
    fn seal(&mut self) {
        if self.open.records == 0 {
            return;
        }
        let page = std::mem::take(&mut self.open.buf).into_boxed_slice();
        push_slot(&mut self.pages, Slot::new(Page(page)));
        self.open.records = 0;
    }

    /// Records pushed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The records pushed, in the order pushed, the open page closed
    /// first.
    pub(crate) fn records(&mut self) -> Records<'_> {
        self.seal();
        Records::of(&self.pages)
    }
}

impl KvStore {
    /// The state `key` holds, tombstones included.
    pub(crate) fn view(&self, key: &[u8]) -> Option<View<'_>> {
        self.shards[shard_index(key, self.shards.len())].get(key)
    }

    /// Inserts or replaces one entry; returns whether its key was
    /// tracked before.
    pub(crate) fn insert(&mut self, key: &str, meta: Srv, value: Option<&[u8]>) -> bool {
        let idx = shard_index(key.as_bytes(), self.shards.len());
        self.shards[idx].write(key, meta, value)
    }
}

/// A key's shard index in a map of `count` shards (`count` a power of
/// two): the planner's placement, which both sides of a contact share.
pub(crate) fn shard_index(key: &[u8], count: usize) -> usize {
    shard_of(key, count as u64) as usize
}

#[cfg(test)]
mod tests;
