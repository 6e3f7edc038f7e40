//! The ordered element store shared by all rotating-vector types.
//!
//! A rotating vector is a version vector paired with a total order `≺` of
//! its elements (§3.1). [`RotCore`] stores elements in a slab with an
//! intrusive doubly-linked list for the order, which is the paper's O(n)
//! storage (§3.3 "the total order can be implemented as a doubly linked
//! list"): one 24-byte slot per element and nothing else while the vector
//! is small. Site lookup scans the slab up to a constant bound
//! (`INDEX_ABOVE` = 8 slots, three cache lines); past it, a boxed hash index
//! is built once and maintained, so lookup, insertion and rotation stay
//! O(1) at any `n`. A replicated store holds one vector per key and nearly
//! all of them name one or two sites, so the small case is the one that
//! sets the store's memory; the experiments' n = 1024/4096 vectors are the
//! ones the index serves.
//!
//! Each element carries the *conflict bit* used by CRV (§3.2) and the
//! *segment bit* used by SRV (§4); [`crate::Brv`] simply ignores them.
//! The `ROTATE` operation implements the paper's modified rotation rule:
//! when an element with its segment bit set moves, the bit is carried to
//! its predecessor in `≺` so that segment boundaries survive rotation.

use crate::error::WireError;
use crate::site::SiteId;
use crate::vv::VersionVector;
use crate::wire;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;

const NIL: u32 = u32::MAX;

/// Slab length above which a vector carries a hash index. Up to here
/// `find` compares at most eight `u32`s in 192 contiguous bytes, which is
/// cheaper than one SipHash of the key, and a vector this small would be
/// outweighed several times over by the index's own header and table.
const INDEX_ABOVE: usize = 8;

/// One element of a rotating vector: the pair `(i, v[i])` plus the CRV
/// conflict bit and the SRV segment bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Element {
    /// The site name `i`.
    pub site: SiteId,
    /// The value `v[i]`: number of updates made on site `i`.
    pub value: u64,
    /// CRV conflict bit `v.c[i]` (§3.2). Always `false` in a BRV.
    pub conflict: bool,
    /// SRV segment bit `v.s[i]` (§4): set on the last element of a segment.
    /// Always `false` in a BRV or CRV.
    pub segment: bool,
}

/// An element's value and bits as one snapshot varint.
fn packed(e: &Element) -> u64 {
    e.value << 2 | u64::from(e.conflict) << 1 | u64::from(e.segment)
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    site: SiteId,
    value: u64,
    conflict: bool,
    segment: bool,
    prev: u32,
    next: u32,
}

/// Version-vector state with a maintained total order of elements.
///
/// `head` is the least (first) element `⌊v⌋` — the most recently updated —
/// and `tail` is the greatest (last) element `⌈v⌉`. Values are monotone:
/// elements are inserted on first update and never removed.
#[derive(Debug, Clone)]
pub struct RotCore {
    slots: Vec<Slot>,
    /// Site → slot, present iff `slots.len() > INDEX_ABOVE`. Boxed on
    /// purpose: the small vectors that never build it then carry 8 bytes
    /// for it, not a 48-byte map header.
    #[allow(clippy::box_collection)]
    index: Option<Box<HashMap<SiteId, u32>>>,
    head: u32,
    tail: u32,
}

impl Default for RotCore {
    fn default() -> Self {
        Self::new()
    }
}

impl RotCore {
    /// Creates an empty store.
    pub fn new() -> Self {
        RotCore {
            slots: Vec::new(),
            index: None,
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of elements (sites with at least one update).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` iff no site has updated yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The value `v[i]`, zero if the site has no element yet.
    pub fn value(&self, site: SiteId) -> u64 {
        self.find(site)
            .map_or(0, |ix| self.slots[ix as usize].value)
    }

    /// The full element for `site`, if present.
    pub fn get(&self, site: SiteId) -> Option<Element> {
        self.find(site).map(|ix| self.element(ix))
    }

    /// The least (first) element `⌊v⌋` in `≺` — the most recent update.
    pub fn first(&self) -> Option<Element> {
        (self.head != NIL).then(|| self.element(self.head))
    }

    /// The greatest (last) element `⌈v⌉` in `≺`.
    pub fn last(&self) -> Option<Element> {
        (self.tail != NIL).then(|| self.element(self.tail))
    }

    /// `true` iff `site` holds the last position in `≺` (`cur = ⌈v⌉`).
    pub fn is_last(&self, site: SiteId) -> bool {
        self.find(site)
            .is_some_and(|ix| self.slots[ix as usize].next == NIL)
    }

    /// The element directly following `site` in `≺` (`cur`'s successor in
    /// Algorithms 2–4), or `None` if `site` is last or absent.
    pub fn next_in_order(&self, site: SiteId) -> Option<Element> {
        let ix = self.find(site)?;
        let next = self.slots[ix as usize].next;
        (next != NIL).then(|| self.element(next))
    }

    /// Iterates elements in `≺` order (first to last).
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            core: self,
            cursor: self.head,
        }
    }

    /// Records one local update on `site` (§3.1): increments `v[i]`,
    /// clears the conflict bit ("reset whenever `v[i]` is incremented due
    /// to a replica update"), clears the segment bit (the element joins the
    /// open front segment), and performs `ROTATE(φ, i)` so the element
    /// becomes `⌊v⌋`. Returns the new value.
    pub fn record_update(&mut self, site: SiteId) -> u64 {
        let ix = self.ensure(site);
        let slot = &mut self.slots[ix as usize];
        slot.value += 1;
        let value = slot.value;
        slot.conflict = false;
        self.detach_with_carry(ix);
        self.link_front(ix);
        self.slots[ix as usize].segment = false;
        value
    }

    /// The paper's `ROTATE(p, i)` with the §4 segment-carry rule: moves
    /// `site`'s element so it directly follows `after` (or becomes `⌊v⌋`
    /// when `after` is `None`, i.e. `p = φ`). If the moved element's
    /// segment bit was set, the bit is carried to its former predecessor.
    ///
    /// Inserts the element (with value 0 and clear bits) if the site has no
    /// element yet, which happens when a receiver learns of a new site.
    ///
    /// # Panics
    ///
    /// Panics if `after` names a site with no element — callers only ever
    /// pass the previously rotated element (`prev` in Algorithms 2–4).
    pub fn rotate(&mut self, after: Option<SiteId>, site: SiteId) {
        let ix = self.ensure(site);
        let after_ix = after.map(|p| {
            self.find(p)
                .expect("ROTATE(p, i): p must name an existing element")
        });
        if let Some(p) = after_ix {
            if p == ix {
                return; // already in place
            }
        }
        self.detach_with_carry(ix);
        match after_ix {
            None => self.link_front(ix),
            Some(p) => self.link_after(p, ix),
        }
    }

    /// Overwrites the element fields for `site` (used by sync receivers
    /// after [`rotate`](Self::rotate): `a[i] ← u_i; a.c[i] ← c_i;
    /// a.s[i] ← s_i`).
    ///
    /// # Panics
    ///
    /// Panics if the site has no element; receivers always rotate first,
    /// which inserts it.
    pub fn write(&mut self, site: SiteId, value: u64, conflict: bool, segment: bool) {
        let slot = self.slot_mut(site);
        slot.value = value;
        slot.conflict = conflict;
        slot.segment = segment;
    }

    /// Sets the segment bit of `site`'s element (`a.s[prev] ← 1`, Alg. 4
    /// line 10).
    ///
    /// # Panics
    ///
    /// Panics if the site has no element.
    pub fn set_segment_bit(&mut self, site: SiteId) {
        self.slot_mut(site).segment = true;
    }

    /// Sets the conflict bit of `site`'s element.
    ///
    /// # Panics
    ///
    /// Panics if the site has no element.
    pub fn set_conflict_bit(&mut self, site: SiteId) {
        self.slot_mut(site).conflict = true;
    }

    /// Copies values (ignoring order and bits) into a plain
    /// [`VersionVector`].
    pub fn to_version_vector(&self) -> VersionVector {
        self.iter()
            .filter(|e| e.value > 0)
            .map(|e| (e.site, e.value))
            .collect()
    }

    /// Replaces this store with an exact structural copy of `other`
    /// (values, order and bits). Used for whole-state adoption in manual
    /// conflict resolution.
    pub fn clone_from_other(&mut self, other: &RotCore) {
        *self = other.clone();
    }

    /// Structural equality: same values, same `≺` order, same bits.
    pub fn structurally_equal(&self, other: &RotCore) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }

    /// Removes the elements of all sites rejected by `keep`, preserving
    /// the order and bits of the remaining elements. Segment bits of
    /// removed elements carry to their nearest remaining predecessor in
    /// `≺`, mirroring the rotation rule, so segment structure stays sound.
    ///
    /// This is the §7 "removing inactive sites" extension (Ratner et al.,
    /// Saito): correct only once every replica has agreed the site retired
    /// and its updates are fully propagated — a distributed-membership
    /// concern the caller owns. A peer that still carries the element will
    /// simply re-introduce it on the next synchronization.
    ///
    /// Runs in O(n); pruning is a rare administrative action.
    pub fn retain_sites(&mut self, keep: impl Fn(SiteId) -> bool) -> usize {
        let mut kept: Vec<Element> = Vec::with_capacity(self.len());
        let mut removed = 0;
        for e in self.iter() {
            if keep(e.site) {
                kept.push(e);
            } else {
                removed += 1;
                if e.segment {
                    if let Some(prev) = kept.last_mut() {
                        prev.segment = true;
                    }
                }
            }
        }
        let mut rebuilt = RotCore::with_exact_capacity(kept.len());
        for e in kept {
            rebuilt.push_back(e);
        }
        *self = rebuilt;
        removed
    }

    /// Serializes the full store (values, order and bits) into a compact
    /// snapshot for durable persistence: a varint element count followed
    /// by `(site, value·4 | conflict·2 | segment)` varint pairs in `≺`
    /// order.
    pub fn encode_snapshot(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.snapshot_len());
        self.put_snapshot(&mut buf);
        buf.freeze()
    }

    /// Appends what [`encode_snapshot`](Self::encode_snapshot) returns to
    /// `buf`: for a caller that frames the vector inside a larger record
    /// and wants no buffer in between.
    pub fn put_snapshot(&self, buf: &mut impl BufMut) {
        wire::put_varint(buf, self.len() as u64);
        for e in self.iter() {
            wire::put_varint(buf, u64::from(e.site.index()));
            wire::put_varint(buf, packed(&e));
        }
    }

    /// Writes what [`put_snapshot`](Self::put_snapshot) appends into
    /// `out`, a buffer of exactly [`snapshot_len`](Self::snapshot_len)
    /// bytes: for a caller that keeps a short snapshot where no `BufMut`
    /// reaches, such as an inline buffer on the stack.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not [`snapshot_len`](Self::snapshot_len) bytes.
    pub fn write_snapshot(&self, mut out: &mut [u8]) {
        let mut write =
            |value| wire::write_varint(&mut out, value).expect("a buffer of the length");
        write(self.len() as u64);
        for e in self.iter() {
            write(u64::from(e.site.index()));
            write(packed(&e));
        }
        assert!(out.is_empty(), "a buffer of the snapshot's length");
    }

    /// The number of bytes [`put_snapshot`](Self::put_snapshot) writes.
    pub fn snapshot_len(&self) -> usize {
        let elements = self
            .iter()
            .map(|e| wire::varint_len(u64::from(e.site.index())) + wire::varint_len(packed(&e)));
        wire::varint_len(self.len() as u64) + elements.sum::<usize>()
    }

    /// Rebuilds a store from [`encode_snapshot`](Self::encode_snapshot)
    /// output — a [`Bytes`] in flight or a `&[u8]` field of a stored
    /// record: the slab is filled in `≺` order at exact capacity, no
    /// intermediate list.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input: an
    /// element count the remaining bytes cannot hold is
    /// [`WireError::UnexpectedEof`] before anything is allocated, and an
    /// image naming a site twice, or a site above `u32::MAX`, is
    /// [`WireError::InvalidPayload`] (no encoder writes one, and
    /// accepting it would silently drop or rename an element).
    pub fn decode_snapshot(buf: &mut impl Buf) -> Result<RotCore, WireError> {
        let n = wire::get_varint(buf)?;
        // Two varints, so at least two bytes, per element.
        if n > (buf.remaining() / 2) as u64 {
            return Err(WireError::UnexpectedEof);
        }
        let mut core = RotCore::with_exact_capacity(n as usize);
        for _ in 0..n {
            let site = wire::get_site(buf)?;
            let packed = wire::get_varint(buf)?;
            if core.find(site).is_some() {
                return Err(WireError::InvalidPayload);
            }
            core.push_back(Element {
                site,
                value: packed >> 2,
                conflict: packed >> 1 & 1 == 1,
                segment: packed & 1 == 1,
            });
        }
        Ok(core)
    }

    /// Appends to `out` exactly the bytes [`put_snapshot`](Self::put_snapshot)
    /// writes for the vector [`decode_snapshot`](Self::decode_snapshot)
    /// reads off `buf`, without building it: every varint rewritten
    /// minimal, no slab. What a store writes for a vector it reads.
    ///
    /// # Errors
    ///
    /// What [`decode_snapshot`](Self::decode_snapshot) returns for the
    /// same bytes, and `out` is left as it was. Repeated sites are found
    /// by sorting the sites read: on the stack for up to eight of them
    /// (`INDEX_ABOVE`), in a scratch buffer past that.
    pub fn recode_snapshot(buf: &mut impl Buf, out: &mut Vec<u8>) -> Result<(), WireError> {
        let start = out.len();
        let recoded = Self::recode(buf, out);
        if recoded.is_err() {
            out.truncate(start);
        }
        recoded
    }

    fn recode(buf: &mut impl Buf, out: &mut Vec<u8>) -> Result<(), WireError> {
        let n = wire::get_varint(buf)?;
        if n > (buf.remaining() / 2) as u64 {
            return Err(WireError::UnexpectedEof);
        }
        wire::put_varint(out, n);
        let n = n as usize;
        let mut inline = [0u32; INDEX_ABOVE];
        let mut spilled = Vec::new();
        let sites = match inline.get_mut(..n) {
            Some(sites) => sites,
            None => {
                spilled.resize(n, 0);
                &mut spilled[..]
            }
        };
        // `decode_snapshot` refuses a repeat as soon as it reads it: a
        // site repeated among the elements read whole comes before any
        // error of the element after them.
        let repeats = |sites: &mut [u32]| {
            sites.sort_unstable();
            sites.windows(2).any(|pair| pair[0] == pair[1])
        };
        for read in 0..n {
            let element = wire::get_site(buf).and_then(|site| Ok((site, wire::get_varint(buf)?)));
            let (site, packed) = match element {
                Ok(element) => element,
                Err(_) if repeats(&mut sites[..read]) => return Err(WireError::InvalidPayload),
                Err(e) => return Err(e),
            };
            sites[read] = site.index();
            wire::put_varint(out, u64::from(site.index()));
            wire::put_varint(out, packed);
        }
        if repeats(sites) {
            return Err(WireError::InvalidPayload);
        }
        Ok(())
    }

    /// The segments of this vector, in `≺` order: maximal runs ending at an
    /// element with the segment bit set (the final run may be "open", i.e.
    /// not terminated by a bit). Each segment is a list of elements.
    pub fn segments(&self) -> Vec<Vec<Element>> {
        let mut segments = Vec::new();
        let mut current = Vec::new();
        for e in self.iter() {
            let boundary = e.segment;
            current.push(e);
            if boundary {
                segments.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            segments.push(current);
        }
        segments
    }

    fn element(&self, ix: u32) -> Element {
        let slot = &self.slots[ix as usize];
        Element {
            site: slot.site,
            value: slot.value,
            conflict: slot.conflict,
            segment: slot.segment,
        }
    }

    /// An empty store whose slab holds `n` elements without regrowing.
    fn with_exact_capacity(n: usize) -> Self {
        let mut core = RotCore::new();
        core.slots.reserve_exact(n);
        core
    }

    /// Index of `site`'s slot: a scan of the slab while it is small, the
    /// hash index once it exists.
    fn find(&self, site: SiteId) -> Option<u32> {
        match &self.index {
            Some(index) => index.get(&site).copied(),
            None => self
                .slots
                .iter()
                .position(|slot| slot.site == site)
                .map(|ix| ix as u32),
        }
    }

    /// The slot of a site that must have an element.
    fn slot_mut(&mut self, site: SiteId) -> &mut Slot {
        let ix = self.find(site).expect("site has an element");
        &mut self.slots[ix as usize]
    }

    /// Index of `site`'s slot, inserting a zero-valued element at the back
    /// of `≺` if absent.
    fn ensure(&mut self, site: SiteId) -> u32 {
        self.find(site).unwrap_or_else(|| {
            self.push_back(Element {
                site,
                value: 0,
                conflict: false,
                segment: false,
            })
        })
    }

    /// Appends an element for a site that has none as the new `⌈v⌉`,
    /// returning its slot index. The slab grows by exact doubling from one
    /// slot, so a one-site vector owns 24 bytes of heap, and the index is
    /// built when the slab first outgrows [`INDEX_ABOVE`].
    fn push_back(&mut self, e: Element) -> u32 {
        if self.slots.len() == self.slots.capacity() {
            self.slots.reserve_exact(self.slots.len().max(1));
        }
        let ix = self.slots.len() as u32;
        self.slots.push(Slot {
            site: e.site,
            value: e.value,
            conflict: e.conflict,
            segment: e.segment,
            prev: self.tail,
            next: NIL,
        });
        if self.tail != NIL {
            self.slots[self.tail as usize].next = ix;
        } else {
            self.head = ix;
        }
        self.tail = ix;
        match &mut self.index {
            Some(index) => {
                index.insert(e.site, ix);
            }
            None if self.slots.len() > INDEX_ABOVE => {
                let sites = self.slots.iter().zip(0u32..);
                self.index = Some(Box::new(sites.map(|(slot, i)| (slot.site, i)).collect()));
            }
            None => {}
        }
        ix
    }

    /// Unlinks `ix` from the order, carrying its segment bit to its former
    /// predecessor (§4: "when the element is rotated, the bit shall be
    /// carried on to its predecessor in the order of ≺").
    fn detach_with_carry(&mut self, ix: u32) {
        let (prev, next, segment) = {
            let slot = &self.slots[ix as usize];
            (slot.prev, slot.next, slot.segment)
        };
        if segment && prev != NIL {
            self.slots[prev as usize].segment = true;
        }
        self.slots[ix as usize].segment = false;
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let slot = &mut self.slots[ix as usize];
        slot.prev = NIL;
        slot.next = NIL;
    }

    fn link_front(&mut self, ix: u32) {
        let old_head = self.head;
        {
            let slot = &mut self.slots[ix as usize];
            slot.prev = NIL;
            slot.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = ix;
        } else {
            self.tail = ix;
        }
        self.head = ix;
    }

    fn link_after(&mut self, p: u32, ix: u32) {
        let p_next = self.slots[p as usize].next;
        {
            let slot = &mut self.slots[ix as usize];
            slot.prev = p;
            slot.next = p_next;
        }
        self.slots[p as usize].next = ix;
        if p_next != NIL {
            self.slots[p_next as usize].prev = ix;
        } else {
            self.tail = ix;
        }
    }
}

impl PartialEq for RotCore {
    fn eq(&self, other: &Self) -> bool {
        self.structurally_equal(other)
    }
}

impl Eq for RotCore {}

/// Iterator over elements in `≺` order. Created by [`RotCore::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    core: &'a RotCore,
    cursor: u32,
}

impl Iterator for Iter<'_> {
    type Item = Element;

    fn next(&mut self) -> Option<Element> {
        if self.cursor == NIL {
            return None;
        }
        let e = self.core.element(self.cursor);
        self.cursor = self.core.slots[self.cursor as usize].next;
        Some(e)
    }
}

#[cfg(test)]
mod tests;
