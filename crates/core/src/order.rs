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
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn s(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn order(core: &RotCore) -> Vec<(u32, u64)> {
        core.iter().map(|e| (e.site.index(), e.value)).collect()
    }

    #[test]
    fn empty_store() {
        let core = RotCore::new();
        assert!(core.is_empty());
        assert_eq!(core.first(), None);
        assert_eq!(core.last(), None);
        assert_eq!(core.iter().count(), 0);
    }

    #[test]
    fn record_update_rotates_to_front() {
        let mut core = RotCore::new();
        core.record_update(s(0)); // ⟨A:1⟩
        core.record_update(s(1)); // ⟨B:1, A:1⟩
        core.record_update(s(2)); // ⟨C:1, B:1, A:1⟩
        assert_eq!(order(&core), vec![(2, 1), (1, 1), (0, 1)]);
        core.record_update(s(0)); // ⟨A:2, C:1, B:1⟩
        assert_eq!(order(&core), vec![(0, 2), (2, 1), (1, 1)]);
        assert_eq!(core.first().unwrap().site, s(0));
        assert_eq!(core.last().unwrap().site, s(1));
    }

    #[test]
    fn record_update_clears_conflict_bit() {
        let mut core = RotCore::new();
        core.record_update(s(0));
        core.set_conflict_bit(s(0));
        assert!(core.get(s(0)).unwrap().conflict);
        core.record_update(s(0));
        assert!(!core.get(s(0)).unwrap().conflict);
    }

    #[test]
    fn rotate_to_front_and_after() {
        let mut core = RotCore::new();
        for i in [0, 1, 2] {
            core.record_update(s(i));
        }
        // order: C B A
        core.rotate(None, s(0)); // A C B
        assert_eq!(order(&core), vec![(0, 1), (2, 1), (1, 1)]);
        core.rotate(Some(s(0)), s(1)); // A B C
        assert_eq!(order(&core), vec![(0, 1), (1, 1), (2, 1)]);
        // rotating an element after itself is a no-op
        core.rotate(Some(s(1)), s(1));
        assert_eq!(order(&core), vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn rotate_inserts_unknown_site_with_zero_value() {
        let mut core = RotCore::new();
        core.record_update(s(0));
        core.rotate(None, s(9));
        assert_eq!(core.value(s(9)), 0);
        assert_eq!(order(&core), vec![(9, 0), (0, 1)]);
        core.write(s(9), 4, true, false);
        let e = core.get(s(9)).unwrap();
        assert_eq!((e.value, e.conflict, e.segment), (4, true, false));
    }

    #[test]
    fn segment_bit_carries_to_predecessor_on_rotation() {
        let mut core = RotCore::new();
        // Build ⟨C:1, B:1, A:1⟩ with the segment boundary on A (last).
        for i in [0, 1, 2] {
            core.record_update(s(i));
        }
        core.set_segment_bit(s(0));
        // Rotating A to the front must carry the bit to B.
        core.record_update(s(0));
        assert!(
            !core.get(s(0)).unwrap().segment,
            "moved element bit cleared"
        );
        assert!(
            core.get(s(1)).unwrap().segment,
            "bit carried to predecessor"
        );
        assert!(!core.get(s(2)).unwrap().segment);
    }

    #[test]
    fn segment_bit_vanishes_with_front_singleton() {
        let mut core = RotCore::new();
        core.record_update(s(0));
        core.set_segment_bit(s(0));
        // A is the head; rotating it has no predecessor to carry to.
        core.record_update(s(0));
        assert!(!core.get(s(0)).unwrap().segment);
        assert_eq!(core.segments().len(), 1);
    }

    #[test]
    fn segments_split_on_bits() {
        let mut core = RotCore::new();
        for i in [4, 3, 2, 1, 0] {
            core.record_update(s(i));
        }
        // order: A B C D E  — put boundaries after B and D.
        core.set_segment_bit(s(1));
        core.set_segment_bit(s(3));
        let segs = core.segments();
        let names: Vec<Vec<u32>> = segs
            .iter()
            .map(|seg| seg.iter().map(|e| e.site.index()).collect())
            .collect();
        assert_eq!(names, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn is_last_tracks_tail() {
        let mut core = RotCore::new();
        core.record_update(s(0));
        core.record_update(s(1));
        assert!(core.is_last(s(0)));
        assert!(!core.is_last(s(1)));
        assert!(!core.is_last(s(7)));
    }

    #[test]
    fn to_version_vector_drops_order() {
        let mut core = RotCore::new();
        core.record_update(s(0));
        core.record_update(s(1));
        core.record_update(s(0));
        let vv = core.to_version_vector();
        assert_eq!(vv.value(s(0)), 2);
        assert_eq!(vv.value(s(1)), 1);
        assert_eq!(vv.len(), 2);
    }

    #[test]
    fn structural_equality_requires_same_order() {
        let mut a = RotCore::new();
        let mut b = RotCore::new();
        a.record_update(s(0));
        a.record_update(s(1));
        b.record_update(s(1));
        b.record_update(s(0));
        assert_eq!(a.to_version_vector(), b.to_version_vector());
        assert!(!a.structurally_equal(&b));
        assert_ne!(a, b);
        let c = a.clone();
        assert_eq!(a, c);
    }

    #[test]
    fn retain_sites_preserves_order_and_carries_bits() {
        let mut core = RotCore::new();
        for i in [4, 3, 2, 1, 0] {
            core.record_update(s(i));
        }
        // order: A B C D E; boundary on C and on E (tail).
        core.set_segment_bit(s(2));
        core.set_segment_bit(s(4));
        core.set_conflict_bit(s(1));
        // Retire C (boundary carrier) and E (tail boundary carrier).
        let removed = core.retain_sites(|site| site != s(2) && site != s(4));
        assert_eq!(removed, 2);
        let order: Vec<u32> = core.iter().map(|e| e.site.index()).collect();
        assert_eq!(order, vec![0, 1, 3]);
        // C's bit carried to B; E's bit carried to D.
        assert!(core.get(s(1)).unwrap().segment);
        assert!(core.get(s(3)).unwrap().segment);
        assert!(core.get(s(1)).unwrap().conflict, "other bits untouched");
        assert_eq!(core.segments().len(), 2);
    }

    #[test]
    fn retain_sites_dropping_everything() {
        let mut core = RotCore::new();
        core.record_update(s(0));
        assert_eq!(core.retain_sites(|_| false), 1);
        assert!(core.is_empty());
        assert_eq!(core.first(), None);
        // Still usable afterwards.
        core.record_update(s(1));
        assert_eq!(core.len(), 1);
    }

    #[test]
    fn retain_sites_noop_when_all_kept() {
        let mut core = RotCore::new();
        for i in 0..5 {
            core.record_update(s(i));
        }
        let copy = core.clone();
        assert_eq!(core.retain_sites(|_| true), 0);
        assert_eq!(core, copy);
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let mut core = RotCore::new();
        for i in [3, 1, 4, 1, 5, 9, 2, 6] {
            core.record_update(s(i));
        }
        core.set_conflict_bit(s(4));
        core.set_segment_bit(s(1));
        let bytes = core.encode_snapshot();
        let mut buf = bytes;
        let decoded = RotCore::decode_snapshot(&mut buf).unwrap();
        assert!(buf.is_empty());
        assert!(core.structurally_equal(&decoded));
    }

    #[test]
    fn snapshot_of_empty_store() {
        let core = RotCore::new();
        let mut buf = core.encode_snapshot();
        let decoded = RotCore::decode_snapshot(&mut buf).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let mut core = RotCore::new();
        core.record_update(s(300));
        let bytes = core.encode_snapshot();
        for cut in 0..bytes.len() {
            let mut buf = bytes.slice(0..cut);
            assert!(RotCore::decode_snapshot(&mut buf).is_err(), "cut {cut}");
        }
    }

    /// Sites the seeded tests draw from: enough that a run crosses
    /// `INDEX_ABOVE` and `retain_sites` can bring it back under.
    const SITES: u64 = 24;

    /// The naive rotating vector the model test checks against: the
    /// elements themselves, in `≺` order, every operation a linear walk.
    #[derive(Debug, Clone, Default)]
    struct Model(Vec<Element>);

    impl Model {
        fn position(&self, site: SiteId) -> Option<usize> {
            self.0.iter().position(|e| e.site == site)
        }

        fn ensure(&mut self, site: SiteId) -> usize {
            self.position(site).unwrap_or_else(|| {
                self.0.push(Element {
                    site,
                    value: 0,
                    conflict: false,
                    segment: false,
                });
                self.0.len() - 1
            })
        }

        /// Takes `site`'s element out, its segment bit carried to its
        /// predecessor (§4).
        fn detach(&mut self, at: usize) -> Element {
            let mut e = self.0.remove(at);
            if e.segment && at > 0 {
                self.0[at - 1].segment = true;
            }
            e.segment = false;
            e
        }

        fn record_update(&mut self, site: SiteId) {
            let at = self.ensure(site);
            let mut e = self.detach(at);
            e.value += 1;
            e.conflict = false;
            self.0.insert(0, e);
        }

        fn rotate(&mut self, after: Option<SiteId>, site: SiteId) {
            let at = self.ensure(site);
            if after == Some(site) {
                return;
            }
            let e = self.detach(at);
            let to = after.map_or(0, |p| self.position(p).unwrap() + 1);
            self.0.insert(to, e);
        }

        fn retain(&mut self, keep: impl Fn(SiteId) -> bool) {
            let mut kept: Vec<Element> = Vec::new();
            for e in self.0.drain(..) {
                if keep(e.site) {
                    kept.push(e);
                } else if let (true, Some(prev)) = (e.segment, kept.last_mut()) {
                    prev.segment = true;
                }
            }
            self.0 = kept;
        }
    }

    /// Every read the public API offers, for every site in range and one
    /// outside it, plus the slab's own invariants.
    fn assert_matches(core: &RotCore, model: &Model, ctx: &str) {
        let listed: Vec<Element> = core.iter().collect();
        assert_eq!(listed, model.0, "{ctx}: iter");
        assert_eq!(core.len(), model.0.len(), "{ctx}: len");
        assert_eq!(core.first(), model.0.first().copied(), "{ctx}: first");
        assert_eq!(core.last(), model.0.last().copied(), "{ctx}: last");
        for i in 0..=SITES as u32 {
            let at = model.position(s(i));
            let e = at.map(|at| model.0[at]);
            assert_eq!(core.get(s(i)), e, "{ctx}: get {i}");
            assert_eq!(
                core.value(s(i)),
                e.map_or(0, |e| e.value),
                "{ctx}: value {i}"
            );
            let last = at.is_some_and(|at| at + 1 == model.0.len());
            assert_eq!(core.is_last(s(i)), last, "{ctx}: is_last {i}");
            let next = at.and_then(|at| model.0.get(at + 1).copied());
            assert_eq!(core.next_in_order(s(i)), next, "{ctx}: next_in_order {i}");
        }
        assert_eq!(
            core.index.is_some(),
            core.slots.len() > INDEX_ABOVE,
            "{ctx}: the index exists exactly past the threshold"
        );
        // `prev` links mirror `next`: walking back from the tail is the
        // reverse listing.
        let mut back = Vec::new();
        let mut cursor = core.tail;
        while cursor != NIL {
            back.push(core.element(cursor));
            cursor = core.slots[cursor as usize].prev;
        }
        back.reverse();
        assert_eq!(back, model.0, "{ctx}: prev links");
    }

    /// One seeded operation applied to both; returns `true` when it was a
    /// `retain_sites` that took the vector from indexed to scanned.
    fn step(core: &mut RotCore, model: &mut Model, rng: &mut SplitMix64) -> bool {
        let site = s((rng.next_u64() % SITES) as u32);
        let present = |model: &Model, rng: &mut SplitMix64| {
            (!model.0.is_empty())
                .then(|| model.0[(rng.next_u64() % model.0.len() as u64) as usize].site)
        };
        match rng.next_u64() % 20 {
            0..=6 => {
                core.record_update(site);
                model.record_update(site);
            }
            7..=11 => {
                let after = match rng.next_u64() % 3 {
                    0 => None,
                    _ => present(model, rng),
                };
                core.rotate(after, site);
                model.rotate(after, site);
            }
            12..=13 => {
                if let Some(site) = present(model, rng) {
                    let bits = rng.next_u64();
                    let (value, conflict, segment) =
                        (bits >> 8 & 0xff, bits & 1 == 1, bits & 2 == 2);
                    core.write(site, value, conflict, segment);
                    let at = model.position(site).unwrap();
                    model.0[at] = Element {
                        site,
                        value,
                        conflict,
                        segment,
                    };
                }
            }
            14..=15 => {
                if let Some(site) = present(model, rng) {
                    let at = model.position(site).unwrap();
                    if rng.next_u64() & 1 == 0 {
                        core.set_segment_bit(site);
                        model.0[at].segment = true;
                    } else {
                        core.set_conflict_bit(site);
                        model.0[at].conflict = true;
                    }
                }
            }
            16 => {
                // Keep three sites in four, or one in four.
                let (a, b) = (rng.next_u64(), rng.next_u64());
                let mask = if rng.next_u64() & 1 == 0 {
                    a | b
                } else {
                    a & b
                };
                let keep = |site: SiteId| mask >> site.index() & 1 == 1;
                let indexed = core.index.is_some();
                let removed = core.retain_sites(keep);
                let before = model.0.len();
                model.retain(keep);
                assert_eq!(removed, before - model.0.len());
                return indexed && core.index.is_none();
            }
            17 => {
                let copy = core.clone();
                assert!(copy.structurally_equal(core));
                *core = copy;
            }
            _ => {
                let mut image = core.encode_snapshot();
                let decoded = RotCore::decode_snapshot(&mut image).unwrap();
                assert!(image.is_empty());
                assert!(decoded.structurally_equal(core));
                *core = decoded;
            }
        }
        false
    }

    #[test]
    fn index_threshold_is_invisible() {
        let mut came_back_under = 0;
        for seed in 0..256u64 {
            let mut rng = SplitMix64::new(seed);
            let (mut core, mut model) = (RotCore::new(), Model::default());
            let mut peak = 0;
            for i in 0..200 {
                came_back_under += usize::from(step(&mut core, &mut model, &mut rng));
                assert_matches(&core, &model, &format!("seed {seed}, step {i}"));
                peak = peak.max(core.len());
            }
            assert!(
                peak > INDEX_ABOVE,
                "seed {seed} never crossed the threshold"
            );
        }
        assert!(came_back_under > 0, "no retain_sites dropped an index");
    }

    /// A seeded vector of up to `SITES` elements with bits set.
    fn random_core(seed: u64) -> RotCore {
        let mut rng = SplitMix64::new(seed);
        let (mut core, mut model) = (RotCore::new(), Model::default());
        for _ in 0..rng.next_u64() % 40 {
            step(&mut core, &mut model, &mut rng);
        }
        core
    }

    /// What `encode_snapshot` writes, from a bare element list — so a test
    /// can write what no encoder would.
    fn image_of(elements: &[Element]) -> Bytes {
        let mut buf = BytesMut::new();
        wire::put_varint(&mut buf, elements.len() as u64);
        for e in elements {
            wire::put_varint(&mut buf, u64::from(e.site.index()));
            wire::put_varint(
                &mut buf,
                e.value << 2 | u64::from(e.conflict) << 1 | u64::from(e.segment),
            );
        }
        buf.freeze()
    }

    #[test]
    fn snapshot_decoder_round_trips_and_rejects_prefixes_and_repeats() {
        for seed in 0..64u64 {
            let core = random_core(seed);
            let elements: Vec<Element> = core.iter().collect();
            let image = core.encode_snapshot();
            assert_eq!(image, image_of(&elements), "seed {seed}");
            let mut buf = image.clone();
            let decoded = RotCore::decode_snapshot(&mut buf).unwrap();
            assert!(buf.is_empty(), "seed {seed}");
            assert!(decoded.structurally_equal(&core), "seed {seed}");
            for cut in 0..image.len() {
                let mut buf = image.slice(0..cut);
                assert!(
                    RotCore::decode_snapshot(&mut buf).is_err(),
                    "seed {seed}, cut {cut}"
                );
            }
            // Each position in turn names the site the next one holds.
            let n = elements.len();
            for at in (0..n).filter(|_| n > 1) {
                let mut repeated = elements.clone();
                repeated[at].site = elements[(at + 1) % n].site;
                assert_eq!(
                    RotCore::decode_snapshot(&mut image_of(&repeated)),
                    Err(WireError::InvalidPayload),
                    "seed {seed}, repeat at {at}"
                );
            }
        }
    }

    #[test]
    fn a_site_above_u32_is_refused_not_renamed() {
        // One element, site 2³² + 1, value 1: truncated, it would decode
        // as site 1.
        let mut image = BytesMut::new();
        wire::put_varint(&mut image, 1);
        wire::put_varint(&mut image, (1 << 32) + 1);
        wire::put_varint(&mut image, 4);
        assert_eq!(
            RotCore::decode_snapshot(&mut image.freeze()),
            Err(WireError::InvalidPayload)
        );
    }

    #[test]
    fn snapshot_len_is_what_put_snapshot_writes() {
        for seed in 0..64u64 {
            let core = random_core(seed);
            let mut written = Vec::new();
            core.put_snapshot(&mut written);
            assert_eq!(written.len(), core.snapshot_len(), "seed {seed}");
            assert_eq!(written, core.encode_snapshot(), "seed {seed}");
            // A slice decodes like a `Bytes`.
            let mut slice = &written[..];
            let decoded = RotCore::decode_snapshot(&mut slice).unwrap();
            assert!(slice.is_empty() && decoded.structurally_equal(&core));
        }
    }

    #[test]
    fn snapshot_count_beyond_the_payload_is_eof() {
        let mut core = RotCore::new();
        core.record_update(s(1));
        core.record_update(s(2));
        let image = core.encode_snapshot();
        // Two elements of two bytes each; claim three, then far too many.
        for claimed in [3, 1 << 20, u64::MAX] {
            let mut buf = BytesMut::new();
            wire::put_varint(&mut buf, claimed);
            buf.extend_from_slice(&image[1..]);
            assert_eq!(
                RotCore::decode_snapshot(&mut buf.freeze()),
                Err(WireError::UnexpectedEof),
                "claimed {claimed}"
            );
        }
    }

    #[test]
    fn single_element_rotate_keeps_list_sane() {
        let mut core = RotCore::new();
        core.record_update(s(0));
        core.record_update(s(0));
        assert_eq!(order(&core), vec![(0, 2)]);
        assert_eq!(core.first(), core.last());
    }
}
