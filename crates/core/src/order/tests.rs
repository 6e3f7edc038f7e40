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
                let (value, conflict, segment) = (bits >> 8 & 0xff, bits & 1 == 1, bits & 2 == 2);
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
        let mut into = vec![0; written.len()];
        core.write_snapshot(&mut into);
        assert_eq!(into, written, "seed {seed}");
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

/// What decoding `image` and encoding the vector back gives, and how
/// many bytes it read: the reference `recode_snapshot` is held to.
fn recoded_by_the_vector(image: &[u8]) -> (Result<Vec<u8>, WireError>, usize) {
    let mut buf = image;
    let decoded = RotCore::decode_snapshot(&mut buf).map(|core| {
        let mut out = Vec::new();
        core.put_snapshot(&mut out);
        out
    });
    (decoded, image.len() - buf.len())
}

/// The re-encoder writes what a decode and an encode write, and
/// refuses what the decoder refuses with the same error, over seeded
/// vectors on both sides of eight sites, each image overlong in each
/// varint in turn, and every truncation, byte flip and one-byte
/// insertion of them, and images repeating a site.
#[test]
fn recoding_a_snapshot_is_decoding_and_encoding_it() {
    let overlong = |elements: &[Element], at: usize| {
        let mut buf = BytesMut::new();
        let put = |buf: &mut BytesMut, value: u64, pad: bool| {
            wire::put_varint(buf, value);
            if pad {
                let last = buf.len() - 1;
                buf[last] |= 0x80;
                buf.put_u8(0);
            }
        };
        put(&mut buf, elements.len() as u64, at == 0);
        for (i, e) in elements.iter().enumerate() {
            put(&mut buf, u64::from(e.site.index()), at == 2 * i + 1);
            put(&mut buf, packed(e), at == 2 * i + 2);
        }
        buf.freeze()
    };
    let (mut spilled, mut refused) = (0, 0);
    crate::rng::cases(64, |seed, rng| {
        let core = random_core(seed);
        let elements: Vec<Element> = core.iter().collect();
        spilled += usize::from(elements.len() > INDEX_ABOVE);
        let mut images = vec![core.encode_snapshot()];
        images.extend((0..=2 * elements.len()).map(|at| overlong(&elements, at)));
        let mut hostile = Vec::new();
        for at in (1..elements.len()).filter(|_| elements.len() > 1) {
            let mut repeated = elements.clone();
            repeated[at].site = elements[at - 1].site;
            hostile.push(image_of(&repeated).to_vec());
        }
        for image in &images {
            hostile.extend((0..image.len()).map(|cut| image[..cut].to_vec()));
            for at in 0..image.len() {
                let mut flipped = image.to_vec();
                flipped[at] ^= 1 << rng.below(8);
                hostile.push(flipped);
                let mut inserted = image.to_vec();
                inserted.insert(at, rng.next_u64() as u8);
                hostile.push(inserted);
            }
        }
        for image in images.iter().map(|image| image.to_vec()).chain(hostile) {
            let (expected, read) = recoded_by_the_vector(&image);
            let mut out = vec![0xee];
            let mut buf = &image[..];
            let recoded = RotCore::recode_snapshot(&mut buf, &mut out);
            refused += usize::from(recoded.is_err());
            let recoded = recoded.map(|()| out[1..].to_vec());
            assert_eq!(recoded, expected, "seed {seed}, {image:?}");
            if expected.is_ok() {
                assert_eq!(image.len() - buf.len(), read, "seed {seed}, {image:?}");
            } else {
                assert_eq!(out, [0xee], "seed {seed}: out is left as it was");
            }
        }
    });
    assert!(spilled > 0 && refused > 0, "{spilled} {refused}");
}

#[test]
fn single_element_rotate_keeps_list_sane() {
    let mut core = RotCore::new();
    core.record_update(s(0));
    core.record_update(s(0));
    assert_eq!(order(&core), vec![(0, 2)]);
    assert_eq!(core.first(), core.last());
}
