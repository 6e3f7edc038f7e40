//! The server's answer to a digest vector — which shards to walk, which
//! to bulk-load, and what it offers to narrow — and its codec.

use super::{
    payload, ControlMsg, Gaps, Offer, ShardDigest, MAX_PLAN_SHARDS, TAG_SHARD_PLAN,
    TAG_SHARD_PLAN_REFINED,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::wire;

/// The second level of a [`ShardPlan`]: the server's digests of the
/// children of some of the plan's incremental shards, at
/// `count · fanout`. Child `j` of shard `s` is index `s + j·count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildDigests {
    /// Children per refined shard `F`: a power of two, at least 2,
    /// with `count · F ≤` [`MAX_PLAN_SHARDS`].
    pub fanout: u64,
    /// `(shard, its F children in order of j)`, shards strictly
    /// increasing and each one of the plan's incremental shards.
    pub parents: Vec<(u64, Vec<ShardDigest>)>,
}

/// The server's answer: how each of the puller's shards will be
/// brought up to date. Shards in neither list are skipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPlan {
    /// The shard count the plan (and the restricted endpoints on both
    /// sides) is expressed at — echoes the digest vector's (the puller
    /// rejects a plan at any other count).
    pub count: u64,
    /// Shards to sync incrementally over per-object streams, strictly
    /// increasing: the walked ones and the `proposed`.
    pub incremental: Vec<u64>,
    /// Shards to bulk-load whole, strictly increasing.
    pub bulk: Vec<u64>,
    /// The records of every bulk-loaded shard as one image, in key
    /// order (`KvStore::encode_shard_snapshot` over `bulk`): present
    /// exactly when `bulk` is not empty.
    pub image: Option<Bytes>,
    /// The children of the incremental shards
    /// [`decide`](super::decide()) priced as worth narrowing; `None` when
    /// nothing is refined. A puller may ignore them: without a
    /// [`ShardScope`](super::ShardScope) the contact runs over the refined
    /// shards whole.
    pub children: Option<ChildDigests>,
    /// The incremental shards the server proposes from its change
    /// journal, strictly increasing and none of them among the
    /// `children`; empty on a connection's first contact, and wherever
    /// the journal does not reach back to the last one. Binding: the
    /// server pushes each key it changed there since the last contact,
    /// in the one image behind the plan, and neither end opens any
    /// other key of these shards. A shard whose keys would take the
    /// image past [`MAX_PUSH`](super::MAX_PUSH) is walked, not proposed.
    ///
    /// Not on the wire: a proposed shard is one the push holds a key
    /// of, so a server proposes no shard it pushes nothing into, and
    /// the puller's store reads the list off the push's keys, and
    /// [`pull_planned`](crate::mux::pull_planned) adds it to
    /// `incremental` ([`Restricted::proposed`](crate::mux::Restricted::proposed)).
    /// A decoded plan proposes nothing.
    pub proposed: Vec<u64>,
}

impl ShardPlan {
    /// Shards skipped by this plan (digests matched, or nothing to
    /// pull).
    pub fn skipped(&self) -> u64 {
        self.count
            .saturating_sub(self.incremental.len() as u64)
            .saturating_sub(self.bulk.len() as u64)
    }

    /// The shards the plan serves: its incremental shards, then the
    /// ones it bulk-loads, each in the plan's order.
    pub fn served(&self) -> impl Iterator<Item = u64> + '_ {
        self.incremental.iter().chain(&self.bulk).copied()
    }

    /// The incremental shards the exchange walks: all but the proposed
    /// ones, in the plan's order.
    pub fn walked(&self) -> Vec<u64> {
        (self.incremental.iter().copied())
            .filter(|shard| self.proposed.binary_search(shard).is_err())
            .collect()
    }

    /// What the plan offers to narrow, if anything: the children.
    pub fn offer(&self) -> Option<Offer> {
        let children = self.children.as_ref()?;
        Some(Offer {
            count: self.count,
            fanout: children.fanout,
            parents: children.parents.iter().map(|(shard, _)| *shard).collect(),
        })
    }

    /// Encodes the message. Each list of shards — the walked, the
    /// bulk-loaded and the refined ones — is its length, then its
    /// shards as gaps: the first as it is, every later one as the gap
    /// past its predecessor, less one. Behind a bulk list that is not
    /// empty comes its image, length-prefixed. The children, when present, are
    /// a tail after the unrefined encoding, under their own tag. The
    /// proposed shards are left out: the push behind the plan names
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if a list of shards is not strictly increasing, or if the
    /// image is present where the bulk list is empty or missing where it
    /// is not.
    pub fn encode(&self) -> Bytes {
        payload(self)
    }

    /// The image, exactly when the bulk list is not empty.
    ///
    /// # Panics
    ///
    /// Panics otherwise.
    fn image_of_bulk(&self) -> Option<&Bytes> {
        match (&self.image, self.bulk.is_empty()) {
            (Some(image), false) => Some(image),
            (None, true) => None,
            _ => panic!("an image goes with a bulk list that is not empty, and only with one"),
        }
    }

    /// Decodes a [`ShardPlan`], rejecting truncation, trailing bytes,
    /// a gap that runs to or past the shard count, and shard
    /// counts that are zero, non-power-of-two, or past
    /// [`MAX_PLAN_SHARDS`]; under the refined tag (`0x38`) also a
    /// missing children tail, a fan-out below 2 or with `count · F`
    /// past [`MAX_PLAN_SHARDS`], and refined shards that are not a
    /// selection of the incremental ones. Every length is checked
    /// against what was already decoded, or against the bytes that are
    /// left, before it sizes an allocation. The plan proposes nothing:
    /// what it proposes arrives behind it, as the push.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(buf: &mut Bytes) -> std::result::Result<ShardPlan, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let tag = buf.get_u8();
        if !matches!(tag, TAG_SHARD_PLAN | TAG_SHARD_PLAN_REFINED) {
            return Err(WireError::InvalidPayload);
        }
        let count = wire::get_varint(buf)?;
        if count == 0 || !count.is_power_of_two() || count > MAX_PLAN_SHARDS {
            return Err(WireError::InvalidPayload);
        }
        let n = wire::get_varint(buf)?;
        if n > count {
            return Err(WireError::InvalidPayload);
        }
        let mut incremental = Vec::with_capacity(n as usize);
        let mut gaps = Gaps::default();
        for _ in 0..n {
            incremental.push(gaps.get(buf, count)?);
        }
        let n = wire::get_varint(buf)?;
        if n > count {
            return Err(WireError::InvalidPayload);
        }
        let mut bulk = Vec::with_capacity(n as usize);
        let mut gaps = Gaps::default();
        for _ in 0..n {
            bulk.push(gaps.get(buf, count)?);
        }
        let image = match bulk.is_empty() {
            true => None,
            false => Some(wire::get_bytes(buf)?),
        };
        let children = match tag == TAG_SHARD_PLAN_REFINED {
            true => Some(Self::decode_children(buf, count, &incremental)?),
            false => None,
        };
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(ShardPlan {
            count,
            incremental,
            bulk,
            image,
            children,
            proposed: Vec::new(),
        })
    }

    /// The children tail of a refined plan at `count` shards.
    fn decode_children(
        buf: &mut Bytes,
        count: u64,
        incremental: &[u64],
    ) -> std::result::Result<ChildDigests, WireError> {
        /// A child is a one-byte-or-more entry count, and 8 digest bytes
        /// unless the count is 0.
        const MIN_CHILD_BYTES: u64 = 1;
        let log2 = wire::get_varint(buf)?;
        if log2 == 0 || log2 > 20 || count << log2 > MAX_PLAN_SHARDS {
            return Err(WireError::InvalidPayload);
        }
        let fanout = 1u64 << log2;
        let n = wire::get_varint(buf)?;
        if n == 0 || n > incremental.len() as u64 {
            return Err(WireError::InvalidPayload);
        }
        let mut parents: Vec<(u64, Vec<ShardDigest>)> = Vec::with_capacity(n as usize);
        // Refined shards are a selection of the incremental ones in
        // their order, so one pass over the latter finds them all.
        let mut candidates = incremental.iter();
        let mut gaps = Gaps::default();
        for _ in 0..n {
            let shard = gaps.get(buf, count)?;
            if !candidates.any(|&listed| listed == shard) {
                return Err(WireError::InvalidPayload);
            }
            if (buf.remaining() as u64) < fanout * MIN_CHILD_BYTES {
                return Err(WireError::UnexpectedEof);
            }
            let mut digests = Vec::with_capacity(fanout as usize);
            for _ in 0..fanout {
                digests.push(ShardDigest::get(buf)?);
            }
            parents.push((shard, digests));
        }
        Ok(ChildDigests { fanout, parents })
    }
}

/// The layout [`ShardPlan::encode`] describes.
impl ControlMsg for ShardPlan {
    fn encoded_len(&self) -> usize {
        let list = |shards: &[u64]| {
            wire::varint_len(shards.len() as u64) + Gaps::len(shards.iter().copied())
        };
        let children = self.children.as_ref().map_or(0, |children| {
            let parents = &children.parents;
            let digests = parents.iter().flat_map(|(_, digests)| digests);
            wire::varint_len(u64::from(children.fanout.trailing_zeros()))
                + wire::varint_len(parents.len() as u64)
                + Gaps::len(parents.iter().map(|(shard, _)| *shard))
                + digests.map(ShardDigest::encoded_len).sum::<usize>()
        });
        1 + wire::varint_len(self.count)
            + list(&self.walked())
            + list(&self.bulk)
            + self
                .image_of_bulk()
                .map_or(0, |image| wire::bytes_len(image.len()))
            + children
    }

    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(match &self.children {
            Some(_) => TAG_SHARD_PLAN_REFINED,
            None => TAG_SHARD_PLAN,
        });
        wire::put_varint(buf, self.count);
        for list in [&self.walked(), &self.bulk] {
            wire::put_varint(buf, list.len() as u64);
            let mut gaps = Gaps::default();
            for &shard in list {
                gaps.put(buf, shard);
            }
        }
        if let Some(image) = self.image_of_bulk() {
            wire::put_bytes(buf, image);
        }
        if let Some(children) = &self.children {
            wire::put_varint(buf, u64::from(children.fanout.trailing_zeros()));
            wire::put_varint(buf, children.parents.len() as u64);
            let mut gaps = Gaps::default();
            for (shard, digests) in &children.parents {
                gaps.put(buf, *shard);
                for child in digests {
                    child.put(buf);
                }
            }
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::planner::{DigestVector, ShardScope, TAG_SHARD_DIGESTS};
    use optrep_core::rng::SplitMix64;

    fn sample_plan() -> ShardPlan {
        ShardPlan {
            count: 4,
            incremental: vec![0, 3],
            bulk: vec![2],
            image: Some(Bytes::from_static(b"\x00blob")),
            children: None,
            proposed: Vec::new(),
        }
    }

    #[test]
    fn plan_roundtrip_and_prefixes() {
        let plan = sample_plan();
        let full = plan.encode();
        let mut buf = full.clone();
        assert_eq!(ShardPlan::decode(&mut buf).unwrap(), plan);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(ShardPlan::decode(&mut buf).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn hostile_counts_rejected() {
        // Non-power-of-two and oversized shard counts.
        for count in [0u64, 3, 6, MAX_PLAN_SHARDS * 2] {
            let mut buf = BytesMut::new();
            buf.put_u8(TAG_SHARD_DIGESTS);
            wire::put_varint(&mut buf, count);
            let mut bytes = buf.freeze();
            assert!(DigestVector::decode(&mut bytes).is_err(), "count {count}");
        }
        // A plan index out of range, and a later one whose gap runs to
        // the count or past it, in either list (wrapping included).
        let plan = |incremental: &[u64], bulk: &[u64]| {
            let mut buf = BytesMut::new();
            buf.put_u8(TAG_SHARD_PLAN);
            wire::put_varint(&mut buf, 4);
            wire::put_varint(&mut buf, incremental.len() as u64);
            for &gap in incremental {
                wire::put_varint(&mut buf, gap);
            }
            wire::put_varint(&mut buf, bulk.len() as u64);
            for &gap in bulk {
                wire::put_varint(&mut buf, gap);
            }
            if !bulk.is_empty() {
                wire::put_bytes(&mut buf, b"");
            }
            ShardPlan::decode(&mut buf.freeze())
        };
        let honest = plan(&[1, 1], &[0, 1]).expect("well-formed");
        assert_eq!(honest.served().collect::<Vec<_>>(), [1, 3, 0, 2]);
        for (incremental, bulk) in [
            (&[4][..], &[][..]),
            (&[1, 2], &[]),
            (&[3, 0], &[]),
            (&[0, u64::MAX], &[]),
            (&[], &[0, 3]),
            (&[], &[3, u64::MAX]),
        ] {
            let decoded = plan(incremental, bulk);
            assert_eq!(
                decoded,
                Err(WireError::InvalidPayload),
                "{incremental:?} {bulk:?}"
            );
        }
    }

    /// `sample_plan` with the children of shard 3 offered at F = 2.
    fn refined_plan() -> ShardPlan {
        let child = |digest, entries| ShardDigest { digest, entries };
        ShardPlan {
            children: Some(ChildDigests {
                fanout: 2,
                parents: vec![(3, vec![child(7, 1), child(u64::MAX, 300)])],
            }),
            ..sample_plan()
        }
    }

    /// A seeded refined plan and a scope answering it.
    pub(crate) fn random_refined(seed: u64) -> (ShardPlan, ShardScope) {
        let mut rng = SplitMix64::new(seed);
        let count = 1u64 << (rng.next_u64() % 7);
        let fanout = 2u64 << (rng.next_u64() % 4);
        let incremental: Vec<u64> = (0..count)
            .filter(|_| rng.next_u64() & 1 == 0)
            .chain([count - 1])
            .collect::<std::collections::BTreeSet<u64>>()
            .into_iter()
            .collect();
        let mut parents: Vec<(u64, Vec<ShardDigest>)> = incremental
            .iter()
            .filter(|_| rng.next_u64() & 1 == 0)
            .map(|&shard| (shard, Vec::new()))
            .collect();
        if parents.is_empty() {
            parents.push((incremental[0], Vec::new()));
        }
        let mut children = Vec::new();
        for (shard, digests) in &mut parents {
            for j in 0..fanout {
                let digest = rng.next_u64();
                let entries = rng.next_u64() % 40_000;
                digests.push(ShardDigest {
                    digest: if entries == 0 { 0 } else { digest },
                    entries,
                });
                if rng.next_u64() % 3 < 1 {
                    children.push(*shard + j * count);
                }
            }
        }
        children.sort_unstable();
        let plan = ShardPlan {
            count,
            incremental,
            bulk: Vec::new(),
            image: None,
            children: Some(ChildDigests { fanout, parents }),
            proposed: Vec::new(),
        };
        let scope = ShardScope {
            count: count * fanout,
            children,
        };
        (plan, scope)
    }

    /// Round trip, every strict prefix refused, a trailing byte refused.
    pub(crate) fn assert_strict<T: PartialEq + std::fmt::Debug>(
        value: &T,
        full: Bytes,
        decode: impl Fn(&mut Bytes) -> std::result::Result<T, WireError>,
    ) {
        assert_eq!(&decode(&mut full.clone()).expect("round trip"), value);
        for cut in 0..full.len() {
            assert!(
                decode(&mut full.slice(0..cut)).is_err(),
                "cut {cut} of {value:?}"
            );
        }
        let mut padded = BytesMut::from(&full[..]);
        padded.put_u8(0);
        assert!(decode(&mut padded.freeze()).is_err(), "trailing byte");
    }

    /// A proposed shard is not on the wire: a plan that proposes encodes
    /// as the plan that walks what it walks and proposes nothing, under
    /// the refined tag or the plain one, and decodes as that plan. The
    /// retired proposing tag (`0x3a`) is no plan.
    #[test]
    fn a_proposed_shard_costs_the_plan_frame_nothing() {
        for seed in 0..64 {
            let (mut plan, _) = random_refined(seed);
            let mut rng = SplitMix64::new(seed ^ 0x0005_EED0_FA40_B000);
            let children = plan.children.take().expect("refined");
            let refined = |shard: &u64| {
                let parents = &children.parents;
                parents.binary_search_by_key(shard, |p| p.0).is_ok()
            };
            plan.proposed = (plan.incremental.iter().copied())
                .filter(|shard| !refined(shard) && rng.next_u64() % 3 < 1)
                .collect();
            if seed & 1 == 0 {
                plan.children = Some(children);
            }
            let bare = ShardPlan {
                incremental: plan.walked(),
                proposed: Vec::new(),
                ..plan.clone()
            };
            assert_eq!(plan.encode(), bare.encode(), "seed {seed}");
            assert_strict(&bare, plan.encode(), ShardPlan::decode);
        }
        let mut retired = BytesMut::from(&sample_plan().encode()[..]);
        retired[0] = 0x3a;
        assert_eq!(
            ShardPlan::decode(&mut retired.freeze()),
            Err(WireError::InvalidPayload)
        );
    }

    #[test]
    fn an_unrefined_plan_carries_no_byte_for_what_it_lacks() {
        assert_eq!(
            &sample_plan().encode()[..],
            b"\x36\x04\x02\x00\x02\x01\x02\x05\x00blob"
        );
        let refined = refined_plan().encode();
        assert_eq!(refined[0], TAG_SHARD_PLAN_REFINED);
        assert_eq!(refined[1..13], sample_plan().encode()[1..]);
    }

    /// Bulk-loaded shards are a gap list and one image behind it; a plan
    /// with no bulk shard writes no image, and one with a single bulk
    /// shard is that shard's gap and image, as when each bulk shard
    /// carried its own.
    #[test]
    fn bulk_shards_share_one_image() {
        let plan = ShardPlan {
            count: 4,
            bulk: vec![0, 2, 3],
            image: Some(Bytes::from_static(b"ab")),
            ..ShardPlan::default()
        };
        let full = plan.encode();
        assert_eq!(&full[..], b"\x36\x04\x00\x03\x00\x01\x00\x02ab");
        assert_strict(&plan, full, ShardPlan::decode);
        assert_eq!(plan.skipped(), 1);
        let empty = ShardPlan {
            count: 4,
            ..ShardPlan::default()
        };
        assert_eq!(&empty.encode()[..], b"\x36\x04\x00\x00");
        // An image without a bulk shard, or a bulk shard without one, is
        // no plan a server sends.
        for hostile in [
            ShardPlan {
                image: Some(Bytes::new()),
                ..empty.clone()
            },
            ShardPlan {
                image: None,
                ..plan.clone()
            },
        ] {
            let encoded = std::panic::catch_unwind(|| hostile.encode());
            assert!(encoded.is_err(), "{hostile:?}");
        }
    }

    #[test]
    fn refined_plans_roundtrip_and_reject_every_prefix() {
        let plans = (0..64)
            .map(|seed| random_refined(seed).0)
            .chain([refined_plan()]);
        for plan in plans {
            let full = plan.encode();
            let mut buf = full.clone();
            assert_eq!(ShardPlan::decode(&mut buf).unwrap(), plan);
            for cut in 0..full.len() {
                let mut buf = full.slice(0..cut);
                assert!(
                    ShardPlan::decode(&mut buf).is_err(),
                    "cut {cut} of {plan:?}"
                );
            }
            let mut padded = BytesMut::from(&full[..]);
            padded.put_u8(0);
            assert!(
                ShardPlan::decode(&mut padded.freeze()).is_err(),
                "trailing byte"
            );
        }
    }

    /// The body of a refined plan at 4 shards, incremental `[0, 3]`
    /// (gaps 0, 2), with `tail` for its children.
    fn plan_with_tail(tail: &[u64], digests: usize) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_PLAN_REFINED);
        for v in [4, 2, 0, 2, 0] {
            wire::put_varint(&mut buf, v);
        }
        for &v in tail {
            wire::put_varint(&mut buf, v);
        }
        for _ in 0..digests {
            buf.put_u8(1);
            buf.put_u64(9);
        }
        buf.freeze()
    }

    #[test]
    fn hostile_children_rejected() {
        // The honest shape first: F = 2, one parent, two children.
        ShardPlan::decode(&mut plan_with_tail(&[1, 1, 3], 2)).expect("well-formed");
        let hostile: [(&str, &[u64], usize); 9] = [
            ("no tail under the refined tag", &[], 0),
            ("a fan-out of one", &[0, 1, 3], 1),
            ("count * F past the cap", &[19, 1, 3], 0),
            ("a shift that would overflow", &[64, 1, 3], 0),
            ("no parents", &[1, 0], 0),
            ("more parents than incremental shards", &[1, 3, 0], 2),
            ("a parent the plan skips", &[1, 1, 1], 2),
            ("a parent out of range", &[1, 1, 4], 2),
            ("fewer digests than the fan-out", &[1, 1, 3], 1),
        ];
        for (what, tail, digests) in hostile {
            assert!(
                ShardPlan::decode(&mut plan_with_tail(tail, digests)).is_err(),
                "{what}"
            );
        }
        // Two parents as gaps: 0 then 2 refines both incremental shards;
        // 0 then 0 names shard 1, which the plan skips, and 0 then 3 runs
        // past the count.
        let two_parents = |gaps: [u64; 2]| {
            let mut buf = BytesMut::from(&plan_with_tail(&[1, 2, gaps[0]], 2)[..]);
            wire::put_varint(&mut buf, gaps[1]);
            for _ in 0..2 {
                buf.put_u8(1);
                buf.put_u64(9);
            }
            ShardPlan::decode(&mut buf.freeze())
        };
        let both = two_parents([0, 2]).expect("well-formed");
        assert_eq!(both.offer().expect("an offer").parents, [0, 3]);
        for gaps in [[0u64, 0], [0, 3]] {
            assert!(two_parents(gaps).is_err(), "{gaps:?}");
        }
        // A huge fan-out over a short payload fails on the length
        // check, before the digests are allocated.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_PLAN_REFINED);
        for v in [1, 1, 0, 0, 20, 1, 0] {
            wire::put_varint(&mut buf, v);
        }
        assert_eq!(
            ShardPlan::decode(&mut buf.freeze()),
            Err(WireError::UnexpectedEof)
        );
        // The children tail under the unrefined tag is trailing bytes.
        let mut relabelled = BytesMut::from(&refined_plan().encode()[..]);
        relabelled[0] = TAG_SHARD_PLAN;
        assert!(ShardPlan::decode(&mut relabelled.freeze()).is_err());
    }
}
