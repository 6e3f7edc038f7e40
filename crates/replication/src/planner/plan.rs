//! The server's answer to a digest vector — which shards to walk, which
//! to bulk-load, and what it offers to narrow — and its codec.

use super::{
    Offer, ShardDigest, MAX_PLAN_SHARDS, TAG_SHARD_PLAN, TAG_SHARD_PLAN_PROPOSED,
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

/// One shard whose scope the server proposes itself: the keys its
/// journal says it changed since the connection's last contact, and the
/// digest of the rest of the shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proposal {
    /// The shard, one of the plan's incremental ones.
    pub shard: u64,
    /// Where the changed keys live at [`MAX_PLAN_SHARDS`] — their
    /// placement hashes masked that wide, so each is `shard` in its low
    /// bits — strictly increasing, at least one. A candidate admits
    /// every key placed under it.
    pub candidates: Vec<u64>,
    /// The server's `(digest, entries)` of the shard *without* the
    /// entries under the candidates. A puller whose own shard, less its
    /// own entries under them, summarises to the same pair holds every
    /// other entry of the shard identically.
    pub residual: ShardDigest,
}

/// A proposal on the wire, in a plan at `1 << shift` shards: the shard,
/// the number of candidates, each candidate as what is left of it above
/// the shard's bits (the first as it is, every later one as the gap past
/// its predecessor, less one — no encoding lists candidates out of order
/// or twice), then the residual.
pub(super) fn put_proposal(
    buf: &mut BytesMut,
    shard: u64,
    candidates: &[u64],
    residual: &ShardDigest,
    shift: u32,
) {
    wire::put_varint(buf, shard);
    wire::put_varint(buf, candidates.len() as u64);
    let mut next = 0;
    for candidate in candidates {
        let above = candidate >> shift;
        wire::put_varint(buf, above - next);
        next = above + 1;
    }
    residual.put(buf);
}

/// The server's answer: how each of the puller's shards will be
/// brought up to date. Shards in neither list are skipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPlan {
    /// The shard count the plan (and the restricted endpoints on both
    /// sides) is expressed at — echoes the digest vector's (the puller
    /// rejects a plan at any other count).
    pub count: u64,
    /// Shards to sync incrementally over per-object streams.
    pub incremental: Vec<u64>,
    /// Shards to apply as whole snapshots: `(shard index, blob)` where
    /// the blob is the server's shard image
    /// (`KvStore::encode_shard_snapshot` format).
    pub snapshots: Vec<(u64, Bytes)>,
    /// The children of the incremental shards
    /// [`decide`](super::decide()) priced as worth narrowing; `None` when
    /// nothing is refined. A puller may ignore them: without a
    /// [`ShardScope`](super::ShardScope) the contact runs over the whole
    /// incremental shards.
    pub children: Option<ChildDigests>,
    /// The incremental shards whose scope the server proposes from its
    /// change journal, shards strictly increasing and none of them among
    /// the `children`; empty on a connection's first contact, and
    /// wherever the journal does not reach back to the last one. A
    /// puller may ignore these too.
    pub proposed: Vec<Proposal>,
}

impl ShardPlan {
    /// Shards skipped by this plan (digests matched, or nothing to
    /// pull).
    pub fn skipped(&self) -> u64 {
        self.count
            .saturating_sub(self.incremental.len() as u64)
            .saturating_sub(self.snapshots.len() as u64)
    }

    /// What the plan offers to narrow, if anything.
    pub fn offer(&self) -> Option<Offer> {
        if self.children.is_none() && self.proposed.is_empty() {
            return None;
        }
        let (fanout, parents) = match &self.children {
            Some(children) => (
                children.fanout,
                children.parents.iter().map(|(shard, _)| *shard).collect(),
            ),
            None => (1, Vec::new()),
        };
        let candidates = |p: &Proposal| (p.shard, p.candidates.clone());
        Some(Offer {
            count: self.count,
            fanout,
            parents,
            proposed: self.proposed.iter().map(candidates).collect(),
        })
    }

    /// Encodes the message. The children, when present, are a tail
    /// after the unrefined encoding, under their own tag; proposals,
    /// when present, a tail behind that — or behind a zero byte where
    /// there are no children — under a third.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(match (&self.children, self.proposed.is_empty()) {
            (_, false) => TAG_SHARD_PLAN_PROPOSED,
            (Some(_), true) => TAG_SHARD_PLAN_REFINED,
            (None, true) => TAG_SHARD_PLAN,
        });
        wire::put_varint(&mut buf, self.count);
        wire::put_varint(&mut buf, self.incremental.len() as u64);
        for &shard in &self.incremental {
            wire::put_varint(&mut buf, shard);
        }
        wire::put_varint(&mut buf, self.snapshots.len() as u64);
        for (shard, blob) in &self.snapshots {
            wire::put_varint(&mut buf, *shard);
            wire::put_bytes(&mut buf, blob);
        }
        if !self.proposed.is_empty() {
            buf.put_u8(u8::from(self.children.is_some()));
        }
        if let Some(children) = &self.children {
            wire::put_varint(&mut buf, u64::from(children.fanout.trailing_zeros()));
            wire::put_varint(&mut buf, children.parents.len() as u64);
            for (shard, digests) in &children.parents {
                wire::put_varint(&mut buf, *shard);
                for child in digests {
                    child.put(&mut buf);
                }
            }
        }
        if !self.proposed.is_empty() {
            wire::put_varint(&mut buf, self.proposed.len() as u64);
            let shift = self.count.trailing_zeros();
            for p in &self.proposed {
                put_proposal(&mut buf, p.shard, &p.candidates, &p.residual, shift);
            }
        }
        buf.freeze()
    }

    /// Decodes a [`ShardPlan`], rejecting truncation, trailing bytes,
    /// out-of-range or unsorted-duplicate shard indices, and shard
    /// counts that are zero, non-power-of-two, or past
    /// [`MAX_PLAN_SHARDS`]; under the refined tag (`0x38`) also a
    /// missing children tail, a fan-out below 2 or with `count · F`
    /// past [`MAX_PLAN_SHARDS`], and refined shards that are not a
    /// strictly increasing selection of the incremental ones; under
    /// the proposing tag (`0x3a`) a missing proposals tail, proposed
    /// shards that are not such a selection or that are also refined,
    /// and candidates that are none, out of order or past the shard's
    /// `MAX_PLAN_SHARDS ∕ count`. Every length is checked against what
    /// was already decoded, or against the bytes that are left, before
    /// it sizes an allocation.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(buf: &mut Bytes) -> std::result::Result<ShardPlan, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let tag = buf.get_u8();
        if !matches!(
            tag,
            TAG_SHARD_PLAN | TAG_SHARD_PLAN_REFINED | TAG_SHARD_PLAN_PROPOSED
        ) {
            return Err(WireError::InvalidPayload);
        }
        let count = wire::get_varint(buf)?;
        if count == 0 || !count.is_power_of_two() || count > MAX_PLAN_SHARDS {
            return Err(WireError::InvalidPayload);
        }
        let read_index = |buf: &mut Bytes| -> std::result::Result<u64, WireError> {
            let shard = wire::get_varint(buf)?;
            if shard >= count {
                return Err(WireError::InvalidPayload);
            }
            Ok(shard)
        };
        let n = wire::get_varint(buf)?;
        if n > count {
            return Err(WireError::InvalidPayload);
        }
        let mut incremental = Vec::with_capacity(n as usize);
        for _ in 0..n {
            incremental.push(read_index(buf)?);
        }
        let n = wire::get_varint(buf)?;
        if n > count {
            return Err(WireError::InvalidPayload);
        }
        let mut snapshots = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let shard = read_index(buf)?;
            let blob = wire::get_bytes(buf)?;
            snapshots.push((shard, blob));
        }
        let proposing = tag == TAG_SHARD_PLAN_PROPOSED;
        let refined = if !proposing {
            tag == TAG_SHARD_PLAN_REFINED
        } else if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        } else {
            match buf.get_u8() {
                0 => false,
                1 => true,
                _ => return Err(WireError::InvalidPayload),
            }
        };
        let children = match refined {
            true => Some(Self::decode_children(buf, count, &incremental)?),
            false => None,
        };
        let proposed = match proposing {
            true => Self::decode_proposals(buf, count, &incremental, children.as_ref())?,
            false => Vec::new(),
        };
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(ShardPlan {
            count,
            incremental,
            snapshots,
            children,
            proposed,
        })
    }

    /// The children tail of a refined plan at `count` shards.
    fn decode_children(
        buf: &mut Bytes,
        count: u64,
        incremental: &[u64],
    ) -> std::result::Result<ChildDigests, WireError> {
        /// A child is a one-byte-or-more entry count and 8 digest bytes.
        const MIN_CHILD_BYTES: u64 = 9;
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
        for _ in 0..n {
            let shard = wire::get_varint(buf)?;
            let in_order = parents.last().is_none_or(|(last, _)| *last < shard);
            if !in_order || !candidates.any(|&listed| listed == shard) {
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

    /// The proposals tail of a plan at `count` shards whose refined
    /// shards are `children`'s.
    fn decode_proposals(
        buf: &mut Bytes,
        count: u64,
        incremental: &[u64],
        children: Option<&ChildDigests>,
    ) -> std::result::Result<Vec<Proposal>, WireError> {
        /// A shard, a count, one candidate and an entry count of a byte
        /// or more each, and 8 digest bytes.
        const MIN_PROPOSAL_BYTES: u64 = 12;
        let shift = count.trailing_zeros();
        let fanout = MAX_PLAN_SHARDS >> shift;
        let n = wire::get_varint(buf)?;
        if n == 0 || n > incremental.len() as u64 {
            return Err(WireError::InvalidPayload);
        }
        if n * MIN_PROPOSAL_BYTES > buf.remaining() as u64 {
            return Err(WireError::UnexpectedEof);
        }
        let refined = |shard: u64| {
            children.is_some_and(|c| c.parents.binary_search_by_key(&shard, |p| p.0).is_ok())
        };
        let mut proposed: Vec<Proposal> = Vec::with_capacity(n as usize);
        // As for the children: a selection of the incremental shards in
        // their order.
        let mut listed = incremental.iter();
        for _ in 0..n {
            let shard = wire::get_varint(buf)?;
            let in_order = proposed.last().is_none_or(|last| last.shard < shard);
            if !in_order || !listed.any(|&listed| listed == shard) || refined(shard) {
                return Err(WireError::InvalidPayload);
            }
            let m = wire::get_varint(buf)?;
            // A candidate is at least one byte.
            if m == 0 || m > fanout || m > buf.remaining() as u64 {
                return Err(WireError::InvalidPayload);
            }
            let mut candidates = Vec::with_capacity(m as usize);
            let mut next = 0u64;
            for _ in 0..m {
                let above = next
                    .checked_add(wire::get_varint(buf)?)
                    .filter(|&above| above < fanout)
                    .ok_or(WireError::InvalidPayload)?;
                candidates.push(shard | above << shift);
                next = above + 1;
            }
            proposed.push(Proposal {
                shard,
                candidates,
                residual: ShardDigest::get(buf)?,
            });
        }
        Ok(proposed)
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
            snapshots: vec![(2, Bytes::from_static(b"\x00blob"))],
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
        // A plan index out of range.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_PLAN);
        wire::put_varint(&mut buf, 4);
        wire::put_varint(&mut buf, 1);
        wire::put_varint(&mut buf, 4); // index == count
        wire::put_varint(&mut buf, 0);
        let mut bytes = buf.freeze();
        assert!(ShardPlan::decode(&mut bytes).is_err());
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
                digests.push(ShardDigest {
                    digest: rng.next_u64(),
                    entries: rng.next_u64() % 40_000,
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
            snapshots: Vec::new(),
            children: Some(ChildDigests { fanout, parents }),
            proposed: Vec::new(),
        };
        let scope = ShardScope {
            count: count * fanout,
            children,
            refused: None,
        };
        (plan, scope)
    }

    /// A seeded plan that proposes — with children beside the
    /// proposals on even seeds, without on odd ones — and a scope
    /// answering it, refusals included.
    fn random_proposed(seed: u64) -> (ShardPlan, ShardScope) {
        let (mut plan, mut scope) = random_refined(seed);
        let mut rng = SplitMix64::new(seed ^ 0x0005_EED0_FA40_B000);
        let mut children = plan.children.take().expect("refined");
        // Proposed shards come out of the incremental ones; one that
        // was refined stops being so.
        let proposed: Vec<u64> = (plan.incremental.iter().copied())
            .filter(|_| rng.next_u64() % 3 < 1)
            .chain([plan.incremental[0]])
            .collect::<std::collections::BTreeSet<u64>>()
            .into_iter()
            .collect();
        children
            .parents
            .retain(|(shard, _)| proposed.binary_search(shard).is_err());
        let refined = |child: &u64| {
            let parents = &children.parents;
            parents
                .binary_search_by_key(&(child & (plan.count - 1)), |p| p.0)
                .is_ok()
        };
        scope.children.retain(refined);
        if seed & 1 == 0 && !children.parents.is_empty() {
            plan.children = Some(children);
        } else {
            scope.children.clear();
            scope.count = plan.count;
        }
        let fanout = MAX_PLAN_SHARDS / plan.count;
        for &shard in &proposed {
            let candidates: Vec<u64> = (0..1 + rng.next_u64() % 5)
                .map(|_| shard + (rng.next_u64() % fanout) * plan.count)
                .collect::<std::collections::BTreeSet<u64>>()
                .into_iter()
                .collect();
            plan.proposed.push(Proposal {
                shard,
                candidates,
                residual: ShardDigest {
                    digest: rng.next_u64(),
                    entries: rng.next_u64() % 40_000,
                },
            });
        }
        let refused = proposed.into_iter().filter(|_| rng.next_u64() % 4 < 1);
        scope.refused = Some(refused.collect());
        (plan, scope)
    }

    /// Round trip, every strict prefix refused, a trailing byte refused.
    fn assert_strict<T: PartialEq + std::fmt::Debug>(
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

    #[test]
    fn proposing_plans_and_their_scopes_roundtrip_and_reject_every_prefix() {
        let (mut with_children, mut without) = (0, 0);
        for seed in 0..64 {
            let (plan, scope) = random_proposed(seed);
            match plan.children {
                Some(_) => with_children += 1,
                None => without += 1,
            }
            let full = plan.encode();
            assert_eq!(full[0], TAG_SHARD_PLAN_PROPOSED, "seed {seed}");
            assert_strict(&plan, full, ShardPlan::decode);
            let offer = plan.offer().expect("something to narrow");
            assert_eq!(offer.proposed.len(), plan.proposed.len());
            assert_strict(&scope, scope.encode(), |buf| {
                ShardScope::decode(buf, &offer)
            });
            // The refusals are a tail the offer demands: the frame
            // without them answers no plan that proposes, and the frame
            // with them none that does not.
            let tailless = ShardScope {
                refused: None,
                ..scope.clone()
            };
            assert!(ShardScope::decode(&mut tailless.encode(), &offer).is_err());
            let unproposing = Offer {
                proposed: Vec::new(),
                ..offer.clone()
            };
            assert!(ShardScope::decode(&mut scope.encode(), &unproposing).is_err());
        }
        assert!(with_children > 8 && without > 8, "both shapes exercised");
    }

    /// The body of a plan at 4 shards, incremental `[0, 1, 3]`, under
    /// the proposing tag, followed by `tail`.
    fn proposing_plan(tail: &[u8]) -> Bytes {
        let mut buf = BytesMut::from(&[TAG_SHARD_PLAN_PROPOSED, 4, 3, 0, 1, 3, 0][..]);
        buf.extend_from_slice(tail);
        buf.freeze()
    }

    #[test]
    fn hostile_proposals_rejected() {
        // One residual: an entry count of 5 and eight digest bytes.
        const R: [u8; 9] = [5, 0, 0, 0, 0, 0, 0, 0, 9];
        let tail = |parts: &[&[u8]]| proposing_plan(&parts.concat());
        // The honest shapes: no children, shard 1 with candidates at 0
        // and 2 above its bits; and shard 3 refined at F = 2 beside it.
        let plain = ShardPlan::decode(&mut tail(&[&[0, 1, 1, 2, 0, 1], &R])).expect("well-formed");
        assert_eq!(plain.proposed[0].candidates, [1, 1 + 2 * 4]);
        assert_eq!(plain.proposed[0].residual.entries, 5);
        let child = [1u8, 0, 0, 0, 0, 0, 0, 0, 7];
        let refined = [&[1u8, 1, 1, 3][..], &child, &child].concat();
        let both = ShardPlan::decode(&mut tail(&[&refined, &[1, 1, 1, 0], &R])).expect("both");
        assert_eq!(both.offer().expect("offer").parents, [3]);
        let hostile: [(&str, Bytes); 12] = [
            ("no tail under the proposing tag", tail(&[])),
            (
                "a children flag that is neither",
                tail(&[&[2, 1, 1, 1, 0], &R]),
            ),
            ("a children flag and no children", tail(&[&[1]])),
            ("no proposals", tail(&[&[0, 0]])),
            ("more proposals than incremental shards", tail(&[&[0, 4]])),
            ("a shard the plan skips", tail(&[&[0, 1, 2, 1, 0], &R])),
            ("a shard out of range", tail(&[&[0, 1, 4, 1, 0], &R])),
            ("no candidates", tail(&[&[0, 1, 1, 0], &R])),
            (
                "a shard both refined and proposed",
                tail(&[&refined, &[1, 3, 1, 0], &R]),
            ),
            ("no residual", tail(&[&[0, 1, 1, 1, 0]])),
            ("a short residual", tail(&[&[0, 1, 1, 1, 0], &R[..8]])),
            (
                "shards out of order",
                tail(&[&[0, 2, 3, 1, 0], &R, &[1, 1, 0], &R]),
            ),
        ];
        for (what, mut bytes) in hostile {
            assert!(ShardPlan::decode(&mut bytes).is_err(), "{what}");
        }
        // A shard listed twice, and a candidate past the shard's
        // 2^20 / 4 (the last admissible one decodes).
        let twice = tail(&[&[0, 2, 1, 1, 0], &R, &[1, 1, 0], &R]);
        assert!(ShardPlan::decode(&mut twice.clone()).is_err());
        let mut edge = BytesMut::from(&[0u8, 1, 1, 1][..]);
        wire::put_varint(&mut edge, (1 << 18) - 1);
        let last = ShardPlan::decode(&mut tail(&[&edge, &R])).expect("the last candidate");
        assert_eq!(last.proposed[0].candidates, [MAX_PLAN_SHARDS - 3]);
        let mut past = BytesMut::from(&[0u8, 1, 1, 1][..]);
        wire::put_varint(&mut past, 1 << 18);
        assert!(ShardPlan::decode(&mut tail(&[&past, &R])).is_err());
        // A second candidate whose gap overflows, or lands past the end.
        let mut wrapped = BytesMut::from(&[0u8, 1, 1, 2, 7][..]);
        wire::put_varint(&mut wrapped, u64::MAX);
        assert!(ShardPlan::decode(&mut tail(&[&wrapped, &R])).is_err());
        // Counts the payload cannot hold fail before anything is sized
        // by them: three proposals over a dozen bytes, and a quarter of
        // a million candidates over ten.
        assert_eq!(
            ShardPlan::decode(&mut tail(&[&[0, 3, 0, 1, 0], &R])),
            Err(WireError::UnexpectedEof)
        );
        let mut many = BytesMut::from(&[0u8, 1, 1][..]);
        wire::put_varint(&mut many, 1 << 18);
        assert_eq!(
            ShardPlan::decode(&mut tail(&[&many, &[0], &R])),
            Err(WireError::InvalidPayload)
        );
        // The proposals tail under either older tag is trailing bytes.
        for tag in [TAG_SHARD_PLAN, TAG_SHARD_PLAN_REFINED] {
            let mut relabelled = BytesMut::from(&plain.encode()[..]);
            relabelled[0] = tag;
            assert!(ShardPlan::decode(&mut relabelled.freeze()).is_err());
        }
    }

    #[test]
    fn an_unrefined_plan_carries_no_byte_for_what_it_lacks() {
        assert_eq!(
            &sample_plan().encode()[..],
            b"\x36\x04\x02\x00\x03\x01\x02\x05\x00blob"
        );
        let refined = refined_plan().encode();
        assert_eq!(refined[0], TAG_SHARD_PLAN_REFINED);
        assert_eq!(refined[1..13], sample_plan().encode()[1..]);
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

    /// The body of a refined plan at 4 shards, incremental `[0, 3]`,
    /// with `tail` for its children.
    fn plan_with_tail(tail: &[u64], digests: usize) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_PLAN_REFINED);
        for v in [4, 2, 0, 3, 0] {
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
        // Parents out of order, and one listed twice.
        for parents in [[3u64, 0], [3, 3]] {
            let mut buf = BytesMut::from(&plan_with_tail(&[1, 2, parents[0]], 2)[..]);
            wire::put_varint(&mut buf, parents[1]);
            for _ in 0..2 {
                buf.put_u8(1);
                buf.put_u64(9);
            }
            assert!(ShardPlan::decode(&mut buf.freeze()).is_err(), "{parents:?}");
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
