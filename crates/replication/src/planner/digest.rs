//! Shard digests: one shard's summary, the vector of them a puller
//! opens with, its delta against the last one a connection carried, and
//! each end's memory of that one.

use super::{
    control_frame, digest_vector_frame, payload, shard_of, ChildDigests, ControlMsg, Gaps,
    ShardScope, FNV_OFFSET, FNV_PRIME, MAX_PLAN_SHARDS, TAG_SHARD_DIGESTS, TAG_SHARD_DIGESTS_DELTA,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::wire;

/// One shard's summary in a [`DigestVector`]: an order-independent
/// content digest plus the tracked-entry count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardDigest {
    /// Wrapping sum of the shard's per-entry content hashes.
    pub digest: u64,
    /// Tracked entries (tombstones included) in the shard.
    pub entries: u64,
}

/// Adds another part of the same shard: the digests' wrapping sum and
/// the entry counts' sum — what a shard summarises to once it holds
/// both parts' entries.
impl std::ops::AddAssign for ShardDigest {
    fn add_assign(&mut self, other: ShardDigest) {
        self.digest = self.digest.wrapping_add(other.digest);
        self.entries += other.entries;
    }
}

/// Takes a part of the same shard away: what the shard summarises to
/// without that part's entries. Both halves wrap, so a part the shard
/// never held leaves a count no shard holds rather than panicking.
impl std::ops::Sub for ShardDigest {
    type Output = ShardDigest;

    fn sub(self, other: ShardDigest) -> ShardDigest {
        ShardDigest {
            digest: self.digest.wrapping_sub(other.digest),
            entries: self.entries.wrapping_sub(other.entries),
        }
    }
}

impl ShardDigest {
    /// A summary on the wire: the entry count as a varint, then, unless
    /// it is 0, the digest as 8 fixed big-endian bytes. An empty shard's
    /// digest is the empty sum, 0, and is implied.
    ///
    /// # Panics
    ///
    /// Panics on a count of 0 with a digest other than 0: no shard
    /// summarises to that.
    pub(super) fn put(&self, buf: &mut BytesMut) {
        assert!(
            self.entries > 0 || self.digest == 0,
            "an empty shard's digest is 0, not {:#018x}",
            self.digest
        );
        wire::put_varint(buf, self.entries);
        if self.entries > 0 {
            buf.put_u64(self.digest);
        }
    }

    /// The bytes [`put`](Self::put) writes.
    pub(super) fn encoded_len(&self) -> usize {
        wire::varint_len(self.entries) + if self.entries > 0 { 8 } else { 0 }
    }

    pub(super) fn get(buf: &mut Bytes) -> std::result::Result<ShardDigest, WireError> {
        let entries = wire::get_varint(buf)?;
        if entries == 0 {
            return Ok(ShardDigest::default());
        }
        if buf.remaining() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        let digest = buf.get_u64();
        Ok(ShardDigest { digest, entries })
    }
}

/// The puller's per-shard digests, at the puller's shard count (a
/// power of two; the server folds its own map to match).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestVector {
    /// One summary per shard, indexed by shard.
    pub shards: Vec<ShardDigest>,
}

impl DigestVector {
    /// Encodes the message (tag, shard count, then each shard's entry
    /// count as a varint and, unless it is 0, its digest as 8 fixed
    /// big-endian bytes).
    pub fn encode(&self) -> Bytes {
        payload(self)
    }

    /// Decodes a [`DigestVector`], rejecting truncation, trailing
    /// bytes, a zero or non-power-of-two shard count, counts past
    /// [`MAX_PLAN_SHARDS`] and counts the payload cannot hold (checked
    /// before anything is allocated).
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(buf: &mut Bytes) -> std::result::Result<DigestVector, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        if buf.get_u8() != TAG_SHARD_DIGESTS {
            return Err(WireError::InvalidPayload);
        }
        let count = wire::get_varint(buf)?;
        if count == 0 || !count.is_power_of_two() || count > MAX_PLAN_SHARDS {
            return Err(WireError::InvalidPayload);
        }
        // A shard's summary is a byte at least.
        if count > buf.remaining() as u64 {
            return Err(WireError::UnexpectedEof);
        }
        let mut shards = Vec::with_capacity(count as usize);
        for _ in 0..count {
            shards.push(ShardDigest::get(buf)?);
        }
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(DigestVector { shards })
    }

    /// An order-sensitive 8-byte check over the whole vector: what a
    /// [`DigestDelta`] carries so that the two ends of a connection
    /// find out, before anything is planned from it, that they no
    /// longer remember the same vector. Every step is a bijection of
    /// the running value, so two vectors that differ in one word never
    /// share a check.
    pub fn check(&self) -> u64 {
        self.shards.iter().fold(FNV_OFFSET, |hash, shard| {
            [shard.entries, shard.digest]
                .iter()
                .fold(hash, |hash, word| {
                    (hash ^ word).wrapping_mul(FNV_PRIME).rotate_left(29)
                })
        })
    }
}

/// A digest vector expressed against the last one that crossed the
/// same connection (the *base*): only the shards that differ.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestDelta {
    /// The shard count of both vectors.
    pub count: u64,
    /// `(shard, its new summary)`, shards strictly increasing.
    pub changed: Vec<(u64, ShardDigest)>,
    /// [`DigestVector::check`] of the vector the base patches to.
    pub check: u64,
}

impl DigestDelta {
    /// A changed shard on the wire: a gap and an entry count of a byte
    /// or more each, and 8 digest bytes unless the shard is empty.
    const MIN_CHANGED_BYTES: u64 = 2;

    /// What turns `base` into `next`; `None` when their shard counts
    /// differ (the store was resharded: there is nothing to patch).
    pub fn between(base: &DigestVector, next: &DigestVector) -> Option<DigestDelta> {
        Self::listing(base, next, |_| false)
    }

    /// As [`between`](Self::between), listing also every shard `resend`
    /// names, whether or not it changed.
    fn listing(
        base: &DigestVector,
        next: &DigestVector,
        resend: impl Fn(u64) -> bool,
    ) -> Option<DigestDelta> {
        (base.shards.len() == next.shards.len()).then(|| DigestDelta {
            count: next.shards.len() as u64,
            changed: (0u64..)
                .zip(base.shards.iter().zip(&next.shards))
                .filter(|&(shard, (old, new))| old != new || resend(shard))
                .map(|(shard, (_, new))| (shard, *new))
                .collect(),
            check: next.check(),
        })
    }

    /// Encodes the message: tag, shard count, the number of changed
    /// shards, each as its index (the first as it is, every later one
    /// as the gap past its predecessor, less one — so no encoding lists
    /// shards out of order or twice) and summary ([`ShardDigest::put`]),
    /// then the check as 8 fixed bytes.
    pub fn encode(&self) -> Bytes {
        payload(self)
    }

    /// Decodes a [`DigestDelta`] against the vector it is to patch,
    /// rejecting truncation, trailing bytes, a shard count other than
    /// `base`'s, more changed shards than there are shards or than the
    /// payload can hold (both checked before anything is allocated),
    /// and indices at or past the count.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(buf: &mut Bytes, base: &DigestVector) -> std::result::Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        if buf.get_u8() != TAG_SHARD_DIGESTS_DELTA {
            return Err(WireError::InvalidPayload);
        }
        let count = wire::get_varint(buf)?;
        if count != base.shards.len() as u64 {
            return Err(WireError::InvalidPayload);
        }
        let n = wire::get_varint(buf)?;
        if n > count {
            return Err(WireError::InvalidPayload);
        }
        if n * Self::MIN_CHANGED_BYTES > buf.remaining() as u64 {
            return Err(WireError::UnexpectedEof);
        }
        let mut changed = Vec::with_capacity(n as usize);
        let mut gaps = Gaps::default();
        for _ in 0..n {
            changed.push((gaps.get(buf, count)?, ShardDigest::get(buf)?));
        }
        if buf.remaining() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        let check = buf.get_u64();
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(DigestDelta {
            count,
            changed,
            check,
        })
    }

    /// Overwrites the changed shards of `base` — the vector this delta
    /// was decoded against — and verifies the result.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidPayload`] when the patched vector does not
    /// have the delta's check: the sender's base was not this one.
    /// `base` is then neither vector and must be forgotten.
    pub fn patch(&self, base: &mut DigestVector) -> std::result::Result<(), WireError> {
        for &(shard, summary) in &self.changed {
            base.shards[shard as usize] = summary;
        }
        if base.check() != self.check {
            return Err(WireError::InvalidPayload);
        }
        Ok(())
    }
}

/// One end's memory of its connection's digest vector — what a
/// [`DigestDelta`] is encoded against by the puller and applied to by
/// the server. It belongs to the connection and dies with it: the
/// pulling end keeps it beside the pooled link, the serving end inside
/// [`Serving`](crate::mux::Serving), and since any failed contact costs
/// both ends the connection, the two memories never have to be
/// reconciled — only checked ([`DigestVector::check`]).
///
/// What both remember is the last vector that crossed, except where the
/// contact it opened served a shard: there each end remembers the
/// shard's *as-served* digest — what the puller's shard sums to once it
/// holds exactly what it was served — unless the contact showed the
/// puller holding something of the shard the source lacks
/// ([`kept_as_sent`]), and both keep what the puller sent. The serving
/// end knows the as-served digest from what it served
/// ([`serve`](Self::serve)); the pulling end reads it off its own shard
/// once its commit took every stream of the shard as served
/// ([`settle`](Self::settle)). Until then — and for good, where the
/// commit kept a stream back or lost the race with a local write — the
/// pulling end marks the shard (one bit), and every later opening frame
/// lists it whatever it reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorMemory {
    last: Option<DigestVector>,
    /// The pulling end's marks, one bit a shard of `last`: served by the
    /// last contact and not settled.
    unsettled: Vec<u64>,
}

impl VectorMemory {
    /// Nothing is remembered: no contact has completed over this
    /// connection, so its serving end remembers nothing either.
    pub fn is_empty(&self) -> bool {
        self.last.is_none()
    }

    /// What is remembered of `shard`, if anything.
    pub fn digest(&self, shard: u64) -> Option<ShardDigest> {
        self.last.as_ref()?.shards.get(shard as usize).copied()
    }

    fn marked(&self, shard: u64) -> bool {
        let word = self.unsettled.get((shard / 64) as usize);
        word.is_some_and(|word| word >> (shard % 64) & 1 == 1)
    }

    /// The pulling end: `next` as the control-stream frame that opens a
    /// contact (no marker), and how many shard digests that frame
    /// ships. The delta against the remembered vector — the shards that
    /// differ from it, and every marked one — is sent iff it is strictly
    /// shorter than the full vector — the two encoded lengths are the
    /// whole policy — so with nothing remembered, another shard count,
    /// or a vector that changed everywhere, the frame is
    /// [`digest_vector_frame`]'s.
    pub fn opening_frame(&self, next: &DigestVector) -> (BytesMut, u64) {
        let delta = self
            .last
            .as_ref()
            .and_then(|base| DigestDelta::listing(base, next, |shard| self.marked(shard)));
        // A frame is the shorter of two exactly when its payload is.
        match delta.filter(|delta| delta.encoded_len() < next.encoded_len()) {
            Some(delta) => (control_frame(&delta), delta.changed.len() as u64),
            None => (digest_vector_frame(next), next.shards.len() as u64),
        }
    }

    /// The pulling end, once the contact `crossed` opened has
    /// completed, its plan having served the shards `served` and the
    /// exchange kept none of them at what `crossed` says
    /// ([`kept_as_sent`]): the next contact is encoded against
    /// `crossed`, each of `served` marked until it is
    /// [settled](Self::settle).
    pub fn remember(&mut self, crossed: &DigestVector, served: impl IntoIterator<Item = u64>) {
        let count = crossed.shards.len();
        self.unsettled.clear();
        self.unsettled.resize(count.div_ceil(64), 0);
        for shard in served.into_iter().filter(|&shard| shard < count as u64) {
            self.unsettled[(shard / 64) as usize] |= 1 << (shard % 64);
        }
        self.last = Some(crossed.clone());
    }

    /// The pulling end, once its commit took the shards `landed` as
    /// served — `(shard, what it now sums to)` — and before the
    /// connection opens another contact: each of them that is marked is
    /// remembered at that digest and unmarked. A shard not marked was
    /// kept at what the puller sent, on both ends, and stays so.
    pub fn settle(&mut self, landed: &[(u64, ShardDigest)]) {
        let Some(last) = &mut self.last else {
            return;
        };
        for &(shard, digest) in landed {
            let word = self.unsettled.get_mut((shard / 64) as usize);
            if let Some(word) = word.filter(|word| **word >> (shard % 64) & 1 == 1) {
                *word &= !(1 << (shard % 64));
                last.shards[shard as usize] = digest;
            }
        }
    }

    /// The serving end, once it has served a contact's last frame: each
    /// shard the contact served and did not keep ([`kept_as_sent`]) is
    /// remembered at its as-served digest, `(shard, digest)`. A shard
    /// out of the remembered vector's range, or with nothing
    /// remembered, is ignored.
    pub fn serve(&mut self, served: &[(u64, ShardDigest)]) {
        let Some(last) = &mut self.last else {
            return;
        };
        for &(shard, digest) in served {
            if let Some(slot) = last.shards.get_mut(shard as usize) {
                *slot = digest;
            }
        }
    }

    /// The serving end: decodes the payload that opens a contact —
    /// a full vector, or a delta against the remembered one — into the
    /// puller's full vector, which is remembered in turn.
    ///
    /// # Errors
    ///
    /// As [`DigestVector::decode`] and [`DigestDelta::decode`]; a delta
    /// with nothing remembered, and one whose check fails
    /// ([`DigestDelta::patch`]). After any error nothing is remembered.
    pub fn receive(
        &mut self,
        payload: &mut Bytes,
    ) -> std::result::Result<&DigestVector, WireError> {
        let base = self.last.take();
        let crossed = if payload.first() == Some(&TAG_SHARD_DIGESTS_DELTA) {
            let mut base = base.ok_or(WireError::InvalidPayload)?;
            DigestDelta::decode(payload, &base)?.patch(&mut base)?;
            base
        } else {
            DigestVector::decode(payload)?
        };
        Ok(self.last.insert(crossed))
    }
}

/// The shards a contact served that both ends of its connection keep at
/// the digest the puller sent for them, not as served, strictly
/// increasing: those where the contact showed the puller holding
/// something the source lacks. Such a shard cannot land as served;
/// remembered as served, it would cross again with every contact that
/// serves it, and kept as sent it crosses again only once the puller's
/// shard moves. Both ends read them off what crossed, at the plan's
/// `count`:
///
/// - each refined shard of `refined` — the plan's child digests and the
///   puller's scope — a child of which the source holds nothing of and
///   the scope leaves out: such a child is left out whatever the
///   puller holds there ([`nothing_to_pull`]);
/// - the shard of each key of `behind`, the streams the source answered
///   it holds no record of, or one the puller's does not follow from
///   (`BatchPullServer::source_behind`, `BatchPullClient::source_behind`):
///   a key of the puller's own, or one it is ahead on or reconciles.
///
/// A bulk-loaded shard needs no rule: [`decide`](super::decide()) loads
/// only a shard the puller sent empty.
pub fn kept_as_sent(
    count: u64,
    refined: Option<(&ChildDigests, &ShardScope)>,
    behind: &[Bytes],
) -> Vec<u64> {
    let left_out = refined.into_iter().flat_map(|(children, scope)| {
        children
            .parents
            .iter()
            .filter_map(move |(shard, children)| {
                let left_out = (0u64..).zip(children).any(|(j, child)| {
                    child.entries == 0
                        && scope.children.binary_search(&(shard + j * count)).is_err()
                });
                left_out.then_some(*shard)
            })
    });
    let streams = behind.iter().map(|key| shard_of(key, count));
    let mut kept: Vec<u64> = left_out.chain(streams).collect();
    kept.sort_unstable();
    kept.dedup();
    kept
}

/// `true` when a shard (or child) needs no object rounds: the server
/// holds nothing there, or the content is provably identical.
pub fn nothing_to_pull(ours: &ShardDigest, theirs: &ShardDigest) -> bool {
    theirs.entries == 0 || ours == theirs
}

/// The layout [`DigestVector::encode`] describes.
impl ControlMsg for DigestVector {
    fn encoded_len(&self) -> usize {
        let shards = self.shards.iter().map(ShardDigest::encoded_len);
        1 + wire::varint_len(self.shards.len() as u64) + shards.sum::<usize>()
    }

    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(TAG_SHARD_DIGESTS);
        wire::put_varint(buf, self.shards.len() as u64);
        for shard in &self.shards {
            shard.put(buf);
        }
    }
}

/// The layout [`DigestDelta::encode`] describes.
impl ControlMsg for DigestDelta {
    fn encoded_len(&self) -> usize {
        let changed = self
            .changed
            .iter()
            .map(|(_, summary)| summary.encoded_len());
        1 + wire::varint_len(self.count)
            + wire::varint_len(self.changed.len() as u64)
            + Gaps::len(self.changed.iter().map(|(shard, _)| *shard))
            + changed.sum::<usize>()
            + 8
    }

    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(TAG_SHARD_DIGESTS_DELTA);
        wire::put_varint(buf, self.count);
        wire::put_varint(buf, self.changed.len() as u64);
        let mut gaps = Gaps::default();
        for (shard, summary) in &self.changed {
            gaps.put(buf, *shard);
            summary.put(buf);
        }
        buf.put_u64(self.check);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrep_core::rng::SplitMix64;

    fn sample_vector() -> DigestVector {
        DigestVector {
            shards: vec![
                ShardDigest {
                    digest: 0xdead_beef_0123_4567,
                    entries: 3,
                },
                ShardDigest {
                    digest: 0,
                    entries: 0,
                },
                ShardDigest {
                    digest: u64::MAX,
                    entries: 1 << 40,
                },
                ShardDigest {
                    digest: 42,
                    entries: 7,
                },
            ],
        }
    }

    /// An empty shard is its zero count alone: a fresh puller's vector
    /// at 512 shards is 515 bytes, and a count of 0 beside a digest
    /// other than 0 — a summary no shard has — cannot be encoded.
    #[test]
    fn an_empty_summary_is_its_zero_count_alone() {
        let fresh = DigestVector {
            shards: vec![ShardDigest::default(); 512],
        };
        let full = fresh.encode();
        assert_eq!(full.len(), 515);
        assert_eq!(DigestVector::decode(&mut full.clone()).unwrap(), fresh);
        let mut buf = BytesMut::new();
        ShardDigest {
            digest: 9,
            entries: 1,
        }
        .put(&mut buf);
        ShardDigest::default().put(&mut buf);
        assert_eq!(&buf[..], &[1, 0, 0, 0, 0, 0, 0, 0, 9, 0]);
        let hostile = ShardDigest {
            digest: 9,
            entries: 0,
        };
        let put = std::panic::catch_unwind(|| hostile.put(&mut BytesMut::new()));
        assert!(put.is_err(), "a count of 0 with digest 9 was encoded");
    }

    /// A seeded vector and the one that follows it over the same
    /// connection: anywhere from no shard to every shard changed.
    fn random_vector_pair(seed: u64) -> (DigestVector, DigestVector) {
        let mut rng = SplitMix64::new(seed);
        let count = 1usize << (rng.next_u64() % 10);
        let density = rng.next_u64() % 9;
        let summary = |rng: &mut SplitMix64| {
            let digest = rng.next_u64();
            let entries = rng.next_u64() % 40_000;
            ShardDigest {
                digest: if entries == 0 { 0 } else { digest },
                entries,
            }
        };
        let base: Vec<ShardDigest> = (0..count).map(|_| summary(&mut rng)).collect();
        let next = base
            .iter()
            .map(|old| match rng.next_u64() % 8 < density {
                true => summary(&mut rng),
                false => *old,
            })
            .collect();
        (DigestVector { shards: base }, DigestVector { shards: next })
    }

    #[test]
    fn deltas_roundtrip_and_patch() {
        for seed in 0..64 {
            let (base, next) = random_vector_pair(seed);
            let delta = DigestDelta::between(&base, &next).expect("same count");
            let full = delta.encode();
            let mut buf = full.clone();
            assert_eq!(DigestDelta::decode(&mut buf, &base).unwrap(), delta);
            let mut patched = base.clone();
            delta.patch(&mut patched).expect("the check holds");
            assert_eq!(patched, next, "seed {seed}");
            // Patched onto anything but its base, the check catches it.
            let untouched = (0..base.shards.len())
                .find(|&shard| delta.changed.iter().all(|c| c.0 != shard as u64));
            if let Some(shard) = untouched {
                let mut other = base.clone();
                other.shards[shard].digest ^= 1;
                assert!(delta.patch(&mut other).is_err(), "seed {seed}");
            }
        }
    }

    #[test]
    fn the_memories_stay_in_step_and_the_shorter_frame_is_sent() {
        for seed in 0..64 {
            let (first, second) = random_vector_pair(seed);
            let (mut puller, mut server) = (VectorMemory::default(), VectorMemory::default());
            for (round, vector) in [&first, &second, &second].into_iter().enumerate() {
                let full = digest_vector_frame(vector);
                let (frame, sent) = puller.opening_frame(vector);
                assert!(frame.len() <= full.len(), "seed {seed}");
                if round == 0 {
                    assert_eq!(frame, full, "nothing remembered: the full vector");
                    assert_eq!(sent, vector.shards.len() as u64);
                }
                let mut wire = frame.freeze();
                let mut payload = wire::get_frame(&mut wire).unwrap().payload;
                assert_eq!(server.receive(&mut payload).unwrap(), vector, "seed {seed}");
                puller.remember(vector, []);
            }
            // An unchanged vector is the minimal frame: header, tag,
            // count, zero changes, check.
            let (frame, sent) = puller.opening_frame(&second);
            let count_bytes = if second.shards.len() < 128 { 1 } else { 2 };
            if second.shards.len() > 1 {
                assert_eq!((frame.len(), sent), (2 + 1 + count_bytes + 1 + 8, 0));
            }
        }
    }

    /// A contact served shards 0, 1 and 2: the server remembers each at
    /// its as-served digest, the puller marks all three and settles the
    /// two that landed. The next delta lists the unsettled shard and the
    /// one a local write moved, nothing else, and patches to the
    /// puller's vector; a puller that settles the third at a digest the
    /// server does not hold leaves it out, and the check refuses that.
    #[test]
    fn served_shards_cross_until_settled_and_a_wrong_settle_fails_the_check() {
        let first = DigestVector {
            shards: sample_vector().shards.repeat(4),
        };
        let as_served = |shard: u64| ShardDigest {
            digest: 0x5e_4ed0 + shard,
            entries: 3 + shard,
        };
        let served: Vec<(u64, ShardDigest)> = (0..3).map(|s| (s, as_served(s))).collect();
        let mut next = first.clone();
        next.shards[0] = as_served(0);
        next.shards[1] = as_served(1);
        next.shards[2].digest ^= 0xff; // reconciled: not as served
        next.shards[9].entries += 1; // a local write
        for wrong in [false, true] {
            let (mut puller, mut server) = (VectorMemory::default(), VectorMemory::default());
            let (frame, _) = puller.opening_frame(&first);
            let mut payload = wire::get_frame(&mut frame.freeze()).unwrap().payload;
            server.receive(&mut payload).unwrap();
            server.serve(&served);
            puller.remember(&first, [0, 1, 2]);
            puller.settle(&served[..2]);
            if wrong {
                puller.settle(&[(2, next.shards[2])]);
            }
            let (frame, sent) = puller.opening_frame(&next);
            assert_eq!(sent, if wrong { 1 } else { 2 });
            let mut payload = wire::get_frame(&mut frame.freeze()).unwrap().payload;
            match wrong {
                false => assert_eq!(server.receive(&mut payload).unwrap(), &next),
                true => assert!(server.receive(&mut payload).is_err()),
            }
        }
    }

    /// Kept as sent: a refined shard whose scope leaves out a child the
    /// source holds nothing of, and the shard of each key the source is
    /// behind on; not a refined shard whose empty children the scope
    /// lists, nor one whose children all hold entries.
    #[test]
    fn kept_as_sent_reads_the_left_out_empty_children_and_the_streams_behind() {
        let child = |entries| ShardDigest { digest: 7, entries };
        let children = ChildDigests {
            fanout: 2,
            parents: vec![
                (1, vec![child(3), child(0)]),
                (2, vec![child(0), child(1)]),
                (3, vec![child(2), child(2)]),
            ],
        };
        // At 4 shards, child j of shard s is s + 4j; the scope lists
        // shard 2's empty child, 2, and not shard 1's, 5.
        let scope = ShardScope {
            count: 8,
            children: vec![1, 2, 3, 7],
        };
        let behind: Vec<Bytes> = ["mine", "ahead"]
            .iter()
            .map(|key| Bytes::from_static(key.as_bytes()))
            .collect();
        let streams: Vec<u64> = behind.iter().map(|key| shard_of(key, 4)).collect();
        let mut expected = [vec![1], streams].concat();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(
            kept_as_sent(4, Some((&children, &scope)), &behind),
            expected
        );
        assert_eq!(kept_as_sent(4, None, &[]), Vec::<u64>::new());
    }

    #[test]
    fn an_all_dirty_vector_and_a_resharded_one_cross_in_full() {
        let (base, _) = random_vector_pair(7);
        let mut memory = VectorMemory::default();
        memory.remember(&base, []);
        let mut all = base.clone();
        for shard in &mut all.shards {
            shard.digest ^= 1;
        }
        assert_eq!(memory.opening_frame(&all).0, digest_vector_frame(&all));
        let mut wider = base.clone();
        wider.shards.extend(base.shards.iter().copied());
        assert!(DigestDelta::between(&base, &wider).is_none());
        assert_eq!(memory.opening_frame(&wider).0, digest_vector_frame(&wider));
        // One clean shard in a few hundred is not worth a delta either:
        // the indices cost more than the one digest saved... until
        // enough shards are clean to pay for the check.
        let mut most = all.clone();
        most.shards[0] = base.shards[0];
        assert_eq!(memory.opening_frame(&most).0, digest_vector_frame(&most));
    }

    #[test]
    fn hostile_deltas_rejected() {
        let base = sample_vector();
        // `n` changed shards claimed, one listed per gap, each with one
        // entry and digest 9.
        let delta = |count: u64, n: u64, gaps: &[u64], check: bool| {
            let mut buf = BytesMut::new();
            buf.put_u8(TAG_SHARD_DIGESTS_DELTA);
            wire::put_varint(&mut buf, count);
            wire::put_varint(&mut buf, n);
            for &gap in gaps {
                wire::put_varint(&mut buf, gap);
                wire::put_varint(&mut buf, 1);
                buf.put_u64(9);
            }
            if check {
                buf.put_u64(0);
            }
            buf.freeze()
        };
        // Well-formed: shards 1 and 3 of 4. (Its check is wrong, which
        // is `patch`'s business.)
        let decoded = DigestDelta::decode(&mut delta(4, 2, &[1, 1], true), &base).unwrap();
        let listed: Vec<u64> = decoded.changed.iter().map(|c| c.0).collect();
        assert_eq!(listed, [1, 3]);
        assert!(decoded.patch(&mut base.clone()).is_err());
        let hostile = [
            ("another shard count", delta(8, 0, &[], true)),
            ("more changes than shards", delta(4, 5, &[0; 5], true)),
            ("fewer listed than claimed", delta(4, 3, &[0, 0], true)),
            ("a fifth shard of four", delta(4, 4, &[0, 0, 0, 1], true)),
            ("an index that overflows", delta(4, 2, &[1, u64::MAX], true)),
            ("no check", delta(4, 1, &[0], false)),
        ];
        for (what, mut bytes) in hostile {
            assert!(DigestDelta::decode(&mut bytes, &base).is_err(), "{what}");
        }
        // A count of changes the payload cannot hold fails on the
        // length check, before anything is allocated.
        let big = DigestVector {
            shards: vec![ShardDigest::default(); 1 << 16],
        };
        assert_eq!(
            DigestDelta::decode(&mut delta(1 << 16, 1 << 16, &[0; 3], true), &big),
            Err(WireError::UnexpectedEof)
        );
        // Nothing remembered: a delta is refused and a full vector
        // accepted; a failed delta forgets what was remembered.
        let mut memory = VectorMemory::default();
        let unchanged = DigestDelta::between(&base, &base).unwrap().encode();
        assert!(memory.receive(&mut unchanged.clone()).is_err());
        assert_eq!(memory.receive(&mut base.encode()).unwrap(), &base);
        assert_eq!(memory.receive(&mut unchanged.clone()).unwrap(), &base);
        assert!(memory.receive(&mut delta(4, 2, &[1, 1], true)).is_err());
        assert!(memory.receive(&mut unchanged.clone()).is_err());
    }
}
