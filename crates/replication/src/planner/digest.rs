//! Shard digests: one shard's summary, the vector of them a puller
//! opens with, its delta against the last one a connection carried, and
//! each end's memory of that one.

use super::{
    control_frame, digest_vector_frame, FNV_OFFSET, FNV_PRIME, MAX_PLAN_SHARDS, TAG_SHARD_DIGESTS,
    TAG_SHARD_DIGESTS_DELTA,
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

impl ShardDigest {
    /// A summary on the wire: the entry count as a varint, then the
    /// digest as 8 fixed big-endian bytes.
    pub(super) fn put(&self, buf: &mut BytesMut) {
        wire::put_varint(buf, self.entries);
        buf.put_u64(self.digest);
    }

    pub(super) fn get(buf: &mut Bytes) -> std::result::Result<ShardDigest, WireError> {
        let entries = wire::get_varint(buf)?;
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
    /// count as a varint and its digest as 8 fixed big-endian bytes).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(2 + self.shards.len() * 12);
        buf.put_u8(TAG_SHARD_DIGESTS);
        wire::put_varint(&mut buf, self.shards.len() as u64);
        for shard in &self.shards {
            shard.put(&mut buf);
        }
        buf.freeze()
    }

    /// Decodes a [`DigestVector`], rejecting truncation, trailing
    /// bytes, a zero or non-power-of-two shard count, and counts past
    /// [`MAX_PLAN_SHARDS`].
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
    /// or more each, and 8 digest bytes.
    const MIN_CHANGED_BYTES: u64 = 10;

    /// What turns `base` into `next`; `None` when their shard counts
    /// differ (the store was resharded: there is nothing to patch).
    pub fn between(base: &DigestVector, next: &DigestVector) -> Option<DigestDelta> {
        (base.shards.len() == next.shards.len()).then(|| DigestDelta {
            count: next.shards.len() as u64,
            changed: (0u64..)
                .zip(base.shards.iter().zip(&next.shards))
                .filter(|(_, (old, new))| old != new)
                .map(|(shard, (_, new))| (shard, *new))
                .collect(),
            check: next.check(),
        })
    }

    /// Encodes the message: tag, shard count, the number of changed
    /// shards, each as its index (the first as it is, every later one
    /// as the gap past its predecessor, less one — so no encoding lists
    /// shards out of order or twice), entry count and 8 fixed digest
    /// bytes, then the check as 8 fixed bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(20 + self.changed.len() * 12);
        buf.put_u8(TAG_SHARD_DIGESTS_DELTA);
        wire::put_varint(&mut buf, self.count);
        wire::put_varint(&mut buf, self.changed.len() as u64);
        let mut next = 0;
        for (shard, summary) in &self.changed {
            wire::put_varint(&mut buf, shard - next);
            summary.put(&mut buf);
            next = shard + 1;
        }
        buf.put_u64(self.check);
        buf.freeze()
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
        let mut next = 0u64;
        for _ in 0..n {
            let shard = next
                .checked_add(wire::get_varint(buf)?)
                .filter(|&shard| shard < count)
                .ok_or(WireError::InvalidPayload)?;
            changed.push((shard, ShardDigest::get(buf)?));
            next = shard + 1;
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

/// One end's memory of the last digest vector that crossed its
/// connection — what a [`DigestDelta`] is encoded against by the puller
/// and applied to by the server. It belongs to the connection and dies
/// with it: the pulling end keeps it beside the pooled link, the
/// serving end inside [`Serving`](crate::mux::Serving), and since any
/// failed contact costs both ends the connection, the two memories
/// never have to be reconciled — only checked
/// ([`DigestVector::check`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorMemory {
    last: Option<DigestVector>,
}

impl VectorMemory {
    /// Nothing is remembered: no contact has completed over this
    /// connection, so its serving end remembers nothing either.
    pub fn is_empty(&self) -> bool {
        self.last.is_none()
    }

    /// The pulling end: `next` as the control-stream frame that opens a
    /// contact (no marker), and how many shard digests that frame
    /// ships. The delta against the remembered vector is sent iff it is
    /// strictly shorter than the full vector — the two encoded lengths
    /// are the whole policy — so with nothing remembered, another shard
    /// count, or a vector that changed everywhere, the frame is
    /// [`digest_vector_frame`]'s.
    pub fn opening_frame(&self, next: &DigestVector) -> (BytesMut, u64) {
        let full = digest_vector_frame(next);
        let delta = self
            .last
            .as_ref()
            .and_then(|base| DigestDelta::between(base, next));
        if let Some(delta) = delta {
            let frame = control_frame(&delta.encode());
            if frame.len() < full.len() {
                return (frame, delta.changed.len() as u64);
            }
        }
        (full, next.shards.len() as u64)
    }

    /// The pulling end, once the contact `crossed` opened has
    /// completed: the next contact may be encoded against it.
    pub fn remember(&mut self, crossed: &DigestVector) {
        self.last = Some(crossed.clone());
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

/// `true` when a shard (or child) needs no object rounds: the server
/// holds nothing there, or the content is provably identical.
pub fn nothing_to_pull(ours: &ShardDigest, theirs: &ShardDigest) -> bool {
    theirs.entries == 0 || ours == theirs
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

    #[test]
    fn digest_vector_roundtrip_and_prefixes() {
        let vector = sample_vector();
        let full = vector.encode();
        let mut buf = full.clone();
        assert_eq!(DigestVector::decode(&mut buf).unwrap(), vector);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(DigestVector::decode(&mut buf).is_err(), "cut {cut}");
        }
        let mut padded = BytesMut::new();
        padded.extend_from_slice(&full);
        padded.put_u8(0);
        let mut buf = padded.freeze();
        assert!(DigestVector::decode(&mut buf).is_err(), "trailing byte");
    }

    /// A seeded vector and the one that follows it over the same
    /// connection: anywhere from no shard to every shard changed.
    fn random_vector_pair(seed: u64) -> (DigestVector, DigestVector) {
        let mut rng = SplitMix64::new(seed);
        let count = 1usize << (rng.next_u64() % 10);
        let density = rng.next_u64() % 9;
        let summary = |rng: &mut SplitMix64| ShardDigest {
            digest: rng.next_u64(),
            entries: rng.next_u64() % 40_000,
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
    fn deltas_roundtrip_patch_and_reject_every_prefix() {
        for seed in 0..64 {
            let (base, next) = random_vector_pair(seed);
            let delta = DigestDelta::between(&base, &next).expect("same count");
            let full = delta.encode();
            let mut buf = full.clone();
            assert_eq!(DigestDelta::decode(&mut buf, &base).unwrap(), delta);
            let mut patched = base.clone();
            delta.patch(&mut patched).expect("the check holds");
            assert_eq!(patched, next, "seed {seed}");
            for cut in 0..full.len() {
                let mut buf = full.slice(0..cut);
                assert!(
                    DigestDelta::decode(&mut buf, &base).is_err(),
                    "seed {seed}, cut {cut}"
                );
            }
            let mut padded = BytesMut::from(&full[..]);
            padded.put_u8(0);
            assert!(DigestDelta::decode(&mut padded.freeze(), &base).is_err());
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
                puller.remember(vector);
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

    #[test]
    fn an_all_dirty_vector_and_a_resharded_one_cross_in_full() {
        let (base, _) = random_vector_pair(7);
        let mut memory = VectorMemory::default();
        memory.remember(&base);
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
