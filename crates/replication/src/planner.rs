//! The adaptive sync planner: a digest exchange that prices a contact
//! at O(dirty shards) instead of O(objects).
//!
//! A planned contact opens with one extra half-duplex turn on the
//! control stream, *before* the batched object exchange of
//! [`mux`](crate::mux):
//!
//! 1. The puller sends a [`DigestVector`] — one `(digest, entries)`
//!    pair per shard of its store, at its own shard count — followed by
//!    a turn marker.
//! 2. The server folds its own per-shard digests to the puller's shard
//!    count, [`decide`]s per shard, and answers a single [`ShardPlan`]:
//!    which shards to sync incrementally, which to transfer as whole
//!    snapshots (blobs inline in the plan frame), and — implicitly —
//!    which to skip because the digests already matched.
//! 3. The ordinary batched contact follows, with **both** endpoints
//!    restricted to the plan's incremental shards. Clean shards cost
//!    zero object rounds; a second immediate pull of an unchanged store
//!    is two frames total, whatever the object count.
//!
//! The planner frames reuse the mux control stream (tag space `0x35+`,
//! disjoint from [`CtrlMsg`](crate::mux::CtrlMsg)'s `0x31..=0x34`) and
//! the link layer's turn-marker discipline, so the phase pipelines over
//! pooled persistent connections exactly like the contacts themselves:
//! no extra dial, no extra socket round beyond the one planning turn.
//! A server that has never seen a planner frame (a puller that opens
//! with `BatchHello`) serves the classic unplanned full contact, so the
//! phase is strictly opt-in per contact.
//!
//! This module holds the two frames and the policy ([`decide`]). *How
//! the turn runs* is the first state of the two contact machines:
//! [`Puller`](crate::mux::Puller)'s planning state and
//! [`Serving`](crate::mux::Serving), pumped by
//! [`pull_planned`](crate::mux::pull_planned).
//!
//! Planner traffic is accounted in
//! [`ContactReport::digest_bytes`](crate::mux::ContactReport) — not in
//! the four per-plane byte counters — so existing byte-conservation
//! invariants over the object exchange are untouched.
//!
//! **Snapshot soundness.** A skip rotating vector has no merge: two
//! independently-updated `Srv`s for the same key cannot be joined
//! outside a contact outcome. A whole-shard snapshot therefore only
//! applies entries for keys the puller does **not** track; [`decide`]
//! only picks [`ShardAction::Snapshot`] when the puller's shard is
//! empty (every entry lands as a create), and the staging decoder on
//! the pulling side skips any key that raced into existence locally —
//! such a shard simply stays dirty and reconciles incrementally on the
//! next contact.

use crate::mux::CONTROL_STREAM;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::wire;

/// Wire tag of a [`DigestVector`] (puller → server).
pub const TAG_SHARD_DIGESTS: u8 = 0x35;
/// Wire tag of a [`ShardPlan`] (server → puller).
pub const TAG_SHARD_PLAN: u8 = 0x36;

/// Hard cap on the shard count any peer may claim: bounds the
/// allocation a hostile digest vector or plan can force.
pub const MAX_PLAN_SHARDS: u64 = 1 << 20;

/// One shard's summary in a [`DigestVector`]: an order-independent
/// content digest plus the tracked-entry count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardDigest {
    /// Wrapping sum of the shard's per-entry content hashes.
    pub digest: u64,
    /// Tracked entries (tombstones included) in the shard.
    pub entries: u64,
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
            wire::put_varint(&mut buf, shard.entries);
            buf.put_u64(shard.digest);
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
            let entries = wire::get_varint(buf)?;
            if buf.remaining() < 8 {
                return Err(WireError::UnexpectedEof);
            }
            let digest = buf.get_u64();
            shards.push(ShardDigest { digest, entries });
        }
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(DigestVector { shards })
    }
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
}

impl ShardPlan {
    /// Shards skipped by this plan (digests matched, or nothing to
    /// pull).
    pub fn skipped(&self) -> u64 {
        self.count
            .saturating_sub(self.incremental.len() as u64)
            .saturating_sub(self.snapshots.len() as u64)
    }

    /// Encodes the message.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_PLAN);
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
        buf.freeze()
    }

    /// Decodes a [`ShardPlan`], rejecting truncation, trailing bytes,
    /// out-of-range or unsorted-duplicate shard indices, and shard
    /// counts that are zero, non-power-of-two, or past
    /// [`MAX_PLAN_SHARDS`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(buf: &mut Bytes) -> std::result::Result<ShardPlan, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        if buf.get_u8() != TAG_SHARD_PLAN {
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
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(ShardPlan {
            count,
            incremental,
            snapshots,
        })
    }
}

/// What the plan says to do with one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAction {
    /// Digests match (or the server has nothing): zero object rounds.
    Skip,
    /// Divergent: sync the shard's objects incrementally.
    Incremental,
    /// Far behind and safe to bulk-load: ship the whole shard image.
    Snapshot,
}

/// Planner policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanConfig {
    /// Estimated-divergence threshold at or above which a shard is
    /// transferred as a whole snapshot instead of incrementally. The
    /// divergence estimate saturates at `1.0` exactly when the puller's
    /// shard is empty — the only case a snapshot is sound (see the
    /// module docs) — so any threshold `<= 1.0` enables snapshot
    /// transfer for never-populated shards and a threshold `> 1.0`
    /// disables it entirely.
    pub snapshot_threshold: f64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            snapshot_threshold: 1.0,
        }
    }
}

/// Decides per shard. `client` and `server` are the two sides' digests
/// at the same shard count (the client's); the slices must be equal
/// length.
///
/// # Panics
///
/// Panics if the slices differ in length (a caller bug — the server
/// folds to the client's count before deciding).
pub fn decide(
    client: &[ShardDigest],
    server: &[ShardDigest],
    config: &PlanConfig,
) -> Vec<ShardAction> {
    assert_eq!(client.len(), server.len(), "digest vectors must align");
    client
        .iter()
        .zip(server)
        .map(|(ours, theirs)| {
            if theirs.entries == 0 || ours == theirs {
                // Nothing to pull, or provably identical content.
                return ShardAction::Skip;
            }
            // The only sound bulk transfer is into a never-populated
            // shard (divergence estimate 1.0); everything else must
            // run the per-object rotating-vector exchange.
            if ours.entries == 0 && config.snapshot_threshold <= 1.0 {
                return ShardAction::Snapshot;
            }
            ShardAction::Incremental
        })
        .collect()
}

/// Encodes a [`DigestVector`] as a control-stream frame (no marker).
pub fn digest_vector_frame(digests: &DigestVector) -> BytesMut {
    let mut buf = BytesMut::new();
    wire::put_frame(&mut buf, CONTROL_STREAM, &digests.encode());
    buf
}

/// Encodes a [`ShardPlan`] as a control-stream frame (no marker).
pub fn plan_frame(plan: &ShardPlan) -> BytesMut {
    let mut buf = BytesMut::new();
    wire::put_frame(&mut buf, CONTROL_STREAM, &plan.encode());
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn sample_plan() -> ShardPlan {
        ShardPlan {
            count: 4,
            incremental: vec![0, 3],
            snapshots: vec![(2, Bytes::from_static(b"\x00blob"))],
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

    #[test]
    fn decide_skips_equal_and_empty_server_shards() {
        let config = PlanConfig::default();
        let ours = [
            ShardDigest {
                digest: 7,
                entries: 2,
            },
            ShardDigest {
                digest: 9,
                entries: 4,
            },
            ShardDigest {
                digest: 0,
                entries: 0,
            },
            ShardDigest {
                digest: 5,
                entries: 1,
            },
        ];
        let theirs = [
            ShardDigest {
                digest: 7,
                entries: 2,
            }, // equal -> skip
            ShardDigest {
                digest: 8,
                entries: 4,
            }, // diverged, ours populated -> incremental
            ShardDigest {
                digest: 3,
                entries: 6,
            }, // ours empty -> snapshot
            ShardDigest {
                digest: 0,
                entries: 0,
            }, // server empty -> skip
        ];
        assert_eq!(
            decide(&ours, &theirs, &config),
            vec![
                ShardAction::Skip,
                ShardAction::Incremental,
                ShardAction::Snapshot,
                ShardAction::Skip,
            ]
        );
    }

    #[test]
    fn threshold_above_one_disables_snapshots() {
        let config = PlanConfig {
            snapshot_threshold: 1.5,
        };
        let ours = [ShardDigest {
            digest: 0,
            entries: 0,
        }];
        let theirs = [ShardDigest {
            digest: 3,
            entries: 6,
        }];
        assert_eq!(
            decide(&ours, &theirs, &config),
            vec![ShardAction::Incremental]
        );
    }
}
