//! What a plan offered to narrow, the puller's answer to it, and the
//! one predicate both ends cut their endpoints with.

use super::{payload, placement, ControlMsg, TAG_SHARD_SCOPE};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::wire;

/// What a plan offered to narrow, without the digests: the part of a
/// [`ShardPlan`](super::ShardPlan) a [`ShardScope`] is checked against
/// and, with the scope, what decides whether a key is still in the
/// contact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offer {
    /// The plan's shard count.
    pub count: u64,
    /// Children per refined shard; 1 when the plan refined none.
    pub fanout: u64,
    /// The refined shards, strictly increasing.
    pub parents: Vec<u64>,
}

impl Offer {
    /// Whether `key` — a key of one of the plan's walked shards — stays
    /// in the contact once the puller answered the children with `scope`
    /// (or ignored them): a key of a refined shard only if the scope
    /// lists its child, every other key always. Both endpoints cut
    /// themselves with this one predicate, so they agree on the key set.
    pub fn admits(&self, scope: Option<&ShardScope>, key: &[u8]) -> bool {
        let hash = placement(key);
        let shard = hash & (self.count - 1);
        match scope {
            Some(scope) if self.parents.binary_search(&shard).is_ok() => scope
                .children
                .binary_search(&(hash & (scope.count - 1)))
                .is_ok(),
            _ => true,
        }
    }
}

/// The keys a planned contact walks: those of the plan's walked shards
/// ([`ShardPlan::walked`](super::ShardPlan::walked)) that the plan's
/// [`Offer`], and the puller's answer to its children, left in it. Each end builds its endpoint from one — filter,
/// *then* materialise — so neither decodes a vector or copies a value
/// for a key the contact will not open.
#[derive(Debug, Clone, Copy)]
pub struct Cut<'a> {
    /// The plan's shard count.
    pub count: u64,
    /// The plan's walked shards: its incremental ones but those it
    /// proposed, whose keys the server pushed with the plan.
    pub walked: &'a [u64],
    /// What the plan offered; `None` where it offered nothing, and the
    /// incremental shards are walked whole.
    pub offer: Option<&'a Offer>,
    /// The puller's answer to the offered children; `None` where the
    /// plan offered none or the puller ignored them, and the refined
    /// shards are walked whole.
    pub scope: Option<&'a ShardScope>,
}

impl Cut<'_> {
    /// Whether `key`, a key of one of the walked shards, is in the
    /// contact ([`Offer::admits`]).
    pub fn admits(&self, key: &[u8]) -> bool {
        self.offer.is_none_or(|offer| offer.admits(self.scope, key))
    }
}

/// The puller's answer to the children a plan offered: which of them
/// differ from its own. Sent in front of the `BatchHello`, in the same
/// burst, and only answering a plan that refined a shard; the server
/// narrows its endpoint to match ([`Offer::admits`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardScope {
    /// The shard count the indices are expressed at: the plan's
    /// `count · fanout`.
    pub count: u64,
    /// The children to sync, strictly increasing, each under a shard
    /// the plan refined.
    pub children: Vec<u64>,
}

impl ShardScope {
    /// Encodes the message (tag, child shard count, the child indices).
    pub fn encode(&self) -> Bytes {
        payload(self)
    }

    /// Decodes a [`ShardScope`] answering `offer`, rejecting an offer
    /// that refined nothing, truncation, trailing bytes, a shard count
    /// other than the one offered, more indices than were offered
    /// (checked before anything is allocated), indices out of order or
    /// out of range, and children of a shard the plan did not refine.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(buf: &mut Bytes, offer: &Offer) -> std::result::Result<ShardScope, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        if buf.get_u8() != TAG_SHARD_SCOPE || offer.parents.is_empty() {
            return Err(WireError::InvalidPayload);
        }
        let count = wire::get_varint(buf)?;
        if count != offer.count * offer.fanout {
            return Err(WireError::InvalidPayload);
        }
        // At most one index an offered child — each at least one byte,
        // so the payload bounds their number too — strictly increasing,
        // every one a child of a refined shard.
        let n = wire::get_varint(buf)?;
        let offered = offer.parents.len() as u64 * offer.fanout;
        if n > offered || n > buf.remaining() as u64 {
            return Err(WireError::InvalidPayload);
        }
        let refined = |shard| offer.parents.binary_search(&shard).is_ok();
        let mut children: Vec<u64> = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let child = wire::get_varint(buf)?;
            let in_order = children.last().is_none_or(|&last| last < child);
            if !in_order || child >= count || !refined(child & (offer.count - 1)) {
                return Err(WireError::InvalidPayload);
            }
            children.push(child);
        }
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(ShardScope { count, children })
    }
}

/// The layout [`ShardScope::encode`] describes.
impl ControlMsg for ShardScope {
    fn encoded_len(&self) -> usize {
        let children = self.children.iter().map(|&index| wire::varint_len(index));
        1 + wire::varint_len(self.count)
            + wire::varint_len(self.children.len() as u64)
            + children.sum::<usize>()
    }

    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(TAG_SHARD_SCOPE);
        wire::put_varint(buf, self.count);
        wire::put_varint(buf, self.children.len() as u64);
        for &index in &self.children {
            wire::put_varint(buf, index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan::tests::random_refined;
    use crate::planner::shard_of;

    #[test]
    fn a_scope_answers_children_and_nothing_else() {
        // Refined: shard 2 of 4 at F = 4.
        let offer = Offer {
            count: 4,
            fanout: 4,
            parents: vec![2],
        };
        let scope = |count, children: &[u64]| {
            ShardScope {
                count,
                children: children.to_vec(),
            }
            .encode()
        };
        ShardScope::decode(&mut scope(16, &[2, 6]), &offer).expect("well-formed");
        ShardScope::decode(&mut scope(16, &[]), &offer).expect("no child differs");
        let hostile = [
            ("a child of an unrefined shard", scope(16, &[1])),
            ("a child of a skipped shard", scope(16, &[4])),
            ("a shard where a child is due", scope(16, &[2, 3])),
        ];
        for (what, mut bytes) in hostile {
            assert!(ShardScope::decode(&mut bytes, &offer).is_err(), "{what}");
        }
    }

    #[test]
    fn scopes_roundtrip_and_reject_every_prefix() {
        for seed in 0..64 {
            let (plan, scope) = random_refined(seed);
            let offer = plan.offer().unwrap();
            let full = scope.encode();
            let mut buf = full.clone();
            assert_eq!(ShardScope::decode(&mut buf, &offer).unwrap(), scope);
            for cut in 0..full.len() {
                let mut buf = full.slice(0..cut);
                assert!(
                    ShardScope::decode(&mut buf, &offer).is_err(),
                    "cut {cut} of {scope:?}"
                );
            }
            let mut padded = BytesMut::from(&full[..]);
            padded.put_u8(0);
            assert!(ShardScope::decode(&mut padded.freeze(), &offer).is_err());
        }
    }

    #[test]
    fn hostile_scopes_rejected() {
        // Offered: shards 1 and 2 of 4, at F = 4 — children 1, 5, 9, 13
        // and 2, 6, 10, 14 of 16.
        let offer = Offer {
            count: 4,
            fanout: 4,
            parents: vec![1, 2],
        };
        let scope = |count: u64, children: &[u64]| {
            ShardScope {
                count,
                children: children.to_vec(),
            }
            .encode()
        };
        ShardScope::decode(&mut scope(16, &[1, 2, 13, 14]), &offer).expect("well-formed");
        ShardScope::decode(&mut scope(16, &[]), &offer).expect("nothing differs");
        let hostile = [
            ("at the plan's count, not the children's", scope(4, &[1])),
            ("at another fan-out", scope(32, &[1])),
            ("a child of a skipped shard", scope(16, &[4])),
            ("a child of an unrefined shard", scope(16, &[1, 3])),
            ("out of range", scope(16, &[17])),
            ("out of order", scope(16, &[5, 1])),
            ("listed twice", scope(16, &[5, 5])),
        ];
        for (what, mut bytes) in hostile {
            assert!(ShardScope::decode(&mut bytes, &offer).is_err(), "{what}");
        }
        // More indices than children were offered: refused on the
        // count, whatever follows.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_SCOPE);
        wire::put_varint(&mut buf, 16);
        wire::put_varint(&mut buf, 9);
        buf.extend_from_slice(&[1; 9]);
        assert_eq!(
            ShardScope::decode(&mut buf.freeze(), &offer),
            Err(WireError::InvalidPayload)
        );
        // A count the payload cannot hold.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_SCOPE);
        wire::put_varint(&mut buf, 16);
        wire::put_varint(&mut buf, 8);
        buf.put_u8(1);
        assert!(ShardScope::decode(&mut buf.freeze(), &offer).is_err());
    }

    #[test]
    fn an_offer_admits_unrefined_shards_whole_and_refined_ones_by_child() {
        let offer = Offer {
            count: 4,
            fanout: 4,
            parents: vec![1],
        };
        let keys: Vec<String> = (0..400).map(|i| format!("key-{i}")).collect();
        let in_shard = |shard| {
            keys.iter()
                .filter(move |k| shard_of(k.as_bytes(), 4) == shard)
        };
        let listed = shard_of(in_shard(1).next().unwrap().as_bytes(), 16);
        let scope = ShardScope {
            count: 16,
            children: vec![listed],
        };
        for key in in_shard(1) {
            assert_eq!(
                offer.admits(Some(&scope), key.as_bytes()),
                shard_of(key.as_bytes(), 16) == listed
            );
        }
        assert!(in_shard(1).any(|key| !offer.admits(Some(&scope), key.as_bytes())));
        assert!(in_shard(3).all(|key| offer.admits(Some(&scope), key.as_bytes())));
        assert_eq!(listed & 3, 1, "a child keeps its parent's low bits");
    }
}
