//! What a plan offered to narrow, the puller's answer to it, and the
//! one predicate both ends cut their endpoints with.

use super::{placement, MAX_PLAN_SHARDS, TAG_SHARD_SCOPE};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::wire;

/// A shard and its candidates, as a [`Proposal`](super::Proposal) lists
/// them: what a journal hints at before [`decide`](super::decide()) priced
/// it, and what an [`Offer`] keeps of a proposal.
pub type Candidates = (u64, Vec<u64>);

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
    /// The proposed shards with their candidates, shards strictly
    /// increasing and none of them refined.
    pub proposed: Vec<Candidates>,
}

impl Offer {
    /// Whether `key` — a key of one of the plan's incremental shards —
    /// stays in the contact once the puller answered `scope`: a key of
    /// a refined shard only if its child is listed, a key of a proposed
    /// shard the puller did not refuse only if it is placed under a
    /// candidate, every other key always. Both endpoints cut themselves
    /// with this one predicate, so they agree on the key set.
    pub fn admits(&self, scope: &ShardScope, key: &[u8]) -> bool {
        let hash = placement(key);
        let shard = hash & (self.count - 1);
        if self.parents.binary_search(&shard).is_ok() {
            return scope
                .children
                .binary_search(&(hash & (scope.count - 1)))
                .is_ok();
        }
        match self
            .proposed
            .binary_search_by_key(&shard, |(shard, _)| *shard)
        {
            Ok(slot) if !scope.refuses(shard) => self.proposed[slot]
                .1
                .binary_search(&(hash & (MAX_PLAN_SHARDS - 1)))
                .is_ok(),
            _ => true,
        }
    }
}

/// The keys a planned contact runs over: those of the plan's incremental
/// shards that the puller's answer to the plan's [`Offer`] left in it.
/// Each end builds its endpoint from one — filter, *then* materialise —
/// so neither decodes a vector or copies a value for a key the contact
/// will not open.
#[derive(Debug, Clone, Copy)]
pub struct Cut<'a> {
    /// The plan's shard count.
    pub count: u64,
    /// The plan's incremental shards.
    pub incremental: &'a [u64],
    /// What the plan offered and what the puller answered; `None` where
    /// the plan offered nothing or the puller ignored it, and the
    /// incremental shards are walked whole.
    pub narrowed: Option<(&'a Offer, &'a ShardScope)>,
}

impl Cut<'_> {
    /// Whether `key`, a key of one of the incremental shards, is in the
    /// contact ([`Offer::admits`]).
    pub fn admits(&self, key: &[u8]) -> bool {
        self.narrowed
            .is_none_or(|(offer, scope)| offer.admits(scope, key))
    }
}

/// The puller's answer to what a plan offered: which children of the
/// refined shards differ from its own, and which proposed shards it
/// refuses. Sent in front of the `BatchHello`, in the same burst; the
/// server narrows its endpoint to match ([`Offer::admits`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardScope {
    /// The shard count the indices are expressed at: the plan's
    /// `count · fanout` (the plan's own count when it refined nothing).
    pub count: u64,
    /// The children to sync, strictly increasing, each under a shard
    /// the plan refined.
    pub children: Vec<u64>,
    /// The proposed shards whose residual the puller could not match
    /// and walks whole, strictly increasing. `Some` exactly when the
    /// plan proposed anything: the list is a mandatory tail of the frame
    /// then, and absent from it otherwise.
    pub refused: Option<Vec<u64>>,
}

impl ShardScope {
    /// Whether the puller refused the proposal for `shard`.
    pub fn refuses(&self, shard: u64) -> bool {
        self.refused
            .as_ref()
            .is_some_and(|refused| refused.binary_search(&shard).is_ok())
    }

    /// Encodes the message (tag, child shard count, the child indices,
    /// then — answering a plan that proposed — the refused shards).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + self.children.len() * 3);
        buf.put_u8(TAG_SHARD_SCOPE);
        wire::put_varint(&mut buf, self.count);
        for list in [Some(&self.children), self.refused.as_ref()]
            .into_iter()
            .flatten()
        {
            wire::put_varint(&mut buf, list.len() as u64);
            for &index in list {
                wire::put_varint(&mut buf, index);
            }
        }
        buf.freeze()
    }

    /// Decodes a [`ShardScope`] answering `offer`, rejecting
    /// truncation, trailing bytes, a shard count other than the one
    /// offered, more indices than were offered (checked before
    /// anything is allocated), indices out of order or out of range,
    /// children of a shard the plan did not refine, and — read if and
    /// only if the plan proposed — refusals of a shard it did not
    /// propose.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(buf: &mut Bytes, offer: &Offer) -> std::result::Result<ShardScope, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        if buf.get_u8() != TAG_SHARD_SCOPE {
            return Err(WireError::InvalidPayload);
        }
        let count = wire::get_varint(buf)?;
        if count != offer.count * offer.fanout {
            return Err(WireError::InvalidPayload);
        }
        // At most `offered` indices — each at least one byte, so the
        // payload bounds their number too — strictly increasing, every
        // one `admissible`.
        let list = |buf: &mut Bytes, offered: u64, admissible: &dyn Fn(u64) -> bool| {
            let n = wire::get_varint(buf)?;
            if n > offered || n > buf.remaining() as u64 {
                return Err(WireError::InvalidPayload);
            }
            let mut indices = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let index = wire::get_varint(buf)?;
                let in_order = indices.last().is_none_or(|&last| last < index);
                if !in_order || !admissible(index) {
                    return Err(WireError::InvalidPayload);
                }
                indices.push(index);
            }
            Ok(indices)
        };
        let refined = |shard| offer.parents.binary_search(&shard).is_ok();
        let children = list(buf, offer.parents.len() as u64 * offer.fanout, &|child| {
            child < count && refined(child & (offer.count - 1))
        })?;
        let refused = match offer.proposed.len() as u64 {
            0 => None,
            proposed => Some(list(buf, proposed, &|shard| {
                let proposals = &offer.proposed;
                proposals.binary_search_by_key(&shard, |p| p.0).is_ok()
            })?),
        };
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(ShardScope {
            count,
            children,
            refused,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan::tests::random_refined;
    use crate::planner::shard_of;

    #[test]
    fn hostile_refusals_rejected() {
        // Proposed: shards 1 and 3 of 4; refined: shard 2 at F = 4.
        let offer = Offer {
            count: 4,
            fanout: 4,
            parents: vec![2],
            proposed: vec![(1, vec![1]), (3, vec![3, 7])],
        };
        let scope = |children: &[u64], refused: &[u64]| {
            ShardScope {
                count: 16,
                children: children.to_vec(),
                refused: Some(refused.to_vec()),
            }
            .encode()
        };
        ShardScope::decode(&mut scope(&[2, 6], &[1, 3]), &offer).expect("well-formed");
        ShardScope::decode(&mut scope(&[], &[]), &offer).expect("all accepted");
        let hostile = [
            ("a shard that was not proposed", scope(&[], &[0])),
            ("a refined shard", scope(&[], &[2])),
            ("a child index where a shard is due", scope(&[], &[5])),
            ("out of order", scope(&[], &[3, 1])),
            ("listed twice", scope(&[], &[1, 1])),
            ("a child of a proposed shard", scope(&[1], &[])),
        ];
        for (what, mut bytes) in hostile {
            assert!(ShardScope::decode(&mut bytes, &offer).is_err(), "{what}");
        }
        // More refusals than proposals: refused on the count.
        let mut buf = BytesMut::from(&[TAG_SHARD_SCOPE, 16, 0, 3, 1, 3, 3][..]);
        assert!(ShardScope::decode(&mut buf.split().freeze(), &offer).is_err());
        // A plan that only proposes is answered at its own count, and
        // can list no children.
        let only = Offer {
            fanout: 1,
            parents: Vec::new(),
            ..offer
        };
        let answer = |count, children: Vec<u64>| ShardScope {
            count,
            children,
            refused: Some(vec![3]),
        };
        ShardScope::decode(&mut answer(4, Vec::new()).encode(), &only).expect("well-formed");
        assert!(ShardScope::decode(&mut answer(16, Vec::new()).encode(), &only).is_err());
        assert!(ShardScope::decode(&mut answer(4, vec![1]).encode(), &only).is_err());
    }

    #[test]
    fn an_offer_admits_proposed_shards_by_candidate_unless_refused() {
        let keys: Vec<String> = (0..400).map(|i| format!("key-{i}")).collect();
        let in_shard = |shard| {
            keys.iter()
                .filter(move |k| shard_of(k.as_bytes(), 4) == shard)
        };
        let fine = |key: &String| shard_of(key.as_bytes(), MAX_PLAN_SHARDS);
        let listed: Vec<u64> = {
            let mut two: Vec<u64> = in_shard(1).take(2).map(fine).collect();
            two.sort_unstable();
            two
        };
        let offer = Offer {
            count: 4,
            fanout: 1,
            parents: Vec::new(),
            proposed: vec![(1, listed.clone()), (2, vec![2])],
        };
        let accepted = ShardScope {
            count: 4,
            children: Vec::new(),
            refused: Some(vec![2]),
        };
        for key in in_shard(1) {
            assert_eq!(
                offer.admits(&accepted, key.as_bytes()),
                listed.contains(&fine(key))
            );
        }
        assert_eq!(
            in_shard(1)
                .filter(|k| offer.admits(&accepted, k.as_bytes()))
                .count(),
            2
        );
        // A refused shard is walked whole, like one never proposed.
        assert!(in_shard(2).all(|key| offer.admits(&accepted, key.as_bytes())));
        assert!(in_shard(3).all(|key| offer.admits(&accepted, key.as_bytes())));
        assert_eq!(listed[0] & 3, 1, "a candidate keeps its shard's low bits");
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
            proposed: Vec::new(),
        };
        let scope = |count: u64, children: &[u64]| {
            ShardScope {
                count,
                children: children.to_vec(),
                refused: None,
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
            proposed: Vec::new(),
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
            refused: None,
        };
        for key in in_shard(1) {
            assert_eq!(
                offer.admits(&scope, key.as_bytes()),
                shard_of(key.as_bytes(), 16) == listed
            );
        }
        assert!(in_shard(1).any(|key| !offer.admits(&scope, key.as_bytes())));
        assert!(in_shard(3).all(|key| offer.admits(&scope, key.as_bytes())));
        assert_eq!(listed & 3, 1, "a child keeps its parent's low bits");
    }
}
