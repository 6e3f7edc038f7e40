//! The policy: what to do with each shard of a digest exchange, and
//! whether one more level — child digests, or a proposal — pays.

use super::plan::put_proposal;
use super::{nothing_to_pull, Candidates, ShardDigest, MAX_PLAN_SHARDS};
use bytes::BytesMut;

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

/// Configures nothing: the planner has no knob. The type is what
/// `KvStore::plan_contact(&digests, &PlanConfig::default())` takes, and
/// that signature stays only because `crates/perf`'s mirror calls it and
/// is the benchmark's to change; ROADMAP item 3 deletes both with the
/// mirror. Nothing else takes one. (Braces, because clippy refuses the
/// mirror's `::default()` on a unit struct.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanConfig {}

/// What [`decide`] concluded about a digest exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// One action per shard.
    pub actions: Vec<ShardAction>,
    /// The incremental shards whose children are worth offering,
    /// increasing; empty when the pricing declines.
    pub refined: Vec<u64>,
    /// The fan-out every refined shard is offered at. Meaningful only
    /// when `refined` is not empty.
    pub fanout: u64,
    /// The incremental shards whose hinted candidates are worth
    /// proposing, increasing, none of them in `refined`.
    pub proposed: Vec<u64>,
}

/// COMPARE bytes one clean key costs a contact that walks its shard:
/// its first element in the `BatchHello` (3 B), the server's first
/// element and verdict flags (4 B), its slot in the `BatchDone` (1 B).
const COMPARE_BYTES_PER_KEY: f64 = 8.0;
/// Plan-frame bytes one offered child costs: an 8-byte digest and a
/// one-byte entry count.
const CHILD_BYTES: f64 = 9.0;
/// Plan-frame bytes one refined shard costs beside its children (its
/// index), and scope-frame bytes one listed child costs.
const INDEX_BYTES: f64 = 3.0;

/// Decides per shard, and prices one more level. `client` and `server`
/// are the two sides' digests at the same shard count (the client's);
/// the slices must be equal length. `hints` is what the server's change
/// journal says it changed since this connection's last contact — per
/// shard, increasing, the candidates a [`Proposal`](super::Proposal)
/// would list — and empty where there was no such contact or the journal
/// no longer reaches it.
///
/// **The pricing.** Offering a shard's `F` children costs their bytes
/// in the plan frame; it saves the COMPARE bytes of every key in a
/// child that turns out clean. How many turn out clean depends on how
/// many keys of the shard are dirty, which no digest says — so it is
/// estimated from the one thing the exchange does show, the share `p`
/// of shards that differ: if dirty keys fall on shards independently,
/// a shard is hit by `λ = −ln(1 − p)` of them on average and a shard
/// that was hit holds `d = λ ∕ p`. Two choices keep the estimate on the
/// safe side: `p` is taken one standard error worse than observed,
/// `(dirty + √dirty) ∕ count` — so a few clean shards in a dirty map,
/// or a map too small to say anything, are never read as sparsity —
/// and each dirty key is charged a whole child (`d` of the `F` children
/// stay in the contact). A shard is offered iff
/// `8 B · entries · (1 − d∕F)  >  9 B · F + 3 B · (1 + d)`.
///
/// `F` is the power of two at or above `√(entries · 8 B ∕ 9 B)` for the
/// mean entry count of the incremental shards — the fan-out that
/// minimises `9F + 8·entries∕F`, children plus the one child still
/// walked when a single key is dirty (16 at 195 entries) — capped so
/// `count · F ≤` [`MAX_PLAN_SHARDS`].
///
/// **A hinted shard** needs no estimate: the proposal's bytes are what
/// its encoding takes (the residual's entry count taken as the shard's,
/// the most it can be), and the keys left in the contact are its
/// candidates. It is proposed iff that — `bytes + 8 B · candidates` — is
/// less than what the shard costs otherwise: `8 B · entries` walked
/// whole, or, where the children were judged worth offering, their
/// `9 B · F + 3 B · (1 + d) + 8 B · entries · d∕F`. One kind of shard is
/// never proposed: where the puller holds *more* entries than the
/// server, it holds keys the server has never seen, no candidate covers
/// them, and the residual could not match. A proposed shard is not
/// refined.
///
/// # Panics
///
/// Panics if the slices differ in length (a caller bug — the server
/// folds to the client's count before deciding).
pub fn decide(client: &[ShardDigest], server: &[ShardDigest], hints: &[Candidates]) -> Decision {
    assert_eq!(client.len(), server.len(), "digest vectors must align");
    let actions: Vec<ShardAction> = client
        .iter()
        .zip(server)
        .map(|(ours, theirs)| {
            if nothing_to_pull(ours, theirs) {
                return ShardAction::Skip;
            }
            // The only sound bulk transfer is into a never-populated
            // shard; everything else must run the per-object
            // rotating-vector exchange.
            if ours.entries == 0 {
                return ShardAction::Snapshot;
            }
            ShardAction::Incremental
        })
        .collect();

    let mut decision = Decision {
        actions,
        refined: Vec::new(),
        fanout: 0,
        proposed: Vec::new(),
    };
    let count = client.len() as u64;
    // The keys a flat walk of shard `s` compares: the puller names its
    // own, the server offers what it holds beyond them.
    let walked = |shard: usize| client[shard].entries.max(server[shard].entries) as f64;
    let incremental: Vec<usize> = (0..client.len())
        .filter(|&shard| decision.actions[shard] == ShardAction::Incremental)
        .collect();
    let dirty = decision
        .actions
        .iter()
        .filter(|&&action| action != ShardAction::Skip)
        .count() as u64;
    let share = (dirty as f64 + (dirty as f64).sqrt()) / count as f64;
    // The children's fixed bytes and the share of a refined shard's
    // keys still walked, where the children pay.
    let mut children = (f64::INFINITY, 0.0);
    if !incremental.is_empty() && share < 1.0 {
        let per_dirty_shard = -(1.0 - share).ln() / share;
        let mean = incremental.iter().map(|&s| walked(s)).sum::<f64>() / incremental.len() as f64;
        let ideal = (mean * COMPARE_BYTES_PER_KEY / CHILD_BYTES).sqrt().ceil() as u64;
        let fanout = ideal.next_power_of_two().min(MAX_PLAN_SHARDS / count);
        if fanout >= 2 {
            let cost = CHILD_BYTES * fanout as f64 + INDEX_BYTES * (1.0 + per_dirty_shard);
            let clean_share = 1.0 - per_dirty_shard / fanout as f64;
            decision.refined = incremental
                .iter()
                .filter(|&&shard| COMPARE_BYTES_PER_KEY * walked(shard) * clean_share > cost)
                .map(|&shard| shard as u64)
                .collect();
            decision.fanout = fanout;
            children = (cost, 1.0 - clean_share);
        }
    }
    // A proposal at the finest map's own count would list whole shards.
    if count < MAX_PLAN_SHARDS {
        let mut scratch = BytesMut::new();
        for (shard, candidates) in hints {
            let at = *shard as usize;
            let incremental = decision.actions.get(at) == Some(&ShardAction::Incremental);
            if !incremental || client[at].entries > server[at].entries {
                continue;
            }
            scratch.clear();
            let shift = count.trailing_zeros();
            put_proposal(&mut scratch, *shard, candidates, &server[at], shift);
            let kept = COMPARE_BYTES_PER_KEY * candidates.len() as f64;
            let otherwise = match decision.refined.binary_search(shard) {
                Ok(_) => children.0 + COMPARE_BYTES_PER_KEY * walked(at) * children.1,
                Err(_) => COMPARE_BYTES_PER_KEY * walked(at),
            };
            if scratch.len() as f64 + kept < otherwise {
                decision.proposed.push(*shard);
            }
        }
        decision
            .refined
            .retain(|shard| decision.proposed.binary_search(shard).is_err());
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{ChildDigests, ShardPlan, ShardScope};
    use bytes::Bytes;
    use optrep_core::wire;

    /// `count` converged shards of `entries` keys, the first `dirty` of
    /// them differing.
    fn map_with(count: usize, entries: u64, dirty: usize) -> (Vec<ShardDigest>, Vec<ShardDigest>) {
        let ours: Vec<ShardDigest> = (0..count as u64)
            .map(|digest| ShardDigest { digest, entries })
            .collect();
        let mut theirs = ours.clone();
        for shard in theirs.iter_mut().take(dirty) {
            shard.digest ^= 0xD1;
        }
        (ours, theirs)
    }

    /// `decide` prices in three constants; each is what one more key,
    /// child or shard adds to the frames its doc comment names, measured
    /// here on the codec so neither can move without the other.
    #[test]
    fn the_priced_constants_are_what_the_codec_writes() {
        use crate::mux::{CtrlMsg, MuxMsg, StreamAnswer, StreamOpen};
        use optrep_core::sync::WireMsg;
        use optrep_core::SiteId;

        // One more key in each COMPARE frame, less what names it (its
        // stream id and, in the hello, its key).
        let name = Bytes::from_static(b"key");
        let first = Some((SiteId::new(1), 1));
        let frames = |keys: u64| {
            let open = |stream| StreamOpen {
                stream,
                name: name.clone(),
                first,
            };
            let answer = |stream| StreamAnswer {
                stream,
                missing: false,
                first,
                client_known: true,
                client_equal: true,
            };
            [
                CtrlMsg::BatchHello {
                    discover: false,
                    opens: (1..=keys).map(open).collect(),
                },
                CtrlMsg::BatchServerFirst {
                    answers: (1..=keys).map(answer).collect(),
                    offers: Vec::new(),
                },
                CtrlMsg::BatchDone {
                    streams: (1..=keys).collect(),
                },
            ]
            .map(|msg| MuxMsg::Ctrl(msg).to_bytes().len())
        };
        let (one, two) = (frames(1), frames(2));
        let [hello, server_first, done] = std::array::from_fn(|i| two[i] - one[i]);
        let stream = wire::varint_len(2);
        assert_eq!(hello - stream - wire::bytes_len(name.len()), 3);
        assert_eq!(server_first - stream, 4);
        assert_eq!(done, 1);
        assert_eq!(COMPARE_BYTES_PER_KEY, (3 + 4 + 1) as f64);

        // One more offered child, one more refined shard, one more scope
        // child — at the widest indices a plan can name.
        let count = MAX_PLAN_SHARDS / 4;
        let plan = |parents: u64, fanout: u64| {
            let child = ShardDigest {
                digest: u64::MAX,
                entries: 100,
            };
            let parents = (count - parents..count)
                .map(|shard| (shard, vec![child; fanout as usize]))
                .collect();
            ShardPlan {
                count,
                incremental: vec![count - 2, count - 1],
                children: Some(ChildDigests { fanout, parents }),
                ..ShardPlan::default()
            }
            .encode()
            .len()
        };
        let scope = |children: u64| {
            ShardScope {
                count: MAX_PLAN_SHARDS,
                children: (MAX_PLAN_SHARDS - children..MAX_PLAN_SHARDS).collect(),
                refused: None,
            }
            .encode()
            .len()
        };
        assert_eq!((plan(1, 4) - plan(1, 2)) as f64, 2.0 * CHILD_BYTES);
        assert_eq!(
            (plan(2, 2) - plan(1, 2)) as f64,
            INDEX_BYTES + 2.0 * CHILD_BYTES
        );
        assert_eq!((scope(2) - scope(1)) as f64, INDEX_BYTES);
    }

    #[test]
    fn decide_offers_children_only_where_they_pay() {
        let refined = |count, entries, dirty| {
            let (ours, theirs) = map_with(count, entries, dirty);
            let decision = decide(&ours, &theirs, &[]);
            (decision.refined.len(), decision.fanout)
        };
        // 16 dirty shards of 512 at 195 keys: every one, at F = 16.
        assert_eq!(refined(512, 195, 16), (16, 16));
        // All but a few shards dirty at 39 keys: the share of dirty
        // shards says each holds many dirty keys.
        for dirty in [505, 510, 511, 512] {
            assert_eq!(refined(512, 39, dirty).0, 0, "{dirty} of 512");
        }
        // Too small a map to estimate anything from.
        assert_eq!(refined(1, 100_000, 1).0, 0);
        assert_eq!(refined(4, 24, 3).0, 0);
        // Shards so small the children cost what the walk does.
        assert_eq!(refined(512, 3, 16).0, 0);
        // The fan-out never takes count * F past the cap.
        let (count, fanout) = (MAX_PLAN_SHARDS as usize / 4, 4);
        assert_eq!(refined(count, 10_000, 8), (8, fanout));
        assert_eq!(refined(MAX_PLAN_SHARDS as usize, 10_000, 8).0, 0);
        // Only shards worth it: one big dirty shard among small ones.
        let (mut ours, mut theirs) = map_with(64, 4, 4);
        ours[2].entries = 4000;
        theirs[2].entries = 4000;
        let decision = decide(&ours, &theirs, &[]);
        assert_eq!(decision.refined, vec![2]);
        // Snapshot shards are never refined, but count as dirty.
        let (mut ours, theirs) = map_with(64, 200, 8);
        ours[0] = ShardDigest::default();
        let decision = decide(&ours, &theirs, &[]);
        assert_eq!(decision.actions[0], ShardAction::Snapshot);
        assert_eq!(decision.refined, (1..8).collect::<Vec<u64>>());
    }

    #[test]
    fn decide_proposes_where_the_hint_is_cheaper_than_what_it_replaces() {
        // 16 dirty shards of 512 at 195 keys, one changed key in each
        // of the first twelve: those are proposed, the other four keep
        // their children, and without hints nothing moved.
        let (ours, theirs) = map_with(512, 195, 16);
        let hint = |shard: u64, keys: u64| -> Candidates {
            (shard, (0..keys).map(|j| shard + j * 7 * 512).collect())
        };
        let hints: Vec<Candidates> = (0..12).map(|shard| hint(shard, 1)).collect();
        let blind = decide(&ours, &theirs, &[]);
        let hinted = decide(&ours, &theirs, &hints);
        assert_eq!(blind.refined, (0..16).collect::<Vec<u64>>());
        assert!(blind.proposed.is_empty());
        assert_eq!(hinted.proposed, (0..12).collect::<Vec<u64>>());
        assert_eq!(hinted.refined, (12..16).collect::<Vec<u64>>());
        assert_eq!(
            (hinted.actions, hinted.fanout),
            (blind.actions, blind.fanout)
        );
        // A hint for a shard whose digests match, and one for a shard
        // past the map, are not this contact's business.
        let stray = [hint(100, 1), hint(9_999, 1)];
        assert!(decide(&ours, &theirs, &stray).proposed.is_empty());
        // A shard where the puller holds a key of its own is dirty
        // whatever the server did, and would refuse any candidates.
        let (mut ours, theirs) = map_with(512, 195, 16);
        ours[3].entries += 1;
        let hinted = decide(&ours, &theirs, &hints);
        assert_eq!(hinted.proposed.len(), 11);
        assert!(hinted.refined.contains(&3) && !hinted.proposed.contains(&3));
        // Every shard dirty at 39 keys — no children to fall back on:
        // six changed keys a shard are proposed, thirty-six are not.
        let (ours, theirs) = map_with(512, 39, 512);
        let few: Vec<Candidates> = (0..512).map(|shard| hint(shard, 6)).collect();
        let most: Vec<Candidates> = (0..512).map(|shard| hint(shard, 36)).collect();
        assert_eq!(decide(&ours, &theirs, &few).proposed.len(), 512);
        assert!(decide(&ours, &theirs, &most).proposed.is_empty());
        // At the finest map a candidate is a whole shard.
        let (ours, theirs) = map_with(MAX_PLAN_SHARDS as usize, 195, 4);
        let hints: Vec<Candidates> = (0..4).map(|shard| (shard, vec![shard])).collect();
        assert!(decide(&ours, &theirs, &hints).proposed.is_empty());
    }

    #[test]
    fn decide_skips_equal_and_empty_server_shards() {
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
        let decision = decide(&ours, &theirs, &[]);
        assert_eq!(
            decision.actions,
            vec![
                ShardAction::Skip,
                ShardAction::Incremental,
                ShardAction::Snapshot,
                ShardAction::Skip,
            ]
        );
        assert!(decision.refined.is_empty(), "two of four shards differ");
        // An empty puller shard opposite a non-empty server shard is
        // always a snapshot; a non-empty one never is, however far behind.
        for theirs in [1, 6, 40_000] {
            let server = [ShardDigest {
                digest: 3,
                entries: theirs,
            }];
            let action = |ours| decide(&[ours], &server, &[]).actions[0];
            assert_eq!(action(ShardDigest::default()), ShardAction::Snapshot);
            for entries in [1, theirs, theirs + 1] {
                let ours = ShardDigest { digest: 4, entries };
                assert_eq!(action(ours), ShardAction::Incremental);
            }
        }
    }
}
