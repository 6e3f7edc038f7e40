//! The planner phase as a store sees it: digest vectors, child digests,
//! the journal's hints, the plan and its push, and every endpoint a
//! contact runs between.

use crate::codec::{encode_value, Entries, Entry, EntryImage, ImageEntries};
use crate::record::{entry_hash, Coded, View};
use crate::shard::{shard_index, Shard};
use crate::{KvStore, MAX_SHARDS};
use bytes::Bytes;
use optrep_core::error::{Error, Result, WireError};
use optrep_core::wire;
use optrep_replication::mux::{
    BatchPullClient, BatchPullServer, ContactAnswer, ContactAsk, Pushed, Restricted,
};
use optrep_replication::planner::{
    decide, nothing_to_pull, placement, shard_of, ChildDigests, Cut, DigestVector, Hint,
    PlanConfig, ShardAction, ShardDigest, ShardPlan, ShardScope, JOURNAL_PLACEMENTS, MAX_PUSH,
};
use std::collections::{BTreeMap, BTreeSet};

/// Each proposed shard with where the keys it pushes are placed, at
/// [`JOURNAL_PLACEMENTS`]: shards and placements strictly increasing.
type Pushes = Vec<(u64, Vec<u64>)>;

impl KvStore {
    /// The digests of the `fanout` children of each of `parents` (plan
    /// shards at `count`, strictly increasing), one vector per parent:
    /// child `j` of shard `s` is shard `s + j·count` at `count ·
    /// fanout`. Hashes the entries of those shards only.
    fn child_digests(&self, parents: &[u64], count: u64, fanout: u64) -> Vec<Vec<ShardDigest>> {
        let mut children = vec![vec![ShardDigest::default(); fanout as usize]; parents.len()];
        self.visit_shards(parents, count as usize, |key, view| {
            let hash = placement(key);
            if let Ok(slot) = parents.binary_search(&(hash & (count - 1))) {
                let child = &mut children[slot][((hash / count) & (fanout - 1)) as usize];
                child.digest = child.digest.wrapping_add(entry_hash(key, view));
                child.entries += 1;
            }
        });
        children
    }

    /// The push of a plan at `count` shards, and the shards it proposes:
    /// the image of the records of each proposed shard placed where the
    /// journal says a key changed. A shard joins the push only while the
    /// image stays within [`MAX_PUSH`], sized by its records each coded
    /// whole, which no entry of the image outgrows; a shard left out, as
    /// one that holds no such record, is not proposed, and is walked. The
    /// records of the shards that join are listed in key order
    /// ([`KvStore::records_in`]), and the image is sized and written from
    /// that list, so what it holds stays within the push.
    fn push_of(&self, count: u64, pushes: &Pushes) -> (Vec<u64>, Bytes) {
        let shards: Vec<u64> = pushes.iter().map(|(shard, _)| *shard).collect();
        let slot = |key: &[u8]| shards.binary_search(&(placement(key) & (count - 1)));
        let pushed = |key: &[u8]| {
            slot(key).is_ok_and(|slot| {
                let placed = placement(key) & (JOURNAL_PLACEMENTS - 1);
                pushes[slot].1.binary_search(&placed).is_ok()
            })
        };
        let mut whole = vec![0usize; shards.len()];
        self.visit_shards(&shards, count as usize, |key, view| {
            if let (true, Ok(slot)) = (pushed(key), slot(key)) {
                whole[slot] += Coded::of(key, view, None).len();
            }
        });
        // Room for the count, at its longest.
        let mut room = MAX_PUSH - wire::varint_len(u64::MAX);
        let proposed: Vec<u64> = (shards.iter().zip(whole))
            .filter(|&(_, len)| {
                len > 0 && len <= room && {
                    room -= len;
                    true
                }
            })
            .map(|(&shard, _)| shard)
            .collect();
        if proposed.is_empty() {
            return (proposed, Bytes::new());
        }
        let records = self.records_in(&proposed, count as usize, pushed);
        let image = EntryImage::of_records(Listed(records));
        let mut buf = Vec::with_capacity(image.encoded_len());
        image.write_to(&mut buf).expect("a Vec takes every byte");
        (proposed, Bytes::from(buf))
    }

    /// Reads the push behind `plan` into `client`, entry by entry, each
    /// key taken with what this store holds of it, read against the
    /// digest vector it sent at generation `digested_at`: a key written
    /// since — placed where the journal lists a change since, or any
    /// key, where the journal no longer reaches back — is
    /// [`Pushed::Written`], for the push rests on a proof about the
    /// store as it was then. Returns the shards the push proposes: those
    /// of its keys at the plan's count.
    ///
    /// # Errors
    ///
    /// A push that is not one image of one entry or more, as its writer
    /// writes one ([`ImageEntries`]: keys strictly ascending, each
    /// vector written out only where it differs from the one before, in
    /// the encoding the store writes), or that holds bytes past its last
    /// entry; and a key in a shard the plan walks, refines or bulk-loads.
    fn read_push(
        &self,
        plan: &ShardPlan,
        push: &Bytes,
        digested_at: u64,
        client: &mut BatchPullClient,
    ) -> Result<Vec<u64>> {
        if push.is_empty() {
            return Ok(Vec::new());
        }
        let written: Option<BTreeSet<u64>> = match digested_at == self.generation {
            true => Some(BTreeSet::new()),
            false => (self.journal.changed_since(digested_at))
                .map(|changed| changed.map(|(placed, _)| placed).collect()),
        };
        let mut rest = &push[..];
        let n = wire::get_varint(&mut rest)?;
        if n == 0 {
            return Err(violation("an empty push".into()));
        }
        // An entry is three bytes at least: a count past that is refused
        // as the entry it cannot hold is read.
        client.reserve_pushed(n.min(push.len() as u64 / 3) as usize);
        let (mut entries, mut proposed) = (ImageEntries::default(), Vec::new());
        for _ in 0..n {
            let (key, state) = entries.take(&mut rest)?;
            let key = key.as_bytes();
            let shard = shard_of(key, plan.count);
            let listed = |shards: &[u64]| shards.binary_search(&shard).is_ok();
            if listed(&plan.incremental) || listed(&plan.bulk) {
                return Err(violation(format!(
                    "a push into shard {shard}, which the plan walks or bulk-loads"
                )));
            }
            proposed.push(shard);
            let placed = placement(key) & (JOURNAL_PLACEMENTS - 1);
            let held = match written.as_ref().is_none_or(|w| w.contains(&placed)) {
                true => Pushed::Written,
                false => self
                    .view(key)
                    .map_or(Pushed::Absent, |v| Pushed::Held(v.srv())),
            };
            // A value ends its entry: it is the push's bytes up to here.
            let end = push.len() - rest.len();
            let value = state.value.map(|value| push.slice(end - value.len()..end));
            client.take_pushed(Bytes::copy_from_slice(key), held, state.srv(), value);
        }
        if !rest.is_empty() {
            return Err(Error::Wire(WireError::InvalidPayload));
        }
        proposed.sort_unstable();
        proposed.dedup();
        Ok(proposed)
    }

    /// The pulling half of a planned contact whose puller walks the
    /// given plan shards (at plan-shard count `count`) whole: one stream
    /// per tracked key of those shards. Keys are presented in
    /// sorted order, so stream-id assignment (and therefore the whole
    /// framed exchange) is independent of the local shard layout.
    pub fn client_endpoint_for(&self, shards: &[u64], count: usize) -> BatchPullClient {
        BatchPullClient::new(named(self.records_in(shards, count, |_| true)))
    }

    /// The pulling half of a planned contact, cut as finely as `plan`
    /// allows, having taken the keys of the `push` behind it, read entry
    /// by entry, and named the shards they propose. A proposed shard
    /// holds no other key of the contact: the server proposed it only
    /// having checked that this store holds the rest of it as the server
    /// does. Where the plan offers child
    /// digests, this store's children of the same shards are compared
    /// with them and the endpoint keeps, of those shards, only the keys
    /// of children that differ — the [`ShardScope`] returned with the
    /// endpoint tells the server which, so both sides cut alike. Every
    /// other walked shard is presented whole; for a plan that offers and
    /// proposes nothing this is
    /// [`client_endpoint_for`](Self::client_endpoint_for) over its
    /// incremental shards.
    ///
    /// `digested_at` is this store's [`generation`](Self::generation)
    /// when it read the digest vector the plan answers. A pushed key
    /// written since is not run ([`Pushed::Written`]) and left to the
    /// next contact. Call it under the guard that snapshots the
    /// generation the commit checks.
    ///
    /// # Errors
    ///
    /// A push no store writes, or one into a shard the plan lists
    /// ([`read_push`](Self::read_push)); the store is untouched.
    pub fn client_endpoint_refined(
        &self,
        plan: &ShardPlan,
        push: &Bytes,
        digested_at: u64,
    ) -> Result<Restricted> {
        let walked = plan.walked();
        let offer = plan.offer();
        let scope = (offer.as_ref())
            .zip(plan.children.as_ref())
            .map(|(offer, theirs)| {
                let ours = self.child_digests(&offer.parents, offer.count, offer.fanout);
                let mut differing = Vec::new();
                for ((shard, theirs), ours) in theirs.parents.iter().zip(&ours) {
                    for (j, (ours, theirs)) in ours.iter().zip(theirs).enumerate() {
                        if !nothing_to_pull(ours, theirs) {
                            differing.push(shard + j as u64 * offer.count);
                        }
                    }
                }
                differing.sort_unstable();
                ShardScope {
                    count: offer.count * offer.fanout,
                    children: differing,
                }
            });
        let records = self.records_cut(&Cut {
            count: plan.count,
            walked: &walked,
            offer: offer.as_ref(),
            scope: scope.as_ref(),
        });
        let mut client = BatchPullClient::new(named(records));
        let proposed = self.read_push(plan, push, digested_at, &mut client)?;
        Ok(Restricted {
            client,
            scope,
            proposed,
        })
    }

    /// The serving half of a planned contact whose puller walks the
    /// given plan shards (at plan-shard count `count`) whole. Discovery
    /// offers only keys inside them, so clean shards cost zero object
    /// rounds.
    pub(crate) fn server_endpoint_for(&self, shards: &[u64], count: usize) -> BatchPullServer {
        self.server_endpoint_cut(&Cut {
            count: count as u64,
            walked: shards,
            offer: None,
            scope: None,
        })
    }

    /// The serving half of a planned contact, over the keys of `cut` and
    /// no others: the mirror of
    /// [`client_endpoint_refined`](Self::client_endpoint_refined) —
    /// filter, *then* decode the vector and copy the key and value — and
    /// the one place a planned serving endpoint is built. Every vector
    /// is read with its value, from `self` as it stands now.
    fn server_endpoint_cut(&self, cut: &Cut<'_>) -> BatchPullServer {
        BatchPullServer::new(served(self.records_cut(cut)))
    }

    /// [`server_endpoint_cut`](Self::server_endpoint_cut), and what the
    /// records it serves sum to in each of the cut's walked shards, in
    /// order: one more entry hash a served record.
    fn server_endpoint_summed(&self, cut: &Cut<'_>) -> (BatchPullServer, Vec<ShardDigest>) {
        let mut sums = vec![ShardDigest::default(); cut.walked.len()];
        let records = self.records_cut(cut);
        for (key, view) in &records {
            let shard = shard_index(key, cut.count as usize) as u64;
            if let Ok(slot) = cut.walked.binary_search(&shard) {
                sums[slot] += ShardDigest {
                    digest: entry_hash(key, *view),
                    entries: 1,
                };
            }
        }
        (BatchPullServer::new(served(records)), sums)
    }

    /// This store's per-shard digests at its physical shard count —
    /// what a planned pull sends as its opening frame. O(shards): the
    /// digests are maintained incrementally by every mutation.
    pub fn shard_digest_vector(&self) -> DigestVector {
        DigestVector {
            shards: self.shards.iter().map(Shard::summary).collect(),
        }
    }

    /// This store's shard digests folded to an arbitrary power-of-two
    /// `count` — how a server answers a puller whose shard count
    /// differs from its own. Folding down is O(physical shards)
    /// (wrapping sums compose across the index mask); folding *up*
    /// recomputes per entry, O(n), the price of serving a
    /// finer-sharded puller.
    pub(crate) fn shard_digests_at(&self, count: usize) -> Vec<ShardDigest> {
        let physical = self.shards.len();
        if count == physical {
            return self.shard_digest_vector().shards;
        }
        let mut out = vec![ShardDigest::default(); count];
        if count < physical {
            for (index, shard) in self.shards.iter().enumerate() {
                let (target, shard) = (&mut out[index & (count - 1)], shard.summary());
                target.digest = target.digest.wrapping_add(shard.digest);
                target.entries += shard.entries;
            }
        } else {
            self.all(|key, view| {
                let target = &mut out[shard_index(key, count)];
                target.digest = target.digest.wrapping_add(entry_hash(key, view));
                target.entries += 1;
                true
            });
        }
        out
    }

    /// This store's digests of `shards`, plan shards at `count`
    /// ([`shard_digests_at`](Self::shard_digests_at)); a shard out of
    /// range reads as empty.
    pub(crate) fn digests_of(&self, shards: &[u64], count: usize) -> Vec<ShardDigest> {
        if shards.is_empty() {
            return Vec::new();
        }
        let digests = self.shard_digests_at(count);
        let at = |shard: u64| digests.get(shard as usize).copied().unwrap_or_default();
        shards.iter().map(|&shard| at(shard)).collect()
    }

    /// The planner phase in one call, for an in-process caller that
    /// holds the store for the whole contact (`crates/perf`'s mirror):
    /// the plan of a connection's first contact
    /// ([`plan_contact_since`](Self::plan_contact_since) with nothing to
    /// propose from) and the serving endpoint over its incremental
    /// shards, whole — both from this one view of the store. A
    /// [`Serving`](optrep_replication::mux::Serving) does not come
    /// through here: it asks for the plan and, once the puller has
    /// answered it, for the endpoint
    /// ([`open_contact`](Self::open_contact)). The [`PlanConfig`]
    /// configures nothing; the mirror names it.
    ///
    /// # Panics
    ///
    /// As [`plan_contact_since`](Self::plan_contact_since).
    pub fn plan_contact(
        &self,
        digests: &DigestVector,
        _config: &PlanConfig,
    ) -> (ShardPlan, BatchPullServer) {
        let plan = self.plan_contact_since(digests, None);
        let endpoint = self.server_endpoint_for(&plan.incremental, plan.count as usize);
        (plan, endpoint)
    }

    /// The serving half of the planner phase: folds this store's
    /// digests to the puller's shard count, [`decide`]s per shard,
    /// encodes the bulk-loaded shards' records as one image and digests the
    /// children of the shards `decide` priced as worth narrowing — all
    /// from one view of the store, the one whose
    /// [`generation`](Self::generation) the
    /// caller remembers as the connection's next `since` (call under
    /// one lock in a daemon).
    ///
    /// `since` is this store's generation when it planned the same
    /// connection's previous contact. Where the change journal still
    /// reaches back to it, the keys changed since are the hints `decide`
    /// prices, each shard's with what the shard summarised to then —
    /// its digest now less what the journalled changes did to it — and
    /// `decide` proposes a shard only where that equals the puller's
    /// digest of it. With `None`, or a journal that has since evicted
    /// past `since`, the plan is what digests alone give.
    ///
    /// No endpoint is built here: which keys the contact will open is
    /// not known until the puller has answered what the plan offers
    /// ([`open_contact`](Self::open_contact)).
    ///
    /// # Panics
    ///
    /// Panics unless `digests` holds a power-of-two number of shards, at
    /// most [`MAX_SHARDS`] — what [`DigestVector::decode`] admits. The
    /// field is public, so a vector built in-process can be any length;
    /// one off the wire never gets here malformed.
    pub fn plan_contact_since(&self, digests: &DigestVector, since: Option<u64>) -> ShardPlan {
        self.plan_from(digests, since).0
    }

    /// [`plan_contact_since`](Self::plan_contact_since), this store's
    /// digest of each shard the plan serves whole at this view, as
    /// [`ContactAnswer::Plan`] lists them — each it bulk-loads, then
    /// each it proposes — and the push ([`push_of`](Self::push_of)). A
    /// proposed shard is named by its push alone, so a shard `decide`
    /// proposes that the push holds no record of is walked instead.
    fn plan_from(
        &self,
        digests: &DigestVector,
        since: Option<u64>,
    ) -> (ShardPlan, Vec<ShardDigest>, Bytes) {
        let count = digests.shards.len();
        assert!(
            count.is_power_of_two() && count <= MAX_SHARDS,
            "a digest vector of {count} shards: not a power of two up to {MAX_SHARDS}"
        );
        let ours = self.shard_digests_at(count);
        let mut hints: Vec<Hint> = Vec::new();
        if let Some(changed) = since.and_then(|since| self.journal.changed_since(since)) {
            let mut by_shard: BTreeMap<u64, (Vec<u64>, ShardDigest)> = BTreeMap::new();
            for (placed, change) in changed {
                let (candidates, moved) = by_shard.entry(placed & (count as u64 - 1)).or_default();
                candidates.push(placed);
                *moved += change;
            }
            for (shard, (mut candidates, moved)) in by_shard {
                candidates.sort_unstable();
                candidates.dedup();
                let since = ours[shard as usize] - moved;
                hints.push(Hint {
                    shard,
                    candidates,
                    since,
                });
            }
        }
        let mut decision = decide(&digests.shards, &ours, &hints);
        let pushes: Pushes = (hints.into_iter())
            .filter(|hint| decision.proposed.binary_search(&hint.shard).is_ok())
            .map(|hint| (hint.shard, hint.candidates))
            .collect();
        let (proposed, push) = self.push_of(count as u64, &pushes);
        decision.proposed = proposed;
        let mut plan = ShardPlan {
            count: count as u64,
            ..ShardPlan::default()
        };
        let mut bulk = Vec::new();
        for (shard, action) in decision.actions.iter().enumerate() {
            match action {
                ShardAction::Skip => {}
                ShardAction::Incremental => plan.incremental.push(shard as u64),
                ShardAction::Snapshot => bulk.push(shard as u64),
            }
        }
        plan.image = (!bulk.is_empty()).then(|| self.encode_shard_snapshot(&bulk, count));
        plan.bulk = bulk;
        let mut unseen: Vec<ShardDigest> = (plan.bulk.iter())
            .map(|&shard| ours[shard as usize])
            .collect();
        if !decision.refined.is_empty() {
            let children = self.child_digests(&decision.refined, plan.count, decision.fanout);
            plan.children = Some(ChildDigests {
                fanout: decision.fanout,
                parents: decision.refined.into_iter().zip(children).collect(),
            });
        }
        unseen.extend(decision.proposed.iter().map(|&shard| ours[shard as usize]));
        plan.proposed = decision.proposed;
        (plan, unseen, push)
    }

    /// The serving side's one door: this store's answer to what a
    /// [`Serving`](optrep_replication::mux::Serving) asks its source.
    /// At the digest frame: [`plan_contact_since`](Self::plan_contact_since),
    /// this store's [`generation`](Self::generation) — the `since`
    /// of the connection's next contact — its digest of each shard the
    /// plan bulk-loads or proposes, and the endpoint the plan pushes —
    /// each record of a proposed shard placed where the journal lists a
    /// change since `since` — all from one view. At the first frame of
    /// the puller's burst: the serving endpoint over the keys of the
    /// [`Cut`] the puller left of the plan's walked shards and no
    /// others, and what the keys it serves sum to in each of those
    /// shards — an entry hash a served key. The serving store is never
    /// modified by a contact.
    ///
    /// A proposed shard is served whole at the plan's view: what the
    /// push leaves out the puller holds as this store did at `since`
    /// and still does (the digest proof), and what the push carries is
    /// read here, so the shard's as-served digest is its digest now.
    /// A plan and an endpoint are two asks and two views of the store —
    /// a daemon locks once per ask, and once a contact where the plan
    /// walks nothing — and that is sound: a key written in between is
    /// served at its newer state, vector and value read together here,
    /// if the cut admits it, and is otherwise left to the connection's
    /// next contact, whose `since` is the plan's generation and so
    /// still behind the write; what the plan proved (a shard the puller
    /// holds as it stood at `since`, equal children) it proved of
    /// entries the contact does not transfer. For the same reason a
    /// walked shard's as-served digest is the plan's summary of those
    /// entries plus what is served of the shard now — the sums the
    /// endpoint answers with.
    ///
    /// # Panics
    ///
    /// At a `Plan` ask, as [`plan_contact_since`](Self::plan_contact_since).
    pub fn open_contact(&self, ask: ContactAsk<'_>) -> ContactAnswer {
        match ask {
            ContactAsk::Plan { digests, since } => {
                let (plan, unseen, push) = self.plan_from(digests, since);
                ContactAnswer::Plan(plan, self.generation, unseen, push)
            }
            ContactAsk::Endpoint(cut) => {
                let (server, sums) = self.server_endpoint_summed(&cut);
                ContactAnswer::Endpoint(server, sums)
            }
        }
    }
}

/// The objects a pulling endpoint names, from `records` in key order:
/// one stream per key, carrying its current metadata.
fn named<'a>(
    records: Vec<(Bytes, View<'a>)>,
) -> impl Iterator<Item = (Bytes, optrep_core::Srv)> + 'a {
    records.into_iter().map(|(key, view)| (key, view.srv()))
}

/// A planning violation, as the puller's half of the planning turn
/// raises one.
fn violation(message: String) -> Error {
    Error::UnexpectedMessage {
        protocol: "sync planner",
        message,
    }
}

/// The records a push lists, in key order.
struct Listed<'a>(Vec<(Bytes, View<'a>)>);

impl Entries for Listed<'_> {
    fn each<X>(
        &self,
        mut each: impl FnMut(Entry<'_>) -> std::result::Result<(), X>,
    ) -> std::result::Result<(), X> {
        (self.0.iter()).try_for_each(|(key, view)| each(Entry::of(key, *view)))
    }
}

/// What a store serves of `records`, in key order: metadata plus the
/// encoded value per key.
fn served<'a>(
    records: Vec<(Bytes, View<'a>)>,
) -> impl Iterator<Item = (Bytes, optrep_core::Srv, Bytes)> + 'a {
    records
        .into_iter()
        .map(|(key, view)| (key, view.srv(), encode_value(view.value)))
}

#[cfg(test)]
mod tests;
