//! The planner phase as a store sees it: digest vectors, child digests
//! and residuals, the plan, and every endpoint a contact runs between.

use crate::codec::{encode_image, encode_value};
use crate::record::{entry_hash, Record};
use crate::shard::{shard_index, Shard};
use crate::{KvStore, KvSyncReport, Resolver, MAX_SHARDS};
use bytes::Bytes;
use optrep_core::Result;
use optrep_replication::mux::{
    pull_planned, BatchPullClient, BatchPullServer, ContactAnswer, ContactAsk, ContactReport,
    InProcessLink, Restricted,
};
use optrep_replication::planner::{
    decide, nothing_to_pull, placement, Candidates, ChildDigests, Cut, DigestVector, PlanConfig,
    Proposal, ShardAction, ShardDigest, ShardPlan, ShardScope, VectorMemory, MAX_PLAN_SHARDS,
};
use std::collections::BTreeMap;

impl KvStore {
    /// The digests of the `fanout` children of each of `parents` (plan
    /// shards at `count`, strictly increasing), one vector per parent:
    /// child `j` of shard `s` is shard `s + j·count` at `count ·
    /// fanout`. Hashes the entries of those shards only.
    fn child_digests(&self, parents: &[u64], count: u64, fanout: u64) -> Vec<Vec<ShardDigest>> {
        let mut children = vec![vec![ShardDigest::default(); fanout as usize]; parents.len()];
        self.visit_shards(parents, count as usize, |record| {
            let hash = placement(record.key_bytes());
            if let Ok(slot) = parents.binary_search(&(hash & (count - 1))) {
                let child = &mut children[slot][((hash / count) & (fanout - 1)) as usize];
                child.digest = child.digest.wrapping_add(entry_hash(record));
                child.entries += 1;
            }
        });
        children
    }

    /// For each of `proposed` — plan shards at `whole.len()` shards,
    /// strictly increasing, with their candidates — this store's
    /// summary of the shard *less* its entries placed under the
    /// candidates. `whole` is this store's digests at that count. Walks
    /// those shards only, and hashes only the entries it subtracts.
    fn residuals(&self, whole: &[ShardDigest], proposed: &[Candidates]) -> Vec<ShardDigest> {
        let count = whole.len();
        let shards: Vec<u64> = proposed.iter().map(|(shard, _)| *shard).collect();
        let mut residuals: Vec<ShardDigest> =
            shards.iter().map(|&shard| whole[shard as usize]).collect();
        self.visit_shards(&shards, count, |record| {
            let hash = placement(record.key_bytes());
            if let Ok(slot) = shards.binary_search(&(hash & (count as u64 - 1))) {
                let candidates = &proposed[slot].1;
                if candidates
                    .binary_search(&(hash & (MAX_PLAN_SHARDS - 1)))
                    .is_ok()
                {
                    let residual = &mut residuals[slot];
                    residual.digest = residual.digest.wrapping_sub(entry_hash(record));
                    residual.entries -= 1;
                }
            }
        });
        residuals
    }

    /// The pulling half of an unplanned contact: one stream per tracked
    /// key (tombstones included), carrying this store's current
    /// metadata.
    pub(crate) fn client_endpoint(&self) -> BatchPullClient {
        pulling(self.records_sorted())
    }

    /// The serving half of an unplanned contact: metadata plus the
    /// encoded value for every tracked key. The serving store is never
    /// modified by a contact.
    pub(crate) fn server_endpoint(&self) -> BatchPullServer {
        serving(self.records_sorted())
    }

    /// The pulling half of a planned contact whose puller walks the
    /// given plan shards (at plan-shard count `count`) whole: one stream
    /// per tracked key of those shards. Keys are presented in
    /// sorted order, so stream-id assignment (and therefore the whole
    /// framed exchange) is independent of the local shard layout.
    pub fn client_endpoint_for(&self, shards: &[u64], count: usize) -> BatchPullClient {
        pulling(self.records_in(shards, count, |_| true))
    }

    /// The pulling half of a planned contact, cut as finely as `plan`
    /// allows. Where the plan offers child digests, this store's
    /// children of the same shards are compared with them and the
    /// endpoint keeps, of those shards, only the keys of children that
    /// differ. Where it proposes a shard's scope, this store's summary
    /// of the shard less its own entries under the proposal's candidates
    /// is compared with the proposal's residual: equal — digest *and*
    /// entry count, the evidence a skipped shard is skipped on — and
    /// every other entry of the shard is the source's, so the endpoint
    /// keeps only the keys under the candidates; different — this store
    /// wrote or pulled something the source's journal knows nothing of —
    /// and the shard is refused and presented whole. The [`ShardScope`]
    /// returned with the endpoint tells the server all of it, so both
    /// sides cut alike; every other incremental shard is presented
    /// whole. For a plan that offers nothing this is
    /// [`client_endpoint_for`](Self::client_endpoint_for) over its
    /// incremental shards. Call it under the guard that snapshots the
    /// [`generation`](Self::generation): digests and endpoint are one
    /// view of the store.
    pub fn client_endpoint_refined(&self, plan: &ShardPlan) -> Restricted {
        let count = plan.count as usize;
        let Some(offer) = plan.offer() else {
            return self.client_endpoint_for(&plan.incremental, count).into();
        };
        let mut differing = Vec::new();
        if let Some(theirs) = &plan.children {
            let ours = self.child_digests(&offer.parents, offer.count, offer.fanout);
            for ((shard, theirs), ours) in theirs.parents.iter().zip(&ours) {
                for (j, (ours, theirs)) in ours.iter().zip(theirs).enumerate() {
                    if !nothing_to_pull(ours, theirs) {
                        differing.push(shard + j as u64 * offer.count);
                    }
                }
            }
            differing.sort_unstable();
        }
        let refused = (!plan.proposed.is_empty()).then(|| {
            let ours = self.residuals(&self.shard_digests_at(count), &offer.proposed);
            (plan.proposed.iter().zip(ours))
                .filter(|(proposal, ours)| proposal.residual != *ours)
                .map(|(proposal, _)| proposal.shard)
                .collect()
        });
        let scope = ShardScope {
            count: offer.count * offer.fanout,
            children: differing,
            refused,
        };
        let client = pulling(self.records_cut(&Cut {
            count: plan.count,
            incremental: &plan.incremental,
            narrowed: Some((&offer, &scope)),
        }));
        Restricted {
            client,
            scope: Some(scope),
        }
    }

    /// The serving half of a planned contact whose puller walks the
    /// given plan shards (at plan-shard count `count`) whole. Discovery
    /// offers only keys inside them, so clean shards cost zero object
    /// rounds.
    fn server_endpoint_for(&self, shards: &[u64], count: usize) -> BatchPullServer {
        self.server_endpoint_cut(&Cut {
            count: count as u64,
            incremental: shards,
            narrowed: None,
        })
    }

    /// The serving half of a planned contact, over the keys of `cut` and
    /// no others: the mirror of
    /// [`client_endpoint_refined`](Self::client_endpoint_refined) —
    /// filter, *then* decode the vector and copy the key and value — and
    /// the one place a planned serving endpoint is built. Every vector
    /// is read with its value, from `self` as it stands now.
    fn server_endpoint_cut(&self, cut: &Cut<'_>) -> BatchPullServer {
        serving(self.records_cut(cut))
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
    fn shard_digests_at(&self, count: usize) -> Vec<ShardDigest> {
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
            for record in self.records() {
                let target = &mut out[shard_index(record.key_bytes(), count)];
                target.digest = target.digest.wrapping_add(entry_hash(record));
                target.entries += 1;
            }
        }
        out
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
    /// encodes snapshot blobs for the bulk-load shards, digests the
    /// children of the shards `decide` priced as worth narrowing and
    /// the residuals of the shards it proposes — all from one view of
    /// the store, the one whose [`generation`](Self::generation) the
    /// caller remembers as the connection's next `since` (call under
    /// one lock in a daemon).
    ///
    /// `since` is this store's generation when it planned the same
    /// connection's previous contact. Where the change
    /// journal still reaches back to it, the keys changed since are the
    /// hints `decide` prices, and each shard it chooses to propose
    /// carries them as candidates beside the digest of everything else
    /// in the shard. With `None`, or a journal that has since evicted
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
        let count = digests.shards.len();
        assert!(
            count.is_power_of_two() && count <= MAX_SHARDS,
            "a digest vector of {count} shards: not a power of two up to {MAX_SHARDS}"
        );
        let ours = self.shard_digests_at(count);
        let mut hints: Vec<Candidates> = Vec::new();
        if let Some(changed) = since.and_then(|since| self.journal.changed_since(since)) {
            let mut by_shard: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for hash in changed {
                let candidates = by_shard.entry(hash & (count as u64 - 1)).or_default();
                candidates.push(hash & (MAX_PLAN_SHARDS - 1));
            }
            for (shard, mut candidates) in by_shard {
                candidates.sort_unstable();
                candidates.dedup();
                hints.push((shard, candidates));
            }
        }
        let decision = decide(&digests.shards, &ours, &hints);
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
        // Each walk sorts the shards it names and nothing else; within
        // a walk, bucketing keeps key order, so each image is what
        // `encode_shard_snapshot` would sort out for that shard alone.
        let mut images: BTreeMap<u64, Vec<&Record>> =
            bulk.iter().map(|&shard| (shard, Vec::new())).collect();
        for record in self.records_in(&bulk, count, |_| true) {
            let shard = shard_index(record.key_bytes(), count) as u64;
            images.get_mut(&shard).expect("a bulk shard").push(record);
        }
        plan.snapshots = images
            .iter()
            .map(|(&shard, image)| (shard, encode_image(None, image)))
            .collect();
        if !decision.refined.is_empty() {
            let children = self.child_digests(&decision.refined, plan.count, decision.fanout);
            plan.children = Some(ChildDigests {
                fanout: decision.fanout,
                parents: decision.refined.into_iter().zip(children).collect(),
            });
        }
        if !decision.proposed.is_empty() {
            hints.retain(|(shard, _)| decision.proposed.binary_search(shard).is_ok());
            let residuals = self.residuals(&ours, &hints);
            plan.proposed = (hints.into_iter().zip(residuals))
                .map(|((shard, candidates), residual)| Proposal {
                    shard,
                    candidates,
                    residual,
                })
                .collect();
        }
        plan
    }

    /// The serving side's one door: this store's answer to what a
    /// [`Serving`](optrep_replication::mux::Serving) asks its source.
    /// At the digest frame: [`plan_contact_since`](Self::plan_contact_since)
    /// and this store's [`generation`](Self::generation) — the `since`
    /// of the connection's next contact — from one view. At the first
    /// frame of the puller's burst: the serving endpoint over the keys
    /// of the [`Cut`] the puller left of the plan and no others, or over
    /// every tracked key for a puller that sent no digest vector.
    ///
    /// A plan and an endpoint are two asks and two views of the store —
    /// a daemon locks once per ask — and that is sound: a key written in
    /// between is served at its newer state, vector and value read
    /// together here, if the cut admits it, and is otherwise left to the
    /// connection's next contact, whose `since` is the plan's generation
    /// and so still behind the write; what the plan proved (equal
    /// residuals, equal children) it proved of entries the contact does
    /// not transfer.
    ///
    /// # Panics
    ///
    /// At a `Plan` ask, as [`plan_contact_since`](Self::plan_contact_since).
    pub fn open_contact(&self, ask: ContactAsk<'_>) -> ContactAnswer {
        match ask {
            ContactAsk::Plan { digests, since } => {
                let plan = self.plan_contact_since(digests, since);
                ContactAnswer::Plan(plan, self.generation)
            }
            ContactAsk::Endpoint(Some(cut)) => {
                ContactAnswer::Endpoint(self.server_endpoint_cut(&cut))
            }
            ContactAsk::Endpoint(None) => ContactAnswer::Endpoint(self.server_endpoint()),
        }
    }

    /// A *planned* in-process pull from `src`: the full planner path —
    /// digest exchange, per-shard [`decide`], restricted contact over
    /// the incremental shards, snapshot bulk-load of the rest — in one
    /// call: [`pull_planned`] over an in-process link whose far end is
    /// `src`, so both planner frames cross the codec like every other
    /// frame. The daemon's pull is the same three steps over a socket;
    /// this is what it is tested against.
    ///
    /// Every call opens a fresh in-process link, so nothing is
    /// remembered between calls: the digest vector always crosses in
    /// full (`digests_sent == shards_total`) and `src` proposes nothing
    /// — the *first* contact of a daemon's connection. A daemon's later
    /// pulls over the same pooled socket send a delta, are proposed to
    /// from the source's journal, and report fewer `digest_bytes`,
    /// `meta_bytes` and `keys_examined` than this mirror; they end in
    /// the same state.
    ///
    /// Returns the sync report and the contact report (planner counters
    /// filled in, planner bytes excluded from the four byte planes).
    ///
    /// # Errors
    ///
    /// Propagates protocol errors; on error no key is modified.
    pub fn sync_planned(
        &mut self,
        src: &KvStore,
        resolver: &dyn Resolver,
    ) -> Result<(KvSyncReport, ContactReport)> {
        let digests = self.shard_digest_vector();
        let mut far = |ask: ContactAsk<'_>| src.open_contact(ask);
        let (client, plan, contact) = pull_planned(
            &mut InProcessLink::serving(&mut far),
            &mut VectorMemory::default(),
            &digests,
            |plan| self.client_endpoint_refined(plan),
        )?;
        let (report, _) = self.apply_planned_tracked(resolver, client, &contact, &plan)?;
        Ok((report, contact))
    }
}

/// A pulling endpoint over `records`: one stream per key, carrying its
/// current metadata.
fn pulling(records: Vec<&Record>) -> BatchPullClient {
    BatchPullClient::new(records.into_iter().map(|record| {
        let key = Bytes::copy_from_slice(record.key_bytes());
        (key, record.view().srv())
    }))
}

/// A serving endpoint over `records`: metadata plus the encoded value
/// per key.
fn serving(records: Vec<&Record>) -> BatchPullServer {
    BatchPullServer::new(records.into_iter().map(|record| {
        let key = Bytes::copy_from_slice(record.key_bytes());
        let view = record.view();
        (key, view.srv(), encode_value(view.value))
    }))
}

#[cfg(test)]
mod tests;
