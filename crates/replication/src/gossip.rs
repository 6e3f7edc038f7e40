//! Anti-entropy gossip over a cluster of sites.
//!
//! [`Cluster`] hosts `n` sites and drives randomized pairwise
//! synchronization rounds until every replica of an object is consistent —
//! the eventual-consistency guarantee of §2.1. All randomness comes from a
//! caller-provided seeded RNG, so runs are reproducible; all costs are
//! aggregated into [`ClusterStats`], which the benchmark harness reads.

use crate::meta::ReplicaMeta;
use crate::mux::{
    pull_contact, run_contact, BatchPullClient, BatchPullServer, ContactReport, Faulted,
    InProcessLink,
};
use crate::object::ObjectId;
use crate::payload::{ReplicaPayload, WirePayload};
use crate::reconcile::Reconciler;
use crate::session::{sync_replica, Outcome, SessionReport};
use crate::site::{Site, StateReplica};
use bytes::{Bytes, BytesMut};
use optrep_core::obs::{CounterSink, CounterSnapshot, SessionTotals};
use optrep_core::sync::SyncOptions;
use optrep_core::{wire, Causality, Error, Result, SiteId, Srv};
use optrep_net::{FaultStats, FaultyLink};

/// Point-in-time view of a cluster's aggregated costs and outcomes.
///
/// [`Cluster::stats`] hands out a *copy*: the `at_round` field records the
/// gossip round at snapshot time so a stale read (a snapshot taken before
/// more rounds ran) is visible instead of silently passing for live
/// totals. The counters themselves live in a [`CounterSink`] inside the
/// cluster — the same aggregation the event layer uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// Gossip rounds completed when the snapshot was taken.
    pub at_round: u64,
    /// The counter values at snapshot time.
    pub counters: CounterSnapshot,
}

impl std::ops::Deref for ClusterSnapshot {
    type Target = CounterSnapshot;

    fn deref(&self) -> &CounterSnapshot {
        &self.counters
    }
}

/// Historical name of the cluster's aggregate statistics.
pub type ClusterStats = ClusterSnapshot;

/// Retry discipline for contacts that abort mid-stream: how often to
/// retry within a round, and how the per-peer quarantine backoff grows
/// once retries are exhausted.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per (dst, src) pairing within one round before the source
    /// peer is quarantined.
    pub max_attempts: u32,
    /// Quarantine length (in rounds) after the first exhausted pairing;
    /// doubles per consecutive failure.
    pub backoff_base: u64,
    /// Upper bound on the quarantine length (rounds).
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: 1,
            backoff_cap: 8,
        }
    }
}

impl RetryPolicy {
    /// Sets the attempts per pairing within one round (minimum 1).
    #[must_use]
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// Sets the quarantine backoff: `base` rounds after the first
    /// exhausted pairing, doubling per consecutive failure up to `cap`.
    #[must_use]
    pub fn with_backoff(mut self, base: u64, cap: u64) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }
}

/// Per-peer failure accounting for quarantine decisions.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PeerHealth {
    /// Consecutive exhausted-retry failures serving as a source.
    pub(crate) failures: u32,
    /// The peer is not used as a source while `rounds <= quarantined_until`.
    pub(crate) quarantined_until: u64,
}

/// What one gossip round actually did.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// Contacts that completed and were committed.
    pub contacts: u64,
    /// Contact attempts that aborted (each either retried or exhausted).
    pub aborted: u64,
    /// Retries performed after an abort.
    pub retries: u64,
    /// Sites that could not pull at all (every candidate source
    /// quarantined).
    pub skipped: u64,
    /// Link-level fault statistics aggregated over every attempt in the
    /// round (all zeros when no fault plan is installed).
    pub fault: FaultStats,
}

/// The coordinates of one contact attempt, passed to
/// [`crate::engine::ContactScheme::drive_contact`] by the engine.
#[derive(Debug, Clone, Copy)]
pub struct ContactEnv {
    /// Gossip round number (1-based, monotonic across the cluster).
    pub round: u64,
    /// Pulling site.
    pub dst: SiteId,
    /// Serving site.
    pub src: SiteId,
    /// Attempt number for this pairing within the round (1-based).
    pub attempt: u64,
    /// Seed salt unique to this attempt — feed it to
    /// [`optrep_net::FaultPlan::reseeded`] so a retry does not replay the identical
    /// fault pattern.
    pub salt: u64,
}

/// A cluster of sites sharing replicated objects, synchronized by gossip.
#[derive(Debug, Clone)]
pub struct Cluster<M, P, R> {
    pub(crate) sites: Vec<Site<M, P>>,
    pub(crate) reconciler: R,
    pub(crate) opts: SyncOptions,
    pub(crate) stats: CounterSink,
    pub(crate) rounds: u64,
    pub(crate) health: Vec<PeerHealth>,
}

/// Routes one session's costs and outcome into a [`CounterSink`] — the
/// single absorption path shared by [`Cluster::sync`] and the engine's
/// direct transport.
pub(crate) fn absorb_session(sink: &CounterSink, report: &SessionReport) {
    sink.absorb(&report.totals());
    match report.outcome {
        Outcome::FastForwarded => sink.record_fast_forward(),
        Outcome::Reconciled => sink.record_reconciliation(),
        Outcome::ConflictExcluded => sink.record_conflict(),
        _ => {}
    }
}

impl<M, P, R> Cluster<M, P, R>
where
    M: ReplicaMeta,
    P: ReplicaPayload,
    R: Reconciler<P>,
{
    /// Creates a cluster of `n` sites (ids `0..n`).
    pub fn new(n: u32, reconciler: R) -> Self {
        Cluster {
            sites: (0..n).map(|i| Site::new(SiteId::new(i))).collect(),
            reconciler,
            opts: SyncOptions::default(),
            stats: CounterSink::new(),
            rounds: 0,
            health: vec![PeerHealth::default(); n as usize],
        }
    }

    /// `true` while `site` is quarantined as a gossip source (its recent
    /// contacts exhausted their retries).
    pub fn quarantined(&self, site: SiteId) -> bool {
        let h = &self.health[site.index() as usize];
        h.quarantined_until != 0 && self.rounds <= h.quarantined_until
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` iff the cluster has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Read access to a site.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn site(&self, id: SiteId) -> &Site<M, P> {
        &self.sites[id.index() as usize]
    }

    /// Mutable access to a site (for local updates).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn site_mut(&mut self, id: SiteId) -> &mut Site<M, P> {
        &mut self.sites[id.index() as usize]
    }

    /// A snapshot of the aggregated statistics so far, stamped with the
    /// number of gossip rounds completed.
    pub fn stats(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            at_round: self.rounds,
            counters: self.stats.snapshot(),
        }
    }

    /// Synchronizes `dst`'s replica of `object` from `src` and records the
    /// costs.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    ///
    /// # Panics
    ///
    /// Panics if `dst == src` or either id is out of range.
    pub fn sync(&mut self, dst: SiteId, src: SiteId, object: ObjectId) -> Result<SessionReport> {
        assert_ne!(dst, src, "a site does not sync with itself");
        let (d, s) = (dst.index() as usize, src.index() as usize);
        // Split-borrow the two sites.
        let (dst_site, src_site) = if d < s {
            let (lo, hi) = self.sites.split_at_mut(s);
            (&mut lo[d], &hi[0])
        } else {
            let (lo, hi) = self.sites.split_at_mut(d);
            (&mut hi[0], &lo[s])
        };
        let report = sync_replica(dst_site, src_site, object, &self.reconciler, self.opts)?;
        absorb_session(&self.stats, &report);
        Ok(report)
    }

    /// `true` iff every site hosting `object` has an identical payload and
    /// identical metadata values (eventual consistency reached).
    pub fn is_consistent(&self, object: ObjectId) -> bool {
        self.consistent_over(std::iter::once(object))
    }

    /// The one consistency-check loop shared by
    /// [`is_consistent`](Self::is_consistent),
    /// [`is_consistent_all`](Self::is_consistent_all) and
    /// [`fully_replicated`](Self::fully_replicated): for every listed
    /// object, every hosting site agrees on payload and metadata values.
    fn consistent_over(&self, objects: impl IntoIterator<Item = ObjectId>) -> bool {
        objects.into_iter().all(|object| {
            let mut reference: Option<(&P, optrep_core::VersionVector)> = None;
            for site in &self.sites {
                if let Some(replica) = site.replica(object) {
                    let values = replica.meta.values();
                    match &reference {
                        None => reference = Some((&replica.payload, values)),
                        Some((payload, vv)) => {
                            if **payload != replica.payload || *vv != values {
                                return false;
                            }
                        }
                    }
                }
            }
            true
        })
    }

    /// Deterministically brings every replica of `object` to consistency
    /// with a two-phase star sweep: site 0 pulls from every other site
    /// (reconciling as needed), then every site pulls from site 0.
    ///
    /// Randomized gossip with reconciling metadata can *livelock*: every
    /// reconciliation records a Parker §C increment, which is itself a new
    /// concurrent update seeding the next round's conflicts. The sweep
    /// sidesteps that: after phase one, site 0 dominates everything; after
    /// phase two, everyone equals site 0.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    pub fn settle(&mut self, object: ObjectId) -> Result<()> {
        let hub = SiteId::new(0);
        // Phase 0: the hub pulls from every spoke (reconciling as needed);
        // phase 1: every spoke pulls the settled state back.
        for phase in 0..2 {
            for i in 1..self.sites.len() as u32 {
                let spoke = SiteId::new(i);
                let (dst, src) = if phase == 0 {
                    (hub, spoke)
                } else {
                    (spoke, hub)
                };
                self.sync(dst, src, object)?;
            }
        }
        Ok(())
    }

    /// Every object id hosted by at least one site, sorted.
    pub fn all_objects(&self) -> Vec<ObjectId> {
        let mut objects: Vec<ObjectId> =
            self.sites.iter().flat_map(|site| site.objects()).collect();
        objects.sort_unstable();
        objects.dedup();
        objects
    }

    /// [`is_consistent`](Self::is_consistent) over every hosted object.
    pub fn is_consistent_all(&self) -> bool {
        self.consistent_over(self.all_objects())
    }

    /// Full convergence: every site hosts every object the cluster knows
    /// about, and all replicas agree.
    /// [`is_consistent_all`](Self::is_consistent_all) alone ignores sites
    /// an object never reached, which under heavy frame loss would
    /// declare victory early.
    #[must_use]
    pub fn fully_replicated(&self) -> bool {
        let objects = self.all_objects();
        !objects.is_empty()
            && self
                .sites
                .iter()
                .all(|site| objects.iter().all(|&object| site.replica(object).is_some()))
            && self.consistent_over(objects)
    }
}

/// The capped-exponential backoff for the `n`-th consecutive failure
/// (1-based): `min(base << (n-1), cap)` rounds.
pub(crate) fn capped_backoff(policy: RetryPolicy, n: u64) -> u64 {
    let shift = u32::try_from(n.saturating_sub(1)).unwrap_or(u32::MAX);
    policy
        .backoff_base
        .checked_shl(shift)
        .unwrap_or(u64::MAX)
        .min(policy.backoff_cap)
}

/// Wire name of an object on a multiplexed contact: its index as a varint.
fn object_name(object: ObjectId) -> Bytes {
    let mut buf = BytesMut::new();
    wire::put_varint(&mut buf, object.index());
    buf.freeze()
}

fn object_from_name(name: &Bytes) -> Result<ObjectId> {
    let mut buf = name.clone();
    Ok(ObjectId::new(wire::get_varint(&mut buf)?))
}

/// Builds the pull endpoints for one contact without touching either
/// site: the server side snapshots `src`'s replicas, the client side
/// snapshots `dst`'s metadata. Free-standing so the parallel engine can
/// call it on locked site shards as well as through
/// [`Cluster::contact`].
pub(crate) fn make_endpoints<P: WirePayload>(
    dst_site: &Site<Srv, P>,
    src_site: &Site<Srv, P>,
) -> (BatchPullClient, BatchPullServer) {
    let server_objects: Vec<(Bytes, Srv, Bytes)> = src_site
        .objects()
        .into_iter()
        .map(|object| {
            let replica = src_site.replica(object).expect("listed object exists");
            (
                object_name(object),
                replica.meta.clone(),
                replica.payload.encode_payload(),
            )
        })
        .collect();
    let client_objects: Vec<(Bytes, Srv)> = dst_site
        .objects()
        .into_iter()
        .map(|object| {
            let replica = dst_site.replica(object).expect("listed object exists");
            (object_name(object), replica.meta.clone())
        })
        .collect();
    (
        BatchPullClient::new(client_objects),
        BatchPullServer::new(server_objects),
    )
}

/// Applies a completed contact to `dst_site` transactionally: every
/// outcome is decoded and validated into a staging list first, and only
/// if the *whole* contact stages cleanly are replicas mutated and stats
/// recorded. A decode error mid-stage therefore leaves the site
/// byte-identical to its pre-contact state.
pub(crate) fn apply_contact_site<P: WirePayload>(
    dst_site: &mut Site<Srv, P>,
    dst: SiteId,
    reconciler: &dyn Reconciler<P>,
    stats: &CounterSink,
    client: BatchPullClient,
    report: &ContactReport,
) -> Result<()> {
    enum Staged<P> {
        Discovered { meta: Srv, payload: P },
        FastForward { meta: Srv, payload: P },
        Reconcile { meta: Srv, theirs: P },
        Clean,
    }

    fn payload_of<P: WirePayload>(data: Option<Bytes>, what: &'static str) -> Result<P> {
        let mut data = data.ok_or_else(|| Error::UnexpectedMessage {
            protocol: "mux apply",
            message: format!("{what} outcome without payload"),
        })?;
        P::decode_payload(&mut data).map_err(Error::Wire)
    }

    // Stage: no site mutation, no stats; any error exits here.
    let mut staged: Vec<(ObjectId, SessionTotals, Staged<P>)> = Vec::new();
    for result in client.finish() {
        let object = object_from_name(&result.name)?;
        let Some(outcome) = result.outcome else {
            // `dst` hosts an object `src` does not, or the stream
            // aborted mid-session; either way nothing is applied and
            // the object is re-pulled on the next contact.
            continue;
        };
        let totals = outcome.stats.totals();
        let action = if result.discovered {
            Staged::Discovered {
                meta: outcome.vector,
                payload: payload_of(outcome.payload, "discovery")?,
            }
        } else {
            match outcome.relation {
                Causality::Equal | Causality::After => Staged::Clean,
                Causality::Before => Staged::FastForward {
                    meta: outcome.vector,
                    payload: payload_of(outcome.payload, "fast-forward")?,
                },
                Causality::Concurrent => Staged::Reconcile {
                    meta: outcome.vector,
                    theirs: payload_of(outcome.payload, "reconciliation")?,
                },
            }
        };
        staged.push((object, totals, action));
    }

    // Commit: infallible from here on.
    stats.record_contact(report.round_trips);
    stats.absorb(&report.totals());
    for (object, totals, action) in staged {
        dst_site.stats_mut().syncs_received += 1;
        stats.absorb(&totals);
        match action {
            Staged::Clean => {}
            Staged::Discovered { meta, payload } => {
                dst_site.insert_replica(object, StateReplica { meta, payload });
            }
            Staged::FastForward { meta, payload } => {
                let replica = dst_site.replica_mut(object).expect("named by client");
                replica.meta = meta;
                replica.payload = payload;
                stats.record_fast_forward();
            }
            Staged::Reconcile { meta, theirs } => {
                let replica = dst_site.replica_mut(object).expect("named by client");
                replica.payload = reconciler.merge(&replica.payload, &theirs);
                replica.meta = meta;
                // Parker §C: increment after reconciliation to restore
                // the front-element invariant for the O(1) COMPARE.
                ReplicaMeta::record_update(&mut replica.meta, dst);
                let site_stats = dst_site.stats_mut();
                site_stats.reconciliations += 1;
                site_stats.updates += 1;
                stats.record_reconciliation();
            }
        }
    }
    Ok(())
}

/// A byte-exact fingerprint of one site's replicas — metadata snapshots
/// and encoded payloads — used to assert that aborted contacts left the
/// site untouched.
pub(crate) fn digest_site<P: WirePayload>(site: &Site<Srv, P>) -> Vec<u8> {
    let mut buf = BytesMut::new();
    for object in site.objects() {
        let replica = site.replica(object).expect("listed object exists");
        wire::put_varint(&mut buf, object.index());
        let meta = replica.meta.encode_snapshot();
        wire::put_varint(&mut buf, meta.len() as u64);
        buf.extend_from_slice(&meta);
        let payload = replica.payload.encode_payload();
        wire::put_varint(&mut buf, payload.len() as u64);
        buf.extend_from_slice(&payload);
    }
    buf.to_vec()
}

/// Mux-driven contacts. The batched engine embeds the per-stream `SYNCS`
/// session, which only the paper's SRV scheme supports
/// ([`crate::protocol::supports_session`]), so these methods exist for
/// `Srv` clusters whose payloads have a real wire format.
impl<P, R> Cluster<Srv, P, R>
where
    P: WirePayload,
    R: Reconciler<P>,
{
    /// Synchronizes **all** of `src`'s objects into `dst` over one framed
    /// connection: each shared object is an interleaved stream, first
    /// elements travel in one batched frame (one comparison round trip
    /// amortized over every object), and objects `dst` has never seen are
    /// discovered and created. Per-object outcomes are applied exactly as
    /// [`sync`](Self::sync) would (fast-forward overwrite, reconciler
    /// merge plus Parker §C increment) and all costs land in
    /// [`ClusterStats`].
    ///
    /// # Errors
    ///
    /// Propagates protocol and wire errors.
    ///
    /// # Panics
    ///
    /// Panics if `dst == src` or either id is out of range.
    pub fn contact(&mut self, dst: SiteId, src: SiteId) -> Result<ContactReport> {
        let (mut client, mut server) = self.endpoints(dst, src);
        let report = run_contact(&mut client, &mut server)?;
        self.apply_contact(dst, client, &report)?;
        Ok(report)
    }

    /// [`contact`](Self::contact) over a fault-injected link. On any
    /// link death, stall or decode error the contact aborts and `dst` is
    /// left **exactly** as it was — staged outcomes are discarded, no
    /// stats are recorded, no replica is touched — so the caller can
    /// simply retry on a re-seeded link.
    ///
    /// # Errors
    ///
    /// Propagates link faults ([`Error::ConnectionLost`],
    /// [`Error::Incomplete`]) and protocol/wire errors.
    ///
    /// # Panics
    ///
    /// Panics if `dst == src` or either id is out of range.
    pub fn contact_faulty(
        &mut self,
        dst: SiteId,
        src: SiteId,
        link: &mut FaultyLink,
    ) -> Result<ContactReport> {
        let (mut client, mut server) = self.endpoints(dst, src);
        let mut faulted = Faulted::new(InProcessLink::new(&mut server), link);
        let report = pull_contact(&mut client, &mut faulted)?;
        self.apply_contact(dst, client, &report)?;
        Ok(report)
    }

    /// Builds the pull endpoints for one contact without touching either
    /// site: the server side snapshots `src`'s replicas, the client side
    /// snapshots `dst`'s metadata.
    fn endpoints(&self, dst: SiteId, src: SiteId) -> (BatchPullClient, BatchPullServer) {
        assert_ne!(dst, src, "a site does not sync with itself");
        make_endpoints(
            &self.sites[dst.index() as usize],
            &self.sites[src.index() as usize],
        )
    }

    /// Applies a completed contact to `dst` transactionally: every
    /// outcome is decoded and validated into a staging list first, and
    /// only if the *whole* contact stages cleanly are replicas mutated
    /// and stats recorded. A decode error mid-stage therefore leaves
    /// `dst` byte-identical to its pre-contact state.
    fn apply_contact(
        &mut self,
        dst: SiteId,
        client: BatchPullClient,
        report: &ContactReport,
    ) -> Result<()> {
        apply_contact_site(
            &mut self.sites[dst.index() as usize],
            dst,
            &self.reconciler,
            &self.stats,
            client,
            report,
        )
    }

    /// A byte-exact fingerprint of one site's replicas — metadata
    /// snapshots and encoded payloads — used to assert that aborted
    /// contacts left the site untouched (see the chaos tests and
    /// `tests/fault_recovery.rs`).
    #[must_use]
    pub fn site_digest(&self, site: SiteId) -> Vec<u8> {
        digest_site(&self.sites[site.index() as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ContactOptions, ContactScheme};
    use crate::payload::TokenSet;
    use crate::reconcile::UnionReconciler;
    use optrep_core::rng::SplitMix64;
    use optrep_core::{Crv, Srv, VersionVector};
    use optrep_net::FaultPlan;

    fn obj() -> ObjectId {
        ObjectId::new(0)
    }

    /// Five rounds of gossip with up to four sites updating concurrently
    /// after each, then random pulls until every replica agrees — or, when
    /// 200 rounds leave the cluster in the reconciliation storm of
    /// EXPERIMENTS.md "Findings beyond the paper" 2, the star sweep that
    /// finding prescribes. At n = 8, 30 of the seeds 0..256 storm past 200
    /// rounds (none at n = 6), 42 among them:
    /// `a_reconciliation_storm_outlasts_200_rounds_and_settle_ends_it`.
    fn converged_cluster<M: ContactScheme<TokenSet> + Send>(
        n: u32,
        seed: u64,
        opts: &ContactOptions,
    ) -> Cluster<M, TokenSet, UnionReconciler> {
        let mut rng = SplitMix64::new(seed);
        let mut cluster = diverged_cluster(n, &mut rng, opts);
        let (rounds, _) = cluster.converge_with(&mut rng, opts, 200).unwrap();
        if rounds.is_none() {
            cluster.settle(obj()).unwrap();
        }
        assert!(cluster.is_consistent(obj()), "cluster failed to converge");
        cluster
    }

    fn diverged_cluster<M: ContactScheme<TokenSet> + Send>(
        n: u32,
        rng: &mut SplitMix64,
        opts: &ContactOptions,
    ) -> Cluster<M, TokenSet, UnionReconciler> {
        let mut cluster: Cluster<M, TokenSet, UnionReconciler> = Cluster::new(n, UnionReconciler);
        cluster
            .site_mut(SiteId::new(0))
            .create_object(obj(), TokenSet::singleton("init"));
        // Concurrent updates on several sites once replicas exist.
        for round in 0..5u32 {
            cluster.round_with(rng, opts).unwrap();
            for i in 0..n.min(4) {
                let site = SiteId::new(i);
                if cluster.site(site).replica(obj()).is_some() {
                    cluster.site_mut(site).update(obj(), |p| {
                        p.insert(format!("{site}:{round}"));
                    });
                }
            }
        }
        cluster
    }

    fn direct() -> ContactOptions {
        ContactOptions::direct().with_object(obj())
    }

    /// Seed 42 at eight sites, the schedule this module's tests have always
    /// used: every token is everywhere within ten rounds, and random pulls
    /// then reconcile about five times a round for 217 rounds — each
    /// Parker §C increment is a fresh concurrent update — until luck ends
    /// it. `settle` ends it in 2(n − 1) pulls, and it stays ended.
    #[test]
    fn a_reconciliation_storm_outlasts_200_rounds_and_settle_ends_it() {
        for opts in [direct(), ContactOptions::mux()] {
            let mut rng = SplitMix64::new(42);
            let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> =
                diverged_cluster(8, &mut rng, &opts);
            let payload = |cluster: &Cluster<Srv, TokenSet, UnionReconciler>, i| {
                cluster
                    .site(SiteId::new(i))
                    .replica(obj())
                    .map(|r| r.payload.clone())
            };
            let (rounds, _) = cluster.converge_with(&mut rng, &opts, 10).unwrap();
            assert_eq!(rounds, None);
            assert!((1..8).all(|i| payload(&cluster, i) == payload(&cluster, 0)));
            assert!(
                payload(&cluster, 0).unwrap().len() > 10,
                "every token arrived"
            );

            let before = cluster.stats().reconciliations;
            let (rounds, _) = cluster.converge_with(&mut rng, &opts, 190).unwrap();
            assert_eq!(rounds, None, "the storm outlasts 200 rounds");
            let stormed = cluster.stats().reconciliations - before;
            assert!(
                stormed > 3 * 190,
                "{stormed} reconciliations of equal payloads"
            );

            cluster.settle(obj()).unwrap();
            assert!(cluster.is_consistent(obj()));
            let settled = cluster.stats().reconciliations;
            let (rounds, _) = cluster.converge_with(&mut rng, &opts, 10).unwrap();
            assert_eq!(rounds, Some(1));
            assert_eq!(
                cluster.stats().reconciliations,
                settled,
                "nothing re-opens it"
            );
        }
    }

    #[test]
    fn srv_cluster_converges() {
        let cluster = converged_cluster::<Srv>(8, 42, &direct());
        assert!(cluster.is_consistent(obj()));
        assert!(
            cluster.stats().reconciliations > 0,
            "conflicts were reconciled"
        );
        // All update tokens made it everywhere.
        let payload = &cluster.site(SiteId::new(0)).replica(obj()).unwrap().payload;
        assert!(payload.len() > 10);
    }

    #[test]
    fn crv_and_full_agree_with_srv() {
        let srv = converged_cluster::<Srv>(6, 7, &direct());
        let crv = converged_cluster::<Crv>(6, 7, &direct());
        let full = converged_cluster::<VersionVector>(6, 7, &direct());
        let p = |c: &dyn Fn() -> TokenSet| c();
        let srv_payload = p(&|| {
            srv.site(SiteId::new(0))
                .replica(obj())
                .unwrap()
                .payload
                .clone()
        });
        let crv_payload = p(&|| {
            crv.site(SiteId::new(0))
                .replica(obj())
                .unwrap()
                .payload
                .clone()
        });
        let full_payload = p(&|| {
            full.site(SiteId::new(0))
                .replica(obj())
                .unwrap()
                .payload
                .clone()
        });
        // Same seed → same trace → same final payload across schemes.
        assert_eq!(srv_payload, crv_payload);
        assert_eq!(srv_payload, full_payload);
    }

    #[test]
    fn stats_accumulate() {
        let cluster = converged_cluster::<Srv>(8, 42, &direct());
        let stats = cluster.stats();
        assert!(stats.sessions > 0);
        assert!(stats.meta_bytes > 0);
        assert!(stats.payload_bytes > 0);
        assert!(stats.fast_forwards > 0);
    }

    #[test]
    #[should_panic(expected = "does not sync with itself")]
    fn self_sync_rejected() {
        let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(2, UnionReconciler);
        let _ = cluster.sync(SiteId::new(0), SiteId::new(0), obj());
    }

    #[test]
    fn mux_rounds_match_per_object_rounds() {
        // Same seed → same pairings; per-object relations depend only on
        // the vectors, so routing the trace through the mux engine must
        // land every site on the same payload as dedicated sessions.
        let per_object = converged_cluster::<Srv>(8, 42, &direct());
        let mux = converged_cluster::<Srv>(8, 42, &ContactOptions::mux());
        let a = &per_object
            .site(SiteId::new(0))
            .replica(obj())
            .unwrap()
            .payload;
        let b = &mux.site(SiteId::new(0)).replica(obj()).unwrap().payload;
        assert_eq!(a, b);
        let stats = mux.stats();
        assert!(stats.contacts > 0);
        assert!(stats.round_trips > 0);
        assert!(stats.framing_bytes > 0, "connection overhead is accounted");
        assert!(stats.reconciliations > 0, "conflicts were reconciled");
    }

    #[test]
    fn contact_syncs_all_objects_over_one_connection() {
        let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(2, UnionReconciler);
        for i in 0..8u64 {
            cluster
                .site_mut(SiteId::new(0))
                .create_object(ObjectId::new(i), TokenSet::singleton(format!("o{i}")));
        }
        // First contact discovers all eight objects in one connection.
        let report = cluster.contact(SiteId::new(1), SiteId::new(0)).unwrap();
        assert!(report.round_trips <= 2, "discovery burst, not per-object");
        for i in 0..8u64 {
            assert!(cluster
                .site(SiteId::new(1))
                .replica(ObjectId::new(i))
                .is_some());
        }
        assert!(cluster.is_consistent_all());
        // A clean repeat costs exactly one blocking round trip and no
        // payload: the batched first-element exchange settles every stream.
        let repeat = cluster.contact(SiteId::new(1), SiteId::new(0)).unwrap();
        assert_eq!(repeat.round_trips, 1);
        assert_eq!(repeat.payload_bytes, 0);
    }

    #[test]
    fn aborted_contact_leaves_dst_untouched() {
        let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(2, UnionReconciler);
        for i in 0..4u64 {
            cluster
                .site_mut(SiteId::new(0))
                .create_object(ObjectId::new(i), TokenSet::singleton(format!("o{i}")));
        }
        // Give site 1 a diverged copy of object 0 so a real transfer is due.
        cluster
            .site_mut(SiteId::new(1))
            .create_object(ObjectId::new(0), TokenSet::singleton("mine"));
        let before = cluster.site_digest(SiteId::new(1));
        let stats_before = cluster.stats();

        // The link dies 30 bytes in: mid-BatchHello or shortly after.
        let mut link = FaultyLink::new(FaultPlan::disconnect_at(30));
        let err = cluster
            .contact_faulty(SiteId::new(1), SiteId::new(0), &mut link)
            .unwrap_err();
        assert!(matches!(err, Error::ConnectionLost { .. }), "got {err:?}");

        // Transactionality: nothing moved, nothing was counted.
        assert_eq!(cluster.site_digest(SiteId::new(1)), before);
        assert_eq!(cluster.stats().counters, stats_before.counters);
        assert_eq!(cluster.site(SiteId::new(1)).stats().syncs_received, 0);

        // A clean follow-up contact converges as if the abort never
        // happened.
        let mut link = FaultyLink::clean();
        cluster
            .contact_faulty(SiteId::new(1), SiteId::new(0), &mut link)
            .unwrap();
        cluster.contact(SiteId::new(0), SiteId::new(1)).unwrap();
        cluster.contact(SiteId::new(1), SiteId::new(0)).unwrap();
        assert!(cluster.is_consistent_all());
    }

    /// Rounds until every site hosts every object and all agree.
    /// (`converge_with` without an object stops at `is_consistent_all`,
    /// which single-writer objects satisfy after one round, wherever they
    /// have not reached yet.) Over the seeds 0..256 the two clusters
    /// below take at most 18 and 7 rounds.
    fn replicate_fully(
        cluster: &mut Cluster<Srv, TokenSet, UnionReconciler>,
        rng: &mut SplitMix64,
        opts: &ContactOptions,
        max_rounds: usize,
    ) -> Vec<RoundReport> {
        let mut reports = Vec::new();
        while !cluster.fully_replicated() {
            assert!(reports.len() < max_rounds, "cluster failed to converge");
            reports.push(cluster.round_with(rng, opts).unwrap());
        }
        reports
    }

    #[test]
    fn faulty_gossip_converges_under_frame_loss() {
        let mut rng = SplitMix64::new(17);
        let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(8, UnionReconciler);
        for i in 0..4u64 {
            let owner = SiteId::new((i % 3) as u32);
            cluster
                .site_mut(owner)
                .create_object(ObjectId::new(i), TokenSet::singleton(format!("seed{i}")));
        }
        // 10% frame drop, deterministic seed.
        let plan = FaultPlan::dropping(99, 100);
        let opts = ContactOptions::mux()
            .with_fault(plan)
            .with_retry(RetryPolicy::default());
        let reports = replicate_fully(&mut cluster, &mut rng, &opts, 200);
        let aborted: u64 = reports.iter().map(|r| r.aborted).sum();
        let contacts: u64 = reports.iter().map(|r| r.contacts).sum();
        assert!(contacts > 0);
        assert!(
            aborted > 0,
            "10% drop over {} contacts should abort at least one",
            contacts
        );
    }

    #[test]
    fn mux_gossip_converges_multiple_objects() {
        let mut rng = SplitMix64::new(9);
        let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(6, UnionReconciler);
        for i in 0..4u64 {
            let owner = SiteId::new((i % 3) as u32);
            cluster
                .site_mut(owner)
                .create_object(ObjectId::new(i), TokenSet::singleton(format!("seed{i}")));
        }
        replicate_fully(&mut cluster, &mut rng, &ContactOptions::mux(), 100);
        let stats = cluster.stats();
        assert!(stats.sessions > 0);
        assert!(stats.contacts > 0);
        assert!(stats.payload_bytes > 0);
    }
}
