//! The parallel contact engine.
//!
//! Anti-entropy between *disjoint* site pairs is embarrassingly parallel:
//! a pull contact reads one source and writes one destination, so any set
//! of pairs forming a matching on the site graph can run concurrently
//! without contention. This module schedules each gossip round as a
//! sequence of maximal matchings ("waves") over the round's random
//! `(dst, src)` pairing and executes every wave on a scoped
//! [`std::thread`] worker pool, with each [`Site`] behind its own lock —
//! a sharded `Vec<Mutex<Site>>`, no global cluster lock.
//!
//! One [`ContactOptions`] value configures a round: the transport
//! ([`Transport::Direct`] per-object sessions, [`Transport::Mux`] framed
//! multi-object contacts), an optional [`FaultPlan`], the
//! [`RetryPolicy`], the worker count, and a simulated per-round-trip
//! link latency. The cluster simulator stays in-process; real sockets
//! are the daemon's job (`optrep-server`, bench `e12`).
//!
//! Engine contacts are always *full* (unplanned) contacts: every hosted
//! object runs its session. The shard-digest planning turn that makes
//! daemon pulls O(dirty shards) (see [`planner`](crate::planner)) is a
//! store-level protocol — it needs `KvStore`'s per-shard digests, which
//! the engine's scheme-generic [`Site`]s don't have — so it lives in the
//! daemon's pull path, not here.
//!
//! # Determinism
//!
//! The whole round's pairing is drawn from the caller's RNG *before* any
//! contact runs, consuming randomness exactly like the sequential rounds
//! did. Waves are carved greedily in schedule order, so two contacts that
//! share a site always execute in schedule order (in different waves),
//! while contacts in the same wave are disjoint and commute: each writes
//! one site, and the shared [`CounterSink`] is atomic and
//! order-independent. A round is therefore byte-identical — same site
//! digests, same transferred-byte counters — for *any* worker count,
//! which `e10` and the engine tests assert.
//!
//! # Observability
//!
//! Sinks installed via [`obs::with`] are thread-local; the engine
//! captures the scheduling thread's stack with [`obs::installed`] and
//! re-installs it on every worker ([`obs::with_all`]) for the duration of
//! the wave. The sinks themselves are shared `Arc`s, so one
//! `CheckSink`/`CounterSink` instance is the merging aggregator for all
//! workers — its invariants (byte conservation, Δ+Γ identity, the
//! Theorem 5.1 bound) hold over the interleaved event stream because
//! every contact and session carries a globally unique id.
//!
//! # Semantic deltas vs. the sequential rounds
//!
//! * Quarantine takes effect on the *next* round: the pairing (and thus
//!   the candidate filtering) is computed up front, so a peer exhausted
//!   mid-round still serves pairs already scheduled this round. Health
//!   updates themselves are applied in schedule order after the round.
//! * A fatal (non-link) error stops scheduling further waves; contacts
//!   already launched in the failing wave still complete, and the sites
//!   are always restored before the error propagates.

#[cfg(debug_assertions)]
use crate::gossip::digest_site;
use crate::gossip::{
    absorb_session, apply_contact_site, capped_backoff, make_endpoints, Cluster, ContactEnv,
    PeerHealth, RetryPolicy, RoundReport,
};
use crate::meta::ReplicaMeta;
use crate::mux::{pull_contact, Faulted, InProcessLink};
use crate::object::ObjectId;
use crate::payload::{ReplicaPayload, WirePayload};
use crate::reconcile::Reconciler;
use crate::session::sync_replica;
use crate::site::Site;
use optrep_core::obs::{self, CounterSink};
use optrep_core::rng::SplitMix64;
use optrep_core::sync::SyncOptions;
use optrep_core::{obs_emit, Error, Result, SiteId, Srv};
use optrep_net::{mix_seed, FaultPlan, FaultStats, FaultyLink};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How the bytes of one contact travel between the paired sites.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One in-process session per object (the original `gossip_round`
    /// path). Works for every metadata scheme; supports no fault
    /// injection (there is no wire to inject into).
    Direct,
    /// One framed multi-object contact driven in lockstep in-process
    /// (the `contact` path). SRV metadata only; this is the transport
    /// fault plans inject into.
    Mux,
}

/// Everything one gossip round needs to know about how to run its
/// contacts: transport, fault plan, retry discipline, parallelism and
/// simulated link latency.
#[non_exhaustive]
#[derive(Debug, Clone)]
#[must_use = "ContactOptions does nothing until passed to round_with/converge_with"]
pub struct ContactOptions {
    /// The contact transport.
    pub transport: Transport,
    /// Restrict the round to one object ([`Transport::Direct`] only);
    /// `None` syncs every object the source hosts.
    pub object: Option<ObjectId>,
    /// Fault plan injected into every attempt, re-seeded per attempt via
    /// [`ContactEnv::salt`]. [`Transport::Mux`] only.
    pub fault: Option<FaultPlan>,
    /// Retry-and-quarantine discipline for aborted contacts.
    pub retry: RetryPolicy,
    /// Worker threads per wave. `1` (the default) runs contacts inline
    /// on the calling thread. Defaults to `$OPTREP_ENGINE_WORKERS` so CI
    /// can push an entire suite through the parallel path.
    pub workers: usize,
    /// Simulated one-way-pair link latency, slept once per blocking
    /// round trip of a committed contact (once flat for an aborted
    /// attempt). Zero by default. Parallel workers overlap these waits —
    /// anti-entropy over WANs is latency-bound, not CPU-bound — without
    /// affecting byte counts or digests.
    pub link_latency: Duration,
}

/// Worker-count default: `$OPTREP_ENGINE_WORKERS`, else 1 (inline).
fn default_workers() -> usize {
    std::env::var("OPTREP_ENGINE_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&w| w >= 1)
        .unwrap_or(1)
}

impl ContactOptions {
    fn new(transport: Transport) -> Self {
        ContactOptions {
            transport,
            object: None,
            fault: None,
            retry: RetryPolicy::default(),
            workers: default_workers(),
            link_latency: Duration::ZERO,
        }
    }

    /// Per-object in-process sessions (every metadata scheme).
    pub fn direct() -> Self {
        Self::new(Transport::Direct)
    }

    /// One framed multi-object contact per pair, driven in lockstep
    /// in-process (SRV metadata only).
    pub fn mux() -> Self {
        Self::new(Transport::Mux)
    }

    /// Restricts the round to `object` ([`Transport::Direct`] only).
    pub fn with_object(mut self, object: ObjectId) -> Self {
        self.object = Some(object);
        self
    }

    /// Injects `plan` into every attempt ([`Transport::Mux`] only),
    /// re-seeded per attempt so retries see fresh deterministic weather.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the retry-and-quarantine discipline.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the worker-pool width (values below 1 mean inline).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the simulated per-round-trip link latency.
    pub fn with_link_latency(mut self, latency: Duration) -> Self {
        self.link_latency = latency;
        self
    }
}

/// What one contact attempt produced.
#[derive(Debug)]
pub enum Attempt {
    /// The contact completed and its outcomes were committed to `dst`.
    Committed {
        /// Blocking round trips of the contact (drives latency
        /// simulation and the `round_trips` counter).
        round_trips: u64,
        /// Link fault statistics for the attempt.
        fault: FaultStats,
    },
    /// A link fault killed the attempt; nothing was committed and the
    /// destination site is byte-identical to its pre-attempt state.
    Aborted {
        /// The link error that aborted the attempt.
        error: Error,
        /// Link fault statistics for the attempt.
        fault: FaultStats,
    },
}

/// How a metadata scheme runs one engine contact.
///
/// Implemented for every scheme in the crate: BRV/CRV and the full-vector
/// baseline support [`Transport::Direct`] only (per-object sessions),
/// while [`Srv`] additionally drives the framed mux transport — with
/// optional fault injection — because only SRV metadata embeds in the
/// batched `SYNCS` engine
/// ([`crate::protocol::supports_session`]).
pub trait ContactScheme<P: ReplicaPayload>: ReplicaMeta + Sized {
    /// Runs one contact attempt pulling `src_site` into `dst_site` and
    /// commits a completed contact, recording costs in `stats`.
    ///
    /// # Errors
    ///
    /// `Err` is fatal (protocol violations on our own wire format, or a
    /// transport the scheme does not support); recoverable link faults
    /// surface as [`Attempt::Aborted`].
    fn drive_contact(
        env: &ContactEnv,
        opts: &ContactOptions,
        dst_site: &mut Site<Self, P>,
        src_site: &Site<Self, P>,
        reconciler: &dyn Reconciler<P>,
        sync_opts: SyncOptions,
        stats: &CounterSink,
    ) -> Result<Attempt>;
}

fn unsupported(scheme: &'static str, transport: Transport) -> Error {
    Error::UnexpectedMessage {
        protocol: "engine",
        message: format!(
            "{scheme} metadata only supports Transport::Direct, got {transport:?}: \
             the framed contact engine embeds SYNCS, which needs SRV metadata"
        ),
    }
}

/// The [`Transport::Direct`] attempt shared by every scheme: one
/// in-process session per object, exactly as `Cluster::sync` runs them.
fn drive_direct<M: ReplicaMeta, P: ReplicaPayload>(
    opts: &ContactOptions,
    dst_site: &mut Site<M, P>,
    src_site: &Site<M, P>,
    reconciler: &dyn Reconciler<P>,
    sync_opts: SyncOptions,
    stats: &CounterSink,
) -> Result<Attempt> {
    if opts.fault.is_some() {
        return Err(Error::UnexpectedMessage {
            protocol: "engine",
            message: "Transport::Direct has no wire to inject faults into; use Transport::Mux"
                .to_string(),
        });
    }
    let objects = match opts.object {
        Some(object) => vec![object],
        None => src_site.objects(),
    };
    let mut round_trips = 0;
    for object in objects {
        let report = sync_replica(dst_site, src_site, object, reconciler, sync_opts)?;
        absorb_session(stats, &report);
        round_trips += 1;
    }
    Ok(Attempt::Committed {
        round_trips,
        fault: FaultStats::default(),
    })
}

macro_rules! direct_only_scheme {
    ($($m:ty),* $(,)?) => {$(
        impl<P: ReplicaPayload> ContactScheme<P> for $m {
            fn drive_contact(
                _env: &ContactEnv,
                opts: &ContactOptions,
                dst_site: &mut Site<Self, P>,
                src_site: &Site<Self, P>,
                reconciler: &dyn Reconciler<P>,
                sync_opts: SyncOptions,
                stats: &CounterSink,
            ) -> Result<Attempt> {
                match opts.transport {
                    Transport::Direct => {
                        drive_direct(opts, dst_site, src_site, reconciler, sync_opts, stats)
                    }
                    other => Err(unsupported(<$m as ReplicaMeta>::NAME, other)),
                }
            }
        }
    )*};
}

direct_only_scheme!(
    optrep_core::Brv,
    optrep_core::Crv,
    optrep_core::VersionVector,
);

impl<P: WirePayload> ContactScheme<P> for Srv {
    fn drive_contact(
        env: &ContactEnv,
        opts: &ContactOptions,
        dst_site: &mut Site<Self, P>,
        src_site: &Site<Self, P>,
        reconciler: &dyn Reconciler<P>,
        sync_opts: SyncOptions,
        stats: &CounterSink,
    ) -> Result<Attempt> {
        match opts.transport {
            Transport::Direct => {
                drive_direct(opts, dst_site, src_site, reconciler, sync_opts, stats)
            }
            Transport::Mux => drive_mux(env, opts, dst_site, src_site, reconciler, stats),
        }
    }
}

/// One framed lockstep contact in-process, under the fault plan's
/// weather when there is one.
fn drive_mux<P: WirePayload>(
    env: &ContactEnv,
    opts: &ContactOptions,
    dst_site: &mut Site<Srv, P>,
    src_site: &Site<Srv, P>,
    reconciler: &dyn Reconciler<P>,
    stats: &CounterSink,
) -> Result<Attempt> {
    let (mut client, mut server) = make_endpoints(dst_site, src_site);
    let mut faults = opts
        .fault
        .map(|plan| FaultyLink::new(plan.reseeded(env.salt)));
    #[cfg(debug_assertions)]
    let digest_before = faults.is_some().then(|| digest_site(dst_site));
    let mut link = InProcessLink::new(&mut server);
    let pulled = match faults.as_mut() {
        Some(faults) => pull_contact(&mut client, &mut Faulted::new(link, faults)),
        None => pull_contact(&mut client, &mut link),
    };
    let fault = faults.map(|link| link.stats()).unwrap_or_default();
    match pulled {
        Ok(report) => {
            apply_contact_site(dst_site, env.dst, reconciler, stats, client, &report)?;
            Ok(Attempt::Committed {
                round_trips: report.round_trips,
                fault,
            })
        }
        // With no weather on the link only our own wire format can
        // fail, and that is fatal.
        Err(error) if opts.fault.is_none() => Err(error),
        Err(error) => {
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                Some(digest_site(dst_site)),
                digest_before,
                "aborted contact mutated {}",
                env.dst
            );
            Ok(Attempt::Aborted { error, fault })
        }
    }
}

/// Greedy maximal-matching partition of the round's pairing, in schedule
/// order: scan the remaining pairs, admit each whose two sites are still
/// free this wave, defer the rest. Conflicting pairs therefore always
/// execute in schedule order (across waves); same-wave pairs are
/// site-disjoint.
fn matching_waves(pairs: &[(SiteId, SiteId)], n: usize) -> Vec<Vec<usize>> {
    let mut remaining: Vec<usize> = (0..pairs.len()).collect();
    let mut waves = Vec::new();
    while !remaining.is_empty() {
        let mut busy = vec![false; n];
        let mut wave = Vec::new();
        let mut deferred = Vec::new();
        for &pi in &remaining {
            let (dst, src) = pairs[pi];
            let (d, s) = (dst.index() as usize, src.index() as usize);
            if busy[d] || busy[s] {
                deferred.push(pi);
            } else {
                busy[d] = true;
                busy[s] = true;
                wave.push(pi);
            }
        }
        waves.push(wave);
        remaining = deferred;
    }
    waves
}

/// What one `(dst, src)` pairing produced over all its attempts.
#[derive(Debug, Default)]
struct PairResult {
    committed: bool,
    aborted: u64,
    retries: u64,
    fault: FaultStats,
    fatal: Option<Error>,
}

fn add_fault(acc: &mut FaultStats, s: FaultStats) {
    acc.frames_offered += s.frames_offered;
    acc.frames_delivered += s.frames_delivered;
    acc.frames_dropped += s.frames_dropped;
    acc.frames_truncated += s.frames_truncated;
    acc.bytes_delivered += s.bytes_delivered;
}

/// Shared, immutable context for every contact of one round.
struct RoundCtx<'a, M, P> {
    shards: &'a [Mutex<Site<M, P>>],
    round: u64,
    opts: &'a ContactOptions,
    sync_opts: SyncOptions,
    stats: &'a CounterSink,
}

/// Sleeps out the simulated link latency for `round_trips` blocking
/// exchanges.
fn simulate_latency(opts: &ContactOptions, round_trips: u64) {
    if opts.link_latency > Duration::ZERO && round_trips > 0 {
        let trips = u32::try_from(round_trips).unwrap_or(u32::MAX);
        std::thread::sleep(opts.link_latency * trips);
    }
}

/// Runs every attempt of one `(dst, src)` pairing: locks the two site
/// shards (in index order — the wave is a matching, so no other worker
/// holds either, but ordered acquisition keeps the discipline
/// deadlock-free by construction), then drives the scheme's contact with
/// retries and per-attempt fault re-seeding.
fn run_pair_contact<M, P>(
    ctx: &RoundCtx<'_, M, P>,
    reconciler: &dyn Reconciler<P>,
    dst: SiteId,
    src: SiteId,
) -> PairResult
where
    M: ContactScheme<P>,
    P: ReplicaPayload,
{
    let lock = |i: usize| ctx.shards[i].lock().unwrap_or_else(|e| e.into_inner());
    let (d, s) = (dst.index() as usize, src.index() as usize);
    let (mut dst_guard, src_guard) = if d < s {
        let dg = lock(d);
        let sg = lock(s);
        (dg, sg)
    } else {
        let sg = lock(s);
        let dg = lock(d);
        (dg, sg)
    };

    let mut result = PairResult::default();
    let max_attempts = u64::from(ctx.opts.retry.max_attempts.max(1));
    for attempt in 1..=max_attempts {
        let env = ContactEnv {
            round: ctx.round,
            dst,
            src,
            attempt,
            salt: mix_seed(ctx.round, (u64::from(dst.index()) << 16) | attempt),
        };
        match M::drive_contact(
            &env,
            ctx.opts,
            &mut dst_guard,
            &src_guard,
            reconciler,
            ctx.sync_opts,
            ctx.stats,
        ) {
            Ok(Attempt::Committed { round_trips, fault }) => {
                add_fault(&mut result.fault, fault);
                result.committed = true;
                simulate_latency(ctx.opts, round_trips.max(1));
                break;
            }
            Ok(Attempt::Aborted { error: _, fault }) => {
                add_fault(&mut result.fault, fault);
                result.aborted += 1;
                simulate_latency(ctx.opts, 1);
                if attempt < max_attempts {
                    let backoff = capped_backoff(ctx.opts.retry, attempt);
                    result.retries += 1;
                    obs_emit!(obs::SyncEvent::Retry {
                        dst: dst.index(),
                        src: src.index(),
                        attempt,
                        backoff,
                    });
                }
            }
            Err(e) => {
                result.fatal = Some(e);
                break;
            }
        }
    }
    result
}

impl<M, P, R> Cluster<M, P, R>
where
    M: ContactScheme<P> + Send,
    P: ReplicaPayload + Send,
    R: Reconciler<P> + Sync,
{
    /// Runs one gossip round through the contact engine: every site pulls
    /// from one uniformly random non-quarantined peer; the pairing is
    /// partitioned into site-disjoint waves executed on up to
    /// `opts.workers` scoped threads. Consumes randomness exactly like
    /// the sequential rounds, and produces byte-identical results for any
    /// worker count (see the module docs).
    ///
    /// # Errors
    ///
    /// Link faults are absorbed into the report (retried, then
    /// quarantining the source); only fatal errors — staging violations
    /// on our own wire format, or a transport the metadata scheme does
    /// not support — propagate. The first fatal error (in schedule
    /// order) is returned after the sites are restored.
    pub fn round_with(
        &mut self,
        rng: &mut SplitMix64,
        opts: &ContactOptions,
    ) -> Result<RoundReport> {
        self.rounds += 1;
        obs_emit!(obs::SyncEvent::GossipRound { round: self.rounds });
        let n = self.sites.len() as u32;
        let mut order: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut report = RoundReport::default();

        // The whole round's pairing, drawn up front: each destination
        // picks uniformly among the non-quarantined other sites.
        let mut pairs: Vec<(SiteId, SiteId)> = Vec::new();
        for dst in order {
            let candidates: Vec<u32> = (0..n)
                .filter(|&s| s != dst && !self.quarantined(SiteId::new(s)))
                .collect();
            let Some(&src) = rng.pick(&candidates) else {
                report.skipped += 1;
                continue;
            };
            pairs.push((SiteId::new(dst), SiteId::new(src)));
        }
        let waves = matching_waves(&pairs, self.sites.len());

        let shards: Vec<Mutex<Site<M, P>>> = std::mem::take(&mut self.sites)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let ctx = RoundCtx {
            shards: &shards,
            round: self.rounds,
            opts,
            sync_opts: self.opts,
            stats: &self.stats,
        };
        let workers = opts.workers.max(1);
        let sinks = obs::installed();
        let mut results: Vec<Option<PairResult>> = (0..pairs.len()).map(|_| None).collect();

        let mut saw_fatal = false;
        for wave in &waves {
            if saw_fatal {
                break;
            }
            if workers == 1 || wave.len() == 1 {
                for &pi in wave {
                    let (dst, src) = pairs[pi];
                    let res = run_pair_contact(&ctx, &self.reconciler, dst, src);
                    saw_fatal |= res.fatal.is_some();
                    results[pi] = Some(res);
                    if saw_fatal {
                        break;
                    }
                }
            } else {
                let next = AtomicUsize::new(0);
                let fatal_flag = AtomicBool::new(false);
                let k = workers.min(wave.len());
                let ctx = &ctx;
                let reconciler = &self.reconciler;
                let pairs = &pairs;
                let wave_out: Vec<(usize, PairResult)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..k)
                        .map(|_| {
                            let sinks = sinks.clone();
                            let next = &next;
                            let fatal_flag = &fatal_flag;
                            scope.spawn(move || {
                                obs::with_all(sinks, || {
                                    let mut local = Vec::new();
                                    loop {
                                        if fatal_flag.load(Ordering::Relaxed) {
                                            break;
                                        }
                                        let i = next.fetch_add(1, Ordering::Relaxed);
                                        if i >= wave.len() {
                                            break;
                                        }
                                        let pi = wave[i];
                                        let (dst, src) = pairs[pi];
                                        let res = run_pair_contact(ctx, reconciler, dst, src);
                                        if res.fatal.is_some() {
                                            fatal_flag.store(true, Ordering::Relaxed);
                                        }
                                        local.push((pi, res));
                                    }
                                    local
                                })
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| match h.join() {
                            Ok(local) => local,
                            Err(panic) => std::panic::resume_unwind(panic),
                        })
                        .collect()
                });
                saw_fatal |= fatal_flag.load(Ordering::Relaxed);
                for (pi, res) in wave_out {
                    results[pi] = Some(res);
                }
            }
        }

        // Sites come back before any error can propagate.
        self.sites = shards
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect();

        // Health updates and counters are settled in schedule order, so
        // the outcome is independent of wave interleaving.
        let mut fatal = None;
        for (pi, res) in results.into_iter().enumerate() {
            let Some(res) = res else { continue };
            let (_, src) = pairs[pi];
            report.aborted += res.aborted;
            report.retries += res.retries;
            add_fault(&mut report.fault, res.fault);
            if let Some(e) = res.fatal {
                if fatal.is_none() {
                    fatal = Some(e);
                }
                continue;
            }
            if res.committed {
                self.health[src.index() as usize] = PeerHealth::default();
                report.contacts += 1;
            } else {
                let health = &mut self.health[src.index() as usize];
                health.failures += 1;
                health.quarantined_until =
                    self.rounds + capped_backoff(opts.retry, u64::from(health.failures));
            }
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Runs engine rounds until the cluster is consistent (for
    /// `opts.object` when set, over every hosted object otherwise), up to
    /// `max_rounds`. Returns `(rounds_taken, per-round reports)`;
    /// `rounds_taken` is `None` if the budget ran out.
    ///
    /// # Errors
    ///
    /// See [`round_with`](Self::round_with).
    pub fn converge_with(
        &mut self,
        rng: &mut SplitMix64,
        opts: &ContactOptions,
        max_rounds: u64,
    ) -> Result<(Option<u64>, Vec<RoundReport>)> {
        let mut reports = Vec::new();
        for round in 1..=max_rounds {
            reports.push(self.round_with(rng, opts)?);
            let consistent = match opts.object {
                Some(object) => self.is_consistent(object),
                None => self.is_consistent_all(),
            };
            if consistent {
                return Ok((Some(round), reports));
            }
        }
        Ok((None, reports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::TokenSet;
    use crate::reconcile::UnionReconciler;
    use optrep_core::Brv;

    fn seeded_cluster(n: u32, objects: u64) -> Cluster<Srv, TokenSet, UnionReconciler> {
        let mut cluster: Cluster<Srv, TokenSet, UnionReconciler> = Cluster::new(n, UnionReconciler);
        for i in 0..objects {
            let owner = SiteId::new((i % u64::from(n)) as u32);
            cluster
                .site_mut(owner)
                .create_object(ObjectId::new(i), TokenSet::singleton(format!("seed{i}")));
        }
        cluster
    }

    fn all_digests(cluster: &Cluster<Srv, TokenSet, UnionReconciler>) -> Vec<Vec<u8>> {
        (0..cluster.len() as u32)
            .map(|i| cluster.site_digest(SiteId::new(i)))
            .collect()
    }

    #[test]
    fn waves_are_matchings_and_preserve_schedule_order() {
        let id = SiteId::new;
        // dst 0←1, 1←2, 2←1, 3←0: pairs 1 and 2 share site 1 and 2; pair 3
        // shares site 0 with pair 0.
        let pairs = vec![
            (id(0), id(1)),
            (id(1), id(2)),
            (id(2), id(1)),
            (id(3), id(0)),
        ];
        let waves = matching_waves(&pairs, 4);
        for wave in &waves {
            let mut busy = std::collections::HashSet::new();
            for &pi in wave {
                let (d, s) = pairs[pi];
                assert!(busy.insert(d), "wave reuses {d}");
                assert!(busy.insert(s), "wave reuses {s}");
            }
        }
        // Conflicting pairs run in schedule order across waves.
        let wave_of = |pi: usize| waves.iter().position(|w| w.contains(&pi)).unwrap();
        assert!(
            wave_of(1) < wave_of(2),
            "1 and 2 conflict; 1 scheduled first"
        );
        assert!(
            wave_of(0) < wave_of(3),
            "0 and 3 conflict; 0 scheduled first"
        );
        let scheduled: usize = waves.iter().map(Vec::len).sum();
        assert_eq!(scheduled, pairs.len());
    }

    #[test]
    fn parallel_round_is_byte_identical_to_sequential() {
        for transport in [ContactOptions::direct(), ContactOptions::mux()] {
            let mut sequential = seeded_cluster(12, 6);
            let mut parallel = sequential.clone();
            let mut rng_a = SplitMix64::new(0xD16E57);
            let mut rng_b = SplitMix64::new(0xD16E57);
            let opts_seq = transport.clone().with_workers(1);
            let opts_par = transport.with_workers(4);
            for _ in 0..6 {
                let a = sequential.round_with(&mut rng_a, &opts_seq).unwrap();
                let b = parallel.round_with(&mut rng_b, &opts_par).unwrap();
                assert_eq!(a, b, "round reports diverged");
            }
            assert_eq!(all_digests(&sequential), all_digests(&parallel));
            assert_eq!(
                sequential.stats().counters,
                parallel.stats().counters,
                "byte counters must not depend on the worker count"
            );
        }
    }

    #[test]
    fn parallel_faulty_round_is_deterministic_across_worker_counts() {
        let plan = FaultPlan::dropping(0xFA11, 100);
        let opts = |w| {
            ContactOptions::mux()
                .with_fault(plan)
                .with_retry(RetryPolicy::default())
                .with_workers(w)
        };
        let run = |workers: usize| {
            let mut cluster = seeded_cluster(10, 5);
            let mut rng = SplitMix64::new(0xC0FFEE);
            // To full replication (26 rounds at most over the seeds
            // 0..256): `converge_with` would stop after one round, at
            // `is_consistent_all`.
            let mut reports = Vec::new();
            while !cluster.fully_replicated() {
                assert!(reports.len() < 200, "faulty cluster converged");
                reports.push(cluster.round_with(&mut rng, &opts(workers)).unwrap());
            }
            (reports, all_digests(&cluster), cluster.stats().counters)
        };
        let (reports_1, digests_1, counters_1) = run(1);
        let (reports_8, digests_8, counters_8) = run(8);
        assert_eq!(reports_1, reports_8);
        assert_eq!(digests_1, digests_8);
        assert_eq!(counters_1, counters_8);
        let aborted: u64 = reports_1.iter().map(|r| r.aborted).sum();
        assert!(aborted > 0, "10% drop should abort something");
        let wire: u64 = reports_1.iter().map(|r| r.fault.frames_dropped).sum();
        assert!(wire > 0, "fault stats flow into the round reports");
    }

    #[test]
    fn direct_only_schemes_reject_framed_transports() {
        let mut cluster: Cluster<Brv, TokenSet, UnionReconciler> = Cluster::new(3, UnionReconciler);
        cluster
            .site_mut(SiteId::new(0))
            .create_object(ObjectId::new(0), TokenSet::singleton("x"));
        let mut rng = SplitMix64::new(1);
        let err = cluster
            .round_with(&mut rng, &ContactOptions::mux())
            .unwrap_err();
        assert!(matches!(
            err,
            Error::UnexpectedMessage {
                protocol: "engine",
                ..
            }
        ));
        // The cluster survives the fatal error intact.
        assert_eq!(cluster.len(), 3);
        assert!(cluster
            .site(SiteId::new(0))
            .replica(ObjectId::new(0))
            .is_some());
    }

    #[test]
    fn total_frame_loss_quarantines_every_source() {
        let mut cluster = seeded_cluster(2, 1);
        let mut rng = SplitMix64::new(5);
        let policy = RetryPolicy::default();
        let opts = ContactOptions::mux()
            .with_fault(FaultPlan::dropping(9, 1000)) // 100% frame drop
            .with_retry(policy);
        let report = cluster.round_with(&mut rng, &opts).unwrap();
        assert_eq!(report.contacts, 0);
        assert_eq!(report.aborted, 2 * u64::from(policy.max_attempts));
        assert_eq!(report.retries, 2 * u64::from(policy.max_attempts - 1));
        assert!(cluster.quarantined(SiteId::new(0)));
        assert!(cluster.quarantined(SiteId::new(1)));
        // Next round: every candidate quarantined, so both sites skip
        // and no further aborts pile up.
        let report = cluster.round_with(&mut rng, &opts).unwrap();
        assert_eq!(report.skipped, 2);
        assert_eq!(report.aborted, 0);
        // backoff_base = 1: the quarantine lapses after `capped_backoff`
        // rounds, the sources are retried, fail again, and the
        // quarantine doubles.
        assert_eq!(capped_backoff(policy, 1), 1);
        let report = cluster.round_with(&mut rng, &opts).unwrap();
        assert_eq!(report.skipped, 0, "the quarantine lapsed");
        assert_eq!(report.aborted, 2 * u64::from(policy.max_attempts));
        assert_eq!(capped_backoff(policy, 2), 2);
        for _ in 0..2 {
            assert!(cluster.quarantined(SiteId::new(0)));
            assert!(cluster.quarantined(SiteId::new(1)));
            let report = cluster.round_with(&mut rng, &opts).unwrap();
            assert_eq!(report.skipped, 2, "second failure sits out two rounds");
        }
        let report = cluster.round_with(&mut rng, &opts).unwrap();
        assert_eq!(report.skipped, 0);
    }

    #[test]
    fn link_latency_is_simulated_per_round_trip() {
        let mut cluster = seeded_cluster(2, 1);
        let mut rng = SplitMix64::new(2);
        let latency = Duration::from_millis(5);
        let opts = ContactOptions::mux().with_link_latency(latency);
        let start = std::time::Instant::now();
        let report = cluster.round_with(&mut rng, &opts).unwrap();
        assert_eq!(report.contacts, 2);
        assert!(
            start.elapsed() >= latency * 2,
            "two contacts must sleep at least one latency each"
        );
    }
}
