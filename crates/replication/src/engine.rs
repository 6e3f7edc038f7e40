//! The contact engine: the pairing drawn up front, contacts in schedule
//! order, retries and quarantine — for any cluster behind [`Host`].
//!
//! [`round`] draws the whole round's `(dst, src)` pairing from the
//! caller's generator first, then runs the pairs one after another in
//! that order, each through [`Host::attempt`] until one commits or
//! three have aborted, and settles peer health and the round's
//! counters pair by pair. Two hosts share it: [`Cluster`], whose
//! per-object sessions ([`ContactOptions`]) are the paper's
//! scheme-generic comparator for BRV, CRV, SRV and the full-vector
//! baseline, and `optrep_kv`'s cluster of stores, whose every contact is
//! the daemon's planned pull and which is where fault plans are injected.
//!
//! Nothing here runs concurrently and nothing waits. The paper prices
//! anti-entropy in bytes and blocking round trips, and the hosts count
//! both exactly, whatever order the contacts ran in; time on a modelled
//! link is for that link to compute from the counted turns and bytes,
//! not to spend. Real sockets are the daemon's job (`optrep-server`,
//! bench `e12`).
//!
//! # Determinism
//!
//! A round is a function of the host and the generator: the pairing is
//! drawn before any contact runs, and each attempt carries a salt
//! derived from `(round, dst, attempt)` ([`ContactEnv::salt`]) for a
//! host to re-seed its fault schedule with. Two consequences:
//!
//! * Quarantine takes effect on the *next* round: a peer exhausted
//!   mid-round still serves the pairs already drawn this round.
//! * A fatal (non-link) error ends the round at the pair that raised it;
//!   the pairs before it are committed and settled.

use crate::gossip::Cluster;
use crate::meta::ReplicaMeta;
use crate::object::ObjectId;
use crate::payload::ReplicaPayload;
use crate::reconcile::Reconciler;
use optrep_core::obs;
use optrep_core::rng::SplitMix64;
use optrep_core::{obs_emit, Error, Result, SiteId};
use optrep_net::{mix_seed, FaultStats};

/// How a [`Cluster`] round runs its contacts: one in-process session per
/// object, for one object or every object the source hosts.
#[non_exhaustive]
#[derive(Debug, Clone)]
#[must_use = "ContactOptions does nothing until passed to round_with/converge_with"]
pub struct ContactOptions {
    /// Restrict the round to one object; `None` syncs every object the
    /// source hosts.
    pub object: Option<ObjectId>,
}

impl ContactOptions {
    /// Per-object in-process sessions (every metadata scheme).
    pub fn direct() -> Self {
        ContactOptions { object: None }
    }

    /// Restricts the round to `object`.
    pub fn with_object(mut self, object: ObjectId) -> Self {
        self.object = Some(object);
        self
    }
}

/// Attempts per (dst, src) pairing within one round before the source
/// peer is quarantined.
const MAX_ATTEMPTS: u64 = 3;

/// Quarantine length (in rounds) after the first exhausted pairing;
/// doubles per consecutive failure up to [`BACKOFF_CAP`].
const BACKOFF_BASE: u64 = 1;

/// Upper bound on the quarantine length (rounds).
const BACKOFF_CAP: u64 = 8;

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

/// What one contact attempt produced.
#[derive(Debug)]
pub enum Attempt {
    /// The contact completed and its outcomes were committed to `dst`.
    Committed {
        /// Link fault statistics for the attempt.
        fault: FaultStats,
    },
    /// A link fault killed the attempt; nothing was committed and the
    /// destination is byte-identical to its pre-attempt state.
    Aborted {
        /// The link error that aborted the attempt.
        error: Error,
        /// Link fault statistics for the attempt.
        fault: FaultStats,
    },
}

/// The coordinates of one contact attempt, passed to [`Host::attempt`].
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
    /// [`optrep_net::FaultPlan::reseeded`] so a retry does not replay the
    /// identical fault pattern.
    pub salt: u64,
}

/// One site's failure accounting as a gossip source.
#[derive(Debug, Clone, Copy, Default)]
struct PeerHealth {
    /// Consecutive exhausted-retry failures serving as a source.
    failures: u32,
    /// The peer is not used as a source while `rounds <= quarantined_until`.
    quarantined_until: u64,
}

/// What a host keeps between rounds for the engine: the round counter
/// and every site's health as a source.
#[derive(Debug, Clone)]
pub struct Gossip {
    rounds: u64,
    health: Vec<PeerHealth>,
}

impl Gossip {
    /// No round run yet over `sites` sites, none quarantined.
    pub fn new(sites: u32) -> Self {
        Gossip {
            rounds: 0,
            health: vec![PeerHealth::default(); sites as usize],
        }
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// `true` while `site` is quarantined as a gossip source (its recent
    /// contacts exhausted their retries).
    pub fn quarantined(&self, site: SiteId) -> bool {
        let h = &self.health[site.index() as usize];
        h.quarantined_until != 0 && self.rounds <= h.quarantined_until
    }

    /// The round's pairing: in shuffled order, each destination picks
    /// uniformly among the non-quarantined other sites, and pulls from
    /// nobody if there is none.
    fn pairing(&self, rng: &mut SplitMix64) -> Vec<(SiteId, SiteId)> {
        let n = self.health.len() as u32;
        let mut order: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut pairs = Vec::new();
        for dst in order {
            let candidates: Vec<u32> = (0..n)
                .filter(|&s| s != dst && !self.quarantined(SiteId::new(s)))
                .collect();
            if let Some(&src) = rng.pick(&candidates) {
                pairs.push((SiteId::new(dst), SiteId::new(src)));
            }
        }
        pairs
    }

    /// Settles `src`'s health after its pairing: a commit clears it, an
    /// exhausted pairing quarantines it for a backoff that doubles per
    /// consecutive failure.
    fn settle(&mut self, src: SiteId, committed: bool) {
        let health = &mut self.health[src.index() as usize];
        if committed {
            *health = PeerHealth::default();
        } else {
            health.failures += 1;
            health.quarantined_until = self.rounds + capped_backoff(u64::from(health.failures));
        }
    }
}

/// A cluster of sites the engine runs gossip rounds over: it keeps the
/// engine's [`Gossip`] state and runs one contact attempt at a time.
pub trait Host {
    /// What every attempt of a round is run with.
    type Options;

    /// The round counter and the sites' health.
    fn gossip(&mut self) -> &mut Gossip;

    /// Runs one attempt pulling `env.src` into `env.dst` and commits it
    /// if it completes.
    ///
    /// # Errors
    ///
    /// `Err` is fatal (a staging violation on our own wire format, or
    /// options the host cannot honour); a recoverable link fault is
    /// [`Attempt::Aborted`].
    fn attempt(&mut self, env: &ContactEnv, opts: &Self::Options) -> Result<Attempt>;
}

/// Runs one gossip round over `host`: every site pulls from one
/// uniformly random non-quarantined peer. The pairing is drawn up front;
/// the pairs then run in schedule order, each attempted up to three
/// times (see the module docs).
///
/// # Errors
///
/// Link faults are absorbed into the report (retried, then quarantining
/// the source); only fatal errors propagate, from the first pair that
/// raised one.
pub fn round<H: Host>(
    host: &mut H,
    rng: &mut SplitMix64,
    opts: &H::Options,
) -> Result<RoundReport> {
    let gossip = host.gossip();
    gossip.rounds += 1;
    obs_emit!(obs::SyncEvent::GossipRound {
        round: gossip.rounds
    });
    let pairs = gossip.pairing(rng);
    let mut report = RoundReport {
        skipped: (gossip.health.len() - pairs.len()) as u64,
        ..RoundReport::default()
    };
    for (dst, src) in pairs {
        let committed = run_pair(host, dst, src, opts, &mut report)?;
        host.gossip().settle(src, committed);
        report.contacts += u64::from(committed);
    }
    Ok(report)
}

/// Runs every attempt of one `(dst, src)` pairing and adds its aborts,
/// retries and link statistics to `report`. `Ok(true)` iff an attempt
/// committed.
fn run_pair<H: Host>(
    host: &mut H,
    dst: SiteId,
    src: SiteId,
    opts: &H::Options,
    report: &mut RoundReport,
) -> Result<bool> {
    let round = host.gossip().rounds;
    for attempt in 1..=MAX_ATTEMPTS {
        let env = ContactEnv {
            round,
            dst,
            src,
            attempt,
            salt: mix_seed(round, (u64::from(dst.index()) << 16) | attempt),
        };
        match host.attempt(&env, opts)? {
            Attempt::Committed { fault } => {
                add_fault(&mut report.fault, fault);
                return Ok(true);
            }
            Attempt::Aborted { error: _, fault } => {
                add_fault(&mut report.fault, fault);
                report.aborted += 1;
                if attempt < MAX_ATTEMPTS {
                    report.retries += 1;
                    obs_emit!(obs::SyncEvent::Retry {
                        dst: dst.index(),
                        src: src.index(),
                        attempt,
                        backoff: capped_backoff(attempt),
                    });
                }
            }
        }
    }
    Ok(false)
}

/// The capped-exponential backoff for the `n`-th consecutive failure
/// (1-based): `min(base << (n-1), cap)` rounds.
fn capped_backoff(n: u64) -> u64 {
    let shift = u32::try_from(n.saturating_sub(1)).unwrap_or(u32::MAX);
    BACKOFF_BASE
        .checked_shl(shift)
        .unwrap_or(u64::MAX)
        .min(BACKOFF_CAP)
}

fn add_fault(acc: &mut FaultStats, s: FaultStats) {
    acc.frames_offered += s.frames_offered;
    acc.frames_delivered += s.frames_delivered;
    acc.frames_dropped += s.frames_dropped;
    acc.frames_truncated += s.frames_truncated;
    acc.bytes_delivered += s.bytes_delivered;
}

/// A [`Cluster`] attempt: one in-process session per object, exactly as
/// [`Cluster::sync`] runs them. There is no wire, so nothing aborts.
impl<M, P, R> Host for Cluster<M, P, R>
where
    M: ReplicaMeta,
    P: ReplicaPayload,
    R: Reconciler<P>,
{
    type Options = ContactOptions;

    fn gossip(&mut self) -> &mut Gossip {
        &mut self.gossip
    }

    fn attempt(&mut self, env: &ContactEnv, opts: &ContactOptions) -> Result<Attempt> {
        let objects = match opts.object {
            Some(object) => vec![object],
            None => self.site(env.src).objects(),
        };
        for object in objects {
            self.sync(env.dst, env.src, object)?;
        }
        Ok(Attempt::Committed {
            fault: FaultStats::default(),
        })
    }
}

impl<M, P, R> Cluster<M, P, R>
where
    M: ReplicaMeta,
    P: ReplicaPayload,
    R: Reconciler<P>,
{
    /// Runs one gossip round through the contact engine ([`round`]).
    ///
    /// # Errors
    ///
    /// Protocol errors of a session, from the first pair that raised one.
    pub fn round_with(
        &mut self,
        rng: &mut SplitMix64,
        opts: &ContactOptions,
    ) -> Result<RoundReport> {
        round(self, rng, opts)
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
    use crate::site::StateReplica;
    use optrep_core::Srv;

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

    /// Every site's replicas, in object order.
    fn all_replicas(
        cluster: &Cluster<Srv, TokenSet, UnionReconciler>,
    ) -> Vec<Vec<StateReplica<Srv, TokenSet>>> {
        (0..cluster.len() as u32)
            .map(|i| {
                let site = cluster.site(SiteId::new(i));
                (site.objects().into_iter())
                    .map(|object| site.replica(object).expect("listed").clone())
                    .collect()
            })
            .collect()
    }

    /// The reference for `round_with`: a clean round is its pairing —
    /// drawn by the same helper from a clone of the same generator —
    /// replayed pair by pair through `Cluster::sync` in schedule order.
    /// No site is ever quarantined here, so drawing before the round's
    /// counter moves draws the same.
    #[test]
    fn a_round_is_its_pairing_run_through_sync_in_schedule_order() {
        let opts = ContactOptions::direct();
        let mut cluster = seeded_cluster(12, 6);
        let mut replay = cluster.clone();
        let mut rng = SplitMix64::new(0xD16E57);
        for _ in 0..6 {
            let pairs = cluster.gossip.pairing(&mut rng.clone());
            let report = cluster.round_with(&mut rng, &opts).unwrap();
            assert_eq!(report.contacts, pairs.len() as u64);
            assert_eq!(report.skipped, 0);
            for (dst, src) in pairs {
                for object in replay.site(src).objects() {
                    replay.sync(dst, src, object).unwrap();
                }
            }
            assert_eq!(all_replicas(&cluster), all_replicas(&replay));
            assert_eq!(cluster.stats().counters, replay.stats().counters);
        }
    }

    /// A host whose every attempt aborts: the quarantine's arithmetic.
    struct Dead(Gossip);

    impl Host for Dead {
        type Options = ();

        fn gossip(&mut self) -> &mut Gossip {
            &mut self.0
        }

        fn attempt(&mut self, _: &ContactEnv, _: &()) -> Result<Attempt> {
            Ok(Attempt::Aborted {
                error: Error::ConnectionLost { after_bytes: 0 },
                fault: FaultStats::default(),
            })
        }
    }

    #[test]
    fn total_loss_quarantines_every_source() {
        let mut host = Dead(Gossip::new(2));
        let mut rng = SplitMix64::new(5);
        let report = round(&mut host, &mut rng, &()).unwrap();
        assert_eq!(report.contacts, 0);
        assert_eq!(report.aborted, 2 * MAX_ATTEMPTS);
        assert_eq!(report.retries, 2 * (MAX_ATTEMPTS - 1));
        assert!(host.0.quarantined(SiteId::new(0)));
        assert!(host.0.quarantined(SiteId::new(1)));
        // Next round: every candidate quarantined, so both sites skip
        // and no further aborts pile up.
        let report = round(&mut host, &mut rng, &()).unwrap();
        assert_eq!(report.skipped, 2);
        assert_eq!(report.aborted, 0);
        // BACKOFF_BASE = 1: the quarantine lapses after `capped_backoff`
        // rounds, the sources are retried, fail again, and the
        // quarantine doubles.
        assert_eq!(capped_backoff(1), 1);
        let report = round(&mut host, &mut rng, &()).unwrap();
        assert_eq!(report.skipped, 0, "the quarantine lapsed");
        assert_eq!(report.aborted, 2 * MAX_ATTEMPTS);
        assert_eq!(capped_backoff(2), 2);
        for _ in 0..2 {
            assert!(host.0.quarantined(SiteId::new(0)));
            assert!(host.0.quarantined(SiteId::new(1)));
            let report = round(&mut host, &mut rng, &()).unwrap();
            assert_eq!(report.skipped, 2, "second failure sits out two rounds");
        }
        let report = round(&mut host, &mut rng, &()).unwrap();
        assert_eq!(report.skipped, 0);
    }
}
