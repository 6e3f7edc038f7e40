//! The gossip host: a cluster of stores whose every contact is the
//! daemon's planned pull, driven by `optrep_replication`'s engine.

use crate::{Connection, KvStore};
use optrep_core::rng::SplitMix64;
use optrep_core::{Result, SiteId};
use optrep_replication::{
    engine, Attempt, ContactEnv, FaultPlan, FaultyLink, Gossip, Host, RoundReport,
};
use std::collections::BTreeMap;

/// `n` stores gossiping by [`KvStore::sync`]: each round, every store
/// pulls from one random peer that is not quarantined, in the order the
/// engine draws ([`engine::round`]) — with the engine's retries and
/// quarantine, and a fault plan re-seeded per attempt when one is set.
///
/// Each directed pair keeps one [`Connection`], as a daemon keeps one
/// pooled socket a peer: a pair's second pull sends a digest delta and
/// is proposed the keys its source changed since the first. An attempt
/// that aborts costs the pair its connection, as a failed socket is
/// discarded — `run` empties it, and the retry dials afresh.
#[derive(Debug)]
pub struct KvCluster {
    stores: Vec<KvStore>,
    connections: BTreeMap<(SiteId, SiteId), Connection>,
    fault: Option<FaultPlan>,
    gossip: Gossip,
    digest_bytes: u64,
    keys_reconciled: u64,
}

impl KvCluster {
    /// `n` empty stores (sites `0..n`) at `shards` shards each, on clean
    /// links.
    pub fn new(n: u32, shards: usize) -> Self {
        KvCluster {
            stores: (0..n)
                .map(|i| KvStore::with_shards(SiteId::new(i), shards))
                .collect(),
            connections: BTreeMap::new(),
            fault: None,
            gossip: Gossip::new(n),
            digest_bytes: 0,
            keys_reconciled: 0,
        }
    }

    /// Puts every attempt's link under `plan`'s weather, re-seeded from
    /// the attempt's salt so a retry does not replay the same faults.
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Every store, in site order.
    pub fn stores(&self) -> &[KvStore] {
        &self.stores
    }

    /// The store of `site`, for local writes.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn store_mut(&mut self, site: SiteId) -> &mut KvStore {
        &mut self.stores[site.index() as usize]
    }

    /// Planner bytes of every committed pull so far (the report's
    /// `digest_bytes`, summed).
    pub fn digest_bytes(&self) -> u64 {
        self.digest_bytes
    }

    /// Keys reconciled by every committed pull so far (the report's
    /// `keys_reconciled`, summed).
    pub fn keys_reconciled(&self) -> u64 {
        self.keys_reconciled
    }

    /// `true` iff every store holds the same keys, values and version
    /// vectors.
    pub fn converged(&self) -> bool {
        (self.stores.windows(2)).all(|pair| pair[0].consistent_with(&pair[1]))
    }

    /// Runs one gossip round.
    ///
    /// # Errors
    ///
    /// A pull that fails with no fault injected into its link — a
    /// completed pull that fails to stage, with or without a fault plan.
    /// A pull whose link dropped a frame or died is aborted instead: it
    /// is retried and quarantines the source, and the report counts it.
    pub fn round(&mut self, rng: &mut SplitMix64) -> Result<RoundReport> {
        engine::round(self, rng, &())
    }
}

impl Host for KvCluster {
    type Options = ();

    fn gossip(&mut self) -> &mut Gossip {
        &mut self.gossip
    }

    fn attempt(&mut self, env: &ContactEnv, _: &()) -> Result<Attempt> {
        let (d, s) = (env.dst.index() as usize, env.src.index() as usize);
        assert_ne!(d, s, "a store does not pull from itself");
        let (dst, src) = if d < s {
            let (lo, hi) = self.stores.split_at_mut(s);
            (&mut lo[d], &hi[0])
        } else {
            let (lo, hi) = self.stores.split_at_mut(d);
            (&mut hi[0], &lo[s])
        };
        let connection = self.connections.entry((env.dst, env.src)).or_default();
        let mut faults = (self.fault).map(|plan| FaultyLink::new(plan.reseeded(env.salt)));
        #[cfg(debug_assertions)]
        let before = (dst.replica_digest(), dst.generation());
        let request = dst.sync(src).over(connection);
        let pulled = match faults.as_mut() {
            Some(faults) => request.via(faults).run(),
            None => request.run(),
        };
        let fault = faults.as_ref().map(FaultyLink::stats).unwrap_or_default();
        // Only a link that lost a frame or died can abort a pull; any
        // other failure is our own wire format's, and that is fatal.
        let faulted = faults.is_some_and(|link| link.is_dead() || fault.frames_dropped > 0);
        match pulled {
            Ok(report) => {
                self.digest_bytes += report.digest_bytes as u64;
                self.keys_reconciled += report.keys_reconciled as u64;
                Ok(Attempt::Committed { fault })
            }
            Err(error) if !faulted => Err(error),
            Err(error) => {
                #[cfg(debug_assertions)]
                assert_eq!(
                    (dst.replica_digest(), dst.generation()),
                    before,
                    "an aborted pull moved {}",
                    env.dst
                );
                Ok(Attempt::Aborted { error, fault })
            }
        }
    }
}

#[cfg(test)]
mod tests;
