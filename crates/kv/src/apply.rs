//! The one commit path: a finished contact's outcomes and a plan's
//! snapshot blobs, staged whole and then applied.

use crate::codec::{decode_keyed, decode_value};
use crate::record::Record;
use crate::shard::shard_index;
use crate::{KvStore, KvSyncReport, Resolver, Value};
use bytes::{Buf, Bytes};
use optrep_core::error::WireError;
use optrep_core::obs::SessionTotals;
use optrep_core::{wire, Causality, Result, RotatingVector, Srv};
use optrep_replication::mux::{BatchPullClient, ContactReport};
use optrep_replication::planner::{placement, ShardPlan};

/// One decoded, validated contact outcome awaiting commit — the staging
/// form that makes application transactional.
enum Staged {
    Create { value: Value },
    FastForward { value: Value },
    Reconcile { theirs: Value },
    Clean,
}

impl KvStore {
    /// Commits a completed contact's outcomes to this store, **and** the
    /// plan's whole-shard snapshot blobs, as one transaction, and carries
    /// the planner counters into the report. An unplanned contact is
    /// committed under `ShardPlan::default()`, which plans nothing.
    ///
    /// `client` must be an endpoint built **on this store in its current
    /// state** ([`client_endpoint_refined`](Self::client_endpoint_refined),
    /// [`client_endpoint_for`](Self::client_endpoint_for)), driven to
    /// completion; `contact` is the report the driver returned.
    /// Application is transactional: every outcome is decoded and
    /// validated into a staging list before the first key is touched, so
    /// a corrupt payload mid-batch leaves the store byte-identical and
    /// uncounted.
    ///
    /// Also returns the keys the commit actually changed (created,
    /// fast-forwarded or reconciled — clean keys are not listed): a
    /// daemon logging committed mutations captures each changed key's
    /// post-state ([`encode_entry`](Self::encode_entry)) under the same
    /// lock as the commit, so one contact becomes one atomic log record.
    ///
    /// Snapshot entries are decoded and validated before the first key
    /// is touched — each key must hash into its blob's claimed shard at
    /// the plan's shard count, so a hostile blob cannot smuggle keys
    /// into shards the plan skipped. An entry whose key this store
    /// already tracks is *not* applied (a rotating vector has no merge;
    /// the write that raced the plan keeps the shard dirty and it
    /// reconciles incrementally on the next contact).
    ///
    /// # Errors
    ///
    /// Returns a wire error if an outcome's payload is missing or
    /// malformed, or a snapshot blob malformed or mis-sharded; the store
    /// is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the contact has not run to completion (the endpoint
    /// still holds undelivered frames).
    pub fn apply_planned_tracked(
        &mut self,
        resolver: &dyn Resolver,
        client: BatchPullClient,
        contact: &ContactReport,
        plan: &ShardPlan,
    ) -> Result<(KvSyncReport, Vec<String>)> {
        let staged = Self::stage_contact(client)?;
        let snapshots = self.stage_snapshots(plan)?;
        Ok(self.commit_staged(resolver, staged, snapshots, contact))
    }

    /// Decodes and validates a finished contact's outcomes into a
    /// staging list — every fallible step of an apply, before any key
    /// is touched.
    fn stage_contact(client: BatchPullClient) -> Result<Vec<(String, Srv, SessionTotals, Staged)>> {
        let mut staged: Vec<(String, Srv, SessionTotals, Staged)> = Vec::new();
        for result in client.finish() {
            let Some(outcome) = result.outcome else {
                // Our key, absent on the source — or a stream that aborted
                // mid-session: nothing is applied either way.
                continue;
            };
            let key = String::from_utf8(result.name.to_vec())
                .map_err(|_| optrep_core::Error::Wire(WireError::InvalidPayload))?;
            let value_of = |payload: Option<Bytes>| -> Result<Value> {
                let payload = payload.ok_or(optrep_core::Error::Wire(WireError::InvalidPayload))?;
                decode_value(payload).map_err(optrep_core::Error::Wire)
            };
            let action = if result.discovered {
                Staged::Create {
                    value: value_of(outcome.payload)?,
                }
            } else {
                match outcome.relation {
                    Causality::Equal | Causality::After => Staged::Clean,
                    Causality::Before => Staged::FastForward {
                        value: value_of(outcome.payload)?,
                    },
                    Causality::Concurrent => Staged::Reconcile {
                        theirs: value_of(outcome.payload)?,
                    },
                }
            };
            staged.push((key, outcome.vector, outcome.stats.totals(), action));
        }
        Ok(staged)
    }

    /// Decodes and validates a plan's snapshot blobs into ready-to-commit
    /// entries, skipping keys this store already tracks.
    fn stage_snapshots(&self, plan: &ShardPlan) -> Result<Vec<Record>> {
        let count = plan.count as usize;
        let mut entries = Vec::new();
        for (shard, blob) in &plan.snapshots {
            if *shard >= plan.count {
                return Err(optrep_core::Error::Wire(WireError::InvalidPayload));
            }
            let mut buf = blob.clone();
            let n = wire::get_varint(&mut buf).map_err(optrep_core::Error::Wire)?;
            for _ in 0..n {
                let record = decode_keyed(&mut buf).map_err(optrep_core::Error::Wire)?;
                // The shard-map invariant: every key must hash into the
                // blob's claimed shard at the plan's count.
                if shard_index(record.key_bytes(), count) != *shard as usize {
                    return Err(optrep_core::Error::Wire(WireError::InvalidPayload));
                }
                if self.record(record.key_bytes()).is_some() {
                    continue;
                }
                entries.push(record);
            }
            if buf.has_remaining() {
                return Err(optrep_core::Error::Wire(WireError::InvalidPayload));
            }
        }
        Ok(entries)
    }

    /// Commits staged contact outcomes plus staged snapshot entries.
    /// Infallible: every fallible step happened in staging.
    fn commit_staged(
        &mut self,
        resolver: &dyn Resolver,
        staged: Vec<(String, Srv, SessionTotals, Staged)>,
        snapshots: Vec<Record>,
        contact: &ContactReport,
    ) -> (KvSyncReport, Vec<String>) {
        let totals = contact.totals();
        self.stats.record_contact(contact.round_trips);
        self.stats.absorb(&totals);
        let mut report = KvSyncReport {
            meta_bytes: totals.meta_wire_bytes() as usize,
            value_bytes: totals.payload_bytes as usize,
            shards_total: contact.shards_total as usize,
            shards_skipped: contact.shards_skipped as usize,
            shards_incremental: contact.shards_incremental as usize,
            shards_snapshot: contact.shards_snapshot as usize,
            digest_bytes: contact.digest_bytes as usize,
            shards_refined: contact.shards_refined as usize,
            digests_sent: contact.digests_sent as usize,
            shards_proposed: contact.shards_proposed as usize,
            shards_refused: contact.shards_refused as usize,
            ..KvSyncReport::default()
        };
        let site = self.site;
        let mut changed = Vec::new();
        for (key, mut meta, stream_totals, action) in staged {
            self.stats.absorb(&stream_totals);
            report.keys_examined += 1;
            match action {
                Staged::Clean => report.keys_unchanged += 1,
                Staged::Create { value } => {
                    self.insert(Record::new(&key, &meta, value.as_deref()));
                    report.keys_created += 1;
                    changed.push(key);
                }
                Staged::FastForward { value } => {
                    let tracked = self.insert(Record::new(&key, &meta, value.as_deref()));
                    assert!(tracked, "client named our key");
                    self.stats.record_fast_forward();
                    report.keys_fast_forwarded += 1;
                    changed.push(key);
                }
                Staged::Reconcile { theirs } => {
                    let ours = self.record(key.as_bytes()).expect("client named our key");
                    // The resolver's currency is the API's: lend it
                    // our side as a buffer of its own.
                    let mine = ours.view().value.map(Bytes::copy_from_slice);
                    let resolved = resolver.resolve(&key, &mine, &theirs);
                    // Parker §C: the resolved version must dominate
                    // both parents.
                    meta.record_update(site);
                    self.insert(Record::new(&key, &meta, resolved.as_deref()));
                    self.stats.record_reconciliation();
                    report.keys_reconciled += 1;
                    changed.push(key);
                }
            }
        }
        for record in snapshots {
            report.keys_examined += 1;
            report.keys_created += 1;
            changed.push(record.entry().0.to_owned());
            self.insert(record);
        }
        // One bump for the whole commit, every changed key journalled
        // under it.
        if !changed.is_empty() {
            self.generation += 1;
            for key in &changed {
                self.journal
                    .record(self.generation, placement(key.as_bytes()));
            }
        }
        (report, changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::s;
    use crate::JoinResolver;
    use optrep_replication::mux::run_contact;
    use optrep_replication::planner::PlanConfig;

    #[test]
    fn apply_planned_tracked_names_exactly_the_changed_keys() {
        let mut a = KvStore::new(s(0));
        let mut b = KvStore::new(s(1));
        a.put("both", "base");
        b.sync(&a).run().unwrap();
        a.put("created", "new"); // will be created on b
        a.put("both", "ff"); // will fast-forward on b
        b.put("mine", "local"); // a never sees it: no outcome
        let mut client = b.client_endpoint();
        let mut server = a.server_endpoint();
        let contact = run_contact(&mut client, &mut server).unwrap();
        let unplanned = ShardPlan::default();
        let (report, mut changed) = b
            .apply_planned_tracked(&JoinResolver, client, &contact, &unplanned)
            .unwrap();
        changed.sort();
        assert_eq!(changed, vec!["both".to_string(), "created".to_string()]);
        assert_eq!(report.keys_created + report.keys_fast_forwarded, 2);

        // A clean repeat pull changes nothing and names nothing.
        let mut client = b.client_endpoint();
        let mut server = a.server_endpoint();
        let contact = run_contact(&mut client, &mut server).unwrap();
        let before = b.generation();
        let (_, changed) = b
            .apply_planned_tracked(&JoinResolver, client, &contact, &unplanned)
            .unwrap();
        assert!(changed.is_empty());
        assert_eq!(b.generation(), before);
    }

    #[test]
    fn planned_sync_snapshot_skips_racing_local_keys() {
        let mut src = KvStore::with_shards(s(0), 1);
        src.put("a", "src");
        src.put("b", "src");
        let digests = KvStore::with_shards(s(1), 1).shard_digest_vector();
        // Plan against an empty view, then write locally before applying:
        // the staged snapshot must not clobber the racing write.
        let (plan, mut server) = src.plan_contact(&digests, &PlanConfig::default());
        assert_eq!(plan.snapshots.len(), 1);
        let mut dst = KvStore::with_shards(s(1), 1);
        dst.put("a", "local");
        let mut client = dst.client_endpoint_for(&plan.incremental, 1);
        let contact = run_contact(&mut client, &mut server).unwrap();
        let (report, changed) = dst
            .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
            .unwrap();
        assert_eq!(dst.get("a"), Some(&b"local"[..]), "racing write survives");
        assert_eq!(dst.get("b"), Some(&b"src"[..]));
        assert_eq!(report.keys_created, 1);
        assert_eq!(changed, vec!["b".to_string()]);
        assert_eq!(dst.replica_digest(), dst.replica_digest_full());
    }

    #[test]
    fn hostile_snapshot_blobs_are_rejected_untouched() {
        let mut src = KvStore::with_shards(s(0), 4);
        src.put("x", "1");
        let digests = KvStore::with_shards(s(1), 4).shard_digest_vector();
        let (mut plan, mut server) = src.plan_contact(&digests, &PlanConfig::default());
        let mut client = KvStore::with_shards(s(1), 4).client_endpoint_for(&plan.incremental, 4);
        let contact = run_contact(&mut client, &mut server).unwrap();
        // Re-home the blob under the wrong shard index: the key no longer
        // hashes into its claimed shard.
        let (shard, blob) = plan.snapshots.pop().unwrap();
        plan.snapshots.push(((shard + 1) % 4, blob));
        let mut dst = KvStore::with_shards(s(1), 4);
        let before = dst.clone();
        let err = dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan);
        assert!(err.is_err(), "mis-sharded blob must be rejected");
        assert_eq!(dst, before);
        assert_eq!(dst.generation(), before.generation());
    }
}
