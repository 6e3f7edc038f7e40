//! The one commit path: a finished contact's outcomes and a plan's
//! snapshot blobs, staged whole and then applied.

use crate::codec::{decode_value, take_key, Ascending};
use crate::record::{Record, State};
use crate::shard::{shard_index, Run};
use crate::{KvStore, KvSyncReport, Resolver, Value};
use bytes::Bytes;
use optrep_core::error::WireError;
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
    /// a corrupt payload mid-batch leaves the store byte-identical.
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
    /// into shards the plan skipped, and follow the blob's key before
    /// it, so no key is listed twice. An entry whose key this store
    /// already tracks is *not* applied (a rotating vector has no merge;
    /// the write that raced the plan keeps the shard dirty and it
    /// reconciles incrementally on the next contact). The rest are
    /// written, as they are decoded, into the pages of one run a
    /// physical shard, and a shard a join fills from empty takes its
    /// run's pages whole.
    ///
    /// # Errors
    ///
    /// Returns a wire error if an outcome's payload is missing or
    /// malformed, or a snapshot blob malformed, mis-sharded, out of key
    /// order or listed twice; the store is untouched.
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
    fn stage_contact(client: BatchPullClient) -> Result<Vec<(String, Srv, Staged)>> {
        let mut staged: Vec<(String, Srv, Staged)> = Vec::new();
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
            staged.push((key, outcome.vector, action));
        }
        Ok(staged)
    }

    /// Decodes and validates a plan's snapshot blobs into one run of
    /// ready-to-commit records per physical shard (none when the plan
    /// has no snapshot), written into the run's pages as they are
    /// decoded, skipping keys this store already tracks. A blob lists
    /// its keys strictly ascending and a plan each shard once, so no run
    /// names a key twice.
    fn stage_snapshots(&self, plan: &ShardPlan) -> Result<Vec<Run>> {
        let invalid = || optrep_core::Error::Wire(WireError::InvalidPayload);
        if plan.snapshots.is_empty() {
            return Ok(Vec::new());
        }
        let mut listed: Vec<u64> = plan.snapshots.iter().map(|(shard, _)| *shard).collect();
        listed.sort_unstable();
        if listed.windows(2).any(|pair| pair[0] == pair[1])
            || listed[listed.len() - 1] >= plan.count
        {
            return Err(invalid());
        }
        let count = plan.count as usize;
        let physical = self.shards.len();
        let mut runs: Vec<Run> = (0..physical).map(|_| Run::default()).collect();
        // Where the state of a key a racing write reached first is read
        // to be checked, and not kept.
        let mut refused = Vec::new();
        for (shard, blob) in &plan.snapshots {
            let mut buf = &blob[..];
            let mut stage = || {
                let n = wire::get_varint(&mut buf)?;
                let mut keys = Ascending::default();
                for _ in 0..n {
                    let key = take_key(&mut buf)?;
                    let bytes = key.as_bytes();
                    if self.record(bytes).is_none() {
                        runs[shard_index(bytes, physical)].push(key, &mut buf)?;
                    } else {
                        Record::write_state(&mut refused, key, State::take(&mut buf)?)?;
                        refused.clear();
                    }
                    keys.admit(bytes)?;
                    // The shard-map invariant: every key must hash into
                    // the blob's claimed shard at the plan's count.
                    if shard_index(bytes, count) != *shard as usize {
                        return Err(WireError::InvalidPayload);
                    }
                }
                match buf {
                    [] => Ok(()),
                    _ => Err(WireError::InvalidPayload),
                }
            };
            stage().map_err(optrep_core::Error::Wire)?;
        }
        Ok(runs)
    }

    /// Commits staged contact outcomes, then the staged snapshot runs,
    /// each moved into its physical shard whole.
    /// Infallible: every fallible step happened in staging.
    fn commit_staged(
        &mut self,
        resolver: &dyn Resolver,
        staged: Vec<(String, Srv, Staged)>,
        snapshots: Vec<Run>,
        contact: &ContactReport,
    ) -> (KvSyncReport, Vec<String>) {
        let totals = contact.totals();
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
        for (key, mut meta, action) in staged {
            report.keys_examined += 1;
            match action {
                Staged::Clean => report.keys_unchanged += 1,
                Staged::Create { value } => {
                    self.insert(&key, meta, value.as_deref());
                    report.keys_created += 1;
                    changed.push(key);
                }
                Staged::FastForward { value } => {
                    let tracked = self.insert(&key, meta, value.as_deref());
                    assert!(tracked, "client named our key");
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
                    self.insert(&key, meta, resolved.as_deref());
                    report.keys_reconciled += 1;
                    changed.push(key);
                }
            }
        }
        for (shard, run) in self.shards.iter_mut().zip(snapshots) {
            report.keys_examined += run.len();
            report.keys_created += run.len();
            changed.extend(run.records().map(|record| record.entry().0.to_owned()));
            shard.append(run);
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
    use crate::record::Record;
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
        let mut client = b.client_endpoint_for(&[0], 1);
        let mut server = a.server_endpoint_for(&[0], 1);
        let contact = run_contact(&mut client, &mut server).unwrap();
        let unplanned = ShardPlan::default();
        let (report, mut changed) = b
            .apply_planned_tracked(&JoinResolver, client, &contact, &unplanned)
            .unwrap();
        changed.sort();
        assert_eq!(changed, vec!["both".to_string(), "created".to_string()]);
        assert_eq!(report.keys_created + report.keys_fast_forwarded, 2);

        // A clean repeat pull changes nothing and names nothing.
        let mut client = b.client_endpoint_for(&[0], 1);
        let mut server = a.server_endpoint_for(&[0], 1);
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

    /// A source that discovers, in the contact, the keys of a shard its
    /// plan also ships whole — no honest one does — creates each of them
    /// twice in one commit: the run's record replaces the contact's, and
    /// the shard's digest and live count count it once.
    #[test]
    fn a_key_both_discovered_and_in_a_snapshot_is_counted_once() {
        let mut src = KvStore::with_shards(s(0), 2);
        for i in 0..20 {
            src.put(format!("k{i:02}"), "src");
        }
        let mut dst = KvStore::with_shards(s(1), 2);
        dst.put("k00", "mine");
        let (plan, _) = src.plan_contact(&dst.shard_digest_vector(), &PlanConfig::default());
        assert_eq!((plan.incremental.len(), plan.snapshots.len()), (1, 1));
        // The whole store's endpoint: every key of the source discovered.
        let mut server = src.server_endpoint_for(&[0], 1);
        let mut client = dst.client_endpoint_for(&plan.incremental, 2);
        let contact = run_contact(&mut client, &mut server).unwrap();
        dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan)
            .unwrap();
        assert_eq!((dst.len(), dst.tracked_entries()), (20, 20));
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

    /// A shard image of `records`, in the order given.
    fn blob_of(records: &[Record<'_>]) -> Bytes {
        let mut buf = bytes::BytesMut::new();
        wire::put_varint(&mut buf, records.len() as u64);
        for record in records {
            buf.extend_from_slice(record.bytes());
        }
        buf.freeze()
    }

    /// A blob lists its keys strictly ascending and a plan each shard
    /// once, as every source writes them: a key listed twice — which a
    /// commit used to count as two keys created into a store that then
    /// tracked one — a blob out of key order, and a shard listed twice
    /// are refused, and the store is untouched.
    #[test]
    fn a_snapshot_blob_repeating_or_reordering_a_key_is_refused_untouched() {
        let mut src = KvStore::with_shards(s(0), 1);
        src.put("x", "1");
        src.put("y", "2");
        let (x, y) = (src.record(b"x").unwrap(), src.record(b"y").unwrap());
        assert_eq!(src.encode_shard_snapshot(0, 1), blob_of(&[x, y]));
        let digests = KvStore::with_shards(s(1), 1).shard_digest_vector();
        for (what, snapshots) in [
            ("x twice", vec![(0, blob_of(&[x, x]))]),
            ("y before x", vec![(0, blob_of(&[y, x]))]),
            (
                "shard 0 twice",
                vec![(0, blob_of(&[x])), (0, blob_of(&[y]))],
            ),
        ] {
            let (mut plan, mut server) = src.plan_contact(&digests, &PlanConfig::default());
            plan.snapshots = snapshots;
            let mut dst = KvStore::with_shards(s(1), 1);
            dst.put("mine", "local");
            let before = dst.clone();
            let mut client = dst.client_endpoint_for(&plan.incremental, 1);
            let contact = run_contact(&mut client, &mut server).unwrap();
            let applied = dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan);
            assert_eq!(
                applied.map(|_| ()),
                Err(optrep_core::Error::Wire(WireError::InvalidPayload)),
                "{what}"
            );
            assert_eq!(dst, before, "{what}");
            assert_eq!(dst.generation(), before.generation(), "{what}");
        }
    }

    /// A join moves each physical shard's run in whole, whether a plan
    /// shard is a physical shard, several of them or a slice of one: the
    /// joined store holds the source's state, every digest and live
    /// count in step with it.
    #[test]
    fn a_join_bulk_loads_every_shard_at_any_plan_count() {
        let mut src = KvStore::with_shards(s(0), 8);
        for i in 0..300 {
            src.put(format!("k{i:03}"), vec![i as u8; 40]);
        }
        src.delete("k007");
        for (plan_count, physical) in [(1, 8), (4, 16), (8, 8), (16, 4), (32, 1)] {
            let digests = KvStore::with_shards(s(1), plan_count).shard_digest_vector();
            let (plan, mut server) = src.plan_contact(&digests, &PlanConfig::default());
            assert_eq!(plan.snapshots.len(), plan_count);
            let mut dst = KvStore::with_shards(s(1), physical);
            let mut client = dst.client_endpoint_for(&plan.incremental, plan_count);
            let contact = run_contact(&mut client, &mut server).unwrap();
            let (report, changed) = dst
                .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
                .unwrap();
            let at = format!("plan {plan_count}, store {physical}");
            assert_eq!((report.keys_created, changed.len()), (300, 300), "{at}");
            assert!(dst.consistent_with(&src), "{at}");
            assert_eq!(dst.replica_digest(), dst.replica_digest_full(), "{at}");
            assert_eq!(dst.replica_digest(), src.replica_digest(), "{at}");
            assert_eq!((dst.len(), dst.tracked_entries()), (299, 300), "{at}");
            assert_eq!(dst.generation(), 1, "{at}: one commit");
        }
    }
}
