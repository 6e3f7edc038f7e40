//! The one commit path, in two halves: a plan's image staged with no
//! contact, by the loop a boot stages its snapshot by
//! ([`KvStore::stage_image`]), then committed with the contact's
//! outcomes, validated in place, whole or none ([`KvStore::commit_staged`]).

#[cfg(test)]
use crate::codec::encode_state;
use crate::codec::{decode_value, hand, stage, ChunkReader, Entries, Entry};
use crate::record::{entry_hash, Key, View};
use crate::shard::{shard_index, Cursor, Merge, Records, Run};
use crate::{KvStore, KvSyncReport, Resolver};
use bytes::Bytes;
use optrep_core::error::WireError;
use optrep_core::{Causality, Result, RotatingVector, Srv};
use optrep_replication::mux::{BatchPullClient, ContactReport, StreamResult, CONTROL_STREAM};
use optrep_replication::planner::{placement, shard_of, ShardDigest, ShardPlan};

/// What one commit did: the pull's report, what it changed, and the
/// shards that landed as served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Committed {
    /// The pull's report.
    pub report: KvSyncReport,
    /// The keys the contact's outcomes changed (created, fast-forwarded
    /// or reconciled), in key order.
    changed: Vec<String>,
    /// What the plan's image filled, physical shard by physical shard.
    filled: Vec<Filled>,
    /// The plan's served shards the commit took as served, each with
    /// what it now sums to at the plan's count — what
    /// `VectorMemory::settle` takes. A shard lands when every stream of
    /// it was created, fast-forwarded or equal (none ahead, reconciled,
    /// aborted or this store's alone); a bulk-loaded shard when it was
    /// empty here. Of these, the memory settles only the shards it
    /// marked: a shard the contact kept at the digest this store sent
    /// (`kept_as_sent`: one a child of which the contact left out
    /// because the source holds nothing there, say) stays so.
    pub landed: Vec<(u64, ShardDigest)>,
}

/// What a plan's image put into one physical shard.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Filled {
    /// The shard, which held nothing before: every record it holds.
    Shard(usize),
    /// The keys its run merged into a shard that held records, in key
    /// order: a racing write's shard, or one a plan shard shares with
    /// others.
    Merged(Vec<String>),
}

impl Committed {
    /// Every entry the commit changed, as `store` holds it — the store
    /// the commit was made on, changed by nothing since: each key and its
    /// post-state, handed over as the parts its page holds, in key order
    /// and each key once. What a daemon logs of the commit, as the image
    /// of one record ([`EntryImage`](crate::EntryImage)), read where each
    /// entry lies: one merge ([`Merge`]) of a cursor over the contact's
    /// keys and one over each filled shard's records or merged keys, so a
    /// join names the shards it filled, not a key each.
    ///
    /// # Panics
    ///
    /// A walk of them panics if `store` no longer tracks a key the
    /// commit changed.
    pub fn entries<'s>(&'s self, store: &'s KvStore) -> impl Entries + 's {
        Changed {
            committed: self,
            store,
        }
    }

    /// The keys of [`entries`](Self::entries), copied out, in key order.
    pub fn keys(&self, store: &KvStore) -> Vec<String> {
        let mut keys = Vec::new();
        let Ok(()) = self.entries(store).each(|entry| {
            let key = std::str::from_utf8(entry.key()).expect("a stored key is UTF-8");
            keys.push(key.to_owned());
            Ok::<_, std::convert::Infallible>(())
        });
        keys
    }
}

/// What a commit changed, on the store it was made on
/// ([`Committed::entries`]).
struct Changed<'s> {
    committed: &'s Committed,
    store: &'s KvStore,
}

impl Entries for Changed<'_> {
    fn each<X>(
        &self,
        mut each: impl FnMut(Entry<'_>) -> std::result::Result<(), X>,
    ) -> std::result::Result<(), X> {
        let store = self.store;
        let filled = self
            .committed
            .filled
            .iter()
            .map(move |filled| match filled {
                Filled::Shard(shard) => Changes::Shard(store.shards[*shard].records()),
                Filled::Merged(keys) => Changes::Keys(keys.iter(), store, None),
            });
        let keys = Changes::Keys(self.committed.changed.iter(), store, None);
        let merge = Merge::new(std::iter::once(keys).chain(filled));
        // A key both the contact and the image changed — no honest source
        // sends one — is held once, and named once.
        let mut last: Option<Key> = None;
        hand(merge, |entry| {
            if last
                .as_ref()
                .is_some_and(|last| last.as_slice() == entry.key())
            {
                return Ok(());
            }
            last.get_or_insert_default().set(entry.key());
            each(entry)
        })
    }
}

/// The records of some of a commit's changed keys, in key order: a
/// list's, each looked up in the store, or a filled shard's, walked.
enum Changes<'s> {
    Keys(
        std::slice::Iter<'s, String>,
        &'s KvStore,
        Option<(&'s [u8], View<'s>)>,
    ),
    Shard(Records<'s>),
}

impl<'s> Cursor<'s> for Changes<'s> {
    fn step(&mut self) -> bool {
        match self {
            Changes::Keys(keys, store, at) => {
                *at = keys.next().map(|key| {
                    let view = store.view(key.as_bytes());
                    (key.as_bytes(), view.expect("a changed key is tracked"))
                });
                at.is_some()
            }
            Changes::Shard(records) => records.step(),
        }
    }

    fn key(&self) -> &[u8] {
        match self {
            Changes::Keys(.., at) => at.expect("stepped to").0,
            Changes::Shard(records) => records.key(),
        }
    }

    fn view(&self) -> View<'s> {
        match self {
            Changes::Keys(.., at) => at.expect("stepped to").1,
            Changes::Shard(records) => records.view(),
        }
    }
}

/// A plan's image of its bulk-loaded shards, staged
/// ([`KvStore::stage_image`]): one run a physical shard, awaiting its
/// commit ([`KvStore::commit_staged`]).
#[derive(Debug)]
pub struct StagedImage<'p> {
    plan: &'p ShardPlan,
    runs: Vec<Run>,
    /// The store's generation when it was staged.
    generation: u64,
}

impl KvStore {
    /// Commits a completed contact's outcomes to this store, **and** the
    /// plan's image of its bulk-loaded shards, as one transaction, and
    /// carries the planner counters into the report. An unplanned contact is
    /// committed under `ShardPlan::default()`, which plans nothing.
    ///
    /// `client` must be an endpoint built **on this store in its current
    /// state** ([`client_endpoint_refined`](Self::client_endpoint_refined),
    /// [`client_endpoint_for`](Self::client_endpoint_for)), driven to
    /// completion; `contact` is the report the driver returned.
    /// Application is transactional: the image is staged
    /// ([`stage_image`](Self::stage_image)), then the outcomes validated in
    /// place and committed with it ([`commit_staged`](Self::commit_staged)),
    /// so a corrupt payload mid-batch leaves the store byte-identical.
    ///
    /// Also returns the keys the commit actually changed (created,
    /// fast-forwarded or reconciled — clean keys are not listed), in the
    /// order [`Committed::entries`] names them. A daemon logging
    /// committed mutations reads each changed key's post-state from
    /// there, under the same lock as the commit, so one contact becomes
    /// one atomic log record without a list of its keys
    /// ([`apply_planned`](Self::apply_planned)).
    ///
    /// # Errors
    ///
    /// [`stage_image`](Self::stage_image)'s and
    /// [`commit_staged`](Self::commit_staged)'s; the store is untouched.
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
        let committed = self.apply_planned(resolver, client, contact, plan)?;
        let changed = committed.keys(self);
        Ok((committed.report, changed))
    }

    /// [`apply_planned_tracked`](Self::apply_planned_tracked), and which
    /// of the plan's served shards landed as served ([`Committed`]) —
    /// what a puller that keeps its connection settles its memory of the
    /// connection with — where what the commit changed is named, not
    /// listed: its contact's keys, and the shards its image filled.
    ///
    /// # Errors
    ///
    /// As [`apply_planned_tracked`](Self::apply_planned_tracked).
    ///
    /// # Panics
    ///
    /// As [`apply_planned_tracked`](Self::apply_planned_tracked).
    pub fn apply_planned(
        &mut self,
        resolver: &dyn Resolver,
        client: BatchPullClient,
        contact: &ContactReport,
        plan: &ShardPlan,
    ) -> Result<Committed> {
        let results = client.finish();
        let image = self.stage_image(plan)?;
        self.commit_staged(resolver, image, results, contact)
    }

    /// Stages `plan`'s image with no contact, touching nothing: read off
    /// one chunk by the loop a boot reads its snapshot by
    /// ([`read_snapshot`](Self::read_snapshot)), each entry written into
    /// its physical shard's run as it is decoded. Each key must hash into
    /// one of the plan's bulk shards at the plan's count, so a hostile
    /// image cannot smuggle keys into shards the plan skips or walks. A
    /// key this store already tracks is skipped: a rotating vector has no
    /// merge, and the write that raced the plan keeps the shard dirty and
    /// reconciles incrementally on the next contact.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidPayload`] for a bulk list out of order or past
    /// the count, an image missing beside it or present without it, a key
    /// outside it or bytes past the last entry; else the entry reader's.
    pub fn stage_image<'p>(&self, plan: &'p ShardPlan) -> Result<StagedImage<'p>> {
        let invalid = optrep_core::Error::Wire(WireError::InvalidPayload);
        let bulk = &plan.bulk;
        let in_order = bulk.windows(2).all(|pair| pair[0] < pair[1]);
        let mut staged = StagedImage {
            plan,
            runs: Vec::new(),
            generation: self.generation,
        };
        let image = match (&plan.image, bulk.last()) {
            (None, None) => return Ok(staged),
            (Some(image), Some(&last)) if in_order && last < plan.count => image,
            _ => return Err(invalid),
        };
        let keep = |key: &str| {
            // The shard-map invariant: every key hashes into one of the
            // plan's bulk shards at its count. A key a racing write
            // reached first keeps that write.
            let shard = shard_index(key.as_bytes(), plan.count as usize) as u64;
            match bulk.binary_search(&shard) {
                Ok(_) => Ok(self.view(key.as_bytes()).is_none()),
                Err(_) => Err(WireError::InvalidPayload),
            }
        };
        let mut reader = ChunkReader::one(image.clone());
        let read = stage(&mut reader, self.shards.len(), |_| {}, keep);
        staged.runs = read.map_err(|e| optrep_core::Error::Wire(e.of_one_chunk()))?;
        match reader.remaining() {
            0 => Ok(staged),
            _ => Err(invalid),
        }
    }

    /// Commits `image`, staged on this store as it stands, with the
    /// `results` of its plan's contact ([`BatchPullClient::finish`]) and its
    /// report, whole or none: the results validated in place before the
    /// first key is touched, then committed, then each run moved into its
    /// shard. No results and a default report commit the image alone.
    ///
    /// # Errors
    ///
    /// A wire error for an outcome's name that is not UTF-8, or its
    /// payload missing or malformed; the store is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the store changed since `image` was staged.
    pub fn commit_staged(
        &mut self,
        resolver: &dyn Resolver,
        image: StagedImage<'_>,
        mut results: Vec<StreamResult>,
        contact: &ContactReport,
    ) -> Result<Committed> {
        assert_eq!(self.generation, image.generation, "changed since staged");
        let plan = image.plan;
        let landing = self.validate(&mut results, plan)?;
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
            framing_bytes: contact.framing_bytes as usize,
            ..KvSyncReport::default()
        };
        // One bump for the whole commit, every changed key journalled
        // under it as it is stored.
        let next = self.generation + 1;
        let mut changed = Vec::new();
        for result in results {
            let Some(outcome) = result.outcome else {
                continue;
            };
            report.keys_examined += 1;
            let key = std::str::from_utf8(&result.name).expect("a validated name");
            let (mut meta, value) = (outcome.vector, outcome.payload);
            match (result.discovered, outcome.relation) {
                (true, _) => {
                    self.commit_entry(next, key, meta, value.as_deref());
                    report.keys_created += 1;
                }
                (false, Causality::Equal | Causality::After) => {
                    report.keys_unchanged += 1;
                    continue;
                }
                (false, Causality::Before) => {
                    let tracked = self.commit_entry(next, key, meta, value.as_deref());
                    assert!(tracked, "client named our key");
                    report.keys_fast_forwarded += 1;
                }
                (false, Causality::Concurrent) => {
                    let ours = self.view(key.as_bytes()).expect("client named our key");
                    // The resolver's currency is the API's: lend it
                    // our side as a buffer of its own.
                    let mine = ours.value.map(Bytes::copy_from_slice);
                    let resolved = resolver.resolve(key, &mine, &value);
                    // Parker §C: the resolved version must dominate
                    // both parents.
                    meta.record_update(self.site);
                    self.commit_entry(next, key, meta, resolved.as_deref());
                    report.keys_reconciled += 1;
                }
            }
            changed.push(key.to_owned());
        }
        let mut filled = Vec::new();
        let runs = self.shards.iter_mut().zip(image.runs).enumerate();
        for (index, (shard, mut run)) in runs.filter(|(_, (_, run))| run.len() > 0) {
            report.keys_examined += run.len();
            report.keys_created += run.len();
            let merged = shard.summary().entries > 0;
            let mut keys = Vec::new();
            let mut records = run.records();
            while records.step() {
                let key = records.key();
                let created = ShardDigest {
                    digest: entry_hash(key, records.view()),
                    entries: 1,
                };
                self.journal.record(next, placement(key), created);
                if merged {
                    let key = std::str::from_utf8(key).expect("an image's key is UTF-8");
                    keys.push(key.to_owned());
                }
            }
            filled.push(match merged {
                // The run's pages become the shard's.
                false => Filled::Shard(index),
                true => Filled::Merged(keys),
            });
            shard.append(run);
        }
        if !changed.is_empty() || !filled.is_empty() {
            self.generation = next;
        }
        changed.sort_unstable();
        let digests = self.digests_of(&landing, plan.count as usize);
        Ok(Committed {
            report,
            changed,
            filled,
            landed: landing.into_iter().zip(digests).collect(),
        })
    }

    /// Validates a finished contact's outcomes in place, every fallible
    /// step of a commit: each name UTF-8, and each outcome that writes its
    /// key holding its value, a stream's payload decoded here. Returns the
    /// plan's served shards this store will hold as served once committed,
    /// as far as it can tell: those no stream spoils (one without an
    /// outcome, ahead here, to reconcile or outside the incremental
    /// shards), a bulk-loaded one only where it is empty here.
    fn validate(&self, results: &mut [StreamResult], plan: &ShardPlan) -> Result<Vec<u64>> {
        let invalid = || optrep_core::Error::Wire(WireError::InvalidPayload);
        let mut spoiled = Vec::new();
        let mut incremental = plan.incremental.clone();
        incremental.sort_unstable();
        for result in results {
            let shard = shard_of(&result.name, plan.count.max(1));
            let as_served = result.outcome.as_ref().is_some_and(|outcome| {
                result.discovered
                    || matches!(outcome.relation, Causality::Equal | Causality::Before)
            });
            if !as_served || incremental.binary_search(&shard).is_err() {
                spoiled.push(shard);
            }
            // Our key, absent on the source, or an aborted stream: nothing
            // is applied.
            let Some(outcome) = &mut result.outcome else {
                continue;
            };
            std::str::from_utf8(&result.name).map_err(|_| invalid())?;
            // A pushed key's payload is its value as the push carried
            // it, `None` a tombstone; a stream's, the value in flight.
            let writes = result.discovered
                || matches!(outcome.relation, Causality::Before | Causality::Concurrent);
            if writes && result.stream != CONTROL_STREAM {
                let payload = outcome.payload.take().ok_or_else(invalid)?;
                outcome.payload = decode_value(payload).map_err(optrep_core::Error::Wire)?;
            }
        }
        // A bulk-loaded shard lands only into an empty one.
        let digests = self.digests_of(&plan.bulk, plan.count as usize);
        let held = (plan.bulk.iter().zip(digests)).filter(|(_, digest)| digest.entries > 0);
        spoiled.extend(held.map(|(shard, _)| *shard));
        spoiled.sort_unstable();
        let landing = plan
            .served()
            .filter(|shard| spoiled.binary_search(shard).is_err());
        Ok(landing.collect())
    }

    /// Stores one committed entry and journals, at `generation`, what
    /// it did to its shard; returns whether its key was tracked before.
    fn commit_entry(
        &mut self,
        generation: u64,
        key: &str,
        meta: Srv,
        value: Option<&[u8]>,
    ) -> bool {
        let shard = shard_index(key.as_bytes(), self.shards.len());
        let before = self.shards[shard].summary();
        let tracked = self.insert(key, meta, value);
        let change = self.shards[shard].summary() - before;
        self.journal
            .record(generation, placement(key.as_bytes()), change);
        tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::s;
    use crate::JoinResolver;
    use optrep_core::wire;
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
        assert_eq!(plan.bulk.len(), 1);
        let mut dst = KvStore::with_shards(s(1), 1);
        dst.put("a", "local");
        let mut client = dst.client_endpoint_for(&plan.incremental, 1);
        let contact = run_contact(&mut client, &mut server).unwrap();
        let committed = dst
            .apply_planned(&JoinResolver, client, &contact, &plan)
            .unwrap();
        assert_eq!(dst.get("a"), Some(&b"local"[..]), "racing write survives");
        assert_eq!(dst.get("b"), Some(&b"src"[..]));
        assert_eq!(committed.report.keys_created, 1);
        assert_eq!(committed.keys(&dst), ["b"]);
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
        assert_eq!((plan.incremental.len(), plan.bulk.len()), (1, 1));
        // The whole store's endpoint: every key of the source discovered.
        let mut server = src.server_endpoint_for(&[0], 1);
        let mut client = dst.client_endpoint_for(&plan.incremental, 2);
        let contact = run_contact(&mut client, &mut server).unwrap();
        dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan)
            .unwrap();
        assert_eq!((dst.len(), dst.tracked_entries()), (20, 20));
        assert_eq!(dst.replica_digest(), dst.replica_digest_full());
    }

    /// The image the writer writes of `records`, in the order given.
    fn image_of(records: &[(Bytes, View<'_>)]) -> Bytes {
        let listed = (records.iter()).map(|(key, state)| (key, encode_state(*state)));
        crate::codec::image_as_listed(listed).into()
    }

    /// A plan lists its bulk shards strictly increasing and below its
    /// count, and sends an image exactly when it lists one; the image
    /// lists its keys strictly ascending, each in a listed bulk shard.
    /// Every other plan is refused by the image door, with no contact,
    /// and the store, its generation and its digest are untouched.
    #[test]
    fn hostile_plans_are_refused_untouched() {
        let mut src = KvStore::with_shards(s(0), 4);
        for i in 0..24 {
            src.put(format!("k{i:02}"), format!("v{i}"));
        }
        let mut local = KvStore::with_shards(s(1), 4);
        local.put("k00", "mine");
        let (honest, _) = src.plan_contact(&local.shard_digest_vector(), &PlanConfig::default());
        let walked = shard_index(b"k00", 4) as u64;
        assert_eq!(honest.incremental, [walked]);
        assert_eq!(honest.bulk.len(), 3);
        let image = honest.image.clone().expect("an image");
        // The bulk shards' records in key order, and two neighbours of
        // them in different shards swapped: keys that descend across a
        // shard boundary.
        let records = src.records_in(&honest.bulk, 4, |_| true);
        let at = (records.windows(2))
            .position(|pair| {
                let shard = |(key, _): &(Bytes, View<'_>)| shard_index(key, 4);
                shard(&pair[0]) != shard(&pair[1])
            })
            .expect("neighbours in two shards");
        let mut swapped = records.clone();
        swapped.swap(at, at + 1);
        let (x, y) = (records[0].clone(), records[1].clone());
        let every = src.encode_shard_snapshot(&[0, 1, 2, 3], 4);
        let short = honest.bulk[..2].to_vec();
        let past = [&honest.bulk[..], &[4]].concat();
        let twice = [&honest.bulk[..1], &honest.bulk[..]].concat();
        let hostile: [(&str, Vec<u64>, Option<Bytes>); 9] = [
            ("a key of a shard not listed", short, Some(image.clone())),
            (
                "a key of the walked shard",
                honest.bulk.clone(),
                Some(every),
            ),
            (
                "keys that descend across a shard boundary",
                honest.bulk.clone(),
                Some(image_of(&swapped)),
            ),
            ("a bulk list with no image", honest.bulk.clone(), None),
            (
                "an image with no bulk list",
                Vec::new(),
                Some(image.clone()),
            ),
            ("a listed shard past the count", past, Some(image.clone())),
            ("a shard listed twice", twice, Some(image.clone())),
            (
                "a key twice",
                honest.bulk.clone(),
                Some(image_of(&[x.clone(), x.clone()])),
            ),
            (
                "two keys out of order",
                honest.bulk.clone(),
                Some(image_of(&[y, x])),
            ),
        ];
        for (what, bulk, image) in hostile {
            let mut dst = local.clone();
            let before = dst.clone();
            let plan = ShardPlan {
                bulk,
                image,
                ..honest.clone()
            };
            let applied = dst.stage_image(&plan).and_then(|image| {
                let contact = ContactReport::default();
                dst.commit_staged(&JoinResolver, image, Vec::new(), &contact)
            });
            assert_eq!(
                applied.map(|_| ()),
                Err(optrep_core::Error::Wire(WireError::InvalidPayload)),
                "{what}"
            );
            assert_eq!(dst, before, "{what}");
            assert_eq!(dst.generation(), before.generation(), "{what}");
            assert_eq!(dst.replica_digest(), before.replica_digest(), "{what}");
        }
        // The honest plan, and its image rebuilt here, apply.
        assert_eq!(image, image_of(&records));
        let mut dst = local.clone();
        let (plan, mut server) =
            src.plan_contact(&dst.shard_digest_vector(), &PlanConfig::default());
        let mut client = dst.client_endpoint_for(&plan.incremental, 4);
        let contact = run_contact(&mut client, &mut server).unwrap();
        dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan)
            .unwrap();
        assert_eq!(dst.replica_digest(), dst.replica_digest_full());
        assert_eq!(dst.len(), 24);
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
            assert_eq!(plan.bulk.len(), plan_count);
            let mut dst = KvStore::with_shards(s(1), physical);
            let mut client = dst.client_endpoint_for(&plan.incremental, plan_count);
            let contact = run_contact(&mut client, &mut server).unwrap();
            let committed = dst
                .apply_planned(&JoinResolver, client, &contact, &plan)
                .unwrap();
            let (report, changed) = (&committed.report, committed.keys(&dst).len());
            let at = format!("plan {plan_count}, store {physical}");
            assert_eq!((report.keys_created, changed), (300, 300), "{at}");
            assert!(dst.consistent_with(&src), "{at}");
            assert_eq!(dst.replica_digest(), dst.replica_digest_full(), "{at}");
            assert_eq!(dst.replica_digest(), src.replica_digest(), "{at}");
            assert_eq!((dst.len(), dst.tracked_entries()), (299, 300), "{at}");
            assert_eq!(dst.generation(), 1, "{at}: one commit");
        }
    }

    /// Commits of joins, each named by its shape: a store of 2 000 keys
    /// (one deleted) joined whole at 1, 16 and 512 shards, at plan
    /// counts unlike the store's, and pulled by a store holding a key
    /// of its own, with three local writes racing the plan into shards
    /// it bulk-loads. Each is the committed store and what it committed.
    fn logged_commits() -> Vec<(String, KvStore, Committed)> {
        let written = |shards: usize| {
            let mut src = KvStore::with_shards(s(0), shards);
            for i in 0..2000u32 {
                src.put(
                    format!("k{i:05}"),
                    vec![(i % 251) as u8; 8 + (i % 40) as usize],
                );
            }
            src.delete("k00007");
            src
        };
        let commit = |src: &KvStore, mut dst: KvStore, count: usize, race: &[&str]| {
            let digests = match dst.shard_count() == count && !dst.is_empty() {
                true => dst.shard_digest_vector(),
                false => KvStore::with_shards(s(1), count).shard_digest_vector(),
            };
            let (plan, mut server) = src.plan_contact(&digests, &PlanConfig::default());
            for &key in race {
                dst.put(key, "racing");
            }
            let mut client = dst.client_endpoint_for(&plan.incremental, count);
            let contact = run_contact(&mut client, &mut server).unwrap();
            let committed = dst.apply_planned(&JoinResolver, client, &contact, &plan);
            (dst.clone(), committed.unwrap())
        };
        let mut commits = Vec::new();
        for shards in [1, 16, 512] {
            let src = written(shards);
            let (dst, committed) = commit(&src, KvStore::with_shards(s(1), shards), shards, &[]);
            commits.push((format!("a join at {shards} shards"), dst, committed));
        }
        let src = written(16);
        for (count, physical) in [(16, 4), (4, 16), (16, 64)] {
            let dst = KvStore::with_shards(s(1), physical);
            let (dst, committed) = commit(&src, dst, count, &[]);
            let what = format!("a join planned at {count} shards into {physical}");
            commits.push((what, dst, committed));
        }
        let mut dst = KvStore::with_shards(s(1), 16);
        dst.put("k00100", "mine");
        let (dst, committed) = commit(&src, dst, 16, &["k00042", "k01999", "local"]);
        commits.push(("racing local writes".to_string(), dst, committed));
        commits
    }

    /// A commit hands its log the keys and entries it changed in key
    /// order, each once: the contact's keys and each physical shard's
    /// image keys — a shard's whole where the image filled it, a run's own
    /// where it merged into a shard holding a racing write — merged. The
    /// counts and FNV-1a digests of the logged payloads are pinned: every
    /// join logs the one store it joined.
    #[test]
    fn a_commit_logs_what_its_key_list_named() {
        let join = (2000, 0x8824_da4a_f884_23a6);
        let pinned: [(usize, u64); 7] = [
            join,
            join,
            join,
            join,
            join,
            join,
            (1998, 0xf2bd_c895_8fdc_e444),
        ];
        let commits = logged_commits();
        assert_eq!(commits.len(), pinned.len());
        for ((what, dst, committed), pinned) in commits.iter().zip(pinned) {
            let mut payload = Vec::new();
            let mut n = 0;
            let mut before: Option<Vec<u8>> = None;
            let Ok(()) = committed.entries(dst).each(|entry| {
                let (key, state) = (entry.key(), entry.state().expect("a stored state"));
                let key = std::str::from_utf8(key).unwrap();
                let entry = encode_state(state);
                assert_eq!(dst.encode_entry(key), Some(entry.clone()), "{what}: {key}");
                assert!(before.as_deref() < Some(key.as_bytes()), "{what}: {key}");
                before = Some(key.as_bytes().to_vec());
                wire::put_bytes(&mut payload, key.as_bytes());
                wire::put_bytes(&mut payload, &entry);
                n += 1;
                Ok::<_, std::convert::Infallible>(())
            });
            eprintln!("{what}: ({n}, {:#018x})", placement(&payload));
            assert_eq!((n, placement(&payload)), pinned, "{what}");
        }
        let (_, _, raced) = commits.last().expect("the racing pull");
        assert!(!raced.changed.is_empty(), "the contact changed keys");
        let merged = |filled: &&Filled| matches!(filled, Filled::Merged(_));
        assert_eq!(
            raced.filled.iter().filter(merged).count(),
            3,
            "one a racing write"
        );
    }
}
