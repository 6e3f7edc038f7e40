//! Property tests for the `optrep` verb protocol: arbitrary requests
//! and responses round-trip exactly, every strict prefix of a valid
//! encoding is rejected (the daemon sees truncated frames whenever a
//! client dies mid-write — same discipline `fault_recovery` pins down
//! for the anti-entropy wire), trailing bytes are rejected, and random
//! byte soup never panics either decoder.
//!
//! `Status` and `Synced` are the deliberate exceptions to
//! strict-prefix rejection: their decodes tolerate an unknown varint
//! tail so old clients read new daemons, which means prefixes cut at a
//! field boundary past the original seven fields *do* decode. The
//! generic prefix property therefore excludes both, and dedicated
//! properties pin the exact tolerance each gets instead.
//!
//! The sync planner's wire shapes (the shard-digest vector a puller
//! opens with, the delta against the last one its connection carried,
//! and the plan the server answers) are strict codecs; their
//! every-prefix properties live here too, with the lockstep of the two
//! ends' vector memories.

use bytes::Bytes;
use optrep_core::obs::{FamilySnapshot, FamilyValue, HistogramSnapshot, MetricsSnapshot, BUCKETS};
use optrep_kv::KvSyncReport;
use optrep_replication::planner::{
    digest_vector_frame, ChildDigests, DigestDelta, DigestVector, ShardDigest, ShardPlan,
    ShardScope, VectorMemory,
};
use optrep_server::proto::{Request, Response, StatusInfo};
use proptest::prelude::*;

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..24)
        .prop_map(|raw| String::from_utf8_lossy(&raw).into_owned())
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        arb_string().prop_map(|key| Request::Get { key }),
        (arb_string(), proptest::collection::vec(any::<u8>(), 0..48)).prop_map(|(key, value)| {
            Request::Put {
                key,
                value: Bytes::from(value),
            }
        }),
        arb_string().prop_map(|key| Request::Delete { key }),
        Just(Request::Status),
        Just(Request::Digest),
        arb_string().prop_map(|peer| Request::Sync { peer }),
        Just(Request::Metrics),
    ]
}

fn arb_status() -> impl Strategy<Value = StatusInfo> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (
            (any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            ),
            (any::<u64>(), any::<u64>()),
        ),
    )
        .prop_map(
            |(
                site,
                keys,
                tracked,
                generation,
                (conn_dials, conn_contacts, conn_live),
                (
                    (uptime_secs, metrics_seq),
                    (wal_records, wal_bytes, wal_fsyncs, wal_checkpoint_seq),
                    (
                        planner_shards_skipped,
                        planner_shards_incremental,
                        planner_shards_snapshot,
                        planner_digest_bytes,
                        planner_shards_refined,
                        planner_digests_sent,
                    ),
                    (planner_shards_proposed, planner_shards_refused),
                ),
            )| {
                StatusInfo {
                    site,
                    keys,
                    tracked,
                    generation,
                    conn_dials,
                    conn_contacts,
                    conn_live,
                    uptime_secs,
                    metrics_seq,
                    wal_records,
                    wal_bytes,
                    wal_fsyncs,
                    wal_checkpoint_seq,
                    planner_shards_skipped,
                    planner_shards_incremental,
                    planner_shards_snapshot,
                    planner_digest_bytes,
                    planner_shards_refined,
                    planner_digests_sent,
                    planner_shards_proposed,
                    planner_shards_refused,
                }
            },
        )
}

fn arb_family_value() -> impl Strategy<Value = FamilyValue> {
    prop_oneof![
        any::<u64>().prop_map(FamilyValue::Counter),
        any::<u64>().prop_map(FamilyValue::Gauge),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), BUCKETS),
        )
            .prop_map(|(sum, count, counts)| {
                FamilyValue::Histogram(HistogramSnapshot { counts, sum, count })
            }),
    ]
}

fn arb_metrics() -> impl Strategy<Value = MetricsSnapshot> {
    (
        any::<u64>(),
        proptest::collection::vec((arb_string(), arb_family_value()), 0..6),
    )
        .prop_map(|(seq, families)| MetricsSnapshot {
            seq,
            families: families
                .into_iter()
                .map(|(name, value)| FamilySnapshot { name, value })
                .collect(),
        })
}

fn arb_report() -> impl Strategy<Value = KvSyncReport> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
        ),
        (any::<u32>(), any::<u32>()),
    )
        .prop_map(
            |(
                (examined, created, ff, reconciled),
                (unchanged, meta, value),
                (total, skipped, incremental, snapshot, digest, refined, sent),
                (proposed, refused),
            )| KvSyncReport {
                keys_examined: examined as usize,
                keys_created: created as usize,
                keys_fast_forwarded: ff as usize,
                keys_reconciled: reconciled as usize,
                keys_unchanged: unchanged as usize,
                meta_bytes: meta as usize,
                value_bytes: value as usize,
                shards_total: total as usize,
                shards_skipped: skipped as usize,
                shards_incremental: incremental as usize,
                shards_snapshot: snapshot as usize,
                digest_bytes: digest as usize,
                shards_refined: refined as usize,
                digests_sent: sent as usize,
                shards_proposed: proposed as usize,
                shards_refused: refused as usize,
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        arb_strict_response(),
        arb_status().prop_map(Response::Status),
        arb_report().prop_map(Response::Synced),
    ]
}

/// Every response variant whose decode is strict — i.e. all but
/// `Status` and `Synced`, whose tolerated unknown tails make some
/// prefixes valid.
fn arb_strict_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Value(None)),
        proptest::collection::vec(any::<u8>(), 0..48)
            .prop_map(|value| Response::Value(Some(Bytes::from(value)))),
        Just(Response::Ok),
        any::<u64>().prop_map(Response::Digest),
        arb_string().prop_map(Response::Err),
        arb_metrics().prop_map(Response::Metrics),
    ]
}

/// Shard counts must be powers of two within the planner's bound.
fn arb_shard_count() -> impl Strategy<Value = usize> {
    (0u32..9).prop_map(|shift| 1usize << shift)
}

fn arb_digest_vector() -> impl Strategy<Value = DigestVector> {
    (
        arb_shard_count(),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 256),
    )
        .prop_map(|(count, pairs)| DigestVector {
            shards: pairs
                .into_iter()
                .take(count)
                .map(|(digest, entries)| ShardDigest { digest, entries })
                .collect(),
        })
}

/// A remembered vector and the one that follows it over the same
/// connection: same shard count, anywhere from no shard to every shard
/// changed.
fn arb_vector_pair() -> impl Strategy<Value = (DigestVector, DigestVector)> {
    (
        arb_digest_vector(),
        0u8..9,
        proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 256),
    )
        .prop_map(|(base, density, changes)| {
            let shards = base
                .shards
                .iter()
                .zip(changes)
                .map(|(old, (pick, digest, entries))| match pick < density {
                    true => ShardDigest { digest, entries },
                    false => *old,
                })
                .collect();
            (base, DigestVector { shards })
        })
}

fn arb_shard_plan() -> impl Strategy<Value = ShardPlan> {
    (
        arb_shard_count(),
        proptest::collection::vec(any::<u64>(), 0..6),
        proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..24)),
            0..4,
        ),
    )
        .prop_map(|(count, raw_incremental, raw_snapshots)| {
            let count = count as u64;
            let mut incremental: Vec<u64> =
                raw_incremental.into_iter().map(|i| i % count).collect();
            incremental.sort_unstable();
            incremental.dedup();
            let mut taken: Vec<u64> = incremental.clone();
            let mut snapshots: Vec<(u64, Bytes)> = Vec::new();
            for (raw, blob) in raw_snapshots {
                let shard = raw % count;
                if taken.contains(&shard) {
                    continue;
                }
                taken.push(shard);
                snapshots.push((shard, Bytes::from(blob)));
            }
            snapshots.sort_unstable_by_key(|(shard, _)| *shard);
            ShardPlan {
                count,
                incremental,
                snapshots,
                children: None,
                proposed: Vec::new(),
            }
        })
}

/// A plan that refines some of its incremental shards (it always has
/// one), and a scope answering that offer.
fn arb_refined_plan() -> impl Strategy<Value = (ShardPlan, ShardScope)> {
    (
        arb_shard_plan(),
        1u32..4,
        proptest::collection::vec(any::<bool>(), 6),
        proptest::collection::vec((any::<u64>(), 0u64..50_000, any::<bool>()), 6 * 8),
    )
        .prop_map(|(mut plan, log2, picks, raw)| {
            if plan.incremental.is_empty() {
                plan.snapshots.retain(|(shard, _)| *shard != 0);
                plan.incremental.push(0);
            }
            let fanout = 1u64 << log2;
            let mut picked: Vec<u64> = plan
                .incremental
                .iter()
                .zip(picks)
                .filter_map(|(&shard, pick)| pick.then_some(shard))
                .collect();
            if picked.is_empty() {
                picked.push(plan.incremental[0]);
            }
            let mut raw = raw.into_iter();
            let mut listed = Vec::new();
            let parents = picked
                .into_iter()
                .map(|shard| {
                    let digests = (0..fanout)
                        .map(|j| {
                            let (digest, entries, list) = raw.next().expect("6 x 8 children");
                            if list {
                                listed.push(shard + j * plan.count);
                            }
                            ShardDigest { digest, entries }
                        })
                        .collect();
                    (shard, digests)
                })
                .collect();
            listed.sort_unstable();
            let scope = ShardScope {
                count: plan.count * fanout,
                children: listed,
                refused: None,
            };
            plan.children = Some(ChildDigests { fanout, parents });
            (plan, scope)
        })
}

proptest! {
    #[test]
    fn request_roundtrip(request in arb_request()) {
        let mut buf = request.encode();
        prop_assert_eq!(Request::decode(&mut buf).unwrap(), request);
    }

    #[test]
    fn response_roundtrip(response in arb_response()) {
        let mut buf = response.encode();
        prop_assert_eq!(Response::decode(&mut buf).unwrap(), response);
    }

    #[test]
    fn every_request_prefix_is_rejected(request in arb_request()) {
        let full = request.encode();
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            prop_assert!(Request::decode(&mut buf).is_err(), "cut {} decoded", cut);
        }
    }

    #[test]
    fn every_response_prefix_is_rejected(response in arb_strict_response()) {
        let full = response.encode();
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            prop_assert!(Response::decode(&mut buf).is_err(), "cut {} decoded", cut);
        }
    }

    /// The `Status` tolerance is exactly "whole trailing varints may be
    /// missing or extra": any prefix of a `Status` encoding either
    /// fails to decode (cut mid-field or before the seven original
    /// fields) or decodes to a `Status` agreeing with the original on
    /// the seven original fields, with absent extensions read as zero.
    #[test]
    fn status_prefixes_decode_compatibly_or_not_at_all(status in arb_status()) {
        let full = Response::Status(status).encode();
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            if let Ok(Response::Status(got)) = Response::decode(&mut buf) {
                prop_assert_eq!(got.site, status.site);
                prop_assert_eq!(got.keys, status.keys);
                prop_assert_eq!(got.tracked, status.tracked);
                prop_assert_eq!(got.generation, status.generation);
                prop_assert_eq!(got.conn_dials, status.conn_dials);
                prop_assert_eq!(got.conn_contacts, status.conn_contacts);
                prop_assert_eq!(got.conn_live, status.conn_live);
                prop_assert!(got.uptime_secs == status.uptime_secs || got.uptime_secs == 0);
                prop_assert!(got.metrics_seq == status.metrics_seq || got.metrics_seq == 0);
                prop_assert!(got.wal_records == status.wal_records || got.wal_records == 0);
                prop_assert!(got.wal_bytes == status.wal_bytes || got.wal_bytes == 0);
                prop_assert!(got.wal_fsyncs == status.wal_fsyncs || got.wal_fsyncs == 0);
                prop_assert!(
                    got.wal_checkpoint_seq == status.wal_checkpoint_seq
                        || got.wal_checkpoint_seq == 0
                );
                prop_assert!(
                    got.planner_shards_skipped == status.planner_shards_skipped
                        || got.planner_shards_skipped == 0
                );
                prop_assert!(
                    got.planner_shards_incremental == status.planner_shards_incremental
                        || got.planner_shards_incremental == 0
                );
                prop_assert!(
                    got.planner_shards_snapshot == status.planner_shards_snapshot
                        || got.planner_shards_snapshot == 0
                );
                prop_assert!(
                    got.planner_digest_bytes == status.planner_digest_bytes
                        || got.planner_digest_bytes == 0
                );
                prop_assert!(
                    got.planner_shards_refined == status.planner_shards_refined
                        || got.planner_shards_refined == 0
                );
                prop_assert!(
                    got.planner_digests_sent == status.planner_digests_sent
                        || got.planner_digests_sent == 0
                );
                prop_assert!(
                    got.planner_shards_proposed == status.planner_shards_proposed
                        || got.planner_shards_proposed == 0
                );
                prop_assert!(
                    got.planner_shards_refused == status.planner_shards_refused
                        || got.planner_shards_refused == 0
                );
            }
        }
        // The full encoding itself always decodes.
        let mut buf = full.clone();
        prop_assert_eq!(Response::decode(&mut buf).unwrap(), Response::Status(status));
    }

    /// The `Synced` tolerance mirrors `Status`'s: any prefix either
    /// fails to decode (cut mid-field or before the seven original
    /// fields) or decodes to a report agreeing on the original seven,
    /// with absent planner extensions read as zero.
    #[test]
    fn synced_prefixes_decode_compatibly_or_not_at_all(report in arb_report()) {
        let full = Response::Synced(report).encode();
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            if let Ok(Response::Synced(got)) = Response::decode(&mut buf) {
                prop_assert_eq!(got.keys_examined, report.keys_examined);
                prop_assert_eq!(got.keys_created, report.keys_created);
                prop_assert_eq!(got.keys_fast_forwarded, report.keys_fast_forwarded);
                prop_assert_eq!(got.keys_reconciled, report.keys_reconciled);
                prop_assert_eq!(got.keys_unchanged, report.keys_unchanged);
                prop_assert_eq!(got.meta_bytes, report.meta_bytes);
                prop_assert_eq!(got.value_bytes, report.value_bytes);
                prop_assert!(got.shards_total == report.shards_total || got.shards_total == 0);
                prop_assert!(got.shards_skipped == report.shards_skipped || got.shards_skipped == 0);
                prop_assert!(
                    got.shards_incremental == report.shards_incremental
                        || got.shards_incremental == 0
                );
                prop_assert!(
                    got.shards_snapshot == report.shards_snapshot || got.shards_snapshot == 0
                );
                prop_assert!(got.digest_bytes == report.digest_bytes || got.digest_bytes == 0);
                prop_assert!(
                    got.shards_refined == report.shards_refined || got.shards_refined == 0
                );
                prop_assert!(got.digests_sent == report.digests_sent || got.digests_sent == 0);
                prop_assert!(
                    got.shards_proposed == report.shards_proposed || got.shards_proposed == 0
                );
                prop_assert!(
                    got.shards_refused == report.shards_refused || got.shards_refused == 0
                );
            }
        }
        let mut buf = full.clone();
        prop_assert_eq!(Response::decode(&mut buf).unwrap(), Response::Synced(report));
    }

    /// The planner's opening message is a strict codec: exact
    /// round-trip, every strict prefix rejected, trailing bytes
    /// rejected.
    #[test]
    fn digest_vector_roundtrips_and_rejects_every_prefix(
        dv in arb_digest_vector(),
        junk in any::<u8>(),
    ) {
        let full = dv.encode();
        let mut buf = full.clone();
        prop_assert_eq!(DigestVector::decode(&mut buf).unwrap(), dv);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            prop_assert!(DigestVector::decode(&mut buf).is_err(), "cut {} decoded", cut);
        }
        let mut padded = bytes::BytesMut::new();
        padded.extend_from_slice(&full);
        padded.extend_from_slice(&[junk]);
        let mut buf = padded.freeze();
        prop_assert!(DigestVector::decode(&mut buf).is_err());
    }

    /// The delta a later contact opens with is as strict, against the
    /// vector it patches: exact round-trip, the patch lands on the
    /// next vector, every strict prefix and a trailing byte rejected —
    /// and so are a base at another shard count and a check that
    /// describes another vector.
    #[test]
    fn digest_delta_roundtrips_patches_and_rejects_every_prefix(
        (base, next) in arb_vector_pair(),
        junk in any::<u8>(),
    ) {
        let delta = DigestDelta::between(&base, &next).expect("same shard count");
        let full = delta.encode();
        let mut buf = full.clone();
        prop_assert_eq!(DigestDelta::decode(&mut buf, &base).unwrap(), delta.clone());
        let mut patched = base.clone();
        delta.patch(&mut patched).expect("the check holds");
        prop_assert_eq!(&patched, &next);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            prop_assert!(DigestDelta::decode(&mut buf, &base).is_err(), "cut {} decoded", cut);
        }
        let mut padded = bytes::BytesMut::from(&full[..]);
        padded.extend_from_slice(&[junk]);
        prop_assert!(DigestDelta::decode(&mut padded.freeze(), &base).is_err());

        let mut wider = base.clone();
        wider.shards.extend(base.shards.iter().copied());
        prop_assert!(DigestDelta::decode(&mut full.clone(), &wider).is_err());
        prop_assert!(DigestDelta::between(&wider, &next).is_none());

        let mut off = delta;
        off.check ^= 1 << (junk % 64);
        prop_assert!(off.patch(&mut base.clone()).is_err());
    }

    /// The two ends of a connection stay in step: whatever frame the
    /// puller's memory picks, the server's reconstructs the vector —
    /// and the frame is never longer than the full one, a handful of
    /// bytes for a vector that did not change.
    #[test]
    fn vector_memories_stay_in_step_and_pick_the_shorter_frame(
        (first, second) in arb_vector_pair(),
    ) {
        let (mut puller, mut server) = (VectorMemory::default(), VectorMemory::default());
        for (vector, warm) in [(&first, false), (&second, true), (&second, true)] {
            let full = digest_vector_frame(vector);
            let (frame, sent) = puller.opening_frame(vector);
            prop_assert!(frame.len() <= full.len());
            if !warm {
                prop_assert_eq!(&frame[..], &full[..]);
            }
            prop_assert_eq!(frame.len() < full.len(), frame[..] != full[..]);
            prop_assert!(sent <= vector.shards.len() as u64);
            let mut wire = frame.freeze();
            let mut payload = optrep_core::wire::get_frame(&mut wire).unwrap().payload;
            prop_assert_eq!(server.receive(&mut payload).unwrap(), vector);
            puller.remember(vector);
        }
        // The third contact repeated the second's vector.
        let (frame, sent) = puller.opening_frame(&second);
        if second.shards.len() > 1 {
            prop_assert_eq!(sent, 0);
            prop_assert!(frame.len() <= 16, "an unchanged vector costs {} bytes", frame.len());
        }
        // A server that remembers nothing refuses a delta.
        let mut payload = DigestDelta::between(&first, &second).unwrap().encode();
        prop_assert!(VectorMemory::default().receive(&mut payload).is_err());
    }

    /// The planner's answer message is a strict codec too.
    #[test]
    fn shard_plan_roundtrips_and_rejects_every_prefix(
        plan in arb_shard_plan(),
        junk in any::<u8>(),
    ) {
        let full = plan.encode();
        let mut buf = full.clone();
        prop_assert_eq!(ShardPlan::decode(&mut buf).unwrap(), plan);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            prop_assert!(ShardPlan::decode(&mut buf).is_err(), "cut {} decoded", cut);
        }
        let mut padded = bytes::BytesMut::new();
        padded.extend_from_slice(&full);
        padded.extend_from_slice(&[junk]);
        let mut buf = padded.freeze();
        prop_assert!(ShardPlan::decode(&mut buf).is_err());
    }

    /// A refined plan is as strict: the children tail is mandatory
    /// under its tag, so no prefix of it is a plan — and the scope that
    /// answers it is a strict codec against the plan's offer.
    #[test]
    fn refined_plan_and_scope_roundtrip_and_reject_every_prefix(
        (plan, scope) in arb_refined_plan(),
        junk in any::<u8>(),
    ) {
        let offer = plan.offer().expect("refined");
        let full = plan.encode();
        let mut buf = full.clone();
        prop_assert_eq!(ShardPlan::decode(&mut buf).unwrap(), plan);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            prop_assert!(ShardPlan::decode(&mut buf).is_err(), "plan cut {} decoded", cut);
        }
        let mut padded = bytes::BytesMut::from(&full[..]);
        padded.extend_from_slice(&[junk]);
        prop_assert!(ShardPlan::decode(&mut padded.freeze()).is_err());

        let full = scope.encode();
        let mut buf = full.clone();
        prop_assert_eq!(ShardScope::decode(&mut buf, &offer).unwrap(), scope);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            prop_assert!(
                ShardScope::decode(&mut buf, &offer).is_err(),
                "scope cut {} decoded",
                cut
            );
        }
        let mut padded = bytes::BytesMut::from(&full[..]);
        padded.extend_from_slice(&[junk]);
        prop_assert!(ShardScope::decode(&mut padded.freeze(), &offer).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected(request in arb_request(), junk in any::<u8>()) {
        let mut padded = bytes::BytesMut::new();
        padded.extend_from_slice(&request.encode());
        padded.extend_from_slice(&[junk]);
        let mut buf = padded.freeze();
        prop_assert!(Request::decode(&mut buf).is_err());
    }

    #[test]
    fn garbage_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut buf = Bytes::from(raw.clone());
        let _ = Request::decode(&mut buf);
        let mut buf = Bytes::from(raw);
        let _ = Response::decode(&mut buf);
    }
}

/// The plan codec carries snapshot blobs as opaque bytes, so a blob
/// whose vector image names a site twice crosses it intact; the puller's
/// apply is where it is refused, with the store untouched.
#[test]
fn a_plan_blob_naming_a_site_twice_crosses_the_codec_and_is_refused_at_apply() {
    use optrep_core::error::WireError;
    use optrep_core::{wire, RotatingVector, SiteId, Srv};
    use optrep_kv::{JoinResolver, KvStore};
    use optrep_replication::mux::run_contact;
    use optrep_replication::PlanConfig;

    let mut meta = Srv::new();
    meta.record_update(SiteId::new(3));
    meta.record_update(SiteId::new(5));
    let mut meta = meta.encode_snapshot().to_vec();
    meta[3] = meta[1]; // [2, 5, 4, 3, 4] → the second site is the first
    let mut blob = bytes::BytesMut::new();
    wire::put_varint(&mut blob, 1);
    wire::put_bytes(&mut blob, b"x");
    wire::put_bytes(&mut blob, &meta);
    blob.extend_from_slice(&[1]);
    wire::put_bytes(&mut blob, b"v");

    let mut src = KvStore::with_shards(SiteId::new(0), 4);
    src.put("x", "1");
    let mut dst = KvStore::with_shards(SiteId::new(1), 4);
    let (mut plan, mut server) =
        src.plan_contact(&dst.shard_digest_vector(), &PlanConfig::default());
    plan.snapshots[0].1 = blob.freeze();
    let plan = ShardPlan::decode(&mut plan.encode()).expect("blobs are opaque to the codec");

    let mut client = dst.client_endpoint_for(&plan.incremental, 4);
    let contact = run_contact(&mut client, &mut server).unwrap();
    let before = dst.clone();
    assert_eq!(
        dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan),
        Err(optrep_core::Error::Wire(WireError::InvalidPayload))
    );
    assert_eq!(dst, before);
}
