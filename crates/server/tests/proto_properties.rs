//! Seeded property tests for the `optrep` verb protocol: arbitrary requests
//! and responses round-trip exactly, every strict prefix of a valid
//! encoding is rejected (the daemon sees truncated frames whenever a
//! client dies mid-write — same discipline `fault_recovery` pins down
//! for the anti-entropy wire), trailing bytes are rejected, and random
//! byte soup never panics either decoder. No response is lenient:
//! `Synced` decodes exactly its sixteen fields, and a dedicated
//! property refuses every shorter and every longer run of varints.
//!
//! The sync planner's wire shapes (the shard-digest vector a puller
//! opens with, the delta against the last one its connection carried,
//! and the plan the server answers) are strict codecs; their
//! every-prefix properties live here too, with the lockstep of the two
//! ends' vector memories.

use bytes::Bytes;
use optrep_core::obs::{FamilySnapshot, FamilyValue, HistogramSnapshot, MetricsSnapshot, BUCKETS};
use optrep_core::rng::{cases, SplitMix64};
use optrep_kv::KvSyncReport;
use optrep_replication::planner::{
    digest_vector_frame, ChildDigests, DigestDelta, DigestVector, ShardDigest, ShardPlan,
    ShardScope, VectorMemory,
};
use optrep_server::proto::{Request, Response};
use std::ops::Range;

/// A word of any magnitude, so every varint length is drawn.
fn word(rng: &mut SplitMix64) -> u64 {
    rng.next_u64() >> rng.below(64)
}

fn bytes(rng: &mut SplitMix64, len: Range<usize>) -> Vec<u8> {
    (0..rng.range(len)).map(|_| rng.next_u64() as u8).collect()
}

fn string(rng: &mut SplitMix64) -> String {
    String::from_utf8_lossy(&bytes(rng, 0..24)).into_owned()
}

fn request(rng: &mut SplitMix64) -> Request {
    match rng.below(6) {
        0 => Request::Get { key: string(rng) },
        1 => Request::Put {
            key: string(rng),
            value: Bytes::from(bytes(rng, 0..48)),
        },
        2 => Request::Delete { key: string(rng) },
        3 => Request::Digest,
        4 => Request::Sync { peer: string(rng) },
        _ => Request::Metrics,
    }
}

fn family_value(rng: &mut SplitMix64) -> FamilyValue {
    match rng.below(3) {
        0 => FamilyValue::Counter(word(rng)),
        1 => FamilyValue::Gauge(word(rng)),
        _ => FamilyValue::Histogram(HistogramSnapshot {
            sum: word(rng),
            count: word(rng),
            counts: (0..BUCKETS).map(|_| word(rng)).collect(),
        }),
    }
}

fn metrics(rng: &mut SplitMix64) -> MetricsSnapshot {
    MetricsSnapshot {
        seq: word(rng),
        families: (0..rng.below(6))
            .map(|_| FamilySnapshot {
                name: string(rng),
                value: family_value(rng),
            })
            .collect(),
    }
}

fn report(rng: &mut SplitMix64) -> KvSyncReport {
    let mut count = || (word(rng) as u32) as usize;
    KvSyncReport {
        keys_examined: count(),
        keys_created: count(),
        keys_fast_forwarded: count(),
        keys_reconciled: count(),
        keys_unchanged: count(),
        meta_bytes: count(),
        value_bytes: count(),
        shards_total: count(),
        shards_skipped: count(),
        shards_incremental: count(),
        shards_snapshot: count(),
        digest_bytes: count(),
        shards_refined: count(),
        digests_sent: count(),
        shards_proposed: count(),
        framing_bytes: count(),
    }
}

fn response(rng: &mut SplitMix64) -> Response {
    match rng.below(7) {
        0 => Response::Value(None),
        1 => Response::Value(Some(Bytes::from(bytes(rng, 0..48)))),
        2 => Response::Ok,
        3 => Response::Digest(word(rng)),
        4 => Response::Err(string(rng)),
        5 => Response::Synced(report(rng)),
        _ => Response::Metrics(metrics(rng)),
    }
}

/// A shard's summary: an empty shard's digest is 0, the empty sum.
fn shard_digest(rng: &mut SplitMix64) -> ShardDigest {
    let digest = word(rng);
    let entries = word(rng);
    ShardDigest {
        digest: if entries == 0 { 0 } else { digest },
        entries,
    }
}

/// Shard counts must be powers of two within the planner's bound.
fn shard_count(rng: &mut SplitMix64) -> usize {
    1 << rng.below(9)
}

fn digest_vector(rng: &mut SplitMix64) -> DigestVector {
    DigestVector {
        shards: (0..shard_count(rng)).map(|_| shard_digest(rng)).collect(),
    }
}

/// A remembered vector and the one that follows it over the same
/// connection: same shard count, anywhere from no shard to every shard
/// changed.
fn vector_pair(rng: &mut SplitMix64) -> (DigestVector, DigestVector) {
    let base = digest_vector(rng);
    let density = rng.below(9);
    let shards = base
        .shards
        .iter()
        .map(|old| match rng.below(8) < density {
            true => shard_digest(rng),
            false => *old,
        })
        .collect();
    (base, DigestVector { shards })
}

fn shard_plan(rng: &mut SplitMix64) -> ShardPlan {
    let count = shard_count(rng) as u64;
    let mut incremental: Vec<u64> = (0..rng.below(6)).map(|_| rng.next_u64() % count).collect();
    incremental.sort_unstable();
    incremental.dedup();
    let mut bulk: Vec<u64> = Vec::new();
    for _ in 0..rng.below(4) {
        let shard = rng.next_u64() % count;
        if !incremental.contains(&shard) && !bulk.contains(&shard) {
            bulk.push(shard);
        }
    }
    bulk.sort_unstable();
    let image = (!bulk.is_empty()).then(|| Bytes::from(bytes(rng, 0..24)));
    ShardPlan {
        count,
        incremental,
        bulk,
        image,
        children: None,
        proposed: Vec::new(),
    }
}

/// A plan that refines some of its incremental shards (it always has
/// one), and a scope answering that offer.
fn refined_plan(rng: &mut SplitMix64) -> (ShardPlan, ShardScope) {
    let mut plan = shard_plan(rng);
    if plan.incremental.is_empty() {
        plan.bulk.retain(|&shard| shard != 0);
        if plan.bulk.is_empty() {
            plan.image = None;
        }
        plan.incremental.push(0);
    }
    let fanout = 1u64 << rng.range(1..4);
    let mut picked: Vec<u64> = (plan.incremental.iter().copied())
        .filter(|_| rng.chance(0.5))
        .collect();
    if picked.is_empty() {
        picked.push(plan.incremental[0]);
    }
    let mut listed = Vec::new();
    let parents = picked
        .into_iter()
        .map(|shard| {
            let digests = (0..fanout)
                .map(|j| {
                    if rng.chance(0.5) {
                        listed.push(shard + j * plan.count);
                    }
                    ShardDigest {
                        digest: word(rng),
                        entries: rng.below(50_000) as u64,
                    }
                })
                .collect();
            (shard, digests)
        })
        .collect();
    listed.sort_unstable();
    let scope = ShardScope {
        count: plan.count * fanout,
        children: listed,
    };
    plan.children = Some(ChildDigests { fanout, parents });
    (plan, scope)
}

#[test]
fn request_roundtrip() {
    cases(256, |_, rng| {
        let request = request(rng);
        let mut buf = request.encode();
        assert_eq!(Request::decode(&mut buf).unwrap(), request);
    });
}

#[test]
fn response_roundtrip() {
    cases(256, |_, rng| {
        let response = response(rng);
        let mut buf = response.encode();
        assert_eq!(Response::decode(&mut buf).unwrap(), response);
    });
}

#[test]
fn every_request_prefix_is_rejected() {
    cases(256, |_, rng| {
        let request = request(rng);
        let full = request.encode();
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(Request::decode(&mut buf).is_err(), "cut {} decoded", cut);
        }
    });
}

#[test]
fn every_response_prefix_is_rejected() {
    cases(256, |_, rng| {
        let response = response(rng);
        let full = response.encode();
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(Response::decode(&mut buf).is_err(), "cut {} decoded", cut);
        }
    });
}

/// `Synced` is as strict as every other response: its sixteen fields
/// round-trip, every strict prefix is refused — a cut at a field
/// boundary included — and so is any varint appended after the last.
#[test]
fn synced_refuses_every_strict_prefix_and_every_trailing_varint() {
    cases(256, |_, rng| {
        let report = Response::Synced(report(rng));
        let full = report.encode();
        assert_eq!(Response::decode(&mut full.clone()).unwrap(), report);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(Response::decode(&mut buf).is_err(), "cut {} decoded", cut);
        }
        let mut padded = bytes::BytesMut::from(&full[..]);
        optrep_core::wire::put_varint(&mut padded, word(rng));
        assert!(Response::decode(&mut padded.freeze()).is_err());
    });
}

/// The planner's opening message is a strict codec: exact
/// round-trip, every strict prefix rejected, trailing bytes
/// rejected.
#[test]
fn digest_vector_roundtrips_and_rejects_every_prefix() {
    cases(256, |_, rng| {
        let dv = digest_vector(rng);
        let junk = rng.next_u64() as u8;
        let full = dv.encode();
        let mut buf = full.clone();
        assert_eq!(DigestVector::decode(&mut buf).unwrap(), dv);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(
                DigestVector::decode(&mut buf).is_err(),
                "cut {} decoded",
                cut
            );
        }
        let mut padded = bytes::BytesMut::new();
        padded.extend_from_slice(&full);
        padded.extend_from_slice(&[junk]);
        let mut buf = padded.freeze();
        assert!(DigestVector::decode(&mut buf).is_err());
    });
}

/// The delta a later contact opens with is as strict, against the
/// vector it patches: exact round-trip, the patch lands on the
/// next vector, every strict prefix and a trailing byte rejected —
/// and so are a base at another shard count and a check that
/// describes another vector.
#[test]
fn digest_delta_roundtrips_patches_and_rejects_every_prefix() {
    cases(256, |_, rng| {
        let (base, next) = vector_pair(rng);
        let junk = rng.next_u64() as u8;
        let delta = DigestDelta::between(&base, &next).expect("same shard count");
        let full = delta.encode();
        let mut buf = full.clone();
        assert_eq!(DigestDelta::decode(&mut buf, &base).unwrap(), delta.clone());
        let mut patched = base.clone();
        delta.patch(&mut patched).expect("the check holds");
        assert_eq!(&patched, &next);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(
                DigestDelta::decode(&mut buf, &base).is_err(),
                "cut {} decoded",
                cut
            );
        }
        let mut padded = bytes::BytesMut::from(&full[..]);
        padded.extend_from_slice(&[junk]);
        assert!(DigestDelta::decode(&mut padded.freeze(), &base).is_err());

        let mut wider = base.clone();
        wider.shards.extend(base.shards.iter().copied());
        assert!(DigestDelta::decode(&mut full.clone(), &wider).is_err());
        assert!(DigestDelta::between(&wider, &next).is_none());

        let mut off = delta;
        off.check ^= 1 << (junk % 64);
        assert!(off.patch(&mut base.clone()).is_err());
    });
}

/// The two ends of a connection stay in step: whatever frame the
/// puller's memory picks, the server's reconstructs the vector —
/// and the frame is never longer than the full one, a handful of
/// bytes for a vector that did not change.
#[test]
fn vector_memories_stay_in_step_and_pick_the_shorter_frame() {
    cases(256, |_, rng| {
        let (first, second) = vector_pair(rng);
        let (mut puller, mut server) = (VectorMemory::default(), VectorMemory::default());
        for (vector, warm) in [(&first, false), (&second, true), (&second, true)] {
            let full = digest_vector_frame(vector);
            let (frame, sent) = puller.opening_frame(vector);
            assert!(frame.len() <= full.len());
            if !warm {
                assert_eq!(&frame[..], &full[..]);
            }
            assert_eq!(frame.len() < full.len(), frame[..] != full[..]);
            assert!(sent <= vector.shards.len() as u64);
            let mut wire = frame.freeze();
            let mut payload = optrep_core::wire::get_frame(&mut wire).unwrap().payload;
            assert_eq!(server.receive(&mut payload).unwrap(), vector);
            puller.remember(vector, []);
        }
        // The third contact repeated the second's vector.
        let (frame, sent) = puller.opening_frame(&second);
        if second.shards.len() > 1 {
            assert_eq!(sent, 0);
            assert!(
                frame.len() <= 16,
                "an unchanged vector costs {} bytes",
                frame.len()
            );
        }
        // A server that remembers nothing refuses a delta.
        let mut payload = DigestDelta::between(&first, &second).unwrap().encode();
        assert!(VectorMemory::default().receive(&mut payload).is_err());
    });
}

/// The planner's answer message is a strict codec too.
#[test]
fn shard_plan_roundtrips_and_rejects_every_prefix() {
    cases(256, |_, rng| {
        let plan = shard_plan(rng);
        let junk = rng.next_u64() as u8;
        let full = plan.encode();
        let mut buf = full.clone();
        assert_eq!(ShardPlan::decode(&mut buf).unwrap(), plan);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(ShardPlan::decode(&mut buf).is_err(), "cut {} decoded", cut);
        }
        let mut padded = bytes::BytesMut::new();
        padded.extend_from_slice(&full);
        padded.extend_from_slice(&[junk]);
        let mut buf = padded.freeze();
        assert!(ShardPlan::decode(&mut buf).is_err());
    });
}

/// A refined plan is as strict: the children tail is mandatory
/// under its tag, so no prefix of it is a plan — and the scope that
/// answers it is a strict codec against the plan's offer.
#[test]
fn refined_plan_and_scope_roundtrip_and_reject_every_prefix() {
    cases(256, |_, rng| {
        let (plan, scope) = refined_plan(rng);
        let junk = rng.next_u64() as u8;
        let offer = plan.offer().expect("refined");
        let full = plan.encode();
        let mut buf = full.clone();
        assert_eq!(ShardPlan::decode(&mut buf).unwrap(), plan);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(
                ShardPlan::decode(&mut buf).is_err(),
                "plan cut {} decoded",
                cut
            );
        }
        let mut padded = bytes::BytesMut::from(&full[..]);
        padded.extend_from_slice(&[junk]);
        assert!(ShardPlan::decode(&mut padded.freeze()).is_err());

        let full = scope.encode();
        let mut buf = full.clone();
        assert_eq!(ShardScope::decode(&mut buf, &offer).unwrap(), scope);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(
                ShardScope::decode(&mut buf, &offer).is_err(),
                "scope cut {} decoded",
                cut
            );
        }
        let mut padded = bytes::BytesMut::from(&full[..]);
        padded.extend_from_slice(&[junk]);
        assert!(ShardScope::decode(&mut padded.freeze(), &offer).is_err());
    });
}

#[test]
fn trailing_bytes_are_rejected() {
    cases(256, |_, rng| {
        let request = request(rng);
        let junk = rng.next_u64() as u8;
        let mut padded = bytes::BytesMut::new();
        padded.extend_from_slice(&request.encode());
        padded.extend_from_slice(&[junk]);
        let mut buf = padded.freeze();
        assert!(Request::decode(&mut buf).is_err());
    });
}

#[test]
fn garbage_never_panics() {
    cases(256, |_, rng| {
        let raw = bytes(rng, 0..64);
        let mut buf = Bytes::from(raw.clone());
        let _ = Request::decode(&mut buf);
        let mut buf = Bytes::from(raw);
        let _ = Response::decode(&mut buf);
    });
}

/// The plan codec carries its image as opaque bytes, so an image
/// whose vector names a site twice crosses it intact; the puller's
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
    plan.image = Some(blob.freeze());
    let plan = ShardPlan::decode(&mut plan.encode()).expect("images are opaque to the codec");

    let mut client = dst.client_endpoint_for(&plan.incremental, 4);
    let contact = run_contact(&mut client, &mut server).unwrap();
    let before = dst.clone();
    assert_eq!(
        dst.apply_planned_tracked(&JoinResolver, client, &contact, &plan),
        Err(optrep_core::Error::Wire(WireError::InvalidPayload))
    );
    assert_eq!(dst, before);
}
