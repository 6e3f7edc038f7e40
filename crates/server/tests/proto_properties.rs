//! Seeded property tests for the `optrep` verb protocol: arbitrary
//! requests and responses round-trip exactly. Cut, flipped and trailing
//! bytes are the hostile-bytes harness's (`tests/hostile.rs`), and so are
//! the sync planner's codecs (`optrep-replication`'s).

use bytes::Bytes;
use optrep_core::obs::{FamilySnapshot, FamilyValue, HistogramSnapshot, MetricsSnapshot, BUCKETS};
use optrep_core::rng::{cases, SplitMix64};
use optrep_kv::KvSyncReport;
use optrep_replication::planner::ShardPlan;
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
