//! Every decoder of `optrep-server`, registered once in the hostile-bytes
//! harness (`optrep_core::hostile`): the verb protocol's requests and
//! responses, and the write-ahead log's record.

use bytes::Bytes;
use optrep_core::error::WireError;
use optrep_core::hostile::{Counting, Decoder};
use optrep_core::obs::{FamilySnapshot, FamilyValue, HistogramSnapshot, MetricsSnapshot, BUCKETS};
use optrep_kv::KvSyncReport;
use optrep_server::persist::{decode_record, encode_record};
use optrep_server::proto::{Request, Response};

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn requests() {
    let request = |request: Request| request.encode();
    Decoder::new("proto::Request::decode", |mut buf| {
        Request::decode(&mut buf)
    })
    .canonical(|request| request.encode().to_vec())
    .cap(2, 64)
    .accepts("get", request(Request::Get { key: "k".into() }))
    .accepts(
        "put",
        request(Request::Put {
            key: "key".into(),
            value: Bytes::from_static(b"value"),
        }),
    )
    .accepts("delete", request(Request::Delete { key: "gone".into() }))
    .accepts("digest", request(Request::Digest))
    .accepts(
        "sync",
        request(Request::Sync {
            peer: "127.0.0.1:7701".into(),
        }),
    )
    .accepts("metrics", request(Request::Metrics))
    .rejects("the retired status verb", [4])
    .rejects("a byte past a verb", [5, 0])
    .rejects("a key that is not UTF-8", [1, 1, 0xff])
    .check();
}

fn report() -> KvSyncReport {
    KvSyncReport {
        keys_examined: 5,
        keys_created: 1,
        keys_fast_forwarded: 2,
        keys_reconciled: 1,
        keys_unchanged: 1,
        meta_bytes: 120,
        value_bytes: 34,
        shards_total: 16,
        shards_skipped: 13,
        shards_incremental: 2,
        shards_snapshot: 1,
        digest_bytes: 310,
        shards_refined: 2,
        digests_sent: 3,
        shards_proposed: 2,
        framing_bytes: 83,
    }
}

fn metrics() -> MetricsSnapshot {
    let mut counts = vec![0; BUCKETS];
    counts[5] = 2;
    counts[64] = 1;
    let family = |name: &str, value| FamilySnapshot {
        name: name.into(),
        value,
    };
    MetricsSnapshot {
        seq: 9,
        families: vec![
            family("optrep_pool_contacts_total", FamilyValue::Counter(17)),
            family("optrep_conn_live", FamilyValue::Gauge(3)),
            family(
                "h",
                FamilyValue::Histogram(HistogramSnapshot {
                    counts,
                    sum: 40,
                    count: 3,
                }),
            ),
        ],
    }
}

#[test]
fn responses() {
    let synced = Response::Synced(report()).encode();
    Decoder::new("proto::Response::decode", |mut buf| {
        Response::decode(&mut buf)
    })
    .canonical(|response| response.encode().to_vec())
    .cap(128, 1024)
    .accepts("no value", Response::Value(None).encode())
    .accepts(
        "a value",
        Response::Value(Some(Bytes::from_static(b"hello"))).encode(),
    )
    .accepts("ok", Response::Ok.encode())
    .accepts("a digest", Response::Digest(u64::MAX).encode())
    .accepts("synced", &synced)
    .accepts("an error", Response::Err("no such peer".into()).encode())
    .accepts("metrics", Response::Metrics(metrics()).encode())
    .rejects("the retired status response", [3, 7, 0, 0, 0, 0, 0, 0])
    .rejects(
        "synced with a seventeenth field",
        [&synced[..], &[0]].concat(),
    )
    .rejects(
        "a bucket index past the last",
        [7, 0, 1, 1, b'h', 2, 0, 1, 1, BUCKETS as u8, 1],
    )
    .check();
}

#[test]
fn log_records() {
    let image = [1, 1, b'k', 4, 3, 1, 0, 4, b'v'];
    let mut mismatch = encode_record(7, &image).to_vec();
    *mismatch.last_mut().unwrap() ^= 1;
    Decoder::new("persist::decode_record", |mut buf: Bytes| {
        let record = decode_record(&mut buf)?;
        match buf.is_empty() {
            true => Ok(record),
            false => Err(WireError::InvalidPayload),
        }
    })
    .canonical(|(seq, payload)| encode_record(*seq, payload).to_vec())
    .cap(0, 0)
    .torn(|e| *e == WireError::UnexpectedEof)
    .accepts("a put's record", encode_record(7, &image))
    .accepts("an empty record", encode_record(u64::MAX, &[]))
    .rejects("a checksum that does not match", mismatch)
    .check();
}
