//! The `optrep` client-verb protocol.
//!
//! After a [`Handshake`](optrep_core::wire::Handshake) with
//! [`Intent::Verbs`](optrep_core::wire::Intent), a connection carries a
//! simple request/response exchange on the control stream: each
//! [`Request`] travels as one frame payload and is answered by exactly
//! one [`Response`] frame. Encoding follows the repo's wire conventions
//! (one-byte tags, LEB128 varints, length-prefixed byte strings), so the
//! verb traffic is as measurable as the anti-entropy traffic.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::obs::metrics::{FamilySnapshot, FamilyValue, HistogramSnapshot, MetricsSnapshot};
use optrep_core::obs::BUCKETS;
use optrep_core::wire;
use optrep_kv::KvSyncReport;

/// One client verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read a key.
    Get {
        /// Key to read.
        key: String,
    },
    /// Write a key.
    Put {
        /// Key to write.
        key: String,
        /// New value bytes.
        value: Bytes,
    },
    /// Delete a key (writes a tombstone).
    Delete {
        /// Key to delete.
        key: String,
    },
    /// Ask for the site-independent replica digest.
    Digest,
    /// Ask the daemon to pull from `peer` (`host:port`) right now.
    Sync {
        /// Peer address to pull from.
        peer: String,
    },
    /// Ask for a self-describing metrics snapshot (all registered
    /// counter/gauge/histogram families).
    Metrics,
}

/// The daemon's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `Get` result; `None` for absent or tombstoned keys.
    Value(Option<Bytes>),
    /// `Put`/`Delete` acknowledged.
    Ok,
    /// `Digest` result ([`optrep_kv::KvStore::replica_digest`]).
    Digest(u64),
    /// `Sync` completed with this pull report.
    Synced(KvSyncReport),
    /// `Metrics` result: every registered family, point in time.
    Metrics(MetricsSnapshot),
    /// The verb failed; human-readable reason.
    Err(String),
}

const REQ_GET: u8 = 1;
const REQ_PUT: u8 = 2;
const REQ_DELETE: u8 = 3;
// 4 was the retired `Status` verb; it decodes as an unknown tag.
const REQ_DIGEST: u8 = 5;
const REQ_SYNC: u8 = 6;
const REQ_METRICS: u8 = 7;

const RESP_VALUE: u8 = 1;
const RESP_OK: u8 = 2;
// 3 was the retired `Status` answer; it decodes as an unknown tag.
const RESP_DIGEST: u8 = 4;
const RESP_SYNCED: u8 = 5;
const RESP_ERR: u8 = 6;
const RESP_METRICS: u8 = 7;

/// Family kind tags inside a `Metrics` response.
const FAMILY_COUNTER: u8 = 0;
const FAMILY_GAUGE: u8 = 1;
const FAMILY_HISTOGRAM: u8 = 2;

fn get_string(buf: &mut Bytes) -> Result<String, WireError> {
    let bytes = wire::get_bytes(buf)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidPayload)
}

/// Encodes one metric family: length-prefixed name, kind tag, value.
/// Histogram buckets travel sparse — `(index, count)` pairs with
/// strictly increasing one-byte indexes — so a mostly-empty 65-bucket
/// histogram costs a handful of bytes, and every field is counted up
/// front (no optional tails: a truncated snapshot can never decode).
fn put_family(buf: &mut BytesMut, family: &FamilySnapshot) {
    wire::put_bytes(buf, family.name.as_bytes());
    match &family.value {
        FamilyValue::Counter(v) => {
            buf.put_u8(FAMILY_COUNTER);
            wire::put_varint(buf, *v);
        }
        FamilyValue::Gauge(v) => {
            buf.put_u8(FAMILY_GAUGE);
            wire::put_varint(buf, *v);
        }
        FamilyValue::Histogram(h) => {
            buf.put_u8(FAMILY_HISTOGRAM);
            wire::put_varint(buf, h.sum);
            wire::put_varint(buf, h.count);
            let nonzero: Vec<(usize, u64)> = h
                .counts
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, c)| c != 0)
                .collect();
            wire::put_varint(buf, nonzero.len() as u64);
            for (i, c) in nonzero {
                buf.put_u8(i as u8);
                wire::put_varint(buf, c);
            }
        }
    }
}

fn get_family(buf: &mut Bytes) -> Result<FamilySnapshot, WireError> {
    let name = get_string(buf)?;
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEof);
    }
    let value = match buf.get_u8() {
        FAMILY_COUNTER => FamilyValue::Counter(wire::get_varint(buf)?),
        FAMILY_GAUGE => FamilyValue::Gauge(wire::get_varint(buf)?),
        FAMILY_HISTOGRAM => {
            let sum = wire::get_varint(buf)?;
            let count = wire::get_varint(buf)?;
            let pairs = wire::get_varint(buf)?;
            if pairs > BUCKETS as u64 {
                return Err(WireError::InvalidPayload);
            }
            let mut counts = vec![0u64; BUCKETS];
            let mut prev: Option<u8> = None;
            for _ in 0..pairs {
                if !buf.has_remaining() {
                    return Err(WireError::UnexpectedEof);
                }
                let index = buf.get_u8();
                // Strictly increasing indexes make the encoding
                // canonical: one wire form per snapshot.
                if usize::from(index) >= BUCKETS || prev.is_some_and(|p| index <= p) {
                    return Err(WireError::InvalidPayload);
                }
                let bucket = wire::get_varint(buf)?;
                if bucket == 0 {
                    return Err(WireError::InvalidPayload);
                }
                counts[usize::from(index)] = bucket;
                prev = Some(index);
            }
            FamilyValue::Histogram(HistogramSnapshot { counts, sum, count })
        }
        tag => return Err(WireError::UnknownTag(tag)),
    };
    Ok(FamilySnapshot { name, value })
}

impl Request {
    /// Encodes the request as one frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            Request::Get { key } => {
                buf.put_u8(REQ_GET);
                wire::put_bytes(&mut buf, key.as_bytes());
            }
            Request::Put { key, value } => {
                buf.put_u8(REQ_PUT);
                wire::put_bytes(&mut buf, key.as_bytes());
                wire::put_bytes(&mut buf, value);
            }
            Request::Delete { key } => {
                buf.put_u8(REQ_DELETE);
                wire::put_bytes(&mut buf, key.as_bytes());
            }
            Request::Digest => buf.put_u8(REQ_DIGEST),
            Request::Sync { peer } => {
                buf.put_u8(REQ_SYNC);
                wire::put_bytes(&mut buf, peer.as_bytes());
            }
            Request::Metrics => buf.put_u8(REQ_METRICS),
        }
        buf.freeze()
    }

    /// Decodes one request from a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownTag`] on an unrecognized verb,
    /// [`WireError::UnexpectedEof`]/[`WireError::InvalidPayload`] on
    /// truncated or malformed fields.
    pub fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let req = match buf.get_u8() {
            REQ_GET => Request::Get {
                key: get_string(buf)?,
            },
            REQ_PUT => Request::Put {
                key: get_string(buf)?,
                value: wire::get_bytes(buf)?,
            },
            REQ_DELETE => Request::Delete {
                key: get_string(buf)?,
            },
            REQ_DIGEST => Request::Digest,
            REQ_SYNC => Request::Sync {
                peer: get_string(buf)?,
            },
            REQ_METRICS => Request::Metrics,
            tag => return Err(WireError::UnknownTag(tag)),
        };
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as one frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            Response::Value(value) => {
                buf.put_u8(RESP_VALUE);
                match value {
                    Some(v) => {
                        buf.put_u8(1);
                        wire::put_bytes(&mut buf, v);
                    }
                    None => buf.put_u8(0),
                }
            }
            Response::Ok => buf.put_u8(RESP_OK),
            Response::Digest(digest) => {
                buf.put_u8(RESP_DIGEST);
                wire::put_varint(&mut buf, *digest);
            }
            Response::Synced(report) => {
                buf.put_u8(RESP_SYNCED);
                for n in [
                    report.keys_examined,
                    report.keys_created,
                    report.keys_fast_forwarded,
                    report.keys_reconciled,
                    report.keys_unchanged,
                    report.meta_bytes,
                    report.value_bytes,
                    report.shards_total,
                    report.shards_skipped,
                    report.shards_incremental,
                    report.shards_snapshot,
                    report.digest_bytes,
                    report.shards_refined,
                    report.digests_sent,
                    report.shards_proposed,
                    report.framing_bytes,
                ] {
                    wire::put_varint(&mut buf, n as u64);
                }
            }
            Response::Metrics(snapshot) => {
                buf.put_u8(RESP_METRICS);
                wire::put_varint(&mut buf, snapshot.seq);
                wire::put_varint(&mut buf, snapshot.families.len() as u64);
                for family in &snapshot.families {
                    put_family(&mut buf, family);
                }
            }
            Response::Err(msg) => {
                buf.put_u8(RESP_ERR);
                wire::put_bytes(&mut buf, msg.as_bytes());
            }
        }
        buf.freeze()
    }

    /// Decodes one response from a frame payload.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`].
    pub fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let resp = match buf.get_u8() {
            RESP_VALUE => {
                if !buf.has_remaining() {
                    return Err(WireError::UnexpectedEof);
                }
                let value = match buf.get_u8() {
                    0 => None,
                    1 => Some(wire::get_bytes(buf)?),
                    tag => return Err(WireError::UnknownTag(tag)),
                };
                Response::Value(value)
            }
            RESP_OK => Response::Ok,
            RESP_DIGEST => Response::Digest(wire::get_varint(buf)?),
            RESP_SYNCED => {
                // Exactly the sixteen fields every v5 daemon sends, in
                // encode order (a struct expression evaluates its fields
                // as written): a prefix or an extra varint is refused.
                let mut field = || wire::get_varint(buf).map(|n| n as usize);
                Response::Synced(KvSyncReport {
                    keys_examined: field()?,
                    keys_created: field()?,
                    keys_fast_forwarded: field()?,
                    keys_reconciled: field()?,
                    keys_unchanged: field()?,
                    meta_bytes: field()?,
                    value_bytes: field()?,
                    shards_total: field()?,
                    shards_skipped: field()?,
                    shards_incremental: field()?,
                    shards_snapshot: field()?,
                    digest_bytes: field()?,
                    shards_refined: field()?,
                    digests_sent: field()?,
                    shards_proposed: field()?,
                    framing_bytes: field()?,
                })
            }
            RESP_METRICS => {
                let seq = wire::get_varint(buf)?;
                let count = wire::get_varint(buf)?;
                let mut families = Vec::new();
                for _ in 0..count {
                    families.push(get_family(buf)?);
                }
                Response::Metrics(MetricsSnapshot { seq, families })
            }
            RESP_ERR => Response::Err(get_string(buf)?),
            tag => return Err(WireError::UnknownTag(tag)),
        };
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Get { key: "k".into() },
            Request::Put {
                key: "k".into(),
                value: Bytes::from_static(b"v"),
            },
            Request::Delete { key: "gone".into() },
            Request::Digest,
            Request::Sync {
                peer: "127.0.0.1:7701".into(),
            },
            Request::Metrics,
        ];
        for req in reqs {
            let mut buf = req.encode();
            assert_eq!(Request::decode(&mut buf), Ok(req));
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Value(None),
            Response::Value(Some(Bytes::from_static(b"hello"))),
            Response::Ok,
            Response::Digest(u64::MAX),
            Response::Synced(KvSyncReport {
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
            }),
            Response::Err("no such peer".into()),
        ];
        for resp in resps {
            let mut buf = resp.encode();
            assert_eq!(Response::decode(&mut buf), Ok(resp));
        }
    }

    #[test]
    fn metrics_snapshot_roundtrips_through_the_wire() {
        use optrep_core::obs::{MetricsRegistry, BUCKETS};
        let registry = MetricsRegistry::new();
        registry.counter("optrep_pool_contacts_total").add(17);
        registry.gauge("optrep_conn_live").set(3);
        let h = registry.histogram("optrep_contact_micros");
        h.record(0);
        h.record(900);
        h.record(u64::MAX);
        let snapshot = registry.snapshot();

        let mut buf = Response::Metrics(snapshot.clone()).encode();
        let decoded = Response::decode(&mut buf).expect("decode");
        assert_eq!(decoded, Response::Metrics(snapshot.clone()));
        let Response::Metrics(back) = decoded else {
            unreachable!()
        };
        let hist = back.histogram("optrep_contact_micros").unwrap();
        assert_eq!(hist.counts.len(), BUCKETS);
        assert_eq!(hist.count, 3);
    }

    #[test]
    fn metrics_decode_rejects_malformed_buckets() {
        use optrep_core::obs::{FamilySnapshot, FamilyValue, HistogramSnapshot, MetricsSnapshot};
        // Hand-roll a histogram family with an out-of-range bucket
        // index by corrupting a valid encoding's index byte.
        let mut counts = vec![0u64; optrep_core::obs::BUCKETS];
        counts[5] = 2;
        let snapshot = MetricsSnapshot {
            seq: 1,
            families: vec![FamilySnapshot {
                name: "h".into(),
                value: FamilyValue::Histogram(HistogramSnapshot {
                    counts,
                    sum: 40,
                    count: 2,
                }),
            }],
        };
        let good = Response::Metrics(snapshot).encode();
        let index_pos = good
            .iter()
            .rposition(|&b| b == 5)
            .expect("index byte present");
        let mut bad = good.to_vec();
        bad[index_pos] = 200; // >= BUCKETS
        let mut buf = Bytes::from(bad);
        assert_eq!(
            Response::decode(&mut buf),
            Err(WireError::InvalidPayload),
            "bucket index past BUCKETS must be rejected"
        );
    }
}
