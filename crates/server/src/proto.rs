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
    /// Ask the daemon for its vital signs.
    Status,
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

/// The daemon's vital signs, answered to a `Status` verb.
///
/// Beyond store shape, it carries the daemon's outbound peer-connection
/// counters so operators (and `smoke_cluster.sh`) can verify that
/// repeated pulls to the same peer pipeline over one persistent
/// connection: `conn_dials` stays put while `conn_contacts` grows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusInfo {
    /// The daemon's site id.
    pub site: u32,
    /// Live (non-tombstoned) keys.
    pub keys: u64,
    /// Tracked entries including tombstones.
    pub tracked: u64,
    /// The store's write generation.
    pub generation: u64,
    /// Outbound peer sockets ever dialed (sum over peers).
    pub conn_dials: u64,
    /// Contacts completed over pooled peer connections (sum over peers).
    pub conn_contacts: u64,
    /// Peers with a live pooled connection right now.
    pub conn_live: u64,
    /// Seconds since the daemon started (0 from pre-metrics daemons).
    pub uptime_secs: u64,
    /// Metrics snapshots the daemon has served so far (0 from
    /// pre-metrics daemons — no registry, nothing ever scraped).
    pub metrics_seq: u64,
    /// WAL records appended since start (0 on a memory-only daemon —
    /// and likewise for the three fields below).
    pub wal_records: u64,
    /// WAL record bytes appended since start.
    pub wal_bytes: u64,
    /// WAL fsyncs issued since start.
    pub wal_fsyncs: u64,
    /// WAL sequence the last snapshot checkpoint covers.
    pub wal_checkpoint_seq: u64,
    /// Shards the sync planner skipped outright across all pulls (0
    /// from pre-planner daemons — and likewise for the three below).
    pub planner_shards_skipped: u64,
    /// Shards the planner synced incrementally across all pulls.
    pub planner_shards_incremental: u64,
    /// Shards the planner bulk-loaded as snapshots across all pulls.
    pub planner_shards_snapshot: u64,
    /// Planner-phase wire bytes (digest vectors + plans + scopes)
    /// across all pulls.
    pub planner_digest_bytes: u64,
    /// Incremental shards the planner narrowed to their differing
    /// children across all pulls (0 from daemons that predate it).
    pub planner_shards_refined: u64,
    /// Shard digests the pulls' opening frames actually shipped (0 from
    /// daemons that predate the digest delta).
    pub planner_digests_sent: u64,
    /// Incremental shards whose scope the pulled-from daemons proposed
    /// from their change journals, across all pulls (0 from daemons
    /// that predate proposals — and likewise for the one below).
    pub planner_shards_proposed: u64,
    /// Of those, the shards this daemon refused and walked whole.
    pub planner_shards_refused: u64,
}

/// The daemon's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `Get` result; `None` for absent or tombstoned keys.
    Value(Option<Bytes>),
    /// `Put`/`Delete` acknowledged.
    Ok,
    /// `Status` result.
    Status(StatusInfo),
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
const REQ_STATUS: u8 = 4;
const REQ_DIGEST: u8 = 5;
const REQ_SYNC: u8 = 6;
const REQ_METRICS: u8 = 7;

const RESP_VALUE: u8 = 1;
const RESP_OK: u8 = 2;
const RESP_STATUS: u8 = 3;
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
            Request::Status => buf.put_u8(REQ_STATUS),
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
            REQ_STATUS => Request::Status,
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
            Response::Status(info) => {
                buf.put_u8(RESP_STATUS);
                wire::put_varint(&mut buf, u64::from(info.site));
                wire::put_varint(&mut buf, info.keys);
                wire::put_varint(&mut buf, info.tracked);
                wire::put_varint(&mut buf, info.generation);
                wire::put_varint(&mut buf, info.conn_dials);
                wire::put_varint(&mut buf, info.conn_contacts);
                wire::put_varint(&mut buf, info.conn_live);
                // Appended after the original seven fields: the decoder
                // treats these (and any future appendees) as an optional
                // tail, so a new client still reads an old daemon's
                // status, and a newer daemon's extra fields never break
                // this decoder.
                wire::put_varint(&mut buf, info.uptime_secs);
                wire::put_varint(&mut buf, info.metrics_seq);
                wire::put_varint(&mut buf, info.wal_records);
                wire::put_varint(&mut buf, info.wal_bytes);
                wire::put_varint(&mut buf, info.wal_fsyncs);
                wire::put_varint(&mut buf, info.wal_checkpoint_seq);
                wire::put_varint(&mut buf, info.planner_shards_skipped);
                wire::put_varint(&mut buf, info.planner_shards_incremental);
                wire::put_varint(&mut buf, info.planner_shards_snapshot);
                wire::put_varint(&mut buf, info.planner_digest_bytes);
                wire::put_varint(&mut buf, info.planner_shards_refined);
                wire::put_varint(&mut buf, info.planner_digests_sent);
                wire::put_varint(&mut buf, info.planner_shards_proposed);
                wire::put_varint(&mut buf, info.planner_shards_refused);
            }
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
                    // Optional tail, same discipline as `Status`: planner
                    // fields appended after the original seven, readable
                    // by old clients (which stop early) and tolerant of
                    // future appendees.
                    report.shards_total,
                    report.shards_skipped,
                    report.shards_incremental,
                    report.shards_snapshot,
                    report.digest_bytes,
                    report.shards_refined,
                    report.digests_sent,
                    report.shards_proposed,
                    report.shards_refused,
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
            RESP_STATUS => {
                let site = wire::get_varint(buf)?;
                if site > u64::from(u32::MAX) {
                    return Err(WireError::InvalidPayload);
                }
                let mut info = StatusInfo {
                    site: site as u32,
                    keys: wire::get_varint(buf)?,
                    tracked: wire::get_varint(buf)?,
                    generation: wire::get_varint(buf)?,
                    conn_dials: wire::get_varint(buf)?,
                    conn_contacts: wire::get_varint(buf)?,
                    conn_live: wire::get_varint(buf)?,
                    uptime_secs: 0,
                    metrics_seq: 0,
                    wal_records: 0,
                    wal_bytes: 0,
                    wal_fsyncs: 0,
                    wal_checkpoint_seq: 0,
                    planner_shards_skipped: 0,
                    planner_shards_incremental: 0,
                    planner_shards_snapshot: 0,
                    planner_digest_bytes: 0,
                    planner_shards_refined: 0,
                    planner_digests_sent: 0,
                    planner_shards_proposed: 0,
                    planner_shards_refused: 0,
                };
                // Optional tail: fields appended by this or any later
                // protocol revision. A short payload (old daemon) leaves
                // the defaults; unrecognized extra fields are skipped so
                // newer daemons stay readable too. Tail fields must
                // still be well-formed varints — a truncated tail is a
                // broken frame, not an old one.
                if buf.has_remaining() {
                    info.uptime_secs = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.metrics_seq = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.wal_records = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.wal_bytes = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.wal_fsyncs = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.wal_checkpoint_seq = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.planner_shards_skipped = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.planner_shards_incremental = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.planner_shards_snapshot = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.planner_digest_bytes = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.planner_shards_refined = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.planner_digests_sent = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.planner_shards_proposed = wire::get_varint(buf)?;
                }
                if buf.has_remaining() {
                    info.planner_shards_refused = wire::get_varint(buf)?;
                }
                while buf.has_remaining() {
                    let _ = wire::get_varint(buf)?;
                }
                Response::Status(info)
            }
            RESP_DIGEST => Response::Digest(wire::get_varint(buf)?),
            RESP_SYNCED => {
                let mut fields = [0usize; 7];
                for field in &mut fields {
                    *field = wire::get_varint(buf)? as usize;
                }
                let mut report = KvSyncReport {
                    keys_examined: fields[0],
                    keys_created: fields[1],
                    keys_fast_forwarded: fields[2],
                    keys_reconciled: fields[3],
                    keys_unchanged: fields[4],
                    meta_bytes: fields[5],
                    value_bytes: fields[6],
                    ..KvSyncReport::default()
                };
                // Optional planner tail: a pre-planner daemon stops at
                // seven fields (counters default to 0), unknown future
                // appendees are skipped, and a tail cut mid-varint is
                // still a broken frame.
                if buf.has_remaining() {
                    report.shards_total = wire::get_varint(buf)? as usize;
                }
                if buf.has_remaining() {
                    report.shards_skipped = wire::get_varint(buf)? as usize;
                }
                if buf.has_remaining() {
                    report.shards_incremental = wire::get_varint(buf)? as usize;
                }
                if buf.has_remaining() {
                    report.shards_snapshot = wire::get_varint(buf)? as usize;
                }
                if buf.has_remaining() {
                    report.digest_bytes = wire::get_varint(buf)? as usize;
                }
                if buf.has_remaining() {
                    report.shards_refined = wire::get_varint(buf)? as usize;
                }
                if buf.has_remaining() {
                    report.digests_sent = wire::get_varint(buf)? as usize;
                }
                if buf.has_remaining() {
                    report.shards_proposed = wire::get_varint(buf)? as usize;
                }
                if buf.has_remaining() {
                    report.shards_refused = wire::get_varint(buf)? as usize;
                }
                while buf.has_remaining() {
                    let _ = wire::get_varint(buf)?;
                }
                Response::Synced(report)
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
            Request::Status,
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
            Response::Status(StatusInfo {
                site: 3,
                keys: 10,
                tracked: 12,
                generation: 99,
                conn_dials: 1,
                conn_contacts: 41,
                conn_live: 1,
                uptime_secs: 3600,
                metrics_seq: 12,
                wal_records: 57,
                wal_bytes: 9001,
                wal_fsyncs: 7,
                wal_checkpoint_seq: 40,
                planner_shards_skipped: 31,
                planner_shards_incremental: 2,
                planner_shards_snapshot: 1,
                planner_digest_bytes: 480,
                planner_shards_refined: 2,
                planner_digests_sent: 19,
                planner_shards_proposed: 7,
                planner_shards_refused: 1,
            }),
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
                shards_refused: 1,
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
        registry.counter("optrep_contacts_total").add(17);
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

    #[test]
    fn status_decode_tolerates_old_and_future_tails() {
        let info = StatusInfo {
            site: 9,
            keys: 4,
            tracked: 6,
            generation: 77,
            conn_dials: 2,
            conn_contacts: 8,
            conn_live: 2,
            uptime_secs: 120,
            metrics_seq: 5,
            wal_records: 30,
            wal_bytes: 4096,
            wal_fsyncs: 3,
            wal_checkpoint_seq: 28,
            planner_shards_skipped: 14,
            planner_shards_incremental: 2,
            planner_shards_snapshot: 0,
            planner_digest_bytes: 260,
            planner_shards_refined: 1,
            planner_digests_sent: 18,
            planner_shards_proposed: 5,
            planner_shards_refused: 2,
        };

        // A pre-metrics daemon: only the original seven fields.
        let mut old = BytesMut::new();
        old.put_u8(RESP_STATUS);
        for v in [
            u64::from(info.site),
            info.keys,
            info.tracked,
            info.generation,
            info.conn_dials,
            info.conn_contacts,
            info.conn_live,
        ] {
            wire::put_varint(&mut old, v);
        }
        let mut buf = old.freeze();
        let decoded = Response::decode(&mut buf).expect("old payload decodes");
        assert_eq!(
            decoded,
            Response::Status(StatusInfo {
                uptime_secs: 0,
                metrics_seq: 0,
                wal_records: 0,
                wal_bytes: 0,
                wal_fsyncs: 0,
                wal_checkpoint_seq: 0,
                planner_shards_skipped: 0,
                planner_shards_incremental: 0,
                planner_shards_snapshot: 0,
                planner_digest_bytes: 0,
                planner_shards_refined: 0,
                planner_digests_sent: 0,
                planner_shards_proposed: 0,
                planner_shards_refused: 0,
                ..info
            })
        );

        // A future daemon: the current fields plus unknown appendees.
        let mut future = BytesMut::new();
        future.put_slice(&Response::Status(info).encode());
        wire::put_varint(&mut future, 0xDEAD);
        wire::put_varint(&mut future, 42);
        let mut buf = future.freeze();
        assert_eq!(
            Response::decode(&mut buf).expect("future payload decodes"),
            Response::Status(info),
            "unknown tail fields must be skipped, not rejected"
        );

        // A truncated tail is still a broken frame — detectable when
        // the cut lands mid-varint, so put a multi-byte value last and
        // slice one byte off it.
        let long_tail = Response::Status(StatusInfo {
            planner_shards_refused: 300, // two-byte varint at the very end
            ..info
        })
        .encode();
        let mut buf = long_tail.slice(0..long_tail.len() - 1);
        assert!(
            Response::decode(&mut buf).is_err(),
            "a varint cut mid-byte in the tail must not decode"
        );
    }

    #[test]
    fn truncations_and_junk_are_rejected() {
        let full = Request::Put {
            key: "key".into(),
            value: Bytes::from_static(b"value"),
        }
        .encode();
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(Request::decode(&mut buf).is_err(), "cut {cut}");
        }
        let mut junk = Bytes::from_static(&[0x7f, 1, 2]);
        assert_eq!(Request::decode(&mut junk), Err(WireError::UnknownTag(0x7f)));
        // Trailing garbage after a valid verb is a protocol error.
        let mut padded = BytesMut::new();
        padded.put_slice(&Request::Status.encode());
        padded.put_u8(0);
        let mut buf = padded.freeze();
        assert_eq!(Request::decode(&mut buf), Err(WireError::InvalidPayload));
    }
}
