//! What a contact cost, split by the paper's cost taxonomy.

use super::msg::{CtrlMsg, MuxMsg};
use crate::protocol::{opt_elem_len, SessionMsg};
use optrep_core::error::Error;
use optrep_core::obs::SessionTotals;
use optrep_core::sync::{Framed, WireMsg};

/// Byte and latency accounting for one batched contact, attributed per
/// the paper's cost model: comparison/`SYNCS` metadata, state-transfer
/// payload, and connection framing (headers, stream ids, object names).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContactReport {
    /// Blocking dependency depth of the contact under §3.1 pipelining:
    /// one for the batched comparison exchange (`BatchHello` →
    /// `BatchServerFirst`), plus one more iff any stream went on to
    /// request a state transfer — the streams progress concurrently, so
    /// their `PayloadRequest`s overlap into a single extra round trip.
    /// Fire-and-forget frames (`BatchDone`, `SKIP`, speculative `SYNCS`
    /// elements) add none. A planned pull's digest/plan turn blocks too
    /// but is **not** counted here: the field prices the object
    /// exchange alone.
    pub round_trips: u64,
    /// Comparison bytes: the per-stream first elements, verdict flags and
    /// coalesced `Done`s carried by the control stream (Algorithm 1's
    /// O(1)-per-object exchange).
    pub compare_bytes: u64,
    /// `SYNCS` metadata bytes on the per-object streams (both directions).
    pub meta_bytes: u64,
    /// Connection framing overhead: frame headers, stream ids, names.
    pub framing_bytes: u64,
    /// State-transfer payload bytes.
    pub payload_bytes: u64,
    /// Every byte on the wire (`compare + meta + framing + payload`).
    pub total_bytes: u64,
    /// Number of frames exchanged.
    pub frames: u64,
    /// Shards the planner phase considered (zero on an unplanned
    /// contact). Planner-phase traffic travels before the batched
    /// exchange and is accounted separately in
    /// [`digest_bytes`](Self::digest_bytes) — it is **not** part of the
    /// four byte planes, `total_bytes`, or `frames`, so per-contact
    /// byte conservation holds over the object exchange alone.
    pub shards_total: u64,
    /// Shards skipped outright: digests matched, zero object rounds.
    pub shards_skipped: u64,
    /// Shards synced incrementally (rotating-vector streams).
    pub shards_incremental: u64,
    /// Shards transferred as whole-shard snapshots.
    pub shards_snapshot: u64,
    /// Incremental shards narrowed to their dirty children: the plan
    /// offered their child digests and the puller answered with a
    /// [`ShardScope`](crate::planner::ShardScope). Zero when the plan
    /// refined nothing or the puller walked the shards whole.
    pub shards_refined: u64,
    /// Incremental shards whose scope the server proposed from its
    /// change journal ([`Proposal`](crate::planner::Proposal)) and the
    /// puller answered with a scope. Zero on a connection's first
    /// contact, and when the puller walked the shards whole.
    pub shards_proposed: u64,
    /// Of those, the shards whose residual the puller could not match:
    /// refused in the scope frame and walked whole in this same contact.
    pub shards_refused: u64,
    /// Bytes of the planner exchange (the opening frame — the digest
    /// vector, or its delta against the last one the connection
    /// carried — + plan frame, snapshot blobs, child digests and
    /// proposals included, + the scope frame; turn markers excluded) —
    /// the fifth plane, priced by [`Puller`](super::Puller).
    /// The planner frames emit no `FrameTx` event: the obs contact
    /// scope opens with the object exchange.
    pub digest_bytes: u64,
    /// Shard digests the opening frame actually shipped:
    /// [`shards_total`](Self::shards_total) for a full vector, the
    /// shards that changed since the connection's last contact for a
    /// delta — zero when a converged puller asks again.
    pub digests_sent: u64,
}

/// One frame's bytes, split by the paper's cost taxonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameBytes {
    /// Comparison bytes (first elements, verdict flags, coalesced `Done`s).
    pub compare: u64,
    /// `SYNCS` metadata bytes.
    pub meta: u64,
    /// Framing overhead bytes (headers, stream ids, names).
    pub framing: u64,
    /// State-transfer payload bytes.
    pub payload: u64,
}

impl FrameBytes {
    /// Every byte of the frame.
    pub fn total(&self) -> u64 {
        self.compare + self.meta + self.framing + self.payload
    }
}

/// Classifies one frame's encoded bytes into the cost taxonomy of
/// [`ContactReport`]: comparison, metadata, framing, payload.
pub fn classify(framed: &Framed<MuxMsg>) -> FrameBytes {
    let total = framed.encoded_len() as u64;
    let mut bytes = FrameBytes::default();
    match &framed.msg {
        MuxMsg::Ctrl(CtrlMsg::BatchHello { opens, .. }) => {
            bytes.compare = opens
                .iter()
                .map(|o| opt_elem_len(&o.first) as u64)
                .sum::<u64>();
        }
        MuxMsg::Ctrl(CtrlMsg::BatchServerFirst { answers, offers }) => {
            bytes.compare = answers
                .iter()
                .map(|a| opt_elem_len(&a.first) as u64 + 1)
                .sum::<u64>()
                + offers
                    .iter()
                    .map(|o| opt_elem_len(&o.first) as u64 + 1)
                    .sum::<u64>();
        }
        MuxMsg::Ctrl(CtrlMsg::BatchDone { streams })
        | MuxMsg::Ctrl(CtrlMsg::Cancel { streams }) => {
            bytes.compare = streams.len() as u64;
        }
        MuxMsg::Session(SessionMsg::Payload { data }) => {
            bytes.payload = data.len() as u64;
        }
        MuxMsg::Session(inner) => {
            bytes.meta = inner.encoded_len() as u64;
        }
    }
    bytes.framing = total - bytes.compare - bytes.meta - bytes.payload;
    bytes
}

impl ContactReport {
    /// Adds one frame to the four byte planes; returns its split.
    pub(super) fn account(&mut self, framed: &Framed<MuxMsg>) -> FrameBytes {
        let bytes = classify(framed);
        self.total_bytes += bytes.total();
        self.frames += 1;
        self.compare_bytes += bytes.compare;
        self.meta_bytes += bytes.meta;
        self.framing_bytes += bytes.framing;
        self.payload_bytes += bytes.payload;
        bytes
    }

    /// The contact's wire costs as one absorbed counter delta
    /// (connection-level: `sessions == 0`).
    pub fn totals(&self) -> SessionTotals {
        SessionTotals {
            compare_bytes: self.compare_bytes,
            meta_bytes: self.meta_bytes,
            framing_bytes: self.framing_bytes,
            payload_bytes: self.payload_bytes,
            ..SessionTotals::default()
        }
    }
}

/// Maps an error to the stable snake_case abort-reason vocabulary of
/// [`obs::SyncEvent::SessionAborted`](optrep_core::obs::SyncEvent::SessionAborted).
pub fn reason_label(e: &Error) -> &'static str {
    match e {
        Error::ConnectionLost { .. } => "connection_lost",
        Error::PeerFailed { .. } => "peer_failed",
        Error::Incomplete { .. } => "stalled",
        Error::Wire(_) => "decode_error",
        _ => "protocol_error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::fixtures::{name, vec_with};
    use crate::mux::{run_contact, BatchPullClient, BatchPullServer};
    use bytes::Bytes;
    use optrep_core::error::WireError;

    #[test]
    fn byte_attribution_adds_up() {
        let mut client =
            BatchPullClient::new(vec![(name(0), vec_with(&[1])), (name(1), vec_with(&[2]))]);
        let mut server = BatchPullServer::new(vec![
            (name(0), vec_with(&[1]), Bytes::from_static(b"x")),
            (name(1), vec_with(&[2, 3]), Bytes::from_static(b"bigger")),
        ]);
        let report = run_contact(&mut client, &mut server).unwrap();
        assert_eq!(
            report.total_bytes,
            report.compare_bytes + report.meta_bytes + report.framing_bytes + report.payload_bytes
        );
        assert!(report.compare_bytes > 0);
        assert!(report.payload_bytes >= 6, "dirty object ships its state");
        assert!(report.frames >= 4);
    }

    #[test]
    fn reason_labels_are_stable() {
        assert_eq!(
            reason_label(&Error::ConnectionLost { after_bytes: 1 }),
            "connection_lost"
        );
        assert_eq!(
            reason_label(&Error::PeerFailed { protocol: "x" }),
            "peer_failed"
        );
        assert_eq!(
            reason_label(&Error::Incomplete { protocol: "x" }),
            "stalled"
        );
        assert_eq!(
            reason_label(&Error::Wire(WireError::UnexpectedEof)),
            "decode_error"
        );
        assert_eq!(
            reason_label(&Error::UnexpectedMessage {
                protocol: "mux",
                message: String::new(),
            }),
            "protocol_error"
        );
    }
}
