//! The pulling half of a contact as a step machine, and the blocking
//! pumps that drive it over a link.

use super::msg::{
    decode_frame_msg, marker_fin, planning_violation, put_marker, violation, CtrlMsg, MuxMsg,
    CONTROL_STREAM, STALLED, TURN_STREAM,
};
use super::{reason_label, BatchPullClient, BatchPullServer, ContactReport, InProcessLink};
use crate::planner::{scope_frame, DigestVector, ShardPlan, ShardScope, VectorMemory};
use crate::protocol::SessionMsg;
use bytes::BytesMut;
use optrep_core::error::{Error, Result};
use optrep_core::obs;
use optrep_core::sync::{Endpoint, Framed, WireMsg};
use optrep_core::{obs_emit, wire};
use optrep_net::FrameLink;

/// Where a [`Puller`] is in its contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PullPhase {
    /// A planned contact's first state: the digest vector is out; one
    /// [`ShardPlan`] frame at its shard count, then the server's turn
    /// marker, is due back.
    Planning { shards: u64 },
    /// The plan is in; [`Puller::exchange`] starts the exchange.
    Planned,
    /// Trading bursts for single answers, turn by turn.
    Exchanging,
    /// The client completed and FIN'd; absorbing the server's tail.
    Draining,
    /// The report was handed out; nothing more is accepted.
    Finished,
}

/// The pulling half of a contact as a push-style step machine — the
/// counterpart of [`Serving`](super::Serving), and the only place a contact is priced.
///
/// A *planned* contact ([`open_planned`](Self::open_planned)) starts
/// one turn earlier: the puller sends its [`DigestVector`], the server
/// answers one [`ShardPlan`] ([`take_plan`](Self::take_plan)), and the
/// caller continues with a client restricted to the plan's incremental
/// shards ([`exchange`](Self::exchange)) — or, where the plan offered
/// child digests or proposed scopes and the caller checked them against
/// its store, to the children that differ and the candidates of the
/// proposals it accepts, named to the server by a [`ShardScope`] frame
/// that leads the opening burst.
///
/// The exchange is half-duplex lockstep: the client flushes a whole
/// burst and passes the turn with a [`TURN_STREAM`] marker; the server
/// answers *one* frame and passes the turn back, so `Done`
/// cancellations land before speculative elements flood the wire and
/// per-object `Δ`/`Γ`/`γ` stay identical to the single-object path.
/// When the client completes it sends a FIN marker and absorbs the
/// server's remaining frames until the server's FIN.
///
/// The machine does no I/O. The `open*` constructors,
/// [`exchange`](Self::exchange) and [`on_frame`](Self::on_frame) append
/// what the puller has to say to a byte buffer — a burst always ends in
/// its marker, so flushing the buffer in one write keeps a burst one
/// syscall — and every frame of the exchange, in either direction,
/// passes through `tally`. The serving side emits
/// nothing, so the puller's trace alone satisfies per-contact byte
/// conservation (`tables --check-jsonl`).
#[derive(Debug)]
pub struct Puller<'a> {
    /// `None` while a planned contact plans.
    client: Option<&'a mut BatchPullClient>,
    /// The server's plan, until [`take_plan`](Self::take_plan).
    plan: Option<ShardPlan>,
    /// Shards whose children the plan offered, and shards whose scope
    /// it proposed.
    offered: (u64, u64),
    /// Nothing was remembered of this link when the contact opened: it
    /// is the link's first, so its server has nothing to propose from.
    first_on_link: bool,
    contact: u64,
    report: ContactReport,
    /// Round trips are the blocking dependency depth, not the burst
    /// count: the streams run concurrently, so however the lockstep
    /// trickles their `PayloadRequest`s out, they all overlap into one
    /// extra exchange after the batched comparison.
    payload_requested: bool,
    /// A frame moved, in either direction, since the last burst began.
    moved: bool,
    phase: PullPhase,
}

impl<'a> Puller<'a> {
    fn in_phase(phase: PullPhase) -> Self {
        Puller {
            client: None,
            plan: None,
            offered: (0, 0),
            first_on_link: false,
            contact: 0,
            report: ContactReport::default(),
            payload_requested: false,
            moved: false,
            phase,
        }
    }

    /// Starts an unplanned contact: writes the opening burst
    /// (`BatchHello` plus its marker) to `out`. `contact` is the obs
    /// contact id stamped on every frame event (0 when nothing listens).
    pub fn open(client: &'a mut BatchPullClient, contact: u64, out: &mut BytesMut) -> Self {
        let mut puller = Self::in_phase(PullPhase::Planned);
        puller.exchange(client, None, contact, out);
        puller
    }

    /// Starts a planned contact: writes the opening frame — `digests`
    /// in full, or as a delta against the vector `remembered` from the
    /// connection's last completed contact, whichever is shorter — plus
    /// a turn marker to `out` as one burst and waits for the plan. The
    /// caller owns the memory's discipline ([`pull_planned`] does it):
    /// nothing may be remembered across a contact that did not
    /// complete.
    pub fn open_planned(
        digests: &DigestVector,
        remembered: &VectorMemory,
        out: &mut BytesMut,
    ) -> Self {
        let mut puller = Self::in_phase(PullPhase::Planning {
            shards: digests.shards.len() as u64,
        });
        puller.first_on_link = remembered.is_empty();
        let (frame, sent) = remembered.opening_frame(digests);
        puller.report.digest_bytes = frame.len() as u64;
        puller.report.digests_sent = sent;
        out.extend_from_slice(&frame);
        put_marker(out, false);
        puller
    }

    /// The server's plan, handed out once, when the planning turn has
    /// completed.
    pub fn take_plan(&mut self) -> Option<ShardPlan> {
        self.plan.take_if(|_| self.phase == PullPhase::Planned)
    }

    /// Begins the object exchange of a planned contact with the
    /// restricted `client`: writes `scope` (if the caller narrowed the
    /// plan's refined shards to it — `client` must be cut the same
    /// way), `BatchHello` and its marker to `out` as one burst. The
    /// scope frame is planner traffic: priced into
    /// [`ContactReport::digest_bytes`], not into the four planes.
    /// `contact` as for [`open`](Self::open).
    ///
    /// # Panics
    ///
    /// Panics unless the planning turn has just completed, or if a
    /// scope answers a plan that offered nothing to narrow.
    pub fn exchange(
        &mut self,
        client: &'a mut BatchPullClient,
        scope: Option<&ShardScope>,
        contact: u64,
        out: &mut BytesMut,
    ) {
        assert_eq!(self.phase, PullPhase::Planned, "no plan to exchange under");
        if let Some(scope) = scope {
            let (refined, proposed) = self.offered;
            assert!(
                refined + proposed > 0,
                "a scope for a plan that offered nothing"
            );
            let frame = scope_frame(scope);
            self.report.digest_bytes += frame.len() as u64;
            self.report.shards_refined = refined;
            self.report.shards_proposed = proposed;
            self.report.shards_refused = scope.refused.as_ref().map_or(0, |r| r.len() as u64);
            out.extend_from_slice(&frame);
        }
        self.client = Some(client);
        self.contact = contact;
        self.phase = PullPhase::Exchanging;
        self.burst(out);
    }

    fn client(&mut self) -> &mut BatchPullClient {
        self.client.as_deref_mut().expect("the exchange has begun")
    }

    /// Prices one frame: byte planes, the frame event, and the §3.1
    /// round-trip rule — one trip for the batched comparison, one more
    /// iff any stream asks for a state transfer.
    fn tally(&mut self, framed: &Framed<MuxMsg>, from_client: bool) {
        let bytes = self.report.account(framed);
        obs_emit!(obs::SyncEvent::FrameTx {
            contact: self.contact,
            stream: framed.stream,
            client: from_client,
            compare: bytes.compare,
            meta: bytes.meta,
            framing: bytes.framing,
            payload: bytes.payload,
        });
        match framed.msg {
            MuxMsg::Ctrl(CtrlMsg::BatchHello { .. }) => self.report.round_trips += 1,
            MuxMsg::Session(SessionMsg::PayloadRequest) => self.payload_requested = true,
            _ => {}
        }
    }

    /// Drains everything the client has to say into `out` and appends
    /// the marker: FIN once the client is done, a turn otherwise.
    fn burst(&mut self, out: &mut BytesMut) {
        self.moved = false;
        while let Some(framed) = self.client().poll_send() {
            self.tally(&framed, true);
            framed.encode(out);
            self.moved = true;
        }
        let fin = self.client().is_done();
        if fin {
            // Completion is permanent: late frames for finished streams
            // are tolerated, never answered.
            self.phase = PullPhase::Draining;
        }
        put_marker(out, fin);
    }

    /// The planning state's step: prices and keeps the one plan frame,
    /// and leaves the state on the server's turn marker.
    fn on_planning_frame(&mut self, frame: wire::Frame, shards: u64) -> Result<()> {
        if frame.stream == TURN_STREAM {
            if marker_fin(&frame)? || self.plan.is_none() {
                // The server FIN'd, or passed the turn empty-handed.
                return Err(Error::Incomplete {
                    protocol: "sync planner",
                });
            }
            self.phase = PullPhase::Planned;
            return Ok(());
        }
        if self.plan.is_some() || frame.stream != CONTROL_STREAM {
            return Err(planning_violation(format!(
                "unexpected frame on stream {}",
                frame.stream
            )));
        }
        self.report.digest_bytes +=
            wire::Frame::encoded_len(frame.stream, frame.payload.len()) as u64;
        let mut payload = frame.payload;
        let plan = ShardPlan::decode(&mut payload)?;
        if plan.count != shards {
            // Both restricted endpoints are cut at the plan's count:
            // any other than the digests' is a different shard map.
            return Err(planning_violation(format!(
                "plan at {} shards answers {shards} digests",
                plan.count
            )));
        }
        self.report.shards_total = plan.count;
        self.report.shards_skipped = plan.skipped();
        self.report.shards_incremental = plan.incremental.len() as u64;
        self.report.shards_snapshot = plan.snapshots.len() as u64;
        if self.first_on_link && !plan.proposed.is_empty() {
            // A server proposes from what it remembers of the link's
            // last contact; this link had none.
            return Err(planning_violation(
                "a proposal on a link with no previous contact".into(),
            ));
        }
        let refined = plan.children.as_ref().map_or(0, |c| c.parents.len());
        self.offered = (refined as u64, plan.proposed.len() as u64);
        self.plan = Some(plan);
        Ok(())
    }

    /// Advances the contact by one received frame, appending the next
    /// burst to `out` when the frame hands the turn back. Yields the
    /// report on the server's FIN.
    ///
    /// # Errors
    ///
    /// Decode errors and protocol violations — in the planning state
    /// anything but one plan frame (at the digest vector's shard count,
    /// on the control stream) followed by a turn marker;
    /// [`Error::Incomplete`] if a whole exchange moved no frame in
    /// either direction, or the server FINs while the client still
    /// expects traffic. Any error poisons the connection.
    pub fn on_frame(
        &mut self,
        frame: wire::Frame,
        out: &mut BytesMut,
    ) -> Result<Option<ContactReport>> {
        match self.phase {
            PullPhase::Planning { shards } => {
                return self.on_planning_frame(frame, shards).map(|()| None)
            }
            PullPhase::Planned | PullPhase::Finished => {
                return Err(violation("frame outside the exchange"));
            }
            PullPhase::Exchanging | PullPhase::Draining => {}
        }
        if frame.stream != TURN_STREAM {
            let framed = decode_frame_msg(frame)?;
            self.tally(&framed, false);
            self.moved = true;
            self.client().on_receive(framed)?;
            return Ok(None);
        }
        match (self.phase, marker_fin(&frame)?) {
            (PullPhase::Draining, true) => {
                self.phase = PullPhase::Finished;
                self.report.round_trips += u64::from(self.payload_requested);
                Ok(Some(self.report))
            }
            (PullPhase::Draining, false) => Ok(None),
            (_, true) => Err(STALLED),
            (_, false) if !self.moved => Err(STALLED),
            (_, false) => {
                self.burst(out);
                Ok(None)
            }
        }
    }
}

/// One turn of the blocking pump around [`Puller`]: flushes what the
/// machine wrote, then feeds it the next frame off `link`.
fn pump<L: FrameLink>(
    puller: &mut Puller<'_>,
    link: &mut L,
    out: &mut BytesMut,
) -> Result<Option<ContactReport>> {
    if !out.is_empty() {
        link.send_bytes(out)?;
        out.clear();
    }
    puller.on_frame(link.recv_frame()?, out)
}

/// Pumps the object exchange to its report, closing `scope` with it —
/// or, on any error, FINs the link and aborts the scope.
fn pump_exchange<L: FrameLink>(
    puller: &mut Puller<'_>,
    link: &mut L,
    out: &mut BytesMut,
    scope: obs::ContactScope,
) -> Result<ContactReport> {
    let mut exchange = || loop {
        if let Some(report) = pump(puller, link, out)? {
            return Ok(report);
        }
    };
    match exchange() {
        Ok(report) => {
            scope.close(report.round_trips, report.totals());
            Ok(report)
        }
        Err(e) => {
            link.fin();
            scope.abort(reason_label(&e));
            Err(e)
        }
    }
}

/// Drives the pulling half of one unplanned contact over `link` — the
/// blocking pump around [`Puller`]; every transport is a [`FrameLink`]
/// handed to it. The far half is
/// [`serve_contact`](super::serve_contact) /
/// [`serve_from`](super::serve_from), or a daemon's reactor feeding
/// [`Serving`](super::Serving).
///
/// The link stays open on success: both endpoints finish at a clean
/// frame boundary (each has consumed the other's FIN *marker*), so the
/// next contact can be pipelined over the same connection with no
/// dial, handshake, or teardown. A caller done with the connection
/// calls [`FrameLink::fin`] itself.
///
/// # Errors
///
/// Any transport error ([`Error::ConnectionLost`] on a cut,
/// [`Error::Incomplete`] on a timeout or a starved exchange), decode
/// error, or protocol violation aborts the contact: the link is FIN'd
/// so the peer unblocks — a failed contact poisons the connection and
/// the caller must discard it — and a
/// [`obs::SyncEvent::SessionAborted`] is emitted for the whole contact
/// (stream 0). Staged state is abandoned by the caller, leaving replica
/// metadata untouched.
pub fn pull_contact<L: FrameLink>(
    client: &mut BatchPullClient,
    link: &mut L,
) -> Result<ContactReport> {
    let scope = obs::contact_scope(client.stream_count() as u64);
    let mut out = BytesMut::new();
    let mut puller = Puller::open(client, scope.id(), &mut out);
    pump_exchange(&mut puller, link, &mut out, scope)
}

/// The pulling endpoint of a planned contact, as [`pull_planned`]'s
/// caller builds it from the plan.
#[derive(Debug)]
pub struct Restricted {
    /// The client over the keys the contact will exchange.
    pub client: BatchPullClient,
    /// The children of the plan's refined shards that differ and the
    /// proposed shards refused, when the caller checked what the plan
    /// offered and cut `client` accordingly; `None` for a client over
    /// the whole incremental shards.
    pub scope: Option<ShardScope>,
}

impl From<BatchPullClient> for Restricted {
    /// A client over the plan's incremental shards, whole.
    fn from(client: BatchPullClient) -> Self {
        Restricted {
            client,
            scope: None,
        }
    }
}

/// Drives one *planned* pull over `link`, the digest/plan turn
/// included: sends `digests` — as a delta against what `remembered`
/// holds of the link's last contact, where that is shorter — takes the
/// server's [`ShardPlan`], asks
/// `endpoint` for the client restricted to it (a daemon takes its store
/// lock in there) — a [`Restricted`] cut at the plan's child digests
/// and proposals, or a plain [`BatchPullClient`] over the incremental
/// shards — and
/// runs the object exchange exactly as [`pull_contact`] does. Returns
/// the finished client, the plan, and the report with the planner
/// fields ([`ContactReport::digest_bytes`], `digests_sent`, `shards_*`)
/// filled in — what `KvStore::apply_planned_tracked` commits.
///
/// A plan that [proposes](crate::planner::Proposal) is an error on a
/// link of which `remembered` holds nothing: the far end has planned no
/// contact of this link to propose from.
///
/// `remembered` is the pulling end's [`VectorMemory`] of **this link**
/// and must live and die with it (`optrep_net::ConnPool` keeps it
/// beside the pooled socket; a one-shot link passes a fresh one). It is
/// emptied while the contact runs and holds `digests` once the contact
/// has completed, so a delta is never encoded against a vector whose
/// contact failed.
///
/// The obs contact scope opens when the exchange begins, with the
/// restricted client's stream count; the planning turn emits nothing.
///
/// # Errors
///
/// As [`pull_contact`]; a failure during the planning turn (no plan
/// before the turn comes back, more than one frame, a FIN, a plan at
/// the wrong shard count) FINs the link the same way, before any obs
/// scope exists.
pub fn pull_planned<L: FrameLink, E: Into<Restricted>>(
    link: &mut L,
    remembered: &mut VectorMemory,
    digests: &DigestVector,
    endpoint: impl FnOnce(&ShardPlan) -> E,
) -> Result<(BatchPullClient, ShardPlan, ContactReport)> {
    // Declared ahead of the machine that borrows it for the exchange.
    let mut client;
    let mut out = BytesMut::new();
    let base = std::mem::take(remembered);
    let mut puller = Puller::open_planned(digests, &base, &mut out);
    let plan = loop {
        if let Err(e) = pump(&mut puller, link, &mut out) {
            link.fin();
            return Err(e);
        }
        if let Some(plan) = puller.take_plan() {
            break plan;
        }
    };
    let restricted = endpoint(&plan).into();
    client = restricted.client;
    let scope = obs::contact_scope(client.stream_count() as u64);
    puller.exchange(&mut client, restricted.scope.as_ref(), scope.id(), &mut out);
    let report = pump_exchange(&mut puller, link, &mut out, scope)?;
    remembered.remember(digests);
    Ok((client, plan, report))
}

/// Drives one contact to completion in-process (zero-latency regime):
/// [`pull_contact`] over an [`InProcessLink`] to `server`.
///
/// # Errors
///
/// As [`pull_contact`].
pub fn run_contact(
    client: &mut BatchPullClient,
    server: &mut BatchPullServer,
) -> Result<ContactReport> {
    pull_contact(client, &mut InProcessLink::new(server))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::fixtures::{name, s, vec_with};
    use crate::protocol::{PullClient, PullServer};
    use bytes::Bytes;
    use optrep_core::{RotatingVector, Srv};

    #[test]
    fn all_clean_contact_takes_one_blocking_round_trip() {
        let n = 8;
        let vectors: Vec<Srv> = (0..n).map(|i| vec_with(&[i as u32, 7])).collect();
        let mut client = BatchPullClient::new(
            vectors
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i), v.clone())),
        );
        let mut server = BatchPullServer::new(
            vectors
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i), v.clone(), Bytes::from_static(b"state"))),
        );
        let report = run_contact(&mut client, &mut server).unwrap();
        assert_eq!(report.round_trips, 1, "only the BatchHello blocks");
        assert_eq!(report.payload_bytes, 0);
        let results = client.finish();
        assert_eq!(results.len(), n);
        for r in &results {
            let outcome = r.outcome.as_ref().unwrap();
            assert_eq!(outcome.relation, optrep_core::Causality::Equal);
            assert!(outcome.payload.is_none());
            assert_eq!(outcome.stats.elements_received, 0, "no elements flowed");
        }
    }

    #[test]
    fn dirty_stream_matches_single_object_path() {
        // One object diverged concurrently; its per-stream outcome must be
        // byte-for-byte what the dedicated single-object session produces.
        let base = vec_with(&[0, 1, 2, 3, 4, 5]);
        let mut theirs = base.clone();
        RotatingVector::record_update(&mut theirs, s(0));
        RotatingVector::record_update(&mut theirs, s(1));
        let mut ours = base.clone();
        RotatingVector::record_update(&mut ours, s(9));

        // Reference: the single-object path, in the same lockstep regime.
        let mut ref_client = PullClient::new(ours.clone());
        let mut ref_server = PullServer::new(theirs.clone(), Bytes::from_static(b"their state"));
        loop {
            while let Some(m) = ref_client.poll_send() {
                ref_server.on_receive(m).unwrap();
            }
            if let Some(m) = ref_server.poll_send() {
                ref_client.on_receive(m).unwrap();
            }
            if ref_client.is_done() && ref_server.is_done() {
                break;
            }
        }
        let reference = ref_client.finish();

        // Batched: the dirty object rides with seven clean ones.
        let clean: Vec<Srv> = (0..7).map(|i| vec_with(&[i as u32 + 20])).collect();
        let mut objects = vec![(name(0), ours)];
        objects.extend(
            clean
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i + 1), v.clone())),
        );
        let mut server_objects = vec![(name(0), theirs, Bytes::from_static(b"their state"))];
        server_objects.extend(
            clean
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i + 1), v.clone(), Bytes::from_static(b"clean"))),
        );
        let mut client = BatchPullClient::new(objects);
        let mut server = BatchPullServer::new(server_objects);
        run_contact(&mut client, &mut server).unwrap();
        let results = client.finish();
        let dirty = results.iter().find(|r| r.name == name(0)).unwrap();
        let outcome = dirty.outcome.as_ref().unwrap();

        assert_eq!(outcome.relation, reference.relation);
        assert_eq!(outcome.stats, reference.stats, "Δ/Γ/γ must match");
        assert_eq!(outcome.payload, reference.payload);
        assert_eq!(
            outcome.vector.to_version_vector(),
            reference.vector.to_version_vector()
        );
        for r in &results {
            if r.name != name(0) {
                let o = r.outcome.as_ref().unwrap();
                assert_eq!(o.relation, optrep_core::Causality::Equal);
            }
        }
    }
}
