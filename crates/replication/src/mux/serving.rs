//! The serving half of a connection: what it asks its source, the
//! state in front of [`serve_frame`] that decides which endpoint a
//! contact runs against, and the blocking pumps around both.

use super::msg::{marker_fin, planning_violation, put_marker, CONTROL_STREAM, TURN_STREAM};
use super::{serve_frame, BatchPullServer, ServeStep};
use crate::planner::{
    plan_frame, Cut, DigestVector, Offer, ShardPlan, ShardScope, VectorMemory, TAG_SHARD_DIGESTS,
    TAG_SHARD_DIGESTS_DELTA, TAG_SHARD_SCOPE,
};
use bytes::BytesMut;
use optrep_core::error::Result;
use optrep_core::wire;
use optrep_net::FrameLink;

/// The blocking pump around a serving step (`serve_frame` on one
/// endpoint, or a [`Serving`] with its source): one frame in, whatever
/// the step wrote out as one write, until the contact is done. On any
/// error the link is FIN'd so the peer unblocks.
fn serve_steps<L: FrameLink>(
    link: &mut L,
    mut step: impl FnMut(wire::Frame, &mut BytesMut) -> Result<ServeStep>,
) -> Result<()> {
    let mut out = BytesMut::new();
    let mut serve = || loop {
        let frame = link.recv_frame()?;
        out.clear();
        let step = step(frame, &mut out)?;
        if !out.is_empty() {
            link.send_bytes(&out)?;
        }
        if step == ServeStep::Done {
            return Ok(());
        }
    };
    serve().inspect_err(|_| link.fin())
}

/// Serves the far half of one [`pull_contact`](super::pull_contact)
/// from a fixed endpoint: a thin blocking pump around [`serve_frame`],
/// which holds the actual turn discipline. The link stays open on success, so a persistent
/// connection serves the next contact with a fresh [`BatchPullServer`].
///
/// The serving side opens **no** obs contact scope and emits no frame
/// events — the puller accounts both directions. A serving daemon's own
/// trace still carries the per-session element/skip events its
/// `PullServer`s emit.
///
/// # Errors
///
/// Transport and decode errors as [`pull_contact`](super::pull_contact);
/// [`Error::Incomplete`](optrep_core::Error::Incomplete) if the client
/// FINs while streams are still open. On any error the link is FIN'd so
/// the peer unblocks.
pub fn serve_contact<L: FrameLink>(server: &mut BatchPullServer, link: &mut L) -> Result<()> {
    serve_steps(link, |frame, out| serve_frame(server, frame, out))
}

/// Serves the far half of one contact — planned
/// ([`pull_planned`](super::pull_planned)) or not
/// ([`pull_contact`](super::pull_contact)), the puller's first frame
/// decides — with the plan and the endpoint taken from `source` as
/// [`Serving`] comes to need them: the same pump as [`serve_contact`]
/// around `serving`, the connection's [`Serving`]. Pass the same one for
/// every contact of a link (it remembers the
/// puller's last digest vector for the next), a fresh one for a
/// one-shot link.
///
/// # Errors
///
/// As [`serve_contact`], plus the planning turn's violations (see
/// [`Serving::on_frame`]).
pub fn serve_from<L: FrameLink>(
    serving: &mut Serving,
    source: &mut ContactSource<'_>,
    link: &mut L,
) -> Result<()> {
    serve_steps(link, |frame, out| serving.on_frame(frame, source, out))
}

/// What a [`Serving`] asks its source — twice for a planned contact,
/// at the two moments the protocol has, once for an unplanned one.
#[derive(Debug, Clone, Copy)]
pub enum ContactAsk<'a> {
    /// At the digest frame: the plan for a puller holding `digests`,
    /// and the source's generation at that plan. `since` is the
    /// generation this source answered with when the connection's
    /// previous contact was planned, if there was one — only ever a
    /// value the same source handed out over the same connection, so a
    /// source that does not propose may ignore it and answer any
    /// generation. Plan and generation are one view of the store.
    Plan {
        /// The puller's digest vector.
        digests: &'a DigestVector,
        /// The source's generation at the connection's previous plan.
        since: Option<u64>,
    },
    /// At the first frame of the puller's burst: the endpoint the
    /// exchange runs against — over the keys of a planned contact's
    /// [`Cut`], over everything (`None`) for a puller that sent no
    /// digest vector. Every vector is read with its value, under one
    /// view of the store; that view may be later than the plan's.
    Endpoint(Option<Cut<'a>>),
}

/// A source's answer to a [`ContactAsk`], variant for variant.
#[derive(Debug)]
pub enum ContactAnswer {
    /// The plan, and the store's generation when it was made.
    Plan(ShardPlan, u64),
    /// The endpoint. To a [`ContactAsk::Plan`] it says the source serves
    /// unplanned contacts only.
    Endpoint(BatchPullServer),
}

/// Where a [`Serving`] gets a contact's plan and endpoint
/// (`KvStore::open_contact` is a store's answer; a daemon takes its
/// store lock once per ask, inside the closure).
///
/// The two asks of a planned contact may see two views of the store.
/// What a source owes for that to be sound is in [`ContactAsk`]: plan
/// and generation from one view, every served vector read with its
/// value. Why it then is sound is argued once, at
/// `KvStore::open_contact`.
pub type ContactSource<'a> = dyn FnMut(ContactAsk<'_>) -> ContactAnswer + 'a;

/// What [`Serving`] keeps of a plan between handing it out and cutting
/// the endpoint: shard indices and candidate placements, no key, vector
/// or value.
#[derive(Debug)]
struct Planned {
    count: u64,
    incremental: Vec<u64>,
    /// What the plan offered to narrow. A scope leading the puller's
    /// burst is checked against it; anything else there forfeits the
    /// offer — so a contact takes at most one scope, and only ahead of
    /// its `BatchHello`.
    offer: Option<Offer>,
}

/// The serving half of a connection, one frame at a time: the state in
/// front of [`serve_frame`] that decides, at the *first frames of each
/// contact*, which endpoint the contact runs against — the mirror of
/// [`Puller`](super::Puller)'s planning state.
///
/// A [`DigestVector`] opens a planned contact: the source is asked for
/// the plan, the encoded plan is parked until the puller's turn marker
/// hands the link over, and of the plan only its incremental shards and
/// its [`Offer`] are kept. The first frame of the puller's burst then
/// fixes the [`Cut`] — if the plan offered child digests or proposed
/// scopes and the burst opens with a [`ShardScope`], the children it
/// lists and the candidates of the proposals it does not refuse; the
/// incremental shards whole otherwise — and only then is the source
/// asked for the endpoint, so what is built is what will be served. Any
/// other first frame asks the source for the full endpoint and is an
/// ordinary [`serve_frame`] step.
///
/// One `Serving` serves a persistent connection's contacts back to
/// back. Between them it holds no endpoint, but it does keep the last
/// digest vector the puller sent ([`VectorMemory`], 16 B × the shard
/// count the peer chose — at most 16 MiB at
/// [`MAX_PLAN_SHARDS`](crate::planner::MAX_PLAN_SHARDS)): the next
/// contact may open with a [`DigestDelta`](crate::planner::DigestDelta)
/// against it instead of the whole vector. Beside it sits `since`, one
/// `u64`: the source's generation at that contact's plan, which the
/// source gets back when the next contact is planned and may propose
/// from. It is a hint and needs no discipline
/// — a contact abandoned after the wire, or state the puller got
/// elsewhere, only makes proposals the puller refuses. Both memories are
/// the connection's — a new connection starts with a new `Serving`.
#[derive(Debug, Default)]
pub struct Serving {
    /// The open contact's endpoint, from the first frame of the puller's
    /// burst. Boxed: a batch server carries per-stream state and would
    /// otherwise dominate every idle connection's state.
    server: Option<Box<BatchPullServer>>,
    /// A planned contact's plan frame, until the puller passes the turn.
    parked: Option<BytesMut>,
    /// A planned contact's plan, from the digest frame until the first
    /// frame of the puller's burst.
    planned: Option<Planned>,
    /// The puller's vector as of the last contact it opened here; with
    /// `since`, what outlives [`ServeStep::Done`].
    remembered: VectorMemory,
    /// The source's generation when it planned that contact.
    since: Option<u64>,
}

impl Serving {
    /// Advances the connection by one received frame, appending any
    /// response bytes to `out`. `source` is asked at most once a call:
    /// for the plan at a digest frame, for the endpoint at the first
    /// frame of the puller's burst.
    ///
    /// # Errors
    ///
    /// As [`serve_frame`]; in the planning turn, a malformed digest
    /// vector, a delta that does not patch the remembered vector to
    /// the one its check describes (or finds none remembered), a
    /// source that cannot plan, and anything but a plain turn
    /// marker (a FIN, a second frame) after the digest vector; a scope
    /// that does not answer the plan's offer (and, as an undecodable
    /// frame, any scope where none is due). The caller must treat any
    /// error as poisoning the connection.
    pub fn on_frame(
        &mut self,
        frame: wire::Frame,
        source: &mut ContactSource<'_>,
        out: &mut BytesMut,
    ) -> Result<ServeStep> {
        if let Some(reply) = self.parked.take() {
            // Anything but a clean turn hand-off aborts the planned
            // contact before it starts.
            if frame.stream != TURN_STREAM || marker_fin(&frame)? {
                return Err(planning_violation(format!(
                    "stream {} frame in the planning turn",
                    frame.stream
                )));
            }
            out.extend_from_slice(&reply);
            put_marker(out, false);
            return Ok(ServeStep::Continue);
        }
        let on_control =
            |tag: u8| frame.stream == CONTROL_STREAM && frame.payload.first() == Some(&tag);
        let server = match &mut self.server {
            Some(server) => server,
            None => match self.planned.take() {
                Some(planned) => {
                    let scope = match &planned.offer {
                        Some(offer) if on_control(TAG_SHARD_SCOPE) => {
                            Some(ShardScope::decode(&mut frame.payload.clone(), offer)?)
                        }
                        _ => None,
                    };
                    let cut = Cut {
                        count: planned.count,
                        incremental: &planned.incremental,
                        narrowed: planned.offer.as_ref().zip(scope.as_ref()),
                    };
                    let server = self.server.insert(endpoint_from(source, Some(cut))?);
                    if scope.is_some() {
                        return Ok(ServeStep::Continue);
                    }
                    server
                }
                None if on_control(TAG_SHARD_DIGESTS) || on_control(TAG_SHARD_DIGESTS_DELTA) => {
                    let mut payload = frame.payload;
                    let digests = self.remembered.receive(&mut payload)?;
                    let since = self.since.take();
                    let ContactAnswer::Plan(plan, generation) =
                        source(ContactAsk::Plan { digests, since })
                    else {
                        return Err(planning_violation(
                            "this endpoint serves unplanned contacts only".into(),
                        ));
                    };
                    self.since = Some(generation);
                    self.parked = Some(plan_frame(&plan));
                    self.planned = Some(Planned {
                        count: plan.count,
                        offer: plan.offer(),
                        incremental: plan.incremental,
                    });
                    return Ok(ServeStep::Continue);
                }
                None => self.server.insert(endpoint_from(source, None)?),
            },
        };
        let step = serve_frame(server, frame, out)?;
        if step == ServeStep::Done {
            self.server = None;
        }
        Ok(step)
    }
}

/// Asks `source` for a contact's endpoint.
fn endpoint_from(
    source: &mut ContactSource<'_>,
    cut: Option<Cut<'_>>,
) -> Result<Box<BatchPullServer>> {
    match source(ContactAsk::Endpoint(cut)) {
        ContactAnswer::Endpoint(server) => Ok(Box::new(server)),
        ContactAnswer::Plan(..) => Err(planning_violation(
            "the source answered a plan where the endpoint was due".into(),
        )),
    }
}
