//! The serving half of a connection: what it asks its source, the
//! state in front of [`serve_frame`] that decides which endpoint a
//! contact runs against, and the blocking pumps around both.

use super::msg::{
    marker_fin, planning_violation, put_marker, CONTROL_STREAM, MARKER_LEN, TURN_STREAM,
};
use super::{serve_frame, BatchPullServer, ServeStep};
use crate::planner::{
    kept_as_sent, plan_frame_before, push_frame_len, put_push, ChildDigests, Cut, DigestVector,
    Offer, ShardDigest, ShardPlan, ShardScope, VectorMemory, MAX_PUSH, TAG_SHARD_DIGESTS,
    TAG_SHARD_DIGESTS_DELTA, TAG_SHARD_SCOPE,
};
use bytes::{Bytes, BytesMut};
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

/// Serves the far half of one planned contact
/// ([`pull_planned`](super::pull_planned)) with the plan and the
/// endpoint taken from `source` as [`Serving`] comes to need them: the
/// same pump as [`serve_contact`] around `serving`, the connection's
/// [`Serving`]. Pass the same one for every contact of a link (it
/// remembers the puller's last digest vector for the next).
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

/// What a [`Serving`] asks its source — twice a contact, at the two
/// moments the protocol has.
#[derive(Debug, Clone, Copy)]
pub enum ContactAsk<'a> {
    /// At the digest frame: the plan for a puller holding `digests`,
    /// the source's generation at that plan, and the push. `since` is the generation this source answered with when
    /// the connection's previous contact was planned, if there was one —
    /// only ever a value the same source handed out over the same
    /// connection, so a source that does not propose may ignore it and
    /// answer any generation. Plan, generation and push are one view of
    /// the store.
    Plan {
        /// The puller's digest vector.
        digests: &'a DigestVector,
        /// The source's generation at the connection's previous plan.
        since: Option<u64>,
    },
    /// At the first frame of the puller's burst, where the plan walks a
    /// shard: the endpoint the exchange runs against, over the keys of
    /// the contact's [`Cut`]. Every vector is read with its value, under
    /// one view of the store; that view may be later than the plan's. A
    /// plan that walks nothing — every dirty shard proposed, or none
    /// dirty — asks nothing more.
    Endpoint(Cut<'a>),
}

/// A source's answer to a [`ContactAsk`], variant for variant.
#[derive(Debug)]
pub enum ContactAnswer {
    /// The plan, the store's generation when it was made, the store's
    /// digest of each shard the plan serves at that view — each it
    /// bulk-loads, then each it proposes, in the plan's order: what the
    /// puller's shard sums to once the image, or the push, is in — and
    /// the push: the image of every key the proposed shards changed
    /// since `since`, in key order, with its vector and its value, of at
    /// most [`MAX_PUSH`](crate::planner::MAX_PUSH) bytes, which crosses
    /// behind the plan as one frame; empty for a plan that proposes
    /// nothing. It is carried as it is, unread.
    Plan(ShardPlan, u64, Vec<ShardDigest>, Bytes),
    /// The endpoint, and what the records it serves sum to in each of
    /// the cut's incremental shards, in the cut's order. The plan's
    /// summary of what the contact leaves out of a shard — a refined
    /// shard's unlisted children, a proposal's residual —
    /// completes it to the shard's *as-served* digest: what the
    /// puller's shard sums to once it holds exactly what it was served.
    /// To a [`ContactAsk::Plan`] it is a planning violation.
    Endpoint(BatchPullServer, Vec<ShardDigest>),
}

/// Where a [`Serving`] gets a contact's plan and endpoint
/// (`KvStore::open_contact` is a store's answer; a daemon takes its
/// store lock once per ask, inside the closure).
///
/// The two asks of a planned contact may see two views of the store.
/// What a source owes for that to be sound is in [`ContactAsk`]: plan,
/// generation and image digests from one view, every served vector read
/// with its value, and the served records' sums of the endpoint's view.
/// Why it then is sound is argued once, at `KvStore::open_contact`.
pub type ContactSource<'a> = dyn FnMut(ContactAsk<'_>) -> ContactAnswer + 'a;

/// What [`Serving`] keeps of a plan between handing it out and cutting
/// the endpoint: shard indices, the digests of refined shards' children
/// and of the shards the plan served whole at its own view — no key,
/// vector or value.
#[derive(Debug)]
struct Planned {
    count: u64,
    /// The plan's walked shards: its incremental ones less the proposed.
    walked: Vec<u64>,
    /// What the plan offered to narrow. A scope leading the puller's
    /// burst is checked against it; anything else there forfeits the
    /// offer — so a contact takes at most one scope, and only ahead of
    /// its `BatchHello`.
    offer: Option<Offer>,
    /// The plan's child digests: what a refined shard's children the
    /// puller does not list sum to.
    children: Option<ChildDigests>,
    /// The bulk-loaded and the proposed shards, each at its digest at
    /// the plan's view: what it holds once the image or the push is in.
    whole: Vec<(u64, ShardDigest)>,
}

impl Planned {
    /// Each shard the contact serves at its as-served digest, the
    /// puller having answered `scope` and the source `sums`: a
    /// bulk-loaded or proposed shard's digest at the plan's view, a
    /// walked shard's sum completed by the children the contact leaves
    /// out of it. Less the refined shards the contact keeps at what the
    /// puller sent ([`kept_as_sent`]); which others it keeps, only the
    /// exchange tells.
    fn as_served(&self, scope: Option<&ShardScope>, sums: Vec<ShardDigest>) -> Served {
        let walked = self.walked.iter().zip(sums).map(|(&shard, sum)| {
            let mut as_served = sum;
            as_served += self.outside(shard, scope);
            (shard, as_served)
        });
        let served = self.whole.iter().copied().chain(walked);
        let kept = kept_as_sent(self.count, self.children.as_ref().zip(scope), &[]);
        Served {
            count: self.count,
            shards: served
                .filter(|(shard, _)| kept.binary_search(shard).is_err())
                .collect(),
        }
    }

    /// The plan's summary of what a contact whose puller answered
    /// `scope` leaves out of walked `shard`: a refined shard's unlisted
    /// children, nothing of a shard walked whole.
    fn outside(&self, shard: u64, scope: Option<&ShardScope>) -> ShardDigest {
        let mut outside = ShardDigest::default();
        let refined = self
            .children
            .as_ref()
            .zip(scope)
            .and_then(|(children, scope)| {
                let parents = &children.parents;
                let slot = parents.binary_search_by_key(&shard, |p| p.0).ok()?;
                Some((&parents[slot].1, scope))
            });
        if let Some((children, scope)) = refined {
            for (j, child) in (0u64..).zip(children) {
                if scope
                    .children
                    .binary_search(&(shard + j * self.count))
                    .is_err()
                {
                    outside += *child;
                }
            }
        }
        outside
    }
}

/// What a contact serves, from the first frame of the puller's burst to
/// the end of the contact: each served shard at its as-served digest,
/// at the plan's shard count, but for those the plan and the scope
/// already keep at what the puller sent.
#[derive(Debug)]
struct Served {
    count: u64,
    shards: Vec<(u64, ShardDigest)>,
}

/// The serving half of a connection, one frame at a time: the state in
/// front of [`serve_frame`] that decides, at the *first frames of each
/// contact*, which endpoint the contact runs against — the mirror of
/// [`Puller`](super::Puller)'s planning state.
///
/// A [`DigestVector`] opens a planned contact: the source is asked for
/// the plan and its push, both are framed and parked until the puller's
/// turn marker hands the link over — the plan frame, then the push's —
/// and of the plan only its walked shards and its [`Offer`] are kept. The first frame of the
/// puller's burst then fixes the [`Cut`] — if the plan offered child
/// digests and the burst opens with a [`ShardScope`], each refined shard
/// to the children it lists; every other walked shard whole — and only
/// then is the source asked for the endpoint, so what is built is what
/// will be served. A plan that walks nothing asks nothing more: its
/// contact is the push, and the puller sends no `BatchHello`. Any other
/// first frame is a planning violation, and the source is not asked.
///
/// One `Serving` serves a persistent connection's contacts back to
/// back. Between them it holds no endpoint, but it does keep the last
/// digest vector the puller sent, each shard the contact served at its
/// as-served digest unless the contact kept it at what was sent
/// ([`VectorMemory`], 16 B × the shard count the peer chose — at most
/// 16 MiB at [`MAX_PLAN_SHARDS`](crate::planner::MAX_PLAN_SHARDS)): the
/// next contact may open with a
/// [`DigestDelta`](crate::planner::DigestDelta) against it instead of
/// the whole vector. The source names a bulk-loaded or proposed
/// shard's as-served digest with the plan, and what a walked shard's
/// served records sum to with the endpoint; the plan's summary of what
/// the contact left out completes the latter. The memory is updated once the
/// contact's last frame is served, so a contact that completes has
/// served what it remembers. Beside the vector sits `since`, one
/// `u64`: the source's generation at that contact's plan, which the
/// source gets back when the next contact is planned and may propose
/// from. It is a hint and needs no discipline
/// — a contact abandoned after the wire, or state the puller got
/// elsewhere, leaves the puller's digest of a shard other than what the
/// source's journal sums it back to, and the source does not propose
/// that shard. Both memories are the connection's — a new connection
/// starts with a new `Serving`.
#[derive(Debug, Default)]
pub struct Serving {
    /// The open contact's endpoint, from the first frame of the puller's
    /// burst. Boxed: a batch server carries per-stream state and would
    /// otherwise dominate every idle connection's state.
    server: Option<Box<BatchPullServer>>,
    /// A planned contact's burst — its plan frame, push and turn
    /// marker — until the puller passes the turn, when it moves into
    /// the output whole.
    parked: Option<BytesMut>,
    /// A planned contact's plan, from the digest frame until the first
    /// frame of the puller's burst. Boxed, as the endpoint is: an idle
    /// connection holds neither.
    planned: Option<Box<Planned>>,
    /// What the open contact serves, from the first frame of the
    /// puller's burst until it ends.
    served: Option<Served>,
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
    /// As [`serve_frame`]; a contact that does not open with a digest
    /// vector; in the planning turn, a malformed digest vector, a delta
    /// that does not patch the remembered vector to the one its check
    /// describes (or finds none remembered), a
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
            match out.is_empty() {
                true => *out = reply,
                false => out.extend_from_slice(&reply),
            }
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
                        walked: &planned.walked,
                        offer: planned.offer.as_ref(),
                        scope: scope.as_ref(),
                    };
                    let walks = !planned.walked.is_empty();
                    let (mut server, sums) = match walks {
                        true => endpoint_from(source, cut)?,
                        false => (Box::new(BatchPullServer::new(Vec::new())), Vec::new()),
                    };
                    if sums.len() != planned.walked.len() {
                        return Err(planning_violation(format!(
                            "the source summed {} shards of a cut of {} walked shards",
                            sums.len(),
                            planned.walked.len()
                        )));
                    }
                    if !walks {
                        server.open_without_hello();
                    }
                    self.served = Some(planned.as_served(scope.as_ref(), sums));
                    let server = self.server.insert(server);
                    if scope.is_some() {
                        return Ok(ServeStep::Continue);
                    }
                    server
                }
                None if on_control(TAG_SHARD_DIGESTS) || on_control(TAG_SHARD_DIGESTS_DELTA) => {
                    let mut payload = frame.payload;
                    let digests = self.remembered.receive(&mut payload)?;
                    let since = self.since.take();
                    let ContactAnswer::Plan(plan, generation, images, push) =
                        source(ContactAsk::Plan { digests, since })
                    else {
                        return Err(planning_violation(
                            "the source answered an endpoint where a plan was due".into(),
                        ));
                    };
                    let (bulk, proposed) = (plan.bulk.len(), plan.proposed.len());
                    if images.len() != bulk + proposed {
                        return Err(planning_violation(format!(
                            "the source digested {} shards of a plan that bulk-loads {bulk} \
                             and proposes {proposed}",
                            images.len()
                        )));
                    }
                    // The puller reads the proposed shards off the push,
                    // and its frame decoder refuses a frame past the cap.
                    if push.is_empty() != (proposed == 0) || push.len() > MAX_PUSH {
                        return Err(planning_violation(format!(
                            "the source proposed {proposed} shards and pushed {} bytes",
                            push.len()
                        )));
                    }
                    self.since = Some(generation);
                    // The plan and the push leave in one burst, once the
                    // puller passes the turn; each image is held only in
                    // its frame.
                    self.parked = Some(burst(&plan, &push));
                    let whole = plan.bulk.iter().chain(&plan.proposed).copied();
                    self.planned = Some(Box::new(Planned {
                        count: plan.count,
                        walked: plan.walked(),
                        offer: plan.offer(),
                        children: plan.children,
                        whole: whole.zip(images).collect(),
                    }));
                    return Ok(ServeStep::Continue);
                }
                None => {
                    return Err(planning_violation(
                        "a contact opens with a digest vector".into(),
                    ))
                }
            },
        };
        let step = serve_frame(server, frame, out)?;
        if step == ServeStep::Done {
            let server = self.server.take().expect("the contact's endpoint");
            let mut served = self.served.take().expect("a served contact was planned");
            let kept = kept_as_sent(served.count, None, server.source_behind());
            served
                .shards
                .retain(|(shard, _)| kept.binary_search(shard).is_err());
            self.remembered.serve(&served.shards);
        }
        Ok(step)
    }
}

/// A planning turn's burst: the plan's frame, the push's behind it and
/// the turn marker, written into one buffer of their exact size — sized
/// first, not grown by doubling.
fn burst(plan: &ShardPlan, push: &[u8]) -> BytesMut {
    let mut parked = plan_frame_before(plan, push_frame_len(push) + MARKER_LEN);
    put_push(&mut parked, push);
    put_marker(&mut parked, false);
    parked
}

/// Asks `source` for a contact's endpoint.
fn endpoint_from(
    source: &mut ContactSource<'_>,
    cut: Cut<'_>,
) -> Result<(Box<BatchPullServer>, Vec<ShardDigest>)> {
    match source(ContactAsk::Endpoint(cut)) {
        ContactAnswer::Endpoint(server, sums) => Ok((Box::new(server), sums)),
        ContactAnswer::Plan(..) => Err(planning_violation(
            "the source answered a plan where the endpoint was due".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_frame, TAG_PUSH};

    /// A planning turn's burst is the plan's frame, the push's and the
    /// marker, byte for byte, written into the one buffer reserved for
    /// them before the first is written: the buffer is never moved or
    /// grown, and it ends full. No push, and pushes of one byte to past
    /// a frame length's second varint byte.
    #[test]
    fn a_burst_is_written_into_one_buffer_of_its_size() {
        let plan = ShardPlan {
            count: 4,
            bulk: vec![1, 3],
            image: Some(Bytes::from(vec![7u8; 900])),
            ..ShardPlan::default()
        };
        for len in [0usize, 1, 126, 127, 20_000] {
            let push = vec![b'x'; len];
            let mut expected = plan_frame(&plan);
            if len > 0 {
                wire::put_varint(&mut expected, CONTROL_STREAM);
                wire::put_varint(&mut expected, 1 + len as u64);
                expected.extend_from_slice(&[TAG_PUSH]);
                expected.extend_from_slice(&push);
            }
            put_marker(&mut expected, false);
            let parked = burst(&plan, &push);
            assert_eq!(parked, expected, "a push of {len} bytes");
            assert_eq!(parked.len(), parked.capacity(), "a push of {len} bytes");
        }
    }
}
