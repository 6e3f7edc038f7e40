//! The adaptive sync planner: a digest exchange that prices a contact
//! at O(dirty shards) instead of O(objects).
//!
//! A planned contact opens with one extra half-duplex turn on the
//! control stream, *before* the batched object exchange of
//! [`mux`](crate::mux):
//!
//! 1. The puller sends a [`DigestVector`] — one `(digest, entries)`
//!    pair per shard of its store, at its own shard count — followed by
//!    a turn marker.
//! 2. The server folds its own per-shard digests to the puller's shard
//!    count, [`decide()`]s per shard, and answers a single [`ShardPlan`]:
//!    which shards to sync incrementally, which to bulk-load whole
//!    (their records inline in the plan frame, one image in key order
//!    for all of them), and — implicitly — which to skip because the
//!    digests already matched.
//! 3. The ordinary batched contact follows, with **both** endpoints
//!    restricted to the plan's incremental shards. Clean shards cost
//!    zero object rounds; a second immediate pull of an unchanged store
//!    is two frames total, whatever the object count. Each end builds
//!    its endpoint only now, from the [`Cut`] the puller's answer to
//!    the plan leaves — the server at the first frame of the puller's
//!    burst — so neither materialises a key the contact will not open.
//!
//! **One more level.** A dirty shard with a few hundred entries still
//! pays the O(1) COMPARE for every clean neighbour of its one dirty
//! key. Where [`decide()`] prices it as worth the bytes, the plan frame
//! carries each such shard's **children** — the same `(digest,
//! entries)` pairs at `count · F` ([`ChildDigests`]) — and the puller,
//! having compared them with its own, puts one [`ShardScope`] frame
//! (the child indices that differ) in front of its `BatchHello`, in
//! the same burst. Both endpoints are then cut at the children. No
//! turn is added; a plan that refines nothing is answered with no scope
//! frame, and a puller that sends none walks the refined shards whole.
//!
//! **The vector crosses a connection once.** Between two pulls over the
//! same persistent connection the puller's vector differs only in the
//! shards the last pull touched. Each end of a connection therefore
//! remembers the last vector that crossed it ([`VectorMemory`]) — each
//! shard the contact served at what the puller's shard sums to once it
//! holds what it was served, which the server knows from what it served
//! and the puller reads off a commit that took the shard as served,
//! except where the exchange showed the puller holding something the
//! source lacks ([`kept_as_sent`]) — and the puller opens every later
//! contact with whichever of two
//! frames is shorter: the full [`DigestVector`], or a [`DigestDelta`] —
//! the shards that differ from what the connection remembers, and a
//! check over the vector they patch to. The server reconstructs the full
//! vector and plans from that; a delta it cannot apply (nothing
//! remembered, another shard count, a check mismatch) is a decode error
//! like any other, the connection dies, and the redial opens with a full
//! vector. The first contact on a connection, and any contact whose
//! vector changed everywhere, opens with the full vector's frame.
//!
//! **The server proposes the scope, and pushes it.** The serving store
//! keeps a bounded journal of the keys it changed and of what each
//! change did to its shard's digest ([`JOURNAL_CAP`]), and the serving
//! end of a connection remembers the store's generation at the
//! connection's last plan. Where the journal reaches back that far, the
//! server knows which keys of a dirty shard *it* moved since the puller
//! last pulled, and what the shard summarised to then: its digest now
//! less those changes. It **checks** that against the puller's digest
//! of the shard — in the vector it has just received — and only where
//! the two are equal, digest and entry count, does it propose the shard
//! instead of offering child digests. A proposal is binding, and it is
//! carried out at once: in the same burst as the plan, behind it, one
//! frame (tag `0x3b`) holds the image of every key its journal places in
//! the proposed shards ([`JOURNAL_PLACEMENTS`]) — in key order, each
//! key's vector and value, as a store's snapshots and log records list
//! their entries — with no hello to wait for. The puller's store reads
//! it entry by entry and runs each key's session as it reads it
//! ([`BatchPullClient::take_pushed`](crate::mux::BatchPullClient::take_pushed));
//! this layer carries the image as bytes. The push is the proposal: the
//! plan frame lists only the shards it walks or bulk-loads, a proposed
//! shard is the shard of a pushed key at the plan's count, and the
//! server proposes no shard it pushes nothing into — nor one whose keys
//! would take the image past [`MAX_PUSH`], which it walks instead. A
//! pushed key in a shard the plan lists is a violation. Equal,
//! the puller holds the shard as the server held it then, so every
//! entry the push leaves out is the same on both sides, and every entry
//! it carries is one the puller holds at a version the server has
//! since superseded (or not at all): the proof stands in for the
//! server's half of COMPARE. Anything else (a local write, a pull from
//! a third site, a previous outcome thrown away, a journal that lost or
//! misfiled a change) and the sum does not come out: the shard is
//! refined or walked like one with no hint. The journal is a hint; the
//! digests are the proof, and the one thing the check trusts is that
//! each change is filed under its own key's placement.
//!
//! The planner frames reuse the mux control stream (tag space `0x35+`,
//! disjoint from [`CtrlMsg`](crate::mux::CtrlMsg)'s `0x31..=0x34`) and
//! the link layer's turn-marker discipline, so the phase pipelines over
//! pooled persistent connections exactly like the contacts themselves:
//! no extra dial, no extra socket round beyond the one planning turn.
//! A [`Serving`](crate::mux::Serving) serves planned contacts only: one
//! that opens with anything but a digest vector — a bare `BatchHello`,
//! a scope — is refused. The unplanned contact runs against a fixed
//! endpoint ([`serve_contact`](crate::mux::serve_contact)), never
//! through a `Serving`.
//!
//! This module holds the frames and the policy: the tags, the
//! placement hash and the frame helpers here; `digest` the shard
//! summaries, their vector, its delta and each end's memory of it;
//! `plan` the server's answer and its codec; `scope` what a plan
//! offered, the puller's answer and the [`Cut`] both ends build from;
//! `decide` the per-shard policy and its pricing. *How the turn runs* is
//! the first state of the two contact machines:
//! [`Puller`](crate::mux::Puller)'s planning state and
//! [`Serving`](crate::mux::Serving), pumped by
//! [`pull_planned`](crate::mux::pull_planned).
//!
//! Planner traffic is accounted in
//! [`ContactReport::digest_bytes`](crate::mux::ContactReport) — not in
//! the four per-plane byte counters — so existing byte-conservation
//! invariants over the object exchange are untouched. The push is the
//! exchange's: priced in the four planes, at what its keys cost as
//! streams ([`classify_push`](crate::mux::classify_push)), once the
//! exchange begins.
//!
//! **Snapshot soundness.** A skip rotating vector has no merge: two
//! independently-updated `Srv`s for the same key cannot be joined
//! outside a contact outcome. A whole-shard snapshot therefore only
//! applies entries for keys the puller does **not** track; [`decide()`]
//! only picks [`ShardAction::Snapshot`] when the puller's shard is
//! empty (every entry lands as a create), and the staging decoder on
//! the pulling side skips any key that raced into existence locally —
//! such a shard simply stays dirty and reconciles incrementally on the
//! next contact.

mod decide;
mod digest;
mod plan;
mod scope;

pub use decide::{decide, Decision, Hint, PlanConfig, ShardAction};
pub use digest::{
    kept_as_sent, nothing_to_pull, DigestDelta, DigestVector, ShardDigest, VectorMemory,
};
pub use plan::{ChildDigests, ShardPlan};
pub use scope::{Cut, Offer, ShardScope};

use crate::mux::{CONTROL_STREAM, MARKER_LEN};
use bytes::{BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::wire;

/// Wire tag of a [`DigestVector`] (puller → server).
pub(crate) const TAG_SHARD_DIGESTS: u8 = 0x35;
/// Wire tag of a [`ShardPlan`] that refines nothing (server → puller).
const TAG_SHARD_PLAN: u8 = 0x36;
/// Wire tag of a [`ShardScope`] (puller → server).
pub(crate) const TAG_SHARD_SCOPE: u8 = 0x37;
/// Wire tag of a [`ShardPlan`] whose frame ends in a [`ChildDigests`]
/// tail. A tag of its own keeps the codec strict — the tail is
/// mandatory under it, so no prefix of a refined plan is a valid plan —
/// and a plan that refines nothing carries no byte saying so.
const TAG_SHARD_PLAN_REFINED: u8 = 0x38;
/// Wire tag of a [`DigestDelta`] (puller → server): a digest vector
/// expressed against the last one the connection carried.
pub(crate) const TAG_SHARD_DIGESTS_DELTA: u8 = 0x39;
/// Wire tag of a push (server → puller), the frame behind a plan that
/// carries the image of every record the plan pushes. Two tags are
/// retired and not reused: `0x30`, a push's while it was a frame of
/// names, and `0x3a`, a proposing plan's.
pub(crate) const TAG_PUSH: u8 = 0x3b;

/// The longest image a push carries: its frame's payload, the tag and
/// the image, stays within [`wire::DEFAULT_MAX_FRAME`], which a puller's
/// frame decoder refuses to exceed.
pub const MAX_PUSH: usize = wire::DEFAULT_MAX_FRAME - 1;

/// A strictly increasing list of shard indices on the wire: the first
/// as it is, every later one as the gap past its predecessor, less one
/// — so no encoding lists a shard out of order or twice, and a sparse
/// list at a large count costs a byte a shard.
#[derive(Debug, Default)]
struct Gaps {
    /// The least index the next one may be.
    next: u64,
}

impl Gaps {
    /// What `shard` is written as: the gap past the index before it.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not past the one before it.
    fn gap(&mut self, shard: u64) -> u64 {
        let gap = shard.checked_sub(self.next);
        self.next = shard + 1;
        gap.expect("shards strictly increasing")
    }

    /// Writes `shard`.
    ///
    /// # Panics
    ///
    /// As [`gap`](Self::gap).
    fn put(&mut self, buf: &mut BytesMut, shard: u64) {
        wire::put_varint(buf, self.gap(shard));
    }

    /// The bytes [`put`](Self::put) writes for each of `shards`, in all.
    ///
    /// # Panics
    ///
    /// As [`gap`](Self::gap).
    fn len(shards: impl IntoIterator<Item = u64>) -> usize {
        let mut gaps = Gaps::default();
        (shards.into_iter())
            .map(|shard| wire::varint_len(gaps.gap(shard)))
            .sum()
    }

    /// Reads the next index, rejecting one at or past `count`.
    fn get(&mut self, buf: &mut Bytes, count: u64) -> Result<u64, WireError> {
        let shard = (self.next.checked_add(wire::get_varint(buf)?))
            .filter(|&shard| shard < count)
            .ok_or(WireError::InvalidPayload)?;
        self.next = shard + 1;
        Ok(shard)
    }
}

/// Hard cap on the shard count any peer may claim: bounds the
/// allocation a hostile digest vector or plan can force.
pub const MAX_PLAN_SHARDS: u64 = 1 << 20;

/// The placements a change journal tells apart: a change is filed under
/// its key's placement hash masked this wide (31 bits), and a proposed
/// shard pushes each key whose placement, so masked, the journal lists
/// since the connection's last contact — the keys that changed, and of
/// 100 000 others about one in 20 000 that shares all 31 bits with one,
/// which the puller finds equal.
pub const JOURNAL_PLACEMENTS: u64 = 1 << 31;

/// Entries a store's change journal keeps before it evicts the oldest:
/// what bounds how far back a server can propose from. An entry is a
/// generation's low 32 bits, a placement masked at
/// [`JOURNAL_PLACEMENTS`] and what the change did to its shard's
/// digest, 16 bytes, so a store's journal is one allocation of 16 B ×
/// 4096 = 64 KiB once it has been written to, whatever the store holds
/// — and a peer that pulls less often than every 4096 changed keys is
/// planned for from digests alone.
pub const JOURNAL_CAP: usize = 4096;

/// FNV-1a's 64-bit offset basis and prime: [`placement`] hashes key
/// bytes with them, a byte a step. Every other hash of bytes is
/// `optrep_core::rng::fold`, a word a step.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The placement hash of a key: FNV-1a over its bytes. It is part of
/// the protocol, not a store detail: two digest vectors only compare
/// because both sides place a key by the same hash, and the children of
/// shard `s` at `count` shards are the shards `s + j·count` of the same
/// hash masked `F` times wider.
pub fn placement(key: &[u8]) -> u64 {
    key.iter().fold(FNV_OFFSET, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// A key's shard in a map of `count` shards (`count` a power of two).
/// Identical on every site and at every shard count that shares low
/// index bits — folding a 256-shard map to 16 shards is an index mask.
pub fn shard_of(key: &[u8], count: u64) -> u64 {
    placement(key) & (count - 1)
}

/// A planner message: its exact encoded length, and how it writes
/// itself. Every planner payload and frame is written once, by
/// [`payload`] or [`control_frame`], into a buffer of that length.
trait ControlMsg {
    /// The bytes [`put`](Self::put) writes.
    fn encoded_len(&self) -> usize;

    /// Writes the message.
    fn put(&self, buf: &mut BytesMut);
}

/// `msg`'s payload, in a buffer of its exact length.
fn payload(msg: &impl ControlMsg) -> Bytes {
    let len = msg.encoded_len();
    let mut buf = BytesMut::with_capacity(len);
    msg.put(&mut buf);
    debug_assert_eq!(
        buf.len(),
        len,
        "a planner message writes its encoded length"
    );
    buf.freeze()
}

/// `msg` as a control-stream frame (no marker), written once into a
/// buffer of the frame's exact length and room for the turn marker that
/// ends a burst behind it. A plan's image is copied once on its way to
/// the socket: here.
///
/// # Panics
///
/// Panics if `msg` writes other than its [`encoded_len`](ControlMsg::encoded_len).
fn control_frame(msg: &impl ControlMsg) -> BytesMut {
    control_frame_before(msg, MARKER_LEN)
}

/// [`control_frame`] in a buffer with room for `behind` more bytes.
fn control_frame_before(msg: &impl ControlMsg, behind: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity(frame_len(msg) + behind);
    put_control(&mut buf, msg);
    buf
}

/// The bytes of `msg`'s control-stream frame.
fn frame_len(msg: &impl ControlMsg) -> usize {
    wire::Frame::encoded_len(CONTROL_STREAM, msg.encoded_len())
}

/// Appends `msg` to `buf` as a control-stream frame.
///
/// # Panics
///
/// Panics if `msg` writes other than its [`encoded_len`](ControlMsg::encoded_len).
fn put_control(buf: &mut BytesMut, msg: &impl ControlMsg) {
    let (start, len) = (buf.len(), msg.encoded_len());
    wire::put_varint(buf, CONTROL_STREAM);
    wire::put_varint(buf, len as u64);
    msg.put(buf);
    assert_eq!(
        buf.len() - start,
        wire::Frame::encoded_len(CONTROL_STREAM, len),
        "a planner message writes its encoded length"
    );
}

/// A push: its tag, then the image of the pushed records, opaque here.
struct Push<'a>(&'a [u8]);

impl ControlMsg for Push<'_> {
    fn encoded_len(&self) -> usize {
        1 + self.0.len()
    }

    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(TAG_PUSH);
        buf.extend_from_slice(self.0);
    }
}

/// The bytes of the push frame of `image`; none for no image.
pub(crate) fn push_frame_len(image: &[u8]) -> usize {
    match image.is_empty() {
        true => 0,
        false => frame_len(&Push(image)),
    }
}

/// Appends the push frame of `image` to `buf`; nothing for no image.
pub(crate) fn put_push(buf: &mut BytesMut, image: &[u8]) {
    if !image.is_empty() {
        put_control(buf, &Push(image));
    }
}

/// Encodes a [`DigestVector`] as a control-stream frame (no marker).
pub fn digest_vector_frame(digests: &DigestVector) -> BytesMut {
    control_frame(digests)
}

/// Encodes a [`ShardPlan`] as a control-stream frame (no marker).
pub fn plan_frame(plan: &ShardPlan) -> BytesMut {
    control_frame(plan)
}

/// [`plan_frame`] in one buffer with room for `behind` more bytes: the
/// push and the marker a planning turn writes behind its plan.
pub(crate) fn plan_frame_before(plan: &ShardPlan, behind: usize) -> BytesMut {
    control_frame_before(plan, behind)
}

/// Encodes a [`ShardScope`] as a control-stream frame (no marker).
pub fn scope_frame(scope: &ShardScope) -> BytesMut {
    control_frame(scope)
}
