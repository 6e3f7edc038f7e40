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
//!    which shards to sync incrementally, which to transfer as whole
//!    snapshots (blobs inline in the plan frame), and — implicitly —
//!    which to skip because the digests already matched.
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
//! turn is added; a plan that refines nothing, and a puller that sends
//! no scope, are byte for byte the contact described above.
//!
//! **The vector crosses a connection once.** Between two pulls over the
//! same persistent connection the puller's vector differs only in the
//! shards the last pull touched. Each end of a connection therefore
//! remembers the last vector that crossed it ([`VectorMemory`]), and the
//! puller opens every later contact with whichever of two frames is
//! shorter: the full [`DigestVector`], or a [`DigestDelta`] — the shards
//! that changed since, and a check over the vector they patch to. The
//! server reconstructs the full vector and plans from that; a delta it
//! cannot apply (nothing remembered, another shard count, a check
//! mismatch) is a decode error like any other, the connection dies, and
//! the redial opens with a full vector. The first contact on a
//! connection, and any contact whose vector changed everywhere, opens
//! with the full vector's frame.
//!
//! **The server proposes the scope.** The serving store keeps a bounded
//! journal of the keys it changed ([`JOURNAL_CAP`]), and the serving end
//! of a connection remembers the store's generation at the connection's
//! last plan. Where the journal reaches back that far, the server knows
//! which keys of a dirty shard *it* moved since the puller last pulled,
//! and says so in the plan frame instead of offering child digests: a
//! [`Proposal`] lists the candidates and carries the **residual** — the
//! shard's `(digest, entries)` without them. The puller subtracts its own
//! entries under the same candidates from its own shard summary; an
//! equal residual proves everything else in the shard identical, and
//! both endpoints keep only the candidates. Anything else (a local
//! write, a pull from a third site, a previous outcome thrown away) and
//! the puller *refuses* the shard in its [`ShardScope`] and the shard is
//! walked whole — same turn, same burst. The journal is a hint; the
//! digests are the proof.
//!
//! The planner frames reuse the mux control stream (tag space `0x35+`,
//! disjoint from [`CtrlMsg`](crate::mux::CtrlMsg)'s `0x31..=0x34`) and
//! the link layer's turn-marker discipline, so the phase pipelines over
//! pooled persistent connections exactly like the contacts themselves:
//! no extra dial, no extra socket round beyond the one planning turn.
//! A server that has never seen a planner frame (a puller that opens
//! with `BatchHello`) serves the classic unplanned full contact, so the
//! phase is strictly opt-in per contact.
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
//! invariants over the object exchange are untouched.
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

pub use decide::{decide, Decision, PlanConfig, ShardAction};
pub use digest::{nothing_to_pull, DigestDelta, DigestVector, ShardDigest, VectorMemory};
pub use plan::{ChildDigests, Proposal, ShardPlan};
pub use scope::{Candidates, Cut, Offer, ShardScope};

use crate::mux::CONTROL_STREAM;
use bytes::BytesMut;
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

/// Wire tag of a [`ShardPlan`] whose frame ends in a [`Proposal`] tail
/// (behind a children tail, or the byte that says there is none). As
/// with [`TAG_SHARD_PLAN_REFINED`], the tail is mandatory under the tag,
/// and a plan that proposes nothing carries no byte saying so.
const TAG_SHARD_PLAN_PROPOSED: u8 = 0x3a;

/// Hard cap on the shard count any peer may claim: bounds the
/// allocation a hostile digest vector or plan can force. Also the shard
/// count a [`Proposal`]'s candidates are expressed at: the finest map
/// the protocol admits, whatever the plan's own count.
pub const MAX_PLAN_SHARDS: u64 = 1 << 20;

/// Entries a store's change journal keeps before it evicts the oldest:
/// what bounds how far back a server can [propose](Proposal) from. An
/// entry is a `(generation, placement hash)` pair, so a store's journal
/// is one allocation of 16 B × 4096 = 64 KiB once it has been written
/// to, whatever the store holds — and a peer that pulls less often than
/// every 4096 changed keys is planned for from digests alone.
pub const JOURNAL_CAP: usize = 4096;

/// FNV-1a's 64-bit offset basis and prime: [`placement`] hashes key
/// bytes with them, [`DigestVector::check`] folds words.
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

/// One planner message as a control-stream frame (no marker).
fn control_frame(payload: &[u8]) -> BytesMut {
    let mut buf = BytesMut::new();
    wire::put_frame(&mut buf, CONTROL_STREAM, payload);
    buf
}

/// Encodes a [`DigestVector`] as a control-stream frame (no marker).
pub fn digest_vector_frame(digests: &DigestVector) -> BytesMut {
    control_frame(&digests.encode())
}

/// Encodes a [`ShardPlan`] as a control-stream frame (no marker).
pub fn plan_frame(plan: &ShardPlan) -> BytesMut {
    control_frame(&plan.encode())
}

/// Encodes a [`ShardScope`] as a control-stream frame (no marker).
pub fn scope_frame(scope: &ShardScope) -> BytesMut {
    control_frame(&scope.encode())
}
