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
//!    count, [`decide`]s per shard, and answers a single [`ShardPlan`]:
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
//! key. Where [`decide`] prices it as worth the bytes, the plan frame
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
//! server reconstructs the full vector and plans from it as before; a
//! delta it cannot apply (nothing remembered, another shard count, a
//! check mismatch) is a decode error like any other, the connection
//! dies, and the redial opens with a full vector. The first contact on
//! a connection, and any contact whose vector changed everywhere, is
//! byte for byte what it always was.
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
//! This module holds the frames and the policy ([`decide`]). *How
//! the turn runs* is the first state of the two contact machines:
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
//! applies entries for keys the puller does **not** track; [`decide`]
//! only picks [`ShardAction::Snapshot`] when the puller's shard is
//! empty (every entry lands as a create), and the staging decoder on
//! the pulling side skips any key that raced into existence locally —
//! such a shard simply stays dirty and reconciles incrementally on the
//! next contact.

use crate::mux::CONTROL_STREAM;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::wire;

/// Wire tag of a [`DigestVector`] (puller → server).
pub const TAG_SHARD_DIGESTS: u8 = 0x35;
/// Wire tag of a [`ShardPlan`] that refines nothing (server → puller).
pub const TAG_SHARD_PLAN: u8 = 0x36;
/// Wire tag of a [`ShardScope`] (puller → server).
pub const TAG_SHARD_SCOPE: u8 = 0x37;
/// Wire tag of a [`ShardPlan`] whose frame ends in a [`ChildDigests`]
/// tail. A tag of its own keeps the codec strict — the tail is
/// mandatory under it, so no prefix of a refined plan is a valid plan —
/// while an unrefined plan stays byte-identical to what it always was.
pub const TAG_SHARD_PLAN_REFINED: u8 = 0x38;
/// Wire tag of a [`DigestDelta`] (puller → server): a digest vector
/// expressed against the last one the connection carried.
pub const TAG_SHARD_DIGESTS_DELTA: u8 = 0x39;

/// Wire tag of a [`ShardPlan`] whose frame ends in a [`Proposal`] tail
/// (behind a children tail, or the byte that says there is none). As
/// with [`TAG_SHARD_PLAN_REFINED`], the tail is mandatory under the tag,
/// and every plan that proposes nothing encodes as it always did.
pub const TAG_SHARD_PLAN_PROPOSED: u8 = 0x3a;

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

/// One shard's summary in a [`DigestVector`]: an order-independent
/// content digest plus the tracked-entry count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardDigest {
    /// Wrapping sum of the shard's per-entry content hashes.
    pub digest: u64,
    /// Tracked entries (tombstones included) in the shard.
    pub entries: u64,
}

impl ShardDigest {
    /// A summary on the wire: the entry count as a varint, then the
    /// digest as 8 fixed big-endian bytes.
    fn put(&self, buf: &mut BytesMut) {
        wire::put_varint(buf, self.entries);
        buf.put_u64(self.digest);
    }

    fn get(buf: &mut Bytes) -> std::result::Result<ShardDigest, WireError> {
        let entries = wire::get_varint(buf)?;
        if buf.remaining() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        let digest = buf.get_u64();
        Ok(ShardDigest { digest, entries })
    }
}

/// FNV-1a's 64-bit offset basis and prime: [`placement`] hashes key
/// bytes with them, [`DigestVector::check`] folds words.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The puller's per-shard digests, at the puller's shard count (a
/// power of two; the server folds its own map to match).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestVector {
    /// One summary per shard, indexed by shard.
    pub shards: Vec<ShardDigest>,
}

impl DigestVector {
    /// Encodes the message (tag, shard count, then each shard's entry
    /// count as a varint and its digest as 8 fixed big-endian bytes).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(2 + self.shards.len() * 12);
        buf.put_u8(TAG_SHARD_DIGESTS);
        wire::put_varint(&mut buf, self.shards.len() as u64);
        for shard in &self.shards {
            shard.put(&mut buf);
        }
        buf.freeze()
    }

    /// Decodes a [`DigestVector`], rejecting truncation, trailing
    /// bytes, a zero or non-power-of-two shard count, and counts past
    /// [`MAX_PLAN_SHARDS`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(buf: &mut Bytes) -> std::result::Result<DigestVector, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        if buf.get_u8() != TAG_SHARD_DIGESTS {
            return Err(WireError::InvalidPayload);
        }
        let count = wire::get_varint(buf)?;
        if count == 0 || !count.is_power_of_two() || count > MAX_PLAN_SHARDS {
            return Err(WireError::InvalidPayload);
        }
        let mut shards = Vec::with_capacity(count as usize);
        for _ in 0..count {
            shards.push(ShardDigest::get(buf)?);
        }
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(DigestVector { shards })
    }

    /// An order-sensitive 8-byte check over the whole vector: what a
    /// [`DigestDelta`] carries so that the two ends of a connection
    /// find out, before anything is planned from it, that they no
    /// longer remember the same vector. Every step is a bijection of
    /// the running value, so two vectors that differ in one word never
    /// share a check.
    pub fn check(&self) -> u64 {
        self.shards.iter().fold(FNV_OFFSET, |hash, shard| {
            [shard.entries, shard.digest]
                .iter()
                .fold(hash, |hash, word| {
                    (hash ^ word).wrapping_mul(FNV_PRIME).rotate_left(29)
                })
        })
    }
}

/// A digest vector expressed against the last one that crossed the
/// same connection (the *base*): only the shards that differ.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestDelta {
    /// The shard count of both vectors.
    pub count: u64,
    /// `(shard, its new summary)`, shards strictly increasing.
    pub changed: Vec<(u64, ShardDigest)>,
    /// [`DigestVector::check`] of the vector the base patches to.
    pub check: u64,
}

impl DigestDelta {
    /// A changed shard on the wire: a gap and an entry count of a byte
    /// or more each, and 8 digest bytes.
    const MIN_CHANGED_BYTES: u64 = 10;

    /// What turns `base` into `next`; `None` when their shard counts
    /// differ (the store was resharded: there is nothing to patch).
    pub fn between(base: &DigestVector, next: &DigestVector) -> Option<DigestDelta> {
        (base.shards.len() == next.shards.len()).then(|| DigestDelta {
            count: next.shards.len() as u64,
            changed: (0u64..)
                .zip(base.shards.iter().zip(&next.shards))
                .filter(|(_, (old, new))| old != new)
                .map(|(shard, (_, new))| (shard, *new))
                .collect(),
            check: next.check(),
        })
    }

    /// Encodes the message: tag, shard count, the number of changed
    /// shards, each as its index (the first as it is, every later one
    /// as the gap past its predecessor, less one — so no encoding lists
    /// shards out of order or twice), entry count and 8 fixed digest
    /// bytes, then the check as 8 fixed bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(20 + self.changed.len() * 12);
        buf.put_u8(TAG_SHARD_DIGESTS_DELTA);
        wire::put_varint(&mut buf, self.count);
        wire::put_varint(&mut buf, self.changed.len() as u64);
        let mut next = 0;
        for (shard, summary) in &self.changed {
            wire::put_varint(&mut buf, shard - next);
            summary.put(&mut buf);
            next = shard + 1;
        }
        buf.put_u64(self.check);
        buf.freeze()
    }

    /// Decodes a [`DigestDelta`] against the vector it is to patch,
    /// rejecting truncation, trailing bytes, a shard count other than
    /// `base`'s, more changed shards than there are shards or than the
    /// payload can hold (both checked before anything is allocated),
    /// and indices at or past the count.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(buf: &mut Bytes, base: &DigestVector) -> std::result::Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        if buf.get_u8() != TAG_SHARD_DIGESTS_DELTA {
            return Err(WireError::InvalidPayload);
        }
        let count = wire::get_varint(buf)?;
        if count != base.shards.len() as u64 {
            return Err(WireError::InvalidPayload);
        }
        let n = wire::get_varint(buf)?;
        if n > count {
            return Err(WireError::InvalidPayload);
        }
        if n * Self::MIN_CHANGED_BYTES > buf.remaining() as u64 {
            return Err(WireError::UnexpectedEof);
        }
        let mut changed = Vec::with_capacity(n as usize);
        let mut next = 0u64;
        for _ in 0..n {
            let shard = next
                .checked_add(wire::get_varint(buf)?)
                .filter(|&shard| shard < count)
                .ok_or(WireError::InvalidPayload)?;
            changed.push((shard, ShardDigest::get(buf)?));
            next = shard + 1;
        }
        if buf.remaining() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        let check = buf.get_u64();
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(DigestDelta {
            count,
            changed,
            check,
        })
    }

    /// Overwrites the changed shards of `base` — the vector this delta
    /// was decoded against — and verifies the result.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidPayload`] when the patched vector does not
    /// have the delta's check: the sender's base was not this one.
    /// `base` is then neither vector and must be forgotten.
    pub fn patch(&self, base: &mut DigestVector) -> std::result::Result<(), WireError> {
        for &(shard, summary) in &self.changed {
            base.shards[shard as usize] = summary;
        }
        if base.check() != self.check {
            return Err(WireError::InvalidPayload);
        }
        Ok(())
    }
}

/// One end's memory of the last digest vector that crossed its
/// connection — what a [`DigestDelta`] is encoded against by the puller
/// and applied to by the server. It belongs to the connection and dies
/// with it: the pulling end keeps it beside the pooled link, the
/// serving end inside [`Serving`](crate::mux::Serving), and since any
/// failed contact costs both ends the connection, the two memories
/// never have to be reconciled — only checked
/// ([`DigestVector::check`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorMemory {
    last: Option<DigestVector>,
}

impl VectorMemory {
    /// Nothing is remembered: no contact has completed over this
    /// connection, so its serving end remembers nothing either.
    pub fn is_empty(&self) -> bool {
        self.last.is_none()
    }

    /// The pulling end: `next` as the control-stream frame that opens a
    /// contact (no marker), and how many shard digests that frame
    /// ships. The delta against the remembered vector is sent iff it is
    /// strictly shorter than the full vector — the two encoded lengths
    /// are the whole policy — so with nothing remembered, another shard
    /// count, or a vector that changed everywhere, the frame is
    /// [`digest_vector_frame`]'s.
    pub fn opening_frame(&self, next: &DigestVector) -> (BytesMut, u64) {
        let full = digest_vector_frame(next);
        let delta = self
            .last
            .as_ref()
            .and_then(|base| DigestDelta::between(base, next));
        if let Some(delta) = delta {
            let frame = control_frame(&delta.encode());
            if frame.len() < full.len() {
                return (frame, delta.changed.len() as u64);
            }
        }
        (full, next.shards.len() as u64)
    }

    /// The pulling end, once the contact `crossed` opened has
    /// completed: the next contact may be encoded against it.
    pub fn remember(&mut self, crossed: &DigestVector) {
        self.last = Some(crossed.clone());
    }

    /// The serving end: decodes the payload that opens a contact —
    /// a full vector, or a delta against the remembered one — into the
    /// puller's full vector, which is remembered in turn.
    ///
    /// # Errors
    ///
    /// As [`DigestVector::decode`] and [`DigestDelta::decode`]; a delta
    /// with nothing remembered, and one whose check fails
    /// ([`DigestDelta::patch`]). After any error nothing is remembered.
    pub fn receive(
        &mut self,
        payload: &mut Bytes,
    ) -> std::result::Result<&DigestVector, WireError> {
        let base = self.last.take();
        let crossed = if payload.first() == Some(&TAG_SHARD_DIGESTS_DELTA) {
            let mut base = base.ok_or(WireError::InvalidPayload)?;
            DigestDelta::decode(payload, &base)?.patch(&mut base)?;
            base
        } else {
            DigestVector::decode(payload)?
        };
        Ok(self.last.insert(crossed))
    }
}

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

/// `true` when a shard (or child) needs no object rounds: the server
/// holds nothing there, or the content is provably identical.
pub fn nothing_to_pull(ours: &ShardDigest, theirs: &ShardDigest) -> bool {
    theirs.entries == 0 || ours == theirs
}

/// The second level of a [`ShardPlan`]: the server's digests of the
/// children of some of the plan's incremental shards, at
/// `count · fanout`. Child `j` of shard `s` is index `s + j·count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildDigests {
    /// Children per refined shard `F`: a power of two, at least 2,
    /// with `count · F ≤` [`MAX_PLAN_SHARDS`].
    pub fanout: u64,
    /// `(shard, its F children in order of j)`, shards strictly
    /// increasing and each one of the plan's incremental shards.
    pub parents: Vec<(u64, Vec<ShardDigest>)>,
}

/// One shard whose scope the server proposes itself: the keys its
/// journal says it changed since the connection's last contact, and the
/// digest of the rest of the shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proposal {
    /// The shard, one of the plan's incremental ones.
    pub shard: u64,
    /// Where the changed keys live at [`MAX_PLAN_SHARDS`] — their
    /// placement hashes masked that wide, so each is `shard` in its low
    /// bits — strictly increasing, at least one. A candidate admits
    /// every key placed under it.
    pub candidates: Vec<u64>,
    /// The server's `(digest, entries)` of the shard *without* the
    /// entries under the candidates. A puller whose own shard, less its
    /// own entries under them, summarises to the same pair holds every
    /// other entry of the shard identically.
    pub residual: ShardDigest,
}

/// A proposal on the wire, in a plan at `1 << shift` shards: the shard,
/// the number of candidates, each candidate as what is left of it above
/// the shard's bits (the first as it is, every later one as the gap past
/// its predecessor, less one — no encoding lists candidates out of order
/// or twice), then the residual.
fn put_proposal(
    buf: &mut BytesMut,
    shard: u64,
    candidates: &[u64],
    residual: &ShardDigest,
    shift: u32,
) {
    wire::put_varint(buf, shard);
    wire::put_varint(buf, candidates.len() as u64);
    let mut next = 0;
    for candidate in candidates {
        let above = candidate >> shift;
        wire::put_varint(buf, above - next);
        next = above + 1;
    }
    residual.put(buf);
}

/// A shard and its candidates, as a [`Proposal`] lists them: what a
/// journal hints at before [`decide`] priced it, and what an [`Offer`]
/// keeps of a proposal.
pub type Candidates = (u64, Vec<u64>);

/// What a plan offered to narrow, without the digests: the part of a
/// [`ShardPlan`] a [`ShardScope`] is checked against and, with the
/// scope, what decides whether a key is still in the contact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offer {
    /// The plan's shard count.
    pub count: u64,
    /// Children per refined shard; 1 when the plan refined none.
    pub fanout: u64,
    /// The refined shards, strictly increasing.
    pub parents: Vec<u64>,
    /// The proposed shards with their candidates, shards strictly
    /// increasing and none of them refined.
    pub proposed: Vec<Candidates>,
}

impl Offer {
    /// Whether `key` — a key of one of the plan's incremental shards —
    /// stays in the contact once the puller answered `scope`: a key of
    /// a refined shard only if its child is listed, a key of a proposed
    /// shard the puller did not refuse only if it is placed under a
    /// candidate, every other key always. Both endpoints cut themselves
    /// with this one predicate, so they agree on the key set.
    pub fn admits(&self, scope: &ShardScope, key: &[u8]) -> bool {
        let hash = placement(key);
        let shard = hash & (self.count - 1);
        if self.parents.binary_search(&shard).is_ok() {
            return scope
                .children
                .binary_search(&(hash & (scope.count - 1)))
                .is_ok();
        }
        match self
            .proposed
            .binary_search_by_key(&shard, |(shard, _)| *shard)
        {
            Ok(slot) if !scope.refuses(shard) => self.proposed[slot]
                .1
                .binary_search(&(hash & (MAX_PLAN_SHARDS - 1)))
                .is_ok(),
            _ => true,
        }
    }
}

/// The keys a planned contact runs over: those of the plan's incremental
/// shards that the puller's answer to the plan's [`Offer`] left in it.
/// Each end builds its endpoint from one — filter, *then* materialise —
/// so neither decodes a vector or copies a value for a key the contact
/// will not open.
#[derive(Debug, Clone, Copy)]
pub struct Cut<'a> {
    /// The plan's shard count.
    pub count: u64,
    /// The plan's incremental shards.
    pub incremental: &'a [u64],
    /// What the plan offered and what the puller answered; `None` where
    /// the plan offered nothing or the puller ignored it, and the
    /// incremental shards are walked whole.
    pub narrowed: Option<(&'a Offer, &'a ShardScope)>,
}

impl Cut<'_> {
    /// Whether `key`, a key of one of the incremental shards, is in the
    /// contact ([`Offer::admits`]).
    pub fn admits(&self, key: &[u8]) -> bool {
        self.narrowed
            .is_none_or(|(offer, scope)| offer.admits(scope, key))
    }
}

/// The puller's answer to what a plan offered: which children of the
/// refined shards differ from its own, and which proposed shards it
/// refuses. Sent in front of the `BatchHello`, in the same burst; the
/// server narrows its endpoint to match ([`Offer::admits`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardScope {
    /// The shard count the indices are expressed at: the plan's
    /// `count · fanout` (the plan's own count when it refined nothing).
    pub count: u64,
    /// The children to sync, strictly increasing, each under a shard
    /// the plan refined.
    pub children: Vec<u64>,
    /// The proposed shards whose residual the puller could not match
    /// and walks whole, strictly increasing. `Some` exactly when the
    /// plan proposed anything: the list is a mandatory tail of the frame
    /// then, and absent from it otherwise — so the scope answering a
    /// plan without proposals is the frame it always was.
    pub refused: Option<Vec<u64>>,
}

impl ShardScope {
    /// Whether the puller refused the proposal for `shard`.
    pub fn refuses(&self, shard: u64) -> bool {
        self.refused
            .as_ref()
            .is_some_and(|refused| refused.binary_search(&shard).is_ok())
    }

    /// Encodes the message (tag, child shard count, the child indices,
    /// then — answering a plan that proposed — the refused shards).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + self.children.len() * 3);
        buf.put_u8(TAG_SHARD_SCOPE);
        wire::put_varint(&mut buf, self.count);
        for list in [Some(&self.children), self.refused.as_ref()]
            .into_iter()
            .flatten()
        {
            wire::put_varint(&mut buf, list.len() as u64);
            for &index in list {
                wire::put_varint(&mut buf, index);
            }
        }
        buf.freeze()
    }

    /// Decodes a [`ShardScope`] answering `offer`, rejecting
    /// truncation, trailing bytes, a shard count other than the one
    /// offered, more indices than were offered (checked before
    /// anything is allocated), indices out of order or out of range,
    /// children of a shard the plan did not refine, and — read if and
    /// only if the plan proposed — refusals of a shard it did not
    /// propose.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(buf: &mut Bytes, offer: &Offer) -> std::result::Result<ShardScope, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        if buf.get_u8() != TAG_SHARD_SCOPE {
            return Err(WireError::InvalidPayload);
        }
        let count = wire::get_varint(buf)?;
        if count != offer.count * offer.fanout {
            return Err(WireError::InvalidPayload);
        }
        // At most `offered` indices — each at least one byte, so the
        // payload bounds their number too — strictly increasing, every
        // one `admissible`.
        let list = |buf: &mut Bytes, offered: u64, admissible: &dyn Fn(u64) -> bool| {
            let n = wire::get_varint(buf)?;
            if n > offered || n > buf.remaining() as u64 {
                return Err(WireError::InvalidPayload);
            }
            let mut indices = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let index = wire::get_varint(buf)?;
                let in_order = indices.last().is_none_or(|&last| last < index);
                if !in_order || !admissible(index) {
                    return Err(WireError::InvalidPayload);
                }
                indices.push(index);
            }
            Ok(indices)
        };
        let refined = |shard| offer.parents.binary_search(&shard).is_ok();
        let children = list(buf, offer.parents.len() as u64 * offer.fanout, &|child| {
            child < count && refined(child & (offer.count - 1))
        })?;
        let refused = match offer.proposed.len() as u64 {
            0 => None,
            proposed => Some(list(buf, proposed, &|shard| {
                let proposals = &offer.proposed;
                proposals.binary_search_by_key(&shard, |p| p.0).is_ok()
            })?),
        };
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(ShardScope {
            count,
            children,
            refused,
        })
    }
}

/// The server's answer: how each of the puller's shards will be
/// brought up to date. Shards in neither list are skipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPlan {
    /// The shard count the plan (and the restricted endpoints on both
    /// sides) is expressed at — echoes the digest vector's (the puller
    /// rejects a plan at any other count).
    pub count: u64,
    /// Shards to sync incrementally over per-object streams.
    pub incremental: Vec<u64>,
    /// Shards to apply as whole snapshots: `(shard index, blob)` where
    /// the blob is the server's shard image
    /// (`KvStore::encode_shard_snapshot` format).
    pub snapshots: Vec<(u64, Bytes)>,
    /// The children of the incremental shards [`decide`] priced as
    /// worth narrowing; `None` when nothing is refined. A puller may
    /// ignore them: without a [`ShardScope`] the contact runs over the
    /// whole incremental shards.
    pub children: Option<ChildDigests>,
    /// The incremental shards whose scope the server proposes from its
    /// change journal, shards strictly increasing and none of them among
    /// the `children`; empty on a connection's first contact, and
    /// wherever the journal does not reach back to the last one. A
    /// puller may ignore these too.
    pub proposed: Vec<Proposal>,
}

impl ShardPlan {
    /// Shards skipped by this plan (digests matched, or nothing to
    /// pull).
    pub fn skipped(&self) -> u64 {
        self.count
            .saturating_sub(self.incremental.len() as u64)
            .saturating_sub(self.snapshots.len() as u64)
    }

    /// What the plan offers to narrow, if anything.
    pub fn offer(&self) -> Option<Offer> {
        if self.children.is_none() && self.proposed.is_empty() {
            return None;
        }
        let (fanout, parents) = match &self.children {
            Some(children) => (
                children.fanout,
                children.parents.iter().map(|(shard, _)| *shard).collect(),
            ),
            None => (1, Vec::new()),
        };
        let candidates = |p: &Proposal| (p.shard, p.candidates.clone());
        Some(Offer {
            count: self.count,
            fanout,
            parents,
            proposed: self.proposed.iter().map(candidates).collect(),
        })
    }

    /// Encodes the message. The children, when present, are a tail
    /// after the unrefined encoding, under their own tag; proposals,
    /// when present, a tail behind that — or behind a zero byte where
    /// there are no children — under a third.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(match (&self.children, self.proposed.is_empty()) {
            (_, false) => TAG_SHARD_PLAN_PROPOSED,
            (Some(_), true) => TAG_SHARD_PLAN_REFINED,
            (None, true) => TAG_SHARD_PLAN,
        });
        wire::put_varint(&mut buf, self.count);
        wire::put_varint(&mut buf, self.incremental.len() as u64);
        for &shard in &self.incremental {
            wire::put_varint(&mut buf, shard);
        }
        wire::put_varint(&mut buf, self.snapshots.len() as u64);
        for (shard, blob) in &self.snapshots {
            wire::put_varint(&mut buf, *shard);
            wire::put_bytes(&mut buf, blob);
        }
        if !self.proposed.is_empty() {
            buf.put_u8(u8::from(self.children.is_some()));
        }
        if let Some(children) = &self.children {
            wire::put_varint(&mut buf, u64::from(children.fanout.trailing_zeros()));
            wire::put_varint(&mut buf, children.parents.len() as u64);
            for (shard, digests) in &children.parents {
                wire::put_varint(&mut buf, *shard);
                for child in digests {
                    child.put(&mut buf);
                }
            }
        }
        if !self.proposed.is_empty() {
            wire::put_varint(&mut buf, self.proposed.len() as u64);
            let shift = self.count.trailing_zeros();
            for p in &self.proposed {
                put_proposal(&mut buf, p.shard, &p.candidates, &p.residual, shift);
            }
        }
        buf.freeze()
    }

    /// Decodes a [`ShardPlan`], rejecting truncation, trailing bytes,
    /// out-of-range or unsorted-duplicate shard indices, and shard
    /// counts that are zero, non-power-of-two, or past
    /// [`MAX_PLAN_SHARDS`]; under [`TAG_SHARD_PLAN_REFINED`] also a
    /// missing children tail, a fan-out below 2 or with `count · F`
    /// past [`MAX_PLAN_SHARDS`], and refined shards that are not a
    /// strictly increasing selection of the incremental ones; under
    /// [`TAG_SHARD_PLAN_PROPOSED`] a missing proposals tail, proposed
    /// shards that are not such a selection or that are also refined,
    /// and candidates that are none, out of order or past the shard's
    /// `MAX_PLAN_SHARDS ∕ count`. Every length is checked against what
    /// was already decoded, or against the bytes that are left, before
    /// it sizes an allocation.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed input.
    pub fn decode(buf: &mut Bytes) -> std::result::Result<ShardPlan, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let tag = buf.get_u8();
        if !matches!(
            tag,
            TAG_SHARD_PLAN | TAG_SHARD_PLAN_REFINED | TAG_SHARD_PLAN_PROPOSED
        ) {
            return Err(WireError::InvalidPayload);
        }
        let count = wire::get_varint(buf)?;
        if count == 0 || !count.is_power_of_two() || count > MAX_PLAN_SHARDS {
            return Err(WireError::InvalidPayload);
        }
        let read_index = |buf: &mut Bytes| -> std::result::Result<u64, WireError> {
            let shard = wire::get_varint(buf)?;
            if shard >= count {
                return Err(WireError::InvalidPayload);
            }
            Ok(shard)
        };
        let n = wire::get_varint(buf)?;
        if n > count {
            return Err(WireError::InvalidPayload);
        }
        let mut incremental = Vec::with_capacity(n as usize);
        for _ in 0..n {
            incremental.push(read_index(buf)?);
        }
        let n = wire::get_varint(buf)?;
        if n > count {
            return Err(WireError::InvalidPayload);
        }
        let mut snapshots = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let shard = read_index(buf)?;
            let blob = wire::get_bytes(buf)?;
            snapshots.push((shard, blob));
        }
        let proposing = tag == TAG_SHARD_PLAN_PROPOSED;
        let refined = if !proposing {
            tag == TAG_SHARD_PLAN_REFINED
        } else if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        } else {
            match buf.get_u8() {
                0 => false,
                1 => true,
                _ => return Err(WireError::InvalidPayload),
            }
        };
        let children = match refined {
            true => Some(Self::decode_children(buf, count, &incremental)?),
            false => None,
        };
        let proposed = match proposing {
            true => Self::decode_proposals(buf, count, &incremental, children.as_ref())?,
            false => Vec::new(),
        };
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(ShardPlan {
            count,
            incremental,
            snapshots,
            children,
            proposed,
        })
    }

    /// The children tail of a refined plan at `count` shards.
    fn decode_children(
        buf: &mut Bytes,
        count: u64,
        incremental: &[u64],
    ) -> std::result::Result<ChildDigests, WireError> {
        /// A child is a one-byte-or-more entry count and 8 digest bytes.
        const MIN_CHILD_BYTES: u64 = 9;
        let log2 = wire::get_varint(buf)?;
        if log2 == 0 || log2 > 20 || count << log2 > MAX_PLAN_SHARDS {
            return Err(WireError::InvalidPayload);
        }
        let fanout = 1u64 << log2;
        let n = wire::get_varint(buf)?;
        if n == 0 || n > incremental.len() as u64 {
            return Err(WireError::InvalidPayload);
        }
        let mut parents: Vec<(u64, Vec<ShardDigest>)> = Vec::with_capacity(n as usize);
        // Refined shards are a selection of the incremental ones in
        // their order, so one pass over the latter finds them all.
        let mut candidates = incremental.iter();
        for _ in 0..n {
            let shard = wire::get_varint(buf)?;
            let in_order = parents.last().is_none_or(|(last, _)| *last < shard);
            if !in_order || !candidates.any(|&listed| listed == shard) {
                return Err(WireError::InvalidPayload);
            }
            if (buf.remaining() as u64) < fanout * MIN_CHILD_BYTES {
                return Err(WireError::UnexpectedEof);
            }
            let mut digests = Vec::with_capacity(fanout as usize);
            for _ in 0..fanout {
                digests.push(ShardDigest::get(buf)?);
            }
            parents.push((shard, digests));
        }
        Ok(ChildDigests { fanout, parents })
    }

    /// The proposals tail of a plan at `count` shards whose refined
    /// shards are `children`'s.
    fn decode_proposals(
        buf: &mut Bytes,
        count: u64,
        incremental: &[u64],
        children: Option<&ChildDigests>,
    ) -> std::result::Result<Vec<Proposal>, WireError> {
        /// A shard, a count, one candidate and an entry count of a byte
        /// or more each, and 8 digest bytes.
        const MIN_PROPOSAL_BYTES: u64 = 12;
        let shift = count.trailing_zeros();
        let fanout = MAX_PLAN_SHARDS >> shift;
        let n = wire::get_varint(buf)?;
        if n == 0 || n > incremental.len() as u64 {
            return Err(WireError::InvalidPayload);
        }
        if n * MIN_PROPOSAL_BYTES > buf.remaining() as u64 {
            return Err(WireError::UnexpectedEof);
        }
        let refined = |shard: u64| {
            children.is_some_and(|c| c.parents.binary_search_by_key(&shard, |p| p.0).is_ok())
        };
        let mut proposed: Vec<Proposal> = Vec::with_capacity(n as usize);
        // As for the children: a selection of the incremental shards in
        // their order.
        let mut listed = incremental.iter();
        for _ in 0..n {
            let shard = wire::get_varint(buf)?;
            let in_order = proposed.last().is_none_or(|last| last.shard < shard);
            if !in_order || !listed.any(|&listed| listed == shard) || refined(shard) {
                return Err(WireError::InvalidPayload);
            }
            let m = wire::get_varint(buf)?;
            // A candidate is at least one byte.
            if m == 0 || m > fanout || m > buf.remaining() as u64 {
                return Err(WireError::InvalidPayload);
            }
            let mut candidates = Vec::with_capacity(m as usize);
            let mut next = 0u64;
            for _ in 0..m {
                let above = next
                    .checked_add(wire::get_varint(buf)?)
                    .filter(|&above| above < fanout)
                    .ok_or(WireError::InvalidPayload)?;
                candidates.push(shard | above << shift);
                next = above + 1;
            }
            proposed.push(Proposal {
                shard,
                candidates,
                residual: ShardDigest::get(buf)?,
            });
        }
        Ok(proposed)
    }
}

/// What the plan says to do with one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAction {
    /// Digests match (or the server has nothing): zero object rounds.
    Skip,
    /// Divergent: sync the shard's objects incrementally.
    Incremental,
    /// Far behind and safe to bulk-load: ship the whole shard image.
    Snapshot,
}

/// Planner policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanConfig {
    /// Estimated-divergence threshold at or above which a shard is
    /// transferred as a whole snapshot instead of incrementally. The
    /// divergence estimate saturates at `1.0` exactly when the puller's
    /// shard is empty — the only case a snapshot is sound (see the
    /// module docs) — so any threshold `<= 1.0` enables snapshot
    /// transfer for never-populated shards and a threshold `> 1.0`
    /// disables it entirely.
    pub snapshot_threshold: f64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            snapshot_threshold: 1.0,
        }
    }
}

/// What [`decide`] concluded about a digest exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// One action per shard.
    pub actions: Vec<ShardAction>,
    /// The incremental shards whose children are worth offering,
    /// increasing; empty when the pricing declines.
    pub refined: Vec<u64>,
    /// The fan-out every refined shard is offered at. Meaningful only
    /// when `refined` is not empty.
    pub fanout: u64,
    /// The incremental shards whose hinted candidates are worth
    /// proposing, increasing, none of them in `refined`.
    pub proposed: Vec<u64>,
}

/// COMPARE bytes one clean key costs a contact that walks its shard:
/// its first element in the `BatchHello` (3 B), the server's first
/// element and verdict flags (4 B), its slot in the `BatchDone` (1 B).
const COMPARE_BYTES_PER_KEY: f64 = 8.0;
/// Plan-frame bytes one offered child costs: an 8-byte digest and a
/// one-byte entry count.
const CHILD_BYTES: f64 = 9.0;
/// Plan-frame bytes one refined shard costs beside its children (its
/// index), and scope-frame bytes one listed child costs.
const INDEX_BYTES: f64 = 3.0;

/// Decides per shard, and prices one more level. `client` and `server`
/// are the two sides' digests at the same shard count (the client's);
/// the slices must be equal length. `hints` is what the server's change
/// journal says it changed since this connection's last contact — per
/// shard, increasing, the candidates a [`Proposal`] would list — and
/// empty where there was no such contact or the journal no longer
/// reaches it.
///
/// **The pricing.** Offering a shard's `F` children costs their bytes
/// in the plan frame; it saves the COMPARE bytes of every key in a
/// child that turns out clean. How many turn out clean depends on how
/// many keys of the shard are dirty, which no digest says — so it is
/// estimated from the one thing the exchange does show, the share `p`
/// of shards that differ: if dirty keys fall on shards independently,
/// a shard is hit by `λ = −ln(1 − p)` of them on average and a shard
/// that was hit holds `d = λ ∕ p`. Two choices keep the estimate on the
/// safe side: `p` is taken one standard error worse than observed,
/// `(dirty + √dirty) ∕ count` — so a few clean shards in a dirty map,
/// or a map too small to say anything, are never read as sparsity —
/// and each dirty key is charged a whole child (`d` of the `F` children
/// stay in the contact). A shard is offered iff
/// `8 B · entries · (1 − d∕F)  >  9 B · F + 3 B · (1 + d)`.
///
/// `F` is the power of two at or above `√(entries · 8 B ∕ 9 B)` for the
/// mean entry count of the incremental shards — the fan-out that
/// minimises `9F + 8·entries∕F`, children plus the one child still
/// walked when a single key is dirty (16 at 195 entries) — capped so
/// `count · F ≤` [`MAX_PLAN_SHARDS`].
///
/// **A hinted shard** needs no estimate: the proposal's bytes are what
/// its encoding takes (the residual's entry count taken as the shard's,
/// the most it can be), and the keys left in the contact are its
/// candidates. It is proposed iff that — `bytes + 8 B · candidates` — is
/// less than what the shard costs otherwise: `8 B · entries` walked
/// whole, or, where the children were judged worth offering, their
/// `9 B · F + 3 B · (1 + d) + 8 B · entries · d∕F`. One kind of shard is
/// never proposed: where the puller holds *more* entries than the
/// server, it holds keys the server has never seen, no candidate covers
/// them, and the residual could not match. A proposed shard is not
/// refined. With no hints the decision is the one described above,
/// unchanged.
///
/// # Panics
///
/// Panics if the slices differ in length (a caller bug — the server
/// folds to the client's count before deciding).
pub fn decide(
    client: &[ShardDigest],
    server: &[ShardDigest],
    hints: &[Candidates],
    config: &PlanConfig,
) -> Decision {
    assert_eq!(client.len(), server.len(), "digest vectors must align");
    let actions: Vec<ShardAction> = client
        .iter()
        .zip(server)
        .map(|(ours, theirs)| {
            if nothing_to_pull(ours, theirs) {
                return ShardAction::Skip;
            }
            // The only sound bulk transfer is into a never-populated
            // shard (divergence estimate 1.0); everything else must
            // run the per-object rotating-vector exchange.
            if ours.entries == 0 && config.snapshot_threshold <= 1.0 {
                return ShardAction::Snapshot;
            }
            ShardAction::Incremental
        })
        .collect();

    let mut decision = Decision {
        actions,
        refined: Vec::new(),
        fanout: 0,
        proposed: Vec::new(),
    };
    let count = client.len() as u64;
    // The keys a flat walk of shard `s` compares: the puller names its
    // own, the server offers what it holds beyond them.
    let walked = |shard: usize| client[shard].entries.max(server[shard].entries) as f64;
    let incremental: Vec<usize> = (0..client.len())
        .filter(|&shard| decision.actions[shard] == ShardAction::Incremental)
        .collect();
    let dirty = decision
        .actions
        .iter()
        .filter(|&&action| action != ShardAction::Skip)
        .count() as u64;
    let share = (dirty as f64 + (dirty as f64).sqrt()) / count as f64;
    // The children's fixed bytes and the share of a refined shard's
    // keys still walked, where the children pay.
    let mut children = (f64::INFINITY, 0.0);
    if !incremental.is_empty() && share < 1.0 {
        let per_dirty_shard = -(1.0 - share).ln() / share;
        let mean = incremental.iter().map(|&s| walked(s)).sum::<f64>() / incremental.len() as f64;
        let ideal = (mean * COMPARE_BYTES_PER_KEY / CHILD_BYTES).sqrt().ceil() as u64;
        let fanout = ideal.next_power_of_two().min(MAX_PLAN_SHARDS / count);
        if fanout >= 2 {
            let cost = CHILD_BYTES * fanout as f64 + INDEX_BYTES * (1.0 + per_dirty_shard);
            let clean_share = 1.0 - per_dirty_shard / fanout as f64;
            decision.refined = incremental
                .iter()
                .filter(|&&shard| COMPARE_BYTES_PER_KEY * walked(shard) * clean_share > cost)
                .map(|&shard| shard as u64)
                .collect();
            decision.fanout = fanout;
            children = (cost, 1.0 - clean_share);
        }
    }
    // A proposal at the finest map's own count would list whole shards.
    if count < MAX_PLAN_SHARDS {
        let mut scratch = BytesMut::new();
        for (shard, candidates) in hints {
            let at = *shard as usize;
            let incremental = decision.actions.get(at) == Some(&ShardAction::Incremental);
            if !incremental || client[at].entries > server[at].entries {
                continue;
            }
            scratch.clear();
            let shift = count.trailing_zeros();
            put_proposal(&mut scratch, *shard, candidates, &server[at], shift);
            let kept = COMPARE_BYTES_PER_KEY * candidates.len() as f64;
            let otherwise = match decision.refined.binary_search(shard) {
                Ok(_) => children.0 + COMPARE_BYTES_PER_KEY * walked(at) * children.1,
                Err(_) => COMPARE_BYTES_PER_KEY * walked(at),
            };
            if scratch.len() as f64 + kept < otherwise {
                decision.proposed.push(*shard);
            }
        }
        decision
            .refined
            .retain(|shard| decision.proposed.binary_search(shard).is_err());
    }
    decision
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

#[cfg(test)]
mod tests {
    use super::*;
    use optrep_core::rng::SplitMix64;

    fn sample_vector() -> DigestVector {
        DigestVector {
            shards: vec![
                ShardDigest {
                    digest: 0xdead_beef_0123_4567,
                    entries: 3,
                },
                ShardDigest {
                    digest: 0,
                    entries: 0,
                },
                ShardDigest {
                    digest: u64::MAX,
                    entries: 1 << 40,
                },
                ShardDigest {
                    digest: 42,
                    entries: 7,
                },
            ],
        }
    }

    fn sample_plan() -> ShardPlan {
        ShardPlan {
            count: 4,
            incremental: vec![0, 3],
            snapshots: vec![(2, Bytes::from_static(b"\x00blob"))],
            children: None,
            proposed: Vec::new(),
        }
    }

    #[test]
    fn digest_vector_roundtrip_and_prefixes() {
        let vector = sample_vector();
        let full = vector.encode();
        let mut buf = full.clone();
        assert_eq!(DigestVector::decode(&mut buf).unwrap(), vector);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(DigestVector::decode(&mut buf).is_err(), "cut {cut}");
        }
        let mut padded = BytesMut::new();
        padded.extend_from_slice(&full);
        padded.put_u8(0);
        let mut buf = padded.freeze();
        assert!(DigestVector::decode(&mut buf).is_err(), "trailing byte");
    }

    #[test]
    fn plan_roundtrip_and_prefixes() {
        let plan = sample_plan();
        let full = plan.encode();
        let mut buf = full.clone();
        assert_eq!(ShardPlan::decode(&mut buf).unwrap(), plan);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(ShardPlan::decode(&mut buf).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn hostile_counts_rejected() {
        // Non-power-of-two and oversized shard counts.
        for count in [0u64, 3, 6, MAX_PLAN_SHARDS * 2] {
            let mut buf = BytesMut::new();
            buf.put_u8(TAG_SHARD_DIGESTS);
            wire::put_varint(&mut buf, count);
            let mut bytes = buf.freeze();
            assert!(DigestVector::decode(&mut bytes).is_err(), "count {count}");
        }
        // A plan index out of range.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_PLAN);
        wire::put_varint(&mut buf, 4);
        wire::put_varint(&mut buf, 1);
        wire::put_varint(&mut buf, 4); // index == count
        wire::put_varint(&mut buf, 0);
        let mut bytes = buf.freeze();
        assert!(ShardPlan::decode(&mut bytes).is_err());
    }

    /// `sample_plan` with the children of shard 3 offered at F = 2.
    fn refined_plan() -> ShardPlan {
        let child = |digest, entries| ShardDigest { digest, entries };
        ShardPlan {
            children: Some(ChildDigests {
                fanout: 2,
                parents: vec![(3, vec![child(7, 1), child(u64::MAX, 300)])],
            }),
            ..sample_plan()
        }
    }

    /// A seeded refined plan and a scope answering it.
    fn random_refined(seed: u64) -> (ShardPlan, ShardScope) {
        let mut rng = SplitMix64::new(seed);
        let count = 1u64 << (rng.next_u64() % 7);
        let fanout = 2u64 << (rng.next_u64() % 4);
        let incremental: Vec<u64> = (0..count)
            .filter(|_| rng.next_u64() & 1 == 0)
            .chain([count - 1])
            .collect::<std::collections::BTreeSet<u64>>()
            .into_iter()
            .collect();
        let mut parents: Vec<(u64, Vec<ShardDigest>)> = incremental
            .iter()
            .filter(|_| rng.next_u64() & 1 == 0)
            .map(|&shard| (shard, Vec::new()))
            .collect();
        if parents.is_empty() {
            parents.push((incremental[0], Vec::new()));
        }
        let mut children = Vec::new();
        for (shard, digests) in &mut parents {
            for j in 0..fanout {
                digests.push(ShardDigest {
                    digest: rng.next_u64(),
                    entries: rng.next_u64() % 40_000,
                });
                if rng.next_u64() % 3 < 1 {
                    children.push(*shard + j * count);
                }
            }
        }
        children.sort_unstable();
        let plan = ShardPlan {
            count,
            incremental,
            snapshots: Vec::new(),
            children: Some(ChildDigests { fanout, parents }),
            proposed: Vec::new(),
        };
        let scope = ShardScope {
            count: count * fanout,
            children,
            refused: None,
        };
        (plan, scope)
    }

    /// A seeded plan that proposes — with children beside the
    /// proposals on even seeds, without on odd ones — and a scope
    /// answering it, refusals included.
    fn random_proposed(seed: u64) -> (ShardPlan, ShardScope) {
        let (mut plan, mut scope) = random_refined(seed);
        let mut rng = SplitMix64::new(seed ^ 0x0005_EED0_FA40_B000);
        let mut children = plan.children.take().expect("refined");
        // Proposed shards come out of the incremental ones; one that
        // was refined stops being so.
        let proposed: Vec<u64> = (plan.incremental.iter().copied())
            .filter(|_| rng.next_u64() % 3 < 1)
            .chain([plan.incremental[0]])
            .collect::<std::collections::BTreeSet<u64>>()
            .into_iter()
            .collect();
        children
            .parents
            .retain(|(shard, _)| proposed.binary_search(shard).is_err());
        let refined = |child: &u64| {
            let parents = &children.parents;
            parents
                .binary_search_by_key(&(child & (plan.count - 1)), |p| p.0)
                .is_ok()
        };
        scope.children.retain(refined);
        if seed & 1 == 0 && !children.parents.is_empty() {
            plan.children = Some(children);
        } else {
            scope.children.clear();
            scope.count = plan.count;
        }
        let fanout = MAX_PLAN_SHARDS / plan.count;
        for &shard in &proposed {
            let candidates: Vec<u64> = (0..1 + rng.next_u64() % 5)
                .map(|_| shard + (rng.next_u64() % fanout) * plan.count)
                .collect::<std::collections::BTreeSet<u64>>()
                .into_iter()
                .collect();
            plan.proposed.push(Proposal {
                shard,
                candidates,
                residual: ShardDigest {
                    digest: rng.next_u64(),
                    entries: rng.next_u64() % 40_000,
                },
            });
        }
        let refused = proposed.into_iter().filter(|_| rng.next_u64() % 4 < 1);
        scope.refused = Some(refused.collect());
        (plan, scope)
    }

    /// Round trip, every strict prefix refused, a trailing byte refused.
    fn assert_strict<T: PartialEq + std::fmt::Debug>(
        value: &T,
        full: Bytes,
        decode: impl Fn(&mut Bytes) -> std::result::Result<T, WireError>,
    ) {
        assert_eq!(&decode(&mut full.clone()).expect("round trip"), value);
        for cut in 0..full.len() {
            assert!(
                decode(&mut full.slice(0..cut)).is_err(),
                "cut {cut} of {value:?}"
            );
        }
        let mut padded = BytesMut::from(&full[..]);
        padded.put_u8(0);
        assert!(decode(&mut padded.freeze()).is_err(), "trailing byte");
    }

    #[test]
    fn proposing_plans_and_their_scopes_roundtrip_and_reject_every_prefix() {
        let (mut with_children, mut without) = (0, 0);
        for seed in 0..64 {
            let (plan, scope) = random_proposed(seed);
            match plan.children {
                Some(_) => with_children += 1,
                None => without += 1,
            }
            let full = plan.encode();
            assert_eq!(full[0], TAG_SHARD_PLAN_PROPOSED, "seed {seed}");
            assert_strict(&plan, full, ShardPlan::decode);
            let offer = plan.offer().expect("something to narrow");
            assert_eq!(offer.proposed.len(), plan.proposed.len());
            assert_strict(&scope, scope.encode(), |buf| {
                ShardScope::decode(buf, &offer)
            });
            // The refusals are a tail the offer demands: the frame
            // without them answers no plan that proposes, and the frame
            // with them none that does not.
            let tailless = ShardScope {
                refused: None,
                ..scope.clone()
            };
            assert!(ShardScope::decode(&mut tailless.encode(), &offer).is_err());
            let unproposing = Offer {
                proposed: Vec::new(),
                ..offer.clone()
            };
            assert!(ShardScope::decode(&mut scope.encode(), &unproposing).is_err());
        }
        assert!(with_children > 8 && without > 8, "both shapes exercised");
    }

    /// The body of a plan at 4 shards, incremental `[0, 1, 3]`, under
    /// the proposing tag, followed by `tail`.
    fn proposing_plan(tail: &[u8]) -> Bytes {
        let mut buf = BytesMut::from(&[TAG_SHARD_PLAN_PROPOSED, 4, 3, 0, 1, 3, 0][..]);
        buf.extend_from_slice(tail);
        buf.freeze()
    }

    #[test]
    fn hostile_proposals_rejected() {
        // One residual: an entry count of 5 and eight digest bytes.
        const R: [u8; 9] = [5, 0, 0, 0, 0, 0, 0, 0, 9];
        let tail = |parts: &[&[u8]]| proposing_plan(&parts.concat());
        // The honest shapes: no children, shard 1 with candidates at 0
        // and 2 above its bits; and shard 3 refined at F = 2 beside it.
        let plain = ShardPlan::decode(&mut tail(&[&[0, 1, 1, 2, 0, 1], &R])).expect("well-formed");
        assert_eq!(plain.proposed[0].candidates, [1, 1 + 2 * 4]);
        assert_eq!(plain.proposed[0].residual.entries, 5);
        let child = [1u8, 0, 0, 0, 0, 0, 0, 0, 7];
        let refined = [&[1u8, 1, 1, 3][..], &child, &child].concat();
        let both = ShardPlan::decode(&mut tail(&[&refined, &[1, 1, 1, 0], &R])).expect("both");
        assert_eq!(both.offer().expect("offer").parents, [3]);
        let hostile: [(&str, Bytes); 12] = [
            ("no tail under the proposing tag", tail(&[])),
            (
                "a children flag that is neither",
                tail(&[&[2, 1, 1, 1, 0], &R]),
            ),
            ("a children flag and no children", tail(&[&[1]])),
            ("no proposals", tail(&[&[0, 0]])),
            ("more proposals than incremental shards", tail(&[&[0, 4]])),
            ("a shard the plan skips", tail(&[&[0, 1, 2, 1, 0], &R])),
            ("a shard out of range", tail(&[&[0, 1, 4, 1, 0], &R])),
            ("no candidates", tail(&[&[0, 1, 1, 0], &R])),
            (
                "a shard both refined and proposed",
                tail(&[&refined, &[1, 3, 1, 0], &R]),
            ),
            ("no residual", tail(&[&[0, 1, 1, 1, 0]])),
            ("a short residual", tail(&[&[0, 1, 1, 1, 0], &R[..8]])),
            (
                "shards out of order",
                tail(&[&[0, 2, 3, 1, 0], &R, &[1, 1, 0], &R]),
            ),
        ];
        for (what, mut bytes) in hostile {
            assert!(ShardPlan::decode(&mut bytes).is_err(), "{what}");
        }
        // A shard listed twice, and a candidate past the shard's
        // 2^20 / 4 (the last admissible one decodes).
        let twice = tail(&[&[0, 2, 1, 1, 0], &R, &[1, 1, 0], &R]);
        assert!(ShardPlan::decode(&mut twice.clone()).is_err());
        let mut edge = BytesMut::from(&[0u8, 1, 1, 1][..]);
        wire::put_varint(&mut edge, (1 << 18) - 1);
        let last = ShardPlan::decode(&mut tail(&[&edge, &R])).expect("the last candidate");
        assert_eq!(last.proposed[0].candidates, [MAX_PLAN_SHARDS - 3]);
        let mut past = BytesMut::from(&[0u8, 1, 1, 1][..]);
        wire::put_varint(&mut past, 1 << 18);
        assert!(ShardPlan::decode(&mut tail(&[&past, &R])).is_err());
        // A second candidate whose gap overflows, or lands past the end.
        let mut wrapped = BytesMut::from(&[0u8, 1, 1, 2, 7][..]);
        wire::put_varint(&mut wrapped, u64::MAX);
        assert!(ShardPlan::decode(&mut tail(&[&wrapped, &R])).is_err());
        // Counts the payload cannot hold fail before anything is sized
        // by them: three proposals over a dozen bytes, and a quarter of
        // a million candidates over ten.
        assert_eq!(
            ShardPlan::decode(&mut tail(&[&[0, 3, 0, 1, 0], &R])),
            Err(WireError::UnexpectedEof)
        );
        let mut many = BytesMut::from(&[0u8, 1, 1][..]);
        wire::put_varint(&mut many, 1 << 18);
        assert_eq!(
            ShardPlan::decode(&mut tail(&[&many, &[0], &R])),
            Err(WireError::InvalidPayload)
        );
        // The proposals tail under either older tag is trailing bytes.
        for tag in [TAG_SHARD_PLAN, TAG_SHARD_PLAN_REFINED] {
            let mut relabelled = BytesMut::from(&plain.encode()[..]);
            relabelled[0] = tag;
            assert!(ShardPlan::decode(&mut relabelled.freeze()).is_err());
        }
    }

    #[test]
    fn hostile_refusals_rejected() {
        // Proposed: shards 1 and 3 of 4; refined: shard 2 at F = 4.
        let offer = Offer {
            count: 4,
            fanout: 4,
            parents: vec![2],
            proposed: vec![(1, vec![1]), (3, vec![3, 7])],
        };
        let scope = |children: &[u64], refused: &[u64]| {
            ShardScope {
                count: 16,
                children: children.to_vec(),
                refused: Some(refused.to_vec()),
            }
            .encode()
        };
        ShardScope::decode(&mut scope(&[2, 6], &[1, 3]), &offer).expect("well-formed");
        ShardScope::decode(&mut scope(&[], &[]), &offer).expect("all accepted");
        let hostile = [
            ("a shard that was not proposed", scope(&[], &[0])),
            ("a refined shard", scope(&[], &[2])),
            ("a child index where a shard is due", scope(&[], &[5])),
            ("out of order", scope(&[], &[3, 1])),
            ("listed twice", scope(&[], &[1, 1])),
            ("a child of a proposed shard", scope(&[1], &[])),
        ];
        for (what, mut bytes) in hostile {
            assert!(ShardScope::decode(&mut bytes, &offer).is_err(), "{what}");
        }
        // More refusals than proposals: refused on the count.
        let mut buf = BytesMut::from(&[TAG_SHARD_SCOPE, 16, 0, 3, 1, 3, 3][..]);
        assert!(ShardScope::decode(&mut buf.split().freeze(), &offer).is_err());
        // A plan that only proposes is answered at its own count, and
        // can list no children.
        let only = Offer {
            fanout: 1,
            parents: Vec::new(),
            ..offer
        };
        let answer = |count, children: Vec<u64>| ShardScope {
            count,
            children,
            refused: Some(vec![3]),
        };
        ShardScope::decode(&mut answer(4, Vec::new()).encode(), &only).expect("well-formed");
        assert!(ShardScope::decode(&mut answer(16, Vec::new()).encode(), &only).is_err());
        assert!(ShardScope::decode(&mut answer(4, vec![1]).encode(), &only).is_err());
    }

    #[test]
    fn an_offer_admits_proposed_shards_by_candidate_unless_refused() {
        let keys: Vec<String> = (0..400).map(|i| format!("key-{i}")).collect();
        let in_shard = |shard| {
            keys.iter()
                .filter(move |k| shard_of(k.as_bytes(), 4) == shard)
        };
        let fine = |key: &String| shard_of(key.as_bytes(), MAX_PLAN_SHARDS);
        let listed: Vec<u64> = {
            let mut two: Vec<u64> = in_shard(1).take(2).map(fine).collect();
            two.sort_unstable();
            two
        };
        let offer = Offer {
            count: 4,
            fanout: 1,
            parents: Vec::new(),
            proposed: vec![(1, listed.clone()), (2, vec![2])],
        };
        let accepted = ShardScope {
            count: 4,
            children: Vec::new(),
            refused: Some(vec![2]),
        };
        for key in in_shard(1) {
            assert_eq!(
                offer.admits(&accepted, key.as_bytes()),
                listed.contains(&fine(key))
            );
        }
        assert_eq!(
            in_shard(1)
                .filter(|k| offer.admits(&accepted, k.as_bytes()))
                .count(),
            2
        );
        // A refused shard is walked whole, like one never proposed.
        assert!(in_shard(2).all(|key| offer.admits(&accepted, key.as_bytes())));
        assert!(in_shard(3).all(|key| offer.admits(&accepted, key.as_bytes())));
        assert_eq!(listed[0] & 3, 1, "a candidate keeps its shard's low bits");
    }

    #[test]
    fn an_unrefined_plan_encodes_as_it_always_did() {
        assert_eq!(
            &sample_plan().encode()[..],
            b"\x36\x04\x02\x00\x03\x01\x02\x05\x00blob"
        );
        let refined = refined_plan().encode();
        assert_eq!(refined[0], TAG_SHARD_PLAN_REFINED);
        assert_eq!(refined[1..13], sample_plan().encode()[1..]);
    }

    #[test]
    fn refined_plans_roundtrip_and_reject_every_prefix() {
        let plans = (0..64)
            .map(|seed| random_refined(seed).0)
            .chain([refined_plan()]);
        for plan in plans {
            let full = plan.encode();
            let mut buf = full.clone();
            assert_eq!(ShardPlan::decode(&mut buf).unwrap(), plan);
            for cut in 0..full.len() {
                let mut buf = full.slice(0..cut);
                assert!(
                    ShardPlan::decode(&mut buf).is_err(),
                    "cut {cut} of {plan:?}"
                );
            }
            let mut padded = BytesMut::from(&full[..]);
            padded.put_u8(0);
            assert!(
                ShardPlan::decode(&mut padded.freeze()).is_err(),
                "trailing byte"
            );
        }
    }

    #[test]
    fn scopes_roundtrip_and_reject_every_prefix() {
        for seed in 0..64 {
            let (plan, scope) = random_refined(seed);
            let offer = plan.offer().unwrap();
            let full = scope.encode();
            let mut buf = full.clone();
            assert_eq!(ShardScope::decode(&mut buf, &offer).unwrap(), scope);
            for cut in 0..full.len() {
                let mut buf = full.slice(0..cut);
                assert!(
                    ShardScope::decode(&mut buf, &offer).is_err(),
                    "cut {cut} of {scope:?}"
                );
            }
            let mut padded = BytesMut::from(&full[..]);
            padded.put_u8(0);
            assert!(ShardScope::decode(&mut padded.freeze(), &offer).is_err());
        }
    }

    /// A seeded vector and the one that follows it over the same
    /// connection: anywhere from no shard to every shard changed.
    fn random_vector_pair(seed: u64) -> (DigestVector, DigestVector) {
        let mut rng = SplitMix64::new(seed);
        let count = 1usize << (rng.next_u64() % 10);
        let density = rng.next_u64() % 9;
        let summary = |rng: &mut SplitMix64| ShardDigest {
            digest: rng.next_u64(),
            entries: rng.next_u64() % 40_000,
        };
        let base: Vec<ShardDigest> = (0..count).map(|_| summary(&mut rng)).collect();
        let next = base
            .iter()
            .map(|old| match rng.next_u64() % 8 < density {
                true => summary(&mut rng),
                false => *old,
            })
            .collect();
        (DigestVector { shards: base }, DigestVector { shards: next })
    }

    #[test]
    fn deltas_roundtrip_patch_and_reject_every_prefix() {
        for seed in 0..64 {
            let (base, next) = random_vector_pair(seed);
            let delta = DigestDelta::between(&base, &next).expect("same count");
            let full = delta.encode();
            let mut buf = full.clone();
            assert_eq!(DigestDelta::decode(&mut buf, &base).unwrap(), delta);
            let mut patched = base.clone();
            delta.patch(&mut patched).expect("the check holds");
            assert_eq!(patched, next, "seed {seed}");
            for cut in 0..full.len() {
                let mut buf = full.slice(0..cut);
                assert!(
                    DigestDelta::decode(&mut buf, &base).is_err(),
                    "seed {seed}, cut {cut}"
                );
            }
            let mut padded = BytesMut::from(&full[..]);
            padded.put_u8(0);
            assert!(DigestDelta::decode(&mut padded.freeze(), &base).is_err());
            // Patched onto anything but its base, the check catches it.
            let untouched = (0..base.shards.len())
                .find(|&shard| delta.changed.iter().all(|c| c.0 != shard as u64));
            if let Some(shard) = untouched {
                let mut other = base.clone();
                other.shards[shard].digest ^= 1;
                assert!(delta.patch(&mut other).is_err(), "seed {seed}");
            }
        }
    }

    #[test]
    fn the_memories_stay_in_step_and_the_shorter_frame_is_sent() {
        for seed in 0..64 {
            let (first, second) = random_vector_pair(seed);
            let (mut puller, mut server) = (VectorMemory::default(), VectorMemory::default());
            for (round, vector) in [&first, &second, &second].into_iter().enumerate() {
                let full = digest_vector_frame(vector);
                let (frame, sent) = puller.opening_frame(vector);
                assert!(frame.len() <= full.len(), "seed {seed}");
                if round == 0 {
                    assert_eq!(frame, full, "nothing remembered: today's bytes");
                    assert_eq!(sent, vector.shards.len() as u64);
                }
                let mut wire = frame.freeze();
                let mut payload = wire::get_frame(&mut wire).unwrap().payload;
                assert_eq!(server.receive(&mut payload).unwrap(), vector, "seed {seed}");
                puller.remember(vector);
            }
            // An unchanged vector is the minimal frame: header, tag,
            // count, zero changes, check.
            let (frame, sent) = puller.opening_frame(&second);
            let count_bytes = if second.shards.len() < 128 { 1 } else { 2 };
            if second.shards.len() > 1 {
                assert_eq!((frame.len(), sent), (2 + 1 + count_bytes + 1 + 8, 0));
            }
        }
    }

    #[test]
    fn an_all_dirty_vector_and_a_resharded_one_cross_in_full() {
        let (base, _) = random_vector_pair(7);
        let mut memory = VectorMemory::default();
        memory.remember(&base);
        let mut all = base.clone();
        for shard in &mut all.shards {
            shard.digest ^= 1;
        }
        assert_eq!(memory.opening_frame(&all).0, digest_vector_frame(&all));
        let mut wider = base.clone();
        wider.shards.extend(base.shards.iter().copied());
        assert!(DigestDelta::between(&base, &wider).is_none());
        assert_eq!(memory.opening_frame(&wider).0, digest_vector_frame(&wider));
        // One clean shard in a few hundred is not worth a delta either:
        // the indices cost more than the one digest saved... until
        // enough shards are clean to pay for the check.
        let mut most = all.clone();
        most.shards[0] = base.shards[0];
        assert_eq!(memory.opening_frame(&most).0, digest_vector_frame(&most));
    }

    #[test]
    fn hostile_deltas_rejected() {
        let base = sample_vector();
        // `n` changed shards claimed, one listed per gap, each with one
        // entry and digest 9.
        let delta = |count: u64, n: u64, gaps: &[u64], check: bool| {
            let mut buf = BytesMut::new();
            buf.put_u8(TAG_SHARD_DIGESTS_DELTA);
            wire::put_varint(&mut buf, count);
            wire::put_varint(&mut buf, n);
            for &gap in gaps {
                wire::put_varint(&mut buf, gap);
                wire::put_varint(&mut buf, 1);
                buf.put_u64(9);
            }
            if check {
                buf.put_u64(0);
            }
            buf.freeze()
        };
        // Well-formed: shards 1 and 3 of 4. (Its check is wrong, which
        // is `patch`'s business.)
        let decoded = DigestDelta::decode(&mut delta(4, 2, &[1, 1], true), &base).unwrap();
        let listed: Vec<u64> = decoded.changed.iter().map(|c| c.0).collect();
        assert_eq!(listed, [1, 3]);
        assert!(decoded.patch(&mut base.clone()).is_err());
        let hostile = [
            ("another shard count", delta(8, 0, &[], true)),
            ("more changes than shards", delta(4, 5, &[0; 5], true)),
            ("fewer listed than claimed", delta(4, 3, &[0, 0], true)),
            ("a fifth shard of four", delta(4, 4, &[0, 0, 0, 1], true)),
            ("an index that overflows", delta(4, 2, &[1, u64::MAX], true)),
            ("no check", delta(4, 1, &[0], false)),
        ];
        for (what, mut bytes) in hostile {
            assert!(DigestDelta::decode(&mut bytes, &base).is_err(), "{what}");
        }
        // A count of changes the payload cannot hold fails on the
        // length check, before anything is allocated.
        let big = DigestVector {
            shards: vec![ShardDigest::default(); 1 << 16],
        };
        assert_eq!(
            DigestDelta::decode(&mut delta(1 << 16, 1 << 16, &[0; 3], true), &big),
            Err(WireError::UnexpectedEof)
        );
        // Nothing remembered: a delta is refused and a full vector
        // accepted; a failed delta forgets what was remembered.
        let mut memory = VectorMemory::default();
        let unchanged = DigestDelta::between(&base, &base).unwrap().encode();
        assert!(memory.receive(&mut unchanged.clone()).is_err());
        assert_eq!(memory.receive(&mut base.encode()).unwrap(), &base);
        assert_eq!(memory.receive(&mut unchanged.clone()).unwrap(), &base);
        assert!(memory.receive(&mut delta(4, 2, &[1, 1], true)).is_err());
        assert!(memory.receive(&mut unchanged.clone()).is_err());
    }

    /// The body of a refined plan at 4 shards, incremental `[0, 3]`,
    /// with `tail` for its children.
    fn plan_with_tail(tail: &[u64], digests: usize) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_PLAN_REFINED);
        for v in [4, 2, 0, 3, 0] {
            wire::put_varint(&mut buf, v);
        }
        for &v in tail {
            wire::put_varint(&mut buf, v);
        }
        for _ in 0..digests {
            buf.put_u8(1);
            buf.put_u64(9);
        }
        buf.freeze()
    }

    #[test]
    fn hostile_children_rejected() {
        // The honest shape first: F = 2, one parent, two children.
        ShardPlan::decode(&mut plan_with_tail(&[1, 1, 3], 2)).expect("well-formed");
        let hostile: [(&str, &[u64], usize); 9] = [
            ("no tail under the refined tag", &[], 0),
            ("a fan-out of one", &[0, 1, 3], 1),
            ("count * F past the cap", &[19, 1, 3], 0),
            ("a shift that would overflow", &[64, 1, 3], 0),
            ("no parents", &[1, 0], 0),
            ("more parents than incremental shards", &[1, 3, 0], 2),
            ("a parent the plan skips", &[1, 1, 1], 2),
            ("a parent out of range", &[1, 1, 4], 2),
            ("fewer digests than the fan-out", &[1, 1, 3], 1),
        ];
        for (what, tail, digests) in hostile {
            assert!(
                ShardPlan::decode(&mut plan_with_tail(tail, digests)).is_err(),
                "{what}"
            );
        }
        // Parents out of order, and one listed twice.
        for parents in [[3u64, 0], [3, 3]] {
            let mut buf = BytesMut::from(&plan_with_tail(&[1, 2, parents[0]], 2)[..]);
            wire::put_varint(&mut buf, parents[1]);
            for _ in 0..2 {
                buf.put_u8(1);
                buf.put_u64(9);
            }
            assert!(ShardPlan::decode(&mut buf.freeze()).is_err(), "{parents:?}");
        }
        // A huge fan-out over a short payload fails on the length
        // check, before the digests are allocated.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_PLAN_REFINED);
        for v in [1, 1, 0, 0, 20, 1, 0] {
            wire::put_varint(&mut buf, v);
        }
        assert_eq!(
            ShardPlan::decode(&mut buf.freeze()),
            Err(WireError::UnexpectedEof)
        );
        // The children tail under the unrefined tag is trailing bytes.
        let mut relabelled = BytesMut::from(&refined_plan().encode()[..]);
        relabelled[0] = TAG_SHARD_PLAN;
        assert!(ShardPlan::decode(&mut relabelled.freeze()).is_err());
    }

    #[test]
    fn hostile_scopes_rejected() {
        // Offered: shards 1 and 2 of 4, at F = 4 — children 1, 5, 9, 13
        // and 2, 6, 10, 14 of 16.
        let offer = Offer {
            count: 4,
            fanout: 4,
            parents: vec![1, 2],
            proposed: Vec::new(),
        };
        let scope = |count: u64, children: &[u64]| {
            ShardScope {
                count,
                children: children.to_vec(),
                refused: None,
            }
            .encode()
        };
        ShardScope::decode(&mut scope(16, &[1, 2, 13, 14]), &offer).expect("well-formed");
        ShardScope::decode(&mut scope(16, &[]), &offer).expect("nothing differs");
        let hostile = [
            ("at the plan's count, not the children's", scope(4, &[1])),
            ("at another fan-out", scope(32, &[1])),
            ("a child of a skipped shard", scope(16, &[4])),
            ("a child of an unrefined shard", scope(16, &[1, 3])),
            ("out of range", scope(16, &[17])),
            ("out of order", scope(16, &[5, 1])),
            ("listed twice", scope(16, &[5, 5])),
        ];
        for (what, mut bytes) in hostile {
            assert!(ShardScope::decode(&mut bytes, &offer).is_err(), "{what}");
        }
        // More indices than children were offered: refused on the
        // count, whatever follows.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_SCOPE);
        wire::put_varint(&mut buf, 16);
        wire::put_varint(&mut buf, 9);
        buf.extend_from_slice(&[1; 9]);
        assert_eq!(
            ShardScope::decode(&mut buf.freeze(), &offer),
            Err(WireError::InvalidPayload)
        );
        // A count the payload cannot hold.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SHARD_SCOPE);
        wire::put_varint(&mut buf, 16);
        wire::put_varint(&mut buf, 8);
        buf.put_u8(1);
        assert!(ShardScope::decode(&mut buf.freeze(), &offer).is_err());
    }

    #[test]
    fn an_offer_admits_unrefined_shards_whole_and_refined_ones_by_child() {
        let offer = Offer {
            count: 4,
            fanout: 4,
            parents: vec![1],
            proposed: Vec::new(),
        };
        let keys: Vec<String> = (0..400).map(|i| format!("key-{i}")).collect();
        let in_shard = |shard| {
            keys.iter()
                .filter(move |k| shard_of(k.as_bytes(), 4) == shard)
        };
        let listed = shard_of(in_shard(1).next().unwrap().as_bytes(), 16);
        let scope = ShardScope {
            count: 16,
            children: vec![listed],
            refused: None,
        };
        for key in in_shard(1) {
            assert_eq!(
                offer.admits(&scope, key.as_bytes()),
                shard_of(key.as_bytes(), 16) == listed
            );
        }
        assert!(in_shard(1).any(|key| !offer.admits(&scope, key.as_bytes())));
        assert!(in_shard(3).all(|key| offer.admits(&scope, key.as_bytes())));
        assert_eq!(listed & 3, 1, "a child keeps its parent's low bits");
    }

    /// `count` converged shards of `entries` keys, the first `dirty` of
    /// them differing.
    fn map_with(count: usize, entries: u64, dirty: usize) -> (Vec<ShardDigest>, Vec<ShardDigest>) {
        let ours: Vec<ShardDigest> = (0..count as u64)
            .map(|digest| ShardDigest { digest, entries })
            .collect();
        let mut theirs = ours.clone();
        for shard in theirs.iter_mut().take(dirty) {
            shard.digest ^= 0xD1;
        }
        (ours, theirs)
    }

    /// `decide` prices in three constants; each is what one more key,
    /// child or shard adds to the frames its doc comment names, measured
    /// here on the codec so neither can move without the other.
    #[test]
    fn the_priced_constants_are_what_the_codec_writes() {
        use crate::mux::{CtrlMsg, MuxMsg, StreamAnswer, StreamOpen};
        use optrep_core::sync::WireMsg;
        use optrep_core::SiteId;

        // One more key in each COMPARE frame, less what names it (its
        // stream id and, in the hello, its key).
        let name = Bytes::from_static(b"key");
        let first = Some((SiteId::new(1), 1));
        let frames = |keys: u64| {
            let open = |stream| StreamOpen {
                stream,
                name: name.clone(),
                first,
            };
            let answer = |stream| StreamAnswer {
                stream,
                missing: false,
                first,
                client_known: true,
                client_equal: true,
            };
            [
                CtrlMsg::BatchHello {
                    discover: false,
                    opens: (1..=keys).map(open).collect(),
                },
                CtrlMsg::BatchServerFirst {
                    answers: (1..=keys).map(answer).collect(),
                    offers: Vec::new(),
                },
                CtrlMsg::BatchDone {
                    streams: (1..=keys).collect(),
                },
            ]
            .map(|msg| MuxMsg::Ctrl(msg).to_bytes().len())
        };
        let (one, two) = (frames(1), frames(2));
        let [hello, server_first, done] = std::array::from_fn(|i| two[i] - one[i]);
        let stream = wire::varint_len(2);
        assert_eq!(hello - stream - wire::bytes_len(name.len()), 3);
        assert_eq!(server_first - stream, 4);
        assert_eq!(done, 1);
        assert_eq!(COMPARE_BYTES_PER_KEY, (3 + 4 + 1) as f64);

        // One more offered child, one more refined shard, one more scope
        // child — at the widest indices a plan can name.
        let count = MAX_PLAN_SHARDS / 4;
        let plan = |parents: u64, fanout: u64| {
            let child = ShardDigest {
                digest: u64::MAX,
                entries: 100,
            };
            let parents = (count - parents..count)
                .map(|shard| (shard, vec![child; fanout as usize]))
                .collect();
            ShardPlan {
                count,
                incremental: vec![count - 2, count - 1],
                children: Some(ChildDigests { fanout, parents }),
                ..ShardPlan::default()
            }
            .encode()
            .len()
        };
        let scope = |children: u64| {
            ShardScope {
                count: MAX_PLAN_SHARDS,
                children: (MAX_PLAN_SHARDS - children..MAX_PLAN_SHARDS).collect(),
                refused: None,
            }
            .encode()
            .len()
        };
        assert_eq!((plan(1, 4) - plan(1, 2)) as f64, 2.0 * CHILD_BYTES);
        assert_eq!(
            (plan(2, 2) - plan(1, 2)) as f64,
            INDEX_BYTES + 2.0 * CHILD_BYTES
        );
        assert_eq!((scope(2) - scope(1)) as f64, INDEX_BYTES);
    }

    #[test]
    fn decide_offers_children_only_where_they_pay() {
        let config = PlanConfig::default();
        let refined = |count, entries, dirty| {
            let (ours, theirs) = map_with(count, entries, dirty);
            let decision = decide(&ours, &theirs, &[], &config);
            (decision.refined.len(), decision.fanout)
        };
        // 16 dirty shards of 512 at 195 keys: every one, at F = 16.
        assert_eq!(refined(512, 195, 16), (16, 16));
        // All but a few shards dirty at 39 keys: the share of dirty
        // shards says each holds many dirty keys.
        for dirty in [505, 510, 511, 512] {
            assert_eq!(refined(512, 39, dirty).0, 0, "{dirty} of 512");
        }
        // Too small a map to estimate anything from.
        assert_eq!(refined(1, 100_000, 1).0, 0);
        assert_eq!(refined(4, 24, 3).0, 0);
        // Shards so small the children cost what the walk does.
        assert_eq!(refined(512, 3, 16).0, 0);
        // The fan-out never takes count * F past the cap.
        let (count, fanout) = (MAX_PLAN_SHARDS as usize / 4, 4);
        assert_eq!(refined(count, 10_000, 8), (8, fanout));
        assert_eq!(refined(MAX_PLAN_SHARDS as usize, 10_000, 8).0, 0);
        // Only shards worth it: one big dirty shard among small ones.
        let (mut ours, mut theirs) = map_with(64, 4, 4);
        ours[2].entries = 4000;
        theirs[2].entries = 4000;
        let decision = decide(&ours, &theirs, &[], &config);
        assert_eq!(decision.refined, vec![2]);
        // Snapshot shards are never refined, but count as dirty.
        let (mut ours, theirs) = map_with(64, 200, 8);
        ours[0] = ShardDigest::default();
        let decision = decide(&ours, &theirs, &[], &config);
        assert_eq!(decision.actions[0], ShardAction::Snapshot);
        assert_eq!(decision.refined, (1..8).collect::<Vec<u64>>());
    }

    #[test]
    fn decide_proposes_where_the_hint_is_cheaper_than_what_it_replaces() {
        let config = PlanConfig::default();
        // 16 dirty shards of 512 at 195 keys, one changed key in each
        // of the first twelve: those are proposed, the other four keep
        // their children, and without hints nothing moved.
        let (ours, theirs) = map_with(512, 195, 16);
        let hint = |shard: u64, keys: u64| -> Candidates {
            (shard, (0..keys).map(|j| shard + j * 7 * 512).collect())
        };
        let hints: Vec<Candidates> = (0..12).map(|shard| hint(shard, 1)).collect();
        let blind = decide(&ours, &theirs, &[], &config);
        let hinted = decide(&ours, &theirs, &hints, &config);
        assert_eq!(blind.refined, (0..16).collect::<Vec<u64>>());
        assert!(blind.proposed.is_empty());
        assert_eq!(hinted.proposed, (0..12).collect::<Vec<u64>>());
        assert_eq!(hinted.refined, (12..16).collect::<Vec<u64>>());
        assert_eq!(
            (hinted.actions, hinted.fanout),
            (blind.actions, blind.fanout)
        );
        // A hint for a shard whose digests match, and one for a shard
        // past the map, are not this contact's business.
        let stray = [hint(100, 1), hint(9_999, 1)];
        assert!(decide(&ours, &theirs, &stray, &config).proposed.is_empty());
        // A shard where the puller holds a key of its own is dirty
        // whatever the server did, and would refuse any candidates.
        let (mut ours, theirs) = map_with(512, 195, 16);
        ours[3].entries += 1;
        let hinted = decide(&ours, &theirs, &hints, &config);
        assert_eq!(hinted.proposed.len(), 11);
        assert!(hinted.refined.contains(&3) && !hinted.proposed.contains(&3));
        // Every shard dirty at 39 keys — no children to fall back on:
        // six changed keys a shard are proposed, thirty-six are not.
        let (ours, theirs) = map_with(512, 39, 512);
        let few: Vec<Candidates> = (0..512).map(|shard| hint(shard, 6)).collect();
        let most: Vec<Candidates> = (0..512).map(|shard| hint(shard, 36)).collect();
        assert_eq!(decide(&ours, &theirs, &few, &config).proposed.len(), 512);
        assert!(decide(&ours, &theirs, &most, &config).proposed.is_empty());
        // At the finest map a candidate is a whole shard.
        let (ours, theirs) = map_with(MAX_PLAN_SHARDS as usize, 195, 4);
        let hints: Vec<Candidates> = (0..4).map(|shard| (shard, vec![shard])).collect();
        assert!(decide(&ours, &theirs, &hints, &config).proposed.is_empty());
    }

    #[test]
    fn decide_skips_equal_and_empty_server_shards() {
        let config = PlanConfig::default();
        let ours = [
            ShardDigest {
                digest: 7,
                entries: 2,
            },
            ShardDigest {
                digest: 9,
                entries: 4,
            },
            ShardDigest {
                digest: 0,
                entries: 0,
            },
            ShardDigest {
                digest: 5,
                entries: 1,
            },
        ];
        let theirs = [
            ShardDigest {
                digest: 7,
                entries: 2,
            }, // equal -> skip
            ShardDigest {
                digest: 8,
                entries: 4,
            }, // diverged, ours populated -> incremental
            ShardDigest {
                digest: 3,
                entries: 6,
            }, // ours empty -> snapshot
            ShardDigest {
                digest: 0,
                entries: 0,
            }, // server empty -> skip
        ];
        let decision = decide(&ours, &theirs, &[], &config);
        assert_eq!(
            decision.actions,
            vec![
                ShardAction::Skip,
                ShardAction::Incremental,
                ShardAction::Snapshot,
                ShardAction::Skip,
            ]
        );
        assert!(decision.refined.is_empty(), "two of four shards differ");
    }

    #[test]
    fn threshold_above_one_disables_snapshots() {
        let config = PlanConfig {
            snapshot_threshold: 1.5,
        };
        let ours = [ShardDigest {
            digest: 0,
            entries: 0,
        }];
        let theirs = [ShardDigest {
            digest: 3,
            entries: 6,
        }];
        assert_eq!(
            decide(&ours, &theirs, &[], &config).actions,
            vec![ShardAction::Incremental]
        );
    }
}
