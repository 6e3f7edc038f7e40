//! Every cut aborts cleanly: a link that dies at any byte of a contact,
//! planned or not, leaves the store alone and remembers nothing.

use optrep_core::obs::{self, RingSink, SyncEvent};
use optrep_core::{Result, SiteId};
use optrep_kv::{KvStore, KvSyncReport};
use optrep_net::{FaultPlan, FaultyLink};
use optrep_replication::{
    pull_contact, reason_label, ContactAsk, ContactReport, Faulted, InProcessLink, PlanConfig,
    Serving, VectorMemory,
};
use std::cell::RefCell;
use std::sync::Arc;

mod support;
use support::*;

// ---------------------------------------------------------------------
// (c) Every cut aborts cleanly.

/// One in-process pull of `case` over a link that dies `k` bytes in.
fn cut_pull(case: &Case, k: u64) -> Result<ContactReport> {
    let (mut client, mut server) = case.endpoints();
    let mut cut = FaultyLink::new(FaultPlan::disconnect_at(k));
    pull_contact(
        &mut client,
        &mut Faulted::new(InProcessLink::new(&mut server), &mut cut),
    )
}

#[test]
fn a_cut_at_every_byte_aborts_without_a_trace() {
    let case = one_object_case();
    let mut weather = FaultyLink::clean();
    let (mut client, mut server) = case.endpoints();
    pull_contact(
        &mut client,
        &mut Faulted::new(InProcessLink::new(&mut server), &mut weather),
    )
    .expect("clean plan is transparent");
    let total = weather.stats().bytes_delivered;
    assert!(total > 0);

    // A budget of exactly `total` bytes is never exceeded, so the last
    // cut that can abort the contact is one byte short of it.
    for k in 0..total {
        let ring = Arc::new(RingSink::new(1 << 12));
        let err = obs::with(ring.clone(), || cut_pull(&case, k)).expect_err("cut must abort");
        let events = ring.events();
        let aborts = events
            .iter()
            .filter(|ev| matches!(ev, SyncEvent::SessionAborted { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|ev| matches!(ev, SyncEvent::ContactEnd { .. }))
            .count();
        assert_eq!((aborts, ends), (1, 0), "cut at {k}/{total}");
        assert!(
            matches!(reason_label(&err), "connection_lost" | "stalled"),
            "cut at {k}/{total}: {err:?}"
        );
    }
}

/// The planning turn is part of the contact: a cut anywhere in a
/// planned pull — digest vector, plan, scope, exchange — aborts it with
/// the destination untouched, and a clean retry converges, and so does
/// the pair once the source pulls back.
fn a_cut_at_every_byte_leaves_the_store_alone(mut dst: KvStore, mut src: KvStore) -> KvSyncReport {
    let mut clean = FaultyLink::clean();
    let mut reference = dst.clone();
    let pulled = reference.sync(&src).via(&mut clean).run();
    let pulled = pulled.expect("clean plan");
    let total = clean.stats().bytes_delivered;

    let before = (dst.replica_digest(), dst.generation());
    let source = (src.replica_digest(), src.generation());
    for k in 0..total {
        let mut cut = FaultyLink::new(FaultPlan::disconnect_at(k));
        let err = dst
            .sync(&src)
            .via(&mut cut)
            .run()
            .expect_err("cut must abort");
        assert!(
            matches!(reason_label(&err), "connection_lost" | "stalled"),
            "cut at {k}/{total}: {err:?}"
        );
        let after = (dst.replica_digest(), dst.generation());
        assert_eq!(after, before, "cut at {k}/{total} moved the store");
        assert_eq!((src.replica_digest(), src.generation()), source);
    }
    let mut exact = FaultyLink::new(FaultPlan::disconnect_at(total));
    dst.sync(&src)
        .via(&mut exact)
        .run()
        .expect("the retry is not cut");
    assert_eq!(dst.replica_digest(), reference.replica_digest());
    src.sync(&dst).run().expect("the source pulls back");
    dst.sync(&src).run().expect("and the puller again");
    assert!(dst.consistent_with(&src), "the pair converges");
    pulled
}

/// Every stream outcome a commit stages crosses the sweep: keys created
/// in an incremental shard (discovery), fast-forwarded and reconciled,
/// and a shard bulk-loaded whole.
#[test]
fn a_cut_at_every_byte_of_a_planned_pull_leaves_the_store_alone() {
    let (dst, src) = planned_stores();
    // The source's keys in the puller's never-populated shard 3 of 4.
    let bulk: u64 = (src.shard_digest_vector().shards.iter().enumerate())
        .filter(|(shard, _)| shard % 4 == 3)
        .map(|(_, digest)| digest.entries)
        .sum();
    let pulled = a_cut_at_every_byte_leaves_the_store_alone(dst, src);
    let kinds = [
        pulled.keys_created as u64 - bulk,
        pulled.keys_fast_forwarded as u64,
        pulled.keys_reconciled as u64,
        pulled.shards_snapshot as u64,
    ];
    assert!(kinds.iter().all(|&n| n > 0), "{pulled:?}");
}

/// The sweep again through a plan with children and a scope frame. The
/// puller's digest vector is most of the bytes and is swept by the test
/// above; this fixture is small so that the sweep stays quick.
#[test]
fn a_cut_at_every_byte_of_a_refined_pull_leaves_the_store_alone() {
    let mut src = KvStore::with_shards(SiteId::new(1), 8);
    let mut dst = KvStore::with_shards(SiteId::new(0), 8);
    for i in 0..320 {
        src.put(format!("k{i:03}"), "v");
    }
    dst.sync(&src).run().expect("bootstrap");
    src.put("k007", "moved on");
    dst.put("k007", "meanwhile");
    let digests = dst.shard_digest_vector();
    let (plan, _) = src.plan_contact(&digests, &PlanConfig::default());
    assert!(
        plan.children.is_some(),
        "the sweep must cross a scope frame"
    );
    a_cut_at_every_byte_leaves_the_store_alone(dst, src);
}

/// The sweep once more through a link's *second* contact, the one that
/// opens with a delta and is answered with a proposal: a cut anywhere in
/// it leaves the store alone and the puller's memory empty, so the next
/// pull — on a fresh link, the old one being dead, whose serving end
/// remembers nothing either — sends a full vector, is proposed nothing
/// and converges.
#[test]
fn a_cut_at_every_byte_of_a_second_pull_leaves_the_store_and_no_memory() {
    let mut src = KvStore::with_shards(SiteId::new(1), 8);
    let mut dst = KvStore::with_shards(SiteId::new(0), 8);
    for i in 0..320 {
        src.put(format!("k{i:03}"), "v");
    }
    dst.sync(&src).run().expect("bootstrap");
    src.put("k007", "moved on");

    /// What two pulls over one link made of a store.
    struct TwoPulls {
        first: Result<(ContactReport, KvSyncReport)>,
        /// The puller's `(digest, generation)` as the second pull began.
        before: (u64, u64),
        second: Result<(ContactReport, KvSyncReport)>,
        remembered: VectorMemory,
        delivered: u64,
        src: KvStore,
    }
    // Pull, both sides move on, pull again — over one in-process link
    // under `weather`.
    let two_pulls = |dst: &mut KvStore, mut weather: FaultyLink| {
        let src = RefCell::new(src.clone());
        let mut source = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
        let mut remembered = VectorMemory::default();
        let mut serving = Serving::default();
        let mut link = Faulted::new(
            InProcessLink::serving(&mut serving, &mut source),
            &mut weather,
        );
        let first = planned_pull_on(dst, &mut link, &mut remembered);
        src.borrow_mut().put("k100", "moved on later");
        dst.put("k200", "meanwhile");
        let before = (dst.replica_digest(), dst.generation());
        let second = planned_pull_on(dst, &mut link, &mut remembered);
        TwoPulls {
            first,
            before,
            second,
            remembered,
            delivered: weather.stats().bytes_delivered,
            src: src.into_inner(),
        }
    };

    let mut reference = dst.clone();
    let clean = two_pulls(&mut reference, FaultyLink::clean());
    let (first, _) = clean.first.expect("clean first pull");
    let (second, _) = clean.second.expect("clean second pull");
    // The shard the puller wrote; not `k007`'s, which the first pull
    // fast-forwarded and both ends remember as served.
    assert_eq!((second.digests_sent, second.shards_total), (1, 8));
    assert_eq!(second.shards_proposed, 1, "the sweep must cross a proposal");
    let first_bytes = first.total_bytes + first.digest_bytes;
    let total = first_bytes + second.total_bytes + second.digest_bytes;
    assert_eq!(clean.delivered, total);

    // A budget of exactly `first_bytes` lets the first contact through
    // and cuts the second before its first byte.
    for k in first_bytes..total {
        let mut dst = dst.clone();
        let cut = two_pulls(&mut dst, FaultyLink::new(FaultPlan::disconnect_at(k)));
        cut.first.expect("the first pull fits the budget");
        let err = cut.second.expect_err("cut must abort");
        assert!(
            matches!(reason_label(&err), "connection_lost" | "stalled"),
            "cut at {k}/{total}: {err:?}"
        );
        assert_eq!(
            (dst.replica_digest(), dst.generation()),
            cut.before,
            "cut at {k}/{total} moved the store"
        );
        assert_eq!(
            cut.remembered,
            VectorMemory::default(),
            "cut at {k}/{total}"
        );
        let mut remembered = cut.remembered;
        let mut source = source_of(&cut.src);
        let mut serving = Serving::default();
        let mut fresh = InProcessLink::serving(&mut serving, &mut source);
        let (retry, _) =
            planned_pull_on(&mut dst, &mut fresh, &mut remembered).expect("the retry is not cut");
        assert_eq!(retry.digests_sent, retry.shards_total, "cut at {k}/{total}");
        assert_eq!(
            retry.shards_proposed, 0,
            "a fresh link remembers no contact"
        );
        assert_eq!(dst.replica_digest(), reference.replica_digest());
    }
}
