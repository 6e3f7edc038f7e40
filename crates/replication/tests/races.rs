//! Writes that race a pull: a pull abandoned after the wire and run
//! again, a source write between its plan and its endpoint, and a puller
//! write between its digest vector and its endpoint.

use bytes::Bytes;
use optrep_core::obs::{self, CheckSink, RingSink, SyncEvent};
use optrep_core::SiteId;
use optrep_kv::{JoinResolver, KvStore};
use optrep_replication::planner::shard_of;
use optrep_replication::{
    pull_planned, ContactAsk, ContactReport, InProcessLink, Serving, VectorMemory,
};
use std::cell::RefCell;
use std::sync::Arc;

mod support;
use support::unplanned::unplanned_pull;
use support::*;

/// What a daemon's `APPLY_RACE_RETRIES` does: a pull completes on the
/// wire, its outcome is thrown away because a local write raced it, and
/// the pull runs again over the same link. Both ends remembered the
/// vector of the abandoned contact — the server shard 11, which it
/// served and could land, as served, the puller that shard marked,
/// never settled; both the shards the exchange kept (2, reconciled, and
/// 7, a key of the puller's own) as sent — so the rerun — a delta
/// against it that lists shard 11 again — stays in step and commits
/// what a pull over a fresh link commits.
#[test]
fn a_pull_abandoned_after_the_wire_leaves_the_memories_in_step() {
    let (mut dst, src) = refined_stores();
    let mut reference = dst.clone();
    reference.put("raced", "local write");
    let mut source = source_of(&src);
    let (fresh, _) = planned_pull(
        &mut reference.clone(),
        &mut InProcessLink::serving(&mut Serving::default(), &mut source),
    )
    .expect("reference");
    reference.sync(&src).run().expect("reference");

    let mut serving = Serving::default();
    let mut link = InProcessLink::serving(&mut serving, &mut source);
    let mut remembered = VectorMemory::default();
    let digests = dst.shard_digest_vector();
    let abandoned = pull_planned(&mut link, &mut remembered, &digests, |plan, push| {
        dst.client_endpoint_refined(plan, push, dst.generation())
    })
    .expect("the contact itself completes");
    drop(abandoned);
    dst.put("raced", "local write");
    let (rerun, _) = planned_pull_on(&mut dst, &mut link, &mut remembered).expect("rerun");
    assert_eq!(
        rerun.digests_sent, 2,
        "the shard the racing write landed in, and the one the abandoned contact left marked"
    );
    assert_eq!(
        rerun,
        ContactReport {
            digest_bytes: rerun.digest_bytes,
            digests_sent: 2,
            ..fresh
        }
    );
    assert!(rerun.digest_bytes < fresh.digest_bytes);
    assert_eq!(dst.replica_digest_full(), reference.replica_digest_full());
}

/// The same abandonment with the source moving on around it: the rerun
/// is planned from what the source changed since it planned the
/// *abandoned* contact — whose outcome the puller never applied. Where
/// that matters the puller's digest is not what the source's journal
/// sums the shard back to, the shard is not proposed, and the rerun
/// alone converges.
#[test]
fn a_rerun_after_an_abandoned_pull_is_not_proposed_what_it_never_applied() {
    let (mut dst, src) = refined_stores();
    let src = RefCell::new(src);
    let mut source = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
    let mut serving = Serving::default();
    let mut link = InProcessLink::serving(&mut serving, &mut source);
    let mut remembered = VectorMemory::default();
    planned_pull_on(&mut dst, &mut link, &mut remembered).expect("first pull");

    source_moves_on(&mut src.borrow_mut());
    let digests = dst.shard_digest_vector();
    let abandoned = pull_planned(&mut link, &mut remembered, &digests, |plan, push| {
        dst.client_endpoint_refined(plan, push, dst.generation())
    })
    .expect("the contact itself completes");
    assert_eq!(abandoned.2.shards_proposed, 2, "4 and 13");
    drop(abandoned);
    // The write that raced it: a key the source holds too, in a shard
    // of its own.
    dst.put(refined_keys_in(10).next().expect("a key"), "local write");

    // The source moves on again: in shard 4, where the abandoned
    // contact would have brought two keys, and in shard 5, clean so far.
    for key in refined_keys_in(4)
        .skip(2)
        .take(1)
        .chain(refined_keys_in(5).take(1))
    {
        src.borrow_mut().put(key, "later still");
    }
    let (rerun, synced) = planned_pull_on(&mut dst, &mut link, &mut remembered).expect("rerun");
    let (proposed, refined) = (rerun.shards_proposed, rerun.shards_refined);
    assert_eq!(
        (proposed, refined),
        (1, 5),
        "5 proposed; 4 — the puller holds it as it stood before the abandoned plan — \
         refined beside 2, 7, 10 and 13, which have no news"
    );
    assert_eq!(rerun.round_trips, 3);
    assert_eq!(
        synced.keys_fast_forwarded, 6,
        "both rounds of the source's writes"
    );
    let mut full = dst.clone();
    unplanned_pull(&mut full, &src.borrow());
    assert_eq!(dst.replica_digest_full(), full.replica_digest_full());
}

// A planned pull's server reads its store at two moments: the plan at
// the digest frame, the endpoint at the first frame of the puller's
// burst. Every place a write can land in between, at every form a plan
// takes.

/// The form of the plan the racing pull is answered with.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    /// Thirteen of sixteen shards dirty: nothing offered, the
    /// incremental shards walked whole.
    Flat,
    /// A link's first contact with three dirty shards: the two large
    /// ones offered their children, the three-key one left whole.
    Children,
    /// A link's later contact: the journal names what changed, and the
    /// source proposes it but in the one shard the puller wrote in
    /// itself, three keys walked whole.
    Proposed,
}

/// Where the source's write lands between its plan and its endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Race {
    /// A put to a key of an offered shard outside what the offer keeps:
    /// not pushed, in a child that does not differ. (A flat plan offers
    /// nothing, so there the whole shard is kept.)
    BesideTheCut,
    /// A put to a key the contact is about: a pushed key, the differing
    /// key.
    PutCandidate,
    /// The same key deleted.
    DeleteCandidate,
    /// A put into a shard the plan skips.
    SkippedShard,
    /// A put into an incremental shard the cut keeps whole: one the
    /// source could not propose, never offered, or any shard of a flat
    /// plan.
    WholeShard,
}

const FORMS: [Form; 3] = [Form::Flat, Form::Children, Form::Proposed];
const RACES: [Race; 5] = [
    Race::BesideTheCut,
    Race::PutCandidate,
    Race::DeleteCandidate,
    Race::SkippedShard,
    Race::WholeShard,
];

/// The racing fixture's keys in `shard` of 16: `refined_stores`' key
/// universe with shard 9 thinned to three keys, too few for `decide` to
/// offer its children.
fn racing_keys_in(shard: u64) -> Vec<String> {
    let take = if shard == 9 { 3 } else { usize::MAX };
    refined_keys_in(shard).take(take).collect()
}

/// Runs `pull` under the invariant-checking sink and requires it to
/// have audited a contact.
fn audited<T>(pull: impl FnOnce() -> T) -> T {
    let check = Arc::new(CheckSink::new());
    let pulled = obs::with(check.clone(), pull);
    check.finish().expect("every contact ends");
    assert!(check.checked_contacts() > 0, "the sink audits the contact");
    pulled
}

/// One interleaving: a pull whose plan has `form`, the source written
/// to as `race` says between the two asks of that pull, and the next
/// pull over the same link.
fn a_write_between_plan_and_endpoint(form: Form, race: Race) {
    let at = format!("{form:?}, {race:?}");
    let key = |shard: u64, nth: usize| racing_keys_in(shard)[nth].clone();
    let mut src = KvStore::with_shards(SiteId::new(1), 64);
    let mut dst = KvStore::with_shards(SiteId::new(0), 16);
    for shard in 0..16 {
        for key in racing_keys_in(shard) {
            src.put(key, "base");
        }
    }
    dst.sync(&src).run().expect("bootstrap");

    // The source's answers, with the scripted write ahead of the
    // endpoint ask of the pull that is armed.
    let about = key(2, 0);
    let beside = racing_keys_in(2)
        .into_iter()
        .find(|key| shard_of(key.as_bytes(), 256) != shard_of(about.as_bytes(), 256))
        .expect("150 keys a shard");
    let raced = match race {
        Race::BesideTheCut => beside,
        Race::PutCandidate | Race::DeleteCandidate => about.clone(),
        Race::SkippedShard => key(12, 0),
        Race::WholeShard if form == Form::Children => key(9, 1),
        Race::WholeShard if form == Form::Proposed => key(9, 2),
        Race::WholeShard => key(10, 2),
    };
    let src = RefCell::new(src);
    let armed = std::cell::Cell::new(false);
    let mut source = |ask: ContactAsk<'_>| {
        if matches!(ask, ContactAsk::Endpoint(..)) && armed.replace(false) {
            match race {
                Race::DeleteCandidate => src.borrow_mut().delete(raced.clone()),
                _ => src.borrow_mut().put(raced.clone(), "raced"),
            }
        }
        src.borrow().open_contact(ask)
    };
    let mut serving = Serving::default();
    let mut link = InProcessLink::serving(&mut serving, &mut source);
    let mut remembered = VectorMemory::default();
    // Settled as a daemon settles, so that the next pull's check proves
    // the as-served digests the racing pull left at both ends.
    let mut pull = |dst: &mut KvStore| {
        audited(|| {
            let digests = dst.shard_digest_vector();
            let mut keys = Vec::new();
            let (client, plan, contact) =
                pull_planned(&mut link, &mut remembered, &digests, |plan, push| {
                    let restricted = dst.client_endpoint_refined(plan, push, dst.generation())?;
                    keys = restricted.client.pushed_keys().cloned().collect();
                    Ok(restricted)
                })
                .expect("pull");
            let committed = dst
                .apply_planned(&JoinResolver, client, &contact, &plan)
                .expect("commit");
            remembered.settle(&committed.landed);
            let mut changed = committed.keys(dst);
            changed.sort();
            (plan, contact, changed, keys)
        })
    };

    // What the plan will be about.
    let local = key(10, 1);
    match form {
        Form::Flat => {
            for shard in (0..=13).filter(|&shard| shard != 12) {
                src.borrow_mut().put(key(shard, 0), "ahead");
            }
            dst.put(local.clone(), "local");
        }
        Form::Children => {
            for shard in [2, 5, 9] {
                src.borrow_mut().put(key(shard, 0), "ahead");
            }
        }
        Form::Proposed => {
            let (plan, ..) = pull(&mut dst);
            assert_eq!(plan.skipped(), 16, "{at}: converged");
            for shard in [2, 5, 9] {
                src.borrow_mut().put(key(shard, 0), "ahead");
            }
            dst.put(key(9, 1), "local");
        }
    }

    // The racing pull.
    let before = dst.clone();
    armed.set(true);
    let (plan, contact, changed, _) = pull(&mut dst);
    assert!(!armed.get(), "{at}: the endpoint was asked for");
    let refined: Vec<u64> = (plan.children.iter())
        .flat_map(|children| children.parents.iter().map(|(shard, _)| *shard))
        .collect();
    let offered = (refined, plan.proposed.clone());
    match form {
        Form::Flat => assert_eq!(offered, (vec![], vec![]), "{at}"),
        Form::Children => assert_eq!(offered, (vec![2, 5], vec![]), "{at}"),
        Form::Proposed => assert_eq!(offered, (vec![], vec![2, 5]), "{at}"),
    }
    assert_eq!(contact.shards_proposed, offered.1.len() as u64, "{at}");
    // Served at its newer state where the cut admits it, untouched
    // where it does not — a pushed key was read with the plan, before
    // the write — and never a vector of one view with the value of the
    // other: what moved is what the source held at the plan, pushed, or
    // at the endpoint, walked.
    let admitted = match race {
        Race::BesideTheCut => form == Form::Flat,
        Race::SkippedShard => false,
        Race::PutCandidate | Race::DeleteCandidate => form != Form::Proposed,
        Race::WholeShard => true,
    };
    // The key pushed before the write moved to the plan's state.
    let pushed_at_plan = form == Form::Proposed && raced == about;
    assert_eq!(
        changed.contains(&raced),
        admitted || pushed_at_plan,
        "{at}: {changed:?}"
    );
    assert!(changed.contains(&about), "{at}: {changed:?}");
    let src_now = src.borrow().clone();
    for key in changed
        .iter()
        .filter(|key| !pushed_at_plan || **key != raced)
    {
        assert_eq!(
            dst.encode_entry(key),
            src_now.encode_entry(key),
            "{at}: {key}"
        );
    }
    if !admitted && !pushed_at_plan {
        assert_eq!(
            dst.encode_entry(&raced),
            before.encode_entry(&raced),
            "{at}"
        );
    }

    // The next pull over the link is proposed from the *plan's*
    // generation: it pushes the raced key, which the journal holds, and
    // nothing the racing pull was already told about.
    let mut expected = dst.clone();
    unplanned_pull(&mut expected, &src_now);
    let (_, _, changed, pushed) = pull(&mut dst);
    let raced_bytes = Bytes::from(raced.clone().into_bytes());
    if admitted {
        assert!(pushed.iter().all(|k| *k == raced_bytes), "{at}: {pushed:?}");
        assert_eq!(changed, Vec::<String>::new(), "{at}");
    } else {
        assert_eq!(pushed, [raced_bytes], "{at}");
        assert_eq!(changed, std::slice::from_ref(&raced), "{at}");
    }
    assert_eq!(
        dst.encode_entry(&raced),
        src_now.encode_entry(&raced),
        "{at}"
    );
    assert_eq!(
        dst.replica_digest_full(),
        expected.replica_digest_full(),
        "{at}"
    );
    if form == Form::Children {
        assert_eq!(
            dst.replica_digest_full(),
            src_now.replica_digest_full(),
            "{at}"
        );
    }
    assert_eq!(
        *src.borrow(),
        src_now,
        "{at}: a contact never writes to its source"
    );
}

/// All fifteen, enumerated rather than sampled: with two views of the
/// source in one pull, *which* interleaving goes wrong is what a seeded
/// schedule would have to be lucky about.
#[test]
fn a_racing_write_between_plan_and_endpoint_is_served_whole_or_left_for_the_next_pull() {
    for form in FORMS {
        for race in RACES {
            a_write_between_plan_and_endpoint(form, race);
        }
    }
}

/// A write on the *pulling* side between its digest vector and its
/// endpoint, to a key the source pushes: the push rests on the vector's
/// proof, which does not cover the write, so the puller cancels that
/// stream — its bytes crossed for nothing and are reported as excess —
/// and lands its sibling. The key's shard is not remembered as served,
/// and the key meets the source's version on the next pull, as a
/// conflict. Every event of both pulls passes `CheckSink`.
#[test]
fn a_pushed_key_the_puller_wrote_after_its_digest_is_cancelled_and_lands_next_pull() {
    let (mut dst, mut src) = refined_stores();
    let (mut serving, mut remembered) = (Serving::default(), VectorMemory::default());
    let ring = Arc::new(RingSink::new(1 << 16));
    let pull = |dst: &mut KvStore,
                src: &KvStore,
                serving: &mut Serving,
                remembered: &mut VectorMemory,
                racing: Option<&str>| {
        let mut source = source_of(src);
        let mut link = InProcessLink::serving(serving, &mut source);
        let (digests, digested_at) = (dst.shard_digest_vector(), dst.generation());
        let mut keys = Vec::new();
        let (client, plan, contact) =
            pull_planned(&mut link, remembered, &digests, |plan, push| {
                if let Some(key) = racing {
                    dst.put(key, "mine, after the digest");
                }
                let restricted = dst.client_endpoint_refined(plan, push, digested_at)?;
                keys = restricted.client.pushed_keys().cloned().collect();
                Ok(restricted)
            })
            .expect("pull");
        let committed = dst.apply_planned(&JoinResolver, client, &contact, &plan);
        let committed = committed.expect("commit");
        remembered.settle(&committed.landed);
        (plan, contact, committed, keys)
    };
    obs::with(ring.clone(), || {
        pull(&mut dst, &src, &mut serving, &mut remembered, None);
    });
    let [raced, sibling] = {
        let mut two: Vec<String> = refined_keys_in(4).take(2).collect();
        two.sort();
        [two[0].clone(), two[1].clone()]
    };
    for key in [&raced, &sibling] {
        src.put(key.clone(), "theirs");
    }
    let (plan, contact, committed, pushed) = obs::with(ring.clone(), || {
        pull(&mut dst, &src, &mut serving, &mut remembered, Some(&raced))
    });
    assert_eq!(plan.proposed, [4]);
    let names: Vec<&[u8]> = pushed.iter().map(|key| &key[..]).collect();
    assert_eq!(names, [raced.as_bytes(), sibling.as_bytes()]);
    assert_eq!(committed.keys(&dst), [sibling.as_str()]);
    assert_eq!(dst.get(&raced), Some(&b"mine, after the digest"[..]));
    assert!(committed.landed.iter().all(|(shard, _)| *shard != 4));
    // The key not run, priced as the push prices it: its one element
    // (3 B, the `SYNCS` message that sends it) and its value (7 B, a tag
    // and `theirs`), and nothing else: its sibling was all taken.
    let excess = contact.excess_bytes;
    assert_eq!(excess, 3 + 7, "{contact:?}");
    let reported: Vec<u64> = (ring.events().into_iter())
        .filter_map(|event| match event {
            SyncEvent::LinkExcess { bytes } => Some(bytes),
            _ => None,
        })
        .collect();
    assert_eq!(reported, [excess]);
    // The next pull: the shard is walked, the key reconciled.
    let mut expected = dst.clone();
    unplanned_pull(&mut expected, &src);
    let (plan, contact, committed, _) = obs::with(ring.clone(), || {
        pull(&mut dst, &src, &mut serving, &mut remembered, None)
    });
    assert!(plan.proposed.is_empty(), "{plan:?}");
    assert_eq!(committed.report.keys_reconciled, 1);
    assert_eq!(contact.excess_bytes, 0);
    assert_eq!(dst.replica_digest_full(), expected.replica_digest_full());
    let check = CheckSink::new();
    for event in ring.events() {
        check
            .check(&event)
            .expect("Theorem 5.1 and byte conservation");
    }
    check.finish().expect("every contact ends");
    assert_eq!(check.checked_contacts(), 3);
}
