//! Model-based seeded property tests: the rotating vectors are *implementations*
//! of version vectors, so after any legal trace of operations their
//! values, comparisons and synchronization results must coincide with a
//! plain [`VersionVector`] reference model maintained side by side.
//!
//! A "legal trace" follows the §2.1 system model: each replica is only
//! updated by its hosting site, and metadata changes only through local
//! updates, sync protocols, and the post-reconciliation increment.

use optrep::core::rng::{cases, SplitMix64};
use optrep::core::sync::drive::{sync_brv, sync_crv, sync_srv};
use optrep::core::sync::SyncReport;
use optrep::core::{
    Brv, Causality, Crv, Error, Result, RotatingVector, SiteId, Srv, VersionVector,
};

/// One step of a legal multi-replica trace.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Site `r` updates its replica.
    Update { r: usize },
    /// Replica `dst` synchronizes from replica `src` (followed by the
    /// Parker §C increment if they were concurrent).
    Sync { dst: usize, src: usize },
}

fn steps(rng: &mut SplitMix64, replicas: usize, len: usize) -> Vec<Step> {
    (0..rng.range(1..len))
        .map(|_| {
            let r = rng.below(replicas);
            if rng.chance(0.5) {
                Step::Update { r }
            } else {
                let src = (r + rng.range(1..replicas)) % replicas;
                Step::Sync { dst: r, src }
            }
        })
        .collect()
}

/// Runs a trace over `k` replicas for a rotating type, mirroring every
/// step on plain version vectors, and checks the invariants at each step.
fn check_against_model<V, FSync>(k: usize, trace: &[Step], sync: FSync) -> Result<()>
where
    V: RotatingVector + Default,
    FSync: Fn(&mut V, &V) -> Result<SyncReport>,
{
    let mut real: Vec<V> = (0..k).map(|_| V::default()).collect();
    let mut model: Vec<VersionVector> = vec![VersionVector::new(); k];
    for (i, step) in trace.iter().enumerate() {
        match *step {
            Step::Update { r } => {
                real[r].record_update(SiteId::new(r as u32));
                model[r].increment(SiteId::new(r as u32));
            }
            Step::Sync { dst, src } => {
                let relation = real[dst].compare(&real[src]);
                let reference = model[dst].compare(&model[src]);
                assert_eq!(relation, reference, "step {i}: O(1) compare vs model");
                let b = real[src].clone();
                sync(&mut real[dst], &b)?;
                let m = model[src].clone();
                model[dst].merge(&m);
                if relation.is_concurrent() {
                    // Parker §C: reconciliation ends with a local update.
                    real[dst].record_update(SiteId::new(dst as u32));
                    model[dst].increment(SiteId::new(dst as u32));
                }
            }
        }
        for r in 0..k {
            assert_eq!(
                real[r].to_version_vector(),
                model[r],
                "step {i}: replica {r} diverged from the model"
            );
        }
    }
    Ok(())
}

#[test]
fn crv_matches_version_vector_model() {
    cases(64, |_, rng| {
        check_against_model::<Crv, _>(4, &steps(rng, 4, 60), sync_crv).unwrap();
    });
}

#[test]
fn srv_matches_version_vector_model() {
    cases(64, |_, rng| {
        check_against_model::<Srv, _>(4, &steps(rng, 4, 60), sync_srv).unwrap();
    });
}

#[test]
fn srv_matches_model_many_replicas() {
    cases(64, |_, rng| {
        check_against_model::<Srv, _>(8, &steps(rng, 8, 120), sync_srv).unwrap();
    });
}

/// The trace `tests/model_based.proptest-regressions` recorded, from when
/// these suites ran under proptest and it shrank a failure to this: site 5
/// reconciles with 7, site 0 with 5, then 7 fast-forwards from 0 past the
/// tagged `7:1` it already knows — and unless that closes a segment
/// (DESIGN.md §2, deviation 3) the last pull, 5 from 7, skips `4:1`.
#[test]
fn a_fast_forward_past_a_tagged_known_element_matches_the_model() {
    use Step::{Sync, Update};
    let trace = [
        Update { r: 5 },
        Update { r: 7 },
        Update { r: 4 },
        Sync { dst: 0, src: 4 },
        Sync { dst: 5, src: 7 },
        Sync { dst: 0, src: 5 },
        Sync { dst: 7, src: 0 },
        Sync { dst: 6, src: 5 },
        Sync { dst: 5, src: 7 },
    ];
    check_against_model::<Srv, _>(8, &trace, sync_srv).unwrap();
    check_against_model::<Crv, _>(8, &trace, sync_crv).unwrap();
}

#[test]
fn brv_matches_model_until_first_conflict() {
    cases(64, |_, rng| {
        // BRV cannot reconcile: run the same trace but stop at the first
        // concurrent sync (which sync_brv correctly refuses).
        let result = check_against_model::<Brv, _>(4, &steps(rng, 4, 60), sync_brv);
        if let Err(e) = result {
            assert_eq!(e, Error::ConcurrentVectors);
        }
    });
}

#[test]
fn sync_is_elementwise_max() {
    cases(64, |_, rng| {
        // Endpoint check, independent of the model bookkeeping: any two
        // replicas produced by a legal trace synchronize to max(a, b).
        let mut real: Vec<Srv> = (0..3).map(|_| Srv::default()).collect();
        for step in &steps(rng, 3, 40) {
            match *step {
                Step::Update { r } => {
                    real[r].record_update(SiteId::new(r as u32));
                }
                Step::Sync { dst, src } => {
                    let relation = real[dst].compare(&real[src]);
                    let b = real[src].clone();
                    sync_srv(&mut real[dst], &b).unwrap();
                    if relation.is_concurrent() {
                        real[dst].record_update(SiteId::new(dst as u32));
                    }
                }
            }
        }
        let mut a = real[0].clone();
        let b = real[1].clone();
        let mut expected = a.to_version_vector();
        expected.merge(&b.to_version_vector());
        sync_srv(&mut a, &b).unwrap();
        assert_eq!(a.to_version_vector(), expected);
    });
}

#[test]
fn post_reconciliation_dominance() {
    // After reconciliation + increment, the receiver strictly dominates
    // the sender — the property that drives eventual consistency.
    let mut a = Srv::new();
    let mut b = Srv::new();
    a.record_update(SiteId::new(0));
    b.record_update(SiteId::new(1));
    assert_eq!(a.compare(&b), Causality::Concurrent);
    sync_srv(&mut a, &b).unwrap();
    a.record_update(SiteId::new(0));
    assert_eq!(b.compare(&a), Causality::Before);
    assert_eq!(a.compare(&b), Causality::After);
}
