//! Skip-safety and segment-bit invariants for SRV under adversarial,
//! reconciliation-heavy traces.
//!
//! The soundness of `SYNCS` rests on the segment property (§4): if a
//! receiver knows one element of a segment, it knows the whole segment —
//! so skipping the tail loses nothing. These tests hammer that invariant:
//! after *any* legal trace, synchronizing any replica pair must yield the
//! exact element-wise maximum (a wrongly skipped element would surface as
//! a missing value), including under pipelining delays where skips go
//! stale.

use optrep::core::rng::{cases, SplitMix64};
use optrep::core::sync::drive::{sync_srv, sync_srv_opts};
use optrep::core::sync::SyncOptions;
use optrep::core::{RotatingVector, SiteId, Srv};

#[derive(Debug, Clone, Copy)]
enum Step {
    Update { r: usize },
    Sync { dst: usize, src: usize },
}

/// One update to two syncs: a sync-heavy mix maximizes reconciliations
/// and tag churn.
fn steps(rng: &mut SplitMix64, replicas: usize, len: usize) -> Vec<Step> {
    (0..rng.range(1..len))
        .map(|_| {
            let r = rng.below(replicas);
            if rng.chance(1.0 / 3.0) {
                Step::Update { r }
            } else {
                let src = (r + rng.range(1..replicas)) % replicas;
                Step::Sync { dst: r, src }
            }
        })
        .collect()
}

fn run_trace(replicas: usize, trace: &[Step], opts: SyncOptions) -> Vec<Srv> {
    let mut real: Vec<Srv> = (0..replicas).map(|_| Srv::default()).collect();
    for step in trace {
        match *step {
            Step::Update { r } => {
                real[r].record_update(SiteId::new(r as u32));
            }
            Step::Sync { dst, src } => {
                let relation = real[dst].compare(&real[src]);
                let b = real[src].clone();
                sync_srv_opts(&mut real[dst], &b, opts).expect("sync");
                if relation.is_concurrent() {
                    real[dst].record_update(SiteId::new(dst as u32));
                }
            }
        }
    }
    real
}

#[test]
fn every_pairwise_sync_yields_exact_max() {
    cases(48, |_, rng| {
        let trace = steps(rng, 5, 80);
        let replicas = run_trace(5, &trace, SyncOptions::default());
        for i in 0..replicas.len() {
            for j in 0..replicas.len() {
                if i == j {
                    continue;
                }
                let mut a = replicas[i].clone();
                let b = replicas[j].clone();
                let mut expected = a.to_version_vector();
                expected.merge(&b.to_version_vector());
                sync_srv(&mut a, &b).expect("pairwise sync");
                assert_eq!(
                    a.to_version_vector(),
                    expected,
                    "sync {} ⇐ {} skipped something it should not have",
                    i,
                    j
                );
            }
        }
    });
}

#[test]
fn stale_skips_under_latency_never_lose_elements() {
    cases(48, |_, rng| {
        let trace = steps(rng, 4, 60);
        // Pipelining delays make skips arrive late (stale) and leave
        // in-flight elements; outcomes must match the lockstep run.
        let lockstep = run_trace(4, &trace, SyncOptions::default());
        let delayed = run_trace(
            4,
            &trace,
            SyncOptions {
                latency_forward: 4,
                latency_backward: 11,
                bandwidth: Some(1),
                ..SyncOptions::default()
            },
        );
        for (i, (a, b)) in lockstep.iter().zip(&delayed).enumerate() {
            assert_eq!(
                a.to_version_vector(),
                b.to_version_vector(),
                "replica {} diverged under latency",
                i
            );
        }
    });
}

#[test]
fn segment_bits_partition_the_vector() {
    cases(48, |_, rng| {
        let trace = steps(rng, 4, 60);
        // Structural sanity: segments cover all elements, in order, and
        // every element appears exactly once.
        let replicas = run_trace(4, &trace, SyncOptions::default());
        for v in &replicas {
            let from_segments: Vec<_> = v
                .segments()
                .into_iter()
                .flatten()
                .map(|e| (e.site, e.value))
                .collect();
            let from_iter: Vec<_> = v.iter().map(|e| (e.site, e.value)).collect();
            assert_eq!(from_segments, from_iter);
        }
    });
}

#[test]
fn skipped_segments_were_fully_known() {
    cases(48, |_, rng| {
        let trace = steps(rng, 4, 50);
        // Direct check of the §4 segment property at sync time: for every
        // pair, if the receiver knows a segment's first element it must
        // know every element of that segment (value-wise).
        let replicas = run_trace(4, &trace, SyncOptions::default());
        for a in &replicas {
            for b in &replicas {
                for segment in b.segments() {
                    let first = segment[0];
                    if a.value(first.site) >= first.value && first.conflict {
                        for e in &segment {
                            assert!(
                                a.value(e.site) >= e.value,
                                "segment property violated: {} knows {}:{} but not {}:{}",
                                a,
                                first.site,
                                first.value,
                                e.site,
                                e.value
                            );
                        }
                    }
                }
            }
        }
    });
}
