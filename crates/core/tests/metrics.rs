//! Histogram unit suite: bucket boundaries, merge, and p50/p99 against
//! a sorted-vec oracle.
//!
//! The metrics [`Histogram`] trades resolution for a fixed footprint:
//! log2 buckets mean any quantile estimate is the upper bound of the
//! bucket holding the true order statistic, i.e. `oracle <= estimate
//! <= 2*oracle` (exact at 0). The seeded tests here pin that bound
//! for arbitrary samples and arbitrary quantiles, and check that
//! merging histograms is exactly recording the concatenated samples.

use optrep_core::obs::{bucket_bound, bucket_index, Histogram, BUCKETS};
use optrep_core::rng::{cases, SplitMix64};

/// The true order statistic the histogram estimate is compared against:
/// rank ⌈q·n⌉ of the sorted samples, matching `HistogramSnapshot`'s
/// rank arithmetic.
fn oracle_quantile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The estimate is exactly the oracle's bucket bound, which pins the
/// log2 resolution guarantee: `oracle <= estimate < 2*oracle` (exact
/// at zero, since bucket 0 holds only the value 0).
fn assert_within_bucket_resolution(estimate: u64, oracle: u64, q: f64) {
    assert_eq!(
        estimate,
        bucket_bound(bucket_index(oracle)),
        "q={q}: estimate {estimate} is not oracle {oracle}'s bucket bound"
    );
    assert!(estimate >= oracle, "q={q}: {estimate} < oracle {oracle}");
    if oracle == 0 {
        assert_eq!(estimate, 0, "q={q}");
    } else if let Some(double) = oracle.checked_mul(2) {
        assert!(
            estimate < double,
            "q={q}: estimate {estimate} not within 2x of oracle {oracle}"
        );
    }
}

#[test]
fn bucket_bounds_are_strictly_increasing_and_cover_u64() {
    let mut prev = None;
    for i in 0..BUCKETS {
        let bound = bucket_bound(i);
        if let Some(p) = prev {
            assert!(bound > p, "bucket {i} bound {bound} <= previous {p}");
        }
        prev = Some(bound);
    }
    assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
    // Boundary values land where the bound arithmetic says they do.
    for i in 1..BUCKETS - 1 {
        let bound = bucket_bound(i);
        assert_eq!(bucket_index(bound), i);
        assert_eq!(bucket_index(bound + 1), i + 1);
    }
}

#[test]
fn empty_histogram_is_all_zero() {
    let h = Histogram::new();
    assert_eq!(h.count(), 0);
    assert_eq!(h.sum(), 0);
    assert_eq!(h.quantile(0.5), 0);
    assert_eq!(h.snapshot().p99(), 0);
}

#[test]
fn single_value_quantiles_hit_its_bucket_bound() {
    let h = Histogram::new();
    h.record(1000);
    let snap = h.snapshot();
    let expected = bucket_bound(bucket_index(1000));
    assert_eq!(snap.p50(), expected);
    assert_eq!(snap.p99(), expected);
    assert_eq!(snap.sum, 1000);
    assert_eq!(snap.count, 1);
}

#[test]
fn extremes_record_without_overflow() {
    let h = Histogram::new();
    h.record(0);
    h.record(u64::MAX);
    let snap = h.snapshot();
    assert_eq!(snap.counts[0], 1);
    assert_eq!(snap.counts[BUCKETS - 1], 1);
    assert_eq!(snap.p50(), 0);
    assert_eq!(snap.p99(), u64::MAX);
}

/// A word of any magnitude, so every bucket is drawn.
fn word(rng: &mut SplitMix64) -> u64 {
    rng.next_u64() >> rng.below(64)
}

#[test]
fn quantiles_track_sorted_vec_oracle() {
    cases(256, |_, rng| {
        let mut samples: Vec<u64> = (0..rng.range(1..400))
            .map(|_| rng.below(1_000_000) as u64)
            .collect();
        let q = rng.below(1001) as f64 / 1000.0;
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, samples.len() as u64);
        assert_eq!(snap.sum, samples.iter().sum::<u64>());
        for (quant, est) in [
            (0.50, snap.p50()),
            (0.99, snap.p99()),
            (q, snap.quantile(q)),
        ] {
            let oracle = oracle_quantile(&mut samples, quant);
            assert_within_bucket_resolution(est, oracle, quant);
        }
    });
}

#[test]
fn merge_equals_recording_concatenation() {
    cases(256, |_, rng| {
        let left = Histogram::new();
        let right = Histogram::new();
        let both = Histogram::new();
        for _ in 0..rng.below(200) {
            let s = word(rng);
            left.record(s);
            both.record(s);
        }
        for _ in 0..rng.below(200) {
            let s = word(rng);
            right.record(s);
            both.record(s);
        }
        left.merge(&right);
        assert_eq!(left.snapshot(), both.snapshot());
    });
}

#[test]
fn every_value_lands_in_its_bound_bucket() {
    cases(256, |_, rng| {
        let v = word(rng);
        let i = bucket_index(v);
        assert!(v <= bucket_bound(i));
        if i > 0 {
            assert!(v > bucket_bound(i - 1));
        }
    });
}
