//! The quiet-block estimator and the plain order statistics around it.
//!
//! Interference on a shared box is one-sided: it only ever slows a run
//! down. So the measured phase is cut into consecutive blocks of equal
//! round count, each timing is summarised per block, and the reported
//! value is the *quiet* block — the lowest block median for a time, the
//! highest block rate for a throughput. One undisturbed block in a run
//! reproduces the value; a real regression shifts every block.

/// The `q`-quantile (0 ≤ q ≤ 1), linearly interpolated; 0 for no samples
/// (a metric that did not apply).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, with its value: `(percent, value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    let percent = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)?;
    Some((percent, quantile(samples, percent / 100.0)))
}

/// Which end of the scale is quiet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiet {
    /// Times and costs: the lowest block is the undisturbed one.
    Lowest,
    /// Rates: the highest block is.
    Highest,
}

/// One metric's estimate over the blocks of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The quiet block's value — what is reported and gated.
    pub value: f64,
    /// Samples behind `value` (those of the quiet block).
    pub n: usize,
    /// Median over every sample of the run, blocks ignored.
    pub overall: f64,
    /// Samples in the whole run.
    pub total_n: usize,
    /// `(max − min) / quiet` over the block values: how much the box
    /// moved under the run. For the reader, not for gating.
    pub spread: f64,
}

/// Quiet-block estimate: each block's value is the median of its
/// samples; the quiet end of the block values wins.
pub fn quiet_median(blocks: &[Vec<f64>], quiet: Quiet) -> Estimate {
    let all: Vec<f64> = blocks.iter().flatten().copied().collect();
    let mut est = Estimate {
        value: 0.0,
        n: 0,
        overall: median(&all),
        total_n: all.len(),
        spread: 0.0,
    };
    let (mut lo, mut hi) = (f64::MAX, f64::MIN);
    for block in blocks.iter().filter(|b| !b.is_empty()) {
        let v = median(block);
        lo = lo.min(v);
        hi = hi.max(v);
        let quieter = match quiet {
            Quiet::Lowest => v < est.value,
            Quiet::Highest => v > est.value,
        };
        if est.n == 0 || quieter {
            (est.value, est.n) = (v, block.len());
        }
    }
    if est.n > 0 && est.value > 0.0 {
        est.spread = (hi - lo) / est.value;
    }
    est
}

/// [`quiet_median`] over per-round `samples` cut into `blocks` blocks.
pub fn quiet(samples: &[f64], blocks: usize, quiet: Quiet) -> Estimate {
    quiet_median(&into_blocks(samples, blocks), quiet)
}

/// Cuts `rounds` per-round samples into `blocks` consecutive blocks of
/// equal length (the tail that does not fill a block is dropped — round
/// counts are chosen as multiples, so normally nothing is).
pub fn into_blocks(samples: &[f64], blocks: usize) -> Vec<Vec<f64>> {
    let per = samples.len() / blocks.max(1);
    if per == 0 {
        return vec![samples.to_vec()];
    }
    samples
        .chunks_exact(per)
        .take(blocks)
        .map(<[f64]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 6 blocks × 30 samples around 10.0 with a deterministic ±1 % ripple.
    fn series() -> Vec<Vec<f64>> {
        (0..6)
            .map(|b| {
                (0..30)
                    .map(|i| 10.0 + 0.1 * f64::from((i * 7 + b * 3) % 11 - 5) / 5.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn slow_blocks_do_not_move_the_quiet_median() {
        let clean = quiet_median(&series(), Quiet::Lowest);
        let mut noisy = series();
        // Interference: four of six blocks run 30–80 % slow, and the
        // two clean ones get a few wild outliers each.
        for (b, factor) in [(0, 1.3), (2, 1.8), (3, 1.5), (5, 1.4)] {
            for s in &mut noisy[b] {
                *s *= factor;
            }
        }
        noisy[1][4] *= 20.0;
        noisy[4][9] *= 20.0;
        let est = quiet_median(&noisy, Quiet::Lowest);
        assert!((est.value - clean.value).abs() / clean.value < 0.01);
        // The plain median over all rounds is dragged far away.
        assert!(est.overall > clean.value * 1.2);
        assert!(est.spread > 0.5);
        assert_eq!(est.n, 30);
        assert_eq!(est.total_n, 180);
    }

    #[test]
    fn a_real_regression_shifts_the_quiet_block_too() {
        let base = quiet_median(&series(), Quiet::Lowest).value;
        let slower: Vec<Vec<f64>> = series()
            .into_iter()
            .map(|b| b.into_iter().map(|s| s * 1.1).collect())
            .collect();
        let est = quiet_median(&slower, Quiet::Lowest);
        assert!((est.value / base - 1.1).abs() < 0.005);
    }

    #[test]
    fn rates_take_the_highest_block() {
        let blocks = vec![
            vec![900.0, 910.0, 890.0],
            vec![1000.0; 3],
            vec![400.0, 2000.0, 300.0],
        ];
        let est = quiet_median(&blocks, Quiet::Highest);
        assert_eq!((est.value, est.n, est.total_n), (1000.0, 3, 9));
        assert_eq!(est.overall, 910.0);
        assert!((est.spread - 0.6).abs() < 1e-9);
        assert_eq!(quiet_median(&blocks, Quiet::Lowest).value, 400.0);
        assert_eq!(quiet_median(&[], Quiet::Lowest).n, 0);
    }

    #[test]
    fn quantiles_interpolate_and_tail_needs_ten_beyond() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&s), 100.5);
        assert_eq!(tail(&s).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&s[..20]), None);
        assert_eq!(tail(&s[..40]).map(|t| t.0), Some(75.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn blocks_are_equal_and_consecutive() {
        let s: Vec<f64> = (0..13).map(f64::from).collect();
        let blocks = into_blocks(&s, 3);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[1], vec![4.0, 5.0, 6.0, 7.0]);
        assert_eq!(into_blocks(&s[..2], 6), vec![vec![0.0, 1.0]]);
    }
}
