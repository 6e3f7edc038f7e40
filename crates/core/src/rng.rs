//! The workspace's one seeded generator, its one case runner and its one
//! hash of bytes.
//!
//! Every schedule, fixture and fault decision in the workspace draws from
//! [`SplitMix64`]: a 64-bit state stepped by the golden-ratio increment and
//! finalised by Stafford's mix 13 — the
//! [reference algorithm](https://prng.di.unimi.it/splitmix64.c), whose first
//! words from seed 0 the tests below pin. It is dependency-free and
//! identical on every platform, so a seed names one run: pinned transcript
//! hashes, `FaultPlan` outcomes and `BENCH_*.json` rows are functions of it.
//!
//! [`cases`] is the test idiom that replaces a property-testing framework:
//! N seeded cases, the failing seed named on stderr. There is no shrinking —
//! keep the inputs a case draws small enough to read — and no replay
//! switch: to replay seed `s`, call the case with `s` and
//! `SplitMix64::new(s)`.
//!
//! [`fold`] is every hash of bytes but the shard map's (FNV-1a a byte a
//! step, `replication::planner::placement`): entry hashes, the digest
//! vector's check, and the log's and the snapshot's checksums fold a
//! word a step, and [`ByteFold`] folds a byte stream however it is split.
//!
//! `crates/perf/src/rng.rs` keeps its own copy of the step: the benchmark's
//! files are frozen by `BENCHMARK.json`, and this crate cannot depend on
//! `optrep-perf` to compare against it. A `benchmark` issue re-points it.

use std::io::Write;
use std::ops::Range;

/// SplitMix64 (Steele, Lea & Flood 2014; Vigna's reference constants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The generator whose first state is `seed` plus one increment.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next pseudo-random word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        finalize(self.0)
    }

    /// Uniform in `0..bound`: one word modulo `bound` (the bias is below
    /// 2⁻⁴⁰ at every size drawn here).
    ///
    /// # Panics
    ///
    /// If `bound` is zero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `range`.
    ///
    /// # Panics
    ///
    /// If `range` is empty.
    pub fn range(&mut self, range: Range<usize>) -> usize {
        range.start + self.below(range.end - range.start)
    }

    /// `true` with probability `p` (never for `p ≤ 0`, always for `p ≥ 1`).
    pub fn chance(&mut self, p: f64) -> bool {
        // 53 random bits: every value is exactly representable.
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// Fisher–Yates: every permutation of `items` equally likely.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A uniformly chosen element; `None`, drawing nothing, if there is none.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            return None;
        }
        items.get(self.below(items.len()))
    }
}

/// SplitMix64's finalizer (Stafford's mix 13): a bijection of the word
/// in which every input bit flips each output bit with probability about
/// one half. A wrapping sum of finalized hashes is an incremental
/// multiset hash (Clarke et al., "MSet-Add-Hash"): moves of a few
/// entries' raw hashes that cancel in a plain sum do not cancel here.
#[must_use]
pub const fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where every [`fold`] begins: FNV-1a's 64-bit offset basis.
pub const FOLD_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One step of the workspace's hash of bytes: `word` xored into `hash`,
/// times FNV-1a's 64-bit prime, rotated left 29. Each of the three is a
/// bijection of the running value, so two inputs that differ in one
/// word — a field, or 8 bytes of a stream — never fold to one value
/// from one start, and a change confined to one word is always seen.
#[inline]
#[must_use]
pub const fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(29)
}

/// `bytes` folded from `hash` behind their length: the length, then
/// each 8 bytes as a little-endian word, the last word zero-padded. The
/// length keeps `"ab"` and `"ab\0"` apart.
#[inline]
#[must_use]
pub fn fold_bytes(hash: u64, bytes: &[u8]) -> u64 {
    let mut stream = ByteFold::new(hash, bytes.len() as u64);
    stream.eat(bytes);
    stream.sum()
}

/// [`fold_bytes`] over bytes that arrive in pieces: the same value
/// however they are split, holding at most seven of them unfolded.
#[derive(Debug, Clone)]
pub struct ByteFold {
    hash: u64,
    held: [u8; 8],
    count: usize,
}

impl ByteFold {
    /// The fold of `len` bytes from `hash`, before any of them.
    #[inline]
    #[must_use]
    pub const fn new(hash: u64, len: u64) -> Self {
        ByteFold {
            hash: fold(hash, len),
            held: [0; 8],
            count: 0,
        }
    }

    /// Folds `bytes` in behind those before them.
    #[inline]
    pub fn eat(&mut self, mut bytes: &[u8]) {
        if self.count > 0 {
            let take = bytes.len().min(8 - self.count);
            self.held[self.count..self.count + take].copy_from_slice(&bytes[..take]);
            self.count += take;
            bytes = &bytes[take..];
            if self.count < 8 {
                return;
            }
            self.hash = fold(self.hash, u64::from_le_bytes(self.held));
            self.count = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("a chunk of 8"));
            self.hash = fold(self.hash, word);
        }
        let rest = words.remainder();
        self.held[..rest.len()].copy_from_slice(rest);
        self.count = rest.len();
    }

    /// The fold of every byte eaten, the held ones zero-padded.
    #[inline]
    #[must_use]
    pub fn sum(&self) -> u64 {
        match self.count {
            0 => self.hash,
            count => {
                let mut last = [0; 8];
                last[..count].copy_from_slice(&self.held[..count]);
                fold(self.hash, u64::from_le_bytes(last))
            }
        }
    }
}

/// Mixes two words into one seed, for deriving per-contact plans from
/// a master seed plus a contact index.
#[must_use]
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0xff51_afd7_ed55_8ccd)).next_u64()
}

/// Runs `case(seed, &mut SplitMix64::new(seed))` for every seed in `0..n`.
/// If a case panics, the seed it ran with is written to stderr before the
/// panic propagates.
pub fn cases(n: u64, case: impl FnMut(u64, &mut SplitMix64)) {
    cases_to(&mut std::io::stderr(), n, case);
}

fn cases_to(out: &mut dyn Write, n: u64, mut case: impl FnMut(u64, &mut SplitMix64)) {
    struct NameOnPanic<'a>(u64, &'a mut dyn Write);
    impl Drop for NameOnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let seed = self.0;
                // A failed write must not panic inside a panic.
                let _ = writeln!(
                    self.1,
                    "case failed: seed = {seed} (replay: call the case with {seed} and SplitMix64::new({seed}))"
                );
            }
        }
    }
    for seed in 0..n {
        let _named = NameOnPanic(seed, &mut *out);
        case(seed, &mut SplitMix64::new(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn sequence_matches_the_reference_algorithm() {
        assert_eq!(
            words(0, 5),
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
                0x1b39_896a_51a8_749b,
            ]
        );
        assert_eq!(
            words(u64::MAX, 5),
            [
                0xe4d9_7177_1b65_2c20,
                0xe99f_f867_dbf6_82c9,
                0x382f_f84c_b272_81e9,
                0x6d1d_b36c_cba9_82d2,
                0xb4a0_472e_5780_69ae,
            ]
        );
    }

    #[test]
    fn mix_seed_is_unchanged() {
        assert_eq!(mix_seed(0, 0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix_seed(42, 0x6c69_6e6b), 0x1dbc_1958_c213_a2df);
        assert_eq!(mix_seed(u64::MAX, u64::MAX), 0x3ece_2d6c_caab_2e83);
    }

    /// Bytes fold as the words they make behind their length, the last
    /// zero-padded: nine bytes are three steps.
    #[test]
    fn bytes_fold_as_words_behind_their_length() {
        let bytes: Vec<u8> = (1..=9).collect();
        let words = [9, 0x0807_0605_0403_0201, 9];
        let by_hand = words
            .iter()
            .fold(FOLD_BASIS, |hash, &word| fold(hash, word));
        assert_eq!(fold_bytes(FOLD_BASIS, &bytes), by_hand);
        assert_eq!(fold_bytes(FOLD_BASIS, b""), fold(FOLD_BASIS, 0));
        assert_ne!(
            fold_bytes(FOLD_BASIS, b"ab"),
            fold_bytes(FOLD_BASIS, b"ab\0")
        );
    }

    #[test]
    fn draws_stay_in_bounds_and_shuffle_permutes() {
        let mut rng = SplitMix64::new(0xB0_0D5);
        for _ in 0..10_000 {
            let bound = 1 + rng.below(1000);
            assert!(rng.below(bound) < bound);
            let start = rng.below(1000);
            assert!((start..start + bound).contains(&rng.range(start..start + bound)));
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));

            let mut items: Vec<usize> = (0..bound % 40).collect();
            rng.shuffle(&mut items);
            match rng.pick(&items) {
                Some(picked) => assert!(items.contains(picked)),
                None => assert!(items.is_empty()),
            }
            items.sort_unstable();
            assert!(items.iter().copied().eq(0..bound % 40));
        }
        let heads = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!(
            (2_300..2_700).contains(&heads),
            "{heads} of 10 000 at p = ¼"
        );
        let before = rng.clone();
        assert_eq!(rng.pick::<u8>(&[]), None);
        assert_eq!(rng, before, "an empty pick draws nothing");
    }

    #[test]
    fn a_panicking_case_names_its_seed_and_the_seed_replays() {
        let mut out = Vec::new();
        let mut drawn = Vec::new();
        let unwound = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cases_to(&mut out, 8, |seed, rng| {
                            drawn = vec![rng.next_u64(), rng.next_u64()];
                            assert!(seed != 5, "the case that fails");
                        });
                    }))
                })
                .join()
                .expect("the helper thread caught the panic")
        });
        assert!(unwound.is_err(), "the panic propagates out of `cases`");
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("seed = 5"), "{out:?}");
        assert_eq!(out.lines().count(), 1, "only the failing seed: {out:?}");
        assert_eq!(drawn, words(5, 2), "replaying seed 5 draws the same words");
    }

    #[test]
    fn cases_runs_every_seed_once_in_order() {
        let mut seen = Vec::new();
        cases(6, |seed, rng| {
            assert_eq!(*rng, SplitMix64::new(seed));
            seen.push(seed);
        });
        assert_eq!(seen, [0, 1, 2, 3, 4, 5]);
    }
}
