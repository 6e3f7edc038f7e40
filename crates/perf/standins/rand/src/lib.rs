//! Offline stand-in for the `rand` crate.
//!
//! The library crates only need the `Rng` bound and `SliceRandom`'s
//! `shuffle`/`choose` (gossip scheduling); the benchmark itself never
//! calls them and draws its own numbers from `optrep_perf::rng`.

/// A source of 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// The bound generic call sites name; every [`RngCore`] is an `Rng`.
pub trait Rng: RngCore {}
impl<R: RngCore + ?Sized> Rng for R {}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub mod seq {
    use super::Rng;

    /// Uniform-ish index below `bound` (modulo bias is irrelevant here).
    fn below<R: Rng + ?Sized>(rng: &mut R, bound: usize) -> usize {
        (rng.next_u64() % bound as u64) as usize
    }

    pub trait SliceRandom {
        type Item;
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, below(rng, i + 1));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[below(rng, self.len())])
            }
        }
    }
}
