//! Classic version vectors (Parker et al. 1983) — the reference metadata.
//!
//! A [`VersionVector`] maps each site to the number of updates made on that
//! site. It is the paper's §2.2 baseline: minimal in storage among known
//! accurate conflict-detection schemes, but traditionally synchronized by
//! shipping the *entire* vector. The rotating implementations in
//! [`crate::rotating`] keep the same state while transferring only
//! differences; this plain type serves as the reference model against which
//! they are property-tested, and as the full-transfer baseline for the
//! communication benchmarks.

use crate::causality::Causality;
use crate::site::SiteId;
use std::collections::HashMap;
use std::fmt;

/// A version vector: per-site update counters with element-wise comparison.
///
/// Zero-valued elements are implicit — a site absent from the map has made
/// no updates. All operations treat absent entries as `0`.
///
/// ```
/// use optrep_core::{VersionVector, SiteId, Causality};
/// let (a, b) = (SiteId::new(0), SiteId::new(1));
/// let mut va = VersionVector::new();
/// let mut vb = VersionVector::new();
/// va.increment(a);
/// vb.increment(a);
/// vb.increment(b);
/// assert_eq!(va.compare(&vb), Causality::Before);
/// va.merge(&vb);
/// assert_eq!(va.compare(&vb), Causality::Equal);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionVector {
    counts: HashMap<SiteId, u64>,
}

impl VersionVector {
    /// Creates an empty vector (all sites at zero updates).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from explicit `(site, value)` pairs.
    ///
    /// Zero values are dropped so that logically equal vectors are
    /// structurally equal.
    pub fn from_pairs<I: IntoIterator<Item = (SiteId, u64)>>(pairs: I) -> Self {
        let mut vv = Self::new();
        for (site, value) in pairs {
            vv.set(site, value);
        }
        vv
    }

    /// The value `v[i]` for site `i` (zero if the site never updated).
    pub fn value(&self, site: SiteId) -> u64 {
        self.counts.get(&site).copied().unwrap_or(0)
    }

    /// Sets `v[i]` directly. A zero removes the entry.
    pub fn set(&mut self, site: SiteId, value: u64) {
        if value == 0 {
            self.counts.remove(&site);
        } else {
            self.counts.insert(site, value);
        }
    }

    /// Records one local update on `site` (`v[i] ← v[i] + 1`) and returns
    /// the new value.
    pub fn increment(&mut self, site: SiteId) -> u64 {
        let v = self.counts.entry(site).or_insert(0);
        *v += 1;
        *v
    }

    /// Number of sites with a non-zero value.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` iff no site has updated yet.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(site, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, u64)> + '_ {
        self.counts.iter().map(|(&s, &v)| (s, v))
    }

    /// Element-wise maximum: `self[i] ← max(self[i], other[i])` for all `i`.
    ///
    /// This is the vector half of replica synchronization (§2.2). Returns
    /// the number of elements whose value changed (the paper's `|Δ|`).
    pub fn merge(&mut self, other: &VersionVector) -> usize {
        let mut changed = 0;
        for (site, &v) in &other.counts {
            let mine = self.counts.entry(*site).or_insert(0);
            if v > *mine {
                *mine = v;
                changed += 1;
            }
        }
        changed
    }

    /// The set `Δ = {i : other[i] > self[i]}` — elements that a sync from
    /// `other` into `self` must transfer (Table 1).
    pub fn delta_from(&self, other: &VersionVector) -> Vec<(SiteId, u64)> {
        let mut delta: Vec<(SiteId, u64)> = other
            .counts
            .iter()
            .filter(|(site, &v)| v > self.value(**site))
            .map(|(&s, &v)| (s, v))
            .collect();
        delta.sort_unstable();
        delta
    }

    /// Full `O(n)` causal comparison (the "well known algorithm" of §3.1).
    ///
    /// Used as the reference for the rotating vectors' O(1)
    /// [`RotatingVector::compare`](crate::rotating::RotatingVector::compare).
    pub fn compare(&self, other: &VersionVector) -> Causality {
        let mut less = false; // some self[i] < other[i]
        let mut greater = false; // some self[i] > other[i]
        for (site, &v) in &self.counts {
            let o = other.value(*site);
            if v < o {
                less = true;
            } else if v > o {
                greater = true;
            }
        }
        for (site, &v) in &other.counts {
            if self.value(*site) < v {
                less = true;
            }
        }
        match (less, greater) {
            (false, false) => Causality::Equal,
            (true, false) => Causality::Before,
            (false, true) => Causality::After,
            (true, true) => Causality::Concurrent,
        }
    }

    /// `true` iff `self[i] ≥ other[i]` for all `i` (self dominates other).
    pub fn dominates(&self, other: &VersionVector) -> bool {
        matches!(self.compare(other), Causality::Equal | Causality::After)
    }

    /// Sum of all per-site counters — the total number of updates the
    /// replica's history reflects.
    pub fn total_updates(&self) -> u64 {
        self.counts.values().sum()
    }
}

impl FromIterator<(SiteId, u64)> for VersionVector {
    fn from_iter<I: IntoIterator<Item = (SiteId, u64)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

impl Extend<(SiteId, u64)> for VersionVector {
    fn extend<I: IntoIterator<Item = (SiteId, u64)>>(&mut self, iter: I) {
        for (site, value) in iter {
            if value > self.value(site) {
                self.set(site, value);
            }
        }
    }
}

impl fmt::Display for VersionVector {
    /// Formats as the paper writes vectors: `⟨A:2, B:1, C:3⟩`, sites sorted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut pairs: Vec<_> = self.iter().collect();
        pairs.sort_unstable();
        write!(f, "\u{27e8}")?;
        for (i, (site, value)) in pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{site}:{value}")?;
        }
        write!(f, "\u{27e9}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SiteId {
        SiteId::new(i)
    }

    #[test]
    fn empty_vectors_are_equal() {
        assert_eq!(
            VersionVector::new().compare(&VersionVector::new()),
            Causality::Equal
        );
    }

    #[test]
    fn increment_and_value() {
        let mut v = VersionVector::new();
        assert_eq!(v.value(s(0)), 0);
        assert_eq!(v.increment(s(0)), 1);
        assert_eq!(v.increment(s(0)), 2);
        assert_eq!(v.value(s(0)), 2);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn compare_all_four_outcomes() {
        let a = VersionVector::from_pairs([(s(0), 2), (s(1), 1)]);
        let b = VersionVector::from_pairs([(s(0), 2), (s(1), 1)]);
        assert_eq!(a.compare(&b), Causality::Equal);

        let b2 = VersionVector::from_pairs([(s(0), 3), (s(1), 1)]);
        assert_eq!(a.compare(&b2), Causality::Before);
        assert_eq!(b2.compare(&a), Causality::After);

        let c = VersionVector::from_pairs([(s(0), 1), (s(1), 2)]);
        assert_eq!(a.compare(&c), Causality::Concurrent);
    }

    #[test]
    fn absent_entries_count_as_zero() {
        let a = VersionVector::from_pairs([(s(0), 1)]);
        let b = VersionVector::new();
        assert_eq!(a.compare(&b), Causality::After);
        assert_eq!(b.compare(&a), Causality::Before);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn merge_is_elementwise_max() {
        let mut a = VersionVector::from_pairs([(s(0), 5), (s(1), 1)]);
        let b = VersionVector::from_pairs([(s(0), 2), (s(1), 4), (s(2), 1)]);
        let changed = a.merge(&b);
        assert_eq!(changed, 2); // B and C advanced
        assert_eq!(
            a,
            VersionVector::from_pairs([(s(0), 5), (s(1), 4), (s(2), 1)])
        );
    }

    #[test]
    fn delta_lists_strictly_newer_elements() {
        let a = VersionVector::from_pairs([(s(0), 5), (s(1), 1)]);
        let b = VersionVector::from_pairs([(s(0), 2), (s(1), 4), (s(2), 1)]);
        assert_eq!(a.delta_from(&b), vec![(s(1), 4), (s(2), 1)]);
        assert_eq!(b.delta_from(&a), vec![(s(0), 5)]);
    }

    #[test]
    fn zero_set_removes_entry() {
        let mut a = VersionVector::from_pairs([(s(0), 1)]);
        a.set(s(0), 0);
        assert!(a.is_empty());
        assert_eq!(a, VersionVector::new());
    }

    #[test]
    fn display_matches_paper_notation() {
        let v = VersionVector::from_pairs([(s(2), 3), (s(0), 2), (s(1), 1)]);
        assert_eq!(v.to_string(), "⟨A:2, B:1, C:3⟩");
        assert_eq!(VersionVector::new().to_string(), "⟨⟩");
    }

    #[test]
    fn extend_takes_elementwise_max() {
        let mut a = VersionVector::from_pairs([(s(0), 3)]);
        a.extend([(s(0), 1), (s(1), 2)]);
        assert_eq!(a, VersionVector::from_pairs([(s(0), 3), (s(1), 2)]));
    }

    #[test]
    fn total_updates_sums_counters() {
        let v = VersionVector::from_pairs([(s(0), 3), (s(5), 4)]);
        assert_eq!(v.total_updates(), 7);
    }
}
