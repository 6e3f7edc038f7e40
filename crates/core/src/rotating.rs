//! The three rotating-vector implementations: [`Brv`], [`Crv`] and [`Srv`].
//!
//! All three share the ordered representation of [`crate::order::RotCore`]
//! and differ only in which per-element bits their synchronization protocol
//! uses:
//!
//! | Type | Extra bits | Sync protocol | Handles reconciliation | Comm. complexity |
//! |------|-----------|----------------|------------------------|------------------|
//! | [`Brv`] | none | `SYNCB` | no (`a ∦ b` required) | `O(\|Δ\|)` — optimal |
//! | [`Crv`] | conflict | `SYNCC` | yes | `O(\|Δ\|+\|Γ\|)` |
//! | [`Srv`] | conflict + segment | `SYNCS` | yes | `O(\|Δ\|+γ)` — optimal |
//!
//! The types are deliberately distinct so that the type system prevents,
//! say, running `SYNCS` against a BRV that never maintained segment bits.

use crate::causality::Causality;
use crate::compare::compare_first_elements;
use crate::order::{Element, Iter, RotCore};
use crate::site::SiteId;
use crate::vv::VersionVector;
use std::fmt;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Brv {}
    impl Sealed for super::Crv {}
    impl Sealed for super::Srv {}
}

/// Operations common to all rotating-vector implementations.
///
/// This trait is sealed: the three implementations ([`Brv`], [`Crv`],
/// [`Srv`]) are fixed by the paper and the sync protocols rely on their
/// invariants.
pub trait RotatingVector: sealed::Sealed + Clone + fmt::Debug + fmt::Display {
    /// The value `v[i]` for site `i` (zero if the site never updated).
    fn value(&self, site: SiteId) -> u64;

    /// Records one local replica update on `site`: increments `v[i]` and
    /// rotates the element to the front of `≺` (§3.1).
    fn record_update(&mut self, site: SiteId) -> u64;

    /// Number of elements (sites with at least one update).
    fn len(&self) -> usize;

    /// `true` iff no site has updated yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The least (first) element `⌊v⌋` — the most recent update.
    fn first(&self) -> Option<Element>;

    /// The greatest (last) element `⌈v⌉`.
    fn last(&self) -> Option<Element>;

    /// Iterates elements in `≺` order.
    fn iter(&self) -> Iter<'_>;

    /// The paper's Algorithm 1 `COMPARE`: O(1) causal comparison using only
    /// the first elements of both vectors.
    ///
    /// Correctness relies on the front-element invariant: the first element
    /// always names the latest event in the replica's causal history. The
    /// invariant holds provided reconciliation is always followed by a
    /// local [`record_update`](Self::record_update) (Parker §C), which the
    /// replication layer enforces.
    fn compare(&self, other: &Self) -> Causality;

    /// Copies the values into a plain [`VersionVector`] (dropping order and
    /// bits). The rotating vectors are *implementations* of version
    /// vectors: this is the state they represent.
    fn to_version_vector(&self) -> VersionVector;

    /// Read access to the underlying ordered store, exposing segment
    /// structure for inspection and experiments.
    fn as_core(&self) -> &RotCore;
}

macro_rules! rotating_vector_type {
    ($(#[$doc:meta])* $name:ident, marks: $conflict_mark:expr, $segment_mark:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $name {
            core: RotCore,
        }

        impl $name {
            /// Creates an empty vector.
            pub fn new() -> Self {
                Self::default()
            }

            /// Builds a vector with an explicit order for tests and
            /// scripted scenarios: the first listed element becomes `⌊v⌋`.
            pub fn from_order<I>(elements: I) -> Self
            where
                I: IntoIterator<Item = Element>,
                I::IntoIter: DoubleEndedIterator,
            {
                let mut core = RotCore::new();
                // Insert back-to-front so rotate-to-front yields the listed order.
                for e in elements.into_iter().rev() {
                    core.rotate(None, e.site);
                    core.write(e.site, e.value, e.conflict, e.segment);
                }
                Self { core }
            }

            /// Replaces this vector with an exact structural copy of
            /// `other` (used by whole-state adoption during manual conflict
            /// resolution).
            pub fn adopt(&mut self, other: &Self) {
                self.core.clone_from_other(&other.core);
            }

            /// Removes the elements of retired sites (the §7 inactive-site
            /// pruning extension). The caller must ensure — through a
            /// membership protocol outside this crate's scope — that every
            /// replica agrees the sites retired and their updates are fully
            /// propagated; a stale peer simply re-introduces the element on
            /// its next sync. Returns the number of elements removed.
            pub fn retire_sites(&mut self, keep: impl Fn(SiteId) -> bool) -> usize {
                self.core.retain_sites(keep)
            }

            /// Serializes the vector (values, order and bits) into a
            /// compact snapshot for durable persistence.
            pub fn encode_snapshot(&self) -> bytes::Bytes {
                self.core.encode_snapshot()
            }

            /// Rebuilds a vector from
            /// [`encode_snapshot`](Self::encode_snapshot) output, read
            /// from a `Bytes` or from a `&[u8]`.
            ///
            /// # Errors
            ///
            /// Returns a [`crate::error::WireError`] on truncated or
            /// malformed input.
            pub fn decode_snapshot(
                buf: &mut impl bytes::Buf,
            ) -> std::result::Result<Self, crate::error::WireError> {
                Ok(Self {
                    core: RotCore::decode_snapshot(buf)?,
                })
            }

            pub(crate) fn core_mut(&mut self) -> &mut RotCore {
                &mut self.core
            }
        }

        impl RotatingVector for $name {
            fn value(&self, site: SiteId) -> u64 {
                self.core.value(site)
            }

            fn record_update(&mut self, site: SiteId) -> u64 {
                self.core.record_update(site)
            }

            fn len(&self) -> usize {
                self.core.len()
            }

            fn first(&self) -> Option<Element> {
                self.core.first()
            }

            fn last(&self) -> Option<Element> {
                self.core.last()
            }

            fn iter(&self) -> Iter<'_> {
                self.core.iter()
            }

            fn compare(&self, other: &Self) -> Causality {
                compare_first_elements(&self.core, &other.core)
            }

            fn to_version_vector(&self) -> VersionVector {
                self.core.to_version_vector()
            }

            fn as_core(&self) -> &RotCore {
                &self.core
            }
        }

        impl fmt::Display for $name {
            /// Formats in the paper's `⟨C:3, A:2, B:1⟩≺` notation. Elements
            /// with the conflict bit set are suffixed with `*` (the paper
            /// draws a bar above them); segment boundaries are rendered as
            /// `∣` after the boundary element.
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "\u{27e8}")?;
                for (i, e) in self.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}:{}", e.site, e.value)?;
                    if $conflict_mark && e.conflict {
                        write!(f, "*")?;
                    }
                    if $segment_mark && e.segment {
                        write!(f, " \u{2223}")?;
                    }
                }
                write!(f, "\u{27e9}")
            }
        }
    };
}

rotating_vector_type! {
    /// Basic rotating vector (§3.1): a version vector paired with a total
    /// order of elements, rotated to the front on update.
    ///
    /// `SYNCB` synchronizes BRVs with `O(|Δ|)` communication — optimal —
    /// but requires comparable vectors (`a ∦ b`), so BRV only suits systems
    /// with manual conflict resolution (no reconciliation).
    ///
    /// ```
    /// use optrep_core::{Brv, RotatingVector, SiteId};
    /// let mut v = Brv::new();
    /// v.record_update(SiteId::new(2)); // C:1
    /// v.record_update(SiteId::new(0)); // A:1
    /// assert_eq!(v.to_string(), "⟨A:1, C:1⟩");
    /// assert_eq!(v.first().unwrap().site, SiteId::new(0));
    /// ```
    Brv, marks: false, false
}

rotating_vector_type! {
    /// Conflict rotating vector (§3.2): a [`Brv`] plus one conflict bit per
    /// element, letting `SYNCC` synchronize *concurrent* vectors
    /// (reconciliation) at `O(|Δ|+|Γ|)` communication.
    ///
    /// Elements modified during reconciliation are tagged so later syncs do
    /// not halt early behind them; the tag costs redundant retransmission
    /// (`Γ`) proportional to the conflict rate.
    Crv, marks: true, false
}

rotating_vector_type! {
    /// Skip rotating vector (§4): a [`Crv`] plus one segment bit per
    /// element. Segment bits mark the last element of each *prefixing
    /// segment* of the coalesced replication graph, letting `SYNCS` skip
    /// whole segments the receiver already knows. Communication is
    /// `O(|Δ|+γ)`, matching the lower bound of Theorem 5.1.
    Srv, marks: true, true
}

// A store pays this header once per key (`optrep-kv`'s `Entry`): slab
// pointer/capacity/length, the optional index and the two ends of `≺`.
const _: () = assert!(std::mem::size_of::<Srv>() <= 40);

impl Srv {
    /// The vector's segments in `≺` order (§4): maximal element runs ending
    /// at a set segment bit, the final run possibly open.
    ///
    /// ```
    /// use optrep_core::{Srv, RotatingVector, SiteId};
    /// let mut v = Srv::new();
    /// v.record_update(SiteId::new(0));
    /// assert_eq!(v.segments().len(), 1);
    /// ```
    pub fn segments(&self) -> Vec<Vec<Element>> {
        self.core.segments()
    }
}

/// Convenience constructor for an [`Element`] with both bits clear.
///
/// ```
/// use optrep_core::rotating::elem;
/// use optrep_core::SiteId;
/// let e = elem(SiteId::new(0), 3);
/// assert!(!e.conflict && !e.segment);
/// ```
pub fn elem(site: SiteId, value: u64) -> Element {
    Element {
        site,
        value,
        conflict: false,
        segment: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SiteId {
        SiteId::new(i)
    }

    #[test]
    fn compare_empty_and_nonempty() {
        let a = Brv::new();
        let mut b = Brv::new();
        assert_eq!(a.compare(&b), Causality::Equal);
        b.record_update(s(0));
        assert_eq!(a.compare(&b), Causality::Before);
        assert_eq!(b.compare(&a), Causality::After);
    }

    #[test]
    fn compare_matches_paper_example() {
        // θ1 = ⟨A:2, B:1⟩ and θ2 = ⟨B:2, A:1⟩ are concurrent (§3.2).
        let t1 = Brv::from_order([elem(s(0), 2), elem(s(1), 1)]);
        let t2 = Brv::from_order([elem(s(1), 2), elem(s(0), 1)]);
        assert_eq!(t1.compare(&t2), Causality::Concurrent);
        assert_eq!(t2.compare(&t1), Causality::Concurrent);
    }

    #[test]
    fn compare_ordered_vectors() {
        // a = ⟨A:1⟩, b = ⟨B:1, A:1⟩: a ≺ b.
        let a = Brv::from_order([elem(s(0), 1)]);
        let b = Brv::from_order([elem(s(1), 1), elem(s(0), 1)]);
        assert_eq!(a.compare(&b), Causality::Before);
        assert_eq!(b.compare(&a), Causality::After);
        assert_eq!(a.compare(&a.clone()), Causality::Equal);
    }

    #[test]
    fn compare_agrees_with_reference_on_updates() {
        // Build two *legal* histories (each site only increments its own
        // element; replicas fork by cloning) and check the O(1) compare
        // against the O(n) reference at every step.
        let mut a = Brv::new();
        for i in 0..5u32 {
            a.record_update(s(i % 2));
        }
        // b forks from a (replication), then each side updates disjoint
        // sites: the histories become concurrent.
        let mut b = a.clone();
        assert_eq!(a.compare(&b), Causality::Equal);
        for i in 0..10u32 {
            if i % 2 == 0 {
                a.record_update(s(0));
            } else {
                b.record_update(s(7 + i % 3));
            }
            let reference = a.to_version_vector().compare(&b.to_version_vector());
            assert_eq!(a.compare(&b), reference, "step {i}");
        }
        // A pure fast-forward fork stays ordered.
        let c = a.clone();
        a.record_update(s(1));
        assert_eq!(c.compare(&a), Causality::Before);
        assert_eq!(a.compare(&c), Causality::After);
    }

    #[test]
    fn from_order_preserves_listing() {
        let v = Srv::from_order([
            Element {
                site: s(2),
                value: 3,
                conflict: true,
                segment: true,
            },
            elem(s(0), 2),
            elem(s(1), 1),
        ]);
        let got: Vec<_> = v.iter().collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].site, s(2));
        assert!(got[0].conflict && got[0].segment);
        assert_eq!(got[1].site, s(0));
        assert_eq!(got[2].site, s(1));
        assert_eq!(v.first().unwrap().site, s(2));
        assert_eq!(v.last().unwrap().site, s(1));
    }

    #[test]
    fn display_notation() {
        let v = Crv::from_order([
            Element {
                site: s(0),
                value: 2,
                conflict: true,
                segment: false,
            },
            elem(s(1), 2),
        ]);
        assert_eq!(v.to_string(), "⟨A:2*, B:2⟩");
        let v = Srv::from_order([
            Element {
                site: s(2),
                value: 1,
                conflict: false,
                segment: true,
            },
            elem(s(0), 1),
        ]);
        assert_eq!(v.to_string(), "⟨C:1 ∣, A:1⟩");
    }

    #[test]
    fn adopt_copies_structure() {
        let mut a = Srv::new();
        let mut b = Srv::new();
        b.record_update(s(1));
        b.record_update(s(0));
        a.adopt(&b);
        assert_eq!(a, b);
        assert_eq!(a.compare(&b), Causality::Equal);
    }

    #[test]
    fn segments_accessor() {
        let v = Srv::from_order([
            Element {
                site: s(0),
                value: 1,
                conflict: false,
                segment: true,
            },
            elem(s(1), 1),
        ]);
        let segs = v.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0][0].site, s(0));
        assert_eq!(segs[1][0].site, s(1));
    }

    #[test]
    fn retire_without_agreement_is_not_self_healing() {
        // Documents why pruning needs a membership protocol: a pruned
        // element sitting *behind* the peer's halt point is NOT restored
        // by incremental sync (the receiver halts at the first known
        // element) — the vectors silently disagree.
        use crate::sync::drive::sync_srv;
        let mut a = Srv::new();
        for i in 0..6 {
            a.record_update(s(i));
        }
        let mut b = a.clone();
        assert_eq!(a.retire_sites(|site| site != s(3)), 1);
        assert_eq!(a.value(s(3)), 0);
        sync_srv(&mut a, &b).unwrap();
        assert_eq!(a.value(s(3)), 0, "halts before reaching the pruned element");
        // Only a fresh update on the retired site (rotating it into the
        // transferred prefix) re-introduces it.
        b.record_update(s(3));
        sync_srv(&mut a, &b).unwrap();
        assert_eq!(a.value(s(3)), 2, "front elements do transfer");
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut v = Srv::new();
        for i in 0..20 {
            v.record_update(s(i % 6));
        }
        let mut buf = v.encode_snapshot();
        let decoded = Srv::decode_snapshot(&mut buf).unwrap();
        assert_eq!(v, decoded);
        assert_eq!(v.compare(&decoded), Causality::Equal);
    }

    #[test]
    fn trait_object_independent_api() {
        fn total<V: RotatingVector>(v: &V) -> u64 {
            v.iter().map(|e| e.value).sum()
        }
        let mut v = Crv::new();
        v.record_update(s(0));
        v.record_update(s(0));
        v.record_update(s(3));
        assert_eq!(total(&v), 3);
        assert!(!v.is_empty());
    }
}
