//! Causal relationships between replicas.

use std::fmt;

/// The causal relationship between two replicas (or their metadata).
///
/// Mirrors the paper's notation: `a = b`, `a ≺ b` (a causally precedes b),
/// `b ≺ a`, and `a ∥ b` (concurrent). Two replicas are in *conflict* iff
/// their metadata compare as [`Causality::Concurrent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Causality {
    /// The replicas have identical causal histories (`a = b`).
    Equal,
    /// The left replica causally precedes the right one (`a ≺ b`).
    Before,
    /// The right replica causally precedes the left one (`b ≺ a`).
    After,
    /// Neither precedes the other (`a ∥ b`): a syntactic conflict.
    Concurrent,
}

impl Causality {
    /// Returns `true` iff the replicas are concurrent (`a ∥ b`).
    ///
    /// ```
    /// use optrep_core::Causality;
    /// assert!(Causality::Concurrent.is_concurrent());
    /// assert!(!Causality::Before.is_concurrent());
    /// ```
    pub const fn is_concurrent(self) -> bool {
        matches!(self, Causality::Concurrent)
    }

    /// Returns `true` iff the replicas are comparable (`a ∦ b`),
    /// i.e. equal or ordered — the precondition of `SYNCB`.
    pub const fn is_comparable(self) -> bool {
        !self.is_concurrent()
    }

    /// The relation as seen from the other side: swaps
    /// [`Before`](Causality::Before) and [`After`](Causality::After).
    ///
    /// ```
    /// use optrep_core::Causality;
    /// assert_eq!(Causality::Before.flip(), Causality::After);
    /// assert_eq!(Causality::Equal.flip(), Causality::Equal);
    /// ```
    pub const fn flip(self) -> Self {
        match self {
            Causality::Before => Causality::After,
            Causality::After => Causality::Before,
            other => other,
        }
    }

    /// The relation's snake_case name (`"equal"`, `"before"`, `"after"`,
    /// `"concurrent"`): the `relation` and `oracle` values of an obs
    /// event line.
    pub const fn label(self) -> &'static str {
        match self {
            Causality::Equal => "equal",
            Causality::Before => "before",
            Causality::After => "after",
            Causality::Concurrent => "concurrent",
        }
    }
}

impl fmt::Display for Causality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Causality::Equal => "a = b",
            Causality::Before => "a \u{227a} b",
            Causality::After => "b \u{227a} a",
            Causality::Concurrent => "a \u{2225} b",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_involutive() {
        for c in [
            Causality::Equal,
            Causality::Before,
            Causality::After,
            Causality::Concurrent,
        ] {
            assert_eq!(c.flip().flip(), c);
        }
    }

    #[test]
    fn concurrency_predicates() {
        assert!(Causality::Concurrent.is_concurrent());
        assert!(!Causality::Concurrent.is_comparable());
        assert!(Causality::Equal.is_comparable());
        assert!(Causality::Before.is_comparable());
        assert!(Causality::After.is_comparable());
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(Causality::Equal.to_string(), "a = b");
        assert_eq!(Causality::Concurrent.to_string(), "a ∥ b");
    }
}
