//! Site identifiers.

use std::fmt;

/// Identifier of a participating site (replica host).
///
/// The paper exemplifies sites with letters (`A`, `B`, …); [`SiteId`]'s
/// [`Display`](fmt::Display) impl follows that convention for the first 26
/// identifiers and falls back to `S<n>` beyond them.
///
/// ```
/// use optrep_core::SiteId;
/// assert_eq!(SiteId::new(0).to_string(), "A");
/// assert_eq!(SiteId::new(25).to_string(), "Z");
/// assert_eq!(SiteId::new(26).to_string(), "S26");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(u32);

impl SiteId {
    /// Creates a site identifier from its numeric index.
    pub const fn new(index: u32) -> Self {
        SiteId(index)
    }

    /// Returns the numeric index of this site.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Parses a site identifier written in the paper's letter convention.
    ///
    /// Accepts a single uppercase letter (`"A"` → site 0) or the `S<n>`
    /// fallback form. Returns `None` for anything else.
    ///
    /// ```
    /// use optrep_core::SiteId;
    /// assert_eq!(SiteId::parse("C"), Some(SiteId::new(2)));
    /// assert_eq!(SiteId::parse("S42"), Some(SiteId::new(42)));
    /// assert_eq!(SiteId::parse("?"), None);
    /// ```
    pub fn parse(s: &str) -> Option<Self> {
        let bytes = s.as_bytes();
        match bytes {
            [c @ b'A'..=b'Z'] => Some(SiteId((c - b'A') as u32)),
            [b'S', rest @ ..] if !rest.is_empty() => s[1..].parse::<u32>().ok().map(SiteId),
            _ => None,
        }
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 26 {
            write!(f, "{}", (b'A' + self.0 as u8) as char)
        } else {
            write!(f, "S{}", self.0)
        }
    }
}

impl From<u32> for SiteId {
    fn from(index: u32) -> Self {
        SiteId(index)
    }
}

impl From<SiteId> for u32 {
    fn from(site: SiteId) -> Self {
        site.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_letters_then_fallback() {
        assert_eq!(SiteId::new(0).to_string(), "A");
        assert_eq!(SiteId::new(7).to_string(), "H");
        assert_eq!(SiteId::new(25).to_string(), "Z");
        assert_eq!(SiteId::new(26).to_string(), "S26");
        assert_eq!(SiteId::new(1000).to_string(), "S1000");
    }

    #[test]
    fn parse_roundtrips_display() {
        for i in [0, 3, 25, 26, 27, 99, 12345] {
            let site = SiteId::new(i);
            assert_eq!(SiteId::parse(&site.to_string()), Some(site));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(SiteId::parse(""), None);
        assert_eq!(SiteId::parse("a"), None);
        // A bare "S" is the letter form of site 18, not garbage.
        assert_eq!(SiteId::parse("S"), Some(SiteId::new(18)));
        assert_eq!(SiteId::parse("Sx"), None);
        assert_eq!(SiteId::parse("AB"), None);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(SiteId::new(1) < SiteId::new(2));
        assert_eq!(u32::from(SiteId::from(9)), 9);
    }
}
