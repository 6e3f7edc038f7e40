//! Seeded inputs: every key choice and every value byte is a pure
//! function of `--seed`, so two runs of one seed issue the same ops.

/// SplitMix64: tiny, fast, and good enough to scatter keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..bound` (`bound > 0`; modulo bias is below 2⁻⁴⁰ at
    /// the sizes used here).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The value version `version` of key `index` holds: the version in the
/// first eight bytes (so a reader can tell which write it saw), then
/// filler that depends on seed, key and version, so a value delivered
/// under the wrong key or from another run never verifies.
pub fn value_for(seed: u64, index: usize, version: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len.max(8));
    out.extend_from_slice(&u64::from(version).to_le_bytes());
    let mut state = seed ^ (index as u64).wrapping_mul(0xa076_1d64_78bd_642f) ^ u64::from(version);
    while out.len() < len {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out.extend_from_slice(&mix(state).to_le_bytes());
    }
    out.truncate(len.max(8));
    out
}

/// The version a value written by [`value_for`] claims to be.
pub fn version_of(value: &[u8]) -> Option<u32> {
    let raw: [u8; 8] = value.get(..8)?.try_into().ok()?;
    u32::try_from(u64::from_le_bytes(raw)).ok()
}

/// FNV-1a, fed incrementally: the op-sequence fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_u64(&mut self, n: u64) {
        self.eat(&n.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_carry_their_version_and_differ_by_seed_key_and_version() {
        let v = value_for(1, 7, 3, 32);
        assert_eq!(v.len(), 32);
        assert_eq!(version_of(&v), Some(3));
        assert_eq!(v, value_for(1, 7, 3, 32));
        assert_ne!(v, value_for(2, 7, 3, 32));
        assert_ne!(v, value_for(1, 8, 3, 32));
        assert_ne!(v[8..], value_for(1, 7, 4, 32)[8..]);
        assert_eq!(version_of(b"short"), None);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(5);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let mut r = Rng::new(5);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!(Rng::new(6).next_u64() != a[0]);
    }
}
