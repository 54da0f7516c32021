//! A fixed hasher for simulator-chosen integer keys.

#![allow(
    clippy::disallowed_types,
    reason = "the one sanctioned HashMap: `PfnHasher` is unseeded, so iteration order is the same in every process"
)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by simulator-chosen integers, hashed by [`PfnHasher`].
pub type PfnMap<K, V> = HashMap<K, V, BuildHasherDefault<PfnHasher>>;

/// Hasher for simulator-chosen integer keys: one multiply by an odd
/// constant (a bijection, so distinct keys never share a hash), rotated so
/// the well-mixed high product bits pick the bucket.
///
/// Frame addresses are bounded by the machine size and chosen by the
/// simulator's own allocators, so the collision resistance of the default
/// SipHash buys nothing for them, while every page fault pays for it.
/// Unlike `RandomState`, it is unseeded: table iteration order is the same
/// in every process.
///
/// ```
/// use sim_mem::PfnMap;
///
/// let mut m: PfnMap<u64, u32> = PfnMap::default();
/// m.insert(7, 1);
/// assert_eq!(m[&7], 1);
/// ```
#[derive(Default)]
pub struct PfnHasher(u64);

impl Hasher for PfnHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
