//! Deterministic hashing collections.
//!
//! `std::collections::HashMap` seeds its hasher from OS randomness, so
//! iteration order differs between *processes* even for identical
//! insertion sequences. Anywhere that order leaks into simulation
//! behaviour (which messages go out first, which lock waiter wakes, which
//! key a sweep visits first), two runs of the same seed diverge — exactly
//! what the CI determinism gate forbids. These aliases swap in a fixed
//! FNV-1a hasher: same insertions → same layout → same iteration order,
//! every run, every platform.
//!
//! Use [`DetHashMap`] / [`DetHashSet`] for ALL map/set state inside
//! simulated components. The API matches `HashMap`/`HashSet` except that
//! construction goes through `Default` (`DetHashMap::default()`) or
//! [`DetHashMap::with_hasher`], because `new()` is only defined for the
//! std `RandomState`.
//!
//! FNV-1a is not DoS-resistant; that is irrelevant here — keys come from
//! the simulation itself, not from an adversary, and determinism is worth
//! strictly more than attack resistance inside a test substrate.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

use crate::place::Fnv64;

/// 64-bit FNV-1a streaming hasher with the standard offset basis.
#[derive(Clone, Debug, Default)]
pub struct DetHasher {
    state: Fnv64,
}

impl Hasher for DetHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.state = self.state.bytes(bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state.finish()
    }
}

/// A `BuildHasher` with no per-process randomness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetState;

impl BuildHasher for DetState {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        DetHasher::default()
    }
}

/// `HashMap` with deterministic (per-binary stable) iteration order.
pub type DetHashMap<K, V> = HashMap<K, V, DetState>;

/// `HashSet` with deterministic (per-binary stable) iteration order.
pub type DetHashSet<T> = HashSet<T, DetState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_stable() {
        // FNV-1a("hello") — a published reference value.
        let mut h = DetHasher::default();
        h.write(b"hello");
        assert_eq!(h.finish(), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn iteration_order_is_reproducible() {
        let build = || {
            let mut m: DetHashMap<String, u32> = DetHashMap::default();
            for i in 0..100u32 {
                m.insert(format!("key{i}"), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn set_order_is_reproducible() {
        let build = || {
            let mut s: DetHashSet<u64> = DetHashSet::default();
            for i in 0..100u64 {
                s.insert(i * 2654435761 % 1000);
            }
            s.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
