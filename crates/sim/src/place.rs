//! Shared hashing and key placement: the workspace's one FNV-1a
//! implementation and the shard maps built on it.
//!
//! Every FNV-1a value in the workspace comes from here: [`fnv1a`] for a
//! byte slice, the incremental [`Fnv64`] for structural digests (state
//! fingerprints, wire ids, the model checker's class hashes), and
//! [`crate::detmap::DetHasher`], which wraps [`Fnv64`]. CI greps that
//! the offset and prime literals appear in this file only.
//!
//! Several components need to answer "which shard owns this key?" — the
//! deterministic dataflow shards (`tca-txn::dataflow`), the storage
//! router, cross-shard 2PC branch construction, the statefun shards and
//! the log's partitioner. Two functions answer it:
//!
//! - [`key_shard`] — `hash(key) % n`. Dead simple and what fixed fleets
//!   (statefun shards, log partitions, keyed dataflow operators) call —
//!   their frozen schedules depend on it — but resharding moves almost
//!   every key.
//! - [`ShardMap::ring`] — a consistent-hash ring with virtual nodes.
//!   Each shard owns the arcs that its vnode points cover; growing the
//!   fleet from `n` to `n+1` shards moves only `~1/(n+1)` of the keyspace.
//!   The storage router, sharded 2PC and the dataflow engine use this.
//!
//! Both are pure functions of the key bytes and the shard count, so every
//! process in a simulation (and every run of the same seed) computes
//! identical placement without coordination.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher, by value: each step returns the
/// advanced state, so digests chain (`Fnv64::new().u64(a).u64(b).finish()`)
/// or accumulate in a loop (`h = h.u64(v)`).
///
/// ```
/// use tca_sim::{fnv1a, Fnv64};
///
/// assert_eq!(Fnv64::new().bytes(b"he").bytes(b"llo").finish(), fnv1a(b"hello"));
/// assert_eq!(Fnv64::new().u64(7).finish(), fnv1a(&7u64.to_le_bytes()));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the standard offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// A hasher resuming from `state` — a previous [`Fnv64::finish`], or
    /// a caller-chosen basis that keeps digest families apart.
    #[inline]
    pub const fn seeded(state: u64) -> Self {
        Fnv64(state)
    }

    /// Absorb `bytes`.
    #[inline]
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb `v` as its eight little-endian bytes.
    #[inline]
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a over a byte slice: the workspace's one key-hash function.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv64::new().bytes(bytes).finish()
}

/// SplitMix64 finalizer: full-avalanche mixing of a 64-bit value.
///
/// FNV-1a diffuses each input byte *upward* only, so keys differing in
/// their last character produce hashes that are close together in the
/// high bits. Modulo placement never notices (it looks at the low bits),
/// but a consistent-hash ring partitions by the *whole* hash — without a
/// finalizer, sequential keys (`user…01`, `user…02`) would all fall on
/// one arc.
pub fn mix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Modulo placement: `fnv1a(key) % shards`.
///
/// Statefun shards, log partitions and keyed dataflow operators place
/// with this exact function; keeping it byte-identical preserves their
/// frozen schedules.
pub fn key_shard(key: &str, shards: usize) -> usize {
    debug_assert!(shards > 0, "placement over zero shards");
    (fnv1a(key.as_bytes()) % shards as u64) as usize
}

/// Number of virtual nodes per shard on the consistent-hash ring.
/// Enough to keep arc ownership within a few percent of uniform for the
/// fleet sizes the experiments sweep (1–64 shards).
const VNODES: usize = 64;

/// A consistent-hash ring: the key → shard placement shared by routers,
/// coordinators and generators so they all agree on ownership.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
    /// Ring points sorted by hash; each point maps an arc to a shard.
    points: Vec<(u64, usize)>,
}

impl ShardMap {
    /// Consistent-hash ring over `n` shards, 64 virtual nodes each.
    ///
    /// Growing the fleet moves only ~`1/(n+1)` of the keyspace, which is
    /// why the router uses a ring rather than modulo placement:
    ///
    /// ```rust
    /// use tca_sim::ShardMap;
    ///
    /// let eight = ShardMap::ring(8);
    /// let nine = ShardMap::ring(9);
    /// let moved = (0..1000)
    ///     .map(|i| format!("user{i:06}"))
    ///     .filter(|k| eight.owner(k) != nine.owner(k))
    ///     .count();
    /// assert!(moved < 250, "adding a 9th shard moved {moved}/1000 keys");
    /// ```
    ///
    /// Point positions hash the stable label `shard{i}#{v}`, so the ring
    /// is a pure function of `n`: every process computes the same ring,
    /// and shard `i`'s points are unchanged by the presence of other
    /// shards (the consistent-hashing property).
    pub fn ring(n: usize) -> Self {
        assert!(n > 0, "ShardMap over zero shards");
        let mut points = Vec::with_capacity(n * VNODES);
        for shard in 0..n {
            for v in 0..VNODES {
                points.push((mix64(fnv1a(format!("shard{shard}#{v}").as_bytes())), shard));
            }
        }
        // Ties (identical hashes) resolve to the lower shard index —
        // deterministic on every platform.
        points.sort_unstable();
        ShardMap { shards: n, points }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`.
    pub fn owner(&self, key: &str) -> usize {
        let h = mix64(fnv1a(key.as_bytes()));
        // First point clockwise of the key's position; wrap past the last
        // point back to the first.
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points[if idx == self.points.len() { 0 } else { idx }].1
    }

    /// Split `(key, value)`-like items into per-shard groups, preserving
    /// input order within each group. Groups for unowned shards are empty.
    pub fn split_by_owner<T>(&self, items: Vec<T>, key_of: impl Fn(&T) -> &str) -> Vec<Vec<T>> {
        let mut groups: Vec<Vec<T>> = (0..self.shards).map(|_| Vec::new()).collect();
        for item in items {
            let shard = self.owner(key_of(&item));
            groups[shard].push(item);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a("hello") — the same published value DetHasher pins.
        assert_eq!(fnv1a(b"hello"), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn key_shard_is_stable_and_in_range() {
        for n in 1..6 {
            for key in ["", "a", "b", "acct42"] {
                assert!(key_shard(key, n) < n);
                assert_eq!(key_shard(key, n), key_shard(key, n));
            }
        }
    }

    #[test]
    fn ring_owner_is_deterministic_and_in_range() {
        for n in [1, 2, 5, 16, 64] {
            let map = ShardMap::ring(n);
            let again = ShardMap::ring(n);
            for i in 0..200 {
                let key = format!("user{i:08}");
                let owner = map.owner(&key);
                assert!(owner < n);
                assert_eq!(owner, again.owner(&key));
            }
        }
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let n = 8;
        let map = ShardMap::ring(n);
        let mut counts = vec![0usize; n];
        for i in 0..8000 {
            counts[map.owner(&format!("user{i:08}"))] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            // Perfect balance would be 1000 per shard; vnodes keep every
            // shard within a loose 3x band.
            assert!(
                (300..=3000).contains(&count),
                "shard {shard} owns {count} of 8000"
            );
        }
    }

    #[test]
    fn ring_growth_moves_few_keys() {
        // Consistent hashing: going from 16 to 17 shards should remap
        // roughly 1/17th of keys, not most of them.
        let before = ShardMap::ring(16);
        let after = ShardMap::ring(17);
        let total = 10_000;
        let moved = (0..total)
            .filter(|i| {
                let key = format!("user{i:08}");
                before.owner(&key) != after.owner(&key)
            })
            .count();
        assert!(
            moved < total / 5,
            "{moved}/{total} keys moved on 16→17 growth"
        );
        // Modulo placement, by contrast, moves nearly everything.
        let modulo_moved = (0..total)
            .filter(|i| {
                let key = format!("user{i:08}");
                key_shard(&key, 16) != key_shard(&key, 17)
            })
            .count();
        assert!(modulo_moved > moved * 2, "{modulo_moved} vs {moved}");
    }

    #[test]
    fn split_by_owner_preserves_order_and_ownership() {
        let map = ShardMap::ring(4);
        let pairs: Vec<(String, u64)> = (0..100).map(|i| (format!("k{i}"), i)).collect();
        let groups = map.split_by_owner(pairs.clone(), |(k, _)| k.as_str());
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 100);
        for (shard, group) in groups.iter().enumerate() {
            let mut last = None;
            for (key, seq) in group {
                assert_eq!(map.owner(key), shard);
                assert!(last.is_none_or(|prev| prev < *seq), "order preserved");
                last = Some(*seq);
            }
        }
    }
}
