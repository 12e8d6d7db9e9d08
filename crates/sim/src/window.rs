//! The bounded "recent key → value" table behind every dedup site.
//!
//! §3.2: "uniqueness ID guarantee and subsequent detection of duplicated
//! messages are still the responsibility of applications." Each receiver
//! that takes on that responsibility — the database server, the shard
//! router, the actor silo, the 2PC participant, the idempotent-delivery
//! store — remembers the last `capacity` request keys and what it
//! answered, and forgets the oldest first: exactly-once holds *within
//! the window*. [`RecentWindow`] is that table, once.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;

use crate::detmap::DetHashMap;

/// A map that remembers at most `capacity` keys and evicts them in the
/// order they were first inserted.
///
/// Age is fixed at insertion: overwriting a key's value ([`insert`] on
/// a present key, [`set`]) does not refresh it, while a key that was
/// [`remove`]d and inserted again ages from the re-insertion.
///
/// ```
/// use tca_sim::RecentWindow;
///
/// let mut recent = RecentWindow::new(2);
/// assert_eq!(recent.insert("a", 1), None);
/// assert_eq!(recent.insert("b", 2), None);
/// assert_eq!(recent.insert("c", 3), Some(("a", 1)), "oldest key evicted");
/// assert!(!recent.set(&"a", 9), "an evicted key is not resurrected");
/// assert_eq!(recent.get(&"b"), Some(&2));
/// ```
///
/// [`insert`]: RecentWindow::insert
/// [`set`]: RecentWindow::set
/// [`remove`]: RecentWindow::remove
#[derive(Debug, Clone)]
pub struct RecentWindow<K, V> {
    map: DetHashMap<K, V>,
    /// Insertion order: one live entry per remembered key, plus *stale*
    /// entries for removed keys; for any one key those are older than its
    /// live entry.
    order: VecDeque<K>,
    /// Stale `order` entries per key.
    stale: DetHashMap<K, u32>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> RecentWindow<K, V> {
    /// Window remembering up to `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RecentWindow of capacity zero");
        RecentWindow {
            map: DetHashMap::default(),
            order: VecDeque::new(),
            stale: DetHashMap::default(),
            capacity,
        }
    }

    /// The value remembered for `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Whether `key` is remembered.
    #[inline]
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Remember `key → value`. A key already present keeps its age and
    /// takes the new value; a new key is the youngest, and when it
    /// overflows the window the oldest `(key, value)` is evicted and
    /// returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        match self.map.entry(key) {
            Entry::Occupied(mut slot) => {
                slot.insert(value);
                return None;
            }
            Entry::Vacant(slot) => {
                self.order.push_back(slot.key().clone());
                slot.insert(value);
            }
        }
        if self.map.len() <= self.capacity {
            return None;
        }
        loop {
            let oldest = self.order.pop_front().expect("a live key per map entry");
            if self.forget_stale(&oldest) {
                continue;
            }
            let value = self.map.remove(&oldest).expect("live order entry");
            return Some((oldest, value));
        }
    }

    /// Overwrite the value of a key that is still remembered; `false`
    /// (and no effect) when it is not — a late update never resurrects
    /// an evicted key.
    #[inline]
    pub fn set(&mut self, key: &K, value: V) -> bool {
        match self.map.get_mut(key) {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    /// Forget `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.map.remove(key)?;
        *self.stale.entry(key.clone()).or_insert(0) += 1;
        if self.order.len() - self.map.len() > self.capacity {
            self.compact();
        }
        Some(value)
    }

    /// Number of keys remembered.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is remembered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The remembered keys, in arbitrary order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    /// If `key` has a stale order entry outstanding, account for one
    /// having just been dropped and return `true`.
    fn forget_stale(&mut self, key: &K) -> bool {
        if self.stale.is_empty() {
            return false;
        }
        let Some(count) = self.stale.get_mut(key) else {
            return false;
        };
        *count -= 1;
        if *count == 0 {
            self.stale.remove(key);
        }
        true
    }

    /// Drop every stale order entry, so removals cost O(1) amortised
    /// space and time however rarely the window overflows.
    fn compact(&mut self) {
        let order = std::mem::take(&mut self.order);
        self.order = order
            .into_iter()
            .filter(|key| !self.forget_stale(key))
            .collect();
        debug_assert!(self.stale.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overwriting_keeps_age() {
        let mut w = RecentWindow::new(2);
        w.insert(1, "a");
        w.insert(2, "b");
        w.insert(1, "a2");
        assert!(w.set(&1, "a3"));
        assert_eq!(w.insert(3, "c"), Some((1, "a3")), "1 is still the oldest");
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn removed_key_ages_from_reinsertion() {
        let mut w = RecentWindow::new(2);
        w.insert(1, ());
        w.insert(2, ());
        assert_eq!(w.remove(&1), Some(()));
        assert_eq!(w.remove(&1), None);
        w.insert(1, ());
        // 2 is now the oldest; the stale entry for 1 must not evict the
        // live one.
        assert_eq!(w.insert(3, ()), Some((2, ())));
        assert!(w.contains(&1) && w.contains(&3));
        assert_eq!(w.insert(4, ()), Some((1, ())));
    }

    #[test]
    fn removals_do_not_grow_the_order_queue() {
        let mut w = RecentWindow::new(4);
        w.insert(0u32, ());
        for _ in 0..1000 {
            w.insert(1, ());
            w.remove(&1);
        }
        assert_eq!(w.len(), 1);
        assert!(w.order.len() <= 2 * w.capacity, "{}", w.order.len());
    }
}
