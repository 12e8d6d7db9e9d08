//! Multi-version concurrency control storage.
//!
//! Each key maps to a list of versions ordered by commit timestamp. Reads
//! at a snapshot timestamp see the newest version at or below it; deletes
//! are tombstones. Old versions are reclaimed once no snapshot can observe
//! them: per written key by [`MvccStore::gc_key`] (what the engine's
//! checkpoint does), or for the whole store by [`MvccStore::gc`] (the
//! reference the per-key path is tested against).
//!
//! The keys are a hash index, so a point read or an install is one hash
//! of the key and no tree descent. Order is paid for only where it is
//! observed: [`MvccStore::scan_latest`] collects the keys under its
//! prefix and sorts them, which gives scans, `peek_prefix` and the
//! router's scan merge the key order an ordered map gave. Everything else
//! (GC, counts) is order-free.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use tca_sim::DetHashMap as HashMap;

use crate::types::{Key, Timestamp, Value};

/// One committed version of a key.
#[derive(Debug, Clone)]
pub struct Version {
    /// Commit timestamp that produced this version.
    pub ts: Timestamp,
    /// The value, or `None` for a delete tombstone.
    pub value: Option<Value>,
}

/// A multi-versioned key-value store.
#[derive(Debug, Default, Clone)]
pub struct MvccStore {
    data: HashMap<Key, Vec<Version>>,
}

/// Drop the versions of one key that no snapshot at or after `horizon` can
/// see, keeping the newest one at or below it; returns how many went.
fn compact(versions: &mut Vec<Version>, horizon: Timestamp) -> usize {
    let keep_from = versions.iter().rposition(|v| v.ts <= horizon).unwrap_or(0);
    versions.drain(..keep_from);
    keep_from
}

/// Whether all that is left of a key is one tombstone at or below the
/// horizon, which reads the same as no history at all.
fn dead(versions: &[Version], horizon: Timestamp) -> bool {
    versions.len() == 1 && versions[0].value.is_none() && versions[0].ts <= horizon
}

impl MvccStore {
    /// Empty store.
    pub fn new() -> Self {
        MvccStore::default()
    }

    /// A store holding every pair of a materialized `snapshot` as one
    /// version at `ts` (recovery from a checkpoint image).
    pub fn from_snapshot(snapshot: &BTreeMap<Key, Value>, ts: Timestamp) -> Self {
        let version = |v: &Value| Version {
            ts,
            value: Some(v.clone()),
        };
        MvccStore {
            data: snapshot
                .iter()
                .map(|(k, v)| (k.clone(), vec![version(v)]))
                .collect(),
        }
    }

    /// Install a committed version of `key` at `ts`.
    ///
    /// Panics if `ts` is not newer than the key's latest version — commits
    /// must be applied in timestamp order. The key is copied only when it
    /// has no history yet.
    pub fn install(&mut self, key: &str, ts: Timestamp, value: Option<Value>) {
        let version = Version { ts, value };
        let Some(versions) = self.data.get_mut(key) else {
            self.data.insert(key.to_owned(), vec![version]);
            return;
        };
        if let Some(last) = versions.last() {
            assert!(
                ts >= last.ts,
                "out-of-order install on {key}: {ts} < {}",
                last.ts
            );
        }
        versions.push(version);
    }

    /// Bulk-install `pairs` as committed versions at `first_ts`,
    /// `first_ts + 1`, … in order, taking the keys instead of cloning them.
    /// Returns the keys that already had history: they now hold more than
    /// one version.
    pub fn load(&mut self, pairs: Vec<(Key, Value)>, first_ts: Timestamp) -> Vec<Key> {
        let mut overwritten = Vec::new();
        self.data.reserve(pairs.len());
        for ((key, value), ts) in pairs.into_iter().zip(first_ts..) {
            let version = Version {
                ts,
                value: Some(value),
            };
            match self.data.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(vec![version]);
                }
                Entry::Occupied(mut slot) => {
                    overwritten.push(slot.key().clone());
                    slot.get_mut().push(version);
                }
            }
        }
        overwritten
    }

    /// The newest version of `key` (possibly a tombstone), if it has any.
    pub fn latest(&self, key: &str) -> Option<&Version> {
        self.data.get(key)?.last()
    }

    /// The newest version of `key` at or below snapshot `ts`.
    pub fn version_at(&self, key: &str, ts: Timestamp) -> Option<&Version> {
        self.data.get(key)?.iter().rev().find(|v| v.ts <= ts)
    }

    /// Read the newest version of `key` visible at snapshot `ts`.
    ///
    /// Returns `None` if the key did not exist (or was deleted) at `ts`.
    pub fn read_at(&self, key: &str, ts: Timestamp) -> Option<&Value> {
        self.version_at(key, ts)?.value.as_ref()
    }

    /// Read the latest committed version of `key`.
    pub fn read_latest(&self, key: &str) -> Option<&Value> {
        self.latest(key)?.value.as_ref()
    }

    /// Timestamp of the newest version of `key`, if any version exists.
    pub fn latest_ts(&self, key: &str) -> Option<Timestamp> {
        self.latest(key).map(|v| v.ts)
    }

    /// Whether any committed version of `key` exists (including tombstones).
    pub fn has_history(&self, key: &str) -> bool {
        self.data.contains_key(key)
    }

    /// Drop versions no snapshot at or after `horizon` can see.
    ///
    /// For every key, the newest version at or below the horizon is kept
    /// (it is still visible); everything older goes. Returns the number of
    /// versions reclaimed.
    pub fn gc(&mut self, horizon: Timestamp) -> usize {
        let mut reclaimed = 0;
        self.data.retain(|_, versions| {
            reclaimed += compact(versions, horizon);
            !dead(versions, horizon)
        });
        reclaimed
    }

    /// [`MvccStore::gc`] for one key. Returns whether the key is settled —
    /// gone, or down to one live version — so that no later horizon can
    /// reclaim anything from it before its next install; an unsettled key
    /// (versions a snapshot still pins, a tombstone not yet dead) has to be
    /// visited again.
    pub fn gc_key(&mut self, key: &str, horizon: Timestamp) -> bool {
        let Some(versions) = self.data.get_mut(key) else {
            return true;
        };
        compact(versions, horizon);
        if dead(versions, horizon) {
            self.data.remove(key);
            return true;
        }
        versions.len() == 1 && versions[0].value.is_some()
    }

    /// Number of live keys (with a non-tombstone latest version).
    pub fn live_keys(&self) -> usize {
        self.data
            .values()
            .filter(|v| v.last().is_some_and(|v| v.value.is_some()))
            .count()
    }

    /// Total number of stored versions (for GC accounting).
    pub fn version_count(&self) -> usize {
        self.data.values().map(Vec::len).sum()
    }

    /// The live keys under `prefix` with their latest values, in key order.
    pub fn scan_latest<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a Key, &'a Value)> + 'a {
        let mut live: Vec<(&Key, &Value)> = self
            .data
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, versions)| {
                versions
                    .last()
                    .and_then(|v| v.value.as_ref())
                    .map(|v| (k, v))
            })
            .collect();
        live.sort_unstable_by(|a, b| a.0.cmp(b.0));
        live.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        s.to_owned()
    }

    #[test]
    fn snapshot_reads_see_correct_versions() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 20, Some(Value::Int(2)));
        assert_eq!(s.read_at("a", 5), None);
        assert_eq!(s.read_at("a", 10), Some(&Value::Int(1)));
        assert_eq!(s.read_at("a", 15), Some(&Value::Int(1)));
        assert_eq!(s.read_at("a", 20), Some(&Value::Int(2)));
        assert_eq!(s.read_latest("a"), Some(&Value::Int(2)));
    }

    #[test]
    fn tombstones_hide_values() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 20, None);
        assert_eq!(s.read_at("a", 15), Some(&Value::Int(1)));
        assert_eq!(s.read_at("a", 25), None);
        assert_eq!(s.read_latest("a"), None);
        assert!(s.has_history("a"));
        assert_eq!(s.live_keys(), 0);
    }

    #[test]
    #[should_panic(expected = "out-of-order install")]
    fn out_of_order_install_panics() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 5, Some(Value::Int(0)));
    }

    #[test]
    fn gc_keeps_visible_version() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 20, Some(Value::Int(2)));
        s.install(&k("a"), 30, Some(Value::Int(3)));
        let reclaimed = s.gc(25);
        assert_eq!(reclaimed, 1, "only ts=10 is invisible at horizon 25");
        assert_eq!(s.read_at("a", 25), Some(&Value::Int(2)));
        assert_eq!(s.read_at("a", 35), Some(&Value::Int(3)));
        assert_eq!(s.version_count(), 2);
    }

    #[test]
    fn gc_removes_dead_tombstoned_keys() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 20, None);
        s.gc(30);
        assert!(!s.has_history("a"));
        assert_eq!(s.version_count(), 0);
    }

    #[test]
    fn snapshot_roundtrip() {
        let image: BTreeMap<Key, Value> =
            [(k("a"), Value::Int(1)), (k("b"), Value::from("x"))].into();
        let restored = MvccStore::from_snapshot(&image, 12);
        assert_eq!(restored.read_latest("a"), Some(&Value::Int(1)));
        assert_eq!(restored.read_latest("b"), Some(&Value::from("x")));
        assert_eq!(restored.read_latest("c"), None);
        assert_eq!(restored.latest_ts("a"), Some(12));
        let latest: Vec<_> = restored.scan_latest("").collect();
        assert_eq!(latest, image.iter().collect::<Vec<_>>());
    }

    #[test]
    fn gc_key_matches_whole_store_gc_and_reports_unsettled_keys() {
        let mut s = MvccStore::new();
        s.install(&k("pinned"), 10, Some(Value::Int(1)));
        s.install(&k("pinned"), 30, Some(Value::Int(2)));
        s.install(&k("settled"), 10, Some(Value::Int(1)));
        s.install(&k("settled"), 20, Some(Value::Int(2)));
        s.install(&k("dead"), 10, Some(Value::Int(1)));
        s.install(&k("dead"), 20, None);
        s.install(&k("dying"), 10, Some(Value::Int(1)));
        s.install(&k("dying"), 30, None);
        let mut reference = s.clone();
        reference.gc(25);
        assert!(!s.gc_key("pinned", 25), "ts=30 is not yet the only version");
        assert!(s.gc_key("settled", 25));
        assert!(s.gc_key("dead", 25));
        assert!(!s.gc_key("dying", 25), "tombstone newer than the horizon");
        assert!(s.gc_key("absent", 25));
        assert!(!s.has_history("dead"));
        assert_eq!(s.version_count(), reference.version_count());
        for key in ["pinned", "settled", "dead", "dying"] {
            assert_eq!(s.read_at(key, 25), reference.read_at(key, 25));
            assert_eq!(s.latest_ts(key), reference.latest_ts(key));
        }
    }

    #[test]
    fn load_moves_keys_in_and_reports_overwrites() {
        let mut s = MvccStore::new();
        s.install(&k("b"), 1, Some(Value::Int(0)));
        let overwritten = s.load(vec![(k("a"), Value::Int(1)), (k("b"), Value::Int(2))], 5);
        assert_eq!(overwritten, vec![k("b")]);
        assert_eq!(s.latest_ts("a"), Some(5));
        assert_eq!(s.latest_ts("b"), Some(6));
        assert_eq!(s.read_at("b", 5), Some(&Value::Int(0)));
        assert_eq!(s.version_count(), 3);
    }

    #[test]
    fn scan_latest_respects_prefix() {
        let mut s = MvccStore::new();
        s.install(&k("order/1"), 1, Some(Value::Int(1)));
        s.install(&k("order/2"), 2, Some(Value::Int(2)));
        s.install(&k("stock/1"), 3, Some(Value::Int(9)));
        let orders: Vec<_> = s.scan_latest("order/").collect();
        assert_eq!(orders.len(), 2);
        assert!(orders.iter().all(|(k, _)| k.starts_with("order/")));
    }

    #[test]
    fn latest_ts_tracks_installs() {
        let mut s = MvccStore::new();
        assert_eq!(s.latest_ts("a"), None);
        s.install(&k("a"), 7, Some(Value::Int(0)));
        assert_eq!(s.latest_ts("a"), Some(7));
    }
}
