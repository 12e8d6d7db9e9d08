//! Multi-version concurrency control storage.
//!
//! Each key maps to a list of versions ordered by commit timestamp. Reads
//! at a snapshot timestamp see the newest version at or below it; deletes
//! are tombstones. Old versions are reclaimed once no snapshot can observe
//! them, and the reclaiming happens where the chain is written:
//! [`MvccStore::install_and_compact`] takes the horizon — the oldest
//! snapshot that may still read — and compacts the chain it appends to
//! in the same step. A version at or below the horizon hides every older
//! one from every reader, so it replaces the chain in place: a key no
//! snapshot reads below its latest write is one version in a one-slot
//! vector, however often it is written. A delete of a key with nothing
//! under it leaves no chain at all. Only a chain that a snapshot pins
//! grows, and the install says so (it returns whether the key is
//! settled), so that its owner can revisit it with [`MvccStore::gc_key`]
//! once the horizon has moved. [`MvccStore::install`] is the same
//! install under horizon 0, which every snapshot is at or above: it
//! keeps all history, as a bare store or a bulk [`MvccStore::load`]
//! does. [`MvccStore::gc`] compacts the whole store: the reference the
//! per-key paths are tested against.
//!
//! The keys are a hash index, so a point read or an install is one hash
//! of the key and no tree descent. Order is paid for only where it is
//! observed: [`MvccStore::scan_latest`] collects the keys under its
//! prefix and sorts them, which gives scans, `peek_prefix` and the
//! router's scan merge the key order an ordered map gave. Everything else
//! (GC, counts) is order-free.
//!
//! A store may stand over a [`Base`]: the keyspace of an engine's first
//! bulk load, one version per key, which the store shares by `Rc` with
//! the engine's checkpoint image and never writes. The version chains
//! are then an overlay. A read looks in the overlay, then in the base.
//! The first install on a base key starts its chain with a copy of the
//! base version, so from then on the chain alone is that key's history,
//! exactly as if the key had been installed. GC keeps a tombstone that
//! shadows a base key, which would otherwise read again. A store
//! recovered from an image stamps every base version with the image's
//! timestamp, as a store rebuilt from a materialized image would.
//!
//! A base is held densely: it is most of a loaded service's heap for as
//! long as the service runs. It keeps the load's own [`Pairs`] batch as
//! it arrived — the keys end to end in one arena, a 4-byte end offset per
//! key and the value column — and pair `i` reads at the load's first
//! timestamp plus `i`, so no key allocation, no version and no timestamp
//! is stored per pair. A pair costs its key's bytes, 4 for the offset, 8
//! for its value while every value of the batch is an `Int` (32 once one
//! is not) and about 9 for its share of the index. A read of the int
//! column gets an owned `Value::Int` in a [`Cow`], which allocates
//! nothing; every other read borrows. Over the batch sits an
//! open-addressed index of exactly ⌈8n/7⌉ `u64` slots for `n` pairs, so
//! at most 7/8 full, probed linearly and wrapping at the end.
//! A slot holds a 32-bit tag of the key's hash and the pair's position +
//! 1; zero marks a free slot. A probe compares keys only when the tag
//! matches, so stepping past another key's slot costs no string
//! comparison and no visit to its pair. The length is exact, not rounded
//! up to a power of two as a mask would need, so the index is close to
//! 7/8 full at any size.
//!
//! The hash is `mix64(fnv1a(key))`. A probe starts at its low 32 bits
//! scaled to the index length (a multiply-shift), and the tag is its high
//! 32 bits. Raw FNV-1a's high bits barely differ between keys that differ
//! only in their last character: sequential keys would share tags, and
//! every probe would compare keys again.
//!
//! A key repeated in a batch is indexed at its last pair and reads at
//! that pair's timestamp. The earlier pairs stay in the batch,
//! unreachable, and [`Base::len`] and [`Base::iter`] skip them.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::rc::Rc;
use tca_sim::place::mix64;
use tca_sim::{fnv1a, DetHashMap as HashMap};

use crate::types::{Key, Pairs, Timestamp, Value};

/// One committed version of a key.
#[derive(Debug, Clone, PartialEq)]
pub struct Version {
    /// Commit timestamp that produced this version.
    pub ts: Timestamp,
    /// The value, or `None` for a delete tombstone.
    pub value: Option<Value>,
}

/// A version as a read sees it: its value borrowed from the store, or,
/// from a base's int column, an owned `Value::Int` (no allocation).
#[derive(Debug, Clone, PartialEq)]
pub struct VersionRef<'a> {
    /// Commit timestamp that produced this version.
    pub ts: Timestamp,
    /// The value, or `None` for a delete tombstone.
    pub value: Option<Cow<'a, Value>>,
}

impl<'a> From<&'a Version> for VersionRef<'a> {
    fn from(version: &'a Version) -> Self {
        VersionRef {
            ts: version.ts,
            value: version.value.as_ref().map(Cow::Borrowed),
        }
    }
}

/// The keyspace of a first bulk load, shared by the store and the
/// checkpoint image and never mutated: the load's pairs in their order,
/// under a tagged open-addressed index (see the module doc).
#[derive(Debug, Default)]
pub struct Base {
    /// The pairs as loaded; pair `i` reads at `first_ts + i`. A pair that
    /// a later one repeats is unreachable.
    pairs: Pairs,
    first_ts: Timestamp,
    /// `FREE`, or a key's hash tag in the high half and the position + 1
    /// of its last pair in the low half. ⌈8n/7⌉ slots for `n` pairs, so
    /// at most 7/8 full.
    index: Vec<u64>,
    /// Number of distinct keys.
    len: usize,
}

const FREE: u64 = 0;
/// The slot bits that hold the tag.
const TAG: u64 = !(u32::MAX as u64);

fn hash(key: &str) -> u64 {
    mix64(fnv1a(key.as_bytes()))
}

/// The slot a probe for `hash` starts at in an index of `slots`: the
/// hash's low half scaled to the index (multiply-shift), so the index
/// need not be a power of two long.
fn home(hash: u64, slots: usize) -> usize {
    ((u128::from(hash & !TAG) * slots as u128) >> 32) as usize
}

/// The pair position an occupied slot points at.
fn position(slot: u64) -> usize {
    (slot & !TAG) as usize - 1
}

impl Base {
    /// `pairs` as versions at `first_ts`, `first_ts + 1`, … in order, a
    /// key repeated in the batch keeping its last. The batch is kept as it
    /// is, spare capacity included.
    pub fn new(pairs: Pairs, first_ts: Timestamp) -> Self {
        assert!(
            pairs.len() < u32::MAX as usize,
            "a base indexes u32 positions"
        );
        let slots = (pairs.len() * 8).div_ceil(7);
        let mut base = Base {
            pairs,
            first_ts,
            index: vec![FREE; slots],
            len: 0,
        };
        for position in 0..base.pairs.len() {
            let key = base.pairs.key(position);
            let hash = hash(key);
            let i = match base.probe(key, hash) {
                Ok(i) => i,
                Err(i) => {
                    base.len += 1;
                    i
                }
            };
            base.index[i] = (hash & TAG) | (position as u64 + 1);
        }
        base
    }

    /// The slot holding `key`, or the free slot that ends its probe. The
    /// index must not be empty.
    fn probe(&self, key: &str, hash: u64) -> Result<usize, usize> {
        let mut i = home(hash, self.index.len());
        loop {
            let slot = self.index[i];
            if slot == FREE {
                return Err(i);
            }
            if slot & TAG == hash & TAG && self.pairs.key(position(slot)) == key {
                return Ok(i);
            }
            i += 1;
            if i == self.index.len() {
                i = 0;
            }
        }
    }

    /// The position of `key`'s pair.
    fn find(&self, key: &str) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let i = self.probe(key, hash(key)).ok()?;
        Some(position(self.index[i]))
    }

    /// `key`'s version.
    pub fn get(&self, key: &str) -> Option<VersionRef<'_>> {
        let position = self.find(key)?;
        Some(VersionRef {
            ts: self.first_ts + position as Timestamp,
            value: Some(self.pairs.value(position)),
        })
    }

    /// Whether `key` has a version.
    pub fn contains_key(&self, key: &str) -> bool {
        self.find(key).is_some()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the base holds no key.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every key with its value, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Cow<'_, Value>)> {
        self.index
            .iter()
            .filter(|&&slot| slot != FREE)
            .map(|&slot| {
                let position = position(slot);
                (self.pairs.key(position), self.pairs.value(position))
            })
    }
}

/// A [`Base`] and the timestamp its versions read at.
#[derive(Debug, Default, Clone)]
struct BaseLayer {
    shared: Rc<Base>,
    /// After recovery, the image's timestamp stamps every base version;
    /// on the live path each keeps its own.
    stamp: Option<Timestamp>,
}

impl BaseLayer {
    fn get(&self, key: &str) -> Option<VersionRef<'_>> {
        let version = self.shared.get(key)?;
        Some(VersionRef {
            ts: self.stamp.unwrap_or(version.ts),
            ..version
        })
    }

    /// A key's chain as its first install over the base starts it,
    /// compacted against `horizon`.
    fn chain(&self, key: &str, version: Version, horizon: Timestamp) -> Vec<Version> {
        let Some(base) = self.get(key) else {
            return vec![version];
        };
        let mut chain = vec![Version {
            ts: base.ts,
            value: base.value.map(Cow::into_owned),
        }];
        append(&mut chain, key, version, horizon);
        chain
    }
}

/// A multi-versioned key-value store.
#[derive(Debug, Default, Clone)]
pub struct MvccStore {
    base: BaseLayer,
    /// Version chains: every key with no base version, and every base
    /// key installed since.
    data: HashMap<Key, Vec<Version>>,
}

/// Add `version` to `key`'s chain and compact the chain against
/// `horizon`. A version at or below the horizon is the only one any
/// snapshot can still see, so it takes the place of the whole chain.
///
/// Panics if `version` is older than the chain's latest — commits must
/// be applied in timestamp order.
fn append(versions: &mut Vec<Version>, key: &str, version: Version, horizon: Timestamp) {
    if let Some(last) = versions.last() {
        assert!(
            version.ts >= last.ts,
            "out-of-order install on {key}: {} < {}",
            version.ts,
            last.ts
        );
    }
    if version.ts > horizon {
        versions.push(version);
        compact(versions, horizon);
    } else if let [only] = versions.as_mut_slice() {
        *only = version;
    } else {
        versions.clear();
        versions.push(version);
        versions.shrink_to_fit();
    }
}

/// Drop the versions of one key that no snapshot at or after `horizon` can
/// see, keeping the newest one at or below it; returns how many went. A
/// chain left with one version gives back the slots it grew while a
/// snapshot pinned it.
fn compact(versions: &mut Vec<Version>, horizon: Timestamp) -> usize {
    let keep_from = versions.iter().rposition(|v| v.ts <= horizon).unwrap_or(0);
    versions.drain(..keep_from);
    if keep_from > 0 && versions.len() == 1 {
        versions.shrink_to_fit();
    }
    keep_from
}

/// Whether all that is left of a key is one tombstone at or below the
/// horizon, which reads the same as no history at all.
fn dead(versions: &[Version], horizon: Timestamp) -> bool {
    versions.len() == 1 && versions[0].value.is_none() && versions[0].ts <= horizon
}

/// Whether a live chain compacted against the horizon is down to one
/// value, so that no later horizon can reclaim anything from it before
/// its next install.
fn lone_value(versions: &[Version]) -> bool {
    versions.len() == 1 && versions[0].value.is_some()
}

impl MvccStore {
    /// Empty store.
    pub fn new() -> Self {
        MvccStore::default()
    }

    /// A store over `base` with every version stamped `ts`, and every
    /// entry of `delta` (a value, or a tombstone over a base key) as one
    /// version at `ts` on top: recovery from a checkpoint image. Costs
    /// the delta, not the base.
    pub(crate) fn from_image(
        base: Rc<Base>,
        delta: &BTreeMap<Key, Option<Value>>,
        ts: Timestamp,
    ) -> Self {
        let version = |value: &Option<Value>| Version {
            ts,
            value: value.clone(),
        };
        MvccStore {
            base: BaseLayer {
                shared: base,
                stamp: Some(ts),
            },
            data: delta
                .iter()
                .map(|(k, v)| (k.clone(), vec![version(v)]))
                .collect(),
        }
    }

    /// Make `pairs` the base of this empty store, as versions at
    /// `first_ts`, `first_ts + 1`, … in order (a key repeated in the
    /// batch keeps its last), taking the batch as it is.
    /// Returns the base for the checkpoint image to share.
    ///
    /// Panics if the store is not empty.
    pub(crate) fn load_base(&mut self, pairs: Pairs, first_ts: Timestamp) -> Rc<Base> {
        assert!(self.is_empty(), "a base goes under an empty store");
        self.base = BaseLayer {
            shared: Rc::new(Base::new(pairs, first_ts)),
            stamp: None,
        };
        Rc::clone(&self.base.shared)
    }

    /// The base this store stands over (empty if it has none).
    pub fn base(&self) -> &Rc<Base> {
        &self.base.shared
    }

    /// Whether the store holds no version at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.data.is_empty() && self.base.shared.is_empty()
    }

    /// Install a committed version of `key` at `ts`, keeping every older
    /// version: [`MvccStore::install_and_compact`] under horizon 0.
    ///
    /// Panics if `ts` is older than the key's latest version — commits
    /// must be applied in timestamp order.
    pub fn install(&mut self, key: &str, ts: Timestamp, value: Option<Value>) {
        self.install_and_compact(key, ts, value, 0);
    }

    /// Install a committed version of `key` at `ts` and compact the key
    /// against `horizon`, the oldest snapshot that may still read it:
    /// afterwards the chain is what [`MvccStore::gc`] at `horizon` would
    /// leave of it. Returns whether the key is settled, as
    /// [`MvccStore::gc_key`] does; an unsettled key has versions a
    /// snapshot pins, or a tombstone newer than the horizon.
    ///
    /// Panics if `ts` is older than the key's latest version — commits
    /// must be applied in timestamp order. The key is copied only when it
    /// gets a chain it had not.
    pub fn install_and_compact(
        &mut self,
        key: &str,
        ts: Timestamp,
        value: Option<Value>,
        horizon: Timestamp,
    ) -> bool {
        let version = Version { ts, value };
        let base = &self.base.shared;
        match self.data.get_mut(key) {
            Some(versions) => {
                append(versions, key, version, horizon);
                if !dead(versions, horizon) {
                    return lone_value(versions);
                }
                if !base.contains_key(key) {
                    self.data.remove(key);
                }
                true
            }
            None => {
                let chain = self.base.chain(key, version, horizon);
                if !dead(&chain, horizon) {
                    let settled = lone_value(&chain);
                    self.data.insert(key.to_owned(), chain);
                    return settled;
                }
                // A dead tombstone is kept only where it hides a base key.
                if base.contains_key(key) {
                    self.data.insert(key.to_owned(), chain);
                }
                true
            }
        }
    }

    /// Bulk-install `pairs` as committed versions at `first_ts`,
    /// `first_ts + 1`, … in order: each key gets a chain of its own, and
    /// with it a `String` of its own. Returns the keys that already had
    /// history: they now hold more than one version.
    pub fn load(&mut self, mut pairs: Pairs, first_ts: Timestamp) -> Vec<Key> {
        let mut overwritten = Vec::new();
        self.data.reserve(pairs.len());
        let mut ts = first_ts..;
        pairs.drain_from(0, |key, value| {
            let version = Version {
                ts: ts.next().expect("timestamps do not run out"),
                value: Some(value),
            };
            match self.data.entry(key.to_owned()) {
                Entry::Vacant(slot) => {
                    let chain = self.base.chain(slot.key(), version, 0);
                    if chain.len() > 1 {
                        overwritten.push(slot.key().clone());
                    }
                    slot.insert(chain);
                }
                Entry::Occupied(mut slot) => {
                    overwritten.push(slot.key().clone());
                    slot.get_mut().push(version);
                }
            }
        });
        overwritten
    }

    /// The newest version of `key` (possibly a tombstone), if it has any.
    pub fn latest(&self, key: &str) -> Option<VersionRef<'_>> {
        match self.data.get(key) {
            Some(versions) => versions.last().map(VersionRef::from),
            None => self.base.get(key),
        }
    }

    /// The newest version of `key` at or below snapshot `ts`.
    pub fn version_at(&self, key: &str, ts: Timestamp) -> Option<VersionRef<'_>> {
        match self.data.get(key) {
            Some(versions) => versions.iter().rev().find(|v| v.ts <= ts).map(Into::into),
            None => self.base.get(key).filter(|v| v.ts <= ts),
        }
    }

    /// Read the newest version of `key` visible at snapshot `ts`.
    ///
    /// Returns `None` if the key did not exist (or was deleted) at `ts`.
    pub fn read_at(&self, key: &str, ts: Timestamp) -> Option<Cow<'_, Value>> {
        self.version_at(key, ts)?.value
    }

    /// Read the latest committed version of `key`.
    pub fn read_latest(&self, key: &str) -> Option<Cow<'_, Value>> {
        self.latest(key)?.value
    }

    /// Timestamp of the newest version of `key`, if any version exists.
    pub fn latest_ts(&self, key: &str) -> Option<Timestamp> {
        self.latest(key).map(|v| v.ts)
    }

    /// `key`'s version chain, oldest first: empty if the key has no
    /// history, or only its base version (audits and tests).
    pub fn chain(&self, key: &str) -> &[Version] {
        self.data.get(key).map_or(&[], Vec::as_slice)
    }

    /// Whether any committed version of `key` exists (including tombstones).
    pub fn has_history(&self, key: &str) -> bool {
        self.data.contains_key(key) || self.base.shared.contains_key(key)
    }

    /// Drop versions no snapshot at or after `horizon` can see.
    ///
    /// For every key, the newest version at or below the horizon is kept
    /// (it is still visible); everything older goes. Returns the number of
    /// versions reclaimed.
    pub fn gc(&mut self, horizon: Timestamp) -> usize {
        let mut reclaimed = 0;
        let base = &self.base.shared;
        self.data.retain(|key, versions| {
            reclaimed += compact(versions, horizon);
            !dead(versions, horizon) || base.contains_key(key)
        });
        reclaimed
    }

    /// [`MvccStore::gc`] for one key. Returns whether the key is settled —
    /// gone, down to one live version, or down to the tombstone that
    /// shadows its base version — so that no later horizon can reclaim
    /// anything from it before its next install; an unsettled key
    /// (versions a snapshot still pins, a tombstone not yet dead) has to be
    /// visited again.
    pub fn gc_key(&mut self, key: &str, horizon: Timestamp) -> bool {
        let Some(versions) = self.data.get_mut(key) else {
            return true;
        };
        compact(versions, horizon);
        if !dead(versions, horizon) {
            return lone_value(versions);
        }
        if !self.base.shared.contains_key(key) {
            self.data.remove(key);
        }
        true
    }

    /// Base versions no chain has taken over.
    fn unshadowed_base(&self) -> impl Iterator<Item = (&str, Cow<'_, Value>)> {
        self.base
            .shared
            .iter()
            .filter(|(k, _)| !self.data.contains_key(*k))
    }

    /// Number of live keys (with a non-tombstone latest version).
    pub fn live_keys(&self) -> usize {
        let chains = self
            .data
            .values()
            .filter(|v| v.last().is_some_and(|v| v.value.is_some()))
            .count();
        chains + self.unshadowed_base().count()
    }

    /// Total number of stored versions (for GC accounting).
    pub fn version_count(&self) -> usize {
        let chains: usize = self.data.values().map(Vec::len).sum();
        chains + self.unshadowed_base().count()
    }

    /// The live keys under `prefix` with their latest values, in key order.
    pub fn scan_latest<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, Cow<'a, Value>)> + 'a {
        let chains = self
            .data
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, versions)| {
                let value = versions.last()?.value.as_ref()?;
                Some((k.as_str(), Cow::Borrowed(value)))
            });
        let base = self
            .unshadowed_base()
            .filter(|(k, _)| k.starts_with(prefix));
        let mut live: Vec<(&str, Cow<Value>)> = chains.chain(base).collect();
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

    /// What a read of the integer `v` returns.
    fn int(v: i64) -> Option<Cow<'static, Value>> {
        Some(Cow::Owned(Value::Int(v)))
    }

    #[test]
    fn snapshot_reads_see_correct_versions() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 20, Some(Value::Int(2)));
        assert_eq!(s.read_at("a", 5), None);
        assert_eq!(s.read_at("a", 10), int(1));
        assert_eq!(s.read_at("a", 15), int(1));
        assert_eq!(s.read_at("a", 20), int(2));
        assert_eq!(s.read_latest("a"), int(2));
    }

    #[test]
    fn tombstones_hide_values() {
        let mut s = MvccStore::new();
        s.install(&k("a"), 10, Some(Value::Int(1)));
        s.install(&k("a"), 20, None);
        assert_eq!(s.read_at("a", 15), int(1));
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
        assert_eq!(s.read_at("a", 25), int(2));
        assert_eq!(s.read_at("a", 35), int(3));
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
    fn image_roundtrip() {
        let mut live = MvccStore::new();
        let base = live.load_base(
            vec![(k("a"), Value::Int(1)), (k("b"), Value::from("x"))].into(),
            3,
        );
        assert_eq!(live.latest_ts("a"), Some(3));
        assert_eq!(live.latest_ts("b"), Some(4));
        let delta: BTreeMap<Key, Option<Value>> =
            [(k("b"), None), (k("c"), Some(Value::Int(2)))].into();
        let restored = MvccStore::from_image(base, &delta, 12);
        assert!(Rc::ptr_eq(restored.base(), live.base()));
        assert_eq!(restored.read_latest("a"), int(1));
        assert_eq!(restored.read_latest("b"), None);
        assert_eq!(restored.read_latest("c"), int(2));
        // Every recovered version reads at the image's timestamp.
        assert_eq!(restored.latest_ts("a"), Some(12));
        assert_eq!(restored.read_at("a", 11), None);
        let latest: Vec<_> = restored.scan_latest("").collect();
        assert_eq!(latest, [("a", int(1).unwrap()), ("c", int(2).unwrap())]);
        assert_eq!(restored.live_keys(), 2);
    }

    #[test]
    fn a_base_key_starts_its_chain_on_first_install() {
        let mut s = MvccStore::new();
        s.load_base(
            vec![(k("a"), Value::Int(1)), (k("b"), Value::Int(2))].into(),
            1,
        );
        assert_eq!(s.version_count(), 2);
        s.install("a", 5, Some(Value::Int(3)));
        assert_eq!(s.read_at("a", 4), int(1));
        assert_eq!(s.read_at("a", 5), int(3));
        assert_eq!(s.version_count(), 3);
        assert!(!s.gc_key("a", 4), "the snapshot at 4 pins the base version");
        assert!(s.gc_key("a", 5));
        assert_eq!(s.read_at("a", 4), None, "collected, as a chain would be");
        assert_eq!(s.version_count(), 2);
        // The base itself is untouched.
        assert_eq!(s.base().get("a").unwrap().value, int(1));
    }

    #[test]
    fn a_repeated_base_key_keeps_its_last_pair() {
        let mut s = MvccStore::new();
        let pairs = vec![
            (k("a"), Value::Int(1)),
            (k("b"), Value::Int(2)),
            (k("a"), Value::Int(3)),
            (k("c"), Value::Int(4)),
        ];
        let base = s.load_base(pairs.into(), 10);
        let a = base.get("a").unwrap();
        assert_eq!((a.ts, a.value), (12, int(3)));
        assert_eq!(s.latest_ts("a"), Some(12));
        assert_eq!(s.read_at("a", 11), None, "the first pair is unreachable");
        assert_eq!(base.len(), 3);
        let mut keys: Vec<_> = base.iter().map(|(key, _)| key).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(s.live_keys(), 3);
        assert_eq!(s.version_count(), 3);
    }

    #[test]
    fn an_absent_key_probes_past_the_end_of_the_index() {
        // Seven keys take ⌈8·7/7⌉ = 8 slots. Those whose probes all start
        // in the last slot fill it and wrap into the first six, leaving
        // slot 6 free.
        let last = |key: &str| home(hash(key), 8) == 7;
        let mut names = (0..).map(|i| format!("key{i}")).filter(|key| last(key));
        let pairs: Vec<_> = (0..7)
            .map(|i| (names.next().unwrap(), Value::Int(i)))
            .collect();
        let base = Base::new(Pairs::from(pairs.clone()), 1);
        assert_eq!(base.index.len(), 8);
        assert_eq!(base.index[6], FREE);
        for (key, value) in &pairs {
            assert_eq!(base.get(key).unwrap().value, Some(Cow::Borrowed(value)));
        }
        let absent = names.next().unwrap();
        assert_eq!(base.get(&absent), None);
        assert!(!base.contains_key(&absent));
    }

    #[test]
    fn the_empty_base_holds_no_key() {
        for base in [Base::default(), Base::new(Pairs::new(), 1)] {
            for key in ["", "a", "user00000001"] {
                assert_eq!(base.get(key), None);
                assert!(!base.contains_key(key));
            }
            assert!(base.is_empty());
            assert_eq!(base.iter().count(), 0);
        }
        let mut s = MvccStore::new();
        s.load_base(Pairs::new(), 1);
        assert_eq!(s.read_latest("a"), None);
        assert!(!s.has_history("a"));
        s.install("a", 2, Some(Value::Int(1)));
        assert_eq!(s.read_latest("a"), int(1));
    }

    #[test]
    fn gc_keeps_a_tombstone_that_shadows_a_base_key() {
        let mut s = MvccStore::new();
        s.load_base(vec![(k("a"), Value::Int(1))].into(), 1);
        s.install("a", 2, None);
        let mut whole = s.clone();
        assert!(s.gc_key("a", 9));
        assert_eq!(whole.gc(9), 1);
        for store in [&s, &whole] {
            assert_eq!(store.read_latest("a"), None);
            assert!(store.has_history("a"));
            assert_eq!(store.live_keys(), 0);
            assert_eq!(store.scan_latest("").count(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "out-of-order install")]
    fn out_of_order_install_over_the_base_panics() {
        let mut s = MvccStore::new();
        s.load_base(vec![(k("a"), Value::Int(1))].into(), 10);
        s.install("a", 5, Some(Value::Int(0)));
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
    fn an_install_compacts_the_chain_it_writes() {
        let mut s = MvccStore::new();
        s.load_base(vec![(k("based"), Value::Int(0))].into(), 1);
        // Each step: (key, ts, value, horizon, settled, chain length).
        let steps = [
            ("a", 2, Some(1), 2, true, 1),
            ("a", 3, Some(2), 3, true, 1),
            ("a", 4, Some(3), 3, false, 2),
            ("a", 5, Some(4), 4, false, 2),
            ("a", 6, None, 4, false, 3),
            ("a", 7, Some(5), 7, true, 1),
            ("a", 8, None, 8, true, 0),
            ("based", 9, Some(6), 1, false, 2),
            ("based", 10, None, 10, true, 1),
        ];
        for (key, ts, value, horizon, settled, len) in steps {
            let value = value.map(Value::Int);
            let mut reference = s.clone();
            reference.install(key, ts, value.clone());
            reference.gc(horizon);
            assert_eq!(
                s.install_and_compact(key, ts, value, horizon),
                settled,
                "{key}@{ts}"
            );
            assert_eq!(s.chain(key).len(), len, "{key}@{ts}");
            assert_eq!(
                s.chain(key),
                reference.chain(key),
                "{key}@{ts}: as gc leaves it"
            );
            if len == 1 {
                assert_eq!(s.data[key].capacity(), 1, "{key}@{ts}: one slot");
            }
        }
        assert!(!s.has_history("a"), "a dead tombstone leaves nothing");
        assert_eq!(s.read_latest("based"), None);
        assert!(s.has_history("based"), "the tombstone shadows the base");
    }

    #[test]
    fn load_moves_keys_in_and_reports_overwrites() {
        let mut s = MvccStore::new();
        s.install(&k("b"), 1, Some(Value::Int(0)));
        let overwritten = s.load(
            vec![(k("a"), Value::Int(1)), (k("b"), Value::Int(2))].into(),
            5,
        );
        assert_eq!(overwritten, vec![k("b")]);
        assert_eq!(s.latest_ts("a"), Some(5));
        assert_eq!(s.latest_ts("b"), Some(6));
        assert_eq!(s.read_at("b", 5), int(0));
        assert_eq!(s.version_count(), 3);
        // Over a base, a loaded base key is an overwrite too.
        let mut s = MvccStore::new();
        s.load_base(vec![(k("b"), Value::Int(0))].into(), 1);
        let overwritten = s.load(
            vec![(k("a"), Value::Int(1)), (k("b"), Value::Int(2))].into(),
            5,
        );
        assert_eq!(overwritten, vec![k("b")]);
        assert_eq!(s.read_at("b", 5), int(0));
        assert_eq!(s.read_at("b", 6), int(2));
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
