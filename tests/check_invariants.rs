//! Property-based tests over the core data structures and invariants,
//! on the in-tree `tca::sim::check` harness (formerly proptest).
//!
//! Failures print a reproducing seed; rerun with `TCA_CHECK_SEED=<seed>`.
//! Counterexamples that shrinking found in the past are pinned as
//! explicit `regression` cases next to the property they broke.

use std::borrow::Cow;
use tca::sim::check::{
    bool_any, check, f64_in, i64_in, regression, tuple2, tuple3, u64_in, u8_in, usize_in, vec_of,
};
use tca::sim::{Histogram, SimDuration, SimRng, Zipf};

/// Key `id` of a loaded batch: the empty key, ASCII keys that differ only
/// in their last characters, and keys of two-, three- and four-byte
/// characters.
fn batch_key(id: u8) -> String {
    match id % 4 {
        _ if id == 0 => String::new(),
        0 | 2 => format!("user{id:03}"),
        1 => format!("ключ{id}"),
        _ => format!("键{id}🦀{}", "é".repeat(usize::from(id % 3))),
    }
}

mod mvcc_props {
    use super::*;
    use std::collections::BTreeMap;
    use tca::storage::mvcc::{Base, Version};
    use tca::storage::{Key, MvccStore, Value};

    /// Reads at any snapshot see the newest version at or below it.
    #[test]
    fn snapshot_reads_are_consistent() {
        let writes_gen = vec_of(tuple2(u8_in(0, 8), i64_in(0, 100)), 1, 50);
        check("snapshot_reads_are_consistent", &writes_gen, |writes| {
            let mut store = MvccStore::new();
            let mut oracle: Vec<(String, u64, i64)> = Vec::new();
            for (i, (key, value)) in writes.iter().enumerate() {
                let ts = (i + 1) as u64;
                let key = format!("k{key}");
                store.install(&key, ts, Some(Value::Int(*value)));
                oracle.push((key, ts, *value));
            }
            // Check every (key, ts) pair against the oracle.
            let max_ts = writes.len() as u64;
            for key_id in 0u8..8 {
                let key = format!("k{key_id}");
                for at in 0..=max_ts {
                    let expected = oracle
                        .iter()
                        .filter(|(k, ts, _)| *k == key && *ts <= at)
                        .max_by_key(|(_, ts, _)| *ts)
                        .map(|(_, _, v)| *v);
                    let got = store.read_at(&key, at).map(|v| v.as_int());
                    assert_eq!(got, expected);
                }
            }
        });
    }

    /// GC never changes what a snapshot at/above the horizon can see.
    #[test]
    fn gc_preserves_visible_state() {
        let input_gen = tuple2(
            vec_of(tuple2(u8_in(0, 4), i64_in(0, 100)), 1, 40),
            f64_in(0.0, 1.0),
        );
        check(
            "gc_preserves_visible_state",
            &input_gen,
            |(writes, horizon_frac)| {
                let mut store = MvccStore::new();
                for (i, (key, value)) in writes.iter().enumerate() {
                    store.install(&format!("k{key}"), (i + 1) as u64, Some(Value::Int(*value)));
                }
                let max_ts = writes.len() as u64;
                let horizon = (max_ts as f64 * horizon_frac) as u64;
                let before: Vec<_> = (0u8..4)
                    .map(|k| store.read_at(&format!("k{k}"), max_ts).map(Cow::into_owned))
                    .collect();
                let at_horizon: Vec<_> = (0u8..4)
                    .map(|k| {
                        store
                            .read_at(&format!("k{k}"), horizon)
                            .map(Cow::into_owned)
                    })
                    .collect();
                store.gc(horizon);
                for k in 0u8..4 {
                    assert_eq!(
                        store.read_at(&format!("k{k}"), max_ts).map(Cow::into_owned),
                        before[k as usize].clone()
                    );
                    assert_eq!(
                        store
                            .read_at(&format!("k{k}"), horizon)
                            .map(Cow::into_owned),
                        at_horizon[k as usize].clone()
                    );
                }
            },
        );
    }

    /// An ordered-map model of the version store: what the hash-indexed
    /// store must agree with.
    #[derive(Default)]
    struct Model {
        data: BTreeMap<Key, Vec<Version>>,
    }

    impl Model {
        /// Compact one key against `horizon`; returns (reclaimed, settled).
        fn compact(&mut self, key: &str, horizon: u64) -> (usize, bool) {
            let Some(versions) = self.data.get_mut(key) else {
                return (0, true);
            };
            let keep_from = versions.iter().rposition(|v| v.ts <= horizon).unwrap_or(0);
            versions.drain(..keep_from);
            let dead =
                versions.len() == 1 && versions[0].value.is_none() && versions[0].ts <= horizon;
            let settled = dead || (versions.len() == 1 && versions[0].value.is_some());
            if dead {
                self.data.remove(key);
            }
            (keep_from, settled)
        }
    }

    /// Keys under prefixes that nest (`a/` lies under `a`, so does `ab/`).
    fn key(id: u8) -> Key {
        format!("{}{}", ["a/", "ab/", "b/"][id as usize % 3], id / 3)
    }

    /// A base built from a batch with repeated, empty and multi-byte keys
    /// reads like an ordered map the batch was inserted into pair by
    /// pair, the last pair of a key winning: same values, same
    /// timestamps, same keys, and no key the batch lacks.
    #[test]
    fn base_matches_an_ordered_model() {
        let input_gen = tuple2(
            vec_of(tuple2(u8_in(0, 40), i64_in(0, 100)), 0, 120),
            u64_in(1, 1000),
        );
        check(
            "base_matches_an_ordered_model",
            &input_gen,
            |(batch, first_ts)| {
                let pairs: Vec<(Key, Value)> = batch
                    .iter()
                    .map(|&(id, v)| (batch_key(id), Value::Int(v)))
                    .collect();
                let mut model = BTreeMap::new();
                for (ts, (key, value)) in (*first_ts..).zip(&pairs) {
                    model.insert(key.clone(), (ts, value.clone()));
                }
                let base = Base::new(pairs.into(), *first_ts);
                for id in 0..=60 {
                    let key = batch_key(id);
                    let expected = (model.get(&key)).map(|(ts, value)| (*ts, Cow::Borrowed(value)));
                    let got = base
                        .get(&key)
                        .map(|v| (v.ts, v.value.expect("a base holds values")));
                    assert_eq!(got, expected, "{key:?}");
                    assert_eq!(base.contains_key(&key), expected.is_some(), "{key:?}");
                }
                assert_eq!(base.len(), model.len());
                assert_eq!(base.is_empty(), model.is_empty());
                let mut listed: Vec<_> = base.iter().collect();
                listed.sort_unstable_by(|a, b| a.0.cmp(b.0));
                let ordered: Vec<_> = (model.iter())
                    .map(|(k, (_, v))| (k.as_str(), Cow::Borrowed(v)))
                    .collect();
                assert_eq!(listed, ordered);
            },
        );
    }

    /// Random installs (keeping history, or compacting as the engine's
    /// commits do), tombstones, loads and both GCs leave the store
    /// reading, counting and scanning like the ordered model.
    #[test]
    fn store_matches_an_ordered_model() {
        let ops_gen = vec_of(tuple3(u8_in(0, 7), u8_in(0, 11), i64_in(0, 100)), 1, 60);
        check("store_matches_an_ordered_model", &ops_gen, |ops| {
            let (mut store, mut model) = (MvccStore::new(), Model::default());
            let mut clock = 0u64;
            for &(op, id, value) in ops {
                let k = key(id);
                let horizon = value as u64 % (clock + 1);
                match op {
                    0..=2 => {
                        clock += 1;
                        let value = (op < 2).then_some(Value::Int(value));
                        store.install(&k, clock, value.clone());
                        let version = Version { ts: clock, value };
                        model.data.entry(k).or_default().push(version);
                    }
                    3 => {
                        let pairs = vec![(k, Value::Int(value)), (key(id / 2), Value::Int(-value))];
                        let mut overwritten = Vec::new();
                        for (i, (k, v)) in pairs.iter().enumerate() {
                            let versions = model.data.entry(k.clone()).or_default();
                            if !versions.is_empty() {
                                overwritten.push(k.clone());
                            }
                            let ts = clock + 1 + i as u64;
                            versions.push(Version {
                                ts,
                                value: Some(v.clone()),
                            });
                        }
                        assert_eq!(store.load(pairs.into(), clock + 1), overwritten);
                        clock += 2;
                    }
                    4 => {
                        let keys: Vec<Key> = model.data.keys().cloned().collect();
                        let reclaimed: usize =
                            keys.iter().map(|k| model.compact(k, horizon).0).sum();
                        assert_eq!(store.gc(horizon), reclaimed);
                    }
                    5 => {
                        // A commit's install: the horizon is at most the
                        // clock, and may be past the new version.
                        clock += 1;
                        let horizon = horizon.max(clock * (value as u64 % 2));
                        let value = (value % 3 > 0).then_some(Value::Int(value));
                        let settled = store.install_and_compact(&k, clock, value.clone(), horizon);
                        let version = Version { ts: clock, value };
                        model.data.entry(k.clone()).or_default().push(version);
                        assert_eq!(settled, model.compact(&k, horizon).1);
                    }
                    _ => assert_eq!(store.gc_key(&k, horizon), model.compact(&k, horizon).1),
                }
                let versions: usize = model.data.values().map(Vec::len).sum();
                assert_eq!(store.version_count(), versions);
                for id in 0..12 {
                    let k = key(id);
                    let latest = model.data.get(&k).and_then(|v| v.last()).map(|v| v.ts);
                    assert_eq!(store.latest_ts(&k), latest, "{k}");
                    for at in 0..=clock {
                        let seen = model
                            .data
                            .get(&k)
                            .and_then(|v| v.iter().rev().find(|v| v.ts <= at))
                            .and_then(|v| v.value.as_ref());
                        assert_eq!(
                            store.read_at(&k, at),
                            seen.map(Cow::Borrowed),
                            "{k} at {at}"
                        );
                    }
                }
                for prefix in ["", "a", "a/", "ab/", "b/", "c"] {
                    let scanned: Vec<_> = store.scan_latest(prefix).collect();
                    let ordered: Vec<_> = model
                        .data
                        .range(prefix.to_owned()..)
                        .take_while(|(k, _)| k.starts_with(prefix))
                        .filter_map(|(k, v)| {
                            Some((k.as_str(), Cow::Borrowed(v.last()?.value.as_ref()?)))
                        })
                        .collect();
                    assert_eq!(scanned, ordered, "scan {prefix:?}");
                }
            }
        });
    }
}

mod pairs_props {
    use super::*;
    use std::collections::BTreeMap;
    use std::rc::Rc;
    use tca::sim::ShardMap;
    use tca::storage::router::split_load;
    use tca::storage::{DurableCell, DurableLog, Engine, EngineConfig, Pairs, Value};

    /// The batch `batch` describes, its values `Int`s except where `mix`
    /// puts a `Str`, `Bool`, `List` or `Null`: nowhere (0), at the first
    /// pair (1), at the last (2), at pair `at` alone (3), or at every pair
    /// whose integer is a multiple of three (4).
    fn mixed_batch(batch: &[(u8, i64)], mix: u8, at: usize) -> Vec<(String, Value)> {
        let n = batch.len();
        let other = |i: usize, v: i64| match mix {
            0 => false,
            1 => i == 0,
            2 => i + 1 == n,
            3 => i == at % n,
            _ => v % 3 == 0,
        };
        (batch.iter().enumerate())
            .map(|(i, &(id, v))| {
                let value = match v.rem_euclid(4) {
                    _ if !other(i, v) => Value::Int(v),
                    0 => Value::Str(format!("s{v}")),
                    1 => Value::Bool(v > 0),
                    2 => Value::List(vec![Value::Int(v), Value::Null]),
                    _ => Value::Null,
                };
                (batch_key(id), value)
            })
            .collect()
    }

    fn all_ints<'a>(mut values: impl Iterator<Item = &'a Value>) -> bool {
        values.all(|value| matches!(value, Value::Int(_)))
    }

    /// A batch held as one key arena and one value column, with repeated,
    /// empty and multi-byte keys and values that leave the int column
    /// anywhere or nowhere, is the vector it came from: it prints as the
    /// vector does, equals every batch of the same pairs whichever column
    /// holds them, and lists the same pairs; it holds its values as bare
    /// integers exactly when all of them are `Int`s. A split over any
    /// ring keeps each shard's pairs in input order at exact capacity,
    /// each group in the int column exactly when its own values are all
    /// `Int`s. An engine loaded with it, and one recovered from its image,
    /// share one base, and their reads and scans return each key's last
    /// value. (`mvcc_props::base_matches_an_ordered_model` checks the
    /// base's timestamps.)
    #[test]
    fn a_key_arena_is_the_vector_it_came_from() {
        let input_gen = tuple2(
            vec_of(tuple2(u8_in(0, 24), i64_in(-50, 50)), 0, 80),
            tuple3(usize_in(1, 18), u8_in(0, 4), usize_in(0, 79)),
        );
        check(
            "a_key_arena_is_the_vector_it_came_from",
            &input_gen,
            |(batch, (shards, mix, at))| {
                let vec = mixed_batch(batch, *mix, *at);
                let pairs = Pairs::from(vec.clone());
                assert_eq!(format!("{pairs:?}"), format!("{vec:?}"));
                assert_eq!(format!("{pairs:#?}"), format!("{vec:#?}"));
                assert_eq!(pairs.spare_capacity(), [0, 0, 0]);
                let listed: Vec<_> = (pairs.iter())
                    .map(|(key, value)| (key.to_owned(), value.into_owned()))
                    .collect();
                assert_eq!(listed, vec);
                let ints = all_ints(vec.iter().map(|(_, value)| value));
                assert_eq!(pairs.ints().is_some(), ints, "int column");
                assert_eq!(vec.iter().cloned().collect::<Pairs>(), pairs);
                // The same pairs with every value in the `Value` column.
                let mut promoted = Pairs::new();
                promoted.push("", Value::Null);
                promoted.drain_from(0, |_, _| {});
                promoted.append(pairs.clone());
                assert_eq!(promoted.ints(), None);
                assert_eq!(promoted, pairs);
                assert_eq!(pairs, promoted);
                if let Some((key, _)) = vec.last() {
                    let mut changed = pairs.clone();
                    changed.drain_from(vec.len() - 1, |_, _| {});
                    changed.push(key, Value::Int(1_000));
                    assert_ne!(changed, pairs);
                    assert_ne!(pairs, changed);
                }

                let map = ShardMap::ring(*shards);
                let groups = split_load(&map, pairs.clone());
                assert_eq!(groups.len(), *shards);
                for (shard, group) in groups.iter().enumerate() {
                    let owned: Vec<_> = (vec.iter())
                        .filter(|(key, _)| map.owner(key) == shard)
                        .cloned()
                        .collect();
                    assert_eq!(*group, Pairs::from(owned.clone()), "shard {shard}");
                    assert_eq!(format!("{group:?}"), format!("{owned:?}"), "shard {shard}");
                    assert_eq!(group.spare_capacity(), [0, 0, 0], "shard {shard}");
                    let ints = all_ints(owned.iter().map(|(_, value)| value));
                    assert_eq!(group.ints().is_some(), ints, "shard {shard}: int column");
                }

                let (wal, image) = (DurableLog::new(), DurableCell::new());
                let mut engine = Engine::new(EngineConfig::default(), wal.clone(), image.clone());
                engine.load_batch(pairs);
                let recovered = Engine::recover(EngineConfig::default(), wal, image.clone());
                let base = engine.store().base();
                assert!(Rc::ptr_eq(recovered.store().base(), base), "one base");
                image.with(|image| match image {
                    Some(image) => assert!(Rc::ptr_eq(image.state.base(), base), "one base"),
                    None => assert!(base.is_empty(), "a base the image does not hold"),
                });
                let last: BTreeMap<_, _> = vec.iter().cloned().collect();
                let ordered: Vec<_> = last.clone().into_iter().collect();
                assert_eq!(base.len(), last.len());
                let mut listed: Vec<_> = (base.iter())
                    .map(|(key, value)| (key.to_owned(), value.into_owned()))
                    .collect();
                listed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                assert_eq!(listed, ordered, "base lists each key's last value");
                for (key, value) in &last {
                    let got = base.get(key).and_then(|version| version.value);
                    assert_eq!(got.as_deref(), Some(value), "{key:?}");
                    assert_eq!(engine.peek(key).as_ref(), Some(value), "{key:?}");
                    assert_eq!(recovered.peek(key).as_ref(), Some(value), "{key:?}");
                }
                for store in [engine.store(), recovered.store()] {
                    let scanned: Vec<_> = (store.scan_latest(""))
                        .map(|(key, value)| (key.to_owned(), value.into_owned()))
                        .collect();
                    assert_eq!(scanned, ordered, "a scan lists each key's last value");
                }
            },
        );
    }
}

mod engine_props {
    use super::*;
    use std::collections::BTreeMap;
    use std::rc::Rc;
    use tca::storage::{
        Checkpoint, CommitResult, DurableCell, DurableLog, Engine, EngineConfig, EngineImage,
        IsolationLevel, OpResult, TxId, Value, WalRecord,
    };

    /// Serializable transfers conserve total money for ANY schedule of
    /// sequential transactions, and recovery reproduces the exact
    /// committed state.
    fn transfers_conserve_and_recover_prop(input: &(Vec<(u8, u8, i64)>, u64)) {
        let (transfers, checkpoint_every) = input;
        let wal = DurableLog::new();
        let cp = DurableCell::new();
        let config = EngineConfig {
            checkpoint_every: *checkpoint_every,
        };
        let committed_state: Vec<i64>;
        {
            let mut engine = Engine::new(config.clone(), wal.clone(), cp.clone());
            for account in 0..6 {
                engine.load(&format!("a{account}"), Value::Int(100));
            }
            for (from, to, amount) in transfers {
                let tx = engine.begin(IsolationLevel::Serializable);
                let from_key = format!("a{from}");
                let to_key = format!("a{to}");
                let balance = match engine.read(tx, &from_key).0 {
                    OpResult::Read(Some(v)) => v.as_int(),
                    _ => 0,
                };
                if balance >= *amount && from != to {
                    let dest = match engine.read(tx, &to_key).0 {
                        OpResult::Read(Some(v)) => v.as_int(),
                        _ => 0,
                    };
                    engine.write(tx, &from_key, Some(Value::Int(balance - amount)));
                    engine.write(tx, &to_key, Some(Value::Int(dest + amount)));
                    let (result, _) = engine.commit(tx);
                    assert!(matches!(result, CommitResult::Committed(_)));
                } else {
                    engine.abort(tx);
                }
            }
            let total: i64 = (0..6)
                .map(|a| engine.peek(&format!("a{a}")).unwrap().as_int())
                .sum();
            assert_eq!(total, 600, "money conserved");
            committed_state = (0..6)
                .map(|a| engine.peek(&format!("a{a}")).unwrap().as_int())
                .collect();
        }
        // Crash (drop) and recover from WAL + checkpoint.
        let recovered = Engine::recover(config, wal, cp);
        let recovered_state: Vec<i64> = (0..6)
            .map(|a| recovered.peek(&format!("a{a}")).unwrap().as_int())
            .collect();
        assert_eq!(committed_state, recovered_state);
    }

    #[test]
    fn transfers_conserve_and_recover() {
        let input_gen = tuple2(
            vec_of(tuple3(u8_in(0, 6), u8_in(0, 6), i64_in(1, 50)), 1, 60),
            u64_in(1, 20),
        );
        check(
            "transfers_conserve_and_recover",
            &input_gen,
            transfers_conserve_and_recover_prop,
        );
    }

    /// Counterexample proptest once shrank to (migrated verbatim from
    /// `tests/proptest_invariants.proptest-regressions`): a self-transfer
    /// as the very first transaction with a checkpoint after every commit.
    #[test]
    fn transfers_regression_self_transfer_with_eager_checkpoint() {
        regression(
            "transfers = [(0, 0, 1)], checkpoint_every = 1",
            &(vec![(0u8, 0u8, 1i64)], 1u64),
            transfers_conserve_and_recover_prop,
        );
    }

    // ----- incremental checkpoint: model-based property ---------------------

    const KEYS: u8 = 6;
    const SLOTS: usize = 3;
    const CADENCES: [u64; 5] = [1, 2, 3, 7, 1024];

    fn key(i: u8) -> String {
        format!("k{}", i % KEYS)
    }

    /// What the durable handles must hold and what a restart must restore,
    /// tracked independently of the engine: the committed map, the clock,
    /// the checkpoint cadence (commits of *any* kind count), and the two
    /// things recovery derives from what is retained — the clock (image
    /// `ts`, or the last logged write) and the next transaction id (the
    /// larger of the one the image recorded when last written and one
    /// past the largest id in the retained tail).
    struct Model {
        state: BTreeMap<String, Value>,
        clock: u64,
        next_tx: u64,
        durable_clock: u64,
        tail: usize,
        image_next_tx: u64,
        tail_next_tx: u64,
        since_checkpoint: u64,
        every: u64,
    }

    impl Model {
        fn fold(&mut self) {
            self.durable_clock = self.clock;
            self.tail = 0;
            self.image_next_tx = self.next_tx;
            self.tail_next_tx = 0;
        }

        fn recovered_next_tx(&self) -> u64 {
            self.image_next_tx.max(self.tail_next_tx)
        }

        /// A commit of `tx`; returns whether it triggered a checkpoint.
        fn commit(&mut self, tx: TxId, writes: &[(String, Option<Value>)]) -> bool {
            self.clock += 1;
            if !writes.is_empty() {
                for (key, value) in writes {
                    match value {
                        Some(value) => self.state.insert(key.clone(), value.clone()),
                        None => self.state.remove(key),
                    };
                }
                self.durable_clock = self.clock;
                self.tail += 1;
                self.tail_next_tx = self.tail_next_tx.max(tx.0 + 1);
            }
            self.since_checkpoint += 1;
            let checkpoint = self.since_checkpoint >= self.every;
            if checkpoint {
                self.since_checkpoint = 0;
                self.fold();
            }
            checkpoint
        }

        fn load(&mut self, pairs: &[(String, Value)]) {
            self.clock += pairs.len() as u64;
            self.state.extend(pairs.iter().cloned());
            self.fold();
        }

        fn crash(&mut self) {
            self.clock = self.durable_clock;
            self.next_tx = self.recovered_next_tx();
            self.since_checkpoint = 0;
        }
    }

    /// An SI transaction held open, with the committed map as of its begin.
    struct Snapshot {
        tx: TxId,
        sees: BTreeMap<String, Value>,
    }

    struct Harness {
        config: EngineConfig,
        wal: DurableLog<WalRecord>,
        image: DurableCell<Checkpoint<EngineImage>>,
        engine: Engine,
        model: Model,
        open: [Option<Snapshot>; SLOTS],
        stamp: i64,
        /// Whether the engine keeps footprints; a restart must not matter.
        recording: bool,
    }

    impl Harness {
        fn new(every: u64, recording: bool) -> Self {
            let config = EngineConfig {
                checkpoint_every: every,
            };
            let (wal, image) = (DurableLog::new(), DurableCell::new());
            let mut engine = Engine::new(config.clone(), wal.clone(), image.clone());
            engine.record_footprints(recording);
            Harness {
                engine,
                config,
                wal,
                image,
                model: Model {
                    state: BTreeMap::new(),
                    clock: 0,
                    next_tx: 0,
                    durable_clock: 0,
                    tail: 0,
                    image_next_tx: 0,
                    tail_next_tx: 0,
                    since_checkpoint: 0,
                    every,
                },
                open: Default::default(),
                stamp: 0,
                recording,
            }
        }

        fn begin(&mut self, iso: IsolationLevel) -> TxId {
            let tx = self.engine.begin(iso);
            assert_eq!(tx, TxId(self.model.next_tx), "begin() id");
            self.model.next_tx += 1;
            tx
        }

        /// Commit `tx` on both sides. Each key the commit wrote must be
        /// compacted as a whole-store GC at the engine's horizon would
        /// leave it; after a checkpoint the image must be the committed
        /// map and the engine's own GC must have left a whole-store GC
        /// nothing to do.
        fn commit(&mut self, tx: TxId, writes: &[(String, Option<Value>)]) {
            let (result, _) = self.engine.commit(tx);
            let checkpoint = self.model.commit(tx, writes);
            assert_eq!(result, CommitResult::Committed(self.model.clock));
            let store = self.engine.store();
            let mut reference = store.clone();
            reference.gc(self.engine.gc_horizon());
            for (key, _) in writes {
                assert_eq!(
                    store.chain(key),
                    reference.chain(key),
                    "{key} after the commit that wrote it"
                );
            }
            if checkpoint {
                self.assert_image_is_current();
                assert_eq!(
                    self.engine.store().version_count(),
                    reference.version_count(),
                    "a whole-store gc found versions the checkpoint left behind"
                );
            }
        }

        fn write(&mut self, writes: Vec<(String, Option<Value>)>) {
            let tx = self.begin(IsolationLevel::ReadCommitted);
            for (key, value) in &writes {
                assert_eq!(
                    self.engine.write(tx, key, value.clone()).0,
                    OpResult::Written
                );
            }
            // What the transaction commits is its last write per key.
            let last: BTreeMap<_, _> = writes.into_iter().collect();
            self.commit(tx, &last.into_iter().collect::<Vec<_>>());
        }

        fn load(&mut self, pairs: Vec<(String, Value)>) {
            self.model.load(&pairs);
            if let [(key, value)] = &pairs[..] {
                self.engine.load(key, value.clone());
            } else {
                self.engine.load_batch(pairs.into());
            }
            self.assert_image_is_current();
        }

        fn close(&mut self, slot: usize, commit: bool) {
            if let Some(snapshot) = self.open[slot].take() {
                if commit {
                    self.commit(snapshot.tx, &[]);
                } else {
                    self.engine.abort(snapshot.tx);
                }
            }
        }

        fn crash(&mut self) {
            self.open = Default::default();
            self.model.crash();
            self.engine =
                Engine::recover(self.config.clone(), self.wal.clone(), self.image.clone());
            self.engine.record_footprints(self.recording);
        }

        fn next_value(&mut self) -> Value {
            self.stamp += 1;
            Value::Int(self.stamp)
        }

        fn step(&mut self, &(op, a, b): &(u8, u8, u8)) {
            match op {
                0 | 1 => {
                    let writes = vec![
                        (key(a), Some(self.next_value())),
                        (key(b), Some(self.next_value())),
                    ];
                    self.write(writes);
                }
                2 => self.write(vec![(key(a), None)]),
                3 => {
                    let writes = vec![(key(a), Some(self.next_value())), (key(b), None)];
                    self.write(writes);
                }
                4 => {
                    // A batch over present and absent keys alike; `b` odd
                    // repeats the first key inside the batch.
                    let mut pairs: Vec<_> = (0..=b % 4)
                        .map(|i| (key(a + i), self.next_value()))
                        .collect();
                    if b % 2 == 1 {
                        pairs.push((key(a), self.next_value()));
                    }
                    self.load(pairs);
                }
                5 => {
                    let pair = (key(a), self.next_value());
                    self.load(vec![pair]);
                }
                6 | 7 => {
                    let slot = b as usize % SLOTS;
                    self.close(slot, a % 2 == 0);
                    let tx = self.begin(IsolationLevel::SnapshotIsolation);
                    self.open[slot] = Some(Snapshot {
                        tx,
                        sees: self.model.state.clone(),
                    });
                }
                8 => self.close(b as usize % SLOTS, a % 2 == 0),
                9 => {
                    let tx = self.begin(IsolationLevel::ReadCommitted);
                    self.engine.read(tx, &key(a));
                    self.commit(tx, &[]);
                }
                _ => self.crash(),
            }
            self.assert_consistent();
        }

        fn assert_image_is_current(&self) {
            self.image.with(|image| {
                let image = image.expect("an image exists after a checkpoint or a load");
                let state = image.state.materialize();
                assert_eq!(state, self.model.state, "image ≠ committed state");
                assert_eq!(image.ts, self.model.clock);
                assert_eq!(image.covered_lsn, self.wal.next_lsn());
            });
            assert!(self.wal.is_empty(), "a fold truncates the WAL");
        }

        /// The engine's store and the image share one base, never a copy.
        fn assert_base_is_shared(&self, engine: &Engine) {
            self.image.with(|image| {
                let (image, store) = (image.map(|i| i.state.base()), engine.store().base());
                match image {
                    Some(image) if !image.is_empty() => assert!(Rc::ptr_eq(image, store)),
                    _ => assert!(store.is_empty(), "a base the image does not hold"),
                }
            });
        }

        fn assert_consistent(&mut self) {
            let committed: Vec<_> = self.model.state.clone().into_iter().collect();
            self.assert_base_is_shared(&self.engine);
            assert_eq!(self.engine.clock(), self.model.clock);
            assert_eq!(self.engine.peek_prefix(""), committed);
            assert_eq!(self.wal.len(), self.model.tail);
            // Every open snapshot still reads the map as of its begin,
            // whatever was checkpointed and collected since.
            for snapshot in self.open.iter().flatten() {
                for i in 0..KEYS {
                    let (read, _) = self.engine.read(snapshot.tx, &key(i));
                    let expected = snapshot.sees.get(&key(i)).cloned();
                    assert_eq!(
                        read,
                        OpResult::Read(expected),
                        "snapshot read of {}",
                        key(i)
                    );
                }
            }
            // A crash here — before whatever comes next — restores exactly
            // the committed map (recovering only reads the handles).
            let mut probe =
                Engine::recover(self.config.clone(), self.wal.clone(), self.image.clone());
            assert_eq!(probe.peek_prefix(""), committed, "recovered state");
            self.assert_base_is_shared(&probe);
            assert_eq!(probe.clock(), self.model.durable_clock, "recovered clock");
            assert_eq!(
                probe.begin(IsolationLevel::ReadCommitted),
                TxId(self.model.recovered_next_tx()),
                "recovered next transaction id"
            );
        }
    }

    fn incremental_checkpoint_prop(input: &(Vec<(u8, u8, u8)>, usize)) {
        let (script, cadence) = input;
        // Keeping history or not, the engine matches the one model; and
        // the same script runs again over a base: every key bulk-loaded
        // into the fresh engine first, so its overwrites, deletes, GC,
        // checkpoints and crashes all land on base keys.
        for (recording, base) in [(true, false), (false, false), (true, true)] {
            let mut harness = Harness::new(CADENCES[*cadence], recording);
            if base {
                let pairs = (0..KEYS).map(|i| (key(i), harness.next_value())).collect();
                harness.load(pairs);
                harness.assert_consistent();
            }
            for step in script {
                harness.step(step);
            }
            assert!(recording || harness.engine.take_footprints().is_empty());
        }
    }

    /// Bulk loads (over existing keys too), updates, deletes, SI snapshots
    /// held open across checkpoints, read-only commits and crashes at
    /// arbitrary points: the image in the cell, the engine's GC and what a
    /// restart restores all match the model after every step.
    #[test]
    fn incremental_checkpoint_matches_model() {
        let input_gen = tuple2(
            vec_of(tuple3(u8_in(0, 11), u8_in(0, 8), u8_in(0, 8)), 1, 80),
            usize_in(0, CADENCES.len()),
        );
        check(
            "incremental_checkpoint_matches_model",
            &input_gen,
            incremental_checkpoint_prop,
        );
    }

    /// The two ways the fold can go wrong, each as the shortest script
    /// that shows it: a tombstone the fold must take out of the image (or,
    /// over a base key, keep in it), and a version a snapshot pinned at
    /// one checkpoint that only the deferred list brings back to the next.
    #[test]
    fn incremental_checkpoint_pinned_scripts() {
        regression(
            "load k0, delete k0 (checkpoint), crash",
            &(vec![(5, 0, 0), (2, 0, 0), (10, 0, 0)], 0),
            incremental_checkpoint_prop,
        );
        regression(
            "load k0, open snapshot, update k0 (checkpoint: the snapshot pins \
             both versions), abort snapshot, read-only commit (checkpoint)",
            &(
                vec![(5, 0, 0), (6, 1, 0), (0, 0, 0), (8, 1, 0), (9, 1, 0)],
                0,
            ),
            incremental_checkpoint_prop,
        );
        regression(
            "base load k0..k2, delete k1 (checkpoint), crash, overwrite k0 and \
             delete k2 (checkpoint), load k1 over its tombstone, crash",
            &(
                vec![
                    (4, 0, 2),
                    (2, 1, 0),
                    (10, 0, 0),
                    (3, 0, 2),
                    (5, 1, 0),
                    (10, 0, 0),
                ],
                0,
            ),
            incremental_checkpoint_prop,
        );
    }

    /// A checkpoint costs what was written since the last one: read-only
    /// intervals leave the loaded base and every value in it where they
    /// were, and `k` updated keys put exactly `k` entries in the delta.
    #[test]
    fn checkpoint_touches_only_what_was_written() {
        const EVERY: u64 = 64;
        let (wal, image) = (DurableLog::new(), DurableCell::new());
        let config = EngineConfig {
            checkpoint_every: EVERY,
        };
        let mut engine = Engine::new(config, wal.clone(), image.clone());
        let name = |i: u64| format!("user{i:05}");
        engine.load_batch(
            (0..10_000)
                .map(|i| (name(i), Value::Str(format!("payload-{i}"))))
                .collect(),
        );
        let base = image.with(|image| Rc::clone(image.expect("loaded").state.base()));
        assert!(Rc::ptr_eq(&base, engine.store().base()), "held once");
        // Every value's address in the image, the delta's over the base's.
        let addresses = || -> Vec<*const u8> {
            image.with(|image| {
                let image = &image.expect("loaded").state;
                assert!(Rc::ptr_eq(image.base(), &base), "the base was replaced");
                (0..10_000)
                    .map(|i| match image.delta().get(&name(i)) {
                        Some(value) => value.as_ref().expect("no deletes").as_str().as_ptr(),
                        None => image
                            .base()
                            .get(&name(i))
                            .unwrap()
                            .value
                            .unwrap()
                            .as_str()
                            .as_ptr(),
                    })
                    .collect()
            })
        };
        let read_only_commit = |engine: &mut Engine, i: u64| {
            let tx = engine.begin(IsolationLevel::Serializable);
            engine.read(tx, &name(i));
            engine.commit(tx);
        };
        let loaded = addresses();
        assert_eq!(loaded.len(), 10_000);
        for i in 0..3 * EVERY {
            read_only_commit(&mut engine, i);
        }
        assert_eq!(wal.len(), 0);
        assert_eq!(
            image.with(|image| image.expect("loaded").ts),
            engine.clock()
        );
        assert!(
            addresses() == loaded,
            "a read-only interval rebuilt the image"
        );
        assert!(image.with(|image| image.expect("loaded").state.delta().is_empty()));

        let updated = [7, 1_000, 5_000, 9_999];
        for &i in &updated {
            let tx = engine.begin(IsolationLevel::Serializable);
            engine.write(tx, &name(i), Some(Value::Str(format!("update-{i}"))));
            engine.commit(tx);
        }
        for i in updated.len() as u64..EVERY {
            read_only_commit(&mut engine, i);
        }
        assert_eq!(wal.len(), 0, "the interval ended in a checkpoint");
        let patched = addresses();
        let moved: Vec<usize> = (0..loaded.len())
            .filter(|&i| patched[i] != loaded[i])
            .collect();
        assert_eq!(moved, updated.map(|i| i as usize));
        image.with(|image| {
            let state = &image.expect("loaded").state;
            let delta: Vec<&String> = state.delta().keys().collect();
            assert_eq!(delta, updated.map(name).iter().collect::<Vec<_>>());
            let state = state.materialize();
            assert_eq!(state[&name(7)], Value::Str("update-7".into()));
            assert_eq!(state[&name(8)], Value::Str("payload-8".into()));
        });
        assert_eq!(
            base.get(&name(7)).unwrap().value,
            Some(Cow::Borrowed(&Value::Str("payload-7".into())))
        );
    }

    /// An SI read records the commit timestamp of the version it saw, not
    /// the snapshot's own timestamp: the checker draws a wr edge only from
    /// the writer whose commit_ts the footprint names.
    #[test]
    fn si_footprint_names_the_version_it_read() {
        let mut engine = Engine::new(
            EngineConfig::default(),
            DurableLog::new(),
            DurableCell::new(),
        );
        let x = "x".to_owned();
        let tick = |engine: &mut Engine, n: u64| {
            for _ in 0..n {
                let tx = engine.begin(IsolationLevel::ReadCommitted);
                engine.commit(tx);
            }
        };
        let put = |engine: &mut Engine, value: i64| {
            let tx = engine.begin(IsolationLevel::ReadCommitted);
            engine.write(tx, &x, Some(Value::Int(value)));
            match engine.commit(tx).0 {
                CommitResult::Committed(ts) => ts,
                other => panic!("{other:?}"),
            }
        };
        tick(&mut engine, 2);
        assert_eq!(put(&mut engine, 30), 3);
        tick(&mut engine, 4);
        let reader = engine.begin(IsolationLevel::SnapshotIsolation); // begin_ts 7
        tick(&mut engine, 1);
        assert_eq!(put(&mut engine, 90), 9);
        assert_eq!(
            engine.read(reader, &x).0,
            OpResult::Read(Some(Value::Int(30)))
        );
        engine.commit(reader);
        let footprints = engine.take_footprints();
        let reader = footprints.iter().find(|f| f.tx == reader).expect("reader");
        assert_eq!(reader.reads, vec![(x.clone(), 3)]);
    }
}

mod checker_props {
    use super::*;
    use tca::storage::{IsolationLevel, TxFootprint, TxId};
    use tca::txn::{check_serializability, SerializabilityVerdict};

    /// A strictly serial history (each txn reads the versions the
    /// previous one wrote) is always judged serializable.
    #[test]
    fn serial_histories_pass() {
        check("serial_histories_pass", &usize_in(1, 30), |&n| {
            let mut footprints = Vec::new();
            for i in 0..n {
                footprints.push(TxFootprint {
                    tx: TxId(i as u64),
                    commit_ts: (i + 1) as u64,
                    iso: IsolationLevel::Serializable,
                    reads: vec![("x".into(), i as u64)],
                    writes: vec!["x".into()],
                });
            }
            assert_eq!(
                check_serializability(&footprints),
                SerializabilityVerdict::Serializable
            );
        });
    }

    /// Any pair of transactions that both read the same old version
    /// and both overwrite it (classic lost update) is flagged.
    #[test]
    fn lost_updates_always_flagged() {
        let input_gen = tuple2(u64_in(0, 5), u64_in(1, 5));
        check("lost_updates_always_flagged", &input_gen, |&(base, gap)| {
            let footprints = vec![
                TxFootprint {
                    tx: TxId(1),
                    commit_ts: base + gap,
                    iso: IsolationLevel::ReadCommitted,
                    reads: vec![("x".into(), base)],
                    writes: vec!["x".into()],
                },
                TxFootprint {
                    tx: TxId(2),
                    commit_ts: base + gap + 1,
                    iso: IsolationLevel::ReadCommitted,
                    reads: vec![("x".into(), base)],
                    writes: vec!["x".into()],
                },
            ];
            assert!(matches!(
                check_serializability(&footprints),
                SerializabilityVerdict::CyclicDependency(_)
            ));
        });
    }
}

mod sim_props {
    use super::*;

    /// Histogram quantiles are monotone and bounded by min/max.
    #[test]
    fn histogram_quantiles_monotone() {
        let samples_gen = vec_of(u64_in(0, 10_000_000), 1, 200);
        check("histogram_quantiles_monotone", &samples_gen, |samples| {
            let mut histogram = Histogram::new();
            for &s in samples {
                histogram.record(SimDuration::from_nanos(s));
            }
            let quantiles: Vec<_> = [0.0, 0.25, 0.5, 0.75, 0.99, 1.0]
                .iter()
                .map(|&q| histogram.quantile(q))
                .collect();
            for pair in quantiles.windows(2) {
                assert!(pair[0] <= pair[1]);
            }
            assert!(quantiles[5] <= histogram.max());
        });
    }

    /// Zipf samples stay in range and lower indices dominate for
    /// positive skew.
    #[test]
    fn zipf_in_range() {
        let input_gen = tuple3(usize_in(1, 500), f64_in(0.0, 2.0), u64_in(0, 1000));
        check("zipf_in_range", &input_gen, |&(n, theta, seed)| {
            let zipf = Zipf::new(n, theta);
            let mut rng = SimRng::new(seed);
            for _ in 0..100 {
                assert!(zipf.sample(&mut rng) < n);
            }
        });
    }

    /// The RNG stream is reproducible from the seed.
    #[test]
    fn rng_reproducible() {
        check("rng_reproducible", &u64_in(0, 10_000), |&seed| {
            let mut a = SimRng::new(seed);
            let mut b = SimRng::new(seed);
            for _ in 0..16 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        });
    }
}

mod window_props {
    use super::*;
    use tca::sim::RecentWindow;

    /// `RecentWindow` against a plain `Vec` in insertion order: never
    /// longer than its capacity, evicts strictly oldest insertion first,
    /// a removed key ages from its re-insertion, and `set` never
    /// resurrects an evicted key.
    #[test]
    fn recent_window_matches_insertion_ordered_vec() {
        // (op, key, value): ops 0–2 insert, 3 set, 4 remove.
        let ops_gen = vec_of(tuple3(u8_in(0, 5), u8_in(0, 8), i64_in(0, 100)), 0, 120);
        let input_gen = tuple2(usize_in(1, 5), ops_gen);
        check(
            "recent_window_matches_insertion_ordered_vec",
            &input_gen,
            |(capacity, ops)| {
                let mut window = RecentWindow::new(*capacity);
                let mut model: Vec<(u8, i64)> = Vec::new();
                for &(op, key, value) in ops {
                    let at = model.iter().position(|&(k, _)| k == key);
                    match (op, at) {
                        (0..=2, Some(at)) => {
                            model[at].1 = value;
                            assert_eq!(window.insert(key, value), None);
                        }
                        (0..=2, None) => {
                            model.push((key, value));
                            let evicted = (model.len() > *capacity).then(|| model.remove(0));
                            assert_eq!(window.insert(key, value), evicted);
                        }
                        (3, at) => {
                            if let Some(at) = at {
                                model[at].1 = value;
                            }
                            assert_eq!(window.set(&key, value), at.is_some());
                        }
                        (_, at) => {
                            let removed = at.map(|at| model.remove(at).1);
                            assert_eq!(window.remove(&key), removed);
                        }
                    }
                    assert_eq!(window.len(), model.len());
                    assert!(window.len() <= *capacity);
                    for k in 0..8u8 {
                        let expected = model.iter().find(|&&(mk, _)| mk == k).map(|(_, v)| v);
                        assert_eq!(window.get(&k), expected);
                        assert_eq!(window.contains(&k), expected.is_some());
                    }
                }
            },
        );
    }
}

mod causal_props {
    use super::*;
    use tca::txn::{CausalMailbox, CausalMessage, VectorClock};

    /// For any interleaving of two causally ordered messages, a
    /// causal mailbox always delivers the cause before the effect.
    #[test]
    fn cause_precedes_effect() {
        check("cause_precedes_effect", &bool_any(), |&first_is_effect| {
            let mut sender_a = VectorClock::new();
            let cause = CausalMessage {
                sender: 0,
                clock: sender_a.tick(0),
                body: "cause",
            };
            let mut sender_b = VectorClock::new();
            sender_b.merge(&cause.clock);
            let effect = CausalMessage {
                sender: 1,
                clock: sender_b.tick(1),
                body: "effect",
            };
            let mut mailbox: CausalMailbox<&str> = CausalMailbox::new(7);
            let (first, second) = if first_is_effect {
                (effect, cause)
            } else {
                (cause, effect)
            };
            let mut order = Vec::new();
            order.extend(mailbox.offer(first).into_iter().map(|m| m.body));
            order.extend(mailbox.offer(second).into_iter().map(|m| m.body));
            assert_eq!(order, vec!["cause", "effect"]);
        });
    }
}
