//! Property-based tests over the core data structures and invariants,
//! on the in-tree `tca::sim::check` harness (formerly proptest).
//!
//! Failures print a reproducing seed; rerun with `TCA_CHECK_SEED=<seed>`.
//! Counterexamples that shrinking found in the past are pinned as
//! explicit `regression` cases next to the property they broke.

use tca::sim::check::{
    bool_any, check, f64_in, i64_in, regression, tuple2, tuple3, u64_in, u8_in, usize_in, vec_of,
};
use tca::sim::{Histogram, SimDuration, SimRng, Zipf};

mod mvcc_props {
    use super::*;
    use tca::storage::{MvccStore, Value};

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
                    .map(|k| store.read_at(&format!("k{k}"), max_ts).cloned())
                    .collect();
                let at_horizon: Vec<_> = (0u8..4)
                    .map(|k| store.read_at(&format!("k{k}"), horizon).cloned())
                    .collect();
                store.gc(horizon);
                for k in 0u8..4 {
                    assert_eq!(
                        store.read_at(&format!("k{k}"), max_ts).cloned(),
                        before[k as usize].clone()
                    );
                    assert_eq!(
                        store.read_at(&format!("k{k}"), horizon).cloned(),
                        at_horizon[k as usize].clone()
                    );
                }
            },
        );
    }
}

mod engine_props {
    use super::*;
    use std::collections::BTreeMap;
    use tca::storage::{
        Checkpoint, CommitResult, DurableCell, DurableLog, Engine, EngineConfig, IsolationLevel,
        OpResult, TxId, Value, WalRecord,
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
        image: DurableCell<Checkpoint<BTreeMap<String, Value>>>,
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

        /// Commit `tx` on both sides; after a checkpoint the image must be
        /// the committed map and the engine's own GC must have left a
        /// whole-store GC nothing to do.
        fn commit(&mut self, tx: TxId, writes: &[(String, Option<Value>)]) {
            let (result, _) = self.engine.commit(tx);
            let checkpoint = self.model.commit(tx, writes);
            assert_eq!(result, CommitResult::Committed(self.model.clock));
            if checkpoint {
                self.assert_image_is_current();
                let mut reference = self.engine.store().clone();
                reference.gc(self.engine.gc_horizon());
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
                self.engine.load_batch(pairs);
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
                assert_eq!(image.state, self.model.state, "image ≠ committed state");
                assert_eq!(image.ts, self.model.clock);
                assert_eq!(image.covered_lsn, self.wal.next_lsn());
            });
            assert!(self.wal.is_empty(), "a fold truncates the WAL");
        }

        fn assert_consistent(&mut self) {
            let committed: Vec<_> = self.model.state.clone().into_iter().collect();
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
        // Keeping history or not, the engine matches the one model.
        for recording in [true, false] {
            let mut harness = Harness::new(CADENCES[*cadence], recording);
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
    /// that shows it: a tombstone the fold must take out of the image, and
    /// a version a snapshot pinned at one checkpoint that only the
    /// deferred list brings back to the next.
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
    }

    /// A checkpoint costs what was written since the last one: read-only
    /// intervals leave every value of the image where it was, and `k`
    /// updated keys change exactly `k` entries.
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
        let addresses = || -> Vec<*const u8> {
            image.with(|image| {
                let image = image.expect("loaded");
                image.state.values().map(|v| v.as_str().as_ptr()).collect()
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
            assert_eq!(state[&name(7)], Value::Str("update-7".into()));
            assert_eq!(state[&name(8)], Value::Str("payload-8".into()));
        });
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
