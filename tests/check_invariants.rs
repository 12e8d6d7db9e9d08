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
    use tca::storage::{
        CommitResult, DurableCell, DurableLog, Engine, EngineConfig, IsolationLevel, OpResult,
        Value,
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
            gc: true,
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
