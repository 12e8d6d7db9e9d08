//! Wall-clock benchmarks of the simulator and substrates, on the in-tree
//! harness (`tca_bench::harness`) — the replacement for the former
//! Criterion benches.
//!
//! ```text
//! cargo run -p tca-bench --bin bench --release                    # all
//! cargo run -p tca-bench --bin bench --release -- --filter tpcc  # subset
//! cargo run -p tca-bench --bin bench --release -- --quick        # 5 short samples
//! cargo run -p tca-bench --bin bench --release -- --json bench_local.json
//! cargo run -p tca-bench --bin bench --release -- --trace-out trace.json
//! ```
//!
//! These are isolated microbenchmarks for use while working on one layer;
//! the tracked whole-stack benchmark, with its per-layer ledger and
//! regression bounds, is `sh benchmark/run.sh` (see `benchmark/README.md`).
//!
//! `--trace-out PATH` runs one traced saga cell (seed 42) and writes the
//! recorded span tree as Chrome-trace JSON — open it at
//! `chrome://tracing` or <https://ui.perfetto.dev>. Combine with
//! `--trace-cell 2pc|saga|actor-txn` to pick the mechanism.
//!
//! Covers the taxonomy cells ({model × mechanism} transfer workloads,
//! F1/E1/E3/E7 hot paths), engine commit paths per isolation level (E11),
//! TPC-C procedures (E9), YCSB mixes, MVCC install/read/gc, and Zipf
//! sampling. Virtual-time results are printed by the `experiments`
//! binary; these benches time the *simulator's* wall-clock performance.

use std::time::Duration;

use tca_bench::harness::Bench;
use tca_core::cell::{run_cell, run_cell_traced, CellParams};
use tca_core::taxonomy::{ProgrammingModel, TxnMechanism};
use tca_sim::{SimRng, Zipf};
use tca_storage::{
    run_proc, DurableCell, DurableLog, Engine, EngineConfig, IsolationLevel, MvccStore, Value,
};
use tca_workloads::{tpcc, ycsb};

fn cell_params() -> CellParams {
    CellParams {
        seed: 7,
        transfers: 100,
        clients: 8,
        accounts: 64,
        ..CellParams::default()
    }
}

fn fresh_engine() -> Engine {
    Engine::new(
        EngineConfig::default(),
        DurableLog::new(),
        DurableCell::new(),
    )
}

fn bench_cells(bench: &mut Bench) {
    let cells: Vec<(&str, ProgrammingModel, TxnMechanism)> = vec![
        ("saga", ProgrammingModel::Microservices, TxnMechanism::Saga),
        (
            "2pc",
            ProgrammingModel::Microservices,
            TxnMechanism::TwoPhaseCommit,
        ),
        (
            "actors",
            ProgrammingModel::VirtualActors,
            TxnMechanism::None,
        ),
        (
            "actor-txn",
            ProgrammingModel::VirtualActors,
            TxnMechanism::ActorTransactions,
        ),
        (
            "statefun",
            ProgrammingModel::StatefulFunctions,
            TxnMechanism::EntityLocks,
        ),
        (
            "deterministic",
            ProgrammingModel::StatefulDataflow,
            TxnMechanism::DeterministicOrdering,
        ),
    ];
    for (name, model, mechanism) in cells {
        bench.run(&format!("cells/{name}"), || {
            let report = run_cell(model, mechanism, &cell_params());
            assert!(report.committed > 0);
            report.committed
        });
    }
}

fn bench_contention(bench: &mut Bench) {
    for hot in [0.0, 0.9] {
        bench.run(&format!("contention/actor-txn/hot={hot}"), || {
            let p = CellParams {
                hot_prob: hot,
                ..cell_params()
            };
            run_cell(
                ProgrammingModel::VirtualActors,
                TxnMechanism::ActorTransactions,
                &p,
            )
            .committed
        });
    }
}

fn bench_engine_commits(bench: &mut Bench) {
    for iso in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::Serializable,
    ] {
        let mut engine = fresh_engine();
        for i in 0..1000 {
            engine.load(&format!("k{i}"), Value::Int(0));
        }
        let mut i = 0u64;
        bench.run(&format!("engine/commit/{iso}"), move || {
            i += 1;
            let key = format!("k{}", i % 1000);
            let tx = engine.begin(iso);
            let _ = engine.read(tx, &key);
            let _ = engine.write(tx, &key, Some(Value::Int(i as i64)));
            engine.commit(tx)
        });
    }
}

fn bench_tpcc_procs(bench: &mut Bench) {
    let scale = tpcc::TpccScale::default();
    for proc in ["new_order", "payment"] {
        let mut engine = fresh_engine();
        for (key, value) in tpcc::seed(&scale) {
            engine.load(&key, value);
        }
        let registry = tpcc::registry();
        let mut rng = SimRng::new(3);
        let scale = scale.clone();
        bench.run(&format!("tpcc/{proc}"), move || loop {
            let (p, args) = tpcc::next_txn(&mut rng, &scale);
            if p == proc {
                break run_proc(&mut engine, &registry, &p, &args);
            }
        });
    }
}

fn bench_ycsb(bench: &mut Bench) {
    let scale = ycsb::YcsbScale::default();
    for (name, workload) in [
        ("A", ycsb::YcsbWorkload::A),
        ("C", ycsb::YcsbWorkload::C),
        ("F", ycsb::YcsbWorkload::F),
    ] {
        let mut engine = fresh_engine();
        for (key, value) in ycsb::seed(&scale) {
            engine.load(&key, value);
        }
        let registry = ycsb::registry();
        let mut sampler = ycsb::YcsbSampler::new(workload, &scale);
        let mut rng = SimRng::new(4);
        bench.run(&format!("ycsb/{name}"), move || {
            let (p, args) = sampler.next_txn(&mut rng);
            run_proc(&mut engine, &registry, &p, &args)
        });
    }
}

fn bench_mvcc(bench: &mut Bench) {
    let mut store = MvccStore::new();
    let mut ts = 0u64;
    bench.run("mvcc/install+read", move || {
        ts += 1;
        let key = format!("k{}", ts % 100);
        store.install(&key, ts, Some(Value::Int(ts as i64)));
        store.read_at(&key, ts).cloned()
    });
    // GC bench includes setup each iteration (the harness has no
    // iter_with_setup); the install loop dominates but regressions in
    // gc() still move the number.
    bench.run("mvcc/gc", || {
        let mut store = MvccStore::new();
        for ts in 1..=1000u64 {
            store.install(&format!("k{}", ts % 10), ts, Some(Value::Int(1)));
        }
        store.gc(900);
        store
    });
}

fn bench_zipf(bench: &mut Bench) {
    let zipf = Zipf::new(100_000, 0.99);
    let mut rng = SimRng::new(5);
    bench.run("sim/zipf-sample", move || zipf.sample(&mut rng));
    let mut rng2 = SimRng::new(6);
    bench.run("sim/next_u64", move || rng2.next_u64());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|pos| args.get(pos + 1).cloned())
    };
    if let Some(path) = flag_value("--trace-out") {
        let (model, mechanism) = match flag_value("--trace-cell").as_deref() {
            Some("2pc") => (
                ProgrammingModel::Microservices,
                TxnMechanism::TwoPhaseCommit,
            ),
            Some("actor-txn") => (
                ProgrammingModel::VirtualActors,
                TxnMechanism::ActorTransactions,
            ),
            Some("saga") | None => (ProgrammingModel::Microservices, TxnMechanism::Saga),
            Some(other) => panic!("unknown --trace-cell `{other}` (2pc|saga|actor-txn)"),
        };
        let params = CellParams {
            seed: 42,
            transfers: 50,
            ..CellParams::default()
        };
        let (report, json) = run_cell_traced(model, mechanism, &params);
        std::fs::write(&path, json).expect("write trace");
        println!(
            "wrote Chrome trace of {} ({} transfers) to {path}",
            report.label,
            report.committed + report.failed
        );
        return;
    }
    let mut bench = Bench::new().filter(flag_value("--filter"));
    if args.iter().any(|a| a == "--quick") {
        bench = bench
            .warmup(Duration::from_millis(10))
            .target_sample(Duration::from_millis(5))
            .samples(5);
    }
    if let Some(samples) = flag_value("--samples").and_then(|v| v.parse().ok()) {
        bench = bench.samples(samples);
    }

    bench_cells(&mut bench);
    bench_contention(&mut bench);
    bench_engine_commits(&mut bench);
    bench_tpcc_procs(&mut bench);
    bench_ycsb(&mut bench);
    bench_mvcc(&mut bench);
    bench_zipf(&mut bench);

    if let Some(path) = flag_value("--json") {
        bench.write_json(&path).expect("write JSON lines");
        println!("wrote {} JSON line(s) to {path}", bench.reports().len());
    }
}
