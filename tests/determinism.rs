//! Cross-crate determinism: the same seed must reproduce every experiment
//! bit-for-bit — the property everything else (debugging, CI, the
//! experiment tables) rests on.

use tca::core::cell::{run_cell, CellParams, SUPPORTED};
use tca::core::taxonomy::{ProgrammingModel, TxnMechanism};

fn params(seed: u64) -> CellParams {
    CellParams {
        seed,
        transfers: 80,
        ..CellParams::default()
    }
}

#[test]
fn same_seed_same_cell_report() {
    // The default fleet with and without the crash, and a wider fleet.
    for (crash, shards) in [(false, 2), (true, 2), (false, 4)] {
        let params = CellParams {
            crash,
            shards,
            ..params(99)
        };
        for (model, mechanism) in SUPPORTED {
            let a = run_cell(model, mechanism, &params);
            let b = run_cell(model, mechanism, &params);
            let cell = format!("{model} x {mechanism}, crash {crash}, {shards} shards");
            assert_eq!(a.committed, b.committed, "{cell}");
            assert_eq!(a.failed, b.failed, "{cell}");
            assert_eq!(a.sim_seconds, b.sim_seconds, "{cell}");
            assert_eq!(a.p99_ms, b.p99_ms, "{cell}");
            assert_eq!(a.drift, b.drift, "{cell}");
        }
    }
}

#[test]
fn different_seeds_differ_somewhere() {
    // Latency traces depend on sampled network latencies: two seeds
    // should not produce identical timing (they could, but across four
    // cells the probability is negligible).
    let mut any_diff = false;
    for seed in [1u64, 2] {
        let report = run_cell(
            ProgrammingModel::Microservices,
            TxnMechanism::Saga,
            &params(seed),
        );
        if report.sim_seconds
            != run_cell(
                ProgrammingModel::Microservices,
                TxnMechanism::Saga,
                &params(seed + 100),
            )
            .sim_seconds
        {
            any_diff = true;
        }
    }
    assert!(any_diff);
}
