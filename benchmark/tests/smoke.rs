//! Smoke pass over all eight workloads at 1 % scale: every named metric
//! is present, every output check can fire, and a seed fixes every
//! simulated number.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, MutexGuard, OnceLock};

use tca_benchmark::json::{self, Json};
use tca_benchmark::report::{end_to_end, per_layer, DRIVER_END_TO_END, END_TO_END};
use tca_benchmark::runner::{run_traced, run_untraced, Budget};
use tca_benchmark::spans::Spans;
use tca_benchmark::workloads::{diff_blocks, mc_cases, mc_explore, RunOptions, Workload};

const SCALE: f64 = 0.01;

/// The allocator's counters are process-wide, so a test that measures the
/// heap must not overlap another test's allocations: every test holds this.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    // A test that panicked holding the lock has already failed on its own.
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_owned()
}

/// A debug build of the root `experiments` binary, made once.
fn experiments_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = repo_root();
        let target = root.join("target");
        let status = Command::new(env!("CARGO"))
            .args(["build", "--offline", "--quiet", "-p", "tca-bench"])
            .args(["--bin", "experiments", "--manifest-path"])
            .arg(root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the experiments binary failed");
        target.join("debug/experiments")
    })
}

fn options(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        scale: SCALE,
        traced: false,
        repo_root: repo_root(),
        experiments_bin: experiments_bin().to_owned(),
    }
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn every_workload_reports_every_named_metric() {
    let _alone = alone();
    let doc = benchmark_json();
    let listed: Vec<String> = names(&doc, "workloads");
    let ours: Vec<&str> = Workload::DRIVER.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours, "BENCHMARK.json workloads");
    assert_eq!(names(&doc, "end_to_end"), DRIVER_END_TO_END);

    for workload in Workload::ALL {
        let run =
            run_traced(workload, &options(42), Budget::Reps(1)).unwrap_or_else(|e| panic!("{e}"));
        let traced = run.traced.as_ref().expect("traced run");

        let stats = end_to_end(&run.reps, Some(&run.warmup), 0.05);
        for name in DRIVER_END_TO_END {
            let s = stats
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{}: no {name}", workload.name()));
            assert!(
                s.value.is_finite() && s.value > 0.0,
                "{}: {name} = {}",
                workload.name(),
                s.value
            );
        }
        let simulated = !matches!(workload, Workload::McExplore | Workload::ExperimentsSuite);
        for def in END_TO_END.iter().filter(|d| d.simulated) {
            let has = stats.iter().any(|s| s.name == def.name);
            let expected = match def.name {
                "failed_share" => true,
                "sim_ops_per_s" => simulated,
                _ => simulated && workload != Workload::KernelStorm,
            };
            assert_eq!(has, expected, "{}: {}", workload.name(), def.name);
        }

        let layers = per_layer(
            workload,
            &traced.cells,
            &run.reps[0],
            &traced.rep,
            traced.overhead,
        );
        let got: Vec<String> = layers.iter().map(|m| m.name.clone()).collect();
        assert_eq!(got, names(&doc, "per_layer"), "{}", workload.name());
        for m in &layers {
            assert!(well_formed(&m.name), "bad metric name `{}`", m.name);
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let share: f64 = layers
            .iter()
            .filter(|m| m.name.starts_with("share."))
            .map(|m| m.value)
            .sum();
        assert!(
            (share - 1.0).abs() < 0.01,
            "{}: shares sum to {share}",
            workload.name()
        );

        // Host spans nest under one root per repetition and all closed.
        assert!(run.spans.spans().iter().all(|s| s.end_ns.is_some()));
        assert!(json::parse(&run.spans.chrome_trace()).is_ok());
    }
}

#[test]
fn one_seed_fixes_every_simulated_number() {
    let _alone = alone();
    for workload in Workload::ALL {
        let a =
            run_untraced(workload, &options(7), Budget::Reps(1)).unwrap_or_else(|e| panic!("{e}"));
        let b =
            run_untraced(workload, &options(7), Budget::Reps(1)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.digest, b.digest, "{}: sim_digest", workload.name());
        let (sa, sb) = (
            end_to_end(&a.reps, None, 0.0),
            end_to_end(&b.reps, None, 0.0),
        );
        for def in END_TO_END.iter().filter(|d| d.simulated) {
            let value = |stats: &[tca_benchmark::report::Stat]| {
                stats.iter().find(|s| s.name == def.name).map(|s| s.value)
            };
            assert_eq!(value(&sa), value(&sb), "{}: {}", workload.name(), def.name);
        }
        // Another seed is another input (the pinned mc worlds take none).
        if workload != Workload::McExplore {
            let c = run_untraced(workload, &options(8), Budget::Reps(1))
                .unwrap_or_else(|e| panic!("{e}"));
            assert_ne!(a.digest, c.digest, "{}: seed ignored", workload.name());
        }
    }
}

#[test]
fn a_wrong_state_count_fails_the_mc_check() {
    let _alone = alone();
    let mut spans = Spans::new("mc-explore");
    let mut cases = mc_cases(SCALE);
    assert!(mc_explore(&cases, &mut spans).is_ok());
    // Deliberately broken audit: pin a state count the checker cannot hit.
    cases[0].expect_states = Some(1);
    let err = mc_explore(&cases, &mut spans).expect_err("a wrong pin must fail");
    assert!(err.contains("pinned"), "{err}");
}

#[test]
fn a_changed_block_fails_the_reference_diff() {
    let _alone = alone();
    let reference = "\n=== E1: one ===\n  a  1\n  b  2\n\n=== E2: two ===\n  c  3\n";
    assert_eq!(diff_blocks("=== E2: two ===\n  c  3\n", reference), Ok(1));
    assert!(diff_blocks("=== E2: two ===\n  c  4\n", reference).is_err());
    assert!(diff_blocks("=== E3: three ===\n  d  5\n", reference).is_err());
}

#[test]
fn benchmark_json_meets_the_contract() {
    let _alone = alone();
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let mut seen = std::collections::BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&doc, list) {
            assert!(well_formed(&name), "bad name `{name}`");
            assert!(seen.insert(name.clone()), "name `{name}` used twice");
        }
    }
    for metric in doc.get("end_to_end").and_then(Json::as_arr).expect("list") {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
        let ours = END_TO_END
            .iter()
            .find(|d| Some(d.name) == metric.get("name").and_then(Json::as_str))
            .expect("catalogued");
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some(ours.unit));
    }
    for workload in doc.get("workloads").and_then(Json::as_arr).expect("list") {
        let why = workload.get("why").and_then(Json::as_str).expect("why");
        assert!(why.chars().count() <= 200 && !why.contains('\n'));
    }
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
