//! Model-checker cross-validation and pinned interleaving regressions.
//!
//! Four layers of coverage:
//!
//! 1. **Cross-validation** — the exhaustive checker and the torture-style
//!    closure audit must agree that the small protocol worlds are correct:
//!    bounded exploration reports `verified()` and the fault-free schedule
//!    replays clean through the same audit.
//! 2. **Seeded mutation** — re-enabling the PR 2 late-`ExecuteReq` bug via
//!    `ParticipantConfig::accept_late_execute` must make the checker emit a
//!    minimal schedule that replays to the same violation deterministically.
//! 3. **Pinned schedules** — the two real interleaving bugs the checker
//!    found (same-instant coordinator txid reuse, same-instant orchestrator
//!    instance-id reuse) stay fixed: their harvested minimal schedules must
//!    replay without violation.
//! 4. **Settled closures** — a leaf closure that stops once its world's
//!    `settled` hook holds hands the audit exactly the values a full grace
//!    period would, leaf by leaf.
//!
//! Exploration depths here are kept small because tier-1 tests run in debug
//! mode; the release-mode E18 experiment and the CI `model-check` job push
//! the same scenarios much deeper.

use std::cell::RefCell;
use std::rc::Rc;

use tca_sim::mc::{check_schedule, explore, McReport, McScenario};
use tca_sim::{McConfig, NodeId, Schedule, Sim, SimDuration};
use tca_txn::mc_scenarios::{
    actor_mc_scenario, dataflow_mc_scenario, saga_id_reuse_schedule, saga_mc_scenario,
    sharded_twopc_mc_scenario, sharded_twopc_mc_world, twopc_late_execute_mutation_scenario,
    twopc_mc_scenario, twopc_mc_world, twopc_txid_reuse_schedule, workflow_mc_scenario, MC_PA,
    MC_PB, MC_SAGA_PAY, MC_SAGA_STOCK,
};
use tca_txn::worlds::{peek, TwoPcWorld};

fn twopc_cfg() -> McConfig {
    McConfig {
        max_depth: 5,
        max_crashes: 1,
        crashable: vec![NodeId(2)],
        ..McConfig::default()
    }
}

#[test]
fn checker_verifies_small_twopc_and_agrees_with_closure_audit() {
    let sc = twopc_mc_scenario(1);
    let report = explore(&sc, &twopc_cfg());
    assert!(
        report.verified(),
        "expected verified 2PC world, got {:?}",
        report.violation
    );
    assert!(report.states > 0, "exploration must visit states");
    assert!(
        !report.truncated,
        "state budget must not truncate this world"
    );
    assert!(!report.rng_impure, "2PC world must stay draw-free");
    // Cross-validation: the fault-free schedule runs through the exact
    // closure + audit the torture sweep uses and must also come back clean.
    assert_eq!(
        check_schedule(&sc, &twopc_cfg(), &Schedule::default()),
        None,
        "fault-free replay must pass the torture audit"
    );
}

#[test]
fn checker_verifies_cross_shard_twopc_world() {
    // The two-shard transfer world: each branch at the participant the
    // consistent-hash ring names for its account, one per touched shard.
    // Bounded exploration with a coordinator crash must verify
    // atomicity/conservation *across shards* at every closed leaf, and the
    // fault-free schedule must replay clean through the same audit.
    let sc = sharded_twopc_mc_scenario(1);
    let report = explore(&sc, &twopc_cfg());
    assert!(
        report.verified(),
        "expected verified sharded 2PC world, got {:?}",
        report.violation
    );
    assert!(report.states > 0, "exploration must visit states");
    assert!(
        !report.truncated,
        "state budget must not truncate this world"
    );
    assert!(!report.rng_impure, "ring placement must stay draw-free");
    assert_eq!(
        check_schedule(&sc, &twopc_cfg(), &Schedule::default()),
        None,
        "fault-free replay must pass the cross-shard audit"
    );
}

#[test]
fn checker_verifies_dataflow_world_with_shard_crashes() {
    // The epoch-batched dataflow world: one cross-shard transfer through
    // the sequencer, with a crash budget on shard 0's node so the
    // exploration reaches crash/recovery states *mid-epoch* — after the
    // batch arrives but before the epoch is durably applied. The
    // checkpoint + journal-replay + re-ack recovery path must keep
    // exactly-once emission, atomicity, and conservation green at every
    // closed leaf. A drop budget covers the other recovery paths: a lost
    // share is pulled and a lost batch re-offered only once the work
    // stalls, so a lost message must be explored, not merely survived by
    // a retry that fires anyway. Runs opaque, so depth stays small in
    // debug mode; the CI model-check job pushes the same world deeper.
    let sc = dataflow_mc_scenario(1);
    let cfg = McConfig {
        max_depth: 6,
        max_crashes: 1,
        max_drops: 1,
        crashable: vec![NodeId(0)],
        ..McConfig::default()
    };
    let report = explore(&sc, &cfg);
    assert!(
        report.verified(),
        "expected verified dataflow world, got {:?}",
        report.violation
    );
    assert!(report.states > 0, "exploration must visit states");
    assert!(
        !report.truncated,
        "state budget must not truncate this world"
    );
    assert!(!report.rng_impure, "dataflow engine must stay draw-free");
    // Cross-validation: the fault-free schedule replays clean through the
    // same audit the torture sweep uses.
    assert_eq!(
        check_schedule(&sc, &cfg, &Schedule::default()),
        None,
        "fault-free replay must pass the dataflow audit"
    );
}

#[test]
fn checker_verifies_workflow_world_with_worker_crashes() {
    // The exactly-once workflow world: a two-step transfer chain driven
    // through the orchestrator → worker → 2PC stack, with a crash budget
    // on the worker's node so the exploration reaches states where a
    // durable intent exists but its step dtx died mid-flight. Intent
    // replay, the wf_guard marker fence, and idempotence dedup must keep
    // every step applied exactly once at every closed leaf. Leaves run a
    // long closure: workflow retries pace in 100ms+ strides (step polls,
    // dtx retries, the 25ms re-drive sweep, the 150ms conflict cooldown),
    // so convergence needs more virtual time than the protocol worlds.
    let sc = workflow_mc_scenario();
    let cfg = McConfig {
        max_depth: 5,
        max_crashes: 1,
        crashable: vec![NodeId(3)],
        grace: SimDuration::from_millis(2_000),
        ..McConfig::default()
    };
    let report = explore(&sc, &cfg);
    assert!(
        report.verified(),
        "expected verified workflow world, got {:?}",
        report.violation
    );
    assert!(report.states > 0, "exploration must visit states");
    assert!(
        !report.truncated,
        "state budget must not truncate this world"
    );
    assert!(!report.rng_impure, "workflow stack must stay draw-free");
    // Cross-validation: the fault-free schedule replays clean through the
    // same closure + audit the torture sweep uses.
    assert_eq!(
        check_schedule(&sc, &cfg, &Schedule::default()),
        None,
        "fault-free replay must pass the workflow audit"
    );
}

/// Every counter of `r`, in field order. The destructuring names every
/// field, so a new counter must be pinned too.
fn counters(r: &McReport) -> [u64; 10] {
    let McReport {
        states,
        leaves,
        pruned_visited,
        pruned_sleep,
        cycles,
        depth_cap_hits,
        rebuilds,
        replayed_choices,
        closure_events,
        unsettled_leaves,
        truncated: _,
        rng_impure: _,
        violation: _,
    } = *r;
    [
        states,
        leaves,
        pruned_visited,
        pruned_sleep,
        cycles,
        depth_cap_hits,
        rebuilds,
        replayed_choices,
        closure_events,
        unsettled_leaves,
    ]
}

/// Every counter of one small exploration, pinned: a change in
/// exploration shape — what is enumerated, pruned, rebuilt or closed —
/// fails here, not only in the release-mode E18 record.
#[test]
fn twopc_exploration_counters_are_pinned() {
    let r = explore(&twopc_mc_scenario(1), &twopc_cfg());
    assert!(r.violation.is_none() && !r.truncated && !r.rng_impure);
    assert_eq!(counters(&r), [161, 0, 47, 22, 0, 55, 101, 317, 666, 0]);
}

/// The two 2PC layouts are one world under two names: a two-shard ring
/// carrying one transfer explores exactly as two banks carrying one
/// transfer on its own pair, counter for counter, at E18's 2PC×1
/// configurations (about 6 s in a debug build). A layout that drifts
/// structurally — a node, a seed or a branch out of place — fails here.
#[test]
fn both_twopc_layouts_explore_alike() {
    let base = McConfig {
        max_states: 5_000_000,
        max_crashes: 1,
        max_drops: 1,
        crashable: vec![NodeId(2)],
        ..McConfig::default()
    };
    let configs = [
        (
            McConfig {
                max_depth: 9,
                ..base.clone()
            },
            [2_574, 0, 1_061, 677, 0, 565, 1_625, 10_635, 7_245, 0],
        ),
        (
            McConfig {
                max_depth: 12,
                max_crashes: 2,
                ..base
            },
            [
                19_449, 0, 8_769, 9_249, 0, 4_793, 13_561, 131_173, 71_310, 0,
            ],
        ),
    ];
    for (cfg, pinned) in configs {
        let depth = cfg.max_depth;
        let banks = explore(&twopc_mc_scenario(1), &cfg);
        let ring = explore(&sharded_twopc_mc_scenario(1), &cfg);
        assert!(banks.verified() && ring.verified(), "depth {depth}");
        assert_eq!(counters(&banks), pinned, "two banks, depth {depth}");
        assert_eq!(counters(&ring), pinned, "ring, depth {depth}");
    }
}

/// The same pin for the opaque actor world, whose leaves settle once the
/// driver's script is done rather than after 800 ms of heartbeats.
#[test]
fn actor_exploration_counters_are_pinned() {
    let r = explore(&actor_mc_scenario(2), &actor_cfg(4));
    // The actor world's RPC clients draw a call-id nonce, so sleep sets
    // are off here (E18's actor row shows no sleep-pruned states either).
    assert!(r.violation.is_none() && !r.truncated && r.rng_impure);
    assert_eq!(counters(&r), [279, 0, 0, 0, 0, 204, 203, 538, 11_984, 0]);
}

fn actor_cfg(max_depth: usize) -> McConfig {
    McConfig {
        max_depth,
        ..McConfig::default()
    }
}

/// What an audit reads, recorded at one leaf.
type Audited = Rc<dyn Fn(&Sim) -> Vec<i64>>;

/// The actor audit's inputs: the driver's counters.
fn actor_audited() -> Audited {
    Rc::new(|sim| {
        ["txn_ok", "txn_err", "read_ok", "read_sum"]
            .map(|c| sim.metrics().counter(&format!("torture.{c}")) as i64)
            .to_vec()
    })
}

/// A two-participant 2PC audit's inputs, read from `world`'s layout: each
/// participant's branch commits, and every account as each participant
/// holds it (`i64::MIN` where it holds none).
fn twopc_audited(world: &TwoPcWorld) -> Audited {
    let commits: Vec<String> = world.prefixes().map(|p| format!("{p}.commits")).collect();
    let keys: Vec<String> = world.accounts().map(str::to_owned).collect();
    Rc::new(move |sim| {
        let commits = commits.iter().map(|c| sim.metrics().counter(c) as i64);
        let balances = keys
            .iter()
            .flat_map(|key| [MC_PA, MC_PB].map(|pid| peek(sim, pid, key).unwrap_or(i64::MIN)));
        commits.chain(balances).collect()
    })
}

/// The saga audit's inputs: its counters, the stock and the balance.
fn saga_audited() -> Audited {
    Rc::new(|sim| {
        let counters = ["committed", "compensated", "compensation_failures"]
            .map(|c| sim.metrics().counter(&format!("saga.{c}")) as i64);
        let held = [(MC_SAGA_STOCK, "item1"), (MC_SAGA_PAY, "alice")]
            .map(|(pid, key)| peek(sim, pid, key).unwrap_or(i64::MIN));
        counters.into_iter().chain(held).collect()
    })
}

/// Explore the scenario `make` builds twice, once with its world's
/// `settled` hook and once with `|_| false`, recording at every leaf what
/// `audited` reads and the audit's verdict. Exploration must not change,
/// the records must be equal leaf by leaf, and the hook must save closure
/// events.
fn assert_settling_changes_no_audit(
    name: &str,
    make: impl Fn() -> McScenario,
    cfg: &McConfig,
    audited: Audited,
) {
    let run = |hook: bool| {
        let mut sc = make();
        if !hook {
            sc.settled = Box::new(|_| false);
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let audit = std::mem::replace(&mut sc.audit, Box::new(|_| Ok(())));
        let (sink, read) = (Rc::clone(&log), Rc::clone(&audited));
        sc.audit = Box::new(move |sim| {
            let verdict = audit(sim);
            sink.borrow_mut().push((read(sim), verdict.clone()));
            verdict
        });
        let report = explore(&sc, cfg);
        let records = log.take();
        (report, records)
    };
    let (settled, settled_log) = run(true);
    let (graced, graced_log) = run(false);
    assert!(settled.verified(), "{name}: {:?}", settled.violation);
    let shape = |r: &McReport| {
        (
            r.states,
            r.leaves,
            r.pruned_visited,
            r.pruned_sleep,
            r.cycles,
            r.depth_cap_hits,
            r.rebuilds,
        )
    };
    assert_eq!(shape(&settled), shape(&graced), "{name}: exploration moved");
    assert_eq!(
        settled_log.len() as u64,
        settled.leaves + settled.cycles + settled.depth_cap_hits,
        "{name}: one record per closed leaf"
    );
    assert_eq!(settled_log.len(), graced_log.len(), "{name}: leaf count");
    if let Some(i) = (0..settled_log.len()).find(|&i| settled_log[i] != graced_log[i]) {
        panic!(
            "{name}: leaf {i} audited {:?} after settling but {:?} after the full grace",
            settled_log[i], graced_log[i]
        );
    }
    assert!(
        settled.closure_events < graced.closure_events,
        "{name}: settling saved no events ({} vs {})",
        settled.closure_events,
        graced.closure_events
    );
}

#[test]
fn settled_closures_hand_the_audit_what_a_full_grace_would() {
    assert_settling_changes_no_audit(
        "actor×2",
        || actor_mc_scenario(2),
        &actor_cfg(4),
        actor_audited(),
    );
    assert_settling_changes_no_audit(
        "2pc×1 +1 crash",
        || twopc_mc_scenario(1),
        &twopc_cfg(),
        twopc_audited(&twopc_mc_world(1)),
    );
    assert_settling_changes_no_audit(
        "sharded-2pc×1 +1 crash",
        || sharded_twopc_mc_scenario(1),
        &twopc_cfg(),
        twopc_audited(&sharded_twopc_mc_world(1)),
    );
    assert_settling_changes_no_audit(
        "saga×1 +1 crash",
        || saga_mc_scenario(1),
        &twopc_cfg(),
        saga_audited(),
    );
}

/// The settle equivalence at E18's depths, for the CI `model-check` job
/// (release, `--include-ignored`).
#[test]
#[ignore = "deep exploration — run in release by the CI model-check job"]
fn settled_closures_hand_the_audit_what_a_full_grace_would_at_e18_depths() {
    let base = McConfig {
        max_states: 5_000_000,
        max_crashes: 1,
        crashable: vec![NodeId(2)],
        ..McConfig::default()
    };
    assert_settling_changes_no_audit(
        "actor×2 depth 7",
        || actor_mc_scenario(2),
        &actor_cfg(7),
        actor_audited(),
    );
    assert_settling_changes_no_audit(
        "2pc×2 depth 9 +1 crash +1 drop",
        || twopc_mc_scenario(2),
        &McConfig {
            max_depth: 9,
            max_drops: 1,
            ..base.clone()
        },
        twopc_audited(&twopc_mc_world(2)),
    );
    assert_settling_changes_no_audit(
        "2pc×1 depth 12 +2 crashes +1 drop",
        || twopc_mc_scenario(1),
        &McConfig {
            max_depth: 12,
            max_crashes: 2,
            max_drops: 1,
            ..base.clone()
        },
        twopc_audited(&twopc_mc_world(1)),
    );
    assert_settling_changes_no_audit(
        "sharded-2pc×1 depth 9 +1 crash +1 drop",
        || sharded_twopc_mc_scenario(1),
        &McConfig {
            max_depth: 9,
            max_drops: 1,
            ..base.clone()
        },
        twopc_audited(&sharded_twopc_mc_world(1)),
    );
    assert_settling_changes_no_audit(
        "saga×1 depth 8 +1 crash",
        || saga_mc_scenario(1),
        &McConfig {
            max_depth: 8,
            ..base
        },
        saga_audited(),
    );
}

#[test]
fn por_reduces_state_count_without_changing_the_verdict() {
    let sc = twopc_mc_scenario(1);
    let naive = explore(
        &sc,
        &McConfig {
            por: false,
            visited: false,
            ..twopc_cfg()
        },
    );
    let reduced = explore(&sc, &twopc_cfg());
    assert!(naive.verified() && reduced.verified());
    assert!(
        reduced.states < naive.states,
        "POR + visited-set must shrink the state count ({} vs naive {})",
        reduced.states,
        naive.states
    );
    assert!(reduced.pruned_sleep + reduced.pruned_visited > 0);
}

#[test]
fn reintroduced_late_execute_bug_is_caught_with_replayable_schedule() {
    let sc = twopc_late_execute_mutation_scenario();
    let cfg = McConfig {
        max_depth: 6,
        ..McConfig::default()
    };
    let report = explore(&sc, &cfg);
    let violation = report
        .violation
        .expect("checker must catch the accept_late_execute mutation");
    assert!(
        violation.message.contains("already-decided"),
        "expected a zombie-branch symptom, got: {}",
        violation.message
    );
    assert!(
        violation.schedule.len() <= violation.raw_len,
        "minimizer must not grow the schedule"
    );
    // The minimal schedule must replay to the same violation twice —
    // deterministic, not a one-off artifact of exploration order.
    let first = check_schedule(&sc, &cfg, &violation.schedule);
    let second = check_schedule(&sc, &cfg, &violation.schedule);
    assert_eq!(first.as_deref(), Some(violation.message.as_str()));
    assert_eq!(first, second, "replay must be deterministic");
}

/// Deep exploration sweep for the CI `model-check` job, which runs it in
/// release mode via `--include-ignored` under a job time cap. On a
/// violation the minimal schedule is written to `mc_repro.txt` so CI can
/// upload it as an artifact; replay it locally with
/// `Sim::replay_schedule` / `check_schedule` against the named world.
#[test]
#[ignore = "deep exploration — run in release by the CI model-check job"]
fn deep_exploration_sweep() {
    let base = McConfig {
        max_states: 5_000_000,
        max_crashes: 1,
        crashable: vec![NodeId(2)],
        ..McConfig::default()
    };
    let worlds = [
        (
            "twopc×2 depth 9 +1 crash +1 drop",
            twopc_mc_scenario(2),
            McConfig {
                max_depth: 9,
                max_drops: 1,
                ..base.clone()
            },
        ),
        (
            "twopc×1 depth 12 +2 crashes +1 drop",
            twopc_mc_scenario(1),
            McConfig {
                max_depth: 12,
                max_crashes: 2,
                max_drops: 1,
                ..base.clone()
            },
        ),
        (
            "saga×1 depth 8 +1 crash",
            saga_mc_scenario(1),
            McConfig {
                max_depth: 8,
                ..base.clone()
            },
        ),
        (
            "sharded-2pc×1 depth 9 +1 crash +1 drop",
            sharded_twopc_mc_scenario(1),
            McConfig {
                max_depth: 9,
                max_drops: 1,
                ..base.clone()
            },
        ),
        (
            "dataflow×1 depth 7 +1 crash on either shard +1 drop",
            dataflow_mc_scenario(1),
            McConfig {
                max_depth: 7,
                max_drops: 1,
                crashable: vec![NodeId(0), NodeId(1)],
                ..base.clone()
            },
        ),
        (
            "actor×2 depth 7",
            actor_mc_scenario(2),
            McConfig {
                max_depth: 7,
                max_crashes: 0,
                crashable: vec![],
                ..base.clone()
            },
        ),
        (
            "workflow×1 depth 6 +1 crash on worker or orchestrator",
            workflow_mc_scenario(),
            McConfig {
                max_depth: 6,
                crashable: vec![NodeId(3), NodeId(4)],
                grace: SimDuration::from_millis(2_000),
                ..base
            },
        ),
    ];
    let mut failures = Vec::new();
    for (name, sc, cfg) in worlds {
        let report = explore(&sc, &cfg);
        assert!(
            !report.truncated,
            "{name}: state budget truncated the sweep"
        );
        if let Some(v) = &report.violation {
            failures.push(format!("{name}: {}\n  schedule: {}", v.message, v.schedule));
        }
    }
    if !failures.is_empty() {
        let body = failures.join("\n");
        std::fs::write("mc_repro.txt", &body).ok();
        panic!("model checker found violations:\n{body}");
    }
}

#[test]
fn pinned_twopc_txid_reuse_schedule_stays_fixed() {
    let schedule = twopc_txid_reuse_schedule();
    let roundtrip: Schedule = schedule.to_string().parse().expect("roundtrip parses");
    assert_eq!(roundtrip.to_string(), schedule.to_string());
    let cfg = McConfig {
        max_depth: 16,
        max_crashes: 1,
        max_drops: 1,
        crashable: vec![NodeId(2)],
        ..McConfig::default()
    };
    assert_eq!(
        check_schedule(&twopc_mc_scenario(2), &cfg, &schedule),
        None,
        "txid-reuse schedule must stay closed by the durable txid floor"
    );
}

#[test]
fn pinned_saga_instance_reuse_schedule_stays_fixed() {
    let schedule = saga_id_reuse_schedule();
    let roundtrip: Schedule = schedule.to_string().parse().expect("roundtrip parses");
    assert_eq!(roundtrip.to_string(), schedule.to_string());
    let cfg = McConfig {
        max_depth: 64,
        max_crashes: 1,
        crashable: vec![NodeId(2)],
        ..McConfig::default()
    };
    assert_eq!(
        check_schedule(&saga_mc_scenario(2), &cfg, &schedule),
        None,
        "instance-reuse schedule must stay closed by the durable id floor"
    );
}
