//! The checking worlds of `tca::txn::worlds`, checked themselves: every
//! world spawns what its documented `MC_*` pids say it spawns, and every
//! world's audit fails when the world is tampered with from outside.

use tca::messaging::rpc::RpcRequest;
use tca::models::actor::{ActorId, ActorInvoke, ActorSilo, Directory};
use tca::sim::{FaultPlan, NodeId, Payload, ProcessId, Sim, SimDuration, SimTime};
use tca::storage::{DbMsg, Value};
use tca::txn::dataflow::DataflowConfig;
use tca::txn::mc_scenarios::*;
use tca::txn::twopc::{DecisionReq, ExecuteReq, StartDtx};
use tca::txn::worlds::{
    ActorWorld, DataflowWorld, SagaWorld, TwoPcHandles, TwoPcWorld, WorkflowWorld,
};
use tca::txn::{stage_world, step_marker_key, torture_world, World};

// The worlds at the sizes the torture sweeps use.

fn twopc() -> TwoPcWorld {
    TwoPcWorld::two_banks(8, 10, 150, 100, true)
}

fn sharded(shards: usize, transfers: u64) -> TwoPcWorld {
    TwoPcWorld::ring(shards, transfers, 10, 100, 100)
}

/// A 2PC world's participants, then its coordinator.
fn twopc_pids(h: &TwoPcHandles) -> Vec<ProcessId> {
    [h.participants.clone(), vec![h.coordinator]].concat()
}

fn saga() -> SagaWorld {
    SagaWorld {
        sagas: 8,
        price: 10,
        stock: 40,
        balance: 60,
    }
}

fn actor() -> ActorWorld {
    ActorWorld {
        transfers: 6,
        amount: 20,
        balance: 100,
    }
}

fn dataflow(shards: usize) -> DataflowWorld {
    DataflowWorld {
        shards,
        config: DataflowConfig::default(),
        transfers: (0..10)
            .map(|i| (format!("acct{i}"), format!("acct{}", i + 1), 10))
            .collect(),
    }
}

fn workflow(workers: usize, shards: usize) -> WorkflowWorld {
    WorkflowWorld {
        chains: 6,
        steps: 4,
        workers,
        shards,
        start: 1_000,
        amount: 10,
    }
}

/// Deploy `world` at the process counts of its model-checking scenario
/// and hold what it spawned, in the order `pids` lists its handles,
/// against the documented pids and process names.
fn assert_spawns<W: World>(
    world: &W,
    pids: impl Fn(&W::Handles) -> Vec<ProcessId>,
    documented: &[(ProcessId, &str)],
) {
    let mut sim = Sim::with_seed(1);
    let handles = world.deploy(&mut sim);
    let got: Vec<(ProcessId, &str)> = pids(&handles)
        .into_iter()
        .map(|pid| (pid, sim.name_of(pid)))
        .collect();
    assert_eq!(got, documented, "handle order and spawn order disagree");
    // One process per node, nodes added in spawn order: the crashable
    // `NodeId(n)` of a scenario is the node of pid `n`.
    for (pid, name) in got {
        assert_eq!(
            sim.node_of(pid),
            NodeId(pid.0),
            "{name} is on the wrong node"
        );
    }
}

/// The pinned schedules and the crashable `NodeId`s in `tests/model_check.rs`
/// address processes by number. This is the one place that says which
/// number is which process: a reordered spawn fails here, by name.
#[test]
fn every_world_spawns_its_documented_pids_and_names() {
    assert_spawns(
        &twopc(),
        twopc_pids,
        &[
            (MC_PA, "bank-a"),
            (MC_PB, "bank-b"),
            (MC_COORD, "coordinator"),
        ],
    );
    assert_spawns(
        &sharded(2, 1),
        twopc_pids,
        &[
            (MC_PA, "shard0"),
            (MC_PB, "shard1"),
            (MC_COORD, "coordinator"),
        ],
    );
    assert_spawns(
        &saga(),
        |h| vec![h.stock_db, h.pay_db, h.orchestrator],
        &[
            (MC_SAGA_STOCK, "stock-db"),
            (MC_SAGA_PAY, "pay-db"),
            (MC_SAGA_ORCH, "saga"),
        ],
    );
    assert_spawns(
        &actor(),
        |h| vec![h.directory, h.silos[0], h.silos[1], h.driver],
        &[
            (MC_ACTOR_DIR, "dir"),
            (MC_ACTOR_SILOS[0], "silo0"),
            (MC_ACTOR_SILOS[1], "silo1"),
            (MC_ACTOR_DRIVER, "driver"),
        ],
    );
    assert_spawns(
        &dataflow(2),
        |h| [h.shards.clone(), vec![h.sequencer]].concat(),
        &[
            (MC_DF_S0, "df-shard-0"),
            (MC_DF_S1, "df-shard-1"),
            (MC_DF_SEQ, "df-sequencer"),
        ],
    );
    assert_spawns(
        &workflow(1, 2),
        |h| {
            let rest = vec![h.coordinator, h.workers[0], h.orchestrator];
            [h.participants.clone(), rest].concat()
        },
        &[
            (MC_WF_S0, "wf-shard0"),
            (MC_WF_S1, "wf-shard1"),
            (MC_WF_COORD, "wf-coordinator"),
            (MC_WF_WORKER, "wf-worker0"),
            (MC_WF_ORCH, "wf-orchestrator"),
        ],
    );
}

/// Every process is inspectable without having opted in: the actor hosts
/// never did, so no harness could read an actor's state after a run.
#[test]
fn a_live_silo_is_inspectable_and_a_crashed_one_is_not() {
    let mut sim = Sim::with_seed(1);
    let h = actor().deploy(&mut sim);
    sim.run_for(SimDuration::from_millis(5));
    assert!(sim.inspect::<Directory>(h.directory).is_some());
    assert!(sim.inspect::<ActorSilo>(h.silos[0]).is_some());
    assert!(
        sim.inspect::<Directory>(h.silos[0]).is_none(),
        "a silo is not a directory"
    );
    sim.crash_node(sim.node_of(h.silos[0]));
    assert!(sim.inspect::<ActorSilo>(h.silos[0]).is_none());
    assert!(sim.inspect::<ActorSilo>(h.silos[1]).is_some());
}

/// Stage `world` under the benign torture plan, let `tamper` schedule its
/// interference, run, and return what the audit says. The untampered run
/// must pass, so the failure is the tampering's.
fn audit_after<W: World>(world: &W, tamper: impl FnOnce(&mut Sim, &W::Handles)) -> String {
    let plan = FaultPlan::benign(SimDuration::from_millis(400));
    torture_world(world, 1, &plan).expect("the untampered benign run audits clean");
    let (mut sim, handles) = stage_world(world, 1, &plan);
    tamper(&mut sim, &handles);
    sim.run_until(SimTime::ZERO + plan.horizon + world.grace());
    world
        .audit(&sim, &handles, Some(&plan))
        .expect_err("the audit must notice the tampering")
}

/// All legitimate work of a benign run is long done by then.
const LATE: SimTime = SimTime::from_nanos(350_000_000);

/// Run `proc(args)` at a 2PC participant and commit it, behind every
/// coordinator's back: one branch of a transaction that has no other.
fn rogue_branch(sim: &mut Sim, participant: ProcessId, proc: &str, args: Vec<Value>) {
    let txid = u64::MAX;
    let start = StartDtx {
        branches: vec![(participant, proc.into(), args)],
    };
    let execute = ExecuteReq::new(txid, Payload::new(start), 0);
    sim.inject_at(LATE, participant, Payload::new(execute));
    let commit = DecisionReq { txid, commit: true };
    let after = LATE + SimDuration::from_millis(1);
    sim.inject_at(after, participant, Payload::new(commit));
}

/// The counterpart of `benchmark/tests/smoke.rs`'s two deliberately
/// broken audits: each world's shared audit, shown one extra write it has
/// no transaction for, must fail and name the invariant that broke.
#[test]
fn every_audit_catches_a_write_no_transaction_made() {
    let credit = |key: &str| vec![Value::from(key), Value::Int(10)];
    let table = [
        (
            "2pc",
            audit_after(&twopc(), |sim, h| {
                rogue_branch(sim, h.participants[1], "credit", credit("bob"))
            }),
            "atomicity",
        ),
        (
            "sharded 2pc",
            audit_after(&sharded(3, 8), |sim, h| {
                // `acct0` is the first candidate key, so some transfer uses it.
                let owner = h.participants[tca::sim::ShardMap::ring(3).owner("acct0")];
                rogue_branch(sim, owner, "credit", credit("acct0"))
            }),
            "atomicity",
        ),
        (
            "saga",
            audit_after(&saga(), |sim, h| {
                let restock = DbMsg::call("seed", vec![Value::from("item1"), Value::Int(40)]);
                sim.inject_at(LATE, h.stock_db, Payload::new(restock))
            }),
            "conservation",
        ),
        (
            "actor",
            audit_after(&actor(), |sim, h| {
                // Mid-script, before the driver's final reads; whichever
                // silo hosts account `b` applies it.
                for silo in h.silos {
                    let credit = ActorInvoke {
                        id: ActorId::new("account", "b"),
                        method: "credit".into(),
                        args: vec![Value::Int(20)],
                    };
                    let request = RpcRequest::new(u64::MAX, Payload::new(credit));
                    sim.inject_at(SimTime::from_nanos(3_000_000), silo, Payload::new(request));
                }
            }),
            "conservation",
        ),
        (
            "dataflow",
            // Shards take no message from outside the fleet, so tamper
            // with what the audit reads: one outcome emitted twice, as the
            // wire counter would have seen it.
            audit_after(&dataflow(3), |sim, _| {
                sim.metrics_mut().incr("df.completed", 1)
            }),
            "exactly-once",
        ),
        (
            "workflow",
            audit_after(&workflow(2, 3), |sim, h| {
                let marker = step_marker_key(1, 0);
                let owner = h.participants[h.map.owner(&marker)];
                rogue_branch(sim, owner, "wf_count", vec![Value::from(marker)])
            }),
            "exactly-once",
        ),
    ];
    for (world, verdict, invariant) in table {
        assert!(
            verdict.contains(invariant),
            "{world}: expected a broken {invariant} invariant, got: {verdict}"
        );
    }
}
