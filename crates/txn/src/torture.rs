//! Torture scenarios: the transaction protocols under deterministic
//! fault plans (see `tca_sim::faults`).
//!
//! One driver, [`torture_world`], takes any [`World`] from
//! [`crate::worlds`]: it deploys the world on a `Sim` seeded with the
//! sweep's seed, applies the [`FaultPlan`] to the nodes the world names
//! as crashable and partitionable, spreads the world's requests over the
//! first three quarters of the fault window so some land mid-outage, runs
//! to the plan's horizon plus the world's grace period, and then runs the
//! world's audit — the invariants that must hold once every fault has
//! healed (atomicity, conservation, exactly-once effects, no stuck locks;
//! see [`crate::worlds`]).
//!
//! The scenarios below are that driver applied to one world each. They
//! are `fn(seed, &FaultPlan) -> Result<(), String>` so the sweep driver
//! (`tca_sim::check::torture`) and pinned regression tests can share
//! them. Every bug the sweep flushed out is pinned in
//! `tests/torture_2pc.rs` and `tests/chaos.rs` by the seed that found it.

use tca_sim::{FaultPlan, Sim, SimTime};

use crate::dataflow::DataflowConfig;
use crate::twopc::{CoordinatorConfig, ParticipantConfig};
use crate::worlds::{ActorWorld, DataflowWorld, SagaWorld, TwoPcWorld, WorkflowWorld, World};

/// Deploy `world` on a fresh `Sim::with_seed(seed)`, schedule `plan` onto
/// it and inject the world's requests, request `i` of `n` at `1 ms + ¾ ·
/// horizon · i / n`. Returns the staged, not yet run, simulation.
pub fn stage_world<W: World>(world: &W, seed: u64, plan: &FaultPlan) -> (Sim, W::Handles) {
    let mut sim = Sim::with_seed(seed);
    let handles = world.deploy(&mut sim);
    let (crashable, partitionable) = world.fault_nodes(&sim, &handles);
    plan.apply(&mut sim, &crashable, &partitionable);
    let span = plan.horizon.as_nanos() * 3 / 4;
    let n = world.requests();
    for i in 0..n {
        let at = SimTime::from_nanos(1_000_000 + span * i / n);
        world.submit(&mut sim, &handles, i, at);
    }
    (sim, handles)
}

/// Torture `world`: [`stage_world`], run to the plan's horizon plus the
/// world's grace period, audit.
pub fn torture_world<W: World>(world: &W, seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let (mut sim, handles) = stage_world(world, seed, plan);
    sim.run_until(SimTime::ZERO + plan.horizon + world.grace());
    world.audit(&sim, &handles, Some(plan))
}

/// 2PC torture: two bank participants, a crashable coordinator, ambient
/// loss/duplication and partition windows from the plan. Eight transfers
/// of 10 contend on the one `alice` (150) → `bob` (100) pair; after heal
/// and grace every injected transaction must be atomically committed or
/// aborted, balances must reflect exactly the committed count, and
/// nothing may hold a lock.
pub fn twopc_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let world = TwoPcWorld {
        transfers: 8,
        amount: 10,
        alice_start: 150,
        bob_start: 100,
        shared_keys: true,
        participant: ParticipantConfig::default(),
        coordinator: CoordinatorConfig::default(),
    };
    torture_world(&world, seed, plan)
}

/// Saga torture: stock + payment databases, a crashable orchestrator,
/// eight checkouts at price 10 against 40 units of stock. Only 6 of the 8
/// can afford the charge (balance 60), so compensation paths run even on
/// the benign plan.
pub fn saga_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let world = SagaWorld {
        sagas: 8,
        price: 10,
        stock: 40,
        balance: 60,
    };
    torture_world(&world, seed, plan)
}

/// Dataflow torture: the epoch-batched engine on three shards under shard
/// crash-restart cycles, partitions, and ambient loss/duplication. Ten
/// transfers of 10 chain `acct0 → acct1 → … → acct10` so most epochs span
/// shards, plus one transfer no balance can cover so the logic-failure
/// path runs even on the benign plan.
pub fn dataflow_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let mut transfers: Vec<_> = (0..10)
        .map(|i| (format!("acct{i}"), format!("acct{}", i + 1), 10))
        .collect();
    transfers.push(("acct0".into(), "acct3".into(), 10_000));
    let world = DataflowWorld {
        shards: 3,
        config: DataflowConfig::default(),
        transfers,
    };
    torture_world(&world, seed, plan)
}

/// Workflow torture: the exactly-once runtime with *both* the
/// orchestrator and its two workers crashable mid-chain. Six 4-hop
/// transfer chains of 10 run across the fault window on a 3-shard 2PC
/// data tier, every account seeded with an ample 1 000.
pub fn workflow_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let world = WorkflowWorld {
        chains: 6,
        steps: 4,
        workers: 2,
        shards: 3,
        start: 1_000,
        amount: 10,
    };
    torture_world(&world, seed, plan)
}

/// Actor-transaction torture: six sequential transfers of 20 between two
/// account actors holding 100 each, under ambient message loss and
/// duplication only. The last transfer overdrafts by design (5 × 20
/// drains the account), so the abort path runs even on the benign plan.
pub fn actor_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let world = ActorWorld {
        transfers: 6,
        amount: 20,
        balance: 100,
    };
    torture_world(&world, seed, plan)
}
