//! Model-checking scenarios: the [`crate::worlds`] wired into
//! [`tca_sim::mc`].
//!
//! These are the exhaustive-exploration counterparts of the torture
//! scenarios in [`crate::torture`]: the same world definitions and the
//! same audits, but tiny workloads (one or two transactions) so the
//! bounded checker can enumerate *every* schedule instead of sampling
//! random fault plans. One driver builds every scenario: a fixed-seed
//! `Sim` on a draw-free network (fixed latency, no ambient loss or
//! duplication — the checker itself enumerates delays, drops and crashes
//! as explicit choices), the world deployed on it, and every request
//! injected at time zero.
//!
//! The 2PC, sharded-2PC and workflow scenarios carry full state
//! fingerprints (protocol digests + balances + message contents),
//! enabling visited-set merging; the saga, actor and dataflow scenarios
//! run opaque (no fingerprints), which soundly degrades the checker to
//! pure depth-bounded DFS with sleep-set POR.
//!
//! Each scenario's [`McScenario::settled`] hook is its world's
//! [`World::settled`]: once it holds and no further fault is injected,
//! nothing the audit reads can change any more, so a leaf closure stops
//! as soon as it holds and only timers are pending rather than running
//! the full grace period. The actor, 2PC and sharded-2PC worlds implement
//! it; the saga world needs no hook (its queue drains), and the dataflow
//! and workflow worlds keep the always-sound `false`.

use std::cell::OnceCell;
use std::rc::Rc;

use tca_messaging::rpc::RpcRequest;
use tca_sim::mc::{McScenario, Schedule};
use tca_sim::{NetworkConfig, Payload, ProcessId, RpcReply, Sim, SimConfig, SimDuration, SimTime};

use crate::dataflow::DataflowConfig;
use crate::twopc::{
    CoordinatorConfig, DecisionAck, DecisionInquiry, DecisionReq, DtxOutcome, ExecuteReq,
    ExecuteResp, ParticipantConfig, PrepareReq, StartDtx, Vote,
};
use crate::workflow::{GcWatermark, StartWorkflow, StepOutcome, StepReq, WorkflowOutcome};
use crate::worlds::{
    cross_shard_pairs, fnv_bytes, ActorWorld, DataflowWorld, SagaWorld, ShardedTwoPcWorld,
    TwoPcWorld, WorkflowWorld, World,
};

/// Fixed-latency, loss-free network: the checker's choice enumeration
/// replaces every random network behaviour, so scenario worlds must not
/// draw from the RNG when routing.
pub fn mc_network() -> NetworkConfig {
    NetworkConfig {
        latency_min: SimDuration::from_micros(250),
        latency_max: SimDuration::from_micros(250),
        local_latency: SimDuration::from_micros(10),
        drop_prob: 0.0,
        dup_prob: 0.0,
    }
}

/// The model-checking driver: `world` as an [`McScenario`]. `build` runs
/// once per explored state, so it does exactly the deployment work and
/// nothing else; the handles are identical on every build (spawn order is
/// fixed), so the first build's are kept for the invariant, fingerprint
/// and audit hooks.
fn mc_world<W: World + 'static>(name: &str, world: W) -> McScenario {
    let world = Rc::new(world);
    let handles: Rc<OnceCell<W::Handles>> = Rc::new(OnceCell::new());
    let (w, built) = (Rc::clone(&world), Rc::clone(&handles));
    let mut sc = McScenario::new(name, move || {
        let mut sim = Sim::new(SimConfig {
            seed: 42,
            network: mc_network(),
        });
        let h = w.deploy(&mut sim);
        for i in 0..w.requests() {
            w.submit(&mut sim, &h, i, SimTime::ZERO);
        }
        let _ = built.set(h);
        sim
    });
    let hook = move || (Rc::clone(&world), Rc::clone(&handles));
    let (w, h) = hook();
    sc.state_fp = Box::new(move |sim| w.state_fp(sim, h.get()?));
    let (w, h) = hook();
    sc.step_invariant = Box::new(move |sim| w.step_invariant(sim, h.get().expect("built")));
    let (w, h) = hook();
    sc.audit = Box::new(move |sim| w.audit(sim, h.get().expect("built"), None));
    let (w, h) = hook();
    sc.settled = Box::new(move |sim| w.settled(sim, h.get().expect("built")));
    sc
}

/// Fingerprint `p` as `tag` + its debug rendering if it is a `T`.
fn fp_as<T: std::fmt::Debug + 'static>(p: &Payload, tag: u64) -> Option<u64> {
    let message = p.downcast_ref::<T>()?;
    Some(fnv_bytes(tag, format!("{message:?}").as_bytes()))
}

/// Fingerprint an RPC envelope by call id and, through `body_fp`, content.
fn rpc_fp(p: &Payload, body_fp: fn(&Payload) -> Option<u64>) -> Option<u64> {
    let (tag, call_id, body) = if let Some(r) = p.downcast_ref::<RpcRequest>() {
        (1, r.call_id, &r.body)
    } else {
        let r = p.downcast_ref::<RpcReply>()?;
        (2, r.call_id, &r.body)
    };
    Some(fnv_bytes(tag, &call_id.to_le_bytes()) ^ body_fp(body)?)
}

// ---------------------------------------------------------------------------
// 2PC
// ---------------------------------------------------------------------------

/// Starting balance of each debit account (`a0`, `a1`, …) on participant
/// A in the 2PC worlds.
pub const MC_ALICE_START: i64 = 150;
/// Starting balance of each credit account (`b0`, `b1`, …) on participant
/// B in the 2PC worlds.
pub const MC_BOB_START: i64 = 100;
/// Per-transfer amount in [`twopc_mc_scenario`].
pub const MC_TWOPC_AMOUNT: i64 = 10;

/// Participant A's pid in the 2PC worlds (spawn order is fixed).
pub const MC_PA: ProcessId = ProcessId(0);
/// Participant B's pid in the 2PC worlds.
pub const MC_PB: ProcessId = ProcessId(1);
/// The coordinator's pid in the 2PC worlds.
pub const MC_COORD: ProcessId = ProcessId(2);

/// Content fingerprint for every message the 2PC world sends. Returns
/// `None` for unknown payload types, making such states opaque to the
/// visited set (sound, just less pruning).
pub fn twopc_payload_fp(p: &Payload) -> Option<u64> {
    rpc_fp(p, twopc_payload_fp)
        .or_else(|| fp_as::<ExecuteReq>(p, 3))
        .or_else(|| fp_as::<ExecuteResp>(p, 4))
        .or_else(|| fp_as::<PrepareReq>(p, 5))
        .or_else(|| fp_as::<Vote>(p, 6))
        .or_else(|| fp_as::<DecisionReq>(p, 7))
        .or_else(|| fp_as::<DecisionAck>(p, 8))
        .or_else(|| fp_as::<DecisionInquiry>(p, 9))
        .or_else(|| fp_as::<DtxOutcome>(p, 10))
        .or_else(|| fp_as::<StartDtx>(p, 11))
}

fn twopc_scenario(transfers: u64, amount: i64, participant: ParticipantConfig) -> McScenario {
    let world = TwoPcWorld {
        transfers,
        amount,
        alice_start: MC_ALICE_START,
        bob_start: MC_BOB_START,
        shared_keys: false,
        participant,
        coordinator: CoordinatorConfig::default(),
    };
    let mut sc = mc_world("twopc", world);
    sc.payload_fp = Box::new(twopc_payload_fp);
    sc
}

/// The standard 2PC checking world: two participants, one coordinator,
/// `transfers` transfers — transfer `i` on its own `a{i}` → `b{i}` pair —
/// injected at time zero.
/// Invariants: no zombie branches at any state; atomicity, conservation
/// and no-stuck-locks at closed leaves.
pub fn twopc_mc_scenario(transfers: u64) -> McScenario {
    twopc_scenario(transfers, MC_TWOPC_AMOUNT, ParticipantConfig::default())
}

/// The seeded-mutation self-test world: one transfer whose debit branch
/// *fails* (amount exceeds alice's balance, so the coordinator aborts
/// while an `ExecuteReq` may still be in flight), with the participant's
/// late-execute guard disabled via
/// [`ParticipantConfig::accept_late_execute`]. The checker must find the
/// decision/execute race this reintroduces (PR 2's late-ExecuteReq bug)
/// as a zombie-branch invariant violation.
pub fn twopc_late_execute_mutation_scenario() -> McScenario {
    twopc_scenario(
        1,
        MC_ALICE_START + 1,
        ParticipantConfig {
            accept_late_execute: true,
            ..ParticipantConfig::default()
        },
    )
}

/// Pinned minimal schedule for the **same-instant coordinator reincarnation
/// txid-reuse bug** the checker found in `TwoPcCoordinator` (fixed by the
/// durable `txid_floor`): crash + restart the coordinator between two
/// `StartDtx` deliveries without advancing virtual time, so both
/// incarnations compute the same boot epoch and the second transaction
/// re-issues the first one's txid; the participant merges both
/// transactions into one branch, and with the first transaction's
/// other-participant `ExecuteReq` dropped (`x15`) the merged commit
/// diverges — one participant commits two branches, the other one.
///
/// Emitted by [`tca_sim::mc::explore`] over [`twopc_mc_scenario`]`(2)`
/// with a 1-crash + 1-drop budget at depth 7, then minimized by the
/// checker's greedy shrinker; kept replayable as a regression pin.
///
/// # Panics
///
/// Never in practice: the schedule literal is pinned and parsing it is
/// covered by the regression test that replays it.
pub fn twopc_txid_reuse_schedule() -> Schedule {
    "d4 d10 c2 r2 d5 x15"
        .parse()
        .expect("pinned schedule parses")
}

/// The sharded 2PC checking world: two ring shards (pids [`MC_PA`] and
/// [`MC_PB`]), a coordinator ([`MC_COORD`]), and `transfers` cross-shard
/// transfers of [`MC_TWOPC_AMOUNT`] from [`MC_ALICE_START`] debit
/// accounts to [`MC_BOB_START`] credit accounts. Carries full state
/// fingerprints (protocol digests + every shard's balances); invariants
/// as in [`ShardedTwoPcWorld`].
pub fn sharded_twopc_mc_scenario(transfers: u64) -> McScenario {
    let world = ShardedTwoPcWorld::new(2, transfers, MC_TWOPC_AMOUNT, MC_ALICE_START, MC_BOB_START);
    let mut sc = mc_world("sharded-twopc", world);
    sc.payload_fp = Box::new(twopc_payload_fp);
    sc
}

// ---------------------------------------------------------------------------
// Saga
// ---------------------------------------------------------------------------

/// Initial stock units in the saga checking world.
pub const MC_STOCK_START: i64 = 5;
/// Initial buyer balance in the saga checking world.
pub const MC_SAGA_BALANCE: i64 = 30;
/// Checkout price in the saga checking world.
pub const MC_SAGA_PRICE: i64 = 10;
/// The stock database's pid in the saga world.
pub const MC_SAGA_STOCK: ProcessId = ProcessId(0);
/// The payment database's pid in the saga world.
pub const MC_SAGA_PAY: ProcessId = ProcessId(1);
/// The orchestrator's pid in the saga world.
pub const MC_SAGA_ORCH: ProcessId = ProcessId(2);

/// The saga checking world: stock + payment databases and a checkout
/// orchestrator, `sagas` checkouts injected at time zero. Runs opaque (no
/// state fingerprints); the terminal audit checks compensation integrity,
/// conservation and termination.
pub fn saga_mc_scenario(sagas: u64) -> McScenario {
    let world = SagaWorld {
        sagas,
        price: MC_SAGA_PRICE,
        stock: MC_STOCK_START,
        balance: MC_SAGA_BALANCE,
    };
    mc_world("saga", world)
}

/// Pinned minimal schedule for the **same-instant orchestrator
/// reincarnation instance-id-reuse bug** the checker found in
/// `SagaOrchestrator` (fixed by the durable `saga_last_id` cell): finish
/// one checkout (erasing its journal entry), crash + restart the
/// orchestrator without advancing time, then start a second checkout —
/// the restarted incarnation recomputes the same boot epoch, reuses the
/// finished saga's instance id, and the databases dedup the new saga's
/// steps against the dead saga's cached replies instead of executing.
///
/// # Panics
///
/// Never in practice: the schedule literal is pinned and parsing it is
/// covered by the regression test that replays it.
pub fn saga_id_reuse_schedule() -> Schedule {
    // Deliver the seeds and the first checkout, drain its step/reply
    // chain lowest-seq-first (the whole saga completes at virtual t=0
    // because model-checked delivery never advances the clock), then
    // crash the orchestrator; the leaf closure's restart + grace delivers
    // the held-back second checkout into the reincarnated orchestrator.
    // The prefix was constructed with [`tca_sim::mc::pending_deliveries`]
    // (a blind DFS cannot reach depth 14 in this opaque-fingerprint
    // world), validated with [`tca_sim::mc::check_schedule`], and shrunk
    // to fixpoint by the same greedy minimizer the checker uses.
    "d3 d4 d6 d8 d10 d11 d13 c2"
        .parse()
        .expect("pinned schedule parses")
}

// ---------------------------------------------------------------------------
// Actor transactions
// ---------------------------------------------------------------------------

/// Transfer amount in the actor checking world.
pub const MC_ACTOR_AMOUNT: i64 = 20;
/// Per-account starting balance in the actor checking world.
pub const MC_ACTOR_BALANCE: i64 = 100;
/// The directory's pid in the actor world.
pub const MC_ACTOR_DIR: ProcessId = ProcessId(0);
/// The two silos' pids in the actor world.
pub const MC_ACTOR_SILOS: [ProcessId; 2] = [ProcessId(1), ProcessId(2)];
/// The driver's pid in the actor world.
pub const MC_ACTOR_DRIVER: ProcessId = ProcessId(3);

/// The actor-transaction checking world: a directory, two silos and a
/// driver running `transfers` sequential a→b transfers followed by two
/// balance reads. Runs opaque; the terminal audit checks driver progress
/// and conservation.
pub fn actor_mc_scenario(transfers: u64) -> McScenario {
    let world = ActorWorld {
        transfers,
        amount: MC_ACTOR_AMOUNT,
        balance: MC_ACTOR_BALANCE,
    };
    mc_world("actor", world)
}

// ---------------------------------------------------------------------------
// Deterministic dataflow (epoch-batched engine)
// ---------------------------------------------------------------------------

/// Per-transfer amount in the dataflow checking world.
pub const MC_DF_AMOUNT: i64 = 10;
/// Shard 0's pid in the dataflow world (spawn order is fixed:
/// [`crate::dataflow::deploy_dataflow`] spawns shards first, then the
/// sequencer).
pub const MC_DF_S0: ProcessId = ProcessId(0);
/// Shard 1's pid in the dataflow world.
pub const MC_DF_S1: ProcessId = ProcessId(1);
/// The sequencer's pid in the dataflow world.
pub const MC_DF_SEQ: ProcessId = ProcessId(2);

/// The dataflow checking world: the epoch-batched deterministic engine
/// over two ring shards plus a sequencer, `transfers` genuinely
/// cross-shard transfers injected at time zero (each on its own
/// [`cross_shard_pairs`] pair). Zero virtual execution cost and a
/// one-epoch checkpoint cadence keep the schedule depth small while still
/// exercising the snapshot + journal-replay recovery path on every crash
/// the checker injects.
///
/// Runs opaque (no state fingerprints), like the saga and actor worlds:
/// depth-bounded DFS with sleep-set POR. Invariants as in
/// [`DataflowWorld`].
pub fn dataflow_mc_scenario(transfers: u64) -> McScenario {
    let world = DataflowWorld {
        shards: 2,
        // Inline wave advance (no cost timers) and a checkpoint every
        // epoch: fewer choices per schedule, and every crash recovers
        // through the full snapshot+replay path.
        config: DataflowConfig {
            exec_cost: SimDuration::ZERO,
            checkpoint_every: 1,
            ..DataflowConfig::default()
        },
        transfers: cross_shard_pairs(2, transfers)
            .into_iter()
            .map(|(debit, credit)| (debit, credit, MC_DF_AMOUNT))
            .collect(),
    };
    mc_world("dataflow", world)
}

// ---------------------------------------------------------------------------
// Exactly-once workflows (intent log + idempotence table + tail-call retry)
// ---------------------------------------------------------------------------

/// Per-account starting balance in the workflow checking world.
pub const MC_WF_START: i64 = 100;
/// Per-hop transfer amount in the workflow checking world.
pub const MC_WF_AMOUNT: i64 = 10;
/// Chain length (steps per workflow) in the workflow checking world.
pub const MC_WF_STEPS: u32 = 2;
/// Shard 0's pid in the workflow world
/// ([`crate::workflow::deploy_workflow`] spawns the shard participants
/// first, in ring order).
pub const MC_WF_S0: ProcessId = ProcessId(0);
/// Shard 1's pid in the workflow world.
pub const MC_WF_S1: ProcessId = ProcessId(1);
/// The 2PC coordinator's pid in the workflow world.
pub const MC_WF_COORD: ProcessId = ProcessId(2);
/// The single step worker's pid in the workflow world.
pub const MC_WF_WORKER: ProcessId = ProcessId(3);
/// The orchestrator's pid in the workflow world.
pub const MC_WF_ORCH: ProcessId = ProcessId(4);

/// Content fingerprint for the workflow world: the workflow wire messages
/// plus every 2PC protocol message they carry underneath (via
/// [`twopc_payload_fp`]). RPC envelopes recurse into *this* fingerprint so
/// a `StepReq` inside an `RpcRequest` still hashes by content.
pub fn workflow_payload_fp(p: &Payload) -> Option<u64> {
    rpc_fp(p, workflow_payload_fp)
        .or_else(|| fp_as::<StartWorkflow>(p, 20))
        .or_else(|| fp_as::<WorkflowOutcome>(p, 21))
        .or_else(|| fp_as::<StepReq>(p, 22))
        .or_else(|| fp_as::<StepOutcome>(p, 23))
        .or_else(|| fp_as::<GcWatermark>(p, 24))
        .or_else(|| twopc_payload_fp(p))
}

/// The exactly-once workflow checking world: one orchestrator, one step
/// worker, a 2PC coordinator and two ring shards, with a single two-step
/// transfer chain injected at time zero.
///
/// Carries full state fingerprints (orchestrator / worker / coordinator /
/// participant digests + balances + step markers), so the visited set
/// merges converged interleavings. Invariants as in [`WorkflowWorld`].
pub fn workflow_mc_scenario() -> McScenario {
    let world = WorkflowWorld {
        chains: 1,
        steps: MC_WF_STEPS,
        workers: 1,
        shards: 2,
        start: MC_WF_START,
        amount: MC_WF_AMOUNT,
    };
    let mut sc = mc_world("workflow", world);
    sc.payload_fp = Box::new(workflow_payload_fp);
    sc
}
