//! Checking worlds: the small world each transaction mechanism is
//! tortured and model-checked in, defined exactly once.
//!
//! A [`World`] is three things: *deploy* (nodes, processes, seed data —
//! the spawn order and process names are part of the definition, pinned
//! schedules address them), *submit* (request `i` at a virtual time the
//! caller picks) and *audit* (what must hold once the world is quiescent,
//! plus the step invariant, state fingerprint and settledness test where
//! the mechanism has one). [`crate::torture`] drives a world under a
//! seeded [`FaultPlan`], [`crate::mc_scenarios`] hands it to the
//! exhaustive checker, and the regression suites in `tests/` deploy the
//! same definitions. What varies between those callers — transfer count,
//! amount, start balances, shared or per-transfer keys — is the fields of
//! the world structs.
//!
//! The invariants the audits share:
//!
//! - **atomicity** — no transaction half-applied (both branches commit or
//!   neither);
//! - **conservation** — transfers move money, never create or destroy it;
//! - **exactly-once effects** — final state equals the initial state plus
//!   exactly one application per committed transaction, regardless of how
//!   many times the network duplicated or the protocol retried;
//! - **no stuck locks** — with every node back up and the system
//!   quiescent, no branch is in doubt, no engine transaction is open, and
//!   the coordinator's table is empty.
//!
//! [`World::settled`] lets a closure stop before its grace period is up.
//! Its contract: once it holds and no further fault is injected, nothing
//! [`World::audit`] reads can change any more — the sweeps, heartbeats and
//! retry timers still pending are no-ops for the audit. The model
//! checker's leaf closure stops at the first state where it holds and
//! only timers are pending. `false`, the default, is always sound. The
//! actor world settles when its driver has finished its script and its
//! router is idle (the audit reads only driver counters, which move only
//! on a router completion); the 2PC worlds settle when the tier is
//! quiescent in the sense of [`twopc_quiescent`].

use tca_messaging::rpc::{RetryPolicy, RpcRequest};
use tca_models::actor::{ActorCompletion, ActorId, ActorRouter, ActorSilo, Directory, SiloConfig};
use tca_sim::place::FNV_OFFSET;
use tca_sim::{
    Ctx, FaultPlan, Fnv64, NodeId, Payload, Process, ProcessId, ShardMap, Sim, SimDuration, SimTime,
};
use tca_storage::{DbMsg, DbServer, DbServerConfig, ProcRegistry, Value};

use crate::actor_txn::{transactional_bank_registry, transfer_plan};
use crate::dataflow::{deploy_dataflow, DataflowConfig, DfSequencer, DfShard};
use crate::deterministic::{transfer_registry, SubmitTxn};
use crate::saga::{SagaDef, SagaOrchestrator, SagaStep, StartSaga};
use crate::sharding::{route_branches, ShardOp};
use crate::twopc::{
    CoordinatorConfig, ParticipantConfig, StartDtx, TwoPcCoordinator, TwoPcParticipant,
};
use crate::workflow::{
    deploy_workflow, peek_sharded, step_marker_key, transfer_chain_def, StartWorkflow,
    WorkflowConfig, WorkflowDeployment, WorkflowOrchestrator, WorkflowWorker,
};

/// Settle time after the fault horizon before auditing: long enough for
/// every timeout, inquiry, and retry chain in the protocols to complete
/// (participant sweeps are 100 ms, inquiries fire after 150 ms, the
/// coordinator retries every 20 ms).
pub const GRACE: SimDuration = SimDuration::from_millis(800);

/// One checking world. Implemented by the six worlds below and consumed
/// by the torture driver ([`crate::torture::torture_world`]) and the
/// model-checking driver in [`crate::mc_scenarios`].
pub trait World {
    /// Process ids of a deployed world.
    type Handles;

    /// Add the world's nodes and processes to a fresh `sim` and seed its
    /// data. Deterministic: the same spawn order on every call.
    fn deploy(&self, sim: &mut Sim) -> Self::Handles;

    /// How many requests the drivers submit (`0`: the world drives itself).
    fn requests(&self) -> u64;

    /// Inject request `i` at virtual time `at`. Injections bypass the
    /// network; one addressed to a crashed node is dropped by the kernel
    /// (request lost — a full-stack client would retry, here the
    /// transaction simply never starts).
    fn submit(&self, sim: &mut Sim, h: &Self::Handles, i: u64, at: SimTime);

    /// The `(crashable, partitionable)` processes: a torture plan crashes
    /// and cuts off the nodes they run on (every world puts one process on
    /// each node).
    fn fault_targets(&self, h: &Self::Handles) -> (Vec<ProcessId>, Vec<ProcessId>);

    /// The nodes [`World::fault_targets`] run on, as `FaultPlan::apply`
    /// takes them.
    fn fault_nodes(&self, sim: &Sim, h: &Self::Handles) -> (Vec<NodeId>, Vec<NodeId>) {
        let (crash, cut) = self.fault_targets(h);
        let nodes = |pids: Vec<ProcessId>| pids.into_iter().map(|p| sim.node_of(p)).collect();
        (nodes(crash), nodes(cut))
    }

    /// Settle time after the plan's horizon before the audit.
    fn grace(&self) -> SimDuration {
        GRACE
    }

    /// Invariant that must hold at *every* state, not only at quiescence.
    fn step_invariant(&self, _sim: &Sim, _h: &Self::Handles) -> Result<(), String> {
        Ok(())
    }

    /// Fingerprint of all behaviour-relevant state; `None` = opaque.
    fn state_fp(&self, _sim: &Sim, _h: &Self::Handles) -> Option<u64> {
        None
    }

    /// True once, with no further fault injected, nothing
    /// [`World::audit`] reads can change any more (see the module docs).
    /// `false` is always sound.
    fn settled(&self, _sim: &Sim, _h: &Self::Handles) -> bool {
        false
    }

    /// The post-quiescence invariants. `plan` is the torture plan the run
    /// was driven under — a benign one must additionally make full
    /// progress — or `None` when the model checker drove it: then any
    /// message, an injected request included, may have been dropped, so
    /// audits count from what the world admitted, not from what was sent.
    fn audit(&self, sim: &Sim, h: &Self::Handles, plan: Option<&FaultPlan>) -> Result<(), String>;
}

fn is_benign(plan: Option<&FaultPlan>) -> bool {
    plan.is_some_and(FaultPlan::is_benign)
}

/// FNV-1a of `bytes` from a basis perturbed by `seed`: chains state
/// fingerprints and keeps message-fingerprint families apart.
pub(crate) fn fnv_bytes(seed: u64, bytes: &[u8]) -> u64 {
    Fnv64::seeded(FNV_OFFSET ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .bytes(bytes)
        .finish()
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// The debit/credit bank every transfer world runs on: `debit(key, n)`
/// fails with `insufficient` below zero, `credit(key, n)` always applies;
/// an absent account reads as 0.
pub fn bank_registry() -> ProcRegistry {
    bank_registry_from(0)
}

/// [`bank_registry`] over accounts that start with `initial`: an account
/// never written reads as that, so a deployment needs no load phase (the
/// [`crate::deterministic::transfer_registry_from`] convention).
pub fn bank_registry_from(initial: i64) -> ProcRegistry {
    ProcRegistry::new()
        .with("debit", move |tx, args| {
            let key = args[0].as_str().to_owned();
            let amount = args[1].as_int();
            let balance = tx.get(&key).map(|v| v.as_int()).unwrap_or(initial);
            if balance < amount {
                return Err("insufficient".into());
            }
            tx.put(&key, Value::Int(balance - amount));
            Ok(vec![Value::Int(balance - amount)])
        })
        .with("credit", move |tx, args| {
            let key = args[0].as_str().to_owned();
            let amount = args[1].as_int();
            let balance = tx.get(&key).map(|v| v.as_int()).unwrap_or(initial);
            tx.put(&key, Value::Int(balance + amount));
            Ok(vec![Value::Int(balance + amount)])
        })
}

/// The transfer saga over a [`bank_registry`] database (or a router in
/// front of several): `StartSaga { saga: "transfer", args: [from, to,
/// amount] }` debits `from`, then credits `to`; a failed credit
/// compensates the debit.
pub fn transfer_saga(db: ProcessId) -> SagaDef {
    SagaDef {
        name: "transfer".into(),
        steps: vec![
            SagaStep::new("debit", db, "debit", |v| {
                vec![v.get("$0").clone(), v.get("$2").clone()]
            })
            .compensate("credit", |v| vec![v.get("$0").clone(), v.get("$2").clone()]),
            SagaStep::new("credit", db, "credit", |v| {
                vec![v.get("$1").clone(), v.get("$2").clone()]
            }),
        ],
    }
}

/// Integer value of `key` in the store behind `pid` — a 2PC participant,
/// a [`DbServer`] or a dataflow shard. `None` when the key is absent or
/// the process is down.
pub fn peek(sim: &Sim, pid: ProcessId, key: &str) -> Option<i64> {
    let value = if let Some(p) = sim.inspect::<TwoPcParticipant>(pid) {
        p.engine().peek(key)
    } else if let Some(s) = sim.inspect::<DbServer>(pid) {
        s.engine().peek(key)
    } else {
        sim.inspect::<DfShard>(pid)?.peek(key).cloned()
    };
    value.map(|v| v.as_int())
}

fn must_peek(sim: &Sim, pid: ProcessId, key: &str) -> Result<i64, String> {
    peek(sim, pid, key).ok_or_else(|| format!("cannot peek {key}"))
}

/// No stuck locks: the 2PC tier is quiescent — no participant holds an
/// in-doubt branch or an open engine transaction, and the coordinator
/// tracks no open distributed transaction.
pub fn twopc_quiescent(
    sim: &Sim,
    participants: &[ProcessId],
    coordinator: ProcessId,
) -> Result<(), String> {
    for &pid in participants {
        let name = sim.name_of(pid);
        let p = sim
            .inspect::<TwoPcParticipant>(pid)
            .ok_or_else(|| format!("cannot inspect {name}"))?;
        if p.in_doubt() != 0 {
            return Err(format!(
                "stuck locks: {name} has {} in-doubt branches at quiescence",
                p.in_doubt()
            ));
        }
        if p.engine().active_count() != 0 {
            return Err(format!(
                "stuck locks: {name} has {} open engine transactions",
                p.engine().active_count()
            ));
        }
    }
    let open = sim
        .inspect::<TwoPcCoordinator>(coordinator)
        .map(|c| c.open_dtxs())
        .ok_or("cannot inspect coordinator")?;
    if open != 0 {
        return Err(format!("coordinator still tracks {open} open transactions"));
    }
    Ok(())
}

/// No branch may stay open for a txid the participant already saw decided:
/// nothing would ever release its locks.
fn no_zombie_branches(sim: &Sim, participants: &[(ProcessId, &str)]) -> Result<(), String> {
    for &(pid, name) in participants {
        if let Some(p) = sim.inspect::<TwoPcParticipant>(pid) {
            let zombies = p.zombie_branches();
            if zombies > 0 {
                return Err(format!(
                    "{name}: {zombies} branch(es) open for already-decided txids \
                     (locks nothing will release)"
                ));
            }
        }
    }
    Ok(())
}

/// Fold the participants' and the coordinator's protocol digests into `h`.
fn twopc_digests(sim: &Sim, mut h: u64, participants: &[ProcessId], coord: ProcessId) -> u64 {
    let digests = participants.iter().map(|&pid| {
        sim.inspect::<TwoPcParticipant>(pid)
            .map_or(0, |p| p.state_digest())
    });
    let coord = sim
        .inspect::<TwoPcCoordinator>(coord)
        .map_or(0, |c| c.state_digest());
    for v in digests.chain([coord]) {
        h = fnv_bytes(h, &v.to_le_bytes());
    }
    h
}

fn rpc(call_id: u64, body: impl std::any::Any) -> Payload {
    Payload::new(RpcRequest {
        call_id,
        body: Payload::new(body),
    })
}

// ---------------------------------------------------------------------------
// Two-phase commit
// ---------------------------------------------------------------------------

/// The 2PC world: two bank participants (`bank-a` holding the debit
/// accounts, `bank-b` the credit accounts) and a coordinator, running
/// `transfers` debit/credit transactions of `amount`.
///
/// Invariants: no zombie branches at any state; at quiescence atomicity
/// (both banks committed the same branches, each pair debited what it
/// credited), exactly-once (balances moved by exactly the committed
/// count), and no stuck locks.
pub struct TwoPcWorld {
    /// Transfers the drivers submit.
    pub transfers: u64,
    /// Amount each transfer moves.
    pub amount: i64,
    /// Starting balance of every debit account on participant A.
    pub alice_start: i64,
    /// Starting balance of every credit account on participant B.
    pub bob_start: i64,
    /// `true`: every transfer moves `alice` → `bob`, so transactions
    /// contend on locks. `false`: transfer `i` owns the pair `a{i}` →
    /// `b{i}` — distinct transactions never conflict on locks, so any
    /// coupling between them the checker observes is protocol state
    /// leaking across transactions, exactly the class of bug lock
    /// conflicts would otherwise mask.
    pub shared_keys: bool,
    /// Participant tuning (the seeded-mutation world flips a guard here).
    pub participant: ParticipantConfig,
    /// Coordinator retry cadence and deadlines.
    pub coordinator: CoordinatorConfig,
}

/// Pids of a deployed [`TwoPcWorld`], in spawn order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoPcHandles {
    /// `bank-a` (metrics prefix `pa`).
    pub pa: ProcessId,
    /// `bank-b` (metrics prefix `pb`).
    pub pb: ProcessId,
    /// `coordinator`.
    pub coordinator: ProcessId,
}

impl TwoPcWorld {
    fn pairs(&self) -> u64 {
        if self.shared_keys {
            1
        } else {
            self.transfers
        }
    }

    /// The `(debit, credit)` account keys transfer `i` moves money between.
    pub fn keys(&self, i: u64) -> (String, String) {
        if self.shared_keys {
            ("alice".into(), "bob".into())
        } else {
            (format!("a{i}"), format!("b{i}"))
        }
    }

    /// The distributed transaction for transfer `i`.
    pub fn start_dtx(&self, h: &TwoPcHandles, i: u64) -> StartDtx {
        let (debit, credit) = self.keys(i);
        let args = |key: String| vec![Value::from(key), Value::Int(self.amount)];
        StartDtx {
            branches: vec![
                (h.pa, "debit".into(), args(debit)),
                (h.pb, "credit".into(), args(credit)),
            ],
        }
    }
}

impl World for TwoPcWorld {
    type Handles = TwoPcHandles;

    fn deploy(&self, sim: &mut Sim) -> TwoPcHandles {
        let n_a = sim.add_node();
        let n_b = sim.add_node();
        let n_coord = sim.add_node();
        let (debits, credits): (Vec<_>, Vec<_>) = (0..self.pairs()).map(|i| self.keys(i)).unzip();
        let seeds = |keys: Vec<String>, start: i64| -> Vec<_> {
            keys.into_iter()
                .map(|key| (key, Value::Int(start)))
                .collect()
        };
        let pa = sim.spawn(
            n_a,
            "bank-a",
            TwoPcParticipant::factory_seeded(
                "pa",
                self.participant.clone(),
                bank_registry(),
                seeds(debits, self.alice_start),
            ),
        );
        let pb = sim.spawn(
            n_b,
            "bank-b",
            TwoPcParticipant::factory_seeded(
                "pb",
                self.participant.clone(),
                bank_registry(),
                seeds(credits, self.bob_start),
            ),
        );
        let coordinator = sim.spawn(
            n_coord,
            "coordinator",
            TwoPcCoordinator::factory_with(self.coordinator.clone()),
        );
        TwoPcHandles {
            pa,
            pb,
            coordinator,
        }
    }

    fn requests(&self) -> u64 {
        self.transfers
    }

    fn submit(&self, sim: &mut Sim, h: &TwoPcHandles, i: u64, at: SimTime) {
        sim.inject_at(at, h.coordinator, rpc(i, self.start_dtx(h, i)));
    }

    // Only the coordinator crashes (the blocking role the paper focuses
    // on); participants keep their volatile branch tables, partitions and
    // loss stress every link.
    fn fault_targets(&self, h: &TwoPcHandles) -> (Vec<ProcessId>, Vec<ProcessId>) {
        (vec![h.coordinator], vec![h.pa, h.pb, h.coordinator])
    }

    fn step_invariant(&self, sim: &Sim, h: &TwoPcHandles) -> Result<(), String> {
        no_zombie_branches(sim, &[(h.pa, "pa"), (h.pb, "pb")])
    }

    fn state_fp(&self, sim: &Sim, h: &TwoPcHandles) -> Option<u64> {
        let mut fp = twopc_digests(sim, fnv_bytes(12, &[]), &[h.pa, h.pb], h.coordinator);
        for i in 0..self.pairs() {
            let (debit, credit) = self.keys(i);
            for (pid, key) in [(h.pa, debit), (h.pb, credit)] {
                let v = peek(sim, pid, &key).map_or(u64::MAX, |v| v as u64);
                fp = fnv_bytes(fp, &v.to_le_bytes());
            }
        }
        Some(fp)
    }

    fn settled(&self, sim: &Sim, h: &TwoPcHandles) -> bool {
        twopc_quiescent(sim, &[h.pa, h.pb], h.coordinator).is_ok()
    }

    fn audit(&self, sim: &Sim, h: &TwoPcHandles, plan: Option<&FaultPlan>) -> Result<(), String> {
        let commits = sim.metrics().counter("pa.commits");
        let pb_commits = sim.metrics().counter("pb.commits");
        if commits != pb_commits {
            return Err(format!(
                "atomicity: pa committed {commits} branches, pb {pb_commits}"
            ));
        }
        if is_benign(plan) && commits != self.transfers {
            return Err(format!(
                "benign plan must commit all {} transfers, got {commits}",
                self.transfers
            ));
        }
        // Per account pair: both sides moved the same amount, and that
        // amount is a whole number of transfers no larger than the pair
        // carries (one with per-transfer keys, all of them on shared keys).
        let carries = if self.shared_keys { self.transfers } else { 1 } as i64;
        let mut applied = 0;
        for i in 0..self.pairs() {
            let (debit, credit) = self.keys(i);
            let debited = self.alice_start - must_peek(sim, h.pa, &debit)?;
            let credited = must_peek(sim, h.pb, &credit)? - self.bob_start;
            if debited != credited {
                return Err(format!(
                    "atomicity: {debit} was debited {debited} but {credit} credited {credited}"
                ));
            }
            let times = debited / self.amount;
            if debited % self.amount != 0 || !(0..=carries).contains(&times) {
                return Err(format!(
                    "exactly-once: {debit} → {credit} moved {debited}, not 0..={carries} × {}",
                    self.amount
                ));
            }
            applied += times;
        }
        if applied != commits as i64 {
            return Err(format!(
                "exactly-once/conservation: {commits} commits but balances moved {applied} × {}",
                self.amount
            ));
        }
        twopc_quiescent(sim, &[h.pa, h.pb], h.coordinator)
    }
}

// ---------------------------------------------------------------------------
// Sharded 2PC (cross-shard transfers through the placement ring)
// ---------------------------------------------------------------------------

/// For each of `transfers` transfers, a `(debit key, credit key)` pair
/// placed by the consistent-hash ring over `shards` so transfer `t` debits
/// shard `t % shards` and credits the next shard round the ring — every
/// transfer is genuinely cross-shard and every account takes part in
/// exactly one. Deterministic and draw-free: candidate keys `acct0,
/// acct1, …` are scanned in order and each shard hands out the keys it
/// owns first-come.
///
/// # Panics
///
/// Panics if `shards < 2` (no transfer could cross shards).
pub fn cross_shard_pairs(shards: usize, transfers: u64) -> Vec<(String, String)> {
    assert!(shards >= 2, "cross-shard transfers need two shards");
    let map = ShardMap::ring(shards);
    let mut owned: Vec<std::collections::VecDeque<String>> = vec![Default::default(); shards];
    let mut scanned = 0u64;
    let mut take = |shard: usize| loop {
        if let Some(key) = owned[shard].pop_front() {
            return key;
        }
        let key = format!("acct{scanned}");
        scanned += 1;
        owned[map.owner(&key)].push_back(key);
    };
    (0..transfers as usize)
        .map(|t| (take(t % shards), take((t + 1) % shards)))
        .collect()
}

/// The sharded 2PC world: one [`TwoPcParticipant`] per shard of a
/// consistent-hash ring (`shard{s}`, metrics prefix `s{s}`), a
/// coordinator, and cross-shard transfers whose branches are built by
/// [`route_branches`] — the same addressing path the sharded experiments
/// use.
///
/// Invariants match [`TwoPcWorld`]: no zombie branches at any state;
/// atomicity / exactly-once / conservation *across shards* and no stuck
/// locks or in-doubt branches at quiescence.
pub struct ShardedTwoPcWorld {
    /// Amount each transfer moves.
    pub amount: i64,
    /// Starting balance of every debit account.
    pub debit_start: i64,
    /// Starting balance of every credit account.
    pub credit_start: i64,
    map: ShardMap,
    pairs: Vec<(String, String)>,
}

/// Pids of a deployed [`ShardedTwoPcWorld`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedHandles {
    /// One participant per shard, in ring order.
    pub participants: Vec<ProcessId>,
    /// `coordinator`, spawned last.
    pub coordinator: ProcessId,
}

impl ShardedTwoPcWorld {
    /// `transfers` [`cross_shard_pairs`] over `shards` ring shards.
    pub fn new(
        shards: usize,
        transfers: u64,
        amount: i64,
        debit_start: i64,
        credit_start: i64,
    ) -> Self {
        ShardedTwoPcWorld {
            amount,
            debit_start,
            credit_start,
            map: ShardMap::ring(shards),
            pairs: cross_shard_pairs(shards, transfers),
        }
    }

    fn owner(&self, h: &ShardedHandles, key: &str) -> ProcessId {
        h.participants[self.map.owner(key)]
    }

    /// Every account with its starting balance.
    fn accounts(&self) -> impl Iterator<Item = (&String, i64)> {
        self.pairs
            .iter()
            .flat_map(|(d, c)| [(d, self.debit_start), (c, self.credit_start)])
    }
}

impl World for ShardedTwoPcWorld {
    type Handles = ShardedHandles;

    fn deploy(&self, sim: &mut Sim) -> ShardedHandles {
        let shard_nodes = sim.add_nodes(self.map.shards());
        let n_coord = sim.add_node();
        let participants = shard_nodes
            .iter()
            .enumerate()
            .map(|(s, &node)| {
                let seeds = self
                    .accounts()
                    .filter(|(key, _)| self.map.owner(key) == s)
                    .map(|(key, start)| (key.clone(), Value::Int(start)))
                    .collect();
                sim.spawn(
                    node,
                    format!("shard{s}"),
                    TwoPcParticipant::factory_seeded(
                        format!("s{s}"),
                        ParticipantConfig::default(),
                        bank_registry(),
                        seeds,
                    ),
                )
            })
            .collect();
        let coordinator = sim.spawn(
            n_coord,
            "coordinator",
            TwoPcCoordinator::factory_with(CoordinatorConfig::default()),
        );
        ShardedHandles {
            participants,
            coordinator,
        }
    }

    fn requests(&self) -> u64 {
        self.pairs.len() as u64
    }

    fn submit(&self, sim: &mut Sim, h: &ShardedHandles, i: u64, at: SimTime) {
        let (debit, credit) = self.pairs[i as usize].clone();
        let op = |key: String, proc: &str| -> ShardOp {
            let args = vec![Value::from(key.clone()), Value::Int(self.amount)];
            (key, proc.into(), args)
        };
        let ops = [op(debit, "debit"), op(credit, "credit")];
        let branches = route_branches(&self.map, &h.participants, &ops);
        sim.inject_at(at, h.coordinator, rpc(i, StartDtx { branches }));
    }

    // Only the coordinator crashes (participant branch tables are
    // volatile); partitions and loss may hit every link.
    fn fault_targets(&self, h: &ShardedHandles) -> (Vec<ProcessId>, Vec<ProcessId>) {
        let mut cut = h.participants.clone();
        cut.push(h.coordinator);
        (vec![h.coordinator], cut)
    }

    fn step_invariant(&self, sim: &Sim, h: &ShardedHandles) -> Result<(), String> {
        let named: Vec<_> = h
            .participants
            .iter()
            .map(|&pid| (pid, sim.name_of(pid)))
            .collect();
        no_zombie_branches(sim, &named)
    }

    fn state_fp(&self, sim: &Sim, h: &ShardedHandles) -> Option<u64> {
        let mut fp = twopc_digests(sim, fnv_bytes(13, &[]), &h.participants, h.coordinator);
        for (key, _) in self.accounts() {
            let v = peek(sim, self.owner(h, key), key).map_or(u64::MAX, |v| v as u64);
            fp = fnv_bytes(fp, &v.to_le_bytes());
        }
        Some(fp)
    }

    fn settled(&self, sim: &Sim, h: &ShardedHandles) -> bool {
        twopc_quiescent(sim, &h.participants, h.coordinator).is_ok()
    }

    fn audit(&self, sim: &Sim, h: &ShardedHandles, plan: Option<&FaultPlan>) -> Result<(), String> {
        // Atomicity per transfer: each account moves in exactly one
        // transfer, so the debit applied iff the credit applied, and at
        // most once. Conservation across the fleet follows: no pair mints
        // or destroys money, and no account is outside a pair.
        let mut committed = 0u64;
        for (t, (debit, credit)) in self.pairs.iter().enumerate() {
            let debited = self.debit_start - must_peek(sim, self.owner(h, debit), debit)?;
            let credited = must_peek(sim, self.owner(h, credit), credit)? - self.credit_start;
            if debited != credited {
                return Err(format!(
                    "cross-shard atomicity: transfer {t} debited {debited} but credited {credited}"
                ));
            }
            if debited != 0 && debited != self.amount {
                return Err(format!(
                    "exactly-once: transfer {t} moved {debited}, not 0 or {}",
                    self.amount
                ));
            }
            committed += u64::from(debited == self.amount);
        }
        // Branch commits must pair up: two per committed transfer.
        let branch_commits: u64 = (0..h.participants.len())
            .map(|s| sim.metrics().counter(&format!("s{s}.commits")))
            .sum();
        if branch_commits != 2 * committed {
            return Err(format!(
                "atomicity: {branch_commits} branch commits for {committed} committed transfers"
            ));
        }
        if is_benign(plan) && committed != self.requests() {
            return Err(format!(
                "benign plan must commit all {} transfers, got {committed}",
                self.requests()
            ));
        }
        twopc_quiescent(sim, &h.participants, h.coordinator)
    }
}

// ---------------------------------------------------------------------------
// Sagas
// ---------------------------------------------------------------------------

/// Stock service of the checkout saga: `reserve` / `unreserve` one unit.
pub fn stock_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("reserve", |tx, args| {
            let item = args[0].as_str().to_owned();
            let qty = tx.get(&item).map(|v| v.as_int()).unwrap_or(0);
            if qty <= 0 {
                return Err("out of stock".into());
            }
            tx.put(&item, Value::Int(qty - 1));
            Ok(vec![Value::Int(qty - 1)])
        })
        .with("unreserve", |tx, args| {
            let item = args[0].as_str().to_owned();
            let qty = tx.get(&item).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&item, Value::Int(qty + 1));
            Ok(vec![])
        })
        .with("seed", |tx, args| {
            tx.put(args[0].as_str(), args[1].clone());
            Ok(vec![])
        })
}

/// Payment service of the checkout saga: `charge` / `refund` an account.
pub fn payment_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("charge", |tx, args| {
            let account = args[0].as_str().to_owned();
            let amount = args[1].as_int();
            let balance = tx.get(&account).map(|v| v.as_int()).unwrap_or(0);
            if balance < amount {
                return Err("insufficient funds".into());
            }
            tx.put(&account, Value::Int(balance - amount));
            Ok(vec![Value::Int(balance - amount)])
        })
        .with("refund", |tx, args| {
            let account = args[0].as_str().to_owned();
            let amount = args[1].as_int();
            let balance = tx.get(&account).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&account, Value::Int(balance + amount));
            Ok(vec![])
        })
        .with("seed", |tx, args| {
            tx.put(args[0].as_str(), args[1].clone());
            Ok(vec![])
        })
}

/// The two-step checkout saga over `(item, account, price)`: reserve stock
/// (compensated by `unreserve`), then charge (compensated by `refund`).
pub fn checkout_saga(stock_db: ProcessId, pay_db: ProcessId) -> SagaDef {
    SagaDef {
        name: "checkout".into(),
        steps: vec![
            SagaStep::new("reserve", stock_db, "reserve", |v| {
                vec![v.get("$0").clone()]
            })
            .bind("left")
            .compensate("unreserve", |v| vec![v.get("$0").clone()]),
            SagaStep::new("charge", pay_db, "charge", |v| {
                vec![v.get("$1").clone(), v.get("$2").clone()]
            })
            .compensate("refund", |v| vec![v.get("$1").clone(), v.get("$2").clone()]),
        ],
    }
}

/// The checkout-saga world: stock and payment databases and a saga
/// orchestrator, running `sagas` checkouts of one `item1` by `alice`.
///
/// At quiescence every started saga must be terminal (committed or fully
/// compensated), stock and money must satisfy the conservation identity,
/// and no compensation may have been dropped.
pub struct SagaWorld {
    /// Checkouts the drivers submit.
    pub sagas: u64,
    /// Price of one checkout.
    pub price: i64,
    /// Initial stock units.
    pub stock: i64,
    /// Initial buyer balance. A balance covering fewer checkouts than are
    /// submitted makes compensation paths run even on the benign plan.
    pub balance: i64,
}

/// Pids of a deployed [`SagaWorld`], in spawn order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SagaHandles {
    /// `stock-db`.
    pub stock_db: ProcessId,
    /// `pay-db`.
    pub pay_db: ProcessId,
    /// `saga`, the orchestrator.
    pub orchestrator: ProcessId,
}

impl World for SagaWorld {
    type Handles = SagaHandles;

    fn deploy(&self, sim: &mut Sim) -> SagaHandles {
        let n_stock = sim.add_node();
        let n_pay = sim.add_node();
        let n_orch = sim.add_node();
        let stock_db = sim.spawn(
            n_stock,
            "stock-db",
            DbServer::factory("stock", DbServerConfig::default(), stock_registry()),
        );
        let pay_db = sim.spawn(
            n_pay,
            "pay-db",
            DbServer::factory("pay", DbServerConfig::default(), payment_registry()),
        );
        for (db, key, value) in [
            (stock_db, "item1", self.stock),
            (pay_db, "alice", self.balance),
        ] {
            sim.inject(
                db,
                Payload::new(DbMsg::call(
                    "seed",
                    vec![Value::from(key), Value::Int(value)],
                )),
            );
        }
        // A generous step-retry budget: the default 6×10 ms would exhaust
        // inside an 80 ms partition window and misreport "unreachable" as a
        // logical step failure, triggering compensation of a step that in
        // fact succeeded on the other side of the cut.
        let orchestrator = sim.spawn(
            n_orch,
            "saga",
            SagaOrchestrator::factory_with_retry(
                vec![checkout_saga(stock_db, pay_db)],
                RetryPolicy::retrying(40, SimDuration::from_millis(10)),
            ),
        );
        SagaHandles {
            stock_db,
            pay_db,
            orchestrator,
        }
    }

    fn requests(&self) -> u64 {
        self.sagas
    }

    fn submit(&self, sim: &mut Sim, h: &SagaHandles, i: u64, at: SimTime) {
        let start = StartSaga {
            saga: "checkout".into(),
            args: vec![
                Value::from("item1"),
                Value::from("alice"),
                Value::Int(self.price),
            ],
        };
        sim.inject_at(at, h.orchestrator, rpc(i, start));
    }

    // The orchestrator crashes (its journal is the claim under test); the
    // databases stay up, partitions may cut any link.
    fn fault_targets(&self, h: &SagaHandles) -> (Vec<ProcessId>, Vec<ProcessId>) {
        (
            vec![h.orchestrator],
            vec![h.stock_db, h.pay_db, h.orchestrator],
        )
    }

    fn audit(&self, sim: &Sim, h: &SagaHandles, plan: Option<&FaultPlan>) -> Result<(), String> {
        let comp_failures = sim.metrics().counter("saga.compensation_failures");
        if comp_failures != 0 {
            return Err(format!(
                "{comp_failures} compensations failed (dropped undo = leaked effect)"
            ));
        }
        // Conservation + exactly-once: each committed checkout moves one
        // unit of stock and `price` of money; compensated ones move nothing
        // (net).
        let committed = sim.metrics().counter("saga.committed") as i64;
        let stock_used = self.stock - must_peek(sim, h.stock_db, "item1")?;
        let spent = self.balance - must_peek(sim, h.pay_db, "alice")?;
        if stock_used != committed || spent != committed * self.price {
            return Err(format!(
                "conservation: {committed} committed but stock moved {stock_used} \
                 and balance moved {spent} (price {})",
                self.price
            ));
        }
        if is_benign(plan) && committed != (self.balance / self.price).min(self.sagas as i64) {
            return Err(format!(
                "benign plan must commit exactly the affordable checkouts, got {committed}"
            ));
        }
        let open = sim
            .inspect::<SagaOrchestrator>(h.orchestrator)
            .map(|o| o.open_instances())
            .ok_or("cannot inspect orchestrator")?;
        if open != 0 {
            return Err(format!(
                "{open} saga instances never reached a terminal state"
            ));
        }
        for pid in [h.stock_db, h.pay_db] {
            let name = sim.name_of(pid);
            let active = sim
                .inspect::<DbServer>(pid)
                .map(|s| s.engine().active_count())
                .ok_or_else(|| format!("cannot inspect {name}"))?;
            if active != 0 {
                return Err(format!("{name} has {active} open engine transactions"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Actor transactions
// ---------------------------------------------------------------------------

/// The `(ok, err)` counters an actor driver step's completion is counted
/// under.
type Outcomes = (&'static str, &'static str);
const TXN_OUTCOMES: Outcomes = ("torture.txn_ok", "torture.txn_err");
const READ_OUTCOMES: Outcomes = ("torture.read_ok", "torture.read_err");

/// One step of the actor driver's script: target, method, arguments and
/// the counters its completion is counted under.
type ActorCall = (ActorId, String, Vec<Value>, Outcomes);

/// The actor world's client: runs its script sequentially, advancing on
/// each completion and counting outcomes under `torture.*`.
struct ActorDriver {
    router: ActorRouter,
    plan: Vec<ActorCall>,
    at: usize,
}

impl ActorDriver {
    fn next(&mut self, ctx: &mut Ctx) {
        if self.at < self.plan.len() {
            let (id, method, args, _) = self.plan[self.at].clone();
            self.at += 1;
            self.router.invoke(ctx, id, method, args, self.at as u64);
        }
    }
    fn absorb(&mut self, ctx: &mut Ctx, completions: Vec<ActorCompletion>) {
        for completion in completions {
            let tag = completion.user_tag as usize;
            let (ok, err) = self.plan[tag.saturating_sub(1)].3;
            match completion.result {
                Ok(values) => {
                    ctx.metrics().incr(ok, 1);
                    if ok == READ_OUTCOMES.0 {
                        if let Some(v) = values.first() {
                            ctx.metrics().incr("torture.read_sum", v.as_int() as u64);
                        }
                    }
                }
                Err(_) => ctx.metrics().incr(err, 1),
            }
            self.next(ctx);
        }
    }
    /// The script has run to its end and no call is pending: no counter
    /// the audit reads can move again.
    fn finished(&self) -> bool {
        self.at == self.plan.len() && self.router.is_idle()
    }
}

impl Process for ActorDriver {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.next(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        let completions = self.router.on_message(ctx, &payload);
        self.absorb(ctx, completions);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if let Some(completions) = self.router.on_timer(ctx, tag) {
            self.absorb(ctx, completions);
        }
    }
}

/// The actor-transaction world: a directory, two silos and a driver
/// running `transfers` sequential `a` → `b` transfers followed by a read
/// of each balance.
///
/// The app-level lock/buffer protocol has no durable log and no
/// receive-side dedup beyond invoke retries, so long partitions and
/// crashes genuinely break it (the paper's critique) — the audit pins
/// down what it *does* guarantee: under loss within the RPC retry budget,
/// every transaction is atomic and money is conserved.
pub struct ActorWorld {
    /// Sequential transfers the driver runs.
    pub transfers: u64,
    /// Amount each transfer moves. When the account cannot cover them all
    /// the last ones overdraft by design, so the abort path runs even on
    /// the benign plan.
    pub amount: i64,
    /// Starting balance of both accounts.
    pub balance: i64,
}

/// Pids of a deployed [`ActorWorld`], in spawn order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActorHandles {
    /// `dir`, the actor directory.
    pub directory: ProcessId,
    /// `silo0` and `silo1`.
    pub silos: [ProcessId; 2],
    /// `driver`, the scripted client.
    pub driver: ProcessId,
}

impl World for ActorWorld {
    type Handles = ActorHandles;

    fn deploy(&self, sim: &mut Sim) -> ActorHandles {
        let n_dir = sim.add_node();
        let silo_nodes = [sim.add_node(), sim.add_node()];
        let n_drv = sim.add_node();
        let directory = sim.spawn(n_dir, "dir", Directory::factory());
        let silos = [0, 1].map(|i| {
            sim.spawn(
                silo_nodes[i],
                format!("silo{i}"),
                ActorSilo::factory(
                    transactional_bank_registry(self.balance),
                    SiloConfig::volatile(directory),
                ),
            )
        });
        let transfers = (0..self.transfers).map(|i| {
            let txid = format!("t{i}");
            (
                ActorId::new("txncoord", &txid),
                "run".to_string(),
                transfer_plan(&txid, "a", "b", self.amount),
                TXN_OUTCOMES,
            )
        });
        let reads = ["a", "b"].map(|key| {
            (
                ActorId::new("account", key),
                "read".to_string(),
                vec![],
                READ_OUTCOMES,
            )
        });
        let plan: Vec<ActorCall> = transfers.chain(reads).collect();
        let driver = sim.spawn(n_drv, "driver", move |_| {
            Box::new(ActorDriver {
                router: ActorRouter::new(directory),
                plan: plan.clone(),
                at: 0,
            })
        });
        ActorHandles {
            directory,
            silos,
            driver,
        }
    }

    /// The driver process is the client: nothing to submit.
    fn requests(&self) -> u64 {
        0
    }

    fn submit(&self, _sim: &mut Sim, _h: &ActorHandles, _i: u64, _at: SimTime) {}

    // No crashes, no partitions: silo state is volatile and the silo RPC
    // retry budget (≈30 ms) is smaller than a partition window, so either
    // would exceed what the protocol claims to survive.
    fn fault_targets(&self, _h: &ActorHandles) -> (Vec<ProcessId>, Vec<ProcessId>) {
        (Vec::new(), Vec::new())
    }

    fn settled(&self, sim: &Sim, h: &ActorHandles) -> bool {
        sim.inspect::<ActorDriver>(h.driver)
            .is_some_and(ActorDriver::finished)
    }

    fn audit(&self, sim: &Sim, _h: &ActorHandles, plan: Option<&FaultPlan>) -> Result<(), String> {
        let counter = |name: &str| sim.metrics().counter(name);
        let (txn_ok, txn_err) = (counter(TXN_OUTCOMES.0), counter(TXN_OUTCOMES.1));
        if txn_ok + txn_err != self.transfers {
            return Err(format!(
                "driver stuck: {txn_ok} ok + {txn_err} err of {} transactions",
                self.transfers
            ));
        }
        let read_ok = counter(READ_OUTCOMES.0);
        if read_ok != 2 {
            return Err(format!("final balance reads incomplete: {read_ok}/2"));
        }
        // Conservation: the two final reads sum to the initial total. (Each
        // committed transfer is a pure move; aborts must leave both sides
        // untouched.)
        let read_sum = counter("torture.read_sum") as i64;
        if read_sum != 2 * self.balance {
            return Err(format!(
                "conservation: balances sum to {read_sum}, expected {}",
                2 * self.balance
            ));
        }
        let affordable = (self.balance / self.amount) as u64;
        if is_benign(plan) && txn_ok != affordable.min(self.transfers) {
            return Err(format!(
                "benign plan must commit exactly the affordable transfers, got {txn_ok}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Epoch-batched deterministic dataflow
// ---------------------------------------------------------------------------

/// Per-account starting balance in the dataflow world (the
/// [`transfer_registry`] default for an account it has never seen).
pub const DF_START: i64 = 100;

/// The dataflow world: the epoch-batched deterministic engine
/// ([`deploy_dataflow`]) over `shards` ring shards plus a sequencer,
/// running the `(from, to, amount)` transfers in submission order.
///
/// The step invariant holds the engine's two monotone exactly-once bounds
/// at *every* state. At quiescence: every admitted transaction produced
/// exactly one outcome (exactly-once output — emissions are counted at
/// the wire, so a re-emitted epoch would overshoot), money is conserved
/// across the fleet, every shard has durably applied the sequencer's last
/// epoch, the watermark caught up, and no shard has an epoch in flight.
pub struct DataflowWorld {
    /// Ring shards.
    pub shards: usize,
    /// Engine tuning.
    pub config: DataflowConfig,
    /// The transfers, in submission order. One larger than all the money
    /// in the world can never be funded: the deterministic `Err` path.
    pub transfers: Vec<(String, String, i64)>,
}

/// Pids of a deployed [`DataflowWorld`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowHandles {
    /// `df-shard-{i}`, spawned first.
    pub shards: Vec<ProcessId>,
    /// `df-sequencer`, spawned last.
    pub sequencer: ProcessId,
}

impl DataflowWorld {
    /// Every account a transfer touches, once.
    fn accounts(&self) -> Vec<&String> {
        let mut keys: Vec<_> = self.transfers.iter().flat_map(|(f, t, _)| [f, t]).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Only the ring owner of a key stores it: scan the fleet and take
    /// the one copy.
    fn balance(sim: &Sim, h: &DataflowHandles, key: &str) -> i64 {
        let copy = h.shards.iter().find_map(|&pid| peek(sim, pid, key));
        copy.unwrap_or(DF_START)
    }
}

impl World for DataflowWorld {
    type Handles = DataflowHandles;

    fn deploy(&self, sim: &mut Sim) -> DataflowHandles {
        let shard_nodes = sim.add_nodes(self.shards);
        let n_seq = sim.add_node();
        let (sequencer, shards) = deploy_dataflow(
            sim,
            n_seq,
            &shard_nodes,
            &transfer_registry(),
            self.shards,
            self.config.clone(),
        );
        DataflowHandles { shards, sequencer }
    }

    fn requests(&self) -> u64 {
        self.transfers.len() as u64
    }

    fn submit(&self, sim: &mut Sim, h: &DataflowHandles, i: u64, at: SimTime) {
        let (from, to, amount) = self.transfers[i as usize].clone();
        let submit = SubmitTxn {
            proc: "transfer".into(),
            args: vec![
                Value::Str(from.clone()),
                Value::Str(to.clone()),
                Value::Int(amount),
            ],
            read_keys: vec![from, to],
        };
        sim.inject_at(at, h.sequencer, rpc(i, submit));
    }

    // Shards crash and restart (checkpoint + journal replay is the claim
    // under test); partitions may cut any link, including the sequencer's.
    // The sequencer node is protected: its epoch journal makes it
    // restartable, but a volatile submission buffer lost to a crash would
    // under-count the audit's "every submission terminal" expectation.
    fn fault_targets(&self, h: &DataflowHandles) -> (Vec<ProcessId>, Vec<ProcessId>) {
        let mut cut = h.shards.clone();
        cut.push(h.sequencer);
        (h.shards.clone(), cut)
    }

    fn step_invariant(&self, sim: &Sim, h: &DataflowHandles) -> Result<(), String> {
        // Outcomes are emitted at most once per sequenced transaction, so
        // the emission counter can never pass the submission counter...
        let submitted = sim.metrics().counter("df.submitted");
        let completed = sim.metrics().counter("df.completed");
        if completed > submitted {
            return Err(format!(
                "exactly-once: {completed} outcomes emitted for {submitted} submissions"
            ));
        }
        // ...and a shard can never durably apply an epoch the sequencer
        // has not durably closed (the epoch journal precedes broadcast).
        if let Some(seq) = sim.inspect::<DfSequencer>(h.sequencer) {
            let last = seq.last_epoch();
            for (i, &pid) in h.shards.iter().enumerate() {
                if let Some(shard) = sim.inspect::<DfShard>(pid) {
                    if shard.applied_epoch() > last {
                        return Err(format!(
                            "shard {i} applied epoch {} past the sequencer's last closed \
                             epoch {last}",
                            shard.applied_epoch()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn audit(
        &self,
        sim: &Sim,
        h: &DataflowHandles,
        plan: Option<&FaultPlan>,
    ) -> Result<(), String> {
        let counter = |name: &str| sim.metrics().counter(name);
        let total = self.requests();
        let submitted = counter("df.submitted");
        // Under a torture plan injections bypass the network and the
        // sequencer never crashes, so every submission enters the global
        // order exactly once; the checker may drop one, so there the
        // audit counts from what the sequencer admitted.
        if plan.is_some() && submitted != total {
            return Err(format!(
                "sequencer saw {submitted} of {total} submissions \
                 (it never crashes — all must arrive)"
            ));
        }
        // Exactly-once output: every transaction terminal, no re-emission.
        let completed = counter("df.completed");
        if completed != submitted {
            return Err(format!(
                "exactly-once: {completed} outcomes emitted for {submitted} submissions"
            ));
        }
        let accounts = self.accounts();
        let expected = accounts.len() as i64 * DF_START;
        let unfundable = self.transfers.iter().filter(|t| t.2 > expected).count() as u64;
        let (ok, err) = (counter("df.ok"), counter("df.err"));
        if ok + err != completed || err > unfundable {
            return Err(format!(
                "every admitted transfer is covered and must commit, the {unfundable} \
                 unfundable aside: ok={ok} err={err} of {completed}"
            ));
        }
        if is_benign(plan) && err != unfundable {
            return Err(format!(
                "benign plan must commit every transfer but the {unfundable} unfundable, \
                 got ok={ok} err={err}"
            ));
        }
        // Where every account takes part in exactly one transfer,
        // atomicity is checkable per transfer.
        if accounts.len() == 2 * self.transfers.len() {
            for (i, (from, to, amount)) in self.transfers.iter().enumerate() {
                let debited = DF_START - Self::balance(sim, h, from);
                let credited = Self::balance(sim, h, to) - DF_START;
                if debited != credited {
                    return Err(format!(
                        "atomicity: transfer {i} debited {debited} but credited {credited}"
                    ));
                }
                if debited != 0 && debited != *amount {
                    return Err(format!(
                        "exactly-once: transfer {i} moved {debited}, not 0 or {amount}"
                    ));
                }
            }
        }
        let money: i64 = accounts.iter().map(|key| Self::balance(sim, h, key)).sum();
        if money != expected {
            return Err(format!(
                "conservation: balances sum to {money}, expected {expected}"
            ));
        }
        // Convergence: every shard durably applied the last closed epoch
        // and holds nothing in flight; the watermark caught up with the
        // log head.
        let seq = sim
            .inspect::<DfSequencer>(h.sequencer)
            .ok_or("cannot inspect sequencer")?;
        let last = seq.last_epoch();
        for (i, &pid) in h.shards.iter().enumerate() {
            let shard = sim
                .inspect::<DfShard>(pid)
                .ok_or_else(|| format!("cannot inspect shard {i}"))?;
            if shard.applied_epoch() != last {
                return Err(format!(
                    "shard {i} applied epoch {} but the sequencer closed {last}",
                    shard.applied_epoch()
                ));
            }
            if !shard.is_idle() {
                return Err(format!("shard {i} still has an epoch in flight"));
            }
        }
        if seq.fleet_watermark() != last {
            return Err(format!(
                "watermark {} never caught up with last epoch {last}",
                seq.fleet_watermark()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Exactly-once workflows
// ---------------------------------------------------------------------------

/// The workflow stack needs more settle time than the flat protocols: a
/// chain is sequential steps, each a full 2PC transaction reached through
/// two RPC legs (orchestrator → worker → coordinator), the ambient loss
/// of the plan persists through the grace period, and overlapping chains
/// abort each other on lock conflicts until the re-drive sweep untangles
/// them one committed step at a time. Worst observed convergence across
/// the CI sweep width is ~3.2s of grace (seed 2, plan 2: double recrash
/// cycles plus 13% ambient drop), so 4s leaves margin without materially
/// slowing the sweep.
pub const WF_GRACE: SimDuration = SimDuration::from_millis(4_000);

/// The exactly-once workflow world: one orchestrator, `workers` step
/// workers, a 2PC coordinator and `shards` ring shards (spawned in the
/// reverse of that order), running `chains` transfer chains of `steps`
/// hops. The full Beldi-style stack is in play: durable intent written
/// before the step dtx, the `wf_guard` marker fence as an extra dtx
/// branch, idempotence-table dedup on re-sent steps, tail-call re-drives
/// from the orchestrator sweep, and watermark GC after completion.
///
/// Chain `i` walks its own account range (`steps + 1` accounts from base
/// `i × (steps + 1)`): the audit targets exactly-once under crashes, not
/// lock-conflict throughput — overlapping hot keys convoy the chains
/// behind 25 ms re-drive sweeps and the sweep times out before the tail
/// chain finishes. Cross-chain conflict stress lives in the 2PC worlds.
///
/// The step invariant holds the core exactly-once bound at *every*
/// state: no step marker ever exceeds one application, and the
/// orchestrator never reports more completions than starts. At
/// quiescence:
/// - **no stranded workflows** — every started chain is terminal, and
///   none may fail (balances are ample, so there is no business error to
///   hide behind);
/// - **exactly-once step application** — every step marker reads exactly
///   1 (the fence would have made a double-apply abort, and a marker > 1
///   is impossible unless the guard was bypassed), and the committed
///   step count equals chains × steps;
/// - **conservation** — the account fleet still sums to the seed total;
/// - **no residue** — no pending intents, no in-doubt branches, no open
///   engine transactions, no open dtxs, and the idempotence tables are
///   fully collected behind the completed-workflow watermark.
pub struct WorkflowWorld {
    /// Chains the drivers start.
    pub chains: u64,
    /// Hops per chain.
    pub steps: u32,
    /// Step workers.
    pub workers: usize,
    /// Ring shards in the 2PC data tier.
    pub shards: usize,
    /// Starting balance of every account.
    pub start: i64,
    /// Amount each hop moves.
    pub amount: i64,
}

impl WorkflowWorld {
    fn span(&self) -> i64 {
        self.steps as i64 + 1
    }

    fn accounts(&self) -> impl Iterator<Item = String> {
        (0..self.chains as i64 * self.span()).map(|i| format!("acct{i}"))
    }
}

impl World for WorkflowWorld {
    type Handles = WorkflowDeployment;

    fn deploy(&self, sim: &mut Sim) -> WorkflowDeployment {
        let shard_nodes = sim.add_nodes(self.shards);
        let n_coord = sim.add_node();
        let worker_nodes = sim.add_nodes(self.workers);
        let n_orch = sim.add_node();
        let seeds: Vec<(String, Value)> = self
            .accounts()
            .map(|key| (key, Value::Int(self.start)))
            .collect();
        deploy_workflow(
            sim,
            n_orch,
            &worker_nodes,
            n_coord,
            &shard_nodes,
            &bank_registry(),
            &seeds,
            &[transfer_chain_def("chain", self.steps)],
            WorkflowConfig::default(),
        )
    }

    fn requests(&self) -> u64 {
        self.chains
    }

    fn submit(&self, sim: &mut Sim, h: &WorkflowDeployment, i: u64, at: SimTime) {
        let start = StartWorkflow {
            workflow: "chain".into(),
            args: vec![Value::Int(i as i64 * self.span()), Value::Int(self.amount)],
        };
        sim.inject_at(at, h.orchestrator, rpc(i, start));
    }

    // Orchestrator and workers crash — the crash points where intent
    // logs, idempotence dedup, and the `wf_guard` fence each earn their
    // keep: an orchestrator restart re-drives completed steps, a worker
    // restart replays intents whose transaction may have committed (and,
    // under the crash-during-recovery profile, both crash *again* inside
    // the recovery window); partitions may cut any link. The data tier
    // stays up — its fault tolerance is 2PC's claim, tortured separately.
    fn fault_targets(&self, h: &WorkflowDeployment) -> (Vec<ProcessId>, Vec<ProcessId>) {
        let mut crash = vec![h.orchestrator];
        crash.extend(&h.workers);
        let mut cut = crash.clone();
        cut.push(h.coordinator);
        cut.extend(&h.participants);
        (crash, cut)
    }

    fn grace(&self) -> SimDuration {
        WF_GRACE
    }

    fn step_invariant(&self, sim: &Sim, h: &WorkflowDeployment) -> Result<(), String> {
        for wf in 1..=self.chains {
            for seq in 0..self.steps {
                let key = step_marker_key(wf, seq);
                if let Some(n) = peek_sharded(sim, &h.participants, &h.map, &key) {
                    if n > 1 {
                        return Err(format!("exactly-once: step marker {key} applied {n} times"));
                    }
                }
            }
        }
        let started = sim.metrics().counter("workflow.started");
        let completed = sim.metrics().counter("workflow.completed");
        if completed > started {
            return Err(format!(
                "{completed} workflows completed but only {started} started"
            ));
        }
        Ok(())
    }

    fn state_fp(&self, sim: &Sim, h: &WorkflowDeployment) -> Option<u64> {
        let mut fp = twopc_digests(sim, fnv_bytes(14, &[]), &h.participants, h.coordinator);
        let workers = h.workers.iter().map(|&w| {
            sim.inspect::<WorkflowWorker>(w)
                .map_or(0, |w| w.state_digest())
        });
        let orch = sim
            .inspect::<WorkflowOrchestrator>(h.orchestrator)
            .map_or(0, |o| o.state_digest());
        for v in workers.chain([orch]) {
            fp = fnv_bytes(fp, &v.to_le_bytes());
        }
        let markers = (1..=self.chains)
            .flat_map(|wf| (0..self.steps).map(move |seq| step_marker_key(wf, seq)));
        for key in self.accounts().chain(markers) {
            let v = peek_sharded(sim, &h.participants, &h.map, &key).unwrap_or(i64::MIN);
            fp = fnv_bytes(fp, &v.to_le_bytes());
        }
        Some(fp)
    }

    fn audit(
        &self,
        sim: &Sim,
        h: &WorkflowDeployment,
        plan: Option<&FaultPlan>,
    ) -> Result<(), String> {
        let counter = |name: &str| sim.metrics().counter(name);
        // A start addressed to a crashed orchestrator (or dropped by the
        // checker) never began, so count from what the orchestrator
        // admitted.
        let started = counter("workflow.started");
        let completed = counter("workflow.completed");
        let failed = counter("workflow.failed");
        if failed != 0 {
            return Err(format!(
                "{failed} workflows failed — balances are ample, so a failure means \
                 a transient fault was misclassified as a business error"
            ));
        }
        let orch = sim
            .inspect::<WorkflowOrchestrator>(h.orchestrator)
            .ok_or("cannot inspect orchestrator")?;
        let worker = |i: usize| {
            sim.inspect::<WorkflowWorker>(h.workers[i])
                .ok_or_else(|| format!("cannot inspect worker {i}"))
        };
        if completed != started {
            let intents: Vec<usize> = (0..h.workers.len())
                .map(|i| worker(i).map_or(0, |w| w.pending_intents()))
                .collect();
            return Err(format!(
                "stranded: {started} workflows started but only {completed} completed \
                 (open (wf, seq, in_flight): {:?}, worker intents: {intents:?})",
                orch.open_workflow_states()
            ));
        }
        if orch.open_workflows() != 0 {
            return Err(format!(
                "stranded: {} workflows never reached a terminal state",
                orch.open_workflows()
            ));
        }
        if is_benign(plan) && completed != self.chains {
            return Err(format!(
                "benign plan must complete all {} chains, got {completed}",
                self.chains
            ));
        }
        // Exactly-once: every step of every started chain applied exactly
        // once. The guard writes marker=1 and a second application aborts,
        // so any marker != 1 (or any marker beyond the started range) is a
        // bypassed fence.
        for wf in 1..=started + 2 {
            for seq in 0..self.steps {
                let key = step_marker_key(wf, seq);
                let marker = peek_sharded(sim, &h.participants, &h.map, &key);
                if marker != (wf <= started).then_some(1) {
                    return Err(format!(
                        "exactly-once: marker {wf}:{seq} reads {marker:?} with {started} chains started"
                    ));
                }
            }
        }
        // Conservation: chains move money along the account line, never mint.
        let (mut total, mut expected) = (0, 0);
        for key in self.accounts() {
            total += peek_sharded(sim, &h.participants, &h.map, &key).unwrap_or(self.start);
            expected += self.start;
        }
        if total != expected {
            return Err(format!(
                "conservation: balances sum to {total}, expected {expected}"
            ));
        }
        // No residue anywhere in the stack.
        for i in 0..h.workers.len() {
            let w = worker(i)?;
            if w.pending_intents() != 0 {
                return Err(format!(
                    "worker {i} still holds {} unresolved intents",
                    w.pending_intents()
                ));
            }
            if w.idem_entries() != 0 {
                return Err(format!(
                    "worker {i} retains {} idempotence entries past the watermark",
                    w.idem_entries()
                ));
            }
        }
        twopc_quiescent(sim, &h.participants, h.coordinator)
    }
}
