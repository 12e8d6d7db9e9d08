//! Executable taxonomy cells: every {programming model × transaction
//! mechanism} combination from Figure 1, deployed and driven with the
//! same money-transfer micro-workload so the combinations are directly
//! comparable. This powers experiment F1 (the figure regeneration) and
//! the E1/E3/E7 performance comparisons.
//!
//! The workload: `accounts` accounts with initial balance 1000; clients
//! repeatedly transfer 1 unit between two accounts (`hot_prob` biases the
//! source to account 0, the contention knob). Conservation of money is
//! the cross-cutting invariant.

use std::cell::Cell;
use std::rc::Rc;

use tca_messaging::rpc::RetryPolicy;
use tca_models::actor::{actor_state_registry, ActorId, ActorSilo, Directory, SiloConfig};
use tca_models::statefun::{spawn_shards, EntityId, StartOrchestration, StatefunApp};
use tca_sim::{Histogram, NodeId, Payload, ProcessId, Sim, SimDuration, SimRng, SimTime, SpanKind};
use tca_storage::{DbMsg, DbServer, DbServerConfig, Value};
use tca_txn::dataflow::{deploy_dataflow, DataflowConfig, DfShard};
use tca_txn::deterministic::{transfer_registry_from, SubmitTxn};
use tca_txn::saga::{SagaOrchestrator, StartSaga};
use tca_txn::twopc::{ParticipantConfig, StartDtx, TwoPcCoordinator, TwoPcParticipant};
use tca_txn::{bank_registry, transactional_bank_registry, transfer_plan, transfer_saga};
use tca_workloads::loadgen::{
    dtx_classifier, orchestration_classifier, saga_classifier, txn_classifier, ActorClosedLoop,
    ActorRequestFactory, ClosedLoopConfig, ClosedLoopGen, LoadSummary, RequestFactory,
    RequestRouter,
};

use crate::taxonomy::{ProgrammingModel, TxnMechanism};

/// Virtual-time budget for a cell run.
const BUDGET: SimDuration = SimDuration::from_secs(30);

/// Workload parameters for a cell run.
#[derive(Debug, Clone)]
pub struct CellParams {
    /// RNG seed.
    pub seed: u64,
    /// Number of accounts.
    pub accounts: u64,
    /// Concurrent logical clients.
    pub clients: usize,
    /// Transfers to issue in total.
    pub transfers: u64,
    /// Probability a transfer debits account 0 (contention knob).
    pub hot_prob: f64,
    /// Record causal spans during the run (fills [`CellReport::breakdown`]).
    pub trace: bool,
}

impl Default for CellParams {
    fn default() -> Self {
        CellParams {
            seed: 1,
            accounts: 64,
            clients: 8,
            transfers: 400,
            hot_prob: 0.0,
            trace: false,
        }
    }
}

/// Result of one cell run.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Which cell ran.
    pub label: String,
    /// Transfers that committed.
    pub committed: u64,
    /// Transfers that failed/aborted.
    pub failed: u64,
    /// Virtual seconds consumed until quiescence (≤ 30).
    pub sim_seconds: f64,
    /// Committed transfers per virtual second.
    pub throughput: f64,
    /// Median client-observed latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Whether total money was conserved (None = not auditable here).
    pub conserved: Option<bool>,
    /// Virtual-time latency attribution per span kind (empty unless the
    /// run was traced): one histogram of completed-span durations per
    /// [`SpanKind`] observed.
    pub breakdown: Vec<(SpanKind, Histogram)>,
}

fn account_key(i: u64) -> String {
    format!("acct/{i}")
}

fn pick_pair(rng: &mut SimRng, params: &CellParams) -> (u64, u64) {
    let from = if rng.chance(params.hot_prob) {
        0
    } else {
        rng.range(0, params.accounts)
    };
    let mut to = rng.range(0, params.accounts);
    if to == from {
        to = (to + 1) % params.accounts;
    }
    (from, to)
}

const INITIAL_BALANCE: i64 = 1000;

fn finish_report(label: &str, sim: &Sim, metric: &str, conserved: Option<bool>) -> CellReport {
    let load = LoadSummary::read(sim, metric);
    CellReport {
        label: label.to_owned(),
        committed: load.ok,
        failed: load.err,
        sim_seconds: load.seconds,
        throughput: load.throughput(),
        p50_ms: load.p50_ms.unwrap_or(0.0),
        p99_ms: load.p99_ms.unwrap_or(0.0),
        conserved,
        breakdown: sim.tracer().breakdown(),
    }
}

/// Build the cell's simulator, honouring the tracing knob.
fn cell_sim(params: &CellParams) -> Sim {
    let mut sim = Sim::with_seed(params.seed);
    if params.trace {
        sim.set_tracing(true);
    }
    sim
}

/// The closed loop every RPC cell runs: `params.clients` clients,
/// `params.transfers` requests, results under `cell`.
fn cell_loop(params: &CellParams) -> ClosedLoopConfig {
    ClosedLoopConfig {
        clients: params.clients,
        limit: Some(params.transfers),
        metric: "cell".into(),
        ..ClosedLoopConfig::default()
    }
}

/// The executable cells: every combination [`run_cell`] accepts, in
/// Figure 1 order.
pub const SUPPORTED: [(ProgrammingModel, TxnMechanism); 7] = [
    (ProgrammingModel::Microservices, TxnMechanism::Saga),
    (
        ProgrammingModel::Microservices,
        TxnMechanism::TwoPhaseCommit,
    ),
    (ProgrammingModel::VirtualActors, TxnMechanism::None),
    (
        ProgrammingModel::VirtualActors,
        TxnMechanism::ActorTransactions,
    ),
    (ProgrammingModel::StatefulFunctions, TxnMechanism::None),
    (
        ProgrammingModel::StatefulFunctions,
        TxnMechanism::EntityLocks,
    ),
    (
        ProgrammingModel::StatefulDataflow,
        TxnMechanism::DeterministicOrdering,
    ),
];

/// Run a taxonomy cell. Panics on combinations outside [`SUPPORTED`].
pub fn run_cell(
    model: ProgrammingModel,
    mechanism: TxnMechanism,
    params: &CellParams,
) -> CellReport {
    run_cell_inner(model, mechanism, params).0
}

/// Run a taxonomy cell with tracing forced on, returning the report
/// (with its [`CellReport::breakdown`] populated) and the recorded spans
/// exported as Chrome-trace JSON — load it at `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn run_cell_traced(
    model: ProgrammingModel,
    mechanism: TxnMechanism,
    params: &CellParams,
) -> (CellReport, String) {
    let mut traced = params.clone();
    traced.trace = true;
    let (report, sim) = run_cell_inner(model, mechanism, &traced);
    let json = sim.chrome_trace();
    (report, json)
}

fn run_cell_inner(
    model: ProgrammingModel,
    mechanism: TxnMechanism,
    params: &CellParams,
) -> (CellReport, Sim) {
    match (model, mechanism) {
        (ProgrammingModel::Microservices, TxnMechanism::Saga) => {
            let (report, sim, _) = run_saga_cell(params, None);
            (report, sim)
        }
        (ProgrammingModel::Microservices, TxnMechanism::TwoPhaseCommit) => run_2pc_cell(params),
        (ProgrammingModel::VirtualActors, TxnMechanism::None) => run_actor_cell(params, false),
        (ProgrammingModel::VirtualActors, TxnMechanism::ActorTransactions) => {
            run_actor_cell(params, true)
        }
        (ProgrammingModel::StatefulFunctions, TxnMechanism::EntityLocks) => {
            run_statefun_cell(params, true)
        }
        (ProgrammingModel::StatefulFunctions, TxnMechanism::None) => {
            run_statefun_cell(params, false)
        }
        (ProgrammingModel::StatefulDataflow, TxnMechanism::DeterministicOrdering) => {
            run_deterministic_cell(params)
        }
        (model, mechanism) => panic!("unsupported cell {model} × {mechanism}"),
    }
}

// --- microservices + saga --------------------------------------------------

fn seed_accounts(sim: &mut Sim, db: ProcessId, params: &CellParams) {
    let pairs: Vec<(String, Value)> = (0..params.accounts)
        .map(|i| (account_key(i), Value::Int(INITIAL_BALANCE)))
        .collect();
    sim.inject(db, Payload::new(DbMsg::load(pairs)));
}

/// Money on the ledger of `db` minus what [`seed_accounts`] put there.
fn db_drift(sim: &Sim, db: ProcessId, params: &CellParams) -> Option<i64> {
    let server = sim.inspect::<DbServer>(db)?;
    let sum: i64 = (0..params.accounts)
        .filter_map(|i| server.engine().peek(&account_key(i)))
        .map(|v| v.as_int())
        .sum();
    Some(sum - params.accounts as i64 * INITIAL_BALANCE)
}

/// The saga cell with the orchestrator's node down from `outage.0` to
/// `outage.1`: sagas in flight at the crash resume from the durable
/// journal. Returns the report and the ledger's balance drift (0 =
/// conserved; `None` if the database cannot be inspected). Powers E8.
pub fn run_saga_cell_with_outage(
    params: &CellParams,
    outage: (SimTime, SimTime),
) -> (CellReport, Option<i64>) {
    let (report, _, drift) = run_saga_cell(params, Some(outage));
    (report, drift)
}

fn run_saga_cell(
    params: &CellParams,
    outage: Option<(SimTime, SimTime)>,
) -> (CellReport, Sim, Option<i64>) {
    let mut sim = cell_sim(params);
    let n1 = sim.add_node();
    let n2 = sim.add_node();
    let n3 = sim.add_node();
    // One database holds all accounts (debit/credit are still separate
    // saga steps with compensation, as in a split deployment).
    let db = sim.spawn(
        n1,
        "bank-db",
        DbServer::factory("bank", DbServerConfig::default(), bank_registry()),
    );
    seed_accounts(&mut sim, db, params);
    let orchestrator = sim.spawn(
        n2,
        "saga",
        SagaOrchestrator::factory(vec![transfer_saga(db)]),
    );
    let p = params.clone();
    let factory: RequestFactory = Rc::new(move |rng| {
        let (from, to) = pick_pair(rng, &p);
        Payload::new(StartSaga {
            saga: "transfer".into(),
            args: vec![
                Value::Str(account_key(from)),
                Value::Str(account_key(to)),
                Value::Int(1),
            ],
        })
    });
    sim.spawn(
        n3,
        "load",
        ClosedLoopGen::factory(orchestrator, factory, saga_classifier(), cell_loop(params)),
    );
    if let Some((crash, restart)) = outage {
        sim.schedule_crash(crash, n2);
        sim.schedule_restart(restart, n2);
    }
    sim.run_for(BUDGET);
    let drift = db_drift(&sim, db, params);
    let conserved = drift.map(|d| d == 0);
    (
        finish_report("microservices+saga", &sim, "cell", conserved),
        sim,
        drift,
    )
}

// --- microservices + 2pc -----------------------------------------------------

fn run_2pc_cell(params: &CellParams) -> (CellReport, Sim) {
    let mut sim = cell_sim(params);
    let n1 = sim.add_node();
    let n2 = sim.add_node();
    let n3 = sim.add_node();
    let n4 = sim.add_node();
    // Accounts split across two participants by parity.
    let seed_for = |parity: u64, params: &CellParams| -> Vec<(String, Value)> {
        (0..params.accounts)
            .filter(|i| i % 2 == parity)
            .map(|i| (account_key(i), Value::Int(INITIAL_BALANCE)))
            .collect()
    };
    let pa = sim.spawn(
        n1,
        "bank-a",
        TwoPcParticipant::factory_seeded(
            "pa",
            ParticipantConfig::default(),
            bank_registry(),
            seed_for(0, params),
        ),
    );
    let pb = sim.spawn(
        n2,
        "bank-b",
        TwoPcParticipant::factory_seeded(
            "pb",
            ParticipantConfig::default(),
            bank_registry(),
            seed_for(1, params),
        ),
    );
    let coordinator = sim.spawn(n3, "coordinator", TwoPcCoordinator::factory());
    let p = params.clone();
    let factory: RequestFactory = Rc::new(move |rng| {
        let (from, to) = pick_pair(rng, &p);
        let part_of = |i: u64| if i.is_multiple_of(2) { pa } else { pb };
        Payload::new(StartDtx {
            branches: vec![
                (
                    part_of(from),
                    "debit".into(),
                    vec![Value::Str(account_key(from)), Value::Int(1)],
                ),
                (
                    part_of(to),
                    "credit".into(),
                    vec![Value::Str(account_key(to)), Value::Int(1)],
                ),
            ],
        })
    });
    sim.spawn(
        n4,
        "load",
        ClosedLoopGen::factory(
            coordinator,
            factory,
            dtx_classifier(),
            ClosedLoopConfig {
                retry: RetryPolicy::at_most_once(SimDuration::from_secs(20)),
                ..cell_loop(params)
            },
        ),
    );
    sim.run_for(BUDGET);
    // Conservation audit, via the participant engines: every account was
    // seeded with `INITIAL_BALANCE` on first boot and a transfer moves 1
    // from one to another, so the balances still sum to the seed total
    // iff every debit committed together with its credit.
    let conserved = {
        let sum = |pid: ProcessId| -> Option<i64> {
            let participant = sim.inspect::<TwoPcParticipant>(pid)?;
            let mut sum = 0;
            for i in 0..params.accounts {
                if let Some(Value::Int(v)) = participant.engine().peek(&account_key(i)) {
                    sum += v;
                }
            }
            Some(sum)
        };
        match (sum(pa), sum(pb)) {
            (Some(a), Some(b)) => Some(a + b == params.accounts as i64 * INITIAL_BALANCE),
            _ => None,
        }
    };
    (
        finish_report("microservices+2pc", &sim, "cell", conserved),
        sim,
    )
}

// --- actors ------------------------------------------------------------------

/// The actor deployment of both actor cells and of E12: a directory, a
/// state database and two persistent silos of transactional bank accounts
/// (opening balance 1000), each process on a node of its own.
/// Returns the directory and the two silo nodes.
pub fn deploy_actor_bank(sim: &mut Sim) -> (ProcessId, [NodeId; 2]) {
    let nd = sim.add_node();
    let ndb = sim.add_node();
    let silo_nodes = [sim.add_node(), sim.add_node()];
    let directory = sim.spawn(nd, "dir", Directory::factory());
    let db = sim.spawn(
        ndb,
        "state-db",
        DbServer::factory("statedb", DbServerConfig::default(), actor_state_registry()),
    );
    for (i, node) in silo_nodes.into_iter().enumerate() {
        sim.spawn(
            node,
            format!("silo{i}"),
            ActorSilo::factory(
                transactional_bank_registry(INITIAL_BALANCE),
                SiloConfig::persistent(directory, db),
            ),
        );
    }
    (directory, silo_nodes)
}

/// Transfers over actors: plain (debit, then credit — no atomicity) or
/// transactional (one `run` on a fresh `txncoord` actor).
fn run_actor_cell(params: &CellParams, transactional: bool) -> (CellReport, Sim) {
    let mut sim = cell_sim(params);
    let (directory, _) = deploy_actor_bank(&mut sim);
    let nc = sim.add_node();
    let p = params.clone();
    let issued = Cell::new(0u64);
    let request: ActorRequestFactory = Rc::new(move |rng| {
        let (from, to) = pick_pair(rng, &p);
        if transactional {
            issued.set(issued.get() + 1);
            let txid = format!("tx{}", issued.get());
            let plan = transfer_plan(&txid, &from.to_string(), &to.to_string(), 1);
            vec![(ActorId::new("txncoord", txid), "run".into(), plan)]
        } else {
            let leg = |account: u64, method: &str| {
                (
                    ActorId::new("account", account.to_string()),
                    method.to_owned(),
                    vec![Value::Int(1)],
                )
            };
            vec![leg(from, "debit"), leg(to, "credit")]
        }
    });
    sim.spawn(
        nc,
        "driver",
        ActorClosedLoop::factory(directory, request, params.clients, params.transfers, "cell"),
    );
    sim.run_for(BUDGET);
    let label = if transactional {
        "actors+txn"
    } else {
        "actors+none"
    };
    (finish_report(label, &sim, "cell", None), sim)
}

// --- stateful functions --------------------------------------------------------

fn statefun_bank_app(locked: bool) -> StatefunApp {
    let app = StatefunApp::new().entity(
        "account",
        |state, op, args| {
            let balance = state.as_int();
            match op {
                "debit" => {
                    let amount = args[0].as_int();
                    if balance < amount {
                        Err("insufficient".into())
                    } else {
                        *state = Value::Int(balance - amount);
                        Ok(vec![state.clone()])
                    }
                }
                "credit" => {
                    *state = Value::Int(balance + args[0].as_int());
                    Ok(vec![state.clone()])
                }
                "read" => Ok(vec![state.clone()]),
                _ => Err(format!("unknown op {op}")),
            }
        },
        |_| Value::Int(INITIAL_BALANCE),
    );
    if locked {
        app.orchestrator("transfer", |ctx| {
            let from = ctx.input()[0].as_str().to_owned();
            let to = ctx.input()[1].as_str().to_owned();
            let amount = ctx.input()[2].as_int();
            let a = EntityId::new("account", from);
            let b = EntityId::new("account", to);
            ctx.acquire_locks(vec![a.clone(), b.clone()])?;
            let debit = ctx.call_entity(a, "debit", vec![Value::Int(amount)])?;
            if let Err(e) = debit {
                return Some(Err(e));
            }
            let credit = ctx.call_entity(b, "credit", vec![Value::Int(amount)])?;
            Some(credit)
        })
    } else {
        app.orchestrator("transfer", |ctx| {
            let from = ctx.input()[0].as_str().to_owned();
            let to = ctx.input()[1].as_str().to_owned();
            let amount = ctx.input()[2].as_int();
            let debit = ctx.call_entity(
                EntityId::new("account", from),
                "debit",
                vec![Value::Int(amount)],
            )?;
            if let Err(e) = debit {
                return Some(Err(e));
            }
            let credit = ctx.call_entity(
                EntityId::new("account", to),
                "credit",
                vec![Value::Int(amount)],
            )?;
            Some(credit)
        })
    }
}

fn run_statefun_cell(params: &CellParams, locked: bool) -> (CellReport, Sim) {
    let mut sim = cell_sim(params);
    let nodes = sim.add_nodes(2);
    let shards = spawn_shards(&mut sim, &nodes, &statefun_bank_app(locked), 2);
    let nc = sim.add_node();
    let p = params.clone();
    let issued = Cell::new(0u64);
    // An orchestration lives on the shard owning its instance key.
    let route: RequestRouter = Rc::new(move |rng| {
        let (from, to) = pick_pair(rng, &p);
        issued.set(issued.get() + 1);
        StartOrchestration {
            name: "transfer".into(),
            instance: format!("t{}", issued.get()),
            input: vec![
                Value::Str(from.to_string()),
                Value::Str(to.to_string()),
                Value::Int(1),
            ],
        }
        .route(&shards)
    });
    sim.spawn(
        nc,
        "driver",
        ClosedLoopGen::routed(
            route,
            orchestration_classifier(),
            ClosedLoopConfig {
                retry: RetryPolicy::retrying(6, SimDuration::from_millis(50)),
                ..cell_loop(params)
            },
        ),
    );
    sim.run_for(BUDGET);
    let label = if locked {
        "statefun+locks"
    } else {
        "statefun+none"
    };
    (finish_report(label, &sim, "cell", None), sim)
}

// --- deterministic dataflow ------------------------------------------------------

fn run_deterministic_cell(params: &CellParams) -> (CellReport, Sim) {
    let mut sim = cell_sim(params);
    let nodes = sim.add_nodes(3);
    let (sequencer, shards) = deploy_dataflow(
        &mut sim,
        nodes[0],
        &nodes,
        &transfer_registry_from(INITIAL_BALANCE),
        3,
        DataflowConfig::default(),
    );
    let nc = sim.add_node();
    let p = params.clone();
    let factory: RequestFactory = Rc::new(move |rng| {
        let (from, to) = pick_pair(rng, &p);
        let from_key = account_key(from);
        let to_key = account_key(to);
        Payload::new(SubmitTxn {
            proc: "transfer".into(),
            args: vec![
                Value::Str(from_key.clone()),
                Value::Str(to_key.clone()),
                Value::Int(1),
            ],
            read_keys: vec![from_key, to_key],
        })
    });
    sim.spawn(
        nc,
        "load",
        ClosedLoopGen::factory(
            sequencer,
            factory,
            txn_classifier(),
            ClosedLoopConfig {
                retry: RetryPolicy::at_most_once(SimDuration::from_secs(20)),
                ..cell_loop(params)
            },
        ),
    );
    sim.run_for(BUDGET);
    // Only the ring owner of a key stores it, and only once written: sum
    // what every materialised balance moved from its starting value.
    let conserved = shards
        .iter()
        .map(|&pid| {
            let shard = sim.inspect::<DfShard>(pid)?;
            let moved = (0..params.accounts)
                .filter_map(|i| shard.peek(&account_key(i)))
                .map(|v| v.as_int() - INITIAL_BALANCE);
            Some(moved.sum::<i64>())
        })
        .sum::<Option<i64>>()
        .map(|delta| delta == 0);
    (
        finish_report("dataflow+deterministic", &sim, "cell", conserved),
        sim,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> CellParams {
        CellParams {
            transfers: 60,
            clients: 4,
            accounts: 32,
            ..CellParams::default()
        }
    }

    #[test]
    fn saga_cell_conserves_money() {
        let report = run_cell(
            ProgrammingModel::Microservices,
            TxnMechanism::Saga,
            &quick_params(),
        );
        assert_eq!(report.committed + report.failed, 60);
        assert!(report.committed > 0);
        assert_eq!(report.conserved, Some(true));
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn saga_cell_survives_an_orchestrator_outage() {
        // E8's row at the recorded seed: the crash must land on running
        // sagas (some resume from the journal) and the ledger must still
        // balance.
        let params = CellParams {
            seed: 42,
            transfers: 200,
            ..CellParams::default()
        };
        let outage = (
            SimTime::from_nanos(10_000_000),
            SimTime::from_nanos(20_000_000),
        );
        let (report, sim, drift) = run_saga_cell(&params, Some(outage));
        assert!(sim.metrics().counter("saga.resumed") > 0);
        assert_eq!(report.committed + report.failed, 200);
        assert_eq!(drift, Some(0));
    }

    #[test]
    fn two_pc_cell_runs() {
        let report = run_cell(
            ProgrammingModel::Microservices,
            TxnMechanism::TwoPhaseCommit,
            &quick_params(),
        );
        assert!(report.committed > 0, "{report:?}");
        assert_eq!(report.conserved, Some(true));
    }

    #[test]
    fn actor_cells_run_and_txn_is_slower() {
        let plain = run_cell(
            ProgrammingModel::VirtualActors,
            TxnMechanism::None,
            &quick_params(),
        );
        let txn = run_cell(
            ProgrammingModel::VirtualActors,
            TxnMechanism::ActorTransactions,
            &quick_params(),
        );
        assert!(plain.committed > 0);
        assert!(txn.committed > 0);
        // The paper's claim: transactions cost real throughput.
        assert!(
            txn.throughput < plain.throughput,
            "txn {:.0}/s !< plain {:.0}/s",
            txn.throughput,
            plain.throughput
        );
    }

    #[test]
    fn statefun_cell_runs() {
        let report = run_cell(
            ProgrammingModel::StatefulFunctions,
            TxnMechanism::EntityLocks,
            &quick_params(),
        );
        assert!(report.committed > 0, "{report:?}");
    }

    #[test]
    fn deterministic_cell_conserves() {
        let report = run_cell(
            ProgrammingModel::StatefulDataflow,
            TxnMechanism::DeterministicOrdering,
            &quick_params(),
        );
        assert!(report.committed > 0, "{report:?}");
        assert_eq!(report.conserved, Some(true));
    }

    #[test]
    fn deterministic_cell_leads_under_contention_without_aborts() {
        // EXPERIMENTS.md's E7 claim at its hottest row: ahead of 2PC,
        // which is ahead of actor transactions, with nothing refused.
        let params = CellParams {
            hot_prob: 0.9,
            transfers: 300,
            ..CellParams::default()
        };
        let run = |model, mechanism| run_cell(model, mechanism, &params);
        let det = run(
            ProgrammingModel::StatefulDataflow,
            TxnMechanism::DeterministicOrdering,
        );
        let twopc = run(
            ProgrammingModel::Microservices,
            TxnMechanism::TwoPhaseCommit,
        );
        let actor = run(
            ProgrammingModel::VirtualActors,
            TxnMechanism::ActorTransactions,
        );
        assert_eq!(det.failed, 0, "{det:?}");
        assert_eq!(det.conserved, Some(true));
        assert!(
            det.throughput > twopc.throughput && twopc.throughput > actor.throughput,
            "det {:.0}/s, 2pc {:.0}/s, actor-txn {:.0}/s",
            det.throughput,
            twopc.throughput,
            actor.throughput
        );
    }

    #[test]
    #[should_panic(expected = "unsupported cell")]
    fn unsupported_cell_panics() {
        run_cell(
            ProgrammingModel::StatefulDataflow,
            TxnMechanism::Saga,
            &quick_params(),
        );
    }
}
