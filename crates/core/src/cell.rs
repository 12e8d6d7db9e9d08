//! Executable taxonomy cells: every {programming model × transaction
//! mechanism} combination from Figure 1 that runs here, deployed and
//! driven with the same money-transfer micro-workload so the combinations
//! are directly comparable. A cell is one definition with four parts:
//!
//! - its deployment over [`CellParams::shards`] partitions, and the
//!   request closure a `workloads::loadgen` loop drives it with;
//! - the node its mechanism claims to survive losing: the service (no
//!   mechanism), the saga orchestrator, the 2PC coordinator, silo 0
//!   (actors), shard 0 (stateful functions), and the last dataflow shard's
//!   node, which hosts the sequencer only in a one-shard fleet;
//! - a ledger audit: the money on the final ledger minus the money
//!   seeded ([`CellReport::drift`]);
//! - the crash switch [`CellParams::crash`], which takes that node down
//!   from 10 ms to 20 ms of virtual time.
//!
//! F1 runs every cell with the switch off and E8 with it on: they are the
//! no-fault and crash columns of one consistency matrix. E20 runs the
//! transfer mechanisms over a contention sweep (whose default-fleet rows
//! E7 prints), a fleet-size sweep and longer epochs. E1, E3 and E16 run
//! single cells for performance comparisons.
//!
//! The workload: 64 accounts with initial balance 1000; 8 clients
//! repeatedly transfer 1 unit between two accounts (`hot_prob` biases the
//! source to account 0, the contention knob). Conservation of money is
//! the cross-cutting invariant.

use std::cell::Cell;
use std::rc::Rc;

use tca_messaging::rpc::RetryPolicy;
use tca_models::actor::{actor_state_registry, ActorId, ActorSilo, Directory, SiloConfig};
use tca_models::microservice::{Endpoint, Microservice, ServiceCall, Step};
use tca_models::statefun::{
    spawn_shards, EntityId, StartOrchestration, StatefunApp, StatefunShard,
};
use tca_sim::{
    DetHashMap, Histogram, NodeId, Payload, ProcessId, Sim, SimDuration, SimRng, SimTime, SpanKind,
};
use tca_storage::{DbMsg, DbServer, DbServerConfig, Pairs, Value};
use tca_txn::dataflow::{deploy_dataflow, DataflowConfig, DfShard};
use tca_txn::deterministic::{transfer_registry_from, SubmitTxn};
use tca_txn::saga::{SagaOrchestrator, StartSaga};
use tca_txn::twopc::{ParticipantConfig, StartDtx, TwoPcCoordinator, TwoPcParticipant};
use tca_txn::{bank_registry, transactional_bank_registry, transfer_plan, transfer_saga};
use tca_workloads::loadgen::{
    dtx_classifier, orchestration_classifier, saga_classifier, service_classifier, txn_classifier,
    ActorClosedLoop, ActorRequestFactory, ClosedLoopConfig, ClosedLoopGen, LoadSummary,
    RequestFactory, RequestRouter,
};

use crate::taxonomy::{ProgrammingModel, TxnMechanism};

/// Virtual-time budget for a cell run.
const BUDGET: SimDuration = SimDuration::from_secs(30);

/// Metric prefix of every cell's load loop.
const METRIC: &str = "cell";

/// Workload parameters for a cell run.
#[derive(Debug, Clone)]
pub struct CellParams {
    /// RNG seed.
    pub seed: u64,
    /// Transfers to issue in total.
    pub transfers: u64,
    /// Probability a transfer debits account 0 (contention knob).
    pub hot_prob: f64,
    /// How many partitions hold the cell's state: 2PC participants,
    /// persistent actor silos, statefun shards or dataflow shards, each on
    /// a node of its own. The two microservice cells keep their one
    /// database.
    pub shards: usize,
    /// The dataflow cell's epoch interval, its latency floor.
    pub epoch: SimDuration,
    /// Record causal spans during the run (fills [`CellReport::breakdown`]).
    pub trace: bool,
    /// Crash the node the cell's mechanism claims to survive losing, and
    /// restart it 10 ms later (E8 on, F1 off).
    pub crash: bool,
}

impl Default for CellParams {
    fn default() -> Self {
        CellParams {
            seed: 1,
            transfers: 400,
            hot_prob: 0.0,
            shards: 2,
            epoch: DataflowConfig::default().epoch_interval,
            trace: false,
            crash: false,
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
    /// Money on the final ledger minus the money seeded. It cannot show a
    /// transfer applied twice in full, which moves no money.
    pub drift: i64,
    /// Whether total money was conserved (`drift == 0`).
    pub conserved: bool,
    /// Virtual-time latency attribution per span kind (empty unless the
    /// run was traced): one histogram of completed-span durations per
    /// [`SpanKind`] observed.
    pub breakdown: Vec<(SpanKind, Histogram)>,
}

fn account_key(i: u64) -> String {
    format!("acct/{i}")
}

/// Accounts every cell holds.
const ACCOUNTS: u64 = 64;

fn pick_pair(rng: &mut SimRng, params: &CellParams) -> (u64, u64) {
    let from = if rng.chance(params.hot_prob) {
        0
    } else {
        rng.range(0, ACCOUNTS)
    };
    let mut to = rng.range(0, ACCOUNTS);
    if to == from {
        to = (to + 1) % ACCOUNTS;
    }
    (from, to)
}

/// `[from, to, 1]`: a transfer's arguments over [`account_key`]s.
fn transfer_args(from: u64, to: u64) -> Vec<Value> {
    vec![
        Value::Str(account_key(from)),
        Value::Str(account_key(to)),
        Value::Int(1),
    ]
}

const INITIAL_BALANCE: i64 = 1000;

/// Concurrent clients of every cell's load loop.
const CLIENTS: usize = 8;

/// The closed loop every RPC cell runs: [`CLIENTS`] clients,
/// `params.transfers` requests, results under [`METRIC`].
fn cell_loop(params: &CellParams) -> ClosedLoopConfig {
    ClosedLoopConfig {
        clients: CLIENTS,
        limit: Some(params.transfers),
        metric: METRIC.into(),
        ..ClosedLoopConfig::default()
    }
}

/// `pid` as a `T` once a run is over. Every cell process is up by then:
/// the crash switch restarts its node long before the budget ends.
fn up<T: 'static>(sim: &Sim, pid: ProcessId) -> &T {
    sim.inspect(pid)
        .expect("every cell process is up when the run ends")
}

/// The ledger audit's sum: `balance(i)` reads account `i`, `None` when it
/// was never written and so still holds [`INITIAL_BALANCE`].
fn ledger_drift(balance: impl Fn(u64) -> Option<Value>) -> i64 {
    (0..ACCOUNTS)
        .map(|i| balance(i).map_or(INITIAL_BALANCE, |v| v.as_int()) - INITIAL_BALANCE)
        .sum()
}

/// A deployed cell, load loop spawned, ready to run.
struct Deployed {
    label: &'static str,
    /// The node the cell's mechanism claims to survive losing.
    survives: NodeId,
    /// The ledger audit: money on the ledger minus the money seeded.
    drift: Box<dyn Fn(&Sim) -> i64>,
}

/// The executable cells: every combination [`run_cell`] accepts, in
/// Figure 1 order. Of the mechanisms `taxonomy::profile` lists, only
/// `(StatefulDataflow, None)` has no cell.
pub const SUPPORTED: [(ProgrammingModel, TxnMechanism); 8] = [
    (ProgrammingModel::Microservices, TxnMechanism::None),
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

/// When [`CellParams::crash`] takes a cell's node down…
const CRASH_AT: SimTime = SimTime::from_nanos(10_000_000);
/// …and when it brings the node back.
const RESTART_AT: SimTime = SimTime::from_nanos(20_000_000);

fn run_cell_inner(
    model: ProgrammingModel,
    mechanism: TxnMechanism,
    params: &CellParams,
) -> (CellReport, Sim) {
    let mut sim = Sim::with_seed(params.seed);
    if params.trace {
        sim.set_tracing(true);
    }
    let cell = match (model, mechanism) {
        (ProgrammingModel::Microservices, TxnMechanism::None) => service_cell(&mut sim, params),
        (ProgrammingModel::Microservices, TxnMechanism::Saga) => saga_cell(&mut sim, params),
        (ProgrammingModel::Microservices, TxnMechanism::TwoPhaseCommit) => {
            twopc_cell(&mut sim, params)
        }
        (ProgrammingModel::VirtualActors, TxnMechanism::None) => {
            actor_cell(&mut sim, params, false)
        }
        (ProgrammingModel::VirtualActors, TxnMechanism::ActorTransactions) => {
            actor_cell(&mut sim, params, true)
        }
        (ProgrammingModel::StatefulFunctions, TxnMechanism::None) => {
            statefun_cell(&mut sim, params, false)
        }
        (ProgrammingModel::StatefulFunctions, TxnMechanism::EntityLocks) => {
            statefun_cell(&mut sim, params, true)
        }
        (ProgrammingModel::StatefulDataflow, TxnMechanism::DeterministicOrdering) => {
            dataflow_cell(&mut sim, params)
        }
        (model, mechanism) => panic!("unsupported cell {model} × {mechanism}"),
    };
    if params.crash {
        sim.schedule_crash(CRASH_AT, cell.survives);
        sim.schedule_restart(RESTART_AT, cell.survives);
    }
    sim.run_for(BUDGET);
    let drift = (cell.drift)(&sim);
    let load = LoadSummary::read(&sim, METRIC);
    let report = CellReport {
        label: cell.label.to_owned(),
        committed: load.ok,
        failed: load.err,
        sim_seconds: load.seconds,
        throughput: load.throughput(),
        p50_ms: load.p50_ms.unwrap_or(0.0),
        p99_ms: load.p99_ms.unwrap_or(0.0),
        drift,
        conserved: drift == 0,
        breakdown: sim.tracer().breakdown(),
    };
    (report, sim)
}

// --- microservices: no mechanism, saga ---------------------------------------

/// The accounts `keep` selects, each at [`INITIAL_BALANCE`].
fn opening_ledger(keep: impl Fn(u64) -> bool) -> Pairs {
    (0..ACCOUNTS)
        .filter(|&i| keep(i))
        .map(|i| (account_key(i), Value::Int(INITIAL_BALANCE)))
        .collect()
}

/// Money on the ledger of `db` minus what [`bank_db`] seeded.
fn db_drift(sim: &Sim, db: ProcessId) -> i64 {
    let server = up::<DbServer>(sim, db);
    ledger_drift(|i| server.engine().peek(&account_key(i)))
}

/// A bank database on a node of its own, seeded. Debit and credit are
/// separate stored procedures, as in a split deployment.
fn bank_db(sim: &mut Sim) -> ProcessId {
    let node = sim.add_node();
    let db = sim.spawn(
        node,
        "bank-db",
        DbServer::factory("bank", DbServerConfig::default(), bank_registry()),
    );
    sim.inject(db, Payload::new(DbMsg::load(opening_ledger(|_| true))));
    db
}

/// A stateless service running a transfer as two independent database
/// steps, debit then credit: nothing makes the pair atomic.
fn service_cell(sim: &mut Sim, params: &CellParams) -> Deployed {
    let db = bank_db(sim);
    let n_svc = sim.add_node();
    let n_load = sim.add_node();
    let leg = |proc: &str, account: &'static str| {
        Step::db(
            db,
            proc,
            move |v| vec![v.get(account).clone(), v.get("$2").clone()],
            None,
        )
    };
    let mut endpoints = DetHashMap::default();
    endpoints.insert(
        "transfer".to_owned(),
        Endpoint::new(vec![leg("debit", "$0"), leg("credit", "$1")], vec![]),
    );
    let service = sim.spawn(
        n_svc,
        "transfer-svc",
        Microservice::factory("transfer", endpoints),
    );
    let p = params.clone();
    let factory: RequestFactory = Rc::new(move |rng| {
        let (from, to) = pick_pair(rng, &p);
        Payload::new(ServiceCall {
            endpoint: "transfer".into(),
            args: transfer_args(from, to),
        })
    });
    // A naive client: a request lost with the service times out and is not
    // retried, so a transfer cut between its steps stays cut.
    sim.spawn(
        n_load,
        "load",
        ClosedLoopGen::factory(
            service,
            factory,
            service_classifier(),
            ClosedLoopConfig {
                retry: RetryPolicy::at_most_once(SimDuration::from_millis(50)),
                ..cell_loop(params)
            },
        ),
    );
    Deployed {
        label: "microservices+none",
        survives: n_svc,
        drift: Box::new(move |sim| db_drift(sim, db)),
    }
}

/// Transfers as sagas: debit, then a credit whose failure compensates the
/// debit; the orchestrator journals every step and resumes after a crash.
fn saga_cell(sim: &mut Sim, params: &CellParams) -> Deployed {
    let db = bank_db(sim);
    let n_orch = sim.add_node();
    let n_load = sim.add_node();
    let orchestrator = sim.spawn(
        n_orch,
        "saga",
        SagaOrchestrator::factory(vec![transfer_saga(db)]),
    );
    let p = params.clone();
    let factory: RequestFactory = Rc::new(move |rng| {
        let (from, to) = pick_pair(rng, &p);
        Payload::new(StartSaga {
            saga: "transfer".into(),
            args: transfer_args(from, to),
        })
    });
    sim.spawn(
        n_load,
        "load",
        ClosedLoopGen::factory(orchestrator, factory, saga_classifier(), cell_loop(params)),
    );
    Deployed {
        label: "microservices+saga",
        survives: n_orch,
        drift: Box::new(move |sim| db_drift(sim, db)),
    }
}

// --- microservices + 2pc -----------------------------------------------------

fn twopc_cell(sim: &mut Sim, params: &CellParams) -> Deployed {
    let shards = params.shards;
    assert!(shards <= 26, "2PC participants are lettered a to z");
    let nodes = sim.add_nodes(shards);
    let n_coord = sim.add_node();
    let n_load = sim.add_node();
    // Account `i` lives on participant `i % shards`: `pa`, `pb`, ….
    let participants: Vec<ProcessId> = nodes
        .iter()
        .enumerate()
        .map(|(p, &node)| {
            let letter = char::from(b'a' + p as u8);
            sim.spawn(
                node,
                format!("bank-{letter}"),
                TwoPcParticipant::factory_seeded(
                    format!("p{letter}"),
                    ParticipantConfig::default(),
                    bank_registry(),
                    opening_ledger(|i| i as usize % shards == p),
                ),
            )
        })
        .collect();
    let part_of = move |i: u64| participants[i as usize % shards];
    let coordinator = sim.spawn(n_coord, "coordinator", TwoPcCoordinator::factory());
    let p = params.clone();
    let route = part_of.clone();
    let factory: RequestFactory = Rc::new(move |rng| {
        let (from, to) = pick_pair(rng, &p);
        Payload::new(StartDtx {
            branches: vec![
                (
                    route(from),
                    "debit".into(),
                    vec![Value::Str(account_key(from)), Value::Int(1)],
                ),
                (
                    route(to),
                    "credit".into(),
                    vec![Value::Str(account_key(to)), Value::Int(1)],
                ),
            ],
        })
    });
    sim.spawn(
        n_load,
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
    Deployed {
        label: "microservices+2pc",
        survives: n_coord,
        drift: Box::new(move |sim| {
            ledger_drift(|i| {
                up::<TwoPcParticipant>(sim, part_of(i))
                    .engine()
                    .peek(&account_key(i))
            })
        }),
    }
}

// --- actors ------------------------------------------------------------------

/// The actor deployment of both actor cells and of E12: a directory, a
/// state database and `silos` persistent silos of transactional bank
/// accounts (opening balance 1000), each process on a node of its own.
/// Returns the directory, the state database and the silo nodes.
pub fn deploy_actor_bank(sim: &mut Sim, silos: usize) -> (ProcessId, ProcessId, Vec<NodeId>) {
    let nd = sim.add_node();
    let ndb = sim.add_node();
    let silo_nodes = sim.add_nodes(silos);
    let directory = sim.spawn(nd, "dir", Directory::factory());
    let db = sim.spawn(
        ndb,
        "state-db",
        DbServer::factory("statedb", DbServerConfig::default(), actor_state_registry()),
    );
    for (i, &node) in silo_nodes.iter().enumerate() {
        sim.spawn(
            node,
            format!("silo{i}"),
            ActorSilo::factory(
                transactional_bank_registry(INITIAL_BALANCE),
                SiloConfig::persistent(directory, db),
            ),
        );
    }
    (directory, db, silo_nodes)
}

/// Transfers over actors: plain (debit, then credit — no atomicity) or
/// transactional (one `run` on a fresh `txncoord` actor).
fn actor_cell(sim: &mut Sim, params: &CellParams, transactional: bool) -> Deployed {
    let (directory, db, silo_nodes) = deploy_actor_bank(sim, params.shards);
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
        ActorClosedLoop::factory(directory, request, CLIENTS, params.transfers, METRIC),
    );
    Deployed {
        label: if transactional {
            "actors+txn"
        } else {
            "actors+none"
        },
        survives: silo_nodes[0],
        // Silos write every account's state through to the state database.
        drift: Box::new(move |sim| {
            let server = up::<DbServer>(sim, db);
            ledger_drift(|i| {
                let account = ActorId::new("account", i.to_string());
                server.engine().peek(&ActorSilo::state_key(&account))
            })
        }),
    }
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

fn statefun_cell(sim: &mut Sim, params: &CellParams, locked: bool) -> Deployed {
    let nodes = sim.add_nodes(params.shards);
    let shards = spawn_shards(sim, &nodes, &statefun_bank_app(locked), params.shards);
    let nc = sim.add_node();
    let p = params.clone();
    let issued = Cell::new(0u64);
    let targets = shards.clone();
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
        .route(&targets)
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
    Deployed {
        label: if locked {
            "statefun+locks"
        } else {
            "statefun+none"
        },
        survives: nodes[0],
        // An entity materialises on its owning shard when first called.
        drift: Box::new(move |sim| {
            ledger_drift(|i| {
                let account = EntityId::new("account", i.to_string());
                shards
                    .iter()
                    .find_map(|&s| up::<StatefunShard>(sim, s).entity_state(&account))
            })
        }),
    }
}

// --- deterministic dataflow ------------------------------------------------------

fn dataflow_cell(sim: &mut Sim, params: &CellParams) -> Deployed {
    let nodes = sim.add_nodes(params.shards);
    // The sequencer shares nodes[0] with shard 0.
    let (sequencer, shards) = deploy_dataflow(
        sim,
        nodes[0],
        &nodes,
        &transfer_registry_from(INITIAL_BALANCE),
        params.shards,
        DataflowConfig {
            epoch_interval: params.epoch,
            ..DataflowConfig::default()
        },
    );
    let nc = sim.add_node();
    let p = params.clone();
    let factory: RequestFactory = Rc::new(move |rng| {
        let (from, to) = pick_pair(rng, &p);
        Payload::new(SubmitTxn {
            proc: "transfer".into(),
            args: transfer_args(from, to),
            read_keys: vec![account_key(from), account_key(to)],
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
    Deployed {
        label: "dataflow+deterministic",
        survives: nodes[nodes.len() - 1],
        // Only the ring owner of a key stores it, and only once written.
        drift: Box::new(move |sim| {
            ledger_drift(|i| {
                let key = account_key(i);
                shards
                    .iter()
                    .find_map(|&s| up::<DfShard>(sim, s).peek(&key).cloned())
            })
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::profile;

    fn quick_params() -> CellParams {
        CellParams {
            transfers: 60,
            ..CellParams::default()
        }
    }

    #[test]
    fn cells_are_the_profiled_mechanisms_but_dataflow_none_in_figure_order() {
        let profiled: Vec<(ProgrammingModel, TxnMechanism)> = ProgrammingModel::ALL
            .into_iter()
            .flat_map(|m| profile(m).mechanisms.into_iter().map(move |x| (m, x)))
            .collect();
        let (runnable, missing): (Vec<_>, Vec<_>) =
            profiled.into_iter().partition(|c| SUPPORTED.contains(c));
        assert_eq!(runnable, SUPPORTED);
        assert_eq!(
            missing,
            [(ProgrammingModel::StatefulDataflow, TxnMechanism::None)]
        );
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
        assert!(report.conserved);
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn crash_column_at_the_recorded_seed() {
        // E8's record: every mechanism that claims to survive losing its
        // node keeps the ledger whole through the crash, and two
        // independent steps behind a stateless service do not.
        let params = CellParams {
            seed: 42,
            transfers: 200,
            crash: true,
            ..CellParams::default()
        };
        for (model, mechanism) in SUPPORTED {
            let (report, sim) = run_cell_inner(model, mechanism, &params);
            match (model, mechanism) {
                (ProgrammingModel::Microservices, TxnMechanism::None) => {
                    assert!(report.drift < 0, "{report:?}");
                }
                (ProgrammingModel::VirtualActors, _) => {}
                _ => assert!(report.conserved, "{report:?}"),
            }
            if mechanism == TxnMechanism::Saga {
                // The crash lands on running sagas: some resume from the
                // journal.
                assert!(sim.metrics().counter("saga.resumed") > 0);
                assert_eq!(report.committed + report.failed, 200);
            }
        }
    }

    #[test]
    fn two_pc_cell_runs() {
        let report = run_cell(
            ProgrammingModel::Microservices,
            TxnMechanism::TwoPhaseCommit,
            &quick_params(),
        );
        assert!(report.committed > 0, "{report:?}");
        assert!(report.conserved);
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
        assert!(report.conserved);
    }

    #[test]
    fn partitioned_cells_conserve_at_both_fleet_extremes() {
        // E20's scale-out sweep runs from one partition to sixteen.
        for shards in [1, 16] {
            let params = CellParams {
                shards,
                hot_prob: 0.5,
                ..quick_params()
            };
            for (model, mechanism) in [
                (
                    ProgrammingModel::Microservices,
                    TxnMechanism::TwoPhaseCommit,
                ),
                (
                    ProgrammingModel::StatefulDataflow,
                    TxnMechanism::DeterministicOrdering,
                ),
                (
                    ProgrammingModel::VirtualActors,
                    TxnMechanism::ActorTransactions,
                ),
            ] {
                let report = run_cell(model, mechanism, &params);
                assert_eq!(report.committed + report.failed, 60, "{report:?}");
                assert!(report.committed > 0, "{report:?}");
                assert!(report.conserved, "{shards} shards: {report:?}");
            }
        }
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
        assert!(det.conserved);
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
