//! The experiment suite: one function per experiment in `DESIGN.md`.
//!
//! The paper is a tutorial with a single figure (the taxonomy) and no
//! result tables, so each experiment regenerates either the figure (F1)
//! or one of the paper's explicit comparative claims (E1–E21). Every
//! function is deterministic given its seed and returns the rows it
//! prints, so `EXPERIMENTS.md` can quote them verbatim.

use std::cell::Cell;
use std::rc::Rc;

use tca_core::cell::{
    deploy_actor_bank, run_cell, run_cell_traced, CellParams, CellReport, SUPPORTED,
};
use tca_core::taxonomy::{render_matrix, ProgrammingModel, TxnMechanism};
use tca_messaging::delivery::{DedupReceiver, DeliveryGuarantee, ReliableSender};
use tca_messaging::rpc::RetryPolicy;
use tca_models::dataflow::{deploy, Event, JobBuilder, JobManagerConfig, SinkMode};
use tca_models::microservice::{Endpoint, Microservice, ServiceCall, Step};
use tca_models::statefun::{spawn_shards, EntityId, StartOrchestration, StatefunApp};
use tca_sim::DetHashMap as HashMap;
use tca_sim::{
    Ctx, NetworkConfig, Payload, Process, ProcessId, Sim, SimConfig, SimDuration, SimTime,
};
use tca_storage::{
    deploy_sharded_db, CacheConfig, DbMsg, DbReply, DbRequest, DbResponse, DbServer,
    DbServerConfig, IsolationLevel, ProcRegistry, TtlCache, Value,
};
use tca_txn::bank_registry_from;
use tca_txn::causal::{CausalMailbox, CausalMessage, VectorClock};
use tca_workloads::loadgen::{
    db_classifier, dtx_classifier, orchestration_classifier, service_classifier, ClosedLoopConfig,
    ClosedLoopGen, KeyChooser, LoadSummary, RequestFactory, RequestRouter,
};
use tca_workloads::overload::{OverloadConfig, OverloadGen, OverloadPhase};
use tca_workloads::rmw::{RmwClient, RmwConfig};
use tca_workloads::{tpcc, ycsb};

/// One printed row of an experiment.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (parameter point).
    pub label: String,
    /// Column name → value.
    pub values: Vec<(String, String)>,
}

impl Row {
    fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            values: Vec::new(),
        }
    }
    fn col(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        self.values.push((name.to_owned(), value.to_string()));
        self
    }
}

/// Print an experiment's rows as an aligned table.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    // Group consecutive rows sharing a column signature into sub-tables.
    let mut groups: Vec<&[Row]> = Vec::new();
    let mut start = 0;
    let signature = |r: &Row| -> Vec<String> { r.values.iter().map(|(n, _)| n.clone()).collect() };
    for i in 1..=rows.len() {
        if i == rows.len() || signature(&rows[i]) != signature(&rows[start]) {
            groups.push(&rows[start..i]);
            start = i;
        }
    }
    for group in groups {
        let mut header = vec!["".to_owned()];
        header.extend(group[0].values.iter().map(|(name, _)| name.clone()));
        let mut table: Vec<Vec<String>> = vec![header];
        for row in group {
            let mut line = vec![row.label.clone()];
            line.extend(row.values.iter().map(|(_, v)| v.clone()));
            table.push(line);
        }
        let columns = table.iter().map(Vec::len).max().unwrap_or(0);
        let widths: Vec<usize> = (0..columns)
            .map(|c| {
                table
                    .iter()
                    .map(|r| r.get(c).map_or(0, String::len))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for line in &table {
            let rendered: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect();
            println!("  {}", rendered.join("  ").trim_end());
        }
    }
}

fn ms(x: f64) -> String {
    format!("{x:.3}ms")
}

/// The standard closed-loop columns: ok / err / tput/s / p50 / p99.
fn load_row(label: &str, load: &LoadSummary) -> Row {
    Row::new(label)
        .col("ok", load.ok)
        .col("err", load.err)
        .col("tput/s", format!("{:.0}", load.throughput()))
        .col("p50", load.p50_ms.map_or("-".into(), ms))
        .col("p99", load.p99_ms.map_or("-".into(), ms))
}

// ---------------------------------------------------------------------------
// F1 — the taxonomy, rendered and executed
// ---------------------------------------------------------------------------

/// The consistency matrix: every executable cell on the same 200
/// transfers, without faults (F1) or with the crash of the node its
/// mechanism claims to survive (E8).
fn cell_matrix(seed: u64, crash: bool) -> impl Iterator<Item = CellReport> {
    let params = CellParams {
        seed,
        transfers: 200,
        crash,
        ..CellParams::default()
    };
    SUPPORTED
        .into_iter()
        .map(move |(model, mechanism)| run_cell(model, mechanism, &params))
}

/// A cell run as a row: outcomes, throughput, latency and the ledger audit.
fn report_row(label: impl Into<String>, report: &CellReport) -> Row {
    Row::new(label)
        .col("committed", report.committed)
        .col("failed", report.failed)
        .col("tput/s", format!("{:.0}", report.throughput))
        .col("p50", ms(report.p50_ms))
        .col("p99", ms(report.p99_ms))
        .col("conserved", report.conserved)
}

/// F1: print Figure 1 as a matrix and run every executable cell: the
/// matrix's no-fault column.
pub fn f1_taxonomy(seed: u64) -> Vec<Row> {
    println!("\n=== F1: taxonomy (Figure 1) ===\n{}", render_matrix());
    cell_matrix(seed, false)
        .map(|report| report_row(report.label.clone(), &report))
        .collect()
}

// ---------------------------------------------------------------------------
// E1 — actor transactions penalty
// ---------------------------------------------------------------------------

/// E1: plain actor calls vs the Transactions API, contention sweep.
pub fn e1_actor_txn_penalty(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for hot in [0.0, 0.5, 0.9] {
        let params = CellParams {
            seed,
            hot_prob: hot,
            transfers: 300,
            ..CellParams::default()
        };
        let plain = run_cell(ProgrammingModel::VirtualActors, TxnMechanism::None, &params);
        let txn = run_cell(
            ProgrammingModel::VirtualActors,
            TxnMechanism::ActorTransactions,
            &params,
        );
        rows.push(
            Row::new(format!("hot={hot:.1}"))
                .col("plain tput/s", format!("{:.0}", plain.throughput))
                .col("txn tput/s", format!("{:.0}", txn.throughput))
                .col(
                    "penalty",
                    format!("{:.2}x", plain.throughput / txn.throughput.max(1e-9)),
                )
                .col("txn aborts", txn.failed),
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// E2 — delivery guarantees
// ---------------------------------------------------------------------------

struct CounterApp {
    receiver: DedupReceiver,
}
impl Process for CounterApp {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if self.receiver.accept(ctx, from, &payload).is_some() {
            ctx.metrics().incr("e2.applied", 1);
        }
    }
}

struct CounterProducer {
    dest: ProcessId,
    sender: ReliableSender,
    remaining: u32,
}
impl Process for CounterProducer {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_micros(200), 1);
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        self.sender.on_message(ctx, &payload);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if self.sender.on_timer(ctx, tag) {
            return;
        }
        if self.remaining > 0 {
            self.remaining -= 1;
            self.sender.send(ctx, self.dest, Payload::new(1u64));
            ctx.metrics().incr("e2.sent", 1);
            ctx.set_timer(SimDuration::from_micros(200), 1);
        }
    }
}

/// E2: cost & correctness of delivery guarantees under loss/duplication.
pub fn e2_delivery_guarantees(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for drop in [0.0, 0.05, 0.10, 0.20] {
        for guarantee in [
            DeliveryGuarantee::AtMostOnce,
            DeliveryGuarantee::AtLeastOnce,
            DeliveryGuarantee::ExactlyOnce,
        ] {
            let mut sim = Sim::new(SimConfig {
                seed,
                network: NetworkConfig::lossy(drop, 0.02),
            });
            let n0 = sim.add_node();
            let n1 = sim.add_node();
            let app = sim.spawn(n1, "counter", move |_| {
                Box::new(CounterApp {
                    receiver: DedupReceiver::new(guarantee, 1 << 16),
                })
            });
            sim.spawn(n0, "producer", move |_| {
                Box::new(CounterProducer {
                    dest: app,
                    sender: ReliableSender::new(guarantee, SimDuration::from_millis(2), 20),
                    remaining: 500,
                })
            });
            sim.run_for(SimDuration::from_secs(10));
            let sent = sim.metrics().counter("e2.sent");
            let applied = sim.metrics().counter("e2.applied");
            rows.push(
                Row::new(format!("drop={:.0}% {guarantee}", drop * 100.0))
                    .col("sent", sent)
                    .col("applied", applied)
                    .col("lost", sent.saturating_sub(applied))
                    .col("dup-applied", applied.saturating_sub(sent))
                    .col("net msgs", sim.metrics().counter("net.sent")),
            );
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E3 — saga vs 2PC, and 2PC blocking on coordinator failure
// ---------------------------------------------------------------------------

/// E3: sagas vs 2PC — steady-state cost, then the in-doubt stall.
pub fn e3_saga_vs_2pc(seed: u64) -> Vec<Row> {
    let params = CellParams {
        seed,
        transfers: 300,
        ..CellParams::default()
    };
    let saga = run_cell(ProgrammingModel::Microservices, TxnMechanism::Saga, &params);
    let twopc = run_cell(
        ProgrammingModel::Microservices,
        TxnMechanism::TwoPhaseCommit,
        &params,
    );
    let mut rows = vec![
        Row::new("saga")
            .col("tput/s", format!("{:.0}", saga.throughput))
            .col("p50", ms(saga.p50_ms))
            .col("p99", ms(saga.p99_ms)),
        Row::new("2pc")
            .col("tput/s", format!("{:.0}", twopc.throughput))
            .col("p50", ms(twopc.p50_ms))
            .col("p99", ms(twopc.p99_ms)),
    ];
    // Blocking demonstration: crash the coordinator mid-protocol. The
    // prepared-but-undecided window is ~1 RTT wide, so we run several
    // trials with staggered crash instants and report the aggregate.
    {
        use tca_txn::twopc::{ParticipantConfig, StartDtx, TwoPcCoordinator, TwoPcParticipant};
        let mut blocked_trials = 0u64;
        let mut total_in_doubt = 0u64;
        let mut commits_during_outage = 0u64;
        let trials = 10u64;
        for trial in 0..trials {
            let mut sim = Sim::with_seed(seed + 1 + trial);
            let n1 = sim.add_node();
            let n2 = sim.add_node();
            let n3 = sim.add_node();
            let n4 = sim.add_node();
            let registry = || {
                ProcRegistry::new().with("touch", |tx, args| {
                    tx.put(args[0].as_str(), Value::Int(1));
                    Ok(vec![])
                })
            };
            let pa = sim.spawn(
                n1,
                "pa",
                TwoPcParticipant::factory("pa", ParticipantConfig::default(), registry()),
            );
            let pb = sim.spawn(
                n2,
                "pb",
                TwoPcParticipant::factory("pb", ParticipantConfig::default(), registry()),
            );
            let coordinator = sim.spawn(n3, "coord", TwoPcCoordinator::factory());
            let factory: RequestFactory = Rc::new(move |rng| {
                let k = rng.range(0, 4);
                Payload::new(StartDtx {
                    branches: vec![
                        (pa, "touch".into(), vec![Value::Str(format!("k{k}"))]),
                        (pb, "touch".into(), vec![Value::Str(format!("k{k}"))]),
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
                        clients: 4,
                        metric: "e3".into(),
                        retry: RetryPolicy::at_most_once(SimDuration::from_secs(5)),
                        ..ClosedLoopConfig::default()
                    },
                ),
            );
            // Stagger the crash instant across the protocol's phase space.
            let crash_ns = 50_000_000 + trial * 317_000;
            sim.schedule_crash(SimTime::from_nanos(crash_ns), n3);
            sim.run_until(SimTime::from_nanos(crash_ns));
            let commits_before = sim.metrics().counter("e3.ok");
            sim.run_for(SimDuration::from_millis(500));
            commits_during_outage += sim.metrics().counter("e3.ok") - commits_before;
            let in_doubt = sim.metrics().counter("pa.in_doubt_ticks")
                + sim.metrics().counter("pb.in_doubt_ticks");
            total_in_doubt += in_doubt;
            if in_doubt > 0 {
                blocked_trials += 1;
            }
        }
        rows.push(
            Row::new("2pc coordinator crash (10 trials)")
                .col("commits during outage", commits_during_outage)
                .col("trials with in-doubt branches", blocked_trials)
                .col("total in-doubt ticks", total_in_doubt),
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// E4 — shared DB vs DB-per-service (noisy neighbor)
// ---------------------------------------------------------------------------

/// E4: tail latency of a quiet service when a noisy neighbor shares (or
/// does not share) its database.
pub fn e4_shared_vs_per_service_db(seed: u64) -> Vec<Row> {
    let registry = || {
        ProcRegistry::new()
            .with("quiet", |tx, _| {
                Ok(vec![tx.get("q").unwrap_or(Value::Int(0))])
            })
            .with("noisy", |tx, _| {
                // Touch many keys: an expensive statement.
                for i in 0..32 {
                    let key = format!("n{i}");
                    let v = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
                    tx.put(&key, Value::Int(v + 1));
                }
                Ok(vec![])
            })
    };
    let run = |shared: bool| -> (f64, f64) {
        let mut sim = Sim::with_seed(seed);
        let n_db1 = sim.add_node();
        let n_db2 = sim.add_node();
        let n_load = sim.add_node();
        // The noisy proc's commit occupies the server longer.
        let slow_config = DbServerConfig {
            commit_latency: SimDuration::from_micros(400),
            ..DbServerConfig::default()
        };
        let db1 = sim.spawn(
            n_db1,
            "db1",
            DbServer::factory("db1", slow_config.clone(), registry()),
        );
        let quiet_db = if shared {
            db1
        } else {
            sim.spawn(
                n_db2,
                "db2",
                DbServer::factory("db2", slow_config, registry()),
            )
        };
        let quiet_factory: RequestFactory = Rc::new(|_| Payload::new(DbMsg::call("quiet", vec![])));
        let noisy_factory: RequestFactory = Rc::new(|_| Payload::new(DbMsg::call("noisy", vec![])));
        sim.spawn(
            n_load,
            "quiet-load",
            ClosedLoopGen::factory(
                quiet_db,
                quiet_factory,
                db_classifier(),
                ClosedLoopConfig {
                    clients: 2,
                    think_time: SimDuration::from_millis(1),
                    metric: "quiet".into(),
                    ..ClosedLoopConfig::default()
                },
            ),
        );
        sim.spawn(
            n_load,
            "noisy-load",
            ClosedLoopGen::factory(
                db1,
                noisy_factory,
                db_classifier(),
                ClosedLoopConfig {
                    clients: 16,
                    metric: "noisy".into(),
                    ..ClosedLoopConfig::default()
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(2));
        let hist = sim.metrics().histogram("quiet.latency").expect("quiet ran");
        (hist.p50().as_millis_f64(), hist.p99().as_millis_f64())
    };
    let (shared_p50, shared_p99) = run(true);
    let (split_p50, split_p99) = run(false);
    vec![
        Row::new("shared db")
            .col("quiet p50", ms(shared_p50))
            .col("quiet p99", ms(shared_p99)),
        Row::new("db-per-service")
            .col("quiet p50", ms(split_p50))
            .col("quiet p99", ms(split_p99)),
        Row::new("isolation benefit")
            .col(
                "quiet p50",
                format!("{:.1}x", shared_p50 / split_p50.max(1e-9)),
            )
            .col(
                "quiet p99",
                format!("{:.1}x", shared_p99 / split_p99.max(1e-9)),
            ),
    ]
}

// ---------------------------------------------------------------------------
// E5 — cache (embedded state) vs external DB: latency vs freshness
// ---------------------------------------------------------------------------

struct CachedReader {
    db: ProcessId,
    cache: Option<TtlCache>,
    reads_left: u32,
    pending_key: Option<String>,
    issued_at: SimTime,
}

const READ_TICK: u64 = 1;

impl CachedReader {
    fn read(&mut self, ctx: &mut Ctx) {
        if self.reads_left == 0 {
            return;
        }
        self.reads_left -= 1;
        let key = "catalog/0".to_owned();
        self.issued_at = ctx.now();
        let now = ctx.now();
        if let Some(cache) = &mut self.cache {
            if let Some((_value, version)) = cache.get_versioned(&key, now) {
                ctx.metrics().incr("e5.cache_hits", 1);
                ctx.metrics()
                    .record("e5.read_latency", SimDuration::from_nanos(500));
                ctx.metrics().incr("e5.read_version_sum", version);
                ctx.metrics().incr("e5.reads", 1);
                ctx.set_timer(SimDuration::from_micros(100), READ_TICK);
                return;
            }
        }
        self.pending_key = Some(key.clone());
        ctx.send(
            self.db,
            Payload::new(DbMsg {
                token: 1,
                req: DbRequest::Peek { key },
            }),
        );
    }
}

impl Process for CachedReader {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.read(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        let reply = payload.expect::<DbReply>();
        if let DbResponse::PeekOk { value } = &reply.resp {
            let version = value.as_ref().map(|v| v.as_int()).unwrap_or(0) as u64;
            let elapsed = ctx.now().since(self.issued_at);
            ctx.metrics().record("e5.read_latency", elapsed);
            ctx.metrics().incr("e5.read_version_sum", version);
            ctx.metrics().incr("e5.reads", 1);
            if let (Some(cache), Some(key)) = (&mut self.cache, self.pending_key.take()) {
                let now = ctx.now();
                cache.insert(&key, value.clone().unwrap_or(Value::Int(0)), version, now);
            }
            ctx.set_timer(SimDuration::from_micros(100), READ_TICK);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag == READ_TICK {
            self.read(ctx);
        }
    }
}

/// Writer that bumps the catalog version periodically.
struct CatalogWriter {
    db: ProcessId,
    version: i64,
}
impl Process for CatalogWriter {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_millis(2), 2);
    }
    fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
    fn on_timer(&mut self, ctx: &mut Ctx, _tag: u64) {
        self.version += 1;
        ctx.send(
            self.db,
            Payload::new(DbMsg::load(vec![(
                "catalog/0".into(),
                Value::Int(self.version),
            )])),
        );
        ctx.metrics().incr("e5.writes", 1);
        ctx.metrics().incr("e5.latest_version", 1);
        ctx.set_timer(SimDuration::from_millis(2), 2);
    }
}

/// E5: read latency and staleness with and without an embedded cache.
pub fn e5_cache_vs_external(seed: u64) -> Vec<Row> {
    let run = |cached: bool, ttl_ms: u64| -> Row {
        let mut sim = Sim::with_seed(seed);
        let n_db = sim.add_node();
        let n_app = sim.add_node();
        let db = sim.spawn(
            n_db,
            "db",
            DbServer::factory("db", DbServerConfig::default(), ProcRegistry::new()),
        );
        sim.inject(
            db,
            Payload::new(DbMsg::load(vec![("catalog/0".into(), Value::Int(0))])),
        );
        sim.spawn(n_app, "writer", move |_| {
            Box::new(CatalogWriter { db, version: 0 })
        });
        sim.spawn(n_app, "reader", move |_| {
            Box::new(CachedReader {
                db,
                cache: cached.then(|| {
                    TtlCache::new(CacheConfig {
                        capacity: 128,
                        ttl: SimDuration::from_millis(ttl_ms),
                    })
                }),
                reads_left: 2000,
                pending_key: None,
                issued_at: SimTime::ZERO,
            })
        });
        sim.run_for(SimDuration::from_secs(1));
        let reads = sim.metrics().counter("e5.reads").max(1);
        let hist = sim.metrics().histogram("e5.read_latency").expect("reads");
        let latest = sim.metrics().counter("e5.latest_version");
        let mean_version = sim.metrics().counter("e5.read_version_sum") as f64 / reads as f64;
        // Staleness proxy: how far behind the average read is, in writer
        // periods (2ms each).
        let staleness_ms = ((latest as f64 / 2.0) - mean_version / 2.0).max(0.0) * 2.0 * 2.0
            / latest.max(1) as f64
            * latest as f64
            / latest.max(1) as f64;
        let label = if cached {
            format!("cache ttl={ttl_ms}ms")
        } else {
            "direct db".into()
        };
        Row::new(label)
            .col("reads", reads)
            .col("mean latency", ms(hist.mean().as_millis_f64()))
            .col(
                "hit ratio",
                format!(
                    "{:.0}%",
                    100.0 * sim.metrics().counter("e5.cache_hits") as f64 / reads as f64
                ),
            )
            .col(
                "avg version lag",
                format!("{:.1}", latest as f64 - mean_version),
            )
            .col("staleness≈", ms(staleness_ms))
    };
    vec![run(false, 0), run(true, 1), run(true, 10), run(true, 50)]
}

// ---------------------------------------------------------------------------
// E6 — dataflow checkpoint interval trade-off
// ---------------------------------------------------------------------------

/// E6: checkpoint interval vs overhead and recovery duplicates.
pub fn e6_checkpoint_interval(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for interval_ms in [10u64, 50, 200] {
        let total = 24_000u64;
        let mut sim = Sim::with_seed(seed);
        let nodes = sim.add_nodes(3);
        let job = JobBuilder::new()
            .source(
                "gen",
                2,
                move |offset| {
                    (offset < total).then(|| Event {
                        key: format!("k{}", offset % 16),
                        value: Value::Int(1),
                        seq: offset,
                    })
                },
                8,
                SimDuration::from_micros(100),
            )
            .keyed(
                "count",
                3,
                |state, event| {
                    *state = Value::Int(state.as_int() + 1);
                    vec![event.clone()]
                },
                |_| Value::Int(0),
            )
            .sink("out", 2, SinkMode::AtLeastOnce, "e6.sunk");
        deploy(
            &mut sim,
            &nodes,
            &job,
            JobManagerConfig {
                checkpoint_interval: Some(SimDuration::from_millis(interval_ms)),
            },
        );
        // Crash mid-stream (the 24k-event stream takes ~150ms to emit):
        // short intervals have a recent checkpoint to resume from, long
        // intervals replay much more.
        sim.schedule_crash(SimTime::from_nanos(80_000_000), nodes[2]);
        sim.schedule_restart(SimTime::from_nanos(100_000_000), nodes[2]);
        sim.run_for(SimDuration::from_secs(10));
        let sunk = sim.metrics().counter("e6.sunk");
        rows.push(
            Row::new(format!("interval={interval_ms}ms"))
                .col("snapshots", sim.metrics().counter("dataflow.snapshots"))
                .col(
                    "checkpoints done",
                    sim.metrics().counter("dataflow.checkpoints_completed"),
                )
                .col("restores", sim.metrics().counter("dataflow.restores"))
                .col("sunk", sunk)
                .col("replay duplicates", sunk.saturating_sub(total)),
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// E7 — deterministic ordering vs 2PC vs actor-txn under contention
// ---------------------------------------------------------------------------

/// The contention sweep's hot levels: the probability that a transfer
/// debits account 0.
const HOT: [f64; 3] = [0.0, 0.5, 0.9];

/// The transfer mechanisms E7 and E20 compare, with their row labels.
const MECHANISMS: [(&str, ProgrammingModel, TxnMechanism); 4] = [
    (
        "dataflow",
        ProgrammingModel::StatefulDataflow,
        TxnMechanism::DeterministicOrdering,
    ),
    (
        "2pc",
        ProgrammingModel::Microservices,
        TxnMechanism::TwoPhaseCommit,
    ),
    ("saga", ProgrammingModel::Microservices, TxnMechanism::Saga),
    (
        "actor-txn",
        ProgrammingModel::VirtualActors,
        TxnMechanism::ActorTransactions,
    ),
];

/// 300 transfers at contention `hot` on the cells' default fleet.
fn transfers_at(seed: u64, hot: f64) -> CellParams {
    CellParams {
        seed,
        hot_prob: hot,
        transfers: 300,
        ..CellParams::default()
    }
}

/// The contention sweep E7 and E20 share: at each [`HOT`] level, one
/// report per entry of [`MECHANISMS`].
fn contention(seed: u64) -> [[CellReport; 4]; 3] {
    HOT.map(|hot| {
        let params = transfers_at(seed, hot);
        MECHANISMS.map(|(_, model, mechanism)| run_cell(model, mechanism, &params))
    })
}

/// E7: serializable mechanisms under a contention sweep: E20's
/// contention rows, as columns.
pub fn e7_serializable_mechanisms(seed: u64) -> Vec<Row> {
    HOT.into_iter()
        .zip(contention(seed))
        .map(|(hot, [det, twopc, _saga, actor])| {
            Row::new(format!("hot={hot:.1}"))
                .col("det tput/s", format!("{:.0}", det.throughput))
                .col("2pc tput/s", format!("{:.0}", twopc.throughput))
                .col("actor-txn tput/s", format!("{:.0}", actor.throughput))
                .col("det p50", ms(det.p50_ms))
                .col("2pc p50", ms(twopc.p50_ms))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// E8 — consistency after failures, per model
// ---------------------------------------------------------------------------

/// E8: crash-injection audit — does each cell keep the transfer
/// invariant when the node its mechanism claims to survive goes down?
/// The matrix's crash column.
pub fn e8_failure_consistency(seed: u64) -> Vec<Row> {
    cell_matrix(seed, true)
        .map(|report| {
            Row::new(report.label)
                .col("ok", report.committed)
                .col("err", report.failed)
                .col("balance drift", report.drift)
                .col("conserved", report.conserved)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// E9 — TPC-C mix
// ---------------------------------------------------------------------------

/// E9: TPC-C lite (NewOrder/Payment) throughput/latency, stored-procedure
/// vs service-fronted deployments, with the consistency check.
pub fn e9_tpcc(seed: u64) -> Vec<Row> {
    let scale = tpcc::TpccScale::default();
    let run = |via_service: bool| -> Row {
        let mut sim = Sim::with_seed(seed);
        let n_db = sim.add_node();
        let n_svc = sim.add_node();
        let n_load = sim.add_node();
        let db = sim.spawn(
            n_db,
            "tpcc-db",
            DbServer::factory("tpcc", DbServerConfig::default(), tpcc::registry()),
        );
        sim.inject(db, Payload::new(DbMsg::load(tpcc::seed(&scale))));
        let target = if via_service {
            let mut endpoints = HashMap::default();
            for proc in ["new_order", "payment"] {
                let proc_name = proc.to_owned();
                endpoints.insert(
                    proc.to_owned(),
                    Endpoint::new(
                        vec![Step::Db {
                            db,
                            proc: proc_name,
                            args: Rc::new(|v: &tca_models::microservice::Vars| {
                                // Pass through all $i args in order.
                                let mut args = Vec::new();
                                let mut i = 0;
                                while let Some(value) = v.try_get(&format!("${i}")) {
                                    args.push(value.clone());
                                    i += 1;
                                }
                                args
                            }),
                            bind: None,
                        }],
                        vec![],
                    ),
                );
            }
            sim.spawn(n_svc, "tpcc-svc", Microservice::factory("tpcc", endpoints))
        } else {
            db
        };
        let scale_for_gen = scale.clone();
        let factory: RequestFactory = Rc::new(move |rng| {
            let (proc, args) = tpcc::next_txn(rng, &scale_for_gen);
            if via_service {
                Payload::new(ServiceCall {
                    endpoint: proc,
                    args,
                })
            } else {
                Payload::new(DbMsg::call(proc, args))
            }
        });
        let classify = if via_service {
            service_classifier()
        } else {
            db_classifier()
        };
        sim.spawn(
            n_load,
            "load",
            ClosedLoopGen::factory(
                target,
                factory,
                classify,
                ClosedLoopConfig {
                    clients: 16,
                    limit: Some(1000),
                    metric: "e9".into(),
                    ..ClosedLoopConfig::default()
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(30));
        let consistent = {
            let server = sim.inspect::<DbServer>(db).expect("db");
            tpcc::check_consistency(|k| server.engine().peek(k), &scale).is_ok()
        };
        let load = LoadSummary::read(&sim, "e9");
        let label = if via_service {
            "tpcc via microservice"
        } else {
            "tpcc stored-proc"
        };
        Row::new(label)
            .col("ok", load.ok)
            .col("err", load.err)
            .col("tput/s", format!("{:.0}", load.throughput()))
            .col("p50", load.p50_ms.map_or("-".into(), ms))
            .col("consistent", consistent)
    };
    vec![run(false), run(true)]
}

// ---------------------------------------------------------------------------
// E10 — closed vs open loop
// ---------------------------------------------------------------------------

/// The unit of work E10 and E17 load a database with: bump one counter.
fn work_registry() -> ProcRegistry {
    ProcRegistry::new().with("work", |tx, _| {
        let v = tx.get("x").map(|v| v.as_int()).unwrap_or(0);
        tx.put("x", Value::Int(v + 1));
        Ok(vec![])
    })
}

fn work_request() -> RequestFactory {
    Rc::new(|_| Payload::new(DbMsg::call("work", vec![])))
}

/// E10: latency under closed-loop vs open-loop arrivals approaching and
/// beyond saturation.
pub fn e10_closed_vs_open(seed: u64) -> Vec<Row> {
    // Service: commit_latency 100µs → capacity ≈ 10k calls/s.
    let deploy = || {
        let mut sim = Sim::with_seed(seed);
        let n_db = sim.add_node();
        let n_load = sim.add_node();
        let db = sim.spawn(
            n_db,
            "db",
            DbServer::factory("db", DbServerConfig::default(), work_registry()),
        );
        (sim, n_load, db)
    };
    let row = |sim: &Sim, label: String, completed: &str| {
        let hist = sim.metrics().histogram("e10.latency").expect("ran");
        Row::new(label)
            .col("tput/s", sim.metrics().counter(completed))
            .col("p50", ms(hist.p50().as_millis_f64()))
            .col("p99", ms(hist.p99().as_millis_f64()))
    };
    let mut rows = Vec::new();
    // Closed loop: N clients.
    for clients in [4usize, 16, 64] {
        let (mut sim, n_load, db) = deploy();
        sim.spawn(
            n_load,
            "load",
            ClosedLoopGen::factory(
                db,
                work_request(),
                db_classifier(),
                ClosedLoopConfig {
                    clients,
                    metric: "e10".into(),
                    ..ClosedLoopConfig::default()
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(1));
        rows.push(row(&sim, format!("closed N={clients}"), "e10.ok"));
    }
    // Open loop: λ sweep around capacity — one phase, no deadline, a
    // single attempt per request (we measure queueing, not retries).
    for (label, interarrival_us) in [("0.5x", 200u64), ("0.9x", 111), ("1.2x", 83)] {
        let (mut sim, n_load, db) = deploy();
        sim.spawn(
            n_load,
            "load",
            OverloadGen::factory(
                db,
                work_request(),
                db_classifier(),
                OverloadConfig {
                    phases: vec![OverloadPhase::new(
                        SimDuration::from_secs(1),
                        SimDuration::from_micros(interarrival_us),
                    )],
                    metric: "e10".into(),
                    ..OverloadConfig::default()
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(1));
        rows.push(row(&sim, format!("open λ={label} capacity"), "e10.goodput"));
    }
    rows
}

// ---------------------------------------------------------------------------
// E11 — isolation anomalies
// ---------------------------------------------------------------------------

/// E11: over-selling at RC vs SI vs Serializable (Online Marketplace
/// stock-reservation pattern).
pub fn e11_isolation_anomalies(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for iso in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::Serializable,
    ] {
        let stock = 50i64;
        let clients = 6;
        let mut sim = Sim::with_seed(seed);
        let n_db = sim.add_node();
        let db = sim.spawn(
            n_db,
            "db",
            DbServer::factory("db", DbServerConfig::default(), ProcRegistry::new()),
        );
        sim.inject(
            db,
            Payload::new(DbMsg::load(vec![("stock".into(), Value::Int(stock))])),
        );
        for i in 0..clients {
            let node = sim.add_node();
            sim.spawn(
                node,
                format!("client{i}"),
                RmwClient::factory(RmwConfig {
                    db,
                    iso,
                    key: "stock".into(),
                    metric: format!("e11c{i}"),
                }),
            );
        }
        sim.run_for(SimDuration::from_secs(5));
        let sold: u64 = (0..clients)
            .map(|i| sim.metrics().counter(&format!("e11c{i}.sold")))
            .sum();
        let aborted: u64 = (0..clients)
            .map(|i| sim.metrics().counter(&format!("e11c{i}.aborted")))
            .sum();
        rows.push(
            Row::new(iso.to_string())
                .col("stock", stock)
                .col("sold", sold)
                .col("oversold", (sold as i64 - stock).max(0))
                .col("aborts", aborted),
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// E12 — actor migration
// ---------------------------------------------------------------------------

/// E12: availability gap and rerouting when a silo hosting a hot actor
/// crashes.
pub fn e12_actor_migration(seed: u64) -> Vec<Row> {
    use tca_models::actor::{ActorCompletion, ActorId, ActorRouter};
    struct HotCaller {
        router: ActorRouter,
        last_ok: SimTime,
        max_gap: SimDuration,
        next_tag: u64,
    }
    impl HotCaller {
        fn issue(&mut self, ctx: &mut Ctx) {
            self.next_tag += 1;
            self.router.invoke(
                ctx,
                ActorId::new("account", "hot"),
                "credit",
                vec![Value::Int(1)],
                self.next_tag,
            );
        }
        fn absorb(&mut self, ctx: &mut Ctx, completions: Vec<ActorCompletion>) {
            for completion in completions {
                if completion.result.is_ok() {
                    let gap = ctx.now().since(self.last_ok);
                    if gap > self.max_gap {
                        self.max_gap = gap;
                        ctx.metrics().incr("e12.max_gap_us", 0);
                    }
                    self.last_ok = ctx.now();
                    ctx.metrics().incr("e12.ok", 1);
                } else {
                    ctx.metrics().incr("e12.err", 1);
                }
                self.issue(ctx);
            }
        }
    }
    impl Process for HotCaller {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.last_ok = ctx.now();
            self.issue(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _f: ProcessId, payload: Payload) {
            let completions = self.router.on_message(ctx, &payload);
            self.absorb(ctx, completions);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            if let Some(completions) = self.router.on_timer(ctx, tag) {
                self.absorb(ctx, completions);
            }
        }
    }
    let mut sim = Sim::with_seed(seed);
    let (directory, _, silos) = deploy_actor_bank(&mut sim, 2);
    let (ns1, ns2) = (silos[0], silos[1]);
    let nc = sim.add_node();
    sim.spawn(nc, "caller", move |_| {
        Box::new(HotCaller {
            router: ActorRouter::new(directory),
            last_ok: SimTime::ZERO,
            max_gap: SimDuration::ZERO,
            next_tag: 0,
        })
    });
    // Crash both candidate silos one at a time; the actor migrates.
    sim.schedule_crash(SimTime::from_nanos(200_000_000), ns1);
    sim.schedule_restart(SimTime::from_nanos(400_000_000), ns1);
    sim.schedule_crash(SimTime::from_nanos(600_000_000), ns2);
    sim.schedule_restart(SimTime::from_nanos(800_000_000), ns2);
    sim.run_for(SimDuration::from_secs(2));
    vec![Row::new("hot actor under silo crashes")
        .col("ok calls", sim.metrics().counter("e12.ok"))
        .col("failed calls", sim.metrics().counter("e12.err"))
        .col("reroutes", sim.metrics().counter("actor.rerouted"))
        .col(
            "silos declared dead",
            sim.metrics().counter("dir.silo_declared_dead"),
        )]
}

// ---------------------------------------------------------------------------
// E13 — idempotency dedup burden
// ---------------------------------------------------------------------------

/// E13: receiver dedup under increasing duplication rates.
pub fn e13_dedup_burden(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for dup in [0.0, 0.05, 0.10, 0.20] {
        let mut sim = Sim::new(SimConfig {
            seed,
            network: NetworkConfig::lossy(0.0, dup),
        });
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let app = sim.spawn(n1, "counter", move |_| {
            Box::new(CounterApp {
                receiver: DedupReceiver::new(DeliveryGuarantee::ExactlyOnce, 1 << 16),
            })
        });
        sim.spawn(n0, "producer", move |_| {
            Box::new(CounterProducer {
                dest: app,
                sender: ReliableSender::new(
                    DeliveryGuarantee::ExactlyOnce,
                    SimDuration::from_millis(2),
                    20,
                ),
                remaining: 1000,
            })
        });
        sim.run_for(SimDuration::from_secs(5));
        rows.push(
            Row::new(format!("dup={:.0}%", dup * 100.0))
                .col("sent", sim.metrics().counter("e2.sent"))
                .col("applied", sim.metrics().counter("e2.applied"))
                .col("deduped", sim.metrics().counter("recv.deduped"))
                .col("net duplicated", sim.metrics().counter("net.duplicated")),
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// E14 — entity locks vs none (write skew)
// ---------------------------------------------------------------------------

/// E14: the critical-section API — concurrent cross-entity invariants
/// break without locks and hold with them.
pub fn e14_entity_locks(seed: u64) -> Vec<Row> {
    // Invariant: a + b ≥ 1500. Each "drain" orchestration reads both
    // accounts and withdraws 300 from one iff the invariant survives.
    // Two concurrent drains both see 1000+1000 and both withdraw without
    // locks → a+b = 1400 < 1500 (write skew). With locks they serialize.
    let app = |locked: bool| -> StatefunApp {
        let base = StatefunApp::new().entity(
            "account",
            |state, op, args| {
                let balance = state.as_int();
                match op {
                    "read" => Ok(vec![state.clone()]),
                    "withdraw" => {
                        *state = Value::Int(balance - args[0].as_int());
                        Ok(vec![state.clone()])
                    }
                    _ => Err("?".into()),
                }
            },
            |_| Value::Int(1000),
        );
        base.orchestrator("drain", move |ctx| {
            let target = ctx.input()[0].as_str().to_owned();
            let a = EntityId::new("account", "a");
            let b = EntityId::new("account", "b");
            if locked {
                ctx.acquire_locks(vec![a.clone(), b.clone()])?;
            }
            let va = ctx.call_entity(a.clone(), "read", vec![])?.expect("read")[0].as_int();
            let vb = ctx.call_entity(b.clone(), "read", vec![])?.expect("read")[0].as_int();
            if va + vb - 300 < 1500 {
                return Some(Err("would break invariant".into()));
            }
            let victim = if target == "a" { a } else { b };
            let r = ctx.call_entity(victim, "withdraw", vec![Value::Int(300)])?;
            Some(r)
        })
    };
    let run = |locked: bool| -> Row {
        let mut sim = Sim::with_seed(seed);
        let nodes = sim.add_nodes(2);
        let shards = spawn_shards(&mut sim, &nodes, &app(locked), 2);
        let n_load = sim.add_node();
        // One drain per account, launched together.
        let launched = Cell::new(0usize);
        let route: RequestRouter = Rc::new(move |_| {
            let i = launched.replace(launched.get() + 1);
            StartOrchestration {
                name: "drain".into(),
                instance: format!("drain-{i}"),
                input: vec![Value::from(["a", "b"][i])],
            }
            .route(&shards)
        });
        sim.spawn(
            n_load,
            "launcher",
            ClosedLoopGen::routed(
                route,
                orchestration_classifier(),
                ClosedLoopConfig {
                    clients: 2,
                    limit: Some(2),
                    metric: "e14".into(),
                    retry: RetryPolicy::retrying(6, SimDuration::from_millis(50)),
                    ..ClosedLoopConfig::default()
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(2));
        let committed = sim.metrics().counter("e14.ok");
        let rejected = sim.metrics().counter("e14.err");
        // Invariant arithmetic: start 2000, each commit −300, floor 1500 ⇒
        // at most 1 commit is legal.
        let final_sum = 2000 - 300 * committed as i64;
        Row::new(if locked {
            "with locks"
        } else {
            "without locks"
        })
        .col("committed", committed)
        .col("rejected", rejected)
        .col("a+b", final_sum)
        .col("invariant (≥1500)", final_sum >= 1500)
    };
    vec![run(false), run(true)]
}

// ---------------------------------------------------------------------------
// E15 — causal consistency
// ---------------------------------------------------------------------------

/// E15: the post/notification inversion, with and without causal delivery.
pub fn e15_causal(seed: u64) -> Vec<Row> {
    // Pure-library experiment: messages from two "services" race over a
    // reordering channel; the causal mailbox buffers the dependent one.
    let mut rng = tca_sim::SimRng::new(seed);
    let run = |causal: bool, rng: &mut tca_sim::SimRng| -> (u64, u64) {
        let mut inversions = 0;
        let mut delivered = 0;
        for _ in 0..1000 {
            let mut post_clock = VectorClock::new();
            let post = CausalMessage {
                sender: 0,
                clock: post_clock.tick(0),
                body: "post",
            };
            let mut notify_clock = VectorClock::new();
            notify_clock.merge(&post.clock);
            let notification = CausalMessage {
                sender: 1,
                clock: notify_clock.tick(1),
                body: "notify",
            };
            // Network race: 40% of the time the notification wins.
            let first_is_notification = rng.chance(0.4);
            if causal {
                let mut mailbox: CausalMailbox<&str> = CausalMailbox::new(9);
                let (first, second) = if first_is_notification {
                    (notification, post)
                } else {
                    (post, notification)
                };
                let mut seen_post = false;
                for m in mailbox
                    .offer(first)
                    .into_iter()
                    .chain(mailbox.offer(second))
                {
                    delivered += 1;
                    if m.body == "post" {
                        seen_post = true;
                    } else if !seen_post {
                        inversions += 1;
                    }
                }
            } else {
                delivered += 2;
                if first_is_notification {
                    inversions += 1;
                }
            }
        }
        (delivered, inversions)
    };
    let (d1, i1) = run(false, &mut rng);
    let (d2, i2) = run(true, &mut rng);
    vec![
        Row::new("eventual (no causal)")
            .col("delivered", d1)
            .col("notify-before-post", i1),
        Row::new("causal delivery")
            .col("delivered", d2)
            .col("notify-before-post", i2),
    ]
}

// ---------------------------------------------------------------------------
// E16 — latency breakdown via causal span tracing
// ---------------------------------------------------------------------------

/// E16: where does a transfer's latency go? Traced cell runs attribute
/// virtual time to protocol stages — network hops, queue waits, lock
/// waits, 2PC phases, saga steps, actor invocations — and report
/// per-kind percentiles next to the client-observed latency. The run is
/// also the no-perturbation proof: committed/failed counts must match
/// the untraced run of the same seed exactly.
pub fn e16_latency_breakdown(seed: u64) -> Vec<Row> {
    let params = CellParams {
        seed,
        transfers: 200,
        ..CellParams::default()
    };
    let cells = [
        (
            ProgrammingModel::Microservices,
            TxnMechanism::TwoPhaseCommit,
        ),
        (ProgrammingModel::Microservices, TxnMechanism::Saga),
        (
            ProgrammingModel::VirtualActors,
            TxnMechanism::ActorTransactions,
        ),
    ];
    let mut rows = Vec::new();
    for (model, mechanism) in cells {
        let untraced = run_cell(model, mechanism, &params);
        let (report, _json) = run_cell_traced(model, mechanism, &params);
        assert_eq!(
            (untraced.committed, untraced.failed),
            (report.committed, report.failed),
            "tracing perturbed the {} schedule",
            report.label
        );
        rows.push(
            Row::new(format!("{} (client view)", report.label))
                .col("n", report.committed + report.failed)
                .col("p50", ms(report.p50_ms))
                .col("p99", ms(report.p99_ms)),
        );
        for (kind, hist) in &report.breakdown {
            rows.push(
                Row::new(format!("  {}", kind.name()))
                    .col("spans", hist.count())
                    .col("p50", ms(hist.p50().as_millis_f64()))
                    .col("p95", ms(hist.quantile(0.95).as_millis_f64())),
            );
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E17 — overload resilience
// ---------------------------------------------------------------------------

/// E17: goodput under overload, naive retries vs the full resilience
/// stack (deadline propagation + jittered/budgeted retries + circuit
/// breaker + server admission control).
///
/// The server commits in 100µs ⇒ capacity ≈ 10k calls/s. Both clients
/// have a 20ms SLO; only completions inside it count as goodput. The
/// *naive* client retries on a fixed 5ms timeout and tells nobody about
/// its deadline, so past saturation every queued request times out,
/// retries amplify the load ~5×, and the server burns its capacity on
/// work whose callers have already given up — goodput collapses. The
/// *resilient* client propagates the deadline (the server drops doomed
/// work before execution), jitters its backoff, caps retries with a
/// budget, and trips a breaker; the server additionally sheds anything
/// it cannot start within 10ms. Offered load above capacity then turns
/// into cheap explicit rejections instead of queue growth, and goodput
/// holds near capacity. A final two-phase run (2× burst, then 0.5×)
/// shows the naive client still digging out of its backlog after the
/// burst ends while the resilient one recovers instantly.
pub fn e17_overload_resilience(seed: u64) -> Vec<Row> {
    use tca_messaging::rpc::{BreakerConfig, RetryBudget};

    let client_config = |resilient: bool, phases: Vec<OverloadPhase>| OverloadConfig {
        phases,
        metric: "e17".into(),
        deadline: Some(SimDuration::from_millis(20)),
        propagate_deadline: resilient,
        // The resilient timeout covers the server's 10ms admission bound:
        // admitted work replies before the client gives up on it. The
        // naive 5ms timeout *undercuts* the queue it created, so queued
        // work times out and is retried — the amplification loop.
        retry: if resilient {
            RetryPolicy::retrying(2, SimDuration::from_millis(15)).with_jitter(0.5)
        } else {
            RetryPolicy::retrying(5, SimDuration::from_millis(5))
        },
        budget: resilient.then(RetryBudget::default),
        breaker: resilient.then(BreakerConfig::default),
    };
    let run = |resilient: bool, phases: Vec<OverloadPhase>| -> Sim {
        let mut sim = Sim::with_seed(seed);
        let n_db = sim.add_node();
        let n_load = sim.add_node();
        let db_config = if resilient {
            DbServerConfig {
                max_queue_wait: Some(SimDuration::from_millis(10)),
                ..DbServerConfig::default()
            }
        } else {
            DbServerConfig::default()
        };
        let total: SimDuration = phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration);
        let db = sim.spawn(
            n_db,
            "db",
            DbServer::factory("db", db_config, work_registry()),
        );
        sim.spawn(
            n_load,
            "load",
            OverloadGen::factory(
                db,
                work_request(),
                db_classifier(),
                client_config(resilient, phases),
            ),
        );
        // Run past the schedule so in-flight work drains.
        sim.run_for(total + SimDuration::from_millis(200));
        sim
    };

    let mut rows = Vec::new();
    // Load sweep: 1s windows at each multiple of capacity.
    for (label, interarrival_us) in [
        ("0.5x", 200u64),
        ("1.0x", 100),
        ("1.5x", 67),
        ("2.0x", 50),
        ("3.0x", 33),
    ] {
        for resilient in [false, true] {
            let sim = run(
                resilient,
                vec![OverloadPhase::new(
                    SimDuration::from_secs(1),
                    SimDuration::from_micros(interarrival_us),
                )],
            );
            let m = sim.metrics();
            let p99 = m
                .histogram("e17.latency")
                .map_or_else(|| "-".into(), |h| ms(h.p99().as_millis_f64()));
            let kind = if resilient { "resilient" } else { "naive" };
            rows.push(
                Row::new(format!("{label} {kind}"))
                    .col("goodput/s", m.counter("e17.goodput"))
                    .col("late", m.counter("e17.late"))
                    .col("err", m.counter("e17.err"))
                    .col("p99", p99)
                    .col("shed", m.counter("rpc.shed") + m.counter("server.shed"))
                    .col("budget", m.counter("retry.budget_exhausted"))
                    .col("breaker", m.counter("breaker.open")),
            );
        }
    }
    // Recovery: a 300ms 2× burst followed by 300ms at 0.5×. Per-phase
    // goodput shows whether the burst's backlog poisons the calm phase.
    for resilient in [false, true] {
        let burst = vec![
            OverloadPhase::new(SimDuration::from_millis(300), SimDuration::from_micros(50)),
            OverloadPhase::new(SimDuration::from_millis(300), SimDuration::from_micros(200)),
        ];
        let sim = run(resilient, burst);
        let m = sim.metrics();
        let kind = if resilient { "resilient" } else { "naive" };
        let pct = |phase: usize| {
            let issued = m.counter(&format!("e17.phase{phase}.issued"));
            let good = m.counter(&format!("e17.phase{phase}.goodput"));
            if issued == 0 {
                "-".to_owned()
            } else {
                format!("{:.0}%", 100.0 * good as f64 / issued as f64)
            }
        };
        rows.push(
            Row::new(format!("recovery {kind}"))
                .col("burst goodput", pct(0))
                .col("after goodput", pct(1)),
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// E18 — model checking
// ---------------------------------------------------------------------------

/// E18: exhaustive schedule exploration over small protocol worlds (§5.2).
///
/// Where E1–E17 sample schedules (one seed = one interleaving), the model
/// checker enumerates *every* commutation class of schedules — message
/// deliveries, timer fires, budgeted crashes and drops — to a bounded
/// depth, asserting the torture-sweep invariants at each explored state.
/// The table reports the state counts with and without reduction
/// (sleep-set partial-order reduction + hashed visited set), the
/// exhaustive verification of each protocol world, and the seeded
/// late-`ExecuteReq` mutation the checker catches with a minimal,
/// replayable schedule. The checker is deterministic and draw-free, so
/// the seed is unused.
pub fn e18_model_check(_seed: u64) -> Vec<Row> {
    use tca_sim::mc::{explore, McConfig, McReport};
    use tca_sim::NodeId;
    use tca_txn::mc_scenarios::{
        actor_mc_scenario, saga_mc_scenario, twopc_late_execute_mutation_scenario,
        twopc_mc_scenario,
    };

    let row = |label: &str, r: &McReport, vs_naive: String| {
        let verdict = match &r.violation {
            Some(v) => format!("violation: {} (schedule {})", v.message, v.schedule),
            None if r.truncated => "truncated".to_owned(),
            None => "verified".to_owned(),
        };
        Row::new(label)
            .col("states", r.states)
            .col("sleep-pruned", r.pruned_sleep)
            .col("visited-pruned", r.pruned_visited)
            .col("depth-capped", r.depth_cap_hits)
            .col("vs naive", vs_naive)
            .col("verdict", verdict)
    };
    let mut rows = Vec::new();

    // Reduction: the same 2PC world explored naively (every interleaving)
    // and with sleep sets + the visited set.
    let sc = twopc_mc_scenario(2);
    let base = McConfig {
        max_depth: 6,
        max_states: 5_000_000,
        max_crashes: 1,
        crashable: vec![NodeId(2)],
        ..McConfig::default()
    };
    let naive = explore(
        &sc,
        &McConfig {
            por: false,
            visited: false,
            ..base.clone()
        },
    );
    let reduced = explore(&sc, &base);
    let factor = naive.states as f64 / reduced.states.max(1) as f64;
    rows.push(row("2pc×2 depth 6 +1 crash, naive", &naive, "1.0×".into()));
    rows.push(row(
        "2pc×2 depth 6 +1 crash, reduced",
        &reduced,
        format!("{factor:.1}×"),
    ));

    // Exhaustive verification sweeps over each protocol world.
    let r = explore(
        &sc,
        &McConfig {
            max_depth: 9,
            max_drops: 1,
            ..base.clone()
        },
    );
    rows.push(row("2pc×2 depth 9 +1 crash +1 drop", &r, "-".into()));
    let r = explore(
        &twopc_mc_scenario(1),
        &McConfig {
            max_depth: 12,
            max_crashes: 2,
            max_drops: 1,
            ..base.clone()
        },
    );
    rows.push(row("2pc×1 depth 12 +2 crashes +1 drop", &r, "-".into()));
    let r = explore(
        &saga_mc_scenario(1),
        &McConfig {
            max_depth: 8,
            ..base.clone()
        },
    );
    rows.push(row("saga×1 depth 8 +1 crash", &r, "-".into()));
    let r = explore(
        &actor_mc_scenario(2),
        &McConfig {
            max_depth: 7,
            max_crashes: 0,
            crashable: vec![],
            ..base.clone()
        },
    );
    rows.push(row("actor×2 depth 7", &r, "-".into()));

    // Seeded mutation: reintroduce the PR 2 late-ExecuteReq acceptance bug
    // and show the checker finds it and pins a minimal schedule.
    let r = explore(
        &twopc_late_execute_mutation_scenario(),
        &McConfig {
            max_depth: 8,
            max_crashes: 0,
            crashable: vec![],
            ..base
        },
    );
    rows.push(row("2pc×1 late-execute mutation", &r, "-".into()));
    rows
}

// ---------------------------------------------------------------------------
// E19 — sharded scale-out
// ---------------------------------------------------------------------------

/// E19: consistent-hash sharded storage behind the router (§3.3 scaling
/// state, §4.2 partitioned stores). A million-entity YCSB-style keyspace
/// is spread over 1→64 `DbServer` shards by the ring; a closed-loop
/// fleet (32 clients per shard) issues single-key read-modify-writes
/// through the router. Aggregate committed throughput should rise with
/// shard count on the uniform workload. The second block holds the fleet
/// fixed (16 shards, 128 clients) and turns on Zipfian skew: the ring
/// cannot split a hot key, so the owning shard saturates and p99
/// degrades while the uniform run at the same offered load stays flat —
/// the hot-shard penalty, quantified by the busiest shard's share of
/// committed calls.
pub fn e19_sharded_scaleout(seed: u64) -> Vec<Row> {
    const KEYSPACE: usize = 1_000_000;
    let run = |label: &str, shards: usize, clients: usize, theta: f64| -> Row {
        let mut sim = Sim::with_seed(seed);
        let nodes: Vec<_> = (0..shards.min(8)).map(|_| sim.add_node()).collect();
        let n_load = sim.add_node();
        let (router, _) = deploy_sharded_db(
            &mut sim,
            &nodes,
            "e19",
            DbServerConfig::default(),
            ycsb::registry,
            shards,
        );
        // Keys materialize on first write (`ycsb_rmw` treats a missing key
        // as 0), so the million-entity keyspace needs no Load phase.
        let chooser = if theta > 0.0 {
            KeyChooser::zipfian(KEYSPACE, theta)
        } else {
            KeyChooser::uniform(KEYSPACE)
        };
        let factory: RequestFactory = Rc::new(move |rng| {
            let i = chooser.pick(rng);
            Payload::new(DbMsg::call(
                "ycsb_rmw",
                vec![Value::Str(format!("user{i:08}"))],
            ))
        });
        sim.spawn(
            n_load,
            "load",
            ClosedLoopGen::factory(
                router,
                factory,
                db_classifier(),
                ClosedLoopConfig {
                    clients,
                    limit: Some(25 * clients as u64),
                    metric: "e19".into(),
                    ..ClosedLoopConfig::default()
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(60));
        let load = LoadSummary::read(&sim, "e19");
        let per_shard: Vec<u64> = (0..shards)
            .map(|i| sim.metrics().counter(&format!("e19-s{i}.calls_ok")))
            .collect();
        let total: u64 = per_shard.iter().sum();
        let hot_share = per_shard.iter().max().copied().unwrap_or(0) as f64 / (total.max(1)) as f64;
        load_row(label, &load).col("hot shard", format!("{:.1}%", hot_share * 100.0))
    };
    let mut rows = Vec::new();
    // Scale-out: low-contention uniform traffic, fleet sized to shards.
    for shards in [1usize, 4, 16, 64] {
        rows.push(run(
            &format!("uniform, {shards} shard(s) ×{} clients", 32 * shards),
            shards,
            32 * shards,
            0.0,
        ));
    }
    // Skew: same deployment and offered load, uniform vs Zipfian.
    for theta in [0.0, 0.99] {
        rows.push(run(
            &format!("θ={theta}, 16 shards ×128 clients"),
            16,
            128,
            theta,
        ));
    }
    rows
}

// ---------------------------------------------------------------------------
// E20 — deterministic dataflow vs 2PC / saga / actor transactions
// ---------------------------------------------------------------------------

/// E20's fleet sizes, in partitions per cell.
const FLEETS: [usize; 4] = [1, 2, 4, 16];

/// E20's long epoch intervals, in milliseconds.
const LONG_EPOCHS_MS: [u64; 2] = [2, 8];

/// E20: the four transaction mechanisms head-to-head on the cells'
/// transfer workload (§4.2's central claim, quantified). Three sweeps:
///
/// - **Contention**, the rows E7 prints as columns: every mechanism at
///   each `HOT` level on the default fleet.
/// - **Scale-out** at hot = 0.5 over `FLEETS`, for the three mechanisms
///   whose cell is partitioned; the saga's cell keeps one database. The
///   default-fleet point is the contention sweep's, printed again rather
///   than run again.
/// - **Epochs**: the dataflow cell uncontended at `LONG_EPOCHS_MS`. The
///   epoch interval is the engine's latency floor (a closed loop
///   completes about one transaction per client per epoch), so these rows
///   show where 2PC overtakes it.
pub fn e20_dataflow_headtohead(seed: u64) -> Vec<Row> {
    let contended = contention(seed);
    let fleet = CellParams::default().shards;
    let mut rows = Vec::new();
    for (hot, reports) in HOT.iter().zip(&contended) {
        for ((name, ..), report) in MECHANISMS.iter().zip(reports) {
            rows.push(report_row(
                format!("{name} hot={hot:.1}, {fleet} shards"),
                report,
            ));
        }
    }
    let (hot, at_hot) = (HOT[1], &contended[1]);
    for shards in FLEETS {
        for ((name, model, mechanism), ran) in MECHANISMS.into_iter().zip(at_hot) {
            if mechanism == TxnMechanism::Saga {
                continue;
            }
            let report = if shards == fleet {
                ran.clone()
            } else {
                let params = CellParams {
                    shards,
                    ..transfers_at(seed, hot)
                };
                run_cell(model, mechanism, &params)
            };
            rows.push(report_row(
                format!("{name} hot={hot:.1}, {shards} shard(s)"),
                &report,
            ));
        }
    }
    let ((name, model, mechanism), cold) = (MECHANISMS[0], HOT[0]);
    for epoch_ms in LONG_EPOCHS_MS {
        let params = CellParams {
            epoch: SimDuration::from_millis(epoch_ms),
            ..transfers_at(seed, cold)
        };
        rows.push(report_row(
            format!("{name} hot={cold:.1}, {fleet} shards, {epoch_ms}ms epochs"),
            &run_cell(model, mechanism, &params),
        ));
    }
    rows
}

// ---------------------------------------------------------------------------
// E21 — exactly-once workflows vs naive retries (§4.2, Beldi direction)
// ---------------------------------------------------------------------------

/// Chains per run in E21.
const E21_CHAINS: u64 = 6;
/// Opening balance of every E21 account.
const E21_START: i64 = 100;
/// Hops per chain in E21.
const E21_STEPS: u32 = 4;

/// E21: what exactly-once costs, and what its absence costs (§4.2).
///
/// The same fleet of `E21_CHAINS` disjoint transfer chains
/// ([`tca_workloads::ChainWorkload`]) runs twice per fault level: once
/// on the full
/// workflow runtime (durable intents, idempotence table, `wf_guard`
/// fence) and once on the *naive retry baseline* the paper's developers
/// hand-roll (same orchestrator re-drives, no dedup anywhere). Every run
/// crashes a worker node mid-stream and restarts it; the fault axis adds
/// ambient message loss on top.
///
/// The marker keys count every committed application of every step, so
/// the `dbl-applied` column is ground truth, not an inference: the naive
/// baseline accrues double-applies as soon as a step's commit races its
/// lost reply (the orchestrator re-drives, the worker re-executes), and
/// the count grows with the loss rate — while the workflow runtime pins
/// every marker at exactly 1 through the same faults, serving re-drives
/// from the idempotence table (`deduped`) or absorbing them on the fence
/// (`fenced`). The price of the shield is visible in the fault-free pair:
/// one extra dtx branch per step and the intent/idempotence writes
/// (`intents` column), costing a modest latency premium at p50.
pub fn e21_exactly_once_workflows(seed: u64) -> Vec<Row> {
    use tca_messaging::rpc::RpcRequest;
    use tca_txn::workflow::{deploy_workflow, WorkflowConfig};
    use tca_workloads::ChainWorkload;

    let workload = ChainWorkload::new(E21_CHAINS, E21_STEPS);
    let run = |label: &str, drop: f64, config: WorkflowConfig| -> Row {
        let mut sim = Sim::new(SimConfig {
            seed,
            network: NetworkConfig::lossy(drop, drop / 2.0),
        });
        let n_orch = sim.add_node();
        let worker_nodes: Vec<_> = (0..2).map(|_| sim.add_node()).collect();
        let n_coord = sim.add_node();
        let shard_nodes: Vec<_> = (0..3).map(|_| sim.add_node()).collect();
        let deploy = deploy_workflow(
            &mut sim,
            n_orch,
            &worker_nodes,
            n_coord,
            &shard_nodes,
            &bank_registry_from(E21_START),
            &workload.seeds(),
            &workload.defs(),
            config,
        );
        for i in 0..workload.chains {
            let (call_id, start) = workload.start_request(i);
            sim.inject_at(
                SimTime::ZERO + SimDuration::from_millis(1 + 16 * i),
                deploy.orchestrator,
                Payload::new(RpcRequest {
                    call_id,
                    body: Payload::new(start),
                }),
            );
        }
        // One worker dies mid-stream and comes back: the window where
        // in-flight steps have committed but their replies are lost.
        sim.schedule_crash(
            SimTime::ZERO + SimDuration::from_millis(60),
            worker_nodes[0],
        );
        sim.schedule_restart(
            SimTime::ZERO + SimDuration::from_millis(120),
            worker_nodes[0],
        );
        sim.run_for(SimDuration::from_secs(6));
        let admitted = sim.metrics().counter("workflow.started");
        let completed = sim.metrics().counter("workflow.completed");
        let (total, expected) = workload.conservation(&sim, &deploy.participants, &deploy.map);
        assert_eq!(total, expected, "transfers must conserve money");
        let latency = sim.metrics().histogram("workflow.latency");
        let p50 = latency.map_or(0.0, |h| h.p50().as_millis_f64());
        let p99 = latency.map_or(0.0, |h| h.p99().as_millis_f64());
        Row::new(label)
            .col("done", format!("{completed}/{admitted}"))
            .col(
                "dbl-applied",
                workload.double_applies(&sim, &deploy.participants, &deploy.map, admitted),
            )
            .col("deduped", sim.metrics().counter("workflow.steps_deduped"))
            .col("fenced", sim.metrics().counter("workflow.guard_recoveries"))
            .col("intents", sim.metrics().counter("workflow.intent_writes"))
            .col("replays", sim.metrics().counter("workflow.replays"))
            .col("p50", ms(p50))
            .col("p99", ms(p99))
    };

    let mut rows = Vec::new();
    for drop in [0.0, 0.04, 0.08, 0.12] {
        rows.push(run(
            &format!("workflow drop={:.0}%", drop * 100.0),
            drop,
            WorkflowConfig::default(),
        ));
        rows.push(run(
            &format!("naive    drop={:.0}%", drop * 100.0),
            drop,
            WorkflowConfig {
                exactly_once: false,
            },
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rows` are the `expected` rows of the one-header block whose title
    /// starts with `title` in the committed record, word for word.
    fn assert_cell_block_is_recorded(title: &str, rows: Vec<Row>, expected: usize) {
        let recorded: Vec<Vec<&str>> = include_str!("../../../experiments_output.txt")
            .lines()
            .skip_while(|line| !line.starts_with(&format!("=== {title}")))
            .skip(2) // the title and the column header
            .take_while(|line| !line.trim().is_empty())
            .map(|line| line.split_whitespace().collect())
            .collect();
        let computed: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                let values = row.values.iter().map(|(_, value)| value);
                std::iter::once(&row.label)
                    .chain(values)
                    .flat_map(|text| text.split_whitespace().map(str::to_owned))
                    .collect()
            })
            .collect();
        assert_eq!(computed.len(), expected, "{title}");
        assert_eq!(computed, recorded, "{title}");
    }

    /// The record pin on every block built from `core::cell` transfer
    /// cells: a change that moves any cell's schedule, at any fleet size,
    /// with or without the crash, fails `cargo test`, not only the CI
    /// determinism gate.
    #[test]
    fn matrix_rows_equal_the_committed_record() {
        let cells = SUPPORTED.len();
        assert_cell_block_is_recorded("F1: taxonomy cells", f1_taxonomy(42), cells);
        assert_cell_block_is_recorded("E8:", e8_failure_consistency(42), cells);
        assert_cell_block_is_recorded("E7:", e7_serializable_mechanisms(42), HOT.len());
        // The saga's cell is not partitioned, so it has no scale-out rows.
        let scale_out = FLEETS.len() * (MECHANISMS.len() - 1);
        let e20 = HOT.len() * MECHANISMS.len() + scale_out + LONG_EPOCHS_MS.len();
        assert_cell_block_is_recorded("E20:", e20_dataflow_headtohead(42), e20);
    }
}
