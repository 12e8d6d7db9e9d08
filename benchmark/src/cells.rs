//! Isolated cells: host nanoseconds per call into one layer's public
//! functions, measured from outside.
//!
//! Each cell runs one untimed warm-up batch and [`BATCHES`] timed batches
//! and reports the fastest batch's ns per operation: the work is the same
//! every time, so the fastest batch is the one the host disturbed least
//! (see the README's noise section). A cell is a *ceiling finder*:
//! multiplied by how often a workload calls the layer it bounds what a
//! faster layer could save there (see the `share.*` metrics).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use tca_bench::kernel_bench;
use tca_core::cell::{run_cell, CellParams};
use tca_core::taxonomy::{ProgrammingModel, TxnMechanism};
use tca_messaging::idempotency::IdempotencyStore;
use tca_messaging::log::TopicStore;
use tca_messaging::rpc::{reply_to, RpcRequest};
use tca_sim::{
    Ctx, EventKey, EventQueue, Metrics, Payload, Process, ProcessId, ShardMap, Sim, SimDuration,
    SimRng, SimTime, Zipf,
};
use tca_storage::{
    run_proc, DbMsg, DbRequest, DbServer, DbServerConfig, DurableCell, DurableLog, Engine,
    EngineConfig, IdempotenceTable, IsolationLevel, LockMode, LockTable, MvccStore, TxId, Value,
    WalRecord,
};
use tca_txn::check_serializability;
use tca_workloads::loadgen::{db_classifier, RequestFactory};
use tca_workloads::ycsb::{self, YcsbSampler, YcsbScale, YcsbWorkload};

use crate::client::{LoadClient, Pacing};
use crate::spans::Spans;
use crate::stats::quartiles;
use crate::workloads::{run_rep, RunOptions, Workload};

/// Timed batches per cell.
pub const BATCHES: usize = 5;

/// Results of every isolated cell: metric name → host ns per operation.
#[derive(Debug, Clone, Default)]
pub struct Cells {
    /// Median ns/op per cell, keyed by per-layer metric name.
    pub ns: BTreeMap<&'static str, f64>,
    /// `kernel/sharded-router` ns/event over its repetitions:
    /// `(q1, median, q3, reps)`.
    pub sharded_router: (f64, f64, f64, usize),
    /// Kernel events per uncontended 2PC commit (exact).
    pub twopc_events_per_commit: f64,
}

impl Cells {
    /// The cell called `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.ns.get(name).copied().unwrap_or(0.0)
    }
}

/// Fastest batch's ns/op: `setup` is untimed, `batch` returns how many ops
/// it ran.
fn per_op<S>(mut setup: impl FnMut() -> S, mut batch: impl FnMut(&mut S) -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for i in 0..=BATCHES {
        let mut state = setup();
        let start = Instant::now();
        let ops = black_box(batch(&mut state));
        let ns = start.elapsed().as_nanos() as f64;
        if i > 0 {
            best = best.min(ns / ops.max(1) as f64);
        }
    }
    best
}

fn keys(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("user{i:08}")).collect()
}

fn fresh_engine(keys: &[String]) -> Engine {
    let mut engine = Engine::new(
        EngineConfig::default(),
        DurableLog::new(),
        DurableCell::new(),
    );
    for key in keys {
        engine.load(key, Value::Int(0));
    }
    engine
}

/// Replies to every RPC with its own body.
struct Echo;

impl Process for Echo {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(request) = payload.downcast_ref::<RpcRequest>() {
            reply_to(ctx, from, request, request.body.clone());
        }
    }
}

/// Host ns per call and kernel events per call of `calls` closed-loop
/// requests from 8 clients against `target` in `sim`.
fn drive_calls(mut sim: Sim, target: ProcessId, request: RequestFactory, calls: u64) -> (f64, f64) {
    let node = sim.add_node();
    let (factory, samples) = LoadClient::factory(
        target,
        request,
        db_classifier(),
        Pacing::Closed { clients: 8 },
        calls,
    );
    sim.spawn(node, "load", factory);
    let before = sim.events_processed();
    let start = Instant::now();
    while samples.borrow().done_at.is_none() {
        sim.run_for(SimDuration::from_millis(1));
    }
    let ns = start.elapsed().as_nanos() as f64;
    let events = (sim.events_processed() - before) as f64;
    (ns / calls as f64, events / calls as f64)
}

fn rmw_request(keys: usize) -> RequestFactory {
    let chooser = tca_workloads::loadgen::KeyChooser::uniform(keys);
    Rc::new(move |rng| {
        let i = chooser.pick(rng);
        Payload::new(DbMsg {
            token: 0,
            req: DbRequest::Call {
                proc: "ycsb_rmw".into(),
                args: vec![Value::Str(format!("user{i:08}"))],
            },
        })
    })
}

/// Run every isolated cell.
pub fn run_cells(opts: &RunOptions, spans: &mut Spans) -> Cells {
    let mut cells = Cells::default();
    // Batch sizes below are the scale-1 sizes; the smoke test shrinks them.
    let scale = opts.scale;
    let n = move |count: u64| ((count as f64 * scale).round() as u64).max(1);

    // ----- sim ---------------------------------------------------------------
    cell(&mut cells, spans, "sim.queue.push_pop_ns", |_| {
        // 64 k resident events over mixed horizons: same-tick, wheel
        // levels 0–3, and beyond-the-wheel overflow.
        const HORIZONS_NS: [u64; 6] = [500, 20_000, 1_000_000, 50_000_000, 2_000_000_000, 0];
        per_op(
            || {
                let mut queue = EventQueue::<u64>::new();
                let mut rng = SimRng::new(1);
                for seq in 0..65_536u64 {
                    let at = rng.range(0, 50_000_000);
                    let time = SimTime::ZERO + SimDuration::from_nanos(at);
                    queue.push(EventKey { time, seq }, seq);
                }
                (queue, rng, 65_536u64)
            },
            |(queue, rng, seq)| {
                for _ in 0..n(100_000) {
                    let (key, value) = queue.pop().expect("resident events");
                    let horizon = HORIZONS_NS[rng.index(HORIZONS_NS.len())];
                    *seq += 1;
                    let time = key.time + SimDuration::from_nanos(rng.range(0, horizon + 1));
                    queue.push(EventKey { time, seq: *seq }, value);
                }
                n(100_000)
            },
        )
    });
    cell(&mut cells, spans, "sim.kernel.lean_ns_per_event", |_| {
        per_op(
            || (),
            |()| kernel_bench::ping_pong(16, n(4_000) as u32, 42).events,
        )
    });
    cell(&mut cells, spans, "sim.rng.next_u64_ns", |_| {
        per_op(
            || SimRng::new(6),
            |rng| {
                let mut x = 0;
                for _ in 0..n(1_000_000) {
                    x ^= rng.next_u64();
                }
                black_box(x);
                n(1_000_000)
            },
        )
    });
    cell(&mut cells, spans, "sim.rng.zipf_sample_ns", |_| {
        let zipf = Zipf::new(n(1_000_000) as usize, 0.99);
        per_op(
            || SimRng::new(5),
            |rng| {
                let mut x = 0;
                for _ in 0..n(200_000) {
                    x ^= zipf.sample(rng);
                }
                black_box(x);
                n(200_000)
            },
        )
    });
    cell(&mut cells, spans, "sim.payload.new_downcast_ns", |_| {
        struct Msg(u64);
        per_op(
            || (),
            |()| {
                let mut x = 0;
                for i in 0..n(500_000) {
                    let payload = black_box(Payload::new(Msg(i)));
                    x ^= payload.downcast_ref::<Msg>().map_or(0, |m| m.0);
                }
                black_box(x);
                n(500_000)
            },
        )
    });
    let counter_names: Vec<String> = (0..32).map(|i| format!("shard-s{i}.calls_ok")).collect();
    cell(&mut cells, spans, "sim.metrics.incr_ns", |_| {
        per_op(Metrics::new, |metrics| {
            for i in 0..n(500_000) as usize {
                metrics.incr(&counter_names[i % counter_names.len()], 1);
            }
            n(500_000)
        })
    });
    cell(&mut cells, spans, "sim.metrics.incr_fast_ns", |_| {
        per_op(
            || {
                let mut metrics = Metrics::new();
                let slot = metrics.register_fast("net.sent");
                (metrics, slot)
            },
            |(metrics, slot)| {
                for _ in 0..n(2_000_000) {
                    black_box(&mut *metrics).incr_fast(*slot, 1);
                }
                n(2_000_000)
            },
        )
    });
    cell(&mut cells, spans, "sim.metrics.record_ns", |_| {
        per_op(Metrics::new, |metrics| {
            for i in 0..n(500_000) {
                metrics.record("load.latency", SimDuration::from_nanos(1_000 + i));
            }
            n(500_000)
        })
    });
    let ring_keys = keys(4_096);
    cell(&mut cells, spans, "sim.place.ring_lookup_ns", |_| {
        let map = ShardMap::ring(16);
        per_op(
            || (),
            |()| {
                let mut x = 0;
                for round in 0..50 {
                    for key in &ring_keys {
                        x ^= map.owner(key) + round;
                    }
                }
                black_box(x);
                50 * ring_keys.len() as u64
            },
        )
    });

    // ----- storage -------------------------------------------------------------
    let store_keys = keys(2_000);
    cell(&mut cells, spans, "storage.mvcc.install_ns", |_| {
        per_op(MvccStore::new, |store| {
            for (ts, key) in store_keys
                .iter()
                .cycle()
                .take(n(50_000) as usize)
                .enumerate()
            {
                store.install(key, ts as u64 + 1, Some(Value::Int(ts as i64)));
            }
            n(50_000)
        })
    });
    for (name, chain) in [
        ("storage.mvcc.read_at_chain1_ns", 1u64),
        ("storage.mvcc.read_at_chain64_ns", 64),
    ] {
        cell(&mut cells, spans, name, |_| {
            per_op(
                || {
                    let mut store = MvccStore::new();
                    for ts in 1..=chain {
                        for key in &store_keys {
                            store.install(key, ts, Some(Value::Int(ts as i64)));
                        }
                    }
                    store
                },
                |store| {
                    let mut hits = 0;
                    for round in 0..10u64 {
                        // Read mid-chain so the version search does work.
                        let at = (chain / 2 + round % 2).max(1);
                        for key in &store_keys {
                            hits += u64::from(store.read_at(key, at).is_some());
                        }
                    }
                    black_box(hits);
                    10 * store_keys.len() as u64
                },
            )
        });
    }
    cell(&mut cells, spans, "storage.mvcc.gc_ns", |_| {
        // ns per version collected.
        per_op(
            || {
                let mut store = MvccStore::new();
                for ts in 1..=20u64 {
                    for key in &store_keys {
                        store.install(key, ts, Some(Value::Int(1)));
                    }
                }
                store
            },
            |store| store.gc(19) as u64,
        )
    });
    cell(&mut cells, spans, "storage.wal.append_ns", |_| {
        per_op(DurableLog::<WalRecord>::new, |log| {
            for (i, key) in store_keys
                .iter()
                .cycle()
                .take(n(100_000) as usize)
                .enumerate()
            {
                log.append(WalRecord {
                    tx: TxId(i as u64),
                    commit_ts: i as u64,
                    writes: vec![(key.clone(), Some(Value::Int(i as i64)))],
                });
            }
            n(100_000)
        })
    });
    cell(
        &mut cells,
        spans,
        "storage.locks.acquire_release_ns",
        |_| {
            per_op(LockTable::new, |locks| {
                for (i, key) in store_keys
                    .iter()
                    .cycle()
                    .take(n(50_000) as usize)
                    .enumerate()
                {
                    let tx = TxId(i as u64);
                    black_box(locks.acquire(tx, key, LockMode::Exclusive));
                    black_box(locks.release_all(tx));
                }
                n(50_000)
            })
        },
    );
    for (name, iso) in [
        (
            "storage.engine.commit_si_ns",
            IsolationLevel::SnapshotIsolation,
        ),
        ("storage.engine.commit_ser_ns", IsolationLevel::Serializable),
    ] {
        cell(&mut cells, spans, name, |_| {
            per_op(
                || fresh_engine(&store_keys),
                |engine| {
                    for (i, key) in store_keys
                        .iter()
                        .cycle()
                        .take(n(20_000) as usize)
                        .enumerate()
                    {
                        let tx = engine.begin(iso);
                        let _ = engine.read(tx, key);
                        let _ = engine.write(tx, key, Some(Value::Int(i as i64)));
                        black_box(engine.commit(tx));
                    }
                    n(20_000)
                },
            )
        });
    }
    cell(&mut cells, spans, "storage.proc.run_rmw_ns", |_| {
        let registry = ycsb::registry();
        let args: Vec<[Value; 1]> = store_keys.iter().map(|k| [Value::Str(k.clone())]).collect();
        per_op(
            || fresh_engine(&store_keys),
            |engine| {
                for args in args.iter().cycle().take(n(20_000) as usize) {
                    black_box(run_proc(engine, &registry, "ycsb_rmw", args));
                }
                n(20_000)
            },
        )
    });
    cell(
        &mut cells,
        spans,
        "storage.idempotence.check_record_ns",
        |_| {
            per_op(IdempotenceTable::new, |table| {
                for wf in 0..n(25_000) {
                    for seq in 0..4u32 {
                        black_box(table.check(wf, seq));
                        table.record(wf, seq, Ok(vec![Value::Int(seq as i64)]));
                    }
                }
                4 * n(25_000)
            })
        },
    );
    cell(&mut cells, spans, "storage.idempotence.gc_ns", |_| {
        // ns per entry collected.
        per_op(
            || {
                let mut table = IdempotenceTable::new();
                for wf in 0..n(25_000) {
                    for seq in 0..4u32 {
                        table.record(wf, seq, Ok(Vec::new()));
                    }
                }
                table
            },
            |table| table.gc_below(n(25_000)) as u64,
        )
    });

    // One DbServer on one node, against the lean kernel cost of the events
    // it took; then the same calls through a 4-shard router.
    let lean = cells.get("sim.kernel.lean_ns_per_event");
    let mut direct_ns = 0.0;
    cell(&mut cells, spans, "storage.server.ns_per_call", |_| {
        let (ns, events) = fastest_of_three(|| {
            let mut sim = Sim::with_seed(42);
            let node = sim.add_node();
            let db = sim.spawn(
                node,
                "db",
                DbServer::factory("db", DbServerConfig::default(), ycsb::registry()),
            );
            drive_calls(sim, db, rmw_request(10_000), n(20_000))
        });
        direct_ns = ns;
        (ns - events * lean).max(0.0)
    });
    cell(&mut cells, spans, "storage.router.ns_per_forward", |_| {
        let (ns, _) = fastest_of_three(|| {
            let mut sim = Sim::with_seed(42);
            let nodes = sim.add_nodes(4);
            let (router, _) = tca_storage::deploy_sharded_db(
                &mut sim,
                &nodes,
                "kv",
                DbServerConfig::default(),
                ycsb::registry,
                4,
            );
            drive_calls(sim, router, rmw_request(10_000), n(20_000))
        });
        (ns - direct_ns).max(0.0)
    });

    // ----- messaging -------------------------------------------------------------
    cell(&mut cells, spans, "messaging.rpc.ns_per_roundtrip", |_| {
        fastest_of_three(|| {
            let mut sim = Sim::with_seed(42);
            let node = sim.add_node();
            let echo = sim.spawn(node, "echo", |_| Box::new(Echo));
            let request: RequestFactory = Rc::new(|_| Payload::new(7u64));
            drive_calls(sim, echo, request, n(50_000))
        })
        .0
    });
    cell(
        &mut cells,
        spans,
        "messaging.idempotency.check_record_ns",
        |_| {
            per_op(
                || IdempotencyStore::new(4_096),
                |store| {
                    for key in 0..n(100_000) {
                        black_box(store.check(ProcessId(1), key));
                        store.record(ProcessId(1), key, None);
                    }
                    n(100_000)
                },
            )
        },
    );
    cell(&mut cells, spans, "messaging.broker.ns_per_record", |_| {
        // The broker's record path is its topic log: append, then fetch.
        per_op(
            || {
                let store = TopicStore::new();
                store.create_topic("orders", 4);
                store
            },
            |store| {
                for i in 0..n(50_000) {
                    let key = Some(format!("k{}", i % 64));
                    let (partition, offset) = store
                        .append("orders", key, Payload::new(i))
                        .expect("topic exists");
                    black_box(store.fetch("orders", partition, offset, 1));
                }
                n(50_000)
            },
        )
    });

    // ----- txn ---------------------------------------------------------------------
    // Small worlds of the real workloads, fault-free and uncontended.
    let small = |workload: Workload, spans: &mut Spans| {
        let opts = RunOptions {
            scale: opts.scale * 0.05,
            traced: false,
            ..opts.clone()
        };
        run_rep(workload, &opts, spans).expect("isolated cell world failed its audit")
    };
    let mut events_per_commit = 0.0;
    cell(&mut cells, spans, "txn.twopc.ns_per_commit", |_| {
        let (ns, events) = fastest_of_three(|| uncontended_twopc(n(2_000)));
        events_per_commit = events;
        ns
    });
    cells.twopc_events_per_commit = events_per_commit;
    let route_keys = keys(4_096);
    cell(&mut cells, spans, "txn.sharding.route_branches_ns", |_| {
        let map = ShardMap::ring(8);
        let fleet: Vec<ProcessId> = (0..8).map(ProcessId).collect();
        let ops: Vec<Vec<tca_txn::ShardOp>> = route_keys
            .chunks(2)
            .map(|pair| {
                pair.iter()
                    .map(|k| (k.clone(), "credit".to_owned(), vec![Value::Int(1)]))
                    .collect()
            })
            .collect();
        per_op(
            || (),
            |()| {
                for _ in 0..10 {
                    for ops in &ops {
                        black_box(tca_txn::route_branches(&map, &fleet, ops));
                    }
                }
                10 * ops.len() as u64
            },
        )
    });
    cell(&mut cells, spans, "txn.dataflow.ns_per_txn", |spans| {
        (0..3)
            .map(|_| {
                let rep = small(Workload::DataflowTransfer, spans);
                rep.run_ns as f64 / rep.committed.max(1) as f64
            })
            .fold(f64::INFINITY, f64::min)
    });
    cell(&mut cells, spans, "txn.workflow.ns_per_step", |spans| {
        (0..3)
            .map(|_| {
                let rep = small(Workload::WorkflowFaults, spans);
                rep.run_ns as f64 / rep.counter("workflow.steps_applied").max(1) as f64
            })
            .fold(f64::INFINITY, f64::min)
    });
    cell(
        &mut cells,
        spans,
        "txn.checker.serializability_ns_per_txn",
        |_| {
            let mut engine = fresh_engine(&store_keys);
            let mut rng = SimRng::new(9);
            for i in 0..n(10_000) as i64 {
                let tx = engine.begin(IsolationLevel::Serializable);
                let (a, b) = (rng.index(store_keys.len()), rng.index(store_keys.len()));
                let _ = engine.read(tx, &store_keys[a]);
                let _ = engine.write(tx, &store_keys[b], Some(Value::Int(i)));
                let _ = engine.commit(tx);
            }
            let footprints = engine.take_footprints();
            per_op(
                || (),
                |()| {
                    black_box(check_serializability(&footprints));
                    footprints.len() as u64
                },
            )
        },
    );

    // ----- core / workloads / bench ----------------------------------------------------
    for (name, model, mechanism) in [
        (
            "core.cell.saga_ns_per_txn",
            ProgrammingModel::Microservices,
            TxnMechanism::Saga,
        ),
        (
            "core.cell.2pc_ns_per_txn",
            ProgrammingModel::Microservices,
            TxnMechanism::TwoPhaseCommit,
        ),
        (
            "core.cell.actors_ns_per_txn",
            ProgrammingModel::VirtualActors,
            TxnMechanism::None,
        ),
        (
            "core.cell.actor-txn_ns_per_txn",
            ProgrammingModel::VirtualActors,
            TxnMechanism::ActorTransactions,
        ),
        (
            "core.cell.statefun_ns_per_txn",
            ProgrammingModel::StatefulFunctions,
            TxnMechanism::EntityLocks,
        ),
        (
            "core.cell.deterministic_ns_per_txn",
            ProgrammingModel::StatefulDataflow,
            TxnMechanism::DeterministicOrdering,
        ),
    ] {
        cell(&mut cells, spans, name, |_| {
            let params = CellParams {
                seed: 7,
                transfers: n(400),
                ..CellParams::default()
            };
            per_op(
                || (),
                |()| {
                    let report = run_cell(model, mechanism, &params);
                    report.committed + report.failed
                },
            )
        });
    }
    cell(
        &mut cells,
        spans,
        "workloads.loadgen.ns_per_request",
        |_| {
            let scale = YcsbScale {
                records: n(1_000_000) as usize,
                theta: 0.99,
            };
            let mut sampler = YcsbSampler::new(YcsbWorkload::A, &scale);
            per_op(
                || SimRng::new(4),
                |rng| {
                    for _ in 0..n(100_000) {
                        let (proc, args) = sampler.next_txn(rng);
                        black_box(Payload::new(DbMsg {
                            token: 0,
                            req: DbRequest::Call { proc, args },
                        }));
                    }
                    n(100_000)
                },
            )
        },
    );
    let (router, _) = spans.time("bench.kernel_bench.sharded_router_ns_per_event", |_| {
        let _ = kernel_bench::sharded_router(16, 8, 256, 42);
        let samples: Vec<f64> = (0..30)
            .map(|_| {
                let start = Instant::now();
                let run = kernel_bench::sharded_router(16, 8, 256, 42);
                start.elapsed().as_nanos() as f64 / run.events as f64
            })
            .collect();
        let (q1, mid, q3) = quartiles(&samples);
        (q1, mid, q3, samples.len())
    });
    cells.sharded_router = router;
    cells
        .ns
        .insert("bench.kernel_bench.sharded_router_ns_per_event", router.1);
    cells
}

/// Run one cell inside a host span and file its result under `name`.
fn cell(
    cells: &mut Cells,
    spans: &mut Spans,
    name: &'static str,
    f: impl FnOnce(&mut Spans) -> f64,
) {
    let (ns, _) = spans.time(name, f);
    cells.ns.insert(name, ns);
}

/// The fastest of three `(ns, events)` measurements of one deterministic
/// world (the event counts are equal).
fn fastest_of_three(mut f: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    (0..3)
        .map(|_| f())
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("three runs")
}

/// One coordinator, two participants, one client, disjoint keys: host ns
/// and kernel events per commit with no lock ever contended.
fn uncontended_twopc(transfers: u64) -> (f64, f64) {
    use tca_txn::{DtxOutcome, ParticipantConfig, StartDtx, TwoPcCoordinator, TwoPcParticipant};
    let mut sim = Sim::with_seed(42);
    let nodes = sim.add_nodes(3);
    let registry = || {
        tca_storage::ProcRegistry::new().with("add", |tx, args| {
            let key = args[0].as_str().to_owned();
            let have = tx.get(&key).map_or(0, |v| v.as_int());
            tx.put(&key, Value::Int(have + args[1].as_int()));
            Ok(vec![])
        })
    };
    let fleet: Vec<ProcessId> = (0..2)
        .map(|i| {
            sim.spawn(
                nodes[i],
                format!("p{i}"),
                TwoPcParticipant::factory_seeded(
                    format!("p{i}"),
                    ParticipantConfig::default(),
                    registry(),
                    Vec::new(),
                ),
            )
        })
        .collect();
    let coordinator = sim.spawn(nodes[2], "coord", TwoPcCoordinator::factory());
    let request: RequestFactory = Rc::new(move |_| {
        Payload::new(StartDtx {
            branches: vec![
                (
                    fleet[0],
                    "add".into(),
                    vec![Value::Str("a".into()), Value::Int(-1)],
                ),
                (
                    fleet[1],
                    "add".into(),
                    vec![Value::Str("b".into()), Value::Int(1)],
                ),
            ],
        })
    });
    let node = sim.add_node();
    let (factory, samples) = LoadClient::factory(
        coordinator,
        request,
        Rc::new(|p: &Payload| p.downcast_ref::<DtxOutcome>().is_some_and(|o| o.committed)),
        Pacing::Closed { clients: 1 },
        transfers,
    );
    sim.spawn(node, "load", factory);
    let start = Instant::now();
    while samples.borrow().done_at.is_none() {
        sim.run_for(SimDuration::from_millis(1));
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        samples.borrow().ok,
        transfers,
        "uncontended 2PC must commit"
    );
    (
        ns / transfers as f64,
        sim.events_processed() as f64 / transfers as f64,
    )
}
