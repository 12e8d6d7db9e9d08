//! Chaos tests: random seeds, lossy/duplicating networks, and repeated
//! crash-restart cycles. The guarantees that must survive anything:
//! exactly-once effect application, money conservation, and
//! serializability of the deterministic mechanism.

use std::rc::Rc;

use tca::messaging::rpc::{BreakerConfig, RetryBudget, RetryPolicy};
use tca::messaging::{delivery_torture_scenario, DedupReceiver, DeliveryGuarantee, ReliableSender};
use tca::sim::{
    torture, torture_plan, Ctx, FaultEvent, FaultPlan, FaultProfile, NetworkConfig, Payload,
    Process, ProcessId, Sim, SimConfig, SimDuration, SimTime, TortureConfig,
};
use tca::storage::{DbMsg, DbServer, DbServerConfig, ProcRegistry, Value};
use tca::txn::worlds::ShardedTwoPcWorld;
use tca::txn::{
    actor_torture_scenario, dataflow_torture_scenario, saga_torture_scenario,
    workflow_torture_scenario, ParticipantConfig, TwoPcParticipant, World,
};
use tca::workloads::loadgen::{db_classifier, ClosedLoopConfig, ClosedLoopGen};
use tca::workloads::marketplace::{
    count_oversold, next_checkout, payment_seed, single_registry, stock_seed, MarketScale,
};
use tca::workloads::{OverloadConfig, OverloadGen, OverloadPhase};

struct Producer {
    dest: ProcessId,
    sender: ReliableSender,
    remaining: u32,
}
impl Process for Producer {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_micros(300), 1);
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
            ctx.metrics().incr("chaos.sent", 1);
            ctx.set_timer(SimDuration::from_micros(300), 1);
        }
    }
}

struct Applier {
    receiver: DedupReceiver,
}
impl Process for Applier {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if self.receiver.accept(ctx, from, &payload).is_some() {
            ctx.metrics().incr("chaos.applied", 1);
        }
    }
}

#[test]
fn exactly_once_holds_across_seeds_and_loss_rates() {
    for seed in 1..=8u64 {
        let drop = 0.05 * (seed % 4) as f64;
        let dup = 0.03 * (seed % 3) as f64;
        let mut sim = Sim::new(SimConfig {
            seed,
            network: NetworkConfig::lossy(drop, dup),
        });
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let app = sim.spawn(n1, "applier", |_| {
            Box::new(Applier {
                receiver: DedupReceiver::new(DeliveryGuarantee::ExactlyOnce, 1 << 16),
            })
        });
        sim.spawn(n0, "producer", move |_| {
            Box::new(Producer {
                dest: app,
                sender: ReliableSender::new(
                    DeliveryGuarantee::ExactlyOnce,
                    SimDuration::from_millis(2),
                    30,
                ),
                remaining: 300,
            })
        });
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(
            sim.metrics().counter("chaos.applied"),
            300,
            "seed {seed}, drop {drop}, dup {dup}"
        );
    }
}

#[test]
fn db_server_survives_repeated_crash_cycles_with_no_lost_commits() {
    // A counter bumped through RPC (idempotent via dedup); the DB node
    // crashes and restarts 5 times. Every acknowledged bump must be in
    // the recovered state; the counter never exceeds acked + in-flight.
    let mut sim = Sim::with_seed(77);
    let n_db = sim.add_node();
    let n_load = sim.add_node();
    let registry = ProcRegistry::new().with("bump", |tx, _| {
        let v = tx.get("counter").map(|v| v.as_int()).unwrap_or(0);
        tx.put("counter", Value::Int(v + 1));
        Ok(vec![Value::Int(v + 1)])
    });
    let db = sim.spawn(
        n_db,
        "db",
        DbServer::factory("db", DbServerConfig::default(), registry),
    );
    sim.spawn(
        n_load,
        "load",
        ClosedLoopGen::factory(
            db,
            Rc::new(|_| Payload::new(DbMsg::call("bump", vec![]))),
            db_classifier(),
            ClosedLoopConfig {
                clients: 4,
                limit: Some(400),
                metric: "bump".into(),
                ..ClosedLoopConfig::default()
            },
        ),
    );
    for cycle in 0..5u64 {
        let at = 5_000_000 + cycle * 20_000_000;
        sim.schedule_crash(SimTime::from_nanos(at), n_db);
        sim.schedule_restart(SimTime::from_nanos(at + 8_000_000), n_db);
    }
    sim.run_for(SimDuration::from_secs(20));
    let acked = sim.metrics().counter("bump.ok");
    let failed = sim.metrics().counter("bump.err");
    assert_eq!(acked + failed, 400, "every request terminal");
    let counter = sim
        .inspect::<DbServer>(db)
        .and_then(|s| s.engine().peek("counter"))
        .map(|v| v.as_int())
        .unwrap_or(0) as u64;
    // Durability: every acked bump survived all 5 crashes. (The counter
    // may exceed `acked` when a commit's reply was lost in a crash —
    // committed but reported failed to the client — but never the
    // reverse, and never by more than the failed count.)
    assert!(
        counter >= acked,
        "acked {acked} > recovered counter {counter}"
    );
    assert!(
        counter <= acked + failed,
        "counter {counter} exceeds all issued requests"
    );
}

#[test]
fn bulk_loaded_state_survives_a_crash_before_any_commit() {
    // A bulk load is a base image, not WAL records: it must be durable on
    // its own. Crash right after loading — no commit, no checkpoint — and
    // every loaded key is served again after the restart, by a `DbServer`
    // loaded through `DbRequest::Load` and by a seeded 2PC participant.
    let seed: Vec<(String, Value)> = (0..100)
        .map(|i| (format!("acct{i:03}"), Value::Int(1_000 + i)))
        .collect();
    let mut sim = Sim::with_seed(5);
    let node = sim.add_node();
    let db = sim.spawn(
        node,
        "db",
        DbServer::factory("db", DbServerConfig::default(), ProcRegistry::new()),
    );
    let participant = sim.spawn(
        node,
        "participant",
        TwoPcParticipant::factory_seeded(
            "participant",
            ParticipantConfig::default(),
            ProcRegistry::new(),
            seed.clone(),
        ),
    );
    sim.inject(db, Payload::new(DbMsg::load(seed.clone())));
    sim.run_for(SimDuration::from_millis(1));
    sim.crash_node(node);
    sim.run_for(SimDuration::from_millis(1));
    sim.restart_node(node);
    sim.run_for(SimDuration::from_millis(1));

    let server = sim.inspect::<DbServer>(db).expect("db restarted");
    assert!(server.engine().wal().is_empty(), "a load writes no records");
    assert_eq!(server.engine().peek_prefix(""), seed);
    assert_eq!(server.engine().clock(), seed.len() as u64);
    let participant = sim
        .inspect::<TwoPcParticipant>(participant)
        .expect("participant restarted");
    assert_eq!(participant.engine().peek_prefix(""), seed);
    assert_eq!(participant.engine().clock(), seed.len() as u64);
}

// ---------------------------------------------------------------------------
// Fault-plan torture sweeps (see tca_sim::faults). Each scenario audits
// atomicity / conservation / exactly-once / no-stuck-locks after every
// fault in the plan has healed; failures print the reproducing seed and
// plan. The 2PC sweep lives in tests/torture_2pc.rs with its pinned
// regressions. Widen any sweep with TCA_TORTURE_SEEDS=100.
// ---------------------------------------------------------------------------

#[test]
fn workflow_torture_sweep() {
    // The exactly-once workflow runtime with orchestrator AND worker
    // crashes mid-chain — including the crash-during-recovery profile
    // (a restart followed by a second crash inside the grace window),
    // which is precisely where intent-log replay and the wf_guard fence
    // must hold the line. Audits exactly-once step application (every
    // marker reads 1), conservation, no stranded workflows, no residue.
    let config = TortureConfig::from_env(6, 3, FaultProfile::crash_during_recovery());
    torture("workflow", &config, workflow_torture_scenario);
}

#[test]
fn workflow_torture_benign_plan_completes_every_chain() {
    // Pinned fault-free regression: all six chains must complete and
    // every audit (markers, conservation, GC residue) must hold exactly.
    let plan = FaultPlan::benign(SimDuration::from_millis(400));
    workflow_torture_scenario(7, &plan).expect("benign workflow plan must be clean");
}

#[test]
fn saga_torture_sweep() {
    // Orchestrator crash-restarts, partitions, ambient loss/duplication:
    // sagas must end terminal with stock and money conserved.
    let config = TortureConfig::from_env(6, 3, FaultProfile::default());
    torture("saga", &config, saga_torture_scenario);
}

#[test]
fn delivery_torture_sweep() {
    // No endpoint crashes (sender/receiver delivery state is volatile by
    // design); partitions and loss/duplication only.
    let config = TortureConfig::from_env(6, 3, FaultProfile::default());
    torture("delivery", &config, delivery_torture_scenario);
}

#[test]
fn actor_torture_sweep() {
    // The app-level actor transaction protocol has no durable log, so the
    // profile stays inside what it claims to survive: bounded loss and
    // duplication (silos dedup retried invocations), but no crashes or
    // partitions — volatile actor state cannot outlive its silo.
    let profile = FaultProfile {
        max_crash_cycles: 0,
        max_partition_windows: 0,
        max_drop_prob: 0.04,
        ..FaultProfile::default()
    };
    let config = TortureConfig::from_env(6, 3, profile);
    torture("actor-txn", &config, actor_torture_scenario);
}

/// Overload × partition: a marketplace checkout database driven at 2×
/// capacity by the full resilience stack (propagated 20ms deadlines,
/// jittered budgeted retries, circuit breaker, server admission control)
/// while the sweep's random faults run — plus a deterministic partition
/// window placed *after* the plan's horizon so every (seed, plan) pair
/// exercises breaker open → shed → half-open → recovery. The audit
/// checks the transactional invariants survived the storm: no
/// over-selling, money conserved against order records, and no checkout
/// applied more times than it was issued (exactly-once under retries and
/// network duplication).
fn overload_partition_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let scale = MarketScale::default();
    let mut sim = Sim::with_seed(seed);
    let n_db = sim.add_node();
    let n_load = sim.add_node();
    let db = sim.spawn(
        n_db,
        "db",
        DbServer::factory(
            "db",
            DbServerConfig {
                // 1ms commits ⇒ capacity ≈ 1k checkouts/s.
                commit_latency: SimDuration::from_millis(1),
                max_queue_wait: Some(SimDuration::from_millis(10)),
            },
            single_registry(),
        ),
    );
    let pairs: Vec<_> = stock_seed(&scale)
        .into_iter()
        .chain(payment_seed(&scale))
        .collect();
    sim.inject(db, Payload::new(DbMsg::load(pairs)));
    let req_scale = scale.clone();
    sim.spawn(
        n_load,
        "load",
        OverloadGen::factory(
            db,
            Rc::new(move |rng| {
                Payload::new(DbMsg::call("checkout", next_checkout(rng, &req_scale, 0.2)))
            }),
            db_classifier(),
            OverloadConfig {
                phases: vec![
                    // 2× capacity across the plan's faults and the
                    // deterministic partition …
                    OverloadPhase::new(
                        SimDuration::from_millis(450),
                        SimDuration::from_micros(500),
                    ),
                    OverloadPhase::new(
                        SimDuration::from_millis(100),
                        SimDuration::from_micros(500),
                    ),
                    // … then 0.5× after the heal: the recovery window.
                    OverloadPhase::new(SimDuration::from_millis(250), SimDuration::from_millis(2)),
                ],
                metric: "op".into(),
                deadline: Some(SimDuration::from_millis(20)),
                propagate_deadline: true,
                retry: RetryPolicy::retrying(2, SimDuration::from_millis(15)).with_jitter(0.5),
                budget: Some(RetryBudget::default()),
                breaker: Some(BreakerConfig::default()),
            },
        ),
    );
    // The sweep's ambient loss/duplication and random partition windows
    // (no crashes: durable-state recovery is the other sweeps' job).
    plan.apply(&mut sim, &[], &[n_db, n_load]);
    // Deterministic partition after the plan horizon (400ms): a plan Heal
    // heals *everything*, so the window must not overlap plan events.
    sim.schedule_partition(SimTime::from_nanos(450_000_000), vec![n_load], vec![n_db]);
    sim.schedule_heal(SimTime::from_nanos(550_000_000));
    sim.run_for(SimDuration::from_millis(1300));

    let m = sim.metrics();
    let fail = |what: String| -> Result<(), String> { Err(what) };
    if m.counter("breaker.open") == 0 {
        return fail("breaker never opened during the partition".into());
    }
    if m.counter("breaker.half_open") == 0 {
        return fail("breaker never probed after the heal".into());
    }
    if m.counter("rpc.shed") == 0 {
        return fail("open breaker shed no calls".into());
    }
    let recovered = m.counter("op.phase2.goodput");
    if recovered == 0 {
        return fail("no goodput after the heal — the stack did not recover".into());
    }
    // Transactional audit over the quiesced database.
    let peek = |key: &str| {
        sim.inspect::<DbServer>(db)
            .and_then(|s| s.engine().peek(key))
    };
    let oversold = count_oversold(peek, &scale);
    if oversold != 0 {
        return fail(format!("{oversold} units oversold"));
    }
    let spent: i64 = (0..scale.customers)
        .map(|c| {
            scale.initial_balance
                - peek(&format!("balance/{c}"))
                    .map(|v| v.as_int())
                    .unwrap_or(scale.initial_balance)
        })
        .sum();
    let orders = peek("order_seq").map(|v| v.as_int()).unwrap_or(0);
    let order_value: i64 = (1..=orders)
        .map(|o| match peek(&format!("order/{o}")) {
            Some(Value::List(fields)) => fields.get(1).map(|v| v.as_int()).unwrap_or(0),
            _ => 0,
        })
        .sum();
    if spent != order_value {
        return fail(format!(
            "money not conserved: balances dropped {spent} but orders record {order_value}"
        ));
    }
    let issued = m.counter("op.issued");
    if (orders as u64) > issued {
        return fail(format!(
            "exactly-once violated: {orders} checkouts applied from {issued} issued"
        ));
    }
    Ok(())
}

#[test]
fn overload_partition_torture_sweep() {
    let config = TortureConfig::from_env(6, 3, FaultProfile::default());
    torture("overload-partition", &config, overload_partition_scenario);
}

/// Cross-shard 2PC torture: the sharded 2PC world of `tca::txn::worlds` —
/// three `TwoPcParticipant` shards own a keyspace through the same
/// consistent-hash ring the router uses, and every transfer's debit and
/// credit live on *different* shards, so commitment always spans the
/// ring. The plan's random faults run first (coordinator crashes,
/// partitions, ambient loss/duplication) under six transfers, then a
/// deterministic window isolates shard 0 from everyone — including the
/// coordinator — while the last two transfers are in flight, catching
/// prepare/decision traffic mid-protocol. The world's audit checks
/// atomicity per transfer (debit applied iff credit applied), conservation
/// across the whole fleet, and no stuck locks or in-doubt branches
/// anywhere after heal + grace.
fn sharded_twopc_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    const TRANSFERS: u64 = 8;
    let world = ShardedTwoPcWorld::new(3, TRANSFERS, 10, 100, 100);
    let mut sim = Sim::with_seed(seed);
    let handles = world.deploy(&mut sim);
    let (crashable, partitionable) = world.fault_nodes(&sim, &handles);
    // The isolation window rides on the plan as two more events, placed
    // after the horizon (400ms): a plan Heal heals *everything*, so the
    // window must not overlap the generated events. Index 0 of the
    // partitionable nodes is shard 0.
    let mut faulty = plan.clone();
    faulty.events.push(FaultEvent::Partition {
        cut: vec![0],
        at: SimDuration::from_millis(450),
    });
    faulty.events.push(FaultEvent::Heal {
        at: SimDuration::from_millis(550),
    });
    faulty.apply(&mut sim, &crashable, &partitionable);
    // Six transfers across the plan's fault window …
    let span = plan.horizon.as_nanos() * 3 / 4;
    for t in 0..TRANSFERS - 2 {
        let at = 1_000_000 + span * t / (TRANSFERS - 2);
        world.submit(&mut sim, &handles, t, SimTime::from_nanos(at));
    }
    // … and the last two while shard 0 is cut off: prepares or decisions
    // for their shard-0 branches are lost mid-protocol until the heal.
    for t in TRANSFERS - 2..TRANSFERS {
        let at = 455_000_000 + t * 5_000_000;
        world.submit(&mut sim, &handles, t, SimTime::from_nanos(at));
    }
    sim.run_until(SimTime::from_nanos(550_000_000) + SimDuration::from_millis(800));

    world.audit(&sim, &handles, Some(&faulty))?;
    // The window is a fault even under the benign plan, so only the six
    // transfers before it are owed a commit (two branch commits each).
    let branch_commits: u64 = (0..3)
        .map(|s| sim.metrics().counter(&format!("s{s}.commits")))
        .sum();
    if plan.is_benign() && branch_commits < 2 * (TRANSFERS - 2) {
        return Err(format!(
            "benign plan must commit the {} pre-partition transfers, got {} branch commits",
            TRANSFERS - 2,
            branch_commits
        ));
    }
    Ok(())
}

#[test]
fn sharded_twopc_torture_sweep() {
    let config = TortureConfig::from_env(6, 3, FaultProfile::default());
    torture("sharded-2pc", &config, sharded_twopc_scenario);
}

#[test]
fn dataflow_torture_sweep() {
    // The epoch-batched deterministic engine under the full default
    // profile: shard crash-restart cycles (checkpoint + journal-replay
    // recovery is the claim under test), partitions on every link, and
    // ambient loss/duplication. The scenario audits exactly-once output,
    // conservation, and convergence of every shard to the last epoch.
    let config = TortureConfig::from_env(6, 3, FaultProfile::default());
    torture("dataflow", &config, dataflow_torture_scenario);
}

#[test]
fn regression_dataflow_share_pulls_survive_responder_crash() {
    // Found by the dataflow torture sweep at seed 3, plan #2 (drop=0.146,
    // two crash cycles + a partition window). A shard's sent-share cache
    // is volatile: when it crashed *after* completing an epoch, a peer
    // that had lost the pushed WaveShare kept pulling shares the restarted
    // shard no longer had, wedging the peer's epoch forever (8 of 11
    // outcomes emitted). ShareReq for an applied epoch is now answered
    // from the durable journal — whose entries are retained until the
    // fleet watermark passes them, exactly the window in which a pull can
    // still arrive.
    let plan = torture_plan(3, 2, &FaultProfile::default());
    dataflow_torture_scenario(3, &plan)
        .expect("share pulls must be answerable after the responder restarts");
}

#[test]
fn regression_dataflow_shard_crash_mid_epoch() {
    // Deterministic mid-epoch crash: a shard dies between the first
    // epoch's close (~1.5ms after the first submit) and its completion,
    // taking its in-flight run and early shares with it, then restarts
    // while the sequencer is still retransmitting. Recovery must rebuild
    // from disk, re-ack, replay the epoch stream, and leave every
    // transaction applied exactly once — the hand-built analogue of what
    // the sweep explores randomly.
    let plan = FaultPlan {
        events: vec![
            FaultEvent::Crash {
                node: 1, // second crashable node = shard 1
                at: SimDuration::from_micros(2_200),
            },
            FaultEvent::Restart {
                node: 1,
                at: SimDuration::from_millis(9),
            },
        ],
        drop_prob: 0.0,
        dup_prob: 0.0,
        horizon: SimDuration::from_millis(400),
    };
    dataflow_torture_scenario(11, &plan)
        .expect("mid-epoch shard crash must recover with exactly-once effects");
}

// ---------------------------------------------------------------------------
// Pinned regressions for bugs the sweeps flushed out. Each replays the
// exact (seed, plan) pair the torture report printed, under the profile
// in force when the bug was found, so the failure is deterministic.
// ---------------------------------------------------------------------------

/// The actor sweep profile as it was when the two actor bugs below were
/// found (duplication was off; loss alone triggered both).
fn actor_profile_as_found() -> FaultProfile {
    FaultProfile {
        max_crash_cycles: 0,
        max_partition_windows: 0,
        max_drop_prob: 0.04,
        max_dup_prob: 0.0,
        ..FaultProfile::default()
    }
}

#[test]
fn regression_actor_lost_directory_lookup_is_retried() {
    // Found by the actor torture sweep at seed 2, plan #2 (drop=0.036).
    // The router sent DirLookup as a plain message with no retry, so one
    // dropped lookup (or its DirLocation reply) stranded the invocation
    // forever: the driver wedged with 3 of 6 transfers unresolved. The
    // route-retry timer now re-sends outstanding lookups, charging each
    // queued invocation an attempt so a dead directory still fails the
    // call instead of hanging it.
    let plan = torture_plan(2, 2, &actor_profile_as_found());
    actor_torture_scenario(2, &plan).expect("lookup loss must not wedge invocations");
}

#[test]
fn regression_actor_invoke_retry_is_deduplicated() {
    // Found by the actor torture sweep at seed 1, plan #1 (drop=0.035).
    // A lost ActorInvoke *reply* made the router's rpc layer re-deliver
    // the request, and the silo re-executed a non-idempotent credit —
    // minting 20 units (balances summed to 220, expected 200). Silos now
    // remember (caller, wire id) outcomes and replay the recorded reply
    // for duplicates instead of re-running the method.
    let plan = torture_plan(1, 1, &actor_profile_as_found());
    actor_torture_scenario(1, &plan).expect("invoke retries must not double-apply");
}

#[test]
fn regression_saga_instance_ids_survive_orchestrator_restart() {
    // Found by the saga torture sweep at seed 2, plan #2 (rerun with
    // TCA_TORTURE_SEEDS=2..3). An orchestrator crash after every journaled
    // saga had finished (journal empty) restarted the instance counter at
    // 1, reusing a dead saga's id; the deterministic step wire ids then
    // collided, the database's idempotency cache replayed the dead saga's
    // recorded replies, and a fresh saga "committed" with no real effect
    // (6 committed but stock moved 5 and balance moved 50). Instance ids
    // are now epoched on boot time, like 2PC transaction ids.
    let plan = torture_plan(2, 2, &FaultProfile::default());
    saga_torture_scenario(2, &plan).expect("replayed ids must not fake saga commits");
}
