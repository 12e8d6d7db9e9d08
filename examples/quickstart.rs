//! Quickstart: spin up a simulated cluster, run a checkout saga across
//! two service databases, crash the orchestrator mid-run, and watch the
//! journal resume it — all deterministic from the seed.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::rc::Rc;
use tca::sim::{Payload, Sim, SimDuration, SimTime};
use tca::storage::{DbMsg, DbServer, DbServerConfig, ProcRegistry, Value};
use tca::txn::saga::{SagaDef, SagaOrchestrator, SagaStep, StartSaga};
use tca::workloads::loadgen::{saga_classifier, ClosedLoopConfig, ClosedLoopGen};

fn main() {
    let mut sim = Sim::with_seed(2024);
    // Record causal spans for every request — zero schedule impact, and
    // exported as a Chrome trace at the end.
    sim.set_tracing(true);

    // 1. Two service databases (stock, payment) on their own nodes.
    let stock_node = sim.add_node();
    let pay_node = sim.add_node();
    let stock_db = sim.spawn(
        stock_node,
        "stock-db",
        DbServer::factory(
            "stock",
            DbServerConfig::default(),
            ProcRegistry::new()
                .with("reserve", |tx, args| {
                    let item = args[0].as_str().to_owned();
                    let quantity = tx.get(&item).map(|v| v.as_int()).unwrap_or(0);
                    if quantity <= 0 {
                        return Err("out of stock".into());
                    }
                    tx.put(&item, Value::Int(quantity - 1));
                    Ok(vec![Value::Int(quantity - 1)])
                })
                .with("unreserve", |tx, args| {
                    let item = args[0].as_str().to_owned();
                    let quantity = tx.get(&item).map(|v| v.as_int()).unwrap_or(0);
                    tx.put(&item, Value::Int(quantity + 1));
                    Ok(vec![])
                }),
        ),
    );
    let pay_db = sim.spawn(
        pay_node,
        "pay-db",
        DbServer::factory(
            "pay",
            DbServerConfig::default(),
            ProcRegistry::new().with("charge", |tx, args| {
                let account = args[0].as_str().to_owned();
                let amount = args[1].as_int();
                let balance = tx.get(&account).map(|v| v.as_int()).unwrap_or(0);
                if balance < amount {
                    return Err("insufficient funds".into());
                }
                tx.put(&account, Value::Int(balance - amount));
                Ok(vec![Value::Int(balance - amount)])
            }),
        ),
    );

    // 2. Seed data.
    sim.inject(
        stock_db,
        Payload::new(DbMsg::load(vec![("widget".into(), Value::Int(40))])),
    );
    sim.inject(
        pay_db,
        Payload::new(DbMsg::load(vec![("alice".into(), Value::Int(500))])),
    );

    // 3. A checkout saga: reserve stock (compensable) then charge.
    let orchestrator_node = sim.add_node();
    let orchestrator = sim.spawn(
        orchestrator_node,
        "saga",
        SagaOrchestrator::factory(vec![SagaDef {
            name: "checkout".into(),
            steps: vec![
                SagaStep::new("reserve", stock_db, "reserve", |v| {
                    vec![v.get("$0").clone()]
                })
                .compensate("unreserve", |v| vec![v.get("$0").clone()]),
                SagaStep::new("charge", pay_db, "charge", |v| {
                    vec![v.get("$1").clone(), v.get("$2").clone()]
                }),
            ],
        }]),
    );

    // 4. Closed-loop clients: 60 checkouts at 25 each (alice can afford 20).
    let client_node = sim.add_node();
    sim.spawn(
        client_node,
        "clients",
        ClosedLoopGen::factory(
            orchestrator,
            Rc::new(|_rng| {
                Payload::new(StartSaga {
                    saga: "checkout".into(),
                    args: vec![Value::from("widget"), Value::from("alice"), Value::Int(25)],
                })
            }),
            saga_classifier(),
            ClosedLoopConfig {
                clients: 4,
                limit: Some(60),
                metric: "checkout".into(),
                ..ClosedLoopConfig::default()
            },
        ),
    );

    // 5. Crash the orchestrator mid-run; the journal resumes its sagas.
    sim.schedule_crash(SimTime::from_nanos(3_000_000), orchestrator_node);
    sim.schedule_restart(SimTime::from_nanos(12_000_000), orchestrator_node);

    sim.run_for(SimDuration::from_secs(5));

    println!("virtual time elapsed : {}", sim.now());
    println!(
        "checkouts committed  : {}",
        sim.metrics().counter("checkout.ok")
    );
    println!(
        "checkouts compensated: {}",
        sim.metrics().counter("checkout.err")
    );
    println!(
        "sagas resumed after crash: {}",
        sim.metrics().counter("saga.resumed")
    );
    println!(
        "compensations run    : {}",
        sim.metrics().counter("saga.compensations")
    );

    // Audit: alice can afford exactly 20 checkouts (500 / 25); stock
    // compensations must have returned every failed reservation.
    let stock_left = sim
        .inspect::<DbServer>(stock_db)
        .and_then(|s| s.engine().peek("widget"))
        .map(|v| v.as_int())
        .unwrap_or(-1);
    let balance = sim
        .inspect::<DbServer>(pay_db)
        .and_then(|s| s.engine().peek("alice"))
        .map(|v| v.as_int())
        .unwrap_or(-1);
    println!("stock remaining      : {stock_left} (seeded 40)");
    println!("alice's balance      : {balance} (seeded 500)");
    let sold = 40 - stock_left;
    let paid = (500 - balance) / 25;
    assert_eq!(sold, paid, "saga atomicity: units sold == units paid for");
    println!("invariant holds: units sold ({sold}) == checkouts paid ({paid})");

    // Every checkout left a causal span tree (client RPC → network hops
    // → saga → steps → DB handlers). Export them for chrome://tracing
    // or https://ui.perfetto.dev.
    let trace_path = std::env::temp_dir().join("tca_quickstart_trace.json");
    std::fs::write(&trace_path, sim.chrome_trace()).expect("write trace");
    println!(
        "spans recorded       : {} ({} sagas) -> {}",
        sim.tracer().spans().len(),
        sim.tracer().spans_of_kind(tca::sim::SpanKind::Saga).count(),
        trace_path.display()
    );
}
