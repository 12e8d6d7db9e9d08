//! End-to-end Online Marketplace: checkout saga across three service
//! databases under concurrent load and failures, with invariant audits.

use std::rc::Rc;

use tca::sim::{Payload, Sim, SimDuration, SimTime};
use tca::storage::{DbMsg, DbServer, DbServerConfig, Value};
use tca::txn::saga::{SagaDef, SagaOrchestrator, SagaStep, StartSaga};
use tca::workloads::loadgen::{saga_classifier, ClosedLoopConfig, ClosedLoopGen};
use tca::workloads::marketplace::{
    next_checkout, payment_registry, payment_seed, stock_registry, stock_seed, MarketScale,
};

struct World {
    sim: Sim,
    stock_db: tca::sim::ProcessId,
    pay_db: tca::sim::ProcessId,
    scale: MarketScale,
}

fn build(seed: u64, scale: MarketScale) -> World {
    let mut sim = Sim::with_seed(seed);
    let n1 = sim.add_node();
    let n2 = sim.add_node();
    let n3 = sim.add_node();
    let n4 = sim.add_node();
    let stock_db = sim.spawn(
        n1,
        "stock-db",
        DbServer::factory("stock", DbServerConfig::default(), stock_registry()),
    );
    let pay_db = sim.spawn(
        n2,
        "pay-db",
        DbServer::factory("pay", DbServerConfig::default(), payment_registry()),
    );
    sim.inject(stock_db, Payload::new(DbMsg::load(stock_seed(&scale))));
    sim.inject(pay_db, Payload::new(DbMsg::load(payment_seed(&scale))));
    let saga = SagaDef {
        name: "checkout".into(),
        steps: vec![
            // reserve(product, qty) — compensable
            SagaStep::new("reserve", stock_db, "stock_reserve", |v| {
                vec![v.get("$1").clone(), v.get("$2").clone()]
            })
            .compensate("stock_unreserve", |v| {
                vec![v.get("$1").clone(), v.get("$2").clone()]
            }),
            // charge(customer, qty * price)
            SagaStep::new("charge", pay_db, "payment_charge", |v| {
                let qty = v.get("$2").as_int();
                let price = v.get("$3").as_int();
                vec![v.get("$0").clone(), Value::Int(qty * price)]
            }),
        ],
    };
    let orchestrator = sim.spawn(n3, "saga", SagaOrchestrator::factory(vec![saga]));
    let gen_scale = scale.clone();
    sim.spawn(
        n4,
        "load",
        ClosedLoopGen::factory(
            orchestrator,
            Rc::new(move |rng| {
                Payload::new(StartSaga {
                    saga: "checkout".into(),
                    args: next_checkout(rng, &gen_scale, 0.3),
                })
            }),
            saga_classifier(),
            ClosedLoopConfig {
                clients: 8,
                limit: Some(300),
                metric: "checkout".into(),
                ..ClosedLoopConfig::default()
            },
        ),
    );
    World {
        sim,
        stock_db,
        pay_db,
        scale,
    }
}

fn audit(world: &World) {
    // Invariant 1: no negative stock.
    let stock = world.sim.inspect::<DbServer>(world.stock_db).expect("up");
    let mut units_sold = 0i64;
    for p in 0..world.scale.products {
        let remaining = stock
            .engine()
            .peek(&format!("stock/{p}"))
            .map(|v| v.as_int())
            .unwrap_or(0);
        assert!(remaining >= 0, "product {p} oversold: {remaining}");
        units_sold += world.scale.initial_stock - remaining;
    }
    // Invariant 2: money collected equals units sold × 25 (unit price in
    // next_checkout).
    let pay = world.sim.inspect::<DbServer>(world.pay_db).expect("up");
    let mut collected = 0i64;
    for c in 0..world.scale.customers {
        let balance = pay
            .engine()
            .peek(&format!("balance/{c}"))
            .map(|v| v.as_int())
            .unwrap_or(0);
        collected += world.scale.initial_balance - balance;
    }
    assert_eq!(
        collected,
        units_sold * 25,
        "money collected must match units sold"
    );
}

#[test]
fn checkout_saga_conserves_invariants_under_load() {
    let mut world = build(
        31,
        MarketScale {
            products: 10,
            customers: 20,
            initial_stock: 50,
            initial_balance: 10_000,
        },
    );
    world.sim.run_for(SimDuration::from_secs(10));
    let committed = world.sim.metrics().counter("checkout.ok");
    let compensated = world.sim.metrics().counter("checkout.err");
    assert_eq!(committed + compensated, 300, "all checkouts terminal");
    assert!(committed > 0);
    audit(&world);
}

#[test]
fn checkout_saga_survives_orchestrator_and_service_crashes() {
    let mut world = build(
        32,
        MarketScale {
            products: 5,
            customers: 10,
            initial_stock: 100,
            initial_balance: 100_000,
        },
    );
    // Crash the saga orchestrator AND the stock DB at different times.
    let orch_node = tca::sim::NodeId(2);
    let stock_node = tca::sim::NodeId(0);
    world
        .sim
        .schedule_crash(SimTime::from_nanos(5_000_000), orch_node);
    world
        .sim
        .schedule_restart(SimTime::from_nanos(20_000_000), orch_node);
    world
        .sim
        .schedule_crash(SimTime::from_nanos(40_000_000), stock_node);
    world
        .sim
        .schedule_restart(SimTime::from_nanos(60_000_000), stock_node);
    world.sim.run_for(SimDuration::from_secs(30));
    // Whatever committed or compensated, the cross-service invariants
    // hold after recovery (saga journal + WAL recovery + idempotent
    // step re-execution).
    audit(&world);
    let done =
        world.sim.metrics().counter("checkout.ok") + world.sim.metrics().counter("checkout.err");
    assert!(done > 100, "most checkouts reach a verdict: {done}");
}
