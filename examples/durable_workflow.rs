//! Exactly-once workflows: an order-fulfilment chain on the
//! `tca::txn::workflow` runtime, surviving a worker crash and a lossy
//! network with zero double-applies — proven by metrics and a ledger
//! audit, not by prints.
//!
//! ```text
//! cargo run --example durable_workflow
//! ```
//!
//! Each order is one workflow instance of two steps: *reserve* takes the
//! quantity from the shared inventory, *charge* debits the customer's
//! wallet. Every step rides a 2PC transaction with a `wf_guard` fence
//! branch, so a re-driven step either replays its recorded reply from the
//! idempotence table or aborts on the fence — it never applies twice.
//! Mid-run one worker node crashes and restarts: its durable intent log
//! replays in-flight steps (`workflow.replays`), and re-drives of steps
//! that had already committed are absorbed (`workflow.steps_deduped`).

use std::rc::Rc;
use tca::messaging::rpc::RpcRequest;
use tca::sim::{NetworkConfig, Payload, Sim, SimConfig, SimDuration, SimTime};
use tca::storage::{ProcRegistry, Value};
use tca::txn::workflow::{
    deploy_workflow, peek_sharded, StartWorkflow, WorkflowConfig, WorkflowDef, WorkflowStep,
};

const ORDERS: u64 = 60;
const CUSTOMERS: u64 = 5;
const QUANTITY: i64 = 2;
const UNIT_PRICE: i64 = 30;
const INVENTORY: i64 = 100;
const WALLET: i64 = 10_000;

/// Inventory `take` and wallet `charge`, both guarded: a step whose
/// business check fails aborts its whole 2PC transaction, so a rejected
/// order leaves no partial effects.
fn fulfilment_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("take", |tx, args| {
            let key = args[0].as_str().to_owned();
            let n = args[1].as_int();
            let quantity = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            if quantity < n {
                return Err("insufficient inventory".into());
            }
            tx.put(&key, Value::Int(quantity - n));
            Ok(vec![Value::Int(quantity - n)])
        })
        .with("charge", |tx, args| {
            let key = args[0].as_str().to_owned();
            let amount = args[1].as_int();
            let balance = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            if balance < amount {
                return Err("insufficient funds".into());
            }
            tx.put(&key, Value::Int(balance - amount));
            Ok(vec![Value::Int(balance - amount)])
        })
}

/// `fulfil(args = [wallet_key, quantity])`: reserve stock, then charge
/// the wallet at `UNIT_PRICE` per unit.
fn fulfil_def() -> WorkflowDef {
    WorkflowDef {
        name: "fulfil".into(),
        steps: vec![
            WorkflowStep {
                name: "reserve".into(),
                ops: Rc::new(|args: &[Value]| {
                    vec![(
                        "inv:gadget".into(),
                        "take".into(),
                        vec![
                            Value::Str("inv:gadget".into()),
                            Value::Int(args[1].as_int()),
                        ],
                    )]
                }),
            },
            WorkflowStep {
                name: "charge".into(),
                ops: Rc::new(|args: &[Value]| {
                    let wallet = args[0].as_str().to_owned();
                    vec![(
                        wallet.clone(),
                        "charge".into(),
                        vec![
                            Value::Str(wallet),
                            Value::Int(args[1].as_int() * UNIT_PRICE),
                        ],
                    )]
                }),
            },
        ],
    }
}

fn main() {
    let mut sim = Sim::new(SimConfig {
        seed: 99,
        network: NetworkConfig::lossy(0.04, 0.02),
    });
    let n_orch = sim.add_node();
    let worker_nodes: Vec<_> = (0..2).map(|_| sim.add_node()).collect();
    let n_coord = sim.add_node();
    let shard_nodes: Vec<_> = (0..2).map(|_| sim.add_node()).collect();

    let mut seeds = vec![("inv:gadget".to_string(), Value::Int(INVENTORY))];
    for c in 0..CUSTOMERS {
        seeds.push((format!("wallet:cust{c}"), Value::Int(WALLET)));
    }
    let deploy = deploy_workflow(
        &mut sim,
        n_orch,
        &worker_nodes,
        n_coord,
        &shard_nodes,
        &fulfilment_registry(),
        &seeds,
        &[fulfil_def()],
        WorkflowConfig::default(),
    );

    for i in 0..ORDERS {
        sim.inject_at(
            SimTime::ZERO + SimDuration::from_millis(1 + 12 * i),
            deploy.orchestrator,
            Payload::new(RpcRequest::new(
                i,
                Payload::new(StartWorkflow {
                    workflow: "fulfil".into(),
                    args: vec![
                        Value::Str(format!("wallet:cust{}", i % CUSTOMERS)),
                        Value::Int(QUANTITY),
                    ],
                }),
            )),
        );
    }

    // Crash one worker node mid-stream and bring it back: in-flight
    // steps recover from the durable intent log.
    sim.schedule_crash(
        SimTime::ZERO + SimDuration::from_millis(150),
        worker_nodes[0],
    );
    sim.schedule_restart(
        SimTime::ZERO + SimDuration::from_millis(300),
        worker_nodes[0],
    );
    sim.run_for(SimDuration::from_secs(15));

    let fulfilled = sim.metrics().counter("workflow.completed");
    let rejected = sim.metrics().counter("workflow.failed");
    let replays = sim.metrics().counter("workflow.replays");
    let deduped = sim.metrics().counter("workflow.steps_deduped");
    let fenced = sim.metrics().counter("workflow.guard_recoveries");
    println!("orders fulfilled : {fulfilled}");
    println!("orders rejected  : {rejected} (inventory runs out at 50 orders of 2)");
    println!("intent-log replays after the crash : {replays}");
    println!("re-driven steps served from idempotence table : {deduped}");
    println!("re-driven steps absorbed on the wf_guard fence: {fenced}");

    // The verdicts: every order resolves, and stock bounds fulfilment.
    assert_eq!(
        fulfilled + rejected,
        ORDERS,
        "every order reaches a verdict"
    );
    assert_eq!(
        fulfilled,
        (INVENTORY / QUANTITY) as u64,
        "inventory of {INVENTORY} gadgets = exactly {} orders of {QUANTITY}",
        INVENTORY / QUANTITY
    );

    // Exactly-once, asserted from metrics: the crash forced intent-log
    // replays, and at least one re-driven step was deduplicated instead
    // of re-executed.
    assert!(replays > 0, "the worker crash must force intent replays");
    assert!(
        deduped + fenced > 0,
        "re-driven steps must be absorbed, not re-applied"
    );

    // Ledger audit: double-applied steps would overdraw these.
    let inv = peek_sharded(&sim, &deploy.participants, &deploy.map, "inv:gadget");
    assert_eq!(inv, Some(0), "every unit sold exactly once");
    let wallets: i64 = (0..CUSTOMERS)
        .map(|c| {
            peek_sharded(
                &sim,
                &deploy.participants,
                &deploy.map,
                &format!("wallet:cust{c}"),
            )
            .unwrap_or(0)
        })
        .sum();
    assert_eq!(
        wallets,
        CUSTOMERS as i64 * WALLET - fulfilled as i64 * QUANTITY * UNIT_PRICE,
        "wallets charged exactly once per fulfilled order"
    );
    println!("\nexactly-once held: stock and wallets both balance to the order log.");
}
