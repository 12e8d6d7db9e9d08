//! Online Marketplace (Laigner et al. \[38\], §5.3): a multi-service
//! e-commerce workload with cart, stock, order, and payment services and
//! a cross-service checkout — the workload whose data-management
//! anomalies motivated that benchmark.
//!
//! Two deployments are provided:
//! - **per-service registries** (`stock_registry`, `payment_registry`,
//!   `order_registry`) for the microservice/saga/2PC topologies, and
//! - a **single-database deployment** (`single_registry` + the
//!   stock-reservation read-modify-write pattern in `rmw`) for the
//!   isolation-level anomaly experiment (E11: over-selling at weak
//!   isolation).

use tca_sim::SimRng;
use tca_storage::{Key, ProcRegistry, Value};

/// Scale parameters.
#[derive(Debug, Clone)]
pub struct MarketScale {
    /// Distinct products.
    pub products: u64,
    /// Customers.
    pub customers: u64,
    /// Initial stock units per product.
    pub initial_stock: i64,
    /// Initial balance per customer.
    pub initial_balance: i64,
}

impl Default for MarketScale {
    fn default() -> Self {
        MarketScale {
            products: 50,
            customers: 100,
            initial_stock: 1000,
            initial_balance: 1_000_000,
        }
    }
}

/// Stock service seed.
pub fn stock_seed(scale: &MarketScale) -> Vec<(Key, Value)> {
    (0..scale.products)
        .map(|p| (format!("stock/{p}"), Value::Int(scale.initial_stock)))
        .collect()
}

/// Payment service seed.
pub fn payment_seed(scale: &MarketScale) -> Vec<(Key, Value)> {
    (0..scale.customers)
        .map(|c| (format!("balance/{c}"), Value::Int(scale.initial_balance)))
        .collect()
}

/// Stock service procedures.
pub fn stock_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("stock_reserve", |tx, args| {
            let product = args[0].as_int();
            let qty = args[1].as_int();
            let key = format!("stock/{product}");
            let available = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            if available < qty {
                return Err("insufficient stock".into());
            }
            tx.put(&key, Value::Int(available - qty));
            Ok(vec![Value::Int(available - qty)])
        })
        .with("stock_unreserve", |tx, args| {
            let product = args[0].as_int();
            let qty = args[1].as_int();
            let key = format!("stock/{product}");
            let available = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&key, Value::Int(available + qty));
            Ok(vec![])
        })
}

/// Payment service procedures.
pub fn payment_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("payment_charge", |tx, args| {
            let customer = args[0].as_int();
            let amount = args[1].as_int();
            let key = format!("balance/{customer}");
            let balance = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            if balance < amount {
                return Err("insufficient funds".into());
            }
            tx.put(&key, Value::Int(balance - amount));
            Ok(vec![Value::Int(balance - amount)])
        })
        .with("payment_refund", |tx, args| {
            let customer = args[0].as_int();
            let amount = args[1].as_int();
            let key = format!("balance/{customer}");
            let balance = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&key, Value::Int(balance + amount));
            Ok(vec![])
        })
}

/// Order service procedures.
pub fn order_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("order_create", |tx, args| {
            let customer = args[0].as_int();
            let total = args[1].as_int();
            let seq_key = "order_seq".to_owned();
            let next = tx.get(&seq_key).map(|v| v.as_int()).unwrap_or(0) + 1;
            tx.put(&seq_key, Value::Int(next));
            tx.put(
                &format!("order/{next}"),
                Value::List(vec![
                    Value::Int(customer),
                    Value::Int(total),
                    Value::Str("created".into()),
                ]),
            );
            Ok(vec![Value::Int(next)])
        })
        .with("order_cancel", |tx, args| {
            let order = args[0].as_int();
            let key = format!("order/{order}");
            if let Some(Value::List(mut fields)) = tx.get(&key) {
                fields[2] = Value::Str("cancelled".into());
                tx.put(&key, Value::List(fields));
            }
            Ok(vec![])
        })
}

/// Everything in one database (for single-node isolation experiments and
/// the stateful-function / dataflow deployments).
pub fn single_registry() -> ProcRegistry {
    let mut registry = ProcRegistry::new();
    // Merge the three registries' procs plus an all-in-one checkout.
    for source in [stock_registry(), payment_registry(), order_registry()] {
        for name in source.names() {
            let f = source.get(name).expect("listed");
            registry.register(name, move |tx, args| f(tx, args));
        }
    }
    registry.register("checkout", |tx, args| {
        // args: customer, product, qty, unit_price
        let customer = args[0].as_int();
        let product = args[1].as_int();
        let qty = args[2].as_int();
        let price = args[3].as_int();
        let stock_key = format!("stock/{product}");
        let available = tx.get(&stock_key).map(|v| v.as_int()).unwrap_or(0);
        if available < qty {
            return Err("insufficient stock".into());
        }
        let balance_key = format!("balance/{customer}");
        let balance = tx.get(&balance_key).map(|v| v.as_int()).unwrap_or(0);
        let total = qty * price;
        if balance < total {
            return Err("insufficient funds".into());
        }
        tx.put(&stock_key, Value::Int(available - qty));
        tx.put(&balance_key, Value::Int(balance - total));
        let next = tx.get("order_seq").map(|v| v.as_int()).unwrap_or(0) + 1;
        tx.put("order_seq", Value::Int(next));
        tx.put(
            &format!("order/{next}"),
            Value::List(vec![
                Value::Int(customer),
                Value::Int(total),
                Value::Str("created".into()),
            ]),
        );
        Ok(vec![Value::Int(next)])
    });
    registry
}

/// Sample a checkout request: `(customer, product, qty, unit_price)`.
/// `hot_product_prob` sends that fraction of checkouts to product 0 —
/// the contention knob.
pub fn next_checkout(rng: &mut SimRng, scale: &MarketScale, hot_product_prob: f64) -> Vec<Value> {
    let customer = rng.range(0, scale.customers) as i64;
    let product = if rng.chance(hot_product_prob) {
        0
    } else {
        rng.range(0, scale.products) as i64
    };
    let qty = rng.range(1, 4) as i64;
    vec![
        Value::Int(customer),
        Value::Int(product),
        Value::Int(qty),
        Value::Int(25),
    ]
}

/// Invariant audit over a quiesced marketplace database: no stock may be
/// negative, and units sold (via order records) must not exceed units
/// removed from stock plus initial stock — over-selling detection.
pub fn count_oversold(peek: impl Fn(&str) -> Option<Value>, scale: &MarketScale) -> i64 {
    let mut oversold = 0;
    for p in 0..scale.products {
        let remaining = peek(&format!("stock/{p}")).map(|v| v.as_int()).unwrap_or(0);
        if remaining < 0 {
            oversold += -remaining;
        }
    }
    oversold
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_storage::{run_proc, DurableCell, DurableLog, Engine, EngineConfig, ProcOutcome};

    fn engine(scale: &MarketScale) -> Engine {
        let mut engine = Engine::new(
            EngineConfig::default(),
            DurableLog::new(),
            DurableCell::new(),
        );
        for (key, value) in stock_seed(scale).into_iter().chain(payment_seed(scale)) {
            engine.load(&key, value);
        }
        engine
    }

    #[test]
    fn checkout_moves_stock_money_and_creates_order() {
        let scale = MarketScale::default();
        let mut e = engine(&scale);
        let registry = single_registry();
        let out = run_proc(
            &mut e,
            &registry,
            "checkout",
            &[Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(25)],
        );
        let ProcOutcome::Done(results) = out else {
            panic!("{out:?}");
        };
        assert_eq!(results[0].as_int(), 1, "order id");
        assert_eq!(e.peek("stock/2").unwrap().as_int(), scale.initial_stock - 3);
        assert_eq!(
            e.peek("balance/1").unwrap().as_int(),
            scale.initial_balance - 75
        );
        assert!(e.peek("order/1").is_some());
    }

    #[test]
    fn checkout_rejects_insufficient_stock() {
        let scale = MarketScale {
            initial_stock: 1,
            ..MarketScale::default()
        };
        let mut e = engine(&scale);
        let registry = single_registry();
        let out = run_proc(
            &mut e,
            &registry,
            "checkout",
            &[Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(25)],
        );
        assert!(matches!(out, ProcOutcome::Failed(_)));
        assert_eq!(e.peek("stock/2").unwrap().as_int(), 1, "unchanged");
    }

    #[test]
    fn reserve_then_unreserve_roundtrips() {
        let scale = MarketScale::default();
        let mut e = engine(&scale);
        let registry = stock_registry();
        run_proc(
            &mut e,
            &registry,
            "stock_reserve",
            &[Value::Int(0), Value::Int(10)],
        );
        run_proc(
            &mut e,
            &registry,
            "stock_unreserve",
            &[Value::Int(0), Value::Int(10)],
        );
        assert_eq!(e.peek("stock/0").unwrap().as_int(), scale.initial_stock);
    }

    #[test]
    fn order_ids_are_sequential() {
        let scale = MarketScale::default();
        let mut e = engine(&scale);
        let registry = order_registry();
        for expected in 1..=3 {
            let out = run_proc(
                &mut e,
                &registry,
                "order_create",
                &[Value::Int(0), Value::Int(100)],
            );
            let ProcOutcome::Done(results) = out else {
                panic!()
            };
            assert_eq!(results[0].as_int(), expected);
        }
    }

    #[test]
    fn oversold_counter_detects_negative_stock() {
        let scale = MarketScale::default();
        let mut e = engine(&scale);
        assert_eq!(count_oversold(|k| e.peek(k), &scale), 0);
        e.load(&"stock/3".to_owned(), Value::Int(-7));
        assert_eq!(count_oversold(|k| e.peek(k), &scale), 7);
    }

    #[test]
    fn checkout_sampler_respects_hot_probability() {
        let scale = MarketScale::default();
        let mut rng = SimRng::new(3);
        let hot = (0..1000)
            .filter(|_| next_checkout(&mut rng, &scale, 0.8)[1].as_int() == 0)
            .count();
        assert!(hot > 700, "hot fraction {hot}/1000");
    }
}
