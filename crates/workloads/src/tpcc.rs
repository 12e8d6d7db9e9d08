//! TPC-C lite: the NewOrder/Payment mix, scaled to simulation size.
//!
//! TPC-C is the transactional benchmark recent SFaaS work evaluates
//! against (§5.3 / Styx \[52\]). This module provides the schema seed, the
//! stored procedures, and the transaction-mix sampler; the harness wires
//! them onto whichever runtime is being measured.
//!
//! Key layout (all in one logical database; shard by warehouse prefix if
//! needed): `w/{w}` warehouse YTD, `d/{w}/{d}` district (List [next_o_id,
//! ytd]), `c/{w}/{d}/{c}` customer (List [balance, ytd_payment, paid_cnt]),
//! `s/{w}/{i}` stock quantity, `i/{i}` item price, `o/{w}/{d}/{o}` order
//! record.

use tca_sim::SimRng;
use tca_storage::{Pairs, ProcRegistry, Value};

/// Scale parameters (a full TPC-C warehouse is far larger; these defaults
/// keep simulations fast while preserving the access pattern).
#[derive(Debug, Clone)]
pub struct TpccScale {
    /// Number of warehouses.
    pub warehouses: u64,
    /// Districts per warehouse.
    pub districts: u64,
    /// Customers per district.
    pub customers: u64,
    /// Item catalog size.
    pub items: u64,
}

impl Default for TpccScale {
    fn default() -> Self {
        TpccScale {
            warehouses: 2,
            districts: 10,
            customers: 30,
            items: 100,
        }
    }
}

/// Seed data for [`tca_storage::DbRequest::Load`], its keys formatted
/// straight into the batch's arena, at exact capacity.
pub fn seed(scale: &TpccScale) -> Pairs {
    let mut pairs = Pairs::new();
    for w in 0..scale.warehouses {
        pairs.push_fmt(format_args!("w/{w}"), Value::Int(0));
        for d in 0..scale.districts {
            pairs.push_fmt(
                format_args!("d/{w}/{d}"),
                Value::List(vec![Value::Int(1), Value::Int(0)]),
            );
            for c in 0..scale.customers {
                pairs.push_fmt(
                    format_args!("c/{w}/{d}/{c}"),
                    Value::List(vec![Value::Int(0), Value::Int(0), Value::Int(0)]),
                );
            }
        }
        for i in 0..scale.items {
            pairs.push_fmt(format_args!("s/{w}/{i}"), Value::Int(100));
        }
    }
    for i in 0..scale.items {
        pairs.push_fmt(format_args!("i/{i}"), Value::Int(10 + (i as i64 % 90)));
    }
    pairs.shrink_to_fit();
    pairs
}

/// The NewOrder and Payment stored procedures.
pub fn registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("new_order", |tx, args| {
            // args: w, d, c, [item, qty]*
            let w = args[0].as_int();
            let d = args[1].as_int();
            let _c = args[2].as_int();
            let district_key = format!("d/{w}/{d}");
            let district = tx
                .get(&district_key)
                .ok_or_else(|| "missing district".to_string())?;
            let next_o_id = district.as_list()[0].as_int();
            let ytd = district.as_list()[1].as_int();
            let mut total = 0i64;
            let mut lines = Vec::new();
            let mut idx = 3;
            while idx + 1 < args.len() + 1 && idx < args.len() {
                let item = args[idx].as_int();
                let qty = args[idx + 1].as_int();
                idx += 2;
                let stock_key = format!("s/{w}/{item}");
                let stock = tx
                    .get(&stock_key)
                    .map(|v| v.as_int())
                    .ok_or_else(|| "missing stock".to_string())?;
                if stock < qty {
                    return Err("stock exhausted".into());
                }
                let mut remaining = stock - qty;
                if remaining < 10 {
                    remaining += 91; // TPC-C replenishment rule
                }
                tx.put(&stock_key, Value::Int(remaining));
                let price = tx
                    .get(&format!("i/{item}"))
                    .map(|v| v.as_int())
                    .unwrap_or(10);
                total += price * qty;
                lines.push(Value::List(vec![Value::Int(item), Value::Int(qty)]));
            }
            tx.put(
                &district_key,
                Value::List(vec![Value::Int(next_o_id + 1), Value::Int(ytd)]),
            );
            tx.put(
                &format!("o/{w}/{d}/{next_o_id}"),
                Value::List(vec![Value::Int(total), Value::List(lines)]),
            );
            Ok(vec![Value::Int(next_o_id), Value::Int(total)])
        })
        .with("payment", |tx, args| {
            // args: w, d, c, amount
            let w = args[0].as_int();
            let d = args[1].as_int();
            let c = args[2].as_int();
            let amount = args[3].as_int();
            let w_key = format!("w/{w}");
            let w_ytd = tx.get(&w_key).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&w_key, Value::Int(w_ytd + amount));
            let d_key = format!("d/{w}/{d}");
            if let Some(district) = tx.get(&d_key) {
                let next_o_id = district.as_list()[0].as_int();
                let ytd = district.as_list()[1].as_int();
                tx.put(
                    &d_key,
                    Value::List(vec![Value::Int(next_o_id), Value::Int(ytd + amount)]),
                );
            }
            let c_key = format!("c/{w}/{d}/{c}");
            let customer = tx
                .get(&c_key)
                .ok_or_else(|| "missing customer".to_string())?;
            let balance = customer.as_list()[0].as_int();
            let ytd_payment = customer.as_list()[1].as_int();
            let paid_cnt = customer.as_list()[2].as_int();
            tx.put(
                &c_key,
                Value::List(vec![
                    Value::Int(balance - amount),
                    Value::Int(ytd_payment + amount),
                    Value::Int(paid_cnt + 1),
                ]),
            );
            Ok(vec![Value::Int(balance - amount)])
        })
}

/// Sample the TPC-C transaction mix (≈50% NewOrder / 50% Payment, home
/// warehouse only). Returns `(procedure, args)`.
pub fn next_txn(rng: &mut SimRng, scale: &TpccScale) -> (String, Vec<Value>) {
    let w = rng.range(0, scale.warehouses) as i64;
    let d = rng.range(0, scale.districts) as i64;
    let c = rng.range(0, scale.customers) as i64;
    if rng.chance(0.5) {
        // NewOrder with 5–15 order lines.
        let n_lines = rng.range(5, 16);
        let mut args = vec![Value::Int(w), Value::Int(d), Value::Int(c)];
        for _ in 0..n_lines {
            let item = rng.range(0, scale.items) as i64;
            let qty = rng.range(1, 11) as i64;
            args.push(Value::Int(item));
            args.push(Value::Int(qty));
        }
        ("new_order".into(), args)
    } else {
        let amount = rng.range(1, 5000) as i64;
        (
            "payment".into(),
            vec![
                Value::Int(w),
                Value::Int(d),
                Value::Int(c),
                Value::Int(amount),
            ],
        )
    }
}

/// Consistency condition over a quiesced database: per district,
/// `next_o_id - 1` must equal the number of order records; warehouse YTD
/// must equal the sum of district YTDs (TPC-C conditions 1 & 2, lite).
pub fn check_consistency(
    peek: impl Fn(&str) -> Option<Value>,
    scale: &TpccScale,
) -> Result<(), String> {
    for w in 0..scale.warehouses {
        let mut district_ytd_sum = 0i64;
        for d in 0..scale.districts {
            let district =
                peek(&format!("d/{w}/{d}")).ok_or_else(|| format!("missing district {w}/{d}"))?;
            let next_o_id = district.as_list()[0].as_int();
            district_ytd_sum += district.as_list()[1].as_int();
            for o in 1..next_o_id {
                if peek(&format!("o/{w}/{d}/{o}")).is_none() {
                    return Err(format!("district {w}/{d}: order {o} missing"));
                }
            }
            if peek(&format!("o/{w}/{d}/{next_o_id}")).is_some() {
                return Err(format!("district {w}/{d}: order beyond next_o_id"));
            }
        }
        let w_ytd = peek(&format!("w/{w}"))
            .map(|v| v.as_int())
            .ok_or_else(|| format!("missing warehouse {w}"))?;
        if w_ytd != district_ytd_sum {
            return Err(format!(
                "warehouse {w}: ytd {w_ytd} != district sum {district_ytd_sum}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_storage::{run_proc, DurableCell, DurableLog, Engine, EngineConfig, ProcOutcome};

    fn engine_with_seed(scale: &TpccScale) -> Engine {
        let mut engine = Engine::new(
            EngineConfig::default(),
            DurableLog::new(),
            DurableCell::new(),
        );
        engine.load_batch(seed(scale));
        engine
    }

    #[test]
    fn seed_covers_schema() {
        let scale = TpccScale::default();
        let pairs = seed(&scale);
        let expected = scale.warehouses
            * (1 + scale.districts * (1 + scale.customers) + scale.items)
            + scale.items;
        assert_eq!(pairs.len() as u64, expected);
    }

    #[test]
    fn new_order_advances_district_and_writes_order() {
        let scale = TpccScale::default();
        let mut engine = engine_with_seed(&scale);
        let registry = registry();
        let out = run_proc(
            &mut engine,
            &registry,
            "new_order",
            &[
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::Int(5),
                Value::Int(3),
            ],
        );
        let ProcOutcome::Done(results) = out else {
            panic!("unexpected {out:?}");
        };
        assert_eq!(results[0].as_int(), 1, "first order id");
        assert!(engine.peek("o/0/0/1").is_some());
        let district = engine.peek("d/0/0").unwrap();
        assert_eq!(district.as_list()[0].as_int(), 2);
        // Stock decremented from 100 to 97.
        assert_eq!(engine.peek("s/0/5").unwrap().as_int(), 97);
    }

    #[test]
    fn new_order_replenishes_low_stock() {
        let scale = TpccScale::default();
        let mut engine = engine_with_seed(&scale);
        engine.load(&"s/0/7".to_owned(), Value::Int(12));
        let registry = registry();
        run_proc(
            &mut engine,
            &registry,
            "new_order",
            &[
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::Int(7),
                Value::Int(5),
            ],
        );
        // 12 - 5 = 7 < 10 → +91 = 98.
        assert_eq!(engine.peek("s/0/7").unwrap().as_int(), 98);
    }

    #[test]
    fn payment_updates_all_three_levels() {
        let scale = TpccScale::default();
        let mut engine = engine_with_seed(&scale);
        let registry = registry();
        let out = run_proc(
            &mut engine,
            &registry,
            "payment",
            &[Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(500)],
        );
        assert!(matches!(out, ProcOutcome::Done(_)));
        assert_eq!(engine.peek("w/0").unwrap().as_int(), 500);
        assert_eq!(engine.peek("d/0/1").unwrap().as_list()[1].as_int(), 500);
        let customer = engine.peek("c/0/1/2").unwrap();
        assert_eq!(customer.as_list()[0].as_int(), -500);
        assert_eq!(customer.as_list()[2].as_int(), 1);
    }

    #[test]
    fn mix_and_consistency_hold_after_many_txns() {
        let scale = TpccScale::default();
        let mut engine = engine_with_seed(&scale);
        let registry = registry();
        let mut rng = SimRng::new(7);
        let mut new_orders = 0;
        for _ in 0..500 {
            let (proc, args) = next_txn(&mut rng, &scale);
            if proc == "new_order" {
                new_orders += 1;
            }
            let out = run_proc(&mut engine, &registry, &proc, &args);
            assert!(
                matches!(out, ProcOutcome::Done(_) | ProcOutcome::Failed(_)),
                "{out:?}"
            );
        }
        assert!(
            (150..=350).contains(&new_orders),
            "mix ~50/50: {new_orders}"
        );
        check_consistency(|k| engine.peek(k), &scale).expect("consistent");
    }

    #[test]
    fn consistency_checker_catches_violation() {
        let scale = TpccScale::default();
        let mut engine = engine_with_seed(&scale);
        // Corrupt: bump warehouse ytd without district.
        engine.load(&"w/0".to_owned(), Value::Int(999));
        assert!(check_consistency(|k| engine.peek(k), &scale).is_err());
    }
}
