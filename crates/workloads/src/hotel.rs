//! DeathStarBench-style hotel reservation workload (\[27\], §5.3).
//!
//! The service mix DeathStar's hotel application issues: mostly searches
//! (read-only, multi-hotel scans), some recommendations, and a small
//! fraction of reservations (read-modify-write on room capacity per
//! hotel/date) — a read-heavy microservice workload with a thin
//! transactional core.

use tca_sim::SimRng;
use tca_storage::{Pairs, ProcRegistry, Value};

/// Scale parameters.
#[derive(Debug, Clone)]
pub struct HotelScale {
    /// Number of hotels.
    pub hotels: u64,
    /// Number of bookable dates.
    pub dates: u64,
    /// Room capacity per hotel/date.
    pub capacity: i64,
    /// Registered users.
    pub users: u64,
}

impl Default for HotelScale {
    fn default() -> Self {
        HotelScale {
            hotels: 80,
            dates: 30,
            capacity: 10,
            users: 500,
        }
    }
}

/// Seed: room availability, hotel rates, user credentials. The keys are
/// formatted straight into the batch's arena, at exact capacity.
pub fn seed(scale: &HotelScale) -> Pairs {
    let mut pairs = Pairs::new();
    for h in 0..scale.hotels {
        pairs.push_fmt(format_args!("rate/{h}"), Value::Int(80 + (h as i64 % 120)));
        for d in 0..scale.dates {
            pairs.push_fmt(format_args!("rooms/{h}/{d}"), Value::Int(scale.capacity));
        }
    }
    for u in 0..scale.users {
        pairs.push_fmt(format_args!("user/{u}"), Value::Str(format!("pw{u}")));
    }
    pairs.shrink_to_fit();
    pairs
}

/// The hotel service procedures.
pub fn registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("search", |tx, args| {
            // args: date, first_hotel, n_hotels — return hotels with rooms.
            let date = args[0].as_int();
            let first = args[1].as_int();
            let n = args[2].as_int();
            let mut found = Vec::new();
            for h in first..first + n {
                let rooms = tx
                    .get(&format!("rooms/{h}/{date}"))
                    .map(|v| v.as_int())
                    .unwrap_or(0);
                if rooms > 0 {
                    let rate = tx.get(&format!("rate/{h}")).unwrap_or(Value::Int(0));
                    found.push(Value::List(vec![Value::Int(h), rate]));
                }
            }
            Ok(vec![Value::List(found)])
        })
        .with("recommend", |tx, args| {
            // Cheapest of a window of hotels.
            let first = args[0].as_int();
            let n = args[1].as_int();
            let mut best = (i64::MAX, -1i64);
            for h in first..first + n {
                if let Some(rate) = tx.get(&format!("rate/{h}")) {
                    let rate = rate.as_int();
                    if rate < best.0 {
                        best = (rate, h);
                    }
                }
            }
            Ok(vec![Value::Int(best.1)])
        })
        .with("login", |tx, args| {
            let user = args[0].as_int();
            let password = args[1].as_str();
            match tx.get(&format!("user/{user}")) {
                Some(Value::Str(stored)) if stored == password => Ok(vec![Value::Bool(true)]),
                _ => Err("bad credentials".into()),
            }
        })
        .with("reserve", |tx, args| {
            // args: hotel, date, rooms
            let hotel = args[0].as_int();
            let date = args[1].as_int();
            let rooms = args[2].as_int();
            let key = format!("rooms/{hotel}/{date}");
            let available = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            if available < rooms {
                return Err("sold out".into());
            }
            tx.put(&key, Value::Int(available - rooms));
            Ok(vec![Value::Int(available - rooms)])
        })
}

/// Sample the DeathStar hotel mix: ~60% search, ~38% recommend/login,
/// ~2% reserve. Returns `(procedure, args)`.
pub fn next_txn(rng: &mut SimRng, scale: &HotelScale) -> (String, Vec<Value>) {
    let roll = rng.unit();
    if roll < 0.60 {
        let date = rng.range(0, scale.dates) as i64;
        let first = rng.range(0, scale.hotels.saturating_sub(10).max(1)) as i64;
        (
            "search".into(),
            vec![Value::Int(date), Value::Int(first), Value::Int(10)],
        )
    } else if roll < 0.88 {
        let first = rng.range(0, scale.hotels.saturating_sub(10).max(1)) as i64;
        ("recommend".into(), vec![Value::Int(first), Value::Int(10)])
    } else if roll < 0.98 {
        let user = rng.range(0, scale.users) as i64;
        (
            "login".into(),
            vec![Value::Int(user), Value::Str(format!("pw{user}"))],
        )
    } else {
        let hotel = rng.range(0, scale.hotels) as i64;
        let date = rng.range(0, scale.dates) as i64;
        (
            "reserve".into(),
            vec![Value::Int(hotel), Value::Int(date), Value::Int(1)],
        )
    }
}

/// Room-capacity invariant: no hotel/date may go negative.
pub fn check_no_overbooking(
    peek: impl Fn(&str) -> Option<Value>,
    scale: &HotelScale,
) -> Result<(), String> {
    for h in 0..scale.hotels {
        for d in 0..scale.dates {
            let rooms = peek(&format!("rooms/{h}/{d}"))
                .map(|v| v.as_int())
                .unwrap_or(0);
            if rooms < 0 {
                return Err(format!("hotel {h} date {d} overbooked by {}", -rooms));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_storage::{run_proc, DurableCell, DurableLog, Engine, EngineConfig, ProcOutcome};

    fn engine(scale: &HotelScale) -> Engine {
        let mut engine = Engine::new(
            EngineConfig::default(),
            DurableLog::new(),
            DurableCell::new(),
        );
        engine.load_batch(seed(scale));
        engine
    }

    #[test]
    fn search_finds_available_hotels() {
        let scale = HotelScale::default();
        let mut e = engine(&scale);
        let registry = registry();
        let out = run_proc(
            &mut e,
            &registry,
            "search",
            &[Value::Int(0), Value::Int(0), Value::Int(5)],
        );
        let ProcOutcome::Done(results) = out else {
            panic!("{out:?}")
        };
        assert_eq!(results[0].as_list().len(), 5, "all 5 hotels have rooms");
    }

    #[test]
    fn reserve_decrements_until_sold_out() {
        let scale = HotelScale {
            capacity: 2,
            ..HotelScale::default()
        };
        let mut e = engine(&scale);
        let registry = registry();
        let reserve = |e: &mut Engine| {
            run_proc(
                e,
                &registry,
                "reserve",
                &[Value::Int(0), Value::Int(0), Value::Int(1)],
            )
        };
        assert!(matches!(reserve(&mut e), ProcOutcome::Done(_)));
        assert!(matches!(reserve(&mut e), ProcOutcome::Done(_)));
        assert!(matches!(reserve(&mut e), ProcOutcome::Failed(_)));
        check_no_overbooking(|k| e.peek(k), &scale).expect("no overbooking");
    }

    #[test]
    fn login_checks_credentials() {
        let scale = HotelScale::default();
        let mut e = engine(&scale);
        let registry = registry();
        let good = run_proc(
            &mut e,
            &registry,
            "login",
            &[Value::Int(3), Value::Str("pw3".into())],
        );
        assert!(matches!(good, ProcOutcome::Done(_)));
        let bad = run_proc(
            &mut e,
            &registry,
            "login",
            &[Value::Int(3), Value::Str("wrong".into())],
        );
        assert!(matches!(bad, ProcOutcome::Failed(_)));
    }

    #[test]
    fn mix_is_read_heavy() {
        let scale = HotelScale::default();
        let mut rng = SimRng::new(5);
        let mut reserves = 0;
        let mut searches = 0;
        for _ in 0..2000 {
            let (proc, _) = next_txn(&mut rng, &scale);
            match proc.as_str() {
                "reserve" => reserves += 1,
                "search" => searches += 1,
                _ => {}
            }
        }
        assert!(searches > 1000, "search dominates: {searches}");
        assert!(reserves < 100, "reserve is rare: {reserves}");
    }

    #[test]
    fn recommend_returns_cheapest() {
        let scale = HotelScale::default();
        let mut e = engine(&scale);
        let registry = registry();
        let out = run_proc(
            &mut e,
            &registry,
            "recommend",
            &[Value::Int(0), Value::Int(10)],
        );
        let ProcOutcome::Done(results) = out else {
            panic!()
        };
        // rate/h = 80 + h%120, so hotel 0 (rate 80) is cheapest in 0..10.
        assert_eq!(results[0].as_int(), 0);
    }
}
