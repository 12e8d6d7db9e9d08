//! End-to-end workload runs: DeathStar hotel and YCSB through the full
//! stack (load generator → network → DbServer → engine), with invariant
//! audits.

use std::cell::RefCell;
use std::rc::Rc;

use tca::sim::{Payload, Sim, SimDuration};
use tca::storage::{DbMsg, DbServer, DbServerConfig};
use tca::workloads::hotel::{check_no_overbooking, HotelScale};
use tca::workloads::loadgen::{db_classifier, ClosedLoopConfig, ClosedLoopGen};
use tca::workloads::ycsb::{YcsbSampler, YcsbScale, YcsbWorkload};
use tca::workloads::{hotel, ycsb};

#[test]
fn hotel_mix_never_overbooks() {
    let scale = HotelScale {
        hotels: 20,
        dates: 5,
        capacity: 3,
        users: 50,
    };
    let mut sim = Sim::with_seed(61);
    let n_db = sim.add_node();
    let n_load = sim.add_node();
    let db = sim.spawn(
        n_db,
        "hotel-db",
        DbServer::factory("hotel", DbServerConfig::default(), hotel::registry()),
    );
    sim.inject(db, Payload::new(DbMsg::load(hotel::seed(&scale))));
    let gen_scale = scale.clone();
    sim.spawn(
        n_load,
        "load",
        ClosedLoopGen::factory(
            db,
            Rc::new(move |rng| {
                let (proc, args) = hotel::next_txn(rng, &gen_scale);
                Payload::new(DbMsg::call(proc, args))
            }),
            db_classifier(),
            ClosedLoopConfig {
                clients: 12,
                limit: Some(2000),
                metric: "hotel".into(),
                ..ClosedLoopConfig::default()
            },
        ),
    );
    sim.run_for(SimDuration::from_secs(10));
    let ok = sim.metrics().counter("hotel.ok");
    let err = sim.metrics().counter("hotel.err");
    assert_eq!(ok + err, 2000, "all requests answered");
    // Errors are legitimate (sold-out reserves); capacity must never go
    // negative even with a tiny capacity under concurrent load.
    let server = sim.inspect::<DbServer>(db).expect("db up");
    check_no_overbooking(|k| server.engine().peek(k), &scale).expect("no overbooking");
}

#[test]
fn ycsb_a_and_f_run_with_exact_rmw_counts() {
    let scale = YcsbScale {
        records: 200,
        theta: 0.9,
    };
    let mut sim = Sim::with_seed(62);
    let n_db = sim.add_node();
    let n_load = sim.add_node();
    let db = sim.spawn(
        n_db,
        "ycsb-db",
        DbServer::factory("ycsb", DbServerConfig::default(), ycsb::registry()),
    );
    sim.inject(db, Payload::new(DbMsg::load(ycsb::seed(&scale))));
    // Workload F: every rmw increments a counter; since each op runs as a
    // serializable stored procedure, the sum of increments across all
    // keys must equal the number of rmw ops issued.
    let sampler = Rc::new(RefCell::new(YcsbSampler::new(YcsbWorkload::F, &scale)));
    let rmw_issued = Rc::new(RefCell::new(0u64));
    let sampler_for_gen = Rc::clone(&sampler);
    let rmw_for_gen = Rc::clone(&rmw_issued);
    sim.spawn(
        n_load,
        "load",
        ClosedLoopGen::factory(
            db,
            Rc::new(move |rng| {
                let (proc, args) = sampler_for_gen.borrow_mut().next_txn(rng);
                if proc == "ycsb_rmw" {
                    *rmw_for_gen.borrow_mut() += 1;
                }
                Payload::new(DbMsg::call(proc, args))
            }),
            db_classifier(),
            ClosedLoopConfig {
                clients: 8,
                limit: Some(1000),
                metric: "ycsb".into(),
                ..ClosedLoopConfig::default()
            },
        ),
    );
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(sim.metrics().counter("ycsb.ok"), 1000);
    // Audit: total increments == rmw ops issued (exactly-once execution
    // through the dedup-protected rpc path).
    let server = sim.inspect::<DbServer>(db).expect("db up");
    let mut total_increment = 0i64;
    for i in 0..scale.records {
        let key = format!("user{i:08}");
        let value = server.engine().peek(&key).map(|v| v.as_int()).unwrap_or(0);
        total_increment += value - i as i64;
    }
    assert_eq!(total_increment as u64, *rmw_issued.borrow());
}
