//! End-to-end overload-resilience properties: retry de-synchronization
//! through seeded jitter, and deadline propagation shedding doomed work
//! before it wastes server capacity.

use std::collections::BTreeSet;

use tca::messaging::rpc::{RetryPolicy, RpcClient};
use tca::sim::{
    Boot, Ctx, NetworkConfig, Payload, Process, ProcessId, Sim, SimConfig, SimDuration, SimTime,
};
use tca::storage::{DbMsg, DbServer, DbServerConfig, ProcRegistry, Value};
use tca::workloads::{db_classifier, OverloadConfig, OverloadGen, OverloadPhase};

/// Never replies; records every arrival instant so tests can measure
/// how synchronized the retry waves are.
struct BlackHole {
    arrivals: BTreeSet<SimTime>,
}

impl Process for BlackHole {
    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, _payload: Payload) {
        self.arrivals.insert(ctx.now());
        ctx.metrics().incr("hole.arrivals", 1);
    }
}

/// Fires one RPC at start and lets the retry policy do the rest.
struct OneCall {
    target: ProcessId,
    policy: RetryPolicy,
    rpc: RpcClient,
}

impl Process for OneCall {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.rpc
            .call(ctx, self.target, Payload::new(0u64), self.policy, 1);
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        self.rpc.on_message(ctx, &payload);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        self.rpc.on_timer(ctx, tag);
    }
}

/// Deterministic fixed-latency network: without jitter, clients that
/// start together retry together forever.
fn fixed_latency() -> NetworkConfig {
    NetworkConfig {
        latency_min: SimDuration::from_micros(300),
        latency_max: SimDuration::from_micros(300),
        ..NetworkConfig::default()
    }
}

/// Run `clients` co-started callers against a black-hole server and
/// return how many distinct arrival instants the server saw.
fn distinct_retry_instants(seed: u64, clients: usize, policy: RetryPolicy) -> usize {
    let mut sim = Sim::new(SimConfig {
        seed,
        network: fixed_latency(),
    });
    let n_server = sim.add_node();
    let hole = sim.spawn(n_server, "hole", |_: &mut Boot| {
        Box::new(BlackHole {
            arrivals: BTreeSet::new(),
        }) as Box<dyn Process>
    });
    for i in 0..clients {
        let node = sim.add_node();
        sim.spawn(node, format!("caller{i}"), move |_: &mut Boot| {
            Box::new(OneCall {
                target: hole,
                policy,
                rpc: RpcClient::new(),
            }) as Box<dyn Process>
        });
    }
    sim.run_for(SimDuration::from_secs(2));
    sim.inspect::<BlackHole>(hole)
        .expect("black hole inspectable")
        .arrivals
        .len()
}

#[test]
fn jitter_desynchronizes_concurrent_retries() {
    // 8 clients start simultaneously against a dead server over a
    // fixed-latency network. Without jitter every retry wave lands at
    // the same instants (8 clients collapse onto one arrival time per
    // wave); with jitter the waves spread out.
    let base = RetryPolicy::retrying(6, SimDuration::from_millis(10));
    let without = distinct_retry_instants(7, 8, base);
    let with = distinct_retry_instants(7, 8, base.with_jitter(0.5));
    // 6 attempts ⇒ 6 arrival waves. Synchronized clients produce exactly
    // one distinct instant per wave.
    assert_eq!(without, 6, "no jitter: all clients retry in lock-step");
    assert!(
        with > 3 * without,
        "jitter spreads retries over distinct instants: {with} vs {without}"
    );
}

#[test]
fn jitter_is_deterministic_per_seed() {
    let policy = RetryPolicy::retrying(6, SimDuration::from_millis(10)).with_jitter(0.5);
    let a = distinct_retry_instants(11, 8, policy);
    let b = distinct_retry_instants(11, 8, policy);
    assert_eq!(a, b, "same seed ⇒ same jittered schedule");
}

#[test]
fn propagated_deadlines_shed_doomed_work_end_to_end() {
    // A server with 1ms commits has capacity 1k/s; offer 4k/s with a 5ms
    // propagated deadline. Admission control must turn the excess into
    // explicit sheds/expiries instead of a growing queue, and the trace
    // counters must account for every arrival: served + shed + expired +
    // deduped = handled.
    let mut sim = Sim::with_seed(23);
    let n_db = sim.add_node();
    let n_load = sim.add_node();
    let db = sim.spawn(
        n_db,
        "db",
        DbServer::factory(
            "db",
            DbServerConfig {
                commit_latency: SimDuration::from_millis(1),
                max_queue_wait: Some(SimDuration::from_millis(3)),
            },
            ProcRegistry::new().with("bump", |tx, _| {
                let v = tx.get("x").map(|v| v.as_int()).unwrap_or(0);
                tx.put("x", Value::Int(v + 1));
                Ok(vec![])
            }),
        ),
    );
    let factory: tca::workloads::RequestFactory =
        std::rc::Rc::new(|_| Payload::new(DbMsg::call("bump", vec![])));
    sim.spawn(
        n_load,
        "load",
        OverloadGen::factory(
            db,
            factory,
            db_classifier(),
            OverloadConfig {
                phases: vec![OverloadPhase::new(
                    SimDuration::from_millis(500),
                    SimDuration::from_micros(250),
                )],
                metric: "res".into(),
                deadline: Some(SimDuration::from_millis(5)),
                retry: RetryPolicy::at_most_once(SimDuration::from_millis(10)),
                ..OverloadConfig::default()
            },
        ),
    );
    sim.run_for(SimDuration::from_secs(1));
    let m = sim.metrics();
    let goodput = m.counter("res.goodput");
    let shed = m.counter("server.shed");
    assert!(goodput > 300, "server capacity is served: {goodput}");
    assert!(shed > 1000, "excess load is shed explicitly: {shed}");
    assert_eq!(
        m.counter("res.late"),
        0,
        "propagated deadlines mean no late completions — doomed work dies early"
    );
    // Every issued request was resolved one way or another.
    let issued = m.counter("res.issued");
    let resolved = goodput + m.counter("res.err");
    assert_eq!(resolved, issued, "no request left dangling");
}

/// A zero-jitter policy must be byte-for-byte the legacy schedule: the
/// retry path only draws from the RNG when jitter is enabled, so adding
/// `.with_jitter(0.0)` (the default) cannot shift any downstream stream.
#[test]
fn zero_jitter_matches_legacy_schedule() {
    let base = RetryPolicy::retrying(6, SimDuration::from_millis(10));
    let legacy = distinct_retry_instants(13, 8, base);
    let zero = distinct_retry_instants(13, 8, base.with_jitter(0.0));
    assert_eq!(legacy, zero);
    assert_eq!(legacy, 6, "lock-step waves, one instant each");
}
