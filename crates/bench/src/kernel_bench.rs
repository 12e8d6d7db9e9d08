//! Kernel cells: minimal message patterns built directly on `tca_sim`
//! processes — deliberately lean so a measurement of one is of the kernel
//! substrate (event queue, dispatch, network routing, metrics) rather
//! than of model or storage code. `benchmark/` runs them: `ping_pong` and
//! `timer_storm` are its `kernel-storm` workload, `sharded_router` one of
//! its per-layer cells.
//!
//! * [`ping_pong`] — RPC storm: many concurrent request/reply pairs
//!   across two nodes (the minimal hot loop: one deliver in, one send out).
//! * [`timer_storm`] — chained timers at wheel-spanning delays, with a
//!   cancelled timer every few hops.
//! * [`sharded_router`] — partitioned request routing: clients sending
//!   keyed requests through a router that resolves the owning shard on
//!   the consistent-hash ring per message and relays the reply.
//!
//! Each cell runs a fixed, seeded workload to quiescence and returns the
//! exact `(events, sim_ns)` it executed — deterministic, so two runs of
//! one binary agree on those integers.

use tca_sim::{Ctx, Payload, Process, ProcessId, ShardMap, Sim, SimDuration};

/// Runaway guard for `run_to_quiescence`: far above any cell's real count.
const MAX_EVENTS: u64 = 50_000_000;

/// Deterministic work performed by one cell run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRun {
    /// Kernel events executed (exact; identical across same-binary runs).
    pub events: u64,
    /// Virtual nanoseconds simulated (exact).
    pub sim_ns: u64,
}

fn finish(sim: Sim) -> CellRun {
    CellRun {
        events: sim.events_processed(),
        sim_ns: sim.now().as_nanos(),
    }
}

// ----- ping-pong RPC storm --------------------------------------------------

/// Zero-sized ping message (interned by the payload layer).
struct Ping;
/// Zero-sized pong reply.
struct Pong;

struct Pinger {
    peer: ProcessId,
    rounds_left: u32,
}

impl Process for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.send(self.peer, Payload::new(Ping));
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, _payload: Payload) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.send(self.peer, Payload::new(Ping));
        } else {
            ctx.metrics().incr("cell.done", 1);
        }
    }
}

struct Ponger;

impl Process for Ponger {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, _payload: Payload) {
        ctx.send(from, Payload::new(Pong));
    }
}

/// `pairs` concurrent request/reply pairs, `rounds` round-trips each.
pub fn ping_pong(pairs: usize, rounds: u32, seed: u64) -> CellRun {
    let mut sim = Sim::with_seed(seed);
    let a = sim.add_node();
    let b = sim.add_node();
    for _ in 0..pairs {
        let pong = sim.spawn(b, "pong", |_| Box::new(Ponger));
        sim.spawn(a, "ping", move |_| {
            Box::new(Pinger {
                peer: pong,
                rounds_left: rounds,
            })
        });
    }
    sim.run_to_quiescence(MAX_EVENTS);
    assert_eq!(sim.metrics().counter("cell.done"), pairs as u64);
    finish(sim)
}

// ----- timer storm ----------------------------------------------------------

struct TimerStorm {
    firings_left: u32,
}

impl Process for TimerStorm {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let d = SimDuration::from_micros(ctx.rng().range(1, 1000));
        ctx.set_timer(d, 0);
    }
    fn on_message(&mut self, _ctx: &mut Ctx, _from: ProcessId, _payload: Payload) {}
    fn on_timer(&mut self, ctx: &mut Ctx, _tag: u64) {
        self.firings_left -= 1;
        if self.firings_left == 0 {
            ctx.metrics().incr("cell.done", 1);
            return;
        }
        // Delays spanning 1µs..50ms exercise several wheel levels.
        let d = SimDuration::from_micros(ctx.rng().range(1, 50_000));
        let id = ctx.set_timer(d, 0);
        if self.firings_left.is_multiple_of(3) {
            // Cancel and immediately re-arm: the cancellation path runs
            // without breaking the chain.
            ctx.cancel_timer(id);
            ctx.set_timer(SimDuration::from_micros(10), 1);
        }
    }
}

/// `procs` processes each chaining `firings` timers at seeded delays
/// between 1µs and 50ms, cancelling and re-arming every third hop.
pub fn timer_storm(procs: usize, firings: u32, seed: u64) -> CellRun {
    let mut sim = Sim::with_seed(seed);
    let node = sim.add_node();
    for _ in 0..procs {
        sim.spawn(node, "storm", move |_| {
            Box::new(TimerStorm {
                firings_left: firings,
            })
        });
    }
    sim.run_to_quiescence(MAX_EVENTS);
    assert_eq!(sim.metrics().counter("cell.done"), procs as u64);
    finish(sim)
}

// ----- sharded router -------------------------------------------------------

struct KeyedReq {
    key: String,
}
struct ShardReq {
    client: ProcessId,
}
struct ShardDone {
    client: ProcessId,
}
struct RouteReply;

struct MiniRouter {
    map: ShardMap,
    shards: Vec<ProcessId>,
}

impl Process for MiniRouter {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(req) = payload.downcast_ref::<KeyedReq>() {
            let shard = self.shards[self.map.owner(&req.key)];
            ctx.send(shard, Payload::new(ShardReq { client: from }));
        } else {
            let done = payload.expect::<ShardDone>();
            ctx.send(done.client, Payload::new(RouteReply));
        }
    }
}

struct MiniShard;

impl Process for MiniShard {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        let req = payload.expect::<ShardReq>();
        ctx.send(from, Payload::new(ShardDone { client: req.client }));
    }
}

struct RouterClient {
    router: ProcessId,
    next_key: u64,
    stride: u64,
    requests_left: u32,
}

impl RouterClient {
    fn issue(&mut self, ctx: &mut Ctx) {
        let key = format!("user{:08}", self.next_key);
        self.next_key = self.next_key.wrapping_add(self.stride) % 1_000_000;
        ctx.send(self.router, Payload::new(KeyedReq { key }));
    }
}

impl Process for RouterClient {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.issue(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, _payload: Payload) {
        if self.requests_left > 1 {
            self.requests_left -= 1;
            self.issue(ctx);
        } else {
            ctx.metrics().incr("cell.done", 1);
        }
    }
}

/// `clients` concurrent clients each pushing `requests` keyed requests
/// through a router that resolves the owning shard on a consistent-hash
/// ring over `shards` shard processes — the per-message hot path of the
/// sharded deployments (hash + ring lookup + two extra hops) measured on
/// the bare kernel.
pub fn sharded_router(clients: usize, shards: usize, requests: u32, seed: u64) -> CellRun {
    let mut sim = Sim::with_seed(seed);
    let client_node = sim.add_node();
    let router_node = sim.add_node();
    let shard_node = sim.add_node();
    let pool: Vec<ProcessId> = (0..shards)
        .map(|_| sim.spawn(shard_node, "shard", |_| Box::new(MiniShard)))
        .collect();
    let router = sim.spawn(router_node, "router", move |_| {
        Box::new(MiniRouter {
            map: ShardMap::ring(shards),
            shards: pool.clone(),
        })
    });
    for i in 0..clients {
        // Coprime strides walk each client over a distinct key sequence.
        let stride = 7919 + 2 * i as u64;
        sim.spawn(client_node, "client", move |_| {
            Box::new(RouterClient {
                router,
                next_key: i as u64 * 104_729,
                stride,
                requests_left: requests,
            })
        });
    }
    sim.run_to_quiescence(MAX_EVENTS);
    assert_eq!(sim.metrics().counter("cell.done"), clients as u64);
    finish(sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_deterministic_across_runs() {
        let cells: [fn() -> CellRun; 3] = [
            || ping_pong(16, 512, 42),
            || timer_storm(32, 512, 42),
            || sharded_router(16, 8, 256, 42),
        ];
        for (i, run) in cells.into_iter().enumerate() {
            let (a, b) = (run(), run());
            assert_eq!(a, b, "cell {i} not deterministic");
            assert!(a.events > 0, "cell {i} did no work");
            assert!(a.sim_ns > 0, "cell {i} simulated no time");
        }
    }
}
