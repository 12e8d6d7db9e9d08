//! Request/response RPC over the simulated network.
//!
//! §3.2: "HTTP-based protocols are typically stateless and cannot provide
//! guarantees of message delivery. Thus, applications requiring message
//! delivery guarantees must ensure these at the application level." This
//! module is that application-level machinery: correlation ids, timeouts,
//! and retry policies, embedded as an [`RpcClient`] in any process.
//!
//! Timer tags in `0x5250_0000_0000_0000..` are reserved for RPC; hosts
//! forward their `on_timer` calls to [`RpcClient::on_timer`] first.
//!
//! Overload resilience lives here too: retry backoff can carry seeded
//! jitter (so concurrent clients de-synchronize instead of retrying in
//! lockstep), a [`RetryBudget`] token bucket caps retries to a fraction of
//! fresh traffic, and a per-destination circuit [`BreakerConfig`] sheds
//! calls fast while a destination is failing. All three are opt-in and the
//! defaults preserve the historical byte-for-byte deterministic behaviour
//! (no extra RNG draws unless jitter is enabled).

use tca_sim::DetHashMap as HashMap;

use tca_sim::{Ctx, Payload, ProcessId, SimDuration, SimTime, SpanId, SpanKind};

pub use tca_sim::wire::{RpcReply, RpcRequest};

/// Tag namespace for RPC-internal timers.
const RPC_TAG_BASE: u64 = 0x5250_0000_0000_0000;

/// How a call behaves under loss and delay.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (1 = fire once, i.e. at-most-once).
    pub max_attempts: u32,
    /// Wait this long for a reply before retrying.
    pub timeout: SimDuration,
    /// Multiply the timeout by this per retry (exponential backoff).
    pub backoff: f64,
    /// Fraction of the backed-off timeout added as uniform random jitter
    /// per retry, drawn from the deterministic sim RNG. `0.0` (the
    /// default) draws nothing, keeping legacy RNG streams intact; without
    /// jitter, clients that failed together retry together — the
    /// synchronized-retry-storm pattern that melts recovering servers.
    pub jitter: f64,
}

impl RetryPolicy {
    /// Single attempt: at-most-once semantics.
    pub const fn at_most_once(timeout: SimDuration) -> Self {
        RetryPolicy {
            max_attempts: 1,
            timeout,
            backoff: 1.0,
            jitter: 0.0,
        }
    }

    /// Retry until `max_attempts`: at-least-once semantics (the receiver
    /// may observe duplicates when only the reply was lost).
    pub const fn retrying(max_attempts: u32, timeout: SimDuration) -> Self {
        RetryPolicy {
            max_attempts,
            timeout,
            backoff: 2.0,
            jitter: 0.0,
        }
    }

    /// Add seeded jitter: each retry waits `timeout * backoff^n` plus a
    /// uniform draw in `[0, fraction × that)`.
    pub fn with_jitter(mut self, fraction: f64) -> Self {
        self.jitter = fraction;
        self
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::retrying(5, SimDuration::from_millis(5))
    }
}

/// Token-bucket retry budget: retries are capped to a fraction of fresh
/// traffic, the mechanism production RPC stacks (gRPC retry throttling,
/// Finagle retry budgets) use to stop retry amplification from turning a
/// brown-out into a metastable outage. Each fresh call earns `ratio`
/// tokens (capped at `cap`); each retry spends one. An empty bucket fails
/// the call instead of retrying and counts `retry.budget_exhausted`.
#[derive(Debug, Clone, Copy)]
pub struct RetryBudget {
    /// Tokens earned per fresh (first-attempt) call.
    pub ratio: f64,
    /// Maximum tokens banked; also the initial balance.
    pub cap: f64,
}

impl RetryBudget {
    /// Budget allowing roughly `ratio` retries per fresh call.
    pub fn new(ratio: f64, cap: f64) -> Self {
        RetryBudget { ratio, cap }
    }
}

impl Default for RetryBudget {
    /// 10% retry overhead, bursting to 10 banked retries.
    fn default() -> Self {
        RetryBudget::new(0.1, 10.0)
    }
}

/// Per-destination circuit breaker configuration.
///
/// State machine: **Closed** (counting consecutive failures) →
/// **Open** after `failure_threshold` of them (all calls shed for
/// `open_for`) → **HalfOpen** (up to `half_open_probes` probe calls
/// admitted) → back to Closed on a probe success, or re-Open on a probe
/// failure. Transitions increment `breaker.open`, `breaker.half_open`,
/// and `breaker.closed`.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long to shed before allowing probes.
    pub open_for: SimDuration,
    /// Concurrent probe calls admitted while half-open.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_for: SimDuration::from_millis(100),
            half_open_probes: 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed { consecutive_failures: u32 },
    Open { until: SimTime },
    HalfOpen { in_flight: u32 },
}

/// Identifies one logical call made through an [`RpcClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallId(pub u64);

/// Events an [`RpcClient`] surfaces to its host process.
#[derive(Debug)]
pub enum RpcEvent {
    /// A reply arrived for this call.
    Reply {
        /// The call that completed.
        call: CallId,
        /// Host-chosen tag passed at `call` time.
        user_tag: u64,
        /// The reply payload.
        body: Payload,
    },
    /// The call exhausted its attempts without a reply.
    Failed {
        /// The call that failed.
        call: CallId,
        /// Host-chosen tag.
        user_tag: u64,
    },
}

struct Pending {
    dest: ProcessId,
    body: Payload,
    policy: RetryPolicy,
    attempts_left: u32,
    current_timeout: SimDuration,
    user_tag: u64,
    wire_id: u64,
    /// Trace span covering the whole call, retries included.
    span: Option<SpanId>,
    /// Shed at admission (open breaker / expired deadline): nothing was
    /// sent; the zero-delay timer fails the call without touching the
    /// breaker's failure accounting.
    shed: bool,
}

/// Client-side RPC state machine, embedded in a host process.
///
/// Wire call ids are drawn from a per-incarnation random nonce: a process
/// that crashes and restarts must NOT reuse its predecessor's ids, or
/// receiver-side idempotency caches would replay stale replies to it.
#[derive(Default)]
pub struct RpcClient {
    /// Local sequence (timer tags); small and per-incarnation.
    next_seq: u64,
    /// Random base for wire ids, drawn lazily from the sim RNG.
    nonce: u64,
    pending: HashMap<u64, Pending>,
    /// wire id → local seq, for reply matching.
    by_wire: HashMap<u64, u64>,
    /// Retry token bucket (`None` = unlimited retries, the legacy mode).
    budget: Option<RetryBudget>,
    /// Current bucket balance.
    budget_tokens: f64,
    /// Circuit breaker config (`None` = no breakers).
    breaker: Option<BreakerConfig>,
    /// Per-destination breaker states, created on first call.
    breakers: HashMap<ProcessId, BreakerState>,
}

impl RpcClient {
    /// Fresh client.
    pub fn new() -> Self {
        RpcClient::default()
    }

    /// Cap retries with a token bucket; see [`RetryBudget`].
    pub fn with_budget(mut self, budget: RetryBudget) -> Self {
        self.budget = Some(budget);
        self.budget_tokens = budget.cap;
        self
    }

    /// Shed calls to failing destinations; see [`BreakerConfig`].
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(config);
        self
    }

    /// Admission check against `dest`'s breaker; lazily transitions
    /// Open → HalfOpen once the open window has elapsed. Returns whether
    /// the call may proceed (and reserves a probe slot when half-open).
    fn breaker_admit(&mut self, ctx: &mut Ctx, dest: ProcessId) -> bool {
        let Some(config) = self.breaker else {
            return true;
        };
        let state = self.breakers.entry(dest).or_insert(BreakerState::Closed {
            consecutive_failures: 0,
        });
        match state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } => {
                if ctx.now() >= *until {
                    *state = BreakerState::HalfOpen { in_flight: 1 };
                    ctx.metrics().incr("breaker.half_open", 1);
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen { in_flight } => {
                if *in_flight < config.half_open_probes {
                    *in_flight += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a call outcome in `dest`'s breaker.
    fn breaker_record(&mut self, ctx: &mut Ctx, dest: ProcessId, ok: bool) {
        let Some(config) = self.breaker else {
            return;
        };
        let Some(state) = self.breakers.get_mut(&dest) else {
            return;
        };
        match state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                if ok {
                    *consecutive_failures = 0;
                } else {
                    *consecutive_failures += 1;
                    if *consecutive_failures >= config.failure_threshold {
                        *state = BreakerState::Open {
                            until: ctx.now() + config.open_for,
                        };
                        ctx.metrics().incr("breaker.open", 1);
                    }
                }
            }
            BreakerState::HalfOpen { in_flight } => {
                *in_flight = in_flight.saturating_sub(1);
                if ok {
                    *state = BreakerState::Closed {
                        consecutive_failures: 0,
                    };
                    ctx.metrics().incr("breaker.closed", 1);
                } else {
                    *state = BreakerState::Open {
                        until: ctx.now() + config.open_for,
                    };
                    ctx.metrics().incr("breaker.open", 1);
                }
            }
            // A completion for a call admitted before the breaker opened;
            // the window already charges for it, nothing more to learn.
            BreakerState::Open { .. } => {}
        }
    }

    /// Issue a call. `user_tag` is echoed in the resulting [`RpcEvent`] so
    /// the host can route completions without extra maps.
    pub fn call(
        &mut self,
        ctx: &mut Ctx,
        dest: ProcessId,
        body: Payload,
        policy: RetryPolicy,
        user_tag: u64,
    ) -> CallId {
        if self.nonce == 0 {
            self.nonce = ctx.rng().next_u64().max(1);
        }
        let wire_id = self.nonce.wrapping_add(self.next_seq + 1);
        self.call_with_id(ctx, dest, body, policy, user_tag, wire_id)
    }

    /// Like [`RpcClient::call`], but with a caller-chosen wire id. Use a
    /// *deterministic* id (e.g. derived from a journaled step identity)
    /// when a restarted caller must not re-execute a completed request:
    /// the receiver's idempotency cache replays the recorded reply.
    pub fn call_with_id(
        &mut self,
        ctx: &mut Ctx,
        dest: ProcessId,
        body: Payload,
        policy: RetryPolicy,
        user_tag: u64,
        wire_id: u64,
    ) -> CallId {
        assert!(policy.max_attempts >= 1);
        self.next_seq += 1;
        let seq = self.next_seq;
        // Admission: a request whose deadline already passed, or whose
        // destination breaker is open, is shed without touching the wire.
        // The host still learns of it through its normal completion path —
        // a zero-delay timer delivers `RpcEvent::Failed` on the next tick.
        if ctx.deadline_expired() || !self.breaker_admit(ctx, dest) {
            ctx.metrics().incr("rpc.shed", 1);
            self.pending.insert(
                seq,
                Pending {
                    dest,
                    body,
                    policy,
                    attempts_left: 0,
                    current_timeout: SimDuration::ZERO,
                    user_tag,
                    wire_id,
                    span: None,
                    shed: true,
                },
            );
            self.by_wire.insert(wire_id, seq);
            ctx.set_timer(SimDuration::ZERO, RPC_TAG_BASE | seq);
            return CallId(wire_id);
        }
        // Fresh traffic earns retry tokens (see `RetryBudget`).
        if let Some(budget) = self.budget {
            self.budget_tokens = (self.budget_tokens + budget.ratio).min(budget.cap);
        }
        // The call span covers first send to reply/failure. Entering it
        // makes the request hop and the timeout timer carry it, so retries
        // fired from that timer stay inside the same call subtree.
        let span = ctx.trace_span(SpanKind::RpcCall, || format!("rpc {}", body.tag()));
        ctx.trace_enter(span);
        ctx.send(
            dest,
            Payload::new(RpcRequest {
                call_id: wire_id,
                body: body.clone(),
            }),
        );
        ctx.metrics().incr("rpc.calls", 1);
        ctx.set_timer(policy.timeout, RPC_TAG_BASE | seq);
        ctx.trace_exit(span);
        self.pending.insert(
            seq,
            Pending {
                dest,
                body,
                policy,
                attempts_left: policy.max_attempts - 1,
                current_timeout: policy.timeout,
                user_tag,
                wire_id,
                span,
                shed: false,
            },
        );
        self.by_wire.insert(wire_id, seq);
        CallId(wire_id)
    }

    /// Offer an incoming message. Returns the completion event if it was a
    /// reply to one of our calls; `None` tells the host to handle it.
    pub fn on_message(&mut self, ctx: &mut Ctx, payload: &Payload) -> Option<RpcEvent> {
        let reply = payload.downcast_ref::<RpcReply>()?;
        let seq = self.by_wire.remove(&reply.call_id)?;
        let pending = self.pending.remove(&seq)?;
        ctx.trace_span_end(pending.span);
        self.breaker_record(ctx, pending.dest, true);
        Some(RpcEvent::Reply {
            call: CallId(reply.call_id),
            user_tag: pending.user_tag,
            body: reply.body.clone(),
        })
    }

    /// Offer a timer. Returns `Some` if it was an RPC timer (and possibly a
    /// failure event); `None` tells the host the timer was its own.
    pub fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) -> Option<Option<RpcEvent>> {
        if tag & RPC_TAG_BASE != RPC_TAG_BASE {
            return None;
        }
        let seq = tag & !RPC_TAG_BASE;
        let Some(pending) = self.pending.get_mut(&seq) else {
            // Reply already arrived; stale timeout.
            return Some(None);
        };
        // Decide whether to retry. Attempt exhaustion is a real failure the
        // breaker should learn from; a shed admission, an expired deadline,
        // and an empty retry budget give up without charging the breaker a
        // second time (shed) or at all (deadline — the destination may be
        // healthy, the caller is just out of time).
        let exhausted = pending.attempts_left == 0;
        let deadline_dead = !exhausted && !pending.shed && ctx.deadline_expired();
        let budget_dead = !exhausted && !pending.shed && !deadline_dead && {
            match self.budget {
                None => false,
                Some(_) if self.budget_tokens >= 1.0 => false,
                Some(_) => true,
            }
        };
        if pending.shed || exhausted || deadline_dead || budget_dead {
            let pending = self.pending.remove(&seq).expect("present");
            self.by_wire.remove(&pending.wire_id);
            ctx.metrics().incr("rpc.failures", 1);
            if deadline_dead {
                ctx.metrics().incr("rpc.deadline_giveup", 1);
            }
            if budget_dead {
                ctx.metrics().incr("retry.budget_exhausted", 1);
            }
            ctx.trace_span_end(pending.span);
            if !pending.shed && !deadline_dead {
                self.breaker_record(ctx, pending.dest, false);
            }
            return Some(Some(RpcEvent::Failed {
                call: CallId(pending.wire_id),
                user_tag: pending.user_tag,
            }));
        }
        if self.budget.is_some() {
            self.budget_tokens -= 1.0;
        }
        pending.attempts_left -= 1;
        pending.current_timeout = pending.current_timeout.mul_f64(pending.policy.backoff);
        let mut wait = pending.current_timeout;
        if pending.policy.jitter > 0.0 {
            // Seeded de-synchronization: only drawn when jitter is enabled,
            // so jitter-free runs keep their historical RNG streams.
            wait = wait + ctx.rng().jitter(wait.mul_f64(pending.policy.jitter));
        }
        let (dest, body, wire_id) = (pending.dest, pending.body.clone(), pending.wire_id);
        ctx.metrics().incr("rpc.retries", 1);
        ctx.send(
            dest,
            Payload::new(RpcRequest {
                call_id: wire_id,
                body,
            }),
        );
        ctx.set_timer(wait, RPC_TAG_BASE | seq);
        Some(None)
    }

    /// Number of calls still awaiting a reply.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

/// Server-side helper: answer the call `call_id` of `requester` — for a
/// server that replies after the handler that saw the request returned
/// and kept only the id.
pub fn reply_call(ctx: &mut Ctx, requester: ProcessId, call_id: u64, body: Payload) {
    ctx.send(requester, Payload::new(RpcReply { call_id, body }));
}

/// Server-side helper: answer an [`RpcRequest`].
pub fn reply_to(ctx: &mut Ctx, requester: ProcessId, request: &RpcRequest, body: Payload) {
    reply_call(ctx, requester, request.call_id, body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::{NetworkConfig, Process, Sim, SimConfig};

    /// Server that echoes the request body, optionally ignoring the first
    /// `drop_first` requests (to exercise retries deterministically).
    struct EchoServer {
        drop_first: u32,
    }
    impl Process for EchoServer {
        fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
            let req = payload.expect::<RpcRequest>();
            if self.drop_first > 0 {
                self.drop_first -= 1;
                return;
            }
            ctx.metrics().incr("server.handled", 1);
            reply_to(ctx, from, req, req.body.clone());
        }
    }

    struct Caller {
        server: ProcessId,
        rpc: RpcClient,
        policy: RetryPolicy,
    }
    impl Process for Caller {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.rpc
                .call(ctx, self.server, Payload::new(7u64), self.policy, 99);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(RpcEvent::Reply { user_tag, body, .. }) = self.rpc.on_message(ctx, &payload)
            {
                assert_eq!(user_tag, 99);
                assert_eq!(*body.expect::<u64>(), 7);
                ctx.metrics().incr("caller.replies", 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            if let Some(Some(RpcEvent::Failed { user_tag, .. })) = self.rpc.on_timer(ctx, tag) {
                assert_eq!(user_tag, 99);
                ctx.metrics().incr("caller.failures", 1);
            }
        }
    }

    fn world(policy: RetryPolicy, drop_first: u32, net: NetworkConfig) -> Sim {
        let mut sim = Sim::new(SimConfig {
            seed: 11,
            network: net,
        });
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let server = sim.spawn(n1, "server", move |_| Box::new(EchoServer { drop_first }));
        sim.spawn(n0, "caller", move |_| {
            Box::new(Caller {
                server,
                rpc: RpcClient::new(),
                policy,
            })
        });
        sim
    }

    #[test]
    fn clean_network_one_attempt_succeeds() {
        let mut sim = world(
            RetryPolicy::at_most_once(SimDuration::from_millis(5)),
            0,
            NetworkConfig::default(),
        );
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(sim.metrics().counter("caller.replies"), 1);
        assert_eq!(sim.metrics().counter("rpc.retries"), 0);
    }

    #[test]
    fn at_most_once_gives_up_after_loss() {
        let mut sim = world(
            RetryPolicy::at_most_once(SimDuration::from_millis(5)),
            1, // server ignores the only attempt
            NetworkConfig::default(),
        );
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.metrics().counter("caller.replies"), 0);
        assert_eq!(sim.metrics().counter("caller.failures"), 1);
    }

    #[test]
    fn retries_recover_from_dropped_requests() {
        let mut sim = world(
            RetryPolicy::retrying(5, SimDuration::from_millis(5)),
            2, // first two attempts ignored
            NetworkConfig::default(),
        );
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.metrics().counter("caller.replies"), 1);
        assert_eq!(sim.metrics().counter("rpc.retries"), 2);
    }

    #[test]
    fn exhausted_retries_fail() {
        let mut sim = world(
            RetryPolicy::retrying(3, SimDuration::from_millis(5)),
            99,
            NetworkConfig::default(),
        );
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.metrics().counter("caller.failures"), 1);
        assert_eq!(
            sim.metrics().counter("rpc.retries"),
            2,
            "3 attempts = 2 retries"
        );
    }

    /// Calls the server every `period`, forever, counting outcomes —
    /// enough traffic to drive a breaker through its full lifecycle.
    struct TickCaller {
        server: ProcessId,
        rpc: RpcClient,
        policy: RetryPolicy,
        period: SimDuration,
    }
    const TICK: u64 = 0x7e57_0001;
    impl Process for TickCaller {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.rpc
                .call(ctx, self.server, Payload::new(1u64), self.policy, 0);
            ctx.set_timer(self.period, TICK);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(RpcEvent::Reply { .. }) = self.rpc.on_message(ctx, &payload) {
                ctx.metrics().incr("caller.replies", 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            if tag == TICK {
                self.rpc
                    .call(ctx, self.server, Payload::new(1u64), self.policy, 0);
                ctx.set_timer(self.period, TICK);
                return;
            }
            if let Some(Some(RpcEvent::Failed { .. })) = self.rpc.on_timer(ctx, tag) {
                ctx.metrics().incr("caller.failures", 1);
            }
        }
    }

    #[test]
    fn breaker_opens_sheds_half_opens_and_recovers() {
        let mut sim = Sim::with_seed(12);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        // Server ignores the first two requests, then serves everything.
        let server = sim.spawn(n1, "server", |_| Box::new(EchoServer { drop_first: 2 }));
        sim.spawn(n0, "caller", move |_| {
            Box::new(TickCaller {
                server,
                rpc: RpcClient::new().with_breaker(BreakerConfig {
                    failure_threshold: 2,
                    open_for: SimDuration::from_millis(30),
                    half_open_probes: 1,
                }),
                policy: RetryPolicy::at_most_once(SimDuration::from_millis(2)),
                period: SimDuration::from_millis(5),
            })
        });
        sim.run_for(SimDuration::from_millis(60));
        let m = sim.metrics();
        assert_eq!(m.counter("breaker.open"), 1, "two failures trip it once");
        assert_eq!(m.counter("breaker.half_open"), 1, "probe after open_for");
        assert_eq!(m.counter("breaker.closed"), 1, "probe success closes it");
        assert!(
            m.counter("rpc.shed") >= 4,
            "calls during the open window are shed, got {}",
            m.counter("rpc.shed")
        );
        assert!(
            m.counter("caller.replies") >= 2,
            "traffic flows again after recovery"
        );
        // Shed calls never touch the wire: only admitted calls count.
        assert_eq!(
            m.counter("net.sent"),
            m.counter("rpc.calls") + m.counter("caller.replies"),
            "each admitted call sends one request; each reply one response"
        );
    }

    #[test]
    fn retry_budget_exhaustion_stops_retrying() {
        let mut sim = Sim::with_seed(13);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let server = sim.spawn(n1, "server", |_| Box::new(EchoServer { drop_first: 99 }));
        sim.spawn(n0, "caller", move |_| {
            Box::new(Caller {
                server,
                rpc: RpcClient::new().with_budget(RetryBudget::new(0.0, 1.0)),
                policy: RetryPolicy::retrying(5, SimDuration::from_millis(2)),
            })
        });
        sim.run_for(SimDuration::from_millis(100));
        let m = sim.metrics();
        assert_eq!(m.counter("rpc.retries"), 1, "one banked token = one retry");
        assert_eq!(m.counter("retry.budget_exhausted"), 1);
        assert_eq!(m.counter("caller.failures"), 1);
    }

    /// Sets an already-expired deadline, then calls: the client must shed
    /// without touching the wire and still deliver `Failed` to the host.
    struct ExpiredCaller {
        server: ProcessId,
        rpc: RpcClient,
    }
    impl Process for ExpiredCaller {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_deadline(Some(ctx.now()));
            self.rpc.call(
                ctx,
                self.server,
                Payload::new(1u64),
                RetryPolicy::default(),
                0,
            );
        }
        fn on_message(&mut self, _ctx: &mut Ctx, _from: ProcessId, _payload: Payload) {}
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            if let Some(Some(RpcEvent::Failed { .. })) = self.rpc.on_timer(ctx, tag) {
                ctx.metrics().incr("caller.failures", 1);
            }
        }
    }

    #[test]
    fn expired_deadline_sheds_call_before_the_wire() {
        let mut sim = Sim::with_seed(14);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let server = sim.spawn(n1, "server", |_| Box::new(EchoServer { drop_first: 0 }));
        sim.spawn(n0, "caller", move |_| {
            Box::new(ExpiredCaller {
                server,
                rpc: RpcClient::new(),
            })
        });
        sim.run_for(SimDuration::from_millis(50));
        let m = sim.metrics();
        assert_eq!(m.counter("rpc.shed"), 1);
        assert_eq!(m.counter("rpc.calls"), 0, "nothing sent");
        assert_eq!(m.counter("server.handled"), 0);
        assert_eq!(m.counter("caller.failures"), 1, "host still sees Failed");
    }

    #[test]
    fn duplicate_requests_reach_server_when_reply_lost() {
        // 30% drop: with 8 attempts the call almost surely completes, and
        // the server very likely handled some retry duplicates.
        let mut sim = world(
            RetryPolicy::retrying(8, SimDuration::from_millis(5)),
            0,
            NetworkConfig::lossy(0.3, 0.0),
        );
        sim.run_for(SimDuration::from_secs(2));
        let handled = sim.metrics().counter("server.handled");
        assert!(handled >= 1, "call should eventually get through");
    }
}
