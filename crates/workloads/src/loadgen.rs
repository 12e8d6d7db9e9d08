//! Load generation: the client loops every comparative number comes out
//! of (§5.3, citing Schroeder et al. \[56\] — "modeling request arrivals
//! should consider systems' design goals and the cloud serving model
//! used"). A comparison is only as good as its arrival model, so each
//! model is written once:
//!
//! - [`ClosedLoopGen`] — `N` logical clients over RPC, each with at most
//!   one request outstanding plus think time; latency self-throttles
//!   throughput. [`ClosedLoopGen::factory`] aims every request at one
//!   target (a database, a saga orchestrator, a 2PC coordinator, the
//!   dataflow sequencer, a service); [`ClosedLoopGen::routed`] lets the
//!   request pick its target (statefun shards keyed by instance id).
//! - [`ActorClosedLoop`] — the same loop over an
//!   [`ActorRouter`]: the actor runtime answers through directory
//!   lookups and re-routed invocations instead of one RPC reply, and a
//!   request is a *sequence* of actor calls cut short by the first
//!   failure (plain debit → credit, or a single `txncoord.run`).
//! - The open loop — Poisson arrivals at rate λ regardless of
//!   completions, so queues grow without bound past saturation — is
//!   [`crate::overload::OverloadGen`]; a fixed rate is a one-phase
//!   schedule (experiment E10).
//!
//! Both closed loops stamp results through one private
//! `record_completion` and are read back with [`LoadSummary`] (the open
//! loop judges completions against a deadline and counts goodput / late
//! / err instead); replies are classified by the functions below.
//! Interactive transactions ([`crate::rmw`]) are a different protocol,
//! not a fourth loop.

use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_messaging::rpc::{RetryPolicy, RpcClient, RpcEvent};
use tca_models::actor::{ActorCompletion, ActorId, ActorRouter};
use tca_models::microservice::ServiceReply;
use tca_models::statefun::OrchestrationResult;
use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, Sim, SimDuration, SimRng, SimTime, Zipf};
use tca_storage::{DbReply, DbResponse, Value};
use tca_txn::{DtxOutcome, SagaOutcome, TxnOutcome};

/// Builds one request payload (the body placed inside the RPC envelope).
pub type RequestFactory = Rc<dyn Fn(&mut SimRng) -> Payload>;

/// Builds one request and names the process it goes to.
pub type RequestRouter = Rc<dyn Fn(&mut SimRng) -> (ProcessId, Payload)>;

/// Shared entity/partition-key sampler: uniform or Zipfian over `0..n`.
///
/// This is YCSB's hot-spot sampler extracted so every workload (TPC-C
/// warehouses, marketplace products, YCSB records) draws skew the same
/// way instead of growing private copies. A Zipfian chooser consumes
/// exactly one RNG draw per pick (one `unit()` inside
/// [`Zipf::sample`]); a uniform chooser consumes one bounded draw.
///
/// ```rust
/// use tca_sim::SimRng;
/// use tca_workloads::loadgen::KeyChooser;
///
/// let mut rng = SimRng::new(7);
/// let hot = KeyChooser::zipfian(1000, 0.99); // index 0 is the hottest
/// let picks: Vec<usize> = (0..200).map(|_| hot.pick(&mut rng)).collect();
/// assert!(picks.iter().all(|&i| i < 1000));
/// let head = picks.iter().filter(|&&i| i == 0).count();
/// assert!(head > 20, "hot key drawn only {head}/200 times");
/// ```
pub struct KeyChooser {
    n: usize,
    zipf: Option<Zipf>,
}

impl KeyChooser {
    /// Uniform choice over `0..n`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "chooser over empty domain");
        KeyChooser { n, zipf: None }
    }

    /// Zipfian choice over `0..n` with skew `theta` (0 = uniform weights,
    /// 0.99 = the YCSB default hot spot). Index 0 is the hottest entity.
    pub fn zipfian(n: usize, theta: f64) -> Self {
        KeyChooser {
            n,
            zipf: Some(Zipf::new(n, theta)),
        }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the domain is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Draw the next entity index.
    pub fn pick(&self, rng: &mut SimRng) -> usize {
        match &self.zipf {
            Some(zipf) => zipf.sample(rng),
            None => rng.index(self.n),
        }
    }
}

/// Draws `(from, to)` pairs of *distinct* entity indices for multi-key
/// transactions (transfers, order+stock pairs) from one shared skew
/// distribution.
///
/// Both ends of the pair come from the same [`KeyChooser`], so under a
/// Zipfian skew most pairs touch the hot head of the keyspace — two
/// transactions then conflict with probability ≈ the head mass squared,
/// which is the contention regime the E20 head-to-head sweeps. Distinct
/// endpoints are enforced by re-drawing the second index (a rejection
/// loop), so one `pick` consumes a variable but deterministic number of
/// RNG draws; use it only for workloads with their own RNG stream.
///
/// ```rust
/// use tca_sim::SimRng;
/// use tca_workloads::loadgen::PairChooser;
///
/// let mut rng = SimRng::new(7);
/// let pairs = PairChooser::zipfian(16, 0.99);
/// for _ in 0..100 {
///     let (from, to) = pairs.pick(&mut rng);
///     assert!(from != to && from < 16 && to < 16);
/// }
/// ```
pub struct PairChooser {
    chooser: KeyChooser,
}

impl PairChooser {
    /// Uniform pairs over `0..n`. Panics if `n < 2` (no distinct pair
    /// exists).
    pub fn uniform(n: usize) -> Self {
        assert!(n >= 2, "pair chooser needs at least two entities");
        PairChooser {
            chooser: KeyChooser::uniform(n),
        }
    }

    /// Zipfian pairs over `0..n` with skew `theta` (0 = uniform weights,
    /// 0.99 = the YCSB hot spot). Panics if `n < 2`.
    pub fn zipfian(n: usize, theta: f64) -> Self {
        assert!(n >= 2, "pair chooser needs at least two entities");
        PairChooser {
            chooser: KeyChooser::zipfian(n, theta),
        }
    }

    /// Domain size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chooser.len()
    }

    /// True when the domain is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chooser.is_empty()
    }

    /// Draw the next `(from, to)` pair, `from != to`.
    pub fn pick(&self, rng: &mut SimRng) -> (usize, usize) {
        let from = self.chooser.pick(rng);
        loop {
            let to = self.chooser.pick(rng);
            if to != from {
                return (from, to);
            }
        }
    }
}

/// Classifies a reply payload as success (`true`) or failure.
pub type ResponseClassifier = Rc<dyn Fn(&Payload) -> bool>;

/// A reply counts as success when it is a `T` that `ok` accepts.
fn classifier<T: 'static>(ok: impl Fn(&T) -> bool + 'static) -> ResponseClassifier {
    Rc::new(move |payload| payload.downcast_ref::<T>().is_some_and(&ok))
}

/// Standard classifier for database replies ([`tca_storage::DbReply`]).
pub fn db_classifier() -> ResponseClassifier {
    classifier(|r: &DbReply| {
        matches!(
            r.resp,
            DbResponse::CallOk { .. } | DbResponse::Committed { .. }
        )
    })
}

/// Saga replies ([`SagaOutcome`]): success = committed, not compensated.
pub fn saga_classifier() -> ResponseClassifier {
    classifier(|o: &SagaOutcome| o.committed)
}

/// 2PC replies ([`DtxOutcome`]): success = committed.
pub fn dtx_classifier() -> ResponseClassifier {
    classifier(|o: &DtxOutcome| o.committed)
}

/// Deterministic-engine replies ([`TxnOutcome`]): success = the
/// procedure returned `Ok`.
pub fn txn_classifier() -> ResponseClassifier {
    classifier(|o: &TxnOutcome| o.result.is_ok())
}

/// Statefun replies ([`OrchestrationResult`]): success = the
/// orchestration returned `Ok`.
pub fn orchestration_classifier() -> ResponseClassifier {
    classifier(|r: &OrchestrationResult| r.result.is_ok())
}

/// Microservice replies ([`ServiceReply`]): success = the endpoint
/// returned `Ok`.
pub fn service_classifier() -> ResponseClassifier {
    classifier(|r: &ServiceReply| r.result.is_ok())
}

/// Record one finished request under `metric`: its latency (when the
/// start is known) in `<metric>.latency`, its outcome in `<metric>.ok` /
/// `<metric>.err`, and — once, when `finished` says the run's last
/// request was just answered — the completion time `<metric>.done_at_us`
/// over which [`LoadSummary::read`] computes throughput.
fn record_completion(
    ctx: &mut Ctx,
    metric: &str,
    started: Option<SimTime>,
    ok: bool,
    finished: bool,
) {
    let now = ctx.now();
    if let Some(start) = started {
        ctx.metrics()
            .record(&format!("{metric}.latency"), now.since(start));
    }
    let suffix = if ok { "ok" } else { "err" };
    ctx.metrics().incr(&format!("{metric}.{suffix}"), 1);
    if finished {
        let key = format!("{metric}.done_at_us");
        if ctx.metrics().counter(&key) == 0 {
            ctx.metrics().incr(&key, now.as_nanos() / 1_000);
        }
    }
}

/// What a load generator recorded under one metric prefix, as the
/// numbers experiments print.
#[derive(Debug, Clone, Copy)]
pub struct LoadSummary {
    /// Requests that succeeded.
    pub ok: u64,
    /// Requests that failed.
    pub err: u64,
    /// Virtual seconds the run took: up to the last completion when the
    /// generator stamped it (a limited closed loop), else up to now.
    pub seconds: f64,
    /// Median latency in milliseconds; `None` when nothing completed.
    pub p50_ms: Option<f64>,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: Option<f64>,
}

impl LoadSummary {
    /// Read the results recorded under `metric` out of `sim`.
    pub fn read(sim: &Sim, metric: &str) -> Self {
        let metrics = sim.metrics();
        let done_at_us = metrics.counter(&format!("{metric}.done_at_us"));
        let seconds = if done_at_us > 0 {
            done_at_us as f64 / 1e6
        } else {
            sim.now().as_secs_f64()
        };
        let latency = metrics.histogram(&format!("{metric}.latency"));
        LoadSummary {
            ok: metrics.counter(&format!("{metric}.ok")),
            err: metrics.counter(&format!("{metric}.err")),
            seconds: seconds.max(1e-9),
            p50_ms: latency.map(|h| h.p50().as_millis_f64()),
            p99_ms: latency.map(|h| h.p99().as_millis_f64()),
        }
    }

    /// Successful requests per virtual second.
    pub fn throughput(&self) -> f64 {
        self.ok as f64 / self.seconds
    }
}

/// Closed-loop configuration.
#[derive(Clone)]
pub struct ClosedLoopConfig {
    /// Number of logical clients (max outstanding requests).
    pub clients: usize,
    /// Think time between a completion and the next request.
    pub think_time: SimDuration,
    /// Metric prefix (`<prefix>.latency`, `<prefix>.ok`, `<prefix>.err`).
    pub metric: String,
    /// Stop issuing after this many total requests (None = run forever).
    pub limit: Option<u64>,
    /// Retry policy for each request.
    pub retry: RetryPolicy,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            clients: 8,
            think_time: SimDuration::ZERO,
            metric: "load".into(),
            limit: None,
            retry: RetryPolicy::retrying(8, SimDuration::from_millis(50)),
        }
    }
}

const THINK_TAG: u64 = 0x10ad_0001;

/// Closed-loop load generator process over RPC.
pub struct ClosedLoopGen {
    route: RequestRouter,
    classify: ResponseClassifier,
    config: ClosedLoopConfig,
    rpc: RpcClient,
    issued: u64,
    started: HashMap<u64, SimTime>,
    next_tag: u64,
}

impl ClosedLoopGen {
    /// Process factory for a loop whose every request goes to `target`.
    pub fn factory(
        target: ProcessId,
        request: RequestFactory,
        classify: ResponseClassifier,
        config: ClosedLoopConfig,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        Self::routed(Rc::new(move |rng| (target, request(rng))), classify, config)
    }

    /// Process factory for a loop whose requests choose their own target:
    /// `route` draws the request and returns where to send it.
    pub fn routed(
        route: RequestRouter,
        classify: ResponseClassifier,
        config: ClosedLoopConfig,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        move |_| {
            Box::new(ClosedLoopGen {
                route: Rc::clone(&route),
                classify: Rc::clone(&classify),
                config: config.clone(),
                rpc: RpcClient::new(),
                issued: 0,
                started: HashMap::default(),
                next_tag: 0,
            })
        }
    }

    fn issue(&mut self, ctx: &mut Ctx) {
        if let Some(limit) = self.config.limit {
            if self.issued >= limit {
                return;
            }
        }
        self.issued += 1;
        self.next_tag += 1;
        let tag = self.next_tag;
        let (target, body) = (self.route)(ctx.rng());
        self.started.insert(tag, ctx.now());
        self.rpc.call(ctx, target, body, self.config.retry, tag);
    }

    fn complete(&mut self, ctx: &mut Ctx, tag: u64, ok: bool) {
        let started = self.started.remove(&tag);
        if self.config.think_time == SimDuration::ZERO {
            self.issue(ctx);
        } else {
            ctx.set_timer(self.config.think_time, THINK_TAG);
        }
        // All requests answered: the completion time is stamped so
        // harnesses compute throughput over actual runtime.
        let finished = self.config.limit == Some(self.issued) && self.started.is_empty();
        record_completion(ctx, &self.config.metric, started, ok, finished);
    }

    fn absorb(&mut self, ctx: &mut Ctx, event: RpcEvent) {
        match event {
            RpcEvent::Reply { user_tag, body, .. } => {
                let ok = (self.classify)(&body);
                self.complete(ctx, user_tag, ok);
            }
            RpcEvent::Failed { user_tag, .. } => self.complete(ctx, user_tag, false),
        }
    }
}

impl Process for ClosedLoopGen {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for _ in 0..self.config.clients {
            self.issue(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        if let Some(event) = self.rpc.on_message(ctx, &payload) {
            self.absorb(ctx, event);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag == THINK_TAG {
            self.issue(ctx);
            return;
        }
        if let Some(Some(event)) = self.rpc.on_timer(ctx, tag) {
            self.absorb(ctx, event);
        }
    }
}

/// One actor call: `(actor, method, arguments)`.
pub type ActorCall = (ActorId, String, Vec<Value>);

/// Builds one [`ActorClosedLoop`] request: the actor calls to run in
/// order (at least one).
pub type ActorRequestFactory = Rc<dyn Fn(&mut SimRng) -> Vec<ActorCall>>;

/// A request part-way through its calls.
struct ActorRequest {
    started: SimTime,
    rest: std::vec::IntoIter<ActorCall>,
}

/// Closed-loop load generator process over the actor runtime: `clients`
/// requests outstanding until `limit` were issued, results under `metric`
/// exactly as [`ClosedLoopGen`] records them.
///
/// A request's calls run one after the other; the first failure ends the
/// request as failed *without* running the rest — which is how plain
/// actors lose atomicity (the debit stays applied) and why a transactional
/// request is a single call to a coordinator actor.
pub struct ActorClosedLoop {
    router: ActorRouter,
    request: ActorRequestFactory,
    clients: usize,
    limit: u64,
    metric: String,
    issued: u64,
    /// Tag of each request's running call → the request.
    in_flight: HashMap<u64, ActorRequest>,
    next_tag: u64,
}

impl ActorClosedLoop {
    /// Process factory for a loop invoking through `directory`.
    pub fn factory(
        directory: ProcessId,
        request: ActorRequestFactory,
        clients: usize,
        limit: u64,
        metric: &str,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        let metric = metric.to_owned();
        move |_| {
            Box::new(ActorClosedLoop {
                router: ActorRouter::new(directory),
                request: Rc::clone(&request),
                clients,
                limit,
                metric: metric.clone(),
                issued: 0,
                in_flight: HashMap::default(),
                next_tag: 0,
            })
        }
    }

    fn issue(&mut self, ctx: &mut Ctx) {
        if self.issued >= self.limit {
            return;
        }
        self.issued += 1;
        let mut rest = (self.request)(ctx.rng()).into_iter();
        let first = rest.next().expect("an actor request makes a call");
        let started = ctx.now();
        self.invoke(ctx, first, ActorRequest { started, rest });
    }

    fn invoke(&mut self, ctx: &mut Ctx, (id, method, args): ActorCall, request: ActorRequest) {
        self.next_tag += 1;
        self.in_flight.insert(self.next_tag, request);
        self.router.invoke(ctx, id, method, args, self.next_tag);
    }

    fn absorb(&mut self, ctx: &mut Ctx, completions: Vec<ActorCompletion>) {
        for completion in completions {
            let Some(mut request) = self.in_flight.remove(&completion.user_tag) else {
                continue;
            };
            let ok = completion.result.is_ok();
            if ok {
                if let Some(next) = request.rest.next() {
                    self.invoke(ctx, next, request);
                    continue;
                }
            }
            self.issue(ctx);
            let finished = self.issued == self.limit && self.in_flight.is_empty();
            record_completion(ctx, &self.metric, Some(request.started), ok, finished);
        }
    }
}

impl Process for ActorClosedLoop {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for _ in 0..self.clients {
            self.issue(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        let completions = self.router.on_message(ctx, &payload);
        self.absorb(ctx, completions);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if let Some(completions) = self.router.on_timer(ctx, tag) {
            self.absorb(ctx, completions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use tca_models::actor::{
        ActorLogic, ActorRegistry, ActorSilo, ActorStep, Directory, SiloConfig,
    };
    use tca_storage::{DbMsg, DbServer, DbServerConfig, ProcRegistry};

    fn bump_db(sim: &mut Sim, name: &'static str) -> ProcessId {
        let node = sim.add_node();
        sim.spawn(
            node,
            name,
            DbServer::factory(
                name,
                DbServerConfig::default(),
                ProcRegistry::new().with("bump", |tx, _| {
                    let v = tx.get("counter").map(|v| v.as_int()).unwrap_or(0);
                    tx.put("counter", Value::Int(v + 1));
                    Ok(vec![])
                }),
            ),
        )
    }

    fn bump_factory() -> RequestFactory {
        Rc::new(|_rng| Payload::new(DbMsg::call("bump", vec![])))
    }

    #[test]
    fn pair_chooser_returns_distinct_skewed_pairs() {
        let mut sim = Sim::with_seed(99);
        let node = sim.add_node();
        struct Probe;
        impl Process for Probe {
            fn on_start(&mut self, ctx: &mut Ctx) {
                let uniform = PairChooser::uniform(16);
                let hot = PairChooser::zipfian(16, 0.99);
                let mut hot_hits = 0;
                for _ in 0..200 {
                    let (a, b) = uniform.pick(ctx.rng());
                    assert_ne!(a, b, "uniform pair must be distinct");
                    let (a, b) = hot.pick(ctx.rng());
                    assert_ne!(a, b, "skewed pair must be distinct");
                    if a == 0 || b == 0 {
                        hot_hits += 1;
                    }
                }
                // θ=0.99 concentrates mass on index 0: the hot entity must
                // appear in far more pairs than the uniform 1/8 would give.
                assert!(hot_hits > 60, "hot entity in only {hot_hits}/200 pairs");
            }
            fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
        }
        sim.spawn(node, "probe", |_| Box::new(Probe));
        sim.run_for(SimDuration::from_millis(1));
    }

    #[test]
    fn closed_loop_respects_limit_and_counts() {
        let mut sim = Sim::with_seed(141);
        let db = bump_db(&mut sim, "db");
        let node = sim.add_node();
        sim.spawn(
            node,
            "gen",
            ClosedLoopGen::factory(
                db,
                bump_factory(),
                db_classifier(),
                ClosedLoopConfig {
                    clients: 4,
                    limit: Some(40),
                    metric: "cl".into(),
                    ..ClosedLoopConfig::default()
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().counter("cl.ok"), 40);
        assert_eq!(sim.metrics().counter("db.calls_ok"), 40);
        let hist = sim.metrics().histogram("cl.latency").expect("recorded");
        assert_eq!(hist.count(), 40);
    }

    #[test]
    fn closed_loop_think_time_throttles() {
        // 1 client, 10ms think time, 100ms run ⇒ ≈ 10 requests max.
        let mut sim = Sim::with_seed(142);
        let db = bump_db(&mut sim, "db");
        let node = sim.add_node();
        sim.spawn(
            node,
            "gen",
            ClosedLoopGen::factory(
                db,
                bump_factory(),
                db_classifier(),
                ClosedLoopConfig {
                    clients: 1,
                    think_time: SimDuration::from_millis(10),
                    metric: "cl".into(),
                    ..ClosedLoopConfig::default()
                },
            ),
        );
        sim.run_for(SimDuration::from_millis(100));
        let ok = sim.metrics().counter("cl.ok");
        assert!((5..=12).contains(&ok), "throttled to ~10, got {ok}");
    }

    #[test]
    fn routed_loop_bounds_outstanding_reaches_every_target_and_stamps_once() {
        let mut sim = Sim::with_seed(143);
        let dbs = [bump_db(&mut sim, "db0"), bump_db(&mut sim, "db1")];
        let node = sim.add_node();
        // Outstanding = requests routed − replies classified; the route
        // closure sees it at every issue.
        let routed = Rc::new(Cell::new(0u64));
        let answered = Rc::new(Cell::new(0u64));
        let max_outstanding = Rc::new(Cell::new(0u64));
        let route: RequestRouter = {
            let (routed, answered, max) = (
                Rc::clone(&routed),
                Rc::clone(&answered),
                Rc::clone(&max_outstanding),
            );
            Rc::new(move |_rng| {
                let i = routed.get();
                routed.set(i + 1);
                max.set(max.get().max(i + 1 - answered.get()));
                (
                    dbs[(i % 2) as usize],
                    Payload::new(DbMsg::call("bump", vec![])),
                )
            })
        };
        let classify: ResponseClassifier = {
            let (answered, db) = (Rc::clone(&answered), db_classifier());
            Rc::new(move |payload| {
                answered.set(answered.get() + 1);
                db(payload)
            })
        };
        sim.spawn(
            node,
            "gen",
            ClosedLoopGen::routed(
                route,
                classify,
                ClosedLoopConfig {
                    clients: 3,
                    limit: Some(31),
                    metric: "rt".into(),
                    ..ClosedLoopConfig::default()
                },
            ),
        );
        // Step to the last completion: the stamp is that instant.
        while sim.metrics().counter("rt.ok") < 31 {
            assert!(sim.step(), "ran dry before the limit");
        }
        let stamp = sim.metrics().counter("rt.done_at_us");
        assert_eq!(stamp, sim.now().as_nanos() / 1_000);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(routed.get(), 31, "stops at the limit");
        assert_eq!(max_outstanding.get(), 3, "never more than `clients`");
        assert_eq!(sim.metrics().counter("db0.calls_ok"), 16);
        assert_eq!(sim.metrics().counter("db1.calls_ok"), 15);
        assert_eq!(
            sim.metrics().counter("rt.done_at_us"),
            stamp,
            "stamped once"
        );
        assert_eq!(LoadSummary::read(&sim, "rt").seconds, stamp as f64 / 1e6);
    }

    /// Actor `probe/<key>`: `ok` succeeds, `fail` fails; every invocation
    /// is appended to the shared log.
    struct ProbeActor {
        log: Rc<RefCell<Vec<String>>>,
    }
    impl ActorLogic for ProbeActor {
        fn invoke(&mut self, state: &mut Value, method: &str, _args: &[Value]) -> ActorStep {
            self.log
                .borrow_mut()
                .push(format!("{}.{method}", state.as_str()));
            ActorStep::Done(match method {
                "ok" => Ok(vec![]),
                _ => Err("refused".into()),
            })
        }
    }

    #[test]
    fn actor_loop_runs_calls_in_order_and_stops_at_the_first_failure() {
        let mut sim = Sim::with_seed(144);
        let nodes = sim.add_nodes(3);
        let directory = sim.spawn(nodes[0], "dir", Directory::factory());
        let log = Rc::new(RefCell::new(Vec::new()));
        let registry = {
            let log = Rc::clone(&log);
            ActorRegistry::new().with(
                "probe",
                move || {
                    Box::new(ProbeActor {
                        log: Rc::clone(&log),
                    })
                },
                |key| Value::from(key),
            )
        };
        sim.spawn(
            nodes[1],
            "silo",
            ActorSilo::factory(registry, SiloConfig::volatile(directory)),
        );
        // Odd requests fail their first leg.
        let seq = Cell::new(0u64);
        let request: ActorRequestFactory = Rc::new(move |_rng| {
            seq.set(seq.get() + 1);
            let first = if seq.get() % 2 == 1 { "fail" } else { "ok" };
            vec![
                (ActorId::new("probe", "a"), first.to_owned(), vec![]),
                (ActorId::new("probe", "b"), "ok".to_owned(), vec![]),
            ]
        });
        sim.spawn(
            nodes[2],
            "gen",
            ActorClosedLoop::factory(directory, request, 1, 5, "al"),
        );
        sim.run_for(SimDuration::from_secs(1));
        // One client ⇒ the log is the exact call order: `b` only ever
        // follows a successful `a`.
        assert_eq!(
            *log.borrow(),
            ["a.fail", "a.ok", "b.ok", "a.fail", "a.ok", "b.ok", "a.fail"]
        );
        // One completion per request, a failed first leg included.
        assert_eq!(sim.metrics().counter("al.ok"), 2);
        assert_eq!(sim.metrics().counter("al.err"), 3);
        let hist = sim.metrics().histogram("al.latency").expect("recorded");
        assert_eq!(hist.count(), 5);
        assert!(sim.metrics().counter("al.done_at_us") > 0);
    }
}
