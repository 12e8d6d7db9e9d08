//! Load generation: closed-loop vs. open-loop clients (§5.3, citing
//! Schroeder et al. \[56\] — "modeling request arrivals should consider
//! systems' design goals and the cloud serving model used").
//!
//! - **Closed loop**: `N` logical clients, each with at most one request
//!   outstanding plus think time. Latency self-throttles throughput.
//! - **Open loop**: Poisson arrivals at rate λ regardless of completions.
//!   Beyond saturation, queues (and latencies) grow without bound — the
//!   behaviour experiment E10 reproduces.
//!
//! Both drive any RPC-enveloped target (database `Call`s, sagas, 2PC,
//! deterministic transactions, service endpoints) through a payload
//! factory and classify replies with a pluggable function.

use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_messaging::rpc::{RetryPolicy, RpcClient, RpcEvent};
use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, Sim, SimDuration, SimRng, SimTime, Zipf};

/// Builds one request payload (the body placed inside the RPC envelope).
pub type RequestFactory = Rc<dyn Fn(&mut SimRng) -> Payload>;

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

/// Standard classifier for database replies ([`tca_storage::DbReply`]).
pub fn db_classifier() -> ResponseClassifier {
    Rc::new(|payload| {
        use tca_storage::{DbReply, DbResponse};
        payload.downcast_ref::<DbReply>().is_some_and(|r| {
            matches!(
                r.resp,
                DbResponse::CallOk { .. } | DbResponse::Committed { .. }
            )
        })
    })
}

/// Record one finished request under `metric`: its latency (when the
/// start is known) in `<metric>.latency`, its outcome in `<metric>.ok` /
/// `<metric>.err`, and — once, when `finished` says the run's last
/// request was just answered — the completion time `<metric>.done_at_us`
/// over which [`LoadSummary::read`] computes throughput.
pub fn record_completion(
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

/// What a load generator recorded under one metric prefix (see
/// [`record_completion`]), as the numbers experiments print.
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
            p50_ms: latency.map(|h| h.p50().as_nanos() as f64 / 1e6),
            p99_ms: latency.map(|h| h.p99().as_nanos() as f64 / 1e6),
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

/// Closed-loop load generator process.
pub struct ClosedLoopGen {
    target: ProcessId,
    factory: RequestFactory,
    classify: ResponseClassifier,
    config: ClosedLoopConfig,
    rpc: RpcClient,
    issued: u64,
    started: HashMap<u64, SimTime>,
    next_tag: u64,
}

impl ClosedLoopGen {
    /// Process factory.
    pub fn factory(
        target: ProcessId,
        request: RequestFactory,
        classify: ResponseClassifier,
        config: ClosedLoopConfig,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        move |_| {
            Box::new(ClosedLoopGen {
                target,
                factory: Rc::clone(&request),
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
        let body = (self.factory)(ctx.rng());
        self.started.insert(tag, ctx.now());
        self.rpc
            .call(ctx, self.target, body, self.config.retry, tag);
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

/// Open-loop configuration.
#[derive(Clone)]
pub struct OpenLoopConfig {
    /// Mean inter-arrival time (Poisson process): rate = 1 / this.
    pub mean_interarrival: SimDuration,
    /// Metric prefix.
    pub metric: String,
    /// Stop issuing after this many requests (None = forever).
    pub limit: Option<u64>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            mean_interarrival: SimDuration::from_millis(1),
            metric: "load".into(),
            limit: None,
        }
    }
}

const ARRIVAL_TAG: u64 = 0x10ad_0002;

/// Open-loop (Poisson) load generator process.
pub struct OpenLoopGen {
    target: ProcessId,
    factory: RequestFactory,
    classify: ResponseClassifier,
    config: OpenLoopConfig,
    rpc: RpcClient,
    issued: u64,
    started: HashMap<u64, SimTime>,
    next_tag: u64,
}

impl OpenLoopGen {
    /// Process factory.
    pub fn factory(
        target: ProcessId,
        request: RequestFactory,
        classify: ResponseClassifier,
        config: OpenLoopConfig,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        move |_| {
            Box::new(OpenLoopGen {
                target,
                factory: Rc::clone(&request),
                classify: Rc::clone(&classify),
                config: config.clone(),
                rpc: RpcClient::new(),
                issued: 0,
                started: HashMap::default(),
                next_tag: 0,
            })
        }
    }

    fn schedule_arrival(&mut self, ctx: &mut Ctx) {
        let wait = ctx.rng().exponential(self.config.mean_interarrival);
        ctx.set_timer(wait, ARRIVAL_TAG);
    }

    fn absorb(&mut self, ctx: &mut Ctx, event: RpcEvent) {
        let (tag, ok) = match event {
            RpcEvent::Reply { user_tag, body, .. } => (user_tag, (self.classify)(&body)),
            RpcEvent::Failed { user_tag, .. } => (user_tag, false),
        };
        let started = self.started.remove(&tag);
        record_completion(ctx, &self.config.metric, started, ok, false);
    }
}

impl Process for OpenLoopGen {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.schedule_arrival(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        if let Some(event) = self.rpc.on_message(ctx, &payload) {
            self.absorb(ctx, event);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag == ARRIVAL_TAG {
            if self.config.limit.is_none_or(|limit| self.issued < limit) {
                self.issued += 1;
                self.next_tag += 1;
                let user_tag = self.next_tag;
                let body = (self.factory)(ctx.rng());
                self.started.insert(user_tag, ctx.now());
                // Open loop: single attempt, generous timeout (we measure
                // queueing, not retries).
                self.rpc.call(
                    ctx,
                    self.target,
                    body,
                    RetryPolicy::at_most_once(SimDuration::from_secs(30)),
                    user_tag,
                );
                self.schedule_arrival(ctx);
            }
            return;
        }
        if let Some(Some(event)) = self.rpc.on_timer(ctx, tag) {
            self.absorb(ctx, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::Sim;
    use tca_storage::{DbMsg, DbRequest, DbServer, DbServerConfig, ProcRegistry, Value};

    fn bump_db(sim: &mut Sim) -> ProcessId {
        let node = sim.add_node();
        sim.spawn(
            node,
            "db",
            DbServer::factory(
                "db",
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
        Rc::new(|_rng| {
            Payload::new(DbMsg {
                token: 0,
                req: DbRequest::Call {
                    proc: "bump".into(),
                    args: vec![],
                },
            })
        })
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
        let db = bump_db(&mut sim);
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
        let db = bump_db(&mut sim);
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
    fn open_loop_issues_at_configured_rate() {
        // Mean inter-arrival 1ms over 1s ⇒ ≈ 1000 arrivals.
        let mut sim = Sim::with_seed(143);
        let db = bump_db(&mut sim);
        let node = sim.add_node();
        sim.spawn(
            node,
            "gen",
            OpenLoopGen::factory(
                db,
                bump_factory(),
                db_classifier(),
                OpenLoopConfig {
                    mean_interarrival: SimDuration::from_millis(1),
                    metric: "ol".into(),
                    limit: None,
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(1));
        let ok = sim.metrics().counter("ol.ok");
        assert!(
            (800..=1200).contains(&ok),
            "Poisson(1000) completions, got {ok}"
        );
    }
}
