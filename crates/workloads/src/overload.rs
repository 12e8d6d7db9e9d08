//! The open loop: Poisson arrivals at rate λ regardless of completions,
//! on a phased rate schedule with per-request deadlines.
//!
//! With one phase, no deadline and the default single-attempt policy it
//! measures *queueing* at a fixed rate — beyond saturation, queues (and
//! latencies) grow without bound, the behaviour experiment E10
//! reproduces against the closed loops of [`crate::loadgen`]. With a
//! schedule of rates (e.g. 0.5× capacity → 3× → back) and a deadline it
//! measures *resilience* (experiment E17): completions are classified as
//! **goodput** (answered within the deadline), **late**, or **error**.
//! The retry policy, retry budget, and circuit breaker are all
//! configurable so the same driver expresses both a naive retrying client
//! (which melts the server past saturation) and a fully-armed resilient
//! one (which sheds and degrades gracefully).

use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_messaging::rpc::{BreakerConfig, RetryBudget, RetryPolicy, RpcClient, RpcEvent};
use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, SimDuration, SimTime};

use crate::loadgen::{RequestFactory, ResponseClassifier};

/// One segment of the arrival-rate schedule.
#[derive(Clone, Debug)]
pub struct OverloadPhase {
    /// How long this phase lasts.
    pub duration: SimDuration,
    /// Mean inter-arrival time during the phase (Poisson; rate = 1/this).
    pub mean_interarrival: SimDuration,
}

impl OverloadPhase {
    /// A phase of `duration` at the given mean inter-arrival time.
    pub fn new(duration: SimDuration, mean_interarrival: SimDuration) -> Self {
        OverloadPhase {
            duration,
            mean_interarrival,
        }
    }
}

/// Overload-driver configuration.
#[derive(Clone)]
pub struct OverloadConfig {
    /// Arrival-rate schedule, executed in order; issuing stops after the
    /// last phase ends (in-flight requests still complete).
    pub phases: Vec<OverloadPhase>,
    /// Metric prefix (`<prefix>.goodput`, `.late`, `.err`, `.latency`,
    /// plus per-phase `.phase<i>.issued` / `.phase<i>.goodput`).
    pub metric: String,
    /// Per-request latency budget. Always used to classify completions
    /// (goodput vs late); propagated to servers only when
    /// [`propagate_deadline`](Self::propagate_deadline) is set. `None` =
    /// no deadline (every success counts as goodput).
    pub deadline: Option<SimDuration>,
    /// Stamp the deadline into the context before each call so it rides
    /// to servers (which shed doomed work) and retry timers. A *naive*
    /// client has an SLO but keeps it to itself — set this `false` to
    /// model that.
    pub propagate_deadline: bool,
    /// Retry policy for each request.
    pub retry: RetryPolicy,
    /// Optional client-wide retry budget.
    pub budget: Option<RetryBudget>,
    /// Optional per-destination circuit breaker.
    pub breaker: Option<BreakerConfig>,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            phases: vec![OverloadPhase::new(
                SimDuration::from_secs(1),
                SimDuration::from_millis(1),
            )],
            metric: "overload".into(),
            deadline: None,
            propagate_deadline: true,
            retry: RetryPolicy::at_most_once(SimDuration::from_secs(30)),
            budget: None,
            breaker: None,
        }
    }
}

const ARRIVAL_TAG: u64 = 0x10ad_0003;
const PHASE_TAG: u64 = 0x10ad_0004;

struct Outstanding {
    start: SimTime,
    deadline: Option<SimTime>,
    phase: usize,
}

/// Phased open-loop overload generator process.
pub struct OverloadGen {
    target: ProcessId,
    factory: RequestFactory,
    classify: ResponseClassifier,
    config: OverloadConfig,
    rpc: RpcClient,
    phase: usize,
    started: HashMap<u64, Outstanding>,
    next_tag: u64,
}

impl OverloadGen {
    /// Process factory.
    pub fn factory(
        target: ProcessId,
        request: RequestFactory,
        classify: ResponseClassifier,
        config: OverloadConfig,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        move |_| {
            let mut rpc = RpcClient::new();
            if let Some(budget) = config.budget {
                rpc = rpc.with_budget(budget);
            }
            if let Some(breaker) = config.breaker {
                rpc = rpc.with_breaker(breaker);
            }
            Box::new(OverloadGen {
                target,
                factory: Rc::clone(&request),
                classify: Rc::clone(&classify),
                config: config.clone(),
                rpc,
                phase: 0,
                started: HashMap::default(),
                next_tag: 0,
            })
        }
    }

    fn current_phase(&self) -> Option<&OverloadPhase> {
        self.config.phases.get(self.phase)
    }

    fn schedule_arrival(&mut self, ctx: &mut Ctx) {
        if let Some(phase) = self.current_phase() {
            let mean = phase.mean_interarrival;
            let wait = ctx.rng().exponential(mean);
            ctx.set_timer(wait, ARRIVAL_TAG);
        }
    }

    fn issue(&mut self, ctx: &mut Ctx) {
        self.next_tag += 1;
        let tag = self.next_tag;
        let body = (self.factory)(ctx.rng());
        // Stamp the request deadline into the context so the Send effect
        // carries it to the server (and retry timers inherit it), then
        // restore whatever was there before.
        let deadline = self.config.deadline.map(|budget| ctx.now() + budget);
        let prev = self
            .config
            .propagate_deadline
            .then(|| ctx.set_deadline(deadline));
        self.started.insert(
            tag,
            Outstanding {
                start: ctx.now(),
                deadline,
                phase: self.phase,
            },
        );
        ctx.metrics()
            .incr(&format!("{}.issued", self.config.metric), 1);
        ctx.metrics().incr(
            &format!("{}.phase{}.issued", self.config.metric, self.phase),
            1,
        );
        self.rpc
            .call(ctx, self.target, body, self.config.retry, tag);
        if let Some(prev) = prev {
            ctx.set_deadline(prev);
        }
    }

    fn absorb(&mut self, ctx: &mut Ctx, event: RpcEvent) {
        let (tag, ok) = match event {
            RpcEvent::Reply { user_tag, body, .. } => (user_tag, (self.classify)(&body)),
            RpcEvent::Failed { user_tag, .. } => (user_tag, false),
        };
        let Some(out) = self.started.remove(&tag) else {
            return;
        };
        let metric = &self.config.metric;
        let in_deadline = out.deadline.is_none_or(|d| ctx.now() <= d);
        let outcome = match (ok, in_deadline) {
            (true, true) => "goodput",
            (true, false) => "late",
            (false, _) => "err",
        };
        if ok && in_deadline {
            let elapsed = ctx.now().since(out.start);
            ctx.metrics().record(&format!("{metric}.latency"), elapsed);
            ctx.metrics()
                .incr(&format!("{metric}.phase{}.goodput", out.phase), 1);
        }
        ctx.metrics().incr(&format!("{metric}.{outcome}"), 1);
    }
}

impl Process for OverloadGen {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if let Some(phase) = self.current_phase() {
            ctx.set_timer(phase.duration, PHASE_TAG);
            self.schedule_arrival(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        if let Some(event) = self.rpc.on_message(ctx, &payload) {
            self.absorb(ctx, event);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        match tag {
            ARRIVAL_TAG => {
                if self.current_phase().is_some() {
                    self.issue(ctx);
                    self.schedule_arrival(ctx);
                }
            }
            PHASE_TAG => {
                self.phase += 1;
                if let Some(phase) = self.current_phase() {
                    ctx.set_timer(phase.duration, PHASE_TAG);
                    // Re-arm arrivals at the new rate; the pending arrival
                    // timer from the old phase still fires once, which is
                    // fine — rates only differ by small constant factors.
                }
            }
            _ => {
                if let Some(Some(event)) = self.rpc.on_timer(ctx, tag) {
                    self.absorb(ctx, event);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::db_classifier;
    use tca_sim::Sim;
    use tca_storage::{DbMsg, DbServer, DbServerConfig, ProcRegistry, Value};

    fn bump_db(sim: &mut Sim, commit_latency: SimDuration) -> ProcessId {
        let node = sim.add_node();
        sim.spawn(
            node,
            "db",
            DbServer::factory(
                "db",
                DbServerConfig {
                    commit_latency,
                    ..DbServerConfig::default()
                },
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
    fn one_phase_issues_at_its_configured_rate() {
        // Mean inter-arrival 1ms over 1s ⇒ ≈ 1000 arrivals.
        let mut sim = Sim::with_seed(143);
        let db = bump_db(&mut sim, SimDuration::from_micros(100));
        let node = sim.add_node();
        sim.spawn(
            node,
            "gen",
            OverloadGen::factory(
                db,
                bump_factory(),
                db_classifier(),
                OverloadConfig {
                    metric: "ol".into(),
                    ..OverloadConfig::default()
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(1));
        let ok = sim.metrics().counter("ol.goodput");
        assert!(
            (800..=1200).contains(&ok),
            "Poisson(1000) completions, got {ok}"
        );
    }

    #[test]
    fn phases_change_the_arrival_rate() {
        // Phase 0: 1ms mean for 500ms (≈500). Phase 1: 10ms mean for
        // 500ms (≈50). Total issued ≈ 550, far from the ≈1000 a single
        // 1ms-rate second would produce.
        let mut sim = Sim::with_seed(151);
        let db = bump_db(&mut sim, SimDuration::from_micros(10));
        let node = sim.add_node();
        sim.spawn(
            node,
            "gen",
            OverloadGen::factory(
                db,
                bump_factory(),
                db_classifier(),
                OverloadConfig {
                    phases: vec![
                        OverloadPhase::new(
                            SimDuration::from_millis(500),
                            SimDuration::from_millis(1),
                        ),
                        OverloadPhase::new(
                            SimDuration::from_millis(500),
                            SimDuration::from_millis(10),
                        ),
                    ],
                    metric: "ov".into(),
                    ..OverloadConfig::default()
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(2));
        let issued = sim.metrics().counter("ov.issued");
        assert!(
            (400..=750).contains(&issued),
            "two-phase schedule issued {issued}"
        );
        assert!(sim.metrics().counter("ov.phase0.issued") > 0);
        assert!(sim.metrics().counter("ov.phase1.issued") > 0);
        assert_eq!(sim.metrics().counter("ov.goodput"), issued);
    }

    #[test]
    fn deadline_classifies_late_responses() {
        // Server takes 5ms per commit; a 1ms deadline means every
        // response lands late (the server sheds expired work, so replies
        // only come back for requests admitted before their deadline).
        let mut sim = Sim::with_seed(152);
        let db = bump_db(&mut sim, SimDuration::from_millis(5));
        let node = sim.add_node();
        sim.spawn(
            node,
            "gen",
            OverloadGen::factory(
                db,
                bump_factory(),
                db_classifier(),
                OverloadConfig {
                    phases: vec![OverloadPhase::new(
                        SimDuration::from_millis(100),
                        SimDuration::from_millis(10),
                    )],
                    metric: "ov".into(),
                    deadline: Some(SimDuration::from_millis(1)),
                    retry: RetryPolicy::at_most_once(SimDuration::from_secs(1)),
                    ..OverloadConfig::default()
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(sim.metrics().counter("ov.goodput"), 0);
        let late = sim.metrics().counter("ov.late");
        let err = sim.metrics().counter("ov.err");
        assert!(late + err > 0, "every response is late or errored");
    }
}
