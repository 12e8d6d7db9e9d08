//! Load client that keeps every latency sample.
//!
//! `tca_workloads::loadgen::{ClosedLoopGen, OpenLoopGen}` record latency
//! into the log-bucketed `Histogram` (two buckets per octave), whose
//! quantiles move in 33–50 % steps — too coarse for a 2 % bound. This
//! client drives the same `RpcClient` with the same request factories,
//! classifiers and retry policies, and keeps the exact samples.

use std::cell::RefCell;
use std::rc::Rc;

use tca_messaging::rpc::{RetryPolicy, RpcClient, RpcEvent};
use tca_sim::{Boot, Ctx, DetHashMap, Payload, Process, ProcessId, SimDuration, SimTime};
use tca_workloads::loadgen::{RequestFactory, ResponseClassifier};

/// How requests are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// `clients` callers, each sending its next request when the previous
    /// one completes: a slow system receives less load.
    Closed {
        /// Requests kept in flight.
        clients: usize,
    },
    /// Poisson arrivals regardless of completions. Arrival timers run on
    /// virtual time, so the generator is never late by construction.
    Open {
        /// Mean gap between arrivals.
        mean_interarrival: SimDuration,
    },
}

impl Pacing {
    /// The retry policy the workspace's generators give the same pacing:
    /// `ClosedLoopConfig::default()`'s eight attempts, `OpenLoopGen`'s
    /// single patient one (an open loop measures queueing, not retries).
    fn retry(self) -> RetryPolicy {
        match self {
            Pacing::Closed { .. } => RetryPolicy::retrying(8, SimDuration::from_millis(50)),
            Pacing::Open { .. } => RetryPolicy::at_most_once(SimDuration::from_secs(30)),
        }
    }
}

/// What the client saw; shared with the harness through an `Rc`.
#[derive(Debug, Default)]
pub struct Samples {
    /// Latency of every completed request, nanoseconds, completion order.
    pub latencies_ns: Vec<u64>,
    /// Requests sent.
    pub issued: u64,
    /// Replies the classifier accepted (commits).
    pub ok: u64,
    /// Replies it rejected: the system answered, with an abort or a shed.
    pub rejected: u64,
    /// Calls that never got an answer (timed out, gave up).
    pub lost: u64,
    /// Virtual time of the last completion once `limit` requests finished.
    pub done_at: Option<SimTime>,
}

impl Samples {
    /// Requests that reached an outcome.
    pub fn completed(&self) -> u64 {
        self.ok + self.rejected + self.lost
    }
}

/// Handle to a client's [`Samples`].
pub type Shared = Rc<RefCell<Samples>>;

const ARRIVAL_TAG: u64 = 0xbe4c_0001;

/// The client process: issues `limit` requests to `target`, then stops.
pub struct LoadClient {
    target: ProcessId,
    factory: RequestFactory,
    classify: ResponseClassifier,
    pacing: Pacing,
    limit: u64,
    retry: RetryPolicy,
    rpc: RpcClient,
    started: DetHashMap<u64, SimTime>,
    out: Shared,
}

impl LoadClient {
    /// Process factory plus the handle its samples land in.
    pub fn factory(
        target: ProcessId,
        request: RequestFactory,
        classify: ResponseClassifier,
        pacing: Pacing,
        limit: u64,
    ) -> (impl FnMut(&mut Boot) -> Box<dyn Process>, Shared) {
        let out = Shared::default();
        let handle = Rc::clone(&out);
        let factory = move |_: &mut Boot| -> Box<dyn Process> {
            Box::new(LoadClient {
                target,
                factory: Rc::clone(&request),
                classify: Rc::clone(&classify),
                pacing,
                limit,
                retry: pacing.retry(),
                rpc: RpcClient::new(),
                started: DetHashMap::default(),
                out: Rc::clone(&out),
            })
        };
        (factory, handle)
    }

    fn issue(&mut self, ctx: &mut Ctx) {
        let tag = {
            let mut out = self.out.borrow_mut();
            if out.issued >= self.limit {
                return;
            }
            out.issued += 1;
            out.issued
        };
        let body = (self.factory)(ctx.rng());
        self.started.insert(tag, ctx.now());
        self.rpc.call(ctx, self.target, body, self.retry, tag);
    }

    fn schedule_arrival(&mut self, ctx: &mut Ctx, mean: SimDuration) {
        let wait = ctx.rng().exponential(mean);
        ctx.set_timer(wait, ARRIVAL_TAG);
    }

    fn absorb(&mut self, ctx: &mut Ctx, event: RpcEvent) {
        let (tag, ok) = match event {
            RpcEvent::Reply { user_tag, body, .. } => (user_tag, Some((self.classify)(&body))),
            RpcEvent::Failed { user_tag, .. } => (user_tag, None),
        };
        {
            let mut out = self.out.borrow_mut();
            if let Some(start) = self.started.remove(&tag) {
                out.latencies_ns.push(ctx.now().since(start).as_nanos());
            }
            match ok {
                Some(true) => out.ok += 1,
                Some(false) => out.rejected += 1,
                None => out.lost += 1,
            }
            if out.completed() == self.limit {
                out.done_at = Some(ctx.now());
            }
        }
        if matches!(self.pacing, Pacing::Closed { .. }) {
            self.issue(ctx);
        }
    }
}

impl Process for LoadClient {
    fn on_start(&mut self, ctx: &mut Ctx) {
        match self.pacing {
            Pacing::Closed { clients } => {
                for _ in 0..clients {
                    self.issue(ctx);
                }
            }
            Pacing::Open { mean_interarrival } => self.schedule_arrival(ctx, mean_interarrival),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        if let Some(event) = self.rpc.on_message(ctx, &payload) {
            self.absorb(ctx, event);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag == ARRIVAL_TAG {
            if let Pacing::Open { mean_interarrival } = self.pacing {
                if self.out.borrow().issued < self.limit {
                    self.issue(ctx);
                    self.schedule_arrival(ctx, mean_interarrival);
                }
            }
            return;
        }
        if let Some(Some(event)) = self.rpc.on_timer(ctx, tag) {
            self.absorb(ctx, event);
        }
    }
}
