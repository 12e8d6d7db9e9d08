//! The discrete-event simulation kernel.
//!
//! A [`Sim`] owns virtual time, the event queue, all nodes and processes,
//! the network, the RNG, and the metrics registry. Execution is strictly
//! deterministic: events are ordered by `(time, sequence-number)`, all
//! randomness flows from one seeded generator, and handlers run one at a
//! time to completion.
//!
//! Crash semantics: crashing a node drops the volatile state of every
//! process on it and invalidates their timers; restarting re-runs each
//! process factory against the surviving [`Disk`], then delivers
//! `on_start`. In-flight messages to a crashed node are lost at delivery
//! time — exactly the partial-failure model the paper's §4.1 discusses.

use crate::detmap::DetHashSet as HashSet;
use std::any::Any;

use crate::metrics::{FastCounter, Metrics};
use crate::network::{Fate, Network, NetworkConfig};
use crate::payload::Payload;
use crate::proc::{
    Boot, Ctx, DeadlineWord, Disk, Effect, NodeId, Process, ProcessFactory, ProcessId, SpanWord,
    TimerId,
};
use crate::queue::{EventKey, EventQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanId, SpanKind, Tracer};

/// One queued kernel event. `pub(crate)` so the model checker
/// ([`crate::mc`]) can enumerate and classify pending events; the kind is
/// never exposed outside the crate.
pub(crate) enum EventKind {
    Start {
        pid: ProcessId,
        generation: u32,
    },
    Deliver {
        to: ProcessId,
        from: ProcessId,
        payload: Payload,
        /// Causal trace context carried across the wire (the network-hop
        /// span, or `NONE` for untraced/externally injected messages).
        span: SpanWord,
        /// Request deadline carried across the wire: the receiver's handler
        /// starts with this as its ambient deadline.
        deadline: DeadlineWord,
    },
    Timer {
        pid: ProcessId,
        generation: u32,
        id: TimerId,
        tag: u64,
        /// Span current when the timer was armed; keeps retry timers
        /// causally attached to the operation that scheduled them.
        span: SpanWord,
        /// Deadline current when the timer was armed, so retry/continuation
        /// timers keep serving the same request budget.
        deadline: DeadlineWord,
    },
    CrashNode(NodeId),
    RestartNode(NodeId),
    /// Boxed: partitions are rare control events, and inlining two `Vec`s
    /// here would widen every queued event the kernel copies around.
    Partition(Box<(Vec<NodeId>, Vec<NodeId>)>),
    HealPartitions,
}

/// Handles to the per-event counters the kernel bumps on its hot path,
/// pre-registered so each bump is an indexed add instead of a string
/// map lookup (reads still merge exactly; see [`Metrics::incr_fast`]).
struct FastCounters {
    delivered: FastCounter,
    sent: FastCounter,
    dropped: FastCounter,
    duplicated: FastCounter,
    to_external: FastCounter,
    dropped_dead_target: FastCounter,
}

impl FastCounters {
    fn register(metrics: &mut Metrics) -> Self {
        FastCounters {
            delivered: metrics.register_fast("net.delivered"),
            sent: metrics.register_fast("net.sent"),
            dropped: metrics.register_fast("net.dropped"),
            duplicated: metrics.register_fast("net.duplicated"),
            to_external: metrics.register_fast("net.to_external"),
            dropped_dead_target: metrics.register_fast("net.dropped_dead_target"),
        }
    }
}

struct NodeState {
    up: bool,
}

struct ProcSlot {
    node: NodeId,
    name: String,
    factory: ProcessFactory,
    state: Option<Box<dyn Process>>,
    disk: Disk,
    generation: u32,
    started: bool,
    halted: bool,
}

/// Configuration for constructing a [`Sim`].
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Network behaviour.
    pub network: NetworkConfig,
}

impl SimConfig {
    /// Config with the given seed and a default (reliable) network.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }
}

/// The simulation world.
///
/// Build one from a seed, add nodes, spawn [`Process`]es, then drive it
/// with [`Sim::run_for`] / [`Sim::run_to_quiescence`]. Same seed, same
/// run — byte for byte.
///
/// ```rust
/// use tca_sim::{Ctx, Payload, Process, ProcessId, Sim};
///
/// struct Echo;
/// impl Process for Echo {
///     fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
///         ctx.metrics().incr("echo.got", 1);
///         ctx.send(from, payload); // replies to an injected sender are swallowed
///     }
/// }
///
/// let mut sim = Sim::with_seed(42);
/// let node = sim.add_node();
/// let echo = sim.spawn(node, "echo", |_| Box::new(Echo));
/// sim.inject(echo, Payload::new("ping".to_string()));
/// sim.run_to_quiescence(10_000);
/// assert_eq!(sim.metrics().counter("echo.got"), 1);
/// ```
pub struct Sim {
    now: SimTime,
    seq: u64,
    queue: EventQueue<EventKind>,
    nodes: Vec<NodeState>,
    procs: Vec<ProcSlot>,
    rng: SimRng,
    metrics: Metrics,
    fast: FastCounters,
    network: Network,
    cancelled_timers: HashSet<TimerId>,
    timer_seq: u64,
    tracer: Tracer,
    events_processed: u64,
    /// Reusable effect buffer for [`Sim::run_handler`] (handlers never
    /// nest, so one scratch vector serves every dispatch).
    effects_scratch: Vec<Effect>,
    /// Reusable span-stack buffer for [`Sim::run_handler`], same idea:
    /// its capacity survives round-trips through `Ctx`, so traced runs
    /// stop allocating a stack per dispatch and untraced runs never
    /// allocate one at all.
    span_scratch: Vec<SpanId>,
}

impl Sim {
    /// Build an empty simulation from a config.
    ///
    /// Setting the `TCA_TRACE` environment variable to anything but `0`
    /// enables span tracing on every `Sim` — this is how the determinism
    /// gate runs the whole experiment suite traced without code changes.
    pub fn new(config: SimConfig) -> Self {
        let mut tracer = Tracer::new();
        if std::env::var_os("TCA_TRACE").is_some_and(|v| v != "0") {
            tracer.set_enabled(true);
        }
        let mut metrics = Metrics::new();
        let fast = FastCounters::register(&mut metrics);
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            procs: Vec::new(),
            rng: SimRng::new(config.seed),
            metrics,
            fast,
            network: Network::new(config.network),
            cancelled_timers: HashSet::default(),
            timer_seq: 0,
            tracer,
            events_processed: 0,
            effects_scratch: Vec::new(),
            span_scratch: Vec::new(),
        }
    }

    /// Shorthand: a simulation with the given seed and default network.
    pub fn with_seed(seed: u64) -> Self {
        Sim::new(SimConfig::with_seed(seed))
    }

    // ----- topology ------------------------------------------------------

    /// Add a machine to the cluster. Nodes start up.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeState { up: true });
        id
    }

    /// Add `n` machines, returning their ids.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Spawn a process on `node`. The factory is kept and re-invoked on
    /// every restart after a crash; `on_start` is delivered as the next
    /// event at the current time.
    pub fn spawn(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        factory: impl FnMut(&mut Boot) -> Box<dyn Process> + 'static,
    ) -> ProcessId {
        assert!(
            (node.0 as usize) < self.nodes.len(),
            "spawn on unknown node {node}"
        );
        let pid = ProcessId(self.procs.len() as u32);
        let mut slot = ProcSlot {
            node,
            name: name.into(),
            factory: Box::new(factory),
            state: None,
            disk: Disk::new(),
            generation: 0,
            started: false,
            halted: false,
        };
        let mut boot = Boot {
            disk: &mut slot.disk,
            pid,
            node,
            now: self.now,
            restart: false,
        };
        let state = (slot.factory)(&mut boot);
        slot.state = Some(state);
        self.procs.push(slot);
        let generation = 0;
        self.push(self.now, EventKind::Start { pid, generation });
        pid
    }

    /// The node a process lives on.
    pub fn node_of(&self, pid: ProcessId) -> NodeId {
        self.procs[pid.0 as usize].node
    }

    /// The name a process was spawned with.
    pub fn name_of(&self, pid: ProcessId) -> &str {
        &self.procs[pid.0 as usize].name
    }

    /// Whether the process is currently alive (node up, not crashed/halted).
    pub fn is_alive(&self, pid: ProcessId) -> bool {
        let slot = &self.procs[pid.0 as usize];
        slot.state.is_some() && self.nodes[slot.node.0 as usize].up
    }

    // ----- time & execution ----------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((key, kind)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(key.time >= self.now, "time went backwards");
        self.now = key.time;
        self.events_processed += 1;
        self.dispatch(kind);
        true
    }

    /// Run until the queue is empty or virtual time would exceed `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(key) = self.queue.peek_key() {
            if key.time > t {
                break;
            }
            self.step();
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Run for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.now + d;
        self.run_until(until);
    }

    /// Run until no events remain (panics after `max_events` as a runaway
    /// guard, since many protocols self-retrigger forever).
    pub fn run_to_quiescence(&mut self, max_events: u64) {
        assert!(
            self.try_run_to_quiescence(max_events),
            "no quiescence after {max_events} events"
        );
    }

    /// Run until no events remain, giving up (without panicking) once more
    /// than `max_events` events have executed. Returns `true` when the
    /// queue drained, `false` when the budget ran out first — the
    /// recoverable form of [`Sim::run_to_quiescence`].
    pub fn try_run_to_quiescence(&mut self, max_events: u64) -> bool {
        let start = self.events_processed;
        while self.step() {
            if self.events_processed - start > max_events {
                return false;
            }
        }
        true
    }

    // ----- faults ----------------------------------------------------------

    /// Crash `node` immediately: volatile process state is lost, timers die.
    pub fn crash_node(&mut self, node: NodeId) {
        self.apply_crash(node);
    }

    /// Restart `node` immediately: factories rebuild processes from disk.
    pub fn restart_node(&mut self, node: NodeId) {
        self.apply_restart(node);
    }

    /// Schedule a crash at absolute virtual time `t`.
    pub fn schedule_crash(&mut self, t: SimTime, node: NodeId) {
        self.push(t, EventKind::CrashNode(node));
    }

    /// Schedule a restart at absolute virtual time `t`.
    pub fn schedule_restart(&mut self, t: SimTime, node: NodeId) {
        self.push(t, EventKind::RestartNode(node));
    }

    /// Schedule a network partition between two node groups at time `t`.
    pub fn schedule_partition(&mut self, t: SimTime, left: Vec<NodeId>, right: Vec<NodeId>) {
        self.push(t, EventKind::Partition(Box::new((left, right))));
    }

    /// Schedule healing of all partitions at time `t`.
    pub fn schedule_heal(&mut self, t: SimTime) {
        self.push(t, EventKind::HealPartitions);
    }

    /// Partition the network immediately.
    pub fn partition(&mut self, left: &[NodeId], right: &[NodeId]) {
        self.network.partition(left, right);
    }

    /// Heal all partitions immediately.
    pub fn heal_partitions(&mut self) {
        self.network.heal_all();
    }

    /// Whether `node` is currently up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].up
    }

    // ----- external interaction -------------------------------------------

    /// Inject a message from the outside world (`ProcessId::EXTERNAL`) to a
    /// process, delivered after the configured local latency at `t`.
    pub fn inject_at(&mut self, t: SimTime, to: ProcessId, payload: Payload) {
        self.push(
            t.max(self.now),
            EventKind::Deliver {
                to,
                from: ProcessId::EXTERNAL,
                payload,
                // Injected messages carry no span or deadline: their
                // receive handlers become the roots of request trees.
                span: SpanWord::NONE,
                deadline: DeadlineWord::NONE,
            },
        );
    }

    /// Inject a message now.
    pub fn inject(&mut self, to: ProcessId, payload: Payload) {
        self.inject_at(self.now, to, payload);
    }

    // ----- accessors --------------------------------------------------------

    /// The run's metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics access for harnesses.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The causal span tracer (query API: spans, trees, breakdowns).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Enable or disable span tracing. Safe to toggle mid-run; recording
    /// never touches the RNG or the event queue, so the schedule is
    /// bit-identical either way.
    ///
    /// ```rust
    /// use tca_sim::{Ctx, Payload, Process, ProcessId, Sim};
    ///
    /// struct Sink;
    /// impl Process for Sink {
    ///     fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
    /// }
    ///
    /// let mut sim = Sim::with_seed(7);
    /// sim.set_tracing(true);
    /// let node = sim.add_node();
    /// let sink = sim.spawn(node, "sink", |_| Box::new(Sink));
    /// sim.inject(sink, Payload::new(1u32));
    /// sim.run_to_quiescence(1_000);
    /// assert!(!sim.tracer().spans().is_empty());            // handler spans recorded
    /// assert!(sim.chrome_trace().contains("traceEvents"));  // Perfetto-loadable JSON
    /// ```
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Export all recorded spans as Chrome-trace JSON (loadable in
    /// `about:tracing` or Perfetto), mapping simulated nodes to Chrome
    /// processes and simulated processes to threads.
    pub fn chrome_trace(&self) -> String {
        self.tracer.chrome_trace(
            self.now,
            |pid| {
                if pid == ProcessId::EXTERNAL {
                    u32::MAX
                } else {
                    self.procs[pid.0 as usize].node.0
                }
            },
            |pid| {
                if pid == ProcessId::EXTERNAL {
                    "external".to_owned()
                } else {
                    self.procs[pid.0 as usize].name.clone()
                }
            },
        )
    }

    /// Mutable network access (e.g. mid-run reconfiguration).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Inspect a live process as its concrete type `T`. Used by harnesses
    /// for post-run audits; returns `None` when the process is down or of
    /// another type.
    pub fn inspect<T: 'static>(&self, pid: ProcessId) -> Option<&T> {
        let process: &dyn Process = self.procs[pid.0 as usize].state.as_deref()?;
        (process as &dyn Any).downcast_ref::<T>()
    }

    // ----- internals ---------------------------------------------------------

    fn push(&mut self, time: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(
            EventKey {
                time,
                seq: self.seq,
            },
            kind,
        );
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start { pid, generation } => {
                self.run_handler(pid, Some(generation), None, None, |proc, ctx| {
                    proc.on_start(ctx)
                });
            }
            EventKind::Deliver {
                to,
                from,
                payload,
                span,
                deadline,
            } => {
                let span = span.get();
                let deadline = deadline.get();
                let slot = &self.procs[to.0 as usize];
                if !self.nodes[slot.node.0 as usize].up || slot.state.is_none() {
                    self.metrics.incr_fast(self.fast.dropped_dead_target, 1);
                    self.tracer
                        .event(self.now, to, span, || "dropped: dead target".into());
                    return;
                }
                self.metrics.incr_fast(self.fast.delivered, 1);
                // Every delivery runs inside a handler span parented under
                // the context carried on the wire; externally injected
                // messages (span == None) start new request trees here.
                let tag = payload.tag();
                let hspan = self
                    .tracer
                    .start(SpanKind::Handler, to, span, self.now, || {
                        format!("recv {tag} from {from}")
                    });
                self.run_handler(to, None, hspan, deadline, |proc, ctx| {
                    proc.on_message(ctx, from, payload)
                });
                if let Some(id) = hspan {
                    self.tracer.end(id, self.now);
                }
            }
            EventKind::Timer {
                pid,
                generation,
                id,
                tag,
                span,
                deadline,
            } => {
                // The emptiness guard keeps runs that never cancel (the
                // common case) off the hash path entirely.
                if !self.cancelled_timers.is_empty() && self.cancelled_timers.remove(&id) {
                    return;
                }
                let span = span.get();
                let deadline = deadline.get();
                // Only timers armed inside a span get a handler span of
                // their own: retry timers stay attached to their request
                // tree while periodic background sweeps stay untraced.
                let hspan = match span {
                    Some(_) => self
                        .tracer
                        .start(SpanKind::Handler, pid, span, self.now, || {
                            format!("timer {tag:#x}")
                        }),
                    None => None,
                };
                self.run_handler(pid, Some(generation), hspan, deadline, |proc, ctx| {
                    proc.on_timer(ctx, tag)
                });
                if let Some(sid) = hspan {
                    self.tracer.end(sid, self.now);
                }
            }
            EventKind::CrashNode(node) => self.apply_crash(node),
            EventKind::RestartNode(node) => self.apply_restart(node),
            EventKind::Partition(sides) => {
                self.network.partition(&sides.0, &sides.1);
            }
            EventKind::HealPartitions => self.network.heal_all(),
        }
    }

    /// Run a handler on a process, with effect buffering.
    ///
    /// `required_generation`: when `Some`, the handler only runs if the
    /// process incarnation still matches (used for timers and start events,
    /// which must not leak across a crash).
    ///
    /// `root_span` seeds the handler's span stack, so spans opened and
    /// messages sent inside the handler attach to the incoming context.
    /// `deadline` seeds the handler's ambient request deadline the same way.
    fn run_handler<F>(
        &mut self,
        pid: ProcessId,
        required_generation: Option<u32>,
        root_span: Option<SpanId>,
        deadline: Option<SimTime>,
        f: F,
    ) where
        F: FnOnce(&mut Box<dyn Process>, &mut Ctx),
    {
        let idx = pid.0 as usize;
        {
            let slot = &self.procs[idx];
            if let Some(generation) = required_generation {
                if slot.generation != generation {
                    return;
                }
            }
            if !self.nodes[slot.node.0 as usize].up {
                return;
            }
        }
        let slot = &mut self.procs[idx];
        let Some(mut state) = slot.state.take() else {
            return;
        };
        slot.started = true;
        let node = slot.node;
        let mut span_stack = std::mem::take(&mut self.span_scratch);
        if let Some(root) = root_span {
            span_stack.push(root);
        }
        let (mut effects, mut span_stack) = {
            let mut ctx = Ctx {
                now: self.now,
                pid,
                node,
                rng: &mut self.rng,
                metrics: &mut self.metrics,
                effects: std::mem::take(&mut self.effects_scratch),
                timer_seq: &mut self.timer_seq,
                tracer: &mut self.tracer,
                span_stack,
                deadline,
            };
            f(&mut state, &mut ctx);
            (ctx.effects, ctx.span_stack)
        };
        span_stack.clear();
        self.span_scratch = span_stack;
        let slot = &mut self.procs[idx];
        if slot.generation == required_generation.unwrap_or(slot.generation) {
            slot.state = Some(state);
        }
        let generation = slot.generation;
        self.apply_effects(pid, node, generation, &mut effects);
        self.effects_scratch = effects;
    }

    fn apply_effects(
        &mut self,
        pid: ProcessId,
        node: NodeId,
        generation: u32,
        effects: &mut Vec<Effect>,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    payload,
                    extra_delay,
                    span,
                    deadline,
                } => self.route_send(pid, node, to, payload, extra_delay, span, deadline),
                Effect::SetTimer {
                    id,
                    delay,
                    tag,
                    span,
                    deadline,
                } => {
                    self.push(
                        self.now + delay,
                        EventKind::Timer {
                            pid,
                            generation,
                            id,
                            tag,
                            span,
                            deadline,
                        },
                    );
                }
                Effect::CancelTimer(id) => {
                    self.cancelled_timers.insert(id);
                }
                Effect::Halt => {
                    let slot = &mut self.procs[pid.0 as usize];
                    slot.state = None;
                    slot.halted = true;
                    slot.generation += 1;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn route_send(
        &mut self,
        from: ProcessId,
        src_node: NodeId,
        to: ProcessId,
        payload: Payload,
        extra_delay: SimDuration,
        span: SpanWord,
        deadline: DeadlineWord,
    ) {
        let span = span.get();
        if to == ProcessId::EXTERNAL {
            // Replies to harness-injected messages leave the simulated
            // world; swallow them (the harness reads metrics instead).
            self.metrics.incr_fast(self.fast.to_external, 1);
            self.tracer
                .event(self.now, from, span, || "reply to external".into());
            return;
        }
        assert!(
            (to.0 as usize) < self.procs.len(),
            "send to unknown process {to}"
        );
        let dst_node = self.procs[to.0 as usize].node;
        self.metrics.incr_fast(self.fast.sent, 1);
        // The hop's extent is decided here (the network rolls the latency
        // up front), so the hop span is recorded closed and its id rides
        // on the Deliver event to parent the receive handler.
        let hop = |sim: &mut Sim, arrive: SimTime| -> Option<SpanId> {
            if !sim.tracer.is_enabled() {
                return span;
            }
            let label = format!(
                "{} \u{2192} {}",
                sim.procs[from.0 as usize].name, sim.procs[to.0 as usize].name
            );
            sim.tracer
                .interval(SpanKind::NetHop, from, span, sim.now, arrive, || label)
                .or(span)
        };
        match self.network.route(&mut self.rng, src_node, dst_node) {
            Fate::Drop => {
                self.metrics.incr_fast(self.fast.dropped, 1);
                self.tracer
                    .event(self.now, from, span, || format!("dropped send to {to}"));
            }
            Fate::Deliver(lat) => {
                let at = self.now + extra_delay + lat;
                let span = SpanWord::pack(hop(self, at));
                self.push(
                    at,
                    EventKind::Deliver {
                        to,
                        from,
                        payload,
                        span,
                        deadline,
                    },
                );
            }
            Fate::Duplicate(a, b) => {
                self.metrics.incr_fast(self.fast.duplicated, 1);
                let at_a = self.now + extra_delay + a;
                let at_b = self.now + extra_delay + b;
                let span_a = SpanWord::pack(hop(self, at_a));
                let span_b = SpanWord::pack(hop(self, at_b));
                self.push(
                    at_a,
                    EventKind::Deliver {
                        to,
                        from,
                        payload: payload.clone(),
                        span: span_a,
                        deadline,
                    },
                );
                self.push(
                    at_b,
                    EventKind::Deliver {
                        to,
                        from,
                        payload,
                        span: span_b,
                        deadline,
                    },
                );
            }
        }
    }

    fn apply_crash(&mut self, node: NodeId) {
        if !self.nodes[node.0 as usize].up {
            return;
        }
        self.nodes[node.0 as usize].up = false;
        self.metrics.incr("fault.crashes", 1);
        for slot in &mut self.procs {
            if slot.node == node && !slot.halted {
                slot.state = None;
                slot.generation += 1;
            }
        }
    }

    fn apply_restart(&mut self, node: NodeId) {
        if self.nodes[node.0 as usize].up {
            return;
        }
        self.nodes[node.0 as usize].up = true;
        self.metrics.incr("fault.restarts", 1);
        let mut to_start = Vec::new();
        for (i, slot) in self.procs.iter_mut().enumerate() {
            if slot.node == node && !slot.halted {
                let pid = ProcessId(i as u32);
                let mut boot = Boot {
                    disk: &mut slot.disk,
                    pid,
                    node,
                    now: self.now,
                    restart: true,
                };
                slot.state = Some((slot.factory)(&mut boot));
                to_start.push((pid, slot.generation));
            }
        }
        for (pid, generation) in to_start {
            self.push(self.now, EventKind::Start { pid, generation });
        }
    }

    // ----- model-checker hooks ---------------------------------------------
    //
    // The checker looks at the pending set, takes events out of order and
    // rewrites keys, none of which `push`/`pop` offer. The queue's two
    // crate-private primitives do it in place:
    // `for_each` reads every pending event (no order, no change) and
    // `refile` re-files the events it keeps from a cursor of zero — as a
    // fresh queue would — under keys it may rewrite, reusing the pool and
    // heaps. Keys are unique, so the `(time, seq)` pop order is exactly
    // what it was. A re-file is O(pool) and allocates nothing, and a scan
    // that finds nothing dead re-files nothing (DESIGN.md "Model checking"
    // has what the hooks cost per explored state). None of these methods
    // sit on the `step()` path, so the checker costs normal runs nothing.

    /// Offer every live pending event to `f`, in no particular order, and
    /// collect what it returns. Read-only unless a dead event is pending
    /// (a cancelled timer, or a timer or start from a dead incarnation):
    /// then the dead ones are removed and cancelled ids consumed, exactly
    /// as dispatch would. Used by [`crate::mc`] to enumerate the enabled
    /// events at a choice point.
    pub(crate) fn mc_scan<R>(
        &mut self,
        mut f: impl FnMut(&EventKey, &EventKind) -> Option<R>,
    ) -> Vec<R> {
        let mut out = Vec::new();
        let mut any_dead = false;
        self.queue.for_each(|key, kind| {
            if mc_event_is_dead(kind, &self.procs, &self.cancelled_timers) {
                any_dead = true;
            } else if let Some(r) = f(key, kind) {
                out.push(r);
            }
        });
        if any_dead {
            let (procs, cancelled) = (&self.procs, &mut self.cancelled_timers);
            self.queue.refile(|_, kind| {
                if !mc_event_is_dead(&kind, procs, cancelled) {
                    return Some(kind);
                }
                if let EventKind::Timer { id, .. } = kind {
                    cancelled.remove(&id);
                }
                None
            });
        }
        out
    }

    /// Remove and return the queued event with sequence number `seq`, or
    /// `None` if no such event is pending.
    pub(crate) fn mc_take(&mut self, seq: u64) -> Option<(EventKey, EventKind)> {
        let mut taken = None;
        self.queue.refile(|key, kind| {
            if key.seq != seq {
                return Some(kind);
            }
            taken = Some((*key, kind));
            None
        });
        taken
    }

    /// Execute one event out of queue order. With `advance_time` the clock
    /// moves forward to the event's scheduled time (used for timers and
    /// scheduled faults, which must not fire early); without it the event
    /// runs at the current instant (used for deliveries, whose scheduled
    /// time was one latency draw out of the arbitrary latencies the checker
    /// over-approximates). Time never moves backwards either way.
    pub(crate) fn mc_dispatch(&mut self, key: EventKey, kind: EventKind, advance_time: bool) {
        if advance_time && key.time > self.now {
            self.now = key.time;
        }
        self.events_processed += 1;
        self.dispatch(kind);
    }

    /// Clamp every pending event's time up to `now`, keeping the original
    /// order of any events that get clamped together. After the checker has
    /// delivered messages "early", leftover event times may precede `now`;
    /// ordinary [`Sim::step`] execution (used by the checker's closure and
    /// after schedule replay) requires monotone times again.
    pub(crate) fn mc_clamp_queue_to_now(&mut self) {
        let now = self.now;
        self.queue.refile(|key, kind| {
            key.time = key.time.max(now);
            Some(kind)
        });
    }

    /// Execute the earliest pending event if it is due by `until`, as
    /// [`Sim::run_until`] would; `false` when none is. One step of the
    /// checker's leaf closure, which looks at the world between steps.
    pub(crate) fn mc_step_until(&mut self, until: SimTime) -> bool {
        match self.queue.peek_key() {
            Some(key) if key.time <= until => self.step(),
            _ => false,
        }
    }

    /// True when every pending event is a timer (dead ones included), so
    /// no message, start or scheduled fault is left. Read-only.
    pub(crate) fn mc_only_timers_pending(&self) -> bool {
        let mut only_timers = true;
        self.queue
            .for_each(|_, kind| only_timers &= matches!(kind, EventKind::Timer { .. }));
        only_timers
    }

    /// True when no event is pending at all.
    pub(crate) fn mc_queue_is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Per-process `(has_state, halted)` flags, for the checker's state
    /// fingerprint.
    pub(crate) fn mc_proc_flags(&self, idx: usize) -> (bool, bool) {
        let slot = &self.procs[idx];
        (slot.state.is_some(), slot.halted)
    }

    /// Number of spawned processes.
    pub(crate) fn mc_proc_count(&self) -> usize {
        self.procs.len()
    }

    /// Number of nodes in the cluster.
    pub(crate) fn mc_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Fingerprint of the RNG's internal state, for the checker's
    /// draw-detection (a changed fingerprint means some handler consumed
    /// randomness, which weakens schedule-space pruning).
    pub(crate) fn mc_rng_fingerprint(&self) -> u64 {
        self.rng.state_fingerprint()
    }
}

/// True for queued events that the kernel would discard without side
/// effects on dispatch: cancelled timers and timers/starts from a dead
/// process incarnation.
fn mc_event_is_dead(kind: &EventKind, procs: &[ProcSlot], cancelled: &HashSet<TimerId>) -> bool {
    match kind {
        EventKind::Timer {
            pid,
            generation,
            id,
            ..
        } => {
            (!cancelled.is_empty() && cancelled.contains(id))
                || procs[pid.0 as usize].generation != *generation
        }
        EventKind::Start { pid, generation } => procs[pid.0 as usize].generation != *generation,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Echoes every `u64` payload back to the sender, incremented.
    struct Echo;
    impl Process for Echo {
        fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
            let v = *payload.expect::<u64>();
            if from != ProcessId::EXTERNAL {
                ctx.send(from, Payload::new(v + 1));
            }
            ctx.metrics().incr("echo.seen", 1);
        }
    }

    /// Sends one message to a peer on start, counts replies.
    struct Starter {
        peer: ProcessId,
    }
    impl Process for Starter {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.send(self.peer, Payload::new(10u64));
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            ctx.metrics()
                .incr("starter.reply", *payload.expect::<u64>());
        }
    }

    #[test]
    fn request_reply_roundtrip() {
        let mut sim = Sim::with_seed(1);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let echo = sim.spawn(n1, "echo", |_| Box::new(Echo));
        sim.spawn(n0, "starter", move |_| Box::new(Starter { peer: echo }));
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.metrics().counter("echo.seen"), 1);
        assert_eq!(sim.metrics().counter("starter.reply"), 11);
    }

    #[test]
    fn determinism_same_seed_same_events() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim = Sim::new(SimConfig {
                seed,
                network: NetworkConfig::lossy(0.1, 0.1),
            });
            let n0 = sim.add_node();
            let n1 = sim.add_node();
            let echo = sim.spawn(n1, "echo", |_| Box::new(Echo));
            struct Spammer {
                peer: ProcessId,
                left: u32,
            }
            impl Process for Spammer {
                fn on_start(&mut self, ctx: &mut Ctx) {
                    ctx.set_timer(SimDuration::from_micros(100), 0);
                }
                fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
                fn on_timer(&mut self, ctx: &mut Ctx, _: u64) {
                    ctx.send(self.peer, Payload::new(1u64));
                    self.left -= 1;
                    if self.left > 0 {
                        ctx.set_timer(SimDuration::from_micros(100), 0);
                    }
                }
            }
            sim.spawn(n0, "spam", move |_| {
                Box::new(Spammer {
                    peer: echo,
                    left: 200,
                })
            });
            sim.run_for(SimDuration::from_secs(1));
            (sim.metrics().counter("echo.seen"), sim.events_processed())
        }
        assert_eq!(run(7), run(7));
        // Different seeds should diverge under 10% loss. Compare the
        // full (delivered, events) fingerprint: the delivered count
        // alone is coarse enough for two seeds to collide by chance.
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn crash_drops_volatile_state_restart_recovers_disk() {
        struct Counter {
            /// Volatile: messages seen by this incarnation.
            seen: u64,
            /// The durable `count` handle: messages seen by all of them.
            count: Rc<Cell<u64>>,
        }
        impl Process for Counter {
            fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {
                self.seen += 1;
                self.count.set(self.count.get() + 1);
            }
        }
        let mut sim = Sim::with_seed(3);
        let n0 = sim.add_node();
        let pid = sim.spawn(n0, "counter", |boot| {
            Box::new(Counter {
                seen: 0,
                count: boot.disk.durable("count"),
            })
        });
        let counts = |sim: &Sim| {
            let counter = sim.inspect::<Counter>(pid).expect("counter is up");
            (counter.seen, counter.count.get())
        };
        for _ in 0..5 {
            sim.inject(pid, Payload::new(()));
        }
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(counts(&sim), (5, 5));
        sim.crash_node(n0);
        assert!(sim.inspect::<Counter>(pid).is_none());
        sim.restart_node(n0);
        assert_eq!(counts(&sim), (0, 5));
        // Two more messages after recovery continue from the durable count.
        sim.inject(pid, Payload::new(()));
        sim.inject(pid, Payload::new(()));
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(counts(&sim), (2, 7));
    }

    #[test]
    fn timers_do_not_survive_crash() {
        struct TimerProc;
        impl Process for TimerProc {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(5), 42);
            }
            fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
            fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
                assert_eq!(tag, 42);
                ctx.metrics().incr("timer.fired", 1);
            }
        }
        let mut sim = Sim::with_seed(4);
        let n0 = sim.add_node();
        sim.spawn(n0, "t", |_| Box::new(TimerProc));
        sim.run_for(SimDuration::from_millis(1));
        sim.crash_node(n0);
        sim.run_for(SimDuration::from_millis(20));
        // Old timer must not fire; node stays down so no restart timer either.
        assert_eq!(sim.metrics().counter("timer.fired"), 0);
        sim.restart_node(n0);
        sim.run_for(SimDuration::from_millis(20));
        // Restart re-runs on_start, arming a fresh timer that fires once.
        assert_eq!(sim.metrics().counter("timer.fired"), 1);
    }

    #[test]
    fn cancel_timer_prevents_firing() {
        struct C;
        impl Process for C {
            fn on_start(&mut self, ctx: &mut Ctx) {
                let id = ctx.set_timer(SimDuration::from_millis(1), 1);
                ctx.cancel_timer(id);
                ctx.set_timer(SimDuration::from_millis(2), 2);
            }
            fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
            fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
                assert_eq!(tag, 2, "cancelled timer fired");
                ctx.metrics().incr("fired", 1);
            }
        }
        let mut sim = Sim::with_seed(5);
        let n = sim.add_node();
        sim.spawn(n, "c", |_| Box::new(C));
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.metrics().counter("fired"), 1);
    }

    #[test]
    fn messages_to_down_node_are_lost() {
        let mut sim = Sim::with_seed(6);
        let _n0 = sim.add_node();
        let n1 = sim.add_node();
        let echo = sim.spawn(n1, "echo", |_| Box::new(Echo));
        sim.run_for(SimDuration::from_micros(1));
        sim.crash_node(n1);
        sim.inject(echo, Payload::new(1u64));
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(sim.metrics().counter("echo.seen"), 0);
        assert_eq!(sim.metrics().counter("net.dropped_dead_target"), 1);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut sim = Sim::with_seed(7);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let echo = sim.spawn(n1, "echo", |_| Box::new(Echo));
        struct Pinger {
            peer: ProcessId,
        }
        impl Process for Pinger {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
            fn on_timer(&mut self, ctx: &mut Ctx, _: u64) {
                ctx.send(self.peer, Payload::new(0u64));
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        sim.spawn(n0, "ping", move |_| Box::new(Pinger { peer: echo }));
        sim.partition(&[n0], &[n1]);
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.metrics().counter("echo.seen"), 0);
        sim.heal_partitions();
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim.metrics().counter("echo.seen") > 0);
    }

    #[test]
    fn halt_stops_process_for_good() {
        struct OneShot;
        impl Process for OneShot {
            fn on_message(&mut self, ctx: &mut Ctx, _: ProcessId, _: Payload) {
                ctx.metrics().incr("oneshot.hits", 1);
                ctx.halt();
            }
        }
        let mut sim = Sim::with_seed(8);
        let n = sim.add_node();
        let p = sim.spawn(n, "o", |_| Box::new(OneShot));
        sim.inject(p, Payload::new(()));
        sim.inject(p, Payload::new(()));
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(sim.metrics().counter("oneshot.hits"), 1);
        assert!(!sim.is_alive(p));
    }

    #[test]
    fn deadline_rides_sends_and_timers_like_span_context() {
        // A sets a deadline and calls B; B's handler must observe it, and
        // so must a timer B arms while serving the request and the reply
        // hop back to A. Injected messages start with no deadline.
        struct Client {
            peer: ProcessId,
        }
        impl Process for Client {
            fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, _payload: Payload) {
                if from == ProcessId::EXTERNAL {
                    assert_eq!(ctx.deadline(), None, "injected messages carry no deadline");
                    ctx.set_deadline(Some(SimTime::from_nanos(7_000_000)));
                    ctx.send(self.peer, Payload::new(1u64));
                } else {
                    assert_eq!(
                        ctx.deadline(),
                        Some(SimTime::from_nanos(7_000_000)),
                        "reply edge keeps the request deadline"
                    );
                    ctx.metrics().incr("deadline.reply_seen", 1);
                }
            }
        }
        struct Server;
        impl Process for Server {
            fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, _payload: Payload) {
                assert_eq!(ctx.deadline(), Some(SimTime::from_nanos(7_000_000)));
                assert!(!ctx.deadline_expired());
                ctx.send(from, Payload::new(2u64));
                ctx.set_timer(SimDuration::from_millis(1), 5);
            }
            fn on_timer(&mut self, ctx: &mut Ctx, _tag: u64) {
                assert_eq!(
                    ctx.deadline(),
                    Some(SimTime::from_nanos(7_000_000)),
                    "timers keep the deadline current when they were armed"
                );
                ctx.metrics().incr("deadline.timer_seen", 1);
            }
        }
        let mut sim = Sim::with_seed(10);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let server = sim.spawn(n1, "server", |_| Box::new(Server));
        let client = sim.spawn(n0, "client", move |_| Box::new(Client { peer: server }));
        sim.inject(client, Payload::new(()));
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.metrics().counter("deadline.reply_seen"), 1);
        assert_eq!(sim.metrics().counter("deadline.timer_seen"), 1);
    }

    /// A world holding three dead events — a cancelled timer, a timer and
    /// a `Start` from a crashed incarnation — and three live deliveries
    /// `a` (1.5 ms), `b` (1 ms) and `c` (3 ms), pushed in that order.
    /// Returns it with the seqs of `a`, `b`, `c`.
    fn dead_and_live_world() -> (Sim, [u64; 3]) {
        struct Cancels;
        impl Process for Cancels {
            fn on_start(&mut self, ctx: &mut Ctx) {
                let id = ctx.set_timer(SimDuration::from_millis(5), 1);
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
        }
        struct Arms;
        impl Process for Arms {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(6), 2);
            }
            fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
        }
        let mut sim = Sim::with_seed(11);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let p = sim.spawn(n0, "cancels", |_| Box::new(Cancels));
        sim.spawn(n1, "arms", |_| Box::new(Arms));
        assert!(sim.step() && sim.step(), "both starts run");
        // The armed timer's incarnation dies; the restart queues a Start
        // whose incarnation dies too.
        sim.crash_node(n1);
        sim.restart_node(n1);
        sim.crash_node(n1);
        let mut seqs = [0; 3];
        for (seq, at_us) in seqs.iter_mut().zip([1_500, 1_000, 3_000]) {
            sim.inject_at(SimTime::from_nanos(at_us * 1_000), p, Payload::new(()));
            *seq = sim.seq;
        }
        (sim, seqs)
    }

    fn pop_all(sim: &mut Sim) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| sim.queue.pop())
            .map(|(key, _)| (key.time.as_nanos(), key.seq))
            .collect()
    }

    #[test]
    fn mc_scan_removes_dead_events_as_dispatch_would() {
        let (mut sim, [a, b, c]) = dead_and_live_world();
        assert_eq!((sim.queue.len(), sim.cancelled_timers.len()), (6, 1));
        let scan = |sim: &mut Sim| {
            let mut rows =
                sim.mc_scan(|key, kind| Some((key.seq, matches!(kind, EventKind::Deliver { .. }))));
            rows.sort_unstable();
            rows
        };
        let first = scan(&mut sim);
        assert_eq!(first, vec![(a, true), (b, true), (c, true)]);
        assert_eq!(sim.queue.len(), 3, "the three dead events are gone");
        assert!(sim.cancelled_timers.is_empty(), "cancelled id consumed");
        // Nothing dead is left: the second scan only reads.
        assert_eq!(scan(&mut sim), first);
        assert_eq!(sim.queue.len(), 3);

        assert!(sim.mc_take(u64::MAX).is_none());
        assert_eq!(
            pop_all(&mut sim),
            vec![(1_000_000, b), (1_500_000, a), (3_000_000, c)],
            "taking an absent event moves nothing"
        );
    }

    #[test]
    fn mc_clamp_keeps_clamped_events_in_seq_order() {
        let (mut sim, [a, b, c]) = dead_and_live_world();
        let (key, kind) = sim.mc_take(c).expect("c is pending");
        sim.mc_dispatch(key, kind, true);
        assert_eq!(sim.now(), SimTime::from_nanos(3_000_000));
        sim.mc_clamp_queue_to_now();
        // `b` was due before `a`; clamped to one instant, seq decides.
        let live: Vec<(u64, u64)> = pop_all(&mut sim)
            .into_iter()
            .filter(|&(_, seq)| seq == a || seq == b)
            .collect();
        assert_eq!(live, vec![(3_000_000, a), (3_000_000, b)]);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Sim::with_seed(9);
        sim.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(sim.now(), SimTime::from_nanos(1_000_000));
    }
}
