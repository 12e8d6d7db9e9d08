//! Bounded exhaustive model checking over the DES kernel.
//!
//! The torture harness (`check::torture`) samples *random* fault plans;
//! this module explores *all* schedules of a small world up to a bounded
//! depth, in the style of stateless model checkers (CHESS, Coyote,
//! stateright): at every step it enumerates each *enabled* choice —
//! deliverable messages, the next firable timer, crash/restart injections
//! and message drops up to a fault budget — and explores every
//! interleaving, pruning with sleep-set partial-order reduction and a
//! hashed-state visited set. Invariants supplied by the scenario are
//! checked at every explored state; on violation the checker emits a
//! **minimal reproducing schedule** replayable with
//! [`Sim::replay_schedule`] and printable as a pinned regression test.
//!
//! ## Semantics of a choice
//!
//! - **`d<seq>` deliver**: a pending `EventKind::Deliver` runs *now*,
//!   regardless of its scheduled arrival time. This over-approximates the
//!   network's latency draw with "any latency whatsoever", which is a
//!   sound superset of what the kernel's bounded-latency runs do.
//! - **`t<seq>` tick**: the single earliest *timed* event (timer or a
//!   scheduled fault) fires and the clock advances to its scheduled time.
//!   Only the earliest is enabled, so timers keep their relative order —
//!   the kernel's guarantee — and time never jumps over a nearer timer.
//! - **`c<node>` / `r<node>`**: crash/restart a crashable node right now
//!   (restarts are free; crashes consume the `max_crashes` budget).
//! - **`x<seq>` drop**: a pending delivery is lost (consumes the
//!   `max_drops` budget). Partitions are subsumed: any partition behaviour
//!   is a set of per-message drops plus delayed deliveries.
//!
//! `Start` events are never choices: they are drained in sequence order at
//! every choice point, mirroring the kernel, where no message can beat a
//! process's `Start` to the front of the queue.
//!
//! ## Closing a leaf
//!
//! Before the terminal audit a leaf is *closed*: crashed nodes restart,
//! partitions heal, and the kernel runs in its own order until the world
//! has settled or [`McConfig::grace`] has elapsed. Settled means the queue
//! is empty, or only timers are pending and the scenario's
//! [`McScenario::settled`] hook holds — the hook vouches that nothing the
//! audit reads can change any more, so the sweeps and heartbeats left
//! would only burn events. The closure injects no fault, so under the
//! hook's contract stopping there changes no audited value. A leaf that
//! reaches the grace bound first is counted in
//! [`McReport::unsettled_leaves`].
//!
//! ## Soundness of the pruning
//!
//! Sleep sets are Godefroid's classic construction: after a choice's
//! subtree is explored, later sibling subtrees need not re-explore it
//! first unless a *dependent* choice intervenes. Dependence is
//! conservative: ticks depend on everything (they advance the clock every
//! handler can read); deliveries depend on each other iff they target the
//! same process; crash/restart depend on anything touching the same node;
//! drops depend only on their own delivery. The visited set merges states
//! by fingerprint but only prunes when the stored sleep set was a subset
//! of the current one (otherwise the earlier visit explored *fewer*
//! successors than this one must). Both prunings are disabled the moment
//! any handler consumes randomness ([`McReport::rng_impure`]), since RNG
//! stream position is hidden state that breaks commutativity; scenarios
//! should use draw-free network configs (fixed latency, zero loss).
//!
//! State fingerprints cover: scenario state (via [`McScenario::state_fp`]),
//! virtual time, node up/down bits, process liveness, the multiset of
//! pending events (deliveries by content, timers by tag and *relative*
//! deadline), partitions, fault budgets and RNG state. A scenario that
//! returns `None` from `state_fp` (or `payload_fp`) makes states opaque,
//! which soundly disables visited-set pruning and cycle detection.

use crate::detmap::DetHashMap as HashMap;
use crate::kernel::{EventKind, Sim};
use crate::payload::Payload;
use crate::place::Fnv64;
use crate::proc::{NodeId, ProcessId};
use crate::time::{SimDuration, SimTime};

use std::fmt;
use std::str::FromStr;

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

/// One scheduling decision in an exploration or replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Deliver the pending message with this sequence number now.
    Deliver(u64),
    /// Fire the earliest timed event (it must have this sequence number),
    /// advancing the clock to its scheduled time.
    Tick(u64),
    /// Crash this node.
    Crash(u32),
    /// Restart this node.
    Restart(u32),
    /// Drop the pending message with this sequence number.
    Drop(u64),
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::Deliver(seq) => write!(f, "d{seq}"),
            Choice::Tick(seq) => write!(f, "t{seq}"),
            Choice::Crash(node) => write!(f, "c{node}"),
            Choice::Restart(node) => write!(f, "r{node}"),
            Choice::Drop(seq) => write!(f, "x{seq}"),
        }
    }
}

impl FromStr for Choice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, num) = s.split_at(1);
        let n: u64 = num.parse().map_err(|_| format!("bad choice token {s:?}"))?;
        match kind {
            "d" => Ok(Choice::Deliver(n)),
            "t" => Ok(Choice::Tick(n)),
            "c" => Ok(Choice::Crash(n as u32)),
            "r" => Ok(Choice::Restart(n as u32)),
            "x" => Ok(Choice::Drop(n)),
            _ => Err(format!("bad choice token {s:?}")),
        }
    }
}

/// A reproducing schedule: the exact list of choices that drives a fresh
/// scenario world to a violation (or any state of interest). The textual
/// form is space-separated tokens, e.g. `"d3 d5 c0 r0 d8 t12"`, parseable
/// back with [`str::parse`] — the format pinned regression tests commit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule(Vec<Choice>);

impl Schedule {
    /// A schedule from an explicit choice list.
    pub fn new(choices: Vec<Choice>) -> Self {
        Schedule(choices)
    }

    /// The choices in order.
    pub fn choices(&self) -> &[Choice] {
        &self.0
    }

    /// Number of choices.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl FromStr for Schedule {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut choices = Vec::new();
        for tok in s.split_whitespace() {
            choices.push(tok.parse()?);
        }
        Ok(Schedule(choices))
    }
}

/// Why a schedule replay stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the inapplicable choice within the schedule.
    pub index: usize,
    /// The choice that could not be applied.
    pub choice: Choice,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule choice #{} ({}) not applicable: {}",
            self.index, self.choice, self.reason
        )
    }
}

impl std::error::Error for ReplayError {}

impl Sim {
    /// Replay a schedule produced by the model checker against this
    /// simulation, which must be the *same world* (same topology, spawns
    /// and injections) the schedule was found in. Pending `Start` events
    /// are drained before the first choice and after every choice, exactly
    /// as during exploration; afterwards the queue is re-clamped to the
    /// current time so normal [`Sim::run_for`] execution can continue.
    ///
    /// On error the simulation is left mid-replay and should be discarded.
    pub fn replay_schedule(&mut self, schedule: &Schedule) -> Result<(), ReplayError> {
        drain_starts(self);
        for (index, &choice) in schedule.choices().iter().enumerate() {
            apply_choice(self, choice).map_err(|reason| ReplayError {
                index,
                choice,
                reason,
            })?;
            drain_starts(self);
        }
        self.mc_clamp_queue_to_now();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Configuration and scenario hooks
// ---------------------------------------------------------------------------

/// Exploration bounds and toggles.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Maximum schedule length explored before a leaf is forced.
    pub max_depth: usize,
    /// Hard cap on explored states; exceeding it sets
    /// [`McReport::truncated`] and stops the exploration.
    pub max_states: u64,
    /// Crash-injection budget per schedule (restarts are free).
    pub max_crashes: u32,
    /// Message-drop budget per schedule.
    pub max_drops: u32,
    /// Nodes the checker may crash/restart; leaves are closed with all of
    /// them restarted so terminal audits see a healed world.
    pub crashable: Vec<NodeId>,
    /// Sleep-set partial-order reduction on/off.
    pub por: bool,
    /// Hashed-state visited set on/off.
    pub visited: bool,
    /// Longest a leaf closure may run, in virtual time, before the audit
    /// judges the world anyway (see [`McScenario::settled`]).
    pub grace: SimDuration,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_depth: 8,
            max_states: 1_000_000,
            max_crashes: 0,
            max_drops: 0,
            crashable: Vec::new(),
            por: true,
            visited: true,
            grace: SimDuration::from_millis(800),
        }
    }
}

/// A boxed payload fingerprint hook (see [`McScenario::payload_fp`]).
pub type PayloadFpFn = Box<dyn Fn(&Payload) -> Option<u64>>;
/// A boxed semantic state fingerprint hook (see [`McScenario::state_fp`]).
pub type StateFpFn = Box<dyn Fn(&Sim) -> Option<u64>>;
/// A boxed invariant/audit hook returning a violation message on failure.
pub type CheckFn = Box<dyn Fn(&Sim) -> Result<(), String>>;
/// A boxed settledness hook (see [`McScenario::settled`]).
pub type SettledFn = Box<dyn Fn(&Sim) -> bool>;

/// A model-checking scenario: how to build the world and how to judge it.
///
/// The `build` closure must be deterministic (every call produces an
/// identical world) — the checker re-executes it once per explored state
/// to rewind, which is what lets it explore without cloning the kernel.
pub struct McScenario {
    /// Scenario name (for reports and logs).
    pub name: String,
    /// Build a fresh world: topology, processes, injected work.
    pub build: Box<dyn Fn() -> Sim>,
    /// Content fingerprint of a message payload, used to give scheduling
    /// choices path-stable identities and to hash pending-message state.
    /// Return `None` for unrecognized payloads: the state becomes opaque
    /// (no visited-set pruning there), never unsound.
    pub payload_fp: PayloadFpFn,
    /// Fingerprint of all behavior-relevant process/protocol state.
    /// Return `None` to mark the state opaque (sound, less pruning).
    pub state_fp: StateFpFn,
    /// Invariant checked at *every* explored state; must hold in all
    /// intermediate states (e.g. conservation across committed balances,
    /// "no branch open for a decided transaction").
    pub step_invariant: CheckFn,
    /// Terminal audit run at leaves after closure (e.g. atomicity,
    /// exactly-once, no stuck locks — the torture harness audits).
    pub audit: CheckFn,
    /// True once, with no further fault injected, nothing `audit` reads
    /// can change any more. A leaf closure stops at the first state where
    /// this holds and only timers are pending, instead of running out
    /// [`McConfig::grace`]. `false` (the default) is always sound: the
    /// closure then runs until the queue drains or the grace elapses.
    pub settled: SettledFn,
}

impl McScenario {
    /// A scenario with the given builder and permissive defaults: opaque
    /// fingerprints, no invariants. Override fields as needed.
    pub fn new(name: impl Into<String>, build: impl Fn() -> Sim + 'static) -> Self {
        McScenario {
            name: name.into(),
            build: Box::new(build),
            payload_fp: Box::new(|_| None),
            state_fp: Box::new(|_| None),
            step_invariant: Box::new(|_| Ok(())),
            audit: Box::new(|_| Ok(())),
            settled: Box::new(|_| false),
        }
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// A violation found during exploration.
#[derive(Debug, Clone)]
pub struct McViolation {
    /// The reproducing schedule, shrunk by greedy choice removal.
    pub schedule: Schedule,
    /// The invariant/audit failure message the schedule reproduces.
    pub message: String,
    /// Length of the schedule as originally found, before minimization.
    pub raw_len: usize,
}

/// Exploration statistics and outcome.
#[derive(Debug, Clone, Default)]
pub struct McReport {
    /// Choice-point states explored (including the root).
    pub states: u64,
    /// Leaves closed and audited (quiescent or choice-free states).
    pub leaves: u64,
    /// States cut by the visited set.
    pub pruned_visited: u64,
    /// Sibling subtrees cut by sleep sets.
    pub pruned_sleep: u64,
    /// Leaves reached by state-cycle detection (a repeated on-path
    /// fingerprint).
    pub cycles: u64,
    /// Leaves forced by the depth bound.
    pub depth_cap_hits: u64,
    /// Worlds rebuilt from the scenario builder to rewind to a sibling
    /// (every child but the first of each explored state).
    pub rebuilds: u64,
    /// Choices re-applied by those rebuilds: the sum of their prefix
    /// lengths.
    pub replayed_choices: u64,
    /// Kernel events the leaf closures executed, summed over all leaves.
    pub closure_events: u64,
    /// Leaves whose closure reached [`McConfig::grace`] before the world
    /// settled; their audit judged it as it stood then.
    pub unsettled_leaves: u64,
    /// True when `max_states` stopped the exploration early.
    pub truncated: bool,
    /// True when some handler consumed randomness along an explored
    /// schedule; pruning is disabled from that point for soundness.
    pub rng_impure: bool,
    /// The first violation found, if any.
    pub violation: Option<McViolation>,
}

impl McReport {
    /// True when the bounded exploration completed with no violation.
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

// ---------------------------------------------------------------------------
// Choice application (shared by exploration, minimization and replay)
// ---------------------------------------------------------------------------

/// Execute every pending `Start` event in sequence order. Start events are
/// pushed at the current time, so this never advances the clock.
fn drain_starts(sim: &mut Sim) {
    let mut starts: Vec<u64> = sim.mc_scan(|key, kind| match kind {
        EventKind::Start { .. } => Some(key.seq),
        _ => None,
    });
    starts.sort_unstable();
    for seq in starts {
        if let Some((key, kind)) = sim.mc_take(seq) {
            sim.mc_dispatch(key, kind, false);
        }
    }
    debug_assert!(
        sim.mc_scan(|_, kind| match kind {
            EventKind::Start { .. } => Some(()),
            _ => None,
        })
        .is_empty(),
        "start handlers cannot spawn new starts"
    );
}

/// The pending deliveries of a simulation as `(seq, to, from, payload
/// tag)` rows, in sequence order — the inspection view used to handcraft
/// schedules and to debug the checker's choice enumeration.
pub fn pending_deliveries(sim: &mut Sim) -> Vec<(u64, ProcessId, ProcessId, &'static str)> {
    let mut rows = sim.mc_scan(|key, kind| match kind {
        EventKind::Deliver {
            to, from, payload, ..
        } => Some((key.seq, *to, *from, payload.tag())),
        _ => None,
    });
    rows.sort_unstable_by_key(|&(seq, ..)| seq);
    rows
}

/// The earliest (time, seq) pending *timed* event — the only tick enabled.
fn earliest_timed(sim: &mut Sim) -> Option<u64> {
    sim.mc_scan(|key, kind| match kind {
        EventKind::Deliver { .. } | EventKind::Start { .. } => None,
        _ => Some((key.time, key.seq)),
    })
    .into_iter()
    .min()
    .map(|(_, seq)| seq)
}

/// Apply one choice to the simulation, validating applicability. On error
/// the simulation may already be perturbed and should be discarded.
fn apply_choice(sim: &mut Sim, choice: Choice) -> Result<(), String> {
    match choice {
        Choice::Deliver(seq) => match sim.mc_take(seq) {
            Some((key, kind @ EventKind::Deliver { .. })) => {
                sim.mc_dispatch(key, kind, false);
                Ok(())
            }
            Some(_) => Err(format!("event {seq} is not a delivery")),
            None => Err(format!("no pending event {seq}")),
        },
        Choice::Tick(seq) => {
            if earliest_timed(sim) != Some(seq) {
                return Err(format!("event {seq} is not the earliest timed event"));
            }
            let (key, kind) = sim.mc_take(seq).expect("scanned event present");
            sim.mc_dispatch(key, kind, true);
            Ok(())
        }
        Choice::Crash(node) => {
            let node = NodeId(node);
            if (node.0 as usize) >= sim.mc_node_count() || !sim.node_up(node) {
                return Err(format!("{node} is not up"));
            }
            sim.crash_node(node);
            Ok(())
        }
        Choice::Restart(node) => {
            let node = NodeId(node);
            if (node.0 as usize) >= sim.mc_node_count() || sim.node_up(node) {
                return Err(format!("{node} is not down"));
            }
            sim.restart_node(node);
            Ok(())
        }
        Choice::Drop(seq) => match sim.mc_take(seq) {
            Some((_, EventKind::Deliver { .. })) => Ok(()),
            Some(_) => Err(format!("event {seq} is not a delivery")),
            None => Err(format!("no pending event {seq}")),
        },
    }
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

/// Dependence information for one choice, for the independence relation
/// behind sleep-set filtering.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dep {
    Tick,
    Deliver {
        node: NodeId,
        to: ProcessId,
        class: u64,
    },
    Fault {
        node: NodeId,
    },
    Drop {
        deliver_class: u64,
    },
}

/// Conservative commutation test: may `a` and `b` be reordered without
/// changing the reachable state?
fn independent(a: &Dep, b: &Dep) -> bool {
    use Dep::*;
    match (a, b) {
        (Tick, _) | (_, Tick) => false,
        (Deliver { to: t1, .. }, Deliver { to: t2, .. }) => t1 != t2,
        (Deliver { node, .. }, Fault { node: n }) | (Fault { node: n }, Deliver { node, .. }) => {
            node != n
        }
        (Fault { node: a }, Fault { node: b }) => a != b,
        (Drop { deliver_class: a }, Drop { deliver_class: b }) => a != b,
        (Drop { deliver_class }, Deliver { class, .. })
        | (Deliver { class, .. }, Drop { deliver_class }) => deliver_class != class,
        (Drop { .. }, Fault { .. }) | (Fault { .. }, Drop { .. }) => true,
    }
}

#[derive(Clone)]
struct SleepEntry {
    class: u64,
    dep: Dep,
}

struct EnabledChoice {
    choice: Choice,
    class: u64,
    dep: Dep,
}

/// One pending event as the explorer's single scan per state reports it:
/// what both [`Explorer::fingerprint`] and [`Explorer::enumerate`] read,
/// so each delivery's payload is fingerprinted once per state.
enum Pending {
    /// A message: a deliver or drop choice, hashed by content.
    Deliver {
        seq: u64,
        to: ProcessId,
        from: ProcessId,
        pfp: Option<u64>,
    },
    /// A timer or scheduled fault: a tick candidate with its choice
    /// `class`, and `fp`, its state hash (relative deadline included).
    Timed {
        seq: u64,
        time: SimTime,
        class: u64,
        fp: u64,
    },
}

struct Explorer<'a> {
    scenario: &'a McScenario,
    config: &'a McConfig,
    /// RNG fingerprint of the freshly built world; divergence along a
    /// path means a handler drew randomness.
    base_rng_fp: u64,
    /// fingerprint → sleep-class sets it was previously explored with.
    visited: HashMap<u64, Vec<Vec<u64>>>,
    /// Fingerprints of the states on the current DFS path.
    path_fps: Vec<u64>,
    /// Choices taken to reach the current state.
    prefix: Vec<Choice>,
    report: McReport,
    stop: bool,
}

/// Run the bounded exhaustive exploration of a scenario.
///
/// Panics if the scenario's network config is not draw-free (randomized
/// latency, loss or duplication), since choice enumeration replaces all
/// three and stray draws would silently weaken the pruning soundness.
///
/// ```rust
/// use tca_sim::mc::{explore, McConfig, McScenario};
/// use tca_sim::{Ctx, NetworkConfig, Payload, Process, ProcessId, Sim, SimConfig, SimDuration};
///
/// struct Pong;
/// impl Process for Pong {
///     fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
///         ctx.send(from, payload);
///     }
/// }
/// struct Ping(ProcessId);
/// impl Process for Ping {
///     fn on_start(&mut self, ctx: &mut Ctx) {
///         ctx.send(self.0, Payload::new(1u32));
///     }
///     fn on_message(&mut self, ctx: &mut Ctx, _: ProcessId, _: Payload) {
///         ctx.metrics().incr("ping.done", 1);
///     }
/// }
///
/// let scenario = McScenario::new("ping-pong", || {
///     // The checker requires a draw-free network: fixed latency, no faults.
///     let fixed = SimDuration::from_micros(250);
///     let mut sim = Sim::new(SimConfig {
///         seed: 1,
///         network: NetworkConfig {
///             latency_min: fixed,
///             latency_max: fixed,
///             local_latency: fixed,
///             drop_prob: 0.0,
///             dup_prob: 0.0,
///         },
///     });
///     let node = sim.add_node();
///     let pong = sim.spawn(node, "pong", |_| Box::new(Pong));
///     sim.spawn(node, "ping", move |_| Box::new(Ping(pong)));
///     sim
/// });
///
/// let report = explore(&scenario, &McConfig::default());
/// assert!(report.verified() && report.states > 0 && !report.rng_impure);
/// ```
pub fn explore(scenario: &McScenario, config: &McConfig) -> McReport {
    let mut sim = (scenario.build)();
    {
        let net = sim.network_mut().config();
        assert!(
            net.latency_max <= net.latency_min && net.drop_prob == 0.0 && net.dup_prob == 0.0,
            "model-checked scenarios need a draw-free network config \
             (fixed latency, no loss/duplication): the checker enumerates \
             delays, drops and duplicates as explicit choices instead"
        );
    }
    drain_starts(&mut sim);
    let base_rng_fp = sim.mc_rng_fingerprint();
    let mut explorer = Explorer {
        scenario,
        config,
        base_rng_fp,
        visited: HashMap::default(),
        path_fps: Vec::new(),
        prefix: Vec::new(),
        report: McReport::default(),
        stop: false,
    };
    explorer.dfs(sim, Vec::new(), 0, 0, 0);
    let mut report = explorer.report;
    if let Some(v) = report.violation.take() {
        let (schedule, message) = minimize(scenario, config, v.schedule, v.message);
        report.violation = Some(McViolation {
            schedule,
            message,
            raw_len: v.raw_len,
        });
    }
    report
}

/// Replay `schedule` against a fresh world and report the violation it
/// produces, if any: the step invariant is checked after every choice and
/// the closure + terminal audit run at the end. `None` means the schedule
/// is inapplicable or reproduces no violation — the form pinned
/// regression tests assert after a protocol fix.
pub fn check_schedule(
    scenario: &McScenario,
    config: &McConfig,
    schedule: &Schedule,
) -> Option<String> {
    let mut sim = (scenario.build)();
    drain_starts(&mut sim);
    if let Err(msg) = (scenario.step_invariant)(&sim) {
        return Some(msg);
    }
    for &choice in schedule.choices() {
        if apply_choice(&mut sim, choice).is_err() {
            return None;
        }
        drain_starts(&mut sim);
        if let Err(msg) = (scenario.step_invariant)(&sim) {
            return Some(msg);
        }
    }
    close_world(&mut sim, scenario, config);
    (scenario.audit)(&sim).err()
}

/// Heal and restart everything, clamp the queue, then run events in
/// kernel order until the world has settled — the queue is empty, or only
/// timers are pending and [`McScenario::settled`] holds — or
/// [`McConfig::grace`] has elapsed. Returns `false` in the last case,
/// which the explorer counts in [`McReport::unsettled_leaves`].
fn close_world(sim: &mut Sim, scenario: &McScenario, config: &McConfig) -> bool {
    for &node in &config.crashable {
        if !sim.node_up(node) {
            sim.restart_node(node);
        }
    }
    sim.heal_partitions();
    sim.mc_clamp_queue_to_now();
    let until = sim.now() + config.grace;
    loop {
        // The hook is cheap and usually false; the scan only runs once it
        // holds.
        if sim.mc_queue_is_empty() || ((scenario.settled)(sim) && sim.mc_only_timers_pending()) {
            return true;
        }
        if !sim.mc_step_until(until) {
            return false;
        }
    }
}

/// Greedy shrink: repeatedly try removing single choices, keeping any
/// shorter schedule that still reproduces *a* violation.
fn minimize(
    scenario: &McScenario,
    config: &McConfig,
    mut best: Schedule,
    mut message: String,
) -> (Schedule, String) {
    loop {
        let mut improved = false;
        for i in 0..best.len() {
            let mut cand = best.choices().to_vec();
            cand.remove(i);
            let cand = Schedule(cand);
            if let Some(msg) = check_schedule(scenario, config, &cand) {
                best = cand;
                message = msg;
                improved = true;
                break;
            }
        }
        if !improved {
            return (best, message);
        }
    }
}

impl Explorer<'_> {
    fn dfs(
        &mut self,
        mut sim: Sim,
        sleep: Vec<SleepEntry>,
        depth: usize,
        crashes_used: u32,
        drops_used: u32,
    ) {
        if self.stop {
            return;
        }
        self.report.states += 1;
        if self.report.states >= self.config.max_states {
            self.report.truncated = true;
            self.stop = true;
            return;
        }
        if sim.mc_rng_fingerprint() != self.base_rng_fp {
            self.report.rng_impure = true;
        }
        if let Err(msg) = (self.scenario.step_invariant)(&sim) {
            self.violation(msg);
            return;
        }
        let pending = self.scan(&mut sim);
        let fp = self.fingerprint(&mut sim, &pending, crashes_used, drops_used);
        if let Some(fp) = fp {
            if self.path_fps.contains(&fp) {
                self.report.cycles += 1;
                self.leaf(sim);
                return;
            }
        }
        if self.config.visited {
            if let Some(fp) = fp {
                let mut cur: Vec<u64> = sleep.iter().map(|e| e.class).collect();
                cur.sort_unstable();
                cur.dedup();
                let stored = self.visited.entry(fp).or_default();
                if stored.iter().any(|s| is_subset(s, &cur)) {
                    self.report.pruned_visited += 1;
                    return;
                }
                stored.push(cur);
            }
        }
        // Consumes the scan: nothing of it stays alive down the recursion.
        let choices = self.enumerate(&sim, pending, crashes_used, drops_used);
        if choices.is_empty() {
            self.report.leaves += 1;
            self.leaf(sim);
            return;
        }
        if depth >= self.config.max_depth {
            self.report.depth_cap_hits += 1;
            self.leaf(sim);
            return;
        }
        if let Some(fp) = fp {
            self.path_fps.push(fp);
        }
        let mut sleep = sleep;
        let mut live = Some(sim);
        for c in &choices {
            if self.stop {
                break;
            }
            let por = self.config.por && !self.report.rng_impure;
            if por && sleep.iter().any(|e| e.class == c.class) {
                self.report.pruned_sleep += 1;
                continue;
            }
            let mut child = match live.take() {
                Some(s) => s,
                None => self.rebuild(),
            };
            apply_choice(&mut child, c.choice).expect("enumerated choice applies");
            drain_starts(&mut child);
            let child_sleep: Vec<SleepEntry> = if por {
                sleep
                    .iter()
                    .filter(|e| independent(&e.dep, &c.dep))
                    .cloned()
                    .collect()
            } else {
                Vec::new()
            };
            let (cu, du) = match c.choice {
                Choice::Crash(_) => (crashes_used + 1, drops_used),
                Choice::Drop(_) => (crashes_used, drops_used + 1),
                _ => (crashes_used, drops_used),
            };
            self.prefix.push(c.choice);
            self.dfs(child, child_sleep, depth + 1, cu, du);
            self.prefix.pop();
            if self.config.por {
                sleep.push(SleepEntry {
                    class: c.class,
                    dep: c.dep,
                });
            }
        }
        if fp.is_some() {
            self.path_fps.pop();
        }
    }

    /// Rebuild the simulation at the current prefix by re-executing the
    /// scenario builder and replaying every choice — the stateless-
    /// model-checking rewind (the kernel is not cloneable, and need not
    /// be).
    fn rebuild(&mut self) -> Sim {
        self.report.rebuilds += 1;
        self.report.replayed_choices += self.prefix.len() as u64;
        let mut sim = (self.scenario.build)();
        drain_starts(&mut sim);
        for &choice in &self.prefix {
            apply_choice(&mut sim, choice).expect("prefix replays");
            drain_starts(&mut sim);
        }
        sim
    }

    fn leaf(&mut self, mut sim: Sim) {
        let before = sim.events_processed();
        if !close_world(&mut sim, self.scenario, self.config) {
            self.report.unsettled_leaves += 1;
        }
        self.report.closure_events += sim.events_processed() - before;
        if let Err(msg) = (self.scenario.audit)(&sim) {
            self.violation(msg);
        }
    }

    fn violation(&mut self, message: String) {
        let schedule = Schedule(self.prefix.clone());
        let raw_len = schedule.len();
        self.report.violation = Some(McViolation {
            schedule,
            message,
            raw_len,
        });
        self.stop = true;
    }

    /// Every pending event at the current state, in no particular order:
    /// the one scan per state that `fingerprint` and `enumerate` share.
    /// Timed events carry both their choice class and their state hash.
    fn scan(&self, sim: &mut Sim) -> Vec<Pending> {
        let now = sim.now().as_nanos();
        let payload_fp = &self.scenario.payload_fp;
        sim.mc_scan(|key, kind| {
            let ahead = key.time.as_nanos().saturating_sub(now);
            let timed = |class: Fnv64, fp: Fnv64| Pending::Timed {
                seq: key.seq,
                time: key.time,
                class: class.finish(),
                fp: fp.u64(ahead).finish(),
            };
            let hash = |tag: u64| Fnv64::new().u64(tag);
            Some(match kind {
                EventKind::Deliver {
                    to, from, payload, ..
                } => Pending::Deliver {
                    seq: key.seq,
                    to: *to,
                    from: *from,
                    pfp: payload_fp(payload),
                },
                EventKind::Timer { pid, tag, .. } => {
                    let (pid, tag) = (pid.0 as u64, *tag);
                    timed(hash(1).u64(pid).u64(tag), hash(21).u64(pid).u64(tag))
                }
                EventKind::CrashNode(n) => timed(hash(2).u64(n.0 as u64), hash(22).u64(n.0 as u64)),
                EventKind::RestartNode(n) => {
                    timed(hash(3).u64(n.0 as u64), hash(23).u64(n.0 as u64))
                }
                EventKind::Partition(sides) => {
                    let (mut class, mut fp) = (hash(4), hash(24));
                    for n in sides.0.iter().chain(sides.1.iter()) {
                        class = class.u64(n.0 as u64);
                        fp = fp.u64(n.0 as u64);
                    }
                    timed(class, fp)
                }
                EventKind::HealPartitions => timed(hash(5), hash(25)),
                EventKind::Start { .. } => {
                    debug_assert!(false, "starts are drained before every choice point");
                    return None;
                }
            })
        })
    }

    /// All enabled choices at the current state, in canonical order:
    /// deliveries by sequence number, the tick, drops, then faults.
    fn enumerate(
        &self,
        sim: &Sim,
        pending: Vec<Pending>,
        crashes_used: u32,
        drops_used: u32,
    ) -> Vec<EnabledChoice> {
        let mut delivers: Vec<(u64, ProcessId, u64)> = Vec::new();
        let mut best_timed: Option<(SimTime, u64, u64)> = None;
        for evt in pending {
            match evt {
                Pending::Deliver { seq, to, from, pfp } => {
                    let class = match pfp {
                        Some(p) => Fnv64::new()
                            .u64(0)
                            .u64(to.0 as u64)
                            .u64(from.0 as u64)
                            .u64(p)
                            .finish(),
                        // Sequence numbers are path-stable for events
                        // pending at this state, so this fallback only
                        // loses cross-path merging — and an opaque payload
                        // already made the state fingerprint opaque, so
                        // none was possible anyway.
                        None => Fnv64::new().u64(6).u64(seq).finish(),
                    };
                    delivers.push((seq, to, class));
                }
                Pending::Timed {
                    seq, time, class, ..
                } => {
                    if best_timed.is_none_or(|(t, s, _)| (time, seq) < (t, s)) {
                        best_timed = Some((time, seq, class));
                    }
                }
            }
        }
        delivers.sort_unstable_by_key(|&(seq, ..)| seq);
        let mut out = Vec::new();
        for &(seq, to, class) in &delivers {
            out.push(EnabledChoice {
                choice: Choice::Deliver(seq),
                class,
                dep: Dep::Deliver {
                    node: sim.node_of(to),
                    to,
                    class,
                },
            });
        }
        if let Some((_, seq, tclass)) = best_timed {
            out.push(EnabledChoice {
                choice: Choice::Tick(seq),
                class: Fnv64::new().u64(7).u64(tclass).finish(),
                dep: Dep::Tick,
            });
        }
        if drops_used < self.config.max_drops {
            for &(seq, _, deliver_class) in &delivers {
                out.push(EnabledChoice {
                    choice: Choice::Drop(seq),
                    class: Fnv64::new().u64(8).u64(deliver_class).finish(),
                    dep: Dep::Drop { deliver_class },
                });
            }
        }
        for &node in &self.config.crashable {
            if sim.node_up(node) {
                if crashes_used < self.config.max_crashes {
                    out.push(EnabledChoice {
                        choice: Choice::Crash(node.0),
                        class: Fnv64::new().u64(9).u64(node.0 as u64).finish(),
                        dep: Dep::Fault { node },
                    });
                }
            } else {
                out.push(EnabledChoice {
                    choice: Choice::Restart(node.0),
                    class: Fnv64::new().u64(10).u64(node.0 as u64).finish(),
                    dep: Dep::Fault { node },
                });
            }
        }
        out
    }

    /// Structural state fingerprint, or `None` when the scenario marks
    /// the state opaque. See the module docs for what it covers and why.
    fn fingerprint(
        &self,
        sim: &mut Sim,
        pending: &[Pending],
        crashes_used: u32,
        drops_used: u32,
    ) -> Option<u64> {
        let sfp = (self.scenario.state_fp)(sim)?;
        let now = sim.now();
        let mut event_hashes = Vec::with_capacity(pending.len());
        for evt in pending {
            event_hashes.push(match *evt {
                // No time component: a pending delivery can run at any
                // moment, so its scheduled arrival is not state.
                Pending::Deliver { to, from, pfp, .. } => Fnv64::new()
                    .u64(20)
                    .u64(to.0 as u64)
                    .u64(from.0 as u64)
                    .u64(pfp?)
                    .finish(),
                Pending::Timed { fp, .. } => fp,
            });
        }
        event_hashes.sort_unstable();
        let mut h = Fnv64::new()
            .u64(sfp)
            .u64(now.as_nanos())
            .u64(crashes_used as u64)
            .u64(drops_used as u64)
            .u64(sim.mc_rng_fingerprint());
        for i in 0..sim.mc_node_count() {
            h = h.u64(sim.node_up(NodeId(i as u32)) as u64);
        }
        for i in 0..sim.mc_proc_count() {
            let (alive, halted) = sim.mc_proc_flags(i);
            h = h.u64((alive as u64) << 1 | halted as u64);
        }
        // Partition state as a bit matrix (tiny worlds — this is cheap).
        let n = sim.mc_node_count();
        for a in 0..n {
            for b in (a + 1)..n {
                let blocked = sim
                    .network_mut()
                    .is_blocked(NodeId(a as u32), NodeId(b as u32));
                h = h.u64(blocked as u64);
            }
        }
        for v in event_hashes {
            h = h.u64(v);
        }
        Some(h.finish())
    }
}

/// Is sorted `a` a subset of sorted `b`?
fn is_subset(a: &[u64], b: &[u64]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SimConfig;
    use crate::network::NetworkConfig;
    use crate::proc::{Ctx, Process};

    /// A network config that never draws from the RNG: fixed latency, no
    /// loss, no duplication.
    fn fixed_network() -> NetworkConfig {
        NetworkConfig {
            latency_min: SimDuration::from_micros(250),
            latency_max: SimDuration::from_micros(250),
            local_latency: SimDuration::from_micros(10),
            drop_prob: 0.0,
            dup_prob: 0.0,
        }
    }

    fn mc_sim() -> Sim {
        Sim::new(SimConfig {
            seed: 1,
            network: fixed_network(),
        })
    }

    /// Counts messages; exposes itself for inspection.
    struct Sink {
        got: u64,
    }
    impl Process for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx, _from: ProcessId, _payload: Payload) {
            self.got += 1;
        }
    }

    /// Two independent deliveries to two different processes: POR should
    /// collapse the two interleavings to one.
    fn two_sinks_scenario() -> McScenario {
        let mut sc = McScenario::new("two-sinks", || {
            let mut sim = mc_sim();
            let n0 = sim.add_node();
            let n1 = sim.add_node();
            let a = sim.spawn(n0, "a", |_| Box::new(Sink { got: 0 }));
            let b = sim.spawn(n1, "b", |_| Box::new(Sink { got: 0 }));
            sim.inject(a, Payload::new(1u64));
            sim.inject(b, Payload::new(2u64));
            sim
        });
        sc.payload_fp = Box::new(|p| p.downcast_ref::<u64>().copied());
        sc.state_fp = Box::new(|sim| {
            let mut h = Fnv64::new();
            for pid in 0..2u32 {
                let got = sim
                    .inspect::<Sink>(ProcessId(pid))
                    .map(|s| s.got)
                    .unwrap_or(u64::MAX);
                h = h.u64(got);
            }
            Some(h.finish())
        });
        sc
    }

    fn deep_config() -> McConfig {
        McConfig {
            max_depth: 10,
            ..McConfig::default()
        }
    }

    #[test]
    fn por_prunes_independent_interleavings() {
        let sc = two_sinks_scenario();
        let por = explore(&sc, &deep_config());
        assert!(por.verified(), "no invariant can fail here");
        let naive = explore(
            &sc,
            &McConfig {
                por: false,
                visited: false,
                ..deep_config()
            },
        );
        assert!(naive.verified());
        // Naive: root, {d1}, {d2}, {d1 d2}, {d2 d1} = 5 states, 2 leaves.
        assert_eq!(naive.states, 5);
        assert_eq!(naive.leaves, 2);
        // POR: the second interleaving is slept away.
        assert_eq!(por.states, 4);
        assert_eq!(por.leaves, 1);
        assert!(por.pruned_sleep >= 1);
        // Both rewind once, to the root's second child, replaying the
        // empty prefix; every other child continues the live world.
        assert_eq!((naive.rebuilds, naive.replayed_choices), (1, 0));
        assert_eq!((por.rebuilds, por.replayed_choices), (1, 0));
        assert_eq!((naive.unsettled_leaves, por.unsettled_leaves), (0, 0));
    }

    /// A process that re-arms a timer forever never quiesces.
    struct Ticker;
    impl Process for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
        fn on_timer(&mut self, ctx: &mut Ctx, _: u64) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }

    #[test]
    fn a_leaf_that_does_not_quiesce_is_counted() {
        let sc = McScenario::new("ticker", || {
            let mut sim = mc_sim();
            let n0 = sim.add_node();
            sim.spawn(n0, "t", |_| Box::new(Ticker));
            sim
        });
        let report = explore(
            &sc,
            &McConfig {
                max_depth: 2,
                ..McConfig::default()
            },
        );
        // Two ticks deep, one depth-capped leaf, whose closure ticks once
        // a millisecond until the 800 ms grace bound.
        assert_eq!((report.states, report.depth_cap_hits), (3, 1));
        assert_eq!((report.unsettled_leaves, report.closure_events), (1, 800));
        assert!(
            report.verified(),
            "an unsettled leaf is reported, not failed"
        );
    }

    /// A ticker next to a sink with one message injected, closed at the
    /// root (`max_depth` 0) under a hook that always holds.
    fn settled_at_root(mut sc: McScenario) -> McReport {
        sc.settled = Box::new(|_| true);
        explore(
            &sc,
            &McConfig {
                max_depth: 0,
                ..McConfig::default()
            },
        )
    }

    #[test]
    fn a_settled_leaf_with_a_delivery_pending_runs_until_only_timers_are_left() {
        let mut sc = McScenario::new("ticker+sink", || {
            let mut sim = mc_sim();
            let n0 = sim.add_node();
            sim.spawn(n0, "t", |_| Box::new(Ticker));
            let sink = sim.spawn(n0, "s", |_| Box::new(Sink { got: 0 }));
            sim.inject(sink, Payload::new(1u64));
            sim
        });
        sc.audit = Box::new(|sim| match sim.inspect::<Sink>(ProcessId(1)).unwrap().got {
            1 => Ok(()),
            got => Err(format!(
                "closure stopped with the delivery pending: got {got}"
            )),
        });
        let report = settled_at_root(sc);
        assert!(report.verified(), "{:?}", report.violation);
        // The delivery runs, then only the ticker's timer is left.
        assert_eq!((report.depth_cap_hits, report.closure_events), (1, 1));
        assert_eq!(report.unsettled_leaves, 0);
    }

    #[test]
    fn a_leaf_settled_at_once_runs_no_closure_event() {
        let report = settled_at_root(McScenario::new("ticker", || {
            let mut sim = mc_sim();
            let n0 = sim.add_node();
            sim.spawn(n0, "t", |_| Box::new(Ticker));
            sim
        }));
        assert_eq!((report.depth_cap_hits, report.closure_events), (1, 0));
        assert_eq!(report.unsettled_leaves, 0);
    }

    /// A process that must see "a" before "b"; delivering "b" first is the
    /// planted ordering bug.
    struct Ordered {
        seen_a: bool,
        broken: bool,
    }
    impl Process for Ordered {
        fn on_message(&mut self, _ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            match *payload.expect::<&'static str>() {
                "a" => self.seen_a = true,
                "b" if !self.seen_a => self.broken = true,
                _ => {}
            }
        }
    }

    fn ordered_scenario() -> McScenario {
        let mut sc = McScenario::new("ordered", || {
            let mut sim = mc_sim();
            let n0 = sim.add_node();
            let p = sim.spawn(n0, "p", |_| {
                Box::new(Ordered {
                    seen_a: false,
                    broken: false,
                })
            });
            sim.inject(p, Payload::new("a"));
            sim.inject(p, Payload::new("b"));
            sim
        });
        sc.payload_fp = Box::new(|p| {
            p.downcast_ref::<&'static str>().map(|s| {
                s.bytes()
                    .fold(Fnv64::new(), |h, b| h.u64(b as u64))
                    .finish()
            })
        });
        sc.step_invariant = Box::new(|sim| match sim.inspect::<Ordered>(ProcessId(0)) {
            Some(p) if p.broken => Err("b arrived before a".into()),
            _ => Ok(()),
        });
        sc
    }

    #[test]
    fn violation_is_found_minimized_and_replayable() {
        let sc = ordered_scenario();
        let report = explore(&sc, &deep_config());
        let v = report.violation.expect("ordering bug must be found");
        assert_eq!(v.message, "b arrived before a");
        // Minimal repro: deliver "b" alone.
        assert_eq!(v.schedule.len(), 1);
        assert!(matches!(v.schedule.choices()[0], Choice::Deliver(_)));
        // The pinned-test workflow: parse the printed schedule back and
        // replay it on a fresh world.
        let printed = v.schedule.to_string();
        let parsed: Schedule = printed.parse().unwrap();
        assert_eq!(parsed, v.schedule);
        let mut sim = (sc.build)();
        sim.replay_schedule(&parsed).unwrap();
        assert!(sim.inspect::<Ordered>(ProcessId(0)).unwrap().broken);
        // check_schedule reports the same violation.
        assert_eq!(
            check_schedule(&sc, &deep_config(), &parsed).as_deref(),
            Some("b arrived before a")
        );
    }

    /// Restart-visibility process: remembers whether its factory ran with
    /// `boot.restart`.
    struct Reborn {
        restarted: bool,
    }
    impl Process for Reborn {
        fn on_message(&mut self, _ctx: &mut Ctx, _from: ProcessId, _payload: Payload) {}
    }

    #[test]
    fn crash_and_restart_choices_reach_recovery_states() {
        let mut sc = McScenario::new("reborn", || {
            let mut sim = mc_sim();
            let n0 = sim.add_node();
            sim.spawn(n0, "p", |boot| {
                Box::new(Reborn {
                    restarted: boot.restart,
                })
            });
            sim
        });
        sc.step_invariant = Box::new(|sim| match sim.inspect::<Reborn>(ProcessId(0)) {
            Some(p) if p.restarted => Err("process restarted".into()),
            _ => Ok(()),
        });
        let config = McConfig {
            max_crashes: 1,
            crashable: vec![NodeId(0)],
            ..McConfig::default()
        };
        let report = explore(&sc, &config);
        let v = report.violation.expect("restart state must be reachable");
        // Minimal schedule is exactly crash-then-restart.
        assert_eq!(
            v.schedule.choices(),
            &[Choice::Crash(0), Choice::Restart(0)]
        );
        assert_eq!(v.schedule.to_string(), "c0 r0");
    }

    /// Drop choices: an audit that requires the message to arrive fails
    /// exactly when the drop budget is spent on it.
    #[test]
    fn drop_budget_enables_loss_schedules() {
        let mut sc = McScenario::new("lossy", || {
            let mut sim = mc_sim();
            let n0 = sim.add_node();
            let p = sim.spawn(n0, "p", |_| Box::new(Sink { got: 0 }));
            sim.inject(p, Payload::new(7u64));
            sim
        });
        sc.payload_fp = Box::new(|p| p.downcast_ref::<u64>().copied());
        sc.audit = Box::new(|sim| {
            let got = sim.inspect::<Sink>(ProcessId(0)).unwrap().got;
            if got == 1 {
                Ok(())
            } else {
                Err(format!("message lost: got {got}"))
            }
        });
        let no_drops = explore(&sc, &McConfig::default());
        assert!(no_drops.verified(), "without drops the message arrives");
        assert_eq!(no_drops.unsettled_leaves, 0);
        let with_drops = explore(
            &sc,
            &McConfig {
                max_drops: 1,
                ..McConfig::default()
            },
        );
        let v = with_drops.violation.expect("the drop schedule loses it");
        assert_eq!(v.schedule.len(), 1);
        assert!(matches!(v.schedule.choices()[0], Choice::Drop(_)));
    }

    #[test]
    fn schedule_parse_roundtrip_and_errors() {
        let s: Schedule = "d3 t9 c0 r2 x17".parse().unwrap();
        assert_eq!(
            s.choices(),
            &[
                Choice::Deliver(3),
                Choice::Tick(9),
                Choice::Crash(0),
                Choice::Restart(2),
                Choice::Drop(17),
            ]
        );
        assert_eq!(s.to_string(), "d3 t9 c0 r2 x17");
        assert!("q1".parse::<Schedule>().is_err());
        assert!("d".parse::<Schedule>().is_err());
    }

    #[test]
    fn replay_rejects_inapplicable_choices() {
        let sc = two_sinks_scenario();
        let mut sim = (sc.build)();
        let err = sim.replay_schedule(&"d9999".parse().unwrap()).unwrap_err();
        assert_eq!(err.index, 0);
        assert!(err.reason.contains("no pending event"));
    }

    #[test]
    fn exploration_is_deterministic() {
        let run = || {
            let report = explore(&two_sinks_scenario(), &deep_config());
            (report.states, report.leaves, report.pruned_sleep)
        };
        assert_eq!(run(), run());
    }

    /// Timers stay ordered: tick choices fire the earliest timer only, so
    /// a timer can never observe a later timer having fired first.
    struct TwoTimers {
        fired: Vec<u64>,
    }
    impl Process for TwoTimers {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(SimDuration::from_millis(1), 1);
            ctx.set_timer(SimDuration::from_millis(2), 2);
        }
        fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
        fn on_timer(&mut self, _ctx: &mut Ctx, tag: u64) {
            self.fired.push(tag);
        }
    }

    #[test]
    fn ticks_preserve_timer_order() {
        let mut sc = McScenario::new("timers", || {
            let mut sim = mc_sim();
            let n0 = sim.add_node();
            sim.spawn(n0, "p", |_| Box::new(TwoTimers { fired: Vec::new() }));
            sim
        });
        sc.step_invariant = Box::new(|sim| {
            let fired = &sim.inspect::<TwoTimers>(ProcessId(0)).unwrap().fired;
            if fired.as_slice() == [2] || fired.as_slice() == [2, 1] {
                Err("timer 2 fired before timer 1".into())
            } else {
                Ok(())
            }
        });
        let report = explore(&sc, &McConfig::default());
        assert!(report.verified(), "timers must fire in order: {report:?}");
        assert_eq!(report.unsettled_leaves, 0);
    }
}
