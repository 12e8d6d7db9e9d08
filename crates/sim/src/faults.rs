//! Deterministic fault plans for torture sweeps.
//!
//! A [`FaultPlan`] is a fully materialised schedule of faults — node
//! crash/restart cycles, partition windows, and ambient loss/duplication
//! rates — generated from a seed via [`FaultPlan::generate`] or built by
//! hand for pinned regressions. The plan is *data*: the same plan applied
//! to the same scenario with the same sim seed replays bit-identically,
//! which is what lets a torture-sweep failure print a reproducing
//! `(seed, plan)` pair the same way `tca_sim::check` prints shrunken
//! counterexamples.
//!
//! Plans are constructed **resolved**: every crash is paired with a
//! restart and every partition window heals, all before
//! [`FaultPlan::horizon`]. Scenarios run the fault window, then a grace
//! period, then audit invariants that must hold once the cluster is whole
//! again — atomicity, conservation, exactly-once effects, no stuck locks.
//! (Faults that never heal are the *blocking* experiments, e.g. E3; the
//! torture sweep is about eventual-consistency-of-the-protocols.)

use crate::kernel::Sim;
use crate::proc::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One scheduled fault. Node and partition members are *indices* into the
/// scenario-supplied crashable/partitionable node lists, so a plan is
/// meaningful independent of any concrete simulation topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash the `node`th crashable node at `at`.
    Crash {
        /// Index into the scenario's crashable list.
        node: usize,
        /// Absolute virtual time of the crash.
        at: SimDuration,
    },
    /// Restart the `node`th crashable node at `at`.
    Restart {
        /// Index into the scenario's crashable list.
        node: usize,
        /// Absolute virtual time of the restart.
        at: SimDuration,
    },
    /// Cut the partitionable nodes whose indices are in `cut` off from
    /// the rest of the partitionable set at `at`.
    Partition {
        /// Indices (into the partitionable list) of the isolated side.
        cut: Vec<usize>,
        /// Absolute virtual time of the cut.
        at: SimDuration,
    },
    /// Heal all partitions at `at`.
    Heal {
        /// Absolute virtual time of the heal.
        at: SimDuration,
    },
}

/// Bounds for randomised plan generation.
#[derive(Debug, Clone)]
pub struct FaultProfile {
    /// All faults are injected before this point; restarts/heals land at
    /// or before it. Scenarios should run to `horizon` plus a grace
    /// period before auditing.
    pub horizon: SimDuration,
    /// Maximum crash/restart cycles across all crashable nodes.
    pub max_crash_cycles: u32,
    /// Maximum partition windows (sequential, non-overlapping).
    pub max_partition_windows: u32,
    /// Ambient message-drop probability is drawn from `[0, max_drop_prob]`.
    pub max_drop_prob: f64,
    /// Ambient duplication probability is drawn from `[0, max_dup_prob]`.
    pub max_dup_prob: f64,
    /// Maximum crash-during-recovery cycles: a crash/restart pair where a
    /// *second* crash lands within `RECRASH_GRACE` (15 ms) of the restart
    /// — squarely inside the window where the node is replaying durable
    /// state — followed by a second restart, all before the horizon. `0`
    /// (the default) generates none and draws nothing, so existing
    /// profiles produce byte-identical plans.
    pub max_recrash_cycles: u32,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            horizon: SimDuration::from_millis(400),
            max_crash_cycles: 2,
            max_partition_windows: 2,
            max_drop_prob: 0.15,
            max_dup_prob: 0.10,
            max_recrash_cycles: 0,
        }
    }
}

impl FaultProfile {
    /// The crash-during-recovery profile: the default fault mix plus up
    /// to two cycles where a node is crashed *again* within a few
    /// milliseconds of restarting — while it is still re-driving work
    /// replayed from its durable logs. Recovery paths that are not
    /// themselves idempotent (replaying an intent twice, re-sending a
    /// decision from half-rebuilt state) break exactly here.
    pub fn crash_during_recovery() -> Self {
        FaultProfile {
            max_recrash_cycles: 2,
            ..FaultProfile::default()
        }
    }
}

/// A deterministic, fully resolved fault schedule.
///
/// Generation draws only from the supplied RNG, so equal seeds give
/// equal plans, and every crash has a restart (and every cut a heal)
/// before the plan's horizon — scenarios may audit final state
/// unconditionally after running past it.
///
/// ```rust
/// use tca_sim::{FaultPlan, FaultProfile, Sim, SimDuration, SimRng};
///
/// let mut sim = Sim::with_seed(7);
/// let stable = sim.add_node();
/// let flaky = sim.add_node();
///
/// let mut rng = SimRng::new(7);
/// let plan = FaultPlan::generate(&mut rng, &FaultProfile::default(), 1);
/// plan.apply(&mut sim, &[flaky], &[stable, flaky]);
///
/// sim.run_for(plan.horizon + SimDuration::from_millis(100));
/// assert!(sim.node_up(flaky), "resolved plans restart every crashed node");
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Scheduled fault events (times are absolute virtual times).
    pub events: Vec<FaultEvent>,
    /// Ambient cross-node drop probability for the whole run.
    pub drop_prob: f64,
    /// Ambient cross-node duplication probability for the whole run.
    pub dup_prob: f64,
    /// All faults are resolved (restarted/healed) by this time.
    pub horizon: SimDuration,
}

/// Minimum outage (crash-to-restart / cut-to-heal) duration.
const MIN_OUTAGE: SimDuration = SimDuration::from_millis(10);
/// Maximum outage duration.
const MAX_OUTAGE: SimDuration = SimDuration::from_millis(80);
/// How soon after a restart the second crash of a recrash cycle must
/// land (the "recovery window" under attack).
const RECRASH_GRACE: SimDuration = SimDuration::from_millis(15);

impl FaultPlan {
    /// The benign plan: no faults at all (the clean-network baseline every
    /// sweep should include so a broken *scenario* is caught immediately).
    pub fn benign(horizon: SimDuration) -> Self {
        FaultPlan {
            events: Vec::new(),
            drop_prob: 0.0,
            dup_prob: 0.0,
            horizon,
        }
    }

    /// True for a plan that injects nothing: no scheduled event and no
    /// ambient loss or duplication. Scenarios require full progress (every
    /// request commits) only under such a plan.
    pub fn is_benign(&self) -> bool {
        self.events.is_empty() && self.drop_prob == 0.0 && self.dup_prob == 0.0
    }

    /// Generate a random plan within `profile` bounds. Generation draws
    /// only from `rng`, so equal seeds give equal plans.
    pub fn generate(rng: &mut SimRng, profile: &FaultProfile, n_crashable: usize) -> Self {
        let horizon_ns = profile.horizon.as_nanos();
        let outage = |rng: &mut SimRng| rng.range(MIN_OUTAGE.as_nanos(), MAX_OUTAGE.as_nanos());
        let mut events = Vec::new();
        let drop_prob = rng.unit() * profile.max_drop_prob;
        let dup_prob = rng.unit() * profile.max_dup_prob;
        if n_crashable > 0 && profile.max_crash_cycles > 0 {
            let cycles = rng.index(profile.max_crash_cycles as usize + 1);
            for _ in 0..cycles {
                let node = rng.index(n_crashable);
                let dur = outage(rng);
                let latest_start = horizon_ns.saturating_sub(dur).max(1);
                let at = rng.range(0, latest_start);
                events.push(FaultEvent::Crash {
                    node,
                    at: SimDuration::from_nanos(at),
                });
                events.push(FaultEvent::Restart {
                    node,
                    at: SimDuration::from_nanos(at + dur),
                });
            }
        }
        if n_crashable > 0 && profile.max_recrash_cycles > 0 {
            // Crash-during-recovery: crash → restart → second crash while
            // the node is still replaying durable state → second restart.
            // All four events land at or before the horizon so plans stay
            // resolved. The gap draw starts at 1 ns so the second crash
            // strictly follows the restart (same-instant orderings are the
            // model checker's job, not the sweep's).
            let cycles = rng.index(profile.max_recrash_cycles as usize + 1);
            for _ in 0..cycles {
                let node = rng.index(n_crashable);
                let first = outage(rng);
                let gap = rng.range(1, RECRASH_GRACE.as_nanos());
                let second = outage(rng);
                let span = first + gap + second;
                let latest_start = horizon_ns.saturating_sub(span).max(1);
                let at = rng.range(0, latest_start);
                for (offset, restart) in [
                    (0, false),
                    (first, true),
                    (first + gap, false),
                    (span, true),
                ] {
                    let event_at = SimDuration::from_nanos(at + offset);
                    events.push(if restart {
                        FaultEvent::Restart { node, at: event_at }
                    } else {
                        FaultEvent::Crash { node, at: event_at }
                    });
                }
            }
        }
        if profile.max_partition_windows > 0 {
            let windows = rng.index(profile.max_partition_windows as usize + 1);
            // Sequential windows so one Heal (which heals everything)
            // cannot prematurely end a later window.
            let mut t = rng.range(0, horizon_ns / 2 + 1);
            for _ in 0..windows {
                let dur = outage(rng);
                if t + dur >= horizon_ns {
                    break;
                }
                events.push(FaultEvent::Partition {
                    // The isolated side is a single node index (taken
                    // modulo the partitionable list length at apply time);
                    // a fixed draw bound keeps plans platform-independent.
                    cut: vec![rng.index(64)],
                    at: SimDuration::from_nanos(t),
                });
                events.push(FaultEvent::Heal {
                    at: SimDuration::from_nanos(t + dur),
                });
                t += dur + outage(rng);
            }
        }
        FaultPlan {
            events,
            drop_prob,
            dup_prob,
            horizon: profile.horizon,
        }
    }

    /// Schedule this plan onto a simulation. `crashable` nodes are subject
    /// to crash/restart events; `partitionable` nodes to partition
    /// windows. Ambient loss/duplication is installed immediately on the
    /// network config (latencies are left as configured).
    pub fn apply(&self, sim: &mut Sim, crashable: &[NodeId], partitionable: &[NodeId]) {
        {
            let network = sim.network_mut();
            let mut config = network.config().clone();
            config.drop_prob = self.drop_prob;
            config.dup_prob = self.dup_prob;
            network.set_config(config);
        }
        for event in &self.events {
            match event {
                FaultEvent::Crash { node, at } => {
                    if !crashable.is_empty() {
                        sim.schedule_crash(SimTime::ZERO + *at, crashable[node % crashable.len()]);
                    }
                }
                FaultEvent::Restart { node, at } => {
                    if !crashable.is_empty() {
                        sim.schedule_restart(
                            SimTime::ZERO + *at,
                            crashable[node % crashable.len()],
                        );
                    }
                }
                FaultEvent::Partition { cut, at } => {
                    if partitionable.len() < 2 {
                        continue;
                    }
                    let isolated: Vec<NodeId> = cut
                        .iter()
                        .map(|&i| partitionable[i % partitionable.len()])
                        .collect();
                    let rest: Vec<NodeId> = partitionable
                        .iter()
                        .copied()
                        .filter(|n| !isolated.contains(n))
                        .collect();
                    if !rest.is_empty() {
                        sim.schedule_partition(SimTime::ZERO + *at, isolated, rest);
                    }
                }
                FaultEvent::Heal { at } => sim.schedule_heal(SimTime::ZERO + *at),
            }
        }
    }

    /// Compact one-line description for failure messages.
    pub fn describe(&self) -> String {
        let mut parts = vec![format!(
            "drop={:.3} dup={:.3}",
            self.drop_prob, self.dup_prob
        )];
        for event in &self.events {
            parts.push(match event {
                FaultEvent::Crash { node, at } => format!("crash#{node}@{at}"),
                FaultEvent::Restart { node, at } => format!("restart#{node}@{at}"),
                FaultEvent::Partition { cut, at } => format!("cut{cut:?}@{at}"),
                FaultEvent::Heal { at } => format!("heal@{at}"),
            });
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_plan_that_injects_nothing_is_benign() {
        let benign = FaultPlan::benign(SimDuration::from_millis(400));
        assert!(benign.is_benign());
        // Ambient duplication alone is a fault: it is what exactly-once
        // audits exist to catch.
        let dup_only = FaultPlan {
            dup_prob: 0.01,
            ..benign.clone()
        };
        assert!(!dup_only.is_benign());
        let drop_only = FaultPlan {
            drop_prob: 0.01,
            ..benign.clone()
        };
        assert!(!drop_only.is_benign());
        let heal_only = FaultPlan {
            events: vec![FaultEvent::Heal {
                at: SimDuration::from_millis(1),
            }],
            ..benign
        };
        assert!(!heal_only.is_benign());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let profile = FaultProfile::default();
        let a = FaultPlan::generate(&mut SimRng::new(9), &profile, 3);
        let b = FaultPlan::generate(&mut SimRng::new(9), &profile, 3);
        assert_eq!(a.events, b.events);
        assert_eq!(a.drop_prob, b.drop_prob);
        let c = FaultPlan::generate(&mut SimRng::new(10), &profile, 3);
        assert!(a.events != c.events || a.drop_prob != c.drop_prob);
    }

    #[test]
    fn recrash_off_by_default_leaves_generation_untouched() {
        // The knob must be additive: with `max_recrash_cycles == 0` no
        // extra RNG draws happen, so pre-existing profiles keep producing
        // byte-identical plans (the determinism gate depends on this).
        assert_eq!(FaultProfile::default().max_recrash_cycles, 0);
        for seed in 0..50 {
            let base = FaultPlan::generate(&mut SimRng::new(seed), &FaultProfile::default(), 3);
            let explicit = FaultPlan::generate(
                &mut SimRng::new(seed),
                &FaultProfile {
                    max_recrash_cycles: 0,
                    ..FaultProfile::crash_during_recovery()
                },
                3,
            );
            assert_eq!(base.events, explicit.events);
            assert_eq!(base.drop_prob, explicit.drop_prob);
            assert_eq!(base.dup_prob, explicit.dup_prob);
        }
    }

    #[test]
    fn crash_during_recovery_recrashes_within_the_grace_window() {
        let profile = FaultProfile::crash_during_recovery();
        let mut saw_recrash = false;
        for seed in 0..200 {
            let plan = FaultPlan::generate(&mut SimRng::new(seed), &profile, 4);
            // Wherever a restart is immediately followed (in generation
            // order, same node) by another crash, that crash must land
            // inside the recovery grace window.
            for pair in plan.events.windows(2) {
                if let [FaultEvent::Restart { node: r, at: up }, FaultEvent::Crash { node: c, at: down }] =
                    pair
                {
                    if r == c && *down > *up && *down - *up <= RECRASH_GRACE {
                        saw_recrash = true;
                    }
                }
            }
        }
        assert!(
            saw_recrash,
            "200 seeds must produce at least one crash-during-recovery cycle"
        );
    }

    #[test]
    fn every_crash_has_a_matching_restart_before_horizon() {
        for profile in [
            FaultProfile::default(),
            FaultProfile::crash_during_recovery(),
        ] {
            for seed in 0..200 {
                let plan = FaultPlan::generate(&mut SimRng::new(seed), &profile, 4);
                let mut down: Vec<usize> = Vec::new();
                let mut cut = false;
                for event in &plan.events {
                    match event {
                        FaultEvent::Crash { node, at } => {
                            assert!(*at < plan.horizon);
                            down.push(*node);
                        }
                        FaultEvent::Restart { node, at } => {
                            assert!(*at <= plan.horizon);
                            let pos = down.iter().position(|n| n == node).expect("crash first");
                            down.remove(pos);
                        }
                        FaultEvent::Partition { at, .. } => {
                            assert!(*at < plan.horizon);
                            cut = true;
                        }
                        FaultEvent::Heal { at } => {
                            assert!(*at <= plan.horizon);
                            cut = false;
                        }
                    }
                }
                assert!(down.is_empty(), "seed {seed}: unrestarted crash");
                assert!(!cut, "seed {seed}: unhealed partition");
            }
        }
    }

    #[test]
    fn benign_plan_changes_nothing() {
        let plan = FaultPlan::benign(SimDuration::from_millis(10));
        let mut sim = Sim::with_seed(1);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        plan.apply(&mut sim, &[n0], &[n0, n1]);
        sim.run_for(SimDuration::from_millis(20));
        assert!(sim.node_up(n0) && sim.node_up(n1));
        assert_eq!(sim.metrics().counter("fault.crashes"), 0);
    }

    #[test]
    fn apply_schedules_crash_and_restart() {
        let profile = FaultProfile {
            max_crash_cycles: 1,
            max_partition_windows: 0,
            max_drop_prob: 0.0,
            max_dup_prob: 0.0,
            ..FaultProfile::default()
        };
        // Find a seed whose plan contains a crash cycle.
        let plan = (0..64)
            .map(|s| FaultPlan::generate(&mut SimRng::new(s), &profile, 1))
            .find(|p| !p.events.is_empty())
            .expect("some plan crashes");
        let mut sim = Sim::with_seed(2);
        let n0 = sim.add_node();
        plan.apply(&mut sim, &[n0], &[]);
        sim.run_for(plan.horizon + SimDuration::from_millis(1));
        assert_eq!(sim.metrics().counter("fault.crashes"), 1);
        assert_eq!(sim.metrics().counter("fault.restarts"), 1);
        assert!(sim.node_up(n0), "resolved plan leaves the node up");
    }

    #[test]
    fn describe_mentions_rates() {
        let plan = FaultPlan::benign(SimDuration::from_millis(1));
        assert!(plan.describe().contains("drop=0.000"));
    }
}
