//! The metric catalogue: names, units, bounds, and how each value is
//! derived from repetitions, counters, spans and isolated cells.

use tca_sim::SpanKind;

use crate::cells::Cells;
use crate::stats::{nearest_rank, quartiles};
use crate::workloads::{Rep, Workload};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// How far a metric may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline's median.
    Relative(f64),
    /// An absolute amount, in the metric's unit.
    Absolute(f64),
}

/// An end-to-end metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as later issues refer to it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
    /// `true` for simulated metrics (exact for a seed), `false` for host
    /// metrics (noisy).
    pub simulated: bool,
}

/// The seven end-to-end metrics.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        simulated: false,
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.10),
        simulated: false,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: Bound::Relative(0.05),
        simulated: false,
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.02),
        simulated: true,
    },
    EndToEnd {
        name: "sim_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.02),
        simulated: true,
    },
    EndToEnd {
        name: "sim_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.05),
        simulated: true,
    },
    EndToEnd {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        bound: Bound::Absolute(0.002),
        simulated: true,
    },
];

/// The end-to-end metrics defined on all eight workloads and never zero:
/// what `BENCHMARK.json` lists under `end_to_end`. The four simulated ones
/// are undefined on `mc-explore` / `experiments-suite` (and `failed_share`
/// is 0 almost everywhere), so the driver sees them under `per_layer`.
pub const DRIVER_END_TO_END: [&str; 3] = ["setup_s", "host_ops_per_s", "peak_heap_mb"];

/// One reported value with its spread over the timed repetitions.
#[derive(Debug, Clone)]
pub struct Stat {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: the median over repetitions.
    pub value: f64,
    /// First quartile over repetitions.
    pub q1: f64,
    /// Third quartile over repetitions.
    pub q3: f64,
    /// Repetitions (host metrics) or latency samples (`sim_p*`).
    pub n: usize,
}

fn stat(def: &EndToEnd, per_rep: &[f64]) -> Stat {
    let (q1, value, q3) = quartiles(per_rep);
    Stat {
        name: def.name,
        unit: def.unit,
        value,
        q1,
        q3,
        n: per_rep.len(),
    }
}

/// Host nanoseconds one repetition's run takes when nothing else disturbs
/// the host: the sum over slices of the slice's *fastest* time over the
/// repetitions. Every repetition of a seed does the same work slice by
/// slice, so a slice's true cost is its minimum and everything above it is
/// interference. The sandbox's interference slows a run by 20–90 % for
/// seconds to a minute at a time and in a bad quarter hour covers most of
/// it: whole-repetition times of identical work then scatter by ±25 % and
/// so do their medians, while the slice-wise minimum narrows with every
/// further repetition (measured: see the README's noise tables).
fn steady_run_ns(reps: &[&Rep]) -> Option<f64> {
    let slices = reps.first()?.slices_ns.len();
    if slices == 0 || reps.iter().any(|r| r.slices_ns.len() != slices) {
        return None;
    }
    let total: u64 = (0..slices)
        .map(|k| reps.iter().map(|r| r.slices_ns[k]).min().expect("a rep"))
        .sum();
    Some(total as f64)
}

/// The end-to-end metrics of one workload's timed repetitions. A workload
/// omits the metrics that are undefined for it. The warm-up repetition did
/// the same work, so its slices join the slice-wise minimum (a slow first
/// repetition cannot raise it); nothing else of it is reported. `build_s`
/// is the time `run.sh` spent in cargo's up-to-date check.
pub fn end_to_end(reps: &[Rep], warmup: Option<&Rep>, build_s: f64) -> Vec<Stat> {
    let first = &reps[0];
    let mut out = Vec::new();
    for def in &END_TO_END {
        let per_rep: Vec<f64> = match def.name {
            "setup_s" => {
                // The fastest set-up, for the reason `steady_run_ns` gives.
                let per_rep: Vec<f64> = reps
                    .iter()
                    .map(|r| build_s + r.setup_ns as f64 / 1e9)
                    .collect();
                let mut s = stat(def, &per_rep);
                s.value = per_rep.iter().copied().fold(f64::INFINITY, f64::min);
                out.push(s);
                continue;
            }
            "host_ops_per_s" => {
                let per_rep: Vec<f64> = reps
                    .iter()
                    .map(|r| r.committed as f64 / (r.run_ns as f64 / 1e9))
                    .collect();
                let mut s = stat(def, &per_rep);
                let all: Vec<&Rep> = reps.iter().chain(warmup).collect();
                if let Some(ns) = steady_run_ns(&all) {
                    s.value = first.committed as f64 / (ns / 1e9);
                    // How much the estimate leans on any one repetition:
                    // the quartiles of the leave-one-out estimates.
                    if all.len() >= 3 {
                        let without: Vec<f64> = (0..all.len())
                            .map(|skip| {
                                let mut rest = all.clone();
                                rest.remove(skip);
                                let ns = steady_run_ns(&rest).expect("same slices");
                                first.committed as f64 / (ns / 1e9)
                            })
                            .collect();
                        (s.q1, _, s.q3) = quartiles(&without);
                    }
                }
                out.push(s);
                continue;
            }
            "peak_heap_mb" => reps
                .iter()
                .map(|r| r.peak_heap as f64 / (1u64 << 20) as f64)
                .collect(),
            "failed_share" => reps
                .iter()
                .map(|r| (r.attempted - r.committed) as f64 / r.attempted as f64)
                .collect(),
            _ => {
                // Simulated: every repetition of a seed is identical (the
                // digest check enforces it), so the first one speaks.
                let Some(sim) = &first.sim else { continue };
                let value = match def.name {
                    "sim_ops_per_s" => first.committed as f64 / (sim.sim_ns as f64 / 1e9),
                    _ if sim.latencies_ns.is_empty() => continue,
                    "sim_p50_ms" => nearest_rank(&sim.latencies_ns, 0.5) as f64 / 1e6,
                    "sim_p99_ms" => nearest_rank(&sim.latencies_ns, 0.99) as f64 / 1e6,
                    other => unreachable!("unknown end-to-end metric {other}"),
                };
                let mut s = stat(def, &[value]);
                if def.name.starts_with("sim_p") {
                    s.n = sim.latencies_ns.len();
                }
                out.push(s);
                continue;
            }
        };
        out.push(stat(def, &per_rep));
    }
    out
}

/// One per-layer value.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// `<crate>.<module>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value; 0 where the layer does no work on this workload.
    pub value: f64,
}

/// The spans whose median the traced run reports.
const SPAN_P50: [SpanKind; 7] = [
    SpanKind::NetHop,
    SpanKind::RpcCall,
    SpanKind::QueueWait,
    SpanKind::LockWait,
    SpanKind::TxnExecute,
    SpanKind::TxnPrepare,
    SpanKind::TxnDecide,
];

/// Every per-layer metric of one workload, in catalogue order: the
/// simulated end-to-end metrics first (0 where undefined), then the
/// layers. `untraced` and `traced` are the same repetition without and
/// with the simulator's tracer; `overhead` is their host-time ratio.
pub fn per_layer(
    workload: Workload,
    cells: &Cells,
    untraced: &Rep,
    traced: &Rep,
    overhead: f64,
) -> Vec<LayerMetric> {
    let rep = untraced;
    let ops = rep.committed.max(1) as f64;
    let per_op = |count: u64| count as f64 / ops;
    let events = rep.sim.as_ref().map_or(0, |s| s.events);
    let run_ns = rep.run_ns as f64;
    let mut out: Vec<LayerMetric> = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64| {
        out.push(LayerMetric {
            name: name.to_owned(),
            unit,
            value,
        });
    };

    // The simulated end-to-end metrics, demoted to this list for the driver.
    let e2e = end_to_end(std::slice::from_ref(rep), None, 0.0);
    for def in END_TO_END.iter().filter(|d| d.simulated) {
        let value = e2e
            .iter()
            .find(|s| s.name == def.name)
            .map_or(0.0, |s| s.value);
        push(def.name, def.unit, value);
    }

    // ----- sim -----
    push(
        "sim.queue.push_pop_ns",
        "ns",
        cells.get("sim.queue.push_pop_ns"),
    );
    push(
        "sim.kernel.lean_ns_per_event",
        "ns",
        cells.get("sim.kernel.lean_ns_per_event"),
    );
    push(
        "sim.kernel.ns_per_event",
        "ns",
        if events > 0 {
            run_ns / events as f64
        } else {
            0.0
        },
    );
    push("sim.kernel.events_per_op", "count", per_op(events));
    push(
        "sim.network.sent_per_op",
        "count",
        per_op(rep.counter("net.sent")),
    );
    push(
        "sim.network.dropped_per_op",
        "count",
        per_op(rep.counter("net.dropped")),
    );
    push(
        "sim.network.duplicated_per_op",
        "count",
        per_op(rep.counter("net.duplicated")),
    );
    for name in [
        "sim.rng.next_u64_ns",
        "sim.rng.zipf_sample_ns",
        "sim.payload.new_downcast_ns",
        "sim.metrics.incr_ns",
        "sim.metrics.incr_fast_ns",
        "sim.metrics.record_ns",
        "sim.place.ring_lookup_ns",
    ] {
        push(name, "ns", cells.get(name));
    }
    push("sim.trace.overhead_ratio", "ratio", overhead);
    let trace = traced.trace.clone().unwrap_or_default();
    push("sim.trace.spans", "count", trace.spans as f64);
    for kind in SPAN_P50 {
        let p50 = trace
            .p50_ns
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |(_, ns)| *ns as f64 / 1e3);
        push(&format!("sim.trace.{}_p50_us", kind.name()), "us", p50);
    }
    let mc = rep.mc.unwrap_or_default();
    push("sim.mc.states", "count", mc.states as f64);
    push("sim.mc.pruned_sleep", "count", mc.pruned_sleep as f64);
    push("sim.mc.pruned_visited", "count", mc.pruned_visited as f64);
    push("sim.mc.depth_cap_hits", "count", mc.depth_cap_hits as f64);
    push(
        "sim.mc.ns_per_state",
        "ns",
        if mc.states > 0 {
            run_ns / mc.states as f64
        } else {
            0.0
        },
    );

    // ----- allocator -----
    push("alloc.count_per_op", "count", per_op(rep.allocs));
    push("alloc.bytes_per_op", "B", per_op(rep.alloc_bytes));

    // ----- storage -----
    for name in [
        "storage.mvcc.install_ns",
        "storage.mvcc.read_at_chain1_ns",
        "storage.mvcc.read_at_chain64_ns",
        "storage.mvcc.gc_ns",
        "storage.wal.append_ns",
        "storage.locks.acquire_release_ns",
        "storage.engine.commit_si_ns",
        "storage.engine.commit_ser_ns",
        "storage.proc.run_rmw_ns",
        "storage.server.ns_per_call",
    ] {
        push(name, "ns", cells.get(name));
    }
    // `DbServer` shards of the ycsb fleet are named `ycsb-s{i}`.
    let server = |suffix: &str| -> u64 {
        rep.counters
            .iter()
            .filter(|(n, _)| n.starts_with("ycsb-s") && n.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    push(
        "storage.server.aborts_per_op",
        "count",
        per_op(server(".aborts")),
    );
    push(
        "storage.server.lock_waits_per_op",
        "count",
        per_op(server(".lock_waits")),
    );
    push(
        "storage.server.shed_per_op",
        "count",
        per_op(server(".shed")),
    );
    push(
        "storage.server.deduped_per_op",
        "count",
        per_op(server(".deduped")),
    );
    push(
        "storage.router.ns_per_forward",
        "ns",
        cells.get("storage.router.ns_per_forward"),
    );
    push(
        "storage.router.forwarded_per_op",
        "count",
        per_op(rep.counter("ycsb-router.forwarded")),
    );
    let shard_calls: Vec<u64> = rep
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("ycsb-s") && n.ends_with(".calls_ok"))
        .map(|(_, v)| *v)
        .collect();
    let total_calls: u64 = shard_calls.iter().sum();
    push(
        "storage.router.hot_shard_share",
        "share",
        shard_calls
            .iter()
            .max()
            .map_or(0.0, |&hot| hot as f64 / total_calls.max(1) as f64),
    );
    push(
        "storage.idempotence.check_record_ns",
        "ns",
        cells.get("storage.idempotence.check_record_ns"),
    );
    push(
        "storage.idempotence.gc_ns",
        "ns",
        cells.get("storage.idempotence.gc_ns"),
    );

    // ----- messaging -----
    push(
        "messaging.rpc.ns_per_roundtrip",
        "ns",
        cells.get("messaging.rpc.ns_per_roundtrip"),
    );
    push(
        "messaging.rpc.calls_per_op",
        "count",
        per_op(rep.counter("rpc.calls")),
    );
    push(
        "messaging.rpc.retries_per_op",
        "count",
        per_op(rep.counter("rpc.retries")),
    );
    push(
        "messaging.rpc.failures_per_op",
        "count",
        per_op(rep.counter("rpc.failures")),
    );
    push(
        "messaging.idempotency.check_record_ns",
        "ns",
        cells.get("messaging.idempotency.check_record_ns"),
    );
    push(
        "messaging.broker.ns_per_record",
        "ns",
        cells.get("messaging.broker.ns_per_record"),
    );

    // ----- txn -----
    push(
        "txn.twopc.ns_per_commit",
        "ns",
        cells.get("txn.twopc.ns_per_commit"),
    );
    push(
        "txn.twopc.events_per_commit",
        "count",
        cells.twopc_events_per_commit,
    );
    let (committed, aborted) = (rep.counter("dtx.committed"), rep.counter("dtx.aborted"));
    push(
        "txn.twopc.abort_share",
        "share",
        aborted as f64 / (committed + aborted).max(1) as f64,
    );
    push(
        "txn.twopc.prepare_resends_per_op",
        "count",
        per_op(rep.counter("dtx.prepare_resends")),
    );
    push(
        "txn.twopc.decision_resends_per_op",
        "count",
        per_op(rep.counter("dtx.decision_resends")),
    );
    push(
        "txn.twopc.presumed_aborts_per_op",
        "count",
        per_op(rep.counter("dtx.presumed_aborts")),
    );
    push(
        "txn.sharding.route_branches_ns",
        "ns",
        cells.get("txn.sharding.route_branches_ns"),
    );
    push(
        "txn.dataflow.ns_per_txn",
        "ns",
        cells.get("txn.dataflow.ns_per_txn"),
    );
    let epochs = rep.counter("df.epochs");
    push("txn.dataflow.epochs", "count", epochs as f64);
    push(
        "txn.dataflow.txns_per_epoch",
        "count",
        rep.counter("df.submitted") as f64 / epochs.max(1) as f64,
    );
    push(
        "txn.dataflow.share_reqs_per_op",
        "count",
        per_op(rep.counter("df.share_reqs")),
    );
    push(
        "txn.dataflow.resends_per_op",
        "count",
        per_op(rep.counter("df.resends")),
    );
    push(
        "txn.dataflow.checkpoints",
        "count",
        rep.counter("df.checkpoints") as f64,
    );
    push(
        "txn.workflow.ns_per_step",
        "ns",
        cells.get("txn.workflow.ns_per_step"),
    );
    for (name, counter) in [
        ("txn.workflow.step_retries_per_op", "workflow.step_retries"),
        (
            "txn.workflow.steps_deduped_per_op",
            "workflow.steps_deduped",
        ),
        (
            "txn.workflow.guard_recoveries_per_op",
            "workflow.guard_recoveries",
        ),
        (
            "txn.workflow.intent_writes_per_op",
            "workflow.intent_writes",
        ),
    ] {
        push(name, "count", per_op(rep.counter(counter)));
    }
    push(
        "txn.workflow.replays",
        "count",
        rep.counter("workflow.replays") as f64,
    );
    push(
        "txn.checker.serializability_ns_per_txn",
        "ns",
        cells.get("txn.checker.serializability_ns_per_txn"),
    );

    // ----- core / workloads / bench -----
    for cell in [
        "saga",
        "2pc",
        "actors",
        "actor-txn",
        "statefun",
        "deterministic",
    ] {
        let name = format!("core.cell.{cell}_ns_per_txn");
        push(&name, "ns", cells.get(&name));
    }
    push(
        "workloads.loadgen.ns_per_request",
        "ns",
        cells.get("workloads.loadgen.ns_per_request"),
    );
    push(
        "bench.kernel_bench.sharded_router_ns_per_event",
        "ns",
        cells.sharded_router.1,
    );

    // ----- attribution -----
    // Host time is single-threaded and uncontended, so a faster layer saves
    // at most its share: count × isolated cost ÷ the run's host time.
    let share = |count: u64, ns_each: f64| -> f64 {
        if run_ns > 0.0 {
            count as f64 * ns_each / run_ns
        } else {
            0.0
        }
    };
    let kernel = share(events, cells.get("sim.kernel.lean_ns_per_event"));
    // Engine work: stored-procedure calls on the ycsb fleet, branch commits
    // on 2PC participants (`bank{i}` and the workflow tier's `wfp{i}`).
    let branch_commits: u64 = rep
        .counters
        .iter()
        .filter(|(n, _)| (n.starts_with("bank") || n.starts_with("wfp")) && n.ends_with(".commits"))
        .map(|(_, v)| v)
        .sum();
    let engine = share(total_calls, cells.get("storage.proc.run_rmw_ns"))
        + share(branch_commits, cells.get("storage.engine.commit_ser_ns"));
    let loadgen = match workload {
        Workload::KernelStorm | Workload::McExplore | Workload::ExperimentsSuite => 0.0,
        _ => share(rep.attempted, cells.get("workloads.loadgen.ns_per_request")),
    };
    push("share.sim_kernel", "share", kernel);
    push("share.storage_engine", "share", engine);
    push("share.workloads_loadgen", "share", loadgen);
    push(
        "share.unattributed",
        "share",
        1.0 - kernel - engine - loadgen,
    );
    out
}

/// The names [`per_layer`] reports, in order (what `BENCHMARK.json` lists).
pub fn per_layer_names() -> Vec<String> {
    per_layer(
        Workload::KernelStorm,
        &Cells::default(),
        &Rep::default(),
        &Rep::default(),
        0.0,
    )
    .into_iter()
    .map(|m| m.name)
    .collect()
}
