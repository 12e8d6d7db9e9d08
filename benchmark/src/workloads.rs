//! The eight workloads: build a world, run it, audit it.
//!
//! Every size below is pinned at scale 1 and sized so one repetition takes
//! 0.5–3.5 s of host time on a 2-core box (`--scale` exists for the smoke
//! test only). The seed reaches the simulator's RNG and the request
//! generators, nothing else.

use std::cell::{Cell, RefCell};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

use tca_sim::mc::{explore, McConfig, McReport, McScenario};
use tca_sim::{
    NetworkConfig, NodeId, Payload, ProcessId, ShardMap, Sim, SimConfig, SimDuration, SimRng,
    SimTime, SpanKind,
};
use tca_storage::{DbMsg, DbRequest, DbServerConfig, ProcRegistry, Value};
use tca_txn::deterministic::DetRegistry;
use tca_txn::mc_scenarios::{
    actor_mc_scenario, saga_mc_scenario, twopc_late_execute_mutation_scenario, twopc_mc_scenario,
};
use tca_txn::workflow::{deploy_workflow, WorkflowConfig, WorkflowOutcome};
use tca_txn::{
    deploy_dataflow, route_branches, CoordinatorConfig, DataflowConfig, DfShard, DtxOutcome,
    ParticipantConfig, ShardOp, StartDtx, SubmitTxn, TwoPcCoordinator, TwoPcParticipant,
    TxnOutcome,
};
use tca_workloads::loadgen::{db_classifier, PairChooser, RequestFactory, ResponseClassifier};
use tca_workloads::ycsb::{self, YcsbSampler, YcsbScale, YcsbWorkload};
use tca_workloads::ChainWorkload;

use crate::alloc;
use crate::client::{LoadClient, Pacing, Samples, Shared};
use crate::spans::Spans;
use crate::stats::{nearest_rank, Fnv};

/// The benchmark's workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `kernel_bench::ping_pong` + `timer_storm`, run to quiescence.
    KernelStorm,
    /// YCSB-B, uniform, closed loop, through the shard router.
    YcsbRead,
    /// YCSB-A, Zipf 0.99, open loop at a fixed rate.
    YcsbHotWrite,
    /// Cross-shard bank transfers under 2PC.
    TwopcTransfer,
    /// The same transfer stream through the epoch-batched dataflow engine.
    DataflowTransfer,
    /// Workflow chains under crashes and message loss.
    WorkflowFaults,
    /// Four pinned model-checker configurations.
    McExplore,
    /// The root `experiments` binary as a child process.
    ExperimentsSuite,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 8] = [
        Workload::KernelStorm,
        Workload::YcsbRead,
        Workload::YcsbHotWrite,
        Workload::TwopcTransfer,
        Workload::DataflowTransfer,
        Workload::WorkflowFaults,
        Workload::McExplore,
        Workload::ExperimentsSuite,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order. The driver makes
    /// 22 runs of each inside one time limit, and on a noisy host only a
    /// long run is steady (see the README's noise tables): five workloads
    /// leave each run 25 s, eight would leave 11 s. The three left to
    /// `run.sh`'s full run and the smoke test are `ycsb-hot-write` (on host
    /// time it is `ycsb-read`'s fleet and cost over again; what it adds are
    /// exact simulated metrics), `workflow-faults` (its host path is
    /// `twopc-transfer`'s plus the workflow runtime; the noisiest of the
    /// eight) and `experiments-suite` (21 runs of a tenth of a second each:
    /// as a timing it resolves least per second spent, and its byte-for-byte
    /// output check applies at seed 42 only, which the driver does not use).
    pub const DRIVER: [Workload; 5] = [
        Workload::KernelStorm,
        Workload::YcsbRead,
        Workload::TwopcTransfer,
        Workload::DataflowTransfer,
        Workload::McExplore,
    ];

    /// The name used in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelStorm => "kernel-storm",
            Workload::YcsbRead => "ycsb-read",
            Workload::YcsbHotWrite => "ycsb-hot-write",
            Workload::TwopcTransfer => "twopc-transfer",
            Workload::DataflowTransfer => "dataflow-transfer",
            Workload::WorkflowFaults => "workflow-faults",
            Workload::McExplore => "mc-explore",
            Workload::ExperimentsSuite => "experiments-suite",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one "op" is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::KernelStorm => "kernel event",
            Workload::YcsbRead | Workload::YcsbHotWrite => "committed call",
            Workload::TwopcTransfer | Workload::DataflowTransfer => "committed transfer",
            Workload::WorkflowFaults => "completed workflow",
            Workload::McExplore => "verified configuration",
            Workload::ExperimentsSuite => "experiment",
        }
    }
}

// ----- pinned sizes (scale 1) ------------------------------------------------

/// `kernel-storm`: chunks, each one ping-pong world then one timer world.
pub const STORM_CHUNKS: u64 = 12;
/// Ping-pong pairs per chunk.
pub const STORM_PAIRS: usize = 64;
/// Round trips per ping-pong pair per chunk.
pub const STORM_ROUNDS: u32 = 5_000;
/// Timer-storm processes per chunk.
pub const STORM_TIMER_PROCS: usize = 64;
/// Firings per timer-storm process per chunk.
pub const STORM_TIMER_FIRINGS: u32 = 5_000;

/// `ycsb-*`: records loaded before the run: ≈ 100 MiB, 50 times the
/// baseline box's private L2. Not the 1 M of ISSUE 11: runs of the 410 MiB
/// fleet spread (IQR ÷ median over seeds) by 17–35 % where this one, in the
/// same minutes, spread by 6 % (README, *Noise*).
pub const YCSB_RECORDS: usize = 250_000;
/// `ycsb-*`: shards behind the router.
pub const YCSB_SHARDS: usize = 16;
/// `ycsb-*`: nodes the shards are spread over.
pub const YCSB_NODES: usize = 8;
/// `ycsb-read`: closed-loop clients.
pub const YCSB_READ_CLIENTS: usize = 128;
/// `ycsb-read`: calls per repetition.
pub const YCSB_READ_CALLS: u64 = 60_000;
/// `ycsb-hot-write`: Zipf skew.
pub const YCSB_HOT_THETA: f64 = 0.99;
/// `ycsb-hot-write`: mean gap between Poisson arrivals, nanoseconds — the
/// pinned offered rate, ≈ 50 % of the hottest shard's capacity.
pub const YCSB_HOT_INTERARRIVAL_NS: u64 = 30_000;
/// `ycsb-hot-write`: calls per repetition.
pub const YCSB_HOT_CALLS: u64 = 30_000;

/// Transfer workloads: accounts.
pub const TRANSFER_ACCOUNTS: usize = 4096;
/// Transfer workloads: Zipf skew of both ends of a pair.
pub const TRANSFER_THETA: f64 = 0.8;
/// Transfer workloads: shards (2PC participants / dataflow shards).
pub const TRANSFER_SHARDS: usize = 8;
/// Transfer workloads: closed-loop clients.
pub const TRANSFER_CLIENTS: usize = 64;
/// `twopc-transfer`: transfers per repetition.
pub const TWOPC_TRANSFERS: u64 = 150_000;
/// `dataflow-transfer`: transfers per repetition.
pub const DATAFLOW_TRANSFERS: u64 = 20_000;
/// Transfer workloads: starting balance (large, so no transfer ever fails
/// for lack of funds and only lock conflicts abort).
pub const TRANSFER_START: i64 = 1_000_000;

/// `workflow-faults`: hops per chain.
pub const WORKFLOW_HOPS: u32 = 4;
/// `workflow-faults`: chains kept in flight.
pub const WORKFLOW_IN_FLIGHT: usize = 32;
/// `workflow-faults`: chains per repetition.
pub const WORKFLOW_CHAINS: u64 = 10_000;
/// `workflow-faults`: message loss probability (duplication is half of it).
pub const WORKFLOW_LOSS: f64 = 0.05;
/// `workflow-faults`: one worker-node crash per this much simulated time.
pub const WORKFLOW_CRASH_PERIOD_MS: u64 = 2_000;
/// `workflow-faults`: how long a crashed worker node stays down.
pub const WORKFLOW_OUTAGE_MS: u64 = 60;

/// `experiments-suite`: the experiments run per repetition (E18 lives in
/// `mc-explore`).
pub const SUITE_EXPERIMENTS: [&str; 21] = [
    "f1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
    "e15", "e16", "e17", "e19", "e20", "e21",
];

/// Salt separating the transfer stream's RNG from the simulator's.
const STREAM_SALT: u64 = 0x7472_616e_7366_6572;

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

// ----- results ----------------------------------------------------------------

/// What the simulated clients observed in one repetition.
#[derive(Debug, Clone, Default)]
pub struct SimOutcome {
    /// Kernel events executed by the end of the timed run.
    pub events: u64,
    /// Simulated nanoseconds from first request to last completion.
    pub sim_ns: u64,
    /// Every request latency, nanoseconds, ascending (empty when the
    /// workload has no client).
    pub latencies_ns: Vec<u64>,
}

/// Exact span statistics from a traced repetition.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Spans recorded.
    pub spans: u64,
    /// Spans the tracer's bounded buffer turned away.
    pub dropped: u64,
    /// Median duration in nanoseconds per span kind that completed a span.
    pub p50_ns: Vec<(SpanKind, u64)>,
}

/// Model-checker totals over the explored configurations.
#[derive(Debug, Clone, Copy, Default)]
pub struct McTotals {
    /// States explored.
    pub states: u64,
    /// Subtrees cut by sleep sets.
    pub pruned_sleep: u64,
    /// States cut by the visited set.
    pub pruned_visited: u64,
    /// Leaves forced by the depth bound.
    pub depth_cap_hits: u64,
}

/// One repetition of one workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that committed (the numerator of every throughput).
    pub committed: u64,
    /// Ops that never got an answer; aborts and sheds are answers.
    pub lost: u64,
    /// Host nanoseconds building and loading the world.
    pub setup_ns: u64,
    /// Host wall nanoseconds of the timed run.
    pub run_ns: u64,
    /// On-CPU nanoseconds of the timed run (`/proc/self/schedstat`).
    pub cpu_ns: u64,
    /// Host nanoseconds of each slice of the timed run. Slice `k` of two
    /// repetitions of a seed did the same work, so a slice-wise minimum
    /// over repetitions filters out the host's slow moments (see `report`).
    pub slices_ns: Vec<u64>,
    /// Peak heap bytes above the level at the start of the repetition
    /// (`experiments-suite`: the child's `VmHWM`).
    pub peak_heap: u64,
    /// Allocations during the timed run.
    pub allocs: u64,
    /// Bytes requested during the timed run.
    pub alloc_bytes: u64,
    /// Simulated outcome; `None` for `mc-explore` and `experiments-suite`.
    pub sim: Option<SimOutcome>,
    /// Every simulator counter after the audit, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Model-checker totals (`mc-explore` only).
    pub mc: Option<McTotals>,
    /// Span statistics (traced repetitions only).
    pub trace: Option<TraceStats>,
    /// FNV-1a over everything exact above.
    pub digest: u64,
}

impl Rep {
    /// The counter called `name`, or 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// How one repetition is run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed for the simulator's RNG and the request generators.
    pub seed: u64,
    /// Multiplies request counts and keyspaces; 1 except in the smoke test.
    pub scale: f64,
    /// Turn the simulator's span tracer on.
    pub traced: bool,
    /// The repository root (for `experiments_output.txt`).
    pub repo_root: PathBuf,
    /// The built `experiments` binary.
    pub experiments_bin: PathBuf,
}

fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Wall, CPU and allocator deltas around `f`.
struct Timed {
    wall_ns: u64,
    cpu_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let heap = alloc::stats();
    let cpu = cpu_ns();
    let start = Instant::now();
    let value = f();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let after = alloc::stats();
    (
        value,
        Timed {
            wall_ns,
            cpu_ns: cpu_ns().saturating_sub(cpu),
            allocs: after.count - heap.count,
            alloc_bytes: after.bytes - heap.bytes,
        },
    )
}

/// Slices kept per repetition.
const MAX_SLICES: usize = 64;

/// Group `marks` (nanoseconds since the run began, taken after each of a
/// run's deterministic steps) into at most [`MAX_SLICES`] slice durations.
fn slices(marks: &[u64]) -> Vec<u64> {
    let count = marks.len().min(MAX_SLICES);
    let mut out = Vec::with_capacity(count);
    let mut before = 0;
    for j in 1..=count {
        let end = marks[j * marks.len() / count - 1];
        out.push(end - before);
        before = end;
    }
    out
}

/// Run one repetition of `workload`. `Err` means an output check failed.
pub fn run_rep(workload: Workload, opts: &RunOptions, spans: &mut Spans) -> Result<Rep, String> {
    alloc::reset_peak();
    let base = alloc::stats().live;
    let (rep, _) = spans.time(workload.name(), |spans| match workload {
        Workload::KernelStorm => kernel_storm(opts, spans),
        Workload::YcsbRead => client_rep(build_ycsb(opts, false, spans), opts, spans),
        Workload::YcsbHotWrite => client_rep(build_ycsb(opts, true, spans), opts, spans),
        Workload::TwopcTransfer => client_rep(build_twopc(opts, spans), opts, spans),
        Workload::DataflowTransfer => client_rep(build_dataflow(opts, spans), opts, spans),
        Workload::WorkflowFaults => client_rep(build_workflow(opts, spans), opts, spans),
        Workload::McExplore => mc_explore(&mc_cases(opts.scale), spans),
        Workload::ExperimentsSuite => experiments_suite(opts, spans),
    });
    let mut rep = rep?;
    if workload != Workload::ExperimentsSuite {
        rep.peak_heap = alloc::stats().peak.saturating_sub(base);
    }
    Ok(rep)
}

// ----- kernel-storm -----------------------------------------------------------

fn kernel_storm(opts: &RunOptions, spans: &mut Spans) -> Result<Rep, String> {
    use tca_bench::kernel_bench::{ping_pong, timer_storm};
    let rounds = scaled(STORM_ROUNDS as u64, opts.scale) as u32;
    let firings = scaled(STORM_TIMER_FIRINGS as u64, opts.scale) as u32;
    let mut marks = Vec::with_capacity(2 * STORM_CHUNKS as usize);
    let mut digest = Fnv::default();
    let (mut events, mut sim_ns) = (0, 0);
    let (ping_events, t) = timed(|| {
        let start = Instant::now();
        let mut ping_events = 0;
        // Each chunk is a fresh pair of worlds; the chunk number varies the
        // seed so the chunks are not one schedule twelve times over.
        for chunk in 0..STORM_CHUNKS {
            let seed = opts.seed.wrapping_add(chunk);
            let (ping, _) = spans.time("sim::kernel ping_pong", |_| {
                ping_pong(STORM_PAIRS, rounds, seed)
            });
            marks.push(start.elapsed().as_nanos() as u64);
            let (timers, _) = spans.time("sim::queue timer_storm", |_| {
                timer_storm(STORM_TIMER_PROCS, firings, seed)
            });
            marks.push(start.elapsed().as_nanos() as u64);
            ping_events += ping.events;
            events += ping.events + timers.events;
            sim_ns += ping.sim_ns + timers.sim_ns;
            for v in [ping.events, ping.sim_ns, timers.events, timers.sim_ns] {
                digest.u64(v);
            }
        }
        ping_events
    });
    if ping_events < 2 * STORM_CHUNKS * STORM_PAIRS as u64 * rounds as u64 {
        return Err(format!(
            "kernel-storm: ping_pong ran {ping_events} events, fewer than its round trips"
        ));
    }
    Ok(Rep {
        attempted: events,
        committed: events,
        run_ns: t.wall_ns,
        cpu_ns: t.cpu_ns,
        slices_ns: slices(&marks),
        allocs: t.allocs,
        alloc_bytes: t.alloc_bytes,
        sim: Some(SimOutcome {
            events,
            sim_ns,
            latencies_ns: Vec::new(),
        }),
        digest: digest.finish(),
        ..Rep::default()
    })
}

// ----- client-driven simulations ------------------------------------------------

type Audit = Box<dyn FnOnce(&Sim, &Samples) -> Result<(), String>>;

/// A world ready to run: the simulator, the client's samples, the audit.
struct Built {
    sim: Sim,
    samples: Shared,
    started_at: SimTime,
    setup_ns: u64,
    audit: Audit,
}

/// Virtual time allowed before a run counts as stalled.
const STALL_LIMIT: SimDuration = SimDuration::from_secs(3_600);
/// Virtual time given to in-flight protocol tails before the audit.
const SETTLE: SimDuration = SimDuration::from_secs(2);

fn new_sim(opts: &RunOptions, network: NetworkConfig) -> Sim {
    let mut sim = Sim::new(SimConfig {
        seed: opts.seed,
        network,
    });
    sim.set_tracing(opts.traced);
    sim
}

fn client_rep(built: Built, opts: &RunOptions, spans: &mut Spans) -> Result<Rep, String> {
    let Built {
        mut sim,
        samples,
        started_at,
        setup_ns,
        audit,
    } = built;
    let mut marks = Vec::new();
    let (stalled, t) = timed(|| {
        spans
            .time("run", |_| {
                let step = SimDuration::from_millis(1);
                let start = Instant::now();
                while samples.borrow().done_at.is_none() {
                    if sim.now().since(SimTime::ZERO) > STALL_LIMIT {
                        return true;
                    }
                    sim.run_for(step);
                    marks.push(start.elapsed().as_nanos() as u64);
                }
                false
            })
            .0
    });
    if stalled {
        let s = samples.borrow();
        return Err(format!(
            "stalled: {} of {} requests completed after {:?} of virtual time",
            s.completed(),
            s.issued,
            STALL_LIMIT
        ));
    }
    let events = sim.events_processed();
    let (checked, _) = spans.time("audit", |_| {
        sim.run_for(SETTLE);
        audit(&sim, &samples.borrow())
    });
    checked?;

    let samples = samples.borrow();
    let done_at = samples.done_at.expect("run ended on completion");
    let mut latencies_ns = samples.latencies_ns.clone();
    latencies_ns.sort_unstable();
    let counters: Vec<(String, u64)> = sim
        .metrics()
        .counters()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();

    let mut digest = Fnv::default();
    for v in [
        events,
        sim.events_processed(),
        sim.now().since(SimTime::ZERO).as_nanos(),
        done_at.since(started_at).as_nanos(),
        samples.ok,
        samples.rejected,
        samples.lost,
        nearest_rank(&latencies_ns, 0.5),
        nearest_rank(&latencies_ns, 0.99),
        latencies_ns.iter().sum(),
    ] {
        digest.u64(v);
    }
    for (name, value) in &counters {
        digest.bytes(name.as_bytes());
        digest.u64(*value);
    }

    let trace = opts.traced.then(|| trace_stats(&sim));
    Ok(Rep {
        attempted: samples.issued,
        committed: samples.ok,
        lost: samples.lost,
        setup_ns,
        run_ns: t.wall_ns,
        cpu_ns: t.cpu_ns,
        slices_ns: slices(&marks),
        allocs: t.allocs,
        alloc_bytes: t.alloc_bytes,
        sim: Some(SimOutcome {
            events,
            sim_ns: done_at.since(started_at).as_nanos(),
            latencies_ns,
        }),
        counters,
        trace,
        digest: digest.finish(),
        ..Rep::default()
    })
}

fn trace_stats(sim: &Sim) -> TraceStats {
    let tracer = sim.tracer();
    let mut p50_ns = Vec::new();
    for kind in SpanKind::ALL {
        let mut durations: Vec<u64> = tracer
            .spans_of_kind(kind)
            .filter(|s| s.end.is_some())
            .map(|s| s.duration().as_nanos())
            .collect();
        if !durations.is_empty() {
            durations.sort_unstable();
            p50_ns.push((kind, nearest_rank(&durations, 0.5)));
        }
    }
    TraceStats {
        spans: tracer.spans().len() as u64,
        dropped: tracer.dropped(),
        p50_ns,
    }
}

fn spawn_client(
    sim: &mut Sim,
    node: NodeId,
    target: ProcessId,
    request: RequestFactory,
    classify: ResponseClassifier,
    pacing: Pacing,
    limit: u64,
) -> Shared {
    let (factory, samples) = LoadClient::factory(target, request, classify, pacing, limit);
    sim.spawn(node, "load", factory);
    samples
}

// ----- ycsb-read / ycsb-hot-write -------------------------------------------------

fn build_ycsb(opts: &RunOptions, hot_write: bool, spans: &mut Spans) -> Built {
    let records = scaled(YCSB_RECORDS as u64, opts.scale).max(1_000) as usize;
    let (workload, theta, calls) = if hot_write {
        (YcsbWorkload::A, YCSB_HOT_THETA, YCSB_HOT_CALLS)
    } else {
        (YcsbWorkload::B, 0.0, YCSB_READ_CALLS)
    };
    let limit = scaled(calls, opts.scale);
    let scale = YcsbScale { records, theta };

    let ((sim, samples, started_at), setup_ns) = spans.time("setup", |spans| {
        let mut sim = new_sim(opts, NetworkConfig::default());
        let (router, load_node) = spans
            .time("storage::router deploy_sharded_db", |_| {
                let nodes = sim.add_nodes(YCSB_NODES);
                let load_node = sim.add_node();
                let (router, _) = tca_storage::deploy_sharded_db(
                    &mut sim,
                    &nodes,
                    "ycsb",
                    DbServerConfig::default(),
                    ycsb::registry,
                    YCSB_SHARDS,
                );
                (router, load_node)
            })
            .0;
        spans.time("storage::server load", |_| {
            sim.inject(
                router,
                Payload::new(DbMsg {
                    token: 0,
                    req: DbRequest::Load {
                        pairs: ycsb::seed(&scale),
                    },
                }),
            );
            sim.run_to_quiescence(1_000_000);
        });
        let samples = spans
            .time("workloads::ycsb sampler", |_| {
                let sampler = RefCell::new(YcsbSampler::new(workload, &scale));
                let request: RequestFactory = Rc::new(move |rng| {
                    let (proc, args) = sampler.borrow_mut().next_txn(rng);
                    Payload::new(DbMsg {
                        token: 0,
                        req: DbRequest::Call { proc, args },
                    })
                });
                let pacing = if hot_write {
                    Pacing::Open {
                        mean_interarrival: SimDuration::from_nanos(YCSB_HOT_INTERARRIVAL_NS),
                    }
                } else {
                    Pacing::Closed {
                        clients: YCSB_READ_CLIENTS,
                    }
                };
                spawn_client(
                    &mut sim,
                    load_node,
                    router,
                    request,
                    db_classifier(),
                    pacing,
                    limit,
                )
            })
            .0;
        let started_at = sim.now();
        (sim, samples, started_at)
    });

    let audit: Audit = Box::new(move |sim, samples| {
        let executed: u64 = (0..YCSB_SHARDS)
            .map(|i| sim.metrics().counter(&format!("ycsb-s{i}.calls_ok")))
            .sum();
        if samples.ok != executed {
            return Err(format!(
                "ycsb: clients saw {} committed calls, shards executed {executed}",
                samples.ok
            ));
        }
        Ok(())
    });
    Built {
        sim,
        samples,
        started_at,
        setup_ns,
        audit,
    }
}

// ----- twopc-transfer / dataflow-transfer -----------------------------------------

fn transfer_accounts(opts: &RunOptions) -> usize {
    scaled(TRANSFER_ACCOUNTS as u64, opts.scale).max(64) as usize
}

fn account(i: usize) -> String {
    format!("acct{i:04}")
}

/// The transfer stream both engines are fed: its own RNG, so the two
/// workloads see the same pairs whatever else draws from the simulator's.
fn transfer_pairs(opts: &RunOptions) -> impl Fn() -> (String, String) {
    let accounts = transfer_accounts(opts);
    let chooser = PairChooser::zipfian(accounts, TRANSFER_THETA);
    let rng = RefCell::new(SimRng::new(opts.seed ^ STREAM_SALT));
    move || {
        let (from, to) = chooser.pick(&mut rng.borrow_mut());
        (account(from), account(to))
    }
}

fn bank_registry() -> ProcRegistry {
    let balance = |tx: &mut tca_storage::TxHandle, key: &str| {
        tx.get(key).map_or(TRANSFER_START, |v| v.as_int())
    };
    ProcRegistry::new()
        .with("debit", move |tx, args| {
            let (key, amount) = (args[0].as_str().to_owned(), args[1].as_int());
            let have = balance(tx, &key);
            if have < amount {
                return Err("insufficient".into());
            }
            tx.put(&key, Value::Int(have - amount));
            Ok(vec![])
        })
        .with("credit", move |tx, args| {
            let (key, amount) = (args[0].as_str().to_owned(), args[1].as_int());
            let have = balance(tx, &key);
            tx.put(&key, Value::Int(have + amount));
            Ok(vec![])
        })
}

fn conserved(
    what: &str,
    accounts: usize,
    peek: impl Fn(&str) -> Option<i64>,
) -> Result<(), String> {
    let total: i64 = (0..accounts)
        .map(|i| peek(&account(i)).unwrap_or(TRANSFER_START))
        .sum();
    let expected = accounts as i64 * TRANSFER_START;
    if total == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: money not conserved: {total} != {expected}"
        ))
    }
}

fn build_twopc(opts: &RunOptions, spans: &mut Spans) -> Built {
    let limit = scaled(TWOPC_TRANSFERS, opts.scale);
    let accounts = transfer_accounts(opts);
    let ((sim, samples, participants), setup_ns) = spans.time("setup", |spans| {
        let mut sim = new_sim(opts, NetworkConfig::default());
        let (participants, coordinator, load_node) = spans
            .time("txn::twopc deploy", |_| {
                let nodes = sim.add_nodes(TRANSFER_SHARDS);
                let coord_node = sim.add_node();
                let load_node = sim.add_node();
                let participants: Vec<ProcessId> = nodes
                    .iter()
                    .enumerate()
                    .map(|(i, &node)| {
                        sim.spawn(
                            node,
                            format!("bank{i}"),
                            TwoPcParticipant::factory_seeded(
                                format!("bank{i}"),
                                ParticipantConfig::default(),
                                bank_registry(),
                                Vec::new(),
                            ),
                        )
                    })
                    .collect();
                let coordinator = sim.spawn(
                    coord_node,
                    "coord",
                    TwoPcCoordinator::factory_with(CoordinatorConfig::default()),
                );
                (participants, coordinator, load_node)
            })
            .0;
        let map = ShardMap::ring(TRANSFER_SHARDS);
        let pairs = transfer_pairs(opts);
        let fleet = participants.clone();
        let request: RequestFactory = Rc::new(move |_| {
            let (from, to) = pairs();
            let ops: Vec<ShardOp> = vec![
                (
                    from.clone(),
                    "debit".into(),
                    vec![Value::Str(from), Value::Int(1)],
                ),
                (
                    to.clone(),
                    "credit".into(),
                    vec![Value::Str(to), Value::Int(1)],
                ),
            ];
            Payload::new(StartDtx {
                branches: route_branches(&map, &fleet, &ops),
            })
        });
        let classify: ResponseClassifier = Rc::new(|payload| {
            payload
                .downcast_ref::<DtxOutcome>()
                .is_some_and(|o| o.committed)
        });
        let samples = spawn_client(
            &mut sim,
            load_node,
            coordinator,
            request,
            classify,
            Pacing::Closed {
                clients: TRANSFER_CLIENTS,
            },
            limit,
        );
        (sim, samples, participants)
    });
    let started_at = sim.now();
    let audit: Audit = Box::new(move |sim, _| {
        let map = ShardMap::ring(TRANSFER_SHARDS);
        conserved("twopc-transfer", accounts, |key| {
            sim.inspect::<TwoPcParticipant>(participants[map.owner(key)])
                .and_then(|p| p.engine().peek(key))
                .map(|v| v.as_int())
        })?;
        let in_doubt: usize = participants
            .iter()
            .filter_map(|&p| sim.inspect::<TwoPcParticipant>(p))
            .map(TwoPcParticipant::in_doubt)
            .sum();
        if in_doubt != 0 {
            return Err(format!(
                "twopc-transfer: {in_doubt} branches still in doubt"
            ));
        }
        Ok(())
    });
    Built {
        sim,
        samples,
        started_at,
        setup_ns,
        audit,
    }
}

fn transfer_registry() -> DetRegistry {
    DetRegistry::new().with("transfer", |args, reads| {
        let (from, to, amount) = (args[0].as_str(), args[1].as_str(), args[2].as_int());
        let balance = |key: &str| match reads.get(key) {
            Some(Value::Int(v)) => *v,
            _ => TRANSFER_START,
        };
        if balance(from) < amount {
            return Err("insufficient".into());
        }
        Ok(vec![
            (from.to_owned(), Value::Int(balance(from) - amount)),
            (to.to_owned(), Value::Int(balance(to) + amount)),
        ])
    })
}

fn build_dataflow(opts: &RunOptions, spans: &mut Spans) -> Built {
    let limit = scaled(DATAFLOW_TRANSFERS, opts.scale);
    let accounts = transfer_accounts(opts);
    let ((sim, samples, shards), setup_ns) = spans.time("setup", |spans| {
        let mut sim = new_sim(opts, NetworkConfig::default());
        let (sequencer, shards, load_node) = spans
            .time("txn::dataflow deploy_dataflow", |_| {
                let nodes = sim.add_nodes(TRANSFER_SHARDS);
                let seq_node = sim.add_node();
                let load_node = sim.add_node();
                let (sequencer, shards) = deploy_dataflow(
                    &mut sim,
                    seq_node,
                    &nodes,
                    &transfer_registry(),
                    TRANSFER_SHARDS,
                    DataflowConfig::default(),
                );
                (sequencer, shards, load_node)
            })
            .0;
        let pairs = transfer_pairs(opts);
        let request: RequestFactory = Rc::new(move |_| {
            let (from, to) = pairs();
            Payload::new(SubmitTxn {
                proc: "transfer".into(),
                args: vec![
                    Value::Str(from.clone()),
                    Value::Str(to.clone()),
                    Value::Int(1),
                ],
                read_keys: vec![from, to],
            })
        });
        let classify: ResponseClassifier = Rc::new(|payload| {
            payload
                .downcast_ref::<TxnOutcome>()
                .is_some_and(|o| o.result.is_ok())
        });
        let samples = spawn_client(
            &mut sim,
            load_node,
            sequencer,
            request,
            classify,
            Pacing::Closed {
                clients: TRANSFER_CLIENTS,
            },
            limit,
        );
        (sim, samples, shards)
    });
    let started_at = sim.now();
    let audit: Audit = Box::new(move |sim, _| {
        conserved("dataflow-transfer", accounts, |key| {
            shards.iter().find_map(|&pid| {
                sim.inspect::<DfShard>(pid)
                    .and_then(|s| s.peek(key))
                    .map(Value::as_int)
            })
        })
    });
    Built {
        sim,
        samples,
        started_at,
        setup_ns,
        audit,
    }
}

// ----- workflow-faults ----------------------------------------------------------

fn chain_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("debit", |tx, args| {
            let (key, amount) = (args[0].as_str().to_owned(), args[1].as_int());
            let have = tx.get(&key).map_or(0, |v| v.as_int());
            if have < amount {
                return Err("insufficient".into());
            }
            tx.put(&key, Value::Int(have - amount));
            Ok(vec![Value::Int(have - amount)])
        })
        .with("credit", |tx, args| {
            let (key, amount) = (args[0].as_str().to_owned(), args[1].as_int());
            let have = tx.get(&key).map_or(0, |v| v.as_int());
            tx.put(&key, Value::Int(have + amount));
            Ok(vec![Value::Int(have + amount)])
        })
}

fn build_workflow(opts: &RunOptions, spans: &mut Spans) -> Built {
    let chains = scaled(WORKFLOW_CHAINS, opts.scale);
    let workload = ChainWorkload::new(chains, WORKFLOW_HOPS);
    let ((sim, samples, deploy), setup_ns) = spans.time("setup", |spans| {
        let mut sim = new_sim(
            opts,
            NetworkConfig::lossy(WORKFLOW_LOSS, WORKFLOW_LOSS / 2.0),
        );
        let orch_node = sim.add_node();
        let worker_nodes = sim.add_nodes(2);
        let coord_node = sim.add_node();
        let shard_nodes = sim.add_nodes(4);
        let load_node = sim.add_node();
        let deploy = spans
            .time("txn::workflow deploy_workflow", |_| {
                deploy_workflow(
                    &mut sim,
                    orch_node,
                    &worker_nodes,
                    coord_node,
                    &shard_nodes,
                    &chain_registry(),
                    &workload.seeds(),
                    &workload.defs(),
                    WorkflowConfig::default(),
                )
            })
            .0;
        spans.time("sim::faults schedule crashes", |_| {
            // One worker-node crash per period, alternating nodes, for far
            // longer than any run lasts.
            let period = SimDuration::from_millis(WORKFLOW_CRASH_PERIOD_MS);
            let mut at = SimTime::ZERO + period.mul_f64(0.5);
            for cycle in 0..1_000 {
                let node = worker_nodes[cycle % worker_nodes.len()];
                sim.schedule_crash(at, node);
                sim.schedule_restart(at + SimDuration::from_millis(WORKFLOW_OUTAGE_MS), node);
                at += period;
            }
        });
        let next = Cell::new(0u64);
        let starts = workload.clone();
        let request: RequestFactory = Rc::new(move |_| {
            let (_, start) = starts.start_request(next.get());
            next.set(next.get() + 1);
            Payload::new(start)
        });
        let classify: ResponseClassifier = Rc::new(|payload| {
            payload
                .downcast_ref::<WorkflowOutcome>()
                .is_some_and(|o| o.committed)
        });
        let samples = spawn_client(
            &mut sim,
            load_node,
            deploy.orchestrator,
            request,
            classify,
            Pacing::Closed {
                clients: WORKFLOW_IN_FLIGHT,
            },
            chains,
        );
        (sim, samples, deploy)
    });
    let started_at = sim.now();
    let audit: Audit = Box::new(move |sim, _| {
        let admitted = sim.metrics().counter("workflow.started");
        let (total, expected) = workload.conservation(sim, &deploy.participants, &deploy.map);
        if total != expected {
            return Err(format!(
                "workflow-faults: money not conserved: {total} != {expected}"
            ));
        }
        let doubles = workload.double_applies(sim, &deploy.participants, &deploy.map, admitted);
        if doubles != 0 {
            return Err(format!("workflow-faults: {doubles} steps applied twice"));
        }
        Ok(())
    });
    Built {
        sim,
        samples,
        started_at,
        setup_ns,
        audit,
    }
}

// ----- mc-explore ---------------------------------------------------------------

/// One model-checker configuration and the state count it must explore.
pub struct McCase {
    /// Label, as E18 prints it.
    pub label: &'static str,
    /// The world to explore.
    pub scenario: McScenario,
    /// Exploration bounds.
    pub config: McConfig,
    /// Pinned `McReport::states`; `None` skips the pin (scaled-down runs).
    pub expect_states: Option<u64>,
}

/// The four E18 configurations, at `scale` 1 with their pinned state
/// counts; below 1 the depth bounds shrink and only the verdict is checked.
pub fn mc_cases(scale: f64) -> Vec<McCase> {
    let full = scale >= 1.0;
    let depth = |d: usize| if full { d } else { d.min(5) };
    let pin = |states: u64| full.then_some(states);
    let base = McConfig {
        max_states: 5_000_000,
        max_crashes: 1,
        crashable: vec![NodeId(2)],
        ..McConfig::default()
    };
    vec![
        McCase {
            label: "2pc×2 depth 9 +1 crash +1 drop",
            scenario: twopc_mc_scenario(2),
            config: McConfig {
                max_depth: depth(9),
                max_drops: 1,
                ..base.clone()
            },
            expect_states: pin(36_181),
        },
        McCase {
            label: "2pc×1 depth 12 +2 crashes +1 drop",
            scenario: twopc_mc_scenario(1),
            config: McConfig {
                max_depth: depth(12),
                max_crashes: 2,
                max_drops: 1,
                ..base.clone()
            },
            expect_states: pin(19_449),
        },
        McCase {
            label: "saga×1 depth 8 +1 crash",
            scenario: saga_mc_scenario(1),
            config: McConfig {
                max_depth: depth(8),
                ..base.clone()
            },
            expect_states: pin(23_607),
        },
        McCase {
            label: "actor×2 depth 7",
            scenario: actor_mc_scenario(2),
            config: McConfig {
                max_depth: depth(7),
                max_crashes: 0,
                crashable: Vec::new(),
                ..base
            },
            expect_states: pin(17_040),
        },
    ]
}

/// Explore every case; an op is a configuration verified with its pinned
/// state count, so exploring fewer states per configuration is a win.
pub fn mc_explore(cases: &[McCase], spans: &mut Spans) -> Result<Rep, String> {
    let mut marks = Vec::with_capacity(cases.len());
    let (reports, t) = timed(|| {
        let start = Instant::now();
        cases
            .iter()
            .map(|case| {
                let (report, _) = spans.time(&format!("sim::mc explore {}", case.label), |_| {
                    explore(&case.scenario, &case.config)
                });
                marks.push(start.elapsed().as_nanos() as u64);
                report
            })
            .collect::<Vec<McReport>>()
    });
    let mut totals = McTotals::default();
    let mut digest = Fnv::default();
    for (case, report) in cases.iter().zip(&reports) {
        if !report.verified() {
            return Err(format!(
                "mc-explore: `{}` not verified: {:?}",
                case.label,
                report.violation.as_ref().map(|v| &v.message)
            ));
        }
        if case.expect_states.is_some_and(|n| n != report.states) {
            return Err(format!(
                "mc-explore: `{}` explored {} states, pinned {:?}",
                case.label, report.states, case.expect_states
            ));
        }
        totals.states += report.states;
        totals.pruned_sleep += report.pruned_sleep;
        totals.pruned_visited += report.pruned_visited;
        totals.depth_cap_hits += report.depth_cap_hits;
        for v in [
            report.states,
            report.leaves,
            report.pruned_sleep,
            report.pruned_visited,
            report.depth_cap_hits,
        ] {
            digest.u64(v);
        }
    }
    // The checker must still be able to fail: the seeded late-ExecuteReq
    // mutation has to yield its violation.
    let (mutation, _) = spans.time("audit", |_| {
        explore(
            &twopc_late_execute_mutation_scenario(),
            &McConfig {
                max_depth: 8,
                max_states: 5_000_000,
                ..McConfig::default()
            },
        )
    });
    if mutation.violation.is_none() {
        return Err("mc-explore: the late-execute mutation was not caught".into());
    }
    Ok(Rep {
        attempted: cases.len() as u64,
        committed: reports.len() as u64,
        run_ns: t.wall_ns,
        cpu_ns: t.cpu_ns,
        slices_ns: slices(&marks),
        allocs: t.allocs,
        alloc_bytes: t.alloc_bytes,
        mc: Some(totals),
        digest: digest.finish(),
        ..Rep::default()
    })
}

// ----- experiments-suite ----------------------------------------------------------

/// Split `experiments` output into `(title line, block text)` pairs.
pub fn blocks(text: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if line.starts_with("=== ") && line.ends_with(" ===") {
            out.push((line.to_owned(), String::new()));
        } else if let Some((_, body)) = out.last_mut() {
            body.push_str(line.trim_end());
            body.push('\n');
        }
    }
    for (_, body) in &mut out {
        *body = body.trim_end().to_owned();
    }
    out
}

/// Every block of `actual` must equal the same-titled block of `reference`.
pub fn diff_blocks(actual: &str, reference: &str) -> Result<usize, String> {
    let reference = blocks(reference);
    let actual = blocks(actual);
    for (title, body) in &actual {
        match reference.iter().find(|(t, _)| t == title) {
            None => return Err(format!("block `{title}` is not in the reference output")),
            Some((_, expected)) if expected != body => {
                return Err(format!("block `{title}` differs from the reference output"))
            }
            Some(_) => {}
        }
    }
    Ok(actual.len())
}

/// Highest `VmHWM` (bytes) and last on-CPU time seen while polling `pid`.
fn poll_child(pid: u32, stop: &std::sync::atomic::AtomicBool) -> (u64, u64) {
    use std::sync::atomic::Ordering::SeqCst;
    let (mut hwm, mut cpu) = (0u64, 0u64);
    loop {
        if let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
            let kb = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok());
            hwm = hwm.max(kb.unwrap_or(0) * 1024);
        }
        if let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/schedstat")) {
            cpu = stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(cpu);
        }
        if stop.load(SeqCst) {
            return (hwm, cpu);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

struct ChildRun {
    stdout: String,
    /// Nanoseconds since the child started at which each output line came.
    line_marks: Vec<u64>,
    success: bool,
    hwm: u64,
    cpu_ns: u64,
}

fn run_child(bin: &Path, seed: u64, wanted: &[&str]) -> Result<ChildRun, String> {
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    let mut child = Command::new(bin)
        .arg("--seed")
        .arg(seed.to_string())
        .args(wanted)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let start = Instant::now();
    let pid = child.id();
    let stop = AtomicBool::new(false);
    let mut stdout = String::new();
    let mut line_marks = Vec::new();
    let mut pipe = BufReader::new(child.stdout.take().expect("piped stdout"));
    // The pipe reaches end-of-file when the child exits; until `wait`
    // reaps it below its /proc entries stay readable, so the poller's last
    // look sees the final high-water mark.
    let (read, (hwm, cpu_ns)) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| poll_child(pid, &stop));
        // Rust's stdout is line-buffered even into a pipe, so a line's
        // arrival time is when the child printed it.
        let read = loop {
            match pipe.read_line(&mut stdout) {
                Ok(0) => break Ok(()),
                Ok(_) => line_marks.push(start.elapsed().as_nanos() as u64),
                Err(e) => break Err(e),
            }
        };
        stop.store(true, SeqCst);
        (read, poller.join().expect("poller thread panicked"))
    });
    let status = child.wait().map_err(|e| e.to_string())?;
    read.map_err(|e| format!("reading experiments output: {e}"))?;
    Ok(ChildRun {
        stdout,
        line_marks,
        success: status.success(),
        hwm,
        cpu_ns,
    })
}

fn experiments_suite(opts: &RunOptions, spans: &mut Spans) -> Result<Rep, String> {
    // The smoke test runs three cheap experiments; scale 1 runs the suite.
    let wanted: &[&str] = if opts.scale >= 1.0 {
        &SUITE_EXPERIMENTS
    } else {
        &["f1", "e14", "e15"]
    };
    let (child, t) = timed(|| {
        spans
            .time("bench::experiments child", |_| {
                run_child(&opts.experiments_bin, opts.seed, wanted)
            })
            .0
    });
    let child = child?;
    let (checked, _) = spans.time("audit", |_| -> Result<(), String> {
        if !child.success {
            return Err("experiments-suite: the experiments binary failed".into());
        }
        let printed = blocks(&child.stdout);
        for name in wanted {
            let prefix = format!("=== {}:", name.to_uppercase());
            if !printed.iter().any(|(title, _)| title.starts_with(&prefix)) {
                return Err(format!("experiments-suite: no `{prefix}` block printed"));
            }
        }
        // experiments_output.txt quotes the seed-42 stream.
        if opts.seed == 42 {
            let path = opts.repo_root.join("experiments_output.txt");
            let reference = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            diff_blocks(&child.stdout, &reference)
                .map_err(|e| format!("experiments-suite: {e}"))?;
        }
        Ok(())
    });
    checked?;
    let mut digest = Fnv::default();
    digest.bytes(child.stdout.as_bytes());
    Ok(Rep {
        attempted: wanted.len() as u64,
        committed: wanted.len() as u64,
        run_ns: t.wall_ns,
        cpu_ns: child.cpu_ns,
        slices_ns: slices(&child.line_marks),
        peak_heap: child.hwm,
        digest: digest.finish(),
        ..Rep::default()
    })
}

/// Chrome-trace JSON of the simulator's own spans over a `twopc-transfer`
/// run at `opts.scale` (written beside the host trace).
pub fn twopc_chrome_trace(opts: &RunOptions) -> Result<String, String> {
    let mut spans = Spans::new("twopc-transfer");
    let Built {
        mut sim, samples, ..
    } = build_twopc(opts, &mut spans);
    while samples.borrow().done_at.is_none() {
        if sim.now().since(SimTime::ZERO) > STALL_LIMIT {
            return Err("twopc-transfer: traced run stalled".into());
        }
        sim.run_for(SimDuration::from_millis(1));
    }
    Ok(sim.chrome_trace())
}
