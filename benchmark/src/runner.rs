//! The noise protocol: one warm-up repetition, then timed repetitions
//! until the budget is spent; every repetition of a seed must yield the
//! same `sim_digest`.
//!
//! A budget in seconds covers the whole run, warm-up included, and no
//! repetition is started that would end past it: the driver's runs must
//! together fit its time limit, so a run may not overshoot by a repetition.

use std::time::{Duration, Instant};

use crate::cells::{run_cells, Cells};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{run_rep, Rep, RunOptions, Workload};

/// When to stop repeating.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start no new repetition that would end later than this many seconds
    /// after the run began, judging by how long the last one took; always
    /// make one timed repetition.
    Seconds(f64),
    /// Exactly this many timed repetitions.
    Reps(usize),
}

impl Budget {
    fn spent(self, since: Instant, reps: usize, last_rep: Duration) -> bool {
        match self {
            Budget::Seconds(s) => reps > 0 && (since.elapsed() + last_rep).as_secs_f64() > s,
            Budget::Reps(n) => reps >= n,
        }
    }
}

/// What the traced run adds to the untraced one.
#[derive(Debug)]
pub struct Traced {
    /// Isolated cells.
    pub cells: Cells,
    /// The last repetition run with the simulator's tracer on.
    pub rep: Rep,
    /// Median traced ÷ untraced host time; 0 where tracing cannot be
    /// switched from outside (no `Sim` in reach).
    pub overhead: f64,
}

/// Everything measured for one workload at one seed.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Which workload.
    pub workload: Workload,
    /// The warm-up repetition: its slices count towards the slice-wise
    /// minimum behind `host_ops_per_s`, nothing else of it is reported.
    pub warmup: Rep,
    /// The timed, untraced repetitions.
    pub reps: Vec<Rep>,
    /// The digest every repetition produced.
    pub digest: u64,
    /// The traced run's additions, if one was made.
    pub traced: Option<Traced>,
    /// Host spans around every call into a layer.
    pub spans: Spans,
}

fn checked_rep(
    workload: Workload,
    opts: &RunOptions,
    spans: &mut Spans,
    digest: &mut Option<u64>,
) -> Result<Rep, String> {
    let rep = run_rep(workload, opts, spans).map_err(|e| format!("{}: {e}", workload.name()))?;
    match *digest {
        None => *digest = Some(rep.digest),
        Some(first) if first != rep.digest => {
            return Err(format!(
                "{}: sim_digest changed between repetitions of one seed: {first:#018x} then {:#018x}{}",
                workload.name(),
                rep.digest,
                if opts.traced { " (traced)" } else { "" },
            ));
        }
        Some(_) => {}
    }
    Ok(rep)
}

/// End-to-end run: tracing off, one warm-up, then timed repetitions.
pub fn run_untraced(
    workload: Workload,
    opts: &RunOptions,
    budget: Budget,
) -> Result<WorkloadRun, String> {
    let opts = RunOptions {
        traced: false,
        ..opts.clone()
    };
    let start = Instant::now();
    let mut spans = Spans::new(workload.name());
    let mut digest = None;
    let warmup = spans
        .time("warm-up", |spans| {
            checked_rep(workload, &opts, spans, &mut digest)
        })
        .0?;
    let mut reps = Vec::new();
    let mut last_rep = Duration::ZERO;
    while !budget.spent(start, reps.len(), last_rep) {
        let began = Instant::now();
        reps.push(checked_rep(workload, &opts, &mut spans, &mut digest)?);
        last_rep = began.elapsed();
    }
    Ok(WorkloadRun {
        workload,
        warmup,
        reps,
        digest: digest.expect("at least the warm-up ran"),
        traced: None,
        spans,
    })
}

/// Whether the workload's `Sim` is built where the benchmark can switch
/// its tracer on.
fn traceable(workload: Workload) -> bool {
    !matches!(
        workload,
        Workload::KernelStorm | Workload::McExplore | Workload::ExperimentsSuite
    )
}

/// Traced run: isolated cells, then untraced/traced pairs of the workload.
/// The traced digest must equal the untraced one.
pub fn run_traced(
    workload: Workload,
    opts: &RunOptions,
    budget: Budget,
) -> Result<WorkloadRun, String> {
    let start = Instant::now();
    let mut spans = Spans::new(workload.name());
    let (cells, _) = spans.time("isolated cells", |spans| run_cells(opts, spans));
    let plain = RunOptions {
        traced: false,
        ..opts.clone()
    };
    let with_tracer = RunOptions {
        traced: true,
        ..opts.clone()
    };
    let mut digest = None;
    let warmup = spans
        .time("warm-up", |spans| {
            checked_rep(workload, &plain, spans, &mut digest)
        })
        .0?;
    let mut reps = Vec::new();
    let mut ratios = Vec::new();
    let mut last_traced = None;
    let mut last_pair = Duration::ZERO;
    while !budget.spent(start, reps.len(), last_pair) {
        let began = Instant::now();
        let untraced = checked_rep(workload, &plain, &mut spans, &mut digest)?;
        if traceable(workload) {
            let (traced, _) = spans.time("traced", |spans| {
                checked_rep(workload, &with_tracer, spans, &mut digest)
            });
            let traced = traced?;
            ratios.push(traced.run_ns as f64 / untraced.run_ns as f64);
            last_traced = Some(traced);
        }
        reps.push(untraced);
        last_pair = began.elapsed();
    }
    let overhead = if ratios.is_empty() {
        0.0
    } else {
        median(&ratios)
    };
    let rep = last_traced.unwrap_or_else(|| reps[reps.len() - 1].clone());
    Ok(WorkloadRun {
        workload,
        warmup,
        reps,
        digest: digest.expect("at least the warm-up ran"),
        traced: Some(Traced {
            cells,
            rep,
            overhead,
        }),
        spans,
    })
}
