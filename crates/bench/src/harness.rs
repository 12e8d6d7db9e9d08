//! A minimal in-tree wall-clock benchmark harness.
//!
//! Replaces `criterion` so the workspace builds offline with zero
//! external dependencies. The model is deliberately simple:
//!
//! 1. **Calibrate** — run the closure until `warmup` wall time has
//!    passed; derive `iters_per_sample` so one sample costs roughly
//!    `target_sample` wall time.
//! 2. **Sample** — collect `samples` timed batches of
//!    `iters_per_sample` iterations each.
//! 3. **Report** — per-iteration min / mean / median / p95 / max in
//!    nanoseconds, printed human-readably and (optionally) appended as
//!    one JSON object per line to a file (`--json`).
//!
//! Percentiles use the nearest-rank method (`ceil(q·n)`-th smallest
//! sample), so they are well-defined and conservative even for small
//! sample counts (`n < 20`).
//!
//! The JSON line schema (stable; CI and tooling may parse it):
//!
//! ```json
//! {"bench":"cells/saga","median_ns":1234,"p95_ns":1410,"mean_ns":1260,
//!  "min_ns":1190,"max_ns":1502,"samples":20,"iters_per_sample":64}
//! ```
//!
//! Wall-clock benches are inherently noisy; virtual-time experiment
//! results live in the `experiments` binary and stay bit-deterministic.

use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Per-bench summary statistics, all in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Bench name, conventionally `group/case`.
    pub name: String,
    /// Iterations per timed sample (chosen by calibration).
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min_ns: u64,
    /// Arithmetic mean over samples.
    pub mean_ns: u64,
    /// Median sample.
    pub median_ns: u64,
    /// 95th-percentile sample.
    pub p95_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
}

impl Report {
    /// The stable one-line JSON form written by [`Bench::write_json`].
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"median_ns\":{},\"p95_ns\":{},\"mean_ns\":{},\
             \"min_ns\":{},\"max_ns\":{},\"samples\":{},\"iters_per_sample\":{}}}",
            self.name,
            self.median_ns,
            self.p95_ns,
            self.mean_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.iters_per_sample
        )
    }

    /// Human-readable single line for terminal output.
    pub fn to_human_line(&self) -> String {
        format!(
            "{:<40} median {:>12}  p95 {:>12}  ({} samples x {} iters)",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.p95_ns),
            self.samples,
            self.iters_per_sample
        )
    }
}

/// Nearest-rank percentile index into a sorted sample vector: the
/// `ceil(pct/100 · n)`-th smallest value (1-based), clamped into range.
/// Well-defined for any `n ≥ 1`, including the small counts (`n < 20`)
/// the quick/CI configurations use, where naive `n·pct/100` indexing
/// returns the maximum for p95 and overshoots the median for even `n`.
fn percentile_index(n: usize, pct: u64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (n as u64 * pct).div_ceil(100).max(1);
    (rank as usize - 1).min(n - 1)
}

/// Reduce timed samples (ns per iteration, any order) to a [`Report`].
/// Exposed for tests; [`Bench::run`] calls it.
pub fn summarize(name: &str, iters_per_sample: u64, mut sample_ns: Vec<u64>) -> Report {
    assert!(!sample_ns.is_empty(), "summarize needs at least one sample");
    sample_ns.sort_unstable();
    let n = sample_ns.len();
    Report {
        name: name.to_owned(),
        iters_per_sample,
        samples: n,
        min_ns: sample_ns[0],
        mean_ns: sample_ns.iter().sum::<u64>() / n as u64,
        median_ns: sample_ns[percentile_index(n, 50)],
        p95_ns: sample_ns[percentile_index(n, 95)],
        max_ns: sample_ns[n - 1],
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Harness configuration and result accumulator.
pub struct Bench {
    warmup: Duration,
    target_sample: Duration,
    samples: usize,
    filter: Option<String>,
    reports: Vec<Report>,
}

impl Default for Bench {
    fn default() -> Self {
        Bench {
            warmup: Duration::from_millis(200),
            target_sample: Duration::from_millis(50),
            samples: 20,
            filter: None,
            reports: Vec::new(),
        }
    }
}

impl Bench {
    /// Harness with default settings (200ms warmup, 20 samples of ~50ms).
    pub fn new() -> Self {
        Bench::default()
    }

    /// Total warmup wall time per bench (also the calibration window).
    pub fn warmup(mut self, warmup: Duration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Target wall time of one timed sample.
    pub fn target_sample(mut self, target: Duration) -> Self {
        self.target_sample = target;
        self
    }

    /// Number of timed samples per bench.
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Only run benches whose name contains `filter`.
    pub fn filter(mut self, filter: Option<String>) -> Self {
        self.filter = filter;
        self
    }

    /// Run one bench. `f` is the measured closure; its return value is
    /// passed through [`black_box`] so the optimiser cannot delete the
    /// work. Skipped (returns `None`) when the name misses the filter.
    pub fn run<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Option<&Report> {
        let mut iter = || {
            black_box(f());
        };
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }

        // Calibration: run for `warmup`, counting iterations.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < self.warmup {
            iter();
            warmup_iters += 1;
        }
        let per_iter = warmup_start.elapsed().as_nanos() as u64 / warmup_iters.max(1);
        let iters_per_sample =
            (self.target_sample.as_nanos() as u64 / per_iter.max(1)).clamp(1, 1_000_000);

        // Timed samples.
        let mut sample_ns: Vec<u64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                iter();
            }
            sample_ns.push(start.elapsed().as_nanos() as u64 / iters_per_sample);
        }

        let report = summarize(name, iters_per_sample, sample_ns);
        println!("{}", report.to_human_line());
        self.reports.push(report);
        self.reports.last()
    }

    /// All reports collected so far.
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Append every report as a JSON line to `path` (one object per line,
    /// append-only across runs).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        for report in &self.reports {
            writeln!(file, "{}", report.to_json_line())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Bench {
        Bench::new()
            .warmup(Duration::from_millis(1))
            .target_sample(Duration::from_millis(1))
            .samples(5)
    }

    #[test]
    fn reports_ordered_quantiles() {
        let mut bench = quick();
        let report = bench.run("test/spin", || (0..100u64).sum::<u64>()).unwrap();
        assert!(report.min_ns <= report.median_ns);
        assert!(report.median_ns <= report.p95_ns);
        assert!(report.p95_ns <= report.max_ns);
        assert!(report.iters_per_sample >= 1);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut bench = quick().filter(Some("zipf".to_owned()));
        assert!(bench.run("engine/commit", || 1u64).is_none());
        assert!(bench.run("sim/zipf-sample", || 1u64).is_some());
        assert_eq!(bench.reports().len(), 1);
    }

    #[test]
    fn percentiles_nearest_rank_on_known_samples() {
        // n = 20, samples 10, 20, …, 200: nearest-rank median is the
        // 10th smallest (100), p95 the 19th smallest (190) — notably NOT
        // the maximum, which the old n*95/100 indexing returned.
        let samples: Vec<u64> = (1..=20).map(|i| i * 10).collect();
        let r = summarize("t/20", 1, samples);
        assert_eq!(r.median_ns, 100);
        assert_eq!(r.p95_ns, 190);
        assert_eq!(r.min_ns, 10);
        assert_eq!(r.max_ns, 200);
        assert_eq!(r.mean_ns, 105);

        // Small counts (n < 20) stay in range and well-defined.
        let r = summarize("t/5", 1, vec![5, 1, 4, 2, 3]);
        assert_eq!(r.median_ns, 3);
        assert_eq!(r.p95_ns, 5);

        let r = summarize("t/4", 1, vec![4, 3, 2, 1]);
        assert_eq!(r.median_ns, 2, "even n: median is the n/2-th smallest");
        assert_eq!(r.p95_ns, 4);

        let r = summarize("t/1", 1, vec![7]);
        assert_eq!(r.median_ns, 7);
        assert_eq!(r.p95_ns, 7);
    }

    #[test]
    fn percentile_index_bounds() {
        assert_eq!(percentile_index(0, 95), 0);
        assert_eq!(percentile_index(1, 50), 0);
        assert_eq!(percentile_index(1, 95), 0);
        assert_eq!(percentile_index(100, 95), 94);
        assert_eq!(percentile_index(100, 100), 99);
        assert_eq!(percentile_index(20, 95), 18);
        assert_eq!(percentile_index(20, 50), 9);
    }

    #[test]
    fn json_line_is_parseable_shape() {
        let mut bench = quick();
        bench.run("a/b", || 7u64);
        let line = bench.reports()[0].to_json_line();
        assert!(line.starts_with("{\"bench\":\"a/b\","), "line: {line}");
        assert!(line.ends_with('}'), "line: {line}");
        assert!(line.contains("\"median_ns\":"), "line: {line}");
        assert!(line.contains("\"p95_ns\":"), "line: {line}");
    }
}
