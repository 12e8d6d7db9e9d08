//! Command line of the whole-stack benchmark. `run.sh` builds, then calls:
//!
//! ```text
//! tca-benchmark --workload W --seed N (--seconds S | --reps R) --trace 0|1 \
//!               [--build-s X] [--detail FILE]
//! tca-benchmark compare A.json B.json
//! ```
//!
//! The last line of standard output is the result object the driver reads:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tca_benchmark::json::{self, Json};
use tca_benchmark::report::{
    end_to_end, per_layer, Better, Bound, Stat, DRIVER_END_TO_END, END_TO_END,
};
use tca_benchmark::runner::{run_traced, run_untraced, Budget, WorkloadRun};
use tca_benchmark::workloads::{RunOptions, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2])),
        Some("compare") => Err("usage: compare A.json B.json".into()),
        _ => run(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad value for {name}: `{v}`"))
        })
        .transpose()
}

/// The repository root: `run.sh` passes it; by default the parent of this
/// package's directory.
fn repo_root(args: &[String]) -> PathBuf {
    flag(args, "--repo-root").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join(".."),
        PathBuf::from,
    )
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", known.join(", "))
    })?;
    let seed: u64 = parsed(args, "--seed")?.unwrap_or(42);
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad value for --trace: `{other}`")),
    };
    let budget = match (parsed::<f64>(args, "--seconds")?, parsed(args, "--reps")?) {
        (_, Some(reps)) => Budget::Reps(reps),
        (Some(seconds), None) => Budget::Seconds(seconds),
        (None, None) => Budget::Reps(5),
    };
    let build_s: f64 = parsed(args, "--build-s")?.unwrap_or(0.0);
    let root = repo_root(args);
    let opts = RunOptions {
        seed,
        scale: 1.0,
        traced: false,
        experiments_bin: flag(args, "--experiments-bin")
            .map_or_else(|| root.join("target/release/experiments"), PathBuf::from),
        repo_root: root.clone(),
    };

    let result = if trace {
        run_traced(workload, &opts, budget)
    } else {
        run_untraced(workload, &opts, budget)
    };
    let run = match result {
        Ok(run) => run,
        Err(message) => {
            // A failed output check: no result line, non-zero exit.
            eprintln!("benchmark: output check failed: {message}");
            return Ok(ExitCode::FAILURE);
        }
    };

    let stats = end_to_end(&run.reps, Some(&run.warmup), build_s);
    print_run(&run, seed, &stats);
    if let Some(path) = flag(args, "--detail") {
        append_line(Path::new(path), &detail_json(&run, seed, &stats))?;
    }
    let mut metrics = String::new();
    if let Some(traced) = &run.traced {
        let layers = per_layer(
            workload,
            &traced.cells,
            run.reps.last().expect("a timed repetition"),
            &traced.rep,
            traced.overhead,
        );
        print_layers(&run, &layers);
        write_traces(&run, &opts, &root.join("benchmark/out"))?;
        for m in &layers {
            push_metric(&mut metrics, &m.name, m.value, m.unit);
        }
    } else {
        for name in DRIVER_END_TO_END {
            let s = stats
                .iter()
                .find(|s| s.name == name)
                .expect("defined on every workload");
            push_metric(&mut metrics, s.name, s.value, s.unit);
        }
    }
    // An abort or a shed is an answer the modelled system gives and counts
    // in `failed_share`; `failed` counts the requests that got no answer.
    let attempted: u64 = run.reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = run.reps.iter().map(|r| r.lost).sum();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    Ok(ExitCode::SUCCESS)
}

/// Append `"name": {"value": v, "unit": u}` to a JSON object body.
fn push_metric(body: &mut String, name: &str, value: f64, unit: &str) {
    let sep = if body.is_empty() { "" } else { ", " };
    let _ = write!(
        body,
        "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
        json::quote(name),
        number(value),
        json::quote(unit)
    );
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_run(run: &WorkloadRun, seed: u64, stats: &[Stat]) {
    let w = run.workload;
    println!(
        "== {}  seed {seed}  op = {}  {} timed reps after 1 warm-up, tracing off",
        w.name(),
        w.op(),
        run.reps.len()
    );
    for (i, r) in run.reps.iter().enumerate() {
        println!(
            "   rep {}: run {:.4} s wall, {:.4} s cpu (cpu/wall {:.3}); setup {:.4} s; {} of {} ops committed",
            i + 1,
            r.run_ns as f64 / 1e9,
            r.cpu_ns as f64 / 1e9,
            r.cpu_ns as f64 / r.run_ns.max(1) as f64,
            r.setup_ns as f64 / 1e9,
            r.committed,
            r.attempted,
        );
    }
    for s in stats {
        let def = END_TO_END
            .iter()
            .find(|d| d.name == s.name)
            .expect("catalogued");
        let kind = if def.simulated {
            "simulated, exact"
        } else {
            "host"
        };
        let spread = if s.name.starts_with("sim_p") {
            format!("{} samples", s.n)
        } else if def.simulated {
            "identical on every rep".to_owned()
        } else {
            format!("q1 {:.6} q3 {:.6} n={}", s.q1, s.q3, s.n)
                + if s.name == "host_ops_per_s" {
                    " leaving one rep out"
                } else {
                    ""
                }
        };
        println!(
            "   {:<16} {:>16.6} {:<6} [{kind}; {spread}]",
            s.name, s.value, s.unit
        );
    }
    let raw: Vec<f64> = run
        .reps
        .iter()
        .map(|r| r.committed as f64 / (r.run_ns as f64 / 1e9))
        .collect();
    println!(
        "   host_ops_per_s is committed ops over the slice-wise fastest run time (warm-up included); the plain median of reps is {:.6}",
        tca_benchmark::stats::median(&raw)
    );
    if w == Workload::YcsbHotWrite {
        println!("   open loop on virtual time: generator lateness is 0 by construction");
    }
    println!(
        "   sim_digest {:#018x} (identical on every rep)",
        run.digest
    );
}

fn print_layers(run: &WorkloadRun, layers: &[tca_benchmark::report::LayerMetric]) {
    let traced = run.traced.as_ref().expect("traced run");
    println!(
        "== per-layer metrics of {} (traced run)",
        run.workload.name()
    );
    for m in layers {
        println!("   {:<48} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let (q1, mid, q3, n) = traced.cells.sharded_router;
    println!(
        "   kernel/sharded-router ns/event over {n} reps: q1 {q1:.2} median {mid:.2} q3 {q3:.2} (spread {:.1} %)",
        (q3 - q1) / mid * 100.0
    );
    if let Some(t) = &traced.rep.trace {
        println!(
            "   tracer kept {} spans, turned away {}; traced sim_digest equals the untraced one",
            t.spans, t.dropped
        );
    }
    println!("   host spans, self time (what the span spent outside its children):");
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for (i, s) in run.spans.spans().iter().enumerate() {
        let entry = by_name.entry(s.name.as_str()).or_default();
        entry.0 += run.spans.self_ns(i);
        entry.1 += 1;
    }
    for (name, (ns, count)) in by_name {
        println!(
            "     {:<52} {:>10.3} ms over {count} span(s)",
            name,
            ns as f64 / 1e6
        );
    }
}

/// `host_trace.json` beside a simulator trace of a small 2PC run.
fn write_traces(run: &WorkloadRun, opts: &RunOptions, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let host = dir.join("host_trace.json");
    std::fs::write(&host, run.spans.chrome_trace())
        .map_err(|e| format!("cannot write {}: {e}", host.display()))?;
    println!("   wrote {}", host.display());
    if run.workload == Workload::TwopcTransfer {
        // The tracer's buffer holds 2^18 spans, a prefix of the full run; a
        // 1 % run fits whole and loads quickly.
        let small = RunOptions {
            scale: 0.01,
            traced: true,
            ..opts.clone()
        };
        let trace = tca_benchmark::workloads::twopc_chrome_trace(&small)?;
        let path = dir.join("twopc_sim_trace.json");
        std::fs::write(&path, trace)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("   wrote {}", path.display());
    }
    Ok(())
}

fn detail_json(run: &WorkloadRun, seed: u64, stats: &[Stat]) -> String {
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"sim_digest\": \"{:#018x}\", \"metrics\": {{",
        json::quote(run.workload.name()),
        run.digest
    );
    for (i, s) in stats.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            json::quote(s.name),
            number(s.value),
            json::quote(s.unit),
            number(s.q1),
            number(s.q3),
            s.n
        );
    }
    out.push_str("}, \"reps\": [");
    for (i, r) in run.reps.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"wall_s\": {}, \"cpu_s\": {}, \"setup_s\": {}, \"committed\": {}, \"attempted\": {}, \"slices_ns\": {:?}}}",
            r.run_ns as f64 / 1e9,
            r.cpu_ns as f64 / 1e9,
            r.setup_ns as f64 / 1e9,
            r.committed,
            r.attempted,
            r.slices_ns
        );
    }
    out.push_str("]}");
    out
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

// ----- compare ------------------------------------------------------------------

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads_of(doc: &Json) -> Vec<&Json> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .map(|a| a.iter().collect())
        .unwrap_or_default()
}

/// Apply each metric's bound to every (metric, workload) row of two result
/// files; exit 1 if any row regressed.
fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (base, new) = (load(a)?, load(b)?);
    let mut regressed = 0;
    println!(
        "{:<20} {:<16} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for wa in workloads_of(&base) {
        let name = wa.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads_of(&new)
            .into_iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<20} only in {}", a.display());
            continue;
        };
        let digests = (
            wa.get("sim_digest").and_then(Json::as_str),
            wb.get("sim_digest").and_then(Json::as_str),
        );
        for def in &END_TO_END {
            let field = |w: &Json, f: &str| w.get("metrics")?.get(def.name)?.get(f)?.as_f64();
            let (Some(va), Some(vb)) = (field(wa, "value"), field(wb, "value")) else {
                continue;
            };
            let worse_by = match def.better {
                Better::Lower => vb - va,
                Better::Higher => va - vb,
            };
            let iqr = |w: &Json| field(w, "q3").unwrap_or(0.0) - field(w, "q1").unwrap_or(0.0);
            let (worse, spread, bound) = match def.bound {
                Bound::Relative(share) => (
                    worse_by / va.abs(),
                    (iqr(wa) / va.abs()).max(iqr(wb) / vb.abs()),
                    share,
                ),
                Bound::Absolute(amount) => (worse_by, iqr(wa).max(iqr(wb)), amount),
            };
            let verdict = if worse > bound {
                regressed += 1;
                "REGRESSED"
            } else if spread > bound {
                "unresolved (spread exceeds the bound)"
            } else if worse < -bound {
                "improved"
            } else {
                "unchanged"
            };
            let change = match def.bound {
                Bound::Relative(_) => format!("{:+.2}%", (vb - va) / va.abs() * 100.0),
                Bound::Absolute(_) => format!("{:+.4}", vb - va),
            };
            println!(
                "{name:<20} {:<16} {va:>16.6} {vb:>16.6} {change:>9}  {verdict}",
                def.name
            );
        }
        if digests.0 != digests.1 {
            println!(
                "{name:<20} sim_digest differs: {} vs {}",
                digests.0.unwrap_or("?"),
                digests.1.unwrap_or("?")
            );
        }
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{regressed} row(s) regressed beyond their bound");
        ExitCode::FAILURE
    })
}
