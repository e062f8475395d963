//! gvbench — end-to-end and per-layer benchmark of the gridvo daemon.
//!
//! Drives a `gridvo serve` child process with one of three workloads
//! (see `README.md` in this directory) and prints a human-readable
//! report followed by one JSON result line. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` runs the workload untraced and then
//! traced, replays the traced run into each layer, writes the span
//! file and reports the per-layer metrics.

mod daemon;
mod layers;
mod pool;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gridvo_core::FormationScenario;
use serde::Value;

use crate::stats::{median, percentile, windowed_percentile, windowed_rate};
use crate::workloads::{Ctx, Run, Workload};

const USAGE: &str =
    "usage: gvbench --gridvo PATH --workload NAME|all --seed N --seconds S --trace 0|1
  workloads: form-hot, reform-loop, market-contend";

/// Scratch space inside the checkout: data dirs, the scenario file,
/// span files and per-run result files.
const WORK_DIR: &str = ".bench_work";

/// `form_p99_ms` is the median of the p99s of consecutive windows of
/// this many forms.
const P99_WINDOW: usize = 1000;
/// `forms_per_s` is the median rate over windows of this many seconds.
const RATE_WINDOW_S: f64 = 1.0;

/// Sizing guard: `form-hot` must be served from the cache …
const FORM_HOT_MIN_HIT_RATIO: f64 = 0.99;
/// … and `reform-loop` clearly not.
const REFORM_MAX_HIT_RATIO: f64 = 0.9;

/// One reported metric.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Sample count or base, for the human report.
    pub detail: String,
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    gridvo: PathBuf,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let argv: Vec<String> = argv.collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workloads = match value("--workload")? {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?],
    };
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let gridvo = PathBuf::from(value("--gridvo")?);
    if !gridvo.is_file() {
        return Err(format!("no gridvo binary at {}", gridvo.display()));
    }
    Ok(Args { workloads, seed, seconds, trace, gridvo })
}

/// What one workload run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gvbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        match bench(&args, workload) {
            Ok(outcome) => outcomes.push((workload, outcome)),
            Err(e) => {
                eprintln!("gvbench: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        }
    }
    let single = outcomes.len() == 1;
    let mut total = Outcome { correct: true, attempted: 0, failed: 0, metrics: Vec::new() };
    for (workload, o) in outcomes {
        total.correct &= o.correct;
        total.attempted += o.attempted;
        total.failed += o.failed;
        for mut m in o.metrics {
            if !single {
                m.name = format!("{}.{}", workload.name(), m.name);
            }
            total.metrics.push(m);
        }
    }
    println!("{}", result_line(&total));
    if total.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set up the run's scratch directory and the pool scenario file.
fn context(args: &Args, workload: Workload) -> Result<Ctx, String> {
    let work = Path::new(WORK_DIR).join(format!(
        "{}-seed{}-pid{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let work = std::fs::canonicalize(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let scenario_path = work.join("pool.json");
    let json = serde_json::to_string(&pool::scenario()?).map_err(|e| e.to_string())?;
    std::fs::write(&scenario_path, json).map_err(|e| format!("cannot write scenario: {e}"))?;
    let text = std::fs::read_to_string(&scenario_path).map_err(|e| e.to_string())?;
    // The daemon parses this file; the checks use the same parse.
    let scenario: FormationScenario = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    Ok(Ctx {
        gridvo: args.gridvo.clone(),
        work,
        scenario_path,
        scenario,
        seed: args.seed,
        seconds: args.seconds,
    })
}

fn bench(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let ctx = context(args, workload)?;
    let result = if args.trace { traced(&ctx, workload) } else { untraced(&ctx, workload) };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let outcome = result?;
    write_results(args, workload, &outcome)?;
    Ok(outcome)
}

fn untraced(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    let run = workloads::run(ctx, workload, false)?;
    let guards = sizing_guard(&run);
    let metrics = end_to_end(&run);
    println!("== gvbench {} (untraced) ==", workload.name());
    println!("{}", provenance(ctx, workload, false));
    print_metrics(&metrics);
    print_side_metrics(&run);
    print_failures(&run.tally.failures, &guards);
    Ok(Outcome {
        correct: run.tally.failed == 0 && guards.is_empty(),
        attempted: run.tally.attempted,
        failed: run.tally.failed + guards.len() as u64,
        metrics,
    })
}

/// The traced mode splits the run length: half untraced (the baseline
/// of `bench.trace_overhead_frac`), half traced, and the replay stops
/// after another half, so a traced run costs 1.5× an untraced one.
fn traced(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    let half = Ctx { seconds: ctx.seconds / 2.0, ..ctx.clone() };
    let base = workloads::run(&half, workload, false)?;
    let run = workloads::run(&half, workload, true)?;
    let layers = layers::replay(&half, &run)?;
    let mut guards = sizing_guard(&base);
    guards.extend(sizing_guard(&run));
    let rate = |r: &Run| r.seeds_formed as f64 / r.elapsed_s;
    let mut metrics = layers.metrics;
    metrics.push(Metric {
        name: "bench.trace_overhead_frac".to_string(),
        unit: "ratio",
        value: 1.0 - rate(&run) / rate(&base),
        detail: format!("{:.1} vs {:.1} forms/s untraced", rate(&run), rate(&base)),
    });

    let mut spans = run.tracer;
    spans.absorb(layers.tracer);
    let span_path = Path::new(WORK_DIR).join(format!("spans-{}.jsonl", workload.name()));
    spans.write_jsonl(&span_path).map_err(|e| format!("cannot write spans: {e}"))?;

    println!("== gvbench {} (traced) ==", workload.name());
    println!("{}", provenance(ctx, workload, true));
    print_metrics(&metrics);
    println!("  spans: {} written to {}", spans.spans().len(), span_path.display());
    if layers.truncated {
        println!("  note: the replay stopped at its time budget; layer means cover a prefix");
    }
    let mut failures = base.tally.failures.clone();
    failures.extend(run.tally.failures.iter().cloned());
    failures.extend(layers.tally.failures.iter().cloned());
    print_failures(&failures, &guards);
    let failed = base.tally.failed + run.tally.failed + layers.tally.failed + guards.len() as u64;
    Ok(Outcome {
        correct: failed == 0,
        attempted: base.tally.attempted + run.tally.attempted + layers.tally.attempted,
        failed,
        metrics,
    })
}

/// The workload must exercise, or bypass, the layers it claims to.
fn sizing_guard(run: &Run) -> Vec<String> {
    let mut broken = Vec::new();
    if run.capped_rounds > 0 {
        broken.push(format!(
            "{} served round(s) hit the solver's node cap: the pool is oversized",
            run.capped_rounds
        ));
    }
    let hit = run.cache.value().unwrap_or(0.0);
    match run.workload {
        Workload::FormHot if hit < FORM_HOT_MIN_HIT_RATIO => broken.push(format!(
            "form-hot cache hit ratio {} is below {FORM_HOT_MIN_HIT_RATIO}: it is not bypassing the solver",
            run.cache.describe()
        )),
        Workload::ReformLoop if hit > REFORM_MAX_HIT_RATIO => broken.push(format!(
            "reform-loop cache hit ratio {} is above {REFORM_MAX_HIT_RATIO}: it is not reaching the solver",
            run.cache.describe()
        )),
        _ => {}
    }
    broken
}

/// The end-to-end metrics in the result line: the ones that read the
/// same on repeated runs of the same code on a shared two-vCPU host
/// (see "Steadiness" in `README.md`).
fn end_to_end(run: &Run) -> Vec<Metric> {
    let latencies = form_latencies(run);
    vec![
        Metric {
            name: "setup_s".to_string(),
            unit: "s",
            value: median(&run.setup_s).unwrap_or(0.0),
            detail: format!("median of {} launches", run.setup_s.len()),
        },
        Metric {
            name: "form_p50_ms".to_string(),
            unit: "ms",
            value: percentile(&latencies, 50.0).unwrap_or(0.0),
            detail: format!("n={}", latencies.len()),
        },
        Metric {
            name: "cpu_ms_per_form".to_string(),
            unit: "ms",
            value: run.daemon_cpu_s * 1e3 / run.seeds_formed.max(1) as f64,
            detail: format!("{:.3} daemon CPU s over {} seeds", run.daemon_cpu_s, run.seeds_formed),
        },
    ]
}

/// Form latencies in completion order, so windows are spans of time.
fn form_latencies(run: &Run) -> Vec<f64> {
    let mut forms = run.forms.clone();
    forms.sort_by(|a, b| a.0.total_cmp(&b.0));
    forms.iter().map(|f| f.1).collect()
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<32} {:>14.6} {:<6} ({})", m.name, m.value, m.unit, m.detail);
    }
}

/// End-to-end metrics that are reported but not in the result line:
/// the tail and the rate swing with the host's load, and the rest apply
/// to only some workloads or are normally zero.
fn print_side_metrics(run: &Run) {
    let latencies = form_latencies(run);
    let n = latencies.len();
    if let Some((p99, windows)) = windowed_percentile(&latencies, P99_WINDOW, 99.0) {
        println!("  {:<32} {p99:.6} ms (median of {windows} window p99s; n={n})", "form_p99_ms");
    }
    if let Some((rate, windows)) = windowed_rate(&run.formed_at, run.elapsed_s, RATE_WINDOW_S) {
        println!(
            "  {:<32} {rate:.1} 1/s (median of {windows} {RATE_WINDOW_S}-s windows; {} seeds in {:.2} s)",
            "forms_per_s", run.seeds_formed, run.elapsed_s
        );
    }
    let attempted = run.tally.attempted.max(1) as f64;
    let write = |p: f64| match percentile(&run.write_ms, p) {
        Some(v) => format!("{v:.6} ms (n={})", run.write_ms.len()),
        None => "n/a (no writes in this workload)".to_string(),
    };
    println!("  {:<32} {}", "write_p50_ms", write(50.0));
    println!("  {:<32} {}", "write_p99_ms", write(99.0));
    if !run.due_ms.is_empty() {
        let due = |p: f64| percentile(&run.due_ms, p).unwrap_or(0.0);
        println!(
            "  {:<32} {:.6} / {:.6} ms (n={}; from the due time, backlog included)",
            "form_due_p50_ms / p99",
            due(50.0),
            due(99.0),
            run.due_ms.len()
        );
    }
    match run.recovery_s {
        Some(s) => println!("  {:<32} {s:.6} s (n=1)", "recovery_s"),
        None => println!("  {:<32} n/a (reform-loop only)", "recovery_s"),
    }
    println!(
        "  {:<32} {:.6} ({} of {} attempted)",
        "shed_frac",
        run.tally.shed as f64 / attempted,
        run.tally.shed,
        run.tally.attempted
    );
    println!(
        "  {:<32} {:.6} ({} of {} attempted)",
        "error_frac",
        run.tally.failed as f64 / attempted,
        run.tally.failed,
        run.tally.attempted
    );
    println!("  {:<32} {}", "cache_hit_ratio", run.cache.describe());
    println!("  {:<32} {}", "capped_rounds", run.capped_rounds);
}

fn print_failures(failures: &[String], guards: &[String]) {
    for g in guards {
        println!("  SIZING GUARD FAILED: {g}");
    }
    for f in failures {
        println!("  FAILED: {f}");
    }
}

/// Git sha of the checkout (read from `.git` without running git),
/// or `unknown` outside a git checkout.
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

fn provenance(ctx: &Ctx, workload: Workload, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "provenance: sha={} nproc={nproc} profile={profile} workload={} seed={} seconds={} trace={} pool={}x{} pool_seed={}",
        git_sha(),
        workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(trace),
        pool::GSPS,
        pool::TASKS,
        pool::POOL_SEED,
    )
}

fn metric_values(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn result_line(o: &Outcome) -> String {
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(o.correct)),
        ("attempted".to_string(), Value::Int(o.attempted.max(1) as i64)),
        ("failed".to_string(), Value::Int(o.failed as i64)),
        ("metrics".to_string(), metric_values(&o.metrics)),
    ]);
    serde_json::to_string(&line).expect("a JSON value serializes")
}

/// Keep every result with its provenance under the work dir.
fn write_results(args: &Args, workload: Workload, o: &Outcome) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let record = Value::Object(vec![
        ("workload".to_string(), Value::Str(workload.name().to_string())),
        ("seed".to_string(), Value::Int(args.seed as i64)),
        ("seconds".to_string(), Value::Float(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("sha".to_string(), Value::Str(git_sha())),
        ("nproc".to_string(), Value::Int(nproc as i64)),
        (
            "profile".to_string(),
            Value::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ),
        ("correct".to_string(), Value::Bool(o.correct)),
        ("attempted".to_string(), Value::Int(o.attempted as i64)),
        ("failed".to_string(), Value::Int(o.failed as i64)),
        ("metrics".to_string(), metric_values(&o.metrics)),
    ]);
    let path = Path::new(WORK_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let json = serde_json::to_string(&record).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
