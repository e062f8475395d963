//! Multi-VO market benchmark: trace-driven contention sweep over
//! concurrent application counts (1..=8), measuring formation
//! throughput, mean lease wait, shed rate, peak concurrently-live
//! leases and hedonic-stability violations. Emits `BENCH_market.json`.
//!
//! The gate is a **serialized-replay oracle**: re-running the most
//! contended point with `min_free = pool size` must serialize the
//! market (at most one live lease, zero cross-VO stability
//! violations), and every point must be bit-reproducible — the same
//! trace and seeds replayed twice must produce the identical report.
//! The artifact is written before the gate decides the exit code.

use std::time::Instant;

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_sim::market::{run_market, synthetic_trace, MarketConfig, MarketReport, TASKS};
use gridvo_sim::TableI;
use serde::Serialize;

const APP_COUNTS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const GSPS: usize = 12;

#[derive(Debug, Serialize)]
struct MarketPoint {
    apps: usize,
    jobs: u64,
    formed: u64,
    shed: u64,
    shed_rate: f64,
    mean_wait_s: f64,
    max_live_leases: usize,
    stability_violations: u64,
    /// Formations per wall-clock second across every seed's run.
    throughput_forms_per_s: f64,
}

#[derive(Debug, Serialize)]
struct SerializedOracle {
    apps: usize,
    min_free: usize,
    max_live_leases: usize,
    stability_violations: u64,
    deterministic: bool,
}

#[derive(Debug, Serialize)]
struct MarketBench {
    gsps: usize,
    tasks: usize,
    trace_jobs: usize,
    seeds: Vec<u64>,
    sweep: Vec<MarketPoint>,
    oracle: SerializedOracle,
}

fn config(apps: usize, min_free: usize, seed: u64) -> MarketConfig {
    MarketConfig { table: TableI { gsps: GSPS, ..TableI::small() }, apps, seed, min_free }
}

/// One sweep point: the same trace under every seed, tallies summed.
fn run_point(apps: usize, trace_jobs: usize, seeds: &[u64]) -> MarketPoint {
    let mut jobs = 0;
    let mut formed = 0;
    let mut shed = 0;
    let mut wait_weighted = 0.0;
    let mut max_live = 0;
    let mut violations = 0;
    let start = Instant::now();
    for &seed in seeds {
        let trace = synthetic_trace(trace_jobs, 100 + seed);
        let report = run_market(&trace, &config(apps, 1, seed)).expect("market run");
        jobs += report.jobs;
        formed += report.formed;
        shed += report.shed;
        wait_weighted += report.mean_wait_s * report.formed as f64;
        max_live = max_live.max(report.max_live_leases);
        violations += report.stability_violations;
    }
    let wall = start.elapsed().as_secs_f64();
    MarketPoint {
        apps,
        jobs,
        formed,
        shed,
        shed_rate: shed as f64 / jobs.max(1) as f64,
        mean_wait_s: wait_weighted / formed.max(1) as f64,
        max_live_leases: max_live,
        stability_violations: violations,
        throughput_forms_per_s: formed as f64 / wall.max(1e-9),
    }
}

fn run_oracle(apps: usize, trace_jobs: usize, seed: u64) -> (SerializedOracle, MarketReport) {
    let trace = synthetic_trace(trace_jobs, 100 + seed);
    let cfg = config(apps, GSPS, seed);
    let first = run_market(&trace, &cfg).expect("oracle run");
    let second = run_market(&trace, &cfg).expect("oracle rerun");
    let oracle = SerializedOracle {
        apps,
        min_free: GSPS,
        max_live_leases: first.max_live_leases,
        stability_violations: first.stability_violations,
        deterministic: first == second,
    };
    (oracle, first)
}

fn main() {
    let args = BenchArgs::from_env();
    let trace_jobs = if args.paper { 600 } else { 150 };

    let sweep: Vec<MarketPoint> =
        APP_COUNTS.iter().map(|&apps| run_point(apps, trace_jobs, &args.seeds)).collect();

    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            vec![
                p.apps.to_string(),
                p.jobs.to_string(),
                p.formed.to_string(),
                format!("{:.2}", p.shed_rate),
                format!("{:.0}", p.mean_wait_s),
                p.max_live_leases.to_string(),
                p.stability_violations.to_string(),
                format!("{:.1}", p.throughput_forms_per_s),
            ]
        })
        .collect();
    eprintln!(
        "{}",
        ascii_table(
            &["apps", "jobs", "formed", "shed rate", "wait s", "max live", "violations", "forms/s"],
            &rows
        )
    );

    let top_apps = *APP_COUNTS.last().unwrap();
    let (oracle, oracle_report) = run_oracle(top_apps, trace_jobs, args.seeds[0]);
    eprintln!(
        "serialized oracle ({} apps, min_free = {}): max live {}, violations {}, formed {}",
        oracle.apps,
        oracle.min_free,
        oracle.max_live_leases,
        oracle.stability_violations,
        oracle_report.formed,
    );

    let mut gate_failed = false;
    if oracle.max_live_leases > 1 {
        eprintln!(
            "error: serialized replay held {} concurrent leases — min_free does not serialize",
            oracle.max_live_leases
        );
        gate_failed = true;
    }
    if oracle.stability_violations > 0 {
        eprintln!(
            "error: serialized replay reported {} stability violations — a lone live VO \
             has nothing to defect to",
            oracle.stability_violations
        );
        gate_failed = true;
    }
    if !oracle.deterministic {
        eprintln!("error: replaying the same trace twice produced different reports");
        gate_failed = true;
    }
    if sweep.iter().all(|p| p.formed == 0) {
        eprintln!("error: no point ever formed a VO — the sweep measured nothing");
        gate_failed = true;
    }
    let contended_sheds = sweep.last().map(|p| p.shed).unwrap_or(0);
    if contended_sheds == 0 {
        eprintln!(
            "warning: the most contended point ({top_apps} apps) never shed — \
             contention pressure may be too low to measure"
        );
    }

    let bench = MarketBench {
        gsps: GSPS,
        tasks: TASKS,
        trace_jobs,
        seeds: args.seeds.clone(),
        sweep,
        oracle,
    };
    let json = serde_json::to_string_pretty(&bench).expect("bench report serializes");
    args.write_artifact("BENCH_market.json", &json).unwrap();

    // The artifact is written either way (the numbers are the
    // evidence); only then does the gate decide the exit code.
    if gate_failed {
        std::process::exit(1);
    }
}
