//! Fault-injection benchmark: recovery rate, payoff retention and
//! recovery latency vs. fault rate, emitted as `BENCH_faults.json`.
//!
//! For each fault rate, a VO is formed per seed (TVOF, paper config),
//! a seeded fault plan is drawn (50% crashes, 30% slowdowns, 20%
//! silent drops over 4 execution rounds) and the VO is executed under
//! the repair-first recovery policy.
//!
//! **This binary is a gate**: it exits non-zero unless the rate-0 row
//! shows the empty-plan pass-through — at least one run, every run
//! completed at payoff retention exactly 1 (mean 1, std 0), and no
//! recovery episode. CI runs it on every push.

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_sim::{experiments, report};

const RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];
const ROUNDS: usize = 4;

fn main() {
    let args = BenchArgs::from_env();
    let cfg = args.table();
    let tasks = args.program_size();
    let points = match experiments::fault_sweep(&cfg, tasks, &RATES, ROUNDS, &args.seeds) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fault sweep failed: {e}");
            std::process::exit(1);
        }
    };
    let csv = report::faults_csv(&points);
    print!("{csv}");
    args.write_artifact("fault_sweep.csv", &csv).unwrap();

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.fault_rate),
                format!("{:.2}", p.recovery_rate.mean),
                format!("{:.2}", p.completion_rate),
                format!("{:.3}", p.payoff_retention.mean),
                format!("{:.2}", p.repair_fraction),
                format!("{:.4}", p.recovery_seconds.mean),
                p.runs.to_string(),
            ]
        })
        .collect();
    eprintln!(
        "{}",
        ascii_table(
            &["rate", "recovered", "completed", "retention", "repair", "latency s", "runs"],
            &rows
        )
    );
    args.write_artifact("BENCH_faults.json", &report::to_json(&points)).unwrap();

    // The gate: with no faults, execution must echo the formed VO.
    let clean = points.iter().find(|p| p.fault_rate == 0.0).expect("RATES includes 0");
    let mut failures = Vec::new();
    if clean.runs == 0 {
        failures.push("no run formed a VO, so nothing was executed".to_string());
    }
    if clean.completion_rate != 1.0 {
        failures.push(format!("completion rate {} != 1", clean.completion_rate));
    }
    let retention = &clean.payoff_retention;
    if retention.mean != 1.0 || retention.std != 0.0 {
        failures.push(format!("payoff retention {} ± {} != 1 ± 0", retention.mean, retention.std));
    }
    if clean.recovery_seconds.n > 0 {
        failures.push(format!("{} recovery episodes without a fault", clean.recovery_seconds.n));
    }
    for f in &failures {
        eprintln!("GATE FAILURE at fault rate 0: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!("gate passed: the fault-free row is a lossless pass-through");
}
