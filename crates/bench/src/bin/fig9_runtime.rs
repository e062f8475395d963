//! Fig. 9 — mechanism execution time vs number of tasks — plus the
//! incremental-engine benchmark (the same workload run cold vs warm)
//! and the anytime scale frontier (exact-solver formation under a
//! wall-clock budget per provider-pool size), emitted together as
//! `BENCH_formation.json`.
//!
//! Gates (exit 1 on violation):
//! * every small-scale bit-identity cross-check passes — a `Budget`
//!   node cap truncates the exact solver exactly as the same cap set
//!   as `BranchBound::max_nodes` does, trace for trace;
//! * the 64-GSP frontier point forms VOs within its wall-clock budget
//!   with a mean selected-VO optimality gap ≤ 5%.
//!
//! Thin per-figure entry point over the shared task sweep; run
//! `sweep_all` to regenerate Figs. 1/2/3/9 in one pass instead.

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_sim::{experiments, report};

/// Provider-pool sizes of the scale frontier.
const SCALE_GSPS: [usize; 4] = [8, 16, 32, 64];
/// Wall-clock budget per budgeted formation run.
const SCALE_BUDGET_MS: u64 = 2_000;
/// The 64-GSP gate: mean selected-VO gap at the largest scale.
const SCALE_GAP_GATE: f64 = 0.05;

fn main() {
    let args = BenchArgs::from_env();
    let cfg = args.table();
    let points = match experiments::task_sweep(&cfg, &args.seeds) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    };
    let csv = report::fig9_csv(&points);
    print!("{csv}");
    args.write_artifact("fig9_runtime.csv", &csv).unwrap();

    let wc = match experiments::warm_cold_sweep(&cfg, &args.seeds) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("warm/cold sweep failed: {e}");
            std::process::exit(1);
        }
    };
    let rows: Vec<Vec<String>> = wc
        .iter()
        .map(|p| {
            vec![
                p.tasks.to_string(),
                format!("{:.4}", p.cold_seconds.mean),
                format!("{:.4}", p.warm_seconds.mean),
                p.cold_nodes.to_string(),
                p.warm_nodes.to_string(),
                format!("{:.2}x", p.speedup),
            ]
        })
        .collect();
    eprintln!(
        "{}",
        ascii_table(&["tasks", "cold s", "warm s", "cold nodes", "warm nodes", "speedup"], &rows)
    );
    let scale = match experiments::scale_sweep(&cfg, &SCALE_GSPS, SCALE_BUDGET_MS, &args.seeds) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("scale sweep failed: {e}");
            std::process::exit(1);
        }
    };
    let scale_rows: Vec<Vec<String>> = scale
        .iter()
        .map(|p| {
            vec![
                p.gsps.to_string(),
                p.tasks.to_string(),
                format!("{:.3}", p.seconds.mean),
                p.nodes.to_string(),
                format!("{:.2}%", p.mean_gap * 100.0),
                format!("{:.2}%", p.worst_gap * 100.0),
                format!("{}/{}", p.truncated_runs, p.formed_runs),
                p.exact_match.map_or("n/a".to_string(), |m| m.to_string()),
            ]
        })
        .collect();
    eprintln!(
        "{}",
        ascii_table(
            &["gsps", "tasks", "mean s", "nodes", "mean gap", "worst gap", "trunc/formed", "exact"],
            &scale_rows,
        )
    );
    args.write_artifact("scale_frontier.csv", &report::scale_csv(&scale)).unwrap();
    args.write_artifact(
        "BENCH_formation.json",
        &report::to_json(&report::BenchFormation { warm_cold: wc, scale_frontier: scale.clone() }),
    )
    .unwrap();

    let mut failed = false;
    for p in &scale {
        if p.exact_match == Some(false) {
            eprintln!(
                "GATE FAIL: {}-GSP formation under a Budget node cap diverged from \
                 BranchBound::max_nodes at the same cap",
                p.gsps
            );
            failed = true;
        }
    }
    if let Some(frontier) = scale.iter().find(|p| p.gsps == 64) {
        if frontier.formed_runs == 0 {
            eprintln!("GATE FAIL: no 64-GSP run formed a VO within the budget");
            failed = true;
        } else if frontier.mean_gap > SCALE_GAP_GATE {
            eprintln!(
                "GATE FAIL: 64-GSP mean gap {:.2}% exceeds {:.0}%",
                frontier.mean_gap * 100.0,
                SCALE_GAP_GATE * 100.0
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
