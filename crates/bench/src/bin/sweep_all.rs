//! Regenerate Figs. 1, 2, 3 and 9 in one pass: sweep program sizes,
//! run TVOF and RVOF on the same scenarios, and emit all four CSVs
//! plus a JSON archive. The same pass runs the incremental-engine
//! benchmark (the Fig. 9 workload cold vs warm) and the anytime scale
//! frontier (exact-solver formation under a wall-clock budget per
//! provider-pool size), emitted together as `BENCH_formation.json`.
//!
//! Gate (exit 1 on violation): the 64-GSP frontier point forms VOs
//! within its wall-clock budget with a mean selected-VO optimality
//! gap ≤ 5%.

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
    eprintln!(
        "task sweep: sizes {:?}, {} seeds, m = {} GSPs{}",
        cfg.task_sizes,
        args.seeds.len(),
        cfg.gsps,
        if args.paper { " (paper scale)" } else { " (quick scale; --paper for full)" }
    );
    let points = match experiments::task_sweep(&cfg, &args.seeds) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    };

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.tasks.to_string(),
                format!("{:.2}", p.tvof_payoff.mean),
                format!("{:.2}", p.rvof_payoff.mean),
                format!("{:.2}", p.tvof_vo_size.mean),
                format!("{:.2}", p.rvof_vo_size.mean),
                format!("{:.4}", p.tvof_reputation.mean),
                format!("{:.4}", p.rvof_reputation.mean),
                format!("{:.2}", p.tvof_seconds.mean),
                format!("{:.2}", p.rvof_seconds.mean),
            ]
        })
        .collect();
    println!(
        "{}",
        ascii_table(
            &[
                "tasks",
                "TVOF payoff",
                "RVOF payoff",
                "TVOF |VO|",
                "RVOF |VO|",
                "TVOF rep",
                "RVOF rep",
                "TVOF s",
                "RVOF s"
            ],
            &rows
        )
    );

    let wc = match experiments::warm_cold_sweep(&cfg, &args.seeds) {
        Ok(wc) => wc,
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
    let rows: Vec<Vec<String>> = scale
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
            ]
        })
        .collect();
    eprintln!(
        "{}",
        ascii_table(
            &["gsps", "tasks", "mean s", "nodes", "mean gap", "worst gap", "trunc/formed"],
            &rows,
        )
    );
    let frontier = scale.iter().find(|p| p.gsps == 64).map(|p| (p.formed_runs, p.mean_gap));
    args.write_artifact("scale_frontier.csv", &report::scale_csv(&scale)).unwrap();
    args.write_artifact(
        "BENCH_formation.json",
        &report::to_json(&report::BenchFormation { warm_cold: wc, scale_frontier: scale }),
    )
    .unwrap();

    args.write_artifact("fig1_payoff.csv", &report::fig1_csv(&points)).unwrap();
    args.write_artifact("fig2_vo_size.csv", &report::fig2_csv(&points)).unwrap();
    args.write_artifact("fig3_reputation.csv", &report::fig3_csv(&points)).unwrap();
    args.write_artifact("fig9_runtime.csv", &report::fig9_csv(&points)).unwrap();
    args.write_artifact("sweep.json", &report::to_json(&points)).unwrap();
    for (csv, png, title, label) in [
        ("fig1_payoff.csv", "fig1.png", "Fig. 1 - GSP individual payoff", "Payoff per GSP"),
        ("fig2_vo_size.csv", "fig2.png", "Fig. 2 - final VO size", "VO size (GSPs)"),
        (
            "fig3_reputation.csv",
            "fig3.png",
            "Fig. 3 - average reputation",
            "Average global reputation",
        ),
        ("fig9_runtime.csv", "fig9.png", "Fig. 9 - execution time", "Seconds"),
    ] {
        let script = report::sweep_gnuplot(csv, png, title, label);
        let name = png.replace(".png", ".gnuplot");
        args.write_artifact(&name, &script).unwrap();
    }

    if let Some((formed_runs, mean_gap)) = frontier {
        if formed_runs == 0 {
            eprintln!("GATE FAIL: no 64-GSP run formed a VO within the budget");
            std::process::exit(1);
        }
        if mean_gap > SCALE_GAP_GATE {
            eprintln!(
                "GATE FAIL: 64-GSP mean gap {:.2}% exceeds {:.0}%",
                mean_gap * 100.0,
                SCALE_GAP_GATE * 100.0
            );
            std::process::exit(1);
        }
    }
}
