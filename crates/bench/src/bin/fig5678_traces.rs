//! Figs. 5–8 — TVOF and RVOF iteration traces on two programs (A and
//! B) of 256 tasks: per iteration, the candidate VO's size, individual
//! payoff and average global reputation. Each program's two
//! formations run once and feed both figure pairs.
//!
//! The paper's observations: under TVOF (Figs. 5–6) payoff and
//! reputation both rise as low-reputation members are evicted, and the
//! final (selected) VO sits at or near both maxima; under RVOF (Figs.
//! 7–8) random evictions make the average global reputation wander
//! instead of increase, so the max-payoff VO generally does *not* have
//! the best payoff × reputation product.

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_core::IterationRecord;
use gridvo_sim::{experiments, report};

fn table(iterations: &[IterationRecord]) -> String {
    let rows: Vec<Vec<String>> = iterations
        .iter()
        .map(|it| {
            vec![
                it.iteration.to_string(),
                it.members.len().to_string(),
                it.feasible.to_string(),
                it.payoff_share.map_or("-".into(), |p| format!("{p:.2}")),
                format!("{:.4}", it.avg_reputation),
            ]
        })
        .collect();
    ascii_table(&["iter", "|VO|", "feasible", "payoff", "avg rep"], &rows)
}

fn main() {
    let args = BenchArgs::from_env();
    let cfg = args.table();
    for (label, seed) in [("A", 11u64), ("B", 22u64)] {
        let trace = match experiments::iteration_trace(&cfg, args.program_size(), seed) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("trace {label} failed: {e}");
                std::process::exit(1);
            }
        };
        println!("== Program {label} (seed {seed}) — TVOF iterations ==");
        println!("{}", table(&trace.tvof));
        println!("== Program {label} (seed {seed}) — RVOF iterations ==");
        println!("{}", table(&trace.rvof));
        let csv = report::trace_csv(&trace);
        for fig in ["fig56", "fig78"] {
            args.write_artifact(&format!("{fig}_program_{label}.csv"), &csv).unwrap();
        }
        args.write_artifact(&format!("fig56_program_{label}.json"), &report::to_json(&trace))
            .unwrap();
        args.write_artifact(
            &format!("fig56_program_{label}.gnuplot"),
            &report::trace_gnuplot(
                &format!("fig56_program_{label}.csv"),
                &format!("fig56_program_{label}.png"),
                "TVOF",
                &format!("TVOF iterations, program {label}"),
            ),
        )
        .unwrap();
    }
}
