//! Beyond-paper ablation: what exactness buys inside the mechanism.
//!
//! Runs TVOF with the exact branch-and-bound and each heuristic from
//! the Braun family, on the same scenarios, reporting the selected
//! VO's payoff (heuristics can only lose profit — cost is minimized
//! exactly or not) and the mechanism wall-clock time.

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_core::mechanism::{FormationConfig, Mechanism, SolverChoice};
use gridvo_sim::experiments::{aggregate_formed, mechanism_ablation};
use gridvo_sim::runner::Aggregate;
use gridvo_solver::branch_bound::BranchBound;
use gridvo_solver::heuristics::Heuristic;

fn main() {
    let args = BenchArgs::from_env();
    let cfg = args.table();

    let solvers: Vec<(&str, SolverChoice)> = vec![
        ("exact B&B", SolverChoice::Exact(BranchBound { max_nodes: cfg.solver_node_budget })),
        ("greedy-cost", SolverChoice::Heuristic(Heuristic::GreedyCost)),
        ("min-min", SolverChoice::Heuristic(Heuristic::MinMin)),
        ("max-min", SolverChoice::Heuristic(Heuristic::MaxMin)),
        ("sufferage", SolverChoice::Heuristic(Heuristic::Sufferage)),
    ];
    let mechanisms: Vec<Mechanism> = solvers
        .iter()
        .map(|&(_, solver)| Mechanism::tvof(FormationConfig { solver, ..Default::default() }))
        .collect();
    let runs = mechanism_ablation(&cfg, args.program_size(), 0xAB50, &args.seeds, &mechanisms)
        .expect("ablation runs");

    let mut rows = Vec::new();
    let mut csv = String::from("solver,payoff_mean,payoff_std,seconds_mean,formed\n");
    for ((name, _), runs) in solvers.iter().zip(&runs) {
        let p = aggregate_formed(runs, |m| m.payoff_share);
        let t = Aggregate::of(&runs.iter().map(|m| m.seconds).collect::<Vec<_>>());
        let formed = runs.iter().filter(|m| m.formed).count();
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", p.mean),
            format!("{:.3}", t.mean),
            format!("{}/{}", formed, args.seeds.len()),
        ]);
        csv.push_str(&format!("{},{:.6},{:.6},{:.6},{}\n", name, p.mean, p.std, t.mean, formed));
    }
    println!("{}", ascii_table(&["solver", "payoff", "seconds", "formed"], &rows));
    args.write_artifact("ablation_solver.csv", &csv).unwrap();
}
