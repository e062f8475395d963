//! Beyond-paper ablation: what exactness buys inside the mechanism.
//!
//! Runs TVOF with the exact branch-and-bound and each heuristic from
//! the Braun family, on the same scenarios, reporting the selected
//! VO's payoff (heuristics can only lose profit — cost is minimized
//! exactly or not) and the mechanism wall-clock time.

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_core::mechanism::{FormationConfig, Mechanism, SolverChoice};
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::{seeded_rng, Aggregate};
use gridvo_solver::branch_bound::BranchBound;
use gridvo_solver::heuristics::Heuristic;

fn main() {
    let args = BenchArgs::from_env();
    let cfg = args.table();
    let generator = ScenarioGenerator::new(cfg.clone());
    let tasks = args.program_size();

    let solvers: Vec<(&str, SolverChoice)> = vec![
        ("exact B&B", SolverChoice::Exact(BranchBound { max_nodes: cfg.solver_node_budget })),
        ("greedy-cost", SolverChoice::Heuristic(Heuristic::GreedyCost)),
        ("min-min", SolverChoice::Heuristic(Heuristic::MinMin)),
        ("max-min", SolverChoice::Heuristic(Heuristic::MaxMin)),
        ("sufferage", SolverChoice::Heuristic(Heuristic::Sufferage)),
    ];

    let mut rows = Vec::new();
    let mut csv = String::from("solver,payoff_mean,payoff_std,seconds_mean,formed\n");
    for (name, solver) in solvers {
        let mech_cfg = FormationConfig { solver, ..Default::default() };
        let mut payoffs = Vec::new();
        let mut seconds = Vec::new();
        let mut formed = 0usize;
        for &seed in &args.seeds {
            let mut rng = seeded_rng(0xAB50, seed);
            let scenario = generator.scenario(tasks, &mut rng).expect("calibrated scenario");
            let outcome =
                Mechanism::tvof(mech_cfg).run(&scenario, &mut rng).expect("mechanism runs");
            seconds.push(outcome.total_seconds);
            if let Some(vo) = outcome.selected {
                payoffs.push(vo.payoff_share);
                formed += 1;
            }
        }
        let p = Aggregate::of(&payoffs);
        let t = Aggregate::of(&seconds);
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
