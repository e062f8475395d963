//! `gridvo solve` — one task-assignment IP, standalone.

use crate::args::Flags;
use crate::commands::load_scenario;
use gridvo_solver::branch_bound::{BranchBound, Budget, SolveStatus};
use gridvo_solver::heuristics::{self, Heuristic};
use gridvo_solver::parallel::ParallelBranchBound;
use std::time::{Duration, Instant};

const HELP: &str = "\
usage: gridvo solve --scenario FILE [--members 0,2,5]
                    [--solver exact|parallel|greedy|min-min|max-min|sufferage]
                    [--deadline-ms MS] [--max-nodes N]

Solves the task-assignment IP for the given VO (default: all GSPs),
printing the status, optimal cost, per-GSP loads and task counts.
The exact and parallel solvers seed their search with the cheapest
of greedy, min-min and sufferage (greedy alone above 512 tasks) and
return that seed at once when it meets the root lower bound.
--deadline-ms and --max-nodes bound the solve (exact and parallel
solvers); a truncated solve prints its best anytime incumbent plus
the relative optimality gap.";

pub fn run(argv: &[String]) -> Result<(), String> {
    let flags =
        Flags::parse(argv, &["scenario", "members", "solver", "deadline-ms", "max-nodes"], &[])
            .map_err(|e| if e == "help" { HELP.to_string() } else { e })?;
    let scenario = load_scenario(flags.require("scenario")?)?;
    let members = flags.list("members")?.unwrap_or_else(|| (0..scenario.gsp_count()).collect());
    for &m in &members {
        if m >= scenario.gsp_count() {
            return Err(format!("GSP {m} out of range (m = {})", scenario.gsp_count()));
        }
    }
    let inst = scenario
        .instance_for(&members)
        .ok_or_else(|| "VO cannot host the program (constraint (13))".to_string())?;

    let budget = Budget {
        deadline: match flags.num("deadline-ms", 0u64)? {
            0 => None,
            ms => Some(Instant::now() + Duration::from_millis(ms)),
        },
        max_nodes: match flags.num("max-nodes", 0u64)? {
            0 => u64::MAX,
            n => n,
        },
    };
    let report_status = |status: SolveStatus| match status {
        SolveStatus::Optimal(o) => {
            println!(
                "status: OPTIMAL (proven, {} nodes, incumbent: {})",
                o.nodes,
                o.incumbent_source.as_str()
            );
            Some((o.assignment, o.cost))
        }
        SolveStatus::Feasible(o) => {
            println!(
                "status: FEASIBLE ({}, {} nodes, incumbent: {}, gap {})",
                if o.deadline_hit { "deadline-truncated" } else { "budget-truncated" },
                o.nodes,
                o.incumbent_source.as_str(),
                o.gap.map_or("unknown".to_string(), |g| format!("{:.2}%", g * 100.0)),
            );
            Some((o.assignment, o.cost))
        }
        SolveStatus::Infeasible { nodes } => {
            println!("status: INFEASIBLE (proven, {nodes} nodes)");
            None
        }
        SolveStatus::Unknown { nodes } => {
            println!("status: UNKNOWN (budget exhausted, {nodes} nodes)");
            None
        }
    };
    let solver_name = flags.get("solver").unwrap_or("exact");
    let solved = match solver_name {
        "exact" => {
            report_status(BranchBound::default().solve_status_with_budget(&inst, None, &budget))
        }
        "parallel" => report_status(
            ParallelBranchBound::default().solve_status_with_budget(&inst, None, &budget),
        ),
        name => {
            let kind = match name {
                "greedy" => Heuristic::GreedyCost,
                "min-min" => Heuristic::MinMin,
                "max-min" => Heuristic::MaxMin,
                "sufferage" => Heuristic::Sufferage,
                other => return Err(format!("unknown solver {other:?}")),
            };
            heuristics::run(kind, &inst).map(|a| {
                let c = a.total_cost(&inst);
                println!("status: HEURISTIC-FEASIBLE (no optimality proof)");
                (a, c)
            })
        }
    };

    let Some((assignment, cost)) = solved else {
        println!("no feasible assignment for VO {members:?}");
        return Ok(());
    };
    println!(
        "VO {members:?}: cost {cost:.2} of payment {:.0} → value {:.2}",
        inst.payment(),
        (inst.payment() - cost).max(0.0)
    );
    println!("gsp  tasks  load (s)  deadline {:.0} s", inst.deadline());
    let loads = assignment.loads(&inst);
    let counts = assignment.task_counts(&inst);
    for (i, &g) in members.iter().enumerate() {
        println!("{g:>3}  {:>5}  {:>8.1}", counts[i], loads[i]);
    }
    Ok(())
}
