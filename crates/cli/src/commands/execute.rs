//! `gridvo execute` — form a VO and run it against injected faults.

use crate::args::Flags;
use crate::commands::{load_scenario, mechanism, write_json};
use gridvo_core::{ExecutionStatus, FaultPlan};
use gridvo_sim::faults::FaultModel;
use rand::SeedableRng;

const HELP: &str = "\
usage: gridvo execute --scenario FILE [--mechanism tvof|rvof] [--seed S]
                      [--faults RATE] [--fault-rounds K] [--plan plan.json]
                      [--out report.json]

Runs Algorithm 1, then executes the selected VO against a fault plan:
crashes, slowdowns and silent task drops, recovered repair-first with a
full re-solve fallback. The plan is drawn from a seeded model at the
given per-member, per-round rate (--faults, default 0.2 over
--fault-rounds rounds, default 4), or loaded verbatim from --plan.
With an empty plan, execution is a pure pass-through of the formation
output.";

pub fn run(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        argv,
        &["scenario", "mechanism", "seed", "faults", "fault-rounds", "plan", "out"],
        &[],
    )
    .map_err(|e| if e == "help" { HELP.to_string() } else { e })?;
    let scenario = load_scenario(flags.require("scenario")?)?;
    let seed: u64 = flags.num("seed", 1)?;
    let rate: f64 = flags.num("faults", 0.2)?;
    let rounds: usize = flags.num("fault-rounds", 4)?;
    let mech = mechanism(&flags)?.mechanism();

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let outcome = mech.run(&scenario, &mut rng).map_err(|e| e.to_string())?;
    let Some(vo) = &outcome.selected else {
        outln!("no feasible VO — nothing to execute");
        return Ok(());
    };
    outln!("formed VO {:?}: payoff/GSP {:.2}, cost {:.1}", vo.members, vo.payoff_share, vo.cost);

    let plan = match flags.get("plan") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read plan {path}: {e}"))?;
            serde_json::from_str::<FaultPlan>(&text)
                .map_err(|e| format!("invalid fault plan JSON in {path}: {e}"))?
        }
        None => FaultModel::with_rate(rate, rounds).plan(&vo.members, &mut rng),
    };
    outln!("fault plan: {} event(s) over {} round(s)", plan.len(), plan.horizon());

    let report = mech.execute(&scenario, vo, &plan).map_err(|e| e.to_string())?;

    if !report.recoveries.is_empty() {
        outln!("\nround  gsp  fault        recovery  orphans  cost delta     nodes   avg rep");
        for r in &report.recoveries {
            let fault = match r.fault {
                gridvo_core::FaultKind::Crash => "crash".to_string(),
                gridvo_core::FaultKind::Slowdown { factor } => format!("slow x{factor:.2}"),
                gridvo_core::FaultKind::SilentDrop { tasks } => format!("drop {tasks}"),
            };
            outln!(
                "{:>5}  {:>3}  {:<11}  {:<8}  {:>7}  {:>+10.2}  {:>8}  {:>8.4}",
                r.round,
                r.gsp,
                fault,
                r.recovery_kind.as_str(),
                r.orphaned_tasks,
                r.cost_delta,
                r.resolve_nodes,
                r.avg_reputation_after,
            );
        }
    }
    match report.status {
        ExecutionStatus::Completed { degraded } => outln!(
            "\ncompleted{}: members {:?}, cost {:.1}, payoff/GSP {:.2} (retention {:.2})",
            if degraded { " (degraded)" } else { "" },
            report.final_members,
            report.final_cost,
            report.final_payoff_share,
            report.payoff_retention,
        ),
        ExecutionStatus::Abandoned { round } => {
            outln!("\nabandoned in round {round}: no feasible recovery — the program is lost")
        }
    }

    if let Some(out) = flags.get("out") {
        write_json(out, &report)?;
    }
    Ok(())
}
