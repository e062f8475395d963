//! `gridvo form` — run TVOF/RVOF on a scenario file.

use crate::args::Flags;
use crate::commands::{load_scenario, mechanism, write_json};
use gridvo_core::stability;
use rand::SeedableRng;

const HELP: &str = "\
usage: gridvo form --scenario FILE [--mechanism tvof|rvof] [--seed S]
                   [--out outcome.json] [--audit]

Runs Algorithm 1 on the scenario, printing the iteration trace and the
selected VO. --audit additionally verifies Theorems 1 and 2 on the
result (re-solves the IP per member departure).";

pub fn run(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, &["scenario", "mechanism", "seed", "out"], &["audit"])
        .map_err(|e| if e == "help" { HELP.to_string() } else { e })?;
    let scenario = load_scenario(flags.require("scenario")?)?;
    let seed: u64 = flags.num("seed", 1)?;
    let mech = mechanism(&flags)?.mechanism();

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let outcome = mech.run(&scenario, &mut rng).map_err(|e| e.to_string())?;

    outln!("iter  |VO|  feasible     payoff   avg rep  evicted     nodes  incumbent  pow-it");
    for it in &outcome.iterations {
        outln!(
            "{:>4}  {:>4}  {:>8}  {:>9}  {:>8.4}  {:>7}  {:>8}  {:>9}  {:>6}",
            it.iteration,
            it.members.len(),
            it.feasible,
            it.payoff_share.map_or("-".to_string(), |p| format!("{p:.1}")),
            it.avg_reputation,
            it.evicted.map_or("-".to_string(), |g| g.to_string()),
            it.nodes,
            it.incumbent_source.as_deref().unwrap_or("-"),
            it.power_iterations,
        );
    }
    match &outcome.selected {
        Some(vo) => {
            outln!(
                "\nselected VO {:?}: payoff/GSP {:.2}, avg reputation {:.4}, cost {:.1} \
                 (optimal: {}), {:.2} s",
                vo.members,
                vo.payoff_share,
                vo.avg_reputation,
                vo.cost,
                vo.optimal,
                outcome.total_seconds
            );
        }
        None => outln!("\nno feasible VO — the program cannot be executed"),
    }

    if flags.has("audit") {
        if let Some(vo) = &outcome.selected {
            let verdict =
                stability::audit_individual_stability(&scenario, vo).map_err(|e| e.to_string())?;
            outln!("Theorem 1 (individual stability): {verdict:?}");
        }
        if let Some(ok) = stability::audit_pareto_optimality(&outcome) {
            outln!("Theorem 2 (Pareto optimal in L):  {ok}");
        }
    }

    if let Some(out) = flags.get("out") {
        write_json(out, &outcome)?;
    }
    Ok(())
}
