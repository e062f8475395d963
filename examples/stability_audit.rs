//! Stability and game-theoretic audit of a TVOF outcome.
//!
//! Runs TVOF on a generated scenario, audits Theorem 1 (individual
//! stability) and Theorem 2 (Pareto optimality over `L`), then treats
//! the whole federation as a coalitional game — `v(C)` = optimal
//! profit of VO `C` — and reports the equal-sharing vector against the
//! exact Shapley value and the least-core `ε*` (the paper's earlier
//! work showed this game's core can be empty).
//!
//! ```text
//! cargo run --release --example stability_audit
//! ```

use gridvo_core::game_adapter::vo_game;
use gridvo_core::mechanism::FormationConfig;
use gridvo_core::{pareto, stability};
use gridvo_game::core_solution::{is_in_core, least_core};
use gridvo_game::division::{equal_split, shapley_exact};
use gridvo_game::CharacteristicFn;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::TableI;
use gridvo_solver::branch_bound::BranchBound;
use rand::SeedableRng;

fn main() {
    // Small federation so the exponential game analyses stay instant.
    let cfg = TableI {
        gsps: 6,
        task_sizes: vec![24],
        trace_jobs: 3_000,
        deadline_factor_range: (4.0, 16.0), // tiny programs need looser deadlines
        ..TableI::default()
    };
    let generator = ScenarioGenerator::new(cfg.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let scenario = generator.scenario(24, &mut rng).expect("calibrated scenario");

    // --- TVOF + the paper's theorem audits.
    let (outcome, stability_verdict, pareto_ok) =
        stability::run_and_audit(&scenario, FormationConfig::default(), &mut rng)
            .expect("mechanism runs");
    let vo = outcome.selected.clone().expect("feasible VO exists");
    println!("TVOF selected VO {:?}", vo.members);
    println!("  payoff/GSP {:.2}, avg reputation {:.4}", vo.payoff_share, vo.avg_reputation);
    println!("  Theorem 1 (individual stability): {:?}", stability_verdict.unwrap());
    println!("  Theorem 2 (Pareto optimal in L):  {:?}", pareto_ok.unwrap());
    let front = pareto::pareto_front(&outcome.feasible_vos);
    println!("  Pareto front of L: {} of {} feasible VOs", front.len(), outcome.feasible_vos.len());

    // --- The induced coalitional game: v(C) = max(0, P − C*(T, C)).
    let game = vo_game(&scenario, BranchBound::default());

    let grand = game.grand();
    println!("\ncoalitional game over {} GSPs:", scenario.gsp_count());
    println!("  v(grand) = {:.2}", game.value(grand));

    let equal = equal_split(&game, grand);
    println!("  equal split (paper's rule): {:.2} each", equal[0]);

    let shapley = shapley_exact(&game).expect("small game");
    print!("  Shapley value:             ");
    for s in &shapley {
        print!(" {s:.2}");
    }
    println!();

    let equal_vector = vec![equal[0]; scenario.gsp_count()];
    let in_core = is_in_core(&game, &equal_vector, 1e-6).expect("small game");
    println!("  equal split in the core?    {in_core}");

    let lc = least_core(&game, 1e-6).expect("small game");
    println!(
        "  least core: ε* = {:.4} ⇒ core {} ({} constraint-generation rounds)",
        lc.epsilon,
        if lc.core_nonempty(1e-6) { "NON-EMPTY" } else { "EMPTY" },
        lc.rounds
    );
    println!("  (an empty core is exactly why the paper retreats to individual stability)");
}
