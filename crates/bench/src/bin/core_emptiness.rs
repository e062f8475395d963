//! Beyond-paper: how often is the VO-formation game's core empty?
//!
//! The paper justifies its individual-stability notion by citing the
//! authors' earlier result that the core of the game `(G, v)` can be
//! empty. This experiment quantifies that: over generated scenarios,
//! compute the least-core `ε*` of the induced game and report the
//! fraction of empty cores, plus whether the paper's equal split of
//! the grand coalition would have been core-stable.

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_core::game_adapter::vo_game;
use gridvo_game::core_solution::{is_in_core, least_core};
use gridvo_game::division::equal_split;
use gridvo_game::CharacteristicFn;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::run_seeds;
use gridvo_sim::{SimError, TableI};
use gridvo_solver::branch_bound::BranchBound;

fn main() {
    let args = BenchArgs::from_env();
    // exponential analyses: keep the federation small
    let cfg = TableI {
        gsps: if args.paper { 8 } else { 6 },
        task_sizes: vec![24],
        trace_jobs: 3_000,
        deadline_factor_range: (2.0, 8.0),
        ..TableI::default()
    };
    let generator = ScenarioGenerator::new(cfg.clone());

    let runs = run_seeds(0xC04E, &args.seeds, |_seed, rng| {
        let scenario = generator.scenario(24, rng)?;
        let game = vo_game(&scenario, BranchBound::default());
        let lc = least_core(&game, 1e-6).expect("small game");
        let shares = equal_split(&game, game.grand());
        let eq_vec = vec![shares.first().copied().unwrap_or(0.0); cfg.gsps];
        let eq_in_core = is_in_core(&game, &eq_vec, 1e-6).unwrap_or(false);
        Ok::<_, SimError>((lc.epsilon, !lc.core_nonempty(1e-6), eq_in_core, lc.rounds))
    });

    let mut rows = Vec::new();
    let mut csv = String::from("seed,epsilon_star,core_empty,equal_split_in_core,rounds\n");
    let mut empty = 0usize;
    let mut equal_ok = 0usize;
    for (seed, run) in args.seeds.iter().zip(runs) {
        let (epsilon, core_empty, eq_in_core, rounds) = run.expect("calibrated scenario");
        if core_empty {
            empty += 1;
        }
        if eq_in_core {
            equal_ok += 1;
        }
        rows.push(vec![
            seed.to_string(),
            format!("{:.3}", epsilon),
            core_empty.to_string(),
            eq_in_core.to_string(),
            rounds.to_string(),
        ]);
        csv.push_str(&format!(
            "{},{:.6},{},{},{}\n",
            seed, epsilon, core_empty, eq_in_core, rounds
        ));
    }
    println!(
        "{}",
        ascii_table(&["seed", "ε*", "core empty", "equal split ∈ core", "CG rounds"], &rows)
    );
    println!(
        "{} of {} scenarios have an empty core; equal split of the grand coalition \
         was core-stable in {} — the instability the paper's Theorem 1 works around",
        empty,
        args.seeds.len(),
        equal_ok
    );
    args.write_artifact("core_emptiness.csv", &csv).unwrap();
}
