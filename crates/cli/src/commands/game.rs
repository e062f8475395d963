//! `gridvo game` — coalitional-game analysis of a scenario.

use crate::args::Flags;
use crate::commands::load_scenario;
use gridvo_core::game_adapter::vo_game;
use gridvo_core::merge_split::merge_split;
use gridvo_game::core_solution::{is_in_core, least_core};
use gridvo_game::division::{equal_split, shapley_exact};
use gridvo_game::CharacteristicFn;
use gridvo_solver::branch_bound::BranchBound;

const HELP: &str = "\
usage: gridvo game --scenario FILE

Treats the scenario as the coalitional game v(C) = max(0, P − C*(T,C))
and reports: v(grand), the paper's equal split, the exact Shapley
value, core membership of the equal split, the least-core ε*, and the
merge-and-split partition (the authors' earlier mechanism). Exponential
in the GSP count — use federations of ≤ 12 GSPs.";

pub fn run(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, &["scenario"], &[]).map_err(|e| {
        if e == "help" {
            HELP.to_string()
        } else {
            e
        }
    })?;
    let scenario = load_scenario(flags.require("scenario")?)?;
    let m = scenario.gsp_count();
    if m > 12 {
        return Err(format!("game analysis is exponential; {m} GSPs exceeds the 12-GSP cap"));
    }
    let game = vo_game(&scenario, BranchBound::default());
    let grand = game.grand();
    let vg = game.value(grand);
    outln!("v(grand) = {vg:.2} over {m} GSPs ({} IP solves cached)", game.cache_size());

    let shares = equal_split(&game, grand);
    outln!("equal split (eq. 18): {:.2} per GSP", shares.first().copied().unwrap_or(0.0));

    let phi = shapley_exact(&game).map_err(|e| e.to_string())?;
    out!("Shapley value:       ");
    for p in &phi {
        out!(" {p:.2}");
    }
    outln!();

    let eq_vec = vec![shares.first().copied().unwrap_or(0.0); m];
    let eq_core = is_in_core(&game, &eq_vec, 1e-6).map_err(|e| e.to_string())?;
    outln!("equal split in core:  {eq_core}");

    let lc = least_core(&game, 1e-6).map_err(|e| e.to_string())?;
    outln!(
        "least core:           ε* = {:.4} → core {} ({} rounds)",
        lc.epsilon,
        if lc.core_nonempty(1e-6) { "NON-EMPTY" } else { "EMPTY" },
        lc.rounds
    );

    let ms = merge_split(&game, 100_000);
    out!(
        "merge-and-split:      {} merges, {} splits{} → partition",
        ms.merges,
        ms.splits,
        if ms.converged { "" } else { " (ops cap hit)" }
    );
    for c in &ms.partition {
        out!(" {c}");
    }
    outln!();
    if let Some(best) = ms.best_coalition(&game) {
        outln!(
            "best merge-split VO:  {best} with share {:.2}",
            game.value(best) / best.len().max(1) as f64
        );
    }
    Ok(())
}
