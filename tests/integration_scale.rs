//! Scale smoke test for the anytime exact solver: the 64-GSP regime
//! the exact search cannot close is now *open* — a formation run
//! under a wall-clock budget returns promptly with feasible anytime
//! VOs and finite optimality gaps.

use std::time::{Duration, Instant};

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::solve_cache::NoCache;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::seeded_rng;
use gridvo_sim::TableI;
use gridvo_solver::branch_bound::Budget;

#[test]
fn sixty_four_gsp_formation_completes_under_a_wall_clock_budget() {
    // 64 GSPs x 128 tasks is far past the exact frontier (the search
    // tree has 64^128 leaves); before the anytime budget this size
    // was simply unreachable.
    let cfg = TableI { gsps: 64, task_sizes: vec![128], trace_jobs: 2_000, ..TableI::default() };
    let mut rng = seeded_rng(0x5CA1E, 0);
    let scenario =
        ScenarioGenerator::new(cfg).scenario(128, &mut rng).expect("calibrated 64-GSP scenario");

    let budget = Budget::with_deadline(Instant::now() + Duration::from_secs(2));
    let started = Instant::now();
    let outcome = Mechanism::tvof(FormationConfig::default())
        .run_cached_with_budget(&scenario, &mut seeded_rng(1, 0), &mut NoCache, &budget)
        .expect("formation runs");
    let elapsed = started.elapsed();

    // Generous CI margin: the budget bounds each solve to the 2 s
    // deadline (within one bound-check interval); the eviction loop
    // adds only heuristic-seeding overhead per round afterwards.
    assert!(elapsed < Duration::from_secs(60), "64-GSP formation took {elapsed:?}");

    // Calibration guarantees a heuristically-feasible grand
    // coalition, so the anytime race must record at least one VO.
    assert!(!outcome.feasible_vos.is_empty(), "no feasible VO at 64 GSPs");
    let vo = outcome.selected.as_ref().expect("a VO is selected");
    let inst = scenario.instance_for(&vo.members).expect("restriction succeeds");
    vo.assignment.check_feasible(&inst).expect("selected anytime assignment is feasible");
    for v in &outcome.feasible_vos {
        if !v.optimal {
            let gap = v.gap.expect("anytime VOs carry a gap");
            assert!((0.0..=1.0).contains(&gap), "gap {gap} out of range");
        }
    }
}
