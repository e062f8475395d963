//! Property-based tests for the solver substrate.
//!
//! The central property: on every random small instance, the
//! branch-and-bound agrees **exactly** with the brute-force oracle — same feasibility
//! verdict, same optimal cost. Heuristics must be sound (feasible or
//! `None`) and never beat the optimum.

use gridvo_solver::branch_bound::{BranchBound, Budget, IncumbentSource, SolveStatus};
use gridvo_solver::heuristics::{self, Heuristic};
use gridvo_solver::{brute, hungarian, repair, AssignmentInstance};
use proptest::prelude::*;

/// Random small instance: 1–4 GSPs (≤ gsps ≤ tasks), 2–9 tasks, costs
/// and times in small ranges, deadline/payment spanning feasible and
/// infeasible regimes.
fn small_instance() -> impl Strategy<Value = AssignmentInstance> {
    (1usize..=4, 0usize..=4).prop_flat_map(|(gsps, extra_tasks)| {
        let tasks = gsps + 1 + extra_tasks; // tasks > gsps keeps (13) satisfiable
        let len = tasks * gsps;
        (
            proptest::collection::vec(1.0f64..20.0, len),
            proptest::collection::vec(0.5f64..5.0, len),
            2.0f64..18.0,   // deadline
            10.0f64..120.0, // payment
        )
            .prop_map(move |(cost, time, d, p)| {
                AssignmentInstance::new(tasks, gsps, cost, time, d, p).expect("valid instance")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn branch_and_bound_matches_brute_force(inst in small_instance()) {
        let oracle = brute::solve(&inst).expect("small instances enumerate");
        let bb = BranchBound::default().solve(&inst);
        match (oracle, bb) {
            (None, None) => {}
            (Some((_, oc)), Some(o)) => {
                prop_assert!(o.optimal);
                prop_assert!((o.cost - oc).abs() < 1e-9,
                    "B&B cost {} vs oracle {}", o.cost, oc);
                prop_assert!(o.assignment.is_feasible(&inst));
            }
            (a, b) => prop_assert!(false, "feasibility disagrees: oracle {:?} vs bb {:?}",
                a.map(|x| x.1), b.map(|x| x.cost)),
        }
    }

    /// Warm-seeded exact solves, seeded with the oracle optimum and
    /// with greedy's assignment: the cost is the oracle's; a 0-node
    /// `Warm` answer (the root certificate) is the warm assignment
    /// itself and meets the Hungarian root bound; and a warm seed worse
    /// than the optimum never comes back as such a certificate.
    #[test]
    fn warm_seeded_solves_match_brute_force(inst in small_instance()) {
        let Some((optimum, opt)) = brute::solve(&inst).expect("small instances enumerate")
        else {
            return Ok(());
        };
        let root_bound = hungarian::participation_bound(&inst);
        for warm in [Some(optimum), heuristics::greedy_cost(&inst)].into_iter().flatten() {
            let o = match BranchBound::default()
                .solve_status_with_budget(&inst, Some(&warm), &Budget::unlimited())
            {
                SolveStatus::Optimal(o) | SolveStatus::Feasible(o) => o,
                _ => panic!("a feasible warm seed keeps the instance feasible"),
            };
            prop_assert!(o.optimal);
            prop_assert!((o.cost - opt).abs() < 1e-9, "warm-seeded cost {} vs oracle {opt}", o.cost);
            let certificate = o.nodes == 0 && o.incumbent_source == IncumbentSource::Warm;
            if certificate {
                prop_assert_eq!(&o.assignment, &warm, "a certificate returns the warm seed");
                prop_assert!(o.cost <= root_bound + 1e-9,
                    "certified cost {} above the root bound {root_bound}", o.cost);
            }
            if warm.total_cost(&inst) > opt + 1e-9 {
                prop_assert!(!certificate, "a suboptimal warm seed was certified optimal");
            }
        }
    }

    #[test]
    fn heuristics_sound_and_never_better_than_optimal(inst in small_instance()) {
        let optimal = BranchBound::default().solve(&inst).map(|o| o.cost);
        for kind in [Heuristic::GreedyCost, Heuristic::MinMin,
                     Heuristic::MaxMin, Heuristic::Sufferage] {
            if let Some(a) = heuristics::run(kind, &inst) {
                prop_assert!(a.is_feasible(&inst), "{kind:?} returned infeasible map");
                let c = a.total_cost(&inst);
                let opt = optimal.expect("heuristic found a solution, so one exists");
                prop_assert!(c >= opt - 1e-9,
                    "{kind:?} cost {c} beats the proven optimum {opt}");
            }
        }
    }

    #[test]
    fn optimal_solution_is_stable_under_gsp_permutation(inst in small_instance()) {
        // permute GSP columns: the optimal COST must be invariant
        let k = inst.gsps();
        let perm: Vec<usize> = (0..k).rev().collect();
        let permuted = inst.restrict_gsps(&perm).expect("full permutation");
        let a = BranchBound::default().solve(&inst).map(|o| o.cost);
        let b = BranchBound::default().solve(&permuted).map(|o| o.cost);
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
            _ => prop_assert!(false, "permutation changed feasibility"),
        }
    }

    /// Oracle coverage for `solver::repair`: starting from the proven
    /// optimum, evicting any GSP and repairing must (a) yield a
    /// feasible assignment on the reduced instance whenever repair
    /// claims success, and (b) never beat the reduced instance's own
    /// brute-force optimum.
    #[test]
    fn repair_is_feasible_and_never_beats_reduced_optimum(inst in small_instance()) {
        let k = inst.gsps();
        prop_assume!(k >= 2);
        let Some(opt) = BranchBound::default().solve(&inst) else { return Ok(()) };
        for evicted in 0..k {
            let keep: Vec<usize> = (0..k).filter(|&g| g != evicted).collect();
            let sub = inst.restrict_gsps(&keep).expect("valid restriction");
            if let Some(repaired) = repair::repair_after_eviction(&opt.assignment, evicted, &sub) {
                prop_assert!(repaired.is_feasible(&sub),
                    "repair after evicting {evicted} claimed success but is infeasible");
                let (_, reduced_opt) = brute::solve(&sub)
                    .expect("small instances enumerate")
                    .expect("a feasible repair implies a feasible reduced instance");
                let c = repaired.total_cost(&sub);
                prop_assert!(c >= reduced_opt - 1e-9,
                    "repair cost {c} beats the reduced optimum {reduced_opt}");
            }
        }
    }

    /// Gap soundness against the brute-force oracle: under any node
    /// cap, a feasible outcome's reported bracket must contain the
    /// true optimum — `lower_bound ≤ optimum ≤ incumbent cost` — and
    /// the gap must match its definition.
    #[test]
    fn reported_gap_brackets_the_true_optimum(
        inst in small_instance(),
        max_nodes in prop_oneof![Just(0u64), Just(1), Just(4), Just(32), Just(u64::MAX)],
    ) {
        let oracle = brute::solve(&inst).expect("small instances enumerate");
        let solver = BranchBound { max_nodes };
        match solver.solve_status_with_budget(&inst, None, &Budget::unlimited()) {
            SolveStatus::Optimal(o) => {
                let (_, opt) = oracle.expect("solver proved feasibility");
                prop_assert!((o.cost - opt).abs() < 1e-9);
                prop_assert_eq!(o.gap, Some(0.0));
                prop_assert_eq!(o.lower_bound, Some(o.cost));
            }
            SolveStatus::Feasible(o) => {
                let (_, opt) = oracle.expect("solver found a feasible point");
                let lb = o.lower_bound.expect("truncated solves report a bound");
                let gap = o.gap.expect("truncated solves report a gap");
                prop_assert!(lb <= opt + 1e-9, "lower bound {lb} above optimum {opt}");
                prop_assert!(o.cost >= opt - 1e-9, "incumbent {} below optimum {opt}", o.cost);
                prop_assert!((0.0..=1.0).contains(&gap), "gap {gap} out of range");
                let expect = if o.cost.abs() <= 1e-9 { 0.0 }
                    else { ((o.cost - lb) / o.cost).clamp(0.0, 1.0) };
                prop_assert!((gap - expect).abs() < 1e-12);
            }
            SolveStatus::Infeasible { .. } => {
                prop_assert!(oracle.is_none(), "solver claimed infeasible, oracle disagrees");
            }
            SolveStatus::Unknown { .. } => {} // cap too small to say anything
        }
    }

    #[test]
    fn raising_payment_never_hurts(inst in small_instance()) {
        let richer = AssignmentInstance::new(
            inst.tasks(), inst.gsps(),
            (0..inst.tasks()).flat_map(|t| inst.cost_row(t).to_vec()).collect(),
            (0..inst.tasks()).flat_map(|t| inst.time_row(t).to_vec()).collect(),
            inst.deadline(), inst.payment() * 2.0,
        ).expect("valid");
        let base = BranchBound::default().solve(&inst);
        let rich = BranchBound::default().solve(&richer);
        if let Some(b) = &base {
            let r = rich.as_ref().expect("loosening payment keeps feasibility");
            prop_assert!(r.cost <= b.cost + 1e-9);
        }
    }
}
