//! Racing solver portfolio: exact branch-and-bound vs. the heuristic
//! family, under a shared anytime [`Budget`].
//!
//! The race is deterministic and sequential (so results are
//! reproducible for a given budget): the heuristic portfolio (greedy +
//! min-min + sufferage, plus any caller-supplied warm incumbent) runs
//! first and installs the cheapest feasible assignment as the
//! incumbent, then the exact search refines it until it either proves
//! optimality or the budget (wall-clock deadline / node cap) expires.
//! Whoever holds the incumbent when the budget trips wins the race;
//! the outcome carries the best proven lower bound and the relative
//! optimality gap.
//!
//! **Bit-identity guarantee:** with [`Budget::unlimited`] the
//! portfolio delegates to the exact solver's own entry point — same
//! code path, same outputs, bit for bit. Admissible bounds only prune
//! subtrees that cannot contain a *strict* improvement over the
//! incumbent, so the sequence of strictly-improving solutions (and
//! hence the final assignment and cost) is invariant under bound
//! strength; only node counts shrink.
//!
//! Under a *finite* budget the portfolio additionally widens the
//! heuristic race to instance sizes where the exact seeder skips the
//! `O(n²k)` sweeps — in the anytime regime a better starting incumbent
//! matters more than seeding cost.

use crate::branch_bound::{BranchBound, Budget, SolveStatus};
use crate::heuristics;
use crate::instance::AssignmentInstance;
use crate::solution::Assignment;

/// Tasks above which [`heuristics::seed_incumbent`] skips the
/// quadratic sweeps; the portfolio re-runs them under finite budgets.
const SEED_SWEEP_CAP: usize = 512;

/// The racing front-end. Wraps an exact [`BranchBound`] configuration;
/// heuristics always participate in the race regardless of
/// `exact.seed_incumbent` (disable racing by calling the exact solver
/// directly).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Portfolio {
    /// The exact solver configuration used for the refinement leg.
    pub exact: BranchBound,
}

impl Portfolio {
    /// Solve under `budget`, returning the best incumbent found if any.
    pub fn solve(&self, inst: &AssignmentInstance, budget: &Budget) -> Option<crate::SolveOutcome> {
        match self.solve_status_with_budget(inst, None, budget) {
            SolveStatus::Optimal(o) | SolveStatus::Feasible(o) => Some(o),
            SolveStatus::Infeasible { .. } | SolveStatus::Unknown { .. } => None,
        }
    }

    /// Full-status race under `budget`, optionally seeded with a warm
    /// incumbent (e.g. the previous eviction round's repaired optimum).
    pub fn solve_status_with_budget(
        &self,
        inst: &AssignmentInstance,
        warm: Option<&Assignment>,
        budget: &Budget,
    ) -> SolveStatus {
        if budget.is_unlimited() {
            // Same code path as the plain exact solve: bit-identical.
            return self.exact.solve_status_with_budget(inst, warm, budget);
        }
        // Finite budget: widen the heuristic leg of the race to sizes
        // the exact seeder skips, and hand the winner in as the warm
        // incumbent (the exact path returns it at once when it meets
        // the root bound, else keeps whichever of warm/heuristic is
        // strictly cheaper).
        let wide = if inst.tasks() > SEED_SWEEP_CAP {
            let mut best: Option<(Assignment, f64)> = None;
            for cand in [heuristics::min_min(inst), heuristics::sufferage(inst)] {
                if let Some(a) = cand.filter(|a| a.is_feasible(inst)) {
                    let c = a.total_cost(inst);
                    if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                        best = Some((a, c));
                    }
                }
            }
            best
        } else {
            None
        };
        let warm = match (&wide, warm) {
            (Some((wa, wc)), Some(orig)) if *wc < orig.total_cost(inst) => Some(wa),
            (Some((wa, _)), None) => Some(wa),
            (_, orig) => orig,
        };
        self.exact.solve_status_with_budget(inst, warm, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::SolveStatus;

    fn structured(n: usize, k: usize, d: f64, p: f64) -> AssignmentInstance {
        let mut cost = Vec::new();
        let mut time = Vec::new();
        for t in 0..n {
            for g in 0..k {
                cost.push(1.0 + ((t * 31 + g * 17) % 23) as f64);
                time.push(1.0 + ((t * 13 + g * 7) % 5) as f64);
            }
        }
        AssignmentInstance::new(n, k, cost, time, d, p).unwrap()
    }

    #[test]
    fn unlimited_budget_matches_exact_solver_exactly() {
        let i = structured(20, 4, 20.0, 1e6);
        let exact = BranchBound::default().solve_status(&i);
        let raced = Portfolio::default().solve_status_with_budget(&i, None, &Budget::unlimited());
        assert_eq!(exact, raced, "unlimited budget must be bit-identical");
    }

    #[test]
    fn node_budget_yields_anytime_incumbent_with_gap() {
        let i = structured(30, 5, 30.0, 1e6);
        let budget = Budget { deadline: None, max_nodes: 8 };
        match Portfolio::default().solve_status_with_budget(&i, None, &budget) {
            SolveStatus::Feasible(o) => {
                assert!(!o.optimal);
                assert!(o.gap.is_some_and(|g| (0.0..=1.0).contains(&g)));
                assert!(o.lower_bound.is_some_and(|lb| lb <= o.cost + 1e-9));
                o.assignment.check_feasible(&i).unwrap();
            }
            SolveStatus::Optimal(o) => {
                // The seed can prove optimality without any search.
                assert_eq!(o.nodes, 0);
            }
            other => panic!("expected an anytime answer, got {other:?}"),
        }
    }

    #[test]
    fn node_budget_results_are_deterministic() {
        // Node caps (unlike wall-clock deadlines) are reproducible:
        // two identical races must agree bit for bit.
        let i = structured(25, 4, 25.0, 1e6);
        let budget = Budget { deadline: None, max_nodes: 100 };
        let a = Portfolio::default().solve_status_with_budget(&i, None, &budget);
        let b = Portfolio::default().solve_status_with_budget(&i, None, &budget);
        assert_eq!(a, b);
    }
}
