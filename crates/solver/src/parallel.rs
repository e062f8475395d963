//! Rayon-parallel branch-and-bound.
//!
//! It runs the sequential solver's root step (infeasibility cut, warm
//! and seed certificates, bound tables, seed choice) and result step
//! (canonical cost, gap, status); only the search differs. The search
//! tree is expanded breadth-first to a shallow frontier
//! (enough subtrees to keep every core busy), then each frontier node
//! runs the sequential [`Searcher`](crate::branch_bound) on its
//! subtree. Workers share one **global incumbent**: the best cost is an
//! `AtomicU64` holding the `f64` bit pattern (for non-negative floats,
//! the IEEE-754 total order coincides with integer order on the bits,
//! so a CAS min loop works), and the best assignment sits behind a
//! `parking_lot::Mutex` updated only on improvement.
//!
//! The result is deterministic in *value* (every worker proves bounds
//! against the same admissible relaxations) though not in *which*
//! optimal assignment is returned when several are tied.

use crate::bounds::BoundTables;
use crate::branch_bound::{
    result_step, root_step, Budget, IncumbentSink, IncumbentSource, Root, SearchEnd, Searcher,
    SolveOutcome, SolveStatus, COST_EPS,
};
use crate::instance::AssignmentInstance;
use crate::solution::Assignment;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Configuration of the parallel branch-and-bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelBranchBound {
    /// Per-subtree node budget (the global budget is roughly
    /// `frontier × max_nodes_per_subtree`).
    pub max_nodes_per_subtree: u64,
    /// Stop growing the frontier once it holds at least this many
    /// subproblems. Defaults to `4 × rayon::current_num_threads()`.
    pub target_frontier: Option<usize>,
    /// Seed the shared incumbent with the heuristic portfolio.
    pub seed_incumbent: bool,
}

impl Default for ParallelBranchBound {
    fn default() -> Self {
        ParallelBranchBound {
            max_nodes_per_subtree: 50_000_000,
            target_frontier: None,
            seed_incumbent: true,
        }
    }
}

/// Shared incumbent: lock-free cost + locked assignment.
struct SharedIncumbent {
    /// Bit pattern of the best cost (non-negative f64 ⇒ bit order =
    /// value order). Starts at the bits of `f64::INFINITY`.
    cost_bits: AtomicU64,
    best: Mutex<Option<Vec<usize>>>,
    truncated: AtomicBool,
}

impl SharedIncumbent {
    fn new() -> Self {
        SharedIncumbent {
            cost_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            best: Mutex::new(None),
            truncated: AtomicBool::new(false),
        }
    }
}

impl IncumbentSink for SharedIncumbent {
    fn best_cost(&self) -> f64 {
        f64::from_bits(self.cost_bits.load(Ordering::Acquire))
    }

    fn offer(&self, cost: f64, assignment: &[usize]) -> bool {
        debug_assert!(cost >= 0.0, "costs are non-negative by construction");
        let new_bits = cost.to_bits();
        let mut cur = self.cost_bits.load(Ordering::Acquire);
        loop {
            if new_bits >= cur {
                return false; // someone already has an equal-or-better solution
            }
            match self.cost_bits.compare_exchange_weak(
                cur,
                new_bits,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    *self.best.lock() = Some(assignment.to_vec());
                    return true;
                }
                Err(actual) => cur = actual,
            }
        }
    }
}

impl ParallelBranchBound {
    /// Solve in parallel. Semantics match
    /// [`BranchBound::solve`](crate::branch_bound::BranchBound::solve).
    pub fn solve(&self, inst: &AssignmentInstance) -> Option<SolveOutcome> {
        self.solve_status_with_budget(inst, None, &Budget::unlimited()).into_outcome()
    }

    /// Parallel twin of
    /// [`BranchBound::solve_status_with_budget`](crate::branch_bound::BranchBound::solve_status_with_budget):
    /// the same root step and result step around a fanned-out search.
    /// Every subtree worker honors the shared wall-clock deadline, and
    /// the node cap applies per subtree (combined with
    /// `max_nodes_per_subtree`).
    pub fn solve_status_with_budget(
        &self,
        inst: &AssignmentInstance,
        warm: Option<&Assignment>,
        budget: &Budget,
    ) -> SolveStatus {
        let Root { tables, seed } = match root_step(inst, warm, self.seed_incumbent) {
            ControlFlow::Break(settled) => return settled,
            ControlFlow::Continue(root) => root,
        };
        let shared = SharedIncumbent::new();
        let (seed_cost, seed_source) = match seed {
            Some((assignment, cost, source)) => {
                shared.offer(cost, assignment.as_slice());
                (cost, source)
            }
            None => (f64::INFINITY, IncumbentSource::None),
        };

        let target =
            self.target_frontier.unwrap_or_else(|| 4 * rayon::current_num_threads().max(1));
        let frontier = build_frontier(inst, &tables, target);

        let total_nodes = AtomicU64::new(0);
        let any_deadline_hit = AtomicBool::new(false);
        let subtree_budget = self.max_nodes_per_subtree.min(budget.max_nodes);
        let expired_at_entry = budget.expired();
        frontier.par_iter().for_each(|prefix| {
            let mut s = Searcher::new(inst, &tables, subtree_budget, Some(&shared));
            s.set_deadline(budget.deadline);
            // Adopt the global incumbent cost before starting.
            let g = shared.best_cost();
            if g.is_finite() {
                s.install_incumbent(Vec::new(), g); // cost-only incumbent
            }
            s.apply_prefix(prefix);
            if expired_at_entry {
                s.mark_deadline_hit();
            } else {
                s.dfs(prefix.len());
            }
            // Every improving leaf was already offered to `shared`.
            let end = s.end();
            total_nodes.fetch_add(end.nodes, Ordering::Relaxed);
            if end.truncated {
                shared.truncated.store(true, Ordering::Relaxed);
            }
            if end.deadline_hit {
                any_deadline_hit.store(true, Ordering::Relaxed);
            }
        });

        let cost = shared.best_cost();
        let end = SearchEnd {
            best: shared.best.into_inner(),
            // offers only accept strict improvements, so a final cost
            // below the seed's means a worker's search produced it
            source: if cost < seed_cost { IncumbentSource::Search } else { seed_source },
            nodes: total_nodes.into_inner(),
            truncated: shared.truncated.into_inner(),
            deadline_hit: any_deadline_hit.into_inner(),
        };
        result_step(inst, &tables, end)
    }
}

/// Breadth-first expansion of the first few task levels into prefix
/// assignments (each prefix = the GSP choice per task in branch
/// order). Only prefixes that pass the same per-child feasibility
/// screens the DFS uses are kept, so no subtree is enumerated twice
/// and none is lost.
fn build_frontier(
    inst: &AssignmentInstance,
    tables: &BoundTables,
    target: usize,
) -> Vec<Vec<usize>> {
    let n = inst.tasks();
    let k = inst.gsps();
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    let mut depth = 0;
    while frontier.len() < target && depth < n && depth < 8 {
        let task = tables.order[depth];
        let mut next = Vec::with_capacity(frontier.len() * k);
        for prefix in &frontier {
            // Recompute loads/counts for this prefix (prefixes are tiny).
            let mut loads = vec![0.0; k];
            let mut counts = vec![0usize; k];
            let mut committed = 0.0;
            for (d, &g) in prefix.iter().enumerate() {
                let t = tables.order[d];
                loads[g] += inst.time(t, g);
                counts[g] += 1;
                committed += inst.cost(t, g);
            }
            let idle = counts.iter().filter(|&&c| c == 0).count();
            let remaining = n - depth;
            if remaining < idle {
                continue;
            }
            let must_cover = remaining == idle;
            for &g in tables.children(task, k) {
                let g = g as usize;
                if must_cover && counts[g] != 0 {
                    continue;
                }
                if loads[g] + inst.time(task, g) > inst.deadline() + 1e-9 {
                    continue;
                }
                if committed + inst.cost(task, g) + tables.suffix_min_cost[depth + 1]
                    > inst.payment() + COST_EPS
                {
                    break; // children cost-sorted
                }
                let mut child = prefix.clone();
                child.push(g);
                next.push(child);
            }
        }
        if next.is_empty() {
            // Every extension is infeasible: the prefixes themselves
            // are dead ends, but returning them lets the workers prove
            // that cheaply.
            return frontier;
        }
        frontier = next;
        depth += 1;
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::BranchBound;

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
    fn matches_sequential_optimum() {
        let i = structured(40, 5, 40.0, 1e6);
        let seq = BranchBound::default().solve(&i).unwrap();
        let par = ParallelBranchBound::default().solve(&i).unwrap();
        assert!(seq.optimal && par.optimal);
        assert!((seq.cost - par.cost).abs() < 1e-9, "{} vs {}", seq.cost, par.cost);
        par.assignment.check_feasible(&i).unwrap();
    }

    #[test]
    fn detects_infeasible() {
        let i = AssignmentInstance::new(2, 2, vec![10.0; 4], vec![1.0; 4], 10.0, 5.0).unwrap();
        match ParallelBranchBound::default().solve_status_with_budget(
            &i,
            None,
            &Budget::unlimited(),
        ) {
            SolveStatus::Infeasible { .. } => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn tight_deadline_agreement() {
        let i = structured(24, 4, 12.0, 1e6);
        let seq = BranchBound::default().solve_status_with_budget(&i, None, &Budget::unlimited());
        let par =
            ParallelBranchBound::default().solve_status_with_budget(&i, None, &Budget::unlimited());
        match (seq, par) {
            (SolveStatus::Optimal(a), SolveStatus::Optimal(b)) => {
                assert!((a.cost - b.cost).abs() < 1e-9);
            }
            (SolveStatus::Infeasible { .. }, SolveStatus::Infeasible { .. }) => {}
            other => panic!("solvers disagree: {other:?}"),
        }
    }

    #[test]
    fn frontier_covers_whole_tree() {
        // With a huge target, the frontier expansion must not lose or
        // duplicate subtrees: verified indirectly by optimality above;
        // here check the frontier respects participation.
        let i = structured(6, 3, 100.0, 1e6);
        let tables = BoundTables::new(&i);
        let frontier = build_frontier(&i, &tables, 10_000);
        // all prefixes have the same depth and are distinct
        let depth = frontier[0].len();
        assert!(frontier.iter().all(|p| p.len() == depth));
        let mut sorted = frontier.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), frontier.len());
    }

    #[test]
    fn shared_incumbent_orders_costs_correctly() {
        let s = SharedIncumbent::new();
        assert!(s.best_cost().is_infinite());
        assert!(s.offer(10.0, &[0, 1]));
        assert!(!s.offer(11.0, &[1, 0]));
        assert!(!s.offer(10.0, &[1, 0])); // ties rejected
        assert!(s.offer(2.5, &[1, 1]));
        assert_eq!(s.best_cost(), 2.5);
        assert_eq!(s.best.lock().clone().unwrap(), vec![1, 1]);
    }
}
