//! Exact branch-and-bound for the task-assignment IP (the "IP-B&B" of
//! Algorithm 1).
//!
//! Depth-first search over tasks in decreasing-size order; children
//! (GSP choices) expanded cheapest-first. Admissible pruning via
//! [`crate::bounds::BoundTables`]:
//!
//! * cost lower bound (incl. idle-GSP participation penalty) against
//!   the incumbent and the payment cap;
//! * aggregate deadline-slack infeasibility;
//! * per-child deadline check;
//! * participation counting (remaining tasks ≥ idle GSPs; when equal,
//!   branch only to idle GSPs).
//!
//! Because children are cost-sorted, the per-child cost bound allows a
//! `break` (all later children are costlier), which is what makes the
//! search close instantly on instances where constraints do not bind.
//!
//! Before any search, the root proves infeasibility against the
//! payment cap, or returns a seed whose cost meets the Hungarian root
//! bound as optimal, at zero nodes. A caller's warm incumbent is
//! checked first, so a certified warm start skips the heuristic
//! portfolio and the bound tables altogether. An instance whose tasks'
//! fastest times alone overfill `k·d` skips them too: it answers what
//! the search root would, without building the root's tables. The
//! portfolio reads only the seed's tables (branch order, minimum
//! costs, cost-sorted children); the rest of the bound tables is built
//! only when its seed does not meet the root bound and the search runs.
//!
//! The search is exact; the solver's node cap
//! ([`BranchBound::max_nodes`]) and the caller's optional wall-clock
//! deadline (see [`Budget`]) turn it into an anytime algorithm, with
//! [`SolveOutcome::optimal`] reporting whether the tree was exhausted
//! and [`SolveOutcome::gap`] bounding how far the returned incumbent
//! can be from the optimum.

use std::time::Instant;

use crate::bounds::{BoundTables, SeedTables};
use crate::heuristics;
use crate::instance::AssignmentInstance;
use crate::solution::Assignment;

/// Absolute cost tolerance used when comparing bounds to incumbents.
const COST_EPS: f64 = 1e-9;

/// How many nodes are expanded between wall-clock deadline checks.
/// This is the granularity of the anytime guarantee: a deadline
/// overrun is bounded by the time it takes to expand this many nodes
/// (microseconds-to-milliseconds).
const CHECK_INTERVAL: u64 = 1024;

/// The caller's anytime budget for one solve: an optional absolute
/// wall-clock deadline, checked every 1024 nodes. When it passes, the
/// search returns its best incumbent so far (flagged non-optimal, with
/// an optimality gap attached) instead of running to exhaustion. The
/// node cap is the solver's, [`BranchBound::max_nodes`]. The default
/// is [`Budget::unlimited`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Budget {
    /// Absolute instant after which the search must stop. `None`
    /// disables the wall-clock limit.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// No deadline: the solve runs to proven optimality or to the
    /// solver's node cap.
    pub fn unlimited() -> Self {
        Budget { deadline: None }
    }

    /// A budget expiring at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Budget { deadline: Some(deadline) }
    }

    /// True when the wall-clock deadline has already passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Configuration of the exact branch-and-bound solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchBound {
    /// Maximum number of search-tree nodes to expand before returning
    /// the best incumbent found so far (anytime mode): the solve's only
    /// node cap. A node-capped result is a deterministic function of
    /// the instance, the warm incumbent and this cap.
    pub max_nodes: u64,
}

impl Default for BranchBound {
    fn default() -> Self {
        BranchBound { max_nodes: 50_000_000 }
    }
}

/// Where the final incumbent of a solve came from — telemetry for the
/// incremental formation engine (warm starts across eviction rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncumbentSource {
    /// No incumbent was ever installed (unreachable in a feasible
    /// outcome; the initial value before seeding).
    None,
    /// The heuristic-portfolio seed survived the whole search.
    Heuristic,
    /// A warm-start incumbent (e.g. the previous eviction round's
    /// repaired optimum) survived the whole search, or met the root
    /// lower bound and was returned as optimal without any search.
    Warm,
    /// The tree search found a strictly better solution than any seed.
    Search,
}

impl IncumbentSource {
    /// Stable lowercase label for traces and JSON output.
    pub fn as_str(&self) -> &'static str {
        match self {
            IncumbentSource::None => "none",
            IncumbentSource::Heuristic => "heuristic",
            IncumbentSource::Warm => "warm",
            IncumbentSource::Search => "search",
        }
    }
}

/// Result of a completed (or budget-truncated) solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// The best feasible assignment found.
    pub assignment: Assignment,
    /// Its total cost (the IP objective, eq. (9)), recomputed in
    /// canonical task order so equal assignments report bit-identical
    /// costs regardless of the search path that produced them.
    pub cost: f64,
    /// True when the search tree was exhausted, proving optimality.
    /// False when the node budget truncated the search.
    pub optimal: bool,
    /// Nodes expanded.
    pub nodes: u64,
    /// Which seed (or the search itself) produced the final incumbent.
    pub incumbent_source: IncumbentSource,
    /// Best proven lower bound on the optimum. Equals `cost` when
    /// `optimal`; on a truncated solve it is the root relaxation bound
    /// (max of the Hungarian participation bound, the Lagrangian dual
    /// and the per-task cost bound), clamped to `≤ cost`.
    pub lower_bound: Option<f64>,
    /// Relative optimality gap `(cost − lower_bound) / cost`, in
    /// `[0, 1]`. `Some(0.0)` when proven optimal.
    pub gap: Option<f64>,
    /// True when the solve was cut short by a wall-clock deadline
    /// (rather than completing or exhausting a node cap). Deadline
    /// truncation is wall-clock-dependent, hence not reproducible —
    /// callers must not cache such results.
    pub deadline_hit: bool,
}

/// Detailed solve status, distinguishing proven infeasibility from a
/// budget-truncated search that found nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveStatus {
    /// Optimal solution found and proven.
    Optimal(SolveOutcome),
    /// Feasible solution found, but the node budget expired before the
    /// proof of optimality completed.
    Feasible(SolveOutcome),
    /// Search exhausted: the IP has no feasible solution. TVOF reads
    /// this as "this VO cannot execute the program".
    Infeasible {
        /// Nodes expanded during the proof.
        nodes: u64,
    },
    /// Budget expired with no feasible solution found; feasibility is
    /// unknown.
    Unknown {
        /// Nodes expanded before giving up.
        nodes: u64,
    },
}

impl BranchBound {
    /// Solve under [`Budget::unlimited`], returning the best assignment
    /// if one was found. `None` means no feasible solution was found —
    /// with the default (effectively unlimited) node cap this is a
    /// proof of infeasibility.
    pub fn solve(&self, inst: &AssignmentInstance) -> Option<SolveOutcome> {
        self.solve_status_with_budget(inst, None, &Budget::unlimited()).into_outcome()
    }

    /// Solve with full status reporting, optionally seeded with a warm
    /// incumbent (e.g. the previous eviction round's repaired optimum)
    /// and bounded by `budget`: the search stops at `budget.deadline`
    /// or after [`BranchBound::max_nodes`] nodes, returning the best
    /// incumbent found so far with an optimality gap.
    ///
    /// An infeasible or wrong-shaped warm assignment is silently
    /// ignored, so callers can pass whatever the repair produced
    /// without pre-validating. The warm incumbent only tightens the
    /// initial upper bound of an exact search, so the returned *cost*
    /// is identical to a cold solve; only the node count (and possibly
    /// which of several cost-tied optimal assignments is returned) can
    /// differ.
    pub fn solve_status_with_budget(
        &self,
        inst: &AssignmentInstance,
        warm: Option<&Assignment>,
        budget: &Budget,
    ) -> SolveStatus {
        // Root certificates. The Hungarian participation bound (a
        // matching of distinct representative tasks onto GSPs)
        // dominates the per-node bound: above the payment cap it proves
        // the instance infeasible, and a seed whose cost meets it is
        // optimal, both at 0 nodes. The caller's warm incumbent,
        // validated against the full constraint set, is tried first.
        let root_bound = crate::hungarian::participation_bound(inst);
        if root_bound > inst.payment() + COST_EPS {
            return SolveStatus::Infeasible { nodes: 0 };
        }
        let warm =
            match warm.filter(|a| a.is_feasible(inst)).map(|a| (a.clone(), a.total_cost(inst))) {
                Some((assignment, cost)) if cost <= root_bound + COST_EPS => {
                    return certified(assignment, cost, IncumbentSource::Warm);
                }
                other => other,
            };

        // Aggregate deadline: when the tasks' fastest times overfill
        // every GSP's deadline, no heuristic places them, no warm seed
        // is feasible and the search root prunes on its time test. So
        // answer as that root does (one node, or none when the cap is 0
        // or the budget has run out) without building its tables.
        if aggregate_time_infeasible(inst) {
            return if self.max_nodes == 0 || budget.expired() {
                SolveStatus::Unknown { nodes: 0 }
            } else {
                SolveStatus::Infeasible { nodes: 1 }
            };
        }

        // The seed: the cheaper of the warm incumbent and the heuristic
        // portfolio. The warm one wins only when strictly cheaper, so a
        // tie keeps the cold-run label; the portfolio's sweeps stop at
        // the warm cost as well as at the cheapest heuristic seed.
        let seed_tables = SeedTables::new(inst);
        let warm_cost = warm.as_ref().map(|(_, c)| *c);
        let seed = match (warm, heuristics::seed_incumbent_with(inst, &seed_tables, warm_cost)) {
            (Some((wa, wc)), Some((_, hc))) if wc < hc => Some((wa, wc, IncumbentSource::Warm)),
            (_, Some((ha, hc))) => Some((ha, hc, IncumbentSource::Heuristic)),
            (Some((wa, wc)), None) => Some((wa, wc, IncumbentSource::Warm)),
            (None, None) => None,
        };
        let seed = match seed {
            Some((assignment, cost, source)) if cost <= root_bound + COST_EPS => {
                return certified(assignment, cost, source);
            }
            seed => seed,
        };

        // The DFS, from the seed, with the rest of the bound tables.
        let tables = BoundTables::with_seed(inst, seed_tables);
        let mut search = Searcher::new(inst, &tables, self.max_nodes, budget.deadline);
        if let Some((assignment, cost, source)) = seed {
            search.install_incumbent(assignment.as_slice().to_vec(), cost, source);
        }
        if budget.expired() {
            // The deadline passed before the tree search could start:
            // return the seed (if any) as the anytime incumbent.
            search.mark_deadline_hit();
        } else {
            search.dfs(0);
        }

        // The status: canonical cost, lower bound and gap.
        let Searcher { best, source, nodes, truncated, deadline_hit, .. } = search;
        let Some(best) = best else {
            return if truncated {
                SolveStatus::Unknown { nodes }
            } else {
                SolveStatus::Infeasible { nodes }
            };
        };
        let assignment = Assignment::new(best);
        // Canonical cost: re-sum in task order so the same assignment
        // reports the same bits whether it arrived via a seed or a search
        // leaf (whose running sum follows branch order).
        let cost = assignment.total_cost(inst);
        let (lower_bound, gap) = if truncated {
            // The root bounds are computed only when the search was
            // actually cut short.
            let lb = root_lower_bound(inst, &tables, root_bound).min(cost);
            (Some(lb), Some(gap_for(cost, lb)))
        } else {
            (Some(cost), Some(0.0))
        };
        let outcome = SolveOutcome {
            assignment,
            cost,
            optimal: !truncated,
            nodes,
            incumbent_source: source,
            lower_bound,
            gap,
            deadline_hit,
        };
        if truncated {
            SolveStatus::Feasible(outcome)
        } else {
            SolveStatus::Optimal(outcome)
        }
    }
}

impl SolveStatus {
    /// The outcome, when the solve found a feasible assignment.
    pub(crate) fn into_outcome(self) -> Option<SolveOutcome> {
        match self {
            SolveStatus::Optimal(o) | SolveStatus::Feasible(o) => Some(o),
            SolveStatus::Infeasible { .. } | SolveStatus::Unknown { .. } => None,
        }
    }
}

/// A seed that met the root lower bound: proven optimal with no search.
fn certified(assignment: Assignment, cost: f64, source: IncumbentSource) -> SolveStatus {
    SolveStatus::Optimal(SolveOutcome {
        assignment,
        cost,
        optimal: true,
        nodes: 0,
        incumbent_source: source,
        lower_bound: Some(cost),
        gap: Some(0.0),
        deadline_hit: false,
    })
}

/// True when `Σ_t min_g t(t,g)` exceeds the total deadline room
/// `k·d` by more than the feasibility audit's per-GSP tolerance (1e-9)
/// and summation rounding can explain: then no assignment keeps every
/// GSP within the deadline, and the search root's aggregate time test
/// ([`BoundTables::time_infeasible`]) prunes.
fn aggregate_time_infeasible(inst: &AssignmentInstance) -> bool {
    let need: f64 = (0..inst.tasks()).map(|t| inst.min_time(t)).sum();
    let room = inst.gsps() as f64 * (inst.deadline() + 1e-9);
    need - room > 1e-9 * need
}

/// Best proven root lower bound for `inst`: the max of the Hungarian
/// participation bound (`participation`, already computed by the
/// root step), the Lagrangian dual and the per-task cost bound (all
/// admissible). Used to attach an optimality gap to truncated solves.
fn root_lower_bound(inst: &AssignmentInstance, tables: &BoundTables, participation: f64) -> f64 {
    let k = inst.gsps();
    let mut lb = tables.cost_lower_bound(0, 0.0, &vec![0usize; k]);
    if tables.has_mu {
        lb = lb.max(tables.lagrangian_lower_bound(0, 0.0, &vec![0.0; k], inst.deadline()));
    }
    lb.max(participation)
}

/// Relative optimality gap `(cost − lb) / cost`, clamped to `[0, 1]`.
fn gap_for(cost: f64, lower_bound: f64) -> f64 {
    if cost.abs() <= COST_EPS {
        0.0
    } else {
        ((cost - lower_bound) / cost).clamp(0.0, 1.0)
    }
}

/// The depth-first search state of one solve.
struct Searcher<'a> {
    inst: &'a AssignmentInstance,
    tables: &'a BoundTables,
    // search state
    chosen: Vec<usize>, // by depth: gsp chosen for tables.seed.order[depth]
    loads: Vec<f64>,
    counts: Vec<usize>,
    idle: usize,
    /// Bit per GSP, set while the GSP has no task — mirrors
    /// `counts[g] == 0` for the mask-based coverage prune.
    idle_mask: Vec<u64>,
    committed: f64,
    // incumbent
    best_cost: f64,
    /// True once `best_cost` reflects a real feasible solution rather
    /// than the initial payment cap.
    have_incumbent: bool,
    best: Option<Vec<usize>>, // task-indexed
    // accounting
    nodes: u64,
    budget: u64,
    deadline: Option<Instant>,
    truncated: bool,
    deadline_hit: bool,
    source: IncumbentSource,
}

impl<'a> Searcher<'a> {
    /// A search capped at `budget` nodes, checking the wall-clock
    /// `deadline` every [`CHECK_INTERVAL`] nodes.
    fn new(
        inst: &'a AssignmentInstance,
        tables: &'a BoundTables,
        budget: u64,
        deadline: Option<Instant>,
    ) -> Self {
        let k = inst.gsps();
        let mut idle_mask = vec![0u64; tables.words];
        for g in 0..k {
            idle_mask[g / 64] |= 1u64 << (g % 64);
        }
        Searcher {
            inst,
            tables,
            chosen: vec![usize::MAX; inst.tasks()],
            loads: vec![0.0; k],
            counts: vec![0; k],
            idle: k,
            idle_mask,
            // the payment cap is the initial "incumbent": nothing more
            // expensive can ever be feasible (constraint (10))
            committed: 0.0,
            best_cost: inst.payment() + COST_EPS,
            have_incumbent: false,
            best: None,
            nodes: 0,
            budget,
            deadline,
            truncated: false,
            deadline_hit: false,
            source: IncumbentSource::None,
        }
    }

    /// Record that the wall-clock budget expired; the current best
    /// incumbent (if any) becomes the anytime answer.
    fn mark_deadline_hit(&mut self) {
        self.truncated = true;
        self.deadline_hit = true;
    }

    /// Pre-load a known feasible solution as the incumbent, recording
    /// where it came from for telemetry.
    fn install_incumbent(&mut self, task_to_gsp: Vec<usize>, cost: f64, source: IncumbentSource) {
        if cost < self.best_cost {
            self.best_cost = cost;
            self.have_incumbent = true;
            self.best = Some(task_to_gsp);
            self.source = source;
        }
    }

    fn dfs(&mut self, depth: usize) {
        if self.truncated {
            return;
        }
        // The cap is checked before the node is counted, so `nodes`
        // counts expanded nodes only and a capped search reports the cap.
        if self.nodes >= self.budget {
            self.truncated = true;
            return;
        }
        self.nodes += 1;
        if self.nodes.is_multiple_of(CHECK_INTERVAL)
            && self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            self.mark_deadline_hit();
            return;
        }
        let n = self.inst.tasks();
        if depth == n {
            // Leaf: constraints were maintained incrementally.
            let cost = self.committed;
            if cost < self.best_cost - COST_EPS || (!self.have_incumbent && cost <= self.best_cost)
            {
                let mut task_to_gsp = vec![0usize; n];
                for (d, &g) in self.chosen.iter().enumerate() {
                    task_to_gsp[self.tables.seed.order[d]] = g;
                }
                self.best_cost = cost;
                self.have_incumbent = true;
                self.best = Some(task_to_gsp);
                self.source = IncumbentSource::Search;
            }
            return;
        }

        // Node-level prunes.
        if self.have_incumbent
            && self.tables.cost_lower_bound(depth, self.committed, &self.counts)
                >= self.best_cost - COST_EPS
        {
            return;
        }
        if self.committed + self.tables.suffix_min_cost[depth] > self.inst.payment() + COST_EPS {
            return;
        }
        // Lagrangian bound: admissible for any μ ≥ 0, and in the
        // deadline-bound regime often far above the plain cost bound.
        // Skipped when all multipliers are zero (it then degenerates
        // to a bound the checks above already dominate).
        if self.tables.has_mu {
            let lag = self.tables.lagrangian_lower_bound(
                depth,
                self.committed,
                &self.loads,
                self.inst.deadline(),
            );
            if (self.have_incumbent && lag >= self.best_cost - COST_EPS)
                || lag > self.inst.payment() + COST_EPS
            {
                return;
            }
        }
        if self.tables.time_infeasible(depth, &self.loads, self.inst.deadline()) {
            return;
        }
        let remaining = n - depth;
        if remaining < self.idle {
            return; // participation (13) can no longer be satisfied
        }
        // Mask-based coverage: an idle GSP no remaining task can reach
        // within the deadline makes participation unsatisfiable.
        if self.idle > 0 && self.tables.idle_uncoverable(depth, &self.idle_mask) {
            return;
        }
        let must_cover = remaining == self.idle;

        let task = self.tables.seed.order[depth];
        let k = self.inst.gsps();
        let deadline = self.inst.deadline();
        for gi in 0..k {
            let g = self.tables.seed.children(task, k)[gi] as usize;
            if must_cover && self.counts[g] != 0 {
                continue;
            }
            let dc = self.inst.cost(task, g);
            // Children are cost-sorted: once the optimistic completion
            // exceeds the incumbent, every later child does too.
            let optimistic = self.committed + dc + self.tables.suffix_min_cost[depth + 1];
            if self.have_incumbent && optimistic >= self.best_cost - COST_EPS {
                break;
            }
            if optimistic > self.inst.payment() + COST_EPS {
                break; // payment cap (10): later children cost even more
            }
            let dt = self.inst.time(task, g);
            if self.loads[g] + dt > deadline + 1e-9 {
                continue;
            }
            // Apply.
            self.chosen[depth] = g;
            self.loads[g] += dt;
            if self.counts[g] == 0 {
                self.idle -= 1;
                self.idle_mask[g / 64] &= !(1u64 << (g % 64));
            }
            self.counts[g] += 1;
            self.committed += dc;

            self.dfs(depth + 1);

            // Undo.
            self.committed -= dc;
            self.counts[g] -= 1;
            if self.counts[g] == 0 {
                self.idle += 1;
                self.idle_mask[g / 64] |= 1u64 << (g % 64);
            }
            self.loads[g] -= dt;
            self.chosen[depth] = usize::MAX;
            if self.truncated {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(
        tasks: usize,
        gsps: usize,
        cost: Vec<f64>,
        time: Vec<f64>,
        d: f64,
        p: f64,
    ) -> AssignmentInstance {
        AssignmentInstance::new(tasks, gsps, cost, time, d, p).unwrap()
    }

    #[test]
    fn unconstrained_optimum_is_min_cost_with_participation() {
        // loose deadline and payment: optimum = min cost per task,
        // subject to both GSPs being used.
        let i = inst(3, 2, vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0], vec![1.0; 6], 100.0, 100.0);
        let o = BranchBound::default().solve(&i).unwrap();
        assert!(o.optimal);
        assert_eq!(o.cost, 4.0); // 0→G0 (1), 1→G1 (1), 2→G1 (2)
        o.assignment.check_feasible(&i).unwrap();
    }

    #[test]
    fn deadline_forces_costlier_split() {
        // Cheapest GSP can only hold one task by time.
        let i = inst(2, 2, vec![1.0, 10.0, 1.0, 10.0], vec![5.0, 1.0, 5.0, 1.0], 6.0, 100.0);
        let o = BranchBound::default().solve(&i).unwrap();
        // one task on each GSP: cost 1 + 10 = 11
        assert_eq!(o.cost, 11.0);
        assert!(o.optimal);
    }

    #[test]
    fn payment_cap_proves_infeasible() {
        let i = inst(2, 2, vec![10.0; 4], vec![1.0; 4], 10.0, 5.0);
        match BranchBound::default().solve_status_with_budget(&i, None, &Budget::unlimited()) {
            SolveStatus::Infeasible { .. } => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn deadline_proves_infeasible() {
        let i = inst(3, 2, vec![1.0; 6], vec![10.0; 6], 5.0, 100.0);
        assert!(BranchBound::default().solve(&i).is_none());
    }

    #[test]
    fn aggregate_deadline_infeasibility_answers_like_the_root() {
        // Σ min time = 12 exceeds k·d = 10: no assignment meets the
        // deadlines, and the search root prunes after one node.
        let i = inst(4, 2, vec![1.0; 8], vec![3.0; 8], 5.0, 100.0);
        let solve = |max_nodes: u64, budget: &Budget| {
            BranchBound { max_nodes }.solve_status_with_budget(&i, None, budget)
        };
        let unlimited = Budget::unlimited();
        assert_eq!(solve(50_000_000, &unlimited), SolveStatus::Infeasible { nodes: 1 });
        assert_eq!(solve(1, &unlimited), SolveStatus::Infeasible { nodes: 1 });
        assert_eq!(solve(0, &unlimited), SolveStatus::Unknown { nodes: 0 });
        let expired = Budget::with_deadline(Instant::now());
        assert_eq!(solve(50_000_000, &expired), SolveStatus::Unknown { nodes: 0 });
    }

    #[test]
    fn solution_exactly_at_payment_is_accepted() {
        let i = inst(2, 2, vec![3.0, 3.0, 3.0, 3.0], vec![1.0; 4], 10.0, 6.0);
        let o = BranchBound::default().solve(&i).expect("cost 6 == payment 6 is feasible");
        assert_eq!(o.cost, 6.0);
    }

    #[test]
    fn warm_seed_meeting_the_root_bound_is_certified_without_search() {
        let solve = |i: &AssignmentInstance, warm: Option<&Assignment>| {
            BranchBound::default().solve_status_with_budget(i, warm, &Budget::unlimited())
        };
        // Loose constraints: the optimum meets the Hungarian root bound.
        let i = inst(3, 2, vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0], vec![1.0; 6], 100.0, 100.0);
        let cold = BranchBound::default().solve(&i).unwrap();
        let warm = solve(&i, Some(&cold.assignment)).into_outcome().unwrap();
        assert_eq!(warm.nodes, 0);
        assert_eq!(warm.incumbent_source, IncumbentSource::Warm);
        assert_eq!((&warm.assignment, warm.cost), (&cold.assignment, cold.cost));
        // A feasible but costlier warm seed is no certificate.
        let worse = Assignment::new(vec![1, 0, 0]);
        let o = solve(&i, Some(&worse)).into_outcome().unwrap();
        assert_ne!(o.incumbent_source, IncumbentSource::Warm);
        assert_eq!(o.cost, cold.cost);
        // Every assignment costs 20 against a payment cap of 5: the root
        // bound alone proves the payment cap broken.
        let broke = inst(2, 2, vec![10.0; 4], vec![1.0; 4], 10.0, 5.0);
        assert_eq!(solve(&broke, None), SolveStatus::Infeasible { nodes: 0 });
    }

    /// Feasible (optimum 12), but greedy-cost, min-min and sufferage
    /// all fail on it, so a truncated search has no incumbent at all.
    fn unseeded() -> AssignmentInstance {
        inst(
            5,
            3,
            vec![9.0, 3.0, 6.0, 3.0, 7.0, 9.0, 6.0, 5.0, 1.0, 4.0, 1.0, 6.0, 3.0, 1.0, 3.0],
            vec![5.0, 1.0, 2.0, 6.0, 8.0, 7.0, 1.0, 6.0, 7.0, 2.0, 5.0, 3.0, 6.0, 7.0, 9.0],
            9.0,
            13.0,
        )
    }

    #[test]
    fn budget_truncation_reports_nonoptimal_or_unknown() {
        let i = unseeded();
        assert_eq!(heuristics::seed_incumbent(&i), None);
        let (_, opt) = crate::brute::solve(&i).unwrap().expect("feasible");
        assert_eq!(opt, 12.0);
        let truncated = BranchBound { max_nodes: 1 };
        match truncated.solve_status_with_budget(&i, None, &Budget::unlimited()) {
            SolveStatus::Unknown { .. } => {}
            other => panic!("expected Unknown, got {other:?}"),
        }
        let o = BranchBound::default().solve(&i).expect("feasible");
        assert!(o.optimal);
        assert_eq!(o.cost, opt);
    }

    #[test]
    fn a_capped_search_reports_the_nodes_it_expanded() {
        // No heuristic seeds this instance, so the cap alone stops the
        // search.
        let i = unseeded();
        for max_nodes in [1, 2, 5] {
            let status =
                BranchBound { max_nodes }.solve_status_with_budget(&i, None, &Budget::unlimited());
            assert_eq!(status, SolveStatus::Unknown { nodes: max_nodes }, "cap {max_nodes}");
        }
    }

    #[test]
    fn participation_forces_every_gsp_used() {
        // GSP 2 is wildly expensive but must still get a task.
        let i = inst(
            3,
            3,
            vec![1.0, 1.0, 50.0, 1.0, 1.0, 50.0, 1.0, 1.0, 50.0],
            vec![1.0; 9],
            10.0,
            100.0,
        );
        let o = BranchBound::default().solve(&i).unwrap();
        assert_eq!(o.cost, 52.0);
        assert_eq!(o.assignment.task_counts(&i), vec![1, 1, 1]);
    }

    #[test]
    fn single_gsp_takes_everything() {
        let i = inst(3, 1, vec![2.0, 3.0, 4.0], vec![1.0, 1.0, 1.0], 3.0, 100.0);
        let o = BranchBound::default().solve(&i).unwrap();
        assert_eq!(o.cost, 9.0);
        assert_eq!(o.assignment.as_slice(), &[0, 0, 0]);
    }

    #[test]
    fn equal_tasks_and_gsps_is_a_matching() {
        // 3 tasks, 3 GSPs: each gets exactly one; optimum is the
        // min-cost perfect matching (here the diagonal = 3).
        let i = inst(
            3,
            3,
            vec![1.0, 9.0, 9.0, 9.0, 1.0, 9.0, 9.0, 9.0, 1.0],
            vec![1.0; 9],
            10.0,
            100.0,
        );
        let o = BranchBound::default().solve(&i).unwrap();
        assert_eq!(o.cost, 3.0);
        let counts = o.assignment.task_counts(&i);
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn expired_deadline_returns_seed_as_anytime_incumbent() {
        let i = inst(3, 2, vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0], vec![1.0; 6], 100.0, 100.0);
        // A deadline in the past: no tree search, but the heuristic
        // seed still yields a feasible anytime answer with a gap.
        let budget = Budget::with_deadline(Instant::now());
        match BranchBound::default().solve_status_with_budget(&i, None, &budget) {
            SolveStatus::Feasible(o) => {
                assert!(!o.optimal);
                assert!(o.deadline_hit);
                let lb = o.lower_bound.expect("truncated solve carries a bound");
                let gap = o.gap.expect("truncated solve carries a gap");
                assert!(lb <= o.cost + 1e-12);
                assert!((0.0..=1.0).contains(&gap));
                o.assignment.check_feasible(&i).unwrap();
            }
            // The seed can also prove optimality against the root
            // bound before the deadline check — equally acceptable.
            SolveStatus::Optimal(o) => assert!(o.optimal),
            other => panic!("expected an anytime incumbent, got {other:?}"),
        }
    }

    #[test]
    fn gap_brackets_the_true_optimum_under_a_node_budget() {
        let i =
            inst(4, 2, vec![2.0, 3.0, 3.0, 2.0, 2.5, 2.6, 3.0, 2.0], vec![1.0; 8], 100.0, 100.0);
        let (_, opt) = crate::brute::solve(&i).unwrap().expect("feasible");
        let bb = BranchBound { max_nodes: 1 };
        match bb.solve_status_with_budget(&i, None, &Budget::unlimited()) {
            SolveStatus::Feasible(o) => {
                let lb = o.lower_bound.unwrap();
                assert!(lb <= opt + 1e-9, "lower bound {lb} exceeds optimum {opt}");
                assert!(o.cost >= opt - 1e-9, "incumbent {} beats optimum {opt}", o.cost);
                assert!(!o.deadline_hit, "node-cap truncation is not a deadline hit");
            }
            SolveStatus::Optimal(o) => {
                assert_eq!(o.gap, Some(0.0));
                assert!((o.cost - opt).abs() < 1e-9);
            }
            other => panic!("unexpected status {other:?}"),
        }
    }

    /// `n` tasks × `k` GSPs with structured costs and times.
    fn structured(n: usize, k: usize, d: f64, p: f64) -> AssignmentInstance {
        let mut cost = Vec::new();
        let mut time = Vec::new();
        for t in 0..n {
            for g in 0..k {
                cost.push(1.0 + ((t * 31 + g * 17) % 23) as f64);
                time.push(1.0 + ((t * 13 + g * 7) % 5) as f64);
            }
        }
        inst(n, k, cost, time, d, p)
    }

    #[test]
    fn node_budget_results_are_deterministic() {
        // Node caps (unlike wall-clock deadlines) are reproducible:
        // two identical solves must agree bit for bit.
        let i = structured(25, 4, 25.0, 1e6);
        let bb = BranchBound { max_nodes: 100 };
        let a = bb.solve_status_with_budget(&i, None, &Budget::unlimited());
        let b = bb.solve_status_with_budget(&i, None, &Budget::unlimited());
        assert_eq!(a, b);
    }

    #[test]
    fn moderate_instance_closes_fast() {
        // 60 tasks × 6 GSPs with structured costs: must finish well
        // within the default budget.
        let i = structured(60, 6, 100.0, 1e6);
        let o = BranchBound::default().solve(&i).unwrap();
        assert!(o.optimal);
        o.assignment.check_feasible(&i).unwrap();
    }
}
