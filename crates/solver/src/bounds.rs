//! Precomputed lower-bound tables for the branch-and-bound search.
//!
//! All bounds are *admissible* (never exceed the true optimal
//! completion cost of a partial assignment), so pruning on them
//! preserves exactness:
//!
//! * **cost bound** — committed cost + Σ over unassigned tasks of the
//!   per-task minimum cost (each task must run somewhere, and nowhere
//!   cheaper than its cheapest GSP);
//! * **participation penalty** — each currently-idle GSP must
//!   eventually receive a task (constraint (13)), paying at least
//!   `min_T (c(T,G) − min_{G'} c(T,G'))` above the relaxed bound;
//! * **time bound** — Σ over unassigned tasks of the per-task minimum
//!   execution time can never exceed the total remaining deadline
//!   slack Σ_G (d − load_G); if it does, no completion satisfies
//!   constraint (11);
//! * **Lagrangian bound** — relax the per-GSP deadline constraints
//!   (11) with multipliers μ_G ≥ 0. For any feasible completion of a
//!   prefix with committed cost `C`, loads `load_G` and remaining
//!   tasks `R`:
//!
//!   ```text
//!   Σ_{T∈R} c(T,σT) ≥ Σ_{T∈R} [c(T,σT) + μ_{σT}·t(T,σT)]
//!                      − Σ_G μ_G·(d − load_G)⁺
//!                   ≥ Σ_{T∈R} min_G c̃(T,G) − Σ_G μ_G·(d − load_G)⁺
//!   ```
//!
//!   because a feasible completion adds at most `(d − load_G)⁺` time
//!   to each GSP, where `c̃(T,G) = c(T,G) + μ_G·t(T,G)` is the reduced
//!   cost. Weak duality: any μ ≥ 0 yields an admissible bound; the
//!   multipliers are fitted once at the root by a deterministic
//!   subgradient ascent and reused (with suffix sums of `min_G c̃`) at
//!   every node;
//! * **coverage masks** — a static per-task bitset of the GSPs that
//!   could ever run the task within the deadline (`t(T,G) ≤ d`), with
//!   suffix unions over the branch order: if some still-idle GSP is
//!   outside the union of the remaining tasks' masks, no completion
//!   can satisfy participation (13), whatever the loads.

use crate::instance::AssignmentInstance;

/// Deterministic subgradient-ascent iterations for the root
/// Lagrangian multipliers. The bound is admissible for *any* μ ≥ 0,
/// so this only trades preprocessing time against tightness.
const LAG_ITERS: usize = 40;

/// The tables the heuristic seed reads: the branch order, the per-task
/// minimum costs and the cost-sorted children. They are cheap next to
/// the rest of [`BoundTables`], which holds them and adds what only the
/// search reads.
#[derive(Debug, Clone)]
pub struct SeedTables {
    /// Order in which tasks are branched on: decreasing minimum
    /// execution time, so big, deadline-critical tasks are placed
    /// first and time-infeasible subtrees die early.
    pub order: Vec<usize>,
    /// Per-task (original index) minimum cost over GSPs.
    pub min_cost: Vec<f64>,
    /// For each task (original index), GSP indices sorted by ascending
    /// cost — the child expansion order (cheapest first ⇒ good
    /// incumbents early). Flat `tasks × gsps`, entries fit in `u16`.
    pub child_order: Vec<u16>,
}

impl SeedTables {
    /// Build the seed's tables for `inst`.
    pub fn new(inst: &AssignmentInstance) -> Self {
        let n = inst.tasks();
        let k = inst.gsps();
        let min_cost: Vec<f64> = (0..n).map(|t| inst.min_cost(t)).collect();
        let min_time: Vec<f64> = (0..n).map(|t| inst.min_time(t)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| min_time[b].total_cmp(&min_time[a]).then(a.cmp(&b)));

        let mut child_order = Vec::with_capacity(n * k);
        let mut scratch: Vec<u16> = (0..k as u16).collect();
        for t in 0..n {
            let row = inst.cost_row(t);
            scratch.sort_by(|&a, &b| row[a as usize].total_cmp(&row[b as usize]));
            child_order.extend_from_slice(&scratch);
        }
        SeedTables { order, min_cost, child_order }
    }

    /// Child GSPs of a task in ascending-cost order.
    #[inline]
    pub fn children(&self, task: usize, gsps: usize) -> &[u16] {
        &self.child_order[task * gsps..(task + 1) * gsps]
    }

    /// Σ of the per-task minimum costs, summed in reverse branch order
    /// (the bits of [`BoundTables::suffix_min_cost`]`[0]`).
    pub fn min_cost_sum(&self) -> f64 {
        self.order.iter().rev().fold(0.0, |sum, &t| sum + self.min_cost[t])
    }
}

/// Static tables computed once per instance and shared by the
/// heuristic seed and the search.
#[derive(Debug, Clone)]
pub struct BoundTables {
    /// The branch order, per-task minimum costs and cost-sorted
    /// children, which the heuristic seed reads too.
    pub seed: SeedTables,
    /// `suffix_min_cost[i]` = Σ over `order[i..]` of per-task min cost.
    /// Entry `n` is 0.
    pub suffix_min_cost: Vec<f64>,
    /// `suffix_min_time[i]` = Σ over `order[i..]` of per-task min time.
    pub suffix_min_time: Vec<f64>,
    /// Per-GSP participation penalty: cheapest detour cost of serving
    /// this GSP one task, relative to that task's min cost.
    pub gsp_penalty: Vec<f64>,
    /// Lagrangian multipliers μ_G ≥ 0 for the relaxed deadline
    /// constraints, fitted once at the root. All-zero when the
    /// relaxation is already deadline-feasible (then the plain cost
    /// bound dominates and the Lagrangian term is skipped).
    pub lag_mu: Vec<f64>,
    /// `suffix_min_red[i]` = Σ over `order[i..]` of per-task minimum
    /// *reduced* cost `min_G (c + μ_G·t)`. Entry `n` is 0.
    pub suffix_min_red: Vec<f64>,
    /// True iff any `lag_mu` entry is positive — gate for the per-node
    /// Lagrangian bound.
    pub has_mu: bool,
    /// Words per bitmask row: `(gsps + 63) / 64`.
    pub words: usize,
    /// Per-task coverage mask, flat `tasks × words`: bit `G` set iff
    /// `t(T,G) ≤ d + 1e-9`, i.e. GSP `G` could run task `T` at all.
    pub task_mask: Vec<u64>,
    /// `suffix_union[i]` = OR of `task_mask` over `order[i..]`, flat
    /// `(tasks + 1) × words`. Row `n` is all-zero.
    pub suffix_union: Vec<u64>,
}

impl BoundTables {
    /// Build all tables for `inst`.
    pub fn new(inst: &AssignmentInstance) -> Self {
        BoundTables::with_seed(inst, SeedTables::new(inst))
    }

    /// Build the search's tables for `inst` around the seed's tables
    /// `seed`, already built for it.
    pub fn with_seed(inst: &AssignmentInstance, seed: SeedTables) -> Self {
        let n = inst.tasks();
        let k = inst.gsps();
        let SeedTables { order, min_cost, .. } = &seed;

        let mut suffix_min_cost = vec![0.0; n + 1];
        let mut suffix_min_time = vec![0.0; n + 1];
        for i in (0..n).rev() {
            suffix_min_cost[i] = suffix_min_cost[i + 1] + min_cost[order[i]];
            suffix_min_time[i] = suffix_min_time[i + 1] + inst.min_time(order[i]);
        }

        let mut gsp_penalty = vec![f64::INFINITY; k];
        #[allow(clippy::needless_range_loop)] // t indexes min_cost and the instance
        for t in 0..n {
            let mc = min_cost[t];
            for (g, pen) in gsp_penalty.iter_mut().enumerate() {
                let detour = inst.cost(t, g) - mc;
                if detour < *pen {
                    *pen = detour;
                }
            }
        }

        let words = k.div_ceil(64);
        let deadline = inst.deadline();
        let mut task_mask = vec![0u64; n * words];
        for t in 0..n {
            let row = inst.time_row(t);
            for (g, &time) in row.iter().enumerate() {
                if time <= deadline + 1e-9 {
                    task_mask[t * words + g / 64] |= 1u64 << (g % 64);
                }
            }
        }
        let mut suffix_union = vec![0u64; (n + 1) * words];
        for i in (0..n).rev() {
            let t = order[i];
            for w in 0..words {
                suffix_union[i * words + w] =
                    suffix_union[(i + 1) * words + w] | task_mask[t * words + w];
            }
        }

        let lag_mu = fit_multipliers(inst);
        let has_mu = lag_mu.iter().any(|&m| m > 0.0);
        let mut suffix_min_red = vec![0.0; n + 1];
        if has_mu {
            for i in (0..n).rev() {
                let t = order[i];
                let red = (0..k)
                    .map(|g| inst.cost(t, g) + lag_mu[g] * inst.time(t, g))
                    .fold(f64::INFINITY, f64::min);
                suffix_min_red[i] = suffix_min_red[i + 1] + red;
            }
        } else {
            suffix_min_red.copy_from_slice(&suffix_min_cost);
        }

        BoundTables {
            seed,
            suffix_min_cost,
            suffix_min_time,
            gsp_penalty,
            lag_mu,
            suffix_min_red,
            has_mu,
            words,
            task_mask,
            suffix_union,
        }
    }

    /// Cost lower bound at search depth `depth` (tasks `order[..depth]`
    /// committed): `committed + suffix_min_cost[depth] + penalty for
    /// idle GSPs`, where `idle` flags GSPs with zero tasks so far.
    #[inline]
    pub fn cost_lower_bound(&self, depth: usize, committed: f64, counts: &[usize]) -> f64 {
        let mut lb = committed + self.suffix_min_cost[depth];
        for (g, &c) in counts.iter().enumerate() {
            if c == 0 {
                lb += self.gsp_penalty[g];
            }
        }
        lb
    }

    /// True when the remaining tasks cannot fit in the remaining
    /// deadline slack, whatever the completion.
    #[inline]
    pub fn time_infeasible(&self, depth: usize, loads: &[f64], deadline: f64) -> bool {
        let slack: f64 = loads.iter().map(|&l| (deadline - l).max(0.0)).sum();
        self.suffix_min_time[depth] > slack + 1e-9
    }

    /// Lagrangian lower bound at search depth `depth`: committed cost
    /// plus the remaining minimum reduced cost, minus the maximum
    /// deadline slack the multipliers could refund. Admissible for any
    /// μ ≥ 0 by weak duality (see module docs); call only when
    /// `has_mu` (otherwise it degenerates to the plain relaxation the
    /// cost bound already dominates).
    #[inline]
    pub fn lagrangian_lower_bound(
        &self,
        depth: usize,
        committed: f64,
        loads: &[f64],
        deadline: f64,
    ) -> f64 {
        let mut lb = committed + self.suffix_min_red[depth];
        for (g, &l) in loads.iter().enumerate() {
            let mu = self.lag_mu[g];
            if mu > 0.0 {
                lb -= mu * (deadline - l).max(0.0);
            }
        }
        lb
    }

    /// True when some GSP flagged in `idle_mask` (bit per GSP) is
    /// covered by *no* remaining task's coverage mask: participation
    /// (13) is then unsatisfiable from this node, whatever the loads.
    #[inline]
    pub fn idle_uncoverable(&self, depth: usize, idle_mask: &[u64]) -> bool {
        let union = &self.suffix_union[depth * self.words..(depth + 1) * self.words];
        idle_mask.iter().zip(union).any(|(&idle, &cov)| idle & !cov != 0)
    }

    /// Coverage mask row of one task (original index).
    #[inline]
    pub fn task_mask(&self, task: usize) -> &[u64] {
        &self.task_mask[task * self.words..(task + 1) * self.words]
    }
}

/// Fit root multipliers by projected subgradient ascent on the dual
/// `q(μ) = Σ_T min_G c̃(T,G) − d·Σ_G μ_G` (empty prefix). Entirely
/// deterministic: fixed iteration count, diminishing step, ties in the
/// per-task argmin broken toward the lowest GSP index. Returns all
/// zeros when the μ=0 relaxation already meets every deadline (the
/// relaxed solution is then dual-optimal and the plain cost bound is
/// the best this family offers).
fn fit_multipliers(inst: &AssignmentInstance) -> Vec<f64> {
    let n = inst.tasks();
    let k = inst.gsps();
    let deadline = inst.deadline();
    let mut mu = vec![0.0; k];

    // Greedy loads of the μ=0 relaxation (each task on its cheapest
    // GSP, ties toward the lowest index).
    let mut loads = vec![0.0; k];
    for t in 0..n {
        let row = inst.cost_row(t);
        let mut best = 0usize;
        for g in 1..k {
            if row[g] < row[best] {
                best = g;
            }
        }
        loads[best] += inst.time(t, best);
    }
    if loads.iter().all(|&l| l <= deadline + 1e-9) {
        return mu;
    }

    // Step scale: average cost-per-time converts time overrun into
    // cost units so the first steps are commensurate with the data.
    let total_min_cost: f64 = (0..n).map(|t| inst.min_cost(t)).sum();
    let total_min_time: f64 = (0..n).map(|t| inst.min_time(t)).sum();
    let s0 = (total_min_cost / total_min_time.max(1e-12)).max(1e-6);

    let mut best_mu = mu.clone();
    let mut best_q = f64::NEG_INFINITY;
    let mut grad = vec![0.0; k];
    for it in 0..LAG_ITERS {
        // Evaluate q(μ) and its supergradient: per-GSP argmin load
        // minus the deadline.
        grad.fill(-deadline);
        let mut q = -deadline * mu.iter().sum::<f64>();
        for t in 0..n {
            let costs = inst.cost_row(t);
            let times = inst.time_row(t);
            let mut best_g = 0usize;
            let mut best_red = costs[0] + mu[0] * times[0];
            for g in 1..k {
                let red = costs[g] + mu[g] * times[g];
                if red < best_red {
                    best_red = red;
                    best_g = g;
                }
            }
            q += best_red;
            grad[best_g] += times[best_g];
        }
        if q > best_q {
            best_q = q;
            best_mu.copy_from_slice(&mu);
        }
        let step = s0 / (1.0 + it as f64);
        for (m, &g) in mu.iter_mut().zip(grad.iter()) {
            *m = (*m + step * g).max(0.0);
        }
    }
    best_mu
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> AssignmentInstance {
        // 3 tasks × 2 GSPs; task 1 is the slowest anywhere.
        AssignmentInstance::new(
            3,
            2,
            vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0],
            vec![1.0, 2.0, 5.0, 6.0, 1.0, 2.0],
            20.0,
            100.0,
        )
        .unwrap()
    }

    #[test]
    fn order_puts_biggest_task_first() {
        let t = BoundTables::new(&inst());
        assert_eq!(t.seed.order[0], 1, "task 1 has min_time 5, the largest");
    }

    #[test]
    fn suffix_sums_telescoping() {
        let i = inst();
        let t = BoundTables::new(&i);
        assert_eq!(t.suffix_min_cost[3], 0.0);
        assert!((t.suffix_min_cost[0] - i.min_cost_sum()).abs() < 1e-12);
        assert_eq!(t.suffix_min_cost[0].to_bits(), t.seed.min_cost_sum().to_bits());
        // each prefix step removes exactly one task's min cost
        for d in 0..3 {
            let diff = t.suffix_min_cost[d] - t.suffix_min_cost[d + 1];
            assert!((diff - t.seed.min_cost[t.seed.order[d]]).abs() < 1e-12);
        }
    }

    #[test]
    fn penalty_is_cheapest_detour() {
        let i = inst();
        let t = BoundTables::new(&i);
        // GSP 0 detours: task0 1-1=0 → penalty 0
        assert_eq!(t.gsp_penalty[0], 0.0);
        // GSP 1 detours: task0 4-1=3, task1 1-1=0, task2 2-2=0 → 0
        assert_eq!(t.gsp_penalty[1], 0.0);
    }

    #[test]
    fn penalty_positive_when_gsp_never_cheapest() {
        let i = AssignmentInstance::new(
            2,
            2,
            vec![1.0, 3.0, 1.0, 5.0],
            vec![1.0, 1.0, 1.0, 1.0],
            10.0,
            100.0,
        )
        .unwrap();
        let t = BoundTables::new(&i);
        assert_eq!(t.gsp_penalty[1], 2.0); // cheapest detour: task 0, 3−1
                                           // the idle-GSP-aware bound beats the naive relaxation
        let lb = t.cost_lower_bound(0, 0.0, &[0, 0]);
        assert_eq!(lb, 2.0 + 2.0); // min costs (1+1) + penalty 2
    }

    #[test]
    fn cost_lower_bound_drops_penalty_once_served() {
        let i = inst();
        let t = BoundTables::new(&i);
        let lb_idle = t.cost_lower_bound(0, 0.0, &[0, 0]);
        let lb_served = t.cost_lower_bound(0, 0.0, &[1, 1]);
        assert!(lb_idle >= lb_served);
    }

    #[test]
    fn time_infeasibility_detects_overflow() {
        let i = inst();
        let t = BoundTables::new(&i);
        // total min time = 5 + 1 + 1 = 7; slack with empty loads = 40
        assert!(!t.time_infeasible(0, &[0.0, 0.0], 20.0));
        // loads nearly full: slack 2 < 7
        assert!(t.time_infeasible(0, &[19.0, 19.0], 20.0));
    }

    #[test]
    fn children_sorted_by_cost() {
        let i = inst();
        let t = BoundTables::new(&i);
        assert_eq!(t.seed.children(0, 2), &[0, 1]); // costs 1 < 4
        assert_eq!(t.seed.children(1, 2), &[1, 0]); // costs 1 < 2
    }

    #[test]
    fn task_masks_flag_only_deadline_feasible_gsps() {
        // deadline 3: task 0 fits on both (times 1, 6 > 3 → only g0),
        // task 1 (times 2, 1) fits both, task 2 (times 5, 2) only g1.
        let i = AssignmentInstance::new(
            3,
            2,
            vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0],
            vec![1.0, 6.0, 2.0, 1.0, 5.0, 2.0],
            3.0,
            100.0,
        )
        .unwrap();
        let t = BoundTables::new(&i);
        assert_eq!(t.words, 1);
        assert_eq!(t.task_mask(0), &[0b01]);
        assert_eq!(t.task_mask(1), &[0b11]);
        assert_eq!(t.task_mask(2), &[0b10]);
        // suffix_union[n] is empty, suffix_union[0] covers both GSPs.
        assert_eq!(t.suffix_union[3], 0);
        assert_eq!(t.suffix_union[0], 0b11);
        // With every task placed except task 0 (mask 0b01), an idle
        // GSP 1 is uncoverable from the depth where only the last
        // branch-order task remains iff that task cannot run there.
        let last = t.seed.order[2];
        let idle_g1 = [0b10u64];
        let expect = t.task_mask(last)[0] & 0b10 == 0;
        assert_eq!(t.idle_uncoverable(2, &idle_g1), expect);
        // An empty idle mask is never uncoverable.
        assert!(!t.idle_uncoverable(0, &[0]));
    }

    #[test]
    fn multipliers_zero_when_greedy_meets_deadlines() {
        // Generous deadline: the μ=0 relaxation is feasible.
        let t = BoundTables::new(&inst());
        assert!(!t.has_mu);
        assert!(t.lag_mu.iter().all(|&m| m == 0.0));
        assert_eq!(t.suffix_min_red, t.suffix_min_cost);
    }

    #[test]
    fn lagrangian_bound_is_admissible_and_can_beat_the_cost_bound() {
        // Cheap GSP 0 is slow, expensive GSP 1 is fast; a tight
        // deadline forces work onto GSP 1, which only the Lagrangian
        // bound sees.
        let n = 6;
        let mut costs = Vec::new();
        let mut times = Vec::new();
        for _ in 0..n {
            costs.extend_from_slice(&[1.0, 10.0]);
            times.extend_from_slice(&[4.0, 1.0]);
        }
        let i = AssignmentInstance::new(n, 2, costs, times, 8.0, 1000.0).unwrap();
        let t = BoundTables::new(&i);
        assert!(t.has_mu, "tight deadline must activate the multipliers");

        let zero_loads = [0.0, 0.0];
        let lag = t.lagrangian_lower_bound(0, 0.0, &zero_loads, i.deadline());
        let base = t.cost_lower_bound(0, 0.0, &[0, 0]);
        assert!(lag > base + 1e-9, "lag {lag} should beat base {base} here");

        // Admissible: never exceeds the true optimum (brute force).
        let (_, opt) = crate::brute::solve(&i).unwrap().expect("instance is feasible");
        assert!(lag <= opt + 1e-9, "lag {lag} must not exceed optimum {opt}");
    }

    #[test]
    fn lagrangian_bound_admissible_on_random_instances() {
        // Deterministic pseudo-random sweep: the root Lagrangian bound
        // never exceeds the brute-force optimum.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..60 {
            let n = 2 + (next() % 5) as usize;
            let k = 1 + (next() % 3) as usize;
            if n < k {
                continue;
            }
            let costs: Vec<f64> = (0..n * k).map(|_| 1.0 + (next() % 20) as f64).collect();
            let times: Vec<f64> = (0..n * k).map(|_| 0.5 + (next() % 8) as f64 * 0.5).collect();
            let deadline = 2.0 + (next() % 12) as f64;
            let Ok(i) = AssignmentInstance::new(n, k, costs, times, deadline, 1e6) else {
                continue;
            };
            let t = BoundTables::new(&i);
            let Some((_, opt)) = crate::brute::solve(&i).unwrap() else { continue };
            let lag = t.lagrangian_lower_bound(0, 0.0, &vec![0.0; k], i.deadline());
            assert!(lag <= opt + 1e-6, "case {case}: lag {lag} exceeds optimum {opt}");
        }
    }
}
