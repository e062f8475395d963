//! Braun et al. matrix generation (§IV-A of the paper).
//!
//! * **Cost matrix** — the baseline × row-multiplier method of Braun
//!   et al. (JPDC 2001): a baseline value per task uniform in
//!   `[1, φ_b]`, multiplied per GSP by a uniform row multiplier in
//!   `[1, φ_r]`, so every entry lies in `[1, φ_b·φ_r]`. The matrix is
//!   *inconsistent* (a GSP cheap for one task can be expensive for
//!   another — "GSP policies"). The paper additionally requires costs
//!   to be **workload-monotone**: a heavier task costs more than a
//!   lighter one on *every* GSP. We enforce that by sorting each GSP's
//!   cost column to match the workload order — a permutation that
//!   preserves the Braun marginal distribution exactly.
//!
//! * **Time matrix** — `t(T, G) = w(T)/s(G)`: *consistent* by
//!   construction (a faster GSP is faster for every task), which is
//!   the property the paper proves in §IV-A.

use crate::config::{PHI_B, PHI_R};
use rand::Rng;

/// Generate the raw Braun cost matrix (task-major, `n × m`): entry
/// `(t, g) = baseline[t] × U[1, φ_r]`, `baseline[t] ∈ U[1, φ_b]`.
pub fn braun_cost_matrix<R: Rng + ?Sized>(rng: &mut R, tasks: usize, gsps: usize) -> Vec<f64> {
    let baseline: Vec<f64> = (0..tasks).map(|_| rng.gen_range(1.0..=PHI_B)).collect();
    let mut cost = Vec::with_capacity(tasks * gsps);
    for &b in &baseline {
        for _ in 0..gsps {
            cost.push(b * rng.gen_range(1.0..=PHI_R));
        }
    }
    cost
}

/// Rearrange a cost matrix so each GSP's column is monotone in task
/// workload: for any two tasks with `w(T_j) > w(T_q)`,
/// `c(T_j, G) > c(T_q, G)` on every GSP. Column value *sets* are
/// preserved (only permuted), so the Braun marginals are intact.
pub fn enforce_workload_monotonicity(cost: &mut [f64], workloads: &[f64], gsps: usize) {
    let tasks = workloads.len();
    debug_assert_eq!(cost.len(), tasks * gsps);
    // rank of each task by workload (0 = lightest)
    let mut order: Vec<usize> = (0..tasks).collect();
    order.sort_by(|&a, &b| workloads[a].partial_cmp(&workloads[b]).expect("finite workloads"));
    let mut rank = vec![0usize; tasks];
    for (r, &t) in order.iter().enumerate() {
        rank[t] = r;
    }
    let mut column = Vec::with_capacity(tasks);
    for g in 0..gsps {
        column.clear();
        column.extend((0..tasks).map(|t| cost[t * gsps + g]));
        column.sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
        for t in 0..tasks {
            cost[t * gsps + g] = column[rank[t]];
        }
    }
}

/// The consistent execution-time matrix `t(T, G) = w(T)/s(G)`
/// (task-major, `n × m`).
pub fn time_matrix(workloads: &[f64], speeds_gflops: &[f64]) -> Vec<f64> {
    let mut time = Vec::with_capacity(workloads.len() * speeds_gflops.len());
    for &w in workloads {
        for &s in speeds_gflops {
            time.push(w / s);
        }
    }
    time
}

/// Audit: is a task-major time matrix consistent? (GSP faster for one
/// task ⇒ faster for all.)
pub fn is_consistent(time: &[f64], tasks: usize, gsps: usize) -> bool {
    if tasks == 0 || gsps < 2 {
        return true;
    }
    for a in 0..gsps {
        for b in (a + 1)..gsps {
            let first = time[a].partial_cmp(&time[b]).expect("finite");
            for t in 1..tasks {
                let cmp = time[t * gsps + a].partial_cmp(&time[t * gsps + b]).expect("finite");
                if cmp != first
                    && cmp != std::cmp::Ordering::Equal
                    && first != std::cmp::Ordering::Equal
                {
                    return false;
                }
            }
        }
    }
    true
}

/// Audit: is a task-major cost matrix workload-monotone w.r.t.
/// `workloads` (heavier ⇒ at least as costly on every GSP)?
pub fn is_workload_monotone(cost: &[f64], workloads: &[f64], gsps: usize) -> bool {
    let tasks = workloads.len();
    let mut order: Vec<usize> = (0..tasks).collect();
    order.sort_by(|&a, &b| workloads[a].partial_cmp(&workloads[b]).expect("finite"));
    for g in 0..gsps {
        for w in order.windows(2) {
            if cost[w[0] * gsps + g] > cost[w[1] * gsps + g] + 1e-12 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    type TestRng = rand::rngs::StdRng;

    #[test]
    fn braun_entries_in_range() {
        let mut rng = TestRng::seed_from_u64(1);
        let c = braun_cost_matrix(&mut rng, 50, 8);
        assert_eq!(c.len(), 400);
        for &v in &c {
            assert!((1.0..=1000.0).contains(&v), "entry {v} outside [1, 1000]");
        }
    }

    #[test]
    fn braun_rows_share_baseline() {
        // all entries of a task's row lie within φ_r of each other
        let mut rng = TestRng::seed_from_u64(2);
        let c = braun_cost_matrix(&mut rng, 20, 6);
        for t in 0..20 {
            let row = &c[t * 6..(t + 1) * 6];
            let lo = row.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = row.iter().cloned().fold(0.0f64, f64::max);
            assert!(hi / lo <= 10.0 + 1e-9, "row spread {}", hi / lo);
        }
    }

    #[test]
    fn monotonicity_enforcement_works_and_preserves_column_sets() {
        let mut rng = TestRng::seed_from_u64(3);
        let tasks = 30;
        let gsps = 5;
        let workloads: Vec<f64> = (0..tasks).map(|_| rng.gen_range(10.0..1000.0)).collect();
        let mut cost = braun_cost_matrix(&mut rng, tasks, gsps);
        let mut before_cols: Vec<Vec<f64>> =
            (0..gsps).map(|g| (0..tasks).map(|t| cost[t * gsps + g]).collect()).collect();
        enforce_workload_monotonicity(&mut cost, &workloads, gsps);
        assert!(is_workload_monotone(&cost, &workloads, gsps));
        // column value multisets unchanged
        for (g, col) in before_cols.iter_mut().enumerate() {
            col.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut after: Vec<f64> = (0..tasks).map(|t| cost[t * gsps + g]).collect();
            after.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (x, y) in col.iter().zip(after.iter()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn time_matrix_is_consistent() {
        let workloads = vec![100.0, 300.0, 50.0];
        let speeds = vec![80.0, 600.0, 200.0];
        let t = time_matrix(&workloads, &speeds);
        assert!(is_consistent(&t, 3, 3));
        assert!((t[0] - 100.0 / 80.0).abs() < 1e-12);
        assert!((t[3 + 2] - 300.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn inconsistent_matrix_detected() {
        // GSP 0 faster for task 0, slower for task 1
        let t = vec![1.0, 2.0, 3.0, 2.0];
        assert!(!is_consistent(&t, 2, 2));
    }

    #[test]
    fn raw_braun_matrix_usually_not_monotone() {
        // sanity: the enforcement step is actually doing something
        let mut rng = TestRng::seed_from_u64(4);
        let tasks = 40;
        let gsps = 6;
        let workloads: Vec<f64> = (0..tasks).map(|_| rng.gen_range(10.0..1000.0)).collect();
        let cost = braun_cost_matrix(&mut rng, tasks, gsps);
        assert!(!is_workload_monotone(&cost, &workloads, gsps));
    }

    #[test]
    fn degenerate_shapes() {
        assert!(is_consistent(&[], 0, 3));
        assert!(is_workload_monotone(&[], &[], 3));
        let mut empty: Vec<f64> = vec![];
        enforce_workload_monotonicity(&mut empty, &[], 3);
    }
}
