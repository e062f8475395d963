//! Rectangular Hungarian algorithm (Kuhn–Munkres) for min-cost
//! bipartite assignment.
//!
//! Used to strengthen the branch-and-bound's participation bound:
//! constraint (13) forces each GSP to receive at least one task, so
//! the optimal cost is at least
//!
//! ```text
//! Σ_T min_G c(T, G)   +   min-cost matching of one distinct
//!                         "representative" task per GSP on the
//!                         detour costs c(T, G) − min_G' c(T, G')
//! ```
//!
//! The naive bound used at every node (`Σ_G min_T detour(T, G)`) may
//! pick the *same* task for several GSPs; the Hungarian matching
//! forbids that, which tightens the root bound and the bound of any
//! node with several idle GSPs. It costs `O(k²·n)` for `k` GSPs and
//! `n ≥ k` tasks, so the search uses it once at the root (and the
//! tables keep the per-GSP fallback for the hot per-node path).
//!
//! Implementation: the standard potentials-based shortest augmenting
//! path formulation (Jonker–Volgenant style), rows = GSPs (the small
//! side), columns = tasks.

/// Solve the rectangular min-cost assignment: match each of `rows`
/// rows to a distinct column of `cols ≥ rows`, minimizing the sum of
/// `cost[r * cols + c]`. Returns `(assignment, total)` where
/// `assignment[r]` is the column matched to row `r`.
///
/// # Panics
/// Panics if `cols < rows` or the matrix has the wrong length
/// (programming errors).
pub fn min_cost_matching(cost: &[f64], rows: usize, cols: usize) -> (Vec<usize>, f64) {
    assert!(cols >= rows, "need at least as many columns as rows");
    assert_eq!(cost.len(), rows * cols, "cost matrix shape mismatch");
    if rows == 0 {
        return (Vec::new(), 0.0);
    }
    // 1-based arrays in the classic formulation.
    let inf = f64::INFINITY;
    let mut u = vec![0.0f64; rows + 1]; // row potentials
    let mut v = vec![0.0f64; cols + 1]; // column potentials
    let mut p = vec![0usize; cols + 1]; // p[c] = row matched to column c (0 = none)
    let mut way = vec![0usize; cols + 1];
    // per-row buffers, reset for each row
    let mut minv = vec![inf; cols + 1];
    let mut used = vec![false; cols + 1];

    for r in 1..=rows {
        p[0] = r;
        let mut j0 = 0usize; // current column (virtual start)
        minv.fill(inf);
        used.fill(false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0;
            for j in 1..=cols {
                if used[j] {
                    continue;
                }
                let cur = cost[(i0 - 1) * cols + (j - 1)] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=cols {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // augment along the alternating path
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![usize::MAX; rows];
    let mut total = 0.0;
    for j in 1..=cols {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
            total += cost[(p[j] - 1) * cols + (j - 1)];
        }
    }
    (assignment, total)
}

/// The participation lower bound used at the branch-and-bound root:
/// `Σ_T min_G c(T,G)` plus the min-cost matching of distinct
/// representative tasks onto the GSPs over detour costs.
pub fn participation_bound(inst: &crate::instance::AssignmentInstance) -> f64 {
    let n = inst.tasks();
    let k = inst.gsps();
    let min_cost: Vec<f64> = (0..n).map(|t| inst.min_cost(t)).collect();
    let base: f64 = min_cost.iter().sum();
    // detour matrix: rows = GSPs, cols = tasks
    let mut detour = vec![0.0; k * n];
    for g in 0..k {
        for t in 0..n {
            detour[g * n + t] = inst.cost(t, g) - min_cost[t];
        }
    }
    let (_, matching) = min_cost_matching(&detour, k, n);
    base + matching
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::AssignmentInstance;

    /// Brute-force oracle: all injective row→column maps.
    fn brute_matching(cost: &[f64], rows: usize, cols: usize) -> f64 {
        fn rec(cost: &[f64], rows: usize, cols: usize, r: usize, used: &mut Vec<bool>) -> f64 {
            if r == rows {
                return 0.0;
            }
            let mut best = f64::INFINITY;
            for c in 0..cols {
                if !used[c] {
                    used[c] = true;
                    let v = cost[r * cols + c] + rec(cost, rows, cols, r + 1, used);
                    used[c] = false;
                    best = best.min(v);
                }
            }
            best
        }
        rec(cost, rows, cols, 0, &mut vec![false; cols])
    }

    #[test]
    fn square_diagonal_matching() {
        // cheap diagonal
        let cost = vec![
            1.0, 9.0, 9.0, //
            9.0, 1.0, 9.0, //
            9.0, 9.0, 1.0,
        ];
        let (a, total) = min_cost_matching(&cost, 3, 3);
        assert_eq!(a, vec![0, 1, 2]);
        assert!((total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn anti_diagonal_requires_permutation() {
        let cost = vec![
            9.0, 9.0, 1.0, //
            9.0, 1.0, 9.0, //
            1.0, 9.0, 9.0,
        ];
        let (a, total) = min_cost_matching(&cost, 3, 3);
        assert_eq!(a, vec![2, 1, 0]);
        assert!((total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rectangular_picks_best_columns() {
        // 2 rows, 4 columns
        let cost = vec![
            5.0, 1.0, 7.0, 9.0, //
            1.0, 5.0, 7.0, 9.0,
        ];
        let (a, total) = min_cost_matching(&cost, 2, 4);
        assert_eq!(a, vec![1, 0]);
        assert!((total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn conflict_on_cheapest_column_resolved_optimally() {
        // both rows want column 0; optimum gives it to row 1
        let cost = vec![
            1.0, 2.0, //
            1.0, 10.0,
        ];
        let (_, total) = min_cost_matching(&cost, 2, 2);
        assert!((total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_pseudorandom_matrices() {
        for seed in 0..30u64 {
            let rows = 2 + (seed % 3) as usize;
            let cols = rows + (seed % 4) as usize;
            // deterministic pseudo-random values
            let cost: Vec<f64> = (0..rows * cols)
                .map(|i| {
                    let x = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add((i as u64).wrapping_mul(1442695040888963407))
                        % 1000;
                    1.0 + x as f64 / 10.0
                })
                .collect();
            let (a, total) = min_cost_matching(&cost, rows, cols);
            let oracle = brute_matching(&cost, rows, cols);
            assert!(
                (total - oracle).abs() < 1e-9,
                "seed {seed}: hungarian {total} vs brute {oracle}"
            );
            // assignment is injective and consistent with the total
            let mut seen = std::collections::HashSet::new();
            let mut sum = 0.0;
            for (r, &c) in a.iter().enumerate() {
                assert!(seen.insert(c), "column {c} used twice");
                sum += cost[r * cols + c];
            }
            assert!((sum - total).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_matching() {
        let (a, total) = min_cost_matching(&[], 0, 0);
        assert!(a.is_empty());
        assert_eq!(total, 0.0);
    }

    #[test]
    fn participation_bound_is_admissible_and_tighter() {
        // GSP 1 is never cheapest: the naive per-GSP bound and the
        // matching bound differ when two GSPs share a best detour task.
        let inst = AssignmentInstance::new(
            3,
            2,
            vec![
                1.0, 3.0, //
                1.0, 3.0, //
                5.0, 6.0,
            ],
            vec![1.0; 6],
            10.0,
            100.0,
        )
        .unwrap();
        let bound = participation_bound(&inst);
        let opt = crate::branch_bound::BranchBound::default().solve(&inst).unwrap().cost;
        assert!(bound <= opt + 1e-9, "bound {bound} exceeds optimum {opt}");
        // naive bound: Σmin (1+1+5=7) + min detour for G1 (= 1) = 8;
        // matching bound is the same here (8) — now force a conflict:
        let conflict = AssignmentInstance::new(
            2,
            2,
            vec![
                1.0, 2.0, // task 0: detour to G1 = 1
                1.0, 9.0, // task 1: detour to G1 = 8
            ],
            vec![1.0; 4],
            10.0,
            100.0,
        )
        .unwrap();
        // Σmin = 2; both GSPs must be served: G0 takes one task at
        // detour 0, G1 must take the OTHER task; matching = 0 + 1 = 3
        // if G1 gets task 0, or 0 + 8 = 10 if task 1 → matching picks 3.
        let b = participation_bound(&conflict);
        assert!((b - 3.0).abs() < 1e-9, "matching bound {b}");
        let o = crate::branch_bound::BranchBound::default().solve(&conflict).unwrap().cost;
        assert!((o - 3.0).abs() < 1e-9, "this bound is tight here, optimum {o}");
    }

    #[test]
    fn participation_bound_never_below_min_cost_sum() {
        let inst = AssignmentInstance::new(
            4,
            3,
            vec![
                2.0, 4.0, 6.0, //
                1.0, 2.0, 3.0, //
                5.0, 5.0, 5.0, //
                3.0, 1.0, 2.0,
            ],
            vec![1.0; 12],
            10.0,
            100.0,
        )
        .unwrap();
        assert!(participation_bound(&inst) >= inst.min_cost_sum() - 1e-12);
    }
}
