//! The power method — Algorithm 2 of the paper (`REPUTATION(C, E)`).
//!
//! Starting from the uniform vector `x⁰ = 1/|C|`, iterate until
//! `‖x^{q+1} − x^q‖ < ε`. The fixed point is the left principal
//! eigenvector of the normalized trust matrix `A` (eq. (6)), whose
//! `i`-th component is the *global reputation* of GSP `i` — its
//! eigenvector centrality in the trust graph.
//!
//! Each step is the *lazy* one, `x ← (Aᵀx + x) / 2`, rather than the
//! literal `x^{q+1} = Aᵀ x^q`. The fixed points of `Aᵀx = x` are
//! unchanged, but the shift makes the chain aperiodic, so the iteration
//! converges on periodic trust graphs (a pure 2-cycle, a bipartite
//! graph) where the literal Algorithm 2 oscillates forever. The paper's
//! Erdős–Rényi graphs are aperiodic almost surely, so there both reach
//! the same fixed point. When such trust iterations converge, and how
//! fast, is what Awasthi & Singh analyse (PAPERS.md).
//!
//! Because `A` is row-stochastic, `Aᵀ` preserves the L1 mass of
//! non-negative vectors, so no renormalization is mathematically needed;
//! we renormalize anyway every iteration to keep the computation robust
//! against floating-point drift on long runs.

use crate::matrix::{dist_l1, normalize_l1, DenseMatrix};
use crate::{Result, TrustError};

/// Convergence threshold `ε` on the L1 distance between successive
/// iterates. The paper leaves `ε` unspecified; `1e-10` makes the
/// returned scores stable to well beyond plotting precision.
const EPSILON: f64 = 1e-10;

/// Hard cap on iterations, guarding against slowly mixing chains (a
/// nearly decomposable trust graph).
const MAX_ITERATIONS: usize = 10_000;

/// Configuration for the power iteration of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerMethod {
    /// Optional uniform damping `α ∈ (0, 1]` of each lazy step `x'`:
    /// `x ← α·x' + (1−α)·u` with `u` uniform. `α = 1` (default) is the
    /// paper's undamped Algorithm 2; `α < 1` (e.g. 0.85) makes
    /// convergence unconditional (PageRank-style) and is used in the
    /// reputation-engine ablation.
    pub damping: f64,
}

impl Default for PowerMethod {
    fn default() -> Self {
        PowerMethod { damping: 1.0 }
    }
}

/// Result of a reputation computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReputationReport {
    /// Global reputation `x_i` per GSP; non-negative, sums to 1.
    pub scores: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
}

impl PowerMethod {
    /// Create a damped variant (PageRank-style) with the given `α`.
    pub fn damped(alpha: f64) -> Self {
        PowerMethod { damping: alpha }
    }

    /// Run Algorithm 2 on a normalized trust matrix `a` (output of
    /// [`crate::normalize::row_normalize`]) from `start`, or from the
    /// uniform `x⁰ = 1/|C|` when `start` is `None`.
    ///
    /// The fixed point is start-independent (for irreducible aperiodic
    /// chains), but a start close to it — e.g. the previous TVOF
    /// iteration's scores restricted to the surviving members —
    /// converges in far fewer iterations, which matters for
    /// federations much larger than the paper's m = 16. A start of the
    /// wrong length, with a negative or non-finite entry, or with no
    /// mass falls back to uniform.
    ///
    /// Returns [`TrustError::EmptyGraph`] for a 0×0 matrix and
    /// [`TrustError::NoConvergence`] after 10 000 iterations.
    pub fn run(&self, a: &DenseMatrix, start: Option<&[f64]>) -> Result<ReputationReport> {
        if !a.is_square() {
            return Err(TrustError::DimensionMismatch { context: "power method needs square A" });
        }
        let n = a.rows();
        if n == 0 {
            return Err(TrustError::EmptyGraph);
        }
        // x⁰ = 1/|C| for every GSP (Algorithm 2, line 3), unless a
        // usable warm start is supplied.
        let mut x = match start {
            Some(s) if s.len() == n && s.iter().all(|v| v.is_finite() && *v >= 0.0) => {
                let mut x = s.to_vec();
                if normalize_l1(&mut x) == 0.0 {
                    x = vec![1.0 / n as f64; n];
                }
                x
            }
            _ => vec![1.0 / n as f64; n],
        };
        let mut next = vec![0.0; n];
        let uniform = 1.0 / n as f64;
        let alpha = self.damping;

        let mut residual = f64::INFINITY;
        for it in 1..=MAX_ITERATIONS {
            a.mul_transpose_vec_into(&x, &mut next)?;
            // The lazy step (see the module docs).
            for (v, &xi) in next.iter_mut().zip(x.iter()) {
                *v = 0.5 * (*v + xi);
            }
            if alpha < 1.0 {
                for v in next.iter_mut() {
                    *v = alpha * *v + (1.0 - alpha) * uniform;
                }
            }
            // Keep the iterate on the probability simplex (a no-op in
            // exact arithmetic).
            normalize_l1(&mut next);
            residual = dist_l1(&next, &x);
            std::mem::swap(&mut x, &mut next);
            if residual < EPSILON {
                return Ok(ReputationReport { scores: x, iterations: it });
            }
        }
        Err(TrustError::NoConvergence { iterations: MAX_ITERATIONS, residual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::row_normalize;
    use crate::TrustGraph;

    fn ring(n: usize) -> TrustGraph {
        let mut g = TrustGraph::new(n);
        for i in 0..n {
            g.set_trust(i, (i + 1) % n, 1.0);
            // add a reverse edge to break periodicity
            g.set_trust(i, (i + n - 1) % n, 0.5);
        }
        g
    }

    #[test]
    fn uniform_fixed_point_on_symmetric_ring() {
        let g = ring(5);
        let rep = PowerMethod::default().run(&row_normalize(&g), None).unwrap();
        for &s in &rep.scores {
            assert!((s - 0.2).abs() < 1e-8, "symmetric ring must be uniform, got {s}");
        }
    }

    #[test]
    fn scores_sum_to_one_and_nonnegative() {
        let mut g = TrustGraph::new(4);
        g.set_trust(0, 1, 0.7);
        g.set_trust(1, 2, 0.3);
        g.set_trust(2, 3, 0.9);
        g.set_trust(3, 0, 0.2);
        g.set_trust(0, 2, 0.1);
        let rep = PowerMethod::default().run(&row_normalize(&g), None).unwrap();
        assert!((rep.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(rep.scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn fixed_point_satisfies_eigen_equation() {
        let mut g = TrustGraph::new(4);
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 0, 0.5);
        g.set_trust(1, 2, 0.5);
        g.set_trust(2, 3, 1.0);
        g.set_trust(3, 1, 1.0);
        g.set_trust(3, 0, 0.25);
        let a = row_normalize(&g);
        let rep = PowerMethod::default().run(&a, None).unwrap();
        // A is row-stochastic, so λ = 1: check Aᵀx ≈ x componentwise
        let mut ax = vec![0.0; 4];
        a.mul_transpose_vec_into(&rep.scores, &mut ax).unwrap();
        for (l, r) in ax.iter().zip(rep.scores.iter()) {
            assert!((l - r).abs() < 1e-8, "Aᵀx = x violated: {l} vs {r}");
        }
    }

    #[test]
    fn highly_trusted_node_gets_highest_score() {
        // Everyone trusts node 0 strongly and one other node weakly;
        // node 0 spreads its own trust thinly over all the others, so
        // it both receives the most trust and dilutes what it passes on.
        let mut g = TrustGraph::new(4);
        for i in 1..4 {
            g.set_trust(i, 0, 1.0);
            g.set_trust(i, (i % 3) + 1, 0.1);
        }
        for j in 1..4 {
            g.set_trust(0, j, 1.0);
        }
        let rep = PowerMethod::default().run(&row_normalize(&g), None).unwrap();
        assert!(rep.scores[0] > rep.scores[1]);
        assert!(rep.scores[0] > rep.scores[2]);
        assert!(rep.scores[0] > rep.scores[3]);
    }

    #[test]
    fn pure_two_cycle_fails_undamped_but_converges_damped() {
        // x oscillates between (1,0) and (0,1) mass splits: periodic.
        let mut g = TrustGraph::new(2);
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 0, 1.0);
        let a = row_normalize(&g);
        // Undamped from uniform start actually converges instantly
        // (uniform is the fixed point), so perturb via a 3-node cycle:
        let mut g3 = TrustGraph::new(3);
        g3.set_trust(0, 1, 1.0);
        g3.set_trust(1, 0, 1.0);
        g3.set_trust(2, 0, 1.0); // 2 is a source: graph is periodic-ish
        let a3 = row_normalize(&g3);
        let undamped = PowerMethod::default().run(&a3, None);
        let damped = PowerMethod::damped(0.85).run(&a3, None).unwrap();
        assert!((damped.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The undamped run may or may not converge; the damped one must.
        if let Ok(r) = undamped {
            assert!(r.iterations <= MAX_ITERATIONS);
        }
        let _ = a; // silence unused in case branch above changes
    }

    #[test]
    fn empty_matrix_is_error() {
        let a = DenseMatrix::zeros(0, 0);
        assert_eq!(PowerMethod::default().run(&a, None), Err(crate::TrustError::EmptyGraph));
    }

    #[test]
    fn non_square_is_error() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(PowerMethod::default().run(&a, None).is_err());
    }

    #[test]
    fn single_node_graph_scores_one() {
        let g = TrustGraph::new(1);
        let rep = PowerMethod::default().run(&row_normalize(&g), None).unwrap();
        assert_eq!(rep.scores, vec![1.0]);
    }

    #[test]
    fn warm_start_reaches_same_fixed_point_faster() {
        let mut g = TrustGraph::new(6);
        for i in 0..6usize {
            for j in 0..6usize {
                if i != j {
                    g.set_trust(i, j, 0.1 + ((i * 7 + j * 3) % 9) as f64 / 10.0);
                }
            }
        }
        let a = row_normalize(&g);
        let pm = PowerMethod::default();
        let cold = pm.run(&a, None).unwrap();
        // warm-start from the converged scores: must agree and be fast
        let warm = pm.run(&a, Some(&cold.scores)).unwrap();
        for (c, w) in cold.scores.iter().zip(warm.scores.iter()) {
            assert!((c - w).abs() < 1e-6);
        }
        assert!(warm.iterations <= cold.iterations);
        assert!(warm.iterations <= 3, "converged start should finish immediately");
    }

    #[test]
    fn degenerate_warm_starts_fall_back_to_uniform() {
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 0, 1.0);
        g.set_trust(2, 0, 1.0);
        let a = row_normalize(&g);
        let pm = PowerMethod::default();
        let base = pm.run(&a, None).unwrap();
        for bad in [vec![0.0; 3], vec![1.0; 2], vec![f64::NAN, 1.0, 1.0], vec![-1.0, 2.0, 0.0]] {
            let rep = pm.run(&a, Some(&bad)).unwrap();
            for (x, y) in base.scores.iter().zip(rep.scores.iter()) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }
}
