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

/// Configuration for the power iteration of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerMethod {
    /// Convergence threshold `ε` on the L1 distance between successive
    /// iterates. The paper leaves `ε` unspecified; `1e-10` makes the
    /// returned scores stable to well beyond plotting precision.
    pub epsilon: f64,
    /// Hard cap on iterations, guarding against slowly mixing chains
    /// (a nearly decomposable trust graph).
    pub max_iterations: usize,
    /// Optional uniform damping `α ∈ (0, 1]` of each lazy step `x'`:
    /// `x ← α·x' + (1−α)·u` with `u` uniform. `α = 1` (default) is the
    /// paper's undamped Algorithm 2; `α < 1` (e.g. 0.85) makes
    /// convergence unconditional (PageRank-style) and is used in the
    /// reputation-engine ablation.
    pub damping: f64,
}

impl Default for PowerMethod {
    fn default() -> Self {
        PowerMethod { epsilon: 1e-10, max_iterations: 10_000, damping: 1.0 }
    }
}

/// Result of a reputation computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReputationReport {
    /// Global reputation `x_i` per GSP; non-negative, sums to 1.
    pub scores: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final L1 residual `‖x^{q+1} − x^q‖₁`.
    pub residual: f64,
    /// Rayleigh-quotient estimate of the dominant eigenvalue `λ` of
    /// eq. (6). For a row-stochastic irreducible `A` this is 1.
    pub eigenvalue: f64,
}

impl ReputationReport {
    /// Index of the GSP with the lowest reputation — the GSP TVOF
    /// evicts. Ties broken by the caller (the paper breaks them
    /// randomly); this helper returns *all* indices attaining the
    /// minimum so the caller can sample among them.
    pub fn lowest(&self) -> Vec<usize> {
        let min = self.scores.iter().cloned().fold(f64::INFINITY, f64::min);
        self.scores.iter().enumerate().filter(|(_, &s)| s <= min).map(|(i, _)| i).collect()
    }

    /// Index of the single highest-reputation GSP (first on ties).
    pub fn highest(&self) -> Option<usize> {
        self.scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("reputation scores are finite"))
            .map(|(i, _)| i)
    }

    /// Average global reputation `x̄(C) = (1/|C|) Σ x_i` (eq. (7)).
    pub fn average(&self) -> f64 {
        if self.scores.is_empty() {
            0.0
        } else {
            self.scores.iter().sum::<f64>() / self.scores.len() as f64
        }
    }
}

impl PowerMethod {
    /// Create a damped variant (PageRank-style) with the given `α`.
    pub fn damped(alpha: f64) -> Self {
        PowerMethod { damping: alpha, ..Default::default() }
    }

    /// Run Algorithm 2 on a normalized trust matrix `a` (output of
    /// [`crate::normalize::row_normalize`]).
    ///
    /// Returns [`TrustError::EmptyGraph`] for a 0×0 matrix and
    /// [`TrustError::NoConvergence`] if the iteration cap is hit.
    pub fn run(&self, a: &DenseMatrix) -> Result<ReputationReport> {
        self.run_from(a, None)
    }

    /// Run the power iteration from a warm-start vector instead of the
    /// uniform `x⁰ = 1/|C|`. The fixed point is start-independent (for
    /// irreducible aperiodic chains), but a start close to it — e.g.
    /// the previous TVOF iteration's scores restricted to the
    /// surviving members — converges in far fewer iterations, which
    /// matters for federations much larger than the paper's m = 16.
    /// Non-positive or wrong-length starts fall back to uniform.
    pub fn run_with_start(&self, a: &DenseMatrix, start: &[f64]) -> Result<ReputationReport> {
        self.run_from(a, Some(start))
    }

    fn run_from(&self, a: &DenseMatrix, start: Option<&[f64]>) -> Result<ReputationReport> {
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
        for it in 1..=self.max_iterations {
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
            if residual < self.epsilon {
                let eigenvalue = rayleigh(a, &x)?;
                return Ok(ReputationReport { scores: x, iterations: it, residual, eigenvalue });
            }
        }
        Err(TrustError::NoConvergence { iterations: self.max_iterations, residual })
    }

    /// Convenience: normalize a raw trust graph (eq. (1)) and run the
    /// power method on it.
    pub fn run_on_graph(&self, graph: &crate::TrustGraph) -> Result<ReputationReport> {
        self.run(&crate::normalize::row_normalize(graph))
    }
}

/// Rayleigh quotient `xᵀAᵀx / xᵀx`, estimating λ of eq. (6).
fn rayleigh(a: &DenseMatrix, x: &[f64]) -> Result<f64> {
    let mut ax = vec![0.0; x.len()];
    a.mul_transpose_vec_into(x, &mut ax)?;
    let num = crate::matrix::dot(x, &ax);
    let den = crate::matrix::dot(x, x);
    Ok(if den > 0.0 { num / den } else { 0.0 })
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
        let rep = PowerMethod::default().run_on_graph(&g).unwrap();
        for &s in &rep.scores {
            assert!((s - 0.2).abs() < 1e-8, "symmetric ring must be uniform, got {s}");
        }
        assert!((rep.eigenvalue - 1.0).abs() < 1e-8);
    }

    #[test]
    fn scores_sum_to_one_and_nonnegative() {
        let mut g = TrustGraph::new(4);
        g.set_trust(0, 1, 0.7);
        g.set_trust(1, 2, 0.3);
        g.set_trust(2, 3, 0.9);
        g.set_trust(3, 0, 0.2);
        g.set_trust(0, 2, 0.1);
        let rep = PowerMethod::default().run_on_graph(&g).unwrap();
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
        let rep = PowerMethod { epsilon: 1e-13, ..Default::default() }.run(&a).unwrap();
        // check Aᵀx ≈ λx componentwise
        let mut ax = vec![0.0; 4];
        a.mul_transpose_vec_into(&rep.scores, &mut ax).unwrap();
        for (l, r) in ax.iter().zip(rep.scores.iter()) {
            assert!((l - rep.eigenvalue * r).abs() < 1e-8, "Aᵀx = λx violated: {l} vs {r}");
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
        let rep = PowerMethod::default().run_on_graph(&g).unwrap();
        assert_eq!(rep.highest(), Some(0));
        assert!(rep.scores[0] > rep.scores[2]);
        assert!(rep.scores[0] > rep.scores[3]);
    }

    #[test]
    fn lowest_returns_all_tied_minima() {
        let mut g = TrustGraph::new(4);
        // 2 and 3 are symmetric satellites around a 0↔1 pair
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 0, 1.0);
        g.set_trust(2, 0, 1.0);
        g.set_trust(3, 1, 1.0);
        g.set_trust(0, 2, 0.1);
        g.set_trust(1, 3, 0.1);
        let rep = PowerMethod::default().run_on_graph(&g).unwrap();
        let lows = rep.lowest();
        assert_eq!(lows, vec![2, 3]);
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
        let undamped = PowerMethod { max_iterations: 200, ..Default::default() }.run(&a3);
        let damped = PowerMethod::damped(0.85).run(&a3).unwrap();
        assert!((damped.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The undamped run may or may not converge; the damped one must.
        if let Ok(r) = undamped {
            assert!(r.iterations <= 200);
        }
        let _ = a; // silence unused in case branch above changes
    }

    #[test]
    fn empty_matrix_is_error() {
        let a = DenseMatrix::zeros(0, 0);
        assert_eq!(PowerMethod::default().run(&a), Err(crate::TrustError::EmptyGraph));
    }

    #[test]
    fn non_square_is_error() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(PowerMethod::default().run(&a).is_err());
    }

    #[test]
    fn single_node_graph_scores_one() {
        let g = TrustGraph::new(1);
        let rep = PowerMethod::default().run_on_graph(&g).unwrap();
        assert_eq!(rep.scores, vec![1.0]);
        assert_eq!(rep.average(), 1.0);
    }

    #[test]
    fn average_matches_eq7() {
        let rep = ReputationReport {
            scores: vec![0.5, 0.25, 0.25],
            iterations: 1,
            residual: 0.0,
            eigenvalue: 1.0,
        };
        assert!((rep.average() - 1.0 / 3.0).abs() < 1e-12);
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
        let cold = pm.run(&a).unwrap();
        // warm-start from the converged scores: must agree and be fast
        let warm = pm.run_with_start(&a, &cold.scores).unwrap();
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
        let base = pm.run(&a).unwrap();
        for bad in [vec![0.0; 3], vec![1.0; 2], vec![f64::NAN, 1.0, 1.0], vec![-1.0, 2.0, 0.0]] {
            let rep = pm.run_with_start(&a, &bad).unwrap();
            for (x, y) in base.scores.iter().zip(rep.scores.iter()) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }
}
