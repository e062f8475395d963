//! Local-rating normalization (eq. (1) of the paper).
//!
//! Each GSP turns its raw direct-trust values into *normalized trust*
//! `a_ij = u_ij / Σ_{k ∈ N_i} u_ik`, so every row of the resulting
//! matrix `A` sums to 1 — the matrix is row-stochastic and the power
//! method on `Aᵀ` converges to a probability vector of reputations.
//!
//! A GSP with no outgoing trust at all (a *dangling* row) is undefined
//! under eq. (1); the paper's experiments avoid this by construction.
//! [`row_normalize`] spreads such a row uniformly over the other GSPs
//! (the EigenTrust convention: a silent GSP defers to the crowd), so
//! the library is total over all graphs.

use crate::graph::TrustGraph;
use crate::matrix::DenseMatrix;

/// Compute the normalized trust matrix `A` of eq. (1) from the raw
/// trust graph. A dangling row puts `1/(m-1)` on every other GSP and
/// `0` on the diagonal (a lone GSP trusts itself).
///
/// The result satisfies `a_ij ∈ [0, 1]` and `Σ_j a_ij = 1` for every
/// row `i`.
pub fn row_normalize(graph: &TrustGraph) -> DenseMatrix {
    let n = graph.node_count();
    let mut a = DenseMatrix::zeros(n, n);
    for i in 0..n {
        let sum = graph.out_trust_sum(i);
        let row = a.row_mut(i);
        if sum > 0.0 {
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = graph.trust(i, j) / sum;
            }
        } else if n == 1 {
            row[0] = 1.0;
        } else {
            let w = 1.0 / (n as f64 - 1.0);
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = if j == i { 0.0 } else { w };
            }
        }
    }
    a
}

/// Check that `a` is row-stochastic to within `tol` (every entry in
/// `[0, 1]`, every row summing to 1).
pub fn is_row_stochastic(a: &DenseMatrix, tol: f64) -> bool {
    if !a.is_square() {
        return false;
    }
    (0..a.rows()).all(|i| {
        let row = a.row(i);
        row.iter().all(|v| (-tol..=1.0 + tol).contains(v))
            && (row.iter().sum::<f64>() - 1.0).abs() <= tol
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with_dangling() -> TrustGraph {
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 3.0);
        g.set_trust(0, 2, 1.0);
        g.set_trust(1, 0, 2.0);
        // node 2 trusts nobody: dangling
        g
    }

    #[test]
    fn normalization_matches_eq1() {
        let g = graph_with_dangling();
        let a = row_normalize(&g);
        assert!((a[(0, 1)] - 0.75).abs() < 1e-12);
        assert!((a[(0, 2)] - 0.25).abs() < 1e-12);
        assert!((a[(1, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dangling_uniform_spreads_over_others() {
        let g = graph_with_dangling();
        let a = row_normalize(&g);
        assert_eq!(a[(2, 2)], 0.0);
        assert!((a[(2, 0)] - 0.5).abs() < 1e-12);
        assert!((a[(2, 1)] - 0.5).abs() < 1e-12);
        assert!(is_row_stochastic(&a, 1e-12));
    }

    #[test]
    fn single_node_graph_uniform() {
        let g = TrustGraph::new(1);
        let a = row_normalize(&g);
        assert_eq!(a[(0, 0)], 1.0);
    }

    #[test]
    fn empty_graph_normalizes_to_empty() {
        let g = TrustGraph::new(0);
        let a = row_normalize(&g);
        assert_eq!(a.rows(), 0);
    }

    #[test]
    fn is_row_stochastic_rejects_bad_matrices() {
        let bad = DenseMatrix::from_rows(1, 1, vec![2.0]).unwrap();
        assert!(!is_row_stochastic(&bad, 1e-9));
        let neg = DenseMatrix::from_rows(2, 2, vec![1.5, -0.5, 0.5, 0.5]).unwrap();
        assert!(!is_row_stochastic(&neg, 1e-9));
        let rect = DenseMatrix::zeros(2, 3);
        assert!(!is_row_stochastic(&rect, 1e-9));
    }
}
