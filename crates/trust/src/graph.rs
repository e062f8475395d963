//! Weighted directed trust graphs (§II-B of the paper).
//!
//! The trust relationship among GSPs is the weighted digraph `(G, E)`:
//! the weight `u_ij ≥ 0` on edge `(i, j)` is the direct trust GSP `i`
//! places in GSP `j`, based on their past interactions. `u_ij = 0`
//! means complete distrust or no past interaction. Trust is asymmetric:
//! `u_ij` and `u_ji` are independent.
//!
//! The mechanism repeatedly restricts the graph to the current VO's
//! members ([`TrustGraph::restrict`]), which removes both the evicted
//! GSP and every edge incident to it — exactly the update TVOF performs
//! when it evicts the lowest-reputation member.

use crate::matrix::DenseMatrix;
use crate::{Result, TrustError};
use serde::{Deserialize, Serialize};

/// Index of a GSP inside a [`TrustGraph`] (dense, `0..node_count`).
pub type NodeId = usize;

/// A weighted directed graph of pairwise direct trust.
///
/// Stored densely (`m × m` adjacency matrix) because grid federations
/// are small — the paper simulates `m = 16` GSPs and real grids have at
/// most a few hundred providers. Self-trust (`u_ii`) is permitted but
/// conventionally zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "RawTrustGraph")]
pub struct TrustGraph {
    /// `weights[(i, j)]` = direct trust of `i` in `j`; 0 ⇒ no edge.
    weights: DenseMatrix,
}

/// Serde shadow: deserialization re-runs edge validation.
#[derive(Deserialize)]
struct RawTrustGraph {
    weights: DenseMatrix,
}

impl TryFrom<RawTrustGraph> for TrustGraph {
    type Error = String;
    fn try_from(raw: RawTrustGraph) -> std::result::Result<Self, String> {
        TrustGraph::from_matrix(raw.weights).map_err(|e| e.to_string())
    }
}

impl TrustGraph {
    /// Create a graph over `n` GSPs with no trust edges.
    pub fn new(n: usize) -> Self {
        TrustGraph { weights: DenseMatrix::zeros(n, n) }
    }

    /// Build a graph from a dense `n × n` weight matrix.
    ///
    /// Rejects non-square matrices and negative / non-finite weights.
    pub fn from_matrix(weights: DenseMatrix) -> Result<Self> {
        if !weights.is_square() {
            return Err(TrustError::DimensionMismatch { context: "trust matrix must be square" });
        }
        let n = weights.rows();
        for i in 0..n {
            for j in 0..n {
                let w = weights[(i, j)];
                if !w.is_finite() || w < 0.0 {
                    return Err(TrustError::InvalidWeight { from: i, to: j, weight: w });
                }
            }
        }
        Ok(TrustGraph { weights })
    }

    /// Number of GSPs (nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.weights.rows()
    }

    /// Number of edges with strictly positive weight.
    pub fn edge_count(&self) -> usize {
        self.weights.as_slice().iter().filter(|&&w| w > 0.0).count()
    }

    /// The direct trust `u_ij` that `from` places in `to` (0 if absent).
    #[inline]
    pub fn trust(&self, from: NodeId, to: NodeId) -> f64 {
        self.weights[(from, to)]
    }

    /// Set the direct trust `u_ij`. Panics on out-of-range indices;
    /// rejects negative / non-finite weights with an error in
    /// [`TrustGraph::try_set_trust`], which this delegates to and unwraps.
    pub fn set_trust(&mut self, from: NodeId, to: NodeId, weight: f64) {
        self.try_set_trust(from, to, weight).expect("invalid trust edge");
    }

    /// Fallible edge update.
    pub fn try_set_trust(&mut self, from: NodeId, to: NodeId, weight: f64) -> Result<()> {
        let n = self.node_count();
        if from >= n {
            return Err(TrustError::NodeOutOfRange { node: from, len: n });
        }
        if to >= n {
            return Err(TrustError::NodeOutOfRange { node: to, len: n });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(TrustError::InvalidWeight { from, to, weight });
        }
        self.weights[(from, to)] = weight;
        Ok(())
    }

    /// Out-neighbors of `i`: the set `N_i = { j | u_ij > 0 }` of eq. (1).
    pub fn neighbors(&self, i: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.weights.row(i).iter().enumerate().filter(|(_, &w)| w > 0.0).map(|(j, _)| j)
    }

    /// Iterate all positive-weight edges as `(from, to, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        let n = self.node_count();
        (0..n).flat_map(move |i| {
            self.weights.row(i).iter().enumerate().filter_map(move |(j, &w)| {
                if w > 0.0 {
                    Some((i, j, w))
                } else {
                    None
                }
            })
        })
    }

    /// Sum of trust `i` assigns to its neighbors: `Σ_{k ∈ N_i} u_ik`,
    /// the normalization denominator of eq. (1).
    pub fn out_trust_sum(&self, i: NodeId) -> f64 {
        self.weights.row(i).iter().sum()
    }

    /// Weighted in-degree of `j`: `Σ_i u_ij`.
    pub fn in_trust_sum(&self, j: NodeId) -> f64 {
        (0..self.node_count()).map(|i| self.weights[(i, j)]).sum()
    }

    /// Borrow the raw weight matrix.
    #[inline]
    pub fn weight_matrix(&self) -> &DenseMatrix {
        &self.weights
    }

    /// Restrict the graph to the subset `members`, preserving the order
    /// of `members`. Node `k` of the result corresponds to
    /// `members[k]` of `self`. Edges to or from excluded GSPs vanish —
    /// this is exactly the subgraph `(C, E')` TVOF recomputes reputation
    /// on after evicting a member.
    pub fn restrict(&self, members: &[NodeId]) -> Result<TrustGraph> {
        let n = self.node_count();
        for &m in members {
            if m >= n {
                return Err(TrustError::NodeOutOfRange { node: m, len: n });
            }
        }
        let k = members.len();
        let mut w = DenseMatrix::zeros(k, k);
        for (a, &i) in members.iter().enumerate() {
            for (b, &j) in members.iter().enumerate() {
                w[(a, b)] = self.weights[(i, j)];
            }
        }
        Ok(TrustGraph { weights: w })
    }

    /// True if every ordered pair of distinct nodes is connected by a
    /// directed path of positive-weight edges (strong connectivity).
    /// Strongly connected trust graphs give strictly positive
    /// reputations under the power method.
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return false;
        }
        // BFS forward from 0 and "backward" (on the transpose) from 0.
        let reach = |transpose: bool| -> usize {
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            seen[0] = true;
            let mut count = 1;
            while let Some(u) = stack.pop() {
                #[allow(clippy::needless_range_loop)] // v indexes two matrices and `seen`
                for v in 0..n {
                    let w = if transpose { self.weights[(v, u)] } else { self.weights[(u, v)] };
                    if w > 0.0 && !seen[v] {
                        seen[v] = true;
                        count += 1;
                        stack.push(v);
                    }
                }
            }
            count
        };
        reach(false) == n && reach(true) == n
    }

    /// Density: fraction of possible directed edges (excluding loops)
    /// that are present with positive weight.
    pub fn density(&self) -> f64 {
        let n = self.node_count();
        if n < 2 {
            return 0.0;
        }
        let off_diag_edges = self.edges().filter(|&(i, j, _)| i != j).count();
        off_diag_edges as f64 / (n * (n - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> TrustGraph {
        // 0 → 1 → 2 → 0
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 2, 2.0);
        g.set_trust(2, 0, 3.0);
        g
    }

    #[test]
    fn new_graph_is_empty() {
        let g = TrustGraph::new(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.density(), 0.0);
    }

    #[test]
    fn set_and_get_trust() {
        let g = triangle();
        assert_eq!(g.trust(0, 1), 1.0);
        assert_eq!(g.trust(1, 0), 0.0); // asymmetric
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn invalid_weights_rejected() {
        let mut g = TrustGraph::new(2);
        assert!(g.try_set_trust(0, 1, -1.0).is_err());
        assert!(g.try_set_trust(0, 1, f64::NAN).is_err());
        assert!(g.try_set_trust(0, 5, 1.0).is_err());
        assert!(g.try_set_trust(5, 0, 1.0).is_err());
    }

    #[test]
    fn from_matrix_validates() {
        let m = DenseMatrix::from_rows(2, 2, vec![0.0, -1.0, 0.0, 0.0]).unwrap();
        assert!(TrustGraph::from_matrix(m).is_err());
        let rect = DenseMatrix::zeros(2, 3);
        assert!(TrustGraph::from_matrix(rect).is_err());
    }

    #[test]
    fn neighbors_and_sums() {
        let g = triangle();
        let n0: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n0, vec![1]);
        assert_eq!(g.out_trust_sum(2), 3.0);
        assert_eq!(g.in_trust_sum(0), 3.0);
        assert_eq!(g.in_trust_sum(2), 2.0);
    }

    #[test]
    fn edges_iterator_lists_all() {
        let g = triangle();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_by_key(|a| a.0);
        assert_eq!(edges, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]);
    }

    #[test]
    fn restrict_drops_incident_edges() {
        let g = triangle();
        let sub = g.restrict(&[0, 1]).unwrap();
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.trust(0, 1), 1.0);
        // edges through node 2 vanish
        assert_eq!(sub.trust(1, 0), 0.0);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn restrict_preserves_member_order() {
        let g = triangle();
        let sub = g.restrict(&[2, 0]).unwrap();
        // new 0 = old 2, new 1 = old 0, so edge 2→0 becomes 0→1
        assert_eq!(sub.trust(0, 1), 3.0);
    }

    #[test]
    fn restrict_rejects_out_of_range() {
        let g = triangle();
        assert!(g.restrict(&[0, 9]).is_err());
    }

    #[test]
    fn strong_connectivity() {
        let g = triangle();
        assert!(g.is_strongly_connected());
        let sub = g.restrict(&[0, 2]).unwrap();
        // 2→0 remains, but no path 0→2
        assert!(!sub.is_strongly_connected());
        assert!(!TrustGraph::new(0).is_strongly_connected());
    }

    #[test]
    fn density_of_triangle() {
        let g = triangle();
        assert!((g.density() - 0.5).abs() < 1e-12); // 3 of 6 possible
    }
}

impl TrustGraph {
    /// Render the graph in Graphviz DOT format: one directed edge per
    /// positive-weight trust relation, labeled (and pen-weighted) by
    /// the trust value. Paste into `dot -Tpng` to visualize a
    /// federation's trust structure.
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph {name} {{\n"));
        out.push_str("  rankdir=LR;\n  node [shape=circle];\n");
        for i in 0..self.node_count() {
            out.push_str(&format!("  g{i} [label=\"G{i}\"];\n"));
        }
        let max_w = self.edges().map(|(_, _, w)| w).fold(0.0f64, f64::max).max(1e-12);
        for (i, j, w) in self.edges() {
            out.push_str(&format!(
                "  g{i} -> g{j} [label=\"{w:.2}\", penwidth={:.2}];\n",
                0.5 + 2.5 * w / max_w
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_lists_nodes_and_edges() {
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 0.5);
        g.set_trust(2, 0, 1.0);
        let dot = g.to_dot("trust");
        assert!(dot.starts_with("digraph trust {"));
        assert!(dot.contains("g0 [label=\"G0\"]"));
        assert!(dot.contains("g2 [label=\"G2\"]"));
        assert!(dot.contains("g0 -> g1 [label=\"0.50\""));
        assert!(dot.contains("g2 -> g0 [label=\"1.00\""));
        assert_eq!(dot.matches("->").count(), 2);
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_of_empty_graph_is_valid() {
        let dot = TrustGraph::new(0).to_dot("empty");
        assert!(dot.contains("digraph empty {"));
        assert!(!dot.contains("->"));
    }
}
