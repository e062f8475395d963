//! Path-based trust propagation (after Hang, Wang & Singh, AAMAS 2009).
//!
//! The paper's related work describes an alternative family of
//! reputation engines built from operators on trust paths. This module
//! uses two:
//!
//! * **concatenation** — the trust of a path is the product of its edge
//!   trusts (trust transitivity: if A trusts B at 0.8 and B trusts C at
//!   0.5, A trusts C at 0.4 through that path);
//! * **aggregation** — multiple paths combine by probabilistic sum
//!   `a ⊕ b = a + b − a·b` (independent evidence accumulates).
//!
//! [`propagated_trust`] computes pairwise inferred trust with a bounded
//! path length; [`propagation_scores`] reduces that to one score per
//! node (average inferred trust received) so it can stand in for the
//! power method in ablations.
//!
//! Edge trusts must lie in `[0, 1]` for the probabilistic-sum to be
//! meaningful; callers should pass a normalized graph (see
//! [`crate::normalize::row_normalize`]) or raw weights already scaled
//! to `[0, 1]`.

use crate::{Result, TrustError, TrustGraph};

/// Pairwise trust inferred through paths of length ≤ `max_hops`.
///
/// Returns a dense `n × n` row-major vector `t` where `t[i*n + j]` is
/// the trust `i` infers in `j`. Direct edges are paths of length 1;
/// `t[i*n + i] = 0` by convention. Simple paths only (no repeated
/// nodes), found by depth-first enumeration — exponential in
/// `max_hops`, intended for the small graphs of this domain (the paper
/// uses m = 16).
pub fn propagated_trust(graph: &TrustGraph, max_hops: usize) -> Result<Vec<f64>> {
    let n = graph.node_count();
    if n == 0 {
        return Err(TrustError::EmptyGraph);
    }
    for (i, j, w) in graph.edges() {
        if w > 1.0 {
            return Err(TrustError::InvalidWeight { from: i, to: j, weight: w });
        }
    }
    let mut out = vec![0.0; n * n];
    let mut visited = vec![false; n];
    for src in 0..n {
        visited.fill(false);
        visited[src] = true;
        let mut acc = vec![0.0f64; n];
        dfs(graph, src, 1.0, max_hops, &mut visited, &mut acc);
        for j in 0..n {
            if j != src {
                out[src * n + j] = acc[j];
            }
        }
    }
    Ok(out)
}

fn dfs(
    graph: &TrustGraph,
    node: usize,
    path_trust: f64,
    hops_left: usize,
    visited: &mut [bool],
    acc: &mut [f64],
) {
    if hops_left == 0 || path_trust == 0.0 {
        return;
    }
    for next in graph.neighbors(node) {
        if visited[next] {
            continue;
        }
        let t = path_trust * graph.trust(node, next); // concatenation
        acc[next] = acc[next] + t - acc[next] * t; // aggregation
        visited[next] = true;
        dfs(graph, next, t, hops_left - 1, visited, acc);
        visited[next] = false;
    }
}

/// Reduce pairwise propagated trust to a per-node reputation score:
/// the mean trust each node *receives* from every other node. This is
/// the propagation-based analogue of the paper's global reputation
/// vector, usable as a drop-in alternative engine.
pub fn propagation_scores(graph: &TrustGraph, max_hops: usize) -> Result<Vec<f64>> {
    let n = graph.node_count();
    let pairwise = propagated_trust(graph, max_hops)?;
    let mut scores = vec![0.0; n];
    if n <= 1 {
        return Ok(scores);
    }
    for j in 0..n {
        let mut sum = 0.0;
        for i in 0..n {
            if i != j {
                sum += pairwise[i * n + j];
            }
        }
        scores[j] = sum / (n as f64 - 1.0);
    }
    Ok(scores)
}

#[cfg(test)]
#[allow(clippy::identity_op, clippy::erasing_op)] // 0*n+j index arithmetic kept for readability
mod tests {
    use super::*;

    #[test]
    fn concatenation_multiplies_along_path() {
        // 0 -0.8-> 1 -0.5-> 2, no other paths
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 0.8);
        g.set_trust(1, 2, 0.5);
        let t = propagated_trust(&g, 3).unwrap();
        assert!((t[0 * 3 + 2] - 0.4).abs() < 1e-12);
        assert!((t[0 * 3 + 1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn aggregation_uses_probabilistic_sum() {
        // two disjoint 0→3 paths: via 1 (0.8*0.5=0.4) and via 2 (0.6*0.5=0.3)
        let mut g = TrustGraph::new(4);
        g.set_trust(0, 1, 0.8);
        g.set_trust(1, 3, 0.5);
        g.set_trust(0, 2, 0.6);
        g.set_trust(2, 3, 0.5);
        let agg = propagated_trust(&g, 3).unwrap();
        // 0.4 ⊕ 0.3 = 0.4 + 0.3 - 0.12 = 0.58
        assert!((agg[3] - 0.58).abs() < 1e-12);
    }

    #[test]
    fn hop_limit_cuts_long_paths() {
        let mut g = TrustGraph::new(4);
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 2, 1.0);
        g.set_trust(2, 3, 1.0);
        let t1 = propagated_trust(&g, 1).unwrap();
        assert_eq!(t1[0 * 4 + 3], 0.0);
        assert_eq!(t1[0 * 4 + 1], 1.0);
        let t3 = propagated_trust(&g, 3).unwrap();
        assert_eq!(t3[0 * 4 + 3], 1.0);
    }

    #[test]
    fn cycles_do_not_double_count() {
        // 0 ↔ 1 cycle plus 1 → 2: the simple-path rule forbids 0→1→0→1→2.
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 0.5);
        g.set_trust(1, 0, 0.5);
        g.set_trust(1, 2, 0.5);
        let t = propagated_trust(&g, 10).unwrap();
        assert!((t[0 * 3 + 2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weights_above_one_rejected() {
        let mut g = TrustGraph::new(2);
        g.set_trust(0, 1, 1.5);
        assert!(propagated_trust(&g, 2).is_err());
    }

    #[test]
    fn empty_graph_is_error() {
        let g = TrustGraph::new(0);
        assert!(propagated_trust(&g, 2).is_err());
    }

    #[test]
    fn scores_highlight_trusted_sink() {
        // everyone trusts node 2 directly
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 2, 0.9);
        g.set_trust(1, 2, 0.9);
        g.set_trust(2, 0, 0.1);
        let s = propagation_scores(&g, 3).unwrap();
        assert!(s[2] > s[0]);
        assert!(s[2] > s[1]);
    }

    #[test]
    fn scores_on_singleton_are_zero() {
        let g = TrustGraph::new(1);
        assert_eq!(propagation_scores(&g, 3).unwrap(), vec![0.0]);
    }

    #[test]
    fn aggregate_never_exceeds_one() {
        let mut g = TrustGraph::new(5);
        for i in 0..5usize {
            for j in 0..5usize {
                if i != j {
                    g.set_trust(i, j, 0.9);
                }
            }
        }
        let t = propagated_trust(&g, 4).unwrap();
        for &v in &t {
            assert!((0.0..=1.0 + 1e-12).contains(&v), "aggregate out of [0,1]: {v}");
        }
    }
}
