//! Graph-centrality measures used as reputation metrics.
//!
//! The paper's related work (§I-A) surveys reputation systems built on
//! centrality: degree, closeness, betweenness, and eigenvector
//! centrality. The mechanism itself uses eigenvector centrality (the
//! power method); the rest of the family is implemented here so the
//! eviction-policy and reputation-engine ablations can swap metrics.
//!
//! Distances treat trust as *conductance*: the length of an edge with
//! trust `u` is `1/u`, so paths through highly trusted intermediaries
//! are short. All measures return one score per node, higher = more
//! central/reputable.

use crate::normalize::row_normalize;
use crate::power::PowerMethod;
use crate::{Result, TrustGraph};

/// Weighted in-degree centrality: total trust a GSP *receives*. The
/// simplest reputation proxy.
pub fn in_degree(graph: &TrustGraph) -> Vec<f64> {
    (0..graph.node_count()).map(|j| graph.in_trust_sum(j)).collect()
}

/// Closeness centrality of each node `v`:
/// `(reachable(v)) / Σ_{u reachable} d(v, u)`, with `d` the shortest
/// trust-conductance distance (edge length `1/u_ij`). Nodes that reach
/// nothing score 0. Uses Dijkstra from every node — fine for the small
/// federations this crate targets.
pub fn closeness(graph: &TrustGraph) -> Vec<f64> {
    let n = graph.node_count();
    let mut scores = vec![0.0; n];
    for (v, score) in scores.iter_mut().enumerate() {
        let dist = dijkstra(graph, v);
        let mut total = 0.0;
        let mut reachable = 0usize;
        for (u, &d) in dist.iter().enumerate() {
            if u != v && d.is_finite() {
                total += d;
                reachable += 1;
            }
        }
        if reachable > 0 && total > 0.0 {
            *score = reachable as f64 / total;
        }
    }
    scores
}

/// Betweenness centrality (Brandes' algorithm, weighted digraph with
/// edge length `1/u_ij`). Counts, for each node, the fraction of
/// shortest trust paths passing through it.
pub fn betweenness(graph: &TrustGraph) -> Vec<f64> {
    let n = graph.node_count();
    let mut cb = vec![0.0; n];
    for s in 0..n {
        // Dijkstra with predecessor lists and path counts.
        let mut dist = vec![f64::INFINITY; n];
        let mut sigma = vec![0.0f64; n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut order: Vec<usize> = Vec::with_capacity(n); // nodes in nondecreasing dist
        dist[s] = 0.0;
        sigma[s] = 1.0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(HeapEntry { dist: 0.0, node: s });
        let mut settled = vec![false; n];
        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            if settled[u] {
                continue;
            }
            settled[u] = true;
            order.push(u);
            for v in graph.neighbors(u) {
                let w = 1.0 / graph.trust(u, v);
                let nd = d + w;
                if nd < dist[v] - 1e-15 {
                    dist[v] = nd;
                    sigma[v] = sigma[u];
                    preds[v].clear();
                    preds[v].push(u);
                    heap.push(HeapEntry { dist: nd, node: v });
                } else if (nd - dist[v]).abs() <= 1e-15 {
                    sigma[v] += sigma[u];
                    preds[v].push(u);
                }
            }
        }
        // Accumulation in reverse settlement order.
        let mut delta = vec![0.0f64; n];
        for &w in order.iter().rev() {
            for &v in &preds[w] {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s {
                cb[w] += delta[w];
            }
        }
    }
    cb
}

/// Eigenvector centrality: the paper's reputation metric. Thin wrapper
/// over [`PowerMethod`].
pub fn eigenvector(graph: &TrustGraph) -> Result<Vec<f64>> {
    Ok(PowerMethod::default().run_on_graph(graph)?.scores)
}

/// PageRank with damping `alpha` (typically 0.85): eigenvector
/// centrality made unconditionally convergent. Included as the
/// reputation-engine ablation's alternative.
pub fn pagerank(graph: &TrustGraph, alpha: f64) -> Result<Vec<f64>> {
    Ok(PowerMethod::damped(alpha).run(&row_normalize(graph))?.scores)
}

/// Dijkstra shortest distances from `src` with edge length `1/trust`.
fn dijkstra(graph: &TrustGraph, src: usize) -> Vec<f64> {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[src] = 0.0;
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(HeapEntry { dist: 0.0, node: src });
    let mut settled = vec![false; n];
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if settled[u] {
            continue;
        }
        settled[u] = true;
        for v in graph.neighbors(u) {
            let nd = d + 1.0 / graph.trust(u, v);
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    dist
}

/// Min-heap entry ordered by distance (reversed for BinaryHeap).
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: smallest distance pops first. Distances are finite
        // non-NaN by construction.
        other.dist.partial_cmp(&self.dist).expect("finite distances")
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star graph: every satellite trusts the hub (node 0).
    fn star(n: usize) -> TrustGraph {
        let mut g = TrustGraph::new(n);
        for i in 1..n {
            g.set_trust(i, 0, 1.0);
            g.set_trust(0, i, 0.2);
        }
        g
    }

    #[test]
    fn degree_centrality_of_star() {
        let g = star(5);
        let ind = in_degree(&g);
        assert_eq!(ind[0], 4.0);
        for &d in &ind[1..] {
            assert!((d - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn closeness_hub_is_most_central() {
        // Symmetric unit-weight star: hub reaches everyone in 1 hop,
        // satellites need 2 hops to reach each other.
        let mut g = TrustGraph::new(6);
        for i in 1..6 {
            g.set_trust(i, 0, 1.0);
            g.set_trust(0, i, 1.0);
        }
        let c = closeness(&g);
        for i in 1..6 {
            assert!(c[0] > c[i], "hub must beat satellite {i}: {} vs {}", c[0], c[i]);
        }
    }

    #[test]
    fn closeness_isolated_node_scores_zero() {
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 0, 1.0);
        let c = closeness(&g);
        assert_eq!(c[2], 0.0);
    }

    #[test]
    fn betweenness_path_graph_middle_dominates() {
        // 0 → 1 → 2 and back: node 1 sits on every 0↔2 path.
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 2, 1.0);
        g.set_trust(2, 1, 1.0);
        g.set_trust(1, 0, 1.0);
        let b = betweenness(&g);
        assert!(b[1] > b[0]);
        assert!(b[1] > b[2]);
        // Exactly two shortest paths pass through 1 (0→2 and 2→0).
        assert!((b[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn betweenness_star_hub() {
        let g = star(5);
        let b = betweenness(&g);
        // All satellite-to-satellite shortest paths go through the hub:
        // 4 satellites → 12 ordered pairs.
        assert!((b[0] - 12.0).abs() < 1e-9);
        for &x in &b[1..] {
            assert!(x.abs() < 1e-9);
        }
    }

    #[test]
    fn eigenvector_hub_highest() {
        let g = star(6);
        let e = eigenvector(&g).unwrap();
        let hub = e[0];
        for &s in &e[1..] {
            assert!(hub > s);
        }
    }

    #[test]
    fn pagerank_sums_to_one() {
        let g = star(6);
        let pr = pagerank(&g, 0.85).unwrap();
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pr[0] > pr[1]);
    }

    #[test]
    fn centralities_on_empty_and_singleton() {
        let g0 = TrustGraph::new(0);
        assert!(in_degree(&g0).is_empty());
        assert!(closeness(&g0).is_empty());
        assert!(betweenness(&g0).is_empty());
        let g1 = TrustGraph::new(1);
        assert_eq!(closeness(&g1), vec![0.0]);
        assert_eq!(betweenness(&g1), vec![0.0]);
    }

    #[test]
    fn stronger_trust_means_shorter_paths() {
        // 0 can reach 2 directly (weak) or via 1 (strong): closeness
        // must use the strong 2-hop route (length 1/2+1/2=1 < 1/0.1=10).
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 2, 0.1);
        g.set_trust(0, 1, 2.0);
        g.set_trust(1, 2, 2.0);
        let d = super::dijkstra(&g, 0);
        assert!((d[2] - 1.0).abs() < 1e-12);
    }
}
