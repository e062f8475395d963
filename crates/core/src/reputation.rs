//! VO-scoped reputation (Algorithm 2 applied inside the mechanism).
//!
//! TVOF recomputes reputations **inside the current VO** every
//! iteration: only members' opinions count, so an evicted GSP's
//! ratings stop influencing anyone (the paper's §III-A recalculation
//! argument). This module is the thin adapter from `gridvo-trust` that
//! performs exactly that, mapping scores back to global GSP ids.

use crate::Result;
use gridvo_trust::centrality::in_degree;
use gridvo_trust::normalize::row_normalize;
use gridvo_trust::propagation::propagation_scores;
use gridvo_trust::{PowerMethod, TrustGraph};

/// Which algorithm turns the VO's trust subgraph into per-member
/// reputation scores. The paper uses the power method; the others
/// back the reputation-engine ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReputationEngine {
    /// The paper's Algorithm 2: power iteration to the left principal
    /// eigenvector (eigenvector centrality) of eq. (1)'s normalized
    /// trust, where a member who trusts nobody inside the VO spreads
    /// its trust uniformly over the others. `PowerMethod::damped`
    /// gives the PageRank variant.
    Power(PowerMethod),
    /// Hang-et-al. path propagation: concatenate trust along simple
    /// paths of at most three edges, aggregate parallel paths by
    /// probabilistic sum, and score each member by the mean trust it
    /// receives.
    PathPropagation,
    /// Weighted in-degree: total direct trust received. The cheapest
    /// possible engine; ignores transitivity entirely.
    InDegree,
}

/// Longest trust path [`ReputationEngine::PathPropagation`] explores
/// (its cost is exponential in this).
const PATH_MAX_HOPS: usize = 3;

impl Default for ReputationEngine {
    fn default() -> Self {
        ReputationEngine::Power(PowerMethod::default())
    }
}

impl ReputationEngine {
    /// PageRank-style damped engine.
    pub fn pagerank(alpha: f64) -> Self {
        ReputationEngine::Power(PowerMethod::damped(alpha))
    }
}

/// Reputation of every member of a VO, indexed like `members`.
#[derive(Debug, Clone, PartialEq)]
pub struct VoReputation {
    /// Global GSP ids, in the same order as `scores`.
    pub members: Vec<usize>,
    /// Global reputation score of each member (probability vector).
    pub scores: Vec<f64>,
    /// Average global reputation `x̄(C)` (eq. (7)), computed on the
    /// **L2-normalized** eigenvector (see module docs of
    /// [`crate::reputation`]): `x̄ = Σᵢ (xᵢ/‖x‖₂) / |C|`. This lies in
    /// `[1/|C|, 1/√|C|]`, peaking when trust is evenly distributed —
    /// the discriminative reading of eq. (7) that reproduces the
    /// paper's Figs. 3 and 5–8 (the L1 reading is identically
    /// `1/|C|`, which cannot separate TVOF from RVOF).
    pub average: f64,
    /// Power-method iterations used.
    pub iterations: usize,
}

/// Tolerance under which two reputation scores count as tied in
/// [`VoReputation::lowest_members`]. The power method stops at an L1
/// residual of ~1e-10, so two runs of the same subgraph from different
/// starting vectors (cold uniform vs warm-started) agree to ~1e-10 but
/// not bitwise; a 1e-8 tie band makes the eviction choice — and hence
/// the whole formation trace — independent of the starting vector.
pub const SCORE_TIE_EPS: f64 = 1e-8;

impl VoReputation {
    /// Global ids of the members attaining the minimum score, up to
    /// [`SCORE_TIE_EPS`] (TVOF breaks ties among these uniformly at
    /// random).
    pub fn lowest_members(&self) -> Vec<usize> {
        let min = self.scores.iter().cloned().fold(f64::INFINITY, f64::min);
        self.members
            .iter()
            .zip(self.scores.iter())
            .filter(|(_, &s)| s <= min + SCORE_TIE_EPS)
            .map(|(&m, _)| m)
            .collect()
    }

    /// Score of a member by global id.
    pub fn score_of(&self, gsp: usize) -> Option<f64> {
        self.members.iter().position(|&m| m == gsp).map(|i| self.scores[i])
    }
}

impl ReputationEngine {
    /// Score the VO's trust subgraph with the configured engine.
    /// `trust` is the *global* graph; `members` the VO's global GSP
    /// ids. All engines return an L1-normalized (probability) score
    /// vector so eviction decisions are engine-comparable.
    ///
    /// `start` is an optional warm start aligned with `members` —
    /// typically the previous eviction round's scores restricted to
    /// the survivors (the power method renormalizes it onto the
    /// probability simplex itself). The fixed point is
    /// start-independent, so warm and cold runs agree to the power
    /// method's ε; only `iterations` shrinks. A degenerate start (wrong
    /// length, zero mass, negative or non-finite entries) falls back
    /// to the cold uniform start, and the non-iterative engines ignore
    /// `start` entirely.
    pub fn compute_with_start(
        &self,
        trust: &TrustGraph,
        members: &[usize],
        start: Option<&[f64]>,
    ) -> Result<VoReputation> {
        let sub = trust.restrict(members)?;
        let (mut scores, iterations) = match *self {
            ReputationEngine::Power(power) => {
                let report = power.run(&row_normalize(&sub), start)?;
                (report.scores, report.iterations)
            }
            ReputationEngine::PathPropagation => (propagation_scores(&sub, PATH_MAX_HOPS)?, 1),
            ReputationEngine::InDegree => (in_degree(&sub), 1),
        };
        let mass: f64 = scores.iter().sum();
        if mass > 0.0 {
            for s in scores.iter_mut() {
                *s /= mass;
            }
        } else if !scores.is_empty() {
            // no trust at all inside the VO: everyone equally (un)known
            let u = 1.0 / scores.len() as f64;
            scores.iter_mut().for_each(|s| *s = u);
        }
        let average = l2_average(&scores);
        Ok(VoReputation { members: members.to_vec(), scores, average, iterations })
    }
}

/// Average of the L2-normalized score vector: `Σ xᵢ / (|C|·‖x‖₂)`.
/// Ranges over `[1/|C|, 1/√|C|]` for non-negative scores; higher means
/// reputation is spread evenly over members (a cohesive VO).
pub fn l2_average(scores: &[f64]) -> f64 {
    let k = scores.len();
    if k == 0 {
        return 0.0;
    }
    let norm = scores.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm == 0.0 {
        return 0.0;
    }
    scores.iter().sum::<f64>() / (k as f64 * norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trust4() -> TrustGraph {
        let mut g = TrustGraph::new(4);
        // 0 and 1 trust each other heavily; 2 is weakly trusted; 3 is
        // trusted by nobody inside {0,1,2,3} except via dangling spread.
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 0, 1.0);
        g.set_trust(0, 2, 0.2);
        g.set_trust(1, 2, 0.2);
        g.set_trust(2, 0, 0.5);
        g.set_trust(2, 1, 0.5);
        g
    }

    #[test]
    fn scores_are_probability_vector() {
        let rep =
            ReputationEngine::default().compute_with_start(&trust4(), &[0, 1, 2, 3], None).unwrap();
        assert_eq!(rep.members, vec![0, 1, 2, 3]);
        assert!((rep.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // L2 average lies in [1/k, 1/sqrt(k)]
        assert!(rep.average >= 0.25 - 1e-9 && rep.average <= 0.5 + 1e-9);
    }

    #[test]
    fn untrusted_member_is_lowest() {
        let rep =
            ReputationEngine::default().compute_with_start(&trust4(), &[0, 1, 2, 3], None).unwrap();
        let lows = rep.lowest_members();
        assert_eq!(lows, vec![3]);
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
        let rep = ReputationEngine::default().compute_with_start(&g, &[0, 1, 2, 3], None).unwrap();
        assert_eq!(rep.lowest_members(), vec![2, 3]);
    }

    #[test]
    fn restriction_changes_scores() {
        // After evicting 3, scores are recomputed among {0,1,2}.
        let rep =
            ReputationEngine::default().compute_with_start(&trust4(), &[0, 1, 2], None).unwrap();
        assert_eq!(rep.members, vec![0, 1, 2]);
        assert!((rep.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // 2 is the least trusted of the trio
        assert_eq!(rep.lowest_members(), vec![2]);
        // and 0/1 are symmetric
        assert!((rep.scores[0] - rep.scores[1]).abs() < 1e-9);
    }

    #[test]
    fn score_of_by_global_id() {
        let rep = ReputationEngine::default().compute_with_start(&trust4(), &[1, 2], None).unwrap();
        assert!(rep.score_of(1).is_some());
        assert!(rep.score_of(0).is_none());
    }

    #[test]
    fn average_peaks_at_uniform_scores() {
        // {0,1} trust each other symmetrically: scores are uniform and
        // the L2 average attains its 1/√2 maximum.
        let rep = ReputationEngine::default().compute_with_start(&trust4(), &[0, 1], None).unwrap();
        assert!((rep.average - 1.0 / 2.0f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn l2_average_bounds_and_edge_cases() {
        assert_eq!(l2_average(&[]), 0.0);
        assert_eq!(l2_average(&[0.0, 0.0]), 0.0);
        // concentrated vector → 1/k
        assert!((l2_average(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // uniform vector → 1/sqrt(k)
        assert!((l2_average(&[0.25; 4]) - 0.5).abs() < 1e-12);
        // skewed sits strictly between
        let mid = l2_average(&[0.7, 0.1, 0.1, 0.1]);
        assert!(mid > 0.25 && mid < 0.5);
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;

    fn trusty() -> TrustGraph {
        let mut g = TrustGraph::new(4);
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 0, 1.0);
        g.set_trust(0, 2, 0.4);
        g.set_trust(1, 2, 0.4);
        g.set_trust(2, 0, 0.5);
        g.set_trust(3, 0, 0.2);
        g
    }

    #[test]
    fn all_engines_return_probability_vectors() {
        let g = trusty();
        let engines = [
            ReputationEngine::default(),
            ReputationEngine::pagerank(0.85),
            ReputationEngine::PathPropagation,
            ReputationEngine::InDegree,
        ];
        for e in engines {
            let rep = e.compute_with_start(&g, &[0, 1, 2, 3], None).unwrap();
            let sum: f64 = rep.scores.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{e:?} not a distribution");
            assert!(rep.scores.iter().all(|&s| s >= 0.0));
        }
    }

    #[test]
    fn engines_agree_on_the_obvious_outcast() {
        // GSP 3 receives no trust under every engine.
        let g = trusty();
        for e in [
            ReputationEngine::default(),
            ReputationEngine::PathPropagation,
            ReputationEngine::InDegree,
        ] {
            let rep = e.compute_with_start(&g, &[0, 1, 2, 3], None).unwrap();
            assert_eq!(rep.lowest_members(), vec![3], "{e:?} missed the outcast");
        }
    }

    #[test]
    fn in_degree_matches_hand_computation() {
        let g = trusty();
        let rep = ReputationEngine::InDegree.compute_with_start(&g, &[0, 1, 2], None).unwrap();
        // in-degrees inside {0,1,2}: 0 ← 1.0+0.5 = 1.5; 1 ← 1.0; 2 ← 0.8
        let total = 1.5 + 1.0 + 0.8;
        assert!((rep.scores[0] - 1.5 / total).abs() < 1e-12);
        assert!((rep.scores[1] - 1.0 / total).abs() < 1e-12);
        assert!((rep.scores[2] - 0.8 / total).abs() < 1e-12);
    }

    /// Every engine's scores, average and iteration count, bit for
    /// bit, cold and warm-started, on a graph whose GSP 3 trusts
    /// nobody (a dangling row) and on the pure 2-cycle, where a skewed
    /// start converges only through the lazy step.
    #[test]
    fn engine_outputs_are_pinned_bit_for_bit() {
        let mut dangling = TrustGraph::new(4);
        dangling.set_trust(0, 1, 0.9);
        dangling.set_trust(1, 2, 0.6);
        dangling.set_trust(2, 0, 0.7);
        dangling.set_trust(0, 3, 0.2);
        dangling.set_trust(1, 3, 0.4);
        let mut cycle = TrustGraph::new(2);
        cycle.set_trust(0, 1, 1.0);
        cycle.set_trust(1, 0, 1.0);
        let cases: [(&TrustGraph, &[usize], &[f64]); 2] =
            [(&dangling, &[0, 1, 2, 3], &[0.7, 0.1, 0.15, 0.05]), (&cycle, &[0, 1], &[0.9, 0.1])];
        let engines = [
            ReputationEngine::default(),
            ReputationEngine::pagerank(0.85),
            ReputationEngine::PathPropagation,
            ReputationEngine::InDegree,
        ];
        let digests: Vec<u64> = engines
            .iter()
            .map(|engine| {
                let mut h = gridvo_solver::instance::Fnv1a::new();
                for (graph, members, start) in cases {
                    for start in [None, Some(start)] {
                        let rep = engine.compute_with_start(graph, members, start).unwrap();
                        h.write_u64(rep.iterations as u64);
                        h.write_u64(rep.average.to_bits());
                        for s in &rep.scores {
                            h.write_u64(s.to_bits());
                        }
                    }
                }
                h.finish()
            })
            .collect();
        let pinned = [
            0xe5fc_49d9_daad_15f7,
            0x6ef3_dbb1_759c_c3da,
            0xbd47_5c30_82df_d0fd,
            0xb806_193e_f40c_4aa9,
        ];
        assert_eq!(digests, pinned, "{digests:#018x?}");
        // From the skewed start, one lazy step lands on the fixed point.
        let rep = engines[0].compute_with_start(&cycle, &[0, 1], Some(&[0.9, 0.1])).unwrap();
        assert_eq!((rep.scores, rep.iterations), (vec![0.5, 0.5], 2));
    }

    #[test]
    fn trustless_vo_scores_uniform() {
        let g = TrustGraph::new(3);
        let rep = ReputationEngine::InDegree.compute_with_start(&g, &[0, 1, 2], None).unwrap();
        for &s in &rep.scores {
            assert!((s - 1.0 / 3.0).abs() < 1e-12);
        }
    }
}
