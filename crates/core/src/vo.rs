//! Virtual organizations and formation-run records.

use gridvo_solver::Assignment;
use serde::{Deserialize, Serialize};

/// A feasible VO discovered during a formation run — an element of the
/// mechanism's list `L`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoRecord {
    /// Global GSP ids of the members.
    pub members: Vec<usize>,
    /// The optimal (or best-found) task assignment onto `members`
    /// (GSP indices are positions within `members`).
    pub assignment: Assignment,
    /// Total execution cost `C(T, C)` under that assignment.
    pub cost: f64,
    /// Coalition value `v(C) = P − C(T, C)` (eq. (15)).
    pub value: f64,
    /// Per-member payoff `ψ_G(C) = v(C)/|C|` (eq. (18)).
    pub payoff_share: f64,
    /// Average global reputation `x̄(C)` of the members (eq. (7)),
    /// computed on the VO's trust subgraph.
    pub avg_reputation: f64,
    /// Whether the recorded cost is a *proven* IP optimum (exact
    /// solver, search exhausted) or a heuristic/truncated value.
    pub optimal: bool,
    /// Relative optimality gap `(cost − lower_bound)/cost` of the
    /// solve that produced this record: `Some(0.0)` when proven
    /// optimal, positive when an anytime budget truncated the search,
    /// `None` for heuristic solvers (no bound) and records written by
    /// pre-gap versions.
    pub gap: Option<f64>,
}

impl VoRecord {
    /// Size `|C|`.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The Fig.-4 ranking key: payoff share × average reputation.
    pub fn payoff_reputation_product(&self) -> f64 {
        self.payoff_share * self.avg_reputation
    }
}

/// One iteration of Algorithm 1 (one candidate VO), as plotted in
/// Figs. 5–8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration index (0 = grand coalition).
    pub iteration: usize,
    /// Members of the candidate VO at this iteration.
    pub members: Vec<usize>,
    /// Whether the IP was feasible for this VO.
    pub feasible: bool,
    /// Total assignment cost (when feasible).
    pub cost: Option<f64>,
    /// Per-member payoff share (when feasible).
    pub payoff_share: Option<f64>,
    /// Average global reputation of the members.
    pub avg_reputation: f64,
    /// Reputation score of each member (aligned with `members`).
    pub reputation_scores: Vec<f64>,
    /// The member evicted at the end of this iteration (`None` on the
    /// final iteration).
    pub evicted: Option<usize>,
    /// Wall-clock seconds spent solving the IP this iteration.
    pub solve_seconds: f64,
    /// Branch-and-bound nodes expanded this iteration (0 for heuristic
    /// solvers and for pre-search infeasibility proofs).
    pub nodes: u64,
    /// Where the solver's final incumbent came from: `"heuristic"`,
    /// `"warm"` (the repaired previous-round optimum survived the
    /// search, or met the root lower bound and was certified optimal
    /// without one) or `"search"`. `None` when the round was infeasible
    /// or solved by a heuristic-only solver.
    pub incumbent_source: Option<String>,
    /// Relative optimality gap of this round's solve (see
    /// [`VoRecord::gap`]); `None` when infeasible, heuristic-solved,
    /// or recorded by a pre-gap version.
    pub gap: Option<f64>,
    /// Power-method iterations the reputation engine used this round
    /// (1 for the non-iterative engines). Warm starts show up here as
    /// a sharp drop after round 0.
    pub power_iterations: usize,
}

/// Complete result of a formation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FormationOutcome {
    /// Every iteration, in order (grand coalition first).
    pub iterations: Vec<IterationRecord>,
    /// The feasible VOs recorded in `L`, in discovery order.
    pub feasible_vos: Vec<VoRecord>,
    /// The VO chosen by the selection rule (`None` when `L` is empty —
    /// no VO can execute the program).
    pub selected: Option<VoRecord>,
    /// Total wall-clock seconds for the whole run (the paper's Fig. 9
    /// metric).
    pub total_seconds: f64,
}

impl FormationOutcome {
    /// The best payoff share over `L` (what Fig. 1 reports).
    pub fn best_payoff_share(&self) -> Option<f64> {
        self.feasible_vos.iter().map(|v| v.payoff_share).max_by(|a, b| a.total_cmp(b))
    }

    /// The VO in `L` with the highest payoff × reputation product
    /// (Fig. 4's comparison VO).
    pub fn best_product_vo(&self) -> Option<&VoRecord> {
        self.feasible_vos
            .iter()
            .max_by(|a, b| a.payoff_reputation_product().total_cmp(&b.payoff_reputation_product()))
    }

    /// Zero every wall-clock timing field, leaving only the
    /// deterministic content. Served responses are canonicalized this
    /// way so identical requests are byte-identical (and cache replays
    /// indistinguishable from fresh solves).
    pub fn zero_timings(&mut self) {
        self.total_seconds = 0.0;
        for it in &mut self.iterations {
            it.solve_seconds = 0.0;
        }
    }

    /// Rewrite every member id through `map` (`local index → global
    /// id`). Formation over a restricted sub-pool runs the mechanism
    /// on a scenario whose GSPs are renumbered 0..k; this lifts the
    /// resulting records back into the full pool's id space.
    /// Positional fields — `assignment` (indices into `members`) and
    /// `reputation_scores` (aligned with `members`) — are untouched.
    /// Ids outside `map` (stale records) are left as-is.
    pub fn map_members(&mut self, map: &[usize]) {
        let lift = |id: &mut usize| {
            if let Some(&global) = map.get(*id) {
                *id = global;
            }
        };
        for it in &mut self.iterations {
            it.members.iter_mut().for_each(lift);
            if let Some(evicted) = &mut it.evicted {
                lift(evicted);
            }
        }
        for vo in &mut self.feasible_vos {
            vo.members.iter_mut().for_each(lift);
        }
        if let Some(vo) = &mut self.selected {
            vo.members.iter_mut().for_each(lift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vo(members: Vec<usize>, payoff: f64, rep: f64) -> VoRecord {
        VoRecord {
            assignment: Assignment::new(vec![0; 4]),
            cost: 10.0,
            value: payoff * members.len() as f64,
            payoff_share: payoff,
            avg_reputation: rep,
            members,
            optimal: true,
            gap: Some(0.0),
        }
    }

    #[test]
    fn product_key() {
        let v = vo(vec![0, 1], 5.0, 0.4);
        assert!((v.payoff_reputation_product() - 2.0).abs() < 1e-12);
        assert_eq!(v.size(), 2);
    }

    #[test]
    fn outcome_selectors() {
        let outcome = FormationOutcome {
            iterations: vec![],
            feasible_vos: vec![vo(vec![0, 1, 2], 3.0, 0.9), vo(vec![0, 1], 5.0, 0.3)],
            selected: None,
            total_seconds: 0.0,
        };
        assert_eq!(outcome.best_payoff_share(), Some(5.0));
        // products: 2.7 vs 1.5 → the triple wins on the product key
        assert_eq!(outcome.best_product_vo().unwrap().members, vec![0, 1, 2]);
    }

    #[test]
    fn map_members_lifts_local_ids() {
        let mut outcome = FormationOutcome {
            iterations: vec![IterationRecord {
                iteration: 0,
                members: vec![0, 1, 2],
                feasible: true,
                cost: Some(10.0),
                payoff_share: Some(3.0),
                avg_reputation: 0.5,
                reputation_scores: vec![0.2, 0.3, 0.5],
                evicted: Some(1),
                solve_seconds: 0.0,
                nodes: 4,
                incumbent_source: None,
                gap: Some(0.0),
                power_iterations: 1,
            }],
            feasible_vos: vec![vo(vec![0, 2], 4.0, 0.5)],
            selected: Some(vo(vec![0, 2], 4.0, 0.5)),
            total_seconds: 0.0,
        };
        // Free sub-pool [1, 3, 5]: local 0→1, 1→3, 2→5.
        outcome.map_members(&[1, 3, 5]);
        assert_eq!(outcome.iterations[0].members, vec![1, 3, 5]);
        assert_eq!(outcome.iterations[0].evicted, Some(3));
        // Positional fields are untouched.
        assert_eq!(outcome.iterations[0].reputation_scores, vec![0.2, 0.3, 0.5]);
        assert_eq!(outcome.feasible_vos[0].members, vec![1, 5]);
        assert_eq!(outcome.selected.as_ref().unwrap().members, vec![1, 5]);
    }

    #[test]
    fn empty_outcome() {
        let outcome = FormationOutcome {
            iterations: vec![],
            feasible_vos: vec![],
            selected: None,
            total_seconds: 0.0,
        };
        assert_eq!(outcome.best_payoff_share(), None);
        assert!(outcome.best_product_vo().is_none());
    }
}
