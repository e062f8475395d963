//! Empirical audits of Theorems 1 and 2.
//!
//! Theorem 1 claims the VO produced by TVOF is **individually stable**
//! (Definition 1): no member can leave without making some member —
//! possibly itself — worse off. Theorem 2 claims the selected VO is
//! **Pareto optimal** over the feasible list `L`. Both proofs in the
//! paper are sketches; these audits check the claims instance by
//! instance, re-solving the IP for each single-member departure.
//!
//! The preference relation `⪰_i` used by the audit is lexicographic on
//! (payoff share, average reputation): a GSP first wants a bigger
//! share, then (on near-ties) a more reputable VO — the operational
//! reading of the paper's bicriteria objective (eqs. (16)–(17)).

use crate::mechanism::{FormationConfig, Mechanism};
use crate::pareto;
use crate::reputation::ReputationEngine;
use crate::scenario::FormationScenario;
use crate::vo::{FormationOutcome, VoRecord};
use crate::Result;
use gridvo_solver::branch_bound::BranchBound;

/// Verdict of the Theorem-1 audit on one VO.
#[derive(Debug, Clone, PartialEq)]
pub enum StabilityAudit {
    /// No departure is unanimously weakly preferred: individually
    /// stable.
    Stable,
    /// `member`'s departure leaves every member (including itself)
    /// weakly better off — an instability witness.
    Unstable {
        /// The member whose exit nobody minds.
        member: usize,
        /// Payoff share of the VO without `member` (None = infeasible).
        reduced_payoff: Option<f64>,
        /// Average reputation of the reduced VO.
        reduced_reputation: f64,
    },
}

/// Tolerance for payoff comparisons in the audits.
const TOL: f64 = 1e-9;

/// Audit individual stability (Definition 1) of `vo` within
/// `scenario`, re-solving the IP for each departure with an exact
/// branch-and-bound.
///
/// For each member `G_i`, form `C' = C ∖ {G_i}` and check whether
/// **all** members weakly prefer `C'`:
///
/// * a *remaining* member compares its payoff share (and reputation on
///   near-ties) in `C'` vs `C`; an infeasible `C'` makes remaining
///   members strictly worse (share 0 vs positive);
/// * the *departing* member ends up alone with payoff 0, so it weakly
///   prefers leaving only when its current share is ≤ 0.
pub fn audit_individual_stability(
    scenario: &FormationScenario,
    vo: &VoRecord,
) -> Result<StabilityAudit> {
    // Alone, a departing member earns nothing (a single GSP is assumed
    // unable to host the program — the paper's premise), so a positive
    // share blocks every departure.
    if vo.members.len() <= 1 || vo.payoff_share > TOL {
        return Ok(StabilityAudit::Stable);
    }
    let engine = ReputationEngine::default();
    let solver = BranchBound::default();
    for &leaver in &vo.members {
        let reduced: Vec<usize> = vo.members.iter().copied().filter(|&m| m != leaver).collect();
        let reduced_rep = engine.compute_with_start(scenario.trust(), &reduced, None)?.average;
        let reduced_payoff = scenario
            .instance_for(&reduced)
            .and_then(|inst| solver.solve(&inst))
            .map(|o| scenario.payoff(o.cost, reduced.len()).1);

        // Remaining members: weak preference for the reduced VO.
        let all_remaining_fine = match reduced_payoff {
            None => false, // infeasible: remaining members get nothing
            Some(p) => {
                p > vo.payoff_share + TOL
                    || ((p - vo.payoff_share).abs() <= TOL
                        && reduced_rep >= vo.avg_reputation - TOL)
            }
        };
        if all_remaining_fine {
            return Ok(StabilityAudit::Unstable {
                member: leaver,
                reduced_payoff,
                reduced_reputation: reduced_rep,
            });
        }
    }
    Ok(StabilityAudit::Stable)
}

/// Audit Theorem 2: the selected VO of `outcome` is Pareto optimal
/// over `L` in (payoff share, average reputation). Returns `None` when
/// nothing was selected.
pub fn audit_pareto_optimality(outcome: &FormationOutcome) -> Option<bool> {
    let selected = outcome.selected.as_ref()?;
    let index = outcome.feasible_vos.iter().position(|v| v.members == selected.members)?;
    Some(pareto::is_pareto_optimal(&outcome.feasible_vos, index))
}

/// Run TVOF and both audits in one call (used by the integration tests
/// and the stability experiment binary).
pub fn run_and_audit<R: rand::Rng + ?Sized>(
    scenario: &FormationScenario,
    config: FormationConfig,
    rng: &mut R,
) -> Result<(FormationOutcome, Option<StabilityAudit>, Option<bool>)> {
    let outcome = Mechanism::tvof(config).run(scenario, rng)?;
    let stability = match &outcome.selected {
        Some(vo) => Some(audit_individual_stability(scenario, vo)?),
        None => None,
    };
    let pareto_ok = audit_pareto_optimality(&outcome);
    Ok((outcome, stability, pareto_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsp::Gsp;
    use gridvo_trust::TrustGraph;
    use rand::SeedableRng;

    type TestRng = rand::rngs::StdRng;

    fn scenario() -> FormationScenario {
        let gsps: Vec<Gsp> = (0..4).map(|i| Gsp::new(i, 100.0)).collect();
        let n = 8;
        let mut cost = Vec::new();
        let mut time = Vec::new();
        for t in 0..n {
            for g in 0..4usize {
                cost.push(1.0 + ((t * 5 + g * 3) % 7) as f64);
                time.push(1.0 + 0.1 * g as f64);
            }
        }
        let inst = gridvo_solver::AssignmentInstance::new(n, 4, cost, time, 10.0, 200.0).unwrap();
        let mut trust = TrustGraph::new(4);
        for i in 0..4usize {
            for j in 0..4usize {
                if i != j {
                    trust.set_trust(i, j, 1.0 / (1.0 + (i as f64 - j as f64).abs()));
                }
            }
        }
        FormationScenario::new(gsps, trust, inst).unwrap()
    }

    #[test]
    fn tvof_outcome_is_individually_stable() {
        let s = scenario();
        let mut rng = TestRng::seed_from_u64(0);
        let (outcome, stability, _) =
            run_and_audit(&s, FormationConfig::default(), &mut rng).unwrap();
        assert!(outcome.selected.is_some());
        assert_eq!(stability, Some(StabilityAudit::Stable));
    }

    #[test]
    fn tvof_outcome_is_pareto_optimal() {
        let s = scenario();
        let mut rng = TestRng::seed_from_u64(1);
        let (_, _, pareto_ok) = run_and_audit(&s, FormationConfig::default(), &mut rng).unwrap();
        assert_eq!(pareto_ok, Some(true), "Theorem 2 violated on this instance");
    }

    #[test]
    fn singleton_vo_is_stable() {
        let s = scenario();
        let vo = VoRecord {
            members: vec![2],
            assignment: gridvo_solver::Assignment::new(vec![0; 8]),
            cost: 5.0,
            value: 195.0,
            payoff_share: 195.0,
            avg_reputation: 1.0,
            optimal: true,
            gap: Some(0.0),
        };
        assert_eq!(audit_individual_stability(&s, &vo).unwrap(), StabilityAudit::Stable);
    }

    #[test]
    fn positive_share_blocks_departure() {
        // Any VO with strictly positive shares is stable under this
        // preference: the departing member would fall to zero.
        let s = scenario();
        let mut rng = TestRng::seed_from_u64(2);
        let outcome = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
        for vo in &outcome.feasible_vos {
            if vo.payoff_share > 1e-6 {
                assert_eq!(audit_individual_stability(&s, vo).unwrap(), StabilityAudit::Stable);
            }
        }
    }

    #[test]
    fn zero_share_departure_that_hurts_nobody_is_unstable() {
        // Nobody in a zero-share VO loses by GSP 0 leaving: the leaver
        // had nothing, and GSPs 1 and 2 still host the program at a
        // profit.
        let s = scenario();
        let vo = VoRecord {
            members: vec![0, 1, 2],
            assignment: gridvo_solver::Assignment::new(vec![0; 8]),
            cost: 200.0,
            value: 0.0,
            payoff_share: 0.0,
            avg_reputation: 1.0,
            optimal: true,
            gap: Some(0.0),
        };
        let inst = s.instance_for(&[1, 2]).unwrap();
        let cost = BranchBound::default().solve(&inst).unwrap().cost;
        let (_, share) = s.payoff(cost, 2);
        assert!(share > 0.0);
        match audit_individual_stability(&s, &vo).unwrap() {
            StabilityAudit::Unstable { member, reduced_payoff, .. } => {
                assert_eq!(member, 0);
                assert_eq!(reduced_payoff, Some(share));
            }
            StabilityAudit::Stable => panic!("a departure nobody minds must be found"),
        }
    }

    #[test]
    fn pareto_audit_none_without_selection() {
        let outcome = FormationOutcome {
            iterations: vec![],
            feasible_vos: vec![],
            selected: None,
            total_seconds: 0.0,
        };
        assert_eq!(audit_pareto_optimality(&outcome), None);
    }
}
