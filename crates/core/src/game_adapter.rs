//! Adapter from a formation scenario to a coalitional game.
//!
//! Eq. (15): `v(C) = P − C(T, C)` when the task-assignment IP is
//! feasible for VO `C`, else 0. Evaluating `v` means solving an IP, so
//! the adapter wraps the solver behind `gridvo-game`'s memoizing
//! characteristic function — every analysis (Shapley, core, least
//! core, merge-and-split) then shares one cache of IP solves.

use crate::scenario::FormationScenario;
use gridvo_game::characteristic::{FnGame, MemoCharacteristic};
use gridvo_game::Coalition;
use gridvo_solver::branch_bound::BranchBound;

/// The VO-formation game of eq. (15) over a scenario's GSPs.
///
/// Coalition bits index GSPs. Values are clamped at 0 (a VO that
/// cannot profitably execute the program simply does not form).
pub type VoGame<'a> = MemoCharacteristic<FnGame<Box<dyn Fn(Coalition) -> f64 + 'a>>>;

/// Build the (memoized) VO game for a scenario, using `solver` for
/// every coalition's IP.
pub fn vo_game(scenario: &FormationScenario, solver: BranchBound) -> VoGame<'_> {
    let f: Box<dyn Fn(Coalition) -> f64 + '_> = Box::new(move |c: Coalition| {
        if c.is_empty() {
            return 0.0;
        }
        let members = c.to_vec();
        match scenario.instance_for(&members).and_then(|inst| solver.solve(&inst)) {
            Some(o) => scenario.payoff(o.cost, members.len()).0,
            None => 0.0,
        }
    });
    MemoCharacteristic::new(FnGame::new(scenario.gsp_count(), f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsp::Gsp;
    use gridvo_game::CharacteristicFn;
    use gridvo_solver::AssignmentInstance;
    use gridvo_trust::TrustGraph;

    fn scenario() -> FormationScenario {
        let gsps = vec![Gsp::new(0, 100.0), Gsp::new(1, 100.0), Gsp::new(2, 100.0)];
        let n = 6;
        let mut cost = Vec::new();
        for t in 0..n {
            for g in 0..3usize {
                cost.push(1.0 + ((t + g) % 3) as f64);
            }
        }
        let inst = AssignmentInstance::new(n, 3, cost, vec![1.0; n * 3], 10.0, 50.0).unwrap();
        FormationScenario::new(gsps, TrustGraph::new(3), inst).unwrap()
    }

    #[test]
    fn empty_coalition_is_zero() {
        let s = scenario();
        let game = vo_game(&s, BranchBound::default());
        assert_eq!(game.value(Coalition::EMPTY), 0.0);
    }

    #[test]
    fn values_match_direct_solves() {
        let s = scenario();
        let game = vo_game(&s, BranchBound::default());
        for bits in 1..8u64 {
            let c = Coalition::from_bits(bits);
            let members = c.to_vec();
            let direct = s
                .instance_for(&members)
                .and_then(|i| BranchBound::default().solve(&i))
                .map(|o| (s.payment() - o.cost).max(0.0))
                .unwrap_or(0.0);
            assert!((game.value(c) - direct).abs() < 1e-9, "mismatch at {c}");
        }
    }

    #[test]
    fn memoization_is_active() {
        let s = scenario();
        let game = vo_game(&s, BranchBound::default());
        let c = Coalition::from_members([0, 1]);
        let _ = game.value(c);
        let before = game.cache_size();
        let _ = game.value(c);
        assert_eq!(game.cache_size(), before);
    }
}
