//! Market-aware formation glue: free-sub-pool scenarios and member
//! remapping.
//!
//! A `form --app` request must only see the **free sub-pool** — the
//! GSPs held by no live lease. The server pins an
//! [`EpochSnapshot`](crate::shard::EpochSnapshot) and forms through
//! [`gridvo_core::Mechanism::run_on_free_pool`]: it restricts the
//! standing scenario to `snapshot.free`, runs the unchanged mechanism
//! over the restricted scenario (whose GSPs are renumbered `0..k`),
//! and lifts the resulting records back into global ids with
//! [`gridvo_core::FormationOutcome::map_members`]. [`free_scenario`]
//! is that restriction on its own.
//!
//! Caching stays correct under contention without any market state in
//! the key. The restricted scenario has its own pool digest, which
//! [`round_key`](gridvo_core::solve_cache::round_key) hashes, so a
//! cached solve computed while GSP 3 was leased answers a request made
//! after GSP 3 returned only if the two sub-pools' cost/time instances
//! are equal — and then it is the right answer for both. An idle
//! market runs the full scenario and shares entries with plain
//! (`--app`-less) formation. [`MarketCache`] only lifts the member
//! tags of stored solves to global ids.
//!
//! These helpers are `pub` so the torture tests can recompute a serial
//! oracle's responses from the same pieces the server uses.

use gridvo_core::solve_cache::{CachedSolve, SolveCache};
use gridvo_core::FormationScenario;

use crate::cache::SharedSolveCache;

/// Restrict `full` to the sub-pool `free` (global ids, ascending):
/// [`FormationScenario::restrict`]. The returned scenario renumbers
/// the survivors `0..free.len()`; lift results back with
/// `FormationOutcome::map_members(free)`.
pub fn free_scenario(full: &FormationScenario, free: &[usize]) -> Option<FormationScenario> {
    full.restrict(free)
}

/// A [`SolveCache`] view for one market formation: stored entries'
/// member tags are lifted from sub-pool-local ids to global ids (so
/// member-id eviction still finds them). Keys pass through unchanged.
#[derive(Debug, Clone)]
pub struct MarketCache {
    inner: SharedSolveCache,
    free: Vec<usize>,
}

impl MarketCache {
    /// Wrap `inner` (already epoch-stamped via
    /// [`SharedSolveCache::at_epoch`]) for a formation over `free`.
    /// `_salt` is ignored: the key needs no market state (see the
    /// module docs). The daemon benchmark passes a committed-set
    /// digest there.
    pub fn new(inner: SharedSolveCache, _salt: u64, free: &[usize]) -> Self {
        MarketCache { inner, free: free.to_vec() }
    }
}

impl SolveCache for MarketCache {
    fn lookup(&mut self, key: u64) -> Option<CachedSolve> {
        self.inner.lookup(key)
    }

    fn store(&mut self, key: u64, value: &CachedSolve) {
        let mut lifted = value.clone();
        lifted.members =
            lifted.members.iter().map(|&m| self.free.get(m).copied().unwrap_or(m)).collect();
        self.inner.store(key, &lifted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvo_core::reputation::ReputationEngine;
    use gridvo_core::solve_cache::NoCache;
    use gridvo_core::{FormationConfig, Gsp, Mechanism};
    use gridvo_solver::{AssignmentInstance, Budget};
    use gridvo_trust::TrustGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scenario(m: usize) -> FormationScenario {
        let gsps: Vec<Gsp> = (0..m).map(|i| Gsp::new(i, 100.0 - 10.0 * i as f64)).collect();
        let mut trust = TrustGraph::new(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    trust.set_trust(i, j, 0.4 + 0.1 * ((i + j) % 3) as f64);
                }
            }
        }
        let tasks = 2 * m;
        let cost: Vec<f64> = (0..tasks * m).map(|k| 1.0 + (k % 7) as f64).collect();
        let time: Vec<f64> = (0..tasks * m).map(|k| 0.5 + (k % 5) as f64 * 0.3).collect();
        let inst = AssignmentInstance::new(tasks, m, cost, time, 50.0, 400.0).unwrap();
        FormationScenario::new(gsps, trust, inst).unwrap()
    }

    #[test]
    fn restricted_formation_lifts_to_global_ids() {
        // A formation over the sub-pool, lifted via map_members, must
        // select members drawn from the free set (global ids).
        let full = scenario(5);
        let free = vec![1, 2, 4];
        let sub = free_scenario(&full, &free).unwrap();
        let mechanism = Mechanism::tvof(FormationConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let mut outcome = mechanism.run(&sub, &mut rng).unwrap();
        outcome.map_members(&free);
        let selected = outcome.selected.expect("sub-pool formation is feasible");
        assert!(!selected.members.is_empty());
        assert!(selected.members.iter().all(|m| free.contains(m)));
    }

    #[test]
    fn market_cache_salts_keys_and_lifts_member_tags() {
        let shared = SharedSolveCache::new(16);
        let entry = CachedSolve {
            solved: None,
            nodes: 3,
            incumbent_source: None,
            gap: None,
            members: vec![0, 1], // sub-pool-local ids
            epoch: 0,
            reputation: None,
        };
        let mut market = MarketCache::new(shared.at_epoch(1), 99, &[2, 3]);
        market.store(7, &entry);
        let hit = market.lookup(7).expect("hit");
        assert_eq!(hit.members, vec![2, 3], "member tags lift to global ids");
    }

    /// Five GSPs in which 0 and 1 are twins: equal speeds, cost and
    /// time columns, and trust rows and columns. So the sub-pools
    /// {1, 2, 3, 4} and {0, 2, 3, 4} restrict to one scenario.
    fn twin_pool() -> FormationScenario {
        let (m, tasks) = (5, 10);
        let class = |g: usize| g.max(1);
        let gsps: Vec<Gsp> = (0..m).map(|i| Gsp::new(i, 100.0 - 10.0 * class(i) as f64)).collect();
        let mut trust = TrustGraph::new(m);
        for i in 0..m {
            for j in (0..m).filter(|&j| j != i) {
                trust.set_trust(i, j, 0.4 + 0.1 * ((2 * class(i) + class(j)) % 4) as f64);
            }
        }
        let cell = |k: usize| (k / m, class(k % m));
        let cost = (0..tasks * m).map(cell).map(|(t, g)| 1.0 + ((3 * t + 5 * g) % 7) as f64);
        let time = (0..tasks * m).map(cell).map(|(t, g)| 0.5 + ((t + 2 * g) % 5) as f64 * 0.3);
        let inst =
            AssignmentInstance::new(tasks, m, cost.collect(), time.collect(), 50.0, 400.0).unwrap();
        FormationScenario::new(gsps, trust, inst).unwrap()
    }

    #[test]
    fn equal_sub_pools_share_cached_solves_whatever_is_committed() {
        let full = twin_pool();
        let mechanism = Mechanism::tvof(FormationConfig::default());
        let form = |free: &[usize], cache: &mut dyn SolveCache| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut outcome = mechanism
                .run_on_free_pool(&full, free, &mut rng, cache, &Budget::unlimited())
                .unwrap()
                .expect("the sub-pool hosts the program");
            outcome.zero_timings();
            outcome
        };
        // Two committed sets (GSP 0 leased, then GSP 1 leased), each
        // with its own digest, over one shared cache.
        let shared = SharedSolveCache::new(64);
        form(&[1, 2, 3, 4], &mut MarketCache::new(shared.at_epoch(1), 11, &[1, 2, 3, 4]));
        let before = shared.stats();
        let cached =
            form(&[0, 2, 3, 4], &mut MarketCache::new(shared.at_epoch(2), 22, &[0, 2, 3, 4]));
        let after = shared.stats();
        assert_eq!(after.hits - before.hits, cached.iterations.len() as u64, "every round hits");
        assert_eq!(after.misses, before.misses);
        assert_eq!(cached, form(&[0, 2, 3, 4], &mut NoCache));
    }

    #[test]
    fn reputation_engine_default_is_what_the_server_uses() {
        // Guard against free_scenario drifting from the registry's
        // scenario materialization: restricting the full pool to all
        // members must reproduce it exactly.
        let full = scenario(4);
        let all: Vec<usize> = (0..4).collect();
        let sub = free_scenario(&full, &all).unwrap();
        assert_eq!(
            sub.instance().canonical_hash(),
            full.instance().canonical_hash(),
            "identity restriction must preserve the instance"
        );
        assert_eq!(sub.trust().weight_matrix(), full.trust().weight_matrix());
        let _ = ReputationEngine::default();
    }
}
