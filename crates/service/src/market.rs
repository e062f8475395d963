//! Market-aware formation glue: free-sub-pool scenarios, member
//! remapping, and lease-salted cache keys.
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
//! Caching stays correct under contention because [`MarketCache`]
//! mixes the snapshot's committed-set digest into every solve key: a
//! cached optimum computed while GSP 3 was leased can never answer a
//! request made after GSP 3 returned. When nothing is committed the
//! digest is 0 and [`mix`] is the identity, so an idle market shares
//! entries with plain (`--app`-less) formation byte-for-byte.
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

/// Mix a free-set digest into a solve key. Identity when `salt == 0`
/// (the idle-market case), an FNV-1a-style scramble otherwise — so
/// the same sub-scenario content under different committed sets can
/// never collide onto one entry.
pub fn mix(key: u64, salt: u64) -> u64 {
    if salt == 0 {
        return key;
    }
    let mut h = key ^ salt;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    h ^= h >> 29;
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

/// A [`SolveCache`] view for one market formation: keys are salted
/// with the pinned snapshot's committed-set digest, and stored
/// entries' member tags are lifted from sub-pool-local ids to global
/// ids (so member-id eviction still finds them).
#[derive(Debug, Clone)]
pub struct MarketCache {
    inner: SharedSolveCache,
    salt: u64,
    free: Vec<usize>,
}

impl MarketCache {
    /// Wrap `inner` (already epoch-stamped via
    /// [`SharedSolveCache::at_epoch`]) for a formation over `free`
    /// under committed-set digest `salt`.
    pub fn new(inner: SharedSolveCache, salt: u64, free: &[usize]) -> Self {
        MarketCache { inner, salt, free: free.to_vec() }
    }
}

impl SolveCache for MarketCache {
    fn lookup(&mut self, key: u64) -> Option<CachedSolve> {
        self.inner.lookup(mix(key, self.salt))
    }

    fn store(&mut self, key: u64, value: &CachedSolve) {
        let mut lifted = value.clone();
        lifted.members =
            lifted.members.iter().map(|&m| self.free.get(m).copied().unwrap_or(m)).collect();
        self.inner.store(mix(key, self.salt), &lifted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvo_core::reputation::ReputationEngine;
    use gridvo_core::{FormationConfig, Gsp, Mechanism};
    use gridvo_solver::AssignmentInstance;
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
    fn mix_is_identity_only_when_idle() {
        assert_eq!(mix(42, 0), 42);
        assert_ne!(mix(42, 7), 42);
        assert_ne!(mix(42, 7), mix(42, 8));
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
        };
        let free = vec![2, 3];
        let mut salted = MarketCache::new(shared.at_epoch(1), 99, &free);
        salted.store(7, &entry);
        // The salted entry answers the same salted lookup...
        let hit = salted.lookup(7).expect("salted hit");
        assert_eq!(hit.members, vec![2, 3], "member tags lift to global ids");
        // ...but is invisible at the raw key and under other salts.
        assert!(shared.at_epoch(1).lookup(7).is_none());
        assert!(MarketCache::new(shared.at_epoch(1), 98, &free).lookup(7).is_none());
        // Salt 0 shares entries with the plain path.
        let mut idle = MarketCache::new(shared.at_epoch(1), 0, &[0, 1]);
        idle.store(11, &entry);
        assert!(shared.at_epoch(1).lookup(11).is_some());
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
