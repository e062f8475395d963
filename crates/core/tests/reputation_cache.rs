//! A formation run through a solve cache shared with other runs must
//! equal its uncached run bit for bit, reputation scores and power
//! iterations included, whatever the cache already holds.
//!
//! The pool here makes those other runs collide with it. Its GSPs are
//! interchangeable and its trust is symmetric and circulant, so every
//! GSP starts with the same reputation and TVOF's evictions are ties
//! broken by the seed. Member lists and carried assignments then recur
//! along different eviction chains, so rounds share solve-cache keys
//! while the inputs of their power method — the warm-start vector, the
//! trust graph, the engine — differ.

use std::collections::{BTreeSet, HashMap};

use gridvo_core::mechanism::{EvictionPolicy, FormationConfig, Mechanism};
use gridvo_core::reputation::ReputationEngine;
use gridvo_core::solve_cache::{CachedSolve, NoCache, SolveCache};
use gridvo_core::{FormationOutcome, FormationScenario, Gsp};
use gridvo_solver::branch_bound::Budget;
use gridvo_solver::AssignmentInstance;
use gridvo_trust::TrustGraph;
use rand::SeedableRng;

const GSPS: usize = 7;
const TASKS: usize = 12;
const SEEDS: u64 = 150;

/// A memo table that keeps every entry and counts its hits.
#[derive(Default)]
struct MapCache {
    map: HashMap<u64, CachedSolve>,
    hits: usize,
}

impl SolveCache for MapCache {
    fn lookup(&mut self, key: u64) -> Option<CachedSolve> {
        let hit = self.map.get(&key).cloned();
        self.hits += usize::from(hit.is_some());
        hit
    }

    fn store(&mut self, key: u64, value: &CachedSolve) {
        self.map.insert(key, value.clone());
    }
}

/// Seven GSPs with equal speeds and equal cost and time columns, each
/// trusting its two ring neighbours 1.0 and the two GSPs two steps
/// away 0.25, both ways. A deadline of one task per time unit lets
/// every VO down to one member host the program.
fn pool() -> FormationScenario {
    let gsps = (0..GSPS).map(|i| Gsp::new(i, 50.0)).collect();
    let cost = (0..TASKS * GSPS).map(|k| 1.0 + ((k / GSPS) % 3) as f64).collect();
    let time = vec![1.0; TASKS * GSPS];
    let instance = AssignmentInstance::new(TASKS, GSPS, cost, time, TASKS as f64, 1e3)
        .expect("valid instance");
    let mut trust = TrustGraph::new(GSPS);
    for i in 0..GSPS {
        for (step, weight) in [(1, 1.0), (2, 0.25)] {
            let j = (i + step) % GSPS;
            trust.set_trust(i, j, weight);
            trust.set_trust(j, i, weight);
        }
    }
    FormationScenario::new(gsps, trust, instance).expect("consistent shapes")
}

/// One formation through `cache`, with wall-clock timings zeroed.
fn form(
    mech: &Mechanism,
    s: &FormationScenario,
    seed: u64,
    cache: &mut dyn SolveCache,
) -> FormationOutcome {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut outcome =
        mech.run_cached_with_budget(s, &mut rng, cache, &Budget::unlimited()).expect("formation");
    outcome.zero_timings();
    outcome
}

/// Form every seed with TVOF and RVOF through `cache` and check each
/// against its uncached run. Returns the distinct TVOF eviction
/// chains seen.
fn check_seeds(
    s: &FormationScenario,
    engine: ReputationEngine,
    cache: &mut MapCache,
) -> BTreeSet<Vec<Option<usize>>> {
    let config = FormationConfig { reputation: engine, ..FormationConfig::default() };
    let mut chains = BTreeSet::new();
    for seed in 0..SEEDS {
        for mech in [Mechanism::tvof(config), Mechanism::rvof(config)] {
            let cached = form(&mech, s, seed, cache);
            let uncached = form(&mech, s, seed, &mut NoCache);
            // `Debug` prints floats in their shortest round-trip form,
            // so equal texts mean equal bits.
            let (cached_text, uncached_text) = (format!("{cached:?}"), format!("{uncached:?}"));
            assert_eq!(cached_text, uncached_text, "{:?} {engine:?} seed {seed}", mech.eviction);
            if mech.eviction == EvictionPolicy::LowestReputation {
                chains.insert(uncached.iterations.iter().map(|it| it.evicted).collect());
            }
        }
    }
    chains
}

#[test]
fn cached_runs_equal_uncached_runs_along_tie_broken_chains() {
    let mut s = pool();
    let mut cache = MapCache::default();
    let chains = check_seeds(&s, ReputationEngine::default(), &mut cache);
    assert!(chains.len() > 20, "ties broke along only {} chains", chains.len());
    assert!(cache.hits > 0, "the shared cache never served a replay");

    // One trust edge changes; the cost and time instance, and with it
    // every solve-cache key, stays the same.
    let mut trust = s.trust().clone();
    trust.set_trust(0, 1, 0.5);
    s.replace_trust(trust).expect("same shape");
    let before = cache.hits;
    check_seeds(&s, ReputationEngine::default(), &mut cache);
    let rounds_zero = 2 * SEEDS as usize;
    assert!(cache.hits - before >= rounds_zero, "every run's first round is a hit");
}

#[test]
fn engines_sharing_a_cache_each_equal_their_uncached_runs() {
    let s = pool();
    let mut cache = MapCache::default();
    for engine in [ReputationEngine::default(), ReputationEngine::pagerank(0.85)] {
        let hits = cache.hits;
        check_seeds(&s, engine, &mut cache);
        assert!(cache.hits > hits, "{engine:?} never hit the shared cache");
    }
}
