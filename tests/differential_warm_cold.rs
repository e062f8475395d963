//! Differential test for the incremental formation engine: a
//! warm-started run (incumbent carry-over across eviction rounds plus
//! power-method warm starts) must reproduce the cold run's trace.
//!
//! Exactness argument (see DESIGN.md): a repaired previous-round
//! assignment only *tightens* the initial upper bound of an exact
//! branch-and-bound with a fixed search order, so the proven optimum is
//! unchanged and the node count can only shrink. The power method's
//! fixed point is start-independent, so reputation scores agree to the
//! solver tolerance (~1e-10), and `SCORE_TIE_EPS` in
//! `lowest_members` absorbs that residue so eviction tie-breaking — and
//! hence the RNG stream — is identical.
//!
//! One deliberate tolerance: costs are compared to 1e-9, not
//! bit-for-bit. When two *different* assignments tie within the
//! solver's `COST_EPS`, warm and cold searches may surface either one,
//! and the canonical re-costing of distinct optima can differ in the
//! last few ulps. Node counts are checked per round: `warm nodes ≤ cold
//! nodes`.
//!
//! The same file holds the solve cache's transparency property: a run
//! through a cache shared with other runs, pools and sub-pools equals
//! its uncached run exactly.

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::solve_cache::{CachedSolve, NoCache, SolveCache};
use gridvo_core::{FormationOutcome, FormationScenario, Gsp};
use gridvo_solver::branch_bound::Budget;
use gridvo_solver::AssignmentInstance;
use gridvo_trust::TrustGraph;
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::HashMap;

/// Random scenario: 2–5 GSPs, gsps..(gsps+6) tasks, random matrices,
/// payment generous enough that feasibility varies with the deadline
/// (same shape as `tests/proptest_core.rs`).
fn scenario_strategy() -> impl Strategy<Value = FormationScenario> {
    (2usize..=5, 0usize..=4).prop_flat_map(|(m, extra)| {
        let n = m + 2 + extra;
        (
            proptest::collection::vec(1.0f64..30.0, n * m),
            proptest::collection::vec(0.5f64..4.0, n * m),
            proptest::collection::vec(0.0f64..1.0, m * m),
            4.0f64..25.0,   // deadline
            40.0f64..400.0, // payment
        )
            .prop_map(move |(cost, time, trust_w, d, p)| {
                let gsps = (0..m).map(|i| Gsp::new(i, 100.0 + i as f64)).collect();
                let inst = AssignmentInstance::new(n, m, cost, time, d, p).expect("valid instance");
                let mut trust = TrustGraph::new(m);
                for i in 0..m {
                    for j in 0..m {
                        if i != j && trust_w[i * m + j] > 0.5 {
                            trust.set_trust(i, j, trust_w[i * m + j]);
                        }
                    }
                }
                FormationScenario::new(gsps, trust, inst).expect("consistent scenario")
            })
    })
}

/// Run one mechanism twice from the same RNG seed — once cold, once
/// warm — and return both outcomes.
fn run_pair(
    mech: fn(FormationConfig) -> Mechanism,
    s: &FormationScenario,
    seed: u64,
) -> (FormationOutcome, FormationOutcome) {
    let cold_cfg = FormationConfig { warm_start: false, ..Default::default() };
    let warm_cfg = FormationConfig { warm_start: true, ..Default::default() };
    let mut cold_rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut warm_rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cold = mech(cold_cfg).run(s, &mut cold_rng).expect("cold run");
    let warm = mech(warm_cfg).run(s, &mut warm_rng).expect("warm run");
    (cold, warm)
}

/// The differential oracle: warm and cold traces must match iteration
/// by iteration — identical member sets, feasibility, eviction order,
/// costs to 1e-9, and no more nodes warm than cold — and the selected
/// VO must be the same.
fn assert_trace_equivalent(
    cold: &FormationOutcome,
    warm: &FormationOutcome,
) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(cold.iterations.len(), warm.iterations.len(), "trace lengths diverge");
    for (c, w) in cold.iterations.iter().zip(&warm.iterations) {
        prop_assert_eq!(&c.members, &w.members, "iteration {} members", c.iteration);
        prop_assert_eq!(c.feasible, w.feasible, "iteration {} feasibility", c.iteration);
        prop_assert_eq!(c.evicted, w.evicted, "iteration {} eviction", c.iteration);
        match (c.cost, w.cost) {
            (Some(a), Some(b)) => prop_assert!(
                (a - b).abs() < 1e-9,
                "iteration {} cost: cold {a} vs warm {b}",
                c.iteration
            ),
            (None, None) => {}
            other => prop_assert!(false, "iteration {} cost mismatch {other:?}", c.iteration),
        }
        prop_assert!(
            w.nodes <= c.nodes,
            "iteration {}: warm expanded {} nodes, cold {}",
            c.iteration,
            w.nodes,
            c.nodes
        );
    }
    prop_assert_eq!(cold.feasible_vos.len(), warm.feasible_vos.len(), "feasible list L diverges");
    match (&cold.selected, &warm.selected) {
        (Some(c), Some(w)) => {
            prop_assert_eq!(&c.members, &w.members, "selected VO members");
            prop_assert!(
                (c.cost - w.cost).abs() < 1e-9,
                "selected VO cost: cold {} vs warm {}",
                c.cost,
                w.cost
            );
            prop_assert!(
                (c.payoff_share - w.payoff_share).abs() < 1e-9,
                "selected VO payoff share"
            );
        }
        (None, None) => {}
        _ => prop_assert!(false, "one run selected a VO, the other did not"),
    }
    Ok(())
}

/// An unsalted, unbounded in-memory solve cache that counts its hits.
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

/// A pool of the same shape as `s` whose content differs: task 0
/// costs half as much on every GSP, so each feasible round's cost
/// moves while every member list and carry can recur.
fn repriced(s: &FormationScenario) -> FormationScenario {
    let inst = s.instance();
    let (n, m) = (inst.tasks(), inst.gsps());
    let mut cost = Vec::with_capacity(n * m);
    let mut time = Vec::with_capacity(n * m);
    for t in 0..n {
        for g in 0..m {
            cost.push(if t == 0 { inst.cost(t, g) / 2.0 } else { inst.cost(t, g) });
            time.push(inst.time(t, g));
        }
    }
    let inst = AssignmentInstance::new(n, m, cost, time, inst.deadline(), inst.payment())
        .expect("valid instance");
    FormationScenario::new(s.gsps().to_vec(), s.trust().clone(), inst).expect("same shape")
}

/// One formation over the sub-pool `free` (`None` = the whole pool),
/// through `cache`, with wall-clock timings zeroed.
fn form(
    mech: &Mechanism,
    s: &FormationScenario,
    free: Option<&[usize]>,
    seed: u64,
    cache: &mut dyn SolveCache,
) -> Option<FormationOutcome> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let budget = Budget::unlimited();
    let mut outcome = match free {
        Some(free) => {
            mech.run_on_free_pool(s, free, &mut rng, cache, &budget).expect("sub-pool run")
        }
        None => Some(mech.run_cached_with_budget(s, &mut rng, cache, &budget).expect("run")),
    };
    if let Some(o) = outcome.as_mut() {
        o.zero_timings();
    }
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(110))]

    /// Cache transparency: TVOF and RVOF, warm and cold, over several
    /// seeds, on two same-shape pools and one sub-pool, all share one
    /// cache, and every run equals its uncached run exactly. Equal
    /// member lists recur across seeds, mechanisms, configs and pools
    /// with different carries and pool contents, so a key that missed
    /// any input the solver sees would serve a wrong replay.
    #[test]
    fn cached_runs_equal_uncached_runs(s in scenario_strategy(), seed in 0u64..1000) {
        let other = repriced(&s);
        let free: Vec<usize> = (1..s.gsp_count()).collect();
        let runs: [(&FormationScenario, Option<&[usize]>); 3] =
            [(&s, None), (&other, None), (&s, Some(&free))];
        let mut cache = MapCache::default();
        for warm_start in [true, false] {
            let config = FormationConfig { warm_start, ..Default::default() };
            for mech in [Mechanism::tvof(config), Mechanism::rvof(config)] {
                for seed in seed..seed + 3 {
                    for &(pool, free) in &runs {
                        let cached = form(&mech, pool, free, seed, &mut cache);
                        let uncached = form(&mech, pool, free, seed, &mut NoCache);
                        prop_assert_eq!(cached, uncached, "warm {} seed {} sub-pool {:?}",
                            warm_start, seed, free);
                    }
                }
            }
        }
        // Every grand-coalition round after the first is a hit.
        prop_assert!(cache.hits > 0, "the shared cache never served a replay");
    }

    /// TVOF: full differential equivalence plus the per-round node
    /// inequality.
    #[test]
    fn tvof_sequential_warm_matches_cold(s in scenario_strategy(), seed in 0u64..1000) {
        let (cold, warm) = run_pair(Mechanism::tvof, &s, seed);
        assert_trace_equivalent(&cold, &warm)?;
    }

    /// RVOF: the random-eviction RNG stream must also be untouched by
    /// warm starts.
    #[test]
    fn rvof_sequential_warm_matches_cold(s in scenario_strategy(), seed in 0u64..1000) {
        let (cold, warm) = run_pair(Mechanism::rvof, &s, seed);
        assert_trace_equivalent(&cold, &warm)?;
    }

    /// Warm runs must actually *use* the machinery: whenever a round
    /// follows a feasible round and solves exactly, its trace records a
    /// power-iteration count and (when the incumbent survived) a warm
    /// incumbent source — i.e. the differential pass is not vacuous.
    #[test]
    fn warm_runs_record_incremental_telemetry(s in scenario_strategy(), seed in 0u64..1000) {
        let (_, warm) = run_pair(Mechanism::tvof, &s, seed);
        for it in &warm.iterations {
            if it.feasible {
                prop_assert!(it.power_iterations >= 1);
                let src = it.incumbent_source.as_deref();
                prop_assert!(
                    matches!(src, Some("heuristic" | "warm" | "search" | "none")),
                    "unexpected incumbent source {src:?}"
                );
            }
        }
    }
}
