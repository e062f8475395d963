//! Algorithm 1 — the formation driver, generalized.
//!
//! The paper's TVOF and its RVOF baseline differ in exactly one line:
//! *which member is evicted* when the VO shrinks. The driver therefore
//! takes an [`EvictionPolicy`]; the paper's two mechanisms are
//! [`Mechanism::tvof`] and [`Mechanism::rvof`], and two extra policies
//! ([`EvictionPolicy::HighestCost`], [`EvictionPolicy::LowestSpeed`])
//! support the eviction-policy ablation.
//!
//! The final choice from the feasible list `L` is the paper's: the VO
//! with the highest per-member payoff (Alg. 1 l. 14). Fig. 4 compares
//! it with the payoff × reputation product after the fact, through
//! [`FormationOutcome::best_product_vo`].

use crate::reputation::ReputationEngine;
use crate::scenario::FormationScenario;
use crate::solve_cache::{reputation_tag, round_key, CachedSolve, NoCache, SolveCache};
use crate::vo::{FormationOutcome, IterationRecord, VoRecord};
use crate::{CoreError, Result};
use gridvo_solver::branch_bound::{BranchBound, Budget, SolveStatus};
use gridvo_solver::heuristics::{self, Heuristic};
use gridvo_solver::{repair, AssignmentInstance};
use gridvo_trust::TrustError;
use rand::Rng;
use std::time::Instant;

/// Which member leaves the VO at each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// TVOF: the member with the lowest global reputation inside the
    /// VO; ties broken uniformly at random (the paper's rule).
    LowestReputation,
    /// RVOF: a uniformly random member (the paper's baseline).
    UniformRandom,
    /// Ablation: the member with the highest average task cost.
    HighestCost,
    /// Ablation: the slowest member.
    LowestSpeed,
}

/// Which solver the driver uses for the IP each iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverChoice {
    /// Exact branch-and-bound.
    Exact(BranchBound),
    /// A fast inexact heuristic (participation-repaired).
    Heuristic(Heuristic),
}

impl Default for SolverChoice {
    fn default() -> Self {
        SolverChoice::Exact(BranchBound::default())
    }
}

/// Full mechanism configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormationConfig {
    /// IP solver.
    pub solver: SolverChoice,
    /// Reputation engine (Algorithm 2 settings).
    pub reputation: ReputationEngine,
    /// Incremental engine: carry each round's optimal assignment
    /// (repaired after eviction) into the next round's exact solve as a
    /// warm incumbent, and warm-start the power method from the
    /// previous round's reputation vector. Exactness is unaffected —
    /// warm starts only tighten the incumbent of an exact search and
    /// shift the power iteration's starting point, not its fixed point
    /// — so this is on by default; disable it to measure the cold
    /// baseline (the fig9/`BENCH_formation.json` comparison does).
    pub warm_start: bool,
}

impl Default for FormationConfig {
    fn default() -> Self {
        FormationConfig {
            solver: SolverChoice::default(),
            reputation: ReputationEngine::default(),
            warm_start: true,
        }
    }
}

/// A configured formation mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mechanism {
    /// Eviction policy (the TVOF/RVOF switch).
    pub eviction: EvictionPolicy,
    /// Everything else.
    pub config: FormationConfig,
}

impl Mechanism {
    /// The paper's TVOF.
    pub fn tvof(config: FormationConfig) -> Self {
        Mechanism { eviction: EvictionPolicy::LowestReputation, config }
    }

    /// The paper's RVOF baseline.
    pub fn rvof(config: FormationConfig) -> Self {
        Mechanism { eviction: EvictionPolicy::UniformRandom, config }
    }

    /// Any eviction policy (ablations).
    pub fn with_eviction(eviction: EvictionPolicy, config: FormationConfig) -> Self {
        Mechanism { eviction, config }
    }

    /// Run Algorithm 1 on a scenario.
    ///
    /// Iterates from the grand coalition, recording every iteration
    /// and every feasible VO, until the first infeasible VO (or the
    /// VO empties). Returns the full trace plus the selected VO.
    pub fn run<R: Rng + ?Sized>(
        &self,
        scenario: &FormationScenario,
        rng: &mut R,
    ) -> Result<FormationOutcome> {
        self.run_cached_with_budget(scenario, rng, &mut NoCache, &Budget::unlimited())
    }

    /// [`Mechanism::run`] with a solver-side memo table, under an
    /// anytime [`Budget`] shared by every per-round solve.
    ///
    /// Every per-round solve first consults `cache` under
    /// [`round_key`]: the scenario instance's canonical hash (computed
    /// once per scenario), the round's member ids and the carried warm
    /// start (previous assignment and evicted local index) or a cold
    /// tag. A hit costs only that key; the reduced instance is built,
    /// the carry repaired and the IP solved only after a miss, and the
    /// result is stored. Because the key determines the full solver
    /// input and the solvers are deterministic, a cached run is
    /// **trace-identical** to an uncached one — same assignments,
    /// costs, `nodes` and `incumbent_source` telemetry — except for
    /// wall-clock timings, provided the cache only ever serves this
    /// solver configuration. The `gridvo-service` daemon passes its
    /// shared cache here; plain library callers use [`Mechanism::run`].
    ///
    /// The round's entry also carries its reputation, tagged by
    /// [`reputation_tag`]: the engine, the scenario's trust digest and
    /// the power method's warm start. A hit with a matching tag serves
    /// the stored reputation and the power method does not run. Any
    /// other round computes the reputation and, when its solve is in
    /// the cache (a hit, or a miss the deadline rule stored), stores
    /// the entry again with the reputation attached. The power method
    /// is a deterministic function of those inputs and the member ids,
    /// so this keeps the run trace-identical too.
    ///
    /// Each solve honors the same absolute wall-clock deadline, so the
    /// whole formation run — not just one round — respects the
    /// caller's deadline (up to one solver bound-check interval plus
    /// non-solver overhead). Rounds whose solve was truncated carry
    /// their anytime incumbent with `optimal = false` and a positive
    /// `gap`. Deadline-truncated solves are never stored in `cache`
    /// (they are wall-clock-dependent).
    pub fn run_cached_with_budget<R: Rng + ?Sized>(
        &self,
        scenario: &FormationScenario,
        rng: &mut R,
        cache: &mut dyn SolveCache,
        budget: &Budget,
    ) -> Result<FormationOutcome> {
        let started = Instant::now();
        let pool = scenario.pool_digest();
        let trust = scenario.trust_digest();
        let mut members: Vec<usize> = (0..scenario.gsp_count()).collect();
        let mut iterations = Vec::new();
        let mut feasible_vos: Vec<VoRecord> = Vec::new();

        // Incremental-engine state: round k + 1 reuses round k's work.
        // `carry` is (previous members, previous optimal assignment,
        // the member evicted between the rounds); `prev_reputation` is
        // the previous round's score vector for power-method warm
        // starts. Both only feed *starting points* — an exact search's
        // result and the power method's fixed point are start-
        // independent, so the trace matches a cold run (see
        // tests/differential_warm_cold.rs).
        let mut carry: Option<(Vec<usize>, gridvo_solver::Assignment, usize)> = None;
        let mut prev_reputation: Option<crate::reputation::VoReputation> = None;

        let mut iteration = 0;
        while !members.is_empty() {
            let solve_started = Instant::now();
            let warm_seed = match (&carry, self.config.warm_start) {
                (Some((prev_members, prev_assignment, evicted)), true) => prev_members
                    .iter()
                    .position(|m| m == evicted)
                    .map(|local| (prev_assignment, local)),
                _ => None,
            };
            let (mut report, cached_at) =
                self.solve_vo(scenario, pool, &members, warm_seed, cache, budget);
            let solve_seconds = solve_started.elapsed().as_secs_f64();

            let rep_start: Option<Vec<f64>> = match (&prev_reputation, self.config.warm_start) {
                (Some(prev), true) => {
                    Some(members.iter().map(|&m| prev.score_of(m).unwrap_or(0.0)).collect())
                }
                _ => None,
            };
            let tag = reputation_tag(&self.config.reputation, trust, rep_start.as_deref());
            let reputation = match report.reputation.take() {
                Some((stored, reputation)) if stored == tag => reputation,
                _ => {
                    let reputation = self.config.reputation.compute_with_start(
                        scenario.trust(),
                        &members,
                        rep_start.as_deref(),
                    )?;
                    if let Some(key) = cached_at {
                        // A hit's member tags may be lifted (the market
                        // cache's); the cache lifts what it is given.
                        report.members.clone_from(&members);
                        report.reputation = Some((tag, reputation.clone()));
                        cache.store(key, &report);
                    }
                    reputation
                }
            };

            let cost = report.solved.as_ref().map(|&(_, cost, _)| cost);
            let payoff = cost.map(|cost| scenario.payoff(cost, members.len()));
            let feasible = cost.is_some();

            // Algorithm 1 exits at the first infeasible VO.
            let evicted = if feasible && members.len() > 1 {
                Some(self.pick_eviction(scenario, &members, &reputation, rng)?)
            } else {
                None
            };

            if let Some(((assignment, cost, optimal), (value, payoff_share))) =
                report.solved.zip(payoff)
            {
                carry = evicted.map(|g| (members.clone(), assignment.clone(), g));
                feasible_vos.push(VoRecord {
                    members: members.clone(),
                    assignment,
                    cost,
                    value,
                    payoff_share,
                    avg_reputation: reputation.average,
                    optimal,
                    gap: report.gap,
                });
            }

            iterations.push(IterationRecord {
                iteration,
                members: members.clone(),
                feasible,
                cost,
                payoff_share: payoff.map(|(_, share)| share),
                avg_reputation: reputation.average,
                reputation_scores: reputation.scores.clone(),
                evicted,
                solve_seconds,
                nodes: report.nodes,
                incumbent_source: report.incumbent_source,
                gap: report.gap,
                power_iterations: reputation.iterations,
            });
            prev_reputation = Some(reputation);

            match evicted {
                Some(g) => members.retain(|&m| m != g),
                None => break,
            }
            iteration += 1;
        }

        let selected = self.select(&feasible_vos).cloned();
        Ok(FormationOutcome {
            iterations,
            feasible_vos,
            selected,
            total_seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// One market formation attempt over the free sub-pool `free`
    /// (global ids, ascending) of `scenario`, through
    /// [`Mechanism::run_cached_with_budget`].
    ///
    /// A full pool runs `scenario` itself. A smaller one runs the
    /// restriction to `free` ([`FormationScenario::restrict`]) and lifts
    /// the outcome back to global ids with
    /// [`FormationOutcome::map_members`]. `Ok(None)`
    /// means the sub-pool is *contended*: it cannot host the program,
    /// or the power method does not converge on its trust subgraph.
    /// A release may cure either, so the caller retries later. An
    /// outcome with no selected VO only comes from the full pool: the
    /// program is infeasible outright.
    pub fn run_on_free_pool<R: Rng + ?Sized>(
        &self,
        scenario: &FormationScenario,
        free: &[usize],
        rng: &mut R,
        cache: &mut dyn SolveCache,
        budget: &Budget,
    ) -> Result<Option<FormationOutcome>> {
        if free.len() == scenario.gsp_count() {
            return self.run_cached_with_budget(scenario, rng, cache, budget).map(Some);
        }
        let Some(sub) = scenario.restrict(free) else { return Ok(None) };
        let mut outcome = match self.run_cached_with_budget(&sub, rng, cache, budget) {
            Ok(outcome) if outcome.selected.is_some() => outcome,
            Ok(_) | Err(CoreError::Trust(TrustError::NoConvergence { .. })) => return Ok(None),
            Err(e) => return Err(e),
        };
        outcome.map_members(free);
        Ok(Some(outcome))
    }

    /// Solve the IP for a candidate VO, optionally warm-started with
    /// the previous round's assignment (`carry` = that assignment plus
    /// the evicted member's local index within the previous VO), going
    /// through the memo table first under [`round_key`] (`pool` is the
    /// scenario instance's canonical hash). Also returns the key when
    /// the cache holds the solve: it was a hit, or it was stored.
    fn solve_vo(
        &self,
        scenario: &FormationScenario,
        pool: u64,
        members: &[usize],
        carry: Option<(&gridvo_solver::Assignment, usize)>,
        cache: &mut dyn SolveCache,
        budget: &Budget,
    ) -> (CachedSolve, Option<u64>) {
        // A VO that cannot host the program is infeasible without a
        // solve, so it is neither looked up nor stored. A hit needs
        // only the key: the reduced instance and the repaired warm
        // incumbent are built after a miss.
        let key = scenario.can_host(members.len()).then(|| round_key(pool, members, carry));
        if let Some(hit) = key.and_then(|key| cache.lookup(key)) {
            return (hit, key);
        }
        let Some((key, inst)) = key.zip(scenario.instance_for(members)) else {
            let infeasible = CachedSolve {
                solved: None,
                nodes: 0,
                incumbent_source: None,
                gap: None,
                members: members.to_vec(),
                epoch: 0,
                reputation: None,
            };
            return (infeasible, None);
        };
        let warm =
            carry.and_then(|(prev, evicted)| repair::repair_after_eviction(prev, evicted, &inst));
        let solve = CachedSolve {
            members: members.to_vec(),
            ..self.solve_instance(&inst, warm.as_ref(), budget)
        };
        // The wall-clock deadline is not part of the key: it makes
        // results non-reproducible, so deadline-hit solves are simply
        // never stored. Cached entries from unlimited runs remain valid
        // answers under any deadline — serving a cached proven optimum
        // early is strictly better than truncating a fresh search.
        // Without a deadline every result (including node-cap
        // truncation and Unknown) is a deterministic function of the
        // key and the solver configuration. With one armed, anything
        // short of a proven optimum — an anytime incumbent, or an
        // empty result that may be a timed-out Unknown rather than an
        // infeasibility proof — depends on wall-clock luck and is
        // never stored.
        let stored = budget.deadline.is_none() || matches!(&solve.solved, Some((_, _, true)));
        if stored {
            cache.store(key, &solve);
        }
        (solve, stored.then_some(key))
    }

    /// Solve one assignment instance with the configured solver under
    /// `budget`, optionally seeded with a warm incumbent. Also the
    /// re-solve primitive of the fault-recovery path
    /// ([`crate::execution`]). The result carries no member tag and
    /// epoch 0: formation has no epoch notion, and epoch-aware cache
    /// owners re-stamp on store.
    pub(crate) fn solve_instance(
        &self,
        inst: &AssignmentInstance,
        warm: Option<&gridvo_solver::Assignment>,
        budget: &Budget,
    ) -> CachedSolve {
        let (solved, nodes, incumbent_source, gap) = match self.config.solver {
            SolverChoice::Exact(bb) => match bb.solve_status_with_budget(inst, warm, budget) {
                SolveStatus::Optimal(o) | SolveStatus::Feasible(o) => (
                    Some((o.assignment, o.cost, o.optimal)),
                    o.nodes,
                    Some(o.incumbent_source.as_str().to_string()),
                    o.gap,
                ),
                SolveStatus::Infeasible { nodes } | SolveStatus::Unknown { nodes } => {
                    (None, nodes, None, None)
                }
            },
            SolverChoice::Heuristic(kind) => {
                let solved = heuristics::run(kind, inst).map(|a| {
                    let cost = a.total_cost(inst);
                    (a, cost, false)
                });
                (solved, 0, None, None)
            }
        };
        CachedSolve {
            solved,
            nodes,
            incumbent_source,
            gap,
            members: Vec::new(),
            epoch: 0,
            reputation: None,
        }
    }

    /// The member leaving the VO this round. Errors (instead of
    /// panicking — a served request must not kill a daemon worker) on
    /// the degenerate inputs the driver itself never produces: an
    /// empty member list or an empty reputation tie set.
    fn pick_eviction<R: Rng + ?Sized>(
        &self,
        scenario: &FormationScenario,
        members: &[usize],
        reputation: &crate::reputation::VoReputation,
        rng: &mut R,
    ) -> Result<usize> {
        let empty = CoreError::EmptyVo { context: "eviction from an empty VO" };
        match self.eviction {
            EvictionPolicy::LowestReputation => {
                let lows = reputation.lowest_members();
                if lows.is_empty() {
                    return Err(CoreError::EmptyVo { context: "no lowest-reputation member" });
                }
                Ok(lows[rng.gen_range(0..lows.len())])
            }
            EvictionPolicy::UniformRandom => {
                if members.is_empty() {
                    return Err(empty);
                }
                Ok(members[rng.gen_range(0..members.len())])
            }
            EvictionPolicy::HighestCost => {
                let inst = scenario.instance();
                members
                    .iter()
                    .max_by(|&&a, &&b| {
                        let ca: f64 = (0..inst.tasks()).map(|t| inst.cost(t, a)).sum();
                        let cb: f64 = (0..inst.tasks()).map(|t| inst.cost(t, b)).sum();
                        ca.total_cmp(&cb)
                    })
                    .copied()
                    .ok_or(empty)
            }
            EvictionPolicy::LowestSpeed => {
                let gsps = scenario.gsps();
                members
                    .iter()
                    .min_by(|&&a, &&b| gsps[a].speed_gflops.total_cmp(&gsps[b].speed_gflops))
                    .copied()
                    .ok_or(empty)
            }
        }
    }

    /// Algorithm 1, l. 14: the VO of `L` with the highest per-member
    /// payoff, the last one among equal maxima.
    fn select<'a>(&self, vos: &'a [VoRecord]) -> Option<&'a VoRecord> {
        vos.iter().max_by(|a, b| a.payoff_share.total_cmp(&b.payoff_share))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsp::Gsp;
    use gridvo_trust::TrustGraph;
    use rand::SeedableRng;

    type TestRng = rand::rngs::StdRng;

    /// 4 GSPs, 8 tasks; GSP 3 is distrusted and expensive.
    fn scenario() -> FormationScenario {
        let gsps: Vec<Gsp> = (0..4).map(|i| Gsp::new(i, 100.0 - 10.0 * i as f64)).collect();
        let n = 8;
        let mut cost = Vec::new();
        let mut time = Vec::new();
        for t in 0..n {
            for g in 0..4usize {
                let base = 1.0 + (t % 3) as f64;
                let premium = if g == 3 { 10.0 } else { g as f64 * 0.5 };
                cost.push(base + premium);
                time.push(1.0 + 0.2 * g as f64);
            }
        }
        let inst = gridvo_solver::AssignmentInstance::new(n, 4, cost, time, 20.0, 200.0).unwrap();
        let mut trust = TrustGraph::new(4);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    trust.set_trust(i, j, 1.0);
                }
            }
        }
        trust.set_trust(3, 0, 1.0); // 3 trusts others but is untrusted
        FormationScenario::new(gsps, trust, inst).unwrap()
    }

    #[test]
    fn tvof_runs_and_selects_a_vo() {
        let s = scenario();
        let mut rng = TestRng::seed_from_u64(42);
        let out = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
        assert!(!out.iterations.is_empty());
        let vo = out.selected.clone().expect("grand coalition is feasible here");
        assert!(vo.payoff_share > 0.0);
        assert!(vo.optimal);
        // selected payoff equals the max over L
        assert_eq!(Some(vo.payoff_share), out.best_payoff_share());
    }

    #[test]
    fn free_pool_attempts_lift_ids_and_report_contention() {
        let s = scenario();
        let mech = Mechanism::tvof(FormationConfig::default());
        let attempt = |free: &[usize]| {
            let mut rng = TestRng::seed_from_u64(5);
            mech.run_on_free_pool(&s, free, &mut rng, &mut NoCache, &Budget::unlimited()).unwrap()
        };
        // The full pool is a plain run.
        let full = attempt(&[0, 1, 2, 3]).expect("the full pool is never contended");
        let plain = mech.run(&s, &mut TestRng::seed_from_u64(5)).unwrap();
        assert_eq!(full.selected, plain.selected);
        // A sub-pool's outcome speaks global ids.
        let sub = attempt(&[1, 2]).expect("two trusting GSPs host the program");
        assert!(sub.selected.unwrap().members.iter().all(|g| [1, 2].contains(g)));
        assert!(sub.iterations.iter().all(|it| it.members.iter().all(|g| [1, 2].contains(g))));
        // A sub-pool that cannot host the program is contention.
        assert!(attempt(&[]).is_none());
    }

    #[test]
    fn tvof_evicts_the_distrusted_gsp_first() {
        let s = scenario();
        let mut rng = TestRng::seed_from_u64(1);
        let out = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
        assert_eq!(out.iterations[0].evicted, Some(3), "GSP 3 is untrusted");
    }

    #[test]
    fn tvof_reputation_never_decreases_along_iterations() {
        // The paper's Figs. 5–6 observation: evicting the least
        // reputable member weakly raises average reputation.
        let s = scenario();
        let mut rng = TestRng::seed_from_u64(2);
        let out = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
        // avg reputation of a |C|-member VO is always 1/|C| by eq. (7)
        // (scores sum to 1), so instead check per-member minimum score
        // times size, i.e. fairness of the distribution: the *minimum*
        // reputation share should not collapse as the VO shrinks.
        for w in out.iterations.windows(2) {
            assert!(w[1].members.len() < w[0].members.len());
        }
    }

    #[test]
    fn rvof_evicts_random_members() {
        let s = scenario();
        // Across seeds, RVOF's first eviction should not always be GSP 3.
        let mut saw_other = false;
        for seed in 0..20 {
            let mut rng = TestRng::seed_from_u64(seed);
            let out = Mechanism::rvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
            if out.iterations[0].evicted != Some(3) {
                saw_other = true;
                break;
            }
        }
        assert!(saw_other, "RVOF never evicted anyone but GSP 3 across 20 seeds");
    }

    #[test]
    fn iteration_trace_shrinks_to_singleton_or_infeasible() {
        let s = scenario();
        let mut rng = TestRng::seed_from_u64(3);
        let out = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
        let last = out.iterations.last().unwrap();
        assert!(last.evicted.is_none());
        assert!(!last.feasible || last.members.len() == 1);
    }

    #[test]
    fn heuristic_solver_also_forms_vos() {
        let s = scenario();
        let mut rng = TestRng::seed_from_u64(4);
        let cfg = FormationConfig {
            solver: SolverChoice::Heuristic(Heuristic::GreedyCost),
            ..Default::default()
        };
        let out = Mechanism::tvof(cfg).run(&s, &mut rng).unwrap();
        let vo = out.selected.expect("greedy finds feasible VOs here");
        assert!(!vo.optimal, "heuristic solutions are not proven optimal");
    }

    #[test]
    fn selection_takes_the_last_of_tied_maximum_payoff_shares() {
        let vo = |members: Vec<usize>, payoff_share: f64, avg_reputation: f64| VoRecord {
            assignment: gridvo_solver::Assignment::new(vec![0; 4]),
            cost: 1.0,
            value: payoff_share * members.len() as f64,
            payoff_share,
            avg_reputation,
            optimal: true,
            gap: Some(0.0),
            members,
        };
        let list = [
            vo(vec![0, 1, 2, 3], 4.0, 0.9),
            vo(vec![0, 1, 2], 6.0, 0.5),
            vo(vec![0, 1], 6.0, 0.2),
            vo(vec![0], 5.0, 0.1),
        ];
        let mech = Mechanism::tvof(FormationConfig::default());
        assert_eq!(mech.select(&list).map(|v| v.members.clone()), Some(vec![0, 1]));
        assert!(mech.select(&[]).is_none());
    }

    #[test]
    fn infeasible_scenario_selects_nothing() {
        // Payment far below any assignment cost.
        let gsps = vec![Gsp::new(0, 10.0), Gsp::new(1, 10.0)];
        let inst =
            gridvo_solver::AssignmentInstance::new(2, 2, vec![50.0; 4], vec![1.0; 4], 10.0, 5.0)
                .unwrap();
        let s = FormationScenario::new(gsps, TrustGraph::new(2), inst).unwrap();
        let mut rng = TestRng::seed_from_u64(7);
        let out = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
        assert!(out.selected.is_none());
        assert!(out.feasible_vos.is_empty());
        assert_eq!(out.iterations.len(), 1, "Algorithm 1 stops at first infeasibility");
    }

    #[test]
    fn ablation_policies_run() {
        let s = scenario();
        for policy in [EvictionPolicy::HighestCost, EvictionPolicy::LowestSpeed] {
            let mut rng = TestRng::seed_from_u64(8);
            let out = Mechanism::with_eviction(policy, FormationConfig::default())
                .run(&s, &mut rng)
                .unwrap();
            assert!(out.selected.is_some());
        }
        // HighestCost must evict GSP 3 (premium 10) first.
        let mut rng = TestRng::seed_from_u64(9);
        let out = Mechanism::with_eviction(EvictionPolicy::HighestCost, FormationConfig::default())
            .run(&s, &mut rng)
            .unwrap();
        assert_eq!(out.iterations[0].evicted, Some(3));
        // LowestSpeed must evict GSP 3 (slowest: 70 GFLOPS) first.
        let mut rng = TestRng::seed_from_u64(10);
        let out = Mechanism::with_eviction(EvictionPolicy::LowestSpeed, FormationConfig::default())
            .run(&s, &mut rng)
            .unwrap();
        assert_eq!(out.iterations[0].evicted, Some(3));
    }

    /// A cache that keeps every entry and counts stores.
    #[derive(Default)]
    struct CountingCache {
        map: std::collections::HashMap<u64, CachedSolve>,
        stores: usize,
    }

    impl SolveCache for CountingCache {
        fn lookup(&mut self, key: u64) -> Option<CachedSolve> {
            self.map.get(&key).cloned()
        }

        fn store(&mut self, key: u64, value: &CachedSolve) {
            self.stores += 1;
            self.map.insert(key, value.clone());
        }
    }

    #[test]
    fn a_replayed_run_is_served_solves_and_reputations_from_the_cache() {
        let s = scenario();
        let mech = Mechanism::tvof(FormationConfig::default());
        let mut cache = CountingCache::default();
        let run = |cache: &mut CountingCache| {
            let mut rng = TestRng::seed_from_u64(12);
            let budget = Budget::unlimited();
            let mut out = mech.run_cached_with_budget(&s, &mut rng, cache, &budget).unwrap();
            out.zero_timings();
            out
        };
        let first = run(&mut cache);
        // Each round stores its solve, then attaches its reputation.
        assert_eq!(cache.stores, 2 * first.iterations.len());
        assert!(cache.map.values().all(|entry| entry.reputation.is_some()));
        // The replay hits every round's solve and reputation: it
        // stores nothing.
        assert_eq!(run(&mut cache), first);
        assert_eq!(cache.stores, 2 * first.iterations.len());
    }

    #[test]
    fn timings_recorded() {
        let s = scenario();
        let mut rng = TestRng::seed_from_u64(11);
        let out = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
        assert!(out.total_seconds >= 0.0);
        for it in &out.iterations {
            assert!(it.solve_seconds >= 0.0);
        }
    }
}
