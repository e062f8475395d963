//! One experiment definition per paper figure.
//!
//! Each function reproduces the *procedure* behind a figure; rendering
//! (CSV/JSON) lives in [`crate::report`], and the runnable binaries in
//! `gridvo-bench` glue the two together.

use crate::config::TableI;
use crate::instance_gen::ScenarioGenerator;
use crate::runner::{run_seeds, Aggregate};
use crate::{Result, SimError};
use gridvo_core::mechanism::{FormationConfig, Mechanism, SolverChoice};
use gridvo_core::solve_cache::NoCache;
use gridvo_core::FormationOutcome;
use gridvo_solver::branch_bound::{BranchBound, Budget};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Mechanism configuration used by all experiments: exact B&B with the
/// configured node budget, paper defaults elsewhere.
pub fn paper_config(cfg: &TableI) -> FormationConfig {
    FormationConfig {
        solver: SolverChoice::Exact(BranchBound { max_nodes: cfg.solver_node_budget }),
        ..Default::default()
    }
}

/// Per-seed observations of one (mechanism, scenario) run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Payoff share of the selected VO (0 when none).
    pub payoff_share: f64,
    /// Size of the selected VO (0 when none).
    pub vo_size: usize,
    /// Average reputation of the selected VO (0 when none).
    pub avg_reputation: f64,
    /// Wall-clock seconds for the whole mechanism run.
    pub seconds: f64,
    /// Whether a VO was selected at all.
    pub formed: bool,
}

/// Aggregate `f` over the runs that formed a VO.
pub fn aggregate_formed(runs: &[RunMetrics], f: fn(&RunMetrics) -> f64) -> Aggregate {
    Aggregate::of(&runs.iter().filter(|m| m.formed).map(f).collect::<Vec<_>>())
}

impl RunMetrics {
    fn from_outcome(outcome: &FormationOutcome) -> RunMetrics {
        match &outcome.selected {
            Some(vo) => RunMetrics {
                payoff_share: vo.payoff_share,
                vo_size: vo.size(),
                avg_reputation: vo.avg_reputation,
                seconds: outcome.total_seconds,
                formed: true,
            },
            None => RunMetrics {
                payoff_share: 0.0,
                vo_size: 0,
                avg_reputation: 0.0,
                seconds: outcome.total_seconds,
                formed: false,
            },
        }
    }
}

/// One row of the task-size sweep — the data behind Figs. 1, 2, 3 and 9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Program size (#tasks).
    pub tasks: usize,
    /// Fig. 1 — individual payoff of the selected VO.
    pub tvof_payoff: Aggregate,
    /// Fig. 1 baseline.
    pub rvof_payoff: Aggregate,
    /// Fig. 2 — size of the final VO.
    pub tvof_vo_size: Aggregate,
    /// Fig. 2 baseline.
    pub rvof_vo_size: Aggregate,
    /// Fig. 3 — average global reputation of the final VO.
    pub tvof_reputation: Aggregate,
    /// Fig. 3 baseline.
    pub rvof_reputation: Aggregate,
    /// Fig. 9 — mechanism execution time (seconds).
    pub tvof_seconds: Aggregate,
    /// Fig. 9 baseline.
    pub rvof_seconds: Aggregate,
    /// Seeds that produced a VO under both mechanisms.
    pub formed_runs: usize,
}

/// Figs. 1/2/3/9 — sweep program sizes, running TVOF and RVOF on the
/// *same* scenarios, `seeds.len()` scenarios per size.
pub fn task_sweep(cfg: &TableI, seeds: &[u64]) -> Result<Vec<SweepPoint>> {
    let generator = ScenarioGenerator::new(cfg.clone());
    let mech_cfg = paper_config(cfg);
    let mut points = Vec::with_capacity(cfg.task_sizes.len());
    for (size_idx, &tasks) in cfg.task_sizes.iter().enumerate() {
        let results = run_seeds(0xF1965 + size_idx as u64, seeds, |_seed, rng| {
            let scenario = generator.scenario(tasks, rng)?;
            let tvof = Mechanism::tvof(mech_cfg).run(&scenario, rng)?;
            let rvof = Mechanism::rvof(mech_cfg).run(&scenario, rng)?;
            Ok::<_, SimError>((RunMetrics::from_outcome(&tvof), RunMetrics::from_outcome(&rvof)))
        });
        let mut tv = Vec::new();
        let mut rv = Vec::new();
        for r in results {
            let (t, v) = r?;
            tv.push(t);
            rv.push(v);
        }
        let formed_runs = tv.iter().zip(rv.iter()).filter(|(a, b)| a.formed && b.formed).count();
        points.push(SweepPoint {
            tasks,
            tvof_payoff: aggregate_formed(&tv, |m| m.payoff_share),
            rvof_payoff: aggregate_formed(&rv, |m| m.payoff_share),
            tvof_vo_size: aggregate_formed(&tv, |m| m.vo_size as f64),
            rvof_vo_size: aggregate_formed(&rv, |m| m.vo_size as f64),
            tvof_reputation: aggregate_formed(&tv, |m| m.avg_reputation),
            rvof_reputation: aggregate_formed(&rv, |m| m.avg_reputation),
            tvof_seconds: Aggregate::of(&tv.iter().map(|m| m.seconds).collect::<Vec<_>>()),
            rvof_seconds: Aggregate::of(&rv.iter().map(|m| m.seconds).collect::<Vec<_>>()),
            formed_runs,
        });
    }
    Ok(points)
}

/// A mechanism ablation (eviction policy, reputation engine, solver):
/// each seed draws its `tasks`-task scenario once, and every mechanism
/// runs on it with a clone of the post-draw RNG, so each sees the
/// stream it would have seen had it drawn the scenario itself. Returns,
/// per mechanism, one [`RunMetrics`] per seed in seed order.
pub fn mechanism_ablation(
    cfg: &TableI,
    tasks: usize,
    experiment_tag: u64,
    seeds: &[u64],
    mechanisms: &[Mechanism],
) -> Result<Vec<Vec<RunMetrics>>> {
    let generator = ScenarioGenerator::new(cfg.clone());
    let per_seed = run_seeds(experiment_tag, seeds, |_seed, rng| {
        let scenario = generator.scenario(tasks, rng)?;
        mechanisms
            .iter()
            .map(|m| Ok(RunMetrics::from_outcome(&m.run(&scenario, &mut rng.clone())?)))
            .collect::<Result<Vec<_>>>()
    });
    let per_seed = per_seed.into_iter().collect::<Result<Vec<_>>>()?;
    Ok((0..mechanisms.len()).map(|k| per_seed.iter().map(|runs| runs[k]).collect()).collect())
}

/// One row of the incremental-engine benchmark: TVOF on the same
/// scenarios with the warm-start machinery off vs on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmColdPoint {
    /// Program size (#tasks).
    pub tasks: usize,
    /// Wall-clock seconds per run, cold (`warm_start: false`).
    pub cold_seconds: Aggregate,
    /// Wall-clock seconds per run, warm (incumbent carry-over plus
    /// power-method warm starts).
    pub warm_seconds: Aggregate,
    /// Total branch-and-bound nodes expanded across all iterations and
    /// seeds, cold.
    pub cold_nodes: u64,
    /// Same total, warm — never larger than `cold_nodes` for the
    /// sequential solver (a warm incumbent only tightens the bound).
    pub warm_nodes: u64,
    /// `cold_seconds.mean / warm_seconds.mean`.
    pub speedup: f64,
}

/// The `BENCH_formation.json` experiment: run TVOF cold and warm on the
/// *same* scenarios with the *same* eviction-RNG streams (so the traces
/// are identical — see `tests/differential_warm_cold.rs`) and compare
/// wall-clock and node counts.
pub fn warm_cold_sweep(cfg: &TableI, seeds: &[u64]) -> Result<Vec<WarmColdPoint>> {
    let generator = ScenarioGenerator::new(cfg.clone());
    let cold_cfg = FormationConfig { warm_start: false, ..paper_config(cfg) };
    let warm_cfg = FormationConfig { warm_start: true, ..paper_config(cfg) };
    let mut points = Vec::with_capacity(cfg.task_sizes.len());
    for (size_idx, &tasks) in cfg.task_sizes.iter().enumerate() {
        let results = run_seeds(0xF9C0 + size_idx as u64, seeds, |seed, rng| {
            let scenario = generator.scenario(tasks, rng)?;
            // Twin RNGs: eviction tie-breaks consume the same stream in
            // both runs, so cold and warm walk the same trace.
            let mut cold_rng = crate::runner::seeded_rng(0xF9C1, seed);
            let mut warm_rng = crate::runner::seeded_rng(0xF9C1, seed);
            let cold = Mechanism::tvof(cold_cfg).run(&scenario, &mut cold_rng)?;
            let warm = Mechanism::tvof(warm_cfg).run(&scenario, &mut warm_rng)?;
            let nodes = |o: &FormationOutcome| o.iterations.iter().map(|i| i.nodes).sum::<u64>();
            Ok::<_, SimError>((cold.total_seconds, nodes(&cold), warm.total_seconds, nodes(&warm)))
        });
        let mut cold_s = Vec::new();
        let mut warm_s = Vec::new();
        let (mut cold_nodes, mut warm_nodes) = (0u64, 0u64);
        for r in results {
            let (cs, cn, ws, wn) = r?;
            cold_s.push(cs);
            warm_s.push(ws);
            cold_nodes += cn;
            warm_nodes += wn;
        }
        let cold_seconds = Aggregate::of(&cold_s);
        let warm_seconds = Aggregate::of(&warm_s);
        let speedup =
            if warm_seconds.mean > 0.0 { cold_seconds.mean / warm_seconds.mean } else { 1.0 };
        points.push(WarmColdPoint {
            tasks,
            cold_seconds,
            warm_seconds,
            cold_nodes,
            warm_nodes,
            speedup,
        });
    }
    Ok(points)
}

/// One GSP-count point of the anytime scale frontier
/// (`BENCH_formation.json`'s `scale_frontier` section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Provider-pool size.
    pub gsps: usize,
    /// Program size (2 tasks per GSP).
    pub tasks: usize,
    /// Wall-clock seconds per budgeted formation run.
    pub seconds: Aggregate,
    /// Total branch-and-bound nodes expanded across rounds and seeds.
    pub nodes: u64,
    /// Mean relative optimality gap of the selected VO across formed
    /// runs (proven-optimal selections contribute 0).
    pub mean_gap: f64,
    /// Worst selected-VO gap across formed runs.
    pub worst_gap: f64,
    /// Runs whose trace contained at least one truncated solve.
    pub truncated_runs: usize,
    /// Runs that selected a VO.
    pub formed_runs: usize,
}

/// The anytime scale frontier: formation with the exact solver under
/// a fixed wall-clock [`Budget`] per run, swept over provider-pool
/// sizes (2 tasks per GSP).
pub fn scale_sweep(
    cfg: &TableI,
    gsp_counts: &[usize],
    budget_ms: u64,
    seeds: &[u64],
) -> Result<Vec<ScalePoint>> {
    let mut points = Vec::with_capacity(gsp_counts.len());
    for (idx, &gsps) in gsp_counts.iter().enumerate() {
        let tasks = gsps * 2;
        let scale_cfg = TableI { gsps, task_sizes: vec![tasks], ..cfg.clone() };
        let generator = ScenarioGenerator::new(scale_cfg.clone());
        let results = run_seeds(0x5CA10 + idx as u64, seeds, |seed, rng| {
            let scenario = generator.scenario(tasks, rng)?;
            // The budgeted anytime run: one wall-clock budget covers
            // the whole formation (every eviction round).
            let budget = Budget::with_deadline(Instant::now() + Duration::from_millis(budget_ms));
            Mechanism::tvof(FormationConfig::default())
                .run_cached_with_budget(
                    &scenario,
                    &mut crate::runner::seeded_rng(0x5CA11, seed),
                    &mut NoCache,
                    &budget,
                )
                .map_err(SimError::from)
        });
        let mut secs = Vec::new();
        let mut nodes = 0u64;
        let mut gaps = Vec::new();
        let (mut truncated_runs, mut formed_runs) = (0usize, 0usize);
        for r in results {
            let outcome = r?;
            secs.push(outcome.total_seconds);
            nodes += outcome.iterations.iter().map(|i| i.nodes).sum::<u64>();
            if outcome.feasible_vos.iter().any(|v| !v.optimal) {
                truncated_runs += 1;
            }
            if let Some(vo) = &outcome.selected {
                formed_runs += 1;
                gaps.push(vo.gap.unwrap_or(0.0));
            }
        }
        let mean_gap =
            if gaps.is_empty() { 0.0 } else { gaps.iter().sum::<f64>() / gaps.len() as f64 };
        let worst_gap = gaps.iter().copied().fold(0.0f64, f64::max);
        points.push(ScalePoint {
            gsps,
            tasks,
            seconds: Aggregate::of(&secs),
            nodes,
            mean_gap,
            worst_gap,
            truncated_runs,
            formed_runs,
        });
    }
    Ok(points)
}

/// One program's row in Fig. 4: the payoff share of the VO selected by
/// the paper's max-payoff rule vs the VO with the highest
/// payoff × reputation product, from the same TVOF run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectionComparison {
    /// Seed identifying the program.
    pub seed: u64,
    /// Payoff share of the max-payoff VO (the mechanism's choice).
    pub max_payoff_share: f64,
    /// Payoff share of the max-product VO.
    pub max_product_share: f64,
    /// Whether both rules picked the same VO.
    pub same_vo: bool,
}

/// Fig. 4 — per-program comparison of selection rules on `tasks`-task
/// programs (the paper uses 10 programs of 256 tasks).
pub fn selection_comparison(
    cfg: &TableI,
    tasks: usize,
    seeds: &[u64],
) -> Result<Vec<SelectionComparison>> {
    let generator = ScenarioGenerator::new(cfg.clone());
    let mech_cfg = paper_config(cfg);
    let results = run_seeds(0xF4, seeds, |seed, rng| {
        let scenario = generator.scenario(tasks, rng)?;
        let outcome = Mechanism::tvof(mech_cfg).run(&scenario, rng)?;
        let selected = outcome.selected.as_ref();
        let product = outcome.best_product_vo();
        Ok::<_, SimError>(SelectionComparison {
            seed,
            max_payoff_share: selected.map_or(0.0, |v| v.payoff_share),
            max_product_share: product.map_or(0.0, |v| v.payoff_share),
            same_vo: match (selected, product) {
                (Some(a), Some(b)) => a.members == b.members,
                _ => false,
            },
        })
    });
    results.into_iter().collect()
}

/// Figs. 5–8 — full iteration traces of TVOF and RVOF on one program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracePair {
    /// Program size.
    pub tasks: usize,
    /// Seed identifying the program.
    pub seed: u64,
    /// TVOF iterations (Figs. 5–6 data).
    pub tvof: Vec<gridvo_core::IterationRecord>,
    /// RVOF iterations (Figs. 7–8 data).
    pub rvof: Vec<gridvo_core::IterationRecord>,
}

/// Run both mechanisms on the same scenario and keep the full traces.
pub fn iteration_trace(cfg: &TableI, tasks: usize, seed: u64) -> Result<TracePair> {
    let generator = ScenarioGenerator::new(cfg.clone());
    let mech_cfg = paper_config(cfg);
    let mut rng = crate::runner::seeded_rng(0xF5678, seed);
    let scenario = generator.scenario(tasks, &mut rng)?;
    let tvof = Mechanism::tvof(mech_cfg).run(&scenario, &mut rng)?;
    let rvof = Mechanism::rvof(mech_cfg).run(&scenario, &mut rng)?;
    Ok(TracePair { tasks, seed, tvof: tvof.iterations, rvof: rvof.iterations })
}

/// One row of the fault-injection sweep: execution outcomes at one
/// fault rate, aggregated over seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepPoint {
    /// Overall per-member, per-round fault probability.
    pub fault_rate: f64,
    /// Fraction of struck faults that were recovered (not abandoned),
    /// per run with at least one fault.
    pub recovery_rate: Aggregate,
    /// Fraction of runs whose execution completed (possibly degraded).
    pub completion_rate: f64,
    /// `final_payoff_share / initial_payoff_share` per run (0 when
    /// abandoned).
    pub payoff_retention: Aggregate,
    /// Wall-clock seconds per recovery episode (recovery latency).
    pub recovery_seconds: Aggregate,
    /// Share of recoveries handled by greedy repair alone (vs. a full
    /// re-solve), across all runs.
    pub repair_fraction: f64,
    /// Runs at this rate that selected a VO (and thus executed).
    pub runs: usize,
}

/// The `BENCH_faults.json` experiment: form a VO per seed, draw a
/// seeded fault plan at each rate, execute with the repair-first
/// recovery policy, and aggregate recovery rate, payoff retention and
/// recovery latency vs. the fault rate.
pub fn fault_sweep(
    cfg: &TableI,
    tasks: usize,
    rates: &[f64],
    rounds: usize,
    seeds: &[u64],
) -> Result<Vec<FaultSweepPoint>> {
    use gridvo_core::RecoveryKind;
    let generator = ScenarioGenerator::new(cfg.clone());
    let mech_cfg = paper_config(cfg);
    let mut points = Vec::with_capacity(rates.len());
    for (rate_idx, &rate) in rates.iter().enumerate() {
        let model = crate::faults::FaultModel::with_rate(rate, rounds);
        let results = run_seeds(0xFA017 + rate_idx as u64, seeds, |_seed, rng| {
            let scenario = generator.scenario(tasks, rng)?;
            let mech = Mechanism::tvof(mech_cfg);
            let outcome = mech.run(&scenario, rng)?;
            let Some(vo) = outcome.selected else {
                return Ok::<_, SimError>(None);
            };
            let plan = model.plan(&vo.members, rng);
            let report = mech.execute(&scenario, &vo, &plan)?;
            Ok(Some(report))
        });
        let mut recovery_rates = Vec::new();
        let mut retentions = Vec::new();
        let mut latencies = Vec::new();
        let mut completed = 0usize;
        let mut runs = 0usize;
        let (mut repairs, mut recoveries) = (0usize, 0usize);
        for r in results {
            let Some(report) = r? else { continue };
            runs += 1;
            if report.completed() {
                completed += 1;
            }
            retentions.push(report.payoff_retention);
            if !report.recoveries.is_empty() {
                recovery_rates
                    .push(report.recovered_count() as f64 / report.recoveries.len() as f64);
            }
            for rec in &report.recoveries {
                latencies.push(rec.seconds);
                if rec.recovery_kind != RecoveryKind::Absorbed {
                    recoveries += 1;
                    if rec.recovery_kind == RecoveryKind::Repair {
                        repairs += 1;
                    }
                }
            }
        }
        points.push(FaultSweepPoint {
            fault_rate: rate,
            recovery_rate: Aggregate::of(&recovery_rates),
            completion_rate: if runs > 0 { completed as f64 / runs as f64 } else { 0.0 },
            payoff_retention: Aggregate::of(&retentions),
            recovery_seconds: Aggregate::of(&latencies),
            repair_fraction: if recoveries > 0 { repairs as f64 / recoveries as f64 } else { 0.0 },
            runs,
        });
    }
    Ok(points)
}

/// One row of the adversary-economics sweep (`BENCH_reputation.json`):
/// attacker outcomes under one reputation-attack strategy, aggregated
/// over seeds. The `honest` row is the baseline — the same attacker
/// ids playing honestly at honest reliability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReputationPoint {
    /// Strategy name (`honest`, `whitewash`, `oscillate`,
    /// `badmouth-ring`).
    pub strategy: String,
    /// Late-window selection rate per attacker GSP.
    pub attacker_selection: Aggregate,
    /// Late-window mean per-round payoff per attacker GSP.
    pub attacker_payoff: Aggregate,
    /// Attackers' share of all payoff distributed in the late window.
    pub attacker_payoff_share: Aggregate,
    /// Late-window selection rate per honest GSP (the bystanders).
    pub honest_selection: Aggregate,
    /// Late-window mean per-round payoff per honest GSP.
    pub honest_payoff: Aggregate,
    /// Simulated rounds per run.
    pub rounds: usize,
}

/// The `BENCH_reputation.json` experiment: a small federation with
/// two designated attackers runs `rounds` of receipt-driven dynamic
/// formation under each attack strategy (plus the honest baseline).
/// Metrics are taken from the late half of the horizon, after the
/// reputation loop has had time to react.
pub fn reputation_sweep(rounds: usize, seeds: &[u64]) -> Result<Vec<ReputationPoint>> {
    use crate::adversary::{mean_payoff, selection_rate, AdversaryKind, BetaDynamics};
    use crate::dynamic::{simulate, DynamicConfig};

    const ATTACKERS: [usize; 2] = [4, 5];
    const HONEST: [usize; 4] = [0, 1, 2, 3];
    let table = TableI {
        gsps: 6,
        task_sizes: vec![18],
        trace_jobs: 1_500,
        deadline_factor_range: (4.0, 16.0),
        ..TableI::default()
    };
    let strategies: [(&str, AdversaryKind, f64); 4] = [
        ("honest", AdversaryKind::Honest, 0.95),
        ("whitewash", AdversaryKind::Whitewash { period: 4 }, 0.3),
        ("oscillate", AdversaryKind::Oscillate { period: 4 }, 0.95),
        ("badmouth-ring", AdversaryKind::BadmouthRing, 0.3),
    ];

    let mut points = Vec::with_capacity(strategies.len());
    for (idx, (name, kind, attacker_reliability)) in strategies.into_iter().enumerate() {
        let results = run_seeds(0xBE7A + idx as u64, seeds, |_seed, rng| {
            let mut reliabilities = vec![0.98, 0.95, 0.95, 0.95, 0.0, 0.0];
            for &a in &ATTACKERS {
                reliabilities[a] = attacker_reliability;
            }
            let mut cfg = DynamicConfig::new(table.clone(), rounds, 18, reliabilities);
            cfg.beta = Some(BetaDynamics::attack(ATTACKERS.to_vec(), kind));
            simulate(&cfg, Mechanism::tvof(paper_config(&table)), rng)
        });
        let mut attacker_sel = Vec::new();
        let mut attacker_pay = Vec::new();
        let mut attacker_share = Vec::new();
        let mut honest_sel = Vec::new();
        let mut honest_pay = Vec::new();
        for records in results {
            let records = records?;
            let late = &records[rounds / 2..];
            for &g in &ATTACKERS {
                attacker_sel.push(selection_rate(late, g));
                attacker_pay.push(mean_payoff(late, g));
            }
            for &g in &HONEST {
                honest_sel.push(selection_rate(late, g));
                honest_pay.push(mean_payoff(late, g));
            }
            let total: f64 = late.iter().map(|r| r.payoff_share * r.members.len() as f64).sum();
            let attackers_total: f64 = late
                .iter()
                .map(|r| {
                    r.payoff_share
                        * r.members.iter().filter(|g| ATTACKERS.contains(g)).count() as f64
                })
                .sum();
            attacker_share.push(if total > 0.0 { attackers_total / total } else { 0.0 });
        }
        points.push(ReputationPoint {
            strategy: name.to_string(),
            attacker_selection: Aggregate::of(&attacker_sel),
            attacker_payoff: Aggregate::of(&attacker_pay),
            attacker_payoff_share: Aggregate::of(&attacker_share),
            honest_selection: Aggregate::of(&honest_sel),
            honest_payoff: Aggregate::of(&honest_pay),
            rounds,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> TableI {
        TableI {
            task_sizes: vec![12, 18],
            gsps: 4,
            trace_jobs: 1500,
            // small programs need a looser deadline than the paper's
            // n/1000 scaling provides (see instance_gen calibration)
            deadline_factor_range: (4.0, 16.0),
            ..TableI::small()
        }
    }

    #[test]
    fn mechanism_ablation_matches_one_draw_per_variant() {
        use gridvo_core::mechanism::EvictionPolicy;
        let cfg = TableI::small();
        let tasks = cfg.task_sizes[0];
        let seeds = [3, 4];
        let mech_cfg = paper_config(&cfg);
        // RVOF draws its evictions from the RNG, so it sees whether each
        // variant gets the post-draw stream.
        let mechanisms = [
            Mechanism::tvof(mech_cfg),
            Mechanism::rvof(mech_cfg),
            Mechanism::with_eviction(EvictionPolicy::HighestCost, mech_cfg),
        ];
        let shared = mechanism_ablation(&cfg, tasks, 0xAB1A, &seeds, &mechanisms).unwrap();
        // The serial reference: every variant redraws its own scenario.
        let generator = ScenarioGenerator::new(cfg.clone());
        let reference: Vec<Vec<RunMetrics>> = mechanisms
            .iter()
            .map(|m| {
                seeds
                    .iter()
                    .map(|&seed| {
                        let mut rng = crate::runner::seeded_rng(0xAB1A, seed);
                        let scenario = generator.scenario(tasks, &mut rng).unwrap();
                        RunMetrics::from_outcome(&m.run(&scenario, &mut rng).unwrap())
                    })
                    .collect()
            })
            .collect();
        // Everything but the wall clock must agree.
        let untimed = |runs: &[Vec<RunMetrics>]| -> Vec<Vec<RunMetrics>> {
            runs.iter()
                .map(|r| r.iter().map(|m| RunMetrics { seconds: 0.0, ..*m }).collect())
                .collect()
        };
        assert_eq!(untimed(&shared), untimed(&reference));
        assert!(shared.iter().flatten().any(|m| m.formed));
    }

    #[test]
    fn task_sweep_produces_one_point_per_size() {
        let cfg = tiny_cfg();
        let points = task_sweep(&cfg, &[1, 2, 3]).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].tasks, 12);
        assert_eq!(points[1].tasks, 18);
        for p in &points {
            assert!(p.formed_runs > 0, "no VO formed at size {}", p.tasks);
            assert!(p.tvof_payoff.mean > 0.0);
            assert!(p.rvof_payoff.mean > 0.0);
            // Fig. 2 sanity: VO sizes within [1, m]
            assert!(p.tvof_vo_size.mean >= 1.0 && p.tvof_vo_size.mean <= 4.0);
        }
    }

    #[test]
    fn fig3_shape_tvof_reputation_at_least_rvof() {
        // The paper's headline qualitative claim. With few seeds this
        // is noisy, so assert on the sum across sizes rather than
        // pointwise.
        let cfg = tiny_cfg();
        let points = task_sweep(&cfg, &[1, 2, 3, 4, 5, 6]).unwrap();
        let tv: f64 = points.iter().map(|p| p.tvof_reputation.mean).sum();
        let rv: f64 = points.iter().map(|p| p.rvof_reputation.mean).sum();
        assert!(tv >= rv - 1e-9, "TVOF mean reputation {tv} fell below RVOF {rv} across the sweep");
    }

    #[test]
    fn selection_comparison_has_one_row_per_seed() {
        let cfg = tiny_cfg();
        let rows = selection_comparison(&cfg, 12, &[1, 2, 3, 4]).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            // the product VO's payoff can never exceed the max-payoff VO's
            assert!(r.max_product_share <= r.max_payoff_share + 1e-9);
        }
    }

    #[test]
    fn iteration_trace_has_both_mechanisms() {
        let cfg = tiny_cfg();
        let t = iteration_trace(&cfg, 12, 1).unwrap();
        assert!(!t.tvof.is_empty());
        assert!(!t.rvof.is_empty());
        // iteration 0 is the grand coalition in both
        assert_eq!(t.tvof[0].members.len(), 4);
        assert_eq!(t.rvof[0].members.len(), 4);
        // TVOF trace sizes strictly decrease
        for w in t.tvof.windows(2) {
            assert_eq!(w[1].members.len() + 1, w[0].members.len());
        }
    }

    #[test]
    fn warm_cold_sweep_warm_never_expands_more_nodes() {
        let cfg = tiny_cfg();
        let points = warm_cold_sweep(&cfg, &[1, 2, 3]).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(
                p.warm_nodes <= p.cold_nodes,
                "size {}: warm {} nodes vs cold {}",
                p.tasks,
                p.warm_nodes,
                p.cold_nodes
            );
            assert!(p.cold_seconds.mean >= 0.0 && p.warm_seconds.mean >= 0.0);
            assert!(p.speedup.is_finite() && p.speedup > 0.0);
        }
    }

    #[test]
    fn fault_sweep_zero_rate_is_lossless_and_rates_degrade() {
        let cfg = tiny_cfg();
        let points = fault_sweep(&cfg, 12, &[0.0, 0.6], 3, &[1, 2, 3, 4]).unwrap();
        assert_eq!(points.len(), 2);
        let clean = &points[0];
        assert!(clean.runs > 0);
        assert_eq!(clean.completion_rate, 1.0, "no faults → every execution completes");
        assert!(
            (clean.payoff_retention.mean - 1.0).abs() < 1e-12,
            "no faults → full payoff retention, got {}",
            clean.payoff_retention.mean
        );
        let faulty = &points[1];
        assert!(
            faulty.payoff_retention.mean <= clean.payoff_retention.mean + 1e-9,
            "faults cannot increase retention"
        );
        for p in &points {
            assert!(p.completion_rate >= 0.0 && p.completion_rate <= 1.0);
            assert!(p.repair_fraction >= 0.0 && p.repair_fraction <= 1.0);
        }
    }

    #[test]
    fn fault_sweep_is_deterministic() {
        let cfg = tiny_cfg();
        let a = fault_sweep(&cfg, 12, &[0.3], 3, &[1, 2]).unwrap();
        let b = fault_sweep(&cfg, 12, &[0.3], 3, &[1, 2]).unwrap();
        assert_eq!(a[0].fault_rate, b[0].fault_rate);
        assert_eq!(a[0].runs, b[0].runs);
        assert_eq!(a[0].completion_rate, b[0].completion_rate);
        assert_eq!(a[0].payoff_retention, b[0].payoff_retention);
    }

    #[test]
    fn reputation_sweep_has_baseline_and_is_deterministic() {
        let a = reputation_sweep(6, &[1, 2]).unwrap();
        let b = reputation_sweep(6, &[1, 2]).unwrap();
        assert_eq!(a, b, "sweep must be deterministic under fixed seeds");
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].strategy, "honest");
        for p in &a {
            assert!(p.attacker_selection.mean >= 0.0 && p.attacker_selection.mean <= 1.0);
            assert!(p.attacker_payoff_share.mean >= 0.0 && p.attacker_payoff_share.mean <= 1.0);
            assert_eq!(p.rounds, 6);
        }
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let cfg = tiny_cfg();
        let a = iteration_trace(&cfg, 12, 5).unwrap();
        let b = iteration_trace(&cfg, 12, 5).unwrap();
        assert_eq!(a.tvof.len(), b.tvof.len());
        for (x, y) in a.tvof.iter().zip(b.tvof.iter()) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.evicted, y.evicted);
        }
    }
}
