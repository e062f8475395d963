//! Dynamic VO formation across rounds — the "dynamic" of the paper's
//! title, made operational.
//!
//! The ICPP 2012 evaluation forms one VO per program with a *given*
//! trust graph. This module closes the loop the paper's model implies:
//!
//! 1. each GSP has a hidden **reliability** — the probability it
//!    actually delivers the resources it promised (§I: "a GSP agrees
//!    to provide some resources, but it fails to deliver");
//! 2. programs arrive in rounds; the current trust graph is
//!    materialized from the **interaction ledger** (optionally with
//!    Azzedin–Maheswaran decay, to reproduce the freeze critique);
//! 3. the mechanism forms a VO and the program runs: every member
//!    delivers or fails according to its reliability, every member
//!    observes every other member, and the observations are appended
//!    to the ledger;
//! 4. the next round's trust — and hence reputation — reflects the
//!    accumulated evidence.
//!
//! The headline dynamic claim: under TVOF the mean reliability of
//! selected VO members **rises over rounds** (the mechanism learns to
//! exclude unreliable GSPs through reputation), while RVOF shows no
//! such drift. [`simulate`] produces the per-round records behind that
//! comparison; `gridvo-bench`'s `dynamic_rounds` binary renders it.

use crate::adversary::BetaDynamics;
use crate::config::TableI;
use crate::faults::FaultModel;
use crate::instance_gen::ScenarioGenerator;
use crate::Result;
use gridvo_core::mechanism::Mechanism;
use gridvo_core::ExecutionReceipt;
use gridvo_trust::beta::BetaLedger;
use gridvo_trust::decay::{DecayModel, InteractionLedger, Outcome};
use gridvo_trust::TrustGraph;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a multi-round dynamic simulation.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Static Table-I parameters (GSP count, cost model, …).
    pub table: TableI,
    /// Number of programs (rounds) to simulate.
    pub rounds: usize,
    /// Tasks per program.
    pub tasks: usize,
    /// Hidden per-GSP delivery probability, indexed by GSP id; length
    /// must equal `table.gsps`.
    pub reliabilities: Vec<f64>,
    /// Trust evidence model (half-life = ∞ reproduces the paper's
    /// non-decaying trust).
    pub decay: DecayModel,
    /// Simulated seconds between program arrivals.
    pub round_interval: f64,
    /// Bootstrap interactions: each ordered GSP pair starts with one
    /// `Delivered` observation with this probability (an ER-style
    /// prior so round 0 is not trust-blind).
    pub bootstrap_p: f64,
    /// Execution-time fault injection: when set, every selected VO is
    /// run against a seeded [`FaultPlan`](gridvo_core::FaultPlan) drawn
    /// from this model and recovered via the repair-first policy.
    /// `None` (the default) adds no RNG draws, so existing seeded runs
    /// replay byte-identically.
    pub faults: Option<FaultModel>,
    /// Receipt-driven Beta reputation: when set, per-round trust is
    /// the earned-trust graph of a [`BetaLedger`] fed by execution
    /// receipts (and adversarial lies, if configured) instead of the
    /// decayed interaction ledger. `None` (the default) adds no RNG
    /// draws and leaves the classic path byte-identical.
    pub beta: Option<BetaDynamics>,
}

impl DynamicConfig {
    /// A defaulted configuration over `table` with uniform-random
    /// reliabilities supplied by the caller.
    pub fn new(table: TableI, rounds: usize, tasks: usize, reliabilities: Vec<f64>) -> Self {
        DynamicConfig {
            table,
            rounds,
            tasks,
            reliabilities,
            decay: DecayModel::default(),
            round_interval: 6.0 * 3600.0,
            bootstrap_p: 0.1,
            faults: None,
            beta: None,
        }
    }
}

/// What happened in one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Members of the selected VO (empty when no VO formed).
    pub members: Vec<usize>,
    /// Mean hidden reliability of the members (the learning signal —
    /// the mechanism never observes this directly).
    pub mean_reliability: f64,
    /// Whether every member delivered (program succeeded).
    pub delivered: bool,
    /// Members that failed to deliver this round.
    pub failed_members: Vec<usize>,
    /// Payoff share the members would earn (0 when no VO or failed).
    pub payoff_share: f64,
    /// Total trust mass in the ledger-derived graph at formation time.
    pub trust_mass: f64,
    /// Fault events scheduled against this round's VO (0 when fault
    /// injection is off).
    pub fault_events: usize,
    /// Fault-recovery episodes execution went through.
    pub recoveries: usize,
    /// Whether execution abandoned the VO (an unrecoverable fault).
    pub abandoned: bool,
}

/// Run a dynamic simulation under the given mechanism.
///
/// Returns one record per round. Determinism: everything is drawn
/// from `rng`, so a seeded RNG reproduces the run exactly.
pub fn simulate<R: Rng + ?Sized>(
    cfg: &DynamicConfig,
    mechanism: Mechanism,
    rng: &mut R,
) -> Result<Vec<RoundRecord>> {
    let m = cfg.table.gsps;
    assert_eq!(
        cfg.reliabilities.len(),
        m,
        "one reliability per GSP ({} GSPs, {} reliabilities)",
        m,
        cfg.reliabilities.len()
    );
    let generator = ScenarioGenerator::new(cfg.table.clone());
    let mut ledger = InteractionLedger::new(m);
    let mut beta_ledger = cfg.beta.as_ref().map(|bd| BetaLedger::new(m, bd.lambda));

    // Bootstrap prior: sparse positive history, ER-style. The Beta
    // ledger reuses the *same* draws (one weight-1 success per seeded
    // pair), so enabling it changes no RNG stream.
    for i in 0..m {
        for j in 0..m {
            if i != j && rng.gen::<f64>() < cfg.bootstrap_p {
                ledger.record(i, j, 0.0, Outcome::Delivered);
                if let Some(bl) = &mut beta_ledger {
                    bl.observe_weighted(i, j, 1.0, true)?;
                }
            }
        }
    }

    let mut records = Vec::with_capacity(cfg.rounds);
    for round in 0..cfg.rounds {
        let now = (round as f64 + 1.0) * cfg.round_interval;
        // Whitewashers shed their identity before the round forms:
        // every Beta edge touching them (earned distrust included)
        // reverts to the prior.
        if let (Some(bd), Some(bl)) = (&cfg.beta, &mut beta_ledger) {
            for &attacker in &bd.attackers {
                if bd.whitewashes_at(attacker, round) {
                    bl.forget(attacker)?;
                }
            }
        }
        let trust = match &beta_ledger {
            Some(bl) => bl.apply_to(&TrustGraph::new(m))?,
            None => cfg.decay.trust_at(&ledger, now),
        };
        let trust_mass = (0..m).map(|i| trust.out_trust_sum(i)).sum();

        // Fresh economics each round (new program, new prices), the
        // evolving part is the trust graph.
        let mut scenario = generator.scenario(cfg.tasks, rng)?;
        scenario.replace_trust(trust)?;

        let outcome = mechanism.run(&scenario, rng)?;
        let record = match outcome.selected {
            Some(vo) => {
                let mean_reliability =
                    vo.members.iter().map(|&g| cfg.reliabilities[g]).sum::<f64>()
                        / vo.members.len() as f64;
                // The program executes: members deliver or fail.
                // Oscillating defectors override their configured
                // reliability by phase; the draw count is unchanged.
                let mut failed = Vec::new();
                for &g in &vo.members {
                    let reliability = match &cfg.beta {
                        Some(bd) => bd.effective_reliability(g, round, cfg.reliabilities[g]),
                        None => cfg.reliabilities[g],
                    };
                    if rng.gen::<f64>() >= reliability {
                        failed.push(g);
                    }
                }
                // Injected faults: run the VO against a seeded plan
                // and recover; members that execution had to evict
                // count as failures in the other members' eyes.
                let (fault_events, recoveries, abandoned, exec_payoff) = match &cfg.faults {
                    Some(model) => {
                        let plan = model.plan(&vo.members, rng);
                        let report = mechanism.execute(&scenario, &vo, &plan)?;
                        for &g in &vo.members {
                            if !report.final_members.contains(&g) && !failed.contains(&g) {
                                failed.push(g);
                            }
                        }
                        let abandoned = !report.completed();
                        (plan.len(), report.recoveries.len(), abandoned, report.final_payoff_share)
                    }
                    None => (0, 0, false, vo.payoff_share),
                };
                // Every member observes every other member. In beta
                // mode the observations travel as execution receipts:
                // one receipt per subject, witnessed by the co-members
                // whose report matches the truthful outcome. Liars
                // (badmouth-ring raters) cannot forge a receipt's
                // signed content, so their reports land as plain
                // subjective ratings on their own edges instead.
                match (&cfg.beta, &mut beta_ledger) {
                    (Some(bd), Some(bl)) => {
                        let reward = exec_payoff.max(0.0);
                        for &g in &vo.members {
                            let truthful = !failed.contains(&g);
                            let mut witnesses = Vec::new();
                            let mut liars = Vec::new();
                            for &w in &vo.members {
                                if w == g {
                                    continue;
                                }
                                if bd.reported_outcome(w, g, truthful) == truthful {
                                    witnesses.push(w);
                                } else {
                                    liars.push(w);
                                }
                            }
                            if !witnesses.is_empty() {
                                let receipt =
                                    ExecutionReceipt::new(round, g, truthful, reward, witnesses);
                                receipt.fold_into(bl)?;
                            }
                            for w in liars {
                                bl.observe(w, g, reward, !truthful)?;
                            }
                        }
                    }
                    _ => {
                        for &rater in &vo.members {
                            for &ratee in &vo.members {
                                if rater != ratee {
                                    let outcome = if failed.contains(&ratee) {
                                        Outcome::Failed
                                    } else {
                                        Outcome::Delivered
                                    };
                                    ledger.record(rater, ratee, now, outcome);
                                }
                            }
                        }
                    }
                }
                let delivered = failed.is_empty() && !abandoned;
                RoundRecord {
                    round,
                    mean_reliability,
                    delivered,
                    payoff_share: if delivered { exec_payoff } else { 0.0 },
                    failed_members: failed,
                    members: vo.members,
                    trust_mass,
                    fault_events,
                    recoveries,
                    abandoned,
                }
            }
            None => RoundRecord {
                round,
                members: Vec::new(),
                mean_reliability: 0.0,
                delivered: false,
                failed_members: Vec::new(),
                payoff_share: 0.0,
                trust_mass,
                fault_events: 0,
                recoveries: 0,
                abandoned: false,
            },
        };
        records.push(record);
    }
    Ok(records)
}

/// Mean member reliability over a window of rounds (skipping rounds
/// where no VO formed).
pub fn mean_reliability(records: &[RoundRecord]) -> f64 {
    let formed: Vec<f64> =
        records.iter().filter(|r| !r.members.is_empty()).map(|r| r.mean_reliability).collect();
    if formed.is_empty() {
        0.0
    } else {
        formed.iter().sum::<f64>() / formed.len() as f64
    }
}

/// Fraction of rounds whose program was fully delivered.
pub fn success_rate(records: &[RoundRecord]) -> f64 {
    if records.is_empty() {
        0.0
    } else {
        records.iter().filter(|r| r.delivered).count() as f64 / records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvo_core::mechanism::FormationConfig;
    use rand::SeedableRng;

    type TestRng = rand::rngs::StdRng;

    fn cfg(rounds: usize) -> DynamicConfig {
        let table = TableI {
            gsps: 6,
            task_sizes: vec![18],
            trace_jobs: 1_500,
            deadline_factor_range: (4.0, 16.0),
            ..TableI::default()
        };
        // GSPs 4 and 5 are chronically unreliable.
        let reliabilities = vec![0.98, 0.95, 0.95, 0.9, 0.35, 0.25];
        DynamicConfig::new(table, rounds, 18, reliabilities)
    }

    #[test]
    fn records_one_per_round_and_ledger_grows() {
        let c = cfg(6);
        let mut rng = TestRng::seed_from_u64(1);
        let records = simulate(&c, Mechanism::tvof(FormationConfig::default()), &mut rng).unwrap();
        assert_eq!(records.len(), 6);
        for r in &records {
            assert!(r.mean_reliability <= 1.0);
            assert!(r.trust_mass >= 0.0);
        }
        // trust mass grows as interactions accumulate (no decay)
        assert!(
            records.last().unwrap().trust_mass > records[0].trust_mass,
            "ledger evidence must accumulate"
        );
    }

    #[test]
    fn tvof_learns_to_avoid_unreliable_gsps() {
        // Average the learning signal across seeds: late-window mean
        // member reliability under TVOF must beat the early window.
        let c = cfg(14);
        let mut early_sum = 0.0;
        let mut late_sum = 0.0;
        let seeds = 6;
        for seed in 0..seeds {
            let mut rng = TestRng::seed_from_u64(seed);
            let records =
                simulate(&c, Mechanism::tvof(FormationConfig::default()), &mut rng).unwrap();
            early_sum += mean_reliability(&records[..4]);
            late_sum += mean_reliability(&records[10..]);
        }
        assert!(
            late_sum >= early_sum - 0.02 * seeds as f64,
            "TVOF failed to learn: early {early_sum} vs late {late_sum}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let c = cfg(4);
        let run = |seed| {
            let mut rng = TestRng::seed_from_u64(seed);
            simulate(&c, Mechanism::tvof(FormationConfig::default()), &mut rng).unwrap()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn helpers_on_empty_and_failed_rounds() {
        assert_eq!(mean_reliability(&[]), 0.0);
        assert_eq!(success_rate(&[]), 0.0);
        let r = RoundRecord {
            round: 0,
            members: vec![],
            mean_reliability: 0.0,
            delivered: false,
            failed_members: vec![],
            payoff_share: 0.0,
            trust_mass: 0.0,
            fault_events: 0,
            recoveries: 0,
            abandoned: false,
        };
        assert_eq!(mean_reliability(std::slice::from_ref(&r)), 0.0);
        assert_eq!(success_rate(&[r]), 0.0);
    }

    #[test]
    fn fault_injection_is_deterministic_and_produces_telemetry() {
        let mut c = cfg(6);
        c.faults = Some(FaultModel::with_rate(0.3, 3));
        let run = |seed| {
            let mut rng = TestRng::seed_from_u64(seed);
            simulate(&c, Mechanism::tvof(FormationConfig::default()), &mut rng).unwrap()
        };
        let a = run(5);
        assert_eq!(a, run(5));
        assert!(
            a.iter().any(|r| r.fault_events > 0),
            "rate 0.3 over 3 rounds × several members should schedule at least one fault"
        );
        for r in &a {
            assert!(r.recoveries <= r.fault_events);
            if r.abandoned {
                assert!(!r.delivered, "abandoned programs are not delivered");
                assert_eq!(r.payoff_share, 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one reliability per GSP")]
    fn reliability_length_mismatch_panics() {
        let mut c = cfg(2);
        c.reliabilities.pop();
        let mut rng = TestRng::seed_from_u64(0);
        let _ = simulate(&c, Mechanism::tvof(FormationConfig::default()), &mut rng);
    }
}
