//! Dynamic VO formation across rounds — the "dynamic" of the paper's
//! title, made operational.
//!
//! The ICPP 2012 evaluation forms one VO per program with a *given*
//! trust graph. This module closes the loop the paper's model implies:
//!
//! 1. each GSP has a hidden **reliability** — the probability it
//!    actually delivers the resources it promised (§I: "a GSP agrees
//!    to provide some resources, but it fails to deliver");
//! 2. programs arrive in rounds; the current trust graph holds an edge
//!    `i → j` of weight `n` wherever `i` has seen `j` deliver `n` more
//!    times than fail (undecayed, as the paper advocates);
//! 3. the mechanism forms a VO and the program runs: every member
//!    delivers or fails according to its reliability, every member
//!    observes every other member, and each observation moves the
//!    observer's net count by ±1;
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
use crate::instance_gen::ScenarioGenerator;
use crate::Result;
use gridvo_core::mechanism::Mechanism;
use gridvo_core::ExecutionReceipt;
use gridvo_trust::beta::{BetaLedger, DEFAULT_LAMBDA};
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
    /// Receipt-driven Beta reputation: when set, per-round trust is
    /// the earned-trust graph of a [`BetaLedger`] fed by execution
    /// receipts (and adversarial lies, if configured) instead of the
    /// net delivery counts. `None` (the default) adds no RNG draws and
    /// leaves the classic path byte-identical.
    pub beta: Option<BetaDynamics>,
}

/// Bootstrap prior: each ordered GSP pair starts with one delivered
/// observation with this probability (ER-style, so round 0 is not
/// trust-blind).
const BOOTSTRAP_P: f64 = 0.1;

impl DynamicConfig {
    /// Classic (net delivery count) trust over `table`, with the
    /// caller's hidden reliabilities.
    pub fn new(table: TableI, rounds: usize, tasks: usize, reliabilities: Vec<f64>) -> Self {
        DynamicConfig { table, rounds, tasks, reliabilities, beta: None }
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
    // Classic trust evidence: delivered minus failed observations per
    // ordered pair, row-major.
    let mut net = vec![0i64; m * m];
    let mut beta_ledger = cfg.beta.as_ref().map(|_| BetaLedger::new(m, DEFAULT_LAMBDA));

    // Bootstrap prior: sparse positive history, ER-style. The Beta
    // ledger reuses the *same* draws (one weight-1 success per seeded
    // pair), so enabling it changes no RNG stream.
    for i in 0..m {
        for j in 0..m {
            if i != j && rng.gen::<f64>() < BOOTSTRAP_P {
                net[i * m + j] += 1;
                if let Some(bl) = &mut beta_ledger {
                    bl.observe_weighted(i, j, 1.0, true)?;
                }
            }
        }
    }

    let mut records = Vec::with_capacity(cfg.rounds);
    for round in 0..cfg.rounds {
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
            None => net_trust(&net, m),
        };

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
                // Every member observes every other member. In beta
                // mode the observations travel as execution receipts:
                // one receipt per subject, witnessed by the co-members
                // whose report matches the truthful outcome. Liars
                // (badmouth-ring raters) cannot forge a receipt's
                // signed content, so their reports land as plain
                // subjective ratings on their own edges instead.
                match (&cfg.beta, &mut beta_ledger) {
                    (Some(bd), Some(bl)) => {
                        let reward = vo.payoff_share.max(0.0);
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
                                    net[rater * m + ratee] +=
                                        if failed.contains(&ratee) { -1 } else { 1 };
                                }
                            }
                        }
                    }
                }
                let delivered = failed.is_empty();
                RoundRecord {
                    round,
                    mean_reliability,
                    delivered,
                    payoff_share: if delivered { vo.payoff_share } else { 0.0 },
                    failed_members: failed,
                    members: vo.members,
                }
            }
            None => RoundRecord {
                round,
                members: Vec::new(),
                mean_reliability: 0.0,
                delivered: false,
                failed_members: Vec::new(),
                payoff_share: 0.0,
            },
        };
        records.push(record);
    }
    Ok(records)
}

/// The classic trust graph: an edge `i → j` weighted by `i`'s net
/// count of `j`'s deliveries over its failures, where that is positive.
fn net_trust(net: &[i64], m: usize) -> TrustGraph {
    let mut g = TrustGraph::new(m);
    for i in 0..m {
        for j in 0..m {
            if net[i * m + j] > 0 {
                g.set_trust(i, j, net[i * m + j] as f64);
            }
        }
    }
    g
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
    fn records_one_per_round() {
        let c = cfg(6);
        let mut rng = TestRng::seed_from_u64(1);
        let records = simulate(&c, Mechanism::tvof(FormationConfig::default()), &mut rng).unwrap();
        assert_eq!(records.len(), 6);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.round, i);
            assert!(r.mean_reliability <= 1.0);
        }
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
        };
        assert_eq!(mean_reliability(std::slice::from_ref(&r)), 0.0);
        assert_eq!(success_rate(&[r]), 0.0);
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
