//! Adversarial scenario suite for the receipt-driven reputation loop.
//!
//! The economic claim under test: once trust is *earned* from
//! execution receipts (Beta posterior, λ-discounted) instead of
//! declared, the classic reputation attacks stop paying. For each
//! attack we run the same dynamic simulation twice — attackers
//! playing the attack vs the same ids playing honest — and require
//! that, within the simulated horizon, attacking leaves the attackers
//! with a *lower* selection rate and payoff share than honesty would
//! have, while the honest population keeps getting selected.

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_sim::adversary::{mean_payoff, selection_rate, AdversaryKind, BetaDynamics};
use gridvo_sim::config::TableI;
use gridvo_sim::dynamic::{simulate, DynamicConfig, RoundRecord};
use rand::SeedableRng;

type TestRng = rand::rngs::StdRng;

const ROUNDS: usize = 16;
/// The attack must have collapsed by this round (the "K" of the
/// acceptance criterion); metrics below are taken from `K..ROUNDS`.
const K: usize = 8;
const ATTACKERS: [usize; 2] = [4, 5];
const HONEST: [usize; 4] = [0, 1, 2, 3];
const SEEDS: u64 = 4;

fn table() -> TableI {
    TableI {
        gsps: 6,
        task_sizes: vec![18],
        trace_jobs: 1_500,
        deadline_factor_range: (4.0, 16.0),
        ..TableI::default()
    }
}

/// One dynamic run: honest GSPs at ~0.95 reliability, attackers at
/// `attacker_reliability`, everyone's trust earned from receipts.
fn run(kind: AdversaryKind, attacker_reliability: f64, seed: u64) -> Vec<RoundRecord> {
    let mut reliabilities = vec![0.98, 0.95, 0.95, 0.95, 0.0, 0.0];
    for &a in &ATTACKERS {
        reliabilities[a] = attacker_reliability;
    }
    let mut cfg = DynamicConfig::new(table(), ROUNDS, 18, reliabilities);
    cfg.beta = Some(BetaDynamics::attack(ATTACKERS.to_vec(), kind));
    let mut rng = TestRng::seed_from_u64(seed);
    simulate(&cfg, Mechanism::tvof(FormationConfig::default()), &mut rng)
        .expect("dynamic simulation runs")
}

/// Mean over GSPs in `ids` of `f(records, gsp)`, averaged over seeds.
fn averaged(
    kind: AdversaryKind,
    attacker_reliability: f64,
    ids: &[usize],
    f: fn(&[RoundRecord], usize) -> f64,
) -> f64 {
    let mut total = 0.0;
    for seed in 0..SEEDS {
        let records = run(kind, attacker_reliability, seed);
        let late = &records[K..];
        total += ids.iter().map(|&g| f(late, g)).sum::<f64>() / ids.len() as f64;
    }
    total / SEEDS as f64
}

/// Asserts the collapse criterion for one attack: attackers end up
/// worse off than the same ids playing honest, and honest GSPs keep
/// participating.
fn assert_attack_does_not_pay(kind: AdversaryKind, attacker_reliability: f64, label: &str) {
    let attack_selection = averaged(kind, attacker_reliability, &ATTACKERS, selection_rate);
    let attack_payoff = averaged(kind, attacker_reliability, &ATTACKERS, mean_payoff);
    let honest_selection = averaged(AdversaryKind::Honest, 0.95, &ATTACKERS, selection_rate);
    let honest_payoff = averaged(AdversaryKind::Honest, 0.95, &ATTACKERS, mean_payoff);

    assert!(
        attack_selection < honest_selection,
        "{label}: attacker selection rate {attack_selection:.3} did not drop below the honest \
         baseline {honest_selection:.3} after round {K}"
    );
    assert!(
        attack_payoff < honest_payoff,
        "{label}: attacker payoff {attack_payoff:.3} did not drop below the honest baseline \
         {honest_payoff:.3} after round {K}"
    );

    // The attack must not take the honest population down with it:
    // honest GSPs keep a clearly higher selection rate than the
    // attackers under the same run, and stay in the same participation
    // band as a fully honest world.
    let bystander_selection = averaged(kind, attacker_reliability, &HONEST, selection_rate);
    let baseline_bystander = averaged(AdversaryKind::Honest, 0.95, &HONEST, selection_rate);
    assert!(
        bystander_selection > attack_selection,
        "{label}: honest GSPs ({bystander_selection:.3}) should outpace attackers \
         ({attack_selection:.3})"
    );
    assert!(
        bystander_selection >= 0.7 * baseline_bystander,
        "{label}: the attack collapsed honest participation \
         ({bystander_selection:.3} vs honest-world {baseline_bystander:.3})"
    );
}

#[test]
fn whitewashing_does_not_pay() {
    // Unreliable GSPs that shed their identity every 4 rounds: the
    // clean slate erases their bad record, but it erases their earned
    // standing too — they never out-earn the honest play.
    assert_attack_does_not_pay(AdversaryKind::Whitewash { period: 4 }, 0.3, "whitewash");
}

#[test]
fn oscillating_defection_does_not_pay() {
    // Alternate 4 honest rounds with 4 defecting rounds; the λ
    // discount makes fresh failures outweigh stale successes.
    assert_attack_does_not_pay(AdversaryKind::Oscillate { period: 4 }, 0.95, "oscillate");
}

#[test]
fn badmouthing_ring_does_not_pay() {
    // A colluding pair praises itself and smears every honest
    // co-member, while actually delivering at 0.3.
    assert_attack_does_not_pay(AdversaryKind::BadmouthRing, 0.3, "badmouth-ring");
}

#[test]
fn adversarial_runs_are_deterministic_per_seed() {
    for kind in [
        AdversaryKind::Honest,
        AdversaryKind::Whitewash { period: 4 },
        AdversaryKind::Oscillate { period: 4 },
        AdversaryKind::BadmouthRing,
    ] {
        let a = run(kind, 0.3, 11);
        let b = run(kind, 0.3, 11);
        assert_eq!(a, b, "{kind:?} must replay byte-identically under one seed");
    }
}
