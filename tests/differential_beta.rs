//! Differential and property harness for the receipt-driven Beta
//! reputation engine.
//!
//! Three layers of guarantees:
//!
//! * **zero-receipt bit-identity** — with no evidence, the Beta
//!   overlay is invisible: `apply_to` returns the exogenous trust
//!   graph *bit for bit*, so every pre-receipt code path (registry
//!   scenarios, formation runs) is unchanged by construction;
//! * **posterior algebra** — the Beta posterior stays inside the unit
//!   interval, is strictly monotone in fresh evidence, degenerates to
//!   plain counting at `λ = 1`, and a zero-epoch discount is the exact
//!   identity;
//! * **warm/cold agreement** — formation over *receipt-fed* trust
//!   (evidence folded from signed execution receipts) selects the same
//!   VO with and without the incremental engine's warm starts, with
//!   the same tolerance discipline as `tests/differential_warm_cold.rs`.

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::{ExecutionReceipt, FaultEvent, FaultKind, FaultPlan, FormationScenario, Gsp};
use gridvo_solver::AssignmentInstance;
use gridvo_trust::beta::{BetaLedger, BetaParams, DEFAULT_LAMBDA};
use gridvo_trust::TrustGraph;
use proptest::prelude::*;
use rand::SeedableRng;

/// Random scenario, same shape as `tests/differential_warm_cold.rs`:
/// 2–5 GSPs, random cost/time matrices, random sparse trust.
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

/// A batch of well-formed receipts over `m >= 2` GSPs: `(subject,
/// witness, success, reward)` with `witness != subject`.
fn receipts_strategy(m: usize) -> impl Strategy<Value = Vec<ExecutionReceipt>> {
    let one =
        (0..m, 0..m - 1, 0u8..2, 0.5f64..50.0).prop_map(move |(subject, w, success, reward)| {
            let witness = if w >= subject { w + 1 } else { w };
            ExecutionReceipt::new(0, subject, success == 1, reward, vec![witness])
        });
    proptest::collection::vec(one, 1..20)
}

/// A scenario paired with a receipt batch sized to its GSP pool.
fn scenario_and_receipts() -> impl Strategy<Value = (FormationScenario, Vec<ExecutionReceipt>)> {
    scenario_strategy().prop_flat_map(|s| {
        let m = s.gsp_count();
        (Just(s), receipts_strategy(m))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Zero receipts: the overlay is the identity, bit for bit. Every
    /// edge weight of the overlaid graph has the same `to_bits` as the
    /// exogenous graph's, so downstream reputation / formation output
    /// cannot move.
    #[test]
    fn empty_ledger_overlay_is_bit_identical(s in scenario_strategy(), lambda in 0.5f64..=1.0) {
        let base = s.trust().clone();
        let ledger = BetaLedger::new(base.node_count(), lambda);
        prop_assert!(ledger.is_empty());
        let overlaid = ledger.apply_to(&base).expect("matched dimensions");
        prop_assert_eq!(&overlaid, &base);
        for i in 0..base.node_count() {
            for j in 0..base.node_count() {
                prop_assert_eq!(
                    overlaid.trust(i, j).to_bits(),
                    base.trust(i, j).to_bits(),
                    "edge ({}, {}) moved", i, j
                );
            }
        }
    }

    /// The posterior mean stays strictly inside the unit interval for
    /// any observation history, and never goes NaN.
    #[test]
    fn posterior_stays_in_unit_interval(
        observations in proptest::collection::vec(
            (0u8..2, 0.0f64..100.0), 0..50),
        lambda in 0.5f64..=1.0,
    ) {
        let mut p = BetaParams::default();
        for (success, weight) in observations {
            p.discount(lambda);
            p.observe(weight, success == 1);
            let rep = p.reputation();
            prop_assert!(rep > 0.0 && rep < 1.0, "posterior {} escaped (0, 1)", rep);
            prop_assert!(p.r >= 0.0 && p.s >= 0.0);
        }
    }

    /// Fresh evidence moves the posterior the right way: a success
    /// with positive weight strictly raises it, a failure strictly
    /// lowers it.
    #[test]
    fn posterior_is_monotone_in_fresh_evidence(
        r in 0.0f64..50.0,
        s in 0.0f64..50.0,
        weight in 0.01f64..10.0,
    ) {
        let base = BetaParams { r, s };
        let mut up = base;
        up.observe(weight, true);
        let mut down = base;
        down.observe(weight, false);
        prop_assert!(up.reputation() > base.reputation());
        prop_assert!(down.reputation() < base.reputation());
    }

    /// `λ = 1` is plain counting: after any history the parameters are
    /// exactly the sums of the success / failure weights.
    #[test]
    fn lambda_one_is_plain_counting(
        observations in proptest::collection::vec(
            (0u8..2, 0.0f64..10.0), 1..30),
    ) {
        let mut ledger = BetaLedger::new(2, 1.0);
        let (mut want_r, mut want_s) = (0.0, 0.0);
        for &(success, weight) in &observations {
            ledger.observe_weighted(0, 1, weight, success == 1).unwrap();
            if success == 1 { want_r += weight; } else { want_s += weight; }
        }
        let p = ledger.params(0, 1).expect("edge has evidence");
        prop_assert!((p.r - want_r).abs() < 1e-9, "r {} != sum {}", p.r, want_r);
        prop_assert!((p.s - want_s).abs() < 1e-9, "s {} != sum {}", p.s, want_s);
    }

    /// A zero-epoch discount is the exact identity, whatever λ is.
    #[test]
    fn zero_epoch_discount_is_identity(
        r in 0.0f64..50.0,
        s in 0.0f64..50.0,
        lambda in 0.0f64..=1.0,
    ) {
        let base = BetaParams { r, s };
        let mut p = base;
        p.discount_epochs(lambda, 0);
        prop_assert_eq!(p.r.to_bits(), base.r.to_bits());
        prop_assert_eq!(p.s.to_bits(), base.s.to_bits());
    }

    /// Receipt-fed trust, warm vs cold formation: fold a random batch
    /// of verified receipts into a ledger, overlay it on the scenario's
    /// trust, and run formation with and without warm starts. Same
    /// member set, same status; costs agree to 1e-9.
    #[test]
    fn warm_and_cold_agree_on_receipt_fed_trust(
        pair in scenario_and_receipts(),
        seed in 0u64..1000,
    ) {
        let (s, receipts) = pair;
        let m = s.gsp_count();
        let mut ledger = BetaLedger::new(m, DEFAULT_LAMBDA);
        for receipt in &receipts {
            prop_assert!(receipt.verify(), "constructed receipts carry valid digests");
            receipt.fold_into(&mut ledger).expect("in-range receipt");
        }
        let trust = ledger.apply_to(s.trust()).expect("matched dimensions");
        let fed = FormationScenario::new(s.gsps().to_vec(), trust, s.instance().clone())
            .expect("consistent scenario");

        let run = |warm_start: bool| {
            let config = FormationConfig { warm_start, ..FormationConfig::default() };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Mechanism::tvof(config).run(&fed, &mut rng).expect("formation runs")
        };
        let (warm, cold) = (run(true), run(false));

        match (&warm.selected, &cold.selected) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(&a.members, &b.members, "warm and cold selected different VOs");
                prop_assert!((a.cost - b.cost).abs() < 1e-9, "selected VO cost");
                prop_assert!((a.payoff_share - b.payoff_share).abs() < 1e-9);
            }
            (None, None) => {}
            _ => prop_assert!(false, "one run selected a VO, the other did not"),
        }
    }
}

/// Receipts projected from an execution report: every receipt
/// verifies, witnesses never include the subject, evicted members get
/// failure receipts, and a completed run yields one success receipt
/// per surviving member.
#[test]
fn execution_report_projects_well_formed_receipts() {
    let m = 4;
    let n = 8;
    let gsps: Vec<Gsp> = (0..m).map(|i| Gsp::new(i, 100.0 + i as f64)).collect();
    let mut trust = TrustGraph::new(m);
    for i in 0..m {
        for j in 0..m {
            if i != j {
                trust.set_trust(i, j, 0.8);
            }
        }
    }
    // Task times chosen so fewer than three GSPs cannot meet the
    // deadline: the selected VO must have multiple members, which
    // gives every receipt a non-empty witness set.
    let cost = vec![2.0; n * m];
    let time = vec![12.0; n * m];
    let inst = AssignmentInstance::new(n, m, cost, time, 40.0, 400.0).expect("valid instance");
    let s = FormationScenario::new(gsps, trust, inst).expect("consistent scenario");

    let mechanism = Mechanism::tvof(FormationConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let outcome = mechanism.run(&s, &mut rng).expect("formation runs");
    let vo = outcome.selected.expect("generous deadline forms a VO");
    assert!(vo.members.len() >= 2, "scenario must force a multi-member VO");

    // Fault-free execution: receipts are all successes, one per
    // member, each witnessed by everyone else.
    let clean = mechanism.execute(&s, &vo, &FaultPlan::new(Vec::new())).expect("runs");
    let receipts = clean.receipts();
    assert_eq!(receipts.len(), vo.members.len());
    for r in &receipts {
        assert!(r.verify());
        assert!(r.success);
        assert!(!r.witnesses.contains(&r.gsp), "subject cannot witness itself");
        assert_eq!(r.witnesses.len(), vo.members.len() - 1);
        assert!(r.reward >= 0.0);
    }

    // Crash a member: it must surface as a failure receipt whose
    // witnesses are the other initial members.
    let crashed = vo.members[0];
    let plan = FaultPlan::new(vec![FaultEvent { round: 0, gsp: crashed, kind: FaultKind::Crash }]);
    let report = mechanism.execute(&s, &vo, &plan).expect("runs");
    let receipts = report.receipts();
    let failures: Vec<_> = receipts.iter().filter(|r| !r.success).collect();
    assert!(
        failures.iter().any(|r| r.gsp == crashed),
        "the crashed member must get a failure receipt"
    );
    for r in &receipts {
        assert!(r.verify());
        assert!(!r.witnesses.contains(&r.gsp));
        if r.success {
            assert!(
                report.final_members.contains(&r.gsp),
                "success receipts only for surviving members"
            );
        }
    }

    // Folding all receipts keeps every touched posterior in range.
    let mut ledger = BetaLedger::new(m, DEFAULT_LAMBDA);
    for r in &receipts {
        r.fold_into(&mut ledger).expect("in-range receipts");
    }
    assert!(!ledger.is_empty());
    let graph = ledger.apply_to(&TrustGraph::new(m)).expect("ledger sized to the pool");
    for i in 0..m {
        for j in 0..m {
            let w = graph.trust(i, j);
            assert!((0.0..=1.0).contains(&w), "posterior edge ({i}, {j}) = {w}");
        }
    }
}
