//! Differential tests for the fault-injection execution layer.
//!
//! The load-bearing invariant: executing a selected VO against an
//! **empty** fault plan is a pure pass-through of the formation output
//! — same members, bit-identical cost and payoff share, the very same
//! assignment, no recovery episodes. Beyond that, seeded fault runs
//! must be deterministic (same plan → same report across repeats), and
//! whatever execution calls "completed" must actually satisfy the
//! deadline and payment constraints on the instance it claims to have
//! run on (reconstructed from the reported slowdown factors). A fixed
//! seeded matrix reaches every rung of the recovery ladder and pins
//! the bytes of its reports.

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::{
    ExecutionReport, ExecutionStatus, FaultEvent, FaultKind, FaultPlan, FormationScenario, Gsp,
    RecoveryKind, VoRecord,
};
use gridvo_solver::AssignmentInstance;
use gridvo_trust::TrustGraph;
use proptest::prelude::*;
use rand::SeedableRng;

/// Random scenario: 2–5 GSPs, gsps..(gsps+6) tasks, random matrices
/// (same shape as `tests/differential_warm_cold.rs`).
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

/// A random fault plan over `m` GSPs: up to 6 events across 4 rounds,
/// mixing crashes, slowdowns and silent drops. GSP ids may point at
/// non-members — execution must skip those.
fn plan_strategy(m: usize) -> impl Strategy<Value = FaultPlan> {
    let event = (0usize..4, 0..m, kind_strategy()).prop_map(|(round, gsp, kind)| FaultEvent {
        round,
        gsp,
        kind,
    });
    proptest::collection::vec(event, 0..=6).prop_map(FaultPlan::new)
}

fn kind_strategy() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::Crash),
        (1.2f64..5.0).prop_map(|factor| FaultKind::Slowdown { factor }),
        (1usize..=3).prop_map(|tasks| FaultKind::SilentDrop { tasks }),
    ]
}

/// (scenario, plan) pairs where the plan targets the scenario's GSPs.
fn scenario_and_plan() -> impl Strategy<Value = (FormationScenario, FaultPlan)> {
    scenario_strategy().prop_flat_map(|s| {
        let m = s.gsp_count();
        (Just(s), plan_strategy(m))
    })
}

fn form(s: &FormationScenario, seed: u64) -> Option<VoRecord> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Mechanism::tvof(FormationConfig::default()).run(s, &mut rng).expect("formation runs").selected
}

fn execute(s: &FormationScenario, vo: &VoRecord, plan: &FaultPlan) -> ExecutionReport {
    Mechanism::tvof(FormationConfig::default()).execute(s, vo, plan).expect("execution runs")
}

/// Reports must agree up to wall-clock noise: everything except the
/// `seconds` fields is compared exactly.
fn assert_reports_identical(
    a: &ExecutionReport,
    b: &ExecutionReport,
) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(&a.initial_members, &b.initial_members);
    prop_assert_eq!(&a.final_members, &b.final_members);
    prop_assert_eq!(a.initial_cost.to_bits(), b.initial_cost.to_bits());
    prop_assert_eq!(a.final_cost.to_bits(), b.final_cost.to_bits());
    prop_assert_eq!(a.final_payoff_share.to_bits(), b.final_payoff_share.to_bits());
    prop_assert_eq!(a.payoff_retention.to_bits(), b.payoff_retention.to_bits());
    prop_assert_eq!(&a.final_assignment, &b.final_assignment);
    prop_assert_eq!(&a.time_factors, &b.time_factors);
    prop_assert_eq!(a.status, b.status);
    prop_assert_eq!(a.rounds, b.rounds);
    prop_assert_eq!(a.recoveries.len(), b.recoveries.len());
    for (x, y) in a.recoveries.iter().zip(&b.recoveries) {
        prop_assert_eq!(x.round, y.round);
        prop_assert_eq!(x.gsp, y.gsp);
        prop_assert_eq!(x.fault, y.fault);
        prop_assert_eq!(x.recovery_kind, y.recovery_kind);
        prop_assert_eq!(x.orphaned_tasks, y.orphaned_tasks);
        prop_assert_eq!(x.cost_before.to_bits(), y.cost_before.to_bits());
        prop_assert_eq!(x.cost_after.to_bits(), y.cost_after.to_bits());
        prop_assert_eq!(x.resolve_nodes, y.resolve_nodes);
        prop_assert_eq!(x.survivors, y.survivors);
        prop_assert_eq!(x.avg_reputation_after.to_bits(), y.avg_reputation_after.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(110))]

    /// The tentpole invariant: an empty fault plan reproduces the
    /// formation output **bit-identically** — same members, same
    /// assignment, cost and payoff equal to the last bit, zero
    /// recoveries, no degradation flag.
    #[test]
    fn empty_plan_is_bit_identical_to_formation(s in scenario_strategy(), seed in 0u64..1000) {
        let Some(vo) = form(&s, seed) else { return Ok(()) };
        let report = execute(&s, &vo, &FaultPlan::empty());
        prop_assert_eq!(report.status, ExecutionStatus::Completed { degraded: false });
        prop_assert_eq!(&report.initial_members, &vo.members);
        prop_assert_eq!(&report.final_members, &vo.members);
        prop_assert_eq!(report.initial_cost.to_bits(), vo.cost.to_bits());
        prop_assert_eq!(report.final_cost.to_bits(), vo.cost.to_bits());
        prop_assert_eq!(report.final_payoff_share.to_bits(), vo.payoff_share.to_bits());
        prop_assert_eq!(report.payoff_retention.to_bits(), 1.0f64.to_bits());
        prop_assert_eq!(report.final_assignment.as_ref(), Some(&vo.assignment));
        prop_assert!(report.recoveries.is_empty());
        prop_assert_eq!(report.rounds, 0);
        prop_assert!(report.time_factors.iter().all(|&f| f == 1.0));
    }

    /// Same seed + same plan → the same report, down to the bit
    /// (wall-clock fields excluded).
    #[test]
    fn seeded_fault_runs_are_deterministic(sp in scenario_and_plan(), seed in 0u64..1000) {
        let (s, plan) = sp;
        let Some(vo) = form(&s, seed) else { return Ok(()) };
        let a = execute(&s, &vo, &plan);
        let b = execute(&s, &vo, &plan);
        assert_reports_identical(&a, &b)?;
    }

    /// Whatever execution calls completed must be *feasible*: the
    /// final assignment satisfies coverage, the deadline and the
    /// payment cap on the instance reconstructed from the report's
    /// final members and accumulated slowdown factors.
    #[test]
    fn recovered_assignments_satisfy_all_constraints(sp in scenario_and_plan(), seed in 0u64..1000) {
        let (s, plan) = sp;
        let Some(vo) = form(&s, seed) else { return Ok(()) };
        let report = execute(&s, &vo, &plan);
        if let ExecutionStatus::Completed { .. } = report.status {
            let a = report.final_assignment.as_ref().expect("completed → assignment");
            let inst = s.instance_for(&report.final_members).expect("non-empty VO");
            let factors: Vec<f64> =
                report.final_members.iter().map(|&g| report.time_factors[g]).collect();
            let scaled = inst.scale_gsp_times(&factors).expect("valid factors");
            if let Err(e) = a.check_feasible(&scaled) {
                prop_assert!(false, "completed execution is infeasible: {e:?}");
            }
            // payoff bookkeeping is internally consistent
            prop_assert!(report.final_cost <= s.payment() + 1e-9);
            prop_assert!(report.final_payoff_share >= 0.0);
        } else {
            prop_assert!(report.final_assignment.is_none(), "abandoned runs carry no assignment");
            prop_assert_eq!(report.final_payoff_share, 0.0);
        }
    }

    /// Telemetry invariants: monotone round order, cost deltas add up,
    /// crashed members never reappear among the survivors.
    #[test]
    fn recovery_telemetry_is_consistent(sp in scenario_and_plan(), seed in 0u64..1000) {
        let (s, plan) = sp;
        let Some(vo) = form(&s, seed) else { return Ok(()) };
        let report = execute(&s, &vo, &plan);
        let mut last_round = 0usize;
        for r in &report.recoveries {
            prop_assert!(r.round >= last_round, "recoveries out of order");
            last_round = r.round;
            prop_assert!((r.cost_delta - (r.cost_after - r.cost_before)).abs() < 1e-12);
            prop_assert!(r.survivors >= 1);
            prop_assert!(r.survivors <= vo.members.len());
        }
        // a *recovered* crash always evicts its member; an abandoned
        // one leaves the roster frozen at the moment of failure
        for e in plan.events() {
            if e.kind == FaultKind::Crash
                && report.recoveries.iter().any(|r| {
                    r.gsp == e.gsp
                        && r.fault == FaultKind::Crash
                        && matches!(r.recovery_kind, RecoveryKind::Repair | RecoveryKind::Resolve)
                })
            {
                prop_assert!(
                    !report.final_members.contains(&e.gsp),
                    "crashed member {} survived", e.gsp
                );
            }
        }
        prop_assert!(report.final_members.iter().all(|g| vo.members.contains(g)),
            "execution invented a member");
    }
}

/// One rung of the recovery ladder: (fault kind, `recovery_kind`,
/// whether the member set shrank).
type Rung = (&'static str, &'static str, bool);

/// Every rung the recovery policy can reach. A partial silent drop
/// that abandons (its in-place re-solve failing on an unchanged
/// instance) is unreachable with an exact solver, so the drop
/// `abandon` rung is the whole-drop eviction's.
const RUNGS: [Rung; 12] = [
    ("crash", "repair", true),
    ("crash", "resolve", true),
    ("crash", "abandon", false),
    ("silent_drop", "repair", false),
    ("silent_drop", "resolve", false),
    ("silent_drop", "repair", true),
    ("silent_drop", "resolve", true),
    ("silent_drop", "abandon", false),
    ("slowdown", "absorbed", false),
    ("slowdown", "resolve", false),
    ("slowdown", "resolve", true),
    ("slowdown", "abandon", false),
];

/// FNV-1a over the rung matrix's timing-zeroed JSON reports, as the
/// recovery policy produced them when the rung test was introduced.
const RUNG_MATRIX_DIGEST: u64 = 0x8896_c4f1_7f22_12bf;

/// A fixed, seeded matrix of faulted executions: `TableI::small` pools
/// of 4 and 6 GSPs × 8 and 12 tasks, TVOF and RVOF, under crash-,
/// slowdown- and drop-heavy fault models. Reports come back with
/// their timings zeroed.
fn rung_matrix() -> Vec<ExecutionReport> {
    use gridvo_sim::faults::FaultModel;
    use gridvo_sim::{runner, ScenarioGenerator, TableI};
    let models = [
        FaultModel { crash_rate: 0.3, ..FaultModel::with_rate(0.15, 4) },
        FaultModel {
            slowdown_rate: 0.4,
            slowdown_range: (1.05, 6.0),
            ..FaultModel::with_rate(0.1, 4)
        },
        FaultModel { drop_rate: 0.4, max_dropped_tasks: 3, ..FaultModel::with_rate(0.1, 4) },
    ];
    let mut reports = Vec::new();
    for gsps in [4, 6] {
        let generator = ScenarioGenerator::new(TableI { gsps, ..TableI::small() });
        for tasks in [8, 12] {
            for seed in 0..6u64 {
                let mut rng = runner::seeded_rng(0xFA17_0000 + (gsps * 100 + tasks) as u64, seed);
                let scenario = generator.scenario(tasks, &mut rng).expect("calibrated scenario");
                for mech in [
                    Mechanism::tvof(FormationConfig::default()),
                    Mechanism::rvof(FormationConfig::default()),
                ] {
                    let outcome = mech.run(&scenario, &mut rng).expect("formation runs");
                    let Some(vo) = outcome.selected else { continue };
                    for model in &models {
                        let plan = model.plan(&vo.members, &mut rng);
                        let mut report =
                            mech.execute(&scenario, &vo, &plan).expect("execution runs");
                        report.zero_timings();
                        reports.push(report);
                    }
                }
            }
        }
    }
    reports
}

/// The rung a recovery record stands on.
fn rung_of(rec: &gridvo_core::RecoveryRecord, survivors_before: usize) -> Rung {
    let fault = match rec.fault {
        FaultKind::Crash => "crash",
        FaultKind::Slowdown { .. } => "slowdown",
        FaultKind::SilentDrop { .. } => "silent_drop",
    };
    (fault, rec.recovery_kind.as_str(), rec.survivors < survivors_before)
}

/// Pins the recovery policy rung by rung: the matrix must reach every
/// rung of the ladder, and its reports must keep their bytes.
#[test]
fn every_recovery_rung_is_reached_with_pinned_bytes() {
    let reports = rung_matrix();
    let mut seen: std::collections::BTreeMap<Rung, usize> = std::collections::BTreeMap::new();
    let mut digest = gridvo_solver::instance::Fnv1a::new();
    for report in &reports {
        let mut survivors = report.initial_members.len();
        for rec in &report.recoveries {
            *seen.entry(rung_of(rec, survivors)).or_default() += 1;
            survivors = rec.survivors;
        }
        digest.write(serde_json::to_string(report).expect("report serializes").as_bytes());
    }
    for rung in RUNGS {
        assert!(seen.contains_key(&rung), "rung {rung:?} never reached; saw {seen:?}");
    }
    assert_eq!(seen.len(), RUNGS.len(), "unexpected rung; saw {seen:?}");
    assert_eq!(digest.finish(), RUNG_MATRIX_DIGEST, "recovery reports changed bytes");
}
