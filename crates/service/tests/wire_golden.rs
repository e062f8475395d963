//! Golden wire-format tests: the exact bytes of one line per request
//! op and response kind are frozen here so a refactor that reorders
//! fields, renames a tag, or changes null handling fails loudly
//! instead of silently breaking old clients. The legacy-parse tests
//! pin the tolerant half of the contract: lines written by older
//! daemons/clients (missing optional fields, `null`s, extra keys, any
//! key order) must still decode, with the absent fields coming back
//! as their defaults / `None`.

use gridvo_core::mechanism::FormationConfig;
use gridvo_core::{
    ExecutionReceipt, ExecutionReport, ExecutionStatus, FaultEvent, FaultKind, FaultPlan,
    FormationOutcome, FormationScenario, RecoveryKind, RecoveryRecord,
};
use gridvo_service::cache::CacheStats;
use gridvo_service::metrics::{MarketGauges, Metrics};
use gridvo_service::protocol::{decode, encode, MechanismKind, Request, Response};
use gridvo_service::server::MAX_LINE_BYTES;
use gridvo_service::{GspRegistry, RegistrySnapshot, ServerConfig, ServerHandle};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_solver::Assignment;
use rand::SeedableRng;

fn scenario() -> FormationScenario {
    let cfg = TableI { task_sizes: vec![12], gsps: 5, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario")
}

#[test]
fn form_batch_request_bytes_are_frozen() {
    let request = Request::FormBatch {
        seeds: vec![1, 2, 3],
        mechanism: MechanismKind::Tvof,
        deadline_ms: Some(250),
    };
    assert_eq!(
        encode(&request),
        r#"{"op":"form_batch","seeds":[1,2,3],"mechanism":"tvof","deadline_ms":250}"#
    );

    let no_deadline =
        Request::FormBatch { seeds: vec![7], mechanism: MechanismKind::Rvof, deadline_ms: None };
    assert_eq!(
        encode(&no_deadline),
        r#"{"op":"form_batch","seeds":[7],"mechanism":"rvof","deadline_ms":null}"#
    );
}

#[test]
fn batch_end_response_bytes_are_frozen() {
    assert_eq!(
        encode(&Response::BatchEnd { epoch: 17, served: 5 }),
        r#"{"kind":"batch_end","epoch":17,"served":5}"#
    );
}

#[test]
fn frozen_lines_decode_back_to_the_same_values() {
    let request: Request =
        decode(r#"{"op":"form_batch","seeds":[1,2,3],"mechanism":"tvof","deadline_ms":250}"#)
            .unwrap();
    assert_eq!(
        request,
        Request::FormBatch {
            seeds: vec![1, 2, 3],
            mechanism: MechanismKind::Tvof,
            deadline_ms: Some(250),
        }
    );

    let response: Response = decode(r#"{"kind":"batch_end","epoch":17,"served":5}"#).unwrap();
    assert_eq!(response, Response::BatchEnd { epoch: 17, served: 5 });
}

#[test]
fn legacy_form_batch_without_optional_fields_still_parses() {
    // A minimal line from a client predating the optional fields:
    // mechanism defaults, deadline comes back `None`.
    let request: Request = decode(r#"{"op":"form_batch","seeds":[4]}"#).unwrap();
    assert_eq!(
        request,
        Request::FormBatch {
            seeds: vec![4],
            mechanism: MechanismKind::default(),
            deadline_ms: None,
        }
    );

    // Unknown extra fields from a *newer* peer are ignored, not
    // rejected — both directions of version skew must parse.
    let request: Request = decode(r#"{"op":"form_batch","seeds":[4],"coalesce":true}"#).unwrap();
    assert!(matches!(request, Request::FormBatch { .. }));
}

#[test]
fn malformed_form_batch_lines_are_typed_errors_not_panics() {
    assert!(decode::<Request>(r#"{"op":"form_batch"}"#).is_err(), "seeds is required");
    assert!(decode::<Request>(r#"{"op":"form_batch","seeds":7}"#).is_err(), "seeds is a list");
    assert!(
        decode::<Request>(r#"{"op":"form_batch","seeds":[1],"mechanism":"zvof"}"#).is_err(),
        "unknown mechanism names are rejected"
    );
    assert!(decode::<Response>(r#"{"kind":"batch_end"}"#).is_err(), "epoch+served are required");
}

#[test]
fn legacy_registry_response_without_top_level_epoch_reads_none() {
    let snapshot = GspRegistry::from_scenario(&scenario(), FormationConfig::default().reputation)
        .unwrap()
        .snapshot();
    let current = encode(&Response::Registry { snapshot: snapshot.clone(), epoch: Some(3) });

    // A pre-epoch daemon wrote the same line minus the trailing
    // top-level field; synthesize that legacy line from the current
    // encoding so the snapshot body stays byte-identical.
    let suffix = r#","epoch":3}"#;
    assert!(current.ends_with(suffix), "epoch is the final top-level field");
    let legacy = format!("{}}}", &current[..current.len() - suffix.len()]);

    match decode::<Response>(&legacy).unwrap() {
        Response::Registry { snapshot: parsed, epoch } => {
            assert_eq!(epoch, None, "missing top-level epoch must read as None");
            assert_eq!(
                serde_json::to_string(&parsed).unwrap(),
                serde_json::to_string(&snapshot).unwrap()
            );
        }
        other => panic!("expected registry response, got {other:?}"),
    }
}

#[test]
fn form_response_carries_trailing_truncated_and_gap_fields() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let outcome = gridvo_core::Mechanism::tvof(FormationConfig::default())
        .run(&scenario(), &mut rng)
        .expect("feasible scenario");
    let line = encode(&Response::form_from(outcome));
    // The anytime summary fields trail the outcome so pre-gap readers
    // that stop at `outcome` keep working; an unbudgeted run is
    // proven optimal end to end.
    assert!(line.ends_with(r#","truncated":false,"gap":0.0}"#), "unexpected tail: {line}");
}

#[test]
fn legacy_form_response_without_gap_fields_still_parses() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let outcome = gridvo_core::Mechanism::tvof(FormationConfig::default())
        .run(&scenario(), &mut rng)
        .expect("feasible scenario");
    let current = encode(&Response::form_from(outcome.clone()));

    // A pre-gap daemon wrote the same line minus the two trailing
    // top-level fields and minus every per-record `gap`; synthesize
    // that legacy line from the current encoding. An unbudgeted run
    // proves every solve optimal, so the nested gaps are exactly
    // `0.0` (feasible rounds) or `null` (infeasible final round).
    let cut = current.rfind(r#","truncated":"#).expect("truncated is a trailing field");
    let legacy =
        format!("{}}}", &current[..cut]).replace(r#","gap":0.0"#, "").replace(r#","gap":null"#, "");
    assert!(!legacy.contains(r#""gap""#), "legacy line must predate every gap field");

    match decode::<Response>(&legacy).unwrap() {
        Response::Form { outcome: parsed, truncated, gap, lease, lease_epoch, formed_epoch } => {
            assert_eq!(truncated, None, "missing truncated must read as None");
            assert_eq!(gap, None, "missing top-level gap must read as None");
            assert_eq!(
                (lease, lease_epoch, formed_epoch),
                (None, None, None),
                "pre-market lines must read the lease fields as None"
            );
            assert!(parsed.feasible_vos.iter().all(|v| v.gap.is_none()));
            assert!(parsed.iterations.iter().all(|it| it.gap.is_none()));
            // Everything except the absent gaps round-trips intact.
            let mut regapped = parsed;
            for v in &mut regapped.feasible_vos {
                v.gap = Some(0.0);
            }
            if let Some(v) = &mut regapped.selected {
                v.gap = Some(0.0);
            }
            for it in &mut regapped.iterations {
                it.gap = outcome
                    .iterations
                    .iter()
                    .find(|o| o.iteration == it.iteration)
                    .and_then(|o| o.gap);
            }
            assert_eq!(regapped, outcome);
        }
        other => panic!("expected form response, got {other:?}"),
    }
}

#[test]
fn market_request_bytes_are_frozen() {
    let form = Request::Form {
        seed: 9,
        mechanism: MechanismKind::Tvof,
        deadline_ms: None,
        app: Some("atlas".to_string()),
    };
    assert_eq!(
        encode(&form),
        r#"{"op":"form","seed":9,"mechanism":"tvof","deadline_ms":null,"app":"atlas"}"#
    );

    // An app-less form keeps the exact pre-market bytes: no `app` key
    // at all, so old daemons parse lines from new clients.
    let plain =
        Request::Form { seed: 9, mechanism: MechanismKind::Tvof, deadline_ms: None, app: None };
    assert_eq!(encode(&plain), r#"{"op":"form","seed":9,"mechanism":"tvof","deadline_ms":null}"#);

    assert_eq!(
        encode(&Request::Release { lease: 4, abandon: true }),
        r#"{"op":"release_lease","lease":4,"abandon":true}"#
    );
    assert_eq!(encode(&Request::Leases), r#"{"op":"leases"}"#);
}

#[test]
fn market_response_bytes_are_frozen() {
    assert_eq!(encode(&Response::Throttled), r#"{"kind":"throttled"}"#);
    assert_eq!(
        encode(&Response::PoolExhausted { free: 2 }),
        r#"{"kind":"pool_exhausted","free":2}"#
    );
    let leases = Response::Leases {
        leases: vec![gridvo_service::Lease {
            id: 1,
            app: "atlas".to_string(),
            members: vec![0, 3],
            acquired_epoch: 5,
        }],
        free: vec![1, 2, 4],
        epoch: 6,
    };
    assert_eq!(
        encode(&leases),
        r#"{"kind":"leases","leases":[{"id":1,"app":"atlas","members":[0,3],"acquired_epoch":5}],"free":[1,2,4],"epoch":6}"#
    );
    let back: Response = decode(&encode(&leases)).unwrap();
    assert_eq!(back, leases);
}

#[test]
fn legacy_release_without_abandon_defaults_to_complete() {
    let request: Request = decode(r#"{"op":"release_lease","lease":12}"#).unwrap();
    assert_eq!(request, Request::Release { lease: 12, abandon: false });
}

#[test]
fn market_form_response_appends_lease_fields_after_the_gap_tail() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let outcome = gridvo_core::Mechanism::tvof(FormationConfig::default())
        .run(&scenario(), &mut rng)
        .expect("feasible scenario");

    // Plain form lines keep the exact pre-market tail…
    let plain = encode(&Response::form_from(outcome.clone()));
    assert!(plain.ends_with(r#","truncated":false,"gap":0.0}"#), "unexpected tail: {plain}");
    assert!(!plain.contains(r#""lease""#) && !plain.contains(r#""formed_epoch""#));

    // …and a leased market form appends only the three new fields.
    let leased = encode(&Response::market_form_from(outcome.clone(), Some((3, 9)), 8));
    assert!(
        leased.ends_with(
            r#","truncated":false,"gap":0.0,"lease":3,"lease_epoch":9,"formed_epoch":8}"#
        ),
        "unexpected tail: {leased}"
    );
    assert_eq!(&leased[..plain.len() - 1], &plain[..plain.len() - 1], "shared prefix is frozen");

    // A lease-less market form (nothing selected) reports only the
    // epoch it formed against.
    let unleased = encode(&Response::market_form_from(outcome, None, 8));
    assert!(unleased.ends_with(r#","truncated":false,"gap":0.0,"formed_epoch":8}"#));
}

fn empty_outcome() -> FormationOutcome {
    FormationOutcome {
        iterations: vec![],
        feasible_vos: vec![],
        selected: None,
        total_seconds: 0.0,
    }
}

/// A plan holding all three fault kinds, rounds given out of order.
fn three_kind_plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent { round: 2, gsp: 4, kind: FaultKind::SilentDrop { tasks: 3 } },
        FaultEvent { round: 0, gsp: 1, kind: FaultKind::Crash },
        FaultEvent { round: 1, gsp: 2, kind: FaultKind::Slowdown { factor: 1.5 } },
    ])
}

fn recovery(round: usize, gsp: usize, fault: FaultKind, kind: RecoveryKind) -> RecoveryRecord {
    RecoveryRecord {
        round,
        gsp,
        fault,
        recovery_kind: kind,
        orphaned_tasks: 2,
        cost_before: 10.0,
        cost_after: 12.5,
        cost_delta: 2.5,
        resolve_nodes: 7,
        survivors: 3,
        avg_reputation_after: 0.25,
        seconds: 0.0,
    }
}

/// Two reports: a degraded completion (absorbed, repair, resolve) and
/// an abandonment, so both statuses and all four recovery kinds show.
fn reports() -> [ExecutionReport; 2] {
    let completed = ExecutionReport {
        initial_members: vec![0, 1, 2, 4],
        final_members: vec![0, 4],
        initial_cost: 10.0,
        final_cost: 12.5,
        initial_payoff_share: 4.0,
        final_payoff_share: 3.5,
        payoff_retention: 0.875,
        final_assignment: Some(Assignment::new(vec![0, 1, 1])),
        time_factors: vec![1.0, 1.0, 1.5, 1.0, 1.0],
        recoveries: vec![
            recovery(0, 2, FaultKind::Slowdown { factor: 1.5 }, RecoveryKind::Absorbed),
            recovery(1, 1, FaultKind::Crash, RecoveryKind::Repair),
            recovery(2, 2, FaultKind::SilentDrop { tasks: 1 }, RecoveryKind::Resolve),
        ],
        status: ExecutionStatus::Completed { degraded: true },
        rounds: 3,
        total_seconds: 0.0,
    };
    let abandoned = ExecutionReport {
        final_members: vec![0, 2, 4],
        final_payoff_share: 0.0,
        payoff_retention: 0.0,
        final_assignment: None,
        recoveries: vec![recovery(1, 1, FaultKind::Crash, RecoveryKind::Abandon)],
        status: ExecutionStatus::Abandoned { round: 1 },
        ..completed.clone()
    };
    [completed, abandoned]
}

/// The `execute` reply carrying the degraded completion of [`reports`].
const COMPLETED_LINE: &str = concat!(
    r#"{"kind":"execute","outcome":{"iterations":[],"feasible_vos":[],"selected":null,"total_seconds":0.0},"#,
    r#""report":{"initial_members":[0,1,2,4],"final_members":[0,4],"initial_cost":10.0,"#,
    r#""final_cost":12.5,"initial_payoff_share":4.0,"final_payoff_share":3.5,"payoff_retention":0.875,"#,
    r#""final_assignment":{"gsp_of":[0,1,1]},"time_factors":[1.0,1.0,1.5,1.0,1.0],"recoveries":["#,
    r#"{"round":0,"gsp":2,"fault":{"kind":"slowdown","factor":1.5},"recovery_kind":"absorbed","#,
    r#""orphaned_tasks":2,"cost_before":10.0,"cost_after":12.5,"cost_delta":2.5,"resolve_nodes":7,"#,
    r#""survivors":3,"avg_reputation_after":0.25,"seconds":0.0},"#,
    r#"{"round":1,"gsp":1,"fault":{"kind":"crash"},"recovery_kind":"repair","#,
    r#""orphaned_tasks":2,"cost_before":10.0,"cost_after":12.5,"cost_delta":2.5,"resolve_nodes":7,"#,
    r#""survivors":3,"avg_reputation_after":0.25,"seconds":0.0},"#,
    r#"{"round":2,"gsp":2,"fault":{"kind":"silent_drop","tasks":1},"recovery_kind":"resolve","#,
    r#""orphaned_tasks":2,"cost_before":10.0,"cost_after":12.5,"cost_delta":2.5,"resolve_nodes":7,"#,
    r#""survivors":3,"avg_reputation_after":0.25,"seconds":0.0}"#,
    r#"],"status":{"status":"completed","degraded":true},"rounds":3,"total_seconds":0.0}}"#,
);

/// The `execute` reply carrying the abandonment of [`reports`].
const ABANDONED_LINE: &str = concat!(
    r#"{"kind":"execute","outcome":{"iterations":[],"feasible_vos":[],"selected":null,"total_seconds":0.0},"#,
    r#""report":{"initial_members":[0,1,2,4],"final_members":[0,2,4],"initial_cost":10.0,"#,
    r#""final_cost":12.5,"initial_payoff_share":4.0,"final_payoff_share":0.0,"payoff_retention":0.0,"#,
    r#""final_assignment":null,"time_factors":[1.0,1.0,1.5,1.0,1.0],"recoveries":["#,
    r#"{"round":1,"gsp":1,"fault":{"kind":"crash"},"recovery_kind":"abandon","#,
    r#""orphaned_tasks":2,"cost_before":10.0,"cost_after":12.5,"cost_delta":2.5,"resolve_nodes":7,"#,
    r#""survivors":3,"avg_reputation_after":0.25,"seconds":0.0}"#,
    r#"],"status":{"status":"abandoned","round":1},"rounds":3,"total_seconds":0.0}}"#,
);

/// The `metrics` reply of a fresh daemon after three cache hits and a miss.
const METRICS_LINE: &str = concat!(
    r#"{"kind":"metrics","snapshot":{"requests_total":0,"form_requests":0,"batch_requests":0,"#,
    r#""execute_requests":0,"registry_mutations":0,"snapshot_requests":0,"ping_requests":0,"#,
    r#""busy_rejections":0,"deadline_rejections":0,"anytime_served":0,"request_errors":0,"#,
    r#""queue_depth":0,"cache_hits":3,"cache_misses":1,"cache_entries":2,"cache_hit_rate":0.75,"#,
    r#""queue_wait_ms":{"count":0,"sum_ms":0.0,"max_ms":0.0,"buckets":["#,
    r#"{"le_ms":0.25,"count":0},{"le_ms":0.5,"count":0},{"le_ms":1.0,"count":0},{"le_ms":2.5,"count":0},{"le_ms":5.0,"count":0},"#,
    r#"{"le_ms":10.0,"count":0},{"le_ms":25.0,"count":0},{"le_ms":50.0,"count":0},{"le_ms":100.0,"count":0},{"le_ms":250.0,"count":0},"#,
    r#"{"le_ms":500.0,"count":0},{"le_ms":1000.0,"count":0},{"le_ms":2500.0,"count":0},{"le_ms":5000.0,"count":0}"#,
    r#"],"overflow":0},"#,
    r#""service_ms":{"count":0,"sum_ms":0.0,"max_ms":0.0,"buckets":["#,
    r#"{"le_ms":0.25,"count":0},{"le_ms":0.5,"count":0},{"le_ms":1.0,"count":0},{"le_ms":2.5,"count":0},{"le_ms":5.0,"count":0},"#,
    r#"{"le_ms":10.0,"count":0},{"le_ms":25.0,"count":0},{"le_ms":50.0,"count":0},{"le_ms":100.0,"count":0},{"le_ms":250.0,"count":0},"#,
    r#"{"le_ms":500.0,"count":0},{"le_ms":1000.0,"count":0},{"le_ms":2500.0,"count":0},{"le_ms":5000.0,"count":0}"#,
    r#"],"overflow":0},"#,
    r#""leases_acquired":0,"leases_released":0,"leases_expired":0,"#,
    r#""pool_exhausted_rejections":0,"throttled_rejections":0,"committed_gsps":0,"live_leases":0,"#,
    r#""app_queue_depths":[]}}"#,
);

/// The `metrics` reply after traffic: every counter bumped, latencies
/// in the first, a middle and the overflow bucket, and live gauges.
const BUSY_METRICS_LINE: &str = concat!(
    r#"{"kind":"metrics","snapshot":{"requests_total":10,"form_requests":2,"batch_requests":1,"#,
    r#""execute_requests":1,"registry_mutations":2,"snapshot_requests":2,"ping_requests":1,"#,
    r#""busy_rejections":1,"deadline_rejections":1,"anytime_served":1,"request_errors":1,"#,
    r#""queue_depth":2,"cache_hits":5,"cache_misses":3,"cache_entries":4,"cache_hit_rate":0.625,"#,
    r#""queue_wait_ms":{"count":4,"sum_ms":10535.875,"max_ms":10000.0,"buckets":["#,
    r#"{"le_ms":0.25,"count":1},{"le_ms":0.5,"count":0},{"le_ms":1.0,"count":0},{"le_ms":2.5,"count":0},{"le_ms":5.0,"count":1},"#,
    r#"{"le_ms":10.0,"count":0},{"le_ms":25.0,"count":0},{"le_ms":50.0,"count":0},{"le_ms":100.0,"count":0},{"le_ms":250.0,"count":0},"#,
    r#"{"le_ms":500.0,"count":0},{"le_ms":1000.0,"count":1},{"le_ms":2500.0,"count":0},{"le_ms":5000.0,"count":0}"#,
    r#"],"overflow":1},"#,
    r#""service_ms":{"count":3,"sum_ms":43.5,"max_ms":42.0,"buckets":["#,
    r#"{"le_ms":0.25,"count":0},{"le_ms":0.5,"count":0},{"le_ms":1.0,"count":2},{"le_ms":2.5,"count":0},{"le_ms":5.0,"count":0},"#,
    r#"{"le_ms":10.0,"count":0},{"le_ms":25.0,"count":0},{"le_ms":50.0,"count":1},{"le_ms":100.0,"count":0},{"le_ms":250.0,"count":0},"#,
    r#"{"le_ms":500.0,"count":0},{"le_ms":1000.0,"count":0},{"le_ms":2500.0,"count":0},{"le_ms":5000.0,"count":0}"#,
    r#"],"overflow":0},"#,
    r#""leases_acquired":2,"leases_released":1,"leases_expired":1,"#,
    r#""pool_exhausted_rejections":1,"throttled_rejections":1,"committed_gsps":3,"live_leases":1,"#,
    r#""app_queue_depths":[{"app":"atlas","depth":1},{"app":"cms","depth":2}]}}"#,
);

#[test]
fn a_metrics_reply_after_traffic_is_frozen() {
    let m = Metrics::new();
    for op in [
        "form",
        "form",
        "form_batch",
        "execute",
        "add_gsp",
        "report_receipt",
        "registry",
        "metrics",
        "ping",
        "bogus",
    ] {
        m.request_received(op);
    }
    m.busy_rejected();
    m.deadline_rejected();
    m.anytime_served();
    m.request_errored();
    m.lease_acquired();
    m.lease_acquired();
    m.lease_released(false);
    m.lease_released(true);
    m.pool_exhausted_shed();
    m.throttled();
    for ms in [0.125, 3.5, 532.25, 10_000.0] {
        m.record_queue_wait_ms(ms);
    }
    for ms in [0.75, 0.75, 42.0] {
        m.record_service_ms(ms);
    }
    let gauges = MarketGauges {
        queue_depth: 2,
        committed_gsps: 3,
        live_leases: 1,
        app_depths: vec![("atlas".to_string(), 1), ("cms".to_string(), 2)],
    };
    let response = Response::Metrics {
        snapshot: m.snapshot(CacheStats { hits: 5, misses: 3, entries: 4 }, gauges),
    };
    assert_eq!(encode(&response), BUSY_METRICS_LINE);
    assert_eq!(decode::<Response>(BUSY_METRICS_LINE).unwrap(), response);
}

/// The `op` / `kind` value a line was encoded with.
fn tag(line: &str, key: &str) -> String {
    let value: serde_json::Value = serde_json::from_str(line).unwrap();
    value[key].as_str().expect("string tag").to_string()
}

#[test]
fn every_request_op_bytes_are_frozen() {
    let receipt = ExecutionReceipt::new(2, 1, false, 12.5, vec![0, 3]);
    let frozen = [
        (
            Request::Execute {
                seed: 5,
                mechanism: MechanismKind::Rvof,
                faults: three_kind_plan(),
                deadline_ms: Some(80),
            },
            r#"{"op":"execute","seed":5,"mechanism":"rvof","faults":{"events":[{"round":0,"gsp":1,"kind":{"kind":"crash"}},{"round":1,"gsp":2,"kind":{"kind":"slowdown","factor":1.5}},{"round":2,"gsp":4,"kind":{"kind":"silent_drop","tasks":3}}]},"deadline_ms":80}"#,
        ),
        (
            Request::Execute {
                seed: 5,
                mechanism: MechanismKind::Tvof,
                faults: FaultPlan::empty(),
                deadline_ms: None,
            },
            r#"{"op":"execute","seed":5,"mechanism":"tvof","faults":{"events":[]},"deadline_ms":null}"#,
        ),
        (
            Request::AddGsp { speed_gflops: 99.5, cost: vec![1.0, 2.0], time: vec![0.5, 0.25] },
            r#"{"op":"add_gsp","speed_gflops":99.5,"cost":[1.0,2.0],"time":[0.5,0.25]}"#,
        ),
        (Request::RemoveGsp { id: 3 }, r#"{"op":"remove_gsp","id":3}"#),
        (
            Request::ReportTrust { from: 0, to: 2, value: 0.75 },
            r#"{"op":"report_trust","from":0,"to":2,"value":0.75}"#,
        ),
        (
            Request::ReportReceipt { receipt },
            r#"{"op":"report_receipt","receipt":{"round":2,"gsp":1,"success":false,"reward":12.5,"witnesses":[0,3],"digest":4944522035643856009}}"#,
        ),
        (Request::Registry, r#"{"op":"registry"}"#),
        (Request::Metrics, r#"{"op":"metrics"}"#),
        (Request::Ping { sleep_ms: 15 }, r#"{"op":"ping","sleep_ms":15}"#),
    ];
    for (request, line) in frozen {
        assert_eq!(encode(&request), line);
        assert_eq!(decode::<Request>(line).unwrap(), request, "{line}");
    }
}

#[test]
fn every_response_kind_bytes_are_frozen() {
    let [completed, abandoned] = reports();
    let frozen = [
        (
            Response::form_from(empty_outcome()),
            r#"{"kind":"form","outcome":{"iterations":[],"feasible_vos":[],"selected":null,"total_seconds":0.0},"truncated":false,"gap":null}"#,
        ),
        (
            Response::market_form_from(empty_outcome(), Some((3, 9)), 8),
            r#"{"kind":"form","outcome":{"iterations":[],"feasible_vos":[],"selected":null,"total_seconds":0.0},"truncated":false,"gap":null,"lease":3,"lease_epoch":9,"formed_epoch":8}"#,
        ),
        (Response::Execute { outcome: empty_outcome(), report: Some(completed) }, COMPLETED_LINE),
        (Response::Execute { outcome: empty_outcome(), report: Some(abandoned) }, ABANDONED_LINE),
        (
            Response::Execute { outcome: empty_outcome(), report: None },
            r#"{"kind":"execute","outcome":{"iterations":[],"feasible_vos":[],"selected":null,"total_seconds":0.0},"report":null}"#,
        ),
        (Response::Ack { epoch: 4, id: Some(2) }, r#"{"kind":"ack","epoch":4,"id":2}"#),
        (Response::Ack { epoch: 5, id: None }, r#"{"kind":"ack","epoch":5,"id":null}"#),
        (
            Response::ReaderStalled { unread_bytes: 4_196_196 },
            r#"{"kind":"reader_stalled","unread_bytes":4196196}"#,
        ),
        (
            Response::Registry {
                snapshot: RegistrySnapshot {
                    epoch: 3,
                    gsps: 2,
                    tasks: 4,
                    reputation: vec![0.625, 0.375],
                    power_iterations: 12,
                    events: 3,
                },
                epoch: Some(3),
            },
            r#"{"kind":"registry","snapshot":{"epoch":3,"gsps":2,"tasks":4,"reputation":[0.625,0.375],"power_iterations":12,"events":3},"epoch":3}"#,
        ),
        (
            Response::Metrics {
                snapshot: Metrics::new().snapshot(
                    CacheStats { hits: 3, misses: 1, entries: 2 },
                    MarketGauges::default(),
                ),
            },
            METRICS_LINE,
        ),
        (Response::Pong, r#"{"kind":"pong"}"#),
        (Response::Busy, r#"{"kind":"busy"}"#),
        (Response::DeadlineExceeded, r#"{"kind":"deadline_exceeded"}"#),
        (Response::UnknownLease { lease: 2 }, r#"{"kind":"unknown_lease","lease":2}"#),
        (Response::Leased { gsp: 2, lease: 4 }, r#"{"kind":"leased","gsp":2,"lease":4}"#),
        (
            Response::Error { message: "queue \"exploded\"".to_string() },
            r#"{"kind":"error","message":"queue \"exploded\""}"#,
        ),
    ];
    for (response, line) in frozen {
        assert_eq!(encode(&response), line);
        assert_eq!(decode::<Response>(line).unwrap(), response, "{line}");
    }
}

#[test]
fn op_and_kind_name_the_encoded_tag() {
    let requests = [
        Request::Form { seed: 1, mechanism: MechanismKind::Tvof, deadline_ms: None, app: None },
        Request::FormBatch { seeds: vec![1], mechanism: MechanismKind::Tvof, deadline_ms: None },
        Request::Execute {
            seed: 1,
            mechanism: MechanismKind::Tvof,
            faults: FaultPlan::empty(),
            deadline_ms: None,
        },
        Request::AddGsp { speed_gflops: 1.0, cost: vec![], time: vec![] },
        Request::RemoveGsp { id: 0 },
        Request::ReportTrust { from: 0, to: 1, value: 0.5 },
        Request::ReportReceipt { receipt: ExecutionReceipt::new(0, 1, true, 1.0, vec![0]) },
        Request::Release { lease: 1, abandon: false },
        Request::Leases,
        Request::Registry,
        Request::Metrics,
        Request::Ping { sleep_ms: 0 },
    ];
    for request in requests {
        assert_eq!(tag(&encode(&request), "op"), request.op(), "{request:?}");
    }
    let [completed, _] = reports();
    let responses = [
        Response::form_from(empty_outcome()),
        Response::Execute { outcome: empty_outcome(), report: Some(completed) },
        Response::Ack { epoch: 1, id: None },
        Response::BatchEnd { epoch: 1, served: 0 },
        Response::ReaderStalled { unread_bytes: 0 },
        Response::Registry {
            snapshot: RegistrySnapshot {
                epoch: 0,
                gsps: 0,
                tasks: 0,
                reputation: vec![],
                power_iterations: 0,
                events: 0,
            },
            epoch: None,
        },
        Response::Metrics {
            snapshot: Metrics::new()
                .snapshot(CacheStats { hits: 0, misses: 0, entries: 0 }, MarketGauges::default()),
        },
        Response::Leases { leases: vec![], free: vec![], epoch: 0 },
        Response::PoolExhausted { free: 0 },
        Response::Throttled,
        Response::Pong,
        Response::Busy,
        Response::DeadlineExceeded,
        Response::UnknownLease { lease: 0 },
        Response::Leased { gsp: 0, lease: 0 },
        Response::Error { message: String::new() },
    ];
    for response in responses {
        assert_eq!(tag(&encode(&response), "kind"), response.kind(), "{response:?}");
    }
}

#[test]
fn absent_or_null_mechanism_decodes_as_tvof() {
    for line in [
        r#"{"op":"form","seed":3}"#,
        r#"{"op":"form","seed":3,"mechanism":null}"#,
        r#"{"op":"form","seed":3,"mechanism":null,"deadline_ms":null}"#,
    ] {
        assert_eq!(
            decode::<Request>(line).unwrap(),
            Request::Form { seed: 3, mechanism: MechanismKind::Tvof, deadline_ms: None, app: None },
            "{line}"
        );
    }
    for line in [
        r#"{"op":"form_batch","seeds":[2]}"#,
        r#"{"op":"form_batch","seeds":[2],"mechanism":null}"#,
    ] {
        assert_eq!(
            decode::<Request>(line).unwrap(),
            Request::FormBatch {
                seeds: vec![2],
                mechanism: MechanismKind::Tvof,
                deadline_ms: None
            },
            "{line}"
        );
    }
    for line in [
        r#"{"op":"execute","seed":4,"faults":{"events":[]}}"#,
        r#"{"op":"execute","seed":4,"mechanism":null,"faults":{"events":[]}}"#,
    ] {
        assert_eq!(
            decode::<Request>(line).unwrap(),
            Request::Execute {
                seed: 4,
                mechanism: MechanismKind::Tvof,
                faults: FaultPlan::empty(),
                deadline_ms: None,
            },
            "{line}"
        );
    }
}

#[test]
fn absent_or_null_abandon_decodes_as_false() {
    for line in [
        r#"{"op":"release_lease","lease":6}"#,
        r#"{"op":"release_lease","lease":6,"abandon":null}"#,
    ] {
        assert_eq!(
            decode::<Request>(line).unwrap(),
            Request::Release { lease: 6, abandon: false },
            "{line}"
        );
    }
}

#[test]
fn extra_keys_are_ignored_and_key_order_is_free() {
    assert_eq!(
        decode::<Request>(r#"{"mechanism":"rvof","x":[1,{"y":null}],"seed":3,"op":"form"}"#)
            .unwrap(),
        Request::Form { seed: 3, mechanism: MechanismKind::Rvof, deadline_ms: None, app: None }
    );
    assert_eq!(
        decode::<Request>(r#"{"abandon":true,"lease":2,"op":"release_lease","why":"done"}"#)
            .unwrap(),
        Request::Release { lease: 2, abandon: true }
    );
    assert_eq!(
        decode::<Response>(r#"{"served":5,"extra":"x","epoch":17,"kind":"batch_end"}"#).unwrap(),
        Response::BatchEnd { epoch: 17, served: 5 }
    );
    let plan: FaultPlan = serde_json::from_str(
        r#"{"note":1,"events":[{"kind":{"factor":2.0,"kind":"slowdown"},"gsp":1,"round":0,"z":0}]}"#,
    )
    .unwrap();
    assert_eq!(
        plan,
        FaultPlan::new(vec![FaultEvent {
            round: 0,
            gsp: 1,
            kind: FaultKind::Slowdown { factor: 2.0 }
        }])
    );
}

#[test]
fn a_line_nested_past_128_levels_is_refused_at_its_129th_container() {
    // The request object is level 1, so 127 arrays inside it are the
    // deepest a line may nest, and the 128th array is refused.
    let ping = |arrays: usize| {
        format!(r#"{{"op":"ping","sleep_ms":0,"x":{}{}}}"#, "[".repeat(arrays), "]".repeat(arrays))
    };
    assert_eq!(decode::<Request>(&ping(127)), Ok(Request::Ping { sleep_ms: 0 }));
    let refused = decode::<Request>(&ping(128)).unwrap_err();
    assert_eq!(refused, "recursion limit exceeded at byte 157");
    assert_eq!(
        encode(&Response::Error { message: format!("bad request: {refused}") }),
        r#"{"kind":"error","message":"bad request: recursion limit exceeded at byte 157"}"#
    );
}

#[test]
fn a_line_past_the_length_cap_is_answered_with_frozen_bytes() {
    use std::io::{BufRead, BufReader, Write};
    let handle = ServerHandle::spawn(&scenario(), ServerConfig::default()).expect("bind loopback");
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let mut line = vec![b'{'; MAX_LINE_BYTES + 1];
    line.push(b'\n');
    stream.write_all(&line).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert_eq!(
        reply,
        "{\"kind\":\"error\",\"message\":\"bad request: line longer than 4194304 bytes\"}\n"
    );
    handle.shutdown();
}

#[test]
fn decoded_plan_events_come_back_sorted_by_round() {
    let line = r#"{"op":"execute","seed":1,"mechanism":"tvof","faults":{"events":[{"round":3,"gsp":0,"kind":{"kind":"crash"}},{"round":1,"gsp":2,"kind":{"kind":"silent_drop","tasks":1}},{"round":1,"gsp":1,"kind":{"kind":"crash"}}]},"deadline_ms":null}"#;
    let Request::Execute { faults, .. } = decode::<Request>(line).unwrap() else {
        panic!("expected an execute request");
    };
    let order: Vec<(usize, usize)> = faults.events().iter().map(|e| (e.round, e.gsp)).collect();
    // Stable: events within a round keep their given order.
    assert_eq!(order, [(1, 2), (1, 1), (3, 0)]);
}
