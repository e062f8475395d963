//! Golden wire-format tests: the exact bytes of the `form_batch`
//! request / response shapes are frozen here so a refactor that
//! reorders fields, renames a tag, or changes null handling fails
//! loudly instead of silently breaking old clients. The legacy-parse
//! tests pin the tolerant half of the contract: lines written by
//! older daemons/clients (missing optional fields) must still decode,
//! with the absent fields coming back as their defaults / `None`.

use gridvo_core::mechanism::FormationConfig;
use gridvo_core::FormationScenario;
use gridvo_service::protocol::{decode, encode, MechanismKind, Request, Response};
use gridvo_service::GspRegistry;
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
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
