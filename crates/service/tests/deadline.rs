//! Regression test for the dequeue-only deadline hole: before the
//! anytime budget existed, `deadline_ms` was only checked when a
//! worker *dequeued* a job — a request dequeued in time but landing on
//! a slow instance would then solve to completion, holding its worker
//! (and the client) for however long the exact search took. The
//! deadline must now bound the solve itself: a tiny deadline on a
//! large instance comes back promptly with either an anytime
//! formation (`truncated: Some(true)`, gap attached) or a
//! `DeadlineExceeded` shed.

use std::time::{Duration, Instant};

use gridvo_service::client::ServiceClient;
use gridvo_service::protocol::{MechanismKind, Request, Response};
use gridvo_service::server::{ServerConfig, ServerHandle};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use rand::SeedableRng;

/// Well past any deadline+overhead bound, far below the unbudgeted
/// solve time of a 32-GSP exact search (minutes to much worse).
const PROMPTNESS_BOUND: Duration = Duration::from_secs(30);

#[test]
fn tiny_deadline_on_a_large_instance_returns_promptly() {
    // 32 GSPs x 64 tasks: far beyond what a 50 ms exact solve can
    // prove optimal, so the deadline must trip mid-search.
    let cfg = TableI { gsps: 32, task_sizes: vec![64], trace_jobs: 2_000, ..TableI::default() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9E57);
    let scenario =
        ScenarioGenerator::new(cfg).scenario(64, &mut rng).expect("feasible large scenario");

    let handle = ServerHandle::spawn(&scenario, ServerConfig::default()).expect("server spawns");
    let mut client = ServiceClient::connect(handle.addr()).expect("client connects");

    let started = Instant::now();
    let response = client
        .request(&Request::Form {
            seed: 7,
            mechanism: MechanismKind::Tvof,
            deadline_ms: Some(50),
            app: None,
        })
        .expect("request served");
    let elapsed = started.elapsed();

    assert!(
        elapsed < PROMPTNESS_BOUND,
        "deadline-bounded request took {elapsed:?} — the deadline did not bound the solve"
    );
    match &response {
        Response::Form { outcome, truncated, gap, .. } => {
            // The anytime contract: the summary fields are present,
            // consistent with the records, and any selected VO's cost
            // is a genuinely feasible assignment.
            let any_unproven = outcome.feasible_vos.iter().any(|v| !v.optimal);
            assert_eq!(*truncated, Some(any_unproven));
            if let Some(vo) = &outcome.selected {
                assert_eq!(*gap, vo.gap);
                if !vo.optimal {
                    assert!(
                        vo.gap.is_some_and(|g| (0.0..=1.0).contains(&g)),
                        "anytime VO must report a finite gap, got {:?}",
                        vo.gap
                    );
                }
            }
            if *truncated == Some(true) {
                assert!(
                    handle.metrics_snapshot().anytime_served >= 1,
                    "anytime serves must be counted"
                );
            }
        }
        Response::DeadlineExceeded => {
            // Also a legal prompt answer: the job waited out its 50 ms
            // in the queue before a worker picked it up.
        }
        other => panic!("expected form or deadline_exceeded, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn unlimited_deadline_still_proves_optimality_on_small_instances() {
    // The budget plumbing must not leak into the no-deadline path:
    // a small request without deadline_ms is solved exactly.
    let cfg = TableI { task_sizes: vec![12], gsps: 5, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    let scenario =
        ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario");

    let handle = ServerHandle::spawn(&scenario, ServerConfig::default()).expect("server spawns");
    let mut client = ServiceClient::connect(handle.addr()).expect("client connects");
    let response = client
        .request(&Request::Form {
            seed: 3,
            mechanism: MechanismKind::Tvof,
            deadline_ms: None,
            app: None,
        })
        .expect("request served");
    match response {
        Response::Form { outcome, truncated, gap, .. } => {
            assert_eq!(truncated, Some(false));
            assert!(outcome.feasible_vos.iter().all(|v| v.optimal && v.gap == Some(0.0)));
            assert_eq!(gap, outcome.selected.as_ref().and_then(|v| v.gap));
        }
        other => panic!("expected form, got {other:?}"),
    }
    assert_eq!(handle.metrics_snapshot().anytime_served, 0);
    handle.shutdown();
}
