//! Differential tests: the daemon must be a *transparent* wrapper
//! around the core library.
//!
//! The load-bearing assertions:
//!
//! * a served `form` / `execute` request is **byte-identical** to the
//!   direct `Mechanism` call on the same scenario and seed (after
//!   timing canonicalization on both sides);
//! * a repeated identical request is served **from the solve cache**
//!   (hits counted in metrics) with the **same bytes**;
//! * a trust / receipt update evicts cache entries **narrowly** — only
//!   solves whose member set includes a touched GSP — and the replay
//!   still serves identical bytes (hygiene eviction, never staleness;
//!   `tests/cache_invalidation.rs` holds the full interleaving);
//! * admission control sheds load with typed `Busy` /
//!   `DeadlineExceeded` responses instead of hanging or panicking.

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::FormationScenario;
use gridvo_service::protocol::{MechanismKind, Response};
use gridvo_service::{ServerConfig, ServerHandle, ServiceClient};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use rand::SeedableRng;

fn scenario() -> FormationScenario {
    let cfg = TableI { task_sizes: vec![12], gsps: 5, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario")
}

fn spawn(config: ServerConfig) -> (ServerHandle, FormationScenario) {
    let s = scenario();
    let handle = ServerHandle::spawn(&s, config).expect("bind loopback");
    (handle, s)
}

fn direct_form(s: &FormationScenario, seed: u64) -> gridvo_core::FormationOutcome {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut outcome =
        Mechanism::tvof(FormationConfig::default()).run(s, &mut rng).expect("formation runs");
    outcome.zero_timings();
    outcome
}

#[test]
fn served_form_is_bit_identical_to_direct_call() {
    let (handle, s) = spawn(ServerConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    let served = match client.form(42, MechanismKind::Tvof, None).unwrap() {
        Response::Form { outcome, .. } => outcome,
        other => panic!("expected form response, got {other:?}"),
    };
    let direct = direct_form(&s, 42);
    assert_eq!(
        serde_json::to_string(&served).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "served formation differs from the direct library call"
    );
    handle.shutdown();
}

#[test]
fn repeated_form_is_served_from_cache_with_same_bytes() {
    let (handle, _s) = spawn(ServerConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    let first = client.form(7, MechanismKind::Tvof, None).unwrap();
    let after_first = client.metrics().unwrap();
    assert!(after_first.cache_misses > 0, "first request must populate the cache");

    let second = client.form(7, MechanismKind::Tvof, None).unwrap();
    let after_second = client.metrics().unwrap();

    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap(),
        "cache replay changed the served bytes"
    );
    assert_eq!(
        after_second.cache_misses, after_first.cache_misses,
        "replay of an identical request must not miss the cache"
    );
    assert!(
        after_second.cache_hits >= after_first.cache_hits + after_first.cache_misses,
        "every solve of the replay must hit the cache"
    );
    handle.shutdown();
}

#[test]
fn served_execute_is_bit_identical_to_direct_call() {
    let (handle, s) = spawn(ServerConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    // Build the fault plan against the direct formation's VO so both
    // sides replay the identical schedule.
    let direct_outcome = direct_form(&s, 3);
    let vo = direct_outcome.selected.clone().expect("feasible scenario selects a VO");
    let mut plan_rng = rand::rngs::StdRng::seed_from_u64(99);
    let plan = gridvo_sim::faults::FaultModel::with_rate(0.6, 3).plan(&vo.members, &mut plan_rng);

    let mech = Mechanism::tvof(FormationConfig::default());
    let mut direct_report = mech.execute(&s, &vo, &plan).expect("execution runs");
    direct_report.zero_timings();

    let (served_outcome, served_report) =
        match client.execute(3, MechanismKind::Tvof, plan, None).unwrap() {
            Response::Execute { outcome, report } => (outcome, report),
            other => panic!("expected execute response, got {other:?}"),
        };
    assert_eq!(
        serde_json::to_string(&served_outcome).unwrap(),
        serde_json::to_string(&direct_outcome).unwrap(),
    );
    assert_eq!(
        serde_json::to_string(&served_report.expect("VO selected")).unwrap(),
        serde_json::to_string(&direct_report).unwrap(),
        "served execution differs from the direct library call"
    );
    handle.shutdown();
}

#[test]
fn trust_updates_evict_narrowly_and_replays_stay_identical() {
    let (handle, s) = spawn(ServerConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    let first = client.form(11, MechanismKind::Tvof, None).unwrap();
    let warm = client.metrics().unwrap();

    // An identical replay is served straight from the cache.
    let replay = client.form(11, MechanismKind::Tvof, None).unwrap();
    let hot = client.metrics().unwrap();
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&replay).unwrap(),
        "a cached replay changed the served bytes"
    );
    assert_eq!(hot.cache_misses, warm.cache_misses, "an identical replay must hit the cache");

    // Re-report an existing edge at its current weight: the epoch
    // advances but reputations — and thus the eviction order and the
    // solved instances — are unchanged. The update *does* drop the
    // cached solves whose member set includes the touched GSPs
    // (hygiene eviction), so the replay re-solves those — but the
    // bytes it serves must not move.
    let existing = s.trust().edges().next().expect("generated scenario has trust edges");
    let epoch = client.report_trust(existing.0, existing.1, existing.2).unwrap();
    assert_eq!(epoch, 1, "trust report must bump the registry epoch");

    let second = client.form(11, MechanismKind::Tvof, None).unwrap();
    let after = client.metrics().unwrap();

    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap(),
        "a no-op trust update changed the served bytes"
    );
    assert!(
        after.cache_misses > hot.cache_misses,
        "touching a formed member's trust edge must evict its cached solves"
    );
    handle.shutdown();
}

#[test]
fn full_queue_sheds_load_with_typed_busy() {
    let (handle, _s) =
        spawn(ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() });
    let addr = handle.addr();

    // Occupy the single worker with a long ping, then fill the
    // 1-deep queue with a second; the third must be shed as Busy.
    let holder = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).unwrap();
        c.ping(600).unwrap()
    });
    std::thread::sleep(std::time::Duration::from_millis(150));
    let filler = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).unwrap();
        c.ping(0).unwrap()
    });
    std::thread::sleep(std::time::Duration::from_millis(150));

    let mut shed = ServiceClient::connect(addr).unwrap();
    let response = shed.ping(0).unwrap();
    assert_eq!(response, Response::Busy, "a full queue must shed load, not hang");

    assert_eq!(holder.join().unwrap(), Response::Pong);
    assert_eq!(filler.join().unwrap(), Response::Pong);
    let metrics = shed.metrics().unwrap();
    assert!(metrics.busy_rejections >= 1, "the shed must be counted");
    handle.shutdown();
}

#[test]
fn stale_queued_requests_are_dropped_at_their_deadline() {
    let (handle, _s) =
        spawn(ServerConfig { workers: 1, queue_capacity: 16, ..ServerConfig::default() });
    let addr = handle.addr();

    let holder = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).unwrap();
        c.ping(500).unwrap()
    });
    std::thread::sleep(std::time::Duration::from_millis(100));

    // Queued behind a 500 ms ping with a 50 ms deadline: by the time
    // a worker picks it up, the deadline has passed.
    let mut client = ServiceClient::connect(addr).unwrap();
    let response = client.form(1, MechanismKind::Tvof, Some(50)).unwrap();
    assert_eq!(response, Response::DeadlineExceeded);

    assert_eq!(holder.join().unwrap(), Response::Pong);
    let metrics = client.metrics().unwrap();
    assert!(metrics.deadline_rejections >= 1);
    handle.shutdown();
}

#[test]
fn registry_mutations_flow_through_the_wire() {
    let (handle, s) = spawn(ServerConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    let before = client.registry().unwrap();
    assert_eq!(before.epoch, 0);
    assert_eq!(before.gsps, s.gsp_count());

    let tasks = s.task_count();
    let (id, epoch) = client.add_gsp(120.0, vec![2.0; tasks], vec![0.5; tasks]).unwrap();
    assert_eq!(id, s.gsp_count());
    assert_eq!(epoch, 1);

    let epoch = client.remove_gsp(id).unwrap();
    assert_eq!(epoch, 2);

    let after = client.registry().unwrap();
    assert_eq!(after.gsps, s.gsp_count());
    assert_eq!(after.events, 2);

    // Malformed mutations come back as typed errors, not hangs.
    assert!(client.remove_gsp(999).is_err());
    assert!(client.add_gsp(-1.0, vec![1.0; tasks], vec![1.0; tasks]).is_err());
    handle.shutdown();
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};

    let (handle, _s) = spawn(ServerConfig::default());
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    writer.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp: Response = gridvo_service::protocol::decode(line.trim()).unwrap();
    assert!(matches!(resp, Response::Error { .. }));

    // The same connection still serves well-formed requests.
    writer.write_all(b"{\"op\":\"ping\",\"sleep_ms\":0}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let resp: Response = gridvo_service::protocol::decode(line.trim()).unwrap();
    assert_eq!(resp, Response::Pong);
    handle.shutdown();
}

#[test]
fn rvof_requests_use_the_requested_mechanism() {
    let (handle, s) = spawn(ServerConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    let served = match client.form(5, MechanismKind::Rvof, None).unwrap() {
        Response::Form { outcome, .. } => outcome,
        other => panic!("expected form response, got {other:?}"),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut direct =
        Mechanism::rvof(FormationConfig::default()).run(&s, &mut rng).expect("rvof runs");
    direct.zero_timings();
    assert_eq!(serde_json::to_string(&served).unwrap(), serde_json::to_string(&direct).unwrap(),);
    handle.shutdown();
}
