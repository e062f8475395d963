//! End-to-end tests for the concurrent multi-VO market: lease
//! lifecycle over the wire, contention-aware admission (PoolExhausted
//! / Busy / Throttled), TTL expiry, lease-aware caching semantics,
//! and crash-recovery of the lease table.

use std::time::Duration;

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::FormationScenario;
use gridvo_service::protocol::encode;
use gridvo_service::{
    MechanismKind, PersistConfig, Response, ServerConfig, ServerHandle, ServiceClient,
};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_store::FsyncPolicy;
use rand::SeedableRng;

/// Pool size used by the shared fixture: large enough that the first
/// winning coalition leaves a feasible free sub-pool behind.
const POOL: usize = 12;

fn scenario(gsps: usize) -> FormationScenario {
    let cfg = TableI { task_sizes: vec![12], gsps, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario")
}

fn spawn(config: ServerConfig) -> (ServerHandle, ServiceClient) {
    let handle = ServerHandle::spawn(&scenario(POOL), config).expect("server spawns");
    let client = ServiceClient::connect(handle.addr()).expect("client connects");
    (handle, client)
}

fn form_leased(client: &mut ServiceClient, app: &str, seed: u64) -> (u64, Vec<usize>) {
    match client.form_in_app(app, seed, MechanismKind::Tvof, None).expect("form served") {
        Response::Form { outcome, lease: Some(lease), .. } => {
            (lease, outcome.selected.expect("leased form selected a VO").members)
        }
        other => panic!("expected a leased form, got {other:?}"),
    }
}

#[test]
fn lease_lifecycle_over_the_wire() {
    let (handle, mut client) = spawn(ServerConfig::default());

    let (lease, members) = form_leased(&mut client, "atlas", 3);
    assert!(!members.is_empty());

    let (leases, free, epoch) = client.leases().expect("leases served");
    assert_eq!(leases.len(), 1);
    assert_eq!(leases[0].id, lease);
    assert_eq!(leases[0].app, "atlas");
    assert_eq!(leases[0].members, members);
    assert!(free.iter().all(|g| !members.contains(g)), "free set excludes the leased coalition");
    assert_eq!(free.len() + members.len(), POOL);
    assert!(epoch >= 1);

    // A second application forms over the leftovers only.
    let (lease2, members2) = form_leased(&mut client, "beta", 4);
    assert_ne!(lease, lease2);
    assert!(
        members2.iter().all(|g| !members.contains(g)),
        "no GSP may be leased to two live VOs: {members:?} vs {members2:?}"
    );

    // Release both; the pool is whole again.
    client.release_lease(lease, false).expect("complete");
    client.release_lease(lease2, true).expect("abandon");
    let (leases, free, _) = client.leases().expect("leases served");
    assert!(leases.is_empty());
    assert_eq!(free, (0..POOL).collect::<Vec<usize>>());

    // Releasing a dead lease is a typed error, not a panic.
    let err = client.release_lease(lease, false).expect_err("double release refused");
    assert!(err.to_string().contains("unknown lease"), "got: {err}");

    let m = handle.metrics_snapshot();
    assert_eq!(m.leases_acquired, 2);
    assert_eq!(m.leases_released, 2);
    assert_eq!((m.committed_gsps, m.live_leases), (0, 0));
    handle.shutdown();
}

#[test]
fn plain_form_bytes_are_unchanged_and_idle_market_matches_them() {
    // The market must not perturb the pre-market wire contract: a
    // plain `form` is byte-identical to the direct library call, and
    // an idle-market `form --app` computes the *same outcome* (it runs
    // the full scenario, so it shares the cache with the plain path).
    let s = scenario(6);
    let handle = ServerHandle::spawn(&s, ServerConfig::default()).expect("server spawns");
    let mut client = ServiceClient::connect(handle.addr()).expect("client connects");

    let plain = client.form(11, MechanismKind::Tvof, None).expect("plain form");
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut direct =
        Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).expect("direct run");
    direct.zero_timings();
    assert_eq!(
        encode(&plain),
        encode(&Response::form_from(direct.clone())),
        "plain form must stay byte-identical to the library"
    );

    match client.form_in_app("atlas", 11, MechanismKind::Tvof, None).expect("market form") {
        Response::Form { outcome, lease, formed_epoch, .. } => {
            assert!(lease.is_some(), "idle pool: the winning coalition is leased");
            assert_eq!(formed_epoch, Some(0), "formed against the boot epoch");
            assert_eq!(outcome, direct, "idle market outcome equals the plain outcome");
        }
        other => panic!("expected form, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn exhausted_pool_sheds_with_a_typed_response() {
    // min_free = pool size: the first lease starves every later
    // market form until it is released.
    let config = ServerConfig { min_free: POOL, ..ServerConfig::default() };
    let (handle, mut client) = spawn(config);

    let (lease, _) = form_leased(&mut client, "atlas", 3);
    match client.form_in_app("beta", 4, MechanismKind::Tvof, None).expect("request served") {
        Response::PoolExhausted { free } => assert!(free < POOL),
        other => panic!("expected pool_exhausted, got {other:?}"),
    }
    assert_eq!(handle.metrics_snapshot().pool_exhausted_rejections, 1);

    client.release_lease(lease, false).expect("release");
    let (_, members) = form_leased(&mut client, "beta", 4);
    assert!(!members.is_empty(), "freed pool serves the next application");
    handle.shutdown();
}

#[test]
fn leased_gsps_cannot_be_removed() {
    let (handle, mut client) = spawn(ServerConfig::default());
    let (lease, members) = form_leased(&mut client, "atlas", 3);
    let err = client.remove_gsp(members[0]).expect_err("leased GSP removal refused");
    assert!(err.to_string().contains("committed to live lease"), "got: {err}");

    // After release the same GSP can leave the grid.
    client.release_lease(lease, false).expect("release");
    client.remove_gsp(members[0]).expect("free GSP removed");
    handle.shutdown();
}

#[test]
fn rate_limit_throttles_hot_connections() {
    // burst = max(rate, 1) = 1 token: the first request spends it and
    // immediate follow-ups are throttled until the bucket refills.
    let config = ServerConfig { rate_limit: Some(0.001), ..ServerConfig::default() };
    let (handle, mut client) = spawn(config);

    let first = client.ping(0).expect("first request inside the burst");
    assert!(matches!(first, Response::Pong), "got {first:?}");
    let mut throttled = 0;
    for _ in 0..3 {
        if matches!(client.ping(0).expect("request served"), Response::Throttled) {
            throttled += 1;
        }
    }
    assert!(throttled >= 2, "empty bucket must throttle immediate retries ({throttled}/3)");
    assert!(handle.metrics_snapshot().throttled_rejections >= 2);

    // A fresh connection gets its own bucket.
    let mut other = ServiceClient::connect(handle.addr()).expect("second client");
    assert!(matches!(other.ping(0).expect("served"), Response::Pong));
    handle.shutdown();
}

#[test]
fn per_app_queue_bound_sheds_the_greedy_application() {
    // One worker pinned by a slow ping; app "greedy" may hold only one
    // queued form, so its second concurrent form sheds Busy while a
    // different app still enters the queue.
    let config = ServerConfig {
        workers: 1,
        app_queue_capacity: 1,
        default_deadline_ms: 0,
        ..ServerConfig::default()
    };
    let (handle, _client) = spawn(config);
    let addr = handle.addr();

    let pinner = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).expect("pinner connects");
        c.ping(400).expect("slow ping served")
    });
    std::thread::sleep(Duration::from_millis(100)); // let the ping occupy the worker

    let submit = |app: &'static str, seed: u64| {
        let mut c = ServiceClient::connect(addr).expect("submitter connects");
        let handle = std::thread::spawn(move || {
            c.form_in_app(app, seed, MechanismKind::Tvof, None).expect("request served")
        });
        std::thread::sleep(Duration::from_millis(100)); // let it enqueue
        handle
    };
    let first = submit("greedy", 1);
    // While `greedy`'s first form waits, its depth gauge is visible…
    let depths = handle.metrics_snapshot().app_queue_depths;
    assert!(
        depths.iter().any(|d| d.app == "greedy" && d.depth == 1),
        "expected greedy at depth 1, got {depths:?}"
    );
    // …its second form sheds, and another app still enters.
    let mut c2 = ServiceClient::connect(addr).expect("greedy-2 connects");
    let second = c2.form_in_app("greedy", 2, MechanismKind::Tvof, None).expect("served");
    assert!(matches!(second, Response::Busy), "over-quota app must shed Busy, got {second:?}");
    let third = submit("modest", 3);

    assert!(matches!(pinner.join().expect("pinner"), Response::Pong));
    assert!(matches!(first.join().expect("first"), Response::Form { .. }));
    // `modest` was *admitted* (the per-app bound is per app, not
    // global); by the time it runs, greedy's lease may have drained
    // the pool, so a typed PoolExhausted is also a served answer.
    assert!(matches!(
        third.join().expect("third"),
        Response::Form { .. } | Response::PoolExhausted { .. }
    ));
    // Slots drain with the jobs.
    assert!(handle.metrics_snapshot().app_queue_depths.is_empty());
    handle.shutdown();
}

#[test]
fn expired_leases_are_swept_and_counted() {
    let config = ServerConfig { lease_ttl_ms: 60, ..ServerConfig::default() };
    let (handle, mut client) = spawn(config);

    let (lease, _) = form_leased(&mut client, "atlas", 3);
    let (leases, _, _) = client.leases().expect("leases served");
    assert_eq!(leases.len(), 1, "inside the TTL the lease is live");

    std::thread::sleep(Duration::from_millis(120));
    let (leases, free, _) = client.leases().expect("leases served");
    assert!(leases.is_empty(), "past the TTL the sweep releases the lease");
    assert_eq!(free.len(), POOL);
    let m = handle.metrics_snapshot();
    assert_eq!((m.leases_expired, m.leases_released), (1, 0));

    let err = client.release_lease(lease, false).expect_err("expired lease is gone");
    assert!(err.to_string().contains("unknown lease"));
    handle.shutdown();
}

#[test]
fn lease_table_survives_restart() {
    let dir = std::env::temp_dir().join(format!("gridvo-market-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persist =
        PersistConfig { dir: dir.clone(), fsync: FsyncPolicy::Off, compact_bytes: u64::MAX };
    let config = ServerConfig { persistence: Some(persist.clone()), ..ServerConfig::default() };
    let (handle, mut client) = spawn(config.clone());
    let (lease, members) = form_leased(&mut client, "atlas", 3);
    let (lease2, _) = form_leased(&mut client, "beta", 4);
    client.release_lease(lease2, true).expect("abandon beta");
    drop(client);
    handle.shutdown();

    // Reboot on the same journal: the lease set is exactly restored
    // and new leases continue the id sequence.
    let handle = ServerHandle::spawn(&scenario(POOL), config).expect("server reboots");
    let mut client = ServiceClient::connect(handle.addr()).expect("client reconnects");
    assert!(handle.recovered_epoch().is_some());
    let (leases, free, _) = client.leases().expect("leases served");
    assert_eq!(leases.len(), 1);
    assert_eq!((leases[0].id, leases[0].members.clone()), (lease, members));
    assert_eq!(handle.metrics_snapshot().committed_gsps, leases[0].members.len());

    let (lease3, _) = form_leased(&mut client, "gamma", 5);
    assert!(lease3 > lease2, "lease ids must not be recycled across restarts");
    assert!(free.len() >= leases[0].members.len());
    client.release_lease(lease, false).expect("pre-crash lease releases after recovery");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
