//! Differential tests for the batch formation API: `form_batch` of K
//! seeds must be **byte-identical** to K sequential `form` requests
//! against a quiesced daemon — cache-cold and cache-warm — because a
//! batch is only a transport optimization (one snapshot pin, one
//! cache-probe pass), never a semantic one.

use gridvo_core::FormationScenario;
use gridvo_service::protocol::{encode, MechanismKind, Response};
use gridvo_service::{ServerConfig, ServerHandle, ServiceClient};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use rand::SeedableRng;

const SEEDS: [u64; 4] = [3, 42, 42, 17]; // a repeat inside one batch is legal

fn scenario() -> FormationScenario {
    let cfg = TableI { task_sizes: vec![12], gsps: 5, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario")
}

fn spawn(config: ServerConfig) -> ServerHandle {
    ServerHandle::spawn(&scenario(), config).expect("bind loopback")
}

/// Serve `SEEDS` one `form` at a time; return each response's wire
/// encoding.
fn sequential_lines(client: &mut ServiceClient, kind: MechanismKind) -> Vec<String> {
    SEEDS
        .iter()
        .map(|&seed| {
            let response = client.form(seed, kind, None).expect("form served");
            assert!(matches!(response, Response::Form { .. }));
            encode(&response)
        })
        .collect()
}

/// Serve `SEEDS` as one batch; return `(form lines, batch_end)`.
fn batch_lines(client: &mut ServiceClient, kind: MechanismKind) -> (Vec<String>, Response) {
    let responses = client.form_batch(&SEEDS, kind, None).expect("batch served");
    let (tail, forms) = responses.split_last().expect("batch streams lines");
    for form in forms {
        assert!(matches!(form, Response::Form { .. }));
    }
    (forms.iter().map(encode).collect(), tail.clone())
}

#[test]
fn cold_batch_is_byte_identical_to_sequential_forms() {
    let handle = spawn(ServerConfig::default());
    let addr = handle.addr();

    // Cold pass: the batch solves everything itself. Compare against
    // a *second* daemon serving the same seeds sequentially so
    // neither side warms the other's cache.
    let twin = spawn(ServerConfig::default());
    let mut batch_client = ServiceClient::connect(addr).unwrap();
    let mut seq_client = ServiceClient::connect(twin.addr()).unwrap();

    let (batched, tail) = batch_lines(&mut batch_client, MechanismKind::Tvof);
    let sequential = sequential_lines(&mut seq_client, MechanismKind::Tvof);
    assert_eq!(batched, sequential, "a cold batch diverged from sequential forms");
    match tail {
        Response::BatchEnd { epoch, served } => {
            assert_eq!(epoch, 0, "no mutations happened; the pinned snapshot is epoch 0");
            assert_eq!(served as usize, SEEDS.len());
        }
        other => panic!("expected batch_end, got {other:?}"),
    }
    handle.shutdown();
    twin.shutdown();
}

#[test]
fn warm_batch_replays_the_same_bytes_from_cache() {
    let handle = spawn(ServerConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    // Warm the cache with the sequential pass, then batch the same
    // seeds on the same daemon: every solve must come from cache, and
    // every byte must match.
    let sequential = sequential_lines(&mut client, MechanismKind::Tvof);
    let warm = client.metrics().unwrap();

    let (batched, _tail) = batch_lines(&mut client, MechanismKind::Tvof);
    let after = client.metrics().unwrap();

    assert_eq!(batched, sequential, "a warm batch diverged from the sequential pass");
    assert_eq!(
        after.cache_misses, warm.cache_misses,
        "a batch over already-solved seeds must not miss the cache"
    );
    assert!(after.cache_hits > warm.cache_hits, "the warm batch must hit the cache");
    assert_eq!(after.batch_requests, 1, "the batch must be metered as one batch request");
    handle.shutdown();
}

#[test]
fn batch_respects_the_requested_mechanism() {
    let handle = spawn(ServerConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    let (rvof_batch, _) = batch_lines(&mut client, MechanismKind::Rvof);
    let rvof_seq = sequential_lines(&mut client, MechanismKind::Rvof);
    assert_eq!(rvof_batch, rvof_seq);

    let (tvof_batch, _) = batch_lines(&mut client, MechanismKind::Tvof);
    assert_ne!(
        rvof_batch, tvof_batch,
        "tvof and rvof disagree on this scenario; identical bytes would mean the \
         mechanism flag was dropped"
    );
    handle.shutdown();
}

#[test]
fn empty_batch_is_just_a_terminator() {
    let handle = spawn(ServerConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    let responses = client.form_batch(&[], MechanismKind::Tvof, None).unwrap();
    assert_eq!(responses.len(), 1);
    assert!(matches!(responses[0], Response::BatchEnd { epoch: 0, served: 0 }));

    // The connection is still usable afterwards.
    assert_eq!(client.ping(0).unwrap(), Response::Pong);
    handle.shutdown();
}
