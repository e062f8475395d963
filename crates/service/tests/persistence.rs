//! Durability differentials: a daemon recovered from its data
//! directory must be indistinguishable — byte for byte — from one
//! that never went down, and the on-disk wire format must stay
//! stable.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use gridvo_core::reputation::ReputationEngine;
use gridvo_core::{ExecutionReceipt, FormationScenario, Gsp};
use gridvo_service::protocol::{MechanismKind, Response};
use gridvo_service::{
    DurableRegistry, GspRegistry, PersistConfig, RegistryEvent, ServerConfig, ServerHandle,
    ServiceClient,
};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_solver::AssignmentInstance;
use gridvo_store::{FsyncPolicy, JOURNAL_FILE};
use gridvo_trust::TrustGraph;
use rand::SeedableRng;

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scratch(name: &str) -> PathBuf {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("gridvo-svc-persist-{}-{name}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scenario() -> FormationScenario {
    let cfg = TableI { task_sizes: vec![12], gsps: 5, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario")
}

/// Two mutually trusting pairs, {0, 1} and {2, 3}. Each pair alone is
/// a two-cycle the uniform vector already solves, but any edge between
/// the pairs leaves the plain power method oscillating until its
/// iteration cap.
fn paired_scenario() -> FormationScenario {
    let gsps = (0..4).map(|k| Gsp::new(k, 100.0 - 10.0 * k as f64)).collect();
    let mut trust = TrustGraph::new(4);
    for (from, to) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
        trust.set_trust(from, to, 0.8);
    }
    let inst = AssignmentInstance::new(6, 4, vec![1.0; 24], vec![1.0; 24], 10.0, 100.0).unwrap();
    FormationScenario::new(gsps, trust, inst).unwrap()
}

fn persist(dir: &Path) -> PersistConfig {
    PersistConfig { data_dir: dir.to_path_buf(), fsync: FsyncPolicy::Off, compact_bytes: u64::MAX }
}

fn spawn(persistence: Option<PersistConfig>) -> ServerHandle {
    let config = ServerConfig { persistence, ..ServerConfig::default() };
    ServerHandle::spawn(&scenario(), config).expect("bind loopback")
}

/// The deterministic mutation stream both daemons are fed.
fn mutate(client: &mut ServiceClient, tasks: usize) {
    client.report_trust(0, 2, 0.9).unwrap();
    client.add_gsp(120.0, vec![2.0; tasks], vec![0.5; tasks]).unwrap();
    client.report_trust(5, 1, 0.7).unwrap();
    client.remove_gsp(3).unwrap();
    client.report_trust(2, 4, 0.4).unwrap();
    client.report_receipt(ExecutionReceipt::new(1, 1, true, 8.0, vec![0, 2])).unwrap();
    client.report_receipt(ExecutionReceipt::new(2, 4, false, 5.5, vec![1, 3])).unwrap();
}

fn form_bytes(client: &mut ServiceClient, seed: u64) -> String {
    match client.form(seed, MechanismKind::Tvof, None).unwrap() {
        Response::Form { outcome, .. } => serde_json::to_string(&outcome).unwrap(),
        other => panic!("expected form response, got {other:?}"),
    }
}

#[test]
fn recovered_daemon_is_byte_identical_to_an_uninterrupted_one() {
    let dir = scratch("differential");
    let tasks = scenario().task_count();

    // Durable daemon: mutate, capture, shut down.
    let handle = spawn(Some(persist(&dir)));
    assert_eq!(handle.recovered_epoch(), None, "a fresh data dir must bootstrap");
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    mutate(&mut client, tasks);
    let want_registry = serde_json::to_string(&client.registry().unwrap()).unwrap();
    let want_form = form_bytes(&mut client, 42);
    handle.shutdown();

    // Recovery: same data dir, same bytes out.
    let handle = spawn(Some(persist(&dir)));
    assert_eq!(handle.recovered_epoch(), Some(7));
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    assert_eq!(
        serde_json::to_string(&client.registry().unwrap()).unwrap(),
        want_registry,
        "recovered registry snapshot differs from the uninterrupted daemon's"
    );
    assert_eq!(
        form_bytes(&mut client, 42),
        want_form,
        "recovered daemon serves different formation bytes"
    );
    handle.shutdown();

    // An in-memory daemon fed the identical stream agrees too: the
    // journal adds durability, never behavior.
    let handle = spawn(None);
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    mutate(&mut client, tasks);
    assert_eq!(serde_json::to_string(&client.registry().unwrap()).unwrap(), want_registry);
    assert_eq!(form_bytes(&mut client, 42), want_form);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tails_recover_to_exact_prefixes() {
    let dir = scratch("torn");
    let engine = ReputationEngine::default;
    let config = persist(&dir);

    let (mut durable, _) = DurableRegistry::open(&scenario(), engine(), Some(&config)).unwrap();
    durable.report_trust(0, 2, 0.9).unwrap();
    durable.add_gsp(120.0, &[2.0; 12], &[0.5; 12]).unwrap();
    durable.report_trust(5, 1, 0.7).unwrap();
    durable.remove_gsp(3).unwrap();
    durable.report_receipt(&ExecutionReceipt::new(0, 2, true, 6.0, vec![0, 1])).unwrap();
    let full_events = durable.events().to_vec();
    drop(durable);
    let journal_path = dir.join(JOURNAL_FILE);
    let pristine = std::fs::read(&journal_path).unwrap();

    // Cut the journal at every byte offset, descending: recovery must
    // always yield a valid prefix whose epoch matches a fresh replay
    // of that many events.
    let mut last_epoch = full_events.len() as u64;
    for cut in (0..pristine.len()).rev() {
        std::fs::write(&journal_path, &pristine[..cut]).unwrap();
        let (recovered, epoch) =
            DurableRegistry::open(&scenario(), engine(), Some(&config)).unwrap();
        let epoch = epoch.expect("bootstrap snapshot always recovers");
        assert!(epoch <= last_epoch, "cut at {cut} grew the recovered prefix");
        last_epoch = epoch;

        let mut replayed = GspRegistry::from_scenario(&scenario(), engine()).unwrap();
        for ev in &full_events[..epoch as usize] {
            replayed.apply_event(ev).unwrap();
        }
        assert_eq!(
            serde_json::to_string(&recovered.snapshot()).unwrap(),
            serde_json::to_string(&replayed.snapshot()).unwrap(),
            "cut at {cut} recovered something other than the {epoch}-event prefix"
        );
    }
    assert_eq!(last_epoch, 0, "cutting to zero bytes must recover the bare bootstrap");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopening_without_new_mutations_is_idempotent() {
    let dir = scratch("idempotent");
    let config = persist(&dir);
    let (mut durable, _) =
        DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
    durable.report_trust(0, 1, 0.8).unwrap();
    durable.report_trust(1, 0, 0.6).unwrap();
    let want = serde_json::to_string(&durable.snapshot()).unwrap();
    drop(durable);

    for round in 0..3 {
        let (durable, epoch) =
            DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
        assert_eq!(epoch, Some(2), "reopen {round} drifted the epoch");
        assert_eq!(
            serde_json::to_string(&durable.snapshot()).unwrap(),
            want,
            "reopen {round} drifted the state"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aggressive_compaction_survives_restarts() {
    let dir = scratch("compact");
    let config = PersistConfig {
        data_dir: dir.clone(),
        fsync: FsyncPolicy::PerEpoch { every: 2 },
        compact_bytes: 1, // compact after every single append
    };
    let mut want = String::new();
    for restart in 0..4 {
        let (mut durable, epoch) =
            DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
        if restart == 0 {
            assert_eq!(epoch, None);
        } else {
            assert_eq!(epoch, Some(restart * 2), "restart {restart} lost mutations");
            assert_eq!(
                serde_json::to_string(&durable.snapshot()).unwrap(),
                want,
                "restart {restart} recovered drifted state"
            );
        }
        durable.report_trust(0, 1, 0.5 + 0.05 * restart as f64).unwrap();
        durable.report_trust(1, 2, 0.9 - 0.05 * restart as f64).unwrap();
        let stats = durable.store_stats().unwrap();
        assert_eq!(stats.journal_len, 0, "every append must have been compacted away");
        want = serde_json::to_string(&durable.snapshot()).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_event_wire_format_is_stable() {
    // Golden lines: changing the serialized shape of `RegistryEvent`
    // breaks every journal already on disk, so this test failing
    // means "write a migration", not "update the strings".
    let trust = RegistryEvent {
        epoch: 3,
        op: "report_trust".to_string(),
        gsp: Some(0),
        to: Some(2),
        value: Some(0.9),
        speed_gflops: None,
        cost: None,
        time: None,
        receipt: None,
        app: None,
        lease: None,
        members: None,
        reason: None,
    };
    assert_eq!(
        serde_json::to_string(&trust).unwrap(),
        "{\"epoch\":3,\"op\":\"report_trust\",\"gsp\":0,\"to\":2,\"value\":0.9,\
         \"speed_gflops\":null,\"cost\":null,\"time\":null,\"receipt\":null,\
         \"app\":null,\"lease\":null,\"members\":null,\"reason\":null}"
    );
    let add = RegistryEvent {
        epoch: 1,
        op: "add_gsp".to_string(),
        gsp: Some(5),
        to: None,
        value: None,
        speed_gflops: Some(120.0),
        cost: Some(vec![2.0, 2.5]),
        time: Some(vec![0.5, 1.0]),
        receipt: None,
        app: None,
        lease: None,
        members: None,
        reason: None,
    };
    assert_eq!(
        serde_json::to_string(&add).unwrap(),
        "{\"epoch\":1,\"op\":\"add_gsp\",\"gsp\":5,\"to\":null,\"value\":null,\
         \"speed_gflops\":120.0,\"cost\":[2.0,2.5],\"time\":[0.5,1.0],\"receipt\":null,\
         \"app\":null,\"lease\":null,\"members\":null,\"reason\":null}"
    );

    // Decoding round-trips the golden lines…
    let back: RegistryEvent = serde_json::from_str(&serde_json::to_string(&add).unwrap()).unwrap();
    assert_eq!(back, add);
    // …and journals written before the add_gsp payload fields existed
    // (no such keys at all) still parse, with the payload absent.
    let legacy: RegistryEvent = serde_json::from_str(
        "{\"epoch\":2,\"op\":\"remove_gsp\",\"gsp\":1,\"to\":null,\"value\":null}",
    )
    .unwrap();
    assert_eq!(legacy.epoch, 2);
    assert_eq!(legacy.op, "remove_gsp");
    assert_eq!(legacy.speed_gflops, None);
    assert_eq!(legacy.cost, None);
    assert_eq!(legacy.receipt, None, "pre-receipt journal lines parse with no receipt");
}

#[test]
fn execution_receipt_wire_format_is_stable() {
    // Golden line for the receipt payload embedded in journal events
    // and `report_receipt` requests. Changing this shape invalidates
    // on-disk journals *and* every signed digest, so a failure here
    // means "write a migration", not "update the string".
    let receipt = ExecutionReceipt::new(2, 1, false, 12.5, vec![0, 3]);
    let line = serde_json::to_string(&receipt).unwrap();
    assert_eq!(
        line,
        format!(
            "{{\"round\":2,\"gsp\":1,\"success\":false,\"reward\":12.5,\
             \"witnesses\":[0,3],\"digest\":{}}}",
            receipt.digest
        )
    );
    let back: ExecutionReceipt = serde_json::from_str(&line).unwrap();
    assert_eq!(back, receipt);
    assert!(back.verify(), "decoded receipt must still verify its digest");

    // A journal event carrying a receipt keeps the flat fields null.
    let event = RegistryEvent {
        epoch: 7,
        op: "report_receipt".to_string(),
        gsp: None,
        to: None,
        value: None,
        speed_gflops: None,
        cost: None,
        time: None,
        receipt: Some(receipt.clone()),
        app: None,
        lease: None,
        members: None,
        reason: None,
    };
    assert_eq!(
        serde_json::to_string(&event).unwrap(),
        format!(
            "{{\"epoch\":7,\"op\":\"report_receipt\",\"gsp\":null,\"to\":null,\
             \"value\":null,\"speed_gflops\":null,\"cost\":null,\"time\":null,\
             \"receipt\":{line},\"app\":null,\"lease\":null,\"members\":null,\
             \"reason\":null}}"
        )
    );
    // Pre-receipt journals (no `receipt` key anywhere) still parse.
    let legacy: RegistryEvent = serde_json::from_str(
        "{\"epoch\":4,\"op\":\"report_trust\",\"gsp\":1,\"to\":0,\"value\":0.3,\
         \"speed_gflops\":null,\"cost\":null,\"time\":null}",
    )
    .unwrap();
    assert_eq!(legacy.receipt, None);

    // Tampering with any signed field breaks verification.
    let mut forged = receipt;
    forged.reward = 99.0;
    assert!(!forged.verify(), "a tampered reward must fail digest verification");
}

#[test]
fn a_failed_reputation_refresh_commits_nothing() {
    let dir = scratch("refresh");
    let journal = dir.join(JOURNAL_FILE);
    let (mut durable, _) = DurableRegistry::open(
        &paired_scenario(),
        ReputationEngine::default(),
        Some(&persist(&dir)),
    )
    .unwrap();
    let before = serde_json::to_string(&durable.snapshot()).unwrap();
    let journaled = std::fs::read(&journal).unwrap();
    assert!(durable.report_trust(0, 2, 1e-9).is_err(), "the refresh must not converge");
    assert_eq!(durable.epoch(), 0, "a failed refresh must not bump the epoch");
    assert!(durable.events().is_empty(), "a failed refresh must log nothing");
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        journaled,
        "a failed refresh must journal nothing"
    );
    assert_eq!(serde_json::to_string(&durable.snapshot()).unwrap(), before);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    // The daemon answers the same write with an error and keeps
    // serving, and journaling, the state before it.
    let config = ServerConfig { persistence: Some(persist(&dir)), ..ServerConfig::default() };
    let handle = ServerHandle::spawn(&paired_scenario(), config.clone()).unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    let before = serde_json::to_string(&client.registry().unwrap()).unwrap();
    assert!(client.report_trust(0, 2, 1e-9).is_err());
    assert_eq!(serde_json::to_string(&client.registry().unwrap()).unwrap(), before);
    assert_eq!(client.report_trust(0, 1, 0.5).unwrap(), 1);
    assert_eq!(client.report_trust(2, 3, 0.5).unwrap(), 2);
    let want = serde_json::to_string(&client.registry().unwrap()).unwrap();
    handle.shutdown();

    let handle = ServerHandle::spawn(&paired_scenario(), config).unwrap();
    assert_eq!(handle.recovered_epoch(), Some(2));
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    assert_eq!(serde_json::to_string(&client.registry().unwrap()).unwrap(), want);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_compaction_still_acks_the_journaled_write() {
    let dir = scratch("compact-fail");
    let config = PersistConfig { data_dir: dir.clone(), fsync: FsyncPolicy::Off, compact_bytes: 1 };
    let (mut durable, _) =
        DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
    // The store writes every snapshot through this fixed temporary
    // name, so a directory there fails each compaction after its append.
    let blocker = dir.join("snapshot.tmp");
    std::fs::create_dir(&blocker).unwrap();
    assert_eq!(
        durable.report_trust(0, 2, 0.9),
        Ok(1),
        "the append succeeded, so the write is acked"
    );
    assert_eq!(durable.store_stats().unwrap().compactions, 0);
    std::fs::remove_dir(&blocker).unwrap();

    // The next append retries the compaction.
    assert_eq!(durable.report_trust(1, 0, 0.4), Ok(2));
    let stats = durable.store_stats().unwrap();
    assert_eq!((stats.compactions, stats.journal_len), (1, 0));
    let want = serde_json::to_string(&durable.snapshot()).unwrap();
    drop(durable);

    let (recovered, epoch) =
        DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
    assert_eq!(epoch, Some(2));
    assert_eq!(serde_json::to_string(&recovered.snapshot()).unwrap(), want);
    let _ = std::fs::remove_dir_all(&dir);
}
