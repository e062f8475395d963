//! The concurrency torture suite: N writer threads hammering trust /
//! receipt mutations against M reader threads doing registry dumps
//! and batch formations, all at once, against one daemon.
//!
//! The property under test is **snapshot consistency as byte
//! equality**: every response the daemon serves must be
//! byte-identical to what a *serial* replay of the acked mutation
//! order produces at the single epoch the response claims — no
//! response may mix state from two epochs. Concretely:
//!
//! 1. the epochs acked to the writers form a gapless total order
//!    `1..=N` (the journal order *is* the epoch order);
//! 2. a `registry` response claiming epoch `e` serializes exactly
//!    like an offline [`GspRegistry`] that applied the acked ops
//!    `1..=e` in epoch order;
//! 3. every `form` line of a `form_batch` claiming epoch `e` is
//!    byte-identical to the direct [`Mechanism`] call against that
//!    same offline registry's scenario — *all* seeds of one batch
//!    against the *same* epoch;
//! 4. epochs observed on one connection never go backwards;
//! 5. with persistence on, the journal replays to exactly the final
//!    acked epoch with byte-identical state (the SIGKILL-mid-torture
//!    variant lives in `crates/cli/tests/cli_torture.rs`).
//!
//! Thread counts come from `GRIDVO_TORTURE_THREADS` (CI runs a
//! 2/4/8 matrix in release; the acceptance bar is 8 writers × 8
//! readers). The workload itself is deterministic per thread — only
//! the interleaving is left to the scheduler, which is exactly the
//! part the byte-equality oracle makes irrelevant.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::{ExecutionReceipt, FormationScenario};
use gridvo_service::protocol::{encode, MechanismKind, Response};
use gridvo_service::{
    DurableRegistry, GspRegistry, PersistConfig, ServerConfig, ServerHandle, ServiceClient,
};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_store::FsyncPolicy;
use rand::SeedableRng;

/// Seeds every reader's batches draw from — shared across readers so
/// the solve cache is contended, not just resident.
const READER_SEEDS: [u64; 2] = [11, 17];

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scenario() -> FormationScenario {
    let cfg = TableI { task_sizes: vec![12], gsps: 6, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario")
}

/// Writer/reader thread count: `GRIDVO_TORTURE_THREADS`, defaulting
/// to the acceptance bar (8×8) in release and a lighter 4×4 in debug.
fn threads() -> usize {
    std::env::var("GRIDVO_TORTURE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(if cfg!(debug_assertions) { 4 } else { 8 })
}

fn ops_per_writer() -> usize {
    if cfg!(debug_assertions) {
        10
    } else {
        20
    }
}

fn rounds_per_reader() -> usize {
    if cfg!(debug_assertions) {
        5
    } else {
        10
    }
}

/// One acked mutation, as the offline oracle will replay it.
#[derive(Debug, Clone)]
enum Op {
    Trust { from: usize, to: usize, value: f64 },
    Receipt { receipt: ExecutionReceipt },
}

/// Writer `w`'s `i`-th mutation: deterministic, valid by
/// construction (distinct trust endpoints, witnessed receipts), and
/// id-stable (no membership churn — ids must keep their meaning so
/// the serial replay oracle is well-defined).
fn writer_op(w: usize, i: usize, gsps: usize) -> Op {
    let a = (w * 3 + i) % gsps;
    let b = (a + 1 + (i % (gsps - 1))) % gsps;
    debug_assert_ne!(a, b);
    match i % 3 {
        0 => Op::Trust { from: a, to: b, value: 0.05 + 0.1 * ((w + 2 * i) % 9) as f64 },
        1 => Op::Receipt {
            receipt: ExecutionReceipt::new(w * 100 + i, a, true, 5.0 + w as f64, vec![b]),
        },
        _ => Op::Receipt { receipt: ExecutionReceipt::new(w * 100 + i, a, false, 7.5, vec![b]) },
    }
}

fn apply(reg: &mut GspRegistry, op: &Op) -> u64 {
    match op {
        Op::Trust { from, to, value } => {
            reg.report_trust(*from, *to, *value).expect("valid trust report")
        }
        Op::Receipt { receipt } => reg.report_receipt(receipt).expect("valid receipt"),
    }
}

/// What one reader observed: every record claims exactly one epoch.
#[derive(Debug)]
enum Observation {
    /// A `registry` response: claimed epoch + the snapshot's JSON.
    Registry { epoch: u64, json: String },
    /// A `form_batch` response: the `batch_end` epoch + each `form`
    /// line re-encoded (the seeds are `READER_SEEDS`, in order).
    Batch { epoch: u64, lines: Vec<String> },
}

impl Observation {
    fn epoch(&self) -> u64 {
        match self {
            Observation::Registry { epoch, .. } | Observation::Batch { epoch, .. } => *epoch,
        }
    }
}

fn run_torture(persistence: Option<PersistConfig>) {
    let s = scenario();
    let gsps = s.gsps().len();
    let n = threads();
    let ops = ops_per_writer();
    let rounds = rounds_per_reader();
    let total = (n * ops) as u64;

    let config = ServerConfig {
        workers: n.min(8),
        queue_capacity: 4 * n.max(1),
        persistence: persistence.clone(),
        ..ServerConfig::default()
    };
    let handle = ServerHandle::spawn(&s, config).expect("bind loopback");
    let addr = handle.addr();

    // ---- the storm --------------------------------------------------
    let acked: Arc<Mutex<Vec<(u64, Op)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut writers = Vec::new();
    for w in 0..n {
        let acked = Arc::clone(&acked);
        writers.push(std::thread::spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("writer connects");
            for i in 0..ops {
                let op = writer_op(w, i, gsps);
                let epoch = match &op {
                    Op::Trust { from, to, value } => {
                        client.report_trust(*from, *to, *value).expect("trust acked")
                    }
                    Op::Receipt { receipt } => {
                        client.report_receipt(receipt.clone()).expect("receipt acked")
                    }
                };
                acked.lock().unwrap().push((epoch, op));
            }
        }));
    }

    let mut readers = Vec::new();
    for _ in 0..n {
        readers.push(std::thread::spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("reader connects");
            let mut seen = Vec::new();
            for _ in 0..rounds {
                let (snapshot, epoch) = client.registry_with_epoch().expect("registry dump");
                let epoch = epoch.expect("the daemon always reports the served epoch");
                assert_eq!(epoch, snapshot.epoch, "top-level epoch must match the dump's");
                seen.push(Observation::Registry {
                    epoch,
                    json: serde_json::to_string(&snapshot).unwrap(),
                });

                let responses = client
                    .form_batch(&READER_SEEDS, MechanismKind::Tvof, None)
                    .expect("batch served");
                let (tail, forms) = responses.split_last().expect("batch streams lines");
                let lines: Vec<String> = forms
                    .iter()
                    .map(|r| match r {
                        Response::Form { .. } => encode(r),
                        other => panic!("expected a form line, got {other:?}"),
                    })
                    .collect();
                match tail {
                    Response::BatchEnd { epoch, served } => {
                        assert_eq!(*served as usize, READER_SEEDS.len());
                        assert_eq!(lines.len(), READER_SEEDS.len());
                        seen.push(Observation::Batch { epoch: *epoch, lines });
                    }
                    other => panic!("expected batch_end, got {other:?}"),
                }
            }
            seen
        }));
    }

    for w in writers {
        w.join().expect("writer thread");
    }
    let observations: Vec<Vec<Observation>> =
        readers.into_iter().map(|r| r.join().expect("reader thread")).collect();
    let final_view = handle.registry_snapshot();
    handle.shutdown();

    // ---- property 1: acked epochs are a gapless total order ---------
    let mut acked = Arc::try_unwrap(acked).expect("threads joined").into_inner().unwrap();
    acked.sort_by_key(|(epoch, _)| *epoch);
    let epochs: Vec<u64> = acked.iter().map(|(e, _)| *e).collect();
    assert_eq!(
        epochs,
        (1..=total).collect::<Vec<u64>>(),
        "acked epochs must be exactly 1..={total} with no gap or duplicate"
    );
    assert_eq!(final_view.epoch, total);

    // ---- property 4: per-connection epoch monotonicity --------------
    for (r, seen) in observations.iter().enumerate() {
        for pair in seen.windows(2) {
            assert!(
                pair[0].epoch() <= pair[1].epoch(),
                "reader {r} observed the epoch go backwards: {} then {}",
                pair[0].epoch(),
                pair[1].epoch()
            );
        }
    }

    // ---- properties 2 + 3: byte equality against the serial oracle --
    // Group what each epoch needs to answer, so the single replay
    // pass only solves where a response must be checked.
    use std::collections::{BTreeMap, BTreeSet};
    let mut registry_at: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    let mut batches_at: BTreeMap<u64, Vec<&[String]>> = BTreeMap::new();
    for seen in &observations {
        for obs in seen {
            match obs {
                Observation::Registry { epoch, json } => {
                    registry_at.entry(*epoch).or_default().push(json);
                }
                Observation::Batch { epoch, lines } => {
                    batches_at.entry(*epoch).or_default().push(lines);
                }
            }
        }
    }
    let needed: BTreeSet<u64> = registry_at.keys().chain(batches_at.keys()).copied().collect();

    let mut oracle =
        GspRegistry::from_scenario(&s, FormationConfig::default().reputation).expect("oracle");
    let mechanism = Mechanism::tvof(FormationConfig::default());
    let check = |oracle: &GspRegistry, epoch: u64| {
        if let Some(dumps) = registry_at.get(&epoch) {
            let want = serde_json::to_string(&oracle.snapshot()).unwrap();
            for got in dumps {
                assert_eq!(
                    *got, want,
                    "registry dump at epoch {epoch} is not the serial-replay state"
                );
            }
        }
        if let Some(batches) = batches_at.get(&epoch) {
            let oracle_scenario = oracle.scenario().expect("oracle scenario");
            let want: Vec<String> = READER_SEEDS
                .iter()
                .map(|&seed| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let mut outcome =
                        mechanism.run(&oracle_scenario, &mut rng).expect("oracle formation");
                    outcome.zero_timings();
                    encode(&Response::form_from(outcome))
                })
                .collect();
            for lines in batches {
                assert_eq!(
                    *lines,
                    want.as_slice(),
                    "a batch line at epoch {epoch} mixed state from another epoch"
                );
            }
        }
    };
    if needed.contains(&0) {
        check(&oracle, 0);
    }
    for (epoch, op) in &acked {
        let applied = apply(&mut oracle, op);
        assert_eq!(applied, *epoch, "oracle replay diverged from the acked epoch order");
        if needed.contains(epoch) {
            check(&oracle, *epoch);
        }
    }

    // ---- property 5: the journal replays to the acked epoch ---------
    if let Some(persist) = &persistence {
        let (recovered, epoch) =
            DurableRegistry::open(&s, FormationConfig::default().reputation, Some(persist))
                .expect("recovery");
        assert_eq!(epoch, Some(total), "recovery must reach the exact acked epoch");
        assert_eq!(
            serde_json::to_string(&recovered.snapshot()).unwrap(),
            serde_json::to_string(&oracle.snapshot()).unwrap(),
            "recovered state differs from the serial replay at the acked epoch"
        );
        let _ = std::fs::remove_dir_all(&persist.dir);
    }
}

#[test]
fn torture_every_response_matches_a_serial_replay() {
    run_torture(None);
}

#[test]
fn torture_with_journal_replays_to_the_acked_epoch() {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gridvo-torture-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run_torture(Some(PersistConfig { dir, fsync: FsyncPolicy::Off, compact_bytes: u64::MAX }));
}
