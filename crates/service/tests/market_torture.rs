//! The market concurrency torture suite: N application threads
//! interleaving `form --app` / release (with trust writers mutating
//! reputation underneath) against one daemon.
//!
//! The property under test extends the torture suite's **serial
//! replay byte-equality** to the lease lifecycle:
//!
//! 1. every acked mutation — trust report, lease acquire, lease
//!    release — lands on a gapless epoch total order `1..=N`;
//! 2. replaying the acked order through an offline [`GspRegistry`]
//!    reproduces the exact `(lease id, epoch)` pairs the daemon
//!    served — the journal order fully determines the lease table;
//! 3. walking the acked history, no GSP is ever committed to two
//!    live leases at once;
//! 4. every leased `form` line is byte-identical to an offline
//!    recompute at the epoch the response claims it formed against:
//!    free sub-pool from the oracle, sub-scenario restriction,
//!    mechanism run, member lifting, wire encoding — end to end;
//! 5. with persistence on, recovery restores the exact live lease
//!    set and next lease id (the SIGKILL-mid-storm variant lives in
//!    `crates/cli/tests/cli_market.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::FormationScenario;
use gridvo_service::market::free_scenario;
use gridvo_service::protocol::{encode, MechanismKind, Response};
use gridvo_service::{
    DurableRegistry, GspRegistry, PersistConfig, ServerConfig, ServerHandle, ServiceClient,
};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_store::FsyncPolicy;
use rand::SeedableRng;

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scenario() -> FormationScenario {
    // 12 GSPs: roomy enough that two coalitions can be live at once,
    // tight enough that a third application genuinely contends.
    let cfg = TableI { task_sizes: vec![12], gsps: 12, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario")
}

fn threads() -> usize {
    std::env::var("GRIDVO_TORTURE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(if cfg!(debug_assertions) { 4 } else { 8 })
}

fn ops_per_thread() -> usize {
    if cfg!(debug_assertions) {
        8
    } else {
        16
    }
}

/// One acked mutation, as the offline oracle will replay it.
#[derive(Debug, Clone)]
enum Op {
    Trust {
        from: usize,
        to: usize,
        value: f64,
    },
    /// A leased market form: everything needed to recompute the
    /// served line offline. `line` is the response re-encoded by the
    /// observer (the wire encoding is canonical, so bytes survive the
    /// decode/encode round trip).
    Acquire {
        app: String,
        seed: u64,
        lease: u64,
        members: Vec<usize>,
        formed_epoch: u64,
        line: String,
    },
    Release {
        lease: u64,
        abandon: bool,
    },
}

fn run_market_torture(persistence: Option<PersistConfig>) {
    let s = scenario();
    let gsps = s.gsps().len();
    let n = threads();
    let ops = ops_per_thread();

    let config = ServerConfig {
        workers: n.min(8),
        queue_capacity: 4 * n.max(1),
        app_queue_capacity: ops,
        persistence: persistence.clone(),
        ..ServerConfig::default()
    };
    let handle = ServerHandle::spawn(&s, config).expect("bind loopback");
    let addr = handle.addr();

    // ---- the storm --------------------------------------------------
    let acked: Arc<Mutex<Vec<(u64, Op)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut apps = Vec::new();
    for w in 0..n {
        let acked = Arc::clone(&acked);
        apps.push(std::thread::spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("app thread connects");
            let app = format!("app-{w}");
            let mut held: Vec<u64> = Vec::new();
            let mut shed = 0usize;
            for i in 0..ops {
                let seed = (w * 1000 + i) as u64;
                match client.form_in_app(&app, seed, MechanismKind::Tvof, None).expect("served") {
                    response @ Response::Form { .. } => {
                        let Response::Form {
                            ref outcome,
                            lease: Some(lease),
                            lease_epoch: Some(lease_epoch),
                            formed_epoch: Some(formed_epoch),
                            ..
                        } = response
                        else {
                            panic!("a feasible pool must lease its selection: {response:?}");
                        };
                        let members =
                            outcome.selected.as_ref().expect("leased ⇒ selected").members.clone();
                        acked.lock().unwrap().push((
                            lease_epoch,
                            Op::Acquire {
                                app: app.clone(),
                                seed,
                                lease,
                                members,
                                formed_epoch,
                                line: encode(&response),
                            },
                        ));
                        held.push(lease);
                    }
                    Response::PoolExhausted { .. } | Response::Busy => shed += 1,
                    other => panic!("unexpected market answer: {other:?}"),
                }
                // Hold at most two coalitions; churn the oldest so
                // the free pool keeps moving under the other apps.
                if held.len() > 2 {
                    let lease = held.remove(0);
                    let abandon = i % 2 == 0;
                    let epoch = client.release_lease(lease, abandon).expect("release acked");
                    acked.lock().unwrap().push((epoch, Op::Release { lease, abandon }));
                }
            }
            // Wind down to (at most) one live lease per app so the
            // final lease table is non-trivial for recovery.
            while held.len() > 1 {
                let lease = held.remove(0);
                let epoch = client.release_lease(lease, false).expect("release acked");
                acked.lock().unwrap().push((epoch, Op::Release { lease, abandon: false }));
            }
            shed
        }));
    }

    let mut writers = Vec::new();
    for w in 0..n {
        let acked = Arc::clone(&acked);
        writers.push(std::thread::spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("trust writer connects");
            for i in 0..ops {
                let from = (w * 3 + i) % gsps;
                let to = (from + 1 + (i % (gsps - 1))) % gsps;
                let value = 0.05 + 0.1 * ((w + 2 * i) % 9) as f64;
                let epoch = client.report_trust(from, to, value).expect("trust acked");
                acked.lock().unwrap().push((epoch, Op::Trust { from, to, value }));
            }
        }));
    }

    for t in writers {
        t.join().expect("trust writer thread");
    }
    let sheds: usize = apps.into_iter().map(|t| t.join().expect("app thread")).sum();
    let mut observer = ServiceClient::connect(addr).expect("observer connects");
    let (final_leases, final_free, final_epoch) = observer.leases().expect("final lease dump");
    drop(observer);
    handle.shutdown();

    // ---- property 1: acked epochs are a gapless total order ---------
    let mut acked = Arc::try_unwrap(acked).expect("threads joined").into_inner().unwrap();
    acked.sort_by_key(|(epoch, _)| *epoch);
    let total = acked.len() as u64;
    let epochs: Vec<u64> = acked.iter().map(|(e, _)| *e).collect();
    assert_eq!(
        epochs,
        (1..=total).collect::<Vec<u64>>(),
        "acked epochs must be exactly 1..={total} with no gap or duplicate \
         ({sheds} forms shed without an epoch)"
    );
    assert_eq!(final_epoch, total, "the final lease dump sees every acked mutation");

    // ---- properties 2 + 3 + 4: serial replay with a held-set walk ---
    // Byte-checking an acquire needs the oracle *at the epoch the
    // response claims it formed against*, which precedes the acquire's
    // own epoch whenever other mutations raced in between.
    let mut formed_at: BTreeMap<u64, Vec<&Op>> = BTreeMap::new();
    for (_, op) in &acked {
        if let Op::Acquire { formed_epoch, .. } = op {
            formed_at.entry(*formed_epoch).or_default().push(op);
        }
    }
    let acquires = formed_at.values().map(Vec::len).sum::<usize>();
    assert!(acquires > 0, "the storm must lease at least once or the oracle is vacuous");
    let mechanism = Mechanism::tvof(FormationConfig::default());
    let recompute = |oracle: &GspRegistry, op: &Op| {
        let Op::Acquire { seed, lease, members, formed_epoch, line, .. } = op else {
            unreachable!("formed_at only holds acquires");
        };
        let free = oracle.free_members();
        let full = oracle.scenario().expect("oracle scenario");
        let contended = free.len() < full.gsps().len();
        let sub;
        let scenario = if contended {
            sub = free_scenario(&full, &free).expect("the daemon formed over this sub-pool");
            &sub
        } else {
            &full
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
        let mut outcome = mechanism.run(scenario, &mut rng).expect("oracle formation");
        outcome.zero_timings();
        if contended {
            outcome.map_members(&free);
        }
        assert_eq!(
            outcome.selected.as_ref().map(|vo| &vo.members),
            Some(members),
            "offline recompute at epoch {formed_epoch} selects a different coalition"
        );
        // The acquire epoch is the op's position in the total order —
        // recover it from the line itself being checked below.
        let lease_epoch = acked
            .iter()
            .find_map(|(e, o)| match o {
                Op::Acquire { lease: l, .. } if l == lease => Some(*e),
                _ => None,
            })
            .expect("acquire is in the acked history");
        assert_eq!(
            encode(&Response::market_form_from(
                outcome,
                Some((*lease, lease_epoch)),
                *formed_epoch
            )),
            *line,
            "served market form line at formed epoch {formed_epoch} is not the serial-replay bytes"
        );
    };

    let mut oracle =
        GspRegistry::from_scenario(&s, FormationConfig::default().reputation).expect("oracle");
    let mut live: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for op in formed_at.get(&0).into_iter().flatten() {
        recompute(&oracle, op);
    }
    for (epoch, op) in &acked {
        match op {
            Op::Trust { from, to, value } => {
                let e = oracle.report_trust(*from, *to, *value).expect("oracle trust");
                assert_eq!(e, *epoch, "oracle replay diverged on a trust report");
            }
            Op::Acquire { app, lease, members, .. } => {
                for (other, committed) in &live {
                    assert!(
                        members.iter().all(|g| !committed.contains(g)),
                        "GSPs double-leased in the acked history: lease {lease} vs {other}"
                    );
                }
                let (l, e) = oracle.acquire_lease(app, members).expect("oracle acquire");
                assert_eq!(
                    (l, e),
                    (*lease, *epoch),
                    "oracle replay diverged on an acquire (lease id or epoch)"
                );
                live.insert(*lease, members.clone());
            }
            Op::Release { lease, abandon } => {
                let reason = if *abandon { "abandon" } else { "complete" };
                let e = oracle.release_lease(*lease, reason).expect("oracle release");
                assert_eq!(e, *epoch, "oracle replay diverged on a release");
                live.remove(lease).expect("released lease was live in the walk");
            }
        }
        for later in formed_at.get(epoch).into_iter().flatten() {
            recompute(&oracle, later);
        }
    }

    // The daemon's final lease table is the oracle's, exactly.
    assert_eq!(
        serde_json::to_string(&final_leases).unwrap(),
        serde_json::to_string(&oracle.leases()).unwrap(),
        "final lease table differs from the serial replay"
    );
    assert_eq!(final_free, oracle.free_members());

    // ---- property 5: recovery restores the exact lease set ----------
    if let Some(persist) = &persistence {
        let (recovered, epoch) =
            DurableRegistry::open(&s, FormationConfig::default().reputation, Some(persist))
                .expect("recovery");
        assert_eq!(epoch, Some(total), "recovery must reach the exact acked epoch");
        assert_eq!(
            serde_json::to_string(recovered.leases()).unwrap(),
            serde_json::to_string(&oracle.leases()).unwrap(),
            "recovered lease table differs from the serial replay"
        );
        assert_eq!(
            serde_json::to_string(&recovered.snapshot()).unwrap(),
            serde_json::to_string(&oracle.snapshot()).unwrap(),
            "recovered registry state differs from the serial replay"
        );
        let _ = std::fs::remove_dir_all(&persist.data_dir);
    }
}

#[test]
fn market_torture_matches_a_serial_replay() {
    run_market_torture(None);
}

#[test]
fn market_torture_with_journal_recovers_the_lease_set() {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("gridvo-market-torture-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run_market_torture(Some(PersistConfig {
        data_dir: dir,
        fsync: FsyncPolicy::Off,
        compact_bytes: u64::MAX,
    }));
}
