//! End-to-end market crash test: SIGKILL the durable daemon while
//! concurrent applications are acquiring and releasing leases, then
//! prove recovery restores the **exact** live lease set — an offline
//! [`DurableRegistry::open`] on the same data directory and a
//! respawned daemon must agree lease-for-lease, no GSP may come back
//! double-committed, and pre-crash leases must still release over
//! the wire.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridvo_core::mechanism::FormationConfig;
use gridvo_core::FormationScenario;
use gridvo_service::{DurableRegistry, MechanismKind, PersistConfig, Response, ServiceClient};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_store::FsyncPolicy;
use rand::SeedableRng;

const GSPS: usize = 12;
const APPS: usize = 4;
const OPS_PER_APP: usize = 400;

fn gridvo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gridvo"))
}

/// The exact scenario `serve --tasks 12 --gsps 12 --seed 7` builds,
/// so the offline recovery oracle opens the same registry the daemon
/// ran.
fn scenario() -> FormationScenario {
    let cfg = TableI { gsps: GSPS, task_sizes: vec![12], ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible scenario")
}

fn spawn_daemon(extra: &[&str]) -> (Child, BufReader<ChildStdout>, String, Option<u64>) {
    let mut child = gridvo()
        .args(["serve", "--tasks", "12", "--gsps", "12", "--seed", "7", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("daemon announces its port");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();
    line.clear();
    reader.read_line(&mut line).expect("daemon prints its pool banner");
    let recovered = line
        .trim()
        .strip_prefix("recovered registry at epoch ")
        .map(|n| n.parse().expect("recovery banner carries an integer epoch"));
    (child, reader, addr, recovered)
}

fn shutdown(mut child: Child) {
    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if child.try_wait().expect("try_wait works").is_some() {
            return;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("daemon did not shut down in time");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridvo-market-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(unix)]
#[test]
fn sigkill_mid_market_storm_recovers_the_exact_lease_set() {
    let scratch = scratch_dir("storm");
    let data_dir = scratch.join("data");
    let durable_flags = [
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--fsync",
        "per-epoch=4",
        "--compact-bytes",
        "10485760",
    ]
    .to_vec();

    // Storm: APPS concurrent applications churning leases (form,
    // hold, release with a mix of complete/abandon) until the kill
    // lands mid-stream.
    let (mut child, _reader, addr, recovered) = spawn_daemon(&durable_flags);
    assert_eq!(recovered, None, "fresh data dir must bootstrap, not recover");
    let last_acked = Arc::new(AtomicU64::new(0));
    let storm: Vec<_> = (0..APPS)
        .map(|w| {
            let addr = addr.clone();
            let last_acked = Arc::clone(&last_acked);
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(&addr).expect("connect");
                let app = format!("app-{w}");
                let mut held: Vec<u64> = Vec::new();
                for i in 0..OPS_PER_APP {
                    let seed = (w * 10_000 + i) as u64;
                    match client.form_in_app(&app, seed, MechanismKind::Tvof, None) {
                        Ok(Response::Form { lease: Some(l), lease_epoch: Some(e), .. }) => {
                            last_acked.fetch_max(e, Ordering::SeqCst);
                            held.push(l);
                        }
                        Ok(_) => {}       // shed (pool exhausted / busy): keep storming
                        Err(_) => return, // the kill landed
                    }
                    if held.len() > 1 {
                        let lease = held.remove(0);
                        match client.release_lease(lease, i % 2 == 0) {
                            Ok(epoch) => {
                                last_acked.fetch_max(epoch, Ordering::SeqCst);
                            }
                            Err(_) => return, // the kill landed
                        }
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(250));
    let killed = Command::new("kill")
        .args(["-9", &child.id().to_string()])
        .status()
        .expect("kill runs")
        .success();
    assert!(killed, "kill -9 failed");
    for t in storm {
        t.join().expect("storm thread exits");
    }
    child.wait().expect("killed child reaped");
    let last_acked = last_acked.load(Ordering::SeqCst);
    assert!(last_acked > 0, "the storm must have leased before the kill");

    // Offline oracle: open the same data directory in-process (no
    // appends happen on open) and read off the expected lease table.
    let persist =
        PersistConfig { dir: data_dir.clone(), fsync: FsyncPolicy::Off, compact_bytes: u64::MAX };
    let s = scenario();
    let (oracle, oracle_epoch) =
        DurableRegistry::open(&s, FormationConfig::default().reputation, Some(&persist))
            .expect("offline recovery");
    let oracle_epoch = oracle_epoch.expect("non-empty journal recovers");
    assert!(
        oracle_epoch >= last_acked,
        "recovery at epoch {oracle_epoch} lost acknowledged mutations (last ack {last_acked})"
    );
    let expected = serde_json::to_string(oracle.leases()).unwrap();
    let expected_free = oracle.free_members();
    let live: Vec<(u64, Vec<usize>)> =
        oracle.leases().iter().map(|l| (l.id, l.members.clone())).collect();
    drop(oracle);

    // No GSP may come back committed to two live leases.
    for (i, (id_a, members_a)) in live.iter().enumerate() {
        for (id_b, members_b) in &live[i + 1..] {
            assert!(
                members_a.iter().all(|g| !members_b.contains(g)),
                "recovered leases {id_a} and {id_b} share a GSP"
            );
        }
    }

    // Respawn on the same journal: the daemon must serve exactly the
    // oracle's lease set, and a pre-crash lease must still release.
    let (child, _reader, addr, recovered) = spawn_daemon(&durable_flags);
    assert_eq!(recovered, Some(oracle_epoch), "daemon and oracle recover the same epoch");
    let mut client = ServiceClient::connect(&addr).expect("reconnect");
    let (leases, free, epoch) = client.leases().expect("lease dump");
    assert_eq!(epoch, oracle_epoch);
    assert_eq!(
        serde_json::to_string(&leases).unwrap(),
        expected,
        "recovered daemon serves a different lease set than the journal replay"
    );
    assert_eq!(free, expected_free);

    if let Some((id, members)) = live.first() {
        let release_epoch = client.release_lease(*id, false).expect("pre-crash lease releases");
        assert!(release_epoch > oracle_epoch);
        let (_, free, _) = client.leases().expect("lease dump");
        assert!(
            members.iter().all(|g| free.contains(g)),
            "released members must rejoin the free pool"
        );
    }

    // New leases continue the id sequence past every pre-crash id.
    match client.form_in_app("post-crash", 99, MechanismKind::Tvof, None).expect("served") {
        Response::Form { lease: Some(l), .. } => {
            assert!(
                live.iter().all(|(id, _)| l > *id),
                "lease ids must not be recycled across the crash"
            );
        }
        other => panic!("post-crash pool must serve a lease, got {other:?}"),
    }
    drop(client);
    shutdown(child);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// `gridvo request` reports the daemon's typed lease refusals with
/// their ids and exits 2.
#[test]
fn lease_refusals_exit_2_with_their_ids() {
    let (child, _reader, addr, _) = spawn_daemon(&[]);
    let refused = |args: &[&str]| {
        let out = gridvo().args(["request"]).args(args).args(["--addr", &addr]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let stderr = refused(&["release-lease", "--lease", "9"]);
    assert!(stderr.contains("unknown lease id 9"), "{stderr}");

    let out = gridvo()
        .args(["request", "form", "--addr", &addr, "--seed", "3", "--app", "atlas"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("coalition committed as lease 1"), "{stdout}");
    // `selected VO [g, ..]: ...`: the first member is leased.
    let first = stdout
        .split_once("selected VO [")
        .and_then(|(_, rest)| rest.split([',', ']']).next())
        .expect("a selected VO")
        .trim()
        .to_string();
    let stderr = refused(&["remove-gsp", "--id", &first]);
    assert!(stderr.contains(&format!("GSP {first} is committed to live lease 1")), "{stderr}");
    shutdown(child);
}
