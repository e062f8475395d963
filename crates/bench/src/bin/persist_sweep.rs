//! Persistence overhead benchmark: journal write amplification,
//! replay time vs. event count, and mutation throughput across fsync
//! policies — each against the in-memory registry as the baseline.
//! Emits `BENCH_persistence.json`.
//!
//! Phase 1 streams an identical trust-report storm through a
//! [`DurableRegistry`] under each policy (in-memory, `off`,
//! `per-epoch=32`, `per-event`) and reports events/second plus the
//! store's I/O counters. Phase 2 records journals of increasing
//! length and times cold recovery (`DurableRegistry::open`). The run
//! fails (exit 1) if per-event fsync is not measurably more expensive
//! than per-epoch — that ordering is the whole point of the policy
//! knob, and losing it silently would make `--fsync per-event` a lie.
//!
//! Scratch data directories live under `--out` (not `/tmp`, which is
//! commonly tmpfs and would fake fsync costs).

use std::path::{Path, PathBuf};
use std::time::Instant;

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_core::reputation::ReputationEngine;
use gridvo_core::FormationScenario;
use gridvo_service::{DurableRegistry, PersistConfig};
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::TableI;
use gridvo_store::FsyncPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct PolicyPoint {
    policy: String,
    events: u64,
    wall_seconds: f64,
    events_per_sec: f64,
    /// Throughput relative to the in-memory registry (1.0 = free).
    throughput_vs_memory: f64,
    fsyncs: u64,
    journal_bytes: u64,
    snapshot_bytes: u64,
    compactions: u64,
    /// (journal + snapshot bytes) / journal bytes — how much physical
    /// I/O each logical journal byte costs.
    write_amplification: f64,
}

#[derive(Debug, Serialize)]
struct ReplayPoint {
    events: u64,
    journal_bytes: u64,
    replay_seconds: f64,
    events_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct PersistenceBench {
    gsps: usize,
    tasks: usize,
    policies: Vec<PolicyPoint>,
    replay: Vec<ReplayPoint>,
}

fn scenario(args: &BenchArgs) -> FormationScenario {
    let tasks = if args.paper { 32 } else { 12 };
    let cfg = TableI { gsps: 6, task_sizes: vec![tasks], ..TableI::small() };
    let mut rng = StdRng::seed_from_u64(7);
    match ScenarioGenerator::new(cfg).scenario(tasks, &mut rng) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scenario generation failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The mutation storm: trust reports only, so every event costs the
/// same and the measured deltas are pure journal/fsync overhead.
fn storm(durable: &mut DurableRegistry, events: u64) {
    let m = durable.gsp_count();
    for i in 0..events {
        let from = (i as usize) % m;
        let to = ((i + 1) as usize) % m;
        let value = 0.2 + 0.6 * ((i % 11) as f64 / 11.0);
        durable.report_trust(from, to, value).expect("trust storm mutation is valid");
    }
}

fn fresh_dir(scratch: &Path, name: &str) -> PathBuf {
    let dir = scratch.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_policy(
    s: &FormationScenario,
    scratch: &Path,
    label: &str,
    policy: Option<FsyncPolicy>,
    events: u64,
) -> PolicyPoint {
    let config = policy.map(|fsync| PersistConfig {
        dir: fresh_dir(scratch, label),
        fsync,
        ..PersistConfig::new("unused")
    });
    let (mut durable, recovered) =
        DurableRegistry::open(s, ReputationEngine::default(), config.as_ref())
            .expect("registry opens");
    assert!(recovered.is_none(), "fresh benchmark directories must bootstrap");

    let started = Instant::now();
    storm(&mut durable, events);
    let wall_seconds = started.elapsed().as_secs_f64();

    let stats = durable.store_stats().unwrap_or_default();
    if let Some(config) = &config {
        let _ = std::fs::remove_dir_all(&config.dir);
    }
    let journal = stats.journal_bytes_written.max(1);
    PolicyPoint {
        policy: label.to_string(),
        events,
        wall_seconds,
        events_per_sec: events as f64 / wall_seconds.max(1e-9),
        throughput_vs_memory: f64::NAN, // filled in against the baseline
        fsyncs: stats.fsyncs,
        journal_bytes: stats.journal_bytes_written,
        snapshot_bytes: stats.snapshot_bytes_written,
        compactions: stats.compactions,
        write_amplification: (stats.journal_bytes_written + stats.snapshot_bytes_written) as f64
            / journal as f64,
    }
}

fn run_replay(s: &FormationScenario, scratch: &Path, events: u64) -> ReplayPoint {
    let config = PersistConfig {
        dir: fresh_dir(scratch, &format!("replay-{events}")),
        fsync: FsyncPolicy::Off,
        compact_bytes: u64::MAX, // keep every event in the journal
    };
    let (mut durable, _) = DurableRegistry::open(s, ReputationEngine::default(), Some(&config))
        .expect("registry opens");
    storm(&mut durable, events);
    let journal_bytes = durable.store_stats().expect("persistent").journal_len;
    drop(durable);

    let started = Instant::now();
    let (recovered, epoch) = DurableRegistry::open(s, ReputationEngine::default(), Some(&config))
        .expect("recovery succeeds");
    let replay_seconds = started.elapsed().as_secs_f64();
    assert_eq!(epoch, Some(events), "replay must land on the recorded epoch");
    assert_eq!(recovered.epoch(), events);
    let _ = std::fs::remove_dir_all(&config.dir);
    ReplayPoint {
        events,
        journal_bytes,
        replay_seconds,
        events_per_sec: events as f64 / replay_seconds.max(1e-9),
    }
}

fn main() {
    let args = BenchArgs::from_env();
    let s = scenario(&args);
    let scratch = args.out.join("persist_scratch");
    std::fs::create_dir_all(&scratch).expect("scratch dir under --out");

    let events: u64 = if args.paper { 20_000 } else { 3_000 };
    let policies: [(&str, Option<FsyncPolicy>); 4] = [
        ("in-memory", None),
        ("off", Some(FsyncPolicy::Off)),
        ("per-epoch=32", Some(FsyncPolicy::PerEpoch { every: 32 })),
        ("per-event", Some(FsyncPolicy::PerEvent)),
    ];
    let mut policy_points: Vec<PolicyPoint> =
        policies.iter().map(|(label, p)| run_policy(&s, &scratch, label, *p, events)).collect();
    let baseline = policy_points[0].events_per_sec;
    for p in &mut policy_points {
        p.throughput_vs_memory = p.events_per_sec / baseline.max(1e-9);
    }

    let replay_counts: &[u64] =
        if args.paper { &[1_000, 5_000, 20_000] } else { &[250, 1_000, 3_000] };
    let replay: Vec<ReplayPoint> =
        replay_counts.iter().map(|&n| run_replay(&s, &scratch, n)).collect();
    let _ = std::fs::remove_dir_all(&scratch);

    let rows: Vec<Vec<String>> = policy_points
        .iter()
        .map(|p| {
            vec![
                p.policy.clone(),
                format!("{:.0}", p.events_per_sec),
                format!("{:.3}", p.throughput_vs_memory),
                p.fsyncs.to_string(),
                format!("{:.2}", p.write_amplification),
            ]
        })
        .collect();
    eprintln!(
        "{}",
        ascii_table(&["policy", "events/s", "vs memory", "fsyncs", "write amp"], &rows)
    );
    let rows: Vec<Vec<String>> = replay
        .iter()
        .map(|r| {
            vec![
                r.events.to_string(),
                r.journal_bytes.to_string(),
                format!("{:.4}", r.replay_seconds),
                format!("{:.0}", r.events_per_sec),
            ]
        })
        .collect();
    eprintln!("{}", ascii_table(&["events", "journal B", "replay s", "replayed/s"], &rows));

    // The policy ladder must actually be a ladder: per-event pays for
    // its durability. Allow 10% jitter before calling it broken.
    let per_epoch = &policy_points[2];
    let per_event = &policy_points[3];
    if per_event.events_per_sec > 1.1 * per_epoch.events_per_sec {
        eprintln!(
            "error: per-event fsync ({:.0} ev/s) outran per-epoch ({:.0} ev/s) — \
             the fsync policy ladder is broken",
            per_event.events_per_sec, per_epoch.events_per_sec
        );
        std::process::exit(1);
    }
    assert!(per_event.fsyncs > per_epoch.fsyncs, "per-event must issue more fsyncs than per-epoch");

    let bench = PersistenceBench {
        gsps: s.gsp_count(),
        tasks: s.task_count(),
        policies: policy_points,
        replay,
    };
    let json = serde_json::to_string_pretty(&bench).expect("bench report serializes");
    args.write_artifact("BENCH_persistence.json", &json).unwrap();
}
