//! Property tests over the journal: for a *random* valid mutation
//! sequence, every line-prefix of the recorded journal recovers to a
//! valid registry whose epoch equals the number of surviving events,
//! and whose state matches a fresh replay of exactly those events.

use std::sync::atomic::{AtomicUsize, Ordering};

use gridvo_core::reputation::ReputationEngine;
use gridvo_core::{ExecutionReceipt, FormationScenario, Gsp};
use gridvo_service::{DurableRegistry, GspRegistry, PersistConfig, RegistryEvent};
use gridvo_solver::AssignmentInstance;
use gridvo_store::{FsyncPolicy, JOURNAL_FILE};
use gridvo_trust::TrustGraph;
use proptest::prelude::*;

const TASKS: usize = 4;

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scenario() -> FormationScenario {
    let gsps = vec![Gsp::new(0, 100.0), Gsp::new(1, 80.0), Gsp::new(2, 60.0)];
    let mut trust = TrustGraph::new(3);
    for i in 0..3usize {
        for j in 0..3usize {
            if i != j {
                trust.set_trust(i, j, 0.5);
            }
        }
    }
    let inst = AssignmentInstance::new(TASKS, 3, vec![1.0; 12], vec![1.0; 12], 10.0, 100.0)
        .expect("valid instance");
    FormationScenario::new(gsps, trust, inst).expect("consistent scenario")
}

/// One random mutation attempt: `(kind, a, b, v)`. Applied modulo the
/// live pool, and allowed to fail (failed mutations journal nothing —
/// e.g. a receipt whose only witness collides with its subject).
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, usize, usize, f64)>> {
    proptest::collection::vec((0u8..8, 0usize..8, 0usize..8, 0.05f64..1.0), 1..10)
}

fn apply(durable: &mut DurableRegistry, op: &(u8, usize, usize, f64)) {
    let (kind, a, b, v) = *op;
    let m = durable.gsp_count();
    match kind {
        // Trust reports twice as likely as membership churn, so the
        // pool doesn't just thrash.
        0..=2 => {
            let _ = durable.report_trust(a % m, b % m, v);
        }
        3 | 4 => {
            let _ = durable.add_gsp(50.0 + 100.0 * v, &[1.0 + v; TASKS], &[0.5 + v; TASKS]);
        }
        5 => {
            let _ = durable.remove_gsp(a % m);
        }
        // Execution receipts: success and failure, witnessed by one
        // other GSP when the draw allows it.
        _ => {
            let receipt = ExecutionReceipt::new(a, a % m, kind == 6, 10.0 * v, vec![b % m]);
            let _ = durable.report_receipt(&receipt);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_journal_line_prefix_recovers_the_matching_replay(ops in ops_strategy()) {
        let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("gridvo-prop-journal-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PersistConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Off,
            compact_bytes: u64::MAX,
        };
        let engine = ReputationEngine::default;

        let (mut durable, recovered) =
            DurableRegistry::open(&scenario(), engine(), Some(&config)).unwrap();
        prop_assert!(recovered.is_none());
        for op in &ops {
            apply(&mut durable, op);
        }
        let events = durable.events().to_vec();
        drop(durable);

        let journal_path = dir.join(JOURNAL_FILE);
        let pristine = std::fs::read_to_string(&journal_path).unwrap();
        let lines: Vec<&str> = pristine.lines().collect();
        prop_assert_eq!(lines.len(), events.len(), "one journal line per successful mutation");
        for (line, event) in lines.iter().zip(&events) {
            let on_disk: RegistryEvent = serde_json::from_str(line).unwrap();
            prop_assert_eq!(&on_disk, event, "journal line differs from the in-memory event");
        }

        for keep in 0..=lines.len() {
            let mut prefix: String = lines[..keep].join("\n");
            if keep > 0 {
                prefix.push('\n');
            }
            std::fs::write(&journal_path, prefix).unwrap();
            let (recovered, epoch) =
                DurableRegistry::open(&scenario(), engine(), Some(&config)).unwrap();
            let epoch = epoch.expect("bootstrap snapshot always recovers");
            prop_assert_eq!(epoch, keep as u64, "recovered epoch != surviving event count");
            prop_assert_eq!(recovered.epoch(), epoch);
            prop_assert_eq!(
                recovered.reputation().len(),
                recovered.gsp_count(),
                "recovered reputation vector must cover the pool"
            );

            let mut replayed = GspRegistry::from_scenario(&scenario(), engine()).unwrap();
            for ev in &events[..keep] {
                replayed.apply_event(ev).unwrap();
            }
            prop_assert_eq!(
                serde_json::to_string(&recovered.snapshot()).unwrap(),
                serde_json::to_string(&replayed.snapshot()).unwrap(),
                "prefix of {} events recovered to a different state", keep
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
