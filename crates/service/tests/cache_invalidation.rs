//! Differential guarantee behind the narrow solve-cache eviction:
//! across an interleaving of trust reports, execution receipts, and
//! formation requests, a caching daemon serves **byte-identical**
//! responses to one with caching disabled — no stale hit ever
//! survives a reputation-bearing mutation.
//!
//! The eviction policy under test
//! ([`gridvo_service`'s `SharedSolveCache::invalidate_members`]) is
//! deliberately narrow: a trust / receipt update drops only the
//! cached solves whose member set includes a touched GSP. This test
//! is what licenses that narrowness — if eviction ever under-shoots,
//! the cached daemon diverges from the uncached one and the
//! interleaving here catches it.

use gridvo_core::{ExecutionReceipt, FormationScenario, Gsp};
use gridvo_service::protocol::{MechanismKind, Response};
use gridvo_service::{ServerConfig, ServerHandle, ServiceClient};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_solver::AssignmentInstance;
use gridvo_trust::TrustGraph;
use proptest::prelude::*;
use rand::SeedableRng;

fn scenario() -> FormationScenario {
    let cfg = TableI { task_sizes: vec![12], gsps: 6, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario")
}

/// One step of the interleaved workload.
enum Step {
    Form { seed: u64 },
    Batch { seeds: Vec<u64> },
    Trust { from: usize, to: usize, value: f64 },
    Receipt { receipt: ExecutionReceipt },
}

/// A fixed interleaving that revisits the same form seeds after every
/// mutation, so a stale cache entry would be *served* (not just
/// resident) if eviction missed it.
fn workload() -> Vec<Step> {
    vec![
        Step::Form { seed: 42 },
        Step::Form { seed: 7 },
        // Trust shifts on GSPs likely inside the formed VO.
        Step::Trust { from: 0, to: 1, value: 0.15 },
        Step::Form { seed: 42 },
        // A failure receipt collapses GSP 1's earned trust.
        Step::Receipt { receipt: ExecutionReceipt::new(0, 1, false, 9.0, vec![0, 2, 3]) },
        Step::Form { seed: 42 },
        Step::Form { seed: 7 },
        // Successes for a co-member; replay both seeds again.
        Step::Receipt { receipt: ExecutionReceipt::new(1, 2, true, 6.0, vec![0, 1]) },
        Step::Receipt { receipt: ExecutionReceipt::new(2, 2, true, 6.0, vec![0, 1]) },
        Step::Form { seed: 42 },
        Step::Form { seed: 7 },
        Step::Trust { from: 3, to: 0, value: 0.9 },
        Step::Form { seed: 42 },
        // Repeat a failure so the discounted posterior keeps moving.
        Step::Receipt { receipt: ExecutionReceipt::new(3, 1, false, 9.0, vec![0, 2, 3]) },
        Step::Form { seed: 42 },
        Step::Form { seed: 7 },
    ]
}

/// Run a workload against one daemon, returning every response as
/// its serialized bytes (acks included — epochs must line up too).
fn run(client: &mut ServiceClient, steps: &[Step]) -> Vec<String> {
    steps
        .iter()
        .map(|step| match step {
            Step::Form { seed } => {
                let response = client.form(*seed, MechanismKind::Tvof, None).unwrap();
                serde_json::to_string(&response).unwrap()
            }
            Step::Batch { seeds } => {
                let responses = client.form_batch(seeds, MechanismKind::Tvof, None).unwrap();
                serde_json::to_string(&responses).unwrap()
            }
            Step::Trust { from, to, value } => {
                format!("epoch:{}", client.report_trust(*from, *to, *value).unwrap())
            }
            Step::Receipt { receipt } => {
                format!("epoch:{}", client.report_receipt(receipt.clone()).unwrap())
            }
        })
        .collect()
}

/// Serve `steps` on a fresh caching daemon and a fresh capacity-0
/// daemon; return both byte transcripts plus the cached daemon's hit
/// count.
fn differential(s: &FormationScenario, steps: &[Step]) -> (Vec<String>, Vec<String>, u64) {
    let cached = ServerHandle::spawn(s, ServerConfig::default()).expect("bind loopback");
    let mut cached_client = ServiceClient::connect(cached.addr()).unwrap();
    let cached_bytes = run(&mut cached_client, steps);
    let cached_stats = cached_client.metrics().unwrap();
    cached.shutdown();

    let uncached_config = ServerConfig { cache_capacity: 0, ..ServerConfig::default() };
    let uncached = ServerHandle::spawn(s, uncached_config).expect("bind loopback");
    let mut uncached_client = ServiceClient::connect(uncached.addr()).unwrap();
    let uncached_bytes = run(&mut uncached_client, steps);
    let uncached_stats = uncached_client.metrics().unwrap();
    uncached.shutdown();

    assert_eq!(uncached_stats.cache_hits, 0, "capacity-0 daemon must never hit");
    (cached_bytes, uncached_bytes, cached_stats.cache_hits)
}

#[test]
fn cached_daemon_never_serves_stale_bytes_across_mutations() {
    let s = scenario();
    let (cached_bytes, uncached_bytes, cache_hits) = differential(&s, &workload());

    assert_eq!(cached_bytes.len(), uncached_bytes.len());
    for (i, (cached_line, uncached_line)) in cached_bytes.iter().zip(&uncached_bytes).enumerate() {
        assert_eq!(
            cached_line, uncached_line,
            "step {i}: caching daemon served different bytes — a stale solve survived"
        );
    }

    // The comparison only bites if the cached daemon actually reused
    // entries: identical replays between mutations must hit.
    assert!(cache_hits > 0, "workload never exercised the cache");
}

/// Random steps: `(kind, a, b, v)` decoded against a small seed pool
/// so form replays collide often enough to keep the cache hot.
fn steps_strategy() -> impl Strategy<Value = Vec<(u8, usize, usize, f64)>> {
    proptest::collection::vec((0u8..8, 0usize..6, 0usize..6, 0.05f64..1.0), 4usize..16)
}

fn decode_steps(raw: &[(u8, usize, usize, f64)], gsps: usize) -> Vec<Step> {
    const SEEDS: [u64; 3] = [7, 42, 99];
    raw.iter()
        .enumerate()
        .map(|(i, &(kind, a, b, v))| {
            let a = a % gsps;
            let b = if b % gsps == a { (a + 1) % gsps } else { b % gsps };
            match kind {
                // Forms and batches dominate so most mutations are
                // followed by a replay that would surface staleness.
                0 | 1 => Step::Form { seed: SEEDS[a % SEEDS.len()] },
                2 | 3 => {
                    Step::Batch { seeds: vec![SEEDS[a % SEEDS.len()], SEEDS[b % SEEDS.len()]] }
                }
                4 | 5 => Step::Trust { from: a, to: b, value: v },
                6 => Step::Receipt { receipt: ExecutionReceipt::new(i, a, true, 8.0 * v, vec![b]) },
                _ => {
                    Step::Receipt { receipt: ExecutionReceipt::new(i, a, false, 8.0 * v, vec![b]) }
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generalization of the fixed workload above, batch requests
    /// included: for *any* interleaving of trust reports, receipts,
    /// forms and batches, the caching daemon and the capacity-0
    /// daemon agree byte for byte.
    #[test]
    fn any_interleaving_agrees_with_the_uncached_daemon(raw in steps_strategy()) {
        let s = scenario();
        let steps = decode_steps(&raw, s.gsps().len());
        let (cached_bytes, uncached_bytes, _hits) = differential(&s, &steps);
        prop_assert_eq!(cached_bytes, uncached_bytes);
    }
}

/// A receipt evicts exactly the cached solves whose members include
/// its subject. On a 10-GSP × 20-task pool in which no GSP trusts
/// GSP 9, TVOF evicts GSP 9 first, so of one formation's ten cached
/// round solves only round 0's contains it.
#[test]
fn a_receipt_evicts_only_the_solves_that_contain_its_subject() {
    let (tasks, gsps) = (20, 10);
    let mut trust = TrustGraph::new(gsps);
    for from in 0..gsps {
        for to in (0..9).filter(|&to| to != from) {
            trust.set_trust(from, to, 0.5);
        }
    }
    let cost: Vec<f64> = (0..tasks * gsps).map(|k| 1.0 + (k % 7) as f64 * 0.25).collect();
    let inst = AssignmentInstance::new(tasks, gsps, cost.clone(), cost, 1e6, 1e4).unwrap();
    let pool = (0..gsps).map(|g| Gsp::new(g, 50.0 + g as f64)).collect();
    let s = FormationScenario::new(pool, trust, inst).unwrap();

    let daemon = ServerHandle::spawn(&s, ServerConfig::default()).expect("bind loopback");
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    let Response::Form { outcome, .. } = client.form(3, MechanismKind::Tvof, None).unwrap() else {
        panic!("form did not answer a formation");
    };
    assert_eq!(outcome.iterations.len(), 10, "one round per VO size");
    assert_eq!(outcome.iterations[0].evicted, Some(9), "GSP 9 is evicted first");
    assert_eq!(client.metrics().unwrap().cache_entries, 10, "one cached solve per round");

    client.report_receipt(ExecutionReceipt::new(0, 9, false, 5.0, vec![0])).unwrap();
    assert_eq!(client.metrics().unwrap().cache_entries, 9, "only round 0's solve held GSP 9");
    daemon.shutdown();
}
