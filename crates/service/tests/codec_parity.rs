//! Codec parity: how a corpus of mutated wire lines decodes, folded
//! into one pinned digest, plus the exact bytes of pretty printing.
//!
//! The corpus starts from one golden line per request op and response
//! kind, plus a `form` and an `execute` reply on a `TableI::small`
//! pool. Each golden line's top-level object is mutated: truncated,
//! keys dropped, duplicated (holding `null`) before and after
//! themselves, values swapped for one of ten JSON tokens, an unknown
//! key with a nested value added, keys reversed, whitespace padded,
//! trailing garbage appended, and single tokens swapped inside nested
//! values. Every line is decoded as [`Request`], [`Response`] and
//! [`Value`]; the digest folds in the re-encoded bytes of each
//! accepted line and the message of each refused one. So a rewrite of
//! the codec that keeps the digest keeps every accept-or-refuse
//! decision, every re-encoded byte and every refusal text.
//!
//! Left out on purpose: numbers and `\u` escapes outside RFC 8259 (a
//! truncation that cuts a number right after its sign or decimal
//! point is one), which the reader refuses by design, and lines with
//! defects in two places, whose refusal names whichever the reader
//! meets first. Each mutation edits one place; an empty object in
//! place of a struct misses several of its fields, which are named in
//! declaration order either way.

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::{
    ExecutionReceipt, FaultEvent, FaultKind, FaultPlan, FormationOutcome, FormationScenario,
    IterationRecord, VoRecord,
};
use gridvo_service::cache::CacheStats;
use gridvo_service::metrics::{MarketGauges, Metrics};
use gridvo_service::protocol::{decode, encode, MechanismKind, Request, Response};
use gridvo_service::{Lease, RegistrySnapshot};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_solver::instance::Fnv1a;
use gridvo_solver::Assignment;
use rand::SeedableRng;
use serde_json::Value;

fn scenario() -> FormationScenario {
    let cfg = TableI { task_sizes: vec![12], gsps: 5, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario")
}

fn empty_outcome() -> FormationOutcome {
    FormationOutcome {
        iterations: vec![],
        feasible_vos: vec![],
        selected: None,
        total_seconds: 0.0,
    }
}

/// One line per request op and response kind, then a real `form` and
/// `execute` reply.
fn golden_lines() -> Vec<String> {
    let plan = FaultPlan::new(vec![
        FaultEvent { round: 2, gsp: 4, kind: FaultKind::SilentDrop { tasks: 3 } },
        FaultEvent { round: 0, gsp: 1, kind: FaultKind::Crash },
        FaultEvent { round: 1, gsp: 2, kind: FaultKind::Slowdown { factor: 1.5 } },
    ]);
    let requests = [
        Request::Form {
            seed: 9,
            mechanism: MechanismKind::Rvof,
            deadline_ms: Some(40),
            app: Some("atlas".to_string()),
        },
        Request::FormBatch {
            seeds: vec![1, 2, 3],
            mechanism: MechanismKind::Tvof,
            deadline_ms: None,
        },
        Request::Execute {
            seed: 5,
            mechanism: MechanismKind::Tvof,
            faults: plan,
            deadline_ms: None,
        },
        Request::AddGsp { speed_gflops: 99.5, cost: vec![1.0, 2.0], time: vec![0.5, 0.25] },
        Request::RemoveGsp { id: 3 },
        Request::ReportTrust { from: 0, to: 2, value: 0.75 },
        Request::ReportReceipt { receipt: ExecutionReceipt::new(2, 1, false, 12.5, vec![0, 3]) },
        Request::Release { lease: 4, abandon: true },
        Request::Leases,
        Request::Registry,
        Request::Metrics,
        Request::Ping { sleep_ms: 15 },
    ];
    let snapshot = RegistrySnapshot {
        epoch: 3,
        gsps: 2,
        tasks: 4,
        reputation: vec![0.625, 0.375],
        power_iterations: 12,
        events: 3,
    };
    let lease = Lease { id: 1, app: "atlas".to_string(), members: vec![0, 3], acquired_epoch: 5 };
    let s = scenario();
    let mechanism = Mechanism::tvof(FormationConfig::default());
    let mut outcome =
        mechanism.run(&s, &mut rand::rngs::StdRng::seed_from_u64(3)).expect("formation runs");
    outcome.zero_timings();
    let vo = outcome.selected.clone().expect("a feasible scenario selects a VO");
    let faults = gridvo_sim::faults::FaultModel::with_rate(0.6, 3)
        .plan(&vo.members, &mut rand::rngs::StdRng::seed_from_u64(99));
    let mut report = mechanism.execute(&s, &vo, &faults).expect("execution runs");
    report.zero_timings();
    let responses = [
        Response::market_form_from(empty_outcome(), Some((3, 9)), 8),
        Response::Execute { outcome: empty_outcome(), report: None },
        Response::Ack { epoch: 4, id: Some(2) },
        Response::BatchEnd { epoch: 17, served: 5 },
        Response::Registry { snapshot, epoch: Some(3) },
        Response::Metrics {
            snapshot: Metrics::new()
                .snapshot(CacheStats { hits: 3, misses: 1, entries: 2 }, MarketGauges::default()),
        },
        Response::Leases { leases: vec![lease], free: vec![1, 2, 4], epoch: 6 },
        Response::PoolExhausted { free: 2 },
        Response::Throttled,
        Response::Pong,
        Response::Busy,
        Response::DeadlineExceeded,
        Response::UnknownLease { lease: 2 },
        Response::Leased { gsp: 2, lease: 4 },
        Response::Error { message: "queue \"exploded\"".to_string() },
        Response::form_from(outcome.clone()),
        Response::Execute { outcome, report: Some(report) },
    ];
    requests.iter().map(encode).chain(responses.iter().map(encode)).collect()
}

/// The ten tokens each top-level value is swapped for.
fn swap_tokens() -> [Value; 10] {
    [
        Value::Str("x".to_string()),
        Value::Int(1),
        Value::Int(-1),
        Value::Float(1.5),
        Value::Null,
        Value::Bool(true),
        Value::Array(vec![]),
        Value::Object(vec![]),
        Value::Array(vec![Value::Int(1), Value::Int(2)]),
        Value::UInt(u64::MAX),
    ]
}

/// A leaf of a different kind: one token swapped for another.
fn swapped_leaf(leaf: &Value) -> Value {
    match leaf {
        Value::Int(_) | Value::UInt(_) | Value::Float(_) => Value::Str("x".to_string()),
        Value::Str(_) => Value::Int(7),
        Value::Bool(_) => Value::Null,
        Value::Null => Value::Bool(true),
        Value::Array(_) => Value::Object(vec![]),
        Value::Object(_) => Value::Array(vec![]),
    }
}

/// The paths (child positions) of every leaf under `v`, in document
/// order. Empty arrays and objects count as leaves.
fn leaf_paths(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Value> = match v {
        Value::Array(items) => items.iter().collect(),
        Value::Object(fields) => fields.iter().map(|(_, f)| f).collect(),
        _ => vec![],
    };
    if children.is_empty() {
        out.push(path.clone());
    }
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        leaf_paths(child, path, out);
        path.pop();
    }
}

fn at_path<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    match path.split_first() {
        None => v,
        Some((&i, rest)) => match v {
            Value::Array(items) => at_path(&mut items[i], rest),
            Value::Object(fields) => at_path(&mut fields[i].1, rest),
            _ => unreachable!("leaf paths only descend containers"),
        },
    }
}

fn line_of(fields: Vec<(String, Value)>) -> String {
    serde_json::to_string(&Value::Object(fields)).unwrap()
}

/// Every mutation of one golden line.
fn mutations(golden: &str) -> Vec<String> {
    let mut out = vec![golden.to_string()];
    let step = if golden.len() > 400 { 13 } else { 1 };
    for cut in (0..golden.len()).step_by(step) {
        let prefix = &golden[..cut];
        // A cut right after a sign or a decimal point leaves a number
        // outside RFC 8259.
        if !prefix.ends_with(['-', '.']) {
            out.push(prefix.to_string());
        }
    }
    let Value::Object(fields) = serde_json::from_str::<Value>(golden).unwrap() else {
        panic!("golden lines are objects: {golden}");
    };
    for i in 0..fields.len() {
        let mut dropped = fields.clone();
        dropped.remove(i);
        out.push(line_of(dropped));
        for at in [i, i + 1] {
            let mut duplicated = fields.clone();
            duplicated.insert(at, (fields[i].0.clone(), Value::Null));
            out.push(line_of(duplicated));
        }
        for token in swap_tokens() {
            let mut swapped = fields.clone();
            swapped[i].1 = token;
            out.push(line_of(swapped));
        }
        let mut paths = Vec::new();
        leaf_paths(&fields[i].1, &mut Vec::new(), &mut paths);
        if paths.first().is_some_and(|p| !p.is_empty()) {
            for path in paths.iter().step_by(paths.len().div_ceil(24)) {
                let mut swapped = fields.clone();
                let leaf = at_path(&mut swapped[i].1, path);
                *leaf = swapped_leaf(leaf);
                out.push(line_of(swapped));
            }
        }
    }
    let unknown = (
        "zz_unknown".to_string(),
        Value::Object(vec![
            ("a".to_string(), Value::Array(vec![Value::Int(1), Value::Object(vec![])])),
            ("b".to_string(), Value::Str("y\"z".to_string())),
        ]),
    );
    for at in [0, fields.len()] {
        let mut extended = fields.clone();
        extended.insert(at, unknown.clone());
        out.push(line_of(extended));
    }
    out.push(line_of(fields.iter().rev().cloned().collect()));
    let pretty = serde_json::to_string_pretty(&Value::Object(fields)).unwrap();
    out.push(format!(" \t{pretty}\r\n "));
    out.push(format!("{golden} x"));
    out.push(format!("{golden}{{}}"));
    out
}

fn fold<T: serde::Serialize>(h: &mut Fnv1a, decoded: Result<T, String>) {
    let result = match decoded {
        Ok(v) => format!("ok {}", encode(&v)),
        Err(e) => format!("err {e}"),
    };
    h.write(result.as_bytes());
    h.write(&[0]);
}

#[test]
fn mutated_lines_decode_to_the_pinned_digest() {
    let corpus: Vec<String> = golden_lines().iter().flat_map(|g| mutations(g)).collect();
    let mut h = Fnv1a::new();
    for line in &corpus {
        fold(&mut h, decode::<Request>(line));
        fold(&mut h, decode::<Response>(line));
        fold(&mut h, decode::<Value>(line));
    }
    assert_eq!(corpus.len(), 3377);
    assert_eq!(h.finish(), 15_231_217_608_630_151_396);
}

/// A two-round formation: one feasible round that evicts, then an
/// infeasible one.
fn small_outcome() -> FormationOutcome {
    let vo = VoRecord {
        members: vec![0, 2],
        assignment: Assignment::new(vec![1, 0, 1]),
        cost: 7.5,
        value: 2.5,
        payoff_share: 1.25,
        avg_reputation: 0.5,
        optimal: true,
        gap: Some(0.0),
    };
    let round = |iteration: usize, members: Vec<usize>, feasible: bool| IterationRecord {
        iteration,
        reputation_scores: vec![0.5; members.len()],
        members,
        feasible,
        cost: feasible.then_some(7.5),
        payoff_share: feasible.then_some(1.25),
        avg_reputation: 0.5,
        evicted: feasible.then_some(2),
        solve_seconds: 0.0,
        nodes: 3,
        incumbent_source: feasible.then(|| "warm".to_string()),
        gap: feasible.then_some(0.0),
        power_iterations: 1,
    };
    FormationOutcome {
        iterations: vec![round(0, vec![0, 2], true), round(1, vec![0], false)],
        feasible_vos: vec![vo.clone()],
        selected: Some(vo),
        total_seconds: 0.0,
    }
}

/// [`small_outcome`], pretty printed.
const PRETTY_OUTCOME: &str = r#"{
  "iterations": [
    {
      "iteration": 0,
      "members": [
        0,
        2
      ],
      "feasible": true,
      "cost": 7.5,
      "payoff_share": 1.25,
      "avg_reputation": 0.5,
      "reputation_scores": [
        0.5,
        0.5
      ],
      "evicted": 2,
      "solve_seconds": 0.0,
      "nodes": 3,
      "incumbent_source": "warm",
      "gap": 0.0,
      "power_iterations": 1
    },
    {
      "iteration": 1,
      "members": [
        0
      ],
      "feasible": false,
      "cost": null,
      "payoff_share": null,
      "avg_reputation": 0.5,
      "reputation_scores": [
        0.5
      ],
      "evicted": null,
      "solve_seconds": 0.0,
      "nodes": 3,
      "incumbent_source": null,
      "gap": null,
      "power_iterations": 1
    }
  ],
  "feasible_vos": [
    {
      "members": [
        0,
        2
      ],
      "assignment": {
        "gsp_of": [
          1,
          0,
          1
        ]
      },
      "cost": 7.5,
      "value": 2.5,
      "payoff_share": 1.25,
      "avg_reputation": 0.5,
      "optimal": true,
      "gap": 0.0
    }
  ],
  "selected": {
    "members": [
      0,
      2
    ],
    "assignment": {
      "gsp_of": [
        1,
        0,
        1
      ]
    },
    "cost": 7.5,
    "value": 2.5,
    "payoff_share": 1.25,
    "avg_reputation": 0.5,
    "optimal": true,
    "gap": 0.0
  },
  "total_seconds": 0.0
}"#;

const PRETTY_NESTED: &str = r#"{
  "a": [],
  "b": {},
  "c": [
    {},
    [
      []
    ]
  ],
  "d": null
}"#;

#[test]
fn pretty_printing_is_pinned() {
    assert_eq!(serde_json::to_string_pretty(&small_outcome()).unwrap(), PRETTY_OUTCOME);
    assert_eq!(serde_json::to_string_pretty(&Vec::<u64>::new()).unwrap(), "[]");
    assert_eq!(serde_json::to_string_pretty(&Value::Object(vec![])).unwrap(), "{}");
    let nested = Value::Object(vec![
        ("a".to_string(), Value::Array(vec![])),
        ("b".to_string(), Value::Object(vec![])),
        (
            "c".to_string(),
            Value::Array(vec![Value::Object(vec![]), Value::Array(vec![Value::Array(vec![])])]),
        ),
        ("d".to_string(), Value::Null),
    ]);
    assert_eq!(serde_json::to_string_pretty(&nested).unwrap(), PRETTY_NESTED);
}
