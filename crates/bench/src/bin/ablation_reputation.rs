//! Beyond-paper ablation: reputation engines inside TVOF.
//!
//! Swaps Algorithm 2 (the power method) for PageRank damping, Hang-et-
//! al. path propagation, and plain weighted in-degree, keeping the
//! rest of the mechanism fixed — does eigenvector centrality actually
//! matter, or does any trust summary do?

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::reputation::ReputationEngine;
use gridvo_sim::experiments::{aggregate_formed, mechanism_ablation, paper_config};

fn main() {
    let args = BenchArgs::from_env();
    let cfg = args.table();

    let engines: Vec<(&str, ReputationEngine)> = vec![
        ("power method (paper)", ReputationEngine::default()),
        ("pagerank 0.85", ReputationEngine::pagerank(0.85)),
        ("path propagation 3-hop", ReputationEngine::PathPropagation),
        ("in-degree", ReputationEngine::InDegree),
    ];
    let mechanisms: Vec<Mechanism> = engines
        .iter()
        .map(|&(_, reputation)| {
            Mechanism::tvof(FormationConfig { reputation, ..paper_config(&cfg) })
        })
        .collect();
    let runs = mechanism_ablation(&cfg, args.program_size(), 0xAB9E, &args.seeds, &mechanisms)
        .expect("ablation runs");

    let mut rows = Vec::new();
    let mut csv = String::from("engine,payoff_mean,reputation_mean,vo_size_mean\n");
    for ((name, _), runs) in engines.iter().zip(&runs) {
        let p = aggregate_formed(runs, |m| m.payoff_share);
        let r = aggregate_formed(runs, |m| m.avg_reputation);
        let s = aggregate_formed(runs, |m| m.vo_size as f64);
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", p.mean),
            format!("{:.4}", r.mean),
            format!("{:.2}", s.mean),
        ]);
        csv.push_str(&format!("{},{:.6},{:.6},{:.4}\n", name, p.mean, r.mean, s.mean));
    }
    println!("{}", ascii_table(&["engine", "payoff", "avg rep", "|VO|"], &rows));
    args.write_artifact("ablation_reputation.csv", &csv).unwrap();
}
