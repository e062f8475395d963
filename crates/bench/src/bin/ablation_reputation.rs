//! Beyond-paper ablation: reputation engines inside TVOF.
//!
//! Swaps Algorithm 2 (the power method) for PageRank damping, Hang-et-
//! al. path propagation, and plain weighted in-degree, keeping the
//! rest of the mechanism fixed — does eigenvector centrality actually
//! matter, or does any trust summary do?

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_core::reputation::ReputationEngine;
use gridvo_sim::experiments::paper_config;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::{seeded_rng, Aggregate};

fn main() {
    let args = BenchArgs::from_env();
    let cfg = args.table();
    let generator = ScenarioGenerator::new(cfg.clone());
    let tasks = args.program_size();

    let engines: Vec<(&str, ReputationEngine)> = vec![
        ("power method (paper)", ReputationEngine::default()),
        ("pagerank 0.85", ReputationEngine::pagerank(0.85)),
        ("path propagation 3-hop", ReputationEngine::PathPropagation { max_hops: 3 }),
        ("in-degree", ReputationEngine::InDegree),
    ];

    let mut rows = Vec::new();
    let mut csv = String::from("engine,payoff_mean,reputation_mean,vo_size_mean\n");
    for (name, engine) in engines {
        let mech_cfg = FormationConfig { reputation: engine, ..paper_config(&cfg) };
        let mut payoffs = Vec::new();
        let mut reps = Vec::new();
        let mut sizes = Vec::new();
        for &seed in &args.seeds {
            let mut rng = seeded_rng(0xAB9E, seed);
            let scenario = generator.scenario(tasks, &mut rng).expect("calibrated scenario");
            let outcome =
                Mechanism::tvof(mech_cfg).run(&scenario, &mut rng).expect("mechanism runs");
            if let Some(vo) = outcome.selected {
                payoffs.push(vo.payoff_share);
                reps.push(vo.avg_reputation);
                sizes.push(vo.size() as f64);
            }
        }
        let (p, r, s) = (Aggregate::of(&payoffs), Aggregate::of(&reps), Aggregate::of(&sizes));
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
