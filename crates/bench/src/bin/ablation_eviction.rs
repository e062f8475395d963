//! Beyond-paper ablation: eviction policies.
//!
//! TVOF's one design choice is *who leaves* each iteration. This
//! ablation runs the formation driver with four policies on the same
//! scenarios — lowest reputation (TVOF), uniform random (RVOF),
//! highest cost, lowest speed — and reports payoff, VO size and
//! reputation of the selected VO for each.

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_core::mechanism::{EvictionPolicy, Mechanism};
use gridvo_sim::experiments::{aggregate_formed, mechanism_ablation, paper_config};

fn main() {
    let args = BenchArgs::from_env();
    let cfg = args.table();
    let mech_cfg = paper_config(&cfg);

    let policies = [
        ("lowest-reputation (TVOF)", EvictionPolicy::LowestReputation),
        ("uniform-random (RVOF)", EvictionPolicy::UniformRandom),
        ("highest-cost", EvictionPolicy::HighestCost),
        ("lowest-speed", EvictionPolicy::LowestSpeed),
    ];
    let mechanisms: Vec<Mechanism> =
        policies.iter().map(|&(_, policy)| Mechanism::with_eviction(policy, mech_cfg)).collect();
    let runs = mechanism_ablation(&cfg, args.program_size(), 0xAB1A, &args.seeds, &mechanisms)
        .expect("ablation runs");

    let mut rows = Vec::new();
    let mut csv = String::from("policy,payoff_mean,payoff_std,vo_size_mean,reputation_mean\n");
    for ((name, _), runs) in policies.iter().zip(&runs) {
        let p = aggregate_formed(runs, |m| m.payoff_share);
        let s = aggregate_formed(runs, |m| m.vo_size as f64);
        let r = aggregate_formed(runs, |m| m.avg_reputation);
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", p.mean),
            format!("{:.2}", s.mean),
            format!("{:.4}", r.mean),
        ]);
        csv.push_str(&format!("{},{:.6},{:.6},{:.4},{:.6}\n", name, p.mean, p.std, s.mean, r.mean));
    }
    println!("{}", ascii_table(&["policy", "payoff", "|VO|", "avg rep"], &rows));
    args.write_artifact("ablation_eviction.csv", &csv).unwrap();
}
