//! Beyond-paper ablation: trust-graph topology.
//!
//! The paper fixes Erdős–Rényi `p = 0.1`. This ablation sweeps ER
//! density and swaps in Watts–Strogatz and Barabási–Albert trust
//! networks, asking whether TVOF's reputation advantage over RVOF
//! survives topology changes.

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_core::mechanism::Mechanism;
use gridvo_sim::experiments::paper_config;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::{run_seeds, Aggregate};
use gridvo_sim::SimError;
use gridvo_trust::generators;
use gridvo_trust::TrustGraph;
use rand::rngs::StdRng;

type TopologyGen = Box<dyn Fn(&mut StdRng) -> TrustGraph + Sync>;

fn topologies(m: usize) -> Vec<(&'static str, TopologyGen)> {
    vec![
        ("ER p=0.05", Box::new(move |rng| generators::erdos_renyi(rng, m, 0.05, 0.05..1.0))),
        ("ER p=0.1 (paper)", Box::new(move |rng| generators::erdos_renyi(rng, m, 0.1, 0.05..1.0))),
        ("ER p=0.3", Box::new(move |rng| generators::erdos_renyi(rng, m, 0.3, 0.05..1.0))),
        (
            "Watts-Strogatz k=2 beta=0.3",
            Box::new(move |rng| generators::watts_strogatz(rng, m, 2, 0.3, 0.05..1.0)),
        ),
        (
            "Barabasi-Albert k=2",
            Box::new(move |rng| generators::barabasi_albert(rng, m, 2, 0.05..1.0)),
        ),
        ("complete", Box::new(move |rng| generators::complete(rng, m, 0.05..1.0))),
    ]
}

fn main() {
    let args = BenchArgs::from_env();
    let cfg = args.table();
    let generator = ScenarioGenerator::new(cfg.clone());
    let mech_cfg = paper_config(&cfg);
    let tasks = args.program_size();

    let mut rows = Vec::new();
    let mut csv =
        String::from("topology,tvof_reputation,rvof_reputation,tvof_payoff,rvof_payoff\n");
    for (name, make_trust) in topologies(cfg.gsps) {
        let runs = run_seeds(0xAB70, &args.seeds, |_seed, rng| {
            let mut scenario = generator.scenario(tasks, rng)?;
            scenario.replace_trust(make_trust(rng))?;
            let tvof = Mechanism::tvof(mech_cfg).run(&scenario, rng)?;
            let rvof = Mechanism::rvof(mech_cfg).run(&scenario, rng)?;
            Ok::<_, SimError>(tvof.selected.zip(rvof.selected))
        });
        let mut tv_rep = Vec::new();
        let mut rv_rep = Vec::new();
        let mut tv_pay = Vec::new();
        let mut rv_pay = Vec::new();
        for run in runs {
            if let Some((a, b)) = run.expect("topology run") {
                tv_rep.push(a.avg_reputation);
                rv_rep.push(b.avg_reputation);
                tv_pay.push(a.payoff_share);
                rv_pay.push(b.payoff_share);
            }
        }
        let (tr, rr) = (Aggregate::of(&tv_rep), Aggregate::of(&rv_rep));
        let (tp, rp) = (Aggregate::of(&tv_pay), Aggregate::of(&rv_pay));
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", tr.mean),
            format!("{:.4}", rr.mean),
            format!("{:.2}", tp.mean),
            format!("{:.2}", rp.mean),
        ]);
        csv.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.6}\n",
            name, tr.mean, rr.mean, tp.mean, rp.mean
        ));
    }
    println!(
        "{}",
        ascii_table(&["topology", "TVOF rep", "RVOF rep", "TVOF payoff", "RVOF payoff"], &rows)
    );
    args.write_artifact("ablation_topology.csv", &csv).unwrap();
}
