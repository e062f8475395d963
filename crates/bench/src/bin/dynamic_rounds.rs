//! Beyond-paper: dynamic multi-round VO formation.
//!
//! GSPs have hidden reliabilities; trust accumulates from delivery
//! outcomes across rounds. This experiment shows TVOF *learning*: the
//! mean hidden reliability of its selected members rises over rounds
//! as unreliable providers lose reputation, while RVOF shows no drift
//! (random evictions ignore the accumulated evidence).

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_core::mechanism::Mechanism;
use gridvo_sim::dynamic::{mean_reliability, simulate, success_rate, DynamicConfig};
use gridvo_sim::experiments::paper_config;
use gridvo_sim::runner::{run_seeds, Aggregate};
use gridvo_sim::TableI;
use rand::Rng;

fn main() {
    let args = BenchArgs::from_env();
    let rounds = if args.paper { 40 } else { 16 };
    let tasks = 64;
    let table = TableI { task_sizes: vec![tasks], trace_jobs: 5_000, ..TableI::default() };

    let mech_cfg = paper_config(&table);
    let mechanisms = [("TVOF", Mechanism::tvof(mech_cfg)), ("RVOF", Mechanism::rvof(mech_cfg))];
    let half = rounds / 2;
    // Per seed and mechanism: early-half and late-half member
    // reliability, and the success rate.
    let per_seed = run_seeds(0xD1A, &args.seeds, |_seed, rng| {
        // Hidden reliabilities: a third of the federation is flaky.
        let reliabilities: Vec<f64> = (0..table.gsps)
            .map(|g| if g % 3 == 2 { rng.gen_range(0.2..0.5) } else { rng.gen_range(0.9..1.0) })
            .collect();
        let cfg = DynamicConfig::new(table.clone(), rounds, tasks, reliabilities);
        // Each mechanism simulates from a clone of the post-draw RNG.
        mechanisms
            .iter()
            .map(|&(_, mech)| {
                let r = simulate(&cfg, mech, &mut rng.clone())?;
                Ok([mean_reliability(&r[..half]), mean_reliability(&r[half..]), success_rate(&r)])
            })
            .collect::<gridvo_sim::Result<Vec<_>>>()
    });
    let per_seed: Vec<Vec<[f64; 3]>> =
        per_seed.into_iter().collect::<Result<_, _>>().expect("simulation runs");

    let mut csv = String::from("mechanism,seed,early_reliability,late_reliability,success_rate\n");
    let mut rows = Vec::new();
    for (k, (name, _)) in mechanisms.iter().enumerate() {
        let runs: Vec<[f64; 3]> = per_seed.iter().map(|r| r[k]).collect();
        for (seed, [e, l, s]) in args.seeds.iter().zip(&runs) {
            csv.push_str(&format!("{name},{seed},{e:.4},{l:.4},{s:.4}\n"));
        }
        let agg = |i: usize| Aggregate::of(&runs.iter().map(|r| r[i]).collect::<Vec<_>>());
        let (e, l, s) = (agg(0), agg(1), agg(2));
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", e.mean),
            format!("{:.4}", l.mean),
            format!("{:+.4}", l.mean - e.mean),
            format!("{:.3}", s.mean),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &[
                "mechanism",
                "early-half reliability",
                "late-half reliability",
                "drift",
                "success rate"
            ],
            &rows
        )
    );
    println!(
        "TVOF's positive drift is the dynamic-formation payoff: reputation built from\n\
         delivery history steers selection away from unreliable providers."
    );
    args.write_artifact("dynamic_rounds.csv", &csv).unwrap();
}
