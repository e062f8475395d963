//! `gridvo dynamic` — multi-round dynamic formation.

use crate::args::Flags;
use crate::commands::mechanism;
use gridvo_core::mechanism::Mechanism;
use gridvo_service::MechanismKind;
use gridvo_sim::dynamic::{mean_reliability, simulate, success_rate, DynamicConfig};
use gridvo_sim::experiments::paper_config;
use gridvo_sim::TableI;
use rand::{Rng, SeedableRng};

const HELP: &str = "\
usage: gridvo dynamic [--rounds R] [--gsps M] [--tasks N] [--seed S]
                      [--mechanism tvof|rvof] [--flaky-every K]

Simulates R program arrivals with hidden per-GSP reliabilities (every
K-th GSP is flaky); trust accumulates from delivery outcomes. Prints
the per-round VO, whether the program was delivered, and the
reliability-learning summary.";

pub fn run(argv: &[String]) -> Result<(), String> {
    let flags =
        Flags::parse(argv, &["rounds", "gsps", "tasks", "seed", "mechanism", "flaky-every"], &[])
            .map_err(|e| if e == "help" { HELP.to_string() } else { e })?;
    let rounds: usize = flags.num("rounds", 12)?;
    let gsps: usize = flags.num("gsps", 16)?;
    let tasks: usize = flags.num("tasks", 64)?;
    let seed: u64 = flags.num("seed", 1)?;
    let flaky_every: usize = flags.num("flaky-every", 3)?;
    let kind = mechanism(&flags)?;
    if tasks < gsps {
        return Err(format!("--tasks {tasks} must be ≥ --gsps {gsps}"));
    }

    let table = TableI { gsps, task_sizes: vec![tasks], trace_jobs: 5_000, ..TableI::default() };
    // The simulator's node cap, as `dynamic_rounds` runs it.
    let mech = match kind {
        MechanismKind::Tvof => Mechanism::tvof(paper_config(&table)),
        MechanismKind::Rvof => Mechanism::rvof(paper_config(&table)),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let reliabilities: Vec<f64> = (0..gsps)
        .map(|g| {
            if flaky_every > 0 && g % flaky_every == flaky_every - 1 {
                rng.gen_range(0.2..0.5)
            } else {
                rng.gen_range(0.9..1.0)
            }
        })
        .collect();
    out!("hidden reliabilities:");
    for r in &reliabilities {
        out!(" {r:.2}");
    }
    outln!();

    let cfg = DynamicConfig::new(table, rounds, tasks, reliabilities);
    let records = simulate(&cfg, mech, &mut rng).map_err(|e| e.to_string())?;

    outln!("round  |VO|  member-reliability  delivered  failed");
    for r in &records {
        outln!(
            "{:>5}  {:>4}  {:>18.3}  {:>9}  {:?}",
            r.round,
            r.members.len(),
            r.mean_reliability,
            r.delivered,
            r.failed_members
        );
    }
    let half = rounds / 2;
    outln!(
        "\nmean member reliability: first half {:.3}, second half {:.3} (drift {:+.3})",
        mean_reliability(&records[..half]),
        mean_reliability(&records[half..]),
        mean_reliability(&records[half..]) - mean_reliability(&records[..half]),
    );
    outln!("program success rate:    {:.2}", success_rate(&records));
    Ok(())
}
