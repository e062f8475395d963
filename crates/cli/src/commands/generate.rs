//! `gridvo generate scenario|trace` — build experiment inputs.

use crate::args::Flags;
use crate::commands::write_json;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::TableI;
use gridvo_workload::atlas;
use rand::SeedableRng;

const HELP: &str = "\
usage: gridvo generate scenario --out FILE [--tasks N] [--gsps M] [--seed S]
       gridvo generate trace    --out FILE [--jobs N] [--seed S]

scenario: a Table-I formation scenario (JSON) — GSP speeds, Braun cost
matrix, consistent time matrix, calibrated deadline/payment, ER trust.
trace: a synthetic LLNL-Atlas-like workload in Standard Workload Format.";

pub fn run(argv: &[String]) -> Result<(), String> {
    let Some((kind, rest)) = argv.split_first() else {
        return Err(HELP.to_string());
    };
    match kind.as_str() {
        "scenario" => scenario(rest),
        "trace" => trace(rest),
        _ => Err(HELP.to_string()),
    }
}

fn scenario(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, &["out", "tasks", "gsps", "seed"], &[]).map_err(|e| {
        if e == "help" {
            HELP.to_string()
        } else {
            e
        }
    })?;
    let out = flags.require("out")?;
    let tasks: usize = flags.num("tasks", 128)?;
    let gsps: usize = flags.num("gsps", 16)?;
    let seed: u64 = flags.num("seed", 1)?;
    if tasks < gsps {
        return Err(format!("--tasks {tasks} must be at least --gsps {gsps} (constraint (13))"));
    }
    let cfg = TableI { gsps, task_sizes: vec![tasks], ..TableI::default() };
    let generator = ScenarioGenerator::new(cfg);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let scenario =
        generator.scenario(tasks, &mut rng).map_err(|e| format!("generation failed: {e}"))?;
    outln!(
        "scenario: {} tasks on {} GSPs, deadline {:.0} s, payment {:.0}",
        scenario.task_count(),
        scenario.gsp_count(),
        scenario.deadline(),
        scenario.payment()
    );
    write_json(out, &scenario)
}

fn trace(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, &["out", "jobs", "seed"], &[]).map_err(|e| {
        if e == "help" {
            HELP.to_string()
        } else {
            e
        }
    })?;
    let out = flags.require("out")?;
    let jobs: usize = flags.num("jobs", 10_000)?;
    let seed: u64 = flags.num("seed", 1)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let trace = atlas::generate(&mut rng, jobs);
    std::fs::write(out, trace.to_swf()).map_err(|e| format!("cannot write {out}: {e}"))?;
    outln!("wrote {out} ({jobs} jobs)");
    Ok(())
}
