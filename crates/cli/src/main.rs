//! `gridvo` — the command-line interface.
//!
//! ```text
//! gridvo generate scenario --tasks 128 --gsps 16 --seed 7 --out scenario.json
//! gridvo generate trace    --jobs 10000 --seed 7 --out atlas.swf
//! gridvo form    --scenario scenario.json [--mechanism tvof|rvof] [--seed 1] [--out outcome.json]
//! gridvo execute --scenario scenario.json [--faults 0.2] [--fault-rounds 4] [--out report.json]
//! gridvo solve   --scenario scenario.json [--members 0,2,5]
//! gridvo game    --scenario scenario.json
//! gridvo stats   --swf atlas.swf
//! gridvo dynamic --rounds 16 --gsps 16 --tasks 64 --seed 1
//! gridvo serve   [--scenario scenario.json] [--addr 127.0.0.1:0] [--workers 2]
//! gridvo request form --addr 127.0.0.1:PORT --seed 1
//! ```
//!
//! Scenario files are JSON serializations of
//! [`gridvo_core::FormationScenario`]; traces are Standard Workload
//! Format text. Every subcommand is deterministic under `--seed`.

#[macro_use]
mod out;
mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("gridvo: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Dispatch a full argument vector (exposed for tests).
pub fn run(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "generate" => commands::generate::run(rest),
        "form" => commands::form::run(rest),
        "execute" => commands::execute::run(rest),
        "solve" => commands::solve::run(rest),
        "game" => commands::game::run(rest),
        "stats" => commands::stats::run(rest),
        "dynamic" => commands::dynamic::run(rest),
        "serve" => commands::serve::run(rest),
        "request" => commands::request::run(rest),
        "--help" | "-h" | "help" => {
            outln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: gridvo <subcommand>\n\
     \n\
     subcommands:\n\
       generate scenario|trace   build inputs (Table-I scenario JSON, SWF trace)\n\
       form                      run TVOF/RVOF on a scenario file\n\
       execute                   form a VO and run it against injected faults\n\
       solve                     solve one task-assignment IP\n\
       game                      coalitional-game analysis (Shapley, core)\n\
       stats                     summarize an SWF trace\n\
       dynamic                   multi-round dynamic formation\n\
       serve                     run the VO-formation daemon (loopback TCP)\n\
       request                   send one request to a running daemon\n\
     \n\
     run `gridvo <subcommand> --help` for options"
        .to_string()
}
