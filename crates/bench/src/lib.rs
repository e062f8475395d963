//! # gridvo-bench
//!
//! Figure-regeneration binaries for the ICPP 2012 evaluation, plus the
//! beyond-paper sweeps:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_audit` | Table I (parameter audit of generated instances) |
//! | `sweep_all` | Figs. 1, 2, 3 and 9 — payoff, final VO size, average reputation and run time vs #tasks, from one sweep; cold vs warm and the anytime scale frontier (`BENCH_formation.json`; gate) |
//! | `fig4_selection_rules` | Fig. 4 — per-program payoff, two selection rules |
//! | `fig5678_traces` | Figs. 5–8 — TVOF and RVOF iteration traces (programs A, B), each program formed once per mechanism |
//! | `fault_sweep` | beyond-paper: execution under injected faults (`BENCH_faults.json`; gate) |
//! | `reputation_sweep` | beyond-paper: adversary economics under Beta reputation (`BENCH_reputation.json`; gate) |
//! | `market_sweep` | beyond-paper: multi-VO market contention (`BENCH_market.json`; gate) |
//! | `service_sweep` | beyond-paper: daemon load and admission control (`BENCH_service.json`) |
//! | `persist_sweep` | beyond-paper: journal and replay overhead (`BENCH_persistence.json`) |
//! | `dynamic_rounds` | beyond-paper: dynamic multi-round formation |
//! | `core_emptiness` | beyond-paper: how often the formation game's core is empty |
//! | `ablation_eviction` | beyond-paper: eviction-policy ablation |
//! | `ablation_reputation` | beyond-paper: reputation-engine ablation |
//! | `ablation_solver` | beyond-paper: exact vs heuristic solver inside TVOF |
//! | `ablation_topology` | beyond-paper: trust-graph topology ablation |
//! | `decay_freeze` | beyond-paper: the decaying-trust freeze critique |
//! | `bench_diff` | the last two `BENCH_daemon.json` rows compared under `BENCHMARK.json`'s bounds (reads, measures nothing) |
//!
//! Every binary accepts `--paper` for the full Table-I scale (16 GSPs,
//! 256–8192 tasks, 10 seeds — slow) and defaults to a **quick** scale
//! that preserves every qualitative shape in minutes. `--out DIR`
//! chooses where CSV/JSON land (default `results/`).
//!
//! Run times come from `sweep_all` (Fig. 9 and the scale frontier) and
//! from the daemon benchmark in `gvbench/`, whose traced runs split a
//! request's time by layer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use gridvo_sim::TableI;
use std::path::PathBuf;

/// Command-line options shared by all figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Full paper scale instead of the quick default.
    pub paper: bool,
    /// Output directory for CSV/JSON artifacts.
    pub out: PathBuf,
    /// Seeds (one scenario per seed per configuration).
    pub seeds: Vec<u64>,
}

impl BenchArgs {
    /// Parse from `std::env::args`-style strings (the program name
    /// must already be stripped). Recognized: `--paper`,
    /// `--out DIR`, `--seeds N`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<BenchArgs, String> {
        let mut paper = false;
        let mut out = PathBuf::from("results");
        let mut n_seeds: Option<usize> = None;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--paper" => paper = true,
                "--out" => {
                    out = PathBuf::from(
                        it.next().ok_or_else(|| "--out needs a directory".to_string())?,
                    );
                }
                "--seeds" => {
                    let v = it.next().ok_or_else(|| "--seeds needs a count".to_string())?;
                    n_seeds = Some(v.parse().map_err(|_| format!("bad seed count {v:?}"))?);
                }
                "--help" | "-h" => {
                    return Err("usage: [--paper] [--out DIR] [--seeds N]".to_string())
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let default_seeds = if paper { 10 } else { 5 };
        let seeds = (1..=n_seeds.unwrap_or(default_seeds) as u64).collect();
        Ok(BenchArgs { paper, out, seeds })
    }

    /// Parse the process's actual arguments, exiting with a usage
    /// message on error.
    pub fn from_env() -> BenchArgs {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The Table-I configuration for this scale. Quick mode shrinks
    /// program sizes (the paper's 4096/8192 points take minutes per
    /// seed) but keeps `m = 16` GSPs and all other Table-I parameters.
    pub fn table(&self) -> TableI {
        if self.paper {
            TableI::default()
        } else {
            TableI { task_sizes: vec![64, 128, 256, 512], trace_jobs: 5_000, ..TableI::default() }
        }
    }

    /// The program size Figs. 4–8 use (paper: 256).
    pub fn program_size(&self) -> usize {
        if self.paper {
            256
        } else {
            128
        }
    }

    /// Write an artifact, creating the output directory; echoes the
    /// path to stdout so runs are self-describing.
    pub fn write_artifact(&self, name: &str, contents: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.out)?;
        let path = self.out.join(name);
        std::fs::write(&path, contents)?;
        println!("wrote {}", path.display());
        Ok(path)
    }
}

/// Render a quick ASCII table of (label, series) pairs for terminal
/// inspection — every figure binary prints the same rows the paper
/// plots, in addition to writing CSV.
pub fn ascii_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &widths));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults() {
        let a = BenchArgs::parse(Vec::<String>::new()).unwrap();
        assert!(!a.paper);
        assert_eq!(a.out, PathBuf::from("results"));
        assert_eq!(a.seeds.len(), 5);
    }

    #[test]
    fn parse_paper_flags() {
        let a = BenchArgs::parse(["--paper", "--out", "/tmp/x", "--seeds", "3"].map(String::from))
            .unwrap();
        assert!(a.paper);
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
        assert_eq!(a.seeds, vec![1, 2, 3]);
        assert_eq!(a.table().task_sizes.last(), Some(&8192));
        assert_eq!(a.program_size(), 256);
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(BenchArgs::parse(["--bogus".to_string()]).is_err());
        assert!(BenchArgs::parse(["--out".to_string()]).is_err());
        assert!(BenchArgs::parse(["--seeds".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn quick_table_keeps_16_gsps() {
        let a = BenchArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(a.table().gsps, 16);
        assert!(a.table().task_sizes.iter().all(|&n| n <= 512));
    }

    #[test]
    fn ascii_table_aligns() {
        let t = ascii_table(
            &["tasks", "payoff"],
            &[vec!["256".into(), "12.5".into()], vec!["8192".into(), "3.25".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("tasks"));
        assert!(lines[2].contains("8192"));
    }
}
