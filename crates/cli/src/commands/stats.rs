//! `gridvo stats` — summarize an SWF trace.

use crate::args::Flags;
use gridvo_workload::stats::{size_histogram, trace_stats};
use gridvo_workload::{SwfTrace, LARGE_JOB_RUNTIME};

const HELP: &str = "\
usage: gridvo stats --swf FILE

Parses a Standard Workload Format trace (e.g. LLNL-Atlas-2006-2.1-cln.swf
from the Parallel Workloads Archive, or `gridvo generate trace` output)
and prints the marginals the paper's workload extraction relies on.";

pub fn run(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, &["swf"], &[]).map_err(|e| {
        if e == "help" {
            HELP.to_string()
        } else {
            e
        }
    })?;
    let path = flags.require("swf")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = SwfTrace::parse(&text).map_err(|e| e.to_string())?;
    let Some(s) = trace_stats(&trace) else {
        outln!("empty trace");
        return Ok(());
    };
    outln!("jobs:            {}", s.jobs);
    outln!("completed:       {} ({:.1} %)", s.completed, 100.0 * s.completion_rate);
    outln!(
        "large (≥{LARGE_JOB_RUNTIME} s): {} ({:.1} % of completed)",
        s.large_completed,
        100.0 * s.large_fraction
    );
    outln!("sizes:           {}–{} processors", s.min_procs, s.max_procs);
    let [min, p25, median, p75, p95, max] = s.runtime_quantiles;
    outln!(
        "runtimes (s):    min {min:.0}, p25 {p25:.0}, median {median:.0}, p75 {p75:.0}, \
         p95 {p95:.0}, max {max:.0}"
    );
    outln!("size histogram (completed, by power-of-two bucket):");
    for (i, &count) in size_histogram(&trace).iter().enumerate() {
        if count > 0 {
            outln!("  [{:>5}, {:>5}): {count}", 1u64 << i, 1u64 << (i + 1));
        }
    }
    Ok(())
}
