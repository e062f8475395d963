//! Rendering experiment results as CSV (for plotting) and JSON (for
//! archival). Each renderer emits exactly the series the corresponding
//! paper figure plots.

use crate::experiments::{
    FaultSweepPoint, ReputationPoint, ScalePoint, SelectionComparison, SweepPoint, TracePair,
    WarmColdPoint,
};
use serde::{Deserialize, Serialize};

/// CSV for Fig. 1: `tasks, tvof_payoff, tvof_std, rvof_payoff, rvof_std`.
pub fn fig1_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from("tasks,tvof_payoff,tvof_std,rvof_payoff,rvof_std\n");
    for p in points {
        out.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.6}\n",
            p.tasks, p.tvof_payoff.mean, p.tvof_payoff.std, p.rvof_payoff.mean, p.rvof_payoff.std
        ));
    }
    out
}

/// CSV for Fig. 2: final VO sizes.
pub fn fig2_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from("tasks,tvof_vo_size,tvof_std,rvof_vo_size,rvof_std\n");
    for p in points {
        out.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4}\n",
            p.tasks,
            p.tvof_vo_size.mean,
            p.tvof_vo_size.std,
            p.rvof_vo_size.mean,
            p.rvof_vo_size.std
        ));
    }
    out
}

/// CSV for Fig. 3: average global reputation.
pub fn fig3_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from("tasks,tvof_reputation,tvof_std,rvof_reputation,rvof_std\n");
    for p in points {
        out.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.6}\n",
            p.tasks,
            p.tvof_reputation.mean,
            p.tvof_reputation.std,
            p.rvof_reputation.mean,
            p.rvof_reputation.std
        ));
    }
    out
}

/// CSV for Fig. 9: execution time.
pub fn fig9_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from("tasks,tvof_seconds,tvof_std,rvof_seconds,rvof_std\n");
    for p in points {
        out.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4}\n",
            p.tasks,
            p.tvof_seconds.mean,
            p.tvof_seconds.std,
            p.rvof_seconds.mean,
            p.rvof_seconds.std
        ));
    }
    out
}

/// CSV for Fig. 4: per-program payoff of the max-payoff VO vs the
/// max-product VO.
pub fn fig4_csv(rows: &[SelectionComparison]) -> String {
    let mut out = String::from("program,max_payoff_share,max_product_share,same_vo\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "{},{:.6},{:.6},{}\n",
            i + 1,
            r.max_payoff_share,
            r.max_product_share,
            r.same_vo
        ));
    }
    out
}

/// CSV for Figs. 5–8: one row per (mechanism, iteration) with VO size,
/// payoff and reputation — the two series each trace figure plots.
pub fn trace_csv(trace: &TracePair) -> String {
    let mut out =
        String::from("mechanism,iteration,vo_size,feasible,payoff_share,avg_reputation\n");
    for (name, iters) in [("TVOF", &trace.tvof), ("RVOF", &trace.rvof)] {
        for it in iters {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6}\n",
                name,
                it.iteration,
                it.members.len(),
                it.feasible,
                it.payoff_share.map_or(String::from(""), |p| format!("{p:.6}")),
                it.avg_reputation
            ));
        }
    }
    out
}

/// CSV for the fault-injection sweep: recovery rate, completion rate,
/// payoff retention, repair share and recovery latency vs. fault rate.
pub fn faults_csv(points: &[FaultSweepPoint]) -> String {
    let mut out = String::from(
        "fault_rate,recovery_rate,completion_rate,payoff_retention,repair_fraction,recovery_seconds,runs\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:.3},{:.4},{:.4},{:.4},{:.4},{:.6},{}\n",
            p.fault_rate,
            p.recovery_rate.mean,
            p.completion_rate,
            p.payoff_retention.mean,
            p.repair_fraction,
            p.recovery_seconds.mean,
            p.runs
        ));
    }
    out
}

/// CSV for the adversary-economics sweep: one row per strategy.
pub fn reputation_csv(points: &[ReputationPoint]) -> String {
    let mut out = String::from(
        "strategy,attacker_selection,attacker_payoff,attacker_payoff_share,\
         honest_selection,honest_payoff,rounds\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{}\n",
            p.strategy,
            p.attacker_selection.mean,
            p.attacker_payoff.mean,
            p.attacker_payoff_share.mean,
            p.honest_selection.mean,
            p.honest_payoff.mean,
            p.rounds
        ));
    }
    out
}

/// The combined `BENCH_formation.json` artifact: the warm/cold
/// incremental benchmark plus the anytime scale frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFormation {
    /// Cold vs warm formation runs per program size.
    pub warm_cold: Vec<WarmColdPoint>,
    /// Budgeted exact-solver formation per provider-pool size.
    pub scale_frontier: Vec<ScalePoint>,
}

/// CSV for the scale frontier: one row per GSP count.
pub fn scale_csv(points: &[ScalePoint]) -> String {
    let mut out = String::from(
        "gsps,tasks,seconds_mean,nodes,mean_gap,worst_gap,truncated_runs,formed_runs\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{:.6},{},{:.6},{:.6},{},{}\n",
            p.gsps,
            p.tasks,
            p.seconds.mean,
            p.nodes,
            p.mean_gap,
            p.worst_gap,
            p.truncated_runs,
            p.formed_runs,
        ));
    }
    out
}

/// Pretty JSON for any serializable result.
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("experiment results serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Aggregate;

    fn point(tasks: usize) -> SweepPoint {
        let a = |m: f64| Aggregate { mean: m, std: 0.1, n: 10 };
        SweepPoint {
            tasks,
            tvof_payoff: a(5.0),
            rvof_payoff: a(4.9),
            tvof_vo_size: a(6.0),
            rvof_vo_size: a(7.0),
            tvof_reputation: a(0.4),
            rvof_reputation: a(0.3),
            tvof_seconds: a(1.5),
            rvof_seconds: a(1.4),
            formed_runs: 10,
        }
    }

    #[test]
    fn fig_csvs_have_header_and_rows() {
        let pts = vec![point(256), point(512)];
        for csv in [fig1_csv(&pts), fig2_csv(&pts), fig3_csv(&pts), fig9_csv(&pts)] {
            let lines: Vec<&str> = csv.trim().lines().collect();
            assert_eq!(lines.len(), 3);
            assert!(lines[0].starts_with("tasks,"));
            assert!(lines[1].starts_with("256,"));
            assert!(lines[2].starts_with("512,"));
        }
    }

    #[test]
    fn fig4_csv_rows() {
        let rows = vec![SelectionComparison {
            seed: 1,
            max_payoff_share: 10.0,
            max_product_share: 9.5,
            same_vo: false,
        }];
        let csv = fig4_csv(&rows);
        assert!(csv.contains("1,10.000000,9.500000,false"));
    }

    #[test]
    fn trace_csv_contains_both_mechanisms() {
        let it = gridvo_core::IterationRecord {
            iteration: 0,
            members: vec![0, 1],
            feasible: true,
            cost: Some(3.0),
            payoff_share: Some(1.5),
            avg_reputation: 0.5,
            reputation_scores: vec![0.5, 0.5],
            evicted: Some(1),
            solve_seconds: 0.01,
            nodes: 17,
            incumbent_source: Some("warm".to_string()),
            gap: Some(0.0),
            power_iterations: 3,
        };
        let t = TracePair { tasks: 12, seed: 1, tvof: vec![it.clone()], rvof: vec![it] };
        let csv = trace_csv(&t);
        assert!(csv.contains("TVOF,0,2,true,1.500000,0.500000"));
        assert!(csv.contains("RVOF,0,2,true"));
    }

    #[test]
    fn json_serializes() {
        let pts = vec![point(256)];
        let json = to_json(&pts);
        assert!(json.contains("\"tasks\": 256"));
    }
}

/// Gnuplot script that renders one of the sweep figures from its CSV.
/// `value_label` is the y-axis label; the CSV layout is the shared
/// `tasks, tvof_mean, tvof_std, rvof_mean, rvof_std` of Figs. 1/2/3/9.
pub fn sweep_gnuplot(csv_name: &str, out_name: &str, title: &str, value_label: &str) -> String {
    format!(
        "set datafile separator ','\n\
         set terminal pngcairo size 900,600\n\
         set output '{out_name}'\n\
         set title '{title}'\n\
         set xlabel 'Number of tasks'\n\
         set ylabel '{value_label}'\n\
         set logscale x 2\n\
         set key top left\n\
         plot '{csv_name}' skip 1 using 1:2:3 with yerrorlines title 'TVOF', \\\n\
         \x20    '{csv_name}' skip 1 using 1:4:5 with yerrorlines title 'RVOF'\n"
    )
}

/// Gnuplot script for an iteration-trace figure (Figs. 5–8): payoff on
/// the left axis, average reputation on the right, VO size descending
/// along x — regenerated from [`trace_csv`] output filtered by
/// mechanism.
pub fn trace_gnuplot(csv_name: &str, out_name: &str, mechanism: &str, title: &str) -> String {
    format!(
        "set datafile separator ','\n\
         set terminal pngcairo size 900,600\n\
         set output '{out_name}'\n\
         set title '{title}'\n\
         set xlabel 'Iteration (VO shrinks left to right)'\n\
         set ylabel 'Individual payoff'\n\
         set y2label 'Average global reputation'\n\
         set y2tics\n\
         set key top left\n\
         plot '< grep \"^{mechanism},\" {csv_name}' using 2:5 with linespoints \\\n\
         \x20    axes x1y1 title 'payoff', \\\n\
         \x20    '< grep \"^{mechanism},\" {csv_name}' using 2:6 with linespoints \\\n\
         \x20    axes x1y2 title 'avg reputation'\n"
    )
}

#[cfg(test)]
mod gnuplot_tests {
    use super::*;

    #[test]
    fn sweep_script_references_its_files() {
        let s = sweep_gnuplot("fig1_payoff.csv", "fig1.png", "Fig. 1", "Payoff per GSP");
        assert!(s.contains("fig1_payoff.csv"));
        assert!(s.contains("set output 'fig1.png'"));
        assert!(s.contains("yerrorlines"));
        assert!(s.matches("fig1_payoff.csv").count() == 2, "both series plotted");
    }

    #[test]
    fn trace_script_filters_mechanism() {
        let s = trace_gnuplot("fig56_program_A.csv", "fig5.png", "TVOF", "Fig. 5");
        assert!(s.contains("grep \"^TVOF,\""));
        assert!(s.contains("axes x1y2"));
    }
}
