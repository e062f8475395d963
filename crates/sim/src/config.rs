//! Table I — the paper's simulation parameters, as data.
//!
//! [`TableI`] holds what the experiments vary; every other Table-I
//! value is a constant here or in `gridvo-workload`
//! ([`gridvo_workload::ATLAS_GFLOPS_PER_PROC`] and
//! [`gridvo_workload::LARGE_JOB_RUNTIME`]).

use std::ops::{Range, RangeInclusive};

use serde::{Deserialize, Serialize};

/// GSP speed range as multiples of one Atlas processor (paper:
/// `4.91 × [16, 128]` GFLOPS).
pub const SPEED_MULTIPLIER_RANGE: RangeInclusive<f64> = 16.0..=128.0;
/// `φ_b` — maximum baseline cost value (paper: 100).
pub(crate) const PHI_B: f64 = 100.0;
/// `φ_r` — maximum row multiplier (paper: 10).
pub(crate) const PHI_R: f64 = 10.0;
/// The paper's `max_c = φ_b × φ_r` (maximum cost-matrix entry).
pub const MAX_COST: f64 = PHI_B * PHI_R;
/// Payment factor range: `P = U[0.2, 0.4] × max_c × n` units (paper's
/// Table I row for `P`).
pub(crate) const PAYMENT_FACTOR_RANGE: RangeInclusive<f64> = 0.2..=0.4;
/// Erdős–Rényi edge probability for the trust graph (paper: 0.1).
pub const TRUST_P: f64 = 0.1;
/// Trust edge-weight range (paper: uniform weights; we use
/// `[0.05, 1)`).
pub(crate) const TRUST_WEIGHT_RANGE: Range<f64> = 0.05..1.0;
/// Calibration attempts before giving up on a feasible scenario (the
/// paper generates d and P "in such a way that there exists a
/// feasible solution in each experiment").
pub(crate) const CALIBRATION_ATTEMPTS: usize = 60;

/// The Table-I parameters the experiments vary. Field docs quote the
/// table's values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableI {
    /// `m` — number of GSPs (paper: 16).
    pub gsps: usize,
    /// Program sizes (#tasks) swept by the evaluation
    /// (paper: 256, 512, 1024, 2048, 4096, 8192 from `[8, 8832]`).
    pub task_sizes: Vec<usize>,
    /// Deadline factor range: `d = U[0.3, 2.0] × Runtime × n / 1000`
    /// seconds (paper's Table I row for `d`).
    pub deadline_factor_range: (f64, f64),
    /// Synthetic trace length fed to the extractor.
    pub trace_jobs: usize,
    /// Node budget for the exact solver inside experiments (anytime
    /// truncation guard; the paper's CPLEX has no such knob but also
    /// never reports an unsolved instance).
    pub solver_node_budget: u64,
}

impl Default for TableI {
    fn default() -> Self {
        TableI {
            gsps: 16,
            task_sizes: vec![256, 512, 1024, 2048, 4096, 8192],
            deadline_factor_range: (0.3, 2.0),
            trace_jobs: 20_000,
            solver_node_budget: 2_000_000,
        }
    }
}

impl TableI {
    /// A downsized configuration for unit tests and CI: fewer GSPs,
    /// small programs, a short trace.
    pub fn small() -> Self {
        TableI {
            gsps: 6,
            task_sizes: vec![16, 32, 64],
            trace_jobs: 2_000,
            solver_node_budget: 200_000,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvo_workload::{ATLAS_GFLOPS_PER_PROC, LARGE_JOB_RUNTIME};

    #[test]
    fn defaults_match_table_i() {
        let c = TableI::default();
        assert_eq!(c.gsps, 16);
        assert_eq!(c.task_sizes, vec![256, 512, 1024, 2048, 4096, 8192]);
        assert_eq!(PHI_B, 100.0);
        assert_eq!(PHI_R, 10.0);
        assert_eq!(MAX_COST, 1000.0);
        assert_eq!(ATLAS_GFLOPS_PER_PROC, 4.91);
        assert_eq!(c.deadline_factor_range, (0.3, 2.0));
        assert_eq!(PAYMENT_FACTOR_RANGE, 0.2..=0.4);
        assert_eq!(LARGE_JOB_RUNTIME, 7200.0);
        assert_eq!(TRUST_P, 0.1);
    }

    #[test]
    fn serde_round_trip() {
        let c = TableI::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: TableI = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn small_config_is_smaller() {
        let s = TableI::small();
        assert!(s.gsps < 16);
        assert!(s.task_sizes.iter().all(|&n| n <= 64));
    }
}
