//! # gridvo-sim
//!
//! Experiment harness reproducing the evaluation of Mashayekhy &
//! Grosu (ICPP 2012, §IV): Table-I instance generation on top of the
//! synthetic Atlas workload, the Braun-et-al. cost model, a multi-seed
//! runner, and one experiment definition per paper figure.
//!
//! | Paper artifact | Here |
//! |---|---|
//! | Table I (simulation parameters) | [`config`] (what callers vary: [`config::TableI`]) + generation audits |
//! | Fig. 1 (payoff vs #tasks) | [`experiments::task_sweep`] |
//! | Fig. 2 (final VO size)    | [`experiments::task_sweep`] |
//! | Fig. 3 (average reputation) | [`experiments::task_sweep`] |
//! | Fig. 4 (per-program payoffs, selection rules) | [`experiments::selection_comparison`] |
//! | Figs. 5–8 (iteration traces) | [`experiments::iteration_trace`] |
//! | Fig. 9 (execution time) | [`experiments::task_sweep`] |
//!
//! ## Quick example
//!
//! ```
//! use gridvo_sim::config::TableI;
//! use gridvo_sim::instance_gen::ScenarioGenerator;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let cfg = TableI { task_sizes: vec![32], gsps: 4, ..TableI::small() };
//! let gen = ScenarioGenerator::new(cfg);
//! let scenario = gen.scenario(32, &mut rng).unwrap();
//! assert_eq!(scenario.gsp_count(), 4);
//! assert_eq!(scenario.task_count(), 32);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod braun;
pub mod config;
pub mod dynamic;
pub mod experiments;
pub mod faults;
pub mod instance_gen;
pub mod market;
pub mod report;
pub mod runner;

pub use config::TableI;
pub use instance_gen::ScenarioGenerator;

/// Errors from the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No feasible scenario could be generated within the calibration
    /// attempt budget.
    CalibrationFailed {
        /// Task count requested.
        tasks: usize,
        /// Attempts made.
        attempts: usize,
    },
    /// The core mechanism failed.
    Core(gridvo_core::CoreError),
    /// A trust computation failed (the Beta ledger of a dynamic run).
    Trust(gridvo_trust::TrustError),
    /// The synthetic trace had no qualifying job.
    NoQualifyingJob,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CalibrationFailed { tasks, attempts } => {
                write!(f, "no feasible scenario for {tasks} tasks after {attempts} attempts")
            }
            SimError::Core(e) => write!(f, "mechanism error: {e}"),
            SimError::Trust(e) => write!(f, "mechanism error: {e}"),
            SimError::NoQualifyingJob => write!(f, "trace contains no large completed job"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<gridvo_core::CoreError> for SimError {
    fn from(e: gridvo_core::CoreError) -> Self {
        SimError::Core(e)
    }
}

impl From<gridvo_trust::TrustError> for SimError {
    fn from(e: gridvo_trust::TrustError) -> Self {
        SimError::Trust(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryKind, BetaDynamics};
    use crate::dynamic::{simulate, DynamicConfig};
    use gridvo_core::mechanism::{FormationConfig, Mechanism};
    use gridvo_trust::TrustGraph;
    use rand::SeedableRng;

    fn table() -> TableI {
        TableI {
            gsps: 4,
            task_sizes: vec![12],
            trace_jobs: 1_500,
            deadline_factor_range: (4.0, 16.0),
            ..TableI::default()
        }
    }

    #[test]
    fn a_core_failure_displays_as_a_mechanism_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut scenario = ScenarioGenerator::new(table()).scenario(12, &mut rng).unwrap();
        let mut swap = || -> Result<()> { Ok(scenario.replace_trust(TrustGraph::new(5))?) };
        assert_eq!(
            swap().unwrap_err().to_string(),
            "mechanism error: shape mismatch: trust graph vs GSP count"
        );
    }

    #[test]
    fn a_trust_failure_displays_as_a_mechanism_error_without_a_trust_prefix() {
        // Attacker 9 does not exist in a 4-GSP pool: its first
        // whitewash (before round 1) asks the Beta ledger to forget it.
        let mut cfg = DynamicConfig::new(table(), 2, 12, vec![0.9; 4]);
        cfg.beta = Some(BetaDynamics::attack(vec![9], AdversaryKind::Whitewash { period: 1 }));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let err =
            simulate(&cfg, Mechanism::tvof(FormationConfig::default()), &mut rng).unwrap_err();
        assert_eq!(
            err.to_string(),
            "mechanism error: node index 9 out of range for graph of 4 nodes"
        );
    }
}
