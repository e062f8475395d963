//! # gridvo-workload
//!
//! Workload substrate: the Standard Workload Format (SWF) of the
//! Parallel Workloads Archive, trace statistics, and a synthetic
//! generator calibrated to the **LLNL Atlas** log the paper's
//! experiments are driven by.
//!
//! The paper uses `LLNL-Atlas-2006-2.1-cln.swf` (43,778 jobs; 21,915
//! completed; ~13 % of completed jobs run ≥ 7200 s; sizes 8–8832
//! processors). That trace is not redistributable inside this
//! repository, so [`atlas::generate`] synthesizes a trace with
//! the same marginals — and [`swf`] parses the real file bit-faithfully
//! if you download it yourself and point the examples at it.
//!
//! [`program`] turns trace jobs into the paper's unit of work: an
//! application **program** of `n` independent tasks, where `n` is the
//! job's allocated processor count and each task's workload (GFLOP) is
//! `runtime × 4.91 GFLOPS × U[0.5, 1.0]` (§IV-A).
//!
//! ## Quick example
//!
//! ```
//! use gridvo_workload::{atlas, program};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let trace = atlas::generate(&mut rng, 2_000);
//! let programs = program::extract_all(&trace, &mut rng);
//! assert!(!programs.is_empty());
//! for p in &programs {
//!     assert!(p.tasks() >= 1);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atlas;
pub mod program;
pub mod stats;
pub mod swf;

pub use program::Program;
pub use swf::{SwfJob, SwfStatus, SwfTrace};

/// Peak performance of one Atlas processor in GFLOPS (44.24 TFLOPS /
/// 9216 processors — §IV-A of the paper).
pub const ATLAS_GFLOPS_PER_PROC: f64 = 4.91;

/// Shortest runtime in seconds of a "large" job (§IV-A): the paper
/// extracts programs only from completed Atlas jobs that ran at least
/// this long.
pub const LARGE_JOB_RUNTIME: f64 = 7_200.0;

/// Errors from workload parsing and generation.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A data line did not have the 18 SWF fields.
    BadFieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        got: usize,
    },
    /// A field failed to parse as a number.
    BadField {
        /// 1-based line number.
        line: usize,
        /// 0-based field index.
        field: usize,
        /// Offending token.
        token: String,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::BadFieldCount { line, got } => {
                write!(f, "line {line}: expected 18 SWF fields, found {got}")
            }
            WorkloadError::BadField { line, field, token } => {
                write!(f, "line {line}: field {field} unparsable: {token:?}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WorkloadError>;
