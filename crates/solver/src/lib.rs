//! # gridvo-solver
//!
//! Exact and heuristic solvers for the **task assignment integer
//! program** of Mashayekhy & Grosu (ICPP 2012), eqs. (9)–(14):
//!
//! ```text
//! minimize    Σ_T Σ_G σ(T,G) · c(T,G)                      (9)
//! subject to  Σ_T Σ_G σ(T,G) · c(T,G) ≤ P        (payment, 10)
//!             Σ_T σ(T,G) · t(T,G) ≤ d   ∀G       (deadline, 11)
//!             Σ_G σ(T,G) = 1            ∀T       (coverage, 12)
//!             Σ_T σ(T,G) ≥ 1            ∀G       (participation, 13)
//!             σ(T,G) ∈ {0,1}                     (integrality, 14)
//! ```
//!
//! The paper solves this with IBM CPLEX; this crate replaces CPLEX with
//! an in-repo **branch-and-bound** ([`branch_bound`]) that is exact —
//! the VO-formation mechanism only consumes *feasibility* and the
//! *optimal cost*, so any exact solver is behaviourally equivalent.
//! A [`brute`] enumerator cross-checks it on small instances, and
//! [`heuristics`] provides the Braun-et-al. family (min-min, max-min,
//! sufferage, greedy) used as fast inexact baselines.
//!
//! The exact solver has one entry point,
//! [`BranchBound::solve_status_with_budget`] (plus `solve`, its cold,
//! unlimited shorthand), which reads top to bottom: root certificates
//! (Hungarian infeasibility cut, warm-incumbent certificate), the
//! aggregate-deadline short-circuit, the heuristic seed (its sweeps
//! bounded by the cheapest seed so far) and its certificate, the
//! depth-first search under the solver's node cap
//! ([`BranchBound::max_nodes`]) and the caller's deadline ([`Budget`]),
//! and the status (canonical cost, lower bound and gap,
//! [`branch_bound::SolveStatus`]).
//!
//! ## Quick example
//!
//! ```
//! use gridvo_solver::{AssignmentInstance, branch_bound::BranchBound};
//!
//! // 3 tasks on 2 GSPs (task-major matrices).
//! let cost = vec![1.0, 4.0,   2.0, 1.0,   3.0, 2.0];
//! let time = vec![1.0, 2.0,   1.0, 2.0,   1.0, 2.0];
//! let inst = AssignmentInstance::new(3, 2, cost, time, 4.0, 100.0).unwrap();
//! let sol = BranchBound::default().solve(&inst).expect("feasible");
//! assert!(sol.optimal);
//! // tasks 0 and 2 on GSP 0, task 1 on GSP 1: cost 1 + 1 + 3 = 5 would
//! // violate nothing, but 0→G0, 1→G1, 2→G1 costs 1 + 1 + 2 = 4 and
//! // G1's time 2 + 2 = 4 just meets the deadline.
//! assert_eq!(sol.assignment.total_cost(&inst), 4.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod branch_bound;
pub mod brute;
pub mod heuristics;
pub mod hungarian;
pub mod instance;
pub mod repair;
pub mod solution;

pub use branch_bound::{BranchBound, Budget, IncumbentSource, SolveOutcome};
pub use instance::AssignmentInstance;
pub use solution::{Assignment, FeasibilityError};

/// Errors produced while constructing or solving instances.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Matrix data length did not match `tasks × gsps`.
    BadDimensions {
        /// What was being validated.
        context: &'static str,
    },
    /// A cost or time entry was negative or non-finite.
    BadEntry {
        /// Task index of the offending entry.
        task: usize,
        /// GSP index of the offending entry.
        gsp: usize,
        /// The rejected value.
        value: f64,
    },
    /// Deadline or payment was non-positive or non-finite.
    BadScalar {
        /// Which scalar.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Instance has zero tasks or zero GSPs.
    Empty,
    /// A GSP index outside the instance's `0..gsps` range.
    UnknownGsp {
        /// The rejected index.
        gsp: usize,
        /// Number of GSPs in the instance.
        gsps: usize,
    },
    /// More GSPs than tasks: constraint (13) can never hold.
    TooFewTasks {
        /// Number of tasks.
        tasks: usize,
        /// Number of GSPs.
        gsps: usize,
    },
    /// The instance exceeds a solver's hard size limit (e.g. the
    /// brute-force oracle's enumeration cap).
    TooLarge {
        /// Number of tasks.
        tasks: usize,
        /// Number of GSPs.
        gsps: usize,
        /// The enumeration limit that would be exceeded.
        limit: u128,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::BadDimensions { context } => {
                write!(f, "matrix dimensions do not match instance shape: {context}")
            }
            SolverError::BadEntry { task, gsp, value } => {
                write!(f, "invalid matrix entry {value} at (task {task}, gsp {gsp})")
            }
            SolverError::BadScalar { name, value } => {
                write!(f, "invalid {name}: {value}")
            }
            SolverError::Empty => write!(f, "instance has no tasks or no GSPs"),
            SolverError::UnknownGsp { gsp, gsps } => {
                write!(f, "GSP index {gsp} is out of range for {gsps} GSPs")
            }
            SolverError::TooFewTasks { tasks, gsps } => {
                write!(f, "{tasks} tasks cannot cover {gsps} GSPs (constraint 13 infeasible)")
            }
            SolverError::TooLarge { tasks, gsps, limit } => {
                write!(
                    f,
                    "instance too large to enumerate: {gsps}^{tasks} assignments exceed \
                     the {limit}-enumeration cap"
                )
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SolverError>;
