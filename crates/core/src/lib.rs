//! # gridvo-core
//!
//! **TVOF** — the trust-based virtual-organization formation mechanism
//! of Mashayekhy & Grosu (ICPP 2012) — together with the **RVOF**
//! random baseline, pluggable eviction policies, and the
//! stability / Pareto audits of the paper's Theorems 1–2.
//!
//! ## The mechanism (Algorithm 1)
//!
//! Starting from the grand coalition of all GSPs:
//!
//! 1. solve the task-assignment IP for the current VO `C`
//!    (`gridvo-solver`); if feasible, record `C` in the list `L`;
//! 2. compute the members' global reputations on the **trust subgraph
//!    of `C`** with the power method (`gridvo-trust`, Algorithm 2);
//! 3. evict the member with the lowest reputation (ties broken
//!    uniformly at random) and repeat — until the first infeasible VO;
//! 4. select from `L` the VO maximizing the per-member payoff
//!    `(P − C(T,C)) / |C|` and execute the program there.
//!
//! RVOF is identical except step 3 evicts a uniformly random member —
//! the paper's ablation isolating the value of reputation-guided
//! shrinking.
//!
//! ## Quick example
//!
//! ```
//! use gridvo_core::{FormationScenario, Gsp, mechanism::{Mechanism, FormationConfig}};
//! use gridvo_solver::AssignmentInstance;
//! use gridvo_trust::TrustGraph;
//! use rand::SeedableRng;
//!
//! // 2 GSPs, 3 tasks, loose constraints, mutual trust.
//! let gsps = vec![Gsp::new(0, 100.0), Gsp::new(1, 80.0)];
//! let inst = AssignmentInstance::new(
//!     3, 2,
//!     vec![1.0, 2.0, 2.0, 1.0, 1.0, 2.0],
//!     vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
//!     10.0, 100.0,
//! ).unwrap();
//! let mut trust = TrustGraph::new(2);
//! trust.set_trust(0, 1, 1.0);
//! trust.set_trust(1, 0, 1.0);
//! let scenario = FormationScenario::new(gsps, trust, inst).unwrap();
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let outcome = Mechanism::tvof(FormationConfig::default())
//!     .run(&scenario, &mut rng)
//!     .unwrap();
//! let vo = outcome.selected.expect("feasible VO exists");
//! assert!(vo.payoff_share > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod execution;
pub mod game_adapter;
pub mod gsp;
pub mod mechanism;
pub mod merge_split;
pub mod pareto;
pub mod reputation;
pub mod scenario;
pub mod solve_cache;
pub mod stability;
pub mod vo;

pub use execution::{
    ExecutionReceipt, ExecutionReport, ExecutionStatus, FaultEvent, FaultKind, FaultPlan,
    RecoveryKind, RecoveryRecord,
};
pub use gsp::Gsp;
pub use mechanism::{EvictionPolicy, FormationConfig, Mechanism};
pub use scenario::FormationScenario;
pub use vo::{FormationOutcome, IterationRecord, VoRecord};

/// Errors from the formation mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Scenario pieces disagree on the number of GSPs.
    ShapeMismatch {
        /// What disagreed.
        context: &'static str,
    },
    /// The trust/reputation substrate failed.
    Trust(gridvo_trust::TrustError),
    /// The solver substrate rejected an instance.
    Solver(gridvo_solver::SolverError),
    /// An operation needed at least one member / a live VO but got none.
    EmptyVo {
        /// What was empty.
        context: &'static str,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            CoreError::Trust(e) => write!(f, "trust error: {e}"),
            CoreError::Solver(e) => write!(f, "solver error: {e}"),
            CoreError::EmptyVo { context } => write!(f, "empty VO: {context}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<gridvo_trust::TrustError> for CoreError {
    fn from(e: gridvo_trust::TrustError) -> Self {
        CoreError::Trust(e)
    }
}

impl From<gridvo_solver::SolverError> for CoreError {
    fn from(e: gridvo_solver::SolverError) -> Self {
        CoreError::Solver(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
