//! # gridvo-game
//!
//! Coalitional-game substrate for VO formation (§II-C of Mashayekhy &
//! Grosu, ICPP 2012).
//!
//! The VO formation problem is a coalitional game `(G, v)`: players are
//! GSPs, coalitions are VOs, and the characteristic function is
//! `v(C) = P − C(T, C)` when the task-assignment IP is feasible and `0`
//! otherwise. This crate provides the game-theoretic machinery the
//! mechanism and its analyses rest on:
//!
//! * [`coalition`] — coalitions as `u64` bitsets with member/subset
//!   iteration;
//! * [`characteristic`] — the characteristic-function trait, table- and
//!   closure-backed implementations, and a memoizing wrapper
//!   (evaluating `v` means solving an IP, so caching matters);
//! * [`division`] — payoff division rules: the paper's **equal
//!   sharing** and the **Shapley value** (exact for small games, Monte
//!   Carlo for larger ones);
//! * [`simplex`] — a small dense two-phase primal simplex used as the
//!   LP kernel;
//! * [`core_solution`] — imputations, core membership, and the
//!   **least core** via constraint generation (the paper's earlier
//!   work shows the VO-formation game can have an empty core).
//!
//! Theorem 1's individual stability is audited by
//! `gridvo_core::stability`, which re-solves the IP for each
//! single-member departure from the selected VO.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod characteristic;
pub mod coalition;
pub mod core_solution;
pub mod division;
pub mod simplex;

pub use characteristic::{CharacteristicFn, MemoCharacteristic, TableGame};
pub use coalition::Coalition;

/// Errors produced by game-theoretic computations.
#[derive(Debug, Clone, PartialEq)]
pub enum GameError {
    /// Too many players for an exact exponential computation.
    TooManyPlayers {
        /// Players in the game.
        players: usize,
        /// The implementation's cap.
        cap: usize,
    },
    /// A payoff vector's length did not match the player count.
    BadVectorLength {
        /// Supplied length.
        got: usize,
        /// Expected length.
        expected: usize,
    },
    /// The LP solver reported an anomaly (infeasible/unbounded) on a
    /// program that is feasible and bounded by construction.
    LpAnomaly {
        /// Human-readable description.
        context: &'static str,
    },
}

impl std::fmt::Display for GameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GameError::TooManyPlayers { players, cap } => {
                write!(f, "{players} players exceeds the exact-computation cap of {cap}")
            }
            GameError::BadVectorLength { got, expected } => {
                write!(f, "payoff vector of length {got}, expected {expected}")
            }
            GameError::LpAnomaly { context } => write!(f, "LP anomaly: {context}"),
        }
    }
}

impl std::error::Error for GameError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GameError>;
