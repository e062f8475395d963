//! # gridvo-trust
//!
//! Trust and reputation substrate for grid virtual-organization (VO)
//! formation, reproducing the trust model of Mashayekhy & Grosu,
//! *"A Reputation-Based Mechanism for Dynamic Virtual Organization
//! Formation in Grids"*, ICPP 2012.
//!
//! The crate provides:
//!
//! * [`TrustGraph`] — a weighted directed graph of pairwise direct trust
//!   among grid service providers (GSPs);
//! * [`normalize::row_normalize`] — the local-rating normalization of
//!   eq. (1) of the paper, turning raw trust into a row-stochastic matrix;
//! * [`power::PowerMethod`] — Algorithm 2 of the paper: power iteration on
//!   the transposed normalized trust matrix, converging to the left
//!   principal eigenvector, interpreted as per-GSP *global reputation*
//!   (eigenvector centrality / EigenTrust-style score);
//! * [`centrality`] — the wider centrality family surveyed in the paper's
//!   related work (degree, closeness, betweenness, eigenvector, PageRank),
//!   used in ablation experiments;
//! * [`generators`] — random trust-graph generators (Erdős–Rényi as in the
//!   paper's §IV-A, plus Watts–Strogatz and Barabási–Albert for topology
//!   ablations);
//! * [`propagation`] — path-based trust propagation operators
//!   (concatenation and aggregation, after Hang et al.), an alternative
//!   reputation engine;
//! * [`decay`] — an interaction ledger with Azzedin–Maheswaran style
//!   time-decaying direct trust, used to study why decaying trust freezes
//!   VO formation (the paper's critique of that model).
//!
//! ## Quick example
//!
//! ```
//! use gridvo_trust::{TrustGraph, normalize::row_normalize, power::PowerMethod};
//!
//! // Three GSPs: 0 trusts 1 strongly, everyone trusts 2 a bit.
//! let mut g = TrustGraph::new(3);
//! g.set_trust(0, 1, 0.9);
//! g.set_trust(0, 2, 0.1);
//! g.set_trust(1, 2, 0.5);
//! g.set_trust(2, 0, 0.5);
//! g.set_trust(1, 0, 0.2);
//!
//! let a = row_normalize(&g);
//! let rep = PowerMethod::default().run(&a).unwrap();
//! assert_eq!(rep.scores.len(), 3);
//! // Reputation scores form a probability vector.
//! let sum: f64 = rep.scores.iter().sum();
//! assert!((sum - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod beta;
pub mod centrality;
pub mod decay;
pub mod generators;
pub mod graph;
pub mod matrix;
pub mod normalize;
pub mod power;
pub mod propagation;

pub use graph::{NodeId, TrustGraph};
pub use matrix::{DenseMatrix, Vector};
pub use power::{PowerMethod, ReputationReport};

/// Errors produced by trust / reputation computations.
#[derive(Debug, Clone, PartialEq)]
pub enum TrustError {
    /// The graph has no nodes, so the requested computation is undefined.
    EmptyGraph,
    /// A node index was outside `0..graph.node_count()`.
    NodeOutOfRange {
        /// The offending index.
        node: usize,
        /// Number of nodes in the graph.
        len: usize,
    },
    /// An edge weight was negative or non-finite.
    InvalidWeight {
        /// Source node.
        from: usize,
        /// Destination node.
        to: usize,
        /// The rejected weight.
        weight: f64,
    },
    /// The iterative method did not converge within the iteration cap.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
    /// Matrix dimensions were incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: &'static str,
    },
}

impl std::fmt::Display for TrustError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrustError::EmptyGraph => write!(f, "trust graph has no nodes"),
            TrustError::NodeOutOfRange { node, len } => {
                write!(f, "node index {node} out of range for graph of {len} nodes")
            }
            TrustError::InvalidWeight { from, to, weight } => {
                write!(f, "invalid trust weight {weight} on edge ({from}, {to})")
            }
            TrustError::NoConvergence { iterations, residual } => write!(
                f,
                "iteration failed to converge after {iterations} iterations (residual {residual:e})"
            ),
            TrustError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
        }
    }
}

impl std::error::Error for TrustError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TrustError>;
