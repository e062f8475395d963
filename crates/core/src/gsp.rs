//! Grid Service Providers.

use serde::{Deserialize, Serialize};

/// A Grid Service Provider: an autonomous organization whose pooled
/// computational resources are abstracted as one machine of speed
/// `s(G)` GFLOPS (§II-A). GSPs are self-interested and
/// welfare-maximizing: they join a VO only if their payoff share is
/// positive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gsp {
    /// Stable identifier; also the GSP's index in scenario matrices
    /// and trust graphs.
    pub id: usize,
    /// Aggregate speed in GFLOPS (the paper draws these from
    /// `4.91 × [16, 128]`).
    pub speed_gflops: f64,
}

impl Gsp {
    /// Create a GSP.
    pub fn new(id: usize, speed_gflops: f64) -> Self {
        Gsp { id, speed_gflops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_round_trip() {
        let g = Gsp::new(3, 78.56);
        let json = serde_json::to_string(&g).unwrap();
        let back: Gsp = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
