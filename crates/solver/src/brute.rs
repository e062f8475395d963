//! Exhaustive enumeration oracle.
//!
//! Walks all `kⁿ` complete assignments, keeping the cheapest feasible
//! one. Exponential — usable only for tiny instances — but it has no
//! pruning logic at all, so it serves as the ground truth the
//! branch-and-bound is property-tested against.

use crate::instance::AssignmentInstance;
use crate::solution::Assignment;
use crate::SolverError;

/// Hard cap on `gsps.pow(tasks)` beyond which [`solve`] refuses to run
/// instead of hanging the test suite.
pub const MAX_ENUMERATIONS: u128 = 50_000_000;

/// Exhaustively find the optimal feasible assignment, or `Ok(None)`
/// when the instance is infeasible.
///
/// # Errors
/// Returns [`SolverError::TooLarge`] when the enumeration count would
/// exceed [`MAX_ENUMERATIONS`] (or overflow entirely) — this is a test
/// oracle, not a solver, and oversized instances must fail typed on
/// every path instead of panicking.
pub fn solve(inst: &AssignmentInstance) -> crate::Result<Option<(Assignment, f64)>> {
    let n = inst.tasks();
    let k = inst.gsps();
    let total = (k as u128).checked_pow(n as u32);
    match total {
        Some(t) if t <= MAX_ENUMERATIONS => {}
        _ => return Err(SolverError::TooLarge { tasks: n, gsps: k, limit: MAX_ENUMERATIONS }),
    }

    let mut current = vec![0usize; n];
    let mut best: Option<(Vec<usize>, f64)> = None;
    loop {
        let a = Assignment::new(current.clone());
        if a.is_feasible(inst) {
            let c = a.total_cost(inst);
            if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                best = Some((current.clone(), c));
            }
        }
        // odometer increment
        let mut i = 0;
        loop {
            if i == n {
                return Ok(best.map(|(v, c)| (Assignment::new(v), c)));
            }
            current[i] += 1;
            if current[i] < k {
                break;
            }
            current[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_known_optimum() {
        let i = AssignmentInstance::new(
            3,
            2,
            vec![1.0, 4.0, 2.0, 1.0, 3.0, 2.0],
            vec![1.0; 6],
            100.0,
            100.0,
        )
        .unwrap();
        let (a, c) = solve(&i).unwrap().unwrap();
        assert_eq!(c, 4.0);
        a.check_feasible(&i).unwrap();
    }

    #[test]
    fn detects_infeasibility() {
        let i = AssignmentInstance::new(2, 2, vec![10.0; 4], vec![1.0; 4], 10.0, 5.0).unwrap();
        assert!(solve(&i).unwrap().is_none());
    }

    #[test]
    fn refuses_huge_instances_with_a_typed_error() {
        let n = 40;
        let k = 4;
        let i =
            AssignmentInstance::new(n, k, vec![1.0; n * k], vec![1.0; n * k], 1e9, 1e9).unwrap();
        match solve(&i) {
            Err(SolverError::TooLarge { tasks, gsps, limit }) => {
                assert_eq!((tasks, gsps, limit), (n, k, MAX_ENUMERATIONS));
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // The error must render, not panic, on the overflow path too.
        let n = 200;
        let i =
            AssignmentInstance::new(n, k, vec![1.0; n * k], vec![1.0; n * k], 1e9, 1e9).unwrap();
        let err = solve(&i).unwrap_err();
        assert!(err.to_string().contains("too large"), "got: {err}");
    }
}
