//! Minimal dense linear algebra used by the reputation kernels.
//!
//! The paper's reputation procedure is a power iteration on a small
//! (`m ≤ a few hundred`) dense matrix, so a row-major `Vec<f64>` matrix
//! with hand-rolled mat-vec products is both simpler and faster than
//! pulling in a linear-algebra dependency. All kernels are
//! allocation-free on the hot path: callers pass output buffers.

use crate::{Result, TrustError};
use serde::{Deserialize, Serialize};

/// Dense row-major matrix of `f64`.
///
/// Rows index the *rating* GSP and columns the *rated* GSP when the
/// matrix holds trust values: `m[(i, j)]` is the trust `i` places in `j`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "RawMatrix")]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Serde shadow: deserialization re-runs the shape check so malformed
/// files cannot construct an inconsistent matrix.
#[derive(Deserialize)]
struct RawMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl TryFrom<RawMatrix> for DenseMatrix {
    type Error = String;
    fn try_from(raw: RawMatrix) -> std::result::Result<Self, String> {
        DenseMatrix::from_rows(raw.rows, raw.cols, raw.data).map_err(|e| e.to_string())
    }
}

impl DenseMatrix {
    /// Create a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build a matrix from a row-major slice. Returns an error if
    /// `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TrustError::DimensionMismatch { context: "from_rows: data length" });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// `y = Mᵀ · x` (transposed matrix–vector product) written into `y`.
    ///
    /// This is the kernel of the paper's power method (eq. (5)):
    /// `x^{q+1} = Aᵀ x^q`. Implemented as a row-major AXPY sweep so the
    /// matrix is walked sequentially (cache-friendly) instead of with a
    /// strided column walk.
    pub fn mul_transpose_vec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(TrustError::DimensionMismatch { context: "mul_transpose_vec_into" });
        }
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (yj, &aij) in y.iter_mut().zip(row.iter()) {
                *yj += aij * xi;
            }
        }
        Ok(())
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// L1 norm `Σ|xᵢ|`.
#[inline]
pub fn norm_l1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// L1 distance `Σ|xᵢ − yᵢ|`; the convergence criterion of Algorithm 2.
#[inline]
pub fn dist_l1(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y.iter()).map(|(a, b)| (a - b).abs()).sum()
}

/// Normalize `x` in place so it sums to 1 (if the sum is positive).
/// Returns the original sum.
pub fn normalize_l1(x: &mut [f64]) -> f64 {
    let s = norm_l1(x);
    if s > 0.0 {
        for v in x.iter_mut() {
            *v /= s;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape() {
        let m = DenseMatrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(!m.is_square());
    }

    #[test]
    fn from_rows_rejects_bad_length() {
        assert!(DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn indexing_round_trips() {
        let mut m = DenseMatrix::zeros(3, 3);
        m[(1, 2)] = 7.5;
        assert_eq!(m[(1, 2)], 7.5);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.5]);
    }

    #[test]
    fn transpose_vec_matches_explicit_transpose() {
        let m = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let x = vec![1.0, -1.0];
        let mut fast = vec![0.0; 3];
        m.mul_transpose_vec_into(&x, &mut fast).unwrap();
        for (j, a) in fast.iter().enumerate() {
            let slow: f64 = (0..2).map(|i| m[(i, j)] * x[i]).sum();
            assert!((a - slow).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_dimension_mismatch_is_error() {
        let a = DenseMatrix::zeros(2, 3);
        let x = vec![0.0; 3];
        let mut y = vec![0.0; 3];
        assert!(a.mul_transpose_vec_into(&x, &mut y).is_err());
    }

    #[test]
    fn norms_agree_with_hand_computation() {
        let x = [3.0, -4.0];
        assert_eq!(norm_l1(&x), 7.0);
        assert_eq!(dist_l1(&x, &[0.0, 0.0]), 7.0);
    }

    #[test]
    fn normalize_l1_makes_probability_vector() {
        let mut x = vec![2.0, 6.0];
        let s = normalize_l1(&mut x);
        assert_eq!(s, 8.0);
        assert_eq!(x, vec![0.25, 0.75]);
    }

    #[test]
    fn normalize_l1_zero_vector_untouched() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize_l1(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }
}
