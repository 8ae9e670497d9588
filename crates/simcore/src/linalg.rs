//! Small dense linear algebra: just enough to fit ARIMA models.
//!
//! The profiler (crate `e3-profiler`) estimates AR/MA coefficients with
//! ordinary least squares. The design matrices involved are tiny (tens of
//! rows, a handful of columns), so a straightforward dense solver with
//! partial pivoting is both sufficient and easy to audit.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Errors from linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The system is singular (or numerically so) and cannot be solved.
    Singular,
    /// Operand shapes are incompatible.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        context: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::ShapeMismatch { context } => {
                write!(f, "shape mismatch: {context}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix transpose.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if inner dimensions differ.
    pub(crate) fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch { context: "matmul" });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != cols`.
    pub(crate) fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch { context: "matvec" });
        }
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut s = 0.0;
            for j in 0..self.cols {
                s += self[(i, j)] * v[j];
            }
            out[i] = s;
        }
        Ok(out)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Solves the square system `a x = b` by Gaussian elimination with partial
/// pivoting. `a` is consumed by value (it is small).
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] if a pivot is (numerically) zero and
/// [`LinalgError::ShapeMismatch`] for non-square or mismatched inputs.
pub fn solve(mut a: Matrix, mut b: Vec<f64>) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::ShapeMismatch { context: "solve" });
    }
    for col in 0..n {
        // Partial pivot: pick the row with the largest magnitude in `col`.
        let mut pivot = col;
        for r in col + 1..n {
            if a[(r, col)].abs() > a[(pivot, col)].abs() {
                pivot = r;
            }
        }
        if a[(pivot, col)].abs() < 1e-12 {
            return Err(LinalgError::Singular);
        }
        if pivot != col {
            for j in 0..n {
                let tmp = a[(col, j)];
                a[(col, j)] = a[(pivot, j)];
                a[(pivot, j)] = tmp;
            }
            b.swap(col, pivot);
        }
        for r in col + 1..n {
            let f = a[(r, col)] / a[(col, col)];
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                a[(r, j)] -= f * a[(col, j)];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = b[i];
        for j in i + 1..n {
            s -= a[(i, j)] * x[j];
        }
        x[i] = s / a[(i, i)];
    }
    Ok(x)
}

/// Ordinary least squares: finds `beta` minimizing `||x beta - y||^2` via
/// the normal equations with a tiny ridge term for numerical robustness.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if `y.len() != x.rows()` and
/// [`LinalgError::Singular`] if the (ridge-regularized) normal matrix is
/// still singular.
pub fn least_squares(x: &Matrix, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if y.len() != x.rows() {
        return Err(LinalgError::ShapeMismatch {
            context: "least_squares",
        });
    }
    let xt = x.transpose();
    let mut xtx = xt.matmul(x)?;
    // Ridge epsilon keeps nearly collinear designs (common with short
    // profiling windows) solvable without visibly biasing coefficients.
    let eps = 1e-9;
    for i in 0..xtx.rows() {
        xtx[(i, i)] += eps;
    }
    let xty = xt.matvec(y)?;
    solve(xtx, xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn identity_solve() {
        let a = Matrix::from_rows(3, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        let x = solve(a, vec![1.0, 2.0, 3.0]).unwrap();
        assert!(approx(&x, &[1.0, 2.0, 3.0], 1e-12));
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  => x = 1, y = 3
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = solve(a, vec![5.0, 10.0]).unwrap();
        assert!(approx(&x, &[1.0, 3.0], 1e-12));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(a, vec![2.0, 3.0]).unwrap();
        assert!(approx(&x, &[3.0, 2.0], 1e-12));
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(solve(a, vec![1.0, 2.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn matmul_shapes() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_rows(3, 1, vec![1.0, 1.0, 1.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 1);
        assert_eq!(c[(0, 0)], 6.0);
        assert_eq!(c[(1, 0)], 15.0);
        assert!(b.matmul(&b).is_err());
    }

    #[test]
    fn least_squares_recovers_line() {
        // y = 2 + 3t, exactly.
        let n = 10;
        let mut data = Vec::new();
        let mut y = Vec::new();
        for t in 0..n {
            data.push(1.0);
            data.push(t as f64);
            y.push(2.0 + 3.0 * t as f64);
        }
        let x = Matrix::from_rows(n, 2, data);
        let beta = least_squares(&x, &y).unwrap();
        assert!(approx(&beta, &[2.0, 3.0], 1e-6));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }
}
