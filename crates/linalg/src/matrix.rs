//! Row-major dense `f64` matrix.
//!
//! [`Matrix`] is the common currency of the workspace. It favours
//! predictable, shape-checked operations over cleverness: constructors
//! validate dimensions and return [`crate::Error`] instead of
//! panicking, and hot loops (`matmul`, `dot_row`) operate on contiguous
//! row slices so the optimizer can vectorize them.

use crate::{Error, Result};

/// A dense, row-major matrix of `f64` values.
///
/// # Example
///
/// ```
/// use suod_linalg::Matrix;
///
/// # fn main() -> Result<(), suod_linalg::Error> {
/// let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.])?;
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m.row(1), &[4., 5., 6.]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadDimensions`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::BadDimensions {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally long rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadDimensions`] when rows have differing lengths and
    /// [`Error::Empty`] when `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let n = rows.len();
        if n == 0 {
            return Err(Error::Empty("Matrix::from_rows"));
        }
        let d = rows[0].len();
        let mut data = Vec::with_capacity(n * d);
        for r in rows {
            if r.len() != d {
                return Err(Error::BadDimensions {
                    expected: d,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: n,
            cols: d,
            data,
        })
    }

    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a single-column matrix from a vector.
    pub fn column_vector(v: Vec<f64>) -> Self {
        let rows = v.len();
        Self {
            rows,
            cols: 1,
            data: v,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= nrows()` or `c >= ncols()`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= nrows()` or `c >= ncols()`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics when `r >= nrows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics when `r >= nrows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics when `c >= ncols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Flat row-major view of the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the flat row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `self.ncols() != other.nrows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(Error::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: the inner loop walks contiguous rows of `other`
        // and `out`, which the autovectorizer handles well.
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `v.len() != self.ncols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(Error::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self.rows_iter().map(|row| dot(row, v)).collect())
    }

    /// Selects a subset of rows into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Selects a subset of columns into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for &c in indices {
                data.push(row[c]);
            }
        }
        Matrix {
            rows: self.rows,
            cols: indices.len(),
            data,
        }
    }

    /// Appends the rows of `other` below `self`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(Error::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Appends the columns of `other` to the right of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(Error::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Scales every element in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }
}

/// Dot product of two equally long slices.
///
/// # Panics
///
/// Debug-asserts equal lengths; in release the shorter length governs.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Squared Euclidean norm of a slice.
#[inline]
pub fn norm_sq(a: &[f64]) -> f64 {
    a.iter().map(|&x| x * x).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_checks_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, Error::BadDimensions { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(
            Matrix::from_rows(&[]).unwrap_err(),
            Error::Empty(_)
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b).unwrap_err(),
            Error::ShapeMismatch { op: "matmul", .. }
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let v = vec![1.0, 0.5, -1.0];
        let got = a.matvec(&v).unwrap();
        let expected = a.matmul(&Matrix::column_vector(v)).unwrap().into_vec();
        assert_eq!(got, expected);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Matrix::from_vec(3, 3, (1..=9).map(|v| v as f64).collect()).unwrap();
        let r = m.select_rows(&[2, 0]);
        assert_eq!(r.row(0), &[7., 8., 9.]);
        assert_eq!(r.row(1), &[1., 2., 3.]);
        let c = m.select_cols(&[1]);
        assert_eq!(c.col(0), vec![2., 5., 8.]);
    }

    #[test]
    fn vstack_works_and_checks() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::filled(2, 2, 1.0);
        let s = a.vstack(&b).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[1.0, 1.0]);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn hstack_works_and_checks() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(h.row(1), &[2.0, 5.0, 6.0]);
        assert!(a.hstack(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn map_and_scale() {
        let m = Matrix::filled(2, 2, 2.0);
        assert_eq!(m.map(|v| v * v).as_slice(), &[4.0; 4]);
        let mut m2 = m.clone();
        m2.scale_in_place(0.5);
        assert_eq!(m2.as_slice(), &[1.0; 4]);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1., 2.], &[3., 4.]), 11.0);
        assert_eq!(norm_sq(&[3., 4.]), 25.0);
    }
}
