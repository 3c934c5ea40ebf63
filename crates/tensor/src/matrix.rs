//! Dense row-major `f32` matrix.
//!
//! This is the value type that everything else in the workspace is built on:
//! the autograd [`Tape`](crate::tape::Tape) stores one `Matrix` per node, the
//! clustering crate consumes flat slices produced here, and the EHR crate
//! emits batches as matrices.
//!
//! Elementwise ops favour clarity and cache-friendly inner loops; all matrix
//! products (`matmul`, `matmul_acc`, and the transpose-fused `matmul_tn` /
//! `matmul_nt` family) share the blocked kernel in [`crate::gemm`].

use std::fmt;

/// A dense row-major matrix of `f32` values (the default is `0 x 0`).
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:8.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 12 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a 1 x n row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates an n x 1 column vector.
    pub fn col_vector(values: &[f32]) -> Self {
        Matrix::from_vec(values.len(), 1, values.to_vec())
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix product `self * rhs`.
    ///
    /// All matrix products route through the blocked kernel in
    /// [`crate::gemm`]; see its module docs for the determinism contract.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        crate::gemm::gemm_into(false, false, self, rhs, &mut out, false);
        out
    }

    /// Like [`Matrix::matmul`] but accumulates into `out` (`out += self * rhs`).
    pub fn matmul_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::gemm::gemm_into(false, false, self, rhs, out, true);
    }

    /// `selfᵀ * rhs` without materialising the transpose.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        crate::gemm::gemm_into(true, false, self, rhs, &mut out, false);
        out
    }

    /// `out += selfᵀ * rhs` without materialising the transpose.
    pub fn matmul_tn_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::gemm::gemm_into(true, false, self, rhs, out, true);
    }

    /// `self * rhsᵀ` without materialising the transpose.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        crate::gemm::gemm_into(false, true, self, rhs, &mut out, false);
        out
    }

    /// `out += self * rhsᵀ` without materialising the transpose.
    pub fn matmul_nt_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::gemm::gemm_into(false, true, self, rhs, out, true);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equally shaped matrices.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self + rhs` element-wise.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }

    /// `self - rhs` element-wise.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }

    /// `self * rhs` element-wise (Hadamard product).
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }

    /// `self * s` for a scalar `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// `self += rhs` element-wise, in place.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// `self += rhs * s` element-wise, in place.
    pub fn add_scaled_assign(&mut self, rhs: &Matrix, s: f32) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "add_scaled_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b * s;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        for x in &mut self.data {
            *x = 0.0;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Row-wise sums as an `rows x 1` column vector.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out[(r, 0)] = self.row(r).iter().sum();
        }
        out
    }

    /// Column-wise sums as a `1 x cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(0, c)] += self[(r, c)];
            }
        }
        out
    }

    /// Column-wise means as a `1 x cols` row vector.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = self.sum_rows();
        if self.rows > 0 {
            out.map_inplace(|x| x / self.rows as f32);
        }
        out
    }

    /// Horizontal concatenation of matrices that share a row count.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = parts[0].rows;
        let total: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, total);
        for r in 0..rows {
            let mut offset = 0;
            for m in parts {
                assert_eq!(m.rows, rows, "concat_cols row mismatch");
                out.data[r * total + offset..r * total + offset + m.cols].copy_from_slice(m.row(r));
                offset += m.cols;
            }
        }
        out
    }

    /// Vertical concatenation of matrices that share a column count.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let cols = parts[0].cols;
        let total: usize = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(total * cols);
        for m in parts {
            assert_eq!(m.cols, cols, "concat_rows col mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix::from_vec(total, cols, data)
    }

    /// Copy of columns `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Copy of rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "slice_rows out of range");
        Matrix::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        )
    }

    /// Row-wise softmax; each row sums to 1.
    ///
    /// Numerically stable (subtracts the per-row maximum before exponentiating).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            softmax_in_place(out.row_mut(r));
        }
        out
    }

    /// Index of the largest element in row `r`.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &x) in row.iter().enumerate() {
            if x > row[best] {
                best = i;
            }
        }
        best
    }

    /// Squared Euclidean distance between row `r` of `self` and `other`.
    pub fn row_distance_sq(&self, r: usize, other: &[f32]) -> f32 {
        self.row(r)
            .iter()
            .zip(other.iter())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum()
    }

    /// True when all elements are finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Softmax of one row, in place — the single definition behind
/// [`Matrix::softmax_rows`] and the fused attention kernels.
pub(crate) fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Matrix::full(2, 2, 1.5);
        assert_eq!(f.sum(), 6.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let i = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_acc_accumulates() {
        let a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(2, 1, vec![3., 4.]);
        let mut out = Matrix::full(1, 1, 10.0);
        a.matmul_acc(&b, &mut out);
        assert_eq!(out[(0, 0)], 21.0);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(3, 1)], a[(1, 3)]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).as_slice(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).as_slice(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).as_slice(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., 4., 6.]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_cols().as_slice(), &[3., 7.]);
        assert_eq!(a.sum_rows().as_slice(), &[4., 6.]);
        assert_eq!(a.mean_rows().as_slice(), &[2., 3.]);
    }

    #[test]
    fn concat_and_slice_cols() {
        let a = Matrix::from_vec(2, 1, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1., 3., 4.]);
        assert_eq!(c.row(1), &[2., 5., 6.]);
        assert_eq!(c.slice_cols(1, 3), b);
        assert_eq!(c.slice_cols(0, 1), a);
    }

    #[test]
    fn concat_and_slice_rows() {
        let a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.slice_rows(0, 1), a);
        assert_eq!(c.slice_rows(1, 3), b);
    }

    #[test]
    fn softmax_rows_is_simplex() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).iter().all(|&x| x > 0.0));
        }
        // Larger logits get larger probabilities.
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = Matrix::from_vec(1, 2, vec![1000.0, 1001.0]);
        let s = a.softmax_rows();
        assert!(s.all_finite());
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_and_distance() {
        let a = Matrix::from_vec(2, 3, vec![1., 5., 2., 9., 0., 3.]);
        assert_eq!(a.argmax_row(0), 1);
        assert_eq!(a.argmax_row(1), 0);
        assert_eq!(a.row_distance_sq(0, &[1., 5., 2.]), 0.0);
        assert_eq!(a.row_distance_sq(0, &[0., 5., 2.]), 1.0);
    }

    #[test]
    fn finite_check() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.all_finite());
        a[(0, 1)] = f32::NAN;
        assert!(!a.all_finite());
    }
}
