//! Row-major `f32` matrix with the handful of operations DLRM training
//! needs: register-tiled GEMM (plain, A-transposed, B-transposed), elementwise
//! arithmetic, row access and reductions.

use crate::error::ShapeError;
use crate::simd::{self, KernelDispatch};

/// A dense, row-major matrix of `f32`.
///
/// This is the minimal dense-tensor type backing the MLP substrate. It is a
/// plain data structure: storage is a single contiguous `Vec<f32>` of length
/// `rows * cols`, with element `(r, c)` at index `r * cols + c`.
///
/// ```
/// use tcast_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.row(0), &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    /// The empty `0 x 0` matrix (no allocation).
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Reshapes this matrix to `rows x cols` with every element zero,
    /// **reusing the existing allocation** whenever its capacity suffices.
    ///
    /// This is the buffer-recycling primitive behind the zero-allocation
    /// steady-state training step: scratch matrices are `zero_into`-ed at
    /// the start of each kernel instead of freshly allocated.
    pub fn zero_into(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshapes this matrix to `rows x cols` **without** clearing it: the
    /// contents are unspecified (stale values or zeros) and the caller
    /// overwrites every element. Saves [`Matrix::zero_into`]'s sweep for
    /// kernels that store rather than accumulate.
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Makes this matrix an exact copy of `src`, reusing the existing
    /// allocation whenever its capacity suffices.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
        self.rows = src.rows;
        self.cols = src.cols;
    }

    /// Creates a `rows x cols` matrix with every element set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
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
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix from a slice of equal-length row slices.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, ShapeError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(ShapeError::new("from_rows", (nrows, ncols), (1, row.len())));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self * rhs` (the register-tiled [`simd::gemm_nn`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless `self.cols() == rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul`] writing into `out` (reshaped in place, reusing
    /// its allocation). Bit-identical to the allocating form.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless `self.cols() == rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        self.matmul_into_with(rhs, out, simd::dispatch())
    }

    /// [`Matrix::matmul_into`] on an explicit kernel tier, bypassing the
    /// process-wide [`simd::dispatch`] — the bench/test entry point for
    /// comparing tiers in one process.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless `self.cols() == rhs.rows()`.
    pub fn matmul_into_with(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        kernel: KernelDispatch,
    ) -> Result<(), ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.reshape_for_overwrite(m, n);
        simd::gemm_nn(kernel, &self.data, &rhs.data, &mut out.data, m, k, n);
        Ok(())
    }

    /// Matrix product `self^T * rhs` without materializing the transpose.
    ///
    /// Used in backprop for the weight gradient `dW = X^T * dY`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless `self.rows() == rhs.rows()`.
    pub fn matmul_at(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::default();
        self.matmul_at_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_at`] writing into `out` (reshaped in place,
    /// reusing its allocation). Bit-identical to the allocating form.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless `self.rows() == rhs.rows()`.
    pub fn matmul_at_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        self.matmul_at_into_with(rhs, out, simd::dispatch())
    }

    /// [`Matrix::matmul_at_into`] on an explicit kernel tier.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless `self.rows() == rhs.rows()`.
    pub fn matmul_at_into_with(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        kernel: KernelDispatch,
    ) -> Result<(), ShapeError> {
        if self.rows != rhs.rows {
            return Err(ShapeError::new("matmul_at", self.shape(), rhs.shape()));
        }
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        out.reshape_for_overwrite(m, n);
        // out[i][j] = sum_r self[r][i] * rhs[r][j], `r` ascending.
        simd::gemm_tn(kernel, &self.data, m, &rhs.data, &mut out.data, k, m, n);
        Ok(())
    }

    /// Matrix product `self * rhs^T` without materializing the transpose.
    ///
    /// Used in backprop for the input gradient `dX = dY * W^T`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless `self.cols() == rhs.cols()`.
    pub fn matmul_bt(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::default();
        self.matmul_bt_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_bt`] writing into `out` (reshaped in place,
    /// reusing its allocation). Bit-identical to the allocating form.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless `self.cols() == rhs.cols()`.
    pub fn matmul_bt_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        self.matmul_bt_into_with(rhs, out, simd::dispatch())
    }

    /// [`Matrix::matmul_bt_into`] on an explicit kernel tier.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless `self.cols() == rhs.cols()`.
    pub fn matmul_bt_into_with(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        kernel: KernelDispatch,
    ) -> Result<(), ShapeError> {
        if self.cols != rhs.cols {
            return Err(ShapeError::new("matmul_bt", self.shape(), rhs.shape()));
        }
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.reshape_for_overwrite(m, n);
        simd::gemm_nt(kernel, &self.data, &rhs.data, &mut out.data, m, k, n);
        Ok(())
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise product (Hadamard) `self ⊙ rhs`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// In-place `self += alpha * rhs` (axpy), the update used by SGD.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn add_scaled(&mut self, rhs: &Matrix, alpha: f32) -> Result<(), ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new("add_scaled", self.shape(), rhs.shape()));
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns `self` scaled by `alpha`.
    pub fn scaled(&self, alpha: f32) -> Matrix {
        let data = self.data.iter().map(|v| v * alpha).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds a row vector `bias` (length `cols`) to every row in place.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `bias.len() != self.cols()`.
    pub fn add_row_vector(&mut self, bias: &[f32]) -> Result<(), ShapeError> {
        if bias.len() != self.cols {
            return Err(ShapeError::new(
                "add_row_vector",
                self.shape(),
                (1, bias.len()),
            ));
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Sums over rows, producing a vector of length `cols`.
    ///
    /// This is the bias-gradient reduction in backprop.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] writing into `out` (resized in place, reusing
    /// its allocation).
    pub fn sum_rows_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute elementwise difference against `rhs`.
    ///
    /// Useful in tests to compare two training trajectories.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Result<f32, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new("max_abs_diff", self.shape(), rhs.shape()));
        }
        Ok(self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Horizontally concatenates `parts` (all with equal row counts).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if row counts differ or `parts` is empty.
    pub fn hconcat(parts: &[&Matrix]) -> Result<Matrix, ShapeError> {
        let Some(first) = parts.first() else {
            return Err(ShapeError::new("hconcat", (0, 0), (0, 0)));
        };
        let rows = first.rows;
        let total_cols: usize = parts.iter().map(|p| p.cols).sum();
        for p in parts {
            if p.rows != rows {
                return Err(ShapeError::new("hconcat", (rows, total_cols), p.shape()));
            }
        }
        let mut out = Matrix::zeros(rows, total_cols);
        for r in 0..rows {
            let dst = out.row_mut(r);
            let mut offset = 0;
            for p in parts {
                dst[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        Ok(out)
    }

    /// Splits the matrix column-wise into chunks of the given widths.
    ///
    /// The inverse of [`Matrix::hconcat`]; the pair is the allocating
    /// reference the concat interaction is tested against.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the widths do not sum to `self.cols()`.
    pub fn hsplit(&self, widths: &[usize]) -> Result<Vec<Matrix>, ShapeError> {
        let total: usize = widths.iter().sum();
        if total != self.cols {
            return Err(ShapeError::new("hsplit", self.shape(), (1, total)));
        }
        let mut out: Vec<Matrix> = widths
            .iter()
            .map(|&w| Matrix::zeros(self.rows, w))
            .collect();
        for r in 0..self.rows {
            let src = self.row(r);
            let mut offset = 0;
            for (part, &w) in out.iter_mut().zip(widths.iter()) {
                part.row_mut(r).copy_from_slice(&src[offset..offset + w]);
                offset += w;
            }
        }
        Ok(out)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl Matrix {
    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new(op, self.shape(), rhs.shape()));
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for kk in 0..a.cols() {
                    s += a[(i, kk)] * b[(kk, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_validates_lengths() {
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id).unwrap(), a);
    }

    #[test]
    fn matmul_matches_naive_on_odd_sizes() {
        let mut a = Matrix::zeros(7, 13);
        let mut b = Matrix::zeros(13, 5);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32 * 0.37).sin();
        }
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32 * 0.61).cos();
        }
        let fast = a.matmul(&b).unwrap();
        let slow = naive_matmul(&a, &b);
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let mut a = Matrix::zeros(6, 4);
        let mut b = Matrix::zeros(6, 3);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32 * 0.1 - 1.0;
        }
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            *v = 0.5 - i as f32 * 0.05;
        }
        let implicit = a.matmul_at(&b).unwrap();
        let explicit = a.transposed().matmul(&b).unwrap();
        assert!(implicit.max_abs_diff(&explicit).unwrap() < 1e-5);
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let mut a = Matrix::zeros(5, 4);
        let mut b = Matrix::zeros(7, 4);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = (i % 5) as f32 - 2.0;
        }
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            *v = (i % 3) as f32 * 0.25;
        }
        let implicit = a.matmul_bt(&b).unwrap();
        let explicit = a.matmul(&b.transposed()).unwrap();
        assert!(implicit.max_abs_diff(&explicit).unwrap() < 1e-5);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.sub(&b).unwrap(), a);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let g = Matrix::filled(2, 2, 2.0);
        a.add_scaled(&g, -0.5).unwrap();
        assert_eq!(a, Matrix::filled(2, 2, 0.0));
    }

    #[test]
    fn add_row_vector_broadcasts() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_vector(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
        assert!(a.add_row_vector(&[1.0]).is_err());
    }

    #[test]
    fn sum_rows_is_bias_grad_reduction() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert_eq!(a.sum_rows(), vec![9.0, 12.0]);
    }

    #[test]
    fn hconcat_then_hsplit_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0], &[7.0]]).unwrap();
        let cat = Matrix::hconcat(&[&a, &b]).unwrap();
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.row(0), &[1.0, 2.0, 3.0]);
        let parts = cat.hsplit(&[2, 1]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn hconcat_rejects_mismatched_rows() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(Matrix::hconcat(&[&a, &b]).is_err());
    }

    #[test]
    fn hsplit_rejects_bad_widths() {
        let a = Matrix::zeros(2, 5);
        assert!(a.hsplit(&[2, 2]).is_err());
    }

    #[test]
    fn frobenius_norm_matches_hand_value() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn indexing_reads_and_writes() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = 7.0;
        assert_eq!(a[(0, 1)], 7.0);
        assert_eq!(a.as_slice()[1], 7.0);
    }

    #[test]
    fn scaled_and_map_agree() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]).unwrap();
        assert_eq!(a.scaled(2.0), a.map(|v| v * 2.0));
    }
}
