//! Dense row-major complex matrices.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::{c64, Vector};

/// A dense complex matrix stored in row-major order.
///
/// Sized for the few-qubit Hamiltonians this workspace simulates (dimension
/// ≤ 64); all operations are straightforward `O(n³)`/`O(n²)` loops with no
/// hidden allocation tricks.
///
/// # Example
///
/// ```
/// use zz_linalg::{c64, Matrix};
///
/// let x = Matrix::from_rows(&[
///     &[c64::ZERO, c64::ONE],
///     &[c64::ONE, c64::ZERO],
/// ]);
/// let z = Matrix::from_rows(&[
///     &[c64::ONE, c64::ZERO],
///     &[c64::ZERO, -c64::ONE],
/// ]);
/// // XZ = -ZX for Pauli matrices.
/// assert!((&x * &z).approx_eq(&(&z * &x).scale(-c64::ONE), 1e-15));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<c64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![c64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = c64::ONE;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[c64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        Matrix {
            rows: rows.len(),
            cols,
            data: rows.iter().flat_map(|r| r.iter().copied()).collect(),
        }
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[c64]) -> Self {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> c64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
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

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[c64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [c64] {
        &mut self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// Uses the cache-friendly `ikj` loop order and skips zero entries of
    /// `self`, so the zeros of a block-structured `self` cost nothing.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        accumulate_product(&self.data, &rhs.data, &mut out.data, self.cols, rhs.cols);
        out
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != v.len()`.
    pub fn mul_vec(&self, v: &Vector) -> Vector {
        assert_eq!(self.cols, v.len(), "mul_vec dimension mismatch");
        let mut out = vec![c64::ZERO; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *slot = row.iter().zip(v.as_slice()).map(|(&a, &x)| a * x).sum();
        }
        Vector::from_vec(out)
    }

    /// Conjugate transpose `self†`.
    pub fn dagger(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Matrix {
        let mut out = self.clone();
        for z in &mut out.data {
            *z = z.conj();
        }
        out
    }

    /// Scales every entry by `factor`.
    pub fn scale(&self, factor: c64) -> Matrix {
        let mut out = self.clone();
        for z in &mut out.data {
            *z *= factor;
        }
        out
    }

    /// Trace `Σᵢ Aᵢᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> c64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm `√(Σ |Aᵢⱼ|²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.abs_sq()).sum::<f64>().sqrt()
    }

    /// Largest entry modulus (max norm).
    pub fn max_norm(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    ///
    /// ```
    /// use zz_linalg::{c64, Matrix};
    /// let i2 = Matrix::identity(2);
    /// let kron = i2.kron(&i2);
    /// assert!(kron.approx_eq(&Matrix::identity(4), 0.0));
    /// ```
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == c64::ZERO {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// `Tr(self† · rhs)` — the Hilbert–Schmidt inner product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hs_inner(&self, rhs: &Matrix) -> c64 {
        assert_eq!(self.rows, rhs.rows, "hs_inner shape mismatch");
        assert_eq!(self.cols, rhs.cols, "hs_inner shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a.conj() * b)
            .sum()
    }

    /// Returns `true` if every entry differs from `other` by at most `tol`
    /// in modulus.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Returns `true` if `self† self ≈ I` within `tol` (per entry).
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.is_square()
            && self
                .dagger()
                .matmul(self)
                .approx_eq(&Matrix::identity(self.rows), tol)
    }

    /// Returns `true` if `self ≈ self†` within `tol` (per entry).
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.approx_eq(&self.dagger(), tol)
    }

    /// Sums `self + rhs` in place, scaled: `self += factor * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, rhs: &Matrix, factor: c64) {
        assert_eq!(self.rows, rhs.rows, "add_scaled shape mismatch");
        assert_eq!(self.cols, rhs.cols, "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += factor * b;
        }
    }
}

/// `out = a · b` for row-major `n × n` slices, overwriting `out` without
/// allocating: [`Matrix::matmul`]'s product, bit for bit, over
/// caller-owned buffers.
///
/// # Panics
///
/// Panics unless all three slices hold `n²` entries.
pub fn matmul_into(n: usize, a: &[c64], b: &[c64], out: &mut [c64]) {
    assert!(
        a.len() == n * n && b.len() == n * n && out.len() == n * n,
        "matmul_into needs three {n}x{n} slices"
    );
    out.fill(c64::ZERO);
    // Constant widths for the blocks pulse calibration propagates, so
    // the compiler unrolls their loops.
    match n {
        2 => accumulate_product(a, b, out, 2, 2),
        4 => accumulate_product(a, b, out, 4, 4),
        _ => accumulate_product(a, b, out, n, n),
    }
}

/// Adds `a · b` to `out` for row-major `a` (`rows × inner`), `b`
/// (`inner × cols`) and `out` (`rows × cols`): the `ikj` loop, skipping
/// zero entries of `a`.
#[inline(always)]
fn accumulate_product(a: &[c64], b: &[c64], out: &mut [c64], inner: usize, cols: usize) {
    if inner == 0 || cols == 0 {
        return;
    }
    for (arow, orow) in a.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
        for (&x, brow) in arow.iter().zip(b.chunks_exact(cols)) {
            if x == c64::ZERO {
                continue;
            }
            for (o, &r) in orow.iter_mut().zip(brow) {
                *o += x * r;
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = c64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &c64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut c64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_scaled(rhs, c64::ONE);
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_scaled(rhs, -c64::ONE);
        out
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                let z = self[(i, j)];
                write!(f, "{:+.4}{:+.4}i ", z.re, z.im)?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> Matrix {
        Matrix::from_rows(&[&[c64::ZERO, c64::ONE], &[c64::ONE, c64::ZERO]])
    }

    fn pauli_y() -> Matrix {
        Matrix::from_rows(&[&[c64::ZERO, -c64::I], &[c64::I, c64::ZERO]])
    }

    fn pauli_z() -> Matrix {
        Matrix::from_rows(&[&[c64::ONE, c64::ZERO], &[c64::ZERO, -c64::ONE]])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        let i = Matrix::identity(2);
        assert!(x.matmul(&i).approx_eq(&x, 0.0));
        assert!(i.matmul(&x).approx_eq(&x, 0.0));
    }

    #[test]
    fn pauli_algebra() {
        // XY = iZ
        let xy = pauli_x().matmul(&pauli_y());
        assert!(xy.approx_eq(&pauli_z().scale(c64::I), 1e-15));
        // X² = I
        assert!(pauli_x()
            .matmul(&pauli_x())
            .approx_eq(&Matrix::identity(2), 1e-15));
    }

    #[test]
    fn dagger_of_y_is_y() {
        assert!(pauli_y().is_hermitian(0.0));
        assert!(pauli_y().is_unitary(1e-15));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let z = pauli_z();
        let zz = z.kron(&z);
        assert_eq!(zz.rows(), 4);
        assert_eq!(zz[(0, 0)], c64::ONE);
        assert_eq!(zz[(1, 1)], -c64::ONE);
        assert_eq!(zz[(2, 2)], -c64::ONE);
        assert_eq!(zz[(3, 3)], c64::ONE);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = pauli_x();
        let b = pauli_y();
        let c = pauli_z();
        let d = Matrix::identity(2);
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-14));
    }

    #[test]
    fn trace_and_norms() {
        let z = pauli_z();
        assert_eq!(z.trace(), c64::ZERO);
        assert!((z.frobenius_norm() - 2f64.sqrt()).abs() < 1e-15);
        assert_eq!(z.max_norm(), 1.0);
    }

    #[test]
    fn hs_inner_orthogonality_of_paulis() {
        assert_eq!(pauli_x().hs_inner(&pauli_y()), c64::ZERO);
        assert_eq!(pauli_x().hs_inner(&pauli_x()), c64::new(2.0, 0.0));
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let y = pauli_y();
        let v = Vector::from_vec(vec![c64::new(1.0, 0.0), c64::new(0.0, 1.0)]);
        let got = y.mul_vec(&v);
        assert!((got[0] - c64::new(1.0, 0.0)).abs() < 1e-15);
        assert!((got[1] - c64::I).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn diag_builds_square_matrix() {
        let d = Matrix::diag(&[c64::ONE, c64::I]);
        assert_eq!(d[(1, 1)], c64::I);
        assert_eq!(d[(0, 1)], c64::ZERO);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = pauli_x();
        let b = pauli_z();
        let sum = &a + &b;
        let back = &sum - &b;
        assert!(back.approx_eq(&a, 1e-15));
    }
}
