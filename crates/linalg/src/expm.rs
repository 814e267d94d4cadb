//! Unitary matrix exponentials.
//!
//! Time evolution under a Hamiltonian `H` for duration `t` is
//! `U = exp(−i H t)`. Two implementations are provided:
//!
//! * [`expm_neg_i_h_t`] — exact via Hermitian eigendecomposition; use it for
//!   one-off propagators and as a reference.
//! * [`expm_step`] — scaled Taylor series; 5–20× faster for the short
//!   time-steps of piecewise-constant propagation loops, with a dedicated
//!   analytic fast path for 2×2 Hamiltonians.
//!
//! The scaled Taylor series has one body, [`expm_taylor_into`]: it works
//! on caller-owned row-major slices and allocates nothing, and takes its
//! squaring count from a norm bound the caller passes. [`expm_taylor`]
//! (behind [`expm_step`]) wraps it with the bound of the whole matrix;
//! `zz_pulse`'s block propagation calls it once per invariant block with
//! the bound of the full matrix, so each block's entries come out bit for
//! bit as [`expm_taylor`] would compute them on the whole matrix.

use crate::eig::eigh;
use crate::{c64, matmul_into, Matrix};

/// Computes `exp(−i H t)` for a Hermitian `H` via eigendecomposition.
///
/// # Panics
///
/// Panics if `h` is not square or not Hermitian (see [`eigh`]).
///
/// # Example
///
/// ```
/// use zz_linalg::{c64, Matrix};
/// use zz_linalg::expm::expm_neg_i_h_t;
///
/// let z = Matrix::diag(&[c64::ONE, -c64::ONE]);
/// let u = expm_neg_i_h_t(&z, std::f64::consts::PI);
/// // exp(−iπZ) = −I.
/// assert!(u.approx_eq(&Matrix::identity(2).scale(-c64::ONE), 1e-12));
/// ```
pub fn expm_neg_i_h_t(h: &Matrix, t: f64) -> Matrix {
    let e = eigh(h);
    let n = h.rows();
    let phases: Vec<c64> = e.values.iter().map(|&l| c64::cis(-l * t)).collect();
    // V · diag(phases) · V†
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut acc = c64::ZERO;
            for (k, &phase) in phases.iter().enumerate() {
                acc += e.vectors[(i, k)] * phase * e.vectors[(j, k)].conj();
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Computes `exp(−i H dt)` for a Hermitian `H`, optimized for the short
/// steps of a propagation loop.
///
/// Dispatches to an analytic formula for 2×2 matrices and to a
/// scaling-and-squaring Taylor expansion otherwise. Accuracy is close to
/// machine precision for `‖H·dt‖ ≲ 10`.
///
/// # Panics
///
/// Panics if `h` is not square.
pub fn expm_step(h: &Matrix, dt: f64) -> Matrix {
    assert!(h.is_square(), "expm_step requires a square matrix");
    if h.rows() == 2 {
        return expm_2x2(h, dt);
    }
    expm_taylor(&h.scale(c64::new(0.0, -dt)))
}

/// Analytic `exp(−i H dt)` for a 2×2 Hermitian `H = c·I + n⃗·σ⃗`.
fn expm_2x2(h: &Matrix, dt: f64) -> Matrix {
    let a = h[(0, 0)].re;
    let d = h[(1, 1)].re;
    let b = h[(0, 1)]; // = nx − i·ny
    let nx = b.re;
    let ny = -b.im;
    let nz = (a - d) / 2.0;
    let c = (a + d) / 2.0;
    let n = (nx * nx + ny * ny + nz * nz).sqrt();
    let phase = c64::cis(-c * dt);
    if n * dt == 0.0 {
        return Matrix::identity(2).scale(phase);
    }
    let (cosv, sinv) = ((n * dt).cos(), (n * dt).sin());
    let f = -sinv / n; // multiplies i·(n⃗·σ⃗)
    let m00 = c64::new(cosv, f * nz);
    let m11 = c64::new(cosv, -f * nz);
    let m01 = c64::new(f * ny, f * nx);
    let m10 = c64::new(-f * ny, f * nx);
    Matrix::from_rows(&[&[phase * m00, phase * m01], &[phase * m10, phase * m11]])
}

/// `exp(M)` via scaling-and-squaring with a fixed-order Taylor series.
///
/// Intended for anti-Hermitian `M` (so the result is unitary); the series is
/// truncated at order 12 after scaling `‖M‖₁ < 0.5`, bounding `‖M‖₁` by
/// `max |Mᵢⱼ| · n`. Allocates the buffers of [`expm_taylor_into`], which
/// does the work.
///
/// # Panics
///
/// Panics if `m` is not square.
pub fn expm_taylor(m: &Matrix) -> Matrix {
    assert!(m.is_square(), "expm_taylor requires a square matrix");
    let n = m.rows();
    let norm = m.max_norm() * n as f64; // cheap upper bound on the 1-norm
    let mut scaled = m.clone();
    let mut out = Matrix::zeros(n, n);
    let mut tmp = Matrix::zeros(n, n);
    expm_taylor_into(
        n,
        scaled.as_mut_slice(),
        norm,
        out.as_mut_slice(),
        tmp.as_mut_slice(),
    );
    out
}

/// The scaling-and-squaring Taylor kernel: writes `exp(M)` for the
/// row-major `n × n` matrix `m` to `out`, allocating nothing.
///
/// `norm` bounds `‖M‖₁` and sets the squaring count `s`: the smallest
/// `s ≤ 40` with `norm · 2⁻ˢ ≤ 0.5`. The kernel scales `m` in place by
/// `2⁻ˢ` (overwriting it), sums the order-12 series by Horner's rule and
/// squares `s` times; `tmp` is scratch. [`expm_taylor`] passes
/// `max |Mᵢⱼ| · n`. A caller exponentiating the invariant blocks of a
/// larger matrix one at a time passes the whole matrix's bound (its
/// largest entry over all blocks times the *full* dimension): the
/// products skip the zeros between blocks, so every in-block entry then
/// equals [`expm_taylor`]'s on the whole matrix, bit for bit.
///
/// # Panics
///
/// Panics unless `m`, `out` and `tmp` each hold `n²` entries.
pub fn expm_taylor_into(n: usize, m: &mut [c64], norm: f64, out: &mut [c64], tmp: &mut [c64]) {
    assert!(
        m.len() == n * n && out.len() == n * n && tmp.len() == n * n,
        "expm_taylor_into needs three {n}x{n} buffers"
    );
    let mut squarings = 0u32;
    let mut scale = 1.0;
    while norm * scale > 0.5 && squarings < 40 {
        squarings += 1;
        scale *= 0.5;
    }
    for z in m.iter_mut() {
        *z *= c64::real(scale);
    }

    // Horner evaluation of Σ_{k≤12} M^k / k!.
    out.fill(c64::ZERO);
    for i in 0..n {
        out[i * n + i] = c64::ONE;
    }
    for k in (1..=12).rev() {
        matmul_into(n, m, out, tmp);
        for (o, &t) in out.iter_mut().zip(tmp.iter()) {
            *o = t / k as f64;
        }
        for i in 0..n {
            out[i * n + i] += c64::ONE;
        }
    }
    for _ in 0..squarings {
        matmul_into(n, out, out, tmp);
        out.copy_from_slice(tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> Matrix {
        Matrix::from_rows(&[&[c64::ZERO, c64::ONE], &[c64::ONE, c64::ZERO]])
    }

    #[test]
    fn rotation_about_x_matches_closed_form() {
        // exp(−i θ/2 X) = cos(θ/2) I − i sin(θ/2) X
        let theta: f64 = 1.234;
        let u = expm_neg_i_h_t(&pauli_x(), theta / 2.0);
        let expected = {
            let mut m = Matrix::identity(2).scale(c64::real((theta / 2.0).cos()));
            m.add_scaled(&pauli_x(), c64::new(0.0, -(theta / 2.0).sin()));
            m
        };
        assert!(u.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn expm_step_2x2_matches_eig_path() {
        let h = Matrix::from_rows(&[
            &[c64::real(0.3), c64::new(0.1, -0.7)],
            &[c64::new(0.1, 0.7), c64::real(-1.1)],
        ]);
        let a = expm_neg_i_h_t(&h, 0.37);
        let b = expm_step(&h, 0.37);
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn expm_step_4x4_matches_eig_path() {
        let zz = {
            let z = Matrix::diag(&[c64::ONE, -c64::ONE]);
            z.kron(&z)
        };
        let zx = {
            let z = Matrix::diag(&[c64::ONE, -c64::ONE]);
            z.kron(&pauli_x())
        };
        let h = &zz + &zx.scale(c64::real(0.5));
        let a = expm_neg_i_h_t(&h, 0.81);
        let b = expm_step(&h, 0.81);
        assert!(a.approx_eq(&b, 1e-11));
        assert!(b.is_unitary(1e-11));
    }

    #[test]
    fn propagation_composes() {
        // exp(−iH(t1+t2)) = exp(−iHt2)·exp(−iHt1)
        let h = pauli_x();
        let u1 = expm_step(&h, 0.2);
        let u2 = expm_step(&h, 0.3);
        let u12 = expm_step(&h, 0.5);
        assert!(u2.matmul(&u1).approx_eq(&u12, 1e-12));
    }

    #[test]
    fn taylor_handles_larger_steps() {
        let h = pauli_x().kron(&pauli_x()).scale(c64::real(3.0));
        let a = expm_neg_i_h_t(&h, 2.0);
        let b = expm_step(&h, 2.0);
        assert!(a.approx_eq(&b, 1e-10));
    }

    #[test]
    fn zero_hamiltonian_gives_identity() {
        let u = expm_step(&Matrix::zeros(4, 4), 1.0);
        assert!(u.approx_eq(&Matrix::identity(4), 1e-15));
    }
}
