//! Multi-level (Duffing) transmon operators for leakage studies.
//!
//! Superconducting qubits are weakly anharmonic oscillators; truncating them
//! to two levels hides *leakage* into `|2⟩` and above. The paper's Figure 18
//! evaluates ZZ-suppressing pulses on a five-level transmon with typical
//! anharmonicities (−200 … −400 MHz) and the DRAG correction. This module
//! provides the operators for that model, in the frame rotating at the qubit
//! frequency:
//!
//! `H = (α/2)·n(n−1) + Ωx(t)·(a + a†) + Ωy(t)·i(a† − a) + λ Z̃⊗σz`
//!
//! where `Z̃ = 1 − 2n = diag(1, −1, −3, …)` generalizes σz linearly in the
//! excitation number (a dispersive-ladder model of the crosstalk shift; the
//! computational block reproduces the two-level `σz⊗σz` exactly).

use zz_linalg::{c64, Matrix};

/// Annihilation operator `a` on a `d`-level system.
///
/// ```
/// use zz_quantum::transmon::annihilation;
/// let a = annihilation(3);
/// assert!((a[(0, 1)].re - 1.0).abs() < 1e-15);
/// assert!((a[(1, 2)].re - 2f64.sqrt()).abs() < 1e-15);
/// ```
pub fn annihilation(d: usize) -> Matrix {
    let mut m = Matrix::zeros(d, d);
    for n in 1..d {
        m[(n - 1, n)] = c64::real((n as f64).sqrt());
    }
    m
}

/// Number operator `n = a†a`.
pub fn number(d: usize) -> Matrix {
    Matrix::diag(&(0..d).map(|n| c64::real(n as f64)).collect::<Vec<_>>())
}

/// Duffing anharmonicity term `(α/2)·n(n−1)` (diagonal, rad/ns when `alpha`
/// is in rad/ns).
pub fn anharmonicity_term(d: usize, alpha: f64) -> Matrix {
    Matrix::diag(
        &(0..d)
            .map(|n| c64::real(alpha / 2.0 * (n as f64) * (n as f64 - 1.0)))
            .collect::<Vec<_>>(),
    )
}

/// In-phase drive operator `a + a†` (reduces to σx on two levels).
pub fn drive_x(d: usize) -> Matrix {
    let a = annihilation(d);
    &a + &a.dagger()
}

/// Quadrature drive operator `i(a† − a)` (reduces to σy on two levels).
pub fn drive_y(d: usize) -> Matrix {
    let a = annihilation(d);
    (&a.dagger() - &a).scale(c64::I)
}

/// Generalized Pauli-Z ladder `Z̃ = 1 − 2n = diag(1, −1, −3, …)`.
pub fn z_ladder(d: usize) -> Matrix {
    Matrix::diag(
        &(0..d)
            .map(|n| c64::real(1.0 - 2.0 * n as f64))
            .collect::<Vec<_>>(),
    )
}

/// Extracts the computational block of an operator on a tensor product of
/// qudits: rows/columns where every subsystem is in level 0 or 1.
///
/// `dims[i]` is the dimension of subsystem `i` (subsystem 0 is the leftmost
/// tensor factor). The result is `2^k × 2^k` with the workspace bit order.
///
/// # Panics
///
/// Panics if `m`'s dimension does not equal the product of `dims`, or if any
/// subsystem has dimension < 2.
///
/// # Example
///
/// ```
/// use zz_quantum::transmon::{computational_block, z_ladder};
/// use zz_quantum::pauli::Pauli;
///
/// // The 5-level Z̃ restricted to levels {0,1} is exactly σz.
/// let block = computational_block(&z_ladder(5), &[5]);
/// assert!(block.approx_eq(&Pauli::Z.matrix(), 1e-15));
/// ```
pub fn computational_block(m: &Matrix, dims: &[usize]) -> Matrix {
    let total: usize = dims.iter().product();
    assert_eq!(
        m.rows(),
        total,
        "matrix dimension must match product of dims"
    );
    assert!(m.is_square(), "matrix must be square");
    assert!(
        dims.iter().all(|&d| d >= 2),
        "every subsystem needs ≥ 2 levels"
    );

    let k = dims.len();
    // Map a computational index (k bits, subsystem 0 most significant) to the
    // full product-space index.
    let to_full = |comp: usize| -> usize {
        let mut full = 0usize;
        for (i, &d) in dims.iter().enumerate() {
            let bit = (comp >> (k - 1 - i)) & 1;
            full = full * d + bit;
        }
        full
    };

    let dim = 1usize << k;
    Matrix::from_fn(dim, dim, |r, c| m[(to_full(r), to_full(c))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pauli::Pauli;

    #[test]
    fn commutator_of_a_and_adagger() {
        // [a, a†] = 1 on the truncated space except the top level.
        let d = 5;
        let a = annihilation(d);
        let comm = &a.matmul(&a.dagger()) - &a.dagger().matmul(&a);
        for n in 0..d - 1 {
            assert!((comm[(n, n)].re - 1.0).abs() < 1e-14);
        }
        assert!((comm[(d - 1, d - 1)].re - (1.0 - d as f64)).abs() < 1e-12);
    }

    #[test]
    fn number_operator_from_ladder() {
        let d = 4;
        let a = annihilation(d);
        assert!(a.dagger().matmul(&a).approx_eq(&number(d), 1e-14));
    }

    #[test]
    fn two_level_truncation_recovers_paulis() {
        assert!(computational_block(&drive_x(5), &[5]).approx_eq(&Pauli::X.matrix(), 1e-15));
        assert!(computational_block(&drive_y(5), &[5]).approx_eq(&Pauli::Y.matrix(), 1e-15));
        assert!(computational_block(&z_ladder(5), &[5]).approx_eq(&Pauli::Z.matrix(), 1e-15));
    }

    #[test]
    fn anharmonicity_vanishes_on_computational_block() {
        let h = anharmonicity_term(5, -1.0);
        let block = computational_block(&h, &[5]);
        assert!(block.approx_eq(&Matrix::zeros(2, 2), 1e-15));
    }

    #[test]
    fn computational_block_of_product_operator() {
        // (Z̃ ⊗ σz) restricted = σz ⊗ σz.
        let full = z_ladder(5).kron(&Pauli::Z.matrix());
        let block = computational_block(&full, &[5, 2]);
        let zz = Pauli::Z.matrix().kron(&Pauli::Z.matrix());
        assert!(block.approx_eq(&zz, 1e-15));
    }
}
