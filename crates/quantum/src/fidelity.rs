//! Fidelity measures between gates and states.

use zz_linalg::{Matrix, Vector};

/// Average gate fidelity between two unitaries (Nielsen's formula):
///
/// `F̄(U, V) = (|Tr(U†V)|² + d) / (d² + d)`
///
/// where `d` is the Hilbert-space dimension. This is the similarity measure
/// `F` used by the paper's OptCtrl objective (Sec 7.1.1).
///
/// # Panics
///
/// Panics if the matrices are not square with equal dimensions.
///
/// # Example
///
/// ```
/// use zz_quantum::{gates, fidelity::average_gate_fidelity};
///
/// let f = average_gate_fidelity(&gates::x(), &gates::z());
/// // X and Z are orthogonal under the trace inner product: F = d/(d²+d) = 1/3.
/// assert!((f - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn average_gate_fidelity(u: &Matrix, v: &Matrix) -> f64 {
    assert!(
        u.is_square() && v.is_square(),
        "fidelity requires square matrices"
    );
    assert_eq!(u.rows(), v.rows(), "fidelity dimension mismatch");
    let d = u.rows() as f64;
    let overlap = u.dagger().matmul(v).trace().abs_sq();
    (overlap + d) / (d * d + d)
}

/// Average gate *infidelity* `1 − F̄(U, V)`; the quantity plotted by the
/// paper's Figures 16–19.
pub fn average_gate_infidelity(u: &Matrix, v: &Matrix) -> f64 {
    1.0 - average_gate_fidelity(u, v)
}

/// Process (entanglement) fidelity `|Tr(U†V)|² / d²`, the oracle
/// [`average_gate_fidelity`] is checked against.
#[cfg(test)]
fn process_fidelity(u: &Matrix, v: &Matrix) -> f64 {
    assert!(
        u.is_square() && v.is_square(),
        "fidelity requires square matrices"
    );
    assert_eq!(u.rows(), v.rows(), "fidelity dimension mismatch");
    let d = u.rows() as f64;
    u.dagger().matmul(v).trace().abs_sq() / (d * d)
}

/// Fidelity `⟨ψ|ρ|ψ⟩` of a density matrix against a pure target state.
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn state_fidelity_dm(rho: &Matrix, psi: &Vector) -> f64 {
    assert_eq!(rho.rows(), psi.len(), "density-matrix dimension mismatch");
    let rho_psi = rho.mul_vec(psi);
    psi.dot(&rho_psi).re
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use zz_linalg::c64;

    #[test]
    fn identical_gates_have_unit_fidelity() {
        let u = gates::u3(0.3, -0.7, 1.9);
        assert!((average_gate_fidelity(&u, &u) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn global_phase_is_ignored() {
        let u = gates::h();
        let v = u.scale(c64::cis(0.42));
        assert!((average_gate_fidelity(&u, &v) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn infidelity_is_complement() {
        let u = gates::x();
        let v = gates::rx(3.0);
        let f = average_gate_fidelity(&u, &v);
        assert!((average_gate_infidelity(&u, &v) - (1.0 - f)).abs() < 1e-15);
    }

    #[test]
    fn process_vs_average_fidelity_relation() {
        // F̄ = (d·Fp + 1)/(d + 1)
        let u = gates::cnot();
        let v = gates::cz();
        let d = 4.0;
        let fp = process_fidelity(&u, &v);
        let fa = average_gate_fidelity(&u, &v);
        assert!((fa - (d * fp + 1.0) / (d + 1.0)).abs() < 1e-13);
    }

    #[test]
    fn dm_fidelity_of_pure_state_matches_vector_fidelity() {
        let psi = Vector::from_vec(vec![c64::real(0.6), c64::new(0.0, 0.8)]);
        let phi = Vector::basis(2, 0);
        // ρ = |ψ⟩⟨ψ|
        let mut rho = Matrix::zeros(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                rho[(i, j)] = psi[i] * psi[j].conj();
            }
        }
        let f1 = phi.fidelity(&psi);
        let f2 = state_fidelity_dm(&rho, &phi);
        assert!((f1 - f2).abs() < 1e-14);
    }

    #[test]
    fn fidelity_is_symmetric() {
        let u = gates::rx(0.9);
        let v = gates::ry(1.4);
        assert!((average_gate_fidelity(&u, &v) - average_gate_fidelity(&v, &u)).abs() < 1e-14);
    }
}
