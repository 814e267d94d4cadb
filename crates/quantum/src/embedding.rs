//! Lifting k-qubit operators into an n-qubit register.

use zz_linalg::{c64, Matrix};

/// Embeds a k-qubit operator into an n-qubit register.
///
/// `targets[i]` is the register qubit that the operator's i-th tensor factor
/// acts on (workspace convention: factor 0 / qubit 0 is the most significant
/// bit). All other qubits receive the identity.
///
/// The result is a dense `2^n × 2^n` matrix, so this is intended for small
/// registers (the statevector simulator applies gates without ever forming
/// the full matrix).
///
/// # Panics
///
/// Panics if `op` is not `2^k × 2^k` for `k = targets.len()`, if any target
/// index is `≥ n`, or if targets repeat.
///
/// # Example
///
/// ```
/// use zz_quantum::{embed, gates};
///
/// // CNOT with control 2 and target 0 in a 3-qubit register.
/// let full = embed(&gates::cnot(), &[2, 0], 3);
/// assert!(full.is_unitary(1e-12));
/// ```
pub fn embed(op: &Matrix, targets: &[usize], n: usize) -> Matrix {
    let k = targets.len();
    assert_eq!(op.rows(), 1 << k, "operator dimension must be 2^k");
    assert!(op.is_square(), "operator must be square");
    assert!(n >= k, "register must have at least k qubits");
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < n, "target {t} out of range for {n} qubits");
        assert!(
            !targets[..i].contains(&t),
            "duplicate target qubit {t} in embedding"
        );
    }

    let dim = 1usize << n;
    let mut out = Matrix::zeros(dim, dim);

    // Bit position (from LSB) of register qubit q.
    let bit = |q: usize| n - 1 - q;

    // Enumerate the 2^(n-k) assignments of the non-target qubits by
    // iterating full indices whose target bits are all zero.
    let target_mask: usize = targets.iter().map(|&t| 1usize << bit(t)).sum();
    for base in 0..dim {
        if base & target_mask != 0 {
            continue;
        }
        for r in 0..(1usize << k) {
            // Spread the operator row-index bits onto the register.
            let mut row = base;
            for (i, &t) in targets.iter().enumerate() {
                if (r >> (k - 1 - i)) & 1 == 1 {
                    row |= 1 << bit(t);
                }
            }
            for c in 0..(1usize << k) {
                let v = op[(r, c)];
                if v == c64::ZERO {
                    continue;
                }
                let mut col = base;
                for (i, &t) in targets.iter().enumerate() {
                    if (c >> (k - 1 - i)) & 1 == 1 {
                        col |= 1 << bit(t);
                    }
                }
                out[(row, col)] = v;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::pauli::PauliString;

    #[test]
    fn embedding_on_leading_qubits_is_kron() {
        let op = gates::h();
        let full = embed(&op, &[0], 2);
        let expected = op.kron(&Matrix::identity(2));
        assert!(full.approx_eq(&expected, 1e-15));
    }

    #[test]
    fn embedding_on_trailing_qubit_is_kron_right() {
        let op = gates::h();
        let full = embed(&op, &[1], 2);
        let expected = Matrix::identity(2).kron(&op);
        assert!(full.approx_eq(&expected, 1e-15));
    }

    #[test]
    fn two_qubit_embedding_matches_pauli_string() {
        let zz = gates::rzz(0.8);
        let full = embed(&zz, &[0, 2], 3);
        let direct = zz_linalg::expm::expm_neg_i_h_t(&PauliString::zz(3, 0, 2).matrix(), 0.4);
        assert!(full.approx_eq(&direct, 1e-12));
    }

    #[test]
    fn reversed_targets_swap_roles() {
        // CNOT embedded as [1, 0] means qubit 1 is the control.
        let full = embed(&gates::cnot(), &[1, 0], 2);
        let expected = gates::swap().matmul(&gates::cnot()).matmul(&gates::swap());
        assert!(full.approx_eq(&expected, 1e-15));
    }

    #[test]
    fn embedding_preserves_unitarity() {
        let full = embed(&gates::zx90(), &[2, 1], 4);
        assert!(full.is_unitary(1e-12));
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn rejects_duplicate_targets() {
        let _ = embed(&gates::cnot(), &[1, 1], 3);
    }
}
