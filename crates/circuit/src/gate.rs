//! Logical gates.

use std::fmt;

use zz_linalg::Matrix;
use zz_quantum::gates;

/// A logical (pre-compilation) quantum gate.
///
/// Angles are in radians. Two-qubit gates take their qubits in the order
/// given to [`crate::Circuit::push`]; for [`Gate::Cnot`] the first qubit is
/// the control.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate `S`.
    S,
    /// Inverse phase gate `S†`.
    Sdg,
    /// T gate.
    T,
    /// Inverse T gate.
    Tdg,
    /// X rotation.
    Rx(f64),
    /// Y rotation.
    Ry(f64),
    /// Z rotation.
    Rz(f64),
    /// Diagonal phase `diag(1, e^{iθ})`.
    Phase(f64),
    /// General single-qubit gate (OpenQASM `u3` convention).
    U3(f64, f64, f64),
    /// Controlled-NOT (control first).
    Cnot,
    /// Controlled-Z (symmetric).
    Cz,
    /// Controlled phase (symmetric).
    CPhase(f64),
    /// ZZ rotation `exp(−i θ/2 Z⊗Z)` (symmetric).
    Rzz(f64),
    /// SWAP.
    Swap,
    /// `√X` (Google random-circuit gate).
    SqrtX,
    /// `√Y` (Google random-circuit gate).
    SqrtY,
    /// `√W` where `W = (X+Y)/√2` (Google random-circuit gate).
    SqrtW,
}

impl Gate {
    /// Number of qubits this gate acts on (1 or 2).
    pub fn arity(self) -> usize {
        match self {
            Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::Phase(_)
            | Gate::U3(..)
            | Gate::SqrtX
            | Gate::SqrtY
            | Gate::SqrtW => 1,
            Gate::Cnot | Gate::Cz | Gate::CPhase(_) | Gate::Rzz(_) | Gate::Swap => 2,
        }
    }

    /// The gate's unitary matrix (`2×2` or `4×4`).
    pub fn matrix(self) -> Matrix {
        match self {
            Gate::H => gates::h(),
            Gate::X => gates::x(),
            Gate::Y => gates::y(),
            Gate::Z => gates::z(),
            Gate::S => gates::s(),
            Gate::Sdg => gates::sdg(),
            Gate::T => gates::t(),
            Gate::Tdg => gates::tdg(),
            Gate::Rx(t) => gates::rx(t),
            Gate::Ry(t) => gates::ry(t),
            Gate::Rz(t) => gates::rz(t),
            Gate::Phase(t) => gates::phase(t),
            Gate::U3(t, p, l) => gates::u3(t, p, l),
            Gate::Cnot => gates::cnot(),
            Gate::Cz => gates::cz(),
            Gate::CPhase(t) => gates::cphase(t),
            Gate::Rzz(t) => gates::rzz(t),
            Gate::Swap => gates::swap(),
            Gate::SqrtX => gates::sqrt_x(),
            Gate::SqrtY => gates::sqrt_y(),
            Gate::SqrtW => gates::sqrt_w(),
        }
    }

    /// Whether every rotation angle the gate carries is finite (true for
    /// gates with no angle): a NaN or infinite angle has no unitary.
    pub fn angles_are_finite(self) -> bool {
        let (_, angles, count) = self.digest_parts();
        angles[..count].iter().all(|a| a.is_finite())
    }

    /// Decomposes the gate into a variant tag plus its angle parameters
    /// (padded; only the first `count` entries are meaningful), for
    /// structural hashing ([`crate::Circuit::content_digest`]) without
    /// heap allocation.
    pub(crate) fn digest_parts(self) -> (u64, [f64; 3], usize) {
        match self {
            Gate::H => (0, [0.0; 3], 0),
            Gate::X => (1, [0.0; 3], 0),
            Gate::Y => (2, [0.0; 3], 0),
            Gate::Z => (3, [0.0; 3], 0),
            Gate::S => (4, [0.0; 3], 0),
            Gate::Sdg => (5, [0.0; 3], 0),
            Gate::T => (6, [0.0; 3], 0),
            Gate::Tdg => (7, [0.0; 3], 0),
            Gate::Rx(t) => (8, [t, 0.0, 0.0], 1),
            Gate::Ry(t) => (9, [t, 0.0, 0.0], 1),
            Gate::Rz(t) => (10, [t, 0.0, 0.0], 1),
            Gate::Phase(t) => (11, [t, 0.0, 0.0], 1),
            Gate::U3(t, p, l) => (12, [t, p, l], 3),
            Gate::Cnot => (13, [0.0; 3], 0),
            Gate::Cz => (14, [0.0; 3], 0),
            Gate::CPhase(t) => (15, [t, 0.0, 0.0], 1),
            Gate::Rzz(t) => (16, [t, 0.0, 0.0], 1),
            Gate::Swap => (17, [0.0; 3], 0),
            Gate::SqrtX => (18, [0.0; 3], 0),
            Gate::SqrtY => (19, [0.0; 3], 0),
            Gate::SqrtW => (20, [0.0; 3], 0),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Rx(t) => write!(f, "Rx({t:.4})"),
            Gate::Ry(t) => write!(f, "Ry({t:.4})"),
            Gate::Rz(t) => write!(f, "Rz({t:.4})"),
            Gate::Phase(t) => write!(f, "P({t:.4})"),
            Gate::U3(t, p, l) => write!(f, "U3({t:.4},{p:.4},{l:.4})"),
            Gate::CPhase(t) => write!(f, "CP({t:.4})"),
            Gate::Rzz(t) => write!(f, "Rzz({t:.4})"),
            other => write!(f, "{other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_matrix_dimension() {
        for g in [
            Gate::H,
            Gate::Rz(0.3),
            Gate::U3(1.0, 0.2, -0.4),
            Gate::Cnot,
            Gate::Rzz(0.7),
            Gate::SqrtW,
        ] {
            assert_eq!(g.matrix().rows(), 1 << g.arity());
        }
    }

    #[test]
    fn all_gate_matrices_are_unitary() {
        for g in [
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.5),
            Gate::Ry(-1.2),
            Gate::Rz(2.2),
            Gate::Phase(0.8),
            Gate::U3(0.1, 0.2, 0.3),
            Gate::Cnot,
            Gate::Cz,
            Gate::CPhase(1.5),
            Gate::Rzz(-0.9),
            Gate::Swap,
            Gate::SqrtX,
            Gate::SqrtY,
            Gate::SqrtW,
        ] {
            assert!(g.matrix().is_unitary(1e-12), "{g} not unitary");
        }
    }
}
