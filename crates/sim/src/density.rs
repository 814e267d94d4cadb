//! A density-matrix simulator with exact Kraus noise channels.
//!
//! Usable up to [`EXACT_MAX_QUBITS`] qubits (the matrix has `4^n`
//! entries); serves as the exact reference against which the trajectory
//! unraveling in [`crate::executor`] is validated, and runs the
//! decoherence experiments on small registers.

use zz_linalg::{c64, Matrix, Vector};
use zz_quantum::embed;

/// Largest register the exact density-matrix path simulates — **the**
/// exact/Monte-Carlo cutoff of the workspace. `run_density` rejects larger
/// registers, and `zz_core::evaluate` routes registers of up to this many
/// qubits to the exact path and larger ones to trajectory sampling.
///
/// 8 qubits means a `256 × 256` density matrix (65 536 complex entries),
/// which the dense [`Matrix`] arithmetic below still handles in well under
/// a second per layer.
pub const EXACT_MAX_QUBITS: usize = 8;

/// An n-qubit density matrix.
#[derive(Clone, Debug)]
pub struct DensityMatrix {
    n: usize,
    rho: Matrix,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    pub fn zero(n: usize) -> Self {
        let dim = 1usize << n;
        let mut rho = Matrix::zeros(dim, dim);
        rho[(0, 0)] = c64::ONE;
        DensityMatrix { n, rho }
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.n
    }

    /// The raw matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.rho
    }

    /// Trace (should stay 1 under trace-preserving channels).
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// Applies a unitary on the given qubits: `ρ ← UρU†`.
    ///
    /// # Panics
    ///
    /// Panics on dimension/indices mismatch (see [`embed`]).
    pub fn apply_unitary(&mut self, u: &Matrix, qubits: &[usize]) {
        let full = embed(u, qubits, self.n);
        self.rho = full.matmul(&self.rho).matmul(&full.dagger());
    }

    /// Applies a single-qubit Kraus channel `ρ ← Σ KᵢρKᵢ†` on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if any Kraus operator is not 2×2 or `q` is out of range.
    pub fn apply_kraus(&mut self, kraus: &[Matrix], q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let dim = self.rho.rows();
        let mut out = Matrix::zeros(dim, dim);
        for k in kraus {
            assert_eq!(k.rows(), 2, "single-qubit Kraus operators expected");
            let full = embed(k, &[q], self.n);
            let term = full.matmul(&self.rho).matmul(&full.dagger());
            out.add_scaled(&term, c64::ONE);
        }
        self.rho = out;
    }

    /// Fidelity `⟨ψ|ρ|ψ⟩` against a pure target.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn fidelity_to_pure(&self, psi: &Vector) -> f64 {
        zz_quantum::fidelity::state_fidelity_dm(&self.rho, psi)
    }
}

/// Kraus operators of the amplitude-damping channel with decay probability
/// `gamma = 1 − e^{−t/T1}`.
pub fn amplitude_damping(gamma: f64) -> Vec<Matrix> {
    assert!((0.0..=1.0).contains(&gamma), "gamma must be a probability");
    let k0 = Matrix::from_rows(&[
        &[c64::ONE, c64::ZERO],
        &[c64::ZERO, c64::real((1.0 - gamma).sqrt())],
    ]);
    let k1 = Matrix::from_rows(&[
        &[c64::ZERO, c64::real(gamma.sqrt())],
        &[c64::ZERO, c64::ZERO],
    ]);
    vec![k0, k1]
}

/// Kraus operators of the phase-damping (pure dephasing) channel that
/// shrinks coherences by `e^{−t/Tφ}`; `p` is the equivalent phase-flip
/// probability `p = (1 − e^{−t/Tφ})/2`.
pub fn dephasing(p: f64) -> Vec<Matrix> {
    assert!(
        (0.0..=0.5).contains(&p),
        "dephasing probability must be in [0, 1/2]"
    );
    let k0 = Matrix::identity(2).scale(c64::real((1.0 - p).sqrt()));
    let k1 = zz_quantum::pauli::Pauli::Z
        .matrix()
        .scale(c64::real(p.sqrt()));
    vec![k0, k1]
}

/// Decoherence times (ns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Decoherence {
    /// Relaxation time `T1` (ns).
    pub t1: f64,
    /// Total dephasing time `T2` (ns); must satisfy `T2 ≤ 2·T1`.
    pub t2: f64,
}

impl Decoherence {
    /// Creates a decoherence model.
    ///
    /// # Panics
    ///
    /// Panics when [`check`](Self::check) rejects the times.
    pub fn new(t1: f64, t2: f64) -> Self {
        let deco = Decoherence { t1, t2 };
        if let Err(reason) = deco.check() {
            panic!("{reason}");
        }
        deco
    }

    /// Checks that the times describe a physical channel: `0 < T2 ≤ 2·T1`.
    /// Infinite times (no decoherence) are valid; NaN never is.
    ///
    /// # Errors
    ///
    /// Names the offending field and its value.
    pub fn check(&self) -> Result<(), String> {
        if self.t1.is_nan() || self.t1 <= 0.0 {
            return Err(format!("decoherence t1 must be positive, got {}", self.t1));
        }
        if self.t2.is_nan() || self.t2 <= 0.0 {
            return Err(format!("decoherence t2 must be positive, got {}", self.t2));
        }
        if self.t2 > 2.0 * self.t1 + 1e-9 {
            return Err(format!(
                "decoherence t2 = {} cannot exceed 2·t1 = {}",
                self.t2,
                2.0 * self.t1
            ));
        }
        Ok(())
    }

    /// Equal times (the paper's Figure 23 sweeps `T1 = T2`), given in µs.
    pub fn equal_us(t: f64) -> Self {
        Decoherence::new(t * 1000.0, t * 1000.0)
    }

    /// Amplitude-damping probability over `dt` ns, clamped to `[0, 1]`.
    pub fn gamma(&self, dt: f64) -> f64 {
        (1.0 - (-dt / self.t1).exp()).clamp(0.0, 1.0)
    }

    /// Pure-dephasing phase-flip probability over `dt` ns
    /// (from `1/Tφ = 1/T2 − 1/(2T1)`), clamped to `[0, 1/2]`.
    ///
    /// The clamp matters: [`Decoherence::new`] accepts `T2` up to
    /// `2·T1 + 1e-9`, and inside that tolerance the dephasing rate goes
    /// slightly negative — an unclamped probability would be below zero
    /// and [`dephasing`] would panic mid-simulation.
    pub fn phase_flip(&self, dt: f64) -> f64 {
        let rate = 1.0 / self.t2 - 1.0 / (2.0 * self.t1);
        ((1.0 - (-dt * rate).exp()) / 2.0).clamp(0.0, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateVector;
    use zz_quantum::gates;

    #[test]
    fn channels_are_trace_preserving() {
        for kraus in [amplitude_damping(0.3), dephasing(0.2)] {
            let mut sum = Matrix::zeros(2, 2);
            for k in &kraus {
                sum.add_scaled(&k.dagger().matmul(k), c64::ONE);
            }
            assert!(sum.approx_eq(&Matrix::identity(2), 1e-12));
        }
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let mut dm = DensityMatrix::zero(1);
        dm.apply_unitary(&gates::x(), &[0]);
        dm.apply_kraus(&amplitude_damping(0.25), 0);
        assert!((dm.matrix()[(1, 1)].re - 0.75).abs() < 1e-12);
        assert!((dm.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dephasing_kills_coherence_not_population() {
        let mut dm = DensityMatrix::zero(1);
        dm.apply_unitary(&gates::h(), &[0]);
        let before = dm.matrix()[(0, 1)].re;
        dm.apply_kraus(&dephasing(0.5), 0);
        assert!(
            dm.matrix()[(0, 1)].abs() < 1e-12,
            "full dephasing kills coherence"
        );
        assert!((dm.matrix()[(0, 0)].re - 0.5).abs() < 1e-12);
        assert!(before > 0.4);
    }

    #[test]
    fn unitary_preserves_purity() {
        let mut dm = DensityMatrix::zero(2);
        dm.apply_unitary(&gates::h(), &[0]);
        dm.apply_unitary(&gates::cnot(), &[0, 1]);
        // Fidelity 1 to a pure state: ρ is that pure state.
        let bell = {
            let mut sv = StateVector::zero(2);
            sv.apply_single(&gates::h(), 0);
            sv.apply_two(&gates::cnot(), 0, 1);
            sv
        };
        assert!((dm.fidelity_to_pure(&bell.to_vector()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decoherence_probabilities() {
        let d = Decoherence::equal_us(100.0);
        assert!((d.gamma(100_000.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        // T1 = T2 ⇒ Tφ = 2·T1.
        let p = d.phase_flip(100_000.0);
        assert!((p - (1.0 - (-0.5f64).exp()) / 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot exceed 2·t1")]
    fn rejects_unphysical_t2() {
        let _ = Decoherence::new(100.0, 300.0);
    }

    #[test]
    fn check_names_the_bad_field_and_accepts_infinite_times() {
        let none = Decoherence {
            t1: f64::INFINITY,
            t2: f64::INFINITY,
        };
        assert_eq!(none.check(), Ok(()));
        for (t1, t2, field) in [
            (0.0, 1.0, "t1"),
            (f64::NAN, 1.0, "t1"),
            (1.0, f64::NAN, "t2"),
            (1.0, -1.0, "t2"),
        ] {
            let reason = Decoherence { t1, t2 }.check().expect_err("rejected");
            assert!(reason.contains(field), "{reason}");
        }
    }

    #[test]
    fn phase_flip_is_clamped_inside_the_t2_tolerance() {
        // T2 marginally above 2·T1 passes `new`'s 1e-9 tolerance but makes
        // the raw dephasing rate negative; the probability must clamp to 0
        // so `dephasing(p)` stays constructible mid-simulation.
        let d = Decoherence::new(100.0, 200.0 + 1e-10);
        for dt in [1.0, 20.0, 1e6] {
            let p = d.phase_flip(dt);
            assert!((0.0..=0.5).contains(&p), "dt={dt}: p={p}");
            let _ = dephasing(p); // must not panic
            let g = d.gamma(dt);
            assert!((0.0..=1.0).contains(&g), "dt={dt}: gamma={g}");
            let _ = amplitude_damping(g);
        }
        assert_eq!(d.phase_flip(20.0), 0.0);
    }
}
