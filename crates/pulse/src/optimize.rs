//! Pulse optimization: Adam over Fourier coefficients, with the paper's two
//! ZZ-suppressing objectives.
//!
//! * **OptCtrl** (quantum optimal control): maximize the average gate
//!   fidelity of the *full* evolution against `target ⊗ I`, averaged over a
//!   range of crosstalk strengths, while constraining the control-only
//!   evolution to the target gate.
//! * **Pert** (the paper's proposal): cancel the *first-order* perturbative
//!   crosstalk term `U⁽¹⁾(T) = −i∫U†_ctrl·H_xtalk·U_ctrl dt` exactly, which
//!   suppresses ZZ independent of its strength.
//!
//! Gradients are numerical (central differences); the parameter counts are
//! tiny (10 for a single-qubit gate, 25 for `ZX90`).

use zz_linalg::Matrix;
use zz_quantum::fidelity::average_gate_fidelity;
use zz_quantum::pauli::Pauli;
use zz_quantum::{embed, gates};

use crate::envelope::{Envelope, FourierPulse};
use crate::systems::{
    evolve_1q_ctrl, evolve_1q_with_spectator, evolve_2q_ctrl, evolve_2q_region, QubitDrive,
    TwoQubitDrive,
};

/// Number of Fourier basis functions per control (the appendix uses 5).
pub const BASIS: usize = 5;

/// Adam optimizer configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    /// Iteration budget.
    pub iters: usize,
    /// Finite-difference step.
    pub fd_step: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 0.003,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-9,
            iters: 400,
            fd_step: 1e-6,
        }
    }
}

/// Minimizes `loss` starting from `x0`; returns the best parameters seen and
/// their loss.
pub fn minimize(loss: impl Fn(&[f64]) -> f64, x0: &[f64], config: &AdamConfig) -> (Vec<f64>, f64) {
    let n = x0.len();
    let mut x = x0.to_vec();
    let mut m = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut best_x = x.clone();
    let mut best_l = loss(&x);
    for t in 1..=config.iters {
        // Central-difference gradient.
        let mut g = vec![0.0; n];
        for i in 0..n {
            let mut xp = x.clone();
            xp[i] += config.fd_step;
            let mut xm = x.clone();
            xm[i] -= config.fd_step;
            g[i] = (loss(&xp) - loss(&xm)) / (2.0 * config.fd_step);
        }
        for i in 0..n {
            m[i] = config.beta1 * m[i] + (1.0 - config.beta1) * g[i];
            v[i] = config.beta2 * v[i] + (1.0 - config.beta2) * g[i] * g[i];
            let mh = m[i] / (1.0 - config.beta1.powi(t as i32));
            let vh = v[i] / (1.0 - config.beta2.powi(t as i32));
            x[i] -= config.lr * mh / (vh.sqrt() + config.eps);
        }
        let l = loss(&x);
        if l < best_l {
            best_l = l;
            best_x = x.clone();
        }
    }
    (best_x, best_l)
}

/// Splits a flat single-qubit parameter vector into `(Ωx, Ωy)` envelopes.
fn unpack_1q(params: &[f64], duration: f64) -> (FourierPulse, FourierPulse) {
    assert_eq!(params.len(), 2 * BASIS, "expected {} parameters", 2 * BASIS);
    (
        FourierPulse::new(params[..BASIS].to_vec(), duration),
        FourierPulse::new(params[BASIS..].to_vec(), duration),
    )
}

/// Splits a flat two-qubit parameter vector into
/// `(Ωx_a, Ωy_a, Ωx_b, Ωy_b, Ω_ab)` envelopes.
fn unpack_2q(
    params: &[f64],
    duration: f64,
) -> (
    FourierPulse,
    FourierPulse,
    FourierPulse,
    FourierPulse,
    FourierPulse,
) {
    assert_eq!(params.len(), 5 * BASIS, "expected {} parameters", 5 * BASIS);
    let f = |k: usize| FourierPulse::new(params[k * BASIS..(k + 1) * BASIS].to_vec(), duration);
    (f(0), f(1), f(2), f(3), f(4))
}

/// The Pert loss for a single-qubit gate: `‖∫U†_ctrl Z U_ctrl dt‖_F / T`
/// plus `weight · (1 − F̄(U_ctrl(T), target))`.
pub fn pert_1q_loss(params: &[f64], target: &Matrix, duration: f64, weight: f64) -> f64 {
    let (x, y) = unpack_1q(params, duration);
    let steps = (duration * crate::systems::STEPS_PER_NS) as usize;
    let mut h = crate::propagate::TimeDependentHamiltonian::new(Matrix::zeros(2, 2));
    h.add_control(Pauli::X.matrix(), |t| x.value(t));
    h.add_control(Pauli::Y.matrix(), |t| y.value(t));
    let (u, ints) = h.propagate_with_integrals(duration, steps, &[Pauli::Z.matrix()]);
    let first_order = ints[0].frobenius_norm() / duration;
    let gate_err = 1.0 - average_gate_fidelity(&u, target);
    first_order + weight * gate_err
}

/// The OptCtrl loss for a single-qubit gate: mean infidelity of the full
/// (qubit ⊗ spectator) evolution against `target ⊗ I` over the given
/// crosstalk strengths, plus the gate-implementation penalty.
pub fn optctrl_1q_loss(
    params: &[f64],
    target: &Matrix,
    duration: f64,
    weight: f64,
    lambdas: &[f64],
) -> f64 {
    let (x, y) = unpack_1q(params, duration);
    let drive = QubitDrive { x: &x, y: &y };
    let ideal = target.kron(&Matrix::identity(2));
    let mean_inf: f64 = lambdas
        .iter()
        .map(|&l| 1.0 - average_gate_fidelity(&evolve_1q_with_spectator(&drive, l), &ideal))
        .sum::<f64>()
        / lambdas.len() as f64;
    let u_ctrl = evolve_1q_ctrl(&drive);
    mean_inf + weight * (1.0 - average_gate_fidelity(&u_ctrl, target))
}

/// The Pert loss for `ZX90`: norms of the two first-order integrals
/// `∫U†(Z⊗I)U dt`, `∫U†(I⊗Z)U dt` (over the 4-dim control evolution) plus
/// the gate penalty.
pub fn pert_2q_loss(params: &[f64], duration: f64, weight: f64) -> f64 {
    let (xa, ya, xb, yb, cpl) = unpack_2q(params, duration);
    let steps = (duration * crate::systems::STEPS_PER_NS) as usize;
    let mut h = crate::propagate::TimeDependentHamiltonian::new(Matrix::zeros(4, 4));
    h.add_control(embed(&Pauli::X.matrix(), &[0], 2), |t| xa.value(t));
    h.add_control(embed(&Pauli::Y.matrix(), &[0], 2), |t| ya.value(t));
    h.add_control(embed(&Pauli::X.matrix(), &[1], 2), |t| xb.value(t));
    h.add_control(embed(&Pauli::Y.matrix(), &[1], 2), |t| yb.value(t));
    h.add_control(Pauli::Z.matrix().kron(&Pauli::X.matrix()), |t| cpl.value(t));
    let za = embed(&Pauli::Z.matrix(), &[0], 2);
    let zb = embed(&Pauli::Z.matrix(), &[1], 2);
    let (u, ints) = h.propagate_with_integrals(duration, steps, &[za, zb]);
    let first_order = (ints[0].frobenius_norm() + ints[1].frobenius_norm()) / duration;
    let gate_err = 1.0 - average_gate_fidelity(&u, &gates::zx90());
    first_order + weight * gate_err
}

/// The OptCtrl loss for `ZX90` on the 4-qubit chain: mean infidelity against
/// the dressed `I ⊗ Ũ₂ ⊗ I` over crosstalk strengths, plus the gate penalty.
pub fn optctrl_2q_loss(
    params: &[f64],
    duration: f64,
    weight: f64,
    lambdas: &[f64],
    lambda_intra: f64,
) -> f64 {
    let (xa, ya, xb, yb, cpl) = unpack_2q(params, duration);
    let drive = TwoQubitDrive {
        a: QubitDrive { x: &xa, y: &ya },
        b: QubitDrive { x: &xb, y: &yb },
        coupling: &cpl,
    };
    let dressed = evolve_2q_ctrl(&drive, lambda_intra);
    let ideal = embed(&dressed, &[1, 2], 4);
    let mean_inf: f64 = lambdas
        .iter()
        .map(|&l| {
            let actual = evolve_2q_region(&drive, l, l, lambda_intra);
            1.0 - average_gate_fidelity(&actual, &ideal)
        })
        .sum::<f64>()
        / lambdas.len() as f64;
    let u_ctrl = evolve_2q_ctrl(&drive, 0.0);
    mean_inf + weight * (1.0 - average_gate_fidelity(&u_ctrl, &gates::zx90()))
}

/// Amplitude/bandwidth penalty: `Σ_j j²·A_j²` over all controls. Keeps the
/// optimized waveforms within the amplitudes the paper calls "reasonable"
/// (≈ ±50 MHz, Fig 28) and slow enough for the DRAG correction to remain
/// effective on a real transmon (Fig 18).
pub fn amplitude_penalty(params: &[f64]) -> f64 {
    params
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let j = (i % BASIS + 1) as f64;
            j * j * a * a
        })
        .sum()
}

/// Initial guess for a single-qubit gate: put the whole rotation area on the
/// first cosine harmonic of `Ωx`.
pub fn initial_1q(theta: f64, duration: f64) -> Vec<f64> {
    let mut p = vec![0.0; 2 * BASIS];
    // Area of basis j is duration/2, so A₁ = θ / duration gives area θ/2.
    p[0] = theta / duration;
    // Small symmetric-breaking seeds on higher harmonics.
    p[1] = 0.3 * theta / duration;
    p[BASIS + 1] = 0.1 * theta / duration;
    p
}

/// Initial guess for `ZX90`: coupling drive carries the π/4 area; echo-like
/// seeds on the control qubit's X drive.
pub fn initial_2q(duration: f64) -> Vec<f64> {
    let mut p = vec![0.0; 5 * BASIS];
    let area = std::f64::consts::FRAC_PI_2; // θ/2 for θ = π/2
    p[4 * BASIS] = area / (duration / 2.0) / 2.0; // A₁ of the coupling drive... area θ/2 = A₁·T/2
    p[4 * BASIS] = std::f64::consts::FRAC_PI_4 / (duration / 2.0);
    p[1] = 2.0 * std::f64::consts::PI / duration; // a 2π echo swing on qubit a
    p[BASIS + 2] = 0.05;
    p[2 * BASIS + 1] = 0.05;
    p
}

/// Verifies that a parameter vector implements its target well enough to be
/// shipped in [`crate::library`]: control-evolution fidelity and first-order
/// suppression quality.
pub fn pulse_quality_1q(params: &[f64], target: &Matrix, duration: f64) -> (f64, f64) {
    let gate_err = {
        let (x, y) = unpack_1q(params, duration);
        let u = evolve_1q_ctrl(&QubitDrive { x: &x, y: &y });
        1.0 - average_gate_fidelity(&u, target)
    };
    let first_order = pert_1q_loss(params, target, duration, 0.0);
    (gate_err, first_order)
}

/// Quality of 2-qubit parameters: `(gate_error, first_order_norm)`.
pub fn pulse_quality_2q(params: &[f64], duration: f64) -> (f64, f64) {
    let gate_err = {
        let (xa, ya, xb, yb, cpl) = unpack_2q(params, duration);
        let drive = TwoQubitDrive {
            a: QubitDrive { x: &xa, y: &ya },
            b: QubitDrive { x: &xb, y: &yb },
            coupling: &cpl,
        };
        let u = evolve_2q_ctrl(&drive, 0.0);
        1.0 - average_gate_fidelity(&u, &gates::zx90())
    };
    let first_order = pert_2q_loss(params, duration, 0.0);
    (gate_err, first_order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_quadratic() {
        let loss = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let (x, l) = minimize(
            loss,
            &[0.0, 0.0],
            &AdamConfig {
                lr: 0.05,
                iters: 800,
                ..Default::default()
            },
        );
        assert!(l < 1e-4, "loss {l}");
        assert!((x[0] - 3.0).abs() < 0.02);
        assert!((x[1] + 1.0).abs() < 0.02);
    }

    #[test]
    fn initial_1q_roughly_implements_gate() {
        let p = initial_1q(std::f64::consts::FRAC_PI_2, 20.0);
        let (gate_err, _) = pulse_quality_1q(&p, &gates::x90(), 20.0);
        // The seed is not exact (higher harmonics perturb) but near.
        assert!(gate_err < 0.2, "seed too far from X90: {gate_err}");
    }

    #[test]
    fn pert_loss_detects_uncompensated_z() {
        // A plain X90 seed leaves a large first-order Z integral.
        let p = initial_1q(std::f64::consts::FRAC_PI_2, 20.0);
        let (_, first_order) = pulse_quality_1q(&p, &gates::x90(), 20.0);
        assert!(first_order > 0.3, "unoptimized pulse has O(1) Z integral");
    }

    #[test]
    fn short_pert_optimization_improves_both_terms() {
        // A short run must already reduce the loss; full-quality runs live
        // in the calibrate binary.
        let target = gates::x90();
        let p0 = initial_1q(std::f64::consts::FRAC_PI_2, 20.0);
        let loss = |p: &[f64]| pert_1q_loss(p, &target, 20.0, 20.0);
        let before = loss(&p0);
        let (p1, after) = minimize(
            loss,
            &p0,
            &AdamConfig {
                lr: 0.01,
                iters: 60,
                ..Default::default()
            },
        );
        assert!(
            after < before,
            "optimization must improve: {after} !< {before}"
        );
        assert_eq!(p1.len(), 2 * BASIS);
    }
}
