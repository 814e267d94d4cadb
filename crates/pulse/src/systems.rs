//! The basic-region systems of Section 4, as ready-to-propagate
//! Hamiltonians, plus the infidelity measures of Figures 16–19.
//!
//! Qubit ordering (most-significant first, workspace convention):
//!
//! * single-qubit region: `[driven qubit, spectator]` (4-dim),
//! * two-qubit region: `[spectator 1, a, b, spectator 4]` (16-dim) — the
//!   paper's chain `➀–➋–➌–➃`,
//! * transmon region: `[5-level transmon, spectator]` (10-dim).

use zz_linalg::Matrix;
use zz_quantum::fidelity::average_gate_infidelity;
use zz_quantum::pauli::{Pauli, PauliString};
use zz_quantum::{embed, gates, transmon};

use crate::envelope::Envelope;
use crate::propagate::TimeDependentHamiltonian;

/// Time resolution of all pulse-level propagation (steps per ns).
pub const STEPS_PER_NS: f64 = 10.0;

fn steps_for(duration: f64) -> usize {
    (duration * STEPS_PER_NS).round().max(10.0) as usize
}

/// Drive envelopes for one qubit: the two quadratures `Ωx(t)`, `Ωy(t)`.
pub struct QubitDrive<'a> {
    /// In-phase envelope.
    pub x: &'a dyn Envelope,
    /// Quadrature envelope.
    pub y: &'a dyn Envelope,
}

impl<'a> QubitDrive<'a> {
    /// Pulse duration (the longer of the two quadratures).
    pub fn duration(&self) -> f64 {
        self.x.duration().max(self.y.duration())
    }
}

/// Control-only evolution `U_ctrl(T)` of a driven qubit (2-dim).
pub fn evolve_1q_ctrl(drive: &QubitDrive<'_>) -> Matrix {
    let duration = drive.duration();
    let mut h = TimeDependentHamiltonian::new(Matrix::zeros(2, 2));
    h.add_control(Pauli::X.matrix(), |t| drive.x.value(t));
    h.add_control(Pauli::Y.matrix(), |t| drive.y.value(t));
    h.propagate(duration, steps_for(duration))
}

/// A driven qubit with one spectator under crosstalk `λ Z⊗Z` (4-dim,
/// the driven qubit first): the Hamiltonian of
/// [`evolve_1q_with_spectator`] and [`residual_zz_rate`].
fn spectator_1q<'a>(drive: &'a QubitDrive<'_>, lambda: f64) -> TimeDependentHamiltonian<'a> {
    let zz = PauliString::zz(2, 0, 1).matrix();
    let mut h = TimeDependentHamiltonian::new(zz.scale(zz_linalg::c64::real(lambda)));
    h.add_control(embed(&Pauli::X.matrix(), &[0], 2), |t| drive.x.value(t));
    h.add_control(embed(&Pauli::Y.matrix(), &[0], 2), |t| drive.y.value(t));
    h
}

/// Full evolution of a driven qubit with one spectator under crosstalk
/// `λ Z⊗Z` (4-dim).
pub fn evolve_1q_with_spectator(drive: &QubitDrive<'_>, lambda: f64) -> Matrix {
    let duration = drive.duration();
    spectator_1q(drive, lambda).propagate(duration, steps_for(duration))
}

/// Figure 16 measure: infidelity between the actual 4-dim evolution and the
/// ideal `target ⊗ I` for a single-qubit pulse under crosstalk `λ`.
pub fn infidelity_1q(drive: &QubitDrive<'_>, target: &Matrix, lambda: f64) -> f64 {
    let actual = evolve_1q_with_spectator(drive, lambda);
    let ideal = target.kron(&Matrix::identity(2));
    average_gate_infidelity(&actual, &ideal)
}

/// Drives for the two-qubit cross-resonance region: quadratures on both
/// qubits plus the coupling drive `Ω_ab(t)` on `H_coupling = Z⊗X`.
pub struct TwoQubitDrive<'a> {
    /// Drive on qubit `a` (the control of `ZX90`).
    pub a: QubitDrive<'a>,
    /// Drive on qubit `b` (the target).
    pub b: QubitDrive<'a>,
    /// Coupling drive amplitude.
    pub coupling: &'a dyn Envelope,
}

impl<'a> TwoQubitDrive<'a> {
    /// Pulse duration (maximum over all envelopes).
    pub fn duration(&self) -> f64 {
        self.a
            .duration()
            .max(self.b.duration())
            .max(self.coupling.duration())
    }
}

/// Control evolution `Ũ₂(T)` of the two-qubit region (4-dim), optionally
/// including the intra-region crosstalk `λ_ab Z⊗Z` the paper folds into the
/// dressed target.
pub fn evolve_2q_ctrl(drive: &TwoQubitDrive<'_>, lambda_intra: f64) -> Matrix {
    let duration = drive.duration();
    let zz = PauliString::zz(2, 0, 1).matrix();
    let mut h = TimeDependentHamiltonian::new(zz.scale(zz_linalg::c64::real(lambda_intra)));
    h.add_control(embed(&Pauli::X.matrix(), &[0], 2), |t| drive.a.x.value(t));
    h.add_control(embed(&Pauli::Y.matrix(), &[0], 2), |t| drive.a.y.value(t));
    h.add_control(embed(&Pauli::X.matrix(), &[1], 2), |t| drive.b.x.value(t));
    h.add_control(embed(&Pauli::Y.matrix(), &[1], 2), |t| drive.b.y.value(t));
    let zx = Pauli::Z.matrix().kron(&Pauli::X.matrix());
    h.add_control(zx, |t| drive.coupling.value(t));
    h.propagate(duration, steps_for(duration))
}

/// Full evolution of the paper's 4-qubit chain `➀–a–b–➃` (16-dim) with
/// cross-region strengths `λ_1a`, `λ_b4` and intra strength `λ_ab`.
pub fn evolve_2q_region(
    drive: &TwoQubitDrive<'_>,
    lambda_1a: f64,
    lambda_b4: f64,
    lambda_ab: f64,
) -> Matrix {
    let duration = drive.duration();
    let n = 4;
    let mut h_static = PauliString::zz(n, 0, 1)
        .matrix()
        .scale(zz_linalg::c64::real(lambda_1a));
    h_static.add_scaled(
        &PauliString::zz(n, 2, 3).matrix(),
        zz_linalg::c64::real(lambda_b4),
    );
    h_static.add_scaled(
        &PauliString::zz(n, 1, 2).matrix(),
        zz_linalg::c64::real(lambda_ab),
    );
    let mut h = TimeDependentHamiltonian::new(h_static);
    h.add_control(embed(&Pauli::X.matrix(), &[1], n), |t| drive.a.x.value(t));
    h.add_control(embed(&Pauli::Y.matrix(), &[1], n), |t| drive.a.y.value(t));
    h.add_control(embed(&Pauli::X.matrix(), &[2], n), |t| drive.b.x.value(t));
    h.add_control(embed(&Pauli::Y.matrix(), &[2], n), |t| drive.b.y.value(t));
    let zx = embed(&Pauli::Z.matrix().kron(&Pauli::X.matrix()), &[1, 2], n);
    h.add_control(zx, |t| drive.coupling.value(t));
    h.propagate(duration, steps_for(duration))
}

/// Figure 19 measure: infidelity between the actual 16-dim evolution and
/// `I ⊗ Ũ₂(T) ⊗ I` (spectators ideally untouched; the gate is compared to
/// its intra-crosstalk-dressed self).
pub fn infidelity_2q(
    drive: &TwoQubitDrive<'_>,
    lambda_1a: f64,
    lambda_b4: f64,
    lambda_ab: f64,
) -> f64 {
    let actual = evolve_2q_region(drive, lambda_1a, lambda_b4, lambda_ab);
    let dressed = evolve_2q_ctrl(drive, lambda_ab);
    let ideal = embed(&dressed, &[1, 2], 4);
    average_gate_infidelity(&actual, &ideal)
}

/// Full evolution of a five-level transmon (anharmonicity `alpha`, rad/ns)
/// with a two-level spectator under `λ Z̃⊗Z` (10-dim). Used by Figure 18.
pub fn evolve_transmon_with_spectator(
    drive: &QubitDrive<'_>,
    alpha: f64,
    lambda: f64,
    levels: usize,
) -> Matrix {
    let duration = drive.duration();
    let dim = levels * 2;
    // H_static = anharmonicity ⊗ I + λ Z̃⊗σz
    let mut h_static = transmon::anharmonicity_term(levels, alpha).kron(&Matrix::identity(2));
    h_static.add_scaled(
        &transmon::z_ladder(levels).kron(&Pauli::Z.matrix()),
        zz_linalg::c64::real(lambda),
    );
    debug_assert_eq!(h_static.rows(), dim);
    let dx = transmon::drive_x(levels).kron(&Matrix::identity(2));
    let dy = transmon::drive_y(levels).kron(&Matrix::identity(2));
    let mut h = TimeDependentHamiltonian::new(h_static);
    h.add_control(dx, |t| drive.x.value(t));
    h.add_control(dy, |t| drive.y.value(t));
    h.propagate(duration, steps_for(duration))
}

/// Figure 18 measure: infidelity of the computational block of the
/// transmon ⊗ spectator evolution against `target ⊗ I`. Leakage shows up as
/// non-unitarity of the block and is penalized by the fidelity measure.
pub fn infidelity_transmon(
    drive: &QubitDrive<'_>,
    target: &Matrix,
    alpha: f64,
    lambda: f64,
) -> f64 {
    let levels = 5;
    let u = evolve_transmon_with_spectator(drive, alpha, lambda, levels);
    let block = transmon::computational_block(&u, &[levels, 2]);
    let ideal = target.kron(&Matrix::identity(2));
    // The block may be sub-unitary (leakage); Nielsen's formula still
    // penalizes the lost population through the reduced trace overlap.
    average_gate_infidelity(&ideal, &block).clamp(0.0, 1.0)
}

/// Conditional-phase rate: the effective residual ZZ strength (rad/ns) that
/// a pulse leaves on one surrounding coupling of strength `lambda`.
///
/// Measured exactly as a Ramsey contrast would: compare the phase picked up
/// by the driven qubit when the spectator is `|0⟩` versus `|1⟩`.
/// For an undriven (Gaussian-free) qubit this returns `lambda` itself; for
/// a perfect ZZ-suppressing pulse it returns 0.
///
/// `λ Z⊗Z` and the drive commute with the spectator's `Z`, so the two
/// conditional evolutions are independent 2×2 blocks of the 4-dim one
/// ([`evolve_1q_with_spectator`]); they are propagated block by block,
/// bit for bit the blocks of the full evolution.
pub fn residual_zz_rate(drive: &QubitDrive<'_>, lambda: f64) -> f64 {
    let duration = drive.duration();
    // Basis: |q s⟩ with q the driven qubit (MSB). The blocks for s=0 and
    // s=1 hold ⟨q' s|U|q s⟩ over q, q' for a fixed spectator value s.
    let blocks: &[&[usize]] = &[&[0, 2], &[1, 3]];
    let [u0, u1]: [Matrix; 2] = spectator_1q(drive, lambda)
        .propagate_blocks(duration, steps_for(duration), blocks)
        .try_into()
        .expect("two blocks");
    // Relative phase between the two conditional evolutions: the conditional
    // ZZ phase φ satisfies U₁ ≈ e^{−iφZ}·U₀ (to first order). Use the
    // overlap of U₀†U₁ with Z to extract φ.
    let m = u0.dagger().matmul(&u1);
    // m ≈ exp(−iφZ) = cosφ·I − i·sinφ·Z ⇒ φ from the (0,0)/(1,1) phases.
    // A bare coupling exp(−iλtZ⊗Z) yields φ = −2λt, hence the 2 below.
    let phi = (m[(1, 1)].arg() - m[(0, 0)].arg()) / 2.0;
    (phi / (2.0 * duration)).abs()
}

/// Which qubit of a two-qubit gate a spectator is attached to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateSide {
    /// The spectator couples to the gate's control (Z factor) qubit.
    Control,
    /// The spectator couples to the gate's target (X factor) qubit.
    Target,
}

/// Conditional-phase residual of a two-qubit pulse on a spectator attached
/// to one of its qubits (rad/ns), analogous to [`residual_zz_rate`].
///
/// Simulates the 8-dim system `[spectator, a, b]` with `λ Z_s Z_a` (control
/// side) or `λ Z_s Z_b` (target side) and extracts the spectator-conditional
/// phase accumulated over the pulse. As in [`residual_zz_rate`], the
/// spectator's `|0⟩` and `|1⟩` halves are propagated as two independent
/// 4×4 blocks, bit for bit the blocks of the full 8-dim evolution.
pub fn residual_zz_rate_2q(drive: &TwoQubitDrive<'_>, lambda: f64, side: GateSide) -> f64 {
    let duration = drive.duration();
    let n = 3; // [spectator, a, b]
    let coupled = match side {
        GateSide::Control => 1,
        GateSide::Target => 2,
    };
    let h_static = PauliString::zz(n, 0, coupled)
        .matrix()
        .scale(zz_linalg::c64::real(lambda));
    let mut h = TimeDependentHamiltonian::new(h_static);
    h.add_control(embed(&Pauli::X.matrix(), &[1], n), |t| drive.a.x.value(t));
    h.add_control(embed(&Pauli::Y.matrix(), &[1], n), |t| drive.a.y.value(t));
    h.add_control(embed(&Pauli::X.matrix(), &[2], n), |t| drive.b.x.value(t));
    h.add_control(embed(&Pauli::Y.matrix(), &[2], n), |t| drive.b.y.value(t));
    let zx = embed(&Pauli::Z.matrix().kron(&Pauli::X.matrix()), &[1, 2], n);
    h.add_control(zx, |t| drive.coupling.value(t));

    // Spectator-conditional 4×4 blocks (spectator is the MSB).
    let blocks: &[&[usize]] = &[&[0, 1, 2, 3], &[4, 5, 6, 7]];
    let [u0, u1]: [Matrix; 2] = h
        .propagate_blocks(duration, steps_for(duration), blocks)
        .try_into()
        .expect("two blocks");
    let m = u0.dagger().matmul(&u1);
    // m ≈ exp(−2iλ_eff T Z_q) on the gate pair; average the conditional
    // phase over the ±1 eigenspaces of Z on the coupled qubit.
    let z_on = match side {
        GateSide::Control => embed(&Pauli::Z.matrix(), &[0], 2),
        GateSide::Target => embed(&Pauli::Z.matrix(), &[1], 2),
    };
    let mut phase_plus = c64_zero();
    let mut phase_minus = c64_zero();
    for i in 0..4 {
        if z_on[(i, i)].re > 0.0 {
            phase_plus += m[(i, i)];
        } else {
            phase_minus += m[(i, i)];
        }
    }
    let phi = (phase_minus.arg() - phase_plus.arg()) / 2.0;
    (phi / (2.0 * duration)).abs()
}

fn c64_zero() -> zz_linalg::c64 {
    zz_linalg::c64::ZERO
}

/// Convenience: the `X90` and identity gate targets of the paper.
pub fn x90_target() -> Matrix {
    gates::x90()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{GaussianPulse, ZeroPulse};
    use crate::mhz;

    fn gaussian_x90_drive() -> (GaussianPulse, ZeroPulse) {
        (
            GaussianPulse::with_rotation(std::f64::consts::FRAC_PI_2, 20.0),
            ZeroPulse::new(20.0),
        )
    }

    #[test]
    fn gaussian_pulse_implements_x90_without_crosstalk() {
        let (x, y) = gaussian_x90_drive();
        let drive = QubitDrive { x: &x, y: &y };
        let u = evolve_1q_ctrl(&drive);
        assert!(
            zz_quantum::gates::equal_up_to_phase(&u, &gates::x90(), 1e-4),
            "Gaussian π/2-area pulse must implement X90"
        );
        assert!(infidelity_1q(&drive, &gates::x90(), 0.0) < 1e-9);
    }

    #[test]
    fn crosstalk_degrades_gaussian_pulse_quadratically() {
        let (x, y) = gaussian_x90_drive();
        let drive = QubitDrive { x: &x, y: &y };
        let inf_small = infidelity_1q(&drive, &gates::x90(), mhz(0.5));
        let inf_large = infidelity_1q(&drive, &gates::x90(), mhz(2.0));
        assert!(inf_small > 1e-6, "crosstalk must hurt: {inf_small}");
        assert!(inf_large > 10.0 * inf_small, "roughly quadratic growth");
    }

    #[test]
    fn residual_rate_of_idle_qubit_is_lambda() {
        let x = ZeroPulse::new(20.0);
        let y = ZeroPulse::new(20.0);
        let drive = QubitDrive { x: &x, y: &y };
        let lambda = mhz(0.2);
        let r = residual_zz_rate(&drive, lambda);
        assert!((r - lambda).abs() < 1e-6, "idle residual {r} vs λ {lambda}");
    }

    #[test]
    fn coupling_drive_implements_zx90() {
        let zero20 = ZeroPulse::new(20.0);
        let coupling = GaussianPulse::with_rotation(std::f64::consts::FRAC_PI_2, 40.0);
        let drive = TwoQubitDrive {
            a: QubitDrive {
                x: &zero20,
                y: &zero20,
            },
            b: QubitDrive {
                x: &zero20,
                y: &zero20,
            },
            coupling: &coupling,
        };
        let u = evolve_2q_ctrl(&drive, 0.0);
        assert!(
            zz_quantum::gates::equal_up_to_phase(&u, &gates::zx90(), 1e-4),
            "π/4-area coupling drive must implement ZX90"
        );
    }

    #[test]
    fn two_qubit_infidelity_grows_with_cross_region_crosstalk() {
        let zero20 = ZeroPulse::new(20.0);
        let coupling = GaussianPulse::with_rotation(std::f64::consts::FRAC_PI_2, 40.0);
        let drive = TwoQubitDrive {
            a: QubitDrive {
                x: &zero20,
                y: &zero20,
            },
            b: QubitDrive {
                x: &zero20,
                y: &zero20,
            },
            coupling: &coupling,
        };
        let quiet = infidelity_2q(&drive, 0.0, 0.0, mhz(0.2));
        let noisy = infidelity_2q(&drive, mhz(1.0), mhz(1.0), mhz(0.2));
        assert!(
            quiet < 1e-8,
            "no cross-region crosstalk → dressed-exact: {quiet}"
        );
        assert!(noisy > 1e-4, "cross-region crosstalk must show: {noisy}");
    }

    #[test]
    fn transmon_matches_two_level_at_zero_anharmonicity_limit() {
        // With very large |α| the transmon behaves like a qubit.
        let (x, y) = gaussian_x90_drive();
        let drive = QubitDrive { x: &x, y: &y };
        let inf = infidelity_transmon(&drive, &gates::x90(), mhz(-5000.0), 0.0);
        assert!(inf < 1e-4, "large anharmonicity suppresses leakage: {inf}");
    }

    #[test]
    fn leakage_hurts_at_realistic_anharmonicity() {
        let (x, y) = gaussian_x90_drive();
        let drive = QubitDrive { x: &x, y: &y };
        let inf_realistic = infidelity_transmon(&drive, &gates::x90(), mhz(-300.0), 0.0);
        let inf_huge = infidelity_transmon(&drive, &gates::x90(), mhz(-5000.0), 0.0);
        assert!(
            inf_realistic > inf_huge,
            "−300 MHz anharmonicity must leak more than −5 GHz"
        );
    }
}
