//! Ramsey experiments on a simulated three-transmon line (paper Sec 7.4).
//!
//! The real device of the paper — three transmons `Q1–Q2–Q3` with always-on
//! ZZ coupling — is replaced by Hamiltonian-level simulation of the same
//! effective model. The protocol measures
//! the *effective ZZ strength*: perform a Ramsey experiment on `Q2`
//! (`X90 · idle(τ) · Rz(δ·τ) · X90`, then measure `P(|1⟩)`) with the
//! neighbors prepared in `|0⟩` or `|1⟩`; the difference of the two fringe
//! frequencies is the ZZ strength that actually affects computation.
//!
//! Three circuits are compared (paper Fig 26):
//!
//! * **A** — original: `Q2` idles bare during τ;
//! * **B** — compiled I: identity pulses repeat on `Q2` during τ;
//! * **C** — compiled II: identity pulses repeat on `Q1` and `Q3` instead.

use zz_linalg::{Matrix, Vector};
use zz_quantum::pauli::{Pauli, PauliString};
use zz_quantum::{embed, gates, states};

use crate::library::{id_drive, CalibratedDrive, PulseMethod};
use crate::propagate::TimeDependentHamiltonian;
use crate::systems::STEPS_PER_NS;

/// Which of the paper's Figure-26 circuits to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RamseyCircuit {
    /// Original circuit: bare idling.
    Original,
    /// Compiled circuit I: protective identity pulses on `Q2`.
    IdOnQ2,
    /// Compiled circuit II: protective identity pulses on `Q1` and `Q3`.
    IdOnNeighbors,
}

impl RamseyCircuit {
    /// Figure label ("A", "B", "C").
    pub fn label(self) -> &'static str {
        match self {
            RamseyCircuit::Original => "A",
            RamseyCircuit::IdOnQ2 => "B",
            RamseyCircuit::IdOnNeighbors => "C",
        }
    }
}

/// Which neighbors couple to `Q2` in a given experiment group (Fig 27 a/b/c).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NeighborGroup {
    /// Only the `Q1–Q2` coupling is active (group a).
    Q1Only,
    /// Only the `Q2–Q3` coupling is active (group b).
    Q3Only,
    /// Both couplings are active (group c).
    Both,
}

/// Configuration of the simulated device and protocol.
#[derive(Clone, Copy, Debug)]
pub struct RamseyConfig {
    /// ZZ strength of the `Q1–Q2` coupling (rad/ns).
    pub lambda12: f64,
    /// ZZ strength of the `Q2–Q3` coupling (rad/ns).
    pub lambda23: f64,
    /// Artificial detuning δ applied as `Rz(δ·τ)` (rad/ns).
    pub detuning: f64,
    /// Identity-pulse method used by the compiled circuits.
    pub method: PulseMethod,
    /// Number of idle blocks to sweep (τ = block·duration·k).
    pub blocks: usize,
}

impl RamseyConfig {
    /// The paper's device: ~200 kHz effective ZZ per coupling
    /// (λ/2π = 50 kHz), 1 MHz artificial detuning, DCG identity pulses.
    pub fn paper_default() -> Self {
        RamseyConfig {
            lambda12: crate::khz(50.0),
            lambda23: crate::khz(50.0),
            detuning: crate::mhz(1.0),
            method: PulseMethod::Dcg,
            blocks: 192,
        }
    }
}

/// One Ramsey fringe: `(τ in ns, P(|1⟩) on Q2)` samples.
pub type Fringe = Vec<(f64, f64)>;

/// Runs the Ramsey protocol and returns the fringe.
///
/// `neighbors_excited` prepares the *active* neighbors in `|1⟩` (the ZZ
/// strength is extracted from the frequency difference between the
/// `false`/`true` fringes).
pub fn ramsey_fringe(
    circuit: RamseyCircuit,
    group: NeighborGroup,
    neighbors_excited: bool,
    cfg: &RamseyConfig,
) -> Fringe {
    let (l12, l23) = match group {
        NeighborGroup::Q1Only => (cfg.lambda12, 0.0),
        NeighborGroup::Q3Only => (0.0, cfg.lambda23),
        NeighborGroup::Both => (cfg.lambda12, cfg.lambda23),
    };

    // Idle-block propagator (8-dim, order [Q1, Q2, Q3]).
    let id = id_drive(cfg.method);
    let block = idle_block_propagator(circuit, &id, l12, l23);
    let block_duration = id.duration();

    // Initial state: active neighbors in |0⟩/|1⟩, Q2 after an ideal X90.
    let excited = |active: bool| -> Vector {
        if active && neighbors_excited {
            states::ket1()
        } else {
            states::ket0()
        }
    };
    let q1 = excited(matches!(group, NeighborGroup::Q1Only | NeighborGroup::Both));
    let q3 = excited(matches!(group, NeighborGroup::Q3Only | NeighborGroup::Both));
    let q2 = gates::x90().mul_vec(&states::ket0());
    let psi0 = q1.kron(&q2).kron(&q3);

    let x90_q2 = embed(&gates::x90(), &[1], 3);
    let mut fringe = Vec::with_capacity(cfg.blocks + 1);
    let mut psi = psi0.clone();
    for k in 0..=cfg.blocks {
        let tau = k as f64 * block_duration;
        // Rz(δ·τ) on Q2, then the second X90, then measure P(|1⟩ on Q2).
        let rz = embed(&gates::rz(cfg.detuning * tau), &[1], 3);
        let out = x90_q2.mul_vec(&rz.mul_vec(&psi));
        let p1: f64 = out
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(i, _)| (i >> 1) & 1 == 1) // Q2 bit (middle of 3)
            .map(|(_, a)| a.abs_sq())
            .sum();
        fringe.push((tau, p1));
        psi = block.mul_vec(&psi);
    }
    fringe
}

/// Builds the 8-dim propagator for one idle block of the chosen circuit.
fn idle_block_propagator(
    circuit: RamseyCircuit,
    id: &CalibratedDrive,
    l12: f64,
    l23: f64,
) -> Matrix {
    let duration = id.duration();
    let mut h_static = PauliString::zz(3, 0, 1)
        .matrix()
        .scale(zz_linalg::c64::real(l12));
    h_static.add_scaled(
        &PauliString::zz(3, 1, 2).matrix(),
        zz_linalg::c64::real(l23),
    );
    let mut h = TimeDependentHamiltonian::new(h_static);
    let drive = id.as_drive();
    match circuit {
        RamseyCircuit::Original => {}
        RamseyCircuit::IdOnQ2 => {
            h.add_control(embed(&Pauli::X.matrix(), &[1], 3), move |t| {
                drive.x.value(t)
            });
            h.add_control(embed(&Pauli::Y.matrix(), &[1], 3), move |t| {
                drive.y.value(t)
            });
        }
        RamseyCircuit::IdOnNeighbors => {
            h.add_control(embed(&Pauli::X.matrix(), &[0], 3), move |t| {
                drive.x.value(t)
            });
            h.add_control(embed(&Pauli::Y.matrix(), &[0], 3), move |t| {
                drive.y.value(t)
            });
            let drive2 = id.as_drive();
            h.add_control(embed(&Pauli::X.matrix(), &[2], 3), move |t| {
                drive2.x.value(t)
            });
            h.add_control(embed(&Pauli::Y.matrix(), &[2], 3), move |t| {
                drive2.y.value(t)
            });
        }
    }
    h.propagate(duration, (duration * STEPS_PER_NS) as usize)
}

/// Fits the dominant oscillation frequency (cycles/ns) of a fringe by
/// least squares over a dense frequency grid.
///
/// The fit model is `P(τ) = a·cos(2πfτ) + b·sin(2πfτ) + c`; for each `f`
/// the optimal `(a, b, c)` is linear, so scanning `f` and keeping the
/// minimum residual is robust and derivative-free.
pub fn fit_frequency(fringe: &Fringe, f_max: f64) -> f64 {
    let n = fringe.len() as f64;
    let mut best = (0.0, f64::INFINITY);
    let grid = 4000;
    for g in 1..=grid {
        let f = f_max * g as f64 / grid as f64;
        // Linear least squares for a, b, c.
        let (mut scc, mut sss, mut ssc, mut sc, mut ss) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut syc, mut sys, mut sy) = (0.0, 0.0, 0.0);
        for &(t, y) in fringe {
            let (c, s) = (
                (2.0 * std::f64::consts::PI * f * t).cos(),
                (2.0 * std::f64::consts::PI * f * t).sin(),
            );
            scc += c * c;
            sss += s * s;
            ssc += s * c;
            sc += c;
            ss += s;
            syc += y * c;
            sys += y * s;
            sy += y;
        }
        // Solve the 3×3 normal equations via zz-linalg (tiny system).
        let m = Matrix::from_rows(&[
            &[
                zz_linalg::c64::real(scc),
                zz_linalg::c64::real(ssc),
                zz_linalg::c64::real(sc),
            ],
            &[
                zz_linalg::c64::real(ssc),
                zz_linalg::c64::real(sss),
                zz_linalg::c64::real(ss),
            ],
            &[
                zz_linalg::c64::real(sc),
                zz_linalg::c64::real(ss),
                zz_linalg::c64::real(n),
            ],
        ]);
        let rhs = [syc, sys, sy];
        let Some(sol) = solve3(&m, &rhs) else {
            continue;
        };
        let (a, b, c) = (sol[0], sol[1], sol[2]);
        let residual: f64 = fringe
            .iter()
            .map(|&(t, y)| {
                let (cc, s) = (
                    (2.0 * std::f64::consts::PI * f * t).cos(),
                    (2.0 * std::f64::consts::PI * f * t).sin(),
                );
                (y - a * cc - b * s - c).powi(2)
            })
            .sum();
        if residual < best.1 {
            best = (f, residual);
        }
    }
    best.0
}

/// Solves a real 3×3 system by Cramer's rule.
fn solve3(m: &Matrix, rhs: &[f64; 3]) -> Option<[f64; 3]> {
    let a = |i: usize, j: usize| m[(i, j)].re;
    let det3 = |m00: f64,
                m01: f64,
                m02: f64,
                m10: f64,
                m11: f64,
                m12: f64,
                m20: f64,
                m21: f64,
                m22: f64| {
        m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20)
    };
    let d = det3(
        a(0, 0),
        a(0, 1),
        a(0, 2),
        a(1, 0),
        a(1, 1),
        a(1, 2),
        a(2, 0),
        a(2, 1),
        a(2, 2),
    );
    if d.abs() < 1e-12 {
        return None;
    }
    let dx = det3(
        rhs[0],
        a(0, 1),
        a(0, 2),
        rhs[1],
        a(1, 1),
        a(1, 2),
        rhs[2],
        a(2, 1),
        a(2, 2),
    );
    let dy = det3(
        a(0, 0),
        rhs[0],
        a(0, 2),
        a(1, 0),
        rhs[1],
        a(1, 2),
        a(2, 0),
        rhs[2],
        a(2, 2),
    );
    let dz = det3(
        a(0, 0),
        a(0, 1),
        rhs[0],
        a(1, 0),
        a(1, 1),
        rhs[1],
        a(2, 0),
        a(2, 1),
        rhs[2],
    );
    Some([dx / d, dy / d, dz / d])
}

/// Measures the effective ZZ strength (in kHz) seen by `Q2`: the difference
/// between the fringe frequencies with neighbors excited vs grounded.
pub fn effective_zz_khz(circuit: RamseyCircuit, group: NeighborGroup, cfg: &RamseyConfig) -> f64 {
    let f_max = 2.5 * cfg.detuning / (2.0 * std::f64::consts::PI);
    let f0 = fit_frequency(&ramsey_fringe(circuit, group, false, cfg), f_max);
    let f1 = fit_frequency(&ramsey_fringe(circuit, group, true, cfg), f_max);
    // cycles/ns → kHz.
    (f1 - f0).abs() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RamseyConfig {
        RamseyConfig {
            blocks: 96,
            ..RamseyConfig::paper_default()
        }
    }

    #[test]
    fn fit_recovers_a_known_frequency() {
        let f_true = 0.0011; // cycles/ns
        let fringe: Fringe = (0..200)
            .map(|k| {
                let t = k as f64 * 40.0;
                (
                    t,
                    0.5 - 0.5 * (2.0 * std::f64::consts::PI * f_true * t).cos(),
                )
            })
            .collect();
        let f = fit_frequency(&fringe, 0.0025);
        assert!((f - f_true).abs() < 2e-6, "fit {f} vs true {f_true}");
    }

    #[test]
    fn unprotected_circuit_sees_full_zz() {
        let cfg = quick_cfg();
        let zz = effective_zz_khz(RamseyCircuit::Original, NeighborGroup::Q1Only, &cfg);
        // 4λ/2π = 200 kHz.
        assert!((zz - 200.0).abs() < 30.0, "expected ≈200 kHz, got {zz}");
    }

    #[test]
    fn dcg_identity_pulses_suppress_zz_on_q2() {
        let cfg = quick_cfg();
        let zz = effective_zz_khz(RamseyCircuit::IdOnQ2, NeighborGroup::Q1Only, &cfg);
        assert!(zz < 11.0, "paper threshold is 11 kHz, got {zz}");
    }

    #[test]
    fn neighbor_pulses_also_suppress_zz() {
        let cfg = quick_cfg();
        let zz = effective_zz_khz(RamseyCircuit::IdOnNeighbors, NeighborGroup::Both, &cfg);
        assert!(zz < 11.0, "paper threshold is 11 kHz, got {zz}");
    }
}
