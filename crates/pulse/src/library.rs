//! Factory-calibrated pulses for the native gates under each method.
//!
//! The Fourier coefficients below were produced by this repository's own
//! optimizer (`cargo run -p zz-pulse --bin calibrate --release`) and pasted
//! in, so that tests and benchmarks do not pay the optimization cost on
//! every run. The quality tests at the bottom verify the shipped pulses
//! still implement their gates and suppress first-order ZZ.

use crate::dcg;
use crate::envelope::{Envelope, FourierPulse, GaussianPulse, ZeroPulse};
use crate::optimize::BASIS;

/// Pulse durations (ns) of the calibrated single-qubit library.
pub const X90_DURATION: f64 = 20.0;
/// Identity pulse duration for the Fourier-optimized methods.
pub const ID_DURATION: f64 = 20.0;
/// Two-qubit `ZX90` pulse duration (the paper sets `T = 20 ns`).
pub const ZX90_DURATION: f64 = 20.0;

/// A pulse-optimization method (paper Sec 7.1.1) plus the unoptimized
/// Gaussian reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PulseMethod {
    /// Plain Gaussian pulses — no ZZ suppression (the baseline).
    Gaussian,
    /// Quantum optimal control against the λ-averaged fidelity.
    OptCtrl,
    /// First-order perturbative cancellation (the paper's proposal).
    Pert,
    /// Dynamically corrected gates from Gaussian segments.
    Dcg,
}

impl PulseMethod {
    /// All four methods.
    pub const ALL: [PulseMethod; 4] = [
        PulseMethod::Gaussian,
        PulseMethod::OptCtrl,
        PulseMethod::Pert,
        PulseMethod::Dcg,
    ];
}

/// The figure label ("Gaussian", "OptCtrl", "Pert", "DCG") — also part of
/// the on-disk calibration-key format (`zz_core::calib`), so the names
/// are stable.
impl std::fmt::Display for PulseMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PulseMethod::Gaussian => "Gaussian",
            PulseMethod::OptCtrl => "OptCtrl",
            PulseMethod::Pert => "Pert",
            PulseMethod::Dcg => "DCG",
        })
    }
}

// ------------------------------------------------------------------
// Calibrated coefficients (regenerate with the `calibrate` binary).
// Layout: [Ωx A₁..A₅, Ωy A₁..A₅] (rad/ns).
// ------------------------------------------------------------------

/// Pert-optimized `X90` coefficients.
pub const PERT_X90: [f64; 2 * BASIS] = [
    -6.379795436303e-2,
    3.445022170688e-1,
    6.596379681798e-2,
    2.525392816913e-2,
    2.015028785533e-2,
    2.345372920158e-3,
    1.410816943453e-2,
    1.636092040301e-3,
    1.500922122119e-3,
    1.199161939501e-3,
];
/// Pert-optimized identity (`Rx(2π)`-class) coefficients.
pub const PERT_ID: [f64; 2 * BASIS] = [
    3.719705866942e-3,
    1.905648066607e-1,
    4.668276821242e-2,
    3.599656181536e-2,
    3.627003975146e-2,
    -1.198116223436e-3,
    5.056120788433e-2,
    -4.497610750991e-3,
    -1.360637165653e-2,
    -4.512982720735e-3,
];
/// OptCtrl-optimized `X90` coefficients.
pub const OPTCTRL_X90: [f64; 2 * BASIS] = [
    1.146038285045e-1,
    1.868906968958e-1,
    4.423124361124e-2,
    2.578052366321e-2,
    1.681127202174e-2,
    3.077688720537e-2,
    1.289473250973e-2,
    4.984710471596e-3,
    3.020914713013e-3,
    1.949569507424e-3,
];
/// OptCtrl-optimized identity coefficients.
pub const OPTCTRL_ID: [f64; 2 * BASIS] = [
    2.114786492444e-1,
    7.493388635236e-2,
    9.851809875620e-3,
    9.617599324621e-3,
    8.073511936562e-3,
    -3.063156636227e-3,
    -1.040305243987e-3,
    -2.505471792702e-4,
    -1.356237392077e-4,
    -8.465958172631e-5,
];
/// Pert-optimized `ZX90` coefficients
/// (`[Ωx_a, Ωy_a, Ωx_b, Ωy_b, Ω_ab]`, 5 coefficients each).
pub const PERT_ZX90: [f64; 5 * BASIS] = [
    2.564515732832e-2,
    2.923927338607e-1,
    -1.771378859692e-1,
    -1.350990948305e-1,
    -1.269136315697e-1,
    -3.171983355028e-2,
    -3.856912589122e-1,
    2.377744415995e-1,
    2.195374359175e-1,
    1.258861869821e-1,
    1.260983948142e-2,
    2.482947352475e-2,
    -6.628881198643e-3,
    -1.662431934800e-2,
    -1.418575373137e-2,
    2.215768570286e-5,
    -2.252165332911e-5,
    4.451843625007e-5,
    4.871174796493e-5,
    -2.813288565764e-4,
    -1.037093062863e-2,
    1.403046536267e-1,
    1.249149444109e-1,
    2.104836277152e-1,
    1.812516223002e-1,
];
/// OptCtrl-optimized `ZX90` coefficients (warm-started from the Pert
/// solution and refined against the λ-averaged fidelity).
pub const OPTCTRL_ZX90: [f64; 5 * BASIS] = [
    2.570876208971e-2,
    2.923357652745e-1,
    -1.772350178761e-1,
    -1.330146314663e-1,
    -1.292921784111e-1,
    -3.184804112199e-2,
    -3.859218180432e-1,
    2.382564327972e-1,
    2.198128949497e-1,
    1.259560556050e-1,
    1.260969300307e-2,
    2.482738805748e-2,
    -6.627779120794e-3,
    -1.662394846095e-2,
    -1.418529281988e-2,
    9.851373883648e-6,
    1.479799311566e-4,
    -3.842973395848e-6,
    4.652071920633e-4,
    7.677688330847e-4,
    -1.048795680426e-2,
    1.399721301986e-1,
    1.234622799433e-1,
    2.101750102547e-1,
    1.822835357773e-1,
];

/// An owned single-qubit drive: the two quadrature envelopes.
pub struct CalibratedDrive {
    /// In-phase envelope.
    pub x: Box<dyn Envelope + Send + Sync>,
    /// Quadrature envelope.
    pub y: Box<dyn Envelope + Send + Sync>,
}

impl CalibratedDrive {
    /// Borrowed view usable with the [`crate::systems`] evaluators.
    pub fn as_drive(&self) -> crate::systems::QubitDrive<'_> {
        crate::systems::QubitDrive {
            x: self.x.as_ref(),
            y: self.y.as_ref(),
        }
    }

    /// Pulse duration.
    pub fn duration(&self) -> f64 {
        self.x.duration().max(self.y.duration())
    }
}

/// An owned two-qubit drive (for `ZX90`).
pub struct CalibratedTwoQubitDrive {
    /// Drive on the control qubit.
    pub a: CalibratedDrive,
    /// Drive on the target qubit.
    pub b: CalibratedDrive,
    /// Coupling envelope.
    pub coupling: Box<dyn Envelope + Send + Sync>,
}

impl CalibratedTwoQubitDrive {
    /// Borrowed view usable with the [`crate::systems`] evaluators.
    pub fn as_drive(&self) -> crate::systems::TwoQubitDrive<'_> {
        crate::systems::TwoQubitDrive {
            a: self.a.as_drive(),
            b: self.b.as_drive(),
            coupling: self.coupling.as_ref(),
        }
    }
}

fn fourier_drive(coeffs: &[f64], duration: f64) -> CalibratedDrive {
    CalibratedDrive {
        x: Box::new(FourierPulse::new(coeffs[..BASIS].to_vec(), duration)),
        y: Box::new(FourierPulse::new(coeffs[BASIS..].to_vec(), duration)),
    }
}

/// The calibrated `X90` drive for a method.
pub fn x90_drive(method: PulseMethod) -> CalibratedDrive {
    match method {
        PulseMethod::Gaussian => CalibratedDrive {
            x: Box::new(GaussianPulse::with_rotation(
                std::f64::consts::FRAC_PI_2,
                X90_DURATION,
            )),
            y: Box::new(ZeroPulse::new(X90_DURATION)),
        },
        PulseMethod::OptCtrl => fourier_drive(&OPTCTRL_X90, X90_DURATION),
        PulseMethod::Pert => fourier_drive(&PERT_X90, X90_DURATION),
        PulseMethod::Dcg => CalibratedDrive {
            x: Box::new(dcg::dcg_x90()),
            y: Box::new(ZeroPulse::new(120.0)),
        },
    }
}

/// The calibrated identity drive for a method. The identity gate is
/// `I = Rx(2π)` (paper Sec 7.1.2) for every method; even the plain Gaussian
/// version echoes away some ZZ by sweeping the qubit through a full
/// rotation, which is why `Gau+ZZXSched` already helps in Figure 21.
pub fn id_drive(method: PulseMethod) -> CalibratedDrive {
    match method {
        PulseMethod::Gaussian => CalibratedDrive {
            x: Box::new(GaussianPulse::with_rotation(
                2.0 * std::f64::consts::PI,
                ID_DURATION,
            )),
            y: Box::new(ZeroPulse::new(ID_DURATION)),
        },
        PulseMethod::OptCtrl => fourier_drive(&OPTCTRL_ID, ID_DURATION),
        PulseMethod::Pert => fourier_drive(&PERT_ID, ID_DURATION),
        PulseMethod::Dcg => CalibratedDrive {
            x: Box::new(dcg::dcg_id()),
            y: Box::new(ZeroPulse::new(40.0)),
        },
    }
}

/// The calibrated `ZX90` drive for a method, or `None` for DCG (the paper
/// leaves the two-qubit DCG sequence unimplemented; Sec 7.2.2).
pub fn zx90_drive(method: PulseMethod) -> Option<CalibratedTwoQubitDrive> {
    let zero = || -> CalibratedDrive {
        CalibratedDrive {
            x: Box::new(ZeroPulse::new(ZX90_DURATION)),
            y: Box::new(ZeroPulse::new(ZX90_DURATION)),
        }
    };
    match method {
        PulseMethod::Gaussian => Some(CalibratedTwoQubitDrive {
            a: zero(),
            b: zero(),
            coupling: Box::new(GaussianPulse::with_rotation(
                std::f64::consts::FRAC_PI_2,
                ZX90_DURATION,
            )),
        }),
        PulseMethod::OptCtrl => Some(two_qubit_from(&OPTCTRL_ZX90)),
        PulseMethod::Pert => Some(two_qubit_from(&PERT_ZX90)),
        PulseMethod::Dcg => None,
    }
}

fn two_qubit_from(coeffs: &[f64]) -> CalibratedTwoQubitDrive {
    let seg = |k: usize| coeffs[k * BASIS..(k + 1) * BASIS].to_vec();
    CalibratedTwoQubitDrive {
        a: CalibratedDrive {
            x: Box::new(FourierPulse::new(seg(0), ZX90_DURATION)),
            y: Box::new(FourierPulse::new(seg(1), ZX90_DURATION)),
        },
        b: CalibratedDrive {
            x: Box::new(FourierPulse::new(seg(2), ZX90_DURATION)),
            y: Box::new(FourierPulse::new(seg(3), ZX90_DURATION)),
        },
        coupling: Box::new(FourierPulse::new(seg(4), ZX90_DURATION)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mhz;
    use crate::systems::{infidelity_1q, residual_zz_rate};
    use zz_linalg::Matrix;
    use zz_quantum::gates;

    #[test]
    fn gaussian_library_pulses_implement_their_gates() {
        let drive = x90_drive(PulseMethod::Gaussian);
        let inf = infidelity_1q(&drive.as_drive(), &gates::x90(), 0.0);
        assert!(inf < 1e-9, "Gaussian X90 broken: {inf}");
    }

    #[test]
    fn dcg_library_pulses_implement_their_gates() {
        let drive = x90_drive(PulseMethod::Dcg);
        let inf = infidelity_1q(&drive.as_drive(), &gates::x90(), 0.0);
        assert!(inf < 1e-8, "DCG X90 broken: {inf}");
    }

    #[test]
    fn optimized_x90_pulses_implement_their_gates() {
        for method in [PulseMethod::OptCtrl, PulseMethod::Pert] {
            let drive = x90_drive(method);
            let inf = infidelity_1q(&drive.as_drive(), &gates::x90(), 0.0);
            assert!(inf < 1e-4, "{method} X90 broken: {inf}");
        }
    }

    #[test]
    fn optimized_id_pulses_implement_identity() {
        for method in [PulseMethod::OptCtrl, PulseMethod::Pert] {
            let drive = id_drive(method);
            let inf = infidelity_1q(&drive.as_drive(), &Matrix::identity(2), 0.0);
            assert!(inf < 1e-4, "{method} I broken: {inf}");
        }
    }

    #[test]
    fn optimized_pulses_suppress_zz_at_device_strength() {
        let lambda = mhz(0.2);
        let gauss = residual_zz_rate(&x90_drive(PulseMethod::Gaussian).as_drive(), lambda);
        // OptCtrl is the indirect suppressor (Fig 16); the first-order
        // methods cancel far more.
        let r_opt = residual_zz_rate(&x90_drive(PulseMethod::OptCtrl).as_drive(), lambda);
        assert!(
            r_opt < gauss / 3.0,
            "OptCtrl X90 residual {r_opt} vs Gaussian {gauss}"
        );
        for method in [PulseMethod::Pert, PulseMethod::Dcg] {
            let r = residual_zz_rate(&x90_drive(method).as_drive(), lambda);
            assert!(
                r < gauss / 100.0,
                "{method} X90 residual {r} not well below Gaussian {gauss}"
            );
        }
    }

    #[test]
    fn pert_beats_optctrl_on_first_order_term() {
        // The paper's key claim for the Pert objective (Fig 16).
        let lambda = mhz(0.2);
        let pert = infidelity_1q(
            &x90_drive(PulseMethod::Pert).as_drive(),
            &gates::x90(),
            lambda,
        );
        let opt = infidelity_1q(
            &x90_drive(PulseMethod::OptCtrl).as_drive(),
            &gates::x90(),
            lambda,
        );
        assert!(
            pert <= opt * 2.0,
            "Pert {pert} should be at least comparable to OptCtrl {opt}"
        );
    }

    #[test]
    fn zx90_drives_implement_the_gate() {
        for method in [
            PulseMethod::Gaussian,
            PulseMethod::OptCtrl,
            PulseMethod::Pert,
        ] {
            let d = zx90_drive(method).expect("available");
            let u = crate::systems::evolve_2q_ctrl(&d.as_drive(), 0.0);
            let inf = 1.0 - zz_quantum::fidelity::average_gate_fidelity(&u, &gates::zx90());
            assert!(inf < 1e-4, "{method} ZX90 broken: infidelity {inf}");
        }
        assert!(zx90_drive(PulseMethod::Dcg).is_none());
    }

    #[test]
    fn optimized_zx90_suppresses_spectator_zz() {
        let lambda = mhz(0.2);
        let measure = |method: PulseMethod| -> f64 {
            let d = zx90_drive(method).expect("available");
            crate::systems::infidelity_2q(&d.as_drive(), lambda, lambda, lambda)
        };
        let gauss = measure(PulseMethod::Gaussian);
        let pert = measure(PulseMethod::Pert);
        assert!(
            pert < gauss / 5.0,
            "Pert ZX90 {pert} must be well below Gaussian {gauss}"
        );
    }
}
