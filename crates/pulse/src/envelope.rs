//! Pulse envelopes.

/// A time-dependent drive amplitude `Ω(t)` on `[0, duration]`.
///
/// Envelopes report an analytic derivative so the DRAG correction
/// (`Ω_y ∝ −Ω̇_x/α`) needs no numerical differentiation.
pub trait Envelope {
    /// Amplitude at time `t` (rad/ns); zero outside `[0, duration]`.
    fn value(&self, t: f64) -> f64;
    /// Time derivative at `t` (rad/ns²).
    fn derivative(&self, t: f64) -> f64;
    /// Total length of the envelope (ns).
    fn duration(&self) -> f64;

    /// Numerically integrated pulse area `∫Ω dt` (rad). Under the
    /// convention `H = Ω(t)σx`, an area of `θ/2` realizes `Rx(θ)`.
    fn area(&self) -> f64 {
        let steps = 2000;
        let dt = self.duration() / steps as f64;
        (0..steps)
            .map(|k| self.value((k as f64 + 0.5) * dt) * dt)
            .sum()
    }
}

/// A truncated Gaussian with baseline subtraction so the amplitude is
/// exactly zero at both ends — the default pulse shape on IBMQ-style
/// devices, used by the paper as the *unoptimized* reference.
#[derive(Clone, Debug, PartialEq)]
pub struct GaussianPulse {
    amplitude: f64,
    sigma: f64,
    duration: f64,
}

impl GaussianPulse {
    /// A Gaussian of the given peak `amplitude` and `duration`, with
    /// `σ = duration/4` (a common hardware choice).
    pub fn new(amplitude: f64, duration: f64) -> Self {
        GaussianPulse {
            amplitude,
            sigma: duration / 4.0,
            duration,
        }
    }

    /// The Gaussian whose area is exactly `θ/2`, i.e. which implements
    /// `Rx(θ)` under `H = Ω(t)σx`.
    ///
    /// # Example
    ///
    /// ```
    /// use zz_pulse::envelope::{Envelope, GaussianPulse};
    ///
    /// let p = GaussianPulse::with_rotation(std::f64::consts::PI, 20.0);
    /// assert!((p.area() - std::f64::consts::PI / 2.0).abs() < 1e-6);
    /// ```
    pub fn with_rotation(theta: f64, duration: f64) -> Self {
        let unit = GaussianPulse::new(1.0, duration);
        let area = unit.area();
        GaussianPulse::new(theta / 2.0 / area, duration)
    }

    fn baseline(&self) -> f64 {
        let c = self.duration / 2.0;
        (-(c * c) / (2.0 * self.sigma * self.sigma)).exp()
    }
}

impl Envelope for GaussianPulse {
    fn value(&self, t: f64) -> f64 {
        if !(0.0..=self.duration).contains(&t) {
            return 0.0;
        }
        let c = self.duration / 2.0;
        let g = (-((t - c) * (t - c)) / (2.0 * self.sigma * self.sigma)).exp();
        let b = self.baseline();
        self.amplitude * (g - b) / (1.0 - b)
    }

    fn derivative(&self, t: f64) -> f64 {
        if !(0.0..=self.duration).contains(&t) {
            return 0.0;
        }
        let c = self.duration / 2.0;
        let g = (-((t - c) * (t - c)) / (2.0 * self.sigma * self.sigma)).exp();
        let b = self.baseline();
        self.amplitude * g * (-(t - c) / (self.sigma * self.sigma)) / (1.0 - b)
    }

    fn duration(&self) -> f64 {
        self.duration
    }
}

/// The paper's Fourier-cosine ansatz (Appendix A):
///
/// `Ω(A, t) = Σ_j A_j/2 · (1 + cos(2πj·t/T − π)) = Σ_j A_j/2 · (1 − cos(2πj·t/T))`
///
/// — smooth, zero at both ends, narrow-band, and linear in the optimizable
/// coefficients `A`.
#[derive(Clone, Debug, PartialEq)]
pub struct FourierPulse {
    coeffs: Vec<f64>,
    duration: f64,
}

impl FourierPulse {
    /// Creates the pulse from its Fourier coefficients (rad/ns).
    pub fn new(coeffs: Vec<f64>, duration: f64) -> Self {
        FourierPulse { coeffs, duration }
    }

    /// The optimizable coefficients.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Exact area: each basis term integrates to `T/2`.
    #[cfg(test)]
    fn exact_area(&self) -> f64 {
        self.coeffs.iter().sum::<f64>() * self.duration / 2.0
    }
}

impl Envelope for FourierPulse {
    fn value(&self, t: f64) -> f64 {
        if !(0.0..=self.duration).contains(&t) {
            return 0.0;
        }
        let w = 2.0 * std::f64::consts::PI / self.duration;
        self.coeffs
            .iter()
            .enumerate()
            .map(|(i, &a)| a / 2.0 * (1.0 - ((i + 1) as f64 * w * t).cos()))
            .sum()
    }

    fn derivative(&self, t: f64) -> f64 {
        if !(0.0..=self.duration).contains(&t) {
            return 0.0;
        }
        let w = 2.0 * std::f64::consts::PI / self.duration;
        self.coeffs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let j = (i + 1) as f64;
                a / 2.0 * j * w * (j * w * t).sin()
            })
            .sum()
    }

    fn duration(&self) -> f64 {
        self.duration
    }
}

/// A zero drive of the given duration (idle qubit).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZeroPulse {
    duration: f64,
}

impl ZeroPulse {
    /// Creates a zero envelope lasting `duration` ns.
    pub fn new(duration: f64) -> Self {
        ZeroPulse { duration }
    }
}

impl Envelope for ZeroPulse {
    fn value(&self, _t: f64) -> f64 {
        0.0
    }
    fn derivative(&self, _t: f64) -> f64 {
        0.0
    }
    fn duration(&self) -> f64 {
        self.duration
    }
}

/// Envelopes played back to back (used for DCG sequences).
pub struct SequencePulse {
    segments: Vec<Box<dyn Envelope + Send + Sync>>,
    /// Sign applied to each segment (for −π/2 style segments).
    signs: Vec<f64>,
}

impl SequencePulse {
    /// Creates a sequence from `(envelope, sign)` segments.
    pub fn new(segments: Vec<(Box<dyn Envelope + Send + Sync>, f64)>) -> Self {
        let (segments, signs) = segments.into_iter().unzip();
        SequencePulse { segments, signs }
    }
}

impl Envelope for SequencePulse {
    fn value(&self, t: f64) -> f64 {
        let mut offset = 0.0;
        for (seg, &sign) in self.segments.iter().zip(&self.signs) {
            let d = seg.duration();
            if t < offset + d {
                return sign * seg.value(t - offset);
            }
            offset += d;
        }
        0.0
    }

    fn derivative(&self, t: f64) -> f64 {
        let mut offset = 0.0;
        for (seg, &sign) in self.segments.iter().zip(&self.signs) {
            let d = seg.duration();
            if t < offset + d {
                return sign * seg.derivative(t - offset);
            }
            offset += d;
        }
        0.0
    }

    fn duration(&self) -> f64 {
        self.segments.iter().map(|s| s.duration()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_is_zero_at_edges() {
        let p = GaussianPulse::new(1.0, 20.0);
        assert!(p.value(0.0).abs() < 1e-12);
        assert!(p.value(20.0).abs() < 1e-12);
        assert!(p.value(10.0) > 0.9);
        assert_eq!(p.value(-1.0), 0.0);
        assert_eq!(p.value(21.0), 0.0);
    }

    #[test]
    fn gaussian_rotation_area() {
        let p = GaussianPulse::with_rotation(std::f64::consts::FRAC_PI_2, 20.0);
        assert!((p.area() - std::f64::consts::FRAC_PI_4).abs() < 1e-6);
    }

    #[test]
    fn gaussian_derivative_matches_finite_difference() {
        let p = GaussianPulse::new(0.3, 20.0);
        for t in [3.0, 7.5, 10.0, 16.0] {
            let fd = (p.value(t + 1e-6) - p.value(t - 1e-6)) / 2e-6;
            assert!((p.derivative(t) - fd).abs() < 1e-6, "at t={t}");
        }
    }

    #[test]
    fn fourier_zero_at_edges_and_area() {
        let p = FourierPulse::new(vec![0.1, -0.05, 0.02, 0.0, 0.01], 20.0);
        assert!(p.value(0.0).abs() < 1e-12);
        assert!(p.value(20.0).abs() < 1e-9);
        assert!((p.area() - p.exact_area()).abs() < 1e-6);
    }

    #[test]
    fn fourier_derivative_matches_finite_difference() {
        let p = FourierPulse::new(vec![0.1, -0.05, 0.02], 20.0);
        for t in [2.0, 9.0, 14.5] {
            let fd = (p.value(t + 1e-6) - p.value(t - 1e-6)) / 2e-6;
            assert!((p.derivative(t) - fd).abs() < 1e-5, "at t={t}");
        }
    }

    #[test]
    fn sequence_concatenates() {
        let seq = SequencePulse::new(vec![
            (
                Box::new(GaussianPulse::with_rotation(std::f64::consts::PI, 20.0)),
                1.0,
            ),
            (
                Box::new(GaussianPulse::with_rotation(std::f64::consts::PI, 20.0)),
                -1.0,
            ),
        ]);
        assert_eq!(seq.duration(), 40.0);
        assert!(
            (seq.value(10.0) + seq.value(30.0)).abs() < 1e-9,
            "second segment flipped"
        );
        assert!((seq.area()).abs() < 1e-6, "areas cancel");
    }
}
