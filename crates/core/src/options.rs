//! [`CompileOptions`]: the one request-configuration struct of a compile
//! request — pulse method, scheduler, the α weight and top-k budget of
//! Algorithm 1, and the suppression requirement `R`. The service layer's
//! `CompileRequest` and wire envelope carry it.
//!
//! The α/k/requirement knobs are *optional*: `None` means "use the
//! engine default" ([`DEFAULT_ALPHA`], [`DEFAULT_K`], and the
//! topology-derived paper requirement respectively), so a request
//! overrides just the knobs it names.
//!
//! The same struct configures a `PassManager`, keys and verifies the
//! whole-plan disk artifact, and crosses the wire: its one codec
//! (`zz_core::persist`) writes method, scheduler, α, k and R in that
//! order, each knob as given.

use zz_pulse::library::PulseMethod;
use zz_sched::zzx::Requirement;
pub use zz_sched::zzx::{DEFAULT_ALPHA, DEFAULT_K};

use crate::{CoOptError, SchedulerKind};

/// The pulse/scheduling configuration of one compile request (carried by
/// the service layer's `CompileRequest`).
///
/// # Example
///
/// ```
/// use zz_core::{CompileOptions, PulseMethod, SchedulerKind};
///
/// let opts = CompileOptions::new(PulseMethod::Pert, SchedulerKind::ZzxSched)
///     .with_alpha(0.25);
/// assert_eq!(opts.alpha_or_default(), 0.25);
/// assert_eq!(opts.k_or_default(), zz_core::options::DEFAULT_K);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompileOptions {
    /// The pulse method to calibrate for.
    pub method: PulseMethod,
    /// The scheduling policy.
    pub scheduler: SchedulerKind,
    /// The NQ-vs-NC weight α of Algorithm 1; `None` = [`DEFAULT_ALPHA`].
    pub alpha: Option<f64>,
    /// The top-k path-relaxing budget of Algorithm 1; `None` =
    /// [`DEFAULT_K`].
    pub k: Option<usize>,
    /// The suppression requirement `R`; `None` = the paper requirement
    /// derived from the device.
    pub requirement: Option<Requirement>,
}

impl Default for CompileOptions {
    /// The paper's co-optimization defaults: `Pert` pulses under
    /// `ZZXSched`, engine-default α/k, paper requirement.
    fn default() -> Self {
        CompileOptions::new(PulseMethod::Pert, SchedulerKind::ZzxSched)
    }
}

impl CompileOptions {
    /// Options for a `(method, scheduler)` pair with every other knob at
    /// its engine default.
    pub fn new(method: PulseMethod, scheduler: SchedulerKind) -> Self {
        CompileOptions {
            method,
            scheduler,
            alpha: None,
            k: None,
            requirement: None,
        }
    }

    /// Sets the pulse method.
    pub fn with_method(mut self, method: PulseMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets the scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Overrides the NQ-vs-NC weight α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Overrides the top-k path-relaxing budget.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Overrides the suppression requirement `R`.
    pub fn with_requirement(mut self, requirement: Requirement) -> Self {
        self.requirement = Some(requirement);
        self
    }

    /// The effective α: the override, or [`DEFAULT_ALPHA`].
    pub fn alpha_or_default(&self) -> f64 {
        self.alpha.unwrap_or(DEFAULT_ALPHA)
    }

    /// The effective top-k budget: the override, or [`DEFAULT_K`].
    pub fn k_or_default(&self) -> usize {
        self.k.unwrap_or(DEFAULT_K)
    }

    /// Checks the α, k and `R` overrides before they reach the scheduler:
    /// α must be finite and non-negative (NaN would make every score
    /// comparison false), k at least 1, and `R`'s `nq_limit` at least 1
    /// (`NQ < 0` never holds, so every multi-gate layer would serialize).
    /// Unset knobs stand for the engine defaults and always pass.
    ///
    /// # Errors
    ///
    /// [`CoOptError::InvalidOption`] naming the first field out of range,
    /// in the order α, k, `nq_limit`.
    pub fn validate(&self) -> Result<(), CoOptError> {
        let field = if self.alpha.is_some_and(|a| !(a.is_finite() && a >= 0.0)) {
            "alpha"
        } else if self.k == Some(0) {
            "k"
        } else if self.requirement.is_some_and(|r| r.nq_limit == 0) {
            "nq_limit"
        } else {
            return Ok(());
        };
        Err(CoOptError::InvalidOption {
            field: field.to_string(),
        })
    }

    /// The default label for a request with these options
    /// (`"{method}+{scheduler}"` — the figure legend style).
    pub fn default_label(&self) -> String {
        format!("{}+{}", self.method, self.scheduler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_win_over_bases() {
        let opts = CompileOptions::default().with_alpha(2.0);
        assert_eq!(opts.alpha_or_default(), 2.0, "set knobs ignore the default");
        assert_eq!(opts.k_or_default(), DEFAULT_K, "unset knobs defer to it");
        let req = Requirement {
            nq_limit: 1,
            nc_limit: 1,
        };
        assert_eq!(opts.with_requirement(req).requirement, Some(req));
    }

    #[test]
    fn out_of_range_knobs_are_named() {
        let field = |opts: CompileOptions| match opts.validate() {
            Err(CoOptError::InvalidOption { field }) => field,
            other => panic!("expected InvalidOption, got {other:?}"),
        };
        let opts = CompileOptions::default();
        for alpha in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e-300] {
            assert_eq!(field(opts.with_alpha(alpha)), "alpha", "alpha = {alpha}");
        }
        assert_eq!(field(opts.with_k(0)), "k");
        let err = opts.with_k(0).validate().unwrap_err().to_string();
        assert!(err.contains("option k"), "{err}");
        let unmeetable = Requirement {
            nq_limit: 0,
            nc_limit: 0,
        };
        assert_eq!(field(opts.with_requirement(unmeetable)), "nq_limit");
        // α is checked first.
        assert_eq!(field(opts.with_k(0).with_alpha(f64::NAN)), "alpha");

        assert_eq!(opts.validate(), Ok(()), "the defaults pass");
        for alpha in [0.0, -0.0, 0.5, 1e300] {
            assert_eq!(opts.with_alpha(alpha).validate(), Ok(()), "alpha = {alpha}");
        }
        assert_eq!(opts.with_k(1).validate(), Ok(()));
    }

    #[test]
    fn default_matches_the_paper_co_optimization() {
        let opts = CompileOptions::default();
        assert_eq!(opts.method, PulseMethod::Pert);
        assert_eq!(opts.scheduler, SchedulerKind::ZzxSched);
        assert_eq!(opts.alpha_or_default(), DEFAULT_ALPHA);
        assert_eq!(opts.k_or_default(), DEFAULT_K);
        assert_eq!(opts.default_label(), "Pert+ZZXSched");
    }
}
