//! Residual-ZZ calibration: the bridge between the pulse level and the
//! circuit-level error model.
//!
//! For each pulse method, the *cross-region residual factor* `r` is the
//! fraction of a coupling's ZZ strength that still affects the circuit when
//! one of the coupling's qubits carries that method's pulse. It is measured
//! from this repository's own Hamiltonian-level simulations (conditional
//! phase accumulated during the pulse, at the paper's device strength
//! `λ/2π = 200 kHz`), exactly the way a Ramsey experiment would measure it.
//!
//! `r(Gaussian) ≈ 1` (no suppression — a plain pulse even slightly
//! *modulates* the phase but cancels nothing systematically), while the
//! optimized methods reach `r ≪ 1`. The factors feed
//! [`zz_sim::executor::ZzErrorModel::residuals`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use zz_persist::{fnv1a, ArtifactKind, ArtifactStore};
use zz_pulse::khz;
use zz_pulse::library::{id_drive, x90_drive, zx90_drive, PulseMethod};
use zz_pulse::systems::{residual_zz_rate, residual_zz_rate_2q, GateSide};
use zz_sim::executor::ResidualTable;

/// The calibration crosstalk strength (the paper's device value).
pub fn calibration_lambda() -> f64 {
    khz(200.0)
}

/// Measures the full residual table of a method from scratch at
/// crosstalk strength `lambda` (pulse-level simulation). The fleet layer
/// characterizes each backend at *its* currently-believed `λ`, so
/// physically distinct devices (and drifted recalibrations of the same
/// device) get genuinely different tables.
///
/// Each entry is a conditional-phase residual normalized by `λ`: the
/// fraction of crosstalk a neighbor still sees while the given pulse plays.
/// DCG has no two-qubit sequence (paper Sec 7.2.2); its `ZX90` entries fall
/// back to the Gaussian pulse's. Every entry comes from propagating the
/// spectator's `|0⟩` and `|1⟩` halves of the basic region as two
/// independent blocks ([`residual_zz_rate`], [`residual_zz_rate_2q`]),
/// bit for bit what the full-matrix propagation gives.
pub fn measure_residuals_at(method: PulseMethod, lambda: f64) -> ResidualTable {
    let x90 = x90_drive(method);
    let id = id_drive(method);
    let rx = (residual_zz_rate(&x90.as_drive(), lambda) / lambda).min(1.0);
    let ri = (residual_zz_rate(&id.as_drive(), lambda) / lambda).min(1.0);
    let two_q = zx90_drive(method).or_else(|| zx90_drive(PulseMethod::Gaussian));
    let (rc, rt) = match two_q {
        Some(d) => (
            (residual_zz_rate_2q(&d.as_drive(), lambda, GateSide::Control) / lambda).min(1.0),
            (residual_zz_rate_2q(&d.as_drive(), lambda, GateSide::Target) / lambda).min(1.0),
        ),
        None => (1.0, 1.0),
    };
    ResidualTable {
        x90: rx,
        id: ri,
        zx90_control: rc,
        zx90_target: rt,
    }
}

/// A thread-safe, lazily-filled cache of per-method residual tables.
///
/// Each pulse method's table is measured at most once per cache (and the
/// process-wide [`CalibCache::global`] instance therefore measures at most
/// once per process), no matter how many threads ask concurrently — every
/// session worker compiling against the default target shares the global
/// instance.
/// [`calibration_runs`](CalibCache::calibration_runs) exposes how many
/// measurements actually ran, so tests and reports can verify sharing.
#[derive(Debug, Default)]
pub struct CalibCache {
    slots: [OnceLock<ResidualTable>; PulseMethod::ALL.len()],
    runs: AtomicUsize,
    /// Crosstalk strength the tables are measured at; `0.0` is the
    /// sentinel for the paper's [`calibration_lambda`] (kept so
    /// [`new`](Self::new) stays `const` for the process-wide static).
    lambda: f64,
    /// Calibration epoch, salted into every on-disk key when nonzero —
    /// the invalidation hook the fleet layer uses: bumping the epoch
    /// (with a fresh cache) makes every stale disk artifact unreachable
    /// without touching the files of other devices in the same store.
    epoch: u64,
}

impl CalibCache {
    /// Creates an empty cache (nothing measured yet) at the paper's
    /// calibration strength, epoch 0.
    pub const fn new() -> Self {
        CalibCache {
            slots: [const { OnceLock::new() }; PulseMethod::ALL.len()],
            runs: AtomicUsize::new(0),
            lambda: 0.0,
            epoch: 0,
        }
    }

    /// Creates an empty cache that characterizes at the given crosstalk
    /// strength and calibration epoch. It measures at `λ` and keys its
    /// residual tables by `λ` and epoch, and it salts every compiled-plan
    /// key with both ([`salt_compiled_key`](Self::salt_compiled_key)), so
    /// recalibrating a drifted device can never serve — or be served —
    /// stale tables or plans. That holds at every `(λ, epoch)`: epoch 0 at
    /// the paper's [`calibration_lambda`] (the fleet's `paper-grid`
    /// backend before any drift) measures the same tables as
    /// [`new`](Self::new) under the same residual keys, but its compiled
    /// keys are salted where `new()`'s are not.
    pub fn at(lambda: f64, epoch: u64) -> Self {
        assert!(lambda > 0.0, "calibration strength must be positive");
        CalibCache {
            lambda,
            epoch,
            ..CalibCache::new()
        }
    }

    /// The crosstalk strength this cache characterizes at.
    pub fn lambda(&self) -> f64 {
        if self.lambda == 0.0 {
            calibration_lambda()
        } else {
            self.lambda
        }
    }

    /// The calibration epoch salted into this cache's disk keys.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The on-disk key of `method`'s residual table *for this cache*:
    /// the method label mixed with the exact measurement-strength bits
    /// (a recalibrated `λ` can never serve stale tables), then salted
    /// with the epoch when one is set.
    pub fn residual_key(&self, method: PulseMethod) -> u64 {
        epoch_salted(residual_artifact_key_at(method, self.lambda()), self.epoch)
    }

    /// Salts a whole-`Compiled` artifact key with this cache's identity.
    /// For a cache from [`new`](Self::new) (its `λ` sentinel, epoch 0)
    /// this is the identity function, keeping the legacy key space; a
    /// cache from [`at`](Self::at) mixes its `λ` bits and epoch in, even
    /// at the paper `λ` and epoch 0, because the compiled plan embeds the
    /// residual table this cache measured.
    pub fn salt_compiled_key(&self, key: u64) -> u64 {
        if self.lambda == 0.0 && self.epoch == 0 {
            return key;
        }
        epoch_salted(
            zz_persist::fnv1a_mix(key, self.lambda().to_bits()),
            self.epoch,
        )
    }

    /// The process-wide shared instance.
    pub fn global() -> &'static CalibCache {
        static GLOBAL: CalibCache = CalibCache::new();
        &GLOBAL
    }

    /// The cached residual table for `method`, measuring it (at this
    /// cache's `λ`) on first use.
    pub fn residuals(&self, method: PulseMethod) -> ResidualTable {
        *self.slots[slot_index(method)].get_or_init(|| {
            self.runs.fetch_add(1, Ordering::Relaxed);
            measure_residuals_at(method, self.lambda())
        })
    }

    /// How many pulse-level calibration measurements this cache has run
    /// (at most one per pulse method, ever).
    pub fn calibration_runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }

    /// The cached residual table for `method`, consulting `store` before
    /// measuring: on a disk hit the table loads without counting as a
    /// calibration run; on a miss the measurement runs and its result is
    /// persisted for the next process. With no store this measures
    /// exactly as [`residuals`](Self::residuals) does. Also reports *how*
    /// the table was obtained — the pipeline's pulse stage records this
    /// in its [`crate::pipeline::PipelineTrace`]:
    ///
    /// * [`MemoryHit`](crate::pipeline::CacheDisposition::MemoryHit) —
    ///   the slot was already measured (or loaded) in this cache;
    /// * [`DiskHit`](crate::pipeline::CacheDisposition::DiskHit) — the
    ///   table loaded from the store, no measurement ran;
    /// * [`Miss`](crate::pipeline::CacheDisposition::Miss) — a store was
    ///   consulted, missed, and the measurement ran (then published);
    /// * [`NotCached`](crate::pipeline::CacheDisposition::NotCached) —
    ///   no store: the measurement ran, in-memory only.
    pub fn residuals_traced(
        &self,
        method: PulseMethod,
        store: Option<&ArtifactStore>,
    ) -> (ResidualTable, crate::pipeline::CacheDisposition) {
        use crate::pipeline::CacheDisposition;
        // If the closure below never runs, the slot was already filled —
        // by an earlier call or a concurrent thread: a memory hit.
        let mut disposition = CacheDisposition::MemoryHit;
        let table = *self.slots[slot_index(method)].get_or_init(|| {
            let Some(store) = store else {
                disposition = CacheDisposition::NotCached;
                self.runs.fetch_add(1, Ordering::Relaxed);
                return measure_residuals_at(method, self.lambda());
            };
            let key = self.residual_key(method);
            if let Some(table) = store.get::<ResidualTable>(ArtifactKind::Calibration, key) {
                disposition = CacheDisposition::DiskHit;
                return table;
            }
            disposition = CacheDisposition::Miss;
            self.runs.fetch_add(1, Ordering::Relaxed);
            let table = measure_residuals_at(method, self.lambda());
            store.put(ArtifactKind::Calibration, key, &table);
            table
        });
        (table, disposition)
    }
}

/// Mixes a calibration epoch into an on-disk key; epoch 0 leaves the key
/// untouched so the legacy single-device key space (pinned by
/// `tests/golden_keys.rs`) is unchanged.
fn epoch_salted(key: u64, epoch: u64) -> u64 {
    if epoch == 0 {
        key
    } else {
        zz_persist::fnv1a_mix(key, epoch)
    }
}

/// Index of a method's slot in a [`CalibCache`].
fn slot_index(method: PulseMethod) -> usize {
    PulseMethod::ALL
        .iter()
        .position(|&m| m == method)
        .expect("all methods enumerated")
}

/// On-disk key of a method's residual table at the paper's calibration
/// strength (epoch 0). Per-device caches key through
/// [`CalibCache::residual_key`] instead, which folds in their `λ` and
/// calibration epoch.
pub fn residual_artifact_key(method: PulseMethod) -> u64 {
    residual_artifact_key_at(method, calibration_lambda())
}

/// On-disk key of a method's residual table measured at `lambda`: the
/// method label mixed with the exact measurement-strength bits, so a
/// recalibrated device (different `λ`) can never serve stale tables.
pub fn residual_artifact_key_at(method: PulseMethod, lambda: f64) -> u64 {
    // The Display name ("Gaussian", "Pert", …) is stable and part of the
    // on-disk format, like the golden-keyed digests.
    let mut bytes = method.to_string().into_bytes();
    bytes.extend_from_slice(&lambda.to_bits().to_le_bytes());
    fnv1a(&bytes)
}

/// The cached residual table for a method (the process-wide
/// [`CalibCache::global`] instance).
pub fn residuals(method: PulseMethod) -> ResidualTable {
    CalibCache::global().residuals(method)
}

/// The cached scalar summary of a method's suppression strength: the mean
/// of its `X90` and identity residual factors.
///
/// # Example
///
/// ```
/// use zz_core::{calib, PulseMethod};
/// let gauss = calib::residual_factor(PulseMethod::Gaussian);
/// let pert = calib::residual_factor(PulseMethod::Pert);
/// assert!(pert < gauss / 10.0);
/// ```
pub fn residual_factor(method: PulseMethod) -> f64 {
    let t = residuals(method);
    (t.x90 + t.id) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_has_weak_suppression_at_best() {
        let t = residuals(PulseMethod::Gaussian);
        // A plain X90 rotation only partially averages the crosstalk; the
        // pure coupling-drive ZX90 leaves the control side completely
        // unprotected ([Z⊗X, Z⊗I] = 0).
        assert!(t.x90 > 0.4, "Gaussian X90 residual too low: {}", t.x90);
        assert!(
            t.zx90_control > 0.99,
            "control side must be unprotected: {}",
            t.zx90_control
        );
        assert!(
            t.id > 0.2,
            "the Gaussian Rx(2π) echo is only partial: {}",
            t.id
        );
    }

    #[test]
    fn optimized_methods_suppress_strongly() {
        let gauss = residuals(PulseMethod::Gaussian);
        // OptCtrl suppresses only indirectly through the λ-averaged fidelity
        // (the paper's Fig 16 shows the same gap to the first-order
        // methods), while Pert and DCG cancel the first order outright.
        let optctrl = residuals(PulseMethod::OptCtrl);
        assert!(
            optctrl.x90 < gauss.x90 / 3.0,
            "OptCtrl X90 residual {} too close to Gaussian {}",
            optctrl.x90,
            gauss.x90
        );
        for m in [PulseMethod::Pert, PulseMethod::Dcg] {
            let r = residuals(m);
            assert!(
                r.x90 < gauss.x90 / 10.0 && r.id < gauss.id / 10.0,
                "{m} residuals ({}, {}) too close to Gaussian",
                r.x90,
                r.id
            );
        }
        // Pert's two-qubit pulse protects both sides; Gaussian's does not.
        let pert = residuals(PulseMethod::Pert);
        assert!(pert.zx90_control < 0.01 && pert.zx90_target < 0.01);
    }

    #[test]
    fn pert_is_the_strongest_suppressor() {
        let pert = residual_factor(PulseMethod::Pert);
        let dcg = residual_factor(PulseMethod::Dcg);
        assert!(
            pert <= dcg * 2.0,
            "Pert ({pert}) should be at least comparable to DCG ({dcg})"
        );
    }

    #[test]
    fn default_cache_keys_match_the_legacy_key_space() {
        // Epoch 0 at the paper strength must keep the golden-keyed disk
        // layout bit-for-bit: warm stores from earlier releases stay warm.
        let cache = CalibCache::at(calibration_lambda(), 0);
        for m in PulseMethod::ALL {
            assert_eq!(cache.residual_key(m), residual_artifact_key(m), "{m}");
        }
        assert_eq!(CalibCache::new().residual_key(PulseMethod::Pert), {
            residual_artifact_key(PulseMethod::Pert)
        });
    }

    #[test]
    fn every_cache_built_at_a_strength_salts_compiled_keys() {
        let key = 0x1234_5678_9abc_def0;
        assert_eq!(CalibCache::new().salt_compiled_key(key), key);
        // Epoch 0 at the paper strength shares `new()`'s residual keys
        // (above) but not its compiled keys.
        let paper = CalibCache::at(calibration_lambda(), 0);
        assert_ne!(paper.salt_compiled_key(key), key);
        assert_ne!(
            paper.salt_compiled_key(key),
            CalibCache::at(calibration_lambda(), 1).salt_compiled_key(key)
        );
    }

    #[test]
    fn epoch_and_lambda_salt_every_disk_key() {
        let base = CalibCache::new();
        let bumped = CalibCache::at(calibration_lambda(), 1);
        let drifted = CalibCache::at(calibration_lambda() * 1.25, 1);
        for m in PulseMethod::ALL {
            assert_ne!(base.residual_key(m), bumped.residual_key(m), "{m}");
            assert_ne!(bumped.residual_key(m), drifted.residual_key(m), "{m}");
        }
        // Epochs are distinct from each other, not just from 0.
        let later = CalibCache::at(calibration_lambda(), 2);
        for m in PulseMethod::ALL {
            assert_ne!(bumped.residual_key(m), later.residual_key(m), "{m}");
        }
    }

    #[test]
    fn characterization_strength_changes_the_measured_tables() {
        // Pert cancels the first order, so its fractional residual is
        // nonlinear in λ: a 4× stronger device must measure differently.
        let weak = measure_residuals_at(PulseMethod::Pert, calibration_lambda());
        let strong = measure_residuals_at(PulseMethod::Pert, calibration_lambda() * 4.0);
        assert_ne!(weak.x90.to_bits(), strong.x90.to_bits());
        let cache = CalibCache::at(calibration_lambda() * 4.0, 3);
        assert_eq!(
            cache.residuals(PulseMethod::Pert).x90.to_bits(),
            strong.x90.to_bits(),
            "the cache must measure at its own λ"
        );
        assert_eq!(cache.calibration_runs(), 1);
    }

    #[test]
    fn factors_are_probabilistic_fractions() {
        for m in PulseMethod::ALL {
            let r = residual_factor(m);
            assert!((0.0..=1.0).contains(&r), "{m}: {r}");
        }
    }
}
