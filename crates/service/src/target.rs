//! [`Target`]: everything the service knows about one device, in one
//! value.
//!
//! A [`Target`] bundles the four pieces of device state — topology, noise
//! characterization, calibration source and on-disk artifact store — so
//! a [`crate::Session`] (and every request it serves) draws from one
//! coherent description of the machine.

use std::sync::Arc;

use zz_core::calib::CalibCache;
use zz_core::evaluate::try_device_for;
use zz_persist::ArtifactStore;
use zz_sched::GateDurations;
use zz_topology::Topology;

use crate::error::Error;

/// The device a [`crate::Session`] compiles for: topology, ZZ noise
/// characterization, calibration source and optional artifact store.
///
/// **Compile size vs evaluation size.** A target's device may be as large
/// as topology construction allows (hundreds to thousands of qubits):
/// routing and scheduling are polynomial, so compilation through a
/// session works at any of these sizes, and the schedule's
/// [`zz_sched::PlanSummary`] metrics serve as the at-scale fidelity
/// proxy. Only *evaluation* is exponential: it simulates the device
/// register — statevectors and Monte-Carlo trajectories, with exact
/// density matrices up to [`zz_sim::density::EXACT_MAX_QUBITS`] qubits —
/// and stays capped at [`zz_core::evaluate::MAX_EVAL_QUBITS`] device
/// qubits. A request carrying an `EvalSpec` on a larger device fails at
/// evaluation time with a typed `Error::Eval`, never at target
/// construction.
///
/// # Example
///
/// ```
/// use zz_service::Target;
///
/// let target = Target::paper_default();
/// assert_eq!(target.topology().qubit_count(), 12); // the 3×4 grid
///
/// let small = Target::for_qubits(6)?; // the paper's evaluation sub-grid
/// assert_eq!(small.topology().qubit_count(), 6);   // 2×3
///
/// // Beyond the paper's 12-qubit evaluation ceiling, targets scale to
/// // near-square grids (compile-only; evaluation would be rejected).
/// let large = Target::for_qubits(100)?;
/// assert_eq!(large.topology().qubit_count(), 100); // 10×10
///
/// // 1000-qubit-class heavy-hex devices build directly.
/// let hex = Target::heavy_hex(21)?;
/// assert!(hex.topology().qubit_count() > 1000);
/// # Ok::<(), zz_service::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Target {
    topology: Topology,
    lambda_mean: f64,
    lambda_std: f64,
    durations: Option<GateDurations>,
    calib: Option<Arc<CalibCache>>,
    store: Option<Arc<ArtifactStore>>,
}

impl Target {
    /// The paper's device: the 3×4 grid with
    /// `λ ~ N(2π·200 kHz, (2π·50 kHz)²)` crosstalk, process-wide
    /// calibration, no disk store.
    pub fn paper_default() -> Self {
        Target::builder()
            .build()
            .expect("the default target has no failure path")
    }

    /// The smallest grid device holding `n` qubits, with paper-default
    /// noise. Up to 12 qubits this is the paper's evaluation sub-grid
    /// (4 → 2×2, 6 → 2×3, 9 → 3×3, 12 → 3×4); beyond that it is the
    /// smallest near-square grid with at least `n` qubits — compile-only
    /// territory, where fidelity evaluation is replaced by the schedule's
    /// [`zz_sched::PlanSummary`] metrics (see the type-level docs).
    ///
    /// # Errors
    ///
    /// Never fails today (kept fallible for API stability — earlier
    /// releases rejected `n > 12` here, and future builders may attach
    /// failing stores).
    pub fn for_qubits(n: usize) -> Result<Self, Error> {
        let topology = try_device_for(n).unwrap_or_else(|| large_grid_for(n));
        Target::builder().topology(topology).build()
    }

    /// A heavy-hex lattice target of the given distance (IBM-style
    /// large-device topology; `d = 21` exceeds 1000 qubits), with
    /// paper-default noise. Compile-only above
    /// [`zz_core::evaluate::MAX_EVAL_QUBITS`].
    ///
    /// # Errors
    ///
    /// Never fails today (fallible for the same API-stability reason as
    /// [`for_qubits`](Self::for_qubits)).
    pub fn heavy_hex(distance: usize) -> Result<Self, Error> {
        Target::builder()
            .topology(Topology::heavy_hex(distance))
            .build()
    }

    /// Starts building a target (defaults: the paper device of
    /// [`Target::paper_default`]).
    pub fn builder() -> TargetBuilder {
        TargetBuilder::default()
    }

    /// The device topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mean ZZ crosstalk strength (rad/ns).
    pub fn lambda_mean(&self) -> f64 {
        self.lambda_mean
    }

    /// ZZ crosstalk standard deviation (rad/ns).
    pub fn lambda_std(&self) -> f64 {
        self.lambda_std
    }

    /// Device-measured gate-duration override; `None` = each pulse
    /// method's library durations.
    pub fn durations(&self) -> Option<&GateDurations> {
        self.durations.as_ref()
    }

    /// The calibration cache serving this target's residual lookups (the
    /// process-wide [`CalibCache::global`] unless the builder installed
    /// a dedicated one).
    pub fn calib(&self) -> &CalibCache {
        match &self.calib {
            Some(cache) => cache,
            None => CalibCache::global(),
        }
    }

    /// The dedicated calibration cache, when one was installed.
    pub(crate) fn calib_arc(&self) -> Option<Arc<CalibCache>> {
        self.calib.clone()
    }

    /// The on-disk artifact store backing this target, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_deref()
    }

    pub(crate) fn store_arc(&self) -> Option<Arc<ArtifactStore>> {
        self.store.clone()
    }
}

/// Builder for [`Target`].
#[derive(Debug, Default)]
pub struct TargetBuilder {
    topology: Option<Topology>,
    lambda_mean: Option<f64>,
    lambda_std: Option<f64>,
    durations: Option<GateDurations>,
    calib: Option<Arc<CalibCache>>,
    store: Option<Arc<ArtifactStore>>,
    store_dir: Option<std::path::PathBuf>,
}

impl TargetBuilder {
    /// Sets the device topology (default: the paper's 3×4 grid).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the ZZ noise characterization (default: the paper's
    /// `λ ~ N(2π·200 kHz, (2π·50 kHz)²)`).
    pub fn noise(mut self, lambda_mean: f64, lambda_std: f64) -> Self {
        self.lambda_mean = Some(lambda_mean);
        self.lambda_std = Some(lambda_std);
        self
    }

    /// Overrides the gate durations for every compile on this target
    /// (default: each pulse method's library durations).
    pub fn durations(mut self, durations: GateDurations) -> Self {
        self.durations = Some(durations);
        self
    }

    /// Serves calibration from a dedicated cache instead of the
    /// process-wide [`CalibCache::global`] — multi-tenant services and
    /// tests isolate per-target calibration state through this.
    pub fn calib_cache(mut self, cache: Arc<CalibCache>) -> Self {
        self.calib = Some(cache);
        self
    }

    /// Backs the target with an already-open artifact store.
    pub fn store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Backs the target with an on-disk store rooted at `dir`. Unlike
    /// the silently-degrading [`ArtifactStore::at`], the directory is
    /// probed at [`build`](Self::build) time and an uncreatable or
    /// unwritable root is a typed [`Error::Persist`].
    pub fn store_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Backs the target with the store named by the `ZZ_CACHE_DIR`
    /// environment variable; a no-op when the variable is unset or
    /// empty. (The environment opt-in keeps the store's silent-degrade
    /// policy: an unusable directory falls back to in-memory caching
    /// rather than failing the build.)
    pub fn store_from_env(mut self) -> Self {
        if let Some(store) = ArtifactStore::from_env() {
            self.store = Some(Arc::new(store));
        }
        self
    }

    /// Finishes the builder.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persist`] when a [`store_dir`](Self::store_dir)
    /// root cannot be created or written.
    pub fn build(self) -> Result<Target, Error> {
        let store = match self.store_dir {
            Some(dir) => {
                probe_writable(&dir)?;
                Some(Arc::new(ArtifactStore::at(dir)))
            }
            None => self.store,
        };
        Ok(Target {
            topology: self.topology.unwrap_or_else(|| Topology::grid(3, 4)),
            lambda_mean: self.lambda_mean.unwrap_or_else(|| zz_sim::khz(200.0)),
            lambda_std: self.lambda_std.unwrap_or_else(|| zz_sim::khz(50.0)),
            durations: self.durations,
            calib: self.calib,
            store,
        })
    }
}

/// The smallest near-square grid with at least `n` qubits: rows is the
/// integer square root of `n`, columns whatever covers the remainder
/// (100 → 10×10, 1000 → 31×33).
fn large_grid_for(n: usize) -> Topology {
    let n = n.max(1);
    let rows = ((n as f64).sqrt().floor() as usize).max(1);
    let cols = n.div_ceil(rows);
    Topology::grid(rows, cols)
}

/// Verifies that `dir` exists (creating it if needed) and accepts a
/// write, so a misconfigured cache root fails target construction with a
/// typed error instead of silently degrading on every request.
fn probe_writable(dir: &std::path::Path) -> Result<(), Error> {
    std::fs::create_dir_all(dir).map_err(|e| Error::Persist {
        detail: format!("cache root {} cannot be created: {e}", dir.display()),
    })?;
    let probe = dir.join(format!(".zz-probe-{}", std::process::id()));
    std::fs::write(&probe, b"probe").map_err(|e| Error::Persist {
        detail: format!("cache root {} is not writable: {e}", dir.display()),
    })?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_qubits_matches_the_paper_devices() {
        for (n, qubits) in [(1, 4), (4, 4), (6, 6), (7, 9), (9, 9), (10, 12), (12, 12)] {
            assert_eq!(
                Target::for_qubits(n)
                    .expect("fits")
                    .topology()
                    .qubit_count(),
                qubits,
                "n = {n}"
            );
        }
    }

    #[test]
    fn large_targets_build_near_square_grids() {
        for (n, qubits) in [(13, 15), (100, 100), (500, 506), (1000, 1023)] {
            let target = Target::for_qubits(n).expect("grids always build");
            assert!(
                target.topology().qubit_count() >= n,
                "n = {n}: got {}",
                target.topology().qubit_count()
            );
            assert_eq!(target.topology().qubit_count(), qubits, "n = {n}");
        }
    }

    #[test]
    fn heavy_hex_targets_reach_a_thousand_qubits() {
        let target = Target::heavy_hex(21).expect("builds");
        assert!(target.topology().qubit_count() >= 1000);
        assert!(target.topology().name().starts_with("heavy-hex"));
    }

    #[test]
    fn unwritable_store_dir_is_a_persist_error() {
        // A path *under a regular file* can never be created.
        let file = std::env::temp_dir().join(format!("zz-target-probe-{}", std::process::id()));
        std::fs::write(&file, b"occupied").expect("temp file");
        let result = Target::builder().store_dir(file.join("sub")).build();
        assert!(matches!(result, Err(Error::Persist { .. })), "{result:?}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn writable_store_dir_builds() {
        let dir = std::env::temp_dir().join(format!("zz-target-store-{}", std::process::id()));
        let target = Target::builder().store_dir(&dir).build().expect("writable");
        assert!(target.store().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
