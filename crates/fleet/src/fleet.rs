//! [`Fleet`]: N named backends behind one dispatch decision.
//!
//! Each backend is a full [`zz_service::Session`] built from a
//! [`DeviceProfile`] — its own topology, noise characterization,
//! dedicated [`CalibCache`] and (when the fleet has a store root) its
//! own artifact shard under `<root>/<device>/`. [`Fleet::submit`]
//! compiles a job on every backend that can hold it, scores each
//! candidate with a predicted fidelity, and dispatches to the best;
//! [`Fleet::advance_epoch`] drifts every device's ground-truth ZZ
//! characterization and re-characterizes (invalidating the stale
//! calibration artifacts) any device that drifted past the configured
//! threshold.
//!
//! # Determinism
//!
//! Every decision is a pure function of the fleet's configuration and
//! the job stream: drift is stateless in `(seed, device, epoch)`,
//! scoring runs on the caller thread through the bit-identical batched
//! engine, and ties break toward the earliest-registered device. Worker
//! thread counts affect throughput only — never a dispatch.

use std::path::PathBuf;
use std::sync::Arc;

use zz_circuit::Circuit;
use zz_core::calib::CalibCache;
use zz_core::evaluate::{EvalConfig, DECOHERENCE_SEED, MAX_EVAL_QUBITS};
use zz_obs::{Counter, Event, EventLog, Gauge, Registry};
use zz_persist::ArtifactStore;
use zz_service::{CompileOptions, CompileRequest, CompileResponse, EvalSpec, Session, Target};
use zz_topology::Topology;

use crate::drift::DriftModel;
use crate::profile::DeviceProfile;
use crate::report::{DeviceReport, FleetReport};

/// Why a fleet operation failed.
#[derive(Debug)]
pub enum FleetError {
    /// A device with this name is already registered.
    DuplicateDevice {
        /// The offending name.
        device: String,
    },
    /// No registered device goes by this name.
    UnknownDevice {
        /// The requested name.
        device: String,
    },
    /// No registered backend can hold the submitted circuit.
    NoEligibleBackend {
        /// Qubits the job needs.
        qubits: usize,
    },
    /// A backend's session failed (target construction or compile).
    Service {
        /// The backend the failure happened on.
        device: String,
        /// The underlying service error.
        source: zz_service::Error,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::DuplicateDevice { device } => {
                write!(f, "device '{device}' is already registered")
            }
            FleetError::UnknownDevice { device } => {
                write!(f, "no device named '{device}' is registered")
            }
            FleetError::NoEligibleBackend { qubits } => {
                write!(f, "no registered backend holds {qubits} qubits")
            }
            FleetError::Service { device, source } => {
                write!(f, "backend '{device}' failed: {source}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Service { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Tuning knobs for a [`Fleet`].
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Seed for the drift walk (and everything else the fleet ever
    /// randomizes). Two fleets with equal seeds and job streams make
    /// bit-identical decisions.
    pub seed: u64,
    /// Per-epoch fractional drift step bound (see
    /// [`DriftModel::with_step`]).
    pub drift_step: f64,
    /// Fractional deviation of the ground-truth mean λ from the
    /// calibrated one beyond which an epoch invalidates the device's
    /// calibration and re-characterizes.
    pub invalidation_threshold: f64,
    /// Worker threads per backend session. [`Fleet::submit`] compiles
    /// and scores each candidate in turn on the caller thread through
    /// `Session::compile`, so these pools serve only jobs submitted to a
    /// device session directly; dispatch decisions are
    /// thread-count-invariant.
    pub threads_per_device: usize,
    /// Disorder seeds for simulation-based scoring of small devices.
    pub eval_seeds: Vec<u64>,
    /// Monte-Carlo trajectories for decoherence during scoring (used
    /// only above the exact density-matrix register size).
    pub trajectories: usize,
    /// Root directory for per-device artifact shards; `None` keeps every
    /// backend in-memory.
    pub store_root: Option<PathBuf>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0x5eed,
            drift_step: 0.08,
            invalidation_threshold: 0.10,
            threads_per_device: 2,
            eval_seeds: vec![11, 23, 37],
            trajectories: 12,
            store_root: None,
        }
    }
}

/// How one candidate backend was scored during a dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoreKind {
    /// Density-matrix / trajectory simulation at the calibrated noise
    /// (devices within [`MAX_EVAL_QUBITS`]).
    Simulated,
    /// The analytic plan-metrics proxy
    /// (`exp(-λ·residual_zz_weight) · exp(-duration/T2)`).
    PlanMetrics,
}

/// One candidate's predicted fidelity during a dispatch.
#[derive(Clone, Debug)]
pub struct CandidateScore {
    /// The backend's device name.
    pub device: String,
    /// Predicted fidelity in `[0, 1]` (comparable across backends).
    pub score: f64,
    /// Which predictor produced the score.
    pub kind: ScoreKind,
}

/// The recorded outcome of one [`Fleet::submit`].
#[derive(Debug)]
pub struct Dispatch {
    /// The job label.
    pub label: String,
    /// The winning backend's device name.
    pub device: String,
    /// The winner's predicted fidelity.
    pub score: f64,
    /// Every eligible candidate's score, in registration order.
    pub candidates: Vec<CandidateScore>,
    /// The winning backend's compile response.
    pub response: CompileResponse,
}

/// One device's recalibration during an epoch.
#[derive(Clone, Debug)]
pub struct Invalidation {
    /// The recalibrated device.
    pub device: String,
    /// The calibrated mean λ the device had before (rad/ns).
    pub previous_lambda: f64,
    /// The freshly characterized mean λ (rad/ns).
    pub new_lambda: f64,
    /// Fractional deviation that tripped the threshold.
    pub deviation: f64,
}

/// What one [`Fleet::advance_epoch`] did.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// The epoch the fleet is now at.
    pub epoch: u64,
    /// Devices whose calibration was invalidated and re-characterized,
    /// in registration order.
    pub invalidations: Vec<Invalidation>,
}

/// The fleet's standing metric handles (names under `fleet.*`).
#[derive(Debug)]
struct FleetMetrics {
    /// `fleet.dispatch` — jobs dispatched.
    dispatch: Arc<Counter>,
    /// `fleet.drift.invalidations` — calibrations invalidated by drift.
    invalidations: Arc<Counter>,
    /// `fleet.epoch` — the current epoch.
    epoch: Arc<Gauge>,
}

/// One registered backend: profile, live session, current calibration
/// and ground truth.
#[derive(Debug)]
struct Backend {
    profile: DeviceProfile,
    topology: Topology,
    session: Session,
    calib: Arc<CalibCache>,
    store: Option<Arc<ArtifactStore>>,
    /// The mean λ the device *actually* has right now (drifted).
    true_lambda: f64,
    /// The mean λ the current calibration characterized.
    calibrated_lambda: f64,
    /// The epoch the current calibration was taken at.
    calibrated_epoch: u64,
    jobs: usize,
    invalidations: usize,
    score_sum: f64,
    score_count: usize,
    last_score: f64,
    /// `fleet.device.<name>.jobs` — jobs dispatched here.
    jobs_metric: Arc<Counter>,
    /// `fleet.device.<name>.lambda_khz` — calibrated mean λ in kHz.
    lambda_metric: Arc<Gauge>,
}

impl Backend {
    fn small(&self) -> bool {
        self.topology.qubit_count() <= MAX_EVAL_QUBITS
    }
}

/// N named backends, one dispatch decision. See the [crate
/// docs](crate) for the model and the determinism contract.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    drift: DriftModel,
    epoch: u64,
    backends: Vec<Backend>,
    registry: Arc<Registry>,
    events: EventLog,
    metrics: FleetMetrics,
    jobs: usize,
}

impl Fleet {
    /// An empty fleet with the given configuration; register backends
    /// with [`add_device`](Self::add_device).
    pub fn new(config: FleetConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let metrics = FleetMetrics {
            dispatch: registry.counter("fleet.dispatch"),
            invalidations: registry.counter("fleet.drift.invalidations"),
            epoch: registry.gauge("fleet.epoch"),
        };
        Fleet {
            drift: DriftModel::new(config.seed).with_step(config.drift_step),
            config,
            epoch: 0,
            backends: Vec::new(),
            registry,
            events: EventLog::from_env(),
            metrics,
            jobs: 0,
        }
    }

    /// A fleet over the three shipped profiles
    /// ([`DeviceProfile::standard_fleet`]).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Service`] when a backend's store shard or
    /// target cannot be built.
    pub fn standard(config: FleetConfig) -> Result<Self, FleetError> {
        let mut fleet = Fleet::new(config);
        for profile in DeviceProfile::standard_fleet() {
            fleet.add_device(profile)?;
        }
        Ok(fleet)
    }

    /// Registers a backend built from `profile`: a dedicated calibration
    /// cache at the profile's nominal λ, a per-device artifact shard
    /// when the fleet has a store root, and a session over them.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateDevice`] when the name is taken,
    /// [`FleetError::Service`] when the profile's decoherence times fail
    /// [`Decoherence::check`](zz_sim::density::Decoherence::check) (an
    /// [`Eval`](zz_service::Error::Eval) error naming the field) or the
    /// target cannot be built.
    pub fn add_device(&mut self, profile: DeviceProfile) -> Result<(), FleetError> {
        if self.backends.iter().any(|b| b.profile.name == profile.name) {
            return Err(FleetError::DuplicateDevice {
                device: profile.name.clone(),
            });
        }
        profile
            .decoherence()
            .check()
            .map_err(|detail| eval_error(&profile.name, profile.name.clone(), detail))?;
        let store = self
            .config
            .store_root
            .as_ref()
            .map(|root| Arc::new(ArtifactStore::at(root).shard(&profile.name)));
        let true_lambda = profile.lambda_mean; // epoch 0: no drift yet
        let (session, calib) = build_session(
            &profile,
            true_lambda,
            0,
            store.clone(),
            self.config.threads_per_device,
        )?;
        let jobs_metric = self
            .registry
            .counter(&format!("fleet.device.{}.jobs", profile.name));
        let lambda_metric = self
            .registry
            .gauge(&format!("fleet.device.{}.lambda_khz", profile.name));
        lambda_metric.set(as_khz(true_lambda));
        let topology = profile.topology();
        self.backends.push(Backend {
            topology,
            session,
            calib,
            store,
            true_lambda,
            calibrated_lambda: true_lambda,
            calibrated_epoch: 0,
            jobs: 0,
            invalidations: 0,
            score_sum: 0.0,
            score_count: 0,
            last_score: f64::NAN,
            jobs_metric,
            lambda_metric,
            profile,
        });
        Ok(())
    }

    /// The registered device names, in registration order.
    pub fn devices(&self) -> Vec<&str> {
        self.backends
            .iter()
            .map(|b| b.profile.name.as_str())
            .collect()
    }

    /// The current epoch (0 until the first
    /// [`advance_epoch`](Self::advance_epoch)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The fleet's metrics registry (`fleet.*` counters and per-device
    /// gauges) — hand it to `zz_net::Server::bind_with_stats` to surface
    /// fleet stats through a device server's Stats endpoint.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The ground-truth (drifted) mean λ of a device — what the hardware
    /// actually does right now, as opposed to what its calibration says.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownDevice`] for an unregistered name.
    pub fn true_lambda(&self, device: &str) -> Result<f64, FleetError> {
        Ok(self.backend(device)?.true_lambda)
    }

    /// The mean λ the device's current calibration characterized.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownDevice`] for an unregistered name.
    pub fn calibrated_lambda(&self, device: &str) -> Result<f64, FleetError> {
        Ok(self.backend(device)?.calibrated_lambda)
    }

    /// Compiles `circuit` on every backend that holds it, scores each
    /// candidate with its predicted fidelity — simulation at the
    /// calibrated noise for devices within [`MAX_EVAL_QUBITS`], the
    /// plan-metrics proxy above — and dispatches to the best (ties break
    /// toward the earliest-registered device).
    ///
    /// # Errors
    ///
    /// [`FleetError::NoEligibleBackend`] when no backend holds the
    /// circuit, [`FleetError::Service`] when a candidate compile fails.
    pub fn submit(
        &mut self,
        circuit: Circuit,
        options: CompileOptions,
    ) -> Result<Dispatch, FleetError> {
        let qubits = circuit.qubit_count();
        let circuit = Arc::new(circuit);
        self.jobs += 1;
        let label = format!("job-{}-{}", self.jobs, options.default_label());

        let mut candidates = Vec::new();
        let mut best: Option<(usize, f64)> = None;
        for (index, backend) in self.backends.iter_mut().enumerate() {
            if backend.topology.qubit_count() < qubits {
                continue;
            }
            let mut request = CompileRequest::shared(Arc::clone(&circuit))
                .with_options(options)
                .with_label(format!("{label}@{}", backend.profile.name));
            let kind = if backend.small() {
                request = request.with_eval(EvalSpec {
                    crosstalk_seeds: self.config.eval_seeds.clone(),
                    decoherence: Some((
                        backend.profile.decoherence(),
                        self.config.trajectories,
                        DECOHERENCE_SEED,
                    )),
                });
                ScoreKind::Simulated
            } else {
                ScoreKind::PlanMetrics
            };
            let response =
                backend
                    .session
                    .compile(&request)
                    .map_err(|source| FleetError::Service {
                        device: backend.profile.name.clone(),
                        source,
                    })?;
            let score = match kind {
                ScoreKind::Simulated => response.fidelity.expect("eval was requested"),
                ScoreKind::PlanMetrics => {
                    plan_metrics_score(&response, backend.calibrated_lambda, backend.profile.t2_us)
                }
            };
            backend.score_sum += score;
            backend.score_count += 1;
            backend.last_score = score;
            candidates.push((
                index,
                CandidateScore {
                    device: backend.profile.name.clone(),
                    score,
                    kind,
                },
                response,
            ));
            if best.is_none_or(|(_, top)| score > top) {
                best = Some((index, score));
            }
        }
        let Some((winner, score)) = best else {
            return Err(FleetError::NoEligibleBackend { qubits });
        };

        let mut response = None;
        let mut scores = Vec::with_capacity(candidates.len());
        for (index, candidate, r) in candidates {
            if index == winner {
                response = Some(r);
            }
            scores.push(candidate);
        }
        let response = response.expect("the winner was a candidate");
        let backend = &mut self.backends[winner];
        backend.jobs += 1;
        backend.jobs_metric.inc();
        self.metrics.dispatch.inc();
        self.events.emit(
            &Event::new("fleet.dispatch")
                .field("label", label.as_str())
                .field("device", backend.profile.name.as_str())
                .field("score", score),
        );
        Ok(Dispatch {
            label,
            device: backend.profile.name.clone(),
            score,
            candidates: scores,
            response,
        })
    }

    /// Advances simulated time by one calibration epoch: every device's
    /// ground-truth λ takes one drift step, and any device whose
    /// calibration now deviates beyond the configured threshold is
    /// re-characterized — its calibration cache is replaced by a fresh
    /// one at the new λ with epoch-salted disk keys, and its session is
    /// rebuilt around it, so no compile after this call can reuse a
    /// stale calibration artifact. Other devices' shards are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Service`] when a recalibrated backend's
    /// target cannot be rebuilt.
    pub fn advance_epoch(&mut self) -> Result<EpochReport, FleetError> {
        self.epoch += 1;
        self.metrics.epoch.set(self.epoch as i64);
        let mut invalidations = Vec::new();
        for backend in &mut self.backends {
            backend.true_lambda = self.drift.lambda_at(
                backend.profile.lambda_mean,
                &backend.profile.name,
                self.epoch,
            );
            let deviation =
                (backend.true_lambda - backend.calibrated_lambda).abs() / backend.calibrated_lambda;
            if deviation <= self.config.invalidation_threshold {
                continue;
            }
            let previous_lambda = backend.calibrated_lambda;
            let (session, calib) = build_session(
                &backend.profile,
                backend.true_lambda,
                self.epoch,
                backend.store.clone(),
                self.config.threads_per_device,
            )?;
            backend.session = session;
            backend.calib = calib;
            backend.calibrated_lambda = backend.true_lambda;
            backend.calibrated_epoch = self.epoch;
            backend.invalidations += 1;
            backend.lambda_metric.set(as_khz(backend.true_lambda));
            self.metrics.invalidations.inc();
            self.registry
                .counter(&format!(
                    "fleet.device.{}.invalidations",
                    backend.profile.name
                ))
                .inc();
            self.events.emit(
                &Event::new("fleet.drift.invalidate")
                    .field("device", backend.profile.name.as_str())
                    .field("epoch", self.epoch)
                    .field("deviation", deviation),
            );
            invalidations.push(Invalidation {
                device: backend.profile.name.clone(),
                previous_lambda,
                new_lambda: backend.true_lambda,
                deviation,
            });
        }
        self.events.emit(
            &Event::new("fleet.epoch")
                .field("epoch", self.epoch)
                .field("invalidations", invalidations.len() as u64),
        );
        Ok(EpochReport {
            epoch: self.epoch,
            invalidations,
        })
    }

    /// The *actual* fidelity a small device would deliver on `circuit`
    /// right now: simulation under the ground-truth (drifted) λ rather
    /// than the calibrated one the dispatch predictor uses. The spread
    /// between this and the dispatch score is the fidelity cost of
    /// stale calibration. The simulation runs through the device's
    /// session ([`Session::evaluate`]), so it is counted there like a
    /// dispatch's scoring: `engine.*` and `session.eval.wall_us`.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] for an unregistered name, and
    /// [`FleetError::Service`] when the device is above
    /// [`MAX_EVAL_QUBITS`] or the fleet's scoring config fails
    /// [`EvalConfig::check`] (no eval seeds, zero trajectories) — both
    /// checked before anything compiles — or when the compile fails.
    pub fn ground_truth_fidelity(
        &self,
        device: &str,
        circuit: Circuit,
        options: CompileOptions,
    ) -> Result<f64, FleetError> {
        let backend = self.backend(device)?;
        if !backend.small() {
            return Err(eval_error(
                device,
                options.default_label(),
                format!(
                    "{} qubits exceed the evaluation ceiling of {MAX_EVAL_QUBITS}",
                    backend.topology.qubit_count()
                ),
            ));
        }
        let config = EvalConfig {
            lambda_mean: backend.true_lambda,
            lambda_std: backend.profile.lambda_std,
            crosstalk_seeds: self.config.eval_seeds.clone(),
            circuit_seed: 0,
            decoherence: Some((
                backend.profile.decoherence(),
                self.config.trajectories,
                DECOHERENCE_SEED,
            )),
        };
        config
            .check()
            .map_err(|detail| eval_error(device, options.default_label(), detail))?;
        let request = CompileRequest::new(circuit).with_options(options);
        let service_error = |source| FleetError::Service {
            device: device.to_string(),
            source,
        };
        let response = backend.session.compile(&request).map_err(service_error)?;
        backend
            .session
            .evaluate(&request.label, &response.compiled, &config)
            .map_err(service_error)
    }

    /// Aggregates per-device job counts, scores, invalidations,
    /// calibration state and cache statistics into a [`FleetReport`].
    pub fn report(&self) -> FleetReport {
        FleetReport {
            epoch: self.epoch,
            dispatches: self.metrics.dispatch.get(),
            invalidations: self.metrics.invalidations.get(),
            devices: self
                .backends
                .iter()
                .map(|b| DeviceReport {
                    device: b.profile.name.clone(),
                    qubits: b.topology.qubit_count(),
                    jobs: b.jobs,
                    invalidations: b.invalidations,
                    calibrated_epoch: b.calibrated_epoch,
                    calibrated_lambda: b.calibrated_lambda,
                    true_lambda: b.true_lambda,
                    mean_score: if b.score_count == 0 {
                        f64::NAN
                    } else {
                        b.score_sum / b.score_count as f64
                    },
                    last_score: b.last_score,
                    calibration_runs: b.calib.calibration_runs(),
                    store: b.store.as_ref().map(|s| s.stats()),
                })
                .collect(),
        }
    }

    /// A device's session — compile directly against one backend,
    /// bypassing dispatch (tests and benches use this to probe cache
    /// state).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownDevice`] for an unregistered name.
    pub fn session(&self, device: &str) -> Result<&Session, FleetError> {
        Ok(&self.backend(device)?.session)
    }

    fn backend(&self, device: &str) -> Result<&Backend, FleetError> {
        self.backends
            .iter()
            .find(|b| b.profile.name == device)
            .ok_or_else(|| FleetError::UnknownDevice {
                device: device.to_string(),
            })
    }
}

/// Builds one backend's session: a dedicated calibration cache at
/// `(lambda, epoch)` — epoch-salting every calibration disk key — and a
/// target characterized at that λ over the device's shard.
fn build_session(
    profile: &DeviceProfile,
    lambda: f64,
    epoch: u64,
    store: Option<Arc<ArtifactStore>>,
    threads: usize,
) -> Result<(Session, Arc<CalibCache>), FleetError> {
    let calib = Arc::new(CalibCache::at(lambda, epoch));
    let mut builder = Target::builder()
        .topology(profile.topology())
        .noise(lambda, profile.lambda_std)
        .durations(profile.durations)
        .calib_cache(Arc::clone(&calib));
    if let Some(store) = store {
        builder = builder.store(store);
    }
    let target = builder.build().map_err(|source| FleetError::Service {
        device: profile.name.clone(),
        source,
    })?;
    Ok((Session::with_threads(target, threads), calib))
}

/// An evaluation failure of `job` on `device`, as the typed service error.
fn eval_error(device: &str, job: String, detail: String) -> FleetError {
    FleetError::Service {
        device: device.to_string(),
        source: zz_service::Error::Eval { job, detail },
    }
}

/// The analytic fidelity proxy for devices above the evaluation ceiling:
/// first-order residual-ZZ dephasing `exp(-λ·Σ NC·duration)` times the
/// decoherence envelope `exp(-duration/T2)`. Monotone in the plan
/// metrics, comparable against simulated scores, `O(layers)` at any
/// device size.
fn plan_metrics_score(response: &CompileResponse, lambda: f64, t2_us: f64) -> f64 {
    let summary = response.plan_metrics();
    let residual = (-lambda * summary.residual_zz_weight).exp();
    let coherence = (-summary.duration_ns / (t2_us * 1000.0)).exp();
    residual * coherence
}

/// Calibrated λ (rad/ns) as an integer gauge value in kHz.
fn as_khz(lambda: f64) -> i64 {
    (lambda / zz_sim::khz(1.0)).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_are_rejected() {
        let mut fleet = Fleet::new(FleetConfig::default());
        fleet
            .add_device(DeviceProfile::paper_grid())
            .expect("first");
        let err = fleet.add_device(DeviceProfile::paper_grid()).unwrap_err();
        assert!(matches!(err, FleetError::DuplicateDevice { .. }), "{err}");
    }

    #[test]
    fn unknown_devices_are_typed_errors() {
        let fleet = Fleet::new(FleetConfig::default());
        assert!(matches!(
            fleet.true_lambda("nope"),
            Err(FleetError::UnknownDevice { .. })
        ));
    }

    #[test]
    fn an_empty_fleet_has_no_eligible_backend() {
        let mut fleet = Fleet::new(FleetConfig::default());
        let circuit = zz_circuit::bench::generate(zz_circuit::bench::BenchmarkKind::Qft, 4, 7);
        let err = fleet
            .submit(circuit, CompileOptions::default())
            .unwrap_err();
        assert!(matches!(err, FleetError::NoEligibleBackend { qubits: 4 }));
    }

    #[test]
    fn khz_gauge_inverts_the_sim_unit() {
        assert_eq!(as_khz(zz_sim::khz(200.0)), 200);
        assert_eq!(as_khz(zz_sim::khz(15.4)), 15);
    }
}
