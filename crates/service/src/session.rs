//! [`Session`]: the long-lived compile/evaluate front door.
//!
//! A session is built from one [`Target`] and owns, for its whole
//! lifetime, the machinery every request shares: the worker pool, the
//! routing/native-translation memo, the calibration cache and the
//! optional on-disk artifact store. Callers hand it typed
//! [`CompileRequest`]s — synchronously ([`Session::compile`]), as
//! non-blocking [`JobHandle`]s ([`Session::submit`]) or as a whole batch
//! ([`Session::run`]) — and get back [`CompileResponse`]s carrying the
//! compiled plan, the pipeline trace, cache dispositions and (when the
//! request asked for it) the evaluated fidelity. Batch suites, parameter
//! sweeps and figure workloads all go through this one queue. The session
//! keeps no finished job: each result belongs to the handle that asked
//! for it.
//!
//! Every failure is a typed [`Error`]; no path panics on user input.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use zz_circuit::Circuit;
use zz_core::evaluate::{evaluate, EvalConfig, DECOHERENCE_SEED, MAX_EVAL_QUBITS};
use zz_core::pipeline::{shape_key, CacheDisposition, PassManager, RouteMemo, Stage};
use zz_core::{CompileOptions, Compiled, PipelineTrace};
use zz_obs::{
    saturating_micros, Counter, Event, EventLog, Gauge, Histogram, IdSource, Registry, RequestId,
};
use zz_persist::{fnv1a, fnv1a_mix, Encode, Encoder};
use zz_pool::{default_threads, TaskPool};
use zz_sim::density::Decoherence;
use zz_sim::program::EngineStats;
use zz_topology::Topology;

use crate::error::Error;
use crate::target::Target;

/// What to evaluate after a successful compile: the disorder samples to
/// average over and the optional decoherence channel. The crosstalk
/// strength itself comes from the session's [`Target`].
#[derive(Clone, Debug)]
pub struct EvalSpec {
    /// Seeds for the per-coupling crosstalk samples; the reported
    /// fidelity is their mean.
    pub crosstalk_seeds: Vec<u64>,
    /// Optional decoherence: `(model, trajectories, rng seed)`.
    pub decoherence: Option<(Decoherence, usize, u64)>,
}

impl Default for EvalSpec {
    fn default() -> Self {
        EvalSpec::paper_default()
    }
}

impl EvalSpec {
    /// The paper's evaluation: 3 disorder samples, no decoherence.
    pub fn paper_default() -> Self {
        EvalSpec {
            crosstalk_seeds: vec![11, 23, 37],
            decoherence: None,
        }
    }

    /// Replaces the disorder seeds.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.crosstalk_seeds = seeds;
        self
    }

    /// Adds decoherence (`T1 = T2 = t` µs) with the given trajectory
    /// count (trajectories are used only above the exact
    /// density-matrix register size). Never panics: a session rejects
    /// non-positive or NaN times and a zero trajectory count as
    /// [`Error::Eval`].
    pub fn with_decoherence_us(mut self, t: f64, trajectories: usize) -> Self {
        let t = t * 1000.0;
        self.decoherence = Some((Decoherence { t1: t, t2: t }, trajectories, DECOHERENCE_SEED));
        self
    }

    fn to_config(&self, target: &Target) -> EvalConfig {
        EvalConfig {
            lambda_mean: target.lambda_mean(),
            lambda_std: target.lambda_std(),
            crosstalk_seeds: self.crosstalk_seeds.clone(),
            circuit_seed: 0, // generation happens before the request
            decoherence: self.decoherence,
        }
    }
}

/// One typed request to a [`Session`]: the circuit plus everything about
/// how to compile (and optionally evaluate) it.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// The logical circuit (shared, so sweeps reference one circuit
    /// without copying it).
    pub circuit: Arc<Circuit>,
    /// The pulse/scheduling configuration.
    pub options: CompileOptions,
    /// Per-request device override; `None` compiles onto the session
    /// target's topology.
    pub device: Option<Topology>,
    /// Label attached to the response and to any error.
    pub label: String,
    /// Whether to return the per-pass [`PipelineTrace`] (on by default;
    /// the aggregate [`ServiceReport`] stage statistics need it).
    pub trace: bool,
    /// When set, the worker also evaluates the compiled plan under the
    /// target's noise model and reports
    /// [`CompileResponse::fidelity`].
    pub eval: Option<EvalSpec>,
}

impl CompileRequest {
    /// A request with default options (`Pert+ZZXSched`, engine α/k,
    /// paper requirement, trace on, no evaluation).
    pub fn new(circuit: Circuit) -> Self {
        Self::shared(Arc::new(circuit))
    }

    /// Like [`new`](Self::new) for an already-shared circuit.
    pub fn shared(circuit: Arc<Circuit>) -> Self {
        let options = CompileOptions::default();
        CompileRequest {
            circuit,
            label: options.default_label(),
            options,
            device: None,
            trace: true,
            eval: None,
        }
    }

    /// Replaces the whole option set (also refreshes a label that was
    /// never overridden).
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        if self.label == self.options.default_label() {
            self.label = options.default_label();
        }
        self.options = options;
        self
    }

    /// Overrides the device this request compiles onto.
    pub fn on_device(mut self, device: Topology) -> Self {
        self.device = Some(device);
        self
    }

    /// Overrides the request label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Disables the per-pass trace on the response.
    pub fn without_trace(mut self) -> Self {
        self.trace = false;
        self
    }

    /// Requests fidelity evaluation after the compile.
    pub fn with_eval(mut self, eval: EvalSpec) -> Self {
        self.eval = Some(eval);
        self
    }
}

/// Whether the on-disk store served a request's compiled plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskStatus {
    /// No store is configured, or the request failed before the lookup.
    NotConsulted,
    /// The fully compiled plan was loaded from disk (no routing,
    /// scheduling or calibration ran for this request).
    Hit,
    /// The store had no usable artifact for this request; it compiled
    /// from scratch and published its result for the next process.
    Miss,
}

/// One row of [`ServiceReport::stage_stats`]: a pipeline stage's
/// aggregate execution counts and wall time across one [`Session::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageStats {
    /// The pipeline stage.
    pub stage: Stage,
    /// Requests whose pass for this stage actually ran.
    pub executed: usize,
    /// Requests served from a stage cache (route memo, disk artifact, or
    /// an already-measured calibration slot).
    pub cache_hits: usize,
    /// Total wall time spent in this stage across the batch (for cache
    /// hits: the lookup time).
    pub wall: Duration,
}

/// The result of one [`CompileRequest`].
#[derive(Clone, Debug)]
pub struct CompileResponse {
    /// The id the session minted for this request — the join key between
    /// client-side spans, the server's event log and the wire envelope.
    /// Coalesced followers share their leader's id (the id names the
    /// execution, not the submission).
    pub request_id: RequestId,
    /// The request's label.
    pub label: String,
    /// The compiled circuit.
    pub compiled: Compiled,
    /// Per-pass instrumentation (present unless the request disabled
    /// it).
    pub trace: Option<PipelineTrace>,
    /// Whether routing/native translation was served from the session
    /// memo or the disk store.
    pub route_cache_hit: bool,
    /// Whether the on-disk store served the whole compiled plan.
    pub disk: DiskStatus,
    /// Wall-clock time compiling (and evaluating, when requested) —
    /// excluding queue wait.
    pub compile_time: Duration,
    /// Time the request waited in the queue before a worker picked it
    /// up (zero for synchronous [`Session::compile`] calls).
    pub queue_wait: Duration,
    /// Mean output-state fidelity under the target's noise model, when
    /// the request carried an [`EvalSpec`].
    pub fidelity: Option<f64>,
}

impl CompileResponse {
    /// Aggregate scheduler metrics of the compiled plan under its
    /// durations — layer count, total duration, mean/max `NQ`/`NC` and
    /// the residual-ZZ weight. This is the fidelity proxy for devices
    /// above the evaluation ceiling of [`MAX_EVAL_QUBITS`] device qubits
    /// (where requesting an [`EvalSpec`] is an [`Error::Eval`]): it is
    /// `O(layers)` at any device size and needs nothing beyond the
    /// already-computed plan.
    pub fn plan_metrics(&self) -> zz_sched::PlanSummary {
        self.compiled.plan.summary(&self.compiled.durations)
    }
}

/// A non-blocking handle to a submitted request and the one owner of its
/// result: [`wait`](JobHandle::wait) hands the result over.
#[derive(Debug)]
pub struct JobHandle {
    state: Arc<HandleState>,
}

#[derive(Debug)]
struct HandleState {
    slot: Mutex<Option<Result<CompileResponse, Error>>>,
    ready: Condvar,
    /// Live [`JobHandle`]s on this slot: the submitter's plus one per
    /// coalesced follower. Followers join only while the job is in
    /// flight, so once the slot is filled the count can only fall.
    handles: AtomicUsize,
}

impl HandleState {
    fn new() -> Self {
        HandleState {
            slot: Mutex::new(None),
            ready: Condvar::new(),
            handles: AtomicUsize::new(1),
        }
    }

    fn fill(&self, result: Result<CompileResponse, Error>) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(result);
        self.ready.notify_all();
    }
}

impl JobHandle {
    /// Blocks until the worker finishes this request and returns its
    /// result. The result moves out uncopied, unless a coalesced
    /// follower still shares it; then this handle gets a clone.
    ///
    /// # Errors
    ///
    /// Returns the job's typed [`Error`] when it failed.
    pub fn wait(self) -> Result<CompileResponse, Error> {
        let mut slot = self.state.slot.lock().unwrap_or_else(|e| e.into_inner());
        while slot.is_none() {
            slot = self
                .state
                .ready
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
        // Every follower joined before the fill (under the in-flight
        // lock), so a count of 1 means no other handle reads this slot.
        if self.state.handles.load(Ordering::SeqCst) == 1 {
            slot.take().expect("filled above")
        } else {
            slot.as_ref().expect("filled above").clone()
        }
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        self.state.handles.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The outcome of one [`Session::run`]: its requests' results in
/// submission order, with aggregate cache statistics.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Per-request results, in submission order.
    pub outcomes: Vec<Result<CompileResponse, Error>>,
    /// Wall-clock time from the start of the run until every result was
    /// available.
    pub wall_time: Duration,
    /// Requests whose routing was served from the session memo or the
    /// disk store.
    pub route_hits: usize,
    /// Requests that had to route.
    pub route_misses: usize,
    /// Requests whose whole compiled plan was served from disk.
    pub disk_hits: usize,
    /// Requests that consulted the disk store and missed.
    pub disk_misses: usize,
    /// Pulse-level calibration measurements the target's calibration
    /// cache ran while the run lasted (at most one per pulse method per
    /// cache).
    pub calibration_runs: usize,
}

impl ServiceReport {
    /// The successful responses, in submission order.
    pub fn successes(&self) -> impl Iterator<Item = &CompileResponse> {
        self.outcomes.iter().filter_map(|o| o.as_ref().ok())
    }

    /// Number of failed requests.
    pub fn error_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_err()).count()
    }

    /// Sum of per-request compile (and eval) times.
    pub fn cpu_time(&self) -> Duration {
        self.successes().map(|r| r.compile_time).sum()
    }

    /// Total time requests of this batch spent waiting in the queue.
    pub fn queue_wait(&self) -> Duration {
        self.successes().map(|r| r.queue_wait).sum()
    }

    /// The evaluated fidelities in submission order.
    ///
    /// # Errors
    ///
    /// Returns the first failed request's [`Error`], or [`Error::Eval`]
    /// for a success that carried no evaluation (the request had no
    /// [`EvalSpec`]).
    pub fn fidelities(&self) -> Result<Vec<f64>, Error> {
        self.outcomes
            .iter()
            .map(|outcome| match outcome {
                Ok(r) => r.fidelity.ok_or_else(|| Error::Eval {
                    job: r.label.clone(),
                    detail: "request carried no EvalSpec".into(),
                }),
                Err(e) => Err(e.clone()),
            })
            .collect()
    }

    /// Per-stage aggregation of the responses' pipeline traces (requests
    /// that disabled tracing contribute nothing). Stages appear in
    /// pipeline order.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        Stage::ALL
            .iter()
            .map(|&stage| {
                let mut stats = StageStats {
                    stage,
                    executed: 0,
                    cache_hits: 0,
                    wall: Duration::ZERO,
                };
                for response in self.successes() {
                    let Some(trace) = &response.trace else {
                        continue;
                    };
                    for pass in trace.passes.iter().filter(|p| p.stage == stage) {
                        if pass.cache.is_hit() {
                            stats.cache_hits += 1;
                        } else {
                            stats.executed += 1;
                        }
                        stats.wall += pass.wall;
                    }
                }
                stats
            })
            .collect()
    }
}

/// One summary line (jobs, wall/cpu/queue time, cache hit rates,
/// calibration runs) plus the per-stage `runs/hits wall` breakdown — the
/// format the figure binaries print after every suite.
impl std::fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} jobs ({} failed) in {:.1?} wall / {:.1?} cpu (queue wait {:.1?}); routing {} cached / {} routed; ",
            self.outcomes.len(),
            self.error_count(),
            self.wall_time,
            self.cpu_time(),
            self.queue_wait(),
            self.route_hits,
            self.route_misses,
        )?;
        if self.disk_hits + self.disk_misses > 0 {
            write!(
                f,
                "disk {} hit / {} miss; ",
                self.disk_hits, self.disk_misses
            )?;
        } else {
            write!(f, "disk cache off; ")?;
        }
        write!(f, "{} calibration run(s)", self.calibration_runs)?;
        write!(f, "\n  stages (runs/hits wall):")?;
        for stats in self.stage_stats() {
            write!(
                f,
                " {} {}/{} {:.1?}",
                stats.stage, stats.executed, stats.cache_hits, stats.wall
            )?;
        }
        Ok(())
    }
}

/// The session's standing metric handles (registered once at session
/// construction; updates are plain atomic ops on the hot path).
#[derive(Debug)]
struct SessionMetrics {
    registry: Arc<Registry>,
    /// `session.requests` — every submission (sync, async and coalesced).
    requests: Arc<Counter>,
    /// `session.errors` — requests that resolved to a typed [`Error`].
    errors: Arc<Counter>,
    /// `session.coalesce.leader` — `submit_shared` calls that started a job.
    coalesce_leader: Arc<Counter>,
    /// `session.coalesce.follower` — `submit_shared` calls that adopted one.
    coalesce_follower: Arc<Counter>,
    /// `session.queue.depth` — jobs enqueued but not yet picked up.
    queue_depth: Arc<Gauge>,
    /// `session.workers.busy` — workers currently executing a request.
    workers_busy: Arc<Gauge>,
    /// `session.queue.wait_us` — time from enqueue to worker pickup.
    queue_wait: Arc<Histogram>,
    /// `session.compile.wall_us` — per-request compile (+eval) time.
    compile_wall: Arc<Histogram>,
    /// `session.eval.wall_us` — per-request evaluation time alone.
    eval_wall: Arc<Histogram>,
    /// `engine.trajectories` — Monte-Carlo trajectories evaluated here.
    trajectories: Arc<Counter>,
    /// `engine.kernel_sweeps` — statevector sweeps of those trajectories.
    kernel_sweeps: Arc<Counter>,
    /// `engine.diag.fused` — diagonal sweeps fusion removed.
    fused_diags: Arc<Counter>,
    /// `engine.batch.run_us` — wall time per trajectory batch.
    batch_run: Arc<Histogram>,
}

impl SessionMetrics {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        // Counted by the pipeline; listed at 0 before the first compile.
        registry.counter("sched.distance_queries");
        registry.counter("sched.suppression_solves");
        registry.counter("sched.schedules");
        SessionMetrics {
            requests: registry.counter("session.requests"),
            errors: registry.counter("session.errors"),
            coalesce_leader: registry.counter("session.coalesce.leader"),
            coalesce_follower: registry.counter("session.coalesce.follower"),
            queue_depth: registry.gauge("session.queue.depth"),
            workers_busy: registry.gauge("session.workers.busy"),
            queue_wait: registry.histogram("session.queue.wait_us"),
            compile_wall: registry.histogram("session.compile.wall_us"),
            eval_wall: registry.histogram("session.eval.wall_us"),
            trajectories: registry.counter("engine.trajectories"),
            kernel_sweeps: registry.counter("engine.kernel_sweeps"),
            fused_diags: registry.counter("engine.diag.fused"),
            batch_run: registry.histogram("engine.batch.run_us"),
            registry,
        }
    }

    /// Records one evaluation's engine work under `engine.*`.
    fn record_engine(&self, stats: &EngineStats) {
        self.trajectories.add(stats.trajectories);
        self.kernel_sweeps.add(stats.kernel_sweeps);
        self.fused_diags.add(stats.fused_diags);
        for &wall in &stats.batch_walls {
            self.batch_run.observe_micros(wall);
        }
    }
}

/// The state a session shares with its workers: the target plus the
/// session-lifetime caches and observability.
#[derive(Debug)]
struct SessionCore {
    target: Target,
    memo: Arc<RouteMemo>,
    metrics: SessionMetrics,
    events: EventLog,
    ids: IdSource,
}

impl SessionCore {
    /// Compiles (and optionally evaluates) one request. Runs on a worker
    /// or, for [`Session::compile`], on the caller thread — both paths
    /// share the session caches.
    fn execute(&self, request: &CompileRequest, id: RequestId) -> Result<CompileResponse, Error> {
        let t0 = Instant::now();
        let topology = request
            .device
            .clone()
            .unwrap_or_else(|| self.target.topology().clone());
        let mut builder = PassManager::builder()
            .topology(topology)
            .options(request.options)
            .route_memo(Arc::clone(&self.memo))
            .metrics(Arc::clone(&self.metrics.registry));
        if let Some(store) = self.target.store_arc() {
            builder = builder.store(store);
        }
        if let Some(calib) = self.target.calib_arc() {
            builder = builder.calib(calib);
        }
        let outcome = builder
            .build()
            .run(Arc::clone(&request.circuit))
            .map_err(|e| Error::from_compile(&request.label, e))?;

        let route_cache_hit = outcome.trace.compiled_cache == CacheDisposition::DiskHit
            || outcome
                .trace
                .pass(Stage::Route)
                .is_some_and(|p| p.cache.is_hit());
        let disk = match outcome.trace.compiled_cache {
            CacheDisposition::DiskHit => DiskStatus::Hit,
            CacheDisposition::Miss => DiskStatus::Miss,
            _ => DiskStatus::NotConsulted,
        };

        let mut compiled = outcome.compiled;
        if let Some(durations) = self.target.durations() {
            compiled.durations = *durations;
        }

        let fidelity = match &request.eval {
            None => None,
            Some(spec) => {
                let config = spec.to_config(&self.target);
                Some(self.evaluate(&request.label, &compiled, &config)?)
            }
        };

        Ok(CompileResponse {
            request_id: id,
            label: request.label.clone(),
            compiled,
            trace: request.trace.then_some(outcome.trace),
            route_cache_hit,
            disk,
            compile_time: t0.elapsed(),
            queue_wait: Duration::ZERO,
            fidelity,
        })
    }

    /// Evaluates `compiled` under `config` for job `job`, counting the
    /// simulation in this session's registry: `session.eval.wall_us` and
    /// the engine's `engine.*` counts.
    fn evaluate(&self, job: &str, compiled: &Compiled, config: &EvalConfig) -> Result<f64, Error> {
        let eval_error = |detail| Error::Eval {
            job: job.to_string(),
            detail,
        };
        config.check().map_err(eval_error)?;
        // Compilation scales to any device; simulating the device
        // register is exponential and stays capped. The check sits here
        // — at evaluation time, not validation — so large devices
        // compile freely without an EvalSpec.
        let device_qubits = compiled.topology.qubit_count();
        if device_qubits > MAX_EVAL_QUBITS {
            return Err(eval_error(format!(
                "device has {device_qubits} qubits but evaluation simulates at most \
                 {MAX_EVAL_QUBITS} device qubits; use CompileResponse::plan_metrics as the \
                 at-scale fidelity proxy"
            )));
        }
        let started = Instant::now();
        let (fidelity, stats) = evaluate(compiled, config);
        self.metrics.eval_wall.observe_micros(started.elapsed());
        self.metrics.record_engine(&stats);
        Ok(fidelity)
    }

    /// Rolls one finished request into the registry and the event log:
    /// wall/queue histograms and the error counter, plus a summary-level
    /// `compile.done` / `compile.failed` event carrying the request id.
    fn observe_outcome(
        &self,
        id: RequestId,
        result: &Result<CompileResponse, Error>,
        queue_wait: Duration,
    ) {
        self.metrics.queue_wait.observe_micros(queue_wait);
        match result {
            Ok(response) => {
                self.metrics
                    .compile_wall
                    .observe_micros(response.compile_time);
                self.events.emit(
                    &Event::summary("compile.done")
                        .request(id)
                        .field("label", response.label.as_str())
                        .field("compile_us", saturating_micros(response.compile_time))
                        .field("queue_us", saturating_micros(queue_wait))
                        .field("route_cache_hit", response.route_cache_hit),
                );
            }
            Err(error) => {
                self.metrics.errors.inc();
                self.events.emit(
                    &Event::summary("compile.failed")
                        .request(id)
                        .field("error", error.to_string()),
                );
            }
        }
    }
}

/// The one front door: a long-lived compile/evaluate service over one
/// [`Target`]. See the [crate docs](crate) for the life cycle and a
/// complete example.
#[derive(Debug)]
pub struct Session {
    core: Arc<SessionCore>,
    pool: TaskPool,
    inflight: Arc<Inflight>,
}

/// The in-flight job index behind request coalescing: one leader per
/// coalescing key currently compiling. Shared with the worker task
/// (which removes its entry on completion), so it lives behind its own
/// `Arc` rather than inside the session.
#[derive(Debug, Default)]
struct Inflight {
    map: Mutex<HashMap<u64, Leader>>,
}

/// A job in flight that identical requests may adopt: the exact request
/// it computes (everything that determines the bits of its
/// [`CompileResponse`] except the label) and the slot its followers
/// share.
#[derive(Debug)]
struct Leader {
    circuit: Arc<Circuit>,
    device: Topology,
    spec: Vec<u8>,
    state: Arc<HandleState>,
}

impl Leader {
    /// Whether a request for `circuit` on `device` with encoded `spec`
    /// computes exactly this job. The coalescing key is a digest, and
    /// equal digests do not imply equal requests.
    fn computes(&self, circuit: &Circuit, device: &Topology, spec: &[u8]) -> bool {
        self.spec == spec && *self.circuit == *circuit && self.device == *device
    }
}

/// The encoded option set, trace flag and evaluation spec of a request —
/// the part of its coalescing identity that is neither the circuit nor
/// the device. An unset α or k computes exactly what its default does,
/// so the options are encoded with both resolved, as the whole-plan disk
/// key resolves them; an unset requirement `R` is derived from the
/// device and stays distinct from any explicit one, on disk too.
fn coalesce_spec(request: &CompileRequest) -> Vec<u8> {
    let mut enc = Encoder::new();
    let options = request.options;
    CompileOptions {
        alpha: Some(options.alpha_or_default()),
        k: Some(options.k_or_default()),
        ..options
    }
    .encode(&mut enc);
    enc.bool(request.trace);
    match &request.eval {
        None => enc.bool(false),
        Some(spec) => {
            enc.bool(true);
            spec.crosstalk_seeds.encode(&mut enc);
            match &spec.decoherence {
                None => enc.bool(false),
                Some((deco, trajectories, seed)) => {
                    enc.bool(true);
                    enc.f64(deco.t1);
                    enc.f64(deco.t2);
                    enc.usize(*trajectories);
                    enc.u64(*seed);
                }
            }
        }
    }
    enc.finish()
}

impl Session {
    /// Opens a session over `target` with one worker per available core.
    pub fn new(target: Target) -> Self {
        Self::with_threads(target, default_threads())
    }

    /// Opens a session with an explicit worker count (clamped to ≥ 1).
    pub fn with_threads(target: Target, threads: usize) -> Self {
        Session {
            core: Arc::new(SessionCore {
                target,
                memo: Arc::new(RouteMemo::new()),
                metrics: SessionMetrics::new(),
                events: EventLog::from_env(),
                ids: IdSource::new(),
            }),
            pool: TaskPool::new(threads),
            inflight: Arc::new(Inflight::default()),
        }
    }

    /// The target this session compiles for.
    pub fn target(&self) -> &Target {
        &self.core.target
    }

    /// The session's worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The session's metrics registry: every layer below (pipeline
    /// stages, queue, coalescing — and, when a `zz_net` server fronts
    /// this session, the wire counters) publishes here. Snapshot it for
    /// the `Stats` endpoint or the Prometheus exposition.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.core.metrics.registry
    }

    /// Compiles one request synchronously on the caller's thread, using
    /// the session caches (workers keep serving submitted jobs in the
    /// meantime).
    ///
    /// # Errors
    ///
    /// Returns the request's typed [`Error`] on failure.
    pub fn compile(&self, request: &CompileRequest) -> Result<CompileResponse, Error> {
        let id = self.admit();
        let result = self.core.execute(request, id);
        self.core.observe_outcome(id, &result, Duration::ZERO);
        result
    }

    /// Evaluates an already compiled plan under an explicit `config` on
    /// the caller's thread, counted in this session's registry the way a
    /// request's evaluation is (`session.eval.wall_us`, `engine.*`).
    ///
    /// # Errors
    ///
    /// [`Error::Eval`] labelled `job` when `config` fails
    /// [`EvalConfig::check`] or the plan's device is above
    /// [`MAX_EVAL_QUBITS`].
    pub fn evaluate(
        &self,
        job: &str,
        compiled: &Compiled,
        config: &EvalConfig,
    ) -> Result<f64, Error> {
        self.core.evaluate(job, compiled, config)
    }

    /// Enqueues a request on the worker pool and returns immediately.
    /// The handle resolves when a worker finishes the job.
    pub fn submit(&self, request: CompileRequest) -> JobHandle {
        let id = self.admit();
        let state = Arc::new(HandleState::new());
        self.enqueue(request, id, Arc::clone(&state), None);
        JobHandle { state }
    }

    /// Mints an id and counts the submission (every submission path
    /// funnels through here so `session.requests` can never drift).
    fn admit(&self) -> RequestId {
        self.core.metrics.requests.inc();
        self.core.ids.next_id()
    }

    /// Like [`submit`](Self::submit), with **request coalescing**:
    /// requests submitted while an identical one (same circuit, device,
    /// options, trace flag and eval spec — the label is deliberately
    /// excluded) is still in flight share that job instead of compiling
    /// again, and every caller gets its own [`JobHandle`] resolving to
    /// the shared [`CompileResponse`]. This is the shape network front
    /// ends want: a thundering herd of identical content-addressed
    /// compiles costs one pipeline execution.
    ///
    /// Coalesced followers adopt the leader's response verbatim —
    /// including its `label` and `queue_wait`. A request adopts a job
    /// only after comparing the whole request, not just its coalescing
    /// key; one whose key collides with a different in-flight request
    /// runs as its own job. Requests submitted *after* the leader
    /// finished start a fresh job (which the session caches then serve).
    pub fn submit_shared(&self, request: CompileRequest) -> JobHandle {
        let device = request
            .device
            .as_ref()
            .unwrap_or_else(|| self.core.target.topology());
        let spec = coalesce_spec(&request);
        let key = fnv1a_mix(fnv1a(&spec), shape_key(&request.circuit, device));

        // Decide leader-vs-follower and (for a leader) publish the slot
        // under one lock, so two identical concurrent submissions can
        // never both become leaders and no follower joins a filled slot.
        let (state, retire) = {
            let mut map = self.inflight.map.lock().unwrap_or_else(|e| e.into_inner());
            match map.get(&key) {
                Some(leader) if leader.computes(&request.circuit, device, &spec) => {
                    leader.state.handles.fetch_add(1, Ordering::SeqCst);
                    let state = Arc::clone(&leader.state);
                    drop(map);
                    self.core.metrics.requests.inc();
                    self.core.metrics.coalesce_follower.inc();
                    self.core.events.emit(
                        &Event::new("session.coalesced").field("label", request.label.as_str()),
                    );
                    return JobHandle { state };
                }
                // A different request under the same key: it runs on its
                // own, outside the index.
                Some(_) => (Arc::new(HandleState::new()), None),
                None => {
                    let state = Arc::new(HandleState::new());
                    let leader = Leader {
                        circuit: Arc::clone(&request.circuit),
                        device: device.clone(),
                        spec,
                        state: Arc::clone(&state),
                    };
                    map.insert(key, leader);
                    (state, Some(key))
                }
            }
        };
        let id = self.admit();
        self.core.metrics.coalesce_leader.inc();
        self.enqueue(request, id, Arc::clone(&state), retire);
        JobHandle { state }
    }

    /// Hands a request to the worker pool. `retire` carries the coalescing
    /// key to drop from the in-flight index once the job completes (so
    /// later identical requests start fresh instead of adopting a stale
    /// slot).
    fn enqueue(
        &self,
        request: CompileRequest,
        id: RequestId,
        state: Arc<HandleState>,
        retire: Option<u64>,
    ) {
        let label = request.label.clone();
        let core = Arc::clone(&self.core);
        let inflight = Arc::clone(&self.inflight);
        let task_state = Arc::clone(&state);
        let queued_at = Instant::now();
        core.metrics.queue_depth.inc();
        let enqueued = self.pool.execute(Box::new(move || {
            let queue_wait = queued_at.elapsed();
            core.metrics.queue_depth.dec();
            core.metrics.workers_busy.inc();
            let result = catch_unwind(AssertUnwindSafe(|| core.execute(&request, id)));
            core.metrics.workers_busy.dec();
            if let Some(key) = retire {
                let mut map = inflight.map.lock().unwrap_or_else(|e| e.into_inner());
                map.remove(&key);
            }
            let result = match result {
                Ok(Ok(mut response)) => {
                    response.queue_wait = queue_wait;
                    Ok(response)
                }
                Ok(Err(error)) => Err(error),
                Err(panic) => Err(Error::Worker {
                    job: request.label.clone(),
                    detail: panic_message(&panic),
                }),
            };
            core.observe_outcome(id, &result, queue_wait);
            task_state.fill(result);
        }));
        if !enqueued {
            self.core.metrics.queue_depth.dec();
            if let Some(key) = retire {
                let mut map = self.inflight.map.lock().unwrap_or_else(|e| e.into_inner());
                map.remove(&key);
            }
            let result = Err(Error::Worker {
                job: label,
                detail: "the session queue is shut down".into(),
            });
            self.core.observe_outcome(id, &result, Duration::ZERO);
            state.fill(result);
        }
    }

    /// Submits `requests`, waits on exactly their handles and returns
    /// their results in submission order with aggregate cache
    /// statistics — the one-call shape suite workloads use. Each run
    /// reports only its own jobs, so concurrent runs on one session never
    /// see each other's.
    pub fn run(&self, requests: impl IntoIterator<Item = CompileRequest>) -> ServiceReport {
        let started = Instant::now();
        let calib = self.core.target.calib();
        let calib_before = calib.calibration_runs();
        let handles: Vec<JobHandle> = requests.into_iter().map(|r| self.submit(r)).collect();
        let outcomes: Vec<Result<CompileResponse, Error>> =
            handles.into_iter().map(JobHandle::wait).collect();
        let wall_time = started.elapsed();
        let count = |pick: fn(&CompileResponse) -> bool| {
            outcomes
                .iter()
                .filter(|o| o.as_ref().is_ok_and(pick))
                .count()
        };
        ServiceReport {
            wall_time,
            route_hits: count(|r| r.route_cache_hit),
            route_misses: count(|r| !r.route_cache_hit),
            disk_hits: count(|r| r.disk == DiskStatus::Hit),
            disk_misses: count(|r| r.disk == DiskStatus::Miss),
            calibration_runs: calib.calibration_runs() - calib_before,
            outcomes,
        }
    }

    /// Number of distinct circuit × device shapes the session's routing
    /// memo currently holds.
    pub fn memoized_shapes(&self) -> usize {
        self.core.memo.memoized_shapes()
    }
}

/// Best-effort rendering of a worker panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zz_circuit::Gate;

    fn small_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]).push(Gate::Cnot, &[0, 1]);
        c
    }

    fn session() -> Session {
        Session::with_threads(
            Target::builder()
                .topology(Topology::grid(2, 2))
                .build()
                .expect("no store"),
            2,
        )
    }

    fn followers(session: &Session) -> Option<u64> {
        session
            .metrics()
            .snapshot()
            .counter("session.coalesce.follower")
    }

    fn labels(report: &ServiceReport) -> Vec<&str> {
        report
            .outcomes
            .iter()
            .map(|o| o.as_ref().expect("compiled").label.as_str())
            .collect()
    }

    #[test]
    fn synchronous_compile_round_trips() {
        let session = session();
        let response = session
            .compile(&CompileRequest::new(small_circuit()))
            .expect("fits");
        assert_eq!(response.label, "Pert+ZZXSched");
        assert!(response.compiled.plan.layer_count() > 0);
        assert!(response.trace.is_some());
        assert!(response.fidelity.is_none());
    }

    #[test]
    fn run_reports_its_own_jobs_in_submission_order() {
        let session = session();
        // A job submitted outside the run is not part of its report.
        let outside = session.submit(CompileRequest::new(small_circuit()).with_label("outside"));
        let report = session.run(
            (0..6).map(|i| CompileRequest::new(small_circuit()).with_label(format!("job-{i}"))),
        );
        assert_eq!(report.error_count(), 0);
        assert_eq!(
            labels(&report),
            ["job-0", "job-1", "job-2", "job-3", "job-4", "job-5"]
        );
        assert_eq!(outside.wait().expect("fits").label, "outside");
        // A run of nothing is an empty report.
        assert!(session.run([]).outcomes.is_empty());
    }

    #[test]
    fn concurrent_runs_each_report_only_their_own_jobs() {
        let session = session();
        let batch =
            |prefix: &str| -> Vec<String> { (0..8).map(|i| format!("{prefix}-{i}")).collect() };
        // Each run's request stream ends only once both runs have
        // submitted every request, so both batches are queued before
        // either run starts waiting.
        let submitted = std::sync::Barrier::new(2);
        let requests = |labels: &[String]| {
            let batch: Vec<CompileRequest> = labels
                .iter()
                .map(|label| CompileRequest::new(small_circuit()).with_label(label.as_str()))
                .collect();
            batch.into_iter().chain(std::iter::from_fn(|| {
                submitted.wait();
                None
            }))
        };
        let (a, b) = (batch("a"), batch("b"));
        let (report_a, report_b) = std::thread::scope(|scope| {
            let first = scope.spawn(|| session.run(requests(&a)));
            let second = scope.spawn(|| session.run(requests(&b)));
            (
                first.join().expect("no panic"),
                second.join().expect("no panic"),
            )
        });
        assert_eq!(labels(&report_a), a);
        assert_eq!(labels(&report_b), b);
    }

    #[test]
    fn oversized_requests_fail_typed_not_panicking() {
        let session = session();
        let request = CompileRequest::new(Circuit::new(9)).with_label("too-big");
        match session.compile(&request) {
            Err(Error::Validate { job, .. }) => assert_eq!(job, "too-big"),
            other => panic!("expected Validate, got {other:?}"),
        }
        let handle = session.submit(request.clone());
        assert!(matches!(handle.wait(), Err(Error::Validate { .. })));
        assert_eq!(session.run([request]).error_count(), 1);
    }

    #[test]
    fn wait_moves_the_result_unless_a_follower_shares_it() {
        // One worker busy with an unrelated job, so all three shared
        // submissions find the leader in flight.
        let session = Session::with_threads(
            Target::builder()
                .topology(Topology::grid(2, 2))
                .build()
                .expect("no store"),
            1,
        );
        let stuffer = session.submit(CompileRequest::new(small_circuit()).with_label("stuffer"));
        let leader = session.submit_shared(CompileRequest::new(small_circuit()));
        let dropped = session.submit_shared(CompileRequest::new(small_circuit()));
        let follower = session.submit_shared(CompileRequest::new(small_circuit()));
        let slot = Arc::clone(&leader.state);
        drop(dropped);
        stuffer.wait().expect("fits");

        // The leader's handle still shares the slot: the follower copies.
        let copied = follower.wait().expect("fits");
        assert!(slot.slot.lock().expect("not poisoned").is_some());
        // The last handle moves the result out, leaving the slot empty.
        let moved = leader.wait().expect("fits");
        assert!(slot.slot.lock().expect("not poisoned").is_none());
        assert_eq!(copied.compiled, moved.compiled);
    }

    #[test]
    fn identical_concurrent_requests_coalesce_onto_one_job() {
        // One worker, stuffed with an unrelated job: the leader cannot
        // start (let alone finish) before the follower is submitted, so
        // the follower deterministically finds the leader in flight.
        let session = Session::with_threads(
            Target::builder()
                .topology(Topology::grid(2, 2))
                .build()
                .expect("no store"),
            1,
        );
        let stuffer = session.submit(CompileRequest::new(small_circuit()).with_label("stuffer"));
        let leader = session.submit_shared(CompileRequest::new(small_circuit()));
        let follower = session.submit_shared(CompileRequest::new(small_circuit()));
        assert_eq!(followers(&session), Some(1));

        let a = leader.wait().expect("fits");
        let b = follower.wait().expect("fits");
        assert_eq!(a.compiled, b.compiled);
        assert_eq!(a.compile_time, b.compile_time, "one execution, one clock");
        stuffer.wait().expect("fits");

        // The slot retired with the job: a later identical request is a
        // fresh (cache-served) job, not a stale adoption.
        session
            .submit_shared(CompileRequest::new(small_circuit()))
            .wait()
            .expect("fits");
        assert_eq!(followers(&session), Some(1));
    }

    #[test]
    fn different_requests_never_coalesce() {
        let session = session();
        let mut other = small_circuit();
        other.push(Gate::X, &[1]);
        let a = session.submit_shared(CompileRequest::new(small_circuit()));
        let b = session.submit_shared(CompileRequest::new(other));
        let (a, b) = (a.wait().expect("fits"), b.wait().expect("fits"));
        assert_ne!(a.compiled.plan, b.compiled.plan);
        assert_eq!(followers(&session), Some(0));
    }

    #[test]
    fn empty_eval_spec_is_a_typed_error() {
        let session = session();
        let request = CompileRequest::new(small_circuit())
            .with_eval(EvalSpec::paper_default().with_seeds(vec![]));
        assert!(matches!(session.compile(&request), Err(Error::Eval { .. })));
    }
}
