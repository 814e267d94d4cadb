//! The pass-based compilation pipeline: the request and result types,
//! typed stages, their caches and instrumentation.
//!
//! The paper's co-optimization is inherently staged — route onto the
//! device, lower to the native gate set, schedule under a ZZ-suppression
//! requirement, attach calibrated pulses — and this module makes those
//! stages first-class:
//!
//! * **Typed stage artifacts** flow through the pipeline:
//!   [`Logical`] → [`Routed`] → [`Native`] → [`Scheduled`] →
//!   [`Compiled`]. Each implements [`StageArtifact`], which the
//!   instrumentation uses to record input/output sizes.
//! * **A [`Pass`] consumes one artifact and produces the next.** The
//!   fixed passes ([`ValidatePass`], [`RoutePass`], [`LowerPass`]) are
//!   plain structs; the scheduling stage is a [`SchedulerPass`] trait
//!   object ([`ParSchedPass`] or [`ZzxSchedPass`], chosen by
//!   [`SchedulerKind`]), and the pulse stage attaches the method's
//!   durations and calibrated residuals.
//! * **A [`PassManager`] runs the sequence**, timing every pass and
//!   recording its cache disposition into a [`PipelineTrace`], and
//!   manages two caches: the in-memory [`RouteMemo`] shared across a
//!   session's jobs, which serves route + lower, and the on-disk
//!   whole-[`Compiled`] artifact, which serves a repeated request in
//!   any process. A parameter sweep that only changes α/k therefore
//!   replays the memoized route+lower stages and re-runs only
//!   scheduling onward (`tests/pipeline.rs` asserts this).
//!
//! The service layer's `Session` builds one manager per request; its
//! output is bit-identical to the pre-pipeline implementation
//! (`tests/pipeline.rs` pins the equivalence for every
//! `(PulseMethod, SchedulerKind)` combination, and `tests/golden_keys.rs`
//! pins the exact bytes).
//!
//! # Example
//!
//! ```
//! use zz_core::pipeline::PassManager;
//! use zz_core::{CompileOptions, PulseMethod, SchedulerKind};
//! use zz_circuit::bench::{generate, BenchmarkKind};
//! use zz_topology::Topology;
//! use std::sync::Arc;
//!
//! let manager = PassManager::builder()
//!     .topology(Topology::grid(2, 2))
//!     .options(CompileOptions::new(PulseMethod::Pert, SchedulerKind::ZzxSched))
//!     .build();
//! let outcome = manager.run(Arc::new(generate(BenchmarkKind::Qft, 4, 7)))?;
//! assert!(outcome.compiled.plan.layer_count() > 0);
//! // Every stage was timed: validate, route, lower, schedule, pulse.
//! assert_eq!(outcome.trace.passes.len(), 5);
//! # Ok::<(), zz_core::CoOptError>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use zz_circuit::native::{compile_to_native, NativeCircuit};
use zz_circuit::{try_route_with, Circuit};
use zz_graph::MultiGraph;
use zz_obs::Registry;
use zz_persist::{ArtifactKind, ArtifactStore};
use zz_pulse::library::PulseMethod;
use zz_sched::zzx::{zzx_schedule_counted, Requirement, ScheduleCounts, ZzxConfig};
use zz_sched::{par_schedule, GateDurations, SchedulePlan};
use zz_sim::executor::ResidualTable;
use zz_topology::Topology;

use crate::calib::CalibCache;
use crate::options::CompileOptions;
use crate::persist::{compiled_artifact_key, CompiledArtifact};

// ---------------------------------------------------------------------
// Requests and results
// ---------------------------------------------------------------------

/// The scheduling policy half of the co-optimization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Maximal-parallelism ASAP (the baseline of current compilers).
    ParSched,
    /// The ZZ-aware scheduler of Algorithm 2.
    ZzxSched,
}

/// The figure label ("ParSched"/"ZZXSched").
impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SchedulerKind::ParSched => "ParSched",
            SchedulerKind::ZzxSched => "ZZXSched",
        })
    }
}

/// Errors returned by [`PassManager::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoOptError {
    /// The circuit needs more qubits than the device provides.
    CircuitTooLarge {
        /// Qubits required by the circuit.
        needed: usize,
        /// Qubits available on the device.
        available: usize,
    },
    /// Routing found no coupling path between two physical qubits.
    ///
    /// [`Topology`] validates connectivity at construction, so this cannot
    /// occur for in-tree devices — it surfaces a violated invariant (e.g. a
    /// corrupted coupling graph) as a typed error instead of panicking a
    /// service worker.
    RouteUnreachable {
        /// The physical qubit the two-qubit gate starts from.
        from: usize,
        /// The physical qubit that could not be reached.
        to: usize,
    },
    /// A gate carries a NaN or infinite rotation angle, which has no
    /// unitary to compile or simulate.
    NonFiniteAngle {
        /// The gate's index in the circuit's op list.
        gate: usize,
    },
    /// A compile option is out of range ([`CompileOptions::validate`]):
    /// α NaN, infinite or negative, `k = 0`, or a requirement `R` with
    /// `nq_limit = 0`, which no cut can meet.
    InvalidOption {
        /// The option's name: `alpha`, `k` or `nq_limit`.
        field: String,
    },
}

impl fmt::Display for CoOptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoOptError::CircuitTooLarge { needed, available } => write!(
                f,
                "circuit needs {needed} qubits but the device has {available}"
            ),
            CoOptError::RouteUnreachable { from, to } => write!(
                f,
                "no coupling path between physical qubits {from} and {to} \
                 (disconnected device graph)"
            ),
            CoOptError::NonFiniteAngle { gate } => {
                write!(f, "gate {gate} has a non-finite rotation angle")
            }
            CoOptError::InvalidOption { field } => write!(
                f,
                "compile option {field} is out of range (alpha must be finite and \
                 non-negative, k and nq_limit at least 1)"
            ),
        }
    }
}

impl std::error::Error for CoOptError {}

/// A compiled circuit: the schedule plus everything needed to execute or
/// simulate it.
#[derive(Clone, Debug, PartialEq)]
pub struct Compiled {
    /// The scheduled layers.
    pub plan: SchedulePlan,
    /// The device the plan was scheduled for.
    pub topology: Topology,
    /// Pulse durations implied by the pulse method.
    pub durations: GateDurations,
    /// The pulse method the gates are calibrated for.
    pub method: PulseMethod,
    /// The measured cross-region residual factors of that method's pulses.
    pub residuals: ResidualTable,
}

impl Compiled {
    /// Scalar summary of the method's suppression strength (mean of the
    /// `X90` and identity residual factors).
    pub fn residual_factor(&self) -> f64 {
        (self.residuals.x90 + self.residuals.id) / 2.0
    }

    /// Total execution time (ns).
    pub fn execution_time(&self) -> f64 {
        self.plan.duration(&self.durations)
    }
}

// ---------------------------------------------------------------------
// Stages and instrumentation
// ---------------------------------------------------------------------

/// The fixed stage sequence of the compilation pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Request validation (circuit fits the device).
    Validate,
    /// Routing onto the device topology.
    Route,
    /// Lowering to the native gate set.
    Lower,
    /// Layer scheduling (the [`SchedulerPass`]).
    Schedule,
    /// Pulse attachment: the method's durations and calibrated residuals.
    Pulse,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Validate,
        Stage::Route,
        Stage::Lower,
        Stage::Schedule,
        Stage::Pulse,
    ];
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Validate => "validate",
            Stage::Route => "route",
            Stage::Lower => "lower",
            Stage::Schedule => "schedule",
            Stage::Pulse => "pulse",
        })
    }
}

/// How a pass's result was obtained with respect to the caches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheDisposition {
    /// The pass ran (or, for the whole-plan lookup, no store is
    /// configured). Route, lower and calibration record this whenever
    /// they run, with or without a store.
    #[default]
    NotCached,
    /// Served from an in-memory cache (the [`RouteMemo`] or an
    /// already-measured calibration slot); the pass did not run.
    MemoryHit,
    /// The whole-[`Compiled`] plan was served from the on-disk
    /// [`ArtifactStore`]: no stage beyond validation ran. Only
    /// [`PipelineTrace::compiled_cache`] records it.
    DiskHit,
    /// The whole-plan lookup consulted the store and missed: the plan
    /// was compiled and published for the next request. Only
    /// [`PipelineTrace::compiled_cache`] records it.
    Miss,
}

impl CacheDisposition {
    /// Whether the pass was served from a cache instead of running.
    pub fn is_hit(self) -> bool {
        matches!(
            self,
            CacheDisposition::MemoryHit | CacheDisposition::DiskHit
        )
    }

    /// The disposition's metric-name segment (`pipeline.compiled.disk_hit`):
    /// lowercase snake, stable across releases.
    fn metric_label(self) -> &'static str {
        match self {
            CacheDisposition::NotCached => "uncached",
            CacheDisposition::MemoryHit => "memory_hit",
            CacheDisposition::DiskHit => "disk_hit",
            CacheDisposition::Miss => "miss",
        }
    }
}

impl fmt::Display for CacheDisposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheDisposition::NotCached => "uncached",
            CacheDisposition::MemoryHit => "memory hit",
            CacheDisposition::DiskHit => "disk hit",
            CacheDisposition::Miss => "miss",
        })
    }
}

/// Instrumentation record of one executed (or cache-served) pass.
#[derive(Clone, Copy, Debug)]
pub struct PassTrace {
    /// The stage this pass implements.
    pub stage: Stage,
    /// The pass's name (e.g. `"zzx-sched"`).
    pub name: &'static str,
    /// Wall-clock time of the pass (for cache hits: the lookup time).
    pub wall: Duration,
    /// How the result was obtained.
    pub cache: CacheDisposition,
    /// Input artifact size (gates, native ops or layers).
    pub input_items: usize,
    /// Output artifact size.
    pub output_items: usize,
}

/// The per-pass instrumentation of one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineTrace {
    /// One record per stage that was executed or cache-served, in
    /// pipeline order. When the whole-plan artifact hits
    /// ([`compiled_cache`](Self::compiled_cache)), only `validate`
    /// appears — the remaining stages never ran.
    pub passes: Vec<PassTrace>,
    /// Disposition of the whole-[`Compiled`] artifact lookup
    /// ([`CacheDisposition::NotCached`] when no store is configured or
    /// the run failed validation).
    pub compiled_cache: CacheDisposition,
    /// End-to-end wall time of the pipeline run.
    pub total_wall: Duration,
}

impl PipelineTrace {
    fn new() -> Self {
        PipelineTrace {
            passes: Vec::new(),
            compiled_cache: CacheDisposition::NotCached,
            total_wall: Duration::ZERO,
        }
    }

    /// The trace record of `stage`, if that stage was reached.
    pub fn pass(&self, stage: Stage) -> Option<&PassTrace> {
        self.passes.iter().find(|p| p.stage == stage)
    }

    /// Wall time spent in `stage` (zero when it never ran).
    pub fn stage_wall(&self, stage: Stage) -> Duration {
        self.passes
            .iter()
            .filter(|p| p.stage == stage)
            .map(|p| p.wall)
            .sum()
    }

    /// Whether `stage` actually executed (reached, and not served from a
    /// cache).
    pub fn executed(&self, stage: Stage) -> bool {
        self.passes
            .iter()
            .any(|p| p.stage == stage && !p.cache.is_hit())
    }
}

/// Compact one-line rendering: `validate 1.2µs → route 310µs (miss) → …`.
impl fmt::Display for PipelineTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.compiled_cache == CacheDisposition::DiskHit {
            return write!(
                f,
                "compiled plan served from disk in {:.1?}",
                self.total_wall
            );
        }
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{} {:.1?}", p.name, p.wall)?;
            if p.cache != CacheDisposition::NotCached {
                write!(f, " ({})", p.cache)?;
            }
        }
        write!(f, " | total {:.1?}", self.total_wall)
    }
}

// ---------------------------------------------------------------------
// Typed stage artifacts
// ---------------------------------------------------------------------

/// A value flowing between pipeline stages; sized for instrumentation.
pub trait StageArtifact {
    /// Item count recorded by the instrumentation (gates, native ops or
    /// scheduled layers — whatever the artifact is made of).
    fn items(&self) -> usize;
}

/// Stage artifact: the logical circuit as submitted.
#[derive(Clone, Debug)]
pub struct Logical {
    /// The source circuit (shared, so the pipeline never deep-copies it).
    pub circuit: Arc<Circuit>,
}

impl StageArtifact for Logical {
    fn items(&self) -> usize {
        self.circuit.gate_count()
    }
}

/// Stage artifact: the circuit routed onto the device topology.
#[derive(Clone, Debug)]
pub struct Routed {
    /// The logical source circuit the routing came from.
    pub source: Arc<Circuit>,
    /// The routed circuit (SWAPs inserted, qubits placed).
    pub circuit: Circuit,
}

impl StageArtifact for Routed {
    fn items(&self) -> usize {
        self.circuit.gate_count()
    }
}

/// Stage artifact: the routed circuit lowered to the native gate set.
#[derive(Clone, Debug)]
pub struct Native {
    /// The logical source circuit the translation came from.
    pub source: Arc<Circuit>,
    /// The native-gate circuit (shared: the [`RouteMemo`] hands the same
    /// translation to every job with this circuit × device shape).
    pub circuit: Arc<NativeCircuit>,
}

impl StageArtifact for Native {
    fn items(&self) -> usize {
        self.circuit.ops().len()
    }
}

/// Stage artifact: the native circuit scheduled into layers.
#[derive(Clone, Debug)]
pub struct Scheduled {
    /// The scheduled layers (with identity supplementation under
    /// ZZXSched).
    pub plan: SchedulePlan,
}

impl StageArtifact for Scheduled {
    fn items(&self) -> usize {
        self.plan.layer_count()
    }
}

impl StageArtifact for Compiled {
    fn items(&self) -> usize {
        self.plan.layer_count()
    }
}

// ---------------------------------------------------------------------
// The Pass contract and the fixed passes
// ---------------------------------------------------------------------

/// Read-only context handed to every pass: the device, the routing memo
/// and the metrics registry.
pub struct PassCx<'a> {
    /// The device topology the pipeline compiles onto.
    pub topology: &'a Topology,
    /// The manager's routing memo. [`RoutePass`] pulls the device's
    /// cached coupling graph from it instead of rebuilding the graph per
    /// compilation.
    pub memo: &'a RouteMemo,
    /// The metrics registry, when attached (for cache-effectiveness
    /// counters like `route.graph_reuse`).
    pub metrics: Option<&'a Registry>,
}

/// One compilation pass: consumes a typed stage artifact, produces the
/// next. Run passes through [`PassManager::apply`] to get instrumentation
/// for free.
pub trait Pass {
    /// The artifact this pass consumes.
    type Input: StageArtifact;
    /// The artifact this pass produces.
    type Output: StageArtifact;

    /// The stage this pass implements (groups trace records).
    fn stage(&self) -> Stage;

    /// The pass's display name.
    fn name(&self) -> &'static str;

    /// Runs the pass.
    ///
    /// # Errors
    ///
    /// Returns a [`CoOptError`] when the input cannot be compiled:
    /// [`ValidatePass`] rejects oversized circuits with
    /// [`CoOptError::CircuitTooLarge`] and non-finite gate angles with
    /// [`CoOptError::NonFiniteAngle`], [`RoutePass`] surfaces a
    /// disconnected coupling graph as
    /// [`CoOptError::RouteUnreachable`].
    fn run(&self, input: Self::Input, cx: &PassCx<'_>) -> Result<Self::Output, CoOptError>;
}

/// Validation pass: rejects circuits that do not fit the device, and
/// gates whose rotation angles are not finite.
#[derive(Clone, Copy, Debug, Default)]
pub struct ValidatePass;

impl Pass for ValidatePass {
    type Input = Logical;
    type Output = Logical;

    fn stage(&self) -> Stage {
        Stage::Validate
    }

    fn name(&self) -> &'static str {
        "validate"
    }

    fn run(&self, input: Logical, cx: &PassCx<'_>) -> Result<Logical, CoOptError> {
        let needed = input.circuit.qubit_count();
        let available = cx.topology.qubit_count();
        if needed > available {
            return Err(CoOptError::CircuitTooLarge { needed, available });
        }
        let ops = input.circuit.ops();
        if let Some(gate) = ops.iter().position(|op| !op.gate.angles_are_finite()) {
            return Err(CoOptError::NonFiniteAngle { gate });
        }
        Ok(input)
    }
}

/// Routing pass: places qubits and inserts SWAPs
/// ([`zz_circuit::route`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct RoutePass;

impl Pass for RoutePass {
    type Input = Logical;
    type Output = Routed;

    fn stage(&self) -> Stage {
        Stage::Route
    }

    fn name(&self) -> &'static str {
        "route"
    }

    fn run(&self, input: Logical, cx: &PassCx<'_>) -> Result<Routed, CoOptError> {
        let (graph, reused) = cx.memo.coupling_graph(cx.topology);
        if reused {
            if let Some(metrics) = cx.metrics {
                metrics.counter("route.graph_reuse").inc();
            }
        }
        let circuit = try_route_with(&input.circuit, cx.topology, &graph).map_err(|e| {
            CoOptError::RouteUnreachable {
                from: e.from,
                to: e.to,
            }
        })?;
        Ok(Routed {
            source: input.circuit,
            circuit,
        })
    }
}

/// Lowering pass: translates the routed circuit to the native gate set
/// ([`zz_circuit::native::compile_to_native`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct LowerPass;

impl Pass for LowerPass {
    type Input = Routed;
    type Output = Native;

    fn stage(&self) -> Stage {
        Stage::Lower
    }

    fn name(&self) -> &'static str {
        "lower"
    }

    fn run(&self, input: Routed, _cx: &PassCx<'_>) -> Result<Native, CoOptError> {
        let native = compile_to_native(&input.circuit);
        Ok(Native {
            source: input.source,
            circuit: Arc::new(native),
        })
    }
}

// ---------------------------------------------------------------------
// The scheduling and pulse stages
// ---------------------------------------------------------------------

/// The scheduling policy stage: turns a native circuit into layered
/// [`SchedulePlan`]s. Implemented by [`ParSchedPass`] and
/// [`ZzxSchedPass`]; [`scheduler_pass_for`] picks one per
/// [`SchedulerKind`].
pub trait SchedulerPass: fmt::Debug + Send + Sync {
    /// The pass's display name.
    fn name(&self) -> &'static str;

    /// Schedules the native circuit on the device, and returns the
    /// scheduler's distance lookups and suppression solves doing it.
    fn schedule_counted(
        &self,
        topo: &Topology,
        native: &NativeCircuit,
    ) -> (SchedulePlan, ScheduleCounts);

    /// Schedules the native circuit on the device.
    fn schedule(&self, topo: &Topology, native: &NativeCircuit) -> SchedulePlan {
        self.schedule_counted(topo, native).0
    }
}

/// The maximal-parallelism ASAP baseline ([`zz_sched::par_schedule`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ParSchedPass;

impl SchedulerPass for ParSchedPass {
    fn name(&self) -> &'static str {
        "par-sched"
    }

    fn schedule_counted(
        &self,
        topo: &Topology,
        native: &NativeCircuit,
    ) -> (SchedulePlan, ScheduleCounts) {
        (par_schedule(topo, native), ScheduleCounts::default())
    }
}

/// The ZZ-aware scheduler of Algorithm 2 ([`zz_sched::zzx_schedule`]).
#[derive(Clone, Copy, Debug)]
pub struct ZzxSchedPass {
    /// The NQ-vs-NC weight α of Algorithm 1.
    pub alpha: f64,
    /// The top-k path-relaxing budget of Algorithm 1.
    pub k: usize,
    /// The suppression requirement (`None` = the topology-derived paper
    /// default, resolved per device at schedule time).
    pub requirement: Option<Requirement>,
}

impl SchedulerPass for ZzxSchedPass {
    fn name(&self) -> &'static str {
        "zzx-sched"
    }

    fn schedule_counted(
        &self,
        topo: &Topology,
        native: &NativeCircuit,
    ) -> (SchedulePlan, ScheduleCounts) {
        let config = ZzxConfig {
            alpha: self.alpha,
            k: self.k,
            requirement: self
                .requirement
                .unwrap_or_else(|| Requirement::paper_default(topo)),
        };
        zzx_schedule_counted(topo, native, &config)
    }
}

/// The gate durations implied by a pulse method (DCG stretches its
/// pulses; every other method uses the standard library timings).
pub fn durations_for(method: PulseMethod) -> GateDurations {
    match method {
        PulseMethod::Dcg => GateDurations::dcg(),
        _ => GateDurations::standard(),
    }
}

// ---------------------------------------------------------------------
// The shared routing memo
// ---------------------------------------------------------------------

/// In-memory memo of route+lower results, shared across jobs (and across
/// [`PassManager`]s — a service session hands one memo to every request's
/// manager). Keyed by [`shape_key`]; each slot records the exact circuit
/// and topology it serves, so a 64-bit digest collision degrades to a
/// second slot instead of silently serving the wrong circuit.
#[derive(Debug, Default)]
pub struct RouteMemo {
    shapes: Mutex<HashMap<u64, Vec<Arc<MemoEntry>>>>,
    /// Recently used device coupling graphs, most recent last. Routing is
    /// per-job but devices repeat across jobs, so the `O(V + E)` graph
    /// build is hoisted here (see [`coupling_graph`](Self::coupling_graph)).
    graphs: Mutex<Vec<(Topology, Arc<MultiGraph>)>>,
}

/// Device coupling graphs kept in the memo's recency cache. A service
/// process compiles onto a handful of devices at a time; the cap only
/// exists to bound memory if topologies churn.
const MAX_CACHED_DEVICE_GRAPHS: usize = 8;

/// One memo slot: the exact shape it was created for plus the
/// lazily-computed translation. Exactly one thread routes a given shape
/// (concurrent requesters for the *same* shape wait on its `OnceLock`;
/// *different* shapes never serialize — the outer map lock is only held
/// for the entry lookup). Routing errors are memoized too: routing is
/// deterministic, so a shape that failed once fails identically for every
/// requester.
#[derive(Debug)]
struct MemoEntry {
    circuit: Arc<Circuit>,
    topology: Topology,
    native: OnceLock<Result<Arc<NativeCircuit>, CoOptError>>,
}

impl RouteMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        RouteMemo::default()
    }

    /// The coupling [`MultiGraph`] of `topo`, built once and shared by
    /// every job compiling onto the same device. Returns the graph and
    /// whether it was served from cache (`true` = reused).
    pub fn coupling_graph(&self, topo: &Topology) -> (Arc<MultiGraph>, bool) {
        let mut graphs = self.graphs.lock().expect("memo poisoned");
        if let Some(pos) = graphs.iter().position(|(t, _)| t == topo) {
            // Move to the most-recently-used end.
            let entry = graphs.remove(pos);
            let graph = Arc::clone(&entry.1);
            graphs.push(entry);
            return (graph, true);
        }
        let graph = Arc::new(topo.to_multigraph());
        if graphs.len() >= MAX_CACHED_DEVICE_GRAPHS {
            graphs.remove(0);
        }
        graphs.push((topo.clone(), Arc::clone(&graph)));
        (graph, false)
    }

    /// The slot for this circuit × device shape, creating it if absent.
    fn slot(&self, key: u64, circuit: &Arc<Circuit>, topo: &Topology) -> Arc<MemoEntry> {
        let mut memo = self.shapes.lock().expect("memo poisoned");
        let bucket = memo.entry(key).or_default();
        match bucket
            .iter()
            .find(|e| *e.circuit == **circuit && e.topology == *topo)
        {
            Some(entry) => Arc::clone(entry),
            None => {
                let entry = Arc::new(MemoEntry {
                    circuit: Arc::clone(circuit),
                    topology: topo.clone(),
                    native: OnceLock::new(),
                });
                bucket.push(Arc::clone(&entry));
                entry
            }
        }
    }

    /// Number of distinct circuit × device shapes currently memoized
    /// (successfully — failed routes do not count).
    pub fn memoized_shapes(&self) -> usize {
        self.shapes
            .lock()
            .expect("memo poisoned")
            .values()
            .flatten()
            .filter(|entry| matches!(entry.native.get(), Some(Ok(_))))
            .count()
    }
}

/// Combined structural key of a circuit × device shape: the routing-memo
/// key, and the base of the whole-plan disk key
/// ([`compiled_artifact_key`]). `tests/golden_keys.rs` pins its
/// output for fixed inputs — if this function (or
/// [`Circuit::content_digest`]) must change meaning, bump
/// [`zz_persist::SCHEMA_VERSION`] alongside.
pub fn shape_key(circuit: &Circuit, topo: &Topology) -> u64 {
    let mut h = circuit.content_digest();
    let mut mix = |w: u64| h = zz_persist::fnv1a_mix(h, w);
    for b in topo.name().bytes() {
        mix(b as u64);
    }
    mix(topo.qubit_count() as u64);
    for &(u, v) in topo.couplings() {
        mix(u as u64);
        mix(v as u64);
    }
    // Routing depends on the geometric embedding (qubit layout is chosen by
    // coordinate order), so the coordinates are part of the shape.
    for q in 0..topo.qubit_count() {
        let (x, y) = topo.coord(q);
        mix(x.to_bits());
        mix(y.to_bits());
    }
    h
}

// ---------------------------------------------------------------------
// The pass manager
// ---------------------------------------------------------------------

/// The result of a pipeline run: the compiled circuit plus the per-pass
/// instrumentation.
#[derive(Clone, Debug)]
pub struct PipelineOutcome {
    /// The compiled circuit.
    pub compiled: Compiled,
    /// Per-pass wall times, sizes and cache dispositions.
    pub trace: PipelineTrace,
}

/// Runs the pass sequence with per-pass instrumentation, behind the
/// route memo and the optional whole-plan store. See the
/// [module docs](self) for the stage diagram and an example.
#[derive(Debug)]
pub struct PassManager {
    topology: Topology,
    scheduler: Box<dyn SchedulerPass>,
    store: Option<Arc<ArtifactStore>>,
    calib: Option<Arc<CalibCache>>,
    memo: Arc<RouteMemo>,
    /// The full request: it configures the scheduler and pulse stages,
    /// and keys and verifies the whole-[`Compiled`] disk artifact.
    options: CompileOptions,
    metrics: Option<Arc<Registry>>,
}

impl PassManager {
    /// Starts building a pass manager (defaults: the paper's 3×4 grid,
    /// [`CompileOptions::default`], no store, process-wide calibration).
    pub fn builder() -> PassManagerBuilder {
        PassManagerBuilder::default()
    }

    /// The device topology the pipeline compiles onto.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The calibration cache serving this manager's pulse stage.
    pub fn calib(&self) -> &CalibCache {
        match &self.calib {
            Some(cache) => cache,
            None => CalibCache::global(),
        }
    }

    /// The routing memo shared by this manager's runs.
    pub fn memo(&self) -> &RouteMemo {
        &self.memo
    }

    fn cx(&self) -> PassCx<'_> {
        PassCx {
            topology: &self.topology,
            memo: &self.memo,
            metrics: self.metrics.as_deref(),
        }
    }

    /// Runs one pass with instrumentation, appending its record to
    /// `trace`. `cache` states how the manager obtained the inputs (the
    /// built-in stage caches live *around* passes, in the manager).
    ///
    /// # Errors
    ///
    /// Propagates the pass's [`CoOptError`] (nothing is recorded then).
    pub fn apply<P: Pass>(
        &self,
        pass: &P,
        input: P::Input,
        cache: CacheDisposition,
        trace: &mut PipelineTrace,
    ) -> Result<P::Output, CoOptError> {
        let input_items = input.items();
        let t0 = Instant::now();
        let output = pass.run(input, &self.cx())?;
        trace.passes.push(PassTrace {
            stage: pass.stage(),
            name: pass.name(),
            wall: t0.elapsed(),
            cache,
            input_items,
            output_items: output.items(),
        });
        Ok(output)
    }

    /// Compiles a logical circuit through the full pass sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CoOptError::InvalidOption`] if the request's α, k or `R`
    /// is out of range ([`CompileOptions::validate`]),
    /// [`CoOptError::CircuitTooLarge`] or [`CoOptError::NonFiniteAngle`]
    /// from the validation pass if the circuit does not fit the device or
    /// a gate angle is NaN or infinite, or [`CoOptError::RouteUnreachable`]
    /// from the routing pass if the device's coupling graph violates the
    /// connectivity invariant.
    pub fn run(&self, circuit: Arc<Circuit>) -> Result<PipelineOutcome, CoOptError> {
        self.options.validate()?;
        let total = Instant::now();
        let mut trace = PipelineTrace::new();
        let logical = self.apply(
            &ValidatePass,
            Logical { circuit },
            CacheDisposition::NotCached,
            &mut trace,
        )?;

        // Whole-plan cache point: a usable compiled artifact skips
        // routing, scheduling and calibration outright. The key is
        // salted by the calibration cache's identity (λ + epoch): the
        // compiled plan embeds the residual table, so a recalibrated or
        // drift-invalidated device must miss here and recompile.
        let mut compiled_key = 0;
        if let Some(store) = self.store.as_deref() {
            compiled_key = self.calib().salt_compiled_key(compiled_artifact_key(
                shape_key(&logical.circuit, &self.topology),
                &self.options,
            ));
            if let Some(artifact) =
                store.get::<CompiledArtifact>(ArtifactKind::Compiled, compiled_key)
            {
                // The artifact embeds its full request; a key collision is
                // rejected here and recompiles instead of serving a wrong
                // plan.
                if artifact.matches(&logical.circuit, &self.topology, &self.options) {
                    trace.compiled_cache = CacheDisposition::DiskHit;
                    trace.total_wall = total.elapsed();
                    self.publish_trace(&trace);
                    return Ok(PipelineOutcome {
                        compiled: artifact.compiled,
                        trace,
                    });
                }
            }
            trace.compiled_cache = CacheDisposition::Miss;
        }

        let source = Arc::clone(&logical.circuit);
        let native = self.route_and_lower(logical, &mut trace)?;
        let compiled = self.schedule_and_pulse(&native.circuit, &mut trace);

        if let Some(store) = self.store.as_deref() {
            let artifact =
                CompiledArtifact::new((*source).clone(), &self.options, compiled.clone());
            store.put(ArtifactKind::Compiled, compiled_key, &artifact);
        }

        trace.total_wall = total.elapsed();
        self.publish_trace(&trace);
        Ok(PipelineOutcome { compiled, trace })
    }

    /// Rolls one finished run's [`PipelineTrace`] into the metrics
    /// registry, if one is attached: per-stage wall-time histograms
    /// (`pipeline.<stage>.wall_us`) and cache-disposition counters
    /// (`pipeline.<stage>.<disposition>`), plus `pipeline.runs`,
    /// `pipeline.wall_us` and the whole-plan `pipeline.compiled.<disp>`
    /// counters. The trace stays the per-request view; the registry is
    /// the cross-request aggregate of the same records.
    fn publish_trace(&self, trace: &PipelineTrace) {
        let Some(registry) = &self.metrics else {
            return;
        };
        registry.counter("pipeline.runs").inc();
        registry
            .histogram("pipeline.wall_us")
            .observe_micros(trace.total_wall);
        for pass in &trace.passes {
            registry
                .histogram(&format!("pipeline.{}.wall_us", pass.stage))
                .observe_micros(pass.wall);
            registry
                .counter(&format!(
                    "pipeline.{}.{}",
                    pass.stage,
                    pass.cache.metric_label()
                ))
                .inc();
        }
        if trace.compiled_cache != CacheDisposition::NotCached {
            registry
                .counter(&format!(
                    "pipeline.compiled.{}",
                    trace.compiled_cache.metric_label()
                ))
                .inc();
        }
    }

    /// The route + lower stages, behind the shared in-memory
    /// [`RouteMemo`].
    fn route_and_lower(
        &self,
        logical: Logical,
        trace: &mut PipelineTrace,
    ) -> Result<Native, CoOptError> {
        let key = shape_key(&logical.circuit, &self.topology);
        let slot = self.memo.slot(key, &logical.circuit, &self.topology);

        // Filled by the closure when *this* thread does the work; when it
        // stays `None` the slot was filled before we looked (a timed
        // lookup) or a concurrent thread routed this shape while we
        // blocked on it. Memoized routing errors replay like successes.
        let t0 = Instant::now();
        let filled = slot.native.get().is_some();
        let mut computed: Option<Vec<PassTrace>> = None;
        let result = slot.native.get_or_init(|| {
            let mut inner = PipelineTrace::new();
            // Validation already passed, but routing can still reject a
            // disconnected coupling graph.
            let routed = self.apply(
                &RoutePass,
                logical.clone(),
                CacheDisposition::NotCached,
                &mut inner,
            )?;
            let native = self
                .apply(&LowerPass, routed, CacheDisposition::NotCached, &mut inner)
                .expect("lower is infallible");
            computed = Some(inner.passes);
            Ok(native.circuit)
        });
        let lookup = t0.elapsed();
        let native = Arc::clone(result.as_ref().map_err(Clone::clone)?);

        let passes = computed.unwrap_or_else(|| {
            // A waiter's routing wall time is attributed to the job that
            // routed, so it records a free hit (otherwise `stage_stats`
            // would double-count the same work once per waiting thread).
            let wall = if filled { lookup } else { Duration::ZERO };
            hit_traces(wall, logical.circuit.gate_count(), native.ops().len())
        });
        trace.passes.extend(passes);
        Ok(Native {
            source: logical.circuit,
            circuit: native,
        })
    }

    /// The schedule + pulse stages (never cached individually — the
    /// whole-plan artifact in [`run`](Self::run) covers them).
    fn schedule_and_pulse(&self, native: &NativeCircuit, trace: &mut PipelineTrace) -> Compiled {
        let in_items = native.ops().len();
        let t0 = Instant::now();
        let (plan, counts) = self.scheduler.schedule_counted(&self.topology, native);
        let scheduled = Scheduled { plan };
        trace.passes.push(PassTrace {
            stage: Stage::Schedule,
            name: self.scheduler.name(),
            wall: t0.elapsed(),
            cache: CacheDisposition::NotCached,
            input_items: in_items,
            output_items: scheduled.items(),
        });
        if let Some(registry) = &self.metrics {
            registry
                .counter("sched.distance_queries")
                .add(counts.distance_queries);
            registry
                .counter("sched.suppression_solves")
                .add(counts.suppression_solves);
            registry.counter("sched.schedules").inc();
        }

        // The pulse stage: durations from the method (DCG pulses are
        // longer), residuals from the calibration cache, which measures
        // each method once and serves it from memory after that.
        let in_items = scheduled.items();
        let t0 = Instant::now();
        let method = self.options.method;
        let (residuals, cache) = self.calib().residuals_traced(method);
        let compiled = Compiled {
            plan: scheduled.plan,
            topology: self.topology.clone(),
            durations: durations_for(method),
            method,
            residuals,
        };
        trace.passes.push(PassTrace {
            stage: Stage::Pulse,
            name: "calibrated-pulse",
            wall: t0.elapsed(),
            cache,
            input_items: in_items,
            output_items: compiled.items(),
        });
        compiled
    }
}

/// Trace records for a route+lower stage served from the [`RouteMemo`]:
/// the lookup time is attributed to the route entry, the lower entry is
/// free.
///
/// Sizes describe what the memo *served* — the final native translation
/// — because the routed intermediate no longer exists on this path. A
/// memo-served route entry therefore reports the native op count as its
/// output, where an executed one reports the routed gate count; compare
/// sizes across runs per-disposition, not across cold/warm.
fn hit_traces(lookup: Duration, source_gates: usize, native_ops: usize) -> Vec<PassTrace> {
    vec![
        PassTrace {
            stage: Stage::Route,
            name: "route",
            wall: lookup,
            cache: CacheDisposition::MemoryHit,
            input_items: source_gates,
            output_items: native_ops,
        },
        PassTrace {
            stage: Stage::Lower,
            name: "lower",
            wall: Duration::ZERO,
            cache: CacheDisposition::MemoryHit,
            input_items: native_ops,
            output_items: native_ops,
        },
    ]
}

/// Builder for [`PassManager`].
#[derive(Debug)]
pub struct PassManagerBuilder {
    topology: Topology,
    options: CompileOptions,
    store: Option<Arc<ArtifactStore>>,
    calib: Option<Arc<CalibCache>>,
    memo: Option<Arc<RouteMemo>>,
    metrics: Option<Arc<Registry>>,
}

impl Default for PassManagerBuilder {
    fn default() -> Self {
        PassManagerBuilder {
            topology: Topology::grid(3, 4),
            options: CompileOptions::default(),
            store: None,
            calib: None,
            memo: None,
            metrics: None,
        }
    }
}

impl PassManagerBuilder {
    /// Sets the device topology (default: the paper's 3×4 grid).
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topology = topo;
        self
    }

    /// Sets the request: pulse method, scheduler, α, k and `R`
    /// (default: [`CompileOptions::default`]).
    pub fn options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Backs the whole-plan lookup with an on-disk [`ArtifactStore`]: a
    /// request this or any earlier process compiled into the store is
    /// served whole, with no stage beyond validation (default: no store;
    /// route + lower are still memoized in memory).
    pub fn store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Serves calibration from the given cache instead of the
    /// process-wide [`CalibCache::global`].
    pub fn calib(mut self, calib: Arc<CalibCache>) -> Self {
        self.calib = Some(calib);
        self
    }

    /// Shares a routing memo across managers (a service session hands one
    /// memo to every request's manager; default: a fresh private memo).
    pub fn route_memo(mut self, memo: Arc<RouteMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Publishes per-stage wall times and cache-disposition counts, and
    /// each schedule's `sched.schedules` / `sched.distance_queries` /
    /// `sched.suppression_solves`, into
    /// a `zz_obs` [`Registry`] (default: no metrics; the per-request
    /// [`PipelineTrace`] is always produced either way).
    pub fn metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> PassManager {
        let options = self.options;
        PassManager {
            topology: self.topology,
            scheduler: scheduler_pass_for(
                options.scheduler,
                options.alpha_or_default(),
                options.k_or_default(),
                options.requirement,
            ),
            store: self.store,
            calib: self.calib,
            memo: self.memo.unwrap_or_default(),
            options,
            metrics: self.metrics,
        }
    }
}

/// The standard [`SchedulerPass`] for a [`SchedulerKind`] with the given
/// Algorithm 1 parameters.
pub fn scheduler_pass_for(
    kind: SchedulerKind,
    alpha: f64,
    k: usize,
    requirement: Option<Requirement>,
) -> Box<dyn SchedulerPass> {
    match kind {
        SchedulerKind::ParSched => Box::new(ParSchedPass),
        SchedulerKind::ZzxSched => Box::new(ZzxSchedPass {
            alpha,
            k,
            requirement,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zz_circuit::Gate;

    fn small_circuit() -> Arc<Circuit> {
        let mut c = Circuit::new(4);
        c.push(Gate::H, &[0])
            .push(Gate::Cnot, &[0, 1])
            .push(Gate::Cnot, &[2, 3]);
        Arc::new(c)
    }

    fn manager() -> PassManager {
        PassManager::builder()
            .topology(Topology::grid(2, 2))
            .build()
    }

    #[test]
    fn full_run_records_every_stage_in_order() {
        // Isolated calibration state: the pulse stage must *measure*
        // (NotCached), not hit a slot another test already filled.
        let outcome = PassManager::builder()
            .topology(Topology::grid(2, 2))
            .calib(Arc::new(CalibCache::new()))
            .build()
            .run(small_circuit())
            .expect("fits");
        let stages: Vec<Stage> = outcome.trace.passes.iter().map(|p| p.stage).collect();
        assert_eq!(stages, Stage::ALL);
        assert_eq!(outcome.trace.compiled_cache, CacheDisposition::NotCached);
        for pass in &outcome.trace.passes {
            assert_eq!(pass.cache, CacheDisposition::NotCached, "{}", pass.name);
        }
        assert!(outcome.trace.total_wall >= outcome.trace.stage_wall(Stage::Schedule));
    }

    #[test]
    fn second_run_hits_the_route_memo() {
        let manager = manager();
        let cold = manager.run(small_circuit()).expect("fits");
        assert!(cold.trace.executed(Stage::Route));
        let warm = manager.run(small_circuit()).expect("fits");
        let route = warm.trace.pass(Stage::Route).expect("route reached");
        assert_eq!(route.cache, CacheDisposition::MemoryHit);
        assert!(!warm.trace.executed(Stage::Route));
        assert!(!warm.trace.executed(Stage::Lower));
        // Scheduling still ran — it is never served by the route memo.
        assert!(warm.trace.executed(Stage::Schedule));
        assert_eq!(cold.compiled, warm.compiled);
        assert_eq!(manager.memo().memoized_shapes(), 1);
    }

    #[test]
    fn memo_reuses_device_coupling_graphs() {
        let memo = RouteMemo::new();
        let topo = Topology::grid(3, 4);
        let (g1, reused1) = memo.coupling_graph(&topo);
        assert!(!reused1, "first build is a miss");
        let (g2, reused2) = memo.coupling_graph(&topo);
        assert!(reused2, "same device must reuse the graph");
        assert!(Arc::ptr_eq(&g1, &g2));
        let (_, reused3) = memo.coupling_graph(&Topology::line(3));
        assert!(!reused3, "a different device is a fresh build");
    }

    #[test]
    fn graph_reuse_counter_increments_across_jobs() {
        let registry = Arc::new(Registry::new());
        let memo = Arc::new(RouteMemo::new());
        let run_one = || {
            PassManager::builder()
                .topology(Topology::grid(2, 2))
                .route_memo(Arc::clone(&memo))
                .metrics(Arc::clone(&registry))
                .build()
                .run(small_circuit())
                .expect("fits")
        };
        run_one();
        let after_first = registry.counter("route.graph_reuse").get();
        // A distinct circuit on the same device routes again and reuses
        // the cached coupling graph.
        let mut c2 = Circuit::new(4);
        c2.push(Gate::Cnot, &[0, 3]);
        PassManager::builder()
            .topology(Topology::grid(2, 2))
            .route_memo(Arc::clone(&memo))
            .metrics(Arc::clone(&registry))
            .build()
            .run(Arc::new(c2))
            .expect("fits");
        assert!(
            registry.counter("route.graph_reuse").get() > after_first,
            "second job on the same device must reuse the graph"
        );
    }

    #[test]
    fn validation_rejects_oversized_circuits_in_both_entry_points() {
        let manager = manager();
        let big = Arc::new(Circuit::new(9));
        let too_large = Some(CoOptError::CircuitTooLarge {
            needed: 9,
            available: 4,
        });
        assert_eq!(manager.run(Arc::clone(&big)).err(), too_large);
        let mut trace = PipelineTrace::default();
        let logical = Logical { circuit: big };
        let applied = manager.apply(
            &ValidatePass,
            logical,
            CacheDisposition::NotCached,
            &mut trace,
        );
        assert_eq!(applied.err(), too_large);
        assert!(trace.passes.is_empty(), "a failed pass records nothing");
    }

    #[test]
    fn compile_rejects_oversized_circuits() {
        // Validation runs before scheduler dispatch, so neither scheduler
        // ever sees a circuit the device cannot hold.
        for scheduler in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
            let result = PassManager::builder()
                .topology(Topology::grid(2, 2))
                .options(CompileOptions::default().with_scheduler(scheduler))
                .build()
                .run(Arc::new(Circuit::new(9)));
            assert_eq!(
                result.err(),
                Some(CoOptError::CircuitTooLarge {
                    needed: 9,
                    available: 4
                }),
                "{scheduler}"
            );
        }
    }

    #[test]
    fn distinct_shapes_are_keyed_apart() {
        let topo = Topology::grid(2, 2);
        let a = small_circuit();
        let mut b = (*small_circuit()).clone();
        b.push(Gate::X, &[1]);
        assert_ne!(shape_key(&a, &topo), shape_key(&b, &topo));
        assert_ne!(shape_key(&a, &topo), shape_key(&a, &Topology::grid(2, 3)));
    }

    #[test]
    fn dcg_method_uses_dcg_durations() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        let compiled = PassManager::builder()
            .topology(Topology::line(2))
            .options(CompileOptions::default().with_method(PulseMethod::Dcg))
            .build()
            .run(Arc::new(c))
            .expect("fits")
            .compiled;
        assert_eq!(compiled.durations, GateDurations::dcg());
        assert!(compiled.execution_time() > 0.0);
    }

    #[test]
    fn zzx_compiles_with_identities_parsched_without() {
        let mut c = Circuit::new(6);
        c.push(Gate::H, &[0]).push(Gate::Cnot, &[0, 1]);
        let c = Arc::new(c);
        let compile = |scheduler| {
            PassManager::builder()
                .topology(Topology::grid(2, 3))
                .options(CompileOptions::default().with_scheduler(scheduler))
                .build()
                .run(Arc::clone(&c))
                .expect("fits")
                .compiled
        };
        assert!(compile(SchedulerKind::ZzxSched).plan.identity_count() > 0);
        assert_eq!(compile(SchedulerKind::ParSched).plan.identity_count(), 0);
    }

    #[test]
    fn residual_factor_is_attached() {
        let mut c = Circuit::new(2);
        c.push(Gate::X, &[0]);
        let compiled = PassManager::builder()
            .topology(Topology::line(2))
            .options(CompileOptions::default().with_method(PulseMethod::Gaussian))
            .build()
            .run(Arc::new(c))
            .expect("fits")
            .compiled;
        assert!(
            compiled.residuals.x90 > 0.5,
            "Gaussian X90 must not suppress"
        );
    }

    #[test]
    fn trace_display_is_compact() {
        let outcome = manager().run(small_circuit()).expect("fits");
        let line = outcome.trace.to_string();
        assert!(line.contains("validate"), "{line}");
        assert!(line.contains("zzx-sched"), "{line}");
        assert!(line.contains("total"), "{line}");
    }
}
