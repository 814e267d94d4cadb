//! The pulse and scheduling co-optimization framework (the paper's
//! contribution, assembled from the workspace substrates).
//!
//! A [`PassManager`] pairs a pulse-optimization method (`Gaussian`,
//! `OptCtrl`, `Pert`, `DCG`) with a scheduling policy (`ParSched`,
//! `ZZXSched`) and compiles logical circuits end to end:
//!
//! 1. route onto the device topology ([`zz_circuit::route`]),
//! 2. translate to the native gate set ([`zz_circuit::native`]),
//! 3. schedule into layers with identity supplementation
//!    ([`zz_sched`]),
//! 4. attach the method's calibrated pulses and their *measured*
//!    cross-region residual factor ([`calib`]),
//!
//! after which [`evaluate`] scores the compiled circuit under the ZZ (and
//! optionally decoherence) error model of [`zz_sim`].
//!
//! [`pipeline`] models those stages as typed passes
//! (`Logical → Routed → Native → Scheduled → Compiled`) with per-pass
//! instrumentation ([`PipelineTrace`]) and stage-granular caching: a
//! routing memo shared across runs, a shared calibration cache
//! ([`calib::CalibCache`]) and, backed by an on-disk
//! [`zz_persist::ArtifactStore`], artifacts that persist across
//! processes ([`persist`] holds the codec glue), so a warm start skips
//! calibration and routing entirely. The service layer (`zz_service`)
//! wraps one manager per request behind its `Session` front door.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use zz_core::{CompileOptions, PassManager, PulseMethod, SchedulerKind};
//! use zz_circuit::bench::{generate, BenchmarkKind};
//! use zz_topology::Topology;
//!
//! let circuit = Arc::new(generate(BenchmarkKind::Qaoa, 6, 1));
//! let compile = |method, scheduler| {
//!     PassManager::builder()
//!         .topology(Topology::grid(3, 4))
//!         .options(CompileOptions::new(method, scheduler))
//!         .build()
//!         .run(Arc::clone(&circuit))
//! };
//!
//! let baseline = compile(PulseMethod::Gaussian, SchedulerKind::ParSched)?.compiled;
//! let ours = compile(PulseMethod::Pert, SchedulerKind::ZzxSched)?.compiled;
//! assert!(ours.plan.mean_nc() <= baseline.plan.mean_nc());
//! # Ok::<(), zz_core::CoOptError>(())
//! ```

#![warn(missing_docs)]

pub mod calib;
pub mod evaluate;
pub mod options;
pub mod persist;
pub mod pipeline;

pub use options::CompileOptions;
pub use pipeline::{
    CoOptError, Compiled, PassManager, PassManagerBuilder, PipelineOutcome, PipelineTrace,
    SchedulerKind, Stage,
};
pub use zz_pulse::library::PulseMethod;
