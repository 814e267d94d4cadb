//! Workspace root crate.
//!
//! This crate exists to host the runnable examples in `examples/` and the
//! cross-crate integration tests in `tests/`. The actual library surface
//! lives in the `zz-*` crates under `crates/`; the front door is
//! [`zz_service`]: build a [`Target`](zz_service::Target) describing the
//! device, open a [`Session`](zz_service::Session) over it, and submit
//! typed compile/evaluate requests.
//!
//! # Quickstart
//!
//! ```
//! use zz_circuit::bench::{BenchmarkKind, generate};
//! use zz_service::{CompileRequest, Session, Target};
//!
//! let session = Session::new(Target::for_qubits(4)?);
//! let response = session.compile(&CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7)))?;
//! assert!(response.compiled.plan.layer_count() >= 1);
//! # Ok::<(), zz_service::Error>(())
//! ```
//!
//! For many circuits at once, run them as one batch and collect the
//! results in order — the session's workers share one calibration cache
//! and one routing memo:
//!
//! ```
//! use zz_circuit::bench::{BenchmarkKind, generate};
//! use zz_service::{CompileOptions, CompileRequest, PulseMethod, Session, Target};
//!
//! let session = Session::new(Target::paper_default());
//! let report = session.run([PulseMethod::Gaussian, PulseMethod::Pert].map(|m| {
//!     CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7))
//!         .with_options(CompileOptions::default().with_method(m))
//! }));
//! assert_eq!(report.error_count(), 0);
//! println!("{report}");
//! ```
//!
//! Both paths run the typed pass pipeline of [`zz_core::pipeline`]
//! (`Logical → Routed → Native → Scheduled → Compiled`); every response
//! carries its per-pass [`PipelineTrace`](zz_core::pipeline::PipelineTrace):
//!
//! ```
//! use zz_circuit::bench::{BenchmarkKind, generate};
//! use zz_service::{CompileRequest, Session, Target};
//!
//! let session = Session::new(Target::for_qubits(4)?);
//! let response = session.compile(&CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7)))?;
//! let trace = response.trace.expect("tracing is on by default");
//! assert_eq!(trace.passes.len(), 5); // validate…pulse, all timed
//! # Ok::<(), zz_service::Error>(())
//! ```
//!
//! To persist compiled artifacts across processes — warm starts for the
//! figure binaries, tests and services — give the target an on-disk
//! store (`Target::builder().store_dir(…)`, or set `ZZ_CACHE_DIR` and use
//! `.store_from_env()`); see `examples/warm_cache.rs`.
//!
//! The session is the only compile path; `tests/golden_keys.rs` pins its
//! output bit for bit.

#![warn(missing_docs)]

pub use zz_circuit as circuit;
pub use zz_core as framework;
pub use zz_fleet as fleet;
pub use zz_graph as graph;
pub use zz_linalg as linalg;
pub use zz_obs as obs;
pub use zz_persist as persist;
pub use zz_pulse as pulse;
pub use zz_quantum as quantum;
pub use zz_sched as sched;
pub use zz_service as service;
pub use zz_sim as sim;
pub use zz_topology as topology;
