//! `zz_service` — the session-based front door of the co-optimization
//! stack.
//!
//! The engine crates under this one ([`zz_core`]'s pass pipeline and
//! calibration, `zz_persist`'s artifact store, `zz_sim`'s programs) each
//! expose their own slice of device state. This crate bundles them behind
//! two types:
//!
//! * **[`Target`]** — one value describing the machine: topology, ZZ
//!   noise characterization, calibration source and optional on-disk
//!   artifact store. Build the paper device with
//!   [`Target::paper_default`], the smallest paper sub-grid for a
//!   register with [`Target::for_qubits`], or anything else with
//!   [`Target::builder`].
//! * **[`Session`]** — a long-lived service over one target, owning the
//!   worker pool, routing memo and caches. Submit typed
//!   [`CompileRequest`]s synchronously ([`Session::compile`]), as
//!   non-blocking [`JobHandle`]s ([`Session::submit`]) or as a batch
//!   ([`Session::run`]); responses carry the compiled plan, pipeline
//!   trace, cache dispositions and optional evaluated fidelity. The
//!   session keeps no finished job: each result is handed to the caller
//!   that asked for it.
//!
//! Every failure is a typed [`Error`] with the job label attached — no
//! public path panics on user input. A session is the one compile path:
//! each request runs a `zz_core` pass manager wired to the session's
//! caches, and `tests/golden_keys.rs` pins its output bit for bit.
//!
//! # Example
//!
//! ```
//! use zz_circuit::bench::{generate, BenchmarkKind};
//! use zz_service::{CompileOptions, CompileRequest, EvalSpec, Session, Target};
//! use zz_service::{PulseMethod, SchedulerKind};
//!
//! // One target, one session, for however many requests follow.
//! let session = Session::new(Target::for_qubits(4)?);
//!
//! // Synchronous: compile + evaluate in one call.
//! let request = CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7))
//!     .with_options(CompileOptions::new(PulseMethod::Pert, SchedulerKind::ZzxSched))
//!     .with_eval(EvalSpec::paper_default());
//! let response = session.compile(&request)?;
//! assert!(response.fidelity.expect("eval requested") > 0.5);
//!
//! // Non-blocking: queue one job and wait on its handle.
//! let handle = session.submit(request.clone());
//! assert_eq!(handle.wait()?.fidelity, response.fidelity);
//!
//! // A batch: run a sweep and collect its results in order.
//! let report = session.run([0.0, 0.5, 1.0].map(|alpha| {
//!     CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7))
//!         .with_options(CompileOptions::default().with_alpha(alpha))
//!         .with_label(format!("alpha-{alpha}"))
//! }));
//! assert_eq!(report.outcomes.len(), 3);
//! assert_eq!(report.error_count(), 0);
//! // The whole sweep replays the routing pass the synchronous compile
//! // above already paid for — the session memo serves every job.
//! assert_eq!(report.route_misses, 0);
//! assert_eq!(report.route_hits, 3);
//! # Ok::<(), zz_service::Error>(())
//! ```

#![warn(missing_docs)]

mod error;
mod session;
mod target;

pub use error::Error;
pub use session::{
    CompileRequest, CompileResponse, DiskStatus, EvalSpec, JobHandle, ServiceReport, Session,
    StageStats,
};
pub use target::{Target, TargetBuilder};

// The request-configuration types a service caller needs, re-exported so
// one `use zz_service::…` line covers the whole front door.
pub use zz_core::{CompileOptions, Compiled, PipelineTrace, PulseMethod, SchedulerKind};
pub use zz_obs::{MetricsSnapshot, Registry, RequestId};
