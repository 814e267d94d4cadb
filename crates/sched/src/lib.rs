//! ZZ-aware scheduling: α-optimal suppression and the ZZXSched scheduler.
//!
//! This crate implements the scheduling half of the paper's co-optimization:
//!
//! * [`metrics`] — the `NQ`/`NC` suppression metrics of a qubit-status cut,
//! * [`suppression`] — **Algorithm 1**: α-optimal suppression on planar
//!   topologies via odd-vertex pairings in the dual graph (Delete Edges →
//!   Vertex Matching → Path Relaxing → Add Edges → Cut Inducing → Check),
//! * [`plan`] — scheduled layers with per-layer qubit status and durations,
//! * [`zzx`] — **Algorithm 2**: the complete ZZXSched scheduler with the
//!   Case-1 (single-qubit, complete suppression on bipartite devices) and
//!   Case-2 (two-qubit distance heuristic) strategies (the crate keeps no
//!   counters: [`zzx::zzx_schedule_counted`] returns its counts),
//! * [`parsched`] — the maximal-parallelism ASAP baseline used by current
//!   compilers (the paper's `ParSched`).
//!
//! # Example
//!
//! ```
//! use zz_circuit::{Circuit, Gate, native::compile_to_native, route};
//! use zz_sched::{zzx::{zzx_schedule, ZzxConfig}, parsched::par_schedule};
//! use zz_topology::Topology;
//!
//! let topo = Topology::grid(2, 3);
//! let mut c = Circuit::new(6);
//! for q in 0..6 { c.push(Gate::H, &[q]); }
//! let native = compile_to_native(&route(&c, &topo));
//!
//! let par = par_schedule(&topo, &native);
//! let zzx = zzx_schedule(&topo, &native, &ZzxConfig::paper_default(&topo));
//! // ZZXSched trades parallelism (more layers) for suppression (lower NC).
//! assert!(zzx.layer_count() >= par.layer_count());
//! assert!(zzx.mean_nc() <= par.mean_nc());
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod parsched;
pub mod plan;
pub mod render;
pub mod suppression;
pub mod zzx;

pub use metrics::{cut_metrics, CutMetrics};
pub use plan::{GateDurations, Layer, PlanSummary, SchedulePlan};
pub use render::{render_plan, summarize_plan};
pub use suppression::{alpha_optimal_suppression, SuppressionPlan};
pub use zzx::{zzx_schedule, Requirement, ZzxConfig};

pub use parsched::par_schedule;
