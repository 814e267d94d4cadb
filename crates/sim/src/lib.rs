//! Statevector and density-matrix simulation with ZZ crosstalk and
//! decoherence.
//!
//! This crate executes [`zz_sched::SchedulePlan`]s under the paper's error
//! model:
//!
//! * **ZZ crosstalk** — during every layer, each coupling `(u,v)` applies
//!   the commuting phase `exp(−i λ_eff T_layer Z_u Z_v)`. Couplings whose
//!   crosstalk the layer's pulses suppress (cross-region) use
//!   `λ_eff = r·λ` with the method's calibrated residual factor `r`;
//!   unsuppressed (intra-region) couplings use the full `λ`. This is the
//!   circuit-level factorization of the paper's Hamiltonian-level model.
//! * **Decoherence** — amplitude damping (`T1`) and pure dephasing (from
//!   `T2`) per qubit per layer, simulated exactly on density matrices
//!   ([`executor::run_density`], up to [`density::EXACT_MAX_QUBITS`]
//!   qubits) and by Monte-Carlo trajectory unraveling on state vectors
//!   ([`program::TrajectoryProgram`]) for larger registers.
//!
//! Execution goes through precompiled programs ([`program`]): one builder
//! resolves a plan into fused phase diagonals, branch-free gate kernels
//! and per-layer decoherence probabilities, and one replay loop runs them
//! on the structure-of-arrays [`batch`] store, which sweeps a whole batch
//! of trajectories per amplitude visit. A deterministic
//! [`program::PlanProgram`] is the decoherence-free case, replayed on one
//! lane; a [`program::TrajectoryProgram`] fans Monte-Carlo trajectories
//! out with thread-count- and batch-width-independent results. The
//! engine keeps no counters: programs report their fused diagonals and
//! the trajectory fan returns its work as [`program::EngineStats`], for
//! the caller to record. [`executor`] holds the error model
//! ([`executor::ZzErrorModel`]) the programs compile against.
//! [`StateVector`] keeps the scalar kernels the reference executor of
//! `zz_bench` runs on.
//!
//! # Example
//!
//! ```
//! use zz_circuit::{bench, native::compile_to_native, route};
//! use zz_sched::{par_schedule, GateDurations};
//! use zz_sim::executor::ZzErrorModel;
//! use zz_sim::program::PlanProgram;
//! use zz_topology::Topology;
//!
//! let topo = Topology::grid(2, 2);
//! let circuit = bench::generate(bench::BenchmarkKind::Qft, 4, 1);
//! let native = compile_to_native(&route(&circuit, &topo));
//! let plan = par_schedule(&topo, &native);
//!
//! // The ideal reference, computed once and reused across disorder seeds.
//! let ideal = PlanProgram::ideal(&plan).run();
//! for seed in [7, 8, 9] {
//!     let model = ZzErrorModel::sampled(&topo, zz_sim::khz(200.0), zz_sim::khz(50.0), seed);
//!     let noisy = PlanProgram::compile(&plan, &topo, &model, &GateDurations::standard()).run();
//!     let f = ideal.fidelity(&noisy);
//!     assert!(f > 0.0 && f <= 1.0 + 1e-9);
//! }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod density;
pub mod executor;
pub mod program;
pub mod statevector;

pub use statevector::StateVector;

/// Converts MHz to rad/ns (re-exported convention helper).
pub fn mhz(f: f64) -> f64 {
    2.0 * std::f64::consts::PI * f * 1e-3
}

/// Converts kHz to rad/ns.
pub fn khz(f: f64) -> f64 {
    mhz(f * 1e-3)
}
