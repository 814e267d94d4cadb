//! Quantum-computing primitives shared by the `zz-*` workspace.
//!
//! Builds on [`zz_linalg`] and provides:
//!
//! * [`pauli`] — the Pauli operators and tensor-product Pauli strings,
//! * [`gates`] — standard and IBMQ-native gate matrices (`X90`, `Rzx`, …),
//! * [`states`] — computational-basis and common single-qubit states,
//! * [`fidelity`] — average gate fidelity (Nielsen's formula) and friends,
//! * [`embed`] — lifting k-qubit operators into an n-qubit register,
//! * [`transmon`] — multi-level (Duffing) transmon operators for leakage
//!   studies.
//!
//! # Qubit ordering convention
//!
//! Qubit `0` is the **leftmost** tensor factor and therefore the **most
//! significant bit** of a basis-state index: `|q₀ q₁ … q_{n−1}⟩` has index
//! `Σ qᵢ · 2^{n−1−i}`. All crates in this workspace follow this convention.
//!
//! # Example
//!
//! ```
//! use zz_quantum::gates;
//! use zz_quantum::fidelity::average_gate_fidelity;
//!
//! // Two X90 pulses compose to an X gate (up to global phase).
//! let x90 = gates::x90();
//! let composed = x90.matmul(&x90);
//! let f = average_gate_fidelity(&composed, &gates::x());
//! assert!((f - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

mod embedding;
pub mod fidelity;
pub mod gates;
pub mod pauli;
pub mod states;
pub mod transmon;

pub use embedding::embed;
