//! Dense complex linear algebra for small quantum systems.
//!
//! This crate is the numerical substrate of the `zz-*` workspace. It provides
//! exactly the operations that Hamiltonian-level simulation of few-qubit
//! systems needs, implemented from scratch and tuned for matrices of
//! dimension ≤ 64:
//!
//! * [`c64`] — a `Copy` complex number with full arithmetic,
//! * [`Matrix`] — a dense row-major complex matrix with products, adjoints,
//!   Kronecker products and norms, and [`matmul_into`], its product over
//!   caller-owned slices,
//! * [`Vector`] — a complex column vector (quantum state amplitudes),
//! * [`eig::eigh`] — Hermitian eigendecomposition (cyclic complex Jacobi),
//! * [`expm`] — unitary matrix exponentials `exp(-i H t)`, both via
//!   eigendecomposition and via scaled Taylor series for propagation loops.
//!
//! # Example
//!
//! ```
//! use zz_linalg::{c64, Matrix};
//!
//! // exp(-i (π/2) X) is -i X up to numerical error.
//! let x = Matrix::from_rows(&[
//!     &[c64::ZERO, c64::ONE],
//!     &[c64::ONE, c64::ZERO],
//! ]);
//! let u = zz_linalg::expm::expm_neg_i_h_t(&x, std::f64::consts::FRAC_PI_2);
//! let expected = x.scale(c64::new(0.0, -1.0));
//! assert!(u.approx_eq(&expected, 1e-12));
//! ```

#![warn(missing_docs)]

mod complex;
pub mod eig;
pub mod expm;
mod matrix;
mod vector;

pub use complex::c64;
pub use matrix::{matmul_into, Matrix};
pub use vector::Vector;
