//! # madlib-linalg
//!
//! Dense and sparse linear-algebra support for the MADlib-rs analytics
//! library.
//!
//! The MADlib paper (Section 3.2–3.3) layers its statistical methods on top of
//! a "micro-programming" layer: an abstraction over an in-core linear-algebra
//! library (Eigen in the C++ implementation) plus a custom run-length-encoded
//! sparse-vector representation.  This crate is the Rust equivalent of that
//! layer.  It is intentionally self-contained — no LAPACK, BLAS, or Eigen —
//! so that the whole reproduction builds from source on any platform.
//!
//! The crate provides:
//!
//! * [`DenseVector`] and [`DenseMatrix`]: owned, row-major dense containers
//!   with the vector/matrix operations the method library needs.
//! * [`kernels`]: the performance-critical inner-loop routines, provided in
//!   three *generations* mirroring MADlib v0.1alpha, v0.2.1beta and v0.3
//!   (see the paper's Figure 4 discussion).  The benchmark harness uses these
//!   to regenerate the version-comparison experiment.
//! * [`decomposition`]: Cholesky, LU, symmetric Jacobi eigendecomposition and
//!   a Moore–Penrose pseudo-inverse built on it (the paper's final step of
//!   linear regression uses exactly such a pseudo-inverse of `XᵀX`).
//! * [`sparse`]: a run-length-encoded sparse vector, matching the MADlib
//!   sparse-vector support module.
//! * [`array_ops`]: the element-wise "array operations" support module from
//!   Table 1 of the paper.

// `deny` rather than `forbid`: `kernels::simd` carries a single scoped
// `#[allow(unsafe_code)]` around the `__m256d` lane type (`core::arch::x86_64`
// intrinsics) and the `#[target_feature]` entry points that instantiate the
// kernels at it.  The kernels themselves, written once for both lane types,
// and everything else stay safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod array_ops;
pub mod decomposition;
pub mod dense;
pub mod error;
pub mod kernels;
pub mod sparse;

pub use dense::{DenseMatrix, DenseVector};
pub use error::{LinalgError, Result};
pub use sparse::SparseVector;

/// Numeric tolerance used throughout the crate for near-zero comparisons.
pub const EPSILON: f64 = 1e-12;
