//! Optimization support modules (paper Table 1: "Conjugate Gradient
//! Optimization").

pub mod conjugate_gradient;

pub use conjugate_gradient::conjugate_gradient_solve;
