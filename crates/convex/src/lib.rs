//! # madlib-convex
//!
//! The unified convex-optimization framework from Section 5.1 of the MADlib
//! paper (the University of Wisconsin contribution): a single stochastic /
//! incremental gradient descent (IGD) driver that trains every model in the
//! paper's Table 2 from one abstraction.
//!
//! The key idea is the decomposable objective `f(x) = Σᵢ fᵢ(x)` where each
//! training tuple contributes one term `fᵢ`.  A model only has to provide the
//! per-tuple loss and gradient ([`ConvexObjective`]); the framework supplies
//! the macro-programming — parallel passes over the table, per-segment model
//! averaging (the merge step), step-size scheduling, convergence testing and
//! the driver loop — exactly as the paper describes reusing MADlib's micro-
//! and macro-programming layers.
//!
//! | Table 2 row            | Objective type |
//! |------------------------|----------------|
//! | Least Squares          | [`objectives::LeastSquaresObjective`] |
//! | Lasso                  | [`objectives::LassoObjective`] |
//! | Logistic Regression    | [`objectives::LogisticObjective`] |
//! | Classification (SVM)   | [`objectives::SvmHingeObjective`] |
//! | Recommendation         | [`objectives::MatrixFactorizationObjective`] |
//! | Labeling (CRF)         | [`objectives::CrfObjective`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod igd;
pub mod objective;
pub mod objectives;
pub mod schedule;

pub use igd::{IgdConfig, IgdEstimator, IgdSummary};
pub use objective::ConvexObjective;
pub use schedule::StepSchedule;
