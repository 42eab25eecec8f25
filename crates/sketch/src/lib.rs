//! # madlib-sketch
//!
//! Streaming sketches and data profiling for MADlib-rs: the "Descriptive
//! Statistics" rows of the paper's Table 1 — Count-Min sketch,
//! Flajolet–Martin distinct-count sketch, approximate quantiles, and the
//! templated `profile` module that summarizes every column of an arbitrary
//! table.
//!
//! All sketches are *mergeable*: combining the sketches of two data
//! partitions gives the same answer (within the error bounds) as sketching
//! the union.  This is what makes them usable as user-defined aggregates in
//! the engine's shared-nothing execution model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod countmin;
pub mod fm;
pub mod profile;
pub mod quantile;

pub use adapters::{
    CountMinAggregate, FmDistinctAggregate, MostFrequentValuesAggregate, SummaryAggregate,
};
pub use countmin::CountMinSketch;
pub use fm::FlajoletMartin;
pub use profile::{ColumnProfile, DatasetProfileExt, ProfileAggregate, Profiler, TableProfile};
pub use quantile::QuantileSummary;
