//! # skyline-datagen
//!
//! Data and workload generators for the experiments of *"Efficient Skyline Querying with
//! Variable User Preferences on Nominal Attributes"*.
//!
//! The paper evaluates on:
//!
//! * synthetic data produced by the generator released with the authors' earlier
//!   "Mining favorable facets" work: numeric dimensions follow the classic Börzsönyi
//!   **independent / correlated / anti-correlated** models, nominal dimensions draw value ids
//!   from a **Zipfian(θ)** distribution ([`synthetic`], [`zipf`], [`workload`]);
//! * the UCI **Nursery** data set (12,960 rows, 8 attributes, 2 of which are treated as
//!   nominal). Nursery is the complete Cartesian product of its attribute domains, so
//!   [`nursery`] regenerates it exactly without needing the original file.
//!
//! [`workload`] also generates the random implicit-preference queries (100 per configuration
//! in the paper) and exposes [`workload::ExperimentConfig`] mirroring Table 4's default
//! parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod nursery;
pub mod synthetic;
pub mod workload;
pub mod zipf;

pub use synthetic::Distribution;
pub use workload::{ExperimentConfig, QueryGenerator, WorkloadOp};
pub use zipf::Zipf;
