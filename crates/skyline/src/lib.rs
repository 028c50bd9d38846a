//! # skyline
//!
//! Facade crate for the reproduction of *"Efficient Skyline Querying with Variable User
//! Preferences on Nominal Attributes"* (Wong, Fu, Pei, Ho, Wong, Liu).
//!
//! It re-exports the full public API of the workspace and adds the [`engine::SkylineEngine`],
//! a single entry point that can answer implicit-preference skyline queries with any of the
//! paper's methods ([`EngineConfig`] has one arm each):
//!
//! * **SFS-D** — the baseline: sort-first-skyline over the whole dataset per query;
//! * **SFS-A** — Adaptive SFS: presorted template skyline, per-query re-ranking of affected
//!   points, progressive output;
//! * **Hybrid** — the recommendation of Section 5.3 and the engine's one tree configuration:
//!   an **IPO tree** (partial materialization of first-order preference skylines,
//!   combined per query with the merging property) over the `top_k` most popular values —
//!   `top_k: 10` is the paper's *IPO Tree-10*, `top_k: usize::MAX` its full *IPO Tree* — with
//!   Adaptive SFS as the fallback for queries mentioning unmaterialized values.
//!
//! ```
//! use skyline::prelude::*;
//!
//! // Table 1 of the paper: vacation packages.
//! let schema = Schema::new(vec![
//!     Dimension::numeric("price"),
//!     Dimension::numeric("class-neg"),
//!     Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
//! ]).unwrap();
//! let mut builder = DatasetBuilder::new(schema);
//! for (price, class, group) in [
//!     (1600.0, 4.0, "T"), (2400.0, 1.0, "T"), (3000.0, 5.0, "H"),
//!     (3600.0, 4.0, "H"), (2400.0, 2.0, "M"), (3000.0, 3.0, "M"),
//! ] {
//!     builder.push_row([RowValue::Num(price), RowValue::Num(-class), group.into()]).unwrap();
//! }
//! // Shared ownership: the engine holds an `Arc<Dataset>`, so it is `Send + Sync` and one
//! // build can serve queries from many threads (see the `skyline-service` crate).
//! let data = std::sync::Arc::new(builder.build().unwrap());
//! let template = Template::empty(data.schema());
//! let engine = SkylineEngine::build(data.clone(), template, EngineConfig::Hybrid { top_k: 10 }).unwrap();
//!
//! // Alice prefers Tulips, then Mozilla: her skyline is {a, c}.
//! let alice = Preference::parse(data.schema(), [("hotel-group", "T < M < *")]).unwrap();
//! let outcome = engine.query(&alice).unwrap();
//! assert_eq!(outcome.skyline, vec![0, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod maintenance;
pub mod snapshot;

pub use engine::{
    EngineConfig, EngineStream, Generation, GenerationRemap, GenerationSnapshot, MethodUsed,
    PendingGeneration, QueryOutcome, SharedEngine, SkylineEngine,
};
pub use maintenance::MaintenancePolicy;

pub use skyline_adaptive as adaptive;
pub use skyline_core as model;
pub use skyline_datagen as datagen;
pub use skyline_ipo as ipo;

/// Convenient glob import for applications: `use skyline::prelude::*;`.
pub mod prelude {
    pub use crate::engine::{
        EngineConfig, EngineStream, Generation, GenerationRemap, MethodUsed, QueryOutcome,
        SharedEngine, SkylineEngine,
    };
    pub use crate::maintenance::MaintenancePolicy;
    pub use skyline_adaptive::{AdaptiveSfs, MaintenanceStats};
    pub use skyline_core::{
        CompiledRelation, Dataset, DatasetBuilder, DatasetEpoch, Dimension, DimensionKind,
        Dominance, DominanceContext, ImplicitPreference, NominalDomain, PartialOrder, PointId,
        Preference, Result, RowIdRemap, RowValue, Schema, SkylineError, Template, ValueId,
    };
    pub use skyline_datagen::{Distribution, ExperimentConfig, QueryGenerator, WorkloadOp};
    pub use skyline_ipo::{BitmapIpoTree, IpoTree, IpoTreeBuilder};
}
