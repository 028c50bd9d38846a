//! # skyline-core
//!
//! Core building blocks for *skyline querying with variable user preferences on
//! nominal attributes* (Wong, Fu, Pei, Ho, Wong, Liu — arXiv:0710.2604).
//!
//! A dataset mixes **numeric** dimensions (universal total order, smaller is better)
//! with **nominal** dimensions that carry *no* predefined order. Each user query supplies
//! an [`order::ImplicitPreference`] per nominal dimension — `v1 ≺ v2 ≺ … ≺ vx ≺ *` — and the
//! skyline must be computed under the strict partial order induced by that preference.
//!
//! This crate provides:
//!
//! * the data model: [`Schema`], [`Dataset`], nominal value dictionaries ([`NominalDomain`]);
//! * preference machinery: general strict [`order::PartialOrder`]s, the restricted
//!   [`order::ImplicitPreference`] form used by the paper, [`order::Preference`] profiles and
//!   [`order::Template`]s shared by all users;
//! * dominance testing ([`DominanceContext`]) and the monotone scoring function used by the
//!   SFS family ([`score::ScoreFn`]);
//! * the compiled dominance kernel ([`kernel`]): query-compiled closure bitmasks over a
//!   cache-friendly row-major point layout, behind the shared [`dominance::Dominance`] trait;
//! * baseline full-dataset skyline algorithms: block-nested-loop ([`algo::bnl`]) and
//!   sort-first-skyline ([`algo::sfs`]: one progressive scan, the paper's **SFS-D** baseline
//!   and Adaptive SFS's elimination loop), counting into one [`Work`] record;
//! * minimal disqualifying conditions ([`mdc`]) used by the IPO-tree construction;
//! * a compact [`bitset::BitSet`] shared by the partial-order closure and the bitmap
//!   IPO-tree representation;
//! * skyline statistics reported in the paper's figures ([`stats`]).
//!
//! Higher-level crates build on this one: `skyline-ipo` (IPO-Tree search), `skyline-adaptive`
//! (Adaptive SFS) and `skyline` (facade + hybrid engine).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod bitset;
pub mod dataset;
pub mod deadline;
pub mod dominance;
pub mod error;
pub mod kernel;
mod lanes;
pub mod mdc;
pub mod order;
pub mod schema;
pub mod score;
pub mod snapshot;
pub mod stats;
pub mod value;

pub use algo::{merge_skylines, ProgressiveMerger, SkylineMerger, Work};
pub use bitset::BitSet;
pub use dataset::{Dataset, DatasetBuilder, RowValue};
pub use deadline::{CancelToken, Deadline, DEADLINE_CHECK_INTERVAL};
pub use dominance::{DomRelation, Dominance, DominanceContext};
pub use error::{Result, SkylineError};
pub use kernel::{
    kernel_mode, window_peek_override, with_window_peek, CompiledOrder, CompiledRelation,
    DatasetEpoch, DenseWindow, KernelMode, PointBlock, RowIdRemap,
};
pub use order::{CanonicalPreference, ImplicitPreference, PartialOrder, Preference, Template};
pub use schema::{Dimension, DimensionKind, Schema};
pub use snapshot::{SnapshotBuilder, SnapshotError, SnapshotView};
pub use value::{NominalDomain, PointId, ValueId};
