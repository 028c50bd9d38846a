//! # skyline-adaptive
//!
//! **Adaptive SFS** (Section 4 of *"Efficient Skyline Querying with Variable User Preferences
//! on Nominal Attributes"*): a progressive, low-preprocessing alternative to the IPO-tree.
//!
//! Preprocessing (Algorithm 3) computes the template skyline `SKY(R̃)` once — one serial
//! [`skyline_core::algo::sfs::Scan`] drain over the score-sorted live rows — and keeps it sorted
//! by a monotone preference score. At query time (Algorithm 4) only the points that carry a
//! value the query lists *beyond the template's own prefix* change rank (AFFECT, see the
//! lemma in [`asfs`]); they are re-inserted at their new positions and a single elimination
//! pass — the core [`skyline_core::algo::sfs::Scan`], which here only ever tests points
//! against the accepted re-ranked ones — produces `SKY(R̃′)`. Results stream out
//! progressively in score order ([`AdaptiveSfs::query_scan`]), and the sorted list supports
//! incremental maintenance when the underlying data changes.
//!
//! * [`asfs::AdaptiveSfs`] — the query structure (the paper's **SFS-A**), including the
//!   incremental-maintenance mode of Section 4.3: [`AdaptiveSfs::insert_row`] and
//!   [`AdaptiveSfs::delete_row`] update the sorted list and indexes in place (bumping the
//!   structure's [`skyline_core::DatasetEpoch`]). Each mutation is exact, so nothing re-runs
//!   the preprocessing; reclaiming tombstoned rows is the engine's generation rebuild, which
//!   builds a fresh structure with [`AdaptiveSfs::build`] over the compacted dataset.
//! * [`sorted_list`] — the scored entries behind the sorted list.
//! * [`index::ValueIndex`] — per-dimension value → id lookup. Over the template skyline it
//!   finds the affected points (newly listed values only) without scanning the whole list;
//!   over every live row it lets the delete path restrict its resurface scan to the deleted
//!   member's dominance region.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asfs;
pub mod index;
pub mod snapshot;
pub mod sorted_list;

pub use asfs::{AdaptiveSfs, MaintenanceStats, PreprocessStats, ScanMode};
pub use index::ValueIndex;
pub use sorted_list::ScoredEntry;
