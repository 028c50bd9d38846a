//! Full-dataset skyline algorithms.
//!
//! These are the reference algorithms the paper builds on and compares against:
//!
//! * [`bnl`] — Block-Nested-Loop (Börzsönyi et al. \[1\]), the simplest correct algorithm;
//!   used in this workspace only as the test oracle.
//! * [`sfs`] — Sort-First Skyline (Chomicki et al. \[7\]): presort by a monotone preference
//!   function, then a single elimination scan, [`sfs::Scan`]. Run over the full dataset with
//!   the query's ranking it is exactly the paper's **SFS-D** baseline; over the re-ranked
//!   template skyline it is Adaptive SFS's Algorithm 4.
//! * [`merge`] — the divide-and-conquer merge as a first-class operator: combine
//!   per-fragment skylines (chunks of one block, or shards with separate id spaces) into the
//!   skyline of the union.
//!
//! All three are generic over the [`crate::dominance::Dominance`] trait, so the same
//! elimination loops run against the reference [`crate::DominanceContext`] or the compiled
//! [`crate::kernel::CompiledRelation`] kernel, for any combination of numeric dimensions and
//! nominal dimensions with partial-order preferences.

pub mod bnl;
pub mod merge;
pub mod sfs;

pub use merge::{merge_skylines, SkylineMerger};

/// The work one query, scan or lookup did, in machine-neutral units: every field is a plain
/// count that repeats exactly on any host and thread count. The paper reports wall-clock
/// times; Kalyvas & Tzouramanis compare skyline algorithms by dominance-test count, which
/// tracks the same trends. Fields an algorithm does not touch stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Pairwise dominance tests: per rejected candidate the index of its first dominator
    /// plus one, per accepted candidate the number of window rows it was tested against.
    pub dominance_tests: u64,
    /// Candidates an elimination scan examined.
    pub candidates: u64,
    /// Adaptive SFS: the re-ranked members of `SKY(R)` (its AFFECT set).
    pub affected: u64,
    /// Rows emitted: the answer size once a scan is drained.
    pub rows_emitted: u64,
    /// IPO tree: nodes visited.
    pub nodes_visited: u64,
    /// IPO tree: set operations (intersections, unions, differences, filters) performed.
    pub set_operations: u64,
    /// IPO tree: leaf-level partial results produced.
    pub leaf_results: u64,
}
