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

use crate::dominance::Dominance;
use crate::value::PointId;

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

/// Verifies that `skyline` is exactly the skyline of `points` under `ctx`.
///
/// This is an O(|points|·|skyline|) brute-force check intended for tests and debug assertions,
/// not for production use.
pub fn verify_skyline<D: Dominance + ?Sized>(
    ctx: &D,
    points: &[PointId],
    skyline: &[PointId],
) -> bool {
    use std::collections::HashSet;
    let skyline_set: HashSet<PointId> = skyline.iter().copied().collect();
    // Every skyline member must be non-dominated; every non-member must be dominated by someone.
    for &p in points {
        let dominated = points.iter().any(|&q| ctx.dominates(q, p));
        if skyline_set.contains(&p) && dominated {
            return false;
        }
        if !skyline_set.contains(&p) && !dominated {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::dominance::DominanceContext;
    use crate::order::Template;
    use crate::schema::{Dimension, Schema};

    #[test]
    fn verify_skyline_accepts_correct_and_rejects_wrong() {
        let schema = Schema::new(vec![Dimension::numeric("x"), Dimension::numeric("y")]).unwrap();
        let data = Dataset::from_columns(
            schema,
            vec![vec![1.0, 2.0, 3.0], vec![3.0, 2.0, 1.0]],
            vec![],
        )
        .unwrap();
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let all: Vec<u32> = (0..3).collect();
        assert!(verify_skyline(&ctx, &all, &[0, 1, 2]));
        assert!(!verify_skyline(&ctx, &all, &[0, 1]));

        let dominated = Dataset::from_columns(
            data.schema().clone(),
            vec![vec![1.0, 2.0], vec![1.0, 2.0]],
            vec![],
        )
        .unwrap();
        let t2 = Template::empty(dominated.schema());
        let ctx2 = DominanceContext::for_template(&dominated, &t2).unwrap();
        assert!(verify_skyline(&ctx2, &[0, 1], &[0]));
        assert!(!verify_skyline(&ctx2, &[0, 1], &[0, 1]));
    }
}
