//! The scored entries of the sorted list at the heart of Adaptive SFS.
//!
//! Every entry pairs a template-skyline point with its preference score `f(p)` under the
//! template ranking. [`crate::AdaptiveSfs`] keeps its entries in a sorted `Vec<ScoredEntry>`;
//! the total `(score, point)` order below is what makes binary-search insertion and removal
//! during incremental maintenance deterministic even when scores tie.

use skyline_core::PointId;

/// One `(score, point)` entry. Ordering is by score first (ascending), then by point id so the
/// order is total and deterministic even when scores tie.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEntry {
    /// Preference score `f(p)` under the list's ranking.
    pub score: f64,
    /// The data point.
    pub point: PointId,
}

impl ScoredEntry {
    /// Creates an entry.
    pub fn new(point: PointId, score: f64) -> Self {
        Self { score, point }
    }
}

impl Eq for ScoredEntry {}

impl PartialOrd for ScoredEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoredEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.point.cmp(&other.point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_order_by_score_then_point() {
        let a = ScoredEntry::new(5, 1.0);
        let b = ScoredEntry::new(3, 1.0);
        let c = ScoredEntry::new(1, 2.0);
        let mut v = vec![c, a, b];
        v.sort();
        assert_eq!(v, vec![b, a, c]);
        assert!(a > b);
        assert_eq!(a.partial_cmp(&c), Some(std::cmp::Ordering::Less));
    }

    #[test]
    fn sort_by_score_agrees_with_the_entry_order() {
        use skyline_core::score::ScoreFn;
        use skyline_core::{Dataset, Dimension, Schema};
        // The build and SFS-D paths order candidates with `ScoreFn::sort_by_score`, the sorted
        // list with `ScoredEntry`'s `Ord`: the two must be one order, ties included.
        let schema = Schema::new(vec![Dimension::numeric("x")]).unwrap();
        let xs: Vec<f64> = (0..48).map(|i| ((i * 5) % 7) as f64 - 3.0).collect();
        let data = Dataset::from_columns(schema, vec![xs], vec![]).unwrap();
        let f = ScoreFn::default_ranking(data.schema());
        let ids: Vec<PointId> = data.point_ids().collect();
        let mut entries: Vec<ScoredEntry> = ids
            .iter()
            .map(|&p| ScoredEntry::new(p, f.score(&data, p)))
            .collect();
        entries.sort();
        let by_entries: Vec<PointId> = entries.iter().map(|e| e.point).collect();
        assert_eq!(f.sort_by_score(&data, &ids), by_entries);
    }

    #[test]
    fn nan_scores_keep_the_order_total() {
        // Scores decoded from a snapshot are arbitrary bit patterns: total_cmp gives NaN a
        // fixed position instead of panicking, so the decoder's order check stays total.
        let mut v = [ScoredEntry::new(1, f64::NAN), ScoredEntry::new(2, 0.0)];
        v.sort();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].point, 2);
    }
}
