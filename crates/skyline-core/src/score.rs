//! The monotone preference (scoring) function used by the SFS family (Section 4.2).
//!
//! Every value `v` of a dimension gets a rank `r(v)`; the score of a point is
//! `f(p) = Σ_i r(p.D_i)`. The requirement is monotonicity: if `p` dominates `q` under the
//! preference then `f(p) < f(q)`, so that sorting by `f` guarantees no point is dominated by a
//! point that sorts after it.
//!
//! * numeric dimensions: `r(v) = v` (smaller is better);
//! * nominal dimensions: listed values get their 1-based position in the implicit preference,
//!   unlisted values get the dimension's cardinality `cᵢ`.

use crate::dataset::Dataset;
use crate::error::Result;
use crate::order::Preference;
use crate::schema::Schema;
use crate::value::{PointId, ValueId};

/// A materialized ranking of every nominal value under one preference, plus the machinery to
/// score points and whole datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreFn {
    /// `nominal_ranks[j][v]` is `r(v)` for value `v` of nominal dimension `j`.
    nominal_ranks: Vec<Vec<f64>>,
}

impl ScoreFn {
    /// Builds the scoring function for `preference` over `schema`.
    pub fn for_preference(schema: &Schema, preference: &Preference) -> Result<Self> {
        preference.validate(schema)?;
        let mut nominal_ranks = Vec::with_capacity(schema.nominal_count());
        for j in 0..schema.nominal_count() {
            let cardinality = schema.nominal_domain(j).map_or(0, |d| d.cardinality());
            let pref = preference.dim(j);
            let ranks = (0..cardinality as ValueId)
                .map(|v| pref.rank(v, cardinality) as f64)
                .collect();
            nominal_ranks.push(ranks);
        }
        Ok(Self { nominal_ranks })
    }

    /// Builds the default scoring function with no nominal preference: every value of dimension
    /// `j` gets rank `cⱼ`, so nominal dimensions contribute a constant and sorting is purely by
    /// the numeric dimensions. This is the base ordering Adaptive SFS materializes.
    pub fn default_ranking(schema: &Schema) -> Self {
        let nominal_ranks = (0..schema.nominal_count())
            .map(|j| {
                let cardinality = schema.nominal_domain(j).map_or(0, |d| d.cardinality());
                vec![cardinality as f64; cardinality]
            })
            .collect();
        Self { nominal_ranks }
    }

    /// Rank assigned to value `v` of nominal dimension `j`.
    pub fn nominal_rank(&self, nominal_index: usize, v: ValueId) -> f64 {
        self.nominal_ranks[nominal_index][v as usize]
    }

    /// Score of point `p`: sum of its numeric values plus the ranks of its nominal values.
    pub fn score(&self, data: &Dataset, p: PointId) -> f64 {
        let mut total = 0.0;
        for &v in data.numeric_row(p) {
            total += v;
        }
        for (ranks, &v) in self.nominal_ranks.iter().zip(data.nominal_row(p)) {
            total += ranks[v as usize];
        }
        total
    }

    /// Scores the given subset of points, returning `(point, score)` pairs.
    pub fn score_subset(&self, data: &Dataset, points: &[PointId]) -> Vec<(PointId, f64)> {
        points.iter().map(|&p| (p, self.score(data, p))).collect()
    }

    /// Returns the point ids of `points` sorted by ascending score, ties by point id: the
    /// `(score.total_cmp, point)` order of Adaptive SFS's sorted list.
    pub fn sort_by_score(&self, data: &Dataset, points: &[PointId]) -> Vec<PointId> {
        let mut scored = self.score_subset(data, points);
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.into_iter().map(|(p, _)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::dominance::DominanceContext;
    use crate::order::{ImplicitPreference, Template};
    use crate::schema::{Dimension, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::nominal_with_labels("group", ["T", "H", "M"]),
        ])
        .unwrap()
    }

    fn data() -> Dataset {
        Dataset::from_columns(
            schema(),
            vec![vec![10.0, 20.0, 5.0, 5.0]],
            vec![vec![0, 1, 2, 0]],
        )
        .unwrap()
    }

    #[test]
    fn ranks_follow_preference_positions() {
        let schema = schema();
        let pref = Preference::from_dims(vec![ImplicitPreference::new([2, 1]).unwrap()]);
        let f = ScoreFn::for_preference(&schema, &pref).unwrap();
        assert_eq!(f.nominal_rank(0, 2), 1.0);
        assert_eq!(f.nominal_rank(0, 1), 2.0);
        assert_eq!(f.nominal_rank(0, 0), 3.0);
    }

    #[test]
    fn default_ranking_is_constant_per_dimension() {
        let f = ScoreFn::default_ranking(&schema());
        assert_eq!(f.nominal_rank(0, 0), 3.0);
        assert_eq!(f.nominal_rank(0, 2), 3.0);
    }

    #[test]
    fn score_sums_numeric_and_ranks() {
        let data = data();
        let pref = Preference::from_dims(vec![ImplicitPreference::new([2, 1]).unwrap()]);
        let f = ScoreFn::for_preference(data.schema(), &pref).unwrap();
        // point 0: price 10, group T (rank 3) => 13
        assert_eq!(f.score(&data, 0), 13.0);
        // point 2: price 5, group M (rank 1) => 6
        assert_eq!(f.score(&data, 2), 6.0);
    }

    #[test]
    fn sort_by_score_is_deterministic() {
        let data = data();
        let f = ScoreFn::default_ranking(data.schema());
        let order = f.sort_by_score(&data, &[0, 1, 2, 3]);
        // points 2 and 3 tie at 5 + 3 = 8; tie broken by id.
        assert_eq!(order, vec![2, 3, 0, 1]);
        let subset = f.score_subset(&data, &[1, 0]);
        assert_eq!(subset, vec![(1, 23.0), (0, 13.0)]);
    }

    #[test]
    fn monotone_with_respect_to_dominance() {
        // For every pair (p, q) of a small dataset and a fixed preference: if p dominates q
        // then f(p) < f(q). This is the property SFS relies on.
        let data = data();
        let template = Template::empty(data.schema());
        let pref = Preference::from_dims(vec![ImplicitPreference::new([0]).unwrap()]);
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        let f = ScoreFn::for_preference(data.schema(), &pref).unwrap();
        for p in data.point_ids() {
            for q in data.point_ids() {
                if ctx.dominates(p, q) {
                    assert!(
                        f.score(&data, p) < f.score(&data, q),
                        "monotonicity violated for ({p}, {q})"
                    );
                }
            }
        }
    }

    #[test]
    fn for_preference_validates() {
        let schema = schema();
        let pref = Preference::from_dims(vec![ImplicitPreference::new([9]).unwrap()]);
        assert!(ScoreFn::for_preference(&schema, &pref).is_err());
        let pref = Preference::none(3);
        assert!(ScoreFn::for_preference(&schema, &pref).is_err());
    }
}
