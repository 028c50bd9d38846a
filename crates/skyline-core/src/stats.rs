//! Skyline statistics reported in the paper's figures (the "(d)" panels).
//!
//! For a template `R` and a query preference `R̃′` the paper tracks three ratios:
//!
//! * `|SKY(R)| / |D|` — how much of the data set survives the template skyline;
//! * `|AFFECT(R)| / |SKY(R)|` — the fraction of template skyline points that carry at least
//!   one value listed in the query preference (an upper bound on the points Adaptive SFS has
//!   to re-rank: see [`affected_points`]);
//! * `|SKY(R̃′)| / |SKY(R)|` — how much the query preference shrinks the skyline.

use crate::dataset::Dataset;
use crate::order::Preference;
use crate::value::PointId;

/// The three ratios of the figures' "(d)" panels, plus the raw counts they derive from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkylineStats {
    /// `|D|`: number of points in the dataset.
    pub dataset_size: usize,
    /// `|SKY(R)|`: size of the template skyline.
    pub template_skyline: usize,
    /// `|AFFECT(R)|`: template skyline points carrying a value listed in the query preference.
    pub affected: usize,
    /// `|SKY(R̃′)|`: size of the query skyline.
    pub query_skyline: usize,
}

impl SkylineStats {
    /// `|SKY(R)| / |D|` as a percentage.
    pub fn template_skyline_pct(&self) -> f64 {
        percentage(self.template_skyline, self.dataset_size)
    }

    /// `|AFFECT(R)| / |SKY(R)|` as a percentage.
    pub fn affected_pct(&self) -> f64 {
        percentage(self.affected, self.template_skyline)
    }

    /// `|SKY(R̃′)| / |SKY(R)|` as a percentage.
    pub fn query_skyline_pct(&self) -> f64 {
        percentage(self.query_skyline, self.template_skyline)
    }
}

fn percentage(numerator: usize, denominator: usize) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        100.0 * numerator as f64 / denominator as f64
    }
}

/// The points of `skyline` that contain at least one nominal value listed in `pref`
/// (the paper's `AFFECT(R)` set, the Figure (d) ratio).
///
/// This counts **every** listed value, the template's own prefix included. The set Adaptive
/// SFS actually re-ranks is narrower — only values listed *beyond* the template's prefix move
/// a row or give it a new dominator (`skyline_adaptive::ValueIndex::affected_by`,
/// counted in [`crate::Work::affected`]); under an empty template the two coincide.
pub fn affected_points(data: &Dataset, skyline: &[PointId], pref: &Preference) -> Vec<PointId> {
    skyline
        .iter()
        .copied()
        .filter(|&p| {
            (0..data.schema().nominal_count()).any(|j| pref.dim(j).contains(data.nominal(p, j)))
        })
        .collect()
}

/// Assembles a [`SkylineStats`] from the raw ingredients.
pub fn collect_stats(
    data: &Dataset,
    template_skyline: &[PointId],
    query_skyline: &[PointId],
    pref: &Preference,
) -> SkylineStats {
    SkylineStats {
        dataset_size: data.len(),
        template_skyline: template_skyline.len(),
        affected: affected_points(data, template_skyline, pref).len(),
        query_skyline: query_skyline.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::order::ImplicitPreference;
    use crate::schema::{Dimension, Schema};

    fn data() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b", "c"]),
            Dimension::nominal_with_labels("h", ["p", "q"]),
        ])
        .unwrap();
        Dataset::from_columns(
            schema,
            vec![vec![1.0, 2.0, 3.0, 4.0]],
            vec![vec![0, 1, 2, 0], vec![0, 1, 0, 1]],
        )
        .unwrap()
    }

    #[test]
    fn affected_points_checks_any_dimension() {
        let data = data();
        let pref = Preference::from_dims(vec![
            ImplicitPreference::new([1]).unwrap(),
            ImplicitPreference::new([1]).unwrap(),
        ]);
        // Points 1 (g=b) and 3 (h=q) carry listed values; 1 carries both.
        assert_eq!(affected_points(&data, &[0, 1, 2, 3], &pref), vec![1, 3]);
        assert_eq!(
            affected_points(&data, &[0, 2], &pref),
            Vec::<PointId>::new()
        );
    }

    #[test]
    fn ratios_are_percentages() {
        let data = data();
        let pref = Preference::from_dims(vec![
            ImplicitPreference::new([0]).unwrap(),
            ImplicitPreference::none(),
        ]);
        let stats = collect_stats(&data, &[0, 1, 2, 3], &[0, 1], &pref);
        assert_eq!(stats.dataset_size, 4);
        assert_eq!(stats.template_skyline, 4);
        assert_eq!(stats.affected, 2); // points 0 and 3 have g = a
        assert_eq!(stats.query_skyline, 2);
        assert!((stats.template_skyline_pct() - 100.0).abs() < 1e-9);
        assert!((stats.affected_pct() - 50.0).abs() < 1e-9);
        assert!((stats.query_skyline_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_denominators_do_not_divide_by_zero() {
        let stats = SkylineStats {
            dataset_size: 0,
            template_skyline: 0,
            affected: 0,
            query_skyline: 0,
        };
        assert_eq!(stats.template_skyline_pct(), 0.0);
        assert_eq!(stats.affected_pct(), 0.0);
        assert_eq!(stats.query_skyline_pct(), 0.0);
    }
}
