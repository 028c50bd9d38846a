//! The UCI **Nursery** data set, regenerated exactly.
//!
//! The paper's real-data experiment (Section 5.2, Figure 8) uses the Nursery data set: 12,960
//! instances, 8 attributes, six of which are treated as totally ordered and two as nominal —
//! *form of the family* and *number of children* — both with cardinality 4.
//!
//! Nursery was derived from a hierarchical decision model and enumerates **every combination**
//! of its attribute values (3·5·4·4·3·2·3·3 = 12,960), so the data portion of the original file
//! can be reconstructed exactly from the attribute domains; no download is required. The class
//! label of the original data set is not used by the paper's experiment and is omitted here.
//!
//! The six totally-ordered attributes are mapped to their ordinal position in the attribute's
//! documented value list (0 = best, matching "smaller is better"); the two nominal attributes
//! keep their textual labels.

use skyline_core::{Dataset, Dimension, Schema};

/// Ordered value lists of the six attributes treated as totally ordered, best value first.
const PARENTS: [&str; 3] = ["usual", "pretentious", "great_pret"];
const HAS_NURS: [&str; 5] = ["proper", "less_proper", "improper", "critical", "very_crit"];
const HOUSING: [&str; 3] = ["convenient", "less_conv", "critical"];
const FINANCE: [&str; 2] = ["convenient", "inconv"];
const SOCIAL: [&str; 3] = ["nonprob", "slightly_prob", "problematic"];
const HEALTH: [&str; 3] = ["recommended", "priority", "not_recom"];

/// Value lists of the two nominal attributes (no predefined order).
const FORM: [&str; 4] = ["complete", "completed", "incomplete", "foster"];
const CHILDREN: [&str; 4] = ["1", "2", "3", "more"];

/// Number of rows of the full data set.
pub const NURSERY_ROWS: usize = 3 * 5 * 4 * 4 * 3 * 2 * 3 * 3;

/// Builds the Nursery schema: six numeric (ordinal) dimensions followed by the two nominal
/// dimensions `form` and `children`.
pub fn nursery_schema() -> Schema {
    Schema::new(vec![
        Dimension::numeric("parents"),
        Dimension::numeric("has_nurs"),
        Dimension::numeric("housing"),
        Dimension::numeric("finance"),
        Dimension::numeric("social"),
        Dimension::numeric("health"),
        Dimension::nominal_with_labels("form", FORM),
        Dimension::nominal_with_labels("children", CHILDREN),
    ])
    .expect("nursery dimension names are unique")
}

/// Labels of the two nominal attributes, exposed for building preferences in examples/benches.
pub fn form_labels() -> &'static [&'static str] {
    &FORM
}

/// Labels of the `children` nominal attribute.
pub fn children_labels() -> &'static [&'static str] {
    &CHILDREN
}

/// Generates the full 12,960-row Nursery data set (the Cartesian product of all domains).
pub fn generate() -> Dataset {
    let schema = nursery_schema();
    let mut numeric_cols: Vec<Vec<f64>> =
        (0..6).map(|_| Vec::with_capacity(NURSERY_ROWS)).collect();
    let mut nominal_cols: Vec<Vec<u16>> =
        (0..2).map(|_| Vec::with_capacity(NURSERY_ROWS)).collect();

    for parents in 0..PARENTS.len() {
        for has_nurs in 0..HAS_NURS.len() {
            for form in 0..FORM.len() {
                for children in 0..CHILDREN.len() {
                    for housing in 0..HOUSING.len() {
                        for finance in 0..FINANCE.len() {
                            for social in 0..SOCIAL.len() {
                                for health in 0..HEALTH.len() {
                                    numeric_cols[0].push(parents as f64);
                                    numeric_cols[1].push(has_nurs as f64);
                                    numeric_cols[2].push(housing as f64);
                                    numeric_cols[3].push(finance as f64);
                                    numeric_cols[4].push(social as f64);
                                    numeric_cols[5].push(health as f64);
                                    nominal_cols[0].push(form as u16);
                                    nominal_cols[1].push(children as u16);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    Dataset::from_columns(schema, numeric_cols, nominal_cols)
        .expect("nursery columns are consistent")
}

/// Generates a deterministic sample of the Nursery data set containing every `stride`-th row.
/// Handy for fast unit tests; `stride = 1` is the full data set.
pub fn generate_sampled(stride: usize) -> Dataset {
    assert!(stride > 0, "stride must be positive");
    let full = generate();
    if stride == 1 {
        return full;
    }
    let schema = nursery_schema();
    let keep: Vec<u32> = (0..full.len() as u32).step_by(stride).collect();
    let numeric_cols = (0..6)
        .map(|j| keep.iter().map(|&p| full.numeric(p, j)).collect())
        .collect();
    let nominal_cols = (0..2)
        .map(|j| keep.iter().map(|&p| full.nominal(p, j)).collect())
        .collect();
    Dataset::from_columns(schema, numeric_cols, nominal_cols)
        .expect("sampled columns are consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn row_count_matches_uci_description() {
        assert_eq!(NURSERY_ROWS, 12_960);
        let data = generate();
        assert_eq!(data.len(), NURSERY_ROWS);
    }

    #[test]
    fn schema_matches_paper_setup() {
        let schema = nursery_schema();
        assert_eq!(schema.arity(), 8);
        assert_eq!(schema.numeric_count(), 6);
        assert_eq!(schema.nominal_count(), 2);
        // "The cardinality of both nominal attributes are equal to 4."
        assert_eq!(schema.nominal_cardinalities(), vec![4, 4]);
        assert_eq!(schema.nominal_index_by_name("form").unwrap(), 0);
        assert_eq!(schema.nominal_index_by_name("children").unwrap(), 1);
    }

    #[test]
    fn rows_are_unique_and_cover_the_product() {
        let data = generate();
        let mut seen = HashSet::with_capacity(data.len());
        for p in data.point_ids() {
            let key: Vec<u32> = (0..6)
                .map(|j| data.numeric(p, j) as u32)
                .chain((0..2).map(|j| data.nominal(p, j) as u32))
                .collect();
            assert!(seen.insert(key), "duplicate row {p}");
        }
        assert_eq!(seen.len(), NURSERY_ROWS);
    }

    #[test]
    fn ordinal_values_stay_in_range() {
        let data = generate();
        let maxes = [2.0, 4.0, 2.0, 1.0, 2.0, 2.0];
        for (j, &max) in maxes.iter().enumerate() {
            let col: Vec<f64> = data.point_ids().map(|p| data.numeric(p, j)).collect();
            assert!(col.iter().all(|&v| v >= 0.0 && v <= max));
            assert!(col.contains(&max), "value {max} missing in column {j}");
        }
    }

    #[test]
    fn sampled_generation_subsets_the_full_set() {
        let sample = generate_sampled(100);
        assert_eq!(sample.len(), NURSERY_ROWS.div_ceil(100));
        assert_eq!(generate_sampled(1).len(), NURSERY_ROWS);
    }

    #[test]
    fn label_helpers_expose_domains() {
        assert_eq!(form_labels().len(), 4);
        assert_eq!(children_labels().len(), 4);
        assert!(form_labels().contains(&"foster"));
        assert!(children_labels().contains(&"more"));
    }
}
