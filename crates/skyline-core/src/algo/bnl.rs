//! Block-Nested-Loop (BNL) skyline computation.
//!
//! The classic algorithm of Börzsönyi, Kossmann and Stocker: stream the points through a
//! window of current skyline candidates. Each incoming point is dropped if some window point
//! dominates it; otherwise it evicts every window point it dominates and joins the window.
//!
//! The original algorithm pages the window to disk when memory is short; this in-memory
//! variant keeps the whole window resident, which is the setting of the paper's experiments
//! (the data fits in RAM). BNL makes no assumption about the order of the input, so it works
//! for any [`DominanceContext`], and it is the oracle the property-based tests compare every
//! other algorithm against.

use crate::dominance::{Dominance, DominanceContext};
use crate::value::PointId;

/// Computes the skyline of the whole dataset bound to `ctx`.
pub fn skyline(ctx: &DominanceContext<'_>) -> Vec<PointId> {
    let points: Vec<PointId> = ctx.dataset().point_ids().collect();
    skyline_of(ctx, &points)
}

/// Computes the skyline of an arbitrary subset of points under any [`Dominance`]
/// implementation (the reference context or the compiled kernel).
///
/// Dispatches through [`Dominance::bnl_skyline`], so the compiled kernel runs its
/// bit-parallel packed window here.
pub fn skyline_of<D: Dominance + ?Sized>(ctx: &D, points: &[PointId]) -> Vec<PointId> {
    ctx.bnl_skyline(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetBuilder, RowValue};
    use crate::order::{Preference, Template};
    use crate::schema::{Dimension, Schema};

    fn vacation_data() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
        ])
        .unwrap();
        let mut b = DatasetBuilder::new(schema);
        for (price, class, group) in [
            (1600.0, 4.0, "T"),
            (2400.0, 1.0, "T"),
            (3000.0, 5.0, "H"),
            (3600.0, 4.0, "H"),
            (2400.0, 2.0, "M"),
            (3000.0, 3.0, "M"),
        ] {
            b.push_row([RowValue::Num(price), RowValue::Num(-class), group.into()])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn table2_bob_no_preference() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        // Bob has no special preference: skyline is {a, c, e, f} = ids {0, 2, 4, 5}.
        assert_eq!(skyline(&ctx), vec![0, 2, 4, 5]);
    }

    #[test]
    fn table2_named_customers() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let cases = [
            ("T < M < *", vec![0, 2]),    // Alice
            ("H < M < *", vec![0, 2, 4]), // Chris
            ("H < M < T", vec![0, 2, 4]), // David
            ("H < T < *", vec![0, 2]),    // Emily
            ("M < *", vec![0, 2, 4, 5]),  // Fred
        ];
        for (text, expected) in cases {
            let pref = Preference::parse(&schema, [("hotel-group", text)]).unwrap();
            let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
            assert_eq!(skyline(&ctx), expected, "preference {text}");
        }
    }

    #[test]
    fn skyline_of_subset_only_considers_subset() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        // Within {b, d} alone nothing dominates anything (different groups).
        assert_eq!(skyline_of(&ctx, &[1, 3]), vec![1, 3]);
        // Within {a, b} a dominates b.
        assert_eq!(skyline_of(&ctx, &[0, 1]), vec![0]);
        assert!(skyline_of(&ctx, &[]).is_empty());
    }

    #[test]
    fn duplicates_keep_one_representative_each() {
        // Two identical rows: neither dominates the other, both stay in the skyline.
        let schema = Schema::new(vec![Dimension::numeric("x")]).unwrap();
        let data = Dataset::from_columns(schema, vec![vec![1.0, 1.0, 2.0]], vec![]).unwrap();
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        assert_eq!(skyline(&ctx), vec![0, 1]);
    }
}
