//! IPO-tree query evaluation: Algorithm 1 (recursive decomposition) and Algorithm 2 (merge).
//!
//! An implicit preference of order `x` on dimension `d` is split into its `x` first-order
//! sub-preferences `v₁ ≺ ∗`, …, `v_x ≺ ∗`. Each sub-preference maps to one child of the current
//! tree node; the recursion evaluates the remaining dimensions under that child with the
//! child's disqualified points removed, and the partial results are recombined with the
//! merging property (Theorem 2):
//!
//! ```text
//! SKY(v₁ ≺ … ≺ v_i ≺ ∗)  =  (SKY(v₁ ≺ … ≺ v_{i-1} ≺ ∗) ∩ SKY(v_i ≺ ∗))  ∪  PSKY
//! ```
//!
//! where `PSKY` is the subset of the left operand whose dimension-`d` value is one of
//! `v₁ … v_{i-1}`. (Algorithm 2 in the paper writes the merge dimension as `d + 1` because its
//! pseudo-code increments `d` before the call; the dimension that matters is the one that was
//! split, which is what this implementation uses.)
//!
//! All sets here are sorted id vectors; see [`crate::bitmap`] for the bitmap variant.

use crate::setops;
use crate::tree::IpoTree;
use skyline_core::{Dataset, PointId, Preference, Result};

/// Work counters for one query evaluation (the paper bounds the number of set operations by
/// `O(x^{m'})`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Number of tree nodes visited.
    pub nodes_visited: u64,
    /// Number of set operations (intersections, unions, differences, filters) performed.
    pub set_operations: u64,
    /// Number of leaf-level partial results produced.
    pub leaf_results: u64,
}

impl IpoTree {
    /// Evaluates an implicit-preference query and returns the skyline as sorted point ids.
    ///
    /// The preference must refine the tree's template and may only list values that are
    /// materialized in the tree; otherwise [`skyline_core::SkylineError::NotMaterialized`] (or a refinement
    /// error) is returned so a caller can fall back to Adaptive SFS, as Section 3.1 recommends
    /// for unpopular values.
    pub fn query(&self, data: &Dataset, pref: &Preference) -> Result<Vec<PointId>> {
        self.query_with_stats(data, pref).map(|(result, _)| result)
    }

    /// Like [`IpoTree::query`], additionally reporting work counters.
    pub fn query_with_stats(
        &self,
        data: &Dataset,
        pref: &Preference,
    ) -> Result<(Vec<PointId>, QueryStats)> {
        let schema = data.schema();
        pref.validate(schema)?;
        self.template.check_refinement(schema, pref)?;
        self.materialization.require_materialized(schema, pref)?;
        let mut stats = QueryStats::default();
        let result = self.query_rec(data, pref, 0, 0, self.skyline.clone(), &mut stats);
        Ok((result, stats))
    }

    /// Algorithm 1: evaluate dimensions `dim..m'` below `node`, starting from candidate set `s`.
    fn query_rec(
        &self,
        data: &Dataset,
        pref: &Preference,
        dim: usize,
        node: u32,
        s: Vec<PointId>,
        stats: &mut QueryStats,
    ) -> Vec<PointId> {
        stats.nodes_visited += 1;
        if dim == self.nominal_count() {
            stats.leaf_results += 1;
            return s;
        }
        let dim_pref = pref.dim(dim);
        if dim_pref.is_none() {
            let child = self
                .child_of(node, None)
                .expect("every node has a φ child by construction");
            return self.query_rec(data, pref, dim + 1, child, s, stats);
        }
        // Split into first-order sub-queries, one per listed value.
        let mut partials = Vec::with_capacity(dim_pref.order());
        for &v in dim_pref.choices() {
            let child = self
                .child_of(node, Some(v))
                .expect("materialization was checked before the recursion started");
            let disqualified = self.node(child).disqualified();
            stats.set_operations += 1;
            let reduced = setops::difference(&s, disqualified);
            partials.push(self.query_rec(data, pref, dim + 1, child, reduced, stats));
        }
        self.merge(data, dim, dim_pref.choices(), partials, stats)
    }

    /// Algorithm 2: fold the per-value partial results into the skyline of the full
    /// `v₁ ≺ … ≺ v_x ≺ ∗` preference on dimension `dim`.
    fn merge(
        &self,
        data: &Dataset,
        dim: usize,
        choices: &[skyline_core::ValueId],
        partials: Vec<Vec<PointId>>,
        stats: &mut QueryStats,
    ) -> Vec<PointId> {
        let mut partials = partials.into_iter();
        let mut x = partials.next().unwrap_or_default();
        for (i, y) in partials.enumerate() {
            // `prefix` holds v₁ … v_i (the values already folded into `x`).
            let prefix = &choices[..=i];
            stats.set_operations += 3;
            let z: Vec<PointId> = x
                .iter()
                .copied()
                .filter(|&p| prefix.contains(&data.nominal(p, dim)))
                .collect();
            let intersection = setops::intersection(&x, &y);
            x = setops::union(&intersection, &z);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IpoTreeBuilder;
    use skyline_core::algo::bnl;
    use skyline_core::SkylineError;
    use skyline_core::{
        DatasetBuilder, Dimension, DominanceContext, ImplicitPreference, RowValue, Schema, Template,
    };

    /// Table 3 of the paper.
    fn table3_data() -> skyline_core::Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
            Dimension::nominal_with_labels("airline", ["G", "R", "W"]),
        ])
        .unwrap();
        let mut b = DatasetBuilder::new(schema);
        for (price, class, group, airline) in [
            (1600.0, 4.0, "T", "G"),
            (2400.0, 1.0, "T", "G"),
            (3000.0, 5.0, "H", "G"),
            (3600.0, 4.0, "H", "R"),
            (2400.0, 2.0, "M", "R"),
            (3000.0, 3.0, "M", "W"),
        ] {
            b.push_row([
                RowValue::Num(price),
                RowValue::Num(-class),
                group.into(),
                airline.into(),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    fn tree_and_data() -> (IpoTree, skyline_core::Dataset) {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        (tree, data)
    }

    #[test]
    fn example1_queries_from_the_paper() {
        let (tree, data) = tree_and_data();
        let schema = data.schema().clone();
        // Q_A: "M ≺ ∗"                        → {a, c, d, e, f}
        // Q_B: "M ≺ ∗, G ≺ ∗"                 → {a, c, e, f}
        // Q_C: "M ≺ H ≺ ∗, G ≺ ∗"             → {a, c, e, f}
        // Q_D: "M ≺ H ≺ ∗, G ≺ R ≺ ∗"         → {a, c, e, f}
        let cases = [
            (vec![("hotel-group", "M < *")], vec![0, 2, 3, 4, 5]),
            (
                vec![("hotel-group", "M < *"), ("airline", "G < *")],
                vec![0, 2, 4, 5],
            ),
            (
                vec![("hotel-group", "M < H < *"), ("airline", "G < *")],
                vec![0, 2, 4, 5],
            ),
            (
                vec![("hotel-group", "M < H < *"), ("airline", "G < R < *")],
                vec![0, 2, 4, 5],
            ),
        ];
        for (spec, expected) in cases {
            let pref = Preference::parse(&schema, spec.clone()).unwrap();
            let got = tree.query(&data, &pref).unwrap();
            assert_eq!(got, expected, "query {spec:?}");
        }
    }

    #[test]
    fn matches_bnl_for_every_order_two_preference() {
        let (tree, data) = tree_and_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        // Exhaustively check every ordered pair of values on each dimension (and their
        // combinations) against the brute-force oracle.
        let values: Vec<u16> = vec![0, 1, 2];
        let mut prefs = vec![ImplicitPreference::none()];
        for &a in &values {
            prefs.push(ImplicitPreference::new([a]).unwrap());
            for &b in &values {
                if a != b {
                    prefs.push(ImplicitPreference::new([a, b]).unwrap());
                }
            }
        }
        for hotel in &prefs {
            for airline in &prefs {
                let pref = Preference::from_dims(vec![hotel.clone(), airline.clone()]);
                let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
                let expected = bnl::skyline(&ctx);
                let got = tree.query(&data, &pref).unwrap();
                assert_eq!(got, expected, "hotel {hotel:?} airline {airline:?}");
            }
        }
    }

    #[test]
    fn query_stats_are_reported() {
        let (tree, data) = tree_and_data();
        let schema = data.schema().clone();
        let pref = Preference::parse(
            &schema,
            [("hotel-group", "M < H < *"), ("airline", "G < R < *")],
        )
        .unwrap();
        let (result, stats) = tree.query_with_stats(&data, &pref).unwrap();
        assert_eq!(result, vec![0, 2, 4, 5]);
        // Figure 3: the evaluation touches 4 leaf combinations for a 2×2 order query.
        assert_eq!(stats.leaf_results, 4);
        assert!(stats.nodes_visited >= 4);
        assert!(stats.set_operations > 0);
    }

    #[test]
    fn non_materialized_values_are_reported() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let tree = IpoTreeBuilder::new()
            .top_k_values(1)
            .build(&data, &template)
            .unwrap();
        let schema = data.schema().clone();
        let pref = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
        assert!(matches!(
            tree.query(&data, &pref),
            Err(SkylineError::NotMaterialized { .. })
        ));
        // A query that only uses materialized values still works.
        let ok =
            Preference::parse(&schema, [("hotel-group", "T < *"), ("airline", "G < *")]).unwrap();
        assert_eq!(tree.query(&data, &ok).unwrap(), vec![0, 2]);
    }

    #[test]
    fn queries_must_refine_the_template() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::from_preference(
            &schema,
            Preference::parse(&schema, [("hotel-group", "T < *")]).unwrap(),
        )
        .unwrap();
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let bad = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
        assert!(matches!(
            tree.query(&data, &bad),
            Err(SkylineError::NotARefinement { .. })
        ));
        let good = Preference::parse(
            &schema,
            [("hotel-group", "T < M < *"), ("airline", "G < *")],
        )
        .unwrap();
        let ctx = DominanceContext::for_query(&data, &template, &good).unwrap();
        assert_eq!(tree.query(&data, &good).unwrap(), bnl::skyline(&ctx));
    }

    #[test]
    fn wrong_arity_preference_is_rejected() {
        let (tree, data) = tree_and_data();
        let pref = Preference::none(1);
        assert!(tree.query(&data, &pref).is_err());
    }

    #[test]
    fn empty_preference_returns_template_skyline() {
        let (tree, data) = tree_and_data();
        let pref = Preference::none(2);
        assert_eq!(tree.query(&data, &pref).unwrap(), tree.skyline());
    }
}
