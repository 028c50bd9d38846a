//! IPO-tree construction (Section 3.1).
//!
//! The builder runs four phases over the dataset's live rows, reading them in place through a
//! borrowed [`CompiledRelation`], and records each phase's seconds in [`BuildStats`]. The costs
//! are for the top-10 tree over the paper-default corpus at n = 100 000 (3 numeric + 2 nominal
//! dimensions of cardinality 20, anti-correlated; `|SKY(∅)|` = 24 542, `|SKY(R)|` = 3 369,
//! 20 528 conditions) on a 2-core Xeon @ 2.1 GHz (AVX2):
//!
//! 1. **`SKY(∅)` per nominal tuple** (40–49 ms). Under the empty relation two rows are
//!    comparable only when their nominal tuples are equal, so the base skyline is the union of
//!    one SFS scan per tuple, each over the tuple's rows in default-ranking order.
//! 2. **Template skyline `SKY(R)`** (12–17 ms): one [`Scan::presorted`] drain over `SKY(∅)` in
//!    the template's score order — the loop `AdaptiveSfs::build` drains over all rows — sorted
//!    by id afterwards. This is what the root stores, bit-identical to the packed BNL this
//!    phase used to run.
//! 3. **Minimal disqualifying conditions** (34–42 ms, and about 2 ms more for the index):
//!    [`skyline_core::mdc::compute_mdcs_with_dominators`] mines every `SKY(R)` point against
//!    `SKY(∅)` under the empty relation: one packed walk over the dominators' numeric columns
//!    finds the point's numeric witnesses, and each distinct witness tuple gives one candidate.
//!    The returned [`MdcIndex`](skyline_core::mdc::MdcIndex) keys the conditions by their
//!    `(dim, better)` pairs.
//! 4. **Node sets** (0.4–0.6 ms). One node per combination of at most one first-order choice per
//!    materialized dimension — all values (full **IPO Tree**) or the `K` most frequent
//!    (**IPO Tree-K**, the paper's *IPO Tree-10*). A node's disqualified set `A` is read off
//!    the mined conditions (the paper's approach) by
//!    [`MdcIndex::disqualified_by_first_order`](skyline_core::mdc::MdcIndex::disqualified_by_first_order),
//!    which looks up only the conditions the node's path can imply.
//!    [`direct_disqualified`] recomputes one node's set straight from the definition; the
//!    equivalence suites check every labelled node against it.
//!
//! The whole build takes 87–111 ms (0.40–0.47 s with a packed BNL for `SKY(R)` and a scalar
//! witness scan per dominator tuple). Construction is single-threaded, which is what the
//! paper's preprocessing-time figures measure.

use crate::tree::{IpoNode, IpoTree, Materialization};
use skyline_core::algo::sfs::Scan;
use skyline_core::mdc::compute_mdcs_with_dominators;
use skyline_core::score::ScoreFn;
use skyline_core::{
    CompiledRelation, Dataset, DominanceContext, ImplicitPreference, PartialOrder, PointId,
    Preference, Result, SkylineError, Template, ValueId,
};
use std::time::Instant;

/// Statistics recorded while building a tree (reported by the benchmark harness).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildStats {
    /// `|SKY(∅)|`: size of the base skyline used as the dominator pool.
    pub base_skyline_size: usize,
    /// `|SKY(R)|`: size of the template skyline stored at the root.
    pub template_skyline_size: usize,
    /// Number of tree nodes created.
    pub node_count: usize,
    /// Number of minimal disqualifying conditions mined.
    pub mdc_conditions: usize,
    /// Wall-clock seconds spent in construction.
    pub build_seconds: f64,
    /// Seconds of phase 1, `SKY(∅)` per nominal tuple.
    pub base_skyline_seconds: f64,
    /// Seconds of phase 2, the template skyline `SKY(R)`.
    pub template_skyline_seconds: f64,
    /// Seconds of phase 3, mining the minimal disqualifying conditions.
    pub mining_seconds: f64,
    /// Seconds of phase 4, the node sets.
    pub node_sets_seconds: f64,
}

/// Configurable IPO-tree builder.
#[derive(Debug, Clone, Default)]
pub struct IpoTreeBuilder {
    top_k: Option<usize>,
    explicit: Option<Vec<Vec<ValueId>>>,
}

impl IpoTreeBuilder {
    /// A builder with the default configuration: all values materialized.
    pub fn new() -> Self {
        Self::default()
    }

    /// Materializes only the `k` most frequent values of every nominal dimension
    /// (the paper's *IPO Tree-10* uses `k = 10`).
    pub fn top_k_values(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Materializes exactly the given value sets (one per nominal dimension), overriding the
    /// frequency-based selection — the *recorded* truncation policy
    /// ([`IpoTreeBuilder::top_k_values`]) is unchanged, so a later rebuild still knows it is
    /// a top-`k` tree.
    ///
    /// This is the hook [`Materialization::rebuilt_for`] uses for its hysteresis: a rebuilt
    /// truncated tree materializes the union of the fresh top-`k` with previously
    /// materialized values that have not yet fallen well out of the top `k`, so preferences
    /// served from the tree do not flap to the fallback path on every small frequency shift.
    pub fn materialize_values(mut self, sets: Vec<Vec<ValueId>>) -> Self {
        self.explicit = Some(sets);
        self
    }

    /// Builds the tree for `data` under `template` and returns it with build statistics.
    ///
    /// The template must have an implicit form (the experiments' templates always do); general
    /// partial-order templates are rejected because query evaluation relies on the
    /// prefix-refinement property of implicit preferences.
    pub fn build_with_stats(
        &self,
        data: &Dataset,
        template: &Template,
    ) -> Result<(IpoTree, BuildStats)> {
        let started = Instant::now();
        let schema = data.schema();
        let Some(template_pref) = template.implicit() else {
            return Err(SkylineError::InvalidArgument(
                "IPO-tree construction requires a template with an implicit form".into(),
            ));
        };
        let cards = schema.nominal_cardinalities();
        let template_cards: Vec<usize> =
            template.orders().iter().map(|o| o.cardinality()).collect();
        if template_cards != cards {
            return Err(SkylineError::InvalidArgument(format!(
                "template covers nominal domains of sizes {template_cards:?} but the schema has \
                 {cards:?}"
            )));
        }

        // Values to materialize, per dimension (most frequent first).
        let materialized: Vec<Vec<ValueId>> = match &self.explicit {
            Some(sets) => {
                if sets.len() != schema.nominal_count() {
                    return Err(SkylineError::InvalidArgument(format!(
                        "explicit materialization covers {} nominal dimensions but the schema \
                         has {}",
                        sets.len(),
                        schema.nominal_count()
                    )));
                }
                for (j, set) in sets.iter().enumerate() {
                    let card = schema.nominal_domain(j).map_or(0, |d| d.cardinality());
                    if let Some(&v) = set.iter().find(|&&v| (v as usize) >= card) {
                        return Err(SkylineError::InvalidArgument(format!(
                            "value {v} is outside nominal dimension {j}'s domain of {card}"
                        )));
                    }
                    if let Some((_, &v)) =
                        set.iter().enumerate().find(|&(i, v)| set[..i].contains(v))
                    {
                        return Err(SkylineError::InvalidArgument(format!(
                            "value {v} is materialized twice on nominal dimension {j}"
                        )));
                    }
                }
                sets.clone()
            }
            None => (0..schema.nominal_count())
                .map(|j| {
                    let by_freq = data.values_by_frequency(j);
                    match self.top_k {
                        Some(k) => by_freq.into_iter().take(k).collect(),
                        None => by_freq,
                    }
                })
                .collect(),
        };

        // 1. Base skyline SKY(∅): dominator pool for every node computation.
        let phase = Instant::now();
        let empty_orders: Vec<PartialOrder> = cards.into_iter().map(PartialOrder::empty).collect();
        let base = CompiledRelation::new(data, &empty_orders)?;
        let base_skyline = base_skyline(&base);
        let base_skyline_seconds = phase.elapsed().as_secs_f64();

        // 2. Template skyline SKY(R) ⊆ SKY(∅): what the root stores, in id order.
        let phase = Instant::now();
        let skyline = if template.is_empty() {
            base_skyline.clone()
        } else {
            let score = ScoreFn::for_preference(schema, template_pref)?;
            let sorted = score.sort_by_score(data, &base_skyline);
            let mut skyline: Vec<PointId> =
                Scan::presorted(&CompiledRelation::for_template(data, template)?, &sorted)
                    .collect();
            skyline.sort_unstable();
            skyline
        };
        let template_skyline_seconds = phase.elapsed().as_secs_f64();

        // 3. Mine the minimal disqualifying conditions every node set is evaluated from.
        let phase = Instant::now();
        let mdc_index = compute_mdcs_with_dominators(&base, &skyline, &base_skyline);
        let mining_seconds = phase.elapsed().as_secs_f64();

        // 4. Enumerate nodes breadth-first and read the disqualified sets off the conditions.
        let phase = Instant::now();
        let mut nodes = vec![IpoNode {
            dim: usize::MAX,
            label: None,
            disqualified: Vec::new(),
            children: Vec::new(),
        }];
        // Frontier entries: (node id, the first-order choices along its path).
        let mut frontier: Vec<(u32, Vec<Option<ValueId>>)> = vec![(0, Vec::new())];
        for (dim, dim_values) in materialized.iter().enumerate().take(schema.nominal_count()) {
            let mut next_frontier = Vec::with_capacity(frontier.len() * (dim_values.len() + 1));
            // Create children (φ first, then the materialized values) for every frontier node;
            // a labelled child's disqualified set is read off the mined conditions.
            for (parent, path) in &frontier {
                let mut labels: Vec<Option<ValueId>> = Vec::with_capacity(dim_values.len() + 1);
                labels.push(None);
                labels.extend(dim_values.iter().copied().map(Some));
                for label in labels {
                    let id = nodes.len() as u32;
                    let mut child_path = path.clone();
                    child_path.push(label);
                    let disqualified = match label {
                        Some(_) => mdc_index
                            .disqualified_by_first_order(&child_path)
                            .iter()
                            .map(|i| skyline[i])
                            .collect(),
                        None => Vec::new(),
                    };
                    nodes.push(IpoNode {
                        dim,
                        label,
                        disqualified,
                        children: Vec::new(),
                    });
                    nodes[*parent as usize].children.push((label, id));
                    next_frontier.push((id, child_path));
                }
                nodes[*parent as usize].children.sort_by_key(|(l, _)| *l);
            }
            frontier = next_frontier;
        }
        let node_sets_seconds = phase.elapsed().as_secs_f64();

        let stats = BuildStats {
            base_skyline_size: base_skyline.len(),
            template_skyline_size: skyline.len(),
            node_count: nodes.len(),
            mdc_conditions: mdc_index.condition_count(),
            build_seconds: started.elapsed().as_secs_f64(),
            base_skyline_seconds,
            template_skyline_seconds,
            mining_seconds,
            node_sets_seconds,
        };
        let tree = IpoTree {
            template: template.clone(),
            skyline,
            materialization: Materialization {
                values: materialized,
                top_k: self.top_k,
            },
            nodes,
        };
        Ok((tree, stats))
    }

    /// Convenience wrapper around [`IpoTreeBuilder::build_with_stats`].
    pub fn build(&self, data: &Dataset, template: &Template) -> Result<IpoTree> {
        self.build_with_stats(data, template).map(|(tree, _)| tree)
    }
}

/// `SKY(∅)` of the live rows, sorted by id, under `base` (the empty relation over the data).
///
/// Under the empty relation two rows are comparable only when their nominal tuples are equal,
/// so the global SFS scan only ever tests a row against earlier rows of its own tuple. One
/// sort by (tuple, default-ranking score, id) puts every tuple's rows in the global scan's
/// order (score by `total_cmp`, ties by id), so scanning each tuple's run on its own accepts
/// exactly the rows the global scan accepts.
fn base_skyline(base: &CompiledRelation<&Dataset>) -> Vec<PointId> {
    let data = base.dataset();
    let live: Vec<PointId> = data.live_ids().collect();
    let mut scored = ScoreFn::default_ranking(data.schema()).score_subset(data, &live);
    scored.sort_unstable_by(|&(a, sa), &(b, sb)| {
        let tuple = data.nominal_row(a).cmp(data.nominal_row(b));
        tuple.then(sa.total_cmp(&sb)).then(a.cmp(&b))
    });
    let sorted: Vec<PointId> = scored.into_iter().map(|(p, _)| p).collect();
    let mut skyline: Vec<PointId> = sorted
        .chunk_by(|&a, &b| data.nominal_row(a) == data.nominal_row(b))
        .flat_map(|group| Scan::presorted(base, group))
        .collect();
    skyline.sort_unstable();
    skyline
}

/// Direct recomputation of a node's disqualified set: a template-skyline point is disqualified
/// when some base-skyline point dominates it under the node's first-order combination.
///
/// The reference the builder's MDC evaluation is tested against (it costs one dominance pass
/// per node, ~60× the MDC path at `n = 100k`, so nothing builds with it): `skyline` is the
/// template skyline `SKY(R)`, `base_skyline` the dominator pool `SKY(∅)`, and `path[j]` the
/// node's first-order choice on nominal dimension `j` (`None` = φ).
pub fn direct_disqualified(
    data: &Dataset,
    skyline: &[PointId],
    base_skyline: &[PointId],
    path: &[Option<ValueId>],
) -> Vec<PointId> {
    let schema = data.schema();
    let orders: Vec<PartialOrder> = (0..schema.nominal_count())
        .map(|j| {
            let card = schema.nominal_domain(j).map_or(0, |d| d.cardinality());
            match path.get(j).copied().flatten() {
                Some(v) => ImplicitPreference::first_order(v)
                    .to_partial_order(card)
                    .expect("materialized value is inside the domain"),
                None => PartialOrder::empty(card),
            }
        })
        .collect();
    let ctx = DominanceContext::new(data, orders).expect("orders match the schema");
    skyline
        .iter()
        .copied()
        .filter(|&p| base_skyline.iter().any(|&q| ctx.dominates(q, p)))
        .collect()
}

/// Builds the preference profile corresponding to one combination of first-order choices
/// (useful in tests and the benchmark harness).
pub fn first_order_preference(nominal_count: usize, path: &[Option<ValueId>]) -> Preference {
    let mut pref = Preference::none(nominal_count);
    for (j, choice) in path.iter().enumerate().take(nominal_count) {
        if let Some(v) = choice {
            pref.set_dim(j, ImplicitPreference::first_order(*v));
        }
    }
    pref
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::algo::{bnl, sfs};
    use skyline_core::{DatasetBuilder, Dimension, RowValue, Schema};

    /// Table 3 of the paper: two nominal attributes (Hotel-group and Airline).
    fn table3_data() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
            Dimension::nominal_with_labels("airline", ["G", "R", "W"]),
        ])
        .unwrap();
        let mut b = DatasetBuilder::new(schema);
        for (price, class, group, airline) in [
            (1600.0, 4.0, "T", "G"), // a = 0
            (2400.0, 1.0, "T", "G"), // b = 1
            (3000.0, 5.0, "H", "G"), // c = 2
            (3600.0, 4.0, "H", "R"), // d = 3
            (2400.0, 2.0, "M", "R"), // e = 4
            (3000.0, 3.0, "M", "W"), // f = 5
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

    #[test]
    fn figure2_tree_shape_and_sets() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let (tree, stats) = IpoTreeBuilder::new()
            .build_with_stats(&data, &template)
            .unwrap();

        // Root skyline S = {a, c, d, e, f} (Figure 2).
        assert_eq!(tree.skyline(), &[0, 2, 3, 4, 5]);
        // 1 root + 4 children (φ, T, H, M) + 4·4 grandchildren = 21 nodes, as drawn.
        assert_eq!(tree.node_count(), 21);
        assert_eq!(stats.node_count, 21);
        assert_eq!(stats.template_skyline_size, 5);
        assert!(stats.build_seconds >= 0.0);
        assert!(stats.mdc_conditions > 0);

        // Node 6 in Figure 2 is "T ≺ ∗, G ≺ ∗" with A = {d, e, f}.
        let node = tree.node_for_choices(&[Some(0), Some(0)]).unwrap();
        assert_eq!(tree.node(node).disqualified(), &[3, 4, 5]);
        // "H ≺ ∗, G ≺ ∗" disqualifies {d, f}; "M ≺ ∗, G ≺ ∗" disqualifies {d};
        // "φ, G ≺ ∗" disqualifies {d}.
        let node = tree.node_for_choices(&[Some(1), Some(0)]).unwrap();
        assert_eq!(tree.node(node).disqualified(), &[3, 5]);
        let node = tree.node_for_choices(&[Some(2), Some(0)]).unwrap();
        assert_eq!(tree.node(node).disqualified(), &[3]);
        let node = tree.node_for_choices(&[None, Some(0)]).unwrap();
        assert_eq!(tree.node(node).disqualified(), &[3]);
        // First-level nodes alone disqualify nothing on this data (Figure 2 shows A = {}).
        for v in 0..3u16 {
            let node = tree.node_for_choices(&[Some(v)]).unwrap();
            assert!(tree.node(node).disqualified().is_empty(), "value {v}");
        }
    }

    #[test]
    fn direct_and_mdc_strategies_agree() {
        // Every labelled node's MDC-evaluated set equals the direct recomputation from the
        // definition (with an empty template the root skyline is also the dominator pool).
        let data = table3_data();
        let template = Template::empty(data.schema());
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let values = [None, Some(0), Some(1), Some(2)];
        for hotel in values {
            for airline in values {
                for path in [vec![hotel], vec![hotel, airline]] {
                    let node = tree.node(tree.node_for_choices(&path).unwrap());
                    if node.label().is_some() {
                        let direct =
                            direct_disqualified(&data, tree.skyline(), tree.skyline(), &path);
                        assert_eq!(node.disqualified(), direct.as_slice(), "path {path:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_limits_materialized_values() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let (tree, stats) = IpoTreeBuilder::new()
            .top_k_values(1)
            .build_with_stats(&data, &template)
            .unwrap();
        // Only the most frequent value per dimension: hotel-group T or H (both appear twice,
        // frequency ties broken by id → T), airline G (3 rows).
        assert_eq!(tree.materialized_values(0).len(), 1);
        assert_eq!(tree.materialized_values(1), &[0]);
        // 1 root + 2 children (φ + 1 value) + 2·2 grandchildren = 7 nodes.
        assert_eq!(stats.node_count, 7);
        assert!(tree.node_for_choices(&[Some(2), None]).is_none());
    }

    #[test]
    fn rebuilt_for_preserves_the_truncation_policy() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let truncated = IpoTreeBuilder::new()
            .top_k_values(1)
            .build(&data, &template)
            .unwrap();
        assert_eq!(truncated.top_k(), Some(1));
        assert_eq!(truncated.materialized_values(0), &[0]); // hotel-group T
                                                            // Rebuild over data with one more (M, W) row: M overtakes T on hotel-group, but the
                                                            // previously materialized T is still rank 2 (within 2k), so hysteresis keeps it.
        let mut grown = data.clone();
        grown.push_row_ids(&[100.0, -9.0], &[2, 2]).unwrap();
        let rebuilt = truncated
            .materialization()
            .rebuilt_for(&grown, &template)
            .unwrap();
        assert_eq!(rebuilt.top_k(), Some(1), "the recorded policy is preserved");
        assert_eq!(
            rebuilt.materialized_values(0),
            &[2, 0],
            "fresh top-1 (M) plus the retained old value (T), most frequent first"
        );
        // Airline: G stays the most frequent value, so nothing extra is retained.
        assert_eq!(rebuilt.materialized_values(1), &[0]);
        assert_eq!(
            rebuilt.skyline(),
            IpoTreeBuilder::new()
                .top_k_values(1)
                .build(&grown, &template)
                .unwrap()
                .skyline()
        );
        // A full tree rebuilds full.
        let full = IpoTreeBuilder::new().build(&data, &template).unwrap();
        assert_eq!(full.top_k(), None);
        let rebuilt_full = full
            .materialization()
            .rebuilt_for(&grown, &template)
            .unwrap();
        assert!(rebuilt_full.node_count() > truncated.node_count());
    }

    /// The drift regression: before hysteresis, the rebuild above would materialize only the
    /// new top-1 and every preference on the old value silently fell back; and the retention
    /// must *release* once a value falls well out of the top k.
    #[test]
    fn hysteresis_retains_then_releases_displaced_values() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let tree = IpoTreeBuilder::new()
            .top_k_values(1)
            .build(&data, &template)
            .unwrap();
        assert!(tree.materialization().is_materialized(0, 0)); // hotel-group T is the top value

        // Churn: M gains rows until T sits at rank 2 — retained by hysteresis.
        let mut churned = data.clone();
        churned.push_row_ids(&[100.0, -9.0], &[2, 2]).unwrap();
        let rebuilt = tree
            .materialization()
            .rebuilt_for(&churned, &template)
            .unwrap();
        assert!(
            rebuilt.materialization().is_materialized(0, 2),
            "fresh top value"
        );
        assert!(
            rebuilt.materialization().is_materialized(0, 0),
            "displaced value retained"
        );
        let pref = Preference::from_dims(vec![
            ImplicitPreference::first_order(0),
            ImplicitPreference::none(),
        ]);
        assert!(rebuilt.materializes(&pref), "old preference keeps serving");

        // More churn: H also overtakes T (rank 3, outside 2k = 2) — now T is demoted, and a
        // fresh build from the *rebuilt* tree confirms retention does not compound.
        for _ in 0..2 {
            churned.push_row_ids(&[100.0, -9.0], &[1, 2]).unwrap();
        }
        let demoted = rebuilt
            .materialization()
            .rebuilt_for(&churned, &template)
            .unwrap();
        assert!(demoted.materialization().is_materialized(0, 2));
        assert!(
            !demoted.materialization().is_materialized(0, 0),
            "a value well out of the top k is released"
        );
        assert!(!demoted.materializes(&pref));
    }

    #[test]
    fn explicit_materialization_is_validated() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        // Wrong dimension count.
        assert!(matches!(
            IpoTreeBuilder::new()
                .materialize_values(vec![vec![0]])
                .build(&data, &template),
            Err(SkylineError::InvalidArgument(_))
        ));
        // Out-of-domain value.
        assert!(matches!(
            IpoTreeBuilder::new()
                .materialize_values(vec![vec![0], vec![9]])
                .build(&data, &template),
            Err(SkylineError::InvalidArgument(_))
        ));
        // A repeated value: the snapshot decoder refuses such a tree, so it is never built.
        assert!(matches!(
            IpoTreeBuilder::new()
                .materialize_values(vec![vec![1, 2, 1], vec![0]])
                .build(&data, &template),
            Err(SkylineError::InvalidArgument(_))
        ));
        // A valid explicit set is honored verbatim.
        let tree = IpoTreeBuilder::new()
            .top_k_values(1)
            .materialize_values(vec![vec![2, 0], vec![0]])
            .build(&data, &template)
            .unwrap();
        assert_eq!(tree.materialized_values(0), &[2, 0]);
        assert_eq!(tree.top_k(), Some(1));
    }

    #[test]
    fn template_skyline_shrinks_with_template() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::from_preference(
            &schema,
            Preference::parse(&schema, [("hotel-group", "T < *")]).unwrap(),
        )
        .unwrap();
        let (tree, stats) = IpoTreeBuilder::new()
            .build_with_stats(&data, &template)
            .unwrap();
        // Under T ≺ ∗ the skyline of the whole dataset is {a, c, d} minus what T-preference
        // removes: a dominates e and f (airline G vs R/W incomparable? no: e,f have R/W).
        // Recompute expectations directly for safety.
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let expected = bnl::skyline(&ctx);
        assert_eq!(tree.skyline(), expected.as_slice());
        assert!(stats.template_skyline_size <= stats.base_skyline_size);
    }

    #[test]
    fn general_template_is_rejected() {
        let data = table3_data();
        let schema = data.schema().clone();
        let template = Template::from_partial_orders(
            &schema,
            vec![
                PartialOrder::from_pairs(3, [(0, 1)]).unwrap(),
                PartialOrder::empty(3),
            ],
        )
        .unwrap();
        assert!(matches!(
            IpoTreeBuilder::new().build(&data, &template),
            Err(SkylineError::InvalidArgument(_))
        ));
    }

    /// The builder's output pinned byte for byte: CRC-32 of the encoded full and top-10 trees
    /// over three paper-default corpora (Table 4 shape, anti-correlated, n = 2 000, seeds
    /// 1–3, most-frequent-value template). The values were recorded with the reference
    /// pairwise phases on `DominanceContext`, so they pin that the grouped, packed phases
    /// build the same trees bit for bit.
    #[test]
    fn golden_tree_bytes_on_paper_default_corpora() {
        use crate::snapshot::encode_tree;
        use skyline_core::snapshot::crc32;
        use skyline_datagen::ExperimentConfig;

        // (seed, full tree, top-10 tree)
        let golden: [(u64, u32, u32); 3] = [
            (1, 0xcaf8_a663, 0x30bd_9952),
            (2, 0x8f1d_9969, 0xf481_2a15),
            (3, 0x0d44_0418, 0x2c44_195a),
        ];
        for (seed, full_crc, top10_crc) in golden {
            let cfg = ExperimentConfig {
                n: 2_000,
                seed,
                ..ExperimentConfig::paper_default()
            };
            let data = cfg.generate_dataset();
            let template = cfg.template(&data);
            let full = IpoTreeBuilder::new().build(&data, &template).unwrap();
            let top10 = IpoTreeBuilder::new()
                .top_k_values(10)
                .build(&data, &template)
                .unwrap();
            let got = (crc32(&encode_tree(&full)), crc32(&encode_tree(&top10)));
            assert_eq!(got, (full_crc, top10_crc), "seed {seed}: {got:#010x?}");
        }
    }

    /// Small adversarial datasets for the grouped phases: values from {0, 1, 2, 3} (ties on
    /// every dimension), whole-row duplicates, and a nominal layout per `case % 3` — random
    /// tuples, one tuple, every row in its own tuple.
    fn adversarial_data(below: &mut impl FnMut(usize) -> usize, case: usize) -> Dataset {
        let (nd, md, card) = (below(3), 1 + below(2), 2 + below(3));
        let schema = skyline_datagen::synthetic::synthetic_schema(nd, md, card);
        let mut data = Dataset::empty(schema);
        let mut n = 1 + below(40);
        if case % 3 == 2 {
            n = n.min(card.pow(md as u32));
        }
        for i in 0..n {
            if i > 0 && below(5) == 0 {
                let src = below(i) as PointId;
                let nums: Vec<f64> = (0..nd).map(|j| data.numeric(src, j)).collect();
                let noms: Vec<ValueId> = (0..md).map(|j| data.nominal(src, j)).collect();
                data.push_row_ids(&nums, &noms).unwrap();
                continue;
            }
            let nums: Vec<f64> = (0..nd).map(|_| below(4) as f64).collect();
            let noms: Vec<ValueId> = (0..md)
                .map(|j| match case % 3 {
                    0 => below(card) as ValueId,
                    1 => 1,
                    _ => (i / card.pow(j as u32) % card) as ValueId,
                })
                .collect();
            data.push_row_ids(&nums, &noms).unwrap();
        }
        data
    }

    /// The grouped `SKY(∅)` ≡ the global SFS scan on the reference context it replaced ≡
    /// BNL under the empty-order `DominanceContext`. The whole tree is checked too: the packed
    /// template skyline equals BNL on the reference context, and every labelled node equals
    /// [`direct_disqualified`].
    #[test]
    fn grouped_phases_match_the_reference_on_adversarial_inputs() {
        let mut below = lcg(0x5eed);
        for case in 0..900 {
            let data = adversarial_data(&mut below, case);
            assert_phases_match_the_reference(&mut below, case, &data);
        }
    }

    /// A linear congruential stream: `below(n)` draws from `0..n`.
    fn lcg(mut state: u64) -> impl FnMut(usize) -> usize {
        move |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % n as u64) as usize
        }
    }

    /// 65–300 rows, so every phase crosses a 64-row lane block: numeric dimension 0 drawn
    /// from {0, 1, 2}, so runs of ties straddle the block boundaries once the rows are
    /// sorted, and about one row in four a whole-row duplicate.
    /// `case % 3` picks the dimensions: no numeric dimension, one to three numeric and one or
    /// two nominal, or one to three numeric and three nominal.
    fn block_crossing_data(below: &mut impl FnMut(usize) -> usize, case: usize) -> Dataset {
        let nd = if case.is_multiple_of(3) {
            0
        } else {
            1 + below(3)
        };
        let (md, card) = if case % 3 == 2 {
            (3, 2 + below(2))
        } else {
            (1 + below(2), 2 + below(3))
        };
        let schema = skyline_datagen::synthetic::synthetic_schema(nd, md, card);
        let mut data = Dataset::empty(schema);
        for i in 0..65 + below(236) {
            if i > 0 && below(4) == 0 {
                let src = below(i) as PointId;
                let nums: Vec<f64> = (0..nd).map(|j| data.numeric(src, j)).collect();
                let noms: Vec<ValueId> = (0..md).map(|j| data.nominal(src, j)).collect();
                data.push_row_ids(&nums, &noms).unwrap();
                continue;
            }
            let nums: Vec<f64> = (0..nd)
                .map(|j| below(if j == 0 { 3 } else { 5 }) as f64)
                .collect();
            let noms: Vec<ValueId> = (0..md).map(|_| below(card) as ValueId).collect();
            data.push_row_ids(&nums, &noms).unwrap();
        }
        data
    }

    /// The same references on inputs that fill more than one lane block.
    #[test]
    fn phases_match_the_reference_across_lane_blocks() {
        let mut below = lcg(0xb10c);
        for case in 0..24 {
            let data = block_crossing_data(&mut below, case);
            assert!(data.len() > 64);
            assert_phases_match_the_reference(&mut below, case, &data);
        }
    }

    /// Checks the phases on `data` against their references (as listed above
    /// `grouped_phases_match_the_reference_on_adversarial_inputs`).
    fn assert_phases_match_the_reference(
        below: &mut impl FnMut(usize) -> usize,
        case: usize,
        data: &Dataset,
    ) {
        let schema = data.schema();
        let empty = Template::empty(schema);
        let ctx = DominanceContext::for_template(data, &empty).unwrap();
        let all: Vec<PointId> = data.point_ids().collect();
        let (mut global, _) =
            sfs::skyline_sorted_with_stats(&ctx, &ScoreFn::default_ranking(schema), &all);
        global.sort_unstable();
        let orders: Vec<PartialOrder> = schema
            .nominal_cardinalities()
            .into_iter()
            .map(PartialOrder::empty)
            .collect();
        let base = CompiledRelation::new(data, &orders).unwrap();
        let grouped = base_skyline(&base);
        assert_eq!(grouped, global, "case {case}");
        let cards = schema.nominal_cardinalities();
        // Choice `v` on a dimension is the template's `v − 1 ≺ ∗` there; 0 leaves it empty.
        let template_of = |choices: Vec<usize>| {
            let pref = Preference::from_dims(
                choices
                    .into_iter()
                    .map(|v| match v {
                        0 => ImplicitPreference::none(),
                        v => ImplicitPreference::first_order(v as ValueId - 1),
                    })
                    .collect(),
            );
            Template::from_preference(schema, pref).unwrap()
        };
        assert_eq!(grouped, bnl::skyline(&ctx), "case {case}");

        let template = template_of(cards.iter().map(|&c| below(c + 1)).collect());
        let tree = IpoTreeBuilder::new().build(data, &template).unwrap();
        let template_ctx = DominanceContext::for_template(data, &template).unwrap();
        assert_eq!(
            tree.skyline(),
            bnl::skyline_of(&template_ctx, &global),
            "case {case}"
        );
        let paths: usize = cards.iter().map(|c| c + 1).product();
        for code in 0..paths {
            let mut rest = code;
            let path: Vec<Option<ValueId>> = cards
                .iter()
                .map(|&c| {
                    let digit = rest % (c + 1);
                    rest /= c + 1;
                    digit.checked_sub(1).map(|v| v as ValueId)
                })
                .collect();
            let node = tree.node(tree.node_for_choices(&path).unwrap());
            if node.label().is_some() {
                let direct = direct_disqualified(data, tree.skyline(), &global, &path);
                assert_eq!(node.disqualified(), direct, "case {case}, path {path:?}");
            }
        }
    }

    #[test]
    fn first_order_preference_helper() {
        let pref = first_order_preference(3, &[Some(2), None, Some(0)]);
        assert_eq!(pref.dim(0).choices(), &[2]);
        assert!(pref.dim(1).is_none());
        assert_eq!(pref.dim(2).choices(), &[0]);
        assert_eq!(pref.order(), 1);
    }
}
