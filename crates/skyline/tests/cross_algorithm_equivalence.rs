//! Property-based cross-algorithm equivalence: on random datasets and random implicit
//! preferences, every algorithm of the paper (BNL oracle, SFS-D, Adaptive SFS in both scan
//! modes, set-based IPO tree, bitmap IPO tree, hybrid engine — full and truncated) must
//! return exactly the same skyline.

use proptest::prelude::*;
use skyline::adaptive::ScanMode;
use skyline::ipo::build::direct_disqualified;
use skyline::prelude::*;
use skyline_core::algo::bnl;
use skyline_core::Deadline;

/// Every labelled node of `tree` stores exactly the set the definition gives: the members of
/// `SKY(R)` some `SKY(∅)` point dominates under the node's first-order choices.
fn assert_node_sets_match_direct_recomputation(tree: &IpoTree, data: &Dataset) {
    let empty = Template::empty(data.schema());
    let base = bnl::skyline(&DominanceContext::for_template(data, &empty).unwrap());
    let mut stack: Vec<(u32, Vec<Option<ValueId>>)> = vec![(0, Vec::new())];
    while let Some((node, path)) = stack.pop() {
        if path.len() == tree.nominal_count() {
            continue;
        }
        let values = tree.materialized_values(path.len()).iter().copied();
        for label in std::iter::once(None).chain(values.map(Some)) {
            let child = tree.child_of(node, label).unwrap();
            let mut child_path = path.clone();
            child_path.push(label);
            if label.is_some() {
                assert_eq!(
                    tree.node(child).disqualified(),
                    direct_disqualified(data, tree.skyline(), &base, &child_path).as_slice(),
                    "path {child_path:?}"
                );
            }
            stack.push((child, child_path));
        }
    }
}

/// A compact description of a random test instance.
#[derive(Debug, Clone)]
struct Instance {
    numeric: Vec<Vec<f64>>,
    nominal: Vec<Vec<ValueId>>,
    cardinalities: Vec<usize>,
    /// Per nominal dimension: the query's ordered choice list.
    query_choices: Vec<Vec<ValueId>>,
    /// Whether the template prefers the most frequent value.
    template_most_frequent: bool,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    // 2 numeric dimensions, 2 nominal dimensions with cardinalities 3 and 4.
    let cardinalities = vec![3usize, 4usize];
    let n = 1usize..40;
    n.prop_flat_map(move |rows| {
        let cards = cardinalities.clone();
        let numeric = proptest::collection::vec(
            proptest::collection::vec(0i32..6, rows)
                .prop_map(|v| v.into_iter().map(f64::from).collect()),
            2,
        );
        let nominal = cards
            .iter()
            .map(|&c| proptest::collection::vec(0..(c as ValueId), rows))
            .collect::<Vec<_>>();
        let query = cards
            .iter()
            .map(|&c| {
                proptest::sample::subsequence((0..c as ValueId).collect::<Vec<_>>(), 0..=c.min(3))
                    .prop_shuffle()
            })
            .collect::<Vec<_>>();
        (numeric, nominal, query, any::<bool>()).prop_map(
            move |(numeric, nominal, query_choices, tmpl)| Instance {
                numeric,
                nominal,
                cardinalities: cards.clone(),
                query_choices,
                template_most_frequent: tmpl,
            },
        )
    })
}

fn build_dataset(instance: &Instance) -> std::sync::Arc<Dataset> {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::numeric("y"),
        Dimension::nominal("g", NominalDomain::anonymous(instance.cardinalities[0])),
        Dimension::nominal("h", NominalDomain::anonymous(instance.cardinalities[1])),
    ])
    .unwrap();
    std::sync::Arc::new(
        Dataset::from_columns(schema, instance.numeric.clone(), instance.nominal.clone()).unwrap(),
    )
}

/// Builds the query so that it refines the template (template prefix first).
fn build_query(data: &Dataset, template: &Template, instance: &Instance) -> Preference {
    let mut pref = Preference::none(2);
    for j in 0..2 {
        let mut choices: Vec<ValueId> = template
            .implicit()
            .map(|t| t.dim(j).choices().to_vec())
            .unwrap_or_default();
        for &v in &instance.query_choices[j] {
            if !choices.contains(&v) {
                choices.push(v);
            }
        }
        pref.set_dim(j, ImplicitPreference::new(choices).unwrap());
    }
    let _ = data;
    pref
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn all_algorithms_return_the_same_skyline(instance in instance_strategy()) {
        let data = build_dataset(&instance);
        let template = if instance.template_most_frequent {
            Template::most_frequent_value(&data).unwrap()
        } else {
            Template::empty(data.schema())
        };
        let query = build_query(&data, &template, &instance);

        // Oracle: brute-force BNL under the combined relation.
        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        let expected = bnl::skyline(&ctx);

        // SFS-D.
        let sfsd = SkylineEngine::build(data.clone(), template.clone(), EngineConfig::SfsD).unwrap();
        prop_assert_eq!(&sfsd.query(&query).unwrap().skyline, &expected);

        // Adaptive SFS, both scan modes.
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        prop_assert_eq!(&asfs.query(&query).unwrap(), &expected);
        let (full, _) = asfs
            .query_with_stats(&query, ScanMode::FullRescan)
            .unwrap();
        prop_assert_eq!(&full, &expected);
        // Progressive iterator yields the same members.
        let mut streamed: Vec<PointId> = asfs
            .query_scan(&query, ScanMode::default())
            .unwrap()
            .collect();
        streamed.sort_unstable();
        prop_assert_eq!(&streamed, &expected);

        // IPO tree: the set-based Algorithm 1/2 reference (its MDC-built node sets checked
        // against the direct recomputation) and the bitmap form.
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        prop_assert_eq!(&tree.query(&data, &query).unwrap(), &expected);
        assert_node_sets_match_direct_recomputation(&tree, &data);
        let bitmap = BitmapIpoTree::from_tree(&tree, &data);
        prop_assert_eq!(&bitmap.query(&data, &query).unwrap(), &expected);

        // The full-tree engine serves every preference from its tree, batch and stream
        // alike.
        let full = SkylineEngine::build(data.clone(), template.clone(), EngineConfig::Hybrid { top_k: usize::MAX }).unwrap();
        let batch = full.query(&query).unwrap();
        prop_assert_eq!(batch.method, MethodUsed::IpoTree);
        prop_assert_eq!(&batch.skyline, &expected);
        let streamed = full
            .query_streaming_at(&query, full.epoch(), Deadline::none())
            .unwrap()
            .collect_outcome()
            .unwrap();
        prop_assert_eq!(&streamed, &batch);

        // Hybrid engine (small top_k so the fallback path is exercised often).
        let hybrid = SkylineEngine::build(data.clone(), template.clone(), EngineConfig::Hybrid { top_k: 2 }).unwrap();
        prop_assert_eq!(&hybrid.query(&query).unwrap().skyline, &expected);
    }

    #[test]
    fn skyline_members_are_never_dominated(instance in instance_strategy()) {
        let data = build_dataset(&instance);
        let template = Template::empty(data.schema());
        let query = build_query(&data, &template, &instance);
        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        let skyline = asfs.query(&query).unwrap();
        for &p in &skyline {
            for q in data.point_ids() {
                prop_assert!(!ctx.dominates(q, p), "skyline member {p} is dominated by {q}");
            }
        }
        // And every non-member is dominated by someone.
        for p in data.point_ids() {
            if !skyline.contains(&p) {
                prop_assert!(
                    data.point_ids().any(|q| ctx.dominates(q, p)),
                    "non-member {p} is not dominated"
                );
            }
        }
    }
}

/// A second generator family with *variable shape*: 1–2 numeric dimensions, 1–3 nominal
/// dimensions, cardinalities 2–6 and a narrow numeric value range (dense dominance ties),
/// exercising schema shapes the fixed-shape instances above never produce.
#[derive(Debug, Clone)]
struct WideInstance {
    numeric: Vec<Vec<f64>>,
    nominal: Vec<Vec<ValueId>>,
    cardinality: usize,
    query_choices: Vec<Vec<ValueId>>,
}

fn wide_instance_strategy() -> impl Strategy<Value = WideInstance> {
    (1usize..25, 1usize..=2, 1usize..=3, 2usize..=6).prop_flat_map(
        |(rows, numeric_dims, nominal_dims, card)| {
            let numeric = proptest::collection::vec(
                proptest::collection::vec(0i32..4, rows)
                    .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>()),
                numeric_dims,
            );
            let nominal = proptest::collection::vec(
                proptest::collection::vec(0..(card as ValueId), rows),
                nominal_dims,
            );
            let query = proptest::collection::vec(
                proptest::sample::subsequence((0..card as ValueId).collect::<Vec<_>>(), 0..=card)
                    .prop_shuffle(),
                nominal_dims,
            );
            (numeric, nominal, query).prop_map(move |(numeric, nominal, query_choices)| {
                WideInstance {
                    numeric,
                    nominal,
                    cardinality: card,
                    query_choices,
                }
            })
        },
    )
}

fn build_wide_dataset(instance: &WideInstance) -> std::sync::Arc<Dataset> {
    let mut dims = Vec::new();
    for i in 0..instance.numeric.len() {
        dims.push(Dimension::numeric(format!("n{i}")));
    }
    for j in 0..instance.nominal.len() {
        dims.push(Dimension::nominal(
            format!("c{j}"),
            NominalDomain::anonymous(instance.cardinality),
        ));
    }
    let schema = Schema::new(dims).unwrap();
    std::sync::Arc::new(
        Dataset::from_columns(schema, instance.numeric.clone(), instance.nominal.clone()).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Every engine configuration and every IPO-tree build path (MDC, direct, parallel,
    /// truncated-but-complete top-k) agrees with the BNL oracle on variable-shape instances.
    #[test]
    fn all_engine_configs_agree_on_wide_shapes(instance in wide_instance_strategy()) {
        let data = build_wide_dataset(&instance);
        let template = Template::empty(data.schema());
        let query = Preference::from_dims(
            instance
                .query_choices
                .iter()
                .map(|c| ImplicitPreference::new(c.clone()).unwrap())
                .collect(),
        );

        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        let expected = bnl::skyline(&ctx);

        // Every engine configuration. `top_k` is clamped to the cardinality, so both full
        // trees materialize every value and serve arbitrary queries from the tree.
        let configs = [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: usize::MAX },
            EngineConfig::Hybrid { top_k: instance.cardinality },
            EngineConfig::Hybrid { top_k: 1 },
        ];
        for config in configs {
            let engine = SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            let outcome = engine.query(&query).unwrap();
            prop_assert_eq!(&outcome.skyline, &expected, "config {:?} diverged", config);
            if matches!(config, EngineConfig::Hybrid { top_k } if top_k >= instance.cardinality) {
                prop_assert_eq!(outcome.method, MethodUsed::IpoTree);
            }
        }

        // The set-based reference tree: same answer, node sets equal to the direct
        // recomputation.
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        prop_assert_eq!(&tree.query(&data, &query).unwrap(), &expected);
        assert_node_sets_match_direct_recomputation(&tree, &data);
    }

    /// On wide shapes, refining a query (appending one more value to some dimension) never
    /// grows the skyline beyond the base answer, and every engine stays consistent with the
    /// refined oracle (Theorem 1 exercised through the public engine API).
    #[test]
    fn refinement_stays_consistent_on_wide_shapes(instance in wide_instance_strategy()) {
        let data = build_wide_dataset(&instance);
        let template = Template::empty(data.schema());
        let base = Preference::from_dims(
            instance
                .query_choices
                .iter()
                .map(|c| ImplicitPreference::new(c.clone()).unwrap())
                .collect(),
        );
        // Refine: append the smallest unlisted value on each dimension (if any).
        let refined = Preference::from_dims(
            instance
                .query_choices
                .iter()
                .map(|c| {
                    let mut choices = c.clone();
                    if let Some(v) =
                        (0..instance.cardinality as ValueId).find(|v| !choices.contains(v))
                    {
                        choices.push(v);
                    }
                    ImplicitPreference::new(choices).unwrap()
                })
                .collect(),
        );
        prop_assert!(refined.refines(&base));

        let base_ctx = DominanceContext::for_query(&data, &template, &base).unwrap();
        let refined_ctx = DominanceContext::for_query(&data, &template, &refined).unwrap();
        let base_sky = bnl::skyline(&base_ctx);
        let refined_sky = bnl::skyline(&refined_ctx);
        for p in &refined_sky {
            prop_assert!(base_sky.contains(p), "refinement admitted new member {}", p);
        }

        let engine = SkylineEngine::build(data.clone(), template.clone(), EngineConfig::Hybrid { top_k: usize::MAX }).unwrap();
        prop_assert_eq!(&engine.query(&base).unwrap().skyline, &base_sky);
        prop_assert_eq!(&engine.query(&refined).unwrap().skyline, &refined_sky);
    }
}
