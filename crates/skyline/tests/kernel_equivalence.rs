//! Property-based equivalence of the compiled dominance kernel, and of every engine
//! configuration built on it, against the reference implementations.
//!
//! Four contracts are pinned here:
//!
//! 1. [`CompiledRelation`] ≡ [`DominanceContext`]: `dominates` agrees on every point pair,
//!    for random datasets, templates and query preferences.
//! 2. Packed ≡ reference on every path that scans a window: the bit-parallel 64-lane
//!    kernel and the reference context produce identical skylines through the SFS window
//!    scan and the cross-fragment `merge_skylines` operator, and through BNL over the
//!    kernel's pairwise test — across 2–8 total
//!    dimensions, ragged window lengths straddling the 64/128 lane-block boundaries, and
//!    both all-ranked and mixed ranked/unranked nominal orders.
//! 3. Engines of every [`EngineConfig`] answer queries exactly like BNL under the reference
//!    context, drained as a batch and pulled row by row.
//! 4. Both implementations are strict partial orders — irreflexive and transitive — on every
//!    instance the generators above draw.

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_core::algo::bnl;
use skyline_core::algo::sfs::Scan;
use skyline_core::score::ScoreFn;
use skyline_core::{merge_skylines, Deadline, PartialOrder};

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
    let n = 1usize..48;
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

fn build_template(data: &Dataset, instance: &Instance) -> Template {
    if instance.template_most_frequent {
        Template::most_frequent_value(data).unwrap()
    } else {
        Template::empty(data.schema())
    }
}

/// Builds the query so that it refines the template (template prefix first).
fn build_query(template: &Template, instance: &Instance) -> Preference {
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
    pref
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn kernel_agrees_with_dominance_context_on_every_pair(instance in instance_strategy()) {
        let data = build_dataset(&instance);
        let template = build_template(&data, &instance);
        let query = build_query(&template, &instance);

        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        let kernel = CompiledRelation::for_query(data.clone(), &template, &query).unwrap();
        for p in data.point_ids() {
            for q in data.point_ids() {
                prop_assert_eq!(
                    kernel.dominates(p, q),
                    ctx.dominates(p, q),
                    "dominates({}, {})", p, q
                );
            }
        }

        // Template-only relations must agree as well (the preprocessing path).
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let kernel = CompiledRelation::for_template(data.clone(), &template).unwrap();
        for p in data.point_ids() {
            for q in data.point_ids() {
                prop_assert_eq!(kernel.dominates(p, q), ctx.dominates(p, q));
            }
        }
    }

    #[test]
    fn every_engine_config_answers_like_the_reference_bnl(
        instance in instance_strategy()
    ) {
        let data = build_dataset(&instance);
        let template = build_template(&data, &instance);
        let query = build_query(&template, &instance);

        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        let expected = bnl::skyline(&ctx);
        let configs = [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: usize::MAX },
            EngineConfig::Hybrid { top_k: 2 },
        ];
        for config in configs {
            let engine =
                SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            prop_assert_eq!(
                &engine.query(&query).unwrap().skyline,
                &expected,
                "config {:?}", config
            );
            // Pulled row by row, the stream hands out the same set.
            let mut stream = engine
                .query_streaming_at(&query, engine.epoch(), Deadline::none())
                .unwrap();
            let mut pulled = Vec::new();
            while let Some(p) = stream.next_row().unwrap() {
                pulled.push(p);
            }
            pulled.sort_unstable();
            prop_assert_eq!(&pulled, &expected, "pulled, config {:?}", config);
        }
    }
}

/// A random instance over a widened design space: 1–4 numeric × 1–4 nominal dimensions (2–8 total), row counts chosen to straddle the
/// 64-lane block boundaries, and per-dimension partial orders that may or may not be
/// layered-rank representable (mixed ranked/unranked).
#[derive(Debug, Clone)]
struct WideInstance {
    numeric: Vec<Vec<f64>>,
    nominal: Vec<Vec<ValueId>>,
    cardinalities: Vec<usize>,
    /// Per nominal dimension: acyclic `a ≺ b` edges defining a general partial order.
    edges: Vec<Vec<(ValueId, ValueId)>>,
    /// Per nominal dimension: the ordered choice list for the implicit-preference query.
    query_choices: Vec<Vec<ValueId>>,
}

fn wide_instance_strategy() -> impl Strategy<Value = WideInstance> {
    let rows = prop_oneof![
        1usize..48,     // the classic small windows
        60usize..70,    // ragged around one lane block (63/64/65)
        Just(128usize), // exactly two full blocks
        125usize..132,  // ragged around two blocks
    ];
    (1usize..=4, 1usize..=4, rows).prop_flat_map(|(nd, md, n)| {
        let cards: Vec<usize> = (0..md).map(|j| 3 + (j % 3)).collect();
        let numeric = proptest::collection::vec(
            proptest::collection::vec(0i32..5, n)
                .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>()),
            nd,
        );
        let nominal = cards
            .iter()
            .map(|&c| proptest::collection::vec(0..(c as ValueId), n))
            .collect::<Vec<_>>();
        // Only `a < b` edges, so `from_pairs` always gets a DAG. Dense edge sets close
        // into weak (ranked) orders, sparse ones leave incomparable islands (unranked);
        // both shapes show up, which is the point.
        let edges = cards
            .iter()
            .map(|&c| {
                let all: Vec<(ValueId, ValueId)> = (0..c as ValueId)
                    .flat_map(|a| (a + 1..c as ValueId).map(move |b| (a, b)))
                    .collect();
                let top = all.len().min(4);
                proptest::sample::subsequence(all, 0..=top)
            })
            .collect::<Vec<_>>();
        let query = cards
            .iter()
            .map(|&c| {
                proptest::sample::subsequence((0..c as ValueId).collect::<Vec<_>>(), 0..=c.min(3))
                    .prop_shuffle()
            })
            .collect::<Vec<_>>();
        (numeric, nominal, edges, query).prop_map(
            move |(numeric, nominal, edges, query_choices)| WideInstance {
                numeric,
                nominal,
                cardinalities: cards.clone(),
                edges,
                query_choices,
            },
        )
    })
}

fn build_wide_dataset(instance: &WideInstance) -> std::sync::Arc<Dataset> {
    let mut dims = Vec::new();
    let names = ["a", "b", "c", "d", "g", "h", "i", "j"];
    for (i, _) in instance.numeric.iter().enumerate() {
        dims.push(Dimension::numeric(names[i]));
    }
    for (j, &card) in instance.cardinalities.iter().enumerate() {
        dims.push(Dimension::nominal(
            names[4 + j],
            NominalDomain::anonymous(card),
        ));
    }
    let schema = Schema::new(dims).unwrap();
    std::sync::Arc::new(
        Dataset::from_columns(schema, instance.numeric.clone(), instance.nominal.clone()).unwrap(),
    )
}

/// Pins kernel ≡ reference: BNL through the kernel's pairwise `dominates` against the
/// reference BNL skyline (`expected`), and the packed SFS presorted scan against the
/// reference context's scan over the same `sorted` order. The scan is compared
/// scan-to-scan, not scan-to-BNL: a score that is merely weakly monotone (ties broken by id)
/// makes SFS output order-dependent, and both implementations must be order-dependent
/// *identically*.
fn assert_all_paths_match<D: Dominance>(
    dom: &D,
    sorted: &[PointId],
    all: &[PointId],
    expected: &[PointId],
    expected_scan: &[PointId],
    what: &str,
) {
    assert_eq!(
        &bnl::skyline_of(dom, all),
        expected,
        "bnl over the kernel's pairwise test vs reference ({what})"
    );
    assert_eq!(
        &Scan::presorted(dom, sorted).collect::<Vec<_>>(),
        expected_scan,
        "packed sfs vs reference ({what})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Packed ≡ reference under **general partial-order templates** (mixed ranked/unranked
    /// dimensions) on wide schemas and lane-boundary window lengths, for the pairwise test
    /// under BNL, the SFS window scan, and the cross-fragment merge.
    #[test]
    fn packed_and_reference_agree_on_wide_templates(
        instance in wide_instance_strategy()
    ) {
        let data = build_wide_dataset(&instance);
        let orders: Vec<PartialOrder> = instance
            .cardinalities
            .iter()
            .zip(&instance.edges)
            .map(|(&c, edges)| PartialOrder::from_pairs(c, edges.iter().copied()).unwrap())
            .collect();
        let template = Template::from_partial_orders(data.schema(), orders).unwrap();

        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let kernel = CompiledRelation::for_template(data.clone(), &template).unwrap();

        // Pair-for-pair agreement (bounded: the pairwise loop is O(n²) and the packed
        // paths are covered by the scan assertions below at every size).
        let all: Vec<PointId> = data.point_ids().collect();
        if all.len() <= 48 {
            for &p in &all {
                for &q in &all {
                    prop_assert_eq!(
                        kernel.dominates(p, q),
                        ctx.dominates(p, q),
                        "dominates({}, {})", p, q
                    );
                }
            }
        }

        let expected = bnl::skyline_of(&ctx, &all);
        let score = ScoreFn::default_ranking(data.schema());
        let sorted = score.sort_by_score(&data, &all);
        let expected_scan: Vec<PointId> = Scan::presorted(&ctx, &sorted).collect();
        assert_all_paths_match(&kernel, &sorted, &all, &expected, &expected_scan, "template");

        // Cross-fragment merge: 3-way ragged split, the reference fragment skylines merged
        // back must equal the global skyline.
        let fragments: Vec<Vec<PointId>> = (0..3)
            .map(|s| {
                let rows: Vec<PointId> =
                    all.iter().copied().filter(|p| p % 3 == s).collect();
                bnl::skyline_of(&ctx, &rows)
            })
            .collect();
        let views: Vec<&[PointId]> = fragments.iter().map(Vec::as_slice).collect();
        let mut merged = merge_skylines(&kernel, &views);
        merged.sort_unstable();
        prop_assert_eq!(&merged, &expected, "packed merge vs reference");
    }

    /// The same agreement under **implicit-preference queries** (the paper's all-ranked
    /// form) on wide schemas, through the query-compiled kernel.
    #[test]
    fn packed_and_reference_agree_on_wide_queries(
        instance in wide_instance_strategy()
    ) {
        let data = build_wide_dataset(&instance);
        let template = Template::empty(data.schema());
        let mut query = Preference::none(instance.cardinalities.len());
        for (j, choices) in instance.query_choices.iter().enumerate() {
            query.set_dim(j, ImplicitPreference::new(choices.clone()).unwrap());
        }

        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        let kernel = CompiledRelation::for_query(data.clone(), &template, &query).unwrap();
        let all: Vec<PointId> = data.point_ids().collect();
        if all.len() <= 48 {
            for &p in &all {
                for &q in &all {
                    prop_assert_eq!(
                        kernel.dominates(p, q),
                        ctx.dominates(p, q),
                        "dominates({}, {})", p, q
                    );
                }
            }
        }

        let expected = bnl::skyline_of(&ctx, &all);
        let score = ScoreFn::for_preference(data.schema(), &query).unwrap();
        let sorted = score.sort_by_score(&data, &all);
        // `for_preference` scores are monotone w.r.t. query dominance, so here the scan
        // must also equal the BNL skyline (up to order).
        let expected_scan: Vec<PointId> = Scan::presorted(&ctx, &sorted).collect();
        let mut scan_sorted = expected_scan.clone();
        scan_sorted.sort_unstable();
        assert_eq!(&scan_sorted, &expected, "reference scan vs reference bnl");
        assert_all_paths_match(&kernel, &sorted, &all, &expected, &expected_scan, "query");
    }
}

/// Asserts that `dom` is a strict partial order on `points`: irreflexive, and transitive —
/// `a ≻ b ∧ b ≻ c ⇒ a ≻ c` (asymmetry follows from the two).
fn assert_strict_partial_order<D: Dominance>(dom: &D, points: &[PointId], what: &str) {
    let n = points.len();
    let dominates: Vec<bool> = points
        .iter()
        .flat_map(|&a| points.iter().map(move |&b| dom.dominates(a, b)))
        .collect();
    for a in 0..n {
        assert!(!dominates[a * n + a], "{what}: {} ≻ itself", points[a]);
        for b in (0..n).filter(|&b| dominates[a * n + b]) {
            for c in (0..n).filter(|&c| dominates[b * n + c]) {
                assert!(
                    dominates[a * n + c],
                    "{what}: {} ≻ {} ≻ {} but not {} ≻ {}",
                    points[a],
                    points[b],
                    points[c],
                    points[a],
                    points[c]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Dominance is transitive on every instance both generators draw, for the reference
    /// context and the compiled kernel, under the template and under the query. Numeric cells
    /// are finite by construction, so the numeric dimensions are totally ordered; the
    /// template skyline `SKY(R)` holding every refinement's skyline, the cross-shard build of
    /// `G` and the MDC miner's restriction to skyline dominators all rest on this.
    #[test]
    fn dominance_is_transitive_on_every_instance(
        instance in instance_strategy(),
        wide in wide_instance_strategy(),
    ) {
        let data = build_dataset(&instance);
        let all: Vec<PointId> = data.point_ids().collect();
        let template = build_template(&data, &instance);
        let query = build_query(&template, &instance);
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        assert_strict_partial_order(&ctx, &all, "reference, template");
        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        assert_strict_partial_order(&ctx, &all, "reference, query");
        let kernel = CompiledRelation::for_template(data.clone(), &template).unwrap();
        assert_strict_partial_order(&kernel, &all, "kernel, template");
        let kernel = CompiledRelation::for_query(data.clone(), &template, &query).unwrap();
        assert_strict_partial_order(&kernel, &all, "kernel, query");

        let data = build_wide_dataset(&wide);
        let all: Vec<PointId> = data.point_ids().collect();
        let orders: Vec<PartialOrder> = wide
            .cardinalities
            .iter()
            .zip(&wide.edges)
            .map(|(&c, edges)| PartialOrder::from_pairs(c, edges.iter().copied()).unwrap())
            .collect();
        let template = Template::from_partial_orders(data.schema(), orders).unwrap();
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        assert_strict_partial_order(&ctx, &all, "reference, wide template");
        let kernel = CompiledRelation::for_template(data.clone(), &template).unwrap();
        assert_strict_partial_order(&kernel, &all, "kernel, wide template");
        let empty = Template::empty(data.schema());
        let mut query = Preference::none(wide.cardinalities.len());
        for (j, choices) in wide.query_choices.iter().enumerate() {
            query.set_dim(j, ImplicitPreference::new(choices.clone()).unwrap());
        }
        let ctx = DominanceContext::for_query(&data, &empty, &query).unwrap();
        assert_strict_partial_order(&ctx, &all, "reference, wide query");
        let kernel = CompiledRelation::for_query(data.clone(), &empty, &query).unwrap();
        assert_strict_partial_order(&kernel, &all, "kernel, wide query");
    }
}
