//! Property-based equivalence of the compiled dominance kernel and the parallel
//! preprocessing path against their reference implementations.
//!
//! Three contracts are pinned here:
//!
//! 1. [`CompiledRelation`] ≡ [`DominanceContext`]: `dominates` and `compare` agree on every
//!    point pair, for random datasets, templates and query preferences.
//! 2. Packed ≡ reference on every path that scans a window: the bit-parallel 64-lane
//!    kernel and the reference context produce identical skylines through BNL, the SFS
//!    window scan, and the cross-fragment `merge_skylines` operator — across 2–8 total
//!    dimensions, ragged window lengths straddling the 64/128 lane-block boundaries, and
//!    both all-ranked and mixed ranked/unranked nominal orders.
//! 3. Parallel divide-and-conquer preprocessing ≡ serial: `AdaptiveSfs::build_with_workers`
//!    produces a **bit-for-bit identical** sorted list for any worker count, and engines of
//!    every [`EngineConfig`] answer queries identically no matter how their Adaptive SFS
//!    structure was preprocessed.

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
        let kernel = CompiledRelation::compile_query(&data, &template, &query).unwrap();
        for p in data.point_ids() {
            for q in data.point_ids() {
                prop_assert_eq!(
                    kernel.dominates(p, q),
                    ctx.dominates(p, q),
                    "dominates({}, {})", p, q
                );
                prop_assert_eq!(
                    kernel.compare(p, q),
                    ctx.compare(p, q),
                    "compare({}, {})", p, q
                );
            }
        }

        // Template-only relations must agree as well (the preprocessing path).
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let kernel = CompiledRelation::for_template(
            std::sync::Arc::new(PointBlock::new(&data)),
            &template,
        )
        .unwrap();
        for p in data.point_ids() {
            for q in data.point_ids() {
                prop_assert_eq!(kernel.dominates(p, q), ctx.dominates(p, q));
                prop_assert_eq!(kernel.compare(p, q), ctx.compare(p, q));
            }
        }
    }

    #[test]
    fn parallel_preprocessing_is_bit_for_bit_serial(instance in instance_strategy()) {
        let data = build_dataset(&instance);
        let template = build_template(&data, &instance);
        let query = build_query(&template, &instance);

        let serial = AdaptiveSfs::build_with_workers(data.clone(), &template, 1).unwrap();
        prop_assert_eq!(serial.preprocess_stats().workers, 1);
        for workers in [2, 3, 4, 7] {
            let parallel =
                AdaptiveSfs::build_with_workers(data.clone(), &template, workers).unwrap();
            prop_assert_eq!(parallel.preprocess_stats().workers, workers);
            // Bit-for-bit: identical entries (points AND f64 scores) in identical order.
            prop_assert_eq!(
                serial.sorted_entries(),
                parallel.sorted_entries(),
                "workers = {}", workers
            );
            prop_assert_eq!(serial.template_skyline(), parallel.template_skyline());
            prop_assert_eq!(
                serial.query(&query).unwrap(),
                parallel.query(&query).unwrap()
            );
        }
    }

    #[test]
    fn every_engine_config_answers_identically_under_parallel_preprocessing(
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
            // Scratch reuse must not change answers: ask twice through one scratch.
            let mut scratch = EngineScratch::new();
            for pass in ["first", "second"] {
                prop_assert_eq!(
                    &engine
                        .query_at_deadline(&query, engine.epoch(), &Deadline::none(), &mut scratch)
                        .unwrap()
                        .skyline,
                    &expected,
                    "scratch {} pass, config {:?}", pass, config
                );
            }
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

/// Pins packed ≡ reference on both window walks: BNL against the reference BNL skyline
/// (`expected`), and the SFS presorted scan against the reference context's scan over the
/// same `sorted` order. The scan is compared scan-to-scan, not scan-to-BNL: a score that is
/// merely weakly monotone (ties broken by id) makes SFS output order-dependent, and both
/// implementations must be order-dependent *identically*.
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
        "packed bnl vs reference ({what})"
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
    /// dimensions) on wide schemas and lane-boundary window lengths, for the BNL window, the
    /// SFS window scan, and the cross-fragment merge.
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
        let kernel =
            CompiledRelation::for_template(std::sync::Arc::new(PointBlock::new(&data)), &template)
                .unwrap();

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
        let kernel = CompiledRelation::compile_query(&data, &template, &query).unwrap();
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

/// Deterministic spot check: the auto-parallel `build` and the pinned variants agree on a
/// dataset large enough to cross the parallel threshold.
#[test]
fn auto_build_matches_serial_on_a_large_dataset() {
    let config = ExperimentConfig {
        n: 6000,
        numeric_dims: 2,
        nominal_dims: 2,
        cardinality: 5,
        theta: 1.0,
        pref_order: 2,
        distribution: Distribution::AntiCorrelated,
        seed: 11,
    };
    let data = std::sync::Arc::new(config.generate_dataset());
    let template = config.template(&data);
    let auto = AdaptiveSfs::build(data.clone(), &template).unwrap();
    let serial = AdaptiveSfs::build_with_workers(data.clone(), &template, 1).unwrap();
    let four = AdaptiveSfs::build_with_workers(data, &template, 4).unwrap();
    assert_eq!(auto.sorted_entries(), serial.sorted_entries());
    assert_eq!(serial.sorted_entries(), four.sorted_entries());
    assert_eq!(four.preprocess_stats().workers, 4);
    assert!(auto.preprocess_stats().workers >= 1);
}
