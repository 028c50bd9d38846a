//! Additional cross-crate invariant tests: progressiveness of Adaptive SFS, consistency of the
//! materialized first-order skylines inside the IPO tree, statistics sanity, and preference
//! round-trips through the textual syntax.

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_core::algo::bnl;
use skyline_core::stats;
use skyline_ipo::build::first_order_preference;

const CARD: usize = 4;

fn dataset_strategy() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<ValueId>>)> {
    (1usize..30).prop_flat_map(|rows| {
        let numeric = proptest::collection::vec(
            proptest::collection::vec(0i32..5, rows)
                .prop_map(|v| v.into_iter().map(f64::from).collect()),
            2,
        );
        let nominal =
            proptest::collection::vec(proptest::collection::vec(0..(CARD as ValueId), rows), 2);
        (numeric, nominal)
    })
}

fn build(numeric: Vec<Vec<f64>>, nominal: Vec<Vec<ValueId>>) -> std::sync::Arc<Dataset> {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::numeric("y"),
        Dimension::nominal("g", NominalDomain::anonymous(CARD)),
        Dimension::nominal("h", NominalDomain::anonymous(CARD)),
    ])
    .unwrap();
    std::sync::Arc::new(Dataset::from_columns(schema, numeric, nominal).unwrap())
}

fn preference_strategy() -> impl Strategy<Value = Vec<Vec<ValueId>>> {
    proptest::collection::vec(
        proptest::sample::subsequence((0..CARD as ValueId).collect::<Vec<_>>(), 0..=3)
            .prop_shuffle(),
        2,
    )
}

fn to_preference(choices: &[Vec<ValueId>]) -> Preference {
    Preference::from_dims(
        choices
            .iter()
            .map(|c| ImplicitPreference::new(c.clone()).unwrap())
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Every prefix of the progressive stream is a subset of the final skyline, the stream has
    /// no duplicates, and the scores of the emitted points never decrease.
    #[test]
    fn progressive_stream_is_prefix_closed_and_monotone(
        (numeric, nominal) in dataset_strategy(),
        choices in preference_strategy(),
    ) {
        let data = build(numeric, nominal);
        let template = Template::empty(data.schema());
        let pref = to_preference(&choices);
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        let full = asfs.query(&pref).unwrap();
        let score = skyline_core::score::ScoreFn::for_preference(data.schema(), &pref).unwrap();

        let mut seen = std::collections::HashSet::new();
        let mut last_score = f64::NEG_INFINITY;
        let mode = skyline::adaptive::ScanMode::default();
        for p in asfs.query_scan(&pref, mode).unwrap() {
            prop_assert!(full.contains(&p), "streamed point {p} is not in the final skyline");
            prop_assert!(seen.insert(p), "point {p} streamed twice");
            let s = score.score(&data, p);
            prop_assert!(s >= last_score - 1e-9, "scores must be non-decreasing");
            last_score = s;
        }
        prop_assert_eq!(seen.len(), full.len());
    }

    /// The first-order skylines materialized inside the IPO tree agree with (a) the query path
    /// through the same tree and (b) the brute-force oracle.
    #[test]
    fn materialized_first_order_skylines_are_consistent(
        (numeric, nominal) in dataset_strategy(),
        g_choice in proptest::option::of(0..CARD as ValueId),
        h_choice in proptest::option::of(0..CARD as ValueId),
    ) {
        let data = build(numeric, nominal);
        let template = Template::empty(data.schema());
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let choices = [g_choice, h_choice];
        let materialized = tree.first_order_skyline(&choices).unwrap();
        let pref = first_order_preference(2, &choices);
        prop_assert_eq!(&materialized, &tree.query(&data, &pref).unwrap());
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        prop_assert_eq!(&materialized, &bnl::skyline(&ctx));
    }

    /// Statistics are internally consistent: AFFECT ⊆ SKY(R), SKY(R') ⊆ SKY(R), and the three
    /// percentages stay within [0, 100].
    #[test]
    fn statistics_are_bounded_and_consistent(
        (numeric, nominal) in dataset_strategy(),
        choices in preference_strategy(),
    ) {
        let data = build(numeric, nominal);
        let template = Template::empty(data.schema());
        let pref = to_preference(&choices);
        let template_ctx = DominanceContext::for_template(&data, &template).unwrap();
        let template_sky = bnl::skyline(&template_ctx);
        let query_ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        let query_sky = bnl::skyline(&query_ctx);

        let affected = stats::affected_points(&data, &template_sky, &pref);
        for p in &affected {
            prop_assert!(template_sky.contains(p));
        }
        for p in &query_sky {
            prop_assert!(template_sky.contains(p), "Theorem 1: SKY(R') ⊆ SKY(R)");
        }
        let s = stats::collect_stats(&data, &template_sky, &query_sky, &pref);
        for pct in [s.template_skyline_pct(), s.affected_pct(), s.query_skyline_pct()] {
            prop_assert!((0.0..=100.0 + 1e-9).contains(&pct));
        }
        prop_assert_eq!(s.affected, affected.len());
        prop_assert_eq!(s.dataset_size, data.len());
    }

    /// Formatting a preference with schema labels and re-parsing it is the identity.
    #[test]
    fn preference_display_parse_roundtrip(choices in preference_strategy()) {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::nominal_with_labels("g", ["g0", "g1", "g2", "g3"]),
            Dimension::nominal_with_labels("h", ["h0", "h1", "h2", "h3"]),
        ])
        .unwrap();
        let pref = to_preference(&choices);
        pref.validate(&schema).unwrap();
        // Render each dimension back to its textual form and parse it again.
        let mut specs: Vec<(String, String)> = Vec::new();
        for (j, name) in ["g", "h"].iter().enumerate() {
            let domain = schema.nominal_domain(j).unwrap();
            let text = pref
                .dim(j)
                .choices()
                .iter()
                .map(|&v| domain.label(v).unwrap().to_string())
                .chain(std::iter::once("*".to_string()))
                .collect::<Vec<_>>()
                .join(" < ");
            specs.push((name.to_string(), text));
        }
        let reparsed = Preference::parse(
            &schema,
            specs.iter().map(|(d, t)| (d.as_str(), t.as_str())),
        )
        .unwrap();
        prop_assert_eq!(reparsed, pref);
    }
}

/// The hybrid engine never returns an error for valid refinements of its template, regardless
/// of whether the listed values are materialized.
#[test]
fn hybrid_engine_total_over_valid_queries() {
    let config = ExperimentConfig {
        n: 600,
        numeric_dims: 2,
        nominal_dims: 2,
        cardinality: 12,
        theta: 1.0,
        pref_order: 3,
        distribution: Distribution::AntiCorrelated,
        seed: 77,
    };
    let data = std::sync::Arc::new(config.generate_dataset());
    let template = config.template(&data);
    let engine = SkylineEngine::build(
        data.clone(),
        template.clone(),
        EngineConfig::Hybrid { top_k: 2 },
    )
    .unwrap();
    let mut generator = config.query_generator();
    for order in 1..=4 {
        for _ in 0..10 {
            let pref = generator.random_preference(data.schema(), &template, order, None);
            let outcome = engine.query(&pref).unwrap();
            let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
            assert_eq!(outcome.skyline, bnl::skyline(&ctx));
        }
    }
}
