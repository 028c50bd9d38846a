//! Property-based tests of the paper's formal results:
//!
//! * the dominance relation is a strict partial order;
//! * Property 1 (order containment is dimension-wise);
//! * Theorem 1 (monotonicity of skylines under refinement);
//! * Theorem 2 (the merging property that powers IPO-tree query evaluation);
//! * the AFFECT lemma Adaptive SFS's query path is built on (`skyline_adaptive::asfs`): only
//!   rows carrying a value listed *beyond the template's prefix* move or gain a dominator.

use proptest::prelude::*;
use skyline::adaptive::{QueryScratch, ScanMode};
use skyline::prelude::*;
use skyline_core::algo::bnl;
use skyline_core::score::ScoreFn;

const CARD: usize = 4;

fn dataset_strategy() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<ValueId>>)> {
    (1usize..35).prop_flat_map(|rows| {
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

fn build(numeric: Vec<Vec<f64>>, nominal: Vec<Vec<ValueId>>) -> Dataset {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::numeric("y"),
        Dimension::nominal("g", NominalDomain::anonymous(CARD)),
        Dimension::nominal("h", NominalDomain::anonymous(CARD)),
    ])
    .unwrap();
    Dataset::from_columns(schema, numeric, nominal).unwrap()
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

/// One template/query shape of the lemma: a value order per dimension, of which the template
/// lists the first `template_len[j]` and the query the first `query_len[j] ≥ template_len[j]`.
fn refinement_strategy() -> impl Strategy<Value = (Vec<Vec<ValueId>>, Vec<usize>, Vec<usize>)> {
    let orders = proptest::collection::vec(
        proptest::sample::subsequence((0..CARD as ValueId).collect::<Vec<_>>(), CARD)
            .prop_shuffle(),
        2,
    );
    let template_len = proptest::collection::vec(0usize..=2, 2);
    (orders, template_len).prop_flat_map(|(orders, template_len)| {
        let query_len: Vec<_> = template_len.iter().map(|&t| t..=CARD).collect();
        (Just(orders), Just(template_len), query_len)
    })
}

fn prefix_preference(orders: &[Vec<ValueId>], lens: &[usize]) -> Preference {
    let prefixes: Vec<Vec<ValueId>> = orders
        .iter()
        .zip(lens)
        .map(|(order, &len)| order[..len].to_vec())
        .collect();
    to_preference(&prefixes)
}

/// A mutation of the maintained structure: a fresh row, or the deletion of the `k`-th live row.
#[derive(Debug, Clone)]
enum Mutation {
    Insert([f64; 2], [ValueId; 2]),
    Delete(usize),
}

fn mutation_strategy() -> impl Strategy<Value = Vec<Mutation>> {
    let value = || 0..CARD as ValueId;
    proptest::collection::vec(
        prop_oneof![
            (0i32..5, 0i32..5, value(), value())
                .prop_map(|(x, y, g, h)| Mutation::Insert([x.into(), y.into()], [g, h])),
            (0usize..64).prop_map(Mutation::Delete),
        ],
        0..6,
    )
}

/// `AdaptiveSfs::query` ≡ `FullRescan` ≡ drained `query_scan` ≡ BNL over the live rows under
/// the reference dominance context; returns the default path's work.
fn assert_adaptive_paths_agree(asfs: &AdaptiveSfs, query: &Preference) -> skyline_core::Work {
    let ctx = DominanceContext::for_query(asfs.dataset(), asfs.template(), query).unwrap();
    let live: Vec<PointId> = asfs.point_block().live_ids().collect();
    let expected = bnl::skyline_of(&ctx, &live);
    let (answer, stats) = asfs
        .query_with_stats(query, ScanMode::AffectedOnly)
        .unwrap();
    prop_assert_eq!(&answer, &expected, "affected-only scan");
    let (full, full_stats) = asfs.query_with_stats(query, ScanMode::FullRescan).unwrap();
    prop_assert_eq!(&full, &expected, "full rescan");
    prop_assert_eq!(stats.affected, full_stats.affected);
    prop_assert!(stats.dominance_tests <= full_stats.dominance_tests);
    let mut streamed: Vec<PointId> = asfs
        .query_scan(query, ScanMode::default(), &mut QueryScratch::new())
        .unwrap()
        .collect();
    streamed.sort_unstable();
    prop_assert_eq!(&streamed, &expected, "drained progressive scan");
    stats
}

/// The lemma and the query paths resting on it, for one template/query pair.
fn assert_affect_lemma(
    data: &Dataset,
    template_pref: &Preference,
    query: &Preference,
    mutations: &[Mutation],
) {
    let schema = data.schema();
    let template = Template::from_preference(schema, template_pref.clone()).unwrap();
    prop_assert!(template.check_refinement(schema, query).is_ok());
    let newly_listed = |p: PointId| {
        (0..schema.nominal_count()).any(|j| {
            query.dim(j).choices()[template_pref.dim(j).order()..].contains(&data.nominal(p, j))
        })
    };

    // (i) Whatever dominates a member of SKY(R) under the refinement carries a newly listed
    // value.
    let template_ctx = DominanceContext::for_template(data, &template).unwrap();
    let query_ctx = DominanceContext::for_query(data, &template, query).unwrap();
    let template_skyline = bnl::skyline(&template_ctx);
    for &p in &template_skyline {
        for q in data.point_ids() {
            if query_ctx.dominates(q, p) {
                prop_assert!(
                    newly_listed(q),
                    "unaffected {q} dominates skyline member {p}"
                );
            }
        }
    }

    // (ii) Rows without a newly listed value score the same under template and query.
    let template_score = ScoreFn::for_preference(schema, template_pref).unwrap();
    let query_score = ScoreFn::for_preference(schema, query).unwrap();
    for p in data.point_ids().filter(|&p| !newly_listed(p)) {
        prop_assert_eq!(template_score.score(data, p), query_score.score(data, p));
    }

    // (iii) Every query path agrees with the oracle, also through mutations.
    let mut asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
    let stats = assert_adaptive_paths_agree(&asfs, query);
    let affected = template_skyline
        .iter()
        .filter(|&&p| newly_listed(p))
        .count();
    prop_assert_eq!(
        stats.affected,
        affected as u64,
        "AFFECT = members with a newly listed value"
    );

    // (iv) A query equal to the template is a copy of the stored skyline.
    let (same, stats) = asfs
        .query_with_stats(template_pref, ScanMode::AffectedOnly)
        .unwrap();
    prop_assert_eq!(&same, &asfs.template_skyline());
    prop_assert_eq!((stats.affected, stats.dominance_tests), (0, 0));

    for mutation in mutations {
        match *mutation {
            Mutation::Insert(numeric, nominal) => {
                asfs.insert_row(&numeric, &nominal).unwrap();
            }
            Mutation::Delete(k) => {
                let live: Vec<PointId> = asfs.point_block().live_ids().collect();
                if !live.is_empty() {
                    asfs.delete_row(live[k % live.len()]).unwrap();
                }
            }
        }
        assert_adaptive_paths_agree(&asfs, query);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn affect_lemma_newly_listed_values_are_all_a_query_touches(
        (numeric, nominal) in dataset_strategy(),
        (orders, template_len, query_len) in refinement_strategy(),
        mutations in mutation_strategy(),
    ) {
        let data = build(numeric, nominal);
        // Uneven prefix lengths in {0, 1, 2} per dimension, a random refinement of them …
        let template = prefix_preference(&orders, &template_len);
        let query = prefix_preference(&orders, &query_len);
        assert_affect_lemma(&data, &template, &query, &mutations);
        // … the template itself, a query listing every value of the first dimension …
        assert_affect_lemma(&data, &template, &template, &mutations);
        let every_value = prefix_preference(&orders, &[CARD, query_len[1]]);
        assert_affect_lemma(&data, &template, &every_value, &mutations);
        // … and an order-1 query over the empty template.
        let none = Preference::none(2);
        let order1 = prefix_preference(&orders, &[1, 1]);
        assert_affect_lemma(&data, &none, &order1, &mutations);
    }

    #[test]
    fn dominance_is_a_strict_partial_order(
        (numeric, nominal) in dataset_strategy(),
        choices in preference_strategy(),
    ) {
        let data = build(numeric, nominal);
        let template = Template::empty(data.schema());
        let pref = to_preference(&choices);
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        let points: Vec<PointId> = data.point_ids().collect();
        for &p in &points {
            // Irreflexive.
            prop_assert!(!ctx.dominates(p, p));
            for &q in &points {
                // Asymmetric.
                if ctx.dominates(p, q) {
                    prop_assert!(!ctx.dominates(q, p), "asymmetry violated for ({p}, {q})");
                }
                // Transitive.
                for &r in &points {
                    if ctx.dominates(p, q) && ctx.dominates(q, r) {
                        prop_assert!(ctx.dominates(p, r), "transitivity violated for ({p}, {q}, {r})");
                    }
                }
            }
        }
    }

    #[test]
    fn property1_containment_is_dimension_wise(choices in preference_strategy()) {
        // R ⊆ R'  iff  Rᵢ ⊆ R'ᵢ for every i — with R the prefix-truncated version of R'.
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal("g", NominalDomain::anonymous(CARD)),
            Dimension::nominal("h", NominalDomain::anonymous(CARD)),
        ])
        .unwrap();
        let full = to_preference(&choices);
        let truncated = Preference::from_dims(
            choices
                .iter()
                .map(|c| ImplicitPreference::new(c.iter().copied().take(1).collect::<Vec<_>>()).unwrap())
                .collect(),
        );
        prop_assert!(full.refines(&truncated));
        let full_orders = full.to_partial_orders(&schema).unwrap();
        let truncated_orders = truncated.to_partial_orders(&schema).unwrap();
        for (t, f) in truncated_orders.iter().zip(&full_orders) {
            prop_assert!(t.is_contained_in(f));
        }
    }

    #[test]
    fn theorem1_monotonicity(
        (numeric, nominal) in dataset_strategy(),
        choices in preference_strategy(),
        extra in proptest::collection::vec(0..(CARD as ValueId), 2),
    ) {
        let data = build(numeric, nominal);
        let template = Template::empty(data.schema());

        // R̃: the base preference; R̃′: a refinement obtained by appending one more value per
        // dimension (when it is not already listed).
        let base = to_preference(&choices);
        let mut refined_choices = choices.clone();
        for (j, &v) in extra.iter().enumerate() {
            if !refined_choices[j].contains(&v) {
                refined_choices[j].push(v);
            }
        }
        let refined = to_preference(&refined_choices);
        prop_assert!(refined.refines(&base));

        let base_ctx = DominanceContext::for_query(&data, &template, &base).unwrap();
        let refined_ctx = DominanceContext::for_query(&data, &template, &refined).unwrap();
        let base_sky = bnl::skyline(&base_ctx);
        let refined_sky = bnl::skyline(&refined_ctx);
        // Theorem 1: a point outside SKY(R̃) can never enter SKY(R̃′).
        for p in &refined_sky {
            prop_assert!(base_sky.contains(p), "point {p} gained skyline membership under a refinement");
        }
    }

    #[test]
    fn theorem2_merging_property(
        (numeric, nominal) in dataset_strategy(),
        other_dim_choice in proptest::sample::subsequence((0..CARD as ValueId).collect::<Vec<_>>(), 0..=2),
        split_values in proptest::sample::subsequence((0..CARD as ValueId).collect::<Vec<_>>(), 2..=CARD).prop_shuffle(),
    ) {
        let data = build(numeric, nominal);
        let template = Template::empty(data.schema());
        let x = split_values.len();

        // R̃′  : v₁ ≺ … ≺ v_{x-1} ≺ ∗ on dimension 0 (plus a fixed preference on dimension 1)
        // R̃″  : v_x ≺ ∗ on dimension 0 (same on dimension 1)
        // R̃‴  : v₁ ≺ … ≺ v_x ≺ ∗ on dimension 0 (same on dimension 1)
        let other = ImplicitPreference::new(other_dim_choice.clone()).unwrap();
        let r_prime = Preference::from_dims(vec![
            ImplicitPreference::new(split_values[..x - 1].to_vec()).unwrap(),
            other.clone(),
        ]);
        let r_double = Preference::from_dims(vec![
            ImplicitPreference::new(vec![split_values[x - 1]]).unwrap(),
            other.clone(),
        ]);
        let r_triple = Preference::from_dims(vec![
            ImplicitPreference::new(split_values.clone()).unwrap(),
            other,
        ]);

        let sky = |pref: &Preference| -> Vec<PointId> {
            let ctx = DominanceContext::for_query(&data, &template, pref).unwrap();
            bnl::skyline(&ctx)
        };
        let sky_prime = sky(&r_prime);
        let sky_double = sky(&r_double);
        let sky_triple = sky(&r_triple);

        // PSKY(R̃′): members of SKY(R̃′) whose dimension-0 value is among v₁ … v_{x-1}.
        let psky: Vec<PointId> = sky_prime
            .iter()
            .copied()
            .filter(|&p| split_values[..x - 1].contains(&data.nominal(p, 0)))
            .collect();
        let mut merged: Vec<PointId> =
            sky_prime.iter().copied().filter(|p| sky_double.contains(p)).collect();
        for p in psky {
            if !merged.contains(&p) {
                merged.push(p);
            }
        }
        merged.sort_unstable();
        prop_assert_eq!(merged, sky_triple);
    }
}
