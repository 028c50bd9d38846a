//! Integration tests of the hybrid strategy recommended in Section 5.3: "A hybrid approach
//! adopting IPO Tree for popular values and SFS-A for handling queries involving the remaining
//! values is a sound solution."

use skyline::datagen::workload::top_k_values;
use skyline::prelude::*;
use skyline_core::algo::bnl;
use std::sync::Arc;

/// A Zipf-skewed synthetic workload (popular values exist, so the truncated tree makes sense).
fn synthetic() -> (Arc<Dataset>, Template) {
    let config = ExperimentConfig {
        n: 1_500,
        numeric_dims: 2,
        nominal_dims: 2,
        cardinality: 8,
        theta: 1.0,
        pref_order: 2,
        distribution: Distribution::AntiCorrelated,
        seed: 7,
    };
    let data = config.generate_dataset();
    let template = config.template(&data);
    (Arc::new(data), template)
}

#[test]
fn hybrid_answers_every_query_correctly_and_uses_both_paths() {
    let (data, template) = synthetic();
    let engine = SkylineEngine::build(
        data.clone(),
        template.clone(),
        EngineConfig::Hybrid { top_k: 3 },
    )
    .unwrap();

    let mut generator = QueryGenerator::new(11);
    let mut used_tree = 0;
    let mut used_fallback = 0;
    for i in 0..60 {
        // Alternate between queries restricted to popular values and unrestricted ones.
        let allowed = top_k_values(&data, 3);
        let pref = if i % 2 == 0 {
            generator.random_preference(data.schema(), &template, 2, Some(&allowed))
        } else {
            generator.random_preference(data.schema(), &template, 3, None)
        };
        let outcome = engine.query(&pref).unwrap();
        match outcome.method {
            MethodUsed::IpoTree => used_tree += 1,
            MethodUsed::AdaptiveSfs => used_fallback += 1,
            MethodUsed::SfsD => panic!("hybrid never falls back to SFS-D"),
        }
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        assert_eq!(outcome.skyline, bnl::skyline(&ctx), "query {i}");
    }
    assert!(used_tree > 0, "the materialized tree was never used");
    assert!(
        used_fallback > 0,
        "the Adaptive SFS fallback was never used"
    );
}

#[test]
fn hybrid_matches_the_dedicated_engines() {
    let (data, template) = synthetic();
    let hybrid = SkylineEngine::build(
        data.clone(),
        template.clone(),
        EngineConfig::Hybrid { top_k: 4 },
    )
    .unwrap();
    let full_tree = SkylineEngine::build(
        data.clone(),
        template.clone(),
        EngineConfig::Hybrid { top_k: usize::MAX },
    )
    .unwrap();
    let adaptive =
        SkylineEngine::build(data.clone(), template.clone(), EngineConfig::AdaptiveSfs).unwrap();

    let mut generator = QueryGenerator::new(23);
    for _ in 0..30 {
        let pref = generator.random_preference(data.schema(), &template, 3, None);
        let expected = adaptive.query(&pref).unwrap().skyline;
        assert_eq!(hybrid.query(&pref).unwrap().skyline, expected);
        let from_tree = full_tree.query(&pref).unwrap();
        assert_eq!(from_tree.method, MethodUsed::IpoTree);
        assert_eq!(from_tree.skyline, expected);
    }
}

#[test]
fn truncated_tree_is_smaller_than_the_full_tree() {
    let (data, template) = synthetic();
    let full = IpoTreeBuilder::new().build(&data, &template).unwrap();
    let truncated = IpoTreeBuilder::new()
        .top_k_values(3)
        .build(&data, &template)
        .unwrap();
    assert!(truncated.node_count() < full.node_count());
    let full_storage = skyline::ipo::storage::ipo_tree_storage(&full);
    let truncated_storage = skyline::ipo::storage::ipo_tree_storage(&truncated);
    assert!(truncated_storage.total_bytes() < full_storage.total_bytes());
    // Both answer popular-value queries identically.
    let mut generator = QueryGenerator::new(5);
    let allowed = top_k_values(&data, 3);
    for _ in 0..20 {
        let pref = generator.random_preference(data.schema(), &template, 2, Some(&allowed));
        assert_eq!(
            truncated.query(&data, &pref).unwrap(),
            full.query(&data, &pref).unwrap()
        );
    }
}

/// The tree answers from `SKY(R)` as it was materialized, and every refinement's answer lies
/// in `SKY(R)`: a write that leaves the template skyline unchanged keeps the tree serving, a
/// write that changes it sends the same preference to the Adaptive-SFS fallback.
#[test]
fn the_tree_serves_until_the_template_skyline_changes() {
    let (data, template) = synthetic();
    let mut engine = SkylineEngine::build(
        data.clone(),
        template.clone(),
        EngineConfig::Hybrid { top_k: 3 },
    )
    .unwrap();
    let allowed = top_k_values(&data, 3);
    let mut generator = QueryGenerator::new(31);
    let pref = std::iter::repeat_with(|| {
        generator.random_preference(data.schema(), &template, 2, Some(&allowed))
    })
    .find(|pref| engine.serves_from_tree(pref))
    .unwrap();
    let bnl_answer = |engine: &SkylineEngine| {
        let ctx = DominanceContext::for_query(engine.dataset(), &template, &pref).unwrap();
        bnl::skyline(&ctx)
    };

    // Row 0's nominal values with numerics above every row's: row 0 dominates it.
    let nominal: Vec<ValueId> = data.nominal_row(0).to_vec();
    let skyline_epoch = engine.skyline_epoch();
    engine.insert_row(&[2.0, 2.0], &nominal).unwrap();
    assert_eq!(engine.skyline_epoch(), skyline_epoch);
    assert!(engine.epoch() > skyline_epoch);
    let outcome = engine.query(&pref).unwrap();
    assert_eq!(outcome.method, MethodUsed::IpoTree);
    assert_eq!(outcome.skyline, bnl_answer(&engine));

    // Numerics below every row's: the row joins the template skyline.
    engine.insert_row(&[-1.0, -1.0], &nominal).unwrap();
    assert_eq!(engine.skyline_epoch(), engine.epoch());
    let outcome = engine.query(&pref).unwrap();
    assert_eq!(outcome.method, MethodUsed::AdaptiveSfs);
    assert_eq!(outcome.skyline, bnl_answer(&engine));
}
