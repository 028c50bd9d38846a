//! Property-based tests of incremental maintenance (Section 4.3), now at the engine level:
//! after any interleaved sequence of row insertions and logical deletions, every
//! engine configuration answers queries exactly like a from-scratch computation over the
//! live rows — and the dominance-region-restricted delete path is equivalent to the full
//! rescan.

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_core::algo::bnl;
use skyline_core::Deadline;
use std::sync::Arc;

const CARD: usize = 3;

#[derive(Debug, Clone)]
enum Update {
    Insert {
        numeric: Vec<f64>,
        nominal: Vec<ValueId>,
    },
    Delete {
        index: usize,
    },
}

fn update_strategy() -> impl Strategy<Value = Update> {
    // The vendored proptest shim's `prop_oneof!` is unweighted: the two delete arms make
    // deletes twice as common as inserts, the second one aiming at the lower row ids.
    prop_oneof![
        (
            proptest::collection::vec(0i32..6, 2),
            proptest::collection::vec(0..(CARD as ValueId), 1),
        )
            .prop_map(|(n, c)| Update::Insert {
                numeric: n.into_iter().map(f64::from).collect(),
                nominal: c,
            }),
        (0usize..64).prop_map(|index| Update::Delete { index }),
        (0usize..64).prop_map(|index| Update::Delete { index: index / 2 }),
    ]
}

fn initial_dataset(rows: &[(Vec<f64>, Vec<ValueId>)]) -> Dataset {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::numeric("y"),
        Dimension::nominal("g", NominalDomain::anonymous(CARD)),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema);
    for (numeric, nominal) in rows {
        data.push_row_ids(numeric, nominal).unwrap();
    }
    data
}

type Rows = Vec<(Vec<f64>, Vec<ValueId>)>;

fn rows_strategy() -> impl Strategy<Value = Rows> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0i32..6, 2)
                .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>()),
            proptest::collection::vec(0..(CARD as ValueId), 1),
        ),
        1..20,
    )
}

/// Brute-force skyline over the engine's live rows.
fn live_oracle(engine: &SkylineEngine, pref: &Preference) -> Vec<PointId> {
    let ctx = DominanceContext::for_query(engine.dataset(), engine.template(), pref).unwrap();
    let live: Vec<PointId> = engine
        .dataset()
        .point_ids()
        .filter(|&p| engine.is_row_live(p))
        .collect();
    bnl::skyline_of(&ctx, &live)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Mutable configurations: maintained answers equal a from-scratch rebuild after every
    /// interleaving of inserts and deletes.
    #[test]
    fn mutated_engines_match_rebuild_for_every_mutable_config(
        initial in rows_strategy(),
        updates in proptest::collection::vec(update_strategy(), 0..25),
        query_choices in proptest::sample::subsequence((0..CARD as ValueId).collect::<Vec<_>>(), 0..=2).prop_shuffle(),
    ) {
        let data = initial_dataset(&initial);
        let template = Template::empty(data.schema());
        let data = Arc::new(data);
        let pref = Preference::from_dims(vec![ImplicitPreference::new(query_choices).unwrap()]);

        for config in [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: usize::MAX },
            EngineConfig::Hybrid { top_k: 2 },
        ] {
            let mut engine =
                SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            let mut epoch = engine.epoch();
            prop_assert_eq!(epoch, DatasetEpoch::INITIAL);

            for update in &updates {
                match update {
                    Update::Insert { numeric, nominal } => {
                        let next = engine.insert_row(numeric, nominal).unwrap();
                        prop_assert!(next > epoch, "inserts must bump the epoch");
                        epoch = next;
                    }
                    Update::Delete { index } => {
                        let total = engine.dataset().len();
                        let target = (index % total) as PointId;
                        let was_live = engine.is_row_live(target);
                        let next = engine.delete_row(target).unwrap();
                        prop_assert_eq!(
                            next > epoch,
                            was_live,
                            "exactly the live deletes bump the epoch"
                        );
                        epoch = next;
                    }
                }
            }

            // The engine's answers equal the brute-force skyline over the live rows.
            let expected = live_oracle(&engine, &pref);
            prop_assert_eq!(
                engine.query(&pref).unwrap().skyline,
                expected,
                "config {:?}",
                config
            );
            // And the maintained template skyline (when there is one) equals a rebuild.
            if let Some(asfs) = engine.adaptive() {
                let ctx = DominanceContext::for_template(
                    engine.dataset(),
                    engine.template(),
                ).unwrap();
                let live: Vec<PointId> = engine
                    .dataset()
                    .point_ids()
                    .filter(|&p| engine.is_row_live(p))
                    .collect();
                prop_assert_eq!(asfs.template_skyline(), bnl::skyline_of(&ctx, &live));
            }
            // query_streaming_at: the current epoch is accepted, a stale one is rejected.
            prop_assert!(engine
                .query_streaming_at(&pref, engine.epoch(), Deadline::none())
                .is_ok());
            engine.insert_row(&[0.0, 0.0], &[0]).unwrap();
            prop_assert!(matches!(
                engine.query_streaming_at(&pref, epoch, Deadline::none()),
                Err(SkylineError::EpochMismatch { .. })
            ));
        }
    }

    /// The dominance-region-restricted delete path is exactly equivalent to the full live
    /// rescan, and never tests more resurface candidates.
    #[test]
    fn restricted_delete_equals_full_rescan(
        initial in rows_strategy(),
        updates in proptest::collection::vec(update_strategy(), 0..25),
    ) {
        let data = initial_dataset(&initial);
        let template = Template::empty(data.schema());
        let mut restricted = AdaptiveSfs::build(data, &template).unwrap();
        let mut full = restricted.clone();

        for update in &updates {
            match update {
                Update::Insert { numeric, nominal } => {
                    restricted.insert_row(numeric, nominal).unwrap();
                    full.insert_row(numeric, nominal).unwrap();
                }
                Update::Delete { index } => {
                    let target = (index % restricted.dataset().len()) as PointId;
                    let a = restricted.delete_row(target).unwrap();
                    let b = full.delete_row_rescan_all(target).unwrap();
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(restricted.template_skyline(), full.template_skyline());
        }
        prop_assert!(
            restricted.maintenance_stats().resurface_candidates
                <= full.maintenance_stats().resurface_candidates,
            "restricted path tested {} candidates, full path {}",
            restricted.maintenance_stats().resurface_candidates,
            full.maintenance_stats().resurface_candidates,
        );
    }
}

/// The hybrid engine never answers from its stale tree after a mutation: every preference —
/// including ones the tree fully materializes — routes to the maintained Adaptive-SFS side
/// and matches the oracle.
#[test]
fn hybrid_engine_abandons_stale_tree_after_mutation() {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::nominal("g", NominalDomain::anonymous(3)),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema.clone());
    for (x, g) in [(3.0, 0), (2.0, 1), (1.0, 2), (5.0, 0)] {
        data.push_row_ids(&[x], &[g]).unwrap();
    }
    let template = Template::empty(&schema);
    let mut engine =
        SkylineEngine::build(data, template, EngineConfig::Hybrid { top_k: 3 }).unwrap();
    let pref = Preference::from_dims(vec![ImplicitPreference::new([0]).unwrap()]);

    // Fresh engine: the fully materialized preference is answered by the tree.
    assert_eq!(engine.query(&pref).unwrap().method, MethodUsed::IpoTree);

    // Insert a row that changes this very answer: value 0 with the global minimum x.
    engine.insert_row(&[0.0], &[0]).unwrap();
    let outcome = engine.query(&pref).unwrap();
    assert_eq!(
        outcome.method,
        MethodUsed::AdaptiveSfs,
        "a stale tree must never answer"
    );
    assert_eq!(outcome.skyline, live_oracle(&engine, &pref));

    // Deletes reroute too, and answers track the shrinking live set.
    engine.delete_row(4).unwrap();
    let outcome = engine.query(&pref).unwrap();
    assert_eq!(outcome.method, MethodUsed::AdaptiveSfs);
    assert_eq!(outcome.skyline, live_oracle(&engine, &pref));
}

/// The tree-drift regression: churn that pushes a materialized value out of the top k used to
/// re-materialize a different value set on rebuild, so preferences previously served from the
/// tree silently regressed to the Adaptive-SFS fallback forever. With hysteresis the value is
/// retained until it falls *well* out of the top k.
#[test]
fn rebuilt_truncated_tree_keeps_serving_churned_preferences() {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::nominal("g", NominalDomain::anonymous(CARD)),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema.clone());
    // Value 0 is the clear top-1: frequencies 0 → 3, 1 → 2, 2 → 1.
    for (x, g) in [(3.0, 0), (4.0, 0), (5.0, 0), (2.0, 1), (6.0, 1), (1.0, 2)] {
        data.push_row_ids(&[x], &[g]).unwrap();
    }
    let template = Template::empty(&schema);
    let engine = SharedEngine::new(
        SkylineEngine::build(Arc::new(data), template, EngineConfig::Hybrid { top_k: 1 }).unwrap(),
    );
    let pref = Preference::from_dims(vec![ImplicitPreference::first_order(0)]);
    assert!(engine.read().serves_from_tree(&pref));
    assert_eq!(
        engine.read().query(&pref).unwrap().method,
        MethodUsed::IpoTree
    );

    // Churn: value 1 overtakes value 0 (frequencies 1 → 4, 0 → 3) and the rebuild
    // re-materializes. Value 0 is now rank 2 — inside the 2k hysteresis window — so the
    // rebuilt tree keeps it and the preference stays on the tree path.
    for x in [7.0, 8.0] {
        engine.write().insert_row(&[x], &[1]).unwrap();
    }
    engine.rebuild_now().unwrap();
    assert!(
        engine.read().serves_from_tree(&pref),
        "a displaced-but-close value must stay materialized across the rebuild"
    );
    let outcome = engine.read().query(&pref).unwrap();
    assert_eq!(outcome.method, MethodUsed::IpoTree);
    assert_eq!(outcome.skyline, live_oracle(&engine.read(), &pref));

    // Heavier churn: value 2 overtakes too (2 → 5), pushing value 0 to rank 3 — outside the
    // window. The rebuild demotes it and the engine falls back, still correctly.
    for x in [9.0, 10.0, 11.0, 12.0] {
        engine.write().insert_row(&[x], &[2]).unwrap();
    }
    engine.rebuild_now().unwrap();
    assert!(!engine.read().serves_from_tree(&pref));
    let outcome = engine.read().query(&pref).unwrap();
    assert_eq!(outcome.method, MethodUsed::AdaptiveSfs);
    assert_eq!(outcome.skyline, live_oracle(&engine.read(), &pref));
}
