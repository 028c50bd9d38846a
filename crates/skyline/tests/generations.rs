//! The generational lifecycle: physical compaction with row-id remapping and background IPO
//! re-materialization.
//!
//! * Property: any interleaving of inserts, deletes and generation rebuilds produces
//!   skylines bit-for-bit equal to a from-scratch computation over the live rows, for every
//!   mutable configuration — and after every rebuild the dataset holds only live rows.
//! * Replay: mutations arriving between `begin_rebuild` and `install_generation` land in the
//!   installed generation, with the returned remap covering them.
//! * Concurrency: queries issued while generation swaps race them never observe a torn or
//!   stale-epoch result.

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
    /// A full generation rebuild through the same snapshot → build → install cycle the
    /// background worker drives (run synchronously here for determinism).
    Rebuild,
}

fn update_strategy() -> impl Strategy<Value = Update> {
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
        Just(Update::Rebuild),
    ]
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

/// Brute-force skyline over the engine's live rows, in the engine's *current* id space.
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
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Every configuration: after any interleaving of inserts, deletes and generation
    /// rebuilds, answers equal a from-scratch computation over the live rows, rebuilds leave
    /// only live rows in the dataset, and the returned remap translates the pre-swap skyline
    /// onto the post-swap one.
    #[test]
    fn rebuilt_engines_match_from_scratch_for_every_mutable_config(
        initial in rows_strategy(),
        updates in proptest::collection::vec(update_strategy(), 0..25),
        query_choices in proptest::sample::subsequence((0..CARD as ValueId).collect::<Vec<_>>(), 0..=2).prop_shuffle(),
    ) {
        let data = Arc::new(initial_dataset(&initial));
        let template = Template::empty(data.schema());
        let pref = Preference::from_dims(vec![ImplicitPreference::new(query_choices).unwrap()]);

        for config in [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: usize::MAX },
            EngineConfig::Hybrid { top_k: 2 },
        ] {
            let shared = SharedEngine::new(
                SkylineEngine::build(data.clone(), template.clone(), config).unwrap(),
            );
            let mut rebuilds = 0u64;
            for update in &updates {
                match update {
                    Update::Insert { numeric, nominal } => {
                        shared.write().insert_row(numeric, nominal).unwrap();
                    }
                    Update::Delete { index } => {
                        let target = {
                            let engine = shared.read();
                            (index % engine.dataset().len()) as PointId
                        };
                        shared.write().delete_row(target).unwrap();
                    }
                    Update::Rebuild => {
                        let before = {
                            let engine = shared.read();
                            (engine.skyline_epoch(), engine.query(&pref).unwrap().skyline)
                        };
                        let remap = shared.rebuild_now().unwrap().unwrap();
                        rebuilds += 1;
                        let engine = shared.read();
                        // The installed epoch is both the dataset's and the skyline's, and
                        // moves past the skyline epoch the swap replaced.
                        prop_assert_eq!(engine.skyline_epoch(), engine.epoch());
                        prop_assert!(engine.skyline_epoch() > before.0);
                        // Acceptance criterion: only live rows remain, physically.
                        let data = engine.dataset();
                        prop_assert_eq!(data.live_ids().count(), data.len());
                        prop_assert_eq!(data.live_count(), data.len());
                        // The pre-swap answer translates onto the post-swap answer.
                        let renumbered = remap.translate_ids(&before.1).unwrap();
                        prop_assert_eq!(renumbered, engine.query(&pref).unwrap().skyline);
                        prop_assert_eq!(engine.generation().id(), rebuilds);
                    }
                }
            }
            let engine = shared.read();
            prop_assert_eq!(engine.rebuilds(), rebuilds);
            let expected = live_oracle(&engine, &pref);
            prop_assert_eq!(
                engine.query(&pref).unwrap().skyline,
                expected,
                "config {:?}",
                config
            );
            // The maintained template skyline (when there is one) equals a rebuild.
            if let Some(asfs) = engine.adaptive() {
                let ctx =
                    DominanceContext::for_template(engine.dataset(), engine.template()).unwrap();
                let live: Vec<PointId> = engine
                    .dataset()
                    .point_ids()
                    .filter(|&p| engine.is_row_live(p))
                    .collect();
                prop_assert_eq!(asfs.template_skyline(), bnl::skyline_of(&ctx, &live));
            }
        }
    }

    /// Mutations that land between the snapshot and the install are replayed onto the new
    /// generation: the installed state is identical to having applied them directly.
    #[test]
    fn mid_build_mutations_are_replayed_before_the_swap(
        initial in rows_strategy(),
        mid in proptest::collection::vec(update_strategy(), 1..10),
    ) {
        let data = Arc::new(initial_dataset(&initial));
        let template = Template::empty(data.schema());
        let pref = Preference::from_dims(vec![ImplicitPreference::new([0]).unwrap()]);

        for config in [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: 2 },
        ] {
            let mut engine =
                SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            // Accumulate some dead rows so the compaction actually renumbers.
            engine.delete_row(0).unwrap();

            let snapshot = engine.begin_rebuild().unwrap();
            prop_assert!(engine.rebuild_in_flight());
            // Mutations arrive "mid-build" (the build below uses the snapshot, not these).
            for update in &mid {
                match update {
                    Update::Insert { numeric, nominal } => {
                        engine.insert_row(numeric, nominal).unwrap();
                    }
                    Update::Delete { index } => {
                        let target = (index % engine.dataset().len()) as PointId;
                        engine.delete_row(target).unwrap();
                    }
                    Update::Rebuild => {} // one rebuild is already in flight
                }
            }
            let pre_swap = (engine.skyline_epoch(), engine.query(&pref).unwrap().skyline);
            let pending = snapshot.build_next().unwrap();
            let remap = engine.install_generation(pending).unwrap();
            prop_assert!(!engine.rebuild_in_flight());

            // The replay preserved the answer (modulo renumbering) …
            let renumbered = remap.translate_ids(&pre_swap.1).unwrap();
            prop_assert_eq!(&renumbered, &engine.query(&pref).unwrap().skyline);
            // … and the final state equals the from-scratch oracle over the live rows.
            prop_assert_eq!(engine.query(&pref).unwrap().skyline, live_oracle(&engine, &pref));
            prop_assert!(engine.epoch() > pre_swap.0);
        }
    }
}

/// A mutated hybrid engine serves from its Adaptive-SFS fallback until a generation rebuild
/// re-materializes the tree — after which servable queries are tree-served again (asserted
/// via engine introspection, not timing).
#[test]
fn hybrid_recovers_tree_served_queries_after_a_rebuild() {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::nominal("g", NominalDomain::anonymous(3)),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema.clone());
    for (x, g) in [(3.0, 0), (2.0, 1), (1.0, 2), (5.0, 0), (4.0, 1)] {
        data.push_row_ids(&[x], &[g]).unwrap();
    }
    let template = Template::empty(&schema);
    let shared = SharedEngine::new(
        SkylineEngine::build(Arc::new(data), template, EngineConfig::Hybrid { top_k: 3 }).unwrap(),
    );
    let pref = Preference::from_dims(vec![ImplicitPreference::new([0]).unwrap()]);

    // Fresh: tree-served.
    {
        let engine = shared.read();
        assert!(engine.serves_from_tree(&pref));
        assert_eq!(engine.query(&pref).unwrap().method, MethodUsed::IpoTree);
    }
    // Mutated: the stale tree must not answer; the fallback does.
    shared.write().insert_row(&[0.5], &[0]).unwrap();
    shared.write().delete_row(3).unwrap();
    {
        let engine = shared.read();
        assert!(!engine.serves_from_tree(&pref));
        let outcome = engine.query(&pref).unwrap();
        assert_eq!(outcome.method, MethodUsed::AdaptiveSfs);
        assert_eq!(outcome.skyline, live_oracle(&engine, &pref));
    }
    // Rebuilt: the re-materialized tree serves again, over the compacted id space.
    shared.rebuild_now().unwrap();
    {
        let engine = shared.read();
        assert!(engine.serves_from_tree(&pref), "tree must be current again");
        assert_eq!(engine.generation().tree_epoch(), engine.epoch());
        let outcome = engine.query(&pref).unwrap();
        assert_eq!(outcome.method, MethodUsed::IpoTree);
        assert_eq!(outcome.skyline, live_oracle(&engine, &pref));
        let data = engine.dataset();
        assert_eq!(data.len(), data.live_count());
    }
    // The *next* mutation stales the new tree too — the lifecycle is repeatable.
    shared.write().insert_row(&[0.1], &[1]).unwrap();
    assert!(!shared.read().serves_from_tree(&pref));
    shared.rebuild_now().unwrap();
    assert!(shared.read().serves_from_tree(&pref));
    assert_eq!(shared.read().rebuilds(), 2);
}

/// One rebuild at a time: a second `begin_rebuild` is rejected while one is in flight, and a
/// pending generation whose rebuild was aborted does not install.
#[test]
fn a_second_begin_and_an_unarmed_install_are_rejected() {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::nominal("g", NominalDomain::anonymous(2)),
    ])
    .unwrap();
    let data = Arc::new(
        Dataset::from_columns(schema.clone(), vec![vec![1.0, 2.0]], vec![vec![0, 1]]).unwrap(),
    );
    let template = Template::empty(&schema);
    let mut engine =
        SkylineEngine::build(data.clone(), template.clone(), EngineConfig::AdaptiveSfs).unwrap();
    let snapshot = engine.begin_rebuild().unwrap();
    assert!(engine.begin_rebuild().is_err());
    let pending = snapshot.build_next().unwrap();
    engine.install_generation(pending).unwrap();
    // Installing again without a new begin fails and leaves the engine serving.
    let snapshot = engine.begin_rebuild().unwrap();
    let pending = snapshot.build_next().unwrap();
    engine.abort_rebuild();
    assert!(engine.install_generation(pending).is_err());
    assert_eq!(engine.live_rows(), 2);
}

/// A pending generation built from an aborted (or otherwise superseded) snapshot must never
/// install: it would silently drop mutations and move the epoch backwards.
#[test]
fn stale_pending_generations_are_rejected_and_leave_the_armed_rebuild_intact() {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::nominal("g", NominalDomain::anonymous(2)),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema.clone());
    for (x, g) in [(1.0, 0), (2.0, 1), (3.0, 0)] {
        data.push_row_ids(&[x], &[g]).unwrap();
    }
    let template = Template::empty(&schema);
    let mut engine =
        SkylineEngine::build(Arc::new(data), template, EngineConfig::AdaptiveSfs).unwrap();

    // Build a pending from snapshot #1, then abort and mutate (the pending goes stale).
    let snapshot = engine.begin_rebuild().unwrap();
    let stale_pending = snapshot.build_next().unwrap();
    engine.abort_rebuild();
    engine.insert_row(&[0.5], &[0]).unwrap();
    engine.insert_row(&[0.25], &[1]).unwrap();
    let epoch_before = engine.epoch();

    // Arm a *new* rebuild, then try to install the stale pending: rejected, and the armed
    // rebuild (including its mutation recording) survives the rejection.
    let fresh_snapshot = engine.begin_rebuild().unwrap();
    assert!(engine.install_generation(stale_pending).is_err());
    assert!(
        engine.rebuild_in_flight(),
        "rejection must not disarm the log"
    );
    assert_eq!(engine.epoch(), epoch_before, "nothing was swapped");
    assert_eq!(engine.generation().id(), 0);

    // The armed rebuild still completes, replaying the mutation recorded after arming.
    engine.insert_row(&[0.1], &[0]).unwrap();
    let pending = fresh_snapshot.build_next().unwrap();
    engine.install_generation(pending).unwrap();
    assert_eq!(engine.generation().id(), 1);
    assert_eq!(engine.live_rows(), 6, "no mutation was lost");
    let pref = Preference::none(1);
    assert_eq!(
        engine.query(&pref).unwrap().skyline,
        live_oracle(&engine, &pref)
    );
}

/// A swap counts one rebuild and reclaims only the rows dead at the snapshot: mutations
/// replayed at install time, deletes among them, are not counted again.
#[test]
fn replayed_mutations_are_counted_once_in_maintenance_stats() {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::nominal("g", NominalDomain::anonymous(2)),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema.clone());
    for (x, g) in [(1.0, 0), (2.0, 1), (3.0, 0), (4.0, 1)] {
        data.push_row_ids(&[x], &[g]).unwrap();
    }
    let template = Template::empty(&schema);
    for config in [
        EngineConfig::AdaptiveSfs,
        EngineConfig::Hybrid { top_k: 2 },
        EngineConfig::SfsD,
    ] {
        let mut engine =
            SkylineEngine::build(Arc::new(data.clone()), template.clone(), config).unwrap();
        // 1 insert + 1 delete before the rebuild, 2 inserts + 1 delete mid-build.
        engine.insert_row(&[5.0], &[0]).unwrap();
        engine.delete_row(0).unwrap();
        let snapshot = engine.begin_rebuild().unwrap();
        engine.insert_row(&[6.0], &[1]).unwrap();
        engine.insert_row(&[7.0], &[0]).unwrap();
        engine.delete_row(1).unwrap();
        let pending = snapshot.build_next().unwrap();
        engine.install_generation(pending).unwrap();

        assert_eq!(engine.rebuilds(), 1, "config {config:?}");
        assert_eq!(
            engine.reclaimed_rows(),
            1,
            "only the pre-snapshot tombstone"
        );
        // And the installed state is still exactly the live rows.
        let pref = Preference::none(1);
        assert_eq!(
            engine.query(&pref).unwrap().skyline,
            live_oracle(&engine, &pref),
            "config {config:?}"
        );
    }
}

/// Queries racing generation swaps never observe a torn or stale-epoch result.
///
/// The writer inserts dominated rows (never skyline members) and deletes them again, with
/// rebuilds interleaved, so the skyline's *values* are invariant throughout while row ids
/// renumber under the readers. Every read validates its own epoch via `query_streaming_at`
/// under one read guard and checks the returned rows' values against the invariant.
#[test]
fn queries_during_swaps_are_never_torn_or_stale() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::nominal("g", NominalDomain::anonymous(3)),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema.clone());
    // Per nominal value, the minimal-x row is the unique skyline member under no preference.
    for (x, g) in [(1.0, 0), (2.0, 1), (3.0, 2), (7.0, 0), (8.0, 1), (9.0, 2)] {
        data.push_row_ids(&[x], &[g]).unwrap();
    }
    let template = Template::empty(&schema);
    let shared = SharedEngine::new(
        SkylineEngine::build(Arc::new(data), template, EngineConfig::Hybrid { top_k: 3 }).unwrap(),
    );
    let pref = Preference::none(1);
    // The invariant: the skyline is always the three minimal rows, by value.
    let expected: Vec<(i64, ValueId)> = vec![(1, 0), (2, 1), (3, 2)];

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let shared_ref = &shared;
        let done_ref = &done;
        let expected_ref = &expected;
        let pref_ref = &pref;
        for _ in 0..3 {
            scope.spawn(move || {
                while !done_ref.load(Ordering::Relaxed) {
                    let engine = shared_ref.read();
                    let epoch = engine.epoch();
                    // Never EpochMismatch: epoch and query run under one guard.
                    let outcome = engine
                        .query_streaming_at(pref_ref, epoch, Deadline::none())
                        .and_then(EngineStream::collect_outcome)
                        .unwrap();
                    let mut values: Vec<(i64, ValueId)> = outcome
                        .skyline
                        .iter()
                        .map(|&p| {
                            assert!(engine.is_row_live(p), "torn result: dead row {p} served");
                            (
                                engine.dataset().numeric(p, 0) as i64,
                                engine.dataset().nominal(p, 0),
                            )
                        })
                        .collect();
                    values.sort_unstable();
                    assert_eq!(&values, expected_ref, "torn result at {epoch}");
                }
            });
        }
        // Writer: churn dominated rows and rebuild generations under the readers.
        for round in 0..60 {
            shared
                .write()
                .insert_row(&[50.0 + round as f64], &[(round % 3) as ValueId])
                .unwrap();
            let last = (shared.read().dataset().len() - 1) as PointId;
            shared.write().delete_row(last).unwrap();
            if round % 5 == 0 {
                shared.rebuild_now().unwrap();
            }
        }
        // One closing rebuild reclaims the tombstones of the final rounds.
        shared.rebuild_now().unwrap();
        done.store(true, Ordering::Relaxed);
    });

    let engine = shared.read();
    assert!(engine.rebuilds() >= 13);
    assert_eq!(
        engine.dataset().len(),
        6,
        "every dominated row was reclaimed"
    );
}
