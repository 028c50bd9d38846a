//! Sharded equivalence: a [`ShardedService`] answers every query with exactly the
//! same skyline (as a multiset of row *values*) as a single unsharded engine over the same
//! live rows — for every mutable engine configuration, any shard count from 1 to 8, and any
//! interleaving of inserts, deletes and generation rebuilds, checked after every update.
//!
//! The template is an input too: empty, or one listed value on `g`, which every query then
//! refines. Under a listed value a row on one shard can template-dominate a row on another
//! (`g` is also the partition dimension), so the global template skyline drops rows that
//! are in their own shard's template skyline; under the empty template it drops only rows
//! dominated across shards.
//!
//! Row ids are not comparable across shard counts (each shard numbers its own rows, and
//! compactions renumber them independently), but the skyline's value multiset is fully
//! determined by the live rows: two rows with identical values either both survive (neither
//! strictly dominates the other) or both fall to the same dominator.

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_service::{GlobalRowId, ShardPartition, ShardedConfig, ShardedService};
use std::sync::Arc;

mod common;
use common::template_and_refinement;

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
        1..16,
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

/// A row's identity across engines: its raw values (numeric bit patterns + nominal ids).
type ValueKey = (Vec<u64>, Vec<ValueId>);

fn value_key(data: &Dataset, p: PointId) -> ValueKey {
    let schema = data.schema();
    (
        (0..schema.numeric_count())
            .map(|j| data.numeric(p, j).to_bits())
            .collect(),
        (0..schema.nominal_count())
            .map(|j| data.nominal(p, j))
            .collect(),
    )
}

fn unsharded_values(engine: &SkylineEngine, pref: &Preference) -> Vec<ValueKey> {
    let mut values: Vec<ValueKey> = engine
        .query(pref)
        .unwrap()
        .skyline
        .iter()
        .map(|&p| value_key(engine.dataset(), p))
        .collect();
    values.sort();
    values
}

fn sharded_values(service: &ShardedService, pref: &Preference) -> Vec<ValueKey> {
    let served = service.serve(pref).unwrap();
    let mut values: Vec<ValueKey> = served
        .outcome
        .skyline
        .iter()
        .map(|g| value_key(service.shard(g.shard).read().dataset(), g.row))
        .collect();
    values.sort();
    values
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// The sharded service is observationally equal to the unsharded engine under churn.
    #[test]
    fn sharded_service_matches_unsharded_engine(
        initial in rows_strategy(),
        updates in proptest::collection::vec(update_strategy(), 0..20),
        shards in 1usize..=8,
        listed in proptest::option::of(0..CARD as ValueId),
        query_choices in proptest::sample::subsequence(
            (0..CARD as ValueId).collect::<Vec<_>>(), 0..=2
        ).prop_shuffle(),
    ) {
        let data = Arc::new(initial_dataset(&initial));
        let (template, pref) = template_and_refinement(data.schema(), listed, query_choices);
        let partition = ShardPartition::HashNominal { dim: 0 };

        for config in [EngineConfig::AdaptiveSfs, EngineConfig::Hybrid { top_k: 2 }] {
            let reference = SharedEngine::new(
                SkylineEngine::build(data.clone(), template.clone(), config).unwrap(),
            );
            let service = ShardedService::build(
                &data,
                template.clone(),
                config,
                ShardedConfig {
                    shards,
                    partition: partition.clone(),
                    workers: 2,
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            prop_assert_eq!(service.shard_count(), shards);

            // Logical rows in insertion order, each tracked under both id spaces
            // (None = deleted, or reclaimed by a compaction).
            let mut rows: Vec<(Option<PointId>, Option<GlobalRowId>)> =
                ShardedService::partition_rows(&partition, shards, &data)
                    .into_iter()
                    .enumerate()
                    .map(|(p, g)| (Some(p as PointId), Some(g)))
                    .collect();

            for update in &updates {
                match update {
                    Update::Insert { numeric, nominal } => {
                        reference.write().insert_row(numeric, nominal).unwrap();
                        let row = (reference.read().dataset().len() - 1) as PointId;
                        let global = service.insert_row(numeric, nominal).unwrap();
                        rows.push((Some(row), Some(global)));
                    }
                    Update::Delete { index } => {
                        let target = index % rows.len();
                        if let (Some(p), Some(g)) = rows[target] {
                            // delete_row returns the (possibly moved) epoch; both sides
                            // must agree on whether the target was still live.
                            let before = reference.read().epoch();
                            let after = reference.write().delete_row(p).unwrap();
                            let sharded_live = service.delete_row(g).unwrap();
                            prop_assert_eq!(after != before, sharded_live);
                            rows[target] = (None, None);
                        }
                    }
                    Update::Rebuild => {
                        let remap = reference.rebuild_now().unwrap().unwrap();
                        for (p, _) in rows.iter_mut() {
                            *p = p.and_then(|old| remap.new_id(old));
                        }
                        for s in 0..service.shard_count() {
                            let remap = service.force_rebuild_shard(s).unwrap();
                            prop_assert!(remap.is_some());
                            let remap = remap.unwrap();
                            for (_, g) in rows.iter_mut() {
                                *g = g.and_then(|old| {
                                    if old.shard != s {
                                        return Some(old);
                                    }
                                    remap.new_id(old.row).map(|row| GlobalRowId { shard: s, row })
                                });
                            }
                        }
                    }
                }
                // Equivalence holds after every update, not just at the end.
                prop_assert_eq!(
                    sharded_values(&service, &pref),
                    unsharded_values(&reference.read(), &pref),
                    "divergence after {:?}, config {:?}",
                    update,
                    config
                );
            }

            let expected = unsharded_values(&reference.read(), &pref);
            prop_assert_eq!(
                sharded_values(&service, &pref),
                expected.clone(),
                "config {:?} shards {} partition {:?}",
                config,
                shards,
                &partition
            );
            // Serving again hits the epoch-vector cache and answers identically.
            let again = service.serve(&pref).unwrap();
            prop_assert!(again.cache_hit);
            prop_assert_eq!(sharded_values(&service, &pref), expected);
            // No rows were lost to the bookkeeping: live counts agree.
            prop_assert_eq!(service.live_rows(), reference.read().live_rows());
        }
    }
}
