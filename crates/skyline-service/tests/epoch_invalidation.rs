//! Regression suite for the dynamic-dataset service: a mutated shard must never serve a
//! stale cached skyline. On the pre-epoch cache (entries not tagged with a [`DatasetEpoch`])
//! these tests fail — the second serve after a mutation replays the memoized pre-mutation
//! answer; with epoch-tagged entries the mutation atomically invalidates the cached state and
//! every answer matches a from-scratch computation over the live rows — at one shard (the
//! single-engine case) and at two.

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_service::{GlobalRowId, ShardedConfig, ShardedService};

mod common;
use common::{live_oracle, rows};

/// Table 1 of the paper behind a one-shard service: row ids are the engine's own.
fn vacation_service() -> ShardedService {
    let schema = Schema::new(vec![
        Dimension::numeric("price"),
        Dimension::numeric("class-neg"),
        Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
    ])
    .unwrap();
    let mut b = DatasetBuilder::new(schema);
    for (price, class, group) in [
        (1600.0, 4.0, "T"),
        (2400.0, 1.0, "T"),
        (3000.0, 5.0, "H"),
        (3600.0, 4.0, "H"),
        (2400.0, 2.0, "M"),
        (3000.0, 3.0, "M"),
    ] {
        b.push_row([RowValue::Num(price), RowValue::Num(-class), group.into()])
            .unwrap();
    }
    let data = b.build().unwrap();
    let template = Template::empty(data.schema());
    let engine = SkylineEngine::build(data, template, EngineConfig::Hybrid { top_k: 3 }).unwrap();
    ShardedService::from_engines(
        vec![engine.into()],
        ShardedConfig {
            workers: 1,
            ..ShardedConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn a_cached_result_is_never_served_across_an_insert() {
    let service = vacation_service();
    let alice = Preference::parse(service.schema(), [("hotel-group", "T < M < *")]).unwrap();

    let first = service.serve(&alice).unwrap();
    assert!(!first.cache_hit);
    assert_eq!(rows(&first), vec![0, 2]);
    let hit = service.serve(&alice).unwrap();
    assert!(hit.cache_hit, "warm cache must hit before the mutation");
    assert_eq!(hit.epochs, first.epochs);

    // Insert a Tulips package that dominates the whole cached answer.
    let tulips = service.insert_row(&[1000.0, -5.0], &[0]).unwrap();
    assert_eq!(tulips, GlobalRowId { shard: 0, row: 6 });
    assert!(service.epochs()[0] > first.epochs[0]);

    let fresh = service.serve(&alice).unwrap();
    assert!(
        !fresh.cache_hit,
        "a cached result must never be served across an epoch bump"
    );
    assert_eq!(*fresh.epochs, service.epochs());
    assert_eq!(rows(&fresh), vec![6]);
    assert_eq!(fresh.outcome.skyline, live_oracle(&service, &alice));

    let stats = service.stats();
    assert_eq!(stats.mutations, 1);
    assert_eq!(
        stats.stale_evictions, 1,
        "the stale entry expires lazily on its next touch"
    );
    // The recomputed answer is cached at the new epoch and hits again.
    assert!(service.serve(&alice).unwrap().cache_hit);
}

#[test]
fn a_cached_result_is_never_served_across_a_delete() {
    let service = vacation_service();
    let pref = Preference::parse(service.schema(), [("hotel-group", "M < *")]).unwrap();
    let e = GlobalRowId { shard: 0, row: 4 };

    let first = service.serve(&pref).unwrap();
    assert!(service.serve(&pref).unwrap().cache_hit);
    assert!(rows(&first).contains(&4));

    // Delete skyline member e (the cheap Mozilla package): b resurfaces options.
    assert!(service.delete_row(e).unwrap());
    let fresh = service.serve(&pref).unwrap();
    assert!(!fresh.cache_hit);
    assert!(!rows(&fresh).contains(&4));
    assert_eq!(fresh.outcome.skyline, live_oracle(&service, &pref));

    // A no-op delete keeps the epoch, so the fresh answer still hits.
    assert!(!service.delete_row(e).unwrap());
    assert!(service.serve(&pref).unwrap().cache_hit);
    assert_eq!(service.stats().mutations, 1);
}

#[derive(Debug, Clone)]
enum Op {
    Serve {
        choices: Vec<ValueId>,
    },
    Insert {
        numeric: Vec<f64>,
        nominal: Vec<ValueId>,
    },
    Delete {
        index: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::sample::subsequence(vec![0u16, 1, 2], 0..=2)
            .prop_shuffle()
            .prop_map(|choices| Op::Serve { choices }),
        (
            proptest::collection::vec(0i32..6, 2),
            proptest::collection::vec(0u16..3, 1),
        )
            .prop_map(|(n, c)| Op::Insert {
                numeric: n.into_iter().map(f64::from).collect(),
                nominal: c,
            }),
        (0usize..32).prop_map(|index| Op::Delete { index }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Any interleaving of serves, inserts and deletes, at one shard and at two: every served
    /// answer equals the brute-force skyline of the rows live at that moment, cache or no
    /// cache.
    #[test]
    fn served_answers_always_match_the_live_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..30),
    ) {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::numeric("y"),
            Dimension::nominal("g", NominalDomain::anonymous(3)),
        ])
        .unwrap();
        let mut data = Dataset::empty(schema.clone());
        for (x, y, g) in [(1.0, 4.0, 0), (2.0, 3.0, 1), (3.0, 2.0, 2), (4.0, 1.0, 0)] {
            data.push_row_ids(&[x, y], &[g]).unwrap();
        }
        for shards in [1, 2] {
            let config = ShardedConfig {
                shards,
                workers: 1,
                cache_capacity: 8,
                cache_shards: 1,
                ..ShardedConfig::default()
            };
            // Every row ever placed, in insertion order (deleted ones stay listed: deleting
            // them again is the no-op case).
            let mut placed = ShardedService::partition_rows(&config.partition, shards, &data);
            let service = ShardedService::build(
                &data,
                Template::empty(&schema),
                EngineConfig::AdaptiveSfs,
                config,
            )
            .unwrap();

            for op in &ops {
                match op {
                    Op::Serve { choices } => {
                        let pref = Preference::from_dims(vec![
                            ImplicitPreference::new(choices.clone()).unwrap(),
                        ]);
                        let served = service.serve(&pref).unwrap();
                        prop_assert_eq!(
                            &served.outcome.skyline,
                            &live_oracle(&service, &pref),
                            "{} shards, epochs {:?}",
                            shards,
                            served.epochs
                        );
                        prop_assert_eq!(&*served.epochs, &service.epochs()[..]);
                    }
                    Op::Insert { numeric, nominal } => {
                        placed.push(service.insert_row(numeric, nominal).unwrap());
                    }
                    Op::Delete { index } => {
                        service.delete_row(placed[index % placed.len()]).unwrap();
                    }
                }
            }
            prop_assert_eq!(service.stats().errors, 0);
        }
    }
}
