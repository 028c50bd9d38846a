//! Regression suite for the dynamic-dataset service: a mutated shard must never serve a
//! stale cached skyline. On the pre-epoch cache (entries not tagged with a [`DatasetEpoch`])
//! these tests fail — the second serve after a mutation replays the memoized pre-mutation
//! answer; with epoch-tagged entries the mutation atomically invalidates the cached state and
//! every answer matches a from-scratch computation over the live rows — at one shard (the
//! single-engine case) and at two.
//!
//! The tag is each shard's skyline epoch ([`SkylineEngine::skyline_epoch`]): a write that
//! leaves every shard's template skyline unchanged changes no answer, so it keeps the cached
//! answers and the global template skyline; a write that changes one invalidates both.

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

/// Rows over `x`, `y` and `g`, as `(x, y, g)`: on `g = 0` row 2 is dominated by row 1, and
/// rows 0, 1 and 3 form the group's skyline.
const ROWS: [(f64, f64, ValueId); 6] = [
    (1.0, 4.0, 0),
    (2.0, 3.0, 0),
    (3.0, 3.5, 0),
    (4.0, 1.0, 0),
    (2.0, 2.0, 1),
    (1.0, 1.0, 2),
];

/// An Adaptive-SFS service over [`ROWS`] under the empty template, with each row's global
/// id in `ROWS` order.
fn small_service(shards: usize) -> (ShardedService, Vec<GlobalRowId>) {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::numeric("y"),
        Dimension::nominal("g", NominalDomain::anonymous(3)),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema.clone());
    for (x, y, g) in ROWS {
        data.push_row_ids(&[x, y], &[g]).unwrap();
    }
    let config = ShardedConfig {
        shards,
        workers: 1,
        ..ShardedConfig::default()
    };
    let ids = ShardedService::partition_rows(&config.partition, shards, &data);
    let service = ShardedService::build(
        &data,
        Template::empty(&schema),
        EngineConfig::AdaptiveSfs,
        config,
    )
    .unwrap();
    (service, ids)
}

/// `g = 0` first, then `g = 1`.
fn zero_then_one() -> Preference {
    Preference::from_dims(vec![ImplicitPreference::new([0, 1]).unwrap()])
}

#[test]
fn writes_that_keep_every_template_skyline_keep_the_cache_and_the_global_skyline() {
    for shards in [1, 2] {
        let (service, ids) = small_service(shards);
        let pref = zero_then_one();
        assert!(!service.serve(&pref).unwrap().cache_hit);
        let builds = service.stats().template_skyline_builds;

        // Row 1 dominates the insert; row 2 is no member of its shard's template skyline.
        let writes: [(&str, &dyn Fn()); 2] = [
            ("dominated insert", &|| {
                service.insert_row(&[5.0, 5.0], &[0]).unwrap();
            }),
            ("non-member delete", &|| {
                assert!(service.delete_row(ids[2]).unwrap())
            }),
        ];
        for (what, write) in writes {
            write();
            let served = service.serve(&pref).unwrap();
            assert!(served.cache_hit, "{shards} shards, {what}");
            assert_eq!(served.outcome.skyline, live_oracle(&service, &pref));
            // Answers still report the dataset epochs, which every write moves.
            assert_eq!(*served.epochs, service.epochs()[..]);
        }
        let stats = service.stats();
        assert_eq!(stats.template_skyline_builds, builds, "{shards} shards");
        assert_eq!((stats.mutations, stats.stale_evictions), (2, 0));
    }
}

#[test]
fn writes_that_change_a_template_skyline_miss_and_build_the_global_skyline_once() {
    for shards in [1, 2] {
        // No global template skyline at one shard: its engine answers.
        let rise = u64::from(shards > 1);
        let (service, ids) = small_service(shards);
        let pref = zero_then_one();
        service.serve(&pref).unwrap();
        assert!(service.serve(&pref).unwrap().cache_hit);

        // Dominates every other `g = 0` row.
        let dominating = service.insert_row(&[0.5, 0.5], &[0]).unwrap();
        let builds = service.stats().template_skyline_builds;
        let served = service.serve(&pref).unwrap();
        assert!(!served.cache_hit, "{shards} shards, dominating insert");
        assert_eq!(served.outcome.skyline, live_oracle(&service, &pref));
        assert!(!served.outcome.skyline.contains(&ids[0]));
        assert_eq!(service.stats().template_skyline_builds, builds + rise);

        // Deleting the member resurfaces rows 0, 1 and 3.
        assert!(service.delete_row(dominating).unwrap());
        let served = service.serve(&pref).unwrap();
        assert!(!served.cache_hit, "{shards} shards, member delete");
        assert_eq!(served.outcome.skyline, live_oracle(&service, &pref));
        assert!(served.outcome.skyline.contains(&ids[0]));
        assert_eq!(service.stats().template_skyline_builds, builds + 2 * rise);
        assert!(service.serve(&pref).unwrap().cache_hit);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Serve {
        choices: Vec<ValueId>,
    },
    Stream {
        choices: Vec<ValueId>,
    },
    Insert {
        numeric: Vec<f64>,
        nominal: Vec<ValueId>,
    },
    Delete {
        index: usize,
    },
    Rebuild {
        shard: usize,
    },
}

fn choices_strategy() -> impl Strategy<Value = Vec<ValueId>> {
    proptest::sample::subsequence(vec![0u16, 1, 2], 0..=2).prop_shuffle()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        choices_strategy().prop_map(|choices| Op::Serve { choices }),
        choices_strategy().prop_map(|choices| Op::Stream { choices }),
        (
            proptest::collection::vec(0i32..6, 2),
            proptest::collection::vec(0u16..3, 1),
        )
            .prop_map(|(n, c)| Op::Insert {
                numeric: n.into_iter().map(f64::from).collect(),
                nominal: c,
            }),
        (0usize..32).prop_map(|index| Op::Delete { index }),
        (0usize..3).prop_map(|shard| Op::Rebuild { shard }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Any interleaving of serves, streams, inserts, deletes and shard rebuilds, at one to
    /// three shards and under every engine configuration: every answer, hit or miss, equals
    /// the brute-force skyline of the rows live at that moment.
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
        let configs = [EngineConfig::AdaptiveSfs, EngineConfig::Hybrid { top_k: 3 }];
        for (shards, engine) in (1..=3).flat_map(|s| configs.map(|c| (s, c))) {
            let config = ShardedConfig {
                shards,
                workers: 1,
                cache_capacity: 8,
                cache_shards: 1,
                ..ShardedConfig::default()
            };
            let service =
                ShardedService::build(&data, Template::empty(&schema), engine, config).unwrap();
            let pref_of = |choices: &Vec<ValueId>| {
                Preference::from_dims(vec![ImplicitPreference::new(choices.clone()).unwrap()])
            };

            for op in &ops {
                match op {
                    Op::Serve { choices } => {
                        let pref = pref_of(choices);
                        let served = service.serve(&pref).unwrap();
                        prop_assert_eq!(
                            &served.outcome.skyline,
                            &live_oracle(&service, &pref),
                            "{} shards, {:?}, epochs {:?}, hit {}",
                            shards,
                            engine,
                            served.epochs,
                            served.cache_hit
                        );
                        prop_assert_eq!(&*served.epochs, &service.epochs()[..]);
                    }
                    Op::Stream { choices } => {
                        let pref = pref_of(choices);
                        let stream = service.serve_streaming(&pref).unwrap();
                        prop_assert_eq!(&stream.epochs()[..], &service.epochs()[..]);
                        let mut rows = stream.collect_rows().unwrap();
                        rows.sort_unstable();
                        prop_assert_eq!(
                            &rows,
                            &live_oracle(&service, &pref),
                            "{} shards, {:?}, stream",
                            shards,
                            engine
                        );
                    }
                    Op::Insert { numeric, nominal } => {
                        service.insert_row(numeric, nominal).unwrap();
                    }
                    Op::Delete { index } => {
                        // Any row the shard holds, live or dead (a dead one is the no-op
                        // case); a rebuild renumbers them.
                        let shard = index % shards;
                        let len = service.shard(shard).read().dataset().len();
                        if len > 0 {
                            let row = ((index / shards) % len) as PointId;
                            service.delete_row(GlobalRowId { shard, row }).unwrap();
                        }
                    }
                    Op::Rebuild { shard } => {
                        service.force_rebuild_shard(shard % shards).unwrap();
                    }
                }
            }
            prop_assert_eq!(service.stats().errors, 0);
        }
    }
}
