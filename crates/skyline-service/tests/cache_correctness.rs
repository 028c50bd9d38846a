//! Cache-correctness property: over random datasets and random preference streams (with
//! repetition, so hits actually occur), serving with the cache enabled is indistinguishable
//! from serving without it — at one shard and at two, and both equal the brute-force skyline
//! (and, at one shard, the bare engine).

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_service::{ShardedConfig, ShardedService};

mod common;
use common::{live_oracle, rows};

#[derive(Debug, Clone)]
struct StreamInstance {
    numeric: Vec<Vec<f64>>,
    nominal: Vec<Vec<ValueId>>,
    cardinalities: Vec<usize>,
    /// Choice lists for a small pool of distinct preferences.
    pool_choices: Vec<Vec<Vec<ValueId>>>,
    /// The stream: indices into the pool (repetition produces cache hits).
    stream: Vec<usize>,
    /// Cache capacity, possibly smaller than the pool (exercises eviction).
    cache_capacity: usize,
}

fn instance_strategy() -> impl Strategy<Value = StreamInstance> {
    let cards = vec![3usize, 4usize];
    (1usize..30, 1usize..=4).prop_flat_map(move |(rows, pool)| {
        let cards = cards.clone();
        let numeric = proptest::collection::vec(
            proptest::collection::vec(0i32..5, rows)
                .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>()),
            2,
        );
        let nominal = cards
            .iter()
            .map(|&c| proptest::collection::vec(0..(c as ValueId), rows))
            .collect::<Vec<_>>();
        let pool_choices = proptest::collection::vec(
            cards
                .iter()
                .map(|&c| {
                    proptest::sample::subsequence((0..c as ValueId).collect::<Vec<_>>(), 0..=c)
                        .prop_shuffle()
                })
                .collect::<Vec<_>>(),
            pool,
        );
        let stream = proptest::collection::vec(0..pool, 1..40);
        (numeric, nominal, pool_choices, stream, 0usize..6).prop_map(
            move |(numeric, nominal, pool_choices, stream, cache_capacity)| StreamInstance {
                numeric,
                nominal,
                cardinalities: cards.clone(),
                pool_choices,
                stream,
                cache_capacity,
            },
        )
    })
}

/// The instance's dataset behind a `shards`-shard service. Hybrid with a small top_k: at one
/// shard the stream exercises both the tree and the fallback; at two or more the service
/// builds Adaptive-SFS shards.
fn build_service(
    instance: &StreamInstance,
    shards: usize,
    cache_capacity: usize,
    workers: usize,
) -> ShardedService {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::numeric("y"),
        Dimension::nominal("g", NominalDomain::anonymous(instance.cardinalities[0])),
        Dimension::nominal("h", NominalDomain::anonymous(instance.cardinalities[1])),
    ])
    .unwrap();
    let data =
        Dataset::from_columns(schema, instance.numeric.clone(), instance.nominal.clone()).unwrap();
    let template = Template::empty(data.schema());
    ShardedService::build(
        &data,
        template,
        EngineConfig::Hybrid { top_k: 2 },
        ShardedConfig {
            shards,
            cache_capacity,
            cache_shards: 2,
            workers,
            ..ShardedConfig::default()
        },
    )
    .unwrap()
}

/// The instance's preference stream (pool entries repeat, so hits occur).
fn stream_of(instance: &StreamInstance) -> Vec<Preference> {
    let pool: Vec<Preference> = instance
        .pool_choices
        .iter()
        .map(|dims| {
            Preference::from_dims(
                dims.iter()
                    .map(|c| ImplicitPreference::new(c.clone()).unwrap())
                    .collect(),
            )
        })
        .collect();
    instance.stream.iter().map(|&i| pool[i].clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn serving_with_cache_equals_serving_without(instance in instance_strategy()) {
        let stream = stream_of(&instance);
        for shards in [1, 2] {
            let cached = build_service(&instance, shards, instance.cache_capacity, 1);
            let uncached = build_service(&instance, shards, 0, 1);
            for (i, pref) in stream.iter().enumerate() {
                let expected = live_oracle(&cached, pref);
                let with_cache = cached.serve(pref).unwrap();
                let without_cache = uncached.serve(pref).unwrap();
                prop_assert_eq!(
                    &with_cache.outcome.skyline, &expected, "cached, {} shards, step {}", shards, i
                );
                prop_assert_eq!(
                    &without_cache.outcome.skyline, &expected,
                    "uncached, {} shards, step {}", shards, i
                );
                if shards == 1 {
                    let engine = cached.shard(0).read().query(pref).unwrap().skyline;
                    prop_assert_eq!(rows(&with_cache), engine, "bare engine, step {}", i);
                }
            }
            // The cached service never invents or loses queries.
            prop_assert_eq!(cached.stats().served(), stream.len() as u64);
            prop_assert_eq!(uncached.stats().hits, 0);
        }
    }

    /// The batched worker-pool path agrees with the serial path on the same stream.
    #[test]
    fn batched_serving_equals_serial_serving(instance in instance_strategy()) {
        let stream = stream_of(&instance);
        for shards in [1, 2] {
            let service = build_service(&instance, shards, instance.cache_capacity, 4);
            let batched = service.serve_batch(&stream);
            prop_assert_eq!(batched.len(), stream.len());
            for (i, (pref, result)) in stream.iter().zip(batched).enumerate() {
                let batched = result.unwrap();
                prop_assert_eq!(
                    &batched.outcome.skyline, &live_oracle(&service, pref),
                    "{} shards, step {}", shards, i
                );
                if shards == 1 {
                    let serial = service.shard(0).read().query(pref).unwrap().skyline;
                    prop_assert_eq!(rows(&batched), serial, "bare engine, step {}", i);
                }
            }
        }
    }
}
