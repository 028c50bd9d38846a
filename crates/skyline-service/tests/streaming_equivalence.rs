//! Streaming equivalence: the progressive result path is observationally equal to the batch
//! path — for every mutable engine configuration, any shard count from 1 to 6, and with
//! mutations landing mid-stream.
//!
//! Four properties per case:
//!
//! * **no retraction** — a row is emitted at most once, and every emitted row is in the
//!   final answer (there is no "tentative" output to take back);
//! * **score order** — rows arrive in ascending query-score order (the SFS presort order
//!   that makes progressive emission sound in the first place);
//! * **completeness** — the emitted set equals the batch skyline at the stream's pinned
//!   epoch;
//! * **snapshot isolation** — a mutation racing the stream does not change its answer: the
//!   stream serves the generation it started on.
//!
//! The template is an input: empty, or one listed value on `g` (also the partition
//! dimension), which every query refines. Only a listed value lets a row template-dominate a
//! row on another shard, so only then does the global template skyline the stream scans drop
//! rows of one shard's template skyline for another shard's.
//!
//! A fifth, deterministic scenario pins the reason an open stream holds no latch and no shard
//! lock: a stream whose consumer stops pulling must not block batch serves or writers.

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_core::score::ScoreFn;
use skyline_service::{GlobalRowId, ShardedConfig, ShardedService};
use std::sync::{mpsc, Arc};
use std::time::Duration;

mod common;
use common::{live_oracle, rows, template_and_refinement};

const CARD: usize = 3;

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Progressive serving — one shard over the engine itself, and 1–6 built shards —
    /// matches batch answers everywhere.
    #[test]
    fn streaming_matches_batch_for_every_config_and_shard_count(
        initial in rows_strategy(),
        shards in 1usize..=6,
        mutate_mid_stream in any::<bool>(),
        listed in proptest::option::of(0..CARD as ValueId),
        query_choices in proptest::sample::subsequence(
            (0..CARD as ValueId).collect::<Vec<_>>(), 0..=2
        ).prop_shuffle(),
    ) {
        let data = Arc::new(initial_dataset(&initial));
        let (template, pref) = template_and_refinement(data.schema(), listed, query_choices);
        let score = ScoreFn::for_preference(data.schema(), &pref).unwrap();

        for config in [EngineConfig::AdaptiveSfs, EngineConfig::Hybrid { top_k: 2 }] {
            // The ground truth at the initial generation, in the initial id space.
            let reference =
                SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            let expected_ids = reference.query(&pref).unwrap().skyline;
            let mut expected_values: Vec<ValueKey> =
                expected_ids.iter().map(|&p| value_key(&data, p)).collect();
            expected_values.sort();

            // --- One shard over an existing engine: ids are the engine's own ---
            let engine = SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            let service = ShardedService::from_engines(
                vec![engine.into()],
                ShardedConfig { workers: 1, ..ShardedConfig::default() },
            )
            .unwrap();
            let mut stream = service.serve_streaming(&pref).unwrap();
            let pinned = stream.epochs().clone();
            let mut ids: Vec<PointId> = Vec::new();
            let mut mutated = false;
            while let Some(g) = stream.next_row().unwrap() {
                prop_assert_eq!(g.shard, 0);
                prop_assert!(!ids.contains(&g.row), "row {} emitted twice ({:?})", g.row, config);
                ids.push(g.row);
                if mutate_mid_stream && !mutated {
                    mutated = true;
                    // A dominating row lands mid-stream; the pinned snapshot must not see it.
                    service.insert_row(&[-1.0, -1.0], &[0]).unwrap();
                    prop_assert!(service.epochs() != *pinned);
                }
            }
            let scores: Vec<f64> = ids.iter().map(|&p| score.score(&data, p)).collect();
            prop_assert!(
                scores.windows(2).all(|w| w[0] <= w[1]),
                "score order violated ({:?}): {:?}",
                config,
                scores
            );
            ids.sort_unstable();
            prop_assert_eq!(&ids, &expected_ids, "one-shard set mismatch ({:?})", config);
            if !mutated {
                // The finished stream warmed the cache: the batch path replays its answer.
                let served = service.serve(&pref).unwrap();
                prop_assert!(served.cache_hit, "finished stream must warm the cache ({:?})", config);
                prop_assert_eq!(rows(&served), expected_ids.clone());
            }

            // --- Sharded service stream ---
            let sharded = ShardedService::build(
                &data,
                template.clone(),
                config,
                ShardedConfig { shards, workers: 2, ..ShardedConfig::default() },
            )
            .unwrap();
            let mut stream = sharded.serve_streaming(&pref).unwrap();
            let mut global: Vec<GlobalRowId> = Vec::new();
            let mut mutated = false;
            while let Some(g) = stream.next_row().unwrap() {
                prop_assert!(!global.contains(&g), "row {:?} emitted twice ({:?})", g, config);
                global.push(g);
                if mutate_mid_stream && !mutated {
                    mutated = true;
                    sharded.insert_row(&[-1.0, -1.0], &[0]).unwrap();
                }
            }
            // Ascending global score order (ids appended post-stream keep earlier ids
            // stable, so scoring against the live shard datasets is sound).
            let scores: Vec<f64> = global
                .iter()
                .map(|g| score.score(sharded.shard(g.shard).read().dataset(), g.row))
                .collect();
            prop_assert!(
                scores.windows(2).all(|w| w[0] <= w[1]),
                "sharded score order violated ({:?}, {} shards): {:?}",
                config,
                shards,
                scores
            );
            let mut values: Vec<ValueKey> = global
                .iter()
                .map(|g| value_key(sharded.shard(g.shard).read().dataset(), g.row))
                .collect();
            values.sort();
            prop_assert_eq!(
                &values,
                &expected_values,
                "sharded set mismatch ({:?}, {} shards)",
                config,
                shards
            );
        }
    }
}

/// Runs `step` on its own thread and returns its result — or fails, instead of hanging, when
/// it has not finished in time.
fn completes<T: Send + 'static>(what: &str, step: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(step());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{what} did not complete while the stream was open"))
}

/// The wedge: were a stream to hold a latch or a shard read lock for its caller-paced life, a
/// batch serve of the same preference could park on it holding the shard read locks, the
/// next writer would queue behind that reader and every later reader behind the writer. An
/// open stream holds neither, so all three complete while the consumer idles.
#[test]
fn an_idle_stream_blocks_neither_batch_serves_nor_writers() {
    let config = ExperimentConfig {
        n: 600,
        numeric_dims: 2,
        nominal_dims: 2,
        cardinality: 6,
        theta: 1.0,
        pref_order: 2,
        distribution: Distribution::AntiCorrelated,
        seed: 19,
    };
    let data = config.generate_dataset();
    let template = config.template(&data);
    let mut generator = QueryGenerator::new(23);
    let pref = generator.random_preference(data.schema(), &template, 2, None);
    let other = generator.random_preference(data.schema(), &template, 1, None);
    for shards in [1, 2] {
        let service = Arc::new(
            ShardedService::build(
                &data,
                template.clone(),
                EngineConfig::AdaptiveSfs,
                ShardedConfig {
                    shards,
                    workers: 2,
                    ..ShardedConfig::default()
                },
            )
            .unwrap(),
        );

        // Open the stream, pull one row, stop pulling.
        let mut stream = service.serve_streaming(&pref).unwrap();
        let first = stream.next_row().unwrap().expect("non-empty skyline");

        let same = completes("a batch serve of the streamed preference", {
            let (service, pref) = (service.clone(), pref.clone());
            move || service.serve(&pref).unwrap()
        });
        assert_eq!(
            &same.epochs,
            stream.epochs(),
            "served at the stream's epochs"
        );
        let inserted = completes("a write", {
            let service = service.clone();
            move || service.insert_row(&[0.0, 0.0], &[0, 0]).unwrap()
        });
        completes("a batch serve of an unrelated preference", {
            let (service, other) = (service.clone(), other.clone());
            move || service.serve(&other).unwrap()
        });

        // The stream then drains to exactly its pinned-epoch answer …
        let mut streamed = vec![first];
        streamed.extend(stream.collect_rows().unwrap());
        streamed.sort_unstable();
        assert_eq!(streamed, same.outcome.skyline, "{shards} shards");
        // … while a serve issued after the insert sees the live rows.
        let after = service.serve(&pref).unwrap();
        assert!(!after.cache_hit);
        assert!(after.outcome.skyline.contains(&inserted));
        assert_eq!(after.outcome.skyline, live_oracle(&service, &pref));
    }
}
