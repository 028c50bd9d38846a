//! Fault isolation: injected shard panics and delays never corrupt an answer.
//!
//! The central proptest runs a *twin experiment* — one [`ShardedService`] with faults
//! injected, one fault-free, both fed the identical mutation stream — and checks, at every
//! serve and every drained stream of any interleaving of faults and mutations:
//!
//! 1. non-degraded responses are exactly the fault-free sharded answer;
//! 2. degraded responses name exactly the quarantined shards and are the fault-free answer
//!    restricted to the healthy shards (computed independently via per-shard queries + the
//!    public cross-shard merger);
//! 3. the cache never stores a partial or cancelled result — every cache hit is complete.
//!
//! Around it sit deterministic scenarios for the quarantine lifecycle: a background build
//! panic quarantines its shard, the service keeps answering degraded in the meantime, and
//! the shard returns to service through the bounded backoff rebuild.

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_core::{CompiledOrder, Deadline, SkylineMerger};
use skyline_service::{
    DegradePolicy, GlobalRowId, RecoveryPolicy, ShardPartition, ShardedConfig, ShardedServed,
    ShardedService,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CARD: usize = 3;

fn schema() -> Schema {
    Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::numeric("y"),
        Dimension::nominal("g", NominalDomain::anonymous(CARD)),
    ])
    .unwrap()
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

fn initial_dataset(rows: &Rows) -> Dataset {
    let mut data = Dataset::empty(schema());
    for (numeric, nominal) in rows {
        data.push_row_ids(numeric, nominal).unwrap();
    }
    data
}

/// One step of the interleaved fault/mutation/query stream.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        numeric: Vec<f64>,
        nominal: Vec<ValueId>,
    },
    Delete {
        index: usize,
    },
    /// Arm: the faulty twin's next scatter query on `shard % shards` panics.
    Panic {
        shard: usize,
    },
    Serve {
        choices: Vec<ValueId>,
    },
    /// Drains a `serve_streaming` of the faulty twin.
    Stream {
        choices: Vec<ValueId>,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            proptest::collection::vec(0i32..6, 2),
            proptest::collection::vec(0..(CARD as ValueId), 1),
        )
            .prop_map(|(n, c)| Op::Insert {
                numeric: n.into_iter().map(f64::from).collect(),
                nominal: c,
            }),
        (0usize..64).prop_map(|index| Op::Delete { index }),
        (0usize..8).prop_map(|shard| Op::Panic { shard }),
        proptest::sample::subsequence((0..CARD as ValueId).collect::<Vec<_>>(), 0..=2)
            .prop_map(|choices| Op::Serve { choices }),
        proptest::sample::subsequence((0..CARD as ValueId).collect::<Vec<_>>(), 0..=2)
            .prop_map(|choices| Op::Stream { choices }),
    ]
}

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

fn row_values(service: &ShardedService, rows: &[GlobalRowId]) -> Vec<ValueKey> {
    let mut values: Vec<ValueKey> = rows
        .iter()
        .map(|g| value_key(service.shard(g.shard).read().dataset(), g.row))
        .collect();
    values.sort();
    values
}

fn served_values(service: &ShardedService, served: &ShardedServed) -> Vec<ValueKey> {
    row_values(service, &served.outcome.skyline)
}

/// Ground truth for a (possibly degraded) answer: merge the per-shard skylines of `shards`,
/// computed through per-shard engine queries and the public merger — independent of the
/// serve path under test.
fn merge_of_shards(service: &ShardedService, shards: &[usize], pref: &Preference) -> Vec<ValueKey> {
    let orders: Vec<CompiledOrder> = service
        .template()
        .effective_orders(service.schema(), pref)
        .unwrap()
        .iter()
        .map(CompiledOrder::compile)
        .collect();
    let mut merger = SkylineMerger::new(orders, service.schema().numeric_count());
    for &s in shards {
        let guard = service.shard(s).read();
        let data = guard.dataset();
        for p in guard.query(pref).unwrap().skyline {
            let numeric: Vec<f64> = (0..service.schema().numeric_count())
                .map(|j| data.numeric(p, j))
                .collect();
            let nominal: Vec<ValueId> = (0..service.schema().nominal_count())
                .map(|j| data.nominal(p, j))
                .collect();
            merger.push(s, p, &numeric, &nominal).unwrap();
        }
    }
    let mut values: Vec<ValueKey> = merger
        .merge()
        .into_iter()
        .map(|(s, p)| value_key(service.shard(s).read().dataset(), p))
        .collect();
    values.sort();
    values
}

/// The checks every answer of the faulty twin passes, batch or streamed: a degraded answer
/// names exactly the quarantined shards (panics only; no deadlines are in play) and equals
/// the fault-free twin's merge of the healthy shards; a complete answer equals the
/// fault-free twin's answer.
fn check_against_twin(
    faulty: &ShardedService,
    clean: &ShardedService,
    pref: &Preference,
    rows: &[GlobalRowId],
    degraded: &[usize],
) {
    let values = row_values(faulty, rows);
    if degraded.is_empty() {
        let reference = clean.serve(pref).unwrap();
        assert!(!reference.is_degraded());
        assert_eq!(
            values,
            served_values(clean, &reference),
            "complete answer == fault-free sharded answer"
        );
    } else {
        assert_eq!(
            degraded,
            faulty.quarantined_shards(),
            "degraded answers name exactly the quarantined shards"
        );
        let healthy: Vec<usize> = (0..faulty.shard_count())
            .filter(|s| !degraded.contains(s))
            .collect();
        assert_eq!(
            values,
            merge_of_shards(clean, &healthy, pref),
            "degraded answer == fault-free answer restricted to healthy shards"
        );
    }
}

fn build_service(data: &Dataset, shards: usize, tolerate_all: bool) -> ShardedService {
    ShardedService::build(
        data,
        Template::empty(data.schema()),
        EngineConfig::AdaptiveSfs,
        ShardedConfig {
            shards,
            partition: ShardPartition::HashNominal { dim: 0 },
            workers: 2,
            degrade: if tolerate_all {
                DegradePolicy::Tolerate {
                    max_degraded: shards,
                }
            } else {
                DegradePolicy::FailClosed
            },
            // Deterministic quarantine: no automatic recovery mid-stream, shards stay
            // quarantined until the explicit rebuilds at the end of the case.
            recovery: RecoveryPolicy {
                max_attempts: 0,
                ..RecoveryPolicy::default()
            },
            ..ShardedConfig::default()
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// The twin experiment from the module docs: faults degrade availability, never
    /// correctness, under any interleaving of injected panics and mutations.
    #[test]
    fn faults_degrade_availability_never_correctness(
        initial in rows_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..24),
        shards in 2usize..=4,
    ) {
        let data = initial_dataset(&initial);
        let faulty = build_service(&data, shards, true);
        let clean = build_service(&data, shards, true);

        // Logical rows in insertion order; global ids are identical on both twins (same
        // partition, same insertion order) until a recovery rebuild — which only happens
        // after the mutation stream ends.
        let mut rows: Vec<Option<GlobalRowId>> =
            ShardedService::partition_rows(faulty.partition(), shards, &data)
                .into_iter()
                .map(Some)
                .collect();

        for op in &ops {
            match op {
                Op::Insert { numeric, nominal } => {
                    let f = faulty.insert_row(numeric, nominal).unwrap();
                    let c = clean.insert_row(numeric, nominal).unwrap();
                    prop_assert_eq!(f, c, "twins place rows identically");
                    rows.push(Some(f));
                }
                Op::Delete { index } => {
                    let target = index % rows.len();
                    if let Some(g) = rows[target] {
                        let f_live = faulty.delete_row(g).unwrap();
                        let c_live = clean.delete_row(g).unwrap();
                        prop_assert_eq!(f_live, c_live, "twins agree on liveness");
                        rows[target] = None;
                    }
                }
                Op::Panic { shard } => {
                    faulty.fault_injector().panic_on_shard_query(shard % shards, 1);
                }
                Op::Serve { choices } => {
                    let pref = Preference::from_dims(vec![
                        ImplicitPreference::new(choices.clone()).unwrap(),
                    ]);
                    let cache_before = faulty.cache_len();
                    let served = faulty.serve(&pref).unwrap();
                    if served.cache_hit {
                        prop_assert!(
                            !served.is_degraded(),
                            "a cache hit can only be a complete answer"
                        );
                    }
                    if served.is_degraded() {
                        // Lazy stale eviction may shrink the cache on lookup, but a
                        // degraded serve must never *add* an entry. (That cached answers
                        // are complete and correct is enforced by comparing them against
                        // the fault-free twin.)
                        prop_assert!(
                            faulty.cache_len() <= cache_before,
                            "degraded answers are never cached"
                        );
                    }
                    check_against_twin(
                        &faulty,
                        &clean,
                        &pref,
                        &served.outcome.skyline,
                        &served.degraded_shards,
                    );
                }
                Op::Stream { choices } => {
                    let pref = Preference::from_dims(vec![
                        ImplicitPreference::new(choices.clone()).unwrap(),
                    ]);
                    let mut stream = faulty.serve_streaming(&pref).unwrap();
                    let mut rows = Vec::new();
                    while let Some(g) = stream.next_row().unwrap() {
                        rows.push(g);
                    }
                    let degraded = stream.degraded_shards().to_vec();
                    drop(stream);
                    check_against_twin(&faulty, &clean, &pref, &rows, &degraded);
                }
            }
        }

        // Recovery: disarm the injector, heal every quarantined shard explicitly, and the
        // twins converge back to identical complete answers.
        faulty.fault_injector().clear();
        for s in faulty.quarantined_shards() {
            prop_assert!(faulty.force_rebuild_shard(s).unwrap().is_some());
        }
        prop_assert!(faulty.quarantined_shards().is_empty());
        let pref = Preference::from_dims(vec![ImplicitPreference::new([0]).unwrap()]);
        let healed = faulty.serve(&pref).unwrap();
        prop_assert!(!healed.is_degraded());
        let reference = clean.serve(&pref).unwrap();
        prop_assert_eq!(
            served_values(&faulty, &healed),
            served_values(&clean, &reference)
        );
    }
}

/// A cancelled request fails fast with `DeadlineExceeded`, is counted, and leaves no trace
/// in the cache.
#[test]
fn cancelled_requests_leave_no_cache_entries() {
    let data = initial_dataset(&vec![
        (vec![1.0, 2.0], vec![0]),
        (vec![2.0, 1.0], vec![1]),
        (vec![0.5, 3.0], vec![2]),
    ]);
    let service = build_service(&data, 2, false);
    let pref = Preference::from_dims(vec![ImplicitPreference::new([0]).unwrap()]);

    let token = skyline_core::CancelToken::new();
    token.cancel();
    let deadline = Deadline::none().with_cancel(token);
    assert_eq!(
        service.serve_deadline(&pref, &deadline).unwrap_err(),
        SkylineError::DeadlineExceeded
    );
    assert_eq!(service.cache_len(), 0, "cancelled results are never cached");
    assert_eq!(service.stats().deadline_misses, 1);
    assert!(
        service.quarantined_shards().is_empty(),
        "cancellation is not a shard fault"
    );

    // The same request without the token answers (and caches) normally.
    let served = service.serve(&pref).unwrap();
    assert!(!served.cache_hit);
    assert_eq!(service.cache_len(), 1);

    // A cancelled request fails fast even when the answer is sitting in the cache —
    // returning an answer to a caller that revoked the request is wrong.
    let token = skyline_core::CancelToken::new();
    token.cancel();
    assert_eq!(
        service
            .serve_deadline(&pref, &Deadline::none().with_cancel(token))
            .unwrap_err(),
        SkylineError::DeadlineExceeded
    );
}

/// A panic inside a *background* build quarantines its shard: the build thread survives (the
/// rebuild contains the panic), the service keeps answering degraded under a tolerant policy,
/// and the shard heals through the serve-driven backoff rebuild.
#[test]
fn background_build_panic_quarantines_then_recovers() {
    let config = ExperimentConfig {
        n: 240,
        numeric_dims: 2,
        nominal_dims: 2,
        cardinality: 6,
        theta: 1.0,
        pref_order: 2,
        distribution: Distribution::AntiCorrelated,
        seed: 61,
    };
    let data = Arc::new(config.generate_dataset());
    let template = config.template(&data);
    let service = ShardedService::build(
        &data,
        template.clone(),
        EngineConfig::AdaptiveSfs,
        ShardedConfig {
            shards: 3,
            workers: 2,
            degrade: DegradePolicy::Tolerate { max_degraded: 1 },
            recovery: RecoveryPolicy {
                max_attempts: 5,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(20),
            },
            maintenance: Some(MaintenancePolicy {
                dead_row_ratio: 0.01,
                max_mutations_since_rebuild: u64::MAX,
                poll_interval: Duration::from_millis(5),
            }),
            build_threads: 1,
            max_in_flight_builds: 1,
            ..ShardedConfig::default()
        },
    )
    .unwrap();
    let mut generator = QueryGenerator::new(67);
    let pref = generator.random_preference(data.schema(), &template, 2, None);

    // The victim shard's next background build panics. Deleting one of its rows makes the
    // pool's policy due; the nudge comes from the mutation itself.
    let victim = 1;
    service.fault_injector().panic_on_build(victim, 1);
    assert!(service
        .delete_row(GlobalRowId {
            shard: victim,
            row: 0
        })
        .unwrap());

    let deadline = Instant::now() + Duration::from_secs(10);
    while !service.quarantined_shards().contains(&victim) {
        assert!(
            Instant::now() < deadline,
            "build panic never quarantined the shard"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // While quarantined, the service answers degraded — never errors, never caches partials.
    let during = service.serve(&pref).unwrap();
    if during.is_degraded() {
        assert_eq!(during.degraded_shards, vec![victim]);
        assert_eq!(service.cache_len(), 0);
    }

    // The serve-driven backoff rebuild heals it (the failpoint consumed itself above), and
    // the dead row it was quarantined with gets reclaimed by that same rebuild.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let served = service.serve(&pref).unwrap();
        if !served.is_degraded() && service.quarantined_shards().is_empty() {
            break;
        }
        assert!(Instant::now() < deadline, "shard never recovered");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(service.shard(victim).read().dead_rows(), 0);
    let healed = service.serve(&pref).unwrap();
    assert!(!healed.is_degraded());
}

/// One shard is the single-engine service, and its fault isolation is the same machinery: a
/// panic inside the only shard's query is caught — it quarantines shard 0 instead of
/// unwinding into the caller — cached answers keep serving through the quarantine, and an
/// explicit rebuild heals it. Under a tolerant policy the degraded answer is empty.
#[test]
fn a_one_shard_service_contains_its_only_shards_panic() {
    let data = initial_dataset(&vec![
        (vec![1.0, 2.0], vec![0]),
        (vec![2.0, 1.0], vec![1]),
        (vec![0.5, 3.0], vec![2]),
    ]);
    let cached_pref = Preference::from_dims(vec![ImplicitPreference::new([0]).unwrap()]);
    let pref = Preference::from_dims(vec![ImplicitPreference::new([1]).unwrap()]);
    let unavailable = SkylineError::ShardUnavailable { shard: 0 };

    let service = build_service(&data, 1, false);
    let full = service.serve(&cached_pref).unwrap();
    service
        .fault_injector()
        .arm_from_spec("panic-on-shard-query=0:1");
    assert_eq!(service.serve(&pref).unwrap_err(), unavailable);
    assert_eq!(service.quarantined_shards(), vec![0]);
    // The failpoint is spent: it is the quarantine, not another panic, that keeps failing
    // fresh misses closed — while the cached (complete) answer keeps serving.
    assert_eq!(service.serve(&pref).unwrap_err(), unavailable);
    let hit = service.serve(&cached_pref).unwrap();
    assert!(hit.cache_hit && !hit.is_degraded());
    assert_eq!(hit.outcome.skyline, full.outcome.skyline);

    assert!(service.force_rebuild_shard(0).unwrap().is_some());
    assert!(service.quarantined_shards().is_empty());
    let healed = service.serve(&pref).unwrap();
    assert!(!healed.cache_hit && !healed.is_degraded());
    assert_eq!(
        served_values(&service, &healed),
        merge_of_shards(&service, &[0], &pref),
        "the next miss is complete"
    );

    // Tolerate { max_degraded: 1 }: nothing is left to answer from, and nothing is cached.
    let tolerant = build_service(&data, 1, true);
    tolerant
        .fault_injector()
        .arm_from_spec("panic-on-shard-query=0:1");
    for _ in 0..2 {
        let degraded = tolerant.serve(&pref).unwrap();
        assert!(degraded.outcome.skyline.is_empty());
        assert_eq!(degraded.degraded_shards, vec![0]);
        assert!(!degraded.cache_hit);
    }
    assert_eq!(tolerant.cache_len(), 0, "degraded answers are never cached");
    assert_eq!(tolerant.stats().degraded, 2);
}

/// A forced rebuild runs the same rebuild path as the background and recovery ones: the
/// armed `panic-on-build` failpoint fires, the panic is contained and quarantines the shard
/// (the rule a panicking query leg follows), and the next forced rebuild installs a new
/// generation and lifts the quarantine.
#[test]
fn forced_rebuilds_honour_the_build_failpoint_and_contain_the_panic() {
    let data = initial_dataset(&vec![
        (vec![1.0, 2.0], vec![0]),
        (vec![2.0, 1.0], vec![1]),
        (vec![0.5, 3.0], vec![2]),
        (vec![3.0, 0.5], vec![0]),
    ]);
    let service = build_service(&data, 2, false);
    service.fault_injector().arm_from_spec("panic-on-build=1:1");
    let generation = service.shard(1).read().generation().id();

    assert_eq!(
        service.force_rebuild_shard(1).unwrap_err(),
        SkylineError::ShardUnavailable { shard: 1 }
    );
    assert_eq!(service.quarantined_shards(), vec![1]);
    assert!(
        !service.shard(1).read().rebuild_in_flight(),
        "nothing is left armed"
    );
    assert_eq!(service.shard(1).read().generation().id(), generation);

    assert!(service.force_rebuild_shard(1).unwrap().is_some());
    assert!(service.quarantined_shards().is_empty());
    assert_eq!(service.shard(1).read().generation().id(), generation + 1);
    let pref = Preference::from_dims(vec![ImplicitPreference::new([0]).unwrap()]);
    assert!(!service.serve(&pref).unwrap().is_degraded());
}

/// A tolerated partial answer is the skyline of the healthy shards' rows: the global template
/// skyline a degraded request builds covers the healthy shards only, and is never cached.
/// Template `a ≺ *`, row `(1, a)` on shard 1 and row `(2, c)` on shard 0: `(1, a)`
/// template-dominates `(2, c)`, so the complete `G` is `[(1, a)]` — yet with shard 1 past the
/// deadline or quarantined the degraded answer is `[(2, c)]`, batch and streamed. Under
/// `FailClosed` the same requests fail.
#[test]
fn tolerated_answers_keep_rows_dominated_only_on_the_missing_shard() {
    let partition = ShardPartition::HashNominal { dim: 0 };
    let on = |shard| {
        (0..CARD as ValueId)
            .find(|&v| partition.shard_of(2, &[v]) == shard)
            .unwrap()
    };
    let (a, c) = (on(1), on(0));
    let data = initial_dataset(&vec![(vec![1.0, 1.0], vec![a]), (vec![2.0, 2.0], vec![c])]);
    let pref = Preference::from_dims(vec![ImplicitPreference::new([a]).unwrap()]);
    let template = Template::from_preference(data.schema(), pref.clone()).unwrap();
    let healthy_row = vec![GlobalRowId { shard: 0, row: 0 }];
    let build = |degrade| {
        ShardedService::build(
            &data,
            template.clone(),
            EngineConfig::AdaptiveSfs,
            ShardedConfig {
                shards: 2,
                partition: partition.clone(),
                workers: 2,
                degrade,
                recovery: RecoveryPolicy {
                    max_attempts: 0,
                    ..RecoveryPolicy::default()
                },
                ..ShardedConfig::default()
            },
        )
        .unwrap()
    };

    for degrade in [
        DegradePolicy::Tolerate { max_degraded: 1 },
        DegradePolicy::FailClosed,
    ] {
        let tolerant = degrade != DegradePolicy::FailClosed;
        // Shard 1 past the deadline.
        let late = build(degrade);
        late.fault_injector()
            .delay_shard_query(1, Duration::from_millis(100));
        let deadline = || Deadline::within(Duration::from_millis(30));
        let served = late.serve_deadline(&pref, &deadline());
        let stream = late.serve_streaming_deadline(&pref, deadline());
        // Shard 1 quarantined: by a panicking leg, then already before the scatter.
        let broken = build(degrade);
        broken.fault_injector().panic_on_shard_query(1, 1);
        let panicked = broken.serve(&pref);
        let quarantined = broken.serve_streaming(&pref);
        if tolerant {
            for served in [served.unwrap(), panicked.unwrap()] {
                assert_eq!(served.degraded_shards, vec![1]);
                assert_eq!(served.outcome.skyline, healthy_row);
            }
            for stream in [stream.unwrap(), quarantined.unwrap()] {
                assert_eq!(stream.degraded_shards(), [1]);
                assert_eq!(stream.collect_rows().unwrap(), healthy_row);
            }
            // Nothing degraded was cached: with shard 1 back, the next miss builds a complete
            // global template skyline and answers `[(1, a)]`.
            for service in [&late, &broken] {
                service.fault_injector().clear();
                assert!(service.force_rebuild_shard(1).unwrap().is_some());
                let healed = service.serve(&pref).unwrap();
                assert!(!healed.is_degraded() && !healed.cache_hit);
                assert_eq!(healed.outcome.skyline, [GlobalRowId { shard: 1, row: 0 }]);
                let stats = service.stats();
                assert_eq!(stats.template_skyline_builds, 1);
                assert_eq!(stats.global_skyline_rows, 1);
            }
        } else {
            assert_eq!(served.unwrap_err(), SkylineError::DeadlineExceeded);
            assert_eq!(stream.unwrap_err(), SkylineError::DeadlineExceeded);
            let unavailable = SkylineError::ShardUnavailable { shard: 1 };
            assert_eq!(panicked.unwrap_err(), unavailable);
            assert_eq!(quarantined.unwrap_err(), unavailable);
        }
    }
}
