//! The compiled dominance kernel vs. the reference `DominanceContext`, and the Adaptive-SFS
//! template-skyline preprocessing, on the n=2000 hybrid-engine workload of
//! `bench_throughput`.
//!
//! The query arms run the *same* algorithm — score-sort the dataset under the query ranking,
//! then the SFS elimination scan — and differ only in the pairwise dominance implementation:
//!
//! * `legacy_context_scan` — [`DominanceContext`]: per-cell lookups plus a
//!   [`skyline_core::PartialOrder`] closure probe per nominal dimension;
//! * `packed_kernel_scan` — [`CompiledRelation`]: the shared row-major [`Dataset`] plus
//!   per-query closure bitmasks, the accepted window packed into 64-row lane blocks tested
//!   with `u64` mask algebra.
//!
//! `merge_skylines_packed` measures the cross-fragment merge operator the sharded service
//! gathers with, on 8-way fragment skylines of the same workload.
//!
//! `merge_cross_source/{one_source, two_sources_60_40, eight_sources}` put the gather itself
//! under the perf gate at the shape the repo benchmark's `tail_cold` workload gives it:
//! n = 100k paper-default rows, order-3 preferences over all values, every source's exact
//! local skyline (≈ 5k candidates in all) pushed into a fresh [`SkylineMerger`] and merged.
//! One source is the no-test floor (push + tag copy), 60/40 the two-shard gather, eight
//! sources the fan-in where every candidate probes seven foreign lane sets. Each arm batches
//! 24 preferences so that even the floor clears the gate's 1 ms exemption.
//!
//! `asfs_build` times `AdaptiveSfs::build`: one template-score sort of the live rows and one
//! serial SFS scan over them (Algorithm 3). It is the whole
//! preprocessing of the paper's SFS-A; the engine's generation rebuild runs the same pass.

use criterion::{criterion_group, criterion_main, Criterion};
use skyline::prelude::*;
use skyline_core::algo::sfs::Scan;
use skyline_core::score::ScoreFn;
use skyline_core::{merge_skylines, CompiledOrder, SkylineMerger};
use std::hint::black_box;
use std::sync::Arc;

const TUPLES: usize = 2_000;
const POOL: usize = 48;
const QUERIES: usize = 60;

struct Workload {
    data: Arc<Dataset>,
    template: Template,
    queries: Vec<Preference>,
}

fn setup() -> Workload {
    let config = ExperimentConfig {
        n: TUPLES,
        ..ExperimentConfig::paper_default()
    };
    let data = Arc::new(config.generate_dataset());
    let template = config.template(&data);
    let mut generator = config.query_generator();
    let queries = generator.zipf_workload(
        data.schema(),
        &template,
        config.pref_order,
        POOL,
        QUERIES,
        config.theta,
    );
    Workload {
        data,
        template,
        queries,
    }
}

/// One full-dataset elimination pass per query on the given dominance implementation; returns
/// the summed skyline sizes as the black-boxed payload.
fn scan_all<D: Dominance>(
    w: &Workload,
    make: impl Fn(&Preference) -> D,
    sorted: &[Vec<PointId>],
) -> usize {
    w.queries
        .iter()
        .zip(sorted)
        .map(|(pref, order)| {
            let dom = make(pref);
            Scan::presorted(&dom, order).count()
        })
        .sum()
}

fn bench_kernel(c: &mut Criterion) {
    let w = setup();
    // The score-sort is identical in both arms; precompute it so the timing isolates the
    // dominance kernel (the sort is the same O(N log N) constant either way).
    let all: Vec<PointId> = w.data.point_ids().collect();
    let sorted: Vec<Vec<PointId>> = w
        .queries
        .iter()
        .map(|pref| {
            let score = skyline_core::score::ScoreFn::for_preference(w.data.schema(), pref)
                .expect("workload preferences are valid");
            score.sort_by_score(&w.data, &all)
        })
        .collect();

    let mut group = c.benchmark_group("kernel_n2000_hybrid");
    group.sample_size(5);

    group.bench_function("legacy_context_scan", |b| {
        b.iter(|| {
            black_box(scan_all(
                &w,
                |pref| {
                    DominanceContext::for_query(&w.data, &w.template, pref)
                        .expect("workload preferences are valid")
                },
                &sorted,
            ))
        })
    });

    let kernel_scan = |w: &Workload, sorted: &[Vec<PointId>]| {
        scan_all(
            w,
            |pref| {
                CompiledRelation::for_query(w.data.clone(), &w.template, pref)
                    .expect("workload preferences are valid")
            },
            sorted,
        )
    };

    group.bench_function("packed_kernel_scan", |b| {
        b.iter(|| black_box(kernel_scan(&w, &sorted)))
    });

    // The cross-fragment merge operator on 8-way splits: per query, the fragments'
    // skylines are precomputed (that part belongs to the shards), so the arm isolates the
    // gather-side elimination the sharded service runs on every scatter-gather.
    let merge_inputs: Vec<(CompiledRelation, Vec<Vec<PointId>>)> = w
        .queries
        .iter()
        .take(12)
        .map(|pref| {
            let rel = CompiledRelation::for_query(w.data.clone(), &w.template, pref)
                .expect("workload preferences are valid");
            let fragments: Vec<Vec<PointId>> = (0..8)
                .map(|s| {
                    let rows: Vec<PointId> =
                        (0..TUPLES as PointId).filter(|p| p % 8 == s).collect();
                    skyline_core::algo::bnl::skyline_of(&rel, &rows)
                })
                .collect();
            (rel, fragments)
        })
        .collect();
    let merge_all = |inputs: &[(CompiledRelation, Vec<Vec<PointId>>)]| -> usize {
        inputs
            .iter()
            .map(|(rel, fragments)| {
                let views: Vec<&[PointId]> = fragments.iter().map(Vec::as_slice).collect();
                merge_skylines(rel, &views).len()
            })
            .sum()
    };

    group.bench_function("merge_skylines_packed", |b| {
        b.iter(|| black_box(merge_all(&merge_inputs)))
    });

    group.bench_function("asfs_build", |b| {
        b.iter(|| {
            black_box(AdaptiveSfs::build(w.data.clone(), &w.template).expect("build succeeds"))
        })
    });
    group.finish();

    // Extra measured passes reporting the acceptance numbers alongside the timings: three
    // interleaved rounds per arm, best-of taken, so a single noisy pass cannot skew the
    // printed (and locally asserted) speedup.
    let mut legacy = std::time::Duration::MAX;
    let mut packed = std::time::Duration::MAX;
    for _ in 0..3 {
        let started = std::time::Instant::now();
        let legacy_total = scan_all(
            &w,
            |pref| DominanceContext::for_query(&w.data, &w.template, pref).unwrap(),
            &sorted,
        );
        legacy = legacy.min(started.elapsed());
        let started = std::time::Instant::now();
        let packed_total = kernel_scan(&w, &sorted);
        packed = packed.min(started.elapsed());
        assert_eq!(
            legacy_total, packed_total,
            "kernel and reference must produce identical skylines"
        );
    }
    let speedup = legacy.as_secs_f64() / packed.as_secs_f64();
    println!(
        "  summary: {QUERIES} queries at n={TUPLES}; \
         packed kernel speedup {speedup:.1}x over DominanceContext \
         (legacy {:.1}ms, packed {:.1}ms)",
        legacy.as_secs_f64() * 1e3,
        packed.as_secs_f64() * 1e3,
    );
    // Hard-assert only on full local runs; the CI smoke job (SKYLINE_BENCH_SAMPLES set) runs
    // on noisy shared runners where a hard perf gate would flake.
    if std::env::var("SKYLINE_BENCH_SAMPLES").is_err() {
        assert!(
            speedup > 1.5,
            "packed kernel must clearly beat the reference path, got {speedup:.2}x"
        );
    } else if speedup < 1.0 {
        println!("::warning title=kernel bench::packed kernel slower than reference ({speedup:.2}x) in this smoke run");
    }
}

/// Rows and preferences of the `merge_cross_source` arms (the `tail_cold` shape).
const MERGE_TUPLES: usize = 100_000;
const MERGE_QUERIES: usize = 24;

/// One gather per preference: the compiled orders and the `(source, row)` candidates, each
/// source's exact local skyline, sources one after another as the service pushes them.
type GatherInput = (Vec<CompiledOrder>, Vec<(usize, PointId)>);

fn bench_merge_cross_source(c: &mut Criterion) {
    let config = ExperimentConfig {
        n: MERGE_TUPLES,
        ..ExperimentConfig::paper_default()
    };
    let data = Arc::new(config.generate_dataset());
    let template = config.template(&data);
    let prefs = config.query_generator().random_preferences(
        data.schema(),
        &template,
        config.pref_order,
        MERGE_QUERIES,
        None,
    );
    // Splits by row id, so that sources overlap on every nominal value (a hash-nominal
    // partition would hand the zone maps disjoint value sets for free).
    type SourceOf = fn(PointId) -> usize;
    let splits: [(&str, usize, SourceOf); 3] = [
        ("one_source", 1, |_| 0),
        ("two_sources_60_40", 2, |p| usize::from(p % 5 >= 3)),
        ("eight_sources", 8, |p| p as usize % 8),
    ];
    let gather_inputs = |sources: usize, source_of: SourceOf| -> Vec<GatherInput> {
        prefs
            .iter()
            .map(|pref| {
                let rel = CompiledRelation::for_query(data.clone(), &template, pref)
                    .expect("workload preferences are valid");
                let score = ScoreFn::for_preference(data.schema(), pref)
                    .expect("workload preferences are valid");
                let candidates = (0..sources)
                    .flat_map(|s| {
                        let rows: Vec<PointId> =
                            data.point_ids().filter(|&p| source_of(p) == s).collect();
                        let local: Vec<PointId> =
                            Scan::presorted(&rel, &score.sort_by_score(&data, &rows)).collect();
                        local.into_iter().map(move |p| (s, p))
                    })
                    .collect();
                (rel.orders().to_vec(), candidates)
            })
            .collect()
    };

    let mut group = c.benchmark_group("merge_cross_source");
    group.sample_size(5);
    for (name, sources, source_of) in splits {
        let inputs = gather_inputs(sources, source_of);
        group.bench_function(name, |b| {
            b.iter(|| {
                let survivors: usize = inputs
                    .iter()
                    .map(|(orders, candidates)| {
                        let mut merger =
                            SkylineMerger::new(orders.clone(), data.schema().numeric_count());
                        for &(s, p) in candidates {
                            merger
                                .push(s, p, data.numeric_row(p), data.nominal_row(p))
                                .expect("rows match the dataset's own dimensions");
                        }
                        merger.merge().len()
                    })
                    .sum();
                black_box(survivors)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel, bench_merge_cross_source);
criterion_main!(benches);
