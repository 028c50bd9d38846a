//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * set-based vs. bitmap node representation for query evaluation;
//! * Adaptive SFS with the affected-only elimination pass vs. a full SFS rescan. The summary
//!   hard-asserts, on every run, that the affected-only pass performs **at most half** the
//!   dominance tests (an exact count — the ablation once read 0.94× the tests, 1.19× the
//!   time, and nothing failed) and, on a full local run (`SKYLINE_BENCH_SAMPLES` unset), that
//!   it is **≥ 1.5×** faster; the CI smoke job (2 samples on shared runners) only warns on
//!   time. The time bar is not the test ratio (≈ 4×) because at n = 1500 a window is two or
//!   three lane blocks, and one packed pass tests a candidate against a whole 64-lane block
//!   at once, so time falls more slowly than the test count (2.17–2.23× on the 2-core
//!   reference host).

use criterion::{criterion_group, criterion_main, Criterion};
use skyline::datagen::ExperimentConfig;
use skyline_adaptive::{AdaptiveSfs, ScanMode};
use skyline_ipo::{BitmapIpoTree, IpoTreeBuilder};
use std::hint::black_box;
use std::time::{Duration, Instant};

const N: usize = 1_500;
const QUERIES: usize = 10;

fn bench_ablations(c: &mut Criterion) {
    let config = ExperimentConfig {
        n: N,
        cardinality: 12,
        ..ExperimentConfig::paper_default()
    };
    let data = std::sync::Arc::new(config.generate_dataset());
    let template = config.template(&data);
    let mut generator = config.query_generator();
    let queries =
        generator.random_preferences(data.schema(), &template, config.pref_order, QUERIES, None);

    // --- Node representation ablation. ---------------------------------------------------------
    let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
    let bitmap = BitmapIpoTree::from_tree(&tree, &data);
    let mut repr_group = c.benchmark_group("ablation_ipo_query_representation");
    repr_group.sample_size(20);
    repr_group.bench_function("sorted_sets", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(tree.query(&data, q).unwrap());
            }
        })
    });
    repr_group.bench_function("bitmaps", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(bitmap.query(&data, q).unwrap());
            }
        })
    });
    repr_group.finish();

    // --- Adaptive SFS scan mode ablation. -----------------------------------------------------
    let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
    let mut scan_group = c.benchmark_group("ablation_asfs_scan_mode");
    scan_group.sample_size(20);
    scan_group.bench_function("affected_only", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(asfs.query_with_stats(q, ScanMode::AffectedOnly).unwrap());
            }
        })
    });
    scan_group.bench_function("full_rescan", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(asfs.query_with_stats(q, ScanMode::FullRescan).unwrap());
            }
        })
    });
    scan_group.finish();

    // Summary pass: dominance tests (exact) and best-of-5 wall time of the query batch under
    // each scan mode.
    let run = |mode: ScanMode| {
        let count: u64 = queries
            .iter()
            .map(|q| asfs.query_with_stats(q, mode).unwrap().1.dominance_tests)
            .sum();
        let best = (0..5)
            .map(|_| {
                let started = Instant::now();
                for q in &queries {
                    black_box(asfs.query_with_stats(q, mode).unwrap());
                }
                started.elapsed()
            })
            .min()
            .unwrap_or(Duration::ZERO);
        (count, best)
    };
    let (affected_tests, affected) = run(ScanMode::AffectedOnly);
    let (full_tests, full) = run(ScanMode::FullRescan);
    let speedup = full.as_secs_f64() / affected.as_secs_f64();
    println!(
        "  summary: {QUERIES} queries at n={N} — affected_only {:.3}ms / {affected_tests} tests \
         vs full_rescan {:.3}ms / {full_tests} tests ({speedup:.2}x)",
        affected.as_secs_f64() * 1e3,
        full.as_secs_f64() * 1e3,
    );
    assert!(
        affected_tests * 2 <= full_tests,
        "the affected-only scan must need at most half the dominance tests of the full \
         rescan, got {affected_tests} vs {full_tests}"
    );
    if std::env::var("SKYLINE_BENCH_SAMPLES").is_err() {
        assert!(
            speedup >= 1.5,
            "the affected-only scan must be at least 1.5x faster than the full rescan, got \
             {speedup:.2}x (affected_only {affected:?}, full_rescan {full:?})"
        );
    } else if speedup < 1.5 {
        println!("::warning title=ablation bench::smoke-run scan-mode speedup only {speedup:.2}x");
    }
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
