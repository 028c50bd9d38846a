//! Experiment-cell runner shared by the `figures` binary and the Criterion benches.

use skyline::datagen::{nursery, workload::top_k_values, ExperimentConfig};
use skyline::prelude::*;
use skyline_adaptive::AdaptiveSfs;
use skyline_core::stats;
use skyline_ipo::storage;
use skyline_ipo::{BuildStats, IpoTreeBuilder};
use std::time::Instant;

/// Measurements for one evaluated method in one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodMetrics {
    /// Method name as used in the paper's legends (`IPO Tree`, `IPO Tree-10`, `SFS-A`, `SFS-D`).
    pub method: &'static str,
    /// Preprocessing wall-clock seconds (0 for SFS-D, which needs none).
    pub preprocess_seconds: f64,
    /// Average query wall-clock seconds over the workload.
    pub avg_query_seconds: f64,
    /// Number of queries the average was taken over.
    pub queries_run: usize,
    /// Bytes of materialized storage (the raw dataset for SFS-D).
    pub storage_bytes: usize,
}

/// The ratio series of the "(d)" panels, averaged over the query workload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RatioMetrics {
    /// `|SKY(R)| / |D|` in percent.
    pub template_skyline_pct: f64,
    /// `|AFFECT(R)| / |SKY(R)|` in percent.
    pub affected_pct: f64,
    /// `|SKY(R̃′)| / |SKY(R)|` in percent.
    pub query_skyline_pct: f64,
}

/// All measurements for one x-axis point of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Label of the x-axis point (e.g. `"500"` for 500 K tuples, `"5"` for 5 dimensions).
    pub label: String,
    /// Per-method measurements, in legend order.
    pub methods: Vec<MethodMetrics>,
    /// The ratio panel.
    pub ratios: RatioMetrics,
    /// Dataset size used for the cell.
    pub dataset_size: usize,
    /// Template skyline size.
    pub template_skyline_size: usize,
    /// The IPO Tree-10 build's statistics, with its seconds per phase.
    pub ipo_10_build: BuildStats,
}

impl CellResult {
    /// Metrics of one method by its legend name.
    pub fn method(&self, name: &str) -> Option<&MethodMetrics> {
        self.methods.iter().find(|m| m.method == name)
    }
}

/// How many values the truncated tree materializes per dimension (the paper's IPO Tree-10).
pub const TOP_K: usize = 10;

/// Runs one synthetic experiment cell.
///
/// `num_queries` random implicit preferences (the paper uses 100) of order
/// `config.pref_order` are generated; all methods answer the same workload. The expensive
/// SFS-D baseline is run on at most `num_queries.min(5)` of them — its per-query cost does not
/// depend on the preference, so a handful of repetitions gives a stable average.
pub fn run_synthetic_cell(
    config: &ExperimentConfig,
    num_queries: usize,
    label: String,
) -> CellResult {
    let data = config.generate_dataset();
    let template = config.template(&data);
    let mut generator = config.query_generator();
    let queries = generator.random_preferences(
        data.schema(),
        &template,
        config.pref_order,
        num_queries,
        None,
    );
    // A second workload restricted to the materialized values, so the truncated tree can be
    // timed on queries it can actually answer (unpopular values go to the hybrid fallback in
    // practice, see Section 5.3).
    let allowed = top_k_values(&data, TOP_K);
    let popular_queries = generator.random_preferences(
        data.schema(),
        &template,
        config.pref_order,
        num_queries,
        Some(&allowed),
    );
    run_cell_on(data, template, queries, popular_queries, label)
}

/// Runs one cell of the real-data experiment (Figure 8): the Nursery data set with implicit
/// preferences of the given order.
///
/// Unlike the synthetic experiments, the template is empty: every Nursery attribute value is
/// exactly equally frequent (the data set is a full factorial), so a "most frequent value"
/// template would be an arbitrary choice that collapses the template skyline to a single
/// point and makes the whole figure degenerate.
pub fn run_nursery_cell(order: usize, num_queries: usize) -> CellResult {
    let data = nursery::generate();
    let template = Template::empty(data.schema());
    let mut generator = skyline::datagen::QueryGenerator::new(0x0F16_0008);
    let queries = generator.random_preferences(data.schema(), &template, order, num_queries, None);
    let popular = queries.clone(); // cardinality 4 ≤ TOP_K: every value is materialized anyway.
    run_cell_on(data, template, queries, popular, format!("{order}"))
}

fn run_cell_on(
    data: Dataset,
    template: Template,
    queries: Vec<Preference>,
    popular_queries: Vec<Preference>,
    label: String,
) -> CellResult {
    // Shared ownership: every engine below clones the `Arc`, not the data.
    let data = std::sync::Arc::new(data);
    // --- IPO Tree (full materialization). -------------------------------------------------
    let started = Instant::now();
    let ipo_full = IpoTreeBuilder::new()
        .build(&data, &template)
        .expect("full IPO tree builds");
    let ipo_full_build = started.elapsed().as_secs_f64();
    let ipo_full_storage = storage::ipo_tree_storage(&ipo_full).total_bytes();
    let ipo_full_query = time_queries(queries.len(), |i| {
        ipo_full
            .query(&data, &queries[i])
            .expect("materialized query succeeds");
    });

    // --- IPO Tree-10 (truncated to the most frequent values). ------------------------------
    let started = Instant::now();
    let (ipo_10, ipo_10_stats) = IpoTreeBuilder::new()
        .top_k_values(TOP_K)
        .build_with_stats(&data, &template)
        .expect("truncated tree builds");
    let ipo_10_build = started.elapsed().as_secs_f64();
    let ipo_10_storage = storage::ipo_tree_storage(&ipo_10).total_bytes();
    let ipo_10_query = time_queries(popular_queries.len(), |i| {
        ipo_10
            .query(&data, &popular_queries[i])
            .expect("popular-value query succeeds");
    });

    // --- SFS-A (Adaptive SFS). --------------------------------------------------------------
    let started = Instant::now();
    let asfs = AdaptiveSfs::build(data.clone(), &template).expect("adaptive SFS builds");
    let asfs_build = started.elapsed().as_secs_f64();
    let asfs_storage = asfs.approximate_bytes();
    let asfs_query = time_queries(queries.len(), |i| {
        asfs.query(&queries[i]).expect("adaptive query succeeds");
    });

    // --- SFS-D (baseline, no preprocessing). ------------------------------------------------
    let sfsd_engine = SkylineEngine::build(data.clone(), template.clone(), EngineConfig::SfsD)
        .expect("baseline engine builds");
    // At most 5 timed runs (SFS-D is the slow baseline); 0 queries → 0 runs, not a panic.
    let sfsd_runs = queries.len().min(5);
    let sfsd_query = time_queries(sfsd_runs, |i| {
        sfsd_engine
            .query(&queries[i])
            .expect("baseline query succeeds");
    });

    // --- Ratio panel (averaged over the workload, using the IPO answers). --------------------
    let template_skyline = ipo_full.skyline().to_vec();
    let mut ratios = RatioMetrics::default();
    for query in &queries {
        let answer = asfs.query(query).expect("adaptive query succeeds");
        let s = stats::collect_stats(&data, &template_skyline, &answer, query);
        ratios.template_skyline_pct += s.template_skyline_pct();
        ratios.affected_pct += s.affected_pct();
        ratios.query_skyline_pct += s.query_skyline_pct();
    }
    let q = queries.len().max(1) as f64;
    ratios.template_skyline_pct /= q;
    ratios.affected_pct /= q;
    ratios.query_skyline_pct /= q;

    CellResult {
        label,
        methods: vec![
            MethodMetrics {
                method: "IPO Tree",
                preprocess_seconds: ipo_full_build,
                avg_query_seconds: ipo_full_query,
                queries_run: queries.len(),
                storage_bytes: ipo_full_storage,
            },
            MethodMetrics {
                method: "IPO Tree-10",
                preprocess_seconds: ipo_10_build,
                avg_query_seconds: ipo_10_query,
                queries_run: popular_queries.len(),
                storage_bytes: ipo_10_storage,
            },
            MethodMetrics {
                method: "SFS-A",
                preprocess_seconds: asfs_build,
                avg_query_seconds: asfs_query,
                queries_run: queries.len(),
                storage_bytes: asfs_storage,
            },
            MethodMetrics {
                method: "SFS-D",
                preprocess_seconds: 0.0,
                avg_query_seconds: sfsd_query,
                queries_run: sfsd_runs,
                storage_bytes: data.approximate_bytes(),
            },
        ],
        ratios,
        dataset_size: data.len(),
        template_skyline_size: template_skyline.len(),
        ipo_10_build: ipo_10_stats,
    }
}

/// Times `runs` invocations of `f` and returns the average seconds per invocation.
fn time_queries(runs: usize, mut f: impl FnMut(usize)) -> f64 {
    if runs == 0 {
        return 0.0;
    }
    let started = Instant::now();
    for i in 0..runs {
        f(i);
    }
    started.elapsed().as_secs_f64() / runs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline::datagen::Distribution;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            n: 400,
            numeric_dims: 2,
            nominal_dims: 2,
            cardinality: 6,
            theta: 1.0,
            pref_order: 2,
            distribution: Distribution::AntiCorrelated,
            seed: 3,
        }
    }

    #[test]
    fn synthetic_cell_produces_all_four_methods() {
        let cell = run_synthetic_cell(&tiny_config(), 4, "tiny".into());
        assert_eq!(cell.label, "tiny");
        assert_eq!(cell.methods.len(), 4);
        for name in ["IPO Tree", "IPO Tree-10", "SFS-A", "SFS-D"] {
            let m = cell.method(name).unwrap();
            assert!(m.avg_query_seconds >= 0.0);
            assert!(m.storage_bytes > 0, "{name} storage");
        }
        assert!(cell.method("IPO Tree").unwrap().preprocess_seconds > 0.0);
        assert_eq!(cell.method("SFS-D").unwrap().preprocess_seconds, 0.0);
        assert!(cell.ratios.template_skyline_pct > 0.0);
        assert!(cell.ratios.template_skyline_pct <= 100.0);
        assert!(cell.ratios.query_skyline_pct <= 100.0 + 1e-9);
        assert_eq!(cell.dataset_size, 400);
        assert!(cell.template_skyline_size > 0);
        assert!(cell.method("does-not-exist").is_none());
    }

    #[test]
    fn truncated_tree_is_cheaper_than_the_full_tree() {
        let config = ExperimentConfig {
            cardinality: 15,
            ..tiny_config()
        };
        let cell = run_synthetic_cell(&config, 3, "c15".into());
        let full = cell.method("IPO Tree").unwrap();
        let truncated = cell.method("IPO Tree-10").unwrap();
        assert!(truncated.storage_bytes <= full.storage_bytes);
    }

    #[test]
    fn nursery_cell_runs() {
        let cell = run_nursery_cell(2, 3);
        assert_eq!(cell.dataset_size, 12_960);
        assert_eq!(cell.methods.len(), 4);
        assert_eq!(cell.label, "2");
    }
}
