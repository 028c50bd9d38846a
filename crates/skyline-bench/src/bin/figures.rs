//! Regenerates the paper's evaluation figures (Section 5).
//!
//! ```text
//! cargo run -p skyline-bench --release --bin figures -- all
//! cargo run -p skyline-bench --release --bin figures -- fig4 fig7 --queries 50
//! cargo run -p skyline-bench --release --bin figures -- fig4 --paper-scale   # 250K–1M tuples
//! cargo run -p skyline-bench --release --bin figures -- fig6 --csv out.csv
//! ```
//!
//! By default every sweep runs at a laptop-friendly scale (the shapes — who wins, how the
//! curves grow — are what the reproduction tracks; see EXPERIMENTS.md). `--paper-scale`
//! switches to the exact Table 4 parameters (500 K tuples and the original sweep ranges),
//! which takes hours, exactly as the paper's own preprocessing-time plots indicate.

use skyline::datagen::ExperimentConfig;
use skyline_bench::{
    print_cells, print_figure_header, run_nursery_cell, run_synthetic_cell, CellResult,
};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Options {
    figures: Vec<String>,
    queries: usize,
    paper_scale: bool,
    csv_path: Option<String>,
}

fn parse_args() -> Options {
    let mut figures = Vec::new();
    let mut queries = 0usize;
    let mut paper_scale = false;
    let mut csv_path = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--queries" => {
                queries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--queries needs a number"));
            }
            "--paper-scale" => paper_scale = true,
            "--csv" => csv_path = Some(args.next().unwrap_or_else(|| usage("--csv needs a path"))),
            "--help" | "-h" => usage(""),
            name if name.starts_with("fig")
                || name == "all"
                || name == "hybrid"
                || name == "table4" =>
            {
                figures.push(name.to_string());
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if figures.is_empty() || figures.iter().any(|f| f == "all") {
        figures = vec!["table4", "fig4", "fig5", "fig6", "fig7", "fig8", "hybrid"]
            .into_iter()
            .map(String::from)
            .collect();
    }
    if queries == 0 {
        queries = if paper_scale { 100 } else { 20 };
    }
    Options {
        figures,
        queries,
        paper_scale,
        csv_path,
    }
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: figures [table4|fig4|fig5|fig6|fig7|fig8|hybrid|all]... [--queries N] [--paper-scale] [--csv PATH]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}

fn base_config(paper_scale: bool) -> ExperimentConfig {
    if paper_scale {
        ExperimentConfig::paper_default()
    } else {
        // Scaled-down defaults: same shape as Table 4, laptop-sized N.
        ExperimentConfig {
            n: 8_000,
            ..ExperimentConfig::paper_default()
        }
    }
}

fn main() {
    let options = parse_args();
    let mut csv = String::new();
    for figure in &options.figures {
        let (x_axis, cells) = match figure.as_str() {
            "table4" => {
                print_table4(&base_config(options.paper_scale));
                continue;
            }
            "fig4" => run_fig4(&options),
            "fig5" => run_fig5(&options),
            "fig6" => run_fig6(&options),
            "fig7" => run_fig7(&options),
            "fig8" => run_fig8(&options),
            "hybrid" => {
                run_hybrid(&options);
                continue;
            }
            other => {
                eprintln!("skipping unknown figure `{other}`");
                continue;
            }
        };
        print_cells(&x_axis, &cells);
        csv.push_str(&skyline_bench::report::to_csv(&x_axis, &cells));
    }
    if let Some(path) = &options.csv_path {
        std::fs::write(path, csv).expect("write CSV output");
        println!("CSV written to {path}");
    }
}

fn print_table4(config: &ExperimentConfig) {
    println!("==== Table 4 — default experimental parameters ====");
    let rows: BTreeMap<&str, String> = BTreeMap::from([
        ("No. of tuples", config.n.to_string()),
        ("No. of numeric dimensions", config.numeric_dims.to_string()),
        ("No. of nominal dimensions", config.nominal_dims.to_string()),
        (
            "No. of values in a nominal dimension",
            config.cardinality.to_string(),
        ),
        ("Zipfian parameter theta", format!("{}", config.theta)),
        (
            "Order of implicit preference",
            config.pref_order.to_string(),
        ),
        ("Distribution", config.distribution.name().to_string()),
    ]);
    for (k, v) in rows {
        println!("  {k:<40} {v}");
    }
}

fn run_fig4(options: &Options) -> (String, Vec<CellResult>) {
    print_figure_header(
        "Figure 4",
        "No. of points (in thousands)",
        "scalability with respect to database size",
    );
    let base = base_config(options.paper_scale);
    let sizes: Vec<usize> = if options.paper_scale {
        vec![250_000, 500_000, 750_000, 1_000_000]
    } else {
        vec![base.n / 2, base.n, base.n * 3 / 2, base.n * 2]
    };
    let cells: Vec<CellResult> = sizes
        .into_iter()
        .map(|n| {
            let config = ExperimentConfig { n, ..base.clone() };
            run_synthetic_cell(&config, options.queries, format!("{}", n / 1000))
        })
        .collect();
    // Figure 4(a): SFS-A's one sorted scan preprocesses faster than building even the
    // truncated IPO tree, at every database size of the sweep.
    let preprocess =
        |cell: &CellResult, method| cell.method(method).map_or(0.0, |m| m.preprocess_seconds);
    let pairs: Vec<(f64, f64)> = cells
        .iter()
        .map(|cell| (preprocess(cell, "SFS-A"), preprocess(cell, "IPO Tree-10")))
        .collect();
    // The truncated tree's build by phase: the waterfall README's phase table quotes.
    println!("  IPO Tree-10 build [ms]: SKY(∅) / SKY(R) / mining / node sets, of the total");
    for cell in &cells {
        let b = &cell.ipo_10_build;
        println!(
            "    {:>5}K  {:.1} / {:.1} / {:.1} / {:.1}, of {:.1}",
            cell.label,
            b.base_skyline_seconds * 1e3,
            b.template_skyline_seconds * 1e3,
            b.mining_seconds * 1e3,
            b.node_sets_seconds * 1e3,
            b.build_seconds * 1e3,
        );
    }
    let below = pairs.iter().all(|&(sfs_a, ipo_10)| sfs_a < ipo_10);
    let seconds: Vec<String> = pairs
        .iter()
        .map(|(sfs_a, ipo_10)| format!("{sfs_a:.3}/{ipo_10:.3}"))
        .collect();
    println!(
        "  check: preprocessing s, SFS-A/IPO Tree-10 by size {} — SFS-A is {}",
        seconds.join(" "),
        if below {
            "below at every size, ok"
        } else {
            "NOT below at every size"
        },
    );
    if !below {
        std::process::exit(1);
    }
    ("points(K)".to_string(), cells)
}

fn run_fig5(options: &Options) -> (String, Vec<CellResult>) {
    print_figure_header(
        "Figure 5",
        "No. of dimensions (3 numeric + 1..4 nominal)",
        "scalability with respect to dimensionality",
    );
    let base = base_config(options.paper_scale);
    // The full IPO tree has O(c^{m'}) nodes, so the 4-nominal-dimension cell is by far the
    // heaviest experiment of the paper (its Figure 5(a) tops out near 10^6 seconds). At the
    // scaled default we therefore also scale the cardinality and N down for this sweep;
    // `--paper-scale` keeps the original Table 4 values.
    let (n, cardinality) = if options.paper_scale {
        (base.n, base.cardinality)
    } else {
        (base.n / 2, 10)
    };
    let cells = (1..=4usize)
        .map(|nominal| {
            let config = ExperimentConfig {
                n,
                cardinality,
                nominal_dims: nominal,
                ..base.clone()
            };
            run_synthetic_cell(&config, options.queries, format!("{}", config.total_dims()))
        })
        .collect();
    ("dims".to_string(), cells)
}

fn run_fig6(options: &Options) -> (String, Vec<CellResult>) {
    print_figure_header(
        "Figure 6",
        "cardinality of nominal attribute",
        "effect of nominal cardinality",
    );
    let base = base_config(options.paper_scale);
    let cardinalities: Vec<usize> = if options.paper_scale {
        vec![10, 15, 20, 25, 30, 35, 40]
    } else {
        vec![10, 20, 30, 40]
    };
    let cells = cardinalities
        .into_iter()
        .map(|cardinality| {
            let config = ExperimentConfig {
                cardinality,
                ..base.clone()
            };
            run_synthetic_cell(&config, options.queries, cardinality.to_string())
        })
        .collect();
    ("cardinality".to_string(), cells)
}

fn run_fig7(options: &Options) -> (String, Vec<CellResult>) {
    print_figure_header(
        "Figure 7",
        "order of implicit preference",
        "effect of preference order",
    );
    let base = base_config(options.paper_scale);
    let cells: Vec<CellResult> = (1..=4usize)
        .map(|order| {
            let config = ExperimentConfig {
                pref_order: order,
                ..base.clone()
            };
            run_synthetic_cell(&config, options.queries, order.to_string())
        })
        .collect();
    // Under the most-frequent-value template an order-1 query *is* the template: SFS-A
    // answers it with a copy of the stored skyline, so it must be the cheapest point.
    let sfs_a: Vec<f64> = cells
        .iter()
        .map(|cell| cell.method("SFS-A").map_or(0.0, |m| m.avg_query_seconds))
        .collect();
    let cheapest = sfs_a[1..].iter().all(|&higher| sfs_a[0] < higher);
    let millis: Vec<String> = sfs_a.iter().map(|s| format!("{:.4}", s * 1e3)).collect();
    println!(
        "  check: SFS-A query ms by order {} — order 1 (query = template) is {}",
        millis.join(" / "),
        if cheapest {
            "the cheapest, ok"
        } else {
            "NOT the cheapest"
        },
    );
    if !cheapest {
        std::process::exit(1);
    }
    ("order".to_string(), cells)
}

fn run_fig8(options: &Options) -> (String, Vec<CellResult>) {
    print_figure_header(
        "Figure 8",
        "order of implicit preference",
        "real data set (UCI Nursery)",
    );
    let cells: Vec<CellResult> = (0..=3usize)
        .map(|order| run_nursery_cell(order, options.queries))
        .collect();
    // Figure 8(b): the baseline scans the whole relation per query, so it must be the slowest
    // method at every order.
    let pairs: Vec<(f64, f64)> = cells
        .iter()
        .map(|cell| {
            let sfs_d = cell.method("SFS-D").map_or(0.0, |m| m.avg_query_seconds);
            let others = cell
                .methods
                .iter()
                .filter(|m| m.method != "SFS-D")
                .map(|m| m.avg_query_seconds)
                .fold(0.0, f64::max);
            (sfs_d, others)
        })
        .collect();
    let slowest = pairs.iter().all(|&(sfs_d, others)| sfs_d > others);
    let millis: Vec<String> = pairs
        .iter()
        .map(|(sfs_d, others)| format!("{:.4}/{:.4}", sfs_d * 1e3, others * 1e3))
        .collect();
    println!(
        "  check: query ms, SFS-D/slowest other by order {} — SFS-D is {}",
        millis.join(" "),
        if slowest {
            "the slowest at every order, ok"
        } else {
            "NOT the slowest at every order"
        },
    );
    if !slowest {
        std::process::exit(1);
    }
    ("order".to_string(), cells)
}

/// The §5.3 observation: a hybrid of IPO Tree (popular values) and SFS-A (everything else).
fn run_hybrid(options: &Options) {
    use skyline::prelude::*;
    use std::time::Instant;

    print_figure_header(
        "Section 5.3",
        "strategy",
        "hybrid IPO-tree + Adaptive-SFS evaluation",
    );
    let config = ExperimentConfig {
        cardinality: 20,
        ..base_config(options.paper_scale)
    };
    let data = config.generate_dataset();
    let template = config.template(&data);
    let mut generator = config.query_generator();
    let queries = generator.random_preferences(
        data.schema(),
        &template,
        config.pref_order,
        options.queries.max(20),
        None,
    );
    // Wrap once outside the timed sections: each engine below clones the Arc, not the data.
    let data = std::sync::Arc::new(data);

    for (name, engine_config) in [
        (
            "Hybrid (IPO-10 + SFS-A)",
            EngineConfig::Hybrid { top_k: 10 },
        ),
        (
            "IPO Tree (full)",
            EngineConfig::Hybrid { top_k: usize::MAX },
        ),
        ("SFS-A", EngineConfig::AdaptiveSfs),
    ] {
        let build_start = Instant::now();
        let engine = SkylineEngine::build(data.clone(), template.clone(), engine_config)
            .expect("engine builds");
        let build_s = build_start.elapsed().as_secs_f64();
        let mut tree_answers = 0usize;
        let query_start = Instant::now();
        for query in &queries {
            let outcome = engine.query(query).expect("query succeeds");
            if outcome.method == MethodUsed::IpoTree {
                tree_answers += 1;
            }
        }
        let per_query = query_start.elapsed().as_secs_f64() / queries.len() as f64;
        println!(
            "  {name:<26} preprocess {build_s:>9.3} s   avg query {per_query:>10.6} s   answered by tree: {tree_answers}/{}",
            queries.len()
        );
    }
    println!(
        "  (Distribution {} with theta={} — popular values cover most random preferences.)",
        config.distribution.name(),
        config.theta
    );
}
