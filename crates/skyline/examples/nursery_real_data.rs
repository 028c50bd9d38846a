//! The paper's real-data experiment (Section 5.2) as an example: the UCI Nursery data set,
//! regenerated exactly (it is the full Cartesian product of its attribute domains), with the
//! two nominal attributes *form of the family* and *number of children*.
//!
//! The example builds the full IPO tree and the Adaptive-SFS structure, runs implicit
//! preferences of order 0–3 (the x-axis of Figure 8) and prints skyline sizes plus the ratios
//! of Figure 8(d).
//!
//! Run with: `cargo run -p skyline --example nursery_real_data --release`

use skyline::datagen::nursery;
use skyline::datagen::workload::top_k_values;
use skyline::prelude::*;
use skyline_core::stats;

fn main() -> Result<()> {
    let data = nursery::generate();
    println!(
        "Nursery data set: {} rows, {} attributes",
        data.len(),
        data.schema().arity()
    );
    println!(
        "Nominal attributes: form (cardinality {}), children (cardinality {})",
        data.schema().nominal_domain(0).unwrap().cardinality(),
        data.schema().nominal_domain(1).unwrap().cardinality()
    );

    // Every Nursery value is exactly equally frequent (the data set is a full factorial), so a
    // "most frequent value" template would be arbitrary and collapse the skyline to one point;
    // the real-data experiment therefore uses an empty template.
    let template = Template::empty(data.schema());
    // One shared copy of the data feeds both engines.
    let data = std::sync::Arc::new(data);
    // `top_k` is clamped to the cardinality: `usize::MAX` is the paper's full IPO tree.
    let engine_ipo = SkylineEngine::build(
        data.clone(),
        template.clone(),
        EngineConfig::Hybrid { top_k: usize::MAX },
    )?;
    let asfs = AdaptiveSfs::build(data.clone(), &template)?;
    let template_skyline = asfs.template_skyline();
    println!(
        "Template skyline: {} points ({:.1}% of the data set)\n",
        template_skyline.len(),
        100.0 * template_skyline.len() as f64 / data.len() as f64
    );

    println!(
        "{:<7} {:>10} {:>12} {:>14} {:>14}",
        "order", "|SKY(R')|", "|AFFECT|/|SKY|", "|SKY(R')|/|SKY|", "methods agree"
    );
    let mut generator = QueryGenerator::new(4_2);
    let allowed = top_k_values(&data, 4);
    for order in 0..=3usize {
        let mut agree = true;
        let mut sky_sizes = 0usize;
        let mut affected_pct = 0.0;
        let mut query_pct = 0.0;
        let runs = 20;
        for _ in 0..runs {
            let pref = generator.random_preference(data.schema(), &template, order, Some(&allowed));
            let ipo_answer = engine_ipo.query(&pref)?.skyline;
            let asfs_answer = asfs.query(&pref)?;
            agree &= ipo_answer == asfs_answer;
            let s = stats::collect_stats(&data, &template_skyline, &ipo_answer, &pref);
            sky_sizes += ipo_answer.len();
            affected_pct += s.affected_pct();
            query_pct += s.query_skyline_pct();
        }
        println!(
            "{:<7} {:>10.0} {:>13.1}% {:>13.1}% {:>14}",
            order,
            sky_sizes as f64 / runs as f64,
            affected_pct / runs as f64,
            query_pct / runs as f64,
            agree
        );
    }
    Ok(())
}
