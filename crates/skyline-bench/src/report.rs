//! Plain-text reporting of experiment cells in the layout of the paper's figures.

use crate::harness::CellResult;

/// Prints the figure banner: which figure of the paper the following series reproduce.
pub fn print_figure_header(figure: &str, x_axis: &str, description: &str) {
    println!();
    println!("==== {figure} — {description} ====");
    println!(
        "(x-axis: {x_axis}; times in seconds, storage in MB; series as in the paper's legend)"
    );
}

/// Prints the four panels — preprocessing time, query time, storage and ratios — for a sweep.
pub fn print_cells(x_axis: &str, cells: &[CellResult]) {
    let methods = ["IPO Tree", "IPO Tree-10", "SFS-A", "SFS-D"];

    println!();
    println!("(a) preprocessing time [s]");
    print!("{:<14}", x_axis);
    for m in &methods[..3] {
        print!("{m:>14}");
    }
    println!();
    for cell in cells {
        print!("{:<14}", cell.label);
        for m in &methods[..3] {
            print!(
                "{:>14.4}",
                cell.method(m).map_or(0.0, |x| x.preprocess_seconds)
            );
        }
        println!();
    }

    println!();
    println!("(b) query time [s]");
    print!("{:<14}", x_axis);
    for m in &methods {
        print!("{m:>14}");
    }
    println!();
    for cell in cells {
        print!("{:<14}", cell.label);
        for m in &methods {
            print!(
                "{:>14.6}",
                cell.method(m).map_or(0.0, |x| x.avg_query_seconds)
            );
        }
        println!();
    }

    println!();
    println!("(c) storage [MB]");
    print!("{:<14}", x_axis);
    for m in &methods {
        print!("{m:>14}");
    }
    println!();
    for cell in cells {
        print!("{:<14}", cell.label);
        for m in &methods {
            let mb = cell
                .method(m)
                .map_or(0.0, |x| x.storage_bytes as f64 / (1024.0 * 1024.0));
            print!("{mb:>14.3}");
        }
        println!();
    }

    println!();
    println!("(d) percentages [%]");
    println!(
        "{:<14}{:>18}{:>24}{:>22}",
        x_axis, "|SKY(R)|/|D|", "|AFFECT(R)|/|SKY(R)|", "|SKY(R')|/|SKY(R)|"
    );
    for cell in cells {
        println!(
            "{:<14}{:>18.2}{:>24.2}{:>22.2}",
            cell.label,
            cell.ratios.template_skyline_pct,
            cell.ratios.affected_pct,
            cell.ratios.query_skyline_pct
        );
    }
    println!();
}

/// Renders a sweep as machine-readable CSV (one row per cell and method).
pub fn to_csv(x_axis: &str, cells: &[CellResult]) -> String {
    let mut out = String::from(
        "x_axis,label,method,preprocess_s,avg_query_s,storage_bytes,queries,sky_pct,affect_pct,query_sky_pct\n",
    );
    for cell in cells {
        for m in &cell.methods {
            out.push_str(&format!(
                "{x_axis},{},{},{:.6},{:.6},{},{},{:.3},{:.3},{:.3}\n",
                cell.label,
                m.method,
                m.preprocess_seconds,
                m.avg_query_seconds,
                m.storage_bytes,
                m.queries_run,
                cell.ratios.template_skyline_pct,
                cell.ratios.affected_pct,
                cell.ratios.query_skyline_pct,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{MethodMetrics, RatioMetrics};

    fn fake_cell(label: &str) -> CellResult {
        CellResult {
            label: label.to_string(),
            methods: vec![
                MethodMetrics {
                    method: "IPO Tree",
                    preprocess_seconds: 1.5,
                    avg_query_seconds: 0.001,
                    queries_run: 10,
                    storage_bytes: 2 * 1024 * 1024,
                },
                MethodMetrics {
                    method: "SFS-D",
                    preprocess_seconds: 0.0,
                    avg_query_seconds: 0.25,
                    queries_run: 5,
                    storage_bytes: 1024,
                },
            ],
            ratios: RatioMetrics {
                template_skyline_pct: 12.5,
                affected_pct: 40.0,
                query_skyline_pct: 80.0,
            },
            dataset_size: 1000,
            template_skyline_size: 125,
            ipo_10_build: skyline_ipo::BuildStats::default(),
        }
    }

    #[test]
    fn csv_contains_every_method_row() {
        let csv = to_csv("n", &[fake_cell("250"), fake_cell("500")]);
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.contains("n,250,IPO Tree,1.500000"));
        assert!(csv.contains("n,500,SFS-D,0.000000"));
        assert!(csv.lines().next().unwrap().starts_with("x_axis,"));
    }

    #[test]
    fn printing_does_not_panic() {
        print_figure_header(
            "Figure 4",
            "tuples (thousands)",
            "scalability with database size",
        );
        print_cells("n", &[fake_cell("250")]);
    }
}
