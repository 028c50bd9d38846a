//! `--compare A B`: applies the bounds of `BENCHMARK.json` (the `metrics` tables it is rendered
//! from) to two sets of result files.
//!
//! `A` (the parent, or the first set of same-code runs) and `B` (the change, or the second
//! set) are directories searched recursively for untraced and traced result files. Per
//! workload row and end-to-end metric the verdict is `ok` (B's median no worse than A's by
//! more than the bound), `REGRESSED`, or `unresolved` (the run-to-run spread exceeds the
//! bound, unless every B run beats every A run). Counts that must repeat exactly per seed —
//! `answer_digest`, `snapshot_bytes_per_row`, `*.dominance_tests`, `merge.*_rows` — must be
//! identical across the runs *of each set*; a value that differs between the sets is what a
//! change to the program looks like and is reported as `changed`, not as a failure. The
//! command fails on a `REGRESSED` row or a count that does not repeat within a set;
//! `unresolved` rows are counted in the last line and do not fail it. Results from different
//! hosts are refused.

use crate::host::same_host;
use crate::json::Json;
use crate::measure::median;
use crate::metrics::{Better, END_TO_END};
use crate::workloads::WORKLOADS;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

const EXACT: [&str; 6] = [
    "snapshot_bytes_per_row",
    "kernel.sfs_dominance_tests",
    "asfs.dominance_tests",
    "merge.input_rows",
    "merge.output_rows",
    "snapshot.bytes",
];

fn collect(dir: &Path, into: &mut Vec<Json>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect(&path, into)?;
        } else if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let value = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            if value.get("workload").is_some() && value.get("metrics").is_some() {
                into.push(value);
            }
        }
    }
    Ok(())
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        let only = x.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let b_always_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if spread(a).max(spread(b)) > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    collect(a_dir, &mut a)?;
    collect(b_dir, &mut b)?;
    if a.is_empty() || b.is_empty() {
        return Err("no result files found on one side".into());
    }
    let host = a[0].get("host").cloned().unwrap_or(Json::Null);
    if let Some(other) = a
        .iter()
        .chain(&b)
        .find(|r| !r.get("host").is_some_and(|h| same_host(h, &host)))
    {
        return Err(format!(
            "refusing to compare results from different hosts: {} vs {}",
            host,
            other.get("host").unwrap_or(&Json::Null)
        ));
    }
    // Rows by verdict: ok, REGRESSED, unresolved.
    let mut tally = [0usize; 3];
    let untraced = |set: &[Json], workload: &str, name: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
            .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
            .filter_map(|r| metric(r, name))
            .collect()
    };
    for workload in WORKLOADS.iter().map(|w| w.name) {
        println!("== {workload} ==");
        println!(
            "  {:<24} {:>5} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
            "metric", "runs", "median A", "median B", "change", "spread", "bound"
        );
        for m in END_TO_END {
            let (xa, xb) = (
                untraced(&a, workload, m.name),
                untraced(&b, workload, m.name),
            );
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let v = verdict(&xa, &xb, m.better, m.bound);
            tally[v as usize] += 1;
            let (ma, mb) = (median(&xa), median(&xb));
            println!(
                "  {:<24} {:>2}/{:<2} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>6.0}%  {}",
                m.name,
                xa.len(),
                xb.len(),
                ma,
                mb,
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                100.0 * spread(&xa).max(spread(&xb)),
                100.0 * m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }

    println!(
        "== exact-repeat counts (identical within a set; between the sets they may change) =="
    );
    let (exact_a, exact_b) = (exact_values(&a), exact_values(&b));
    let keys: BTreeSet<&ExactKey> = exact_a.keys().chain(exact_b.keys()).collect();
    let mut repeats = true;
    for key in keys {
        let (workload, seed, name) = key;
        let describe = |values: Option<&Vec<String>>| match values {
            None => "no runs".to_string(),
            Some(v) if v.windows(2).all(|w| w[0] == w[1]) => format!("{} runs {}", v.len(), v[0]),
            Some(v) => format!("DIFFER {v:?}"),
        };
        let (in_a, in_b) = (exact_a.get(key), exact_b.get(key));
        let (text_a, text_b) = (describe(in_a), describe(in_b));
        repeats &= !text_a.starts_with("DIFFER") && !text_b.starts_with("DIFFER");
        let changed = match (in_a, in_b) {
            (Some(x), Some(y)) if x[0] != y[0] => ", changed",
            _ => "",
        };
        println!("  {workload} seed {seed} {name}: A {text_a}, B {text_b}{changed}");
    }
    println!(
        "compare: {} rows ok, {} REGRESSED, {} unresolved; exact-repeat counts {}",
        tally[0],
        tally[1],
        tally[2],
        if repeats {
            "repeat within each set"
        } else {
            "DO NOT repeat within a set"
        }
    );
    Ok(tally[1] == 0 && repeats)
}

type ExactKey = (String, String, String);

/// The values of one set that must repeat exactly, by (workload, seed, name), one per run.
fn exact_values(set: &[Json]) -> BTreeMap<ExactKey, Vec<String>> {
    let mut exact: BTreeMap<ExactKey, Vec<String>> = BTreeMap::new();
    for result in set {
        let workload = result
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let seed = result.get("seed").map_or("?".into(), Json::to_string);
        if let Some(digest) = result.get("answer_digest").and_then(Json::as_str) {
            exact
                .entry((workload.clone(), seed.clone(), "answer_digest".into()))
                .or_default()
                .push(digest.to_string());
        }
        let clipped = result
            .get("flags")
            .and_then(Json::as_arr)
            .is_some_and(|flags| {
                flags
                    .iter()
                    .any(|f| f.as_str().is_some_and(|f| f.contains("will not repeat")))
            });
        for name in EXACT {
            // A traced run cut short by its time limit says so; its counts are excused. So are
            // the replay's merge rows on the mixed workload: which rows its clamped deletes
            // remove depends on when the background swaps land.
            let timing_dependent = workload == "zipf_mixed" && name.starts_with("merge.");
            if let Some(value) = metric(result, name).filter(|_| !clipped && !timing_dependent) {
                exact
                    .entry((workload.clone(), seed.clone(), name.into()))
                    .or_default()
                    .push(value.to_string());
            }
        }
    }
    exact
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(
                &steady,
                &[10.4, 10.5, 10.3, 10.4, 10.45],
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            verdict(
                &steady,
                &[12.0, 12.1, 11.9, 12.0, 12.05],
                Better::Lower,
                0.10
            ),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.0, 8.05], Better::Higher, 0.10),
            Verdict::Regressed
        );
        // Spread wider than the bound: unresolved — unless every B run beats every A run.
        let noisy = [10.0, 14.0, 7.0, 12.0, 9.0];
        assert_eq!(
            verdict(&noisy, &[10.5, 13.0, 8.0, 11.0, 9.5], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[5.0, 6.5, 4.0, 6.0, 5.5], Better::Lower, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_values_are_grouped_by_workload_and_seed() {
        let run = |seed: f64, bytes: f64, flag: &str| {
            Json::obj([
                ("workload", Json::str("tail_cold")),
                ("seed", Json::Num(seed)),
                ("answer_digest", Json::str("00ff")),
                ("flags", Json::Arr(vec![Json::str(flag)])),
                (
                    "metrics",
                    Json::obj([("snapshot.bytes", Json::obj([("value", Json::Num(bytes))]))]),
                ),
            ])
        };
        let set = [
            run(1.0, 10.0, ""),
            run(1.0, 10.0, ""),
            run(2.0, 12.0, ""),
            // A traced run cut short by its time limit: its counts are excused, its digest not.
            run(2.0, 99.0, "counts will not repeat"),
        ];
        let exact = exact_values(&set);
        let key = |seed: &str, name: &str| ("tail_cold".to_string(), seed.into(), name.into());
        assert_eq!(exact[&key("1", "snapshot.bytes")], ["10", "10"]);
        assert_eq!(exact[&key("2", "snapshot.bytes")], ["12"]);
        assert_eq!(exact[&key("2", "answer_digest")], ["00ff", "00ff"]);
        assert_eq!(exact.len(), 4);
    }
}
