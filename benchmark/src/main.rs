//! The repo's benchmark: four workloads over `ShardedService`, measured from outside.
//!
//! ```text
//! skyline-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! skyline-benchmark --self-test                                        all four at n = 2000
//! skyline-benchmark --compare A B                                      apply the bounds
//! skyline-benchmark --manifest                                         print BENCHMARK.json
//! ```
//!
//! A run prints every metric by name with its unit, writes `<out>/<workload>.json` (and
//! `<workload>.trace.jsonl` when traced), and ends with one JSON line: `correct`,
//! `attempted`, `failed` and the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.

mod compare;
mod host;
mod json;
mod measure;
mod metrics;
mod openloop;
mod sut;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Outcome, Params, Workload};

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    rustc: String,
    commit: String,
    self_test: bool,
    manifest: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        rustc: "unknown".into(),
        commit: "unknown".into(),
        self_test: false,
        manifest: false,
        compare: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--rustc" => cli.rustc = value("a version string")?,
            "--commit" => cli.commit = value("a commit id")?,
            "--self-test" => cli.self_test = true,
            "--manifest" => cli.manifest = true,
            "--compare" => {
                cli.compare = Some((
                    PathBuf::from(value("two result directories")?),
                    PathBuf::from(
                        args.next()
                            .ok_or("--compare needs two result directories")?,
                    ),
                ))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn metric_row(name: &str, unit: &str, value: f64) -> (String, Json) {
    (
        name.to_string(),
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
    )
}

/// The metrics of the final line: every end-to-end metric (untraced) or every per-layer
/// metric (traced); a layer the workload never entered reads 0.
fn final_metrics(outcome: &Outcome, trace: bool) -> Json {
    let names: Vec<&str> = if trace {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };
    Json::Obj(
        names
            .into_iter()
            .map(|name| {
                let value = outcome.values.get(name).copied().unwrap_or(0.0);
                metric_row(name, metrics::unit(name), value)
            })
            .collect(),
    )
}

fn print_report(w: &Workload, p: &Params, outcome: &Outcome) {
    println!(
        "== {} (seed {}, {} rows, {} s, trace {}) ==",
        w.name, p.seed, p.rows, p.seconds, p.trace as u8
    );
    for m in metrics::END_TO_END {
        if let Some(value) = outcome.values.get(m.name) {
            println!("  {:<34} {:>16.4} {}", m.name, value, m.unit);
        }
    }
    for (name, value) in &outcome.values {
        if metrics::end_to_end(name).is_none() {
            println!("  {:<34} {:>16.4} {}", name, value, metrics::unit(name));
        }
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16.6} ratio ({} of {})",
        "failed_ratio", failed_ratio, outcome.failed, outcome.attempted
    );
    if let Some(digest) = outcome.answer_digest {
        println!("  {:<34} {:>16x}", "answer_digest", digest);
    }
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    println!("  samples: {}", samples.join(" "));
    for flag in &outcome.flags {
        println!("  FLAG: {flag}");
    }
    for problem in &outcome.problems {
        println!("  PROBLEM: {problem}");
    }
    if p.trace {
        let steps = trace::waterfall(&outcome.spans, "request");
        let total: f64 = steps
            .iter()
            .filter(|s| !s.nested)
            .map(|s| s.median_ms)
            .sum();
        println!("  waterfall of the re-walk (median ms per request; nested rows are inside the row above):");
        for step in &steps {
            let name = format!("{}{}", if step.nested { "  " } else { "" }, step.name);
            let share = if step.nested {
                String::new()
            } else {
                format!("{:5.1} %", 100.0 * step.median_ms / total)
            };
            println!(
                "    {:<26} {:<9} {:>10.4} {:>8}  n={}",
                name, step.layer, step.median_ms, share, step.requests
            );
        }
    }
    if p.trace && w.name == "popular_cold" {
        let v = |name: &str| outcome.values.get(name).copied().unwrap_or(0.0);
        let (ipo, sfsa, sfsd) = (
            v("engine.ipo_query_ms"),
            v("engine.sfsa_query_ms"),
            v("engine.sfsd_query_ms"),
        );
        println!(
            "  paper ordering IPO <= SFS-A <= SFS-D per query: {ipo:.3} ms, {sfsa:.3} ms, {sfsd:.3} ms -> {}",
            if ipo <= sfsa && sfsa <= sfsd { "holds" } else { "DOES NOT HOLD" }
        );
    }
}

fn result_file(w: &Workload, cli: &Cli, p: &Params, outcome: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(p.seed as f64)),
        ("rows", Json::Num(p.rows as f64)),
        ("seconds", Json::Num(p.seconds)),
        ("trace", Json::Bool(p.trace)),
        (
            "host",
            host::stamp(&cli.rustc, &cli.commit, &sut::kernel_mode_name()),
        ),
        ("correct", Json::Bool(outcome.problems.is_empty())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "answer_digest",
            outcome
                .answer_digest
                .map_or(Json::Null, |d| Json::str(format!("{d:016x}"))),
        ),
        (
            "metrics",
            Json::Obj(
                outcome
                    .values
                    .iter()
                    .map(|(k, v)| metric_row(k, metrics::unit(k), *v))
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::Obj(
                outcome
                    .samples
                    .iter()
                    .map(|(k, n)| (k.to_string(), Json::Num(*n as f64)))
                    .collect(),
            ),
        ),
        (
            "flags",
            Json::Arr(outcome.flags.iter().map(Json::str).collect()),
        ),
        (
            "problems",
            Json::Arr(outcome.problems.iter().map(Json::str).collect()),
        ),
    ])
}

fn run_workload(w: &Workload, cli: &Cli) -> Result<bool, String> {
    std::fs::create_dir_all(&cli.out_dir)
        .map_err(|e| format!("creating {}: {e}", cli.out_dir.display()))?;
    let params = Params {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        rows: if cli.self_test {
            2000
        } else {
            workloads::DEFAULT_ROWS
        },
        out_dir: cli.out_dir.clone(),
        self_test: cli.self_test,
    };
    let outcome = workloads::run(w, &params)?;
    print_report(w, &params, &outcome);
    if !cli.self_test {
        let stem = if cli.trace {
            format!("{}.traced", w.name)
        } else {
            w.name.to_string()
        };
        let path = cli.out_dir.join(format!("{stem}.json"));
        std::fs::write(&path, result_file(w, cli, &params, &outcome).pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        if cli.trace {
            let path = cli.out_dir.join(format!("{}.trace.jsonl", w.name));
            trace::write_jsonl(&path, &outcome.spans)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        let last = Json::obj([
            ("correct", Json::Bool(outcome.problems.is_empty())),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", final_metrics(&outcome, cli.trace)),
        ]);
        println!("{last}");
    }
    Ok(outcome.problems.is_empty())
}

fn real_main() -> Result<bool, String> {
    let mut cli = parse_cli()?;
    if cli.manifest {
        print!("{}", metrics::manifest().pretty());
        return Ok(true);
    }
    if let Some((a, b)) = &cli.compare {
        return compare::compare(a, b);
    }
    if cli.self_test {
        cli.seconds = 4.0;
        let mut ok = true;
        for w in &workloads::WORKLOADS {
            ok &= run_workload(w, &cli)?;
        }
        println!(
            "self-test: {}",
            if ok {
                "every answer verified"
            } else {
                "FAILED"
            }
        );
        return Ok(ok);
    }
    let name = cli
        .workload
        .as_deref()
        .ok_or("--workload is required (one of the names in BENCHMARK.json)")?;
    let w = workloads::workload(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; expected one of {}",
            names.join(", ")
        )
    })?;
    run_workload(w, &cli)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("skyline-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
