//! The benchmark's fixed vocabulary: every metric by name, unit and direction, and the
//! regression bound of each end-to-end metric. `BENCHMARK.json` at the repo root is
//! rendered from these tables (`skyline-benchmark manifest`), and a test keeps the two equal.

use crate::json::Json;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before it counts as a
    /// regression.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one run measures, in seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

use Better::{Higher, Lower};

/// What a user of the service sees (definitions: `benchmark/README.md`). Every workload
/// reports every one of these; where a workload has no separate notion — a batch answer's
/// first row arrives with its last — the metric takes the value the user would observe.
///
/// Bounds: run-to-run quartile spread on the 2-core reference host is 4–16 % for the timing
/// medians (it has slow spells lasting several runs), so they get the 25 % the contract
/// allows at most; tail percentiles and write latency spread wider than that and are
/// per-layer diagnostics instead (README, "Demoted"). `snapshot_bytes_per_row` repeats exactly;
/// its 1 % is room for a later format change (a manifest, a checksum), not for noise —
/// `--compare` checks the exact repeat separately.
#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "cold_start_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "snapshot_bytes_per_row", unit: "B/row", better: Lower, bound: 0.01 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.25 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "latency_mean_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "throughput_qps", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "ttfr_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "t10_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
];

/// Single-layer diagnostics (traced runs). No bounds: they explain an end-to-end change,
/// they do not gate one. A layer a workload never enters reads 0 there.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    PerLayer { name: "datagen.dataset_ms", unit: "ms", better: Lower },
    PerLayer { name: "datagen.workload_ms", unit: "ms", better: Lower },
    PerLayer { name: "canon.key_us", unit: "us", better: Lower },
    PerLayer { name: "canon.compile_orders_us", unit: "us", better: Lower },
    PerLayer { name: "kernel.sfsd_query_ms", unit: "ms", better: Lower },
    PerLayer { name: "kernel.sfs_dominance_tests", unit: "count", better: Lower },
    PerLayer { name: "merge.push_ms", unit: "ms", better: Lower },
    PerLayer { name: "merge.merge_ms", unit: "ms", better: Lower },
    PerLayer { name: "merge.input_rows", unit: "count", better: Lower },
    PerLayer { name: "merge.output_rows", unit: "count", better: Lower },
    PerLayer { name: "merge.survivor_ratio", unit: "ratio", better: Higher },
    PerLayer { name: "snapshot.write_ms", unit: "ms", better: Lower },
    PerLayer { name: "snapshot.load_ms", unit: "ms", better: Lower },
    PerLayer { name: "snapshot.bytes", unit: "B", better: Lower },
    PerLayer { name: "ipo.build_ms", unit: "ms", better: Lower },
    PerLayer { name: "ipo.nodes", unit: "count", better: Lower },
    PerLayer { name: "ipo.bytes", unit: "B", better: Lower },
    PerLayer { name: "ipo.set_query_us", unit: "us", better: Lower },
    PerLayer { name: "ipo.bitmap_query_us", unit: "us", better: Lower },
    PerLayer { name: "ipo.query_stats.nodes_visited", unit: "count", better: Lower },
    PerLayer { name: "ipo.query_stats.set_operations", unit: "count", better: Lower },
    PerLayer { name: "ipo.query_stats.leaf_results", unit: "count", better: Lower },
    PerLayer { name: "asfs.build_ms", unit: "ms", better: Lower },
    PerLayer { name: "asfs.query_ms", unit: "ms", better: Lower },
    PerLayer { name: "asfs.dominance_tests", unit: "count", better: Lower },
    PerLayer { name: "asfs.template_skyline_ratio", unit: "ratio", better: Lower },
    PerLayer { name: "asfs.affected_ratio", unit: "ratio", better: Lower },
    PerLayer { name: "asfs.query_skyline_ratio", unit: "ratio", better: Lower },
    PerLayer { name: "asfs.insert_us", unit: "us", better: Lower },
    PerLayer { name: "asfs.delete_us", unit: "us", better: Lower },
    PerLayer { name: "engine.query_ms", unit: "ms", better: Lower },
    PerLayer { name: "engine.query_max_ms", unit: "ms", better: Lower },
    PerLayer { name: "engine.tree_served_ratio", unit: "ratio", better: Higher },
    PerLayer { name: "engine.check_servable_us", unit: "us", better: Lower },
    PerLayer { name: "engine.rebuild_ms", unit: "ms", better: Lower },
    PerLayer { name: "engine.rebuilds", unit: "count", better: Higher },
    PerLayer { name: "engine.reclaimed_rows", unit: "count", better: Higher },
    PerLayer { name: "engine.ipo_query_ms", unit: "ms", better: Lower },
    PerLayer { name: "engine.sfsa_query_ms", unit: "ms", better: Lower },
    PerLayer { name: "engine.sfsd_query_ms", unit: "ms", better: Lower },
    PerLayer { name: "cache.hit_ratio", unit: "ratio", better: Higher },
    PerLayer { name: "cache.remapped_hits", unit: "count", better: Higher },
    PerLayer { name: "cache.stale_evictions", unit: "count", better: Lower },
    PerLayer { name: "cache.get_us", unit: "us", better: Lower },
    PerLayer { name: "cache.insert_us", unit: "us", better: Lower },
    PerLayer { name: "flight.coalesced", unit: "count", better: Higher },
    PerLayer { name: "admission.shed", unit: "count", better: Lower },
    PerLayer { name: "sharded.serve_miss_ms", unit: "ms", better: Lower },
    PerLayer { name: "sharded.serve_hit_us", unit: "us", better: Lower },
    PerLayer { name: "sharded.layers_sum_ms", unit: "ms", better: Lower },
    PerLayer { name: "sharded.unattributed_ms", unit: "ms", better: Lower },
    PerLayer { name: "sharded.scatter_overlap_ratio", unit: "ratio", better: Lower },
    PerLayer { name: "mixed.closed_loop_ops_per_s", unit: "1/s", better: Higher },
    PerLayer { name: "streaming.ttfr_ms", unit: "ms", better: Lower },
    PerLayer { name: "streaming.per_row_us", unit: "us", better: Lower },
    PerLayer { name: "streaming.vs_batch_ratio", unit: "ratio", better: Lower },
    PerLayer { name: "gen.sent", unit: "count", better: Higher },
    PerLayer { name: "gen.completed", unit: "count", better: Higher },
    PerLayer { name: "gen.late_p99_ms", unit: "ms", better: Lower },
    PerLayer { name: "gen.slo_miss_ratio", unit: "ratio", better: Lower },
    PerLayer { name: "latency_p99_ms", unit: "ms", better: Lower },
    PerLayer { name: "ttfr_p99_ms", unit: "ms", better: Lower },
    PerLayer { name: "write_p50_us", unit: "us", better: Lower },
    PerLayer { name: "write_p75_us", unit: "us", better: Lower },
    PerLayer { name: "trace.overhead_ratio", unit: "ratio", better: Lower },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit of a metric of either table ("" for an unlisted diagnostic).
pub fn unit(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or("")
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate it: benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_and_inside_the_contract() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }
}
