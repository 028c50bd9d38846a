//! The host stamp carried by every result file, and the process's peak memory. Results
//! from different hosts are not comparable; `--compare` refuses them.

use crate::json::Json;

fn cpuinfo_field(info: &str, field: &str) -> Option<String> {
    info.lines()
        .find(|line| line.starts_with(field))
        .and_then(|line| line.split_once(':'))
        .map(|(_, value)| value.trim().to_string())
}

/// `rustc` and `commit` come from `run.sh` (the benchmark binary starts no process itself).
pub fn stamp(rustc: &str, commit: &str, kernel_mode: &str) -> Json {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = cpuinfo_field(&info, "flags").unwrap_or_default();
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "cpu_model",
            Json::str(cpuinfo_field(&info, "model name").unwrap_or_else(|| "unknown".into())),
        ),
        (
            "avx2",
            Json::Bool(flags.split_whitespace().any(|f| f == "avx2")),
        ),
        ("kernel_mode", Json::str(kernel_mode)),
        ("rustc", Json::str(rustc)),
        ("commit", Json::str(commit)),
    ])
}

/// The fields two results must share to be comparable (the commit may differ — comparing
/// commits is the point).
pub fn same_host(a: &Json, b: &Json) -> bool {
    ["nproc", "cpu_model", "avx2", "kernel_mode", "rustc"]
        .iter()
        .all(|k| a.get(k) == b.get(k))
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
