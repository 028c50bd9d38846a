#!/usr/bin/env bash
# The repo's benchmark, one command. Builds the benchmark package (offline, release) and runs
# it from the repo root so the root `.cargo/config.toml` applies.
#
#   benchmark/run.sh [--seed N] [--workload NAME|all] [--seconds S] [--trace 0|1] [--out DIR]
#   benchmark/run.sh --set NAME [--runs K] [--seed N]    K runs of all four (+ one traced) into out/NAME/
#   benchmark/run.sh --compare A B                       apply the BENCHMARK.json bounds to two sets
#   benchmark/run.sh --self-test                         all four at n = 2000, every answer verified
#   benchmark/run.sh --manifest                          print BENCHMARK.json from the metric tables
#
# Each workload runs in its own process. Without --workload (or with `all`) the four run in
# turn; the command fails if any of them reports a wrong answer.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
bin="$target/release/skyline-benchmark"

stamp=(--rustc "$(rustc --version 2>/dev/null || echo unknown)"
       --commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)")

workload=all
set_name=""
runs=5
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --set) set_name="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --compare) exec "$bin" --compare "$2" "$3" ;;
    --self-test|--manifest) exec "$bin" "$1" --out benchmark/out "${stamp[@]}" ;;
    *) pass+=("$1"); shift ;;
  esac
done

names=(popular_cold tail_cold zipf_mixed stream_first_rows)
if [ -n "$set_name" ]; then
  for i in $(seq 1 "$runs"); do
    for name in "${names[@]}"; do
      "$bin" --workload "$name" --out "benchmark/out/$set_name/run-$i" "${stamp[@]}" "${pass[@]}"
    done
  done
  for name in "${names[@]}"; do
    "$bin" --workload "$name" --trace 1 --out "benchmark/out/$set_name/traced" "${stamp[@]}" "${pass[@]}"
  done
elif [ "$workload" = all ]; then
  for name in "${names[@]}"; do
    "$bin" --workload "$name" "${stamp[@]}" "${pass[@]}"
  done
else
  exec "$bin" --workload "$workload" "${stamp[@]}" "${pass[@]}"
fi
