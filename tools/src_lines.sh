#!/usr/bin/env bash
# Non-test source size, per `crates/*/src` and in total, over the lines of each file above its
# first `#[cfg(test)]` — the counting rule the size budgets quote:
#   lines  non-blank, non-`//` lines;
#   pub    public surface: lines that start with `pub ` (items, fields and re-exports;
#          `pub(crate)` and narrower do not count).
# Report only: nothing here gates.
set -euo pipefail
cd "$(dirname "$0")/.."
printf '%-28s %6s %6s\n' "" lines pub
for dir in crates/*/src; do
    find "$dir" -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        {l=$0; sub(/^[ \t]+/,"",l); if (l==""||l~/^\/\//) next; n++; if (l~/^pub /) p++}
        END{print n+0, p+0}' {} + |
        { read -r n p; printf '%-28s %6d %6d\n' "$dir" "$n" "$p"; }
done | awk '{print; lines+=$2; pubs+=$3} END{printf "%-28s %6d %6d\n", "total", lines, pubs}'
