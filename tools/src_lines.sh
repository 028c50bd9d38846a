#!/usr/bin/env bash
# Non-test source size: per file, the non-blank, non-`//` lines above the first `#[cfg(test)]`,
# summed per `crates/*/src` and in total — the counting rule the size budgets quote.
set -euo pipefail
cd "$(dirname "$0")/.."
for dir in crates/*/src; do
    find "$dir" -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        {l=$0; sub(/^[ \t]+/,"",l); if (l==""||l~/^\/\//) next; n++} END{print n+0}' {} + |
        { read -r n; printf '%-28s %6d\n' "$dir" "$n"; }
done | awk '{print; total+=$2} END{printf "%-28s %6d\n", "total", total}'
