#!/usr/bin/env bash
# Non-blank, non-comment Rust lines per crate and per file, with
# `#[cfg(test)]` modules and `tests/` directories excluded: the number the
# ROADMAP asks PRs to report.
#
#   scripts/loc.sh            every crate (root package `vllm` = src/)
#   scripts/loc.sh FILE...    only the named files, plus their total
#
# A test module is taken to run from a `#[cfg(test)]` line to the next `}`
# in column 0 (how rustfmt lays one out). Block comments are counted as
# code; the workspace has none outside doc examples.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        /^#\[cfg\(test\)\]/ { skip = 1 }
        skip { if ($0 ~ /^}/) skip = 0; next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$1"
}

if [ "$#" -gt 0 ]; then
    total=0
    for f in "$@"; do
        n=$(count "$f")
        total=$((total + n))
        printf '%7d  %s\n' "$n" "$f"
    done
    printf '%7d  total\n' "$total"
    exit 0
fi

grand=0
for dir in src crates/*/src crates/shims/*/src; do
    crate=${dir%/src}
    [ "$crate" = src ] && crate=vllm
    sum=0
    lines=""
    while IFS= read -r f; do
        n=$(count "$f")
        sum=$((sum + n))
        lines+=$(printf '%7d    %s' "$n" "$f")$'\n'
    done < <(find "$dir" -name '*.rs' | sort)
    printf '%7d  %s\n%s' "$sum" "$crate" "$lines"
    grand=$((grand + sum))
done
printf '%7d  workspace (non-test Rust lines)\n' "$grand"
