#!/usr/bin/env bash
# Count non-test source lines: for every file under crates/*/src, the
# lines before its first `#[cfg(test)]` (the whole file when it has
# none). Prints one "<lines> <file>" row per file, then the total.
#
# Usage:   benches/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r f; do
  awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, f }' "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
