#!/usr/bin/env bash
# Count non-test source lines: for every file under crates/*/src, the
# lines before the `#[cfg(test)]` that opens its test module (the whole
# file when it has none). A `#[cfg(test)]` on anything but a `mod` (a
# test-only `use`, say) is counted like any other line. Prints one
# "<lines> <file>" row per file, then the total.
#
# Usage:   benches/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r f; do
  awk -v f="$f" '
    held && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { held = 0; exit }
    held { n++; held = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
    { n++ }
    END { printf "%6d %s\n", n + held, f }' "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
