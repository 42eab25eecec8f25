#!/usr/bin/env bash
# Code lines per file, as every simplicity report in CHANGES.md counts them:
# non-blank lines that are not `//` comments (doc comments included), up to
# the first `#[cfg(test)]`.  Usage: scripts/loc.sh <files...>
set -euo pipefail
total=0
for file in "$@"; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
             /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
             { n++ } END { print n + 0 }' "$file")
    printf '%6d  %s\n' "$n" "$file"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
