#!/usr/bin/env bash
# Code lines per file, as every simplicity report in CHANGES.md counts them:
# non-blank lines that are not `//` comments (doc comments included), up to
# the first `#[cfg(test)]`.
#
# Usage: scripts/loc.sh <files...>   one line per file, then the total
#        scripts/loc.sh              the three totals ROADMAP quotes: engine
#                                    src, linalg/src/kernels, every crate's src
set -euo pipefail

count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ } END { print n + 0 }' "$1"
}

total() {
    local sum=0 file
    for file in "$@"; do
        sum=$((sum + $(count "$file")))
    done
    echo "$sum"
}

if [ "$#" -eq 0 ]; then
    cd "$(dirname "$0")/.."
    printf '%6d  %s\n' "$(total crates/engine/src/*.rs)" "crates/engine/src/*.rs"
    printf '%6d  %s\n' "$(total crates/linalg/src/kernels/*.rs)" "crates/linalg/src/kernels/*.rs"
    mapfile -t every < <(find crates -path '*/src/*.rs' | sort)
    printf '%6d  %s\n' "$(total "${every[@]}")" "crates/*/src/**/*.rs"
    exit 0
fi

sum=0
for file in "$@"; do
    n=$(count "$file")
    printf '%6d  %s\n' "$n" "$file"
    sum=$((sum + n))
done
printf '%6d  total\n' "$sum"
