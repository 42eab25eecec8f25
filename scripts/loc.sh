#!/usr/bin/env bash
# Code lines per file, as every simplicity report in CHANGES.md counts them:
# non-blank lines that are not `//` comments (doc comments included), up to
# the first `#[cfg(test)]`.
#
# Usage: scripts/loc.sh <files...>   one line per file, then the total
#        scripts/loc.sh              the three totals ROADMAP quotes: engine
#                                    src, linalg/src/kernels, every crate's src;
#                                    then each crate's `pub` items (fn, struct,
#                                    enum, trait, type, const, static, mod, use
#                                    declared plain `pub`, counted the same way)
set -euo pipefail

count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ } END { print n + 0 }' "$1"
}

pub_items() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*pub[[:space:]]+((unsafe|async|const|extern "C")[[:space:]]+)*(fn|struct|enum|trait|type|const|static|mod|use|union)[[:space:]]/ { n++ }
         END { print n + 0 }' "$1"
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
    echo "   pub  items per crate"
    for crate in crates/*/; do
        sum=0
        while IFS= read -r file; do
            sum=$((sum + $(pub_items "$file")))
        done < <(find "${crate}src" -name '*.rs' | sort)
        printf '%6d  %s\n' "$sum" "${crate}src"
    done
    exit 0
fi

sum=0
for file in "$@"; do
    n=$(count "$file")
    printf '%6d  %s\n' "$n" "$file"
    sum=$((sum + n))
done
printf '%6d  total\n' "$sum"
