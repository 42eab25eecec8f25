#!/usr/bin/env bash
# Code lines per file, as every simplicity report in CHANGES.md counts them:
# non-blank lines that are not `//` comments (doc comments included), up to
# the first `#[cfg(test)]`.
#
# Usage: scripts/loc.sh <files...>   one line per file, then the total
#        scripts/loc.sh              the four totals ROADMAP quotes: engine
#                                    src, linalg/src/kernels, every crate's src,
#                                    the root tests (tests/**/*.rs, shared
#                                    modules included, each file counted whole
#                                    unless it holds a `#[cfg(test)]`);
#                                    then each crate's `pub` items (fn, struct,
#                                    enum, trait, type, const, static, mod, use
#                                    declared plain `pub`, counted the same way)
#        scripts/loc.sh --against <rev>
#                                    the parent -> change table, as Markdown:
#                                    per `crates/*/src` or `tests` file the
#                                    diff from <rev> to the working tree
#                                    touches (or adds, untracked), its
#                                    code lines at <rev> and now and the delta;
#                                    then the four totals and each crate's
#                                    `pub` items on both sides
#        scripts/loc.sh --unused     every `pub fn`, `pub struct`, `pub enum`,
#                                    `pub trait` and `pub type` under
#                                    crates/*/src whose name appears in no
#                                    other code line of crates/*/src, src,
#                                    examples or benchmark/src (each file cut
#                                    at `#[cfg(test)]`, `//` lines dropped), as
#                                    `<file>:<line>  <name>` for a function and
#                                    `<file>:<line>  <kind> <name>` for a type.
#                                    Names match as bare words, so an unused
#                                    item whose name is a common word on other
#                                    lines (a method `objective` beside a field
#                                    `objective`) never shows: grep such names
#                                    as `.name(` by hand
#        scripts/loc.sh --ratchet    the --unused list as `<file>  <name>` pairs
#                                    (line numbers and kinds dropped) against
#                                    scripts/unused-baseline.txt: prints the
#                                    pairs that left the list (delete them from
#                                    the baseline), then the pairs the baseline
#                                    lacks, and exits 1 if there is one of those
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

# The four totals, then each crate's `pub` items, one `<number>\t<label>`
# line each, for the tree rooted at the current directory.
summary() {
    local crate file sum every
    printf '%s\t%s\n' "$(total crates/engine/src/*.rs)" "crates/engine/src/*.rs"
    printf '%s\t%s\n' "$(total crates/linalg/src/kernels/*.rs)" "crates/linalg/src/kernels/*.rs"
    mapfile -t every < <(find crates -path '*/src/*.rs' | sort)
    printf '%s\t%s\n' "$(total "${every[@]}")" "crates/*/src/**/*.rs"
    mapfile -t every < <(find tests -name '*.rs' | sort)
    printf '%s\t%s\n' "$(total "${every[@]}")" "tests/**/*.rs"
    for crate in crates/*/; do
        sum=0
        while IFS= read -r file; do
            sum=$((sum + $(pub_items "$file")))
        done < <(find "${crate}src" -name '*.rs' | sort)
        printf '%s\t%s\n' "$sum" "${crate}src"
    done
}

# The code lines of the given files, as `count` counts them.
code_lines() {
    awk 'FNR == 1 { done = 0 }
         done { next }
         /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1; next }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { print }' "$@"
}

# Every `pub fn` / `struct` / `enum` / `trait` / `type` of crates/*/src
# whose name no other code line uses: one line each, in file order.
unused() {
    local every corpus
    mapfile -t every < <(find crates -path '*/src/*.rs' | sort)
    mapfile -t corpus < <(find crates/*/src src examples benchmark/src -name '*.rs' | sort)
    # Per pub item: where, its kind and name, and how often the name is a
    # word of its own declaration line; then how often each word occurs in
    # the corpus.
    awk 'FNR == 1 { done = 0 }
         done { next }
         /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1; next }
         match($0, /^[[:space:]]*pub[[:space:]]+((unsafe|async|const|extern "C")[[:space:]]+)*(fn|struct|enum|trait|type)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) {
             decl = substr($0, RSTART, RLENGTH)
             name = decl
             sub(/.*[[:space:]]/, "", name)
             kind = decl
             sub(/[[:space:]]+[A-Za-z_][A-Za-z0-9_]*$/, "", kind)
             sub(/.*[[:space:]]/, "", kind)
             own = 0
             line = $0
             while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                 own += substr(line, RSTART, RLENGTH) == name
                 line = substr(line, RSTART + RLENGTH)
             }
             print "decl", FILENAME ":" FNR, kind, name, own
         }' "${every[@]}" |
        cat - <(code_lines "${corpus[@]}" | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c) |
        awk '$1 == "decl" { at[++n] = $2; kind[n] = $3; name[n] = $4; own[n] = $5; next }
             { seen[$2] = $1 }
             END {
                 for (i = 1; i <= n; i++) {
                     if (seen[name[i]] != own[i]) continue
                     if (kind[i] == "fn") printf "%s  %s\n", at[i], name[i]
                     else printf "%s  %s %s\n", at[i], kind[i], name[i]
                 }
             }'
}

# One Markdown row: label, parent, change, signed delta (U+2212 for minus).
row() {
    local delta=$(($3 - $2))
    if [ "$delta" -lt 0 ]; then
        delta="−$((-delta))"
    elif [ "$delta" -gt 0 ]; then
        delta="+$delta"
    fi
    echo "| $1 | $2 | $3 | $delta |"
}

if [ "$#" -eq 0 ]; then
    cd "$(dirname "$0")/.."
    line=0
    while IFS=$'\t' read -r n label; do
        line=$((line + 1))
        [ "$line" -eq 5 ] && echo "   pub  items per crate"
        printf '%6d  %s\n' "$n" "$label"
    done < <(summary)
    exit 0
fi

if [ "$1" = "--unused" ]; then
    [ "$#" -eq 1 ] || { echo "usage: $0 --unused" >&2; exit 2; }
    cd "$(dirname "$0")/.."
    unused
    exit 0
fi

if [ "$1" = "--ratchet" ]; then
    [ "$#" -eq 1 ] || { echo "usage: $0 --ratchet" >&2; exit 2; }
    cd "$(dirname "$0")/.."
    baseline=scripts/unused-baseline.txt
    current=$(unused | awk '{ sub(/:[0-9]+$/, "", $1); print $1 "  " $NF }' | LC_ALL=C sort -u)
    gone=$(LC_ALL=C comm -23 "$baseline" <(printf '%s\n' "$current" | sed '/^$/d'))
    new=$(LC_ALL=C comm -13 "$baseline" <(printf '%s\n' "$current" | sed '/^$/d'))
    if [ -n "$gone" ]; then
        echo "no longer unused; delete from $baseline:"
        printf '%s\n' "$gone"
    fi
    if [ -n "$new" ]; then
        echo "unused pub items missing from $baseline (give each a caller, make it private or delete it):"
        printf '%s\n' "$new"
        exit 1
    fi
    exit 0
fi

if [ "$1" = "--against" ]; then
    [ "$#" -eq 2 ] || { echo "usage: $0 --against <rev>" >&2; exit 2; }
    cd "$(dirname "$0")/.."
    rev=$2
    git rev-parse --verify --quiet "$rev^{commit}" > /dev/null \
        || { echo "$0: unknown revision $rev" >&2; exit 2; }
    parent=$(mktemp -d)
    trap 'rm -rf "$parent"' EXIT
    while IFS= read -r path; do
        mkdir -p "$parent/$(dirname "$path")"
        git show "$rev:$path" > "$parent/$path"
    done < <(git ls-tree -r --name-only "$rev" -- crates tests \
        | grep -E '^(crates/[^/]*/src|tests)/.*\.rs$')
    mkdir -p "$parent/tests"

    echo "| file | parent | change | Δ |"
    echo "|---|---|---|---|"
    while IFS= read -r path; do
        before=0
        after=0
        [ -f "$parent/$path" ] && before=$(count "$parent/$path")
        [ -f "$path" ] && after=$(count "$path")
        row "$path" "$before" "$after"
    done < <( (git diff --name-only "$rev" -- crates tests
               git ls-files --others --exclude-standard -- tests) \
        | grep -E '^(crates/[^/]*/src|tests)/.*\.rs$' | sort -u || true)

    echo
    echo "| total | parent | change | Δ |"
    echo "|---|---|---|---|"
    line=0
    while IFS=$'\t' read -r before label after _; do
        line=$((line + 1))
        [ "$line" -gt 4 ] && label="\`pub\` items, $label"
        row "$label" "$before" "$after"
    done < <(paste <(cd "$parent" && summary) <(summary))
    exit 0
fi

sum=0
for file in "$@"; do
    n=$(count "$file")
    printf '%6d  %s\n' "$n" "$file"
    sum=$((sum + n))
done
printf '%6d  total\n' "$sum"
