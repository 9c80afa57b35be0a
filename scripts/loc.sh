#!/usr/bin/env bash
# Lines of non-test code, per crate and in total.
#
#   scripts/loc.sh             the worktree
#   scripts/loc.sh REV         a git revision (a hash, a tag, HEAD~1, ...)
#   scripts/loc.sh BASE HEAD   both revisions: each crate's lines before
#                              and after, and the change, plus the total
#
# Counts every line — code, comments and blank lines alike — of each
# `crates/*/src` and of `src/` that lies outside a `#[cfg(test)]` item.
# The item after the attribute ends at its closing brace, or at the `;`
# or `,` that ends it outside any bracket (`mod tests;`, a test-only
# field). A module file such an item declares (`#[cfg(test)] mod
# convergence;`) is test code as a whole. Braces inside string and char
# literals and `//` comments are ignored. Compound conditions such as
# `#[cfg(any(test, ...))]` count as non-test. Needs only git, tar and awk.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Prints `<unit> <lines>` for every crate and `src`, then `total <lines>`,
# for the tree at $1.
count() {
    local root=$1
# One pass over every file prints `lines <n> <file>` and, for each
# test-only `mod name;`, `testmod <file>` for both places its file may lie.
find "$root/crates"/*/src "$root/src" -name '*.rs' | LC_ALL=C sort | xargs awk '
function strip(s) {
    gsub(/"([^"\\]|\\.)*"/, "\"\"", s)
    gsub(/'\''([^'\''\\]|\\.)'\''/, "'\'' '\''", s)
    sub(/\/\/.*/, "", s)
    return s
}
# Scans `s` as part of the skipped item; returns 1 once the item ends.
function scan(s,   i, c, prev) {
    s = strip(s)
    item = item " " s
    prev = ""
    for (i = 1; i <= length(s); i++) {
        c = substr(s, i, 1)
        if (c == "{") { depth++; opened = 1 }
        else if (c == "}") { if (--depth == 0 && opened) return 1 }
        else if (c == "(" || c == "[") par++
        else if (c == ")" || c == "]") par--
        else if (c == "<" && !opened) ang++
        else if (c == ">" && !opened && prev != "-" && prev != "=" && ang > 0) ang--
        else if ((c == ";" || c == ",") && !depth && !par && !ang) return 1
        prev = c
    }
    return 0
}
FNR == 1 { if (NR > 1) print "lines", n, prev_file; n = 0; skip = 0; prev_file = FILENAME }
{
    if (!skip) {
        if ($0 !~ /^[ \t]*#\[cfg\(test\)\]/) { n++; next }
        skip = 1; depth = 0; par = 0; ang = 0; opened = 0; item = ""
        rest = $0
        sub(/^[ \t]*#\[cfg\(test\)\]/, "", rest)
    } else {
        rest = $0
    }
    if (!scan(rest)) next
    skip = 0
    if (item ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]+[A-Za-z0-9_]+[ \t]*;/) {
        name = item
        sub(/^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]+/, "", name)
        sub(/[ \t]*;.*/, "", name)
        dir = FILENAME
        sub(/\/[^\/]*$/, "", dir)
        base = FILENAME
        sub(/.*\//, "", base)
        if (base != "mod.rs" && base != "lib.rs" && base != "main.rs") {
            sub(/\.rs$/, "", base)
            dir = dir "/" base
        }
        print "testmod", dir "/" name ".rs"
        print "testmod", dir "/" name "/mod.rs"
    }
}
END { if (NR > 0) print "lines", n, prev_file }
' | awk -v root="$root/" '
$1 == "testmod" { test[$2] = 1; next }
{ lines[$3] = $2 }
END {
    for (f in lines) {
        if (f in test) continue
        rel = substr(f, length(root) + 1)
        if (rel ~ /^crates\//) {
            unit = rel
            sub(/^crates\//, "", unit)
            sub(/\/.*/, "", unit)
        } else {
            unit = "src"
        }
        per[unit] += lines[f]
        total += lines[f]
    }
    for (u in per) printf "%-10s %7d\n", u, per[u] | "LC_ALL=C sort"
    close("LC_ALL=C sort")
    printf "%-10s %7d\n", "total", total
}
'
}

# Extracts revision $1 into a fresh directory under $tmp and prints its path.
extract() {
    local dir
    dir="$(mktemp -d -p "$tmp")"
    git archive "$1" -- crates src | tar -x -C "$dir"
    echo "$dir"
}

if (($# == 0)); then
    count .
    exit
fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
if (($# == 1)); then
    count "$(extract "$1")"
    exit
fi
count "$(extract "$1")" >"$tmp/before"
count "$(extract "$2")" >"$tmp/after"
# A crate present on one side only counts 0 lines on the other.
awk '
NR == FNR { before[$1] = $2; seen[$1] = 1; next }
{ after[$1] = $2; seen[$1] = 1 }
END {
    printf "%-10s %7s %7s %7s\n", "crate", "before", "after", "delta"
    for (u in seen) if (u != "total") row(u, "LC_ALL=C sort")
    close("LC_ALL=C sort")
    row("total", "cat")
}
function row(u, out) {
    printf "%-10s %7d %7d %+7d\n", u, before[u], after[u], after[u] - before[u] | out
}
' "$tmp/before" "$tmp/after"
