#!/usr/bin/env bash
# Public functions that no other crate calls, and the code that is dead
# once they are narrowed.
#
#   scripts/pub_audit.sh
#
# Copies the worktree (tracked and untracked files, uncommitted edits
# included) to a temporary directory and, there only, narrows to
# `pub(crate)` every `pub fn` of `crates/*/src` and `src/` whose name
# appears in no `.rs` file outside its own crate's `src/`: not in another
# crate, not in `tests/`, `examples/` or `benchmark/`, not in the crate's
# own `tests/`, `examples/` or `benches/`. Then runs
# `cargo check --workspace --lib` on the copy and prints three kinds of
# finding:
#
#   narrow   a `pub fn` named nowhere outside its crate
#   reexport a `pub use` of such a function (rustc's E0364/E0365); the
#            function is left `pub` in the copy so the check can go on
#   dead     rustc's dead-code warnings on the narrowed copy
#
# Exits 0 when there is no finding, 1 when there is one, 2 when the copy
# does not check for another reason. Matching is by name, word for word,
# so a function whose name some other item shares is never a candidate:
# the findings are a lower bound. The worktree is not touched; the check
# builds into target/pub_audit (CARGO_TARGET_DIR overrides that).
# Needs only git, tar, grep, sed, awk and the Rust toolchain.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

root=$PWD
target=${CARGO_TARGET_DIR:-$root/target}/pub_audit
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tree=$tmp/tree
mkdir -p "$tree"
git ls-files -z --cached --others --exclude-standard |
    xargs -0 sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' sh |
    tar -c --null -T - | tar -x -C "$tree"
cd "$tree"

# `file:line:name` for every `pub fn` of one source directory.
decls() {
    grep -rnE --include='*.rs' '^[[:space:]]*pub (const |unsafe |async )*fn [A-Za-z_][A-Za-z0-9_]*' "$1" |
        sed -E 's/^([^:]+:[0-9]+):.*pub (const |unsafe |async )*fn ([A-Za-z_][A-Za-z0-9_]*).*/\1:\3/'
}

: >"$tmp/candidates"
for src in crates/*/src src; do
    decls "$src" >"$tmp/decls"
    [[ -s $tmp/decls ]] || continue
    cut -d: -f3 "$tmp/decls" | sort -u >"$tmp/names"
    # Every `.rs` file outside this source directory that may call it.
    find crates src tests examples benchmark -name '*.rs' -not -path '*/target/*' |
        grep -v "^$src/" >"$tmp/haystack" || true
    xargs grep -ohwF -f "$tmp/names" <"$tmp/haystack" | sort -u >"$tmp/named" || true
    unit=${src#crates/}
    unit=${unit%/src}
    [[ $unit == src ]] && unit=paramecium
    awk -F: -v unit="$unit" '
        NR == FNR { named[$1] = 1; next }
        !($3 in named) { print unit, $1 ":" $2, $3 }
    ' "$tmp/named" "$tmp/decls" >>"$tmp/candidates"
done

# Narrows each candidate in the copy, by its declaration line.
while read -r _ loc _; do
    sed -i -E "${loc#*:}s/pub (const |unsafe |async )*fn /pub(crate) \\1fn /" "${loc%%:*}"
done <"$tmp/candidates"

check() {
    CARGO_TARGET_DIR="$target" cargo check --workspace --lib --offline --quiet \
        --message-format short 2>&1 || true
}
check >"$tmp/check"
# A narrowed function that a `pub use` re-exports: report the re-export
# and put that function back to `pub`, so the rest of the copy checks.
grep -E ': error\[E036[45]\]' "$tmp/check" >"$tmp/reexports" || true
if [[ -s $tmp/reexports ]]; then
    sed -E 's/.*`([A-Za-z0-9_]+)`.*/\1/' "$tmp/reexports" | sort -u >"$tmp/reexported"
    while read -r _ loc name; do
        if grep -qxF "$name" "$tmp/reexported"; then
            sed -i -E "${loc#*:}s/pub\\(crate\\) /pub /" "${loc%%:*}"
        fi
    done <"$tmp/candidates"
    check >"$tmp/check"
fi
if grep -qE ': error' "$tmp/check"; then
    echo "pub_audit.sh: the narrowed copy does not check:" >&2
    grep -E ': error' "$tmp/check" >&2
    exit 2
fi

findings=0
while read -r unit loc name; do
    echo "narrow   $unit $loc $name"
    findings=$((findings + 1))
done <"$tmp/candidates"
while read -r line; do
    echo "reexport $line"
    findings=$((findings + 1))
done <"$tmp/reexports"
while read -r line; do
    echo "dead     $line"
    findings=$((findings + 1))
done < <(grep -E ': warning: .*never (used|read|constructed)' "$tmp/check" | sort -u)
echo "pub_audit.sh: $findings finding(s)"
((findings == 0))
