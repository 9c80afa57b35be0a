#!/usr/bin/env bash
# A sampled profile of one ledger workload, untraced: which functions its
# CPU time goes to.
#
#   scripts/profile.sh WORKLOAD [SECONDS]             seed 1, 10 s by default
#   scripts/profile.sh WORKLOAD [SECONDS] --stacks    adds each function's inclusive share
#   scripts/profile.sh WORKLOAD [SECONDS] --under FN  only samples with FN on the stack
#
# Builds the ledger with frame pointers into target/profile (a target
# directory of its own, so the benchmark's build is untouched), runs it
# there under scripts/profile/sampler.c (an LD_PRELOAD SIGPROF sampler
# asking for a sample every millisecond of CPU time; the kernel delivers
# at most one per scheduler tick), names each sample by the function of
# the symbol table it lies in and prints every function's self share of
# the samples, largest first (pipe through head for the top rows). A
# sample inside a shared library is charged to the function that called
# it, printed as `memcpy ← caller`. The whole process is sampled, set-up
# included. Needs only cc, nm, awk and the Rust toolchain; x86-64 Linux.
#
# The sampler also walks each sample's frame-pointer chain (the build
# keeps frame pointers), so it knows every function on the stack. With
# --stacks the report puts each function's inclusive share (samples with
# it anywhere on the stack, itself or a callee running) next to its self
# share, largest inclusive share first: `CertService::validate_for`'s
# inclusive share is what a load-time check costs, and its callees' rows
# say where that goes. --under FN (implies --stacks) keeps only the
# samples with a function whose name contains FN on the stack, e.g.
# `--under CertService::validate_for`; shares stay shares of all samples,
# so they read against the unrestricted report. A function the compiler
# inlined has no frame and no symbol: its time is its caller's.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

usage="usage: scripts/profile.sh WORKLOAD [SECONDS] [--stacks] [--under FN]"
workload=${1:?$usage}
shift
seconds=10
if (($#)) && [[ $1 != --* ]]; then
    seconds=$1
    shift
fi
stacks=0
under=
while (($#)); do
    case "$1" in
    --stacks) stacks=1; shift ;;
    --under) under=${2:?$usage}; stacks=1; shift 2 ;;
    *) echo "$usage" >&2; exit 2 ;;
    esac
done
target=target/profile
mkdir -p "$target"

# The alignment flag is benchmark/run.sh's, so functions sit as they do in
# the build the benchmark measures.
RUSTFLAGS="-C force-frame-pointers=yes -C llvm-args=-align-all-functions=6" \
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cc -O2 -shared -fPIC -o "$target/sampler.so" scripts/profile/sampler.c

bin="$target/release/ledger"
samples="$target/samples.txt" # where the sampler writes: the run's working directory
(cd "$target" && LD_PRELOAD="$PWD/sampler.so" release/ledger --workload "$workload" \
    --seed 1 --seconds "$seconds" --trace 0 --out out >/dev/null 2>ledger.log)

# Each distinct address once, named by the compiled function it lies in, so
# code inlined into a function counts as that function's: the symbol table
# and the addresses, both as 16 hex digits, sorted together; an address
# takes the last symbol before it. (addr2line names an address by one
# inlined callee or another, depending on the debug info.)
{
    nm -C --defined-only "$bin" |
        awk '$2 ~ /^[tTwW]$/ { at = $1; $1 = $2 = ""; sub(/^ +/, ""); print at "\t0\t" $0 }'
    awk '{ for (i = 1; i <= NF; i++) if (i != 2) print $i }' "$samples" | sort -u |
        awk '{ print substr("0000000000000000", length($1) + 1) $1 "\t1" }'
} | LC_ALL=C sort | awk -F'\t' '
    $2 == 0 { fn = $3; next }
    { at = $1; sub(/^0+/, "", at); print (at == "" ? "0" : at) "\t" fn }' >"$target/symbols.tsv"

# Self share: the function a sample lies in. Inclusive share: the samples
# with the function anywhere on the stack, each sample counted once per
# function however often it recurs.
awk -F'\t' -v workload="$workload" -v stacks="$stacks" -v under="$under" '
    NR == FNR { name[$1] = $2; next }
    {
        n = split($0, f, " ")
        fn = f[1] == "0" ? "(no caller in the executable)" : name[f[1]]
        self = f[2] == "-" ? fn : f[2] " ← " fn
        delete on
        on[self] = 1
        on[fn] = 1
        for (i = 3; i <= n; i++) on[name[f[i]]] = 1
        total++
        if (under != "") {
            hit = 0
            for (g in on) if (index(g, under)) hit = 1
            if (!hit) next
        }
        kept++
        count[self]++
        for (g in on) incl[g]++
    }
    END {
        if (!stacks) {
            printf "%s: %d samples, self share by function\n", workload, total > "/dev/stderr"
            for (fn in count) printf "%6.2f %%  %7d  %s\n", 100 * count[fn] / total, count[fn], fn
            exit
        }
        printf "%s: %d samples", workload, total > "/dev/stderr"
        if (under != "") printf ", %d (%.2f %%) with %s on the stack", kept, 100 * kept / total, under > "/dev/stderr"
        printf "; inclusive and self share by function\n" > "/dev/stderr"
        for (fn in incl)
            printf "%6.2f %%  %6.2f %%  %7d  %s\n", 100 * incl[fn] / total, 100 * count[fn] / total, incl[fn], fn
    }' "$target/symbols.tsv" "$samples" | sort -rn
