#!/usr/bin/env bash
# A sampled profile of one ledger workload, untraced: which functions its
# CPU time goes to.
#
#   scripts/profile.sh WORKLOAD [SECONDS]     seed 1, 10 s by default
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
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload=${1:?usage: scripts/profile.sh WORKLOAD [SECONDS]}
seconds=${2:-10}
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
    cut -d' ' -f1 "$samples" | sort -u |
        awk '{ print substr("0000000000000000", length($1) + 1) $1 "\t1" }'
} | LC_ALL=C sort | awk -F'\t' '
    $2 == 0 { fn = $3; next }
    { at = $1; sub(/^0+/, "", at); print (at == "" ? "0" : at) "\t" fn }' >"$target/symbols.tsv"

awk -F'\t' -v workload="$workload" '
    NR == FNR { name[$1] = $2; next }
    {
        split($0, f, " ")
        fn = f[1] == "0" ? "(no caller in the executable)" : name[f[1]]
        if (f[2] != "-") fn = f[2] " ← " fn
        count[fn]++
        total++
    }
    END {
        printf "%s: %d samples, self share by function\n", workload, total > "/dev/stderr"
        for (fn in count) printf "%6.2f %%  %7d  %s\n", 100 * count[fn] / total, count[fn], fn
    }' "$target/symbols.tsv" "$samples" | sort -rn
