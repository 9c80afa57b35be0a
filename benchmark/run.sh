#!/usr/bin/env bash
# The request-path ledger, one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (the form BENCHMARK.json's command takes);
#       the result object is the last line of standard output.
#   benchmark/run.sh [--seed N] [--seconds S] [--out DIR]
#       the whole set: every workload untraced, then traced. Prints every
#       metric by name with its unit and writes DIR/*.json
#       (default benchmark/out).
#   benchmark/run.sh --smoke
#       every workload at its shortest, traced (which also runs it
#       untraced), oracles on: proves the benchmark still builds and passes.
#
# Builds the release binary first, from source, offline. Run from anywhere;
# works from the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# Every function starts on a 64-byte boundary, so code a commit did not touch
# sits where it sat: without it `kernel_ext` (the SFI interpreter's loops)
# moved by up to 26 % between builds that differed only in unrelated code;
# with it, by 4 %. README.md, "Steadiness".
export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-all-functions=6"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
ledger="${CARGO_TARGET_DIR:-benchmark/target}/release/ledger"

workloads=(req_few req_many bulk store_hot store_churn kernel_ext)
seed=1
seconds=10
out=benchmark/out
smoke=0
single=0
args=("$@")
while (($#)); do
    case "$1" in
    --workload) single=1; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) shift ;;
    esac
done

if ((single)); then
    exec "$ledger" "${args[@]}"
fi

failed=0
for w in "${workloads[@]}"; do
    if ((smoke)); then
        "$ledger" --workload "$w" --seed "$seed" --seconds 0.4 --trace 1 --out "$out" >/dev/null || failed=1
    else
        for trace in 0 1; do
            "$ledger" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" >/dev/null || failed=1
        done
    fi
done
if ((failed)); then
    echo "run.sh: FAILED (see above)" >&2
    exit 1
fi
echo "run.sh: all ${#workloads[@]} workloads correct; results in $out/" >&2
