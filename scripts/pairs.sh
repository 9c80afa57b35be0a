#!/usr/bin/env bash
# Alternating parent/change pairs of one ledger workload, untraced: the
# comparison a perf claim in this repo rests on.
#
#   scripts/pairs.sh PARENT_REV WORKLOAD [PAIRS] [SECONDS] [SEED]
#       defaults: 10 pairs of 10 s runs, seed 1
#
# Extracts PARENT_REV (`git archive`) into target/pairs/src-<rev>, then
# builds its ledger and the checkout's (as it stands, uncommitted edits
# included), each into a target directory of its own under target/pairs/
# (one shared directory would hand the second side the first side's
# binary) and both with benchmark/run.sh's RUSTFLAGS (a side built without
# the function alignment runs 1-3 % apart). Then runs the pairs, parent
# first in odd pairs and change first in even ones, so a drifting host
# does not favour one side, and prints one row per end-to-end metric of
# BENCHMARK.json: both medians, the parent's inter-quartile range, the
# ratio of the two medians, how many pairs the change won (did better in,
# by the metric's own direction), and the median of the per-pair ratios
# change/parent with its sign-test interval: the k-th smallest to the
# k-th largest ratio, for the largest k whose coverage is at least 95 %
# (2nd to 9th of 10 pairs, all of 8; `n/a` below 6 pairs). A pair's ratio
# cancels the drift both runs of the pair shared, which the ratio of the
# side medians does not. After the table it names every run that is more
# than 10 % off its own side's median on one of those metrics (side, pair,
# metric, value and its ratio to that median): a run the host disturbed,
# which the table shows only as a wider interval. Each run's result line
# and its standard error are kept in target/pairs/runs/WORKLOAD-sSEED/.
# Nothing under benchmark/ changes.
# Needs only git, tar, awk and the Rust toolchain.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

usage="usage: scripts/pairs.sh PARENT_REV WORKLOAD [PAIRS] [SECONDS] [SEED]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seconds=${4:-10}
seed=${5:-1}

sha=$(git rev-parse --short "$rev^{commit}")
root=target/pairs
src=$root/src-$sha
if [[ ! -d $src ]]; then
    rm -rf "$src.part"
    mkdir -p "$src.part"
    git archive "$sha" | tar -x -C "$src.part"
    mv "$src.part" "$src"
fi

export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-all-functions=6"
build() { # SOURCE_ROOT TARGET_DIR
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" >&2
}
build "$src" "$root/target-$sha"
build . "$root/target-checkout"
parent_bin=$root/target-$sha/release/ledger
change_bin=$root/target-checkout/release/ledger

runs=$root/runs/$workload-s$seed
rm -rf "$runs"
mkdir -p "$runs"
run() { # SIDE BINARY PAIR
    "$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$runs/out" 2>"$runs/$1-$3.log" | tail -n 1 >"$runs/$1-$3.json"
    if ! grep -q '"correct": true' "$runs/$1-$3.json"; then
        echo "pairs.sh: $1 run $3 was not correct; see $runs/$1-$3.json" >&2
        exit 1
    fi
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$parent_bin" "$i"
        run change "$change_bin" "$i"
    else
        run change "$change_bin" "$i"
        run parent "$parent_bin" "$i"
    fi
    echo "pairs.sh: pair $i/$pairs done" >&2
done

# `name better` for each end-to-end metric (BENCHMARK.json keeps one key
# per line).
metrics=$(awk -F'"' '
    /"end_to_end"/ { e = 1 }
    /"per_layer"/ { e = 0 }
    e && $2 == "name" { name = $4 }
    e && $2 == "better" { print name, $4 }
' BENCHMARK.json)

# Sorting and interpolated quantiles of a 0-based awk array, for the table
# and the outlier list below.
stats_awk='
    function quantile(sorted, n, q,    at, lo) {
        at = (n - 1) * q
        lo = int(at)
        return lo + 1 < n ? sorted[lo] + (at - lo) * (sorted[lo + 1] - sorted[lo]) : sorted[lo]
    }
    function sort(v, n,    i, j, t) {
        for (i = 1; i < n; i++)
            for (j = i; j > 0 && v[j - 1] > v[j]; j--) {
                t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
            }
    }
'

# The value of metric $1 in result line $2.
value() {
    grep -o "\"$1\": {\"value\": [^,}]*" "$2" | awk '{ print $NF }'
}

echo "$workload, seed $seed: $pairs pairs of ${seconds} s, parent $sha vs the checkout"
printf '%-14s %14s %14s %12s %8s %6s %8s %18s\n' metric parent_median change_median \
    parent_iqr med_ratio won pair_med 'pair_95%_interval'
while read -r name better; do
    for ((i = 1; i <= pairs; i++)); do
        echo "$(value "$name" "$runs/parent-$i.json") $(value "$name" "$runs/change-$i.json")"
    done | awk -v name="$name" -v better="$better" -v pairs="$pairs" "$stats_awk"'
        # P(X <= k) for X ~ Binomial(n, 1/2).
        function binom_cdf(n, k,    i, term, sum) {
            term = 1
            for (i = 0; i <= k; i++) {
                sum += term
                term = term * (n - i) / (i + 1)
            }
            return sum / 2 ^ n
        }
        {
            p[NR - 1] = $1; c[NR - 1] = $2
            r[NR - 1] = $1 ? $2 / $1 : 0
            won += better == "higher" ? $2 > $1 : $2 < $1
        }
        END {
            n = NR
            sort(p, n); sort(c, n); sort(r, n)
            pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
            iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
            # [r_(k), r_(n+1-k)] covers the median with 1 - 2 P(X <= k-1).
            for (k = 0; 2 * binom_cdf(n, k) <= 0.05; k++) {}
            interval = k ? sprintf("[%.4f, %.4f]", r[k - 1], r[n - k]) : "n/a"
            printf "%-14s %14.6g %14.6g %12.4g %8.4f %3d/%d %8.4f %18s\n", name, pm, cm, iqr,
                pm ? cm / pm : 0, won, pairs, quantile(r, n, 0.5), interval
        }'
done <<<"$metrics"

# Every run more than 10 % off its own side's median on a metric: a run the
# host disturbed, named, where the table above only shows a wider interval.
echo
while read -r name _; do
    for side in parent change; do
        for ((i = 1; i <= pairs; i++)); do
            value "$name" "$runs/$side-$i.json"
        done | awk -v name="$name" -v side="$side" "$stats_awk"'
            { v[NR] = $1; s[NR - 1] = $1 }
            END {
                sort(s, NR)
                med = quantile(s, NR, 0.5)
                for (i = 1; i <= NR; i++)
                    if (med && (v[i] > 1.1 * med || v[i] < 0.9 * med))
                        printf "outlier: %s pair %d %s %.6g (%.4f of the %s median)\n",
                            side, i, name, v[i], v[i] / med, side
            }'
    done
done <<<"$metrics" | { grep . || echo "no run is more than 10 % off its side's median"; }
