#!/usr/bin/env bash
# Runs the whole set twice on one build and checks the two agree:
# every end-to-end metric within its own bound from BENCHMARK.json, every
# count and the run digest bit-equal. What it prints is the noise floor a
# later PR should quote. Arguments are passed to run.sh (--seed, --seconds).
#
# The host now and then runs slow for a minute or more. A workload whose two
# runs differ by more than a bound is therefore run a third time, and passes
# if that run agrees with either of the first two; the bounds stay as tight
# as the quiet host allows. Counts and digests get no second chance.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

for set in a b; do
    benchmark/run.sh "$@" --out "benchmark/out/agree_$set" 2>/dev/null
done

python3 - "$@" <<'PY'
import json, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
passed_on = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, seconds = passed_on.get("--seed", "1"), passed_on.get("--seconds", "10")


def load(s, w, trace=""):
    return json.load(open(f"benchmark/out/agree_{s}/{trace}{w}.json"))


def compare(w, first, second):
    """Prints one row per end-to-end metric; how many are beyond their bound."""
    beyond = 0
    for m in spec["end_to_end"]:
        a, b = (r["metrics"][m["name"]]["value"] for r in (first, second))
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        out = abs(worse) > m["bound"]
        beyond += out
        print(
            f"{w:<12} {m['name']:<14} {a:>14.4f} {b:>14.4f} {100 * worse:>+7.2f}%"
            f" {100 * m['bound']:>6.0f}%{'  <-- beyond its bound' if out else ''}"
        )
    return beyond


bad = 0
print(f"{'workload':<12} {'metric':<14} {'first':>14} {'second':>14} {'diff':>8} {'bound':>7}")
for w in (x["name"] for x in spec["workloads"]):
    runs = [load(s, w) for s in "ab"]
    if compare(w, *runs):
        print(f"{w:<12} running a third time")
        subprocess.run(
            ["benchmark/run.sh", "--workload", w, "--seed", seed, "--seconds", seconds,
             "--trace", "0", "--out", "benchmark/out/agree_c"],
            check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        runs.append(load("c", w))
        if compare(w, runs[0], runs[2]) and compare(w, runs[1], runs[2]):
            bad += 1
            print(f"{w:<12} no two of three runs agree")
    traces = [load(s, w, "trace_") for s in "ab"]
    phases = runs + [t[k] for t in traces for k in ("untraced", "traced")]
    same = all((p["counts"], p["run_digest"]) == (runs[0]["counts"], runs[0]["run_digest"]) for p in phases)
    bad += not same
    print(f"{w:<12} counts and run_digest {runs[0]['run_digest']}: {'identical' if same else 'DIFFER'}")
sys.exit(1 if bad else 0)
PY
