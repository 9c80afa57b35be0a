#!/usr/bin/env bash
# One driver for every recorded number: one step per instrument, one step
# per table, everything into out/.
#
#   scripts/reproduce.sh          run the request-path ledger (benchmark/run.sh,
#                                 seed 1, 10 s a run) and every criterion target,
#                                 then rewrite the generated block of
#                                 bench-records/README.md and the
#                                 bench-records/BENCH_*.json it is made from.
#   scripts/reproduce.sh --check  the same steps at the ledger's shortest run,
#                                 into out/check/; changes nothing, and fails if
#                                 the committed tables' row and column names
#                                 (not their values) differ from the fresh ones.
#
# Offline, from the root of a clean checkout or anywhere else. Needs jq.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

readme=bench-records/README.md
begin='<!-- generated tables: begin -->' # no `/`: both are sed addresses
end='<!-- generated tables: end -->'
check=0 out=out seconds=10
if [ "${1:-}" = --check ]; then check=1 out=out/check seconds=0.4; fi
rm -rf "$out"
mkdir -p "$out"
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)

# Step 1 — the ledger: every workload untraced (end-to-end), then traced
# (per-layer). It checks its own oracles and exits non-zero if one fails.
benchmark/run.sh --seconds "$seconds" --out "$out" 2>"$out/ledger.log"

# Step 2 — the criterion instruments: every target of crates/bench, each
# writing BENCH_<target>.json.
BENCH_JSON_DIR="$PWD/$out" cargo bench --offline -p paramecium-bench >"$out/criterion.log" 2>&1

# Step 3 — the tables, rounded: the host does not repeat more digits.
num='def n: if . == 0 then 0 elif . >= 100 then round
     elif . >= 1 then (. * 100 | round) / 100 else (. * 10000 | round) / 10000 end;'

# ledger_table TITLE FILE-PREFIX METRIC-REGEX: workloads down, metrics across;
# the title is the header's first cell.
ledger_table() {
    local files=("${workloads[@]/#/$out/$2}")
    jq -rs --arg title "$1" --arg re "$3" "$num"'
        (.[0].metrics | keys_unsorted | map(select(test($re)))) as $cols
        | "| \($title) | \($cols | map(sub("\\.self_ns_per_op$"; "")) | join(" | ")) |",
          "|" + "---|" * (($cols | length) + 1),
          (.[] | "| `\(.workload)` | \([.metrics[$cols[]].value | n] | join(" | ")) |")
    ' "${files[@]/%/.json}"
    echo
}

{
    ledger_table "end to end, untraced (the gated metrics)" "" '.'
    ledger_table "per-layer self time, ns per op, traced (the tracer inflates rows of many short calls)" \
        trace_ '\.self_ns_per_op$'
    ledger_table "owners of deleted rows, the load path, and the tracer's cost (traced run and its probes)" trace_ \
        '^store\.((read|write)_p50_ns|flush_us|cache\.(evictions_per_kop|writeback_batch_mean)|driver\.requests_per_op)$|^(obj\.(dispatch|interpose_hop)_ns|core\.(bind_ns|load_(certified|softened)_us)|crypto\.|cert\.validate_us|sfi\.analyze_us|alloc\.count_per_op|bench\.trace_overhead_ratio)'
    jq -rs '"| criterion id | median ns per iteration | fastest sample |", "|---|---|---|",
        (.[].benchmarks[] | "| `\(.id)` | \(.mean_ns) | \(.min_ns) |")' "$out"/BENCH_*.json
} >"$out/tables.md"

# Step 4 — install, or compare structure: a table's header line in full,
# then the first cell of each row.
structure() {
    awk '/^\|/ { if (intable) { split($0, c, "|"); print c[2] } else print; intable = 1; next }
         { intable = 0 }'
}
if ((check)); then
    if ! diff <(sed -n "/$begin/,/$end/p" "$readme" | structure) <(structure <"$out/tables.md"); then
        echo "reproduce.sh: the tables of $readme no longer have this shape; run scripts/reproduce.sh" >&2
        exit 1
    fi
    echo "reproduce.sh: $readme matches the fresh tables' rows and columns" >&2
else
    cp "$out"/BENCH_*.json bench-records/
    {
        sed "/$begin/q" "$readme"
        echo
        cat "$out/tables.md"
        echo
        sed -n "/$end/,\$p" "$readme"
    } >"$out/README.md"
    mv "$out/README.md" "$readme"
    echo "reproduce.sh: rewrote $readme and bench-records/BENCH_*.json from $out/" >&2
fi
