#!/usr/bin/env bash
# Bench regression guard for CI.
#
# Runs the matching bench in smoke mode and compares this run against the
# committed baseline JSON; the bench exits non-zero when a guarded rate
# falls below its floor, a fraction of the baseline wide enough to absorb
# smoke-vs-full-size variance on a shared runner while still catching
# structural regressions. The bench binary, what it guards and its floor
# are picked from the baseline's name:
#   BENCH_text.json  -> text_throughput: after-leg seq MB/s per workload,
#                       including the sparse_prefilter / dense_prefilter
#                       rows guarding the SWAR candidate prefilter; fails
#                       below 50% of baseline.
#   BENCH_conns.json -> conn_scale: per-leg MB/s across the reactor
#                       connection ladder; fails below 50%.
#   BENCH_dict.json  -> dict_swap: stream MB/s across epoch swaps, fails
#                       below 50%; per-batch incremental commit ms, fails
#                       above twice the baseline.
#   BENCH_index.json -> index_throughput: build seq MB/s and merged-query
#                       seq kqps; fails below 70%.
#   BENCH_snap.json  -> snap_coldstart: sidecar decode MB/s; fails below
#                       70%.
#
# Usage: scripts/check_bench_regression.sh [baseline.json]
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_text.json}"
if [[ ! -f "$baseline" ]]; then
    echo "error: baseline $baseline not found" >&2
    exit 2
fi

case "$(basename "$baseline")" in
    BENCH_index*) bench=index_throughput ;;
    BENCH_snap*)  bench=snap_coldstart ;;
    BENCH_conns*) bench=conn_scale ;;
    BENCH_dict*)  bench=dict_swap ;;
    *)            bench=text_throughput ;;
esac

PDM_BENCH_SMOKE=1 cargo run --release -p pdm-bench --bin "$bench" -- \
    "/tmp/${bench}_smoke.json" --check "$baseline"
