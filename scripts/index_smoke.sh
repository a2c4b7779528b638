#!/usr/bin/env bash
# Offline-index smoke for CI.
#
# End-to-end through the real CLI and the real on-disk format, once per
# corpus shape: generate a 1 MB corpus plus a 1000-pattern query batch,
# build the PDMX sidecar with `pdm index`, answer the batch with
# `pdm query --verify` — which cross-checks every per-pattern count against
# an Aho–Corasick scan of the corpus and exits non-zero on any
# disagreement. The log shape has a byte-sized alphabet and template-shared
# line prefixes; the genome shape has four symbols and long repeats, on
# which induced sorting recurses deepest. Run under PDM_THREADS=2 so the
# pool substrate (not just sequential fallbacks) backs the LCP pass and the
# batch query.
#
# Usage: scripts/index_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo build --release --bin pdm
bin=target/release/pdm

for shape in log genome; do
    "$bin" gen --out "$tmp/$shape.bin" --bytes $((1 << 20)) --seed 7 \
        --corpus "$shape" --patterns-out "$tmp/$shape.txt" --pattern-count 1000
    "$bin" index --text "$tmp/$shape.bin" --out "$tmp/$shape.pdmx"
    "$bin" query --index "$tmp/$shape.pdmx" --patterns "$tmp/$shape.txt" \
        --verify >"$tmp/$shape.out"
    tail -n 2 "$tmp/$shape.out"
    grep -q "verify: OK" "$tmp/$shape.out"
    echo "index smoke ($shape): OK"
done
