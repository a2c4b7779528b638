#!/usr/bin/env bash
# Snapshot cold-boot smoke for CI.
#
# End-to-end through the real CLI and the real on-disk formats: build a
# dictionary log with `pdm dict add/commit`, `pdm dict compact` to emit
# the PDMS v2 built-matcher sidecar, then prove a fresh process boots
# from it without a rebuild — `pdm match --dict-log` must report
# "cold-loaded" and still find every occurrence. `pdm snap inspect`
# validates both sidecar and log framing, and a corrupted sidecar must
# fail inspection while `pdm match` falls back to a rebuild with
# identical output. `pdm build` writes the same v2 sidecar as an index:
# it must pass inspection and `pdm match --index` must print exactly what
# `pdm match --dict` prints. Finally a dictionary compacted while empty
# must boot "cold-loaded" from its (matcher-less) v2 sidecar.
#
# Usage: scripts/snap_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo build --release --bin pdm
bin=target/release/pdm

log="$tmp/dict.pdml"
snap="$tmp/dict.pdml.snap"
printf 'ushers' >"$tmp/text.bin"

for p in he she hers; do
    "$bin" dict add --pattern "$p" --log "$log" >/dev/null
done
"$bin" dict commit --log "$log" >/dev/null

# Before compaction there is no sidecar: boot must rebuild and say why.
"$bin" match --dict-log "$log" --text "$tmp/text.bin" >"$tmp/warm.out"
grep -q "rebuilt (no snapshot sidecar)" "$tmp/warm.out"

"$bin" dict compact --log "$log" >/dev/null
test -f "$snap"

# After compaction: cold boot from the sidecar, same matches.
"$bin" match --dict-log "$log" --text "$tmp/text.bin" >"$tmp/cold.out"
grep -q "cold-loaded from" "$tmp/cold.out"
grep -q "# 3 occurrences" "$tmp/cold.out"
diff <(grep -v '^#' "$tmp/warm.out") <(grep -v '^#' "$tmp/cold.out")

# Both sidecar formats pass deep inspection.
"$bin" snap inspect --file "$snap" | tee "$tmp/inspect.out"
grep -q "PDMS v2" "$tmp/inspect.out"
grep -q "crc: OK" "$tmp/inspect.out"
"$bin" snap inspect --file "$log" | grep -q "tail: clean"

# Corruption: inspect fails loudly, match falls back to a correct rebuild.
python3 - "$snap" <<'EOF'
import sys
p = sys.argv[1]
b = bytearray(open(p, 'rb').read())
b[len(b) // 2] ^= 0x10
open(p, 'wb').write(b)
EOF
if "$bin" snap inspect --file "$snap" >/dev/null 2>&1; then
    echo "corrupt sidecar passed inspection" >&2
    exit 1
fi
"$bin" match --dict-log "$log" --text "$tmp/text.bin" >"$tmp/corrupt.out"
grep -q "rebuilt (" "$tmp/corrupt.out"
diff <(grep -v '^#' "$tmp/cold.out") <(grep -v '^#' "$tmp/corrupt.out")

# `pdm build` writes the v2 sidecar; matching from it is byte-identical
# to matching from the pattern file.
printf 'he\nshe\nhers\n' >"$tmp/dict.txt"
"$bin" build --dict "$tmp/dict.txt" --out "$tmp/index.snap" >/dev/null
"$bin" snap inspect --file "$tmp/index.snap" | tee "$tmp/index-inspect.out"
grep -q "PDMS v2" "$tmp/index-inspect.out"
grep -q "crc: OK" "$tmp/index-inspect.out"
for mode in "" --all --stream; do
    "$bin" match --index "$tmp/index.snap" --text "$tmp/text.bin" $mode >"$tmp/index.out"
    "$bin" match --dict "$tmp/dict.txt" --text "$tmp/text.bin" $mode >"$tmp/dict.out"
    cmp "$tmp/index.out" "$tmp/dict.out"
done

# An empty dictionary compacts to a v2 sidecar and boots from it.
empty="$tmp/empty.pdml"
"$bin" dict add --pattern he --log "$empty" >/dev/null
"$bin" dict commit --log "$empty" >/dev/null
"$bin" dict remove --pattern he --log "$empty" >/dev/null
"$bin" dict commit --log "$empty" >/dev/null
"$bin" dict compact --log "$empty" >/dev/null
"$bin" snap inspect --file "$empty.snap" | grep -q "patterns: 0"
"$bin" match --dict-log "$empty" --text "$tmp/text.bin" >"$tmp/empty.out"
grep -q "cold-loaded from" "$tmp/empty.out"
grep -q "# 0 occurrences" "$tmp/empty.out"
"$bin" fsck --log "$empty" | grep -q "boot path: cold-load from sidecar"

echo "snap smoke: OK"
