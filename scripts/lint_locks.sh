#!/usr/bin/env bash
# Lock-discipline lint: production code in the comm, pipeline, cache and
# dsp-core crates must not unwrap mutex locks. A worker that panics
# while holding a lock poisons it; `lock().unwrap()` then cascades that
# panic into every other worker touching the structure, turning one
# fault into a hang or a pile of secondary panics (a trainer dying while
# it returns a feature buffer must not take its rank's loader with it).
# Production code routes through the local `lock_unpoisoned` helpers
# (`unwrap_or_else(PoisonError::into_inner)`) instead. Test modules
# (after `mod tests`) may unwrap freely.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for f in crates/comm/src/*.rs crates/pipeline/src/*.rs crates/cache/src/*.rs \
         crates/dsp-core/src/*.rs; do
    # Only lint lines above the file's test module, if any.
    hits=$(awk '/^(#\[cfg\(test\)\]|mod tests)/ { exit }
                /\.lock\(\)[[:space:]]*\.unwrap\(\)|\.lock\(\)\.unwrap\(\)/ {
                    printf "%s:%d: %s\n", FILENAME, NR, $0
                }' "$f")
    if [ -n "$hits" ]; then
        echo "$hits"
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "error: lock().unwrap() in production comm/pipeline/cache/core code —" \
         "use the crate's lock_unpoisoned helper instead." >&2
fi

# Checkpoint-I/O discipline: persistence code in the store and core
# crates must not unwrap file I/O. A full disk or missing directory at
# a snapshot boundary must surface as a typed StoreError / DspError the
# supervisor can report — not a panic that takes the training run down
# mid-epoch. Test modules (after `mod tests`) may unwrap freely;
# tests/ and benches are not scanned at all.
io_status=0
for f in crates/store/src/*.rs crates/dsp-core/src/*.rs; do
    hits=$(awk '/^(#\[cfg\(test\)\]|mod tests)/ { exit }
                /(File::(create|open)|create_dir_all|write_all|read_exact|read_to_end|fs::(write|read|read_dir|read_to_string|remove_file))/ &&
                /\.unwrap\(\)/ {
                    printf "%s:%d: %s\n", FILENAME, NR, $0
                }' "$f")
    if [ -n "$hits" ]; then
        echo "$hits"
        io_status=1
    fi
done

if [ "$io_status" -ne 0 ]; then
    echo "error: .unwrap() on checkpoint-file I/O in production store/core" \
         "code — propagate a typed StoreError/DspError instead." >&2
fi
if [ "$status" -ne 0 ] || [ "$io_status" -ne 0 ]; then
    exit 1
fi
exit 0
