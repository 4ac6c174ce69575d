#!/usr/bin/env bash
# Sync-alias lint: the shimmed concurrency crates and the split-exchange
# runtime (dsp-core/src/split.rs) must import their lock/condvar/atomic
# primitives from `crate::sync`, never from `std::sync` directly. In a
# shimmed crate `crate::sync` is `ds_check::alias`: a zero-cost
# `std::sync` re-export in normal builds, the `ds_check::sync` shims
# under `--features check`, so the real protocols run under
# deterministic schedule exploration. A direct `std::sync::Mutex` import
# silently opts that code out of model checking — the whole point of
# the alias.
#
# The shimmed crates are listed in one place: they are the crates whose
# manifest depends on ds-check. `lint_sync.sh --crates` prints their
# package names (ci.sh reruns each one's suite on the shims). Types the
# shims don't model (OnceLock, mpsc, ...) are fine.
set -euo pipefail
cd "$(dirname "$0")/.."

shimmed_dirs() {
    for m in crates/*/Cargo.toml; do
        [ "$m" = crates/check/Cargo.toml ] && continue
        if awk '/^\[/ { sec = $0 } sec == "[dependencies]" && /^ds-check[ =]/ { found = 1 }
                END { exit !found }' "$m"; then
            dirname "$m"
        fi
    done
}

if [ "${1:-}" = "--crates" ]; then
    for d in $(shimmed_dirs); do
        sed -n 's/^name = "\(.*\)"$/\1/p' "$d/Cargo.toml"
    done
    exit 0
fi

status=0
while IFS= read -r f; do
    hits=$(grep -nE \
        'std::sync::(Mutex|Condvar|RwLock|MutexGuard|RwLockReadGuard|RwLockWriteGuard|Barrier|atomic)' \
        "$f" || true)
    if [ -n "$hits" ]; then
        echo "$hits" | sed "s|^|$f:|"
        status=1
    fi
done < <(find $(shimmed_dirs | sed 's|$|/src|') crates/dsp-core/src/split.rs \
            -name '*.rs' | LC_ALL=C sort)

if [ "$status" -ne 0 ]; then
    echo "error: direct std::sync primitive in a shimmed crate — import" \
         "it from the crate's \`sync\` alias so the code stays" \
         "model-checkable under --features check." >&2
fi
exit "$status"
