#!/usr/bin/env bash
# Determinism lint: simulation code must never consult wall-clock time or
# OS entropy — a single call would silently break bit-identical replay,
# run-to-run flight-log comparison, and the jobs-invariance guarantee of
# the parallel sweep runner.
#
# Scans every crate in the workspace. The only allowlisted file is the
# host-side wall-clock profiler, which measures *simulator* speed (ns/event
# on the host) and is observationally neutral to simulated time by
# construction (asserted by the tca-prof CI smoke).
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST=(
    'crates/bench/src/prof.rs'
)

pattern='std::time::(Instant|SystemTime)|Instant::now|SystemTime::now|thread_rng|rand::random|from_entropy'

hits=$(grep -rnE "$pattern" crates/*/src src --include='*.rs' || true)
for allowed in "${ALLOWLIST[@]}"; do
    hits=$(printf '%s' "$hits" | grep -v "^$allowed:" || true)
done

if [[ -n "$hits" ]]; then
    echo "determinism lint: wall-clock or OS-entropy use in simulation sources:" >&2
    printf '%s\n' "$hits" >&2
    exit 1
fi
