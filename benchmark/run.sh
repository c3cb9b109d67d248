#!/usr/bin/env bash
# Builds the release tca-bench CLI and the benchmark driver from source,
# then runs the driver. Every argument goes to the driver; see README.md.
#
#   benchmark/run.sh [--quick] [--trace] [--seed N] [--record]
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#   benchmark/run.sh --bless
#   benchmark/run.sh compare A.json B.json
#
# Build output goes to stderr, so the last line of stdout is the result.
# Honours CARGO_TARGET_DIR; without it the CLI builds into target/ and the
# driver into benchmark/target/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    CARGO_TARGET_DIR="$(realpath -m "$CARGO_TARGET_DIR")"
    export CARGO_TARGET_DIR
    cli_dir="$CARGO_TARGET_DIR"
    bench_dir="$CARGO_TARGET_DIR"
else
    cli_dir="$root/target"
    bench_dir="$root/benchmark/target"
fi

cargo build -q --release --offline --manifest-path "$root/Cargo.toml" \
    -p tca-bench --bin tca-bench >&2
cargo build -q --release --offline --manifest-path "$root/benchmark/Cargo.toml" >&2

exec "$bench_dir/release/tca-benchmark" --tca-bench "$cli_dir/release/tca-bench" "$@"
