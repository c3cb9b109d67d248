#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, release build, full test suite.
# Everything runs --offline against the vendored stub crates.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --release --offline --workspace --bins
cargo build --release --offline
# Every crate's tests, not only the root package's: the per-crate unit
# tests (payload views in pcie/vendor, device models, the chip) gate too.
cargo test -q --offline --workspace
# Speed floors of the simulator itself (the `engine` scenario's points
# timed by the sweep runner, and the wheel-vs-heap queue race): release
# builds only, so the test is ignored in the debug run above.
cargo test -q --release --offline --test gates engine_speed_floors
# API docs build without a warning (broken or private intra-doc links).
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

# Scenario-runner smoke: the registry lists, a TCA-only sweep and a
# backend-aware sweep both run, and the parallel runner emits the same
# bytes at --jobs 1 and --jobs 4 (full jobs-invariance is also asserted by
# tests/determinism.rs).
cargo run -q --release --offline -p tca-bench --bin tca-bench -- --list > /dev/null
one=$(cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario put-latency --backend mpi --json --jobs 1)
four=$(cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario put-latency --backend mpi --json --jobs 4)
if [[ "$one" != "$four" ]]; then
    echo "tca-bench smoke: sweep JSON differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi

# Fabric-health smoke: run the tca-top report of the health scenario with
# the stall watchdog armed. A healthy neighbour shift must never trip the
# watchdog, and the report schema is pinned — drift here breaks downstream
# dashboard consumers.
top=$(cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario health --top --json)
if [[ "$top" != '{"schema":"tca-health/v1"'* ]]; then
    echo "tca-top smoke: health report schema drifted" >&2
    exit 1
fi
if [[ "$top" != *'"watchdog_armed":true'* || "$top" == *'"watchdog_fired":true'* ]]; then
    echo "tca-top smoke: stall watchdog fired on a healthy neighbour shift" >&2
    exit 1
fi
if [[ "$top" != *'"links":{'* || "$top" != *'"latency":{'* ]]; then
    echo "tca-top smoke: health report is missing link or latency sections" >&2
    exit 1
fi

# The configuration-verifier gates (every shipped preset clean with
# warnings denied, the topology-fixture exit codes, and the prover's --json
# and --cdg-dot goldens under configs/topologies/) are tier-1 tests run by
# `cargo test` above: tests/gates.rs, tests/topo_soundness.rs and
# crates/bench/tests/cli.rs.

# The full-reproduction script is too slow for CI, and the profiler needs
# a preloadable sampler; at least parse them.
bash -n scripts/reproduce.sh
bash -n scripts/profile.sh

# Determinism lint: the simulation crates must never consult wall-clock
# time or OS entropy — a single call would silently break bit-identical
# replay. Allowlist and patterns live in the script.
bash scripts/lint_determinism.sh

# Unsafe audit: every simulation crate forbids `unsafe` outright; tca-sim
# alone carries a documented deny + one feature-gated exception (the
# counting allocator in prof.rs). Any other unsafe token fails the build.
for lib in crates/apps crates/bench crates/core crates/device crates/net \
    crates/pcie crates/peach2 crates/verify; do
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$lib/src/lib.rs"; then
        echo "unsafe audit: $lib/src/lib.rs lost #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done
if ! grep -q 'cfg_attr(not(feature = "host-prof"), forbid(unsafe_code))' crates/sim/src/lib.rs ||
    ! grep -q '^#!\[deny(unsafe_code)\]' crates/sim/src/lib.rs; then
    echo "unsafe audit: crates/sim/src/lib.rs lost its deny/forbid pair" >&2
    exit 1
fi
if grep -rn 'unsafe fn\|unsafe impl\|unsafe {' crates/*/src src \
    --include='*.rs' | grep -v '^crates/sim/src/prof\.rs:'; then
    echo "unsafe audit: unsafe token outside the allowlisted crates/sim/src/prof.rs" >&2
    exit 1
fi

# Profile-neutrality smoke (tca-prof): --profile must be observationally
# neutral. Both stdout (health report, sweep JSON) and the on-disk trace +
# health artifacts must be byte-identical with and without it; the profile
# artifacts themselves go to separate files and stderr notices only.
profdir=$(mktemp -d)
trap 'rm -rf "$profdir"' EXIT
top_plain=$(cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario health --top --json --telemetry-dir "$profdir/plain" 2> /dev/null)
top_prof=$(cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario health --top --json --telemetry-dir "$profdir/prof" \
    --profile --profile-dir "$profdir/out" 2> /dev/null)
if [[ "$top_plain" != "$top_prof" ]]; then
    echo "tca-prof smoke: --profile changed the tca-top stdout" >&2
    exit 1
fi
if ! diff -r "$profdir/plain" "$profdir/prof" > /dev/null; then
    echo "tca-prof smoke: --profile changed the trace/health artifacts" >&2
    exit 1
fi
if [[ ! -s "$profdir/out/PROF_health-tca.json" || ! -s "$profdir/out/PROF_health-tca.folded" ]]; then
    echo "tca-prof smoke: --profile did not write the PROF artifacts" >&2
    exit 1
fi
# The profile times the sweep's own points: one entry per point, by label.
prof_json=$(cat "$profdir/out/PROF_health-tca.json")
if [[ "$prof_json" != '{"schema":"tca-prof/v2"'* || "$prof_json" != *'"label":"8 nodes"'* ]]; then
    echo "tca-prof smoke: PROF_health-tca.json is not a tca-prof/v2 report of the 8 nodes point" >&2
    exit 1
fi
sweep_plain=$(cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario put-latency --json)
sweep_prof=$(cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario put-latency --json --profile --profile-dir "$profdir/out" 2> /dev/null)
if [[ "$sweep_plain" != "$sweep_prof" ]]; then
    echo "tca-prof smoke: --profile changed the sweep JSON" >&2
    exit 1
fi
if [[ "$(wc -l < "$profdir/out/PROF_put-latency-tca.folded")" -ne 4 ]]; then
    echo "tca-prof smoke: PROF_put-latency-tca.folded needs one line per put-latency point (4)" >&2
    exit 1
fi

# Flight-recorder smoke (tca-flight): recording the health run twice must
# produce byte-identical logs that the divergence engine confirms as zero
# findings, and a single corrupted byte must be caught with a TCA-X code
# and a non-zero exit.
flightdir="$profdir/flight"
top_fl=$(cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario health --top --json --telemetry-dir "$profdir/tel_fl" \
    --flight-dir "$flightdir/a" 2> /dev/null)
cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario health --top --flight-dir "$flightdir/b" > /dev/null 2>&1
log_a="$flightdir/a/FLIGHT_health-tca.jsonl"
log_b="$flightdir/b/FLIGHT_health-tca.jsonl"
if ! cmp -s "$log_a" "$log_b"; then
    echo "tca-flight smoke: two identical runs recorded different logs" >&2
    exit 1
fi
if ! cargo run -q --release --offline -p tca-bench --bin tca-flight -- \
    diff "$log_a" "$log_b" > /dev/null; then
    echo "tca-flight smoke: diff found divergences between identical runs" >&2
    exit 1
fi
# Engine-equivalence gate: the timing-wheel rewrite must not move a single
# event. The health flight log just recorded is held against the
# pre-rewrite golden checked in at configs/flight/health.golden.jsonl —
# first byte-for-byte, then through the divergence engine so any drift is
# reported with a TCA-X code and the first divergent record.
golden=configs/flight/health.golden.jsonl
if ! cmp -s "$golden" "$log_a"; then
    echo "engine equivalence: health flight log drifted from the golden" >&2
    cargo run -q --release --offline -p tca-bench --bin tca-flight -- \
        diff "$golden" "$log_a" >&2 || true
    exit 1
fi
if ! cargo run -q --release --offline -p tca-bench --bin tca-flight -- \
    diff "$golden" "$log_a" > /dev/null; then
    echo "engine equivalence: divergence engine flagged the golden comparison" >&2
    exit 1
fi

sed '2s/deliver/deliXer/' "$log_a" > "$flightdir/corrupt.jsonl"
if flight_out=$(cargo run -q --release --offline -p tca-bench --bin tca-flight -- \
    diff "$log_a" "$flightdir/corrupt.jsonl" 2>&1); then
    echo "tca-flight smoke: diff missed a corrupted byte" >&2
    exit 1
fi
if [[ "$flight_out" != *"TCA-X"* ]]; then
    echo "tca-flight smoke: corruption report carries no TCA-X code" >&2
    echo "$flight_out" >&2
    exit 1
fi

# Flight-neutrality smoke: recording must be a pure observer. The tca-top
# stdout and the on-disk health/series/trace artifacts of the same
# instrumented run must be byte-identical with and without --flight-dir.
top_nofl=$(cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario health --top --json --telemetry-dir "$profdir/tel_nofl" 2> /dev/null)
if [[ "$top_fl" != "$top_nofl" ]]; then
    echo "tca-flight smoke: --flight-dir changed the tca-top stdout" >&2
    exit 1
fi
if ! diff -r "$profdir/tel_fl" "$profdir/tel_nofl" > /dev/null; then
    echo "tca-flight smoke: --flight-dir changed the trace/health artifacts" >&2
    exit 1
fi
# Telemetry-equivalence gate: the flight log pins event order and span
# records, and trace.json further pins every segment id and flow arrow.
# The health, series, trace and metrics artifacts of that run must match the
# digests checked in at configs/flight/health.telemetry.sha256.
if ! (cd "$profdir/tel_nofl" &&
    sha256sum -c --quiet "$OLDPWD/configs/flight/health.telemetry.sha256"); then
    echo "telemetry equivalence: health --top artifacts drifted from their digests" >&2
    exit 1
fi

# Sweep-equivalence gate: every scenario/backend sweep with a golden under
# benchmark/golden must reproduce it row for row. `benchmark/run.sh check`
# fails on a missing, extra or changed row.
sweepdir="$profdir/sweeps"
mkdir -p "$sweepdir"
for golden_file in benchmark/golden/*.jsonl; do
    key=$(basename "$golden_file" .jsonl)
    case "$key" in
        *-mpi-gpudirect) backend=mpi-gpudirect ;;
        *-mpi) backend=mpi ;;
        *-tca) backend=tca ;;
        *)
            echo "sweep equivalence: golden $key names no known backend" >&2
            exit 1
            ;;
    esac
    scenario=${key%-"$backend"}
    cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
        --scenario "$scenario" --backend "$backend" --json --jobs 1 > "$sweepdir/$key.json"
    if ! bash benchmark/run.sh check "$key" "$sweepdir/$key.json"; then
        echo "sweep equivalence: $key drifted from benchmark/golden/$key.jsonl" >&2
        exit 1
    fi
done

# Engine-counter gate: the simulated counters of the `engine` scenario (the
# 8-node ring shift, the ring-size puts, the queue race and the 256-node
# all-to-all) must equal configs/engine/engine-tca.jsonl. Lane events count
# as queue pushes and pops, so a change that drops, merges or adds an event
# fails here.
cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario engine --json --jobs 1 > "$sweepdir/engine-tca.json"
if ! bash benchmark/run.sh check engine-tca "$sweepdir/engine-tca.json" --golden configs/engine; then
    echo "engine counters: the engine sweep drifted from configs/engine/engine-tca.jsonl" >&2
    exit 1
fi

# Flight-recorder neutrality: the TCA_FLIGHT_RING env gate turns on a
# 4096-slot recorder inside every backend rig. The engine counters and the
# sweeps behind the paper anchors must still match their goldens.
for key in engine-tca pingpong-tca ring-hops-tca fig9-tca; do
    case "$key" in
        engine-tca) golden_dir=configs/engine ;;
        *) golden_dir=benchmark/golden ;;
    esac
    TCA_FLIGHT_RING=4096 cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
        --scenario "${key%-tca}" --json --jobs 1 > "$sweepdir/$key.flight.json"
    if ! bash benchmark/run.sh check "$key" "$sweepdir/$key.flight.json" --golden "$golden_dir"; then
        echo "tca-flight smoke: recording changed the $key sweep" >&2
        exit 1
    fi
done

# What-if smoke (tca-bench --whatif): the causal profiler must be
# deterministic, schema-stable, and observationally neutral. Running the
# small-ring sweep twice must produce byte-identical artifacts that match the
# digests checked in at configs/whatif/ring-hops.sha256; the report JSON is
# pinned to the tca-whatif/v1 schema; and --whatif-dir riding along on a
# sweep must not change its stdout.
wadir="$profdir/whatif"
for run in a b; do
    cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
        --scenario ring-hops --whatif --whatif-dir "$wadir/$run" > /dev/null 2>&1
done
for art in WHATIF_ring-hops.json WHATIF_ring-hops.folded.diff; do
    if ! cmp -s "$wadir/a/$art" "$wadir/b/$art"; then
        echo "tca-whatif smoke: two identical sweeps produced different $art" >&2
        exit 1
    fi
done
if ! (cd "$wadir/a" && sha256sum -c --quiet "$OLDPWD/configs/whatif/ring-hops.sha256"); then
    echo "what-if equivalence: ring-hops artifacts drifted from their digests" >&2
    exit 1
fi
wa_json=$(cat "$wadir/a/WHATIF_ring-hops.json")
if [[ "$wa_json" != '{"schema":"tca-whatif/v1"'* ]]; then
    echo "tca-whatif smoke: report schema drifted" >&2
    exit 1
fi
if [[ "$wa_json" != *'"config_fnv":"'* || "$wa_json" != *'"interaction":'* ]]; then
    echo "tca-whatif smoke: report is missing config_fnv or interaction probe" >&2
    exit 1
fi
sweep_nowa=$(cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario ring-hops --json 2> /dev/null)
sweep_wa=$(cargo run -q --release --offline -p tca-bench --bin tca-bench -- \
    --scenario ring-hops --json --whatif-dir "$wadir/neutral" 2> /dev/null)
if [[ "$sweep_nowa" != "$sweep_wa" ]]; then
    echo "tca-whatif smoke: --whatif-dir changed the ring-hops sweep stdout" >&2
    exit 1
fi
if [[ ! -s "$wadir/neutral/WHATIF_ring-hops.json" ]]; then
    echo "tca-whatif smoke: --whatif-dir did not write the WHATIF artifacts" >&2
    exit 1
fi
# The health report must carry the config fingerprint of the parameter
# registry the whatif sweep introspects (tca-health/v1 second key).
if [[ "$top" != '{"schema":"tca-health/v1","config_fnv":"'* ]]; then
    echo "tca-whatif smoke: health report lost its config_fnv stamp" >&2
    exit 1
fi
