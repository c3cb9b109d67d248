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

# Configuration-verifier gate: statically lint every shipped preset
# (address windows, routing cycles, credit sufficiency, descriptor chains),
# hazard-check a traced reference workload on each, and prove every
# registry topology deadlock-free (CDG acyclicity) and route-complete.
# Deny-by-default: even a warning fails the build.
cargo run -q --release --offline --bin tca-verify -- --all-presets --deny warnings

# Topology-file gates: the checked-in clean fixture must prove out, and the
# intentionally cycle-injected fixture must fail with the CDG cycle code —
# if it ever passes, the prover has lost its teeth.
cargo run -q --release --offline --bin tca-verify -- \
    --topo-file configs/topologies/torus2d-3x3.topo --deny warnings
if broken=$(cargo run -q --release --offline --bin tca-verify -- \
    --topo-file configs/topologies/cycle-injected.topo 2>&1); then
    echo "tca-verify gate: cycle-injected fixture passed the prover" >&2
    exit 1
fi
if [[ "$broken" != *"TCA-R002"* ]]; then
    echo "tca-verify gate: cycle-injected fixture failed without TCA-R002" >&2
    echo "$broken" >&2
    exit 1
fi
# Prover-output goldens: the exact --json report of every fixture, and the
# --cdg-dot export of the cycle-injected one, as the BTree prover printed
# them before the dense rewrite. looping.topo covers R001, R002, R003 and
# C003 at once. Any drift in a message, its order, or a count fails here.
for fixture in torus2d-3x3 cycle-injected looping; do
    if ! diff -u "configs/topologies/$fixture.golden.json" \
        <(cargo run -q --release --offline --bin tca-verify -- \
            --json --topo-file "configs/topologies/$fixture.topo"); then
        echo "tca-verify gate: $fixture.topo report drifted from its golden" >&2
        exit 1
    fi
done
if ! diff -u configs/topologies/cycle-injected.golden.dot \
    <(cargo run -q --release --offline --bin tca-verify -- \
        --cdg-dot --topo-file configs/topologies/cycle-injected.topo); then
    echo "tca-verify gate: cycle-injected.topo CDG export drifted from its golden" >&2
    exit 1
fi

# The full-reproduction script is too slow for CI; at least parse it.
bash -n scripts/reproduce.sh

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
# strips the host-clock columns (topo-registry's host_wall_ms and
# events_per_sec) and fails on a missing, extra or changed row.
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

# Perf-regression gate: rerun the fabric kernels (ping-pong, hop sweep,
# Fig. 7/8/9 bandwidth), write the schema-stable results/BENCH_fabric.json,
# and fail the build if any metric drifts outside its paper-anchored bound.
cargo run -q --release --offline -p tca-bench --bin bench_regression

# Engine-throughput gate: drive the fixed 8-node-ring steady-state workload
# plus the ring-size sweep under the counting allocator, race the timing
# wheel against the pre-rewrite reference heap (>= 2x speedup required,
# identical pop-stream checksums), run the 256-node torus2d-16x16
# all-to-all point (~1M events), write the schema-stable
# results/BENCH_engine.json, and fail the build if host events/sec,
# ns/event, allocs/event, or peak pending drifts outside its bound — same
# contract as BENCH_fabric.json, but for simulator speed.
cargo run -q --release --offline -p tca-bench --bin bench_engine

# BENCH-artifact neutrality under flight recording: re-run both gates with
# the TCA_FLIGHT_RING env gate enabling a 4096-slot recorder inside every
# backend rig. BENCH_fabric.json is fully deterministic, so it must come
# back byte-identical; BENCH_engine.json mixes wall-clock fields that vary
# run-to-run with sim-side counters, so only the deterministic fields are
# compared (events, heap depth, queue/dispatch/TLP counters).
cp results/BENCH_fabric.json "$profdir/fabric_plain.json"
cp results/BENCH_engine.json "$profdir/engine_plain.json"
TCA_FLIGHT_RING=4096 cargo run -q --release --offline -p tca-bench --bin bench_regression
TCA_FLIGHT_RING=4096 cargo run -q --release --offline -p tca-bench --bin bench_engine
if ! diff results/BENCH_fabric.json "$profdir/fabric_plain.json" > /dev/null; then
    echo "tca-flight smoke: recording changed BENCH_fabric.json" >&2
    exit 1
fi
sim_fields() {
    grep -oE '"(events|peak_pending|pushes|pops|cancels|cascades|deliver_events|timer_events|credit_return_events|tlp_transmits|constructed|cloned|relay_hops|nodes|messages|sim_ps)":[0-9]+' "$1"
    grep -oE '"checksum":"[0-9a-f]+"' "$1"
}
if [[ "$(sim_fields results/BENCH_engine.json)" != "$(sim_fields "$profdir/engine_plain.json")" ]]; then
    echo "tca-flight smoke: recording changed BENCH_engine.json sim-side counters" >&2
    exit 1
fi
# Restore the unrecorded artifacts so the checked-in results/ stay canonical.
cp "$profdir/fabric_plain.json" results/BENCH_fabric.json
cp "$profdir/engine_plain.json" results/BENCH_engine.json
# Engine-counter gate: the simulated-side counters of the plain bench_engine
# run must equal configs/engine/sim-counters.golden, generated before the
# fabric's deliveries and credit returns moved from the event queue into
# per-link lanes. Lane events count as queue pushes and pops, so a change
# that drops, merges or adds an event fails here. Cascades are left out:
# they count how the timing wheel re-files its entries, which depends on
# the queue's internal layout, not on the events the simulation makes.
if ! diff -u configs/engine/sim-counters.golden \
    <(sim_fields results/BENCH_engine.json | grep -v '^"cascades":'); then
    echo "engine counters: BENCH_engine.json sim-side counters drifted from the golden" >&2
    exit 1
fi

# What-if smoke (tca-bench --whatif): the causal profiler must be
# deterministic, schema-stable, and observationally neutral. Running the
# small-ring sweep twice must produce byte-identical artifacts that match the
# digests checked in at configs/whatif/ring-hops.sha256; the report JSON is
# pinned to the tca-whatif/v1 schema; and --whatif-dir riding along on a
# sweep must change neither the stdout nor the checked-in
# BENCH_fabric.json.
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
cp results/BENCH_fabric.json "$profdir/fabric_pre_whatif.json"
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
if ! cmp -s results/BENCH_fabric.json "$profdir/fabric_pre_whatif.json"; then
    echo "tca-whatif smoke: the whatif sweep perturbed BENCH_fabric.json" >&2
    exit 1
fi
# The health report must carry the config fingerprint of the parameter
# registry the whatif sweep introspects (tca-health/v1 second key).
if [[ "$top" != '{"schema":"tca-health/v1","config_fnv":"'* ]]; then
    echo "tca-whatif smoke: health report lost its config_fnv stamp" >&2
    exit 1
fi
