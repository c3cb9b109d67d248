#!/usr/bin/env bash
# Regenerates every table and figure of the paper plus the ablations,
# saving text outputs to results/ and sweep JSON to results/json/.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-results}
mkdir -p "$out"

# Every table, figure and ablation is a scenario of the unified runner; each
# sweep point is an independent simulation, so --jobs parallelism cannot
# perturb any measurement (output is byte-identical at any job count). Each
# run saves its text table as <stem>.txt and its tca-bench-sweep/v1 JSON as
# json/<stem>.json, where <stem> is <scenario>[-<backend>].
mkdir -p "$out/json"
jobs=${JOBS:-4}
sweep() {
    local scenario=$1 backend=$2 stem=$3
    cargo run -q --release -p tca-bench --bin tca-bench -- \
        --scenario "$scenario" --backend "$backend" --jobs "$jobs" | tee "$out/$stem.txt"
    cargo run -q --release -p tca-bench --bin tca-bench -- \
        --scenario "$scenario" --backend "$backend" --jobs "$jobs" --json > "$out/json/$stem.json"
    echo
}
scenarios=(tables peaks fig7 fig8 fig9 fig12 latency pingpong ring-hops scaling \
           contention comparison ablation-dmac ablation-qpi ablation-pearl \
           hierarchy latency-attrib put-latency cg stencil stencil2d nbody \
           topo-registry params)
for s in "${scenarios[@]}"; do
    echo "== $s =="
    sweep "$s" tca "$s"
done

# Backend comparison: the application kernels again, over the MPI/IB
# baseline paths (same numerics, different clock — the paper's §I claim).
for s in put-latency cg stencil stencil2d nbody; do
    for backend in mpi mpi-gpudirect; do
        echo "== $s ($backend) =="
        sweep "$s" "$backend" "$s-$backend"
    done
done

# Telemetry artifacts of the instrumented ping-pong run: health report,
# gauge series, Chrome trace (spans + counters) and metrics snapshot.
echo "== telemetry =="
cargo run -q --release -p tca-bench --bin tca-bench -- \
    --scenario pingpong --top --telemetry-dir "$out/telemetry" | tee "$out/telemetry.txt"
echo

# Schema-stable perf-regression report (byte-identical across runs), with
# every metric validated against its paper-anchored bound.
echo "== bench_regression =="
cargo run -q --release -p tca-bench --bin bench_regression "$out/BENCH_fabric.json"
echo "all outputs under $out/"
