//! The determinism contract: identical configurations replay with
//! bit-identical timing and event counts — the property every measurement
//! in `EXPERIMENTS.md` relies on.

use tca::prelude::*;

/// Every test in this binary runs under the tca-prof counting allocator —
/// the same opt-in `bench_engine` and `tca-bench --profile` make. The
/// byte-identity assertions below therefore double as the proof that
/// allocation accounting never perturbs a simulated timestamp, and
/// `bench_fabric_report_is_byte_identical`'s `validate()` pins the exact
/// paper-anchored values uninstrumented binaries produce.
#[global_allocator]
static ALLOC: tca::sim::prof::CountingAllocator = tca::sim::prof::CountingAllocator;

fn run_workload() -> (u64, Vec<u64>) {
    let (events, times, ..) = run_workload_telemetry(false);
    (events, times)
}

/// The same workload, optionally with full telemetry: causal span tracing,
/// continuous gauge sampling, an armed stall watchdog, plus a metrics
/// snapshot taken *between* operations (mid-run) and another at the end.
/// Returns the final snapshot JSON and the span-tree JSON when
/// instrumented.
fn run_workload_telemetry(instrument: bool) -> (u64, Vec<u64>, String, String) {
    let mut c = TcaClusterBuilder::new(4).build();
    if instrument {
        c.set_span_tracing(true);
        c.enable_sampling(Dur::from_ns(100));
        c.arm_watchdog(Dur::from_ms(1));
    }
    let mut times = Vec::new();
    let a = c.alloc_gpu(0, 0, 64 * 1024);
    let b = c.alloc_gpu(2, 1, 64 * 1024);
    c.write(&a.at(0), &vec![7u8; 64 * 1024]);
    for len in [64u64, 4096, 65536] {
        let d = c.memcpy_peer(&b.at(0), &a.at(0), len);
        times.push(d.as_ps());
        if instrument {
            // Mid-run snapshot: publication must not perturb the sim.
            let _ = c.metrics_snapshot();
        }
    }
    let p = c.pio_put(1, &MemRef::host(3, 0x4000_0000), &[1, 2, 3, 4]);
    times.push(p.as_ps());
    times.push(c.now().as_ps());
    let (snapshot, spans) = if instrument {
        (c.metrics_snapshot().to_json(), c.fabric.spans().to_json())
    } else {
        (String::new(), String::new())
    };
    (c.fabric.events_executed(), times, snapshot, spans)
}

#[test]
fn identical_runs_replay_bit_identically() {
    let (ev1, t1) = run_workload();
    let (ev2, t2) = run_workload();
    assert_eq!(ev1, ev2, "event counts diverged");
    assert_eq!(t1, t2, "timings diverged");
}

#[test]
fn telemetry_never_touches_simulated_time() {
    // `instrument = true` turns on packet tracing, metrics snapshots,
    // causal span tracing, periodic gauge sampling AND the stall watchdog
    // — none may shift a single simulated timestamp.
    let (ev_off, t_off, ..) = run_workload_telemetry(false);
    let (ev_on, t_on, snap, _) = run_workload_telemetry(true);
    assert_eq!(ev_off, ev_on, "tracing/snapshots changed the event count");
    assert_eq!(t_off, t_on, "tracing/snapshots changed the timing");
    assert!(!snap.is_empty());
}

#[test]
fn instrumented_runs_snapshot_bit_identically() {
    let (_, _, a, _) = run_workload_telemetry(true);
    let (_, _, b, _) = run_workload_telemetry(true);
    assert!(!a.is_empty());
    assert_eq!(a, b, "metrics snapshots diverged between identical runs");
}

#[test]
fn span_trees_replay_byte_identically() {
    let (_, _, _, s1) = run_workload_telemetry(true);
    let (_, _, _, s2) = run_workload_telemetry(true);
    assert!(s1.len() > 2, "workload recorded spans: {s1}");
    if s1 != s2 {
        // Don't dump two multi-kilobyte JSON arrays: bisect the span trees
        // and fail with the first divergent stage, rustc-style.
        let rep = tca::verify::diff_span_json(&s1, &s2);
        panic!(
            "span trees diverged between identical runs; first divergence:\n{}",
            rep.render()
        );
    }
}

/// The telemetry workload with the flight recorder on (full-log spill),
/// returning the recorded `tca-flight/v1` JSONL alongside the timings.
fn run_workload_flight() -> (u64, Vec<u64>, String, u64) {
    let mut c = TcaClusterBuilder::new(4).build();
    c.set_span_tracing(true);
    c.enable_flight(65536, true);
    // Driver init during `build()` already executed events; the recorder
    // only sees what dispatches after it is enabled.
    let base = c.fabric.events_executed();
    let mut times = Vec::new();
    let a = c.alloc_gpu(0, 0, 64 * 1024);
    let b = c.alloc_gpu(2, 1, 64 * 1024);
    c.write(&a.at(0), &vec![7u8; 64 * 1024]);
    for len in [64u64, 4096, 65536] {
        times.push(c.memcpy_peer(&b.at(0), &a.at(0), len).as_ps());
    }
    times.push(
        c.pio_put(1, &MemRef::host(3, 0x4000_0000), &[1, 2, 3, 4])
            .as_ps(),
    );
    times.push(c.now().as_ps());
    let log = c.flight_jsonl().expect("recording enabled");
    (c.fabric.events_executed(), times, log, base)
}

#[test]
fn flight_recording_is_time_neutral_and_replays_byte_identically() {
    // Recording must not shift a single simulated timestamp…
    let (ev_off, t_off) = run_workload();
    let (ev_on, t_on, log1, base) = run_workload_flight();
    assert_eq!(ev_off, ev_on, "flight recording changed the event count");
    assert_eq!(t_off, t_on, "flight recording changed the timing");
    // …the log must cover every event dispatched after recording was
    // enabled (full-log spill retains all of them)…
    assert!(
        log1.starts_with("{\"schema\":\"tca-flight/v1\""),
        "{}",
        &log1[..60.min(log1.len())]
    );
    assert!(
        log1.contains(&format!("\"events\":{}", ev_on - base)),
        "header count"
    );
    // …and two identical runs must record byte-identical logs, which the
    // divergence engine confirms as zero findings.
    let (_, _, log2, _) = run_workload_flight();
    assert_eq!(log1, log2, "flight logs diverged between identical runs");
    let rep = tca::verify::diff_flight_texts(&log1, &log2);
    assert!(rep.is_clean(), "{}", rep.render());
}

#[test]
fn flight_diff_names_first_divergent_stage_across_backends() {
    // The ISSUE's acceptance scenario: record the pingpong rig on the TCA
    // backend and on MPI, then ask the diff where they part ways. The
    // engine must point at the first divergent event and name the earliest
    // span stage whose attribution differs — backends are different
    // machines, so the very first dispatch already disagrees.
    use tca_bench::scenario::BackendKind;
    let flight_log = |backend| tca_bench::top_report("pingpong", backend, true).1;
    let a = flight_log(BackendKind::Tca).expect("tca flight log");
    let b = flight_log(BackendKind::MpiStaged).expect("mpi flight log");
    let rep = tca::verify::diff_flight_texts(&a, &b);
    assert!(rep.fails(false), "backends must diverge");
    let codes: Vec<&str> = rep.diagnostics.iter().map(|d| d.code).collect();
    assert!(
        codes.contains(&"TCA-X002") || codes.contains(&"TCA-X003"),
        "first divergent event reported: {codes:?}"
    );
    assert!(
        codes.contains(&"TCA-X004"),
        "divergent span stage named: {codes:?}"
    );
    let rendered = rep.render();
    assert!(
        rendered.contains("span trees diverge"),
        "stage-level explanation present:\n{rendered}"
    );
    // Same-backend control: identical seeds, zero divergences.
    let a2 = flight_log(BackendKind::Tca).expect("tca flight log");
    let control = tca::verify::diff_flight_texts(&a, &a2);
    assert!(control.is_clean(), "{}", control.render());
}

#[test]
fn bench_fabric_report_is_byte_identical() {
    let a = tca_bench::fabric_regression();
    let b = tca_bench::fabric_regression();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "BENCH_fabric.json diverged between identical runs"
    );
    assert!(a.validate().is_empty(), "violations: {:?}", a.validate());
}

#[test]
fn figure_sweeps_are_reproducible() {
    use tca_bench::{fig9_row, num};
    for count in [1, 4, 255] {
        let (x, y) = (fig9_row(count), fig9_row(count));
        for key in ["cpu_write_bps", "cpu_read_bps", "gpu_write_bps"] {
            assert_eq!(num(&x, key).to_bits(), num(&y, key).to_bits(), "{key}");
        }
    }
}

#[test]
fn sweep_runner_output_is_independent_of_job_count() {
    // The scenario runner farms points out to worker threads; every point
    // builds its own simulation and lands in its own slot, so the rendered
    // table and the sweep JSON must be byte-identical at any --jobs.
    // latency-attrib adds rows whose columns differ by point kind.
    use tca_bench::scenario::{find, run_sweep, BackendKind, TelemetryMode};
    for name in ["ring-hops", "latency-attrib"] {
        let sc = find(name).expect("registered scenario");
        let serial = run_sweep(&sc, BackendKind::Tca, 1, TelemetryMode::Off);
        let parallel = run_sweep(&sc, BackendKind::Tca, 8, TelemetryMode::Off);
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "{name} sweep JSON diverged between --jobs 1 and --jobs 8"
        );
        assert_eq!(serial.render(), parallel.render(), "{name}");
    }
}

#[test]
fn backend_sweeps_are_reproducible() {
    // The MPI/IB backend must replay exactly like the TCA one: two runs of
    // the same backend-aware scenario serialize to identical bytes.
    use tca_bench::scenario::{find, run_sweep, BackendKind, TelemetryMode};
    let sc = find("put-latency").expect("registered scenario");
    let a = run_sweep(&sc, BackendKind::MpiStaged, 2, TelemetryMode::Off);
    let b = run_sweep(&sc, BackendKind::MpiStaged, 2, TelemetryMode::Off);
    assert_eq!(a.to_json(), b.to_json(), "MPI sweep diverged between runs");
}

#[test]
fn latency_report_is_reproducible() {
    use tca_bench::{latency_row, num};
    let (a, b) = (latency_row(), latency_row());
    for key in ["pio_oneway_ns", "ib_qdr_oneway_ns", "mpi_halfrtt_ns"] {
        assert_eq!(num(&a, key).to_bits(), num(&b, key).to_bits(), "{key}");
    }
}

#[test]
fn verifier_reports_are_byte_identical() {
    // Static lint + hazard pass over a traced run, on a deliberately broken
    // configuration (one routing row misdirected) so the diagnostics list
    // is non-empty: two identical runs must serialize to identical bytes.
    let run = || {
        let mut c = TcaClusterBuilder::new(4).build();
        let dev = c.sub.chips[0];
        let chip = c.fabric.device_mut::<tca::peach2::Peach2>(dev);
        let victim = c.sub.map.node_slice(2).base();
        let row = (0..8)
            .find(|&i| chip.regs().routes[i].matches(victim))
            .expect("route row for node 2's slice");
        chip.regs_mut().routes[row].port = Some(tca::peach2::PORT_S);
        let mut rep = c.verify();
        c.set_span_tracing(true);
        c.write(&MemRef::host(0, 0x4000_0000), &[0x5au8; 4096]);
        c.memcpy_peer(
            &MemRef::host(1, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            4096,
        );
        rep.extend(tca::verify::detect_hazards(
            c.fabric.spans(),
            &[tca::pcie::AddrRange::new(0x5800_0000, 8)],
        ));
        (rep.error_count(), rep.to_json(), rep.render())
    };
    let (errs_a, json_a, text_a) = run();
    let (_, json_b, text_b) = run();
    assert!(errs_a > 0, "seeded route corruption must produce errors");
    assert_eq!(json_a, json_b, "verifier JSON diverged between runs");
    assert_eq!(text_a, text_b, "verifier rendering diverged between runs");
}

#[test]
fn health_artifacts_replay_byte_identically() {
    // The tca-top pipeline end to end: instrumented cluster, sampled
    // series, health report, Chrome trace with counter events. Two
    // identical runs must produce byte-identical artifacts.
    let run = || tca_bench::top_report("pingpong", tca_bench::scenario::BackendKind::Tca, false).0;
    let (a, b) = (run(), run());
    assert!(a.text.contains("fabric health:"), "{}", a.text);
    assert!(
        a.health_json.starts_with("{\"schema\":\"tca-health/v1\""),
        "{}",
        a.health_json
    );
    assert!(
        a.series_json.starts_with("{\"schema\":\"tca-series/v1\""),
        "{}",
        &a.series_json[..80.min(a.series_json.len())]
    );
    assert!(
        a.trace_json.contains("\"ph\":\"C\""),
        "counter events present"
    );
    assert_eq!(a.text, b.text, "health report diverged");
    assert_eq!(a.health_json, b.health_json, "health JSON diverged");
    assert_eq!(a.series_json, b.series_json, "series JSON diverged");
    assert_eq!(a.trace_json, b.trace_json, "trace JSON diverged");
    assert_eq!(a.metrics_json, b.metrics_json, "metrics JSON diverged");
}

#[test]
fn telemetry_summaries_are_independent_of_job_count() {
    // The --json telemetry summaries ride inside sweep rows; they must be
    // as job-count-invariant as the measurements themselves.
    use tca_bench::scenario::{find, run_sweep, BackendKind, TelemetryMode};
    let sc = find("put-latency").expect("registered scenario");
    let serial = run_sweep(&sc, BackendKind::Tca, 1, TelemetryMode::Summary);
    let parallel = run_sweep(&sc, BackendKind::Tca, 8, TelemetryMode::Summary);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "telemetry-bearing sweep JSON diverged between --jobs 1 and --jobs 8"
    );
    assert!(serial.to_json().contains("\"telemetry\":{"));
}

#[test]
fn counting_allocator_is_live_and_byte_neutral() {
    // The allocator installed above must actually be counting this
    // process's allocations…
    assert!(tca::sim::prof::alloc_tracking_compiled());
    let before = tca::sim::alloc_snapshot();
    let (ev1, t1, snap1, spans1) = run_workload_telemetry(true);
    let delta = tca::sim::alloc_snapshot().since(&before);
    assert!(delta.allocs > 0, "allocator is not counting: {delta:?}");
    assert!(delta.bytes_allocated > 0);
    // …and counting must leave the event stream, timings, metrics
    // snapshot, and span trace byte-identical across replays.
    let (ev2, t2, snap2, spans2) = run_workload_telemetry(true);
    assert_eq!(ev1, ev2, "event counts diverged under the allocator");
    assert_eq!(t1, t2, "timings diverged under the allocator");
    assert_eq!(snap1, snap2, "snapshots diverged under the allocator");
    assert_eq!(spans1, spans2, "span trees diverged under the allocator");
}

#[test]
fn prof_counters_replay_exactly_and_balance() {
    // ProfCounters (queue) and FabricProf (dispatch) are per-instance
    // simulated-side tallies, and TLP counts are per-thread: two identical
    // workloads on this thread must produce the same counts, every pop
    // must have dispatched exactly one event kind, and the drained queue
    // must hold no residue (the timing wheel unlinks eagerly — no
    // tombstones to account for).
    let run = || {
        let tlp_before = tca::pcie::tlp_counts();
        let mut c = TcaClusterBuilder::new(4).build();
        c.write(&MemRef::host(0, 0x4000_0000), &[0x5au8; 4096]);
        c.memcpy_peer(
            &MemRef::host(2, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            4096,
        );
        c.pio_put(1, &MemRef::host(3, 0x6000_0000), &[9, 9, 9, 9]);
        assert_eq!(c.fabric.queue_depth(), 0, "drained fabric holds events");
        (
            c.fabric.queue_prof(),
            c.fabric.prof(),
            tca::pcie::tlp_counts().since(&tlp_before),
        )
    };
    let (q1, d1, t1) = run();
    let (q2, d2, t2) = run();
    assert_eq!(q1, q2, "queue counters diverged between identical runs");
    assert_eq!(d1, d2, "dispatch counters diverged between identical runs");
    assert_eq!(t1, t2, "TLP counters diverged between identical runs");
    assert!(q1.pops > 0 && q1.pushes >= q1.pops);
    assert!(q1.peak_pending > 0);
    assert_eq!(
        d1.deliver_events + d1.timer_events + d1.credit_return_events,
        q1.pops,
        "every pop must dispatch exactly one event kind"
    );
    assert!(t1.constructed > 0, "workload built TLPs: {t1:?}");
}

#[test]
fn engine_bench_is_reproducible_and_schema_stable() {
    // BENCH_engine.json mixes wall-clock metrics (vary run to run) with
    // simulated-side counters (must not). Two smoke-workload runs agree on
    // every simulated-side field, and the schema headers are pinned.
    use tca_bench::EngineWorkload;
    let a = tca_bench::engine_bench_with(EngineWorkload::smoke());
    let b = tca_bench::engine_bench_with(EngineWorkload::smoke());
    assert_eq!(a.steady_events, b.steady_events);
    assert!(a.steady_events > 0);
    assert_eq!(a.peak_pending, b.peak_pending);
    assert_eq!(a.profile.queue, b.profile.queue);
    assert_eq!(a.profile.dispatch, b.profile.dispatch);
    assert_eq!(a.race.checksum, b.race.checksum, "race replay diverged");
    assert_eq!(a.torus.report, b.torus.report, "torus run diverged");
    assert!(a.alloc_counted, "this binary installs the allocator");
    assert!(a
        .to_json()
        .starts_with("{\"schema\":\"tca-bench-engine/v2\""));
    assert!(a
        .profile
        .to_json()
        .starts_with("{\"schema\":\"tca-prof/v1\""));
}

#[test]
fn rng_streams_are_seed_stable() {
    let mut a = tca::sim::SimRng::seed_from_u64(1234);
    let expected: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
    let mut b = tca::sim::SimRng::seed_from_u64(1234);
    let got: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
    assert_eq!(expected, got);
}
