//! The reproduction's gates, each in one place: the §IV paper anchors
//! every build must hold, the verifier over every shipped preset (lint,
//! RDMA-hazard check of the benchmark traffic, chain lint), and the
//! simulator's release-build speed floors.

use tca_bench::scenario::{find, point_row, run_sweep, BackendKind};
use tca_bench::{num, queue_race};

/// The paper-anchored bounds, each read from the registry point that
/// measures it: the §IV-B1 ping-pong (PIO 2.3 µs and chained DMA 2.0 µs,
/// each ±10 %), linear per-hop latency growth on the 8-node ring, the
/// Fig. 7 4 KiB CPU write in the paper's 3.1–3.6 GB/s regime, Fig. 8 well
/// below it (chaining matters), and the Fig. 9 4-deep over 255-deep chain
/// ratio of 0.6–0.8.
#[test]
fn paper_anchors_hold_their_bounds() {
    let pp = point_row("pingpong", "half-rtt");
    assert!((2.07..=2.53).contains(&num(&pp, "pio_us")), "{pp:?}");
    assert!((1.80..=2.20).contains(&num(&pp, "dma_us")), "{pp:?}");

    let hops: Vec<f64> = (1..=4)
        .map(|h| num(&point_row("ring-hops", &format!("{h} hop")), "pio_ns"))
        .collect();
    let deltas: Vec<f64> = hops.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    let linearity_err = deltas
        .iter()
        .map(|d| (d - mean).abs() / mean)
        .fold(0.0f64, f64::max);
    assert!(linearity_err <= 0.05, "hop latencies {hops:?}");

    let cpu_write = |sc: &str, label: &str| num(&point_row(sc, label), "cpu_write_bps");
    let fig7 = cpu_write("fig7", "4KB");
    assert!((3.1..=3.6).contains(&(fig7 / 1e9)), "fig7 4 KiB {fig7}");
    let fig8 = cpu_write("fig8", "4KB");
    assert!(fig8 < 0.5 * fig7, "fig8 {fig8} not well below fig7 {fig7}");
    let ratio = cpu_write("fig9", "4 reqs") / cpu_write("fig9", "255 reqs");
    assert!((0.6..=0.8).contains(&ratio), "fig9 ratio {ratio}");
}

/// Every shipped preset verifies with no error and no warning: the
/// static lint, the payload+flag neighbour put every benchmark workload
/// uses (RDMA hazards there would mean the harness publishes racy
/// numbers), the lint of its descriptor chains and the runtime pass —
/// the rows of `tca-bench --scenario verify`.
#[test]
fn benchmark_traffic_is_hazard_free() {
    let sweep = run_sweep(&find("verify").expect("registered"), BackendKind::Tca, 2);
    assert_eq!(sweep.rows.len(), 8, "one row per shipped preset");
    for (label, row) in &sweep.rows {
        assert_eq!(num(row, "errors"), 0.0, "{label}: {}", row.to_json());
        assert_eq!(num(row, "warnings"), 0.0, "{label}: {}", row.to_json());
    }
}

/// Host-speed floors of the `engine` scenario, timed by the sweep runner
/// (`Sweep::costs`): the whole `ring-8 shift` point clears 3.2 M events
/// per host second and the 256-node all-to-all 1.98 M, and the timing
/// wheel beats the reference heap at least 2× on the race workload. Each
/// floor is half the slowest of ten release runs of this whole test
/// binary on a 2-core x86-64 VM (6.40–9.98 M and 3.97–5.78 M events/s):
/// the VM drifts 5–50 % run to run, so no tighter floor stays unflaky.
/// Debug builds are an order of magnitude slower, so only release runs
/// gate: `cargo test --release --test gates`.
#[test]
#[cfg_attr(debug_assertions, ignore = "speed floors hold for release builds")]
fn engine_speed_floors() {
    let sweep = run_sweep(&find("engine").expect("registered"), BackendKind::Tca, 1);
    let events_per_sec = |label: &str| {
        let i = sweep
            .rows
            .iter()
            .position(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("engine has no point '{label}'"));
        let wall_s = sweep.costs[i].wall_ns as f64 / 1e9;
        num(&sweep.rows[i].1, "events") / wall_s.max(1e-12)
    };
    for (label, floor) in [
        ("ring-8 shift", 3_200_000.0),
        ("torus2d-16x16", 1_980_000.0),
    ] {
        let eps = events_per_sec(label);
        assert!(eps >= floor, "{label}: {eps:.0} events/s below {floor:.0}");
    }
    let race = queue_race(200_000);
    assert!(
        race.speedup >= 2.0,
        "timing wheel only {:.2}x the reference heap",
        race.speedup
    );
}
