//! Fabric perf-regression harness: runs the §IV-B1 ping-pong, the hop
//! sweep, and the Fig. 7/8/9 bandwidth anchors through their registry
//! sweep points, writes the schema-stable `BENCH_fabric.json`
//! (byte-identical across runs), and validates every metric against its
//! paper-anchored bound. Exits non-zero on drift, so CI catches a
//! fabric-timing regression the moment it lands.
//!
//! Usage: `bench_regression [output.json]` (default `results/BENCH_fabric.json`).

use std::process::ExitCode;
use tca_bench::{fabric_regression, hazard_check};

fn main() -> ExitCode {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_fabric.json".to_string());
    let bench = fabric_regression();

    println!("fabric regression report");
    println!(
        "  pingpong    PIO {:.3} µs (paper 2.3)   DMA {:.3} µs (paper 2.0)",
        bench.pio_us, bench.dma_us
    );
    println!(
        "  hw legs     PIO {:.0} ns one-way       DMA {:.0} ns doorbell→commit",
        bench.pio_leg_ns, bench.dma_leg_ns
    );
    print!("  hop sweep  ");
    for (i, ns) in bench.hop_pio_ns.iter().enumerate() {
        print!(" {}h={ns:.0}ns", i + 1);
    }
    println!(
        "  (+{:.0} ns/hop, linearity err {:.4})",
        bench.per_hop_delta_ns, bench.per_hop_linearity_err
    );
    println!(
        "  bandwidth   fig7 4K write {:.2} GB/s   fig8 {:.2} GB/s   fig9 ratio {:.3}",
        bench.fig7_cpu_write_4k / 1e9,
        bench.fig8_cpu_write_4k / 1e9,
        bench.fig9_ratio_4_vs_255
    );

    if let Err(e) = tca_bench::write_artifact(std::path::Path::new(&out), bench.to_json()) {
        eprintln!("bench_regression: cannot write {e}");
        return ExitCode::FAILURE;
    }
    println!("  wrote {out}");

    let mut violations = bench.validate();
    let hazards = hazard_check();
    if hazards.is_clean() {
        println!("  hazard check: benchmark payload+flag traffic is ordered");
    } else {
        violations.push(format!(
            "RDMA hazards in benchmark traffic:\n{}",
            hazards.render()
        ));
    }
    if violations.is_empty() {
        println!("  all metrics within paper-anchored bounds");
        ExitCode::SUCCESS
    } else {
        eprintln!("PERF REGRESSION: {} bound(s) violated", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}
