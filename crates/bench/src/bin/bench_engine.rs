//! Engine-throughput regression harness (`tca-prof` layer two): drives
//! the fixed 8-node-ring steady-state workload plus the ring-size sweep,
//! measures host events/sec, ns/event, allocs/event, and peak pending
//! depth; races the timing-wheel queue against the pre-rewrite reference
//! heap (identical pop streams, ≥ 2× speedup required); runs the
//! 256-node `torus2d-16x16` all-to-all scale point; writes the
//! schema-stable `BENCH_engine.json`; and validates every metric against
//! its drift bound. Exits non-zero on violation, so CI catches a
//! simulator-speed regression the moment it lands.
//!
//! Unlike `BENCH_fabric.json` (simulated time only, byte-identical across
//! runs), the wall-clock-derived values here vary run to run; the schema
//! and every simulated-side counter in the report are still exactly
//! reproducible.
//!
//! Usage: `bench_engine [output.json]` (default `results/BENCH_engine.json`).

use std::process::ExitCode;
use tca_bench::engine_bench;

/// Accounts every heap allocation of this process, so the report's
/// allocs/event and bytes/phase columns are live (they read as zeros in
/// binaries that skip this opt-in).
#[global_allocator]
static ALLOC: tca_sim::prof::CountingAllocator = tca_sim::prof::CountingAllocator;

fn main() -> ExitCode {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_engine.json".to_string());
    let bench = engine_bench();

    println!("engine throughput report");
    println!(
        "  steady      {} events in {:.1} ms  ({:.2} M events/s, {:.0} ns/event)",
        bench.steady_events,
        bench.steady_wall_ns as f64 / 1e6,
        bench.events_per_sec / 1e6,
        bench.ns_per_event
    );
    println!(
        "  allocs      {:.2} per event ({})   peak pending {}",
        bench.allocs_per_event,
        if bench.alloc_counted {
            "counting allocator installed"
        } else {
            "allocator not counted"
        },
        bench.peak_pending
    );
    println!(
        "  queue race  {} events  wheel {:.2} M/s vs reference heap {:.2} M/s  ({:.2}x)",
        bench.race.events,
        bench.race.wheel_events_per_sec / 1e6,
        bench.race.ref_events_per_sec / 1e6,
        bench.race.speedup
    );
    println!(
        "  torus       {} all-to-all: {} msgs, {} relay hops, {} events in {:.1} ms ({:.2} M events/s)",
        bench.torus.report.name,
        bench.torus.report.messages,
        bench.torus.report.relay_hops,
        bench.torus.report.events,
        bench.torus.wall_ns as f64 / 1e6,
        bench.torus.events_per_sec / 1e6
    );
    print!("  phases     ");
    for p in &bench.profile.phases {
        print!(" {}={:.1}ms", p.name, p.wall_ns as f64 / 1e6);
    }
    println!();
    print!("  dispatch   ");
    for k in &bench.profile.kinds {
        print!(" {}={}", k.kind, k.events);
    }
    println!("  tlp_transmits={}", bench.profile.dispatch.tlp_transmits);

    if let Err(e) = tca_bench::write_artifact(std::path::Path::new(&out), bench.to_json()) {
        eprintln!("bench_engine: cannot write {e}");
        return ExitCode::FAILURE;
    }
    println!("  wrote {out}");

    let violations = bench.validate();
    if violations.is_empty() {
        println!("  all metrics within drift bounds");
        ExitCode::SUCCESS
    } else {
        eprintln!("ENGINE REGRESSION: {} bound(s) violated", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}
