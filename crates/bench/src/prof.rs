//! `tca-prof` layer two: wall-clock timing of the simulator itself.
//!
//! The simulation crates export pure counters (queue activity, per-kind
//! dispatch counts, TLP constructions/clones, allocation totals — see
//! `tca_sim::prof` and `tca_pcie::prof`); this module is the only place
//! that pairs them with `std::time::Instant`, which the determinism lint
//! bans from the simulation crates. The split is deliberate: counters in
//! sim, timers in bench.
//!
//! Two consumers:
//! * [`timed`] — wraps every sweep point `run_sweep` executes, so each
//!   [`crate::scenario::Sweep`] carries the host wall time and this
//!   thread's allocations per point; `tca-bench --profile` writes them
//!   with [`write_sweep_profile`] as a `tca-prof/v2` report plus
//!   flamegraph-compatible folded stacks. Timing the `engine` scenario
//!   this way measures the simulator's own speed;
//! * [`queue_race`] — times the timing wheel against the pre-rewrite
//!   reference heap on the race workload, alternating the two queues
//!   inside one measurement.
//!
//! Simulated results are byte-identical whether or not a profile is
//! taken (proved by `tests/determinism.rs` and the `ci.sh` smoke); only
//! the host-time numbers vary run to run, so the JSON artifacts here are
//! *schema*-stable rather than byte-stable.

use crate::refqueue::{replay_race_workload, RaceQueue, RefQueue};
use crate::scenario::Sweep;
use crate::write_artifact;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tca_sim::{EventQueue, JsonValue};

/// Host cost of one sweep point: wall time and the allocations the
/// worker thread made while running it.
#[derive(Clone, Copy, Debug)]
pub struct PointCost {
    /// Host wall time of the point, ns.
    pub wall_ns: u64,
    /// Heap allocations by the running thread (0 without the counting
    /// allocator installed).
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

/// Runs `f` on the calling thread and returns its result with its
/// [`PointCost`]. Allocation counts are per thread, so concurrent sweep
/// workers do not charge each other.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, PointCost) {
    let alloc0 = tca_sim::thread_alloc_snapshot();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let alloc = tca_sim::thread_alloc_snapshot().since(&alloc0);
    let cost = PointCost {
        wall_ns: wall.as_nanos() as u64,
        allocs: alloc.allocs,
        alloc_bytes: alloc.bytes_allocated,
    };
    (out, cost)
}

/// Writes the `--profile` artifacts of `sweep` into `dir`, creating it if
/// needed: `PROF_<scenario>-<backend>.json` (schema `tca-prof/v2`, with
/// the sweep's `config_fnv` and one entry per point in sweep order) and
/// `PROF_<scenario>-<backend>.folded` (one flamegraph-compatible
/// `tca_bench;<scenario>;<label> <wall ns>` line per point). Returns the
/// paths written.
pub fn write_sweep_profile(sweep: &Sweep, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut points = Vec::with_capacity(sweep.costs.len());
    let mut folded = String::new();
    for ((label, _), c) in sweep.rows.iter().zip(&sweep.costs) {
        let mut o = JsonValue::object();
        o.push("label", JsonValue::from(label.as_str()));
        o.push("wall_ns", JsonValue::from(c.wall_ns));
        o.push("allocs", JsonValue::from(c.allocs));
        o.push("alloc_bytes", JsonValue::from(c.alloc_bytes));
        points.push(o);
        folded.push_str(&format!(
            "tca_bench;{};{label} {}\n",
            sweep.scenario, c.wall_ns
        ));
    }
    let mut root = JsonValue::object();
    root.push("schema", JsonValue::from("tca-prof/v2"));
    root.push("scenario", JsonValue::from(sweep.scenario));
    root.push("backend", JsonValue::from(sweep.backend.name()));
    let config_fnv = tca_core::default_fingerprint_hex();
    root.push("config_fnv", JsonValue::from(config_fnv));
    root.push("points", JsonValue::Array(points));
    let stem = format!("PROF_{}-{}", sweep.scenario, sweep.backend.name());
    Ok(vec![
        write_artifact(&dir.join(format!("{stem}.json")), root.to_json())?,
        write_artifact(&dir.join(format!("{stem}.folded")), folded)?,
    ])
}

/// Outcome of racing the timing wheel against the reference heap.
#[derive(Clone, Copy, Debug)]
pub struct QueueRace {
    /// Events popped by each queue (identical by construction).
    pub events: u64,
    /// Wheel throughput, pops per host second (median replay).
    pub wheel_events_per_sec: f64,
    /// Reference-heap throughput, pops per host second (median replay).
    pub ref_events_per_sec: f64,
    /// `wheel_events_per_sec / ref_events_per_sec`.
    pub speedup: f64,
    /// FNV-1a checksum of the popped stream (equal across both queues —
    /// asserted before this struct is built).
    pub checksum: u64,
}

/// Timed replays per queue in [`queue_race`]; the race compares medians.
const RACE_REPS: usize = 5;

/// Replays the race workload through a fresh `Q`; returns
/// `(events popped, checksum, host seconds)`.
fn timed_race<Q: RaceQueue>(mut q: Q, total_events: u64) -> (u64, u64, f64) {
    let t = Instant::now();
    let sum = replay_race_workload(&mut q, total_events);
    let wall = t.elapsed().as_secs_f64().max(1e-12);
    (q.executed(), sum, wall)
}

/// Median of a small sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Races `tca_sim::EventQueue` (the timing wheel) against
/// [`RefQueue`] (the pre-rewrite heap) on the identical deterministic
/// workload and asserts their pop streams match exactly.
///
/// Each queue replays the workload `RACE_REPS` times, alternating with
/// the other so a slow patch of the host hits both, and the throughputs
/// compared are the medians — a single ~20 ms shot per queue was at the
/// mercy of host noise.
///
/// # Panics
/// Panics if the two queues disagree on the popped stream — the wheel
/// would no longer be a drop-in replacement for the heap.
pub fn queue_race(total_events: u64) -> QueueRace {
    let mut wheel_walls = Vec::with_capacity(RACE_REPS);
    let mut ref_walls = Vec::with_capacity(RACE_REPS);
    let (mut events, mut checksum) = (0, 0);
    for _ in 0..RACE_REPS {
        let (wheel_events, wheel_sum, wall) = timed_race(EventQueue::<u64>::new(), total_events);
        wheel_walls.push(wall);
        let (ref_events, ref_sum, wall) = timed_race(RefQueue::<u64>::new(), total_events);
        ref_walls.push(wall);
        assert_eq!(
            wheel_events, ref_events,
            "wheel and reference popped different event counts"
        );
        assert_eq!(
            wheel_sum, ref_sum,
            "wheel and reference pop streams diverged"
        );
        (events, checksum) = (wheel_events, wheel_sum);
    }
    let wheel_eps = events as f64 / median(wheel_walls);
    let ref_eps = events as f64 / median(ref_walls);
    QueueRace {
        events,
        wheel_events_per_sec: wheel_eps,
        ref_events_per_sec: ref_eps,
        speedup: wheel_eps / ref_eps.max(1e-12),
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_race_streams_match_at_smoke_size() {
        let r = queue_race(5_000);
        assert!(r.events >= 4_000, "cancels only trim a fraction");
        assert!(r.wheel_events_per_sec > 0.0 && r.ref_events_per_sec > 0.0);
        // No speedup assertion here: debug-build timings are noise. The
        // release-only `engine_speed_floors` test gates speedup >= 2x.
    }

    /// The stress run: one million events through the
    /// timing wheel and the reference heap, identical pop streams,
    /// throughput printed for both. Run it with
    /// `cargo test --release -p tca-bench -- --ignored engine_stress`.
    #[test]
    #[ignore = "stress run; release-mode only, prints throughput"]
    fn engine_stress_1m_events_wheel_vs_reference() {
        let r = queue_race(1_000_000);
        println!(
            "engine_stress: {} events | wheel {:.2} M events/s | \
             reference heap {:.2} M events/s | speedup {:.2}x | checksum {:016x}",
            r.events,
            r.wheel_events_per_sec / 1e6,
            r.ref_events_per_sec / 1e6,
            r.speedup,
            r.checksum
        );
        // `events` counts *executed* pops: the race workload cancels
        // roughly 15% of its one million schedules, so ~850k land.
        assert!(
            r.events > 800_000,
            "stress run executed {} events",
            r.events
        );
    }
}
