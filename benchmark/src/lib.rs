//! # tca-benchmark — the repository's benchmark
//!
//! Times what users run: the release `tca-bench` CLI, launched one child at
//! a time (`--jobs 1`) and measured from outside (wall time, peak resident
//! memory of the child), plus one seeded in-process workload driven through
//! the public `tca-core` API. A separate traced run splits host time by
//! layer from outside the program, using only public functions of the
//! library crates. `benchmark/README.md` documents the workloads, the
//! metrics and their bounds; `BENCHMARK.json` at the repository root
//! declares them.

pub mod calib;
pub mod golden;
pub mod launch;
pub mod report;
pub mod ring;
pub mod setup;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

/// The benchmark's own directory (goldens, results, history).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root `BENCHMARK.json`, embedded at build time so the bounds the
/// driver enforces and the bounds `compare` applies are one text.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Tally of correctness checks: one per sweep row compared against its
/// golden row, per traced point, or per read-back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; the first failure of a tally is described on
    /// stderr so a mismatch is diagnosable from the run log alone.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            if self.failed == 0 {
                eprintln!("tca-benchmark: check failed: {}", what());
            }
            self.failed += 1;
        }
    }

    /// Counts `n` checks that all failed (a crashed child, unreadable output).
    pub fn fail_all(&mut self, n: u64, why: &str) {
        eprintln!("tca-benchmark: {n} checks failed: {why}");
        self.attempted += n;
        self.failed += n;
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
