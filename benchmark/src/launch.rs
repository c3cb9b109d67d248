//! The launcher: one small subprocess per pass that runs the pass's
//! children one at a time and measures them from outside.
//!
//! Why a separate process: a child's `ru_maxrss` starts from the memory of
//! whoever spawned it (`posix_spawn` shares the parent's address space until
//! `exec`), so a parent that has built fabrics, or a Python driver, would
//! lift every child's peak to its own. The launcher does nothing but spawn
//! and wait, so its floor is about 2 MB, and `getrusage(RUSAGE_CHILDREN)`
//! read after the last child is the peak resident memory of the largest
//! child of the pass.
//!
//! After that reading, the launcher also times the workload's set-up: a
//! fresh process each pass gives every rep the same allocator state in any
//! mode, where a long-lived driver's heap would depend on what it ran
//! before.

use crate::setup;
use crate::workloads::{self, sweep_command, Child, Workload};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use tca_sim::JsonValue;

/// Linux `struct rusage` (x86-64 and aarch64 layout: two `timeval`s then
/// fourteen `long`s).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of the largest waited-for child so far, KiB.
fn children_peak_rss_kb() -> u64 {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer,
    // which points at a live, writable `#[repr(C)]` value of exactly that
    // layout; RUSAGE_CHILDREN is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    u64::try_from(ru.maxrss).expect("ru_maxrss is non-negative")
}

/// What one pass measured.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host seconds from the first spawn to the last exit.
    pub wall_s: f64,
    /// Peak resident memory of the largest child, MiB.
    pub peak_rss_mb: f64,
    /// Keys of children that exited unsuccessfully.
    pub failed_children: Vec<String>,
    /// Host seconds of each child, by key.
    pub child_wall_s: Vec<(String, f64)>,
    /// Host seconds of each set-up rep (see [`crate::setup`]).
    pub setup_s: Vec<f64>,
}

/// Set-up reps timed after each pass.
const SETUP_REPS: usize = 5;

/// The output file of `child` in a pass directory.
pub fn output_path(out: &Path, child: &Child) -> PathBuf {
    out.join(format!("{}.json", child.key()))
}

fn command(child: &Child, tca_bench: &Path, seed: u64) -> Command {
    match child {
        Child::Cli { scenario, backend } => sweep_command(tca_bench, scenario, backend, 1),
        Child::RingTraffic => {
            let mut c = Command::new(std::env::current_exe().expect("own executable path"));
            c.args(["ring-traffic", "--seed", &seed.to_string()]);
            c
        }
    }
}

/// Body of `tca-benchmark launch`: runs the pass in this process and
/// prints its one-line JSON summary.
pub fn run_here(w: &Workload, tca_bench: &Path, out: &Path, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut failed = Vec::new();
    let mut walls = JsonValue::object();
    let start = Instant::now();
    for child in &w.children {
        let path = output_path(out, child);
        let file =
            File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let t = Instant::now();
        let status = command(child, tca_bench, seed)
            .stdin(Stdio::null())
            .stdout(file)
            .status()
            .map_err(|e| format!("cannot run {}: {e}", child.key()))?;
        walls.push(child.key(), JsonValue::from(t.elapsed().as_secs_f64()));
        if !status.success() {
            failed.push(JsonValue::from(child.key()));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut o = JsonValue::object();
    o.push("wall_s", JsonValue::from(wall_s));
    o.push("peak_rss_kb", JsonValue::from(children_peak_rss_kb()));
    o.push("failed_children", JsonValue::Array(failed));
    o.push("child_wall_s", walls);
    let setup_s = setup::time_setup(&workloads::builds(w.name), SETUP_REPS);
    o.push(
        "setup_s",
        JsonValue::Array(setup_s.into_iter().map(JsonValue::from).collect()),
    );
    println!("{o}");
    Ok(())
}

/// Runs one pass of `w` in a fresh launcher subprocess; children write
/// their stdout to `out/<key>.json`.
pub fn pass(w: &Workload, tca_bench: &Path, out: &Path, seed: u64) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let o = Command::new(exe)
        .arg("launch")
        .arg(w.name)
        .arg("--tca-bench")
        .arg(tca_bench)
        .arg("--out")
        .arg(out)
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the launcher: {e}"))?;
    if !o.status.success() {
        return Err(format!("launcher for {} exited with {}", w.name, o.status));
    }
    let text = String::from_utf8_lossy(&o.stdout);
    let doc = JsonValue::parse(text.trim()).map_err(|e| format!("launcher output: {e}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("launcher output lacks {k}"))
    };
    Ok(Pass {
        wall_s: num("wall_s")?,
        peak_rss_mb: num("peak_rss_kb")? / 1024.0,
        failed_children: doc
            .get("failed_children")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.as_str().map(str::to_owned))
            .collect(),
        child_wall_s: doc
            .get("child_wall_s")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        setup_s: doc
            .get("setup_s")
            .and_then(JsonValue::as_array)
            .ok_or("launcher output lacks setup_s")?
            .iter()
            .filter_map(JsonValue::as_f64)
            .collect(),
    })
}
