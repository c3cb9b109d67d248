//! `tca-benchmark` — runs the workloads of `BENCHMARK.json`. Start it
//! through `benchmark/run.sh`, which builds the release `tca-bench` CLI
//! and this binary first; `benchmark/README.md` describes every mode.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tca_benchmark::calib::{self, Calib, Scaler};
use tca_benchmark::launch::{self, Pass};
use tca_benchmark::report::{self, declared, WorkloadResult};
use tca_benchmark::trace::{self, Layers};
use tca_benchmark::workloads::{self, Child, Workload};
use tca_benchmark::{bench_dir, golden, ring, stats, Checks};
use tca_sim::JsonValue;

/// Counts heap allocations, so the traced run can report allocations per
/// event and per payload byte (the same allocator `tca-bench` installs).
#[global_allocator]
static ALLOC: tca_sim::prof::CountingAllocator = tca_sim::prof::CountingAllocator;

const USAGE: &str = "\
usage: tca-benchmark --tca-bench <path> --workload <name> --seconds <s> [--seed <n>] [--trace 0|1]
       tca-benchmark --tca-bench <path> [--quick] [--trace] [--seed <n>] [--record]
       tca-benchmark --tca-bench <path> --bless
       tca-benchmark compare <A.json> <B.json>
       tca-benchmark check <scenario>-<backend> <output.json> [--golden <dir>]
       tca-benchmark ring-traffic --seed <n>
       tca-benchmark launch <workload> --tca-bench <path> --out <dir> --seed <n>";

#[derive(Default)]
struct Opts {
    tca_bench: Option<PathBuf>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    record: bool,
    bless: bool,
    out: Option<PathBuf>,
    golden: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        ..Opts::default()
    };
    let mut it = args.iter().peekable();
    let value = |flag: &str, it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tca-bench" => o.tca_bench = Some(value(a, &mut it)?.into()),
            "--workload" => o.workload = Some(value(a, &mut it)?),
            "--out" => o.out = Some(value(a, &mut it)?.into()),
            "--golden" => o.golden = Some(value(a, &mut it)?.into()),
            "--seed" => {
                o.seed = value(a, &mut it)?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer")?
            }
            "--seconds" => {
                o.seconds = Some(
                    value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--seconds needs a positive integer")?,
                )
            }
            // `--trace` alone, or with an explicit 0 / 1.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => o.quick = true,
            "--record" => o.record = true,
            "--bless" => o.bless = true,
            flag if flag.starts_with("--") => return Err(format!("unknown argument '{flag}'")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    // The flight-recording audit switch would change what is measured, here
    // and in every child, which inherits this environment.
    std::env::remove_var("TCA_FLIGHT_RING");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let result = match opts.positional.first().map(String::as_str) {
        Some("compare") => match &opts.positional[1..] {
            [a, b] => report::compare(a, b),
            _ => return usage("compare needs two run files"),
        },
        Some("check") => match &opts.positional[1..] {
            [key, output] => check(key, output, opts.golden.as_deref()),
            _ => return usage("check needs a golden key and an output file"),
        },
        Some("ring-traffic") => {
            ring_traffic(opts.seed);
            Ok(true)
        }
        Some("launch") => launch_cmd(&opts),
        Some(other) => return usage(&format!("unknown command '{other}'")),
        None => {
            let Some(tca_bench) = opts.tca_bench.clone() else {
                return usage("--tca-bench is required");
            };
            if opts.bless {
                bless(&tca_bench)
            } else if let Some(name) = &opts.workload {
                driver(&opts, name, &tca_bench)
            } else {
                full_run(&opts, &tca_bench)
            }
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tca-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("tca-benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn find(name: &str) -> Result<Workload, String> {
    workloads::find(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (one of {})",
            workloads::NAMES.join(", ")
        )
    })
}

/// `ring-traffic`: one pass, reported as one JSON line.
fn ring_traffic(seed: u64) {
    let r = ring::run(seed, ring::ROUNDS);
    let mut o = JsonValue::object();
    o.push("timed_s", JsonValue::from(r.timed_s));
    o.push("attempted", JsonValue::from(r.checks.attempted));
    o.push("failed", JsonValue::from(r.checks.failed));
    o.push("bytes", JsonValue::from(r.bytes));
    println!("{o}");
}

/// `check`: compares a saved `tca-bench --json` output with its golden.
fn check(key: &str, output: &str, dir: Option<&Path>) -> Result<bool, String> {
    let text = std::fs::read_to_string(output).map_err(|e| format!("cannot read {output}: {e}"))?;
    let c = golden::check(dir.unwrap_or(&golden::dir()), key, &text);
    eprintln!("{key}: {} of {} rows differ", c.failed, c.attempted);
    Ok(c.failed == 0)
}

fn launch_cmd(o: &Opts) -> Result<bool, String> {
    let (Some(name), Some(tca_bench), Some(out)) = (o.positional.get(1), &o.tca_bench, &o.out)
    else {
        return Err("launch needs <workload> --tca-bench <path> --out <dir>".into());
    };
    launch::run_here(&find(name)?, tca_bench, out, o.seed)?;
    Ok(true)
}

/// Checks one pass's outputs; returns the pass's `wall_s` and its checks.
/// The ring workload times only issue and wait inside its child, so its
/// wall is the child's own figure; every other wall is the launcher's.
fn check_pass(w: &Workload, out: &Path, pass: &Pass) -> (f64, Checks) {
    let mut checks = Checks::default();
    let mut wall = pass.wall_s;
    for child in &w.children {
        let key = child.key();
        let text = std::fs::read_to_string(launch::output_path(out, child)).unwrap_or_default();
        let crashed = pass.failed_children.contains(&key);
        match child {
            Child::Cli { .. } if !crashed => checks.add(golden::check(&golden::dir(), &key, &text)),
            Child::Cli { .. } => {
                let rows = golden::load(&golden::dir(), &key).map_or(1, |r| r.len() as u64);
                checks.fail_all(rows, &format!("{key} exited unsuccessfully"));
            }
            Child::RingTraffic => {
                let doc = JsonValue::parse(text.trim()).ok().filter(|_| !crashed);
                let num = |k: &str| doc.as_ref()?.get(k)?.as_f64();
                match (num("timed_s"), num("attempted"), num("failed")) {
                    (Some(t), Some(a), Some(f)) => {
                        wall = t;
                        checks.add(Checks {
                            attempted: a as u64,
                            failed: f as u64,
                        });
                    }
                    _ => checks.fail_all(
                        u64::from(ring::ROUNDS) * (u64::from(ring::NODES) + 1),
                        "ring-traffic child failed",
                    ),
                }
            }
        }
    }
    (wall, checks)
}

/// Runs passes of `w` (each with its set-up reps, see `launch`) while
/// `more(passes_so_far, elapsed)` holds (at least one). Host speed is
/// probed before the first pass and after each; every timed figure of a
/// pass is scaled to reference seconds by the mean of the two probes
/// around it (see `calib`). Also returns the median wall of the workload's
/// probe sweep, which every pass runs at `--jobs 1` (unscaled, for the
/// traced run's parallel efficiency).
fn measure(
    w: &Workload,
    tca_bench: &Path,
    seed: u64,
    more: impl Fn(usize, Duration) -> bool,
) -> Result<(WorkloadResult, Option<f64>), String> {
    let out = bench_dir().join("results").join(w.name);
    let probe_key = w.probe.map(|(s, b)| format!("{s}-{b}"));
    let (mut wall, mut setup_s, mut rss, mut probe) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut checks = Checks::default();
    let mut scaler = Scaler::new();
    let start = Instant::now();
    while wall.is_empty() || more(wall.len(), start.elapsed()) {
        let pass = launch::pass(w, tca_bench, &out, seed)?;
        let (wall_s, c) = check_pass(w, &out, &pass);
        let factor = scaler.factor();
        setup_s.extend(pass.setup_s.iter().map(|x| x * factor));
        wall.push(wall_s * factor);
        rss.push(pass.peak_rss_mb);
        checks.add(c);
        probe.extend(
            pass.child_wall_s
                .iter()
                .filter(|(k, _)| Some(k) == probe_key.as_ref())
                .map(|&(_, t)| t),
        );
    }
    let calib_ms = scaler.median_ms();
    let samples = declared("end_to_end")
        .iter()
        .map(|d| {
            let xs = match d.name.as_str() {
                "wall_s" => wall.clone(),
                "setup_s" => setup_s.clone(),
                "peak_rss_mb" => rss.clone(),
                other => panic!("no measurement for end-to-end metric {other}"),
            };
            (d.name.as_str(), xs)
        })
        .collect();
    eprintln!(
        "tca-benchmark: {}: {} passes, host probe {calib_ms:.2} ms (reference {} ms)",
        w.name,
        wall.len(),
        calib::REF_MS
    );
    let result = WorkloadResult {
        name: w.name.to_string(),
        samples,
        calib_ms,
        checks,
        paper_err_pct: report::paper_err_pct(w.name, &out),
        layers: None,
    };
    Ok((result, (!probe.is_empty()).then(|| stats::median(&probe))))
}

/// The traced run of `w`: the CLI probes once (reusing `probe_jobs1`, the
/// probe sweep's `--jobs 1` wall, when passes already measured it), then
/// traced reps of the workload's subset while `more` holds; per-layer
/// values are medians over the reps.
fn traced(
    w: &Workload,
    tca_bench: &Path,
    seed: u64,
    probe_jobs1: Option<f64>,
    more: impl Fn(usize, Duration) -> bool,
) -> (Layers, Checks) {
    let start = Instant::now();
    let (probe, mut checks) = trace::probes(w, tca_bench, probe_jobs1);
    let mut reps = Vec::new();
    while reps.is_empty() || more(reps.len(), start.elapsed()) {
        let (l, c) = trace::traced_rep(w, seed);
        reps.push(l);
        checks.add(c);
    }
    let mut layers = Layers::median(&reps);
    layers.fill(probe);
    (layers, checks)
}

/// One measured run of one workload for `--seconds`, reported as the
/// single JSON line the benchmark contract defines.
fn driver(o: &Opts, name: &str, tca_bench: &Path) -> Result<bool, String> {
    let w = find(name)?;
    let seconds = Duration::from_secs(o.seconds.ok_or("--workload needs --seconds")?);
    let more = |_: usize, elapsed: Duration| elapsed < seconds;
    let mut metrics = JsonValue::object();
    let metric = |v: f64, unit: &str| {
        let mut m = JsonValue::object();
        m.push("value", JsonValue::from(v));
        m.push("unit", JsonValue::from(unit));
        m
    };
    let checks = if o.trace {
        let (layers, checks) = traced(&w, tca_bench, o.seed, None, more);
        for d in declared("per_layer") {
            metrics.push(d.name.as_str(), metric(layers.get(&d.name), &d.unit));
        }
        checks
    } else {
        let (r, _) = measure(&w, tca_bench, o.seed, more)?;
        for (d, (_, xs)) in declared("end_to_end").iter().zip(&r.samples) {
            metrics.push(d.name.as_str(), metric(stats::median(xs), &d.unit));
        }
        r.checks
    };
    let mut out = JsonValue::object();
    out.push("correct", JsonValue::from(checks.failed == 0));
    out.push("attempted", JsonValue::from(checks.attempted));
    out.push("failed", JsonValue::from(checks.failed));
    out.push("metrics", metrics);
    println!("{out}");
    Ok(true)
}

/// Every workload: a fixed number of passes (one with `--quick`), plus the
/// traced run with `--trace` or `--quick`. Prints every metric, writes the
/// run file under `results/`, and with `--record` appends the summary to
/// `history.jsonl`.
fn full_run(o: &Opts, tca_bench: &Path) -> Result<bool, String> {
    let trace_on = o.trace || o.quick;
    let calib_ms = Calib::new().median_ms(5);
    let mut results = Vec::new();
    for w in workloads::all() {
        let reps = if o.quick { 1 } else { w.reps };
        eprintln!("tca-benchmark: {} ({reps} passes)", w.name);
        let (mut r, probe_jobs1) = measure(&w, tca_bench, o.seed, |n, _| n < reps)?;
        if trace_on {
            eprintln!("tca-benchmark: {} traced", w.name);
            let (layers, checks) = traced(&w, tca_bench, o.seed, probe_jobs1, |n, _| n < 1);
            r.layers = Some(layers);
            r.checks.add(checks);
        }
        results.push(r);
    }
    for r in &results {
        for line in r.lines() {
            println!("{line}");
        }
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = bench_dir()
        .join("results")
        .join(format!("run-{stamp}.json"));
    let run = report::run_json(o.seed, o.quick, calib_ms, &results, true);
    std::fs::write(&path, run.to_json() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("tca-benchmark: wrote {}", path.display());
    if o.record {
        use std::io::Write as _;
        let path = bench_dir().join("history.jsonl");
        let row = report::run_json(o.seed, o.quick, calib_ms, &results, false);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(f, "{row}").map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
        eprintln!("tca-benchmark: appended a row to {}", path.display());
    }
    Ok(results.iter().all(|r| r.checks.failed == 0))
}

/// `--bless`: reruns every sweep once and rewrites its golden.
fn bless(tca_bench: &Path) -> Result<bool, String> {
    for child in workloads::sweep_children() {
        let Child::Cli { scenario, backend } = child else {
            continue;
        };
        let out = workloads::sweep_command(tca_bench, scenario, backend, 1)
            .output()
            .map_err(|e| format!("cannot run {}: {e}", tca_bench.display()))?;
        if !out.status.success() {
            return Err(format!("{} exited with {}", child.key(), out.status));
        }
        let path = golden::bless(
            &golden::dir(),
            &child.key(),
            &String::from_utf8_lossy(&out.stdout),
        )?;
        eprintln!("tca-benchmark: blessed {}", path.display());
    }
    Ok(true)
}
