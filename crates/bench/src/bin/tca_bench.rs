//! `tca-bench` — the unified scenario runner.
//!
//! ```text
//! tca-bench --list [--json]
//! tca-bench --scenario <name> [--backend tca|mpi|mpi-gpudirect] [--json] [--jobs N]
//!           [--top] [--telemetry-dir <dir>] [--profile] [--profile-dir <dir>]
//! ```
//!
//! Each sweep point builds its own independent simulation, so `--jobs N`
//! runs points on worker threads without perturbing any measurement; the
//! output (table or `tca-bench-sweep/v1` JSON) is byte-identical at any
//! job count.
//!
//! `--json` additionally embeds a compact `telemetry` summary on the
//! instrumented scenarios (`pingpong`, `put-latency`); collection is
//! time-neutral, so measurement fields never change. `--top` switches to
//! the continuous-health report mode: an instrumented run of the
//! scenario's representative traffic, rendered as the per-link/per-engine
//! congestion table (`tca-health/v1` JSON with `--json`).
//! `--telemetry-dir <dir>` writes the full health/series/trace/metrics JSON
//! artifacts of that instrumented run into `<dir>`.
//!
//! `--flight-dir <dir>` turns on the deterministic flight recorder for
//! that same instrumented run and writes the `tca-flight/v1` log as
//! `FLIGHT_<scenario>-<backend>.jsonl` into `<dir>` (query it with
//! `tca-flight`). Recording is observationally neutral: stdout and every
//! other artifact are byte-identical with and without it, which
//! `scripts/ci.sh` asserts on every run.
//!
//! `--profile` writes the host cost of the sweep just run — wall time,
//! allocations and allocated bytes per point, in sweep order — as
//! `PROF_<scenario>.json` (`tca-prof/v2`) and `PROF_<scenario>.folded`
//! (one flamegraph folded-stack line per point) into `--profile-dir`
//! (default `results/`). Under `--top` the sweep still runs for the
//! profile, but only the health report is printed. Profiling is
//! observationally neutral: stdout — sweep JSON, tables, health reports —
//! is byte-identical with and without it, which `scripts/ci.sh` asserts
//! on every run.
//!
//! `--whatif` switches to the causal-profiler mode (tca backend only):
//! the scenario's whatif workload is re-run once per duration parameter
//! per virtual speedup (0x/0.25x/0.5x/0.75x of the default, plus any
//! `--set id=value` overrides on the baseline), and the ranked
//! `tca-whatif/v1` report replaces the sweep output (text table, or JSON
//! with `--json`). `--whatif-dir <dir>` writes the report and the
//! baseline-vs-best folded flamegraph diff as `WHATIF_<scenario>.json` /
//! `WHATIF_<scenario>.folded.diff` into `<dir>`; without `--whatif` it
//! leaves stdout untouched — neutral exactly like `--profile` /
//! `--flight-dir`, which `scripts/ci.sh` asserts. `--scenario params`
//! lists the ids `--set` accepts.
//!
//! A flag the chosen mode would ignore is an error (exit 2): `--list`
//! takes only `--json`; `--whatif` takes none of `--top`,
//! `--telemetry-dir`, `--flight-dir`, `--profile`, `--profile-dir` or
//! `--jobs`; `--top` takes no `--jobs`; `--profile-dir` needs `--profile`.

use std::path::PathBuf;
use std::process::ExitCode;
use tca_bench::scenario::{find, list_json, run_sweep, scenarios, BackendKind, TelemetryMode};

/// Counts this process's heap allocations so `--profile` reports live
/// allocs/bytes per point (tca-prof layer one; observationally neutral).
#[global_allocator]
static ALLOC: tca_sim::prof::CountingAllocator = tca_sim::prof::CountingAllocator;

const USAGE: &str = "usage: tca-bench --list [--json]
       tca-bench --scenario <name> [--backend tca|mpi|mpi-gpudirect] [--json] [--jobs N]
                 [--top] [--telemetry-dir <dir>] [--flight-dir <dir>]
                 [--profile] [--profile-dir <dir>]
                 [--whatif] [--whatif-dir <dir>] [--set id=value]...";

fn list() {
    println!(
        "{:<16} {:<17} {:<6} {:<22} description",
        "scenario", "figure", "points", "backends"
    );
    for s in scenarios() {
        let backends: Vec<&str> = s.backends.iter().map(|b| b.name()).collect();
        println!(
            "{:<16} {:<17} {:<6} {:<22} {}",
            s.name,
            s.figure,
            s.points(s.backends[0]).len(),
            backends.join(","),
            s.description
        );
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("tca-bench: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut scenario_name: Option<String> = None;
    let mut backend = BackendKind::Tca;
    let mut json = false;
    let mut jobs = 1usize;
    let mut do_list = false;
    let mut top = false;
    let mut telemetry_dir: Option<PathBuf> = None;
    let mut flight_dir: Option<PathBuf> = None;
    let mut profile = false;
    let mut profile_dir = PathBuf::from("results");
    let mut whatif = false;
    let mut whatif_dir: Option<PathBuf> = None;
    let mut overrides = tca_sim::ParamSet::new();
    // Every flag as given, for the mode checks after parsing.
    let mut given: Vec<String> = Vec::new();

    while let Some(arg) = args.next() {
        given.push(arg.clone());
        match arg.as_str() {
            "--list" => do_list = true,
            "--json" => json = true,
            "--top" => top = true,
            "--whatif" => whatif = true,
            "--whatif-dir" => match args.next() {
                Some(dir) => whatif_dir = Some(PathBuf::from(dir)),
                None => return fail("--whatif-dir needs a directory"),
            },
            "--set" => match args
                .next()
                .as_deref()
                .map(tca_sim::ParamSet::parse_assignment)
            {
                Some(Ok((id, v))) => {
                    overrides.set(id, v);
                }
                Some(Err(e)) => return fail(&e),
                None => return fail("--set needs id=value"),
            },
            "--profile" => profile = true,
            "--profile-dir" => match args.next() {
                Some(dir) => profile_dir = PathBuf::from(dir),
                None => return fail("--profile-dir needs a directory"),
            },
            "--telemetry-dir" => match args.next() {
                Some(dir) => telemetry_dir = Some(PathBuf::from(dir)),
                None => return fail("--telemetry-dir needs a directory"),
            },
            "--flight-dir" => match args.next() {
                Some(dir) => flight_dir = Some(PathBuf::from(dir)),
                None => return fail("--flight-dir needs a directory"),
            },
            "--scenario" => match args.next() {
                Some(name) => scenario_name = Some(name),
                None => return fail("--scenario needs a name"),
            },
            "--backend" => match args.next().as_deref().map(BackendKind::parse) {
                Some(Some(b)) => backend = b,
                _ => return fail("--backend must be tca, mpi, or mpi-gpudirect"),
            },
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => return fail("--jobs needs a positive integer"),
            },
            other => return fail(&format!("unknown argument '{other}'")),
        }
    }

    // Reject flags the chosen mode would silently ignore, before any run
    // or artifact directory is started.
    let first_of = |flags: &[&str]| given.iter().find(|f| flags.contains(&f.as_str()));
    if do_list {
        if let Some(f) = given
            .iter()
            .find(|f| !matches!(f.as_str(), "--list" | "--json"))
        {
            return fail(&format!("--list accepts only --json, not {f}"));
        }
    }
    if whatif {
        let ignored = [
            "--top",
            "--telemetry-dir",
            "--flight-dir",
            "--profile",
            "--profile-dir",
            "--jobs",
        ];
        if let Some(f) = first_of(&ignored) {
            return fail(&format!("{f} does not apply to --whatif"));
        }
    }
    if top {
        if let Some(f) = first_of(&["--jobs"]) {
            return fail(&format!("{f} does not apply to --top"));
        }
    }
    if !profile {
        if let Some(f) = first_of(&["--profile-dir"]) {
            return fail(&format!("{f} requires --profile"));
        }
    }

    if do_list {
        if json {
            println!("{}", list_json());
        } else {
            list();
        }
        return ExitCode::SUCCESS;
    }
    let Some(name) = scenario_name else {
        return fail("nothing to do");
    };
    let Some(sc) = find(&name) else {
        return fail(&format!("unknown scenario '{name}' (see --list)"));
    };
    if !sc.supports(backend) {
        return fail(&format!(
            "scenario '{name}' does not support backend '{}'",
            backend.name()
        ));
    }

    // Causal what-if profiling: deterministic virtual-speedup sweeps on
    // the scenario's whatif workload. With --whatif-dir only, artifacts
    // go to files and notices to stderr, keeping stdout byte-identical
    // (asserted by the ci.sh neutrality smoke).
    if whatif || whatif_dir.is_some() {
        if backend != BackendKind::Tca {
            return fail("--whatif runs on the tca backend only");
        }
        let rep = match tca_bench::whatif::whatif_report(sc.name, &overrides) {
            Ok(rep) => rep,
            Err(e) => return fail(&e),
        };
        if let Some(dir) = &whatif_dir {
            tca_bench::ensure_out_dir(dir);
            let json_path = dir.join(format!("WHATIF_{}.json", sc.name));
            let diff_path = dir.join(format!("WHATIF_{}.folded.diff", sc.name));
            std::fs::write(&json_path, rep.to_json() + "\n").expect("write whatif report");
            std::fs::write(&diff_path, rep.folded_diff()).expect("write whatif folded diff");
            eprintln!("tca-bench: wrote {}", json_path.display());
            eprintln!("tca-bench: wrote {}", diff_path.display());
        }
        if whatif {
            if json {
                println!("{}", rep.to_json());
            } else {
                print!("{}", rep.render());
            }
            return ExitCode::SUCCESS;
        }
    } else if !overrides.is_empty() {
        return fail("--set only applies to --whatif runs");
    }

    // The sweep runs unless only the health report is wanted; --profile
    // writes its per-point host costs. Artifacts go to files and the
    // notice to stderr, keeping stdout byte-identical with and without
    // --profile (asserted by the ci.sh neutrality smoke).
    let telemetry = if json {
        TelemetryMode::Summary
    } else {
        TelemetryMode::Off
    };
    let sweep = (profile || !top).then(|| run_sweep(&sc, backend, jobs, telemetry));
    if profile {
        let sweep = sweep.as_ref().expect("--profile runs the sweep");
        for path in tca_bench::prof::write_sweep_profile(sweep, &profile_dir) {
            eprintln!("tca-bench: wrote {}", path.display());
        }
    }

    // The health artifacts come from one instrumented representative run,
    // shared between `--top`, `--telemetry-dir`, and `--flight-dir` —
    // flight recording rides along on the exact rig the health report
    // measures, so the log and the artifacts describe the same run.
    let (health, flight) = if top || telemetry_dir.is_some() || flight_dir.is_some() {
        let (rep, log) = tca_bench::top_report(sc.name, backend, flight_dir.is_some());
        (Some(rep), log)
    } else {
        (None, None)
    };
    if let (Some(rep), Some(dir)) = (&health, &telemetry_dir) {
        for path in rep.write_to(dir, sc.name, backend.name()) {
            eprintln!("tca-bench: wrote {}", path.display());
        }
    }
    if let (Some(log), Some(dir)) = (&flight, &flight_dir) {
        tca_bench::ensure_out_dir(dir);
        let path = dir.join(format!("FLIGHT_{}-{}.jsonl", sc.name, backend.name()));
        std::fs::write(&path, log).expect("write flight log");
        eprintln!("tca-bench: wrote {}", path.display());
    }
    if top {
        let rep = health.expect("built above");
        if json {
            println!("{}", rep.health_json);
        } else {
            print!("{}", rep.text);
        }
        return ExitCode::SUCCESS;
    }

    let sweep = sweep.expect("the sweep runs whenever --top is off");
    if json {
        println!("{}", sweep.to_json());
    } else {
        print!("{}", sweep.render());
    }
    ExitCode::SUCCESS
}
