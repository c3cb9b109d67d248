//! `tca-bench` — the unified scenario runner.
//!
//! ```text
//! tca-bench --list [--json]
//! tca-bench --scenario <name> [--backend tca|mpi|mpi-gpudirect] [--json] [--jobs N]
//!           [--profile] [--profile-dir <dir>]
//! tca-bench --scenario health [--top] [--telemetry-dir <dir>] [--flight-dir <dir>] ...
//! tca-bench --topo <name|file.topo> [--json | --cdg-dot | --emit-topo]
//! ```
//!
//! Each sweep point builds its own independent simulation, so `--jobs N`
//! runs points on worker threads without perturbing any measurement; the
//! output (table or `tca-bench-sweep/v1` JSON) is byte-identical at any
//! job count. `--json` only chooses how the sweep is printed: the
//! `telemetry` summary that `pingpong` and `put-latency` rows carry is an
//! object, which the table leaves out.
//!
//! The `health` scenario runs the 8-node ring neighbour shift under span
//! tracing, a gauge sampler and the stall watchdog; its row is the run's
//! telemetry summary. Three flags observe that same run, and exit 2 on
//! any other scenario: `--top` prints its per-link/per-engine congestion
//! report instead of the sweep (`tca-health/v1` JSON with `--json`);
//! `--telemetry-dir <dir>` writes its health/series/trace/metrics JSON as
//! `health-<backend>.*.json`; and `--flight-dir <dir>` records it with the
//! deterministic flight recorder and writes the `tca-flight/v1` log as
//! `FLIGHT_health-<backend>.jsonl` (query it with `tca-flight`).
//! Recording is observationally neutral: stdout and every other artifact
//! are byte-identical with and without it, which `scripts/ci.sh` asserts
//! on every run.
//!
//! `--profile` writes the host cost of the sweep just run — wall time,
//! allocations and allocated bytes per point, in sweep order — as
//! `PROF_<scenario>-<backend>.json` (`tca-prof/v2`) and
//! `PROF_<scenario>-<backend>.folded` (one flamegraph folded-stack line
//! per point) into `--profile-dir` (default `results/`). Under `--top`
//! the sweep still runs for the profile, but only the health report is
//! printed; without `--profile` the health flags run the world once and
//! the sweep row is that run's summary. Profiling is observationally
//! neutral: stdout — sweep JSON, tables, health reports — is
//! byte-identical with and without it, which `scripts/ci.sh` asserts on
//! every run.
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
//! `--topo <NAME|FILE>` statically proves one declarative topology (a
//! registry or generator name such as `torus2d-3x3`, else a `.topo` file)
//! deadlock-free and route-complete; `--json`, `--cdg-dot` or
//! `--emit-topo` picks what it prints, and it exits 1 on any error or
//! warning or an unreadable file (see `tca_bench::verify::topo_mode`);
//! `--emit-topo` runs no proof and exits 0 on any spec that parses.
//!
//! A flag the chosen mode would ignore is an error (exit 2): `--list`
//! takes only `--json`; `--topo` takes only one of `--json`, `--cdg-dot`
//! and `--emit-topo`, which need it; `--whatif` takes none of `--top`,
//! `--telemetry-dir`, `--flight-dir`, `--profile`, `--profile-dir` or
//! `--jobs`; `--top` takes no `--jobs`; `--profile-dir` needs `--profile`;
//! `--top`, `--telemetry-dir` and `--flight-dir` need `--scenario health`.
//! An artifact that cannot be written is reported and exits 1.

use std::path::PathBuf;
use std::process::ExitCode;
use tca_bench::scenario::{find, list_json, run_sweep, scenarios, BackendKind, Sweep};
use tca_bench::verify::{topo_mode, TopoOutput};
use tca_bench::write_artifact;

/// Counts this process's heap allocations so `--profile` reports live
/// allocs/bytes per point (tca-prof layer one; observationally neutral).
#[global_allocator]
static ALLOC: tca_sim::prof::CountingAllocator = tca_sim::prof::CountingAllocator;

const USAGE: &str = "usage: tca-bench --list [--json]
       tca-bench --scenario <name> [--backend tca|mpi|mpi-gpudirect] [--json] [--jobs N]
                 [--top] [--telemetry-dir <dir>] [--flight-dir <dir>]  (health only)
                 [--profile] [--profile-dir <dir>]
                 [--whatif] [--whatif-dir <dir>] [--set id=value]...
       tca-bench --topo <name|file.topo> [--json | --cdg-dot | --emit-topo]";

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

/// Notes each artifact written on stderr, or reports the write that
/// failed and exits 1 (nothing has reached stdout yet).
fn wrote(paths: std::io::Result<impl IntoIterator<Item = PathBuf>>) {
    match paths {
        Ok(paths) => paths
            .into_iter()
            .for_each(|p| eprintln!("tca-bench: wrote {}", p.display())),
        Err(e) => {
            eprintln!("tca-bench: cannot write {e}");
            std::process::exit(1);
        }
    }
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
    let mut topo: Option<String> = None;
    let mut topo_out: Option<TopoOutput> = None;
    // Every flag as given, for the mode checks after parsing.
    let mut given: Vec<String> = Vec::new();

    while let Some(arg) = args.next() {
        given.push(arg.clone());
        match arg.as_str() {
            "--list" => do_list = true,
            "--json" => json = true,
            "--top" => top = true,
            "--whatif" => whatif = true,
            "--topo" => match args.next() {
                Some(arg) => topo = Some(arg),
                None => return fail("--topo needs a topology name or a .topo file"),
            },
            "--cdg-dot" => topo_out = Some(TopoOutput::CdgDot),
            "--emit-topo" => topo_out = Some(TopoOutput::Topo),
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
    let outputs = ["--json", "--cdg-dot", "--emit-topo"];
    if topo.is_some() {
        let (picked, ignored): (Vec<_>, Vec<_>) = given
            .iter()
            .filter(|f| f.as_str() != "--topo")
            .partition(|f| outputs.contains(&f.as_str()));
        if let Some(f) = ignored.first() {
            return fail(&format!("{f} does not apply to --topo"));
        }
        if picked.len() > 1 {
            return fail("--topo takes one of --json, --cdg-dot and --emit-topo");
        }
    } else if let Some(f) = first_of(&["--cdg-dot", "--emit-topo"]) {
        return fail(&format!("{f} requires --topo"));
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
    if scenario_name.as_deref() != Some("health") {
        if let Some(f) = first_of(&["--top", "--telemetry-dir", "--flight-dir"]) {
            return fail(&format!("{f} applies only to --scenario health"));
        }
    }

    if let Some(arg) = topo {
        let out = match (topo_out, json) {
            (Some(out), _) => out,
            (None, true) => TopoOutput::Json,
            (None, false) => TopoOutput::Text,
        };
        return match topo_mode(&arg, out) {
            Ok((text, clean)) => {
                print!("{text}");
                ExitCode::from(u8::from(!clean))
            }
            Err(e) => {
                eprintln!("tca-bench: {e}");
                ExitCode::FAILURE
            }
        };
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
            let path = |ext: &str| dir.join(format!("WHATIF_{}.{ext}", sc.name));
            wrote(write_artifact(&path("json"), rep.to_json() + "\n").map(Some));
            wrote(write_artifact(&path("folded.diff"), rep.folded_diff()).map(Some));
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

    // `--top`, `--telemetry-dir` and `--flight-dir` (health scenario only,
    // checked above) share one run of the health world; its summary is the
    // scenario's one sweep row, so the sweep reuses it unless --profile
    // has to time the point. Artifacts go to files and notices to stderr,
    // keeping stdout byte-identical with and without --profile and the
    // artifact flags (asserted by the ci.sh neutrality smokes).
    let health = (top || telemetry_dir.is_some() || flight_dir.is_some())
        .then(|| tca_bench::health_run(backend, flight_dir.is_some()));
    let sweep = match &health {
        Some(rep) if !profile => Sweep {
            scenario: sc.name,
            backend,
            rows: sc
                .points(backend)
                .into_iter()
                .map(|p| (p.label, rep.summary.clone()))
                .collect(),
            costs: Vec::new(),
        },
        _ => run_sweep(&sc, backend, jobs),
    };
    if profile {
        wrote(tca_bench::prof::write_sweep_profile(&sweep, &profile_dir));
    }
    if let Some(rep) = health {
        if let Some(dir) = &telemetry_dir {
            wrote(rep.write_to(dir, backend.name()));
        }
        if let (Some(log), Some(dir)) = (&rep.flight, &flight_dir) {
            let path = dir.join(format!("FLIGHT_{}-{}.jsonl", sc.name, backend.name()));
            wrote(write_artifact(&path, log).map(Some));
        }
        if top {
            if json {
                println!("{}", rep.health_json);
            } else {
                print!("{}", rep.text);
            }
            return ExitCode::SUCCESS;
        }
    }

    if json {
        println!("{}", sweep.to_json());
    } else {
        print!("{}", sweep.render());
    }
    ExitCode::SUCCESS
}
