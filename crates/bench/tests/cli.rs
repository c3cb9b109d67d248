//! `tca-bench` rejects flags its chosen mode would ignore: each rejected
//! combination exits 2, names the offending flag, and starts no run, so no
//! artifact directory appears. An artifact it cannot write exits 1 with
//! the path named, never with a panic. The `--topo` prover mode prints
//! the pinned fixture reports and exits 1 on a finding or a bad file.

use std::process::Command;

/// Runs `tca-bench <args>` in a fresh empty directory and returns the exit
/// code, stderr, and the names of the entries the run left there.
fn run(name: &str, args: &str) -> (Option<i32>, String, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("tca-bench-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_tca-bench"))
        .args(args.split_whitespace())
        .current_dir(&dir)
        .output()
        .expect("spawn tca-bench");
    let left = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr, left)
}

/// Runs `tca-bench <args>` in the temp directory, asserts that it
/// succeeded, and returns its stdout.
fn stdout(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tca-bench"))
        .args(args.split_whitespace())
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn tca-bench");
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn ignored_flags_are_rejected_before_any_run() {
    let cases = [
        (
            "--scenario put-latency --whatif --top --profile --profile-dir P --flight-dir F --jobs 3",
            "--top",
        ),
        ("--scenario ring-hops --whatif --top", "--top"),
        ("--scenario ring-hops --whatif --telemetry-dir T", "--telemetry-dir"),
        ("--scenario ring-hops --whatif --flight-dir F", "--flight-dir"),
        ("--scenario ring-hops --whatif --profile", "--profile"),
        ("--scenario ring-hops --whatif --whatif-dir W --profile-dir P", "--profile-dir"),
        ("--scenario ring-hops --whatif --jobs 2", "--jobs"),
        ("--scenario ring-hops --top --telemetry-dir T --jobs 2", "--jobs"),
        ("--list --jobs 2", "--jobs"),
        ("--list --scenario fig7", "--scenario"),
        ("--list --json --top", "--top"),
        ("--scenario put-latency --profile-dir P", "--profile-dir"),
        ("--scenario pingpong --top --telemetry-dir T --profile-dir P", "--profile-dir"),
        ("--scenario fig7 --top", "--top"),
        ("--scenario fig7 --telemetry-dir T", "--telemetry-dir"),
        ("--scenario fig7 --flight-dir F", "--flight-dir"),
        ("--top", "--top"),
        ("--scenario fig7 --cdg-dot", "--cdg-dot"),
        ("--emit-topo", "--emit-topo"),
        ("--topo ring-8 --scenario fig7", "--scenario"),
        ("--topo ring-8 --jobs 2", "--jobs"),
        ("--topo ring-8 --profile", "--profile"),
        ("--topo ring-8 --json --cdg-dot", "--topo"),
    ];
    for (i, (args, flag)) in cases.into_iter().enumerate() {
        let (code, stderr, left) = run(&format!("reject{i}"), args);
        assert_eq!(code, Some(2), "`{args}` must exit 2; stderr: {stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.contains(flag), "`{args}` must name {flag}: {first}");
        assert!(left.is_empty(), "`{args}` created {left:?}");
    }
}

#[test]
fn list_accepts_json() {
    let (code, stderr, left) = run("list", "--list --json");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(left.is_empty(), "{left:?}");
}

#[test]
fn profile_times_every_sweep_point_without_touching_stdout() {
    let dir = format!("tca-bench-cli-{}-profile", std::process::id());
    let prof_dir = std::env::temp_dir().join(&dir);
    let _ = std::fs::remove_dir_all(&prof_dir);
    assert_eq!(
        stdout("--scenario fig9 --json"),
        stdout(&format!(
            "--scenario fig9 --json --profile --profile-dir {dir}"
        )),
        "--profile changed the sweep stdout"
    );

    let labels = [1, 2, 4, 8, 16, 32, 64, 128, 255].map(|n| format!("{n} reqs"));
    let json = std::fs::read_to_string(prof_dir.join("PROF_fig9-tca.json")).expect("PROF json");
    assert!(json.starts_with("{\"schema\":\"tca-prof/v2\""), "{json}");
    assert!(json.contains("\"config_fnv\":\""), "{json}");
    let report = tca_sim::JsonValue::parse(&json).expect("PROF json parses");
    let points = report
        .get("points")
        .and_then(|p| p.as_array())
        .expect("points array");
    let got: Vec<&str> = points
        .iter()
        .map(|p| p.get("label").and_then(|l| l.as_str()).expect("label"))
        .collect();
    assert_eq!(got, labels, "one entry per point, in sweep order");

    // Folded stacks: one `tca_bench;fig9;<label> <ns>` line per point.
    let folded = std::fs::read_to_string(prof_dir.join("PROF_fig9-tca.folded")).expect("folded");
    let lines: Vec<&str> = folded.lines().collect();
    assert_eq!(lines.len(), labels.len(), "{folded}");
    for (line, label) in lines.iter().zip(&labels) {
        let (frames, value) = line.rsplit_once(' ').expect("folded line shape");
        assert_eq!(frames, format!("tca_bench;fig9;{label}"));
        value.parse::<u64>().expect("folded value is integer ns");
    }
    std::fs::remove_dir_all(&prof_dir).expect("remove scratch dir");
}

#[test]
fn health_top_json_shows_an_armed_quiet_watchdog() {
    let top = stdout("--scenario health --top --json");
    assert!(top.starts_with("{\"schema\":\"tca-health/v1\""), "{top}");
    assert!(top.contains("\"watchdog_armed\":true"), "{top}");
    assert!(top.contains("\"watchdog_fired\":false"), "{top}");
}

/// Without `--top` the health flags print the sweep from the run that
/// wrote the artifacts; that row must be the one the plain sweep prints.
#[test]
fn health_artifact_flags_print_the_plain_sweep() {
    let dir = format!("tca-bench-cli-{}-health", std::process::id());
    let root = std::env::temp_dir().join(&dir);
    let _ = std::fs::remove_dir_all(&root);
    let plain = stdout("--scenario health --json");
    assert!(plain.contains("\"label\":\"8 nodes\""), "{plain}");
    let flags = format!("--telemetry-dir {dir}/T --flight-dir {dir}/F");
    let observed = stdout(&format!("--scenario health --json {flags}"));
    assert_eq!(plain, observed, "the artifact flags changed the sweep");
    assert!(root.join("T/health-tca.health.json").is_file());
    assert!(root.join("F/FLIGHT_health-tca.jsonl").is_file());
    std::fs::remove_dir_all(&root).expect("remove scratch dir");
}

#[test]
fn unwritable_artifact_exits_1_without_a_panic() {
    for (i, args) in [
        "--scenario health --telemetry-dir /dev/null/x",
        "--scenario tables --profile --profile-dir /dev/null/x",
    ]
    .into_iter()
    .enumerate()
    {
        let (code, stderr, left) = run(&format!("unwritable{i}"), args);
        assert_eq!(code, Some(1), "`{args}` must exit 1; stderr: {stderr}");
        let named = stderr.contains("tca-bench: cannot write /dev/null/x");
        assert!(
            named && !stderr.contains("panicked at"),
            "`{args}`: {stderr}"
        );
        assert!(left.is_empty(), "`{args}` created {left:?}");
    }
}

/// Runs `tca-bench <args>` from the repository root, where the `.topo`
/// fixtures live, and returns the exit code, stdout and stderr.
fn topo(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tca-bench"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("spawn tca-bench");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn topo_prints_the_pinned_report_and_parseable_topo_text() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/topologies/cycle-injected.golden.json"
    ))
    .expect("golden present");
    let json = topo(&["--topo", "configs/topologies/cycle-injected.topo", "--json"]);
    assert_eq!(json, (Some(1), golden, String::new()));

    let (code, text, stderr) = topo(&["--topo", "ring-8", "--emit-topo"]);
    assert_eq!(code, Some(0), "{stderr}");
    let spec = tca_peach2::TopoSpec::parse(&text).expect("emitted text parses");
    assert_eq!(Some(spec), tca_core::presets::build_topology("ring-8"));
}

#[test]
fn topo_rejects_a_missing_value_a_missing_file_and_a_malformed_one() {
    let (code, stdout, stderr) = topo(&["--topo"]);
    assert_eq!((code, stdout.as_str()), (Some(2), ""), "{stderr}");
    assert!(
        stderr.lines().next().unwrap_or("").contains("--topo"),
        "{stderr}"
    );

    let (code, stdout, stderr) = topo(&["--topo", "no/such/file.topo"]);
    assert_eq!((code, stdout.as_str()), (Some(1), ""), "{stderr}");
    assert!(stderr.contains("no/such/file.topo"), "{stderr}");

    let path = std::env::temp_dir().join(format!("tca-bench-cli-{}-bad.topo", std::process::id()));
    std::fs::write(&path, "topology t\nports E W\nnodes 2\nnodes 2\n").expect("write file");
    let path_arg = path.to_str().expect("utf-8 temp path");
    let (code, stdout, stderr) = topo(&["--topo", path_arg]);
    std::fs::remove_file(&path).expect("remove file");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.contains("TCA-T001"), "{stdout}");
    assert!(stdout.contains(&format!("{path_arg}:4")), "{stdout}");
}
