//! `tca-bench` rejects flags its chosen mode would ignore: each rejected
//! combination exits 2, names the offending flag, and starts no run, so no
//! artifact directory appears.

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
    let dir = std::env::temp_dir().join(format!("tca-bench-cli-{}-profile", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_tca-bench"))
            .args(["--scenario", "fig9", "--json"])
            .args(extra)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("spawn tca-bench");
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    let prof_dir = dir.join("P");
    let prof_arg = prof_dir.to_str().expect("utf-8 temp path");
    assert_eq!(
        sweep(&[]),
        sweep(&["--profile", "--profile-dir", prof_arg]),
        "--profile changed the sweep stdout"
    );

    let labels = [1, 2, 4, 8, 16, 32, 64, 128, 255].map(|n| format!("{n} reqs"));
    let json = std::fs::read_to_string(prof_dir.join("PROF_fig9.json")).expect("PROF json");
    assert!(json.starts_with("{\"schema\":\"tca-prof/v2\""), "{json}");
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
    let folded = std::fs::read_to_string(prof_dir.join("PROF_fig9.folded")).expect("folded");
    let lines: Vec<&str> = folded.lines().collect();
    assert_eq!(lines.len(), labels.len(), "{folded}");
    for (line, label) in lines.iter().zip(&labels) {
        let (frames, value) = line.rsplit_once(' ').expect("folded line shape");
        assert_eq!(frames, format!("tca_bench;fig9;{label}"));
        value.parse::<u64>().expect("folded value is integer ns");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
