//! Fidelity of the benchmark itself: the generator is seeded and stays in
//! bounds, the timing wrappers and the stepped drains change no simulated
//! result, and a corrupted golden row fails the check with a non-zero exit.

use tca_benchmark::ring::{self, World};
use tca_benchmark::timed::Timed;
use tca_benchmark::trace::{self, FabricTrace};
use tca_benchmark::{golden, Checks};
use tca_core::{CommWorld, MpiBackend, MpiGpuMode, TcaClusterBuilder};
use tca_sim::JsonValue;

#[test]
fn same_seed_same_puts_and_seeds_differ() {
    assert_eq!(ring::generate(1, 40), ring::generate(1, 40));
    assert_ne!(ring::generate(1, 40), ring::generate(2, 40));
}

#[test]
fn every_put_stays_inside_its_tca_block() {
    let world = World::new();
    let block = world.cluster.sub.map.block_size();
    for seed in [1, 2, 3] {
        for round in ring::generate(seed, 200) {
            for p in &round.puts {
                let dst = world.dst_ref(p);
                assert!(
                    dst.addr + p.len <= block,
                    "{p:?} lands at {:#x}, past the {block:#x}-byte block",
                    dst.addr
                );
            }
        }
    }
}

#[test]
fn ring_rounds_read_back_exactly() {
    let r = ring::run(5, 6);
    assert_eq!(
        r.checks,
        Checks {
            attempted: 6 * 9,
            failed: 0
        }
    );
}

fn app_rows<W: CommWorld>(kernel: &str, nodes: u32, mut plain: W, wrapped: W) -> (String, String) {
    let direct = trace::app_row(kernel, nodes, &mut plain).expect("kernel verifies");
    let mut timed = Timed::new(wrapped);
    let traced = trace::app_row(kernel, nodes, &mut timed).expect("kernel verifies");
    assert!(timed.times.total() > std::time::Duration::ZERO);
    (direct.to_json(), traced.to_json())
}

#[test]
fn timed_leaves_every_apps_row_bit_identical() {
    for (kernel, node_counts) in trace::APP_POINTS {
        for backend in ["tca", "mpi", "mpi-gpudirect"] {
            let key = format!("{kernel}-{backend}");
            let want = golden::load(&golden::dir(), &key).expect("golden exists");
            for (i, &n) in node_counts.iter().enumerate() {
                let (direct, traced) = match backend {
                    "tca" => app_rows(
                        kernel,
                        n,
                        TcaClusterBuilder::new(n).build(),
                        TcaClusterBuilder::new(n).build(),
                    ),
                    "mpi" => app_rows(
                        kernel,
                        n,
                        MpiBackend::new(n, MpiGpuMode::Staged),
                        MpiBackend::new(n, MpiGpuMode::Staged),
                    ),
                    _ => app_rows(
                        kernel,
                        n,
                        MpiBackend::new(n, MpiGpuMode::GpuDirect),
                        MpiBackend::new(n, MpiGpuMode::GpuDirect),
                    ),
                };
                assert_eq!(traced, direct, "{key} row {i}: Timed changed the row");
                assert_eq!(traced, want[i], "{key} row {i} differs from the golden");
            }
        }
    }
}

#[test]
fn traced_dma_points_match_their_golden_rows() {
    let mut ft = FabricTrace::default();
    for p in trace::dma_points() {
        let (bw, _) = trace::dma_point(&mut ft, &p);
        let want = trace::golden_cell(&golden::load_parsed(p.golden), "size", p.size, p.column);
        assert_eq!(
            want,
            Some(JsonValue::from(bw)),
            "{} {} at {} B",
            p.golden,
            p.column,
            p.size
        );
    }
}

#[test]
fn step_kind_drain_ends_where_run_until_idle_does() {
    let plan = ring::generate(11, 3);
    let (mut stepped, mut batched) = (World::new(), World::new());
    let mut ft = FabricTrace::default();
    for round in &plan {
        let a = stepped.issue(round);
        let b = batched.issue(round);
        ft.drain(&mut stepped.cluster.fabric);
        batched.cluster.fabric.run_until_idle();
        let (fa, fb) = (&stepped.cluster.fabric, &batched.cluster.fabric);
        assert_eq!(fa.now(), fb.now(), "same simulated end time");
        assert_eq!(
            fa.events_executed(),
            fb.events_executed(),
            "same event count"
        );
        stepped.complete(a);
        batched.complete(b);
    }
}

#[test]
fn corrupted_golden_row_fails_the_check_with_nonzero_exit() {
    let key = "fig9-tca";
    let rows = golden::load(&golden::dir(), key).expect("golden exists");
    let output = format!("{{\"points\":[{}]}}", rows.join(","));
    let dir = std::env::temp_dir().join(format!("tca-benchmark-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out_file = dir.join("out.json");
    std::fs::write(&out_file, &output).expect("write output");
    let mut corrupt = rows.clone();
    corrupt[3] = corrupt[3].replacen("\"requests\":8", "\"requests\":9", 1);
    assert_ne!(corrupt[3], rows[3], "the corruption took");
    std::fs::write(dir.join(format!("{key}.jsonl")), corrupt.join("\n") + "\n").expect("write");

    let check = |golden_dir: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_tca-benchmark"))
            .arg("check")
            .arg(key)
            .arg(&out_file)
            .arg("--golden")
            .arg(golden_dir)
            .output()
            .expect("run tca-benchmark")
    };
    let bad = check(&dir);
    assert!(!bad.status.success(), "a corrupted golden must fail");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("row 3 differs"),
        "names the first differing row: {stderr}"
    );
    assert!(
        check(&golden::dir()).status.success(),
        "the shipped golden passes"
    );
    std::fs::remove_dir_all(&dir).expect("clean up");
}
