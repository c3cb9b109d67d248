//! The four workloads: what each pass launches, how many passes a full
//! run makes, and which sweep probes the runner's parallel efficiency.

use crate::setup::Build;
use std::path::Path;
use std::process::Command;
use tca_core::MpiGpuMode;

/// One child process of a pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Child {
    /// `tca-bench --scenario <scenario> --backend <backend> --json --jobs 1`.
    Cli {
        /// Scenario name.
        scenario: &'static str,
        /// Backend name.
        backend: &'static str,
    },
    /// `tca-benchmark ring-traffic --seed <seed>`.
    RingTraffic,
}

impl Child {
    /// Name of the child's raw output file and golden (`<scenario>-<backend>`).
    pub fn key(&self) -> String {
        match self {
            Child::Cli { scenario, backend } => format!("{scenario}-{backend}"),
            Child::RingTraffic => "ring-traffic".into(),
        }
    }
}

/// `tca-bench --scenario <scenario> --backend <backend> --json --jobs <jobs>`.
pub fn sweep_command(tca_bench: &Path, scenario: &str, backend: &str, jobs: usize) -> Command {
    let mut c = Command::new(tca_bench);
    c.args([
        "--scenario",
        scenario,
        "--backend",
        backend,
        "--json",
        "--jobs",
    ])
    .arg(jobs.to_string());
    c
}

/// A named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Passes a full (non `--quick`) run makes.
    pub reps: usize,
    /// The children of one pass, run one at a time in this order.
    pub children: Vec<Child>,
    /// The sweep whose `--jobs 1` vs `--jobs 2` walls give
    /// `bench.sweep.parallel_eff` (none: not a sweep-runner workload).
    pub probe: Option<(&'static str, &'static str)>,
}

/// Every workload, in reporting order.
pub const NAMES: [&str; 4] = ["dma-sweep", "apps", "ring-traffic", "small-sweeps"];

const APP_KERNELS: [&str; 4] = ["cg", "stencil", "stencil2d", "nbody"];
const BACKENDS: [&str; 3] = ["tca", "mpi", "mpi-gpudirect"];
const SMALL_TCA: [&str; 11] = [
    "fig8",
    "fig9",
    "latency",
    "pingpong",
    "ring-hops",
    "scaling",
    "contention",
    "comparison",
    "ablation-dmac",
    "ablation-qpi",
    "ablation-pearl",
];

fn tca(scenario: &'static str) -> Child {
    Child::Cli {
        scenario,
        backend: "tca",
    }
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    let w = match name {
        "dma-sweep" => Workload {
            name: "dma-sweep",
            reps: 3,
            children: vec![tca("fig7"), tca("fig12")],
            probe: Some(("fig7", "tca")),
        },
        "apps" => Workload {
            name: "apps",
            reps: 8,
            children: APP_KERNELS
                .iter()
                .flat_map(|&scenario| {
                    BACKENDS
                        .iter()
                        .map(move |&backend| Child::Cli { scenario, backend })
                })
                .collect(),
            probe: Some(("cg", "tca")),
        },
        "ring-traffic" => Workload {
            name: "ring-traffic",
            reps: 3,
            children: vec![Child::RingTraffic],
            probe: None,
        },
        "small-sweeps" => Workload {
            name: "small-sweeps",
            reps: 10,
            children: SMALL_TCA
                .iter()
                .map(|&s| tca(s))
                .chain(BACKENDS.iter().map(|&backend| Child::Cli {
                    scenario: "put-latency",
                    backend,
                }))
                .chain([tca("topo-registry")])
                .collect(),
            probe: Some(("topo-registry", "tca")),
        },
        _ => return None,
    };
    Some(w)
}

/// Every workload, in reporting order.
pub fn all() -> Vec<Workload> {
    NAMES
        .iter()
        .map(|n| find(n).expect("every listed workload is defined"))
        .collect()
}

/// Every distinct sweep child across the workloads (what `--bless` runs).
pub fn sweep_children() -> Vec<Child> {
    all()
        .into_iter()
        .flat_map(|w| w.children)
        .filter(|c| matches!(c, Child::Cli { .. }))
        .collect()
}

/// The fabrics one pass of `workload` constructs, as `(build, count)`.
/// Read off `crates/bench/src/{scenario,lib}.rs`: every fresh rig, cluster,
/// MPI world and registry topology a point of the workload's sweeps builds.
/// `setup_s` times exactly this list.
pub fn builds(workload: &str) -> Vec<(Build, usize)> {
    use Build::*;
    let staged = MpiGpuMode::Staged;
    let direct = MpiGpuMode::GpuDirect;
    match workload {
        // fig7 and fig12: 15 sizes x 4 curves, one 2-node rig per point.
        "dma-sweep" => vec![(Ring(2), 120)],
        // cg/stencil on 2, 4, 8 nodes and stencil2d/nbody on 2, 4 nodes,
        // once per backend.
        "apps" => [2, 4, 8, 2, 4, 8, 2, 4, 2, 4]
            .into_iter()
            .flat_map(|n| [(Cluster(n), 1), (Mpi(n, staged), 1), (Mpi(n, direct), 1)])
            .collect(),
        "ring-traffic" => vec![(RingTrafficWorld, 1)],
        "small-sweeps" => vec![
            // fig8 (60), fig9 (27), comparison (10), ablation-dmac (11),
            // ablation-pearl (5), pingpong (1).
            (Ring(2), 114),
            // latency: the loopback rig plus FDR, QDR and MPI pairs;
            // comparison: one IB pair per size.
            (Loopback, 1),
            (IbPair, 13),
            (Ring(8), 4),
            (Cluster(2), 2 + 4),
            (Cluster(4), 2),
            (Cluster(8), 2 + 2),
            (Cluster(16), 2),
            (DualSocket, 2),
            (Mpi(2, staged), 4),
            (Mpi(2, direct), 4),
            (Topologies, 1),
        ],
        other => panic!("no build list for workload '{other}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = tca_sim::JsonValue::parse(crate::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let declared: Vec<&str> = doc
            .get("workloads")
            .and_then(|w| w.as_array())
            .expect("workloads array")
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name"))
            .collect();
        assert_eq!(declared, NAMES);
    }

    #[test]
    fn small_sweeps_runs_the_fifteen_other_scenarios() {
        let w = find("small-sweeps").expect("defined");
        assert_eq!(w.children.len(), 11 + 3 + 1);
        let all_children: Vec<Child> = all().into_iter().flat_map(|w| w.children).collect();
        let mut keys: Vec<String> = all_children.iter().map(Child::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), all_children.len(), "no child runs twice");
        // The 14 TCA-only registry scenarios, the 5 backend-aware ones on
        // all three backends, and the in-process ring workload.
        assert_eq!(all_children.len(), 14 + 5 * 3 + 1);
    }
}
