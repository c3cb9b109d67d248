//! `setup_s`: host time to construct a workload's fabrics through the
//! public constructors, measured in-process.

use std::hint::black_box;
use std::time::{Duration, Instant};
use tca_core::{MpiBackend, MpiGpuMode, TcaClusterBuilder};
use tca_device::{build_dual_socket_node, build_node, NodeConfig, QpiParams};
use tca_net::{attach_ib, IbParams, MpiWorld};
use tca_pcie::Fabric;
use tca_peach2::{build_loopback, build_ring, Peach2Driver, Peach2Params};

/// One kind of fabric a sweep point builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Build {
    /// `build_ring(n)` plus `Peach2Driver::init` on every node (the bench rig).
    Ring(u32),
    /// The two-board Fig. 10 loopback rig.
    Loopback,
    /// Two plain nodes on InfiniBand with an `MpiWorld`.
    IbPair,
    /// One dual-socket node (the QPI ablation).
    DualSocket,
    /// `TcaClusterBuilder::new(n).build()`.
    Cluster(u32),
    /// `MpiBackend::new(n, mode)`.
    Mpi(u32, MpiGpuMode),
    /// Every `TopoSpec` of the topology registry.
    Topologies,
    /// The ring-traffic world: an 8-node cluster with pinned GPU buffers
    /// and source patterns.
    RingTrafficWorld,
}

/// Builds one fabric and drops it.
fn construct(b: Build) {
    match b {
        Build::Ring(n) => {
            black_box(ring_rig(n));
        }
        Build::Loopback => {
            let mut f = Fabric::new();
            black_box(build_loopback(
                &mut f,
                &NodeConfig::default(),
                Peach2Params::default(),
            ));
            black_box(f);
        }
        Build::IbPair => {
            let mut f = Fabric::new();
            let mut nodes: Vec<_> = (0..2)
                .map(|i| build_node(&mut f, &format!("n{i}"), &NodeConfig::default()))
                .collect();
            let net = attach_ib(&mut f, &mut nodes, IbParams::default());
            black_box(MpiWorld::new(nodes, net));
            black_box(f);
        }
        Build::DualSocket => {
            let mut f = Fabric::new();
            black_box(build_dual_socket_node(
                &mut f,
                "n0",
                &NodeConfig::default(),
                QpiParams::default(),
            ));
            black_box(f);
        }
        Build::Cluster(n) => {
            black_box(TcaClusterBuilder::new(n).build());
        }
        Build::Mpi(n, mode) => {
            black_box(MpiBackend::new(n, mode));
        }
        Build::Topologies => {
            for entry in tca_core::presets::topology_registry() {
                black_box((entry.build)());
            }
        }
        Build::RingTrafficWorld => {
            black_box(crate::ring::World::new());
        }
    }
}

/// A fresh `n`-node ring with initialised drivers — the measurement rig of
/// the figure sweeps, built exactly as `tca_bench::rig` builds it.
pub fn ring_rig(n: u32) -> (Fabric, tca_peach2::SubCluster, Vec<Peach2Driver>) {
    let mut fabric = Fabric::new();
    let sc = build_ring(
        &mut fabric,
        n,
        &NodeConfig::default(),
        Peach2Params::default(),
    );
    let drivers: Vec<Peach2Driver> = (0..n as usize)
        .map(|i| Peach2Driver::new(sc.map, i as u32, sc.nodes[i].host, sc.chips[i]))
        .collect();
    for d in &drivers {
        d.init(&mut fabric);
    }
    (fabric, sc, drivers)
}

/// Each rep rebuilds the list until at least this much host time passed:
/// a list takes a few milliseconds, too short a window to time steadily.
const MIN_REP: Duration = Duration::from_millis(25);

/// Host seconds to construct the whole build list once, for each of
/// `reps` reps.
pub fn time_setup(builds: &[(Build, usize)], reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut lists = 0u32;
            while lists == 0 || t.elapsed() < MIN_REP {
                for &(b, count) in builds {
                    for _ in 0..count {
                        construct(b);
                    }
                }
                lists += 1;
            }
            t.elapsed().as_secs_f64() / f64::from(lists)
        })
        .collect()
}
