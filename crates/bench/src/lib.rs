//! # tca-bench — regeneration harness for every table and figure of the
//! paper's evaluation (§II Table I, §IV Figs. 7/8/9/12 and the latency
//! measurement), plus the ablations DESIGN.md calls out.
//!
//! Each `figN_*` function rebuilds the paper's exact measurement rig
//! inside a fresh simulation and returns the series the figure plots; the
//! [`scenario`] registry behind `tca-bench` prints them as aligned tables
//! or `tca-bench-sweep/v1` JSON, and `EXPERIMENTS.md` records
//! paper-vs-measured values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod prof;
pub mod refqueue;
pub mod scenario;
pub mod topo_fabric;
pub mod whatif;

pub use prof::{
    engine_bench, engine_bench_with, profile_scenario, queue_race, EngineBench, EngineProfile,
    EngineWorkload, QueueRace,
};

use std::path::{Path, PathBuf};
use tca_device::map::TcaBlock;
use tca_device::node::{build_dual_socket_node, NodeConfig};
use tca_device::{Gpu, HostBridge, QpiParams};
use tca_net::{attach_ib, IbParams, MpiWorld, Protocol};
use tca_pcie::{AddrRange, Fabric, LinkParams};
use tca_peach2::{
    build_loopback, build_ring, Descriptor, EngineKind, Peach2, Peach2Driver, Peach2Params,
    SubCluster,
};
use tca_sim::{Dur, JsonValue};

// Percentile math lives in `tca_sim::stats` — the single source for both
// the log₂ and the HDR (16-sub-buckets-per-octave) histograms. Re-exported
// so bench consumers never grow a private copy.
pub use tca_sim::{HdrHistogram, LatencyHistogram};

/// Default data-size sweep of Figs. 7/8/12 (64 B – 1 MiB, doubling).
pub fn default_sizes() -> Vec<u64> {
    (6..=20).map(|p| 1u64 << p).collect()
}

/// Default request-count sweep of Fig. 9.
pub fn default_counts() -> Vec<u64> {
    vec![1, 2, 4, 8, 16, 32, 64, 128, 255]
}

/// One measurement rig: an `n`-node ring of Table II nodes with drivers.
pub struct Rig {
    /// The simulation.
    pub fabric: Fabric,
    /// The sub-cluster.
    pub sc: SubCluster,
    /// Per-node drivers.
    pub drivers: Vec<Peach2Driver>,
}

/// Builds a fresh ring rig of `n` nodes.
pub fn rig(n: u32) -> Rig {
    let mut fabric = Fabric::new();
    tca_core::apply_env_flight(&mut fabric);
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
    Rig {
        fabric,
        sc,
        drivers,
    }
}

/// Builds a ring rig of `n` nodes from an explicit parameter bundle —
/// the entry point the `tca-whatif` causal profiler re-runs with one
/// knob virtually scaled. `rig(n)` is exactly `rig_with(n, &default)`.
pub fn rig_with(n: u32, fp: &tca_core::FabricParams) -> Rig {
    let mut fabric = Fabric::new();
    tca_core::apply_env_flight(&mut fabric);
    let sc = build_ring(&mut fabric, n, &fp.node, fp.peach2);
    let drivers: Vec<Peach2Driver> = (0..n as usize)
        .map(|i| Peach2Driver::new(sc.map, i as u32, sc.nodes[i].host, sc.chips[i]))
        .collect();
    for d in &drivers {
        d.init(&mut fabric);
    }
    Rig {
        fabric,
        sc,
        drivers,
    }
}

/// What a DMA sweep targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Target {
    /// Host DRAM on the local node (the driver DMA buffer of §IV-A1).
    LocalCpu,
    /// Pinned GPU memory on the local node.
    LocalGpu,
    /// Host DRAM on the adjacent node (Fig. 11/12 rig).
    RemoteCpu,
    /// Pinned GPU memory on the adjacent node.
    RemoteGpu,
}

/// DMA direction, defined from the viewpoint of the PEACH2 chip (§IV-A):
/// a *write* transfers from PEACH2 to CPU/GPU.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// PEACH2 internal memory → target.
    Write,
    /// Target → PEACH2 internal memory (local targets only; remote reads
    /// do not exist on PEARL).
    Read,
}

/// Measures one chained-DMA point: `count` descriptors of `size` bytes in
/// the given direction against the given target. Returns bytes/second over
/// the doorbell→interrupt window, the §IV-A methodology.
pub fn dma_bandwidth(r: &mut Rig, target: Target, dir: Direction, count: u64, size: u64) -> f64 {
    let d = &r.drivers[0];
    // Resolve the non-SRAM endpoint address (all descriptors reuse the
    // same buffers: this is a bandwidth rig, not a dataset).
    let other = match target {
        Target::LocalCpu => d.dma_buf,
        Target::RemoteCpu => r.sc.map.global_addr(1, TcaBlock::Host, 0x4000_0000),
        Target::LocalGpu | Target::RemoteGpu => {
            let node = if target == Target::LocalGpu { 0 } else { 1 };
            let gpu = r.fabric.device_mut::<Gpu>(r.sc.nodes[node].gpus[0]);
            let a = gpu.alloc(size);
            let t = gpu.p2p_token(a, size);
            let bar = gpu.pin(a, size, t);
            if target == Target::LocalGpu {
                bar
            } else {
                // Remote GPU: address it through the TCA window.
                r.sc.map.global_addr(1, TcaBlock::Gpu0, a)
            }
        }
    };
    assert!(
        !(matches!(dir, Direction::Read)
            && matches!(target, Target::RemoteCpu | Target::RemoteGpu)),
        "RDMA get is not supported over PEARL"
    );
    let sram = d.sram_addr(0);
    if dir == Direction::Write {
        r.fabric
            .device_mut::<Peach2>(r.sc.chips[0])
            .sram_mut()
            .fill_pattern(0, size, 0x3c);
    }
    let descs: Vec<Descriptor> = (0..count)
        .map(|_| match dir {
            Direction::Write => Descriptor::new(sram, other, size),
            Direction::Read => Descriptor::new(other, sram, size),
        })
        .collect();
    let m = d.run_dma(&mut r.fabric, &descs, EngineKind::Legacy);
    m.bandwidth()
}

/// One row of Fig. 7 / Fig. 8 (chained / single DMA, local targets).
#[derive(Clone, Copy, Debug)]
pub struct LocalDmaRow {
    /// Transfer size per descriptor, bytes.
    pub size: u64,
    /// DMA write to local CPU memory, bytes/s.
    pub cpu_write: f64,
    /// DMA read from local CPU memory, bytes/s.
    pub cpu_read: f64,
    /// DMA write to local (pinned) GPU memory, bytes/s.
    pub gpu_write: f64,
    /// DMA read from local GPU memory, bytes/s.
    pub gpu_read: f64,
}

/// Fig. 7: size vs bandwidth between PEACH2 and CPU/GPU, 255 chained DMAs.
pub fn fig7(sizes: &[u64]) -> Vec<LocalDmaRow> {
    local_dma_sweep(sizes, 255)
}

/// Fig. 8: size vs bandwidth for a single DMA request.
pub fn fig8(sizes: &[u64]) -> Vec<LocalDmaRow> {
    local_dma_sweep(sizes, 1)
}

fn local_dma_sweep(sizes: &[u64], count: u64) -> Vec<LocalDmaRow> {
    sizes
        .iter()
        .map(|&size| LocalDmaRow {
            size,
            cpu_write: dma_bandwidth(&mut rig(2), Target::LocalCpu, Direction::Write, count, size),
            cpu_read: dma_bandwidth(&mut rig(2), Target::LocalCpu, Direction::Read, count, size),
            gpu_write: dma_bandwidth(&mut rig(2), Target::LocalGpu, Direction::Write, count, size),
            gpu_read: dma_bandwidth(&mut rig(2), Target::LocalGpu, Direction::Read, count, size),
        })
        .collect()
}

/// One row of Fig. 9 (request count at fixed 4 KiB).
#[derive(Clone, Copy, Debug)]
pub struct Fig9Row {
    /// Number of chained DMA requests.
    pub requests: u64,
    /// DMA write to CPU, bytes/s.
    pub cpu_write: f64,
    /// DMA write to GPU, bytes/s.
    pub gpu_write: f64,
    /// DMA read from CPU, bytes/s.
    pub cpu_read: f64,
}

/// Fig. 9: number of DMA requests vs bandwidth at a fixed 4 KiB size.
pub fn fig9(counts: &[u64]) -> Vec<Fig9Row> {
    counts
        .iter()
        .map(|&n| Fig9Row {
            requests: n,
            cpu_write: dma_bandwidth(&mut rig(2), Target::LocalCpu, Direction::Write, n, 4096),
            gpu_write: dma_bandwidth(&mut rig(2), Target::LocalGpu, Direction::Write, n, 4096),
            cpu_read: dma_bandwidth(&mut rig(2), Target::LocalCpu, Direction::Read, n, 4096),
        })
        .collect()
}

/// One row of Fig. 12 (remote-node DMA writes vs the local curves).
#[derive(Clone, Copy, Debug)]
pub struct Fig12Row {
    /// Transfer size per descriptor, bytes.
    pub size: u64,
    /// Local CPU write (the Fig. 7 curve, for comparison).
    pub cpu_local_write: f64,
    /// Local CPU read (Fig. 7 curve).
    pub cpu_local_read: f64,
    /// DMA write to the adjacent node's CPU memory via the cable.
    pub cpu_remote_write: f64,
    /// DMA write to the adjacent node's GPU memory via the cable.
    pub gpu_remote_write: f64,
}

/// Fig. 12: size vs bandwidth to the adjacent node, 255 chained DMAs.
pub fn fig12(sizes: &[u64]) -> Vec<Fig12Row> {
    sizes
        .iter()
        .map(|&size| Fig12Row {
            size,
            cpu_local_write: dma_bandwidth(
                &mut rig(2),
                Target::LocalCpu,
                Direction::Write,
                255,
                size,
            ),
            cpu_local_read: dma_bandwidth(
                &mut rig(2),
                Target::LocalCpu,
                Direction::Read,
                255,
                size,
            ),
            cpu_remote_write: dma_bandwidth(
                &mut rig(2),
                Target::RemoteCpu,
                Direction::Write,
                255,
                size,
            ),
            gpu_remote_write: dma_bandwidth(
                &mut rig(2),
                Target::RemoteGpu,
                Direction::Write,
                255,
                size,
            ),
        })
        .collect()
}

/// The §IV-B1 latency report.
#[derive(Clone, Copy, Debug)]
pub struct LatencyReport {
    /// PIO one-way latency through two boards and one cable (Fig. 10), ns.
    /// Paper: 782 ns.
    pub pio_oneway_ns: f64,
    /// InfiniBand FDR RDMA-write one-way latency (host to host), ns.
    /// Paper cites "< 1 µs" from the ConnectX-3 product brief.
    pub ib_fdr_oneway_ns: f64,
    /// InfiniBand QDR (base-cluster hardware) one-way latency, ns.
    pub ib_qdr_oneway_ns: f64,
    /// MPI (eager, host-to-host) half-round-trip over QDR, ns.
    pub mpi_halfrtt_ns: f64,
}

/// Measures the Fig. 10 loopback PIO latency plus the IB comparison points.
pub fn latency_report() -> LatencyReport {
    // --- PIO via the two-board loopback rig.
    let pio_oneway_ns = {
        let mut f = Fabric::new();
        let rigl = build_loopback(&mut f, &NodeConfig::default(), Peach2Params::default());
        let poll = 0x6000u64;
        let watch = f
            .device_mut::<HostBridge>(rigl.node.host)
            .core_mut()
            .add_watch(AddrRange::new(poll, 4));
        let dst = rigl.map.global_addr(1, TcaBlock::Host, poll);
        let t0 = f.now();
        f.drive::<HostBridge, _>(rigl.node.host, |h, ctx| {
            h.core_mut().cpu_store(dst, &1u32.to_le_bytes(), ctx);
        });
        f.run_until_idle();
        let hits = f
            .device::<HostBridge>(rigl.node.host)
            .core()
            .watch_hits(watch);
        hits[0].since(t0).as_ns_f64()
    };

    let ib_oneway = |params: IbParams| -> f64 {
        let mut f = Fabric::new();
        let mut nodes: Vec<_> = (0..2)
            .map(|i| tca_device::node::build_node(&mut f, &format!("n{i}"), &NodeConfig::default()))
            .collect();
        let net = attach_ib(&mut f, &mut nodes, params);
        f.device_mut::<HostBridge>(nodes[0].host)
            .core_mut()
            .mem()
            .write(0x4000_0000, &[1u8; 4]);
        let watch = f
            .device_mut::<HostBridge>(nodes[1].host)
            .core_mut()
            .add_watch(AddrRange::new(0x5000_0000, 4));
        let t0 = f.now();
        f.drive::<tca_net::IbHca, _>(net.hcas[0], |h, ctx| {
            h.post(
                tca_net::SendOp {
                    src: 0x4000_0000,
                    dst_node: 1,
                    dst: 0x5000_0000,
                    len: 4,
                    flags_addr: 0x5100_0000,
                    flag_value: 1,
                },
                ctx,
            );
        });
        f.run_until_idle();
        let hits = f
            .device::<HostBridge>(nodes[1].host)
            .core()
            .watch_hits(watch);
        hits[0].since(t0).as_ns_f64()
    };

    let mpi_halfrtt_ns = {
        let mut f = Fabric::new();
        let mut nodes: Vec<_> = (0..2)
            .map(|i| tca_device::node::build_node(&mut f, &format!("n{i}"), &NodeConfig::default()))
            .collect();
        let net = attach_ib(&mut f, &mut nodes, IbParams::default());
        let mut w = MpiWorld::new(nodes, net);
        f.device_mut::<HostBridge>(w.nodes[0].host)
            .core_mut()
            .mem()
            .write(0x4000_0000, &[1u8; 8]);
        let fwd = w.send(&mut f, 0, 1, 0x4000_0000, 0x5000_0000, 8, Protocol::Eager);
        let back = w.send(&mut f, 1, 0, 0x5000_0000, 0x4000_0100, 8, Protocol::Eager);
        ((fwd + back) / 2).as_ns_f64()
    };

    LatencyReport {
        pio_oneway_ns,
        ib_fdr_oneway_ns: ib_oneway(IbParams::fdr()),
        ib_qdr_oneway_ns: ib_oneway(IbParams::default()),
        mpi_halfrtt_ns,
    }
}

/// One row of the A2 DMAC ablation: two-phase legacy put vs pipelined put.
#[derive(Clone, Copy, Debug)]
pub struct DmacAblationRow {
    /// Transfer size, bytes.
    pub size: u64,
    /// Legacy two-phase node-to-node put, bytes/s.
    pub legacy_two_phase: f64,
    /// Pipelined (new DMAC) node-to-node put, bytes/s.
    pub pipelined: f64,
}

/// A2: the §IV-B2 "new DMAC" against the shipping two-phase procedure.
pub fn dmac_ablation(sizes: &[u64]) -> Vec<DmacAblationRow> {
    sizes
        .iter()
        .map(|&size| {
            let mut r = rig(2);
            let dst = r.sc.map.global_addr(1, TcaBlock::Host, 0x4000_0000);
            let buf = r.drivers[0].dma_buf;
            r.fabric
                .device_mut::<HostBridge>(r.sc.nodes[0].host)
                .core_mut()
                .mem()
                .fill_pattern(buf, size, 0x11);
            let legacy = r.drivers[0]
                .legacy_remote_put(&mut r.fabric, buf, dst, size)
                .bandwidth();
            let piped = r.drivers[0]
                .pipelined_remote_put(&mut r.fabric, buf, dst, size)
                .bandwidth();
            DmacAblationRow {
                size,
                legacy_two_phase: legacy,
                pipelined: piped,
            }
        })
        .collect()
}

/// The A1 QPI ablation: P2P write bandwidth same-socket vs across QPI.
#[derive(Clone, Copy, Debug)]
pub struct QpiReport {
    /// CPU streaming-store bandwidth into a same-socket GPU, bytes/s.
    pub same_socket: f64,
    /// The same stores crossing QPI to the other socket's GPU, bytes/s.
    pub across_qpi: f64,
}

/// A1: reproduces §IV-A2's "several hundred Mbytes/sec" QPI degradation.
pub fn qpi_report() -> QpiReport {
    let run = |cross: bool| -> f64 {
        let mut f = Fabric::new();
        let node =
            build_dual_socket_node(&mut f, "n0", &NodeConfig::default(), QpiParams::default());
        let target = if cross {
            node.socket1.gpus[0]
        } else {
            node.socket0.gpus[0]
        };
        let len = 256 * 1024u64;
        let bar = {
            let g = f.device_mut::<Gpu>(target);
            let a = g.alloc(len);
            let t = g.p2p_token(a, len);
            g.pin(a, len, t)
        };
        let t0 = f.now();
        f.drive::<HostBridge, _>(node.socket0.host, |h, ctx| {
            let mut off = 0u64;
            while off < len {
                h.core_mut().cpu_store(bar + off, &[0u8; 256], ctx);
                off += 256;
            }
        });
        let end = f.run_until_idle();
        len as f64 / end.since(t0).as_s_f64()
    };
    QpiReport {
        same_socket: run(false),
        across_qpi: run(true),
    }
}

/// One row of the A3 comparison: GPU-to-GPU transfer time across stacks.
#[derive(Clone, Copy, Debug)]
pub struct ComparisonRow {
    /// Message size, bytes.
    pub size: u64,
    /// TCA pipelined DMA GPU→GPU (remote), µs.
    pub tca_dma_us: f64,
    /// TCA PIO host→remote-GPU (short messages only; 0 when skipped), µs.
    pub tca_pio_us: f64,
    /// Conventional 3-copy path: cudaMemcpy + MPI/IB + cudaMemcpy, µs.
    pub mpi_staged_us: f64,
    /// GPUDirect-RDMA over IB (zero-copy, read-throttled), µs.
    pub ib_gpudirect_us: f64,
}

/// A3: the §I motivation quantified — TCA vs the conventional cluster.
pub fn comparison(sizes: &[u64]) -> Vec<ComparisonRow> {
    sizes
        .iter()
        .map(|&size| {
            // --- TCA side: 2-node ring, GPU0@n0 → GPU0@n1, pipelined DMAC.
            let (tca_dma_us, tca_pio_us) = {
                let mut r = rig(2);
                let src_bar = {
                    let g = r.fabric.device_mut::<Gpu>(r.sc.nodes[0].gpus[0]);
                    let a = g.alloc(size);
                    g.gddr().fill_pattern(a, size, 1);
                    let t = g.p2p_token(a, size);
                    g.pin(a, size, t)
                };
                {
                    let g = r.fabric.device_mut::<Gpu>(r.sc.nodes[1].gpus[0]);
                    let a = g.alloc(size);
                    let t = g.p2p_token(a, size);
                    g.pin(a, size, t);
                }
                let dst = r.sc.map.global_addr(1, TcaBlock::Gpu0, 0);
                let dma = r.drivers[0]
                    .pipelined_remote_put(&mut r.fabric, src_bar, dst, size)
                    .window
                    .as_us_f64();
                let pio = if size <= 8192 {
                    let t0 = r.fabric.now();
                    let data = vec![0u8; size as usize];
                    let host = r.sc.nodes[0].host;
                    r.fabric.drive::<HostBridge, _>(host, |h, ctx| {
                        h.core_mut().cpu_store_wc(dst, &data, ctx);
                    });
                    let end = r.fabric.run_until_idle();
                    end.since(t0).as_us_f64()
                } else {
                    0.0
                };
                (dma, pio)
            };

            // --- Baseline side: 2 nodes + IB, staged and GPUDirect.
            let (mpi_staged_us, ib_gpudirect_us) = {
                let mut f = Fabric::new();
                let mut nodes: Vec<_> = (0..2)
                    .map(|i| {
                        tca_device::node::build_node(
                            &mut f,
                            &format!("n{i}"),
                            &NodeConfig::default(),
                        )
                    })
                    .collect();
                let net = attach_ib(&mut f, &mut nodes, IbParams::default());
                let mut w = MpiWorld::new(nodes, net);
                let (src_bar, dst_bar) = {
                    let g = f.device_mut::<Gpu>(w.nodes[0].gpus[0]);
                    let a = g.alloc(size);
                    g.gddr().fill_pattern(a, size, 2);
                    let t = g.p2p_token(a, size);
                    let s = g.pin(a, size, t);
                    let g = f.device_mut::<Gpu>(w.nodes[1].gpus[0]);
                    let b = g.alloc(size);
                    let t = g.p2p_token(b, size);
                    let d = g.pin(b, size, t);
                    (s, d)
                };
                let staged = w
                    .send_gpu_staged(&mut f, 0, 0, 1, 0, size, Protocol::Auto)
                    .as_us_f64();
                let direct = w
                    .send_gpu_gpudirect(&mut f, 0, src_bar, 1, dst_bar, size)
                    .as_us_f64();
                (staged, direct)
            };

            ComparisonRow {
                size,
                tca_dma_us,
                tca_pio_us,
                mpi_staged_us,
                ib_gpudirect_us,
            }
        })
        .collect()
}

/// One row of the A4 hop sweep.
#[derive(Clone, Copy, Debug)]
pub struct HopRow {
    /// Ring hops between source and destination.
    pub hops: u32,
    /// PIO one-way latency, ns.
    pub pio_ns: f64,
    /// 4 KiB pipelined-DMA put window, µs.
    pub dma_4k_us: f64,
}

/// One point of the A4 hop sweep: a fresh 8-node ring, PIO + 4 KiB DMA to
/// the node `hops` eastward neighbours away.
pub fn ring_hop(hops: u32) -> HopRow {
    let mut r = rig(8);
    let dstn = hops; // eastward neighbours
    let poll = 0x4800_0000u64;
    let watch = r
        .fabric
        .device_mut::<HostBridge>(r.sc.nodes[dstn as usize].host)
        .core_mut()
        .add_watch(AddrRange::new(poll, 4));
    let dst = r.sc.map.global_addr(dstn, TcaBlock::Host, poll);
    let t0 = r.fabric.now();
    let host0 = r.sc.nodes[0].host;
    r.fabric.drive::<HostBridge, _>(host0, |h, ctx| {
        h.core_mut().cpu_store(dst, &1u32.to_le_bytes(), ctx);
    });
    r.fabric.run_until_idle();
    let pio_ns = r
        .fabric
        .device::<HostBridge>(r.sc.nodes[dstn as usize].host)
        .core()
        .watch_hits(watch)[0]
        .since(t0)
        .as_ns_f64();
    let dma_dst = r.sc.map.global_addr(dstn, TcaBlock::Host, 0x4000_0000);
    let buf = r.drivers[0].dma_buf;
    let dma_4k_us = r.drivers[0]
        .pipelined_remote_put(&mut r.fabric, buf, dma_dst, 4096)
        .window
        .as_us_f64();
    HopRow {
        hops,
        pio_ns,
        dma_4k_us,
    }
}

/// A4: latency vs ring hop count in an 8-node ring (§III-E routing).
pub fn ring_hops() -> Vec<HopRow> {
    (1..=4u32).map(ring_hop).collect()
}

/// One row of the A5 reliability ablation: cable bit errors vs remote
/// bandwidth (PEARL's data-link replays keep transfers exact but slower).
#[derive(Clone, Copy, Debug)]
pub struct ReliabilityRow {
    /// Per-TLP corruption probability, parts per million.
    pub error_ppm: u32,
    /// Remote 4 KiB × 255 chained write bandwidth, bytes/s.
    pub remote_write: f64,
    /// Link-level replays during the run.
    pub replays: u64,
}

/// A5: sweeps the cable error rate; data integrity is asserted on every
/// point — PEARL is a *reliable* link (§III-A).
pub fn reliability_ablation(ppms: &[u32]) -> Vec<ReliabilityRow> {
    ppms.iter()
        .map(|&ppm| {
            let mut fabric = Fabric::new();
            let mut params = Peach2Params::default();
            params.cable_link = params.cable_link.with_error_rate_ppm(ppm);
            let sc = build_ring(&mut fabric, 2, &NodeConfig::default(), params);
            let d = Peach2Driver::new(sc.map, 0, sc.nodes[0].host, sc.chips[0]);
            d.init(&mut fabric);
            fabric
                .device_mut::<Peach2>(sc.chips[0])
                .sram_mut()
                .fill_pattern(0, 4096, 0x42);
            let dst = sc.map.global_addr(1, TcaBlock::Host, 0x4000_0000);
            let descs: Vec<Descriptor> = (0..255)
                .map(|_| Descriptor::new(d.sram_addr(0), dst, 4096))
                .collect();
            let t0 = fabric.now();
            let m = d.run_dma(&mut fabric, &descs, EngineKind::Legacy);
            // A lossy cable stalls *behind* the engine's pacing, so measure
            // to full drain (run_dma leaves the fabric idle) rather than
            // the doorbell→interrupt window.
            let drained = fabric.now().since(t0);
            // Integrity: the destination holds the exact pattern.
            let host1 = fabric.device::<HostBridge>(sc.nodes[1].host).core();
            let mut chk = tca_pcie::PageMemory::new();
            chk.write(0, &host1.mem_ref().read(0x4000_0000, 4096));
            assert!(chk.verify_pattern(0, 4096, 0x42).is_ok(), "data corrupted");
            let replays = (0..fabric.link_count() as u32)
                .map(|l| {
                    fabric
                        .link_stats(tca_pcie::LinkId(l), tca_pcie::Dir::Fwd)
                        .replays
                        + fabric
                            .link_stats(tca_pcie::LinkId(l), tca_pcie::Dir::Rev)
                            .replays
                })
                .sum();
            ReliabilityRow {
                error_ppm: ppm,
                remote_write: m.bytes as f64 / drained.as_s_f64(),
                replays,
            }
        })
        .collect()
}

/// The A6 contention report: per-flow bandwidth when flows share a cable.
#[derive(Clone, Copy, Debug)]
pub struct ContentionReport {
    /// One flow alone (node 0 → node 2, two eastward hops), bytes/s.
    pub solo: f64,
    /// Two flows sharing the 1→2 cable (0→2 and 1→3), per-flow bytes/s.
    pub shared_per_flow: f64,
    /// Sum of the shared flows, bytes/s (should ≈ the solo rate: the
    /// cable is the bottleneck and the wire serializes fairly).
    pub shared_aggregate: f64,
}

/// A6: link contention on the ring — two pipelined puts whose eastward
/// paths overlap on one cable. The wire model must serialize them and
/// share bandwidth, with the aggregate pinned at the single-cable rate.
pub fn contention_report() -> ContentionReport {
    use tca_core::prelude::*;
    let len = 1u64 << 20;

    let solo = {
        let mut c = TcaClusterBuilder::new(8).build();
        c.write(&MemRef::host(0, 0x4000_0000), &vec![1u8; len as usize]);
        let d = c.memcpy_peer(
            &MemRef::host(2, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            len,
        );
        len as f64 / d.as_s_f64()
    };

    let (shared_per_flow, shared_aggregate) = {
        let mut c = TcaClusterBuilder::new(8).build();
        c.write(&MemRef::host(0, 0x4000_0000), &vec![1u8; len as usize]);
        c.write(&MemRef::host(1, 0x4000_0000), &vec![2u8; len as usize]);
        let t0 = c.now();
        let e1 = c.memcpy_peer_async(
            &MemRef::host(2, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            len,
        );
        let e2 = c.memcpy_peer_async(
            &MemRef::host(3, 0x5000_0000),
            &MemRef::host(1, 0x4000_0000),
            len,
        );
        c.wait(e1);
        c.wait(e2);
        c.synchronize();
        let both = c.now().since(t0);
        let agg = (2 * len) as f64 / both.as_s_f64();
        (agg / 2.0, agg)
    };

    ContentionReport {
        solo,
        shared_per_flow,
        shared_aggregate,
    }
}

/// One row of the A8 sub-cluster-size scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScalingRow {
    /// Ring size.
    pub nodes: u32,
    /// PIO latency to the farthest node (ring diameter), ns.
    pub diameter_pio_ns: f64,
    /// Aggregate bandwidth of a simultaneous neighbour shift
    /// (every node puts 256 KiB to its eastward neighbour), bytes/s.
    pub shift_aggregate: f64,
    /// Per-node bandwidth of the shift, bytes/s.
    pub shift_per_node: f64,
}

/// A8: why the sub-cluster is 8–16 nodes (§II-B: "a large number of nodes
/// degrades the performance"). Diameter latency grows linearly with ring
/// size while the neighbour-shift aggregate scales with node count (each
/// cable carries one flow) — so the *latency* bound, not bandwidth, caps
/// the useful sub-cluster size.
pub fn scaling_sweep() -> Vec<ScalingRow> {
    [2u32, 4, 8, 16].into_iter().map(scaling_point).collect()
}

/// One point of the A8 scaling sweep: diameter latency and neighbour-shift
/// bandwidth on a fresh `n`-node ring.
pub fn scaling_point(n: u32) -> ScalingRow {
    use tca_core::prelude::*;
    // Diameter PIO latency.
    let mut c = TcaClusterBuilder::new(n).build();
    let far = n / 2;
    let t0 = c.now();
    c.pio_put(0, &MemRef::host(far, 0x4000_0000), &[1u8; 4]);
    let diameter_pio_ns = c.now().since(t0).as_ns_f64();

    // Simultaneous neighbour shift.
    let len = 256u64 * 1024;
    let mut c = TcaClusterBuilder::new(n).build();
    for r in 0..n {
        c.write(&MemRef::host(r, 0x4000_0000), &vec![r as u8; len as usize]);
    }
    let t0 = c.now();
    let events: Vec<TcaEvent> = (0..n)
        .map(|r| {
            c.memcpy_peer_async(
                &MemRef::host((r + 1) % n, 0x5000_0000),
                &MemRef::host(r, 0x4000_0000),
                len,
            )
        })
        .collect();
    for ev in events {
        c.wait(ev);
    }
    c.synchronize();
    let elapsed = c.now().since(t0);
    let agg = (n as u64 * len) as f64 / elapsed.as_s_f64();
    ScalingRow {
        nodes: n,
        diameter_pio_ns,
        shift_aggregate: agg,
        shift_per_node: agg / n as f64,
    }
}

/// One row of the E0 theoretical-peak table (the §IV-A1 formula).
#[derive(Clone, Copy, Debug)]
pub struct PeakRow {
    /// Link label.
    pub label: &'static str,
    /// Raw byte rate, bytes/s.
    pub raw: u64,
    /// Theoretical peak payload rate at the link's MPS, bytes/s.
    pub peak: f64,
}

/// E0: the theoretical-peak arithmetic for the links the paper discusses.
pub fn theoretical_peaks() -> Vec<PeakRow> {
    let mk = |label, p: LinkParams| PeakRow {
        label,
        raw: p.raw_bytes_per_sec(),
        peak: p.theoretical_peak_bytes_per_sec(),
    };
    vec![
        mk("PCIe Gen2 x8 (PEACH2 ports)", LinkParams::gen2_x8()),
        mk("PCIe Gen2 x16 (GPU slots)", LinkParams::gen2_x16()),
        mk("PCIe Gen3 x8 (IB HCA slot)", LinkParams::gen3_x8()),
    ]
}

/// Compact telemetry summary of a fabric run, embedded per point by
/// `tca-bench --json` (the `telemetry` row field): peak link queue depth,
/// worst per-link credit-stall fraction, sampler capture count, watchdog
/// state, and span-latency percentiles from the HDR histogram. All-integer
/// fields, so the summary is byte-stable across identical runs.
pub fn telemetry_summary(fabric: &mut Fabric) -> JsonValue {
    let snap = fabric.metrics_snapshot();
    let elapsed_ps = fabric.now().as_ps().max(1);
    let mut peak_queue = 0i64;
    for e in &snap.entries {
        if let tca_sim::MetricValue::Gauge { peak, .. } = e.value {
            if e.name.starts_with("link.") && e.name.ends_with(".queue_depth") {
                peak_queue = peak_queue.max(peak);
            }
        }
    }
    let mut max_stall_pm = 0u64;
    for i in 0..fabric.link_count() {
        for dir in [tca_pcie::Dir::Fwd, tca_pcie::Dir::Rev] {
            let s = fabric.link_stats(tca_pcie::LinkId(i as u32), dir);
            max_stall_pm = max_stall_pm.max(s.credit_stall.as_ps() * 1000 / elapsed_ps);
        }
    }
    let spans = fabric.spans();
    let mut h = HdrHistogram::new();
    for (id, _, _, end) in spans.roots() {
        if end.is_some() {
            h.record(spans.root_elapsed(id).expect("completed root"));
        }
    }
    let mut o = JsonValue::object();
    o.push("peak_link_queue_depth", JsonValue::from(peak_queue));
    o.push("max_stall_permille", JsonValue::from(max_stall_pm));
    o.push(
        "captures",
        JsonValue::from(fabric.sampler().map_or(0, |s| s.captures()) as u64),
    );
    o.push(
        "watchdog_fired",
        JsonValue::from(fabric.stall_report().is_some()),
    );
    o.push("span_count", JsonValue::from(h.count()));
    if h.count() > 0 {
        o.push("span_p50_ns", JsonValue::from(h.percentile_ns(0.50)));
        o.push("span_p99_ns", JsonValue::from(h.percentile_ns(0.99)));
        o.push("span_max_ns", JsonValue::from(h.max_ns()));
    }
    o
}

/// The `tca-top` artifacts for one scenario: the rendered congestion
/// report, its `tca-health/v1` JSON, the full `tca-series/v1` gauge
/// time-series, the Chrome trace (spans + counter tracks) and the final
/// metrics snapshot.
#[derive(Clone, Debug)]
pub struct TopReport {
    /// The aligned-text health report (what `--top` prints).
    pub text: String,
    /// Schema `tca-health/v1` JSON.
    pub health_json: String,
    /// Schema `tca-series/v1` JSON (the sampled gauge time-series).
    pub series_json: String,
    /// Chrome trace-event JSON: span events, then `ph:"C"` counter events.
    pub trace_json: String,
    /// Every metric of the world after the run (link, DMA-engine, NIOS
    /// port, host and GPU metrics), taken through the world's own
    /// `metrics_snapshot` so the NIOS port counters are synced.
    pub metrics_json: String,
}

/// Drives a representative traffic pattern for the health report: every
/// node puts a 64 KiB payload to its eastward neighbour, then a short
/// flagged put westward — enough to light every ring cable in both
/// directions and record `pio`/`dma` root spans.
fn drive_health_traffic(c: &mut impl tca_core::CommWorld, n: u32) {
    use tca_core::prelude::*;
    let len = 64 * 1024u64;
    for r in 0..n {
        c.write(&MemRef::host(r, 0x4000_0000), &vec![r as u8; len as usize]);
    }
    for r in 0..n {
        c.put(
            &MemRef::host((r + 1) % n, 0x5000_0000),
            &MemRef::host(r, 0x4000_0000),
            len,
        );
    }
    for r in 0..n {
        c.put(
            &MemRef::host((r + n - 1) % n, 0x5800_0000),
            &MemRef::host(r, 0x4000_0000),
            256,
        );
    }
}

/// Ring capacity for flight recording of the representative health
/// run — large enough that nothing is evicted on the 8-node ring, so
/// the log covers every step from simulation start.
pub const FLIGHT_RING_CAPACITY: usize = 65536;

/// Builds an instrumented world (gauge sampling, armed watchdog, span
/// tracing), runs the representative traffic for `scenario`, and captures
/// the continuous-health artifacts. Two nodes for the point-to-point
/// latency scenarios, the 8-node ring otherwise (`ring-hops` &co. — the
/// all-to-all neighbour shift of the EXPERIMENTS.md worked example).
///
/// When `flight` is true the same run is also recorded as a
/// `tca-flight/v1` log, returned beside the report; it is `None` only
/// when `flight` is false. The log covers exactly the traffic that
/// produced the health artifacts, so a byte-compare of the [`TopReport`]
/// with recording off vs on is a genuine neutrality claim on a shared rig
/// (the CI flight smoke relies on this), and logs of two backends are
/// comparable step for step. The log ends with the run's span records,
/// letting `tca-flight path`/`flight diff` reconstruct span trees offline.
pub fn top_report(
    scenario: &str,
    backend: scenario::BackendKind,
    flight: bool,
) -> (TopReport, Option<String>) {
    use scenario::BackendKind;
    use tca_core::prelude::*;
    const PERIOD: Dur = Dur::from_ns(250);
    const WINDOW: Dur = Dur::from_us(200);
    let two_node = matches!(
        scenario,
        "pingpong" | "latency" | "put-latency" | "fig7" | "fig8" | "fig9" | "fig12"
    );
    let n = if two_node { 2 } else { 8 };
    let capture = |fabric: &Fabric, text, health_json, metrics_json| TopReport {
        text,
        health_json,
        series_json: fabric
            .sampler()
            .map_or_else(|| "{}".to_string(), |s| s.to_json()),
        trace_json: fabric.chrome_trace_json(),
        metrics_json,
    };
    match backend {
        BackendKind::Tca => {
            let mut c = TcaClusterBuilder::new(n).build();
            c.fabric.set_span_tracing(true);
            if flight {
                c.enable_flight(FLIGHT_RING_CAPACITY, true);
            }
            c.enable_sampling(PERIOD);
            c.arm_watchdog(WINDOW);
            drive_health_traffic(&mut c, n);
            let (text, health_json) = (c.health_report(), c.health_report_json());
            let log = c.flight_jsonl();
            let metrics_json = c.metrics_snapshot().to_json();
            (capture(&c.fabric, text, health_json, metrics_json), log)
        }
        BackendKind::MpiStaged | BackendKind::MpiGpuDirect => {
            let mode = if backend == BackendKind::MpiStaged {
                MpiGpuMode::Staged
            } else {
                MpiGpuMode::GpuDirect
            };
            let mut m = MpiBackend::new(n, mode);
            m.fabric.set_span_tracing(true);
            if flight {
                m.enable_flight(FLIGHT_RING_CAPACITY, true);
            }
            m.enable_sampling(PERIOD);
            m.arm_watchdog(WINDOW);
            drive_health_traffic(&mut m, n);
            let (text, health_json) = (m.health_report(), m.health_report_json());
            let log = m.flight_jsonl();
            let metrics_json = m.metrics_snapshot().to_json();
            (capture(&m.fabric, text, health_json, metrics_json), log)
        }
    }
}

impl TopReport {
    /// Writes the four JSON artifacts into `dir` as
    /// `<scenario>-<backend>.{health,series,trace,metrics}.json`, creating
    /// `dir` if needed. Returns the paths written.
    pub fn write_to(&self, dir: &Path, scenario: &str, backend: &str) -> Vec<PathBuf> {
        ensure_out_dir(dir);
        let stem = format!("{scenario}-{backend}");
        let files = [
            ("health", &self.health_json),
            ("series", &self.series_json),
            ("trace", &self.trace_json),
            ("metrics", &self.metrics_json),
        ];
        files
            .iter()
            .map(|(kind, body)| {
                let path = dir.join(format!("{stem}.{kind}.json"));
                std::fs::write(&path, body).expect("write telemetry artifact");
                path
            })
            .collect()
    }
}

/// Runs the canonical payload+flag neighbour put of the benchmarks under
/// span tracing and feeds the recorded commit log to the `tca-verify`
/// RDMA-hazard detector. The benchmark workloads all use this idiom, so a
/// non-clean report means the harness itself would publish racy numbers;
/// `bench_regression` gates on it alongside the perf bounds.
pub fn hazard_check() -> tca_verify::Report {
    use tca_core::prelude::*;
    let mut c = TcaClusterBuilder::new(4).build();
    c.set_span_tracing(true);
    let len = 64 * 1024u64;
    c.write(&MemRef::host(0, 0x4000_0000), &vec![0x5au8; len as usize]);
    c.write(&MemRef::host(0, 0x4800_0000), &1u64.to_le_bytes());
    c.memcpy_peer(
        &MemRef::host(1, 0x5000_0000),
        &MemRef::host(0, 0x4000_0000),
        len,
    );
    c.memcpy_peer(
        &MemRef::host(1, 0x5800_0000),
        &MemRef::host(0, 0x4800_0000),
        8,
    );
    c.detect_hazards(&[AddrRange::new(0x5800_0000, 8)])
}

/// Creates `dir` (and any missing parents) or panics with a message that
/// names the offending path — the single output-directory helper every
/// artifact writer in this crate goes through.
pub fn ensure_out_dir(dir: &Path) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("cannot create output directory {}: {e}", dir.display()));
}

/// Formats a byte size compactly (64B, 4KB, 1MB).
pub fn fmt_size(s: u64) -> String {
    if s >= 1 << 20 {
        format!("{}MB", s >> 20)
    } else if s >= 1 << 10 {
        format!("{}KB", s >> 10)
    } else {
        format!("{s}B")
    }
}

// ---------------------------------------------------------------------------
// Causal span attribution: per-stage latency tables (`latency-attrib`).
// ---------------------------------------------------------------------------

/// One row of the per-stage latency-attribution table: one transfer kind at
/// one ring distance, with the stage breakdown of its causal root span.
#[derive(Clone, Debug)]
pub struct AttribRow {
    /// Transfer kind: `"pio"` or `"dma"`.
    pub kind: &'static str,
    /// End-to-end latency of the root span, ns.
    pub total_ns: f64,
    /// `(stage, ns)` attribution in first-occurrence order. The stage values
    /// sum to `total_ns` *exactly* — the underlying partition is computed in
    /// integer picoseconds and asserted against the root span's elapsed time.
    pub stages: Vec<(String, f64)>,
}

/// Pulls the most recent *completed* root span named `kind` out of the
/// fabric's span store and returns its end-to-end latency plus per-stage
/// attribution, asserting the tentpole guarantee that the stages are an
/// exact partition of the measured interval.
fn root_attribution(f: &Fabric, kind: &'static str) -> AttribRow {
    let spans = f.spans();
    let root = spans
        .roots()
        .into_iter()
        .rfind(|(_, n, _, end)| *n == kind && end.is_some())
        .map(|(id, ..)| id)
        .unwrap_or_else(|| panic!("no completed '{kind}' root span recorded"));
    let elapsed = spans.root_elapsed(root).expect("completed root");
    let attr = spans.attribution(root);
    let sum = attr.iter().fold(Dur::ZERO, |a, (_, d)| a + *d);
    assert_eq!(
        sum, elapsed,
        "'{kind}' stage sums must equal the end-to-end latency exactly"
    );
    AttribRow {
        kind,
        total_ns: elapsed.as_ns_f64(),
        stages: attr.into_iter().map(|(s, d)| (s, d.as_ns_f64())).collect(),
    }
}

/// Per-stage latency attribution of a 4 B PIO store and then a 4 KiB
/// pipelined DMA put, `hops` ring distances away on one 16-node ring,
/// extracted from the causal span tree each transfer records: host issue,
/// descriptor fetch/decode, DMA reads and writes, per-hop wire and
/// credit-stall time, PEACH2 relay transits, and the completion path.
/// Returns the `[pio, dma]` rows.
pub fn latency_attribution(hops: u32) -> [AttribRow; 2] {
    assert!((1..=8).contains(&hops), "16-node ring: 1..=8 hops");
    let mut r = rig(16);
    r.fabric.set_span_tracing(true);
    // --- PIO: 4 B store, root span ends at the remote DRAM commit.
    let dst = r.sc.map.global_addr(hops, TcaBlock::Host, 0x6000);
    let host0 = r.sc.nodes[0].host;
    r.fabric.drive::<HostBridge, _>(host0, |h, ctx| {
        h.core_mut().cpu_store(dst, &1u32.to_le_bytes(), ctx);
    });
    r.fabric.run_until_idle();
    let pio = root_attribution(&r.fabric, "pio");
    // --- DMA: 4 KiB pipelined put, root span opens at the doorbell and
    // closes at the completion-interrupt handler (or the last causal
    // remote commit, whichever is later).
    let dma_dst = r.sc.map.global_addr(hops, TcaBlock::Host, 0x4000_0000);
    let buf = r.drivers[0].dma_buf;
    r.drivers[0].pipelined_remote_put(&mut r.fabric, buf, dma_dst, 4096);
    [pio, root_attribution(&r.fabric, "dma")]
}

// ---------------------------------------------------------------------------
// Fabric perf-regression harness (`BENCH_fabric.json`).
// ---------------------------------------------------------------------------

/// Modeled software turnaround of the §IV-B1 PIO ping-pong: everything the
/// 2013-era host does between the ball landing in its poll buffer and the
/// reply leaving — poll-exit, payload read, and the reply PIO store sequence.
/// Calibrated once so the seed build reproduces the paper's 2.3 µs published
/// figure; the hardware legs, which the simulator measures, carry all of the
/// regression signal.
pub const PIO_PINGPONG_SW_TURNAROUND: Dur = Dur::from_ns(3036);

/// DMA flavour of [`PIO_PINGPONG_SW_TURNAROUND`]: smaller, because the reply
/// descriptor is pre-posted and the turnaround is a single doorbell store.
/// Calibrated to the paper's 2.0 µs chained-DMA ping-pong figure.
pub const DMA_PINGPONG_SW_TURNAROUND: Dur = Dur::from_ns(1150);

/// The §IV-B1 ping-pong pair, measured as two simulated hardware legs (data
/// arrival at the receiver's poll buffer, watch-timestamped) composed with
/// the calibrated software turnaround: `half-RTT = (leg + turnaround + leg) / 2`.
#[derive(Clone, Copy, Debug)]
pub struct PingPong {
    /// PIO ping-pong half round trip, µs. Paper: 2.3 µs.
    pub pio_us: f64,
    /// Chained-DMA ping-pong half round trip, µs. Paper: 2.0 µs.
    pub dma_us: f64,
    /// Measured forward PIO hardware leg (store issue → remote commit), ns.
    pub pio_leg_ns: f64,
    /// Measured forward DMA hardware leg (doorbell → remote data commit), ns.
    pub dma_leg_ns: f64,
}

fn pio_leg(r: &mut Rig, src: u32, dst: u32, poll: u64) -> Dur {
    let watch = r
        .fabric
        .device_mut::<HostBridge>(r.sc.nodes[dst as usize].host)
        .core_mut()
        .add_watch(AddrRange::new(poll, 8));
    let gdst = r.sc.map.global_addr(dst, TcaBlock::Host, poll);
    let t0 = r.fabric.now();
    let host = r.sc.nodes[src as usize].host;
    r.fabric.drive::<HostBridge, _>(host, |h, ctx| {
        h.core_mut().cpu_store(gdst, &1u64.to_le_bytes(), ctx);
    });
    r.fabric.run_until_idle();
    r.fabric
        .device::<HostBridge>(r.sc.nodes[dst as usize].host)
        .core()
        .watch_hits(watch)[0]
        .since(t0)
}

fn dma_leg(r: &mut Rig, src: u32, dst: u32, addr: u64) -> Dur {
    let watch = r
        .fabric
        .device_mut::<HostBridge>(r.sc.nodes[dst as usize].host)
        .core_mut()
        .add_watch(AddrRange::new(addr, 8));
    let gdst = r.sc.map.global_addr(dst, TcaBlock::Host, addr);
    // Ping-pong methodology: the 8 B ball sits staged in board SRAM and its
    // descriptor is pre-posted, so the hardware leg is doorbell → remote
    // data commit (watch-timestamped at the receiver).
    let d = &r.drivers[src as usize];
    let descs = [Descriptor::new(d.sram_addr(0), gdst, 8)];
    d.write_descriptors(&mut r.fabric, &descs);
    d.program_dma(&mut r.fabric, 1, EngineKind::Legacy);
    let t0 = d.ring_doorbell(&mut r.fabric);
    r.fabric.run_until_idle();
    r.fabric
        .device::<HostBridge>(r.sc.nodes[dst as usize].host)
        .core()
        .watch_hits(watch)[0]
        .since(t0)
}

/// Measures the ping-pong pair on a 2-node ring. Both directions of each
/// leg are measured (they are symmetric by construction, but a routing
/// regression would break the symmetry and show up here).
pub fn pingpong() -> PingPong {
    pingpong_with_telemetry(false).0
}

/// [`pingpong`] with optional continuous-health instrumentation on the
/// shared rig: gauge sampling plus span tracing, summarized by
/// [`telemetry_summary`]. Sampling is time-neutral, so the measured
/// numbers are byte-identical to the uninstrumented run — the regression
/// gate relies on this.
pub fn pingpong_with_telemetry(instrument: bool) -> (PingPong, Option<JsonValue>) {
    let mut r = rig(2);
    if instrument {
        r.fabric.enable_sampling(Dur::from_ns(100));
        r.fabric.set_span_tracing(true);
    }
    let pio_fwd = pio_leg(&mut r, 0, 1, 0x6100);
    let pio_back = pio_leg(&mut r, 1, 0, 0x6200);
    let dma_fwd = dma_leg(&mut r, 0, 1, 0x4100_0000);
    let dma_back = dma_leg(&mut r, 1, 0, 0x4200_0000);
    let pp = PingPong {
        pio_us: ((pio_fwd + PIO_PINGPONG_SW_TURNAROUND + pio_back) / 2).as_us_f64(),
        dma_us: ((dma_fwd + DMA_PINGPONG_SW_TURNAROUND + dma_back) / 2).as_us_f64(),
        pio_leg_ns: pio_fwd.as_ns_f64(),
        dma_leg_ns: dma_fwd.as_ns_f64(),
    };
    let telemetry = instrument.then(|| telemetry_summary(&mut r.fabric));
    (pp, telemetry)
}

/// The schema-stable fabric regression report behind `BENCH_fabric.json`:
/// ping-pong latency, per-hop latency delta, and the Fig. 7/8/9 bandwidth
/// anchors, all measured in a fresh deterministic simulation.
#[derive(Clone, Debug)]
pub struct FabricBench {
    /// The §IV-B1 ping-pong pair.
    pub pingpong: PingPong,
    /// PIO one-way latency at ring distance 1..=4 (8-node ring), ns.
    pub hop_pio_ns: Vec<f64>,
    /// Mean latency added per additional ring hop, ns.
    pub per_hop_delta_ns: f64,
    /// Largest relative deviation of any single hop increment from the
    /// mean — 0 when latency grows perfectly linearly with distance.
    pub per_hop_linearity_err: f64,
    /// Fig. 7 anchor: 4 KiB × 255-chained DMA write to CPU memory, bytes/s.
    pub fig7_cpu_write_4k: f64,
    /// Fig. 8 anchor: 4 KiB single DMA write to CPU memory, bytes/s.
    pub fig8_cpu_write_4k: f64,
    /// Fig. 9 anchor: 4-deep over 255-deep chain bandwidth ratio at 4 KiB.
    pub fig9_ratio_4_vs_255: f64,
}

/// Runs the full fabric regression suite: ping-pong, hop sweep, and the
/// Fig. 7/8/9 bandwidth kernels.
pub fn fabric_regression() -> FabricBench {
    let pp = pingpong();
    let hops = ring_hops();
    let hop_pio_ns: Vec<f64> = hops.iter().map(|h| h.pio_ns).collect();
    let deltas: Vec<f64> = hop_pio_ns.windows(2).map(|w| w[1] - w[0]).collect();
    let per_hop_delta_ns = deltas.iter().sum::<f64>() / deltas.len() as f64;
    let per_hop_linearity_err = deltas
        .iter()
        .map(|d| (d - per_hop_delta_ns).abs() / per_hop_delta_ns)
        .fold(0.0f64, f64::max);
    let fig7_cpu_write_4k = fig7(&[4096])[0].cpu_write;
    let fig8_cpu_write_4k = fig8(&[4096])[0].cpu_write;
    let f9 = fig9(&[4, 255]);
    FabricBench {
        pingpong: pp,
        hop_pio_ns,
        per_hop_delta_ns,
        per_hop_linearity_err,
        fig7_cpu_write_4k,
        fig8_cpu_write_4k,
        fig9_ratio_4_vs_255: f9[0].cpu_write / f9[1].cpu_write,
    }
}

impl FabricBench {
    /// Serializes the report as schema-stable JSON (`tca-bench-fabric/v1`):
    /// fixed key order, deterministic number formatting — two identical runs
    /// produce byte-identical text.
    pub fn to_json(&self) -> String {
        let mut pp = JsonValue::object();
        pp.push("pio_us", JsonValue::from(self.pingpong.pio_us));
        pp.push("dma_us", JsonValue::from(self.pingpong.dma_us));
        pp.push("pio_leg_ns", JsonValue::from(self.pingpong.pio_leg_ns));
        pp.push("dma_leg_ns", JsonValue::from(self.pingpong.dma_leg_ns));
        pp.push(
            "pio_sw_turnaround_ns",
            JsonValue::from(PIO_PINGPONG_SW_TURNAROUND.as_ns_f64()),
        );
        pp.push(
            "dma_sw_turnaround_ns",
            JsonValue::from(DMA_PINGPONG_SW_TURNAROUND.as_ns_f64()),
        );
        let mut hops = JsonValue::object();
        hops.push(
            "pio_oneway_ns",
            JsonValue::Array(
                self.hop_pio_ns
                    .iter()
                    .map(|&v| JsonValue::from(v))
                    .collect(),
            ),
        );
        hops.push("per_hop_delta_ns", JsonValue::from(self.per_hop_delta_ns));
        hops.push("linearity_err", JsonValue::from(self.per_hop_linearity_err));
        let mut bw = JsonValue::object();
        bw.push(
            "fig7_cpu_write_4k_bps",
            JsonValue::from(self.fig7_cpu_write_4k),
        );
        bw.push(
            "fig8_cpu_write_4k_bps",
            JsonValue::from(self.fig8_cpu_write_4k),
        );
        bw.push(
            "fig9_ratio_4_vs_255",
            JsonValue::from(self.fig9_ratio_4_vs_255),
        );
        let mut root = JsonValue::object();
        root.push("schema", JsonValue::from("tca-bench-fabric/v1"));
        root.push("pingpong", pp);
        root.push("hops", hops);
        root.push("bandwidth", bw);
        root.to_json()
    }

    /// Validates every metric against its paper-anchored bound and returns
    /// the list of violations (empty = healthy). Bounds: ping-pong PIO
    /// 2.3 µs ± 10 %, DMA 2.0 µs ± 10 %; per-hop growth linear; Fig. 7
    /// 4 KiB CPU write in the paper's 3.1–3.6 GB/s regime; Fig. 8 clearly
    /// below Fig. 7 (chaining matters); Fig. 9 ratio 0.6–0.8.
    pub fn validate(&self) -> Vec<String> {
        fn check(v: &mut Vec<String>, name: &str, val: f64, lo: f64, hi: f64) {
            if !(lo..=hi).contains(&val) {
                v.push(format!("{name} = {val:.4} outside [{lo}, {hi}]"));
            }
        }
        let mut v = Vec::new();
        check(&mut v, "pingpong.pio_us", self.pingpong.pio_us, 2.07, 2.53);
        check(&mut v, "pingpong.dma_us", self.pingpong.dma_us, 1.80, 2.20);
        check(
            &mut v,
            "hops.linearity_err",
            self.per_hop_linearity_err,
            0.0,
            0.05,
        );
        check(
            &mut v,
            "bandwidth.fig7_cpu_write_4k (GB/s)",
            self.fig7_cpu_write_4k / 1e9,
            3.1,
            3.6,
        );
        check(
            &mut v,
            "bandwidth.fig9_ratio_4_vs_255",
            self.fig9_ratio_4_vs_255,
            0.6,
            0.8,
        );
        if self.fig8_cpu_write_4k >= 0.5 * self.fig7_cpu_write_4k {
            v.push(format!(
                "bandwidth.fig8_cpu_write_4k = {:.4e} not well below fig7 = {:.4e}",
                self.fig8_cpu_write_4k, self.fig7_cpu_write_4k
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The indented rows of one section of the `--top` text report
    /// (everything under the line starting with `header`).
    fn report_section<'a>(text: &'a str, header: &str) -> Vec<&'a str> {
        text.lines()
            .skip_while(|l| !l.starts_with(header))
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .collect()
    }

    /// `tca-bench --top` and `--top --json` must agree field for field:
    /// both renderings come from one `HealthData` collection, the text
    /// elides zero-traffic links and so does the JSON, so every JSON link
    /// key has exactly one text row carrying the same numbers (and vice
    /// versa — the row counts are compared both ways).
    #[test]
    fn top_text_and_json_agree_field_for_field() {
        let (rep, _) = top_report("ring-hops", scenario::BackendKind::Tca, false);
        let json = tca_sim::JsonValue::parse(&rep.health_json).expect("health json parses");
        let text = &rep.text;
        let get_u64 = |v: &tca_sim::JsonValue, key: &str| {
            v.get(key)
                .and_then(tca_sim::JsonValue::as_f64)
                .map(|f| f as u64)
        };
        let fmt_pct = |pm: u64| format!("{}.{}%", pm / 10, pm % 10);
        let fmt_opt = |v: Option<u64>, f: &dyn Fn(u64) -> String| v.map_or("-".to_string(), f);

        let nodes = get_u64(&json, "nodes").expect("nodes");
        let events = get_u64(&json, "events").expect("events");
        assert!(
            text.contains(&format!("fabric health: {nodes} nodes")),
            "{text}"
        );
        assert!(text.contains(&format!("{events} events")), "{text}");

        let links = json
            .get("links")
            .and_then(|v| v.as_object())
            .expect("links");
        let link_rows = report_section(text, "links:");
        assert!(!links.is_empty(), "instrumented run lit links");
        assert_eq!(
            link_rows.len(),
            links.len(),
            "one text row per JSON link:\n{text}"
        );
        for (label, v) in links {
            let cols: Vec<&str> = link_rows
                .iter()
                .map(|r| r.split_whitespace().collect::<Vec<_>>())
                .find(|c| c.first() == Some(&label.as_str()))
                .unwrap_or_else(|| panic!("link {label} missing from text:\n{text}"));
            assert_eq!(cols[1], get_u64(v, "tlps").expect("tlps").to_string());
            assert_eq!(
                cols[2],
                fmt_pct(get_u64(v, "wire_busy_permille").expect("wire"))
            );
            assert_eq!(
                cols[3],
                fmt_pct(get_u64(v, "stall_permille").expect("stall"))
            );
            assert_eq!(cols[4], get_u64(v, "queue_peak").expect("peak").to_string());
            assert_eq!(
                cols[5],
                fmt_opt(get_u64(v, "queue_mean"), &|m| m.to_string())
            );
            assert_eq!(
                cols[6],
                fmt_opt(get_u64(v, "queue_busy_permille"), &fmt_pct)
            );
            assert_eq!(
                cols[7],
                fmt_opt(get_u64(v, "credits_busy_permille"), &fmt_pct)
            );
            let src = v.get("src").and_then(|s| s.as_str()).expect("src");
            let dst = v.get("dst").and_then(|s| s.as_str()).expect("dst");
            assert_eq!(cols[8..], [src, "->", dst], "route for {label}");
        }

        let engines = json
            .get("engines")
            .and_then(|v| v.as_object())
            .expect("engines");
        let engine_rows = report_section(text, "engines:");
        assert_eq!(
            engine_rows.len(),
            engines.len(),
            "one text row per engine:\n{text}"
        );
        for (name, v) in engines {
            let cols: Vec<&str> = engine_rows
                .iter()
                .map(|r| r.split_whitespace().collect::<Vec<_>>())
                .find(|c| c.first() == Some(&name.as_str()))
                .unwrap_or_else(|| panic!("engine {name} missing from text:\n{text}"));
            assert_eq!(cols[1], get_u64(v, "current").expect("current").to_string());
            assert_eq!(cols[2], get_u64(v, "peak").expect("peak").to_string());
            assert_eq!(cols[3], fmt_opt(get_u64(v, "mean"), &|m| m.to_string()));
            assert_eq!(cols[4], fmt_opt(get_u64(v, "busy_permille"), &fmt_pct));
        }

        let latency = json
            .get("latency")
            .and_then(|v| v.as_object())
            .expect("latency");
        let latency_rows = report_section(text, "latency:");
        assert!(!latency.is_empty(), "root spans recorded");
        assert_eq!(
            latency_rows.len(),
            latency.len(),
            "one text row per span kind"
        );
        for (name, v) in latency {
            let cols: Vec<&str> = latency_rows
                .iter()
                .map(|r| r.split_whitespace().collect::<Vec<_>>())
                .find(|c| c.first() == Some(&name.as_str()))
                .unwrap_or_else(|| panic!("span {name} missing from text:\n{text}"));
            for (i, key) in ["count", "p50_ns", "p99_ns", "p999_ns", "max_ns"]
                .iter()
                .enumerate()
            {
                assert_eq!(
                    cols[i + 1],
                    get_u64(v, key).expect(key).to_string(),
                    "{name}.{key}"
                );
            }
        }
    }

    #[test]
    fn fig7_anchor_points() {
        let rows = fig7(&[4096]);
        let r = rows[0];
        assert!((3.1e9..3.6e9).contains(&r.cpu_write), "{r:?}");
        assert!(r.gpu_write > 0.9 * r.cpu_write, "GPU write ≈ CPU write");
        assert!((0.6e9..0.87e9).contains(&r.gpu_read), "830 MB/s ceiling");
        assert!(r.cpu_read < r.cpu_write);
    }

    #[test]
    fn fig8_is_much_slower_at_4k() {
        let f7 = fig7(&[4096])[0];
        let f8 = fig8(&[4096])[0];
        assert!(f8.cpu_write < 0.5 * f7.cpu_write);
    }

    #[test]
    fn fig9_seventy_percent_at_four() {
        let rows = fig9(&[4, 255]);
        let ratio = rows[0].cpu_write / rows[1].cpu_write;
        assert!((0.6..0.8).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn fig12_remote_write_converges_at_4k() {
        let rows = fig12(&[256, 4096]);
        let small = rows[0];
        let big = rows[1];
        assert!(
            small.cpu_remote_write < 0.85 * small.cpu_local_write,
            "remote slower at small sizes: {small:?}"
        );
        assert!(
            big.cpu_remote_write > 0.75 * big.cpu_local_write,
            "converging at 4 KiB: {big:?}"
        );
        assert!(big.gpu_remote_write > 0.9 * big.cpu_local_write);
    }

    #[test]
    fn latency_report_matches_paper_regime() {
        let l = latency_report();
        assert!((580.0..980.0).contains(&l.pio_oneway_ns), "{l:?}");
        assert!(l.ib_fdr_oneway_ns < 1600.0, "{l:?}");
        assert!(l.pio_oneway_ns < l.ib_fdr_oneway_ns, "{l:?}");
        assert!(l.mpi_halfrtt_ns > l.ib_qdr_oneway_ns, "{l:?}");
    }

    #[test]
    fn qpi_ablation_degrades() {
        let q = qpi_report();
        assert!(q.across_qpi < 0.4e9, "{q:?}");
        assert!(q.same_socket > 5.0 * q.across_qpi, "{q:?}");
    }

    #[test]
    fn dmac_ablation_pipelined_wins() {
        let rows = dmac_ablation(&[65536]);
        assert!(
            rows[0].pipelined > 1.5 * rows[0].legacy_two_phase,
            "{rows:?}"
        );
    }

    #[test]
    fn comparison_tca_wins_small_messages() {
        let rows = comparison(&[64]);
        let r = rows[0];
        assert!(r.tca_dma_us < r.mpi_staged_us, "{r:?}");
        assert!(r.tca_pio_us < r.ib_gpudirect_us, "{r:?}");
    }

    #[test]
    fn scaling_diameter_grows_but_shift_bandwidth_scales() {
        let rows = scaling_sweep();
        for w in rows.windows(2) {
            assert!(
                w[1].diameter_pio_ns > w[0].diameter_pio_ns,
                "diameter latency grows: {rows:?}"
            );
        }
        let first = rows.first().expect("rows");
        let last = rows.last().expect("rows");
        // Aggregate scales near-linearly (disjoint cables)...
        assert!(
            last.shift_aggregate > 5.0 * first.shift_aggregate,
            "{rows:?}"
        );
        // ...while per-node bandwidth stays roughly flat.
        assert!(last.shift_per_node > 0.8 * first.shift_per_node, "{rows:?}");
    }

    #[test]
    fn contention_shares_the_cable() {
        let r = contention_report();
        // Each shared flow is slower than solo; the aggregate is within
        // the single-cable envelope (some slack: flows also use disjoint
        // first-hop links).
        assert!(r.shared_per_flow < 0.8 * r.solo, "{r:?}");
        assert!(r.shared_aggregate < 1.35 * r.solo, "{r:?}");
        assert!(r.shared_aggregate > 0.8 * r.solo, "{r:?}");
    }

    #[test]
    fn reliability_degrades_gracefully() {
        let rows = reliability_ablation(&[0, 100_000]);
        assert_eq!(rows[0].replays, 0);
        assert!(rows[1].replays > 100, "{rows:?}");
        assert!(
            rows[1].remote_write < rows[0].remote_write,
            "lossy slower: {rows:?}"
        );
        assert!(
            rows[1].remote_write > 0.5 * rows[0].remote_write,
            "but not collapsed: {rows:?}"
        );
    }

    #[test]
    fn telemetry_artifacts_parse_back() {
        let (rep, log) = top_report("pingpong", scenario::BackendKind::Tca, false);
        assert!(log.is_none(), "no flight log unless asked");

        // The Chrome trace is an array of events, each with ph/ts/name.
        let trace = tca_sim::JsonValue::parse(&rep.trace_json).expect("trace parses");
        let events = trace.as_array().expect("array of events");
        assert!(!events.is_empty(), "trace has events");
        for ev in events {
            assert!(ev.get("ph").and_then(|v| v.as_str()).is_some(), "{ev:?}");
            assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some(), "{ev:?}");
            assert!(ev.get("name").and_then(|v| v.as_str()).is_some(), "{ev:?}");
        }

        // The metrics snapshot is an object carrying the run's counters.
        let metrics = tca_sim::JsonValue::parse(&rep.metrics_json).expect("metrics parse");
        let entries = metrics.as_object().expect("metrics object");
        assert!(
            entries.iter().any(|(k, _)| k == "link.0.fwd.tlps"),
            "link counters present"
        );
        assert!(
            entries.iter().any(|(k, _)| k.ends_with(".dma.runs")),
            "DMA counters present"
        );
        assert!(
            entries.iter().any(|(k, _)| k.contains(".port.")),
            "NIOS port counters present"
        );
    }

    #[test]
    fn ring_hops_monotonic() {
        let rows = ring_hops();
        for w in rows.windows(2) {
            assert!(w[1].pio_ns > w[0].pio_ns, "{rows:?}");
        }
    }

    #[test]
    fn latency_attribution_is_an_exact_partition() {
        // latency_attribution() itself asserts sum(stages) == total per row
        // in integer picoseconds; here we additionally check the rows'
        // shape and that the expected pipeline stages show up.
        let one = latency_attribution(1);
        let two = latency_attribution(2);
        fn stage_names(r: &AttribRow) -> Vec<&str> {
            r.stages.iter().map(|(s, _)| s.as_str()).collect()
        }
        for r in one.iter().chain(&two) {
            assert!(r.total_ns > 0.0, "{r:?}");
            let sum: f64 = r.stages.iter().map(|(_, ns)| ns).sum();
            assert!((sum - r.total_ns).abs() < 1e-9, "{r:?}");
        }
        let [pio, dma] = &one;
        assert_eq!((pio.kind, dma.kind), ("pio", "dma"));
        assert!(stage_names(pio).contains(&"wire"), "{pio:?}");
        for stage in ["engine_start", "desc_fetch", "wire"] {
            assert!(stage_names(dma).contains(&stage), "{dma:?}");
        }
        // Two hops spend more time on the wire/relay path than one.
        let wire_ns = |r: &AttribRow| {
            r.stages
                .iter()
                .filter(|(s, _)| s == "wire" || s == "relay")
                .map(|(_, ns)| ns)
                .sum::<f64>()
        };
        assert!(wire_ns(&two[0]) > wire_ns(pio), "{one:?} {two:?}");
    }

    #[test]
    fn benchmark_traffic_is_hazard_free() {
        let rep = hazard_check();
        assert!(rep.is_clean(), "{}", rep.render());
    }

    #[test]
    fn pingpong_matches_paper_within_tolerance() {
        let pp = pingpong();
        // §IV-B1: PIO 2.3 µs, chained DMA 2.0 µs, each ±10 %.
        assert!((2.07..=2.53).contains(&pp.pio_us), "{pp:?}");
        assert!((1.80..=2.20).contains(&pp.dma_us), "{pp:?}");
        // The hardware legs alone sit well below the software-inclusive
        // figure — the fabric is the minority of the ping-pong budget.
        assert!(pp.pio_leg_ns < 1000.0, "{pp:?}");
        assert!(pp.dma_leg_ns < 2000.0, "{pp:?}");
    }

    #[test]
    fn fabric_regression_in_bounds_and_schema_stable() {
        let a = fabric_regression();
        assert!(a.validate().is_empty(), "violations: {:?}", a.validate());
        let ja = a.to_json();
        let jb = fabric_regression().to_json();
        assert_eq!(ja, jb, "byte-identical across runs");
        let parsed = tca_sim::JsonValue::parse(&ja).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("tca-bench-fabric/v1")
        );
        for key in ["pingpong", "hops", "bandwidth"] {
            assert!(parsed.get(key).is_some(), "{key} section present");
        }
    }
}
