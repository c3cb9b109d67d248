//! # tca-bench — regeneration harness for every table and figure of the
//! paper's evaluation (§II Table I, §IV Figs. 7/8/9/12 and the latency
//! measurement), plus the ablations DESIGN.md calls out.
//!
//! Each `*_row` function rebuilds the paper's exact measurement rig for
//! one sweep point inside a fresh simulation and returns that point's JSON
//! row. The [`scenario`] registry behind `tca-bench` is the only caller
//! that turns them into sweeps — printed as aligned tables or
//! `tca-bench-sweep/v1` JSON and timed by `--profile` — and
//! `EXPERIMENTS.md` records paper-vs-measured values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Builds the chosen backend world with `nodes` nodes and runs `body` on
/// it, monomorphized per backend (app entry points take
/// `&mut impl CommWorld`, which requires a sized concrete type).
macro_rules! on_backend {
    ($kind:expr, $nodes:expr, |$c:ident| $body:expr) => {
        match $kind {
            BackendKind::Tca => {
                let mut $c = TcaClusterBuilder::new($nodes).build();
                $body
            }
            BackendKind::MpiStaged => {
                let mut $c = MpiBackend::new($nodes, MpiGpuMode::Staged);
                $body
            }
            BackendKind::MpiGpuDirect => {
                let mut $c = MpiBackend::new($nodes, MpiGpuMode::GpuDirect);
                $body
            }
        }
    };
}

pub mod prof;
pub mod refqueue;
pub mod scenario;
pub mod topo_fabric;
pub mod verify;
pub mod whatif;

pub use prof::{queue_race, QueueRace};

use std::io;
use std::path::{Path, PathBuf};
use tca_core::{MpiBackend, MpiGpuMode, TcaCluster, TcaClusterBuilder};
use tca_device::map::TcaBlock;
use tca_device::node::{build_dual_socket_node, NodeConfig};
use tca_device::{Gpu, HostBridge, QpiParams};
use tca_net::{IbParams, Protocol};
use tca_pcie::{AddrRange, Fabric, Instrument};
use tca_peach2::{build_loopback, Descriptor, EngineKind, Peach2, Peach2Params};
use tca_sim::{Dur, HdrHistogram, JsonValue};

/// Default data-size sweep of Figs. 7/8/12 (64 B – 1 MiB, doubling).
pub fn default_sizes() -> Vec<u64> {
    (6..=20).map(|p| 1u64 << p).collect()
}

/// Default request-count sweep of Fig. 9.
pub fn default_counts() -> Vec<u64> {
    vec![1, 2, 4, 8, 16, 32, 64, 128, 255]
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
pub fn dma_bandwidth(
    c: &mut TcaCluster,
    target: Target,
    dir: Direction,
    count: u64,
    size: u64,
) -> f64 {
    let d = &c.drivers[0];
    // Resolve the non-SRAM endpoint address (all descriptors reuse the
    // same buffers: this is a bandwidth rig, not a dataset).
    let other = match target {
        Target::LocalCpu => d.dma_buf,
        Target::RemoteCpu => c.sub.map.global_addr(1, TcaBlock::Host, 0x4000_0000),
        Target::LocalGpu | Target::RemoteGpu => {
            let node = if target == Target::LocalGpu { 0 } else { 1 };
            let gpu = c.fabric.device_mut::<Gpu>(c.sub.nodes[node].gpus[0]);
            let a = gpu.alloc(size);
            let t = gpu.p2p_token(a, size);
            let bar = gpu.pin(a, size, t);
            if target == Target::LocalGpu {
                bar
            } else {
                // Remote GPU: address it through the TCA window.
                c.sub.map.global_addr(1, TcaBlock::Gpu0, a)
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
        c.fabric
            .device_mut::<Peach2>(c.sub.chips[0])
            .sram_mut()
            .fill_pattern(0, size, 0x3c);
    }
    let descs: Vec<Descriptor> = (0..count)
        .map(|_| match dir {
            Direction::Write => Descriptor::new(sram, other, size),
            Direction::Read => Descriptor::new(other, sram, size),
        })
        .collect();
    let m = d.run_dma(&mut c.fabric, &descs, EngineKind::Legacy);
    m.bandwidth()
}

/// [`dma_bandwidth`] on a fresh 2-node rig, as a JSON number.
fn dma_point(target: Target, dir: Direction, count: u64, size: u64) -> JsonValue {
    let mut c = TcaClusterBuilder::new(2).build();
    jf(dma_bandwidth(&mut c, target, dir, count, size))
}

/// Builds a sweep row: a JSON object with `fields` in the given order.
pub(crate) fn row(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut o = JsonValue::object();
    for (k, v) in fields {
        o.push(k, v);
    }
    o
}

pub(crate) fn jf(v: f64) -> JsonValue {
    JsonValue::from(v)
}

/// One row of Fig. 7 (`count` = 255 chained DMAs) or Fig. 8 (`count` = 1):
/// bandwidth between PEACH2 and local CPU/GPU memory at `size` bytes per
/// descriptor, bytes/s.
pub fn local_dma_row(size: u64, count: u64) -> JsonValue {
    use Direction::{Read, Write};
    use Target::{LocalCpu, LocalGpu};
    row(vec![
        ("size", JsonValue::from(size)),
        ("cpu_write_bps", dma_point(LocalCpu, Write, count, size)),
        ("cpu_read_bps", dma_point(LocalCpu, Read, count, size)),
        ("gpu_write_bps", dma_point(LocalGpu, Write, count, size)),
        ("gpu_read_bps", dma_point(LocalGpu, Read, count, size)),
    ])
}

/// One row of Fig. 9: `count` chained requests at a fixed 4 KiB, bytes/s.
pub fn fig9_row(count: u64) -> JsonValue {
    use Direction::{Read, Write};
    use Target::{LocalCpu, LocalGpu};
    row(vec![
        ("requests", JsonValue::from(count)),
        ("cpu_write_bps", dma_point(LocalCpu, Write, count, 4096)),
        ("gpu_write_bps", dma_point(LocalGpu, Write, count, 4096)),
        ("cpu_read_bps", dma_point(LocalCpu, Read, count, 4096)),
    ])
}

/// One row of Fig. 12: 255 chained DMA writes of `size` bytes to the
/// adjacent node's CPU and GPU memory over the cable, beside the local
/// CPU curves of Fig. 7, bytes/s.
pub fn fig12_row(size: u64) -> JsonValue {
    use Direction::{Read, Write};
    use Target::{LocalCpu, RemoteCpu, RemoteGpu};
    row(vec![
        ("size", JsonValue::from(size)),
        ("cpu_local_write_bps", dma_point(LocalCpu, Write, 255, size)),
        ("cpu_local_read_bps", dma_point(LocalCpu, Read, 255, size)),
        (
            "cpu_remote_write_bps",
            dma_point(RemoteCpu, Write, 255, size),
        ),
        (
            "gpu_remote_write_bps",
            dma_point(RemoteGpu, Write, 255, size),
        ),
    ])
}

/// The §IV-B1 latency row: the Fig. 10 loopback PIO one-way latency
/// through two boards and one cable (paper: 782 ns), InfiniBand FDR and
/// QDR RDMA-write one-way latency host to host (the paper cites "< 1 µs"
/// for FDR), and the eager MPI half round trip over QDR, all in ns.
pub fn latency_row() -> JsonValue {
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
        let MpiBackend {
            fabric: mut f,
            world,
            ..
        } = MpiBackend::with_params(2, MpiGpuMode::Staged, NodeConfig::default(), params);
        f.device_mut::<HostBridge>(world.nodes[0].host)
            .core_mut()
            .mem()
            .write(0x4000_0000, &[1u8; 4]);
        let watch = f
            .device_mut::<HostBridge>(world.nodes[1].host)
            .core_mut()
            .add_watch(AddrRange::new(0x5000_0000, 4));
        let t0 = f.now();
        f.drive::<tca_net::IbHca, _>(world.net.hcas[0], |h, ctx| {
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
            .device::<HostBridge>(world.nodes[1].host)
            .core()
            .watch_hits(watch);
        hits[0].since(t0).as_ns_f64()
    };

    let mpi_halfrtt_ns = {
        let MpiBackend {
            fabric: mut f,
            mut world,
            ..
        } = MpiBackend::new(2, MpiGpuMode::Staged);
        f.device_mut::<HostBridge>(world.nodes[0].host)
            .core_mut()
            .mem()
            .write(0x4000_0000, &[1u8; 8]);
        let fwd = world.send(&mut f, 0, 1, 0x4000_0000, 0x5000_0000, 8, Protocol::Eager);
        let back = world.send(&mut f, 1, 0, 0x5000_0000, 0x4000_0100, 8, Protocol::Eager);
        ((fwd + back) / 2).as_ns_f64()
    };

    row(vec![
        ("pio_oneway_ns", jf(pio_oneway_ns)),
        ("ib_fdr_oneway_ns", jf(ib_oneway(IbParams::fdr()))),
        ("ib_qdr_oneway_ns", jf(ib_oneway(IbParams::default()))),
        ("mpi_halfrtt_ns", jf(mpi_halfrtt_ns)),
    ])
}

/// One row of the A2 DMAC ablation (§IV-B2): a `size`-byte node-to-node
/// put through the shipping two-phase legacy procedure and through the
/// pipelined "new DMAC", bytes/s.
pub fn dmac_row(size: u64) -> JsonValue {
    let mut c = TcaClusterBuilder::new(2).build();
    let dst = c.sub.map.global_addr(1, TcaBlock::Host, 0x4000_0000);
    let buf = c.drivers[0].dma_buf;
    c.fabric
        .device_mut::<HostBridge>(c.sub.nodes[0].host)
        .core_mut()
        .mem()
        .fill_pattern(buf, size, 0x11);
    let legacy = c.drivers[0]
        .legacy_remote_put(&mut c.fabric, buf, dst, size)
        .bandwidth();
    let piped = c.drivers[0]
        .pipelined_remote_put(&mut c.fabric, buf, dst, size)
        .bandwidth();
    row(vec![
        ("size", JsonValue::from(size)),
        ("legacy_two_phase_bps", jf(legacy)),
        ("pipelined_bps", jf(piped)),
    ])
}

/// The A1 QPI ablation row: CPU streaming-store bandwidth into a
/// same-socket GPU and into the other socket's GPU across QPI, bytes/s —
/// §IV-A2's "several hundred Mbytes/sec" degradation.
pub fn qpi_row() -> JsonValue {
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
    row(vec![
        ("same_socket_bps", jf(run(false))),
        ("across_qpi_bps", jf(run(true))),
    ])
}

/// One row of the A3 comparison (the §I motivation quantified): the time
/// to move `size` bytes GPU to GPU across nodes by TCA pipelined DMA, by
/// TCA PIO from the host (messages up to 8 KiB; 0 otherwise), by the
/// conventional cudaMemcpy + MPI/IB + cudaMemcpy path, and by GPUDirect
/// RDMA over IB, µs.
pub fn comparison_row(size: u64) -> JsonValue {
    // --- TCA side: 2-node ring, GPU0@n0 → GPU0@n1, pipelined DMAC.
    let (tca_dma_us, tca_pio_us) = {
        let mut c = TcaClusterBuilder::new(2).build();
        let src_bar = {
            let g = c.fabric.device_mut::<Gpu>(c.sub.nodes[0].gpus[0]);
            let a = g.alloc(size);
            g.gddr().fill_pattern(a, size, 1);
            let t = g.p2p_token(a, size);
            g.pin(a, size, t)
        };
        {
            let g = c.fabric.device_mut::<Gpu>(c.sub.nodes[1].gpus[0]);
            let a = g.alloc(size);
            let t = g.p2p_token(a, size);
            g.pin(a, size, t);
        }
        let dst = c.sub.map.global_addr(1, TcaBlock::Gpu0, 0);
        let dma = c.drivers[0]
            .pipelined_remote_put(&mut c.fabric, src_bar, dst, size)
            .window
            .as_us_f64();
        let pio = if size <= 8192 {
            let t0 = c.fabric.now();
            let data = vec![0u8; size as usize];
            let host = c.sub.nodes[0].host;
            c.fabric.drive::<HostBridge, _>(host, |h, ctx| {
                h.core_mut().cpu_store_wc(dst, &data, ctx);
            });
            let end = c.fabric.run_until_idle();
            end.since(t0).as_us_f64()
        } else {
            0.0
        };
        (dma, pio)
    };

    // --- Baseline side: 2 nodes + IB, staged and GPUDirect.
    let (mpi_staged_us, ib_gpudirect_us) = {
        let MpiBackend {
            fabric: mut f,
            world: mut w,
            ..
        } = MpiBackend::new(2, MpiGpuMode::Staged);
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

    row(vec![
        ("size", JsonValue::from(size)),
        ("tca_dma_us", jf(tca_dma_us)),
        ("tca_pio_us", jf(tca_pio_us)),
        ("mpi_staged_us", jf(mpi_staged_us)),
        ("ib_gpudirect_us", jf(ib_gpudirect_us)),
    ])
}

/// One row of the A4 hop sweep (§III-E routing): on a fresh 8-node ring,
/// the PIO one-way latency (ns) and the 4 KiB pipelined-DMA put window
/// (µs) to the node `hops` eastward neighbours away.
pub fn ring_hop_row(hops: u32) -> JsonValue {
    let mut c = TcaClusterBuilder::new(8).build();
    let dstn = hops; // eastward neighbours
    let poll = 0x4800_0000u64;
    let watch = c
        .fabric
        .device_mut::<HostBridge>(c.sub.nodes[dstn as usize].host)
        .core_mut()
        .add_watch(AddrRange::new(poll, 4));
    let dst = c.sub.map.global_addr(dstn, TcaBlock::Host, poll);
    let t0 = c.fabric.now();
    let host0 = c.sub.nodes[0].host;
    c.fabric.drive::<HostBridge, _>(host0, |h, ctx| {
        h.core_mut().cpu_store(dst, &1u32.to_le_bytes(), ctx);
    });
    c.fabric.run_until_idle();
    let pio_ns = c
        .fabric
        .device::<HostBridge>(c.sub.nodes[dstn as usize].host)
        .core()
        .watch_hits(watch)[0]
        .since(t0)
        .as_ns_f64();
    let dma_dst = c.sub.map.global_addr(dstn, TcaBlock::Host, 0x4000_0000);
    let buf = c.drivers[0].dma_buf;
    let dma_4k_us = c.drivers[0]
        .pipelined_remote_put(&mut c.fabric, buf, dma_dst, 4096)
        .window
        .as_us_f64();
    row(vec![
        ("hops", JsonValue::from(hops)),
        ("pio_ns", jf(pio_ns)),
        ("dma_4k_us", jf(dma_4k_us)),
    ])
}

/// One row of the A5 reliability ablation: remote 4 KiB × 255 chained
/// write bandwidth (bytes/s) and link-level replays with a cable that
/// corrupts `ppm` parts per million of TLPs. Data integrity is asserted —
/// PEARL is a *reliable* link (§III-A), so errors cost time, never bytes.
pub fn pearl_row(ppm: u32) -> JsonValue {
    let mut params = Peach2Params::default();
    params.cable_link = params.cable_link.with_error_rate_ppm(ppm);
    let mut c = TcaClusterBuilder::new(2).peach2_params(params).build();
    let d = c.drivers[0];
    c.fabric
        .device_mut::<Peach2>(c.sub.chips[0])
        .sram_mut()
        .fill_pattern(0, 4096, 0x42);
    let dst = c.sub.map.global_addr(1, TcaBlock::Host, 0x4000_0000);
    let descs: Vec<Descriptor> = (0..255)
        .map(|_| Descriptor::new(d.sram_addr(0), dst, 4096))
        .collect();
    let t0 = c.fabric.now();
    let m = d.run_dma(&mut c.fabric, &descs, EngineKind::Legacy);
    // A lossy cable stalls *behind* the engine's pacing, so measure to
    // full drain (run_dma leaves the fabric idle) rather than the
    // doorbell→interrupt window.
    let drained = c.fabric.now().since(t0);
    // Integrity: the destination holds the exact pattern.
    let host1 = c.fabric.device::<HostBridge>(c.sub.nodes[1].host).core();
    let mut chk = tca_pcie::PageMemory::new();
    chk.write(0, &host1.mem_ref().read(0x4000_0000, 4096));
    assert!(chk.verify_pattern(0, 4096, 0x42).is_ok(), "data corrupted");
    let replays: u64 = (0..c.fabric.link_count() as u32)
        .map(|l| {
            c.fabric
                .link_stats(tca_pcie::LinkId(l), tca_pcie::Dir::Fwd)
                .replays
                + c.fabric
                    .link_stats(tca_pcie::LinkId(l), tca_pcie::Dir::Rev)
                    .replays
        })
        .sum();
    row(vec![
        ("error_ppm", JsonValue::from(ppm)),
        ("remote_write_bps", jf(m.bytes as f64 / drained.as_s_f64())),
        ("replays", JsonValue::from(replays)),
    ])
}

/// The A6 contention row: two pipelined 1 MiB puts whose eastward paths
/// overlap on one ring cable (0→2 and 1→3) against one flow alone (0→2).
/// The wire model must serialize them and share bandwidth, with the
/// aggregate pinned near the single-cable rate. Solo, shared per-flow and
/// shared aggregate bandwidth, bytes/s.
pub fn contention_row() -> JsonValue {
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

    row(vec![
        ("solo_bps", jf(solo)),
        ("shared_per_flow_bps", jf(shared_per_flow)),
        ("shared_aggregate_bps", jf(shared_aggregate)),
    ])
}

/// One row of the A8 sub-cluster-size sweep on a fresh `n`-node ring: PIO
/// latency to the farthest node (ns), and the aggregate and per-node
/// bandwidth of a simultaneous neighbour shift where every node puts
/// 256 KiB to its eastward neighbour (bytes/s).
///
/// Why the sub-cluster is 8–16 nodes (§II-B: "a large number of nodes
/// degrades the performance"): diameter latency grows linearly with ring
/// size while the shift aggregate scales with node count (each cable
/// carries one flow) — so the *latency* bound, not bandwidth, caps the
/// useful sub-cluster size.
pub fn scaling_row(n: u32) -> JsonValue {
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
    row(vec![
        ("nodes", JsonValue::from(n)),
        ("diameter_pio_ns", jf(diameter_pio_ns)),
        ("shift_aggregate_bps", jf(agg)),
        ("shift_per_node_bps", jf(agg / n as f64)),
    ])
}

/// Compact telemetry summary of a fabric run — the `telemetry` field of
/// the `pingpong` and `put-latency` rows and the whole `health` row: peak
/// link queue depth, worst per-link credit-stall fraction, sampler capture
/// count, watchdog state, and span-latency percentiles from the HDR
/// histogram. All-integer fields, so the summary is byte-stable across
/// identical runs.
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

/// Everything one run of the `health` scenario produces: the rendered
/// congestion report, its `tca-health/v1` JSON, the full `tca-series/v1`
/// gauge time-series, the Chrome trace (spans + counter tracks), the final
/// metrics snapshot, the sweep row, and the flight log when recorded.
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
    /// The run's [`telemetry_summary`]: the `health` sweep row.
    pub summary: JsonValue,
    /// The `tca-flight/v1` log of the run; `None` unless recorded.
    pub flight: Option<String>,
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

/// Ring capacity for flight recording of the health run — large enough
/// that nothing is evicted on the 8-node ring, so the log covers every
/// step from simulation start.
const FLIGHT_RING_CAPACITY: usize = 65536;

/// Node count of the `health` scenario's ring.
const HEALTH_NODES: u32 = 8;

/// The observers of every `health` run: span tracing, a 250 ns gauge
/// sampler and a 200 µs stall watchdog.
fn health_instrument() -> Instrument {
    Instrument::default()
        .spans()
        .sample(Dur::from_ns(250))
        .watchdog(Dur::from_us(200))
}

/// Runs the `health` scenario's one point on `backend` and returns its
/// row: the run's [`telemetry_summary`]. The 8-node world runs under
/// span tracing, a 250 ns gauge sampler and a 200 µs stall watchdog,
/// driven by the all-to-all neighbour shift of the EXPERIMENTS.md worked
/// example; [`health_run`] runs the same world and also renders the
/// report and its artifacts, which this row skips.
pub fn health_summary(backend: scenario::BackendKind) -> JsonValue {
    use scenario::BackendKind;
    use tca_core::prelude::*;
    on_backend!(backend, HEALTH_NODES, |c| {
        c.fabric.observe(health_instrument());
        drive_health_traffic(&mut c, HEALTH_NODES);
        telemetry_summary(&mut c.fabric)
    })
}

/// Runs the `health` scenario on `backend` as [`health_summary`] does and
/// keeps everything it produces: the report, its artifacts and the
/// summary row. `tca-bench --top`/`--telemetry-dir`/`--flight-dir` call
/// this once and print the row from it.
///
/// With `flight` the same run is also recorded as a `tca-flight/v1` log
/// ending with the run's span records, so `tca-flight path`/`diff` can
/// rebuild span trees offline. Recording is time-neutral: every other
/// field of the report is byte-identical with `flight` on or off (the CI
/// flight smoke relies on this), and logs of two backends compare step
/// for step.
pub fn health_run(backend: scenario::BackendKind, flight: bool) -> TopReport {
    use scenario::BackendKind;
    use tca_core::prelude::*;
    on_backend!(backend, HEALTH_NODES, |c| {
        c.fabric.observe(match flight {
            true => health_instrument().flight(FLIGHT_RING_CAPACITY, true),
            false => health_instrument(),
        });
        drive_health_traffic(&mut c, HEALTH_NODES);
        let health = c.health_report();
        TopReport {
            text: health.render(),
            health_json: health.to_json(),
            flight: c.fabric.flight_jsonl(),
            metrics_json: c.metrics_snapshot().to_json(),
            series_json: c
                .fabric
                .sampler()
                .map_or_else(|| "{}".to_string(), |s| s.to_json()),
            trace_json: c.fabric.chrome_trace_json(),
            summary: telemetry_summary(&mut c.fabric),
        }
    })
}

impl TopReport {
    /// Writes the four JSON artifacts into `dir` as
    /// `health-<backend>.{health,series,trace,metrics}.json`, creating
    /// `dir` if needed. Returns the paths written.
    pub fn write_to(&self, dir: &Path, backend: &str) -> io::Result<Vec<PathBuf>> {
        [
            ("health", &self.health_json),
            ("series", &self.series_json),
            ("trace", &self.trace_json),
            ("metrics", &self.metrics_json),
        ]
        .into_iter()
        .map(|(kind, body)| {
            write_artifact(&dir.join(format!("health-{backend}.{kind}.json")), body)
        })
        .collect()
    }
}

/// Writes `body` to `path`, creating its missing parent directories first,
/// and returns the path written — the one file writer every artifact of
/// this crate goes through. The error names the path that could not be
/// created or written.
pub fn write_artifact(path: &Path, body: impl AsRef<[u8]>) -> io::Result<PathBuf> {
    let named = |p: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", p.display()));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| named(dir, e))?;
    }
    std::fs::write(path, body).map_err(|e| named(path, e))?;
    Ok(path.to_path_buf())
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

/// Pulls the most recent *completed* root span named `kind` out of the
/// fabric's span store and returns its attribution row: `kind`, `hops`,
/// the end-to-end latency as `total_ns`, then one `<stage>_ns` field per
/// stage in first-occurrence order. Asserts the tentpole guarantee that
/// the stages are an exact partition of the measured interval (computed
/// in integer picoseconds against the root span's elapsed time).
fn root_attribution(f: &Fabric, kind: &'static str, hops: u32) -> JsonValue {
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
    let mut o = row(vec![
        ("kind", JsonValue::from(kind)),
        ("hops", JsonValue::from(hops)),
        ("total_ns", jf(elapsed.as_ns_f64())),
    ]);
    for (stage, d) in attr {
        o.push(format!("{stage}_ns"), jf(d.as_ns_f64()));
    }
    o
}

/// Per-stage latency attribution of a 4 B PIO store and then a 4 KiB
/// pipelined DMA put, `hops` ring distances away on one 16-node ring,
/// extracted from the causal span tree each transfer records: host issue,
/// descriptor fetch/decode, DMA reads and writes, per-hop wire and
/// credit-stall time, PEACH2 relay transits, and the completion path.
/// Returns the `[pio, dma]` rows.
pub fn latency_attribution(hops: u32) -> [JsonValue; 2] {
    assert!((1..=8).contains(&hops), "16-node ring: 1..=8 hops");
    let mut c = TcaClusterBuilder::new(16).build();
    c.fabric.set_span_tracing(true);
    // --- PIO: 4 B store, root span ends at the remote DRAM commit.
    let dst = c.sub.map.global_addr(hops, TcaBlock::Host, 0x6000);
    let host0 = c.sub.nodes[0].host;
    c.fabric.drive::<HostBridge, _>(host0, |h, ctx| {
        h.core_mut().cpu_store(dst, &1u32.to_le_bytes(), ctx);
    });
    c.fabric.run_until_idle();
    let pio = root_attribution(&c.fabric, "pio", hops);
    // --- DMA: 4 KiB pipelined put, root span opens at the doorbell and
    // closes at the completion-interrupt handler (or the last causal
    // remote commit, whichever is later).
    let dma_dst = c.sub.map.global_addr(hops, TcaBlock::Host, 0x4000_0000);
    let buf = c.drivers[0].dma_buf;
    c.drivers[0].pipelined_remote_put(&mut c.fabric, buf, dma_dst, 4096);
    [pio, root_attribution(&c.fabric, "dma", hops)]
}

// ---------------------------------------------------------------------------
// The §IV-B1 ping-pong.
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

fn pio_leg(c: &mut TcaCluster, src: u32, dst: u32, poll: u64) -> Dur {
    let watch = c
        .fabric
        .device_mut::<HostBridge>(c.sub.nodes[dst as usize].host)
        .core_mut()
        .add_watch(AddrRange::new(poll, 8));
    let gdst = c.sub.map.global_addr(dst, TcaBlock::Host, poll);
    let t0 = c.fabric.now();
    let host = c.sub.nodes[src as usize].host;
    c.fabric.drive::<HostBridge, _>(host, |h, ctx| {
        h.core_mut().cpu_store(gdst, &1u64.to_le_bytes(), ctx);
    });
    c.fabric.run_until_idle();
    c.fabric
        .device::<HostBridge>(c.sub.nodes[dst as usize].host)
        .core()
        .watch_hits(watch)[0]
        .since(t0)
}

fn dma_leg(c: &mut TcaCluster, src: u32, dst: u32, addr: u64) -> Dur {
    let watch = c
        .fabric
        .device_mut::<HostBridge>(c.sub.nodes[dst as usize].host)
        .core_mut()
        .add_watch(AddrRange::new(addr, 8));
    let gdst = c.sub.map.global_addr(dst, TcaBlock::Host, addr);
    // Ping-pong methodology: the 8 B ball sits staged in board SRAM and its
    // descriptor is pre-posted, so the hardware leg is doorbell → remote
    // data commit (watch-timestamped at the receiver).
    let d = &c.drivers[src as usize];
    let descs = [Descriptor::new(d.sram_addr(0), gdst, 8)];
    d.write_descriptors(&mut c.fabric, &descs);
    d.program_dma(&mut c.fabric, 1, EngineKind::Legacy);
    let t0 = d.ring_doorbell(&mut c.fabric);
    c.fabric.run_until_idle();
    c.fabric
        .device::<HostBridge>(c.sub.nodes[dst as usize].host)
        .core()
        .watch_hits(watch)[0]
        .since(t0)
}

/// The §IV-B1 ping-pong row, measured on a 2-node ring as two simulated
/// hardware legs (data arrival at the receiver's poll buffer,
/// watch-timestamped) composed with the calibrated software turnaround:
/// `half-RTT = (leg + turnaround + leg) / 2`. Fields: the PIO and
/// chained-DMA half round trips (µs; paper 2.3 and 2.0) and the measured
/// forward PIO (store issue → remote commit) and DMA (doorbell → remote
/// data commit) legs (ns). Both directions of each leg are measured: they
/// are symmetric by construction, but a routing regression would break the
/// symmetry and show up here.
///
/// The rig runs under span tracing and a 100 ns gauge sampler, whose
/// [`telemetry_summary`] the row carries as a `telemetry` field. Both
/// observers are time-neutral, so they move no measured field.
pub fn pingpong_row() -> JsonValue {
    let mut c = TcaClusterBuilder::new(2).build();
    c.fabric
        .observe(Instrument::default().spans().sample(Dur::from_ns(100)));
    let pio_fwd = pio_leg(&mut c, 0, 1, 0x6100);
    let pio_back = pio_leg(&mut c, 1, 0, 0x6200);
    let dma_fwd = dma_leg(&mut c, 0, 1, 0x4100_0000);
    let dma_back = dma_leg(&mut c, 1, 0, 0x4200_0000);
    let mut o = row(vec![
        (
            "pio_us",
            jf(((pio_fwd + PIO_PINGPONG_SW_TURNAROUND + pio_back) / 2).as_us_f64()),
        ),
        (
            "dma_us",
            jf(((dma_fwd + DMA_PINGPONG_SW_TURNAROUND + dma_back) / 2).as_us_f64()),
        ),
        ("pio_leg_ns", jf(pio_fwd.as_ns_f64())),
        ("dma_leg_ns", jf(dma_fwd.as_ns_f64())),
    ]);
    o.push("telemetry", telemetry_summary(&mut c.fabric));
    o
}

/// The number `key` of sweep row `row`; panics naming the key when the
/// row has no such number.
pub fn num(row: &JsonValue, key: &str) -> f64 {
    row.get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("row has no number '{key}': {}", row.to_json()))
}

// ---------------------------------------------------------------------------
// The simulator's own workload (`engine`): simulated counters only, so
// `--profile` times it and the rows stay byte-identical.
// ---------------------------------------------------------------------------

/// Source buffer of every neighbour-shift put.
const SHIFT_SRC: u64 = 0x2000_0000;

/// Builds an `n`-node TCA ring whose nodes each hold `len` bytes at the
/// source buffer of [`shift_round`].
pub fn shift_cluster(n: u32, len: u64) -> tca_core::TcaCluster {
    use tca_core::prelude::*;
    let mut c = TcaClusterBuilder::new(n).build();
    for node in 0..n {
        c.write(&MemRef::host(node, SHIFT_SRC), &vec![0xa5u8; len as usize]);
    }
    c
}

/// One neighbour-shift round: each of nodes `0..n` puts `len` bytes to
/// node `(node + 1) % n`, all asynchronously, then the fabric drains.
pub fn shift_round(c: &mut tca_core::TcaCluster, n: u32, len: u64) {
    use tca_core::prelude::*;
    let events: Vec<TcaEvent> = (0..n)
        .map(|node| {
            let dst = MemRef::host((node + 1) % n, 0x1000_0000);
            c.memcpy_peer_async(&dst, &MemRef::host(node, SHIFT_SRC), len)
        })
        .collect();
    c.fabric.run_until_idle();
    for ev in events {
        // Already complete after the drain; asserts the completion
        // interrupt really arrived.
        let _ = c.wait(ev);
    }
}

/// The TLP counters this thread added since `since`, as row fields.
fn tlp_fields(since: &tca_pcie::TlpCounts) -> [(&'static str, JsonValue); 3] {
    let t = tca_pcie::tlp_counts().since(since);
    [
        ("tlp_constructed", JsonValue::from(t.constructed)),
        ("tlp_cloned", JsonValue::from(t.cloned)),
        ("tlp_relay_hops", JsonValue::from(t.relay_hops)),
    ]
}

/// The `engine` scenario's steady-state point: an `nodes`-node ring runs
/// `warmup_rounds` and then `rounds` [`shift_round`]s of `put_len`-byte
/// puts. The row holds the events of each phase (`build`, `warmup`,
/// `steady`) and of the whole run, the fabric's lifetime queue and
/// dispatch counters, and the TLPs this run built. The queue's
/// `cascades` are left out: they count how the timing wheel re-files
/// entries, which depends on its layout, not on the simulation.
pub fn engine_shift_row(nodes: u32, warmup_rounds: u32, rounds: u32, put_len: u64) -> JsonValue {
    let tlp0 = tca_pcie::tlp_counts();
    let mut c = shift_cluster(nodes, put_len);
    let build = c.fabric.events_executed();
    for _ in 0..warmup_rounds {
        shift_round(&mut c, nodes, put_len);
    }
    let warmup = c.fabric.events_executed() - build;
    for _ in 0..rounds {
        shift_round(&mut c, nodes, put_len);
    }
    let events = c.fabric.events_executed();
    let (q, d) = (c.fabric.queue_prof(), c.fabric.prof());
    let mut o = row(vec![
        ("nodes", JsonValue::from(nodes)),
        ("build_events", JsonValue::from(build)),
        ("warmup_events", JsonValue::from(warmup)),
        ("steady_events", JsonValue::from(events - build - warmup)),
        ("events", JsonValue::from(events)),
        ("pushes", JsonValue::from(q.pushes)),
        ("pops", JsonValue::from(q.pops)),
        ("cancels", JsonValue::from(q.cancels)),
        ("peak_pending", JsonValue::from(q.peak_pending)),
        ("deliver_events", JsonValue::from(d.deliver_events)),
        ("timer_events", JsonValue::from(d.timer_events)),
        (
            "credit_return_events",
            JsonValue::from(d.credit_return_events),
        ),
        ("tlp_transmits", JsonValue::from(d.tlp_transmits)),
    ]);
    for (k, v) in tlp_fields(&tlp0) {
        o.push(k, v);
    }
    o
}

/// The `engine` scenario's ring-size point: a fresh ring of each size in
/// `rings` carries `puts_per_ring` neighbour-shift puts of `put_len`
/// bytes, in rounds of at most one put per node. The row holds the total
/// puts, the events of all the rings' lifetimes and the TLPs they built.
pub fn engine_rings_row(rings: &[u32], puts_per_ring: u32, put_len: u64) -> JsonValue {
    let tlp0 = tca_pcie::tlp_counts();
    let mut events = 0u64;
    for &ring in rings {
        let mut c = shift_cluster(ring, put_len);
        let mut put = 0;
        while put < puts_per_ring {
            let batch = ring.min(puts_per_ring - put);
            shift_round(&mut c, batch, put_len);
            put += batch;
        }
        events += c.fabric.events_executed();
    }
    let puts = rings.len() as u64 * u64::from(puts_per_ring);
    let mut o = row(vec![
        ("puts", JsonValue::from(puts)),
        ("events", JsonValue::from(events)),
    ]);
    for (k, v) in tlp_fields(&tlp0) {
        o.push(k, v);
    }
    o
}

/// The `engine` scenario's queue point: the timing wheel and the
/// pre-rewrite reference heap each replay the race workload of
/// `total_events` schedules once. The row holds the events popped and
/// the FNV-1a checksum of the pop stream, which both queues must share;
/// [`queue_race`] times the same replays.
///
/// # Panics
/// Panics if the two queues pop different streams.
pub fn race_row(total_events: u64) -> JsonValue {
    use refqueue::{replay_race_workload, RefQueue};
    let mut wheel = tca_sim::EventQueue::<u64>::new();
    let mut heap = RefQueue::<u64>::new();
    let checksum = replay_race_workload(&mut wheel, total_events);
    let heap_checksum = replay_race_workload(&mut heap, total_events);
    assert_eq!(
        (wheel.events_executed(), checksum),
        (heap.events_executed(), heap_checksum),
        "wheel and reference heap popped different streams"
    );
    row(vec![
        ("events", JsonValue::from(wheel.events_executed())),
        ("checksum", JsonValue::from(format!("{checksum:016x}"))),
    ])
}

/// The `engine` scenario's scale point: every node of registry topology
/// `topo` sends one probe to every other node (`topo_fabric::all_to_all`).
/// The row holds the node count, messages, relay hops, events and the
/// simulated completion time.
pub fn torus_row(topo: &str) -> JsonValue {
    let spec = tca_core::presets::build_topology(topo)
        .unwrap_or_else(|| panic!("unknown topology {topo}"));
    let r = topo_fabric::all_to_all(&spec);
    row(vec![
        ("nodes", JsonValue::from(r.nodes)),
        ("messages", JsonValue::from(r.messages)),
        ("relay_hops", JsonValue::from(r.relay_hops)),
        ("events", JsonValue::from(r.events)),
        ("sim_ps", JsonValue::from(r.sim_ps)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pairs each entry of the health JSON object `key` with the columns
    /// of the `--top` text row it names in the `key:` section, asserting
    /// that the section has exactly one row per entry.
    fn paired_rows<'a>(
        json: &'a JsonValue,
        text: &'a str,
        key: &str,
    ) -> Vec<(&'a str, &'a JsonValue, Vec<&'a str>)> {
        let entries = json.get(key).and_then(|v| v.as_object()).expect(key);
        let rows: Vec<Vec<&str>> = text
            .lines()
            .skip_while(|l| !l.starts_with(&format!("{key}:")))
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .map(|r| r.split_whitespace().collect())
            .collect();
        assert_eq!(rows.len(), entries.len(), "one {key} row each:\n{text}");
        entries
            .iter()
            .map(|(name, v)| {
                let cols = rows
                    .iter()
                    .find(|c| c.first() == Some(&name.as_str()))
                    .unwrap_or_else(|| panic!("{key} {name} missing from text:\n{text}"));
                (name.as_str(), v, cols.clone())
            })
            .collect()
    }

    /// `tca-bench --top` and `--top --json` must agree field for field:
    /// both renderings come from one `HealthData` collection, the text
    /// elides zero-traffic links and so does the JSON, so every JSON link
    /// key has exactly one text row carrying the same numbers (and vice
    /// versa — the row counts are compared both ways).
    #[test]
    fn top_text_and_json_agree_field_for_field() {
        let rep = health_run(scenario::BackendKind::Tca, false);
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

        let links = paired_rows(&json, text, "links");
        assert!(!links.is_empty(), "instrumented run lit links");
        for (label, v, cols) in links {
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

        for (_, v, cols) in paired_rows(&json, text, "engines") {
            assert_eq!(cols[1], get_u64(v, "current").expect("current").to_string());
            assert_eq!(cols[2], get_u64(v, "peak").expect("peak").to_string());
            assert_eq!(cols[3], fmt_opt(get_u64(v, "mean"), &|m| m.to_string()));
            assert_eq!(cols[4], fmt_opt(get_u64(v, "busy_permille"), &fmt_pct));
        }

        let latency = paired_rows(&json, text, "latency");
        assert!(!latency.is_empty(), "root spans recorded");
        for (name, v, cols) in latency {
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
    fn fig7_curves_keep_their_order_at_4k() {
        // The 4 KiB CPU-write bound itself is `tests/gates.rs`'s.
        let r = local_dma_row(4096, 255);
        let cpu_write = num(&r, "cpu_write_bps");
        assert!(
            num(&r, "gpu_write_bps") > 0.9 * cpu_write,
            "GPU write ≈ CPU write"
        );
        assert!(
            (0.6e9..0.87e9).contains(&num(&r, "gpu_read_bps")),
            "830 MB/s ceiling"
        );
        assert!(num(&r, "cpu_read_bps") < cpu_write);
    }

    #[test]
    fn fig12_remote_write_converges_at_4k() {
        let small = fig12_row(256);
        let big = fig12_row(4096);
        assert!(
            num(&small, "cpu_remote_write_bps") < 0.85 * num(&small, "cpu_local_write_bps"),
            "remote slower at small sizes: {small:?}"
        );
        assert!(
            num(&big, "cpu_remote_write_bps") > 0.75 * num(&big, "cpu_local_write_bps"),
            "converging at 4 KiB: {big:?}"
        );
        assert!(num(&big, "gpu_remote_write_bps") > 0.9 * num(&big, "cpu_local_write_bps"));
    }

    #[test]
    fn latency_report_matches_paper_regime() {
        let l = latency_row();
        let pio = num(&l, "pio_oneway_ns");
        assert!((580.0..980.0).contains(&pio), "{l:?}");
        assert!(num(&l, "ib_fdr_oneway_ns") < 1600.0, "{l:?}");
        assert!(pio < num(&l, "ib_fdr_oneway_ns"), "{l:?}");
        assert!(
            num(&l, "mpi_halfrtt_ns") > num(&l, "ib_qdr_oneway_ns"),
            "{l:?}"
        );
    }

    #[test]
    fn qpi_ablation_degrades() {
        let q = qpi_row();
        let across = num(&q, "across_qpi_bps");
        assert!(across < 0.4e9, "{q:?}");
        assert!(num(&q, "same_socket_bps") > 5.0 * across, "{q:?}");
    }

    #[test]
    fn dmac_ablation_pipelined_wins() {
        let r = dmac_row(65536);
        assert!(
            num(&r, "pipelined_bps") > 1.5 * num(&r, "legacy_two_phase_bps"),
            "{r:?}"
        );
    }

    #[test]
    fn comparison_tca_wins_small_messages() {
        let r = comparison_row(64);
        assert!(num(&r, "tca_dma_us") < num(&r, "mpi_staged_us"), "{r:?}");
        assert!(num(&r, "tca_pio_us") < num(&r, "ib_gpudirect_us"), "{r:?}");
    }

    #[test]
    fn scaling_diameter_grows_but_shift_bandwidth_scales() {
        let rows: Vec<JsonValue> = [2u32, 4, 8, 16].into_iter().map(scaling_row).collect();
        for w in rows.windows(2) {
            assert!(
                num(&w[1], "diameter_pio_ns") > num(&w[0], "diameter_pio_ns"),
                "diameter latency grows: {rows:?}"
            );
        }
        let first = rows.first().expect("rows");
        let last = rows.last().expect("rows");
        // Aggregate scales near-linearly (disjoint cables)...
        assert!(
            num(last, "shift_aggregate_bps") > 5.0 * num(first, "shift_aggregate_bps"),
            "{rows:?}"
        );
        // ...while per-node bandwidth stays roughly flat.
        assert!(
            num(last, "shift_per_node_bps") > 0.8 * num(first, "shift_per_node_bps"),
            "{rows:?}"
        );
    }

    #[test]
    fn contention_shares_the_cable() {
        let r = contention_row();
        let solo = num(&r, "solo_bps");
        let aggregate = num(&r, "shared_aggregate_bps");
        // Each shared flow is slower than solo; the aggregate is within
        // the single-cable envelope (some slack: flows also use disjoint
        // first-hop links).
        assert!(num(&r, "shared_per_flow_bps") < 0.8 * solo, "{r:?}");
        assert!(aggregate < 1.35 * solo, "{r:?}");
        assert!(aggregate > 0.8 * solo, "{r:?}");
    }

    #[test]
    fn reliability_degrades_gracefully() {
        let (clean, lossy) = (pearl_row(0), pearl_row(100_000));
        assert_eq!(num(&clean, "replays"), 0.0);
        assert!(num(&lossy, "replays") > 100.0, "{lossy:?}");
        let (clean_bw, lossy_bw) = (
            num(&clean, "remote_write_bps"),
            num(&lossy, "remote_write_bps"),
        );
        assert!(lossy_bw < clean_bw, "lossy slower: {clean:?} {lossy:?}");
        assert!(
            lossy_bw > 0.5 * clean_bw,
            "but not collapsed: {clean:?} {lossy:?}"
        );
    }

    #[test]
    fn telemetry_artifacts_parse_back() {
        let rep = health_run(scenario::BackendKind::Tca, false);
        assert!(rep.flight.is_none(), "no flight log unless asked");

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
        let pio: Vec<f64> = (1..=4u32)
            .map(|h| num(&ring_hop_row(h), "pio_ns"))
            .collect();
        for w in pio.windows(2) {
            assert!(w[1] > w[0], "{pio:?}");
        }
    }

    #[test]
    fn latency_attribution_is_an_exact_partition() {
        // latency_attribution() itself asserts sum(stages) == total per row
        // in integer picoseconds; here we additionally check the rows'
        // shape and that the expected pipeline stages show up.
        let one = latency_attribution(1);
        let two = latency_attribution(2);
        /// `(stage, ns)` of every `<stage>_ns` field but `total_ns`.
        fn stages(r: &JsonValue) -> Vec<(&str, f64)> {
            r.as_object()
                .expect("rows are objects")
                .iter()
                .filter_map(|(k, v)| Some((k.strip_suffix("_ns")?, v.as_f64()?)))
                .filter(|(k, _)| *k != "total")
                .collect()
        }
        for r in one.iter().chain(&two) {
            let total = num(r, "total_ns");
            assert!(total > 0.0, "{r:?}");
            let sum: f64 = stages(r).iter().map(|(_, ns)| ns).sum();
            assert!((sum - total).abs() < 1e-9, "{r:?}");
        }
        let [pio, dma] = &one;
        assert_eq!(pio.get("kind"), Some(&JsonValue::from("pio")));
        assert_eq!(dma.get("kind"), Some(&JsonValue::from("dma")));
        let has = |r: &JsonValue, stage: &str| stages(r).iter().any(|(s, _)| *s == stage);
        assert!(has(pio, "wire"), "{pio:?}");
        for stage in ["engine_start", "desc_fetch", "wire"] {
            assert!(has(dma, stage), "{dma:?}");
        }
        // Two hops spend more time on the wire/relay path than one.
        let wire_ns = |r: &JsonValue| {
            stages(r)
                .iter()
                .filter(|(s, _)| *s == "wire" || *s == "relay")
                .map(|(_, ns)| ns)
                .sum::<f64>()
        };
        assert!(wire_ns(&two[0]) > wire_ns(pio), "{one:?} {two:?}");
    }

    #[test]
    fn pingpong_hardware_legs_are_the_minority() {
        // The §IV-B1 half-round-trip bounds are `tests/gates.rs`'s. The
        // hardware legs alone sit well below the software-inclusive
        // figure — the fabric is the minority of the ping-pong budget.
        let pp = pingpong_row();
        assert!(num(&pp, "pio_leg_ns") < 1000.0, "{pp:?}");
        assert!(num(&pp, "dma_leg_ns") < 2000.0, "{pp:?}");
    }
}
