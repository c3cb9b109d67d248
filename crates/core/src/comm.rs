//! Backend-agnostic communication layer.
//!
//! The paper's evaluation is comparative: the same workloads run over the
//! TCA sub-cluster (PIO + chained-DMA RDMA puts, §III) and over the
//! conventional MPI/InfiniBand stack (eager/rendezvous with three-step GPU
//! staging, or GPUDirect-RDMA-over-IB, §III-A/§V). [`CommWorld`] captures
//! the communication model both share — RDMA-put into host/GPU memory
//! with remote-visibility ("flag/notify") completion, barrier, allreduce,
//! and elapsed *simulated* time — so an application written once runs over
//! either backend:
//!
//! * [`TcaBackend`] (an alias for [`TcaCluster`]) — PIO stores for short
//!   messages, the pipelined chaining DMAC for everything else;
//! * [`MpiBackend`] — `MpiWorld`'s staged or GPUDirect send paths over a
//!   simulated InfiniBand network, with every software cost on the clock.
//!
//! ```
//! use tca_core::prelude::*;
//!
//! fn exchange(c: &mut impl CommWorld) -> Dur {
//!     c.write(&MemRef::host(0, 0x4000_0000), &[7u8; 8]);
//!     c.put(&MemRef::host(1, 0x4100_0000), &MemRef::host(0, 0x4000_0000), 8)
//! }
//!
//! let mut tca = TcaClusterBuilder::new(2).build();
//! let mut mpi = MpiBackend::new(2, MpiGpuMode::Staged);
//! let (t, m) = (exchange(&mut tca), exchange(&mut mpi));
//! assert!(t < m, "small-message TCA put beats MPI (tca={t} mpi={m})");
//! ```

use crate::api::{GpuAlloc, MemRef, MemSpace};
use crate::cluster::TcaCluster;
use tca_device::node::{build_node, Node, NodeConfig};
use tca_device::{Gpu, HostBridge};
use tca_net::{attach_ib, IbParams, MpiWorld, Protocol};
use tca_pcie::Fabric;
use tca_sim::{Dur, SimTime};

/// One RDMA put of a batch: `len` bytes from `src` to `dst`.
#[derive(Clone, Copy, Debug)]
pub struct PutSpec {
    /// Destination (may be on any node, host or GPU memory).
    pub dst: MemRef,
    /// Source (must be local to the issuing node's memories).
    pub src: MemRef,
    /// Length in bytes.
    pub len: u64,
}

impl PutSpec {
    /// Convenience constructor.
    pub fn new(dst: MemRef, src: MemRef, len: u64) -> Self {
        PutSpec { dst, src, len }
    }
}

/// TCA puts at or below this size go over the PIO window (§III-F1), the
/// short-message path; larger transfers use the chaining DMAC (§III-D).
/// Matches the crossover regime of Fig. 9: a halo flag or an 8-byte
/// scalar is PIO territory, a stencil row is DMA territory.
pub const PIO_MAX_BYTES: u64 = 64;

/// A communication world the paper's workloads can run on.
///
/// Semantics shared by all backends:
/// * `put*` calls are **synchronous with remote visibility**: when the
///   call returns, the destination bytes are readable on the target node
///   (the backend has performed whatever flag/notify or drain its
///   transport needs), and the returned [`Dur`] is the simulated time the
///   operation occupied.
/// * `write`/`read` are functional data accesses standing in for local
///   compute (a CUDA kernel or host code producing/consuming data); they
///   do not advance simulated time.
/// * collectives are SPMD over host memory: every rank participates using
///   the same base address.
pub trait CommWorld {
    /// Short name of the backend (`"tca"`, `"mpi"`, `"mpi-gpudirect"`).
    fn backend_name(&self) -> &'static str;

    /// Number of nodes (ranks).
    fn nodes(&self) -> u32;

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Allocates and pins `len` bytes on (`node`, `gpu`), exposing them
    /// for remote transfers (the GPUDirect pin flow of §IV-A2).
    fn alloc_gpu(&mut self, node: u32, gpu: usize, len: u64) -> GpuAlloc;

    /// Functional data write (stands in for local compute).
    fn write(&mut self, m: &MemRef, data: &[u8]);

    /// Functional data read.
    fn read(&self, m: &MemRef, len: usize) -> Vec<u8>;

    /// Issues every put of `puts` as concurrently as the backend allows
    /// and returns when all destinations are remotely visible.
    fn put_batch(&mut self, puts: &[PutSpec]) -> Dur;

    /// A single synchronous RDMA put.
    fn put(&mut self, dst: &MemRef, src: &MemRef, len: u64) -> Dur {
        self.put_batch(&[PutSpec::new(*dst, *src, len)])
    }

    /// Block-stride put (§III-H): `count` blocks of `block_len` bytes with
    /// independent source/destination strides.
    #[allow(clippy::too_many_arguments)] // mirrors tcaMemcpy2D
    fn put_strided(
        &mut self,
        dst: &MemRef,
        dst_stride: u64,
        src: &MemRef,
        src_stride: u64,
        block_len: u64,
        count: u64,
    ) -> Dur;

    /// Barrier across all ranks.
    fn barrier(&mut self) -> Dur;

    /// All-gather over host memory: rank i's `len`-byte block at
    /// `addr + i*len` circulates until every rank holds all blocks.
    fn allgather(&mut self, addr: u64, len: u64) -> Dur;

    /// Scalar sum-allreduce: every rank holds an `f64` at `addr`; after
    /// the call every rank's value is the global sum (also returned).
    /// All backends sum the per-rank partials in **rank index order**, so
    /// the result is bit-identical across backends.
    fn allreduce_scalar_f64(&mut self, addr: u64) -> f64;
}

/// The TCA backend: the existing [`TcaCluster`] with its PIO and
/// chained-DMA paths. (The trait is implemented directly on the cluster;
/// this alias names the backend in registry/driver code.)
pub type TcaBackend = TcaCluster;

impl CommWorld for TcaCluster {
    fn backend_name(&self) -> &'static str {
        "tca"
    }

    fn nodes(&self) -> u32 {
        TcaCluster::nodes(self)
    }

    fn now(&self) -> SimTime {
        TcaCluster::now(self)
    }

    fn alloc_gpu(&mut self, node: u32, gpu: usize, len: u64) -> GpuAlloc {
        TcaCluster::alloc_gpu(self, node, gpu, len)
    }

    fn write(&mut self, m: &MemRef, data: &[u8]) {
        TcaCluster::write(self, m, data);
    }

    fn read(&self, m: &MemRef, len: usize) -> Vec<u8> {
        TcaCluster::read(self, m, len)
    }

    fn put_batch(&mut self, puts: &[PutSpec]) -> Dur {
        let t0 = TcaCluster::now(self);
        // Short host-sourced messages ride the PIO window fire-and-forget;
        // everything else is a chained-DMA activation. DMA events complete
        // source-side, so one drain at the end covers both kinds.
        let mut events = Vec::new();
        for p in puts {
            if p.len <= PIO_MAX_BYTES && matches!(p.src.space, MemSpace::Host) {
                let data = TcaCluster::read(self, &p.src, p.len as usize);
                self.pio_put_nowait(p.src.node, &p.dst, &data);
            } else {
                events.push(self.memcpy_peer_async(&p.dst, &p.src, p.len));
            }
        }
        for ev in events {
            self.wait(ev);
        }
        self.synchronize();
        TcaCluster::now(self).since(t0)
    }

    fn put_strided(
        &mut self,
        dst: &MemRef,
        dst_stride: u64,
        src: &MemRef,
        src_stride: u64,
        block_len: u64,
        count: u64,
    ) -> Dur {
        self.memcpy_peer_strided(dst, dst_stride, src, src_stride, block_len, count)
    }

    fn barrier(&mut self) -> Dur {
        let mut coll = std::mem::take(&mut self.coll);
        let d = coll.barrier(self);
        self.coll = coll;
        d
    }

    fn allgather(&mut self, addr: u64, len: u64) -> Dur {
        if TcaCluster::nodes(self) == 1 {
            return Dur::ZERO;
        }
        let mut coll = std::mem::take(&mut self.coll);
        let d = coll.allgather(self, addr, len);
        self.coll = coll;
        d
    }

    fn allreduce_scalar_f64(&mut self, addr: u64) -> f64 {
        let mut coll = std::mem::take(&mut self.coll);
        let v = coll.allreduce_scalar_f64(self, addr);
        self.coll = coll;
        v
    }
}

/// How the MPI backend moves GPU data between nodes (§III-A vs §V).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MpiGpuMode {
    /// Conventional three-step staging: `cudaMemcpy` D2H → MPI over IB →
    /// `cudaMemcpy` H2D.
    Staged,
    /// GPUDirect-RDMA-over-IB: the HCA gathers straight from the pinned
    /// GPU BAR (and inherits its ~830 MB/s read ceiling).
    GpuDirect,
}

/// Host-DRAM staging buffer the backend owns on every node (distinct from
/// `MpiWorld`'s fixed regions at `0x0300_0000..0x0900_0000`).
const STAGE_BASE: u64 = 0x0900_0000;
/// Barrier scratch (token + one slot per rank).
const BARRIER_SCRATCH: u64 = 0x0a00_0000;
/// Scalar-allreduce gather array — the same address the TCA collectives
/// use, so both backends leave identical bytes behind.
const GATHER_BASE: u64 = 0x7e00_0000;

/// The MPI/InfiniBand backend: the same simulated nodes, no PEACH2 boards,
/// all communication through [`MpiWorld`]'s eager/rendezvous protocols
/// with staged or GPUDirect GPU paths.
pub struct MpiBackend {
    /// The simulated world.
    pub fabric: Fabric,
    /// The MPI runtime + IB network.
    pub world: MpiWorld,
    /// GPU transfer mode.
    pub gpu_mode: MpiGpuMode,
    /// FNV config hash of the node-parameter bundle the world was built
    /// from (same registry as [`crate::params::FabricParams`]; the MPI
    /// world has no PEACH2 boards, but stamping the full bundle keeps the
    /// hash directly comparable across backends).
    pub config_fnv: u64,
}

impl MpiBackend {
    /// Builds an `nodes`-rank world with the Table II node configuration
    /// and default dual-rail QDR InfiniBand.
    pub fn new(nodes: u32, gpu_mode: MpiGpuMode) -> Self {
        Self::with_params(
            nodes,
            gpu_mode,
            crate::presets::table_ii_node_config(),
            IbParams::default(),
        )
    }

    /// Builds with explicit node and network parameters.
    pub fn with_params(nodes: u32, gpu_mode: MpiGpuMode, cfg: NodeConfig, ib: IbParams) -> Self {
        let mut fabric = Fabric::new();
        crate::apply_env_flight(&mut fabric);
        let config_fnv = crate::params::FabricParams {
            node: cfg,
            ..crate::params::FabricParams::default()
        }
        .fingerprint();
        let mut ns: Vec<Node> = (0..nodes)
            .map(|i| build_node(&mut fabric, &format!("n{i}"), &cfg))
            .collect();
        let net = attach_ib(&mut fabric, &mut ns, ib);
        MpiBackend {
            fabric,
            world: MpiWorld::new(ns, net),
            gpu_mode,
            config_fnv,
        }
    }

    /// Captures a deterministic, name-sorted snapshot of every metric in
    /// the MPI world's fabric: the `mpi.eager_sends` / `mpi.rndv_sends` /
    /// `mpi.payload_bytes` protocol counters plus each HCA's
    /// `*.send_q_depth` / `*.reads_in_flight` queue gauges — the same
    /// shape [`TcaCluster::metrics_snapshot`] returns, so `--backend
    /// tca|mpi` reports compare side by side.
    pub fn metrics_snapshot(&mut self) -> tca_sim::MetricsSnapshot {
        self.fabric.metrics_snapshot()
    }

    /// The continuous-health congestion report for the MPI/IB fabric, in
    /// the same format as [`TcaCluster::health_report`].
    pub fn health_report(&mut self) -> crate::HealthData {
        let snapshot = self.fabric.metrics_snapshot();
        let nodes = self.world.nodes.len() as u32;
        crate::cluster::collect_fabric_health(&self.fabric, nodes, snapshot, self.config_fnv)
    }

    fn gpu_dev(&self, node: u32, gpu: usize) -> tca_pcie::DeviceId {
        self.world.nodes[node as usize].gpus[gpu]
    }

    /// Node-local BAR (PCIe) address of a reference — what the HCA
    /// reads/writes on the GPUDirect path. Requires GPU refs to be pinned.
    fn bar_addr(&self, m: &MemRef) -> u64 {
        match m.space {
            MemSpace::Host => m.addr,
            MemSpace::Gpu(g) => self
                .fabric
                .device::<Gpu>(self.gpu_dev(m.node, g))
                .pcie_addr(m.addr),
        }
    }

    /// Same-node copy: `cudaMemcpy` flavors, or a host `memcpy`.
    fn local_copy(&mut self, dst: &MemRef, src: &MemRef, len: u64) {
        let (f, w) = (&mut self.fabric, &self.world);
        match (src.space, dst.space) {
            (MemSpace::Host, MemSpace::Host) => {
                let data = f
                    .device::<HostBridge>(w.nodes[src.node as usize].host)
                    .core()
                    .mem_ref()
                    .read(src.addr, len as usize);
                f.device_mut::<HostBridge>(w.nodes[dst.node as usize].host)
                    .core_mut()
                    .mem()
                    .write(dst.addr, &data);
                w.advance(f, src.node as usize, Dur::for_bytes(len, w.mpi.memcpy_rate));
            }
            (MemSpace::Gpu(g), MemSpace::Host) => {
                let dev = w.nodes[src.node as usize].gpus[g];
                w.cuda_d2h(f, src.node as usize, dev, src.addr, dst.addr, len);
            }
            (MemSpace::Host, MemSpace::Gpu(g)) => {
                let dev = w.nodes[dst.node as usize].gpus[g];
                w.cuda_h2d(f, dst.node as usize, dev, src.addr, dst.addr, len);
            }
            (MemSpace::Gpu(gs), MemSpace::Gpu(gd)) => {
                // cudaMemcpy D2D without peer access: bounce through host.
                let sdev = w.nodes[src.node as usize].gpus[gs];
                let ddev = w.nodes[dst.node as usize].gpus[gd];
                w.cuda_d2h(f, src.node as usize, sdev, src.addr, STAGE_BASE, len);
                w.cuda_h2d(f, dst.node as usize, ddev, STAGE_BASE, dst.addr, len);
            }
        }
    }

    /// Cross-node put over the configured GPU path.
    fn remote_put(&mut self, dst: &MemRef, src: &MemRef, len: u64) {
        let host_only = matches!(src.space, MemSpace::Host) && matches!(dst.space, MemSpace::Host);
        if host_only {
            self.world.send(
                &mut self.fabric,
                src.node as usize,
                dst.node as usize,
                src.addr,
                dst.addr,
                len,
                Protocol::Auto,
            );
            return;
        }
        match self.gpu_mode {
            MpiGpuMode::Staged => {
                // §III-A three-step path, generalized to mixed endpoints.
                let src_host = match src.space {
                    MemSpace::Host => src.addr,
                    MemSpace::Gpu(g) => {
                        let dev = self.gpu_dev(src.node, g);
                        self.world.cuda_d2h(
                            &mut self.fabric,
                            src.node as usize,
                            dev,
                            src.addr,
                            STAGE_BASE,
                            len,
                        );
                        STAGE_BASE
                    }
                };
                let dst_host = match dst.space {
                    MemSpace::Host => dst.addr,
                    MemSpace::Gpu(_) => STAGE_BASE,
                };
                self.world.send(
                    &mut self.fabric,
                    src.node as usize,
                    dst.node as usize,
                    src_host,
                    dst_host,
                    len,
                    Protocol::Auto,
                );
                if let MemSpace::Gpu(g) = dst.space {
                    let dev = self.gpu_dev(dst.node, g);
                    self.world.cuda_h2d(
                        &mut self.fabric,
                        dst.node as usize,
                        dev,
                        STAGE_BASE,
                        dst.addr,
                        len,
                    );
                }
            }
            MpiGpuMode::GpuDirect => {
                let (s, d) = (self.bar_addr(src), self.bar_addr(dst));
                self.world.send_gpu_gpudirect(
                    &mut self.fabric,
                    src.node as usize,
                    s,
                    dst.node as usize,
                    d,
                    len,
                );
            }
        }
    }
}

impl CommWorld for MpiBackend {
    fn backend_name(&self) -> &'static str {
        match self.gpu_mode {
            MpiGpuMode::Staged => "mpi",
            MpiGpuMode::GpuDirect => "mpi-gpudirect",
        }
    }

    fn nodes(&self) -> u32 {
        self.world.size() as u32
    }

    fn now(&self) -> SimTime {
        self.fabric.now()
    }

    fn alloc_gpu(&mut self, node: u32, gpu: usize, len: u64) -> GpuAlloc {
        let dev = self.gpu_dev(node, gpu);
        let g = self.fabric.device_mut::<Gpu>(dev);
        let dev_addr = g.alloc(len);
        let token = g.p2p_token(dev_addr, len);
        let pcie_addr = g.pin(dev_addr, len, token);
        GpuAlloc {
            node,
            gpu,
            dev_addr,
            len,
            pcie_addr,
        }
    }

    fn write(&mut self, m: &MemRef, data: &[u8]) {
        match m.space {
            MemSpace::Host => self
                .fabric
                .device_mut::<HostBridge>(self.world.nodes[m.node as usize].host)
                .core_mut()
                .mem()
                .write(m.addr, data),
            MemSpace::Gpu(g) => self
                .fabric
                .device_mut::<Gpu>(self.gpu_dev(m.node, g))
                .gddr()
                .write(m.addr, data),
        }
    }

    fn read(&self, m: &MemRef, len: usize) -> Vec<u8> {
        match m.space {
            MemSpace::Host => self
                .fabric
                .device::<HostBridge>(self.world.nodes[m.node as usize].host)
                .core()
                .mem_ref()
                .read(m.addr, len),
            MemSpace::Gpu(g) => self
                .fabric
                .device::<Gpu>(self.gpu_dev(m.node, g))
                .gddr_ref()
                .read(m.addr, len),
        }
    }

    fn put_batch(&mut self, puts: &[PutSpec]) -> Dur {
        // MPI point-to-point sends are blocking here: the batch serializes,
        // which is exactly the software-stack cost the paper charges the
        // baseline for.
        let t0 = self.fabric.now();
        for p in puts {
            assert!(p.len > 0);
            if p.src.node == p.dst.node {
                self.local_copy(&p.dst, &p.src, p.len);
            } else {
                self.remote_put(&p.dst, &p.src, p.len);
            }
        }
        self.fabric.now().since(t0)
    }

    fn put_strided(
        &mut self,
        dst: &MemRef,
        dst_stride: u64,
        src: &MemRef,
        src_stride: u64,
        block_len: u64,
        count: u64,
    ) -> Dur {
        // No chaining DMAC on this side: each block is its own message.
        let t0 = self.fabric.now();
        for i in 0..count {
            let d = MemRef {
                addr: dst.addr + i * dst_stride,
                ..*dst
            };
            let s = MemRef {
                addr: src.addr + i * src_stride,
                ..*src
            };
            self.put_batch(&[PutSpec::new(d, s, block_len)]);
        }
        self.fabric.now().since(t0)
    }

    fn barrier(&mut self) -> Dur {
        let n = self.world.size();
        let t0 = self.fabric.now();
        if n > 1 {
            // Linear gather-to-0 then release: 2(n-1) eager messages.
            for r in 0..n {
                self.write(
                    &MemRef::host(r as u32, BARRIER_SCRATCH),
                    &1u64.to_le_bytes(),
                );
            }
            for r in 1..n {
                self.world.send(
                    &mut self.fabric,
                    r,
                    0,
                    BARRIER_SCRATCH,
                    BARRIER_SCRATCH + 8 + r as u64 * 8,
                    8,
                    Protocol::Eager,
                );
            }
            for r in 1..n {
                self.world.send(
                    &mut self.fabric,
                    0,
                    r,
                    BARRIER_SCRATCH,
                    BARRIER_SCRATCH + 8,
                    8,
                    Protocol::Eager,
                );
            }
        }
        self.fabric.now().since(t0)
    }

    fn allgather(&mut self, addr: u64, len: u64) -> Dur {
        let n = self.world.size();
        let t0 = self.fabric.now();
        // Ring allgather with the same block schedule as the TCA
        // collectives, so both backends move identical bytes.
        for s in 0..n.saturating_sub(1) {
            for i in 0..n {
                let bi = (i + n - s) % n;
                let dst = (i + 1) % n;
                self.world.send(
                    &mut self.fabric,
                    i,
                    dst,
                    addr + (bi as u64) * len,
                    addr + (bi as u64) * len,
                    len,
                    Protocol::Auto,
                );
            }
        }
        self.fabric.now().since(t0)
    }

    fn allreduce_scalar_f64(&mut self, addr: u64) -> f64 {
        let n = self.world.size();
        for r in 0..n as u32 {
            let v = self.read(&MemRef::host(r, addr), 8);
            self.write(&MemRef::host(r, GATHER_BASE + r as u64 * 8), &v);
        }
        if n > 1 {
            self.allgather(GATHER_BASE, 8);
        }
        // Sum in rank index order — the same order the TCA collectives
        // use, so the float result is bit-identical across backends.
        let mut total = 0.0;
        for i in 0..n {
            let b = self.read(&MemRef::host(0, GATHER_BASE + i as u64 * 8), 8);
            total += f64::from_le_bytes(b.try_into().expect("8 bytes"));
        }
        for r in 0..n as u32 {
            self.write(&MemRef::host(r, addr), &total.to_le_bytes());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::TcaClusterBuilder;

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8) ^ seed.wrapping_mul(29))
            .collect()
    }

    #[test]
    fn tca_put_batch_mixes_pio_and_dma() {
        let mut c = TcaClusterBuilder::new(4).build();
        let small = pattern(8, 1);
        let big = pattern(64 * 1024, 2);
        c.write(&MemRef::host(0, 0x4000_0000), &small);
        c.write(&MemRef::host(1, 0x4000_0000), &big);
        let d = CommWorld::put_batch(
            &mut c,
            &[
                PutSpec::new(
                    MemRef::host(2, 0x5000_0000),
                    MemRef::host(0, 0x4000_0000),
                    8,
                ),
                PutSpec::new(
                    MemRef::host(3, 0x5000_0000),
                    MemRef::host(1, 0x4000_0000),
                    64 * 1024,
                ),
            ],
        );
        assert!(d > Dur::ZERO);
        assert_eq!(CommWorld::read(&c, &MemRef::host(2, 0x5000_0000), 8), small);
        assert_eq!(
            CommWorld::read(&c, &MemRef::host(3, 0x5000_0000), 64 * 1024),
            big
        );
    }

    #[test]
    fn mpi_backend_delivers_host_and_gpu_puts() {
        for mode in [MpiGpuMode::Staged, MpiGpuMode::GpuDirect] {
            let mut m = MpiBackend::new(2, mode);
            let data = pattern(4096, 3);
            m.write(&MemRef::host(0, 0x4000_0000), &data);
            let d = m.put(
                &MemRef::host(1, 0x4100_0000),
                &MemRef::host(0, 0x4000_0000),
                4096,
            );
            assert!(d > Dur::ZERO);
            assert_eq!(m.read(&MemRef::host(1, 0x4100_0000), 4096), data);

            let a = m.alloc_gpu(0, 0, 8192);
            let b = m.alloc_gpu(1, 0, 8192);
            let gdata = pattern(8192, 4);
            m.write(&a.at(0), &gdata);
            let d = m.put(&b.at(0), &a.at(0), 8192);
            assert!(d > Dur::ZERO, "{mode:?}");
            assert_eq!(m.read(&b.at(0), 8192), gdata, "{mode:?}");
        }
    }

    #[test]
    fn mpi_backend_same_node_copies() {
        let mut m = MpiBackend::new(2, MpiGpuMode::Staged);
        let a = m.alloc_gpu(0, 0, 4096);
        let b = m.alloc_gpu(0, 1, 4096);
        let data = pattern(4096, 5);
        m.write(&a.at(0), &data);
        m.put(&b.at(0), &a.at(0), 4096);
        assert_eq!(m.read(&b.at(0), 4096), data);
        m.write(&MemRef::host(1, 0x4000_0000), &data);
        m.put(
            &MemRef::host(1, 0x4200_0000),
            &MemRef::host(1, 0x4000_0000),
            4096,
        );
        assert_eq!(m.read(&MemRef::host(1, 0x4200_0000), 4096), data);
    }

    #[test]
    fn collectives_agree_across_backends() {
        let mut tca = TcaClusterBuilder::new(4).build();
        let mut mpi = MpiBackend::new(4, MpiGpuMode::Staged);
        let mut totals = Vec::new();
        for c in [
            &mut tca as &mut dyn CommWorld,
            &mut mpi as &mut dyn CommWorld,
        ] {
            for r in 0..4u32 {
                c.write(
                    &MemRef::host(r, 0x4000_0000),
                    &(0.1 * (r as f64 + 1.0)).to_le_bytes(),
                );
            }
            totals.push(c.allreduce_scalar_f64(0x4000_0000));
            assert!(c.barrier() > Dur::ZERO);
        }
        // Bit-identical, not merely close: same summation order.
        assert_eq!(totals[0].to_bits(), totals[1].to_bits());
    }

    #[test]
    fn trait_is_object_safe() {
        let c: Box<dyn CommWorld> = Box::new(TcaClusterBuilder::new(2).build());
        assert_eq!(c.backend_name(), "tca");
        assert_eq!(c.nodes(), 2);
    }

    #[test]
    fn tca_small_put_beats_mpi_staged() {
        let mut tca = TcaClusterBuilder::new(2).build();
        let mut mpi = MpiBackend::new(2, MpiGpuMode::Staged);
        tca.write(&MemRef::host(0, 0x4000_0000), &[9u8; 8]);
        mpi.write(&MemRef::host(0, 0x4000_0000), &[9u8; 8]);
        let dt = CommWorld::put(
            &mut tca,
            &MemRef::host(1, 0x4100_0000),
            &MemRef::host(0, 0x4000_0000),
            8,
        );
        let dm = mpi.put(
            &MemRef::host(1, 0x4100_0000),
            &MemRef::host(0, 0x4000_0000),
            8,
        );
        assert!(dt < dm, "tca={dt} mpi={dm}");
    }
}
