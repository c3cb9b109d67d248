//! The traced run: host time and counts per layer, recorded from the
//! benchmark's side of public library calls.
//!
//! Each workload has a traced subset. Fabric traffic is issued through the
//! public driver / API calls (timed as the issue side) and drained one
//! `Fabric::step_kind` at a time, so host time splits by event kind; the
//! engine, TLP, link and allocation counters are read around the same
//! boundaries. `apps` cannot be stepped from outside — its kernels drain
//! inside `CommWorld` calls — so it is timed per call through [`Timed`].
//! A layer the workload's subset does not reach is measured on a small
//! fixed probe of its own (see `fill_unmeasured`), so every metric of
//! every workload is a measurement.

use crate::calib::Calib;
use crate::report::declared;
use crate::setup::ring_rig;
use crate::timed::{CommTimes, Timed};
use crate::workloads::{sweep_command, Workload};
use crate::{golden, ring, stats, Checks};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tca_core::{CommWorld, MemRef, MpiBackend, MpiGpuMode, TcaCluster, TcaClusterBuilder};
use tca_device::{Gpu, HostBridge, TcaBlock};
use tca_pcie::{tlp_counts, Dir, Fabric, LinkId, PageMemory, StepKind, TlpCounts};
use tca_peach2::{Descriptor, EngineKind, Peach2};
use tca_sim::{alloc_snapshot, Dur, EventQueue, JsonValue, SimTime};

/// Per-layer metric values of one traced rep, keyed by declared name.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name`, which must be a `per_layer` metric of `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            declared("per_layer").iter().any(|m| m.name == name),
            "{name} is not a per_layer metric of BENCHMARK.json"
        );
        self.0.insert(name, v);
    }

    /// The value of `name`; 0 when nothing measured it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// Adds the values of `other` this set does not have yet.
    pub fn fill(&mut self, other: Layers) {
        for (k, v) in other.0 {
            self.0.entry(k).or_insert(v);
        }
    }

    /// Per-metric median across reps (counts repeat exactly, so only the
    /// host-time metrics are really summarised).
    pub fn median(reps: &[Layers]) -> Layers {
        let mut names: Vec<&'static str> = reps.iter().flat_map(|r| r.0.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        Layers(
            names
                .into_iter()
                .map(|n| {
                    let xs: Vec<f64> = reps.iter().filter_map(|r| r.0.get(n).copied()).collect();
                    (n, stats::median(&xs))
                })
                .collect(),
        )
    }
}

/// Events replayed through the bare queue are capped at this many.
const REPLAY_CAP: usize = 1 << 20;

const KINDS: [StepKind; 3] = [StepKind::Deliver, StepKind::Timer, StepKind::CreditReturn];

/// Accumulates the engine / fabric / TLP / link / allocation layers over
/// every fabric a traced subset drives.
pub struct FabricTrace {
    kind_n: [u64; 3],
    kind_ns: [u64; 3],
    /// Host ns and events of drains not split by kind (`apps`).
    other_ns: u64,
    other_events: u64,
    issue_ns: u64,
    pushes: u64,
    pops: u64,
    cascades: u64,
    peak_pending: u64,
    transmits: u64,
    tlp: TlpCounts,
    allocs: u64,
    alloc_bytes: u64,
    payload: u64,
    stall_ps: u128,
    busy_ps: u128,
    replays: u64,
    /// Simulated time of every stepped event, in dispatch order, on one
    /// timeline: each fabric's clock is offset by where the last one ended.
    times: Vec<u64>,
    time_base: u64,
}

impl Default for FabricTrace {
    fn default() -> FabricTrace {
        FabricTrace {
            kind_n: [0; 3],
            kind_ns: [0; 3],
            other_ns: 0,
            other_events: 0,
            issue_ns: 0,
            pushes: 0,
            pops: 0,
            cascades: 0,
            peak_pending: 0,
            transmits: 0,
            tlp: TlpCounts::default(),
            allocs: 0,
            alloc_bytes: 0,
            payload: 0,
            stall_ps: 0,
            busy_ps: 0,
            replays: 0,
            // Reserved up front so recording never allocates inside the
            // counted windows.
            times: Vec::with_capacity(REPLAY_CAP),
            time_base: 0,
        }
    }
}

fn add_tlp(acc: &mut TlpCounts, d: TlpCounts) {
    acc.constructed += d.constructed;
    acc.cloned += d.cloned;
    acc.relay_hops += d.relay_hops;
}

impl FabricTrace {
    /// Runs `f` — calls that issue work into a fabric — as a counted,
    /// timed window; returns its result and host time.
    fn issue<R>(&mut self, f: impl FnOnce() -> R) -> (R, Duration) {
        let (tlp0, alloc0) = (tlp_counts(), alloc_snapshot());
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        self.issue_ns += d.as_nanos() as u64;
        self.count_window(tlp0, alloc0);
        (r, d)
    }

    fn count_window(&mut self, tlp0: TlpCounts, alloc0: tca_sim::AllocSnapshot) {
        add_tlp(&mut self.tlp, tlp_counts().since(&tlp0));
        let a = alloc_snapshot().since(&alloc0);
        self.allocs += a.allocs;
        self.alloc_bytes += a.bytes_allocated;
    }

    /// Drains `fabric` one event at a time, timing each dispatch by kind.
    pub fn drain(&mut self, fabric: &mut Fabric) {
        let (tlp0, alloc0) = (tlp_counts(), alloc_snapshot());
        loop {
            let t = Instant::now();
            let Some(kind) = fabric.step_kind() else {
                break;
            };
            let ns = t.elapsed().as_nanos() as u64;
            let i = KINDS.iter().position(|&k| k == kind).expect("known kind");
            self.kind_n[i] += 1;
            self.kind_ns[i] += ns;
            if self.times.len() < REPLAY_CAP {
                self.times.push(self.time_base + fabric.now().as_ps());
            }
        }
        self.count_window(tlp0, alloc0);
    }

    /// Charges `host` and `events` of a drain that ran inside library
    /// calls, where it cannot be split by kind.
    fn untraced(&mut self, host: Duration, events: u64) {
        self.other_ns += host.as_nanos() as u64;
        self.other_events += events;
    }

    /// Folds in the queue, dispatch and link counters of a finished fabric
    /// that moved `payload` bytes.
    fn fabric_done(&mut self, fabric: &Fabric, payload: u64) {
        let q = fabric.queue_prof();
        self.pushes += q.pushes;
        self.pops += q.pops;
        self.cascades += q.cascades;
        self.peak_pending = self.peak_pending.max(q.peak_pending);
        self.transmits += fabric.prof().tlp_transmits;
        self.payload += payload;
        self.time_base = self.times.last().copied().unwrap_or(0);
        for l in 0..fabric.link_count() as u32 {
            for dir in Dir::ALL {
                let s = fabric.link_stats(LinkId(l), dir);
                self.stall_ps += u128::from(s.credit_stall.as_ps());
                self.busy_ps += u128::from(s.wire_busy.as_ps());
                self.replays += s.replays;
            }
        }
    }

    /// Replays the recorded event times through a bare [`EventQueue`],
    /// keeping as many events pending as the fabrics' peak: the queue's
    /// own cost per event, without any device work.
    fn replay(&self) -> (f64, f64) {
        let times = &self.times;
        let ahead = (self.peak_pending as usize).clamp(1, times.len());
        let mut q: EventQueue<()> = EventQueue::new();
        for &t in &times[..ahead] {
            q.schedule_at(SimTime::from_ps(t), ());
        }
        let mut next = ahead;
        let t = Instant::now();
        while q.pop().is_some() {
            if let Some(&at) = times.get(next) {
                q.schedule_at(SimTime::from_ps(at), ());
                next += 1;
            }
        }
        let ns = t.elapsed().as_nanos() as f64 / times.len() as f64;
        let p = q.prof();
        (ns, p.cascades as f64 / p.pushes as f64)
    }

    /// Writes the engine, fabric, memory, TLP and link metrics. A ratio
    /// whose base is zero was not measured here and stays unset.
    fn emit(&self, m: &mut Layers) {
        m.set("sim.engine.events", self.pops as f64);
        m.set("sim.engine.peak_pending", self.peak_pending as f64);
        m.set("pcie.tlp.cloned", self.tlp.cloned as f64);
        m.set("pcie.link.replays", self.replays as f64);
        if !self.times.is_empty() {
            let (ns, cascades) = self.replay();
            m.set("sim.engine.replay_ns_per_event", ns);
            m.set("sim.engine.replay_cascades_per_push", cascades);
        }
        let drained = (self.kind_n.iter().sum::<u64>() + self.other_events) as f64;
        let drain_ns = (self.kind_ns.iter().sum::<u64>() + self.other_ns) as f64;
        let (issue_ns, transmits) = (self.issue_ns as f64, self.transmits as f64);
        let mut ratio = |name: &'static str, num: f64, den: f64| {
            if den > 0.0 {
                m.set(name, num / den);
            }
        };
        ratio(
            "sim.engine.pushes_per_event",
            self.pushes as f64,
            self.pops as f64,
        );
        ratio(
            "sim.engine.cascades_per_push",
            self.cascades as f64,
            self.pushes as f64,
        );
        ratio("pcie.fabric.ns_per_event", drain_ns, drained);
        ratio("pcie.fabric.events_per_s", drained * 1e9, drain_ns);
        for (i, name) in [
            "pcie.fabric.deliver_ns",
            "pcie.fabric.timer_ns",
            "pcie.fabric.credit_ns",
        ]
        .into_iter()
        .enumerate()
        {
            ratio(name, self.kind_ns[i] as f64, self.kind_n[i] as f64);
        }
        if issue_ns > 0.0 {
            ratio("pcie.fabric.issue_share", issue_ns, issue_ns + drain_ns);
        }
        ratio(
            "pcie.memory.alloc_bytes_per_payload_byte",
            self.alloc_bytes as f64,
            self.payload as f64,
        );
        ratio("pcie.memory.allocs_per_event", self.allocs as f64, drained);
        ratio(
            "pcie.tlp.constructed_per_transmit",
            self.tlp.constructed as f64,
            transmits,
        );
        ratio(
            "pcie.tlp.relay_hops_per_transmit",
            self.tlp.relay_hops as f64,
            transmits,
        );
        ratio(
            "pcie.link.credit_stall_per_busy",
            self.stall_ps as f64,
            self.busy_ps as f64,
        );
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

// ---------------------------------------------------------------------------
// dma-sweep: Fig. 7 at 4 KiB, 64 KiB and 1 MiB in all four directions, plus
// the Fig. 12 remote writes at 64 KiB.
// ---------------------------------------------------------------------------

/// What a traced DMA point targets (the Fig. 7 / Fig. 12 curves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Local host DRAM.
    LocalCpu,
    /// Local pinned GPU memory.
    LocalGpu,
    /// The adjacent node's host DRAM.
    RemoteCpu,
    /// The adjacent node's GPU memory.
    RemoteGpu,
}

/// One traced DMA point: its golden (sweep key, size, column).
pub struct DmaPoint {
    /// Target memory.
    pub target: Target,
    /// PEACH2 → target (true) or target → PEACH2.
    pub write: bool,
    /// Bytes per descriptor.
    pub size: u64,
    /// Golden sweep holding the expected bandwidth.
    pub golden: &'static str,
    /// Column of that sweep.
    pub column: &'static str,
}

/// The traced DMA subset.
pub fn dma_points() -> Vec<DmaPoint> {
    let mut v = Vec::new();
    for size in [4 << 10, 64 << 10, 1 << 20] {
        for (target, write, column) in [
            (Target::LocalCpu, true, "cpu_write_bps"),
            (Target::LocalCpu, false, "cpu_read_bps"),
            (Target::LocalGpu, true, "gpu_write_bps"),
            (Target::LocalGpu, false, "gpu_read_bps"),
        ] {
            v.push(DmaPoint {
                target,
                write,
                size,
                golden: "fig7-tca",
                column,
            });
        }
    }
    for (target, column) in [
        (Target::RemoteCpu, "cpu_remote_write_bps"),
        (Target::RemoteGpu, "gpu_remote_write_bps"),
    ] {
        v.push(DmaPoint {
            target,
            write: true,
            size: 64 << 10,
            golden: "fig12-tca",
            column,
        });
    }
    v
}

/// Chained descriptors per DMA point (the Fig. 7 maximum).
const CHAIN: u64 = 255;

/// Runs one point the way `tca_bench::dma_bandwidth` does — 255 chained
/// descriptors on the legacy engine, doorbell→interrupt window — but issues
/// it through `write_descriptors` / `program_dma` / `ring_doorbell` and
/// drains it step by step. Returns the bandwidth and the issue host time.
pub fn dma_point(ft: &mut FabricTrace, p: &DmaPoint) -> (f64, Duration) {
    let (mut fabric, sc, drivers) = ring_rig(2);
    let d = drivers[0];
    let other = match p.target {
        Target::LocalCpu => d.dma_buf,
        Target::RemoteCpu => sc.map.global_addr(1, TcaBlock::Host, 0x4000_0000),
        Target::LocalGpu | Target::RemoteGpu => {
            let node = usize::from(p.target == Target::RemoteGpu);
            let gpu = fabric.device_mut::<Gpu>(sc.nodes[node].gpus[0]);
            let a = gpu.alloc(p.size);
            let token = gpu.p2p_token(a, p.size);
            let bar = gpu.pin(a, p.size, token);
            if p.target == Target::LocalGpu {
                bar
            } else {
                sc.map.global_addr(1, TcaBlock::Gpu0, a)
            }
        }
    };
    let sram = d.sram_addr(0);
    if p.write {
        fabric
            .device_mut::<Peach2>(sc.chips[0])
            .sram_mut()
            .fill_pattern(0, p.size, 0x3c);
    }
    let descs: Vec<Descriptor> = (0..CHAIN)
        .map(|_| match p.write {
            true => Descriptor::new(sram, other, p.size),
            false => Descriptor::new(other, sram, p.size),
        })
        .collect();
    let vector = fabric.device::<Peach2>(d.chip).params().dma_msi_vector;
    let (t0, issue) = ft.issue(|| {
        d.write_descriptors(&mut fabric, &descs);
        d.program_dma(&mut fabric, CHAIN as u32, EngineKind::Legacy);
        d.ring_doorbell(&mut fabric)
    });
    ft.drain(&mut fabric);
    let entry = fabric
        .device::<HostBridge>(d.host)
        .core()
        .interrupts()
        .iter()
        .rev()
        .find(|i| i.2 == vector)
        .expect("DMA completion interrupt arrived")
        .1;
    let bytes = CHAIN * p.size;
    ft.fabric_done(&fabric, bytes);
    (bytes as f64 / entry.since(t0).as_s_f64(), issue)
}

/// The golden value of column `column` in the row of `rows` whose `key`
/// field equals `value`.
pub fn golden_cell(rows: &[JsonValue], key: &str, value: u64, column: &str) -> Option<JsonValue> {
    rows.iter()
        .find(|r| r.get(key).and_then(JsonValue::as_u64) == Some(value))
        .and_then(|r| r.get(column).cloned())
}

fn dma_sweep(m: &mut Layers, checks: &mut Checks) {
    let mut ft = FabricTrace::default();
    let mut issue_us = Vec::new();
    for p in dma_points() {
        let (bw, issue) = dma_point(&mut ft, &p);
        issue_us.push(us(issue));
        let want = golden_cell(&golden::load_parsed(p.golden), "size", p.size, p.column);
        checks.record(want == Some(JsonValue::from(bw)), || {
            format!(
                "traced {} {} at {} B: {bw} vs golden {want:?}",
                p.golden, p.column, p.size
            )
        });
    }
    ft.emit(m);
    m.set("peach2.driver.issue_us", stats::median(&issue_us));
}

// ---------------------------------------------------------------------------
// apps: every kernel on every backend through `Timed<W>`.
// ---------------------------------------------------------------------------

/// A `CommWorld` whose fabric the tracer can read.
trait WithFabric: CommWorld {
    /// The simulated fabric.
    fn fabric(&self) -> &Fabric;
}

impl WithFabric for TcaCluster {
    fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

impl WithFabric for MpiBackend {
    fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

/// The app kernels and the node counts their sweeps run, as in the
/// `tca-bench` registry.
pub const APP_POINTS: [(&str, &[u32]); 4] = [
    ("cg", &[2, 4, 8]),
    ("stencil", &[2, 4, 8]),
    ("stencil2d", &[2, 4]),
    ("nbody", &[2, 4]),
];

fn jf(v: f64) -> JsonValue {
    JsonValue::from(v)
}

/// Runs `kernel` on `c` and returns its sweep row exactly as `tca-bench
/// --json` prints it, or why the kernel's own numerical check failed.
pub fn app_row(kernel: &str, nodes: u32, c: &mut impl CommWorld) -> Result<JsonValue, String> {
    let n = JsonValue::from(nodes);
    let fields = match kernel {
        "cg" => {
            let r = tca_apps::cg_solve(c, 64, 1e-10, 1000);
            if r.max_error >= 1e-6 {
                return Err(format!("CG diverged: {r:?}"));
            }
            vec![
                ("nodes", n),
                ("iterations", JsonValue::from(r.iterations as u64)),
                ("residual", jf(r.residual)),
                ("max_error", jf(r.max_error)),
                ("comm_us", jf(r.comm_time.as_us_f64())),
                ("elapsed_us", jf(r.elapsed.as_us_f64())),
            ]
        }
        "stencil" => {
            let cfg = tca_apps::StencilConfig {
                cols: 64,
                rows_per_rank: 16,
                iters: 4,
            };
            let r = tca_apps::stencil_run(c, cfg);
            if r.max_error != 0.0 {
                return Err(format!("stencil drifted: {r:?}"));
            }
            vec![
                ("nodes", n),
                ("halo_bytes", JsonValue::from(r.halo_bytes)),
                ("comm_us", jf(r.comm_time.as_us_f64())),
                ("elapsed_us", jf(r.elapsed.as_us_f64())),
            ]
        }
        "stencil2d" => {
            let r = tca_apps::stencil2d_run(c, tca_apps::Stencil2dConfig::default());
            if r.max_error != 0.0 {
                return Err(format!("stencil2d drifted: {r:?}"));
            }
            vec![
                ("nodes", n),
                ("vertical_us", jf(r.vertical_comm.as_us_f64())),
                ("horizontal_us", jf(r.horizontal_comm.as_us_f64())),
            ]
        }
        "nbody" => {
            let r = tca_apps::nbody_run(c, 16, 4, 1e-3);
            if r.max_error != 0.0 {
                return Err(format!("n-body drifted: {r:?}"));
            }
            vec![
                ("nodes", n),
                ("comm_us", jf(r.comm_time.as_us_f64())),
                ("elapsed_us", jf(r.elapsed.as_us_f64())),
            ]
        }
        other => panic!("unknown app kernel '{other}'"),
    };
    let mut row = JsonValue::object();
    row.push("label", JsonValue::from(format!("{nodes} nodes")));
    row.push(
        "config_fnv",
        JsonValue::from(tca_core::default_fingerprint_hex()),
    );
    for (k, v) in fields {
        row.push(k, v);
    }
    Ok(row)
}

/// Host scratch word for the closing allreduce (clear of every backend's
/// buffers).
const SCRATCH: u64 = 0x7000_0000;

/// Runs `kernel` on `world` through [`Timed`], then one barrier and one
/// scalar allreduce (no kernel calls the former, and not every one the
/// latter, so every category gets timed); returns the row, the host wall
/// time and the per-category communication time.
fn traced_app<W: WithFabric>(
    kernel: &str,
    nodes: u32,
    world: W,
    ft: &mut FabricTrace,
) -> (Result<JsonValue, String>, Duration, CommTimes) {
    let mut w = Timed::new(world);
    let (tlp0, alloc0) = (tlp_counts(), alloc_snapshot());
    let t = Instant::now();
    let row = app_row(kernel, nodes, &mut w);
    w.barrier();
    w.allreduce_scalar_f64(SCRATCH);
    let wall = t.elapsed();
    ft.count_window(tlp0, alloc0);
    ft.untraced(w.times.total(), w.inner.fabric().queue_prof().pops);
    ft.fabric_done(w.inner.fabric(), 0);
    (row, wall, w.times)
}

const APP_BACKENDS: [&str; 3] = ["tca", "mpi", "mpi-gpudirect"];

/// Kernels of the `comm_probe`: one put-heavy, one allgather-heavy.
const COMM_PROBE_POINTS: [(&str, &[u32]); 2] = [("stencil", &[2]), ("nbody", &[2])];

/// Runs `points` on every backend through [`Timed`], each row checked
/// against its golden.
fn apps(points: &[(&str, &[u32])], m: &mut Layers, checks: &mut Checks) {
    let mut ft = FabricTrace::default();
    let mut cat = [Duration::ZERO; 5];
    let mut per_backend = [Duration::ZERO; 3];
    let mut compute = Duration::ZERO;
    for &(kernel, node_counts) in points {
        for (b, backend) in APP_BACKENDS.into_iter().enumerate() {
            let key = format!("{kernel}-{backend}");
            let want = golden::load_parsed(&key);
            for &nodes in node_counts {
                let (row, wall, t) = match backend {
                    "tca" => {
                        let c = TcaClusterBuilder::new(nodes).build();
                        traced_app(kernel, nodes, c, &mut ft)
                    }
                    "mpi" => {
                        let c = MpiBackend::new(nodes, MpiGpuMode::Staged);
                        traced_app(kernel, nodes, c, &mut ft)
                    }
                    _ => {
                        let c = MpiBackend::new(nodes, MpiGpuMode::GpuDirect);
                        traced_app(kernel, nodes, c, &mut ft)
                    }
                };
                let label = JsonValue::from(format!("{nodes} nodes"));
                let golden = want.iter().find(|r| r.get("label") == Some(&label));
                checks.record(row.as_ref().ok() == golden, || {
                    format!("traced {key} at {nodes} nodes: {row:?} vs golden {golden:?}")
                });
                for (slot, d) in cat.iter_mut().zip([
                    t.put.get(),
                    t.barrier.get(),
                    t.allgather.get(),
                    t.allreduce.get(),
                    t.data.get(),
                ]) {
                    *slot += d;
                }
                per_backend[b] += t.total();
                compute += wall.saturating_sub(t.total());
            }
        }
    }
    ft.emit(m);
    for (name, d) in [
        "core.comm.put_s",
        "core.comm.barrier_s",
        "core.comm.allgather_s",
        "core.comm.allreduce_s",
        "core.comm.data_s",
    ]
    .into_iter()
    .zip(cat)
    {
        m.set(name, d.as_secs_f64());
    }
    for (name, d) in [
        "core.comm.tca_s",
        "core.comm.mpi_s",
        "core.comm.mpi-gpudirect_s",
    ]
    .into_iter()
    .zip(per_backend)
    {
        m.set(name, d.as_secs_f64());
    }
    m.set("apps.compute_s", compute.as_secs_f64());
}

// ---------------------------------------------------------------------------
// ring-traffic: the first quarter of the rounds, drained step by step.
// ---------------------------------------------------------------------------

fn ring_traffic(seed: u64, m: &mut Layers, checks: &mut Checks) {
    let plan = ring::generate(seed, ring::ROUNDS / 4);
    let mut world = ring::World::new();
    let mut ft = FabricTrace::default();
    let mut issue = Duration::ZERO;
    let mut pio_us = Vec::new();
    let mut payload = 0;
    for round in &plan {
        let (events, d) = ft.issue(|| world.issue(round));
        issue += d;
        ft.drain(&mut world.cluster.fabric);
        // Already complete: the waits only confirm each interrupt arrived.
        world.complete(events);
        let t = Instant::now();
        world.pio(round);
        pio_us.push(us(t.elapsed()));
        world.verify(round, checks);
        payload += round.puts.iter().map(|p| p.len).sum::<u64>();
    }
    ft.fabric_done(&world.cluster.fabric, payload);
    ft.emit(m);
    let puts = (plan.len() * ring::NODES as usize) as f64;
    m.set("core.api.issue_us_per_put", us(issue) / puts);
    m.set("core.api.pio_put_us", stats::median(&pio_us));
}

// ---------------------------------------------------------------------------
// small-sweeps: the verifier over the topology registry, and the price of
// each observer on a 2-node put-latency point.
// ---------------------------------------------------------------------------

fn verify_registry(m: &mut Layers, checks: &mut Checks) {
    let want = golden::load_parsed("topo-registry-tca");
    let (mut analyze, mut lint) = (Duration::ZERO, Duration::ZERO);
    for entry in tca_core::presets::topology_registry() {
        let spec = (entry.build)();
        let t = Instant::now();
        let an = tca_verify::analyze(&spec);
        analyze += t.elapsed();
        let t = Instant::now();
        let rep = tca_verify::lint_topo(&spec);
        lint += t.elapsed();
        let tm = tca_verify::topo_metrics(&spec, &an);
        let got = [
            tm.cdg_edges as u64,
            tm.cycles as u64,
            rep.error_count() as u64,
            rep.warning_count() as u64,
        ];
        let row = want
            .iter()
            .find(|r| r.get("label").and_then(JsonValue::as_str) == Some(entry.name));
        let golden: Option<Vec<u64>> = row.map(|r| {
            ["cdg_edges", "cdg_cycles", "errors", "warnings"]
                .iter()
                .filter_map(|k| r.get(k).and_then(JsonValue::as_u64))
                .collect()
        });
        checks.record(golden.as_deref() == Some(&got[..]), || {
            format!("verify of {}: {got:?} vs golden {golden:?}", entry.name)
        });
    }
    m.set("verify.analyze_ms", analyze.as_secs_f64() * 1e3);
    m.set("verify.lint_ms", lint.as_secs_f64() * 1e3);
}

/// An observer the fabric can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Observer {
    /// None: the baseline.
    Off,
    /// Causal span tracing.
    Spans,
    /// Gauge sampling every 250 ns.
    Sampler,
    /// Progress watchdog with a 200 µs window.
    Watchdog,
    /// Flight recorder, 65536-event ring.
    Flight,
}

/// Bytes of the observed put-latency point.
const OBSERVED_SIZE: u64 = 64 << 10;

/// The `put-latency` point at 64 KiB on the TCA backend with `obs` on;
/// returns its `(host_us, gpu_us)` row values.
fn put_latency_point(obs: Observer) -> (f64, f64) {
    let size = OBSERVED_SIZE;
    let mut c = TcaClusterBuilder::new(2).build();
    match obs {
        Observer::Off => {}
        Observer::Spans => c.fabric.set_span_tracing(true),
        Observer::Sampler => c.enable_sampling(Dur::from_ns(250)),
        Observer::Watchdog => c.arm_watchdog(Dur::from_us(200)),
        Observer::Flight => c.enable_flight(65536, false),
    }
    c.write(&MemRef::host(0, 0x4000_0000), &vec![3u8; size as usize]);
    let host_us = c
        .put(
            &MemRef::host(1, 0x4400_0000),
            &MemRef::host(0, 0x4000_0000),
            size,
        )
        .as_us_f64();
    let a = c.alloc_gpu(0, 0, size);
    let b = c.alloc_gpu(1, 0, size);
    c.write(&a.at(0), &vec![4u8; size as usize]);
    let gpu_us = c.put(&b.at(0), &a.at(0), size).as_us_f64();
    (host_us, gpu_us)
}

/// Timed repetitions per observer variant.
const OBS_REPS: usize = 15;

fn pct(on: &[f64], off: &[f64]) -> f64 {
    (stats::median(on) / stats::median(off) - 1.0) * 100.0
}

fn observers(m: &mut Layers, checks: &mut Checks) {
    let want = golden::load_parsed("put-latency-tca");
    let golden = (
        golden_cell(&want, "size", OBSERVED_SIZE, "host_us"),
        golden_cell(&want, "size", OBSERVED_SIZE, "gpu_us"),
    );
    let variants = [
        (Observer::Off, ""),
        (Observer::Spans, "obs.spans.overhead_pct"),
        (Observer::Sampler, "obs.sampler.overhead_pct"),
        (Observer::Watchdog, "obs.watchdog.overhead_pct"),
        (Observer::Flight, "obs.flight.overhead_pct"),
    ];
    let mut walls = vec![Vec::new(); variants.len()];
    for _ in 0..OBS_REPS {
        for (i, &(obs, _)) in variants.iter().enumerate() {
            let t = Instant::now();
            let (host_us, gpu_us) = black_box(put_latency_point(obs));
            walls[i].push(t.elapsed().as_secs_f64());
            let got = (Some(jf(host_us)), Some(jf(gpu_us)));
            checks.record(got == golden, || {
                format!("put-latency 64 KiB with {obs:?}: {got:?} vs golden {golden:?}")
            });
        }
    }
    for (i, &(_, name)) in variants.iter().enumerate().skip(1) {
        m.set(name, pct(&walls[i], &walls[0]));
    }
}

/// The traced drain's own cost: a 64 KiB put on a 2-node cluster drained
/// by `step_kind` with a timer per event vs one `run_until_idle`. The
/// stepped drains also feed the fabric layers of `small-sweeps`.
fn step_timing(m: &mut Layers, checks: &mut Checks) {
    let mut ft = FabricTrace::default();
    let (mut stepped, mut batched) = (Vec::new(), Vec::new());
    for _ in 0..OBS_REPS {
        for traced in [true, false] {
            let mut c = TcaClusterBuilder::new(2).build();
            c.write(
                &MemRef::host(0, 0x4000_0000),
                &vec![5u8; OBSERVED_SIZE as usize],
            );
            let (dst, src) = (MemRef::host(1, 0x4400_0000), MemRef::host(0, 0x4000_0000));
            let ev = if traced {
                ft.issue(|| c.memcpy_peer_async(&dst, &src, OBSERVED_SIZE))
                    .0
            } else {
                c.memcpy_peer_async(&dst, &src, OBSERVED_SIZE)
            };
            let t = Instant::now();
            if traced {
                ft.drain(&mut c.fabric);
                stepped.push(t.elapsed().as_secs_f64());
                ft.fabric_done(&c.fabric, OBSERVED_SIZE);
            } else {
                c.fabric.run_until_idle();
                batched.push(t.elapsed().as_secs_f64());
            }
            c.wait(ev);
            let ok = c.read(&MemRef::host(1, 0x4400_0000), OBSERVED_SIZE as usize)
                == vec![5u8; OBSERVED_SIZE as usize];
            checks.record(ok, || "step-timing put read back wrong".into());
        }
    }
    ft.emit(m);
    m.set("obs.step_timing.overhead_pct", pct(&stepped, &batched));
}

/// Direct `PageMemory` copies at 256 B and 4 KiB: host ns per KiB copied.
fn memory_copies(m: &mut Layers) {
    const BYTES: u64 = 4 << 20;
    let mut mem = PageMemory::new();
    mem.fill_pattern(0, BYTES, 0x5a);
    let cases: [(u64, [&'static str; 3]); 2] = [
        (
            256,
            [
                "pcie.memory.read_256b_ns_per_kib",
                "pcie.memory.read_into_256b_ns_per_kib",
                "pcie.memory.write_256b_ns_per_kib",
            ],
        ),
        (
            4096,
            [
                "pcie.memory.read_4k_ns_per_kib",
                "pcie.memory.read_into_4k_ns_per_kib",
                "pcie.memory.write_4k_ns_per_kib",
            ],
        ),
    ];
    for (chunk, [read, read_into, write]) in cases {
        let kib = BYTES as f64 / 1024.0;
        let mut buf = vec![0u8; chunk as usize];
        let per_kib = |f: &mut dyn FnMut(u64)| {
            let t = Instant::now();
            for addr in (0..BYTES).step_by(chunk as usize) {
                f(addr);
            }
            t.elapsed().as_nanos() as f64 / kib
        };
        m.set(
            read,
            per_kib(&mut |a| drop(black_box(mem.read(a, chunk as usize)))),
        );
        m.set(
            read_into,
            per_kib(&mut |a| mem.read_into(a, black_box(&mut buf))),
        );
        let data = vec![0xa5u8; chunk as usize];
        let mut dst = PageMemory::new();
        m.set(write, per_kib(&mut |a| dst.write(a, black_box(&data))));
    }
}

/// `peach2::driver` on a fixed chain: 16 descriptors of 4 KiB from board
/// SRAM to host memory on a 2-node rig, issued eight times.
fn driver_probe(m: &mut Layers, checks: &mut Checks) {
    let mut issue_us = Vec::new();
    for _ in 0..8 {
        let (mut fabric, _, drivers) = ring_rig(2);
        let d = drivers[0];
        let descs: Vec<Descriptor> = (0..16)
            .map(|i| Descriptor::new(d.sram_addr(0), d.dma_buf + i * 4096, 4096))
            .collect();
        let t = Instant::now();
        d.write_descriptors(&mut fabric, &descs);
        d.program_dma(&mut fabric, 16, EngineKind::Legacy);
        d.ring_doorbell(&mut fabric);
        issue_us.push(us(t.elapsed()));
        fabric.run_until_idle();
        let vector = fabric.device::<Peach2>(d.chip).params().dma_msi_vector;
        let irqs = fabric
            .device::<HostBridge>(d.host)
            .core()
            .interrupt_count(vector);
        checks.record(irqs == 1, || {
            format!("driver probe: {irqs} completion interrupts")
        });
    }
    m.set("peach2.driver.issue_us", stats::median(&issue_us));
}

/// `core::api` on a fixed pattern: eight rounds of one 4 KiB
/// `memcpy_peer_async` and one 8-byte `pio_put` across a 2-node cluster.
fn api_probe(m: &mut Layers, checks: &mut Checks) {
    let mut c = TcaClusterBuilder::new(2).build();
    let (src, dst, flag) = (
        MemRef::host(0, 0x4000_0000),
        MemRef::host(1, 0x4400_0000),
        MemRef::host(1, 0x4800_0000),
    );
    c.write(&src, &[7u8; 4096]);
    let (mut issue, mut pio) = (Vec::new(), Vec::new());
    for i in 0..8u8 {
        let t = Instant::now();
        let ev = c.memcpy_peer_async(&dst, &src, 4096);
        issue.push(us(t.elapsed()));
        c.wait(ev);
        c.synchronize();
        let t = Instant::now();
        c.pio_put(0, &flag, &[i; 8]);
        pio.push(us(t.elapsed()));
        let ok = c.read(&dst, 4096) == [7u8; 4096] && c.read(&flag, 8) == [i; 8];
        checks.record(ok, || "api probe read back wrong".into());
    }
    m.set("core.api.issue_us_per_put", stats::median(&issue));
    m.set("core.api.pio_put_us", stats::median(&pio));
}

/// `core::comm` on fixed kernels: stencil and n-body on two nodes of every
/// backend.
fn comm_probe(m: &mut Layers, checks: &mut Checks) {
    apps(&COMM_PROBE_POINTS, m, checks);
}

/// Runs, for each layer `m` has no measurement of yet, that layer's fixed
/// probe; keyed by a metric only that probe sets. The `small-sweeps`
/// subset doubles as the probe of the verifier, the observers and the
/// stepped drain (which also covers the fabric layers `apps` cannot step).
fn fill_unmeasured(m: &mut Layers, checks: &mut Checks) {
    type Probe = fn(&mut Layers, &mut Checks);
    let probes: [(&str, Probe); 6] = [
        ("verify.analyze_ms", verify_registry),
        ("obs.spans.overhead_pct", observers),
        ("obs.step_timing.overhead_pct", step_timing),
        ("peach2.driver.issue_us", driver_probe),
        ("core.api.pio_put_us", api_probe),
        ("core.comm.put_s", comm_probe),
    ];
    for (marker, probe) in probes {
        if !m.has(marker) {
            let mut p = Layers::default();
            probe(&mut p, checks);
            m.fill(p);
        }
    }
}

/// One traced rep: `w`'s subset, then a probe of every layer it left
/// unmeasured.
pub fn traced_rep(w: &Workload, seed: u64) -> (Layers, Checks) {
    let mut m = Layers::default();
    let mut checks = Checks::default();
    match w.name {
        "dma-sweep" => dma_sweep(&mut m, &mut checks),
        "apps" => apps(&APP_POINTS, &mut m, &mut checks),
        "ring-traffic" => ring_traffic(seed, &mut m, &mut checks),
        "small-sweeps" => {
            verify_registry(&mut m, &mut checks);
            observers(&mut m, &mut checks);
            step_timing(&mut m, &mut checks);
        }
        other => panic!("no traced subset for '{other}'"),
    }
    fill_unmeasured(&mut m, &mut checks);
    memory_copies(&mut m);
    (m, checks)
}

// ---------------------------------------------------------------------------
// Probes of the CLI and the machine.
// ---------------------------------------------------------------------------

/// Runs `cmd` to completion; its host wall time and, if it succeeded, its
/// stdout.
fn timed_output(mut cmd: Command) -> (Duration, Option<String>) {
    let t = Instant::now();
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output();
    let wall = t.elapsed();
    let stdout = out
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
    (wall, stdout)
}

/// Probes that run the CLI itself: start-up cost and the sweep runner's
/// parallel efficiency on the workload's probe sweep — its `--jobs 1` wall
/// (`jobs1`, when the caller already measured it) against `--jobs 2`, with
/// each output checked against the golden.
pub fn probes(w: &Workload, tca_bench: &Path, jobs1: Option<f64>) -> (Layers, Checks) {
    let mut m = Layers::default();
    let mut checks = Checks::default();
    let spawn: Vec<f64> = (0..20)
        .map(|_| {
            let mut list = Command::new(tca_bench);
            list.arg("--list");
            timed_output(list).0.as_secs_f64() * 1e3
        })
        .collect();
    m.set("bench.cli.spawn_ms", stats::median(&spawn));
    if let Some((scenario, backend)) = w.probe {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let mut run = |j: usize| {
            let (wall, out) = timed_output(sweep_command(tca_bench, scenario, backend, j));
            let key = format!("{scenario}-{backend}");
            match out {
                Some(o) => checks.add(golden::check(&golden::dir(), &key, &o)),
                None => checks.fail_all(1, &format!("{key} --jobs {j} failed")),
            }
            wall.as_secs_f64()
        };
        let serial = jobs1.unwrap_or_else(|| run(1));
        let parallel = run(jobs);
        m.set(
            "bench.sweep.parallel_eff",
            serial / (jobs as f64 * parallel),
        );
    }
    m.set("bench.calib_ms", Calib::new().median_ms(5));
    (m, checks)
}
