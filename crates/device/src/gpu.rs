//! The GPU device model.
//!
//! Models what PEACH2 sees of a Kepler GPU through GPUDirect Support for
//! RDMA (§III-C): a BAR window through which *pinned* pages of device
//! memory are accessible to other PCIe devices.
//!
//! * **Pinning** follows the CUDA 5 flow the paper lists in §IV-A2:
//!   allocate (`cuMemAlloc` → [`Gpu::alloc`]), obtain the P2P token
//!   (`cuPointerGetAttribute` → [`Gpu::p2p_token`]), pin via the P2P
//!   driver ([`Gpu::pin`]), after which the region has a PCIe address.
//! * **Writes** into pinned pages sink at full link rate — the paper finds
//!   DMA write to the GPU equal to DMA write to the CPU (Fig. 7) and
//!   remote writes equally fast (Fig. 12) because "the GPU is assumed to
//!   be of sufficient size for the request queue".
//! * **Reads** pass through a serial address-translation unit limited to
//!   [`crate::GpuParams::read_rate`] — reproducing the 830 MB/s DMA-read
//!   ceiling of §IV-A2.
//! * Accesses to unpinned pages are protection faults: counted, writes
//!   dropped, reads answered with zeros (an Unsupported Request would
//!   abort the DMA; zero-fill keeps the experiment observable).

use crate::params::GpuParams;
use std::collections::VecDeque;
use tca_pcie::{
    AddrRange, Bytes, Ctx, Device, DeviceId, PageMemory, PortIdx, Tlp, TlpKind, PAGE_SIZE,
};
use tca_sim::{
    BandwidthMeter, Counter, CounterId, Dur, GaugeId, HistogramId, LatencyHistogram, MeterId,
    MetricsHub, SimTime,
};

/// Opaque pin token, as returned by the `cuPointerGetAttribute` step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct P2pToken(u64);

struct PendingGpuRead {
    port: PortIdx,
    addr: u64,
    len: u32,
    tag: tca_pcie::Tag,
    requester: DeviceId,
    /// Receive credits held while the request sits in the translation
    /// unit's queue — real BAR backpressure toward the link.
    credits: tca_pcie::CreditHold,
    /// Arrival instant, for the queue-wait histogram.
    queued_at: SimTime,
}

/// One GPU attached to a host bridge.
pub struct Gpu {
    #[allow(dead_code)]
    id: DeviceId,
    name: String,
    params: GpuParams,
    bar: AddrRange,
    gddr: PageMemory,
    /// Next free device address for [`Gpu::alloc`] (bump allocator, like a
    /// fresh CUDA context).
    alloc_cursor: u64,
    /// Pinned regions, in *device-address* space (identical to BAR offsets).
    pinned: Vec<AddrRange>,
    read_q: VecDeque<PendingGpuRead>,
    read_busy: bool,
    /// Deepest the translation queue has ever been.
    read_q_peak: usize,
    /// Reads served through the BAR1 translation unit.
    pub reads_served: Counter,
    /// Accumulated translation-unit service time (the serial bottleneck
    /// behind the 830 MB/s read ceiling, §IV-A2).
    translate_busy: Dur,
    /// Time read requests spent queued behind the translation unit.
    pub read_q_wait_hist: LatencyHistogram,
    /// Protection faults (unpinned accesses).
    pub faults: Counter,
    /// Inbound write throughput at the GDDR sink.
    pub write_meter: BandwidthMeter,
    /// Completion chunk for read responses.
    completion_chunk: u32,
    /// Cached metric ids so steady-state publishes skip name formatting.
    metric_ids: Option<GpuMetricIds>,
}

/// Metric handles resolved on the first publish and reused thereafter.
#[derive(Clone, Copy)]
struct GpuMetricIds {
    read_q_depth: GaugeId,
    reads: CounterId,
    translate_busy_ns: CounterId,
    read_q_wait_ns: HistogramId,
    faults: CounterId,
    write_bytes: MeterId,
}

impl GpuMetricIds {
    fn register(name: &str, hub: &mut MetricsHub) -> Self {
        GpuMetricIds {
            read_q_depth: hub.gauge(format!("{name}.bar1.read_q_depth")),
            reads: hub.counter(format!("{name}.bar1.reads")),
            translate_busy_ns: hub.counter(format!("{name}.bar1.translate_busy_ns")),
            read_q_wait_ns: hub.histogram(format!("{name}.bar1.read_q_wait_ns")),
            faults: hub.counter(format!("{name}.faults")),
            write_bytes: hub.meter(format!("{name}.write_bytes")),
        }
    }
}

const TAG_READ_DONE: u64 = 1;

impl Gpu {
    /// Creates a GPU whose BAR1 window is `bar` in the node-local map.
    pub fn new(id: DeviceId, name: impl Into<String>, bar: AddrRange, params: GpuParams) -> Self {
        assert!(
            bar.len() >= params.mem_size,
            "BAR window smaller than device memory"
        );
        Gpu {
            id,
            name: name.into(),
            params,
            bar,
            gddr: PageMemory::new(),
            alloc_cursor: 0,
            pinned: Vec::new(),
            read_q: VecDeque::new(),
            read_busy: false,
            read_q_peak: 0,
            reads_served: Counter::new(),
            translate_busy: Dur::ZERO,
            read_q_wait_hist: LatencyHistogram::new(),
            faults: Counter::new(),
            write_meter: BandwidthMeter::new(),
            completion_chunk: 256,
            metric_ids: None,
        }
    }

    /// The BAR1 window in the node-local PCIe map.
    pub fn bar(&self) -> AddrRange {
        self.bar
    }

    /// Direct (functional) access to device memory, standing in for CUDA
    /// kernels producing/consuming data.
    pub fn gddr(&mut self) -> &mut PageMemory {
        &mut self.gddr
    }

    /// Immutable device-memory access.
    pub fn gddr_ref(&self) -> &PageMemory {
        &self.gddr
    }

    /// Allocates `len` bytes of device memory (page-aligned), like
    /// `cuMemAlloc`. Returns the device address.
    #[track_caller]
    pub fn alloc(&mut self, len: u64) -> u64 {
        let addr = self.alloc_cursor;
        let len = tca_pcie::align_up(len.max(1), PAGE_SIZE);
        assert!(
            addr + len <= self.params.mem_size,
            "{}: out of device memory",
            self.name
        );
        self.alloc_cursor += len;
        addr
    }

    /// Step 2 of the GPUDirect flow: obtains the token authorizing the P2P
    /// driver to pin `[dev_addr, dev_addr+len)`.
    pub fn p2p_token(&self, dev_addr: u64, len: u64) -> P2pToken {
        P2pToken(dev_addr ^ (len << 1) ^ 0x7ca)
    }

    /// Step 3: pins the region into the BAR (page granularity), making it
    /// visible at the returned PCIe address. Requires the matching token.
    #[track_caller]
    pub fn pin(&mut self, dev_addr: u64, len: u64, token: P2pToken) -> u64 {
        assert_eq!(
            token,
            self.p2p_token(dev_addr, len),
            "bad P2P token (call p2p_token for this exact region)"
        );
        let base = tca_pcie::align_down(dev_addr, PAGE_SIZE);
        let end = tca_pcie::align_up(dev_addr + len, PAGE_SIZE);
        assert!(end <= self.params.mem_size, "pin outside device memory");
        self.pinned.push(AddrRange::span(base, end));
        self.bar.base() + dev_addr
    }

    /// Unpins a previously pinned region (by device address range).
    pub fn unpin(&mut self, dev_addr: u64, len: u64) {
        let base = tca_pcie::align_down(dev_addr, PAGE_SIZE);
        let end = tca_pcie::align_up(dev_addr + len, PAGE_SIZE);
        let target = AddrRange::span(base, end);
        self.pinned.retain(|r| *r != target);
    }

    /// PCIe address of a device address (valid only while pinned).
    pub fn pcie_addr(&self, dev_addr: u64) -> u64 {
        self.bar.base() + dev_addr
    }

    fn is_pinned(&self, dev_addr: u64, len: u64) -> bool {
        self.pinned.iter().any(|r| r.contains_access(dev_addr, len))
    }

    fn start_next_read(&mut self, ctx: &mut Ctx<'_>) {
        if self.read_busy {
            return;
        }
        if let Some(front) = self.read_q.front() {
            self.read_busy = true;
            self.read_q_wait_hist
                .record(ctx.now().since(front.queued_at));
            // Serial translation unit: fixed latency + len/rate service.
            let service =
                self.params.read_latency + Dur::for_bytes(front.len as u64, self.params.read_rate);
            self.translate_busy += service;
            ctx.timer_in(service, TAG_READ_DONE);
        }
    }
}

impl Device for Gpu {
    fn on_tlp(&mut self, port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
        match tlp.kind {
            TlpKind::MemWrite { addr, ref data } => {
                if !self.bar.contains_access(addr, data.len() as u64) {
                    panic!("{}: write outside BAR at {addr:#x}", self.name);
                }
                let dev_addr = addr - self.bar.base();
                if self.is_pinned(dev_addr, data.len() as u64) {
                    self.gddr.write(dev_addr, data);
                    ctx.note_progress();
                    self.write_meter
                        .record(ctx.now() + self.params.write_latency, data.len() as u64);
                } else {
                    self.faults.inc();
                }
            }
            TlpKind::MemRead {
                addr,
                len,
                tag,
                requester,
            } => {
                assert!(
                    self.bar.contains_access(addr, len as u64),
                    "{}: read outside BAR",
                    self.name
                );
                let credits = ctx.hold_credits();
                self.read_q.push_back(PendingGpuRead {
                    port,
                    addr,
                    len,
                    tag,
                    requester,
                    credits,
                    queued_at: ctx.now(),
                });
                self.read_q_peak = self.read_q_peak.max(self.read_q.len());
                self.start_next_read(ctx);
            }
            TlpKind::Completion { .. } => {
                panic!("{}: GPUs issue no reads in this model", self.name)
            }
            TlpKind::Msi { .. } => panic!("{}: MSI delivered to a GPU", self.name),
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        assert_eq!(tag, TAG_READ_DONE);
        let pr = self.read_q.pop_front().expect("read timer without request");
        ctx.release_credits(pr.credits);
        let dev_addr = pr.addr - self.bar.base();
        let data = if self.is_pinned(dev_addr, pr.len as u64) {
            self.gddr.read_payload(dev_addr, pr.len as usize)
        } else {
            self.faults.inc();
            Bytes::from(vec![0u8; pr.len as usize])
        };
        let chunk = self.completion_chunk as usize;
        let total = data.len();
        let mut off = 0usize;
        while off < total {
            let n = chunk.min(total - off);
            let last = off + n >= total;
            ctx.send(
                pr.port,
                Tlp::completion(
                    pr.tag,
                    pr.requester,
                    off as u32,
                    data.slice(off..off + n),
                    last,
                ),
            );
            off += n;
        }
        self.read_busy = false;
        self.reads_served.inc();
        self.start_next_read(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn publish_metrics(&mut self, hub: &mut MetricsHub) {
        let ids = *self
            .metric_ids
            .get_or_insert_with(|| GpuMetricIds::register(&self.name, hub));
        // Current depth second so the monotonic peak lands in the watermark.
        hub.gauge_set(ids.read_q_depth, self.read_q_peak as i64);
        hub.gauge_set(ids.read_q_depth, self.read_q.len() as i64);
        hub.counter_sync(ids.reads, self.reads_served.get());
        hub.counter_sync(ids.translate_busy_ns, self.translate_busy.as_ps() / 1_000);
        hub.histogram_sync(ids.read_q_wait_ns, &self.read_q_wait_hist);
        hub.counter_sync(ids.faults, self.faults.get());
        hub.meter_sync(ids.write_bytes, self.write_meter);
    }

    fn health_status(&self) -> Option<String> {
        Some(format!(
            "bar1 read engine {}, {} read(s) queued, {} fault(s)",
            if self.read_busy { "busy" } else { "idle" },
            self.read_q.len(),
            self.faults.get(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::gpu_bar;
    use tca_pcie::{Fabric, LinkParams, Tag};
    use tca_sim::SimTime;

    struct Probe {
        id: DeviceId,
        completions: Vec<(SimTime, u32, Vec<u8>, bool)>,
    }
    impl Device for Probe {
        fn on_tlp(&mut self, _port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
            if let TlpKind::Completion {
                offset, data, last, ..
            } = tlp.kind
            {
                self.completions
                    .push((ctx.now(), offset, data.to_vec(), last));
            }
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}
    }

    fn rig() -> (Fabric, DeviceId, DeviceId) {
        let mut f = Fabric::new();
        let probe = f.add_device(|id| Probe {
            id,
            completions: vec![],
        });
        let gpu = f.add_device(|id| Gpu::new(id, "gpu0", gpu_bar(0), GpuParams::default()));
        f.connect(
            (probe, PortIdx(0)),
            (gpu, PortIdx(0)),
            LinkParams::gen2_x16().with_latency(Dur::from_ns(100)),
        );
        (f, probe, gpu)
    }

    #[test]
    fn cuda_flow_allocate_token_pin() {
        let (mut f, _p, gpu) = rig();
        let g = f.device_mut::<Gpu>(gpu);
        let a = g.alloc(10_000);
        let b = g.alloc(4096);
        assert_eq!(a, 0);
        assert_eq!(b, 12 * 1024, "allocations page-aligned");
        let tok = g.p2p_token(a, 10_000);
        let pcie = g.pin(a, 10_000, tok);
        assert_eq!(pcie, gpu_bar(0).base());
    }

    #[test]
    #[should_panic(expected = "bad P2P token")]
    fn pin_requires_matching_token() {
        let (mut f, _p, gpu) = rig();
        let g = f.device_mut::<Gpu>(gpu);
        let a = g.alloc(4096);
        let tok = g.p2p_token(a, 8192); // token for the wrong length
        g.pin(a, 4096, tok);
    }

    #[test]
    fn pinned_write_lands_in_gddr() {
        let (mut f, probe, gpu) = rig();
        let pcie = {
            let g = f.device_mut::<Gpu>(gpu);
            let a = g.alloc(4096);
            let t = g.p2p_token(a, 4096);
            g.pin(a, 4096, t)
        };
        f.drive::<Probe, _>(probe, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::write(pcie + 16, vec![0xcd; 64]));
        });
        f.run_until_idle();
        let g = f.device::<Gpu>(gpu);
        assert_eq!(g.gddr_ref().read(16, 64), vec![0xcd; 64]);
        assert_eq!(g.faults.get(), 0);
    }

    #[test]
    fn unpinned_write_faults_and_is_dropped() {
        let (mut f, probe, gpu) = rig();
        f.drive::<Probe, _>(probe, |_, ctx| {
            ctx.send(
                PortIdx(0),
                Tlp::write(gpu_bar(0).base() + 0x10_0000, vec![1u8; 8]),
            );
        });
        f.run_until_idle();
        let g = f.device::<Gpu>(gpu);
        assert_eq!(g.faults.get(), 1);
        assert_eq!(g.gddr_ref().read(0x10_0000, 8), vec![0; 8]);
    }

    #[test]
    fn unpin_revokes_access() {
        let (mut f, probe, gpu) = rig();
        let pcie = {
            let g = f.device_mut::<Gpu>(gpu);
            let a = g.alloc(4096);
            let t = g.p2p_token(a, 4096);
            let p = g.pin(a, 4096, t);
            g.unpin(a, 4096);
            p
        };
        f.drive::<Probe, _>(probe, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::write(pcie, vec![1u8; 8]));
        });
        f.run_until_idle();
        assert_eq!(f.device::<Gpu>(gpu).faults.get(), 1);
    }

    #[test]
    fn read_round_trip_returns_pinned_data() {
        let (mut f, probe, gpu) = rig();
        let pcie = {
            let g = f.device_mut::<Gpu>(gpu);
            let a = g.alloc(4096);
            g.gddr().fill_pattern(a, 4096, 9);
            let t = g.p2p_token(a, 4096);
            g.pin(a, 4096, t)
        };
        f.drive::<Probe, _>(probe, |p, ctx| {
            ctx.send(PortIdx(0), Tlp::read(pcie, 512, Tag(1), p.id));
        });
        f.run_until_idle();
        let p = f.device::<Probe>(probe);
        assert_eq!(p.completions.len(), 2);
        let mut buf = vec![0u8; 512];
        for (_, off, data, _) in &p.completions {
            buf[*off as usize..*off as usize + data.len()].copy_from_slice(data);
        }
        let mut check = PageMemory::new();
        check.write(0, &buf);
        assert!(check.verify_pattern(0, 512, 9).is_ok());
    }

    #[test]
    fn read_rate_is_translation_limited() {
        // Issue 16 × 512 B reads; the serial translation unit must space
        // them at ≈ read_latency + 512/830 MB/s each, i.e. ≈ 830 MB/s for
        // the data portion — far below the x16 wire rate.
        let (mut f, probe, gpu) = rig();
        let pcie = {
            let g = f.device_mut::<Gpu>(gpu);
            let a = g.alloc(64 * 1024);
            let t = g.p2p_token(a, 64 * 1024);
            g.pin(a, 64 * 1024, t)
        };
        f.drive::<Probe, _>(probe, |p, ctx| {
            for i in 0..16u64 {
                ctx.send(
                    PortIdx(0),
                    Tlp::read(pcie + i * 512, 512, Tag(i as u16), p.id),
                );
            }
        });
        let start = f.now();
        let end = f.run_until_idle();
        let bytes = 16 * 512;
        let bw = bytes as f64 / end.since(start).as_s_f64();
        // Per request: 400 ns latency + 512 B / 830 MB/s ≈ 1.017 µs
        // → ≈ 503 MB/s effective including latency, well under 830 MB/s.
        assert!(bw < 830_000_000.0, "bw={bw}");
        assert!(bw > 300_000_000.0, "bw={bw}");
    }

    #[test]
    fn bar1_translation_queue_metrics_publish() {
        use tca_sim::MetricValue;
        let (mut f, probe, gpu) = rig();
        let pcie = {
            let g = f.device_mut::<Gpu>(gpu);
            let a = g.alloc(64 * 1024);
            let t = g.p2p_token(a, 64 * 1024);
            g.pin(a, 64 * 1024, t)
        };
        f.drive::<Probe, _>(probe, |p, ctx| {
            for i in 0..16u64 {
                ctx.send(
                    PortIdx(0),
                    Tlp::read(pcie + i * 512, 512, Tag(i as u16), p.id),
                );
            }
        });
        f.run_until_idle();
        let s1 = f.metrics_snapshot();
        let s2 = f.metrics_snapshot();
        assert_eq!(s1.to_json(), s2.to_json(), "publication must be idempotent");
        assert_eq!(s1.counter("gpu0.bar1.reads"), Some(16));
        assert!(s1.counter("gpu0.bar1.translate_busy_ns").unwrap() > 0);
        match s1.get("gpu0.bar1.read_q_depth") {
            Some(MetricValue::Gauge { current, peak }) => {
                assert_eq!(*current, 0, "queue drained");
                assert!(*peak > 1, "reads stacked behind the serial unit");
            }
            other => panic!("unexpected {other:?}"),
        }
        match s1.get("gpu0.bar1.read_q_wait_ns") {
            Some(MetricValue::Histogram { count, max_ns, .. }) => {
                assert_eq!(*count, 16);
                assert!(*max_ns > 0.0, "later reads waited in the queue");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_meter_tracks_inbound_bandwidth() {
        let (mut f, probe, gpu) = rig();
        let pcie = {
            let g = f.device_mut::<Gpu>(gpu);
            let a = g.alloc(1 << 20);
            let t = g.p2p_token(a, 1 << 20);
            g.pin(a, 1 << 20, t)
        };
        f.drive::<Probe, _>(probe, |_, ctx| {
            for i in 0..64u64 {
                ctx.send(PortIdx(0), Tlp::write(pcie + i * 256, vec![0u8; 256]));
            }
        });
        f.run_until_idle();
        let g = f.device::<Gpu>(gpu);
        assert_eq!(g.write_meter.bytes(), 64 * 256);
        // Sinks at the x16 wire rate (8 GB/s raw → ~7.3 GB/s payload).
        assert!(g.write_meter.throughput() > 6e9);
    }
}
