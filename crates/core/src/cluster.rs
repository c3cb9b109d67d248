//! The TCA sub-cluster handle: simulation world + boards + drivers.

use tca_device::node::NodeConfig;
use tca_net::{attach_ib, IbParams, MpiWorld};
use tca_pcie::Fabric;
use tca_peach2::{build_dual_ring, build_ring, Peach2Driver, Peach2Params, SubCluster};

/// Topology of the sub-cluster cables.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Topology {
    /// Single E↔W ring (Fig. 5).
    #[default]
    Ring,
    /// Two rings coupled pairwise through port S (§III-D).
    DualRing,
}

/// Builder for a [`TcaCluster`].
pub struct TcaClusterBuilder {
    nodes: u32,
    topology: Topology,
    node_cfg: NodeConfig,
    peach2: Peach2Params,
    qpi: tca_device::QpiParams,
    ib: Option<IbParams>,
}

impl TcaClusterBuilder {
    /// Starts a builder for `nodes` nodes (a power of two in 1..=16, the
    /// paper's sub-cluster unit being 8–16, §II-B).
    pub fn new(nodes: u32) -> Self {
        TcaClusterBuilder {
            nodes,
            topology: Topology::Ring,
            node_cfg: crate::presets::table_ii_node_config(),
            peach2: crate::presets::table_ii_peach2_params(),
            qpi: tca_device::QpiParams::default(),
            ib: None,
        }
    }

    /// Replaces the whole parameter bundle (node config, PEACH2 chip, QPI)
    /// with `fp` — the registry-driven way to configure a cluster.
    pub fn fabric_params(mut self, fp: crate::params::FabricParams) -> Self {
        self.node_cfg = fp.node;
        self.peach2 = fp.peach2;
        self.qpi = fp.qpi;
        self
    }

    /// Applies a [`tca_sim::ParamSet`] overlay on top of the current
    /// configuration. Errors on unknown ids or rejected values.
    pub fn overlay(mut self, set: &tca_sim::ParamSet) -> Result<Self, String> {
        let mut fp = self.effective_params();
        fp.apply(set)?;
        self.node_cfg = fp.node;
        self.peach2 = fp.peach2;
        self.qpi = fp.qpi;
        Ok(self)
    }

    /// The parameter bundle this builder would build from.
    pub fn effective_params(&self) -> crate::params::FabricParams {
        crate::params::FabricParams {
            node: self.node_cfg,
            peach2: self.peach2,
            qpi: self.qpi,
        }
    }

    /// Selects the cable topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Overrides the node configuration.
    pub fn node_config(mut self, cfg: NodeConfig) -> Self {
        self.node_cfg = cfg;
        self
    }

    /// Overrides the PEACH2 parameters.
    pub fn peach2_params(mut self, p: Peach2Params) -> Self {
        self.peach2 = p;
        self
    }

    /// Additionally attaches the InfiniBand network (the hierarchical
    /// TCA + IB configuration of §II-B).
    pub fn with_infiniband(mut self, p: IbParams) -> Self {
        self.ib = Some(p);
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> TcaCluster {
        let mut fabric = Fabric::new();
        crate::apply_env_flight(&mut fabric);
        let mut sub = match self.topology {
            Topology::Ring => build_ring(&mut fabric, self.nodes, &self.node_cfg, self.peach2),
            Topology::DualRing => {
                build_dual_ring(&mut fabric, self.nodes, &self.node_cfg, self.peach2)
            }
        };
        let drivers: Vec<Peach2Driver> = (0..self.nodes as usize)
            .map(|i| Peach2Driver::new(sub.map, i as u32, sub.nodes[i].host, sub.chips[i]))
            .collect();
        for d in &drivers {
            d.init(&mut fabric);
        }
        let config_fnv = self.effective_params().fingerprint();
        let mpi = self.ib.map(|p| {
            let net = attach_ib(&mut fabric, &mut sub.nodes, p);
            MpiWorld::new(sub.nodes.clone(), net)
        });
        TcaCluster {
            fabric,
            sub,
            drivers,
            mpi,
            coll: crate::collectives::Collectives::new(),
            config_fnv,
        }
    }
}

/// A running TCA sub-cluster.
pub struct TcaCluster {
    /// The simulated world. Exposed so advanced users (and the bench
    /// harness) can reach devices directly.
    pub fabric: Fabric,
    /// Nodes, chips and the shared address map.
    pub sub: SubCluster,
    /// One PEACH2 driver per node.
    pub drivers: Vec<Peach2Driver>,
    /// The optional InfiniBand/MPI world sharing the same nodes.
    pub mpi: Option<MpiWorld>,
    /// Persistent collectives communicator backing the [`crate::CommWorld`]
    /// trait methods (its generation counter must survive across calls).
    pub(crate) coll: crate::collectives::Collectives,
    /// FNV config hash of the [`crate::params::FabricParams`] the cluster
    /// was built from — stamped into health reports for cache keying.
    pub config_fnv: u64,
}

impl TcaCluster {
    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.sub.map.nodes()
    }

    /// A human-readable status report: per-board NIOS state, DMA run
    /// counts, and total fabric events — the operator's one-stop view.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "TCA sub-cluster: {} nodes, {} simulated, {} events",
            self.nodes(),
            self.fabric.now(),
            self.fabric.events_executed()
        );
        for (i, &chip) in self.sub.chips.iter().enumerate() {
            let c = self.fabric.device::<tca_peach2::Peach2>(chip);
            let done = c.runs.iter().filter(|r| r.complete.is_some()).count();
            let bytes: u64 = c.runs.iter().map(|r| r.bytes).sum();
            let _ = writeln!(
                out,
                "  node {i}: {} DMA runs ({bytes} B), {} relayed, windows {}",
                done,
                c.relayed.get(),
                c.dma_window_hist
            );
        }
        out
    }

    /// Captures a deterministic snapshot of every metric in the cluster,
    /// first syncing each board's NIOS management registers with its live
    /// link statistics so the `peach2.*.port.*` values are current.
    pub fn metrics_snapshot(&mut self) -> tca_sim::MetricsSnapshot {
        let chips = self.sub.chips.clone();
        for chip in chips {
            tca_peach2::sync_nios_link_stats(&mut self.fabric, chip);
        }
        self.fabric.metrics_snapshot()
    }

    /// Enables or disables causal span tracing on the underlying fabric.
    /// Off by default. Recording spans is pure data collection — like
    /// metrics, it never schedules events, so toggling it never shifts
    /// simulated timestamps.
    pub fn set_span_tracing(&mut self, enabled: bool) {
        self.fabric.set_span_tracing(enabled);
    }

    /// Runs the static configuration lint (`tca-verify` pass 1) plus the
    /// runtime-echo pass over this cluster: route tables, reachability,
    /// link credits, host windows, and any typed config errors the fabric
    /// recorded while running. A clean report means a `memcpy_peer`
    /// between any two nodes can be routed and flow-controlled.
    pub fn verify(&self) -> tca_verify::Report {
        tca_verify::lint_cluster(&self.fabric, &self.sub)
    }

    /// Runs the deterministic RDMA-hazard detector (`tca-verify` pass 2)
    /// over the writes recorded so far. Requires span tracing to have been
    /// enabled for the run (`set_span_tracing(true)`); `flag_ranges` are
    /// the address ranges the application uses as completion flags.
    pub fn detect_hazards(&self, flag_ranges: &[tca_pcie::AddrRange]) -> tca_verify::Report {
        tca_verify::Report::from_diagnostics(tca_verify::detect_hazards(
            self.fabric.spans(),
            flag_ranges,
        ))
    }

    /// Critical-path breakdown of every *completed* root span, grouped by
    /// transfer kind (`pio`, `dma`, `mpi.*`): transfer count, total and
    /// mean end-to-end latency, and an exact per-stage attribution — the
    /// stage rows of each group sum to the group total to the picosecond,
    /// with time covered by no recorded stage reported as `other`.
    pub fn span_report(&self) -> String {
        use std::collections::BTreeMap;
        use std::fmt::Write as _;
        let spans = self.fabric.spans();
        let roots = spans.roots();
        let completed = roots.iter().filter(|r| r.3.is_some()).count();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "span report: {} root spans, {completed} completed",
            roots.len()
        );
        // name → (count, total elapsed, stage → time in first-seen order)
        type StageAcc = Vec<(String, tca_sim::Dur)>;
        let mut groups: BTreeMap<String, (u64, tca_sim::Dur, StageAcc)> = BTreeMap::new();
        for (id, name, _start, end) in roots {
            if end.is_none() {
                continue;
            }
            let elapsed = spans.root_elapsed(id).expect("completed root");
            let entry = groups
                .entry(name.to_string())
                .or_insert_with(|| (0, tca_sim::Dur::ZERO, Vec::new()));
            entry.0 += 1;
            entry.1 += elapsed;
            for (stage, d) in spans.attribution(id) {
                match entry.2.iter_mut().find(|(s, _)| *s == stage) {
                    Some(slot) => slot.1 += d,
                    None => entry.2.push((stage, d)),
                }
            }
        }
        for (name, (count, total, stages)) in groups {
            let mean_us = total.as_ns_f64() / 1000.0 / count as f64;
            let _ = writeln!(
                out,
                "  {name}: {count} transfer(s), total {total}, mean {mean_us:.3} µs"
            );
            for (stage, d) in stages {
                let pct = if total > tca_sim::Dur::ZERO {
                    100.0 * d.as_ps() as f64 / total.as_ps() as f64
                } else {
                    0.0
                };
                let _ = writeln!(out, "    {stage:<14} {pct:5.1}%  {d}");
            }
        }
        out
    }

    /// Enables periodic gauge sampling on the underlying fabric at `period`
    /// of simulated time. Time-neutral: captures happen between events and
    /// never schedule anything (see [`tca_pcie::Fabric::enable_sampling`]).
    pub fn enable_sampling(&mut self, period: tca_sim::Dur) {
        self.fabric.enable_sampling(period);
    }

    /// Arms the no-progress watchdog with `window` of simulated time (see
    /// [`tca_pcie::Fabric::arm_watchdog`]).
    pub fn arm_watchdog(&mut self, window: tca_sim::Dur) {
        self.fabric.arm_watchdog(window);
    }

    /// Enables the deterministic flight recorder on the underlying fabric
    /// (see [`tca_pcie::Fabric::enable_flight`]): a bounded ring of
    /// dispatch events, with optional spill of evicted events so the full
    /// log is retained. Pure observation — recording never shifts
    /// simulated time.
    pub fn enable_flight(&mut self, ring_capacity: usize, spill: bool) {
        self.fabric.enable_flight(ring_capacity, spill);
    }

    /// The `tca-flight/v1` JSONL log (events plus span records), when
    /// recording is enabled.
    pub fn flight_jsonl(&self) -> Option<String> {
        self.fabric.flight_jsonl()
    }

    /// Renders the continuous-health congestion report (`tca-top`): a
    /// per-link utilization/stall table, per-engine occupancy gauges with
    /// time-series means when sampling is on, and exact-integer latency
    /// percentiles per completed root-span kind. Byte-stable across runs.
    pub fn health_report(&mut self) -> String {
        let snapshot = self.metrics_snapshot();
        collect_fabric_health(&self.fabric, self.nodes(), snapshot, self.config_fnv).render()
    }

    /// The health report as JSON (schema `tca-health/v1`), for machine
    /// consumption and the CI schema gate. Byte-stable across runs.
    pub fn health_report_json(&mut self) -> String {
        let snapshot = self.metrics_snapshot();
        collect_fabric_health(&self.fabric, self.nodes(), snapshot, self.config_fnv).to_json()
    }
}

/// Gathers everything the health report shows, as integers so both
/// renderings are byte-stable. Shared by [`TcaCluster`] and
/// [`crate::comm::MpiBackend`] so `--backend tca|mpi` reports compare
/// side by side; `snapshot` must be taken from the same fabric first
/// (backends sync their own device counters into it).
pub(crate) fn collect_fabric_health(
    fabric: &tca_pcie::Fabric,
    nodes: u32,
    snapshot: tca_sim::MetricsSnapshot,
    config_fnv: u64,
) -> HealthData {
    use std::collections::BTreeMap;
    let elapsed_ps = fabric.now().as_ps().max(1);
    let sampler = fabric.sampler();
    let mut links = Vec::new();
    for i in 0..fabric.link_count() {
        let lid = tca_pcie::LinkId(i as u32);
        let ends = fabric.link_endpoints(lid);
        for dir in [tca_pcie::Dir::Fwd, tca_pcie::Dir::Rev] {
            let s = fabric.link_stats(lid, dir);
            if s.packets == 0 && s.queued == 0 {
                continue;
            }
            let (src, dst) = match dir {
                tca_pcie::Dir::Fwd => (ends[0].0, ends[1].0),
                tca_pcie::Dir::Rev => (ends[1].0, ends[0].0),
            };
            let gauge = format!("link.{i}.{dir}.queue_depth");
            let credits_gauge = format!("link.{i}.{dir}.credits_in_use");
            let queue_peak = match snapshot.get(&gauge) {
                Some(tca_sim::MetricValue::Gauge { peak, .. }) => *peak,
                _ => 0,
            };
            links.push(LinkHealth {
                label: format!("{i}.{dir}"),
                src: fabric.device_name(src).to_string(),
                dst: fabric.device_name(dst).to_string(),
                tlps: s.packets,
                wire_busy_pm: s.wire_busy.as_ps() * 1000 / elapsed_ps,
                stall_pm: s.credit_stall.as_ps() * 1000 / elapsed_ps,
                queue_peak,
                queue_mean: sampler.and_then(|sp| sp.mean_of(&gauge)),
                queue_busy_pm: sampler.and_then(|sp| sp.busy_permille(&gauge)),
                credit_busy_pm: sampler.and_then(|sp| sp.busy_permille(&credits_gauge)),
            });
        }
    }
    let mut engines = Vec::new();
    for e in &snapshot.entries {
        if let tca_sim::MetricValue::Gauge { current, peak } = &e.value {
            if e.name.starts_with("link.") {
                continue;
            }
            engines.push(EngineHealth {
                name: e.name.clone(),
                current: *current,
                peak: *peak,
                mean: sampler.and_then(|sp| sp.mean_of(&e.name)),
                busy_pm: sampler.and_then(|sp| sp.busy_permille(&e.name)),
            });
        }
    }
    let spans = fabric.spans();
    let mut latency: BTreeMap<String, tca_sim::HdrHistogram> = BTreeMap::new();
    for (id, name, _start, end) in spans.roots() {
        if end.is_some() {
            latency
                .entry(name.to_string())
                .or_default()
                .record(spans.root_elapsed(id).expect("completed root"));
        }
    }
    HealthData {
        nodes,
        config_fnv,
        now: fabric.now(),
        events: fabric.events_executed(),
        sampling: sampler.map(|sp| (sp.period(), sp.captures())),
        watchdog_armed: fabric.watchdog().is_some(),
        stall: fabric.stall_report().cloned(),
        links,
        engines,
        latency: latency.into_iter().collect(),
    }
}

/// One row of the per-link congestion table.
struct LinkHealth {
    label: String,
    src: String,
    dst: String,
    tlps: u64,
    /// Wire occupancy as permille of elapsed simulated time.
    wire_busy_pm: u64,
    /// Accumulated credit-stall time as permille of elapsed time (can
    /// exceed 1000 when several TLPs stall concurrently).
    stall_pm: u64,
    queue_peak: i64,
    queue_mean: Option<i64>,
    queue_busy_pm: Option<u64>,
    /// Fraction of samples where at least one link credit was in use —
    /// the sampled link-occupancy series condensed to one number.
    credit_busy_pm: Option<u64>,
}

/// One row of the per-engine occupancy table.
struct EngineHealth {
    name: String,
    current: i64,
    peak: i64,
    mean: Option<i64>,
    busy_pm: Option<u64>,
}

/// Everything [`TcaCluster::health_report`] shows.
pub(crate) struct HealthData {
    nodes: u32,
    config_fnv: u64,
    now: tca_sim::SimTime,
    events: u64,
    sampling: Option<(tca_sim::Dur, usize)>,
    watchdog_armed: bool,
    stall: Option<tca_sim::StallReport>,
    links: Vec<LinkHealth>,
    engines: Vec<EngineHealth>,
    latency: Vec<(String, tca_sim::HdrHistogram)>,
}

/// Formats a permille value as a percentage with one decimal.
fn pct(pm: u64) -> String {
    format!("{}.{}%", pm / 10, pm % 10)
}

impl HealthData {
    pub(crate) fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fabric health: {} nodes, {} simulated, {} events, config {}",
            self.nodes,
            self.now,
            self.events,
            tca_sim::fingerprint_hex(self.config_fnv)
        );
        let sampling = match self.sampling {
            Some((period, caps)) => format!("{period} period, {caps} captures"),
            None => "off".to_string(),
        };
        let watchdog = if !self.watchdog_armed {
            "not armed".to_string()
        } else if let Some(s) = &self.stall {
            format!("FIRED at {}", s.at)
        } else {
            "armed, quiet".to_string()
        };
        let _ = writeln!(out, "sampling: {sampling} | watchdog: {watchdog}");
        let _ = writeln!(
            out,
            "links:  {:<8} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}  route",
            "dir", "tlps", "wire", "stall", "q-peak", "q-mean", "q-busy", "cr-busy"
        );
        for l in &self.links {
            let _ = writeln!(
                out,
                "  {:<12} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}  {} -> {}",
                l.label,
                l.tlps,
                pct(l.wire_busy_pm),
                pct(l.stall_pm),
                l.queue_peak,
                l.queue_mean.map_or("-".into(), |v| v.to_string()),
                l.queue_busy_pm.map_or("-".into(), pct),
                l.credit_busy_pm.map_or("-".into(), pct),
                l.src,
                l.dst
            );
        }
        if !self.engines.is_empty() {
            let _ = writeln!(
                out,
                "engines: {:<32} {:>7} {:>7} {:>7} {:>7}",
                "gauge", "now", "peak", "mean", "busy"
            );
            for e in &self.engines {
                let _ = writeln!(
                    out,
                    "  {:<38} {:>7} {:>7} {:>7} {:>7}",
                    e.name,
                    e.current,
                    e.peak,
                    e.mean.map_or("-".into(), |v| v.to_string()),
                    e.busy_pm.map_or("-".into(), pct),
                );
            }
        }
        if !self.latency.is_empty() {
            let _ = writeln!(
                out,
                "latency: {:<16} {:>7} {:>9} {:>9} {:>9} {:>9}  (ns)",
                "span", "count", "p50", "p99", "p999", "max"
            );
            for (name, h) in &self.latency {
                let _ = writeln!(
                    out,
                    "  {:<22} {:>7} {:>9} {:>9} {:>9} {:>9}",
                    name,
                    h.count(),
                    h.percentile_ns(0.50),
                    h.percentile_ns(0.99),
                    h.percentile_ns(0.999),
                    h.max_ns(),
                );
            }
        }
        if let Some(s) = &self.stall {
            out.push_str(&s.render());
        }
        out
    }

    pub(crate) fn to_json(&self) -> String {
        use tca_sim::JsonValue;
        let mut root = JsonValue::object();
        root.push("schema", JsonValue::from("tca-health/v1"));
        root.push(
            "config_fnv",
            JsonValue::from(tca_sim::fingerprint_hex(self.config_fnv)),
        );
        root.push("nodes", JsonValue::from(self.nodes));
        root.push("now_ns", JsonValue::from(self.now.as_ps() / 1_000));
        root.push("events", JsonValue::from(self.events));
        match self.sampling {
            Some((period, caps)) => {
                root.push(
                    "sampling_period_ns",
                    JsonValue::from(period.as_ps() / 1_000),
                );
                root.push("captures", JsonValue::from(caps as u64));
            }
            None => {
                root.push("sampling_period_ns", JsonValue::Null);
                root.push("captures", JsonValue::from(0u64));
            }
        }
        root.push("watchdog_armed", JsonValue::from(self.watchdog_armed));
        root.push("watchdog_fired", JsonValue::from(self.stall.is_some()));
        if let Some(s) = &self.stall {
            let mut w = JsonValue::object();
            w.push("at_ns", JsonValue::from(s.at.as_ps() / 1_000));
            w.push(
                "last_progress_ns",
                JsonValue::from(s.last_progress.as_ps() / 1_000),
            );
            w.push("diagnosis", JsonValue::from(s.diagnosis.clone()));
            root.push("stall", w);
        }
        let mut links = JsonValue::object();
        for l in &self.links {
            let mut v = JsonValue::object();
            v.push("src", JsonValue::from(l.src.clone()));
            v.push("dst", JsonValue::from(l.dst.clone()));
            v.push("tlps", JsonValue::from(l.tlps));
            v.push("wire_busy_permille", JsonValue::from(l.wire_busy_pm));
            v.push("stall_permille", JsonValue::from(l.stall_pm));
            v.push("queue_peak", JsonValue::from(l.queue_peak));
            if let Some(m) = l.queue_mean {
                v.push("queue_mean", JsonValue::from(m));
            }
            if let Some(b) = l.queue_busy_pm {
                v.push("queue_busy_permille", JsonValue::from(b));
            }
            if let Some(b) = l.credit_busy_pm {
                v.push("credits_busy_permille", JsonValue::from(b));
            }
            links.push(l.label.clone(), v);
        }
        root.push("links", links);
        let mut engines = JsonValue::object();
        for e in &self.engines {
            let mut v = JsonValue::object();
            v.push("current", JsonValue::from(e.current));
            v.push("peak", JsonValue::from(e.peak));
            if let Some(m) = e.mean {
                v.push("mean", JsonValue::from(m));
            }
            if let Some(b) = e.busy_pm {
                v.push("busy_permille", JsonValue::from(b));
            }
            engines.push(e.name.clone(), v);
        }
        root.push("engines", engines);
        let mut latency = JsonValue::object();
        for (name, h) in &self.latency {
            let mut v = JsonValue::object();
            v.push("count", JsonValue::from(h.count()));
            v.push("p50_ns", JsonValue::from(h.percentile_ns(0.50)));
            v.push("p99_ns", JsonValue::from(h.percentile_ns(0.99)));
            v.push("p999_ns", JsonValue::from(h.percentile_ns(0.999)));
            v.push("max_ns", JsonValue::from(h.max_ns()));
            latency.push(name.clone(), v);
        }
        root.push("latency", latency);
        root.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_build_a_ring() {
        let c = TcaClusterBuilder::new(4).build();
        assert_eq!(c.nodes(), 4);
        assert_eq!(c.drivers.len(), 4);
        assert!(c.mpi.is_none());
    }

    #[test]
    fn builder_with_infiniband_shares_nodes() {
        let c = TcaClusterBuilder::new(2)
            .with_infiniband(IbParams::default())
            .build();
        let mpi = c.mpi.as_ref().expect("IB attached");
        assert_eq!(mpi.size(), 2);
        assert_eq!(mpi.nodes[0].host, c.sub.nodes[0].host, "same hosts");
    }

    #[test]
    fn report_summarises_activity() {
        use crate::api::MemRef;
        let mut c = TcaClusterBuilder::new(2).build();
        c.write(&MemRef::host(0, 0x4000_0000), &[1u8; 1024]);
        c.memcpy_peer(
            &MemRef::host(1, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            1024,
        );
        let r = c.report();
        assert!(r.contains("2 nodes"), "{r}");
        assert!(r.contains("node 0: 1 DMA runs (1024 B)"), "{r}");
        assert!(r.contains("node 1: 0 DMA runs"), "{r}");
    }

    #[test]
    fn health_report_shows_links_latency_and_stays_byte_stable() {
        use crate::api::MemRef;
        let run = || {
            let mut c = TcaClusterBuilder::new(2).build();
            c.enable_sampling(tca_sim::Dur::from_ns(100));
            c.arm_watchdog(tca_sim::Dur::from_us(100));
            c.set_span_tracing(true);
            c.write(&MemRef::host(0, 0x4000_0000), &[1u8; 4096]);
            for _ in 0..4 {
                c.memcpy_peer(
                    &MemRef::host(1, 0x5000_0000),
                    &MemRef::host(0, 0x4000_0000),
                    4096,
                );
            }
            (c.health_report(), c.health_report_json())
        };
        let (text, json) = run();
        assert!(text.contains("fabric health: 2 nodes"), "{text}");
        assert!(text.contains("watchdog: armed, quiet"), "{text}");
        // The DMA path crosses the inter-board cable in the fwd direction;
        // that row must show traffic and a sampled queue mean.
        assert!(text.contains(".fwd"), "{text}");
        assert!(text.contains("dma"), "latency table has dma spans: {text}");
        assert!(json.starts_with("{\"schema\":\"tca-health/v1\""), "{json}");
        assert!(json.contains("\"watchdog_fired\":false"), "{json}");
        assert!(json.contains("\"latency\":{\"dma\":{\"count\":4"), "{json}");
        // Determinism: an identical run renders byte-identical reports.
        let (text2, json2) = run();
        assert_eq!(text, text2);
        assert_eq!(json, json2);
    }

    #[test]
    fn mpi_backend_health_report_compares_side_by_side() {
        use crate::api::MemRef;
        use crate::comm::{CommWorld, MpiBackend, MpiGpuMode};
        let mut m = MpiBackend::new(2, MpiGpuMode::Staged);
        m.enable_sampling(tca_sim::Dur::from_ns(100));
        m.write(&MemRef::host(0, 0x4000_0000), &[9u8; 8192]);
        m.put(
            &MemRef::host(1, 0x4100_0000),
            &MemRef::host(0, 0x4000_0000),
            8192,
        );
        let snap = m.metrics_snapshot();
        assert!(
            snap.get("mpi.rndv_sends").is_some() || snap.get("mpi.eager_sends").is_some(),
            "protocol counters present"
        );
        let text = m.health_report();
        assert!(text.contains("fabric health: 2 nodes"), "{text}");
        let json = m.health_report_json();
        assert!(json.starts_with("{\"schema\":\"tca-health/v1\""), "{json}");
        assert!(json.contains("send_q_depth"), "HCA gauges present: {json}");
    }

    #[test]
    fn cluster_snapshot_carries_synced_nios_counters() {
        use crate::api::MemRef;
        let mut c = TcaClusterBuilder::new(2).build();
        c.write(&MemRef::host(0, 0x4000_0000), &[1u8; 1024]);
        c.memcpy_peer(
            &MemRef::host(1, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            1024,
        );
        let snap = c.metrics_snapshot();
        assert!(
            snap.counter("peach2.n0.port.e.egress").unwrap_or(0) > 0
                || snap.counter("peach2.n0.port.w.egress").unwrap_or(0) > 0,
            "ring port traffic visible after sync"
        );
        assert_eq!(snap.counter("peach2.n0.dma.runs"), Some(1));
    }

    #[test]
    fn span_report_breaks_down_dma_critical_path() {
        use crate::api::MemRef;
        let mut c = TcaClusterBuilder::new(2).build();
        c.set_span_tracing(true);
        c.write(&MemRef::host(0, 0x4000_0000), &[1u8; 1024]);
        c.memcpy_peer(
            &MemRef::host(1, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            1024,
        );
        let r = c.span_report();
        assert!(r.contains("dma:"), "{r}");
        assert!(r.contains("desc_fetch"), "{r}");
        assert!(r.contains("wire"), "{r}");
        // The attribution is an exact partition: per root, the stage
        // durations sum to the end-to-end elapsed time to the picosecond.
        let spans = c.fabric.spans();
        for (id, _, _, end) in spans.roots() {
            if end.is_none() {
                continue;
            }
            let total = spans
                .attribution(id)
                .iter()
                .fold(tca_sim::Dur::ZERO, |a, (_, d)| a + *d);
            assert_eq!(total, spans.root_elapsed(id).unwrap());
        }
    }

    #[test]
    fn verify_accepts_shipped_clusters() {
        let c = TcaClusterBuilder::new(4).build();
        let rep = c.verify();
        assert!(rep.is_clean(), "{}", rep.render());
        assert_eq!(c.verify().to_json(), rep.to_json(), "deterministic");
        let d = TcaClusterBuilder::new(8)
            .topology(Topology::DualRing)
            .with_infiniband(IbParams::default())
            .build();
        let rep = d.verify();
        assert!(rep.is_clean(), "{}", rep.render());
    }

    #[test]
    fn hazard_detector_flags_conflicting_remote_writes() {
        use crate::api::MemRef;
        let mut c = TcaClusterBuilder::new(4).build();
        c.set_span_tracing(true);
        c.write(&MemRef::host(0, 0x4000_0000), &[1u8; 1024]);
        c.write(&MemRef::host(1, 0x4000_0000), &[2u8; 1024]);
        // Two different origins RDMA-put into the same bytes of node 2
        // with no flag handshake: a textbook WAW race.
        c.memcpy_peer(
            &MemRef::host(2, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            1024,
        );
        c.memcpy_peer(
            &MemRef::host(2, 0x5000_0000),
            &MemRef::host(1, 0x4000_0000),
            1024,
        );
        let rep = c.detect_hazards(&[]);
        assert!(
            rep.diagnostics.iter().any(|d| d.code == "TCA-H001"),
            "{}",
            rep.render()
        );
        // A single origin writing twice is not a cross-origin hazard.
        let mut solo = TcaClusterBuilder::new(2).build();
        solo.set_span_tracing(true);
        solo.write(&MemRef::host(0, 0x4000_0000), &[1u8; 1024]);
        solo.memcpy_peer(
            &MemRef::host(1, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            1024,
        );
        solo.memcpy_peer(
            &MemRef::host(1, 0x5000_0000),
            &MemRef::host(0, 0x4000_0000),
            1024,
        );
        assert!(solo.detect_hazards(&[]).is_clean());
    }

    #[test]
    fn dual_ring_topology_builds() {
        let c = TcaClusterBuilder::new(8)
            .topology(Topology::DualRing)
            .build();
        assert_eq!(c.nodes(), 8);
    }
}
