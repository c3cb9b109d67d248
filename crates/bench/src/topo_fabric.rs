//! Drives real packet traffic over any [`TopoSpec`] from the topology
//! registry: one router [`Device`] per node, one fabric link per cable,
//! dimension-order forwarding straight off the spec's routing table.
//!
//! The deadlock-freedom prover (`tca-verify`) analyzes these topologies
//! statically; this module is the dynamic counterpart — it actually
//! *runs* them, which is what turns a topology entry into an engine
//! workload. Two consumers:
//!
//! * the `engine` scenario's `torus2d-16x16` all-to-all point
//!   (256 nodes, 65 280 source→destination pairs, ≈ 1M events) — the
//!   scale test of the timing-wheel scheduler, where the event
//!   population is three orders of magnitude wider than the 8-node ring;
//! * the `topo-registry` scenario's traffic columns, which run a cheap
//!   strided pattern per entry so the sweep reports the messages and
//!   events of driving each topology alongside the static metrics.
//!
//! Pure simulated-time code — `tca-bench --profile` times these runs
//! through [`crate::prof::timed`], like every other sweep point.

use tca_pcie::{Ctx, Device, DeviceId, Fabric, LinkParams, PortIdx, Tlp, TlpKind};
use tca_peach2::TopoSpec;

/// Destination-node address encoding: the router reads the target node
/// out of the high half of the PCIe address, so no per-device address
/// map is needed for an arbitrary registry topology.
fn route_addr(src: u32, dst: u32) -> u64 {
    (u64::from(dst) << 32) | (u64::from(src) << 4)
}

/// A minimal forwarding device: owns its row of the spec's routing
/// table, relays by moving the TLP out the table's port, counts
/// deliveries addressed to itself.
struct TopoRouter {
    node: u32,
    name: String,
    /// This node's row of [`TopoSpec::routes`]: `routes[dst]` = exit port.
    routes: Vec<Option<u8>>,
    delivered: u64,
    relayed: u64,
}

impl TopoRouter {
    /// Sends one probe write from this node to `dst` (first hop only;
    /// the fabric and the other routers take it from there).
    fn inject(&self, dst: u32, ctx: &mut Ctx<'_>) {
        let port = self.routes[dst as usize].expect("registry tables are route-complete");
        let payload = vec![self.node as u8, dst as u8, 0, 0, 0, 0, 0, 0];
        ctx.send(
            PortIdx(port),
            Tlp::write(route_addr(self.node, dst), payload),
        );
    }
}

impl Device for TopoRouter {
    fn on_tlp(&mut self, _port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
        let addr = match &tlp.kind {
            TlpKind::MemWrite { addr, .. } => *addr,
            _ => return,
        };
        let dst = (addr >> 32) as u32;
        if dst == self.node {
            self.delivered += 1;
            // A landed probe is an end-to-end commit for the watchdog.
            ctx.note_progress();
        } else {
            let port = self.routes[dst as usize].expect("registry tables are route-complete");
            // Relay by move: the packet is forwarded, never rebuilt.
            self.relayed += 1;
            ctx.send(PortIdx(port), tlp);
        }
    }

    fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}

    fn name(&self) -> &str {
        &self.name
    }
}

/// A built topology: the fabric plus the per-node device ids (index =
/// node number). Reusable: after one [`TopoFabric::drain`] warms every
/// pool (event slab and near tier, lane heap, wire and credit lanes, link
/// queues), further inject/drain rounds on the same instance run
/// allocation-free — the property the zero-alloc steady-state test pins
/// down.
pub struct TopoFabric {
    /// The wired-up fabric, ready to run.
    pub fabric: Fabric,
    /// `devices[node]` is that node's router.
    pub devices: Vec<DeviceId>,
    name: String,
    nodes: u32,
    /// Probe writes injected over this fabric's lifetime.
    injected: u64,
}

/// Instantiates `spec` on a fabric: one router per node, one
/// Gen2 x8 link per cable.
pub fn build(spec: &TopoSpec) -> TopoFabric {
    let mut fabric = Fabric::new();
    let devices: Vec<DeviceId> = (0..spec.nodes)
        .map(|n| {
            let routes = spec.routes[n as usize].clone();
            fabric.add_device(move |_id| TopoRouter {
                node: n,
                name: format!("node{n}"),
                routes,
                delivered: 0,
                relayed: 0,
            })
        })
        .collect();
    for c in &spec.cables {
        fabric.connect(
            (devices[c.a.0 as usize], PortIdx(c.a.1)),
            (devices[c.b.0 as usize], PortIdx(c.b.1)),
            LinkParams::gen2_x8(),
        );
    }
    TopoFabric {
        fabric,
        devices,
        name: spec.name.clone(),
        nodes: spec.nodes,
        injected: 0,
    }
}

impl TopoFabric {
    /// Injects one probe write per `(src, dst)` pair produced by `dests`
    /// and returns how many were sent. Payload allocation happens here,
    /// at drive time — the subsequent drain only moves packets that
    /// already exist.
    pub fn inject(&mut self, dests: impl Fn(u32) -> Vec<u32>) -> u64 {
        let mut injected = 0u64;
        for src in 0..self.nodes {
            let ds = dests(src);
            injected += ds.len() as u64;
            self.fabric
                .drive::<TopoRouter, _>(self.devices[src as usize], |r, ctx| {
                    for d in ds {
                        debug_assert_ne!(d, src, "self-sends never enter the fabric");
                        r.inject(d, ctx);
                    }
                });
        }
        self.injected += injected;
        injected
    }

    /// Drains all in-flight traffic and reports cumulative counters,
    /// asserting every probe ever injected landed exactly once.
    pub fn drain(&mut self) -> TopoRunReport {
        let end = self.fabric.run_until_idle();
        let (mut delivered, mut relayed) = (0u64, 0u64);
        for &dev in &self.devices {
            let r = self.fabric.device::<TopoRouter>(dev);
            delivered += r.delivered;
            relayed += r.relayed;
        }
        assert_eq!(
            delivered, self.injected,
            "every injected probe must land exactly once ({})",
            self.name
        );
        TopoRunReport {
            name: self.name.clone(),
            nodes: self.nodes,
            messages: delivered,
            relay_hops: relayed,
            events: self.fabric.events_executed(),
            sim_ps: end.as_ps(),
        }
    }
}

/// Result of one traffic run (all counters are simulated-side and
/// byte-reproducible).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoRunReport {
    /// Topology name from the spec.
    pub name: String,
    /// Node count.
    pub nodes: u32,
    /// Probe writes injected (= source→destination pairs exercised).
    pub messages: u64,
    /// Intermediate forwarding hops taken across all routers.
    pub relay_hops: u64,
    /// Engine events executed draining the run.
    pub events: u64,
    /// Simulated completion time, ps.
    pub sim_ps: u64,
}

/// Injects one probe write per `(src, dst)` pair produced by `dests` on
/// a fresh fabric, drains it, and asserts every probe landed exactly once.
fn run_traffic(spec: &TopoSpec, dests: impl Fn(u32) -> Vec<u32>) -> TopoRunReport {
    let mut tf = build(spec);
    tf.inject(dests);
    tf.drain()
}

/// Full all-to-all: every node sends one probe to every other node
/// (`n·(n−1)` messages). On `torus2d-16x16` this is 65 280 pairs and
/// north of a million engine events.
pub fn all_to_all(spec: &TopoSpec) -> TopoRunReport {
    run_traffic(spec, |src| (0..spec.nodes).filter(|&d| d != src).collect())
}

/// The destination list [`strided`] traffic sends from `src`:
/// power-of-two strided successors, up to `max_dests` of them.
pub fn strided_dests(nodes: u32, src: u32, max_dests: u32) -> Vec<u32> {
    let mut ds = Vec::new();
    let mut stride = 1u32;
    while (ds.len() as u32) < max_dests && stride < nodes {
        ds.push((src + stride) % nodes);
        stride *= 2;
    }
    ds
}

/// Cheap representative pattern for sweep columns: each node sends to
/// its power-of-two strided successors (up to `max_dests` of them), so
/// cost grows linearly with node count instead of quadratically.
pub fn strided(spec: &TopoSpec, max_dests: u32) -> TopoRunReport {
    run_traffic(spec, |src| strided_dests(spec.nodes, src, max_dests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_core::presets::build_topology;

    #[test]
    fn ring_all_to_all_delivers_every_pair() {
        let spec = build_topology("ring-4").expect("registry grammar");
        let r = all_to_all(&spec);
        assert_eq!(r.nodes, 4);
        assert_eq!(r.messages, 12, "4·3 source→destination pairs");
        assert!(r.relay_hops > 0, "distance-2 pairs must relay");
        assert!(r.events > 0 && r.sim_ps > 0);
    }

    #[test]
    fn torus_all_to_all_is_reproducible() {
        let spec = build_topology("torus2d-4x4").expect("registry grammar");
        let a = all_to_all(&spec);
        let b = all_to_all(&spec);
        assert_eq!(a, b, "same spec, same counters, byte for byte");
        assert_eq!(a.messages, 16 * 15);
    }

    #[test]
    fn strided_pattern_is_linear_in_nodes() {
        let spec = build_topology("torus2d-4x4").expect("registry grammar");
        let r = strided(&spec, 8);
        // 16 nodes × strides {1, 2, 4, 8}: capped by stride < nodes.
        assert_eq!(r.messages, 16 * 4);
    }

    #[test]
    fn every_registry_topology_actually_runs() {
        // The static prover says these are deadlock-free; the dynamic
        // run must agree — strided traffic over every registry entry
        // completes with full delivery (asserted inside run_traffic).
        for entry in tca_core::presets::topology_registry() {
            let spec = (entry.build)();
            let r = strided(&spec, 4);
            assert!(r.messages > 0, "{} sent nothing", entry.name);
        }
    }
}
