//! Sub-cluster assembly: attaching PEACH2 boards to nodes and cabling the
//! ring / dual-ring / loopback configurations of the paper.

use crate::chip::{ring_routing, Peach2, PORT_E, PORT_N, PORT_S, PORT_W};
use crate::params::Peach2Params;
use crate::regs::RouteRule;
use tca_device::map::{tca_window, TcaMap};
use tca_device::node::{build_node, Node, NodeConfig};
use tca_device::HostBridge;
use tca_pcie::{DeviceId, Fabric};

/// Attaches a PEACH2 board to `node` as TCA node `node_id`:
/// * port N ↔ a free host-bridge port, Gen2 x8;
/// * the whole TCA window routed from the host to the board;
/// * completion routing for the board's DMA reads.
pub fn attach_peach2(
    fabric: &mut Fabric,
    node: &mut Node,
    node_id: u32,
    map: TcaMap,
    params: Peach2Params,
) -> DeviceId {
    let name = format!("peach2.n{node_id}");
    let chip = fabric.add_device(|id| Peach2::new(id, name, node_id, map, params));
    let host_port = node.claim_port();
    fabric.connect((node.host, host_port), (chip, PORT_N), params.host_link);
    let hb = fabric.device_mut::<HostBridge>(node.host);
    hb.core_mut().add_window(tca_window(), host_port);
    hb.core_mut().add_id_route(chip, host_port);
    let now = fabric.now();
    fabric
        .device_mut::<Peach2>(chip)
        .nios_mut()
        .link_up(PORT_N.0, now);
    chip
}

/// One TCA sub-cluster: nodes, their PEACH2 boards, and the shared map.
pub struct SubCluster {
    /// The commodity node halves.
    pub nodes: Vec<Node>,
    /// PEACH2 board of each node.
    pub chips: Vec<DeviceId>,
    /// The shared address map.
    pub map: TcaMap,
}

/// Builds an `n`-node TCA sub-cluster cabled as a ring (Fig. 5): each
/// node's port E connects to the next node's port W, and shortest-path
/// routing rules are programmed into every chip.
pub fn build_ring(
    fabric: &mut Fabric,
    n: u32,
    cfg: &NodeConfig,
    params: Peach2Params,
) -> SubCluster {
    let map = TcaMap::new(n);
    let mut nodes = Vec::with_capacity(n as usize);
    let mut chips = Vec::with_capacity(n as usize);
    for i in 0..n {
        let mut node = build_node(fabric, &format!("n{i}"), cfg);
        let chip = attach_peach2(fabric, &mut node, i, map, params);
        nodes.push(node);
        chips.push(chip);
    }
    if n > 1 {
        for i in 0..n {
            let next = (i + 1) % n;
            fabric.connect(
                (chips[i as usize], PORT_E),
                (chips[next as usize], PORT_W),
                params.cable_link,
            );
            let now = fabric.now();
            fabric
                .device_mut::<Peach2>(chips[i as usize])
                .nios_mut()
                .link_up(PORT_E.0, now);
            fabric
                .device_mut::<Peach2>(chips[next as usize])
                .nios_mut()
                .link_up(PORT_W.0, now);
        }
        for i in 0..n {
            let rules = ring_routing(map, i, n);
            let chip = fabric.device_mut::<Peach2>(chips[i as usize]);
            for (slot, rule) in rules.into_iter().enumerate() {
                chip.regs_mut().routes[slot] = rule;
            }
        }
    }
    SubCluster { nodes, chips, map }
}

/// Builds a dual-ring sub-cluster: two rings of `n/2` nodes coupled
/// pairwise through port S (§III-D: "Port S … is used to combine two rings
/// by connecting to Port S on the peer node"). Node ids: ring A is
/// `0..n/2`, ring B is `n/2..n`; node `i` pairs with `i + n/2`.
pub fn build_dual_ring(
    fabric: &mut Fabric,
    n: u32,
    cfg: &NodeConfig,
    params: Peach2Params,
) -> SubCluster {
    assert!(
        n >= 4 && n.is_multiple_of(2),
        "dual ring needs an even node count ≥ 4"
    );
    let half = n / 2;
    let map = TcaMap::new(n);
    let mut nodes = Vec::with_capacity(n as usize);
    let mut chips = Vec::with_capacity(n as usize);
    for i in 0..n {
        let mut node = build_node(fabric, &format!("n{i}"), cfg);
        let chip = attach_peach2(fabric, &mut node, i, map, params);
        nodes.push(node);
        chips.push(chip);
    }
    // Cables: each ring E→W, plus S↔S pairs.
    for ring in 0..2u32 {
        let base = ring * half;
        for i in 0..half {
            let a = base + i;
            let b = base + (i + 1) % half;
            fabric.connect(
                (chips[a as usize], PORT_E),
                (chips[b as usize], PORT_W),
                params.cable_link,
            );
        }
    }
    for i in 0..half {
        fabric.connect(
            (chips[i as usize], PORT_S),
            (chips[(i + half) as usize], PORT_S),
            params.cable_link,
        );
        let now = fabric.now();
        fabric
            .device_mut::<Peach2>(chips[i as usize])
            .nios_mut()
            .link_up(PORT_S.0, now);
        fabric
            .device_mut::<Peach2>(chips[(i + half) as usize])
            .nios_mut()
            .link_up(PORT_S.0, now);
    }
    // Routing: within my ring → shortest-path E/W rules over the ring's
    // global node ids; the other ring's half of the window → port S.
    for i in 0..n {
        let my_ring = i / half;
        let ring_base = my_ring * half;
        let local_idx = i - ring_base;
        let mut east = Vec::new();
        let mut west = Vec::new();
        for dl in 0..half {
            if dl == local_idx {
                continue;
            }
            let fwd = (dl + half - local_idx) % half;
            if fwd <= half - fwd {
                east.push(ring_base + dl);
            } else {
                west.push(ring_base + dl);
            }
        }
        let other_base = (1 - my_ring) * half;
        let other: Vec<u32> = (other_base..other_base + half).collect();
        let rules =
            crate::chip::routing_rules(map, &[(PORT_E, east), (PORT_W, west), (PORT_S, other)]);
        let chip = fabric.device_mut::<Peach2>(chips[i as usize]);
        for (slot, rule) in rules.into_iter().enumerate() {
            chip.regs_mut().routes[slot] = rule;
        }
    }
    SubCluster { nodes, chips, map }
}

/// The Fig. 10 loopback rig: **two** PEACH2 boards in a **single** node,
/// connected E→W by one cable, used for the strict latency measurement of
/// §IV-B1. Board A is node 0, board B node 1 of a 2-node map; the host
/// routes node 1's slice to board A (so a CPU store to "PEACH2-B's region"
/// enters board A and crosses the cable), and board B's port N delivers
/// into host DRAM.
pub struct LoopbackRig {
    /// The single host node.
    pub node: Node,
    /// Board A (receives the CPU store).
    pub board_a: DeviceId,
    /// Board B (writes back to host memory).
    pub board_b: DeviceId,
    /// The 2-node map shared by both boards.
    pub map: TcaMap,
}

/// Builds the loopback rig.
pub fn build_loopback(fabric: &mut Fabric, cfg: &NodeConfig, params: Peach2Params) -> LoopbackRig {
    let map = TcaMap::new(2);
    let mut node = build_node(fabric, "lo", cfg);

    let board_a = fabric.add_device(|id| Peach2::new(id, "peach2.A", 0, map, params));
    let port_a = node.claim_port();
    fabric.connect((node.host, port_a), (board_a, PORT_N), params.host_link);

    let board_b = fabric.add_device(|id| Peach2::new(id, "peach2.B", 1, map, params));
    let port_b = node.claim_port();
    fabric.connect((node.host, port_b), (board_b, PORT_N), params.host_link);

    fabric.connect((board_a, PORT_E), (board_b, PORT_W), params.cable_link);

    {
        let hb = fabric.device_mut::<HostBridge>(node.host);
        // Stores addressed to node 1 (board B's identity) enter board A.
        hb.core_mut().add_window(map.node_slice(1), port_a);
        // Stores addressed to node 0 would enter board B (reverse path).
        hb.core_mut().add_window(map.node_slice(0), port_b);
        hb.core_mut().add_id_route(board_a, port_a);
        hb.core_mut().add_id_route(board_b, port_b);
    }
    // Board A routes node-1 addresses out its E cable.
    {
        let slice = map.slice_size();
        let chip = fabric.device_mut::<Peach2>(board_a);
        chip.regs_mut().routes[0] = RouteRule {
            mask: !(slice - 1),
            lower: map.node_slice(1).base(),
            upper: map.node_slice(1).base(),
            port: Some(PORT_E),
        };
    }
    // Board B routes node-0 addresses out its W cable (for the return leg).
    {
        let slice = map.slice_size();
        let chip = fabric.device_mut::<Peach2>(board_b);
        chip.regs_mut().routes[0] = RouteRule {
            mask: !(slice - 1),
            lower: map.node_slice(0).base(),
            upper: map.node_slice(0).base(),
            port: Some(PORT_W),
        };
    }
    LoopbackRig {
        node,
        board_a,
        board_b,
        map,
    }
}

// ---------------------------------------------------------------------------
// Declarative topology specifications.
// ---------------------------------------------------------------------------

/// One bidirectional cable between two `(node, port)` endpoints of a
/// [`TopoSpec`].
///
/// `dateline` marks the cable as a Dally dateline: a packet crossing it is
/// promoted to the next buffer class, which is how rings and torus wrap
/// links are made provably deadlock-free (see `tca-verify`'s channel
/// dependency graph). `escape` marks a cable whose receive buffering is
/// deep enough to absorb a whole blocked cycle — an escape resource that
/// downgrades a routing cycle from a guaranteed credit deadlock
/// (`TCA-C003`) to a structural finding (`TCA-R002`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cable {
    /// First endpoint, `(node id, port index)`.
    pub a: (u32, u8),
    /// Second endpoint, `(node id, port index)`.
    pub b: (u32, u8),
    /// Crossing this cable bumps the packet's buffer class.
    pub dateline: bool,
    /// This cable's receiver is an escape resource (unbounded buffering).
    pub escape: bool,
}

/// A parse failure with its 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TopoParseError {
    /// 1-based line number the error points at.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TopoParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TopoParseError {}

/// Largest `nodes` count [`TopoSpec::parse`] accepts. The route table is
/// `nodes²` entries, so an unchecked count in a hostile file would try to
/// allocate it whole; 4096 nodes (a 32 MiB table) is 16× the largest
/// registry topology.
pub const MAX_TOPO_NODES: u32 = 4096;

/// Largest number of port names [`TopoSpec::parse`] accepts: a port index
/// is a `u8`.
pub const MAX_TOPO_PORTS: usize = u8::MAX as usize;

/// A declarative topology: nodes, named ports, cables, and a total static
/// route table — pure data, no fabric required.
///
/// This is the layer `tca-verify` proves things about. Unlike the builders
/// above it is not limited to 16 nodes or 4 physical ports, so the same
/// machinery describes the paper's 8-node ring and a 256-node 3D torus
/// (the APEnet+ scaling direction). Small ring/dual-ring instances
/// correspond one-to-one to what [`build_ring`] / [`build_dual_ring`]
/// cable into a real fabric.
///
/// Route semantics mirror the chip: at *every* node — including the
/// destination — the route table is consulted first; a hit forwards the
/// packet, a miss delivers it if the node is the destination and drops it
/// otherwise. A self-route entry is therefore expressible (and is exactly
/// the kind of corruption the prover exists to catch).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TopoSpec {
    /// Topology name (registry key / file header).
    pub name: String,
    /// Number of nodes.
    pub nodes: u32,
    /// Port names; a port index everywhere else indexes this list.
    pub ports: Vec<String>,
    /// Cables in insertion order.
    pub cables: Vec<Cable>,
    /// `routes[node][dst]` = out-port index, `None` = no route (local
    /// delivery when `node == dst`).
    pub routes: Vec<Vec<Option<u8>>>,
}

impl TopoSpec {
    /// An empty (cable-less, route-less) spec over `nodes` nodes.
    pub fn new(name: impl Into<String>, nodes: u32, ports: &[&str]) -> TopoSpec {
        assert!(nodes >= 1, "a topology needs at least one node");
        assert!(!ports.is_empty() && ports.len() <= MAX_TOPO_PORTS);
        TopoSpec {
            name: name.into(),
            nodes,
            ports: ports.iter().map(|p| p.to_string()).collect(),
            cables: Vec::new(),
            routes: vec![vec![None; nodes as usize]; nodes as usize],
        }
    }

    /// Adds a cable between `(a, ap)` and `(b, bp)`.
    pub fn connect(&mut self, a: u32, ap: u8, b: u32, bp: u8, dateline: bool) {
        self.cables.push(Cable {
            a: (a, ap),
            b: (b, bp),
            dateline,
            escape: false,
        });
    }

    /// Programs `node`'s route for `dst`'s traffic to leave via `port`.
    pub fn set_route(&mut self, node: u32, dst: u32, port: u8) {
        self.routes[node as usize][dst as usize] = Some(port);
    }

    /// The out-port `node` forwards `dst`-bound traffic to, if any.
    pub fn route(&self, node: u32, dst: u32) -> Option<u8> {
        self.routes[node as usize][dst as usize]
    }

    /// The port's display name (`"?"` when out of range).
    pub fn port_name(&self, port: u8) -> &str {
        self.ports
            .get(port as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Index of a named port.
    pub fn port_id(&self, name: &str) -> Option<u8> {
        self.ports.iter().position(|p| p == name).map(|i| i as u8)
    }

    /// `adjacency()[node][port]` = `(cable index, travelling a→b?)` for
    /// the cable plugged into that port, if any.
    pub fn adjacency(&self) -> Vec<Vec<Option<(usize, bool)>>> {
        let mut adj = vec![vec![None; self.ports.len()]; self.nodes as usize];
        for (i, c) in self.cables.iter().enumerate() {
            adj[c.a.0 as usize][c.a.1 as usize] = Some((i, true));
            adj[c.b.0 as usize][c.b.1 as usize] = Some((i, false));
        }
        adj
    }

    /// Structural sanity: endpoints in range, no port double-cabled, route
    /// table total over in-range ports. (Routing *correctness* — cycles,
    /// completeness — is `tca-verify`'s job, not a validity condition.)
    pub fn validate(&self) -> Result<(), String> {
        let mut used = std::collections::BTreeSet::new();
        for (i, c) in self.cables.iter().enumerate() {
            for (node, port) in [c.a, c.b] {
                if node >= self.nodes {
                    return Err(format!("cable {i}: node {node} out of range"));
                }
                if usize::from(port) >= self.ports.len() {
                    return Err(format!("cable {i}: port index {port} out of range"));
                }
                if !used.insert((node, port)) {
                    return Err(format!(
                        "cable {i}: n{node}:{} is already cabled",
                        self.port_name(port)
                    ));
                }
            }
        }
        if self.routes.len() != self.nodes as usize {
            return Err("route table row count != node count".into());
        }
        for (n, row) in self.routes.iter().enumerate() {
            if row.len() != self.nodes as usize {
                return Err(format!("node {n}: route row width != node count"));
            }
            for (d, p) in row.iter().enumerate() {
                if let Some(p) = p {
                    if usize::from(*p) >= self.ports.len() {
                        return Err(format!("node {n}: route for n{d} uses bad port {p}"));
                    }
                }
            }
        }
        Ok(())
    }

    // -- generators ---------------------------------------------------------

    /// An `n`-node ring with shortest-path E/W routing (ties go east, like
    /// [`ring_routing`]) and the wrap cable `n-1 → 0` as the dateline.
    pub fn ring(n: u32) -> TopoSpec {
        assert!(n >= 2, "a ring needs at least two nodes");
        let mut t = TopoSpec::new(format!("ring-{n}"), n, &["E", "W"]);
        for i in 0..n {
            t.connect(i, 0, (i + 1) % n, 1, i == n - 1);
        }
        for me in 0..n {
            for d in 0..n {
                if d == me {
                    continue;
                }
                let fwd = (d + n - me) % n;
                t.set_route(me, d, if fwd <= n - fwd { 0 } else { 1 });
            }
        }
        t
    }

    /// The dual ring of [`build_dual_ring`]: two rings of `n/2` nodes
    /// coupled pairwise through port S. Traffic for the other ring crosses
    /// S *first* (dimension order: S before ring), then rides the
    /// destination ring; every wrap and S cable is a dateline.
    pub fn dual_ring(n: u32) -> TopoSpec {
        assert!(
            n >= 4 && n.is_multiple_of(2),
            "dual ring needs an even node count ≥ 4"
        );
        let half = n / 2;
        let mut t = TopoSpec::new(format!("dual-ring-{n}"), n, &["E", "W", "S"]);
        for ring in 0..2u32 {
            let base = ring * half;
            for i in 0..half {
                t.connect(base + i, 0, base + (i + 1) % half, 1, i == half - 1);
            }
        }
        for i in 0..half {
            t.connect(i, 2, i + half, 2, true);
        }
        for me in 0..n {
            let my_ring = me / half;
            let ring_base = my_ring * half;
            let local = me - ring_base;
            for d in 0..n {
                if d == me {
                    continue;
                }
                if d / half != my_ring {
                    t.set_route(me, d, 2); // the other ring: S first
                } else {
                    let dl = d - ring_base;
                    let fwd = (dl + half - local) % half;
                    t.set_route(me, d, if fwd <= half - fwd { 0 } else { 1 });
                }
            }
        }
        t
    }

    /// `rings` rings of `per_ring` nodes each, chained by S-port coupling
    /// (§III-D's "combine two rings" scaled out): ring `r` couples to ring
    /// `r+1` at every node whose index has parity `r mod 2`, so each
    /// node's single S port is used at most once. Routes are shortest
    /// paths (per-destination BFS, lowest-port tie-break), which makes
    /// forward and return hop counts equal; all S and wrap cables are
    /// datelines, keeping the channel dependency graph acyclic.
    pub fn multi_ring_s(rings: u32, per_ring: u32) -> TopoSpec {
        assert!(rings >= 2, "need at least two rings to couple");
        assert!(
            per_ring >= 4 && per_ring.is_multiple_of(2),
            "each ring needs an even node count ≥ 4"
        );
        let n = rings * per_ring;
        let mut t = TopoSpec::new(
            format!("multi-ring-s-{rings}x{per_ring}"),
            n,
            &["E", "W", "S"],
        );
        let id = |r: u32, i: u32| r * per_ring + i;
        for r in 0..rings {
            for i in 0..per_ring {
                t.connect(id(r, i), 0, id(r, (i + 1) % per_ring), 1, i == per_ring - 1);
            }
        }
        for r in 0..rings - 1 {
            for i in 0..per_ring {
                if i % 2 == r % 2 {
                    t.connect(id(r, i), 2, id(r + 1, i), 2, true);
                }
            }
        }
        t.route_shortest_paths();
        t
    }

    /// Fills the route table with shortest paths over the cable graph:
    /// per-destination BFS, each node forwarding out its lowest-indexed
    /// port that lies on a shortest path. Hop counts are then symmetric
    /// (undirected distance) and every walk strictly approaches the
    /// destination, so the walks always converge.
    pub fn route_shortest_paths(&mut self) {
        let adj = self.adjacency();
        let n = self.nodes as usize;
        // nbr[node][port] = the node at the far end of that port's cable.
        let nbr: Vec<Vec<Option<u32>>> = adj
            .iter()
            .map(|row| {
                row.iter()
                    .map(|slot| {
                        slot.map(|(c, fwd)| {
                            let cable = &self.cables[c];
                            if fwd {
                                cable.b.0
                            } else {
                                cable.a.0
                            }
                        })
                    })
                    .collect()
            })
            .collect();
        let peer = |node: usize, port: usize| nbr[node][port];
        for dst in 0..self.nodes {
            let mut dist = vec![u32::MAX; n];
            dist[dst as usize] = 0;
            let mut queue = std::collections::VecDeque::from([dst]);
            while let Some(v) = queue.pop_front() {
                for port in 0..self.ports.len() {
                    if let Some(u) = peer(v as usize, port) {
                        if dist[u as usize] == u32::MAX {
                            dist[u as usize] = dist[v as usize] + 1;
                            queue.push_back(u);
                        }
                    }
                }
            }
            for me in 0..self.nodes {
                if me == dst || dist[me as usize] == u32::MAX {
                    continue;
                }
                let port = (0..self.ports.len()).find(|&p| {
                    peer(me as usize, p).is_some_and(|u| dist[u as usize] + 1 == dist[me as usize])
                });
                if let Some(p) = port {
                    self.set_route(me, dst, p as u8);
                }
            }
        }
    }

    /// A `w`×`h` 2D torus with dimension-order (X then Y) shortest-path
    /// routing; ties go in the `+` direction, wrap cables are datelines.
    pub fn torus2d(w: u32, h: u32) -> TopoSpec {
        assert!(w >= 2 && h >= 2, "torus dimensions must be ≥ 2");
        let mut t = TopoSpec::new(format!("torus2d-{w}x{h}"), w * h, &["X+", "X-", "Y+", "Y-"]);
        let id = |x: u32, y: u32| y * w + x;
        for y in 0..h {
            for x in 0..w {
                t.connect(id(x, y), 0, id((x + 1) % w, y), 1, x == w - 1);
                t.connect(id(x, y), 2, id(x, (y + 1) % h), 3, y == h - 1);
            }
        }
        for me in 0..w * h {
            let (mx, my) = (me % w, me / w);
            for d in 0..w * h {
                if d == me {
                    continue;
                }
                let (dx, dy) = (d % w, d / w);
                let port = if dx != mx {
                    let fwd = (dx + w - mx) % w;
                    if fwd <= w - fwd {
                        0
                    } else {
                        1
                    }
                } else {
                    let fwd = (dy + h - my) % h;
                    if fwd <= h - fwd {
                        2
                    } else {
                        3
                    }
                };
                t.set_route(me, d, port);
            }
        }
        t
    }

    /// A `w`×`h`×`d` 3D torus with dimension-order (X, Y, then Z)
    /// shortest-path routing — the APEnet+ network shape.
    pub fn torus3d(w: u32, h: u32, d: u32) -> TopoSpec {
        assert!(w >= 2 && h >= 2 && d >= 2, "torus dimensions must be ≥ 2");
        let mut t = TopoSpec::new(
            format!("torus3d-{w}x{h}x{d}"),
            w * h * d,
            &["X+", "X-", "Y+", "Y-", "Z+", "Z-"],
        );
        let id = |x: u32, y: u32, z: u32| (z * h + y) * w + x;
        for z in 0..d {
            for y in 0..h {
                for x in 0..w {
                    t.connect(id(x, y, z), 0, id((x + 1) % w, y, z), 1, x == w - 1);
                    t.connect(id(x, y, z), 2, id(x, (y + 1) % h, z), 3, y == h - 1);
                    t.connect(id(x, y, z), 4, id(x, y, (z + 1) % d), 5, z == d - 1);
                }
            }
        }
        let dim = |from: u32, to: u32, len: u32, plus: u8| -> Option<u8> {
            if from == to {
                return None;
            }
            let fwd = (to + len - from) % len;
            Some(if fwd <= len - fwd { plus } else { plus + 1 })
        };
        for me in 0..w * h * d {
            let (mx, my, mz) = (me % w, (me / w) % h, me / (w * h));
            for dst in 0..w * h * d {
                if dst == me {
                    continue;
                }
                let (dx, dy, dz) = (dst % w, (dst / w) % h, dst / (w * h));
                let port = dim(mx, dx, w, 0)
                    .or_else(|| dim(my, dy, h, 2))
                    .or_else(|| dim(mz, dz, d, 4))
                    .expect("dst != me implies some coordinate differs");
                t.set_route(me, dst, port);
            }
        }
        t
    }

    // -- text format --------------------------------------------------------

    /// Serializes the spec in the `.topo` text format [`TopoSpec::parse`]
    /// reads back; `parse(to_text(t)) == t`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("topology {}\n", self.name));
        out.push_str(&format!("ports {}\n", self.ports.join(" ")));
        out.push_str(&format!("nodes {}\n", self.nodes));
        for c in &self.cables {
            out.push_str(&format!(
                "cable n{}:{} n{}:{}",
                c.a.0,
                self.port_name(c.a.1),
                c.b.0,
                self.port_name(c.b.1)
            ));
            if c.dateline {
                out.push_str(" dateline");
            }
            if c.escape {
                out.push_str(" escape");
            }
            out.push('\n');
        }
        for (node, row) in self.routes.iter().enumerate() {
            for (dst, port) in row.iter().enumerate() {
                if let Some(p) = port {
                    out.push_str(&format!("route n{node} n{dst} {}\n", self.port_name(*p)));
                }
            }
        }
        out
    }

    /// Parses the `.topo` text format, reporting the first problem with
    /// its 1-based line number:
    ///
    /// ```text
    /// # a 2-node ring
    /// topology tiny
    /// ports E W
    /// nodes 2
    /// cable n0:E n1:W
    /// cable n1:E n0:W dateline
    /// route n0 n1 E
    /// route n1 n0 E
    /// ```
    pub fn parse(text: &str) -> Result<TopoSpec, TopoParseError> {
        let err = |line: usize, message: String| TopoParseError { line, message };
        let mut spec: Option<TopoSpec> = None;
        let mut name: Option<String> = None;
        let mut ports: Option<Vec<String>> = None;
        for (i, raw) in text.lines().enumerate() {
            let lno = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let kw = words.next().expect("non-empty line has a first word");
            let rest: Vec<&str> = words.collect();
            match kw {
                "topology" => {
                    if rest.len() != 1 {
                        return Err(err(lno, "expected: topology <name>".into()));
                    }
                    name = Some(rest[0].to_string());
                }
                "ports" => {
                    if rest.is_empty() {
                        return Err(err(lno, "expected: ports <name>...".into()));
                    }
                    if rest.len() > MAX_TOPO_PORTS {
                        return Err(err(
                            lno,
                            format!(
                                "{} ports declared, at most {MAX_TOPO_PORTS} allowed",
                                rest.len()
                            ),
                        ));
                    }
                    ports = Some(rest.iter().map(|p| p.to_string()).collect());
                }
                "nodes" => {
                    let n: u32 = rest
                        .first()
                        .and_then(|w| w.parse().ok())
                        .filter(|&n| (1..=MAX_TOPO_NODES).contains(&n))
                        .ok_or_else(|| {
                            err(
                                lno,
                                format!("expected: nodes <count in 1..={MAX_TOPO_NODES}>"),
                            )
                        })?;
                    let name = name
                        .clone()
                        .ok_or_else(|| err(lno, "`topology <name>` must come first".into()))?;
                    let ports = ports
                        .clone()
                        .ok_or_else(|| err(lno, "`ports ...` must come before `nodes`".into()))?;
                    let refs: Vec<&str> = ports.iter().map(String::as_str).collect();
                    spec = Some(TopoSpec::new(name, n, &refs));
                }
                "cable" => {
                    let t = spec
                        .as_mut()
                        .ok_or_else(|| err(lno, "`nodes` must come before `cable`".into()))?;
                    if rest.len() < 2 {
                        return Err(err(
                            lno,
                            "expected: cable nA:P nB:P [dateline] [escape]".into(),
                        ));
                    }
                    let endpoint = |w: &str| -> Result<(u32, u8), TopoParseError> {
                        let (n, p) = w.split_once(':').ok_or_else(|| {
                            err(lno, format!("bad endpoint {w:?}: want n<id>:<port>"))
                        })?;
                        let node: u32 = n
                            .strip_prefix('n')
                            .and_then(|s| s.parse().ok())
                            .filter(|&id| id < t.nodes)
                            .ok_or_else(|| {
                                err(lno, format!("bad or out-of-range node in {w:?}"))
                            })?;
                        let port = t
                            .port_id(p)
                            .ok_or_else(|| err(lno, format!("unknown port {p:?} in {w:?}")))?;
                        Ok((node, port))
                    };
                    let a = endpoint(rest[0])?;
                    let b = endpoint(rest[1])?;
                    let mut dateline = false;
                    let mut escape = false;
                    for attr in &rest[2..] {
                        match *attr {
                            "dateline" => dateline = true,
                            "escape" => escape = true,
                            other => {
                                return Err(err(lno, format!("unknown cable attribute {other:?}")))
                            }
                        }
                    }
                    t.cables.push(Cable {
                        a,
                        b,
                        dateline,
                        escape,
                    });
                }
                "route" => {
                    let t = spec
                        .as_mut()
                        .ok_or_else(|| err(lno, "`nodes` must come before `route`".into()))?;
                    if rest.len() != 3 {
                        return Err(err(lno, "expected: route n<src> n<dst> <port>".into()));
                    }
                    let node_id = |w: &str| -> Result<u32, TopoParseError> {
                        w.strip_prefix('n')
                            .and_then(|s| s.parse().ok())
                            .filter(|&id| id < t.nodes)
                            .ok_or_else(|| err(lno, format!("bad or out-of-range node {w:?}")))
                    };
                    let node = node_id(rest[0])?;
                    let dst = node_id(rest[1])?;
                    let port = t
                        .port_id(rest[2])
                        .ok_or_else(|| err(lno, format!("unknown port {:?}", rest[2])))?;
                    if t.routes[node as usize][dst as usize].is_some() {
                        return Err(err(lno, format!("duplicate route n{node} -> n{dst}")));
                    }
                    t.set_route(node, dst, port);
                }
                other => return Err(err(lno, format!("unknown keyword {other:?}"))),
            }
        }
        let spec = spec.ok_or_else(|| {
            err(
                text.lines().count().max(1),
                "missing `nodes` declaration".into(),
            )
        })?;
        spec.validate()
            .map_err(|m| err(text.lines().count().max(1), m))?;
        Ok(spec)
    }
}

#[cfg(test)]
mod spec_tests {
    use super::*;

    #[test]
    fn ring_spec_matches_ring_routing() {
        // The declarative ring and the register generator agree on every
        // (me, dest) decision, tie-break included.
        for n in [2u32, 4, 5, 8, 16] {
            let spec = TopoSpec::ring(n);
            let map = TcaMap::new(n.next_power_of_two());
            for me in 0..n {
                let rules = ring_routing(map, me, n);
                for d in 0..n {
                    if d == me {
                        continue;
                    }
                    let addr = map.node_slice(d).base();
                    let hw = rules.iter().find(|r| r.matches(addr)).and_then(|r| r.port);
                    let sw = spec
                        .route(me, d)
                        .map(|p| if p == 0 { PORT_E } else { PORT_W });
                    assert_eq!(hw, sw, "ring-{n} {me}->{d}");
                }
            }
        }
    }

    #[test]
    fn generators_validate_and_are_total() {
        for spec in [
            TopoSpec::ring(8),
            TopoSpec::dual_ring(16),
            TopoSpec::multi_ring_s(4, 16),
            TopoSpec::torus2d(8, 8),
            TopoSpec::torus3d(4, 4, 4),
        ] {
            spec.validate().expect("generator output is well-formed");
            for s in 0..spec.nodes {
                for d in 0..spec.nodes {
                    if s == d {
                        assert_eq!(spec.route(s, d), None, "{}: self-route", spec.name);
                    } else {
                        assert!(
                            spec.route(s, d).is_some(),
                            "{}: {s}->{d} unrouted",
                            spec.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn text_round_trips() {
        for spec in [
            TopoSpec::ring(4),
            TopoSpec::dual_ring(8),
            TopoSpec::torus2d(3, 3),
        ] {
            let text = spec.to_text();
            let back = TopoSpec::parse(&text).expect("emitted text parses");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn parse_errors_carry_one_based_lines() {
        // Unknown keyword on line 5 (line 1 is a comment).
        let text = "# hdr\ntopology t\nports E W\nnodes 2\nfrobnicate n0\n";
        let e = TopoSpec::parse(text).expect_err("bad keyword");
        assert_eq!(e.line, 5);
        assert!(e.message.contains("frobnicate"), "{e}");

        // Out-of-range node id.
        let e = TopoSpec::parse("topology t\nports E W\nnodes 2\ncable n0:E n9:W\n")
            .expect_err("bad node");
        assert_eq!(e.line, 4);

        // Cable before nodes.
        let e = TopoSpec::parse("topology t\nports E W\ncable n0:E n1:W\n").expect_err("order");
        assert_eq!(e.line, 3);

        // Duplicate route.
        let e = TopoSpec::parse("topology t\nports E W\nnodes 2\nroute n0 n1 E\nroute n0 n1 W\n")
            .expect_err("dup route");
        assert_eq!(e.line, 5);
        assert!(e.message.contains("duplicate"), "{e}");

        // Double-cabled port caught by validate, reported at end of file.
        let e =
            TopoSpec::parse("topology t\nports E W\nnodes 2\ncable n0:E n1:W\ncable n0:E n1:W\n")
                .expect_err("dup cable");
        assert!(e.message.contains("already cabled"), "{e}");
    }

    #[test]
    fn too_many_ports_is_a_parse_error() {
        let names: Vec<String> = (0..=MAX_TOPO_PORTS).map(|i| format!("p{i}")).collect();
        let text = format!("topology t\nports {}\nnodes 2\n", names.join(" "));
        let e = TopoSpec::parse(&text).expect_err("256 ports");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("256 ports"), "{e}");

        let text = format!("topology t\nports {}\nnodes 2\n", names[1..].join(" "));
        assert_eq!(TopoSpec::parse(&text).expect("255 ports").ports.len(), 255);
    }

    #[test]
    fn node_count_is_capped() {
        let e = TopoSpec::parse("topology t\nports E W\nnodes 4000000000\n")
            .expect_err("huge node count");
        assert_eq!(e.line, 3);
        assert!(e.message.contains("1..=4096"), "{e}");

        let over = format!("topology t\nports E\nnodes {}\n", MAX_TOPO_NODES + 1);
        assert_eq!(TopoSpec::parse(&over).expect_err("cap + 1").line, 3);
    }

    #[test]
    fn display_of_parse_error_is_line_prefixed() {
        let e = TopoParseError {
            line: 7,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "line 7: boom");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_device::map::TcaBlock;

    #[test]
    fn ring_pio_reaches_adjacent_node_dram() {
        let mut f = Fabric::new();
        let sc = build_ring(&mut f, 4, &NodeConfig::default(), Peach2Params::default());
        // Node 0 CPU stores 4 bytes into node 1's Host block at offset 0x40.
        let dst = sc.map.global_addr(1, TcaBlock::Host, 0x40);
        f.drive::<HostBridge, _>(sc.nodes[0].host, |h, ctx| {
            h.core_mut()
                .cpu_store(dst, &0xdead_beefu32.to_le_bytes(), ctx);
        });
        f.run_until_idle();
        assert_eq!(
            f.device::<HostBridge>(sc.nodes[1].host)
                .core()
                .mem_ref()
                .read_u32(0x40),
            0xdead_beef
        );
    }

    #[test]
    fn ring_multi_hop_relays() {
        let mut f = Fabric::new();
        let sc = build_ring(&mut f, 8, &NodeConfig::default(), Peach2Params::default());
        // 0 → 3 must relay through chips 1 and 2 (eastward, 3 hops).
        let dst = sc.map.global_addr(3, TcaBlock::Host, 0);
        f.drive::<HostBridge, _>(sc.nodes[0].host, |h, ctx| {
            h.core_mut().cpu_store(dst, b"hop3", ctx);
        });
        f.run_until_idle();
        assert_eq!(
            f.device::<HostBridge>(sc.nodes[3].host)
                .core()
                .mem_ref()
                .read(0, 4),
            b"hop3"
        );
        assert_eq!(f.device::<Peach2>(sc.chips[1]).relayed.get(), 1);
        assert_eq!(f.device::<Peach2>(sc.chips[2]).relayed.get(), 1);
        assert_eq!(f.device::<Peach2>(sc.chips[4]).relayed.get(), 0);
    }

    #[test]
    fn ring_westward_shortest_path() {
        let mut f = Fabric::new();
        let sc = build_ring(&mut f, 8, &NodeConfig::default(), Peach2Params::default());
        // 0 → 7 is one hop west; chip 1 must see nothing.
        let dst = sc.map.global_addr(7, TcaBlock::Host, 0x10);
        f.drive::<HostBridge, _>(sc.nodes[0].host, |h, ctx| {
            h.core_mut().cpu_store(dst, b"west", ctx);
        });
        f.run_until_idle();
        assert_eq!(
            f.device::<HostBridge>(sc.nodes[7].host)
                .core()
                .mem_ref()
                .read(0x10, 4),
            b"west"
        );
        for c in 1..7 {
            assert_eq!(f.device::<Peach2>(sc.chips[c]).relayed.get(), 0, "chip {c}");
        }
    }

    #[test]
    fn two_node_ring_round_trip() {
        let mut f = Fabric::new();
        let sc = build_ring(&mut f, 2, &NodeConfig::default(), Peach2Params::default());
        let to1 = sc.map.global_addr(1, TcaBlock::Host, 0);
        let to0 = sc.map.global_addr(0, TcaBlock::Host, 0);
        f.drive::<HostBridge, _>(sc.nodes[0].host, |h, ctx| {
            h.core_mut().cpu_store(to1, b"ab", ctx);
        });
        f.drive::<HostBridge, _>(sc.nodes[1].host, |h, ctx| {
            h.core_mut().cpu_store(to0, b"cd", ctx);
        });
        f.run_until_idle();
        assert_eq!(
            f.device::<HostBridge>(sc.nodes[1].host)
                .core()
                .mem_ref()
                .read(0, 2),
            b"ab"
        );
        assert_eq!(
            f.device::<HostBridge>(sc.nodes[0].host)
                .core()
                .mem_ref()
                .read(0, 2),
            b"cd"
        );
    }

    #[test]
    fn dual_ring_crosses_s_port() {
        let mut f = Fabric::new();
        let sc = build_dual_ring(&mut f, 8, &NodeConfig::default(), Peach2Params::default());
        // Node 1 (ring A) → node 6 (ring B): S at node 1 → node 5, then
        // ring B eastward to 6 (or the symmetric route; either way it must
        // arrive).
        let dst = sc.map.global_addr(6, TcaBlock::Host, 0x80);
        f.drive::<HostBridge, _>(sc.nodes[1].host, |h, ctx| {
            h.core_mut().cpu_store(dst, b"ring", ctx);
        });
        f.run_until_idle();
        assert_eq!(
            f.device::<HostBridge>(sc.nodes[6].host)
                .core()
                .mem_ref()
                .read(0x80, 4),
            b"ring"
        );
    }

    #[test]
    fn dual_ring_all_pairs_deliver() {
        let mut f = Fabric::new();
        let sc = build_dual_ring(&mut f, 8, &NodeConfig::default(), Peach2Params::default());
        for src in 0..8u32 {
            for dst in 0..8u32 {
                if src == dst {
                    continue;
                }
                let marker = (src * 16 + dst) as u8;
                let addr = sc
                    .map
                    .global_addr(dst, TcaBlock::Host, 0x1000 + src as u64 * 8);
                f.drive::<HostBridge, _>(sc.nodes[src as usize].host, |h, ctx| {
                    h.core_mut().cpu_store(addr, &[marker], ctx);
                });
            }
        }
        f.run_until_idle();
        for src in 0..8u32 {
            for dst in 0..8u32 {
                if src == dst {
                    continue;
                }
                let marker = (src * 16 + dst) as u8;
                assert_eq!(
                    f.device::<HostBridge>(sc.nodes[dst as usize].host)
                        .core()
                        .mem_ref()
                        .read(0x1000 + src as u64 * 8, 1),
                    vec![marker],
                    "{src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn loopback_rig_one_way_latency_near_782ns() {
        let mut f = Fabric::new();
        let rig = build_loopback(&mut f, &NodeConfig::default(), Peach2Params::default());
        // §IV-B1 methodology: store 4 bytes into board B's host block via
        // board A; B writes it into host DRAM; measure store → DRAM write.
        let poll_addr = 0x6000u64;
        let watch = f
            .device_mut::<HostBridge>(rig.node.host)
            .core_mut()
            .add_watch(tca_pcie::AddrRange::new(poll_addr, 4));
        let dst = rig.map.global_addr(1, TcaBlock::Host, poll_addr);
        let t0 = f.now();
        f.drive::<HostBridge, _>(rig.node.host, |h, ctx| {
            h.core_mut().cpu_store(dst, &1u32.to_le_bytes(), ctx);
        });
        f.run_until_idle();
        let core = f.device::<HostBridge>(rig.node.host).core();
        let hits = core.watch_hits(watch);
        assert_eq!(hits.len(), 1);
        let oneway = hits[0].since(t0);
        // The paper measures 782 ns; the model should land in the same
        // regime (±25%).
        let ns = oneway.as_ns_f64();
        assert!((580.0..980.0).contains(&ns), "one-way latency {ns} ns");
        assert_eq!(core.mem_ref().read_u32(poll_addr), 1);
    }

    #[test]
    fn loopback_reverse_path_through_board_b() {
        // The rig also works backwards: a store addressed to node 0 enters
        // board B, crosses the cable westward, and board A delivers it.
        let mut f = Fabric::new();
        let rig = build_loopback(&mut f, &NodeConfig::default(), Peach2Params::default());
        let dst = rig.map.global_addr(0, TcaBlock::Host, 0x7000);
        f.drive::<HostBridge, _>(rig.node.host, |h, ctx| {
            h.core_mut().cpu_store(dst, b"rev", ctx);
        });
        f.run_until_idle();
        assert_eq!(
            f.device::<HostBridge>(rig.node.host)
                .core()
                .mem_ref()
                .read(0x7000, 3),
            b"rev"
        );
        // Board B relayed it out its W port.
        assert_eq!(
            f.device::<Peach2>(rig.board_b)
                .nios()
                .counters(PORT_W.0)
                .egress,
            1
        );
    }

    #[test]
    fn own_slice_store_hairpins_to_local_memory() {
        // A CPU store to the node's *own* Host block goes down to the chip
        // and hairpins back into local DRAM through the port-N translation.
        let mut f = Fabric::new();
        let sc = build_ring(&mut f, 4, &NodeConfig::default(), Peach2Params::default());
        let dst = sc.map.global_addr(0, TcaBlock::Host, 0x123);
        f.drive::<HostBridge, _>(sc.nodes[0].host, |h, ctx| {
            h.core_mut().cpu_store(dst, &[0x77], ctx);
        });
        f.run_until_idle();
        assert_eq!(
            f.device::<HostBridge>(sc.nodes[0].host)
                .core()
                .mem_ref()
                .read(0x123, 1),
            vec![0x77]
        );
    }

    #[test]
    fn remote_write_to_gpu_block_lands_in_pinned_gddr() {
        use tca_device::Gpu;
        let mut f = Fabric::new();
        let sc = build_ring(&mut f, 2, &NodeConfig::default(), Peach2Params::default());
        // Pin 4 KiB of node 1's GPU0 and write into it from node 0.
        {
            let g = f.device_mut::<Gpu>(sc.nodes[1].gpus[0]);
            let a = g.alloc(4096);
            let t = g.p2p_token(a, 4096);
            g.pin(a, 4096, t);
        }
        let dst = sc.map.global_addr(1, TcaBlock::Gpu0, 0x100);
        f.drive::<HostBridge, _>(sc.nodes[0].host, |h, ctx| {
            h.core_mut().cpu_store(dst, b"gpudirect", ctx);
        });
        f.run_until_idle();
        let g = f.device::<Gpu>(sc.nodes[1].gpus[0]);
        assert_eq!(g.gddr_ref().read(0x100, 9), b"gpudirect");
        assert_eq!(g.faults.get(), 0);
    }

    #[test]
    fn port_s_dynamic_reconfiguration() {
        use crate::nios::{LinkHealth, PortRole};
        let mut f = Fabric::new();
        let sc = build_dual_ring(&mut f, 8, &NodeConfig::default(), Peach2Params::default());
        // Flip node 0's port S role (future-work feature, §III-D).
        f.drive::<Peach2, _>(sc.chips[0], |chip, ctx| {
            assert_eq!(chip.nios().role(PORT_S.0), PortRole::RootComplex);
            chip.reconfigure_port_s(PortRole::Endpoint, ctx);
            assert_eq!(chip.nios().health(PORT_S.0), LinkHealth::Reconfiguring);
        });
        f.run_until_idle(); // the partial reconfiguration completes
        let chip = f.device::<Peach2>(sc.chips[0]);
        assert_eq!(chip.nios().role(PORT_S.0), PortRole::Endpoint);
        assert_eq!(chip.nios().health(PORT_S.0), LinkHealth::Up);
        // Traffic across the reconfigured S port still flows afterwards.
        let dst = sc.map.global_addr(4, TcaBlock::Host, 0x40);
        f.drive::<HostBridge, _>(sc.nodes[0].host, |h, ctx| {
            h.core_mut().cpu_store(dst, b"postcfg", ctx);
        });
        f.run_until_idle();
        assert_eq!(
            f.device::<HostBridge>(sc.nodes[4].host)
                .core()
                .mem_ref()
                .read(0x40, 7),
            b"postcfg"
        );
    }

    #[test]
    #[should_panic(expected = "during")]
    fn traffic_through_reconfiguring_port_panics() {
        use crate::nios::PortRole;
        let mut f = Fabric::new();
        let sc = build_dual_ring(&mut f, 8, &NodeConfig::default(), Peach2Params::default());
        f.drive::<Peach2, _>(sc.chips[0], |chip, ctx| {
            chip.reconfigure_port_s(PortRole::Endpoint, ctx);
        });
        // Route to the other ring while port S is down: operator error.
        let dst = sc.map.global_addr(4, TcaBlock::Host, 0);
        f.drive::<HostBridge, _>(sc.nodes[0].host, |h, ctx| {
            h.core_mut().cpu_store(dst, &[1], ctx);
        });
        f.run_until_idle();
    }

    #[test]
    fn nios_counters_observe_traffic() {
        let mut f = Fabric::new();
        let sc = build_ring(&mut f, 4, &NodeConfig::default(), Peach2Params::default());
        let dst = sc.map.global_addr(2, TcaBlock::Host, 0);
        f.drive::<HostBridge, _>(sc.nodes[0].host, |h, ctx| {
            h.core_mut().cpu_store(dst, &[1, 2, 3, 4], ctx);
        });
        f.run_until_idle();
        // Chip 0 took the packet in on N and out on E; chip 1 relayed.
        let c0 = f.device::<Peach2>(sc.chips[0]);
        assert_eq!(c0.nios().counters(PORT_N.0).ingress, 1);
        assert_eq!(c0.nios().counters(PORT_E.0).egress, 1);
        let c1 = f.device::<Peach2>(sc.chips[1]);
        assert_eq!(c1.nios().counters(PORT_W.0).ingress, 1);
        assert_eq!(c1.nios().counters(PORT_E.0).egress, 1);
        assert_eq!(c1.relayed.get(), 1);
    }

    #[test]
    fn latency_scales_with_hop_count() {
        // A4 experiment shape: each extra ring hop adds cable + transit.
        let mut f = Fabric::new();
        let sc = build_ring(&mut f, 8, &NodeConfig::default(), Peach2Params::default());
        let mut lat = Vec::new();
        for (hop, dstn) in [(1u32, 1u32), (2, 2), (3, 3)] {
            let poll = 0x7000 + hop as u64 * 0x100;
            let watch = f
                .device_mut::<HostBridge>(sc.nodes[dstn as usize].host)
                .core_mut()
                .add_watch(tca_pcie::AddrRange::new(poll, 4));
            let dst = sc.map.global_addr(dstn, TcaBlock::Host, poll);
            let t0 = f.now();
            f.drive::<HostBridge, _>(sc.nodes[0].host, |h, ctx| {
                h.core_mut().cpu_store(dst, &hop.to_le_bytes(), ctx);
            });
            f.run_until_idle();
            let hits = f
                .device::<HostBridge>(sc.nodes[dstn as usize].host)
                .core()
                .watch_hits(watch)
                .to_vec();
            lat.push(hits[0].since(t0));
        }
        assert!(lat[1] > lat[0] && lat[2] > lat[1]);
        let d1 = lat[1] - lat[0];
        let d2 = lat[2] - lat[1];
        assert_eq!(d1, d2, "per-hop increment is constant");
    }
}
