//! Dally–Seitz channel dependency graph (CDG) construction and cycle
//! detection over a declarative [`TopoSpec`].
//!
//! A *channel* is one direction of one cable at one flow-control class.
//! Walking every (src, dst) route records, for each hop pair, a dependency
//! edge: a packet holding channel `c1` requests channel `c2`, so `c1`
//! cannot drain until `c2` frees up. Dally & Seitz: deterministic
//! wormhole/virtual-cut-through routing is deadlock-free iff this graph is
//! acyclic.
//!
//! Classes implement the dateline discipline: crossing a cable marked
//! `dateline` promotes the packet to the next class *after* the dateline
//! channel is used, exactly like PCIe/NoC virtual-channel datelines. That
//! is what lets the paper's ring (and its torus scalings) pass: the wrap
//! link's dependencies land in a higher class, so no constant-class loop
//! closes. A route table that loops *forever* (the `TCA-R001` node
//! revisit) is the degenerate special case: its steady-state lap repeats a
//! (node, class) state and therefore closes a genuine CDG cycle
//! (`TCA-R002`).
//!
//! What the proof does and does not cover: acyclicity is over the
//! *declared* routes and classes, assuming consumption at destinations
//! (sinks drain) and per-class buffering. It does not model host-side
//! backpressure, reconfiguration windows, or faults. See `DESIGN.md`.

use crate::diag::{DiagSpan, Diagnostic};
use std::collections::{BTreeMap, BTreeSet};
use tca_pcie::Fabric;
use tca_peach2::{Peach2, SubCluster, TopoSpec};

/// One directed channel: `cable` traversed forward (a→b) or backward, at
/// flow-control class `class`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Channel {
    /// Index into [`TopoSpec::cables`].
    pub cable: usize,
    /// `true` = a→b, `false` = b→a.
    pub fwd: bool,
    /// Flow-control class (datelines crossed so far, saturating).
    pub class: u32,
}

impl Channel {
    /// `n<node>:<port>` of the transmitting endpoint, with `@<class>`
    /// appended for classes above 0.
    pub fn render(&self, spec: &TopoSpec) -> String {
        let c = &spec.cables[self.cable];
        let (node, port) = if self.fwd { c.a } else { c.b };
        let mut s = format!("n{node}:{}", spec.port_name(port));
        if self.class > 0 {
            s.push_str(&format!("@{}", self.class));
        }
        s
    }
}

/// How one (src, dst) route walk ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalkEnd {
    /// Reached `dst` and `dst` had no route for it: local delivery.
    Delivered,
    /// A node other than `dst` had no route: the packet is dropped.
    NoRoute {
        /// Node whose table missed.
        at: u32,
    },
    /// The route exits a port with no cable.
    Unplugged {
        /// Node whose route dead-ends.
        at: u32,
        /// The cable-less port.
        port: u8,
    },
    /// The walk revisited a (node, class) state: `uses[start..]` repeats
    /// forever — the packet never arrives.
    Loop {
        /// Index into `uses` where the repeating lap begins.
        start: usize,
    },
}

/// The full trace of one (src, dst) route walk.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Walk {
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Channels used, in order.
    pub uses: Vec<Channel>,
    /// Outcome.
    pub end: WalkEnd,
    /// First node revisit, if any: `uses[i..j]` is the node loop and the
    /// transmitter of `uses[i]` is the revisited node (`TCA-R001`).
    pub node_loop: Option<(usize, usize)>,
}

/// The channel dependency graph plus its cyclic strongly connected
/// components.
#[derive(Clone, Debug)]
pub struct Cdg {
    /// All channels any walk used, sorted.
    pub channels: Vec<Channel>,
    /// Dependency edges as index pairs into `channels`, sorted and
    /// deduplicated.
    pub edges: Vec<(usize, usize)>,
    /// Cyclic SCCs (size > 1, or a single channel with a self-edge), each
    /// sorted, ordered by smallest member.
    pub sccs: Vec<Vec<usize>>,
}

/// Everything the prover derives from a spec in one pass: all (src, dst)
/// walks and the CDG they induce.
#[derive(Clone, Debug)]
pub struct TopoAnalysis {
    /// One walk per ordered (src, dst) pair, src ≠ dst, lexicographic.
    pub walks: Vec<Walk>,
    /// The channel dependency graph.
    pub cdg: Cdg,
}

/// Walks `src → dst` through the spec's route tables.
///
/// Mirrors the chip: at every node — the destination included — the route
/// table is consulted first; only a miss at `dst` delivers. Classes start
/// at 0 and bump after each dateline cable, saturating at the number of
/// dateline cables so the (node, class) state space is finite and every
/// walk terminates.
pub fn walk(spec: &TopoSpec, src: u32, dst: u32) -> Walk {
    Walker::new(spec).run(src, dst)
}

/// A per-node "visited at use index `at`" mark, valid only while `stamp`
/// equals the counter it was written under.
#[derive(Clone, Copy, Default)]
struct Mark {
    stamp: u64,
    at: usize,
}

/// Walk state reused across every walk of one spec: nothing is cleared or
/// allocated per walk.
///
/// A packet's class never decreases, so a (node, class) state repeats
/// exactly when the node repeats inside the current constant-class
/// segment. `seg` is bumped at each walk start and at each actual class
/// change, which retires every older `seg_marks` entry at once; `walk`
/// does the same for first node visits (`TCA-R001`).
struct Walker<'a> {
    spec: &'a TopoSpec,
    adj: Vec<Vec<Option<(usize, bool)>>>,
    /// Saturating class ceiling: the number of dateline cables.
    max_class: u32,
    walk: u64,
    node_marks: Vec<Mark>,
    seg: u64,
    seg_marks: Vec<Mark>,
    /// Scratch for the current walk's channels, copied out at exact size.
    uses: Vec<Channel>,
}

impl<'a> Walker<'a> {
    fn new(spec: &'a TopoSpec) -> Self {
        let n = spec.nodes as usize;
        Walker {
            spec,
            adj: spec.adjacency(),
            max_class: spec.cables.iter().filter(|c| c.dateline).count() as u32,
            walk: 0,
            node_marks: vec![Mark::default(); n],
            seg: 0,
            seg_marks: vec![Mark::default(); n],
            uses: Vec::new(),
        }
    }

    fn run(&mut self, src: u32, dst: u32) -> Walk {
        self.uses.clear();
        self.walk += 1;
        self.seg += 1;
        let mut cur = src;
        let mut class = 0u32;
        let mut node_loop = None;
        let end = loop {
            let Some(port) = self.spec.route(cur, dst) else {
                break if cur == dst {
                    WalkEnd::Delivered
                } else {
                    WalkEnd::NoRoute { at: cur }
                };
            };
            let here = self.uses.len();
            let seg = &mut self.seg_marks[cur as usize];
            if seg.stamp == self.seg {
                break WalkEnd::Loop { start: seg.at };
            }
            *seg = Mark {
                stamp: self.seg,
                at: here,
            };
            if node_loop.is_none() {
                let node = &mut self.node_marks[cur as usize];
                if node.stamp == self.walk {
                    node_loop = Some((node.at, here));
                } else {
                    *node = Mark {
                        stamp: self.walk,
                        at: here,
                    };
                }
            }
            let Some((cable, fwd)) = self.adj[cur as usize][port as usize] else {
                break WalkEnd::Unplugged { at: cur, port };
            };
            self.uses.push(Channel { cable, fwd, class });
            let c = &self.spec.cables[cable];
            if c.dateline && class < self.max_class {
                class += 1;
                self.seg += 1;
            }
            cur = if fwd { c.b.0 } else { c.a.0 };
        };
        Walk {
            src,
            dst,
            uses: self.uses.clone(),
            end,
            node_loop,
        }
    }
}

/// Dense channel interning and edge deduplication for one analysis.
///
/// No table is sized (cables × classes): the saturating class can reach
/// the dateline count, so each directed cable keeps only the classes it
/// has actually carried.
struct CdgBuilder {
    /// `by_link[2 * cable + fwd]`: `(class, id)` of every channel seen on
    /// that directed cable, sorted by class.
    by_link: Vec<Vec<(u32, usize)>>,
    /// Channels in first-seen (id) order.
    channels: Vec<Channel>,
    /// Deduplicated successor ids, per channel id.
    succ: Vec<Vec<usize>>,
}

impl CdgBuilder {
    fn new(cables: usize) -> Self {
        CdgBuilder {
            by_link: vec![Vec::new(); 2 * cables],
            channels: Vec::new(),
            succ: Vec::new(),
        }
    }

    fn intern(&mut self, ch: Channel) -> usize {
        let link = &mut self.by_link[2 * ch.cable + usize::from(ch.fwd)];
        match link.binary_search_by_key(&ch.class, |&(class, _)| class) {
            Ok(i) => link[i].1,
            Err(i) => {
                let id = self.channels.len();
                link.insert(i, (ch.class, id));
                self.channels.push(ch);
                self.succ.push(Vec::new());
                id
            }
        }
    }

    fn depend(&mut self, from: usize, to: usize) {
        let succ = &mut self.succ[from];
        if !succ.contains(&to) {
            succ.push(to);
        }
    }

    /// Renumbers channels into [`Channel`]'s `Ord` order — which is
    /// exactly `by_link` order — and sorts the remapped edges.
    fn finish(self) -> Cdg {
        let mut rank = vec![0; self.channels.len()];
        let mut channels = Vec::with_capacity(self.channels.len());
        for &(_, id) in self.by_link.iter().flatten() {
            rank[id] = channels.len();
            channels.push(self.channels[id]);
        }
        let mut edges = Vec::new();
        for (a, succ) in self.succ.iter().enumerate() {
            edges.extend(succ.iter().map(|&b| (rank[a], rank[b])));
        }
        edges.sort_unstable();
        let sccs = cyclic_sccs(channels.len(), &edges);
        Cdg {
            channels,
            edges,
            sccs,
        }
    }
}

/// Runs every (src, dst) walk and builds the CDG.
pub fn analyze(spec: &TopoSpec) -> TopoAnalysis {
    let n = spec.nodes as usize;
    let mut walker = Walker::new(spec);
    let mut cdg = CdgBuilder::new(spec.cables.len());
    let mut ids: Vec<usize> = Vec::new();
    let mut walks = Vec::with_capacity(n * n.saturating_sub(1));
    for src in 0..spec.nodes {
        for dst in 0..spec.nodes {
            if src == dst {
                continue;
            }
            let w = walker.run(src, dst);
            ids.clear();
            ids.extend(w.uses.iter().map(|&u| cdg.intern(u)));
            for pair in ids.windows(2) {
                cdg.depend(pair[0], pair[1]);
            }
            if let WalkEnd::Loop { start } = w.end {
                // The next transmit after the last use repeats uses[start]:
                // the edge that closes the steady-state lap.
                if let (Some(&last), Some(&first)) = (ids.last(), ids.get(start)) {
                    cdg.depend(last, first);
                }
            }
            walks.push(w);
        }
    }
    TopoAnalysis {
        walks,
        cdg: cdg.finish(),
    }
}

/// Kosaraju SCC over the sorted edge list; keeps only cyclic components
/// (size > 1 or self-looped), sorted for deterministic reporting.
fn cyclic_sccs(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut fwd = vec![Vec::new(); n];
    let mut rev = vec![Vec::new(); n];
    for &(a, b) in edges {
        fwd[a].push(b);
        rev[b].push(a);
    }
    // Pass 1: finish order on the forward graph (iterative DFS).
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for root in 0..n {
        if seen[root] {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        seen[root] = true;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < fwd[v].len() {
                let w = fwd[v][*i];
                *i += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse graph in reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut ncomp = 0;
    for &root in order.iter().rev() {
        if comp[root] != usize::MAX {
            continue;
        }
        let mut stack = vec![root];
        comp[root] = ncomp;
        while let Some(v) = stack.pop() {
            for &w in &rev[v] {
                if comp[w] == usize::MAX {
                    comp[w] = ncomp;
                    stack.push(w);
                }
            }
        }
        ncomp += 1;
    }
    let mut members = vec![Vec::new(); ncomp];
    for (v, &c) in comp.iter().enumerate() {
        members[c].push(v);
    }
    let mut out: Vec<Vec<usize>> = members
        .into_iter()
        .filter(|m| m.len() > 1 || edges.binary_search(&(m[0], m[0])).is_ok())
        .collect();
    for m in &mut out {
        m.sort_unstable();
    }
    out.sort_by_key(|m| m[0]);
    out
}

/// Renders one representative cycle through `scc` as a channel chain,
/// closing back on its first element: `n0:E -> n1:E -> n0:E`.
pub(crate) fn scc_chain(spec: &TopoSpec, cdg: &Cdg, scc: &[usize]) -> String {
    let start = scc[0];
    let mut at = start;
    let mut path = vec![start];
    let mut pos: BTreeMap<usize, usize> = BTreeMap::new();
    pos.insert(start, 0);
    let cycle = loop {
        // Deterministic: smallest in-SCC successor.
        let from = cdg.edges.partition_point(|&(a, _)| a < at);
        let next = cdg.edges[from..]
            .iter()
            .take_while(|&&(a, _)| a == at)
            .map(|&(_, b)| b)
            .find(|b| scc.binary_search(b).is_ok())
            .expect("every SCC member has an in-SCC successor");
        if let Some(&k) = pos.get(&next) {
            break &path[k..];
        }
        pos.insert(next, path.len());
        path.push(next);
        at = next;
    };
    let mut s = String::new();
    for &c in cycle {
        s.push_str(&cdg.channels[c].render(spec));
        s.push_str(" -> ");
    }
    s.push_str(&cdg.channels[cycle[0]].render(spec));
    s
}

/// `TCA-R001` (route-table node revisit — the walk never converges) and
/// `TCA-R002` (channel dependency cycle) diagnostics for an analyzed spec.
pub fn cycle_diagnostics(spec: &TopoSpec, an: &TopoAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for w in &an.walks {
        let Some((i, j)) = w.node_loop else { continue };
        let head = {
            let c = &spec.cables[w.uses[i].cable];
            if w.uses[i].fwd {
                c.a.0
            } else {
                c.b.0
            }
        };
        let mut chain = String::new();
        for u in &w.uses[i..j] {
            let c = &spec.cables[u.cable];
            let (node, port) = if u.fwd { c.a } else { c.b };
            chain.push_str(&format!("n{node}:{} -> ", spec.port_name(port)));
        }
        chain.push_str(&format!("n{head}"));
        let message = format!(
            "routing cycle: packets for node {} loop along {chain}",
            w.dst
        );
        if seen.insert(message.clone()) {
            out.push(Diagnostic::error(
                "TCA-R001",
                DiagSpan::node(head, format!("walk toward node {}", w.dst)),
                message,
                "reprogram the route rows so every destination walk converges",
            ));
        }
    }
    for scc in &an.cdg.sccs {
        let chain = scc_chain(spec, &an.cdg, scc);
        out.push(Diagnostic::error(
            "TCA-R002",
            DiagSpan::fabric("channel dependency graph"),
            format!(
                "channel dependency cycle over {} channels: {chain}",
                scc.len()
            ),
            "mark one cable of the loop as a dateline (class bump) or reroute to break the cycle",
        ));
    }
    out
}

/// Convenience: analyze + [`cycle_diagnostics`] in one call.
pub fn lint_topo_cycles(spec: &TopoSpec) -> Vec<Diagnostic> {
    cycle_diagnostics(spec, &analyze(spec))
}

/// Graphviz export of the CDG. Channels are graph nodes (dateline
/// channels dashed); members of cyclic SCCs are drawn red.
pub fn cdg_dot(spec: &TopoSpec, cdg: &Cdg) -> String {
    let mut bad = BTreeSet::new();
    for scc in &cdg.sccs {
        bad.extend(scc.iter().copied());
    }
    let mut s = String::new();
    s.push_str("digraph cdg {\n");
    s.push_str(&format!(
        "  label=\"{} channel dependency graph\";\n",
        spec.name
    ));
    s.push_str("  node [shape=box, fontname=\"monospace\"];\n");
    for (i, c) in cdg.channels.iter().enumerate() {
        let mut attrs = Vec::new();
        if spec.cables[c.cable].dateline {
            attrs.push("style=dashed".to_string());
        }
        if bad.contains(&i) {
            attrs.push("color=red".to_string());
        }
        let attrs = if attrs.is_empty() {
            String::new()
        } else {
            format!(" [{}]", attrs.join(", "))
        };
        s.push_str(&format!("  \"{}\"{attrs};\n", c.render(spec)));
    }
    for &(a, b) in &cdg.edges {
        let color = if bad.contains(&a) && bad.contains(&b) {
            " [color=red]"
        } else {
            ""
        };
        s.push_str(&format!(
            "  \"{}\" -> \"{}\"{color};\n",
            cdg.channels[a].render(spec),
            cdg.channels[b].render(spec)
        ));
    }
    s.push_str("}\n");
    s
}

/// Structural metrics for registry sweeps (`tca-bench --scenario
/// topo-registry`). All integers; averages are exact rationals as
/// (numerator, denominator).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TopoMetrics {
    /// Node count.
    pub nodes: u32,
    /// Cable count.
    pub cables: usize,
    /// Distinct channels used by any route.
    pub channels: usize,
    /// CDG edge count.
    pub cdg_edges: usize,
    /// Cyclic SCC count (0 for a proven-acyclic spec).
    pub cycles: usize,
    /// Longest delivered route, in hops.
    pub diameter_hops: usize,
    /// Sum of delivered route lengths.
    pub hop_sum: usize,
    /// Number of delivered (src, dst) pairs.
    pub delivered_pairs: usize,
}

/// Computes [`TopoMetrics`] from an analysis.
pub fn topo_metrics(spec: &TopoSpec, an: &TopoAnalysis) -> TopoMetrics {
    let mut diameter = 0;
    let mut hop_sum = 0;
    let mut delivered = 0;
    for w in &an.walks {
        if w.end == WalkEnd::Delivered {
            delivered += 1;
            hop_sum += w.uses.len();
            diameter = diameter.max(w.uses.len());
        }
    }
    TopoMetrics {
        nodes: spec.nodes,
        cables: spec.cables.len(),
        channels: an.cdg.channels.len(),
        cdg_edges: an.cdg.edges.len(),
        cycles: an.cdg.sccs.len(),
        diameter_hops: diameter,
        hop_sum,
        delivered_pairs: delivered,
    }
}

/// Lifts a built fabric sub-cluster into a [`TopoSpec`] so the CDG prover
/// can run on what is actually cabled and programmed.
///
/// Cables are the chip↔chip links (host bridges and other devices are
/// outside the TCA mesh); routes come from each chip's live route rows
/// evaluated at every node slice base — including the chip's *own* slice,
/// so a corrupted self-route shows up as the forwarding loop it really is.
/// Dateline inference: under the builders' contiguous numbering, ring
/// neighbours differ by exactly 1, so any cable joining non-adjacent ids
/// (the ring wrap, every S coupling) is a class boundary.
pub fn extract_topo(fabric: &Fabric, sub: &SubCluster) -> TopoSpec {
    let n = sub.chips.len() as u32;
    let mut spec = TopoSpec::new("fabric", n, &["N", "E", "W", "S"]);
    let mut seen_links = BTreeSet::new();
    for (me, &chip) in sub.chips.iter().enumerate() {
        for port in 1u8..4 {
            let Some((link, _)) = fabric.port_link(chip, tca_pcie::PortIdx(port)) else {
                continue;
            };
            if !seen_links.insert(link.0) {
                continue;
            }
            let ends = fabric.link_endpoints(link);
            let other = if ends[0].0 == chip { ends[1] } else { ends[0] };
            let Some(peer) = sub.chips.iter().position(|&c| c == other.0) else {
                continue; // host bridge or non-TCA device: not a mesh cable
            };
            let a = (me as u32, port);
            let b = (peer as u32, other.1 .0);
            let dateline = (i64::from(a.0) - i64::from(b.0)).abs() != 1;
            spec.cables.push(tca_peach2::Cable {
                a,
                b,
                dateline,
                escape: false,
            });
        }
    }
    for (me, &chip) in sub.chips.iter().enumerate() {
        let regs = fabric.device::<Peach2>(chip).regs();
        for dst in 0..n {
            let addr = sub.map.node_slice(dst).base();
            if let Some(port) = regs.route(addr) {
                spec.set_route(me as u32, dst, port.0);
            }
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(ds: &[Diagnostic]) -> Vec<&'static str> {
        ds.iter().map(|d| d.code).collect()
    }

    #[test]
    fn registry_generators_are_acyclic_and_complete() {
        for spec in [
            TopoSpec::ring(2),
            TopoSpec::ring(8),
            TopoSpec::ring(16),
            TopoSpec::dual_ring(8),
            TopoSpec::dual_ring(16),
            TopoSpec::multi_ring_s(3, 6),
            TopoSpec::torus2d(4, 4),
            TopoSpec::torus2d(3, 5),
            TopoSpec::torus3d(2, 3, 4),
        ] {
            let an = analyze(&spec);
            assert!(
                an.cdg.sccs.is_empty(),
                "{}: CDG cycle {:?}",
                spec.name,
                an.cdg.sccs.first().map(|s| scc_chain(&spec, &an.cdg, s))
            );
            for w in &an.walks {
                assert_eq!(
                    w.end,
                    WalkEnd::Delivered,
                    "{}: {} -> {} did not deliver",
                    spec.name,
                    w.src,
                    w.dst
                );
                assert!(w.node_loop.is_none());
            }
            assert!(codes(&lint_topo_cycles(&spec)).is_empty());
        }
    }

    #[test]
    fn undatelined_ring_is_a_cdg_cycle_but_walks_converge() {
        // Strip the dateline: every walk still delivers (no R001), but the
        // east and west channel rings each close a constant-class cycle.
        let mut spec = TopoSpec::ring(4);
        for c in &mut spec.cables {
            c.dateline = false;
        }
        let an = analyze(&spec);
        for w in &an.walks {
            assert_eq!(w.end, WalkEnd::Delivered);
            assert!(w.node_loop.is_none());
        }
        assert!(!an.cdg.sccs.is_empty(), "expected a CDG cycle");
        let diags = cycle_diagnostics(&spec, &an);
        assert!(codes(&diags).contains(&"TCA-R002"));
        assert!(!codes(&diags).contains(&"TCA-R001"));
    }

    #[test]
    fn all_east_injection_is_r001_and_r002() {
        // Route *everything* east, including each node's own slice: the
        // classic wedged ring. Both the node-revisit special case and the
        // general CDG cycle must fire.
        let mut spec = TopoSpec::ring(4);
        for node in 0..4 {
            for dst in 0..4 {
                spec.set_route(node, dst, 0);
            }
        }
        let diags = lint_topo_cycles(&spec);
        let cs = codes(&diags);
        assert!(cs.contains(&"TCA-R001"), "{cs:?}");
        assert!(cs.contains(&"TCA-R002"), "{cs:?}");
    }

    #[test]
    fn r002_renders_the_full_channel_chain() {
        let mut spec = TopoSpec::ring(4);
        for c in &mut spec.cables {
            c.dateline = false;
        }
        let diags = lint_topo_cycles(&spec);
        let r2 = diags
            .iter()
            .find(|d| d.code == "TCA-R002")
            .expect("cycle reported");
        // The east ring closes on itself.
        assert!(
            r2.message.contains("n0:E -> n1:E -> n2:E -> n3:E -> n0:E"),
            "{}",
            r2.message
        );
    }

    #[test]
    fn dot_export_marks_cycles_red() {
        let mut spec = TopoSpec::ring(4);
        for c in &mut spec.cables {
            c.dateline = false;
        }
        let an = analyze(&spec);
        let dot = cdg_dot(&spec, &an.cdg);
        assert!(dot.starts_with("digraph cdg {"));
        assert!(dot.contains("color=red"), "{dot}");

        let clean = TopoSpec::ring(4);
        let an = analyze(&clean);
        let dot = cdg_dot(&clean, &an.cdg);
        assert!(!dot.contains("color=red"), "{dot}");
        assert!(
            dot.contains("style=dashed"),
            "dateline channel missing: {dot}"
        );
    }

    #[test]
    fn metrics_count_the_ring() {
        let spec = TopoSpec::ring(4);
        let m = topo_metrics(&spec, &analyze(&spec));
        assert_eq!(m.nodes, 4);
        assert_eq!(m.cables, 4);
        assert_eq!(m.cycles, 0);
        assert_eq!(m.delivered_pairs, 12);
        assert_eq!(m.diameter_hops, 2);
    }
}
