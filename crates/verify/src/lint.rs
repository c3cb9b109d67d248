//! Pass 1: static configuration lint. No simulation — pure inspection of
//! routing tables, link parameters, host windows, and descriptor chains.
//!
//! The checks mirror the ways a TCA configuration actually breaks:
//!
//! * **Windows** (`TCA-W00x`): route rows that shadow each other, can
//!   never match, match no node slice, or leave some node's DRAM/GPU BAR
//!   unreachable from some other node.
//! * **Routing cycles** (`TCA-R001`): the E/W ring + S coupling gives
//!   every chip a local, static table; a per-destination walk over the
//!   cabled graph must converge at the destination. Chips store-and-
//!   forward with unbounded relay buffers, so the fabric deadlocks exactly
//!   when such a walk revisits a chip — reported as the node/port path.
//! * **Credits** (`TCA-C00x`): a flow-control class whose credit pool
//!   cannot fit one maximum-sized TLP stalls forever; a pool smaller than
//!   the round-trip bandwidth-delay product caps throughput.
//! * **Descriptor chains** (`TCA-D00x`): cycles through linked tables
//!   (tortoise/hare), zero-length or misaligned transfers, targets outside
//!   every window, chains beyond the doorbell/SRAM limits, overlapping
//!   destination blocks (the `block_stride` rule as a diagnostic).
//! * **Runtime echoes** (`TCA-F00x`): typed config errors the fabric and
//!   chips recorded while running (dropped packets, dropped register
//!   stores), surfaced post-hoc.

use crate::diag::{DiagSpan, Diagnostic, Report};
use std::collections::BTreeSet;
use tca_device::map::{TcaBlock, TcaMap};
use tca_device::HostBridge;
use tca_pcie::{AddrRange, Fabric, LinkId, PortIdx, TLP_OVERHEAD_BYTES};
use tca_peach2::regs::SRAM_OFFSET;
use tca_peach2::{Descriptor, EngineKind, Peach2, SubCluster, DESC_SIZE, PORT_N};

/// Human name of a PEACH2 port.
fn port_name(p: PortIdx) -> &'static str {
    match p.0 {
        0 => "N",
        1 => "E",
        2 => "W",
        3 => "S",
        _ => "?",
    }
}

/// Runs every static check against a built sub-cluster and its fabric,
/// plus the runtime-echo pass. This is what `TcaCluster::verify()` calls.
pub fn lint_cluster(fabric: &Fabric, sub: &SubCluster) -> Report {
    let mut rep = Report::new();
    rep.extend(lint_routes(fabric, sub));
    rep.extend(lint_reachability(fabric, sub));
    // Whole-fabric channel-dependency proof over the extracted topology.
    // R001 (node revisit) is already reported per-walk above, so only the
    // general cycle finding is taken from the CDG pass here.
    let topo = crate::cdg::extract_topo(fabric, sub);
    rep.extend(
        crate::cdg::lint_topo_cycles(&topo)
            .into_iter()
            .filter(|d| d.code == "TCA-R002")
            .collect(),
    );
    rep.extend(lint_links(fabric));
    rep.extend(runtime_diagnostics(fabric, sub));
    rep
}

/// Per-chip route-row sanity: dead rows, rows matching no slice, and
/// conflicting overlaps (first-match-wins shadows the later row).
pub fn lint_routes(fabric: &Fabric, sub: &SubCluster) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = sub.map.nodes();
    for (me, &chipid) in sub.chips.iter().enumerate() {
        let regs = fabric.device::<Peach2>(chipid).regs();
        let slice_bases: Vec<u64> = (0..n).map(|d| sub.map.node_slice(d).base()).collect();
        for (ri, r) in regs.routes.iter().enumerate() {
            if r.port.is_none() {
                continue;
            }
            if r.lower > r.upper {
                out.push(Diagnostic::warning(
                    "TCA-W002",
                    DiagSpan::node(me as u32, format!("route row {ri}")),
                    format!(
                        "dead route row: lower {:#x} > upper {:#x}, no address can match",
                        r.lower, r.upper
                    ),
                    "disable the row (port = 0xff) or fix its bounds",
                ));
                continue;
            }
            if !slice_bases.iter().any(|&a| r.matches(a)) {
                out.push(Diagnostic::warning(
                    "TCA-W003",
                    DiagSpan::node(me as u32, format!("route row {ri}")),
                    format!(
                        "route row matches no node slice ([{:#x}..{:#x}] under mask {:#x})",
                        r.lower, r.upper, r.mask
                    ),
                    "point the row at a real slice of the TCA window or disable it",
                ));
            }
        }
        // Conflicting overlap: two enabled rows match the same slice base
        // with different ports — the later row is shadowed config noise.
        for (d, &addr) in slice_bases.iter().enumerate() {
            if d == me {
                continue;
            }
            let matched: Vec<(usize, PortIdx)> = regs
                .routes
                .iter()
                .enumerate()
                .filter(|(_, r)| r.matches(addr))
                .map(|(i, r)| (i, r.port.expect("matches implies enabled")))
                .collect();
            for w in matched.windows(2) {
                let ((a, pa), (b, pb)) = (w[0], w[1]);
                if pa != pb {
                    out.push(Diagnostic::warning(
                        "TCA-W001",
                        DiagSpan::node(me as u32, format!("route rows {a} and {b}")),
                        format!(
                            "rows {a} (port {}) and {b} (port {}) both match node {d}'s \
                             slice; first match wins, row {b} is shadowed",
                            port_name(pa),
                            port_name(pb)
                        ),
                        "remove or re-bound the shadowed row",
                    ));
                }
            }
        }
    }
    out
}

/// All-pairs reachability and cycle detection: for every (source,
/// destination, block) triple, walk the packet's route chip by chip over
/// the cabled graph. The walk must terminate at the destination chip;
/// revisiting a chip is a routing cycle (`TCA-R001`), every other failure
/// an unreachable destination (`TCA-W004`). Host windows are checked too:
/// each host must map every slice it may store into.
pub fn lint_reachability(fabric: &Fabric, sub: &SubCluster) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    let mut push = |out: &mut Vec<Diagnostic>, d: Diagnostic| {
        if seen.insert(format!("{}|{}|{}", d.code, d.span, d.message)) {
            out.push(d);
        }
    };
    let n = sub.map.nodes();
    // Host-side windows: a PIO store (or DMA completion path) to any slice
    // must leave the host through some window.
    for (i, node) in sub.nodes.iter().enumerate() {
        let core = fabric.device::<HostBridge>(node.host).core();
        for d in 0..n {
            let addr = sub.map.block(d, TcaBlock::Host).base();
            if !core.windows().iter().any(|(r, _)| r.contains(addr)) {
                push(
                    &mut out,
                    Diagnostic::error(
                        "TCA-W004",
                        DiagSpan::node(i as u32, "host bridge windows"),
                        format!("no host window covers node {d}'s slice ({addr:#x})"),
                        "register a window over the TCA region (attach_peach2 does this)",
                    ),
                );
            }
        }
    }
    // Chip-side walks, for the Host (DRAM) and Gpu0 (BAR) blocks of every
    // destination.
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            for block in [TcaBlock::Host, TcaBlock::Gpu0] {
                let addr = sub.map.block(dst, block).base();
                walk_route(fabric, sub, src, dst, addr, &mut out, &mut seen);
            }
        }
    }
    out
}

/// One routing walk from `src`'s chip toward `addr` (inside `dst`'s
/// slice). Appends at most one deduplicated diagnostic.
#[allow(clippy::too_many_arguments)]
fn walk_route(
    fabric: &Fabric,
    sub: &SubCluster,
    src: u32,
    dst: u32,
    addr: u64,
    out: &mut Vec<Diagnostic>,
    seen: &mut BTreeSet<String>,
) {
    let mut push = |out: &mut Vec<Diagnostic>, d: Diagnostic| {
        if seen.insert(format!("{}|{}|{}", d.code, d.span, d.message)) {
            out.push(d);
        }
    };
    let mut cur = src;
    let mut path: Vec<(u32, PortIdx)> = Vec::new();
    loop {
        if cur == dst {
            return; // delivered: port-N translation terminates the walk
        }
        let chip = fabric.device::<Peach2>(sub.chips[cur as usize]);
        let Some(port) = chip.regs().route(addr) else {
            push(
                out,
                Diagnostic::error(
                    "TCA-W004",
                    DiagSpan::node(cur, "route table"),
                    format!("no route for node {dst}'s slice ({addr:#x}): packets would be undeliverable"),
                    "program a row covering the slice on this chip",
                ),
            );
            return;
        };
        if port == PORT_N {
            push(
                out,
                Diagnostic::error(
                    "TCA-W004",
                    DiagSpan::node(cur, "route table"),
                    format!(
                        "node {dst}'s slice ({addr:#x}) is routed to host port N: \
                         it would terminate at the wrong node"
                    ),
                    "route remote slices through E/W/S only",
                ),
            );
            return;
        }
        let Some((link, _)) = fabric.port_link(sub.chips[cur as usize], port) else {
            push(
                out,
                Diagnostic::error(
                    "TCA-W004",
                    DiagSpan::node(cur, format!("port {}", port_name(port))),
                    format!(
                        "route for node {dst}'s slice exits port {} which has no cable",
                        port_name(port)
                    ),
                    "connect the cable or reroute around it",
                ),
            );
            return;
        };
        let ends = fabric.link_endpoints(link);
        let peer = if ends[0] == (sub.chips[cur as usize], port) {
            ends[1].0
        } else {
            ends[0].0
        };
        let Some(nxt) = sub.chips.iter().position(|&c| c == peer) else {
            push(
                out,
                Diagnostic::error(
                    "TCA-W004",
                    DiagSpan::node(cur, format!("port {}", port_name(port))),
                    format!(
                        "route for node {dst}'s slice exits port {} toward a non-TCA device",
                        port_name(port)
                    ),
                    "TCA traffic must stay on the E/W/S cable mesh",
                ),
            );
            return;
        };
        path.push((cur, port));
        if let Some(k) = path.iter().position(|&(node, _)| node == nxt as u32) {
            let mut cycle = String::new();
            for &(node, p) in &path[k..] {
                cycle.push_str(&format!("n{node}:{} -> ", port_name(p)));
            }
            cycle.push_str(&format!("n{nxt}"));
            push(
                out,
                Diagnostic::error(
                    "TCA-R001",
                    DiagSpan::node(nxt as u32, format!("walk toward node {dst}")),
                    format!("routing cycle: packets for node {dst}'s slice loop along {cycle}"),
                    "reprogram the route rows so every destination walk converges",
                ),
            );
            return;
        }
        cur = nxt as u32;
        if path.len() > sub.chips.len() * 2 + 2 {
            return; // unreachable: the revisit check fires first
        }
    }
}

/// Credit sufficiency per link (`pcie::flow` semantics: data credits are
/// 16-byte units, one header credit per TLP). A class that cannot fit one
/// maximum-sized TLP is a guaranteed stall (`TCA-C001`, error); a posted
/// pool below the round-trip bandwidth-delay product caps throughput
/// (`TCA-C002`, warning).
pub fn lint_links(fabric: &Fabric) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for l in 0..fabric.link_count() {
        let id = LinkId(l as u32);
        let p = fabric.link_params(id);
        let [a, b] = fabric.link_endpoints(id);
        let site = format!(
            "link {l} (dev{}:{} ↔ dev{}:{})",
            a.0 .0,
            port_name(a.1),
            b.0 .0,
            port_name(b.1)
        );
        let starve = |what: &str| {
            Diagnostic::error(
                "TCA-C001",
                DiagSpan::fabric(site.clone()),
                format!("credit starvation: {what} — the class can never transmit"),
                "size every credit pool to at least one maximum-sized TLP",
            )
        };
        if p.posted_hdr_credits == 0 {
            out.push(starve("zero posted header credits"));
        }
        if u64::from(p.posted_data_credits) * 16 < u64::from(p.max_payload) {
            out.push(starve(&format!(
                "posted data credits hold {} B but MPS is {} B",
                u64::from(p.posted_data_credits) * 16,
                p.max_payload
            )));
        }
        if p.nonposted_hdr_credits == 0 {
            out.push(starve("zero non-posted header credits"));
        }
        if p.completion_hdr_credits == 0 {
            out.push(starve("zero completion header credits"));
        }
        if u64::from(p.completion_data_credits) * 16 < u64::from(p.max_payload) {
            out.push(starve(&format!(
                "completion data credits hold {} B but MPS is {} B",
                u64::from(p.completion_data_credits) * 16,
                p.max_payload
            )));
        }
        // Round trip of one MPS write: serialize + propagate, then the
        // credit DLLP's turnaround + flight back.
        let rt = p.serialize(u64::from(p.max_payload) + TLP_OVERHEAD_BYTES)
            + p.latency
            + p.latency
            + p.credit_return_delay;
        let bdp_bytes =
            (u128::from(p.raw_bytes_per_sec()) * u128::from(rt.as_ps())) / 1_000_000_000_000u128;
        let pool_bytes = u128::from(p.posted_data_credits) * 16;
        let hdr_bytes = u128::from(p.posted_hdr_credits) * u128::from(p.max_payload);
        let usable = pool_bytes.min(hdr_bytes);
        if usable > 0 && usable < bdp_bytes {
            out.push(Diagnostic::warning(
                "TCA-C002",
                DiagSpan::fabric(site.clone()),
                format!(
                    "posted credits cover {usable} B in flight but the round-trip \
                     bandwidth-delay product is {bdp_bytes} B: sustained writes will stall"
                ),
                "raise posted_{hdr,data}_credits or shorten credit_return_delay",
            ));
        }
    }
    out
}

/// Context needed to validate one descriptor chain: whose chain it is,
/// what counts as node-local memory, and the chip limits.
#[derive(Clone, Debug)]
pub struct ChainContext {
    /// The shared sub-cluster address map.
    pub map: TcaMap,
    /// TCA node id of the chip that would execute the chain.
    pub node: u32,
    /// Internal SRAM/DDR3 staging capacity in bytes.
    pub sram_size: u64,
    /// Node-local ranges a descriptor may address outside the TCA window
    /// (host DRAM, pinned GPU BARs).
    pub local: Vec<AddrRange>,
    /// Which engine would run the chain.
    pub engine: EngineKind,
}

impl ChainContext {
    /// The context of the chip on `node` of a built sub-cluster: its
    /// SRAM size, with the node's host DRAM as the local range.
    pub fn of_node(fabric: &Fabric, sub: &SubCluster, node: u32, engine: EngineKind) -> Self {
        let i = node as usize;
        ChainContext {
            map: sub.map,
            node,
            sram_size: fabric.device::<Peach2>(sub.chips[i]).params().sram_size,
            local: vec![fabric.device::<HostBridge>(sub.nodes[i].host).core().dram()],
            engine,
        }
    }
}

/// Chained-DMA descriptor validation (`TCA-D00x`). Pass the chain through
/// [`collect_chain`] first if it lives in host memory as linked tables.
pub fn lint_chain(cx: &ChainContext, descs: &[Descriptor]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let node = |i: usize, site: String| DiagSpan::node(cx.node, format!("descriptor {i}: {site}"));
    let xfers: Vec<(usize, &Descriptor)> = descs
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.is_link())
        .collect();
    if xfers.is_empty() {
        out.push(Diagnostic::error(
            "TCA-D005",
            DiagSpan::node(cx.node, "chain"),
            "empty descriptor chain: the doorbell would fire with nothing to do",
            "program at least one transfer descriptor",
        ));
    }
    if xfers.len() > 255 {
        out.push(Diagnostic::error(
            "TCA-D005",
            DiagSpan::node(cx.node, "chain"),
            format!(
                "chain of {} transfers exceeds the 255-descriptor doorbell limit",
                xfers.len()
            ),
            "split the work across multiple doorbells",
        ));
    }
    let own_internal = cx.map.block(cx.node, TcaBlock::Internal);
    let mut dst_ranges: Vec<(usize, AddrRange)> = Vec::new();
    for &(i, d) in &xfers {
        if d.len == 0 {
            out.push(Diagnostic::error(
                "TCA-D002",
                node(i, "len".into()),
                "zero-length transfer: the engine would hang decoding it",
                "drop the descriptor or give it a length",
            ));
            continue;
        }
        if d.src % 4 != 0 || d.dst % 4 != 0 {
            out.push(Diagnostic::warning(
                "TCA-D003",
                node(i, format!("src {:#x} dst {:#x}", d.src, d.dst)),
                "misaligned transfer: src/dst must be 4-byte aligned for full-rate TLPs",
                "align the buffers",
            ));
        }
        for (what, addr, is_dst) in [("src", d.src, false), ("dst", d.dst, true)] {
            let Some(end) = addr.checked_add(d.len) else {
                out.push(Diagnostic::error(
                    "TCA-D004",
                    node(i, format!("{what} {addr:#x}")),
                    format!("{what} + len wraps the 64-bit address space"),
                    "fix the address or length",
                ));
                continue;
            };
            let _ = end;
            match cx.map.classify(addr) {
                Some((owner, block, off)) => {
                    let range = cx.map.block(owner, block);
                    if !range.contains_access(addr, d.len) {
                        out.push(Diagnostic::error(
                            "TCA-D004",
                            node(i, format!("{what} {addr:#x}+{}", d.len)),
                            format!(
                                "transfer crosses out of node {owner}'s {block:?} block {range:?}"
                            ),
                            "keep each descriptor inside one window",
                        ));
                    } else if block == TcaBlock::Internal {
                        if off < SRAM_OFFSET {
                            out.push(Diagnostic::error(
                                "TCA-D004",
                                node(i, format!("{what} {addr:#x}")),
                                "transfer targets the chip register block",
                                "stage through the SRAM region (Internal offset >= 0x1000)",
                            ));
                        } else if off - SRAM_OFFSET + d.len > cx.sram_size {
                            out.push(Diagnostic::error(
                                "TCA-D005",
                                node(i, format!("{what} {addr:#x}+{}", d.len)),
                                format!(
                                    "staging transfer overruns the {} B internal memory",
                                    cx.sram_size
                                ),
                                "shrink the transfer or stage in pieces",
                            ));
                        }
                    }
                    if !is_dst && owner != cx.node {
                        out.push(Diagnostic::error(
                            "TCA-D004",
                            node(i, format!("src {addr:#x}")),
                            format!(
                                "remote source (node {owner}): the fabric is RDMA-put-only, \
                                 reads cannot cross the TCA window"
                            ),
                            "have the owning node push the data instead",
                        ));
                    }
                }
                None => {
                    if !cx.local.iter().any(|r| r.contains_access(addr, d.len)) {
                        out.push(Diagnostic::error(
                            "TCA-D004",
                            node(i, format!("{what} {addr:#x}+{}", d.len)),
                            format!("{what} lies outside every window and local range"),
                            "target host DRAM, a pinned GPU BAR, or the TCA window",
                        ));
                        continue;
                    }
                }
            }
            if is_dst {
                dst_ranges.push((i, AddrRange::new(addr, d.len)));
            }
        }
        if cx.engine == EngineKind::Legacy
            && !(own_internal.contains(d.src) || own_internal.contains(d.dst))
        {
            out.push(Diagnostic::error(
                "TCA-D004",
                node(i, format!("src {:#x} dst {:#x}", d.src, d.dst)),
                "legacy DMAC requires the internal memory as source or destination \
                 (the two-phase restriction of §IV-B2)",
                "stage through internal memory or select the pipelined engine",
            ));
        }
    }
    // The block_stride overlap rule, promoted from an assert to a
    // diagnostic: two transfers writing overlapping destination bytes race
    // within one chain.
    for (ai, wa) in dst_ranges.iter().enumerate() {
        for wb in dst_ranges.iter().skip(ai + 1) {
            if wa.1.overlaps(&wb.1) {
                out.push(Diagnostic::warning(
                    "TCA-D006",
                    node(wa.0, format!("dst {:?}", wa.1)),
                    format!(
                        "descriptors {} and {} write overlapping destination bytes \
                         (stride smaller than block length?)",
                        wa.0, wb.0
                    ),
                    "use strides >= the block length so blocks never collide",
                ));
            }
        }
    }
    out
}

/// Maximum descriptors read from one table while following links; a
/// defensive cap, far above the 255-descriptor doorbell limit.
const MAX_TABLE_ENTRIES: u32 = 4096;

/// Next linked table (address, count) after `t`, or `None` at chain end.
fn chain_step(read_desc: &mut dyn FnMut(u64) -> Descriptor, t: (u64, u32)) -> Option<(u64, u32)> {
    let (base, count) = t;
    for i in 0..count.min(MAX_TABLE_ENTRIES) {
        let d = read_desc(base + u64::from(i) * DESC_SIZE);
        if d.is_link() {
            return Some((d.dst, d.len as u32));
        }
    }
    None
}

/// Follows a chain of linked descriptor tables starting at `(table,
/// count)`, returning the flattened transfer descriptors, or the
/// `TCA-D001` diagnostic when the links cycle. Cycle detection is
/// Floyd's tortoise/hare over table addresses, so a self-link, a two-table
/// loop, and a long tail into a loop are all caught without reading the
/// chain twice into memory.
pub fn collect_chain(
    read_desc: &mut dyn FnMut(u64) -> Descriptor,
    table: u64,
    count: u32,
) -> Result<Vec<Descriptor>, Diagnostic> {
    let mut slow = (table, count);
    let mut fast = (table, count);
    while let Some(f1) = chain_step(read_desc, fast) {
        let Some(f2) = chain_step(read_desc, f1) else {
            break;
        };
        fast = f2;
        slow = chain_step(read_desc, slow).expect("tortoise trails the hare");
        if slow.0 == fast.0 {
            return Err(Diagnostic::error(
                "TCA-D001",
                DiagSpan::fabric(format!("descriptor table {:#x}", slow.0)),
                format!(
                    "descriptor chain cycles: following link entries revisits table {:#x}",
                    slow.0
                ),
                "break the link loop; chains must be finite",
            ));
        }
    }
    let mut out = Vec::new();
    let mut t = Some((table, count));
    while let Some((base, cnt)) = t {
        t = None;
        for i in 0..cnt.min(MAX_TABLE_ENTRIES) {
            let d = read_desc(base + u64::from(i) * DESC_SIZE);
            if d.is_link() {
                t = Some((d.dst, d.len as u32));
                break;
            }
            out.push(d);
        }
    }
    Ok(out)
}

/// Surfaces the typed configuration errors recorded while the simulation
/// ran: packets dropped on unconnected ports (`TCA-F001`) and malformed
/// register stores the chips rejected (`TCA-F002`).
pub fn runtime_diagnostics(fabric: &Fabric, sub: &SubCluster) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for e in fabric.config_errors() {
        out.push(Diagnostic::error(
            "TCA-F001",
            DiagSpan::fabric(format!("{e}")),
            "a packet was dropped on an unconnected port at run time",
            "fix the routing table or connect the cable; run the static lint first",
        ));
    }
    for (i, &chipid) in sub.chips.iter().enumerate() {
        for e in fabric.device::<Peach2>(chipid).reg_errors() {
            out.push(Diagnostic::error(
                "TCA-F002",
                DiagSpan::node(i as u32, format!("{e}")),
                "a malformed register store was dropped at run time",
                "fix the driver's register offsets",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use tca_device::node::NodeConfig;
    use tca_peach2::{build_dual_ring, build_ring, Peach2Params, PORT_S, PORT_W};

    fn ring(n: u32) -> (Fabric, SubCluster) {
        let mut f = Fabric::new();
        let sub = build_ring(&mut f, n, &NodeConfig::default(), Peach2Params::default());
        (f, sub)
    }

    /// Row index on `chip` whose route matches `addr`.
    fn row_for(f: &Fabric, sub: &SubCluster, chip: usize, addr: u64) -> usize {
        f.device::<Peach2>(sub.chips[chip])
            .regs()
            .routes
            .iter()
            .position(|r| r.matches(addr))
            .expect("route row")
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn shipped_rings_lint_clean() {
        for n in [2u32, 4, 8] {
            let (f, sub) = ring(n);
            let rep = lint_cluster(&f, &sub);
            assert!(rep.is_clean(), "ring-{n}:\n{}", rep.render());
        }
        let mut f = Fabric::new();
        let sub = build_dual_ring(&mut f, 8, &NodeConfig::default(), Peach2Params::default());
        let rep = lint_cluster(&f, &sub);
        assert!(rep.is_clean(), "dual-8:\n{}", rep.render());
    }

    #[test]
    fn dead_row_is_w002() {
        let (mut f, sub) = ring(4);
        let addr = sub.map.node_slice(2).base();
        let row = row_for(&f, &sub, 0, addr);
        let regs = f.device_mut::<Peach2>(sub.chips[0]).regs_mut();
        let (lo, up) = (regs.routes[row].lower, regs.routes[row].upper);
        regs.routes[row].lower = up;
        regs.routes[row].upper = lo;
        let diags = lint_routes(&f, &sub);
        assert!(codes(&diags).contains(&"TCA-W002"), "{diags:?}");
        // ...and the slice is now unreachable from node 0.
        let reach = lint_reachability(&f, &sub);
        assert!(codes(&reach).contains(&"TCA-W004"), "{reach:?}");
    }

    #[test]
    fn row_matching_no_slice_is_w003() {
        let (mut f, sub) = ring(4);
        let regs = f.device_mut::<Peach2>(sub.chips[0]).regs_mut();
        regs.routes[7] = tca_peach2::RouteRule {
            mask: !0,
            lower: 0x4242,
            upper: 0x4242,
            port: Some(tca_peach2::PORT_E),
        };
        let diags = lint_routes(&f, &sub);
        let w3: Vec<_> = diags.iter().filter(|d| d.code == "TCA-W003").collect();
        assert_eq!(w3.len(), 1, "{diags:?}");
        assert_eq!(w3[0].span.node, Some(0));
        assert!(w3[0].span.site.contains("route row 7"), "{:?}", w3[0].span);
    }

    #[test]
    fn shadowed_conflicting_row_is_w001() {
        let (mut f, sub) = ring(4);
        let slice = sub.map.node_slice(2);
        let regs = f.device_mut::<Peach2>(sub.chips[0]).regs_mut();
        // A second row covering node 2's slice, but pointing the other way.
        regs.routes[7] = tca_peach2::RouteRule {
            mask: !0,
            lower: slice.base(),
            upper: slice.end() - 1,
            port: Some(PORT_W),
        };
        let diags = lint_routes(&f, &sub);
        let w1: Vec<_> = diags.iter().filter(|d| d.code == "TCA-W001").collect();
        assert_eq!(w1.len(), 1, "{diags:?}");
        assert_eq!(w1[0].severity, Severity::Warning);
        assert!(w1[0].message.contains("shadowed"), "{}", w1[0].message);
    }

    #[test]
    fn route_to_host_port_is_w004() {
        let (mut f, sub) = ring(4);
        let addr = sub.map.node_slice(2).base();
        let row = row_for(&f, &sub, 0, addr);
        f.device_mut::<Peach2>(sub.chips[0]).regs_mut().routes[row].port = Some(PORT_N);
        let diags = lint_reachability(&f, &sub);
        let w4: Vec<_> = diags.iter().filter(|d| d.code == "TCA-W004").collect();
        assert!(!w4.is_empty(), "{diags:?}");
        assert!(w4[0].message.contains("host port N"), "{}", w4[0].message);
    }

    #[test]
    fn route_out_uncabled_port_is_w004() {
        let (mut f, sub) = ring(4);
        let addr = sub.map.node_slice(2).base();
        let row = row_for(&f, &sub, 0, addr);
        // Port S has no cable in a single ring.
        f.device_mut::<Peach2>(sub.chips[0]).regs_mut().routes[row].port = Some(PORT_S);
        let diags = lint_reachability(&f, &sub);
        let w4: Vec<_> = diags.iter().filter(|d| d.code == "TCA-W004").collect();
        assert!(!w4.is_empty(), "{diags:?}");
        assert!(w4[0].message.contains("no cable"), "{}", w4[0].message);
    }

    #[test]
    fn routing_cycle_is_r001_with_path() {
        let (mut f, sub) = ring(4);
        // Node 0 sends node 2's slice east; flip node 1 to send it back west.
        let addr = sub.map.node_slice(2).base();
        let row = row_for(&f, &sub, 1, addr);
        f.device_mut::<Peach2>(sub.chips[1]).regs_mut().routes[row].port = Some(PORT_W);
        let diags = lint_reachability(&f, &sub);
        let r1: Vec<_> = diags.iter().filter(|d| d.code == "TCA-R001").collect();
        assert!(!r1.is_empty(), "{diags:?}");
        assert!(
            r1[0].message.contains("n0:E -> n1:W -> n0"),
            "cycle path missing: {}",
            r1[0].message
        );
        assert_eq!(r1[0].severity, Severity::Error);
    }

    #[test]
    fn credit_starved_link_is_c001() {
        let mut params = Peach2Params::default();
        // 4 data credits = 64 B < the 256 B max payload: guaranteed stall.
        params.cable_link.posted_data_credits = 4;
        let mut f = Fabric::new();
        let sub = build_ring(&mut f, 2, &NodeConfig::default(), params);
        let diags = lint_links(&f);
        let c1: Vec<_> = diags.iter().filter(|d| d.code == "TCA-C001").collect();
        assert!(!c1.is_empty(), "{diags:?}");
        assert!(c1[0].message.contains("64 B"), "{}", c1[0].message);
        drop(sub);
    }

    #[test]
    fn credits_below_bdp_is_c002() {
        let mut params = Peach2Params::default();
        // 32 credits = 512 B: fits one MPS TLP (no C001) but is far below
        // the ~2.3 KB round-trip BDP of a 60 ns gen2 x8 cable.
        params.cable_link.posted_data_credits = 32;
        let mut f = Fabric::new();
        let _sub = build_ring(&mut f, 2, &NodeConfig::default(), params);
        let diags = lint_links(&f);
        assert!(!codes(&diags).contains(&"TCA-C001"), "{diags:?}");
        let c2: Vec<_> = diags.iter().filter(|d| d.code == "TCA-C002").collect();
        assert!(!c2.is_empty(), "{diags:?}");
        assert_eq!(c2[0].severity, Severity::Warning);
    }

    #[test]
    fn descriptor_chain_diagnostics() {
        let (f, sub) = ring(4);
        let cx = ChainContext::of_node(&f, &sub, 0, EngineKind::Pipelined);
        let own_sram = sub.map.block(0, TcaBlock::Internal).base() + SRAM_OFFSET;
        let remote_host = sub.map.block(2, TcaBlock::Host).base();

        // Clean: local DRAM → remote host window.
        let ok = vec![Descriptor::new(0x1000, remote_host, 4096)];
        assert!(lint_chain(&cx, &ok).is_empty());

        // D002: zero length (built raw — Descriptor::new rejects it).
        let zero = Descriptor {
            src: 0x1000,
            dst: remote_host,
            len: 0,
            flags: 0,
        };
        assert_eq!(codes(&lint_chain(&cx, &[zero])), vec!["TCA-D002"]);

        // D003: misalignment is a warning, not an error.
        let mis = lint_chain(&cx, &[Descriptor::new(0x1002, remote_host, 64)]);
        assert_eq!(codes(&mis), vec!["TCA-D003"]);
        assert_eq!(mis[0].severity, Severity::Warning);

        // D004: destination outside every window and local range.
        let stray = lint_chain(&cx, &[Descriptor::new(0x1000, 0x40_0000_0000, 64)]);
        assert_eq!(codes(&stray), vec!["TCA-D004"]);

        // D004: remote source — the fabric is put-only.
        let get = lint_chain(&cx, &[Descriptor::new(remote_host, 0x1000, 64)]);
        assert!(codes(&get).contains(&"TCA-D004"), "{get:?}");
        assert!(get[0].message.contains("put-only"), "{}", get[0].message);

        // D004: legacy engine without internal staging.
        let legacy = ChainContext::of_node(&f, &sub, 0, EngineKind::Legacy);
        let two_phase = lint_chain(&legacy, &[Descriptor::new(0x1000, remote_host, 64)]);
        assert!(codes(&two_phase).contains(&"TCA-D004"), "{two_phase:?}");
        // ...while staging through own internal memory is fine.
        assert!(lint_chain(&legacy, &[Descriptor::new(0x1000, own_sram, 64)]).is_empty());

        // D005: staging transfer overrunning the internal memory.
        let big = lint_chain(
            &cx,
            &[Descriptor::new(0x1000, own_sram, cx.sram_size + 4096)],
        );
        assert!(codes(&big).contains(&"TCA-D005"), "{big:?}");

        // D005: more than 255 transfers behind one doorbell.
        let long: Vec<_> = (0..256)
            .map(|i| Descriptor::new(0x1000, remote_host + i * 8192, 4096))
            .collect();
        assert!(codes(&lint_chain(&cx, &long)).contains(&"TCA-D005"));

        // D005: an empty chain.
        assert!(codes(&lint_chain(&cx, &[])).contains(&"TCA-D005"));

        // D006: overlapping destinations within one chain.
        let clash = lint_chain(
            &cx,
            &[
                Descriptor::new(0x1000, remote_host, 4096),
                Descriptor::new(0x9000, remote_host + 2048, 4096),
            ],
        );
        assert_eq!(codes(&clash), vec!["TCA-D006"]);
    }

    #[test]
    fn linked_tables_flatten_and_cycles_are_d001() {
        // Synthetic descriptor memory: two tables, the first linking to the
        // second.
        let t0 = 0x1_0000u64;
        let t1 = 0x2_0000u64;
        let lookup = move |addr: u64| -> Descriptor {
            if addr == t0 {
                Descriptor::new(0x100, 0x8000, 64)
            } else if addr == t0 + DESC_SIZE {
                Descriptor::link(t1, 2)
            } else if addr == t1 {
                Descriptor::new(0x200, 0x9000, 64)
            } else if addr == t1 + DESC_SIZE {
                Descriptor::new(0x300, 0xa000, 64)
            } else {
                panic!("unexpected read at {addr:#x}")
            }
        };
        let mut read = lookup;
        let chain = collect_chain(&mut read, t0, 2).expect("acyclic");
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[2].src, 0x300);

        // A two-table loop: t0 → t1 → t0.
        let mut cyc = move |addr: u64| -> Descriptor {
            if addr == t0 {
                Descriptor::link(t1, 1)
            } else {
                Descriptor::link(t0, 1)
            }
        };
        let err = collect_chain(&mut cyc, t0, 1).expect_err("cycle");
        assert_eq!(err.code, "TCA-D001");

        // A self-link.
        let mut selfy = move |_addr: u64| Descriptor::link(t0, 1);
        assert_eq!(
            collect_chain(&mut selfy, t0, 1)
                .expect_err("self cycle")
                .code,
            "TCA-D001"
        );
    }

    #[test]
    fn runtime_errors_surface_as_f001_f002() {
        let (mut f, sub) = ring(2);
        // Misroute node 1's slice out the uncabled port S, then store into
        // it: the relay sends into the void and the fabric records it.
        let addr = sub.map.block(1, TcaBlock::Host).base();
        let row = row_for(&f, &sub, 0, addr);
        f.device_mut::<Peach2>(sub.chips[0]).regs_mut().routes[row].port = Some(PORT_S);
        let host0 = sub.nodes[0].host;
        f.drive::<HostBridge, _>(host0, |h, ctx| {
            h.core_mut().cpu_store(addr, &1u64.to_le_bytes(), ctx);
        });
        // A malformed register store: unknown offset in node 1's reg block.
        let bad = sub.map.block(1, TcaBlock::Internal).base() + 0x800;
        let host1 = sub.nodes[1].host;
        f.drive::<HostBridge, _>(host1, |h, ctx| {
            h.core_mut().cpu_store(bad, &1u64.to_le_bytes(), ctx);
        });
        f.run_until_idle();
        let diags = runtime_diagnostics(&f, &sub);
        assert!(codes(&diags).contains(&"TCA-F001"), "{diags:?}");
        assert!(codes(&diags).contains(&"TCA-F002"), "{diags:?}");
    }

    #[test]
    fn cluster_lint_is_deterministic() {
        let build = || {
            let (mut f, sub) = ring(4);
            let addr = sub.map.node_slice(2).base();
            let row = row_for(&f, &sub, 1, addr);
            f.device_mut::<Peach2>(sub.chips[1]).regs_mut().routes[row].port = Some(PORT_W);
            lint_cluster(&f, &sub)
        };
        let (a, b) = (build(), build());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render(), b.render());
    }
}
