//! The BTree channel-dependency prover that `cdg`/`reach` replaced with
//! dense indices, kept verbatim (types renamed `RefAnalysis`/`RefCdg`) as a
//! *reference model* (test-only): one `BTreeMap` pair per walk, a
//! `BTreeSet<(Channel, Channel)>` edge set, and a `BTreeMap` hop table.
//! The property test below holds the dense prover to it on random specs:
//! walks, channels, edges, SCCs and the full `lint_topo` JSON must match.

use crate::cdg::{Channel, Walk, WalkEnd};
use crate::diag::{DiagSpan, Diagnostic, Report};
use std::collections::{BTreeMap, BTreeSet};
use tca_peach2::TopoSpec;

/// The reference CDG: as `cdg::Cdg`, with the edge set a `BTreeSet`.
struct RefCdg {
    channels: Vec<Channel>,
    edges: BTreeSet<(usize, usize)>,
    sccs: Vec<Vec<usize>>,
}

/// The reference analysis: all walks plus the CDG they induce.
struct RefAnalysis {
    walks: Vec<Walk>,
    cdg: RefCdg,
}

fn walk_with(spec: &TopoSpec, adj: &[Vec<Option<(usize, bool)>>], src: u32, dst: u32) -> Walk {
    let max_class = spec.cables.iter().filter(|c| c.dateline).count() as u32;
    let mut cur = src;
    let mut class = 0u32;
    let mut uses: Vec<Channel> = Vec::new();
    let mut node_first: BTreeMap<u32, usize> = BTreeMap::new();
    let mut state_first: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    let mut node_loop = None;
    let end = loop {
        let Some(port) = spec.route(cur, dst) else {
            break if cur == dst {
                WalkEnd::Delivered
            } else {
                WalkEnd::NoRoute { at: cur }
            };
        };
        if let Some(&k) = state_first.get(&(cur, class)) {
            break WalkEnd::Loop { start: k };
        }
        state_first.insert((cur, class), uses.len());
        if node_loop.is_none() {
            match node_first.get(&cur) {
                Some(&k) => node_loop = Some((k, uses.len())),
                None => {
                    node_first.insert(cur, uses.len());
                }
            }
        }
        let Some((cable, fwd)) = adj[cur as usize][port as usize] else {
            break WalkEnd::Unplugged { at: cur, port };
        };
        uses.push(Channel { cable, fwd, class });
        let c = &spec.cables[cable];
        if c.dateline {
            class = (class + 1).min(max_class);
        }
        cur = if fwd { c.b.0 } else { c.a.0 };
    };
    Walk {
        src,
        dst,
        uses,
        end,
        node_loop,
    }
}

/// Runs every (src, dst) walk and builds the CDG.
fn analyze(spec: &TopoSpec) -> RefAnalysis {
    let adj = spec.adjacency();
    let mut walks = Vec::new();
    let mut chan_set: BTreeSet<Channel> = BTreeSet::new();
    let mut edge_set: BTreeSet<(Channel, Channel)> = BTreeSet::new();
    for src in 0..spec.nodes {
        for dst in 0..spec.nodes {
            if src == dst {
                continue;
            }
            let w = walk_with(spec, &adj, src, dst);
            for u in &w.uses {
                chan_set.insert(*u);
            }
            for pair in w.uses.windows(2) {
                edge_set.insert((pair[0], pair[1]));
            }
            if let WalkEnd::Loop { start } = w.end {
                // The next transmit after the last use repeats uses[start]:
                // the edge that closes the steady-state lap.
                if let (Some(last), Some(first)) = (w.uses.last(), w.uses.get(start)) {
                    edge_set.insert((*last, *first));
                }
            }
            walks.push(w);
        }
    }
    let channels: Vec<Channel> = chan_set.into_iter().collect();
    let index: BTreeMap<Channel, usize> =
        channels.iter().enumerate().map(|(i, c)| (*c, i)).collect();
    let edges: BTreeSet<(usize, usize)> = edge_set
        .into_iter()
        .map(|(a, b)| (index[&a], index[&b]))
        .collect();
    let sccs = cyclic_sccs(channels.len(), &edges);
    RefAnalysis {
        walks,
        cdg: RefCdg {
            channels,
            edges,
            sccs,
        },
    }
}

/// Kosaraju SCC over the edge set; keeps only cyclic components (size > 1
/// or self-looped), sorted for deterministic reporting.
fn cyclic_sccs(n: usize, edges: &BTreeSet<(usize, usize)>) -> Vec<Vec<usize>> {
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
        .filter(|m| m.len() > 1 || (m.len() == 1 && edges.contains(&(m[0], m[0]))))
        .collect();
    for m in &mut out {
        m.sort_unstable();
    }
    out.sort_by_key(|m| m[0]);
    out
}

/// Renders one representative cycle through `scc` as a channel chain,
/// closing back on its first element: `n0:E -> n1:E -> n0:E`.
fn scc_chain(spec: &TopoSpec, cdg: &RefCdg, scc: &[usize]) -> String {
    let inset: BTreeSet<usize> = scc.iter().copied().collect();
    let start = scc[0];
    let mut at = start;
    let mut path = vec![start];
    let mut pos: BTreeMap<usize, usize> = BTreeMap::new();
    pos.insert(start, 0);
    let cycle = loop {
        // Deterministic: smallest in-SCC successor.
        let next = cdg
            .edges
            .range((at, 0)..(at + 1, 0))
            .map(|&(_, b)| b)
            .find(|b| inset.contains(b))
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
fn cycle_diagnostics(spec: &TopoSpec, an: &RefAnalysis) -> Vec<Diagnostic> {
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

/// `TCA-R003` / `TCA-R004`: all-pairs completeness and symmetry.
fn reach_diagnostics(spec: &TopoSpec, an: &RefAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    let mut hops: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for w in &an.walks {
        match w.end {
            WalkEnd::Delivered => {
                hops.insert((w.src, w.dst), w.uses.len());
            }
            WalkEnd::NoRoute { at } => {
                if seen.insert(("noroute", at, w.dst)) {
                    out.push(Diagnostic::error(
                        "TCA-R003",
                        DiagSpan::node(at, format!("walk toward node {}", w.dst)),
                        format!(
                            "node {} is unreachable: node {at} has no route for it \
                             (first seen from node {})",
                            w.dst, w.src
                        ),
                        "program a route row for this destination on every node that relays it",
                    ));
                }
            }
            WalkEnd::Unplugged { at, port } => {
                if seen.insert(("unplugged", at, w.dst)) {
                    out.push(Diagnostic::error(
                        "TCA-R003",
                        DiagSpan::node(at, format!("port {}", spec.port_name(port))),
                        format!(
                            "node {} is unreachable: node {at} routes it out port {} \
                             which has no cable (first seen from node {})",
                            w.dst,
                            spec.port_name(port),
                            w.src
                        ),
                        "connect the cable or reroute around the missing link",
                    ));
                }
            }
            WalkEnd::Loop { .. } => {} // owned by TCA-R001/R002
        }
    }
    for (&(s, d), &fwd) in &hops {
        if s < d {
            if let Some(&back) = hops.get(&(d, s)) {
                if fwd != back {
                    out.push(Diagnostic::warning(
                        "TCA-R004",
                        DiagSpan::fabric(format!("routes n{s} <-> n{d}")),
                        format!(
                            "asymmetric routes: n{s} -> n{d} takes {fwd} hops but \
                             n{d} -> n{s} takes {back}"
                        ),
                        "asymmetry skews round-trip halving and credit sizing; \
                         align the tie-break directions if unintended",
                    ));
                }
            }
        }
    }
    out
}

/// `TCA-C003`: CDG cycles whose every cable can exhaust its per-class
/// credit pool — guaranteed deadlock, not just a structural hazard.
fn credit_diagnostics(spec: &TopoSpec, an: &RefAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for scc in &an.cdg.sccs {
        let escapable = scc
            .iter()
            .any(|&c| spec.cables[an.cdg.channels[c].cable].escape);
        if escapable {
            continue;
        }
        let chain = scc_chain(spec, &an.cdg, scc);
        out.push(Diagnostic::error(
            "TCA-C003",
            DiagSpan::fabric("credit wait-for graph"),
            format!(
                "guaranteed credit deadlock: every hop of {chain} can exhaust its \
                 posted-credit pool waiting on the next"
            ),
            "give one cable of the loop escape buffering, or break the cycle itself",
        ));
    }
    out
}

/// The full static proof for one topology: cycle freedom (`TCA-R001`,
/// `TCA-R002`), route completeness and symmetry (`TCA-R003`, `TCA-R004`),
/// and credit wait-for safety (`TCA-C003`), in that order.
fn lint_topo(spec: &TopoSpec) -> Report {
    let an = analyze(spec);
    let mut rep = Report::new();
    rep.extend(cycle_diagnostics(spec, &an));
    rep.extend(reach_diagnostics(spec, &an));
    rep.extend(credit_diagnostics(spec, &an));
    rep
}

/// Builds one random spec: cables decoded from `cable_bits` (skipping any
/// that would double-cable a port, so some ports stay unplugged) and a
/// partial route table decoded from `route_bits`, self-routes included,
/// so walks drop, dead-end, loop and cross several datelines.
fn random_spec(nodes: u32, ports: u8, cable_bits: &[u64], route_bits: &[u64]) -> TopoSpec {
    let names = ["E", "W", "S", "N"];
    let mut spec = TopoSpec::new("random", nodes, &names[..usize::from(ports)]);
    let (n, p) = (u64::from(nodes), u64::from(ports));
    let mut used = BTreeSet::new();
    for &bits in cable_bits {
        let a = ((bits % n) as u32, ((bits >> 8) % p) as u8);
        let b = (((bits >> 16) % n) as u32, ((bits >> 24) % p) as u8);
        if a == b || used.contains(&a) || used.contains(&b) {
            continue;
        }
        used.insert(a);
        used.insert(b);
        spec.cables.push(tca_peach2::Cable {
            a,
            b,
            dateline: (bits >> 32) % 5 < 2,
            escape: (bits >> 40) % 5 == 0,
        });
    }
    for node in 0..nodes {
        for dst in 0..nodes {
            let bits = route_bits[(node * nodes + dst) as usize];
            // Four in five rows are programmed, one in four self-routes.
            let programmed = if node == dst {
                bits.is_multiple_of(4)
            } else {
                !bits.is_multiple_of(5)
            };
            if programmed {
                spec.set_route(node, dst, ((bits >> 8) % p) as u8);
            }
        }
    }
    spec.validate().expect("random spec is well-formed");
    spec
}

/// The dense prover's walks, CDG and `lint_topo` JSON against the
/// reference's, field by field.
fn matches_reference(spec: &TopoSpec) -> Result<(), String> {
    use proptest::prelude::*;
    let want = analyze(spec);
    let got = crate::cdg::analyze(spec);
    prop_assert_eq!(got.walks.len(), want.walks.len());
    for (g, w) in got.walks.iter().zip(&want.walks) {
        prop_assert_eq!(g, w, "{}", spec.to_text());
        prop_assert_eq!(&crate::cdg::walk(spec, w.src, w.dst), w);
    }
    prop_assert_eq!(&got.cdg.channels, &want.cdg.channels);
    let want_edges: Vec<(usize, usize)> = want.cdg.edges.iter().copied().collect();
    prop_assert_eq!(&got.cdg.edges, &want_edges);
    prop_assert_eq!(&got.cdg.sccs, &want.cdg.sccs);
    prop_assert_eq!(
        crate::lint_topo(spec).to_json(),
        lint_topo(spec).to_json(),
        "{}",
        spec.to_text()
    );
    Ok(())
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig { cases: 512, ..Default::default() })]

    #[test]
    fn dense_prover_matches_reference(
        nodes in 2u32..=12,
        ports in 1u8..=4,
        cable_bits in proptest::collection::vec(proptest::any::<u64>(), 0..=30),
        route_bits in proptest::collection::vec(proptest::any::<u64>(), 144),
    ) {
        matches_reference(&random_spec(nodes, ports, &cable_bits, &route_bits))?;
    }
}

#[test]
fn random_specs_cover_every_walk_end() {
    // The property above is only as good as its cases: they must include
    // deliveries, drops, dead ends, node revisits, loops whose lap sits
    // two or more datelines up, and both escapable and guaranteed cycles.
    use proptest::Strategy;
    let mut rng = proptest::test_runner::TestRng::for_test("random_specs_cover_every_walk_end");
    let mut seen = BTreeSet::new();
    for _ in 0..256 {
        let nodes = (2u32..=12).generate(&mut rng);
        let ports = (1u8..=4).generate(&mut rng);
        let cable_bits =
            proptest::collection::vec(proptest::any::<u64>(), 0..=30).generate(&mut rng);
        let route_bits = proptest::collection::vec(proptest::any::<u64>(), 144).generate(&mut rng);
        let spec = random_spec(nodes, ports, &cable_bits, &route_bits);
        let an = analyze(&spec);
        for w in &an.walks {
            seen.insert(match w.end {
                WalkEnd::Delivered => "delivered",
                WalkEnd::NoRoute { .. } => "no-route",
                WalkEnd::Unplugged { .. } => "unplugged",
                WalkEnd::Loop { start } if w.uses[start].class >= 2 => "loop-class-2+",
                WalkEnd::Loop { .. } => "loop",
            });
            if w.node_loop.is_some() {
                seen.insert("node-loop");
            }
        }
        for d in &lint_topo(&spec).diagnostics {
            seen.insert(d.code);
        }
    }
    for want in [
        "delivered",
        "no-route",
        "unplugged",
        "loop",
        "loop-class-2+",
        "node-loop",
        "TCA-R001",
        "TCA-R002",
        "TCA-R003",
        "TCA-R004",
        "TCA-C003",
    ] {
        assert!(
            seen.contains(want),
            "no random case produced {want}: {seen:?}"
        );
    }
}

#[test]
fn dense_prover_matches_reference_on_generators() {
    let mut all_dateline = TopoSpec::ring(24);
    for c in &mut all_dateline.cables {
        c.dateline = true;
    }
    for spec in [
        TopoSpec::ring(8),
        TopoSpec::dual_ring(8),
        TopoSpec::multi_ring_s(3, 6),
        TopoSpec::torus2d(4, 4),
        TopoSpec::torus3d(2, 3, 4),
        all_dateline,
    ] {
        if let Err(e) = matches_reference(&spec) {
            panic!("{}: {e}", spec.name);
        }
    }
}
