//! All-pairs static route completeness and credit wait-for analysis over
//! a [`TopoSpec`], on top of the walks [`crate::cdg::analyze`] records.
//!
//! * `TCA-R003` (error): some (src, dst) pair never delivers — a missing
//!   route row or a cable-less port drops the packet on the floor.
//! * `TCA-R004` (warning): delivered routes whose forward and return hop
//!   counts differ. Legal, but it skews ping-pong halving and makes
//!   credit provisioning asymmetric, so it is surfaced.
//! * `TCA-C003` (error): a CDG cycle *every* cable of which lacks escape
//!   buffering. With finite per-class credit pools each hop of the loop
//!   can exhaust its credits waiting on the next — a guaranteed protocol
//!   deadlock, not merely a structural hazard. A single `escape`-marked
//!   cable (deep receive buffering that always drains) breaks the
//!   wait-for chain and downgrades the finding to the plain `TCA-R002`.

use crate::cdg::{analyze, cycle_diagnostics, scc_chain, TopoAnalysis, WalkEnd};
use crate::diag::{DiagSpan, Diagnostic, Report};
use std::collections::BTreeSet;
use tca_peach2::TopoSpec;

/// `TCA-R003` / `TCA-R004`: all-pairs completeness and symmetry.
pub fn reach_diagnostics(spec: &TopoSpec, an: &TopoAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    // `hops[s * n + d]`: delivered route length from `s` to `d`.
    let n = spec.nodes as usize;
    let mut hops: Vec<Option<usize>> = vec![None; n * n];
    for w in &an.walks {
        match w.end {
            WalkEnd::Delivered => {
                hops[w.src as usize * n + w.dst as usize] = Some(w.uses.len());
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
    for s in 0..n {
        for d in s + 1..n {
            let (Some(fwd), Some(back)) = (hops[s * n + d], hops[d * n + s]) else {
                continue;
            };
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
    out
}

/// `TCA-C003`: CDG cycles whose every cable can exhaust its per-class
/// credit pool — guaranteed deadlock, not just a structural hazard.
pub fn credit_diagnostics(spec: &TopoSpec, an: &TopoAnalysis) -> Vec<Diagnostic> {
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
pub fn lint_topo(spec: &TopoSpec) -> Report {
    lint_analyzed(spec, &analyze(spec))
}

/// [`lint_topo`] over an analysis the caller already holds, so one
/// [`analyze`] pass can feed the report, [`crate::topo_metrics`] and
/// [`crate::cdg_dot`] alike.
pub fn lint_analyzed(spec: &TopoSpec, an: &TopoAnalysis) -> Report {
    let mut rep = Report::new();
    rep.extend(cycle_diagnostics(spec, an));
    rep.extend(reach_diagnostics(spec, an));
    rep.extend(credit_diagnostics(spec, an));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    #[test]
    fn clean_generators_prove_out() {
        for spec in [
            TopoSpec::ring(8),
            TopoSpec::dual_ring(16),
            TopoSpec::multi_ring_s(4, 4),
            TopoSpec::torus2d(4, 4),
            TopoSpec::torus3d(2, 2, 2),
        ] {
            let rep = lint_topo(&spec);
            assert!(rep.is_clean(), "{}:\n{}", spec.name, rep.render());
        }
    }

    #[test]
    fn missing_route_is_r003() {
        let mut spec = TopoSpec::ring(4);
        spec.routes[1][3] = None; // n1 drops n3-bound traffic
        let rep = lint_topo(&spec);
        let r3: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "TCA-R003")
            .collect();
        assert_eq!(r3.len(), 1, "{}", rep.render());
        assert!(
            r3[0].message.contains("node 1 has no route"),
            "{}",
            r3[0].message
        );
    }

    #[test]
    fn unplugged_port_is_r003() {
        let mut spec = TopoSpec::ring(4);
        spec.cables.retain(|c| c.a.0 != 1); // unplug n1's east cable
        let rep = lint_topo(&spec);
        assert!(
            rep.diagnostics
                .iter()
                .any(|d| d.code == "TCA-R003" && d.message.contains("out port E")),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn asymmetric_tie_break_is_r004_warning() {
        // Consistently route n1-bound traffic the long way round (west at
        // every relay) so 0 -> 1 takes 3 hops while 1 -> 0 takes 1. Every
        // walk still converges and the CDG stays acyclic — pure asymmetry.
        let mut spec = TopoSpec::ring(4);
        spec.set_route(0, 1, 1);
        spec.set_route(3, 1, 1);
        let rep = lint_topo(&spec);
        let r4: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "TCA-R004")
            .collect();
        assert!(
            r4.iter()
                .any(|d| d.message.contains("n0 -> n1 takes 3 hops")),
            "{}",
            rep.render()
        );
        assert!(r4.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn c003_fires_without_escape_and_clears_with_it() {
        let mut spec = TopoSpec::ring(4);
        for c in &mut spec.cables {
            c.dateline = false;
        }
        let rep = lint_topo(&spec);
        let cs: Vec<_> = rep.diagnostics.iter().map(|d| d.code).collect();
        assert!(cs.contains(&"TCA-R002"), "{cs:?}");
        assert!(cs.contains(&"TCA-C003"), "{cs:?}");

        // One escape cable per direction ring breaks the wait-for chain:
        // still a structural R002, no longer a guaranteed deadlock.
        spec.cables[0].escape = true;
        let rep = lint_topo(&spec);
        let cs: Vec<_> = rep.diagnostics.iter().map(|d| d.code).collect();
        assert!(cs.contains(&"TCA-R002"), "{cs:?}");
        assert!(!cs.contains(&"TCA-C003"), "{cs:?}");
    }
}
