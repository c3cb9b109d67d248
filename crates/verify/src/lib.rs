//! # tca-verify — static configuration lint + RDMA-hazard detection
//!
//! Two analysis passes over a TCA sub-cluster, both pure and deterministic:
//!
//! 1. **Static lint** ([`lint_cluster`]) — before any packet moves, check
//!    routing tables for shadowed/dead/unreachable windows and cycles,
//!    links for credit sufficiency, host bridges for window coverage, and
//!    descriptor chains for cycles, bad targets, and capacity overruns.
//! 2. **Hazard detection** ([`detect_hazards`]) — after a traced run,
//!    replay the exact DRAM-commit log and flag unordered conflicting
//!    remote writes and flags that overtook their payload.
//!
//! Findings are [`Diagnostic`]s with stable codes (`TCA-W001` …
//! `TCA-H002`), rustc-style rendering, and byte-deterministic JSON; see
//! `EXPERIMENTS.md` § "Verifying a configuration" for the code table.
//! `tca-bench --scenario verify` lints every shipped preset, and a tier-1
//! test holds each of its rows at zero errors and zero warnings;
//! `tca-bench --topo` runs the prover below on one topology.
//!
//! ```
//! use tca_device::node::NodeConfig;
//! use tca_peach2::{build_ring, Peach2Params};
//! use tca_pcie::Fabric;
//!
//! let mut fabric = Fabric::new();
//! let sub = build_ring(&mut fabric, 4, &NodeConfig::default(), Peach2Params::default());
//! let report = tca_verify::lint_cluster(&fabric, &sub);
//! assert!(report.is_clean(), "{}", report.render());
//! ```
//!
//! The deadlock-freedom prover works on a declarative [`TopoSpec`]
//! instead: [`analyze`] walks every (src, dst) route once and builds the
//! channel dependency graph, and everything else reads that one
//! [`TopoAnalysis`]. [`lint_topo`] is [`analyze`] plus [`lint_analyzed`];
//! a caller that also wants [`topo_metrics`] or [`cdg_dot`] analyzes once
//! and passes the result to all three.
//!
//! ```
//! use tca_peach2::TopoSpec;
//!
//! let spec = TopoSpec::torus2d(4, 4);
//! let an = tca_verify::analyze(&spec);
//! let report = tca_verify::lint_analyzed(&spec, &an);
//! assert!(report.is_clean(), "{}", report.render());
//! assert_eq!(tca_verify::topo_metrics(&spec, &an).cycles, 0);
//! ```
//!
//! [`TopoSpec`]: tca_peach2::TopoSpec

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cdg;
pub mod diag;
pub mod diff;
pub mod hazard;
pub mod lint;
pub mod reach;
#[cfg(test)]
mod refcdg;

pub use cdg::{
    analyze, cdg_dot, cycle_diagnostics, extract_topo, lint_topo_cycles, topo_metrics, Cdg,
    Channel, TopoAnalysis, TopoMetrics, Walk, WalkEnd,
};
pub use diag::{DiagSpan, Diagnostic, Report, Severity};
pub use diff::{diff_flight_texts, diff_span_json, FlightLog};
pub use hazard::detect_hazards;
pub use lint::{
    collect_chain, lint_chain, lint_cluster, lint_links, lint_reachability, lint_routes,
    runtime_diagnostics, ChainContext,
};
pub use reach::{credit_diagnostics, lint_analyzed, lint_topo, reach_diagnostics};
