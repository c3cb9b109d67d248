//! The configuration verifier as `tca-bench` runs it.
//!
//! The `verify` scenario has one point per shipped cluster preset
//! ([`PRESETS`]); each point is one [`preset_report`], and its row holds
//! the error and warning counts and the diagnostic codes. `tca-bench
//! --topo <NAME|FILE>` is [`topo_mode`]: the static deadlock-freedom and
//! route-completeness proof of one declarative topology.

use tca_core::prelude::*;
use tca_core::presets::build_topology;
use tca_device::map::TcaBlock;
use tca_pcie::AddrRange;
use tca_peach2::TopoSpec;
use tca_sim::JsonValue;
use tca_verify::{analyze, cdg_dot, lint_analyzed, lint_chain, lint_topo, ChainContext, DiagSpan};
use tca_verify::{Diagnostic, Report};

/// A shipped cluster preset: its name and how to build it.
pub type Preset = (&'static str, fn() -> TcaCluster);

/// The shipped cluster presets: the points of the `verify` scenario.
pub const PRESETS: [Preset; 8] = [
    ("ring-2", || TcaClusterBuilder::new(2).build()),
    ("ring-4", || TcaClusterBuilder::new(4).build()),
    ("ring-8", || TcaClusterBuilder::new(8).build()),
    ("ring-16", || TcaClusterBuilder::new(16).build()),
    ("dual-ring-4", || {
        TcaClusterBuilder::new(4)
            .topology(Topology::DualRing)
            .build()
    }),
    ("dual-ring-8", || {
        TcaClusterBuilder::new(8)
            .topology(Topology::DualRing)
            .build()
    }),
    ("dual-ring-16", || {
        TcaClusterBuilder::new(16)
            .topology(Topology::DualRing)
            .build()
    }),
    ("ring-4+ib", || {
        TcaClusterBuilder::new(4)
            .with_infiniband(IbParams::default())
            .build()
    }),
];

/// Verifies one preset cluster: the static lint, then the benchmarks'
/// 64 KiB payload+flag put (node 0 → node 1) run under span tracing and
/// fed to the RDMA-hazard detector, then the descriptor-chain lint of
/// that put on both engines, then the runtime-echo pass now that traffic
/// has moved.
pub fn preset_report(build: fn() -> TcaCluster) -> Report {
    let mut c = build();
    let mut rep = c.verify();

    c.set_span_tracing(true);
    let len = 64 * 1024u64;
    let (payload, flag) = (MemRef::host(0, 0x4000_0000), MemRef::host(0, 0x4800_0000));
    c.write(&payload, &vec![0x5au8; len as usize]);
    c.write(&flag, &1u64.to_le_bytes());
    c.memcpy_peer(&MemRef::host(1, 0x5000_0000), &payload, len);
    c.memcpy_peer(&MemRef::host(1, 0x5800_0000), &flag, 8);
    // The write log records node-local DRAM addresses, so the flag range
    // is the consumer-side flag word's local address.
    let hazards = c.detect_hazards(&[AddrRange::new(0x5800_0000, 8)]);
    rep.extend(hazards.diagnostics);

    let drv = c.drivers[0];
    let remote = c.sub.map.block(1, TcaBlock::Host).base() + 0x5000_0000;
    for (engine, src) in [
        (EngineKind::Pipelined, drv.dma_buf),
        (EngineKind::Legacy, drv.sram_addr(0)),
    ] {
        let cx = ChainContext::of_node(&c.fabric, &c.sub, 0, engine);
        rep.extend(lint_chain(&cx, &[Descriptor::new(src, remote, 4096)]));
    }
    rep.extend(tca_verify::runtime_diagnostics(&c.fabric, &c.sub));
    rep
}

/// The `verify` row of a report: its error and warning counts and the
/// code of every diagnostic, in report order.
pub fn report_row(rep: &Report) -> JsonValue {
    let codes = rep
        .diagnostics
        .iter()
        .map(|d| JsonValue::from(d.code))
        .collect();
    crate::row(vec![
        ("errors", JsonValue::from(rep.error_count() as u64)),
        ("warnings", JsonValue::from(rep.warning_count() as u64)),
        ("codes", JsonValue::Array(codes)),
    ])
}

/// What `tca-bench --topo` prints for the topology it proves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TopoOutput {
    /// `topo:<label>: clean`, or the rendered diagnostics.
    Text,
    /// `{"topology":"<label>","report":{...}}` (`--json`).
    Json,
    /// The channel dependency graph as Graphviz (`--cdg-dot`).
    CdgDot,
    /// The spec in the `.topo` text format (`--emit-topo`).
    Topo,
}

/// `tca-bench --topo <arg>`: proves the topology `arg` names, or, when
/// [`build_topology`] does not resolve it, the `.topo` file at path
/// `arg`. Returns the bytes to print, `arg` standing as the topology's
/// label, and whether the proof found neither an error nor a warning. A
/// file that does not parse is reported as one `TCA-T001` error at its
/// line; a file that cannot be read is an `Err` naming its path.
/// [`TopoOutput::Topo`] of a spec that parses is a pure format dump: it
/// runs no proof and always succeeds.
pub fn topo_mode(arg: &str, out: TopoOutput) -> Result<(String, bool), String> {
    let parsed = match build_topology(arg) {
        Some(spec) => Ok(spec),
        None => TopoSpec::parse(
            &std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))?,
        ),
    };
    let rep = match parsed {
        Ok(spec) if out == TopoOutput::Topo => return Ok((spec.to_text(), true)),
        Ok(spec) if out == TopoOutput::CdgDot => {
            let an = analyze(&spec);
            let clean = lint_analyzed(&spec, &an).is_clean();
            return Ok((cdg_dot(&spec, &an.cdg), clean));
        }
        Ok(spec) => lint_topo(&spec),
        Err(e) => Report::from_diagnostics(vec![Diagnostic::error(
            "TCA-T001",
            DiagSpan::fabric(format!("{arg}:{}", e.line)),
            format!("topology file does not parse: {}", e.message),
            "fix the line; see `tca-bench --topo <name> --emit-topo` for a reference file",
        )]),
    };
    let text = match out {
        TopoOutput::Json => format!(
            "{{\"topology\":{},\"report\":{}}}\n",
            JsonValue::from(arg).to_json(),
            rep.to_json()
        ),
        _ if rep.is_clean() => format!("topo:{arg}: clean\n"),
        _ => format!("topo:{arg}:\n{}", rep.render()),
    };
    Ok((text, rep.is_clean()))
}
