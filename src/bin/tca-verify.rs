//! `tca-verify` — lint every shipped cluster preset, hazard-check a
//! traced reference workload on each, and statically prove every registry
//! topology deadlock-free and route-complete.
//!
//! ```text
//! tca-verify --all-presets --deny warnings        # the CI gate
//! tca-verify --preset ring-4 --json               # one preset, JSON out
//! tca-verify --topo torus3d-4x4x4                 # one registry topology
//! tca-verify --topo-file my.topo                  # a .topo file on disk
//! tca-verify --topo ring-8 --cdg-dot              # Graphviz CDG export
//! tca-verify --emit-topo torus2d-8x8              # print the .topo text
//! ```
//!
//! Exit status is 0 when every selected preset/topology is clean (or
//! carries only warnings without `--deny warnings`), 1 otherwise. Output
//! is fully deterministic: two runs of the same binary print identical
//! bytes.

use std::process::ExitCode;
use tca::core::prelude::*;
use tca::core::presets::{build_topology, topology_registry};
use tca::pcie::AddrRange;
use tca::peach2::TopoSpec;
use tca::verify::{
    analyze, cdg_dot, lint_analyzed, lint_chain, ChainContext, DiagSpan, Diagnostic, Report,
};

/// One shipped configuration the gate covers.
struct Preset {
    name: &'static str,
    build: fn() -> TcaCluster,
}

const PRESETS: &[Preset] = &[
    Preset {
        name: "ring-2",
        build: || TcaClusterBuilder::new(2).build(),
    },
    Preset {
        name: "ring-4",
        build: || TcaClusterBuilder::new(4).build(),
    },
    Preset {
        name: "ring-8",
        build: || TcaClusterBuilder::new(8).build(),
    },
    Preset {
        name: "ring-16",
        build: || TcaClusterBuilder::new(16).build(),
    },
    Preset {
        name: "dual-ring-4",
        build: || {
            TcaClusterBuilder::new(4)
                .topology(Topology::DualRing)
                .build()
        },
    },
    Preset {
        name: "dual-ring-8",
        build: || {
            TcaClusterBuilder::new(8)
                .topology(Topology::DualRing)
                .build()
        },
    },
    Preset {
        name: "dual-ring-16",
        build: || {
            TcaClusterBuilder::new(16)
                .topology(Topology::DualRing)
                .build()
        },
    },
    Preset {
        name: "ring-4+ib",
        build: || {
            TcaClusterBuilder::new(4)
                .with_infiniband(IbParams::default())
                .build()
        },
    },
];

/// Static lint + a traced reference workload (payload puts then a flag
/// put, node 0 → node 1) fed to the hazard detector, plus a lint of the
/// descriptor chains the drivers would actually program.
fn check_preset(p: &Preset) -> Report {
    let mut cluster = (p.build)();
    let mut rep = cluster.verify();

    // Reference workload under span tracing: the canonical payload+flag
    // idiom must come out hazard-free.
    cluster.set_span_tracing(true);
    let payload = MemRef::host(0, 0x4000_0000);
    let flag_src = MemRef::host(0, 0x4800_0000);
    let dst = MemRef::host(1, 0x5000_0000);
    let flag_dst = MemRef::host(1, 0x5800_0000);
    cluster.write(&payload, &[0xabu8; 4096]);
    cluster.write(&flag_src, &1u64.to_le_bytes());
    cluster.memcpy_peer(&dst, &payload, 4096);
    cluster.memcpy_peer(&flag_dst, &flag_src, 8);
    // The write log records node-local DRAM addresses, so the flag range
    // is the consumer-side flag word's local address.
    rep.extend(tca::verify::detect_hazards(
        cluster.fabric.spans(),
        &[AddrRange::new(0x5800_0000, 8)],
    ));

    // The descriptor chains the drivers program for a node 0 → node 1 put,
    // on both engines.
    let drv = cluster.drivers[0];
    let remote = cluster.sub.map.block(1, tca::device::TcaBlock::Host).base() + 0x5000_0000;
    for engine in [EngineKind::Pipelined, EngineKind::Legacy] {
        let cx = ChainContext {
            map: cluster.sub.map,
            node: 0,
            sram_size: cluster
                .fabric
                .device::<tca::peach2::Peach2>(cluster.sub.chips[0])
                .params()
                .sram_size,
            local: vec![AddrRange::new(0, 1 << 32)],
            engine,
        };
        let descs = match engine {
            EngineKind::Pipelined => vec![Descriptor::new(drv.dma_buf, remote, 4096)],
            EngineKind::Legacy => vec![Descriptor::new(drv.sram_addr(0), remote, 4096)],
        };
        rep.extend(lint_chain(&cx, &descs));
    }
    // Re-run the runtime-echo pass now that traffic has moved.
    rep.extend(tca::verify::runtime_diagnostics(
        &cluster.fabric,
        &cluster.sub,
    ));
    rep
}

/// The static proof for one declarative topology, optionally emitting the
/// CDG as Graphviz instead of the report text.
fn report_topo(label: &str, spec: &TopoSpec, json: bool, dot: bool) -> Report {
    let an = analyze(spec);
    let rep = lint_analyzed(spec, &an);
    if dot {
        print!("{}", cdg_dot(spec, &an.cdg));
    } else if json {
        println!("{{\"topology\":\"{label}\",\"report\":{}}}", rep.to_json());
    } else if rep.is_clean() {
        println!("topo:{label}: clean");
    } else {
        print!("topo:{label}:\n{}", rep.render());
    }
    rep
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut deny_warnings = false;
    let mut json = false;
    let mut dot = false;
    let mut only_preset: Option<String> = None;
    let mut only_topo: Option<String> = None;
    let mut topo_files: Vec<String> = Vec::new();
    let mut all = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all-presets" => all = true,
            "--deny" if args.get(i + 1).map(String::as_str) == Some("warnings") => {
                deny_warnings = true;
                i += 1;
            }
            "--deny-warnings" => deny_warnings = true,
            "--json" => json = true,
            "--cdg-dot" => dot = true,
            "--preset" => {
                only_preset = args.get(i + 1).cloned();
                i += 1;
            }
            "--topo" => {
                only_topo = args.get(i + 1).cloned();
                i += 1;
            }
            "--topo-file" => {
                let Some(path) = args.get(i + 1).cloned() else {
                    eprintln!("tca-verify: --topo-file needs a path");
                    return ExitCode::FAILURE;
                };
                topo_files.push(path);
                i += 1;
            }
            "--emit-topo" => {
                let Some(spec) = args.get(i + 1).and_then(|n| build_topology(n)) else {
                    eprintln!("tca-verify: --emit-topo needs a topology name (try --help)");
                    return ExitCode::FAILURE;
                };
                print!("{}", spec.to_text());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "usage: tca-verify [--all-presets] [--preset NAME] [--topo NAME]\n\
                     \x20                 [--topo-file PATH] [--emit-topo NAME] [--cdg-dot]\n\
                     \x20                 [--deny warnings] [--json]\n\
                     presets: {}\n\
                     topologies: {}",
                    PRESETS
                        .iter()
                        .map(|p| p.name)
                        .collect::<Vec<_>>()
                        .join(", "),
                    topology_registry()
                        .iter()
                        .map(|t| t.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("tca-verify: unknown argument {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    // No explicit selection means everything, same as --all-presets.
    if only_preset.is_none() && only_topo.is_none() && topo_files.is_empty() {
        all = true;
    }
    let mut failed = false;
    let mut matched = false;
    if only_topo.is_none() && topo_files.is_empty() {
        for p in PRESETS {
            if !all && only_preset.as_deref() != Some(p.name) {
                continue;
            }
            matched = true;
            let rep = check_preset(p);
            if json {
                println!("{{\"preset\":\"{}\",\"report\":{}}}", p.name, rep.to_json());
            } else if rep.is_clean() {
                println!("{}: clean", p.name);
            } else {
                print!("{}:\n{}", p.name, rep.render());
            }
            if rep.fails(deny_warnings) {
                failed = true;
            }
        }
    }
    if only_preset.is_none() && topo_files.is_empty() {
        for entry in topology_registry() {
            if !all && only_topo.as_deref() != Some(entry.name) {
                continue;
            }
            matched = true;
            let spec = (entry.build)();
            if report_topo(entry.name, &spec, json, dot).fails(deny_warnings) {
                failed = true;
            }
        }
        if let Some(name) = &only_topo {
            if !matched {
                // Not in the registry: accept the parametric generator
                // grammar (ring-N, torus2d-WxH, ...) for ad-hoc sizes.
                let Some(spec) = build_topology(name) else {
                    eprintln!("tca-verify: no topology named {name:?} (try --help)");
                    return ExitCode::FAILURE;
                };
                matched = true;
                if report_topo(name, &spec, json, dot).fails(deny_warnings) {
                    failed = true;
                }
            }
        }
    }
    for path in &topo_files {
        matched = true;
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tca-verify: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match TopoSpec::parse(&text) {
            Ok(spec) => {
                if report_topo(path, &spec, json, dot).fails(deny_warnings) {
                    failed = true;
                }
            }
            Err(e) => {
                let mut rep = Report::new();
                rep.extend(vec![Diagnostic::error(
                    "TCA-T001",
                    DiagSpan::fabric(format!("{path}:{}", e.line)),
                    format!("topology file does not parse: {}", e.message),
                    "fix the line; see `tca-verify --emit-topo <name>` for a reference file",
                )]);
                if json {
                    println!("{{\"topology\":\"{path}\",\"report\":{}}}", rep.to_json());
                } else {
                    print!("topo:{path}:\n{}", rep.render());
                }
                failed = true;
            }
        }
    }
    if !matched {
        eprintln!("tca-verify: nothing selected (try --help)");
        return ExitCode::FAILURE;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
