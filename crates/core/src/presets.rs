//! Machine presets encoding the paper's hardware tables.
//!
//! Table I (the HA-PACS base cluster) and Table II (the §IV test
//! environment) are specification tables; the bench harness prints them and
//! the presets double as configuration sources for the simulation.

use std::fmt;
use tca_device::{GpuParams, HostParams, NodeConfig};
use tca_net::{IbParams, IbSpeed};
use tca_peach2::topology::MAX_TOPO_NODES;
use tca_peach2::{Peach2Params, TopoSpec};

/// One row of a specification table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecRow {
    /// Item name.
    pub item: &'static str,
    /// Specification text.
    pub value: &'static str,
}

/// A named specification table.
#[derive(Clone, Debug)]
pub struct SpecTable {
    /// Table caption.
    pub title: &'static str,
    /// Rows in print order.
    pub rows: Vec<SpecRow>,
}

impl fmt::Display for SpecTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let w = self.rows.iter().map(|r| r.item.len()).max().unwrap_or(0);
        for r in &self.rows {
            writeln!(f, "  {:<w$}  {}", r.item, r.value, w = w)?;
        }
        Ok(())
    }
}

/// Table I — specifications of the HA-PACS base cluster.
pub fn table_i() -> SpecTable {
    SpecTable {
        title: "Table I: Specifications of the HA-PACS base cluster",
        rows: vec![
            SpecRow {
                item: "CPU",
                value: "Intel Xeon-E5 2670 2.6 GHz x 2 sockets (8 cores + 20 MB cache / socket)",
            },
            SpecRow {
                item: "Memory",
                value: "DDR3 1600 MHz x 4 ch, 128 GBytes",
            },
            SpecRow {
                item: "CPU peak",
                value: "332.8 GFlops",
            },
            SpecRow {
                item: "GPU",
                value: "NVIDIA Tesla M2090 1.3 GHz x 4",
            },
            SpecRow {
                item: "GPU memory",
                value: "GDDR5 6 GBytes / GPU",
            },
            SpecRow {
                item: "GPU peak",
                value: "2660 GFlops",
            },
            SpecRow {
                item: "InfiniBand",
                value: "Mellanox Connect-X3 dual-port QDR",
            },
            SpecRow {
                item: "Nodes",
                value: "268",
            },
            SpecRow {
                item: "Storage",
                value: "Lustre file system, 504 TBytes",
            },
            SpecRow {
                item: "Interconnect",
                value: "InfiniBand QDR 288-port switch x 2, fat tree, full bisection",
            },
            SpecRow {
                item: "Total peak",
                value: "802 TFlops",
            },
            SpecRow {
                item: "Racks",
                value: "26",
            },
            SpecRow {
                item: "Max power",
                value: "408 kW",
            },
        ],
    }
}

/// Table II — the §IV preliminary-evaluation test environment.
pub fn table_ii() -> SpecTable {
    SpecTable {
        title: "Table II: Test environment for preliminary performance evaluation",
        rows: vec![
            SpecRow {
                item: "CPU",
                value: "Xeon-E5 2670 2.6 GHz x 2",
            },
            SpecRow {
                item: "Memory",
                value: "DDR3 1600 MHz x 4 ch, 128 GBytes",
            },
            SpecRow {
                item: "Motherboard",
                value: "(a) SuperMicro X9DRG-QF / (b) Intel S2600IP",
            },
            SpecRow {
                item: "GPU",
                value: "NVIDIA K20, 2496 cores, 705 MHz",
            },
            SpecRow {
                item: "GPU memory",
                value: "GDDR5 2600 MHz, 5 GBytes",
            },
            SpecRow {
                item: "PEACH2 board",
                value: "16 layers (main) + 8 layers (sub)",
            },
            SpecRow {
                item: "FPGA",
                value: "Altera Stratix IV GX 530/290, 1932 pin",
            },
            SpecRow {
                item: "PEACH2 logic",
                value: "version 20121112, 250 MHz",
            },
            SpecRow {
                item: "OS",
                value: "Linux, CentOS 6.3 (kernel 2.6.32-279)",
            },
            SpecRow {
                item: "GPU driver",
                value: "NVIDIA-Linux-x86_64-304.{51,64}",
            },
            SpecRow {
                item: "Environment",
                value: "CUDA 5.0",
            },
        ],
    }
}

/// Node configuration matching the Table II testbed (K20 GPUs, two of
/// which are TCA-reachable).
pub fn table_ii_node_config() -> NodeConfig {
    NodeConfig {
        gpus: 2,
        host: HostParams::default(),
        gpu: GpuParams {
            mem_size: 5 << 30, // K20: 5 GB
            ..GpuParams::default()
        },
        ..NodeConfig::default()
    }
}

/// PEACH2 parameters of the evaluated prototype (logic 20121112).
pub fn table_ii_peach2_params() -> Peach2Params {
    Peach2Params::default()
}

/// Base-cluster InfiniBand: dual-rail QDR (Table I).
pub fn table_i_ib_params() -> IbParams {
    IbParams {
        speed: IbSpeed::Qdr,
        rails: 2,
        ..IbParams::default()
    }
}

/// One registry entry: a named topology the prover must accept before it
/// ships, built on demand (specs up to 256 nodes are cheap but not free).
#[derive(Clone, Copy)]
pub struct TopoEntry {
    /// Registry key (`tca-bench --topo <name>`).
    pub name: &'static str,
    /// Builds the spec.
    pub build: fn() -> TopoSpec,
}

/// Every declarative topology that ships: the paper's rings, the §III-D
/// S-coupled configurations scaled out, and the APEnet+-style 2D/3D tori
/// at 64–256 nodes. A tier-1 test proves each one deadlock-free and
/// route-complete; `tca-bench --scenario topo-registry` sweeps their
/// structural metrics along with the prover's error and warning counts.
pub fn topology_registry() -> Vec<TopoEntry> {
    let entry = |name, build| TopoEntry { name, build };
    vec![
        entry("ring-8", || TopoSpec::ring(8)),
        entry("ring-16", || TopoSpec::ring(16)),
        entry("ring-64", || TopoSpec::ring(64)),
        entry("dual-ring-16", || TopoSpec::dual_ring(16)),
        entry("dual-ring-64", || TopoSpec::dual_ring(64)),
        entry("multi-ring-s-4x16", || TopoSpec::multi_ring_s(4, 16)),
        entry("torus2d-8x8", || TopoSpec::torus2d(8, 8)),
        entry("torus2d-16x16", || TopoSpec::torus2d(16, 16)),
        entry("torus3d-4x4x4", || TopoSpec::torus3d(4, 4, 4)),
        entry("torus3d-8x8x4", || TopoSpec::torus3d(8, 8, 4)),
    ]
}

/// Builds a topology by name: registry entries first, then the parametric
/// generator grammar the registry names follow — `ring-N`, `dual-ring-N`,
/// `multi-ring-s-RxP`, `torus2d-WxH`, `torus3d-WxHxD` — so ad-hoc sizes
/// (`tca-bench --topo torus2d-3x3`) work without a registry entry. A
/// generator name of more than [`MAX_TOPO_NODES`] nodes resolves to
/// nothing, as a `.topo` file of that size fails to parse: the route
/// table is `nodes²` entries.
pub fn build_topology(name: &str) -> Option<TopoSpec> {
    if let Some(entry) = topology_registry().into_iter().find(|t| t.name == name) {
        return Some((entry.build)());
    }
    let dims = |s: &str| -> Option<Vec<u32>> {
        let d: Option<Vec<u32>> = s.split('x').map(|p| p.parse().ok()).collect();
        let d = d?;
        let nodes = d.iter().try_fold(1u32, |n, &v| n.checked_mul(v))?;
        (nodes <= MAX_TOPO_NODES).then_some(d)
    };
    if let Some(rest) = name.strip_prefix("torus2d-") {
        let d = dims(rest)?;
        if d.len() == 2 && d.iter().all(|&v| v >= 2) {
            return Some(TopoSpec::torus2d(d[0], d[1]));
        }
    } else if let Some(rest) = name.strip_prefix("torus3d-") {
        let d = dims(rest)?;
        if d.len() == 3 && d.iter().all(|&v| v >= 2) {
            return Some(TopoSpec::torus3d(d[0], d[1], d[2]));
        }
    } else if let Some(rest) = name.strip_prefix("multi-ring-s-") {
        let d = dims(rest)?;
        if d.len() == 2 && d[0] >= 2 && d[1] >= 4 && d[1].is_multiple_of(2) {
            return Some(TopoSpec::multi_ring_s(d[0], d[1]));
        }
    } else if let Some(rest) = name.strip_prefix("dual-ring-") {
        if let &[n] = dims(rest)?.as_slice() {
            if n >= 4 && n.is_multiple_of(2) {
                return Some(TopoSpec::dual_ring(n));
            }
        }
    } else if let Some(rest) = name.strip_prefix("ring-") {
        if let &[n] = dims(rest)?.as_slice() {
            if n >= 2 {
                return Some(TopoSpec::ring(n));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let reg = topology_registry();
        let mut names: Vec<_> = reg.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate registry names");
        for entry in &reg {
            let spec = (entry.build)();
            spec.validate().expect(entry.name);
            assert_eq!(build_topology(entry.name), Some(spec));
        }
        assert!(build_topology("no-such-topo").is_none());
    }

    #[test]
    fn generator_names_resolve_up_to_the_node_cap() {
        assert_eq!(build_topology("ring-5"), Some(TopoSpec::ring(5)));
        assert_eq!(build_topology("torus2d-3x3"), Some(TopoSpec::torus2d(3, 3)));
        assert_eq!(build_topology("ring-2x3"), None);
        assert_eq!(build_topology("dual-ring-4x4"), None);
        let n = MAX_TOPO_NODES;
        assert_eq!(build_topology(&format!("ring-{}", n + 1)), None);
        assert_eq!(build_topology(&format!("torus2d-2x{}", n / 2 + 1)), None);
        assert_eq!(build_topology("torus3d-65536x65536x2"), None); // u32 overflow
    }

    #[test]
    fn tables_render_every_row() {
        let t1 = table_i();
        let out = t1.to_string();
        assert!(out.contains("802 TFlops"));
        assert!(out.contains("M2090"));
        assert_eq!(t1.rows.len(), 13);
        let t2 = table_ii();
        let out2 = t2.to_string();
        assert!(out2.contains("Stratix IV"));
        assert!(out2.contains("CUDA 5.0"));
        assert_eq!(t2.rows.len(), 11);
    }

    #[test]
    fn presets_are_consistent_with_the_tables() {
        let cfg = table_ii_node_config();
        assert_eq!(cfg.gpu.mem_size, 5 << 30, "K20 memory");
        assert_eq!(cfg.host.dram_size, 128 << 30);
        let ib = table_i_ib_params();
        assert_eq!(ib.rails, 2, "dual-port QDR");
    }
}
