//! # tca-core — the Tightly Coupled Accelerators programming interface
//!
//! The paper's user-facing contribution: a sub-cluster of 8–16 nodes whose
//! GPUs share one PCIe address space, programmed CUDA-style (§III-H):
//!
//! ```
//! use tca_core::prelude::*;
//!
//! // A 4-node ring with PEACH2 boards, Table II hardware.
//! let mut cluster = TcaClusterBuilder::new(4).build();
//!
//! // CUDA flow: allocate + pin GPU memory on two different nodes.
//! let a = cluster.alloc_gpu(0, 0, 4096);
//! let b = cluster.alloc_gpu(2, 1, 4096);
//!
//! // Produce data on node 0's GPU, then tcaMemcpyPeer it to node 2's GPU
//! // — no MPI, no staging copies, one call.
//! cluster.write(&a.at(0), &[7u8; 4096]);
//! let elapsed = cluster.memcpy_peer(&b.at(0), &a.at(0), 4096);
//! assert_eq!(cluster.read(&b.at(0), 4096), vec![7u8; 4096]);
//! assert!(elapsed.as_us_f64() < 50.0);
//! ```
//!
//! Everything runs inside the deterministic simulation the lower crates
//! provide; see the workspace `DESIGN.md` for the hardware-substitution
//! rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod cluster;
pub mod collectives;
pub mod comm;
pub mod hierarchy;
pub mod params;
pub mod presets;

pub use api::{GpuAlloc, MemRef, MemSpace, TcaEvent};
pub use cluster::{HealthData, TcaCluster, TcaClusterBuilder, Topology};

/// Applies the `TCA_FLIGHT_RING` environment opt-in: when the variable
/// holds a positive event count, the fabric records its dispatch stream
/// into a flight ring of that capacity (no spill). Both backend
/// constructors ([`TcaClusterBuilder::build`] and [`MpiBackend::new`]) and
/// the `tca-bench` rigs that build fabrics directly call this, which gives
/// CI one switch to re-run any scenario sweep — `engine`, `pingpong`,
/// `ring-hops`, `fig9` in `scripts/ci.sh` — with recording on and check
/// its rows against the same golden as a plain run, proving the recorder
/// is byte-neutral end to end. Reading the environment here (host configuration, fixed for the
/// process, like a CLI flag) keeps the simulation crates themselves
/// entirely host-state-free.
///
/// # Panics
///
/// If the variable holds anything but a decimal event count (e.g. `4k`).
pub fn apply_env_flight(fabric: &mut tca_pcie::Fabric) {
    let Ok(v) = std::env::var("TCA_FLIGHT_RING") else {
        return;
    };
    let cap = flight_ring_capacity(&v);
    if cap > 0 {
        fabric.observe(tca_pcie::Instrument::default().flight(cap, false));
    }
}

/// Parses a `TCA_FLIGHT_RING` value: a decimal event count, surrounding
/// whitespace ignored; `0` or an empty value leaves recording off.
///
/// # Panics
///
/// On any other value (`4k`, `-1`, …), naming the variable and the value,
/// so a mistyped audit fails instead of silently recording nothing.
fn flight_ring_capacity(value: &str) -> usize {
    let v = value.trim();
    if v.is_empty() {
        return 0;
    }
    v.parse().unwrap_or_else(|_| {
        panic!("TCA_FLIGHT_RING={value:?} is not an event count (expected a decimal integer)")
    })
}

pub use collectives::Collectives;
pub use comm::{CommWorld, MpiBackend, MpiGpuMode, PutSpec, TcaBackend};
pub use hierarchy::{HierarchicalCluster, Route};
pub use params::{default_fingerprint_hex, FabricParams};

/// Common imports for examples and tests.
pub mod prelude {
    pub use crate::api::{GpuAlloc, MemRef, MemSpace, TcaEvent};
    pub use crate::cluster::{TcaCluster, TcaClusterBuilder, Topology};
    pub use crate::collectives::Collectives;
    pub use crate::comm::{CommWorld, MpiBackend, MpiGpuMode, PutSpec, TcaBackend};
    pub use crate::hierarchy::{HierarchicalCluster, Route};
    pub use crate::params::FabricParams;
    pub use crate::presets;
    pub use tca_net::{IbParams, Protocol};
    pub use tca_peach2::{Descriptor, EngineKind};
    pub use tca_sim::{Dur, SimTime};
    pub use tca_sim::{ParamSet, Parameterized};
}

#[cfg(test)]
mod tests {
    use super::flight_ring_capacity;

    #[test]
    fn flight_ring_values_parse() {
        assert_eq!(flight_ring_capacity("4096"), 4096);
        assert_eq!(flight_ring_capacity(" 4096\n"), 4096);
        assert_eq!(flight_ring_capacity("0"), 0);
        assert_eq!(flight_ring_capacity(""), 0);
    }

    #[test]
    #[should_panic(expected = "TCA_FLIGHT_RING=\"4k\" is not an event count")]
    fn unparsable_flight_ring_fails_loudly() {
        flight_ring_capacity("4k");
    }
}
