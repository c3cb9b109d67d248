//! # tca-pcie — the PCI Express substrate
//!
//! A packet-level model of PCI Express sufficient to reproduce the
//! performance phenomena the TCA/PEACH2 paper measures:
//!
//! * **TLPs with real payloads** ([`Tlp`]): posted memory writes,
//!   non-posted reads, completions, MSIs — with the exact per-packet wire
//!   overhead used by the paper's theoretical-peak formula
//!   (`4 GB/s × 256/280 = 3.66 GB/s` for Gen2 x8, MPS 256).
//! * **Links** ([`LinkParams`]): generation/lane arithmetic, store-and-
//!   forward serialization, one-way latency, per-direction wires.
//! * **Credit-based flow control** ([`flow::CreditState`]): three FC
//!   classes; completions can bypass stalled requests; receiving devices
//!   may *hold* credits to model finite internal buffers (backpressure).
//! * **The fabric** ([`Fabric`]): owns devices and links, runs the
//!   deterministic event loop, delivers packets, returns credits.
//! * **Sparse memory** ([`PageMemory`]): real bytes end-to-end so every
//!   transfer is verifiable.
//!
//! Device behaviour (host bridges, GPUs, the PEACH2 chip) lives in the
//! higher crates; this crate knows nothing about TCA itself.
//!
//! ```
//! use tca_pcie::{LinkParams, Tlp};
//!
//! // The paper's §IV-A1 arithmetic, as code:
//! let link = LinkParams::gen2_x8();
//! assert_eq!(link.raw_bytes_per_sec(), 4_000_000_000);
//! let peak = link.theoretical_peak_bytes_per_sec();
//! assert!((peak / 1e9 - 3.657).abs() < 0.01);
//!
//! // A 256-byte write occupies 280 bytes of wire.
//! assert_eq!(Tlp::write(0x1000, vec![0u8; 256]).wire_bytes(), 280);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod device;
pub mod fabric;
pub mod flow;
pub mod link;
pub mod memory;
pub mod prof;
pub mod tagpool;
pub mod tlp;

pub use addr::{align_down, align_up, is_aligned, AddrRange};
pub use bytes::Bytes;
pub use device::{CreditHold, Ctx, Device};
pub use fabric::{ConfigError, Fabric, FabricProf, Instrument, LinkDirStats, LinkId, StepKind};
pub use link::{LinkParams, PcieGen, WireState};
pub use memory::{PageMemory, PAGE_SIZE};
pub use prof::{tlp_counts, TlpCounts};
pub use tagpool::{ReadReassembly, TagPool};
pub use tlp::{DeviceId, Dir, FcClass, PortIdx, Tag, Tlp, TlpKind, TLP_OVERHEAD_BYTES};
