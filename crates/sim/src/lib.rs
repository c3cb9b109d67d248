//! # tca-sim — deterministic discrete-event simulation engine
//!
//! Foundation layer of the `tca-rs` workspace: an integer-picosecond clock,
//! a deterministic event queue with FIFO tie-break, a replayable PRNG, and
//! the measurement collectors used by every device model.
//!
//! Nothing in this crate knows about PCIe or PEACH2; the protocol layers
//! (`tca-pcie`, `tca-peach2`, …) define event payloads and dispatch loops
//! on top of [`EventQueue`].
//!
//! ## Determinism contract
//!
//! * All state advances only through popped events.
//! * Same-instant events execute in scheduling order.
//! * All randomness flows from [`SimRng`] seeds.
//!
//! Given the same seed and the same sequence of API calls, a simulation
//! replays bit-identically — the property-based tests across the workspace
//! rely on this.
//!
//! ```
//! use tca_sim::{Dur, EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::from_ps(500), "b");
//! q.schedule_at(SimTime::from_ps(100), "a");
//! assert_eq!(q.pop(), Some((SimTime::from_ps(100), "a")));
//! q.schedule_in(Dur::from_ns(1), "c"); // relative to the new now (100 ps)
//! assert_eq!(q.pop(), Some((SimTime::from_ps(500), "b")));
//! assert_eq!(q.pop(), Some((SimTime::from_ps(1_100), "c")));
//! ```

// `unsafe` is forbidden except for the one feature-gated module that
// implements the counting `#[global_allocator]` passthrough (`prof`);
// with `host-prof` off this crate still compiles under `forbid`.
#![cfg_attr(not(feature = "host-prof"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod params;
pub mod prof;
pub mod rng;
pub mod sampler;
pub mod span;
pub mod stats;
pub mod time;

pub use engine::{EventId, EventQueue};
pub use flight::{FlightEvent, FlightRecorder, Fnv64, FLIGHT_SCHEMA};
pub use json::{write_escaped, JsonValue};
pub use metrics::{
    CounterId, GaugeId, HistogramId, MeterId, MetricValue, MetricsHub, MetricsSnapshot,
};
pub use params::{
    fingerprint_hex, fingerprint_pairs, nest_id, unnest_id, ParamDesc, ParamSet, ParamUnit,
    Parameterized,
};
pub use prof::{alloc_snapshot, thread_alloc_snapshot, AllocSnapshot, ProfCounters};
pub use rng::SimRng;
pub use sampler::{GaugeSeries, Sampler, StallReport, Watchdog};
pub use span::{SpanId, SpanStore, TraceCtx, WriteRec};
pub use stats::{fmt_gbps, BandwidthMeter, Counter, HdrHistogram, LatencyHistogram, OnlineStats};
pub use time::{Dur, SimTime};
