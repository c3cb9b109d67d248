//! The PCIe fabric: topology, transmission, flow control, dispatch loop.
//!
//! A [`Fabric`] owns every device and link of a simulated system (one node,
//! or a whole TCA sub-cluster plus its InfiniBand network). It is the only
//! piece of code that moves packets: devices hand TLPs to their ports via
//! [`Ctx::send`](crate::Ctx::send), the fabric serializes them onto the
//! wire, enforces receiver credits, and delivers them to the peer device
//! after serialization + propagation time.
//!
//! Handlers act on the fabric directly. A [`Ctx`] borrows the fabric's
//! `Net` (everything but the devices and the observers), and each send,
//! timer or credit release is applied when the handler makes it. Two rules
//! fix the order around that: a delivery's credits go back just before
//! the handler's first effect (or when it ends, if it makes none), so
//! their return precedes the handler's own events; and the link layer's
//! span segments are recorded when the dispatch ends, so a handler's own
//! spans number before those of the TLPs it sent.
//!
//! Only device timers wait in the general event queue. A TLP on the wire
//! waits in its link direction's FIFO: it lands at the wire's `busy_until`
//! plus the link's fixed latency, and `busy_until` only grows, so the FIFO
//! is in time order by construction. Credit returns wait likewise in one
//! FIFO per link, each due its fixed `credit_return_delay` after it is
//! made. These *lanes* take their sequence numbers from the queue's own
//! counter, and the dispatch loop pops the smaller `(at, seq)` of the
//! queue head and the earliest lane head (a small heap of the non-empty
//! lanes), so events dispatch in exactly the `(at, seq)` order of one
//! queue holding them all.
//!
//! Transmission rules per link direction:
//! * the wire serializes one packet at a time (store-and-forward);
//! * posted/non-posted requests share one FIFO, completions have their own
//!   FIFO that can bypass stalled requests (PCIe ordering rule, and the
//!   classic deadlock avoidance);
//! * a packet needs receiver credits before it may start serializing;
//!   credits return after the receiver consumes the packet (or later, if
//!   the receiving device holds them to model finite internal buffers).

use crate::device::{CreditHold, Ctx, Device};
use crate::flow::CreditState;
use crate::link::{LinkParams, WireState};
use crate::tlp::{DeviceId, Dir, FcClass, PortIdx, Tlp, TlpKind};
use std::any::Any;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use tca_sim::metrics::{CounterId, GaugeId, MeterId};
use tca_sim::{
    Dur, EventQueue, FlightRecorder, Fnv64, JsonValue, MetricsHub, MetricsSnapshot, Sampler,
    SimRng, SimTime, SpanStore, StallReport, TraceCtx, Watchdog,
};

/// Identifier of a link within the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub u32);

/// A configuration error observed while the fabric was running. These are
/// *software/config* mistakes (wrong routing table, missing cable), not
/// internal invariant violations: the offending packet is dropped, the
/// error is recorded, and the simulation keeps running so a verifier can
/// report every problem in one pass instead of dying on the first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// A device handed a TLP to a port with no link attached.
    UnconnectedPort {
        /// The sending device.
        device: DeviceId,
        /// The port the TLP was submitted on.
        port: PortIdx,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnconnectedPort { device, port } => {
                write!(f, "send on unconnected port dev{}:{port:?}", device.0)
            }
        }
    }
}

/// The next fabric event, as [`Net::pop_next`] hands it to the dispatch
/// loop. A delivery or credit return names only its lane: the TLP or the
/// credits stay at the lane's front until the dispatch takes them, so the
/// 72-byte packet is never copied through the pop.
enum Ev {
    Deliver { link: u32, dir: Dir },
    Timer { dst: DeviceId, tag: u64 },
    CreditReturn { link: u32 },
}

/// A lane FIFO: `(at, seq, item)` in ascending `(at, seq)` order.
type LaneFifo<T> = VecDeque<(SimTime, u64, T)>;

/// A non-empty lane in the lane heap. `key` packs its front's `(at, seq)`
/// as `at << 64 | seq`, so one u128 compare orders two lanes; `lane` packs
/// `link << 2 | k`, where `k` is the [`Dir`] index of a wire lane, or 2 for
/// the link's credit returns. Seqs are unique, so keys are too, and the
/// order (reversed, for the max-heap) looks at `key` alone.
#[derive(Clone, Copy)]
struct LaneKey {
    key: u128,
    lane: u32,
}

impl LaneKey {
    #[inline]
    fn new(at: SimTime, seq: u64, lane: u32) -> LaneKey {
        LaneKey {
            key: u128::from(at.as_ps()) << 64 | u128::from(seq),
            lane,
        }
    }

    #[inline]
    fn at(&self) -> SimTime {
        SimTime::from_ps((self.key >> 64) as u64)
    }

    #[inline]
    fn seq(&self) -> u64 {
        self.key as u64
    }
}

impl PartialEq for LaneKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for LaneKey {}

impl PartialOrd for LaneKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LaneKey {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// Lane number of the TLPs on `link`'s wire in direction `dir`.
#[inline]
fn wire_lane(link: u32, dir: Dir) -> u32 {
    link << 2 | dir as u32
}

/// Lane number of `link`'s credit returns.
#[inline]
fn credit_lane(link: u32) -> u32 {
    link << 2 | 2
}

/// Appends `item`, due at `at`, to the lane FIFO `fifo` numbered `lane`.
/// Its seq comes from the queue, so it orders against every other event
/// exactly as a queued one would; a lane that was empty enters the heap.
/// A lane relies on its times never decreasing, so that is checked, in
/// release builds too: a violation would silently reorder events.
#[inline]
fn lane_push<T>(
    queue: &mut EventQueue<(DeviceId, u64)>,
    heap: &mut BinaryHeap<LaneKey>,
    fifo: &mut LaneFifo<T>,
    lane: u32,
    at: SimTime,
    item: T,
) {
    let seq = queue.take_seq();
    match fifo.back() {
        None => heap.push(LaneKey::new(at, seq, lane)),
        Some(&(back, ..)) => assert!(
            at >= back,
            "lane {lane} out of time order: {at:?} after {back:?}"
        ),
    }
    fifo.push_back((at, seq, item));
}

/// Takes the front of lane `lane`, which [`Net::pop_next`] just chose and
/// so heads the heap: the heap entry is re-keyed to the new front, or
/// removed when the lane empties.
#[inline]
fn lane_take<T>(heap: &mut BinaryHeap<LaneKey>, fifo: &mut LaneFifo<T>, lane: u32) -> T {
    let (_, _, item) = fifo.pop_front().expect("the chosen lane has a front");
    let mut top = heap.peek_mut().expect("the chosen lane heads the heap");
    debug_assert_eq!(top.lane, lane, "the chosen lane heads the heap");
    match fifo.front() {
        Some(&(at, seq, _)) => *top = LaneKey::new(at, seq, lane),
        None => {
            PeekMut::pop(top);
        }
    }
    item
}

/// The kind of event one [`Fabric::step_kind`] call dispatched. Public
/// mirror of the private event enum, so a harness (the traced split of
/// `benchmark/run.sh --trace`) can bucket host time per event kind
/// without the fabric ever touching a wall clock itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepKind {
    /// A TLP arrived at a device.
    Deliver,
    /// A device timer fired.
    Timer,
    /// Flow-control credits returned to a link direction.
    CreditReturn,
}

impl StepKind {
    /// Stable lowercase name (JSON / folded-stack frame label).
    pub fn name(self) -> &'static str {
        match self {
            StepKind::Deliver => "deliver",
            StepKind::Timer => "timer",
            StepKind::CreditReturn => "credit_return",
        }
    }
}

/// Host-side dispatch counters of one fabric (`tca-prof` layer one).
/// Plain integers bumped inside [`Fabric::step`] and the transmit path;
/// like [`tca_sim::ProfCounters`] they never schedule events and cannot
/// perturb the event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricProf {
    /// `Ev::Deliver` events dispatched.
    pub deliver_events: u64,
    /// `Ev::Timer` events dispatched.
    pub timer_events: u64,
    /// `Ev::CreditReturn` events dispatched.
    pub credit_return_events: u64,
    /// Wire reservations made by the transmit path, replays included
    /// (each one serializes a TLP onto a link hop).
    pub tlp_transmits: u64,
}

impl FabricProf {
    /// Counter increments since `earlier`.
    pub fn since(&self, earlier: &FabricProf) -> FabricProf {
        FabricProf {
            deliver_events: self.deliver_events - earlier.deliver_events,
            timer_events: self.timer_events - earlier.timer_events,
            credit_return_events: self.credit_return_events - earlier.credit_return_events,
            tlp_transmits: self.tlp_transmits - earlier.tlp_transmits,
        }
    }
}

/// Metric handles of one link direction, registered at [`Fabric::connect`]
/// under `link.{id}.{fwd|rev}.*`.
#[derive(Clone, Copy)]
struct DirMetrics {
    tlps: CounterId,
    wire_bytes: MeterId,
    wire_busy_ns: CounterId,
    credit_stall_ns: CounterId,
    replays: CounterId,
    queue_depth: GaugeId,
    /// Header credits currently consumed across all three FC classes
    /// (initial advertisement minus available), refreshed at sample time.
    credits_in_use: GaugeId,
}

struct LinkDir {
    wire: WireState,
    credits: CreditState,
    /// Posted + non-posted requests blocked on credits, in order, each with
    /// its enqueue instant (so dequeue can attribute the credit stall).
    reqq: VecDeque<(SimTime, Tlp)>,
    /// Completions blocked on credits; may bypass blocked requests.
    cplq: VecDeque<(SimTime, Tlp)>,
    /// The wire lane: TLPs serialized onto the wire, not yet delivered.
    inflight: LaneFifo<Tlp>,
    /// Total time packets spent queued waiting for credits.
    credit_stall: Dur,
    m: DirMetrics,
}

struct LinkState {
    params: LinkParams,
    /// `ends[0]` and `ends[1]`; direction `d` flows from `ends[d]` to
    /// `ends[1-d]`.
    ends: [(DeviceId, PortIdx); 2],
    dirs: [LinkDir; 2],
    /// The credit lane: released credits of both directions, not yet back
    /// at their sender.
    credit_returns: LaneFifo<CreditHold>,
}

/// Aggregate counters for one link direction.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkDirStats {
    /// Total bytes pushed on the wire (payload + protocol overhead).
    pub wire_bytes: u64,
    /// Packets transmitted.
    pub packets: u64,
    /// Packets currently queued waiting for credits.
    pub queued: usize,
    /// Link-level replays (corrupted TLPs retransmitted by the DLL).
    pub replays: u64,
    /// Accumulated wire occupancy (serialization time, replays included).
    pub wire_busy: Dur,
    /// Accumulated time packets spent queued waiting for receiver credits.
    pub credit_stall: Dur,
}

/// The observers a run turns on, handed to [`Fabric::observe`] as one
/// value; the default names none. Every observer is a pure data sink fed
/// from the dispatch loop: none schedules an event or reads a wall clock,
/// so an observed run replays the exact event stream of a plain one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Instrument {
    spans: bool,
    sample: Option<Dur>,
    watchdog: Option<Dur>,
    flight: Option<(usize, bool)>,
}

impl Instrument {
    /// Turns causal span tracing on (see [`Fabric::set_span_tracing`]).
    pub fn spans(mut self) -> Self {
        self.spans = true;
        self
    }

    /// Samples every gauge at `period` of simulated time, between events
    /// (see [`Sampler`]).
    pub fn sample(mut self, period: Dur) -> Self {
        self.sample = Some(period);
        self
    }

    /// Arms the progress watchdog: if no DRAM commit or interrupt is
    /// delivered for `window` — or the queue drains with TLPs still
    /// blocked on credits — it captures a [`StallReport`].
    pub fn watchdog(mut self, window: Dur) -> Self {
        self.watchdog = Some(window);
        self
    }

    /// Records the dispatch stream into a flight ring of `capacity`
    /// events; with `spill`, evicted events are kept as JSONL lines so the
    /// full log survives (see [`FlightRecorder`]).
    pub fn flight(mut self, capacity: usize, spill: bool) -> Self {
        self.flight = Some((capacity, spill));
        self
    }
}

/// The observers [`Fabric::observe`] turned on. They sit behind one
/// `Option` on the fabric, so each observer hook of an unobserved step
/// finds `None` and returns.
#[derive(Default)]
struct Observers {
    sampler: Option<Sampler>,
    watchdog: Option<Watchdog>,
    flight: Option<FlightRecorder>,
}

/// The simulated PCIe fabric.
pub struct Fabric {
    devices: Vec<Box<dyn Device>>,
    /// Everything a handler may act on, lent to each [`Ctx`].
    net: Net,
    /// Gauge sampler, watchdog and flight recorder; `None` until
    /// [`Fabric::observe`] turns one on.
    obs: Option<Box<Observers>>,
}

/// A link-layer span segment (`wire_wait`, `wire`, `replay`, `stall`)
/// awaiting [`Net::record_link_segments`].
type LinkSeg = (TraceCtx, &'static str, SimTime, SimTime, u32);

/// The part of the fabric a device handler acts on: the event queue and
/// its lanes, the links with their wires and credits, and the always-on
/// data sinks. [`Ctx`] borrows it mutably, so every send, timer and credit
/// release is applied the moment a handler makes it.
pub(crate) struct Net {
    /// Device timers `(dst, tag)`; deliveries and credit returns wait in
    /// the links' lanes instead.
    queue: EventQueue<(DeviceId, u64)>,
    /// Every non-empty lane, keyed by its front's `(at, seq)`.
    lanes: BinaryHeap<LaneKey>,
    /// `(link, transmit direction)` of each connected port, indexed
    /// `[device][port]`: every TLP send looks its port up here.
    ports: Vec<Vec<Option<(u32, Dir)>>>,
    links: Vec<LinkState>,
    metrics: MetricsHub,
    /// Causal span trees of in-flight and completed transfers.
    pub(crate) spans: SpanStore,
    /// Drives link-error injection (PEARL replays); deterministic.
    rng: SimRng,
    /// Configuration errors observed while running (packets dropped).
    config_errors: Vec<ConfigError>,
    /// Host-side dispatch counters (`tca-prof` layer one).
    prof: FabricProf,
    /// Link-layer segments of the current dispatch. They are recorded
    /// when it ends, so they number after the handler's own spans.
    link_segs: Vec<LinkSeg>,
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Fabric {
            devices: Vec::new(),
            net: Net {
                queue: EventQueue::new(),
                lanes: BinaryHeap::new(),
                ports: Vec::new(),
                links: Vec::new(),
                metrics: MetricsHub::new(),
                spans: SpanStore::new(),
                rng: SimRng::seed_from_u64(0x7ca_2013),
                config_errors: Vec::new(),
                prof: FabricProf::default(),
                link_segs: Vec::new(),
            },
            obs: None,
        }
    }

    /// Reseeds the error-injection stream (determinism is per seed).
    pub fn set_seed(&mut self, seed: u64) {
        self.net.rng = SimRng::seed_from_u64(seed);
    }

    /// Chrome trace-event JSON (`ph`/`ts`/`name` fields, timestamps in
    /// microseconds), loadable in Perfetto or `chrome://tracing`. The causal
    /// span trees become complete (`"X"`) events plus cross-device flow
    /// (`"s"`/`"f"`) arrows; when sampling is enabled, every gauge series
    /// follows as counter (`"C"`) events so the occupancy curves render
    /// under the spans. `"[]"` when neither recorded anything.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = Vec::new();
        self.net.spans.chrome_trace_events(&mut events);
        if let Some(s) = self.sampler() {
            s.chrome_counter_events(&mut events);
        }
        JsonValue::Array(events).to_json()
    }

    /// Turns on every observer `inst` names. One it names replaces the
    /// observer already there (a new sampler starts a new series, a new
    /// flight ring a new log); the others are left as they are.
    pub fn observe(&mut self, inst: Instrument) {
        if inst.spans {
            self.set_span_tracing(true);
        }
        if inst.sample.is_none() && inst.watchdog.is_none() && inst.flight.is_none() {
            return;
        }
        let obs = self.obs.get_or_insert_with(Box::default);
        obs.sampler = inst.sample.map(Sampler::new).or(obs.sampler.take());
        obs.watchdog = inst.watchdog.map(Watchdog::new).or(obs.watchdog.take());
        let flight = inst
            .flight
            .map(|(cap, spill)| FlightRecorder::new(cap, spill));
        obs.flight = flight.or(obs.flight.take());
    }

    /// The gauge time-series recorder, when sampling is on.
    pub fn sampler(&self) -> Option<&Sampler> {
        self.obs.as_ref()?.sampler.as_ref()
    }

    /// The armed watchdog, if any.
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.obs.as_ref()?.watchdog.as_ref()
    }

    /// The stall report, when the armed watchdog has fired.
    pub fn stall_report(&self) -> Option<&StallReport> {
        self.watchdog()?.report()
    }

    /// The flight recorder, when recording is on.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.obs.as_ref()?.flight.as_ref()
    }

    /// The full flight log as `tca-flight/v1` JSONL — header, event lines,
    /// then the run's span records (so span trees can be bisected from the
    /// log alone) — or `None` when recording is off.
    pub fn flight_jsonl(&self) -> Option<String> {
        let mut out = self.flight()?.jsonl();
        out.push_str(&self.net.spans.jsonl());
        Some(out)
    }

    /// Enables or disables causal span tracing. Packets launched while
    /// disabled carry no [`tca_sim::TraceCtx`], and the store never
    /// schedules events, so this flag cannot shift simulated time.
    pub fn set_span_tracing(&mut self, enabled: bool) {
        self.net.spans.set_enabled(enabled);
    }

    /// Read access to the recorded span trees.
    pub fn spans(&self) -> &SpanStore {
        &self.net.spans
    }

    /// Write access to the span store, for host-side code (drivers,
    /// harnesses) that opens transfer roots from outside the event loop.
    pub fn spans_mut(&mut self) -> &mut SpanStore {
        &mut self.net.spans
    }

    /// Read access to the always-on metrics registry.
    pub fn metrics(&self) -> &MetricsHub {
        &self.net.metrics
    }

    /// Write access to the metrics registry, for host-side code (drivers,
    /// harnesses) that records fabric-scoped metrics such as interrupt
    /// latency. Recording metrics never schedules events, so instrumented
    /// and uninstrumented runs execute identically.
    pub fn metrics_mut(&mut self) -> &mut MetricsHub {
        &mut self.net.metrics
    }

    /// Takes a deterministic, name-sorted snapshot of every metric. Devices
    /// first publish their internal collectors via
    /// [`Device::publish_metrics`]; the snapshot is a pure read of simulated
    /// state and never advances time.
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        for dev in &mut self.devices {
            dev.publish_metrics(&mut self.net.metrics);
        }
        self.net.metrics.snapshot()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.net.queue.now()
    }

    /// Total events executed (diagnostic).
    pub fn events_executed(&self) -> u64 {
        self.net.queue.events_executed()
    }

    /// Adds a device built by `f`, which receives the id the device will
    /// have (devices embed their id so they can stamp requester fields).
    pub fn add_device<D: Device, F: FnOnce(DeviceId) -> D>(&mut self, f: F) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Box::new(f(id)));
        id
    }

    /// Connects `a` and `b` with a link. Each `(device, port)` pair may be
    /// connected at most once.
    #[track_caller]
    pub fn connect(
        &mut self,
        a: (DeviceId, PortIdx),
        b: (DeviceId, PortIdx),
        params: LinkParams,
    ) -> LinkId {
        assert!(a != b, "cannot connect a port to itself");
        // Lane numbers and credit holds pack the link id with 3 more bits.
        let id = self.net.links.len() as u32;
        assert!(id < 1 << 29, "at most 2^29 links");
        for (end, pt) in [(Dir::Fwd, a), (Dir::Rev, b)] {
            assert!(
                (pt.0 .0 as usize) < self.devices.len(),
                "unknown device {:?}",
                pt.0
            );
            let (dev, port) = (pt.0 .0 as usize, pt.1 .0 as usize);
            if self.net.ports.len() <= dev {
                self.net.ports.resize_with(dev + 1, Vec::new);
            }
            let row = &mut self.net.ports[dev];
            if row.len() <= port {
                row.resize(port + 1, None);
            }
            let prev = row[port].replace((id, end));
            assert!(prev.is_none(), "port {pt:?} already connected");
        }
        let metrics = &mut self.net.metrics;
        let mut mk_dir = |dir: Dir| {
            let p = format!("link.{id}.{dir}");
            LinkDir {
                wire: WireState::new(&params),
                credits: CreditState::from_params(&params),
                reqq: VecDeque::new(),
                cplq: VecDeque::new(),
                inflight: VecDeque::new(),
                credit_stall: Dur::ZERO,
                m: DirMetrics {
                    tlps: metrics.counter(format!("{p}.tlps")),
                    wire_bytes: metrics.meter(format!("{p}.wire_bytes")),
                    wire_busy_ns: metrics.counter(format!("{p}.wire_busy_ns")),
                    credit_stall_ns: metrics.counter(format!("{p}.credit_stall_ns")),
                    replays: metrics.counter(format!("{p}.replays")),
                    queue_depth: metrics.gauge(format!("{p}.queue_depth")),
                    credits_in_use: metrics.gauge(format!("{p}.credits_in_use")),
                },
            }
        };
        self.net.links.push(LinkState {
            params,
            ends: [a, b],
            dirs: [mk_dir(Dir::Fwd), mk_dir(Dir::Rev)],
            credit_returns: VecDeque::new(),
        });
        LinkId(id)
    }

    /// The registered name of a device (report/diagnosis convenience).
    pub fn device_name(&self, id: DeviceId) -> &str {
        self.devices[id.0 as usize].name()
    }

    /// Immutable typed access to a device.
    #[track_caller]
    pub fn device<T: Device>(&self, id: DeviceId) -> &T {
        let d: &dyn Any = self.devices[id.0 as usize].as_ref();
        d.downcast_ref::<T>().expect("device type mismatch")
    }

    /// Mutable typed access to a device (for configuration between steps;
    /// use [`Fabric::drive`] when the mutation needs to emit packets).
    #[track_caller]
    pub fn device_mut<T: Device>(&mut self, id: DeviceId) -> &mut T {
        let d: &mut dyn Any = self.devices[id.0 as usize].as_mut();
        d.downcast_mut::<T>().expect("device type mismatch")
    }

    /// Runs `f` against a device with a live [`Ctx`], so host software
    /// models (drivers, benchmark harnesses) can inject stores, doorbells
    /// and timers from outside the event loop.
    #[track_caller]
    pub fn drive<T: Device, R>(
        &mut self,
        id: DeviceId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut ctx = Ctx::new(&mut self.net, id, None);
        let dev: &mut dyn Any = self.devices[id.0 as usize].as_mut();
        let dev = dev.downcast_mut::<T>().expect("device type mismatch");
        let r = f(dev, &mut ctx);
        ctx.finish();
        self.net.record_link_segments();
        r
    }

    /// Number of links in the fabric.
    pub fn link_count(&self) -> usize {
        self.net.links.len()
    }

    /// Per-direction link statistics; [`Dir::Fwd`] flows from the first
    /// endpoint passed to [`Fabric::connect`] to the second.
    pub fn link_stats(&self, link: LinkId, dir: Dir) -> LinkDirStats {
        let d = &self.net.links[link.0 as usize].dirs[dir.index()];
        LinkDirStats {
            wire_bytes: d.wire.wire_bytes,
            packets: d.wire.packets,
            queued: d.reqq.len() + d.cplq.len(),
            replays: d.wire.replays,
            wire_busy: d.wire.busy_time,
            credit_stall: d.credit_stall,
        }
    }

    /// The link and transmit direction a device port is attached to, if
    /// connected. Lets upper layers (the PEACH2 firmware's register file)
    /// map their local port numbering onto fabric link statistics.
    pub fn port_link(&self, dev: DeviceId, port: PortIdx) -> Option<(LinkId, Dir)> {
        self.net
            .port_slot(dev, port)
            .map(|(link, dir)| (LinkId(link), dir))
    }

    /// The parameters a link was connected with (read-only introspection
    /// for static analysis: credit sizing, latency, payload limits).
    pub fn link_params(&self, link: LinkId) -> &LinkParams {
        &self.net.links[link.0 as usize].params
    }

    /// The two `(device, port)` endpoints of a link, in [`Dir::Fwd`] order
    /// (`[0]` is the first endpoint passed to [`Fabric::connect`]).
    pub fn link_endpoints(&self, link: LinkId) -> [(DeviceId, PortIdx); 2] {
        self.net.links[link.0 as usize].ends
    }

    /// Configuration errors observed while running, in occurrence order.
    /// Empty on a correctly configured fabric; each entry corresponds to a
    /// dropped packet (see [`ConfigError`]).
    pub fn config_errors(&self) -> &[ConfigError] {
        &self.net.config_errors
    }

    /// Executes events until the queue drains; returns the final time.
    /// With the watchdog armed, a drain that leaves TLPs blocked on credits
    /// (a permanently starved link — nothing left to pump them) fires the
    /// watchdog with a diagnosis instead of returning silently.
    ///
    /// Events dispatch one at a time, exactly as repeated [`Fabric::step`]
    /// calls would.
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        self.check_drained_stall();
        self.net.queue.now()
    }

    /// Executes events with timestamps `<= deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.net.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
    }

    /// Executes one event. Returns `false` when the queue is idle.
    pub fn step(&mut self) -> bool {
        self.step_kind().is_some()
    }

    /// Executes one event and reports its kind (`None` when idle). The
    /// profiling entry point: a harness can wrap each call in its own
    /// wall-clock timer and bucket host time per event kind, while the
    /// fabric itself stays wall-clock-free.
    pub fn step_kind(&mut self) -> Option<StepKind> {
        self.sample_pending();
        let ev = self.net.pop_next()?;
        self.record_flight(&ev);
        let kind = self.dispatch(ev);
        self.check_watchdog();
        Some(kind)
    }

    /// Executes one already-popped event and reports its kind.
    fn dispatch(&mut self, ev: Ev) -> StepKind {
        let kind = match ev {
            Ev::Deliver { link, dir } => {
                self.net.prof.deliver_events += 1;
                let Net { links, lanes, .. } = &mut self.net;
                let fifo = &mut links[link as usize].dirs[dir.index()].inflight;
                let tlp = lane_take(lanes, fifo, wire_lane(link, dir));
                self.deliver(link, dir, tlp);
                StepKind::Deliver
            }
            Ev::Timer { dst, tag } => {
                self.net.prof.timer_events += 1;
                self.dispatch_timer(dst, tag);
                StepKind::Timer
            }
            Ev::CreditReturn { link } => {
                self.net.prof.credit_return_events += 1;
                let Net { links, lanes, .. } = &mut self.net;
                let l = &mut links[link as usize];
                let hold = lane_take(lanes, &mut l.credit_returns, credit_lane(link));
                let dir = hold.dir();
                l.dirs[dir.index()]
                    .credits
                    .replenish(hold.class(), hold.data);
                self.net.pump_link(link, dir);
                StepKind::CreditReturn
            }
        };
        self.net.record_link_segments();
        kind
    }

    /// Host-side dispatch counters accumulated since construction.
    pub fn prof(&self) -> FabricProf {
        self.net.prof
    }

    /// Host-side counters of the underlying event queue (pushes, pops,
    /// cancels, entries re-filed by wheel cascades, peak pending depth).
    /// Pushes, pops and the peak count lane events too; only cascades are
    /// the wheel's alone.
    pub fn queue_prof(&self) -> tca_sim::ProfCounters {
        *self.net.queue.prof()
    }

    /// Number of events currently pending, in the queue and in the lanes.
    /// Exact: the timing wheel unlinks cancelled entries eagerly, so there
    /// is no tombstone residue to subtract.
    pub fn queue_depth(&self) -> usize {
        self.net.queue.pending()
    }

    /// Appends the just-popped event to the flight recorder, if enabled.
    /// Runs between pop and dispatch so the log order *is* the dispatch
    /// order; a lane event is read at its lane's front, where it stays
    /// until the dispatch takes it. Pure data capture — nothing here
    /// schedules events or touches link state, so recording cannot shift
    /// simulated time.
    fn record_flight(&mut self, ev: &Ev) {
        let Some(fl) = self.obs.as_mut().and_then(|o| o.flight.as_mut()) else {
            return;
        };
        let at = self.net.queue.now();
        match ev {
            Ev::Deliver { link, dir } => {
                let l = &self.net.links[*link as usize];
                let (dst, port) = l.ends[dir.flip().index()];
                let (_, _, tlp) = l.dirs[dir.index()].inflight.front().expect("lane front");
                fl.record(
                    at,
                    StepKind::Deliver.name(),
                    dst.0,
                    Some(port.0),
                    tlp.span.map(|s| s.root.raw()),
                    tlp.digest(),
                    format!("{tlp:?}"),
                );
            }
            Ev::Timer { dst, tag } => {
                let label = match self.devices[dst.0 as usize].timer_kind(*tag) {
                    Some(kind) => format!("{kind} tag={tag:#x}"),
                    None => format!("timer tag={tag:#x}"),
                };
                fl.record(at, StepKind::Timer.name(), dst.0, None, None, *tag, label);
            }
            Ev::CreditReturn { link } => {
                let l = &self.net.links[*link as usize];
                let (_, _, hold) = l.credit_returns.front().expect("lane front");
                let (dir, class, data) = (hold.dir(), hold.class(), hold.data);
                let (src, port) = l.ends[dir.index()];
                // A hold always carries one header credit.
                let digest = Fnv64::new()
                    .write_u64(u64::from(*link))
                    .write_u64(dir.index() as u64)
                    .write_u64(class as u64)
                    .write_u64(1)
                    .write_u64(u64::from(data))
                    .finish();
                fl.record(
                    at,
                    StepKind::CreditReturn.name(),
                    src.0,
                    Some(port.0),
                    None,
                    digest,
                    format!("credits link{link}.{dir} {class:?} +1h/+{data}d"),
                );
            }
        }
    }

    /// Takes every sample due strictly before the next queued event. The
    /// gap between events is already decided when this runs, so capturing
    /// inside it is invisible to the simulation: no event is scheduled and
    /// `now` does not move (captures are timestamped on the sample grid).
    fn sample_pending(&mut self) {
        let Fabric { devices, net, obs } = self;
        let Some(sampler) = obs.as_mut().and_then(|o| o.sampler.as_mut()) else {
            return;
        };
        if let Some(next_event) = net.peek_time() {
            while sampler.due_before(next_event) {
                let at = sampler.next_due();
                net.refresh_live_gauges();
                for dev in devices.iter_mut() {
                    dev.publish_metrics(&mut net.metrics);
                }
                sampler.capture(at, &net.metrics);
            }
        }
    }

    /// The armed watchdog, mutably.
    fn watchdog_mut(&mut self) -> Option<&mut Watchdog> {
        self.obs.as_mut()?.watchdog.as_mut()
    }

    /// Fires the watchdog when the no-progress window has elapsed.
    fn check_watchdog(&mut self) {
        let now = self.net.queue.now();
        if matches!(self.watchdog(), Some(w) if w.expired(now)) {
            let diagnosis = self.stall_diagnosis();
            if let Some(w) = self.watchdog_mut() {
                w.fire(now, diagnosis);
            }
        }
    }

    /// Fires the watchdog when the queue drained with TLPs still blocked.
    fn check_drained_stall(&mut self) {
        let armed_quiet = matches!(self.watchdog(), Some(w) if w.report().is_none());
        if !armed_quiet {
            return;
        }
        let stuck = self.net.links.iter().any(|l| {
            l.dirs
                .iter()
                .any(|d| !d.reqq.is_empty() || !d.cplq.is_empty())
        });
        if stuck {
            let now = self.net.queue.now();
            let diagnosis = self.stall_diagnosis();
            if let Some(w) = self.watchdog_mut() {
                w.fire(now, diagnosis);
            }
        }
    }

    /// Renders what is known about the stall: every link direction with
    /// blocked TLPs and its credit state, the oldest in-flight span, and
    /// each device's self-reported engine state.
    fn stall_diagnosis(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, l) in self.net.links.iter().enumerate() {
            let advertised = CreditState::from_params(&l.params);
            for dir in [Dir::Fwd, Dir::Rev] {
                let d = &l.dirs[dir.index()];
                let queued = d.reqq.len() + d.cplq.len();
                if queued == 0 {
                    continue;
                }
                let src = l.ends[dir.index()].0;
                let dst = l.ends[dir.flip().index()].0;
                let c = &d.credits;
                writeln!(
                    out,
                    "  link {i}.{dir} {} -> {}: {queued} TLP(s) blocked on credits \
                     (hdr avail P/NP/C {}/{}/{} of {}/{}/{}, data avail P/C {}/{} of {}/{})",
                    self.devices[src.0 as usize].name(),
                    self.devices[dst.0 as usize].name(),
                    c.posted_hdr,
                    c.nonposted_hdr,
                    c.completion_hdr,
                    advertised.posted_hdr,
                    advertised.nonposted_hdr,
                    advertised.completion_hdr,
                    c.posted_data,
                    c.completion_data,
                    advertised.posted_data,
                    advertised.completion_data,
                )
                .expect("write to String");
            }
        }
        let oldest_open = self
            .net
            .spans
            .roots()
            .into_iter()
            .filter(|&(_, _, _, end)| end.is_none())
            .min_by_key(|&(_, _, start, _)| start);
        if let Some((_, name, start, _)) = oldest_open {
            writeln!(out, "  oldest in-flight span: `{name}` open since {start}")
                .expect("write to String");
        }
        for dev in &self.devices {
            if let Some(status) = dev.health_status() {
                writeln!(out, "  {}: {status}", dev.name()).expect("write to String");
            }
        }
        if out.is_empty() {
            out.push_str("  (no blocked link queues; all devices silent)\n");
        }
        out
    }

    fn deliver(&mut self, link: u32, dir: Dir, tlp: Tlp) {
        let now = self.net.queue.now();
        let (dst, port) = self.net.links[link as usize].ends[dir.flip().index()];
        let hold = CreditHold::new(link, dir, tlp.fc_class(), tlp.data_credits());
        // Interrupts are forward progress in their own right. Writes count
        // only when the receiving device reports a commit via
        // `Ctx::note_progress` — a chip relaying a packet another hop is
        // NOT progress, or routing loops would keep the watchdog quiet
        // while packets circulate forever without ever landing in DRAM.
        if matches!(tlp.kind, TlpKind::Msi { .. }) {
            if let Some(w) = self.watchdog_mut() {
                w.progress(now);
            }
        }
        let mut ctx = Ctx::new(&mut self.net, dst, Some(hold));
        self.devices[dst.0 as usize].on_tlp(port, tlp, &mut ctx);
        if ctx.finish() {
            self.note_progress();
        }
    }

    fn dispatch_timer(&mut self, dst: DeviceId, tag: u64) {
        let mut ctx = Ctx::new(&mut self.net, dst, None);
        self.devices[dst.0 as usize].on_timer(tag, &mut ctx);
        if ctx.finish() {
            self.note_progress();
        }
    }

    /// Feeds a handler's reported commit to the watchdog.
    fn note_progress(&mut self) {
        let now = self.net.queue.now();
        if let Some(w) = self.watchdog_mut() {
            w.progress(now);
        }
    }

    /// Schedules a bare timer for a device from outside any handler
    /// (harness convenience).
    pub fn schedule_timer(&mut self, dst: DeviceId, delay: Dur, tag: u64) {
        self.net.timer(dst, delay, tag);
    }
}

impl Net {
    /// Re-publishes the gauges whose live value only the fabric knows:
    /// queued-TLP depth and consumed header credits per link direction.
    fn refresh_live_gauges(&mut self) {
        for l in &self.links {
            let advertised = CreditState::from_params(&l.params);
            for d in &l.dirs {
                self.metrics
                    .gauge_set(d.m.queue_depth, (d.reqq.len() + d.cplq.len()) as i64);
                let in_use = advertised.posted_hdr.saturating_sub(d.credits.posted_hdr)
                    + advertised
                        .nonposted_hdr
                        .saturating_sub(d.credits.nonposted_hdr)
                    + advertised
                        .completion_hdr
                        .saturating_sub(d.credits.completion_hdr);
                self.metrics.gauge_set(d.m.credits_in_use, in_use as i64);
            }
        }
    }

    /// Current simulation time.
    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Arms a timer that calls `dst`'s `on_timer(tag)` after `delay`.
    #[inline]
    pub(crate) fn timer(&mut self, dst: DeviceId, delay: Dur, tag: u64) {
        self.queue.schedule_in(delay, (dst, tag));
    }

    /// Returns held credits to their link after its turnaround delay
    /// (receiver-side processing plus the flow-control DLLP). The delay is
    /// fixed per link, so the link's credit lane stays in time order.
    pub(crate) fn release(&mut self, hold: CreditHold) {
        let link = hold.link();
        let l = &mut self.links[link as usize];
        let at = self.queue.now() + l.params.credit_return_delay;
        let fifo = &mut l.credit_returns;
        lane_push(
            &mut self.queue,
            &mut self.lanes,
            fifo,
            credit_lane(link),
            at,
            hold,
        );
    }

    /// Time of the next event, in the queue or a lane.
    fn peek_time(&self) -> Option<SimTime> {
        let lane = self.lanes.peek().map(LaneKey::at);
        self.queue.peek_time().into_iter().chain(lane).min()
    }

    /// Pops the next event: the queue head or the earliest lane's front,
    /// whichever is first in `(at, seq)` order. A lane event stays at its
    /// lane's front until the dispatch takes it.
    #[inline]
    fn pop_next(&mut self) -> Option<Ev> {
        let Some(&head) = self.lanes.peek() else {
            let (_, (dst, tag)) = self.queue.pop()?;
            return Some(Ev::Timer { dst, tag });
        };
        let (at, lane) = (head.at(), head.lane);
        if let Some((_, (dst, tag))) = self.queue.pop_before(at, head.seq()) {
            return Some(Ev::Timer { dst, tag });
        }
        self.queue.advance_to(at);
        let link = lane >> 2;
        Some(match lane & 3 {
            d @ (0 | 1) => Ev::Deliver {
                link,
                dir: Dir::ALL[d as usize],
            },
            _ => Ev::CreditReturn { link },
        })
    }

    fn port_slot(&self, dev: DeviceId, port: PortIdx) -> Option<(u32, Dir)> {
        *self.ports.get(dev.0 as usize)?.get(port.0 as usize)?
    }

    /// Records the link-layer segments of the dispatch that just ended.
    #[inline]
    fn record_link_segments(&mut self) {
        if self.link_segs.is_empty() {
            return;
        }
        for (sp, name, start, end, dev) in self.link_segs.drain(..) {
            self.spans.segment(sp, name, start, end, Some(dev));
        }
    }

    /// Enqueues `tlp` for transmission from `(src, port)`. A send on an
    /// unconnected port is a *configuration* error (bad routing table,
    /// missing cable), not an internal invariant: the TLP is dropped and
    /// recorded in [`Fabric::config_errors`] so `tca-verify` can surface it
    /// as a diagnostic.
    #[track_caller]
    pub(crate) fn submit(&mut self, src: DeviceId, port: PortIdx, tlp: Tlp) {
        let Some((link, end)) = self.port_slot(src, port) else {
            self.config_errors
                .push(ConfigError::UnconnectedPort { device: src, port });
            return;
        };
        let LinkState { params, dirs, .. } = &mut self.links[link as usize];
        match &tlp.kind {
            TlpKind::MemWrite { data, .. } | TlpKind::Completion { data, .. } => {
                assert!(
                    data.len() as u32 <= params.max_payload,
                    "TLP payload {} exceeds MPS {} on link {link}",
                    data.len(),
                    params.max_payload
                );
            }
            TlpKind::MemRead { len, .. } => {
                assert!(
                    *len <= params.max_read_request,
                    "read request {len} exceeds MRRS {}",
                    params.max_read_request
                );
            }
            TlpKind::Msi { .. } => {}
        }
        let d = &mut dirs[end.index()];
        let is_cpl = tlp.fc_class() == FcClass::Completion;
        let queue_empty = if is_cpl {
            d.cplq.is_empty()
        } else {
            d.reqq.is_empty()
        };
        if queue_empty && d.credits.consume(tlp.fc_class(), tlp.data_credits()) {
            self.transmit(link, end, src, tlp);
        } else {
            let now = self.queue.now();
            if is_cpl {
                d.cplq.push_back((now, tlp));
            } else {
                d.reqq.push_back((now, tlp));
            }
            self.metrics
                .gauge_set(d.m.queue_depth, (d.reqq.len() + d.cplq.len()) as i64);
        }
    }

    /// Reserves the wire and puts a credit-approved TLP on its wire lane.
    /// With a non-zero link error rate, corrupted transmissions occupy the
    /// wire, are NAKed, and replay after the penalty — in order, exactly
    /// like a PCIe/PEARL data-link-layer replay buffer.
    fn transmit(&mut self, link: u32, dir: Dir, sender: DeviceId, tlp: Tlp) {
        let LinkState { params, dirs, .. } = &mut self.links[link as usize];
        let d = &mut dirs[dir.index()];
        let lossy = params.error_rate_ppm > 0;
        let corrupt_p = params.error_rate_ppm as f64 / 1e6;
        let submitted = self.queue.now();
        loop {
            self.prof.tlp_transmits += 1;
            let wire_bytes = tlp.wire_bytes();
            let (departure, arrival, tx) = d.wire.reserve(self.queue.now(), params, wire_bytes);
            self.metrics.add(d.m.wire_busy_ns, tx.as_ps() / 1_000);
            self.metrics
                .record_bytes(d.m.wire_bytes, departure, wire_bytes);
            if lossy && self.rng.gen_bool(corrupt_p) {
                // LCRC failure at the receiver: discard, NAK, replay. The
                // wire time was spent; the replay waits for the NAK round
                // trip and retransmits (possibly corrupting again).
                d.wire.replays += 1;
                d.wire.busy_until = d.wire.busy_until.max(arrival) + params.replay_penalty();
                self.metrics.inc(d.m.replays);
                if let Some(sp) = tlp.span {
                    self.link_segs
                        .push((sp, "replay", departure, arrival, sender.0));
                }
                continue;
            }
            self.metrics.inc(d.m.tlps);
            if let Some(sp) = tlp.span {
                // Head-of-line wait behind earlier packets serializing on
                // this wire, then the traversal itself (tx + propagation).
                if departure > submitted {
                    self.link_segs
                        .push((sp, "wire_wait", submitted, departure, sender.0));
                }
                self.link_segs
                    .push((sp, "wire", departure, arrival, sender.0));
            }
            let lane = wire_lane(link, dir);
            lane_push(
                &mut self.queue,
                &mut self.lanes,
                &mut d.inflight,
                lane,
                arrival,
                tlp,
            );
            break;
        }
    }

    /// After credits return, pushes out as many queued packets as now fit.
    fn pump_link(&mut self, link: u32, dir: Dir) {
        loop {
            let LinkState { ends, dirs, .. } = &mut self.links[link as usize];
            let d = &mut dirs[dir.index()];
            // Completions first: they must be able to bypass stalled
            // requests or read traffic deadlocks behind write bursts.
            let from_cpl = match (d.cplq.front(), d.reqq.front()) {
                (Some((_, c)), _) if d.credits.available(FcClass::Completion, c.data_credits()) => {
                    true
                }
                (_, Some((_, r))) if d.credits.available(r.fc_class(), r.data_credits()) => false,
                _ => break,
            };
            let (queued_at, tlp) = if from_cpl {
                d.cplq.pop_front().expect("checked front")
            } else {
                d.reqq.pop_front().expect("checked front")
            };
            let sender = ends[dir.index()].0;
            let stall = self.queue.now().since(queued_at);
            d.credit_stall += stall;
            self.metrics.add(d.m.credit_stall_ns, stall.as_ps() / 1_000);
            self.metrics
                .gauge_set(d.m.queue_depth, (d.reqq.len() + d.cplq.len()) as i64);
            if let Some(sp) = tlp.span {
                if stall > Dur::ZERO {
                    let now = self.queue.now();
                    self.link_segs.push((sp, "stall", queued_at, now, sender.0));
                }
            }
            let ok = d.credits.consume(tlp.fc_class(), tlp.data_credits());
            debug_assert!(ok);
            self.transmit(link, dir, sender, tlp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::PageMemory;
    use crate::tlp::Tag;
    use bytes::Bytes;

    /// Minimal memory endpoint used by fabric unit tests: consumes writes
    /// into a PageMemory, answers reads with completions, counts MSIs.
    struct TestMem {
        #[allow(dead_code)]
        id: DeviceId,
        mem: PageMemory,
        msi_count: u32,
        cpl_count: u32,
        delivered_writes: Vec<(SimTime, u64, usize)>,
    }

    impl TestMem {
        fn new(id: DeviceId) -> Self {
            TestMem {
                id,
                mem: PageMemory::new(),
                msi_count: 0,
                cpl_count: 0,
                delivered_writes: Vec::new(),
            }
        }
    }

    impl Device for TestMem {
        fn on_tlp(&mut self, port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
            match tlp.kind {
                TlpKind::MemWrite { addr, data } => {
                    self.delivered_writes.push((ctx.now(), addr, data.len()));
                    self.mem.write(addr, &data);
                }
                TlpKind::MemRead {
                    addr,
                    len,
                    tag,
                    requester,
                } => {
                    let data = self.mem.read(addr, len as usize);
                    ctx.send(port, Tlp::completion(tag, requester, 0, data, true));
                }
                TlpKind::Completion { .. } => self.cpl_count += 1,
                TlpKind::Msi { .. } => self.msi_count += 1,
            }
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}
    }

    /// A requester that fires a burst of writes or one read at t=0.
    struct Requester {
        #[allow(dead_code)]
        id: DeviceId,
        got: Vec<(SimTime, Bytes)>,
    }
    impl Device for Requester {
        fn on_tlp(&mut self, _port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
            if let TlpKind::Completion { data, .. } = tlp.kind {
                self.got.push((ctx.now(), data));
            }
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}
    }

    fn pair() -> (Fabric, DeviceId, DeviceId) {
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let mem = f.add_device(TestMem::new);
        f.connect(
            (req, PortIdx(0)),
            (mem, PortIdx(0)),
            LinkParams::gen2_x8().with_latency(Dur::from_ns(100)),
        );
        (f, req, mem)
    }

    #[test]
    fn write_arrives_with_serialization_and_latency() {
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::write(0x1000, vec![0xab; 256]));
        });
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        assert_eq!(m.delivered_writes.len(), 1);
        let (t, addr, len) = m.delivered_writes[0];
        assert_eq!((addr, len), (0x1000, 256));
        // 280 wire bytes at 4 GB/s = 70 ns + 100 ns latency.
        assert_eq!(t, SimTime::from_ps(170_000));
        assert_eq!(m.mem.read(0x1000, 3), vec![0xab; 3]);
    }

    #[test]
    fn back_to_back_writes_pipeline_on_the_wire() {
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..10u64 {
                ctx.send(PortIdx(0), Tlp::write(0x1000 + i * 256, vec![i as u8; 256]));
            }
        });
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        assert_eq!(m.delivered_writes.len(), 10);
        // Arrivals are exactly 70 ns apart: the wire is the bottleneck,
        // the latency is paid once per packet but overlaps.
        for w in m.delivered_writes.windows(2) {
            assert_eq!(w[1].0.since(w[0].0), Dur::from_ns(70));
        }
    }

    #[test]
    fn read_round_trip_returns_data() {
        let (mut f, req, mem) = pair();
        f.device_mut::<TestMem>(mem).mem.write(0x2000, b"ping");
        f.drive::<Requester, _>(req, |d, ctx| {
            ctx.send(PortIdx(0), Tlp::read(0x2000, 4, crate::tlp::Tag(7), d.id));
        });
        f.run_until_idle();
        let r = f.device::<Requester>(req);
        assert_eq!(r.got.len(), 1);
        assert_eq!(&r.got[0].1[..], b"ping");
        // Round trip: request 24 B (6 ns) + 100 ns + completion 28 B (7 ns) + 100 ns.
        assert_eq!(r.got[0].0, SimTime::from_ps(213_000));
    }

    #[test]
    fn msi_is_posted_and_counted() {
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::msi(3));
            ctx.send(PortIdx(0), Tlp::msi(3));
        });
        f.run_until_idle();
        assert_eq!(f.device::<TestMem>(mem).msi_count, 2);
    }

    #[test]
    fn flow_control_blocks_and_recovers() {
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let mem = f.add_device(TestMem::new);
        // Tiny credit pool: 2 posted headers / 32 data credits.
        let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
        p.posted_hdr_credits = 2;
        p.posted_data_credits = 32;
        f.connect((req, PortIdx(0)), (mem, PortIdx(0)), p);
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..20u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
            }
        });
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        assert_eq!(m.delivered_writes.len(), 20, "all packets eventually land");
        // With only 2 packets in flight and 100 ns credit-return turnaround,
        // spacing is credit-limited, not wire-limited (> 70 ns apart on avg).
        let first = m.delivered_writes.first().unwrap().0;
        let last = m.delivered_writes.last().unwrap().0;
        assert!(last.since(first) > Dur::from_ns(19 * 70));
    }

    #[test]
    fn ordering_is_fifo_per_direction() {
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..50u64 {
                ctx.send(PortIdx(0), Tlp::write(0x100 * i, vec![i as u8; 64]));
            }
        });
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        let addrs: Vec<u64> = m.delivered_writes.iter().map(|w| w.1).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert_eq!(addrs, sorted, "writes delivered in issue order");
    }

    #[test]
    fn link_stats_accumulate() {
        let (mut f, req, _mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::write(0, vec![0u8; 100]));
        });
        f.run_until_idle();
        let s = f.link_stats(LinkId(0), Dir::Fwd);
        assert_eq!(s.packets, 1);
        assert_eq!(s.wire_bytes, 124);
        assert_eq!(s.queued, 0);
        let rev = f.link_stats(LinkId(0), Dir::Rev);
        assert_eq!(rev.packets, 0);
    }

    #[test]
    fn send_on_unconnected_port_is_recorded_not_fatal() {
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        f.drive::<Requester, _>(req, |_, ctx| {
            ctx.send(PortIdx(5), Tlp::msi(0));
        });
        f.run_until_idle();
        assert_eq!(
            f.config_errors(),
            &[ConfigError::UnconnectedPort {
                device: req,
                port: PortIdx(5)
            }]
        );
        assert_eq!(
            f.config_errors()[0].to_string(),
            "send on unconnected port dev0:p5"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds MPS")]
    fn oversized_payload_panics() {
        let (mut f, req, _) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            ctx.send(PortIdx(0), Tlp::write(0, vec![0u8; 512]));
        });
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_rejected() {
        let mut f = Fabric::new();
        let a = f.add_device(|id| Requester { id, got: vec![] });
        let b = f.add_device(TestMem::new);
        let c = f.add_device(TestMem::new);
        f.connect((a, PortIdx(0)), (b, PortIdx(0)), LinkParams::gen2_x8());
        f.connect((a, PortIdx(0)), (c, PortIdx(0)), LinkParams::gen2_x8());
    }

    #[test]
    fn completions_bypass_blocked_requests() {
        // Saturate posted credits with writes, then issue a completion on
        // the same direction: it must not wait behind the blocked queue
        // (PCIe ordering rule / deadlock avoidance).
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let mem = f.add_device(TestMem::new);
        let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
        p.posted_hdr_credits = 1;
        p.posted_data_credits = 16;
        p.credit_return_delay = Dur::from_us(50); // writes stall a long time
        f.connect((req, PortIdx(0)), (mem, PortIdx(0)), p);
        let reqid = req;
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..4u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
            }
            // This completion is queued after the writes...
            ctx.send(
                PortIdx(0),
                Tlp::completion(Tag(9), reqid, 0, vec![2u8; 64], true),
            );
        });
        // Run a short window: far less than the 50 µs credit stall.
        f.run_until(SimTime::from_ps(5_000_000)); // 5 µs
        let s = f.link_stats(LinkId(0), Dir::Fwd);
        // 1 write went out (first credit), the completion bypassed the
        // other 3 blocked writes.
        assert_eq!(s.packets, 2, "write + bypassing completion");
        assert_eq!(s.queued, 3, "three writes still blocked");
        // Drain fully: everything eventually arrives.
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        assert_eq!(m.delivered_writes.len(), 4);
        assert_eq!(m.cpl_count, 1);
    }

    #[test]
    fn run_until_respects_the_deadline() {
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..10u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![0u8; 256]));
            }
        });
        // Arrivals at 170 ns, 240 ns, ... (70 ns apart). Stop at 300 ns.
        f.run_until(SimTime::from_ps(300_000));
        let got = f.device::<TestMem>(mem).delivered_writes.len();
        assert_eq!(got, 2, "exactly the arrivals before the deadline");
        assert!(f.now() <= SimTime::from_ps(300_000));
        f.run_until_idle();
        assert_eq!(f.device::<TestMem>(mem).delivered_writes.len(), 10);
    }

    #[test]
    fn lossy_link_delivers_everything_exactly_once() {
        // PEARL reliability: at 5% TLP corruption every byte still arrives,
        // in order, with replays counted.
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let mem = f.add_device(TestMem::new);
        f.connect(
            (req, PortIdx(0)),
            (mem, PortIdx(0)),
            LinkParams::gen2_x8()
                .with_latency(Dur::from_ns(100))
                .with_error_rate_ppm(50_000),
        );
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..200u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![i as u8; 256]));
            }
        });
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        assert_eq!(m.delivered_writes.len(), 200, "exactly once");
        let addrs: Vec<u64> = m.delivered_writes.iter().map(|w| w.1).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert_eq!(addrs, sorted, "order preserved through replays");
        let s = f.link_stats(LinkId(0), Dir::Fwd);
        assert!(s.replays > 0, "some replays must have occurred");
        for i in 0..200u64 {
            assert_eq!(m.mem.read(i * 256, 1), vec![i as u8], "payload {i}");
        }
    }

    #[test]
    fn lossy_traffic_both_ways_keeps_every_lane_in_time_order() {
        // Replays push `busy_until` past arrivals already on the wire;
        // mixed sizes, reads answered on the reverse wire, and a small
        // credit pool fill both wire lanes and the credit lane at once.
        // Every lane push asserts its time order, so this run would
        // panic on a lane that went backwards.
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let mem = f.add_device(TestMem::new);
        let mut p = LinkParams::gen2_x8()
            .with_latency(Dur::from_ns(100))
            .with_error_rate_ppm(100_000);
        p.posted_hdr_credits = 4;
        f.connect((req, PortIdx(0)), (mem, PortIdx(0)), p);
        f.drive::<Requester, _>(req, |d, ctx| {
            for i in 0..120u64 {
                let len = 64 + (i as usize * 40) % 193;
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![i as u8; len]));
                if i % 4 == 0 {
                    ctx.send(PortIdx(0), Tlp::read(i * 256, 16, Tag(i as u16), d.id));
                }
            }
        });
        f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        assert_eq!(m.delivered_writes.len(), 120, "exactly once");
        assert!(m.delivered_writes.windows(2).all(|w| w[0].0 <= w[1].0));
        let got = &f.device::<Requester>(req).got;
        assert_eq!(got.len(), 30, "every read completed");
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        let replays = |dir| f.link_stats(LinkId(0), dir).replays;
        assert!(replays(Dir::Fwd) > 0 && replays(Dir::Rev) > 0);
        assert_eq!(f.queue_depth(), 0, "every lane drained");
    }

    #[test]
    fn queue_depth_counts_tlps_on_the_wire() {
        let (mut f, req, _mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..3u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![0u8; 256]));
            }
        });
        assert_eq!(f.queue_depth(), 3, "three deliveries pending");
        f.run_until_idle();
        // Three deliveries and their three credit returns.
        let q = f.queue_prof();
        assert_eq!((q.pushes, q.pops, q.peak_pending), (6, 6, 3));
        assert_eq!((f.events_executed(), f.queue_depth()), (6, 0));
    }

    /// `nodes` devices, each linked to its right and lower neighbour on a
    /// `cols`-wide torus (a 2-node rig when `nodes` is 2 and `cols` 1).
    fn torus(nodes: u32, cols: u32) -> Fabric {
        let mut f = Fabric::new();
        let ids: Vec<_> = (0..nodes).map(|_| f.add_device(TestMem::new)).collect();
        let mut connect = |a: u32, b: u32, pa: u8, pb: u8| {
            let (a, b) = (
                (ids[a as usize], PortIdx(pa)),
                (ids[b as usize], PortIdx(pb)),
            );
            f.connect(a, b, LinkParams::gen2_x8());
        };
        if cols == 1 {
            connect(0, 1, 0, 0);
            connect(0, 1, 1, 1);
        } else {
            for n in 0..nodes {
                connect(n, n / cols * cols + (n + 1) % cols, 0, 1);
                connect(n, (n + cols) % nodes, 2, 3);
            }
        }
        f
    }

    /// Random pushes onto the wire and credit lanes of every link and into
    /// the timer queue, many due at one instant, popped in between: each
    /// pop must return the earliest pending `(at, seq)` of a sorted
    /// reference, where a push's seq is its place in push order.
    fn assert_lanes_pop_in_at_seq_order(mut f: Fabric, seed: u64) {
        let links = f.link_count() as u64;
        let mut rng = SimRng::seed_from_u64(seed);
        let mut pending = std::collections::BTreeMap::new();
        let (mut seq, mut id, mut popped) = (0u64, 0u32, 0u32);
        for step in 0.. {
            // Pop about one event in three, then drain.
            let drain = step >= 15_000;
            if drain && pending.is_empty() {
                break;
            }
            if drain || rng.gen_range(3) == 0 {
                let Some(ev) = f.net.pop_next() else {
                    assert!(pending.is_empty());
                    continue;
                };
                let Net {
                    lanes, links: ls, ..
                } = &mut f.net;
                let got = match ev {
                    Ev::Deliver { link, dir } => {
                        let fifo = &mut ls[link as usize].dirs[dir.index()].inflight;
                        match lane_take(lanes, fifo, wire_lane(link, dir)).kind {
                            TlpKind::Msi { vector } => vector,
                            _ => unreachable!(),
                        }
                    }
                    Ev::CreditReturn { link } => {
                        let fifo = &mut ls[link as usize].credit_returns;
                        lane_take(lanes, fifo, credit_lane(link)).data
                    }
                    Ev::Timer { tag, .. } => tag as u32,
                };
                let ((at, _), want) = pending.pop_first().expect("an event was pending");
                assert_eq!((got, f.net.queue.now()), (want, at), "pop {popped}");
                popped += 1;
                continue;
            }
            let Net {
                queue,
                lanes,
                links: ls,
                ..
            } = &mut f.net;
            let now = queue.now();
            // Small steps, half of them zero, so many events tie.
            let at = now + Dur::from_ps(rng.gen_range(4) / 2 * rng.gen_range(3));
            let link = rng.gen_range(links) as u32;
            let l = &mut ls[link as usize];
            let at = match rng.gen_range(4) {
                0 => {
                    queue.schedule_at(at, (DeviceId(0), u64::from(id)));
                    at
                }
                k @ (1 | 2) => {
                    let dir = Dir::ALL[k as usize - 1];
                    let fifo = &mut l.dirs[dir.index()].inflight;
                    let at = fifo.back().map_or(at, |b| b.0.max(at));
                    lane_push(queue, lanes, fifo, wire_lane(link, dir), at, Tlp::msi(id));
                    at
                }
                _ => {
                    let fifo = &mut l.credit_returns;
                    let at = fifo.back().map_or(at, |b| b.0.max(at));
                    let hold = CreditHold::new(link, Dir::Rev, FcClass::Posted, id);
                    lane_push(queue, lanes, fifo, credit_lane(link), at, hold);
                    at
                }
            };
            pending.insert((at, seq), id);
            (seq, id) = (seq + 1, id + 1);
        }
        assert!(f.net.pop_next().is_none());
        assert_eq!(popped, id, "every event popped once");
    }

    #[test]
    fn lanes_pop_in_at_seq_order_on_a_two_node_rig() {
        for seed in 0..4 {
            assert_lanes_pop_in_at_seq_order(torus(2, 1), seed);
        }
    }

    #[test]
    fn lanes_pop_in_at_seq_order_on_a_torus() {
        assert_lanes_pop_in_at_seq_order(torus(64, 8), 7);
    }

    /// Every event of a drained fabric: its kind and time, in dispatch order.
    fn dispatch_log(f: &mut Fabric) -> Vec<(StepKind, u64)> {
        std::iter::from_fn(|| f.step_kind().map(|k| (k, f.now().as_ps() / 1_000))).collect()
    }

    #[test]
    fn delivery_and_timer_at_one_instant_dispatch_in_seq_order() {
        // The write lands at 170 ns (70 ns on the wire + 100 ns); a timer
        // due then dispatches first only if it was scheduled first.
        let write = |f: &mut Fabric, req| {
            f.drive::<Requester, _>(req, |_, ctx| {
                ctx.send(PortIdx(0), Tlp::write(0, vec![0u8; 256]));
            });
        };
        let (mut f, req, mem) = pair();
        f.schedule_timer(mem, Dur::from_ns(170), 0);
        write(&mut f, req);
        let timer_first = dispatch_log(&mut f);
        let (mut f, req, mem) = pair();
        write(&mut f, req);
        f.schedule_timer(mem, Dur::from_ns(170), 0);
        let delivery_first = dispatch_log(&mut f);
        use StepKind::{CreditReturn, Deliver, Timer};
        assert_eq!(
            timer_first,
            [(Timer, 170), (Deliver, 170), (CreditReturn, 270)]
        );
        assert_eq!(
            delivery_first,
            [(Deliver, 170), (Timer, 170), (CreditReturn, 270)]
        );
    }

    #[test]
    fn credit_return_and_timer_at_one_instant_dispatch_in_seq_order() {
        // The delivery at 170 ns releases its credits, due back at 270 ns.
        // A timer due then and scheduled earlier (at 0) dispatches first;
        // one scheduled after the release dispatches second.
        use StepKind::{CreditReturn, Deliver, Timer};
        for timer_first in [true, false] {
            let (mut f, req, mem) = pair();
            if timer_first {
                f.schedule_timer(mem, Dur::from_ns(270), 0);
            }
            f.drive::<Requester, _>(req, |_, ctx| {
                ctx.send(PortIdx(0), Tlp::write(0, vec![0u8; 256]));
            });
            assert_eq!(f.step_kind(), Some(Deliver));
            if !timer_first {
                f.schedule_timer(mem, Dur::from_ns(100), 0);
            }
            let rest = dispatch_log(&mut f);
            let want = if timer_first {
                [(Timer, 270), (CreditReturn, 270)]
            } else {
                [(CreditReturn, 270), (Timer, 270)]
            };
            assert_eq!(rest, want, "timer_first={timer_first}");
        }
    }

    #[test]
    fn lossy_link_reduces_bandwidth() {
        let run = |ppm: u32| {
            let mut f = Fabric::new();
            let req = f.add_device(|id| Requester { id, got: vec![] });
            let mem = f.add_device(TestMem::new);
            f.connect(
                (req, PortIdx(0)),
                (mem, PortIdx(0)),
                LinkParams::gen2_x8()
                    .with_latency(Dur::from_ns(100))
                    .with_error_rate_ppm(ppm),
            );
            f.drive::<Requester, _>(req, |_, ctx| {
                for i in 0..1000u64 {
                    ctx.send(PortIdx(0), Tlp::write(i * 256, vec![0u8; 256]));
                }
            });
            f.run_until_idle().as_ps()
        };
        let clean = run(0);
        let lossy = run(100_000); // 10%
        assert!(lossy > clean + clean / 20, "clean={clean} lossy={lossy}");
    }

    #[test]
    fn error_injection_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut f = Fabric::new();
            f.set_seed(seed);
            let req = f.add_device(|id| Requester { id, got: vec![] });
            let mem = f.add_device(TestMem::new);
            f.connect(
                (req, PortIdx(0)),
                (mem, PortIdx(0)),
                LinkParams::gen2_x8().with_error_rate_ppm(30_000),
            );
            f.drive::<Requester, _>(req, |_, ctx| {
                for i in 0..500u64 {
                    ctx.send(PortIdx(0), Tlp::write(i * 64, vec![1u8; 64]));
                }
            });
            f.run_until_idle();
            (f.now().as_ps(), f.link_stats(LinkId(0), Dir::Fwd).replays)
        };
        assert_eq!(run(42), run(42), "same seed, same replay schedule");
        assert_ne!(run(42).1, run(43).1, "different seeds diverge");
    }

    #[test]
    fn bandwidth_saturates_toward_theoretical_peak() {
        // 4096 × 256-byte writes: delivered-bytes / elapsed must approach
        // the §IV-A1 theoretical peak (3.657 GB/s), since the wire is the
        // only bottleneck in this two-device setup.
        let (mut f, req, mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..4096u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![0u8; 256]));
            }
        });
        let end = f.run_until_idle();
        let m = f.device::<TestMem>(mem);
        let bytes: usize = m.delivered_writes.iter().map(|w| w.2).sum();
        let bw = bytes as f64 / end.since(SimTime::ZERO).as_s_f64();
        let peak = LinkParams::gen2_x8().theoretical_peak_bytes_per_sec();
        assert!(bw / peak > 0.99, "bw={bw:.3e} peak={peak:.3e}");
    }

    #[test]
    fn port_link_maps_ports_to_directions() {
        let (f, req, mem) = pair();
        assert_eq!(f.port_link(req, PortIdx(0)), Some((LinkId(0), Dir::Fwd)));
        assert_eq!(f.port_link(mem, PortIdx(0)), Some((LinkId(0), Dir::Rev)));
        assert_eq!(f.port_link(req, PortIdx(7)), None);
    }

    #[test]
    fn metrics_track_wire_time_and_tlps() {
        let (mut f, req, _mem) = pair();
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..10u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![0u8; 256]));
            }
        });
        f.run_until_idle();
        let snap = f.metrics_snapshot();
        assert_eq!(snap.counter("link.0.fwd.tlps"), Some(10));
        // 280 wire bytes at 4 GB/s = 70 ns per packet.
        assert_eq!(snap.counter("link.0.fwd.wire_busy_ns"), Some(700));
        assert_eq!(snap.counter("link.0.fwd.credit_stall_ns"), Some(0));
        assert_eq!(snap.counter("link.0.rev.tlps"), Some(0));
        match snap.get("link.0.fwd.wire_bytes") {
            Some(tca_sim::MetricValue::Bandwidth { bytes, .. }) => assert_eq!(*bytes, 2800),
            other => panic!("unexpected {other:?}"),
        }
        let stats = f.link_stats(LinkId(0), Dir::Fwd);
        assert_eq!(stats.wire_busy, Dur::from_ns(700));
        assert_eq!(stats.credit_stall, Dur::ZERO);
    }

    #[test]
    fn metrics_attribute_credit_stall_and_queue_depth() {
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let mem = f.add_device(TestMem::new);
        let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
        p.posted_hdr_credits = 2;
        p.posted_data_credits = 32;
        f.connect((req, PortIdx(0)), (mem, PortIdx(0)), p);
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..20u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
            }
        });
        f.run_until_idle();
        let snap = f.metrics_snapshot();
        let stall = snap.counter("link.0.fwd.credit_stall_ns").unwrap();
        assert!(stall > 0, "credit-starved run must accumulate stall time");
        let stats = f.link_stats(LinkId(0), Dir::Fwd);
        assert_eq!(stats.credit_stall.as_ps() / 1_000, stall);
        match snap.get("link.0.fwd.queue_depth") {
            Some(tca_sim::MetricValue::Gauge { current, peak }) => {
                assert_eq!(*current, 0, "queue drained");
                assert_eq!(*peak, 18, "18 writes were blocked behind 2 credits");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A receiver that takes the credit hold of every delivery and never
    /// releases it — models a sink whose internal buffer never drains, the
    /// deliberate credit-starvation case for watchdog tests.
    struct Hoarder {
        #[allow(dead_code)]
        id: DeviceId,
        holds: Vec<CreditHold>,
    }
    impl Device for Hoarder {
        fn on_tlp(&mut self, _port: PortIdx, _tlp: Tlp, ctx: &mut Ctx<'_>) {
            self.holds.push(ctx.hold_credits());
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_>) {}
        fn name(&self) -> &str {
            "hoarder"
        }
        fn health_status(&self) -> Option<String> {
            Some(format!("{} credit hold(s) outstanding", self.holds.len()))
        }
    }

    #[test]
    fn watchdog_diagnoses_credit_starved_link() {
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let sink = f.add_device(|id| Hoarder { id, holds: vec![] });
        let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
        p.posted_hdr_credits = 1;
        f.connect((req, PortIdx(0)), (sink, PortIdx(0)), p);
        f.observe(Instrument::default().watchdog(Dur::from_us(100)));
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..3u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
            }
        });
        // The first write consumes the only posted header credit and is
        // delivered; the hoarder keeps the hold, so the credit never
        // returns and the queue drains with two writes still blocked.
        f.run_until_idle();
        let report = f.stall_report().expect("watchdog must fire");
        let rendered = report.render();
        assert!(rendered.contains("WATCHDOG"), "{rendered}");
        assert!(
            report.diagnosis.contains("link 0.fwd"),
            "diagnosis names the starved link: {}",
            report.diagnosis
        );
        assert!(
            report.diagnosis.contains("2 TLP(s) blocked on credits"),
            "{}",
            report.diagnosis
        );
        assert!(
            report
                .diagnosis
                .contains("hoarder: 1 credit hold(s) outstanding"),
            "diagnosis names the stalled engine: {}",
            report.diagnosis
        );
    }

    #[test]
    fn watchdog_drained_stall_names_oldest_in_flight_span() {
        // The drained-stall path with span tracing on: the queue empties
        // with TLPs still blocked AND a transfer tree still open, so the
        // diagnosis must name that oldest in-flight span — the line an
        // operator greps for to learn *which* transfer never completed.
        let mut f = Fabric::new();
        let req = f.add_device(|id| Requester { id, got: vec![] });
        let sink = f.add_device(|id| Hoarder { id, holds: vec![] });
        let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
        p.posted_hdr_credits = 1;
        f.connect((req, PortIdx(0)), (sink, PortIdx(0)), p);
        f.set_span_tracing(true);
        f.observe(Instrument::default().watchdog(Dur::from_us(100)));
        f.spans_mut()
            .start_root("stuck_put", SimTime::ZERO, Some(0))
            .expect("tracing enabled");
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..3u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
            }
        });
        // Drains long before the 100 µs window: only `check_drained_stall`
        // (not the periodic in-run check) can have fired the watchdog.
        let end = f.run_until_idle();
        assert!(end < SimTime::from_ps(100_000_000), "drained early: {end}");
        let report = f.stall_report().expect("drained stall must fire");
        assert_eq!(report.at, end, "fired at the drain instant");
        assert!(
            report
                .diagnosis
                .contains("oldest in-flight span: `stuck_put`"),
            "diagnosis names the open transfer: {}",
            report.diagnosis
        );
        assert!(
            report.diagnosis.contains("blocked on credits"),
            "{}",
            report.diagnosis
        );
    }

    #[test]
    fn watchdog_stays_quiet_on_healthy_run() {
        let (mut f, req, _mem) = pair();
        f.observe(Instrument::default().watchdog(Dur::from_us(100)));
        f.drive::<Requester, _>(req, |_, ctx| {
            for i in 0..10u64 {
                ctx.send(PortIdx(0), Tlp::write(i * 256, vec![0u8; 256]));
            }
        });
        f.run_until_idle();
        assert!(f.stall_report().is_none());
    }

    #[test]
    fn watchdog_fires_on_progress_free_event_churn() {
        // Livelock shape: timers keep firing but no write/MSI ever lands.
        struct Spinner {
            #[allow(dead_code)]
            id: DeviceId,
        }
        impl Device for Spinner {
            fn on_tlp(&mut self, _p: PortIdx, _t: Tlp, _c: &mut Ctx<'_>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
                ctx.timer_in(Dur::from_ns(50), tag);
            }
            fn name(&self) -> &str {
                "spinner"
            }
        }
        let mut f = Fabric::new();
        let s = f.add_device(|id| Spinner { id });
        f.observe(Instrument::default().watchdog(Dur::from_us(2)));
        f.schedule_timer(s, Dur::from_ns(50), 0);
        f.run_until(SimTime::from_ps(10_000_000)); // 10 µs of churn
        let report = f.stall_report().expect("no progress for 10 µs");
        assert!(report.at <= SimTime::from_ps(10_000_000));
        assert_eq!(report.last_progress, SimTime::ZERO);
        assert!(
            report.diagnosis.contains("all devices silent"),
            "{}",
            report.diagnosis
        );
    }

    #[test]
    fn sampling_records_series_without_shifting_time() {
        let run = |sample: bool| {
            let mut f = Fabric::new();
            let req = f.add_device(|id| Requester { id, got: vec![] });
            let mem = f.add_device(TestMem::new);
            let mut p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
            p.posted_hdr_credits = 2;
            p.posted_data_credits = 32;
            f.connect((req, PortIdx(0)), (mem, PortIdx(0)), p);
            if sample {
                // Observers add up: arming the watchdog keeps the sampler.
                f.observe(Instrument::default().sample(Dur::from_ns(50)));
                f.observe(Instrument::default().watchdog(Dur::from_ms(1)));
            }
            f.drive::<Requester, _>(req, |_, ctx| {
                for i in 0..20u64 {
                    ctx.send(PortIdx(0), Tlp::write(i * 256, vec![1u8; 256]));
                }
            });
            let end = f.run_until_idle();
            (end, f.events_executed(), f)
        };
        let (t_plain, ev_plain, _) = run(false);
        let (t_sampled, ev_sampled, mut f) = run(true);
        assert_eq!(t_plain, t_sampled, "sampling must not move time");
        assert_eq!(ev_plain, ev_sampled, "sampling must not add events");
        assert!(f.stall_report().is_none());
        let sampler = f.sampler().expect("enabled");
        assert!(sampler.captures() > 5, "got {}", sampler.captures());
        let depth = sampler
            .series_by_name("link.0.fwd.queue_depth")
            .expect("series recorded");
        assert!(
            depth.samples.iter().any(|&(_, v)| v > 0),
            "credit-limited run must show nonzero queue occupancy"
        );
        let credits = sampler
            .series_by_name("link.0.fwd.credits_in_use")
            .expect("series recorded");
        assert!(credits.samples.iter().any(|&(_, v)| v > 0));
        // Counter events land in the Chrome trace.
        assert!(f.chrome_trace_json().contains("\"ph\":\"C\""));
        // Identical runs produce byte-identical series JSON.
        let (_, _, f2) = run(true);
        assert_eq!(
            f.sampler().unwrap().to_json(),
            f2.sampler().unwrap().to_json()
        );
        // Naming the sampler again starts a new series; the watchdog stays.
        f.observe(Instrument::default().sample(Dur::from_ns(50)));
        assert_eq!(f.sampler().expect("new sampler").captures(), 0);
        assert!(f.watchdog().is_some() && f.flight().is_none());
    }
}
