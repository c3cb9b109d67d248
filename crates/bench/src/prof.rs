//! `tca-prof` layer two: wall-clock timing of the simulator itself.
//!
//! The simulation crates export pure counters (queue activity, per-kind
//! dispatch counts, TLP constructions/clones, allocation totals — see
//! `tca_sim::prof` and `tca_pcie::prof`); this module is the only place
//! that pairs them with `std::time::Instant`, which the determinism lint
//! bans from the simulation crates. The split is deliberate: counters in
//! sim, timers in bench.
//!
//! Three consumers:
//! * [`engine_bench`] — the fixed engine-throughput workload behind the
//!   `bench_engine` binary and the CI drift gate (`BENCH_engine.json`,
//!   schema `tca-bench-engine/v2`): the 8-node-ring steady state, the
//!   [`queue_race`] (timing wheel vs. the pre-rewrite reference heap on
//!   one deterministic workload, ≥ 2× or CI fails), and the 256-node
//!   `torus2d-16x16` all-to-all point;
//! * [`timed`] — wraps every sweep point `run_sweep` executes, so each
//!   [`crate::scenario::Sweep`] carries the host wall time and this
//!   thread's allocations per point; `tca-bench --profile` writes them
//!   with [`write_sweep_profile`] as a `tca-prof/v2` report plus
//!   flamegraph-compatible folded stacks;
//! * the `topo-registry` scenario's host-cost columns
//!   ([`timed_topo_run`]).
//!
//! Simulated results are byte-identical whether or not a profile is
//! taken (proved by `tests/determinism.rs` and the `ci.sh` smoke); only
//! the host-time numbers vary run to run, so the JSON artifacts here are
//! *schema*-stable rather than byte-stable.

use crate::refqueue::RefQueue;
use crate::scenario::Sweep;
use crate::topo_fabric::{self, TopoRunReport};
use crate::write_artifact;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tca_core::prelude::*;
use tca_pcie::{Fabric, FabricProf, StepKind, TlpCounts};
use tca_peach2::TopoSpec;
use tca_sim::{AllocSnapshot, EventQueue, Fnv64, JsonValue, ProfCounters, SimRng};

/// One profiled phase: host wall time plus the engine/allocator activity
/// that happened inside it.
#[derive(Clone, Debug)]
pub struct PhaseStat {
    /// Phase name (`build`, `warmup`, `steady`, `sweep`).
    pub name: &'static str,
    /// Host wall time spent in the phase, ns.
    pub wall_ns: u64,
    /// Simulated events executed during the phase.
    pub events: u64,
    /// Heap allocations during the phase (0 without the counting
    /// allocator installed).
    pub allocs: u64,
    /// Bytes allocated during the phase.
    pub alloc_bytes: u64,
}

/// Host time bucketed by the kind of event dispatched.
#[derive(Clone, Copy, Debug)]
pub struct KindStat {
    /// Event kind name (`deliver`, `timer`, `credit_return`).
    pub kind: &'static str,
    /// Events of this kind dispatched in the profiled drain.
    pub events: u64,
    /// Host wall time spent dispatching them, ns.
    pub wall_ns: u64,
}

/// Scoped wall-clock timer pairing an `Instant` with snapshots of the
/// allocation counters, so finishing it yields a complete [`PhaseStat`].
pub struct PhaseTimer {
    name: &'static str,
    start: Instant,
    alloc0: AllocSnapshot,
    events0: u64,
}

impl PhaseTimer {
    /// Starts timing a phase. `events_before` is the fabric's
    /// `events_executed()` at phase entry.
    pub fn start(name: &'static str, events_before: u64) -> PhaseTimer {
        PhaseTimer {
            name,
            start: Instant::now(),
            alloc0: tca_sim::alloc_snapshot(),
            events0: events_before,
        }
    }

    /// Stops the timer; `events_after` is `events_executed()` at exit.
    pub fn finish(self, events_after: u64) -> PhaseStat {
        let wall = self.start.elapsed();
        let alloc = tca_sim::alloc_snapshot().since(&self.alloc0);
        PhaseStat {
            name: self.name,
            wall_ns: wall.as_nanos() as u64,
            events: events_after - self.events0,
            allocs: alloc.allocs,
            alloc_bytes: alloc.bytes_allocated,
        }
    }
}

/// Drains the fabric one event at a time, timing each dispatch and
/// bucketing host time by event kind. Observationally identical to
/// `run_until_idle` from the simulation's point of view — same pops in
/// the same order — just with host timestamps taken between steps.
pub fn profiled_drain(fabric: &mut Fabric) -> Vec<KindStat> {
    let mut counts = [0u64; 3];
    let mut walls = [Duration::ZERO; 3];
    loop {
        let t = Instant::now();
        let Some(kind) = fabric.step_kind() else {
            break;
        };
        let elapsed = t.elapsed();
        let i = match kind {
            StepKind::Deliver => 0,
            StepKind::Timer => 1,
            StepKind::CreditReturn => 2,
        };
        counts[i] += 1;
        walls[i] += elapsed;
    }
    [StepKind::Deliver, StepKind::Timer, StepKind::CreditReturn]
        .iter()
        .enumerate()
        .map(|(i, k)| KindStat {
            kind: k.name(),
            events: counts[i],
            wall_ns: walls[i].as_nanos() as u64,
        })
        .collect()
}

/// Parameters of the engine-throughput workload. The steady phase drives
/// an `nodes`-node ring with all-node neighbour-shift puts; the sweep
/// phase re-runs a smaller put batch across every ring size up to the
/// 16-node cap of the Fig. 4 address map (64 puts total at the default
/// settings — the "64-node sweep" budget spread over the buildable ring
/// sizes; single rings beyond 16 nodes need a wider address map, which
/// the ROADMAP's torus-scale item plans).
#[derive(Clone, Debug)]
pub struct EngineWorkload {
    /// Ring size of the steady-state phase.
    pub nodes: u32,
    /// Warm-up rounds (excluded from the steady measurement).
    pub warmup_rounds: u32,
    /// Measured neighbour-shift rounds.
    pub steady_rounds: u32,
    /// Payload bytes per put.
    pub put_len: u64,
    /// Ring sizes of the sweep phase.
    pub sweep_rings: Vec<u32>,
    /// Puts issued per sweep ring.
    pub sweep_puts_per_ring: u32,
    /// Events replayed through the wheel-vs-reference [`queue_race`].
    pub race_events: u64,
    /// Registry topology of the all-to-all scale point.
    pub torus_topo: String,
}

impl Default for EngineWorkload {
    fn default() -> EngineWorkload {
        EngineWorkload {
            nodes: 8,
            warmup_rounds: 2,
            steady_rounds: 24,
            put_len: 64 * 1024,
            sweep_rings: vec![2, 4, 8, 16],
            sweep_puts_per_ring: 16,
            race_events: 200_000,
            torus_topo: "torus2d-16x16".to_string(),
        }
    }
}

impl EngineWorkload {
    /// A small variant for tests: same shape, a fraction of the events.
    pub fn smoke() -> EngineWorkload {
        EngineWorkload {
            nodes: 4,
            warmup_rounds: 1,
            steady_rounds: 2,
            put_len: 4 * 1024,
            sweep_rings: vec![2, 4],
            sweep_puts_per_ring: 2,
            race_events: 10_000,
            torus_topo: "torus2d-4x4".to_string(),
        }
    }
}

/// The complete host-side profile of one engine workload run.
#[derive(Clone, Debug)]
pub struct EngineProfile {
    /// The parameters that were run.
    pub params: EngineWorkload,
    /// Per-phase wall/event/allocation accounting.
    pub phases: Vec<PhaseStat>,
    /// Per-event-kind host time of the steady-state drains.
    pub kinds: Vec<KindStat>,
    /// Final queue counters of the steady-state fabric.
    pub queue: ProfCounters,
    /// Final dispatch counters of the steady-state fabric.
    pub dispatch: FabricProf,
    /// TLP construction/clone/relay deltas across the whole run
    /// (the running thread's counters; zeros without `host-prof`).
    pub tlp: TlpCounts,
    /// Allocation activity across the whole run (zeros unless the binary
    /// installed the counting allocator).
    pub alloc: AllocSnapshot,
    /// True when the steady-state cluster recorded a flight log (the
    /// `TCA_FLIGHT_RING` audit), which allocates one label per event.
    pub flight_recorded: bool,
}

/// One neighbour-shift round: every node puts `len` bytes to its ring
/// successor, all asynchronously, then the fabric drains. Returns the
/// per-kind host time of the drain.
fn shift_round(c: &mut TcaCluster, n: u32, len: u64, profiled: bool) -> Vec<KindStat> {
    let mut events = Vec::with_capacity(n as usize);
    for node in 0..n {
        let dst = MemRef::host((node + 1) % n, 0x1000_0000);
        let src = MemRef::host(node, 0x2000_0000);
        events.push(c.memcpy_peer_async(&dst, &src, len));
    }
    let kinds = if profiled {
        profiled_drain(&mut c.fabric)
    } else {
        c.fabric.run_until_idle();
        Vec::new()
    };
    for ev in events {
        // Already complete after the drain; consumes the #[must_use]
        // handle and asserts the completion interrupt really arrived.
        let _ = c.wait(ev);
    }
    kinds
}

fn merge_kinds(total: &mut Vec<KindStat>, round: Vec<KindStat>) {
    if total.is_empty() {
        *total = round;
        return;
    }
    for (t, r) in total.iter_mut().zip(round) {
        debug_assert_eq!(t.kind, r.kind);
        t.events += r.events;
        t.wall_ns += r.wall_ns;
    }
}

/// Runs the engine workload under full host profiling and returns the
/// profile. This is the measurement core of [`engine_bench`].
pub fn run_engine_profile(params: EngineWorkload) -> EngineProfile {
    let tlp0 = tca_pcie::tlp_counts();
    let alloc0 = tca_sim::alloc_snapshot();
    let mut phases = Vec::new();

    let t = PhaseTimer::start("build", 0);
    let mut c = TcaClusterBuilder::new(params.nodes).build();
    for node in 0..params.nodes {
        c.write(
            &MemRef::host(node, 0x2000_0000),
            &vec![0xa5u8; params.put_len as usize],
        );
    }
    phases.push(t.finish(c.fabric.events_executed()));

    let t = PhaseTimer::start("warmup", c.fabric.events_executed());
    for _ in 0..params.warmup_rounds {
        shift_round(&mut c, params.nodes, params.put_len, false);
    }
    phases.push(t.finish(c.fabric.events_executed()));

    let t = PhaseTimer::start("steady", c.fabric.events_executed());
    let mut kinds = Vec::new();
    for _ in 0..params.steady_rounds {
        merge_kinds(
            &mut kinds,
            shift_round(&mut c, params.nodes, params.put_len, true),
        );
    }
    phases.push(t.finish(c.fabric.events_executed()));
    let queue = c.fabric.queue_prof();
    let dispatch = c.fabric.prof();

    let t = PhaseTimer::start("sweep", 0);
    let mut sweep_events = 0u64;
    for &ring in &params.sweep_rings {
        let mut s = TcaClusterBuilder::new(ring).build();
        for node in 0..ring {
            s.write(
                &MemRef::host(node, 0x2000_0000),
                &vec![0x5au8; params.put_len as usize],
            );
        }
        let mut put = 0;
        while put < params.sweep_puts_per_ring {
            let batch = ring.min(params.sweep_puts_per_ring - put);
            shift_round(&mut s, batch, params.put_len, false);
            put += batch;
        }
        sweep_events += s.fabric.events_executed();
    }
    phases.push(t.finish(sweep_events));

    EngineProfile {
        params,
        phases,
        kinds,
        queue,
        dispatch,
        tlp: tca_pcie::tlp_counts().since(&tlp0),
        alloc: tca_sim::alloc_snapshot().since(&alloc0),
        flight_recorded: c.fabric.flight().is_some(),
    }
}

impl EngineProfile {
    /// The steady-state phase stats (the measured window).
    pub fn steady(&self) -> &PhaseStat {
        self.phases
            .iter()
            .find(|p| p.name == "steady")
            .expect("profile always has a steady phase")
    }

    /// Serializes the profile as the `tca-prof/v1` object embedded in
    /// `BENCH_engine.json`. Schema-stable: fixed keys and ordering; the
    /// wall-clock values vary run to run.
    pub fn to_json(&self) -> String {
        let mut root = JsonValue::object();
        root.push("schema", JsonValue::from("tca-prof/v1"));
        root.push("workload", JsonValue::from("engine"));
        root.push("nodes", JsonValue::from(u64::from(self.params.nodes)));
        let mut phases = Vec::new();
        for p in &self.phases {
            let mut o = JsonValue::object();
            o.push("name", JsonValue::from(p.name));
            o.push("wall_ns", JsonValue::from(p.wall_ns));
            o.push("events", JsonValue::from(p.events));
            o.push("allocs", JsonValue::from(p.allocs));
            o.push("alloc_bytes", JsonValue::from(p.alloc_bytes));
            phases.push(o);
        }
        root.push("phases", JsonValue::Array(phases));
        let mut kinds = Vec::new();
        for k in &self.kinds {
            let mut o = JsonValue::object();
            o.push("kind", JsonValue::from(k.kind));
            o.push("events", JsonValue::from(k.events));
            o.push("wall_ns", JsonValue::from(k.wall_ns));
            kinds.push(o);
        }
        root.push("kinds", JsonValue::Array(kinds));
        root.push("queue", self.queue.to_json());
        let mut d = JsonValue::object();
        d.push(
            "deliver_events",
            JsonValue::from(self.dispatch.deliver_events),
        );
        d.push("timer_events", JsonValue::from(self.dispatch.timer_events));
        d.push(
            "credit_return_events",
            JsonValue::from(self.dispatch.credit_return_events),
        );
        d.push(
            "tlp_transmits",
            JsonValue::from(self.dispatch.tlp_transmits),
        );
        root.push("dispatch", d);
        let mut t = JsonValue::object();
        t.push("constructed", JsonValue::from(self.tlp.constructed));
        t.push("cloned", JsonValue::from(self.tlp.cloned));
        t.push("relay_hops", JsonValue::from(self.tlp.relay_hops));
        root.push("tlp", t);
        let mut a = JsonValue::object();
        a.push("allocs", JsonValue::from(self.alloc.allocs));
        a.push("frees", JsonValue::from(self.alloc.frees));
        a.push(
            "bytes_allocated",
            JsonValue::from(self.alloc.bytes_allocated),
        );
        a.push("peak_bytes", JsonValue::from(self.alloc.peak_bytes));
        a.push("counted", JsonValue::from(self.alloc.allocs > 0));
        root.push("alloc", a);
        root.to_json()
    }
}

/// Host cost of one sweep point: wall time and the allocations the
/// worker thread made while running it.
#[derive(Clone, Copy, Debug)]
pub struct PointCost {
    /// Host wall time of the point, ns.
    pub wall_ns: u64,
    /// Heap allocations by the running thread (0 without the counting
    /// allocator installed).
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

/// Runs `f` on the calling thread and returns its result with its
/// [`PointCost`]. Allocation counts are per thread, so concurrent sweep
/// workers do not charge each other.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, PointCost) {
    let alloc0 = tca_sim::thread_alloc_snapshot();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let alloc = tca_sim::thread_alloc_snapshot().since(&alloc0);
    let cost = PointCost {
        wall_ns: wall.as_nanos() as u64,
        allocs: alloc.allocs,
        alloc_bytes: alloc.bytes_allocated,
    };
    (out, cost)
}

/// Writes the `--profile` artifacts of `sweep` into `dir`, creating it if
/// needed: `PROF_<scenario>-<backend>.json` (schema `tca-prof/v2`, with
/// the sweep's `config_fnv` and one entry per point in sweep order) and
/// `PROF_<scenario>-<backend>.folded` (one flamegraph-compatible
/// `tca_bench;<scenario>;<label> <wall ns>` line per point). Returns the
/// paths written.
pub fn write_sweep_profile(sweep: &Sweep, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut points = Vec::with_capacity(sweep.costs.len());
    let mut folded = String::new();
    for ((label, _), c) in sweep.rows.iter().zip(&sweep.costs) {
        let mut o = JsonValue::object();
        o.push("label", JsonValue::from(label.as_str()));
        o.push("wall_ns", JsonValue::from(c.wall_ns));
        o.push("allocs", JsonValue::from(c.allocs));
        o.push("alloc_bytes", JsonValue::from(c.alloc_bytes));
        points.push(o);
        folded.push_str(&format!(
            "tca_bench;{};{label} {}\n",
            sweep.scenario, c.wall_ns
        ));
    }
    let mut root = JsonValue::object();
    root.push("schema", JsonValue::from("tca-prof/v2"));
    root.push("scenario", JsonValue::from(sweep.scenario));
    root.push("backend", JsonValue::from(sweep.backend.name()));
    let config_fnv = tca_core::default_fingerprint_hex();
    root.push("config_fnv", JsonValue::from(config_fnv));
    root.push("points", JsonValue::Array(points));
    let stem = format!("PROF_{}-{}", sweep.scenario, sweep.backend.name());
    Ok(vec![
        write_artifact(&dir.join(format!("{stem}.json")), root.to_json())?,
        write_artifact(&dir.join(format!("{stem}.folded")), folded)?,
    ])
}

/// Adapter over the two queue implementations the [`queue_race`] compares,
/// so one deterministic workload replays through both.
trait RaceQueue {
    /// Implementation-specific pending-event handle.
    type Id: Copy;
    fn schedule_at(&mut self, at: SimTime, payload: u64) -> Self::Id;
    fn cancel(&mut self, id: Self::Id) -> bool;
    fn pop(&mut self) -> Option<(SimTime, u64)>;
    fn now(&self) -> SimTime;
    fn executed(&self) -> u64;
}

impl RaceQueue for EventQueue<u64> {
    type Id = tca_sim::EventId;
    fn schedule_at(&mut self, at: SimTime, payload: u64) -> Self::Id {
        EventQueue::schedule_at(self, at, payload)
    }
    fn cancel(&mut self, id: Self::Id) -> bool {
        EventQueue::cancel(self, id)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
    fn executed(&self) -> u64 {
        EventQueue::events_executed(self)
    }
}

impl RaceQueue for RefQueue<u64> {
    type Id = crate::refqueue::RefEventId;
    fn schedule_at(&mut self, at: SimTime, payload: u64) -> Self::Id {
        RefQueue::schedule_at(self, at, payload)
    }
    fn cancel(&mut self, id: Self::Id) -> bool {
        RefQueue::cancel(self, id)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        RefQueue::pop(self)
    }
    fn now(&self) -> SimTime {
        RefQueue::now(self)
    }
    fn executed(&self) -> u64 {
        RefQueue::events_executed(self)
    }
}

/// Replays the deterministic race workload through one queue and returns
/// the FNV-1a checksum of the popped `(time, payload)` stream.
///
/// The shape mirrors the fabric's steady state: ~400 events primed up
/// front (the ring rig's typical pending depth), then each pop schedules
/// follow-ons — mostly single near-future events (wire/credit chains),
/// sometimes a same-instant burst of four (batched deliveries), sometimes
/// a schedule-then-cancel pair (timer re-arms). Both queues pop the
/// identical stream, so the seeded RNG stays in lockstep and the checksum
/// proves it.
fn replay_race_workload<Q: RaceQueue>(q: &mut Q, total_events: u64) -> u64 {
    let mut rng = SimRng::seed_from_u64(0x7ca_ace);
    let mut h = Fnv64::new();
    let mut scheduled = 0u64;
    let mut pending_cancel: Option<Q::Id> = None;
    while scheduled < total_events.min(400) {
        let at = SimTime::from_ps(1 + rng.gen_range(1_000_000));
        q.schedule_at(at, scheduled);
        scheduled += 1;
    }
    while let Some((at, payload)) = q.pop() {
        h.write_u64(at.as_ps()).write_u64(payload);
        let roll = rng.gen_range(10);
        if scheduled >= total_events {
            continue;
        }
        if roll == 0 {
            let at = q.now() + Dur::from_ps(1_000 + rng.gen_range(100_000));
            for _ in 0..(total_events - scheduled).min(4) {
                q.schedule_at(at, scheduled);
                scheduled += 1;
            }
        } else if roll <= 2 {
            let at = q.now() + Dur::from_ps(1 + rng.gen_range(500_000));
            let id = q.schedule_at(at, scheduled);
            scheduled += 1;
            if let Some(old) = pending_cancel.replace(id) {
                q.cancel(old);
            }
        } else {
            let at = q.now() + Dur::from_ps(1 + rng.gen_range(1_000_000));
            q.schedule_at(at, scheduled);
            scheduled += 1;
        }
    }
    h.finish()
}

/// Outcome of racing the timing wheel against the reference heap.
#[derive(Clone, Copy, Debug)]
pub struct QueueRace {
    /// Events popped by each queue (identical by construction).
    pub events: u64,
    /// Wheel throughput, pops per host second (median replay).
    pub wheel_events_per_sec: f64,
    /// Reference-heap throughput, pops per host second (median replay).
    pub ref_events_per_sec: f64,
    /// `wheel_events_per_sec / ref_events_per_sec`.
    pub speedup: f64,
    /// FNV-1a checksum of the popped stream (equal across both queues —
    /// asserted before this struct is built).
    pub checksum: u64,
}

/// Timed replays per queue in [`queue_race`]; the race compares medians.
const RACE_REPS: usize = 5;

/// Replays the race workload through a fresh `Q`; returns
/// `(events popped, checksum, host seconds)`.
fn timed_race<Q: RaceQueue>(mut q: Q, total_events: u64) -> (u64, u64, f64) {
    let t = Instant::now();
    let sum = replay_race_workload(&mut q, total_events);
    let wall = t.elapsed().as_secs_f64().max(1e-12);
    (q.executed(), sum, wall)
}

/// Median of a small sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Races `tca_sim::EventQueue` (the timing wheel) against
/// [`RefQueue`] (the pre-rewrite heap) on the identical deterministic
/// workload and asserts their pop streams match exactly.
///
/// Each queue replays the workload [`RACE_REPS`] times, alternating with
/// the other so a slow patch of the host hits both, and the throughputs
/// compared are the medians — a single ~20 ms shot per queue was at the
/// mercy of host noise.
///
/// # Panics
/// Panics if the two queues disagree on the popped stream — the wheel
/// would no longer be a drop-in replacement for the heap.
pub fn queue_race(total_events: u64) -> QueueRace {
    let mut wheel_walls = Vec::with_capacity(RACE_REPS);
    let mut ref_walls = Vec::with_capacity(RACE_REPS);
    let (mut events, mut checksum) = (0, 0);
    for _ in 0..RACE_REPS {
        let (wheel_events, wheel_sum, wall) = timed_race(EventQueue::<u64>::new(), total_events);
        wheel_walls.push(wall);
        let (ref_events, ref_sum, wall) = timed_race(RefQueue::<u64>::new(), total_events);
        ref_walls.push(wall);
        assert_eq!(
            wheel_events, ref_events,
            "wheel and reference popped different event counts"
        );
        assert_eq!(
            wheel_sum, ref_sum,
            "wheel and reference pop streams diverged"
        );
        (events, checksum) = (wheel_events, wheel_sum);
    }
    let wheel_eps = events as f64 / median(wheel_walls);
    let ref_eps = events as f64 / median(ref_walls);
    QueueRace {
        events,
        wheel_events_per_sec: wheel_eps,
        ref_events_per_sec: ref_eps,
        speedup: wheel_eps / ref_eps.max(1e-12),
        checksum,
    }
}

/// The all-to-all scale point: one registry topology driven to
/// completion, with the host cost of doing so.
#[derive(Clone, Debug)]
pub struct TorusPoint {
    /// Simulated-side run counters (byte-reproducible).
    pub report: TopoRunReport,
    /// Host wall time of the run, ns.
    pub wall_ns: u64,
    /// Engine throughput over the run, events per host second.
    pub events_per_sec: f64,
}

/// Runs the all-to-all workload on registry topology `topo` under the
/// wall clock.
pub fn torus_point(topo: &str) -> TorusPoint {
    let spec = tca_core::presets::build_topology(topo)
        .unwrap_or_else(|| panic!("unknown topology {topo}"));
    let t = Instant::now();
    let report = topo_fabric::all_to_all(&spec);
    let wall = t.elapsed();
    TorusPoint {
        events_per_sec: report.events as f64 / wall.as_secs_f64().max(1e-12),
        wall_ns: wall.as_nanos() as u64,
        report,
    }
}

/// Times one strided traffic run over `spec` for the `topo-registry`
/// sweep's host-cost columns. Returns the run report plus
/// `(wall_ns, events_per_sec)`.
pub fn timed_topo_run(spec: &TopoSpec, max_dests: u32) -> (TopoRunReport, u64, f64) {
    let t = Instant::now();
    let report = topo_fabric::strided(spec, max_dests);
    let wall = t.elapsed();
    let eps = report.events as f64 / wall.as_secs_f64().max(1e-12);
    (report, wall.as_nanos() as u64, eps)
}

/// The engine-throughput regression report behind `BENCH_engine.json`.
#[derive(Clone, Debug)]
pub struct EngineBench {
    /// The full profile the metrics derive from.
    pub profile: EngineProfile,
    /// Simulated events executed in the steady phase.
    pub steady_events: u64,
    /// Host wall time of the steady phase, ns.
    pub steady_wall_ns: u64,
    /// Steady-state simulator throughput, events per host second.
    pub events_per_sec: f64,
    /// Mean host nanoseconds per simulated event.
    pub ns_per_event: f64,
    /// Heap allocations per event in the steady phase (0 when the
    /// counting allocator is not installed).
    pub allocs_per_event: f64,
    /// Peak pending-event depth over the steady-state fabric's lifetime.
    pub peak_pending: u64,
    /// True when the counting allocator produced non-zero counts, i.e.
    /// the allocation metrics are meaningful.
    pub alloc_counted: bool,
    /// Wheel-vs-reference-heap race on the deterministic workload.
    pub race: QueueRace,
    /// The all-to-all scale point on the workload's registry topology.
    pub torus: TorusPoint,
}

/// Runs the default engine workload and derives the throughput report.
pub fn engine_bench() -> EngineBench {
    engine_bench_with(EngineWorkload::default())
}

/// [`engine_bench`] with explicit workload parameters (tests use
/// [`EngineWorkload::smoke`]).
pub fn engine_bench_with(params: EngineWorkload) -> EngineBench {
    let race = queue_race(params.race_events);
    let torus = torus_point(&params.torus_topo);
    let profile = run_engine_profile(params);
    let steady = profile.steady().clone();
    let wall_s = (steady.wall_ns as f64 / 1e9).max(1e-12);
    let events = steady.events;
    let alloc_counted = profile.alloc.allocs > 0;
    EngineBench {
        steady_events: events,
        steady_wall_ns: steady.wall_ns,
        events_per_sec: events as f64 / wall_s,
        ns_per_event: if events == 0 {
            0.0
        } else {
            steady.wall_ns as f64 / events as f64
        },
        allocs_per_event: if events == 0 {
            0.0
        } else {
            steady.allocs as f64 / events as f64
        },
        peak_pending: profile.queue.peak_pending,
        alloc_counted,
        race,
        torus,
        profile,
    }
}

impl EngineBench {
    /// Serializes the report as `tca-bench-engine/v2` JSON. Schema-stable
    /// (fixed keys and ordering); the event/dispatch/TLP counters are
    /// byte-reproducible across runs, the wall-clock-derived values are
    /// not — unlike `BENCH_fabric.json`, which is simulated-time-only and
    /// fully byte-identical.
    pub fn to_json(&self) -> String {
        let p = &self.profile;
        let mut w = JsonValue::object();
        w.push("nodes", JsonValue::from(u64::from(p.params.nodes)));
        w.push(
            "warmup_rounds",
            JsonValue::from(u64::from(p.params.warmup_rounds)),
        );
        w.push(
            "steady_rounds",
            JsonValue::from(u64::from(p.params.steady_rounds)),
        );
        w.push("put_len", JsonValue::from(p.params.put_len));
        w.push(
            "sweep_rings",
            JsonValue::Array(
                p.params
                    .sweep_rings
                    .iter()
                    .map(|&r| JsonValue::from(u64::from(r)))
                    .collect(),
            ),
        );
        w.push(
            "sweep_puts_per_ring",
            JsonValue::from(u64::from(p.params.sweep_puts_per_ring)),
        );
        w.push("race_events", JsonValue::from(p.params.race_events));
        w.push("torus_topo", JsonValue::from(p.params.torus_topo.as_str()));
        let mut s = JsonValue::object();
        s.push("events", JsonValue::from(self.steady_events));
        s.push("wall_ns", JsonValue::from(self.steady_wall_ns));
        s.push("events_per_sec", JsonValue::from(self.events_per_sec));
        s.push("ns_per_event", JsonValue::from(self.ns_per_event));
        s.push("allocs_per_event", JsonValue::from(self.allocs_per_event));
        s.push("peak_pending", JsonValue::from(self.peak_pending));
        s.push("alloc_counted", JsonValue::from(self.alloc_counted));
        let mut r = JsonValue::object();
        r.push("events", JsonValue::from(self.race.events));
        r.push(
            "wheel_events_per_sec",
            JsonValue::from(self.race.wheel_events_per_sec),
        );
        r.push(
            "ref_events_per_sec",
            JsonValue::from(self.race.ref_events_per_sec),
        );
        r.push("speedup", JsonValue::from(self.race.speedup));
        r.push(
            "checksum",
            JsonValue::from(format!("{:016x}", self.race.checksum).as_str()),
        );
        let mut t = JsonValue::object();
        t.push("name", JsonValue::from(self.torus.report.name.as_str()));
        t.push("nodes", JsonValue::from(u64::from(self.torus.report.nodes)));
        t.push("messages", JsonValue::from(self.torus.report.messages));
        t.push("relay_hops", JsonValue::from(self.torus.report.relay_hops));
        t.push("events", JsonValue::from(self.torus.report.events));
        t.push("sim_ps", JsonValue::from(self.torus.report.sim_ps));
        t.push("wall_ns", JsonValue::from(self.torus.wall_ns));
        t.push("events_per_sec", JsonValue::from(self.torus.events_per_sec));
        let mut root = JsonValue::object();
        root.push("schema", JsonValue::from("tca-bench-engine/v2"));
        root.push("workload", w);
        root.push("steady", s);
        root.push("queue_race", r);
        root.push("torus", t);
        // The full profile rides along for dashboards, with the
        // per-event-kind split of the steady drains (`kinds`).
        root.push(
            "profile",
            JsonValue::parse(&p.to_json()).expect("own serialization parses"),
        );
        root.to_json()
    }

    /// Validates the throughput metrics against conservative drift
    /// bounds and returns the violations (empty = healthy).
    ///
    /// Wall-clock gates are deliberately loose — they catch order-of-
    /// magnitude regressions (an accidental O(n²) in the hot loop, a
    /// debug build sneaking into CI), not scheduler noise. The
    /// deterministic counters get tight bounds: allocation behaviour and
    /// heap depth of a fixed workload are reproducible per build.
    pub fn validate(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.steady_events == 0 {
            v.push("steady.events = 0: workload executed nothing".into());
        }
        if self.events_per_sec < 100_000.0 {
            v.push(format!(
                "steady.events_per_sec = {:.0} below the 100k floor \
                 (release-build simulator should clear millions)",
                self.events_per_sec
            ));
        }
        if self.ns_per_event > 10_000.0 {
            v.push(format!(
                "steady.ns_per_event = {:.0} above the 10µs ceiling",
                self.ns_per_event
            ));
        }
        // Payloads travel as views and copy once at their destination, so
        // the steady state allocates per transfer, not per TLP (~0.01). A
        // flight recorder allocates per event by design, so it is exempt.
        if self.alloc_counted && !self.profile.flight_recorded && self.allocs_per_event > 0.05 {
            v.push(format!(
                "steady.allocs_per_event = {:.4} above the 0.05 ceiling",
                self.allocs_per_event
            ));
        }
        if self.peak_pending == 0 || self.peak_pending > 100_000 {
            v.push(format!(
                "steady.peak_pending = {} outside (0, 100000]",
                self.peak_pending
            ));
        }
        if self.race.events == 0 {
            v.push("queue_race.events = 0: race replayed nothing".into());
        }
        if self.race.speedup < 2.0 {
            v.push(format!(
                "queue_race.speedup = {:.2} below the 2x floor \
                 (timing wheel must beat the reference heap decisively)",
                self.race.speedup
            ));
        }
        if self.torus.report.messages == 0 {
            v.push("torus.messages = 0: all-to-all point sent nothing".into());
        }
        if self.torus.events_per_sec < 100_000.0 {
            v.push(format!(
                "torus.events_per_sec = {:.0} below the 100k floor \
                 (256-node all-to-all must stay fast at scale)",
                self.torus.events_per_sec
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_profile_phases_and_schema() {
        let b = engine_bench_with(EngineWorkload::smoke());
        let names: Vec<&str> = b.profile.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["build", "warmup", "steady", "sweep"]);
        assert!(b.steady_events > 0);
        assert!(b
            .to_json()
            .starts_with("{\"schema\":\"tca-bench-engine/v2\""));
        assert!(b.to_json().contains("\"queue_race\":{"));
        assert!(b.to_json().contains("\"torus\":{\"name\":\"torus2d-4x4\""));
        assert!(b
            .profile
            .to_json()
            .starts_with("{\"schema\":\"tca-prof/v1\""));
    }

    #[test]
    fn engine_profile_counters_are_reproducible() {
        // The wall-clock numbers vary; every simulated-side counter must
        // replay exactly.
        let a = engine_bench_with(EngineWorkload::smoke());
        let b = engine_bench_with(EngineWorkload::smoke());
        assert_eq!(a.steady_events, b.steady_events);
        assert_eq!(a.profile.queue, b.profile.queue);
        assert_eq!(a.profile.dispatch, b.profile.dispatch);
        assert_eq!(a.peak_pending, b.peak_pending);
        assert_eq!(a.race.checksum, b.race.checksum);
        assert_eq!(a.race.events, b.race.events);
        assert_eq!(a.torus.report, b.torus.report);
        for (x, y) in a.profile.phases.iter().zip(&b.profile.phases) {
            assert_eq!(x.events, y.events, "phase {} event count", x.name);
        }
        for (x, y) in a.profile.kinds.iter().zip(&b.profile.kinds) {
            assert_eq!(x.events, y.events, "kind {} event count", x.kind);
        }
    }

    #[test]
    fn queue_race_streams_match_at_smoke_size() {
        let r = queue_race(5_000);
        assert!(r.events >= 4_000, "cancels only trim a fraction");
        assert!(r.wheel_events_per_sec > 0.0 && r.ref_events_per_sec > 0.0);
        // No speedup assertion here: debug-build timings are noise. The
        // release-built bench_engine binary gates speedup >= 2x in CI.
    }

    /// The ISSUE-mandated stress run: one million events through the
    /// timing wheel and the reference heap, identical pop streams,
    /// throughput printed for both. Run it with
    /// `cargo test --release -p tca-bench -- --ignored engine_stress`.
    #[test]
    #[ignore = "stress run; release-mode only, prints throughput"]
    fn engine_stress_1m_events_wheel_vs_reference() {
        let r = queue_race(1_000_000);
        println!(
            "engine_stress: {} events | wheel {:.2} M events/s | \
             reference heap {:.2} M events/s | speedup {:.2}x | checksum {:016x}",
            r.events,
            r.wheel_events_per_sec / 1e6,
            r.ref_events_per_sec / 1e6,
            r.speedup,
            r.checksum
        );
        // `events` counts *executed* pops: the race workload cancels
        // roughly 15% of its one million schedules, so ~850k land.
        assert!(
            r.events > 800_000,
            "stress run executed {} events",
            r.events
        );
    }

    #[test]
    fn dispatch_counts_match_queue_pops() {
        let b = engine_bench_with(EngineWorkload::smoke());
        let d = b.profile.dispatch;
        let q = b.profile.queue;
        assert_eq!(
            d.deliver_events + d.timer_events + d.credit_return_events,
            q.pops,
            "every pop dispatches exactly one kind"
        );
        assert!(d.tlp_transmits > 0);
        assert!(d.deliver_events > 0);
        assert!(d.credit_return_events > 0);
    }
}
