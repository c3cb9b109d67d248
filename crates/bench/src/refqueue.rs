//! The pre-timing-wheel event queue, preserved verbatim as a *reference
//! model*: a `BinaryHeap` ordered by `(time, seq)` with lazy-cancellation
//! tombstones and `HashSet` live-membership tracking, plus the race
//! workload both queues replay.
//!
//! `tca-sim`'s engine replaced this implementation with a hierarchical
//! timing wheel; this copy exists so the replacement stays honest forever:
//!
//! * the `engine` scenario's `queue race` point replays one deterministic
//!   workload (`replay_race_workload`) through both queues and pins the
//!   event count and checksum of the pop stream they must share;
//! * [`crate::prof::queue_race`] times the same replays and the
//!   release-only speed-floor test requires the wheel to be ≥ 2× faster;
//! * the ignored-by-default `engine_stress` test does the same at
//!   1M events.
//!
//! Pure simulated-time code — no wall clock in here (the race timing lives
//! in [`crate::prof`], the one module the determinism lint allowlists).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use tca_sim::{Dur, EventQueue, Fnv64, SimRng, SimTime};

/// Identifier of an event scheduled on the [`RefQueue`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RefEventId(u64);

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest event.
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

/// The heap-with-tombstones queue the engine used before the timing-wheel
/// rewrite. Same semantics as `tca_sim::EventQueue`: strict `(time, seq)`
/// pop order, FIFO same-instant tie-break, panic on scheduling into the
/// past, exact `cancel`/`is_pending` via live-set membership.
pub struct RefQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    cancelled: HashSet<u64>,
    live: HashSet<u64>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for RefQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> RefQueue<E> {
    /// Creates an empty queue at t = 0.
    pub fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            live: HashSet::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.popped
    }

    /// Number of live (not cancelled, not yet fired) events pending.
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// True while `id` is still pending.
    pub fn is_pending(&self, id: RefEventId) -> bool {
        self.live.contains(&id.0)
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time.
    #[track_caller]
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> RefEventId {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
        self.live.insert(seq);
        RefEventId(seq)
    }

    /// Schedules `payload` after a delay relative to now.
    #[track_caller]
    pub fn schedule_in(&mut self, delay: Dur, payload: E) -> RefEventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancels a pending event (lazily — the tombstone drains at pop time).
    pub fn cancel(&mut self, id: RefEventId) -> bool {
        if !self.live.remove(&id.0) {
            return false;
        }
        self.cancelled.insert(id.0)
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(ev) = self.heap.pop() {
            if self.cancelled.remove(&ev.seq) {
                continue;
            }
            self.live.remove(&ev.seq);
            debug_assert!(ev.at >= self.now, "event queue went backwards");
            self.now = ev.at;
            self.popped += 1;
            return Some((ev.at, ev.payload));
        }
        None
    }
}

/// Adapter over the two queue implementations the race compares, so one
/// deterministic workload replays through both.
pub(crate) trait RaceQueue {
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
    type Id = RefEventId;
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
pub(crate) fn replay_race_workload<Q: RaceQueue>(q: &mut Q, total_events: u64) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_queue_pops_in_time_then_fifo_order() {
        let mut q = RefQueue::new();
        q.schedule_at(SimTime::from_ps(30_000), 3u32);
        q.schedule_at(SimTime::from_ps(10_000), 1);
        q.schedule_at(SimTime::from_ps(10_000), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn reference_queue_cancel_is_exact() {
        let mut q = RefQueue::new();
        let a = q.schedule_in(Dur::from_ns(5), 'a');
        let b = q.schedule_in(Dur::from_ns(1), 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel");
        assert_eq!(q.pending(), 1);
        assert!(q.is_pending(b));
        assert_eq!(q.pop().map(|(_, p)| p), Some('b'));
        assert_eq!(q.pop(), None);
        assert_eq!(q.events_executed(), 1);
    }
}
