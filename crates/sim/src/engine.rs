//! Generic discrete-event engine.
//!
//! [`EventQueue`] is a deterministic scheduler of `(SimTime, E)` pairs with
//! a strict tie-break: events scheduled at the same instant pop in the
//! order they were scheduled. The engine is deliberately payload-agnostic;
//! the PCIe fabric layer defines the payload type and the dispatch loop.
//!
//! # Implementation: hierarchical timing wheel
//!
//! Events live in a slab (stable indices, generation-checked handles) and
//! are threaded onto intrusive doubly-linked lists hanging off a
//! hierarchical timing wheel — [`LEVELS`] levels of [`SLOTS`] slots, each
//! level covering a 256× longer horizon than the one below, over integer
//! picoseconds. Eight 8-bit levels cover all of `u64`, so there is no
//! far-future tier. An event is filed relative to the wheel `base` at the
//! level of the highest byte in which its time differs from `base`, in the
//! slot named by that byte. Level-0 slots each hold exactly one absolute
//! timestamp; higher levels hold coarser buckets.
//!
//! * `schedule_at` / `cancel` are O(1): a slab allocation plus a list
//!   append (or unlink) — no tombstones, no hashing, no re-heapification.
//! * The earliest bucket is the lowest set bit of a 32-bit occupancy
//!   summary (one bit per 64-slot bitmap word), then of that word.
//! * When that bucket is coarse (level > 0), one walk of its list finds
//!   its earliest `(at, seq)` and its length. With at most [`SCAN_MAX`]
//!   entries, that earliest entry is taken straight out of the list and
//!   `base` stays put. A denser bucket is *cascaded*: `base` jumps to the
//!   bucket's smallest time — the global minimum — and the bucket is
//!   re-filed, which lands that minimum in level 0 in one step rather
//!   than one level at a time. Sparse ns–µs traffic (PCIe TLP ticks,
//!   deliveries and credit returns tens of ns to a few µs apart) thus
//!   pops mostly in place, and a deep, dense queue stays O(1) amortized.
//!
//! A slot is two `u32` links, so the whole wheel is 16 KiB and a new
//! queue (one per fabric) stays cheap to build. A binary heap would be a
//! little cheaper on the shallow queues of DMA traffic, but it is 2–3×
//! slower on deep queues with cancels (the `bench_engine` queue race,
//! ~17 k pending), so the wheel stays.
//!
//! Determinism is preserved exactly (see DESIGN.md "Event model"):
//! sequence numbers are monotone, slot lists only ever append, and
//! cascades walk their source list head→tail, so every slot list is in
//! seq order and global pop order is lexicographic `(at, seq)` — the same
//! total order the previous binary-heap implementation produced, byte for
//! byte in every flight log.

use crate::prof::ProfCounters;
use crate::time::{Dur, SimTime};

/// Bits of the slot index at each wheel level (256 slots per level).
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; together they cover `2^(8*8) = 2^64` picoseconds.
const LEVELS: usize = 8;
/// A coarse bucket with at most this many entries is popped in place
/// (a linear scan for its minimum) instead of being cascaded.
const SCAN_MAX: usize = 4;
/// Null link in the intrusive slot lists.
const NIL: u32 = u32::MAX;
/// `Entry::level` marker: entry is on the free list.
const LVL_FREE: u8 = 0xFE;

/// Identifier of a scheduled event, usable for cancellation.
///
/// Encodes the slab index (low 32 bits) and the slot's generation (high 32
/// bits); a cancel with a stale generation — the event already fired or
/// was already cancelled and its slot reused — is detected exactly and
/// returns `false`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    fn encode(idx: u32, gen: u32) -> EventId {
        EventId((u64::from(gen) << 32) | u64::from(idx))
    }

    fn decode(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }
}

/// One slab slot: an event live in a wheel slot, or a free-list entry
/// awaiting reuse.
struct Entry<E> {
    at: u64,
    seq: u64,
    gen: u32,
    prev: u32,
    next: u32,
    /// Wheel level, or `LVL_FREE`.
    level: u8,
    slot: u8,
    payload: Option<E>,
}

/// Head/tail of one wheel slot's intrusive list.
#[derive(Clone, Copy)]
struct SlotList {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: SlotList = SlotList {
    head: NIL,
    tail: NIL,
};

/// A deterministic discrete-event queue (hierarchical timing wheel).
///
/// Invariants:
/// * time never moves backwards: popping advances `now` monotonically;
/// * scheduling in the past (before `now`) is a model bug and panics;
/// * same-instant events pop in scheduling order (FIFO tie-break).
pub struct EventQueue<E> {
    slab: Vec<Entry<E>>,
    free: Vec<u32>,
    wheel: Vec<SlotList>,
    /// Per-level slot-occupancy bitmaps (256 bits each).
    occ: [[u64; 4]; LEVELS],
    /// Bit `4 * level + word` is set while `occ[level][word] != 0`.
    summary: u32,
    /// Wheel origin in ps, at or before `now`. Moves only when a bucket
    /// is cascaded inside `pop`/`pop_run` (never in `peek_time` —
    /// scheduling between a peek and the pop it predicts must stay legal).
    base: u64,
    live: usize,
    now: SimTime,
    next_seq: u64,
    popped: u64,
    /// Host-side activity counters (`tca-prof` layer one). Pure integers
    /// bumped on the existing control paths; provably unable to perturb
    /// the event stream.
    prof: ProfCounters,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            wheel: vec![EMPTY_SLOT; LEVELS * SLOTS],
            occ: [[0; 4]; LEVELS],
            summary: 0,
            base: 0,
            live: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
            prof: ProfCounters::default(),
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.popped
    }

    /// Number of live events still pending. Cancelled events leave no
    /// residue, so this is exact (the old heap counted tombstones too).
    #[inline]
    pub fn pending(&self) -> usize {
        self.live
    }

    /// True while `id` is still pending (scheduled, not fired, not
    /// cancelled) — exact via the slot's generation check.
    #[inline]
    pub fn is_pending(&self, id: EventId) -> bool {
        let (idx, gen) = id.decode();
        self.slab
            .get(idx as usize)
            .is_some_and(|e| e.gen == gen && e.level != LVL_FREE)
    }

    /// Host-side activity counters accumulated since construction.
    #[inline]
    pub fn prof(&self) -> &ProfCounters {
        &self.prof
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time.
    #[track_caller]
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.slab[idx as usize];
                e.at = at.as_ps();
                e.seq = seq;
                e.payload = Some(payload);
                idx
            }
            None => {
                let idx = self.slab.len() as u32;
                assert!(idx != NIL, "event slab exhausted");
                self.slab.push(Entry {
                    at: at.as_ps(),
                    seq,
                    gen: 0,
                    prev: NIL,
                    next: NIL,
                    level: LVL_FREE,
                    slot: 0,
                    payload: Some(payload),
                });
                idx
            }
        };
        let gen = self.slab[idx as usize].gen;
        self.place(idx);
        self.live += 1;
        self.prof.pushes += 1;
        self.prof.peak_pending = self.prof.peak_pending.max(self.live as u64);
        EventId::encode(idx, gen)
    }

    /// Schedules `payload` after a delay relative to now.
    #[track_caller]
    pub fn schedule_in(&mut self, delay: Dur, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancels a previously scheduled event in O(1): the entry is unlinked
    /// from its wheel slot immediately — no tombstone is parked and
    /// nothing is drained later. Returns `true` only if the event was
    /// still pending; an event that already fired, was already cancelled,
    /// or was never scheduled returns `false` (the slab generation check
    /// makes this exact).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.is_pending(id) {
            return false;
        }
        let (idx, _) = id.decode();
        self.unlink(idx);
        self.release(idx);
        self.live -= 1;
        self.prof.cancels += 1;
        true
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, idx) = self.earliest()?;
        self.unlink(idx);
        let at = self.slab[idx as usize].at;
        self.advance_to(at);
        Some((self.now, self.take(idx)))
    }

    /// Pops the entire run of events sharing the earliest timestamp into
    /// `out` (in FIFO seq order), advancing the clock once. Returns the
    /// run's timestamp, or `None` when the queue is empty.
    ///
    /// Equivalent to calling [`EventQueue::pop`] until the head timestamp
    /// changes — a level-0 wheel slot holds exactly one absolute
    /// timestamp, so there the whole batch is one list detach; a small
    /// coarse bucket gives up every entry at its minimum time, in list
    /// (seq) order. Events the caller schedules *at the same timestamp*
    /// while dispatching the batch carry larger seqs and surface in a
    /// later run, exactly as they would have popped after the batch
    /// one-by-one.
    pub fn pop_run(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        let (level, first) = self.earliest()?;
        let at = self.slab[first as usize].at;
        self.advance_to(at);
        if level == 0 {
            let mut idx = self.detach_all(self.slab[first as usize].slot as usize);
            while idx != NIL {
                debug_assert_eq!(
                    self.slab[idx as usize].at, at,
                    "level-0 slot mixed timestamps"
                );
                let next = self.slab[idx as usize].next;
                out.push(self.take(idx));
                idx = next;
            }
        } else {
            // Entries before `first` in the list are all later than it.
            let mut idx = first;
            while idx != NIL {
                let e = &self.slab[idx as usize];
                let next = e.next;
                if e.at == at {
                    self.unlink(idx);
                    out.push(self.take(idx));
                }
                idx = next;
            }
        }
        Some(self.now)
    }

    /// Timestamp of the next event without popping it.
    ///
    /// Never advances the wheel base: `schedule_at(t)` for any
    /// `now <= t <= peek_time()` must remain legal between a peek and the
    /// pop it predicts (the `run_until` + `drive` pattern relies on it).
    pub fn peek_time(&self) -> Option<SimTime> {
        let (level, slot) = self.first_occupied()?;
        if level == 0 {
            // A level-0 slot holds exactly one timestamp: base's page
            // with the slot index as the low byte.
            let page = self.base & !u64::from(u8::MAX);
            return Some(SimTime::from_ps(page | slot as u64));
        }
        // Coarser buckets mix timestamps; scan the list.
        let (_, min, _) = self.scan_bucket(level * SLOTS + slot);
        Some(SimTime::from_ps(min))
    }

    /// True when no events remain.
    pub fn is_idle(&self) -> bool {
        self.live == 0
    }

    // -- wheel internals ----------------------------------------------------

    /// Files entry `idx` into the wheel slot its time maps to relative to
    /// the current base — the level of the highest byte in which the two
    /// differ, the slot named by that byte — appending at the tail so
    /// every slot list stays in ascending-seq order.
    #[inline]
    fn place(&mut self, idx: u32) {
        let at = self.slab[idx as usize].at;
        // `| 1` maps `at == base` to level 0 without a branch.
        let level = ((63 - ((at ^ self.base) | 1).leading_zeros()) / SLOT_BITS) as usize;
        let slot = (at >> (SLOT_BITS * level as u32)) as u8;
        let cell = level * SLOTS + usize::from(slot);
        let tail = self.wheel[cell].tail;
        {
            let e = &mut self.slab[idx as usize];
            e.level = level as u8;
            e.slot = slot;
            e.prev = tail;
            e.next = NIL;
        }
        if tail == NIL {
            self.wheel[cell].head = idx;
        } else {
            self.slab[tail as usize].next = idx;
        }
        self.wheel[cell].tail = idx;
        let word = usize::from(slot >> 6);
        self.occ[level][word] |= 1u64 << (slot & 63);
        self.summary |= 1 << (4 * level + word);
    }

    /// Unlinks entry `idx` from its wheel slot list, clearing the
    /// occupancy bits when the slot empties.
    fn unlink(&mut self, idx: u32) {
        let (prev, next, level, slot) = {
            let e = &self.slab[idx as usize];
            (e.prev, e.next, e.level as usize, e.slot as usize)
        };
        let cell = level * SLOTS + slot;
        if prev == NIL {
            self.wheel[cell].head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next == NIL {
            self.wheel[cell].tail = prev;
        } else {
            self.slab[next as usize].prev = prev;
        }
        if self.wheel[cell].head == NIL {
            self.clear_occupied(level, slot);
        }
    }

    /// Marks `(level, slot)` empty in the bitmap and, if its word empties,
    /// in the summary.
    #[inline]
    fn clear_occupied(&mut self, level: usize, slot: usize) {
        let word = slot >> 6;
        self.occ[level][word] &= !(1u64 << (slot & 63));
        if self.occ[level][word] == 0 {
            self.summary &= !(1 << (4 * level + word));
        }
    }

    /// Detaches and returns the whole list of level-0 slot `slot`.
    fn detach_all(&mut self, slot: usize) -> u32 {
        let head = self.wheel[slot].head;
        self.wheel[slot] = EMPTY_SLOT;
        self.clear_occupied(0, slot);
        head
    }

    /// First occupied `(level, slot)`. By the wheel invariant the finest
    /// occupied level's lowest slot holds the earliest event.
    #[inline]
    fn first_occupied(&self) -> Option<(usize, usize)> {
        if self.summary == 0 {
            return None;
        }
        let bit = self.summary.trailing_zeros() as usize;
        let (level, word) = (bit / 4, bit % 4);
        Some((
            level,
            word * 64 + self.occ[level][word].trailing_zeros() as usize,
        ))
    }

    /// The earliest `(at, seq)` entry of the non-empty list in `cell`, its
    /// time, and the list's length. The list is in seq order, so the first
    /// entry at the minimum time wins ties.
    #[inline]
    fn scan_bucket(&self, cell: usize) -> (u32, u64, usize) {
        let mut idx = self.wheel[cell].head;
        let (mut best, mut min, mut len) = (NIL, u64::MAX, 0);
        while idx != NIL {
            let e = &self.slab[idx as usize];
            if best == NIL || e.at < min {
                (best, min) = (idx, e.at);
            }
            len += 1;
            idx = e.next;
        }
        (best, min, len)
    }

    /// The level holding the earliest `(at, seq)` entry and that entry's
    /// slab index, still linked; `None` when the queue is empty. A coarse
    /// bucket of at most [`SCAN_MAX`] entries is answered by its scan; a
    /// denser one is cascaded, after which its minimum is at level 0.
    fn earliest(&mut self) -> Option<(usize, u32)> {
        let (level, slot) = self.first_occupied()?;
        let cell = level * SLOTS + slot;
        if level == 0 {
            return Some((0, self.wheel[cell].head));
        }
        let (idx, min, len) = self.scan_bucket(cell);
        if len <= SCAN_MAX {
            return Some((level, idx));
        }
        self.cascade(level, slot, min);
        Some((0, self.wheel[min as u8 as usize].head))
    }

    /// Moves the base to `min`, bucket `(level, slot)`'s smallest time and
    /// so the global minimum, and re-files the bucket's events relative to
    /// it; the minimum lands in level 0. Walking the source list head→tail
    /// preserves ascending-seq order in every target slot — the
    /// cornerstone of the FIFO tie-break.
    fn cascade(&mut self, level: usize, slot: usize, min: u64) {
        let cell = level * SLOTS + slot;
        let mut idx = self.wheel[cell].head;
        self.wheel[cell] = EMPTY_SLOT;
        self.clear_occupied(level, slot);
        self.base = min;
        while idx != NIL {
            let next = self.slab[idx as usize].next;
            self.place(idx);
            self.prof.cascades += 1;
            idx = next;
        }
    }

    /// Advances the clock to `at`, the time of the entry being popped.
    #[inline]
    fn advance_to(&mut self, at: u64) {
        debug_assert!(at >= self.now.as_ps(), "event queue went backwards");
        self.now = SimTime::from_ps(at);
    }

    /// Takes the payload of the unlinked entry `idx`, frees the entry and
    /// counts the pop.
    #[inline]
    fn take(&mut self, idx: u32) -> E {
        let payload = self.slab[idx as usize]
            .payload
            .take()
            .expect("live entry has a payload");
        self.release(idx);
        self.live -= 1;
        self.popped += 1;
        self.prof.pops += 1;
        payload
    }

    /// Returns entry `idx` to the free list, bumping its generation so any
    /// outstanding [`EventId`] for it goes stale.
    fn release(&mut self, idx: u32) {
        let e = &mut self.slab[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        e.level = LVL_FREE;
        e.payload = None;
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(30), "c");
        q.schedule_at(SimTime::from_ps(10), "a");
        q.schedule_at(SimTime::from_ps(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_ps(30));
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_ps(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(100), 1);
        q.pop();
        q.schedule_in(Dur::from_ps(50), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ps(150));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn cannot_schedule_into_past() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(100), 1);
        q.pop();
        q.schedule_at(SimTime::from_ps(50), 2);
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ps(10), "a");
        q.schedule_at(SimTime::from_ps(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(EventId(999)), "unknown id");
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_ps(20), "b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_of_fired_event_returns_false_and_leaks_nothing() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ps(10), "a");
        let b = q.schedule_at(SimTime::from_ps(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        // `a` has already fired: its slab slot's generation moved on, so
        // cancelling it must fail — even after the slot is reused.
        assert!(!q.cancel(a), "cancel of fired event must return false");
        assert!(!q.cancel(a), "repeated cancel of fired event");
        assert!(q.cancel(b), "b is still pending");
        assert!(!q.cancel(b), "double-cancel of same pending event");
        assert!(q.pop().is_none());
        // Cancel-heavy model: fire-then-cancel in a loop must not grow
        // anything (the old heap accumulated a tombstone per iteration).
        for i in 0..1000u64 {
            let id = q.schedule_at(SimTime::from_ps(100 + i), "x");
            assert!(q.pop().is_some());
            assert!(!q.cancel(id));
        }
        assert_eq!(q.pending(), 0, "no residue may leak");
        assert!(q.slab.len() <= 2, "slab slots are reused, not leaked");
    }

    #[test]
    fn stale_id_on_reused_slot_is_rejected() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ps(10), 0);
        q.pop();
        // The new event reuses a's slab slot with a bumped generation.
        let b = q.schedule_at(SimTime::from_ps(20), 1);
        assert!(!q.cancel(a), "stale generation must not cancel the tenant");
        assert!(q.is_pending(b));
        assert!(!q.is_pending(a));
        assert!(q.cancel(b));
    }

    #[test]
    fn peek_skips_cancelled_events() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ps(10), "a");
        q.schedule_at(SimTime::from_ps(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(20)));
        assert!(!q.is_idle());
        q.pop();
        assert!(q.is_idle());
    }

    #[test]
    fn peek_does_not_advance_the_wheel() {
        // Scheduling between a peek and its pop, at a time at or before
        // the peeked one, must stay legal and pop first — the `run_until`
        // + `drive` pattern depends on it.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(100_000), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(100_000)));
        q.schedule_at(SimTime::from_ps(7), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(7)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
    }

    #[test]
    fn counts_executed_events() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule_at(SimTime::from_ps(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.events_executed(), 10);
    }

    #[test]
    fn prof_counters_track_queue_activity() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ps(10), "a");
        let b = q.schedule_at(SimTime::from_ps(20), "b");
        q.schedule_at(SimTime::from_ps(30), "c");
        assert_eq!(q.prof().pushes, 3);
        assert_eq!(q.prof().peak_pending, 3);
        assert!(q.cancel(a));
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel must not count twice");
        assert_eq!(q.prof().cancels, 2);
        // Cancellation is eager: popping goes straight to "c".
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.prof().pops, 1, "only executed events count as pops");
        assert!(q.pop().is_none());
        let p = *q.prof();
        assert_eq!((p.pushes, p.pops, p.cancels, p.peak_pending), (3, 1, 2, 3));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        // A chain of events each scheduling a successor must execute exactly.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(1), 0u64);
        let mut seen = vec![];
        while let Some((_, n)) = q.pop() {
            seen.push(n);
            if n < 5 {
                q.schedule_in(Dur::from_ps(2), n + 1);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.now(), SimTime::from_ps(11));
    }

    #[test]
    fn cascades_preserve_order_across_slot_boundaries() {
        // Times straddling level boundaries (255/256 = level 0→1 edge,
        // 65535/65536 = level 1→2 edge) plus same-time pairs scheduled
        // out of order: pop order must be (time, schedule-order) exactly.
        // Level-1 slot 1 (256..=511) gets more than SCAN_MAX entries, so
        // it cascades instead of being popped in place.
        let mut q = EventQueue::new();
        let times = [
            65_536u64, 256, 255, 65_535, 257, 256, 1, 0, 65_536, 16_777_216, 255, 300, 299, 300,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ps(t), (t, i));
        }
        let mut sorted: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        sorted.sort_by_key(|&(t, i)| (t, i));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, sorted);
        assert!(q.prof().cascades > 0, "the workload must exercise cascades");
    }

    #[test]
    fn far_future_events_return_in_order() {
        // Times past 2^56 ps (about 20 simulated hours) live in the top
        // wheel level like any other event.
        let mut q = EventQueue::new();
        let horizon = 1u64 << 56;
        let far_a = q.schedule_at(SimTime::from_ps(horizon + 50), "far_a");
        q.schedule_at(SimTime::from_ps(horizon + 50), "far_b");
        q.schedule_at(SimTime::from_ps(3 * horizon), "farther");
        q.schedule_at(SimTime::from_ps(40), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(40)));
        assert_eq!(q.pop().unwrap().1, "near");
        // Cancel far beyond 2^56.
        assert!(q.cancel(far_a));
        assert_eq!(q.pop().unwrap().1, "far_b");
        assert_eq!(q.now(), SimTime::from_ps(horizon + 50));
        // Scheduling relative to the jumped clock still works.
        q.schedule_in(Dur::from_ps(1), "after_jump");
        assert_eq!(q.pop().unwrap().1, "after_jump");
        assert_eq!(q.pop().unwrap().1, "farther");
        assert!(q.pop().is_none());
    }

    #[test]
    fn horizon_edge_events_pop_in_time_seq_order_and_survive_cancel() {
        // 2^56 is the edge between wheel levels 6 and 7. Straddling it —
        // horizon-1 in level 6, horizon and horizon+1 in level 7, plus
        // duplicates at the edge itself — must still pop in
        // (time, schedule-order), and cancels must land on either side.
        let mut q = EventQueue::new();
        let horizon = 1u64 << 56;
        let times = [
            horizon + 1,
            horizon - 1,
            horizon,
            horizon,
            horizon - 1,
            2 * horizon - 1,
            2 * horizon,
            1,
        ];
        let mut ids = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            ids.push(q.schedule_at(SimTime::from_ps(t), (t, i)));
        }
        // Cancel one event below the edge and one on it.
        assert!(q.cancel(ids[1]), "cancel below the 2^56 edge");
        assert!(q.cancel(ids[3]), "cancel at the 2^56 edge");
        assert!(!q.cancel(ids[3]), "double cancel must report false");
        let mut expect: Vec<(u64, usize)> = times
            .iter()
            .copied()
            .zip(0..)
            .filter(|&(_, i)| i != 1 && i != 3)
            .collect();
        expect.sort_by_key(|&(t, i)| (t, i));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, expect);
        assert_eq!(q.now(), SimTime::from_ps(2 * horizon));
    }

    #[test]
    fn exact_cascade_boundary_events_pop_in_time_seq_order() {
        // Times exactly on level boundaries (multiples of 256^k) are the
        // off-by-one hot spot of hierarchical wheels: an event at 256^k
        // lives in level k's first slot and must cascade down — not fire
        // early with its whole slot, nor be skipped. Schedule boundary^k
        // for every level up to 2^56, each with a (boundary - 1) and
        // (boundary + 1) neighbour, out of order, and mix in cancels. Three
        // more entries at boundary + 2 keep every boundary bucket above
        // SCAN_MAX after the cancels, so each one cascades rather than
        // popping in place.
        let mut q = EventQueue::new();
        let mut times = Vec::new();
        for k in 1..LEVELS {
            let boundary = 1u64 << (SLOT_BITS as usize * k);
            times.extend([
                boundary + 1,
                boundary - 1,
                boundary,
                boundary,
                boundary + 2,
                boundary + 2,
                boundary + 2,
            ]);
        }
        let mut ids = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            ids.push(q.schedule_at(SimTime::from_ps(t), (t, i)));
        }
        // Cancel one duplicate on every boundary: survivors must keep
        // their original schedule order, not renumber.
        let mut cancelled = Vec::new();
        for (i, _) in times.iter().enumerate() {
            if i % 7 == 3 {
                assert!(q.cancel(ids[i]));
                cancelled.push(i);
            }
        }
        let mut expect: Vec<(u64, usize)> = times
            .iter()
            .copied()
            .zip(0..)
            .filter(|&(_, i)| !cancelled.contains(&i))
            .collect();
        expect.sort_by_key(|&(t, i)| (t, i));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, expect);
        assert!(q.prof().cascades > 0, "boundary times must cascade");
    }

    #[test]
    fn pop_run_batches_exactly_one_timestamp() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(10), 0);
        q.schedule_at(SimTime::from_ps(10), 1);
        q.schedule_at(SimTime::from_ps(10), 2);
        q.schedule_at(SimTime::from_ps(20), 3);
        let mut batch = Vec::new();
        assert_eq!(q.pop_run(&mut batch), Some(SimTime::from_ps(10)));
        assert_eq!(batch, [0, 1, 2], "whole run, FIFO order, nothing more");
        // Same-time events scheduled mid-batch surface in the next run.
        q.schedule_at(SimTime::from_ps(20), 4);
        batch.clear();
        assert_eq!(q.pop_run(&mut batch), Some(SimTime::from_ps(20)));
        assert_eq!(batch, [3, 4]);
        batch.clear();
        assert_eq!(q.pop_run(&mut batch), None);
        assert_eq!(q.events_executed(), 5);
        assert_eq!(q.prof().pops, 5, "batched pops count per event");
    }

    #[test]
    fn pop_run_matches_pop_on_a_mixed_workload() {
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..200u64 {
                // Deliberate collisions: only 37 distinct timestamps.
                q.schedule_at(SimTime::from_ps((i * 7) % 37 * 1000), i);
            }
            q
        };
        let mut a = build();
        let mut via_pop = Vec::new();
        while let Some((t, e)) = a.pop() {
            via_pop.push((t, e));
        }
        let mut b = build();
        let mut via_run = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = b.pop_run(&mut batch) {
            via_run.extend(batch.drain(..).map(|e| (t, e)));
        }
        assert_eq!(via_pop, via_run);
    }

    #[test]
    fn small_coarse_buckets_pop_in_place_without_cascading() {
        // 900 and 1000 ps share level-1 slot 3; 70 000 ps is a lone
        // level-2 entry. Neither bucket exceeds SCAN_MAX, so every pop is
        // a scan of the bucket and the base never moves.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(1_000), "c");
        q.schedule_at(SimTime::from_ps(900), "a");
        q.schedule_at(SimTime::from_ps(70_000), "lone");
        q.schedule_at(SimTime::from_ps(900), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(900)));
        assert_eq!(q.pop(), Some((SimTime::from_ps(900), "a")));
        // Scheduled inside the bucket being scanned, after its minimum.
        q.schedule_at(SimTime::from_ps(950), "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["b", "d", "c", "lone"]);
        assert_eq!(q.prof().cascades, 0, "sparse buckets must not cascade");
        assert_eq!(q.base, 0);
    }

    #[test]
    fn pop_run_drains_a_small_coarse_bucket_by_timestamp() {
        let mut q = EventQueue::new();
        for (i, t) in [900u64, 1_000, 900, 950].into_iter().enumerate() {
            q.schedule_at(SimTime::from_ps(t), i);
        }
        let mut batch = Vec::new();
        assert_eq!(q.pop_run(&mut batch), Some(SimTime::from_ps(900)));
        assert_eq!(batch, [0, 2], "only the minimum time, in seq order");
        // Same-time arrivals scheduled after the batch come next run.
        q.schedule_at(SimTime::from_ps(950), 4);
        batch.clear();
        assert_eq!(q.pop_run(&mut batch), Some(SimTime::from_ps(950)));
        assert_eq!(batch, [3, 4]);
        batch.clear();
        assert_eq!(q.pop_run(&mut batch), Some(SimTime::from_ps(1_000)));
        assert_eq!(batch, [1]);
        assert_eq!(q.prof().cascades, 0);
    }

    #[test]
    fn dense_coarse_bucket_cascades_straight_to_its_minimum() {
        // Six entries in level-1 slot 3 exceed SCAN_MAX: one cascade
        // moves the base to their minimum, which lands in level 0, so
        // each entry is re-filed once rather than level by level.
        let mut q = EventQueue::new();
        for (i, t) in [1_000u64, 990, 900, 1_020, 900, 960]
            .into_iter()
            .enumerate()
        {
            q.schedule_at(SimTime::from_ps(t), i);
        }
        assert_eq!(q.pop(), Some((SimTime::from_ps(900), 2)));
        assert_eq!(q.base, 900);
        assert_eq!(q.prof().cascades, 6);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, [4, 5, 1, 0, 3]);
    }

    #[test]
    fn times_at_the_top_of_u64_pop_in_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(u64::MAX), "max_a");
        q.schedule_at(SimTime::from_ps(u64::MAX - 1), "max-1");
        q.schedule_at(SimTime::from_ps(u64::MAX), "max_b");
        q.schedule_at(SimTime::from_ps(5), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(u64::MAX - 1)));
        assert_eq!(q.pop().unwrap().1, "max-1");
        let mut batch = Vec::new();
        assert_eq!(q.pop_run(&mut batch), Some(SimTime::from_ps(u64::MAX)));
        assert_eq!(batch, ["max_a", "max_b"]);
        assert!(q.is_idle());
    }

    // The determinism contract, checked against a naive reference model:
    // under any schedule/cancel/pop interleaving, pop order must equal a
    // sorted-Vec model ordered by (time, schedule seq), `is_pending` must
    // match exact membership, and `pending()` must track the live count.
    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Naive reference: a Vec kept sorted by `(at, seq)`.
        #[derive(Default)]
        struct RefModel {
            events: Vec<(u64, u64, u32)>, // (at, seq, payload)
            now: u64,
            next_seq: u64,
        }

        impl RefModel {
            fn schedule(&mut self, at: u64, payload: u32) -> u64 {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.events.push((at, seq, payload));
                self.events.sort_unstable_by_key(|&(a, s, _)| (a, s));
                seq
            }

            fn cancel(&mut self, seq: u64) -> bool {
                match self.events.iter().position(|&(_, s, _)| s == seq) {
                    Some(i) => {
                        self.events.remove(i);
                        true
                    }
                    None => false,
                }
            }

            fn pop(&mut self) -> Option<(u64, u32)> {
                if self.events.is_empty() {
                    return None;
                }
                let (at, _, payload) = self.events.remove(0);
                self.now = at;
                Some((at, payload))
            }
        }

        /// Schedules `arg` at `at` in both the wheel and the model.
        fn schedule(
            q: &mut EventQueue<u32>,
            model: &mut RefModel,
            ids: &mut Vec<(u64, EventId)>,
            at: u64,
            arg: u32,
        ) {
            let seq = model.schedule(at, arg);
            ids.push((seq, q.schedule_at(SimTime::from_ps(at), arg)));
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: 128,
                .. ProptestConfig::default()
            })]

            #[test]
            fn wheel_matches_sorted_vec_reference(
                ops in proptest::collection::vec(any::<u64>(), 1..300),
            ) {
                let mut q = EventQueue::new();
                let mut model = RefModel::default();
                // seq -> (wheel id, cancelled-or-fired) mirror.
                let mut ids: Vec<(u64, EventId)> = Vec::new();
                for word in ops {
                    let (op, arg) = ((word & 0xFF) as u8, (word >> 8) as u32);
                    let now = model.now;
                    match op % 9 {
                        // Near future: exercises level 0/1 and cascades.
                        0 => {
                            let at = now.saturating_add(u64::from(arg % 4096));
                            schedule(&mut q, &mut model, &mut ids, at, arg);
                        }
                        // Far future: exercises the high levels.
                        1 => {
                            let far = u64::from(arg % 64) << (8 * u32::from(arg as u8 % 8));
                            schedule(&mut q, &mut model, &mut ids, now.saturating_add(far), arg);
                        }
                        // Edge times: exactly on a level boundary
                        // (now + m * 256^k) or hugging it by one, for every
                        // level up to and including 2^56 — the off-by-one
                        // hot spots of hierarchical wheels.
                        2 => {
                            let k = 1 + usize::from(arg as u8 % (LEVELS as u8 - 1));
                            let m = u64::from((arg >> 8) % 3) + 1;
                            let nudge = [0u64, 1, u64::MAX][(arg >> 4) as usize % 3];
                            let at = now.saturating_add(m << (8 * k)).wrapping_add(nudge);
                            schedule(&mut q, &mut model, &mut ids, at.max(now), arg);
                        }
                        3 if !ids.is_empty() => {
                            let (seq, id) = ids[arg as usize % ids.len()];
                            prop_assert_eq!(
                                q.cancel(id),
                                model.cancel(seq),
                                "cancel result diverged from the model"
                            );
                        }
                        // A cluster in one coarse bucket: a lone entry, a
                        // few (popped in place), or more than SCAN_MAX
                        // (cascaded); step 0 puts them all at one time.
                        5 => {
                            let n = 1 + arg % 8;
                            let first = now.saturating_add(256 + u64::from((arg >> 3) % 65_536));
                            let step = u64::from((arg >> 19) % 3);
                            for j in 0..u64::from(n) {
                                let at = first.saturating_add(j * step);
                                schedule(&mut q, &mut model, &mut ids, at, arg);
                            }
                        }
                        // `pop_run` drains exactly the earliest timestamp,
                        // whether it sits in level 0 or a coarse bucket.
                        6 => {
                            let mut batch = Vec::new();
                            let got = q.pop_run(&mut batch).map(SimTime::as_ps);
                            let want_at = model.events.first().map(|e| e.0);
                            let mut want = Vec::new();
                            while model.events.first().map(|e| e.0) == want_at && want_at.is_some() {
                                want.push(model.pop().expect("non-empty").1);
                            }
                            prop_assert_eq!(got, want_at, "pop_run time diverged");
                            prop_assert_eq!(batch, want, "pop_run batch diverged");
                        }
                        // Schedule between a peek and the pop it predicts,
                        // at or before the peeked time — usually inside the
                        // very bucket the peek scanned.
                        7 => {
                            let peeked = q.peek_time().map(SimTime::as_ps);
                            prop_assert_eq!(peeked, model.events.first().map(|e| e.0));
                            if let Some(t) = peeked {
                                let back = u64::from(arg) % (t - now).saturating_add(1);
                                schedule(&mut q, &mut model, &mut ids, t - back, arg);
                            }
                            let got = q.pop();
                            prop_assert_eq!(got.map(|(t, e)| (t.as_ps(), e)), model.pop());
                        }
                        // Times at the very top of u64: the top wheel level.
                        8 => {
                            let at = (u64::MAX - u64::from(arg % 512)).max(now);
                            schedule(&mut q, &mut model, &mut ids, at, arg);
                        }
                        _ => {
                            let got = q.pop();
                            let want = model.pop();
                            prop_assert_eq!(
                                got.map(|(t, e)| (t.as_ps(), e)),
                                want,
                                "pop diverged from the model"
                            );
                        }
                    }
                    prop_assert_eq!(q.pending(), model.events.len());
                    for (seq, id) in &ids {
                        prop_assert_eq!(
                            q.is_pending(*id),
                            model.events.iter().any(|&(_, s, _)| s == *seq),
                            "id membership diverged from the model"
                        );
                    }
                }
                // Drain both to the end: identical tails.
                loop {
                    let got = q.pop();
                    let want = model.pop();
                    prop_assert_eq!(got.map(|(t, e)| (t.as_ps(), e)), want);
                    if want.is_none() {
                        break;
                    }
                }
                prop_assert_eq!(q.pending(), 0);
                // Counter cross-check: every scheduled event either fired
                // or was cancelled — nothing else exists.
                let p = *q.prof();
                prop_assert_eq!(p.pushes, ids.len() as u64);
                prop_assert_eq!(p.pops + p.cancels, p.pushes);
            }
        }
    }
}
