//! Generic discrete-event engine.
//!
//! [`EventQueue`] is a deterministic scheduler of `(SimTime, E)` pairs with
//! a strict tie-break: events scheduled at the same instant pop in the
//! order they were scheduled. The engine is deliberately payload-agnostic;
//! the PCIe fabric layer defines the payload type and the dispatch loop.
//!
//! # Implementation: a sorted near tier in front of a timing wheel
//!
//! Events live in a slab (stable indices, generation-checked handles).
//! Each pending event sits in one of two tiers, split at a time `bound`:
//! every pending event earlier than `bound` is in the **near tier**, every
//! other one is in the **wheel**. `bound` is +∞ while the wheel is empty
//! (not `u64::MAX`, which is a legal event time).
//!
//! * The near tier is a `Vec` of `(at, slab index)` sorted by descending
//!   `(at, seq)`, so the next event is its last element and a pop is a
//!   `Vec::pop`. A schedule before `bound` is a binary-search insert: its
//!   seq is the largest yet, so it goes after every entry at or before its
//!   time. The tier holds at most `NEAR_CAP` (256) entries. When an insert
//!   overflows it, the whole latest-timestamp group moves to the wheel in
//!   seq order and `bound` drops to that time, so a same-time run is never
//!   split between the tiers. When a pop finds the tier empty, the queue
//!   is either deeper than the cap, and the pop is served straight from
//!   the wheel, or the whole wheel fits: it moves into the tier and
//!   `bound` goes back to +∞. Cancelling a near entry is a linear scan and
//!   a `Vec::remove`, O(`NEAR_CAP`).
//! * The wheel has `LEVELS` (8) levels of `SLOTS` (256) slots, each level
//!   covering a 256× longer horizon than the one below, over integer
//!   picoseconds. Eight 8-bit levels cover all of `u64`, so there is no
//!   far-future tier. An event is filed relative to the wheel `base` at
//!   the level of the highest byte in which its time differs from `base`,
//!   in the slot named by that byte, on an intrusive doubly-linked list.
//!   Level-0 slots each hold exactly one absolute timestamp; higher levels
//!   hold coarser buckets. Schedule and cancel are O(1) list operations.
//!   The earliest bucket is the lowest set bit of a 32-bit occupancy
//!   summary (one bit per 64-slot bitmap word), then of that word. A
//!   coarse bucket of at most `SCAN_MAX` (4) entries gives up its earliest
//!   `(at, seq)` in place; a denser one is *cascaded*: `base` jumps to its
//!   smallest time and the bucket is re-filed, which lands that minimum in
//!   level 0 in one step.
//!
//! The shallow queues of DMA traffic (a few dozen events, ns to µs apart)
//! therefore never leave the near tier, while a queue deeper than the cap
//! (the `engine` scenario's queue race, a 256-node all-to-all) runs on the
//! wheel alone, as it did before the near tier existed, until it drains
//! back below the cap. Refilling the tier a cap's worth of groups at a
//! time instead was measured and dropped: on deep queues every event then
//! passed through both tiers, and the queue race lost a fifth of its lead
//! over the reference heap (EXPERIMENTS.md, "A sorted near tier").
//! A slot is two `u32` links, so the whole wheel is 16 KiB, and the near
//! tier starts empty: a new queue (one per fabric) stays cheap to build.
//!
//! Determinism is preserved exactly (see DESIGN.md "Event model"):
//! sequence numbers are monotone, a timestamp's events are all in one tier
//! and, in the wheel, all in one slot list in seq order (lists only
//! append, cascades walk them head to tail, and groups move between the
//! tiers whole, in seq order). Global pop order is therefore
//! lexicographic `(at, seq)` — the same total order the original
//! binary-heap implementation produced, byte for byte in every flight log.
//!
//! # Events kept outside the queue
//!
//! An owner whose events already arrive in time order can keep them in
//! FIFOs of its own instead (the PCIe fabric does so for its deliveries and
//! credit returns). Each such event takes its seq from
//! [`EventQueue::take_seq`] when it is made, exactly as `schedule_at`
//! would have given it; the owner then dispatches the smaller `(at, seq)`
//! of its earliest FIFO head and the queue head, by offering that FIFO
//! head to [`EventQueue::pop_before`] and, when the queue declines,
//! popping the FIFO and calling [`EventQueue::advance_to`]. The merged
//! order is the same `(at, seq)` order, and the counters, `pending()` and
//! `events_executed()` count outside events as if they had been queued.

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
/// Most entries the near tier holds (see the module docs).
const NEAR_CAP: usize = 256;
/// Null link in the intrusive slot lists.
const NIL: u32 = u32::MAX;
/// `Entry::level` marker: entry is on the free list.
const LVL_FREE: u8 = 0xFE;
/// `Entry::level` marker: entry is pending in the near tier.
const LVL_NEAR: u8 = 0xFD;

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

/// One slab slot: an event pending in the near tier or a wheel slot, or a
/// free-list entry awaiting reuse.
struct Entry<E> {
    at: u64,
    seq: u64,
    gen: u32,
    prev: u32,
    next: u32,
    /// Wheel level, `LVL_NEAR` or `LVL_FREE`.
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

/// A deterministic discrete-event queue (a sorted near tier in front of a
/// hierarchical timing wheel).
///
/// Invariants:
/// * time never moves backwards: popping advances `now` monotonically;
/// * scheduling in the past (before `now`) is a model bug and panics;
/// * same-instant events pop in scheduling order (FIFO tie-break).
pub struct EventQueue<E> {
    slab: Vec<Entry<E>>,
    free: Vec<u32>,
    /// Near tier: `(at, slab index)` by descending `(at, seq)`, at most
    /// [`NEAR_CAP`] long.
    near: Vec<(u64, u32)>,
    /// Every pending event earlier than `bound` is in `near`, every other
    /// one in the wheel; `None` is +∞.
    bound: Option<u64>,
    wheel: Vec<SlotList>,
    /// Per-level slot-occupancy bitmaps (256 bits each).
    occ: [[u64; 4]; LEVELS],
    /// Bit `4 * level + word` is set while `occ[level][word] != 0`.
    summary: u32,
    /// Wheel origin in ps, at or before `now`. Moves only inside
    /// `pop_before`: a cascade jumps it to a bucket's minimum, which pops
    /// at once (a head that does not pop is never cascaded), and a
    /// refill that empties the wheel drops it to `now` (never in
    /// `peek_time` — scheduling between a peek and the pop it predicts
    /// must stay legal).
    base: u64,
    live: usize,
    /// Events kept outside the queue (see [`EventQueue::take_seq`]) that
    /// have not yet been popped with [`EventQueue::advance_to`].
    outside: usize,
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
            near: Vec::new(),
            bound: None,
            wheel: vec![EMPTY_SLOT; LEVELS * SLOTS],
            occ: [[0; 4]; LEVELS],
            summary: 0,
            base: 0,
            live: 0,
            outside: 0,
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

    /// Number of live events still pending, those kept outside the queue
    /// included. Cancelled events leave no residue, so this is exact (the
    /// old heap counted tombstones too).
    #[inline]
    pub fn pending(&self) -> usize {
        self.live + self.outside
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
        let at = at.as_ps();
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.slab[idx as usize];
                e.at = at;
                e.seq = seq;
                e.payload = Some(payload);
                idx
            }
            None => {
                let idx = self.slab.len() as u32;
                assert!(idx != NIL, "event slab exhausted");
                self.slab.push(Entry {
                    at,
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
        if self.bound.is_none_or(|b| at < b) {
            // Every entry at or before `at` has a smaller seq, so the new
            // one goes in front of them in descending order.
            let pos = self.near.partition_point(|&(t, _)| t > at);
            self.near.insert(pos, (at, idx));
            self.slab[idx as usize].level = LVL_NEAR;
            if self.near.len() > NEAR_CAP {
                self.demote_latest();
            }
            debug_assert!(self.near.len() <= NEAR_CAP, "near tier over its cap");
        } else {
            self.place(idx);
        }
        self.live += 1;
        self.prof.pushes += 1;
        self.prof.peak_pending = self.prof.peak_pending.max(self.pending() as u64);
        EventId::encode(idx, gen)
    }

    /// Schedules `payload` after a delay relative to now.
    #[track_caller]
    pub fn schedule_in(&mut self, delay: Dur, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancels a previously scheduled event: the entry is removed at once
    /// — no tombstone is parked and nothing is drained later. A wheel
    /// entry is unlinked from its slot in O(1); a near-tier entry is found
    /// and removed in O(`NEAR_CAP`). Returns `true` only if the event was
    /// still pending; an event that already fired, was already cancelled,
    /// or was never scheduled returns `false` (the slab generation check
    /// makes this exact).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.is_pending(id) {
            return false;
        }
        let (idx, _) = id.decode();
        if self.slab[idx as usize].level == LVL_NEAR {
            let pos = self
                .near
                .iter()
                .rposition(|&(_, i)| i == idx)
                .expect("a LVL_NEAR entry is in the near tier");
            self.near.remove(pos);
        } else {
            self.unlink(idx);
        }
        self.release(idx);
        self.live -= 1;
        self.prof.cancels += 1;
        true
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime::MAX, u64::MAX)
    }

    /// Reserves the next sequence number for an event kept outside the
    /// queue: in a FIFO of its owner's whose times never decrease, which
    /// the owner merges with the queue through [`EventQueue::pop_before`].
    /// The event counts as pushed and pending from here until
    /// [`EventQueue::advance_to`] pops it, so [`EventQueue::prof`],
    /// [`EventQueue::pending`] and [`EventQueue::events_executed`] count
    /// both kinds of event alike.
    #[inline]
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outside += 1;
        self.prof.pushes += 1;
        self.prof.peak_pending = self.prof.peak_pending.max(self.pending() as u64);
        seq
    }

    /// Pops the next queued event only if it precedes `(at, seq)` in
    /// `(time, seq)` order, advancing the clock to its timestamp; `None`
    /// when the queue is empty or its head comes later. `(at, seq)` is the
    /// head of an outside FIFO (see [`EventQueue::take_seq`]), so one call
    /// decides which of the two dispatches next. Unlike a peek followed by
    /// a pop, it finds the head once. A head it leaves in place may have
    /// moved between the tiers, but never behind `now`: scheduling at or
    /// after `at` stays legal.
    pub fn pop_before(&mut self, at: SimTime, seq: u64) -> Option<(SimTime, E)> {
        if self.live == 0 {
            return None;
        }
        let key = (at.as_ps(), seq);
        if self.near.is_empty() {
            if self.live > NEAR_CAP {
                // Too deep for the near tier: pop straight from the wheel.
                let idx = self.earliest_before(key)?;
                self.unlink(idx);
                return Some(self.pop_entry(idx));
            }
            self.refill();
        }
        let &(_, idx) = self.near.last().expect("live events fill the near tier");
        if self.key(idx) > key {
            return None;
        }
        self.near.pop();
        Some(self.pop_entry(idx))
    }

    /// Pops an event kept outside the queue (its seq came from
    /// [`EventQueue::take_seq`]), due at `at`: advances the clock to `at`
    /// and counts the pop.
    ///
    /// # Panics
    /// Panics if no outside event is pending or `at` is before now.
    #[track_caller]
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(self.outside > 0, "advance_to without an outside event");
        assert!(
            at >= self.now,
            "advance_to into the past: at={at:?} now={:?}",
            self.now
        );
        self.now = at;
        self.outside -= 1;
        self.popped += 1;
        self.prof.pops += 1;
    }

    /// Timestamp of the next event without popping it.
    ///
    /// Never advances the wheel base: `schedule_at(t)` for any
    /// `now <= t <= peek_time()` must remain legal between a peek and the
    /// pop it predicts (the `run_until` + `drive` pattern relies on it).
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(&(at, _)) = self.near.last() {
            return Some(SimTime::from_ps(at));
        }
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

    /// True when no events remain, those kept outside the queue included.
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    // -- tier internals -----------------------------------------------------

    /// Moves the near tier's latest-timestamp group to the wheel, in seq
    /// order, and lowers `bound` to its time. The wheel held only later
    /// times, so the group stays whole and its slot list stays in seq
    /// order.
    fn demote_latest(&mut self) {
        let at = self.near[0].0;
        debug_assert!(at >= self.base, "demoting behind the wheel base");
        let n = self.near.partition_point(|&(t, _)| t == at);
        for k in (0..n).rev() {
            self.place(self.near[k].1);
        }
        self.near.drain(..n);
        self.bound = Some(at);
    }

    /// Moves the whole wheel, in `(at, seq)` order, into the empty near
    /// tier, which it fits (at most [`NEAR_CAP`] events are pending), and
    /// lifts `bound` to +∞. The wheel is then empty, so `base` drops to
    /// `now`: every later filing, a schedule or a demoted group, is at or
    /// after `now`.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty() && self.live <= NEAR_CAP);
        while let Some(idx) = self.earliest_before((u64::MAX, u64::MAX)) {
            self.unlink(idx);
            let e = &mut self.slab[idx as usize];
            e.level = LVL_NEAR;
            self.near.push((e.at, idx));
        }
        // Pulled in ascending order; the tier is kept descending.
        self.near.reverse();
        self.bound = None;
        self.base = self.now.as_ps();
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

    /// The `(at, seq)` order key of entry `idx`.
    #[inline]
    fn key(&self, idx: u32) -> (u64, u64) {
        let e = &self.slab[idx as usize];
        (e.at, e.seq)
    }

    /// The slab index of the wheel's earliest `(at, seq)` entry, still
    /// linked, if it precedes `key`; `None` when the wheel is empty or its
    /// earliest entry comes later. A coarse bucket of at most [`SCAN_MAX`]
    /// entries is answered by its scan; a denser one is cascaded, after
    /// which its minimum heads a level-0 slot. The comparison comes first:
    /// a cascade moves `base` to the minimum, which must then pop.
    fn earliest_before(&mut self, key: (u64, u64)) -> Option<u32> {
        let (level, slot) = self.first_occupied()?;
        let cell = level * SLOTS + slot;
        if level == 0 {
            let idx = self.wheel[cell].head;
            return (self.key(idx) < key).then_some(idx);
        }
        let (idx, min, len) = self.scan_bucket(cell);
        if self.key(idx) > key {
            return None;
        }
        if len > SCAN_MAX {
            self.cascade(level, slot, min);
        }
        Some(idx)
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

    /// Pops entry `idx`, already out of both tiers: advances the clock to
    /// its time, takes its payload, frees the entry and counts the pop.
    #[inline]
    fn pop_entry(&mut self, idx: u32) -> (SimTime, E) {
        let e = &mut self.slab[idx as usize];
        debug_assert!(e.at >= self.now.as_ps(), "event queue went backwards");
        self.now = SimTime::from_ps(e.at);
        let payload = e.payload.take().expect("live entry has a payload");
        self.release(idx);
        self.live -= 1;
        self.popped += 1;
        self.prof.pops += 1;
        (self.now, payload)
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

    /// Spills the near tier so that the events a test schedules next are
    /// filed in, and popped straight from, the wheel: `NEAR_CAP + 1`
    /// copies of `filler` at time 0 overflow the tier, which demotes the
    /// whole group and drops the bound to 0; as many more at `u64::MAX`
    /// keep the queue deeper than the tier until they pop. Returns the
    /// size of each group.
    fn spill_near_tier<E: Clone>(q: &mut EventQueue<E>, filler: E) -> usize {
        let n = NEAR_CAP + 1;
        for at in [SimTime::ZERO, SimTime::from_ps(u64::MAX)] {
            for _ in 0..n {
                q.schedule_at(at, filler.clone());
            }
        }
        assert_eq!((q.near.len(), q.bound), (0, Some(0)), "fillers must spill");
        n
    }

    /// Pops `n` fillers at time 0, then `m` events, which it returns.
    fn pop_past_fillers<E: Clone + PartialEq + std::fmt::Debug>(
        q: &mut EventQueue<E>,
        filler: &E,
        n: usize,
        m: usize,
    ) -> Vec<E> {
        for _ in 0..n {
            assert_eq!(q.pop(), Some((SimTime::ZERO, filler.clone())));
        }
        (0..m).map(|_| q.pop().expect("event pending").1).collect()
    }

    #[test]
    fn cascades_preserve_order_across_slot_boundaries() {
        // Times straddling level boundaries (255/256 = level 0→1 edge,
        // 65535/65536 = level 1→2 edge) plus same-time pairs scheduled
        // out of order: pop order must be (time, schedule-order) exactly.
        // Level-1 slot 1 (256..=511) gets more than SCAN_MAX entries, so
        // it cascades instead of being popped in place. The near tier is
        // spilled first so that every event is filed in the wheel.
        let mut q = EventQueue::new();
        let filler = (0, usize::MAX);
        let fillers = spill_near_tier(&mut q, filler);
        let times = [
            65_536u64, 256, 255, 65_535, 257, 256, 1, 0, 65_536, 16_777_216, 255, 300, 299, 300,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ps(t), (t, i));
        }
        assert!(q.near.is_empty(), "the events must be in the wheel");
        let mut sorted: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        sorted.sort_by_key(|&(t, i)| (t, i));
        let popped = pop_past_fillers(&mut q, &filler, fillers, sorted.len());
        assert_eq!(popped, sorted);
        assert_eq!(q.pending(), fillers, "only the fillers at u64::MAX remain");
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
        // popping in place. The near tier is spilled first so that every
        // event is filed in the wheel.
        let mut q = EventQueue::new();
        let filler = (0, usize::MAX);
        let fillers = spill_near_tier(&mut q, filler);
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
        assert!(q.near.is_empty(), "the events must be in the wheel");
        let popped = pop_past_fillers(&mut q, &filler, fillers, expect.len());
        assert_eq!(popped, expect);
        assert_eq!(q.pending(), fillers, "only the fillers at u64::MAX remain");
        assert!(q.prof().cascades > 0, "boundary times must cascade");
    }

    #[test]
    fn small_coarse_buckets_pop_in_place_without_cascading() {
        // 900 and 1000 ps share level-1 slot 3; 70 000 ps is a lone
        // level-2 entry. Neither bucket exceeds SCAN_MAX, so every lookup
        // is a scan of the bucket and the base never moves. The near tier
        // is spilled first so that every event is filed in the wheel.
        let mut q = EventQueue::new();
        let fillers = spill_near_tier(&mut q, "filler");
        q.schedule_at(SimTime::from_ps(1_000), "c");
        q.schedule_at(SimTime::from_ps(900), "a");
        q.schedule_at(SimTime::from_ps(70_000), "lone");
        q.schedule_at(SimTime::from_ps(900), "b");
        pop_past_fillers(&mut q, &"filler", fillers, 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(900)));
        assert_eq!(q.pop(), Some((SimTime::from_ps(900), "a")));
        // Scheduled inside the bucket that was scanned, after its minimum.
        q.schedule_at(SimTime::from_ps(950), "d");
        let order = pop_past_fillers(&mut q, &"filler", 0, 4);
        assert_eq!(order, ["b", "d", "c", "lone"]);
        assert_eq!(q.pending(), fillers, "only the fillers at u64::MAX remain");
        assert_eq!(q.prof().cascades, 0, "sparse buckets must not cascade");
        assert_eq!(q.base, 0);
    }

    #[test]
    fn dense_coarse_bucket_cascades_straight_to_its_minimum() {
        // Six entries in level-1 slot 3 exceed SCAN_MAX: one cascade
        // moves the base to their minimum, which lands in level 0, so
        // each entry is re-filed once rather than level by level. The
        // near tier is spilled first so that every event is filed in the
        // wheel.
        let mut q = EventQueue::new();
        let fillers = spill_near_tier(&mut q, usize::MAX);
        for (i, t) in [1_000u64, 990, 900, 1_020, 900, 960]
            .into_iter()
            .enumerate()
        {
            q.schedule_at(SimTime::from_ps(t), i);
        }
        pop_past_fillers(&mut q, &usize::MAX, fillers, 0);
        assert_eq!(q.pop(), Some((SimTime::from_ps(900), 2)));
        assert_eq!(q.base, 900);
        assert_eq!(q.prof().cascades, 6);
        let rest = pop_past_fillers(&mut q, &usize::MAX, 0, 5);
        assert_eq!(rest, [4, 5, 1, 0, 3]);
        assert_eq!(q.pending(), fillers, "only the fillers at u64::MAX remain");
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
        assert_eq!(q.pop(), Some((SimTime::from_ps(u64::MAX), "max_a")));
        assert_eq!(q.pop(), Some((SimTime::from_ps(u64::MAX), "max_b")));
        assert!(q.is_idle());
    }

    #[test]
    fn same_instant_group_over_the_cap_spills_whole_and_pops_in_order() {
        // A group one larger than the near tier is demoted whole on the
        // insert that overflows it; events scheduled at that instant
        // afterwards go to the wheel behind it, and earlier ones to the
        // near tier in front of it.
        let mut q = EventQueue::new();
        let n = NEAR_CAP as u64 + 1;
        for i in 0..n {
            q.schedule_at(SimTime::from_ps(500), i);
        }
        assert_eq!((q.near.len(), q.bound), (0, Some(500)));
        q.schedule_at(SimTime::from_ps(500), n);
        q.schedule_at(SimTime::from_ps(499), n + 1);
        let near: Vec<_> = q.near.iter().map(|&(t, _)| t).collect();
        assert_eq!(near, [499], "the earlier event stays in the near tier");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let mut want = vec![n + 1];
        want.extend(0..=n);
        assert_eq!(order, want);
    }

    #[test]
    fn huge_same_instant_burst_keeps_the_near_tier_bounded() {
        // 100 000 events at one instant spill to the wheel as one group,
        // which is then popped straight from the wheel rather than pulled
        // back: a near tier that grew with it would make every insert an
        // O(n) memmove. Staggered schedules during the drain join the
        // group's tail or land later, on either tier. Pop order must stay
        // (time, seq) and the near tier within its cap throughout (the
        // insert path also checks this with a debug assertion).
        const BURST: u64 = 100_000;
        let mut q = EventQueue::new();
        let mut scheduled = Vec::new();
        for seq in 0..BURST {
            q.schedule_at(SimTime::from_ps(1_000), seq);
            scheduled.push((1_000, seq));
        }
        let mut popped = Vec::new();
        while let Some((t, seq)) = q.pop() {
            assert!(q.near.len() <= NEAR_CAP, "near tier over its cap");
            popped.push((t.as_ps(), seq));
            if seq % 2 == 0 && scheduled.len() < 3 * BURST as usize / 2 {
                let at = t.as_ps() + (seq / 2) % 5 * 10;
                let next = scheduled.len() as u64;
                q.schedule_at(SimTime::from_ps(at), next);
                scheduled.push((at, next));
                assert!(q.near.len() <= NEAR_CAP, "near tier over its cap");
            }
        }
        scheduled.sort_unstable();
        assert_eq!(popped, scheduled);
    }

    #[test]
    fn outside_events_merge_in_time_seq_order() {
        // An outside FIFO and the queue, merged through pop_before and
        // advance_to, pop in (time, seq) order, ties by seq in both
        // directions, and every counter counts the outside events.
        let mut q = EventQueue::new();
        let mut outside = std::collections::VecDeque::new();
        q.schedule_at(SimTime::from_ps(10), "queued 10");
        outside.push_back((10, q.take_seq(), "outside 10"));
        outside.push_back((20, q.take_seq(), "outside 20"));
        q.schedule_at(SimTime::from_ps(20), "queued 20");
        q.schedule_at(SimTime::from_ps(5), "queued 5");
        assert_eq!(q.pending(), 5);
        assert_eq!(q.prof().peak_pending, 5);
        let mut order = Vec::new();
        loop {
            let popped = match outside.front() {
                None => q.pop(),
                Some(&(at, seq, _)) => q.pop_before(SimTime::from_ps(at), seq),
            };
            if let Some((t, e)) = popped {
                order.push((t.as_ps(), e));
            } else if let Some((at, _, e)) = outside.pop_front() {
                q.advance_to(SimTime::from_ps(at));
                order.push((at, e));
            } else {
                break;
            }
        }
        assert_eq!(
            order,
            [
                (5, "queued 5"),
                (10, "queued 10"),
                (10, "outside 10"),
                (20, "outside 20"),
                (20, "queued 20"),
            ]
        );
        assert_eq!(q.now(), SimTime::from_ps(20));
        assert!(q.is_idle());
        assert_eq!(q.events_executed(), 5);
        let p = *q.prof();
        assert_eq!((p.pushes, p.pops, p.peak_pending), (5, 5, 5));
    }

    #[test]
    #[should_panic(expected = "advance_to without an outside event")]
    fn advance_to_needs_an_outside_event() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_ps(1));
    }

    // The determinism contract, checked against a naive reference model:
    // under any schedule/cancel/pop interleaving, pop order must equal a
    // sorted-Vec model ordered by (time, schedule seq), `is_pending` must
    // match exact membership, and `pending()` must track the live count.
    // Some events are kept in an outside FIFO instead and merged through
    // `pop_before` and `advance_to`, as the fabric does with its lanes.
    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeSet, VecDeque};

        /// Cases of `wheel_matches_sorted_vec_reference`.
        const CASES: u32 = 128;

        /// Op words of one case: the low byte picks the operation, the
        /// rest is its argument.
        fn op_words() -> impl Strategy<Value = Vec<u64>> {
            proptest::collection::vec(any::<u64>(), 1..300)
        }

        /// Naive reference: a Vec kept sorted by `(at, seq)`, plus whether
        /// each seq is still pending.
        #[derive(Default)]
        struct RefModel {
            events: Vec<(u64, u64)>, // (at, seq)
            live: Vec<bool>,
            now: u64,
        }

        impl RefModel {
            fn schedule(&mut self, at: u64) -> u64 {
                let seq = self.live.len() as u64;
                self.live.push(true);
                let pos = self.events.partition_point(|&e| e <= (at, seq));
                self.events.insert(pos, (at, seq));
                seq
            }

            fn cancel(&mut self, seq: u64) -> bool {
                if !self.live[seq as usize] {
                    return false;
                }
                self.live[seq as usize] = false;
                self.events.retain(|&(_, s)| s != seq);
                true
            }

            fn pop(&mut self) -> Option<(u64, u64)> {
                if self.events.is_empty() {
                    return None;
                }
                let (at, seq) = self.events.remove(0);
                self.live[seq as usize] = false;
                self.now = at;
                Some((at, seq))
            }
        }

        /// The queue under test, the model, every id handed out (by seq;
        /// `None` for an outside event), the outside FIFO of `(at, seq)`,
        /// and the two-tier paths the operations have taken so far, read
        /// off the queue's state around each one.
        struct Run<'a> {
            q: EventQueue<u64>,
            model: RefModel,
            ids: Vec<Option<EventId>>,
            outside: VecDeque<(u64, u64)>,
            seen: &'a mut BTreeSet<&'static str>,
        }

        impl Run<'_> {
            /// Schedules at `at` in both the queue and the model; the
            /// payload is the seq, so any order slip shows.
            fn schedule(&mut self, at: u64) {
                let (bound, wheel_empty) = (self.q.bound, self.q.summary == 0);
                let seq = self.model.schedule(at);
                self.ids
                    .push(Some(self.q.schedule_at(SimTime::from_ps(at), seq)));
                if self.q.bound != bound {
                    self.seen.insert("demotion");
                }
                if at == u64::MAX && wheel_empty {
                    self.seen.insert("u64::MAX with an empty wheel");
                }
            }

            /// Keeps an event at `at`, or at the FIFO's back if that is
            /// later, in the outside FIFO; its seq must be the model's.
            fn schedule_outside(&mut self, at: u64) -> Result<(), String> {
                let at = self.outside.back().map_or(at, |&(back, _)| at.max(back));
                let seq = self.model.schedule(at);
                prop_assert_eq!(self.q.take_seq(), seq, "take_seq diverged from the model");
                self.ids.push(None);
                self.outside.push_back((at, seq));
                Ok(())
            }

            /// The next event time, in the queue or the outside FIFO.
            fn peek(&self) -> Option<u64> {
                let q = self.q.peek_time().map(SimTime::as_ps);
                let o = self.outside.front().map(|&(at, _)| at);
                match (q, o) {
                    (Some(q), Some(o)) => Some(q.min(o)),
                    (q, o) => q.or(o),
                }
            }

            fn cancel(&mut self, seq: u64) -> Result<(), String> {
                // Outside events are never cancelled.
                let Some(id) = self.ids[seq as usize] else {
                    return Ok(());
                };
                let near =
                    self.q.is_pending(id) && self.q.slab[id.decode().0 as usize].level == LVL_NEAR;
                let got = self.q.cancel(id);
                prop_assert_eq!(
                    got,
                    self.model.cancel(seq),
                    "cancel result diverged from the model"
                );
                if got && near {
                    self.seen.insert("cancel in the near tier");
                }
                Ok(())
            }

            /// Pops both; returns the popped `(at, seq)`.
            fn pop(&mut self) -> Result<Option<(u64, u64)>, String> {
                let from_wheel = self.q.near.is_empty() && self.q.summary != 0;
                let deep = self.q.live > NEAR_CAP;
                let next_at = self.model.events.first().map(|e| e.0);
                let group = self
                    .model
                    .events
                    .iter()
                    .take_while(|e| Some(e.0) == next_at)
                    .count();
                let got = match self.outside.front() {
                    None => self.q.pop().map(|(t, seq)| (t.as_ps(), seq)),
                    Some(&(at, seq)) => match self.q.pop_before(SimTime::from_ps(at), seq) {
                        Some((t, s)) => {
                            self.seen.insert("queue head ahead of an outside head");
                            Some((t.as_ps(), s))
                        }
                        None => {
                            self.outside.pop_front();
                            self.q.advance_to(SimTime::from_ps(at));
                            if from_wheel && deep {
                                self.seen.insert("deep wheel head behind an outside head");
                            } else if self.q.live > 0 {
                                self.seen.insert("queue head behind an outside head");
                            }
                            Some((at, seq))
                        }
                    },
                };
                let want = self.model.pop();
                prop_assert_eq!(got, want, "pop diverged from the model");
                if let Some((at, _)) = got {
                    prop_assert_eq!(self.q.now(), SimTime::from_ps(at), "clock diverged");
                }
                match (from_wheel, deep) {
                    (true, false) => {
                        self.seen.insert("refill");
                    }
                    (true, true) if group > NEAR_CAP => {
                        self.seen.insert("over-cap group popped from the wheel");
                    }
                    (true, true) => {
                        self.seen.insert("deep pop from the wheel");
                    }
                    (false, _) => {}
                }
                Ok(got)
            }
        }

        /// Runs one case's op words against the model, recording the
        /// two-tier paths taken in `seen`.
        fn check_case(ops: &[u64], seen: &mut BTreeSet<&'static str>) -> Result<(), String> {
            let mut r = Run {
                q: EventQueue::new(),
                model: RefModel::default(),
                ids: Vec::new(),
                outside: VecDeque::new(),
                seen,
            };
            for &word in ops {
                let (op, arg) = ((word & 0xFF) as u8, (word >> 8) as u32);
                let now = r.model.now;
                let shallow = r.model.events.len() < 2 * NEAR_CAP;
                match op % 12 {
                    // Near future: exercises level 0/1 and cascades.
                    0 => r.schedule(now.saturating_add(u64::from(arg % 4096))),
                    // Far future: exercises the high levels.
                    1 => {
                        let far = u64::from(arg % 64) << (8 * u32::from(arg as u8 % 8));
                        r.schedule(now.saturating_add(far));
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
                        r.schedule(at.max(now));
                    }
                    3 if !r.ids.is_empty() => {
                        let seq = u64::from(arg) % r.ids.len() as u64;
                        r.cancel(seq)?;
                    }
                    // A cluster in one coarse bucket: a lone entry, a
                    // few (popped in place), or more than SCAN_MAX
                    // (cascaded); step 0 puts them all at one time.
                    5 => {
                        let n = 1 + arg % 8;
                        let first = now.saturating_add(256 + u64::from((arg >> 3) % 65_536));
                        let step = u64::from((arg >> 19) % 3);
                        for j in 0..u64::from(n) {
                            r.schedule(first.saturating_add(j * step));
                        }
                    }
                    // Popping the whole earliest same-time run one event
                    // at a time yields it in seq order, whichever tier or
                    // wheel level holds it.
                    6 => {
                        if let Some(&(at, _)) = r.model.events.first() {
                            while r.model.events.first().is_some_and(|e| e.0 == at) {
                                prop_assert_eq!(r.peek(), Some(at));
                                r.pop()?;
                            }
                            prop_assert!(
                                r.peek().is_none_or(|t| t > at),
                                "the same-time run was not drained"
                            );
                        }
                    }
                    // Schedule between a peek and the pop it predicts,
                    // at or before the peeked time — usually inside the
                    // very bucket the peek scanned.
                    7 => {
                        let peeked = r.peek();
                        prop_assert_eq!(peeked, r.model.events.first().map(|e| e.0));
                        if let Some(t) = peeked {
                            let back = u64::from(arg) % (t - now).saturating_add(1);
                            r.schedule(t - back);
                        }
                        r.pop()?;
                    }
                    // Times at the very top of u64: the top wheel level,
                    // and u64::MAX itself half the time.
                    8 => {
                        let below = if arg & 1 == 0 { 0 } else { arg % 512 };
                        r.schedule((u64::MAX - u64::from(below)).max(now));
                    }
                    // A burst of 65–300 events, more than half the near
                    // tier or more than all of it: at one instant (9) or
                    // spread out of order over up to 2 µs (10).
                    9 | 10 if shallow => {
                        let n = 65 + u64::from(arg % 236);
                        let first = now.saturating_add(u64::from((arg >> 9) % 4096));
                        let span = if op % 12 == 9 {
                            1
                        } else {
                            1 + u64::from((arg >> 12) % 2_000_000)
                        };
                        for j in 0..n {
                            r.schedule(first.saturating_add((j * 7_919 + u64::from(arg)) % span));
                        }
                    }
                    // An outside event: one to three at the same or
                    // spread times, never before the FIFO's back.
                    11 => {
                        for j in 0..u64::from(1 + arg % 3) {
                            let step = u64::from((arg >> 2) % 2_000);
                            r.schedule_outside(now.saturating_add(j * step))?;
                        }
                    }
                    _ => {
                        r.pop()?;
                    }
                }
                prop_assert_eq!(r.q.pending(), r.model.events.len());
                prop_assert!(r.q.near.len() <= NEAR_CAP, "near tier over its cap");
                for (seq, id) in r.ids.iter().enumerate() {
                    if let Some(id) = id {
                        prop_assert_eq!(
                            r.q.is_pending(*id),
                            r.model.live[seq],
                            "id membership diverged from the model"
                        );
                    }
                }
            }
            // Drain both to the end: identical tails.
            while r.pop()?.is_some() {}
            prop_assert_eq!(r.q.pending(), 0);
            // Counter cross-check: every scheduled event either fired
            // or was cancelled — nothing else exists.
            let p = *r.q.prof();
            prop_assert_eq!(p.pushes, r.ids.len() as u64);
            prop_assert_eq!(p.pops + p.cancels, p.pushes);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: CASES,
                .. ProptestConfig::default()
            })]

            #[test]
            fn wheel_matches_sorted_vec_reference(ops in op_words()) {
                check_case(&ops, &mut BTreeSet::new())?;
            }
        }

        #[test]
        fn reference_cases_cover_both_tiers() {
            // The property above is only as good as its cases. Its exact
            // cases (same strategy, same name-keyed seed, same count) must
            // demote a group, refill the near tier, pop straight from the
            // wheel while the queue is deeper than the tier, both in
            // general and through a same-instant group larger than the
            // tier, cancel in the near tier, schedule at u64::MAX with an
            // empty wheel (where +∞, not u64::MAX, must bound the near
            // tier), and merge outside events both ways, a deep wheel
            // declining included.
            let mut rng =
                proptest::test_runner::TestRng::for_test("wheel_matches_sorted_vec_reference");
            let mut seen = BTreeSet::new();
            for _ in 0..CASES {
                check_case(&op_words().generate(&mut rng), &mut seen).expect("property holds");
            }
            for want in [
                "demotion",
                "refill",
                "deep pop from the wheel",
                "over-cap group popped from the wheel",
                "cancel in the near tier",
                "u64::MAX with an empty wheel",
                "queue head ahead of an outside head",
                "queue head behind an outside head",
                "deep wheel head behind an outside head",
            ] {
                assert!(
                    seen.contains(want),
                    "no case took the path {want:?}: {seen:?}"
                );
            }
        }
    }
}
