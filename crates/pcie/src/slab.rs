//! Flyweight TLP storage: a generation-checked slab so in-flight packets
//! travel through the event queue as an 8-byte handle instead of a full
//! [`Tlp`] (24+ bytes of header plus a heap-backed payload handle).
//!
//! The event engine moves entries between its near tier and timing wheel,
//! scans small coarse buckets in place and re-files dense ones (cascades);
//! keeping the event payload small keeps the entries those walks touch
//! compact and cache-resident. The slab also
//! removes the last reason for the fabric to clone a TLP on the hot path:
//! the packet is inserted once when the wire reserves its arrival slot and
//! taken out exactly once at delivery.
//!
//! Handles are generation-checked exactly like the event queue's
//! [`EventId`](tca_sim::EventId): a slot's generation bumps on every
//! release, so a stale or forged handle is detected (panic — unlike event
//! cancellation this is an internal invariant, not a user-facing API) and
//! an ABA reuse cannot alias a different packet.

use crate::tlp::Tlp;

/// Opaque handle to a TLP parked in a [`TlpSlab`]. Encodes a slot index
/// and the slot generation observed at insertion.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TlpHandle(u64);

impl TlpHandle {
    fn encode(idx: u32, gen: u32) -> Self {
        TlpHandle((u64::from(gen) << 32) | u64::from(idx))
    }

    fn decode(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }
}

struct Slot {
    gen: u32,
    tlp: Option<Tlp>,
}

/// Generation-checked arena for in-flight TLPs. Slots are recycled through
/// a free list, so a fabric in steady state allocates nothing here: the
/// slab grows to the peak number of simultaneously in-flight packets and
/// then reuses those slots forever.
#[derive(Default)]
pub struct TlpSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl TlpSlab {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks `tlp` and returns its handle. O(1); allocates only when the
    /// number of simultaneously in-flight TLPs reaches a new peak.
    pub fn insert(&mut self, tlp: Tlp) -> TlpHandle {
        if let Some(idx) = self.free.pop() {
            let s = &mut self.slots[idx as usize];
            debug_assert!(s.tlp.is_none());
            s.tlp = Some(tlp);
            TlpHandle::encode(idx, s.gen)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("TlpSlab overflow");
            self.slots.push(Slot {
                gen: 0,
                tlp: Some(tlp),
            });
            TlpHandle::encode(idx, 0)
        }
    }

    /// Reads the parked TLP without consuming it (flight-recorder capture).
    ///
    /// # Panics
    /// On a stale or forged handle — every handle is created by the fabric
    /// and consumed exactly once, so a failed check is an internal bug.
    pub fn get(&self, h: TlpHandle) -> &Tlp {
        let (idx, gen) = h.decode();
        let s = &self.slots[idx as usize];
        assert_eq!(s.gen, gen, "stale TlpHandle");
        s.tlp.as_ref().expect("TlpHandle already taken")
    }

    /// Removes and returns the parked TLP, releasing the slot for reuse
    /// (its generation bumps, invalidating any copies of the handle).
    ///
    /// # Panics
    /// On a stale or forged handle, as for [`TlpSlab::get`].
    pub fn take(&mut self, h: TlpHandle) -> Tlp {
        let (idx, gen) = h.decode();
        let s = &mut self.slots[idx as usize];
        assert_eq!(s.gen, gen, "stale TlpHandle");
        let tlp = s.tlp.take().expect("TlpHandle already taken");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx);
        tlp
    }

    /// Number of TLPs currently parked.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no TLPs are parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip_preserves_the_packet() {
        let mut slab = TlpSlab::new();
        let original = Tlp::write(0x1000, vec![1, 2, 3]);
        let digest = original.digest();
        let h = slab.insert(original);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(h).digest(), digest);
        let t = slab.take(h);
        assert_eq!(t.digest(), digest);
        assert!(slab.is_empty());
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut slab = TlpSlab::new();
        for i in 0..100u64 {
            let packet = Tlp::write(i * 8, vec![i as u8]);
            let digest = packet.digest();
            let h = slab.insert(packet);
            assert_eq!(slab.take(h).digest(), digest);
        }
        assert_eq!(slab.slots.len(), 1, "one slot reused 100 times");
    }

    #[test]
    #[should_panic(expected = "stale TlpHandle")]
    fn stale_handle_is_rejected_after_slot_reuse() {
        let mut slab = TlpSlab::new();
        let h = slab.insert(Tlp::write(0, vec![0]));
        slab.take(h);
        let _h2 = slab.insert(Tlp::write(8, vec![1]));
        slab.get(h);
    }
}
