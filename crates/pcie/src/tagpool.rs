//! Non-posted request tag management.
//!
//! A PCIe requester may keep only a bounded number of reads outstanding —
//! one tag per in-flight request. The pool size is a first-order performance
//! parameter: it bounds `read bandwidth ≤ tags × read_size / round_trip`,
//! which is exactly why DMA *read* lags DMA *write* in Fig. 7 of the paper.

use crate::tlp::Tag;

/// Fixed-capacity tag allocator (LIFO reuse, deterministic).
#[derive(Debug, Clone)]
pub struct TagPool {
    free: Vec<u16>,
    capacity: u16,
}

impl TagPool {
    /// Pool with tags `0..capacity`.
    pub fn new(capacity: u16) -> Self {
        assert!(capacity > 0, "empty tag pool");
        TagPool {
            free: (0..capacity).rev().collect(),
            capacity,
        }
    }

    /// Takes a tag, or `None` when all are in flight.
    pub fn alloc(&mut self) -> Option<Tag> {
        self.free.pop().map(Tag)
    }

    /// Returns a completed request's tag.
    ///
    /// # Panics
    /// Panics on double-free or foreign tags.
    #[track_caller]
    pub fn release(&mut self, tag: Tag) {
        assert!(tag.0 < self.capacity, "foreign tag {tag:?}");
        assert!(!self.free.contains(&tag.0), "double free of {tag:?}");
        self.free.push(tag.0);
    }

    /// Number of tags currently in flight.
    pub fn in_flight(&self) -> u16 {
        self.capacity - self.free.len() as u16
    }

    /// Total capacity.
    pub fn capacity(&self) -> u16 {
        self.capacity
    }

    /// True when no request is outstanding.
    pub fn is_idle(&self) -> bool {
        self.free.len() as u16 == self.capacity
    }
}

/// Tracks a multi-completion read: a single read request may be answered by
/// several completion TLPs (split at the link MPS); this accumulates them
/// and reports when the request is fully satisfied.
#[derive(Debug, Clone)]
pub struct ReadReassembly {
    buf: Vec<u8>,
    received: usize,
}

impl ReadReassembly {
    /// Expects `len` total bytes.
    pub fn new(len: usize) -> Self {
        ReadReassembly {
            buf: vec![0; len],
            received: 0,
        }
    }

    /// Applies one completion at `offset`; returns `true` when all bytes
    /// have arrived.
    #[track_caller]
    pub fn add(&mut self, offset: u32, data: &[u8]) -> bool {
        let off = offset as usize;
        assert!(
            off + data.len() <= self.buf.len(),
            "completion overruns request ({} + {} > {})",
            off,
            data.len(),
            self.buf.len()
        );
        self.buf[off..off + data.len()].copy_from_slice(data);
        self.received += data.len();
        self.received >= self.buf.len()
    }

    /// Consumes the reassembled data.
    pub fn into_data(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows `[offset, offset+len)`; callers that stream a contiguous
    /// prefix (the HCA frame cutter) use this without consuming the buffer.
    #[track_caller]
    pub fn peek(&self, offset: usize, len: usize) -> &[u8] {
        assert!(offset + len <= self.buf.len(), "peek out of range");
        &self.buf[offset..offset + len]
    }

    /// Total bytes received so far.
    pub fn received(&self) -> usize {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_exhausts_and_releases() {
        let mut p = TagPool::new(2);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_ne!(a, b);
        assert!(p.alloc().is_none());
        assert_eq!(p.in_flight(), 2);
        p.release(a);
        assert_eq!(p.alloc(), Some(a), "LIFO reuse");
        p.release(b);
        assert!(!p.is_idle());
    }

    #[test]
    fn all_tags_unique() {
        let mut p = TagPool::new(32);
        let mut tags: Vec<_> = std::iter::from_fn(|| p.alloc()).collect();
        assert_eq!(tags.len(), 32);
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), 32);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_release_panics() {
        let mut p = TagPool::new(4);
        let t = p.alloc().unwrap();
        p.release(t);
        p.release(t);
    }

    #[test]
    #[should_panic(expected = "foreign tag")]
    fn foreign_tag_panics() {
        let mut p = TagPool::new(4);
        p.release(Tag(99));
    }

    #[test]
    fn reassembly_in_order() {
        let mut r = ReadReassembly::new(8);
        assert!(!r.add(0, &[1, 2, 3, 4]));
        assert!(r.add(4, &[5, 6, 7, 8]));
        assert_eq!(r.into_data(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn reassembly_out_of_order() {
        let mut r = ReadReassembly::new(8);
        assert!(!r.add(4, &[5, 6, 7, 8]));
        assert!(r.add(0, &[1, 2, 3, 4]));
        assert_eq!(r.into_data(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn single_completion_read() {
        let mut r = ReadReassembly::new(4);
        assert!(r.add(0, &[9, 9, 9, 9]));
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn overrun_panics() {
        let mut r = ReadReassembly::new(4);
        r.add(2, &[0, 0, 0]);
    }
}
