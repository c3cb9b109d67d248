//! Sparse byte-addressable memory.
//!
//! Device memories in the model hold *real bytes* so end-to-end data
//! integrity is testable, but a 6 GB GPU obviously cannot be backed by a
//! dense allocation. [`PageMemory`] materializes 4 KiB pages on first touch
//! and reads zeroes from untouched pages, like freshly mapped memory.
//!
//! Pages are copy-on-write: [`PageMemory::read_payload`] hands out an O(1)
//! [`Bytes`] view of a page, and a later write to that page copies it
//! first, so the view keeps the bytes it was read with. A payload is
//! therefore copied once, when it commits at its destination.

use bytes::Bytes;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Page size of the sparse store (also the pinning granularity GPUDirect
/// RDMA uses — "GPU memory at page granularity", §III-C).
pub const PAGE_SIZE: u64 = 4096;

/// Multiplicative hash for page numbers. Every payload write and read
/// looks a page up, and SipHash's flooding resistance buys nothing for
/// keys the simulator computes itself.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A freshly allocated all-zero page.
fn zeroed_page() -> Rc<[u8]> {
    std::iter::repeat_n(0u8, PAGE_SIZE as usize).collect()
}

thread_local! {
    /// The all-zero page that untouched pages read as, one per thread
    /// (pages are `Rc`-shared, so they never cross threads).
    static ZERO_PAGE: Rc<[u8]> = zeroed_page();
}

/// A sparse, zero-initialized byte store.
#[derive(Default)]
pub struct PageMemory {
    pages: HashMap<u64, Rc<[u8]>, BuildHasherDefault<PageHasher>>,
}

impl PageMemory {
    /// New empty memory.
    pub fn new() -> Self {
        PageMemory::default()
    }

    /// Number of materialized pages (for memory-footprint assertions).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Writes `data` starting at `addr`, materializing pages as needed.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut cur = addr;
        let mut rest = data;
        while !rest.is_empty() {
            let page = cur / PAGE_SIZE;
            let off = (cur % PAGE_SIZE) as usize;
            let n = rest.len().min(PAGE_SIZE as usize - off);
            // `make_mut` copies a page a payload view still shares.
            let p = self.pages.entry(page).or_insert_with(zeroed_page);
            Rc::make_mut(p)[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            cur += n as u64;
        }
    }

    /// Reads `len` bytes starting at `addr`; untouched pages read as zero.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Reads `len` bytes starting at `addr` as a payload snapshot. A range
    /// inside one page is an O(1) view of it (of the shared zero page when
    /// untouched); a range crossing pages is copied once. Later writes do
    /// not change the returned bytes.
    pub fn read_payload(&self, addr: u64, len: usize) -> Bytes {
        let off = (addr % PAGE_SIZE) as usize;
        if off + len <= PAGE_SIZE as usize {
            let page = match self.pages.get(&(addr / PAGE_SIZE)) {
                Some(p) => Rc::clone(p),
                None => ZERO_PAGE.with(Rc::clone),
            };
            return Bytes::view(page, off..off + len);
        }
        let mut buf: Rc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        self.read_into(addr, Rc::get_mut(&mut buf).expect("fresh buffer"));
        Bytes::from(buf)
    }

    /// Reads into a caller-provided buffer.
    pub fn read_into(&self, addr: u64, out: &mut [u8]) {
        let mut cur = addr;
        let mut rest: &mut [u8] = out;
        while !rest.is_empty() {
            let page = cur / PAGE_SIZE;
            let off = (cur % PAGE_SIZE) as usize;
            let n = rest.len().min(PAGE_SIZE as usize - off);
            if let Some(p) = self.pages.get(&page) {
                rest[..n].copy_from_slice(&p[off..off + n]);
            } else {
                rest[..n].fill(0);
            }
            rest = &mut rest[n..];
            cur += n as u64;
        }
    }

    /// Reads one little-endian `u32` (PIO poll granularity).
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read_into(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Reads one little-endian `u64` (descriptor fields).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes one little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Writes one little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Fills `[addr, addr+len)` with a byte pattern derived from the address
    /// (used by tests and benches to build verifiable payloads cheaply).
    pub fn fill_pattern(&mut self, addr: u64, len: u64, seed: u8) {
        let mut buf = vec![0u8; len.min(1 << 20) as usize];
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let n = buf.len().min((end - cur) as usize);
            for (i, b) in buf[..n].iter_mut().enumerate() {
                let a = cur + i as u64;
                *b = (a as u8) ^ ((a >> 8) as u8).wrapping_mul(31) ^ seed;
            }
            self.write(cur, &buf[..n]);
            cur += n as u64;
        }
    }

    /// Verifies a region against [`PageMemory::fill_pattern`]'s output;
    /// returns the first mismatching address.
    pub fn verify_pattern(&self, addr: u64, len: u64, seed: u8) -> Result<(), u64> {
        let data = self.read(addr, len as usize);
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i as u64;
            let expect = (a as u8) ^ ((a >> 8) as u8).wrapping_mul(31) ^ seed;
            if b != expect {
                return Err(a);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_first_touch() {
        let m = PageMemory::new();
        assert_eq!(m.read(0x1234, 8), vec![0; 8]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = PageMemory::new();
        m.write(100, b"hello world");
        assert_eq!(m.read(100, 11), b"hello world");
        assert_eq!(m.read(99, 13)[1..12], *b"hello world");
        assert_eq!(m.read(99, 13)[0], 0);
    }

    #[test]
    fn cross_page_access() {
        let mut m = PageMemory::new();
        let addr = PAGE_SIZE - 3;
        m.write(addr, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(m.read(addr, 6), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn sparse_footprint() {
        let mut m = PageMemory::new();
        // Touch two pages 5 GiB apart — must stay tiny.
        m.write(0, &[1]);
        m.write(5 << 30, &[2]);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(5 << 30, 1), vec![2]);
    }

    #[test]
    fn scalar_accessors() {
        let mut m = PageMemory::new();
        m.write_u32(8, 0xdead_beef);
        assert_eq!(m.read_u32(8), 0xdead_beef);
        m.write_u64(16, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(16), 0x0123_4567_89ab_cdef);
        // Little-endian byte order.
        assert_eq!(m.read(8, 1), vec![0xef]);
    }

    #[test]
    fn scalar_across_page_boundary() {
        let mut m = PageMemory::new();
        m.write_u64(PAGE_SIZE - 4, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(PAGE_SIZE - 4), 0x1122_3344_5566_7788);
    }

    #[test]
    fn pattern_fill_and_verify() {
        let mut m = PageMemory::new();
        m.fill_pattern(0x10_0000, 64 * 1024, 7);
        assert!(m.verify_pattern(0x10_0000, 64 * 1024, 7).is_ok());
        assert!(m.verify_pattern(0x10_0000, 64 * 1024, 8).is_err());
        // Corrupt one byte and detect exactly it.
        let mut byte = m.read(0x10_0042, 1);
        byte[0] ^= 0xff;
        m.write(0x10_0042, &byte);
        assert_eq!(m.verify_pattern(0x10_0000, 64 * 1024, 7), Err(0x10_0042));
    }

    #[test]
    fn payload_is_a_snapshot_and_later_writes_land() {
        let mut m = PageMemory::new();
        m.write(0x100, &[1, 2, 3, 4]);
        let before = m.read_payload(0x100, 4);
        m.write(0x102, &[9, 9]);
        assert_eq!(&before[..], &[1, 2, 3, 4], "view keeps the old bytes");
        assert_eq!(&m.read_payload(0x100, 4)[..], &[1, 2, 9, 9]);
        assert_eq!(m.read(0x100, 4), vec![1, 2, 9, 9]);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn payload_of_untouched_page_is_zero_and_stays_sparse() {
        let m = PageMemory::new();
        let p = m.read_payload(7 << 30, 256);
        assert_eq!(&p[..], &[0u8; 256][..]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn payload_across_pages_is_correct() {
        let mut m = PageMemory::new();
        m.fill_pattern(0, 3 * PAGE_SIZE, 5);
        let addr = PAGE_SIZE - 100;
        let p = m.read_payload(addr, 300);
        assert_eq!(&p[..], &m.read(addr, 300)[..]);
        // Spanning a resident page and an untouched one.
        let q = m.read_payload(3 * PAGE_SIZE - 4, 8);
        assert_eq!(&q[..4], &m.read(3 * PAGE_SIZE - 4, 4)[..]);
        assert_eq!(&q[4..], &[0; 4]);
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn pattern_is_position_dependent() {
        let mut m = PageMemory::new();
        m.fill_pattern(0, 4096, 0);
        let d = m.read(0, 4096);
        // Not all bytes equal (catches trivially constant patterns).
        assert!(d.iter().any(|&b| b != d[0]));
    }
}
