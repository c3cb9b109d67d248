//! PCIe address maps: the node-local map and the TCA sub-cluster map.
//!
//! §III-E / Fig. 4 of the paper: PEACH2 reserves a 512 GiB region of the
//! 64-bit PCIe space (its BAR). The region is split equally and *aligned*
//! among the nodes of the sub-cluster, and each node slice is again split
//! into aligned blocks for GPU0, GPU1, the host memory, and the PEACH2
//! internal region. Because every boundary is a power of two, routing
//! reduces to comparing upper address bits — no tables, no translation
//! except at port N.

use tca_pcie::AddrRange;

/// Base of host DRAM in the node-local address map.
pub const DRAM_BASE: u64 = 0;

/// Base of the GPU BAR1 windows in the node-local map; each GPU gets an
/// 8 GiB aligned window (enough for the 5–6 GB GDDR of M2090/K20).
pub const GPU_BAR_BASE: u64 = 0x20_0000_0000; // 128 GiB
/// Size of one GPU BAR1 window.
pub const GPU_BAR_SIZE: u64 = 0x2_0000_0000; // 8 GiB

/// Base of the PEACH2 BAR: the 512 GiB TCA window (Fig. 4). The BIOS of
/// the testbed had to support assigning such a large BAR — only a few
/// motherboards could (paper, footnote 2).
pub const TCA_WINDOW_BASE: u64 = 0x80_0000_0000; // 512 GiB
/// Size of the TCA window.
pub const TCA_WINDOW_SIZE: u64 = 0x80_0000_0000; // 512 GiB

/// Node-local BAR1 window of GPU `i`.
pub fn gpu_bar(i: usize) -> AddrRange {
    AddrRange::new(GPU_BAR_BASE + i as u64 * GPU_BAR_SIZE, GPU_BAR_SIZE)
}

/// The whole TCA window as an address range.
pub fn tca_window() -> AddrRange {
    AddrRange::new(TCA_WINDOW_BASE, TCA_WINDOW_SIZE)
}

/// The four aligned blocks inside one node's slice of the TCA window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcaBlock {
    /// GPU0 device memory, exposed via GPUDirect pinning.
    Gpu0,
    /// GPU1 device memory.
    Gpu1,
    /// Host DRAM window.
    Host,
    /// PEACH2-internal region: control registers, internal packet SRAM,
    /// on-board DDR3.
    Internal,
}

impl TcaBlock {
    /// All blocks in slice order.
    pub const ALL: [TcaBlock; 4] = [
        TcaBlock::Gpu0,
        TcaBlock::Gpu1,
        TcaBlock::Host,
        TcaBlock::Internal,
    ];

    fn index(self) -> u64 {
        match self {
            TcaBlock::Gpu0 => 0,
            TcaBlock::Gpu1 => 1,
            TcaBlock::Host => 2,
            TcaBlock::Internal => 3,
        }
    }
}

/// The sub-cluster address map shared by every node (Fig. 4).
///
/// All nodes program the same map, which is what lets PEACH2 route by bare
/// address-bit comparison and lets user code compute a remote GPU address
/// with pure arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcaMap {
    nodes: u32,
}

impl TcaMap {
    /// Map for a sub-cluster of `nodes` nodes. The paper's sub-cluster unit
    /// is 8–16 nodes (§II-B); powers of two keep every slice aligned.
    #[track_caller]
    pub fn new(nodes: u32) -> Self {
        assert!(
            nodes.is_power_of_two() && (1..=16).contains(&nodes),
            "sub-cluster size must be a power of two in 1..=16, got {nodes}"
        );
        TcaMap { nodes }
    }

    /// Number of nodes in the sub-cluster.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Size of one node's slice.
    pub fn slice_size(&self) -> u64 {
        1 << self.slice_bits()
    }

    /// `log2` of the slice size: the window and the node count are powers
    /// of two, so every decode below is a shift and a mask.
    #[inline]
    fn slice_bits(&self) -> u32 {
        TCA_WINDOW_SIZE.trailing_zeros() - self.nodes.trailing_zeros()
    }

    /// Size of one block within a slice.
    pub fn block_size(&self) -> u64 {
        self.slice_size() / 4
    }

    /// The slice of the TCA window owned by `node`.
    #[track_caller]
    pub fn node_slice(&self, node: u32) -> AddrRange {
        assert!(node < self.nodes, "node {node} out of range");
        AddrRange::new(
            TCA_WINDOW_BASE + node as u64 * self.slice_size(),
            self.slice_size(),
        )
    }

    /// The global address range of `block` on `node`.
    pub fn block(&self, node: u32, block: TcaBlock) -> AddrRange {
        let slice = self.node_slice(node);
        AddrRange::new(
            slice.base() + block.index() * self.block_size(),
            self.block_size(),
        )
    }

    /// Global TCA address of byte `offset` inside `block` on `node`.
    #[track_caller]
    pub fn global_addr(&self, node: u32, block: TcaBlock, offset: u64) -> u64 {
        let b = self.block(node, block);
        assert!(offset < b.len(), "offset {offset:#x} outside block");
        b.base() + offset
    }

    /// Decodes a global TCA address into `(node, block, offset)`.
    /// Returns `None` for addresses outside the TCA window.
    pub fn classify(&self, addr: u64) -> Option<(u32, TcaBlock, u64)> {
        if !tca_window().contains(addr) {
            return None;
        }
        let rel = addr - TCA_WINDOW_BASE;
        let slice_bits = self.slice_bits();
        let block_bits = slice_bits - 2;
        let block = TcaBlock::ALL[(rel >> block_bits & 3) as usize];
        let off = rel & ((1 << block_bits) - 1);
        Some(((rel >> slice_bits) as u32, block, off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_partition_the_window() {
        for nodes in [1u32, 2, 4, 8, 16] {
            let m = TcaMap::new(nodes);
            let mut end = TCA_WINDOW_BASE;
            for n in 0..nodes {
                let s = m.node_slice(n);
                assert_eq!(s.base(), end, "contiguous");
                end = s.end();
            }
            assert_eq!(end, TCA_WINDOW_BASE + TCA_WINDOW_SIZE);
        }
    }

    #[test]
    fn sixteen_node_slice_is_32_gib() {
        let m = TcaMap::new(16);
        assert_eq!(m.slice_size(), 32 << 30);
        assert_eq!(m.block_size(), 8 << 30);
    }

    #[test]
    fn blocks_partition_each_slice() {
        let m = TcaMap::new(8);
        for n in 0..8 {
            let slice = m.node_slice(n);
            let mut end = slice.base();
            for b in TcaBlock::ALL {
                let r = m.block(n, b);
                assert_eq!(r.base(), end);
                end = r.end();
            }
            assert_eq!(end, slice.end());
        }
    }

    #[test]
    fn global_addr_classify_round_trip() {
        for nodes in [1u32, 2, 4, 8, 16] {
            let m = TcaMap::new(nodes);
            for node in 0..nodes {
                for block in TcaBlock::ALL {
                    for off in [0u64, 1, 4096, m.block_size() - 1] {
                        let g = m.global_addr(node, block, off);
                        assert_eq!(m.classify(g), Some((node, block, off)));
                    }
                }
            }
        }
    }

    #[test]
    fn classify_rejects_outside_window() {
        let m = TcaMap::new(4);
        assert_eq!(m.classify(0), None);
        assert_eq!(m.classify(TCA_WINDOW_BASE - 1), None);
        assert_eq!(m.classify(TCA_WINDOW_BASE + TCA_WINDOW_SIZE), None);
    }

    #[test]
    fn slice_boundaries_are_aligned() {
        // Alignment is what allows PEACH2 to route on upper bits only.
        let m = TcaMap::new(16);
        for n in 0..16 {
            let s = m.node_slice(n);
            assert_eq!(s.base() % m.slice_size(), 0);
            for b in TcaBlock::ALL {
                assert_eq!(m.block(n, b).base() % m.block_size(), 0);
            }
        }
    }

    #[test]
    fn gpu_bars_do_not_overlap_dram_or_tca_window() {
        let dram = AddrRange::new(DRAM_BASE, 128 << 30);
        for i in 0..4 {
            let b = gpu_bar(i);
            assert!(!b.overlaps(&dram), "gpu{i} vs dram");
            assert!(!b.overlaps(&tca_window()), "gpu{i} vs tca");
        }
        assert!(!gpu_bar(0).overlaps(&gpu_bar(1)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = TcaMap::new(3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_out_of_range_rejected() {
        let m = TcaMap::new(4);
        let _ = m.node_slice(4);
    }
}
