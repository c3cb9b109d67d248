//! Property-based tests over the core invariants:
//!
//! * any `memcpy_peer` between valid locations delivers exact bytes;
//! * the sub-cluster address map is a bijection;
//! * ring routing always takes a shortest path and never loops;
//! * block-stride chains preserve data for arbitrary geometry;
//! * PIO puts of arbitrary payloads arrive intact;
//! * the static verifier is sound: chains it accepts run panic-free and
//!   deliver, chains it rejects really break the run, and a randomly
//!   corrupted routing table it still accepts still delivers everywhere.

use proptest::prelude::*;
use tca::core::{Collectives, HierarchicalCluster, Route};
use tca::peach2::ring_routing;
use tca::prelude::*;
use tca::verify::{lint_chain, ChainContext, Report};
use tca_device::map::{TcaBlock, TcaMap};

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13) ^ seed.wrapping_mul(17) ^ (i >> 8) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // whole-cluster cases are heavyweight
        .. ProptestConfig::default()
    })]

    #[test]
    fn memcpy_peer_delivers_exact_bytes(
        nodes_pow in 1u32..=3,           // 2, 4, 8 nodes
        src_node_raw in 0u32..8,
        dst_node_raw in 0u32..8,
        len in 1u64..20_000,
        src_gpu in proptest::bool::ANY,
        dst_gpu in proptest::bool::ANY,
        seed in any::<u8>(),
    ) {
        let n = 1u32 << nodes_pow;
        let src_node = src_node_raw % n;
        let dst_node = dst_node_raw % n;
        let mut c = TcaClusterBuilder::new(n).build();
        let src = if src_gpu {
            let a = c.alloc_gpu(src_node, 0, len);
            a.at(0)
        } else {
            MemRef::host(src_node, 0x4000_0000)
        };
        let dst = if dst_gpu {
            let a = c.alloc_gpu(dst_node, 1, len);
            a.at(0)
        } else {
            MemRef::host(dst_node, 0x5000_0000)
        };
        let data = pattern(len as usize, seed);
        c.write(&src, &data);
        c.memcpy_peer(&dst, &src, len);
        prop_assert_eq!(c.read(&dst, len as usize), data);
    }

    #[test]
    fn pio_put_arbitrary_payloads(
        dst_node in 1u32..4,
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        offset in 0u64..10_000,
    ) {
        let mut c = TcaClusterBuilder::new(4).build();
        let dst = MemRef::host(dst_node, 0x4000_0000 + offset);
        c.pio_put(0, &dst, &payload);
        prop_assert_eq!(c.read(&dst, payload.len()), payload);
    }

    #[test]
    fn block_stride_preserves_data(
        count in 1u64..24,
        block_pow in 3u32..10,           // 8..512 B blocks
        src_pad in 0u64..256,
        dst_pad in 0u64..256,
        seed in any::<u8>(),
    ) {
        let block = 1u64 << block_pow;
        let src_stride = block + src_pad;
        let dst_stride = block + dst_pad;
        let mut c = TcaClusterBuilder::new(2).build();
        for i in 0..count {
            c.write(
                &MemRef::host(0, 0x4000_0000 + i * src_stride),
                &pattern(block as usize, seed.wrapping_add(i as u8)),
            );
        }
        c.memcpy_peer_strided(
            &MemRef::host(1, 0x5000_0000),
            dst_stride,
            &MemRef::host(0, 0x4000_0000),
            src_stride,
            block,
            count,
        );
        for i in 0..count {
            prop_assert_eq!(
                c.read(&MemRef::host(1, 0x5000_0000 + i * dst_stride), block as usize),
                pattern(block as usize, seed.wrapping_add(i as u8))
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // whole-cluster cases are heavyweight
        .. ProptestConfig::default()
    })]

    #[test]
    fn broadcast_any_root_any_size(
        root in 0u32..4,
        len in 1u64..30_000,
        chunk_pow in 8u32..14,
        seed in any::<u8>(),
    ) {
        let mut c = TcaClusterBuilder::new(4).build();
        let mut coll = Collectives::new();
        let data = pattern(len as usize, seed);
        c.write(&MemRef::host(root, 0x4000_0000), &data);
        coll.broadcast(&mut c, root, 0x4000_0000, len, 1 << chunk_pow);
        for r in 0..4 {
            prop_assert_eq!(
                c.read(&MemRef::host(r, 0x4000_0000), len as usize),
                data.clone(),
                "rank {}", r
            );
        }
    }

    #[test]
    fn pearl_replays_never_corrupt_data(
        error_ppm in 0u32..120_000,
        len in 1u64..20_000,
        seed in any::<u8>(),
        rng_seed in any::<u64>(),
    ) {
        // Any cable error rate up to 12%: the reliable link must deliver
        // the exact bytes (replays are invisible to the payload).
        let mut params = tca::peach2::Peach2Params::default();
        params.cable_link = params.cable_link.with_error_rate_ppm(error_ppm);
        let mut c = TcaClusterBuilder::new(2).peach2_params(params).build();
        c.fabric.set_seed(rng_seed);
        let data = pattern(len as usize, seed);
        c.write(&MemRef::host(0, 0x4000_0000), &data);
        c.memcpy_peer(&MemRef::host(1, 0x5000_0000), &MemRef::host(0, 0x4000_0000), len);
        prop_assert_eq!(c.read(&MemRef::host(1, 0x5000_0000), len as usize), data);
    }

    #[test]
    fn hierarchical_send_always_delivers(
        src in 0u32..8,
        dst in 0u32..8,
        len in 1u64..16_000,
        seed in any::<u8>(),
    ) {
        prop_assume!(src != dst);
        let mut h = HierarchicalCluster::build(2, 4);
        let data = pattern(len as usize, seed);
        let host_s = h.mpi.nodes[src as usize].host;
        h.fabric
            .device_mut::<tca_device::HostBridge>(host_s)
            .core_mut()
            .mem()
            .write(0x4000_0000, &data);
        let (route, _) = h.send(src, dst, 0x4000_0000, 0x5000_0000, len);
        let expected = if src / 4 == dst / 4 { Route::Tca } else { Route::InfiniBand };
        prop_assert_eq!(route, expected);
        let host_d = h.mpi.nodes[dst as usize].host;
        prop_assert_eq!(
            h.fabric
                .device::<tca_device::HostBridge>(host_d)
                .core()
                .mem_ref()
                .read(0x5000_0000, len as usize),
            data
        );
    }
}

proptest! {
    // Pure-arithmetic properties: cheap, so run many cases.
    #[test]
    fn address_map_is_a_bijection(
        nodes_pow in 0u32..=4,
        node_raw in 0u32..16,
        block_idx in 0usize..4,
        offset in 0u64..(8u64 << 30),
    ) {
        let n = 1u32 << nodes_pow;
        let map = TcaMap::new(n);
        let node = node_raw % n;
        let block = TcaBlock::ALL[block_idx];
        let off = offset % map.block_size();
        let g = map.global_addr(node, block, off);
        prop_assert_eq!(map.classify(g), Some((node, block, off)));
        // And nothing outside the window classifies.
        prop_assert_eq!(map.classify(g % tca_device::map::TCA_WINDOW_BASE), None);
    }

    #[test]
    fn ring_routing_is_shortest_path_and_total(
        nodes_pow in 1u32..=4,
        me_raw in 0u32..16,
        dest_raw in 0u32..16,
    ) {
        let n = 1u32 << nodes_pow;
        let me = me_raw % n;
        let dest = dest_raw % n;
        let map = TcaMap::new(n);
        let rules = ring_routing(map, me, n);
        let addr = map.node_slice(dest).base() + 123;
        let port = rules.iter().find(|r| r.matches(addr)).and_then(|r| r.port);
        if dest == me {
            prop_assert_eq!(port, None, "own slice never forwarded");
        } else {
            let fwd = (dest + n - me) % n;
            let bwd = n - fwd;
            let got = port.expect("every remote slice routed");
            if fwd < bwd {
                prop_assert_eq!(got, tca::peach2::PORT_E);
            } else if bwd < fwd {
                prop_assert_eq!(got, tca::peach2::PORT_W);
            } else {
                prop_assert!(got == tca::peach2::PORT_E || got == tca::peach2::PORT_W);
            }
        }
    }

    #[test]
    fn pcie_peak_formula_monotone_in_mps(mps_pow in 7u32..=12) {
        use tca::pcie::LinkParams;
        let mps = 1u32 << mps_pow;
        let p = LinkParams::gen2_x8().with_max_payload(mps);
        let peak = p.theoretical_peak_bytes_per_sec();
        // Peak payload rate is below raw rate and grows with MPS.
        prop_assert!(peak < p.raw_bytes_per_sec() as f64);
        if mps >= 256 {
            let smaller = LinkParams::gen2_x8()
                .with_max_payload(mps / 2)
                .theoretical_peak_bytes_per_sec();
            prop_assert!(peak > smaller);
        }
    }

    #[test]
    fn sparse_memory_write_read_round_trips(
        addr in 0u64..(1u64 << 40),
        data in proptest::collection::vec(any::<u8>(), 1..2048),
    ) {
        use tca::pcie::PageMemory;
        let mut m = PageMemory::new();
        m.write(addr, &data);
        prop_assert_eq!(m.read(addr, data.len()), data);
        // Neighbouring bytes stay zero.
        if addr > 0 {
            prop_assert_eq!(m.read(addr - 1, 1), vec![0]);
        }
    }
}

/// Runs `f` with panics caught and the panic message suppressed (the
/// rejected-chain property *expects* the simulator to trap).
fn quiet_catch<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> bool {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let panicked = std::panic::catch_unwind(f).is_err();
    std::panic::set_hook(hook);
    panicked
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, // whole-cluster cases are heavyweight
        .. ProptestConfig::default()
    })]

    // Verifier soundness, accept direction: any descriptor chain the
    // linter passes without errors runs panic-free on the simulator and
    // delivers every byte to the programmed destination.
    #[test]
    fn lint_clean_chains_run_and_deliver(
        count in 1usize..5,
        lens in proptest::collection::vec(1u64..8192, 4),
        seed in any::<u8>(),
    ) {
        let mut c = TcaClusterBuilder::new(2).build();
        let drv = c.drivers[0];
        let cx = ChainContext::of_node(&c.fabric, &c.sub, 0, EngineKind::Pipelined);
        let mut descs = Vec::new();
        let mut expect = Vec::new();
        for (i, &len) in lens.iter().enumerate().take(count) {
            let src = drv.dma_buf + (i as u64) * 0x2_0000;
            let dst_off = 0x5000_0000 + (i as u64) * 0x2_0000;
            let data = pattern(len as usize, seed.wrapping_add(i as u8));
            c.write(&MemRef::host(0, src), &data);
            descs.push(Descriptor::new(
                src,
                c.sub.map.global_addr(1, TcaBlock::Host, dst_off),
                len,
            ));
            expect.push((dst_off, data));
        }
        let rep = Report::from_diagnostics(lint_chain(&cx, &descs));
        prop_assert_eq!(rep.error_count(), 0, "valid chain rejected:\n{}", rep.render());
        drv.run_dma(&mut c.fabric, &descs, EngineKind::Pipelined);
        for (dst_off, data) in expect {
            prop_assert_eq!(c.read(&MemRef::host(1, dst_off), data.len()), data);
        }
    }

    // Verifier soundness, reject direction: chains the linter rejects
    // really do break the run — the simulator either traps, or the payload
    // never reaches the programmed destination.
    #[test]
    fn lint_rejected_chains_break_the_run(
        kind in 0u8..3,
        len in 4u64..4096,
        seed in any::<u8>(),
    ) {
        let mut c = TcaClusterBuilder::new(2).build();
        let drv = c.drivers[0];
        let cx = ChainContext::of_node(&c.fabric, &c.sub, 0, EngineKind::Pipelined);
        let src = drv.dma_buf;
        let dst_off = 0x5000_0000u64;
        let dst = c.sub.map.global_addr(1, TcaBlock::Host, dst_off);
        let desc = match kind {
            // Zero-length transfer (bypassing the constructor's assert, as
            // a corrupted table in host memory would).
            0 => Descriptor {
                src,
                dst,
                len: 0,
                flags: 0,
            },
            // Destination beyond host DRAM yet below the TCA window: the
            // write is silently dropped at the host bridge.
            1 => Descriptor::new(src, 0x40_0000_0000, len),
            // RDMA get — a remote source on the put-only engine.
            _ => Descriptor::new(
                c.sub.map.global_addr(1, TcaBlock::Host, 0x4000_0000),
                dst,
                len,
            ),
        };
        let rep = Report::from_diagnostics(lint_chain(&cx, &[desc]));
        prop_assert!(
            rep.error_count() > 0,
            "broken chain (kind {}) passed the lint", kind
        );
        let data = pattern(len as usize, seed);
        c.write(&MemRef::host(0, src), &data);
        let panicked = {
            let fabric = &mut c.fabric;
            quiet_catch(std::panic::AssertUnwindSafe(move || {
                drv.run_dma(fabric, &[desc], EngineKind::Pipelined);
            }))
        };
        let delivered =
            !panicked && c.read(&MemRef::host(1, dst_off), len as usize) == data;
        prop_assert!(
            !delivered,
            "lint-rejected chain (kind {}) still delivered cleanly", kind
        );
    }

    // Whole-cluster soundness: corrupt one routing row at random; if the
    // verifier still accepts the configuration, traffic between every node
    // pair must still deliver (and if it rejects it, the seeded-broken unit
    // tests in `tca-verify` pin down each diagnostic).
    #[test]
    fn lint_clean_routing_still_delivers(
        chip in 0usize..4,
        row in 0usize..8,
        action in 0u8..4,
        seed in any::<u8>(),
    ) {
        let mut c = TcaClusterBuilder::new(4).build();
        {
            let dev = c.sub.chips[chip];
            let r = &mut c
                .fabric
                .device_mut::<tca::peach2::Peach2>(dev)
                .regs_mut()
                .routes[row];
            r.port = match action {
                0 => None,
                1 => Some(tca::peach2::PORT_E),
                2 => Some(tca::peach2::PORT_W),
                _ => Some(tca::peach2::PORT_S),
            };
        }
        let rep = tca::verify::lint_cluster(&c.fabric, &c.sub);
        if rep.error_count() == 0 {
            let data = pattern(256, seed);
            for s in 0..4u32 {
                for d in 0..4u32 {
                    if s == d {
                        continue;
                    }
                    c.write(&MemRef::host(s, 0x4000_0000), &data);
                    c.memcpy_peer(
                        &MemRef::host(d, 0x5000_0000),
                        &MemRef::host(s, 0x4000_0000),
                        256,
                    );
                    prop_assert_eq!(
                        c.read(&MemRef::host(d, 0x5000_0000), 256),
                        data.clone(),
                        "accepted config failed to deliver {} -> {}", s, d
                    );
                }
            }
        }
    }
}
