//! Allocation guarantees of the engine hot path and the bulk-DMA path.
//!
//! These tests live in their own binary because they install the
//! counting allocator. Every window is measured with the calling
//! thread's own tally (`thread_alloc_snapshot`), so test threads running
//! in parallel never count each other's allocations.

use tca::core::TcaClusterBuilder;
use tca::sim::prof::thread_alloc_snapshot;
use tca_bench::{Direction, Target};

#[global_allocator]
static ALLOC: tca::sim::prof::CountingAllocator = tca::sim::prof::CountingAllocator;

/// Steady-state stepping on a warmed fabric performs zero heap
/// allocations: the event slab, free list and near tier, the lane heap,
/// the per-link wire and credit lanes and credit-blocked queues all reach
/// capacity during the first round of traffic, and an identical second
/// round reuses every one of them. Payload allocation happens at inject
/// (drive) time, outside the measured drain.
#[test]
fn steady_state_stepping_is_allocation_free() {
    assert!(tca::sim::prof::alloc_tracking_compiled());
    let spec = tca::core::presets::build_topology("torus2d-4x4").expect("registry grammar");
    let mut tf = tca_bench::topo_fabric::build(&spec);
    let dests = |src: u32| tca_bench::topo_fabric::strided_dests(spec.nodes, src, 8);

    // Round 1: grow every pool to steady-state capacity.
    tf.inject(dests);
    tf.drain();

    // Round 2: identical traffic; payloads are allocated here, before
    // the measurement starts.
    tf.inject(dests);
    let before = thread_alloc_snapshot();
    tf.fabric.run_until_idle();
    let delta = thread_alloc_snapshot().since(&before);
    assert_eq!(
        delta.allocs, 0,
        "steady-state stepping allocated on a warmed fabric: {delta:?}"
    );

    // The invariant check still holds across both rounds: 16 nodes ×
    // strides {1, 2, 4, 8} × 2 rounds, all delivered.
    let report = tf.drain();
    assert_eq!(report.messages, 2 * 16 * 4);
}

/// The `engine` scenario's 8-node ring neighbour shift, once warmed,
/// allocates per transfer, not per event: payloads travel as views and
/// copy once at their destination, so at most 0.05 allocations per event
/// (about 0.01 measured).
#[test]
fn warmed_ring_shift_allocates_per_transfer_not_per_event() {
    const LEN: u64 = 64 * 1024;
    let mut c = tca_bench::shift_cluster(8, LEN);
    for _ in 0..2 {
        tca_bench::shift_round(&mut c, 8, LEN);
    }
    let (events0, before) = (c.fabric.events_executed(), thread_alloc_snapshot());
    for _ in 0..4 {
        tca_bench::shift_round(&mut c, 8, LEN);
    }
    let delta = thread_alloc_snapshot().since(&before);
    let per_event = delta.allocs as f64 / (c.fabric.events_executed() - events0) as f64;
    assert!(
        per_event <= 0.05,
        "{per_event:.4} allocations per event on the warmed shift: {delta:?}"
    );
}

/// Metric registration is a name→id lookup on the hot path; a hit must
/// not allocate (the `impl AsRef<str>` probe happens before any
/// `String` conversion). Only a miss — first registration — pays for
/// the owned name.
#[test]
fn metric_lookup_hits_do_not_allocate() {
    assert!(tca::sim::prof::alloc_tracking_compiled());
    let mut hub = tca::sim::MetricsHub::new();
    let first = hub.counter("gpu0.bar1.reads");
    let g_first = hub.gauge("gpu0.bar1.read_q_depth");
    let h_first = hub.histogram("gpu0.bar1.read_q_wait_ns");

    let before = thread_alloc_snapshot();
    let again = hub.counter("gpu0.bar1.reads");
    let g_again = hub.gauge("gpu0.bar1.read_q_depth");
    let h_again = hub.histogram("gpu0.bar1.read_q_wait_ns");
    let delta = thread_alloc_snapshot().since(&before);

    assert_eq!(first, again, "re-registration must return the same id");
    assert_eq!(g_first, g_again);
    assert_eq!(h_first, h_again);
    assert_eq!(delta.allocs, 0, "metric lookup hit allocated: {delta:?}");
}

/// Payloads ride the chained-DMA path as views of the source memory and
/// are copied once, into the destination, so a warmed 255 × 64 KiB run
/// (65 280 payload TLPs) allocates per descriptor, never per TLP.
#[test]
fn bulk_dma_allocates_per_descriptor_not_per_tlp() {
    const COUNT: u64 = 255;
    const SIZE: u64 = 64 * 1024;
    for (target, dir) in [
        (Target::LocalCpu, Direction::Write),
        (Target::LocalCpu, Direction::Read),
        (Target::RemoteCpu, Direction::Write),
    ] {
        let mut c = TcaClusterBuilder::new(2).build();
        for _ in 0..2 {
            tca_bench::dma_bandwidth(&mut c, target, dir, COUNT, SIZE);
        }
        let before = thread_alloc_snapshot();
        tca_bench::dma_bandwidth(&mut c, target, dir, COUNT, SIZE);
        let delta = thread_alloc_snapshot().since(&before);
        assert!(
            delta.allocs < 2 * COUNT,
            "{target:?} {dir:?}: {} allocations for {} payload TLPs: {delta:?}",
            delta.allocs,
            COUNT * SIZE / 256
        );
    }
}
