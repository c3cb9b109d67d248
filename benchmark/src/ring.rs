//! `ring-traffic`: seeded closed-loop traffic on an 8-node PEACH2 ring,
//! driven through the public `tca-core` API.
//!
//! Eight clients, one per node: each round every node issues one
//! `memcpy_peer_async` (so at most one chained-DMA activation is
//! outstanding per board), the round waits for all of them, and one short
//! `pio_put` closes it. Destinations sit 1–4 ring hops away, so relays and
//! cable credit contention do the work; sources and destinations are host
//! DRAM or GPU0, 50/50, so GPU BAR1 reads run beside host writes. The seed
//! drives only the put list — [`generate`] is the workload generator, and
//! the library receives nothing but the generated puts.

use crate::Checks;
use std::time::{Duration, Instant};
use tca_core::{GpuAlloc, MemRef, TcaCluster, TcaClusterBuilder, TcaEvent};
use tca_sim::SimRng;

/// Ring size.
pub const NODES: u32 = 8;
/// Smallest put, bytes.
const MIN_LEN: u64 = 256;
/// Largest put, bytes (also the size of each source's destination slot).
const MAX_LEN: u64 = 256 << 10;
/// Rounds of one pass, pinned so a pass takes a few seconds on a 2-core box.
pub const ROUNDS: u32 = 1000;
/// Put lengths and source offsets are multiples of this.
const GRAIN: u64 = 64;
/// Bytes of source pattern per node and memory; puts read a seeded window.
const SRC_SPAN: u64 = 2 * MAX_LEN;
const HOST_SRC: u64 = 0x2000_0000;
const HOST_DST: u64 = 0x3000_0000;
const HOST_PIO: u64 = 0x3800_0000;
/// Log-uniform size steps: 64 per octave over the ten octaves
/// `MIN_LEN..MAX_LEN`, split into one stratum per node.
const STEPS_PER_OCTAVE: u64 = 64;
const STEPS: u64 = 10 * STEPS_PER_OCTAVE;

/// Which memory of a node a put touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Space {
    /// Host DRAM.
    Host,
    /// GPU0 device memory (pinned, reached through BAR1).
    Gpu0,
}

/// One asynchronous put.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Put {
    /// Issuing node (its board's DMAC runs the transfer).
    pub src_node: u32,
    /// Destination node, 1..=7 positions further round the ring.
    pub dst_node: u32,
    /// Source memory.
    pub src: Space,
    /// Destination memory.
    pub dst: Space,
    /// Offset into the source pattern.
    pub src_off: u64,
    /// Bytes moved.
    pub len: u64,
}

/// The short PIO store closing a round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pio {
    /// Storing node.
    pub from: u32,
    /// Target node.
    pub to: u32,
    /// 8–64 bytes.
    pub data: Vec<u8>,
}

/// One closed-loop round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Round {
    /// One put per node, indexed by source node.
    pub puts: Vec<Put>,
    /// The closing PIO put.
    pub pio: Pio,
}

fn space(rng: &mut SimRng) -> Space {
    if rng.gen_range(2) == 0 {
        Space::Host
    } else {
        Space::Gpu0
    }
}

/// Size of log step `s` of [`STEPS`]: piecewise-linear between octaves,
/// rounded down to [`GRAIN`].
fn step_len(s: u64) -> u64 {
    let octave = s / STEPS_PER_OCTAVE;
    let frac = s % STEPS_PER_OCTAVE;
    ((MIN_LEN << octave) * (STEPS_PER_OCTAVE + frac) / STEPS_PER_OCTAVE) / GRAIN * GRAIN
}

/// The put list of `rounds` rounds for `seed`.
///
/// Sizes are log-uniform but stratified: every round deals one stratum of
/// the size range to each node in a seeded order, so a round moves a
/// similar byte total whatever the seed, and a pass's cost tracks the
/// simulator rather than the draw.
pub fn generate(seed: u64, rounds: u32) -> Vec<Round> {
    let mut rng = SimRng::seed_from_u64(seed);
    let width = STEPS / u64::from(NODES);
    (0..rounds)
        .map(|_| {
            let mut strata: Vec<u64> = (0..u64::from(NODES)).collect();
            for i in (1..strata.len()).rev() {
                let j = rng.gen_range(i as u64 + 1) as usize;
                strata.swap(i, j);
            }
            let puts = (0..NODES)
                .map(|src_node| {
                    let len = step_len(strata[src_node as usize] * width + rng.gen_range(width));
                    let hop = 1 + rng.gen_range(u64::from(NODES) - 1) as u32;
                    Put {
                        src_node,
                        dst_node: (src_node + hop) % NODES,
                        src: space(&mut rng),
                        dst: space(&mut rng),
                        src_off: rng.gen_range((SRC_SPAN - len) / GRAIN + 1) * GRAIN,
                        len,
                    }
                })
                .collect();
            let from = rng.gen_range(u64::from(NODES)) as u32;
            let to = (from + 1 + rng.gen_range(u64::from(NODES) - 1) as u32) % NODES;
            let mut data = vec![0u8; 8 * (1 + rng.gen_range(8) as usize)];
            rng.fill_bytes(&mut data);
            Round {
                puts,
                pio: Pio { from, to, data },
            }
        })
        .collect()
}

/// The simulated cluster plus the buffers the traffic reads and writes.
pub struct World {
    /// The 8-node TCA sub-cluster.
    pub cluster: TcaCluster,
    gpu_src: Vec<GpuAlloc>,
    gpu_dst: Vec<GpuAlloc>,
}

fn source_pattern(node: u32, space: Space) -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(0x7ca0_0000 + 2 * u64::from(node) + space as u64);
    let mut v = vec![0u8; SRC_SPAN as usize];
    rng.fill_bytes(&mut v);
    v
}

impl World {
    /// Builds the ring and writes each node's host and GPU source patterns.
    /// Patterns differ per node and memory, so a misrouted put is caught.
    pub fn new() -> World {
        let mut cluster = TcaClusterBuilder::new(NODES).build();
        let mut gpu_src = Vec::new();
        let mut gpu_dst = Vec::new();
        for n in 0..NODES {
            cluster.write(&MemRef::host(n, HOST_SRC), &source_pattern(n, Space::Host));
            let s = cluster.alloc_gpu(n, 0, SRC_SPAN);
            cluster.write(&s.at(0), &source_pattern(n, Space::Gpu0));
            gpu_src.push(s);
            gpu_dst.push(cluster.alloc_gpu(n, 0, u64::from(NODES) * MAX_LEN));
        }
        World {
            cluster,
            gpu_src,
            gpu_dst,
        }
    }

    fn src_ref(&self, p: &Put) -> MemRef {
        match p.src {
            Space::Host => MemRef::host(p.src_node, HOST_SRC + p.src_off),
            Space::Gpu0 => self.gpu_src[p.src_node as usize].at(p.src_off),
        }
    }

    /// Where `p` lands: each source node owns one [`MAX_LEN`] slot per
    /// destination memory, so the puts of a round never overlap.
    pub fn dst_ref(&self, p: &Put) -> MemRef {
        let slot = u64::from(p.src_node) * MAX_LEN;
        match p.dst {
            Space::Host => MemRef::host(p.dst_node, HOST_DST + slot),
            Space::Gpu0 => self.gpu_dst[p.dst_node as usize].at(slot),
        }
    }

    fn pio_ref(pio: &Pio) -> MemRef {
        MemRef::host(pio.to, HOST_PIO + u64::from(pio.from) * 64)
    }

    /// Starts every put of `round`, one chained-DMA activation per board.
    pub fn issue(&mut self, round: &Round) -> Vec<TcaEvent> {
        round
            .puts
            .iter()
            .map(|p| {
                let (dst, src) = (self.dst_ref(p), self.src_ref(p));
                self.cluster.memcpy_peer_async(&dst, &src, p.len)
            })
            .collect()
    }

    /// Waits for every completion interrupt, then drains for remote
    /// visibility (a completion is a source-side event).
    pub fn complete(&mut self, events: Vec<TcaEvent>) {
        for ev in events {
            self.cluster.wait(ev);
        }
        self.cluster.synchronize();
    }

    /// The round's closing PIO put (synchronous).
    pub fn pio(&mut self, round: &Round) {
        let dst = Self::pio_ref(&round.pio);
        self.cluster.pio_put(round.pio.from, &dst, &round.pio.data);
    }

    /// Reads back every byte the round wrote: one check per put plus one
    /// for the PIO store.
    pub fn verify(&self, round: &Round, checks: &mut Checks) {
        for p in &round.puts {
            let got = self.cluster.read(&self.dst_ref(p), p.len as usize);
            let want = self.cluster.read(&self.src_ref(p), p.len as usize);
            checks.record(got == want, || {
                format!("ring-traffic put {p:?} read back wrong")
            });
        }
        let pio = &round.pio;
        let got = self.cluster.read(&Self::pio_ref(pio), pio.data.len());
        checks.record(got == pio.data, || {
            format!("ring-traffic pio {}->{} read back wrong", pio.from, pio.to)
        });
    }
}

impl Default for World {
    fn default() -> World {
        World::new()
    }
}

/// Outcome of one pass.
#[derive(Clone, Copy, Debug)]
pub struct RingReport {
    /// Host seconds spent issuing and waiting (read-back excluded).
    pub timed_s: f64,
    /// Read-back checks.
    pub checks: Checks,
    /// Payload bytes moved by the puts.
    pub bytes: u64,
}

/// Runs one pass: `rounds` rounds of the `seed` put list on a fresh world.
pub fn run(seed: u64, rounds: u32) -> RingReport {
    let plan = generate(seed, rounds);
    let mut world = World::new();
    let mut timed = Duration::ZERO;
    let mut checks = Checks::default();
    for round in &plan {
        let t = Instant::now();
        let events = world.issue(round);
        world.complete(events);
        world.pio(round);
        timed += t.elapsed();
        world.verify(round, &mut checks);
    }
    RingReport {
        timed_s: timed.as_secs_f64(),
        checks,
        bytes: plan.iter().flat_map(|r| &r.puts).map(|p| p.len).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_lengths_span_the_range() {
        assert_eq!(step_len(0), MIN_LEN);
        assert!(step_len(STEPS - 1) <= MAX_LEN);
        assert!(step_len(STEPS - 1) > MAX_LEN / 2 + MAX_LEN / 4);
        for s in 1..STEPS {
            assert!(step_len(s) >= step_len(s - 1), "monotone at {s}");
            assert_eq!(step_len(s) % GRAIN, 0);
        }
    }

    #[test]
    fn rounds_are_closed_loop_and_stratified() {
        for round in generate(7, 50) {
            assert_eq!(round.puts.len(), NODES as usize);
            for (i, p) in round.puts.iter().enumerate() {
                assert_eq!(p.src_node, i as u32, "one put per node");
                assert_ne!(p.dst_node, p.src_node);
                assert!((MIN_LEN..=MAX_LEN).contains(&p.len));
                assert!(p.src_off + p.len <= SRC_SPAN);
            }
            let mut octaves: Vec<u32> = round.puts.iter().map(|p| p.len.ilog2()).collect();
            octaves.sort_unstable();
            assert!(
                octaves[0] <= 9 && octaves[7] >= 16,
                "spans the range: {octaves:?}"
            );
            assert_ne!(round.pio.from, round.pio.to);
            assert!((8..=64).contains(&round.pio.data.len()));
        }
    }
}
