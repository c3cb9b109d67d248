//! `Timed<W>`: a `CommWorld` that forwards every call to `W` and charges
//! the host time of each call to a communication category — the span
//! boundary between the app kernels and `core::comm`, recorded from the
//! benchmark's side of the call.

use std::cell::Cell;
use std::time::{Duration, Instant};
use tca_core::{CommWorld, GpuAlloc, MemRef, PutSpec};
use tca_sim::{Dur, SimTime};

/// Host time per communication category.
#[derive(Clone, Debug, Default)]
pub struct CommTimes {
    /// `put`, `put_batch`, `put_strided`.
    pub put: Cell<Duration>,
    /// `barrier`.
    pub barrier: Cell<Duration>,
    /// `allgather`.
    pub allgather: Cell<Duration>,
    /// `allreduce_scalar_f64`.
    pub allreduce: Cell<Duration>,
    /// `write`, `read`, `alloc_gpu` (functional data access).
    pub data: Cell<Duration>,
}

impl CommTimes {
    /// Sum over every category.
    pub fn total(&self) -> Duration {
        self.put.get()
            + self.barrier.get()
            + self.allgather.get()
            + self.allreduce.get()
            + self.data.get()
    }
}

fn charge<R>(slot: &Cell<Duration>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    slot.set(slot.get() + t.elapsed());
    r
}

/// A timing wrapper around a communication world.
pub struct Timed<W> {
    /// The wrapped world.
    pub inner: W,
    /// Host time charged so far.
    pub times: CommTimes,
}

impl<W: CommWorld> Timed<W> {
    /// Wraps `inner` with zeroed timers.
    pub fn new(inner: W) -> Timed<W> {
        Timed {
            inner,
            times: CommTimes::default(),
        }
    }
}

impl<W: CommWorld> CommWorld for Timed<W> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn nodes(&self) -> u32 {
        self.inner.nodes()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn alloc_gpu(&mut self, node: u32, gpu: usize, len: u64) -> GpuAlloc {
        charge(&self.times.data, || self.inner.alloc_gpu(node, gpu, len))
    }

    fn write(&mut self, m: &MemRef, data: &[u8]) {
        charge(&self.times.data, || self.inner.write(m, data))
    }

    fn read(&self, m: &MemRef, len: usize) -> Vec<u8> {
        charge(&self.times.data, || self.inner.read(m, len))
    }

    fn put_batch(&mut self, puts: &[PutSpec]) -> Dur {
        charge(&self.times.put, || self.inner.put_batch(puts))
    }

    // Forwarded rather than left to the provided method, so a backend that
    // overrides `put` keeps its own path under the wrapper.
    fn put(&mut self, dst: &MemRef, src: &MemRef, len: u64) -> Dur {
        charge(&self.times.put, || self.inner.put(dst, src, len))
    }

    fn put_strided(
        &mut self,
        dst: &MemRef,
        dst_stride: u64,
        src: &MemRef,
        src_stride: u64,
        block_len: u64,
        count: u64,
    ) -> Dur {
        charge(&self.times.put, || {
            self.inner
                .put_strided(dst, dst_stride, src, src_stride, block_len, count)
        })
    }

    fn barrier(&mut self) -> Dur {
        charge(&self.times.barrier, || self.inner.barrier())
    }

    fn allgather(&mut self, addr: u64, len: u64) -> Dur {
        charge(&self.times.allgather, || self.inner.allgather(addr, len))
    }

    fn allreduce_scalar_f64(&mut self, addr: u64) -> f64 {
        charge(&self.times.allreduce, || {
            self.inner.allreduce_scalar_f64(addr)
        })
    }
}
