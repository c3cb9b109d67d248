//! A fixed probe of host speed, independent of the code under test.
//!
//! A shared box drifts in speed by 5–50 % over minutes whatever the code
//! does. Timed end-to-end metrics are therefore reported in *reference
//! seconds*: measured seconds scaled by how much slower or faster this
//! probe ran around the measurement than on the reference box. The probe
//! mixes the three things the simulator spends host time on — dependent
//! integer work, dependent loads that miss the cache, and bulk copies —
//! and it never calls the library, so a change to the simulator cannot
//! move it.

use std::hint::black_box;
use std::time::Instant;

/// Median probe time on the reference box (2-core Intel Xeon VM), ms.
pub const REF_MS: f64 = 65.0;

/// Entries of the pointer-chase table (16 MiB).
const CHASE_LEN: usize = 4 << 20;
/// Bytes per copy buffer.
const COPY_LEN: usize = 4 << 20;

/// The probe's working set, built once per process.
pub struct Calib {
    chase: Vec<u32>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Calib {
    /// Builds the working set: a single random cycle through the chase
    /// table (Sattolo's shuffle, fixed seed) and two copy buffers.
    pub fn new() -> Calib {
        let mut chase: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..CHASE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chase.swap(i, (x % i as u64) as usize);
        }
        Calib {
            chase,
            src: vec![0x5a; COPY_LEN],
            dst: vec![0; COPY_LEN],
        }
    }

    /// One probe, ms.
    fn sample_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..black_box(8_000_000u64) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        let mut at = 0u32;
        for _ in 0..black_box(300_000) {
            at = self.chase[at as usize];
        }
        for _ in 0..black_box(16) {
            self.dst.copy_from_slice(black_box(&self.src));
        }
        black_box((x, at, &self.dst));
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Median of `n` probes, ms.
    pub fn median_ms(&mut self, n: usize) -> f64 {
        let xs: Vec<f64> = (0..n).map(|_| self.sample_ms()).collect();
        crate::stats::median(&xs)
    }
}

impl Default for Calib {
    fn default() -> Calib {
        Calib::new()
    }
}

/// Probes spread through a run: each timed figure is scaled to reference
/// seconds by the mean of the probe taken before it and the one taken
/// right after, so a figure is corrected for the host speed of its own
/// moment.
pub struct Scaler {
    calib: Calib,
    probes: Vec<f64>,
}

/// Probes per sample (the median is kept).
const PROBES_PER_SAMPLE: usize = 3;

impl Scaler {
    /// Takes the first sample.
    pub fn new() -> Scaler {
        let mut calib = Calib::new();
        let first = calib.median_ms(PROBES_PER_SAMPLE);
        Scaler {
            calib,
            probes: vec![first],
        }
    }

    /// Samples host speed now; returns the factor that turns seconds timed
    /// since the last sample into reference seconds.
    pub fn factor(&mut self) -> f64 {
        let before = *self.probes.last().expect("sampled at construction");
        let after = self.calib.median_ms(PROBES_PER_SAMPLE);
        self.probes.push(after);
        REF_MS / ((before + after) / 2.0)
    }

    /// Median sample of the run, ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.probes)
    }
}

impl Default for Scaler {
    fn default() -> Scaler {
        Scaler::new()
    }
}
