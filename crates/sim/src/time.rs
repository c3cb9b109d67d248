//! Simulated time.
//!
//! The whole simulation runs on an integer picosecond clock. Picoseconds
//! give enough resolution to express single-symbol times on a PCIe Gen3
//! lane (one byte at 8 GT/s ≈ 125 ps) while still allowing simulations of
//! several simulated seconds inside a `u64` (≈ 5.1 simulated months).
//!
//! Two newtypes keep instants and durations from being mixed up:
//! [`SimTime`] is a point on the simulation clock, [`Dur`] is a span.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An instant on the simulation clock, in picoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Instant in nanoseconds (lossy, for reporting).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Instant in microseconds (lossy, for reporting).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; that always indicates a
    /// causality bug in a device model.
    #[inline]
    #[track_caller]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self
            .0
            .checked_sub(earlier.0)
            .expect("SimTime::since: negative duration (causality violation)"))
    }

    /// `self + d`, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, d: Dur) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Builds a span from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Dur(ps)
    }

    /// Builds a span from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Dur(ns * PS_PER_NS)
    }

    /// Builds a span from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Dur(us * PS_PER_US)
    }

    /// Builds a span from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Dur(ms * PS_PER_MS)
    }

    /// Builds a span from seconds.
    #[inline]
    pub const fn from_s(s: u64) -> Self {
        Dur(s * PS_PER_S)
    }

    /// Builds a span from fractional nanoseconds, rounding to the nearest
    /// picosecond. Convenient for timing parameters quoted as e.g. `0.8 ns`.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration");
        Dur((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Span in nanoseconds (lossy, for reporting).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Span in microseconds (lossy, for reporting).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Span in seconds (lossy, for reporting).
    #[inline]
    pub fn as_s_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Time to move `bytes` at `bytes_per_sec`, rounded up to a whole
    /// picosecond so that serialization time is never under-counted.
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Dur {
        assert!(bytes_per_sec > 0, "zero-rate link");
        // ps = bytes * 1e12 / rate: exact in u64 up to ~18 MB, in u128
        // beyond (a 128-bit divide is a libcall, too slow per packet).
        match bytes.checked_mul(PS_PER_S) {
            Some(n) => Dur(n.div_ceil(bytes_per_sec)),
            None => Self::for_bytes_wide(bytes, bytes_per_sec),
        }
    }

    /// [`Dur::for_bytes`] computed in u128, for bursts whose
    /// `bytes * PS_PER_S` overflows u64.
    fn for_bytes_wide(bytes: u64, bytes_per_sec: u64) -> Dur {
        let ps = (u128::from(bytes) * u128::from(PS_PER_S)).div_ceil(u128::from(bytes_per_sec));
        Dur(ps.try_into().expect("duration overflow"))
    }

    /// `self * n`, checked in debug builds.
    #[inline]
    pub fn times(self, n: u64) -> Dur {
        Dur(self.0.checked_mul(n).expect("duration overflow"))
    }

    /// Largest of two spans.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: Dur) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        *self = *self + d;
    }
}

impl Sub<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    #[track_caller]
    fn sub(self, d: Dur) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("SimTime underflow"))
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("Dur overflow"))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    #[track_caller]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("Dur underflow"))
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, n: u64) -> Dur {
        self.times(n)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, n: u64) -> Dur {
        Dur(self.0 / n)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps == 0 {
        write!(f, "0ns")
    } else if ps < PS_PER_NS {
        write!(f, "{ps}ps")
    } else if ps < PS_PER_US {
        write!(f, "{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else if ps < PS_PER_MS {
        write!(f, "{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps < PS_PER_S {
        write!(f, "{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else {
        write!(f, "{:.6}s", ps as f64 / PS_PER_S as f64)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t=")?;
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Dur::from_ns(1).as_ps(), 1_000);
        assert_eq!(Dur::from_us(1).as_ps(), 1_000_000);
        assert_eq!(Dur::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(Dur::from_s(1).as_ps(), 1_000_000_000_000);
        assert_eq!(Dur::from_ns_f64(0.5).as_ps(), 500);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Dur::from_ns(10);
        assert_eq!(t.as_ps(), 10_000);
        let t2 = t + Dur::from_ns(5);
        assert_eq!(t2.since(t), Dur::from_ns(5));
        assert_eq!(t2 - Dur::from_ns(15), SimTime::ZERO);
        assert_eq!(Dur::from_ns(3) * 4, Dur::from_ns(12));
        assert_eq!(Dur::from_ns(12) / 4, Dur::from_ns(3));
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn since_panics_on_negative() {
        let early = SimTime::from_ps(10);
        let late = SimTime::from_ps(20);
        let _ = early.since(late);
    }

    #[test]
    fn for_bytes_rounds_up() {
        // 4 GB/s: one byte takes 250 ps.
        let rate = 4_000_000_000;
        assert_eq!(Dur::for_bytes(1, rate).as_ps(), 250);
        assert_eq!(Dur::for_bytes(4, rate).as_ps(), 1_000);
        // Non-divisible case rounds up.
        assert_eq!(Dur::for_bytes(1, 3_000_000_000_000).as_ps(), 1);
    }

    #[test]
    fn for_bytes_large_burst_no_overflow() {
        // 1 GiB at 1 GB/s ≈ 1.07 s; must not overflow intermediate math.
        let d = Dur::for_bytes(1 << 30, 1_000_000_000);
        assert!(d.as_s_f64() > 1.0 && d.as_s_f64() < 1.1);
    }

    #[test]
    fn for_bytes_u64_path_matches_u128_at_edge_sizes() {
        // The largest burst the u64 path takes, and the first it hands to
        // u128, plus packet sizes; rates that divide evenly and that don't.
        let edge = u64::MAX / PS_PER_S;
        let sizes = [
            0,
            1,
            24,
            280,
            4_120,
            1 << 20,
            edge - 1,
            edge,
            edge + 1,
            1 << 40,
        ];
        let rates = [
            1,
            3,
            4_000_000_000,
            7_876_923_076,
            3_000_000_000_000,
            u64::MAX,
        ];
        for bytes in sizes {
            for rate in rates {
                let want = (u128::from(bytes) * u128::from(PS_PER_S)).div_ceil(u128::from(rate));
                if let Ok(want) = u64::try_from(want) {
                    let got = Dur::for_bytes(bytes, rate);
                    assert_eq!(got.as_ps(), want, "{bytes} B at {rate} B/s");
                }
            }
        }
        assert!(edge.checked_mul(PS_PER_S).is_some());
        assert!((edge + 1).checked_mul(PS_PER_S).is_none());
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Dur::from_ps(1)), "1ps");
        assert_eq!(format!("{}", Dur::from_ns(1)), "1.000ns");
        assert_eq!(format!("{}", Dur::from_us(2)), "2.000us");
        assert_eq!(format!("{}", Dur::from_ms(3)), "3.000ms");
        assert_eq!(format!("{}", SimTime::ZERO), "0ns");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ps(1) < SimTime::from_ps(2));
        assert!(Dur::from_ns(1) < Dur::from_us(1));
        assert_eq!(Dur::from_ns(7).max(Dur::from_ns(3)), Dur::from_ns(7));
    }

    #[test]
    fn sum_of_durations() {
        let total: Dur = [Dur::from_ns(1), Dur::from_ns(2), Dur::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Dur::from_ns(6));
    }

    #[test]
    fn saturating_add() {
        assert_eq!(SimTime::MAX.saturating_add(Dur::from_ns(1)), SimTime::MAX);
    }
}
