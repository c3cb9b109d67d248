//! Host-side TLP accounting for `tca-prof`: per-thread counters of TLP
//! constructions, clones, and router relay hops.
//!
//! Like the queue counters in [`tca_sim::prof`], these are pure host-side
//! integers — they never schedule events or consult wall-clock time, so
//! the determinism lint and the byte-identity tests stay intact. The
//! counters are compiled to no-ops unless the `host-prof` feature is on.
//! With it they are plain thread-local cells, like the per-thread
//! allocation tally in [`tca_sim::prof`], so counting costs no atomic
//! read-modify-write per TLP.
//!
//! A `Tlp` has no back-pointer to a fabric, so consumers measure *deltas*
//! around a workload, read on the thread that ran it; `tca-bench`'s
//! profiler does exactly that. Work on other threads never shows up.

/// Snapshot of the calling thread's TLP accounting counters. All zeros
/// unless the `host-prof` feature is enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlpCounts {
    /// TLPs built through the [`crate::Tlp`] constructors
    /// (`write`/`read`/`completion`/`msi`).
    pub constructed: u64,
    /// TLP clones (each one duplicates the payload handle and span).
    pub cloned: u64,
    /// PEACH2 router relay hops (a TLP re-built at an intermediate chip).
    pub relay_hops: u64,
}

impl TlpCounts {
    /// Counter increments since `earlier`.
    pub fn since(&self, earlier: &TlpCounts) -> TlpCounts {
        TlpCounts {
            constructed: self.constructed - earlier.constructed,
            cloned: self.cloned - earlier.cloned,
            relay_hops: self.relay_hops - earlier.relay_hops,
        }
    }
}

#[cfg(feature = "host-prof")]
thread_local! {
    static COUNTS: std::cell::Cell<TlpCounts> = const {
        std::cell::Cell::new(TlpCounts {
            constructed: 0,
            cloned: 0,
            relay_hops: 0,
        })
    };
}

/// Applies `f` to the calling thread's counters.
#[inline]
fn bump(_f: impl FnOnce(&mut TlpCounts)) {
    #[cfg(feature = "host-prof")]
    COUNTS.with(|c| {
        let mut n = c.get();
        _f(&mut n);
        c.set(n);
    });
}

/// Records one TLP construction (called by the [`crate::Tlp`] builders).
#[inline]
pub fn count_tlp_new() {
    bump(|n| n.constructed += 1);
}

/// Records one TLP clone.
#[inline]
pub fn count_tlp_clone() {
    bump(|n| n.cloned += 1);
}

/// Records one router relay hop (called from the PEACH2 relay path).
#[inline]
pub fn count_relay_hop() {
    bump(|n| n.relay_hops += 1);
}

/// The calling thread's TLP counters (zeros without `host-prof`).
pub fn tlp_counts() -> TlpCounts {
    #[cfg(feature = "host-prof")]
    {
        COUNTS.with(std::cell::Cell::get)
    }
    #[cfg(not(feature = "host-prof"))]
    {
        TlpCounts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlp_counts_delta() {
        let a = TlpCounts {
            constructed: 5,
            cloned: 2,
            relay_hops: 1,
        };
        let b = TlpCounts {
            constructed: 9,
            cloned: 4,
            relay_hops: 3,
        };
        assert_eq!(
            b.since(&a),
            TlpCounts {
                constructed: 4,
                cloned: 2,
                relay_hops: 2,
            }
        );
    }

    #[cfg(feature = "host-prof")]
    #[test]
    fn construction_and_clone_counting_is_live() {
        let before = tlp_counts();
        let t = crate::Tlp::write(0x1000, vec![0u8; 64]);
        let _c = t.clone();
        let d = tlp_counts().since(&before);
        assert_eq!((d.constructed, d.cloned), (1, 1), "{d:?}");
    }
}
