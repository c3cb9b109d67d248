//! Deterministic time-series gauge sampling and the progress watchdog.
//!
//! Both tools observe the simulation without perturbing it — the continuous
//! half of the telemetry determinism contract ([`crate::metrics`]):
//!
//! * [`Sampler`] records the level of every registered gauge at a fixed
//!   simulated-time period. It never schedules events: the driving loop
//!   (e.g. the PCIe fabric's `step()`) peeks the time of the next queued
//!   event and lets the sampler catch up over the *already decided* gap, so
//!   an instrumented run pops exactly the same events at exactly the same
//!   instants as an uninstrumented one.
//! * [`Watchdog`] detects livelock/stall: the driver reports forward
//!   progress (DRAM commits, interrupts) and checks for expiry between
//!   events; when the configured simulated window passes without progress
//!   the watchdog captures a [`StallReport`] carrying a rendered diagnosis
//!   instead of leaving a silently non-terminating (or silently draining)
//!   event loop.

use crate::json::JsonValue;
use crate::metrics::MetricsHub;
use crate::time::{Dur, SimTime};
use std::collections::HashMap;

/// The sampled time-series of one gauge.
#[derive(Clone, Debug, Default)]
pub struct GaugeSeries {
    /// The gauge's hierarchical dot name (e.g. `link.0.fwd.queue_depth`).
    pub name: String,
    /// `(instant, level)` pairs in increasing time order.
    pub samples: Vec<(SimTime, i64)>,
}

/// Periodic, deterministic recorder of gauge time-series.
///
/// A `Sampler` is passive: it holds the next due instant and the recorded
/// series, and the event loop calls [`Sampler::capture`] for every due
/// instant strictly before the next event is popped. Because capture
/// instants are a pure function of the period and the event timeline, the
/// recorded series are byte-identical across runs — and absent entirely from
/// the event queue, so enabling sampling cannot move a single timestamp.
#[derive(Clone, Debug)]
pub struct Sampler {
    period: Dur,
    next: SimTime,
    series: Vec<GaugeSeries>,
    index: HashMap<String, usize>,
}

impl Sampler {
    /// Creates a sampler that captures every `period` of simulated time,
    /// with the first capture due at `t = 0`.
    ///
    /// # Panics
    /// Panics on a zero period (the catch-up loop would never terminate).
    pub fn new(period: Dur) -> Self {
        assert!(period > Dur::ZERO, "sampler period must be positive");
        Sampler {
            period,
            next: SimTime::ZERO,
            series: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The configured sampling period.
    pub fn period(&self) -> Dur {
        self.period
    }

    /// The next instant a capture is due.
    pub fn next_due(&self) -> SimTime {
        self.next
    }

    /// True when a capture is due strictly before `t` — the driver calls
    /// this with the time of the next queued event, so all same-instant
    /// events at a boundary are processed before the boundary is sampled.
    pub fn due_before(&self, t: SimTime) -> bool {
        self.next < t
    }

    /// Records the current level of every gauge in `hub` at instant `at`
    /// and advances the next due instant by one period.
    pub fn capture(&mut self, at: SimTime, hub: &MetricsHub) {
        for (name, current, _peak) in hub.gauges_iter() {
            let idx = match self.index.get(name) {
                Some(&i) => i,
                None => {
                    let i = self.series.len();
                    self.index.insert(name.to_string(), i);
                    self.series.push(GaugeSeries {
                        name: name.to_string(),
                        samples: Vec::new(),
                    });
                    i
                }
            };
            self.series[idx].samples.push((at, current));
        }
        self.next = self.next.saturating_add(self.period);
    }

    /// All recorded series, sorted by gauge name.
    pub fn series(&self) -> Vec<&GaugeSeries> {
        let mut out: Vec<&GaugeSeries> = self.series.iter().collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Looks up one series by gauge name.
    pub fn series_by_name(&self, name: &str) -> Option<&GaugeSeries> {
        self.index.get(name).map(|&i| &self.series[i])
    }

    /// Number of captures taken so far (every series has this many samples,
    /// except gauges registered after the first capture).
    pub fn captures(&self) -> usize {
        self.series
            .iter()
            .map(|s| s.samples.len())
            .max()
            .unwrap_or(0)
    }

    /// Mean level of one series, as an exact rational rounded toward zero
    /// (`None` when empty). Integer arithmetic keeps report output
    /// byte-stable.
    pub fn mean_of(&self, name: &str) -> Option<i64> {
        let s = self.series_by_name(name)?;
        if s.samples.is_empty() {
            return None;
        }
        let sum: i64 = s.samples.iter().map(|&(_, v)| v).sum();
        Some(sum / s.samples.len() as i64)
    }

    /// Fraction of samples with a level strictly above zero, in parts per
    /// thousand (integer, byte-stable). `None` when the series is unknown
    /// or empty.
    pub fn busy_permille(&self, name: &str) -> Option<u64> {
        let s = self.series_by_name(name)?;
        if s.samples.is_empty() {
            return None;
        }
        let busy = s.samples.iter().filter(|&&(_, v)| v > 0).count() as u64;
        Some(busy * 1000 / s.samples.len() as u64)
    }

    /// Serializes every series as JSON, sorted by name:
    /// `{"schema":"tca-series/v1","period_ns":N,"series":{name:[[t_ns,v],…]}}`.
    /// Timestamps are integer nanoseconds; byte-identical across runs.
    pub fn to_json(&self) -> String {
        let mut root = JsonValue::object();
        root.push("schema", JsonValue::from("tca-series/v1"));
        root.push("period_ns", JsonValue::from(self.period.as_ps() / 1_000));
        let mut series = JsonValue::object();
        for s in self.series() {
            let points: Vec<JsonValue> = s
                .samples
                .iter()
                .map(|&(t, v)| {
                    JsonValue::Array(vec![JsonValue::from(t.as_ps() / 1_000), JsonValue::from(v)])
                })
                .collect();
            series.push(s.name.clone(), JsonValue::Array(points));
        }
        root.push("series", series);
        root.to_json()
    }

    /// Appends every sample to `events` as a Chrome-trace *counter* event
    /// (`"ph":"C"`); appends nothing when nothing was sampled.
    pub fn chrome_counter_events(&self, events: &mut Vec<JsonValue>) {
        for s in self.series() {
            for &(t, v) in &s.samples {
                let mut ev = JsonValue::object();
                ev.push("name", JsonValue::from(s.name.clone()));
                ev.push("ph", JsonValue::from("C"));
                ev.push("ts", JsonValue::from(t.as_us_f64()));
                ev.push("pid", JsonValue::from(0u64));
                ev.push("tid", JsonValue::from(0u64));
                let mut args = JsonValue::object();
                args.push("value", JsonValue::from(v));
                ev.push("args", args);
                events.push(ev);
            }
        }
    }
}

/// Everything the watchdog knew when it fired.
#[derive(Clone, Debug)]
pub struct StallReport {
    /// Simulated instant the stall was detected.
    pub at: SimTime,
    /// Last instant forward progress was reported.
    pub last_progress: SimTime,
    /// The configured no-progress window.
    pub window: Dur,
    /// Human-readable diagnosis assembled by the driver (credit state,
    /// oldest in-flight span, stalled engines).
    pub diagnosis: String,
}

impl StallReport {
    /// Renders the report as a multi-line message.
    pub fn render(&self) -> String {
        format!(
            "WATCHDOG: no forward progress for {} (window {}, last progress at {}, detected at {})\n{}",
            self.at.since(self.last_progress),
            self.window,
            self.last_progress,
            self.at,
            self.diagnosis
        )
    }
}

/// Simulated-time progress watchdog.
///
/// The driver calls [`Watchdog::progress`] at every forward-progress event
/// (DRAM commit, interrupt delivery) and [`Watchdog::expired`] between
/// events; on expiry it assembles a diagnosis string and calls
/// [`Watchdog::fire`]. The watchdog fires at most once and never touches
/// the event queue, so arming it is time-neutral.
#[derive(Clone, Debug)]
pub struct Watchdog {
    window: Dur,
    last_progress: SimTime,
    fired: Option<StallReport>,
}

impl Watchdog {
    /// Creates a watchdog with the given no-progress window.
    ///
    /// # Panics
    /// Panics on a zero window.
    pub fn new(window: Dur) -> Self {
        assert!(window > Dur::ZERO, "watchdog window must be positive");
        Watchdog {
            window,
            last_progress: SimTime::ZERO,
            fired: None,
        }
    }

    /// The configured no-progress window.
    pub fn window(&self) -> Dur {
        self.window
    }

    /// Last instant progress was reported.
    pub fn last_progress(&self) -> SimTime {
        self.last_progress
    }

    /// Reports forward progress at instant `at`.
    pub fn progress(&mut self, at: SimTime) {
        self.last_progress = self.last_progress.max(at);
    }

    /// True when the window has elapsed without progress and the watchdog
    /// has not fired yet.
    pub fn expired(&self, now: SimTime) -> bool {
        self.fired.is_none() && now > self.last_progress.saturating_add(self.window)
    }

    /// Fires with a driver-assembled diagnosis. Later calls are ignored —
    /// the first stall is the root cause worth reporting.
    pub fn fire(&mut self, at: SimTime, diagnosis: String) {
        if self.fired.is_none() {
            self.fired = Some(StallReport {
                at,
                last_progress: self.last_progress,
                window: self.window,
                diagnosis,
            });
        }
    }

    /// The stall report, when the watchdog has fired.
    pub fn report(&self) -> Option<&StallReport> {
        self.fired.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub_with_gauge(name: &str, v: i64) -> MetricsHub {
        let mut hub = MetricsHub::new();
        let g = hub.gauge(name);
        hub.gauge_set(g, v);
        hub
    }

    #[test]
    fn sampler_captures_on_strict_period_grid() {
        let mut s = Sampler::new(Dur::from_ns(100));
        let hub = hub_with_gauge("q", 3);
        // A capture at t is due only for events strictly after t.
        assert!(!s.due_before(SimTime::ZERO));
        assert!(s.due_before(SimTime::from_ps(1)));
        s.capture(SimTime::ZERO, &hub);
        assert_eq!(s.next_due(), SimTime::ZERO + Dur::from_ns(100));
        s.capture(SimTime::ZERO + Dur::from_ns(100), &hub);
        let series = s.series_by_name("q").unwrap();
        assert_eq!(
            series.samples,
            vec![(SimTime::ZERO, 3), (SimTime::ZERO + Dur::from_ns(100), 3)]
        );
        assert_eq!(s.captures(), 2);
    }

    #[test]
    fn sampler_series_sorted_and_json_stable() {
        let mut hub = MetricsHub::new();
        let b = hub.gauge("b.depth");
        let a = hub.gauge("a.depth");
        hub.gauge_set(b, 2);
        hub.gauge_set(a, 1);
        let mut s = Sampler::new(Dur::from_ns(50));
        s.capture(SimTime::ZERO, &hub);
        let names: Vec<_> = s.series().iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, ["a.depth", "b.depth"]);
        let j = s.to_json();
        assert!(j.starts_with("{\"schema\":\"tca-series/v1\",\"period_ns\":50,"));
        assert!(j.contains("\"a.depth\":[[0,1]]"));
        // Identical construction → identical bytes.
        let mut s2 = Sampler::new(Dur::from_ns(50));
        s2.capture(SimTime::ZERO, &hub);
        assert_eq!(j, s2.to_json());
    }

    #[test]
    fn sampler_summaries_use_integer_arithmetic() {
        let mut hub = MetricsHub::new();
        let g = hub.gauge("q");
        let mut s = Sampler::new(Dur::from_ns(10));
        for (i, v) in [0i64, 3, 0, 5].iter().enumerate() {
            hub.gauge_set(g, *v);
            s.capture(SimTime::from_ps(i as u64 * 10_000), &hub);
        }
        assert_eq!(s.mean_of("q"), Some(2)); // 8 / 4
        assert_eq!(s.busy_permille("q"), Some(500)); // 2 of 4
        assert_eq!(s.mean_of("missing"), None);
    }

    #[test]
    fn chrome_counter_events_shape() {
        let hub = hub_with_gauge("link.0.fwd.queue_depth", 7);
        let mut s = Sampler::new(Dur::from_us(1));
        s.capture(SimTime::from_ps(2_000_000), &hub);
        let mut events = Vec::new();
        s.chrome_counter_events(&mut events);
        let j = JsonValue::Array(events).to_json();
        assert!(j.contains("\"ph\":\"C\""));
        assert!(j.contains("\"ts\":2"));
        assert!(j.contains("\"value\":7"));
        let mut none = Vec::new();
        Sampler::new(Dur::from_us(1)).chrome_counter_events(&mut none);
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let _ = Sampler::new(Dur::ZERO);
    }

    #[test]
    fn watchdog_fires_once_after_quiet_window() {
        let mut w = Watchdog::new(Dur::from_us(10));
        w.progress(SimTime::from_ps(5_000_000));
        assert!(!w.expired(SimTime::from_ps(15_000_000))); // exactly at bound
        assert!(w.expired(SimTime::from_ps(15_000_001)));
        w.fire(SimTime::from_ps(15_000_001), "link 0 starved".into());
        assert!(
            !w.expired(SimTime::from_ps(99_000_000)),
            "fires at most once"
        );
        w.fire(SimTime::from_ps(99_000_000), "ignored".into());
        let r = w.report().unwrap();
        assert_eq!(r.at, SimTime::from_ps(15_000_001));
        assert_eq!(r.diagnosis, "link 0 starved");
        assert!(r.render().contains("WATCHDOG"));
        assert!(r.render().contains("link 0 starved"));
    }

    #[test]
    fn watchdog_progress_is_monotonic() {
        let mut w = Watchdog::new(Dur::from_ns(100));
        w.progress(SimTime::from_ps(500_000));
        w.progress(SimTime::from_ps(100)); // stale report must not rewind
        assert_eq!(w.last_progress(), SimTime::from_ps(500_000));
    }
}
