//! Deterministic flight recorder: a bounded ring of structured dispatch
//! events, serialized as schema-versioned JSONL (`tca-flight/v1`).
//!
//! The recorder is a pure data sink, exactly like [`crate::MetricsHub`] and
//! [`crate::SpanStore`]: recording never schedules events, never reads a
//! wall clock, and never branches the simulation, so a recorded run and an
//! unrecorded run execute identically and two recorded runs of the same
//! seeded workload produce byte-identical logs. That property is what makes
//! the log *diffable*: `tca-verify`'s divergence engine aligns two logs by
//! sequence number and the first mismatching line is, by construction, the
//! first point where the two runs actually differed.
//!
//! ## Ring buffer and spill
//!
//! Capture is bounded: the most recent `capacity` events live in a ring
//! (`VecDeque`), so an arbitrarily long run records in O(capacity) memory —
//! the black-box-recorder mode. With spill enabled, an event evicted from
//! the ring is serialized to its JSONL line first and the line is retained,
//! so the full log survives at the cost of one `String` per event — the
//! record-everything mode used by `tca-bench --flight-dir`. Either way the
//! emitted log is identical for the events it covers; the header states how
//! many events were recorded and how many were dropped unserialized.
//!
//! ## Log format
//!
//! One JSON object per line. The first line is the header:
//!
//! ```text
//! {"schema":"tca-flight/v1","events":1234,"dropped":0}
//! ```
//!
//! then one line per event, in dispatch order:
//!
//! ```text
//! {"seq":7,"t_ps":170000,"kind":"deliver","node":2,"port":0,"span":3,"digest":"91ab...","label":"MemWr[0x1000 +256B]"}
//! ```
//!
//! `digest` is a 16-hex-digit FNV-1a content hash (see [`Fnv64`]) kept as a
//! string because JSON numbers cannot carry 64 bits exactly. Writers may
//! append the run's span records (`{"id":..,"root":..,...}`, the
//! [`crate::SpanStore::jsonl`] lines) after the events so analysis tools
//! can bisect span trees from the log alone.

use crate::json::write_escaped;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Schema tag of the flight-log header line.
pub const FLIGHT_SCHEMA: &str = "tca-flight/v1";

/// Streaming 64-bit FNV-1a hasher. Deterministic across platforms and
/// allocation-free, which is why the flight recorder uses it (and not
/// `DefaultHasher`, whose output is unspecified) for packet content
/// digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Fnv64 {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Folds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv64 {
        self.update(&v.to_le_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// One recorded dispatch: what the event loop executed, when, and on whose
/// behalf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// 1-based dispatch sequence number (the alignment key for diffing).
    pub seq: u64,
    /// Simulated instant the event executed.
    pub at: SimTime,
    /// Stable kind name (`"deliver"`, `"timer"`, `"credit_return"`).
    pub kind: &'static str,
    /// Device the event acted on (delivery destination, timer owner, or
    /// credit-returning link endpoint).
    pub node: u32,
    /// Device-local port involved, when the event is port-scoped.
    pub port: Option<u8>,
    /// Root span id of the transfer the event serves, when span tracing
    /// attached one.
    pub span: Option<u64>,
    /// FNV-1a content digest (TLP payload identity, timer tag, or credit
    /// tuple) — catches payload corruption even when timing agrees.
    pub digest: u64,
    /// Human-readable description (`MemWr[0x1000 +256B]`, `relay_forward
    /// tag=0x600…`).
    pub label: String,
}

impl FlightEvent {
    /// The event's JSONL line (no trailing newline), in the fixed key order
    /// the schema promises.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(96 + self.label.len());
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_ps\":{},\"kind\":\"{}\",\"node\":{}",
            self.seq,
            self.at.as_ps(),
            self.kind,
            self.node
        );
        match self.port {
            Some(p) => {
                let _ = write!(out, ",\"port\":{p}");
            }
            None => out.push_str(",\"port\":null"),
        }
        match self.span {
            Some(s) => {
                let _ = write!(out, ",\"span\":{s}");
            }
            None => out.push_str(",\"span\":null"),
        }
        let _ = write!(out, ",\"digest\":\"{:016x}\",\"label\":", self.digest);
        write_escaped(&self.label, &mut out);
        out.push('}');
        out
    }
}

/// The recorder: a bounded ring of [`FlightEvent`]s with optional spill of
/// evicted events to pre-serialized JSONL lines. See the module docs for
/// the determinism contract and log format.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<FlightEvent>,
    /// JSONL lines of events evicted from the ring; `None` disables spill
    /// and evictions only bump `dropped`.
    spill: Option<Vec<String>>,
    next_seq: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events in its ring.
    /// With `spill`, evicted events are kept as JSONL so the full log is
    /// retained regardless of ring size.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize, spill: bool) -> FlightRecorder {
        assert!(capacity > 0, "flight ring capacity must be non-zero");
        FlightRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            spill: spill.then(Vec::new),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends one event, assigning it the next sequence number. Evicts the
    /// oldest ring entry first when full (spilling or dropping it).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        at: SimTime,
        kind: &'static str,
        node: u32,
        port: Option<u8>,
        span: Option<u64>,
        digest: u64,
        label: String,
    ) {
        if self.ring.len() == self.capacity {
            let oldest = self.ring.pop_front().expect("non-empty full ring");
            match &mut self.spill {
                Some(lines) => lines.push(oldest.jsonl()),
                None => self.dropped += 1,
            }
        }
        self.next_seq += 1;
        self.ring.push_back(FlightEvent {
            seq: self.next_seq,
            at,
            kind,
            node,
            port,
            span,
            digest,
            label,
        });
    }

    /// Total events recorded since construction.
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted without spill (absent from the emitted log).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded or everything was evicted.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// The header line (no trailing newline).
    pub fn header(&self) -> String {
        format!(
            "{{\"schema\":\"{FLIGHT_SCHEMA}\",\"events\":{},\"dropped\":{}}}",
            self.next_seq, self.dropped
        )
    }

    /// The full log as JSONL: header, spilled lines, then the ring —
    /// newline-terminated, byte-deterministic.
    pub fn jsonl(&self) -> String {
        let mut out = self.header();
        out.push('\n');
        if let Some(lines) = &self.spill {
            for line in lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        for ev in &self.ring {
            out.push_str(&ev.jsonl());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn ev(r: &mut FlightRecorder, n: u32) {
        r.record(
            SimTime::from_ps(u64::from(n) * 100),
            "deliver",
            n,
            Some(0),
            Some(1),
            u64::from(n) * 7,
            format!("ev{n}"),
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::new().update(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::new().update(b"foobar").finish(), 0x85944171f73967e8);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut r = FlightRecorder::new(2, false);
        for n in 0..5 {
            ev(&mut r, n);
        }
        assert_eq!((r.recorded(), r.dropped(), r.len()), (5, 3, 2));
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
        assert!(r.header().contains("\"events\":5,\"dropped\":3"));
    }

    #[test]
    fn spill_retains_full_log_in_order() {
        let mut r = FlightRecorder::new(2, true);
        for n in 0..5 {
            ev(&mut r, n);
        }
        assert_eq!(r.dropped(), 0);
        let log = r.jsonl();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 6); // header + 5 events
        for (i, line) in lines.iter().enumerate().skip(1) {
            let v = JsonValue::parse(line).expect("valid JSON line");
            assert_eq!(v.get("seq").and_then(JsonValue::as_u64), Some(i as u64));
        }
    }

    #[test]
    fn jsonl_lines_parse_and_round_trip_fields() {
        let mut r = FlightRecorder::new(8, false);
        r.record(
            SimTime::from_ps(42),
            "timer",
            3,
            None,
            None,
            0xdead_beef,
            "odd \"label\"\twith\ncontrol \u{1} bytes".to_owned(),
        );
        let line = r.events().next().expect("one event").jsonl();
        let v = JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(v.get("t_ps").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("timer"));
        assert!(matches!(v.get("port"), Some(JsonValue::Null)));
        assert!(matches!(v.get("span"), Some(JsonValue::Null)));
        assert_eq!(
            v.get("digest").and_then(JsonValue::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(
            v.get("label").and_then(JsonValue::as_str),
            Some("odd \"label\"\twith\ncontrol \u{1} bytes")
        );
    }

    #[test]
    fn identical_inputs_serialize_byte_identically() {
        let build = || {
            let mut r = FlightRecorder::new(3, true);
            for n in 0..7 {
                ev(&mut r, n);
            }
            r.jsonl()
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::new(0, false);
    }
}
