//! Causal span tracing with exact simulated-time attribution.
//!
//! The [`FlightRecorder`](crate::flight::FlightRecorder) answers "what
//! happened at each dispatch"; this module answers "where did *this one
//! transfer* spend its nanoseconds". A [`TraceCtx`] is allocated at the
//! origin of a transfer (a CPU PIO store, a DMA doorbell, an MPI message)
//! and carried by every packet the transfer generates. Each layer the
//! packet crosses records a closed *segment* — credit stall, wire
//! serialization, router forward delay, descriptor fetch, interrupt entry
//! — against the transfer's root span, and the finished transfer yields a
//! parent/child span tree whose intervals decompose the end-to-end latency
//! exactly.
//!
//! ## Determinism contract
//!
//! The store is a pure data sink, exactly like
//! [`MetricsHub`](crate::metrics::MetricsHub): it never schedules events,
//! never reads a wall clock, and never draws randomness. [`SpanId`]s come
//! from an incrementing counter, so two identical runs produce
//! byte-identical span trees, and enabling the store cannot shift a single
//! simulated timestamp (`tests/determinism.rs` proves both).
//!
//! ## Exact attribution
//!
//! [`SpanStore::attribution`] sweeps the root span's time window over the
//! recorded segment boundaries and charges every elementary interval to
//! the *innermost* covering segment (latest start wins). Uncovered time is
//! charged to `"other"`. Because the sweep partitions `[start, end]` with
//! integer-picosecond arithmetic, the per-stage durations always sum to
//! the measured end-to-end latency *exactly* — no rounding, no double
//! counting of nested intervals.

use crate::json::JsonValue;
use crate::time::{Dur, SimTime};
use std::num::NonZeroU64;

/// Identifier of one span. Allocated from a per-store counter starting at
/// 1, so ids are dense, deterministic, and stable across identical runs.
/// Never 0, so an `Option<TraceCtx>` in every TLP costs no tag word.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(NonZeroU64);

impl SpanId {
    /// Raw 1-based counter value.
    pub fn raw(self) -> u64 {
        self.0.get()
    }

    /// The id of the span at `index` in its store.
    fn of_index(index: usize) -> SpanId {
        SpanId(NonZeroU64::MIN.saturating_add(index as u64))
    }

    /// Index of this span in its store.
    fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

/// Causal context carried by an in-flight packet: which transfer tree it
/// belongs to (`root`) and which span should parent anything recorded on
/// its behalf (`parent`). `Copy` so it rides inside TLPs for free.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceCtx {
    /// Root span of the transfer this packet serves.
    pub root: SpanId,
    /// Current parent span for segments recorded downstream.
    pub parent: SpanId,
}

/// One recorded span: a named interval attributed to a device, linked to
/// its parent within a transfer tree.
#[derive(Clone, Debug)]
struct SpanRec {
    root: SpanId,
    parent: Option<SpanId>,
    name: String,
    device: Option<u32>,
    start: SimTime,
    end: Option<SimTime>,
}

/// One remote write observed committing into a memory endpoint, recorded
/// for post-run hazard analysis (RDMA-put-only fabrics synchronize with an
/// ordered flag write; `tca-verify` replays this log to find conflicting
/// writes that raced). `issued` is the origin instant of the transfer that
/// carried the write (its root span start) and `origin` the device that
/// opened the root, so two writes can be ordered by program order at the
/// source and by commit order at the destination.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WriteRec {
    /// Root span of the transfer the write belongs to.
    pub root: SpanId,
    /// Device that originated the transfer (the root span's device).
    pub origin: Option<u32>,
    /// Device the write committed into.
    pub dest: Option<u32>,
    /// Instant the transfer was issued at the origin (root span start).
    pub issued: SimTime,
    /// Instant the bytes became visible at the destination.
    pub commit: SimTime,
    /// Destination address of the write.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Collector of transfer span trees. Owned by the fabric next to the
/// metrics hub; disabled (and free) by default.
#[derive(Default)]
pub struct SpanStore {
    enabled: bool,
    spans: Vec<SpanRec>,
    writes: Vec<WriteRec>,
}

impl SpanStore {
    /// New, disabled store.
    pub fn new() -> Self {
        SpanStore::default()
    }

    /// Turns recording on or off. Packets launched while disabled carry no
    /// context, so flipping this cannot change simulated behavior.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the store is recording.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Drops all recorded spans and writes (the enabled flag is kept).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.writes.clear();
    }

    /// Records a write of `len` bytes at `addr` committing into `dest` at
    /// `commit`, attributed to the transfer `ctx` belongs to. Pure data
    /// collection, like every other recording on this store.
    pub fn record_write(
        &mut self,
        ctx: TraceCtx,
        addr: u64,
        len: u64,
        commit: SimTime,
        dest: Option<u32>,
    ) {
        if !self.enabled {
            return;
        }
        let rootrec = self.get(ctx.root);
        self.writes.push(WriteRec {
            root: ctx.root,
            origin: rootrec.device,
            dest,
            issued: rootrec.start,
            commit,
            addr,
            len,
        });
    }

    /// The committed-write log, in commit (i.e. recording) order.
    pub fn writes(&self) -> &[WriteRec] {
        &self.writes
    }

    fn alloc(&mut self, rec: SpanRec) -> SpanId {
        self.spans.push(rec);
        SpanId::of_index(self.spans.len() - 1)
    }

    fn get(&self, id: SpanId) -> &SpanRec {
        &self.spans[id.index()]
    }

    fn get_mut(&mut self, id: SpanId) -> &mut SpanRec {
        &mut self.spans[id.index()]
    }

    /// Opens a new transfer tree rooted at `name`, returning the context
    /// to attach at the origin — or `None` while disabled (the no-cost
    /// path: callers skip all further recording).
    pub fn start_root(&mut self, name: &str, at: SimTime, device: Option<u32>) -> Option<TraceCtx> {
        if !self.enabled {
            return None;
        }
        let id = self.alloc(SpanRec {
            root: SpanId::of_index(self.spans.len()),
            parent: None,
            name: name.to_string(),
            device,
            start: at,
            end: None,
        });
        Some(TraceCtx {
            root: id,
            parent: id,
        })
    }

    /// Opens a child span under `ctx` and returns the shifted context
    /// (same root, new parent) for downstream propagation.
    pub fn child(
        &mut self,
        ctx: TraceCtx,
        name: &str,
        at: SimTime,
        device: Option<u32>,
    ) -> TraceCtx {
        if !self.enabled {
            return ctx;
        }
        let id = self.alloc(SpanRec {
            root: ctx.root,
            parent: Some(ctx.parent),
            name: name.to_string(),
            device,
            start: at,
            end: None,
        });
        TraceCtx {
            root: ctx.root,
            parent: id,
        }
    }

    /// Records a closed interval `[start, end]` as a child of `ctx`.
    /// `end` may lie in the simulated future (a wire reservation knows its
    /// arrival instant up front); that is pure data, not an event.
    pub fn segment(
        &mut self,
        ctx: TraceCtx,
        name: &str,
        start: SimTime,
        end: SimTime,
        device: Option<u32>,
    ) {
        if !self.enabled {
            return;
        }
        self.alloc(SpanRec {
            root: ctx.root,
            parent: Some(ctx.parent),
            name: name.to_string(),
            device,
            start,
            end: Some(end),
        });
    }

    /// Closes the span `ctx.parent` at `at` (keeps the later instant if it
    /// was already closed — multi-packet transfers commit more than once).
    pub fn end(&mut self, ctx: TraceCtx, at: SimTime) {
        if !self.enabled {
            return;
        }
        let rec = self.get_mut(ctx.parent);
        rec.end = Some(rec.end.map_or(at, |e| e.max(at)));
    }

    /// Closes the *root* span of `ctx` at `at` — the transfer's commit
    /// instant (keeps the later instant across multiple commits).
    pub fn end_root(&mut self, ctx: TraceCtx, at: SimTime) {
        if !self.enabled {
            return;
        }
        let rec = self.get_mut(ctx.root);
        rec.end = Some(rec.end.map_or(at, |e| e.max(at)));
    }

    /// Root spans in allocation (i.e. origin) order: `(id, name, start,
    /// end)`. An open root (transfer never committed) reports `end = None`.
    pub fn roots(&self) -> Vec<(SpanId, &str, SimTime, Option<SimTime>)> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, s)| (SpanId::of_index(i), s.name.as_str(), s.start, s.end))
            .collect()
    }

    /// End-to-end duration of a committed root span.
    pub fn root_elapsed(&self, root: SpanId) -> Option<Dur> {
        let rec = self.get(root);
        rec.end.map(|e| e.since(rec.start))
    }

    /// Exact per-stage latency attribution for one transfer tree.
    ///
    /// Sweeps `[root.start, root.end]` over all closed segments of the
    /// tree; each elementary interval is charged to the innermost covering
    /// segment (latest start wins; ties broken by latest allocation),
    /// uncovered time to `"other"`. Stages are returned in order of first
    /// appearance on the timeline, and their durations sum to the root
    /// duration exactly.
    pub fn attribution(&self, root: SpanId) -> Vec<(String, Dur)> {
        let rootrec = self.get(root);
        let t0 = rootrec.start;
        let t1 = match rootrec.end {
            Some(e) => e,
            None => return Vec::new(),
        };
        // Closed, clamped, non-empty segments of this tree (the root
        // itself excluded — it is the window being decomposed).
        let mut segs: Vec<(SimTime, SimTime, usize)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.root != root || SpanId::of_index(i) == root {
                continue;
            }
            if let Some(end) = s.end {
                let a = s.start.max(t0);
                let b = end.min(t1);
                if b > a {
                    segs.push((a, b, i));
                }
            }
        }
        let mut pts: Vec<SimTime> = vec![t0, t1];
        for &(a, b, _) in &segs {
            pts.push(a);
            pts.push(b);
        }
        pts.sort();
        pts.dedup();
        let mut stages: Vec<(String, Dur)> = Vec::new();
        for w in pts.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Innermost covering segment: latest start, then latest id.
            let owner = segs
                .iter()
                .filter(|&&(s, e, _)| s <= a && e >= b)
                .max_by_key(|&&(s, _, i)| (s, i))
                .map(|&(_, _, i)| self.spans[i].name.as_str())
                .unwrap_or("other");
            let d = b.since(a);
            match stages.iter_mut().find(|(n, _)| n == owner) {
                Some((_, acc)) => *acc += d,
                None => stages.push((owner.to_string(), d)),
            }
        }
        stages
    }

    /// Renders the span forest as an indented text tree (ns durations),
    /// deterministic across identical runs.
    pub fn tree_text(&self) -> String {
        let mut out = String::new();
        for (id, ..) in self.roots() {
            self.tree_node(&mut out, id, 0);
        }
        out
    }

    fn tree_node(&self, out: &mut String, id: SpanId, depth: usize) {
        let rec = self.get(id);
        for _ in 0..depth {
            out.push_str("  ");
        }
        let dev = rec.device.map(|d| format!(" dev{d}")).unwrap_or_default();
        match rec.end {
            Some(end) => out.push_str(&format!(
                "{} [{} +{:.1}ns]{}\n",
                rec.name,
                rec.start,
                end.since(rec.start).as_ns_f64(),
                dev
            )),
            None => out.push_str(&format!("{} [{} ..open]{}\n", rec.name, rec.start, dev)),
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == Some(id) {
                self.tree_node(out, SpanId::of_index(i), depth + 1);
            }
        }
    }

    /// Serializes every span as a JSON array (deterministic field and
    /// element order): `{id, root, parent, name, device, start_ps,
    /// end_ps}`.
    pub fn to_json(&self) -> String {
        let mut arr = Vec::with_capacity(self.spans.len());
        for i in 0..self.spans.len() {
            arr.push(self.span_json(i));
        }
        JsonValue::Array(arr).to_json()
    }

    /// Serializes every span as one JSON object per line (same objects and
    /// order as [`SpanStore::to_json`], newline-terminated). Flight-log
    /// writers append these lines after the event records so the
    /// divergence engine can bisect span trees from the log alone.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for i in 0..self.spans.len() {
            out.push_str(&self.span_json(i).to_json());
            out.push('\n');
        }
        out
    }

    /// The JSON object of span index `i` (0-based; ids are 1-based).
    fn span_json(&self, i: usize) -> JsonValue {
        let s = &self.spans[i];
        let mut obj = JsonValue::object();
        obj.push("id", JsonValue::from(i as u64 + 1));
        obj.push("root", JsonValue::from(s.root.raw()));
        obj.push(
            "parent",
            s.parent
                .map_or(JsonValue::Null, |p| JsonValue::from(p.raw())),
        );
        obj.push("name", JsonValue::from(s.name.as_str()));
        obj.push(
            "device",
            s.device
                .map_or(JsonValue::Null, |d| JsonValue::from(u64::from(d))),
        );
        obj.push("start_ps", JsonValue::from(s.start.as_ps()));
        obj.push(
            "end_ps",
            s.end
                .map_or(JsonValue::Null, |e| JsonValue::from(e.as_ps())),
        );
        obj
    }

    /// Appends the span forest's Chrome trace events to `events`: every
    /// closed span becomes a complete (`"X"`) event on its device's track,
    /// and every parent→child edge that crosses devices becomes a flow
    /// (`"s"`/`"f"`) pair, so Perfetto draws arrows following a transfer
    /// across nodes.
    pub fn chrome_trace_events(&self, events: &mut Vec<JsonValue>) {
        for (i, s) in self.spans.iter().enumerate() {
            let end = match s.end {
                Some(e) => e,
                None => continue,
            };
            let tid = u64::from(s.device.unwrap_or(0));
            let mut obj = JsonValue::object();
            obj.push("name", JsonValue::from(s.name.as_str()));
            obj.push("cat", JsonValue::from("span"));
            obj.push("ph", JsonValue::from("X"));
            obj.push("ts", JsonValue::from(s.start.as_us_f64()));
            obj.push(
                "dur",
                JsonValue::from(end.since(s.start).as_ps() as f64 / 1e6),
            );
            obj.push("pid", JsonValue::from(0u64));
            obj.push("tid", JsonValue::from(tid));
            let mut args = JsonValue::object();
            args.push("root", JsonValue::from(s.root.raw()));
            args.push("id", JsonValue::from(i as u64 + 1));
            obj.push("args", args);
            events.push(obj);
            // Cross-device causality arrow from the parent span.
            if let Some(p) = s.parent {
                let prec = self.get(p);
                if prec.device != s.device {
                    let ptid = u64::from(prec.device.unwrap_or(0));
                    let mut start = JsonValue::object();
                    start.push("name", JsonValue::from("causal"));
                    start.push("cat", JsonValue::from("span"));
                    start.push("ph", JsonValue::from("s"));
                    start.push("id", JsonValue::from(i as u64 + 1));
                    start.push("ts", JsonValue::from(prec.start.as_us_f64()));
                    start.push("pid", JsonValue::from(0u64));
                    start.push("tid", JsonValue::from(ptid));
                    events.push(start);
                    let mut fin = JsonValue::object();
                    fin.push("name", JsonValue::from("causal"));
                    fin.push("cat", JsonValue::from("span"));
                    fin.push("ph", JsonValue::from("f"));
                    fin.push("bp", JsonValue::from("e"));
                    fin.push("id", JsonValue::from(i as u64 + 1));
                    fin.push("ts", JsonValue::from(s.start.as_us_f64()));
                    fin.push("pid", JsonValue::from(0u64));
                    fin.push("tid", JsonValue::from(tid));
                    events.push(fin);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_store_records_nothing() {
        let mut s = SpanStore::new();
        assert!(s.start_root("pio", SimTime::ZERO, None).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn ids_are_dense_and_deterministic() {
        let mut s = SpanStore::new();
        s.set_enabled(true);
        let a = s.start_root("a", SimTime::ZERO, None).unwrap();
        let b = s.child(a, "b", SimTime::from_ps(10), Some(1));
        assert_eq!(a.root.raw(), 1);
        assert_eq!(b.parent.raw(), 2);
        assert_eq!(b.root, a.root);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn attribution_partitions_exactly() {
        let mut s = SpanStore::new();
        s.set_enabled(true);
        let root = s.start_root("xfer", SimTime::ZERO, None).unwrap();
        // Outer stage [0, 100) with an inner wire [20, 60): innermost wins.
        s.segment(root, "fetch", SimTime::ZERO, SimTime::from_ps(100), None);
        s.segment(
            root,
            "wire",
            SimTime::from_ps(20),
            SimTime::from_ps(60),
            None,
        );
        s.end_root(root, SimTime::from_ps(150));
        let attr = s.attribution(root.root);
        let total: Dur = attr.iter().map(|&(_, d)| d).fold(Dur::ZERO, |a, d| a + d);
        assert_eq!(total, Dur::from_ps(150), "stages must sum exactly");
        let get = |n: &str| {
            attr.iter()
                .find(|(name, _)| name == n)
                .map(|&(_, d)| d)
                .unwrap()
        };
        assert_eq!(get("fetch"), Dur::from_ps(60)); // 100 minus nested wire
        assert_eq!(get("wire"), Dur::from_ps(40));
        assert_eq!(get("other"), Dur::from_ps(50)); // uncovered tail
                                                    // First-appearance ordering along the timeline.
        assert_eq!(attr[0].0, "fetch");
    }

    #[test]
    fn write_log_carries_origin_and_issue_instant() {
        let mut s = SpanStore::new();
        assert!(s.start_root("dma", SimTime::ZERO, Some(7)).is_none());
        assert!(s.writes().is_empty(), "disabled store records no writes");
        s.set_enabled(true);
        let root = s.start_root("dma", SimTime::from_ps(100), Some(7)).unwrap();
        s.record_write(root, 0x4000, 256, SimTime::from_ps(900), Some(3));
        let w = s.writes()[0];
        assert_eq!(w.origin, Some(7), "root span's device");
        assert_eq!(w.dest, Some(3));
        assert_eq!(w.issued, SimTime::from_ps(100), "root span's start");
        assert_eq!(w.commit, SimTime::from_ps(900));
        assert_eq!((w.addr, w.len), (0x4000, 256));
        s.clear();
        assert!(s.writes().is_empty());
    }

    #[test]
    fn end_keeps_latest_commit() {
        let mut s = SpanStore::new();
        s.set_enabled(true);
        let root = s.start_root("multi", SimTime::ZERO, None).unwrap();
        s.end_root(root, SimTime::from_ps(500));
        s.end_root(root, SimTime::from_ps(200));
        assert_eq!(s.root_elapsed(root.root), Some(Dur::from_ps(500)));
    }

    #[test]
    fn json_and_tree_render() {
        let mut s = SpanStore::new();
        s.set_enabled(true);
        let root = s.start_root("pio", SimTime::ZERO, Some(0)).unwrap();
        s.segment(
            root,
            "wire",
            SimTime::ZERO,
            SimTime::from_ps(70_000),
            Some(3),
        );
        s.end_root(root, SimTime::from_ps(80_000));
        let json = s.to_json();
        assert!(json.contains("\"name\":\"wire\""));
        assert!(json.contains("\"start_ps\":0"));
        let tree = s.tree_text();
        assert!(tree.starts_with("pio ["));
        assert!(tree.contains("  wire ["));
        let mut events = Vec::new();
        s.chrome_trace_events(&mut events);
        let chrome = JsonValue::Array(events).to_json();
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"s\"") && chrome.contains("\"ph\":\"f\""));
    }
}
