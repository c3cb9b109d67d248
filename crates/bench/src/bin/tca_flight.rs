//! `tca-flight` — query, diff, and mine `tca-flight/v1` logs.
//!
//! ```text
//! tca-flight show <log.jsonl> [--node N] [--kind K] [--span ID] [--from PS] [--to PS] [--limit N]
//! tca-flight grep <log.jsonl> <pattern> [same filters]
//! tca-flight diff <a.jsonl> <b.jsonl>
//! tca-flight path <log.jsonl> <span-id> [--trace <out.json>]
//! ```
//!
//! The log is the single source: every command works from the recorded
//! JSONL alone (no simulator rebuild). `show` prints the event stream as
//! an aligned table, narrowed by node, event kind, root span id, or a
//! `[--from, --to]` picosecond window. `grep` adds a substring match over
//! the event labels. `diff` runs the run-to-run divergence engine of
//! `tca-verify` and exits non-zero when the logs part ways, printing the
//! first divergent event and the earliest span stage whose attribution
//! differs (rustc-style `TCA-X00x` diagnostics). `path` reconstructs the
//! critical path of a span tree from the appended span records — the
//! chain of child stages that determined the root's completion time —
//! and with `--trace` exports that tree (plus its fabric events as
//! instant markers) as Chrome trace-event JSON for Perfetto.
//!
//! Record a log with `tca-bench --scenario health --flight-dir <dir>` or
//! any embedding that turns on the `flight` observer of a
//! `tca_pcie::Instrument`.

use std::path::PathBuf;
use std::process::ExitCode;
use tca_sim::JsonValue;
use tca_verify::diff::{FlightEventRec, SpanRec};
use tca_verify::{diff_flight_texts, FlightLog};

const USAGE: &str = "usage: tca-flight show <log.jsonl> [--node N] [--kind K] [--span ID] [--from PS] [--to PS] [--limit N]
       tca-flight grep <log.jsonl> <pattern> [--node N] [--kind K] [--span ID] [--from PS] [--to PS] [--limit N]
       tca-flight diff <a.jsonl> <b.jsonl>
       tca-flight path <log.jsonl> <span-id> [--trace <out.json>]";

fn fail(msg: &str) -> ExitCode {
    eprintln!("tca-flight: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Event-stream filters shared by `show` and `grep`.
#[derive(Default)]
struct Filter {
    node: Option<u64>,
    kind: Option<String>,
    span: Option<u64>,
    from: Option<u64>,
    to: Option<u64>,
    limit: Option<usize>,
    pattern: Option<String>,
}

impl Filter {
    /// Consumes one `--flag value` pair; `Ok(false)` if the flag is not a
    /// filter flag.
    fn try_arg(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut grab = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg {
            "--node" => self.node = Some(parse_u64(&grab("a node id")?)?),
            "--kind" => self.kind = Some(grab("an event kind")?),
            "--span" => self.span = Some(parse_u64(&grab("a span id")?)?),
            "--from" => self.from = Some(parse_u64(&grab("a time in ps")?)?),
            "--to" => self.to = Some(parse_u64(&grab("a time in ps")?)?),
            "--limit" => self.limit = Some(parse_u64(&grab("a count")?)? as usize),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn matches(&self, e: &FlightEventRec) -> bool {
        self.node.is_none_or(|n| e.node == n)
            && self.kind.as_deref().is_none_or(|k| e.kind == k)
            && self.span.is_none_or(|s| e.span == Some(s))
            && self.from.is_none_or(|t| e.t_ps >= t)
            && self.to.is_none_or(|t| e.t_ps <= t)
            && self.pattern.as_deref().is_none_or(|p| e.label.contains(p))
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("'{s}' is not a non-negative integer"))
}

fn load(path: &str) -> Result<FlightLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FlightLog::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One aligned table row per event (the `show`/`grep` output format).
fn print_events<'a>(events: impl Iterator<Item = &'a FlightEventRec>) -> usize {
    let mut shown = 0;
    println!(
        "{:>8} {:>12} {:<13} {:>4} {:>4} {:>8} {:<16} label",
        "seq", "t_ps", "kind", "node", "port", "span", "digest"
    );
    for e in events {
        let port = e.port.map_or("-".to_string(), |p| p.to_string());
        let span = e.span.map_or("-".to_string(), |s| s.to_string());
        println!(
            "{:>8} {:>12} {:<13} {:>4} {:>4} {:>8} {:<16} {}",
            e.seq, e.t_ps, e.kind, e.node, port, span, e.digest, e.label
        );
        shown += 1;
    }
    shown
}

fn cmd_show(log: &FlightLog, filter: &Filter) -> ExitCode {
    println!(
        "{} recorded={} dropped={} retained={} spans={}",
        log.schema,
        log.recorded,
        log.dropped,
        log.events.len(),
        log.spans.len()
    );
    let limit = filter.limit.unwrap_or(usize::MAX);
    let shown = print_events(log.events.iter().filter(|e| filter.matches(e)).take(limit));
    eprintln!("tca-flight: {shown} event(s) matched");
    ExitCode::SUCCESS
}

fn cmd_diff(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (
        std::fs::read_to_string(a_path),
        std::fs::read_to_string(b_path),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) => return fail(&format!("cannot read {a_path}: {e}")),
        (_, Err(e)) => return fail(&format!("cannot read {b_path}: {e}")),
    };
    let rep = diff_flight_texts(&a, &b);
    print!("{}", rep.render());
    if rep.fails(false) {
        ExitCode::FAILURE
    } else {
        println!("flight logs are identical: zero divergences");
        ExitCode::SUCCESS
    }
}

/// The chain of spans that determined the completion time of the tree
/// rooted at `root`: from the root span, descend at every level into the
/// child that finished last (ties broken by id for determinism) until a
/// leaf. Works entirely from the log's span records.
fn critical_path(spans: &[SpanRec], root: u64) -> Vec<&SpanRec> {
    let mut path = Vec::new();
    let Some(mut cur) = spans.iter().find(|s| s.id == root) else {
        return path;
    };
    path.push(cur);
    loop {
        let last_child = spans
            .iter()
            .filter(|s| s.parent == Some(cur.id))
            .max_by_key(|s| (s.end_ps.unwrap_or(u64::MAX), s.id));
        match last_child {
            Some(c) => {
                path.push(c);
                cur = c;
            }
            None => return path,
        }
    }
}

/// Chrome trace-event JSON for one span tree plus its fabric events:
/// closed spans become complete (`"X"`) events on their device's track,
/// the tree's recorded fabric events become instant (`"i"`) markers.
fn span_tree_trace(log: &FlightLog, root: u64) -> String {
    let mut events = Vec::new();
    for s in log.spans.iter().filter(|s| s.root == root) {
        let Some(end) = s.end_ps else { continue };
        let mut obj = JsonValue::object();
        obj.push("name", JsonValue::from(s.name.as_str()));
        obj.push("cat", JsonValue::from("span"));
        obj.push("ph", JsonValue::from("X"));
        obj.push("ts", JsonValue::from(s.start_ps as f64 / 1e6));
        obj.push("dur", JsonValue::from((end - s.start_ps) as f64 / 1e6));
        obj.push("pid", JsonValue::from(0u64));
        obj.push("tid", JsonValue::from(s.device.unwrap_or(0)));
        let mut args = JsonValue::object();
        args.push("root", JsonValue::from(s.root));
        args.push("id", JsonValue::from(s.id));
        obj.push("args", args);
        events.push(obj);
    }
    for e in log.events.iter().filter(|e| e.span == Some(root)) {
        let mut obj = JsonValue::object();
        obj.push("name", JsonValue::from(e.label.as_str()));
        obj.push("cat", JsonValue::from(e.kind.as_str()));
        obj.push("ph", JsonValue::from("i"));
        obj.push("s", JsonValue::from("t"));
        obj.push("ts", JsonValue::from(e.t_ps as f64 / 1e6));
        obj.push("pid", JsonValue::from(0u64));
        obj.push("tid", JsonValue::from(e.node));
        events.push(obj);
    }
    JsonValue::Array(events).to_json()
}

fn cmd_path(log: &FlightLog, id: u64, trace_out: Option<&PathBuf>) -> ExitCode {
    // Accept either a span id or a root id; resolve to the tree's root.
    let root = match log.spans.iter().find(|s| s.id == id) {
        Some(s) => s.root,
        None if log.spans.iter().any(|s| s.root == id) => id,
        None => return fail(&format!("span id {id} not found in log")),
    };
    let path = critical_path(&log.spans, root);
    if path.is_empty() {
        return fail(&format!("span tree {root} has no root record"));
    }
    let done = path
        .iter()
        .filter_map(|s| s.end_ps)
        .max()
        .unwrap_or_default();
    println!(
        "critical path of span {root} `{}`: {} stage(s), completion t={done} ps",
        path[0].name,
        path.len()
    );
    println!(
        "{:>6} {:>6} {:<20} {:>6} {:>12} {:>12} {:>12}",
        "depth", "id", "stage", "dev", "start_ps", "end_ps", "dur_ps"
    );
    for (depth, s) in path.iter().enumerate() {
        let dev = s.device.map_or("-".to_string(), |d| d.to_string());
        let (end, dur) = match s.end_ps {
            Some(e) => (e.to_string(), (e - s.start_ps).to_string()),
            None => ("open".to_string(), "-".to_string()),
        };
        println!(
            "{:>6} {:>6} {:<20} {:>6} {:>12} {:>12} {:>12}",
            depth, s.id, s.name, dev, s.start_ps, end, dur
        );
    }
    let attributed = log.events.iter().filter(|e| e.span == Some(root)).count();
    println!("{attributed} fabric event(s) attributed to this tree");
    if let Some(out) = trace_out {
        if let Err(e) = tca_bench::write_artifact(out, span_tree_trace(log, root)) {
            eprintln!("tca-flight: cannot write {e}");
            return ExitCode::from(1);
        }
        eprintln!("tca-flight: wrote {}", out.display());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return fail("nothing to do");
    };
    match cmd.as_str() {
        "show" | "grep" => {
            let Some(path) = args.next() else {
                return fail(&format!("{cmd} needs a log file"));
            };
            let mut filter = Filter::default();
            if cmd == "grep" {
                match args.next() {
                    Some(p) => filter.pattern = Some(p),
                    None => return fail("grep needs a pattern"),
                }
            }
            while let Some(arg) = args.next() {
                match filter.try_arg(&arg, &mut args) {
                    Ok(true) => {}
                    Ok(false) => return fail(&format!("unknown argument '{arg}'")),
                    Err(e) => return fail(&e),
                }
            }
            match load(&path) {
                Ok(log) => cmd_show(&log, &filter),
                Err(e) => fail(&e),
            }
        }
        "diff" => match (args.next(), args.next()) {
            (Some(a), Some(b)) => cmd_diff(&a, &b),
            _ => fail("diff needs two log files"),
        },
        "path" => {
            let (Some(path), Some(id)) = (args.next(), args.next()) else {
                return fail("path needs a log file and a span id");
            };
            let id = match parse_u64(&id) {
                Ok(id) => id,
                Err(e) => return fail(&e),
            };
            let mut trace_out = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--trace" => match args.next() {
                        Some(p) => trace_out = Some(PathBuf::from(p)),
                        None => return fail("--trace needs an output file"),
                    },
                    other => return fail(&format!("unknown argument '{other}'")),
                }
            }
            match load(&path) {
                Ok(log) => cmd_path(&log, id, trace_out.as_ref()),
                Err(e) => fail(&e),
            }
        }
        other => fail(&format!("unknown command '{other}'")),
    }
}
