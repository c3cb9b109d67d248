//! Metric declarations (read from `BENCHMARK.json`), run summaries, the
//! trajectory in `history.jsonl`, and `compare`.

use crate::stats::{self, Better};
use crate::trace::Layers;
use crate::Checks;
use std::path::Path;
use std::sync::OnceLock;
use tca_sim::JsonValue;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct MetricDecl {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

/// The metrics of one section of `BENCHMARK.json` (`end_to_end` or
/// `per_layer`), in declaration order.
pub fn declared(section: &str) -> &'static [MetricDecl] {
    static DECLS: OnceLock<(Vec<MetricDecl>, Vec<MetricDecl>)> = OnceLock::new();
    let (e2e, layers) = DECLS.get_or_init(|| {
        let doc = JsonValue::parse(crate::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let parse = |section: &str| -> Vec<MetricDecl> {
            doc.get(section)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect("metric field");
                    MetricDecl {
                        name: s("name").to_owned(),
                        unit: s("unit").to_owned(),
                        better: Better::parse(s("better")).expect("better is lower|higher"),
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    }
                })
                .collect()
        };
        (parse("end_to_end"), parse("per_layer"))
    });
    match section {
        "end_to_end" => e2e,
        "per_layer" => layers,
        other => panic!("no metric section '{other}'"),
    }
}

/// Per-layer metrics that count simulated work: they repeat exactly run to
/// run, so `compare` requires them equal rather than within a bound.
const EXACT_LAYER: [&str; 12] = [
    "sim.engine.events",
    "sim.engine.pushes_per_event",
    "sim.engine.cascades_per_push",
    "sim.engine.peak_pending",
    "sim.engine.replay_cascades_per_push",
    "pcie.memory.alloc_bytes_per_payload_byte",
    "pcie.memory.allocs_per_event",
    "pcie.tlp.constructed_per_transmit",
    "pcie.tlp.cloned",
    "pcie.tlp.relay_hops_per_transmit",
    "pcie.link.credit_stall_per_busy",
    "pcie.link.replays",
];

/// Everything one workload measured in a run.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Samples per end-to-end metric, in declaration order.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Median host-speed probe of the run, ms (the timed samples are
    /// already in reference seconds, see `calib`).
    pub calib_ms: f64,
    /// Correctness checks.
    pub checks: Checks,
    /// Largest relative error against the paper anchors, when it has any.
    pub paper_err_pct: Option<f64>,
    /// The traced run's per-layer metrics, when traced.
    pub layers: Option<Layers>,
}

impl WorkloadResult {
    /// Failed checks over attempted checks.
    fn fail_rate(&self) -> f64 {
        self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }

    /// Human-readable lines: `workload metric value unit (median q1 q3 n)`.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (decl, (_, xs)) in declared("end_to_end").iter().zip(&self.samples) {
            let (q1, med, q3) = stats::quartiles(xs);
            out.push(format!(
                "{} {} {med:.6} {} (median {med:.6} q1 {q1:.6} q3 {q3:.6} n {})",
                self.name,
                decl.name,
                decl.unit,
                xs.len()
            ));
        }
        out.push(format!(
            "{} calib_ms {:.3} ms (reference {} ms)",
            self.name,
            self.calib_ms,
            crate::calib::REF_MS
        ));
        out.push(format!(
            "{} fail_rate {} ratio ({} of {} checks failed)",
            self.name,
            self.fail_rate(),
            self.checks.failed,
            self.checks.attempted
        ));
        if let Some(e) = self.paper_err_pct {
            out.push(format!("{} paper_err_pct {e:.4} %", self.name));
        }
        if let Some(l) = &self.layers {
            for decl in declared("per_layer") {
                out.push(format!(
                    "{} {} {} {}",
                    self.name,
                    decl.name,
                    l.get(&decl.name),
                    decl.unit
                ));
            }
        }
        out
    }

    /// Summary object; `values` adds the raw samples (run files keep them,
    /// history rows do not).
    pub fn to_json(&self, values: bool) -> JsonValue {
        let mut o = JsonValue::object();
        o.push("name", JsonValue::from(self.name.as_str()));
        let mut e2e = JsonValue::object();
        for (name, xs) in &self.samples {
            let (q1, med, q3) = stats::quartiles(xs);
            let mut m = JsonValue::object();
            m.push("median", JsonValue::from(med));
            m.push("q1", JsonValue::from(q1));
            m.push("q3", JsonValue::from(q3));
            m.push("n", JsonValue::from(xs.len() as u64));
            if values {
                m.push(
                    "values",
                    JsonValue::Array(xs.iter().map(|&x| JsonValue::from(x)).collect()),
                );
            }
            e2e.push(*name, m);
        }
        o.push("end_to_end", e2e);
        o.push("calib_ms", JsonValue::from(self.calib_ms));
        o.push("attempted", JsonValue::from(self.checks.attempted));
        o.push("failed", JsonValue::from(self.checks.failed));
        o.push("fail_rate", JsonValue::from(self.fail_rate()));
        if let Some(e) = self.paper_err_pct {
            o.push("paper_err_pct", JsonValue::from(e));
        }
        if let Some(l) = &self.layers {
            let mut pl = JsonValue::object();
            for decl in declared("per_layer") {
                pl.push(decl.name.as_str(), JsonValue::from(l.get(&decl.name)));
            }
            o.push("per_layer", pl);
        }
        o
    }
}

/// Host descriptor for the trajectory: core count, CPU model, toolchain.
fn host() -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut o = JsonValue::object();
    o.push("nproc", JsonValue::from(nproc));
    o.push("cpu", JsonValue::from(cpu));
    o.push(
        "rustc",
        JsonValue::from(command_line("rustc", &["--version"])),
    );
    o
}

/// First line of a command's stdout, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A whole run (`tca-benchmark-run/v1`): the run file under `results/`, or
/// (without raw samples) one line of `history.jsonl`.
pub fn run_json(
    seed: u64,
    quick: bool,
    calib_ms: f64,
    results: &[WorkloadResult],
    values: bool,
) -> JsonValue {
    let mut o = JsonValue::object();
    o.push("schema", JsonValue::from("tca-benchmark-run/v1"));
    let dir = crate::bench_dir();
    let dir = dir.to_string_lossy();
    o.push(
        "rev",
        JsonValue::from(command_line(
            "git",
            &["-C", &dir, "describe", "--always", "--dirty", "--abbrev=12"],
        )),
    );
    o.push("seed", JsonValue::from(seed));
    o.push("quick", JsonValue::from(quick));
    o.push("host", host());
    o.push("calib_ms", JsonValue::from(calib_ms));
    o.push(
        "workloads",
        JsonValue::Array(results.iter().map(|r| r.to_json(values)).collect()),
    );
    o
}

/// Largest relative error, %, of a workload's outputs against the paper
/// anchors EXPERIMENTS.md tracks: Fig. 7 CPU write at 4 KiB (3.35 GB/s) and
/// GPU read at 1 MiB (830 MB/s) for `dma-sweep`; the 782 ns PIO latency and
/// the Fig. 9 4-vs-255-request ratio (0.70) for `small-sweeps`.
pub fn paper_err_pct(workload: &str, pass_dir: &Path) -> Option<f64> {
    let rows = |key: &str| -> Option<Vec<JsonValue>> {
        let text = std::fs::read_to_string(pass_dir.join(format!("{key}.json"))).ok()?;
        let doc = JsonValue::parse(text.trim()).ok()?;
        Some(doc.get("points")?.as_array()?.to_vec())
    };
    let at = |rows: &[JsonValue], key: &str, v: u64, col: &str| {
        crate::trace::golden_cell(rows, key, v, col).and_then(|c| c.as_f64())
    };
    let err = |got: f64, paper: f64| (got / paper - 1.0).abs() * 100.0;
    match workload {
        "dma-sweep" => {
            let fig7 = rows("fig7-tca")?;
            Some(
                err(at(&fig7, "size", 4096, "cpu_write_bps")?, 3.35e9)
                    .max(err(at(&fig7, "size", 1 << 20, "gpu_read_bps")?, 830e6)),
            )
        }
        "small-sweeps" => {
            let pio = rows("latency-tca")?
                .first()?
                .get("pio_oneway_ns")?
                .as_f64()?;
            let fig9 = rows("fig9-tca")?;
            let ratio = at(&fig9, "requests", 4, "cpu_write_bps")?
                / at(&fig9, "requests", 255, "cpu_write_bps")?;
            Some(err(pio, 782.0).max(err(ratio, 0.70)))
        }
        _ => None,
    }
}

fn load_run(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    JsonValue::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

fn workload<'a>(run: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    run.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(name))
}

/// `tca-benchmark compare A.json B.json`: for each workload and end-to-end
/// metric, the two medians, the change and whether B stays within the
/// metric's bound of A; then every exact count (fail rate, paper error,
/// simulated-work counts of the traced run), which must match. Returns
/// whether everything held.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load_run(a_path)?, load_run(b_path)?);
    let mut ok = true;
    println!(
        "{:<13} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for name in crate::workloads::NAMES {
        let (Some(wa), Some(wb)) = (workload(&a, name), workload(&b, name)) else {
            println!("{name:<13} missing from one run");
            ok = false;
            continue;
        };
        for decl in declared("end_to_end") {
            let med = |w: &JsonValue| {
                w.get("end_to_end")
                    .and_then(|e| e.get(&decl.name))
                    .and_then(|m| m.get("median"))
                    .and_then(JsonValue::as_f64)
            };
            let (Some(ma), Some(mb)) = (med(wa), med(wb)) else {
                println!("{name:<13} {:<12} missing", decl.name);
                ok = false;
                continue;
            };
            let bound = decl.bound.expect("end-to-end metrics carry a bound");
            let within = stats::within_bound(ma, mb, decl.better, bound);
            ok &= within;
            println!(
                "{name:<13} {:<12} {ma:>12.6} {mb:>12.6} {:>+7.2}% {:>5.1}%  {}",
                decl.name,
                (mb / ma - 1.0) * 100.0,
                bound * 100.0,
                if within { "within" } else { "REGRESSION" }
            );
        }
        let mut exact: Vec<(String, Option<&JsonValue>, Option<&JsonValue>)> =
            ["fail_rate", "paper_err_pct"]
                .iter()
                .map(|k| (k.to_string(), wa.get(k), wb.get(k)))
                .collect();
        if let (Some(la), Some(lb)) = (wa.get("per_layer"), wb.get("per_layer")) {
            exact.extend(
                EXACT_LAYER
                    .iter()
                    .map(|k| (k.to_string(), la.get(k), lb.get(k))),
            );
        }
        let mismatched: Vec<String> = exact
            .iter()
            .filter(|(_, x, y)| x != y)
            .map(|(k, x, y)| format!("{k} {x:?} vs {y:?}"))
            .collect();
        if mismatched.is_empty() {
            println!("{name:<13} {} exact counts match", exact.len());
        } else {
            ok = false;
            for m in mismatched {
                println!("{name:<13} COUNT MISMATCH {m}");
            }
        }
    }
    Ok(ok)
}
