//! `tca-whatif` — a deterministic causal what-if profiler.
//!
//! Coz-style causal profiling asks "how much would the end-to-end time
//! improve if stage X got faster?" and answers it statistically on real
//! hardware. Our simulator is exactly deterministic, so we can answer it
//! *exactly*: rebuild the fabric with one timing parameter virtually
//! scaled (0x / 0.25x / 0.5x / 0.75x of its default), re-run the same
//! workload, and read the true end-to-end delta with zero noise.
//!
//! The report ranks every duration parameter of
//! [`tca_core::FabricParams`] by the latency recovered when the
//! parameter is zeroed, probes the top-2 interaction (jointly zeroed vs
//! the sum of individual gains), and cross-checks that per-stage span
//! attribution deltas agree with the measured end-to-end deltas — the
//! span partition is exact, so any disagreement is a bug, not noise.
//!
//! Everything is integer picoseconds and emitted in schema-pinned
//! `tca-whatif/v1` JSON (byte-stable across runs; the CI smoke `cmp`s
//! two sweeps), a ranked text table, and a folded-flamegraph *diff*
//! between the baseline and best-case runs.

use tca_core::{FabricParams, TcaCluster, TcaClusterBuilder};
use tca_device::map::TcaBlock;
use tca_peach2::{Descriptor, EngineKind, Peach2};
use tca_sim::{fingerprint_hex, Dur, JsonValue, ParamSet, ParamUnit, Parameterized};

/// Virtual speedup scales swept per parameter, as permille of the
/// default value: zeroed, quartered, halved, three-quartered.
pub const SCALES_PM: [u64; 4] = [0, 250, 500, 750];

/// Scenarios the profiler has a workload for.
pub const WHATIF_SCENARIOS: [&str; 2] = ["put-latency", "ring-hops"];

/// One deterministic workload execution: exact end-to-end latency,
/// payload bytes, and the root span's stage partition (stage sums equal
/// the end-to-end time to the picosecond).
pub struct Outcome {
    /// Root-span end-to-end latency.
    pub e2e: Dur,
    /// Payload bytes the workload moved.
    pub bytes: u64,
    /// Exact per-stage attribution, in span-store order.
    pub stages: Vec<(String, Dur)>,
}

/// Runs the workload for `scenario` on a fabric built from `fp`.
///
/// * `put-latency` — the acceptance workload: 4 chained 4 KiB write
///   descriptors from PEACH2 SRAM to the adjacent node's host memory on
///   a 2-node ring (the Fig. 9 chaining regime, small request count).
/// * `ring-hops` — the CI smoke workload: 2 chained 1 KiB writes one
///   hop around a 4-node ring (cheap enough to sweep twice in CI).
pub fn run_workload(scenario: &str, fp: &FabricParams) -> Result<Outcome, String> {
    let (nodes, count, size) = match scenario {
        "put-latency" => (2u32, 4u64, 4096u64),
        "ring-hops" => (4u32, 2u64, 1024u64),
        other => {
            return Err(format!(
                "no whatif workload for scenario '{other}' (have: {})",
                WHATIF_SCENARIOS.join(", ")
            ))
        }
    };
    let mut c = TcaClusterBuilder::new(nodes).fabric_params(*fp).build();
    c.fabric.set_span_tracing(true);
    let d = &c.drivers[0];
    let sram = d.sram_addr(0);
    let dst = c.sub.map.global_addr(1, TcaBlock::Host, 0x4000_0000);
    c.fabric
        .device_mut::<Peach2>(c.sub.chips[0])
        .sram_mut()
        .fill_pattern(0, size, 0x3c);
    let descs: Vec<Descriptor> = (0..count)
        .map(|_| Descriptor::new(sram, dst, size))
        .collect();
    let m = d.run_dma(&mut c.fabric, &descs, EngineKind::Legacy);
    let (e2e, stages) = dma_root_stages(&c);
    Ok(Outcome {
        e2e,
        bytes: m.bytes,
        stages,
    })
}

/// Extracts the last completed "dma" root span's exact stage partition.
fn dma_root_stages(c: &TcaCluster) -> (Dur, Vec<(String, Dur)>) {
    let spans = c.fabric.spans();
    let root = spans
        .roots()
        .into_iter()
        .rfind(|(_, n, _, end)| *n == "dma" && end.is_some())
        .map(|(id, ..)| id)
        .expect("whatif workload records a completed 'dma' root span");
    let elapsed = spans.root_elapsed(root).expect("completed root");
    let attr = spans.attribution(root);
    let sum = attr.iter().fold(Dur::ZERO, |a, (_, d)| a + *d);
    assert_eq!(
        sum, elapsed,
        "span stages must partition the end-to-end latency exactly"
    );
    (elapsed, attr)
}

/// One sweep point of one parameter.
pub struct ScalePoint {
    /// Scale applied to the default, in permille (0 = zeroed).
    pub scale_pm: u64,
    /// The scaled parameter value.
    pub value: u64,
    /// End-to-end latency of the re-run.
    pub e2e: Dur,
}

/// The full virtual-speedup curve of one parameter.
pub struct ParamResult {
    /// Registry id, e.g. `peach2.desc_gap_write`.
    pub id: String,
    /// Registry doc string.
    pub doc: &'static str,
    /// The baseline (default + overrides) value.
    pub baseline_value: u64,
    /// Re-run latencies at each scale in [`SCALES_PM`] order.
    pub points: Vec<ScalePoint>,
    /// End-to-end latency recovered by zeroing the parameter
    /// (baseline minus the 0x re-run; negative means it got slower).
    pub gain_zero_ps: i64,
    /// Stage partition of the 0x re-run (for the cross-check and the
    /// folded diff of the top-ranked parameter).
    pub zero_stages: Vec<(String, Dur)>,
}

/// The top-2 interaction probe: both parameters jointly zeroed.
pub struct Interaction {
    /// The two top-ranked parameter ids.
    pub ids: [String; 2],
    /// End-to-end latency with both zeroed.
    pub joint_e2e: Dur,
    /// Gain of the joint run vs baseline.
    pub joint_gain_ps: i64,
    /// Sum of the two individual zeroing gains.
    pub sum_individual_ps: i64,
    /// `joint - sum`: positive means the parameters hide each other
    /// (super-additive), negative means they overlap (sub-additive).
    pub interaction_ps: i64,
}

/// A complete `tca-whatif/v1` experiment.
pub struct WhatifReport {
    /// Scenario the workload models.
    pub scenario: String,
    /// User overrides applied to the baseline before sweeping.
    pub overrides: ParamSet,
    /// Config hash of the baseline fabric (defaults + overrides).
    pub config_fnv: u64,
    /// The unperturbed run.
    pub baseline: Outcome,
    /// Per-parameter curves, ranked by `gain_zero_ps` descending
    /// (ties broken by id for byte-stable output).
    pub params: Vec<ParamResult>,
    /// Top-2 interaction probe (absent when fewer than 2 parameters).
    pub interaction: Option<Interaction>,
    /// Baseline time in the descriptor-path stages (`desc_fetch` +
    /// `desc_decode` + `desc_gap`) — the Fig. 8/9 chaining penalty a
    /// pipelined DMAC would hide.
    pub descriptor_penalty: Dur,
}

/// Stages that make up the chaining/descriptor path of the legacy DMAC.
pub const DESCRIPTOR_STAGES: [&str; 3] = ["desc_fetch", "desc_decode", "desc_gap"];

/// Parameters whose zeroing acts on the descriptor path (used by the
/// acceptance test: the top-ranked parameter must be one of these).
pub const DESCRIPTOR_PATH_PARAMS: [&str; 5] = [
    "link.host.latency",
    "host.mem_read_latency",
    "peach2.desc_gap_write",
    "peach2.desc_decode",
    "peach2.engine_start",
];

/// Runs the whole experiment: baseline, one sweep per duration
/// parameter, ranking, interaction probe, and the span-vs-e2e
/// cross-check. Deterministic: same inputs, byte-identical report.
pub fn whatif_report(scenario: &str, overrides: &ParamSet) -> Result<WhatifReport, String> {
    let mut base = FabricParams::default();
    base.apply(overrides)?;
    let baseline = run_workload(scenario, &base)?;

    let mut params = Vec::new();
    for desc in FabricParams::param_descs() {
        if desc.unit != ParamUnit::DurationPs {
            continue;
        }
        let value = base.get_param(&desc.id).expect("registered id resolves");
        if value == 0 {
            continue; // already zero: no speedup left to model
        }
        let mut points = Vec::new();
        let mut zero_stages = Vec::new();
        for &pm in &SCALES_PM {
            let scaled = value * pm / 1000;
            let mut fp = base;
            assert!(
                fp.set_param(&desc.id, scaled),
                "sweeping a registered duration must be accepted"
            );
            let out = run_workload(scenario, &fp)?;
            if pm == 0 {
                // Cross-check: both stage partitions are exact, so the
                // summed per-stage deltas must equal the end-to-end
                // delta to the picosecond.
                let stage_delta = stage_delta_sum(&baseline.stages, &out.stages);
                let e2e_delta = baseline.e2e.as_ps() as i64 - out.e2e.as_ps() as i64;
                assert_eq!(
                    stage_delta, e2e_delta,
                    "stage attribution deltas inconsistent with end-to-end delta for {}",
                    desc.id
                );
                zero_stages = out.stages.clone();
            }
            points.push(ScalePoint {
                scale_pm: pm,
                value: scaled,
                e2e: out.e2e,
            });
        }
        let gain_zero_ps = baseline.e2e.as_ps() as i64 - points[0].e2e.as_ps() as i64;
        params.push(ParamResult {
            id: desc.id,
            doc: desc.doc,
            baseline_value: value,
            points,
            gain_zero_ps,
            zero_stages,
        });
    }
    params.sort_by(|a, b| {
        b.gain_zero_ps
            .cmp(&a.gain_zero_ps)
            .then_with(|| a.id.cmp(&b.id))
    });

    let interaction = if params.len() >= 2 {
        let (a, b) = (&params[0], &params[1]);
        let mut fp = base;
        fp.set_param(&a.id, 0);
        fp.set_param(&b.id, 0);
        let joint = run_workload(scenario, &fp)?;
        let joint_gain_ps = baseline.e2e.as_ps() as i64 - joint.e2e.as_ps() as i64;
        let sum_individual_ps = a.gain_zero_ps + b.gain_zero_ps;
        Some(Interaction {
            ids: [a.id.clone(), b.id.clone()],
            joint_e2e: joint.e2e,
            joint_gain_ps,
            sum_individual_ps,
            interaction_ps: joint_gain_ps - sum_individual_ps,
        })
    } else {
        None
    };

    let descriptor_penalty = baseline
        .stages
        .iter()
        .filter(|(s, _)| DESCRIPTOR_STAGES.contains(&s.as_str()))
        .fold(Dur::ZERO, |a, (_, d)| a + *d);

    Ok(WhatifReport {
        scenario: scenario.to_string(),
        overrides: overrides.clone(),
        config_fnv: base.fingerprint(),
        baseline,
        params,
        interaction,
        descriptor_penalty,
    })
}

/// Sum over the union of stage names of `(baseline - perturbed)`, ps.
fn stage_delta_sum(base: &[(String, Dur)], run: &[(String, Dur)]) -> i64 {
    let mut total = 0i64;
    let mut seen: Vec<&str> = Vec::new();
    for (name, d) in base {
        let other = run
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, d)| d.as_ps());
        total += d.as_ps() as i64 - other as i64;
        seen.push(name);
    }
    for (name, d) in run {
        if !seen.contains(&name.as_str()) {
            total -= d.as_ps() as i64;
        }
    }
    total
}

impl WhatifReport {
    /// The top-ranked parameter (highest zeroing gain), if any.
    pub fn top(&self) -> Option<&ParamResult> {
        self.params.first()
    }

    /// Schema-pinned JSON (`tca-whatif/v1`): `schema` first, fixed key
    /// order, integers only — byte-stable across identical runs.
    pub fn to_json(&self) -> String {
        let mut root = JsonValue::object();
        root.push("schema", JsonValue::from("tca-whatif/v1"));
        root.push("scenario", JsonValue::from(self.scenario.clone()));
        root.push("backend", JsonValue::from("tca"));
        root.push(
            "config_fnv",
            JsonValue::from(fingerprint_hex(self.config_fnv)),
        );
        let overrides = self
            .overrides
            .iter()
            .map(|(id, v)| {
                let mut o = JsonValue::object();
                o.push("id", JsonValue::from(id));
                o.push("value", JsonValue::from(v));
                o
            })
            .collect();
        root.push("overrides", JsonValue::Array(overrides));
        let mut base = JsonValue::object();
        base.push("e2e_ps", JsonValue::from(self.baseline.e2e.as_ps()));
        base.push("bytes", JsonValue::from(self.baseline.bytes));
        base.push("stages", stages_json(&self.baseline.stages));
        root.push("baseline", base);
        root.push(
            "descriptor_penalty_ps",
            JsonValue::from(self.descriptor_penalty.as_ps()),
        );
        let params = self
            .params
            .iter()
            .map(|p| {
                let mut o = JsonValue::object();
                o.push("id", JsonValue::from(p.id.clone()));
                o.push("doc", JsonValue::from(p.doc));
                o.push("baseline_value", JsonValue::from(p.baseline_value));
                o.push("gain_zero_ps", JsonValue::from(p.gain_zero_ps));
                o.push("recovered_pm", JsonValue::from(self.recovered_pm(p)));
                let points = p
                    .points
                    .iter()
                    .map(|sp| {
                        let mut po = JsonValue::object();
                        po.push("scale_pm", JsonValue::from(sp.scale_pm));
                        po.push("value", JsonValue::from(sp.value));
                        po.push("e2e_ps", JsonValue::from(sp.e2e.as_ps()));
                        po
                    })
                    .collect();
                o.push("points", JsonValue::Array(points));
                o
            })
            .collect();
        root.push("params", JsonValue::Array(params));
        match &self.interaction {
            Some(i) => {
                let mut o = JsonValue::object();
                o.push(
                    "ids",
                    JsonValue::Array(vec![
                        JsonValue::from(i.ids[0].clone()),
                        JsonValue::from(i.ids[1].clone()),
                    ]),
                );
                o.push("joint_e2e_ps", JsonValue::from(i.joint_e2e.as_ps()));
                o.push("joint_gain_ps", JsonValue::from(i.joint_gain_ps));
                o.push("sum_individual_ps", JsonValue::from(i.sum_individual_ps));
                o.push("interaction_ps", JsonValue::from(i.interaction_ps));
                root.push("interaction", o);
            }
            None => {
                root.push("interaction", JsonValue::Null);
            }
        }
        root.to_json()
    }

    /// Permille of the baseline end-to-end latency recovered by zeroing
    /// `p` (clamped at 0 for regressions).
    fn recovered_pm(&self, p: &ParamResult) -> u64 {
        if p.gain_zero_ps <= 0 {
            return 0;
        }
        (p.gain_zero_ps as u64) * 1000 / self.baseline.e2e.as_ps().max(1)
    }

    /// Ranked text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tca-whatif: {} (backend tca, config {})",
            self.scenario,
            fingerprint_hex(self.config_fnv)
        );
        let _ = writeln!(
            out,
            "baseline: {} end-to-end, {} payload bytes; descriptor-path penalty {}",
            self.baseline.e2e, self.baseline.bytes, self.descriptor_penalty
        );
        if !self.overrides.is_empty() {
            let ov: Vec<String> = self
                .overrides
                .iter()
                .map(|(id, v)| format!("{id}={v}"))
                .collect();
            let _ = writeln!(out, "overrides: {}", ov.join(", "));
        }
        let _ = writeln!(
            out,
            "rank  {:<28} {:>12} {:>12} {:>9}  {:>10} {:>10} {:>10}",
            "parameter",
            "default(ps)",
            "gain@0x(ps)",
            "recovered",
            "e2e@0.25x",
            "e2e@0.5x",
            "e2e@0.75x"
        );
        for (i, p) in self.params.iter().enumerate() {
            let pm = self.recovered_pm(p);
            let _ = writeln!(
                out,
                "{:>4}  {:<28} {:>12} {:>12} {:>8}.{}%  {:>10} {:>10} {:>10}",
                i + 1,
                p.id,
                p.baseline_value,
                p.gain_zero_ps,
                pm / 10,
                pm % 10,
                p.points[1].e2e.as_ps(),
                p.points[2].e2e.as_ps(),
                p.points[3].e2e.as_ps(),
            );
        }
        if let Some(i) = &self.interaction {
            let _ = writeln!(
                out,
                "interaction: {} + {} jointly zeroed -> gain {} ps (individual sum {} ps, interaction {:+} ps)",
                i.ids[0], i.ids[1], i.joint_gain_ps, i.sum_individual_ps, i.interaction_ps
            );
        }
        out
    }

    /// Folded-flamegraph *diff* between the baseline run and the
    /// best-case run (top-ranked parameter zeroed): one line per stage,
    /// `tca_whatif;<scenario>;<stage> <baseline_ps> <best_ps>` — the
    /// two-column format `difffolded.pl`-style tooling consumes.
    pub fn folded_diff(&self) -> String {
        let best: &[(String, Dur)] = self.top().map_or(&[], |p| &p.zero_stages);
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for (stage, d) in &self.baseline.stages {
            let b = best
                .iter()
                .find(|(n, _)| n == stage)
                .map_or(0, |(_, d)| d.as_ps());
            out.push_str(&format!(
                "tca_whatif;{};{} {} {}\n",
                self.scenario,
                stage,
                d.as_ps(),
                b
            ));
            seen.push(stage);
        }
        for (stage, d) in best {
            if !seen.contains(&stage.as_str()) {
                out.push_str(&format!(
                    "tca_whatif;{};{} 0 {}\n",
                    self.scenario,
                    stage,
                    d.as_ps()
                ));
            }
        }
        out
    }
}

/// Renders a stage partition as an array of `{stage, ps}` objects.
fn stages_json(stages: &[(String, Dur)]) -> JsonValue {
    JsonValue::Array(
        stages
            .iter()
            .map(|(s, d)| {
                let mut o = JsonValue::object();
                o.push("stage", JsonValue::from(s.clone()));
                o.push("ps", JsonValue::from(d.as_ps()));
                o
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(run_workload("fig7", &FabricParams::default()).is_err());
        assert!(whatif_report("nope", &ParamSet::new()).is_err());
        let mut bad = ParamSet::new();
        bad.set("not.a.param", 1);
        assert!(whatif_report("ring-hops", &bad).is_err());
    }

    #[test]
    fn workload_outcome_is_deterministic_and_partitioned() {
        let a = run_workload("ring-hops", &FabricParams::default()).unwrap();
        let b = run_workload("ring-hops", &FabricParams::default()).unwrap();
        assert_eq!(a.e2e, b.e2e);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.stages, b.stages);
        let sum = a.stages.iter().fold(Dur::ZERO, |acc, (_, d)| acc + *d);
        assert_eq!(sum, a.e2e);
        assert_eq!(a.bytes, 2 * 1024);
    }

    #[test]
    fn whatif_ring_hops_report_is_byte_stable() {
        let r1 = whatif_report("ring-hops", &ParamSet::new()).unwrap();
        let r2 = whatif_report("ring-hops", &ParamSet::new()).unwrap();
        assert_eq!(r1.to_json(), r2.to_json());
        assert_eq!(r1.folded_diff(), r2.folded_diff());
        assert!(r1.to_json().starts_with("{\"schema\":\"tca-whatif/v1\""));
        // Ranked: gains non-increasing.
        for w in r1.params.windows(2) {
            assert!(w[0].gain_zero_ps >= w[1].gain_zero_ps);
        }
        // The folded diff names the scenario and carries two columns.
        let first = r1.folded_diff().lines().next().unwrap().to_string();
        assert!(first.starts_with("tca_whatif;ring-hops;"));
        assert_eq!(first.split(' ').count(), 3);
    }

    #[test]
    fn overrides_shift_the_baseline_and_fingerprint() {
        let plain = whatif_report("ring-hops", &ParamSet::new()).unwrap();
        let mut ov = ParamSet::new();
        ov.set("host.interrupt_entry", 0);
        let tweaked = whatif_report("ring-hops", &ov).unwrap();
        assert_ne!(plain.config_fnv, tweaked.config_fnv);
        assert!(
            tweaked.baseline.e2e < plain.baseline.e2e,
            "zeroing the interrupt-entry cost must shorten the measured window"
        );
        // The zeroed knob no longer appears in the sweep (nothing left
        // to speed up).
        assert!(tweaked
            .params
            .iter()
            .all(|p| p.id != "host.interrupt_entry"));
    }

    /// The ISSUE 10 acceptance criterion: on the dma put-latency
    /// scenario the top-ranked parameter lies on the descriptor path,
    /// and zeroing it recovers at least half of the measured chaining
    /// penalty (the baseline time in desc_fetch/desc_decode/desc_gap).
    #[test]
    fn put_latency_top_param_is_on_the_descriptor_path() {
        let rep = whatif_report("put-latency", &ParamSet::new()).unwrap();
        let top = rep.top().expect("sweep produced parameters");
        assert!(
            DESCRIPTOR_PATH_PARAMS.contains(&top.id.as_str()),
            "top-ranked parameter {} (gain {} ps) is not on the descriptor path",
            top.id,
            top.gain_zero_ps
        );
        assert!(
            rep.descriptor_penalty > Dur::ZERO,
            "chained put must spend time in descriptor stages"
        );
        assert!(
            top.gain_zero_ps >= rep.descriptor_penalty.as_ps() as i64 / 2,
            "zeroing {} recovers {} ps, less than half the {} ps chaining penalty",
            top.id,
            top.gain_zero_ps,
            rep.descriptor_penalty.as_ps()
        );
        // The interaction probe ran and is internally consistent.
        let i = rep.interaction.as_ref().expect(">= 2 parameters swept");
        assert_eq!(i.interaction_ps, i.joint_gain_ps - i.sum_individual_ps);
        // Folded diff shows the descriptor stages shrinking.
        let diff = rep.folded_diff();
        assert!(diff.contains(";desc_fetch "), "diff:\n{diff}");
    }
}
