//! Whole-fabric parameter composition: one [`FabricParams`] bundle holds
//! every timing/sizing knob a sub-cluster is built from — PEACH2 chip,
//! host socket, GPU, host↔GPU slot link, and the QPI hop — each
//! reachable through the [`Parameterized`] registry under its stable
//! dotted id (`peach2.*`, `host.*`, `gpu.*`, `link.host.*`,
//! `link.cable.*`, `link.gpu.*`, `qpi.*`, `node.gpus`).
//!
//! The FNV-1a fingerprint over all `(id, value)` pairs is the config
//! hash stamped into `tca-health/v1` reports and `tca-bench` artifacts,
//! and the key the `tca-whatif` causal profiler perturbs one knob at a
//! time.

use tca_device::{GpuParams, HostParams, NodeConfig, QpiParams};
use tca_pcie::LinkParams;
use tca_peach2::Peach2Params;
use tca_sim::{fingerprint_hex, unnest_id, ParamDesc, ParamSet, ParamUnit, Parameterized};

/// Every knob a TCA sub-cluster is built from, as one overlayable value.
#[derive(Clone, Copy, Debug)]
pub struct FabricParams {
    /// Per-node device configuration (host socket, GPUs, slot link).
    pub node: NodeConfig,
    /// PEACH2 chip parameters (includes host and cable links).
    pub peach2: Peach2Params,
    /// QPI hop between the two sockets of a node.
    pub qpi: QpiParams,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            node: crate::presets::table_ii_node_config(),
            peach2: crate::presets::table_ii_peach2_params(),
            qpi: QpiParams::default(),
        }
    }
}

impl FabricParams {
    /// Applies an overlay; errors on the first unknown id or rejected
    /// value.
    pub fn apply(&mut self, overlay: &ParamSet) -> Result<(), String> {
        overlay.apply_to(self)
    }

    /// FNV-1a config hash over every registered `(id, value)` pair.
    pub fn fingerprint(&self) -> u64 {
        self.param_fingerprint()
    }

    /// The config hash as 16 lowercase hex digits — the form stamped
    /// into artifacts.
    pub fn fingerprint_hex(&self) -> String {
        fingerprint_hex(self.fingerprint())
    }
}

/// Config hash of the default (Table I/II preset) fabric, hex-rendered.
/// This is the fingerprint every registry scenario point is built from.
pub fn default_fingerprint_hex() -> String {
    FabricParams::default().fingerprint_hex()
}

impl Parameterized for FabricParams {
    fn param_descs() -> Vec<ParamDesc> {
        let mut descs = Peach2Params::param_descs();
        descs.extend(HostParams::param_descs());
        descs.extend(GpuParams::param_descs());
        for d in LinkParams::param_descs() {
            descs.push(d.nested("gpu"));
        }
        descs.extend(QpiParams::param_descs());
        descs.push(ParamDesc::new(
            "node.gpus",
            "TCA-reachable GPUs per node (socket 0)",
            ParamUnit::Count,
        ));
        descs
    }

    fn get_param(&self, id: &str) -> Option<u64> {
        // Exhaustive destructuring: a new NodeConfig or FabricParams
        // field without registry coverage fails to compile here.
        let FabricParams {
            node:
                NodeConfig {
                    gpus,
                    ref host,
                    ref gpu,
                    ref gpu_link,
                },
            ref peach2,
            ref qpi,
        } = *self;
        if id == "node.gpus" {
            return Some(gpus as u64);
        }
        if let Some(inner) = unnest_id(id, "gpu") {
            if let Some(v) = gpu_link.get_param(&inner) {
                return Some(v);
            }
        }
        peach2
            .get_param(id)
            .or_else(|| host.get_param(id))
            .or_else(|| gpu.get_param(id))
            .or_else(|| qpi.get_param(id))
    }

    fn set_param(&mut self, id: &str, value: u64) -> bool {
        if id == "node.gpus" {
            return match usize::try_from(value) {
                Ok(n) if (1..=2).contains(&n) => {
                    self.node.gpus = n;
                    true
                }
                _ => false,
            };
        }
        if let Some(inner) = unnest_id(id, "gpu") {
            if self.node.gpu_link.set_param(&inner, value) {
                return true;
            }
        }
        self.peach2.set_param(id, value)
            || self.node.host.set_param(id, value)
            || self.node.gpu.set_param(id, value)
            || self.qpi.set_param(id, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_component_registries() {
        let fp = FabricParams::default();
        let descs = FabricParams::param_descs();
        assert_eq!(
            descs.len(),
            Peach2Params::param_descs().len()
                + HostParams::param_descs().len()
                + GpuParams::param_descs().len()
                + LinkParams::param_descs().len()
                + QpiParams::param_descs().len()
                + 1
        );
        let mut seen = std::collections::BTreeSet::new();
        for d in &descs {
            assert!(seen.insert(d.id.clone()), "duplicate id {}", d.id);
            assert!(fp.get_param(&d.id).is_some(), "{} must resolve", d.id);
        }
    }

    #[test]
    fn round_trip_every_parameter() {
        let mut fp = FabricParams::default();
        for (id, v) in FabricParams::default().param_values() {
            assert!(fp.set_param(&id, v), "set_param({id}, {v}) rejected");
            assert_eq!(fp.get_param(&id), Some(v), "round trip of {id}");
        }
        // The identity overlay leaves the fingerprint unchanged.
        assert_eq!(
            fp.fingerprint(),
            FabricParams::default().fingerprint(),
            "identity overlay must not shift the config hash"
        );
    }

    #[test]
    fn table_ii_preset_equals_the_device_defaults() {
        // Rigs built from `FabricParams::default()` and callers that pass
        // `NodeConfig::default()` / `Peach2Params::default()` straight to
        // `build_ring` describe the same fabric only while this holds.
        let devices = FabricParams {
            node: NodeConfig::default(),
            peach2: Peach2Params::default(),
            qpi: QpiParams::default(),
        };
        assert_eq!(devices.fingerprint(), FabricParams::default().fingerprint());
    }

    #[test]
    fn overlay_reaches_the_right_component() {
        let mut fp = FabricParams::default();
        let mut set = ParamSet::new();
        set.set("peach2.desc_gap_write", 0)
            .set("link.cable.latency", 30_000)
            .set("link.gpu.latency", 10_000)
            .set("host.mem_read_latency", 50_000)
            .set("qpi.latency", 1);
        fp.apply(&set).unwrap();
        assert_eq!(fp.peach2.desc_gap_write.as_ps(), 0);
        assert_eq!(fp.peach2.cable_link.latency.as_ps(), 30_000);
        assert_eq!(fp.node.gpu_link.latency.as_ps(), 10_000);
        assert_eq!(fp.node.host.mem_read_latency.as_ps(), 50_000);
        assert_eq!(fp.qpi.latency.as_ps(), 1);
        // Host link untouched by the cable overlay.
        assert_eq!(
            fp.peach2.host_link.latency,
            FabricParams::default().peach2.host_link.latency
        );
        let mut bad = ParamSet::new();
        bad.set("peach2.not_a_knob", 1);
        assert!(fp.apply(&bad).is_err());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let base = FabricParams::default();
        let mut tweaked = base;
        assert!(tweaked.set_param("peach2.desc_gap_write", 0));
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
        assert_eq!(base.fingerprint_hex().len(), 16);
        assert_eq!(default_fingerprint_hex(), base.fingerprint_hex());
    }
}
