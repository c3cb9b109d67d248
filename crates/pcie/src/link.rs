//! PCIe link parameters and rate arithmetic.
//!
//! Reproduces the bandwidth math of §III-A and §IV-A1: a Gen2 x8 link runs
//! eight 5 GT/s lanes with 8b/10b encoding → 4 GB/s of raw byte rate, and
//! the per-TLP overhead caps the payload rate at
//! `4 GB/s × 256/280 = 3.657 GB/s` for a 256-byte max payload.

use crate::tlp::TLP_OVERHEAD_BYTES;
use tca_sim::time::PS_PER_S;
use tca_sim::{Dur, ParamDesc, ParamUnit, Parameterized, SimTime};

/// PCI Express generation (lane signalling rate + line encoding).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PcieGen {
    /// 2.5 GT/s, 8b/10b.
    Gen1,
    /// 5 GT/s, 8b/10b. What PEACH2's Stratix IV hard IP provides.
    Gen2,
    /// 8 GT/s, 128b/130b.
    Gen3,
}

impl PcieGen {
    /// Lane signalling rate in transfers (bits on the wire) per second.
    pub const fn gigatransfers_per_sec(self) -> u64 {
        match self {
            PcieGen::Gen1 => 2_500_000_000,
            PcieGen::Gen2 => 5_000_000_000,
            PcieGen::Gen3 => 8_000_000_000,
        }
    }

    /// Encoding efficiency as a (numerator, denominator) pair:
    /// 8b/10b for Gen1/2, 128b/130b for Gen3.
    pub const fn encoding(self) -> (u64, u64) {
        match self {
            PcieGen::Gen1 | PcieGen::Gen2 => (8, 10),
            PcieGen::Gen3 => (128, 130),
        }
    }
}

/// Static parameters of one PCIe link (or external PEARL cable link).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkParams {
    /// Signalling generation.
    pub gen: PcieGen,
    /// Bundled lane count (×n).
    pub lanes: u8,
    /// One-way latency added per traversal: SerDes, equalizers, repeaters,
    /// cable propagation. Calibrated per link kind (§5 of DESIGN.md).
    pub latency: Dur,
    /// Maximum TLP payload in bytes. 256 in the paper's test environment.
    pub max_payload: u32,
    /// Maximum read-request size in bytes.
    pub max_read_request: u32,
    /// Advertised posted-header credits of the receiver (TLP count).
    pub posted_hdr_credits: u32,
    /// Advertised posted-data credits of the receiver (16-byte units).
    pub posted_data_credits: u32,
    /// Advertised non-posted-header credits.
    pub nonposted_hdr_credits: u32,
    /// Advertised completion-header credits.
    pub completion_hdr_credits: u32,
    /// Advertised completion-data credits (16-byte units).
    pub completion_data_credits: u32,
    /// Delay between a packet being consumed by the receiver and the
    /// corresponding flow-control credit update reaching the sender.
    pub credit_return_delay: Dur,
    /// Overrides the byte rate computed from `gen`/`lanes`. Used for links
    /// that are not PCIe wires but reuse the link machinery: the QPI hop
    /// between sockets (whose P2P rate collapses, §IV-A2) and the
    /// InfiniBand network links of the baseline.
    pub rate_override: Option<u64>,
    /// Per-TLP corruption probability in parts-per-million. PEARL is an
    /// *Adaptive and Reliable Link* (§III-A): a corrupted TLP is detected
    /// by its LCRC, NAKed, and replayed by the data-link layer — data is
    /// never lost, bandwidth degrades. 0 (default) models clean cables.
    pub error_rate_ppm: u32,
}

impl LinkParams {
    /// A Gen2 x8 link — every PEACH2 port (§III-B) — with typical credits.
    pub fn gen2_x8() -> LinkParams {
        LinkParams {
            gen: PcieGen::Gen2,
            lanes: 8,
            latency: Dur::from_ns(150),
            max_payload: 256,
            max_read_request: 512,
            posted_hdr_credits: 64,
            posted_data_credits: 64 * 16, // 16 KiB of posted data in flight
            nonposted_hdr_credits: 32,
            completion_hdr_credits: 64,
            completion_data_credits: 64 * 16,
            credit_return_delay: Dur::from_ns(100),
            rate_override: None,
            error_rate_ppm: 0,
        }
    }

    /// A Gen2 x16 link — GPU slots in the HA-PACS node (Table II era GPUs
    /// are PCIe 2.0 devices).
    pub fn gen2_x16() -> LinkParams {
        LinkParams {
            lanes: 16,
            ..LinkParams::gen2_x8()
        }
    }

    /// A Gen3 x8 link — the InfiniBand HCA slot of the base cluster (§II-A).
    pub fn gen3_x8() -> LinkParams {
        LinkParams {
            gen: PcieGen::Gen3,
            ..LinkParams::gen2_x8()
        }
    }

    /// Overrides the one-way latency.
    pub fn with_latency(mut self, latency: Dur) -> Self {
        self.latency = latency;
        self
    }

    /// Overrides the maximum payload size.
    pub fn with_max_payload(mut self, mps: u32) -> Self {
        assert!(mps.is_power_of_two() && (128..=4096).contains(&mps));
        self.max_payload = mps;
        self
    }

    /// Sets the per-TLP corruption probability (parts per million).
    pub fn with_error_rate_ppm(mut self, ppm: u32) -> Self {
        assert!(ppm < 500_000, "error rate above 50% would never converge");
        self.error_rate_ppm = ppm;
        self
    }

    /// Time penalty of one link-level replay: the NAK DLLP crosses back,
    /// the replay buffer rewinds, and the TLP retransmits.
    pub fn replay_penalty(&self) -> Dur {
        self.latency + self.latency + Dur::from_ns(100)
    }

    /// Overrides the computed byte rate (QPI / InfiniBand style links).
    pub fn with_rate(mut self, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0);
        self.rate_override = Some(bytes_per_sec);
        self
    }

    /// Raw byte rate after encoding: `lanes × GT/s × encoding ÷ 8`, unless
    /// overridden via [`LinkParams::with_rate`].
    ///
    /// Gen2 x8 → exactly 4 GB/s, as the paper states.
    ///
    /// Runs on every TLP, so each generation's `GT/s × encoding ÷ 8` is
    /// folded into constants; `floor(floor(a/b)/c) == floor(a/(b·c))` makes
    /// the Gen3 form exact.
    #[inline]
    pub fn raw_bytes_per_sec(&self) -> u64 {
        if let Some(r) = self.rate_override {
            return r;
        }
        let lanes = self.lanes as u64;
        match self.gen {
            PcieGen::Gen1 => lanes * 250_000_000,
            PcieGen::Gen2 => lanes * 500_000_000,
            PcieGen::Gen3 => lanes * 8_000_000_000 * 128 / 1040,
        }
    }

    /// The paper's theoretical peak payload rate: raw rate derated by the
    /// per-TLP overhead at this link's maximum payload size.
    ///
    /// `4 GB/s × 256/(256+16+2+4+1+1) = 3.657 GB/s` for Gen2 x8 / MPS 256.
    pub fn theoretical_peak_bytes_per_sec(&self) -> f64 {
        let mps = self.max_payload as f64;
        self.raw_bytes_per_sec() as f64 * mps / (mps + TLP_OVERHEAD_BYTES as f64)
    }

    /// Time the wire is occupied by a packet of `wire_bytes` total bytes.
    pub fn serialize(&self, wire_bytes: u64) -> Dur {
        Dur::for_bytes(wire_bytes, self.raw_bytes_per_sec())
    }

    /// `(id, value)` for every field. The exhaustive destructuring is the
    /// registry-completeness guard: adding a field to `LinkParams` without
    /// registering it here fails to compile.
    fn param_fields(&self) -> [(&'static str, u64); 13] {
        let LinkParams {
            gen,
            lanes,
            latency,
            max_payload,
            max_read_request,
            posted_hdr_credits,
            posted_data_credits,
            nonposted_hdr_credits,
            completion_hdr_credits,
            completion_data_credits,
            credit_return_delay,
            rate_override,
            error_rate_ppm,
        } = *self;
        [
            (
                "link.gen",
                match gen {
                    PcieGen::Gen1 => 1,
                    PcieGen::Gen2 => 2,
                    PcieGen::Gen3 => 3,
                },
            ),
            ("link.lanes", u64::from(lanes)),
            ("link.latency", latency.as_ps()),
            ("link.max_payload", u64::from(max_payload)),
            ("link.max_read_request", u64::from(max_read_request)),
            ("link.posted_hdr_credits", u64::from(posted_hdr_credits)),
            ("link.posted_data_credits", u64::from(posted_data_credits)),
            (
                "link.nonposted_hdr_credits",
                u64::from(nonposted_hdr_credits),
            ),
            (
                "link.completion_hdr_credits",
                u64::from(completion_hdr_credits),
            ),
            (
                "link.completion_data_credits",
                u64::from(completion_data_credits),
            ),
            ("link.credit_return_delay", credit_return_delay.as_ps()),
            ("link.rate_override", rate_override.unwrap_or(0)),
            ("link.error_rate_ppm", u64::from(error_rate_ppm)),
        ]
    }
}

impl Parameterized for LinkParams {
    fn param_descs() -> Vec<ParamDesc> {
        vec![
            ParamDesc::new(
                "link.gen",
                "PCIe generation (1 = Gen1, 2 = Gen2, 3 = Gen3)",
                ParamUnit::Count,
            ),
            ParamDesc::new("link.lanes", "bundled lane count (x n)", ParamUnit::Count),
            ParamDesc::new(
                "link.latency",
                "one-way traversal latency (SerDes + cable propagation)",
                ParamUnit::DurationPs,
            ),
            ParamDesc::new("link.max_payload", "maximum TLP payload", ParamUnit::Bytes),
            ParamDesc::new(
                "link.max_read_request",
                "maximum read-request size",
                ParamUnit::Bytes,
            ),
            ParamDesc::new(
                "link.posted_hdr_credits",
                "receiver posted-header credits (TLPs)",
                ParamUnit::Count,
            ),
            ParamDesc::new(
                "link.posted_data_credits",
                "receiver posted-data credits (16-byte units)",
                ParamUnit::Count,
            ),
            ParamDesc::new(
                "link.nonposted_hdr_credits",
                "receiver non-posted-header credits",
                ParamUnit::Count,
            ),
            ParamDesc::new(
                "link.completion_hdr_credits",
                "receiver completion-header credits",
                ParamUnit::Count,
            ),
            ParamDesc::new(
                "link.completion_data_credits",
                "receiver completion-data credits (16-byte units)",
                ParamUnit::Count,
            ),
            ParamDesc::new(
                "link.credit_return_delay",
                "consumption-to-credit-update delay",
                ParamUnit::DurationPs,
            ),
            ParamDesc::new(
                "link.rate_override",
                "byte-rate override; 0 keeps the gen/lanes rate",
                ParamUnit::BytesPerSec,
            ),
            ParamDesc::new(
                "link.error_rate_ppm",
                "per-TLP corruption probability (parts per million)",
                ParamUnit::Count,
            ),
        ]
    }

    fn get_param(&self, id: &str) -> Option<u64> {
        self.param_fields()
            .iter()
            .find(|(k, _)| *k == id)
            .map(|(_, v)| *v)
    }

    fn set_param(&mut self, id: &str, value: u64) -> bool {
        match id {
            "link.gen" => {
                self.gen = match value {
                    1 => PcieGen::Gen1,
                    2 => PcieGen::Gen2,
                    3 => PcieGen::Gen3,
                    _ => return false,
                }
            }
            "link.lanes" => match u8::try_from(value) {
                Ok(l) if l > 0 => self.lanes = l,
                _ => return false,
            },
            "link.latency" => self.latency = Dur::from_ps(value),
            "link.max_payload" => match u32::try_from(value) {
                Ok(mps) if mps.is_power_of_two() && (128..=4096).contains(&mps) => {
                    self.max_payload = mps
                }
                _ => return false,
            },
            "link.max_read_request" => match u32::try_from(value) {
                Ok(v) if v > 0 => self.max_read_request = v,
                _ => return false,
            },
            "link.posted_hdr_credits" => match u32::try_from(value) {
                Ok(v) if v > 0 => self.posted_hdr_credits = v,
                _ => return false,
            },
            "link.posted_data_credits" => match u32::try_from(value) {
                Ok(v) if v > 0 => self.posted_data_credits = v,
                _ => return false,
            },
            "link.nonposted_hdr_credits" => match u32::try_from(value) {
                Ok(v) if v > 0 => self.nonposted_hdr_credits = v,
                _ => return false,
            },
            "link.completion_hdr_credits" => match u32::try_from(value) {
                Ok(v) if v > 0 => self.completion_hdr_credits = v,
                _ => return false,
            },
            "link.completion_data_credits" => match u32::try_from(value) {
                Ok(v) if v > 0 => self.completion_data_credits = v,
                _ => return false,
            },
            "link.credit_return_delay" => self.credit_return_delay = Dur::from_ps(value),
            "link.rate_override" => {
                self.rate_override = if value == 0 { None } else { Some(value) }
            }
            "link.error_rate_ppm" => match u32::try_from(value) {
                Ok(ppm) if ppm < 500_000 => self.error_rate_ppm = ppm,
                _ => return false,
            },
            _ => return false,
        }
        true
    }
}

/// Tracks one direction of a link: when the wire frees up, and byte/packet
/// counters for utilization reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireState {
    /// Instant at which the wire becomes idle.
    pub busy_until: SimTime,
    /// Total wire bytes pushed (payload + overhead).
    pub wire_bytes: u64,
    /// Total packets pushed.
    pub packets: u64,
    /// Link-level replays performed (corrupted TLPs retransmitted).
    pub replays: u64,
    /// Accumulated serialization time: how long the wire has been occupied
    /// pushing symbols (replayed transmissions included).
    pub busy_time: Dur,
    /// Picoseconds per wire byte when the link's byte rate divides 10^12,
    /// so that a packet's serialization time is one multiply: Gen1 at x1
    /// to x32 and Gen2 at x1 to x16 in powers of two, so every PEACH2 port
    /// and GPU slot. 0 for any other rate (QPI, the InfiniBand rails,
    /// Gen3, odd lane counts), which divides per packet.
    ps_per_byte: u64,
}

impl WireState {
    /// An idle wire for a link with `params`, its serialization constant
    /// worked out once.
    pub fn new(params: &LinkParams) -> WireState {
        let rate = params.raw_bytes_per_sec();
        let ps_per_byte = match PS_PER_S / rate {
            k if k * rate == PS_PER_S => k,
            _ => 0,
        };
        WireState {
            ps_per_byte,
            ..WireState::default()
        }
    }

    /// Time the wire is occupied by a packet of `wire_bytes` total bytes:
    /// exactly [`LinkParams::serialize`], without its divide when the
    /// rate allows.
    #[inline]
    fn serialize(&self, params: &LinkParams, wire_bytes: u64) -> Dur {
        if self.ps_per_byte == 0 {
            return params.serialize(wire_bytes);
        }
        let ps = wire_bytes.checked_mul(self.ps_per_byte);
        Dur::from_ps(ps.expect("duration overflow"))
    }

    /// Reserves the wire for a packet of `wire_bytes` starting no earlier
    /// than `now`; returns `(departure, arrival_at_other_end,
    /// serialization_time)` given the link rate and one-way latency.
    #[inline]
    pub fn reserve(
        &mut self,
        now: SimTime,
        params: &LinkParams,
        wire_bytes: u64,
    ) -> (SimTime, SimTime, Dur) {
        let departure = self.busy_until.max(now);
        let tx = self.serialize(params, wire_bytes);
        self.busy_until = departure + tx;
        self.wire_bytes += wire_bytes;
        self.packets += 1;
        self.busy_time += tx;
        // Store-and-forward: the packet is available at the receiver when the
        // last symbol has arrived.
        (departure, self.busy_until + params.latency, tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen2_x8_is_4_gbytes_per_sec() {
        assert_eq!(LinkParams::gen2_x8().raw_bytes_per_sec(), 4_000_000_000);
    }

    #[test]
    fn gen2_x16_is_8_gbytes_per_sec() {
        assert_eq!(LinkParams::gen2_x16().raw_bytes_per_sec(), 8_000_000_000);
    }

    #[test]
    fn gen3_x8_rate() {
        // 8 × 8 GT/s × 128/130 / 8 = 7.877 GB/s
        let r = LinkParams::gen3_x8().raw_bytes_per_sec();
        assert_eq!(r, 7_876_923_076);
    }

    #[test]
    fn folded_rates_match_the_encoding_formula() {
        for gen in [PcieGen::Gen1, PcieGen::Gen2, PcieGen::Gen3] {
            let (num, den) = gen.encoding();
            for lanes in [1u8, 2, 4, 8, 12, 16, 32] {
                let p = LinkParams {
                    gen,
                    lanes,
                    ..LinkParams::gen2_x8()
                };
                let formula = lanes as u64 * gen.gigatransfers_per_sec() * num / den / 8;
                assert_eq!(p.raw_bytes_per_sec(), formula, "{gen:?} x{lanes}");
            }
        }
    }

    #[test]
    fn theoretical_peak_matches_paper() {
        // §IV-A1: 4 GB/s × 256/280 = 3.657 GB/s (paper rounds to 3.66).
        let peak = LinkParams::gen2_x8().theoretical_peak_bytes_per_sec();
        assert!((peak - 3.657e9).abs() < 2e6, "peak={peak}");
    }

    #[test]
    fn serialization_times() {
        let p = LinkParams::gen2_x8();
        // A 280-wire-byte TLP at 4 GB/s = 70 ns.
        assert_eq!(p.serialize(280), Dur::from_ns(70));
    }

    #[test]
    fn wire_reserve_serializes_back_to_back() {
        let p = LinkParams::gen2_x8().with_latency(Dur::from_ns(10));
        let mut w = WireState::new(&p);
        let (d1, a1, tx) = w.reserve(SimTime::ZERO, &p, 280);
        assert_eq!(tx, p.serialize(280));
        assert_eq!(d1, SimTime::ZERO);
        assert_eq!(a1, SimTime::from_ps(80_000)); // 70 ns tx + 10 ns latency
                                                  // Second packet must queue behind the first.
        let (d2, a2, _) = w.reserve(SimTime::ZERO, &p, 280);
        assert_eq!(d2, SimTime::from_ps(70_000));
        assert_eq!(a2, SimTime::from_ps(150_000));
        assert_eq!(w.packets, 2);
        assert_eq!(w.wire_bytes, 560);
    }

    #[test]
    fn wire_idle_gap_not_backdated() {
        let p = LinkParams::gen2_x8().with_latency(Dur::ZERO);
        let mut w = WireState::new(&p);
        w.reserve(SimTime::ZERO, &p, 280);
        // Much later send starts immediately.
        let (d, _, _) = w.reserve(SimTime::from_ps(1_000_000), &p, 280);
        assert_eq!(d, SimTime::from_ps(1_000_000));
    }

    /// Every wire size of one TLP (1 to MPS 4096 + overhead), then one
    /// size whose `bytes × 10^12` overflows u64.
    fn assert_wire_exact(p: &LinkParams) {
        let w = WireState::new(p);
        let rate = p.raw_bytes_per_sec();
        let big = u64::MAX / PS_PER_S + 1;
        for b in (1..=4096 + TLP_OVERHEAD_BYTES).chain([big]) {
            assert_eq!(
                w.serialize(p, b),
                Dur::for_bytes(b, rate),
                "{b} B at {rate} B/s"
            );
        }
    }

    #[test]
    fn wire_serialize_matches_for_bytes_on_every_generation_and_width() {
        for gen in [PcieGen::Gen1, PcieGen::Gen2, PcieGen::Gen3] {
            for lanes in [1u8, 2, 3, 4, 8, 16, 32] {
                let p = LinkParams {
                    gen,
                    lanes,
                    ..LinkParams::gen2_x8()
                };
                assert_wire_exact(&p);
            }
        }
    }

    #[test]
    fn wire_serialize_matches_for_bytes_on_rate_overrides() {
        // Rates dividing 10^12 take the multiply; 300 MB/s (QPI P2P),
        // 3.2 GB/s (QDR InfiniBand) and the others divide.
        let exact = [1_000_000, 250_000_000, 4_000_000_000, PS_PER_S];
        let divide = [300_000_000, 3_200_000_000, 7, 2 * PS_PER_S, u64::MAX];
        for rate in exact {
            let p = LinkParams::gen2_x8().with_rate(rate);
            assert_ne!(WireState::new(&p).ps_per_byte, 0, "{rate}");
            assert_wire_exact(&p);
        }
        for rate in divide {
            let p = LinkParams::gen2_x8().with_rate(rate);
            assert_eq!(WireState::new(&p).ps_per_byte, 0, "{rate}");
            assert_wire_exact(&p);
        }
        // Every dma-sweep link takes the multiply.
        for p in [LinkParams::gen2_x8(), LinkParams::gen2_x16()] {
            assert_ne!(WireState::new(&p).ps_per_byte, 0);
        }
    }

    #[test]
    #[should_panic(expected = "duration overflow")]
    fn wire_serialize_overflow_panics_like_for_bytes() {
        let p = LinkParams::gen2_x8().with_rate(1);
        WireState::new(&p).serialize(&p, u64::MAX / PS_PER_S + 1);
    }

    #[test]
    fn with_max_payload_validates() {
        let p = LinkParams::gen2_x8().with_max_payload(512);
        assert_eq!(p.max_payload, 512);
    }

    #[test]
    #[should_panic]
    fn bad_max_payload_rejected() {
        let _ = LinkParams::gen2_x8().with_max_payload(300);
    }

    #[test]
    fn rate_override_wins() {
        let p = LinkParams::gen2_x8().with_rate(300_000_000);
        assert_eq!(p.raw_bytes_per_sec(), 300_000_000);
        // 300 bytes at 300 MB/s = 1 µs.
        assert_eq!(p.serialize(300), Dur::from_us(1));
    }

    #[test]
    fn param_registry_is_complete() {
        let p = LinkParams::gen3_x8().with_rate(123).with_error_rate_ppm(7);
        let descs = LinkParams::param_descs();
        // Every field registered exactly once, every desc resolvable.
        assert_eq!(descs.len(), p.param_fields().len());
        for (desc, (fid, fval)) in descs.iter().zip(p.param_fields()) {
            assert_eq!(desc.id, fid, "desc order must match field order");
            assert_eq!(p.get_param(&desc.id), Some(fval));
        }
        assert_eq!(p.get_param("link.gen"), Some(3));
        assert_eq!(p.get_param("link.rate_override"), Some(123));
        assert_eq!(p.get_param("no.such.param"), None);
    }

    #[test]
    fn param_round_trip_get_set_get() {
        let mut p = LinkParams::gen2_x8();
        for (id, v) in LinkParams::gen2_x8().param_values() {
            assert!(p.set_param(&id, v), "set_param({id}, {v}) rejected");
            assert_eq!(p.get_param(&id), Some(v), "round trip of {id}");
        }
        assert_eq!(p, LinkParams::gen2_x8(), "identity overlay is a no-op");
        // Typed sets round-trip through the underlying representation.
        assert!(p.set_param("link.latency", 12_345));
        assert_eq!(p.latency, Dur::from_ps(12_345));
        assert!(p.set_param("link.rate_override", 0));
        assert_eq!(p.rate_override, None);
        assert!(p.set_param("link.gen", 1));
        assert_eq!(p.gen, PcieGen::Gen1);
        // Out-of-range values are rejected without mutating.
        assert!(!p.set_param("link.gen", 4));
        assert!(!p.set_param("link.lanes", 0));
        assert!(!p.set_param("link.max_payload", 300));
        assert!(!p.set_param("link.error_rate_ppm", 600_000));
        assert!(!p.set_param("link.nope", 1));
    }
}
