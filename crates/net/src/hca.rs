//! The InfiniBand HCA and switch models.
//!
//! The baseline interconnect of the HA-PACS base cluster (Table I):
//! Mellanox Connect-X3 dual-port QDR, fat tree with full bisection — which
//! we model as one switch per rail, since the experiments never oversubscribe
//! a fat tree with full bisection bandwidth.
//!
//! The HCA is an RDMA-write engine: a posted [`SendOp`] gathers the local
//! source with PCIe reads (through the same tag-limited machinery as the
//! PEACH2 DMAC — including the slow GPU BAR read path when the source is
//! GPU memory), streams MTU-sized frames across the rails, and finally
//! writes per-rail flag words into the receiver's mailbox so software can
//! detect completion. Frames are TLP-shaped on the wire: the ≈24-byte
//! overhead stands in for the comparable LRH/BTH/CRC framing of real IB.
//!
//! Frames carry a *node-tagged* address ([`ib_addr`]): the top 16 bits name
//! the destination node (switch routing key), the low 48 bits the address
//! in the destination node's local PCIe space. The receiving HCA strips
//! the tag and re-segments into MPS-sized TLPs toward host/GPU memory —
//! the protocol conversion PEACH2 exists to avoid (§V).

use crate::params::IbParams;
use std::collections::HashMap;
use tca_pcie::{Bytes, Ctx, Device, DeviceId, PortIdx, ReadReassembly, TagPool, Tlp, TlpKind};
use tca_sim::{Counter, CounterId, GaugeId, MetricsHub};

/// Bit position of the node tag in an IB wire address.
pub const IB_NODE_SHIFT: u32 = 48;

/// Encodes a destination (node, local address) into an IB wire address.
#[track_caller]
pub fn ib_addr(node: u32, local: u64) -> u64 {
    assert!(local < 1 << IB_NODE_SHIFT, "local address too large");
    ((node as u64) << IB_NODE_SHIFT) | local
}

/// Decodes an IB wire address.
pub fn ib_decode(addr: u64) -> (u32, u64) {
    (
        (addr >> IB_NODE_SHIFT) as u32,
        addr & ((1 << IB_NODE_SHIFT) - 1),
    )
}

/// One RDMA-write work request.
#[derive(Clone, Copy, Debug)]
pub struct SendOp {
    /// Local PCIe source address (host DRAM or pinned GPU BAR).
    pub src: u64,
    /// Destination node id.
    pub dst_node: u32,
    /// Destination address in the remote node's local space.
    pub dst: u64,
    /// Payload length.
    pub len: u64,
    /// Remote mailbox (host DRAM): one u32 flag per rail is written there
    /// after the rail's last data frame.
    pub flags_addr: u64,
    /// Value written to the flags (a sequence number).
    pub flag_value: u32,
}

const T_SETUP: u64 = 1 << 56;
const T_FWD: u64 = 2 << 56;
const KIND_MASK: u64 = 0xff << 56;

struct ActiveSend {
    op: SendOp,
    buf: ReadReassembly,
    received: u64,
    issued: u64,
    /// Next byte to cut into frames (contiguous prefix only).
    framed: u64,
    frame_seq: u64,
}

/// The HCA device. Port 0 is the PCIe slot; ports `1..=rails` are rails.
pub struct IbHca {
    id: DeviceId,
    name: String,
    node: u32,
    params: IbParams,
    tags: TagPool,
    reads: HashMap<u16, (u64, u32)>, // tag -> (offset, len)
    queue: Vec<SendOp>,
    active: Option<ActiveSend>,
    setup_pending: bool,
    pending_fwd: Vec<Option<(PortIdx, Tlp)>>,
    fwd_free: Vec<usize>,
    /// Frames sent onto the network.
    pub frames_tx: Counter,
    /// Frames received from the network.
    pub frames_rx: Counter,
    /// Metric ids cached on first publish (send-queue gauge, tx/rx
    /// counters, reads-in-flight gauge).
    metric_ids: Option<(GaugeId, CounterId, CounterId, GaugeId)>,
}

impl IbHca {
    /// Creates an HCA for `node`.
    pub fn new(id: DeviceId, name: impl Into<String>, node: u32, params: IbParams) -> Self {
        IbHca {
            id,
            name: name.into(),
            node,
            params,
            tags: TagPool::new(params.tags),
            reads: HashMap::new(),
            queue: Vec::new(),
            active: None,
            setup_pending: false,
            pending_fwd: Vec::new(),
            fwd_free: Vec::new(),
            frames_tx: Counter::new(),
            frames_rx: Counter::new(),
            metric_ids: None,
        }
    }

    /// Posts a work request (doorbell). The HCA begins after `hca_setup`.
    pub fn post(&mut self, op: SendOp, ctx: &mut Ctx<'_>) {
        assert!(op.len > 0, "empty SendOp");
        self.queue.push(op);
        self.try_start(ctx);
    }

    /// True when no work is queued or in flight.
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_none() && !self.setup_pending
    }

    fn try_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.active.is_some() || self.setup_pending || self.queue.is_empty() {
            return;
        }
        self.setup_pending = true;
        ctx.timer_in(self.params.hca_setup, T_SETUP);
    }

    fn begin(&mut self, ctx: &mut Ctx<'_>) {
        self.setup_pending = false;
        let op = self.queue.remove(0);
        self.active = Some(ActiveSend {
            buf: ReadReassembly::new(op.len as usize),
            op,
            received: 0,
            issued: 0,
            framed: 0,
            frame_seq: 0,
        });
        self.pump_reads(ctx);
    }

    fn pump_reads(&mut self, ctx: &mut Ctx<'_>) {
        let Some(a) = &mut self.active else { return };
        let mrrs = self.params.pcie_link.max_read_request as u64;
        while a.issued < a.op.len {
            let Some(tag) = self.tags.alloc() else { break };
            let n = mrrs.min(a.op.len - a.issued) as u32;
            self.reads.insert(tag.0, (a.issued, n));
            ctx.send(PortIdx(0), Tlp::read(a.op.src + a.issued, n, tag, self.id));
            a.issued += n as u64;
        }
    }

    /// Cuts the contiguous prefix into MTU frames and sends them.
    fn pump_frames(&mut self, ctx: &mut Ctx<'_>) {
        let rails = self.params.rails as u64;
        let mtu = self.params.mtu as u64;
        let Some(a) = &mut self.active else { return };
        loop {
            let avail = a.received - a.framed;
            let remaining = a.op.len - a.framed;
            let cut = mtu.min(remaining);
            if avail < cut || cut == 0 {
                break;
            }
            // Peek the contiguous prefix out of the reassembly buffer.
            let frame = Bytes::copy_from_slice(a.buf.peek(a.framed as usize, cut as usize));
            let rail = PortIdx(1 + (a.frame_seq % rails) as u8);
            let addr = ib_addr(a.op.dst_node, a.op.dst + a.framed);
            ctx.send(rail, Tlp::write(addr, frame));
            self.frames_tx.inc();
            a.framed += cut;
            a.frame_seq += 1;
        }
        if a.framed >= a.op.len {
            // All data framed: write the per-rail completion flags, each on
            // its own rail so it orders behind that rail's data.
            let op = a.op;
            for rail in 0..self.params.rails {
                let addr = ib_addr(op.dst_node, op.flags_addr + rail as u64 * 4);
                ctx.send(
                    PortIdx(1 + rail),
                    Tlp::write(addr, Bytes::copy_from_slice(&op.flag_value.to_le_bytes())),
                );
            }
            self.active = None;
            self.try_start(ctx);
        }
    }

    fn forward_after(&mut self, delay: tca_sim::Dur, port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
        let slot = if let Some(s) = self.fwd_free.pop() {
            self.pending_fwd[s] = Some((port, tlp));
            s
        } else {
            self.pending_fwd.push(Some((port, tlp)));
            self.pending_fwd.len() - 1
        };
        ctx.timer_in(delay, T_FWD | slot as u64);
    }

    /// Re-segments an inbound frame into host-link TLPs that share the
    /// frame's payload.
    fn deliver_frame(&mut self, addr: u64, data: &Bytes, ctx: &mut Ctx<'_>) {
        let (node, local) = ib_decode(addr);
        assert_eq!(node, self.node, "{}: misrouted frame", self.name);
        self.frames_rx.inc();
        let mps = self.params.pcie_link.max_payload as usize;
        for start in (0..data.len()).step_by(mps) {
            let end = data.len().min(start + mps);
            let tlp = Tlp::write(local + start as u64, data.slice(start..end));
            self.forward_after(self.params.rx_forward, PortIdx(0), tlp, ctx);
        }
    }
}

impl Device for IbHca {
    fn on_tlp(&mut self, port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
        match tlp.kind {
            TlpKind::Completion {
                tag,
                requester,
                offset,
                ref data,
                last,
            } => {
                assert_eq!(port, PortIdx(0), "completion from the network?");
                assert_eq!(requester, self.id);
                let (req_off, req_len) = *self.reads.get(&tag.0).expect("unknown read tag");
                let a = self.active.as_mut().expect("completion with no active op");
                a.buf.add((req_off + offset as u64) as u32, data);
                a.received += data.len() as u64;
                // A request is finished when its final completion arrives.
                if last && offset + data.len() as u32 >= req_len {
                    self.reads.remove(&tag.0);
                    self.tags.release(tag);
                    self.pump_reads(ctx);
                }
                self.pump_frames(ctx);
            }
            TlpKind::MemWrite { addr, ref data } => {
                assert_ne!(port, PortIdx(0), "{}: host wrote into the HCA", self.name);
                self.deliver_frame(addr, data, ctx);
            }
            other => panic!(
                "{}: unexpected TLP {:?}",
                self.name,
                Tlp {
                    kind: other,
                    span: None
                }
            ),
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        match tag & KIND_MASK {
            T_SETUP => self.begin(ctx),
            T_FWD => {
                let slot = (tag & !KIND_MASK) as usize;
                let (port, tlp) = self.pending_fwd[slot].take().expect("empty fwd slot");
                self.fwd_free.push(slot);
                ctx.send(port, tlp);
            }
            k => unreachable!("bad HCA timer kind {k:#x}"),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn publish_metrics(&mut self, hub: &mut MetricsHub) {
        // Ids registered once, reused on every later publish (host-side
        // cache; see `Device::publish_metrics`).
        let (send_q_depth, frames_tx, frames_rx, reads_in_flight) =
            *self.metric_ids.get_or_insert_with(|| {
                let p = &self.name;
                (
                    hub.gauge(format!("{p}.send_q_depth")),
                    hub.counter(format!("{p}.frames_tx")),
                    hub.counter(format!("{p}.frames_rx")),
                    hub.gauge(format!("{p}.reads_in_flight")),
                )
            });
        // Posted work requests waiting plus the one being gathered/framed,
        // so the gauge reads as "operations the HCA has not finished".
        let depth =
            self.queue.len() + usize::from(self.active.is_some()) + usize::from(self.setup_pending);
        hub.gauge_set(send_q_depth, depth as i64);
        hub.counter_sync(frames_tx, self.frames_tx.get());
        hub.counter_sync(frames_rx, self.frames_rx.get());
        hub.gauge_set(reads_in_flight, self.reads.len() as i64);
    }

    fn health_status(&self) -> Option<String> {
        let state = if self.setup_pending {
            "setting up"
        } else if self.active.is_some() {
            "sending"
        } else {
            "idle"
        };
        Some(format!(
            "{state}, {} op(s) queued, {} PCIe read(s) in flight",
            self.queue.len(),
            self.reads.len(),
        ))
    }
}

/// A crossbar switch routing frames by their node tag: port `i` leads to
/// node `i`'s HCA.
pub struct IbSwitch {
    #[allow(dead_code)]
    id: DeviceId,
    name: String,
    latency: tca_sim::Dur,
    pending: Vec<Option<(PortIdx, Tlp)>>,
    free: Vec<usize>,
    /// Frames switched.
    pub switched: Counter,
}

impl IbSwitch {
    /// Creates a switch with the given traversal latency.
    pub fn new(id: DeviceId, name: impl Into<String>, latency: tca_sim::Dur) -> Self {
        IbSwitch {
            id,
            name: name.into(),
            latency,
            pending: Vec::new(),
            free: Vec::new(),
            switched: Counter::new(),
        }
    }
}

impl Device for IbSwitch {
    fn on_tlp(&mut self, _port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>) {
        let TlpKind::MemWrite { addr, .. } = &tlp.kind else {
            panic!("{}: switches carry only data frames", self.name);
        };
        let (node, _) = ib_decode(*addr);
        self.switched.inc();
        let out = PortIdx(node as u8);
        let slot = if let Some(s) = self.free.pop() {
            self.pending[s] = Some((out, tlp));
            s
        } else {
            self.pending.push(Some((out, tlp)));
            self.pending.len() - 1
        };
        ctx.timer_in(self.latency, slot as u64);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        let (port, tlp) = self.pending[tag as usize].take().expect("empty slot");
        self.free.push(tag as usize);
        ctx.send(port, tlp);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ib_addr_round_trip() {
        for (n, a) in [(0u32, 0u64), (3, 0x20_0000_0100), (15, (1 << 48) - 1)] {
            let enc = ib_addr(n, a);
            assert_eq!(ib_decode(enc), (n, a));
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_local_addr_rejected() {
        let _ = ib_addr(1, 1 << 48);
    }
}
