//! The device abstraction every model implements.
//!
//! A [`Device`] is a node on the PCIe fabric (host bridge, GPU, PEACH2
//! chip, NIC…). Devices are event-driven: the fabric calls [`Device::on_tlp`]
//! when a packet arrives on one of the device's ports and
//! [`Device::on_timer`] when a self-armed timer fires. Handlers act on the
//! fabric through [`Ctx`], which applies each effect (send, timer, credit
//! release) the moment it is made, in call order.

use crate::fabric::Net;
use crate::tlp::{DeviceId, Dir, FcClass, PortIdx, Tlp};
use std::any::Any;
use tca_sim::{Dur, MetricsHub, SimTime, SpanStore};

/// A held receive-buffer credit. Devices that apply backpressure (PEACH2's
/// finite internal packet buffer) call [`Ctx::hold_credits`] inside
/// `on_tlp` and release the hold once the packet has actually left the
/// device. Dropping a hold without releasing it leaks receiver buffer space
/// and will eventually stall the link — deliberately, as real hardware would.
#[derive(Debug)]
#[must_use = "a credit hold must eventually be released back to the link"]
pub struct CreditHold {
    pub(crate) link: u32,
    /// Direction the packet travelled.
    pub(crate) dir: Dir,
    pub(crate) class: FcClass,
    pub(crate) hdr: u32,
    pub(crate) data: u32,
}

/// Handler context: the only way a device interacts with the world.
///
/// Every effect takes hold at once, in call order. Inside `on_tlp` the
/// first effect returns the delivery's credits just before it is applied,
/// unless the handler already took them with [`Ctx::hold_credits`]; a
/// handler that makes no effect returns them when it ends.
pub struct Ctx<'a> {
    net: &'a mut Net,
    self_id: DeviceId,
    /// Credits of the in-flight delivery; `Some` only inside `on_tlp`,
    /// until the handler holds them or makes its first effect.
    delivery_credits: Option<CreditHold>,
    /// Set when the first effect returned the delivery's credits.
    credits_returned: bool,
    /// Set by [`Ctx::note_progress`]; the fabric reads it after the handler
    /// returns to feed the stall watchdog.
    progress: bool,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(net: &'a mut Net, self_id: DeviceId, delivery: Option<CreditHold>) -> Self {
        Ctx {
            net,
            self_id,
            delivery_credits: delivery,
            credits_returned: false,
            progress: false,
        }
    }

    /// Ends the handler: returns the delivery's credits if no effect has
    /// yet, and reports whether the handler noted progress.
    pub(crate) fn finish(mut self) -> bool {
        self.effect();
        self.progress
    }

    /// The fabric, after returning the delivery's credits if they are
    /// still pending — called before every effect so the credit return
    /// keeps its place ahead of the handler's own events.
    #[inline]
    fn effect(&mut self) -> &mut Net {
        if let Some(hold) = self.delivery_credits.take() {
            self.credits_returned = true;
            self.net.release(hold);
        }
        self.net
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// The handling device's own id (used as requester id in reads).
    #[inline]
    pub fn self_id(&self) -> DeviceId {
        self.self_id
    }

    /// Hands a TLP to `port` for transmission. Transmission obeys link
    /// serialization and flow control; packets queued on a blocked link are
    /// sent in order when credits return.
    #[track_caller]
    pub fn send(&mut self, port: PortIdx, tlp: Tlp) {
        let src = self.self_id;
        self.effect().submit(src, port, tlp);
    }

    /// Arms a one-shot timer that calls `on_timer(tag)` after `delay`.
    pub fn timer_in(&mut self, delay: Dur, tag: u64) {
        let dst = self.self_id;
        self.effect().timer(dst, delay, tag);
    }

    /// Takes ownership of the receive credits of the packet currently being
    /// delivered, deferring their return to the sender. Call
    /// [`Ctx::release_credits`] (possibly from a later handler) when the
    /// packet has drained out of the device.
    ///
    /// # Panics
    /// Panics outside `on_tlp`, when called twice for one delivery, or
    /// after the handler's first effect (which already returned them).
    #[track_caller]
    pub fn hold_credits(&mut self) -> CreditHold {
        assert!(
            !self.credits_returned,
            "hold_credits after a send, timer or release: the delivery's credits were already returned"
        );
        self.delivery_credits
            .take()
            .expect("hold_credits: no in-flight delivery (or already held)")
    }

    /// Returns previously held credits to the link, unblocking queued
    /// packets of the matching class.
    pub fn release_credits(&mut self, hold: CreditHold) {
        self.effect().release(hold);
    }

    /// Reports end-to-end forward progress — a memory commit or an
    /// equivalent externally visible effect — to the stall watchdog.
    ///
    /// Only *commits* count: a chip relaying a packet another hop must NOT
    /// call this, or routing livelock (packets circulating forever without
    /// ever landing) would look like progress and the watchdog could never
    /// diagnose it.
    pub fn note_progress(&mut self) {
        self.progress = true;
    }

    /// The fabric-wide causal span store. Recording into it is pure data
    /// collection — like metrics, it never schedules events, so handlers
    /// may use it freely without perturbing simulated time.
    pub fn spans(&mut self) -> &mut SpanStore {
        &mut self.net.spans
    }
}

/// A device model attached to the fabric.
///
/// The `Any` supertrait enables downcasting through trait upcasting, so the
/// bench harness can reach into concrete device types between run steps.
pub trait Device: Any {
    /// A TLP arrived on `port`.
    fn on_tlp(&mut self, port: PortIdx, tlp: Tlp, ctx: &mut Ctx<'_>);

    /// A timer armed via [`Ctx::timer_in`] fired.
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>);

    /// Human-readable name for traces.
    fn name(&self) -> &str {
        "device"
    }

    /// Publishes this device's internal collectors into the fabric-wide
    /// registry. Called by `Fabric::metrics_snapshot` before every snapshot;
    /// implementations must only read *simulated* device state and write
    /// metrics — never schedule events — so snapshots stay time-neutral.
    /// The receiver is `&mut self` solely so implementations can cache the
    /// [`MetricsHub`] ids they register on first publish (name lookups
    /// allocate; id-based updates do not); cached ids are host-side state
    /// invisible to the event stream.
    fn publish_metrics(&mut self, _hub: &mut MetricsHub) {}

    /// One-line description of the device's engine state for the stall
    /// watchdog's diagnosis (DMA phase, queue depths, in-flight work).
    /// `None` (the default) means the device has nothing useful to say;
    /// idle devices should still return a line so the diagnosis shows them
    /// as not-the-culprit. Pure read — never schedules events.
    fn health_status(&self) -> Option<String> {
        None
    }

    /// Stable short name for a device-private timer `tag` encoding, used
    /// by the flight recorder to label timer events (`"relay_forward"`,
    /// `"desc_decode"`) instead of printing an opaque integer. `None` (the
    /// default) renders as the raw tag. Pure read — never schedules events.
    fn timer_kind(&self, _tag: u64) -> Option<&'static str> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, LinkParams, StepKind};

    struct Probe;
    impl Device for Probe {
        fn on_tlp(&mut self, _p: PortIdx, _t: Tlp, _c: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_>) {}
    }

    /// A device whose handlers are plain functions, one per test.
    struct Scripted {
        on_tlp: fn(&mut Ctx<'_>),
        on_timer: fn(&mut Ctx<'_>, u64),
    }
    impl Device for Scripted {
        fn on_tlp(&mut self, _p: PortIdx, _t: Tlp, ctx: &mut Ctx<'_>) {
            (self.on_tlp)(ctx)
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
            (self.on_timer)(ctx, tag)
        }
    }

    const P0: PortIdx = PortIdx(0);

    fn link() -> LinkParams {
        LinkParams::gen2_x8().with_latency(Dur::from_ns(100))
    }

    /// Wire time plus latency of one MSI on an idle [`link`].
    fn msi_flight() -> Dur {
        link().serialize(Tlp::msi(0).wire_bytes()) + link().latency
    }

    /// `a` and `b` joined port 0 to port 0 by a [`link`] whose credit
    /// turnaround equals [`msi_flight`], so a credit return and an MSI
    /// sent by the same handler land at the same instant.
    fn pair(a: Scripted, b: Scripted) -> (Fabric, DeviceId) {
        let mut f = Fabric::new();
        let a = f.add_device(|_| a);
        let b = f.add_device(|_| b);
        let mut p = link();
        p.credit_return_delay = msi_flight();
        f.connect((a, P0), (b, P0), p);
        (f, a)
    }

    fn idle() -> Scripted {
        Scripted {
            on_tlp: |_| {},
            on_timer: |_, _| {},
        }
    }

    /// Steps twice and returns both kinds, checking they share an instant.
    fn same_instant_pair(f: &mut Fabric) -> [StepKind; 2] {
        let first = f.step_kind().expect("first event");
        let at = f.now();
        let second = f.step_kind().expect("second event");
        assert_eq!(f.now(), at, "the two events must tie in time");
        [first, second]
    }

    #[test]
    fn effects_of_one_handler_are_scheduled_in_call_order() {
        for send_first in [true, false] {
            let a = Scripted {
                on_tlp: |_| {},
                on_timer: if send_first {
                    |ctx, tag| {
                        if tag == 0 {
                            ctx.send(P0, Tlp::msi(0));
                            ctx.timer_in(msi_flight(), 1);
                        }
                    }
                } else {
                    |ctx, tag| {
                        if tag == 0 {
                            ctx.timer_in(msi_flight(), 1);
                            ctx.send(P0, Tlp::msi(0));
                        }
                    }
                },
            };
            let (mut f, a) = pair(a, idle());
            f.schedule_timer(a, Dur::ZERO, 0);
            assert_eq!(f.step_kind(), Some(StepKind::Timer));
            let order = same_instant_pair(&mut f);
            assert_eq!(f.now(), SimTime::ZERO + msi_flight());
            let expected = if send_first {
                [StepKind::Deliver, StepKind::Timer]
            } else {
                [StepKind::Timer, StepKind::Deliver]
            };
            assert_eq!(order, expected, "send_first={send_first}");
        }
    }

    #[test]
    fn delivery_credits_return_before_the_first_send() {
        let b = Scripted {
            on_tlp: |ctx| ctx.send(P0, Tlp::msi(1)),
            on_timer: |_, _| {},
        };
        let (mut f, a) = pair(idle(), b);
        f.drive::<Scripted, _>(a, |_, ctx| ctx.send(P0, Tlp::msi(0)));
        assert_eq!(f.step_kind(), Some(StepKind::Deliver));
        let delivered = f.now();
        // The credit return and the reply both land one MSI flight later;
        // the tie breaks by scheduling order.
        let order = same_instant_pair(&mut f);
        assert_eq!(f.now(), delivered + msi_flight());
        assert_eq!(order, [StepKind::CreditReturn, StepKind::Deliver]);
    }

    #[test]
    #[should_panic(expected = "hold_credits after a send, timer or release")]
    fn hold_credits_after_a_send_panics() {
        let b = Scripted {
            on_tlp: |ctx| {
                ctx.send(P0, Tlp::msi(1));
                let _ = ctx.hold_credits();
            },
            on_timer: |_, _| {},
        };
        let (mut f, a) = pair(idle(), b);
        f.drive::<Scripted, _>(a, |_, ctx| ctx.send(P0, Tlp::msi(0)));
        f.run_until_idle();
    }

    #[test]
    #[should_panic(expected = "no in-flight delivery")]
    fn hold_credits_outside_delivery_panics() {
        let (mut f, a) = pair(idle(), idle());
        f.drive::<Scripted, _>(a, |_, ctx| {
            let _ = ctx.hold_credits();
        });
    }

    #[test]
    fn handler_spans_number_before_the_wire_segments_of_its_sends() {
        let a = Scripted {
            on_tlp: |_| {},
            on_timer: |ctx, _| {
                let now = ctx.now();
                let sp = ctx.spans().start_root("put", now, Some(0));
                ctx.send(P0, Tlp::msi(0).with_span(sp));
                let sp = sp.expect("tracing enabled");
                ctx.spans().segment(sp, "handler", now, now, Some(0));
            },
        };
        let (mut f, a) = pair(a, idle());
        f.set_span_tracing(true);
        f.schedule_timer(a, Dur::ZERO, 0);
        f.run_until_idle();
        let log = f.spans().jsonl();
        let id = |name: &str| {
            let tag = format!("\"name\":\"{name}\"");
            1 + log.lines().position(|l| l.contains(&tag)).expect(name)
        };
        assert_eq!((id("put"), id("handler"), id("wire")), (1, 2, 3), "{log}");
    }

    #[test]
    fn device_trait_is_object_safe() {
        let b: Box<dyn Device> = Box::new(Probe);
        assert_eq!(b.name(), "device");
    }
}
