//! PCIe credit-based flow control.
//!
//! Each link direction carries the *sender-side* view of the receiver's
//! buffer credits, split into the three PCIe flow-control classes. Header
//! credits are counted in TLPs, data credits in 16-byte units, exactly like
//! the real protocol. Non-posted requests carry no data in this model, so
//! only their header credit is tracked.

use crate::link::LinkParams;
use crate::tlp::FcClass;

/// Sender-side credit counters for one link direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditState {
    /// Posted header credits (MemWrite, Msi).
    pub posted_hdr: u32,
    /// Posted data credits, 16-byte units.
    pub posted_data: u32,
    /// Non-posted header credits (MemRead).
    pub nonposted_hdr: u32,
    /// Completion header credits.
    pub completion_hdr: u32,
    /// Completion data credits, 16-byte units.
    pub completion_data: u32,
}

impl CreditState {
    /// Initial credits advertised by a receiver with the given parameters.
    pub fn from_params(p: &LinkParams) -> Self {
        CreditState {
            posted_hdr: p.posted_hdr_credits,
            posted_data: p.posted_data_credits,
            nonposted_hdr: p.nonposted_hdr_credits,
            completion_hdr: p.completion_hdr_credits,
            completion_data: p.completion_data_credits,
        }
    }

    /// Whether a packet of `class` needing `data` data-credits can be sent.
    pub fn available(&self, class: FcClass, data: u32) -> bool {
        match class {
            FcClass::Posted => self.posted_hdr >= 1 && self.posted_data >= data,
            FcClass::NonPosted => self.nonposted_hdr >= 1,
            FcClass::Completion => self.completion_hdr >= 1 && self.completion_data >= data,
        }
    }

    /// Consumes credits for one packet. Returns `false` (consuming nothing)
    /// when insufficient.
    pub fn consume(&mut self, class: FcClass, data: u32) -> bool {
        if !self.available(class, data) {
            return false;
        }
        match class {
            FcClass::Posted => {
                self.posted_hdr -= 1;
                self.posted_data -= data;
            }
            FcClass::NonPosted => self.nonposted_hdr -= 1,
            FcClass::Completion => {
                self.completion_hdr -= 1;
                self.completion_data -= data;
            }
        }
        true
    }

    /// Returns credits for one packet (an UpdateFC from the receiver): its
    /// header credit and `data` data credits, the inverse of
    /// [`CreditState::consume`].
    pub fn replenish(&mut self, class: FcClass, data: u32) {
        match class {
            FcClass::Posted => {
                self.posted_hdr += 1;
                self.posted_data += data;
            }
            FcClass::NonPosted => self.nonposted_hdr += 1,
            FcClass::Completion => {
                self.completion_hdr += 1;
                self.completion_data += data;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CreditState {
        CreditState {
            posted_hdr: 2,
            posted_data: 32, // 512 bytes
            nonposted_hdr: 1,
            completion_hdr: 2,
            completion_data: 16,
        }
    }

    #[test]
    fn from_params_copies_advertisement() {
        let p = LinkParams::gen2_x8();
        let c = CreditState::from_params(&p);
        assert_eq!(c.posted_hdr, p.posted_hdr_credits);
        assert_eq!(c.completion_data, p.completion_data_credits);
    }

    #[test]
    fn posted_consume_and_exhaust() {
        let mut c = small();
        assert!(c.consume(FcClass::Posted, 16)); // 256 B
        assert!(c.consume(FcClass::Posted, 16));
        assert!(!c.consume(FcClass::Posted, 1), "headers exhausted");
        assert_eq!(c.posted_hdr, 0);
        assert_eq!(c.posted_data, 0);
    }

    #[test]
    fn posted_data_limits_even_with_headers() {
        let mut c = small();
        assert!(!c.consume(FcClass::Posted, 33), "data credits insufficient");
        assert_eq!(c.posted_hdr, 2, "nothing consumed on failure");
    }

    #[test]
    fn nonposted_ignores_data() {
        let mut c = small();
        assert!(c.consume(FcClass::NonPosted, 0));
        assert!(!c.consume(FcClass::NonPosted, 0));
        c.replenish(FcClass::NonPosted, 0);
        assert!(c.consume(FcClass::NonPosted, 0));
    }

    #[test]
    fn completion_class_independent_of_posted() {
        let mut c = small();
        while c.consume(FcClass::Posted, 1) {}
        assert!(c.available(FcClass::Completion, 16));
        assert!(c.consume(FcClass::Completion, 16));
    }

    #[test]
    fn replenish_restores() {
        let mut c = small();
        assert!(c.consume(FcClass::Posted, 32));
        c.replenish(FcClass::Posted, 32);
        assert_eq!(c, {
            let mut x = small();
            x.consume(FcClass::Posted, 32);
            x.replenish(FcClass::Posted, 32);
            x
        });
        assert!(c.consume(FcClass::Posted, 32));
    }
}
