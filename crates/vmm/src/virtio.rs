//! The VirtIO block backend.
//!
//! Network devices live in `netsim`, which owns the only model of
//! kick/poll costs ([`netsim::NetBackend`]); every platform routes its
//! `NetKick`/`NetPoll`/`VcpuHalt` hypercalls through it. The block backend
//! stays here: netsim is a networking crate.

use netsim::ExitCosts;
use sim_hw::{Clock, Tag};

/// The VirtIO block backend (disk latency model).
#[derive(Debug)]
pub struct BlockBackend {
    /// Exit-class costs of the hosting design.
    pub exits: ExitCosts,
    /// Device latency per request in cycles (NVMe-class: ~20 µs).
    pub device_cycles: u64,
    /// Requests served.
    pub requests: u64,
}

impl BlockBackend {
    /// Creates a block backend.
    pub fn new(exits: ExitCosts) -> Self {
        Self {
            exits,
            device_cycles: 48_000,
            requests: 0,
        }
    }

    /// Submits one request of `bytes` bytes.
    pub fn submit(&mut self, clock: &mut Clock, bytes: u32) {
        self.requests += 1;
        let m = clock.model().clone();
        clock.charge(Tag::VmExit, self.exits.roundtrip);
        clock.charge(
            Tag::Io,
            m.virtio_process + bytes as u64 * m.copy_per_byte_x100 / 100,
        );
        clock.charge(Tag::Io, self.device_cycles);
        clock.charge(Tag::Io, self.exits.irq_inject);
        clock.charge(Tag::VmExit, self.exits.eoi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_hw::CostModel;

    #[test]
    fn block_request_charges_device_latency() {
        let m = CostModel::default();
        let mut clock = Clock::new(m.clone());
        let mut be = BlockBackend::new(ExitCosts::hvm_bm(&m));
        be.submit(&mut clock, 4096);
        assert!(clock.ns() > 20_000.0, "NVMe-class latency");
        assert_eq!(be.requests, 1);
    }
}
