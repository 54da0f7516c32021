//! The virtio-blk device: one request, one notification.
//!
//! A block request crosses the same guest→host boundary a NIC doorbell
//! does, so it is priced by the same [`Doorbell`] and [`IrqPath`]: the
//! guest rings, the host processes the request and copies its bytes, the
//! device takes its fixed latency, and completion comes back as an
//! injected interrupt the guest acknowledges. Only the notification
//! mechanism differs between backends — an MMIO exit on HVM, a world
//! switch on PVM, a shared-memory write on CKI.
//!
//! There is no ring: the filesystem above keeps metadata only, so a
//! request carries no payload that guest memory would have to hold.

use sim_hw::{cost, Clock, Tag};

use crate::nic::{Doorbell, IrqPath, NicBackendKind};

/// Device latency per request, in cycles (NVMe-class: 20 µs at 2.4 GHz).
const DEVICE_CYCLES: u64 = 48_000;

/// One container's block device.
#[derive(Debug, Clone)]
pub struct VirtioBlk {
    doorbell: Doorbell,
    irq: IrqPath,
}

impl VirtioBlk {
    /// The device as the backend `kind` notifies it.
    pub fn for_backend(kind: NicBackendKind) -> Self {
        Self {
            doorbell: Doorbell::for_backend(kind),
            irq: IrqPath::for_backend(kind),
        }
    }

    /// Submits one request of `bytes` bytes and waits for its completion.
    pub fn submit(&self, clock: &mut Clock, bytes: u32) {
        self.doorbell.ring(clock);
        let service = cost::VIRTIO_PROCESS + cost::copy_cycles(bytes as u64);
        clock.charge(Tag::Io, service);
        clock.charge(Tag::Io, DEVICE_CYCLES);
        clock.charge(Tag::Io, self.irq.inject);
        clock.charge(Tag::VmExit, self.irq.eoi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_request_charges_device_latency() {
        let mut clock = Clock::default();
        let blk = VirtioBlk::for_backend(NicBackendKind::HvmBm);
        blk.submit(&mut clock, 4096);
        assert!(clock.ns() > 20_000.0, "NVMe-class latency");
    }
}
