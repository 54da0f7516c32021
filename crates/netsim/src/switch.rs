//! The vhost-style host switch.
//!
//! One [`HostSwitch`] lives in the host (CloudHost, the workload cluster
//! harness, or a differential-test fixture) and connects every container's
//! NIC through a [`PortId`]. Forwarding is MAC-learned — `attach`
//! pre-learns the port's own MAC, and `ingress` learns source addresses —
//! and every port has a bounded-depth egress FIFO. A full FIFO is
//! **backpressure**: `ingress` hands the frame back (`Err`) and the caller
//! leaves it on the sender's TX ring, so an accepted (acked) frame is
//! never dropped. Only frames to unknown or detached destinations are
//! dropped, and those are counted.
//!
//! [`drain_tx`] and [`deliver_rx`] are the two halves of a host service
//! pass, shared by every embedder so they all run the identical dataplane.

use std::collections::{HashMap, VecDeque};

use sim_hw::{Clock, Tag};
use sim_mem::PhysMem;

use crate::frame::{Frame, Mac};
use crate::nic::VirtioNic;

/// Index of a switch port.
pub type PortId = usize;

/// Forwarding statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SwitchStats {
    /// Frames moved into an egress FIFO.
    pub forwarded: u64,
    /// Frames refused because the destination FIFO was full (the frame
    /// went back to the sender — backpressure, not loss).
    pub backpressured: u64,
    /// Frames to a MAC no port ever claimed.
    pub dropped_unknown_dst: u64,
    /// Frames to a detached port (container stopped mid-flight).
    pub dropped_dead_port: u64,
    /// MAC-table entries learned or refreshed from traffic.
    pub learned: u64,
}

#[derive(Debug)]
struct Port {
    fifo: VecDeque<Frame>,
    attached: bool,
}

/// A software switch with MAC learning and bounded per-port egress FIFOs.
#[derive(Debug)]
pub struct HostSwitch {
    ports: Vec<Port>,
    macs: HashMap<Mac, PortId>,
    depth: usize,
    /// Statistics.
    pub stats: SwitchStats,
}

impl HostSwitch {
    /// Creates a switch whose egress FIFOs hold at most `depth` frames.
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "switch depth must be at least 1");
        Self {
            ports: Vec::new(),
            macs: HashMap::new(),
            depth,
            stats: SwitchStats::default(),
        }
    }

    /// Attaches a port, pre-learning its MAC. Returns the port id.
    pub fn attach(&mut self, mac: Mac) -> PortId {
        let id = self.ports.len();
        self.ports.push(Port {
            fifo: VecDeque::new(),
            attached: true,
        });
        self.macs.insert(mac, id);
        id
    }

    /// Detaches a port: its queued frames are dropped (counted) and its
    /// MAC-table entries removed. The port id is never reused.
    pub fn detach(&mut self, port: PortId) {
        let p = &mut self.ports[port];
        self.stats.dropped_dead_port += p.fifo.len() as u64;
        p.fifo.clear();
        p.attached = false;
        self.macs.retain(|_, &mut v| v != port);
    }

    /// Number of ports ever attached.
    pub fn ports(&self) -> usize {
        self.ports.len()
    }

    /// Frames queued on a port's egress FIFO.
    pub fn pending(&self, port: PortId) -> usize {
        self.ports[port].fifo.len()
    }

    /// Forwards `frame` arriving on `from`. Learns the source MAC. A full
    /// destination FIFO returns the frame to the caller — leave it on the
    /// sender's ring and retry on the next service pass.
    pub fn ingress(&mut self, from: PortId, frame: Frame) -> Result<(), Frame> {
        if self.macs.insert(frame.src, from) != Some(from) {
            self.stats.learned += 1;
        }
        match self.macs.get(&frame.dst) {
            Some(&dst) if self.ports[dst].attached => {
                if self.ports[dst].fifo.len() < self.depth {
                    self.ports[dst].fifo.push_back(frame);
                    self.stats.forwarded += 1;
                    Ok(())
                } else {
                    self.stats.backpressured += 1;
                    Err(frame)
                }
            }
            Some(_) => {
                self.stats.dropped_dead_port += 1;
                Ok(())
            }
            None => {
                self.stats.dropped_unknown_dst += 1;
                Ok(())
            }
        }
    }

    /// The next frame queued for `port`, without dequeuing it.
    pub fn egress_peek(&self, port: PortId) -> Option<&Frame> {
        self.ports[port].fifo.front()
    }

    /// Dequeues the next frame for `port`.
    pub fn egress_pop(&mut self, port: PortId) -> Option<Frame> {
        self.ports[port].fifo.pop_front()
    }
}

/// Host service pass, TX half: moves frames from `nic`'s TX ring into the
/// switch until the ring is empty or the destination FIFO pushes back.
/// Returns the number of frames moved. Charges per-frame vhost forwarding
/// work; descriptors of refused frames stay on the ring.
pub fn drain_tx(
    mem: &mut PhysMem,
    clock: &mut Clock,
    nic: &mut VirtioNic,
    switch: &mut HostSwitch,
    port: PortId,
) -> usize {
    let per_frame = clock.model().net_packet / 4;
    let mut moved = 0;
    while let Some(frame) = nic.host_peek_tx(mem, clock) {
        match switch.ingress(port, frame) {
            Ok(()) => {
                nic.host_consume_tx(mem, clock);
                clock.charge(Tag::Io, per_frame);
                moved += 1;
            }
            Err(_) => break, // backpressure: descriptor stays published
        }
    }
    moved
}

/// Host service pass, RX half: moves frames from the switch's egress FIFO
/// into `nic`'s RX ring until the FIFO is empty or the guest has no buffer
/// posted, then flushes the (coalesced) RX interrupt. Returns frames
/// delivered.
pub fn deliver_rx(
    mem: &mut PhysMem,
    clock: &mut Clock,
    nic: &mut VirtioNic,
    switch: &mut HostSwitch,
    port: PortId,
) -> usize {
    let mut delivered = 0;
    while let Some(frame) = switch.egress_peek(port) {
        if nic.host_deliver(mem, clock, frame).is_err() {
            break; // NoRxBuf: the frame stays queued for the next pass
        }
        switch.egress_pop(port);
        delivered += 1;
    }
    nic.host_irq_flush(clock);
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::payload_pattern;
    use crate::nic::{Coalesce, NicBackendKind, NicLayout, VirtioNic};

    fn frame(src: Mac, dst: Mac, seed: u64) -> Frame {
        Frame {
            dst,
            src,
            dst_port: 80,
            src_port: 49152,
            payload: payload_pattern(seed, 64),
        }
    }

    #[test]
    fn learned_forwarding_and_counted_drops() {
        let mut sw = HostSwitch::new(4);
        let a = sw.attach(0xA);
        let b = sw.attach(0xB);
        assert_eq!((a, b), (0, 1));
        sw.ingress(a, frame(0xA, 0xB, 1)).unwrap();
        assert_eq!(sw.pending(b), 1);
        assert_eq!(sw.stats.forwarded, 1);
        // Unknown destination: counted drop, not an error.
        sw.ingress(a, frame(0xA, 0xDEAD, 2)).unwrap();
        assert_eq!(sw.stats.dropped_unknown_dst, 1);
        assert_eq!(sw.egress_pop(b).unwrap().payload, payload_pattern(1, 64));
    }

    #[test]
    fn full_fifo_returns_the_frame_instead_of_dropping() {
        let mut sw = HostSwitch::new(2);
        let a = sw.attach(0xA);
        let _b = sw.attach(0xB);
        sw.ingress(a, frame(0xA, 0xB, 1)).unwrap();
        sw.ingress(a, frame(0xA, 0xB, 2)).unwrap();
        let refused = sw.ingress(a, frame(0xA, 0xB, 3)).unwrap_err();
        assert_eq!(refused.payload, payload_pattern(3, 64));
        assert_eq!(sw.stats.backpressured, 1);
        assert_eq!(sw.stats.forwarded, 2);
    }

    #[test]
    fn detach_drops_queued_frames_and_unlearns() {
        let mut sw = HostSwitch::new(4);
        let a = sw.attach(0xA);
        let b = sw.attach(0xB);
        sw.ingress(a, frame(0xA, 0xB, 1)).unwrap();
        sw.detach(b);
        assert_eq!(sw.stats.dropped_dead_port, 1);
        assert_eq!(sw.pending(b), 0);
        // Traffic to the dead MAC is now an unknown-destination drop.
        sw.ingress(a, frame(0xA, 0xB, 2)).unwrap();
        assert_eq!(sw.stats.dropped_unknown_dst, 1);
    }

    #[test]
    fn service_pass_moves_frames_end_to_end() {
        let mut mem = PhysMem::new(1 << 22);
        let mut clock = Clock::default();
        let mk = |mem: &mut PhysMem, clock: &mut Clock, base: u64, mac: Mac| {
            let frames: Vec<u64> = (0..NicLayout::frames_needed(8) as u64)
                .map(|i| base + i * 4096)
                .collect();
            VirtioNic::for_backend(
                mem,
                clock,
                NicLayout::from_frames(8, &frames),
                mac,
                NicBackendKind::Cki,
                Coalesce::default(),
            )
        };
        let mut nic_a = mk(&mut mem, &mut clock, 0x100000, 0xA);
        let mut nic_b = mk(&mut mem, &mut clock, 0x200000, 0xB);
        let mut sw = HostSwitch::new(8);
        let pa = sw.attach(0xA);
        let pb = sw.attach(0xB);

        let f = frame(0xA, 0xB, 7);
        nic_a
            .send(&mut mem, &mut clock, std::slice::from_ref(&f))
            .unwrap();
        assert_eq!(drain_tx(&mut mem, &mut clock, &mut nic_a, &mut sw, pa), 1);
        assert_eq!(deliver_rx(&mut mem, &mut clock, &mut nic_b, &mut sw, pb), 1);
        let got = nic_b.recv(&mut mem, &mut clock).unwrap();
        assert_eq!(got.payload_hash(), f.payload_hash());
        assert_eq!(nic_b.stats.irqs, 1);
    }

    #[test]
    fn backpressure_leaves_descriptors_on_the_tx_ring() {
        let mut mem = PhysMem::new(1 << 22);
        let mut clock = Clock::default();
        let frames: Vec<u64> = (0..NicLayout::frames_needed(8) as u64)
            .map(|i| 0x100000 + i * 4096)
            .collect();
        let mut nic = VirtioNic::for_backend(
            &mut mem,
            &mut clock,
            NicLayout::from_frames(8, &frames),
            0xA,
            NicBackendKind::Cki,
            Coalesce::default(),
        );
        let mut sw = HostSwitch::new(2);
        let pa = sw.attach(0xA);
        let _pb = sw.attach(0xB);
        for i in 0..6 {
            nic.send(&mut mem, &mut clock, &[frame(0xA, 0xB, i)])
                .unwrap();
        }
        // Only 2 fit the destination FIFO; 4 stay on the ring, none dropped.
        assert_eq!(drain_tx(&mut mem, &mut clock, &mut nic, &mut sw, pa), 2);
        assert_eq!(sw.stats.backpressured, 1);
        assert_eq!(sw.stats.forwarded, 2);
        // The 4 refused frames are still published descriptors, not drops.
        assert_eq!(nic.tx_free(), 2);
        assert_eq!(nic.stats.ring_full, 0);
    }
}
