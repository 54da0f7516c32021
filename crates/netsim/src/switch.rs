//! The vhost-style host switch.
//!
//! One [`HostSwitch`] lives in the host (CloudHost, the workload cluster
//! harness, the client-fleet harness, or a test fixture) and connects
//! every container's NIC through a [`PortId`]. Each port owns the MAC it
//! was attached with, and forwarding looks the destination up in that
//! table, which only `attach` and `attach_endpoint` write. The switch
//! learns nothing from traffic: the guest kernel writes each frame's
//! header into its own TX slot, so a frame's source MAC is whatever the
//! guest chose. `ingress` drops a frame whose source is not its port's
//! MAC (**port security**), so a container cannot take over a
//! neighbour's address and traffic. Every port has a bounded-depth
//! egress FIFO. A full FIFO is **backpressure**: `ingress` hands the
//! frame back (`Err`) and the caller leaves it on the sender's TX ring,
//! so an accepted (acked) frame is never dropped. Only spoofed frames
//! and frames to unknown or detached destinations are dropped, and those
//! are counted.
//!
//! [`HostSwitch::service`] is the host's service pass, the one every
//! embedder runs: it drains every visited NIC's TX ring into the switch,
//! runs a host-side step, then delivers every visited NIC's egress FIFO.

use std::collections::VecDeque;

use sim_hw::{Clock, Tag};
use sim_mem::{PfnMap, PhysMem};

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
    /// Frames dropped because their source MAC is not the one their port
    /// was attached with.
    pub spoofed: u64,
}

#[derive(Debug)]
struct Port {
    fifo: VecDeque<Frame>,
    /// The MAC the port was attached with, the only source it may send.
    mac: Mac,
    attached: bool,
}

/// A software switch with port security and bounded per-port egress
/// FIFOs.
#[derive(Debug)]
pub struct HostSwitch {
    ports: Vec<Port>,
    /// Read once per forwarded frame, hence the fixed hasher; only
    /// `attach_endpoint` inserts, with host-chosen MACs.
    macs: PfnMap<Mac, PortId>,
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
            macs: PfnMap::default(),
            depth,
            stats: SwitchStats::default(),
        }
    }

    /// Attaches `nic` on a new port that owns its MAC, and records the
    /// port on the NIC, where [`HostSwitch::service`] finds it.
    pub fn attach(&mut self, nic: &mut VirtioNic) {
        nic.port = Some(self.attach_endpoint(nic.mac));
    }

    /// Attaches a host-side endpoint (no NIC) on a new port that owns
    /// `mac`. It talks through [`HostSwitch::ingress`] and
    /// [`HostSwitch::egress_pop`], typically from a service pass's host
    /// step. Returns the port id.
    pub fn attach_endpoint(&mut self, mac: Mac) -> PortId {
        let id = self.ports.len();
        self.ports.push(Port {
            fifo: VecDeque::new(),
            mac,
            attached: true,
        });
        self.macs.insert(mac, id);
        id
    }

    /// Detaches a port: its queued frames are dropped (counted) and its
    /// MAC leaves the table. A service pass no longer services a NIC on
    /// it. The port id is never reused. An unknown or already detached
    /// port changes nothing.
    pub fn detach(&mut self, port: PortId) {
        let Some(p) = self.ports.get_mut(port).filter(|p| p.attached) else {
            return;
        };
        self.stats.dropped_dead_port += p.fifo.len() as u64;
        p.fifo.clear();
        p.attached = false;
        if self.macs.get(&p.mac) == Some(&port) {
            self.macs.remove(&p.mac);
        }
    }

    /// Forwards `frame` arriving on `from`. A frame whose source is not
    /// the MAC `from` was attached with (or from an unknown port) is
    /// dropped and counted as spoofed. A full destination FIFO returns
    /// the frame to the caller — leave it on the sender's ring and retry
    /// on the next service pass.
    pub fn ingress(&mut self, from: PortId, frame: Frame) -> Result<(), Frame> {
        if self.ports.get(from).map(|p| p.mac) != Some(frame.src) {
            self.stats.spoofed += 1;
            return Ok(());
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

    /// Dequeues the next frame for `port`; `None` for an unknown port.
    pub fn egress_pop(&mut self, port: PortId) -> Option<Frame> {
        self.ports.get_mut(port)?.fifo.pop_front()
    }

    /// One host service pass, what the vhost worker does after a doorbell
    /// or a poll: every NIC `nics` visits has its TX ring drained into the
    /// switch, then `host` runs (a host-side endpoint answering what was
    /// just drained), then every visited NIC gets its egress FIFO
    /// delivered and its coalesced RX interrupt flushed. All drains run
    /// before any delivery, so a frame crosses in one pass whatever the
    /// order of sender and receiver. `nics` calls its visitor once per
    /// NIC, in the caller's order, and is called once per phase; a NIC
    /// never attached, or on a detached port, is skipped. Returns the
    /// frames moved out of TX rings and into RX rings.
    pub fn service(
        &mut self,
        mem: &mut PhysMem,
        clock: &mut Clock,
        mut nics: impl FnMut(&mut dyn FnMut(&mut VirtioNic)),
        host: impl FnOnce(&mut Self),
    ) -> usize {
        let mut moved = 0;
        nics(&mut |nic| moved += self.drain_tx(mem, clock, nic));
        host(self);
        nics(&mut |nic| moved += self.deliver_rx(mem, clock, nic));
        moved
    }

    /// The port of `nic`, if it is attached here and the port is live.
    fn live_port(&self, nic: &VirtioNic) -> Option<PortId> {
        nic.port
            .filter(|&p| self.ports.get(p).is_some_and(|p| p.attached))
    }

    /// TX half: moves frames from `nic`'s TX ring into the switch until
    /// the ring is empty or the destination FIFO pushes back. Returns the
    /// number of frames moved. Charges per-frame vhost forwarding work;
    /// descriptors of refused frames stay on the ring.
    fn drain_tx(&mut self, mem: &mut PhysMem, clock: &mut Clock, nic: &mut VirtioNic) -> usize {
        let Some(port) = self.live_port(nic) else {
            return 0;
        };
        let per_frame = clock.model().net_packet / 4;
        let mut moved = 0;
        while let Some(frame) = nic.host_peek_tx(mem, clock) {
            match self.ingress(port, frame) {
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

    /// RX half: moves frames from `nic`'s egress FIFO into its RX ring
    /// until the FIFO is empty or the guest has no buffer posted, then
    /// flushes the (coalesced) RX interrupt. Returns frames delivered.
    fn deliver_rx(&mut self, mem: &mut PhysMem, clock: &mut Clock, nic: &mut VirtioNic) -> usize {
        let Some(port) = self.live_port(nic) else {
            return 0;
        };
        let fifo = &mut self.ports[port].fifo;
        let mut delivered = 0;
        while let Some(frame) = fifo.front() {
            if nic.host_deliver(mem, clock, frame).is_err() {
                break; // NoRxBuf: the frame stays queued for the next pass
            }
            fifo.pop_front();
            delivered += 1;
        }
        nic.host_irq_flush(clock);
        delivered
    }
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

    /// A CKI NIC with an 8-descriptor queue in the frames from `base`.
    fn nic(mem: &mut PhysMem, clock: &mut Clock, base: u64, mac: Mac) -> VirtioNic {
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
    }

    /// One service pass visiting `nics` in slice order.
    fn service(
        sw: &mut HostSwitch,
        mem: &mut PhysMem,
        clock: &mut Clock,
        nics: &mut [VirtioNic],
        host: impl FnOnce(&mut HostSwitch),
    ) -> usize {
        sw.service(mem, clock, |visit| nics.iter_mut().for_each(visit), host)
    }

    #[test]
    fn forwarding_and_counted_drops() {
        let mut sw = HostSwitch::new(4);
        let a = sw.attach_endpoint(0xA);
        let b = sw.attach_endpoint(0xB);
        assert_eq!((a, b), (0, 1));
        sw.ingress(a, frame(0xA, 0xB, 1)).unwrap();
        assert_eq!(sw.stats.forwarded, 1);
        // Unknown destination: counted drop, not an error.
        sw.ingress(a, frame(0xA, 0xDEAD, 2)).unwrap();
        assert_eq!(sw.stats.dropped_unknown_dst, 1);
        assert_eq!(sw.egress_pop(b).unwrap().payload, payload_pattern(1, 64));
    }

    /// A container that sends from a neighbour's MAC does not take over
    /// the neighbour's traffic: its frame is dropped and counted, and the
    /// next frame to that MAC still reaches its owner.
    #[test]
    fn spoofed_source_is_dropped_and_counted() {
        let mut sw = HostSwitch::new(4);
        let a = sw.attach_endpoint(0xA);
        let b = sw.attach_endpoint(0xB);
        let c = sw.attach_endpoint(0xC);
        sw.ingress(c, frame(0xB, 0xA, 1)).unwrap();
        assert_eq!(sw.stats.spoofed, 1);
        assert!(sw.egress_pop(a).is_none(), "the spoofed frame is dropped");
        sw.ingress(a, frame(0xA, 0xB, 2)).unwrap();
        assert_eq!(sw.egress_pop(b).unwrap().payload, payload_pattern(2, 64));
        assert!(sw.egress_pop(c).is_none());
        assert_eq!((sw.stats.spoofed, sw.stats.forwarded), (1, 1));
    }

    #[test]
    fn unknown_port_pops_nothing() {
        let mut sw = HostSwitch::new(4);
        assert!(sw.egress_pop(7).is_none());
        let a = sw.attach_endpoint(0xA);
        assert!(sw.egress_pop(a + 1).is_none());
    }

    /// Detaching an unknown port, or a port twice, changes nothing; a
    /// second detach does not unmap a MAC a later port took over.
    #[test]
    fn detach_of_an_unknown_or_detached_port_changes_nothing() {
        let mut sw = HostSwitch::new(4);
        sw.detach(7);
        let a = sw.attach_endpoint(0xA);
        let b = sw.attach_endpoint(0xB);
        sw.ingress(a, frame(0xA, 0xB, 1)).unwrap();
        sw.detach(b);
        assert_eq!(sw.stats.dropped_dead_port, 1);
        let b2 = sw.attach_endpoint(0xB);
        sw.detach(b);
        sw.detach(b2 + 1);
        assert_eq!(sw.stats.dropped_dead_port, 1);
        sw.ingress(a, frame(0xA, 0xB, 2)).unwrap();
        assert_eq!(sw.egress_pop(b2).unwrap().payload, payload_pattern(2, 64));
    }

    #[test]
    fn full_fifo_returns_the_frame_instead_of_dropping() {
        let mut sw = HostSwitch::new(2);
        let a = sw.attach_endpoint(0xA);
        let _b = sw.attach_endpoint(0xB);
        sw.ingress(a, frame(0xA, 0xB, 1)).unwrap();
        sw.ingress(a, frame(0xA, 0xB, 2)).unwrap();
        let refused = sw.ingress(a, frame(0xA, 0xB, 3)).unwrap_err();
        assert_eq!(refused.payload, payload_pattern(3, 64));
        assert_eq!(sw.stats.backpressured, 1);
        assert_eq!(sw.stats.forwarded, 2);
    }

    /// A detached NIC keeps its TX ring and gets no delivery; the frames
    /// queued for it are dropped and counted, and its MAC leaves the table.
    #[test]
    fn detached_port_is_not_serviced() {
        let mut mem = PhysMem::new(1 << 22);
        let mut clock = Clock::default();
        let mut nics = [nic(&mut mem, &mut clock, 0x100000, 0xB)];
        let mut sw = HostSwitch::new(4);
        let a = sw.attach_endpoint(0xA);
        sw.attach(&mut nics[0]);
        let b = nics[0].port().unwrap();
        sw.ingress(a, frame(0xA, 0xB, 1)).unwrap();
        nics[0]
            .send(&mut mem, &mut clock, &[frame(0xB, 0xA, 2)])
            .unwrap();
        sw.detach(b);
        assert_eq!(sw.stats.dropped_dead_port, 1);
        assert!(sw.egress_pop(b).is_none());
        let free = nics[0].tx_free();
        assert_eq!(service(&mut sw, &mut mem, &mut clock, &mut nics, |_| {}), 0);
        assert_eq!(nics[0].tx_free(), free, "TX ring not drained");
        assert!(sw.egress_pop(a).is_none());
        // Traffic to the dead MAC is now an unknown-destination drop.
        sw.ingress(a, frame(0xA, 0xB, 3)).unwrap();
        assert_eq!(sw.stats.dropped_unknown_dst, 1);
    }

    /// Every drain runs before any delivery, so a frame from the
    /// last-visited NIC to the first-visited one crosses in one pass.
    #[test]
    fn service_pass_moves_frames_end_to_end() {
        let mut mem = PhysMem::new(1 << 22);
        let mut clock = Clock::default();
        let mut nics = [
            nic(&mut mem, &mut clock, 0x100000, 0xA),
            nic(&mut mem, &mut clock, 0x200000, 0xB),
        ];
        let mut sw = HostSwitch::new(8);
        nics.iter_mut().for_each(|n| sw.attach(n));
        assert_eq!((nics[0].port(), nics[1].port()), (Some(0), Some(1)));

        let f = frame(0xB, 0xA, 7);
        nics[1]
            .send(&mut mem, &mut clock, std::slice::from_ref(&f))
            .unwrap();
        assert_eq!(service(&mut sw, &mut mem, &mut clock, &mut nics, |_| {}), 2);
        let got = nics[0].recv(&mut mem, &mut clock).unwrap();
        assert_eq!(got.payload_hash(), f.payload_hash());
        assert_eq!(nics[0].stats.irqs, 1);
    }

    /// The host step runs between the phases: it sees what this pass
    /// drained, and what it sends back is delivered in the same pass.
    #[test]
    fn host_step_answers_within_the_pass() {
        let mut mem = PhysMem::new(1 << 22);
        let mut clock = Clock::default();
        let mut nics = [nic(&mut mem, &mut clock, 0x100000, 0xA)];
        let mut sw = HostSwitch::new(8);
        sw.attach(&mut nics[0]);
        let host = sw.attach_endpoint(0xF);
        nics[0]
            .send(&mut mem, &mut clock, &[frame(0xA, 0xF, 1)])
            .unwrap();
        let moved = service(&mut sw, &mut mem, &mut clock, &mut nics, |sw| {
            let req = sw.egress_pop(host).expect("drained this pass");
            sw.ingress(host, frame(0xF, req.src, 2)).unwrap();
        });
        assert_eq!(moved, 2);
        let got = nics[0].recv(&mut mem, &mut clock).unwrap();
        assert_eq!(got.payload, payload_pattern(2, 64));
    }

    #[test]
    fn backpressure_leaves_descriptors_on_the_tx_ring() {
        let mut mem = PhysMem::new(1 << 22);
        let mut clock = Clock::default();
        let mut nics = [nic(&mut mem, &mut clock, 0x100000, 0xA)];
        let mut sw = HostSwitch::new(2);
        sw.attach(&mut nics[0]);
        let _b = sw.attach_endpoint(0xB);
        for i in 0..6 {
            nics[0]
                .send(&mut mem, &mut clock, &[frame(0xA, 0xB, i)])
                .unwrap();
        }
        // Only 2 fit the destination FIFO; 4 stay on the ring, none dropped.
        assert_eq!(service(&mut sw, &mut mem, &mut clock, &mut nics, |_| {}), 2);
        assert_eq!(sw.stats.backpressured, 1);
        assert_eq!(sw.stats.forwarded, 2);
        // The 4 refused frames are still published descriptors, not drops.
        assert_eq!(nics[0].tx_free(), 2);
        assert_eq!(nics[0].stats.ring_full, 0);
    }
}
