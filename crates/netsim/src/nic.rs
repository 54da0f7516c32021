//! The virtqueue NIC: guest driver half + vhost device half.
//!
//! Both halves of [`VirtioNic`] communicate only through its two
//! [`SplitRing`]s in guest physical memory. The *only* per-backend inputs
//! are the [`Doorbell`] (how a TX kick reaches the host) and the
//! [`IrqPath`] (what injecting and acknowledging an RX interrupt costs) —
//! both derived mechanically from the backend's [`ExitCosts`]:
//!
//! | backend | doorbell path | exits/kick | doorbell cycles |
//! |---------|---------------|------------|-----------------|
//! | RunC    | direct driver call | 0     | ~300            |
//! | HVM     | trapped MMIO write | 1     | exit roundtrip + emulation |
//! | PVM     | hypercall          | 0 (1 hypercall) | 2 × pvm_switch |
//! | CKI     | shared-memory index, host polls via KSM mapping | 0 | 2 × dma_desc |
//!
//! Interrupt mitigation is NAPI-style ([`Coalesce`]): the guest defers the
//! doorbell until `kick_batch` descriptors are pending or the sim-clock
//! timer fires, and the host injects one RX interrupt per delivery batch,
//! counting the coalesced remainder.
//!
//! The vhost half trusts nothing the guest wrote: it uses a descriptor
//! only if its id is inside the queue, its address is the buffer slot the
//! NIC registered for that id, and the frame fits its length. Anything
//! else is consumed and counted in [`NicStats::bad_descs`]. The checks
//! read only fields that already paid their DMA charge, so valid traffic
//! costs what it did without them.

use std::ops::AddAssign;

use sim_hw::{Clock, CostModel, Tag};
use sim_mem::PhysMem;

use crate::exits::ExitCosts;
use crate::frame::{Frame, Mac, BUF_SIZE};
use crate::ring::{RingDesc, SplitRing};
use crate::switch::PortId;

/// Which virtualization design hosts a virtio device — selects the
/// doorbell and interrupt mechanism, nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicBackendKind {
    /// Native kernel (RunC): the driver calls the host stack directly.
    Native,
    /// Bare-metal HVM: MMIO doorbells trap to the VMM.
    HvmBm,
    /// Nested HVM: the same trap, L0-mediated.
    HvmNested,
    /// PVM: paravirtual hypercall doorbells.
    Pvm,
    /// PVM in a nested cloud.
    PvmNested,
    /// CKI: shared-memory doorbells through KSM-owned mappings.
    Cki,
}

impl NicBackendKind {
    /// The exit-cost table this backend's pricing derives from.
    pub fn exits(&self, m: &CostModel) -> ExitCosts {
        match self {
            NicBackendKind::Native => ExitCosts::native(m),
            NicBackendKind::HvmBm => ExitCosts::hvm_bm(m),
            NicBackendKind::HvmNested => ExitCosts::hvm_nested(m),
            NicBackendKind::Pvm => ExitCosts::pvm(m, false),
            NicBackendKind::PvmNested => ExitCosts::pvm(m, true),
            NicBackendKind::Cki => ExitCosts::cki(m),
        }
    }
}

/// How a TX doorbell reaches the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoorbellPath {
    /// Native driver: a device register write, no world switch.
    Direct,
    /// Trapped MMIO write: one VM exit plus instruction emulation per ring.
    Mmio,
    /// Paravirtual hypercall: a world switch but no trap-and-emulate.
    Paravirt,
    /// Shared-memory index write; the host's vhost worker reads the avail
    /// index through its own (CKI: KSM-owned) mapping. Zero exits.
    SharedMem,
}

/// The doorbell mechanism and its cost, derived from [`ExitCosts`].
#[derive(Debug, Clone, Copy)]
pub struct Doorbell {
    /// The notification mechanism.
    pub path: DoorbellPath,
    /// Cycles one doorbell costs the guest.
    pub cycles: u64,
    /// VM exits per doorbell (MMIO traps).
    pub exits_per_kick: u32,
    /// Paravirtual hypercalls per doorbell (PVM).
    pub hypercalls_per_kick: u32,
}

impl Doorbell {
    /// Derives the doorbell from the backend's exit mechanism.
    pub fn for_backend(kind: NicBackendKind, m: &CostModel) -> Self {
        let exits = kind.exits(m);
        match kind {
            NicBackendKind::Native => Doorbell {
                path: DoorbellPath::Direct,
                cycles: exits.roundtrip + 40,
                exits_per_kick: 0,
                hypercalls_per_kick: 0,
            },
            NicBackendKind::HvmBm | NicBackendKind::HvmNested => Doorbell {
                path: DoorbellPath::Mmio,
                // The trapped store pays the full roundtrip plus decode+emulate.
                cycles: exits.roundtrip + 600,
                exits_per_kick: 1,
                hypercalls_per_kick: 0,
            },
            NicBackendKind::Pvm | NicBackendKind::PvmNested => Doorbell {
                path: DoorbellPath::Paravirt,
                cycles: exits.roundtrip,
                exits_per_kick: 0,
                hypercalls_per_kick: 1,
            },
            NicBackendKind::Cki => Doorbell {
                path: DoorbellPath::SharedMem,
                // Post the avail index; the vhost worker reads it through
                // its KSM mapping. Two cache-coherent DMA-class accesses.
                cycles: 2 * m.dma_desc,
                exits_per_kick: 0,
                hypercalls_per_kick: 0,
            },
        }
    }

    /// Charges one doorbell to the guest: exit-class time when it leaves
    /// the guest (a trap or a world switch), device I/O time otherwise.
    pub fn ring(&self, clock: &mut Clock) {
        let tag = match self.path {
            DoorbellPath::Mmio | DoorbellPath::Paravirt => Tag::VmExit,
            DoorbellPath::Direct | DoorbellPath::SharedMem => Tag::Io,
        };
        clock.charge(tag, self.cycles);
    }
}

/// RX interrupt costs, taken directly from [`ExitCosts`].
#[derive(Debug, Clone, Copy)]
pub struct IrqPath {
    /// Host-side injection cost per interrupt.
    pub inject: u64,
    /// Guest-side end-of-interrupt acknowledgment.
    pub eoi: u64,
}

impl IrqPath {
    /// Derives the interrupt path from the backend's exit mechanism.
    pub fn for_backend(kind: NicBackendKind, m: &CostModel) -> Self {
        let exits = kind.exits(m);
        Self {
            inject: exits.irq_inject,
            eoi: exits.eoi,
        }
    }
}

/// NAPI-style mitigation knob.
#[derive(Debug, Clone, Copy)]
pub struct Coalesce {
    /// Ring the doorbell after this many pending TX descriptors, or once
    /// [`KICK_TIMER_CYCLES`] passed since the last doorbell.
    pub kick_batch: u32,
}

impl Default for Coalesce {
    fn default() -> Self {
        Self { kick_batch: 1 }
    }
}

/// The doorbell's timer fallback: a send rings it once this many sim-clock
/// cycles (~83 µs at 2.4 GHz) passed since the last one, which bounds
/// latency under light load.
pub const KICK_TIMER_CYCLES: u64 = 200_000;

/// Dataplane statistics of one NIC.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NicStats {
    /// Frames the guest queued on the TX ring.
    pub tx_frames: u64,
    /// Frames delivered into the guest's RX ring.
    pub rx_frames: u64,
    /// Payload+header bytes out / in.
    pub tx_bytes: u64,
    /// Bytes delivered.
    pub rx_bytes: u64,
    /// Doorbells actually rung.
    pub kicks: u64,
    /// Doorbells suppressed by batching (sends that did not ring).
    pub coalesced_kicks: u64,
    /// VM exits paid for doorbells (HVM's MMIO traps).
    pub kick_exits: u64,
    /// Paravirtual hypercalls paid for doorbells (PVM).
    pub kick_hypercalls: u64,
    /// RX interrupts injected.
    pub irqs: u64,
    /// Frames that rode an already-pending interrupt.
    pub coalesced_irqs: u64,
    /// TX attempts rejected because the ring was full.
    pub ring_full: u64,
    /// Malformed frames dropped by either half.
    pub decode_errors: u64,
    /// Guest-written descriptors the host refused: an id outside the
    /// queue, an address other than the slot registered for the id, or a
    /// length the frame does not fit. Consumed, never read or written.
    pub bad_descs: u64,
}

/// Sums two NICs' counters field by field. The literal names every field
/// (no `..`), so a new field does not compile until it is summed here too.
impl AddAssign<&NicStats> for NicStats {
    fn add_assign(&mut self, o: &NicStats) {
        *self = NicStats {
            tx_frames: self.tx_frames + o.tx_frames,
            rx_frames: self.rx_frames + o.rx_frames,
            tx_bytes: self.tx_bytes + o.tx_bytes,
            rx_bytes: self.rx_bytes + o.rx_bytes,
            kicks: self.kicks + o.kicks,
            coalesced_kicks: self.coalesced_kicks + o.coalesced_kicks,
            kick_exits: self.kick_exits + o.kick_exits,
            kick_hypercalls: self.kick_hypercalls + o.kick_hypercalls,
            irqs: self.irqs + o.irqs,
            coalesced_irqs: self.coalesced_irqs + o.coalesced_irqs,
            ring_full: self.ring_full + o.ring_full,
            decode_errors: self.decode_errors + o.decode_errors,
            bad_descs: self.bad_descs + o.bad_descs,
        };
    }
}

/// Dataplane errors. Both are backpressure signals, never drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// TX ring has no free descriptor; retry after the host drains it.
    RingFull,
    /// RX ring has no posted buffer; the frame stays queued upstream.
    NoRxBuf,
}

/// Guest-physical placement of one NIC: one page per ring plus a buffer
/// slot per descriptor. Pages need not be contiguous — each buffer slot
/// keeps its own physical address.
#[derive(Debug, Clone)]
pub struct NicLayout {
    /// Queue size (power of two, ≤ [`crate::ring::MAX_QUEUE`]).
    pub queue: u16,
    /// TX ring page.
    pub tx_ring_pa: u64,
    /// RX ring page.
    pub rx_ring_pa: u64,
    /// TX buffer slot addresses (`queue` entries of [`BUF_SIZE`] bytes).
    pub tx_bufs: Vec<u64>,
    /// RX buffer slot addresses.
    pub rx_bufs: Vec<u64>,
}

impl NicLayout {
    /// 4 KiB frames needed for a queue of `queue` descriptors.
    pub fn frames_needed(queue: u16) -> usize {
        2 + queue as usize // two ring pages + half a page per buffer slot × 2 pools
    }

    /// Builds a layout from `frames` page addresses (as returned by a
    /// platform's frame allocator).
    ///
    /// # Panics
    ///
    /// Panics if too few frames are supplied.
    pub fn from_frames(queue: u16, frames: &[u64]) -> Self {
        let need = Self::frames_needed(queue);
        assert!(frames.len() >= need, "NIC needs {need} frames");
        let slots_per_page = (4096 / BUF_SIZE) as usize;
        let pool_pages = queue as usize / slots_per_page;
        let slots = |pages: &[u64]| -> Vec<u64> {
            let mut v = Vec::with_capacity(queue as usize);
            for &p in pages {
                for s in 0..slots_per_page {
                    v.push(p + s as u64 * BUF_SIZE);
                }
            }
            v.truncate(queue as usize);
            v
        };
        Self {
            queue,
            tx_ring_pa: frames[0],
            rx_ring_pa: frames[1],
            tx_bufs: slots(&frames[2..2 + pool_pages.max(1)]),
            rx_bufs: slots(&frames[2 + pool_pages.max(1)..need.max(3)]),
        }
    }
}

/// One container's virtqueue NIC: driver half (`send`/`recv`/`flush`) and
/// vhost device half (`host_*`), joined only by rings in guest memory.
#[derive(Debug)]
pub struct VirtioNic {
    /// This NIC's MAC address.
    pub mac: Mac,
    /// Statistics.
    pub stats: NicStats,
    /// The switch port [`HostSwitch::attach`](crate::HostSwitch::attach)
    /// gave this NIC.
    pub(crate) port: Option<PortId>,
    tx: SplitRing,
    rx: SplitRing,
    tx_bufs: Vec<u64>,
    rx_bufs: Vec<u64>,
    doorbell: Doorbell,
    irq: IrqPath,
    coalesce: Coalesce,
    pending_kick: u32,
    last_kick_at: u64,
    rx_since_irq: u32,
    irq_pending: bool,
    last_peek: Option<RingDesc>,
}

impl VirtioNic {
    /// Creates the NIC, with its doorbell and interrupt path derived from
    /// the backend kind, and posts every RX buffer.
    pub fn for_backend(
        mem: &mut PhysMem,
        clock: &mut Clock,
        layout: NicLayout,
        mac: Mac,
        kind: NicBackendKind,
        coalesce: Coalesce,
    ) -> Self {
        let m = clock.model();
        let doorbell = Doorbell::for_backend(kind, m);
        let irq = IrqPath::for_backend(kind, m);
        let mut nic = Self {
            mac,
            stats: NicStats::default(),
            port: None,
            tx: SplitRing::new(mem, layout.tx_ring_pa, layout.queue),
            rx: SplitRing::new(mem, layout.rx_ring_pa, layout.queue),
            tx_bufs: layout.tx_bufs,
            rx_bufs: layout.rx_bufs,
            doorbell,
            irq,
            coalesce,
            pending_kick: 0,
            last_kick_at: clock.cycles(),
            rx_since_irq: 0,
            irq_pending: false,
            last_peek: None,
        };
        nic.rx_refill(mem, clock);
        nic
    }

    /// The switch port this NIC is attached on, if any.
    pub fn port(&self) -> Option<PortId> {
        self.port
    }

    /// Descriptors per ring: the most frames one [`VirtioNic::send`] can
    /// queue.
    pub fn queue(&self) -> u16 {
        self.tx.size()
    }

    /// Free TX descriptors right now (without reclaiming).
    pub fn tx_free(&self) -> u16 {
        self.tx.free_descs()
    }

    /// Physical address of each TX buffer slot, by descriptor id.
    pub fn tx_slots(&self) -> &[u64] {
        &self.tx_bufs
    }

    /// Physical address of each RX buffer slot, by descriptor id.
    pub fn rx_slots(&self) -> &[u64] {
        &self.rx_bufs
    }

    /// Shifts every physical address the NIC holds — ring layout, posted
    /// descriptor entries, buffer slots — by `delta` (segment migration,
    /// after the page image was copied to the new range).
    pub fn rebase(&mut self, mem: &mut PhysMem, clock: &mut Clock, delta: i64) {
        self.tx.rebase(mem, clock, delta);
        self.rx.rebase(mem, clock, delta);
        for pa in self.tx_bufs.iter_mut().chain(self.rx_bufs.iter_mut()) {
            *pa = pa.wrapping_add_signed(delta);
        }
        self.last_peek = None;
    }

    fn charge_copy(clock: &mut Clock, bytes: usize) {
        let cycles = clock.model().copy_cycles(bytes as u64);
        clock.charge(Tag::Io, cycles);
    }

    fn post_rx(&mut self, mem: &mut PhysMem, clock: &mut Clock) -> bool {
        match self.rx.reserve() {
            Some(id) => {
                let addr = self.rx_bufs[id as usize];
                self.rx.publish(mem, clock, id, addr, BUF_SIZE as u32);
                true
            }
            None => false,
        }
    }

    /// Posts every free RX descriptor as an empty buffer.
    pub fn rx_refill(&mut self, mem: &mut PhysMem, clock: &mut Clock) {
        while self.post_rx(mem, clock) {}
    }

    // --- Guest driver half ----------------------------------------------------

    /// Queues `frames` on the TX ring, all or nothing: unless every frame
    /// gets a descriptor, none is queued. Each descriptor is published at
    /// once (the vhost worker polls the avail index) and counts towards
    /// the coalescing policy, which decides when the doorbell rings.
    /// `Err(RingFull)` is backpressure: retry after the host drains the
    /// ring. A batch longer than [`VirtioNic::queue`] can never fit.
    pub fn send(
        &mut self,
        mem: &mut PhysMem,
        clock: &mut Clock,
        frames: &[Frame],
    ) -> Result<(), NetError> {
        // Reclaim completed TX descriptors first.
        while self.tx.pop_used(mem, clock).is_some() {}
        if (self.tx.free_descs() as usize) < frames.len() {
            self.stats.ring_full += 1;
            return Err(NetError::RingFull);
        }
        for frame in frames {
            let id = self.tx.reserve().expect("free descriptors checked above");
            let addr = self.tx_bufs[id as usize];
            let bytes = frame.wire_bytes();
            frame.write_to(mem, addr);
            Self::charge_copy(clock, bytes);
            self.tx.publish(mem, clock, id, addr, bytes as u32);
            self.stats.tx_frames += 1;
            self.stats.tx_bytes += bytes as u64;
            self.pending_kick += 1;
            let now = clock.cycles();
            if self.pending_kick >= self.coalesce.kick_batch
                || now.saturating_sub(self.last_kick_at) >= KICK_TIMER_CYCLES
            {
                self.ring_doorbell(clock);
            } else {
                self.stats.coalesced_kicks += 1;
            }
        }
        Ok(())
    }

    /// Forces the doorbell for any pending (published, unkicked) TX work —
    /// the guest rings on its way to sleep.
    pub fn flush(&mut self, clock: &mut Clock) {
        if self.pending_kick > 0 {
            self.ring_doorbell(clock);
        }
    }

    fn ring_doorbell(&mut self, clock: &mut Clock) {
        self.stats.kicks += 1;
        self.stats.kick_exits += self.doorbell.exits_per_kick as u64;
        self.stats.kick_hypercalls += self.doorbell.hypercalls_per_kick as u64;
        self.doorbell.ring(clock);
        self.pending_kick = 0;
        self.last_kick_at = clock.cycles();
    }

    /// Receives one frame from the RX ring, reposting its buffer. The
    /// first receive attempt after an interrupt pays the EOI.
    pub fn recv(&mut self, mem: &mut PhysMem, clock: &mut Clock) -> Option<Frame> {
        if self.irq_pending {
            clock.charge(Tag::VmExit, self.irq.eoi);
            self.irq_pending = false;
        }
        let (id, len) = self.rx.pop_used(mem, clock)?;
        let bytes = (len as u64).min(BUF_SIZE) as usize;
        let frame = Frame::read_from(mem, self.rx_bufs[id as usize], bytes);
        Self::charge_copy(clock, bytes);
        // Repost a buffer for the slot we just drained.
        self.post_rx(mem, clock);
        match frame {
            Some(f) => {
                self.stats.rx_frames += 1;
                self.stats.rx_bytes += bytes as u64;
                Some(f)
            }
            None => {
                self.stats.decode_errors += 1;
                None
            }
        }
    }

    // --- Host (vhost worker) half, run only by `HostSwitch::service` ------------

    /// The next descriptor of `ring` whose address is the slot registered
    /// in `bufs` for its id and whose length `fits`. Descriptors that fail
    /// the check are consumed and counted; one with a valid id goes back
    /// through `used` with length 0, so the guest can reclaim it.
    fn next_valid(
        ring: &mut SplitRing,
        bufs: &[u64],
        stats: &mut NicStats,
        mem: &mut PhysMem,
        clock: &mut Clock,
        fits: impl Fn(u32) -> bool,
    ) -> Option<RingDesc> {
        loop {
            match ring.peek_avail(mem, clock)? {
                Ok(d) if bufs.get(d.id as usize) == Some(&d.addr) && fits(d.len) => return Some(d),
                Ok(d) => {
                    stats.bad_descs += 1;
                    ring.consume_avail();
                    ring.push_used(mem, clock, d.id, 0);
                }
                Err(_) => stats.bad_descs += 1,
            }
        }
    }

    /// Reads the next TX frame without consuming its descriptor. Malformed
    /// descriptors are consumed and counted so they cannot wedge the ring.
    pub(crate) fn host_peek_tx(&mut self, mem: &mut PhysMem, clock: &mut Clock) -> Option<Frame> {
        loop {
            let d = Self::next_valid(
                &mut self.tx,
                &self.tx_bufs,
                &mut self.stats,
                mem,
                clock,
                |len| len as u64 <= BUF_SIZE,
            )?;
            let frame = Frame::read_from(mem, d.addr, d.len as usize);
            Self::charge_copy(clock, d.len as usize);
            match frame {
                Some(f) => {
                    self.last_peek = Some(d);
                    return Some(f);
                }
                None => {
                    self.stats.decode_errors += 1;
                    self.tx.consume_avail();
                    self.tx.push_used(mem, clock, d.id, 0);
                }
            }
        }
    }

    /// Consumes the descriptor last returned by [`VirtioNic::host_peek_tx`]
    /// (the switch accepted the frame) and publishes its completion.
    pub(crate) fn host_consume_tx(&mut self, mem: &mut PhysMem, clock: &mut Clock) {
        let d = self.last_peek.take().expect("consume without peek");
        self.tx.consume_avail();
        self.tx.push_used(mem, clock, d.id, 0);
    }

    /// Delivers one frame into the guest's RX ring. `Err(NoRxBuf)` is
    /// backpressure: the frame stays wherever it was queued.
    pub(crate) fn host_deliver(
        &mut self,
        mem: &mut PhysMem,
        clock: &mut Clock,
        frame: &Frame,
    ) -> Result<(), NetError> {
        let bytes = frame.wire_bytes();
        let Some(d) = Self::next_valid(
            &mut self.rx,
            &self.rx_bufs,
            &mut self.stats,
            mem,
            clock,
            |len| bytes as u64 <= len as u64,
        ) else {
            return Err(NetError::NoRxBuf);
        };
        frame.write_to(mem, d.addr);
        Self::charge_copy(clock, bytes);
        self.rx.consume_avail();
        self.rx.push_used(mem, clock, d.id, bytes as u32);
        self.rx_since_irq += 1;
        Ok(())
    }

    /// Ends a delivery batch: injects one RX interrupt if the batch
    /// delivered anything, counting the frames that rode along coalesced.
    pub(crate) fn host_irq_flush(&mut self, clock: &mut Clock) {
        if self.rx_since_irq == 0 {
            return;
        }
        self.stats.irqs += 1;
        self.stats.coalesced_irqs += self.rx_since_irq as u64 - 1;
        clock.charge(Tag::Io, self.irq.inject);
        self.irq_pending = true;
        self.rx_since_irq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::payload_pattern;

    fn layout(queue: u16, base: u64) -> NicLayout {
        let frames: Vec<u64> = (0..NicLayout::frames_needed(queue) as u64)
            .map(|i| base + i * 4096)
            .collect();
        NicLayout::from_frames(queue, &frames)
    }

    fn pair(kind: NicBackendKind, coalesce: Coalesce) -> (PhysMem, Clock, VirtioNic) {
        let mut mem = PhysMem::new(1 << 22);
        let mut clock = Clock::default();
        let nic = VirtioNic::for_backend(
            &mut mem,
            &mut clock,
            layout(8, 0x100000),
            0xAA,
            kind,
            coalesce,
        );
        (mem, clock, nic)
    }

    fn frame(seed: u64) -> Frame {
        Frame {
            dst: 0xBB,
            src: 0xAA,
            dst_port: 80,
            src_port: 49152,
            payload: payload_pattern(seed, 200),
        }
    }

    #[test]
    fn hvm_pays_an_exit_per_uncoalesced_kick_cki_pays_zero() {
        for (kind, exits_per_kick) in [
            (NicBackendKind::Cki, 0),
            (NicBackendKind::Pvm, 0),
            (NicBackendKind::HvmBm, 1),
            (NicBackendKind::HvmNested, 1),
        ] {
            let (mut mem, mut clock, mut nic) = pair(kind, Coalesce::default());
            for i in 0..4 {
                nic.send(&mut mem, &mut clock, &[frame(i)]).unwrap();
            }
            assert_eq!(nic.stats.kicks, 4, "{kind:?}: batch=1 kicks every send");
            assert_eq!(nic.stats.kick_exits, 4 * exits_per_kick, "{kind:?}");
            if kind == NicBackendKind::Pvm {
                assert_eq!(nic.stats.kick_hypercalls, 4);
            }
        }
    }

    #[test]
    fn doorbell_cost_ordering_follows_exit_mechanism() {
        let mut send = Vec::new();
        let mut block = Vec::new();
        for kind in [
            NicBackendKind::Cki,
            NicBackendKind::Pvm,
            NicBackendKind::HvmBm,
            NicBackendKind::HvmNested,
        ] {
            let (mut mem, mut clock, mut nic) = pair(kind, Coalesce::default());
            let t0 = clock.cycles();
            nic.send(&mut mem, &mut clock, &[frame(1)]).unwrap();
            send.push(clock.cycles() - t0);
            let blk = crate::VirtioBlk::for_backend(kind, clock.model());
            let t0 = clock.cycles();
            blk.submit(&mut clock, 4096);
            block.push(clock.cycles() - t0);
        }
        for cycles in [send, block] {
            assert!(
                cycles.windows(2).all(|w| w[0] < w[1]),
                "cki < pvm < hvm_bm < hvm_nested: {cycles:?}"
            );
        }
    }

    #[test]
    fn kick_batching_suppresses_doorbells() {
        let (mut mem, mut clock, mut nic) = pair(NicBackendKind::HvmBm, Coalesce { kick_batch: 4 });
        for i in 0..8 {
            nic.send(&mut mem, &mut clock, &[frame(i)]).unwrap();
        }
        assert_eq!(nic.stats.kicks, 2, "8 sends at batch 4");
        assert_eq!(nic.stats.coalesced_kicks, 6);
        assert_eq!(nic.stats.kick_exits, 2);
        // flush with nothing pending is free.
        nic.flush(&mut clock);
        assert_eq!(nic.stats.kicks, 2);
    }

    #[test]
    fn timer_fallback_bounds_kick_latency() {
        let (mut mem, mut clock, mut nic) =
            pair(NicBackendKind::Cki, Coalesce { kick_batch: 1000 });
        nic.send(&mut mem, &mut clock, &[frame(1)]).unwrap();
        assert_eq!(nic.stats.kicks, 0, "first send within the timer window");
        clock.charge(Tag::Compute, 2 * KICK_TIMER_CYCLES);
        nic.send(&mut mem, &mut clock, &[frame(2)]).unwrap();
        assert_eq!(nic.stats.kicks, 1, "timer fired on the next send");
    }

    #[test]
    fn deliver_recv_roundtrip_preserves_payload_and_pays_irq() {
        let (mut mem, mut clock, mut nic) = pair(NicBackendKind::Cki, Coalesce::default());
        let f = frame(7);
        nic.host_deliver(&mut mem, &mut clock, &f).unwrap();
        nic.host_deliver(&mut mem, &mut clock, &frame(8)).unwrap();
        nic.host_irq_flush(&mut clock);
        assert_eq!(nic.stats.irqs, 1);
        assert_eq!(nic.stats.coalesced_irqs, 1, "second frame rode along");
        let g = nic.recv(&mut mem, &mut clock).unwrap();
        assert_eq!(g.payload_hash(), f.payload_hash());
        assert_eq!(nic.recv(&mut mem, &mut clock).unwrap().payload.len(), 200);
        assert!(nic.recv(&mut mem, &mut clock).is_none());
        assert_eq!(nic.stats.rx_frames, 2);
    }

    #[test]
    fn rx_backpressure_when_no_buffer_posted() {
        let (mut mem, mut clock, mut nic) = pair(NicBackendKind::Cki, Coalesce::default());
        // Fill all 8 posted buffers.
        for i in 0..8 {
            nic.host_deliver(&mut mem, &mut clock, &frame(i)).unwrap();
        }
        assert_eq!(
            nic.host_deliver(&mut mem, &mut clock, &frame(99)),
            Err(NetError::NoRxBuf)
        );
        // Guest drains one; a buffer is reposted; delivery resumes.
        nic.host_irq_flush(&mut clock);
        assert!(nic.recv(&mut mem, &mut clock).is_some());
        assert!(nic.host_deliver(&mut mem, &mut clock, &frame(99)).is_ok());
    }

    #[test]
    fn tx_ring_full_is_backpressure_not_a_drop() {
        let (mut mem, mut clock, mut nic) = pair(NicBackendKind::Cki, Coalesce::default());
        for i in 0..8 {
            nic.send(&mut mem, &mut clock, &[frame(i)]).unwrap();
        }
        assert_eq!(
            nic.send(&mut mem, &mut clock, &[frame(9)]),
            Err(NetError::RingFull)
        );
        assert_eq!(nic.stats.ring_full, 1);
        assert_eq!(nic.stats.tx_frames, 8, "the rejected frame was not queued");
    }

    #[test]
    fn multi_frame_send_is_all_or_nothing() {
        let (mut mem, mut clock, mut nic) = pair(NicBackendKind::Cki, Coalesce::default());
        let five: Vec<Frame> = (0..5).map(frame).collect();
        nic.send(&mut mem, &mut clock, &five).unwrap();
        assert_eq!(nic.stats.tx_frames, 5);
        assert_eq!(nic.stats.kicks, 5, "batch=1 kicks every descriptor");
        assert_eq!(
            nic.send(&mut mem, &mut clock, &five),
            Err(NetError::RingFull),
            "3 of 8 descriptors free"
        );
        assert_eq!(
            nic.stats.tx_frames, 5,
            "no frame of the refused batch queued"
        );
        assert_eq!(nic.stats.ring_full, 1);
        nic.send(&mut mem, &mut clock, &five[..3]).unwrap();
        assert_eq!(nic.tx_free(), 0);
    }

    // --- Guest-forged descriptors ---------------------------------------------
    //
    // `pair` places the queue-8 NIC at 0x100000: the TX ring page, the RX
    // ring page, then the buffer slots, 10 pages in all. The guest hands
    // out TX ids from 0 and posts RX ids 0..8 in order; each ring's
    // descriptor table starts at its base and its avail ring 16 B × 8 on.

    const TX_RING: u64 = 0x100000;
    const RX_RING: u64 = 0x101000;
    const NIC_END: u64 = 0x10A000;
    const AVAIL_RING: u64 = 16 * 8 + 4;
    /// A page outside the NIC that a forged descriptor points at.
    const FOREIGN: u64 = 0x200000;

    /// The machine with a marked foreign page, and every byte outside the
    /// NIC's rings and buffer slots.
    fn forge_setup() -> (PhysMem, Clock, VirtioNic, Vec<u8>) {
        let (mut mem, clock, nic) = pair(NicBackendKind::Cki, Coalesce::default());
        mem.write_bytes(FOREIGN, &[0xAB; 4096]);
        let img = outside_nic(&mut mem);
        (mem, clock, nic, img)
    }

    fn outside_nic(mem: &mut PhysMem) -> Vec<u8> {
        let mut img = vec![0u8; mem.size() as usize];
        mem.read_bytes(0, &mut img[..TX_RING as usize]);
        mem.read_bytes(NIC_END, &mut img[NIC_END as usize..]);
        img
    }

    #[test]
    fn forged_id_outside_the_queue_is_refused() {
        let (mut mem, mut clock, mut nic, img) = forge_setup();
        nic.send(&mut mem, &mut clock, &[frame(1)]).unwrap();
        mem.write_u16(TX_RING + AVAIL_RING, 8);
        assert!(nic.host_peek_tx(&mut mem, &mut clock).is_none());
        assert_eq!(nic.stats.bad_descs, 1);
        // The next frame still goes through.
        nic.send(&mut mem, &mut clock, &[frame(2)]).unwrap();
        let f = nic.host_peek_tx(&mut mem, &mut clock).unwrap();
        assert_eq!(f.payload_hash(), frame(2).payload_hash());

        mem.write_u16(RX_RING + AVAIL_RING, u16::MAX);
        nic.host_deliver(&mut mem, &mut clock, &frame(3)).unwrap();
        assert_eq!(nic.stats.bad_descs, 2);
        let g = nic.recv(&mut mem, &mut clock).unwrap();
        assert_eq!(g.payload_hash(), frame(3).payload_hash());
        assert_eq!(outside_nic(&mut mem), img);
    }

    #[test]
    fn forged_address_outside_its_slot_is_never_touched() {
        let (mut mem, mut clock, mut nic, img) = forge_setup();
        nic.send(&mut mem, &mut clock, &[frame(1)]).unwrap();
        mem.write_u64(TX_RING, mem.size() + 4096);
        assert!(nic.host_peek_tx(&mut mem, &mut clock).is_none());
        assert_eq!(nic.stats.bad_descs, 1);

        mem.write_u64(RX_RING, FOREIGN);
        nic.host_deliver(&mut mem, &mut clock, &frame(3)).unwrap();
        assert_eq!(nic.stats.bad_descs, 2);
        // The refused buffer comes back empty; the frame took the next one.
        assert!(nic.recv(&mut mem, &mut clock).is_none());
        let g = nic.recv(&mut mem, &mut clock).unwrap();
        assert_eq!(g.payload_hash(), frame(3).payload_hash());
        assert_eq!(outside_nic(&mut mem), img);
    }

    #[test]
    fn forged_length_the_frame_does_not_fit_is_refused() {
        let (mut mem, mut clock, mut nic, img) = forge_setup();
        nic.send(&mut mem, &mut clock, &[frame(1)]).unwrap();
        mem.write_u32(TX_RING + 8, BUF_SIZE as u32 + 1);
        assert!(nic.host_peek_tx(&mut mem, &mut clock).is_none());
        assert_eq!(nic.stats.bad_descs, 1);

        let slot = nic.rx_bufs[0];
        let mut before = vec![0u8; BUF_SIZE as usize];
        mem.read_bytes(slot, &mut before);
        mem.write_u32(RX_RING + 8, 10);
        nic.host_deliver(&mut mem, &mut clock, &frame(3)).unwrap();
        assert_eq!(nic.stats.bad_descs, 2);
        let mut after = vec![0u8; BUF_SIZE as usize];
        mem.read_bytes(slot, &mut after);
        assert_eq!(after, before, "the short buffer was not written");
        assert_eq!(outside_nic(&mut mem), img);
    }

    #[test]
    fn malformed_frames_in_valid_descriptors_are_counted_decode_errors() {
        let (mut mem, mut clock, mut nic, img) = forge_setup();
        // A descriptor shorter than the frame header.
        nic.send(&mut mem, &mut clock, &[frame(1)]).unwrap();
        mem.write_u32(TX_RING + 8, 10);
        assert!(nic.host_peek_tx(&mut mem, &mut clock).is_none());
        // A length field larger than the descriptor.
        nic.send(&mut mem, &mut clock, &[frame(2)]).unwrap();
        for &slot in nic.tx_slots() {
            mem.write_u32(slot + 20, 1000);
        }
        assert!(nic.host_peek_tx(&mut mem, &mut clock).is_none());
        assert_eq!((nic.stats.decode_errors, nic.stats.bad_descs), (2, 0));

        // The same lie in an RX slot, after the host delivered into it.
        nic.host_deliver(&mut mem, &mut clock, &frame(3)).unwrap();
        mem.write_u32(nic.rx_slots()[0] + 20, 201);
        assert!(nic.recv(&mut mem, &mut clock).is_none());
        assert_eq!(nic.stats.decode_errors, 3);
        assert_eq!(nic.stats.rx_frames, 0);
        // Honest frames still go through both halves.
        nic.send(&mut mem, &mut clock, &[frame(4)]).unwrap();
        let f = nic.host_peek_tx(&mut mem, &mut clock).unwrap();
        assert_eq!(f, frame(4));
        nic.host_deliver(&mut mem, &mut clock, &frame(5)).unwrap();
        assert_eq!(nic.recv(&mut mem, &mut clock), Some(frame(5)));
        assert_eq!(outside_nic(&mut mem), img);
    }
}
