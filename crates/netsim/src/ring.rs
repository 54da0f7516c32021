//! Split-ring virtqueues in guest physical memory.
//!
//! The classic VirtIO 1.x split layout, materialized in [`PhysMem`] so
//! driver and device genuinely communicate through memory:
//!
//! ```text
//! base ─┬─ descriptor table   size × 16 B   {addr u64, len u32, flags u16, next u16}
//!       ├─ avail (driver→device)  {flags u16, idx u16, ring[size] u16}
//!       └─ used  (device→driver, 8-aligned)  {flags u16, idx u16, ring[size] {id u32, len u32}}
//! ```
//!
//! `idx` fields are free-running `u16`s (slot = `idx & (size-1)`), so they
//! wrap at `u16::MAX` — the wraparound property tests start them a few
//! entries below the wrap. Every descriptor or index access pays one
//! [`CostModel::dma_desc`](sim_hw::CostModel) charge on [`Tag::Io`]: ring
//! traffic costs the same for every backend, which is what isolates the
//! doorbell/interrupt asymmetry as the *only* per-backend difference.
//!
//! Descriptor lifecycle enforces "no reuse before `used` publication": a
//! descriptor id returns to the driver's free list only in
//! [`SplitRing::pop_used`], i.e. after the device has published it.

use sim_hw::{Clock, Tag};
use sim_mem::PhysMem;

/// Largest supported queue (one page holds descriptors + both rings).
pub const MAX_QUEUE: u16 = 128;

/// A descriptor as seen by the device when it pops the avail ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingDesc {
    /// Descriptor id (index into the descriptor table).
    pub id: u16,
    /// Guest-physical buffer address.
    pub addr: u64,
    /// Buffer length in bytes.
    pub len: u32,
}

/// One split virtqueue: driver-side and device-side shadow state around a
/// shared in-memory layout. The simulation is single-threaded, so one
/// struct holds both halves; they share *only* what real hardware shares —
/// the descriptor table and the avail/used rings in guest memory.
#[derive(Debug, Clone)]
pub struct SplitRing {
    size: u16,
    desc_pa: u64,
    avail_pa: u64,
    used_pa: u64,
    // Driver-private state.
    next_avail: u16,
    last_used: u16,
    free: Vec<u16>,
    // Device-private state.
    last_avail: u16,
    used_shadow: u16,
}

impl SplitRing {
    /// Bytes of guest memory the layout needs for a queue of `size`.
    pub fn bytes_needed(size: u16) -> u64 {
        Self::used_off(size) + 8 + 8 * size as u64
    }

    fn avail_off(size: u16) -> u64 {
        16 * size as u64
    }

    fn used_off(size: u16) -> u64 {
        // avail = flags + idx + ring, rounded up to 8 for the u32 entries.
        (Self::avail_off(size) + 4 + 2 * size as u64 + 7) & !7
    }

    /// Creates a ring at `base_pa` with indices starting at 0.
    pub fn new(mem: &mut PhysMem, base_pa: u64, size: u16) -> Self {
        Self::with_start_index(mem, base_pa, size, 0)
    }

    /// Creates a ring whose free-running indices start at `start` — the
    /// wraparound tests start just below `u16::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two in `2..=MAX_QUEUE`, or if
    /// `base_pa` is not 8-aligned.
    pub fn with_start_index(mem: &mut PhysMem, base_pa: u64, size: u16, start: u16) -> Self {
        assert!(
            (2..=MAX_QUEUE).contains(&size) && size.is_power_of_two(),
            "queue size {size} must be a power of two in 2..={MAX_QUEUE}"
        );
        assert_eq!(base_pa % 8, 0, "ring base must be 8-aligned");
        let ring = Self {
            size,
            desc_pa: base_pa,
            avail_pa: base_pa + Self::avail_off(size),
            used_pa: base_pa + Self::used_off(size),
            next_avail: start,
            last_used: start,
            free: (0..size).rev().collect(),
            last_avail: start,
            used_shadow: start,
        };
        mem.write_u16(ring.avail_pa + 2, start);
        mem.write_u16(ring.used_pa + 2, start);
        ring
    }

    /// Queue size.
    pub fn size(&self) -> u16 {
        self.size
    }

    /// Descriptors currently owned by the device (published, not yet
    /// reclaimed through the used ring).
    pub fn in_flight(&self) -> u16 {
        self.size - self.free.len() as u16
    }

    /// Free descriptors available to the driver.
    pub fn free_descs(&self) -> u16 {
        self.free.len() as u16
    }

    /// Shifts the ring layout *and* every descriptor-table buffer address
    /// by `delta` (segment migration moves the whole delegated range by a
    /// constant). The addresses in the table are real host-physical — CKI
    /// delegates the segment with no gPA indirection — so posted
    /// descriptors must be rewritten like PTEs, after the page image has
    /// been copied to the new range. One DMA charge per entry.
    pub fn rebase(&mut self, mem: &mut PhysMem, clock: &mut Clock, delta: i64) {
        self.desc_pa = self.desc_pa.wrapping_add_signed(delta);
        self.avail_pa = self.avail_pa.wrapping_add_signed(delta);
        self.used_pa = self.used_pa.wrapping_add_signed(delta);
        // Free descriptors are fully rewritten by the next publish, so the
        // blanket shift only has to be *correct* for posted entries.
        for id in 0..self.size {
            let d = self.desc_pa + 16 * id as u64;
            let addr = mem.read_u64(d);
            mem.write_u64(d, addr.wrapping_add_signed(delta));
            Self::dma(clock);
        }
    }

    fn dma(clock: &mut Clock) {
        let c = clock.model().dma_desc;
        clock.charge(Tag::Io, c);
    }

    fn slot(&self, idx: u16) -> u64 {
        (idx & (self.size - 1)) as u64
    }

    // --- Driver half ---------------------------------------------------------

    /// Takes a free descriptor id, or `None` if the ring is full. The id is
    /// not visible to the device until [`SplitRing::publish`].
    pub fn reserve(&mut self) -> Option<u16> {
        self.free.pop()
    }

    /// Writes descriptor `id` and publishes it on the avail ring.
    pub fn publish(&mut self, mem: &mut PhysMem, clock: &mut Clock, id: u16, addr: u64, len: u32) {
        debug_assert!(id < self.size);
        // Descriptor write (one 16-byte DMA).
        let d = self.desc_pa + 16 * id as u64;
        mem.write_u64(d, addr);
        mem.write_u32(d + 8, len);
        mem.write_u16(d + 12, 0); // flags
        mem.write_u16(d + 14, 0); // next (no chaining)
        Self::dma(clock);
        // Avail ring entry, then the index (store-release ordering).
        mem.write_u16(self.avail_pa + 4 + 2 * self.slot(self.next_avail), id);
        Self::dma(clock);
        self.next_avail = self.next_avail.wrapping_add(1);
        mem.write_u16(self.avail_pa + 2, self.next_avail);
        Self::dma(clock);
    }

    /// Reclaims one completed descriptor from the used ring: `(id, len)`.
    /// This is the only place a descriptor id returns to the free list.
    pub fn pop_used(&mut self, mem: &mut PhysMem, clock: &mut Clock) -> Option<(u16, u32)> {
        let idx = mem.read_u16(self.used_pa + 2);
        Self::dma(clock);
        if idx == self.last_used {
            return None;
        }
        let e = self.used_pa + 8 + 8 * self.slot(self.last_used);
        let id = mem.read_u32(e) as u16;
        let len = mem.read_u32(e + 4);
        Self::dma(clock);
        self.last_used = self.last_used.wrapping_add(1);
        self.free.push(id);
        Some((id, len))
    }

    // --- Device half ---------------------------------------------------------

    /// Reads the next published descriptor without consuming it (the vhost
    /// worker peeks, tries to forward, and only consumes on success — this
    /// is how backpressure leaves frames in the guest's TX ring).
    ///
    /// The avail entry is guest-written: an id outside the descriptor table
    /// is consumed here, since it names nothing that could be completed,
    /// and returned as `Some(Err(id))` without touching the table.
    pub fn peek_avail(
        &mut self,
        mem: &mut PhysMem,
        clock: &mut Clock,
    ) -> Option<Result<RingDesc, u16>> {
        let idx = mem.read_u16(self.avail_pa + 2);
        Self::dma(clock);
        if idx == self.last_avail {
            return None;
        }
        let id = mem.read_u16(self.avail_pa + 4 + 2 * self.slot(self.last_avail));
        Self::dma(clock);
        if id >= self.size {
            self.consume_avail();
            return Some(Err(id));
        }
        let d = self.desc_pa + 16 * id as u64;
        let addr = mem.read_u64(d);
        let len = mem.read_u32(d + 8);
        Self::dma(clock);
        Some(Ok(RingDesc { id, addr, len }))
    }

    /// Consumes the descriptor last returned by [`SplitRing::peek_avail`].
    pub fn consume_avail(&mut self) {
        self.last_avail = self.last_avail.wrapping_add(1);
    }

    /// Publishes a completed descriptor on the used ring.
    pub fn push_used(&mut self, mem: &mut PhysMem, clock: &mut Clock, id: u16, len: u32) {
        let e = self.used_pa + 8 + 8 * self.slot(self.used_shadow);
        mem.write_u32(e, id as u32);
        mem.write_u32(e + 4, len);
        Self::dma(clock);
        self.used_shadow = self.used_shadow.wrapping_add(1);
        mem.write_u16(self.used_pa + 2, self.used_shadow);
        Self::dma(clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(size: u16, start: u16) -> (PhysMem, Clock, SplitRing) {
        let mut mem = PhysMem::new(1 << 20);
        let clock = Clock::default();
        let ring = SplitRing::with_start_index(&mut mem, 0x10000, size, start);
        (mem, clock, ring)
    }

    #[test]
    fn layout_fits_one_page_at_max_queue() {
        assert!(SplitRing::bytes_needed(MAX_QUEUE) <= 4096);
    }

    #[test]
    fn publish_peek_used_roundtrip_preserves_order() {
        let (mut mem, mut clock, mut r) = setup(8, 0);
        for i in 0..5u64 {
            let id = r.reserve().unwrap();
            r.publish(&mut mem, &mut clock, id, 0x40000 + i * 2048, 100 + i as u32);
        }
        assert_eq!(r.in_flight(), 5);
        for i in 0..5u64 {
            let d = r.peek_avail(&mut mem, &mut clock).unwrap().unwrap();
            assert_eq!(d.addr, 0x40000 + i * 2048, "FIFO order");
            assert_eq!(d.len, 100 + i as u32);
            r.consume_avail();
            r.push_used(&mut mem, &mut clock, d.id, d.len);
        }
        assert!(r.peek_avail(&mut mem, &mut clock).is_none());
        for i in 0..5u64 {
            let (_, len) = r.pop_used(&mut mem, &mut clock).unwrap();
            assert_eq!(len, 100 + i as u32);
        }
        assert_eq!(r.in_flight(), 0);
        assert!(clock.tagged(Tag::Io) > 0, "ring traffic is charged DMA");
    }

    #[test]
    fn indices_wrap_at_u16_max() {
        // Start 5 entries below the wrap and push 16 descriptors through:
        // every free-running index crosses u16::MAX.
        let (mut mem, mut clock, mut r) = setup(4, u16::MAX - 5);
        for i in 0..16u32 {
            let id = r.reserve().expect("ring never appears full");
            r.publish(&mut mem, &mut clock, id, 0x40000, i);
            let d = r.peek_avail(&mut mem, &mut clock).unwrap().unwrap();
            assert_eq!(d.len, i, "order survives the wrap");
            r.consume_avail();
            r.push_used(&mut mem, &mut clock, d.id, d.len);
            let (_, len) = r.pop_used(&mut mem, &mut clock).unwrap();
            assert_eq!(len, i);
        }
        assert_eq!(r.free_descs(), 4);
    }

    #[test]
    fn no_descriptor_reuse_before_used_publication() {
        let (mut mem, mut clock, mut r) = setup(4, 0);
        let mut ids = Vec::new();
        while let Some(id) = r.reserve() {
            r.publish(&mut mem, &mut clock, id, 0x40000, 1);
            ids.push(id);
        }
        assert_eq!(ids.len(), 4);
        assert!(r.reserve().is_none(), "ring full");
        // Device consumes all four but publishes nothing to `used` yet:
        // the driver still cannot reuse any descriptor.
        let mut descs = Vec::new();
        while let Some(Ok(d)) = r.peek_avail(&mut mem, &mut clock) {
            r.consume_avail();
            descs.push(d);
        }
        assert!(r.pop_used(&mut mem, &mut clock).is_none());
        assert!(r.reserve().is_none(), "no reuse before used publication");
        // Publication of one releases exactly one.
        r.push_used(&mut mem, &mut clock, descs[0].id, 1);
        assert_eq!(r.pop_used(&mut mem, &mut clock).unwrap().0, descs[0].id);
        assert_eq!(r.reserve(), Some(descs[0].id));
    }

    #[test]
    fn rebase_shifts_the_layout() {
        let (mut mem, mut clock, mut r) = setup(4, 0);
        let id = r.reserve().unwrap();
        r.publish(&mut mem, &mut clock, id, 0x40000, 7);
        // Simulate segment migration: copy the ring page and rebase.
        let mut buf = vec![0u8; 4096];
        mem.read_bytes(0x10000, &mut buf);
        mem.write_bytes(0x30000, &buf);
        r.rebase(&mut mem, &mut clock, 0x20000);
        let d = r.peek_avail(&mut mem, &mut clock).unwrap().unwrap();
        assert_eq!(d.len, 7);
        assert_eq!(d.addr, 0x60000, "posted buffer address rewritten");
    }
}
