//! PCID lifecycle management.
//!
//! The TLB tags entries with a 12-bit process-context identifier (§4.1),
//! so a host multiplexing many containers has at most 4096 tags to hand
//! out — and a control plane that only ever *increments* its next-PCID
//! counter exhausts the space after ~4k container starts even with zero
//! containers live. [`PcidAllocator`] recycles released tags through a
//! free list; callers must flush the TLB tag (`Tlb::flush_pcid`) when a
//! recycled PCID is reassigned, since stale translations from the previous
//! owner would otherwise leak across the container boundary.

use std::collections::BTreeSet;

/// Number of architectural PCID values (12-bit tag space).
pub const PCID_COUNT: u16 = 4096;

/// A recycling allocator over a range of PCID values.
///
/// # Examples
///
/// ```
/// use sim_hw::pcid::PcidAllocator;
///
/// let mut a = PcidAllocator::new(3);
/// let p = a.alloc().unwrap();
/// a.release(p);
/// assert_eq!(a.alloc(), Some(p)); // released tags are reused
/// ```
#[derive(Debug, Clone)]
pub struct PcidAllocator {
    /// Next never-used value (bump cursor).
    next: u16,
    /// One past the largest allocatable value.
    limit: u16,
    /// Released values, reused LIFO before the bump cursor advances.
    recycled: Vec<u16>,
    /// Currently-live values (double-alloc/release detection).
    live: BTreeSet<u16>,
}

impl PcidAllocator {
    /// Creates an allocator over `[first, PCID_COUNT - 1)`.
    ///
    /// PCID 0 conventionally belongs to the host kernel and the top value
    /// is excluded so it can serve as a "global/no-PCID" sentinel, which
    /// is why the range is open at `PCID_COUNT - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `first` is not below the limit.
    pub fn new(first: u16) -> Self {
        let limit = PCID_COUNT - 1;
        assert!(first < limit, "first PCID {first} out of range");
        Self {
            next: first,
            limit,
            recycled: Vec::new(),
            live: BTreeSet::new(),
        }
    }

    /// Allocates a PCID, preferring recycled tags, or `None` when every
    /// value in the range is live.
    pub fn alloc(&mut self) -> Option<u16> {
        let pcid = if let Some(p) = self.recycled.pop() {
            p
        } else if self.next < self.limit {
            let p = self.next;
            self.next += 1;
            p
        } else {
            return None;
        };
        self.live.insert(pcid);
        Some(pcid)
    }

    /// Returns a PCID to the free list.
    ///
    /// The *caller* owns TLB hygiene: flush the tag either on release or
    /// before reuse, or the next owner inherits stale translations.
    ///
    /// # Panics
    ///
    /// Panics if `pcid` was not live (double release or foreign value).
    pub fn release(&mut self, pcid: u16) {
        assert!(self.live.remove(&pcid), "releasing non-live PCID {pcid}");
        self.recycled.push(pcid);
    }

    /// Number of PCIDs currently handed out.
    pub fn in_use(&self) -> usize {
        self.live.len()
    }

    /// Number of PCIDs still allocatable.
    pub fn available(&self) -> usize {
        self.recycled.len() + (self.limit - self.next) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_released_tags() {
        let mut a = PcidAllocator::new(3);
        assert_eq!(a.alloc(), Some(3));
        assert_eq!(a.alloc(), Some(4));
        a.release(3);
        assert_eq!(a.alloc(), Some(3));
        assert_eq!(a.in_use(), 2);
    }

    #[test]
    fn sequential_churn_never_exhausts() {
        // The regression the allocator exists for: > 4096 start/stop
        // cycles with at most one tag live at a time.
        let mut a = PcidAllocator::new(3);
        for _ in 0..10_000 {
            let p = a.alloc().expect("recycled tags never run out");
            a.release(p);
        }
        assert_eq!(a.in_use(), 0);
    }

    #[test]
    fn exhaustion_with_all_live() {
        let mut a = PcidAllocator::new(PCID_COUNT - 3);
        assert_eq!(a.alloc(), Some(PCID_COUNT - 3));
        assert_eq!(a.alloc(), Some(PCID_COUNT - 2));
        assert_eq!(a.alloc(), None);
        assert_eq!(a.available(), 0);
        a.release(PCID_COUNT - 2);
        assert_eq!(a.alloc(), Some(PCID_COUNT - 2));
    }

    #[test]
    #[should_panic(expected = "non-live PCID")]
    fn double_release_panics() {
        let mut a = PcidAllocator::new(3);
        let p = a.alloc().unwrap();
        a.release(p);
        a.release(p);
    }
}
