//! Contiguous physical-segment allocator.
//!
//! CKI removes two-stage address translation: the host kernel hands each
//! secure container "some contiguous segments of hPA that are directly
//! managed by the memory manager in the guest kernel" (paper §3.3). The
//! guest kernel fills real hPAs into its PTEs, and the KSM validates that
//! every mapping stays inside the delegated segments.
//!
//! The paper notes the resulting limitation — fragmentation can lower
//! memory utilization (§4.3) — which [`SegmentAllocator::fragmentation`]
//! makes observable.

use crate::addr::{Phys, PAGE_SIZE};

/// A contiguous range of host physical memory delegated to one container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First byte of the segment (page-aligned).
    pub start: Phys,
    /// One past the last byte (page-aligned).
    pub end: Phys,
}

impl Segment {
    /// Length of the segment in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True if the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// True if `pa` lies inside the segment.
    pub fn contains(&self, pa: Phys) -> bool {
        (self.start..self.end).contains(&pa)
    }
}

/// Best-fit allocator of contiguous physical segments.
///
/// Allocation picks the *smallest* free extent that satisfies the request
/// (ties broken toward the lowest address), which keeps large extents
/// intact under mixed-size churn far longer than first-fit does. When
/// churn still shatters the pool, [`SegmentAllocator::compact`] computes a
/// slide-left migration plan that the owner executes (copying pages and
/// rewriting translations costs cycles, so the allocator only *plans*).
///
/// # Examples
///
/// ```
/// use sim_mem::SegmentAllocator;
///
/// let mut alloc = SegmentAllocator::new(0x100000, 0x900000);
/// let seg = alloc.alloc(0x200000).unwrap();
/// assert_eq!(seg.len(), 0x200000);
/// alloc.free(seg);
/// assert_eq!(alloc.free_bytes(), 0x800000);
/// ```
#[derive(Debug, Clone)]
pub struct SegmentAllocator {
    /// Sorted, coalesced free list.
    free: Vec<Segment>,
    /// The managed range (needed to re-pack from the base on compaction).
    range: Segment,
    total: u64,
}

impl SegmentAllocator {
    /// Creates an allocator over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or unaligned.
    pub fn new(start: Phys, end: Phys) -> Self {
        assert!(start < end, "empty segment range");
        assert_eq!(start % PAGE_SIZE, 0, "unaligned range start");
        assert_eq!(end % PAGE_SIZE, 0, "unaligned range end");
        Self {
            free: vec![Segment { start, end }],
            range: Segment { start, end },
            total: end - start,
        }
    }

    /// Allocates a contiguous segment of `len` bytes (rounded up to pages).
    ///
    /// Best-fit: carves from the smallest extent that fits, preferring the
    /// lowest address on ties. Returns `None` when no single free extent is
    /// large enough — which can happen even when `free_bytes() >= len`
    /// (external fragmentation).
    pub fn alloc(&mut self, len: u64) -> Option<Segment> {
        let len = crate::addr::page_align_up(len.max(PAGE_SIZE));
        let idx = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, s)| s.len() >= len)
            .min_by_key(|(_, s)| s.len())
            .map(|(i, _)| i)?;
        let seg = self.free[idx];
        let out = Segment {
            start: seg.start,
            end: seg.start + len,
        };
        if seg.len() == len {
            self.free.remove(idx);
        } else {
            self.free[idx].start += len;
        }
        Some(out)
    }

    /// Returns a segment to the free list, coalescing neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the segment overlaps an already-free extent.
    pub fn free(&mut self, seg: Segment) {
        assert!(!seg.is_empty(), "freeing empty segment");
        let pos = self.free.partition_point(|s| s.start < seg.start);
        if pos > 0 {
            assert!(self.free[pos - 1].end <= seg.start, "double free (left)");
        }
        if pos < self.free.len() {
            assert!(seg.end <= self.free[pos].start, "double free (right)");
        }
        self.free.insert(pos, seg);
        // Coalesce with right then left neighbour.
        if pos + 1 < self.free.len() && self.free[pos].end == self.free[pos + 1].start {
            self.free[pos].end = self.free[pos + 1].end;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].end == self.free[pos].start {
            self.free[pos - 1].end = self.free[pos].end;
            self.free.remove(pos);
        }
    }

    /// Total free bytes across all extents.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(Segment::len).sum()
    }

    /// Size of the largest allocatable contiguous extent.
    pub fn largest_extent(&self) -> u64 {
        self.free.iter().map(Segment::len).max().unwrap_or(0)
    }

    /// External fragmentation in `[0, 1]`: `1 - largest_extent/free_bytes`.
    ///
    /// Zero means all free memory is one extent; values near one mean the
    /// free memory is shattered — the utilization limitation the paper
    /// acknowledges for CKI's contiguous delegation (§4.3).
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_bytes();
        if free == 0 {
            0.0
        } else {
            1.0 - self.largest_extent() as f64 / free as f64
        }
    }

    /// The sorted, coalesced free extents (diagnostics / planning).
    pub fn free_extents(&self) -> &[Segment] {
        &self.free
    }

    /// Computes and applies a slide-left compaction plan.
    ///
    /// `live` must list every currently-allocated segment. Each live
    /// segment is re-packed toward the base of the managed range in
    /// ascending address order, so after compaction all free memory forms
    /// a single tail extent (`fragmentation()` returns 0). The entries of
    /// `live` are rewritten to their new locations in place, and the
    /// returned plan lists `(old, new)` for every segment that moved, in
    /// the order the owner must migrate them (ascending, so a page-by-page
    /// ascending copy is safe even when old and new ranges overlap).
    ///
    /// The allocator only re-plans bookkeeping; the *owner* performs the
    /// page copies and translation rewrites, charging cycles for them.
    ///
    /// # Panics
    ///
    /// Panics if `live` disagrees with the allocator's accounting (a
    /// segment outside the managed range, overlapping another, or total
    /// live bytes not matching allocated bytes).
    pub fn compact(&mut self, live: &mut [Segment]) -> Vec<(Segment, Segment)> {
        let live_bytes: u64 = live.iter().map(Segment::len).sum();
        assert_eq!(
            live_bytes,
            self.total - self.free_bytes(),
            "live set does not match allocated bytes"
        );
        let mut order: Vec<usize> = (0..live.len()).collect();
        order.sort_by_key(|&i| live[i].start);
        let mut moves = Vec::new();
        let mut cursor = self.range.start;
        for &i in &order {
            let old = live[i];
            assert!(
                self.range.start <= old.start && old.end <= self.range.end,
                "live segment {old:?} outside managed range"
            );
            assert!(cursor <= old.start, "overlapping live segments");
            let new = Segment {
                start: cursor,
                end: cursor + old.len(),
            };
            if new != old {
                moves.push((old, new));
                live[i] = new;
            }
            cursor = new.end;
        }
        self.free = if cursor < self.range.end {
            vec![Segment {
                start: cursor,
                end: self.range.end,
            }]
        } else {
            Vec::new()
        };
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_coalesce() {
        let mut a = SegmentAllocator::new(0, 0x10000);
        let s1 = a.alloc(0x4000).unwrap();
        let s2 = a.alloc(0x4000).unwrap();
        let s3 = a.alloc(0x4000).unwrap();
        assert_eq!(a.free_bytes(), 0x4000);
        a.free(s1);
        a.free(s3);
        assert_eq!(a.free_bytes(), 0xc000);
        // s2 still held: free memory split into two extents.
        assert_eq!(a.largest_extent(), 0x8000);
        assert!(a.fragmentation() > 0.0);
        a.free(s2);
        assert_eq!(a.free_bytes(), 0x10000);
        assert_eq!(a.largest_extent(), 0x10000);
        assert_eq!(a.fragmentation(), 0.0);
    }

    #[test]
    fn fragmentation_blocks_large_alloc() {
        let mut a = SegmentAllocator::new(0, 0x10000);
        let segs: Vec<_> = (0..8).map(|_| a.alloc(0x2000).unwrap()).collect();
        // Free every other segment: 0x8000 free but max extent 0x2000.
        for s in segs.iter().step_by(2) {
            a.free(*s);
        }
        assert_eq!(a.free_bytes(), 0x8000);
        assert!(a.alloc(0x4000).is_none());
        assert!(a.alloc(0x2000).is_some());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn overlapping_free_panics() {
        let mut a = SegmentAllocator::new(0, 0x10000);
        let s = a.alloc(0x2000).unwrap();
        a.free(s);
        a.free(s);
    }

    #[test]
    fn best_fit_prefers_smallest_extent() {
        let mut a = SegmentAllocator::new(0, 0x10000);
        let s1 = a.alloc(0x4000).unwrap(); // [0, 0x4000)
        let _s2 = a.alloc(0x2000).unwrap(); // [0x4000, 0x6000) — separator
        let s3 = a.alloc(0x2000).unwrap(); // [0x6000, 0x8000)
        let _s4 = a.alloc(0x2000).unwrap(); // [0x8000, 0xa000) — separator
        a.free(s1); // hole of 0x4000 at 0
        a.free(s3); // hole of 0x2000 at 0x6000
                    // A 0x2000 request must take the exact-fit hole at 0x6000 (first-fit
                    // would shatter the 0x4000 extent at 0), keeping the large extent
                    // intact for a later large request.
        let s = a.alloc(0x2000).unwrap();
        assert_eq!(s.start, 0x6000);
        assert_eq!(a.alloc(0x4000).unwrap().start, 0);
    }

    #[test]
    fn compact_packs_live_segments() {
        let mut a = SegmentAllocator::new(0x1000, 0x11000);
        let segs: Vec<_> = (0..8).map(|_| a.alloc(0x2000).unwrap()).collect();
        let mut live = Vec::new();
        for (i, s) in segs.iter().enumerate() {
            if i % 2 == 0 {
                a.free(*s);
            } else {
                live.push(*s);
            }
        }
        assert!(a.alloc(0x4000).is_none());
        let moves = a.compact(&mut live);
        // Every surviving segment had a hole to its left, so all 4 move.
        assert_eq!(moves.len(), 4);
        for (old, new) in &moves {
            assert!(new.start < old.start, "compaction slides left");
            assert_eq!(old.len(), new.len());
        }
        // Moves come out in ascending order for safe overlapping copies.
        for w in moves.windows(2) {
            assert!(w[0].0.start < w[1].0.start);
        }
        assert_eq!(a.fragmentation(), 0.0);
        assert_eq!(a.free_bytes(), 0x8000);
        assert!(a.alloc(0x8000).is_some());
    }

    #[test]
    fn compact_noop_when_already_packed() {
        let mut a = SegmentAllocator::new(0, 0x10000);
        let mut live = vec![a.alloc(0x2000).unwrap(), a.alloc(0x2000).unwrap()];
        assert!(a.compact(&mut live).is_empty());
        assert_eq!(live[0].start, 0);
        assert_eq!(a.free_extents().len(), 1);
    }

    #[test]
    fn rounds_up_to_pages() {
        let mut a = SegmentAllocator::new(0, 0x10000);
        let s = a.alloc(1).unwrap();
        assert_eq!(s.len(), PAGE_SIZE);
    }
}
