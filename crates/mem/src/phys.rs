//! Sparse simulated physical memory.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::{page_offset, pfn, Phys, PAGE_SIZE};

/// One 4 KiB physical frame of simulated memory.
type Frame = Box<[u8; PAGE_SIZE as usize]>;

/// Hasher for simulator-chosen integer keys: one multiply by an odd
/// constant (a bijection, so distinct keys never share a hash), rotated so
/// the well-mixed high product bits pick the bucket.
///
/// Frame numbers are bounded by the machine size and chosen by the
/// simulator's own allocators, and TLB tags are packed from addresses the
/// simulated CPU translates, so the collision resistance of the default
/// SipHash buys nothing for either, while every simulated memory access
/// pays for it. Unlike `RandomState`, it is unseeded: table iteration order
/// is the same in every process.
///
/// ```
/// use std::collections::HashMap;
/// use std::hash::BuildHasherDefault;
/// use sim_mem::PfnHasher;
///
/// let mut m: HashMap<u64, u32, BuildHasherDefault<PfnHasher>> = HashMap::default();
/// m.insert(7, 1);
/// assert_eq!(m[&7], 1);
/// ```
#[derive(Default)]
pub struct PfnHasher(u64);

impl Hasher for PfnHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Sparse simulated physical memory.
///
/// Frames are materialized on first write (or first read, which observes
/// zeros, matching zeroed RAM handed out by a host allocator). All page
/// tables, guest data pages, KSM metadata pages, and VirtIO rings used by
/// the simulation live in here and are addressed by host physical address.
///
/// # Examples
///
/// ```
/// use sim_mem::PhysMem;
///
/// let mut mem = PhysMem::new(1 << 30);
/// mem.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(mem.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(mem.read_u64(0x2000), 0); // untouched memory reads as zero
/// ```
pub struct PhysMem {
    frames: HashMap<u64, Frame, BuildHasherDefault<PfnHasher>>,
    size: u64,
    reads: u64,
    writes: u64,
}

impl PhysMem {
    /// Creates a physical memory of `size` bytes (rounded up to a page).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: u64) -> Self {
        assert!(size > 0, "physical memory must be non-empty");
        Self {
            frames: HashMap::default(),
            size: crate::addr::page_align_up(size),
            reads: 0,
            writes: 0,
        }
    }

    /// Total size of the physical address space in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of frames actually materialized (resident set).
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of 8-byte reads performed (walk/statistics instrumentation).
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of 8-byte writes performed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    #[inline]
    fn check(&self, pa: Phys, len: u64) {
        assert!(
            pa.checked_add(len).is_some_and(|end| end <= self.size),
            "physical access out of range: pa={pa:#x} len={len} size={:#x}",
            self.size
        );
    }

    /// Reads a naturally-aligned `u64` at physical address `pa`.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 8-byte aligned or out of range.
    pub fn read_u64(&mut self, pa: Phys) -> u64 {
        self.check(pa, 8);
        assert_eq!(pa % 8, 0, "unaligned u64 read at {pa:#x}");
        self.reads += 1;
        match self.frames.get(&pfn(pa)) {
            Some(f) => {
                let off = page_offset(pa) as usize;
                u64::from_le_bytes(f[off..off + 8].try_into().expect("8-byte slice"))
            }
            None => 0,
        }
    }

    /// Writes a naturally-aligned `u64` at physical address `pa`.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 8-byte aligned or out of range.
    pub fn write_u64(&mut self, pa: Phys, value: u64) {
        self.check(pa, 8);
        assert_eq!(pa % 8, 0, "unaligned u64 write at {pa:#x}");
        self.writes += 1;
        let frame = self.frame_mut(pa);
        let off = page_offset(pa) as usize;
        frame[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a naturally-aligned `u16` at physical address `pa` (split-ring
    /// index and descriptor fields are 16-bit).
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 2-byte aligned or out of range.
    pub fn read_u16(&mut self, pa: Phys) -> u16 {
        self.check(pa, 2);
        assert_eq!(pa % 2, 0, "unaligned u16 read at {pa:#x}");
        self.reads += 1;
        match self.frames.get(&pfn(pa)) {
            Some(f) => {
                let off = page_offset(pa) as usize;
                u16::from_le_bytes(f[off..off + 2].try_into().expect("2-byte slice"))
            }
            None => 0,
        }
    }

    /// Writes a naturally-aligned `u16` at physical address `pa`.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 2-byte aligned or out of range.
    pub fn write_u16(&mut self, pa: Phys, value: u16) {
        self.check(pa, 2);
        assert_eq!(pa % 2, 0, "unaligned u16 write at {pa:#x}");
        self.writes += 1;
        let frame = self.frame_mut(pa);
        let off = page_offset(pa) as usize;
        frame[off..off + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a naturally-aligned `u32` at physical address `pa`.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 4-byte aligned or out of range.
    pub fn read_u32(&mut self, pa: Phys) -> u32 {
        self.check(pa, 4);
        assert_eq!(pa % 4, 0, "unaligned u32 read at {pa:#x}");
        self.reads += 1;
        match self.frames.get(&pfn(pa)) {
            Some(f) => {
                let off = page_offset(pa) as usize;
                u32::from_le_bytes(f[off..off + 4].try_into().expect("4-byte slice"))
            }
            None => 0,
        }
    }

    /// Writes a naturally-aligned `u32` at physical address `pa`.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 4-byte aligned or out of range.
    pub fn write_u32(&mut self, pa: Phys, value: u32) {
        self.check(pa, 4);
        assert_eq!(pa % 4, 0, "unaligned u32 write at {pa:#x}");
        self.writes += 1;
        let frame = self.frame_mut(pa);
        let off = page_offset(pa) as usize;
        frame[off..off + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a single byte.
    pub fn read_u8(&mut self, pa: Phys) -> u8 {
        self.check(pa, 1);
        self.reads += 1;
        match self.frames.get(&pfn(pa)) {
            Some(f) => f[page_offset(pa) as usize],
            None => 0,
        }
    }

    /// Writes a single byte.
    pub fn write_u8(&mut self, pa: Phys, value: u8) {
        self.check(pa, 1);
        self.writes += 1;
        let frame = self.frame_mut(pa);
        frame[page_offset(pa) as usize] = value;
    }

    /// Copies `buf.len()` bytes out of physical memory starting at `pa`.
    ///
    /// The range may span frames but must stay inside the address space.
    pub fn read_bytes(&mut self, pa: Phys, buf: &mut [u8]) {
        self.check(pa, buf.len() as u64);
        self.reads += 1;
        let mut cur = pa;
        let mut done = 0usize;
        while done < buf.len() {
            let off = page_offset(cur) as usize;
            let take = usize::min(buf.len() - done, PAGE_SIZE as usize - off);
            match self.frames.get(&pfn(cur)) {
                Some(f) => buf[done..done + take].copy_from_slice(&f[off..off + take]),
                None => buf[done..done + take].fill(0),
            }
            done += take;
            cur += take as u64;
        }
    }

    /// Copies `buf` into physical memory starting at `pa`.
    pub fn write_bytes(&mut self, pa: Phys, buf: &[u8]) {
        self.check(pa, buf.len() as u64);
        self.writes += 1;
        let mut cur = pa;
        let mut done = 0usize;
        while done < buf.len() {
            let off = page_offset(cur) as usize;
            let take = usize::min(buf.len() - done, PAGE_SIZE as usize - off);
            let frame = self.frame_mut(cur);
            frame[off..off + take].copy_from_slice(&buf[done..done + take]);
            done += take;
            cur += take as u64;
        }
    }

    /// Zero-fills the frame containing `pa` (used when handing pages out).
    pub fn zero_frame(&mut self, pa: Phys) {
        self.check(pa, PAGE_SIZE);
        if let Some(f) = self.frames.get_mut(&pfn(pa)) {
            f.fill(0);
        }
        // An absent frame already reads as zero.
    }

    /// Copies the `len`-byte page range at `src` onto the range at `dst`,
    /// frame by frame in ascending order, and returns how many resident
    /// source frames it copied.
    ///
    /// Destination frames become clones of their source frames; a
    /// non-resident source (all zeros) drops its destination frame instead
    /// of materializing a zero page, preserving sparsity. The source range
    /// is left as it was, except where the ranges overlap. Overlap is
    /// allowed only as a slide toward lower addresses (`dst < src`, the
    /// compaction case), where the ascending order reads every source
    /// frame before it is overwritten.
    ///
    /// Only resident frames are copied or dropped: the cost is one map
    /// probe per page plus one frame copy per resident source frame.
    ///
    /// # Panics
    ///
    /// Panics if an argument is not page-aligned, a range is out of
    /// bounds, or `dst` lies inside `(src, src + len)`.
    pub fn copy_range(&mut self, src: Phys, dst: Phys, len: u64) -> u64 {
        assert_eq!(src % PAGE_SIZE, 0, "unaligned range copy source");
        assert_eq!(dst % PAGE_SIZE, 0, "unaligned range copy destination");
        assert_eq!(len % PAGE_SIZE, 0, "unaligned range copy length");
        self.check(src, len);
        self.check(dst, len);
        assert!(
            dst <= src || dst >= src + len,
            "range copy slides right over its source: src={src:#x} dst={dst:#x} len={len:#x}"
        );
        let (src, dst, pages) = (pfn(src), pfn(dst), pfn(len));
        if src == dst {
            return (src..src + pages)
                .filter(|n| self.frames.contains_key(n))
                .count() as u64;
        }
        let mut copied = 0;
        for i in 0..pages {
            match self.frames.get(&(src + i)).cloned() {
                Some(f) => {
                    copied += 1;
                    self.frames.insert(dst + i, f);
                }
                None => {
                    self.frames.remove(&(dst + i));
                }
            }
        }
        self.writes += copied;
        copied
    }

    fn frame_mut(&mut self, pa: Phys) -> &mut Frame {
        self.frames
            .entry(pfn(pa))
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]))
    }
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("size", &self.size)
            .field("resident_frames", &self.frames.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let mut m = PhysMem::new(1 << 20);
        assert_eq!(m.read_u64(0x8000), 0);
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = PhysMem::new(1 << 20);
        m.write_u64(0x1008, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x1008), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x1000), 0);
    }

    #[test]
    fn u16_u32_roundtrip() {
        let mut m = PhysMem::new(1 << 20);
        m.write_u16(0x1002, 0xBEEF);
        m.write_u32(0x1004, 0xDEAD_BEEF);
        assert_eq!(m.read_u16(0x1002), 0xBEEF);
        assert_eq!(m.read_u32(0x1004), 0xDEAD_BEEF);
        assert_eq!(m.read_u16(0x1000), 0, "untouched memory reads as zero");
        assert_eq!(m.read_u32(0x2000), 0);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_u16_panics() {
        let mut m = PhysMem::new(1 << 20);
        m.read_u16(0x1001);
    }

    #[test]
    fn byte_ops_cross_page() {
        let mut m = PhysMem::new(1 << 20);
        let data: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        m.write_bytes(0xff0, &data);
        let mut out = vec![0u8; 8192];
        m.read_bytes(0xff0, &mut out);
        assert_eq!(data, out);
    }

    #[test]
    fn zero_frame_clears() {
        let mut m = PhysMem::new(1 << 20);
        m.write_u64(0x3000, 42);
        m.zero_frame(0x3000);
        assert_eq!(m.read_u64(0x3000), 0);
    }

    /// The semantics `copy_range` must keep: an ascending loop of
    /// whole-frame copies, where a non-resident source drops the
    /// destination frame. Returns the resident source frames it read.
    fn copy_frames_reference(m: &mut PhysMem, src: Phys, dst: Phys, len: u64) -> u64 {
        let mut copied = 0;
        for off in (0..len).step_by(PAGE_SIZE as usize) {
            let (s, d) = (pfn(src + off), pfn(dst + off));
            match m.frames.get(&s).cloned() {
                Some(f) => {
                    copied += 1;
                    if s != d {
                        m.frames.insert(d, f);
                    }
                }
                None => {
                    m.frames.remove(&d);
                }
            }
        }
        copied
    }

    /// A memory with a seeded random resident set over its first 64
    /// frames, each resident frame filled with bytes unique to it.
    fn random_mem(seed: u64) -> PhysMem {
        let mut rng = obs::rng::SmallRng::seed_from_u64(seed);
        let mut m = PhysMem::new(64 * PAGE_SIZE);
        for n in 0..64u64 {
            if rng.gen_bool(0.4) {
                let fill: Vec<u8> = (0..PAGE_SIZE).map(|i| (i ^ n ^ seed) as u8).collect();
                m.write_bytes(n * PAGE_SIZE, &fill);
            }
        }
        m
    }

    fn assert_same_image(a: &mut PhysMem, b: &mut PhysMem, what: &str) {
        assert_eq!(
            a.resident_frames(),
            b.resident_frames(),
            "{what}: residency"
        );
        let (mut fa, mut fb) = (vec![0u8; PAGE_SIZE as usize], vec![0u8; PAGE_SIZE as usize]);
        for n in 0..a.size() / PAGE_SIZE {
            assert_eq!(
                a.frames.contains_key(&n),
                b.frames.contains_key(&n),
                "{what}: frame {n} residency"
            );
            a.read_bytes(n * PAGE_SIZE, &mut fa);
            b.read_bytes(n * PAGE_SIZE, &mut fb);
            assert_eq!(fa, fb, "{what}: frame {n} bytes");
        }
    }

    #[test]
    fn copy_range_matches_ascending_frame_copies() {
        let p = PAGE_SIZE;
        // (src, dst, len): disjoint both ways, slide-left overlaps that
        // shift by one page (29 pages overlap) and by 28 pages (6 pages
        // overlap), src == dst, and len == 0.
        let cases = [
            (0, 32 * p, 16 * p),
            (40 * p, 4 * p, 20 * p),
            (10 * p, 9 * p, 30 * p),
            (30 * p, 2 * p, 34 * p),
            (12 * p, 12 * p, 20 * p),
            (5 * p, 50 * p, 0),
            (0, 0, 64 * p),
        ];
        for seed in 0..20 {
            for &(src, dst, len) in &cases {
                let what = format!("seed {seed} src {src:#x} dst {dst:#x} len {len:#x}");
                let mut fast = random_mem(seed);
                let mut reference = random_mem(seed);
                let copied = fast.copy_range(src, dst, len);
                let expected = copy_frames_reference(&mut reference, src, dst, len);
                assert_eq!(copied, expected, "{what}: copied count");
                assert_same_image(&mut fast, &mut reference, &what);
            }
        }
    }

    #[test]
    fn copy_range_drops_stale_destination_frames() {
        let mut m = PhysMem::new(1 << 20);
        m.write_u64(0x3008, 7);
        m.write_u64(0x9000, 9); // stale: its source 0x4000 is not resident
        assert_eq!(m.copy_range(0x2000, 0x8000, 0x2000), 1);
        assert_eq!(m.read_u64(0x9008), 7);
        assert_eq!(m.read_u64(0x9000), 0);
        // Source untouched, stale destination dropped, copy materialized.
        assert_eq!(m.read_u64(0x3008), 7);
        assert_eq!(m.resident_frames(), 2);
    }

    #[test]
    #[should_panic(expected = "slides right")]
    fn copy_range_rejects_slide_right_overlap() {
        PhysMem::new(1 << 20).copy_range(0x2000, 0x3000, 0x2000);
    }

    #[test]
    #[should_panic(expected = "unaligned range copy source")]
    fn copy_range_rejects_unaligned_source() {
        PhysMem::new(1 << 20).copy_range(0x2008, 0x8000, 0x1000);
    }

    #[test]
    #[should_panic(expected = "unaligned range copy destination")]
    fn copy_range_rejects_unaligned_destination() {
        PhysMem::new(1 << 20).copy_range(0x2000, 0x8010, 0x1000);
    }

    #[test]
    #[should_panic(expected = "unaligned range copy length")]
    fn copy_range_rejects_unaligned_length() {
        PhysMem::new(1 << 20).copy_range(0x2000, 0x8000, 0x800);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn copy_range_rejects_out_of_range_destination() {
        PhysMem::new(1 << 20).copy_range(0x0, (1 << 20) - 0x1000, 0x2000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn copy_range_rejects_out_of_range_source() {
        PhysMem::new(1 << 20).copy_range((1 << 20) - 0x1000, 0x0, 0x2000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut m = PhysMem::new(1 << 20);
        m.read_u64(1 << 20);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_u64_panics() {
        let mut m = PhysMem::new(1 << 20);
        m.read_u64(0x1001);
    }
}
