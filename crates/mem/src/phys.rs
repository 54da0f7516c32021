//! Sparse simulated physical memory.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::RangeInclusive;

use crate::addr::{page_offset, pfn, Phys, PAGE_SIZE};

/// One 4 KiB physical frame of simulated memory.
type Frame = Box<[u8; PAGE_SIZE as usize]>;

/// Frames per residency group: one 2 MiB range, 512 mask bits.
const GROUP_FRAMES: u64 = 512;

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
    resident: Residency,
    size: u64,
    reads: u64,
    writes: u64,
    lookups: u64,
}

/// What [`PhysMem::edit_slots`] does with one 8-byte slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotEdit {
    /// Leave the slot as it is and go on to the next one.
    Keep,
    /// Store this value in the slot and go on to the next one.
    Write(u64),
    /// Leave the slot as it is and end the run here.
    Stop,
}

/// Which frames are materialized: for each 2 MiB group of frames
/// (`pfn / 512`) holding at least one, a 512-bit mask of them. Kept in
/// step with the frame map, it lets range operations visit resident
/// frames 64 at a time instead of probing the map once per frame.
#[derive(Default)]
struct Residency(HashMap<u64, [u64; 8], BuildHasherDefault<PfnHasher>>);

impl Residency {
    fn insert(&mut self, n: u64) {
        let mask = self.0.entry(n / GROUP_FRAMES).or_insert([0; 8]);
        mask[(n % GROUP_FRAMES / 64) as usize] |= 1 << (n % 64);
    }

    fn remove(&mut self, n: u64) {
        let Entry::Occupied(mut group) = self.0.entry(n / GROUP_FRAMES) else {
            return;
        };
        group.get_mut()[(n % GROUP_FRAMES / 64) as usize] &= !(1 << (n % 64));
        if group.get().iter().all(|&w| w == 0) {
            group.remove();
        }
    }

    /// The masks of `groups`, concatenated: bit `i` says whether frame
    /// `groups.start() * 512 + i` is resident. One probe per group.
    fn masks(&self, groups: RangeInclusive<u64>) -> Vec<u64> {
        groups
            .flat_map(|g| self.0.get(&g).copied().unwrap_or([0; 8]))
            .collect()
    }
}

/// The 64 bits of `bits` starting at bit `at` (zeros past its end).
fn bit_window(bits: &[u64], at: u64) -> u64 {
    let (word, shift) = ((at / 64) as usize, at % 64);
    let lo = bits.get(word).map_or(0, |&w| w >> shift);
    let hi = match (shift, bits.get(word + 1)) {
        (0, _) | (_, None) => 0,
        (_, Some(&w)) => w << (64 - shift),
    };
    lo | hi
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
            resident: Residency::default(),
            size: crate::addr::page_align_up(size),
            reads: 0,
            writes: 0,
            lookups: 0,
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

    /// Number of probes of the frame map or of its residency index: the
    /// host work behind simulated memory. Unlike the access counts, it
    /// also counts what [`PhysMem::copy_range`] does.
    pub fn lookup_count(&self) -> u64 {
        self.lookups
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
        match self.frame(pa) {
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
        match self.frame(pa) {
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
        match self.frame(pa) {
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
        match self.frame(pa) {
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
            match self.frame(cur) {
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
        self.lookups += 1;
        if let Some(f) = self.frames.get_mut(&pfn(pa)) {
            f.fill(0);
        }
        // An absent frame already reads as zero.
    }

    /// Copies the `len`-byte page range at `src` onto the range at `dst`,
    /// frame by frame in ascending order, and returns how many resident
    /// source frames it copied.
    ///
    /// Destination frames become copies of their source frames; a
    /// non-resident source (all zeros) drops its destination frame instead
    /// of materializing a zero page, preserving sparsity. The source range
    /// is left as it was, except where the ranges overlap. Overlap is
    /// allowed only as a slide toward lower addresses (`dst < src`, the
    /// compaction case), where the ascending order reads every source
    /// frame before it is overwritten.
    ///
    /// Only frames resident at either end are visited, found 64 at a time
    /// in the residency index: the cost is one index probe per 2 MiB of
    /// each range plus one frame copy or drop per visited frame.
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
        let from = self.residency(src, pages);
        if src == dst {
            return from.iter().map(|w| u64::from(w.count_ones())).sum();
        }
        // Both snapshots stay exact while the loop runs: copying frame `i`
        // changes only destination frame `i`, which in a slide-left
        // overlap is a source frame the loop has already passed.
        let to = self.residency(dst, pages);
        let mut copied = 0;
        for (w, (&from, &to)) in (0u64..).zip(from.iter().zip(&to)) {
            let mut visit = from | to;
            while visit != 0 {
                let bit = visit.trailing_zeros();
                visit &= visit - 1;
                let (s, d) = (src + 64 * w + u64::from(bit), dst + 64 * w + u64::from(bit));
                self.lookups += 2;
                if from >> bit & 1 == 0 {
                    self.frames.remove(&d);
                    self.resident.remove(d);
                    continue;
                }
                copied += 1;
                match self.frames.get_disjoint_mut([&s, &d]) {
                    [Some(s), Some(d)] => d.copy_from_slice(&s[..]),
                    [Some(s), None] => {
                        let frame = s.clone();
                        self.lookups += 2;
                        self.frames.insert(d, frame);
                        self.resident.insert(d);
                    }
                    [None, _] => unreachable!("indexed frame {s:#x} is resident"),
                }
            }
        }
        self.writes += copied;
        copied
    }

    /// Runs `edit` over the `slots` consecutive 8-byte slots from `pa`,
    /// looking their frame up once. `edit` gets each slot's index and
    /// value and says whether to keep it, overwrite it, or end the run
    /// there. Returns the index of the slot that stopped the run, or
    /// `slots` if none did.
    ///
    /// Counts one read per slot visited and one write per slot written,
    /// as the equivalent [`PhysMem::read_u64`]/[`PhysMem::write_u64`] loop
    /// would. An absent frame reads as zeros and is materialized only by
    /// the first write.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 8-byte aligned or the run leaves its frame or
    /// the address space.
    ///
    /// # Examples
    ///
    /// ```
    /// use sim_mem::{PhysMem, SlotEdit};
    ///
    /// let mut mem = PhysMem::new(1 << 20);
    /// mem.write_u64(0x1010, 5);
    /// // Double every slot until the first zero past slot 2.
    /// let stop = mem.edit_slots(0x1000, 8, |i, v| match v {
    ///     0 if i > 2 => SlotEdit::Stop,
    ///     0 => SlotEdit::Keep,
    ///     v => SlotEdit::Write(2 * v),
    /// });
    /// assert_eq!((stop, mem.read_u64(0x1010)), (3, 10));
    /// ```
    pub fn edit_slots(
        &mut self,
        pa: Phys,
        slots: usize,
        mut edit: impl FnMut(usize, u64) -> SlotEdit,
    ) -> usize {
        let len = 8 * slots as u64;
        self.check(pa, len);
        assert_eq!(pa % 8, 0, "unaligned slot run at {pa:#x}");
        assert!(
            page_offset(pa) + len <= PAGE_SIZE,
            "slot run at {pa:#x} of {slots} slots leaves its frame"
        );
        let off = page_offset(pa) as usize;
        let mut next = 0;
        loop {
            self.lookups += 1;
            if let Some(frame) = self.frames.get_mut(&pfn(pa)) {
                for i in next..slots {
                    let at = off + 8 * i;
                    self.reads += 1;
                    let old = u64::from_le_bytes(frame[at..at + 8].try_into().expect("8 bytes"));
                    match edit(i, old) {
                        SlotEdit::Keep => {}
                        SlotEdit::Write(new) => {
                            self.writes += 1;
                            frame[at..at + 8].copy_from_slice(&new.to_le_bytes());
                        }
                        SlotEdit::Stop => return i,
                    }
                }
                return slots;
            }
            // An absent frame reads as zeros. The first write materializes
            // it, and the run goes on through the branch above.
            loop {
                if next == slots {
                    return slots;
                }
                self.reads += 1;
                match edit(next, 0) {
                    SlotEdit::Keep => next += 1,
                    SlotEdit::Write(new) => {
                        self.write_u64(pa + 8 * next as u64, new);
                        next += 1;
                        break;
                    }
                    SlotEdit::Stop => return next,
                }
            }
        }
    }

    /// Residency of frames `first..first + pages`, 64 to a word: bit `i`
    /// of word `w` says whether frame `first + 64 * w + i` is resident.
    fn residency(&mut self, first: u64, pages: u64) -> Vec<u64> {
        if pages == 0 {
            return Vec::new();
        }
        let groups = first / GROUP_FRAMES..=(first + pages - 1) / GROUP_FRAMES;
        self.lookups += groups.end() - groups.start() + 1;
        let masks = self.resident.masks(groups);
        let skip = first % GROUP_FRAMES;
        (0..pages.div_ceil(64))
            .map(|w| {
                let bits = bit_window(&masks, skip + 64 * w);
                match pages - 64 * w {
                    left @ 0..64 => bits & ((1 << left) - 1),
                    _ => bits,
                }
            })
            .collect()
    }

    fn frame(&mut self, pa: Phys) -> Option<&Frame> {
        self.lookups += 1;
        self.frames.get(&pfn(pa))
    }

    fn frame_mut(&mut self, pa: Phys) -> &mut Frame {
        self.lookups += 1;
        match self.frames.entry(pfn(pa)) {
            Entry::Occupied(frame) => frame.into_mut(),
            Entry::Vacant(slot) => {
                self.lookups += 1;
                self.resident.insert(*slot.key());
                slot.insert(Box::new([0u8; PAGE_SIZE as usize]))
            }
        }
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

    /// A memory of `frames` frames with a seeded random resident set, each
    /// resident frame tagged with words unique to it.
    fn random_mem(seed: u64, frames: u64, density: f64) -> PhysMem {
        let mut rng = obs::rng::SmallRng::seed_from_u64(seed);
        let mut m = PhysMem::new(frames * PAGE_SIZE);
        for n in 0..frames {
            if rng.gen_bool(density) {
                m.write_u64(n * PAGE_SIZE, n ^ seed << 32);
                m.write_u64(n * PAGE_SIZE + 8 * (n % 512), !n);
            }
        }
        m
    }

    fn assert_same_image(a: &PhysMem, b: &PhysMem, what: &str) {
        let sorted_keys = |m: &PhysMem| {
            let mut keys: Vec<u64> = m.frames.keys().copied().collect();
            keys.sort_unstable();
            keys
        };
        let keys = sorted_keys(a);
        assert_eq!(keys, sorted_keys(b), "{what}: resident frames");
        for n in keys {
            assert!(a.frames[&n] == b.frames[&n], "{what}: frame {n} bytes");
        }
    }

    /// The residency index names exactly the materialized frames and
    /// holds no empty group.
    fn assert_index_matches(m: &PhysMem, what: &str) {
        let mut indexed = Vec::new();
        for (&group, mask) in &m.resident.0 {
            assert!(mask.iter().any(|&w| w != 0), "{what}: empty group {group}");
            for (w, &word) in (0u64..).zip(mask) {
                for bit in (0..64).filter(|b| word >> b & 1 == 1) {
                    indexed.push(group * GROUP_FRAMES + 64 * w + bit);
                }
            }
        }
        indexed.sort_unstable();
        let mut keys: Vec<u64> = m.frames.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(indexed, keys, "{what}: index vs frame map");
    }

    fn check_copy_range_cases(frames: u64, cases: &[(u64, u64, u64)], seeds: u64, density: f64) {
        let p = PAGE_SIZE;
        for seed in 0..seeds {
            for &(src, dst, len) in cases {
                let (src, dst, len) = (src * p, dst * p, len * p);
                let what = format!("seed {seed} src {src:#x} dst {dst:#x} len {len:#x}");
                let mut fast = random_mem(seed, frames, density);
                let mut reference = random_mem(seed, frames, density);
                let copied = fast.copy_range(src, dst, len);
                let expected = copy_frames_reference(&mut reference, src, dst, len);
                assert_eq!(copied, expected, "{what}: copied count");
                assert_same_image(&fast, &reference, &what);
                assert_index_matches(&fast, &what);
            }
        }
    }

    #[test]
    fn copy_range_matches_ascending_frame_copies() {
        // (src, dst, len) in pages over 64 frames: disjoint both ways,
        // slide-left overlaps that shift by one page (29 pages overlap)
        // and by 28 pages (6 pages overlap), src == dst, and len == 0.
        let small = [
            (0, 32, 16),
            (40, 4, 20),
            (10, 9, 30),
            (30, 2, 34),
            (12, 12, 20),
            (5, 50, 0),
            (0, 0, 64),
        ];
        check_copy_range_cases(64, &small, 20, 0.4);
        // Over 3 residency groups and part of a fourth (1,600 frames):
        // offsets off the 64-frame words, disjoint copies across group
        // boundaries, and slide-left overlaps by 1, 63, 64, 513 and 997
        // frames that cross word and group boundaries.
        let large = [
            (0, 700, 600),
            (37, 1100, 450),
            (1500, 10, 100),
            (130, 129, 1400),
            (513, 450, 1000),
            (65, 1, 1535),
            (1031, 518, 560),
            (1000, 3, 597),
            (600, 600, 900),
            (1599, 1599, 1),
            (0, 0, 1600),
        ];
        for density in [0.02, 0.4, 0.97] {
            check_copy_range_cases(1600, &large, 4, density);
        }
    }

    #[test]
    fn residency_index_tracks_the_frame_map() {
        let frames = 3 * GROUP_FRAMES + 200;
        let mut rng = obs::rng::SmallRng::seed_from_u64(11);
        let mut m = PhysMem::new(frames * PAGE_SIZE);
        for step in 0..400 {
            let pa = rng.gen_range(0..frames * PAGE_SIZE) & !7;
            match rng.gen_range(0..8u32) {
                0 => m.write_u64(pa, step),
                1 => m.write_u32(pa, step as u32),
                2 => m.write_u16(pa, step as u16),
                3 => m.write_u8(pa, step as u8),
                4 => {
                    let len = rng.gen_range(1..3 * PAGE_SIZE).min(frames * PAGE_SIZE - pa);
                    m.write_bytes(pa, &vec![step as u8; len as usize]);
                }
                5 => m.zero_frame(pa),
                _ => {
                    let pages = rng.gen_range(0..frames / 2);
                    let src = rng.gen_range(0..frames - pages);
                    let dst = match rng.gen_bool(0.5) {
                        // Slide left over the source.
                        true => src.saturating_sub(rng.gen_range(0..pages + 1)),
                        false => rng.gen_range(0..frames - pages),
                    };
                    if dst <= src || dst >= src + pages {
                        m.copy_range(src * PAGE_SIZE, dst * PAGE_SIZE, pages * PAGE_SIZE);
                    }
                }
            }
            assert_index_matches(&m, &format!("step {step}"));
        }
        assert!(m.resident_frames() > 0);
    }

    #[test]
    fn copy_range_probes_resident_frames_not_pages() {
        // Three resident frames in a 1,536-frame range slid left by 520
        // frames: the source spans 4 groups and the destination 3. Each
        // frame resident at either end costs at most 4 probes (source,
        // destination, insert, index): the 3 copies, and the drops of the
        // 2 source frames that land in the destination range.
        let mut m = PhysMem::new(5 * GROUP_FRAMES * PAGE_SIZE);
        for n in [523, 1220, 2020] {
            m.write_u64(n * PAGE_SIZE, n);
        }
        let before = m.lookup_count();
        let len = 3 * GROUP_FRAMES * PAGE_SIZE;
        assert_eq!(m.copy_range(520 * PAGE_SIZE, 0, len), 3);
        assert!(m.lookup_count() - before <= 4 + 3 + 5 * 4);
        assert_eq!(m.read_u64(700 * PAGE_SIZE), 1220);
    }

    /// The semantics `edit_slots` must keep: a `read_u64`, then possibly a
    /// `write_u64`, per slot.
    fn edit_slots_reference(
        m: &mut PhysMem,
        pa: Phys,
        slots: usize,
        mut edit: impl FnMut(usize, u64) -> SlotEdit,
    ) -> usize {
        for i in 0..slots {
            let slot = pa + 8 * i as u64;
            match edit(i, m.read_u64(slot)) {
                SlotEdit::Keep => {}
                SlotEdit::Write(new) => m.write_u64(slot, new),
                SlotEdit::Stop => return i,
            }
        }
        slots
    }

    #[test]
    fn edit_slots_matches_per_slot_reads_and_writes() {
        let mut rng = obs::rng::SmallRng::seed_from_u64(5);
        for case in 0..300 {
            let resident = rng.gen_bool(0.5);
            let first = rng.gen_range(0..512usize);
            let slots = rng.gen_range(0..513 - first);
            // Per slot: 0 keep, 1 write, 2 stop, weighted so that runs of
            // every kind, including write-free runs, come up.
            let writes = rng.gen_range(0..4u32);
            let plan: Vec<u32> = (0..slots)
                .map(|_| match rng.gen_range(0..64u32) {
                    0 => 2,
                    r if r % 4 < writes => 1,
                    _ => 0,
                })
                .collect();
            let edit = |i: usize, v: u64| match plan[i] {
                0 => SlotEdit::Keep,
                1 => SlotEdit::Write(v.wrapping_mul(3) ^ (i as u64 + 1)),
                _ => SlotEdit::Stop,
            };
            let setup = || {
                let mut m = PhysMem::new(4 * PAGE_SIZE);
                if resident {
                    for i in (0..512).step_by(3) {
                        m.write_u64(PAGE_SIZE + 8 * i, i * 7 + 1);
                    }
                }
                m
            };
            let (mut fast, mut reference) = (setup(), setup());
            let pa = PAGE_SIZE + 8 * first as u64;
            let what = format!("case {case}: resident {resident} first {first} plan {plan:?}");
            let got = fast.edit_slots(pa, slots, edit);
            let want = edit_slots_reference(&mut reference, pa, slots, edit);
            assert_eq!(got, want, "{what}: stopping slot");
            assert_eq!(fast.read_count(), reference.read_count(), "{what}: reads");
            assert_eq!(
                fast.write_count(),
                reference.write_count(),
                "{what}: writes"
            );
            assert_same_image(&fast, &reference, &what);
            assert_index_matches(&fast, &what);
        }
    }

    #[test]
    fn edit_slots_leaves_an_unwritten_absent_frame_absent() {
        let mut m = PhysMem::new(1 << 20);
        let before = m.lookup_count();
        assert_eq!(m.edit_slots(0x3000, 512, |_, _| SlotEdit::Keep), 512);
        assert_eq!(m.edit_slots(0x3100, 4, |_, _| SlotEdit::Stop), 0);
        assert_eq!(m.resident_frames(), 0);
        assert_eq!((m.read_count(), m.write_count()), (513, 0));
        assert_eq!(m.lookup_count() - before, 2, "one probe per run");
    }

    #[test]
    #[should_panic(expected = "leaves its frame")]
    fn edit_slots_rejects_a_run_past_its_frame() {
        PhysMem::new(1 << 20).edit_slots(0x1ff8, 2, |_, _| SlotEdit::Keep);
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
