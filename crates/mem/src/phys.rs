//! Sparse simulated physical memory.

use crate::addr::{page_offset, pfn, Phys, PAGE_SIZE};

/// One 4 KiB physical frame of simulated memory.
type Frame = Box<[u8; PAGE_SIZE as usize]>;

/// Frames per group: one 2 MiB range.
const GROUP_FRAMES: u64 = 512;

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
    /// The frame table's directory, indexed by group (`pfn / 512`). A
    /// group is allocated by the first write to one of its frames and
    /// freed with its last frame.
    groups: Vec<Option<Box<Group>>>,
    /// Frames materialized, over all groups.
    resident: usize,
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

/// The frames of one 2 MiB group: a slot per frame, and a 512-bit mask of
/// the slots that hold one, which lets range operations visit resident
/// frames 64 at a time.
struct Group {
    mask: [u64; 8],
    slots: [Option<Frame>; GROUP_FRAMES as usize],
}

impl Group {
    fn new() -> Box<Self> {
        Box::new(Self {
            mask: [0; 8],
            slots: [const { None }; GROUP_FRAMES as usize],
        })
    }
}

/// The group of frame `n` and its slot in the group.
#[inline]
fn split(n: u64) -> (usize, usize) {
    ((n / GROUP_FRAMES) as usize, (n % GROUP_FRAMES) as usize)
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
        let size = crate::addr::page_align_up(size);
        Self {
            groups: (0..pfn(size).div_ceil(GROUP_FRAMES))
                .map(|_| None)
                .collect(),
            resident: 0,
            size,
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
        self.resident
    }

    /// Number of 8-byte reads performed (walk/statistics instrumentation).
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of 8-byte writes performed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of frame-table probes, one per frame slot looked up and one
    /// per group mask read: the host work behind simulated memory. Unlike
    /// the access counts, it also counts what [`PhysMem::copy_range`] does.
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
    #[inline]
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
    #[inline]
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
        if let Some(f) = self.resident_mut(pfn(pa)) {
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
    /// in the group masks: the cost is one mask read per 2 MiB of each
    /// range plus one frame copy or drop per visited frame.
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
                if from >> bit & 1 == 0 {
                    self.drop_frame(d);
                } else {
                    copied += 1;
                    self.copy_frame(s, d);
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
    /// would, adding them up once per run. An absent frame reads as zeros
    /// and is materialized only by the first write.
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
        let mut frame = self.resident_mut(pfn(pa));
        let (mut stop, mut writes) = (slots, 0);
        for i in 0..slots {
            let at = off + 8 * i;
            let old = frame.as_ref().map_or(0, |f| {
                u64::from_le_bytes(f[at..at + 8].try_into().expect("8 bytes"))
            });
            match edit(i, old) {
                SlotEdit::Keep => {}
                SlotEdit::Write(new) => {
                    writes += 1;
                    let f = match frame {
                        Some(f) => f,
                        None => self.frame_mut(pa),
                    };
                    f[at..at + 8].copy_from_slice(&new.to_le_bytes());
                    frame = Some(f);
                }
                SlotEdit::Stop => {
                    stop = i;
                    break;
                }
            }
        }
        self.reads += (stop + usize::from(stop < slots)) as u64;
        self.writes += writes;
        stop
    }

    /// Residency of frames `first..first + pages`, 64 to a word: bit `i`
    /// of word `w` says whether frame `first + 64 * w + i` is resident.
    fn residency(&mut self, first: u64, pages: u64) -> Vec<u64> {
        if pages == 0 {
            return Vec::new();
        }
        let groups = first / GROUP_FRAMES..=(first + pages - 1) / GROUP_FRAMES;
        self.lookups += groups.end() - groups.start() + 1;
        let masks: Vec<u64> = groups
            .flat_map(|g| self.groups[g as usize].as_ref().map_or([0; 8], |g| g.mask))
            .collect();
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

    #[inline]
    fn frame(&mut self, pa: Phys) -> Option<&Frame> {
        self.lookups += 1;
        let (g, i) = split(pfn(pa));
        self.groups[g].as_ref()?.slots[i].as_ref()
    }

    /// Frame `n` if it is resident.
    fn resident_mut(&mut self, n: u64) -> Option<&mut Frame> {
        self.lookups += 1;
        let (g, i) = split(n);
        self.groups[g].as_mut()?.slots[i].as_mut()
    }

    /// The frame containing `pa`, materialized (zeroed) if absent.
    fn frame_mut(&mut self, pa: Phys) -> &mut Frame {
        self.lookups += 1;
        let (g, i) = split(pfn(pa));
        let Group { mask, slots } = &mut **self.groups[g].get_or_insert_with(Group::new);
        if slots[i].is_none() {
            mask[i / 64] |= 1 << (i % 64);
            self.resident += 1;
        }
        slots[i].get_or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
    }

    /// Makes frame `d` a copy of the resident frame `s`.
    fn copy_frame(&mut self, s: u64, d: u64) {
        self.lookups += 2;
        let ((sg, si), (dg, di)) = (split(s), split(d));
        // Take the destination out of its slot so the source can be
        // borrowed while it is written.
        let Group { mask, slots } = &mut **self.groups[dg].get_or_insert_with(Group::new);
        let to = slots[di].take();
        if to.is_none() {
            mask[di / 64] |= 1 << (di % 64);
            self.resident += 1;
        }
        let from = self.groups[sg].as_ref().and_then(|g| g.slots[si].as_ref());
        let from = from.expect("masked source frame is resident");
        let frame = match to {
            Some(mut to) => {
                to.copy_from_slice(&from[..]);
                to
            }
            None => from.clone(),
        };
        self.groups[dg].as_mut().expect("destination group").slots[di] = Some(frame);
    }

    /// Drops frame `n`, and its group with its last frame.
    fn drop_frame(&mut self, n: u64) {
        self.lookups += 1;
        let (g, i) = split(n);
        let Some(group) = &mut self.groups[g] else {
            return;
        };
        if group.slots[i].take().is_some() {
            group.mask[i / 64] &= !(1 << (i % 64));
            self.resident -= 1;
            if group.mask == [0; 8] {
                self.groups[g] = None;
            }
        }
    }
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("size", &self.size)
            .field("resident_frames", &self.resident)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Resident frames by frame number.
    type Image = BTreeMap<u64, Frame>;

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

    /// The semantics `copy_range` must keep, on an image: an ascending
    /// loop of whole-frame copies, where a non-resident source drops the
    /// destination frame. Returns the resident source frames it read.
    fn copy_frames_reference(image: &mut Image, src: Phys, dst: Phys, len: u64) -> u64 {
        let mut copied = 0;
        for off in (0..len).step_by(PAGE_SIZE as usize) {
            let (s, d) = (pfn(src + off), pfn(dst + off));
            match image.get(&s).cloned() {
                Some(f) => {
                    copied += 1;
                    image.insert(d, f);
                }
                None => {
                    image.remove(&d);
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

    /// The resident frames of `m`, after checking the frame table: each
    /// group's mask names exactly its occupied slots, no allocated group
    /// is empty, and the resident count is the number of frames.
    fn image(m: &PhysMem, what: &str) -> Image {
        let mut image = Image::new();
        for (g, group) in (0u64..).zip(&m.groups) {
            let Some(group) = group else { continue };
            assert!(group.mask != [0; 8], "{what}: empty group {g}");
            for (i, slot) in (0u64..).zip(&group.slots) {
                let masked = group.mask[(i / 64) as usize] >> (i % 64) & 1 == 1;
                assert_eq!(
                    masked,
                    slot.is_some(),
                    "{what}: mask of frame {i} in group {g}"
                );
                if let Some(f) = slot {
                    image.insert(g * GROUP_FRAMES + i, f.clone());
                }
            }
        }
        assert_eq!(image.len(), m.resident_frames(), "{what}: resident count");
        image
    }

    fn check_copy_range_cases(frames: u64, cases: &[(u64, u64, u64)], seeds: u64, density: f64) {
        let p = PAGE_SIZE;
        for seed in 0..seeds {
            for &(src, dst, len) in cases {
                let (src, dst, len) = (src * p, dst * p, len * p);
                let what = format!("seed {seed} src {src:#x} dst {dst:#x} len {len:#x}");
                let mut fast = random_mem(seed, frames, density);
                let mut reference = image(&fast, &what);
                let copied = fast.copy_range(src, dst, len);
                let expected = copy_frames_reference(&mut reference, src, dst, len);
                assert_eq!(copied, expected, "{what}: copied count");
                assert!(image(&fast, &what) == reference, "{what}: frames");
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

    /// Reference for [`frame_table_matches_a_reference_map`]: resident
    /// frames in a map, and the counts each operation must add. A
    /// lookup is one per frame slot an operation probes, plus one per
    /// group mask a range copy reads.
    #[derive(Default)]
    struct Model {
        frames: Image,
        reads: u64,
        writes: u64,
        lookups: u64,
    }

    impl Model {
        /// Frame numbers of the `len` bytes at `pa` (none when empty).
        fn spanned(pa: Phys, len: u64) -> std::ops::Range<u64> {
            pfn(pa)..if len == 0 {
                pfn(pa)
            } else {
                pfn(pa + len - 1) + 1
            }
        }

        fn read(&mut self, pa: Phys, len: u64) -> Vec<u8> {
            self.reads += 1;
            let frames = Self::spanned(pa, len);
            self.lookups += frames.end - frames.start;
            (pa..pa + len)
                .map(|a| {
                    self.frames
                        .get(&pfn(a))
                        .map_or(0, |f| f[page_offset(a) as usize])
                })
                .collect()
        }

        fn write(&mut self, pa: Phys, bytes: &[u8]) {
            self.writes += 1;
            let frames = Self::spanned(pa, bytes.len() as u64);
            self.lookups += frames.end - frames.start;
            for (a, &b) in (pa..).zip(bytes) {
                let f = self.frames.entry(pfn(a));
                f.or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))[page_offset(a) as usize] = b;
            }
        }

        fn zero_frame(&mut self, pa: Phys) {
            self.lookups += 1;
            if let Some(f) = self.frames.get_mut(&pfn(pa)) {
                f.fill(0);
            }
        }

        fn copy_range(&mut self, src: Phys, dst: Phys, len: u64) -> u64 {
            let groups = |at: Phys| match len {
                0 => 0,
                _ => pfn(at + len - 1) / GROUP_FRAMES - pfn(at) / GROUP_FRAMES + 1,
            };
            self.lookups += groups(src);
            if src != dst {
                self.lookups += groups(dst);
                for off in (0..len).step_by(PAGE_SIZE as usize) {
                    let resident = |a: Phys| self.frames.contains_key(&pfn(a));
                    self.lookups += match (resident(src + off), resident(dst + off)) {
                        (true, _) => 2,
                        (false, true) => 1,
                        (false, false) => 0,
                    };
                }
            }
            let copied = copy_frames_reference(&mut self.frames, src, dst, len);
            self.writes += copied;
            copied
        }

        fn edit_slots(
            &mut self,
            pa: Phys,
            slots: usize,
            mut edit: impl FnMut(usize, u64) -> SlotEdit,
        ) -> usize {
            self.lookups += 1;
            let absent = !self.frames.contains_key(&pfn(pa));
            let (mut reads, mut writes) = (0, 0);
            let mut stop = slots;
            for i in 0..slots {
                let slot = pa + 8 * i as u64;
                let old = self.frames.get(&pfn(slot)).map_or(0, |f| {
                    let at = page_offset(slot) as usize;
                    u64::from_le_bytes(f[at..at + 8].try_into().expect("8 bytes"))
                });
                reads += 1;
                match edit(i, old) {
                    SlotEdit::Keep => {}
                    SlotEdit::Write(new) => {
                        writes += 1;
                        let f = self.frames.entry(pfn(slot));
                        let f = f.or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
                        let at = page_offset(slot) as usize;
                        f[at..at + 8].copy_from_slice(&new.to_le_bytes());
                    }
                    SlotEdit::Stop => {
                        stop = i;
                        break;
                    }
                }
            }
            self.lookups += u64::from(absent && writes > 0);
            (self.reads, self.writes) = (self.reads + reads, self.writes + writes);
            stop
        }
    }

    /// Random writes, reads, frame zeroing, range copies and slot runs,
    /// over 3 groups and part of a fourth, agree with [`Model`] after
    /// every operation on what they return, on the read, write and
    /// lookup counts and on the resident frames and their bytes; the
    /// frame table's group masks stay exact throughout.
    #[test]
    fn frame_table_matches_a_reference_map() {
        let frames = 3 * GROUP_FRAMES + 200;
        let bytes = frames * PAGE_SIZE;
        for seed in 0..6 {
            let mut rng = obs::rng::SmallRng::seed_from_u64(0x7ab1e + seed);
            let mut m = PhysMem::new(bytes);
            let mut model = Model::default();
            for step in 0..300u64 {
                let what = format!("seed {seed} step {step}");
                // Addresses cluster around group boundaries half the time.
                let pa = match rng.gen_bool(0.5) {
                    true => rng.gen_range(0..bytes),
                    false => {
                        let edge = rng.gen_range(1..4) * GROUP_FRAMES * PAGE_SIZE;
                        edge - 2 * PAGE_SIZE + rng.gen_range(0..4 * PAGE_SIZE)
                    }
                };
                match rng.gen_range(0..10u32) {
                    0 => {
                        let pa = pa & !7;
                        m.write_u64(pa, step * 0x0101_0101);
                        model.write(pa, &(step * 0x0101_0101).to_le_bytes());
                    }
                    1 => {
                        let pa = pa & !3;
                        m.write_u32(pa, step as u32);
                        model.write(pa, &(step as u32).to_le_bytes());
                    }
                    2 => {
                        let pa = pa & !1;
                        m.write_u16(pa, step as u16);
                        model.write(pa, &(step as u16).to_le_bytes());
                        m.write_u8(pa, !step as u8);
                        model.write(pa, &[!step as u8]);
                    }
                    3 => {
                        let len = rng.gen_range(0..3 * PAGE_SIZE).min(bytes - pa);
                        let data: Vec<u8> = (0..len).map(|i| (i ^ step) as u8).collect();
                        m.write_bytes(pa, &data);
                        model.write(pa, &data);
                    }
                    4 => {
                        let pa = pa & !7;
                        let want = model.read(pa, 8);
                        assert_eq!(m.read_u64(pa).to_le_bytes()[..], want[..], "{what}: u64");
                        let len = rng.gen_range(0..3 * PAGE_SIZE).min(bytes - pa);
                        let mut got = vec![0xa5; len as usize];
                        m.read_bytes(pa, &mut got);
                        assert_eq!(got, model.read(pa, len), "{what}: bytes");
                    }
                    5 => {
                        let pa = pa & !(PAGE_SIZE - 1);
                        m.zero_frame(pa);
                        model.zero_frame(pa);
                    }
                    6 | 7 => {
                        let pages = rng.gen_range(0..frames / 2);
                        let src = rng.gen_range(0..frames - pages);
                        let dst = match rng.gen_bool(0.5) {
                            // Slide left over the source.
                            true => src.saturating_sub(rng.gen_range(0..pages + 1)),
                            false => rng.gen_range(0..frames - pages),
                        };
                        if dst <= src || dst >= src + pages {
                            let (src, dst, len) =
                                (src * PAGE_SIZE, dst * PAGE_SIZE, pages * PAGE_SIZE);
                            let copied = m.copy_range(src, dst, len);
                            assert_eq!(copied, model.copy_range(src, dst, len), "{what}: copied");
                        }
                    }
                    _ => {
                        let pa = pa & !7;
                        let slots =
                            rng.gen_range(0..(PAGE_SIZE - page_offset(pa)) / 8 + 1) as usize;
                        let plan: Vec<u32> = (0..slots).map(|_| rng.gen_range(0..40u32)).collect();
                        let edit = |i: usize, v: u64| match plan[i] {
                            0 => SlotEdit::Stop,
                            1..=8 => SlotEdit::Write(v ^ (step << 8 | i as u64)),
                            _ => SlotEdit::Keep,
                        };
                        let got = m.edit_slots(pa, slots, edit);
                        assert_eq!(got, model.edit_slots(pa, slots, edit), "{what}: stop");
                    }
                }
                let counts = |r, w, l| (r, w, l);
                assert_eq!(
                    counts(m.read_count(), m.write_count(), m.lookup_count()),
                    counts(model.reads, model.writes, model.lookups),
                    "{what}: read, write and lookup counts"
                );
                assert!(image(&m, &what) == model.frames, "{what}: frames");
            }
            assert!(m.resident_frames() > 0);
        }
    }

    #[test]
    fn copy_range_probes_resident_frames_not_pages() {
        // Three resident frames in a 1,536-frame range slid left by 520
        // frames: the source spans 4 groups and the destination 3. Each
        // frame resident at either end costs at most 2 slot probes (source
        // and destination): the 3 copies, and the drops of the 2 source
        // frames that land in the destination range.
        let mut m = PhysMem::new(5 * GROUP_FRAMES * PAGE_SIZE);
        for n in [523, 1220, 2020] {
            m.write_u64(n * PAGE_SIZE, n);
        }
        let before = m.lookup_count();
        let len = 3 * GROUP_FRAMES * PAGE_SIZE;
        assert_eq!(m.copy_range(520 * PAGE_SIZE, 0, len), 3);
        assert!(m.lookup_count() - before <= 4 + 3 + 5 * 2);
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
            assert!(
                image(&fast, &what) == image(&reference, &what),
                "{what}: frames"
            );
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
