//! Construction and software walking of 4-level page tables.
//!
//! Tables built here are real: 512-entry arrays of 64-bit PTEs stored in
//! [`PhysMem`]. The hardware walk with permission/protection-key checks
//! lives in the `sim-hw` crate; this module provides the software-side
//! editor used by kernels (and a raw walk used by both).

use crate::addr::{pt_index, Phys, Virt, HUGE_PAGE_SIZE, PAGE_SIZE};
use crate::phys::{PhysMem, SlotEdit};
use crate::pte;
use crate::segment::Segment;

/// Flags requested when mapping a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapFlags {
    /// Writable.
    pub write: bool,
    /// User-accessible.
    pub user: bool,
    /// Non-executable.
    pub nx: bool,
    /// Global (survives PCID-tagged flushes).
    pub global: bool,
    /// Protection key (0..=15).
    pub pkey: u8,
}

impl MapFlags {
    /// Kernel read-write data mapping (key 0).
    pub const fn kernel_rw() -> Self {
        Self {
            write: true,
            user: false,
            nx: true,
            global: false,
            pkey: 0,
        }
    }

    /// User read-write data mapping (key 0).
    pub const fn user_rw() -> Self {
        Self {
            write: true,
            user: true,
            nx: true,
            global: false,
            pkey: 0,
        }
    }

    /// Returns these flags with the protection key replaced.
    pub const fn with_pkey(mut self, key: u8) -> Self {
        self.pkey = key;
        self
    }

    /// Returns these flags with writability replaced.
    pub const fn with_write(mut self, write: bool) -> Self {
        self.write = write;
        self
    }

    /// Encodes the flags into leaf-PTE bits (present is always set).
    pub fn encode(&self) -> u64 {
        let mut bits = pte::P;
        if self.write {
            bits |= pte::W;
        }
        if self.user {
            bits |= pte::U;
        }
        if self.nx {
            bits |= pte::NX;
        }
        if self.global {
            bits |= pte::G;
        }
        pte::with_pkey(bits, self.pkey)
    }
}

/// Why a software walk failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkError {
    /// A non-leaf entry at `level` was not present.
    NotPresent {
        /// Page-table level (4 = PML4 .. 1 = PT) of the missing entry.
        level: u8,
    },
}

/// Successful translation result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// Translated physical address (page base + offset).
    pub pa: Phys,
    /// The leaf PTE.
    pub leaf: u64,
    /// Level at which the leaf was found (1 = 4 KiB page, 2 = 2 MiB page).
    pub leaf_level: u8,
    /// Number of table loads performed (walk depth).
    pub loads: u8,
    /// AND-accumulated writable bit across all levels.
    pub writable: bool,
    /// AND-accumulated user bit across all levels.
    pub user: bool,
    /// Physical address of the PTE slot holding the leaf (for A/D updates).
    pub leaf_slot: Phys,
}

/// Errors reported by the mapping editor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// An intermediate page-table page could not be allocated.
    OutOfPtp,
    /// The slot is already mapped.
    AlreadyMapped,
    /// A huge mapping collides with an existing 4 KiB table (or vice versa).
    SizeConflict,
}

/// Stateless editor for 4-level page tables held in simulated memory.
pub struct PageTables;

impl PageTables {
    /// Allocates and zeroes a new root (PML4) table.
    ///
    /// Returns `None` if the allocator is exhausted.
    pub fn new_root(mem: &mut PhysMem, alloc: &mut dyn FnMut() -> Option<Phys>) -> Option<Phys> {
        let root = alloc()?;
        mem.zero_frame(root);
        Some(root)
    }

    /// Maps the 4 KiB page at `va` to `pa`, allocating intermediate tables.
    ///
    /// Intermediate entries are created with maximal permissions (W|U set);
    /// x86 resolves effective permissions as the AND across levels, so the
    /// leaf controls access. Leaf carries the protection key.
    pub fn map(
        mem: &mut PhysMem,
        root: Phys,
        va: Virt,
        pa: Phys,
        flags: MapFlags,
        alloc: &mut dyn FnMut() -> Option<Phys>,
    ) -> Result<(), MapError> {
        let slot = Self::ensure_table_path(mem, root, va, 1, alloc)?;
        let existing = mem.read_u64(slot);
        if pte::present(existing) {
            return Err(MapError::AlreadyMapped);
        }
        mem.write_u64(slot, pte::make(pa, flags.encode() & !pte::ADDR_MASK));
        Ok(())
    }

    /// Maps the `pages` 4 KiB pages from `va` to the frames from `pa`, as
    /// a loop of [`PageTables::map`] calls in ascending order would:
    /// missing intermediate tables are allocated in the same order, and
    /// the first already-present leaf stops the loop with
    /// [`MapError::AlreadyMapped`], leaving the pages before it mapped.
    ///
    /// The path to each leaf table is walked once, not once per page.
    pub fn map_range(
        mem: &mut PhysMem,
        root: Phys,
        va: Virt,
        pa: Phys,
        pages: u64,
        flags: MapFlags,
        alloc: &mut dyn FnMut() -> Option<Phys>,
    ) -> Result<(), MapError> {
        let bits = flags.encode() & !pte::ADDR_MASK;
        let mut done = 0;
        while done < pages {
            let va = va + done * PAGE_SIZE;
            let slot = Self::ensure_table_path(mem, root, va, 1, alloc)?;
            let run = Self::pages_left_in_table(va).min(pages - done);
            let mapped = mem.edit_slots(slot, run as usize, |i, old| {
                if pte::present(old) {
                    SlotEdit::Stop
                } else {
                    SlotEdit::Write(pte::make(pa + (done + i as u64) * PAGE_SIZE, bits))
                }
            }) as u64;
            if mapped < run {
                return Err(MapError::AlreadyMapped);
            }
            done += run;
        }
        Ok(())
    }

    /// Replaces each present 4 KiB leaf PTE of the `pages` pages from `va`
    /// with `f(old)`, walking the path to each leaf table once.
    ///
    /// Stops at the first page without a present 4 KiB leaf (a missing
    /// table, a huge mapping, or a non-present PTE) and returns its VA as
    /// the error; the pages before it have been rewritten.
    pub fn update_leaves(
        mem: &mut PhysMem,
        root: Phys,
        start: Virt,
        pages: u64,
        mut f: impl FnMut(u64) -> u64,
    ) -> Result<(), Virt> {
        let mut done = 0;
        while done < pages {
            let va = start + done * PAGE_SIZE;
            let slot = Self::leaf_table(mem, root, va).ok_or(va)? + 8 * pt_index(va, 1) as u64;
            let run = Self::pages_left_in_table(va).min(pages - done);
            let updated = mem.edit_slots(slot, run as usize, |_, old| {
                if pte::present(old) {
                    SlotEdit::Write(f(old))
                } else {
                    SlotEdit::Stop
                }
            }) as u64;
            if updated < run {
                return Err(va + updated * PAGE_SIZE);
            }
            done += run;
        }
        Ok(())
    }

    /// Rebases the present entries among the first `entries` slots of
    /// `table` that point into `from`, so they point at the same offsets
    /// from `to`, and returns how many it rewrote. Entries pointing
    /// elsewhere (host tables, other segments) are left alone.
    pub fn rebase_entries(
        mem: &mut PhysMem,
        table: Phys,
        entries: usize,
        from: Segment,
        to: Phys,
    ) -> u64 {
        let mut rewrites = 0;
        mem.edit_slots(table, entries, |_, e| {
            if pte::present(e) && from.contains(pte::addr(e)) {
                rewrites += 1;
                SlotEdit::Write((e & !pte::ADDR_MASK) | (to + (pte::addr(e) - from.start)))
            } else {
                SlotEdit::Keep
            }
        });
        rewrites
    }

    /// Number of 4 KiB pages from `va` to the end of its leaf table.
    fn pages_left_in_table(va: Virt) -> u64 {
        512 - pt_index(va, 1) as u64
    }

    /// The level-1 table translating `va`, if the path to it exists and
    /// ends in a table rather than a huge mapping.
    fn leaf_table(mem: &mut PhysMem, root: Phys, va: Virt) -> Option<Phys> {
        let mut table = root;
        for level in (2..=4u8).rev() {
            let entry = mem.read_u64(table + 8 * pt_index(va, level) as u64);
            if !pte::present(entry) || pte::huge(entry) {
                return None;
            }
            table = pte::addr(entry);
        }
        Some(table)
    }

    /// Maps a 2 MiB huge page at `va` (both `va` and `pa` 2 MiB-aligned).
    ///
    /// # Panics
    ///
    /// Panics if `va` or `pa` is not 2 MiB aligned.
    pub fn map_huge(
        mem: &mut PhysMem,
        root: Phys,
        va: Virt,
        pa: Phys,
        flags: MapFlags,
        alloc: &mut dyn FnMut() -> Option<Phys>,
    ) -> Result<(), MapError> {
        assert_eq!(va % HUGE_PAGE_SIZE, 0, "unaligned huge VA");
        assert_eq!(pa % HUGE_PAGE_SIZE, 0, "unaligned huge PA");
        let slot = Self::ensure_table_path(mem, root, va, 2, alloc)?;
        let existing = mem.read_u64(slot);
        if pte::present(existing) {
            return Err(MapError::SizeConflict);
        }
        mem.write_u64(
            slot,
            pte::make(pa, (flags.encode() | pte::PS) & !pte::ADDR_MASK),
        );
        Ok(())
    }

    /// Removes the mapping at `va`, returning the old leaf PTE if present.
    pub fn unmap(mem: &mut PhysMem, root: Phys, va: Virt) -> Option<u64> {
        let slot = Self::leaf_slot(mem, root, va)?;
        let old = mem.read_u64(slot);
        if !pte::present(old) {
            return None;
        }
        mem.write_u64(slot, 0);
        Some(old)
    }

    /// Changes the leaf PTE at `va` in place (permissions, key, address).
    ///
    /// Returns the previous value, or `None` if `va` is unmapped.
    pub fn update_leaf(mem: &mut PhysMem, root: Phys, va: Virt, new: u64) -> Option<u64> {
        let slot = Self::leaf_slot(mem, root, va)?;
        let old = mem.read_u64(slot);
        if !pte::present(old) {
            return None;
        }
        mem.write_u64(slot, new);
        Some(old)
    }

    /// Software page walk: translates `va` under `root` without privilege
    /// checks (those belong to the CPU model).
    pub fn walk(mem: &mut PhysMem, root: Phys, va: Virt) -> Result<WalkResult, WalkError> {
        let mut table = root;
        let mut writable = true;
        let mut user = true;
        for level in (1..=4u8).rev() {
            let slot = table + 8 * pt_index(va, level) as u64;
            let entry = mem.read_u64(slot);
            if !pte::present(entry) {
                return Err(WalkError::NotPresent { level });
            }
            writable &= pte::writable(entry);
            user &= pte::user(entry);
            if level == 1 || (level == 2 && pte::huge(entry)) {
                let page_mask = if level == 2 {
                    HUGE_PAGE_SIZE - 1
                } else {
                    PAGE_SIZE - 1
                };
                return Ok(WalkResult {
                    pa: pte::addr(entry) | (va & page_mask),
                    leaf: entry,
                    leaf_level: level,
                    // One PTE read per visited level: 4 at the top, so far
                    // 5 - level in total when the leaf sits at `level`.
                    loads: 5 - level,
                    writable,
                    user,
                    leaf_slot: slot,
                });
            }
            table = pte::addr(entry);
        }
        unreachable!("walk always terminates at level 1");
    }

    /// Returns the physical address of the level-1 PTE slot for `va`, if the
    /// intermediate path exists.
    pub fn leaf_slot(mem: &mut PhysMem, root: Phys, va: Virt) -> Option<Phys> {
        let mut table = root;
        for level in (2..=4u8).rev() {
            let entry = mem.read_u64(table + 8 * pt_index(va, level) as u64);
            if !pte::present(entry) {
                return None;
            }
            if level == 2 && pte::huge(entry) {
                // Huge leaf lives at level 2.
                return Some(table + 8 * pt_index(va, 2) as u64);
            }
            table = pte::addr(entry);
        }
        Some(table + 8 * pt_index(va, 1) as u64)
    }

    /// Walks down to `target_level`, allocating missing intermediate tables,
    /// and returns the slot address at that level.
    fn ensure_table_path(
        mem: &mut PhysMem,
        root: Phys,
        va: Virt,
        target_level: u8,
        alloc: &mut dyn FnMut() -> Option<Phys>,
    ) -> Result<Phys, MapError> {
        let mut table = root;
        for level in ((target_level + 1)..=4u8).rev() {
            let slot = table + 8 * pt_index(va, level) as u64;
            let entry = mem.read_u64(slot);
            if pte::present(entry) {
                if pte::huge(entry) {
                    return Err(MapError::SizeConflict);
                }
                table = pte::addr(entry);
            } else {
                let new = alloc().ok_or(MapError::OutOfPtp)?;
                mem.zero_frame(new);
                mem.write_u64(slot, pte::make(new, pte::P | pte::W | pte::U));
                table = new;
            }
        }
        Ok(table + 8 * pt_index(va, target_level) as u64)
    }

    /// Copies the top half (or any slice) of root entries between roots —
    /// used by the KSM to stamp its own mappings into per-vCPU root copies.
    pub fn copy_root_entries(
        mem: &mut PhysMem,
        src_root: Phys,
        dst_root: Phys,
        range: std::ops::Range<usize>,
    ) {
        for idx in range {
            let entry = mem.read_u64(src_root + 8 * idx as u64);
            mem.write_u64(dst_root + 8 * idx as u64, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, FrameSource) {
        (PhysMem::new(1 << 26), FrameSource { next: 0x10_0000 })
    }

    struct FrameSource {
        next: Phys,
    }

    impl FrameSource {
        fn f(&mut self) -> Option<Phys> {
            let p = self.next;
            self.next += PAGE_SIZE;
            Some(p)
        }
    }

    #[test]
    fn map_walk_roundtrip() {
        let (mut mem, mut fs) = setup();
        let root = PageTables::new_root(&mut mem, &mut || fs.f()).unwrap();
        PageTables::map(
            &mut mem,
            root,
            0x7fff_0000_1000,
            0x20_0000,
            MapFlags::user_rw().with_pkey(3),
            &mut || fs.f(),
        )
        .unwrap();
        let r = PageTables::walk(&mut mem, root, 0x7fff_0000_1abc).unwrap();
        assert_eq!(r.pa, 0x20_0abc);
        assert_eq!(pte::pkey(r.leaf), 3);
        assert_eq!(r.leaf_level, 1);
        assert_eq!(r.loads, 4);
        assert!(r.writable && r.user);
    }

    /// Frame source that logs every frame it hands out.
    struct LoggedFrames {
        next: Phys,
        log: Vec<Phys>,
    }

    impl LoggedFrames {
        fn f(&mut self) -> Option<Phys> {
            let p = self.next;
            self.next += PAGE_SIZE;
            self.log.push(p);
            Some(p)
        }
    }

    /// A root plus a frame log, with `premapped` VAs already mapped.
    fn logged_setup(premapped: &[Virt]) -> (PhysMem, Phys, LoggedFrames) {
        let mut mem = PhysMem::new(1 << 26);
        let mut fs = LoggedFrames {
            next: 0x10_0000,
            log: Vec::new(),
        };
        let root = PageTables::new_root(&mut mem, &mut || fs.f()).unwrap();
        for &va in premapped {
            PageTables::map(
                &mut mem,
                root,
                va,
                0x3f0_0000,
                MapFlags::user_rw(),
                &mut || fs.f(),
            )
            .unwrap();
        }
        (mem, root, fs)
    }

    /// Every leaf of the range, as raw PTEs (0 where unmapped).
    fn leaves(mem: &mut PhysMem, root: Phys, va: Virt, pages: u64) -> Vec<u64> {
        (0..pages)
            .map(|i| {
                PageTables::walk(mem, root, va + i * PAGE_SIZE)
                    .map(|r| r.leaf)
                    .unwrap_or(0)
            })
            .collect()
    }

    #[test]
    fn map_range_matches_per_page_map_loop() {
        // Starts 700 pages below a 1 GiB boundary (not 2 MiB-aligned) and
        // runs 1300 pages (not a multiple of 512): crosses leaf tables and
        // needs a fresh page directory half-way.
        let va = (3u64 << 30) - 700 * PAGE_SIZE;
        let pages = 1300;
        let flags = MapFlags::kernel_rw().with_pkey(5);
        let (mut m1, r1, mut f1) = logged_setup(&[]);
        PageTables::map_range(&mut m1, r1, va, 0x80_0000, pages, flags, &mut || f1.f()).unwrap();
        let (mut m2, r2, mut f2) = logged_setup(&[]);
        for i in 0..pages {
            let off = i * PAGE_SIZE;
            PageTables::map(&mut m2, r2, va + off, 0x80_0000 + off, flags, &mut || {
                f2.f()
            })
            .unwrap();
        }
        assert_eq!(f1.log, f2.log, "table frames allocated in the same order");
        assert_eq!(
            f1.log.len(),
            1 + 1 + 2 + 4,
            "root, PDPT, 2 PDs, 4 leaf tables"
        );
        for &t in &f1.log {
            for i in 0..512 {
                assert_eq!(m1.read_u64(t + 8 * i), m2.read_u64(t + 8 * i));
            }
        }
        assert_eq!(
            leaves(&mut m1, r1, va - PAGE_SIZE, pages + 2),
            leaves(&mut m2, r2, va - PAGE_SIZE, pages + 2)
        );
        let r = PageTables::walk(&mut m1, r1, va + 1299 * PAGE_SIZE).unwrap();
        assert_eq!(r.pa, 0x80_0000 + 1299 * PAGE_SIZE);
        assert_eq!(pte::pkey(r.leaf), 5);
    }

    #[test]
    fn map_range_reports_already_mapped_like_the_loop() {
        let va = 0x4000_0000 + 100 * PAGE_SIZE;
        let taken = va + 600 * PAGE_SIZE;
        let flags = MapFlags::kernel_rw();
        let (mut m1, r1, mut f1) = logged_setup(&[taken]);
        let got = PageTables::map_range(&mut m1, r1, va, 0x80_0000, 900, flags, &mut || f1.f());
        let (mut m2, r2, mut f2) = logged_setup(&[taken]);
        let want = (0..900).try_for_each(|i| {
            let off = i * PAGE_SIZE;
            PageTables::map(&mut m2, r2, va + off, 0x80_0000 + off, flags, &mut || {
                f2.f()
            })
        });
        assert_eq!(got, Err(MapError::AlreadyMapped));
        assert_eq!(got, want);
        assert_eq!(f1.log, f2.log);
        assert_eq!(leaves(&mut m1, r1, va, 900), leaves(&mut m2, r2, va, 900));
    }

    #[test]
    fn update_leaves_rewrites_each_leaf_and_stops_at_a_hole() {
        let va = 0x4000_0000 + 200 * PAGE_SIZE;
        let (mut mem, root, mut fs) = logged_setup(&[]);
        let flags = MapFlags::kernel_rw().with_pkey(2);
        PageTables::map_range(&mut mem, root, va, 0x80_0000, 700, flags, &mut || fs.f()).unwrap();
        let shift = |e: u64| (e & !pte::ADDR_MASK) | (pte::addr(e) + 0x100_0000);
        PageTables::update_leaves(&mut mem, root, va, 700, shift).unwrap();
        for i in [0, 311, 312, 699] {
            let r = PageTables::walk(&mut mem, root, va + i * PAGE_SIZE).unwrap();
            assert_eq!(r.pa, 0x180_0000 + i * PAGE_SIZE);
            assert_eq!(pte::pkey(r.leaf), 2);
        }
        let hole = va + 400 * PAGE_SIZE;
        PageTables::unmap(&mut mem, root, hole).unwrap();
        assert_eq!(
            PageTables::update_leaves(&mut mem, root, va, 700, |e| e),
            Err(hole)
        );
        // A range whose leaf table does not exist fails at its first page.
        assert_eq!(
            PageTables::update_leaves(&mut mem, root, 0x8000_0000, 1, |e| e),
            Err(0x8000_0000)
        );
    }

    #[test]
    fn unmapped_reports_level() {
        let (mut mem, mut fs) = setup();
        let root = PageTables::new_root(&mut mem, &mut || fs.f()).unwrap();
        assert_eq!(
            PageTables::walk(&mut mem, root, 0x1000),
            Err(WalkError::NotPresent { level: 4 })
        );
        PageTables::map(
            &mut mem,
            root,
            0x1000,
            0x20_0000,
            MapFlags::user_rw(),
            &mut || fs.f(),
        )
        .unwrap();
        assert_eq!(
            PageTables::walk(&mut mem, root, 0x2000),
            Err(WalkError::NotPresent { level: 1 })
        );
    }

    #[test]
    fn double_map_rejected() {
        let (mut mem, mut fs) = setup();
        let root = PageTables::new_root(&mut mem, &mut || fs.f()).unwrap();
        PageTables::map(
            &mut mem,
            root,
            0x1000,
            0x20_0000,
            MapFlags::user_rw(),
            &mut || fs.f(),
        )
        .unwrap();
        assert_eq!(
            PageTables::map(
                &mut mem,
                root,
                0x1000,
                0x30_0000,
                MapFlags::user_rw(),
                &mut || fs.f()
            ),
            Err(MapError::AlreadyMapped)
        );
    }

    #[test]
    fn huge_page_walk() {
        let (mut mem, mut fs) = setup();
        let root = PageTables::new_root(&mut mem, &mut || fs.f()).unwrap();
        PageTables::map_huge(
            &mut mem,
            root,
            0x4000_0000,
            0x20_0000,
            MapFlags::user_rw(),
            &mut || fs.f(),
        )
        .unwrap();
        let r = PageTables::walk(&mut mem, root, 0x4000_0000 + 0x12_3456).unwrap();
        assert_eq!(r.pa, 0x20_0000 + 0x12_3456);
        assert_eq!(r.leaf_level, 2);
        assert_eq!(r.loads, 3);
    }

    #[test]
    fn unmap_then_walk_fails() {
        let (mut mem, mut fs) = setup();
        let root = PageTables::new_root(&mut mem, &mut || fs.f()).unwrap();
        PageTables::map(
            &mut mem,
            root,
            0x5000,
            0x20_0000,
            MapFlags::kernel_rw(),
            &mut || fs.f(),
        )
        .unwrap();
        let old = PageTables::unmap(&mut mem, root, 0x5000).unwrap();
        assert_eq!(pte::addr(old), 0x20_0000);
        assert!(PageTables::walk(&mut mem, root, 0x5000).is_err());
        assert!(PageTables::unmap(&mut mem, root, 0x5000).is_none());
    }

    #[test]
    fn effective_permissions_and_across_levels() {
        let (mut mem, mut fs) = setup();
        let root = PageTables::new_root(&mut mem, &mut || fs.f()).unwrap();
        PageTables::map(
            &mut mem,
            root,
            0x9000,
            0x20_0000,
            MapFlags::user_rw().with_write(false),
            &mut || fs.f(),
        )
        .unwrap();
        let r = PageTables::walk(&mut mem, root, 0x9000).unwrap();
        assert!(!r.writable);
        assert!(r.user);
    }

    #[test]
    fn update_leaf_changes_key() {
        let (mut mem, mut fs) = setup();
        let root = PageTables::new_root(&mut mem, &mut || fs.f()).unwrap();
        PageTables::map(
            &mut mem,
            root,
            0x9000,
            0x20_0000,
            MapFlags::user_rw(),
            &mut || fs.f(),
        )
        .unwrap();
        let leaf = PageTables::walk(&mut mem, root, 0x9000).unwrap().leaf;
        PageTables::update_leaf(&mut mem, root, 0x9000, pte::with_pkey(leaf, 9)).unwrap();
        let r = PageTables::walk(&mut mem, root, 0x9000).unwrap();
        assert_eq!(pte::pkey(r.leaf), 9);
    }

    #[test]
    fn copy_root_entries_clones_mappings() {
        let (mut mem, mut fs) = setup();
        let root_a = PageTables::new_root(&mut mem, &mut || fs.f()).unwrap();
        let root_b = PageTables::new_root(&mut mem, &mut || fs.f()).unwrap();
        // Map in the top half of A (root index 256+).
        let high_va = 0xffff_8000_0000_0000u64;
        // Note: we only use canonical-low bits for indexing; use bit pattern
        // that lands in root slot 256.
        let va = 256u64 << 39;
        PageTables::map(
            &mut mem,
            root_a,
            va,
            0x20_0000,
            MapFlags::kernel_rw(),
            &mut || fs.f(),
        )
        .unwrap();
        let _ = high_va;
        PageTables::copy_root_entries(&mut mem, root_a, root_b, 256..512);
        let r = PageTables::walk(&mut mem, root_b, va).unwrap();
        assert_eq!(r.pa, 0x20_0000);
    }
}
