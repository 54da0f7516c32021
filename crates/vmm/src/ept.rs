//! Extended page tables: the second translation stage of HVM.
//!
//! A real 4-level table in simulated host memory maps guest-physical to
//! host-physical addresses. It is populated lazily, so first-touch accesses
//! raise EPT violations with their full handling cost — the "EPT fault"
//! component of Figure 10a. With `huge_pages`, stage-2 mappings are 2 MiB,
//! amortizing the fault cost 512× (the Figure 12 "2M" configurations).
//!
//! The table maps one linear window: a mapped gPA always translates to
//! `base + gpa`. A translation therefore only decides whether the gPA is
//! mapped, and a presence bitmap (one bit per 4 KiB gfn) answers that
//! without reading the table. The bitmap is an index of the table, kept by
//! the table's only writers, [`Ept::map_gpa`] and [`Ept::reset`]. The table
//! stays: its frames are part of the host's footprint and allocation
//! order, and the CPU walk charges `stage2_load` per step whatever the
//! lookup reads, so no simulated cost depends on how presence is found.

use sim_hw::cpu::Stage2;
use sim_hw::{Clock, Fault, Machine};
use sim_mem::addr::HUGE_PAGE_SIZE;
use sim_mem::{MapFlags, PageTables, Phys, PhysMem, PAGE_SIZE};

/// The EPT for one VM.
///
/// VM memory is backed by one contiguous host window (`gPA = hPA - base`);
/// the table maps gPAs inside it lazily, and `present` mirrors which.
#[derive(Debug)]
pub struct Ept {
    root: Phys,
    /// Bit `gfn` is set iff a walk of the table finds that 4 KiB gfn of
    /// the window mapped.
    present: Vec<u64>,
    /// Host base of the VM memory window.
    pub base: Phys,
    /// VM memory size in bytes.
    pub size: u64,
    /// Map 2 MiB stage-2 pages instead of 4 KiB.
    pub huge_pages: bool,
    /// EPT violations taken.
    pub violations: u64,
    /// Stage-2 mappings established.
    pub mappings: u64,
}

impl Ept {
    /// Creates an empty EPT over the window `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if the machine cannot allocate the root table.
    pub fn new(m: &mut Machine, base: Phys, size: u64) -> Self {
        let Machine { mem, frames, .. } = m;
        let root = PageTables::new_root(mem, &mut || frames.alloc()).expect("EPT root");
        Self {
            root,
            present: vec![0; size.div_ceil(PAGE_SIZE).div_ceil(64) as usize],
            base,
            size,
            huge_pages: false,
            violations: 0,
            mappings: 0,
        }
    }

    /// Enables 2 MiB stage-2 mappings.
    pub fn with_huge_pages(mut self, on: bool) -> Self {
        self.huge_pages = on;
        self
    }

    /// The stage-2 root table.
    pub fn root(&self) -> Phys {
        self.root
    }

    /// The mapped 4 KiB gfns of the window, ascending, as the presence
    /// bitmap records them.
    pub fn present_gfns(&self) -> impl Iterator<Item = u64> + '_ {
        self.present.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                let b = rest.trailing_zeros();
                rest &= rest.wrapping_sub(1);
                (b < 64).then_some(w as u64 * 64 + u64::from(b))
            })
        })
    }

    /// Software gPA→hPA shortcut for trusted simulation code.
    ///
    /// # Panics
    ///
    /// Panics if `gpa` is outside the VM window.
    pub fn sw_translate(&self, gpa: Phys) -> Phys {
        assert!(
            gpa < self.size,
            "gPA {gpa:#x} outside VM of {:#x} bytes",
            self.size
        );
        self.base + gpa
    }

    /// Establishes the stage-2 mapping covering `gpa` (4 KiB or 2 MiB).
    ///
    /// Returns `false` if it mapped nothing: the mapping was already there
    /// (spurious fault), the table could not grow, or `gpa` lies past the
    /// window, where `base + gpa` is host memory outside the VM.
    pub fn map_gpa(&mut self, m: &mut Machine, gpa: Phys) -> bool {
        if gpa >= self.size {
            return false;
        }
        let flags = MapFlags {
            write: true,
            user: true,
            nx: false,
            global: false,
            pkey: 0,
        };
        let len = if self.huge_pages {
            HUGE_PAGE_SIZE
        } else {
            PAGE_SIZE
        };
        let map = if self.huge_pages {
            PageTables::map_huge
        } else {
            PageTables::map
        };
        let g = gpa & !(len - 1);
        let Machine { mem, frames, .. } = m;
        let mapped = map(mem, self.root, g, self.base + g, flags, &mut || {
            frames.alloc()
        });
        if mapped.is_err() {
            return false;
        }
        self.mappings += 1;
        // A huge mapping may run past the end of a window that is not a
        // whole number of 2 MiB pages; only gfns inside it are tracked.
        for gfn in g / PAGE_SIZE..(g + len).min(self.size).div_ceil(PAGE_SIZE) {
            self.present[(gfn / 64) as usize] |= 1 << (gfn % 64);
        }
        true
    }

    /// Removes all stage-2 mappings (used by tests and VM teardown).
    pub fn reset(&mut self, m: &mut Machine) {
        guest_os::platform::free_table_recursive(m, self.root, 4);
        let Machine { mem, frames, .. } = m;
        self.root = PageTables::new_root(mem, &mut || frames.alloc()).expect("EPT root");
        self.present.fill(0);
        self.mappings = 0;
    }
}

impl Stage2 for Ept {
    /// A bounds check and a bit test. The per-level cost is charged by the
    /// CPU walk (`stage2_load`), modelling paging-structure caches.
    fn translate(
        &mut self,
        _mem: &mut PhysMem,
        gpa: Phys,
        write: bool,
        _clock: &mut Clock,
    ) -> Result<Phys, Fault> {
        let gfn = gpa / PAGE_SIZE;
        if gpa < self.size && self.present[(gfn / 64) as usize] & (1 << (gfn % 64)) != 0 {
            Ok(self.base + gpa)
        } else {
            self.violations += 1;
            Err(Fault::EptViolation { gpa, write })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_hw::HwExtensions;

    fn machine() -> Machine {
        Machine::new(512 * 1024 * 1024, HwExtensions::baseline())
    }

    #[test]
    fn violation_then_mapping() {
        let mut m = machine();
        let mut ept = Ept::new(&mut m, 0x800_0000, 64 * 1024 * 1024);
        let mut clock = Clock::default();
        let err = ept
            .translate(&mut m.mem, 0x1000, false, &mut clock)
            .unwrap_err();
        assert!(matches!(err, Fault::EptViolation { gpa: 0x1000, .. }));
        assert!(ept.map_gpa(&mut m, 0x1000));
        let pa = ept
            .translate(&mut m.mem, 0x1234, false, &mut clock)
            .unwrap();
        assert_eq!(pa, 0x800_0000 + 0x1234);
        assert_eq!(ept.violations, 1);
    }

    #[test]
    fn huge_mapping_covers_2mib() {
        let mut m = machine();
        let mut ept = Ept::new(&mut m, 0x800_0000, 64 * 1024 * 1024).with_huge_pages(true);
        assert!(ept.map_gpa(&mut m, 0x30_1000));
        let mut clock = Clock::default();
        // The whole 2 MiB region around 0x30_1000 translates now.
        let lo = 0x20_0000u64;
        for off in [0u64, 0x1000, 0x1f_f000] {
            let pa = ept
                .translate(&mut m.mem, lo + off, false, &mut clock)
                .unwrap();
            assert_eq!(pa, 0x800_0000 + lo + off);
        }
        // Next 2 MiB still faults.
        assert!(ept
            .translate(&mut m.mem, 0x40_0000, false, &mut clock)
            .is_err());
    }

    #[test]
    fn double_map_is_spurious() {
        let mut m = machine();
        let mut ept = Ept::new(&mut m, 0x800_0000, 64 * 1024 * 1024);
        assert!(ept.map_gpa(&mut m, 0x5000));
        assert!(!ept.map_gpa(&mut m, 0x5000));
        assert_eq!(ept.mappings, 1);
    }

    /// The gfns a walk of the stage-2 table finds mapped, ascending.
    fn walked_gfns(m: &mut Machine, ept: &Ept) -> Vec<u64> {
        (0..ept.size / PAGE_SIZE)
            .filter(|&gfn| PageTables::walk(&mut m.mem, ept.root(), gfn * PAGE_SIZE).is_ok())
            .collect()
    }

    #[test]
    fn huge_mapping_sets_exactly_its_512_bits() {
        let mut m = machine();
        let mut ept = Ept::new(&mut m, 0x800_0000, 8 * 1024 * 1024).with_huge_pages(true);
        assert!(ept.map_gpa(&mut m, 0x30_1000));
        let gfns: Vec<u64> = ept.present_gfns().collect();
        assert_eq!(gfns, (0x200..0x400).collect::<Vec<u64>>());
        assert_eq!(gfns, walked_gfns(&mut m, &ept));
        // A 4 KiB mapping next to it sets one more bit.
        ept.huge_pages = false;
        assert!(ept.map_gpa(&mut m, 0x50_0fff));
        assert_eq!(ept.present_gfns().count(), 513);
        assert_eq!(ept.present_gfns().last(), Some(0x500));
        assert_eq!(
            ept.present_gfns().collect::<Vec<_>>(),
            walked_gfns(&mut m, &ept)
        );
    }

    #[test]
    fn reset_clears_every_bit() {
        let mut m = machine();
        let mut ept = Ept::new(&mut m, 0x800_0000, 8 * 1024 * 1024).with_huge_pages(true);
        assert!(ept.map_gpa(&mut m, 0));
        assert!(ept.map_gpa(&mut m, 0x60_0000));
        ept.reset(&mut m);
        assert_eq!(ept.present_gfns().count(), 0);
        assert!(walked_gfns(&mut m, &ept).is_empty());
        let mut clock = Clock::default();
        assert!(ept
            .translate(&mut m.mem, 0x1000, false, &mut clock)
            .is_err());
        // The emptied table maps again.
        assert!(ept.map_gpa(&mut m, 0x1000));
        assert_eq!(ept.present_gfns().count(), 512);
    }

    #[test]
    fn gpa_past_the_window_is_never_mapped() {
        let mut m = machine();
        for huge in [false, true] {
            let size = 4 * 1024 * 1024;
            let mut ept = Ept::new(&mut m, 0x800_0000, size).with_huge_pages(huge);
            let mut clock = Clock::default();
            for gpa in [size, size + 0x1000, 0x1000_0000, 1 << 40] {
                assert!(!ept.map_gpa(&mut m, gpa), "gPA {gpa:#x} mapped");
                let err = ept.translate(&mut m.mem, gpa, true, &mut clock);
                assert_eq!(err, Err(Fault::EptViolation { gpa, write: true }));
            }
            assert_eq!(ept.mappings, 0);
            assert_eq!(ept.present_gfns().count(), 0);
            assert!(walked_gfns(&mut m, &ept).is_empty());
            // The last page of the window still maps.
            assert!(ept.map_gpa(&mut m, size - 1));
            let pa = ept.translate(&mut m.mem, size - 8, false, &mut clock);
            assert_eq!(pa, Ok(0x800_0000 + size - 8));
        }
    }

    #[test]
    #[should_panic(expected = "outside VM")]
    fn sw_translate_bounds() {
        let mut m = machine();
        let ept = Ept::new(&mut m, 0x800_0000, 1024 * 1024);
        ept.sw_translate(2 * 1024 * 1024);
    }
}
