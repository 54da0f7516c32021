//! Hardware-assisted virtualization (the Kata Containers baseline).
//!
//! The guest kernel runs privileged inside the VM: syscalls, page faults,
//! and CR3 loads are native. What costs extra is *translation*: guest page
//! tables hold guest-physical pointers, so every hardware walk consults the
//! EPT per level (2-D walk), and first-touch accesses raise EPT violations
//! whose handling requires VM exits — 2.1 µs bare-metal, and 30.9 µs nested
//! where the L0 hypervisor must emulate a shadow EPT (Figure 10a, §2.4.1).

use guest_os::platform::{MapFault, Platform};
use netsim::exits::NESTED_HOP;
use netsim::{ExitCosts, NicBackendKind};
use obs::CounterId;
use sim_hw::{cost, Fault, Machine, Tag};
use sim_mem::addr::pt_index;
use sim_mem::{pte, FrameAllocator, MapFlags, Phys, Virt, PAGE_SIZE};

use crate::ept::Ept;

/// Dense registry ids for the HVM hot-path counters.
struct HvmCounterIds {
    vm_exits: CounterId,
    ept_faults: CounterId,
    hypercalls: CounterId,
}

/// The HVM platform: one VM with an EPT, optionally nested.
pub struct HvmPlatform {
    /// Running inside an L1 VM (nested cloud)?
    pub nested: bool,
    ept: Ept,
    guest_frames: FrameAllocator,
    exits: ExitCosts,
    pcid: u16,
    ids: HvmCounterIds,
}

impl HvmPlatform {
    /// Creates an HVM VM of `vm_size` bytes backed by a contiguous host
    /// window carved from the machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine cannot back the VM.
    pub fn new(m: &mut Machine, vm_size: u64, nested: bool) -> Self {
        // Carve the backing window from the host allocator.
        let base = m
            .frames
            .alloc_contiguous(vm_size / PAGE_SIZE)
            .expect("backing for VM");
        let exits = if nested {
            ExitCosts::HVM_NESTED
        } else {
            ExitCosts::HVM_BM
        };
        let label = if nested { "hvm-nst" } else { "hvm" };
        let ids = HvmCounterIds {
            vm_exits: m.cpu.metrics.counter_labeled("vmm.vm_exits", Some(label)),
            ept_faults: m.cpu.metrics.counter_labeled("vmm.ept_faults", Some(label)),
            hypercalls: m.cpu.metrics.counter_labeled("vmm.hypercalls", Some(label)),
        };
        Self {
            nested,
            ept: Ept::new(m, base, vm_size),
            guest_frames: FrameAllocator::new(0, vm_size),
            exits,
            pcid: 1,
            ids,
        }
    }

    /// Enables 2 MiB stage-2 mappings (the Figure 12 "2M" configuration).
    pub fn with_huge_ept(mut self, on: bool) -> Self {
        self.ept = self.ept.with_huge_pages(on);
        self
    }

    /// The EPT (diagnostics).
    pub fn ept(&self) -> &Ept {
        &self.ept
    }

    /// Takes the VM exit for an EPT violation at `gpa` and maps it.
    /// Returns whether a mapping was made. The exit is charged either
    /// way; a gPA past the VM window is never mapped.
    fn handle_ept_fault(&mut self, m: &mut Machine, gpa: Phys) -> bool {
        m.cpu.metrics.inc(self.ids.ept_faults);
        m.cpu.metrics.inc(self.ids.vm_exits);
        let sp = m.cpu.span_enter("vmm.vmexit");
        let (exit, work_tag, work_span, work) = if self.nested {
            // L2 EPT violation: L0 intercepts, bounces to L1, which updates
            // its virtual EPT; L0 then rebuilds the shadow EPT — several
            // L0-mediated transitions plus emulation (32.5 µs total path).
            (
                4 * NESTED_HOP,
                Tag::SptEmul,
                "vmm.sept_work",
                cost::SEPT_EMULATION_WORK,
            )
        } else {
            (
                cost::VM_EXIT + cost::VM_ENTRY,
                Tag::EptFault,
                "vmm.ept_work",
                cost::EPT_VIOLATION_WORK,
            )
        };
        m.cpu.clock.charge(Tag::VmExit, exit);
        let w = m.cpu.span_enter(work_span);
        m.cpu.clock.charge(work_tag, work);
        m.cpu.span_exit(w);
        let mapped = self.ept.map_gpa(m, gpa);
        m.cpu.span_exit(sp);
        mapped
    }

    /// Walks the guest page table (whose pointers are gPAs) in software.
    fn guest_leaf_slot(&self, m: &mut Machine, root_gpa: Phys, va: Virt) -> Option<Phys> {
        let mut table = root_gpa;
        for level in (2..=4u8).rev() {
            let slot_hpa = self.ept.sw_translate(table) + 8 * pt_index(va, level) as u64;
            let entry = m.mem.read_u64(slot_hpa);
            if !pte::present(entry) {
                return None;
            }
            table = pte::addr(entry);
        }
        Some(self.ept.sw_translate(table) + 8 * pt_index(va, 1) as u64)
    }

    /// Ensures intermediate guest tables exist down to level 1 for `va`.
    fn guest_ensure_path(
        &mut self,
        m: &mut Machine,
        root_gpa: Phys,
        va: Virt,
    ) -> Result<Phys, MapFault> {
        let mut table = root_gpa;
        for level in (2..=4u8).rev() {
            let slot_hpa = self.ept.sw_translate(table) + 8 * pt_index(va, level) as u64;
            let entry = m.mem.read_u64(slot_hpa);
            if pte::present(entry) {
                table = pte::addr(entry);
            } else {
                let new_gpa = self.guest_frames.alloc().ok_or(MapFault::OutOfMemory)?;
                let new_hpa = self.ept.sw_translate(new_gpa);
                m.mem.zero_frame(new_hpa);
                m.mem
                    .write_u64(slot_hpa, pte::make(new_gpa, pte::P | pte::W | pte::U));
                table = new_gpa;
            }
        }
        Ok(self.ept.sw_translate(table) + 8 * pt_index(va, 1) as u64)
    }

    fn guest_free_table(&mut self, m: &mut Machine, table_gpa: Phys, level: u8) {
        if level > 1 {
            for idx in 0..512u64 {
                let entry = m.mem.read_u64(self.ept.sw_translate(table_gpa) + 8 * idx);
                if pte::present(entry) && !pte::huge(entry) {
                    self.guest_free_table(m, pte::addr(entry), level - 1);
                }
            }
        }
        let hpa = self.ept.sw_translate(table_gpa);
        m.mem.zero_frame(hpa);
        self.guest_frames.free(table_gpa);
    }
}

impl Platform for HvmPlatform {
    fn name(&self) -> &'static str {
        if self.nested {
            "hvm-nst"
        } else {
            "hvm"
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn alloc_frame(&mut self, m: &mut Machine) -> Option<Phys> {
        m.cpu.clock.charge(Tag::Handler, cost::FRAME_ALLOC);
        self.guest_frames.alloc()
    }

    fn free_frame(&mut self, _m: &mut Machine, pa: Phys) {
        self.guest_frames.free(pa);
    }

    fn gpa_to_hpa(&mut self, _m: &mut Machine, gpa: Phys) -> Phys {
        self.ept.sw_translate(gpa)
    }

    fn new_root(&mut self, m: &mut Machine) -> Result<Phys, MapFault> {
        m.cpu.clock.charge(Tag::Handler, cost::FRAME_ALLOC);
        let gpa = self.guest_frames.alloc().ok_or(MapFault::OutOfMemory)?;
        let hpa = self.ept.sw_translate(gpa);
        m.mem.zero_frame(hpa);
        Ok(gpa)
    }

    fn destroy_root(&mut self, m: &mut Machine, root: Phys) {
        self.guest_free_table(m, root, 4);
    }

    fn map_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        pa: Phys,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        // Privileged guest: a direct PTE store, no exit (the EPT makes
        // guest page tables freely writable — §2.4.1).
        m.cpu.clock.charge(Tag::Handler, cost::PTE_WRITE);
        let slot = self.guest_ensure_path(m, root, va)?;
        let existing = m.mem.read_u64(slot);
        if pte::present(existing) {
            return Err(MapFault::Rejected("already mapped"));
        }
        m.mem
            .write_u64(slot, pte::make(pa, flags.encode() & !pte::ADDR_MASK));
        Ok(())
    }

    fn unmap_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
    ) -> Result<Option<u64>, MapFault> {
        m.cpu.clock.charge(Tag::Handler, cost::PTE_WRITE);
        let Some(slot) = self.guest_leaf_slot(m, root, va) else {
            return Ok(None);
        };
        let old = m.mem.read_u64(slot);
        if !pte::present(old) {
            return Ok(None);
        }
        m.mem.write_u64(slot, 0);
        m.cpu.tlb.flush_va(va, self.pcid);
        Ok(Some(old))
    }

    fn protect_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        m.cpu.clock.charge(Tag::Handler, cost::PTE_WRITE);
        let slot = self
            .guest_leaf_slot(m, root, va)
            .ok_or(MapFault::Rejected("protect of unmapped page"))?;
        let old = m.mem.read_u64(slot);
        if !pte::present(old) {
            return Err(MapFault::Rejected("protect of unmapped page"));
        }
        m.mem.write_u64(
            slot,
            pte::make(pte::addr(old), flags.encode() & !pte::ADDR_MASK),
        );
        m.cpu.tlb.flush_va(va, self.pcid);
        Ok(())
    }

    fn read_pte(&mut self, m: &mut Machine, root: Phys, va: Virt) -> Option<u64> {
        let slot = self.guest_leaf_slot(m, root, va)?;
        let e = m.mem.read_u64(slot);
        pte::present(e).then_some(e)
    }

    fn load_root(&mut self, m: &mut Machine, root: Phys) -> Result<(), MapFault> {
        // `mov cr3` does not exit under EPT; same-PCID switches flush.
        m.cpu.clock.charge(Tag::Sched, cost::CR3_SWITCH);
        m.cpu.set_cr3(root, self.pcid, false);
        Ok(())
    }

    fn user_access(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        write: bool,
    ) -> Result<(), Fault> {
        debug_assert_eq!(m.cpu.cr3_root(), root);
        let access = if write {
            sim_hw::Access::Write
        } else {
            sim_hw::Access::Read
        };
        loop {
            let prev = m.cpu.mode;
            m.cpu.mode = sim_hw::Mode::User;
            let Machine { cpu, mem, .. } = m;
            let r = cpu.mem_access(mem, va, access, Some(&mut self.ept));
            m.cpu.mode = prev;
            match r {
                Ok(_) => return Ok(()),
                Err(f @ Fault::EptViolation { gpa, .. }) => {
                    if !self.handle_ept_fault(m, gpa) {
                        return Err(f);
                    }
                }
                Err(f) => return Err(f),
            }
        }
    }

    fn timer_tick(&mut self, m: &mut Machine) {
        // The virtual APIC timer: delivery is cheap with APICv, but
        // re-arming (TSC-deadline wrmsr) exits — and in a nested cloud the
        // exit is L0-mediated.
        m.cpu.metrics.inc(self.ids.vm_exits);
        m.cpu
            .clock
            .charge(Tag::Sched, cost::EXCEPTION_ENTRY + 300 + cost::IRET);
        m.cpu.clock.charge(Tag::VmExit, self.exits.roundtrip);
    }

    fn hypercall(&mut self, m: &mut Machine) {
        m.cpu.metrics.inc(self.ids.hypercalls);
        m.cpu.metrics.inc(self.ids.vm_exits);
        let sp = m.cpu.span_enter("vmm.vmexit");
        m.cpu.clock.charge(Tag::VmExit, self.exits.roundtrip);
        m.cpu.span_exit(sp);
    }

    fn device_kind(&self) -> NicBackendKind {
        if self.nested {
            NicBackendKind::HvmNested
        } else {
            NicBackendKind::HvmBm
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::{Kernel, Sys};
    use sim_hw::HwExtensions;

    fn boot(nested: bool) -> (Kernel, Machine) {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let p = HvmPlatform::new(&mut m, 256 * 1024 * 1024, nested);
        let k = Kernel::boot(Box::new(p), &mut m);
        (k, m)
    }

    #[test]
    fn hvm_syscall_is_native_speed() {
        let (mut k, mut m) = boot(false);
        let mark = m.cpu.clock.mark();
        k.syscall(&mut m, Sys::Getpid).unwrap();
        let ns = m.cpu.clock.since_ns(mark);
        assert!(
            (80.0..110.0).contains(&ns),
            "HVM getpid = {ns} ns (Table 2: 91 ns)"
        );
    }

    #[test]
    fn hvm_bm_pgfault_costs_3us() {
        let (mut k, mut m) = boot(false);
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 512 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        let mark = m.cpu.clock.mark();
        k.touch_range(&mut m, base, 512 * PAGE_SIZE, true).unwrap();
        let per = m.cpu.clock.since_ns(mark) / 512.0;
        assert!(
            (2500.0..4500.0).contains(&per),
            "HVM-BM pgfault = {per} ns (Figure 10a: 3 257 ns)"
        );
    }

    #[test]
    fn hvm_nst_pgfault_costs_30us() {
        let (mut k, mut m) = boot(true);
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 256 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        let mark = m.cpu.clock.mark();
        k.touch_range(&mut m, base, 256 * PAGE_SIZE, true).unwrap();
        let per = m.cpu.clock.since_ns(mark) / 256.0;
        assert!(
            (26_000.0..40_000.0).contains(&per),
            "HVM-NST pgfault = {per} ns (Figure 10a: 32 565 ns)"
        );
    }

    #[test]
    fn nested_hypercall_costs_6_7us() {
        let (mut k, mut m) = boot(true);
        let mark = m.cpu.clock.mark();
        k.platform.hypercall(&mut m);
        let ns = m.cpu.clock.since_ns(mark);
        assert!((6000.0..7400.0).contains(&ns), "nested hypercall = {ns} ns");
    }

    #[test]
    fn second_touch_takes_no_ept_fault() {
        let (mut k, mut m) = boot(false);
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 4 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        k.touch_range(&mut m, base, 4 * PAGE_SIZE, true).unwrap();
        // The touch faults include guest-table EPT faults; capture then re-touch.
        let ept_faults = |m: &Machine| m.cpu.metrics.value_of("vmm.ept_faults", Some("hvm"));
        let faults = ept_faults(&m);
        k.touch_range(&mut m, base, 4 * PAGE_SIZE, true).unwrap();
        assert_eq!(ept_faults(&m), faults, "warm accesses take no EPT faults");
    }

    #[test]
    fn a_2d_walk_reads_only_the_guest_tables() {
        // The EPT answers presence from its bitmap: a TLB miss reads the
        // four guest PTEs from memory, not 4 + 5 × 4 with stage-2 walks.
        let (mut k, mut m) = boot(false);
        let va = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        k.touch(&mut m, va, true).unwrap();
        m.cpu.tlb.flush_all();
        let (reads, walks) = (m.mem.read_count(), m.cpu.page_walks());
        k.touch(&mut m, va, false).unwrap();
        assert_eq!(m.cpu.page_walks() - walks, 1);
        assert_eq!(m.mem.read_count() - reads, 4);
    }

    #[test]
    fn huge_ept_amortizes_faults() {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let p = HvmPlatform::new(&mut m, 256 * 1024 * 1024, false).with_huge_ept(true);
        let mut k = Kernel::boot(Box::new(p), &mut m);
        let pages = 1024u64;
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: pages * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        k.touch_range(&mut m, base, pages * PAGE_SIZE, true)
            .unwrap();
        let faults = m.cpu.metrics.value_of("vmm.ept_faults", Some("hvm"));
        assert!(
            faults < pages / 8,
            "2M EPT: {faults} faults for {pages} pages"
        );
    }
}
