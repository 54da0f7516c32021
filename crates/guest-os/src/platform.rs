//! The privileged-operation interface between the guest kernel and its
//! platform.
//!
//! The same guest kernel (this crate) runs under six platforms, mirroring
//! the paper's comparison targets and the rest of its design space:
//!
//! - **Native** (RunC, [`NativePlatform`]): the kernel *is* the host kernel;
//!   privileged operations execute directly.
//! - **HVM** (`vmm::hvm`): privileged operations execute directly inside the
//!   VM, but memory accesses go through EPT (and, nested, shadow EPT).
//! - **PVM** (`vmm::pvm`): the kernel is deprivileged to user mode; page
//!   table updates go through shadow-paging emulation and syscalls are
//!   redirected by the host.
//! - **CKI** (`cki-core`): the kernel runs deprivileged *inside kernel mode*
//!   via PKS; private privileged operations become KSM calls through a PKS
//!   gate and global ones become hypercalls (paper §3.3).
//! - **gVisor** (`vmm::designspace`): syscalls are intercepted and served
//!   by a user-space Sentry; the host handles page faults.
//! - **LibOS** (`vmm::designspace`): syscalls are function calls into a
//!   library kernel with no user/kernel split and no fork.
//!
//! This trait is exactly the set of operations the paper identifies as the
//! performance-relevant interface (Figure 6): PTE updates, CR3 loads, iret,
//! syscall/fault entry-exit, and host services (hypercalls). Its default
//! method bodies are the native path, and the `host_*` functions are the
//! native page-table edits; each platform overrides only the operations
//! whose cost or mechanism differs from it.

use sim_hw::{Fault, Machine, Tag};
use sim_mem::{MapFlags, PageTables, Phys, Virt};

/// Errors from platform mapping operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapFault {
    /// Guest physical memory exhausted.
    OutOfMemory,
    /// The security monitor rejected the update (CKI: KSM validation).
    Rejected(&'static str),
    /// An architectural fault occurred while performing the operation.
    Arch(Fault),
}

impl std::fmt::Display for MapFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapFault::OutOfMemory => write!(f, "out of guest memory"),
            MapFault::Rejected(why) => write!(f, "monitor rejected update: {why}"),
            MapFault::Arch(fault) => write!(f, "architectural fault: {fault}"),
        }
    }
}

impl std::error::Error for MapFault {}

/// The privileged-operation interface (see module docs).
///
/// All methods take the [`Machine`] explicitly: the platform object holds
/// backend state (EPT, shadow tables, KSM handles) but never owns the
/// machine, so one machine can host many containers.
pub trait Platform {
    /// Short name for reports ("runc", "hvm", "pvm", "cki", "gvisor", "libos").
    fn name(&self) -> &'static str;

    /// Downcasting hook so harnesses can reach backend-specific statistics.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcasting hook.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Whether the platform supports multi-processing (libOS containers do
    /// not — the paper's Table 1 compatibility column).
    fn supports_fork(&self) -> bool {
        true
    }

    // --- Guest physical memory -------------------------------------------------

    /// Allocates one guest-physical data frame. The default takes a frame
    /// from the machine allocator.
    fn alloc_frame(&mut self, m: &mut Machine) -> Option<Phys> {
        let c = m.cpu.clock.model().frame_alloc;
        m.cpu.clock.charge(Tag::Handler, c);
        m.frames.alloc()
    }

    /// Frees a guest-physical data frame.
    fn free_frame(&mut self, m: &mut Machine, pa: Phys) {
        m.frames.free(pa);
    }

    /// Translates guest-physical to host-physical for *software* access by
    /// trusted simulation code (no architectural cost; the architectural
    /// path is [`Platform::user_access`]). The default is the identity:
    /// the guest sees host-physical addresses.
    fn gpa_to_hpa(&mut self, _m: &mut Machine, gpa: Phys) -> Phys {
        gpa
    }

    // --- Page-table management --------------------------------------------------

    /// Creates a new address-space root for a guest process.
    fn new_root(&mut self, m: &mut Machine) -> Result<Phys, MapFault>;

    /// Tears down an address-space root and its intermediate tables.
    /// Leaf data frames must already have been unmapped by the caller.
    fn destroy_root(&mut self, m: &mut Machine, root: Phys) {
        free_table_recursive(m, root, 4);
    }

    /// Maps the 4 KiB page `pa` at `va` under `root`, allocating (and under
    /// CKI, declaring) intermediate page-table pages as needed.
    fn map_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        pa: Phys,
        flags: MapFlags,
    ) -> Result<(), MapFault>;

    /// Maps a batch of pages under one root. The default loops over
    /// [`Platform::map_page`]; platforms with gate costs (CKI) override it
    /// to amortize one crossing over the whole batch (fork, execve).
    fn map_pages(
        &mut self,
        m: &mut Machine,
        root: Phys,
        pages: &[(Virt, Phys, MapFlags)],
    ) -> Result<(), MapFault> {
        for &(va, pa, flags) in pages {
            self.map_page(m, root, va, pa, flags)?;
        }
        Ok(())
    }

    /// Removes the mapping at `va`; returns the old leaf PTE if one existed.
    fn unmap_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
    ) -> Result<Option<u64>, MapFault>;

    /// Rewrites the leaf PTE at `va` (permission changes, COW breaks).
    fn protect_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        flags: MapFlags,
    ) -> Result<(), MapFault>;

    /// Reads the leaf PTE at `va`, or `None` if unmapped.
    fn read_pte(&mut self, m: &mut Machine, root: Phys, va: Virt) -> Option<u64> {
        PageTables::walk(&mut m.mem, root, va).ok().map(|w| w.leaf)
    }

    // --- Control flow -----------------------------------------------------------

    /// Switches the active address space to `root` (process context switch).
    fn load_root(&mut self, m: &mut Machine, root: Phys) -> Result<(), MapFault>;

    /// Charges the syscall entry path (user → guest kernel) and performs the
    /// architectural mode switch. The default is `syscall` plus `swapgs`.
    fn syscall_entry(&mut self, m: &mut Machine) {
        if m.cpu.mode == sim_hw::Mode::User {
            let _ = m.cpu.syscall_entry();
        }
        let c = m.cpu.clock.model().swapgs;
        m.cpu.clock.charge(Tag::SyscallPath, c);
    }

    /// Charges the syscall exit path (guest kernel → user). The default is
    /// `swapgs` plus `sysret`.
    fn syscall_exit(&mut self, m: &mut Machine) {
        let model = m.cpu.clock.model();
        let c = model.swapgs + model.sysret;
        m.cpu.clock.charge(Tag::SyscallPath, c);
        m.cpu.mode = sim_hw::Mode::User;
        m.cpu.rflags_if = true;
    }

    /// Charges delivery of a user page fault to the guest kernel handler.
    /// The default is a direct exception entry through the IDT.
    fn fault_entry(&mut self, m: &mut Machine) {
        let c = m.cpu.clock.model().exception_entry;
        m.cpu.clock.charge(Tag::Handler, c);
        m.cpu.mode = sim_hw::Mode::Kernel;
    }

    /// Charges the return from the fault handler to user mode. The default
    /// is a direct `iret`.
    fn fault_exit(&mut self, m: &mut Machine) {
        let c = m.cpu.clock.model().iret;
        m.cpu.clock.charge(Tag::Handler, c);
        m.cpu.mode = sim_hw::Mode::User;
    }

    // --- Application memory access ------------------------------------------------

    /// Performs one user-mode access to `va` under `root`, handling
    /// *platform-level* faults internally (EPT violations, shadow-paging
    /// sync) and returning guest-visible page faults for the guest kernel
    /// to handle. The default is one single-stage walk in user mode.
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
        let prev = m.cpu.mode;
        m.cpu.mode = sim_hw::Mode::User;
        let r = m.cpu.mem_access(&mut m.mem, va, access, None).map(|_| ());
        m.cpu.mode = prev;
        r
    }

    // --- Host services -----------------------------------------------------------

    /// One empty hypercall: a guest→host→guest crossing that does no work
    /// (Table 2's hypercall row, the paper's slow path of Figure 7).
    fn hypercall(&mut self, m: &mut Machine);

    /// How this platform notifies a virtio device and takes its
    /// interrupts: the doorbell and IRQ pricing of its NIC and block
    /// device. Native by default: the guest calls the host stack directly.
    fn device_kind(&self) -> netsim::NicBackendKind {
        netsim::NicBackendKind::Native
    }

    /// Delivers one guest timer tick (scheduler interrupt). The default
    /// models a local-APIC timer handled natively; virtualized platforms
    /// override with their interrupt-delivery path.
    fn timer_tick(&mut self, m: &mut Machine) {
        let model = m.cpu.clock.model();
        let c = model.exception_entry + 300 + model.iret + model.wrmsr;
        m.cpu.clock.charge(Tag::Sched, c);
    }
}

/// The native platform: the guest kernel *is* the machine's kernel
/// (OS-level containers / RunC). Every privileged operation is direct.
pub struct NativePlatform {
    pcid: u16,
}

impl NativePlatform {
    /// Creates the native platform; processes run in PCID `pcid`.
    pub fn new(pcid: u16) -> Self {
        Self { pcid }
    }
}

impl Platform for NativePlatform {
    fn name(&self) -> &'static str {
        "runc"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn new_root(&mut self, m: &mut Machine) -> Result<Phys, MapFault> {
        let c = m.cpu.clock.model().frame_alloc;
        m.cpu.clock.charge(Tag::Handler, c);
        host_new_root(m)
    }

    fn map_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        pa: Phys,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        let c = m.cpu.clock.model().pte_write;
        m.cpu.clock.charge(Tag::Handler, c);
        host_map(m, root, va, pa, flags)
    }

    fn unmap_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
    ) -> Result<Option<u64>, MapFault> {
        let c = m.cpu.clock.model().pte_write;
        m.cpu.clock.charge(Tag::Handler, c);
        Ok(host_unmap(m, root, va, self.pcid))
    }

    fn protect_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        let c = m.cpu.clock.model().pte_write;
        m.cpu.clock.charge(Tag::Handler, c);
        host_protect(m, root, va, flags, self.pcid)
    }

    fn load_root(&mut self, m: &mut Machine, root: Phys) -> Result<(), MapFault> {
        let c = m.cpu.clock.model().cr3_switch;
        m.cpu.clock.charge(Tag::Sched, c);
        // One PCID per container: switching processes inside it must flush
        // (PCIDs isolate containers from each other, not processes — §4.1).
        m.cpu.set_cr3(root, self.pcid, false);
        Ok(())
    }

    fn hypercall(&mut self, _m: &mut Machine) {
        // Native: no hypercall exists, and an empty one has nothing to do.
    }
}

/// Creates an empty address-space root from the machine allocator (host
/// page tables, uncharged).
pub fn host_new_root(m: &mut Machine) -> Result<Phys, MapFault> {
    let Machine { mem, frames, .. } = m;
    PageTables::new_root(mem, &mut || frames.alloc()).ok_or(MapFault::OutOfMemory)
}

/// Maps `pa` at `va` in host page tables, taking intermediate tables from
/// the machine allocator (uncharged).
pub fn host_map(
    m: &mut Machine,
    root: Phys,
    va: Virt,
    pa: Phys,
    flags: MapFlags,
) -> Result<(), MapFault> {
    let Machine { mem, frames, .. } = m;
    PageTables::map(mem, root, va, pa, flags, &mut || frames.alloc())
        .map_err(|_| MapFault::OutOfMemory)
}

/// Removes the host mapping at `va` and flushes it from PCID `pcid`;
/// returns the old leaf PTE if one existed (uncharged).
pub fn host_unmap(m: &mut Machine, root: Phys, va: Virt, pcid: u16) -> Option<u64> {
    let old = PageTables::unmap(&mut m.mem, root, va);
    m.cpu.tlb.flush_va(va, pcid);
    old
}

/// Rewrites the flags of the host leaf PTE at `va`, keeping its frame, and
/// flushes it from PCID `pcid` (uncharged).
pub fn host_protect(
    m: &mut Machine,
    root: Phys,
    va: Virt,
    flags: MapFlags,
    pcid: u16,
) -> Result<(), MapFault> {
    let old = PageTables::walk(&mut m.mem, root, va)
        .map_err(|_| MapFault::Rejected("protect of unmapped page"))?;
    let new = sim_mem::pte::make(
        sim_mem::pte::addr(old.leaf),
        flags.encode() & !sim_mem::pte::ADDR_MASK,
    );
    PageTables::update_leaf(&mut m.mem, root, va, new);
    m.cpu.tlb.flush_va(va, pcid);
    Ok(())
}

/// Recursively frees a page-table subtree back to the machine allocator
/// (intermediate tables only; leaves reference data frames owned elsewhere).
pub fn free_table_recursive(m: &mut Machine, table: Phys, level: u8) {
    if level > 1 {
        for idx in 0..512u64 {
            let entry = m.mem.read_u64(table + 8 * idx);
            if sim_mem::pte::present(entry) && !sim_mem::pte::huge(entry) {
                free_table_recursive(m, sim_mem::pte::addr(entry), level - 1);
            }
        }
    }
    if m.frames.contains(table) {
        m.mem.zero_frame(table);
        m.frames.free(table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_hw::HwExtensions;

    fn machine() -> Machine {
        Machine::new(256 * 1024 * 1024, HwExtensions::baseline())
    }

    #[test]
    fn native_map_and_access() {
        let mut m = machine();
        let mut p = NativePlatform::new(1);
        let root = p.new_root(&mut m).unwrap();
        let frame = p.alloc_frame(&mut m).unwrap();
        p.map_page(&mut m, root, 0x40_0000, frame, MapFlags::user_rw())
            .unwrap();
        p.load_root(&mut m, root).unwrap();
        p.user_access(&mut m, root, 0x40_0000, true).unwrap();
        // Unmapped VA faults.
        let err = p.user_access(&mut m, root, 0x50_0000, false).unwrap_err();
        assert!(matches!(err, Fault::PageFault { .. }));
    }

    #[test]
    fn native_unmap_flushes_tlb() {
        let mut m = machine();
        let mut p = NativePlatform::new(1);
        let root = p.new_root(&mut m).unwrap();
        let frame = p.alloc_frame(&mut m).unwrap();
        p.map_page(&mut m, root, 0x40_0000, frame, MapFlags::user_rw())
            .unwrap();
        p.load_root(&mut m, root).unwrap();
        p.user_access(&mut m, root, 0x40_0000, false).unwrap();
        p.unmap_page(&mut m, root, 0x40_0000).unwrap();
        assert!(p.user_access(&mut m, root, 0x40_0000, false).is_err());
    }

    #[test]
    fn native_protect_breaks_write() {
        let mut m = machine();
        let mut p = NativePlatform::new(1);
        let root = p.new_root(&mut m).unwrap();
        let frame = p.alloc_frame(&mut m).unwrap();
        p.map_page(&mut m, root, 0x40_0000, frame, MapFlags::user_rw())
            .unwrap();
        p.load_root(&mut m, root).unwrap();
        p.protect_page(
            &mut m,
            root,
            0x40_0000,
            MapFlags::user_rw().with_write(false),
        )
        .unwrap();
        assert!(p.user_access(&mut m, root, 0x40_0000, true).is_err());
        assert!(p.user_access(&mut m, root, 0x40_0000, false).is_ok());
    }

    #[test]
    fn destroy_root_returns_frames() {
        let mut m = machine();
        let mut p = NativePlatform::new(1);
        let before = m.frames.in_use();
        let root = p.new_root(&mut m).unwrap();
        let frame = p.alloc_frame(&mut m).unwrap();
        p.map_page(&mut m, root, 0x40_0000, frame, MapFlags::user_rw())
            .unwrap();
        p.unmap_page(&mut m, root, 0x40_0000).unwrap();
        p.free_frame(&mut m, frame);
        p.destroy_root(&mut m, root);
        assert_eq!(m.frames.in_use(), before);
    }
}
