//! Software-based virtualization (the PVM baseline, SOSP '23).
//!
//! The guest kernel is deprivileged to user mode in its own address space.
//! Consequences the paper measures (§2.4.2):
//!
//! - **Syscall redirection**: an application syscall traps to the host,
//!   which switches to the guest-kernel page table and returns to user mode
//!   to run the (user-mode) guest kernel — two extra CPU mode switches and
//!   two extra page-table switches per syscall (90 ns → 336 ns).
//! - **Shadow paging**: the hardware walks host-maintained shadow tables
//!   (gVA → hPA). Guest PTE updates trap (write-protected gPTs) and are
//!   emulated: gPT walk, gPA → hPA via VMA lookup, shadow update, exception
//!   injection — 1 828 ns of emulation per page fault, six guest/host
//!   switches (Figure 10a: 4 407 ns total vs 1 067 ns for CKI).
//! - No VM exits to L0 in nested clouds: PVM's costs are nearly identical
//!   bare-metal and nested (Table 2).

use guest_os::platform::{Hypercall, MapFault, Platform};
use netsim::{ExitCosts, NetBackend};
use obs::CounterId;
use sim_hw::{Fault, Machine, Tag};
use sim_mem::{MapFlags, PageTables, Phys, Virt};

use crate::virtio::BlockBackend;

/// PVM-specific statistics — a view over the machine's metrics registry
/// (see [`PvmPlatform::stats`]).
#[derive(Debug, Default, Clone)]
pub struct PvmStats {
    /// Guest↔host world switches (software "VM exits").
    pub switches: u64,
    /// Shadow-page-table emulations performed.
    pub spt_emulations: u64,
    /// Hypercalls serviced.
    pub hypercalls: u64,
    /// Syscalls redirected through the host.
    pub redirected_syscalls: u64,
}

/// Dense registry ids for the PVM hot-path counters.
struct PvmCounterIds {
    switches: CounterId,
    spt_emulations: CounterId,
    hypercalls: CounterId,
    redirected_syscalls: CounterId,
}

/// The PVM platform.
pub struct PvmPlatform {
    /// Deployed inside an L1 VM (nested cloud)?
    pub nested: bool,
    exits: ExitCosts,
    /// VirtIO network backend.
    pub net: NetBackend,
    /// VirtIO block backend.
    pub block: BlockBackend,
    pcid: u16,
    /// Inside the guest page-fault handler (host-mediated sync per fault).
    in_fault: bool,
    /// Guest page-table pages currently marked out-of-sync (KVM-style):
    /// the first write to a write-protected gPT page traps and unprotects
    /// it; later writes to the same page are batched until resync.
    unsynced: std::collections::HashSet<(Phys, u64)>,
    ids: PvmCounterIds,
}

impl PvmPlatform {
    /// Creates the PVM platform (`nested` only changes hypercall costs
    /// slightly — the design's point).
    pub fn new(m: &mut Machine, nested: bool) -> Self {
        let model = m.cpu.clock.model().clone();
        let exits = ExitCosts::pvm(&model, nested);
        let label = if nested { "pvm-nst" } else { "pvm" };
        let ids = PvmCounterIds {
            switches: m
                .cpu
                .metrics
                .counter_labeled("vmm.world_switches", Some(label)),
            spt_emulations: m
                .cpu
                .metrics
                .counter_labeled("vmm.spt_emulations", Some(label)),
            hypercalls: m.cpu.metrics.counter_labeled("vmm.hypercalls", Some(label)),
            redirected_syscalls: m
                .cpu
                .metrics
                .counter_labeled("vmm.redirected_syscalls", Some(label)),
        };
        Self {
            nested,
            exits,
            net: NetBackend::new(exits).with_mmio_kick(2, 1500),
            block: BlockBackend::new(exits),
            pcid: 2,
            in_fault: false,
            unsynced: std::collections::HashSet::new(),
            ids,
        }
    }

    /// Attaches a closed-loop client fleet to the NIC.
    pub fn with_clients(mut self, clients: u32) -> Self {
        self.net.set_clients(clients);
        self
    }

    /// Reconstructs the [`PvmStats`] view from the machine's registry.
    pub fn stats(&self, m: &Machine) -> PvmStats {
        PvmStats {
            switches: m.cpu.metrics.get(self.ids.switches),
            spt_emulations: m.cpu.metrics.get(self.ids.spt_emulations),
            hypercalls: m.cpu.metrics.get(self.ids.hypercalls),
            redirected_syscalls: m.cpu.metrics.get(self.ids.redirected_syscalls),
        }
    }

    /// One guest↔host switch pair (exit + entry), the PVM "VM exit".
    fn world_switch_pair(&mut self, m: &mut Machine) {
        m.cpu.metrics.add(self.ids.switches, 2);
        let sp = m.cpu.span_enter("vmm.switch");
        let c = m.cpu.clock.model().pvm_switch;
        let extra = if self.nested { 24 } else { 0 };
        m.cpu.clock.charge(Tag::VmExit, 2 * (c + extra));
        m.cpu.span_exit(sp);
    }

    /// The shadow-paging emulation work: gPT walk, gPA→hPA via the VMA
    /// mapping, shadow PTE generation, exception injection.
    fn spt_emulate(&mut self, m: &mut Machine) {
        m.cpu.metrics.inc(self.ids.spt_emulations);
        let sp = m.cpu.span_enter("vmm.spt_emul");
        let c = m.cpu.clock.model().spt_emulation_work;
        m.cpu.clock.charge(Tag::SptEmul, c);
        m.cpu.span_exit(sp);
    }

    /// Charges a gPT update outside the fault path. KVM-style out-of-sync
    /// shadow pages: the first write to a protected gPT page traps and
    /// unprotects it (half an emulation); subsequent writes to the same
    /// page (fork storms, batched teardown) are plain stores.
    fn batched_gpt_update(&mut self, m: &mut Machine, root: Phys, va: Virt) {
        let key = (root, va >> 21);
        let c = m.cpu.clock.model().pte_write;
        m.cpu.clock.charge(Tag::Handler, c);
        if self.unsynced.insert(key) {
            self.world_switch_pair(m);
            m.cpu.metrics.inc(self.ids.spt_emulations);
            let sp = m.cpu.span_enter("vmm.spt_emul");
            let c = m.cpu.clock.model().spt_emulation_work / 2;
            m.cpu.clock.charge(Tag::SptEmul, c);
            m.cpu.span_exit(sp);
        }
    }
}

impl Platform for PvmPlatform {
    fn name(&self) -> &'static str {
        if self.nested {
            "pvm-nst"
        } else {
            "pvm"
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn alloc_frame(&mut self, m: &mut Machine) -> Option<Phys> {
        // Host allocates the backing page on behalf of the guest (gPA is
        // associated with the hypervisor process's VMAs).
        let c = m.cpu.clock.model().frame_alloc;
        m.cpu.clock.charge(Tag::Handler, c);
        m.frames.alloc()
    }

    fn free_frame(&mut self, m: &mut Machine, pa: Phys) {
        m.frames.free(pa);
    }

    fn gpa_to_hpa(&mut self, _m: &mut Machine, gpa: Phys) -> Phys {
        // The shadow tables store hPAs directly; the "gPA" the guest sees is
        // already the host address in this simulation's bookkeeping.
        gpa
    }

    fn new_root(&mut self, m: &mut Machine) -> Result<Phys, MapFault> {
        // The guest creates a gPT root; the host mirrors it with a shadow
        // root — one trap plus emulation.
        self.world_switch_pair(m);
        self.spt_emulate(m);
        let Machine { mem, frames, .. } = m;
        PageTables::new_root(mem, &mut || frames.alloc()).ok_or(MapFault::OutOfMemory)
    }

    fn destroy_root(&mut self, m: &mut Machine, root: Phys) {
        self.world_switch_pair(m);
        guest_os::platform::free_table_recursive(m, root, 4);
    }

    fn map_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        pa: Phys,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        // Guest writes its gPT. In the demand-paging path the host has
        // already intercepted the fault and syncs the shadow entry: full
        // per-fault emulation (Figure 10a). Outside a fault (fork, mmap
        // storms) the gPT page goes out-of-sync and writes are batched.
        if self.in_fault {
            self.world_switch_pair(m);
            self.spt_emulate(m);
        } else {
            self.batched_gpt_update(m, root, va);
        }
        let Machine { mem, frames, .. } = m;
        PageTables::map(mem, root, va, pa, flags, &mut || frames.alloc())
            .map_err(|_| MapFault::OutOfMemory)
    }

    fn unmap_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
    ) -> Result<Option<u64>, MapFault> {
        if self.in_fault {
            self.world_switch_pair(m);
            let c = m.cpu.clock.model().spt_emulation_work / 3;
            m.cpu.clock.charge(Tag::SptEmul, c);
        } else {
            // The gPT write batches, but the shadow entry must still be
            // invalidated (rmap) — per-page host work.
            self.batched_gpt_update(m, root, va);
            let c = m.cpu.clock.model().spt_emulation_work / 6;
            m.cpu.clock.charge(Tag::SptEmul, c);
        }
        let old = PageTables::unmap(&mut m.mem, root, va);
        m.cpu.tlb.flush_va(va, self.pcid);
        Ok(old)
    }

    fn protect_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        if self.in_fault {
            self.world_switch_pair(m);
            let c = m.cpu.clock.model().spt_emulation_work / 3;
            m.cpu.clock.charge(Tag::SptEmul, c);
        } else {
            // Shadow permissions must be downgraded with the guest's
            // (write-protect for COW) — per-page host work.
            self.batched_gpt_update(m, root, va);
            let c = m.cpu.clock.model().spt_emulation_work / 8;
            m.cpu.clock.charge(Tag::SptEmul, c);
        }
        let old = PageTables::walk(&mut m.mem, root, va)
            .map_err(|_| MapFault::Rejected("protect of unmapped page"))?;
        let new = sim_mem::pte::make(
            sim_mem::pte::addr(old.leaf),
            flags.encode() & !sim_mem::pte::ADDR_MASK,
        );
        PageTables::update_leaf(&mut m.mem, root, va, new);
        m.cpu.tlb.flush_va(va, self.pcid);
        Ok(())
    }

    fn read_pte(&mut self, m: &mut Machine, root: Phys, va: Virt) -> Option<u64> {
        PageTables::walk(&mut m.mem, root, va).ok().map(|w| w.leaf)
    }

    fn load_root(&mut self, m: &mut Machine, root: Phys) -> Result<(), MapFault> {
        // The user-mode guest kernel cannot load CR3: it hypercalls the
        // host, which finds the shadow root and loads it (the reason
        // lmbench context switches are slow on PVM — §7.1).
        self.world_switch_pair(m);
        let c = m.cpu.clock.model().cr3_switch + 300;
        m.cpu.clock.charge(Tag::Sched, c);
        m.cpu.set_cr3(root, self.pcid, false);
        Ok(())
    }

    fn syscall_entry(&mut self, m: &mut Machine) {
        // Trap to host, host switches to the guest-kernel page table and
        // returns to user mode in the guest kernel: one extra mode-switch
        // hop and one extra CR3 switch on the way in.
        m.cpu.metrics.inc(self.ids.redirected_syscalls);
        if m.cpu.mode == sim_hw::Mode::User {
            let _ = m.cpu.syscall_entry();
        }
        let model = m.cpu.clock.model();
        let c = model.swapgs + model.cr3_switch + model.pvm_redirect_hop;
        m.cpu.clock.charge(Tag::SyscallPath, c);
    }

    fn syscall_exit(&mut self, m: &mut Machine) {
        let model = m.cpu.clock.model();
        let c = model.pvm_redirect_hop + model.cr3_switch + model.swapgs + model.sysret;
        m.cpu.clock.charge(Tag::SyscallPath, c);
        m.cpu.mode = sim_hw::Mode::User;
        m.cpu.rflags_if = true;
    }

    fn fault_entry(&mut self, m: &mut Machine) {
        // The host intercepts the fault, walks to classify it, and injects
        // it into the user-mode guest kernel: two switches.
        let c = m.cpu.clock.model().exception_entry;
        m.cpu.clock.charge(Tag::Handler, c);
        self.world_switch_pair(m);
        self.in_fault = true;
        m.cpu.mode = sim_hw::Mode::Kernel;
    }

    fn fault_exit(&mut self, m: &mut Machine) {
        // Returning to the faulting application goes back through the host.
        let c = m.cpu.clock.model().iret;
        m.cpu.clock.charge(Tag::Handler, c);
        self.world_switch_pair(m);
        self.in_fault = false;
        m.cpu.mode = sim_hw::Mode::User;
    }

    fn user_access(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        write: bool,
    ) -> Result<(), Fault> {
        debug_assert_eq!(m.cpu.cr3_root(), root);
        // The hardware walks the shadow table: single-stage, no EPT.
        let access = if write {
            sim_hw::Access::Write
        } else {
            sim_hw::Access::Read
        };
        let prev = m.cpu.mode;
        m.cpu.mode = sim_hw::Mode::User;
        let Machine { cpu, mem, .. } = m;
        let r = cpu.mem_access(mem, va, access, None).map(|_| ());
        m.cpu.mode = prev;
        r
    }

    fn timer_tick(&mut self, m: &mut Machine) {
        // The host receives the hardware timer and injects a virtual
        // interrupt into the user-mode guest kernel; returning needs the
        // host again: two world-switch pairs around the handler.
        let model = m.cpu.clock.model().clone();
        self.world_switch_pair(m);
        m.cpu
            .clock
            .charge(Tag::Sched, model.exception_entry + 300 + model.iret);
        self.world_switch_pair(m);
    }

    fn hypercall(&mut self, m: &mut Machine, call: Hypercall) -> u64 {
        m.cpu.metrics.inc(self.ids.hypercalls);
        match call {
            Hypercall::NetKick { packets } => {
                let sp = m.cpu.span_enter("vmm.virtio.kick");
                self.net.kick(&mut m.cpu.clock, packets);
                m.cpu.span_exit(sp);
                0
            }
            Hypercall::NetPoll => {
                let sp = m.cpu.span_enter("vmm.virtio.poll");
                let n = self.net.poll(&mut m.cpu.clock) as u64;
                m.cpu.span_exit(sp);
                n
            }
            Hypercall::VcpuHalt => {
                let sp = m.cpu.span_enter("vmm.virtio.halt");
                self.net.halt(&mut m.cpu.clock);
                m.cpu.span_exit(sp);
                0
            }
            Hypercall::BlockIo { bytes, .. } => {
                let sp = m.cpu.span_enter("vmm.virtio.block");
                self.block.submit(&mut m.cpu.clock, bytes);
                m.cpu.span_exit(sp);
                0
            }
            Hypercall::SetTimer { .. }
            | Hypercall::SendIpi { .. }
            | Hypercall::ConsoleWrite { .. }
            | Hypercall::Nop => {
                let sp = m.cpu.span_enter("vmm.switch");
                m.cpu.clock.charge(Tag::VmExit, self.exits.roundtrip);
                m.cpu.span_exit(sp);
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::{Kernel, Sys};
    use sim_hw::HwExtensions;
    use sim_mem::PAGE_SIZE;

    fn boot(nested: bool) -> (Kernel, Machine) {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let p = PvmPlatform::new(&mut m, nested);
        let k = Kernel::boot(Box::new(p), &mut m);
        (k, m)
    }

    #[test]
    fn pvm_syscall_costs_336ns() {
        let (mut k, mut m) = boot(false);
        let mark = m.cpu.clock.mark();
        k.syscall(&mut m, Sys::Getpid).unwrap();
        let ns = m.cpu.clock.since_ns(mark);
        assert!(
            (300.0..380.0).contains(&ns),
            "PVM getpid = {ns} ns (Table 2: 336 ns)"
        );
    }

    #[test]
    fn pvm_pgfault_costs_4_4us() {
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
            (3800.0..5200.0).contains(&per),
            "PVM pgfault = {per} ns (Figure 10a: 4 407 ns)"
        );
    }

    #[test]
    fn pvm_hypercall_costs_466ns() {
        let (mut k, mut m) = boot(false);
        let mark = m.cpu.clock.mark();
        k.platform.hypercall(&mut m, Hypercall::Nop);
        let ns = m.cpu.clock.since_ns(mark);
        assert!(
            (430.0..520.0).contains(&ns),
            "PVM hypercall = {ns} ns (Table 2: 466)"
        );
    }

    #[test]
    fn nested_changes_little() {
        let (mut k_bm, mut m_bm) = boot(false);
        let (mut k_nst, mut m_nst) = boot(true);
        let mark_bm = m_bm.cpu.clock.mark();
        k_bm.platform.hypercall(&mut m_bm, Hypercall::Nop);
        let bm = m_bm.cpu.clock.since_ns(mark_bm);
        let mark_nst = m_nst.cpu.clock.mark();
        k_nst.platform.hypercall(&mut m_nst, Hypercall::Nop);
        let nst = m_nst.cpu.clock.since_ns(mark_nst);
        assert!(
            nst > bm && nst < bm * 1.2,
            "PVM nested ≈ bare-metal: {bm} vs {nst}"
        );
    }

    #[test]
    fn pgfault_breakdown_has_three_components() {
        let (mut k, mut m) = boot(false);
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 64 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        m.cpu.clock.reset_tags();
        k.touch_range(&mut m, base, 64 * PAGE_SIZE, true).unwrap();
        let per_fault = |t| m.cpu.clock.tagged_ns(t) / 64.0;
        // Figure 10a: VM exits 1 532 ns, SPT emulation 1 828 ns, handler ~1 065 ns.
        assert!(
            (1200.0..1800.0).contains(&per_fault(Tag::VmExit)),
            "{}",
            per_fault(Tag::VmExit)
        );
        assert!(
            (1500.0..2200.0).contains(&per_fault(Tag::SptEmul)),
            "{}",
            per_fault(Tag::SptEmul)
        );
        assert!(
            (800.0..1400.0).contains(&per_fault(Tag::Handler)),
            "{}",
            per_fault(Tag::Handler)
        );
    }
}
