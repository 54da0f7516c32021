//! The CKI platform: the guest kernel on the PKS-built privilege level.
//!
//! What makes CKI fast (paper §3.3, Figure 6):
//!
//! - **Native syscalls** (OPT1-3): container processes trap directly into
//!   the (deprivileged) guest kernel — no host intervention, no page-table
//!   switch (the guest kernel is mapped U=0 in the user space), and
//!   `swapgs`/`sysret` stay directly executable. The ablations
//!   [`CkiConfig::opt2_no_pt_switch`] and [`CkiConfig::opt3_direct_sysret`]
//!   reproduce Figure 10b/15.
//! - **No second translation stage**: the host delegates contiguous hPA
//!   segments; guest page faults are handled entirely by the guest kernel
//!   plus one lightweight KSM call for the PTE update (+iret), 77 ns
//!   instead of microseconds of shadow-paging or EPT handling.
//! - **Cheap host crossings**: hypercalls traverse a PKS gate and a
//!   software context switch (390 ns), identical bare-metal and nested.

use guest_os::platform::{MapFault, Platform};
use netsim::NicBackendKind;
use sim_hw::{cost, Fault, Instr, IretFrame, Machine, Tag};
use sim_mem::addr::pt_index;
use sim_mem::{pte, FrameAllocator, MapFlags, PageTables, Phys, Segment, Virt, PAGE_SIZE};

use crate::gates::{self, GateAbort};
use crate::ksm::{guest_entries, pkrs_guest, Ksm, KsmError, PageKind};

/// Configuration of a CKI container (ablations + deployment).
#[derive(Debug, Clone, Copy)]
pub struct CkiConfig {
    /// Deployed inside an L1 VM. CKI exits never involve L0, so this barely
    /// changes anything — the design's headline property.
    pub nested: bool,
    /// OPT2 (§7.1): no page-table switch on the syscall path. Disabling
    /// adds two CR3 switches per syscall (CKI-wo-OPT2: 238 ns).
    pub opt2_no_pt_switch: bool,
    /// OPT3 (§7.1): `swapgs`/`sysret` directly executable. Disabling routes
    /// them through PKS switches (CKI-wo-OPT3: 153 ns).
    pub opt3_direct_sysret: bool,
    /// Ablation: keep PTI+IBRS on the KSM gate (the paper *removes* them
    /// because only container-private data is mapped in the KSM — §3.3).
    pub gate_sidechannel_mitigation: bool,
    /// vCPUs (per-vCPU areas and root copies).
    pub vcpus: u32,
    /// Delegated contiguous physical segment size.
    pub seg_bytes: u64,
    /// PCID assigned to this container (each collocated container and the
    /// host use distinct PCIDs so `invlpg` cannot flush a neighbour's TLB
    /// entries — §4.1).
    pub pcid: u16,
}

impl Default for CkiConfig {
    fn default() -> Self {
        Self {
            nested: false,
            opt2_no_pt_switch: true,
            opt3_direct_sysret: true,
            gate_sidechannel_mitigation: false,
            vcpus: 2,
            seg_bytes: 256 * 1024 * 1024,
            pcid: 3,
        }
    }
}

/// Work performed by a snapshot clone ([`CkiPlatform::adopt_from`]) —
/// the host charges cycles proportional to these.
#[derive(Debug, Clone, Copy, Default)]
pub struct CloneReport {
    /// Resident template pages copied into the clone's segment.
    pub pages_copied: u64,
    /// Page-table entries rebased to the clone's physical range.
    pub pte_rewrites: u64,
}

/// Dense registry ids for the CKI hot-path counters.
struct CkiCounterIds {
    hypercalls: obs::CounterId,
    gate_aborts: obs::CounterId,
}

/// The CKI platform.
pub struct CkiPlatform {
    /// Configuration.
    pub config: CkiConfig,
    /// This container's KSM.
    pub ksm: Ksm,
    guest_frames: FrameAllocator,
    /// Whether any guest root of *this* container has been loaded yet;
    /// before that, KSM calls run on the container's template space.
    active: bool,
    ids: CkiCounterIds,
}

impl CkiPlatform {
    /// Creates a CKI container on `m`, delegating a contiguous segment.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks the CKI hardware extensions or memory.
    pub fn new(m: &mut Machine, config: CkiConfig) -> Self {
        let frames = config.seg_bytes / PAGE_SIZE;
        let base = m
            .frames
            .alloc_contiguous(frames)
            .expect("delegated segment");
        let seg = Segment {
            start: base,
            end: base + config.seg_bytes,
        };
        Self::new_with_segment(m, config, seg)
    }

    /// Creates a CKI container over a host-chosen delegated segment (used
    /// by orchestration layers that manage the segment pool themselves).
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks the CKI hardware extensions or if the
    /// segment does not match `config.seg_bytes`.
    pub fn new_with_segment(m: &mut Machine, config: CkiConfig, seg: Segment) -> Self {
        assert!(
            m.cpu.ext.priv_inst_blocking && m.cpu.ext.wrpkrs_instruction,
            "CKI requires the CKI hardware extensions (HwExtensions::cki())"
        );
        assert_eq!(seg.len(), config.seg_bytes, "segment/config size mismatch");
        let ksm = Ksm::new(m, seg, config.vcpus, config.pcid);
        let ids = CkiCounterIds {
            hypercalls: m.cpu.metrics.counter_labeled("cki.hypercalls", Some("cki")),
            gate_aborts: m
                .cpu
                .metrics
                .counter_labeled("cki.gate_aborts", Some("cki")),
        };
        Self {
            config,
            ksm,
            guest_frames: FrameAllocator::new(seg.start, seg.end),
            active: false,
            ids,
        }
    }

    /// Adopts a snapshot of `tmpl`'s delegated-segment state into this
    /// freshly constructed platform (snapshot-clone cold start).
    ///
    /// Copies the template segment's resident page image into this
    /// platform's segment, rebases every guest page-table entry that named
    /// the template's physical range, imports the template KSM's page
    /// descriptors (building per-vCPU root copies for adopted roots), and
    /// rebases the guest frame allocator. The returned report carries the
    /// work sizes so the host can charge cycles for the clone.
    ///
    /// # Panics
    ///
    /// Panics if the two platforms' segments differ in length.
    pub fn adopt_from(&mut self, m: &mut Machine, tmpl: &CkiPlatform) -> CloneReport {
        let old = tmpl.ksm.seg;
        let new = self.ksm.seg;
        assert_eq!(old.len(), new.len(), "clone must preserve segment size");
        let shift = |pa: Phys| new.start + (pa - old.start);

        // Exact page image: resident template pages are copied, everything
        // else is dropped (a recycled pool range may hold a previous
        // tenant's frames).
        let pages_copied = m.mem.copy_range(old.start, new.start, old.len());

        // Rebase the guest-owned entries of every copied PTP in place,
        // *before* adopting roots (per-vCPU copies snapshot root contents).
        let mut pte_rewrites = 0u64;
        for (pa, desc) in tmpl.ksm.pages() {
            if let PageKind::Ptp { level } = desc.kind {
                pte_rewrites += PageTables::rebase_entries(
                    &mut m.mem,
                    shift(pa),
                    guest_entries(level),
                    old,
                    new.start,
                );
            }
        }

        // Import descriptors: data pages and interior PTPs first, roots
        // last (adopting a root stamps this KSM's kernel half over the
        // copied one and builds the per-vCPU copies).
        let mut roots = Vec::new();
        for (pa, desc) in tmpl.ksm.pages() {
            if matches!(desc.kind, PageKind::Ptp { level: 4 }) {
                roots.push((pa, desc));
            } else {
                self.ksm
                    .adopt_page(m, shift(pa), desc)
                    .expect("adopting template page");
            }
        }
        for (pa, desc) in roots {
            self.ksm
                .adopt_page(m, shift(pa), desc)
                .expect("adopting template root");
        }

        self.guest_frames = tmpl.guest_frames.rebased(new.start);
        CloneReport {
            pages_copied,
            pte_rewrites,
        }
    }

    /// Rebases the guest frame allocator after an in-place segment
    /// migration ([`Ksm::rebase`]); the KSM's own state is rebased by the
    /// caller through `ksm.rebase`.
    pub fn rebase_guest_frames(&mut self, new_start: Phys) {
        self.guest_frames = self.guest_frames.rebased(new_start);
    }

    /// The page-table and PKS switches a syscall crossing pays on top of
    /// `swapgs`/`sysret`, unless OPT2/OPT3 remove them.
    fn crossing_switch_cycles(&self) -> u64 {
        let mut cycles = 0;
        if !self.config.opt2_no_pt_switch {
            cycles += cost::CR3_SWITCH;
        }
        if !self.config.opt3_direct_sysret {
            cycles += cost::WRPKRS + cost::PKS_CHECK;
        }
        cycles
    }

    /// Frees every host frame backing this container's KSM (container
    /// stop). The delegated segment itself goes back to the pool owner.
    pub fn teardown(&mut self, m: &mut Machine) {
        self.ksm.teardown(m);
    }

    /// Invokes the KSM through the real PKS call gate.
    fn ksm_invoke<R>(
        &mut self,
        m: &mut Machine,
        op: impl FnOnce(&mut Machine, &mut Ksm) -> Result<R, KsmError>,
    ) -> Result<R, MapFault> {
        // Container boot happens in host context before any guest root of
        // this container is loaded; give the gate the KSM template space
        // to stand on.
        if !self.active {
            m.cpu.set_cr3(self.ksm.template_root(), self.ksm.pcid, true);
            m.cpu.pkrs = pkrs_guest();
        }
        if self.config.gate_sidechannel_mitigation {
            // Ablation: what the gate would cost if PTI/IBRS stayed on it.
            m.cpu.clock.charge(Tag::KsmCall, cost::PTI + cost::IBRS);
        }
        match gates::ksm_call(m, &mut self.ksm, op) {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(KsmError::OutsideSegment)) => Err(MapFault::Rejected("outside segment")),
            Ok(Err(KsmError::BadPte(w))) => Err(MapFault::Rejected(w)),
            Ok(Err(KsmError::BadPageState(w))) => Err(MapFault::Rejected(w)),
            Ok(Err(KsmError::BadRoot)) => Err(MapFault::Rejected("bad root")),
            Ok(Err(KsmError::NotAPtp)) => Err(MapFault::Rejected("not a PTP")),
            Ok(Err(KsmError::NoMem)) => Err(MapFault::OutOfMemory),
            Err(GateAbort::Fault(f)) => {
                m.cpu.metrics.inc(self.ids.gate_aborts);
                Err(MapFault::Arch(f))
            }
            Err(_) => {
                m.cpu.metrics.inc(self.ids.gate_aborts);
                Err(MapFault::Rejected("gate abort"))
            }
        }
    }

    /// Guest-side software read of one PTE slot through the physmap.
    fn read_slot(&self, m: &mut Machine, table: Phys, idx: usize) -> u64 {
        m.mem.read_u64(table + 8 * idx as u64)
    }

    /// Walks to the leaf slot for `va`, allocating + declaring missing
    /// intermediate PTPs via KSM calls.
    fn ensure_path(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
    ) -> Result<(Phys, usize), MapFault> {
        let mut table = root;
        for level in (2..=4u8).rev() {
            let idx = pt_index(va, level);
            let entry = self.read_slot(m, table, idx);
            if pte::present(entry) {
                table = pte::addr(entry);
            } else {
                let new = self.guest_frames.alloc().ok_or(MapFault::OutOfMemory)?;
                self.ksm_invoke(m, |m, k| k.declare_ptp(m, new, level - 1))?;
                let parent = table;
                self.ksm_invoke(m, move |m, k| {
                    k.update_pte(m, parent, idx, pte::make(new, pte::P | pte::W | pte::U))
                })?;
                table = new;
            }
        }
        Ok((table, pt_index(va, 1)))
    }

    fn ksm_iret(&mut self, m: &mut Machine, frame: IretFrame) {
        // The guest kernel cannot execute iret (Table 3); it enters the KSM
        // gate (one PKS switch) and the KSM executes iret, whose CKI
        // extension restores PKRS from the frame — no exit switch needed.
        // Together with the PTE-update call this is the 77 ns "KSM calls"
        // component of Figure 10a.
        let sp = m.cpu.span_enter("cki.iret");
        if m.cpu.exec(&mut m.mem, Instr::Wrpkrs { value: 0 }).is_err() {
            m.cpu.metrics.inc(self.ids.gate_aborts);
            m.cpu.span_exit(sp);
            return;
        }
        m.cpu.clock.charge(Tag::KsmCall, cost::PKS_CHECK);
        if m.cpu.exec(&mut m.mem, Instr::Iret { frame }).is_err() {
            m.cpu.metrics.inc(self.ids.gate_aborts);
        }
        m.cpu.span_exit(sp);
    }

    fn destroy_table(&mut self, m: &mut Machine, table: Phys, level: u8) {
        let user_slots = if level == 4 { 256usize } else { 512 };
        if level > 1 {
            for idx in 0..user_slots {
                let entry = self.read_slot(m, table, idx);
                if pte::present(entry) && !pte::huge(entry) {
                    self.destroy_table(m, pte::addr(entry), level - 1);
                }
            }
        }
        let _ = self.ksm_invoke(m, |m, k| k.undeclare_ptp(m, table));
        self.guest_frames.free(table);
    }
}

impl Platform for CkiPlatform {
    fn name(&self) -> &'static str {
        if self.config.nested {
            "cki-nst"
        } else {
            "cki"
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn alloc_frame(&mut self, m: &mut Machine) -> Option<Phys> {
        // The guest's own memory manager allocates from the delegated
        // segment — real hPAs, no gPA indirection (§4.3).
        m.cpu.clock.charge(Tag::Handler, cost::FRAME_ALLOC);
        self.guest_frames.alloc()
    }

    fn free_frame(&mut self, _m: &mut Machine, pa: Phys) {
        self.guest_frames.free(pa);
    }

    fn new_root(&mut self, m: &mut Machine) -> Result<Phys, MapFault> {
        m.cpu.clock.charge(Tag::Handler, cost::FRAME_ALLOC);
        let root = self.guest_frames.alloc().ok_or(MapFault::OutOfMemory)?;
        let declared = self.ksm_invoke(m, |m, k| k.declare_ptp(m, root, 4));
        if declared == Err(MapFault::OutOfMemory) {
            // No host frame for the per-vCPU copies: the KSM left the page
            // undeclared, so it goes back to the guest.
            self.guest_frames.free(root);
        }
        declared.map(|()| root)
    }

    fn destroy_root(&mut self, m: &mut Machine, root: Phys) {
        self.destroy_table(m, root, 4);
    }

    fn map_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        pa: Phys,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        let (table, idx) = self.ensure_path(m, root, va)?;
        let new_pte = pte::make(pa, flags.encode() & !pte::ADDR_MASK);
        self.ksm_invoke(m, move |m, k| k.update_pte(m, table, idx, new_pte))?;
        Ok(())
    }

    fn map_pages(
        &mut self,
        m: &mut Machine,
        root: Phys,
        pages: &[(Virt, Phys, MapFlags)],
    ) -> Result<(), MapFault> {
        // Fork/exec map storms: the guest batches PTE updates under a
        // single KSM gate crossing; the KSM validates each update
        // individually (same §4.3 checks), so security is unchanged and
        // only the per-crossing cost amortizes.
        let mut slots = Vec::with_capacity(pages.len());
        for &(va, pa, flags) in pages {
            let (table, idx) = self.ensure_path(m, root, va)?;
            slots.push((table, idx, pte::make(pa, flags.encode() & !pte::ADDR_MASK)));
        }
        self.ksm_invoke(m, move |m, k| {
            for (table, idx, new_pte) in slots {
                k.update_pte(m, table, idx, new_pte)?;
            }
            Ok(())
        })?;
        // Per-update validation work beyond the shared crossing.
        m.cpu.clock.charge(
            Tag::KsmCall,
            cost::KSM_VALIDATE * pages.len().saturating_sub(1) as u64,
        );
        Ok(())
    }

    fn unmap_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
    ) -> Result<Option<u64>, MapFault> {
        let Some((table, idx, old)) = leaf(m, root, va) else {
            return Ok(None);
        };
        self.ksm_invoke(m, move |m, k| k.update_pte(m, table, idx, 0))?;
        // invlpg stays directly executable (PCID-isolated — §4.1).
        let _ = m.cpu.exec(&mut m.mem, Instr::Invlpg { va });
        Ok(Some(old))
    }

    fn protect_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        let (table, idx, old) =
            leaf(m, root, va).ok_or(MapFault::Rejected("protect of unmapped page"))?;
        let new_pte = pte::make(pte::addr(old), flags.encode() & !pte::ADDR_MASK);
        self.ksm_invoke(m, move |m, k| k.update_pte(m, table, idx, new_pte))?;
        let _ = m.cpu.exec(&mut m.mem, Instr::Invlpg { va });
        Ok(())
    }

    fn read_pte(&mut self, m: &mut Machine, root: Phys, va: Virt) -> Option<u64> {
        leaf(m, root, va).map(|(_, _, entry)| entry)
    }

    fn load_root(&mut self, m: &mut Machine, root: Phys) -> Result<(), MapFault> {
        // CR3 loads go through the KSM, which loads the per-vCPU copy;
        // the guest kernel schedules everything on vCPU 0. Always a
        // kernel-context operation (scheduler or boot).
        let prev_mode = m.cpu.mode;
        m.cpu.mode = sim_hw::Mode::Kernel;
        m.cpu.clock.charge(Tag::Sched, cost::CR3_SWITCH);
        let r = self.ksm_invoke(m, move |m, k| k.load_cr3(m, root, 0));
        m.cpu.mode = prev_mode;
        r?;
        self.active = true;
        m.cpu.pkrs = pkrs_guest();
        Ok(())
    }

    fn syscall_entry(&mut self, m: &mut Machine) {
        // Fast path (Figure 7): user traps straight into the guest kernel.
        if m.cpu.mode == sim_hw::Mode::User {
            let _ = m.cpu.syscall_entry();
        }
        m.cpu.clock.charge(
            Tag::SyscallPath,
            cost::SWAPGS + self.crossing_switch_cycles(),
        );
    }

    fn syscall_exit(&mut self, m: &mut Machine) {
        m.cpu.clock.charge(
            Tag::SyscallPath,
            cost::SWAPGS + cost::SYSRET + self.crossing_switch_cycles(),
        );
        m.cpu.mode = sim_hw::Mode::User;
        m.cpu.rflags_if = true;
    }

    fn fault_exit(&mut self, m: &mut Machine) {
        let frame = IretFrame {
            rip: 0,
            user_mode: true,
            if_flag: true,
            rsp: m.cpu.rsp,
            pkrs: pkrs_guest(),
        };
        self.ksm_iret(m, frame);
    }

    fn user_access(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        write: bool,
    ) -> Result<(), Fault> {
        debug_assert_eq!(
            m.cpu.cr3_root(),
            self.ksm.root_copy(root, 0).unwrap_or(0),
            "CR3 must hold the per-vCPU copy of the current root"
        );
        // Single-stage translation: no EPT, no shadow sync. The walk runs
        // on the per-vCPU copy already in CR3.
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
        // Hardware interrupt → IDT clears PKRS (hardware extension) → the
        // real interrupt gate → host handler → iret restores PKRS
        // (§4.2/§4.4). Executed, not just charged.
        m.cpu.idtr = self.ksm.idt_pa;
        m.cpu.tss_base = self.ksm.tss_pa;
        match m.cpu.deliver_interrupt(&mut m.mem, 32, true) {
            Ok(d) => {
                let r = gates::interrupt_gate(m, d.frame, 32, |m| {
                    m.cpu.clock.charge(Tag::Sched, 300); // host scheduler tick
                });
                if r.is_err() {
                    m.cpu.metrics.inc(self.ids.gate_aborts);
                }
            }
            Err(_) => {
                // Unrecoverable delivery failure would reset the vCPU; the
                // host charges the kill path.
                m.cpu.metrics.inc(self.ids.gate_aborts);
                m.cpu.clock.charge(Tag::Sched, 1000);
            }
        }
    }

    fn hypercall(&mut self, m: &mut Machine) {
        m.cpu.metrics.inc(self.ids.hypercalls);
        // A hypercall originates in the guest kernel: enter kernel context
        // if the caller (e.g. a kernel path invoked from an app-level
        // helper) has not already.
        let prev_mode = m.cpu.mode;
        let prev_pkrs = m.cpu.pkrs;
        m.cpu.mode = sim_hw::Mode::Kernel;
        if m.cpu.pkrs == 0 {
            m.cpu.pkrs = pkrs_guest();
        }
        // Cross the real hypercall gate; the (empty) host service runs
        // inside.
        let r = gates::hypercall_gate(m, 0, |m| m.cpu.clock.charge(Tag::Io, 60));
        if r.is_err() {
            m.cpu.metrics.inc(self.ids.gate_aborts);
        }
        m.cpu.mode = prev_mode;
        if prev_pkrs == 0 {
            m.cpu.pkrs = prev_pkrs;
        }
    }

    fn device_kind(&self) -> NicBackendKind {
        NicBackendKind::Cki
    }
}

/// Guest-side software walk to the present leaf PTE for `va` (the guest
/// reads its own tables through the physmap): the level-1 table, the slot
/// index and the entry, or `None` if any level is not present.
fn leaf(m: &mut Machine, root: Phys, va: Virt) -> Option<(Phys, usize, u64)> {
    let mut table = root;
    for level in (2..=4u8).rev() {
        let entry = m.mem.read_u64(table + 8 * pt_index(va, level) as u64);
        if !pte::present(entry) {
            return None;
        }
        table = pte::addr(entry);
    }
    let idx = pt_index(va, 1);
    let entry = m.mem.read_u64(table + 8 * idx as u64);
    pte::present(entry).then_some((table, idx, entry))
}

impl std::fmt::Debug for CkiPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CkiPlatform")
            .field("config", &self.config)
            .field("ksm", &self.ksm)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::{Kernel, Sys};
    use sim_hw::HwExtensions;

    fn boot(config: CkiConfig) -> (Kernel, Machine) {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::cki());
        let p = CkiPlatform::new(&mut m, config);
        let k = Kernel::boot(Box::new(p), &mut m);
        (k, m)
    }

    #[test]
    fn cki_syscall_is_native_speed() {
        let (mut k, mut m) = boot(CkiConfig::default());
        let mark = m.cpu.clock.mark();
        k.syscall(&mut m, Sys::Getpid).unwrap();
        let ns = m.cpu.clock.since_ns(mark);
        assert!(
            (80.0..110.0).contains(&ns),
            "CKI getpid = {ns} ns (Figure 10b: 90 ns)"
        );
    }

    #[test]
    fn ablation_syscall_costs() {
        let wo_opt3 = CkiConfig {
            opt3_direct_sysret: false,
            ..CkiConfig::default()
        };
        let (mut k, mut m) = boot(wo_opt3);
        let mark = m.cpu.clock.mark();
        k.syscall(&mut m, Sys::Getpid).unwrap();
        let ns = m.cpu.clock.since_ns(mark);
        assert!(
            (135.0..175.0).contains(&ns),
            "CKI-wo-OPT3 getpid = {ns} ns (153 ns)"
        );

        let wo_opt2 = CkiConfig {
            opt2_no_pt_switch: false,
            ..CkiConfig::default()
        };
        let (mut k, mut m) = boot(wo_opt2);
        let mark = m.cpu.clock.mark();
        k.syscall(&mut m, Sys::Getpid).unwrap();
        let ns = m.cpu.clock.since_ns(mark);
        assert!(
            (210.0..270.0).contains(&ns),
            "CKI-wo-OPT2 getpid = {ns} ns (238 ns)"
        );
    }

    #[test]
    fn cki_pgfault_near_native() {
        let (mut k, mut m) = boot(CkiConfig::default());
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
            (900.0..1250.0).contains(&per),
            "CKI pgfault = {per} ns (Figure 10a: 1 067 ns)"
        );
    }

    #[test]
    fn cki_hypercall_costs_390ns() {
        let (mut k, mut m) = boot(CkiConfig::default());
        m.cpu.mode = sim_hw::Mode::Kernel; // hypercalls originate in the guest kernel
        let mark = m.cpu.clock.mark();
        k.platform.hypercall(&mut m);
        let ns = m.cpu.clock.since_ns(mark);
        assert!(
            (320.0..450.0).contains(&ns),
            "CKI hypercall = {ns} ns (§7.1: 390 ns)"
        );
    }

    #[test]
    fn nested_is_identical() {
        let (mut k_bm, mut m_bm) = boot(CkiConfig::default());
        let (mut k_nst, mut m_nst) = boot(CkiConfig {
            nested: true,
            ..CkiConfig::default()
        });
        let mark = m_bm.cpu.clock.mark();
        k_bm.platform.hypercall(&mut m_bm);
        let bm = m_bm.cpu.clock.since_ns(mark);
        let mark = m_nst.cpu.clock.mark();
        k_nst.platform.hypercall(&mut m_nst);
        let nst = m_nst.cpu.clock.since_ns(mark);
        assert_eq!(bm, nst, "no L0 intervention: CKI nested == bare-metal");
    }

    #[test]
    fn sidechannel_ablation_slows_gate() {
        let (mut k, mut m) = boot(CkiConfig {
            gate_sidechannel_mitigation: true,
            ..CkiConfig::default()
        });
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 64 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        let mark = m.cpu.clock.mark();
        k.touch_range(&mut m, base, 64 * PAGE_SIZE, true).unwrap();
        let per_mitigated = m.cpu.clock.since_ns(mark) / 64.0;

        let (mut k2, mut m2) = boot(CkiConfig::default());
        let base2 = k2
            .syscall(
                &mut m2,
                Sys::Mmap {
                    len: 64 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        let mark2 = m2.cpu.clock.mark();
        k2.touch_range(&mut m2, base2, 64 * PAGE_SIZE, true)
            .unwrap();
        let per_clean = m2.cpu.clock.since_ns(mark2) / 64.0;
        assert!(
            per_mitigated > per_clean + 200.0,
            "PTI+IBRS on the gate costs hundreds of ns: {per_mitigated} vs {per_clean}"
        );
    }

    #[test]
    fn fork_and_cow_work_under_ksm() {
        let (mut k, mut m) = boot(CkiConfig::default());
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 8 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        k.touch_range(&mut m, base, 8 * PAGE_SIZE, true).unwrap();
        let child = k.syscall(&mut m, Sys::Fork).unwrap() as u32;
        k.touch(&mut m, base, true).unwrap(); // COW break via KSM calls
        k.context_switch(&mut m, child).unwrap();
        k.touch(&mut m, base, false).unwrap();
        k.syscall(&mut m, Sys::Exit { code: 0 }).unwrap();
        k.context_switch(&mut m, 1).unwrap();
        k.syscall(&mut m, Sys::Wait).unwrap();
        assert_eq!(k.nprocs(), 1);
        assert_eq!(k.metrics.value_of("os.cow_breaks", None), 1);
    }

    #[test]
    fn guest_cannot_write_declared_ptp_via_physmap() {
        let (mut k, mut m) = boot(CkiConfig::default());
        // Force a mapping so a PTP exists; then simulate the guest kernel
        // writing to that PTP's physmap alias with PKRS_GUEST.
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        k.touch(&mut m, base, true).unwrap();
        let p = k.platform.as_any().downcast_ref::<CkiPlatform>().unwrap();
        let root = k.proc(1).aspace.root;
        let va = p.ksm.physmap_va(root);
        m.cpu.mode = sim_hw::Mode::Kernel;
        m.cpu.pkrs = pkrs_guest();
        // Reads are fine (write-disable only)...
        m.cpu
            .mem_access(&mut m.mem, va, sim_hw::Access::Read, None)
            .unwrap();
        // ...writes die with a protection-key fault.
        let err = m
            .cpu
            .mem_access(&mut m.mem, va, sim_hw::Access::Write, None)
            .unwrap_err();
        assert!(matches!(
            err,
            Fault::PkViolation {
                key: crate::ksm::KEY_PTP,
                write: true,
                ..
            }
        ));
    }
}
