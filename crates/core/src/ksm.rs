//! The Kernel Security Monitor.
//!
//! One KSM instance lives inside each secure container's address space,
//! isolated from the (deprivileged) guest kernel by PKS: KSM-private pages
//! carry [`KEY_KSM`] (access-disabled in `PKRS_GUEST`), declared page-table
//! pages carry [`KEY_PTP`] (write-disabled). The guest kernel performs
//! private privileged operations — PTP declaration, PTE updates, CR3 loads,
//! `iret` — only through KSM calls (paper §4.3), validated against the
//! nested-kernel-style invariants:
//!
//! 1. only declared pages are used as PTPs;
//! 2. declared PTPs are read-only to the guest (via PKS, not the W bit);
//! 3. only a declared top-level PTP can be loaded into CR3.
//!
//! The KSM also maintains per-vCPU copies of every declared top-level PTP
//! so that the per-vCPU area (secure stacks, saved contexts) appears at a
//! constant virtual address on every vCPU without trusting `kernel_gs`
//! (§4.2, Figure 8c), and it owns the IDT/TSS/IST memory (§4.4).

use std::collections::{BTreeMap, HashMap};

use sim_hw::idt::{self, IdtEntry};
use sim_hw::{pkrs_deny_access, pkrs_deny_write, Machine};
use sim_mem::addr::pt_index;
use sim_mem::{pte, MapFlags, PageTables, Phys, Segment, Virt, PAGE_SIZE};

/// Protection key of KSM-private pages (access-disabled for the guest).
pub const KEY_KSM: u8 = 1;

/// Protection key of declared page-table pages (write-disabled for the
/// guest; CKI uses PKS instead of the PTE W bit so the guest can still
/// *read* its tables — §4.3).
pub const KEY_PTP: u8 = 2;

/// The PKRS value of the deprivileged guest kernel.
pub fn pkrs_guest() -> u32 {
    pkrs_deny_access(KEY_KSM) | pkrs_deny_write(KEY_PTP)
}

/// Virtual base of the physmap (direct map of the delegated segment,
/// kernel-only). Root slot 257.
pub const PHYSMAP_BASE: Virt = 257 << 39;

/// Virtual base of the per-vCPU area — a *constant* address; which physical
/// page it names depends on the per-vCPU page-table copy (Figure 8c).
pub const PERVCPU_BASE: Virt = 259 << 39;

/// Offset of the secure stack top inside the per-vCPU area.
pub const SEC_STACK_TOP: Virt = PERVCPU_BASE + 0xf00;

/// Interrupt vector used by the VirtIO NIC in tests.
pub const VEC_VIRTIO: u8 = 33;

/// Handler token installed in the IDT for the interrupt gate.
pub const INTR_GATE_TOKEN: u64 = 0xCC1_0001;

/// Kind of a delegated physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Ordinary guest data.
    Data,
    /// A declared page-table page at the given level (4 = root).
    Ptp {
        /// Page-table level (4 = PML4 .. 1 = PT).
        level: u8,
    },
}

/// Descriptor the KSM keeps for every delegated physical page (§4.3).
#[derive(Debug, Clone, Copy)]
pub struct PageDesc {
    /// Current kind.
    pub kind: PageKind,
    /// How many PTEs map this page (PTPs must stay at exactly one — their
    /// physmap alias — to prevent aliased writable mappings).
    pub mapped: u32,
}

/// Why the KSM rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KsmError {
    /// Physical address outside the delegated segment.
    OutsideSegment,
    /// Page is not in the expected state.
    BadPageState(&'static str),
    /// The new PTE fails validation.
    BadPte(&'static str),
    /// CR3 target is not a declared top-level PTP.
    BadRoot,
    /// Request names an undeclared PTP.
    NotAPtp,
}

/// KSM statistics.
#[derive(Debug, Default, Clone)]
pub struct KsmStats {
    /// KSM calls served.
    pub calls: u64,
    /// PTPs declared.
    pub declares: u64,
    /// PTE updates applied.
    pub pte_updates: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// CR3 loads validated.
    pub cr3_loads: u64,
}

/// The per-container Kernel Security Monitor.
pub struct Ksm {
    /// The delegated physical segment.
    pub seg: Segment,
    descs: HashMap<Phys, PageDesc>,
    /// Template of the kernel half of every address space (physmap, KSM
    /// region, IDT; everything except the per-vCPU slot).
    template_root: Phys,
    /// Per-vCPU area pages (KSM-private, host frames).
    vcpu_areas: Vec<Phys>,
    /// Per-vCPU PDPT tables mapping the per-vCPU area (one per vCPU).
    vcpu_pdpts: Vec<Phys>,
    /// Declared top-level roots → their per-vCPU copies. Ordered, so that
    /// teardown frees the copies in the same order in every process.
    root_copies: BTreeMap<Phys, Vec<Phys>>,
    /// IDT physical base (KSM memory).
    pub idt_pa: Phys,
    /// TSS physical base (KSM memory; holds the IST pointers).
    pub tss_pa: Phys,
    /// PCID assigned to this container.
    pub pcid: u16,
    /// Statistics.
    pub stats: KsmStats,
    vcpus: u32,
}

impl Ksm {
    /// Builds the KSM for a container over delegated segment `seg` with
    /// `vcpus` virtual CPUs. KSM-private memory comes from host frames.
    ///
    /// # Panics
    ///
    /// Panics if host memory for the KSM structures cannot be allocated.
    pub fn new(m: &mut Machine, seg: Segment, vcpus: u32, pcid: u16) -> Self {
        assert!(vcpus >= 1, "container needs at least one vCPU");
        let Machine { mem, frames, .. } = m;
        let template_root =
            PageTables::new_root(mem, &mut || frames.alloc()).expect("KSM template root");

        // Physmap: map the whole delegated segment kernel-only at
        // PHYSMAP_BASE. Data pages key 0; switched to KEY_PTP on declare.
        PageTables::map_range(
            mem,
            template_root,
            PHYSMAP_BASE,
            seg.start,
            seg.len() / PAGE_SIZE,
            MapFlags::kernel_rw(),
            &mut || frames.alloc(),
        )
        .expect("physmap mapping");

        // IDT + TSS in KSM-private pages, mapped (key KSM) for completeness.
        let idt_pa = frames.alloc().expect("IDT page");
        let tss_pa = frames.alloc().expect("TSS page");
        mem.zero_frame(idt_pa);
        mem.zero_frame(tss_pa);

        // Per-vCPU areas and their per-vCPU mapping tables. The per-vCPU
        // area is one page containing the secure stack, the IST stack, and
        // the saved-context slots.
        let mut vcpu_areas = Vec::new();
        let mut vcpu_pdpts = Vec::new();
        for _ in 0..vcpus {
            let area = frames.alloc().expect("per-vCPU area");
            mem.zero_frame(area);
            vcpu_areas.push(area);
            // Build a dedicated subtree (PDPT→PD→PT) mapping the area at
            // PERVCPU_BASE with the KSM key.
            let pdpt = frames.alloc().expect("per-vCPU PDPT");
            let pd = frames.alloc().expect("per-vCPU PD");
            let pt = frames.alloc().expect("per-vCPU PT");
            for t in [pdpt, pd, pt] {
                mem.zero_frame(t);
            }
            mem.write_u64(
                pdpt + 8 * pt_index(PERVCPU_BASE, 3) as u64,
                pte::make(pd, pte::P | pte::W),
            );
            mem.write_u64(
                pd + 8 * pt_index(PERVCPU_BASE, 2) as u64,
                pte::make(pt, pte::P | pte::W),
            );
            mem.write_u64(
                pt + 8 * pt_index(PERVCPU_BASE, 1) as u64,
                pte::with_pkey(pte::make(area, pte::P | pte::W | pte::NX), KEY_KSM),
            );
            vcpu_pdpts.push(pdpt);
        }

        // The template maps vCPU 0's area so that host-context KSM calls
        // (container boot) can use the secure stack before any guest root
        // exists.
        mem.write_u64(
            template_root + 8 * pt_index(PERVCPU_BASE, 4) as u64,
            pte::make(vcpu_pdpts[0], pte::P | pte::W),
        );

        let mut ksm = Self {
            seg,
            descs: HashMap::new(),
            template_root,
            vcpu_areas,
            vcpu_pdpts,
            root_copies: BTreeMap::new(),
            idt_pa,
            tss_pa,
            pcid,
            stats: KsmStats::default(),
            vcpus,
        };
        ksm.init_interrupts(m);
        ksm
    }

    /// Installs the interrupt gate in the IDT and the IST stacks in the TSS
    /// — all in KSM memory the guest cannot touch (§4.4).
    fn init_interrupts(&mut self, m: &mut Machine) {
        IdtEntry {
            handler: INTR_GATE_TOKEN,
            ist: 1,
            present: true,
        }
        .write_to(&mut m.mem, self.idt_pa, VEC_VIRTIO);
        // Timer vector shares the gate.
        IdtEntry {
            handler: INTR_GATE_TOKEN,
            ist: 1,
            present: true,
        }
        .write_to(&mut m.mem, self.idt_pa, 32);
        // Double fault: hardware-raised, so the PKRS-switch extension makes
        // its KSM-owned IST stack writable; the host kills the container
        // instead of the machine triple-faulting (§4.4).
        IdtEntry {
            handler: INTR_GATE_TOKEN,
            ist: 1,
            present: true,
        }
        .write_to(&mut m.mem, self.idt_pa, 8);
        // The IST stack lives in the per-vCPU area (constant VA).
        idt::write_ist(&mut m.mem, self.tss_pa, 1, PERVCPU_BASE + 0xe00);
    }

    /// Number of vCPUs.
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// The physmap VA of a delegated physical address.
    ///
    /// # Panics
    ///
    /// Panics if `pa` lies outside the delegated segment.
    pub fn physmap_va(&self, pa: Phys) -> Virt {
        assert!(self.seg.contains(pa), "pa outside delegated segment");
        PHYSMAP_BASE + (pa - self.seg.start)
    }

    fn desc(&self, pa: Phys) -> PageDesc {
        self.descs.get(&pa).copied().unwrap_or(PageDesc {
            kind: PageKind::Data,
            mapped: 0,
        })
    }

    /// KSM call: declare `pa` as a page-table page at `level`.
    ///
    /// Verifies the invariants, zeroes the page, switches its physmap alias
    /// to [`KEY_PTP`], and — for roots — creates the per-vCPU copies with
    /// the kernel half stamped in.
    pub fn declare_ptp(&mut self, m: &mut Machine, pa: Phys, level: u8) -> Result<(), KsmError> {
        self.stats.calls += 1;
        if !(1..=4).contains(&level) {
            return Err(KsmError::BadPageState("bad PTP level"));
        }
        if !self.seg.contains(pa) {
            self.stats.rejected += 1;
            return Err(KsmError::OutsideSegment);
        }
        let d = self.desc(pa);
        if d.kind != PageKind::Data || d.mapped != 0 {
            self.stats.rejected += 1;
            return Err(KsmError::BadPageState("page in use"));
        }
        m.mem.zero_frame(pa);
        // Re-key the physmap alias so the guest can read but not write it.
        let va = self.physmap_va(pa);
        let leaf = PageTables::walk(&mut m.mem, self.template_root, va)
            .expect("physmap covers the segment")
            .leaf;
        PageTables::update_leaf(
            &mut m.mem,
            self.template_root,
            va,
            pte::with_pkey(leaf, KEY_PTP),
        );
        m.cpu.tlb.flush_va(va, self.pcid);
        self.descs.insert(
            pa,
            PageDesc {
                kind: PageKind::Ptp { level },
                mapped: 1,
            },
        );
        self.stats.declares += 1;

        if level == 4 {
            self.make_root_copies(m, pa);
        }
        Ok(())
    }

    /// Creates the per-vCPU copies of a declared root and stamps the kernel
    /// half (physmap + per-vCPU slot) into each copy and into the original.
    fn make_root_copies(&mut self, m: &mut Machine, root: Phys) {
        // Stamp the template's kernel half into the original root.
        PageTables::copy_root_entries(&mut m.mem, self.template_root, root, 256..512);
        let mut copies = Vec::new();
        for v in 0..self.vcpus as usize {
            let copy = m.frames.alloc().expect("root copy");
            m.mem.zero_frame(copy);
            // Full copy of the original (user half currently empty + kernel half).
            PageTables::copy_root_entries(&mut m.mem, root, copy, 0..512);
            // Per-vCPU slot: point at this vCPU's private PDPT.
            m.mem.write_u64(
                copy + 8 * pt_index(PERVCPU_BASE, 4) as u64,
                pte::make(self.vcpu_pdpts[v], pte::P | pte::W),
            );
            copies.push(copy);
        }
        self.root_copies.insert(root, copies);
    }

    /// KSM call: write `new_pte` into slot `index` of declared PTP `ptp`.
    ///
    /// Validation (§4.3): the target of a non-leaf entry must be a declared
    /// PTP of the next level; the target of a leaf must be a delegated data
    /// page that is not a PTP; new kernel-executable mappings are forbidden
    /// (no fresh `wrpkrs` instructions can appear — §4.1).
    pub fn update_pte(
        &mut self,
        m: &mut Machine,
        ptp: Phys,
        index: usize,
        new_pte: u64,
    ) -> Result<u64, KsmError> {
        self.stats.calls += 1;
        let PageKind::Ptp { level } = self.desc(ptp).kind else {
            self.stats.rejected += 1;
            return Err(KsmError::NotAPtp);
        };
        if index >= 512 {
            self.stats.rejected += 1;
            return Err(KsmError::BadPte("index out of range"));
        }
        if level == 4 && index >= 256 {
            self.stats.rejected += 1;
            return Err(KsmError::BadPte("kernel half is KSM-managed"));
        }
        let slot = ptp + 8 * index as u64;
        let old = m.mem.read_u64(slot);

        if pte::present(new_pte) {
            let target = pte::addr(new_pte);
            if !self.seg.contains(target) {
                self.stats.rejected += 1;
                return Err(KsmError::BadPte("target outside delegated segment"));
            }
            let tdesc = self.desc(target);
            if level > 1 {
                match tdesc.kind {
                    PageKind::Ptp { level: tl } if tl == level - 1 => {}
                    _ => {
                        self.stats.rejected += 1;
                        return Err(KsmError::BadPte("non-leaf target is not a declared PTP"));
                    }
                }
            } else {
                if matches!(tdesc.kind, PageKind::Ptp { .. }) {
                    self.stats.rejected += 1;
                    return Err(KsmError::BadPte("leaf maps a declared PTP"));
                }
                // Kernel-executable mapping: U=0 and NX=0 — forbidden.
                if new_pte & pte::U == 0 && new_pte & pte::NX == 0 {
                    self.stats.rejected += 1;
                    return Err(KsmError::BadPte("new kernel-executable mapping"));
                }
                // Reference counting: leaves map data pages.
                if pte::present(old) {
                    let old_t = pte::addr(old);
                    if let Some(d) = self.descs.get_mut(&old_t) {
                        d.mapped = d.mapped.saturating_sub(1);
                    }
                }
                let e = self.descs.entry(target).or_insert(PageDesc {
                    kind: PageKind::Data,
                    mapped: 0,
                });
                e.mapped += 1;
            }
        } else if pte::present(old) && level == 1 {
            let old_t = pte::addr(old);
            if let Some(d) = self.descs.get_mut(&old_t) {
                d.mapped = d.mapped.saturating_sub(1);
            }
        }

        m.mem.write_u64(slot, new_pte);
        // Root updates propagate to the per-vCPU copies.
        if level == 4 {
            if let Some(copies) = self.root_copies.get(&ptp) {
                for &copy in copies {
                    m.mem.write_u64(copy + 8 * index as u64, new_pte);
                }
            }
        }
        self.stats.pte_updates += 1;
        Ok(old)
    }

    /// KSM call: validate and perform a CR3 load for `vcpu`.
    ///
    /// Only declared top-level PTPs are accepted; the per-vCPU *copy* is
    /// what actually lands in CR3 (§4.3).
    pub fn load_cr3(&mut self, m: &mut Machine, root: Phys, vcpu: u32) -> Result<(), KsmError> {
        self.stats.calls += 1;
        let Some(copies) = self.root_copies.get(&root) else {
            self.stats.rejected += 1;
            return Err(KsmError::BadRoot);
        };
        let copy = copies[vcpu as usize % copies.len()];
        // Same-PCID process switch inside the container: flush. The PCID
        // still protects *other* containers' entries (§4.1).
        m.cpu.set_cr3(copy, self.pcid, false);
        self.stats.cr3_loads += 1;
        Ok(())
    }

    /// KSM call: read root entry `index`, propagating A/D bits from the
    /// per-vCPU copies into the original (§4.3).
    pub fn read_root_pte(
        &mut self,
        m: &mut Machine,
        root: Phys,
        index: usize,
    ) -> Result<u64, KsmError> {
        self.stats.calls += 1;
        let Some(copies) = self.root_copies.get(&root) else {
            return Err(KsmError::BadRoot);
        };
        let copies = copies.clone();
        let slot = root + 8 * index as u64;
        let mut merged = m.mem.read_u64(slot);
        for copy in copies {
            let c = m.mem.read_u64(copy + 8 * index as u64);
            merged |= c & (pte::A | pte::D);
        }
        m.mem.write_u64(slot, merged);
        Ok(merged)
    }

    /// KSM call: toggle the CR0.TS bit for lazy FPU switching — one of the
    /// explicit KSM-call replacements in Table 3 ("toggling CR0 TS-bit for
    /// lazy FPU switching"). Only the TS bit may change.
    pub fn set_cr0_ts(&mut self, m: &mut Machine, ts: bool) -> Result<(), KsmError> {
        self.stats.calls += 1;
        const CR0_TS: u64 = 1 << 3;
        let new_cr0 = if ts {
            m.cpu.cr0 | CR0_TS
        } else {
            m.cpu.cr0 & !CR0_TS
        };
        // The KSM executes the privileged write on the guest's behalf.
        m.cpu
            .exec(&mut m.mem, sim_hw::Instr::WriteCr0 { value: new_cr0 })
            .map_err(|_| KsmError::BadPageState("cr0 write rejected"))?;
        Ok(())
    }

    /// KSM call: undeclare a PTP (teardown). The page reverts to data.
    pub fn undeclare_ptp(&mut self, m: &mut Machine, pa: Phys) -> Result<(), KsmError> {
        self.stats.calls += 1;
        let PageKind::Ptp { level } = self.desc(pa).kind else {
            return Err(KsmError::NotAPtp);
        };
        // Restore the physmap key.
        let va = self.physmap_va(pa);
        let leaf = PageTables::walk(&mut m.mem, self.template_root, va)
            .expect("physmap covers the segment")
            .leaf;
        PageTables::update_leaf(&mut m.mem, self.template_root, va, pte::with_pkey(leaf, 0));
        m.cpu.tlb.flush_va(va, self.pcid);
        if level == 4 {
            if let Some(copies) = self.root_copies.remove(&pa) {
                for copy in copies {
                    m.mem.zero_frame(copy);
                    m.frames.free(copy);
                }
            }
        }
        self.descs.remove(&pa);
        Ok(())
    }

    /// The per-vCPU area page of `vcpu` (KSM-private host frame).
    pub fn vcpu_area(&self, vcpu: u32) -> Phys {
        self.vcpu_areas[vcpu as usize % self.vcpu_areas.len()]
    }

    /// The per-vCPU copy currently backing `root` for `vcpu` (tests).
    pub fn root_copy(&self, root: Phys, vcpu: u32) -> Option<Phys> {
        self.root_copies
            .get(&root)
            .map(|c| c[vcpu as usize % c.len()])
    }

    /// The template root holding the kernel-half mappings (tests).
    pub fn template_root(&self) -> Phys {
        self.template_root
    }

    /// Iterates over every page descriptor the KSM tracks (snapshot/clone
    /// support: the host control plane exports the authoritative page-kind
    /// map of a template container).
    pub fn pages(&self) -> impl Iterator<Item = (Phys, PageDesc)> + '_ {
        self.descs.iter().map(|(&pa, &d)| (pa, d))
    }

    /// Host-side import of a page descriptor during a snapshot clone.
    ///
    /// Unlike [`Ksm::declare_ptp`] this is not a guest KSM call and does
    /// *not* zero the page — the clone path has already copied the
    /// template's (rebased) page contents into place and the descriptor is
    /// trusted because it comes from another KSM instance's validated
    /// state. PTPs get their physmap alias re-keyed to [`KEY_PTP`] and
    /// roots get per-vCPU copies, exactly as a fresh declaration would.
    ///
    /// Roots must be imported *after* their user-half entries have been
    /// rebased into the new segment, because the per-vCPU copies snapshot
    /// the root's current contents.
    pub fn adopt_page(
        &mut self,
        m: &mut Machine,
        pa: Phys,
        desc: PageDesc,
    ) -> Result<(), KsmError> {
        if !self.seg.contains(pa) {
            return Err(KsmError::OutsideSegment);
        }
        if self.descs.contains_key(&pa) {
            return Err(KsmError::BadPageState("page already tracked"));
        }
        if let PageKind::Ptp { level } = desc.kind {
            let va = self.physmap_va(pa);
            let leaf = PageTables::walk(&mut m.mem, self.template_root, va)
                .expect("physmap covers the segment")
                .leaf;
            PageTables::update_leaf(
                &mut m.mem,
                self.template_root,
                va,
                pte::with_pkey(leaf, KEY_PTP),
            );
            m.cpu.tlb.flush_va(va, self.pcid);
            self.descs.insert(pa, desc);
            if level == 4 {
                self.make_root_copies(m, pa);
            }
        } else {
            self.descs.insert(pa, desc);
        }
        Ok(())
    }

    /// In-place migration of the container to `new_seg` (compaction).
    ///
    /// The caller has already copied the segment's page contents to the
    /// new range. This rewrites every translation that named the old
    /// range — physmap leaves, PTP entries (the guest's own page tables),
    /// and the user halves of the per-vCPU root copies — then retags the
    /// KSM's bookkeeping and flushes the container's TLB tag. Returns the
    /// number of PTE rewrites performed so the host can charge cycles.
    ///
    /// # Panics
    ///
    /// Panics if `new_seg` has a different length than the current one.
    pub fn rebase(&mut self, m: &mut Machine, new_seg: Segment) -> u64 {
        let old = self.seg;
        assert_eq!(new_seg.len(), old.len(), "rebase must preserve length");
        if new_seg == old {
            return 0;
        }
        let shift = |pa: Phys| new_seg.start + (pa - old.start);
        let mut rewrites = 0u64;

        // Physmap leaves: same VAs, shifted targets. The per-vCPU root
        // copies share the physmap subtree frames, so rewriting through
        // the template covers every root.
        let pages = old.len() / PAGE_SIZE;
        PageTables::update_leaves(
            &mut m.mem,
            self.template_root,
            PHYSMAP_BASE,
            pages,
            |leaf| (leaf & !pte::ADDR_MASK) | shift(pte::addr(leaf)),
        )
        .unwrap_or_else(|va| panic!("physmap covers the segment: {va:#x} unmapped"));
        rewrites += pages;

        // Shift the descriptor map, then rewrite the guest-owned entries
        // of every PTP at its *new* location (contents were copied by the
        // caller). Non-root PTPs hold only guest entries; roots keep their
        // KSM-managed kernel half untouched.
        let descs: Vec<(Phys, PageDesc)> = self.descs.drain().collect();
        for (pa, d) in descs {
            let new_pa = shift(pa);
            if let PageKind::Ptp { level } = d.kind {
                let slots = if level == 4 { 0..256 } else { 0..512 };
                for i in slots {
                    let slot = new_pa + 8 * i as u64;
                    let e = m.mem.read_u64(slot);
                    if pte::present(e) && old.contains(pte::addr(e)) {
                        m.mem
                            .write_u64(slot, (e & !pte::ADDR_MASK) | shift(pte::addr(e)));
                        rewrites += 1;
                    }
                }
            }
            self.descs.insert(new_pa, d);
        }

        // Root copies: shift the keys and rebase the user half of each
        // copy (host frames; kernel halves point at host table frames).
        for (root, roots) in std::mem::take(&mut self.root_copies) {
            for &copy in &roots {
                for i in 0..256 {
                    let slot = copy + 8 * i as u64;
                    let e = m.mem.read_u64(slot);
                    if pte::present(e) && old.contains(pte::addr(e)) {
                        m.mem
                            .write_u64(slot, (e & !pte::ADDR_MASK) | shift(pte::addr(e)));
                        rewrites += 1;
                    }
                }
            }
            self.root_copies.insert(shift(root), roots);
        }

        self.seg = new_seg;
        m.cpu.tlb.flush_pcid(self.pcid);
        rewrites
    }

    /// Frees every host frame backing this KSM instance (container stop).
    ///
    /// Reclaims the template page-table tree (physmap + per-vCPU
    /// subtrees), the per-vCPU areas, the IDT/TSS pages, and all per-vCPU
    /// root copies. Leaf *targets* inside the delegated segment are left
    /// alone — the segment is returned to the pool by the caller.
    /// Idempotent: a second call is a no-op.
    pub fn teardown(&mut self, m: &mut Machine) {
        if self.template_root == 0 {
            return;
        }
        for copies in std::mem::take(&mut self.root_copies).into_values() {
            for copy in copies {
                m.mem.zero_frame(copy);
                m.frames.free(copy);
            }
        }
        // The template tree reaches the physmap subtree and (via the
        // per-vCPU slot) vCPU 0's pdpt/pd/pt chain.
        Self::free_table_tree(m, self.template_root, 4);
        for v in 1..self.vcpu_pdpts.len() {
            Self::free_table_tree(m, self.vcpu_pdpts[v], 3);
        }
        for &area in &self.vcpu_areas {
            m.mem.zero_frame(area);
            m.frames.free(area);
        }
        for pa in [self.idt_pa, self.tss_pa] {
            m.mem.zero_frame(pa);
            m.frames.free(pa);
        }
        self.vcpu_areas.clear();
        self.vcpu_pdpts.clear();
        self.descs.clear();
        self.template_root = 0;
    }

    /// Recursively frees a page-table subtree's *table* frames (never the
    /// level-1 leaf targets, which are segment or per-vCPU-area pages).
    fn free_table_tree(m: &mut Machine, table: Phys, level: u8) {
        if level > 1 {
            for i in 0..512 {
                let e = m.mem.read_u64(table + 8 * i as u64);
                if pte::present(e) {
                    Self::free_table_tree(m, pte::addr(e), level - 1);
                }
            }
        }
        m.mem.zero_frame(table);
        m.frames.free(table);
    }
}

impl std::fmt::Debug for Ksm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ksm")
            .field("seg", &self.seg)
            .field("declared", &self.stats.declares)
            .field("pte_updates", &self.stats.pte_updates)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_hw::HwExtensions;
    use sim_mem::FrameAllocator;

    fn setup() -> (Machine, Ksm, FrameAllocator) {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::cki());
        let base = m.frames.alloc_contiguous(16 * 1024).expect("segment"); // 64 MiB
        let seg = Segment {
            start: base,
            end: base + 16 * 1024 * PAGE_SIZE,
        };
        let ksm = Ksm::new(&mut m, seg, 2, 3);
        let guest_alloc = FrameAllocator::new(seg.start, seg.end);
        (m, ksm, guest_alloc)
    }

    #[test]
    fn declare_and_map_data_page() {
        let (mut m, mut ksm, mut ga) = setup();
        let root = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, root, 4).unwrap();
        let pt3 = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, pt3, 3).unwrap();
        ksm.update_pte(
            &mut m,
            root,
            pt_index(0x40_0000, 4),
            pte::make(pt3, pte::P | pte::W | pte::U),
        )
        .unwrap();
        let data = ga.alloc().unwrap();
        let pt2 = ga.alloc().unwrap();
        let pt1 = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, pt2, 2).unwrap();
        ksm.declare_ptp(&mut m, pt1, 1).unwrap();
        ksm.update_pte(
            &mut m,
            pt3,
            pt_index(0x40_0000, 3),
            pte::make(pt2, pte::P | pte::W | pte::U),
        )
        .unwrap();
        ksm.update_pte(
            &mut m,
            pt2,
            pt_index(0x40_0000, 2),
            pte::make(pt1, pte::P | pte::W | pte::U),
        )
        .unwrap();
        ksm.update_pte(
            &mut m,
            pt1,
            pt_index(0x40_0000, 1),
            pte::make(data, pte::P | pte::W | pte::U | pte::NX),
        )
        .unwrap();
        // The mapping resolves through the per-vCPU copy.
        let copy = ksm.root_copy(root, 0).unwrap();
        let w = PageTables::walk(&mut m.mem, copy, 0x40_0000).unwrap();
        assert_eq!(pte::addr(w.leaf), data);
    }

    #[test]
    fn reject_undeclared_ptp_target() {
        let (mut m, mut ksm, mut ga) = setup();
        let root = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, root, 4).unwrap();
        let rogue = ga.alloc().unwrap(); // data page, not declared
        let err = ksm
            .update_pte(&mut m, root, 0, pte::make(rogue, pte::P | pte::W | pte::U))
            .unwrap_err();
        assert_eq!(
            err,
            KsmError::BadPte("non-leaf target is not a declared PTP")
        );
    }

    #[test]
    fn reject_leaf_mapping_a_ptp() {
        let (mut m, mut ksm, mut ga) = setup();
        let pt1 = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, pt1, 1).unwrap();
        let victim_ptp = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, victim_ptp, 1).unwrap();
        let err = ksm
            .update_pte(
                &mut m,
                pt1,
                0,
                pte::make(victim_ptp, pte::P | pte::W | pte::U | pte::NX),
            )
            .unwrap_err();
        assert_eq!(err, KsmError::BadPte("leaf maps a declared PTP"));
    }

    #[test]
    fn reject_kernel_executable_mapping() {
        let (mut m, mut ksm, mut ga) = setup();
        let pt1 = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, pt1, 1).unwrap();
        let data = ga.alloc().unwrap();
        // U=0, NX=0: would let the guest forge wrpkrs gates.
        let err = ksm
            .update_pte(&mut m, pt1, 0, pte::make(data, pte::P | pte::W))
            .unwrap_err();
        assert_eq!(err, KsmError::BadPte("new kernel-executable mapping"));
        // User-executable or kernel-NX are fine.
        ksm.update_pte(&mut m, pt1, 0, pte::make(data, pte::P | pte::U))
            .unwrap();
        ksm.update_pte(&mut m, pt1, 1, pte::make(data, pte::P | pte::NX))
            .unwrap();
    }

    #[test]
    fn reject_outside_segment() {
        let (mut m, mut ksm, _ga) = setup();
        assert_eq!(
            ksm.declare_ptp(&mut m, 0x1000, 4),
            Err(KsmError::OutsideSegment)
        );
        let (mut m2, mut ksm2, mut ga2) = setup();
        let pt1 = ga2.alloc().unwrap();
        ksm2.declare_ptp(&mut m2, pt1, 1).unwrap();
        let err = ksm2
            .update_pte(&mut m2, pt1, 0, pte::make(0x2000, pte::P | pte::U))
            .unwrap_err();
        assert_eq!(err, KsmError::BadPte("target outside delegated segment"));
    }

    #[test]
    fn reject_double_declare_and_mapped_declare() {
        let (mut m, mut ksm, mut ga) = setup();
        let p = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, p, 1).unwrap();
        assert!(ksm.declare_ptp(&mut m, p, 1).is_err());
        // A data page that is mapped somewhere cannot become a PTP.
        let pt1 = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, pt1, 1).unwrap();
        let data = ga.alloc().unwrap();
        ksm.update_pte(&mut m, pt1, 0, pte::make(data, pte::P | pte::U))
            .unwrap();
        assert_eq!(
            ksm.declare_ptp(&mut m, data, 1),
            Err(KsmError::BadPageState("page in use"))
        );
    }

    #[test]
    fn cr3_only_declared_roots() {
        let (mut m, mut ksm, mut ga) = setup();
        let rogue = ga.alloc().unwrap();
        assert_eq!(ksm.load_cr3(&mut m, rogue, 0), Err(KsmError::BadRoot));
        let root = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, root, 4).unwrap();
        ksm.load_cr3(&mut m, root, 0).unwrap();
        // CR3 holds the per-vCPU copy, not the original.
        assert_eq!(m.cpu.cr3_root(), ksm.root_copy(root, 0).unwrap());
        ksm.load_cr3(&mut m, root, 1).unwrap();
        assert_eq!(m.cpu.cr3_root(), ksm.root_copy(root, 1).unwrap());
        assert_ne!(ksm.root_copy(root, 0), ksm.root_copy(root, 1));
    }

    #[test]
    fn kernel_half_updates_rejected() {
        let (mut m, mut ksm, mut ga) = setup();
        let root = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, root, 4).unwrap();
        let err = ksm.update_pte(&mut m, root, 300, pte::P).unwrap_err();
        assert_eq!(err, KsmError::BadPte("kernel half is KSM-managed"));
    }

    #[test]
    fn pervcpu_area_constant_va_different_pages() {
        let (mut m, mut ksm, mut ga) = setup();
        let root = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, root, 4).unwrap();
        let copy0 = ksm.root_copy(root, 0).unwrap();
        let copy1 = ksm.root_copy(root, 1).unwrap();
        let w0 = PageTables::walk(&mut m.mem, copy0, PERVCPU_BASE).unwrap();
        let w1 = PageTables::walk(&mut m.mem, copy1, PERVCPU_BASE).unwrap();
        assert_ne!(w0.pa, w1.pa, "same VA, per-vCPU physical pages");
        assert_eq!(pte::pkey(w0.leaf), KEY_KSM);
    }

    #[test]
    fn ad_bit_propagation_from_copies() {
        let (mut m, mut ksm, mut ga) = setup();
        let root = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, root, 4).unwrap();
        let pt3 = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, pt3, 3).unwrap();
        ksm.update_pte(&mut m, root, 5, pte::make(pt3, pte::P | pte::W | pte::U))
            .unwrap();
        // Hardware sets A on the copy during a walk; simulate that.
        let copy = ksm.root_copy(root, 1).unwrap();
        let v = m.mem.read_u64(copy + 8 * 5);
        m.mem.write_u64(copy + 8 * 5, v | pte::A | pte::D);
        let merged = ksm.read_root_pte(&mut m, root, 5).unwrap();
        assert!(merged & pte::A != 0 && merged & pte::D != 0);
        // And the original now carries them.
        assert!(m.mem.read_u64(root + 8 * 5) & pte::A != 0);
    }

    #[test]
    fn cr0_ts_toggle_via_ksm() {
        let (mut m, mut ksm, _ga) = setup();
        const CR0_TS: u64 = 1 << 3;
        // The guest kernel cannot write CR0 itself...
        m.cpu.pkrs = pkrs_guest();
        let err = m
            .cpu
            .exec(
                &mut m.mem,
                sim_hw::Instr::WriteCr0 {
                    value: m.cpu.cr0 | CR0_TS,
                },
            )
            .unwrap_err();
        assert!(matches!(err, sim_hw::Fault::BlockedPrivileged { .. }));
        // ...but the KSM toggles TS on its behalf (lazy FPU, Table 3).
        m.cpu.pkrs = 0;
        ksm.set_cr0_ts(&mut m, true).unwrap();
        assert!(m.cpu.cr0 & CR0_TS != 0);
        ksm.set_cr0_ts(&mut m, false).unwrap();
        assert!(m.cpu.cr0 & CR0_TS == 0);
    }

    /// Every physmap leaf of `ksm`, in segment order.
    fn physmap_leaves(m: &mut Machine, ksm: &Ksm) -> Vec<u64> {
        (0..ksm.seg.len() / PAGE_SIZE)
            .map(|i| {
                PageTables::walk(
                    &mut m.mem,
                    ksm.template_root(),
                    PHYSMAP_BASE + i * PAGE_SIZE,
                )
                .expect("physmap covers the segment")
                .leaf
            })
            .collect()
    }

    #[test]
    fn new_maps_every_segment_page_kernel_only() {
        let (mut m, ksm, _ga) = setup();
        let want = MapFlags::kernel_rw().encode();
        for (i, leaf) in physmap_leaves(&mut m, &ksm).into_iter().enumerate() {
            assert_eq!(pte::addr(leaf), ksm.seg.start + i as u64 * PAGE_SIZE);
            assert_eq!(leaf & !pte::ADDR_MASK, want, "page {i}");
        }
    }

    #[test]
    fn rebase_shifts_every_translation_and_counts_each_rewrite() {
        let (mut m, mut ksm, mut ga) = setup();
        // A guest address space: root → pt3 → pt2 → pt1 → 5 data pages.
        let root = ga.alloc().unwrap();
        ksm.declare_ptp(&mut m, root, 4).unwrap();
        let mut table = root;
        for level in [3, 2, 1] {
            let next = ga.alloc().unwrap();
            ksm.declare_ptp(&mut m, next, level).unwrap();
            ksm.update_pte(
                &mut m,
                table,
                pt_index(0x40_0000, level + 1),
                pte::make(next, pte::P | pte::W | pte::U),
            )
            .unwrap();
            table = next;
        }
        for i in 0..5 {
            let data = ga.alloc().unwrap();
            let leaf = pte::make(data, pte::P | pte::W | pte::U | pte::NX);
            ksm.update_pte(&mut m, table, i, leaf).unwrap();
        }
        let old = ksm.seg;
        let before = physmap_leaves(&mut m, &ksm);
        assert_eq!(
            before.iter().filter(|&&l| pte::pkey(l) == KEY_PTP).count(),
            4,
            "declared PTPs carry KEY_PTP"
        );

        let len = old.len();
        let base = m.frames.alloc_contiguous(len / PAGE_SIZE).expect("segment");
        let new = Segment {
            start: base,
            end: base + len,
        };
        m.mem.copy_range(old.start, new.start, len);
        let rewrites = ksm.rebase(&mut m, new);
        // Physmap pages + guest PTP entries (3 interior + 5 leaves) + the
        // user-half entry of each of the 2 per-vCPU root copies.
        assert_eq!(rewrites, len / PAGE_SIZE + 3 + 5 + 2);

        let after = physmap_leaves(&mut m, &ksm);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(
                pte::addr(*a),
                pte::addr(*b) - old.start + new.start,
                "page {i}"
            );
            assert_eq!(
                a & !pte::ADDR_MASK,
                b & !pte::ADDR_MASK,
                "page {i} flags/pkey"
            );
        }
        // The guest mapping resolves to the shifted data page through the
        // shifted root's per-vCPU copy.
        let copy = ksm.root_copy(root - old.start + new.start, 1).unwrap();
        let w = PageTables::walk(&mut m.mem, copy, 0x40_0000 + 4 * PAGE_SIZE).unwrap();
        assert!(new.contains(w.pa));
    }

    #[test]
    fn physmap_key_lifecycle() {
        let (mut m, mut ksm, mut ga) = setup();
        let p = ga.alloc().unwrap();
        let va = ksm.physmap_va(p);
        let key_before = pte::pkey(
            PageTables::walk(&mut m.mem, ksm.template_root(), va)
                .unwrap()
                .leaf,
        );
        assert_eq!(key_before, 0);
        ksm.declare_ptp(&mut m, p, 1).unwrap();
        let key_decl = pte::pkey(
            PageTables::walk(&mut m.mem, ksm.template_root(), va)
                .unwrap()
                .leaf,
        );
        assert_eq!(key_decl, KEY_PTP);
        ksm.undeclare_ptp(&mut m, p).unwrap();
        let key_after = pte::pkey(
            PageTables::walk(&mut m.mem, ksm.template_root(), va)
                .unwrap()
                .leaf,
        );
        assert_eq!(key_after, 0);
    }
}
