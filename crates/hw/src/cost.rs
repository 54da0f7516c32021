//! Cycle cost model and the simulated clock.
//!
//! All costs are CPU cycles on the paper's testbed frequency (AMD EPYC-9654
//! at 2.4 GHz), so `ns = cycles / 2.4`. The primitive costs below are
//! calibrated so the composite paths land on the paper's measured values
//! (Table 2, Figure 10, §7.1); the calibration table lives in DESIGN.md §4.
//!
//! The clock additionally attributes charged cycles to [`Tag`] buckets so
//! the harness can regenerate the paper's latency *breakdowns* (Figure 10a:
//! page-fault handler vs VM exits vs shadow-paging emulation vs KSM calls).

/// Attribution bucket for charged cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Ordinary kernel handler work (fault handler, syscall handler body).
    Handler,
    /// Hardware VM exits and entries (VMCS world switches) and their
    /// PVM software analogue (guest/host context switches).
    VmExit,
    /// Shadow-page-table emulation work (PVM) / shadow-EPT emulation (nested HVM).
    SptEmul,
    /// EPT-fault handling work (bare-metal HVM).
    EptFault,
    /// KSM call gates and KSM handler work (CKI).
    KsmCall,
    /// Syscall entry/exit path (trap, sysret, swapgs, redirection hops).
    SyscallPath,
    /// Address translation: TLB misses and page-walk loads.
    Mmu,
    /// I/O: VirtIO queues, device emulation, interrupt delivery.
    Io,
    /// Application-level compute.
    Compute,
    /// Scheduling and context switching.
    Sched,
    /// Anything else.
    Other,
}

impl Tag {
    /// All tags, for iteration in reports.
    pub const ALL: [Tag; 11] = [
        Tag::Handler,
        Tag::VmExit,
        Tag::SptEmul,
        Tag::EptFault,
        Tag::KsmCall,
        Tag::SyscallPath,
        Tag::Mmu,
        Tag::Io,
        Tag::Compute,
        Tag::Sched,
        Tag::Other,
    ];

    fn index(self) -> usize {
        match self {
            Tag::Handler => 0,
            Tag::VmExit => 1,
            Tag::SptEmul => 2,
            Tag::EptFault => 3,
            Tag::KsmCall => 4,
            Tag::SyscallPath => 5,
            Tag::Mmu => 6,
            Tag::Io => 7,
            Tag::Compute => 8,
            Tag::Sched => 9,
            Tag::Other => 10,
        }
    }
}

/// Primitive cycle costs of architectural events.
///
/// Field docs cite the paper measurement each value is calibrated against.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Core frequency in GHz; the paper's EPYC-9654 runs at 2.4 GHz.
    pub freq_ghz: f64,

    // --- Instruction-level costs -------------------------------------------------
    /// A generic retired instruction.
    pub instr: u64,
    /// `syscall` user→kernel transition (part of the 90 ns native getpid).
    pub syscall_entry: u64,
    /// `sysret` kernel→user transition.
    pub sysret: u64,
    /// `swapgs`.
    pub swapgs: u64,
    /// `wrpkrs`/`wrpkru` write to a protection-key register. ERIM-style gates
    /// measure wrpkru at ~25 ns; two PKS switches must add 63 ns to a syscall
    /// (CKI-wo-OPT3: 153 ns vs 90 ns, Figure 10b).
    pub wrpkrs: u64,
    /// The post-`wrpkrs` forged-value check (`cmp`/`jne abort`, Figure 8a).
    pub pks_check: u64,
    /// `wrmsr` (e.g. timer programming, IPIs).
    pub wrmsr: u64,
    /// `rdmsr`.
    pub rdmsr: u64,
    /// `mov cr3` including the pipeline cost; CKI-wo-OPT2 shows two of these
    /// plus PCID bookkeeping add 148 ns to a syscall (238 ns vs 90 ns).
    pub cr3_switch: u64,
    /// `invlpg` single-entry flush.
    pub invlpg: u64,
    /// `iret`.
    pub iret: u64,
    /// `hlt` until next event (cost of the instruction itself).
    pub hlt: u64,
    /// Exception/interrupt delivery through the IDT (vector, stack push, IST).
    pub exception_entry: u64,

    // --- Memory system -----------------------------------------------------------
    /// TLB hit (folded into `instr` cost; kept separate for reporting).
    pub tlb_hit: u64,
    /// One page-table load during a walk (cache-resident PTE).
    pub pt_load: u64,
    /// Average extra cost per first-stage level when the walk goes through
    /// a second stage. Paging-structure caches absorb most of the nominal
    /// 24-load 2-D walk, leaving ~55-60 extra cycles per missed translation
    /// — calibrated against Table 4 (GUPS: 54.9 s native vs 67.8 s HVM,
    /// +23 %, with a near-100 % TLB miss rate).
    pub stage2_load: u64,
    /// Zeroing a fresh 4 KiB page in the fault path.
    pub zero_page: u64,
    /// Zeroing a fresh 2 MiB page (amortized per fault when huge pages on).
    pub zero_huge_page: u64,
    /// Buddy/frame-allocator work per allocation.
    pub frame_alloc: u64,
    /// VMA lookup in the fault path.
    pub vma_lookup: u64,
    /// Writing one PTE (store + potential TLB shootdown bookkeeping).
    pub pte_write: u64,

    // --- Virtualization ----------------------------------------------------------
    /// One hardware VM exit (VMCS world switch, guest→host).
    pub vm_exit: u64,
    /// One hardware VM entry (host→guest).
    pub vm_entry: u64,
    /// Additional per-transition cost when the L0 hypervisor mediates a
    /// nested transition (VMCS shadow sync, state merge). Calibrated so an
    /// empty L2 hypercall costs 6 746 ns (Table 2 NST).
    pub nested_transition: u64,
    /// EPT-violation handling work in the host (walk + map), excluding the
    /// exit/entry pair. Calibrated so a BM HVM page fault costs ~3.3 µs
    /// total (Figure 10a: 1 164 handler + 2 093 EPT fault).
    pub ept_violation_work: u64,
    /// Shadow-EPT emulation work per L2 EPT fault in a nested cloud
    /// (Figure 10a: 30 881 ns beyond the L2 handler).
    pub sept_emulation_work: u64,
    /// PVM lightweight guest↔host switch (address-space + mode switch, one
    /// direction). Six of these plus emulation make the 4 407 ns PVM fault.
    pub pvm_switch: u64,
    /// PVM syscall redirection hop (extra user↔kernel crossing plus entry
    /// trampoline); two of these plus two CR3 switches take getpid from
    /// 90 ns to 336 ns.
    pub pvm_redirect_hop: u64,
    /// Shadow-page-table emulation per guest page fault (walk gPT, gPA→hPA
    /// via VMA, SPT update, exception injection): 1 828 ns in Figure 10a.
    pub spt_emulation_work: u64,
    /// Page-table-isolation (PTI) CR3 toggle pair, when a crossing needs it.
    pub pti: u64,
    /// IBRS write (indirect-branch restricted speculation) on a crossing.
    pub ibrs: u64,

    // --- CKI gates ---------------------------------------------------------------
    /// Secure-stack switch inside the KSM call gate.
    pub ksm_stack_switch: u64,
    /// KSM request validation (descriptor lookup + checks) per call.
    pub ksm_validate: u64,

    // --- I/O ---------------------------------------------------------------------
    /// VirtIO queue descriptor processing per request (host side).
    pub virtio_process: u64,
    /// One split-ring descriptor or index access through guest physical
    /// memory (cache-coherent DMA read/write; same currency as `pt_load`).
    pub dma_desc: u64,
    /// Device-side work per network packet (copy + fabric).
    pub net_packet: u64,
    /// Interrupt injection bookkeeping in the host.
    pub irq_inject: u64,
    /// Application-level cost of one byte of copying (memcpy throughput),
    /// in cycles per 100 bytes; [`CostModel::copy_cycles`] applies it.
    pub copy_per_byte_x100: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            freq_ghz: 2.4,
            instr: 1,
            syscall_entry: 60,
            sysret: 50,
            swapgs: 8,
            wrpkrs: 60,
            pks_check: 15,
            wrmsr: 90,
            rdmsr: 60,
            cr3_switch: 178,
            invlpg: 120,
            iret: 110,
            hlt: 20,
            exception_entry: 150,
            tlb_hit: 0,
            pt_load: 40,
            stage2_load: 11,
            zero_page: 1150,
            zero_huge_page: 260_000,
            frame_alloc: 230,
            vma_lookup: 260,
            pte_write: 40,
            vm_exit: 1100,
            vm_entry: 1100,
            nested_transition: 2800,
            ept_violation_work: 2600,
            sept_emulation_work: 43_000,
            pvm_switch: 585,
            pvm_redirect_hop: 118,
            spt_emulation_work: 4390,
            pti: 240,
            ibrs: 720,
            ksm_stack_switch: 6,
            ksm_validate: 16,
            virtio_process: 700,
            dma_desc: 40,
            net_packet: 1900,
            irq_inject: 260,
            copy_per_byte_x100: 3,
        }
    }
}

impl CostModel {
    /// Converts cycles to nanoseconds at the modelled frequency.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_ghz
    }

    /// Converts nanoseconds to cycles at the modelled frequency.
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.freq_ghz).round() as u64
    }

    /// Cycles to copy `bytes` bytes (kernel↔user, device buffers, page
    /// images): `copy_per_byte_x100` per 100 bytes, rounded down.
    pub fn copy_cycles(&self, bytes: u64) -> u64 {
        bytes * self.copy_per_byte_x100 / 100
    }
}

/// The simulated global clock with per-tag attribution.
#[derive(Debug, Clone)]
pub struct Clock {
    cycles: u64,
    tagged: [u64; 11],
    model: CostModel,
}

impl Clock {
    /// Creates a clock at cycle zero with the given cost model.
    pub fn new(model: CostModel) -> Self {
        Self {
            cycles: 0,
            tagged: [0; 11],
            model,
        }
    }

    /// The cost model in use.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Total elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total elapsed simulated nanoseconds.
    pub fn ns(&self) -> f64 {
        self.model.cycles_to_ns(self.cycles)
    }

    /// Total elapsed simulated seconds.
    pub fn seconds(&self) -> f64 {
        self.ns() / 1e9
    }

    /// Charges `cycles` to bucket `tag`.
    pub fn charge(&mut self, tag: Tag, cycles: u64) {
        self.cycles += cycles;
        self.tagged[tag.index()] += cycles;
    }

    /// Cycles attributed to `tag` so far.
    pub fn tagged(&self, tag: Tag) -> u64 {
        self.tagged[tag.index()]
    }

    /// Nanoseconds attributed to `tag` so far.
    pub fn tagged_ns(&self, tag: Tag) -> f64 {
        self.model.cycles_to_ns(self.tagged(tag))
    }

    /// Resets the per-tag attribution counters (not the clock itself).
    pub fn reset_tags(&mut self) {
        self.tagged = [0; 11];
    }

    /// Snapshot of the current cycle count, for deltas.
    pub fn mark(&self) -> u64 {
        self.cycles
    }

    /// Cycles elapsed since `mark`.
    pub fn since(&self, mark: u64) -> u64 {
        self.cycles - mark
    }

    /// Nanoseconds elapsed since `mark`.
    pub fn since_ns(&self, mark: u64) -> f64 {
        self.model.cycles_to_ns(self.since(mark))
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion() {
        let m = CostModel::default();
        assert!((m.cycles_to_ns(240) - 100.0).abs() < 1e-9);
        assert_eq!(m.ns_to_cycles(100.0), 240);
    }

    #[test]
    fn copy_cost_scales() {
        let m = CostModel::default();
        assert_eq!(m.copy_cycles(0), 0);
        assert_eq!(m.copy_cycles(100), 3);
        assert_eq!(m.copy_cycles(4096), 122);
        // 1 MiB copy ≈ 13 µs at 2.4 GHz.
        let us = m.copy_cycles(1 << 20) as f64 / 2400.0;
        assert!((10.0..20.0).contains(&us));
    }

    #[test]
    fn tagged_accounting() {
        let mut c = Clock::default();
        c.charge(Tag::VmExit, 1000);
        c.charge(Tag::Handler, 500);
        c.charge(Tag::VmExit, 100);
        assert_eq!(c.cycles(), 1600);
        assert_eq!(c.tagged(Tag::VmExit), 1100);
        assert_eq!(c.tagged(Tag::Handler), 500);
        assert_eq!(c.tagged(Tag::Io), 0);
        c.reset_tags();
        assert_eq!(c.tagged(Tag::VmExit), 0);
        assert_eq!(c.cycles(), 1600);
    }

    #[test]
    fn mark_since() {
        let mut c = Clock::default();
        c.charge(Tag::Other, 240);
        let m = c.mark();
        c.charge(Tag::Other, 480);
        assert_eq!(c.since(m), 480);
        assert!((c.since_ns(m) - 200.0).abs() < 1e-9);
    }

    /// The calibration targets from DESIGN.md §4: composite paths built from
    /// the primitive costs must land near the paper's measured primitives.
    #[test]
    fn calibration_native_syscall() {
        let m = CostModel::default();
        // Native getpid: entry + 2×swapgs + handler body (~90 cycles) + sysret.
        let total = m.syscall_entry + 2 * m.swapgs + 90 + m.sysret;
        let ns = m.cycles_to_ns(total);
        assert!((85.0..95.0).contains(&ns), "native syscall {ns} ns");
    }

    #[test]
    fn calibration_pks_switch_pair() {
        let m = CostModel::default();
        // CKI-wo-OPT3 adds two PKS switches: 153 ns - 90 ns = 63 ns.
        let ns = m.cycles_to_ns(2 * (m.wrpkrs + m.pks_check));
        assert!((55.0..70.0).contains(&ns), "PKS switch pair {ns} ns");
    }

    #[test]
    fn calibration_cr3_pair() {
        let m = CostModel::default();
        // CKI-wo-OPT2 adds two CR3 switches: 238 ns - 90 ns = 148 ns.
        let ns = m.cycles_to_ns(2 * m.cr3_switch);
        assert!((140.0..156.0).contains(&ns), "CR3 switch pair {ns} ns");
    }

    #[test]
    fn calibration_hvm_hypercall() {
        let m = CostModel::default();
        // Empty hypercall, bare-metal HVM: 1 088 ns (Table 2).
        let ns = m.cycles_to_ns(m.vm_exit + 400 + m.vm_entry);
        assert!((1000.0..1200.0).contains(&ns), "HVM hypercall {ns} ns");
    }
}
