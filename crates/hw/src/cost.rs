//! The calibrated cycle costs and the simulated clock.
//!
//! All costs are CPU cycles on the paper's testbed frequency (AMD EPYC-9654
//! at 2.4 GHz), so `ns = cycles / 2.4`. The primitive costs below are
//! constants — the one calibration table of the simulator, chosen so the
//! composite paths land on the paper's measured values (Table 2, Figure 10,
//! §7.1); DESIGN.md §4 lists the composite paths and their targets.
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

/// Core frequency in GHz; the paper's EPYC-9654 runs at 2.4 GHz.
pub const FREQ_GHZ: f64 = 2.4;

// --- Instruction-level costs -------------------------------------------------

/// A generic retired instruction.
pub const INSTR: u64 = 1;
/// `syscall` user→kernel transition (part of the 90 ns native getpid).
pub const SYSCALL_ENTRY: u64 = 60;
/// `sysret` kernel→user transition.
pub const SYSRET: u64 = 50;
/// `swapgs`.
pub const SWAPGS: u64 = 8;
/// `wrpkrs`/`wrpkru` write to a protection-key register. ERIM-style gates
/// measure wrpkru at ~25 ns; two PKS switches must add 63 ns to a syscall
/// (CKI-wo-OPT3: 153 ns vs 90 ns, Figure 10b).
pub const WRPKRS: u64 = 60;
/// The post-`wrpkrs` forged-value check (`cmp`/`jne abort`, Figure 8a).
pub const PKS_CHECK: u64 = 15;
/// `wrmsr` (e.g. timer programming, IPIs).
pub const WRMSR: u64 = 90;
/// `rdmsr`.
pub const RDMSR: u64 = 60;
/// `mov cr3` including the pipeline cost; CKI-wo-OPT2 shows two of these
/// plus PCID bookkeeping add 148 ns to a syscall (238 ns vs 90 ns).
pub const CR3_SWITCH: u64 = 178;
/// `invlpg` single-entry flush.
pub const INVLPG: u64 = 120;
/// `iret`.
pub const IRET: u64 = 110;
/// `hlt` until next event (cost of the instruction itself).
pub const HLT: u64 = 20;
/// Exception/interrupt delivery through the IDT (vector, stack push, IST).
pub const EXCEPTION_ENTRY: u64 = 150;

// --- Memory system -----------------------------------------------------------

/// One page-table load during a walk (cache-resident PTE). A TLB hit costs
/// nothing beyond the instruction that made the access.
pub const PT_LOAD: u64 = 40;
/// Average extra cost per first-stage level when the walk goes through
/// a second stage. Paging-structure caches absorb most of the nominal
/// 24-load 2-D walk, leaving ~55-60 extra cycles per missed translation
/// — calibrated against Table 4 (GUPS: 54.9 s native vs 67.8 s HVM,
/// +23 %, with a near-100 % TLB miss rate).
pub const STAGE2_LOAD: u64 = 11;
/// Zeroing a fresh 4 KiB page in the fault path.
pub const ZERO_PAGE: u64 = 1150;
/// Buddy/frame-allocator work per allocation.
pub const FRAME_ALLOC: u64 = 230;
/// VMA lookup in the fault path.
pub const VMA_LOOKUP: u64 = 260;
/// Writing one PTE (store + potential TLB shootdown bookkeeping).
pub const PTE_WRITE: u64 = 40;

// --- Virtualization ----------------------------------------------------------

/// One hardware VM exit (VMCS world switch, guest→host).
pub const VM_EXIT: u64 = 1100;
/// One hardware VM entry (host→guest).
pub const VM_ENTRY: u64 = 1100;
/// Additional per-transition cost when the L0 hypervisor mediates a
/// nested transition (VMCS shadow sync, state merge). Calibrated so an
/// empty L2 hypercall costs 6 746 ns (Table 2 NST).
pub const NESTED_TRANSITION: u64 = 2800;
/// EPT-violation handling work in the host (walk + map), excluding the
/// exit/entry pair. Calibrated so a BM HVM page fault costs ~3.3 µs
/// total (Figure 10a: 1 164 handler + 2 093 EPT fault).
pub const EPT_VIOLATION_WORK: u64 = 2600;
/// Shadow-EPT emulation work per L2 EPT fault in a nested cloud
/// (Figure 10a: 30 881 ns beyond the L2 handler).
pub const SEPT_EMULATION_WORK: u64 = 43_000;
/// PVM lightweight guest↔host switch (address-space + mode switch, one
/// direction). Six of these plus emulation make the 4 407 ns PVM fault.
pub const PVM_SWITCH: u64 = 585;
/// PVM syscall redirection hop (extra user↔kernel crossing plus entry
/// trampoline); two of these plus two CR3 switches take getpid from
/// 90 ns to 336 ns.
pub const PVM_REDIRECT_HOP: u64 = 118;
/// Shadow-page-table emulation per guest page fault (walk gPT, gPA→hPA
/// via VMA, SPT update, exception injection): 1 828 ns in Figure 10a.
pub const SPT_EMULATION_WORK: u64 = 4390;
/// Page-table-isolation (PTI) CR3 toggle pair, when a crossing needs it.
pub const PTI: u64 = 240;
/// IBRS write (indirect-branch restricted speculation) on a crossing.
pub const IBRS: u64 = 720;

// --- CKI gates ---------------------------------------------------------------

/// Secure-stack switch inside the KSM call gate.
pub const KSM_STACK_SWITCH: u64 = 6;
/// KSM request validation (descriptor lookup + checks) per call.
pub const KSM_VALIDATE: u64 = 16;

// --- I/O ---------------------------------------------------------------------

/// VirtIO queue descriptor processing per request (host side).
pub const VIRTIO_PROCESS: u64 = 700;
/// One split-ring descriptor or index access through guest physical
/// memory (cache-coherent DMA read/write; same currency as [`PT_LOAD`]).
pub const DMA_DESC: u64 = 40;
/// Device-side work per network packet (copy + fabric).
pub const NET_PACKET: u64 = 1900;
/// Interrupt injection bookkeeping in the host.
pub const IRQ_INJECT: u64 = 260;
/// Application-level cost of one byte of copying (memcpy throughput),
/// in cycles per 100 bytes; [`copy_cycles`] applies it.
pub const COPY_PER_BYTE_X100: u64 = 3;

/// Converts cycles to nanoseconds at the modelled frequency.
pub fn cycles_to_ns(cycles: u64) -> f64 {
    cycles as f64 / FREQ_GHZ
}

/// Converts nanoseconds to cycles at the modelled frequency.
pub fn ns_to_cycles(ns: f64) -> u64 {
    (ns * FREQ_GHZ).round() as u64
}

/// Cycles to copy `bytes` bytes (kernel↔user, device buffers, page
/// images): [`COPY_PER_BYTE_X100`] per 100 bytes, rounded down.
pub const fn copy_cycles(bytes: u64) -> u64 {
    bytes * COPY_PER_BYTE_X100 / 100
}

/// The frequency alone, for the benchmark under `perfbench/`, which reads
/// `CostModel::default().freq_ghz`. Workspace code reads [`FREQ_GHZ`].
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Core frequency in GHz: [`FREQ_GHZ`].
    pub freq_ghz: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self { freq_ghz: FREQ_GHZ }
    }
}

/// The simulated global clock with per-tag attribution; `Clock::default()`
/// starts it at cycle zero.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    cycles: u64,
    tagged: [u64; 11],
}

impl Clock {
    /// Total elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total elapsed simulated nanoseconds.
    pub fn ns(&self) -> f64 {
        cycles_to_ns(self.cycles)
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
        cycles_to_ns(self.tagged(tag))
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
        cycles_to_ns(self.since(mark))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion() {
        assert!((cycles_to_ns(240) - 100.0).abs() < 1e-9);
        assert_eq!(ns_to_cycles(100.0), 240);
    }

    #[test]
    fn copy_cost_scales() {
        assert_eq!(copy_cycles(0), 0);
        assert_eq!(copy_cycles(100), 3);
        assert_eq!(copy_cycles(4096), 122);
        // 1 MiB copy ≈ 13 µs at 2.4 GHz.
        let us = copy_cycles(1 << 20) as f64 / 2400.0;
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
        // Native getpid: entry + 2×swapgs + handler body (~90 cycles) + sysret.
        let ns = cycles_to_ns(SYSCALL_ENTRY + 2 * SWAPGS + 90 + SYSRET);
        assert!((85.0..95.0).contains(&ns), "native syscall {ns} ns");
    }

    #[test]
    fn calibration_pks_switch_pair() {
        // CKI-wo-OPT3 adds two PKS switches: 153 ns - 90 ns = 63 ns.
        let ns = cycles_to_ns(2 * (WRPKRS + PKS_CHECK));
        assert!((55.0..70.0).contains(&ns), "PKS switch pair {ns} ns");
    }

    #[test]
    fn calibration_cr3_pair() {
        // CKI-wo-OPT2 adds two CR3 switches: 238 ns - 90 ns = 148 ns.
        let ns = cycles_to_ns(2 * CR3_SWITCH);
        assert!((140.0..156.0).contains(&ns), "CR3 switch pair {ns} ns");
    }

    #[test]
    fn calibration_hvm_hypercall() {
        // Empty hypercall, bare-metal HVM: 1 088 ns (Table 2).
        let ns = cycles_to_ns(VM_EXIT + 400 + VM_ENTRY);
        assert!((1000.0..1200.0).contains(&ns), "HVM hypercall {ns} ns");
    }
}
