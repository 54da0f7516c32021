//! The simulated CPU: registers, instruction execution, and the MMU.

use std::collections::BTreeMap;

use obs::{CounterId, MetricsRegistry, Ring, SpanId, SpanProfiler};
use sim_mem::addr::pt_index;
use sim_mem::{pte, Phys, PhysMem, Virt, PAGE_SIZE};

use crate::cost::{self, Clock, Tag};
use crate::ext::HwExtensions;
use crate::fault::Fault;
use crate::idt::{self, IdtEntry, IretFrame};
use crate::instr::{GuestPolicy, Instr, InvpcidMode};
use crate::pkey;
use crate::tlb::{Tlb, TlbEntry};
use crate::trace::{TraceEvent, TRACE_CAPACITY};

/// CPU privilege mode (x86 ring 3 / ring 0). CKI's point is that the *third*
/// level the paper needs is built inside `Kernel` via PKS, not provided by
/// the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Ring 3.
    User,
    /// Ring 0.
    Kernel,
}

/// Kind of memory access for MMU checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// CR4 bit enabling user protection keys (PKU).
pub const CR4_PKE: u64 = 1 << 22;
/// CR4 bit enabling supervisor protection keys (PKS).
pub const CR4_PKS: u64 = 1 << 24;
/// CR4 bit enabling PCIDs.
pub const CR4_PCIDE: u64 = 1 << 17;

/// MSR index of IA32_PKRS (how baseline hardware writes PKRS, via `wrmsr`).
pub const MSR_IA32_PKRS: u32 = 0x6E1;

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecResult {
    /// Instruction retired with no produced value.
    Done,
    /// Instruction produced a value (`rdmsr`, `mov reg, crN`, `rdpkrs`, ...).
    Value(u64),
    /// `int n` was executed; the runtime must deliver the software interrupt.
    SoftInt(u8),
    /// `hlt` was executed; the vCPU is paused until the next interrupt.
    Halted,
}

/// Second-stage translation hook (EPT). Implemented by the HVM backend; CKI
/// and RunC pass `None` — the whole point of CKI's memory design is that no
/// second stage exists (§3.3).
pub trait Stage2 {
    /// Translates a guest-physical address to host-physical, charging walk
    /// costs to `clock`. Returns [`Fault::EptViolation`] when unmapped.
    fn translate(
        &mut self,
        mem: &mut PhysMem,
        gpa: Phys,
        write: bool,
        clock: &mut Clock,
    ) -> Result<Phys, Fault>;
}

/// Where an interrupt delivery landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The handler token from the IDT entry.
    pub handler: u64,
    /// The frame to `iret` through when the handler finishes.
    pub frame: IretFrame,
    /// Stack pointer in effect for the handler (IST or inherited).
    pub handler_rsp: u64,
}

/// The simulated CPU.
///
/// One `Cpu` models one hardware thread; context switches between host and
/// guest swap architectural state on the same object, exactly as they do on
/// real hardware.
pub struct Cpu {
    /// Current privilege mode.
    pub mode: Mode,
    /// Stack pointer (used by interrupt delivery and gate stack switches).
    pub rsp: u64,
    /// `RFLAGS.IF` — interrupts enabled.
    pub rflags_if: bool,
    /// `RFLAGS.AC` — SMAP override (toggled by `clac`/`stac`).
    pub ac: bool,
    /// CR0.
    pub cr0: u64,
    /// CR4 (PKE/PKS/PCIDE bits are honoured by the MMU).
    pub cr4: u64,
    cr3_root: Phys,
    pcid: u16,
    /// PKRS — supervisor protection-key rights.
    pub pkrs: u32,
    /// PKRU — user protection-key rights.
    pub pkru: u32,
    /// GS base.
    pub gs_base: u64,
    /// Kernel GS base (swapped by `swapgs`; untrusted under CKI, §4.2).
    pub kernel_gs_base: u64,
    /// Syscall entry-point token (IA32_STAR/LSTAR collapsed to one token).
    pub ia32_star: u64,
    /// IDT physical base.
    pub idtr: Phys,
    /// GDT physical base (modelled but unused beyond policy checks).
    pub gdtr: Phys,
    /// TSS physical base (holds the IST stack pointers).
    pub tss_base: Phys,
    /// Model-specific registers.
    pub msrs: BTreeMap<u32, u64>,
    /// The TLB.
    pub tlb: Tlb,
    /// The cycle clock.
    pub clock: Clock,
    /// Enabled hardware extensions.
    pub ext: HwExtensions,
    /// Whether the CPU is halted (set by `hlt`, cleared by interrupts).
    pub halted: bool,
    /// Architectural event tracer: cycle-stamped events in a bounded ring
    /// ([`crate::trace`]; disabled until [`Cpu::enable_tracer`]).
    pub tracer: Ring<(u64, TraceEvent)>,
    /// Cycle-attributed span profiler (disabled by default; all layers
    /// reach it through the machine).
    pub profiler: SpanProfiler,
    /// Unified metrics registry shared by every layer of the stack.
    pub metrics: MetricsRegistry,
    ids: HwCounterIds,
    instructions: u64,
}

/// Pre-registered ids for the hardware-level counters (array-index cheap).
struct HwCounterIds {
    tlb_hit: CounterId,
    tlb_miss: CounterId,
    page_walks: CounterId,
    irqs: CounterId,
}

impl Cpu {
    /// Creates a CPU in kernel mode with the given extensions.
    pub fn new(ext: HwExtensions) -> Self {
        let mut metrics = MetricsRegistry::new();
        let ids = HwCounterIds {
            tlb_hit: metrics.counter("hw.tlb.hits"),
            tlb_miss: metrics.counter("hw.tlb.misses"),
            page_walks: metrics.counter("hw.page_walks"),
            irqs: metrics.counter("hw.irqs_delivered"),
        };
        Self {
            mode: Mode::Kernel,
            rsp: 0,
            rflags_if: true,
            ac: false,
            cr0: 0x8000_0033, // PG | PE and friends; informational
            cr4: CR4_PCIDE | CR4_PKE | CR4_PKS,
            cr3_root: 0,
            pcid: 0,
            pkrs: 0,
            pkru: 0,
            gs_base: 0,
            kernel_gs_base: 0,
            ia32_star: 0,
            idtr: 0,
            gdtr: 0,
            tss_base: 0,
            msrs: BTreeMap::new(),
            tlb: Tlb::default(),
            clock: Clock::default(),
            ext,
            halted: false,
            tracer: Ring::disabled(),
            profiler: SpanProfiler::default(),
            metrics,
            ids,
            instructions: 0,
        }
    }

    /// Starts recording architectural events into a fresh ring of
    /// [`TRACE_CAPACITY`] slots, allocated here once.
    pub fn enable_tracer(&mut self) {
        self.tracer = Ring::new(TRACE_CAPACITY);
    }

    /// Opens a profiler span stamped with the current simulated cycle
    /// count. Returns [`SpanId::NONE`] (and reads nothing) when profiling
    /// is disabled.
    #[inline]
    pub fn span_enter(&mut self, name: &'static str) -> SpanId {
        if !self.profiler.enabled() {
            return SpanId::NONE;
        }
        let now = self.clock.cycles();
        self.profiler.enter(name, now)
    }

    /// Closes a profiler span at the current simulated cycle count.
    #[inline]
    pub fn span_exit(&mut self, id: SpanId) {
        if !self.profiler.enabled() {
            return;
        }
        let now = self.clock.cycles();
        self.profiler.exit(id, now);
    }

    /// Current page-table root (CR3 bits 51:12).
    pub fn cr3_root(&self) -> Phys {
        self.cr3_root
    }

    /// Current PCID (CR3 bits 11:0).
    pub fn pcid(&self) -> u16 {
        self.pcid
    }

    /// Retired instruction count.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Completed page walks (TLB misses), from the metrics registry.
    pub fn page_walks(&self) -> u64 {
        self.metrics.get(self.ids.page_walks)
    }

    /// Architectural CR3 value.
    pub fn cr3(&self) -> u64 {
        self.cr3_root | self.pcid as u64
    }

    /// Privileged direct CR3 load used by trusted software (host kernel /
    /// KSM) during setup, bypassing instruction-level policy. Equivalent to
    /// executing `mov cr3` with PKRS = 0.
    pub fn set_cr3(&mut self, root: Phys, pcid: u16, preserve_tlb: bool) {
        let cycles = self.clock.cycles();
        self.tracer
            .record((cycles, TraceEvent::Cr3Load { root, pcid }));
        self.cr3_root = root;
        self.pcid = pcid;
        if !preserve_tlb {
            self.tlb.flush_pcid(pcid);
        }
    }

    /// Executes one instruction, enforcing ring and PKS policy.
    ///
    /// The policy order mirrors hardware: ring check (`#GP`), opcode
    /// existence (`#UD` for `wrpkrs` without the extension), then the CKI
    /// blocking extension (§4.1).
    pub fn exec(&mut self, mem: &mut PhysMem, instr: Instr) -> Result<ExecResult, Fault> {
        self.instructions += 1;

        // Ring check: privileged instructions fault in user mode.
        if self.mode == Mode::User && instr.is_privileged() {
            return Err(Fault::GeneralProtection(
                "privileged instruction in user mode",
            ));
        }

        // Opcode existence: wrpkrs/rdpkrs only exist with the extension.
        if matches!(instr, Instr::Wrpkrs { .. } | Instr::Rdpkrs) && !self.ext.wrpkrs_instruction {
            return Err(Fault::UndefinedInstruction(
                "wrpkrs requires the CKI extension",
            ));
        }

        // CKI extension: block destructive privileged instructions when the
        // deprivileged guest kernel (PKRS != 0) is executing.
        if self.mode == Mode::Kernel
            && self.ext.priv_inst_blocking
            && self.pkrs != 0
            && instr.guest_policy() == GuestPolicy::Blocked
        {
            let cycles = self.clock.cycles();
            self.tracer.record((
                cycles,
                TraceEvent::InstrBlocked {
                    mnemonic: instr.mnemonic(),
                    pkrs: self.pkrs,
                },
            ));
            return Err(Fault::BlockedPrivileged {
                mnemonic: instr.mnemonic(),
            });
        }

        let (tag, cost, result) = match instr {
            Instr::Alu { cycles } => (Tag::Compute, cycles.max(1), ExecResult::Done),
            Instr::Load { va } => {
                self.mem_access(mem, va, Access::Read, None)?;
                (Tag::Compute, cost::INSTR, ExecResult::Done)
            }
            Instr::Store { va } => {
                self.mem_access(mem, va, Access::Write, None)?;
                (Tag::Compute, cost::INSTR, ExecResult::Done)
            }
            Instr::Lidt { base } => {
                self.idtr = base;
                (Tag::Other, cost::WRMSR, ExecResult::Done)
            }
            Instr::Lgdt { base } => {
                self.gdtr = base;
                (Tag::Other, cost::WRMSR, ExecResult::Done)
            }
            Instr::Ltr { selector } => {
                // Simplified: the selector is the TSS physical base >> 4.
                self.tss_base = (selector as u64) << 4;
                (Tag::Other, cost::WRMSR, ExecResult::Done)
            }
            Instr::Wrmsr { msr, value } => {
                if msr == MSR_IA32_PKRS {
                    self.pkrs = value as u32;
                } else {
                    self.msrs.insert(msr, value);
                }
                (Tag::Other, cost::WRMSR, ExecResult::Done)
            }
            Instr::Rdmsr { msr } => {
                let v = if msr == MSR_IA32_PKRS {
                    self.pkrs as u64
                } else {
                    self.msrs.get(&msr).copied().unwrap_or(0)
                };
                (Tag::Other, cost::RDMSR, ExecResult::Value(v))
            }
            Instr::ReadCr { cr } => {
                let v = match cr {
                    0 => self.cr0,
                    3 => self.cr3(),
                    4 => self.cr4,
                    _ => return Err(Fault::GeneralProtection("bad control register")),
                };
                (Tag::Other, cost::INSTR, ExecResult::Value(v))
            }
            Instr::WriteCr0 { value } => {
                self.cr0 = value;
                (Tag::Other, cost::WRMSR, ExecResult::Done)
            }
            Instr::WriteCr4 { value } => {
                self.cr4 = value;
                (Tag::Other, cost::WRMSR, ExecResult::Done)
            }
            Instr::WriteCr3 {
                value,
                preserve_tlb,
            } => {
                self.cr3_root = value & pte::ADDR_MASK;
                self.pcid = (value & 0xfff) as u16;
                if !preserve_tlb {
                    self.tlb.flush_pcid(self.pcid);
                }
                (Tag::Other, cost::CR3_SWITCH, ExecResult::Done)
            }
            Instr::Clac => {
                self.ac = false;
                (Tag::Other, cost::INSTR, ExecResult::Done)
            }
            Instr::Stac => {
                self.ac = true;
                (Tag::Other, cost::INSTR, ExecResult::Done)
            }
            Instr::Invlpg { va } => {
                // Flushes only the current PCID (§4.1's performance-attack
                // defence relies on this).
                self.tlb.flush_va(va, self.pcid);
                (Tag::Mmu, cost::INVLPG, ExecResult::Done)
            }
            Instr::Invpcid { mode } => {
                match mode {
                    InvpcidMode::IndividualAddress { pcid, va } => self.tlb.flush_va(va, pcid),
                    InvpcidMode::SingleContext { pcid } => self.tlb.flush_pcid(pcid),
                    InvpcidMode::AllContexts => self.tlb.flush_all(),
                }
                (Tag::Mmu, cost::INVLPG, ExecResult::Done)
            }
            Instr::Swapgs => {
                std::mem::swap(&mut self.gs_base, &mut self.kernel_gs_base);
                (Tag::SyscallPath, cost::SWAPGS, ExecResult::Done)
            }
            Instr::Sysret { restore_if } => {
                self.mode = Mode::User;
                // The CKI extension pins IF on when the deprivileged guest
                // kernel returns, preventing interrupt-disable DoS (§4.1).
                self.rflags_if = if self.ext.sysret_if_enforce && self.pkrs != 0 {
                    true
                } else {
                    restore_if
                };
                (Tag::SyscallPath, cost::SYSRET, ExecResult::Done)
            }
            Instr::Iret { frame } => {
                self.mode = if frame.user_mode {
                    Mode::User
                } else {
                    Mode::Kernel
                };
                self.rflags_if = frame.if_flag;
                self.rsp = frame.rsp;
                if self.ext.iret_pkrs_restore {
                    self.pkrs = frame.pkrs;
                }
                (Tag::Handler, cost::IRET, ExecResult::Done)
            }
            Instr::Hlt => {
                self.halted = true;
                (Tag::Sched, cost::HLT, ExecResult::Halted)
            }
            Instr::Cli => {
                self.rflags_if = false;
                (Tag::Other, cost::INSTR, ExecResult::Done)
            }
            Instr::Sti => {
                self.rflags_if = true;
                (Tag::Other, cost::INSTR, ExecResult::Done)
            }
            Instr::Popf { if_flag } => {
                self.rflags_if = if_flag;
                (Tag::Other, cost::INSTR, ExecResult::Done)
            }
            Instr::InPort { .. } => (Tag::Io, cost::RDMSR, ExecResult::Value(0)),
            Instr::OutPort { .. } => (Tag::Io, cost::WRMSR, ExecResult::Done),
            Instr::Smsw => (
                Tag::Other,
                cost::INSTR,
                ExecResult::Value(self.cr0 & 0xffff),
            ),
            Instr::Wrpkrs { value } => {
                let cycles = self.clock.cycles();
                self.tracer.record((
                    cycles,
                    TraceEvent::PkrsSwitch {
                        from: self.pkrs,
                        to: value,
                    },
                ));
                self.pkrs = value;
                (Tag::KsmCall, cost::WRPKRS, ExecResult::Done)
            }
            Instr::Rdpkrs => (
                Tag::KsmCall,
                cost::INSTR,
                ExecResult::Value(self.pkrs as u64),
            ),
            Instr::Wrpkru { value } => {
                self.pkru = value;
                (Tag::Other, cost::WRPKRS, ExecResult::Done)
            }
            Instr::IntN { vector } => (Tag::Other, cost::INSTR, ExecResult::SoftInt(vector)),
        };
        self.clock.charge(tag, cost);
        Ok(result)
    }

    /// `syscall` from user mode: switches to kernel mode, masks IF, and
    /// returns the entry-point token from IA32_STAR.
    ///
    /// Under CKI, user mode runs with `PKRS = PKRS_GUEST`, so execution
    /// lands directly in the (deprivileged) guest kernel without host
    /// involvement — the fast path of Figure 7.
    pub fn syscall_entry(&mut self) -> Result<u64, Fault> {
        if self.mode != Mode::User {
            return Err(Fault::GeneralProtection("syscall from kernel mode"));
        }
        self.mode = Mode::Kernel;
        self.rflags_if = false;
        self.clock.charge(Tag::SyscallPath, cost::SYSCALL_ENTRY);
        Ok(self.ia32_star)
    }

    /// Delivers interrupt `vector` through the IDT.
    ///
    /// `hw` distinguishes hardware interrupts (which, with the
    /// `idt_pkrs_switch` extension, save PKRS into the frame and clear it)
    /// from software `int n` (which never touches PKRS — §4.4).
    ///
    /// Returns [`Fault::TripleFault`] when the IDT is unusable or the stack
    /// for the frame cannot be written — the DoS scenario CKI's IST design
    /// prevents.
    pub fn deliver_interrupt(
        &mut self,
        mem: &mut PhysMem,
        vector: u8,
        hw: bool,
    ) -> Result<Delivery, Fault> {
        let sp = self.span_enter("hw.irq.deliver");
        let r = self.deliver_interrupt_inner(mem, vector, hw);
        self.span_exit(sp);
        if r.is_ok() {
            self.metrics.inc(self.ids.irqs);
        }
        r
    }

    fn deliver_interrupt_inner(
        &mut self,
        mem: &mut PhysMem,
        vector: u8,
        hw: bool,
    ) -> Result<Delivery, Fault> {
        self.halted = false;
        if self.idtr == 0 {
            return Err(Fault::TripleFault);
        }
        let entry = IdtEntry::read_from(mem, self.idtr, vector);
        if !entry.present {
            return Err(Fault::TripleFault);
        }
        // Pick the stack: IST if configured, else the interrupted stack.
        let handler_rsp = if entry.ist != 0 && self.tss_base != 0 {
            idt::read_ist(mem, self.tss_base, entry.ist)
        } else {
            self.rsp
        };
        // The CPU pushes the frame onto the chosen stack. If that stack is
        // not writable, the push faults; a fault during delivery is a
        // double fault, and with no recoverable stack, a triple fault.
        if handler_rsp < 64 {
            return Err(Fault::TripleFault);
        }
        let save_mode = self.mode;
        let save_if = self.rflags_if;
        let save_rsp = self.rsp;
        let save_pkrs = self.pkrs;
        self.mode = Mode::Kernel;
        let frame = IretFrame {
            rip: 0,
            user_mode: save_mode == Mode::User,
            if_flag: save_if,
            rsp: save_rsp,
            pkrs: save_pkrs,
        };
        if hw && self.ext.idt_pkrs_switch {
            // HW extension: save PKRS and clear it *as part of delivery*,
            // before the frame push — so the gate's stack (KSM-keyed under
            // CKI) is writable and no wrpkrs exists in the gate (§4.4).
            self.pkrs = 0;
        }
        if self
            .mem_access(mem, handler_rsp - 8, Access::Write, None)
            .is_err()
        {
            // Fault during delivery: double fault. #DF is a hardware-raised
            // exception, so the PKRS-switch extension applies to it even if
            // the original delivery was a software `int n` — giving the
            // host a chance to kill the offending container instead of the
            // machine resetting.
            if hw || !self.ext.idt_pkrs_switch {
                self.mode = save_mode;
                self.pkrs = save_pkrs;
                return Err(Fault::TripleFault);
            }
            self.pkrs = 0;
            let df = IdtEntry::read_from(mem, self.idtr, 8);
            let df_rsp = if df.ist != 0 && self.tss_base != 0 {
                idt::read_ist(mem, self.tss_base, df.ist)
            } else {
                self.rsp
            };
            if !df.present
                || df_rsp < 64
                || self
                    .mem_access(mem, df_rsp - 8, Access::Write, None)
                    .is_err()
            {
                self.mode = save_mode;
                self.pkrs = save_pkrs;
                return Err(Fault::TripleFault);
            }
            self.rflags_if = false;
            self.rsp = df_rsp;
            self.clock.charge(Tag::Handler, cost::EXCEPTION_ENTRY);
            return Ok(Delivery {
                handler: df.handler,
                frame,
                handler_rsp: df_rsp,
            });
        }
        self.rflags_if = false;
        self.rsp = handler_rsp;
        self.clock.charge(Tag::Handler, cost::EXCEPTION_ENTRY);
        let cycles = self.clock.cycles();
        self.tracer
            .record((cycles, TraceEvent::InterruptDelivered { vector, hw }));
        Ok(Delivery {
            handler: entry.handler,
            frame,
            handler_rsp,
        })
    }

    /// Translates and checks a memory access through the MMU.
    ///
    /// Order of checks mirrors hardware: TLB lookup, then walk (charging
    /// per-level loads, doubled through `stage2` when present), then
    /// present/W/U/NX checks, then protection keys: PKRU for user pages,
    /// PKRS for supervisor pages (when CR4 enables them). Sets A/D bits.
    pub fn mem_access(
        &mut self,
        mem: &mut PhysMem,
        va: Virt,
        access: Access,
        stage2: Option<&mut (dyn Stage2 + '_)>,
    ) -> Result<Phys, Fault> {
        let is_write = access == Access::Write;
        let as_user = self.mode == Mode::User;

        let entry = match self.tlb.lookup(va, self.pcid) {
            Ok(e) => {
                self.metrics.inc(self.ids.tlb_hit);
                e
            }
            Err(miss) => {
                self.metrics.inc(self.ids.tlb_miss);
                let sp = self.span_enter("hw.walk");
                let walked = self.walk(mem, va, stage2);
                self.span_exit(sp);
                let e = walked?;
                self.tlb.fill(miss, e);
                e
            }
        };

        // Permission checks.
        let mut code = 0u64;
        if is_write {
            code |= pte::fault_code::WRITE;
        }
        if as_user {
            code |= pte::fault_code::USER;
        }
        if as_user && !entry.user {
            return Err(Fault::PageFault {
                addr: va,
                code: code | pte::fault_code::PRESENT,
            });
        }
        if is_write && !entry.writable {
            return Err(Fault::PageFault {
                addr: va,
                code: code | pte::fault_code::PRESENT,
            });
        }
        if access == Access::Exec && entry.nx {
            return Err(Fault::PageFault {
                addr: va,
                code: code | pte::fault_code::PRESENT | pte::fault_code::INSTR,
            });
        }

        // Protection keys. PKS does not apply to instruction fetches.
        if access != Access::Exec && entry.pkey != 0 {
            let rights = if entry.user {
                if self.cr4 & CR4_PKE != 0 {
                    Some(self.pkru)
                } else {
                    None
                }
            } else if self.cr4 & CR4_PKS != 0 {
                Some(self.pkrs)
            } else {
                None
            };
            if let Some(r) = rights {
                if pkey::denies_access(r, entry.pkey)
                    || (is_write && pkey::denies_write(r, entry.pkey))
                {
                    let cycles = self.clock.cycles();
                    self.tracer.record((
                        cycles,
                        TraceEvent::PkViolation {
                            va,
                            key: entry.pkey,
                            write: is_write,
                        },
                    ));
                    return Err(Fault::PkViolation {
                        addr: va,
                        key: entry.pkey,
                        write: is_write,
                    });
                }
            }
        }

        // Dirty-bit maintenance on write hits.
        if is_write && !entry.dirty {
            let leaf = mem.read_u64(entry.leaf_slot);
            mem.write_u64(entry.leaf_slot, leaf | pte::D);
            self.tlb.mark_dirty();
        }

        let mask = entry.page_size - 1;
        Ok(entry.page_pa | (va & mask))
    }

    /// Hardware page walk with optional second stage; sets the A bit.
    fn walk(
        &mut self,
        mem: &mut PhysMem,
        va: Virt,
        mut stage2: Option<&mut (dyn Stage2 + '_)>,
    ) -> Result<TlbEntry, Fault> {
        self.metrics.inc(self.ids.page_walks);
        let mut table_gpa = self.cr3_root;
        let mut writable = true;
        let mut user = true;
        for level in (1..=4u8).rev() {
            // The table pointer is a gPA under virtualization: translate it.
            let table_hpa = match stage2.as_deref_mut() {
                Some(s2) => {
                    self.clock.charge(Tag::Mmu, cost::STAGE2_LOAD);
                    s2.translate(mem, table_gpa, false, &mut self.clock)?
                }
                None => table_gpa,
            };
            self.clock.charge(Tag::Mmu, cost::PT_LOAD);
            let slot = table_hpa + 8 * pt_index(va, level) as u64;
            let entry = mem.read_u64(slot);
            if !pte::present(entry) {
                let mut code = 0;
                if self.mode == Mode::User {
                    code |= pte::fault_code::USER;
                }
                return Err(Fault::PageFault { addr: va, code });
            }
            writable &= pte::writable(entry);
            user &= pte::user(entry);
            let is_leaf = level == 1 || (level == 2 && pte::huge(entry));
            if is_leaf {
                // Set the A bit (the D bit is handled by the caller).
                if entry & pte::A == 0 {
                    mem.write_u64(slot, entry | pte::A);
                }
                let page_size = if level == 2 {
                    2 * 1024 * 1024
                } else {
                    PAGE_SIZE
                };
                let leaf_gpa = pte::addr(entry);
                let leaf_hpa = match stage2.as_deref_mut() {
                    Some(s2) => {
                        self.clock.charge(Tag::Mmu, cost::STAGE2_LOAD);
                        s2.translate(mem, leaf_gpa, false, &mut self.clock)?
                    }
                    None => leaf_gpa,
                };
                return Ok(TlbEntry {
                    page_pa: leaf_hpa,
                    page_size,
                    writable,
                    user,
                    nx: entry & pte::NX != 0,
                    pkey: pte::pkey(entry),
                    global: entry & pte::G != 0,
                    leaf_slot: slot,
                    dirty: entry & pte::D != 0,
                });
            }
            table_gpa = pte::addr(entry);
        }
        unreachable!("walk terminates at level 1");
    }
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("mode", &self.mode)
            .field("pkrs", &self.pkrs)
            .field("cr3_root", &self.cr3_root)
            .field("pcid", &self.pcid)
            .field("cycles", &self.clock.cycles())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::{MapFlags, PageTables};

    fn cpu(ext: HwExtensions) -> (Cpu, PhysMem) {
        (Cpu::new(ext), PhysMem::new(1 << 26))
    }

    fn map_page(mem: &mut PhysMem, root: Phys, va: Virt, pa: Phys, flags: MapFlags) {
        let mut next = 0x50_0000 + (va % 0x1000_0000) / 16; // crude unique PTP source
        let mut alloc = || {
            let p = sim_mem::addr::page_align_up(next);
            next = p + PAGE_SIZE;
            Some(p)
        };
        PageTables::map(mem, root, va, pa, flags, &mut alloc).unwrap();
    }

    fn setup_root(mem: &mut PhysMem) -> Phys {
        let mut next = 0x10_0000;
        let mut alloc = || {
            let p = next;
            next += PAGE_SIZE;
            Some(p)
        };
        PageTables::new_root(mem, &mut alloc).unwrap()
    }

    #[test]
    fn user_cannot_exec_privileged() {
        let (mut c, mut mem) = cpu(HwExtensions::baseline());
        c.mode = Mode::User;
        let err = c.exec(&mut mem, Instr::Cli).unwrap_err();
        assert_eq!(err.mnemonic(), "#GP");
    }

    #[test]
    fn wrpkrs_is_ud_on_baseline() {
        let (mut c, mut mem) = cpu(HwExtensions::baseline());
        let err = c.exec(&mut mem, Instr::Wrpkrs { value: 1 }).unwrap_err();
        assert_eq!(err.mnemonic(), "#UD");
    }

    #[test]
    fn blocking_extension_traps_destructive_instrs() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        c.exec(&mut mem, Instr::Wrpkrs { value: 0b0100 }).unwrap();
        assert_eq!(c.pkrs, 0b0100);
        let err = c
            .exec(
                &mut mem,
                Instr::Wrmsr {
                    msr: 0x10,
                    value: 1,
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            Fault::BlockedPrivileged { mnemonic: "wrmsr" }
        ));
        // With PKRS back to zero (monitor context) the same instr executes.
        c.exec(&mut mem, Instr::Wrpkrs { value: 0 }).unwrap();
        c.exec(
            &mut mem,
            Instr::Wrmsr {
                msr: 0x10,
                value: 1,
            },
        )
        .unwrap();
    }

    #[test]
    fn blocking_without_extension_is_permissive() {
        let (mut c, mut mem) = cpu(HwExtensions::baseline());
        c.exec(
            &mut mem,
            Instr::Wrmsr {
                msr: MSR_IA32_PKRS,
                value: 0b0100,
            },
        )
        .unwrap();
        assert_eq!(c.pkrs, 0b0100);
        // Plain PKS hardware cannot block privileged instructions.
        c.exec(&mut mem, Instr::Cli).unwrap();
        assert!(!c.rflags_if);
    }

    #[test]
    fn sysret_if_enforcement() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        c.exec(&mut mem, Instr::Wrpkrs { value: 0b0100 }).unwrap();
        c.exec(&mut mem, Instr::Sysret { restore_if: false })
            .unwrap();
        assert!(c.rflags_if, "IF pinned on while PKRS != 0");
        assert_eq!(c.mode, Mode::User);

        let (mut c2, mut mem2) = cpu(HwExtensions::baseline());
        c2.exec(&mut mem2, Instr::Sysret { restore_if: false })
            .unwrap();
        assert!(!c2.rflags_if, "baseline sysret restores IF as asked");
    }

    #[test]
    fn mem_access_respects_pkrs() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        let root = setup_root(&mut mem);
        map_page(
            &mut mem,
            root,
            0x1000,
            0x20_0000,
            MapFlags::kernel_rw().with_pkey(1),
        );
        c.set_cr3(root, 1, false);
        // KSM view: PKRS = 0 — allowed.
        c.pkrs = 0;
        c.mem_access(&mut mem, 0x1000, Access::Read, None).unwrap();
        // Guest view: key 1 access-disabled — PK fault.
        c.pkrs = pkey::pkrs_deny_access(1);
        c.tlb.flush_all();
        let err = c
            .mem_access(&mut mem, 0x1000, Access::Read, None)
            .unwrap_err();
        assert!(matches!(err, Fault::PkViolation { key: 1, .. }));
    }

    #[test]
    fn pk_write_disable_allows_reads() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        let root = setup_root(&mut mem);
        map_page(
            &mut mem,
            root,
            0x2000,
            0x20_1000,
            MapFlags::kernel_rw().with_pkey(2),
        );
        c.set_cr3(root, 1, false);
        c.pkrs = pkey::pkrs_deny_write(2);
        c.mem_access(&mut mem, 0x2000, Access::Read, None).unwrap();
        let err = c
            .mem_access(&mut mem, 0x2000, Access::Write, None)
            .unwrap_err();
        assert!(matches!(
            err,
            Fault::PkViolation {
                key: 2,
                write: true,
                ..
            }
        ));
    }

    #[test]
    fn user_cannot_touch_kernel_pages() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        let root = setup_root(&mut mem);
        map_page(&mut mem, root, 0x3000, 0x20_2000, MapFlags::kernel_rw());
        c.set_cr3(root, 1, false);
        c.mode = Mode::User;
        let err = c
            .mem_access(&mut mem, 0x3000, Access::Read, None)
            .unwrap_err();
        assert!(matches!(err, Fault::PageFault { .. }));
    }

    #[test]
    fn dirty_and_accessed_bits() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        let root = setup_root(&mut mem);
        map_page(&mut mem, root, 0x4000, 0x20_3000, MapFlags::kernel_rw());
        c.set_cr3(root, 1, false);
        c.mem_access(&mut mem, 0x4000, Access::Read, None).unwrap();
        let leaf = PageTables::walk(&mut mem, root, 0x4000).unwrap().leaf;
        assert!(leaf & pte::A != 0);
        assert!(leaf & pte::D == 0);
        c.mem_access(&mut mem, 0x4000, Access::Write, None).unwrap();
        let leaf = PageTables::walk(&mut mem, root, 0x4000).unwrap().leaf;
        assert!(leaf & pte::D != 0);
    }

    #[test]
    fn syscall_roundtrip() {
        let (mut c, _mem) = cpu(HwExtensions::cki());
        c.ia32_star = 0x77;
        c.mode = Mode::User;
        let entry = c.syscall_entry().unwrap();
        assert_eq!(entry, 0x77);
        assert_eq!(c.mode, Mode::Kernel);
        assert!(!c.rflags_if);
        assert!(
            c.syscall_entry().is_err(),
            "syscall from kernel mode is #GP"
        );
    }

    #[test]
    fn interrupt_delivery_switches_pkrs_only_for_hw() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        let root = setup_root(&mut mem);
        // Writable stack page for the frame push.
        map_page(&mut mem, root, 0x8000, 0x20_4000, MapFlags::kernel_rw());
        c.set_cr3(root, 1, false);
        c.idtr = 0x40_0000;
        IdtEntry {
            handler: 0xaa,
            ist: 0,
            present: true,
        }
        .write_to(&mut mem, 0x40_0000, 32);
        c.rsp = 0x8ff8;
        c.pkrs = 0b0100;

        // Software int: PKRS unchanged.
        let d = c.deliver_interrupt(&mut mem, 32, false).unwrap();
        assert_eq!(d.handler, 0xaa);
        assert_eq!(c.pkrs, 0b0100);

        // Hardware interrupt: PKRS saved and cleared.
        let d = c.deliver_interrupt(&mut mem, 32, true).unwrap();
        assert_eq!(c.pkrs, 0);
        assert_eq!(d.frame.pkrs, 0b0100);

        // iret restores it.
        c.exec(&mut mem, Instr::Iret { frame: d.frame }).unwrap();
        assert_eq!(c.pkrs, 0b0100);
    }

    #[test]
    fn bad_stack_triple_faults_without_ist() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        let root = setup_root(&mut mem);
        c.set_cr3(root, 1, false);
        c.idtr = 0x40_0000;
        IdtEntry {
            handler: 0xaa,
            ist: 0,
            present: true,
        }
        .write_to(&mut mem, 0x40_0000, 32);
        c.rsp = 0xdead_0000; // unmapped
        let err = c.deliver_interrupt(&mut mem, 32, true).unwrap_err();
        assert_eq!(err, Fault::TripleFault);
    }

    #[test]
    fn ist_rescues_bad_stack() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        let root = setup_root(&mut mem);
        map_page(&mut mem, root, 0x9000, 0x20_5000, MapFlags::kernel_rw());
        c.set_cr3(root, 1, false);
        c.idtr = 0x40_0000;
        c.tss_base = 0x41_0000;
        idt::write_ist(&mut mem, 0x41_0000, 1, 0x9ff8);
        IdtEntry {
            handler: 0xbb,
            ist: 1,
            present: true,
        }
        .write_to(&mut mem, 0x40_0000, 33);
        c.rsp = 0xdead_0000; // guest sabotaged its stack
        let d = c.deliver_interrupt(&mut mem, 33, true).unwrap();
        assert_eq!(d.handler_rsp, 0x9ff8);
    }

    #[test]
    fn invlpg_respects_pcid() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        let root1 = setup_root(&mut mem);
        map_page(&mut mem, root1, 0xa000, 0x20_6000, MapFlags::kernel_rw());
        c.set_cr3(root1, 1, false);
        c.mem_access(&mut mem, 0xa000, Access::Read, None).unwrap();
        // Fill an entry for PCID 2 via direct TLB insert (container 2).
        let miss = c.tlb.lookup(0xa000, 2).unwrap_err();
        c.tlb.fill(
            miss,
            crate::tlb::TlbEntry {
                page_pa: 0x30_0000,
                page_size: PAGE_SIZE,
                writable: true,
                user: false,
                nx: true,
                pkey: 0,
                global: false,
                leaf_slot: 0x1000,
                dirty: true,
            },
        );
        c.exec(&mut mem, Instr::Invlpg { va: 0xa000 }).unwrap();
        assert!(c.tlb.lookup(0xa000, 1).is_err(), "own entry flushed");
        assert!(c.tlb.lookup(0xa000, 2).is_ok(), "other PCID untouched");
    }

    #[test]
    fn read_instructions_return_values() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        c.exec(
            &mut mem,
            Instr::Wrmsr {
                msr: 0x1b,
                value: 0xfee0_0000,
            },
        )
        .unwrap();
        assert_eq!(
            c.exec(&mut mem, Instr::Rdmsr { msr: 0x1b }).unwrap(),
            ExecResult::Value(0xfee0_0000)
        );
        assert_eq!(
            c.exec(&mut mem, Instr::Rdmsr { msr: 0x999 }).unwrap(),
            ExecResult::Value(0)
        );
        let cr0 = c.cr0;
        assert_eq!(
            c.exec(&mut mem, Instr::ReadCr { cr: 0 }).unwrap(),
            ExecResult::Value(cr0)
        );
        assert_eq!(
            c.exec(&mut mem, Instr::Smsw).unwrap(),
            ExecResult::Value(cr0 & 0xffff)
        );
        assert!(matches!(
            c.exec(&mut mem, Instr::ReadCr { cr: 2 }),
            Err(Fault::GeneralProtection(_))
        ));
    }

    #[test]
    fn flags_and_gs_semantics() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        c.gs_base = 0x1000;
        c.kernel_gs_base = 0x2000;
        c.exec(&mut mem, Instr::Swapgs).unwrap();
        assert_eq!((c.gs_base, c.kernel_gs_base), (0x2000, 0x1000));
        c.exec(&mut mem, Instr::Cli).unwrap();
        assert!(!c.rflags_if);
        c.exec(&mut mem, Instr::Popf { if_flag: true }).unwrap();
        assert!(c.rflags_if);
        c.exec(&mut mem, Instr::Stac).unwrap();
        assert!(c.ac);
        c.exec(&mut mem, Instr::Clac).unwrap();
        assert!(!c.ac);
    }

    #[test]
    fn soft_int_surfaces_to_runtime() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        c.mode = Mode::User;
        assert_eq!(
            c.exec(&mut mem, Instr::IntN { vector: 0x80 }).unwrap(),
            ExecResult::SoftInt(0x80)
        );
    }

    #[test]
    fn wrmsr_to_pkrs_works_on_baseline_only_path() {
        // Baseline hardware writes PKRS via wrmsr (§2.3); CKI hardware
        // blocks wrmsr in the guest but the MSR alias still exists for the
        // monitor (PKRS = 0 context).
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        c.exec(
            &mut mem,
            Instr::Wrmsr {
                msr: MSR_IA32_PKRS,
                value: 0b1100,
            },
        )
        .unwrap();
        assert_eq!(c.pkrs, 0b1100);
        assert_eq!(
            c.exec(&mut mem, Instr::Rdmsr { msr: MSR_IA32_PKRS }),
            Err(Fault::BlockedPrivileged { mnemonic: "rdmsr" }),
            "with PKRS now non-zero, further MSR access traps"
        );
    }

    #[test]
    fn invpcid_variants() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        for (pcid, va) in [(1u16, 0x1000u64), (1, 0x2000), (2, 0x1000)] {
            let miss = c.tlb.lookup(va, pcid).unwrap_err();
            c.tlb.fill(
                miss,
                crate::tlb::TlbEntry {
                    page_pa: 0x10_0000,
                    page_size: PAGE_SIZE,
                    writable: true,
                    user: false,
                    nx: true,
                    pkey: 0,
                    global: false,
                    leaf_slot: 0x1000,
                    dirty: true,
                },
            );
        }
        c.exec(
            &mut mem,
            Instr::Invpcid {
                mode: InvpcidMode::IndividualAddress {
                    pcid: 1,
                    va: 0x1000,
                },
            },
        )
        .unwrap();
        assert!(c.tlb.lookup(0x1000, 1).is_err());
        assert!(c.tlb.lookup(0x2000, 1).is_ok());
        c.exec(
            &mut mem,
            Instr::Invpcid {
                mode: InvpcidMode::SingleContext { pcid: 1 },
            },
        )
        .unwrap();
        assert!(c.tlb.lookup(0x2000, 1).is_err());
        assert!(c.tlb.lookup(0x1000, 2).is_ok());
        c.exec(
            &mut mem,
            Instr::Invpcid {
                mode: InvpcidMode::AllContexts,
            },
        )
        .unwrap();
        assert!(c.tlb.is_empty());
    }

    #[test]
    fn missing_idt_triple_faults() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        assert_eq!(
            c.deliver_interrupt(&mut mem, 32, true),
            Err(Fault::TripleFault)
        );
        c.idtr = 0x40_0000; // present IDT, absent vector
        assert_eq!(
            c.deliver_interrupt(&mut mem, 99, true),
            Err(Fault::TripleFault)
        );
    }

    #[test]
    fn halted_until_interrupt() {
        let (mut c, mut mem) = cpu(HwExtensions::cki());
        let root = setup_root(&mut mem);
        map_page(&mut mem, root, 0x8000, 0x20_7000, MapFlags::kernel_rw());
        c.set_cr3(root, 1, false);
        assert_eq!(c.exec(&mut mem, Instr::Hlt).unwrap(), ExecResult::Halted);
        assert!(c.halted);
        c.idtr = 0x40_0000;
        IdtEntry {
            handler: 1,
            ist: 0,
            present: true,
        }
        .write_to(&mut mem, 0x40_0000, 34);
        c.rsp = 0x8ff8;
        c.deliver_interrupt(&mut mem, 34, true).unwrap();
        assert!(!c.halted);
    }
}
