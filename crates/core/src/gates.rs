//! The PKS switch gates (paper §4.2, Figure 8).
//!
//! Gates are executed *instruction by instruction* on the simulated CPU so
//! that the attacks the paper worries about are mechanically checkable:
//!
//! - **Gate abuse (ROP into the tail `wrpkrs`)**: `wrpkrs` takes its value
//!   from a register the attacker controls; the gate re-checks the register
//!   against the hard-coded immediate after the write (`switch_pks` in
//!   Figure 8a) and aborts the container on mismatch.
//! - **Interrupt forgery (§4.4)**: the interrupt gate contains *no*
//!   `wrpkrs` at all — hardware clears PKRS on hardware-interrupt delivery.
//!   Jumping to the gate entry leaves `PKRS = PKRS_GUEST`, so the gate's
//!   first store to the per-vCPU area (KSM key) raises a protection-key
//!   fault and the forgery dies before reaching the host.
//! - **Stack attacks**: gates run on the per-vCPU secure stack at a
//!   constant virtual address (Figure 8c), never trusting `kernel_gs`.

use netsim::exits::CKI_HOST_SWITCH;
use sim_hw::{cost, Access, Fault, Instr, IretFrame, Machine, Tag};

use crate::ksm::{pkrs_guest, Ksm, KsmError, PERVCPU_BASE, SEC_STACK_TOP};

/// Where the control flow enters a gate (attackers can jump mid-gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateEntry {
    /// The legitimate entry point.
    Start,
    /// Past the entry `switch_pks`, straight at the stack switch.
    AfterEntrySwitch,
    /// The tail `wrpkrs` (ROP target).
    TailWrpkrs,
}

/// How a gate invocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateAbort {
    /// The post-`wrpkrs` check caught a forged register value; the
    /// container is killed.
    PksCheckFailed,
    /// An architectural fault stopped the gate (e.g. PK violation on the
    /// secure stack when entered without the PKS switch).
    Fault(Fault),
    /// Control returned to the guest without any privileged effect (e.g.
    /// jumping to the tail `wrpkrs` with the already-correct value).
    BenignReturn,
}

/// Executes the `switch_pks` macro of Figure 8a: `wrpkrs` from the `rax`
/// register, then verify `rax` still equals the hard-coded `expected`.
fn switch_pks(m: &mut Machine, rax: u32, expected: u32) -> Result<(), GateAbort> {
    m.cpu
        .exec(&mut m.mem, Instr::Wrpkrs { value: rax })
        .map_err(GateAbort::Fault)?;
    // cmp \pkrs, %rax ; jne abort
    m.cpu.clock.charge(Tag::KsmCall, cost::PKS_CHECK);
    if rax != expected {
        // The container is killed; restore a safe PKRS for the simulation.
        m.cpu.pkrs = pkrs_guest();
        return Err(GateAbort::PksCheckFailed);
    }
    Ok(())
}

/// Invokes the KSM through the call gate (Figure 8a), legitimately.
///
/// `handler` runs with `PKRS = 0` on the secure stack. Returns the
/// handler's result.
pub fn ksm_call<R>(
    m: &mut Machine,
    ksm: &mut Ksm,
    handler: impl FnOnce(&mut Machine, &mut Ksm) -> Result<R, KsmError>,
) -> Result<Result<R, KsmError>, GateAbort> {
    ksm_call_from(m, ksm, GateEntry::Start, 0, handler)
}

/// Invokes the KSM call gate from an arbitrary entry point with an
/// attacker-controlled `rax` — the gate-abuse testbed.
pub fn ksm_call_from<R>(
    m: &mut Machine,
    ksm: &mut Ksm,
    entry: GateEntry,
    rax: u32,
    handler: impl FnOnce(&mut Machine, &mut Ksm) -> Result<R, KsmError>,
) -> Result<Result<R, KsmError>, GateAbort> {
    let saved_rsp = m.cpu.rsp;
    let span = m.cpu.span_enter("cki.ksm_call");
    let r = (|| {
        if entry == GateEntry::TailWrpkrs {
            // ROP directly to the exit switch: wrpkrs executes with the
            // attacker's rax, then the check fires. With the already-correct
            // value the jump achieves nothing and control simply returns.
            switch_pks(m, rax, pkrs_guest())?;
            return Err(GateAbort::BenignReturn);
        }

        let enter = m.cpu.span_enter("cki.gate.enter");
        if entry == GateEntry::Start {
            if let Err(e) = switch_pks(m, rax, 0) {
                m.cpu.span_exit(enter);
                return Err(e);
            }
        }

        // mov $PERCPU_SEC_STACK, %rsp — then push the saved rsp. The store
        // faults if PKRS still denies the KSM key (forged entry).
        m.cpu.rsp = SEC_STACK_TOP;
        if let Err(f) = m
            .cpu
            .mem_access(&mut m.mem, SEC_STACK_TOP - 8, Access::Write, None)
        {
            m.cpu.span_exit(enter);
            return Err(GateAbort::Fault(f));
        }
        m.cpu.clock.charge(Tag::KsmCall, cost::KSM_STACK_SWITCH);
        m.cpu.span_exit(enter);

        // The KSM handler runs with full memory view.
        let verify = m.cpu.span_enter("cki.ksm.verify");
        m.cpu.clock.charge(Tag::KsmCall, cost::KSM_VALIDATE);
        let result = handler(m, ksm);
        m.cpu.span_exit(verify);

        // pop / restore stack, then switch back to the guest's PKRS.
        let exit = m.cpu.span_enter("cki.gate.exit");
        m.cpu.rsp = saved_rsp;
        let sw = switch_pks(m, pkrs_guest(), pkrs_guest());
        m.cpu.span_exit(exit);
        sw?;
        Ok(result)
    })();
    m.cpu.span_exit(span);
    r
}

/// A request saved in the per-vCPU area for the host to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrqRecord {
    /// Vector number.
    pub vector: u8,
    /// Whether delivery came through genuine hardware-interrupt delivery.
    pub hw_delivered: bool,
}

/// The interrupt gate (Figure 8b): called after the CPU delivered a
/// hardware interrupt through the IDT (which, with the CKI extension,
/// saved PKRS into the frame and cleared it).
///
/// Saves the IRQ record to the per-vCPU area, performs the exit to the
/// host, and returns through `iret` (which restores PKRS from the frame).
pub fn interrupt_gate(
    m: &mut Machine,
    frame: IretFrame,
    vector: u8,
    host_handler: impl FnOnce(&mut Machine),
) -> Result<IrqRecord, GateAbort> {
    let span = m.cpu.span_enter("cki.gate.irq");
    let r = (|| {
        // save IRQ info (\irqno, errcode) — stores into the per-vCPU area.
        // With PKRS != 0 (forged entry: nobody cleared PKRS) this store dies
        // with a protection-key fault.
        let rec_pa = m
            .cpu
            .mem_access(&mut m.mem, PERVCPU_BASE + 0x100, Access::Write, None)
            .map_err(GateAbort::Fault)?;
        m.mem.write_u8(rec_pa, vector);
        let record = IrqRecord {
            vector,
            hw_delivered: true,
        };

        // Exit to the host: full context switch (registers + CR3), charged.
        host_switch(m);
        host_handler(m);
        host_switch(m);

        // iret — restores mode, IF, rsp, and (CKI extension) PKRS.
        let iret = m.cpu.span_enter("cki.iret");
        let x = m.cpu.exec(&mut m.mem, Instr::Iret { frame });
        m.cpu.span_exit(iret);
        x.map_err(GateAbort::Fault)?;
        Ok(record)
    })();
    m.cpu.span_exit(span);
    r
}

/// The hypercall gate (Figure 8b): `switch_pks $0`, exit to host, run the
/// host service, return, `switch_pks $PKRS_GUEST`.
pub fn hypercall_gate<R>(
    m: &mut Machine,
    rax: u32,
    host_handler: impl FnOnce(&mut Machine) -> R,
) -> Result<R, GateAbort> {
    let span = m.cpu.span_enter("cki.gate.hypercall");
    let r = (|| {
        switch_pks(m, rax, 0)?;
        host_switch(m);
        let r = host_handler(m);
        host_switch(m);
        switch_pks(m, pkrs_guest(), pkrs_guest())?;
        Ok(r)
    })();
    m.cpu.span_exit(span);
    r
}

/// Context-switch cost of leaving the guest for the host kernel or coming
/// back: register file save/restore and a CR3 switch. No PTI and no IBRS:
/// the paper removes side-channel mitigations from gates that only expose
/// private data (§3.3), and the host crossing relies on address-space
/// separation.
fn host_switch(m: &mut Machine) {
    m.cpu.clock.charge(Tag::VmExit, CKI_HOST_SWITCH);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ksm::{KEY_KSM, VEC_VIRTIO};
    use sim_hw::{pkrs_deny_access, HwExtensions, IdtEntry, Mode};
    use sim_mem::{FrameAllocator, Segment, PAGE_SIZE};

    fn setup() -> (Machine, Ksm, FrameAllocator) {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::cki());
        let base = m.frames.alloc_contiguous(4096).expect("segment");
        let seg = Segment {
            start: base,
            end: base + 4096 * PAGE_SIZE,
        };
        let ksm = Ksm::new(&mut m, seg, 1, 3);
        let ga = FrameAllocator::new(seg.start, seg.end);
        (m, ksm, ga)
    }

    /// Loads a guest address space so the per-vCPU area and physmap resolve.
    fn enter_guest(m: &mut Machine, ksm: &mut Ksm, ga: &mut FrameAllocator) -> sim_mem::Phys {
        let root = ga.alloc().unwrap();
        ksm.declare_ptp(m, root, 4).unwrap();
        ksm.load_cr3(m, root, 0).unwrap();
        m.cpu.pkrs = pkrs_guest();
        m.cpu.mode = Mode::Kernel;
        root
    }

    #[test]
    fn legitimate_ksm_call_roundtrip() {
        let (mut m, mut ksm, mut ga) = setup();
        enter_guest(&mut m, &mut ksm, &mut ga);
        let p = ga.alloc().unwrap();
        let r = ksm_call(&mut m, &mut ksm, |m, ksm| ksm.declare_ptp(m, p, 1)).unwrap();
        assert!(r.is_ok());
        assert_eq!(m.cpu.pkrs, pkrs_guest(), "gate restored guest PKRS");
    }

    #[test]
    fn rop_into_tail_wrpkrs_is_caught() {
        let (mut m, mut ksm, mut ga) = setup();
        enter_guest(&mut m, &mut ksm, &mut ga);
        // Attacker jumps to the tail wrpkrs with rax = 0 hoping to clear PKRS.
        let r = ksm_call_from(&mut m, &mut ksm, GateEntry::TailWrpkrs, 0, |_m, _k| {
            Ok::<u64, KsmError>(0)
        });
        assert_eq!(r.unwrap_err(), GateAbort::PksCheckFailed);
        assert_eq!(m.cpu.pkrs, pkrs_guest(), "container killed, PKRS safe");
    }

    #[test]
    fn forged_entry_rax_is_caught() {
        let (mut m, mut ksm, mut ga) = setup();
        enter_guest(&mut m, &mut ksm, &mut ga);
        // Entering at Start with rax != 0 (e.g. leaving KSM access denied
        // but PTP writable) is also caught by the check.
        let rogue = pkrs_deny_access(KEY_KSM);
        let r = ksm_call_from(&mut m, &mut ksm, GateEntry::Start, rogue, |_m, _k| {
            Ok::<u64, KsmError>(0)
        });
        assert_eq!(r.unwrap_err(), GateAbort::PksCheckFailed);
    }

    #[test]
    fn skipping_entry_switch_faults_on_secure_stack() {
        let (mut m, mut ksm, mut ga) = setup();
        enter_guest(&mut m, &mut ksm, &mut ga);
        // Jump past the entry switch_pks: PKRS still PKRS_GUEST, so the
        // secure-stack store hits the KSM key.
        let r = ksm_call_from(
            &mut m,
            &mut ksm,
            GateEntry::AfterEntrySwitch,
            0,
            |_m, _k| Ok::<u64, KsmError>(0),
        );
        match r.unwrap_err() {
            GateAbort::Fault(Fault::PkViolation { key, .. }) => assert_eq!(key, KEY_KSM),
            other => panic!("expected PK violation, got {other:?}"),
        }
    }

    #[test]
    fn hardware_interrupt_flows_through_gate() {
        let (mut m, mut ksm, mut ga) = setup();
        enter_guest(&mut m, &mut ksm, &mut ga);
        m.cpu.idtr = ksm.idt_pa;
        m.cpu.tss_base = ksm.tss_pa;
        // Hardware delivers the interrupt: PKRS is saved and cleared.
        let d = m
            .cpu
            .deliver_interrupt(&mut m.mem, VEC_VIRTIO, true)
            .unwrap();
        assert_eq!(m.cpu.pkrs, 0, "IDT extension cleared PKRS");
        assert_eq!(d.frame.pkrs, pkrs_guest());
        let mut host_ran = false;
        let rec = interrupt_gate(&mut m, d.frame, VEC_VIRTIO, |_m| host_ran = true).unwrap();
        assert!(host_ran);
        assert_eq!(rec.vector, VEC_VIRTIO);
        assert_eq!(m.cpu.pkrs, pkrs_guest(), "iret restored guest PKRS");
    }

    #[test]
    fn forged_interrupt_jump_dies_on_pervcpu_store() {
        let (mut m, mut ksm, mut ga) = setup();
        enter_guest(&mut m, &mut ksm, &mut ga);
        m.cpu.idtr = ksm.idt_pa;
        // The guest jumps directly to the interrupt gate: no hardware
        // delivery, so PKRS is still PKRS_GUEST.
        let fake_frame = IretFrame {
            rip: 0,
            user_mode: false,
            if_flag: true,
            rsp: 0,
            pkrs: 0,
        };
        let mut host_ran = false;
        let r = interrupt_gate(&mut m, fake_frame, VEC_VIRTIO, |_m| host_ran = true);
        assert!(
            matches!(
                r.unwrap_err(),
                GateAbort::Fault(Fault::PkViolation { key: KEY_KSM, .. })
            ),
            "forgery blocked before reaching the host"
        );
        assert!(!host_ran, "host handler never saw the forged interrupt");
    }

    #[test]
    fn software_int_does_not_clear_pkrs() {
        let (mut m, mut ksm, mut ga) = setup();
        enter_guest(&mut m, &mut ksm, &mut ga);
        m.cpu.idtr = ksm.idt_pa;
        m.cpu.tss_base = ksm.tss_pa;
        // A vector without IST, delivered on a guest-writable stack (the
        // physmap alias of a delegated data frame).
        let stack_frame = ga.alloc().unwrap();
        IdtEntry {
            handler: 0x77,
            ist: 0,
            present: true,
        }
        .write_to(&mut m.mem, ksm.idt_pa, 48);
        m.cpu.rsp = ksm.physmap_va(stack_frame) + 0xff8;
        let before = m.cpu.pkrs;
        let d = m.cpu.deliver_interrupt(&mut m.mem, 48, false).unwrap();
        assert_eq!(d.handler, 0x77);
        assert_eq!(m.cpu.pkrs, before, "int n leaves PKRS unchanged (§4.4)");
    }

    #[test]
    fn software_int_to_ksm_ist_vector_lands_in_double_fault() {
        let (mut m, mut ksm, mut ga) = setup();
        enter_guest(&mut m, &mut ksm, &mut ga);
        m.cpu.idtr = ksm.idt_pa;
        m.cpu.tss_base = ksm.tss_pa;
        // Forging `int 33` from the guest kernel: the frame push targets
        // the KSM-keyed IST stack while PKRS = PKRS_GUEST, faulting; the
        // hardware-raised #DF (PKRS cleared) hands control to the host
        // instead of triple-faulting the machine.
        let d = m
            .cpu
            .deliver_interrupt(&mut m.mem, VEC_VIRTIO, false)
            .unwrap();
        assert_eq!(d.handler, crate::ksm::INTR_GATE_TOKEN, "#DF gate");
        assert_eq!(m.cpu.pkrs, 0, "#DF delivery cleared PKRS");
        assert_eq!(
            d.frame.pkrs,
            pkrs_guest(),
            "original PKRS preserved for audit"
        );
    }

    #[test]
    fn hypercall_gate_roundtrip_and_cost() {
        let (mut m, mut ksm, mut ga) = setup();
        enter_guest(&mut m, &mut ksm, &mut ga);
        let mark = m.cpu.clock.mark();
        let out = hypercall_gate(&mut m, 0, |_m| 42u64).unwrap();
        assert_eq!(out, 42);
        assert_eq!(m.cpu.pkrs, pkrs_guest());
        let ns = m.cpu.clock.since_ns(mark);
        assert!(
            (250.0..450.0).contains(&ns),
            "CKI hypercall gate = {ns} ns (§7.1: 390 ns)"
        );
    }

    #[test]
    fn guest_cannot_rewrite_idt_entry() {
        let (mut m, mut ksm, mut ga) = setup();
        enter_guest(&mut m, &mut ksm, &mut ga);
        // The IDT is in KSM host frames, not mapped in the guest's space at
        // any writable VA. The only guest-reachable alias would be the
        // physmap — and the IDT page is a *host* frame outside the
        // delegated segment, so there is no alias at all.
        assert!(!ksm.seg.contains(ksm.idt_pa));
        // Blocked from reloading IDTR too (Table 3).
        let err = m
            .cpu
            .exec(&mut m.mem, Instr::Lidt { base: 0xdead_b000 })
            .unwrap_err();
        assert!(matches!(err, Fault::BlockedPrivileged { mnemonic: "lidt" }));
        // The IDT entry is intact.
        let e = IdtEntry::read_from(&mut m.mem, ksm.idt_pa, VEC_VIRTIO);
        assert!(e.present && e.handler == crate::ksm::INTR_GATE_TOKEN);
    }
}
