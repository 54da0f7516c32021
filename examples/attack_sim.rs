//! Attack simulation: a compromised guest kernel tries every escape the
//! paper defends against (§4, §6), and each one is stopped by a different
//! mechanism.
//!
//! ```sh
//! cargo run --example attack_sim
//! ```

use cki::cki_core::{self, gates, CkiPlatform};
use cki::guest_os::Sys;
use cki::sim_hw::{instr::InvpcidMode, trace, Access, Fault, Instr, IretFrame, Mode, TraceKind};
use cki::{Backend, Stack, StackConfig};

fn main() {
    let mut stack = Stack::new(Backend::Cki, StackConfig::default());
    stack.machine.cpu.enable_tracer();
    // Give the container something to protect: a mapped page (hence a
    // declared PTP) in process 1.
    {
        let mut env = stack.env();
        let base = env.mmap(4096).expect("mmap");
        env.touch(base, true).expect("touch");
    }
    let Stack {
        machine: m, kernel, ..
    } = &mut stack;
    let root = kernel.proc(1).aspace.root;
    let platform = kernel
        .platform
        .as_any_mut()
        .downcast_mut::<CkiPlatform>()
        .expect("cki platform");

    // The attacker: the guest kernel itself, i.e. ring 0 with
    // PKRS = PKRS_GUEST.
    m.cpu.mode = Mode::Kernel;
    m.cpu.pkrs = cki_core::pkrs_guest();
    let mut caught = 0;
    let mut attempted = 0;

    println!("== Attack 1: execute destructive privileged instructions ==");
    for instr in [
        Instr::Wrmsr {
            msr: 0x10,
            value: 0xdead,
        },
        Instr::Lidt { base: 0xbad0_0000 },
        Instr::WriteCr3 {
            value: 0xbad0_0000,
            preserve_tlb: false,
        },
        Instr::Cli,
        Instr::Invpcid {
            mode: InvpcidMode::AllContexts,
        },
        Instr::OutPort {
            port: 0x64,
            value: 0xfe,
        }, // keyboard-controller reset
    ] {
        attempted += 1;
        match m.cpu.exec(&mut m.mem, instr) {
            Err(Fault::BlockedPrivileged { mnemonic }) => {
                caught += 1;
                println!("  {mnemonic:<16} -> blocked by the PKS extension, trapped to host");
            }
            other => println!("  {:<16} -> NOT BLOCKED: {other:?}", instr.mnemonic()),
        }
    }

    println!("\n== Attack 2: overwrite a declared page-table page ==");
    attempted += 1;
    let ptp_va = platform.ksm.physmap_va(root);
    match m.cpu.mem_access(&mut m.mem, ptp_va, Access::Write, None) {
        Err(Fault::PkViolation { key, .. }) => {
            caught += 1;
            println!("  write to own root PTP -> PK fault (key {key}): PTPs are read-only via PKS");
        }
        other => println!("  write to PTP -> NOT BLOCKED: {other:?}"),
    }

    println!("\n== Attack 3: ask the KSM to map another container's memory ==");
    attempted += 1;
    let foreign_pa = 0x100_0000u64; // host memory outside the delegated segment
    let evil_pte = cki::sim_mem::pte::make(
        foreign_pa,
        cki::sim_mem::pte::P | cki::sim_mem::pte::W | cki::sim_mem::pte::U | cki::sim_mem::pte::NX,
    );
    let r = gates::ksm_call(m, &mut platform.ksm, |m, k| {
        k.update_pte(m, root, 0, evil_pte)
    });
    match r {
        Ok(Err(e)) => {
            caught += 1;
            println!("  update_pte(foreign hPA) -> KSM rejected: {e:?}");
        }
        other => println!("  update_pte(foreign hPA) -> NOT BLOCKED: {other:?}"),
    }

    println!("\n== Attack 4: ROP into the tail wrpkrs of the KSM gate ==");
    attempted += 1;
    let r = gates::ksm_call_from(
        m,
        &mut platform.ksm,
        gates::GateEntry::TailWrpkrs,
        0,
        |_m, _k| Ok::<u64, cki_core::KsmError>(0),
    );
    match r {
        Err(gates::GateAbort::PksCheckFailed) => {
            caught += 1;
            println!("  jump to gate tail with rax=0 -> post-wrpkrs check fired, container killed");
        }
        other => println!("  gate tail ROP -> NOT BLOCKED: {other:?}"),
    }

    println!("\n== Attack 5: forge a hardware interrupt (jump to the gate) ==");
    attempted += 1;
    let fake = IretFrame {
        rip: 0,
        user_mode: false,
        if_flag: true,
        rsp: 0,
        pkrs: 0,
    };
    let mut host_saw_it = false;
    let r = gates::interrupt_gate(m, fake, cki_core::ksm::VEC_VIRTIO, |_m| host_saw_it = true);
    match r {
        Err(gates::GateAbort::Fault(Fault::PkViolation { .. })) if !host_saw_it => {
            caught += 1;
            println!(
                "  direct jump to interrupt gate -> PK fault on per-vCPU store; host never saw it"
            );
        }
        other => {
            println!("  interrupt forgery -> NOT BLOCKED: {other:?} (host_saw_it={host_saw_it})")
        }
    }

    println!("\n== Attack 6: disable interrupts via sysret (DoS) ==");
    attempted += 1;
    m.cpu
        .exec(&mut m.mem, Instr::Sysret { restore_if: false })
        .expect("sysret");
    if m.cpu.rflags_if {
        caught += 1;
        println!("  sysret with IF=0 -> hardware pinned IF=1 while PKRS != 0");
    } else {
        println!("  sysret with IF=0 -> NOT BLOCKED: interrupts now off!");
    }
    m.cpu.mode = Mode::Kernel;

    println!("\n== Attack 7: point the stack into the void, then take an IRQ ==");
    attempted += 1;
    m.cpu.idtr = platform.ksm.idt_pa;
    m.cpu.tss_base = platform.ksm.tss_pa;
    m.cpu.rsp = 0xdead_dead_0000; // sabotage
    match m
        .cpu
        .deliver_interrupt(&mut m.mem, cki_core::ksm::VEC_VIRTIO, true)
    {
        Ok(d) => {
            caught += 1;
            println!(
                "  IRQ with sabotaged rsp -> IST stack at {:#x} used; no triple fault",
                d.handler_rsp
            );
        }
        Err(f) => println!("  IRQ with sabotaged rsp -> MACHINE DIED: {f}"),
    }

    println!("\nresult: {caught}/{attempted} attacks contained");
    assert_eq!(caught, attempted, "an attack escaped!");

    // The container still works afterwards: isolation, not destruction.
    let mut env = stack.env();
    env.machine.cpu.mode = Mode::User;
    assert_eq!(env.sys(Sys::Getpid).expect("alive"), 1);
    println!("container still schedulable after all attacks — DoS prevented.");

    println!("\n== Hardware audit trail (last events) ==");
    let tracer = &stack.machine.cpu.tracer;
    assert_eq!(tracer.overwritten(), 0, "counts cover every event");
    let blocked = trace::count_of(tracer, TraceKind::InstrBlocked);
    let pk = trace::count_of(tracer, TraceKind::PkViolation);
    print!("{}", trace::render_tail(tracer, 8));
    println!("totals: {blocked} blocked instructions, {pk} PK violations recorded");
}
