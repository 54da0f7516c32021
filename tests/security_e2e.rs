//! End-to-end security tests: the attacks of §4 and §6, mounted against a
//! live container stack and verified to be contained.

use cki::cki_core::{self, gates, CkiPlatform, KsmError};
use cki::guest_os::{Errno, Sys};
use cki::sim_hw::instr::InvpcidMode;
use cki::sim_hw::trace::{count_of, render_tail};
use cki::sim_hw::{Access, Fault, Instr, IretFrame, Machine, Mode, TraceEvent, TraceKind};
use cki::sim_mem::addr::pt_index;
use cki::sim_mem::pte;
use cki::vmm::HvmPlatform;
use cki::{Backend, Stack, StackConfig};

/// Kinds of all traced events, oldest first.
fn traced_kinds(m: &Machine) -> Vec<TraceKind> {
    m.cpu.tracer.events().map(|(_, e)| e.kind()).collect()
}

/// Boots CKI with one mapped page so a declared PTP exists.
fn attack_stack() -> Stack {
    let mut stack = Stack::new(Backend::Cki, StackConfig::default());
    let mut env = stack.env();
    let base = env.mmap(4096).expect("mmap");
    env.touch(base, true).expect("touch");
    stack
}

fn as_guest_kernel(stack: &mut Stack) {
    stack.machine.cpu.mode = Mode::Kernel;
    stack.machine.cpu.pkrs = cki_core::pkrs_guest();
}

#[test]
fn destructive_instructions_trap_to_host() {
    let mut stack = attack_stack();
    as_guest_kernel(&mut stack);
    stack.machine.cpu.enable_tracer();
    let m = &mut stack.machine;
    let attacks = [
        Instr::Wrmsr {
            msr: 0xc000_0080,
            value: 0,
        }, // EFER
        Instr::Lgdt { base: 0xbad },
        Instr::Ltr { selector: 0x28 },
        Instr::WriteCr0 { value: 0 }, // turn off paging!
        Instr::WriteCr4 { value: 0 }, // turn off PKS!
        Instr::WriteCr3 {
            value: 0xbad000,
            preserve_tlb: false,
        },
        Instr::Invpcid {
            mode: InvpcidMode::SingleContext { pcid: 0 },
        },
        Instr::Sti,
        Instr::Popf { if_flag: false },
        Instr::InPort { port: 0xcf8 },
        Instr::Smsw,
        Instr::ReadCr { cr: 3 }, // would leak hPAs
    ];
    for instr in attacks {
        let r = m.cpu.exec(&mut m.mem, instr);
        assert!(
            matches!(r, Err(Fault::BlockedPrivileged { .. })),
            "{} escaped: {r:?}",
            instr.mnemonic()
        );
    }
    // Every blocked attempt is audited, in execution order.
    assert_eq!(m.cpu.tracer.overwritten(), 0);
    assert_eq!(
        count_of(&m.cpu.tracer, TraceKind::InstrBlocked),
        attacks.len() as u64
    );
    let recorded: Vec<&str> = m
        .cpu
        .tracer
        .events()
        .filter_map(|(_, e)| match e {
            TraceEvent::InstrBlocked { mnemonic, .. } => Some(*mnemonic),
            _ => None,
        })
        .collect();
    let expected: Vec<&str> = attacks.iter().map(|i| i.mnemonic()).collect();
    assert_eq!(recorded, expected, "audit trail preserves attempt order");
}

#[test]
fn harmless_instructions_still_work() {
    let mut stack = attack_stack();
    as_guest_kernel(&mut stack);
    let m = &mut stack.machine;
    // Table 3's "No" rows keep the guest kernel fast.
    m.cpu
        .exec(&mut m.mem, Instr::ReadCr { cr: 0 })
        .expect("read cr0");
    m.cpu
        .exec(&mut m.mem, Instr::ReadCr { cr: 4 })
        .expect("read cr4");
    m.cpu.exec(&mut m.mem, Instr::Swapgs).expect("swapgs");
    m.cpu.exec(&mut m.mem, Instr::Clac).expect("clac");
    m.cpu
        .exec(&mut m.mem, Instr::Invlpg { va: 0x1000 })
        .expect("invlpg");
}

#[test]
fn guest_cannot_write_ptp_but_can_read_it() {
    let mut stack = attack_stack();
    let root = stack.kernel.proc(1).aspace.root;
    let ptp_va = {
        let p = stack
            .kernel
            .platform
            .as_any()
            .downcast_ref::<CkiPlatform>()
            .unwrap();
        p.ksm.physmap_va(root)
    };
    as_guest_kernel(&mut stack);
    stack.machine.cpu.enable_tracer();
    let m = &mut stack.machine;
    // Reads are allowed: CKI uses PKS write-disable, not the W bit, so the
    // guest can walk its own tables (§4.3).
    m.cpu
        .mem_access(&mut m.mem, ptp_va, Access::Read, None)
        .expect("read own PTP");
    let err = m
        .cpu
        .mem_access(&mut m.mem, ptp_va, Access::Write, None)
        .unwrap_err();
    assert!(matches!(
        err,
        Fault::PkViolation {
            key: cki_core::KEY_PTP,
            write: true,
            ..
        }
    ));
    // The permitted read leaves no event; only the write attempt is audited.
    assert_eq!(traced_kinds(m), vec![TraceKind::PkViolation]);
    let first = m.cpu.tracer.events().next().unwrap().1;
    match first {
        TraceEvent::PkViolation { key, write, .. } => {
            assert_eq!(key, cki_core::KEY_PTP);
            assert!(write);
        }
        other => panic!("unexpected event {other:?}"),
    }
}

#[test]
fn ksm_rejects_mappings_outside_the_segment() {
    let mut stack = attack_stack();
    as_guest_kernel(&mut stack);
    let root = stack.kernel.proc(1).aspace.root;
    let Stack {
        machine: m, kernel, ..
    } = &mut stack;
    let p = kernel
        .platform
        .as_any_mut()
        .downcast_mut::<CkiPlatform>()
        .unwrap();
    // Try to map host memory (the KSM's own IDT page, say).
    let idt = p.ksm.idt_pa;
    let evil = pte::make(idt & pte::ADDR_MASK, pte::P | pte::W | pte::U | pte::NX);
    let r = gates::ksm_call(m, &mut p.ksm, |m, k| k.update_pte(m, root, 1, evil))
        .expect("gate traversal");
    assert_eq!(
        r.unwrap_err(),
        KsmError::BadPte("target outside delegated segment")
    );
}

#[test]
fn ksm_rejects_kernel_executable_mappings() {
    // No new wrpkrs instructions can be smuggled into kernel-executable
    // memory (§4.1).
    let mut stack = attack_stack();
    as_guest_kernel(&mut stack);
    let root = stack.kernel.proc(1).aspace.root;
    let Stack {
        machine: m, kernel, ..
    } = &mut stack;
    let p = kernel
        .platform
        .as_any_mut()
        .downcast_mut::<CkiPlatform>()
        .unwrap();
    let inside = p.ksm.seg.start + 0x5000;
    let evil = pte::make(inside, pte::P | pte::W); // U=0, NX=0
    let r = gates::ksm_call(m, &mut p.ksm, |m, k| k.update_pte(m, root, 1, evil))
        .expect("gate traversal");
    assert_eq!(
        r.unwrap_err(),
        KsmError::BadPte("non-leaf target is not a declared PTP")
    );
}

#[test]
fn ksm_rejects_huge_mappings_of_declared_ptps() {
    // A level-2 entry naming a declared level-1 PTP passes the non-leaf
    // target check, but with PS set the hardware walk treats it as a
    // 2 MiB leaf: user-writable (or kernel-executable) access to a live
    // page-table page. The KSM rejects every huge mapping (§6).
    let mut stack = attack_stack();
    let base = *stack.kernel.proc(1).aspace.pages.keys().next().unwrap();
    let root = stack.kernel.proc(1).aspace.root;
    as_guest_kernel(&mut stack);
    let Stack {
        machine: m, kernel, ..
    } = &mut stack;
    let p = kernel
        .platform
        .as_any_mut()
        .downcast_mut::<CkiPlatform>()
        .unwrap();
    let mut table = root;
    for level in [4u8, 3] {
        table = pte::addr(m.mem.read_u64(table + 8 * pt_index(base, level) as u64));
    }
    let l2 = table;
    let l1 = pte::addr(m.mem.read_u64(l2 + 8 * pt_index(base, 2) as u64));
    let idx = (pt_index(base, 2) + 1) % 512;
    assert!(!pte::present(m.mem.read_u64(l2 + 8 * idx as u64)));
    let alias = (base & !((1u64 << 30) - 1)) | ((idx as u64) << 21);

    for flags in [
        pte::P | pte::W | pte::PS,                    // kernel-executable PTP
        pte::P | pte::W | pte::U | pte::NX | pte::PS, // user-writable PTP
    ] {
        let evil = pte::make(l1, flags);
        let r = gates::ksm_call(m, &mut p.ksm, |m, k| k.update_pte(m, l2, idx, evil))
            .expect("gate traversal");
        assert_eq!(r.unwrap_err(), KsmError::BadPte("huge mapping"));
    }
    assert!(!pte::present(m.mem.read_u64(l2 + 8 * idx as u64)));

    // The aliasing user write finds nothing mapped.
    m.cpu.mode = Mode::User;
    let r = m.cpu.mem_access(&mut m.mem, alias, Access::Write, None);
    assert!(
        matches!(r, Err(Fault::PageFault { code, .. }) if code & pte::fault_code::PRESENT == 0),
        "{r:?}"
    );
}

/// HVM-BM guest memory in the tests below: a 256 MiB EPT window.
const HVM_WINDOW: u64 = 256 * 1024 * 1024;

/// Boots HVM-BM with one touched page; returns the stack and the page.
fn hvm_attack_stack() -> (Stack, u64) {
    let mut stack = Stack::new(
        Backend::HvmBm,
        StackConfig {
            vm_bytes: HVM_WINDOW,
            ..StackConfig::default()
        },
    );
    let mut env = stack.env();
    let va = env.mmap(4096).expect("mmap");
    env.touch(va, true).expect("touch");
    (stack, va)
}

fn hvm(stack: &Stack) -> &HvmPlatform {
    stack.kernel.platform.as_any().downcast_ref().unwrap()
}

/// Host address of the guest PTE translating `va` at `level`. Guest
/// tables hold gPAs, so each step goes through the VM window.
fn guest_pte_slot(stack: &mut Stack, va: u64, level: u8) -> u64 {
    let root = stack.kernel.proc(stack.kernel.current).aspace.root;
    let Stack {
        machine: m, kernel, ..
    } = stack;
    let ept = kernel
        .platform
        .as_any()
        .downcast_ref::<HvmPlatform>()
        .unwrap()
        .ept();
    let mut table = root;
    for l in (level + 1..=4).rev() {
        let entry = m
            .mem
            .read_u64(ept.sw_translate(table) + 8 * pt_index(va, l) as u64);
        table = pte::addr(entry);
    }
    ept.sw_translate(table) + 8 * pt_index(va, level) as u64
}

#[test]
fn hvm_guest_cannot_map_host_memory_past_its_window() {
    // A guest kernel owns its page tables, so it can point a leaf (level
    // 1) or a table pointer (level 2) at any gPA. A gPA at or past the
    // end of the window must take an EPT violation that maps nothing:
    // mapping `base + gpa` would hand the guest host memory outside its
    // VM, or make the walk read host memory as a guest page table.
    let ept_faults = |s: &Stack| {
        s.machine
            .cpu
            .metrics
            .value_of("vmm.ept_faults", Some("hvm"))
    };
    for level in [1u8, 2] {
        for gpa in [HVM_WINDOW, HVM_WINDOW + 0x5000, 1 << 40] {
            let (mut stack, va) = hvm_attack_stack();
            let slot = guest_pte_slot(&mut stack, va, level);
            let old = stack.machine.mem.read_u64(slot);
            let forged = pte::make(gpa, old & !pte::ADDR_MASK);
            stack.machine.mem.write_u64(slot, forged);
            stack.machine.cpu.tlb.flush_all();
            let mappings = hvm(&stack).ept().mappings;
            let exits = ept_faults(&stack);

            let r = stack.env().touch(va, false);

            let case = format!("level {level} entry naming gPA {gpa:#x}");
            assert_eq!(r, Err(Errno::Fault), "{case}");
            let p = hvm(&stack);
            assert_eq!(p.ept().mappings, mappings, "{case}: stage-2 mapping made");
            assert_eq!(
                ept_faults(&stack),
                exits + 1,
                "{case}: the violation still exits once"
            );
        }
    }
}

#[test]
fn cr3_must_name_a_declared_root() {
    let mut stack = attack_stack();
    as_guest_kernel(&mut stack);
    let Stack {
        machine: m, kernel, ..
    } = &mut stack;
    let p = kernel
        .platform
        .as_any_mut()
        .downcast_mut::<CkiPlatform>()
        .unwrap();
    let rogue = p.ksm.seg.start + 0x7000; // arbitrary data page
    let r = gates::ksm_call(m, &mut p.ksm, |m, k| k.load_cr3(m, rogue, 0)).expect("gate traversal");
    assert_eq!(r.unwrap_err(), KsmError::BadRoot);
}

#[test]
fn interrupt_forgery_and_monopolizing_blocked() {
    let mut stack = attack_stack();
    let (idt_pa, tss_pa) = {
        let p = stack
            .kernel
            .platform
            .as_any()
            .downcast_ref::<CkiPlatform>()
            .unwrap();
        (p.ksm.idt_pa, p.ksm.tss_pa)
    };
    as_guest_kernel(&mut stack);
    stack.machine.cpu.enable_tracer();
    let m = &mut stack.machine;
    m.cpu.idtr = idt_pa;
    m.cpu.tss_base = tss_pa;

    // Forgery: jumping into the gate without hardware delivery dies on the
    // first per-vCPU-area store (PKRS was never cleared).
    let fake = IretFrame::default();
    let mut host_ran = false;
    let r = gates::interrupt_gate(m, fake, cki_core::ksm::VEC_VIRTIO, |_m| host_ran = true);
    assert!(matches!(
        r,
        Err(gates::GateAbort::Fault(Fault::PkViolation { .. }))
    ));
    assert!(!host_ran);

    // Monopolizing: the guest cannot reload IDTR (blocked instruction) ...
    let r = m.cpu.exec(&mut m.mem, Instr::Lidt { base: 0xbad000 });
    assert!(matches!(r, Err(Fault::BlockedPrivileged { .. })));
    // ... and a genuine hardware interrupt still reaches the host gate.
    let d = m
        .cpu
        .deliver_interrupt(&mut m.mem, cki_core::ksm::VEC_VIRTIO, true)
        .unwrap();
    assert_eq!(d.handler, cki_core::ksm::INTR_GATE_TOKEN);

    // The trace tells the whole story in order: forged entry dies on a PK
    // violation, the IDTR takeover is blocked, then the genuine hardware
    // interrupt is delivered.
    let kinds = traced_kinds(m);
    let pos = |k: TraceKind| {
        kinds
            .iter()
            .position(|&x| x == k)
            .unwrap_or_else(|| panic!("no {k:?} in {kinds:?}"))
    };
    assert!(
        pos(TraceKind::PkViolation) < pos(TraceKind::InstrBlocked),
        "{kinds:?}"
    );
    assert!(
        pos(TraceKind::InstrBlocked) < pos(TraceKind::InterruptDelivered),
        "{kinds:?}"
    );
}

#[test]
fn container_survives_attack_storm() {
    // After every attack in the module, the container still schedules and
    // serves syscalls — the DoS-prevention claim of §2.1.
    let mut stack = attack_stack();
    as_guest_kernel(&mut stack);
    for _ in 0..100 {
        let m = &mut stack.machine;
        let _ = m.cpu.exec(&mut m.mem, Instr::Wrmsr { msr: 1, value: 2 });
        let _ = m.cpu.exec(&mut m.mem, Instr::Cli);
        let _ = m.cpu.exec(&mut m.mem, Instr::Sysret { restore_if: false });
        assert!(m.cpu.rflags_if, "interrupts stayed enabled");
        m.cpu.mode = Mode::Kernel;
    }
    stack.machine.cpu.mode = Mode::User;
    let mut env = stack.env();
    assert_eq!(env.sys(Sys::Getpid).unwrap(), 1);
}

#[test]
fn tracer_audits_the_attack() {
    let mut stack = attack_stack();
    as_guest_kernel(&mut stack);
    stack.machine.cpu.enable_tracer();
    let m = &mut stack.machine;
    let _ = m.cpu.exec(&mut m.mem, Instr::Wrmsr { msr: 1, value: 2 });
    let _ = m.cpu.exec(&mut m.mem, Instr::Cli);
    assert_eq!(m.cpu.tracer.overwritten(), 0);
    let blocked = count_of(&m.cpu.tracer, TraceKind::InstrBlocked);
    assert_eq!(blocked, 2, "both attempts audited");
    assert_eq!(
        traced_kinds(m),
        vec![TraceKind::InstrBlocked, TraceKind::InstrBlocked]
    );
    let mnemonics: Vec<&str> = m
        .cpu
        .tracer
        .events()
        .filter_map(|(_, e)| match e {
            TraceEvent::InstrBlocked { mnemonic, .. } => Some(*mnemonic),
            _ => None,
        })
        .collect();
    assert_eq!(
        mnemonics,
        vec!["wrmsr", "cli"],
        "attempts recorded in order"
    );
    let tail = render_tail(&m.cpu.tracer, 10);
    assert!(tail.contains("wrmsr") && tail.contains("cli"), "{tail}");
}

/// Executes one concrete contained-attack scenario for a CVE category
/// against a live CKI stack and returns whether CKI contained it.
///
/// Each scenario is the *mechanism* by which §6 claims VM-level isolation
/// (and hence CKI) defuses that slice of the 209-CVE corpus: the guest
/// kernel bug is either made unreachable (blocked instruction / KSM
/// validation / pkey), or its blast radius is confined to the container
/// (errno instead of host crash, IST instead of triple fault).
fn cve_scenario_contained(cat: cve_model::Category) -> bool {
    use cve_model::Category;
    match cat {
        // An OOB write that reaches page tables would need a PTE naming
        // memory outside the container; the KSM validates and refuses.
        Category::OutOfBoundsRw => {
            let mut stack = attack_stack();
            as_guest_kernel(&mut stack);
            let root = stack.kernel.proc(1).aspace.root;
            let Stack {
                machine: m, kernel, ..
            } = &mut stack;
            let p = kernel
                .platform
                .as_any_mut()
                .downcast_mut::<CkiPlatform>()
                .unwrap();
            let oob = pte::make(
                p.ksm.idt_pa & pte::ADDR_MASK,
                pte::P | pte::W | pte::U | pte::NX,
            );
            let r = gates::ksm_call(m, &mut p.ksm, |m, k| k.update_pte(m, root, 1, oob))
                .expect("gate traversal");
            matches!(r, Err(KsmError::BadPte(_)))
        }
        // A dangling pointer into an unmapped VA faults instead of
        // silently reusing freed memory.
        Category::UseAfterFree => {
            let mut stack = Stack::new(Backend::Cki, StackConfig::default());
            let mut env = stack.env();
            let base = env.mmap(4 * 4096).unwrap();
            env.touch(base, true).unwrap();
            env.sys(Sys::Munmap {
                addr: base,
                len: 4 * 4096,
            })
            .unwrap();
            matches!(env.touch(base, true), Err(cki::guest_os::Errno::Fault))
        }
        // Page 0 is never mapped; the dereference is a clean fault.
        Category::NullDereference => {
            let mut stack = Stack::new(Backend::Cki, StackConfig::default());
            let mut env = stack.env();
            matches!(env.touch(0x10, false), Err(cki::guest_os::Errno::Fault))
        }
        // Arbitrary-write primitives aimed at page tables die on the PTP
        // protection key before any translation changes.
        Category::OtherMemCorruption => {
            let mut stack = attack_stack();
            let root = stack.kernel.proc(1).aspace.root;
            let ptp_va = {
                let p = stack
                    .kernel
                    .platform
                    .as_any()
                    .downcast_ref::<CkiPlatform>()
                    .unwrap();
                p.ksm.physmap_va(root)
            };
            as_guest_kernel(&mut stack);
            let m = &mut stack.machine;
            matches!(
                m.cpu.mem_access(&mut m.mem, ptp_va, Access::Write, None),
                Err(Fault::PkViolation {
                    key: cki_core::KEY_PTP,
                    write: true,
                    ..
                })
            )
        }
        // A logic bug that computes a rogue CR3 cannot install it: the
        // write is a blocked instruction, only the KSM loads roots.
        Category::LogicError => {
            let mut stack = attack_stack();
            as_guest_kernel(&mut stack);
            let m = &mut stack.machine;
            matches!(
                m.cpu.exec(
                    &mut m.mem,
                    Instr::WriteCr3 {
                        value: 0xbad000,
                        preserve_tlb: false,
                    },
                ),
                Err(Fault::BlockedPrivileged { .. })
            )
        }
        // Runaway allocation exhausts only the container's delegated
        // segment: the guest sees ENOMEM and keeps serving syscalls
        // instead of taking the host down with it.
        Category::MemoryLeak => {
            let mut stack = Stack::new(
                Backend::Cki,
                StackConfig {
                    vm_bytes: 64 * 1024 * 1024,
                    ..StackConfig::default()
                },
            );
            let mut env = stack.env();
            let base = env.mmap(128 * 1024 * 1024).unwrap();
            let mut exhausted = false;
            for page in 0..(128 * 1024 * 1024 / 4096) {
                if env.touch(base + page * 4096, true).is_err() {
                    exhausted = true;
                    break;
                }
            }
            exhausted && env.sys(Sys::Getpid) == Ok(1)
        }
        // A corrupted guest stack at interrupt time would triple-fault
        // baseline hardware; the KSM's IST lands delivery on a known-good
        // host stack.
        Category::KernelPanic => {
            let mut stack = attack_stack();
            let (idt_pa, tss_pa) = {
                let p = stack
                    .kernel
                    .platform
                    .as_any()
                    .downcast_ref::<CkiPlatform>()
                    .unwrap();
                (p.ksm.idt_pa, p.ksm.tss_pa)
            };
            as_guest_kernel(&mut stack);
            let m = &mut stack.machine;
            m.cpu.idtr = idt_pa;
            m.cpu.tss_base = tss_pa;
            m.cpu.rsp = 0xdead_0000; // sabotaged, unmapped
            m.cpu
                .deliver_interrupt(&mut m.mem, cki_core::ksm::VEC_VIRTIO, true)
                .map(|d| d.handler == cki_core::ksm::INTR_GATE_TOKEN)
                .unwrap_or(false)
        }
        // A deadloop with interrupts masked would monopolize the core;
        // cli is blocked so the preemption timer always fires.
        Category::Deadlock => {
            let mut stack = attack_stack();
            as_guest_kernel(&mut stack);
            let m = &mut stack.machine;
            matches!(
                m.cpu.exec(&mut m.mem, Instr::Cli),
                Err(Fault::BlockedPrivileged { .. })
            ) && m.cpu.rflags_if
        }
        // Reading CR3 would leak host-physical layout; blocked.
        Category::InformationLeak => {
            let mut stack = attack_stack();
            as_guest_kernel(&mut stack);
            let m = &mut stack.machine;
            matches!(
                m.cpu.exec(&mut m.mem, Instr::ReadCr { cr: 3 }),
                Err(Fault::BlockedPrivileged { .. })
            )
        }
    }
}

/// Every CVE in the 209-record dataset maps to a concrete blocked
/// scenario: the mitigation matrix says VM-level isolation covers the
/// record's category, and a live CKI stack demonstrably contains that
/// category's attack mechanism. One scenario runs per category (memoized
/// — records in the same category share the mechanism).
#[test]
fn every_dataset_cve_maps_to_a_contained_scenario() {
    use cve_model::{dataset, mitigates, Architecture, Category};
    let records = dataset();
    assert_eq!(records.len(), 209, "corpus size matches the paper");
    #[allow(
        clippy::disallowed_types,
        reason = "`Category` has no order, and the map is only looked up"
    )]
    let mut contained: std::collections::HashMap<Category, bool> = std::collections::HashMap::new();
    for rec in &records {
        // The paper's matrix: VM-level (and thus CKI) mitigates everything;
        // enclaves miss the DoS slices; OS-level isolation mitigates none.
        assert!(
            mitigates(Architecture::VmLevel, rec.category),
            "{}: matrix says VM-level misses {:?}",
            rec.id,
            rec.category
        );
        assert_eq!(
            mitigates(Architecture::EnclaveBased, rec.category),
            !rec.category.is_dos(),
            "{}: enclave coverage is exactly the non-DoS slice",
            rec.id
        );
        assert!(
            !mitigates(Architecture::OsLevel, rec.category),
            "{}: shared-kernel isolation cannot mitigate a kernel CVE",
            rec.id
        );
        let ok = *contained
            .entry(rec.category)
            .or_insert_with(|| cve_scenario_contained(rec.category));
        assert!(
            ok,
            "{} ({}): scenario not contained under CKI",
            rec.id,
            rec.category.label()
        );
    }
    assert_eq!(contained.len(), Category::ALL.len(), "all categories hit");
}

#[test]
fn baseline_hardware_cannot_enforce_any_of_this() {
    // Negative control: on commodity PKS hardware (no CKI extensions) a
    // "deprivileged" kernel simply executes the destructive instructions —
    // which is why the paper needs the co-design.
    let mut m = cki::sim_hw::Machine::new(64 << 20, cki::sim_hw::HwExtensions::baseline());
    m.cpu.mode = Mode::Kernel;
    m.cpu
        .exec(
            &mut m.mem,
            Instr::Wrmsr {
                msr: cki::sim_hw::cpu::MSR_IA32_PKRS,
                value: 4,
            },
        )
        .expect("set PKRS via wrmsr");
    assert_eq!(m.cpu.pkrs, 4);
    m.cpu.exec(&mut m.mem, Instr::Cli).expect("cli executes");
    assert!(
        !m.cpu.rflags_if,
        "interrupts disabled: DoS on baseline hardware"
    );
    m.cpu
        .exec(
            &mut m.mem,
            Instr::WriteCr3 {
                value: 0xbad000,
                preserve_tlb: false,
            },
        )
        .expect("arbitrary CR3 load on baseline hardware");
}
