//! Per-operation simulated cost of every platform, pinned to literals.
//!
//! Each row boots one backend and drives the syscalls that reach the
//! privileged operations of `guest_os::Platform`: page-table map, protect
//! and unmap, root creation and teardown, CR3 loads, and the syscall and
//! fault entry/exit paths. The cycles of every operation must equal the
//! table exactly, so a change to a platform that moves any charge fails
//! here. Committed results pin only the syscall and page-fault costs of
//! gVisor and LibOS; this table also pins their protect, unmap and
//! context-switch paths. Re-measure it only when a cost model changes on
//! purpose.

use cki::guest_os::{Errno, Kernel, Sys};
use cki::sim_hw::Machine;
use cki::sim_mem::PAGE_SIZE;
use cki::{Backend, Stack, StackConfig};

/// Operation names, in the order [`measure`] runs them.
const OPS: [&str; 13] = [
    "getpid",
    "mmap",
    "touch",
    "mprotect",
    "reread",
    "munmap",
    "fork",
    "cow",
    "switch",
    "exit",
    "switch_back",
    "wait",
    "yield",
];

/// Simulated cycles of each operation in [`OPS`], per backend. LibOS
/// cannot fork: its fork row is the cost of the failing syscall and its
/// process-switch columns are zero.
#[rustfmt::skip]
const EXPECTED: [(Backend, [u64; 13]); 9] = [
    (Backend::RunC,      [216, 516, 19720, 1196, 1280, 836, 47566, 1722, 598, 22736, 598, 566, 456]),
    (Backend::HvmBm,     [216, 516, 80149, 1196, 1720, 836, 47566, 6847, 598, 22736, 598, 566, 456]),
    (Backend::HvmNested, [216, 516, 912949, 1196, 1720, 836, 47566, 76247, 598, 22736, 598, 566, 456]),
    (Backend::Pvm,       [808, 1108, 82600, 9537, 1280, 7276, 61237, 12175, 2068, 29176, 2068, 2328, 1048]),
    (Backend::PvmNested, [808, 1108, 83752, 9585, 1280, 7276, 61333, 12367, 2116, 29176, 2116, 2376, 1048]),
    (Backend::Cki,       [216, 516, 22568, 3212, 1280, 2852, 50750, 2181, 770, 24912, 770, 1414, 456]),
    (Backend::CkiNested, [216, 516, 22568, 3212, 1280, 2852, 50750, 2181, 770, 24912, 770, 1414, 456]),
    (Backend::Gvisor,    [6150, 6450, 32120, 16730, 1280, 16370, 73170, 4472, 1098, 38270, 1098, 6500, 6390]),
    (Backend::LibOs,     [100, 400, 19720, 1080, 1280, 720, 100, 0, 0, 0, 0, 0, 340]),
];

/// Pages mapped, touched, protected and unmapped by the region ops.
const PAGES: u64 = 8;

/// Cycles `op` charges to the machine's clock.
fn timed<R>(
    k: &mut Kernel,
    m: &mut Machine,
    op: impl FnOnce(&mut Kernel, &mut Machine) -> R,
) -> (u64, R) {
    let mark = m.cpu.clock.mark();
    let r = op(k, m);
    (m.cpu.clock.since(mark), r)
}

/// Boots `backend` and returns the cycles of every operation in [`OPS`].
fn measure(backend: Backend) -> [u64; 13] {
    let mut stack = Stack::new(backend, StackConfig::default());
    let Stack {
        machine: m,
        kernel: k,
        ..
    } = &mut stack;
    let len = PAGES * PAGE_SIZE;
    let mut c = [0u64; 13];

    (c[0], _) = timed(k, m, |k, m| k.syscall(m, Sys::Getpid).unwrap());
    let base;
    (c[1], base) = timed(k, m, |k, m| {
        k.syscall(m, Sys::Mmap { len, write: true }).unwrap()
    });
    (c[2], _) = timed(k, m, |k, m| k.touch_range(m, base, len, true).unwrap());
    (c[3], _) = timed(k, m, |k, m| {
        k.syscall(
            m,
            Sys::Mprotect {
                addr: base,
                len,
                write: false,
            },
        )
        .unwrap()
    });
    // mprotect flushed the TLB entries: every read walks the tables again.
    (c[4], _) = timed(k, m, |k, m| k.touch_range(m, base, len, false).unwrap());
    (c[5], _) = timed(k, m, |k, m| {
        k.syscall(m, Sys::Munmap { addr: base, len }).unwrap()
    });

    // A resident region for fork to share copy-on-write.
    let shared = k.syscall(m, Sys::Mmap { len, write: true }).unwrap();
    k.touch_range(m, shared, len, true).unwrap();
    let fork;
    (c[6], fork) = timed(k, m, |k, m| k.syscall(m, Sys::Fork));
    (c[7], _) = timed(k, m, |k, m| k.touch(m, shared, true).unwrap());
    match fork {
        Ok(child) => {
            let child = child as u32;
            (c[8], _) = timed(k, m, |k, m| k.context_switch(m, child).unwrap());
            (c[9], _) = timed(k, m, |k, m| k.syscall(m, Sys::Exit { code: 0 }).unwrap());
            (c[10], _) = timed(k, m, |k, m| k.context_switch(m, 1).unwrap());
            (c[11], _) = timed(k, m, |k, m| k.syscall(m, Sys::Wait).unwrap());
        }
        Err(e) => {
            assert_eq!(backend, Backend::LibOs, "{} cannot fork", backend.name());
            assert_eq!(e, Errno::NoSys);
        }
    }
    (c[12], _) = timed(k, m, |k, m| k.syscall(m, Sys::Yield).unwrap());
    c
}

#[test]
fn every_platform_charges_its_pinned_per_op_cycles() {
    let mut mismatches = Vec::new();
    let mut table = String::new();
    for (backend, expected) in EXPECTED {
        let got = measure(backend);
        table += &format!("    (Backend::{backend:?}, {got:?}),\n");
        for (i, op) in OPS.iter().enumerate() {
            if got[i] != expected[i] {
                mismatches.push(format!(
                    "{} {op}: {} cycles, pinned {}",
                    backend.name(),
                    got[i],
                    expected[i]
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "per-op cycles moved:\n{}\nmeasured table:\n{table}",
        mismatches.join("\n")
    );
}
