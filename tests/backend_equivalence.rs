//! Functional equivalence across backends: the same programs produce the
//! same *results* everywhere — only the costs differ. This is the
//! "container binary compatibility" column of the paper's Table 1.
//!
//! The heavy lifting (op IR, lockstep comparison, state snapshots,
//! divergence reporting) lives in `crates/dt`; this file drives the
//! oracle over all 8 backends and keeps a couple of hand-written checks
//! for paths the IR does not model (execve) and for cost separation.

use cki::guest_os::Sys;
use cki::{Backend, Stack, StackConfig};
use dt::{Op, Oracle, Program, Schedule, ALL_BACKENDS};

/// A hand-written "application" driven through the lockstep oracle: the
/// op results *and* the functional state snapshot (process table, VFS
/// view, mapped-region contents) must agree across all 8 backends after
/// every single op.
#[test]
fn same_program_same_results_everywhere() {
    let program = Program {
        seed: 0,
        ops: vec![
            // Files.
            Op::Open(0),
            Op::WriteFd { fd: 3, len: 3000 },
            Op::PreadFd {
                fd: 3,
                len: 2000,
                off: 1000,
            },
            Op::Stat(0),
            Op::Unlink(0),
            Op::Stat(0),
            // Memory: demand faults, downgrade, fault on RO, remap.
            Op::Mmap { pages: 8, slot: 1 },
            Op::TouchRegion {
                region: 1,
                page: 0,
                write: true,
            },
            Op::Mprotect {
                region: 1,
                write: false,
            },
            Op::TouchRegion {
                region: 1,
                page: 0,
                write: true,
            },
            Op::MunmapRegion(1),
            Op::Brk { incr: 8192 },
            // Processes.
            Op::Fork,
            Op::SwitchNext,
            Op::Getpid,
            Op::ExitIfChild,
            // Pipes + sockets + net.
            Op::Pipe,
            Op::SocketPair,
            Op::NetOpen,
            Op::NetListen { port: 2 },
            Op::NetConnect { port: 2 },
            Op::NetSendTo { sock: 1, len: 3000 },
            Op::NetService,
            Op::NetAccept,
            Op::NetRecvFrom { sock: 0 },
            Op::NetRecvFrom { sock: 0 },
            Op::NetSendTo { sock: 0, len: 512 },
            Op::NetService,
            Op::NetRecvFrom { sock: 1 },
        ],
    };
    if let Err(e) = Oracle::new().run(&program, None) {
        panic!("{e}");
    }
}

/// Every checked-in reproducer in `tests/corpus/` must replay clean —
/// with its seeded fault-injection schedule — across all 8 backends.
#[test]
fn corpus_reproducers_stay_green() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let oracle = Oracle::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "dtprog"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "corpus must hold at least one reproducer"
    );
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        let program = Program::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let schedule = Schedule::generate(program.seed, program.ops.len());
        if let Err(e) = oracle.run(&program, Some(&schedule)) {
            panic!("{}:\n{e}", path.display());
        }
    }
}

/// Execve is not part of the dt IR (it resets the address space, which
/// would invalidate region slots); check its fingerprint by hand.
#[test]
fn execve_fingerprint_agrees() {
    let fingerprint = |backend: Backend| -> Vec<u64> {
        let mut stack = Stack::new(backend, StackConfig::default());
        let mut env = stack.env();
        let child = env.sys(Sys::Fork).unwrap();
        let kernel = &mut *env.kernel;
        let machine = &mut *env.machine;
        kernel.context_switch(machine, child as u32).unwrap();
        kernel.syscall(machine, Sys::Execve).unwrap();
        kernel.syscall(machine, Sys::Exit { code: 3 }).unwrap();
        kernel.context_switch(machine, 1).unwrap();
        let waited = kernel.syscall(machine, Sys::Wait).unwrap();
        vec![child, waited, kernel.nprocs() as u64]
    };
    let reference = fingerprint(Backend::RunC);
    for backend in ALL_BACKENDS {
        assert_eq!(
            fingerprint(backend),
            reference,
            "execve behaviour diverged on {}",
            backend.name()
        );
    }
}

#[test]
fn costs_do_differ_while_results_do_not() {
    let time = |b: Backend| {
        let mut stack = Stack::new(b, StackConfig::default());
        let mut env = stack.env();
        let base = env.mmap(128 * 4096).unwrap();
        env.touch_range(base, 128 * 4096, true).unwrap();
        env.now_ns()
    };
    let runc = time(Backend::RunC);
    let cki = time(Backend::Cki);
    let pvm = time(Backend::Pvm);
    let hvm_nst = time(Backend::HvmNested);
    assert!(cki < pvm, "CKI {cki} < PVM {pvm}");
    assert!(pvm < hvm_nst, "PVM {pvm} < HVM-NST {hvm_nst}");
    assert!(cki < 1.5 * runc, "CKI near-native: {cki} vs {runc}");
}

#[test]
fn deterministic_given_same_seedless_program() {
    // Same backend, two boots, identical simulated timing: the simulation
    // is fully deterministic (a property the harness relies on).
    let a = {
        let mut s = Stack::new(Backend::Cki, StackConfig::default());
        let mut env = s.env();
        let base = env.mmap(64 * 4096).unwrap();
        env.touch_range(base, 64 * 4096, true).unwrap();
        env.now_ns()
    };
    let b = {
        let mut s = Stack::new(Backend::Cki, StackConfig::default());
        let mut env = s.env();
        let base = env.mmap(64 * 4096).unwrap();
        env.touch_range(base, 64 * 4096, true).unwrap();
        env.now_ns()
    };
    assert_eq!(a, b);
}
