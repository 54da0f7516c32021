//! Criterion microbenchmarks of the PKS switch gates (paper §4.2).
//!
//! These measure the *host-side simulation cost* of driving the gates —
//! useful for keeping the simulator fast — and print the *simulated* cost
//! alongside, which is the paper-relevant number.

use cki_bench::harness::Criterion;
use cki_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use cki_core::{gates, pkrs_guest, CkiConfig, CkiPlatform, KsmError};
use guest_os::{Kernel, Sys};
use sim_hw::{HwExtensions, Machine, Mode};

fn cki_stack() -> (Machine, Kernel) {
    let mut m = Machine::new(1 << 30, HwExtensions::cki());
    let p = CkiPlatform::new(&mut m, CkiConfig::default());
    let k = Kernel::boot(Box::new(p), &mut m);
    (m, k)
}

fn bench_ksm_call_gate(c: &mut Criterion) {
    let (mut m, mut k) = cki_stack();
    m.cpu.mode = Mode::Kernel;
    m.cpu.pkrs = pkrs_guest();
    let t0 = m.cpu.clock.ns();
    {
        let p = k
            .platform
            .as_any_mut()
            .downcast_mut::<CkiPlatform>()
            .unwrap();
        gates::ksm_call(&mut m, &mut p.ksm, |_m, _k| Ok::<u64, KsmError>(0))
            .unwrap()
            .unwrap();
    }
    println!("simulated empty KSM call: {:.0} ns", m.cpu.clock.ns() - t0);

    c.bench_function("gate/ksm_call_empty", |b| {
        b.iter(|| {
            let p = k
                .platform
                .as_any_mut()
                .downcast_mut::<CkiPlatform>()
                .unwrap();
            let r = gates::ksm_call(&mut m, &mut p.ksm, |_m, _k| Ok::<u64, KsmError>(7));
            black_box(r).unwrap().unwrap()
        })
    });
}

fn bench_hypercall_gate(c: &mut Criterion) {
    let (mut m, mut k) = cki_stack();
    m.cpu.mode = Mode::Kernel;
    m.cpu.pkrs = pkrs_guest();
    let t0 = m.cpu.clock.ns();
    k.platform.hypercall(&mut m);
    println!(
        "simulated empty hypercall: {:.0} ns (paper: 390 ns)",
        m.cpu.clock.ns() - t0
    );

    c.bench_function("gate/hypercall_empty", |b| {
        b.iter(|| k.platform.hypercall(&mut m))
    });
}

fn bench_syscall_fast_path(c: &mut Criterion) {
    let (mut m, mut k) = cki_stack();
    c.bench_function("gate/syscall_getpid", |b| {
        b.iter(|| black_box(k.syscall(&mut m, Sys::Getpid).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_ksm_call_gate,
    bench_hypercall_gate,
    bench_syscall_fast_path
);
criterion_main!(benches);
