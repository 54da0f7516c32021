//! Criterion benchmarks of the end-to-end container paths per backend:
//! syscall, page fault, and hypercall (Table 2's rows as host-side work).

use cki_bench::harness::{BenchmarkId, Criterion};
use cki_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use cki::{Backend, Stack, StackConfig};
use guest_os::Sys;

const BACKENDS: [Backend; 4] = [Backend::RunC, Backend::HvmBm, Backend::Pvm, Backend::Cki];

fn bench_syscall(c: &mut Criterion) {
    let mut group = c.benchmark_group("path/syscall");
    for backend in BACKENDS {
        let mut stack = Stack::new(backend, StackConfig::default());
        group.bench_function(BenchmarkId::from_parameter(backend.name()), |b| {
            b.iter(|| {
                let mut env = stack.env();
                black_box(env.sys(Sys::Getpid).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_pgfault(c: &mut Criterion) {
    let mut group = c.benchmark_group("path/pgfault");
    group.sample_size(20);
    for backend in BACKENDS {
        group.bench_function(BenchmarkId::from_parameter(backend.name()), |b| {
            b.iter_batched(
                || {
                    let mut stack = Stack::new(backend, StackConfig::default());
                    let base = {
                        let mut env = stack.env();
                        env.mmap(64 * 4096).unwrap()
                    };
                    (stack, base)
                },
                |(mut stack, base)| {
                    let mut env = stack.env();
                    env.touch_range(base, 64 * 4096, true).unwrap();
                    black_box(env.now_ns())
                },
                cki_bench::harness::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_hypercall(c: &mut Criterion) {
    let mut group = c.benchmark_group("path/hypercall");
    for backend in [
        Backend::HvmBm,
        Backend::HvmNested,
        Backend::Pvm,
        Backend::Cki,
    ] {
        let mut stack = Stack::new(backend, StackConfig::default());
        stack.machine.cpu.mode = sim_hw::Mode::Kernel;
        group.bench_function(BenchmarkId::from_parameter(backend.name()), |b| {
            b.iter(|| stack.kernel.platform.hypercall(&mut stack.machine))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_syscall, bench_pgfault, bench_hypercall);
criterion_main!(benches);
