//! Timer preemption across backends: the tick flows through each design's
//! interrupt path (native IDT / VM exit / PVM redirection / CKI gate) with
//! the corresponding cost.

use cki::{Backend, Stack, StackConfig};

/// Runs a fixed amount of work with a 1 ms quantum; returns (ticks, ns).
fn run_with_timer(backend: Backend) -> (u64, f64) {
    let mut stack = Stack::new(backend, StackConfig::default());
    stack.kernel.enable_preemption(&stack.machine, 1_000_000.0); // 1 ms
    let mut env = stack.env();
    let base = env.mmap(4096 * 4096).unwrap();
    env.touch_range(base, 4096 * 4096, true).unwrap();
    (stack.kernel.timer_ticks, stack.ns())
}

#[test]
fn ticks_fire_about_once_per_quantum() {
    let (ticks, ns) = run_with_timer(Backend::RunC);
    let expected = ns / 1e6;
    assert!(ticks > 0, "no ticks fired");
    // The tick check runs at syscall/access boundaries, so it can lag but
    // never lead.
    assert!(
        (ticks as f64) <= expected + 1.0 && (ticks as f64) >= expected * 0.5,
        "{ticks} ticks over {expected:.1} quanta"
    );
}

#[test]
fn every_backend_survives_preemption() {
    for backend in [
        Backend::RunC,
        Backend::HvmBm,
        Backend::HvmNested,
        Backend::Pvm,
        Backend::Cki,
        Backend::Gvisor,
        Backend::LibOs,
    ] {
        let (ticks, _) = run_with_timer(backend);
        assert!(ticks > 0, "{}: no ticks", backend.name());
    }
}

#[test]
fn nested_hvm_ticks_cost_the_most() {
    // Same workload, same quantum: the tick tax ranks by exit class.
    let cost_of = |b: Backend| {
        let mut with = Stack::new(b, StackConfig::default());
        with.kernel.enable_preemption(&with.machine, 100_000.0); // 100 µs: lots of ticks
        let mut env = with.env();
        let base = env.mmap(2048 * 4096).unwrap();
        env.touch_range(base, 2048 * 4096, true).unwrap();
        let t_with = with.ns();
        let ticks = with.kernel.timer_ticks.max(1);

        let mut without = Stack::new(b, StackConfig::default());
        let mut env = without.env();
        let base = env.mmap(2048 * 4096).unwrap();
        env.touch_range(base, 2048 * 4096, true).unwrap();
        (t_with - without.ns()) / ticks as f64
    };
    let runc = cost_of(Backend::RunC);
    let cki = cost_of(Backend::Cki);
    let hvm_nst = cost_of(Backend::HvmNested);
    assert!(runc < 700.0, "native tick {runc:.0} ns");
    assert!(
        cki < 1000.0,
        "CKI tick {cki:.0} ns (one 336 ns gate + handler)"
    );
    assert!(
        hvm_nst > 6000.0,
        "nested tick {hvm_nst:.0} ns (L0-mediated)"
    );
}

#[test]
fn preemption_does_not_change_results() {
    // Functional equivalence with and without the timer.
    use cki::guest_os::Sys;
    let fingerprint = |preempt: bool| {
        let mut stack = Stack::new(Backend::Cki, StackConfig::default());
        if preempt {
            stack.kernel.enable_preemption(&stack.machine, 500_000.0);
        }
        let mut env = stack.env();
        let base = env.mmap(256 * 4096).unwrap();
        env.touch_range(base, 256 * 4096, true).unwrap();
        let child = env.sys(Sys::Fork).unwrap();
        (env.kernel.metrics.value_of("os.pgfaults", None), child)
    };
    assert_eq!(fingerprint(false), fingerprint(true));
}
