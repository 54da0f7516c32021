//! The nested-cloud story (paper §2.2): deploy the same container inside
//! an IaaS VM and watch what happens to each design.
//!
//! ```sh
//! cargo run --release --example nested_cloud
//! ```

use cki::guest_os::Sys;
use cki::{Backend, Stack, StackConfig};

/// Measures (syscall ns, page-fault ns, hypercall ns) on a backend.
fn microbench(backend: Backend) -> (f64, f64, f64) {
    let mut stack = Stack::new(backend, StackConfig::default());
    let mut env = stack.env();
    env.sys(Sys::Getpid).expect("warm");
    let t0 = env.now_ns();
    for _ in 0..100 {
        env.sys(Sys::Getpid).expect("getpid");
    }
    let syscall = (env.now_ns() - t0) / 100.0;

    let pages = 256u64;
    let base = env.mmap(pages * 4096).expect("mmap");
    let t0 = env.now_ns();
    env.touch_range(base, pages * 4096, true).expect("touch");
    let pgfault = (env.now_ns() - t0) / pages as f64;

    stack.machine.cpu.mode = cki::sim_hw::Mode::Kernel;
    let t0 = stack.ns();
    for _ in 0..50 {
        stack.kernel.platform.hypercall(&mut stack.machine);
    }
    let hypercall = (stack.ns() - t0) / 50.0;
    (syscall, pgfault, hypercall)
}

fn main() {
    println!("Moving a secure container from a bare-metal cloud into an IaaS VM:\n");
    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "design", "syscall", "pgfault", "hypercall"
    );
    let rows = [
        ("HVM bare-metal", Backend::HvmBm),
        ("HVM nested", Backend::HvmNested),
        ("PVM bare-metal", Backend::Pvm),
        ("PVM nested", Backend::PvmNested),
        ("CKI bare-metal", Backend::Cki),
        ("CKI nested", Backend::CkiNested),
    ];
    let mut results = Vec::new();
    for (name, b) in rows {
        let (s, p, h) = microbench(b);
        println!("{name:<22} {s:>9.0} ns {p:>9.0} ns {h:>9.0} ns");
        results.push((name, s, p, h));
    }

    let hvm_bm = results[0];
    let hvm_nst = results[1];
    let cki_bm = results[4];
    let cki_nst = results[5];
    println!(
        "\nnesting multiplies HVM's page fault by {:.0}x and its hypercall by {:.1}x;",
        hvm_nst.2 / hvm_bm.2,
        hvm_nst.3 / hvm_bm.3
    );
    println!(
        "CKI is numerically identical in both clouds ({:.0} ns vs {:.0} ns hypercall):",
        cki_bm.3, cki_nst.3
    );
    println!("its exits never leave the L1 kernel, so L0 never intervenes (paper §3.3).");
    assert_eq!(cki_bm.3, cki_nst.3);
}
