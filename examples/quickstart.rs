//! Quickstart: boot a CKI secure container, run programs, watch the KSM.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cki::guest_os::Sys;
use cki::{Backend, Stack, StackConfig};

fn main() {
    // Boot a machine with the CKI hardware extensions and one secure
    // container on it (guest kernel + KSM on the PKS privilege level).
    let mut stack = Stack::new(Backend::Cki, StackConfig::default());
    println!("booted: {:?}\n", stack);

    let mut env = stack.env();

    // --- Syscalls take the fast path: no host involvement. ---------------
    let t0 = env.now_ns();
    let pid = env.sys(Sys::Getpid).expect("getpid");
    println!(
        "getpid() = {pid}  ({:.0} ns — native speed)",
        env.now_ns() - t0
    );

    // --- Files on the container's tmpfs. ---------------------------------
    let buf = env.mmap(64 * 1024).expect("mmap");
    let fd = env
        .sys(Sys::Open {
            path: "/etc/app.conf",
            create: true,
            trunc: false,
        })
        .expect("open") as i32;
    env.sys(Sys::Write { fd, buf, len: 1024 }).expect("write");
    let size = env
        .sys(Sys::Stat {
            path: "/etc/app.conf",
        })
        .expect("stat");
    println!("wrote /etc/app.conf, stat size = {size}");

    // --- Demand paging: each first touch is a guest-handled page fault
    //     plus one KSM call to update the PTE. ----------------------------
    let region = env.mmap(4 * 1024 * 1024).expect("mmap");
    let t0 = env.now_ns();
    env.touch_range(region, 4 * 1024 * 1024, true)
        .expect("touch");
    let faults = env.kernel.metrics.value_of("os.pgfaults", None);
    let per = (env.now_ns() - t0) / 1024.0;
    println!("faulted 4 MiB in: {faults} page faults, {per:.0} ns each");

    // --- Processes: fork with copy-on-write through the KSM. -------------
    let child = env.sys(Sys::Fork).expect("fork") as u32;
    env.touch(region, true).expect("cow break");
    println!(
        "forked child {child}; COW breaks so far: {}",
        env.kernel.metrics.value_of("os.cow_breaks", None)
    );
    let kernel = &mut *env.kernel;
    let machine = &mut *env.machine;
    kernel.context_switch(machine, child).expect("switch");
    kernel
        .syscall(machine, Sys::Exit { code: 0 })
        .expect("exit");
    kernel.context_switch(machine, 1).expect("switch back");
    kernel.syscall(machine, Sys::Wait).expect("wait");

    // --- What the KSM did for us along the way. ---------------------------
    let ksm = |name| stack.machine.cpu.metrics.value_of(name, Some("cki"));
    println!(
        "\nKSM activity: {} calls, {} PTPs declared, {} PTE updates, {} rejected",
        ksm("cki.ksm.calls"),
        ksm("cki.ksm.declares"),
        ksm("cki.ksm.pte_updates"),
        ksm("cki.ksm.rejected")
    );
    println!("total simulated time: {:.3} ms", stack.ns() / 1e6);
}
