//! Ablation studies for the design choices DESIGN.md calls out, beyond the
//! paper's own OPT2/OPT3 ablations (which live in fig10/fig15):
//!
//! 1. side-channel mitigations on the KSM gate (the paper *removes*
//!    PTI/IBRS because only private data is mapped — §3.3; what if not?);
//! 2. per-vCPU root copies (the §4.2 mechanism) — their per-fault cost;
//! 3. contiguous-segment fragmentation (the §4.3 limitation);
//! 4. the §9 future-work fast paths (in-kernel syscalls, driver sandbox).

use cki::Backend;
use sim_hw::{cost, HwExtensions, Machine, Mode, Tag};
use sim_mem::SegmentAllocator;

use crate::experiments::pgfault_ns;
use crate::{Matrix, Outcome, Scale};

fn ksm_gate_mitigations(scale: Scale) -> Matrix {
    let pages = scale.n(512);
    let mut m = Matrix::new(
        "Ablation: PTI/IBRS on the KSM gate (paper removes them, §3.3)",
        "ns per page fault",
        &["CKI", "CKI+PTI/IBRS", "penalty %"],
    );
    let clean = pgfault_ns(Backend::Cki, pages);
    let mitigated = pgfault_ns(Backend::CkiGateMitigated, pages);
    m.push_row(
        "pgfault",
        vec![clean, mitigated, (mitigated / clean - 1.0) * 100.0],
    );
    m
}

fn fragmentation() -> Matrix {
    // The §4.3 limitation: contiguous delegation fragments under container
    // churn. Simulate start/stop cycles of mixed-size containers.
    let mut m = Matrix::new(
        "Ablation: segment fragmentation under container churn (§4.3)",
        "fraction",
        &["free GiB", "largest GiB", "fragmentation"],
    );
    let gib = 1024 * 1024 * 1024u64;
    let mut alloc = SegmentAllocator::new(0, 64 * gib);
    let mut live: Vec<sim_mem::Segment> = Vec::new();
    let sizes = [1u64, 4, 2, 8, 1, 2, 4, 1]; // GiB, mixed
    let mut i = 0usize;
    for round in 0..6 {
        // Start a wave of containers.
        for _ in 0..8 {
            let sz = sizes[i % sizes.len()] * gib;
            i += 1;
            if let Some(s) = alloc.alloc(sz) {
                live.push(s);
            }
        }
        // Stop every other container (worst-case interleaving).
        let mut idx = 0;
        live.retain(|s| {
            idx += 1;
            if idx % 2 == 0 {
                alloc.free(*s);
                false
            } else {
                true
            }
        });
        m.push_row(
            &format!("round {round}"),
            vec![
                alloc.free_bytes() as f64 / gib as f64,
                alloc.largest_extent() as f64 / gib as f64,
                alloc.fragmentation(),
            ],
        );
    }
    m
}

fn future_work() -> Matrix {
    use cki_core::{fastpath, sandbox};
    let mut m = Matrix::new(
        "Future work (§9): PKS fast paths",
        "ns per operation",
        &["latency"],
    );

    // In-kernel syscall.
    let mut machine = Machine::new(256 << 20, HwExtensions::cki());
    machine.cpu.mode = Mode::Kernel;
    machine.cpu.pkrs = fastpath::pkrs_kapp();
    let iters = 1000;
    let mark = machine.cpu.clock.mark();
    for _ in 0..iters {
        fastpath::fast_syscall(&mut machine, |m| {
            m.cpu.clock.charge(Tag::Handler, guest_os::costs::DISPATCH);
        });
    }
    m.push_row(
        "in-kernel syscall (PKS)",
        vec![machine.cpu.clock.since_ns(mark) / iters as f64],
    );
    m.push_row(
        "ring-3 syscall (trap)",
        vec![cost::cycles_to_ns(
            cost::SYSCALL_ENTRY + 2 * cost::SWAPGS + guest_os::costs::DISPATCH + cost::SYSRET,
        )],
    );
    m.push_row(
        "ring-3 syscall (trap+PTI/IBRS)",
        vec![cost::cycles_to_ns(
            cost::SYSCALL_ENTRY
                + 2 * cost::SWAPGS
                + guest_os::costs::DISPATCH
                + cost::SYSRET
                + cost::PTI
                + cost::IBRS,
        )],
    );

    // Driver sandbox crossing.
    let mut machine = Machine::new(256 << 20, HwExtensions::cki());
    let root = {
        let Machine { mem, frames, .. } = &mut machine;
        sim_mem::PageTables::new_root(mem, &mut || frames.alloc()).unwrap()
    };
    let sb = sandbox::DriverSandbox::new(&mut machine, root, 0x6000_0000, 0x6100_0000);
    machine.cpu.set_cr3(root, 1, false);
    machine.cpu.mode = Mode::Kernel;
    machine.cpu.pkrs = sandbox::pkrs_kernel();
    let mark = machine.cpu.clock.mark();
    for _ in 0..iters {
        sb.invoke(&mut machine, |_m| Ok(0));
    }
    m.push_row(
        "driver call (PKS sandbox)",
        vec![machine.cpu.clock.since_ns(mark) / iters as f64],
    );
    m.push_row("driver call (ring-3 IPC, typical)", vec![1500.0]);
    m
}

fn pervcpu_cost(scale: Scale) -> Matrix {
    // Per-vCPU root copies cost one extra propagation write per root-level
    // update; measure end-to-end page-fault latency at 1 vs 8 vCPUs.
    use cki_core::{CkiConfig, CkiPlatform};
    use guest_os::Kernel;
    let pages = scale.n(512);
    let mut m = Matrix::new(
        "Ablation: per-vCPU root copies (§4.2)",
        "ns per page fault",
        &["pgfault"],
    );
    for vcpus in [1u32, 2, 8] {
        let mut machine = Machine::new(2 << 30, HwExtensions::cki());
        let p = CkiPlatform::new(
            &mut machine,
            CkiConfig {
                vcpus,
                ..CkiConfig::default()
            },
        );
        let mut k = Kernel::boot(Box::new(p), &mut machine);
        let mut env = guest_os::Env::new(&mut k, &mut machine);
        let base = env.mmap(pages * 4096).unwrap();
        let t0 = env.now_ns();
        env.touch_range(base, pages * 4096, true).unwrap();
        m.push_row(
            &format!("{vcpus} vCPU"),
            vec![(env.now_ns() - t0) / pages as f64],
        );
    }
    m
}

/// The four ablation matrices, in the order of their TSV stems.
pub fn run(scale: Scale) -> Outcome {
    [
        ksm_gate_mitigations(scale),
        pervcpu_cost(scale),
        fragmentation(),
        future_work(),
    ]
    .into()
}
