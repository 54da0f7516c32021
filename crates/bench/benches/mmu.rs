//! Criterion benchmarks of the MMU model: TLB hits, 1-D walks, 2-D (EPT)
//! walks, misses that evict, and PCID-tagged flushes — the substrate behind
//! Table 4.

use cki_bench::harness::Criterion;
use cki_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use obs::rng::SmallRng;
use sim_hw::cost::CostModel;
use sim_hw::cpu::Stage2;
use sim_hw::{Access, Cpu, HwExtensions, Instr, Machine, Mode, Tlb};
use sim_mem::{MapFlags, PageTables, PAGE_SIZE};
use vmm::Ept;

fn mapped_cpu(pages: u64) -> (Cpu, sim_mem::PhysMem) {
    let mut mem = sim_mem::PhysMem::new(1 << 28);
    let mut next = 0x40_0000u64;
    let mut alloc = || {
        let p = next;
        next += PAGE_SIZE;
        Some(p)
    };
    let root = PageTables::new_root(&mut mem, &mut alloc).unwrap();
    for i in 0..pages {
        PageTables::map(
            &mut mem,
            root,
            0x100_0000 + i * PAGE_SIZE,
            0x800_0000 + i * PAGE_SIZE,
            MapFlags::kernel_rw(),
            &mut alloc,
        )
        .unwrap();
    }
    let mut cpu = Cpu::new(HwExtensions::cki(), CostModel::default());
    cpu.set_cr3(root, 1, false);
    cpu.mode = Mode::Kernel;
    (cpu, mem)
}

fn bench_tlb_hit(c: &mut Criterion) {
    let (mut cpu, mut mem) = mapped_cpu(8);
    cpu.mem_access(&mut mem, 0x100_0000, Access::Read, None)
        .unwrap();
    c.bench_function("mmu/tlb_hit", |b| {
        b.iter(|| {
            black_box(
                cpu.mem_access(&mut mem, 0x100_0000, Access::Read, None)
                    .unwrap(),
            )
        })
    });
}

fn bench_walk_1d(c: &mut Criterion) {
    let (mut cpu, mut mem) = mapped_cpu(1024);
    let mut i = 0u64;
    c.bench_function("mmu/walk_1d_miss", |b| {
        b.iter(|| {
            // Different page each time + flush to force a walk.
            let va = 0x100_0000 + (i % 1024) * PAGE_SIZE;
            i += 1;
            cpu.tlb.flush_va(va, cpu.pcid());
            black_box(cpu.mem_access(&mut mem, va, Access::Read, None).unwrap())
        })
    });
}

fn bench_tlb_miss_evict(c: &mut Criterion) {
    // Random accesses over ten times the TLB's capacity in pages, as GUPS
    // makes them: nearly every access misses, walks and evicts the LRU
    // entry of a full TLB.
    let pages = 10 * Tlb::DEFAULT_CAPACITY as u64;
    let (mut cpu, mut mem) = mapped_cpu(pages);
    let mut rng = SmallRng::seed_from_u64(1);
    for i in 0..pages {
        cpu.mem_access(&mut mem, 0x100_0000 + i * PAGE_SIZE, Access::Read, None)
            .unwrap();
    }
    c.bench_function("mmu/tlb_miss_evict", |b| {
        b.iter(|| {
            let va = 0x100_0000 + rng.gen_range(0..pages) * PAGE_SIZE;
            black_box(cpu.mem_access(&mut mem, va, Access::Read, None).unwrap())
        })
    });
}

fn bench_walk_2d(c: &mut Criterion) {
    // Guest tables with gPA pointers + a populated EPT.
    let mut machine = Machine::new(1 << 30, HwExtensions::baseline());
    let vm_bytes = 64 * 1024 * 1024;
    let base = machine
        .frames
        .alloc_contiguous(vm_bytes / PAGE_SIZE)
        .unwrap();
    let mut ept = Ept::new(&mut machine, base, vm_bytes);
    // Guest root at gPA 0; map pages 16.. to gPAs, tables from gPA 1..
    let mut next_gpa = PAGE_SIZE;
    machine.mem.zero_frame(base);
    for i in 0..512u64 {
        let va = 0x100_0000 + i * PAGE_SIZE;
        // Manual guest-table construction with gPA pointers.
        let mut table_gpa = 0u64;
        for level in (2..=4u8).rev() {
            let slot = base + table_gpa + 8 * sim_mem::addr::pt_index(va, level) as u64;
            let entry = machine.mem.read_u64(slot);
            if sim_mem::pte::present(entry) {
                table_gpa = sim_mem::pte::addr(entry);
            } else {
                let new = next_gpa;
                next_gpa += PAGE_SIZE;
                machine.mem.zero_frame(base + new);
                machine.mem.write_u64(
                    slot,
                    sim_mem::pte::make(new, sim_mem::pte::P | sim_mem::pte::W | sim_mem::pte::U),
                );
                table_gpa = new;
            }
        }
        let leaf_gpa = 0x80_0000 + i * PAGE_SIZE;
        let slot = base + table_gpa + 8 * sim_mem::addr::pt_index(va, 1) as u64;
        machine.mem.write_u64(
            slot,
            sim_mem::pte::make(leaf_gpa, sim_mem::pte::P | sim_mem::pte::W),
        );
        ept.map_gpa(&mut machine, leaf_gpa);
    }
    // Pre-map the table gPAs in the EPT.
    for gpa in (0..next_gpa).step_by(PAGE_SIZE as usize) {
        ept.map_gpa(&mut machine, gpa);
    }
    machine.cpu.set_cr3(0, 1, false);
    machine.cpu.mode = Mode::Kernel;

    let mut i = 0u64;
    c.bench_function("mmu/walk_2d_miss", |b| {
        b.iter(|| {
            let va = 0x100_0000 + (i % 512) * PAGE_SIZE;
            i += 1;
            machine.cpu.tlb.flush_va(va, machine.cpu.pcid());
            let Machine { cpu, mem, .. } = &mut machine;
            black_box(
                cpu.mem_access(mem, va, Access::Read, Some(&mut ept))
                    .unwrap(),
            )
        })
    });
    // Report the simulated 2-D premium.
    let _ = ept.translate(&mut machine.mem, 0x80_0000, false, &mut machine.cpu.clock);
}

fn bench_invlpg(c: &mut Criterion) {
    let (mut cpu, mut mem) = mapped_cpu(64);
    for i in 0..64u64 {
        cpu.mem_access(&mut mem, 0x100_0000 + i * PAGE_SIZE, Access::Read, None)
            .unwrap();
    }
    let mut i = 0u64;
    c.bench_function("mmu/invlpg", |b| {
        b.iter(|| {
            let va = 0x100_0000 + (i % 64) * PAGE_SIZE;
            i += 1;
            black_box(cpu.exec(&mut mem, Instr::Invlpg { va }).unwrap())
        })
    });
}

criterion_group!(
    benches,
    bench_tlb_hit,
    bench_walk_1d,
    bench_tlb_miss_evict,
    bench_walk_2d,
    bench_invlpg
);
criterion_main!(benches);
