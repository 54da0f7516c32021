//! Multiple CKI secure containers collocated on one machine: the
//! "arbitrary number of containers" claim (overcoming Challenge-1, §3.3)
//! and the inter-container isolation properties.

use cki::cki_core::{self, gates, CkiConfig, CkiPlatform, KsmError};
use cki::guest_os::{Kernel, Sys};
use cki::sim_hw::{HwExtensions, Instr, Machine, Mode};
use cki::sim_mem::pte;

/// Boots `n` CKI containers on one machine, each with its own KSM, PCID,
/// and delegated segment.
fn colocate(n: usize) -> (Machine, Vec<Kernel>) {
    let mut machine = Machine::new(4 * 1024 * 1024 * 1024, HwExtensions::cki());
    let mut kernels = Vec::new();
    for i in 0..n {
        let config = CkiConfig {
            seg_bytes: 128 * 1024 * 1024,
            pcid: 3 + i as u16,
            vcpus: 1,
            ..CkiConfig::default()
        };
        let platform = CkiPlatform::new(&mut machine, config);
        kernels.push(Kernel::boot(Box::new(platform), &mut machine));
    }
    (machine, kernels)
}

#[test]
fn many_containers_two_keys_each() {
    // PKS offers 16 keys; CKI needs only two per container because each
    // container has its own address space — so 8 containers (or 80) work.
    let (mut machine, mut kernels) = colocate(8);
    for k in &mut kernels {
        let root = k.proc(1).aspace.root;
        k.platform.load_root(&mut machine, root).expect("switch in");
        machine.cpu.mode = Mode::User;
        let base = k
            .syscall(
                &mut machine,
                Sys::Mmap {
                    len: 64 * 1024,
                    write: true,
                },
            )
            .unwrap();
        k.touch_range(&mut machine, base, 64 * 1024, true).unwrap();
        assert_eq!(k.syscall(&mut machine, Sys::Getpid).unwrap(), 1);
    }
}

#[test]
fn segments_are_disjoint() {
    let (_machine, kernels) = colocate(4);
    let segs: Vec<_> = kernels
        .iter()
        .map(|k| {
            let p = k.platform.as_any().downcast_ref::<CkiPlatform>().unwrap();
            p.ksm.seg
        })
        .collect();
    for (i, a) in segs.iter().enumerate() {
        for b in segs.iter().skip(i + 1) {
            assert!(
                a.end <= b.start || b.end <= a.start,
                "segments overlap: {a:?} {b:?}"
            );
        }
    }
}

#[test]
fn ksm_rejects_cross_container_mappings() {
    let (mut machine, mut kernels) = colocate(2);
    // Container 0's guest kernel asks its KSM to map a page belonging to
    // container 1's segment.
    let victim_seg = {
        let p = kernels[1]
            .platform
            .as_any()
            .downcast_ref::<CkiPlatform>()
            .unwrap();
        p.ksm.seg
    };
    let root0 = kernels[0].proc(1).aspace.root;
    let k0 = &mut kernels[0];
    k0.platform.load_root(&mut machine, root0).expect("switch");
    machine.cpu.mode = Mode::Kernel;
    machine.cpu.pkrs = cki_core::pkrs_guest();
    let p0 = k0
        .platform
        .as_any_mut()
        .downcast_mut::<CkiPlatform>()
        .unwrap();
    let evil = pte::make(victim_seg.start, pte::P | pte::W | pte::U | pte::NX);
    let r = gates::ksm_call(&mut machine, &mut p0.ksm, |m, k| {
        k.update_pte(m, root0, 0, evil)
    })
    .expect("gate");
    assert_eq!(
        r.unwrap_err(),
        KsmError::BadPte("target outside delegated segment")
    );
}

#[test]
fn invlpg_cannot_flush_a_neighbours_tlb() {
    // §4.1: each container lives in its own PCID context, so a malicious
    // container cannot mount TLB-flush performance attacks on neighbours.
    let (mut machine, mut kernels) = colocate(2);

    // Container 1 warms a translation.
    let root1 = kernels[1].proc(1).aspace.root;
    kernels[1]
        .platform
        .load_root(&mut machine, root1)
        .expect("switch");
    machine.cpu.mode = Mode::User;
    let base1 = kernels[1]
        .syscall(
            &mut machine,
            Sys::Mmap {
                len: 4096,
                write: true,
            },
        )
        .unwrap();
    kernels[1].touch(&mut machine, base1, true).unwrap();
    let pcid1 = {
        let p = kernels[1]
            .platform
            .as_any()
            .downcast_ref::<CkiPlatform>()
            .unwrap();
        p.ksm.pcid
    };
    let cached_before = machine.cpu.tlb.count_pcid(pcid1);
    assert!(cached_before > 0, "container 1 has TLB entries");

    // Container 0 spams invlpg over the same virtual addresses.
    let root0 = kernels[0].proc(1).aspace.root;
    kernels[0]
        .platform
        .load_root(&mut machine, root0)
        .expect("switch");
    machine.cpu.mode = Mode::Kernel;
    machine.cpu.pkrs = cki_core::pkrs_guest();
    for off in (0..32u64).map(|i| i * 4096) {
        machine
            .cpu
            .exec(&mut machine.mem, Instr::Invlpg { va: base1 + off })
            .expect("invlpg");
    }
    assert_eq!(
        machine.cpu.tlb.count_pcid(pcid1),
        cached_before,
        "container 1's entries survived container 0's invlpg storm"
    );
}

#[test]
fn pervcpu_areas_are_private_per_container() {
    let (_machine, kernels) = colocate(3);
    let areas: Vec<_> = kernels
        .iter()
        .map(|k| {
            let p = k.platform.as_any().downcast_ref::<CkiPlatform>().unwrap();
            p.ksm.vcpu_area(0)
        })
        .collect();
    for (i, a) in areas.iter().enumerate() {
        for b in areas.iter().skip(i + 1) {
            assert_ne!(a, b, "containers share a per-vCPU area");
        }
    }
}

#[test]
fn workloads_interleave_across_containers() {
    // Ping-pong execution between two containers with full context
    // switches; both make progress and their clocks share the machine.
    let (mut machine, mut kernels) = colocate(2);
    let mut bases = [0u64; 2];
    for (i, k) in kernels.iter_mut().enumerate() {
        let root = k.proc(1).aspace.root;
        k.platform.load_root(&mut machine, root).expect("switch");
        machine.cpu.mode = Mode::User;
        bases[i] = k
            .syscall(
                &mut machine,
                Sys::Mmap {
                    len: 1 << 20,
                    write: true,
                },
            )
            .unwrap();
    }
    for round in 0..8 {
        for (i, k) in kernels.iter_mut().enumerate() {
            let root = k.proc(1).aspace.root;
            machine.cpu.mode = Mode::Kernel;
            k.platform.load_root(&mut machine, root).expect("switch");
            machine.cpu.mode = Mode::User;
            let off = (round * 16 + i as u64) * 4096;
            k.touch(&mut machine, bases[i] + off, true).unwrap();
        }
    }
    for k in &kernels {
        let faults = k.metrics.value_of("os.pgfaults", None);
        assert!(faults >= 8, "{faults} faults");
    }
}
