//! Randomized tests of the KSM's page-table-monitoring invariants
//! (deterministic seeded streams — the workspace builds offline, so no
//! proptest).
//!
//! After *any* sequence of guest requests — valid or hostile — the nested-
//! kernel invariants of §4.3 must hold over the real page tables:
//!
//! 1. every reachable non-leaf entry points at a declared PTP of the next
//!    level;
//! 2. every reachable leaf maps a delegated, non-PTP data page;
//! 3. no reachable leaf is kernel-executable;
//! 4. declared PTPs carry `KEY_PTP` on their physmap alias.

use cki_core::{Ksm, KEY_PTP};
use obs::rng::SmallRng;
use sim_hw::{HwExtensions, Machine};
use sim_mem::{pte, FrameAllocator, PageTables, Segment, PAGE_SIZE};

/// One fuzzed guest request.
#[derive(Debug, Clone)]
enum Req {
    Declare {
        frame: u64,
        level: u8,
    },
    Update {
        ptp: u64,
        index: usize,
        target: u64,
        flags: u64,
    },
    LoadCr3 {
        frame: u64,
    },
    Undeclare {
        frame: u64,
    },
}

fn random_req(rng: &mut SmallRng) -> Req {
    match rng.gen_range(0u32..4) {
        0 => Req::Declare {
            frame: rng.gen_range(0u64..64),
            level: rng.gen_range(1u8..5),
        },
        1 => Req::Update {
            ptp: rng.gen_range(0u64..64),
            index: rng.gen_range(0usize..512),
            target: rng.gen_range(0u64..96),
            // flags bits: 0 = present, 1 = writable, 2 = user, 3 = nx.
            flags: rng.gen_range(0u64..16),
        },
        2 => Req::LoadCr3 {
            frame: rng.gen_range(0u64..64),
        },
        _ => Req::Undeclare {
            frame: rng.gen_range(0u64..64),
        },
    }
}

/// Walks every declared PTP and checks the invariants.
fn check_invariants(
    m: &mut Machine,
    ksm: &Ksm,
    declared: &std::collections::BTreeMap<u64, u8>,
    seg: Segment,
) {
    for (&pa, &level) in declared {
        for idx in 0..512usize {
            let entry = m.mem.read_u64(pa + 8 * idx as u64);
            if !pte::present(entry) {
                continue;
            }
            // Skip kernel half of roots (KSM-managed mappings are exempt).
            if level == 4 && idx >= 256 {
                continue;
            }
            let target = pte::addr(entry);
            assert!(
                seg.contains(target),
                "entry escapes the segment: {target:#x}"
            );
            if level > 1 {
                assert_eq!(
                    declared.get(&target).copied(),
                    Some(level - 1),
                    "non-leaf at L{level} points to undeclared/wrong-level {target:#x}",
                );
            } else {
                assert!(
                    !declared.contains_key(&target),
                    "leaf maps a declared PTP {target:#x}"
                );
                assert!(
                    entry & pte::U != 0 || entry & pte::NX != 0,
                    "kernel-executable mapping allowed: {entry:#x}"
                );
            }
        }
        // Physmap key.
        let va = ksm.physmap_va(pa);
        let leaf = PageTables::walk(&mut m.mem, ksm.template_root(), va)
            .unwrap()
            .leaf;
        assert_eq!(pte::pkey(leaf), KEY_PTP, "declared PTP not PKS-protected");
    }
}

#[test]
fn ksm_invariants_hold_under_hostile_requests() {
    let mut rng = SmallRng::seed_from_u64(0x4453);
    for _ in 0..48 {
        let mut m = Machine::new(1 << 30, HwExtensions::cki());
        let base = m.frames.alloc_contiguous(4096).unwrap();
        let seg = Segment {
            start: base,
            end: base + 4096 * PAGE_SIZE,
        };
        let mut ksm = Ksm::new(&mut m, seg, 1, 3);
        let _ga = FrameAllocator::new(seg.start, seg.end);
        // Track declared PTPs by observing KSM acceptance.
        let mut declared: std::collections::BTreeMap<u64, u8> = std::collections::BTreeMap::new();

        for _ in 0..rng.gen_range(1usize..80) {
            match random_req(&mut rng) {
                Req::Declare { frame, level } => {
                    let pa = seg.start + frame * PAGE_SIZE;
                    if ksm.declare_ptp(&mut m, pa, level).is_ok() {
                        declared.insert(pa, level);
                    }
                }
                Req::Update {
                    ptp,
                    index,
                    target,
                    flags,
                } => {
                    let ptp_pa = seg.start + ptp * PAGE_SIZE;
                    let target_pa = seg.start + target * PAGE_SIZE;
                    let mut bits = 0u64;
                    if flags & 1 != 0 {
                        bits |= pte::P;
                    }
                    if flags & 2 != 0 {
                        bits |= pte::W;
                    }
                    if flags & 4 != 0 {
                        bits |= pte::U;
                    }
                    if flags & 8 != 0 {
                        bits |= pte::NX;
                    }
                    let _ = ksm.update_pte(&mut m, ptp_pa, index, pte::make(target_pa, bits));
                }
                Req::LoadCr3 { frame } => {
                    let pa = seg.start + frame * PAGE_SIZE;
                    let r = ksm.load_cr3(&mut m, pa, 0);
                    // Accepted only for declared roots.
                    assert_eq!(r.is_ok(), declared.get(&pa) == Some(&4));
                }
                Req::Undeclare { frame } => {
                    let pa = seg.start + frame * PAGE_SIZE;
                    if ksm.undeclare_ptp(&mut m, pa).is_ok() {
                        declared.remove(&pa);
                    }
                }
            }
            check_invariants(&mut m, &ksm, &declared, seg);
        }
    }
}

/// Root-level updates always propagate to every per-vCPU copy.
#[test]
fn root_copies_stay_coherent() {
    let mut rng = SmallRng::seed_from_u64(0xC0117);
    for _ in 0..20 {
        let mut m = Machine::new(1 << 30, HwExtensions::cki());
        let base = m.frames.alloc_contiguous(4096).unwrap();
        let seg = Segment {
            start: base,
            end: base + 4096 * PAGE_SIZE,
        };
        let mut ksm = Ksm::new(&mut m, seg, 3, 3);
        let root = seg.start;
        ksm.declare_ptp(&mut m, root, 4).unwrap();
        // Declare a few level-3 tables to point at.
        let mut l3s = Vec::new();
        for i in 1..33u64 {
            let pa = seg.start + i * PAGE_SIZE;
            ksm.declare_ptp(&mut m, pa, 3).unwrap();
            l3s.push(pa);
        }
        for _ in 0..rng.gen_range(1usize..40) {
            let idx = rng.gen_range(0usize..256);
            let which = rng.gen_range(0u64..32);
            let target = l3s[which as usize % l3s.len()];
            ksm.update_pte(
                &mut m,
                root,
                idx,
                pte::make(target, pte::P | pte::W | pte::U),
            )
            .unwrap();
            let expect = m.mem.read_u64(root + 8 * idx as u64);
            for v in 0..3 {
                let copy = ksm.root_copy(root, v).unwrap();
                assert_eq!(m.mem.read_u64(copy + 8 * idx as u64), expect, "vcpu {v}");
            }
        }
    }
}
