//! Randomized property tests for the CPU model (deterministic seeded
//! streams — the workspace builds offline, so no proptest).

use obs::rng::SmallRng;
use sim_hw::{pkrs_deny_access, pkrs_deny_write, Access, Cpu, HwExtensions, Mode};
use sim_mem::{MapFlags, PageTables, PhysMem, PAGE_SIZE};

fn setup(pages: &[(u64, u8, bool)]) -> (Cpu, PhysMem, u64) {
    let mut mem = PhysMem::new(1 << 26);
    let mut next = 0x40_0000u64;
    let mut alloc = || {
        let p = next;
        next += PAGE_SIZE;
        Some(p)
    };
    let root = PageTables::new_root(&mut mem, &mut alloc).unwrap();
    for &(idx, key, write) in pages {
        let va = 0x10_0000 + idx * PAGE_SIZE;
        let pa = 0x100_0000 + idx * PAGE_SIZE;
        let flags = MapFlags::kernel_rw().with_write(write).with_pkey(key);
        PageTables::map(&mut mem, root, va, pa, flags, &mut alloc).unwrap();
    }
    let mut cpu = Cpu::new(HwExtensions::cki());
    cpu.set_cr3(root, 1, false);
    cpu.mode = Mode::Kernel;
    (cpu, mem, root)
}

/// The TLB never changes an access's outcome: any sequence of accesses
/// gives the same result as a TLB-less oracle computed from the page
/// tables and PKRS.
#[test]
fn tlb_transparent() {
    let mut rng = SmallRng::seed_from_u64(0x71B);
    for _ in 0..40 {
        let mut seen = std::collections::BTreeSet::new();
        let mut pages = Vec::new();
        for _ in 0..rng.gen_range(1usize..12) {
            let idx = rng.gen_range(0u64..16);
            if seen.insert(idx) {
                pages.push((idx, rng.gen_range(0u8..4), rng.gen()));
            }
        }
        let denied_key = rng.gen_range(1u8..4);
        let write_denied_key = rng.gen_range(1u8..4);
        let (mut cpu, mut mem, _root) = setup(&pages);
        cpu.pkrs = pkrs_deny_access(denied_key) | pkrs_deny_write(write_denied_key);

        for _ in 0..rng.gen_range(1usize..120) {
            let idx = rng.gen_range(0u64..16);
            let write: bool = rng.gen();
            let va = 0x10_0000 + idx * PAGE_SIZE + (idx % 7) * 8;
            let kind = if write { Access::Write } else { Access::Read };
            let got = cpu.mem_access(&mut mem, va, kind, None);

            // Oracle from the mapping list.
            let entry = pages.iter().find(|(i, _, _)| *i == idx);
            match entry {
                None => assert!(got.is_err(), "unmapped access succeeded"),
                Some(&(_, key, writable)) => {
                    let key_blocks = key == denied_key || (write && key == write_denied_key);
                    let perm_blocks = write && !writable;
                    if key != 0 && key_blocks {
                        assert!(got.is_err(), "pkey {key} should block");
                    } else if perm_blocks {
                        assert!(got.is_err(), "readonly write succeeded");
                    } else {
                        let pa = got.expect("allowed access failed");
                        assert_eq!(pa & !(PAGE_SIZE - 1), 0x100_0000 + idx * PAGE_SIZE);
                    }
                }
            }
        }
    }
}

/// Setting and clearing PKRS bits is exact for every key.
#[test]
fn pkrs_bit_algebra() {
    let mut rng = SmallRng::seed_from_u64(0xA16);
    for _ in 0..200 {
        let keys: Vec<u8> = (0..rng.gen_range(0usize..16))
            .map(|_| rng.gen_range(0u8..16))
            .collect();
        let mut pkrs = 0u32;
        for &k in &keys {
            pkrs |= pkrs_deny_access(k);
        }
        for k in 0u8..16 {
            let denied = keys.contains(&k);
            assert_eq!(sim_hw::pkey::denies_access(pkrs, k), denied);
            // Access-deny implies write-deny.
            if denied {
                assert!(sim_hw::pkey::denies_write(pkrs, k));
            }
        }
    }
}

/// The dirty bit is set iff a write happened, regardless of TLB state.
#[test]
fn dirty_bit_tracks_writes() {
    let mut rng = SmallRng::seed_from_u64(0xD1);
    for _ in 0..40 {
        let pages: Vec<_> = (0..8).map(|i| (i, 0u8, true)).collect();
        let (mut cpu, mut mem, root) = setup(&pages);
        let mut written = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(1usize..40) {
            let idx = rng.gen_range(0u64..8);
            let write: bool = rng.gen();
            let va = 0x10_0000 + idx * PAGE_SIZE;
            let kind = if write { Access::Write } else { Access::Read };
            cpu.mem_access(&mut mem, va, kind, None).unwrap();
            if write {
                written.insert(idx);
            }
        }
        for i in 0..8u64 {
            let leaf = PageTables::walk(&mut mem, root, 0x10_0000 + i * PAGE_SIZE)
                .unwrap()
                .leaf;
            assert_eq!(
                leaf & sim_mem::pte::D != 0,
                written.contains(&i),
                "page {i}"
            );
        }
    }
}

/// The clock is monotone under arbitrary charges, and tag totals sum to
/// the global total.
#[test]
fn clock_accounting() {
    use sim_hw::{Clock, Tag};
    let mut rng = SmallRng::seed_from_u64(0xC10C);
    for _ in 0..50 {
        let mut clock = Clock::default();
        let mut last = 0;
        for _ in 0..rng.gen_range(1usize..100) {
            let t = rng.gen_range(0usize..11);
            let c = rng.gen_range(0u64..10_000);
            clock.charge(Tag::ALL[t], c);
            assert!(clock.cycles() >= last);
            last = clock.cycles();
        }
        let sum: u64 = Tag::ALL.iter().map(|&t| clock.tagged(t)).sum();
        assert_eq!(sum, clock.cycles());
    }
}
