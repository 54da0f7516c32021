//! Randomized property tests for the memory substrate (deterministic
//! seeded streams — the workspace builds offline, so no proptest).

use obs::rng::SmallRng;
use sim_mem::{pte, FrameAllocator, PageTables, PhysMem, Segment, SegmentAllocator, PAGE_SIZE};

/// PTE protection keys and addresses survive arbitrary re-keying.
#[test]
fn pte_pkey_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    for _ in 0..2000 {
        let addr = rng.gen_range(0u64..1 << 40);
        let key1 = rng.gen_range(0u8..16);
        let key2 = rng.gen_range(0u8..16);
        let flags = rng.gen_range(0u64..8);
        let pa = addr & pte::ADDR_MASK;
        let e = pte::with_pkey(pte::make(pa, flags | pte::P), key1);
        assert_eq!(pte::pkey(e), key1);
        assert_eq!(pte::addr(e), pa);
        let e2 = pte::with_pkey(e, key2);
        assert_eq!(pte::pkey(e2), key2);
        assert_eq!(pte::addr(e2), pa);
        assert_eq!(e2 & 0x7, flags | pte::P);
    }
}

/// Physical memory is a plain store: the last write wins, reads don't
/// disturb neighbours.
#[test]
fn physmem_store_semantics() {
    let mut rng = SmallRng::seed_from_u64(0xB0B);
    for _ in 0..40 {
        let mut mem = PhysMem::new(1 << 24);
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..rng.gen_range(1usize..60) {
            let slot = rng.gen_range(0u64..2048);
            let value: u64 = rng.gen();
            let pa = slot * 8;
            mem.write_u64(pa, value);
            model.insert(pa, value);
        }
        for (pa, value) in model {
            assert_eq!(mem.read_u64(pa), value);
        }
    }
}

/// The frame allocator never hands the same frame out twice while held,
/// and everything stays in range.
#[test]
fn frame_allocator_unique() {
    let mut rng = SmallRng::seed_from_u64(0xF7A);
    for _ in 0..30 {
        let mut a = FrameAllocator::new(0x1000, 0x1000 + 64 * PAGE_SIZE);
        let mut held = Vec::new();
        for _ in 0..rng.gen_range(1usize..200) {
            if rng.gen() {
                if let Some(f) = a.alloc() {
                    assert!((0x1000..0x1000 + 64 * PAGE_SIZE).contains(&f));
                    assert!(!held.contains(&f), "double allocation of {f:#x}");
                    held.push(f);
                }
            } else if let Some(f) = held.pop() {
                a.free(f);
            }
        }
        assert_eq!(a.in_use(), held.len() as u64);
    }
}

/// Segment allocation conserves bytes and never overlaps.
#[test]
fn segment_allocator_conserves() {
    let mut rng = SmallRng::seed_from_u64(0x5E6);
    for _ in 0..40 {
        let total = 4096u64 * 1024;
        let mut a = SegmentAllocator::new(0, total);
        let mut held: Vec<Segment> = Vec::new();
        let n = rng.gen_range(1usize..24);
        for i in 0..n {
            let pages = rng.gen_range(1u64..64);
            if i % 3 == 2 && !held.is_empty() {
                let victim = i % held.len();
                a.free(held.swap_remove(victim));
                continue;
            }
            if let Some(s) = a.alloc(pages * PAGE_SIZE) {
                for other in &held {
                    assert!(s.end <= other.start || other.end <= s.start, "overlap");
                }
                held.push(s);
            }
        }
        let held_bytes: u64 = held.iter().map(Segment::len).sum();
        assert_eq!(a.free_bytes() + held_bytes, total);
        assert!(a.largest_extent() <= a.free_bytes());
        for s in held {
            a.free(s);
        }
        assert_eq!(a.free_bytes(), total);
        assert_eq!(a.fragmentation(), 0.0);
    }
}

/// Mapping then walking any set of distinct pages translates exactly;
/// unmapped neighbours stay unmapped.
#[test]
fn map_walk_agree() {
    let mut rng = SmallRng::seed_from_u64(0x3A9);
    for _ in 0..12 {
        let mut pages = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(1usize..40) {
            pages.insert(rng.gen_range(0u64..512));
        }
        let mut mem = PhysMem::new(1 << 26);
        let mut next = 0x40_0000u64;
        let mut alloc = || {
            let p = next;
            next += PAGE_SIZE;
            Some(p)
        };
        let root = PageTables::new_root(&mut mem, &mut alloc).unwrap();
        for &p in &pages {
            let va = 0x1000_0000 + p * PAGE_SIZE;
            let pa = 0x80_0000 + p * PAGE_SIZE;
            PageTables::map(
                &mut mem,
                root,
                va,
                pa,
                sim_mem::MapFlags::user_rw(),
                &mut alloc,
            )
            .unwrap();
        }
        for p in 0u64..512 {
            let va = 0x1000_0000 + p * PAGE_SIZE;
            let r = PageTables::walk(&mut mem, root, va + 0x123);
            if pages.contains(&p) {
                assert_eq!(r.unwrap().pa, 0x80_0000 + p * PAGE_SIZE + 0x123);
            } else {
                assert!(r.is_err());
            }
        }
    }
}
