//! PCID-tagged TLB model.
//!
//! The paper isolates each secure container and the host in different PCID
//! contexts so `invlpg` in one container cannot evict another container's
//! entries (§4.1). The model is a finite, fully associative, unified TLB
//! with exact LRU replacement: enough fidelity to reproduce the 2-D-walk
//! miss costs behind Table 4 (GUPS, BTree lookup) and the PCID isolation
//! behaviour the security tests need.
//!
//! Replacement is deterministic. Which entry a full TLB evicts depends only
//! on the sequence of lookups, inserts and flushes, never on hash seeds or
//! table layout, so a workload that overflows the TLB gives the same hits,
//! misses and cycles in every process.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use sim_mem::{PfnHasher, Phys, Virt, PAGE_SIZE};

/// A cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Physical base of the page.
    pub page_pa: Phys,
    /// Page size in bytes (4 KiB or 2 MiB).
    pub page_size: u64,
    /// Effective writable bit (AND across levels).
    pub writable: bool,
    /// Effective user bit.
    pub user: bool,
    /// NX bit of the leaf.
    pub nx: bool,
    /// Protection key of the leaf.
    pub pkey: u8,
    /// Global mapping (survives PCID flushes).
    pub global: bool,
    /// Physical address of the leaf PTE slot (for D-bit updates on write
    /// hits; the walk already set A).
    pub leaf_slot: Phys,
    /// Whether the D bit is already set (write-back optimization).
    pub dirty: bool,
}

/// PCID under which global entries are stored; they match any context.
const GLOBAL_PCID: u16 = 0xffff;

/// Bits of a tag below the virtual page number: 16 of PCID, 1 of size.
const VPN_SHIFT: u32 = 17;

/// Packs `(vpn, page-size bit, pcid)` into one `u64` tag.
///
/// The VPN keeps 47 bits: all of a 2 MiB page number, and VA bits 12..=58
/// of a 4 KiB one. Canonical addresses (4- and 5-level paging) only
/// sign-extend into bits 59..=63, so [`Tlb::iter`] reconstructs them
/// exactly; the page walk never reads bits above 47, so two VAs that share
/// a tag also share a translation.
#[inline]
fn tag(va: Virt, huge: bool, pcid: u16) -> u64 {
    let shift = if huge { 21 } else { 12 };
    (va >> shift) << VPN_SHIFT | u64::from(huge) << 16 | u64::from(pcid)
}

/// Inverse of [`tag`]: the page-aligned VA and the PCID.
fn untag(key: u64) -> (Virt, u16) {
    let shift = if key & (1 << 16) != 0 { 21 } else { 12 };
    let vpn = ((key as i64) >> VPN_SHIFT) as u64;
    (vpn << shift, key as u16)
}

/// End-of-list marker for the recency links.
const NIL: u32 = u32::MAX;

/// One TLB slot, linked into the recency list (or the free list, through
/// `next`).
struct Slot {
    key: u64,
    entry: TlbEntry,
    prev: u32,
    next: u32,
}

/// Finite, PCID-tagged, fully associative TLB with exact LRU replacement.
///
/// Entries live in a slot array of at most `capacity` slots, doubly linked
/// in recency order by `u32` indices; a tag-to-slot index finds them. A hit
/// moves the entry to the most-recently-used end, and an insert into a full
/// TLB evicts the least-recently-used one, both in O(1). Flushes by PCID
/// walk only the occupied slots.
pub struct Tlb {
    slots: Vec<Slot>,
    index: HashMap<u64, u32, BuildHasherDefault<PfnHasher>>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next victim.
    tail: u32,
    /// First slot of the free list (vacated by flushes).
    free: u32,
    capacity: usize,
}

impl Tlb {
    /// Default combined capacity (models an L2 STLB of ~3K entries; the
    /// EPYC-9654 L2 dTLB holds 3072 entries).
    pub const DEFAULT_CAPACITY: usize = 3072;

    /// Creates a TLB with the given entry capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit the `u32` slot links.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        assert!(capacity < NIL as usize, "TLB capacity exceeds slot links");
        Self {
            slots: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
            capacity,
        }
    }

    /// Looks up `va` in context `pcid`. Global entries match any PCID.
    /// A hit becomes the most recently used entry.
    pub fn lookup(&mut self, va: Virt, pcid: u16) -> Option<TlbEntry> {
        let slot = self.find(va, pcid)?;
        self.unlink(slot);
        self.push_front(slot);
        Some(self.slots[slot as usize].entry)
    }

    /// Inserts a translation for `va` in context `pcid`, evicting the least
    /// recently used entry if the TLB is full. Re-inserting a cached tag
    /// updates it in place and evicts nothing.
    pub fn insert(&mut self, va: Virt, pcid: u16, entry: TlbEntry) {
        let pcid = if entry.global { GLOBAL_PCID } else { pcid };
        let key = tag(va, entry.page_size != PAGE_SIZE, pcid);
        let slot = match self.index.get(&key) {
            Some(&slot) => {
                self.unlink(slot);
                slot
            }
            None => {
                let slot = self.reuse_slot().unwrap_or_else(|| {
                    self.slots.push(Slot {
                        key,
                        entry,
                        prev: NIL,
                        next: NIL,
                    });
                    (self.slots.len() - 1) as u32
                });
                self.index.insert(key, slot);
                slot
            }
        };
        let s = &mut self.slots[slot as usize];
        s.key = key;
        s.entry = entry;
        self.push_front(slot);
    }

    /// Marks the cached entry for `va`/`pcid` dirty (after a write hit).
    /// Recency is unchanged: the access already counted as a hit.
    pub fn mark_dirty(&mut self, va: Virt, pcid: u16) {
        if let Some(slot) = self.find(va, pcid) {
            self.slots[slot as usize].entry.dirty = true;
        }
    }

    /// `invlpg`: drops the entry for `va` in `pcid` only (both page sizes).
    /// Global entries are also dropped, per the SDM.
    pub fn flush_va(&mut self, va: Virt, pcid: u16) {
        for huge in [false, true] {
            for p in [pcid, GLOBAL_PCID] {
                if let Some(slot) = self.index.remove(&tag(va, huge, p)) {
                    self.release(slot);
                }
            }
        }
    }

    /// Drops every entry of one PCID (non-global), as a CR3 write without
    /// the preserve bit does.
    pub fn flush_pcid(&mut self, pcid: u16) {
        let mut cur = self.head;
        while cur != NIL {
            let Slot { key, next, .. } = self.slots[cur as usize];
            if key as u16 == pcid {
                self.index.remove(&key);
                self.release(cur);
            }
            cur = next;
        }
    }

    /// Drops everything, including globals (`invpcid` all-contexts).
    pub fn flush_all(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Entries cached for a given PCID (diagnostics / isolation tests).
    pub fn count_pcid(&self, pcid: u16) -> usize {
        self.occupied().filter(|s| s.key as u16 == pcid).count()
    }

    /// Configured entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over every cached translation as `(va, pcid, entry)`, most
    /// recently used first.
    ///
    /// The VA is reconstructed from the tag (page-aligned); global entries
    /// report PCID `0xffff`. Intended for coherence checkers that want to
    /// re-validate every cached entry against the live page tables.
    pub fn iter(&self) -> impl Iterator<Item = (Virt, u16, TlbEntry)> + '_ {
        self.occupied().map(|s| {
            let (va, pcid) = untag(s.key);
            (va, pcid, s.entry)
        })
    }

    /// Occupied slots in recency order, most recent first.
    fn occupied(&self) -> impl Iterator<Item = &Slot> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            let s = self.slots.get(cur as usize)?;
            cur = s.next;
            Some(s)
        })
    }

    /// Slot caching `va` for `pcid`: 4 KiB before 2 MiB, the context's own
    /// entry before a global one.
    #[inline]
    fn find(&self, va: Virt, pcid: u16) -> Option<u32> {
        [false, true].into_iter().find_map(|huge| {
            self.index
                .get(&tag(va, huge, pcid))
                .or_else(|| self.index.get(&tag(va, huge, GLOBAL_PCID)))
                .copied()
        })
    }

    /// A reused slot for a new tag, unlinked: a flushed one, else the
    /// evicted LRU tail once the array is full. `None` while it can grow.
    fn reuse_slot(&mut self) -> Option<u32> {
        if self.free != NIL {
            let slot = self.free;
            self.free = self.slots[slot as usize].next;
            return Some(slot);
        }
        if self.slots.len() < self.capacity {
            return None;
        }
        let victim = self.tail;
        self.index.remove(&self.slots[victim as usize].key);
        self.unlink(victim);
        Some(victim)
    }

    /// Unlinks an occupied slot whose tag is already out of the index and
    /// puts it on the free list.
    fn release(&mut self, slot: u32) {
        self.unlink(slot);
        self.slots[slot as usize].next = self.free;
        self.free = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old = self.head;
        let s = &mut self.slots[slot as usize];
        s.prev = NIL;
        s.next = old;
        match old {
            NIL => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl std::fmt::Debug for Tlb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tlb")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pa: Phys) -> TlbEntry {
        TlbEntry {
            page_pa: pa,
            page_size: PAGE_SIZE,
            writable: true,
            user: true,
            nx: true,
            pkey: 0,
            global: false,
            leaf_slot: 0,
            dirty: false,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(16);
        assert!(t.lookup(0x1000, 1).is_none());
        t.insert(0x1000, 1, entry(0xa000));
        let e = t.lookup(0x1000, 1).unwrap();
        assert_eq!(e.page_pa, 0xa000);
    }

    #[test]
    fn pcid_isolation() {
        let mut t = Tlb::new(16);
        t.insert(0x1000, 1, entry(0xa000));
        t.insert(0x1000, 2, entry(0xb000));
        assert_eq!(t.lookup(0x1000, 1).unwrap().page_pa, 0xa000);
        assert_eq!(t.lookup(0x1000, 2).unwrap().page_pa, 0xb000);
        // invlpg in PCID 1 must not evict PCID 2's entry (paper §4.1).
        t.flush_va(0x1000, 1);
        assert!(t.lookup(0x1000, 1).is_none());
        assert!(t.lookup(0x1000, 2).is_some());
    }

    #[test]
    fn flush_pcid_spares_others() {
        let mut t = Tlb::new(16);
        t.insert(0x1000, 1, entry(0xa000));
        t.insert(0x2000, 1, entry(0xb000));
        t.insert(0x1000, 2, entry(0xc000));
        t.flush_pcid(1);
        assert_eq!(t.count_pcid(1), 0);
        assert_eq!(t.lookup(0x1000, 2).unwrap().page_pa, 0xc000);
    }

    #[test]
    fn global_entries_match_any_pcid() {
        let mut t = Tlb::new(16);
        let mut e = entry(0xd000);
        e.global = true;
        t.insert(0x5000, 1, e);
        assert!(t.lookup(0x5000, 7).is_some());
        t.flush_pcid(7);
        assert!(t.lookup(0x5000, 7).is_some(), "globals survive PCID flush");
        t.flush_all();
        assert!(t.lookup(0x5000, 7).is_none());
    }

    #[test]
    fn capacity_bounded() {
        let mut t = Tlb::new(8);
        for i in 0..100u64 {
            t.insert(i * PAGE_SIZE, 1, entry(i * PAGE_SIZE));
        }
        assert!(t.len() <= 8);
    }

    #[test]
    fn huge_page_lookup() {
        let mut t = Tlb::new(16);
        let mut e = entry(0x20_0000);
        e.page_size = 2 * 1024 * 1024;
        t.insert(0x4000_0000, 1, e);
        // Any address within the 2 MiB page should hit.
        assert!(t.lookup(0x4010_2345, 1).is_some());
        assert!(t.lookup(0x4020_0000, 1).is_none());
    }

    #[test]
    fn iter_reconstructs_vas() {
        let mut t = Tlb::new(16);
        t.insert(0x7_f000, 3, entry(0xa000));
        let mut g = entry(0xb000);
        g.global = true;
        g.page_size = 2 * 1024 * 1024;
        t.insert(0x40_0000, 3, g);
        let mut seen: Vec<_> = t.iter().collect();
        seen.sort_by_key(|&(va, _, _)| va);
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (0x7_f000, 3, entry(0xa000)));
        assert_eq!(seen[1].0, 0x40_0000);
        assert_eq!(seen[1].1, 0xffff, "globals live under PCID 0xffff");
    }

    // ---- Property tests: the TLB may forget, but must never lie ----------
    //
    // A reference model mirrors the architectural contract (PCID tagging,
    // global entries, both page sizes, exact invlpg/flush semantics) with
    // unlimited capacity. After every random operation: any TLB hit must
    // match an entry the model could legally return for that (va, pcid),
    // and any (va, pcid) absent from the model must miss — a stale hit is
    // a coherence violation. Capacity stays bounded throughout.

    mod prop {
        use super::*;
        use obs::rng::SmallRng;
        use std::collections::HashMap;

        /// Reference model keyed exactly like the TLB's tag.
        struct RefModel {
            map: HashMap<(u64, u16), TlbEntry>,
        }

        impl RefModel {
            fn new() -> Self {
                Self {
                    map: HashMap::new(),
                }
            }

            fn insert(&mut self, va: Virt, pcid: u16, e: TlbEntry) {
                let shift = if e.page_size == PAGE_SIZE { 12 } else { 21 };
                let pcid = if e.global { 0xffff } else { pcid };
                self.map.insert((va >> shift | (shift << 56), pcid), e);
            }

            fn flush_va(&mut self, va: Virt, pcid: u16) {
                for shift in [12u64, 21u64] {
                    self.map.remove(&(va >> shift | (shift << 56), pcid));
                    self.map.remove(&(va >> shift | (shift << 56), 0xffff));
                }
            }

            fn flush_pcid(&mut self, pcid: u16) {
                self.map.retain(|k, _| k.1 != pcid);
            }

            /// Every entry the hardware could legally return for (va, pcid).
            fn candidates(&self, va: Virt, pcid: u16) -> Vec<TlbEntry> {
                let mut v = Vec::new();
                for shift in [12u64, 21u64] {
                    for p in [pcid, 0xffff] {
                        if let Some(e) = self.map.get(&(va >> shift | (shift << 56), p)) {
                            v.push(*e);
                        }
                    }
                }
                v
            }
        }

        pub(super) fn rand_entry(rng: &mut SmallRng, va: Virt, pcid: u16) -> TlbEntry {
            let huge = rng.gen_bool(0.2);
            let global = rng.gen_bool(0.15);
            TlbEntry {
                // Tag the frame with its identity so a cross-PCID or stale
                // hit is unmistakable.
                page_pa: (va << 8) | if global { 0xff } else { pcid as u64 },
                page_size: if huge { 2 * 1024 * 1024 } else { PAGE_SIZE },
                writable: rng.gen_bool(0.5),
                user: true,
                nx: rng.gen_bool(0.5),
                pkey: rng.gen_range(0u8..4),
                global,
                leaf_slot: 0,
                dirty: false,
            }
        }

        fn check_agree(t: &mut Tlb, model: &RefModel, va: Virt, pcid: u16) {
            // A miss is always legal (finite capacity); a hit must be real.
            if let Some(hit) = t.lookup(va, pcid) {
                let cands = model.candidates(va, pcid);
                assert!(
                    cands.contains(&hit),
                    "stale/foreign hit at va={va:#x} pcid={pcid}: {hit:?} \
                     not among {} model candidates",
                    cands.len()
                );
            }
        }

        #[test]
        fn random_sequences_never_yield_stale_or_foreign_hits() {
            for seed in 0..8u64 {
                let mut rng = SmallRng::seed_from_u64(0x71b_0000 + seed);
                let mut t = Tlb::new(32);
                let mut model = RefModel::new();
                let pcids = [1u16, 2, 3];
                // VAs chosen so 4 KiB and 2 MiB tags overlap and collide.
                let va_of = |i: u64| (i % 48) * PAGE_SIZE + (i % 3) * 0x20_0000;
                for step in 0..2000u64 {
                    let va = va_of(rng.gen::<u64>());
                    let pcid = pcids[rng.gen_range(0usize..3)];
                    match rng.gen_range(0u32..10) {
                        0..=4 => {
                            let e = rand_entry(&mut rng, va, pcid);
                            t.insert(va, pcid, e);
                            model.insert(va, pcid, e);
                        }
                        5 => {
                            t.flush_va(va, pcid);
                            model.flush_va(va, pcid);
                        }
                        6 => {
                            // A CR3 switch without the preserve bit.
                            t.flush_pcid(pcid);
                            model.flush_pcid(pcid);
                        }
                        7 if step % 97 == 0 => {
                            t.flush_all();
                            model.map.clear();
                        }
                        _ => check_agree(&mut t, &model, va, pcid),
                    }
                    assert!(t.len() <= 32, "capacity exceeded at step {step}");
                    // Probe a second random point each step.
                    let pva = va_of(rng.gen::<u64>());
                    check_agree(&mut t, &model, pva, pcids[rng.gen_range(0usize..3)]);
                }
            }
        }

        #[test]
        fn pcid_flush_is_exact_under_churn() {
            for seed in 0..4u64 {
                let mut rng = SmallRng::seed_from_u64(0xac1d_0000 + seed);
                let mut t = Tlb::new(64);
                let mut model = RefModel::new();
                for _ in 0..300 {
                    let va = (rng.gen::<u64>() % 64) * PAGE_SIZE;
                    let pcid = 1 + (rng.gen::<u64>() % 3) as u16;
                    let e = rand_entry(&mut rng, va, pcid);
                    t.insert(va, pcid, e);
                    model.insert(va, pcid, e);
                }
                t.flush_pcid(2);
                model.flush_pcid(2);
                assert_eq!(t.count_pcid(2), 0, "flushed PCID fully gone");
                // Survivors (other PCIDs + globals) must still validate, and
                // nothing tagged PCID 2 may ever surface again.
                for i in 0..64u64 {
                    for pcid in [1u16, 2, 3] {
                        let va = i * PAGE_SIZE;
                        if let Some(hit) = t.lookup(va, pcid) {
                            assert!(
                                model.candidates(va, pcid).contains(&hit),
                                "post-flush stale hit va={va:#x} pcid={pcid}"
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn eviction_preserves_validity_at_tiny_capacity() {
            // Heavy pressure on an 8-entry TLB: every surviving entry must
            // still be one the model knows, at every step.
            let mut rng = SmallRng::seed_from_u64(0xe71c);
            let mut t = Tlb::new(8);
            let mut model = RefModel::new();
            for _ in 0..1500 {
                let va = (rng.gen::<u64>() % 128) * PAGE_SIZE;
                let e = rand_entry(&mut rng, va, 1);
                t.insert(va, 1, e);
                model.insert(va, 1, e);
                assert!(t.len() <= 8);
                let probe = (rng.gen::<u64>() % 128) * PAGE_SIZE;
                check_agree(&mut t, &model, probe, 1);
            }
        }
    }

    // ---- Exactness: replacement is true LRU, not just safe -----------------
    //
    // A VecDeque reference keeps every tag in recency order (front = most
    // recent) and evicts from the back. Driven by the same random sequence,
    // the TLB must agree on every hit/miss and returned entry, and hold the
    // same entries in the same order after every step.

    mod lru {
        use super::*;
        use obs::rng::SmallRng;
        use std::collections::VecDeque;

        type RefTag = (u64, bool, u16);

        fn ref_tag(va: Virt, huge: bool, pcid: u16) -> RefTag {
            (va >> if huge { 21 } else { 12 }, huge, pcid)
        }

        /// Reference exact LRU over `(tag, entry)`, most recent first.
        struct RefLru {
            cap: usize,
            q: VecDeque<(RefTag, TlbEntry)>,
        }

        impl RefLru {
            fn find(&self, va: Virt, pcid: u16) -> Option<usize> {
                [false, true].into_iter().find_map(|huge| {
                    [pcid, GLOBAL_PCID].into_iter().find_map(|p| {
                        let t = ref_tag(va, huge, p);
                        self.q.iter().position(|(k, _)| *k == t)
                    })
                })
            }

            fn lookup(&mut self, va: Virt, pcid: u16) -> Option<TlbEntry> {
                let i = self.find(va, pcid)?;
                let hit = self.q.remove(i).unwrap();
                self.q.push_front(hit);
                Some(hit.1)
            }

            fn mark_dirty(&mut self, va: Virt, pcid: u16) {
                if let Some(i) = self.find(va, pcid) {
                    self.q[i].1.dirty = true;
                }
            }

            fn insert(&mut self, va: Virt, pcid: u16, e: TlbEntry) {
                let pcid = if e.global { GLOBAL_PCID } else { pcid };
                let t = ref_tag(va, e.page_size != PAGE_SIZE, pcid);
                if let Some(i) = self.q.iter().position(|(k, _)| *k == t) {
                    self.q.remove(i);
                } else if self.q.len() == self.cap {
                    self.q.pop_back();
                }
                self.q.push_front((t, e));
            }

            fn flush_va(&mut self, va: Virt, pcid: u16) {
                let flushed = |k: RefTag| {
                    [false, true].into_iter().any(|huge| {
                        k == ref_tag(va, huge, pcid) || k == ref_tag(va, huge, GLOBAL_PCID)
                    })
                };
                self.q.retain(|&(k, _)| !flushed(k));
            }

            fn flush_pcid(&mut self, pcid: u16) {
                self.q.retain(|&((_, _, p), _)| p != pcid);
            }

            /// Contents in `Tlb::iter` form.
            fn entries(&self) -> Vec<(Virt, u16, TlbEntry)> {
                self.q
                    .iter()
                    .map(|&((vpn, huge, p), e)| (vpn << if huge { 21 } else { 12 }, p, e))
                    .collect()
            }
        }

        #[test]
        fn replacement_matches_a_reference_lru() {
            for cap in [1usize, 8, 32] {
                for seed in 0..4u64 {
                    let mut rng = SmallRng::seed_from_u64(0x1e0_0000 + cap as u64 * 16 + seed);
                    let mut t = Tlb::new(cap);
                    let mut model = RefLru {
                        cap,
                        q: VecDeque::new(),
                    };
                    let pcids = [1u16, 2, 3];
                    // Up to ~100 live tags: heavy eviction at every capacity.
                    let va_of = |i: u64| (i % 48) * PAGE_SIZE + (i % 3) * 0x20_0000;
                    for step in 0..3000u64 {
                        let va = va_of(rng.gen::<u64>());
                        let pcid = pcids[rng.gen_range(0usize..3)];
                        match rng.gen_range(0u32..16) {
                            0..=5 => {
                                let e = prop::rand_entry(&mut rng, va, pcid);
                                t.insert(va, pcid, e);
                                model.insert(va, pcid, e);
                            }
                            6 => {
                                t.mark_dirty(va, pcid);
                                model.mark_dirty(va, pcid);
                            }
                            7 => {
                                t.flush_va(va, pcid);
                                model.flush_va(va, pcid);
                            }
                            8 => {
                                t.flush_pcid(pcid);
                                model.flush_pcid(pcid);
                            }
                            9 if step % 61 == 0 => {
                                t.flush_all();
                                model.q.clear();
                            }
                            _ => assert_eq!(
                                t.lookup(va, pcid),
                                model.lookup(va, pcid),
                                "cap {cap} seed {seed} step {step}: lookup va={va:#x} pcid={pcid}"
                            ),
                        }
                        assert_eq!(
                            t.iter().collect::<Vec<_>>(),
                            model.entries(),
                            "cap {cap} seed {seed} step {step}: contents or recency order"
                        );
                        assert_eq!(t.len(), model.q.len());
                        for p in pcids {
                            assert_eq!(
                                t.count_pcid(p),
                                model.q.iter().filter(|(k, _)| k.2 == p).count()
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn iter_reconstructs_high_half_vas() {
            let mut t = Tlb::new(4);
            let mut huge = entry(0x20_0000);
            huge.page_size = 2 * 1024 * 1024;
            t.insert(0xffff_8000_0000_1000, 1, entry(0xa000));
            t.insert(0xffff_ffff_ffe0_0000, 1, huge);
            let vas: Vec<_> = t.iter().map(|(va, _, _)| va).collect();
            assert_eq!(vas, [0xffff_ffff_ffe0_0000, 0xffff_8000_0000_1000]);
        }
    }
}
