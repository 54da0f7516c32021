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
//! on the sequence of lookups, fills and flushes, never on hash seeds or
//! table layout, so a workload that overflows the TLB gives the same hits,
//! misses and cycles in every process.

use sim_mem::{Phys, Virt, PAGE_SIZE};

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

/// Whether `key` is a 2 MiB or a global tag, the kinds [`Tlb::find`]
/// probes only while some are cached.
#[inline]
fn huge_or_global(key: u64) -> bool {
    key & (1 << 16) != 0 || key as u16 == GLOBAL_PCID
}

/// Inverse of [`tag`]: the page-aligned VA and the PCID.
fn untag(key: u64) -> (Virt, u16) {
    let shift = if key & (1 << 16) != 0 { 21 } else { 12 };
    let vpn = ((key as i64) >> VPN_SHIFT) as u64;
    (vpn << shift, key as u16)
}

/// A TLB miss, as [`Tlb::lookup`] reports it: what [`Tlb::fill`] needs to
/// cache the translation the page walk then finds.
#[derive(Debug)]
#[must_use = "a miss is filled with the walked translation"]
pub struct Miss {
    va: Virt,
    pcid: u16,
}

/// Buckets of an empty TLB's tag index (a power of two).
const MIN_BUCKETS: usize = 8;

/// End-of-list marker for the recency links.
const NIL: u32 = u32::MAX;

/// One TLB slot, linked into the recency list (or the free list, through
/// `next`) and, while occupied, into its tag's hash chain.
struct Slot {
    key: u64,
    entry: TlbEntry,
    prev: u32,
    next: u32,
    /// Next slot in the same hash chain.
    chain: u32,
}

/// Finite, PCID-tagged, fully associative TLB with exact LRU replacement.
///
/// Entries live in a slot array of at most `capacity` slots, doubly linked
/// in recency order by `u32` indices. A hit moves the entry to the
/// most-recently-used end, and the fill after a miss evicts the
/// least-recently-used one from a full TLB, both in O(1).
///
/// A tag index finds the slots: a bucket array, each bucket the head of a
/// chain of slots linked through the slots themselves. A miss costs three
/// index operations: the lookup's probe, the victim's unlinking and the
/// fill's push onto its chain. The array doubles whenever the entries
/// outnumber half its buckets, so most probes for an absent tag read one
/// bucket and no slot, and a TLB that never fills stays small. Flushes by
/// PCID walk only the occupied slots. A count of cached 2 MiB and global
/// tags lets a lookup probe only the own-PCID 4 KiB tag while there are
/// none.
pub struct Tlb {
    slots: Vec<Slot>,
    /// First slot of each hash chain, by [`Tlb::bucket`]; a power of two
    /// long.
    buckets: Box<[u32]>,
    /// Occupied slots.
    len: usize,
    /// Cached tags that are 2 MiB or global (see [`huge_or_global`]).
    huge_or_global: usize,
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
            buckets: vec![NIL; MIN_BUCKETS].into_boxed_slice(),
            len: 0,
            huge_or_global: 0,
            head: NIL,
            tail: NIL,
            free: NIL,
            capacity,
        }
    }

    /// Looks up `va` in context `pcid`. Global entries match any PCID.
    /// A hit becomes the most recently used entry; a miss is handed to
    /// [`Tlb::fill`] after the page walk.
    pub fn lookup(&mut self, va: Virt, pcid: u16) -> Result<TlbEntry, Miss> {
        let Some(slot) = self.find(va, pcid) else {
            return Err(Miss { va, pcid });
        };
        self.unlink(slot);
        self.push_front(slot);
        Ok(self.slots[slot as usize].entry)
    }

    /// Caches `entry`, the translation walked after `miss`, as the most
    /// recently used entry, evicting the least recently used one if the
    /// TLB is full. The miss probed every tag that can cache its VA, so
    /// the fill does not probe again: it only links the entry in. Filling
    /// two misses of one translation would cache its tag twice (a debug
    /// build panics).
    pub fn fill(&mut self, miss: Miss, entry: TlbEntry) {
        let pcid = if entry.global { GLOBAL_PCID } else { miss.pcid };
        let key = tag(miss.va, entry.page_size != PAGE_SIZE, pcid);
        let slot = self.reuse_slot().unwrap_or_else(|| {
            self.slots.push(Slot {
                key,
                entry,
                prev: NIL,
                next: NIL,
                chain: NIL,
            });
            (self.slots.len() - 1) as u32
        });
        debug_assert!(
            self.get(key).is_none(),
            "TLB fill of the cached tag {key:#x}"
        );
        let bucket = self.bucket(key);
        let s = &mut self.slots[slot as usize];
        s.key = key;
        s.entry = entry;
        s.chain = std::mem::replace(&mut self.buckets[bucket], slot);
        self.len += 1;
        self.huge_or_global += usize::from(huge_or_global(key));
        self.push_front(slot);
        if 2 * self.len > self.buckets.len() {
            self.grow();
        }
    }

    /// Marks the most recently used entry dirty: call it on the first
    /// write through the entry that [`Tlb::lookup`] just hit or
    /// [`Tlb::fill`] just cached. Both leave that entry most recently
    /// used, so no probe is needed. Recency is unchanged.
    pub fn mark_dirty(&mut self) {
        if let Some(s) = self.slots.get_mut(self.head as usize) {
            s.entry.dirty = true;
        }
    }

    /// `invlpg`: drops the entry for `va` in `pcid` only (both page sizes).
    /// Global entries are also dropped, per the SDM.
    pub fn flush_va(&mut self, va: Virt, pcid: u16) {
        for key in self.candidate_tags(va, pcid) {
            if let Some(slot) = self.unindex(key) {
                self.release(slot);
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
                self.unindex(key);
                self.release(cur);
            }
            cur = next;
        }
    }

    /// Drops everything, including globals (`invpcid` all-contexts).
    pub fn flush_all(&mut self) {
        self.slots.clear();
        self.buckets.fill(NIL);
        self.len = 0;
        self.huge_or_global = 0;
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Number of cached 2 MiB or global translations (invariant checks:
    /// it must equal the count [`Tlb::iter`] yields).
    pub fn huge_or_global_len(&self) -> usize {
        self.huge_or_global
    }

    /// Slot caching `va` for `pcid`: 4 KiB before 2 MiB, the context's own
    /// entry before a global one. One index probe while no 2 MiB or
    /// global tag is cached, up to four otherwise.
    #[inline]
    fn find(&self, va: Virt, pcid: u16) -> Option<u32> {
        self.candidate_tags(va, pcid).find_map(|key| self.get(key))
    }

    /// The tags that may cache `va` for `pcid`, in [`Tlb::find`]'s order.
    /// While no 2 MiB or global tag is cached, only the context's own
    /// 4 KiB tag can be present, so it is the only one.
    #[inline]
    fn candidate_tags(&self, va: Virt, pcid: u16) -> impl Iterator<Item = u64> {
        let n = if self.huge_or_global == 0 { 1 } else { 4 };
        [
            tag(va, false, pcid),
            tag(va, false, GLOBAL_PCID),
            tag(va, true, pcid),
            tag(va, true, GLOBAL_PCID),
        ]
        .into_iter()
        .take(n)
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
        self.unindex(self.slots[victim as usize].key);
        self.unlink(victim);
        self.forget(self.slots[victim as usize].key);
        Some(victim)
    }

    /// The bucket of `key`: the top bits of a multiplicative hash.
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        let bits = self.buckets.len().trailing_zeros();
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    /// The slot caching `key`, found along its hash chain.
    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        let mut cur = self.buckets[self.bucket(key)];
        while cur != NIL {
            let s = &self.slots[cur as usize];
            if s.key == key {
                return Some(cur);
            }
            cur = s.chain;
        }
        None
    }

    /// Doubles the bucket array and relinks every occupied slot.
    fn grow(&mut self) {
        self.buckets = vec![NIL; 2 * self.buckets.len()].into_boxed_slice();
        let mut cur = self.head;
        while cur != NIL {
            let bucket = self.bucket(self.slots[cur as usize].key);
            self.slots[cur as usize].chain = std::mem::replace(&mut self.buckets[bucket], cur);
            cur = self.slots[cur as usize].next;
        }
    }

    /// Unlinks the slot caching `key` from its hash chain and returns it.
    fn unindex(&mut self, key: u64) -> Option<u32> {
        let bucket = self.bucket(key);
        let (mut prev, mut cur) = (NIL, self.buckets[bucket]);
        while cur != NIL {
            let Slot { key: k, chain, .. } = self.slots[cur as usize];
            if k == key {
                match prev {
                    NIL => self.buckets[bucket] = chain,
                    p => self.slots[p as usize].chain = chain,
                }
                self.len -= 1;
                return Some(cur);
            }
            (prev, cur) = (cur, chain);
        }
        None
    }

    /// Updates the 2 MiB/global count for a tag that left the index.
    fn forget(&mut self, key: u64) {
        self.huge_or_global -= usize::from(huge_or_global(key));
    }

    /// Unlinks an occupied slot whose tag is already out of the index and
    /// puts it on the free list.
    fn release(&mut self, slot: u32) {
        self.forget(self.slots[slot as usize].key);
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

    /// Caches `e` for `va` as the MMU does: a lookup, then a fill if it
    /// missed. Returns whether it filled.
    fn access(t: &mut Tlb, va: Virt, pcid: u16, e: TlbEntry) -> bool {
        match t.lookup(va, pcid) {
            Ok(_) => false,
            Err(miss) => {
                t.fill(miss, e);
                true
            }
        }
    }

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
        assert!(t.lookup(0x1000, 1).is_err());
        access(&mut t, 0x1000, 1, entry(0xa000));
        let e = t.lookup(0x1000, 1).unwrap();
        assert_eq!(e.page_pa, 0xa000);
    }

    #[test]
    fn pcid_isolation() {
        let mut t = Tlb::new(16);
        access(&mut t, 0x1000, 1, entry(0xa000));
        access(&mut t, 0x1000, 2, entry(0xb000));
        assert_eq!(t.lookup(0x1000, 1).unwrap().page_pa, 0xa000);
        assert_eq!(t.lookup(0x1000, 2).unwrap().page_pa, 0xb000);
        // invlpg in PCID 1 must not evict PCID 2's entry (paper §4.1).
        t.flush_va(0x1000, 1);
        assert!(t.lookup(0x1000, 1).is_err());
        assert!(t.lookup(0x1000, 2).is_ok());
    }

    #[test]
    fn flush_pcid_spares_others() {
        let mut t = Tlb::new(16);
        access(&mut t, 0x1000, 1, entry(0xa000));
        access(&mut t, 0x2000, 1, entry(0xb000));
        access(&mut t, 0x1000, 2, entry(0xc000));
        t.flush_pcid(1);
        assert_eq!(t.count_pcid(1), 0);
        assert_eq!(t.lookup(0x1000, 2).unwrap().page_pa, 0xc000);
    }

    #[test]
    fn global_entries_match_any_pcid() {
        let mut t = Tlb::new(16);
        let mut e = entry(0xd000);
        e.global = true;
        access(&mut t, 0x5000, 1, e);
        assert!(t.lookup(0x5000, 7).is_ok());
        t.flush_pcid(7);
        assert!(t.lookup(0x5000, 7).is_ok(), "globals survive PCID flush");
        t.flush_all();
        assert!(t.lookup(0x5000, 7).is_err());
    }

    #[test]
    fn capacity_bounded() {
        let mut t = Tlb::new(8);
        for i in 0..100u64 {
            access(&mut t, i * PAGE_SIZE, 1, entry(i * PAGE_SIZE));
        }
        assert!(t.len() <= 8);
    }

    #[test]
    fn huge_page_lookup() {
        let mut t = Tlb::new(16);
        let mut e = entry(0x20_0000);
        e.page_size = 2 * 1024 * 1024;
        access(&mut t, 0x4000_0000, 1, e);
        // Any address within the 2 MiB page should hit.
        assert!(t.lookup(0x4010_2345, 1).is_ok());
        assert!(t.lookup(0x4020_0000, 1).is_err());
    }

    #[test]
    fn iter_reconstructs_vas() {
        let mut t = Tlb::new(16);
        access(&mut t, 0x7_f000, 3, entry(0xa000));
        let mut g = entry(0xb000);
        g.global = true;
        g.page_size = 2 * 1024 * 1024;
        access(&mut t, 0x40_0000, 3, g);
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
            rand_entry_with(rng, va, pcid, 0.2, 0.15)
        }

        /// A random entry that is 2 MiB with probability `p_huge` and
        /// global with probability `p_global`.
        pub(super) fn rand_entry_with(
            rng: &mut SmallRng,
            va: Virt,
            pcid: u16,
            p_huge: f64,
            p_global: f64,
        ) -> TlbEntry {
            let huge = rng.gen_bool(p_huge);
            let global = rng.gen_bool(p_global);
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
            if let Ok(hit) = t.lookup(va, pcid) {
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
                            if access(&mut t, va, pcid, e) {
                                model.insert(va, pcid, e);
                            }
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
                    if access(&mut t, va, pcid, e) {
                        model.insert(va, pcid, e);
                    }
                }
                t.flush_pcid(2);
                model.flush_pcid(2);
                assert_eq!(t.count_pcid(2), 0, "flushed PCID fully gone");
                // Survivors (other PCIDs + globals) must still validate, and
                // nothing tagged PCID 2 may ever surface again.
                for i in 0..64u64 {
                    for pcid in [1u16, 2, 3] {
                        let va = i * PAGE_SIZE;
                        if let Ok(hit) = t.lookup(va, pcid) {
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
                if access(&mut t, va, 1, e) {
                    model.insert(va, 1, e);
                }
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

            /// An insert, probing for the tag first: a cached tag is
            /// replaced in place, any other evicts the tail of a full
            /// LRU. Returns whether it evicted.
            fn insert(&mut self, va: Virt, pcid: u16, e: TlbEntry) -> bool {
                let pcid = if e.global { GLOBAL_PCID } else { pcid };
                let t = ref_tag(va, e.page_size != PAGE_SIZE, pcid);
                let mut evicted = false;
                if let Some(i) = self.q.iter().position(|(k, _)| *k == t) {
                    self.q.remove(i);
                } else if self.q.len() == self.cap {
                    evicted = self.q.pop_back().is_some();
                }
                self.q.push_front((t, e));
                evicted
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

        /// How a random run draws its entries and how often it flushes
        /// everything.
        struct Mix {
            p_huge: f64,
            p_global: f64,
            flush_all_every: u64,
        }

        /// What a run did: lookups with the 2 MiB/global count at zero
        /// (the one-probe path) and above it, and the hits, misses and
        /// evictions of its accesses.
        #[derive(Default)]
        struct Tally {
            one_probe: u64,
            four_probe: u64,
            hits: u64,
            misses: u64,
            evictions: u64,
        }

        /// Drives a TLB of `cap` entries and the reference with one random
        /// sequence, checking after every step that they agree on every
        /// lookup, on every access's hit, miss and eviction (the TLB fills
        /// after a miss, the reference inserts), on the contents and
        /// recency order, and that the 2 MiB/global count matches the
        /// entries.
        fn drive(cap: usize, seed: u64, mix: &Mix) -> Tally {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut t = Tlb::new(cap);
            let mut model = RefLru {
                cap,
                q: VecDeque::new(),
            };
            let mut tally = Tally::default();
            let pcids = [1u16, 2, 3];
            // Up to ~100 live tags: heavy eviction at every capacity.
            let va_of = |i: u64| (i % 48) * PAGE_SIZE + (i % 3) * 0x20_0000;
            for step in 0..3000u64 {
                let va = va_of(rng.gen::<u64>());
                let pcid = pcids[rng.gen_range(0usize..3)];
                match rng.gen_range(0u32..16) {
                    0..=5 => {
                        // An access: a hit, or a miss the walk fills.
                        let e = prop::rand_entry_with(&mut rng, va, pcid, mix.p_huge, mix.p_global);
                        let want = model.lookup(va, pcid);
                        let what = format!("cap {cap} seed {seed} step {step}: access va={va:#x}");
                        match t.lookup(va, pcid) {
                            Ok(hit) => {
                                assert_eq!(Some(hit), want, "{what}");
                                tally.hits += 1;
                            }
                            Err(miss) => {
                                assert_eq!(None, want, "{what}");
                                let full = t.len() == cap;
                                t.fill(miss, e);
                                assert_eq!(full, model.insert(va, pcid, e), "{what}: eviction");
                                tally.misses += 1;
                                tally.evictions += u64::from(full);
                            }
                        }
                        // Every other access writes through the entry.
                        if step % 2 == 0 {
                            t.mark_dirty();
                            model.mark_dirty(va, pcid);
                        }
                    }
                    6 => {
                        t.flush_va(va, pcid);
                        model.flush_va(va, pcid);
                    }
                    7 => {
                        t.flush_pcid(pcid);
                        model.flush_pcid(pcid);
                    }
                    8 if step % mix.flush_all_every == 0 => {
                        t.flush_all();
                        model.q.clear();
                    }
                    _ => {
                        if t.huge_or_global_len() == 0 {
                            tally.one_probe += 1;
                        } else {
                            tally.four_probe += 1;
                        }
                        assert_eq!(
                            t.lookup(va, pcid).ok(),
                            model.lookup(va, pcid),
                            "cap {cap} seed {seed} step {step}: lookup va={va:#x} pcid={pcid}"
                        );
                    }
                }
                let entries = t.iter().collect::<Vec<_>>();
                assert_eq!(
                    entries,
                    model.entries(),
                    "cap {cap} seed {seed} step {step}: contents or recency order"
                );
                assert_eq!(
                    t.huge_or_global_len(),
                    entries
                        .iter()
                        .filter(|(_, p, e)| *p == GLOBAL_PCID || e.page_size != PAGE_SIZE)
                        .count(),
                    "cap {cap} seed {seed} step {step}: 2 MiB/global count"
                );
                assert_eq!(t.len(), model.q.len());
                for p in pcids {
                    assert_eq!(
                        t.count_pcid(p),
                        model.q.iter().filter(|(k, _)| k.2 == p).count()
                    );
                }
            }
            tally
        }

        #[test]
        fn replacement_matches_a_reference_lru() {
            let mix = Mix {
                p_huge: 0.2,
                p_global: 0.15,
                flush_all_every: 61,
            };
            for cap in [1usize, 8, 32] {
                for seed in 0..4u64 {
                    drive(cap, 0x1e0_0000 + cap as u64 * 16 + seed, &mix);
                }
            }
        }

        #[test]
        fn one_probe_and_four_probe_lookups_both_match_the_reference() {
            // Rare 2 MiB and global entries and frequent full flushes: the
            // count keeps returning to zero, so lookups alternate between
            // the one-probe path and the four-probe one.
            let mix = Mix {
                p_huge: 0.03,
                p_global: 0.03,
                flush_all_every: 7,
            };
            let (mut one, mut four) = (0, 0);
            for cap in [1usize, 8, 32] {
                for seed in 0..4u64 {
                    let tally = drive(cap, 0x0b1e_0000 + cap as u64 * 16 + seed, &mix);
                    one += tally.one_probe;
                    four += tally.four_probe;
                }
            }
            let all = one + four;
            assert!(
                one * 5 > all && four * 5 > all,
                "each path runs for over a fifth of lookups: {one} one-probe, {four} four-probe"
            );
        }

        #[test]
        fn fill_after_a_miss_hits_misses_and_evicts_as_an_insert_does() {
            // Common 2 MiB and global entries, flushes of every kind, and
            // capacities from 1 to 16: each run hits, misses and evicts,
            // and `drive` checks every access's outcome against the
            // probing insert.
            let mix = Mix {
                p_huge: 0.3,
                p_global: 0.3,
                flush_all_every: 13,
            };
            for cap in [1usize, 2, 8, 16] {
                for seed in 0..3u64 {
                    let tally = drive(cap, 0xf111_0000 + cap as u64 * 16 + seed, &mix);
                    let Tally {
                        hits,
                        misses,
                        evictions,
                        ..
                    } = tally;
                    assert!(
                        hits > 0 && misses > 0,
                        "cap {cap}: {hits} hits, {misses} misses"
                    );
                    assert!(evictions > 0, "cap {cap}: no eviction");
                }
            }
        }

        #[test]
        fn iter_reconstructs_high_half_vas() {
            let mut t = Tlb::new(4);
            let mut huge = entry(0x20_0000);
            huge.page_size = 2 * 1024 * 1024;
            access(&mut t, 0xffff_8000_0000_1000, 1, entry(0xa000));
            access(&mut t, 0xffff_ffff_ffe0_0000, 1, huge);
            let vas: Vec<_> = t.iter().map(|(va, _, _)| va).collect();
            assert_eq!(vas, [0xffff_ffff_ffe0_0000, 0xffff_8000_0000_1000]);
        }
    }
}
