//! The BTree key-value workload (paper Figures 4/12/13a, Table 4).
//!
//! A real B-tree whose nodes live at simulated virtual addresses inside an
//! `mmap`'d arena: every node visit issues a memory access through the MMU
//! (TLB, page walk, demand paging), and node allocation during inserts
//! drives the page-fault path — which is exactly why the paper uses it.
//! "The insertion operation is more time-consuming since of triggering new
//! memory allocation and page table modification. Therefore, the overhead
//! decreases as the lookup/insert ratio increases" (§7.2).

use guest_os::{Env, Errno};
use obs::rng::SmallRng;

use crate::report::{Probe, Report};

/// Keys per node (fixed-size nodes; splits at capacity).
const NODE_KEYS: usize = 16;

/// Simulated bytes per node (four cache lines).
const NODE_BYTES: u64 = 256;

/// Simulated bytes per stored value (the KV store's payload; value
/// allocation is what makes inserts fault-heavy).
const VALUE_BYTES: u64 = 512;

/// RNG seed of the key stream.
const SEED: u64 = 42;

#[derive(Debug, Clone)]
struct Node {
    keys: Vec<u64>,
    /// Children node ids (empty for leaves).
    children: Vec<usize>,
    /// Simulated VA of this node.
    va: u64,
}

/// The B-tree workload.
pub struct BTreeWorkload {
    /// Entries inserted in the build phase.
    pub inserts: u64,
    /// Lookup operations per insert in the run phase (the Figure 13a
    /// lookup/insert ratio knob).
    pub lookup_ratio: u64,
    nodes: Vec<Node>,
    root: usize,
    arena_base: u64,
    arena_next: u64,
    value_base: u64,
    value_next: u64,
}

impl BTreeWorkload {
    /// A BTree run with `inserts` insertions then `inserts × lookup_ratio`
    /// lookups.
    pub fn new(inserts: u64, lookup_ratio: u64) -> Self {
        Self {
            inserts,
            lookup_ratio,
            nodes: Vec::new(),
            root: 0,
            arena_base: 0,
            arena_next: 0,
            value_base: 0,
            value_next: 0,
        }
    }

    /// Stores an inserted value in the value arena (write-faults new pages).
    fn store_value(&mut self, env: &mut Env<'_>) -> Result<(), Errno> {
        let va = self.value_base + self.value_next;
        self.value_next += VALUE_BYTES;
        env.touch(va, true)?;
        env.compute(130); // value memcpy
        Ok(())
    }

    fn alloc_node(&mut self, env: &mut Env<'_>, leaf: bool) -> Result<usize, Errno> {
        let va = self.arena_base + self.arena_next;
        self.arena_next += NODE_BYTES;
        // Touching fresh arena pages demand-faults them in.
        env.touch(va, true)?;
        self.nodes.push(Node {
            keys: Vec::with_capacity(NODE_KEYS),
            children: if leaf {
                Vec::new()
            } else {
                Vec::with_capacity(NODE_KEYS + 1)
            },
            va,
        });
        Ok(self.nodes.len() - 1)
    }

    fn visit(&self, env: &mut Env<'_>, node: usize, write: bool) -> Result<(), Errno> {
        env.touch(self.nodes[node].va, write)?;
        // Binary search over the keys of one node.
        env.compute(95);
        Ok(())
    }

    /// Looks `key` up, touching each node on the path.
    fn lookup(&self, env: &mut Env<'_>, key: u64) -> Result<bool, Errno> {
        let mut cur = self.root;
        loop {
            self.visit(env, cur, false)?;
            let node = &self.nodes[cur];
            let pos = node.keys.partition_point(|&k| k < key);
            if node.keys.get(pos) == Some(&key) {
                return Ok(true);
            }
            if node.children.is_empty() {
                return Ok(false);
            }
            cur = node.children[pos];
        }
    }

    /// Inserts `key`, splitting full nodes (allocating = faulting).
    fn insert(&mut self, env: &mut Env<'_>, key: u64) -> Result<(), Errno> {
        // Split-ahead insertion: walk down, splitting any full child.
        if self.nodes[self.root].keys.len() == NODE_KEYS {
            let old_root = self.root;
            let new_root = self.alloc_node(env, false)?;
            self.nodes[new_root].children.push(old_root);
            self.root = new_root;
            self.split_child(env, new_root, 0)?;
        }
        let mut cur = self.root;
        loop {
            self.visit(env, cur, true)?;
            if self.nodes[cur].children.is_empty() {
                let pos = self.nodes[cur].keys.partition_point(|&k| k < key);
                self.nodes[cur].keys.insert(pos, key);
                return Ok(());
            }
            let pos = self.nodes[cur].keys.partition_point(|&k| k < key);
            let child = self.nodes[cur].children[pos];
            if self.nodes[child].keys.len() == NODE_KEYS {
                self.split_child(env, cur, pos)?;
                // Re-evaluate which side to descend.
                let pos = self.nodes[cur].keys.partition_point(|&k| k < key);
                cur = self.nodes[cur].children[pos];
            } else {
                cur = child;
            }
        }
    }

    fn split_child(&mut self, env: &mut Env<'_>, parent: usize, idx: usize) -> Result<(), Errno> {
        let child = self.nodes[parent].children[idx];
        let leaf = self.nodes[child].children.is_empty();
        let right = self.alloc_node(env, leaf)?;
        self.visit(env, child, true)?;
        self.visit(env, right, true)?;
        let mid = NODE_KEYS / 2;
        let up_key = self.nodes[child].keys[mid];
        let right_keys = self.nodes[child].keys.split_off(mid + 1);
        self.nodes[child].keys.pop();
        self.nodes[right].keys = right_keys;
        if !leaf {
            let right_children = self.nodes[child].children.split_off(mid + 1);
            self.nodes[right].children = right_children;
        }
        let p = &mut self.nodes[parent];
        p.keys.insert(idx, up_key);
        p.children.insert(idx + 1, right);
        env.compute(260);
        Ok(())
    }

    /// Runs the full workload: build (inserts) then lookups.
    pub fn run(&mut self, env: &mut Env<'_>) -> Result<Report, Errno> {
        let arena = 2 * NODE_BYTES * self.inserts.max(64);
        self.arena_base = env.mmap(arena)?;
        self.arena_next = 0;
        self.value_base = env.mmap(VALUE_BYTES * self.inserts.max(64))?;
        self.value_next = 0;
        self.nodes.clear();
        let root = self.alloc_node(env, true)?;
        self.root = root;

        let mut rng = SmallRng::seed_from_u64(SEED);
        let probe = Probe::start(env);
        for _ in 0..self.inserts {
            let key = rng.gen::<u64>();
            self.insert(env, key)?;
            self.store_value(env)?;
            env.compute(380); // key preparation, hashing
        }
        for _ in 0..self.inserts * self.lookup_ratio {
            let key = rng.gen::<u64>();
            self.lookup(env, key)?;
            env.compute(200);
        }
        let ops = self.inserts * (1 + self.lookup_ratio);
        Ok(probe.finish(env, "btree", ops))
    }

    /// Builds a tree, then runs only random lookups (Table 4's
    /// "BTree-Lookup": TLB-miss-bound, no new allocations).
    pub fn run_lookup_only(&mut self, env: &mut Env<'_>, lookups: u64) -> Result<Report, Errno> {
        let arena = 2 * NODE_BYTES * self.inserts.max(64);
        self.arena_base = env.mmap(arena)?;
        self.arena_next = 0;
        self.value_base = env.mmap(VALUE_BYTES * self.inserts.max(64))?;
        self.value_next = 0;
        self.nodes.clear();
        let root = self.alloc_node(env, true)?;
        self.root = root;
        let mut rng = SmallRng::seed_from_u64(SEED);
        for _ in 0..self.inserts {
            let key = rng.gen::<u64>();
            self.insert(env, key)?;
            self.store_value(env)?;
        }
        let probe = Probe::start(env);
        for _ in 0..lookups {
            let key = rng.gen::<u64>();
            self.lookup(env, key)?;
            env.compute(200);
        }
        Ok(probe.finish(env, "btree-lookup", lookups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::{Kernel, NativePlatform};
    use sim_hw::{HwExtensions, Machine};

    fn boot() -> (Kernel, Machine) {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let k = Kernel::boot(Box::new(NativePlatform::new(1)), &mut m);
        (k, m)
    }

    #[test]
    fn inserts_then_finds_keys() {
        let (mut k, mut m) = boot();
        let mut env = Env::new(&mut k, &mut m);
        let mut w = BTreeWorkload::new(2000, 0);
        w.arena_base = env.mmap(4 * 1024 * 1024).unwrap();
        w.value_base = env.mmap(4 * 1024 * 1024).unwrap();
        let root = w.alloc_node(&mut env, true).unwrap();
        w.root = root;
        let mut keys = Vec::new();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..2000 {
            let key = rng.gen::<u64>();
            keys.push(key);
            w.insert(&mut env, key).unwrap();
        }
        for key in keys {
            assert!(w.lookup(&mut env, key).unwrap(), "key {key} lost");
        }
        assert!(!w.lookup(&mut env, 1).unwrap_or(true));
    }

    #[test]
    fn run_reports_faults_and_ops() {
        let (mut k, mut m) = boot();
        let mut env = Env::new(&mut k, &mut m);
        let mut w = BTreeWorkload::new(3000, 2);
        let r = w.run(&mut env).unwrap();
        assert_eq!(r.ops, 9000);
        assert!(r.pgfaults > 100, "arena growth faults: {}", r.pgfaults);
        assert!(r.ns > 0.0);
    }

    #[test]
    fn insert_phase_faults_dominate() {
        // Higher lookup ratio → lower fault density per op (Figure 13a).
        let (mut k, mut m) = boot();
        let mut env = Env::new(&mut k, &mut m);
        let r_low = BTreeWorkload::new(2000, 0).run(&mut env).unwrap();
        let (mut k2, mut m2) = boot();
        let mut env2 = Env::new(&mut k2, &mut m2);
        let r_high = BTreeWorkload::new(2000, 8).run(&mut env2).unwrap();
        let d_low = r_low.pgfaults as f64 / r_low.ops as f64;
        let d_high = r_high.pgfaults as f64 / r_high.ops as f64;
        assert!(d_high < d_low / 4.0, "fault density: {d_low} vs {d_high}");
    }
}
