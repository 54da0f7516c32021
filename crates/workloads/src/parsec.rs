//! PARSEC-like page-fault-intensive kernels (Figures 4 and 12).
//!
//! Faithful *access-pattern* reimplementations of the four PARSEC members
//! the paper evaluates. What matters for the experiment is each program's
//! ratio of page faults and memory traffic to compute — that is what
//! separates the backends — so each kernel reproduces the allocation and
//! access structure of the original:
//!
//! - **canneal**: random-swap simulated annealing over a large netlist.
//! - **dedup**: streaming chunking/hashing with many short-lived buffers.
//! - **fluidanimate**: iterative grid sweeps with neighbour access.
//! - **freqmine**: FP-growth-style tree construction and traversal.

use guest_os::{Env, Errno};
use obs::rng::SmallRng;

use crate::report::{Probe, Report};

/// Which PARSEC-like kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsecKind {
    /// Simulated annealing over a netlist.
    Canneal,
    /// Streaming deduplication.
    Dedup,
    /// Particle/fluid grid simulation.
    Fluidanimate,
    /// Frequent-itemset tree mining.
    Freqmine,
}

impl ParsecKind {
    /// Workload name as in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ParsecKind::Canneal => "canneal",
            ParsecKind::Dedup => "dedup",
            ParsecKind::Fluidanimate => "fluidanimate",
            ParsecKind::Freqmine => "freqmine",
        }
    }
}

/// A PARSEC-like kernel run.
pub struct ParsecWorkload {
    /// Which kernel.
    pub kind: ParsecKind,
    /// Problem scale (bytes of primary working set).
    pub scale_bytes: u64,
    /// Iterations / stream length.
    pub iterations: u64,
}

/// RNG seed of every kernel's input.
const SEED: u64 = 11;

impl ParsecWorkload {
    /// Creates a kernel at the given scale.
    pub fn new(kind: ParsecKind, scale_bytes: u64, iterations: u64) -> Self {
        Self {
            kind,
            scale_bytes,
            iterations,
        }
    }

    /// Runs the kernel.
    pub fn run(&mut self, env: &mut Env<'_>) -> Result<Report, Errno> {
        match self.kind {
            ParsecKind::Canneal => self.canneal(env),
            ParsecKind::Dedup => self.dedup(env),
            ParsecKind::Fluidanimate => self.fluidanimate(env),
            ParsecKind::Freqmine => self.freqmine(env),
        }
    }

    /// canneal: load the netlist (faults), then random element swaps.
    fn canneal(&mut self, env: &mut Env<'_>) -> Result<Report, Errno> {
        let probe = Probe::start(env);
        let base = env.mmap(self.scale_bytes)?;
        // Netlist parse: sequential population.
        let mut va = base;
        while va < base + self.scale_bytes {
            env.touch(va, true)?;
            env.compute(2600);
            va += 4096;
        }
        let mut rng = SmallRng::seed_from_u64(SEED);
        for _ in 0..self.iterations {
            // Pick two random elements, evaluate, maybe swap.
            let a = rng.gen_range(0..self.scale_bytes / 64) * 64;
            let b = rng.gen_range(0..self.scale_bytes / 64) * 64;
            env.touch(base + a, false)?;
            env.touch(base + b, false)?;
            env.compute(1300); // routing-cost evaluation
            if rng.gen_bool(0.5) {
                env.touch(base + a, true)?;
                env.touch(base + b, true)?;
            }
        }
        Ok(probe.finish(env, "canneal", self.iterations))
    }

    /// dedup: stream chunks through fresh buffers + a dedup hash table.
    fn dedup(&mut self, env: &mut Env<'_>) -> Result<Report, Errno> {
        let probe = Probe::start(env);
        let table = env.mmap(self.scale_bytes / 4)?;
        let mut rng = SmallRng::seed_from_u64(SEED);
        let chunk = 16 * 1024u64;
        for i in 0..self.iterations {
            // Fresh buffer per stream window — the allocation churn that
            // makes dedup fault-heavy.
            let buf = env.mmap(chunk)?;
            env.touch_range(buf, chunk, true)?;
            env.compute(chunk * 6); // SHA1-class hashing per byte
                                    // Dedup table probes.
            for _ in 0..4 {
                let off = rng.gen_range(0..self.scale_bytes / 4 / 64) * 64;
                env.touch(table + off, true)?;
                env.compute(190);
            }
            // Window retired; unmap every few windows (memory churn).
            if i % 4 == 3 {
                env.sys(guest_os::Sys::Munmap {
                    addr: buf,
                    len: chunk,
                })?;
            }
        }
        Ok(probe.finish(env, "dedup", self.iterations))
    }

    /// fluidanimate: grid sweeps; faults only on the first pass.
    fn fluidanimate(&mut self, env: &mut Env<'_>) -> Result<Report, Errno> {
        let probe = Probe::start(env);
        let base = env.mmap(self.scale_bytes)?;
        let cells = self.scale_bytes / 64;
        for _iter in 0..self.iterations {
            for c in (0..cells).step_by(8) {
                // Cell + neighbour reads, then update.
                env.touch(base + c * 64, false)?;
                env.touch(base + ((c + 1) % cells) * 64, false)?;
                env.touch(base + c * 64, true)?;
                env.compute(1600); // density/force kernels
            }
        }
        Ok(probe.finish(env, "fluidanimate", self.iterations * cells / 8))
    }

    /// freqmine: build an FP-tree (allocation bursts) and traverse it.
    fn freqmine(&mut self, env: &mut Env<'_>) -> Result<Report, Errno> {
        let probe = Probe::start(env);
        let arena = env.mmap(self.scale_bytes)?;
        let mut next = 0u64;
        let mut rng = SmallRng::seed_from_u64(SEED);
        let mut node_count = 0u64;
        // Build: insert random transaction paths.
        for _ in 0..self.iterations {
            let depth = rng.gen_range(4..12);
            for _ in 0..depth {
                if rng.gen_bool(0.3) && next + 128 < self.scale_bytes {
                    // New tree node.
                    env.touch(arena + next, true)?;
                    next += 128;
                    node_count += 1;
                } else if node_count > 0 {
                    // Existing node visit.
                    let n = rng.gen_range(0..node_count);
                    env.touch(arena + n * 128, true)?;
                }
                env.compute(340);
            }
        }
        // Mine: conditional-pattern traversals.
        for _ in 0..self.iterations * 2 {
            if node_count == 0 {
                break;
            }
            let n = rng.gen_range(0..node_count);
            env.touch(arena + n * 128, false)?;
            env.compute(520);
        }
        Ok(probe.finish(env, "freqmine", self.iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::{Kernel, NativePlatform};
    use sim_hw::{HwExtensions, Machine};

    fn run(kind: ParsecKind) -> Report {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let mut k = Kernel::boot(Box::new(NativePlatform::new(1)), &mut m);
        let mut env = Env::new(&mut k, &mut m);
        ParsecWorkload::new(kind, 8 * 1024 * 1024, 400)
            .run(&mut env)
            .unwrap()
    }

    #[test]
    fn all_kernels_run_and_fault() {
        for kind in [
            ParsecKind::Canneal,
            ParsecKind::Dedup,
            ParsecKind::Fluidanimate,
            ParsecKind::Freqmine,
        ] {
            let r = run(kind);
            assert!(r.ns > 0.0, "{}", kind.name());
            assert!(r.pgfaults > 10, "{} faulted {}", kind.name(), r.pgfaults);
        }
    }

    #[test]
    fn dedup_is_fault_dense() {
        // dedup's buffer churn gives it a higher fault rate than
        // fluidanimate's steady grid (Figure 12's spread).
        let d = run(ParsecKind::Dedup);
        let f = run(ParsecKind::Fluidanimate);
        let dd = d.pgfaults as f64 / d.seconds();
        let ff = f.pgfaults as f64 / f.seconds();
        assert!(dd > ff, "dedup {dd:.0} vs fluidanimate {ff:.0} faults/s");
    }
}
