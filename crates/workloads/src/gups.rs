//! GUPS (HPCC RandomAccess) — the TLB-miss-intensive workload of Table 4.
//!
//! Random 8-byte XOR updates over a table far larger than TLB reach: almost
//! every access misses the TLB and pays a full page walk — 1-D on
//! RunC/PVM/CKI, 2-D (through the EPT) on HVM, which is the 54.9 s → 67.8 s
//! gap the paper reports.

use guest_os::{Env, Errno};
use obs::rng::SmallRng;

use crate::report::{Probe, Report};

/// The GUPS workload.
pub struct GupsWorkload {
    /// Table size in bytes (default 128 MiB ≫ TLB reach of ~12 MiB).
    pub table_bytes: u64,
    /// Number of random updates.
    pub updates: u64,
}

/// RNG seed of the update stream.
const SEED: u64 = 1;

impl GupsWorkload {
    /// Creates a GUPS run.
    pub fn new(table_bytes: u64, updates: u64) -> Self {
        Self {
            table_bytes,
            updates,
        }
    }

    /// Runs: populate the table (faults), then the timed update loop.
    pub fn run(&mut self, env: &mut Env<'_>) -> Result<Report, Errno> {
        let base = env.mmap(self.table_bytes)?;
        // Populate so the timed phase measures TLB behaviour, not faults.
        env.touch_range(base, self.table_bytes, true)?;

        let mut rng = SmallRng::seed_from_u64(SEED);
        let probe = Probe::start(env);
        for _ in 0..self.updates {
            let off = rng.gen_range(0..self.table_bytes / 8) * 8;
            // Read-modify-write: one access (the line stays cached for the
            // write) plus the XOR.
            env.touch(base + off, true)?;
            env.compute(25);
        }
        Ok(probe.finish(env, "gups", self.updates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::{Kernel, NativePlatform};
    use sim_hw::{HwExtensions, Machine};

    #[test]
    fn timed_phase_has_no_faults_but_many_walks() {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let mut k = Kernel::boot(Box::new(NativePlatform::new(1)), &mut m);
        let mut env = Env::new(&mut k, &mut m);
        let mut w = GupsWorkload::new(64 * 1024 * 1024, 20_000);
        let walks_before = env.machine.cpu.page_walks();
        let r = w.run(&mut env).unwrap();
        assert_eq!(r.pgfaults, 0, "populated before timing");
        let walks = env.machine.cpu.page_walks() - walks_before;
        // 64 MiB table vs ~12 MiB TLB reach: most updates walk.
        assert!(
            walks > 10_000,
            "TLB-miss-bound: {walks} walks for 20k updates"
        );
    }
}
