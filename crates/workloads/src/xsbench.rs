//! XSBench-like Monte-Carlo neutron transport (Figures 4/12/13b).
//!
//! Two phases, mirroring the real XSBench: an *initialization* phase that
//! generates the nuclide grid data (allocation-heavy: page faults), and a
//! *calculation* phase that simulates particles with random cross-section
//! lookups (read-heavy). "The overhead in this case mainly stems from data
//! generation, resulting in higher overhead when the calculation phase is
//! shorter (fewer particles)" (§7.2) — the particle count is the knob.

use guest_os::{Env, Errno};
use obs::rng::SmallRng;

use crate::report::{Probe, Report};

/// The XSBench-like workload.
pub struct XsBenchWorkload {
    /// Size of the generated grid data in bytes.
    pub grid_bytes: u64,
    /// Number of particles simulated in the calculation phase.
    pub particles: u64,
}

/// Cross-section lookups per particle.
const LOOKUPS_PER_PARTICLE: u64 = 8;

/// RNG seed of the particle stream.
const SEED: u64 = 3;

impl XsBenchWorkload {
    /// Creates a run with `grid_bytes` of generated data and `particles`.
    pub fn new(grid_bytes: u64, particles: u64) -> Self {
        Self {
            grid_bytes,
            particles,
        }
    }

    /// Runs both phases; the report covers the whole program (like the
    /// paper's end-to-end latency numbers).
    pub fn run(&mut self, env: &mut Env<'_>) -> Result<Report, Errno> {
        let probe = Probe::start(env);

        // Phase 1: data generation — sequential writes over fresh memory.
        let base = env.mmap(self.grid_bytes)?;
        let mut va = base;
        while va < base + self.grid_bytes {
            env.touch(va, true)?;
            env.compute(4200); // RNG + sorting work per generated page
            va += 4096;
        }

        // Phase 2: particle transport — random lookups + FLOPs.
        let mut rng = SmallRng::seed_from_u64(SEED);
        for _ in 0..self.particles {
            for _ in 0..LOOKUPS_PER_PARTICLE {
                let off = rng.gen_range(0..self.grid_bytes / 8) * 8;
                env.touch(base + off, false)?;
                env.compute(900); // interpolation
            }
            env.compute(3800); // per-particle bookkeeping
        }
        Ok(probe.finish(env, "xsbench", self.particles.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::{Kernel, NativePlatform};
    use sim_hw::{HwExtensions, Machine};

    fn run_with(particles: u64) -> Report {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let mut k = Kernel::boot(Box::new(NativePlatform::new(1)), &mut m);
        let mut env = Env::new(&mut k, &mut m);
        XsBenchWorkload::new(16 * 1024 * 1024, particles)
            .run(&mut env)
            .unwrap()
    }

    #[test]
    fn generation_faults_scale_with_grid() {
        let r = run_with(100);
        assert!(
            r.pgfaults >= 4096,
            "one fault per generated page: {}",
            r.pgfaults
        );
    }

    #[test]
    fn more_particles_longer_calc_phase() {
        let short = run_with(100);
        let long = run_with(5000);
        assert!(long.ns > short.ns * 1.5, "{} vs {}", short.ns, long.ns);
        // Same generation work in both.
        assert_eq!(short.pgfaults, long.pgfaults);
    }
}
