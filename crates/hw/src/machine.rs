//! A machine = physical memory + one CPU.

use sim_mem::{FrameAllocator, PhysMem};

use crate::cpu::Cpu;
use crate::ext::HwExtensions;

/// One simulated machine: physical memory, a CPU, and the machine-wide
/// frame allocator the host kernel draws from.
///
/// The simulation is single-threaded; multi-vCPU workloads multiplex vCPU
/// contexts onto this one CPU, charging context-switch costs — the same
/// way the deterministic discrete-event evaluation in the paper's gem5
/// study works.
pub struct Machine {
    /// The physical memory.
    pub mem: PhysMem,
    /// The CPU.
    pub cpu: Cpu,
    /// Machine-wide frame allocator (the host kernel's buddy allocator).
    pub frames: FrameAllocator,
}

impl Machine {
    /// Creates a machine with `mem_bytes` of physical memory.
    ///
    /// The first 16 MiB is reserved for firmware/host text in the address
    /// map and never handed out by the frame allocator.
    pub fn new(mem_bytes: u64, ext: HwExtensions) -> Self {
        let mem = PhysMem::new(mem_bytes);
        let reserved = 16 * 1024 * 1024;
        assert!(mem_bytes > reserved, "machine needs more than 16 MiB");
        Self {
            mem,
            cpu: Cpu::new(ext),
            frames: FrameAllocator::new(reserved, mem_bytes),
        }
    }

    /// Simulated elapsed nanoseconds.
    pub fn ns(&self) -> f64 {
        self.cpu.clock.ns()
    }

    /// Simulated elapsed seconds.
    pub fn seconds(&self) -> f64 {
        self.cpu.clock.seconds()
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("mem", &self.mem)
            .field("cpu", &self.cpu)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let m = Machine::new(1 << 30, HwExtensions::cki());
        assert_eq!(m.mem.size(), 1 << 30);
        assert!(m.frames.capacity() > 0);
        assert_eq!(m.ns(), 0.0);
    }

    #[test]
    #[should_panic(expected = "more than 16 MiB")]
    fn tiny_machine_rejected() {
        Machine::new(1 << 20, HwExtensions::baseline());
    }
}
