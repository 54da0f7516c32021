//! The application environment handed to workloads.
//!
//! A workload is "a program running in the container": it sees syscalls,
//! raw memory access (which may fault into the kernel), and CPU compute.
//! [`Env`] borrows the kernel and machine so a workload can run under any
//! backend unchanged.

use sim_hw::{Machine, Tag};
use sim_mem::Virt;

use crate::kernel::Kernel;
use crate::syscall::{Errno, Sys, SysResult};

/// Mutable view of "this process on this machine" given to workloads.
pub struct Env<'a> {
    /// The guest kernel.
    pub kernel: &'a mut Kernel,
    /// The machine.
    pub machine: &'a mut Machine,
}

impl<'a> Env<'a> {
    /// Creates an environment over a kernel and machine.
    pub fn new(kernel: &'a mut Kernel, machine: &'a mut Machine) -> Self {
        Self { kernel, machine }
    }

    /// Issues a syscall.
    pub fn sys(&mut self, sys: Sys<'_>) -> SysResult {
        self.kernel.syscall(self.machine, sys)
    }

    /// Performs a user memory access (read or write) at `va`.
    pub fn touch(&mut self, va: Virt, write: bool) -> Result<(), Errno> {
        self.kernel.touch(self.machine, va, write)
    }

    /// Touches every page of `[va, va+len)`.
    pub fn touch_range(&mut self, va: Virt, len: u64, write: bool) -> Result<(), Errno> {
        self.kernel.touch_range(self.machine, va, len, write)
    }

    /// Burns `cycles` of application compute.
    pub fn compute(&mut self, cycles: u64) {
        self.machine.cpu.clock.charge(Tag::Compute, cycles);
    }

    /// Convenience: anonymous mmap, returning the base address.
    pub fn mmap(&mut self, len: u64) -> Result<Virt, Errno> {
        self.sys(Sys::Mmap { len, write: true })
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.machine.cpu.clock.ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::NativePlatform;
    use sim_hw::HwExtensions;

    #[test]
    fn env_basic_ops() {
        let mut m = Machine::new(256 * 1024 * 1024, HwExtensions::baseline());
        let mut k = Kernel::boot(Box::new(NativePlatform::new(1)), &mut m);
        let mut env = Env::new(&mut k, &mut m);
        let base = env.mmap(8 * 4096).unwrap();
        env.touch_range(base, 8 * 4096, true).unwrap();
        let t0 = env.now_ns();
        env.compute(2400);
        assert!(
            (env.now_ns() - t0 - 1000.0).abs() < 1.0,
            "2400 cycles = 1 µs"
        );
        assert_eq!(env.sys(Sys::Getpid).unwrap(), 1);
    }
}
