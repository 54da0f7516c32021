//! The rest of the paper's design space (Figure 3, §2.4.3): gVisor-style
//! userspace kernels and libOS-based containers.
//!
//! The paper excludes these from its quantitative evaluation but positions
//! them in Table 1; this module implements both so the comparison can be
//! *measured* rather than asserted:
//!
//! - **gVisor (userspace kernel)**: each container gets a Sentry process.
//!   Application syscalls are intercepted by Systrap and shipped to the
//!   Sentry over inter-process communication — "much slower than native
//!   syscalls" (§2.4.3). Application page faults are handled by the host
//!   (no shadow paging), so memory management is cheap; networking runs in
//!   the Sentry's own user-space netstack.
//! - **Proc-like LibOS (Nabla-style)**: the libOS is linked into the
//!   application's address space. Syscalls are function calls — faster
//!   than native — but there is *no user/kernel isolation inside the
//!   container* and multi-process support is missing (the paper's
//!   compatibility column).

use guest_os::platform::{host_map, host_new_root, host_protect, host_unmap, MapFault, Platform};
use sim_hw::{Fault, Machine, Tag};
use sim_mem::{MapFlags, Phys, Virt};

/// Cost of one Systrap interception + IPC to the Sentry and back, cycles.
/// Real systrap syscalls measure in the 2-3 µs range.
const SYSTRAP_IPC: u64 = 2700;

/// Sentry-side syscall service overhead (Go runtime, re-implemented
/// kernel paths), cycles.
const SENTRY_SERVICE: u64 = 1900;

/// The gVisor-style platform.
pub struct GvisorPlatform {
    pcid: u16,
    /// Syscalls intercepted by Systrap.
    pub systrap_syscalls: u64,
}

impl GvisorPlatform {
    /// Creates the platform.
    pub fn new(_m: &mut Machine) -> Self {
        Self {
            pcid: 6,
            systrap_syscalls: 0,
        }
    }
}

impl Platform for GvisorPlatform {
    fn name(&self) -> &'static str {
        "gvisor"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn new_root(&mut self, m: &mut Machine) -> Result<Phys, MapFault> {
        // The Sentry asks the host to set up address spaces: host syscalls.
        m.cpu.clock.charge(Tag::Handler, 700);
        host_new_root(m)
    }

    fn map_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        pa: Phys,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        // Sentry mmap → host syscall (~500 ns) + host PTE work.
        let c = m.cpu.clock.model().pte_write + 1200;
        m.cpu.clock.charge(Tag::Handler, c);
        host_map(m, root, va, pa, flags)
    }

    fn unmap_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
    ) -> Result<Option<u64>, MapFault> {
        let c = m.cpu.clock.model().pte_write + 1200;
        m.cpu.clock.charge(Tag::Handler, c);
        Ok(host_unmap(m, root, va, self.pcid))
    }

    fn protect_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        let c = m.cpu.clock.model().pte_write + 1200;
        m.cpu.clock.charge(Tag::Handler, c);
        host_protect(m, root, va, flags, self.pcid)
    }

    fn load_root(&mut self, m: &mut Machine, root: Phys) -> Result<(), MapFault> {
        let c = m.cpu.clock.model().cr3_switch + 500;
        m.cpu.clock.charge(Tag::Sched, c);
        m.cpu.set_cr3(root, self.pcid, false);
        Ok(())
    }

    fn syscall_entry(&mut self, m: &mut Machine) {
        // Systrap: SIGSYS-style interception, IPC to the Sentry, service.
        self.systrap_syscalls += 1;
        if m.cpu.mode == sim_hw::Mode::User {
            let _ = m.cpu.syscall_entry();
        }
        m.cpu.clock.charge(Tag::SyscallPath, SYSTRAP_IPC);
        m.cpu.clock.charge(Tag::Handler, SENTRY_SERVICE);
    }

    fn syscall_exit(&mut self, m: &mut Machine) {
        let model = m.cpu.clock.model();
        let c = model.sysret + SYSTRAP_IPC / 2;
        m.cpu.clock.charge(Tag::SyscallPath, c);
        m.cpu.mode = sim_hw::Mode::User;
        m.cpu.rflags_if = true;
    }

    fn fault_entry(&mut self, m: &mut Machine) {
        // The host kernel handles application page faults directly
        // (gVisor's design point: no shadow paging, §2.4.3) with a small
        // detour to tell the Sentry about the VMA.
        let c = m.cpu.clock.model().exception_entry + 350;
        m.cpu.clock.charge(Tag::Handler, c);
        m.cpu.mode = sim_hw::Mode::Kernel;
    }

    fn hypercall(&mut self, m: &mut Machine) {
        // Host services are reached through the Sentry's ordinary syscalls.
        m.cpu.clock.charge(Tag::Io, 600);
    }
}

/// The proc-like LibOS platform (Nabla-style).
pub struct LibOsPlatform {
    pcid: u16,
    /// Syscalls served as plain function calls.
    pub fncall_syscalls: u64,
}

impl LibOsPlatform {
    /// Creates the platform.
    pub fn new(_m: &mut Machine) -> Self {
        Self {
            pcid: 7,
            fncall_syscalls: 0,
        }
    }
}

impl Platform for LibOsPlatform {
    fn name(&self) -> &'static str {
        "libos"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    /// LibOS containers cannot fork: the "container binary compatibility"
    /// gap of Table 1.
    fn supports_fork(&self) -> bool {
        false
    }

    fn new_root(&mut self, m: &mut Machine) -> Result<Phys, MapFault> {
        host_new_root(m)
    }

    fn map_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        pa: Phys,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        let c = m.cpu.clock.model().pte_write;
        m.cpu.clock.charge(Tag::Handler, c);
        // No user/kernel isolation inside the container: everything the
        // libOS maps is user-accessible, writable-as-mapped.
        let flags = MapFlags {
            user: true,
            ..flags
        };
        host_map(m, root, va, pa, flags)
    }

    fn unmap_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
    ) -> Result<Option<u64>, MapFault> {
        let c = m.cpu.clock.model().pte_write;
        m.cpu.clock.charge(Tag::Handler, c);
        Ok(host_unmap(m, root, va, self.pcid))
    }

    fn protect_page(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        flags: MapFlags,
    ) -> Result<(), MapFault> {
        let c = m.cpu.clock.model().pte_write;
        m.cpu.clock.charge(Tag::Handler, c);
        let flags = MapFlags {
            user: true,
            ..flags
        };
        host_protect(m, root, va, flags, self.pcid)
    }

    fn load_root(&mut self, m: &mut Machine, root: Phys) -> Result<(), MapFault> {
        let c = m.cpu.clock.model().cr3_switch;
        m.cpu.clock.charge(Tag::Sched, c);
        m.cpu.set_cr3(root, self.pcid, false);
        Ok(())
    }

    fn syscall_entry(&mut self, m: &mut Machine) {
        // A function call into the libOS: no trap, no mode switch. The
        // performance upside the paper concedes — and the isolation
        // downside it rejects.
        self.fncall_syscalls += 1;
        m.cpu.clock.charge(Tag::SyscallPath, 6);
    }

    fn syscall_exit(&mut self, m: &mut Machine) {
        m.cpu.clock.charge(Tag::SyscallPath, 4);
        m.cpu.rflags_if = true;
    }

    fn user_access(
        &mut self,
        m: &mut Machine,
        root: Phys,
        va: Virt,
        write: bool,
    ) -> Result<(), Fault> {
        debug_assert_eq!(m.cpu.cr3_root(), root);
        let access = if write {
            sim_hw::Access::Write
        } else {
            sim_hw::Access::Read
        };
        // Application and libOS share one privilege context (no U/K split).
        let Machine { cpu, mem, .. } = m;
        cpu.mem_access(mem, va, access, None).map(|_| ())
    }

    fn hypercall(&mut self, m: &mut Machine) {
        // The libOS talks to the host through plain syscalls.
        m.cpu.clock.charge(Tag::Io, 260);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::{Errno, Kernel, Sys};
    use sim_hw::HwExtensions;

    fn boot_gvisor() -> (Kernel, Machine) {
        let mut m = Machine::new(1 << 30, HwExtensions::baseline());
        let p = GvisorPlatform::new(&mut m);
        let k = Kernel::boot(Box::new(p), &mut m);
        (k, m)
    }

    fn boot_libos() -> (Kernel, Machine) {
        let mut m = Machine::new(1 << 30, HwExtensions::baseline());
        let p = LibOsPlatform::new(&mut m);
        let k = Kernel::boot(Box::new(p), &mut m);
        (k, m)
    }

    #[test]
    fn gvisor_syscalls_are_slow() {
        let (mut k, mut m) = boot_gvisor();
        let mark = m.cpu.clock.mark();
        k.syscall(&mut m, Sys::Getpid).unwrap();
        let ns = m.cpu.clock.since_ns(mark);
        assert!(
            (1500.0..4000.0).contains(&ns),
            "systrap+IPC getpid = {ns} ns (µs-class, §2.4.3)"
        );
    }

    #[test]
    fn gvisor_pgfaults_are_cheap() {
        // "gVisor lets the host kernel handle the application page faults,
        // avoiding the overhead of shadow paging" (§2.4.3).
        let (mut k, mut m) = boot_gvisor();
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 256 * 4096,
                    write: true,
                },
            )
            .unwrap();
        let mark = m.cpu.clock.mark();
        k.touch_range(&mut m, base, 256 * 4096, true).unwrap();
        let per = m.cpu.clock.since_ns(mark) / 256.0;
        assert!((1000.0..2500.0).contains(&per), "gvisor pgfault = {per} ns");
    }

    #[test]
    fn libos_syscalls_are_function_calls() {
        let (mut k, mut m) = boot_libos();
        let mark = m.cpu.clock.mark();
        k.syscall(&mut m, Sys::Getpid).unwrap();
        let ns = m.cpu.clock.since_ns(mark);
        assert!(ns < 60.0, "libOS getpid = {ns} ns (fncall, beats native)");
    }

    #[test]
    fn libos_cannot_fork() {
        let (mut k, mut m) = boot_libos();
        assert_eq!(k.syscall(&mut m, Sys::Fork), Err(Errno::NoSys));
    }

    #[test]
    fn libos_has_no_user_kernel_isolation() {
        // Map a "libOS-internal" page kernel-only... except the libOS
        // cannot: everything ends up user-accessible. An application can
        // read what should be the kernel's.
        let (mut k, mut m) = boot_libos();
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 4096,
                    write: true,
                },
            )
            .unwrap();
        k.touch(&mut m, base, true).unwrap();
        let root = k.proc(1).aspace.root;
        let leaf = k.platform.read_pte(&mut m, root, base).unwrap();
        assert!(leaf & sim_mem::pte::U != 0, "everything is user-accessible");
    }
}
