//! Kernel-level syscall optimization — the second future-work direction of
//! the paper's §9.
//!
//! "Running syscall-intensive applications within the kernel to achieve
//! better performance by eliminating the traditional syscall overhead."
//!
//! The application is linked into kernel mode but deprivileged exactly like
//! a CKI guest kernel: its pages carry [`KEY_KAPP`], its PKRS view denies
//! the kernel-private domain, and — because its PKRS is non-zero — the
//! privileged-instruction extension keeps it from doing anything a ring-3
//! process could not. A "syscall" is then a direct call into the kernel
//! through a PKS switch instead of a `syscall`/`sysret` mode transition:
//! ~30 ns of `wrpkrs` instead of ~90 ns of trap machinery, and no TLB/BTB
//! flushing side effects.

use sim_hw::{pkrs_deny_access, Instr, Machine, Tag};

/// Protection key of in-kernel application pages.
pub const KEY_KAPP: u8 = 6;

/// Protection key of the kernel data the in-kernel app must not touch
/// (shared with [`crate::sandbox::KEY_KERNEL_PRIV`] semantics).
pub const KEY_KPRIV: u8 = 4;

/// PKRS view of the in-kernel application.
pub fn pkrs_kapp() -> u32 {
    pkrs_deny_access(KEY_KPRIV)
}

/// A syscall-intensive application hosted inside kernel mode.
pub struct KernelApp {
    /// App name.
    pub name: &'static str,
}

impl KernelApp {
    /// Creates an in-kernel application context.
    pub fn new(name: &'static str) -> Self {
        Self { name }
    }

    /// A fast syscall: PKS switch into the kernel view, run the handler,
    /// switch back. No mode transition, no `swapgs`, no `sysret`.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks the `wrpkrs` extension (the feature *is*
    /// the co-design).
    pub fn fast_syscall<R>(&self, m: &mut Machine, handler: impl FnOnce(&mut Machine) -> R) -> R {
        let pks_check = m.cpu.clock.model().pks_check;
        m.cpu
            .exec(&mut m.mem, Instr::Wrpkrs { value: 0 })
            .expect("fast-syscall entry switch");
        m.cpu.clock.charge(Tag::SyscallPath, pks_check);

        let r = handler(m);

        m.cpu
            .exec(&mut m.mem, Instr::Wrpkrs { value: pkrs_kapp() })
            .expect("fast-syscall exit switch");
        m.cpu.clock.charge(Tag::SyscallPath, pks_check);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::costs;
    use sim_hw::{HwExtensions, Mode};

    #[test]
    fn fast_syscall_beats_the_trap_path() {
        let mut m = Machine::new(64 << 20, HwExtensions::cki());
        m.cpu.mode = Mode::Kernel;
        m.cpu.pkrs = pkrs_kapp();
        let app = KernelApp::new("kv-in-kernel");

        // Fast path: getpid-equivalent through the PKS switch.
        let mark = m.cpu.clock.mark();
        app.fast_syscall(&mut m, |m| {
            m.cpu.clock.charge(Tag::Handler, costs::DISPATCH);
        });
        let fast_ns = m.cpu.clock.since_ns(mark);

        // Trap path: what ring-3 getpid costs (entry + swapgs×2 + dispatch
        // + sysret ≈ 90 ns) — and what it costs once the kernel enables the
        // side-channel mitigations an untrusted ring-3 app forces on it
        // (PTI CR3 toggles + IBRS). The PKS boundary needs neither, for the
        // same reason the KSM gate does not (§3.3): only container-private
        // data is visible across it.
        let model = m.cpu.clock.model();
        let trap_ns = model
            .cycles_to_ns(model.syscall_entry + 2 * model.swapgs + costs::DISPATCH + model.sysret);
        let trap_mitigated_ns = trap_ns + model.cycles_to_ns(model.pti + model.ibrs);

        // Raw crossing cost is comparable to an unmitigated trap...
        assert!(
            fast_ns < 1.3 * trap_ns,
            "fast {fast_ns:.0} vs trap {trap_ns:.0}"
        );
        // ...and several times cheaper than the mitigated trap real
        // deployments pay.
        assert!(
            fast_ns < 0.4 * trap_mitigated_ns,
            "fast {fast_ns:.0} ns should beat mitigated trap {trap_mitigated_ns:.0} ns"
        );
    }

    #[test]
    fn in_kernel_app_is_still_deprivileged() {
        let mut m = Machine::new(64 << 20, HwExtensions::cki());
        m.cpu.mode = Mode::Kernel;
        m.cpu.pkrs = pkrs_kapp();
        // The app runs in ring 0 but cannot execute destructive
        // instructions — same Table 3 policy as a guest kernel.
        let r = m.cpu.exec(&mut m.mem, Instr::Cli);
        assert!(matches!(r, Err(sim_hw::Fault::BlockedPrivileged { .. })));
        let r = m.cpu.exec(
            &mut m.mem,
            Instr::Wrmsr {
                msr: 0x10,
                value: 1,
            },
        );
        assert!(matches!(r, Err(sim_hw::Fault::BlockedPrivileged { .. })));
    }

    #[test]
    fn crossing_restores_the_app_view() {
        let mut m = Machine::new(64 << 20, HwExtensions::cki());
        m.cpu.mode = Mode::Kernel;
        m.cpu.pkrs = pkrs_kapp();
        let app = KernelApp::new("t");
        let out = app.fast_syscall(&mut m, |m| {
            assert_eq!(m.cpu.pkrs, 0, "kernel view inside the handler");
            1234u64
        });
        assert_eq!(out, 1234);
        assert_eq!(m.cpu.pkrs, pkrs_kapp());
    }
}
