//! Driver sandboxing inside ring 0 — the first future-work direction of
//! the paper's §9.
//!
//! "Sandboxing untrusted kernel drivers: directly isolating drivers within
//! ring-0, eliminating the need to deprivilege them to ring-3 as in
//! microkernel designs, thus avoiding additional performance overhead on
//! user-kernel or inter-process communication."
//!
//! The same two mechanisms that deprivilege a CKI guest kernel deprivilege
//! a driver: (1) PKS memory isolation — kernel-private pages carry
//! [`KEY_KERNEL_PRIV`], which the driver's PKRS view access-disables, while
//! the driver's own pages carry [`KEY_DRIVER`], which the *kernel's* view
//! write-disables (a buggy kernel path cannot scribble on driver state
//! either); and (2) the privileged-instruction blocking extension — the
//! driver's PKRS is non-zero, so `cli`, `wrmsr`, `out`, and friends trap.
//!
//! Crossing into the driver is a PKS gate (two `wrpkrs`, ~60 ns), not an
//! address-space switch or an IPC — the performance point of the idea.

use sim_hw::{cost, pkrs_deny_access, pkrs_deny_write, Fault, Instr, Machine, Tag};
use sim_mem::{MapFlags, PageTables, Phys, Virt};

/// Protection key of kernel-private data the driver must not read.
pub const KEY_KERNEL_PRIV: u8 = 4;

/// Protection key of the driver's own state.
pub const KEY_DRIVER: u8 = 5;

/// PKRS view while the sandboxed driver executes: no access to
/// kernel-private data (and non-zero, so destructive instructions trap).
pub fn pkrs_driver() -> u32 {
    pkrs_deny_access(KEY_KERNEL_PRIV)
}

/// PKRS view of the core kernel: driver state is read-only (corruption of
/// driver state by stray kernel writes is also caught).
pub fn pkrs_kernel() -> u32 {
    pkrs_deny_write(KEY_DRIVER)
}

/// Outcome of one driver invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverOutcome {
    /// The driver completed and returned a value.
    Ok(u64),
    /// The driver faulted and was contained (the kernel unloads it).
    Contained(Fault),
}

/// A ring-0 sandbox for one untrusted driver.
pub struct DriverSandbox {
    /// VA of the driver's state page(s), tagged [`KEY_DRIVER`].
    pub state_va: Virt,
    /// VA of a kernel-private page the driver must never read.
    pub kernel_priv_va: Virt,
}

impl DriverSandbox {
    /// Builds a sandbox in the kernel address space rooted at `root`:
    /// allocates and tags the driver-state page and a kernel-private page.
    ///
    /// # Panics
    ///
    /// Panics if the machine is out of memory.
    pub fn new(m: &mut Machine, root: Phys, state_va: Virt, kernel_priv_va: Virt) -> Self {
        let Machine { mem, frames, .. } = m;
        let state_pa = frames.alloc().expect("driver state page");
        let priv_pa = frames.alloc().expect("kernel-private page");
        PageTables::map(
            mem,
            root,
            state_va,
            state_pa,
            MapFlags::kernel_rw().with_pkey(KEY_DRIVER),
            &mut || frames.alloc(),
        )
        .expect("map driver state");
        PageTables::map(
            mem,
            root,
            kernel_priv_va,
            priv_pa,
            MapFlags::kernel_rw().with_pkey(KEY_KERNEL_PRIV),
            &mut || frames.alloc(),
        )
        .expect("map kernel-private page");
        Self {
            state_va,
            kernel_priv_va,
        }
    }

    /// Invokes the driver through the PKS gate. The driver body runs with
    /// [`pkrs_driver`]; any fault it takes is contained and reported, and
    /// the kernel view is restored either way.
    pub fn invoke(
        &self,
        m: &mut Machine,
        driver_body: impl FnOnce(&mut Machine) -> Result<u64, Fault>,
    ) -> DriverOutcome {
        // Entry switch: wrpkrs to the driver view + check (Figure 8a's
        // switch_pks, reused verbatim for driver gates).
        m.cpu
            .exec(
                &mut m.mem,
                Instr::Wrpkrs {
                    value: pkrs_driver(),
                },
            )
            .expect("gate entry");
        m.cpu.clock.charge(Tag::Other, cost::PKS_CHECK);

        let result = driver_body(m);

        // Exit switch back to the kernel view.
        m.cpu
            .exec(
                &mut m.mem,
                Instr::Wrpkrs {
                    value: pkrs_kernel(),
                },
            )
            .expect("gate exit");
        m.cpu.clock.charge(Tag::Other, cost::PKS_CHECK);

        match result {
            Ok(v) => DriverOutcome::Ok(v),
            Err(f) => DriverOutcome::Contained(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_hw::{Access, HwExtensions, Mode};

    const STATE_VA: Virt = 0x6000_0000;
    const PRIV_VA: Virt = 0x6100_0000;

    fn setup() -> (Machine, DriverSandbox, Phys) {
        let mut m = Machine::new(256 << 20, HwExtensions::cki());
        let Machine { mem, frames, .. } = &mut m;
        let root = PageTables::new_root(mem, &mut || frames.alloc()).unwrap();
        let sb = DriverSandbox::new(&mut m, root, STATE_VA, PRIV_VA);
        m.cpu.set_cr3(root, 1, false);
        m.cpu.mode = Mode::Kernel;
        m.cpu.pkrs = pkrs_kernel();
        (m, sb, root)
    }

    #[test]
    fn wellbehaved_driver_runs_fast() {
        let (mut m, sb, _root) = setup();
        let mark = m.cpu.clock.mark();
        let out = sb.invoke(&mut m, |m| {
            // Touch its own state: fine.
            m.cpu
                .mem_access(&mut m.mem, STATE_VA, Access::Write, None)?;
            Ok(42)
        });
        assert_eq!(out, DriverOutcome::Ok(42));
        // The crossing is two wrpkrs plus the driver's work — a fraction of
        // the ~1-2 µs a ring-3 microkernel driver IPC would cost.
        assert!(m.cpu.clock.since_ns(mark) < 300.0);
        assert_eq!(m.cpu.pkrs, pkrs_kernel(), "kernel view restored");
    }

    #[test]
    fn driver_cannot_read_kernel_private_data() {
        let (mut m, sb, _root) = setup();
        let out = sb.invoke(&mut m, |m| {
            m.cpu.mem_access(&mut m.mem, PRIV_VA, Access::Read, None)?;
            Ok(0)
        });
        assert!(
            matches!(
                out,
                DriverOutcome::Contained(Fault::PkViolation {
                    key: KEY_KERNEL_PRIV,
                    ..
                })
            ),
            "{out:?}"
        );
    }

    #[test]
    fn driver_cannot_execute_destructive_instructions() {
        let (mut m, sb, _root) = setup();
        for (instr, name) in [
            (Instr::Cli, "cli"),
            (
                Instr::Wrmsr {
                    msr: 0x10,
                    value: 0,
                },
                "wrmsr",
            ),
            (
                Instr::OutPort {
                    port: 0x64,
                    value: 0xfe,
                },
                "out",
            ),
        ] {
            let out = sb.invoke(&mut m, |m| {
                m.cpu.exec(&mut m.mem, instr)?;
                Ok(0)
            });
            assert!(
                matches!(
                    out,
                    DriverOutcome::Contained(Fault::BlockedPrivileged { .. })
                ),
                "{name}: {out:?}"
            );
        }
    }

    #[test]
    fn kernel_cannot_scribble_on_driver_state() {
        let (mut m, _sb, _root) = setup();
        // Kernel view: driver state is read-only.
        m.cpu
            .mem_access(&mut m.mem, STATE_VA, Access::Read, None)
            .expect("read ok");
        let err = m
            .cpu
            .mem_access(&mut m.mem, STATE_VA, Access::Write, None)
            .unwrap_err();
        assert!(matches!(
            err,
            Fault::PkViolation {
                key: KEY_DRIVER,
                write: true,
                ..
            }
        ));
    }
}
