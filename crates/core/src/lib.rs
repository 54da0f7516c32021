//! CKI — Container Kernel Isolation (the paper's primary contribution).
//!
//! CKI builds a *third privilege level* inside x86 kernel mode using PKS
//! plus four lightweight hardware extensions, so each secure container runs
//! its own deprivileged guest kernel without virtualization hardware:
//!
//! - [`ksm`]: the per-container Kernel Security Monitor — page-table
//!   monitoring (nested-kernel-style invariants enforced through PKS keys),
//!   per-vCPU page-table copies, interrupt-infrastructure ownership.
//! - [`gates`]: the PKS switch gates (KSM call, hypercall, interrupt), run
//!   instruction-by-instruction on the simulated CPU with the paper's
//!   anti-abuse checks.
//! - [`platform`]: the guest-OS [`guest_os::Platform`] implementation that
//!   puts it together, with the OPT2/OPT3 and side-channel ablations of
//!   §7.1.
//!
//! Table 3 (which privileged instructions the deprivileged guest kernel may
//! execute) is implemented in `sim_hw::Instr::guest_policy` and verified
//! here in the policy unit tests.

pub mod fastpath;
pub mod gates;
pub mod ksm;
pub mod platform;
pub mod sandbox;

pub use fastpath::KernelApp;
pub use gates::{hypercall_gate, interrupt_gate, ksm_call, GateAbort, GateEntry};
pub use ksm::{pkrs_guest, Ksm, KsmError, PageDesc, PageKind, KEY_KSM, KEY_PTP, MAX_VCPUS};
pub use platform::{CkiConfig, CkiPlatform, CloneReport};
pub use sandbox::{DriverOutcome, DriverSandbox};

#[cfg(test)]
mod policy_tests {
    //! Table 3 conformance: the full blocked/allowed matrix.

    use sim_hw::instr::InvpcidMode;
    use sim_hw::{GuestPolicy, Instr, IretFrame};

    #[test]
    fn table3_full_matrix() {
        use GuestPolicy::{Allowed, Blocked};
        let rows: Vec<(Instr, GuestPolicy)> = vec![
            // System registers: boot-time only, replaced with KSM calls.
            (Instr::Lidt { base: 0 }, Blocked),
            (Instr::Lgdt { base: 0 }, Blocked),
            (Instr::Ltr { selector: 0 }, Blocked),
            // MSRs: timer/IPI writes become hypercalls.
            (Instr::Rdmsr { msr: 0x10 }, Blocked),
            (
                Instr::Wrmsr {
                    msr: 0x10,
                    value: 0,
                },
                Blocked,
            ),
            // Control registers.
            (Instr::ReadCr { cr: 0 }, Allowed),
            (Instr::ReadCr { cr: 4 }, Allowed),
            (Instr::ReadCr { cr: 3 }, Blocked),
            (Instr::WriteCr0 { value: 0 }, Blocked),
            (Instr::WriteCr4 { value: 0 }, Blocked),
            (
                Instr::WriteCr3 {
                    value: 0,
                    preserve_tlb: false,
                },
                Blocked,
            ),
            (Instr::Clac, Allowed),
            (Instr::Stac, Allowed),
            // TLB state.
            (Instr::Invlpg { va: 0 }, Allowed),
            (
                Instr::Invpcid {
                    mode: InvpcidMode::AllContexts,
                },
                Blocked,
            ),
            // Syscall/exception.
            (Instr::Swapgs, Allowed),
            (Instr::Sysret { restore_if: true }, Allowed),
            (
                Instr::Iret {
                    frame: IretFrame::default(),
                },
                Blocked,
            ),
            // Other privileged instructions.
            (Instr::Hlt, Allowed),
            (Instr::Sti, Blocked),
            (Instr::Cli, Blocked),
            (Instr::Popf { if_flag: true }, Blocked),
            (Instr::InPort { port: 0x60 }, Blocked),
            (
                Instr::OutPort {
                    port: 0x60,
                    value: 0,
                },
                Blocked,
            ),
            (Instr::Smsw, Blocked),
            // PKRS register: the gates are made of it.
            (Instr::Wrpkrs { value: 0 }, Allowed),
        ];
        for (instr, expected) in rows {
            assert_eq!(instr.guest_policy(), expected, "{}", instr.mnemonic());
        }
    }
}
