//! Exit-class costs: one guest→host→guest roundtrip per design.
//!
//! This is the quantity the paper's Table 2 "hypercall" row measures:
//!
//! | design    | empty hypercall |
//! |-----------|-----------------|
//! | HVM (BM)  | 1 088 ns        |
//! | HVM (NST) | 6 746 ns        |
//! | PVM       | 466 / 486 ns    |
//! | CKI       | 390 ns (§7.1)   |
//!
//! The table lives here (rather than in `vmm`, whose platforms use it) because
//! the device model derives every backend's doorbell and interrupt pricing
//! from it, for the NIC and the block device alike — see
//! [`crate::Doorbell::for_backend`] and [`crate::IrqPath::for_backend`].
//! Every entry is a constant derived from `sim_hw::cost`, the one table of
//! calibrated primitive costs; nothing here is settable.

use sim_hw::cost::{
    CR3_SWITCH, IRQ_INJECT, NESTED_TRANSITION, PKS_CHECK, PVM_SWITCH, VM_ENTRY, VM_EXIT, WRPKRS,
};

/// One L0-mediated transition of a nested guest (L2 →(L0)→ L1 or back):
/// a VM exit and a VM entry, each with L0's mediation work.
pub const NESTED_HOP: u64 = VM_EXIT + NESTED_TRANSITION + VM_ENTRY + NESTED_TRANSITION;

/// One direction of CKI's guest↔host context switch: the register file
/// and a CR3 switch, with no PTI or IBRS (§4.2).
pub const CKI_HOST_SWITCH: u64 = CR3_SWITCH + 120;

/// Cycle costs of one host-service roundtrip for a given backend.
#[derive(Debug, Clone, Copy)]
pub struct ExitCosts {
    /// Full guest→host→guest roundtrip (empty hypercall), cycles.
    pub roundtrip: u64,
    /// Injecting one virtual interrupt into the guest, cycles.
    pub irq_inject: u64,
    /// End-of-interrupt acknowledgment (EOI) from the guest, cycles.
    /// An exit-class event under virtualization; nearly free natively.
    pub eoi: u64,
}

impl ExitCosts {
    /// Native kernel (RunC): a function call plus APIC MMIO.
    pub const NATIVE: Self = Self {
        roundtrip: 260,
        irq_inject: IRQ_INJECT,
        eoi: 40,
    };

    /// Bare-metal HVM: one VMCS world switch each way.
    pub const HVM_BM: Self = Self {
        roundtrip: VM_EXIT + 400 + VM_ENTRY,
        irq_inject: IRQ_INJECT + 500,
        eoi: VM_EXIT + VM_ENTRY,
    };

    /// Nested HVM: every L2 exit bounces through L0 to L1 and back
    /// (§2.4.1's exit-redirection overhead): L2 →(L0)→ L1, L1 handles,
    /// L1 →(L0)→ L2.
    pub const HVM_NESTED: Self = Self {
        roundtrip: 2 * NESTED_HOP + 400,
        irq_inject: IRQ_INJECT + NESTED_TRANSITION,
        eoi: 2 * NESTED_HOP,
    };

    /// CKI: a PKS-gate crossing plus a host context switch, with PTI/IBRS
    /// removed from the gate (§4.2). Identical bare-metal and nested.
    /// Gate: 2 wrpkrs+check; switcher: full context switch incl. CR3.
    pub const CKI: Self = {
        let gate = 2 * (WRPKRS + PKS_CHECK);
        let switcher = 2 * CKI_HOST_SWITCH;
        Self {
            roundtrip: gate + switcher + 140,
            irq_inject: IRQ_INJECT,
            eoi: gate + switcher,
        }
    };

    /// PVM: a software world switch (CR3 + mode switch + IBRS), no VMX.
    /// The same cost in bare-metal and nested clouds — PVM's selling point —
    /// with a small extra in nested from the L1-virtualized CR3 write.
    pub const fn pvm(nested: bool) -> Self {
        let switch = PVM_SWITCH + if nested { 24 } else { 0 };
        Self {
            roundtrip: 2 * switch,
            irq_inject: IRQ_INJECT + 300,
            eoi: 2 * switch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(cycles: u64) -> f64 {
        cycles as f64 / 2.4
    }

    #[test]
    fn hypercall_costs_match_table2() {
        assert!((1000.0..1200.0).contains(&ns(ExitCosts::HVM_BM.roundtrip)));
        assert!((6200.0..7200.0).contains(&ns(ExitCosts::HVM_NESTED.roundtrip)));
        assert!((430.0..520.0).contains(&ns(ExitCosts::pvm(false).roundtrip)));
        let pvm_nst = ns(ExitCosts::pvm(true).roundtrip);
        assert!(pvm_nst > ns(ExitCosts::pvm(false).roundtrip));
        assert!((440.0..540.0).contains(&pvm_nst));
        assert!((350.0..430.0).contains(&ns(ExitCosts::CKI.roundtrip)));
    }

    #[test]
    fn ordering_cki_fastest_nested_hvm_slowest() {
        let cki = ExitCosts::CKI.roundtrip;
        let pvm = ExitCosts::pvm(false).roundtrip;
        let bm = ExitCosts::HVM_BM.roundtrip;
        let nst = ExitCosts::HVM_NESTED.roundtrip;
        assert!(cki < pvm && pvm < bm && bm < nst);
    }
}
