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

use sim_hw::CostModel;

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
    pub fn native(m: &CostModel) -> Self {
        Self {
            roundtrip: 260,
            irq_inject: m.irq_inject,
            eoi: 40,
        }
    }

    /// Bare-metal HVM: one VMCS world switch each way.
    pub fn hvm_bm(m: &CostModel) -> Self {
        let roundtrip = m.vm_exit + 400 + m.vm_entry;
        Self {
            roundtrip,
            irq_inject: m.irq_inject + 500,
            eoi: m.vm_exit + m.vm_entry,
        }
    }

    /// Nested HVM: every L2 exit bounces through L0 to L1 and back
    /// (§2.4.1's exit-redirection overhead).
    pub fn hvm_nested(m: &CostModel) -> Self {
        let transition = m.vm_exit + m.nested_transition + m.vm_entry + m.nested_transition;
        // L2 →(L0)→ L1, L1 handles, L1 →(L0)→ L2.
        let roundtrip = 2 * transition + 400;
        Self {
            roundtrip,
            irq_inject: m.irq_inject + m.nested_transition,
            eoi: roundtrip - 400,
        }
    }

    /// PVM: a software world switch (CR3 + mode switch + IBRS), no VMX.
    /// The same cost in bare-metal and nested clouds — PVM's selling point —
    /// with a small extra in nested from the L1-virtualized CR3 write.
    pub fn pvm(m: &CostModel, nested: bool) -> Self {
        let switch = m.pvm_switch + if nested { 24 } else { 0 };
        Self {
            roundtrip: 2 * switch,
            irq_inject: m.irq_inject + 300,
            eoi: 2 * switch,
        }
    }

    /// CKI: a PKS-gate crossing plus a host context switch, with PTI/IBRS
    /// removed from the gate (§4.2). Identical bare-metal and nested.
    pub fn cki(m: &CostModel) -> Self {
        // Gate: 2 wrpkrs+check; switcher: full context switch incl. CR3.
        let gate = 2 * (m.wrpkrs + m.pks_check);
        let switcher = 2 * (m.cr3_switch + 120);
        Self {
            roundtrip: gate + switcher + 140,
            irq_inject: m.irq_inject,
            eoi: gate + switcher,
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
        let m = CostModel::default();
        assert!((1000.0..1200.0).contains(&ns(ExitCosts::hvm_bm(&m).roundtrip)));
        assert!((6200.0..7200.0).contains(&ns(ExitCosts::hvm_nested(&m).roundtrip)));
        assert!((430.0..520.0).contains(&ns(ExitCosts::pvm(&m, false).roundtrip)));
        let pvm_nst = ns(ExitCosts::pvm(&m, true).roundtrip);
        assert!(pvm_nst > ns(ExitCosts::pvm(&m, false).roundtrip));
        assert!((440.0..540.0).contains(&pvm_nst));
        assert!((350.0..430.0).contains(&ns(ExitCosts::cki(&m).roundtrip)));
    }

    #[test]
    fn ordering_cki_fastest_nested_hvm_slowest() {
        let m = CostModel::default();
        let cki = ExitCosts::cki(&m).roundtrip;
        let pvm = ExitCosts::pvm(&m, false).roundtrip;
        let bm = ExitCosts::hvm_bm(&m).roundtrip;
        let nst = ExitCosts::hvm_nested(&m).roundtrip;
        assert!(cki < pvm && pvm < bm && bm < nst);
    }
}
