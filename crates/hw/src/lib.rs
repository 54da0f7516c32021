//! Simulated x86-64-like CPU with the CKI hardware extensions.
//!
//! The CKI paper (EuroSys '25) proposes four lightweight hardware extensions
//! to Memory Protection Keys for Supervisor pages (PKS) that, together,
//! create a third privilege level inside kernel mode:
//!
//! 1. A `wrpkrs` instruction for modifying PKRS without `wrmsr` (§4.1).
//! 2. Blocking of *destructive* privileged instructions while `PKRS != 0`
//!    (§4.1, Table 3).
//! 3. Automatic PKRS save-and-clear on hardware-interrupt delivery through
//!    the IDT — software interrupts leave PKRS untouched (§4.4).
//! 4. `iret` restores PKRS from the interrupt frame, and `sysret` forces
//!    `RFLAGS.IF = 1` while `PKRS != 0` (§4.1/§4.2).
//!
//! None of these extensions exist in shipping silicon, so this crate plays
//! the role the gem5 model played in the paper's own evaluation: a CPU
//! model precise about *architectural events* (mode switches, page walks,
//! TLB behaviour, faults) with cycle costs calibrated to the paper's
//! measured primitives. Those costs are constants in [`cost`], the one
//! calibration table (DESIGN.md §4).
//!
//! The extensions are individually toggleable via [`HwExtensions`], which is
//! how the benchmark harness runs baseline hardware (all off) next to CKI
//! hardware (all on).

pub mod cost;
pub mod cpu;
pub mod ext;
pub mod fault;
pub mod idt;
pub mod instr;
pub mod machine;
pub mod pcid;
pub mod pkey;
pub mod tlb;
pub mod trace;

pub use cost::{Clock, CostModel, Tag};
pub use cpu::{Access, Cpu, Mode};
pub use ext::HwExtensions;
pub use fault::Fault;
pub use idt::{IdtEntry, IretFrame};
pub use instr::{GuestPolicy, Instr};
pub use machine::Machine;
pub use pcid::PcidAllocator;
pub use pkey::{pkrs_deny_access, pkrs_deny_write, PKEY_COUNT};
pub use tlb::Tlb;
pub use trace::{TraceEvent, TraceKind};

// Observability substrate (spans + metrics) lives in the leaf `obs` crate;
// re-export it so every layer that depends on sim-hw shares one instance.
pub use obs;
pub use obs::{MetricsRegistry, MetricsSnapshot, SpanId, SpanProfiler};
