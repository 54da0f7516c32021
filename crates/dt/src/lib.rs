//! # dt — differential testing for CKI
//!
//! The paper's binary-compatibility claim (Table 1) is that one container
//! program behaves identically on RunC, HVM, PVM and CKI — only the costs
//! differ. This crate turns that claim into tooling:
//!
//! - [`program`]: a shared workload-program IR ([`Program`]/[`Op`]) with a
//!   seeded generator and a text format for on-disk reproducers.
//! - [`exec`]: a per-backend [`Executor`] interpreting the IR on a booted
//!   stack.
//! - [`oracle`]: the lockstep [`Oracle`] — one program across all 9
//!   backends (those four, their nested and 2 MiB-EPT variants, and
//!   gVisor) simultaneously, comparing op results and functional state
//!   after every op, reporting the first divergence with a structured
//!   architectural diff.
//! - [`shrink`]: ddmin reduction of a failing program to a minimal
//!   reproducer (persisted under `tests/corpus/`).
//! - [`inject`]: seeded fault-injection schedules (TLB shootdowns, timer
//!   ticks, mid-gate interrupts, forced fault paths) applied in lockstep.
//! - [`invariants`]: PKRS state-machine legality, TLB/page-table
//!   coherence, and the obs self-time invariant, checked after every op
//!   and injected event.
//!
//! The `dt-soak` binary drives seed ranges for CI smoke runs and
//! overnight soaks; see README "Differential-testing soaks".
//!
//! ```
//! use dt::{Oracle, Program};
//!
//! let program = Program::generate(0x5EED, 12);
//! let oracle = Oracle::new(); // all 9 backends in lockstep
//! oracle.run(&program, None).expect("no divergence");
//! ```

pub mod exec;
pub mod inject;
pub mod invariants;
pub mod oracle;
pub mod program;
pub mod shrink;

pub use exec::{snapshot_kernel, ExecConfig, Executor, PlantedBug, StateSnapshot};
pub use inject::{mid_gate_irq_machine, Inject, Schedule};
pub use oracle::{Divergence, DtError, InvariantViolation, Oracle, ALL_BACKENDS};
pub use program::{Op, Program};
pub use shrink::{shrink, Shrunk};
