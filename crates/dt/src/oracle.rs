//! The lockstep cross-backend oracle.
//!
//! One program runs on every backend *simultaneously*, op by op. After
//! each op (and each injected fault event) the oracle compares the op
//! results and a functional state snapshot across all stacks, so the
//! *first* diverging op is identified directly — no bisection needed. The
//! divergence report carries a structured architectural diff plus each
//! side's trace tail, and prints the exact seed + op index to replay.

use cki::Backend;

use crate::exec::{ExecConfig, Executor, StateSnapshot};
use crate::inject::{self, Schedule};
use crate::invariants;
use crate::program::{Op, Program};

/// The full 9-backend comparison set of `tests/backend_equivalence.rs`.
///
/// LibOS is left out by design: it cannot fork (Table 1's compatibility
/// gap), so every program with a process op would diverge on it.
pub const ALL_BACKENDS: [Backend; 9] = [
    Backend::RunC,
    Backend::HvmBm,
    Backend::HvmBm2M,
    Backend::HvmNested,
    Backend::Pvm,
    Backend::PvmNested,
    Backend::Cki,
    Backend::CkiNested,
    Backend::Gvisor,
];

/// A detected cross-backend divergence: the first op where either the op
/// results or the functional state snapshots disagree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Seed of the diverging program (0 for file-loaded programs).
    pub seed: u64,
    /// Index of the first diverging op.
    pub op_index: usize,
    /// The diverging op.
    pub op: Op,
    /// Per-backend encoded results of that op.
    pub results: Vec<(Backend, i64)>,
    /// Reference state (first backend in the set).
    pub reference: (Backend, StateSnapshot),
    /// First backend whose state/result disagrees with the reference.
    pub divergent: (Backend, StateSnapshot),
    /// Trace-event tail of the reference stack (causality view).
    pub reference_trace: String,
    /// Trace-event tail of the divergent stack.
    pub divergent_trace: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "divergence at op {} (`{}`): {} vs {}",
            self.op_index,
            self.op.to_line(),
            self.reference.0.name(),
            self.divergent.0.name()
        )?;
        writeln!(
            f,
            "replay: seed {:#x}, op index {} (dt-soak --replay-seed {:#x})",
            self.seed, self.op_index, self.seed
        )?;
        writeln!(f, "op results:")?;
        for (b, r) in &self.results {
            writeln!(f, "  {:>12}: {r}", b.name())?;
        }
        let diffs = self.reference.1.diff(&self.divergent.1);
        if diffs.is_empty() {
            writeln!(f, "state snapshots agree (op results diverged)")?;
        } else {
            writeln!(
                f,
                "state diff ({} vs {}):",
                self.reference.0.name(),
                self.divergent.0.name()
            )?;
            for d in diffs {
                writeln!(f, "  {d}")?;
            }
        }
        writeln!(
            f,
            "trace tail [{}]:\n{}",
            self.reference.0.name(),
            self.reference_trace
        )?;
        write!(
            f,
            "trace tail [{}]:\n{}",
            self.divergent.0.name(),
            self.divergent_trace
        )
    }
}

/// An invariant checker firing on one backend.
#[derive(Debug, Clone)]
pub struct InvariantViolation {
    /// Seed of the program (0 for file-loaded programs).
    pub seed: u64,
    /// Op index after which the violation was detected.
    pub op_index: usize,
    /// The backend that violated the invariant.
    pub backend: Backend,
    /// Description from the checker.
    pub what: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant violation on {} after op {}: {}\nreplay: seed {:#x} (dt-soak --replay-seed {:#x})",
            self.backend.name(),
            self.op_index,
            self.what,
            self.seed,
            self.seed
        )
    }
}

/// Everything the oracle can report.
#[derive(Debug, Clone)]
pub enum DtError {
    /// Backends disagreed.
    Divergence(Box<Divergence>),
    /// An invariant checker fired.
    Invariant(InvariantViolation),
}

impl std::fmt::Display for DtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DtError::Divergence(d) => d.fmt(f),
            DtError::Invariant(v) => v.fmt(f),
        }
    }
}

/// The lockstep oracle over a set of backends.
pub struct Oracle {
    /// Backends to run in lockstep (≥ 2 for comparisons to mean anything).
    pub backends: Vec<Backend>,
    /// Executor configuration shared by all backends.
    pub cfg: ExecConfig,
}

impl Oracle {
    /// An oracle over all 9 backends with default configuration.
    pub fn new() -> Self {
        Self::over(ALL_BACKENDS.to_vec())
    }

    /// An oracle over a chosen backend set.
    pub fn over(backends: Vec<Backend>) -> Self {
        Self {
            backends,
            cfg: ExecConfig::default(),
        }
    }

    /// Runs `program` in lockstep, with an optional injection schedule.
    pub fn run(&self, program: &Program, schedule: Option<&Schedule>) -> Result<(), DtError> {
        let mut execs: Vec<Executor> = self
            .backends
            .iter()
            .map(|&b| Executor::new(b, &self.cfg))
            .collect();
        for (i, &op) in program.ops.iter().enumerate() {
            let results: Vec<i64> = execs.iter_mut().map(|e| e.step(op)).collect();

            // Fault events scheduled after this op, applied to every stack.
            if let Some(s) = schedule {
                for inj in s.at(i) {
                    for e in execs.iter_mut() {
                        if let Err(what) = inject::apply(e, inj) {
                            return Err(self.violation(program, i, e.backend(), what));
                        }
                    }
                }
            }

            // Invariants after every op + injection round.
            for e in execs.iter_mut() {
                if !e.violations.is_empty() {
                    let what = e.violations.remove(0);
                    return Err(self.violation(program, i, e.backend(), what));
                }
                if let Err(what) = invariants::check_all(&mut e.stack) {
                    return Err(self.violation(program, i, e.backend(), what));
                }
            }

            // Lockstep comparison: op results first, then functional state.
            let divergent_idx = if op.is_comparable() {
                (1..execs.len()).find(|&j| results[j] != results[0])
            } else {
                None
            };
            let snaps: Vec<StateSnapshot> = execs.iter().map(|e| e.snapshot()).collect();
            let divergent_idx =
                divergent_idx.or_else(|| (1..execs.len()).find(|&j| snaps[j] != snaps[0]));
            if let Some(j) = divergent_idx {
                return Err(DtError::Divergence(Box::new(Divergence {
                    seed: program.seed,
                    op_index: i,
                    op,
                    results: self
                        .backends
                        .iter()
                        .zip(&results)
                        .map(|(&b, &r)| (b, r))
                        .collect(),
                    reference: (self.backends[0], snaps[0].clone()),
                    divergent: (self.backends[j], snaps[j].clone()),
                    reference_trace: execs[0].trace_tail(8),
                    divergent_trace: execs[j].trace_tail(8),
                })));
            }
        }
        Ok(())
    }

    fn violation(&self, p: &Program, op_index: usize, backend: Backend, what: String) -> DtError {
        DtError::Invariant(InvariantViolation {
            seed: p.seed,
            op_index,
            backend,
            what,
        })
    }
}

impl Default for Oracle {
    fn default() -> Self {
        Self::new()
    }
}
