//! Scheduled fault injection on top of `sim-hw`'s fault model.
//!
//! A [`Schedule`] derived from the program seed fires [`Inject`] events at
//! op boundaries. Every event is applied to *all* backends in lockstep, so
//! any functional state it perturbs is perturbed identically — lockstep
//! equivalence must survive arbitrary schedules. After each event the
//! oracle re-runs the invariant checkers, which is where a missing
//! shootdown, a PKRS leak or an unbalanced span would surface.

use cki::Stack;
use cki_core::CkiPlatform;
use guest_os::Errno;
use obs::rng::SmallRng;
use sim_hw::{Fault, Instr};

use crate::exec::Executor;

/// One injected event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// `invlpg`-style shootdown of one page of a region slot.
    FlushVa {
        /// Region slot.
        region: u8,
        /// Page index within the region.
        page: u8,
    },
    /// Full flush of the current PCID (forced CR3-switch semantics).
    FlushPcid,
    /// `invpcid` all-contexts: drop everything including globals.
    FlushAll,
    /// Forced eviction then immediate re-walk of a mapped page: exercises
    /// the PTE re-read path under the fresh-TLB worst case.
    Refill {
        /// Region slot.
        region: u8,
        /// Page index within the region.
        page: u8,
    },
    /// Deliver a timer tick through the backend's interrupt path.
    TimerTick,
    /// Drive the full fault path with a guaranteed-invalid access (null
    /// page) — must come back as a clean `EFAULT`, never a crash.
    FaultPath,
    /// CKI only: a hardware interrupt lands while the container runs, goes
    /// through the KSM's IDT (PKRS auto-save/clear), and returns via
    /// `iret` (PKRS restore). On non-CKI backends this degrades to
    /// [`Inject::TimerTick`] so schedules stay uniform.
    MidGateIrq,
}

/// A seeded injection schedule: which events fire after which op index.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Events as (op index, event), sorted by index.
    pub events: Vec<(usize, Inject)>,
}

impl Schedule {
    /// Derives the schedule for a program of `prog_len` ops from `seed`.
    /// Roughly a third of op boundaries get one event.
    pub fn generate(seed: u64, prog_len: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1A11_FA17);
        let mut events = Vec::new();
        for i in 0..prog_len {
            if !rng.gen_bool(0.35) {
                continue;
            }
            let inj = match rng.gen_range(0u32..8) {
                0 => Inject::FlushVa {
                    region: rng.gen_range(0u8..4),
                    page: rng.gen_range(0u8..16),
                },
                1 => Inject::FlushPcid,
                2 => Inject::FlushAll,
                3 => Inject::Refill {
                    region: rng.gen_range(0u8..4),
                    page: rng.gen_range(0u8..16),
                },
                4 => Inject::TimerTick,
                5 => Inject::FaultPath,
                _ => Inject::MidGateIrq,
            };
            events.push((i, inj));
        }
        Self { events }
    }

    /// Events scheduled after op `i`.
    pub fn at(&self, i: usize) -> impl Iterator<Item = Inject> + '_ {
        self.events
            .iter()
            .filter(move |(idx, _)| *idx == i)
            .map(|&(_, inj)| inj)
    }
}

/// Applies one injected event to one executor. `Err` is an invariant
/// violation *during* the event itself (e.g. a triple fault on a path that
/// must stay recoverable).
pub fn apply(exec: &mut Executor, inj: Inject) -> Result<(), String> {
    match inj {
        Inject::FlushVa { region, page } => {
            if let Some(va) = exec.region_page(region, page) {
                let pcid = exec.stack.machine.cpu.pcid();
                exec.stack.machine.cpu.tlb.flush_va(va, pcid);
            }
            Ok(())
        }
        Inject::FlushPcid => {
            let pcid = exec.stack.machine.cpu.pcid();
            exec.stack.machine.cpu.tlb.flush_pcid(pcid);
            Ok(())
        }
        Inject::FlushAll => {
            exec.stack.machine.cpu.tlb.flush_all();
            Ok(())
        }
        Inject::Refill { region, page } => {
            if let Some(va) = exec.region_page(region, page) {
                let pcid = exec.stack.machine.cpu.pcid();
                exec.stack.machine.cpu.tlb.flush_va(va, pcid);
                // Read re-walk; demand-maps if never touched, which is fine
                // because the same happens on every backend in lockstep.
                let _ = exec.stack.env().touch(va, false);
            }
            Ok(())
        }
        Inject::TimerTick => {
            let Stack {
                machine, kernel, ..
            } = &mut exec.stack;
            kernel.platform.timer_tick(machine);
            Ok(())
        }
        Inject::FaultPath => {
            // The null page is never mapped; the full fault path must
            // produce a clean EFAULT on every backend.
            match exec.stack.env().touch(0x10, false) {
                Err(Errno::Fault) => Ok(()),
                other => Err(format!(
                    "fault-path injection: expected EFAULT, got {other:?} on {}",
                    exec.stack.backend.name()
                )),
            }
        }
        Inject::MidGateIrq => mid_gate_irq(exec),
    }
}

/// A hardware interrupt through the CKI KSM gate, mid-container:
/// delivery must auto-clear PKRS (extension 3), the handler must be the
/// KSM's gate token, and `iret` must restore the guest PKRS (extension 4).
fn mid_gate_irq(exec: &mut Executor) -> Result<(), String> {
    let backend = exec.stack.backend;
    if exec
        .stack
        .kernel
        .platform
        .as_any()
        .downcast_ref::<CkiPlatform>()
        .is_none()
    {
        return apply(exec, Inject::TimerTick);
    }
    mid_gate_irq_machine(&mut exec.stack.machine, exec.stack.kernel.platform.as_ref())
        .map_err(|e| format!("{e} on {}", backend.name()))
}

/// The machine-level body of [`Inject::MidGateIrq`], decoupled from the
/// differential-testing [`Executor`] so any harness holding a machine and
/// a CKI platform — including the cloud control plane, mid-invoke via
/// `CloudHost::enter` — can land the same interrupt and invariant checks.
///
/// Returns `Err` if the platform is not CKI or any gate invariant fails.
pub fn mid_gate_irq_machine(
    m: &mut sim_hw::Machine,
    platform: &dyn guest_os::Platform,
) -> Result<(), String> {
    let Some((idt_pa, tss_pa)) = platform
        .as_any()
        .downcast_ref::<CkiPlatform>()
        .map(|p| (p.ksm.idt_pa, p.ksm.tss_pa))
    else {
        return Err("mid-gate IRQ: not a CKI platform".to_string());
    };
    let (idtr, tss) = (m.cpu.idtr, m.cpu.tss_base);
    m.cpu.idtr = idt_pa;
    m.cpu.tss_base = tss_pa;
    let pkrs_before = m.cpu.pkrs;
    let r = (|| {
        let d = m
            .cpu
            .deliver_interrupt(&mut m.mem, cki_core::ksm::VEC_VIRTIO, true)
            .map_err(|f: Fault| format!("mid-gate IRQ: delivery died with {f:?}"))?;
        if d.handler != cki_core::ksm::INTR_GATE_TOKEN {
            return Err(format!("mid-gate IRQ: wrong handler {:#x}", d.handler));
        }
        if m.cpu.pkrs != 0 {
            return Err(format!(
                "mid-gate IRQ: PKRS {:#x} not cleared by hardware delivery",
                m.cpu.pkrs
            ));
        }
        m.cpu
            .exec(&mut m.mem, Instr::Iret { frame: d.frame })
            .map_err(|f| format!("mid-gate IRQ: iret died with {f:?}"))?;
        if m.cpu.pkrs != pkrs_before {
            return Err(format!(
                "mid-gate IRQ: iret restored PKRS {:#x}, want {pkrs_before:#x}",
                m.cpu.pkrs
            ));
        }
        Ok(())
    })();
    m.cpu.idtr = idtr;
    m.cpu.tss_base = tss;
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_cover_kinds() {
        let a = Schedule::generate(7, 200);
        let b = Schedule::generate(7, 200);
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty());
        #[allow(
            clippy::disallowed_types,
            reason = "`Discriminant` has no order, and the set is only counted"
        )]
        let kinds: std::collections::HashSet<_> = a
            .events
            .iter()
            .map(|(_, i)| std::mem::discriminant(i))
            .collect();
        assert!(kinds.len() >= 5, "schedule exercises most event kinds");
    }

    #[test]
    fn at_returns_events_in_order() {
        let s = Schedule {
            events: vec![(0, Inject::FlushAll), (0, Inject::TimerTick)],
        };
        let at0: Vec<_> = s.at(0).collect();
        assert_eq!(at0, vec![Inject::FlushAll, Inject::TimerTick]);
        assert_eq!(s.at(1).count(), 0);
    }
}
