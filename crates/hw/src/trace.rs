//! Architectural event tracing.
//!
//! The CPU's tracer ([`crate::Cpu::tracer`]) is an [`obs::Ring`] of
//! security-relevant architectural events (blocked privileged
//! instructions, protection-key violations, PKRS switches, interrupt
//! deliveries, CR3 loads), each stamped with the simulated cycle count.
//! It starts disabled and holds no slots; enabling it is how an operator
//! audits what a suspicious container kernel has been attempting, and how
//! the examples narrate an attack. This module holds the event type and
//! the two readers of the ring: [`count_of`] and [`render_tail`].

use obs::Ring;
use sim_mem::{Phys, Virt};

/// One traced architectural event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The CKI blocking extension stopped a destructive privileged
    /// instruction (§4.1).
    InstrBlocked {
        /// Instruction mnemonic.
        mnemonic: &'static str,
        /// PKRS at the time (identifies the domain that tried).
        pkrs: u32,
    },
    /// A protection-key violation (#PF with the PK bit).
    PkViolation {
        /// Faulting address.
        va: Virt,
        /// Key on the page.
        key: u8,
        /// Whether it was a write.
        write: bool,
    },
    /// An ordinary page fault.
    PageFault {
        /// Faulting address.
        va: Virt,
        /// Error code.
        code: u64,
    },
    /// PKRS changed value (gate crossings).
    PkrsSwitch {
        /// Old value.
        from: u32,
        /// New value.
        to: u32,
    },
    /// An interrupt was delivered through the IDT.
    InterruptDelivered {
        /// Vector.
        vector: u8,
        /// Hardware (vs `int n`).
        hw: bool,
    },
    /// CR3 was loaded.
    Cr3Load {
        /// New root.
        root: Phys,
        /// New PCID.
        pcid: u16,
    },
}

/// Coarse classification of a [`TraceEvent`], usable as a counting key
/// without fabricating a sample event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Blocked privileged instruction.
    InstrBlocked,
    /// Protection-key violation.
    PkViolation,
    /// Ordinary page fault.
    PageFault,
    /// PKRS value change.
    PkrsSwitch,
    /// Interrupt delivery.
    InterruptDelivered,
    /// CR3 load.
    Cr3Load,
}

impl TraceEvent {
    /// The coarse kind of this event.
    pub fn kind(&self) -> TraceKind {
        match self {
            TraceEvent::InstrBlocked { .. } => TraceKind::InstrBlocked,
            TraceEvent::PkViolation { .. } => TraceKind::PkViolation,
            TraceEvent::PageFault { .. } => TraceKind::PageFault,
            TraceEvent::PkrsSwitch { .. } => TraceKind::PkrsSwitch,
            TraceEvent::InterruptDelivered { .. } => TraceKind::InterruptDelivered,
            TraceEvent::Cr3Load { .. } => TraceKind::Cr3Load,
        }
    }
}

/// Slots of an enabled tracer ring ([`crate::Cpu::enable_tracer`]).
pub const TRACE_CAPACITY: usize = 4096;

/// Events of `kind` in the ring. Counts only what the ring still holds:
/// callers that read a count check `ring.overwritten() == 0` first.
pub fn count_of(ring: &Ring<(u64, TraceEvent)>, kind: TraceKind) -> u64 {
    ring.events().filter(|(_, e)| e.kind() == kind).count() as u64
}

/// Renders the last `n` events of `ring` as text (for reports and
/// examples), after a line naming the events the ring overwrote.
pub fn render_tail(ring: &Ring<(u64, TraceEvent)>, n: usize) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let skip = ring.len().saturating_sub(n);
    if ring.overwritten() > 0 {
        let _ = writeln!(
            s,
            "[... {} earlier event(s) dropped from the ring ...]",
            ring.overwritten()
        );
    }
    for (cycles, ev) in ring.events().skip(skip) {
        let us = crate::cost::cycles_to_ns(*cycles) / 1000.0;
        let _ = writeln!(s, "[{us:10.3} µs] {:?}", ev);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Ring::disabled();
        t.record((
            1,
            TraceEvent::PageFault {
                va: 0x1000,
                code: 2,
            },
        ));
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn bounded_ring_with_counts() {
        let mut t = Ring::new(4);
        for i in 0..10u64 {
            t.record((
                i,
                TraceEvent::Cr3Load {
                    root: i << 12,
                    pcid: 1,
                },
            ));
        }
        assert_eq!(t.events().count(), 4);
        assert_eq!(t.overwritten(), 6);
        assert_eq!(count_of(&t, TraceKind::Cr3Load), 4, "what the ring holds");
        assert_eq!(count_of(&t, TraceKind::PageFault), 0);
        // Oldest were dropped, and the tail says so.
        assert_eq!(t.events().next().unwrap().0, 6);
        assert!(render_tail(&t, 4).contains("6 earlier event(s) dropped"));
    }

    #[test]
    fn render_tail_formats() {
        let mut t = Ring::new(TRACE_CAPACITY);
        t.record((
            2400,
            TraceEvent::InstrBlocked {
                mnemonic: "wrmsr",
                pkrs: 4,
            },
        ));
        let out = render_tail(&t, 10);
        assert!(out.contains("wrmsr"));
        assert!(out.contains("1.000 µs"));
    }
}
