//! Architectural event tracing.
//!
//! A bounded ring of security-relevant architectural events (blocked
//! privileged instructions, protection-key violations, PKRS switches,
//! interrupt deliveries, CR3 loads) with timestamps from the simulated
//! clock. Disabled by default — enabling it is how an operator audits what
//! a suspicious container kernel has been attempting, and how the examples
//! narrate an attack.

use std::collections::VecDeque;

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

impl TraceKind {
    /// All kinds, in counter-index order.
    pub const ALL: [TraceKind; 6] = [
        TraceKind::InstrBlocked,
        TraceKind::PkViolation,
        TraceKind::PageFault,
        TraceKind::PkrsSwitch,
        TraceKind::InterruptDelivered,
        TraceKind::Cr3Load,
    ];

    fn index(self) -> usize {
        match self {
            TraceKind::InstrBlocked => 0,
            TraceKind::PkViolation => 1,
            TraceKind::PageFault => 2,
            TraceKind::PkrsSwitch => 3,
            TraceKind::InterruptDelivered => 4,
            TraceKind::Cr3Load => 5,
        }
    }

    /// Kind label.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::InstrBlocked => "instr-blocked",
            TraceKind::PkViolation => "pk-violation",
            TraceKind::PageFault => "page-fault",
            TraceKind::PkrsSwitch => "pkrs-switch",
            TraceKind::InterruptDelivered => "interrupt",
            TraceKind::Cr3Load => "cr3-load",
        }
    }
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

/// The bounded event ring.
#[derive(Debug)]
pub struct Tracer {
    ring: VecDeque<(u64, TraceEvent)>,
    capacity: usize,
    enabled: bool,
    counts: [u64; 6],
    dropped: u64,
}

impl Tracer {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a disabled tracer.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            enabled: false,
            counts: [0; 6],
            dropped: 0,
        }
    }

    /// Enables recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Records `event` at `cycles` (no-op when disabled).
    #[inline]
    pub fn record(&mut self, cycles: u64, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.counts[event.kind().index()] += 1;
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((cycles, event));
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, TraceEvent)> {
        self.ring.iter()
    }

    /// Total events of `kind` recorded since enabling (survives ring
    /// wraparound).
    pub fn count_of(&self, kind: TraceKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Events dropped to ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the last `n` events as text (for reports and examples).
    pub fn render_tail(&self, n: usize, freq_ghz: f64) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let skip = self.ring.len().saturating_sub(n);
        if self.dropped > 0 {
            let _ = writeln!(
                s,
                "[... {} earlier event(s) dropped from the ring ...]",
                self.dropped
            );
        }
        for (cycles, ev) in self.ring.iter().skip(skip) {
            let us = *cycles as f64 / freq_ghz / 1000.0;
            let _ = writeln!(s, "[{us:10.3} µs] {:?}", ev);
        }
        s
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::default();
        t.record(
            1,
            TraceEvent::PageFault {
                va: 0x1000,
                code: 2,
            },
        );
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn bounded_ring_with_counts() {
        let mut t = Tracer::new(4);
        t.enable();
        for i in 0..10u64 {
            t.record(
                i,
                TraceEvent::Cr3Load {
                    root: i << 12,
                    pcid: 1,
                },
            );
        }
        assert_eq!(t.events().count(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.count_of(TraceKind::Cr3Load), 10);
        // Oldest were dropped, and the tail says so.
        assert_eq!(t.events().next().unwrap().0, 6);
        assert!(t.render_tail(4, 2.4).contains("6 earlier event(s) dropped"));
    }

    #[test]
    fn render_tail_formats() {
        let mut t = Tracer::default();
        t.enable();
        t.record(
            2400,
            TraceEvent::InstrBlocked {
                mnemonic: "wrmsr",
                pkrs: 4,
            },
        );
        let out = t.render_tail(10, 2.4);
        assert!(out.contains("wrmsr"));
        assert!(out.contains("1.000 µs"));
    }
}
