//! The cycle-attributed span profiler.
//!
//! Spans are scopes over the *simulated* clock: the caller stamps `enter`
//! and `exit` with cycle counts and the profiler keeps (a) a bounded buffer
//! of completed span events for structured export, and (b) per-name
//! aggregates with exact **self-time** accounting. Because a child's total
//! is subtracted from its parent's self-time at exit, the self-times of all
//! spans under a root sum to exactly the root's total — the property the
//! `perf_report` breakdowns rely on.

use std::collections::BTreeMap;

/// Handle returned by [`SpanProfiler::enter`]; pass it back to
/// [`SpanProfiler::exit`]. The sentinel [`SpanId::NONE`] (returned while the
/// profiler is disabled) makes `exit` a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    depth: u32,
    seq: u64,
}

impl SpanId {
    /// The no-op handle handed out while profiling is disabled.
    pub const NONE: SpanId = SpanId {
        depth: u32::MAX,
        seq: u64::MAX,
    };
}

/// A completed span, as kept in the (bounded) event buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static taxonomy, e.g. `"os.pgfault"`).
    pub name: &'static str,
    /// Cycle count at entry.
    pub start: u64,
    /// Cycle count at exit.
    pub end: u64,
    /// Nesting depth at entry (0 = root).
    pub depth: u32,
}

impl SpanEvent {
    /// Total cycles spent inside the span (children included).
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-name aggregate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed spans with this name.
    pub count: u64,
    /// Total cycles (children included).
    pub total_cycles: u64,
    /// Self cycles (children excluded).
    pub self_cycles: u64,
}

struct ActiveSpan {
    name: &'static str,
    start: u64,
    child_cycles: u64,
    seq: u64,
}

/// The profiler. One lives on the simulated CPU next to the clock; all
/// layers reach it through the machine.
pub struct SpanProfiler {
    enabled: bool,
    stack: Vec<ActiveSpan>,
    events: Vec<SpanEvent>,
    capacity: usize,
    dropped: u64,
    agg: BTreeMap<&'static str, SpanStat>,
    next_seq: u64,
    /// Spans whose `exit` arrived out of order (diagnostic).
    pub mismatches: u64,
}

impl Default for SpanProfiler {
    fn default() -> Self {
        Self::new(1 << 16)
    }
}

impl SpanProfiler {
    /// Creates a disabled profiler retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            enabled: false,
            stack: Vec::new(),
            events: Vec::new(),
            capacity,
            dropped: 0,
            agg: BTreeMap::new(),
            next_seq: 0,
            mismatches: 0,
        }
    }

    /// Turns recording on or off. Spans still open when the profiler is
    /// disabled are discarded.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.stack.clear();
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span at simulated time `now` (cycles). Returns
    /// [`SpanId::NONE`] without touching memory when disabled.
    #[inline]
    pub fn enter(&mut self, name: &'static str, now: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let depth = self.stack.len() as u32;
        self.stack.push(ActiveSpan {
            name,
            start: now,
            child_cycles: 0,
            seq,
        });
        SpanId { depth, seq }
    }

    /// Closes a span at simulated time `now` (cycles). Out-of-order exits
    /// unwind the stack to the matching span, counting each skip in
    /// [`SpanProfiler::mismatches`].
    #[inline]
    pub fn exit(&mut self, id: SpanId, now: u64) {
        if !self.enabled || id == SpanId::NONE {
            return;
        }
        // Unwind to the matching span (tolerates a missed exit in between).
        while let Some(top) = self.stack.last() {
            let matches = top.seq == id.seq;
            if !matches {
                self.mismatches += 1;
            }
            let span = self.stack.pop().expect("non-empty");
            self.close(span, now);
            if matches {
                return;
            }
        }
        self.mismatches += 1;
    }

    fn close(&mut self, span: ActiveSpan, now: u64) {
        let total = now.saturating_sub(span.start);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_cycles += total;
        }
        let stat = self.agg.entry(span.name).or_default();
        stat.count += 1;
        stat.total_cycles += total;
        stat.self_cycles += total.saturating_sub(span.child_cycles);
        if self.events.len() < self.capacity {
            self.events.push(SpanEvent {
                name: span.name,
                start: span.start,
                end: now,
                depth: self.stack.len() as u32,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Completed span events, in completion order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Current nesting depth (open spans).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Aggregate for one span name.
    pub fn stat(&self, name: &str) -> SpanStat {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// All aggregates, sorted by name for stable output.
    pub fn stats(&self) -> Vec<(&'static str, SpanStat)> {
        self.agg.iter().map(|(&n, &s)| (n, s)).collect()
    }

    /// Snapshot of the aggregates (for delta-based measurement windows).
    pub fn agg_snapshot(&self) -> BTreeMap<&'static str, SpanStat> {
        self.agg.clone()
    }

    /// Per-name aggregates accumulated *since* `earlier` (a snapshot taken
    /// with [`SpanProfiler::agg_snapshot`]), in name order.
    pub fn agg_since(
        &self,
        earlier: &BTreeMap<&'static str, SpanStat>,
    ) -> Vec<(&'static str, SpanStat)> {
        self.agg
            .iter()
            .filter_map(|(&n, &s)| {
                let e = earlier.get(n).copied().unwrap_or_default();
                let d = SpanStat {
                    count: s.count - e.count,
                    total_cycles: s.total_cycles - e.total_cycles,
                    self_cycles: s.self_cycles - e.self_cycles,
                };
                (d.count > 0 || d.total_cycles > 0).then_some((n, d))
            })
            .collect()
    }

    /// Checks the profiler's structural invariant: every exit matched its
    /// enter (`mismatches == 0`) and no span's exclusive (self) time
    /// exceeds its inclusive (total) time. Returns the first violation as
    /// a human-readable description, or `None` when consistent.
    ///
    /// Fault-injection harnesses call this after every injected event: an
    /// interrupt or fault that unwinds past a `span_exit` shows up here
    /// long before it corrupts a report.
    pub fn self_time_violation(&self) -> Option<String> {
        if self.mismatches > 0 {
            return Some(format!("{} out-of-order span exits", self.mismatches));
        }
        self.agg.iter().find_map(|(&name, s)| {
            (s.self_cycles > s.total_cycles).then(|| {
                format!(
                    "span '{name}': self {} > total {} cycles",
                    s.self_cycles, s.total_cycles
                )
            })
        })
    }

    /// Discards all events and aggregates (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.stack.clear();
        self.events.clear();
        self.agg.clear();
        self.dropped = 0;
        self.mismatches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_allocates_nothing() {
        let mut p = SpanProfiler::new(16);
        let id = p.enter("x", 100);
        assert_eq!(id, SpanId::NONE);
        p.exit(id, 200);
        assert!(p.events().is_empty());
        assert_eq!(p.stat("x"), SpanStat::default());
    }

    #[test]
    fn self_times_sum_to_root_total() {
        let mut p = SpanProfiler::new(16);
        p.set_enabled(true);
        let root = p.enter("root", 0);
        let a = p.enter("a", 10);
        let b = p.enter("b", 20);
        p.exit(b, 50);
        p.exit(a, 70);
        let c = p.enter("c", 80);
        p.exit(c, 95);
        p.exit(root, 100);
        assert_eq!(p.stat("root").total_cycles, 100);
        assert_eq!(p.stat("b").self_cycles, 30);
        assert_eq!(p.stat("a").self_cycles, 60 - 30);
        assert_eq!(p.stat("c").self_cycles, 15);
        let sum: u64 = p.stats().iter().map(|(_, s)| s.self_cycles).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn events_record_depth_and_bound() {
        let mut p = SpanProfiler::new(2);
        p.set_enabled(true);
        for i in 0..4u64 {
            let id = p.enter("e", i * 10);
            p.exit(id, i * 10 + 5);
        }
        assert_eq!(p.events().len(), 2);
        assert_eq!(p.dropped(), 2);
        assert_eq!(
            p.stat("e").count,
            4,
            "aggregates keep counting past the buffer"
        );
    }

    #[test]
    fn out_of_order_exit_unwinds() {
        let mut p = SpanProfiler::new(16);
        p.set_enabled(true);
        let outer = p.enter("outer", 0);
        let _inner = p.enter("inner", 10);
        // Forgot to exit `inner`; exiting `outer` closes both.
        p.exit(outer, 100);
        assert_eq!(p.depth(), 0);
        assert_eq!(p.stat("inner").count, 1);
        assert_eq!(p.stat("outer").count, 1);
        assert!(p.mismatches > 0);
    }
}
