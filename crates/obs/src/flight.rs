//! The bounded event ring and the per-container flight recorder.
//!
//! [`Ring`] is the one fixed-capacity, overwrite-oldest buffer of the
//! stack. It backs the per-container [`FlightRecorder`] — the "black box"
//! a control plane dumps when an SLO breaches — as well as the CPU's
//! architectural event tracer (`sim_hw::trace`) and the host's buffer of
//! retired containers' recorders. Contrast with [`crate::SpanProfiler`]:
//! the profiler aggregates *everything* for post-hoc reports; a ring keeps
//! only the last `capacity` entries, so an incident report shows what a
//! container did right before the breach, at zero marginal memory cost no
//! matter how long the host runs.
//!
//! Hot-path contract:
//!
//! - [`Ring::record`] is O(1) and allocation-free: the slot array is
//!   allocated once at construction.
//! - A [`Ring::disabled`] ring holds no allocation; `record` is a branch
//!   and nothing more.
//! - The ring overwrites oldest-first; [`Ring::overwritten`] counts
//!   evictions so dumps are explicit about what they lost.
//!
//! Flight dumps ([`Ring::dump_jsonl`]) are JSONL, oldest event first,
//! cycle-stamped from the simulated clock — so two identical seeded runs
//! produce byte-identical incident reports.

/// Fixed-capacity, overwrite-oldest ring.
#[derive(Debug)]
pub struct Ring<T> {
    /// Slot array: its capacity is reserved once, it fills by `push`, and
    /// once full each record overwrites the oldest slot in place.
    buf: Vec<T>,
    /// Slots (0 when disabled).
    capacity: usize,
    /// Index of the oldest entry once full (the next slot to overwrite).
    head: usize,
    /// Entries evicted to make room.
    overwritten: u64,
}

impl<T> Ring<T> {
    /// Creates a ring retaining the last `capacity` entries. The slot
    /// array is allocated here, once; recording never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 (use [`Ring::disabled`]).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity ring: use disabled()");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            overwritten: 0,
        }
    }

    /// Creates a ring that records nothing and holds no allocation.
    pub fn disabled() -> Self {
        Self {
            buf: Vec::new(),
            capacity: 0,
            head: 0,
            overwritten: 0,
        }
    }

    /// Whether this ring actually records.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one entry, overwriting the oldest when full. O(1), no
    /// allocation; a no-op on a disabled ring.
    #[inline]
    pub fn record(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else if self.capacity > 0 {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Live entries (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no entries are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Entries evicted by overwrite since construction.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Iterates the live entries oldest-first.
    pub fn events(&self) -> impl DoubleEndedIterator<Item = &T> + '_ {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer)
    }
}

/// One recorded event: a name from the control plane's static taxonomy
/// (e.g. `"start.clone"`, `"invoke"`, `"compact.moved"`), the simulated
/// cycle count at which it happened, and one payload value (duration,
/// pages, ...; meaning per name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated cycle count when the event was recorded.
    pub cycles: u64,
    /// Event name (static taxonomy).
    pub name: &'static str,
    /// Payload (duration in cycles, page count, ... — per name).
    pub value: u64,
}

/// A container's black box: the last events the control plane noted.
pub type FlightRecorder = Ring<FlightEvent>;

impl Ring<FlightEvent> {
    /// Dumps the ring as a JSONL incident report, oldest event first.
    /// `who` labels every line (e.g. `"c42"`); the first line is a header
    /// carrying the ring accounting so a reader knows what was lost.
    pub fn dump_jsonl(&self, who: &str) -> String {
        let mut out = String::with_capacity(64 * (self.len() + 1));
        out.push_str(&format!(
            "{{\"flight\":\"{}\",\"events\":{},\"overwritten\":{},\"capacity\":{}}}\n",
            crate::export::json_escape(who),
            self.len(),
            self.overwritten,
            self.capacity
        ));
        for e in self.events() {
            out.push_str(&format!(
                "{{\"who\":\"{}\",\"cycles\":{},\"event\":\"{}\",\"value\":{}}}\n",
                crate::export::json_escape(who),
                e.cycles,
                crate::export::json_escape(e.name),
                e.value
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycles: u64, name: &'static str, value: u64) -> FlightEvent {
        FlightEvent {
            cycles,
            name,
            value,
        }
    }

    #[test]
    fn overwrites_oldest_in_order() {
        let mut r = FlightRecorder::new(4);
        for i in 0..6u64 {
            r.record(ev(i * 10, "e", i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.overwritten(), 2);
        let vals: Vec<u64> = r.events().map(|e| e.value).collect();
        assert_eq!(vals, vec![2, 3, 4, 5], "oldest two evicted, order kept");
        let stamps: Vec<u64> = r.events().map(|e| e.cycles).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
        // Any payload type, through many laps, newest last either way.
        for (cap, n) in [(1usize, 5u64), (3, 3), (3, 10), (4, 4096)] {
            let mut g = Ring::new(cap);
            (0..n).for_each(|i| g.record(i));
            let want: Vec<u64> = (n.saturating_sub(cap as u64)..n).collect();
            assert_eq!(g.events().copied().collect::<Vec<_>>(), want, "{cap}/{n}");
            let back: Vec<u64> = g.events().rev().copied().collect();
            assert_eq!(back, want.iter().rev().copied().collect::<Vec<_>>());
            assert_eq!(g.overwritten(), n.saturating_sub(cap as u64));
        }
    }

    #[test]
    fn partial_fill_preserves_order() {
        let mut r = FlightRecorder::new(8);
        r.record(ev(1, "a", 0));
        r.record(ev(2, "b", 0));
        assert_eq!(r.len(), 2);
        assert_eq!(r.overwritten(), 0);
        let names: Vec<&str> = r.events().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "b"]);
        let mut g = Ring::new(8);
        g.record((1u64, 'a'));
        assert_eq!(g.events().collect::<Vec<_>>(), vec![&(1, 'a')]);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut r = FlightRecorder::disabled();
        assert!(!r.enabled());
        for i in 0..100 {
            r.record(ev(i, "e", i));
        }
        assert!(r.is_empty());
        assert_eq!(r.overwritten(), 0);
        let dump = r.dump_jsonl("c1");
        assert_eq!(dump.lines().count(), 1, "header only");
        assert!(dump.contains("\"events\":0"));
        let mut g = Ring::<(u64, u8)>::disabled();
        (0..100).for_each(|i| g.record((i, 0)));
        assert!(!g.enabled() && g.is_empty() && g.events().next().is_none());
        assert_eq!((g.capacity(), g.overwritten()), (0, 0));
    }

    #[test]
    fn dump_is_jsonl_with_header() {
        let mut r = FlightRecorder::new(2);
        r.record(ev(100, "start.clone", 25_000));
        r.record(ev(200, "invoke", 30_000));
        r.record(ev(300, "invoke", 31_000));
        let dump = r.dump_jsonl("c7");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert!(crate::export::json_balanced(l), "{l}");
        }
        assert!(lines[0].contains("\"flight\":\"c7\""));
        assert!(lines[0].contains("\"overwritten\":1"));
        assert!(lines[1].contains("\"event\":\"invoke\""));
        assert!(lines[2].contains("\"value\":31000"));
    }
}
