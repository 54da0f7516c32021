//! Host-clock spans the benchmark records around each call into a layer.
//!
//! A span has a name (the layer call), the backend it ran on, the op it
//! serves, its parent span, and its start and end in host nanoseconds.
//! Closing a span folds it into a per-(name, backend) aggregate: call
//! count, total time, self time (total minus the time its child spans
//! cover) and a quantile sketch of per-call time. Raw spans are kept in
//! memory up to [`MAX_KEPT_SPANS`] and written out once the run ends.
//!
//! A disabled tracer does nothing but test a flag, so untraced rounds pay
//! for one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use cki::obs::QuantileSketch;

/// Raw spans kept for the trace file; later spans still count in the
/// aggregates.
pub const MAX_KEPT_SPANS: usize = 1 << 20;

const NO_PARENT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub backend: &'static str,
    pub op: u64,
    /// Index of the parent in the kept spans ([`NO_PARENT`] for a root or
    /// a parent that was not kept).
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregate of every closed span with one (name, backend).
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Per-call total time in ns.
    pub per_call: QuantileSketch,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    /// Slot reserved in `spans` for this span, if kept.
    slot: u32,
}

/// Token returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Token(usize);

/// The span recorder. One per run; enable it for traced rounds only.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    backend: &'static str,
    op: u64,
    open: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    aggs: BTreeMap<(&'static str, &'static str), Agg>,
    /// Host ns covered by root spans while enabled.
    root_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            backend: "",
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            aggs: BTreeMap::new(),
            root_ns: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with spans open");
        self.on = on;
    }

    /// Backend the following spans run on (`"cki"` or `"hvm"`).
    pub fn set_backend(&mut self, backend: &'static str) {
        self.backend = backend;
    }

    /// Op id the following spans serve.
    #[inline]
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Token {
        if !self.on {
            return Token(usize::MAX);
        }
        let slot = if self.spans.len() < MAX_KEPT_SPANS {
            let parent = self.open.last().map_or(NO_PARENT, |o| o.slot);
            self.spans.push(Span {
                name,
                backend: self.backend,
                op: self.op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.open.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
            slot,
        });
        Token(self.open.len() - 1)
    }

    #[inline]
    pub fn end(&mut self, token: Token) {
        if token.0 == usize::MAX {
            return;
        }
        let end = Instant::now();
        let o = self.open.pop().expect("span open");
        assert_eq!(token.0, self.open.len(), "spans closed out of order");
        let dur = end.duration_since(o.start).as_nanos() as u64;
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.root_ns += dur,
        }
        if o.slot != NO_PARENT {
            let s = &mut self.spans[o.slot as usize];
            s.start_ns = o.start.duration_since(self.epoch).as_nanos() as u64;
            s.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        let a = self.aggs.entry((o.name, self.backend)).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        a.per_call.record(dur);
    }

    /// Aggregate for `name` on `backend`, if any span of it closed.
    pub fn agg(&self, name: &str, backend: &str) -> Option<&Agg> {
        self.aggs
            .iter()
            .find(|((n, b), _)| *n == name && *b == backend)
            .map(|(_, a)| a)
    }

    /// Host ns covered by root spans so far.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Tab-separated dump: a header, one line per kept span, then one
    /// self-time summary line per (name, backend).
    pub fn dump_tsv(&self) -> String {
        let mut out = String::from("# span\tname\tbackend\top\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.backend, s.op, s.start_ns, s.end_ns
            );
        }
        let _ = writeln!(out, "# dropped_spans\t{}", self.dropped);
        let _ = writeln!(
            out,
            "# summary\tname\tbackend\tcalls\ttotal_ns\tself_ns\tp50_ns"
        );
        for ((name, backend), a) in &self.aggs {
            let _ = writeln!(
                out,
                "# summary\t{name}\t{backend}\t{}\t{}\t{}\t{}",
                a.count,
                a.total_ns,
                a.self_ns,
                a.per_call.quantile(0.5)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.set_backend("cki");
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let o = t.agg("outer", "cki").unwrap();
        let i = t.agg("inner", "cki").unwrap();
        assert!(i.total_ns >= 2_000_000);
        assert!(o.total_ns >= i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(t.root_ns(), o.total_ns);
        assert_eq!(t.spans[1].parent, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let s = t.begin("x");
        t.end(s);
        assert!(t.agg("x", "").is_none());
        assert!(t.spans.is_empty());
    }
}
