//! Structured export: a Chrome-trace JSON dump of completed spans and a
//! JSON rendering of a metrics snapshot.
//!
//! JSON is emitted by hand — the values are flat (names, integers, floats),
//! so a serializer dependency would buy nothing and the workspace must
//! build offline.

use crate::metrics::MetricsSnapshot;
use crate::span::{SpanEvent, SpanProfiler};

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the profiler's completed spans as a Chrome-trace-format JSON
/// array (load it at `chrome://tracing` or in Perfetto). Each span becomes
/// a `ph: "B"` / `ph: "E"` pair; `ts` is microseconds of simulated time at
/// `freq_ghz` (cycles / (1000 · GHz)).
pub fn chrome_trace(profiler: &SpanProfiler, freq_ghz: f64) -> String {
    let us = |cycles: u64| cycles as f64 / (freq_ghz * 1000.0);
    // Chrome infers nesting from B/E ordering per thread, so emit the
    // events sorted by (begin time, deeper first) with matching ends.
    let mut spans: Vec<&SpanEvent> = profiler.events().iter().collect();
    spans.sort_by(|a, b| a.start.cmp(&b.start).then(b.depth.cmp(&a.depth)));
    // An explicit end-event list, sorted so inner spans close first.
    #[derive(Clone, Copy)]
    enum Ev<'a> {
        B(&'a SpanEvent),
        E(&'a SpanEvent),
    }
    let mut evs: Vec<(u64, u32, Ev)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        // Order key: begins sort before ends at the same timestamp only if
        // they belong to a deeper span (zero-width children).
        evs.push((s.start, s.depth, Ev::B(s)));
        evs.push((s.end, u32::MAX - s.depth, Ev::E(s)));
    }
    evs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut out = String::from("[\n");
    let mut first = true;
    for (_, _, ev) in evs {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let (ph, s) = match ev {
            Ev::B(s) => ("B", s),
            Ev::E(s) => ("E", s),
        };
        let ts = us(if ph == "B" { s.start } else { s.end });
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"cat\": \"sim\", \"ph\": \"{ph}\", \"ts\": {ts:.4}, \
             \"pid\": 1, \"tid\": 1}}",
            json_escape(s.name)
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Renders a [`MetricsSnapshot`] as one JSON object: counters as a flat
/// name→value map and quantile sketches as
/// `{count, sum, min, max, p50, p90, p99, p999}`.
pub fn metrics_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    let mut first = true;
    for (k, v) in &snapshot.counters {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{v}", json_escape(k)));
    }
    out.push_str("},\"sketches\":{");
    let mut first = true;
    for (k, s) in &snapshot.sketches {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
            json_escape(k),
            s.count,
            s.sum,
            s.min,
            s.max,
            s.quantile(0.5),
            s.quantile(0.9),
            s.quantile(0.99),
            s.quantile(0.999)
        ));
    }
    out.push_str("}}");
    out
}

/// A minimal structural JSON validity check used by tests and the
/// `perf_report` drift checks: balanced brackets/braces outside strings.
pub fn json_balanced(s: &str) -> bool {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut esc = false;
    for c in s.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => depth += 1,
            ']' | '}' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_str
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpanProfiler {
        let mut p = SpanProfiler::new(64);
        p.set_enabled(true);
        let root = p.enter("op", 0);
        let a = p.enter("os.pgfault", 100);
        let b = p.enter("cki.gate", 200);
        p.exit(b, 500);
        p.exit(a, 900);
        p.exit(root, 1000);
        p
    }

    #[test]
    fn chrome_trace_is_valid_json_array_of_b_e_pairs() {
        let p = sample();
        let json = chrome_trace(&p, 2.4);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json_balanced(&json));
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 3);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 3);
        // Nesting: op begins before os.pgfault begins, ends after it ends.
        let op_b = json
            .find("\"name\": \"op\", \"cat\": \"sim\", \"ph\": \"B\"")
            .unwrap();
        let pf_b = json
            .find("\"name\": \"os.pgfault\", \"cat\": \"sim\", \"ph\": \"B\"")
            .unwrap();
        assert!(op_b < pf_b);
    }

    #[test]
    fn metrics_json_shape() {
        let mut r = crate::MetricsRegistry::new();
        let c = r.counter_labeled("os.syscall", Some("getpid"));
        r.add(c, 7);
        let s = r.sketch("lat");
        r.record(s, 5);
        r.record(s, 5);
        let json = metrics_json(&r.snapshot());
        assert!(json_balanced(&json));
        assert!(json.contains("\"os.syscall{getpid}\":7"));
        // Values below 32 are exact: every quantile of two 5s is 5.
        assert!(json.contains(
            "\"lat\":{\"count\":2,\"sum\":10,\"min\":5,\"max\":5,\
             \"p50\":5,\"p90\":5,\"p99\":5,\"p999\":5}"
        ));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
