//! The unified metrics registry.
//!
//! Counters, log₂-bucketed histograms and streaming quantile sketches,
//! registered once (a hash lookup) and updated through dense integer ids
//! (an array index — as cheap as the scattered `stats` fields this
//! registry replaces). Metric names follow a `layer.noun[.verb]`
//! convention (`os.syscalls`, `vmm.vm_exits`, `cki.gate_aborts`); an
//! optional label carries the per-backend / per-container / per-syscall
//! dimension. Labels are `&'static str` for the fixed taxonomy and owned
//! strings for dynamic dimensions (per-container series — `{c42}` —
//! registered by the cloud control plane at container start).

#![allow(
    clippy::disallowed_types,
    reason = "the name indexes are only looked up, never iterated: every export walks the dense series vectors in registration order"
)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::quantile::{QuantileSketch, SketchSnapshot};

/// A series label: borrowed for the static taxonomy, owned for dynamic
/// dimensions such as per-container ids.
pub type Label = Cow<'static, str>;

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`; `u64::MAX` lands in bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a histogram observation.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Lower bound of a bucket (inclusive).
pub fn bucket_lo(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b => 1u64 << (b - 1),
    }
}

/// Dense handle for a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Dense handle for a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// Dense handle for a registered quantile sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchId(u32);

struct Counter {
    name: &'static str,
    label: Option<Label>,
    value: u64,
}

struct Hist {
    name: &'static str,
    label: Option<Label>,
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

struct Sketch {
    name: &'static str,
    label: Option<Label>,
    sketch: QuantileSketch,
}

/// The registry. One lives on the simulated CPU; every layer registers its
/// counters at construction and bumps them by id on the hot path.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Vec<Counter>,
    cindex: HashMap<(&'static str, Option<Label>), CounterId>,
    hists: Vec<Hist>,
    hindex: HashMap<(&'static str, Option<Label>), HistId>,
    sketches: Vec<Sketch>,
    sindex: HashMap<(&'static str, Option<Label>), SketchId>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        self.counter_labeled(name, None)
    }

    /// Registers (or finds) a counter carrying a label value, e.g.
    /// `("os.syscall", Some("getpid"))`.
    pub fn counter_labeled(
        &mut self,
        name: &'static str,
        label: Option<&'static str>,
    ) -> CounterId {
        self.counter_with(name, label.map(Cow::Borrowed))
    }

    /// Registers (or finds) a counter with an owned (dynamic) label, e.g.
    /// the per-container dimension `("cloud.boot_cycles", "c42")`.
    pub fn counter_owned(&mut self, name: &'static str, label: impl Into<String>) -> CounterId {
        self.counter_with(name, Some(Cow::Owned(label.into())))
    }

    fn counter_with(&mut self, name: &'static str, label: Option<Label>) -> CounterId {
        if let Some(&id) = self.cindex.get(&(name, label.clone())) {
            return id;
        }
        let id = CounterId(self.counters.len() as u32);
        self.counters.push(Counter {
            name,
            label: label.clone(),
            value: 0,
        });
        self.cindex.insert((name, label), id);
        id
    }

    /// Adds to a counter. O(1).
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize].value += n;
    }

    /// Increments a counter by 1. O(1).
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Current value of a counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].value
    }

    /// Looks a counter value up by name (cold path; 0 if unregistered).
    pub fn value_of(&self, name: &str, label: Option<&str>) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label.as_deref() == label)
            .map_or(0, |c| c.value)
    }

    /// Iterates every counter as `(name, label, value)` in registration
    /// order (cold path — reconstruction of legacy stat views).
    pub fn iter_counters(&self) -> impl Iterator<Item = (&'static str, Option<&str>, u64)> + '_ {
        self.counters
            .iter()
            .map(|c| (c.name, c.label.as_deref(), c.value))
    }

    /// Registers (or finds) an unlabeled histogram.
    pub fn histogram(&mut self, name: &'static str) -> HistId {
        self.histogram_labeled(name, None)
    }

    /// Registers (or finds) a labeled histogram.
    pub fn histogram_labeled(&mut self, name: &'static str, label: Option<&'static str>) -> HistId {
        self.histogram_with(name, label.map(Cow::Borrowed))
    }

    fn histogram_with(&mut self, name: &'static str, label: Option<Label>) -> HistId {
        if let Some(&id) = self.hindex.get(&(name, label.clone())) {
            return id;
        }
        let id = HistId(self.hists.len() as u32);
        self.hists.push(Hist {
            name,
            label: label.clone(),
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        });
        self.hindex.insert((name, label), id);
        id
    }

    /// Records one observation. O(1).
    #[inline]
    pub fn observe(&mut self, id: HistId, value: u64) {
        let h = &mut self.hists[id.0 as usize];
        h.buckets[bucket_of(value)] += 1;
        h.count += 1;
        h.sum = h.sum.saturating_add(value);
    }

    /// Registers (or finds) an unlabeled quantile sketch. The dense bucket
    /// array is allocated here, once; recording never allocates.
    pub fn sketch(&mut self, name: &'static str) -> SketchId {
        self.sketch_with(name, None)
    }

    /// Registers (or finds) a labeled quantile sketch.
    pub fn sketch_labeled(&mut self, name: &'static str, label: Option<&'static str>) -> SketchId {
        self.sketch_with(name, label.map(Cow::Borrowed))
    }

    /// Registers (or finds) a sketch with an owned (dynamic) label, e.g.
    /// the per-NIC dimension `("net.request_cycles", "c42")`.
    pub fn sketch_owned(&mut self, name: &'static str, label: impl Into<String>) -> SketchId {
        self.sketch_with(name, Some(Cow::Owned(label.into())))
    }

    fn sketch_with(&mut self, name: &'static str, label: Option<Label>) -> SketchId {
        if let Some(&id) = self.sindex.get(&(name, label.clone())) {
            return id;
        }
        let id = SketchId(self.sketches.len() as u32);
        self.sketches.push(Sketch {
            name,
            label: label.clone(),
            sketch: QuantileSketch::new(),
        });
        self.sindex.insert((name, label), id);
        id
    }

    /// Records one observation into a sketch. O(1), no allocation.
    #[inline]
    pub fn record(&mut self, id: SketchId, value: u64) {
        self.sketches[id.0 as usize].sketch.record(value);
    }

    /// Quantile estimate from a live sketch (cold path — watchdog ticks).
    pub fn sketch_quantile(&self, id: SketchId, q: f64) -> u64 {
        self.sketches[id.0 as usize].sketch.quantile(q)
    }

    /// Observation count of a live sketch.
    pub fn sketch_count(&self, id: SketchId) -> u64 {
        self.sketches[id.0 as usize].sketch.count()
    }

    /// Looks a sketch id up by name (cold path; `None` if unregistered).
    pub fn sketch_id_of(&self, name: &str, label: Option<&str>) -> Option<SketchId> {
        self.sketches
            .iter()
            .position(|s| s.name == name && s.label.as_deref() == label)
            .map(|i| SketchId(i as u32))
    }

    /// Point-in-time copy of every metric, keyed `name` or `name{label}`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        for c in &self.counters {
            counters.insert(key(c.name, c.label.as_deref()), c.value);
        }
        let mut histograms = BTreeMap::new();
        for h in &self.hists {
            histograms.insert(
                key(h.name, h.label.as_deref()),
                HistSnapshot {
                    buckets: h.buckets,
                    count: h.count,
                    sum: h.sum,
                },
            );
        }
        let mut sketches = BTreeMap::new();
        for s in &self.sketches {
            sketches.insert(
                key(s.name, s.label.as_deref()),
                SketchSnapshot::of(&s.sketch),
            );
        }
        MetricsSnapshot {
            counters,
            histograms,
            sketches,
        }
    }

    /// Resets every value to zero, keeping registrations (and ids) intact.
    pub fn reset(&mut self) {
        for c in &mut self.counters {
            c.value = 0;
        }
        for h in &mut self.hists {
            h.buckets = [0; HIST_BUCKETS];
            h.count = 0;
            h.sum = 0;
        }
        for s in &mut self.sketches {
            s.sketch.reset();
        }
    }

    /// Prometheus-style text exposition of the whole registry.
    /// `extra_labels` (e.g. `[("backend", "cki")]`) are added to every
    /// series.
    pub fn prometheus(&self, extra_labels: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let fmt_labels = |label: Option<&str>| -> String {
            let mut parts: Vec<String> = extra_labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            if let Some(l) = label {
                parts.push(format!("label=\"{l}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        let mut last_name = "";
        for c in &self.counters {
            let name = metric_name(c.name);
            if c.name != last_name {
                out.push_str(&format!("# TYPE {name} counter\n"));
                last_name = c.name;
            }
            out.push_str(&format!(
                "{name}{} {}\n",
                fmt_labels(c.label.as_deref()),
                c.value
            ));
        }
        for h in &self.hists {
            let name = metric_name(h.name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b == 0 {
                    continue;
                }
                cumulative += b;
                let le = if i >= 64 {
                    "+Inf".to_string()
                } else {
                    format!("{}", (1u64 << i) - 1)
                };
                let mut labels: Vec<String> = extra_labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{v}\""))
                    .collect();
                if let Some(l) = h.label.as_deref() {
                    labels.push(format!("label=\"{l}\""));
                }
                labels.push(format!("le=\"{le}\""));
                out.push_str(&format!(
                    "{name}_bucket{{{}}} {cumulative}\n",
                    labels.join(",")
                ));
            }
            out.push_str(&format!(
                "{name}_sum{} {}\n",
                fmt_labels(h.label.as_deref()),
                h.sum
            ));
            out.push_str(&format!(
                "{name}_count{} {}\n",
                fmt_labels(h.label.as_deref()),
                h.count
            ));
        }
        for s in &self.sketches {
            let name = metric_name(s.name);
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                let mut labels: Vec<String> = extra_labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{v}\""))
                    .collect();
                if let Some(l) = s.label.as_deref() {
                    labels.push(format!("label=\"{l}\""));
                }
                labels.push(format!("quantile=\"{qs}\""));
                out.push_str(&format!(
                    "{name}{{{}}} {}\n",
                    labels.join(","),
                    s.sketch.quantile(q)
                ));
            }
            out.push_str(&format!(
                "{name}_sum{} {}\n",
                fmt_labels(s.label.as_deref()),
                s.sketch.sum()
            ));
            out.push_str(&format!(
                "{name}_count{} {}\n",
                fmt_labels(s.label.as_deref()),
                s.sketch.count()
            ));
        }
        out
    }
}

fn key(name: &str, label: Option<&str>) -> String {
    match label {
        Some(l) => format!("{name}{{{l}}}"),
        None => name.to_string(),
    }
}

/// Dots become underscores for Prometheus compatibility.
fn metric_name(name: &str) -> String {
    name.replace('.', "_")
}

/// A frozen copy of the registry, independent of the live ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values keyed `name` or `name{label}`.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states, same keying.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Frozen quantile sketches, same keying.
    pub sketches: BTreeMap<String, SketchSnapshot>,
}

/// A frozen histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
}

impl MetricsSnapshot {
    /// Counter value by key (0 if absent).
    pub fn get(&self, k: &str) -> u64 {
        self.counters.get(k).copied().unwrap_or(0)
    }

    /// Union with `other`, summing values on key collisions (used to merge
    /// per-layer registries into one view).
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (k, &v) in &other.counters {
            *out.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            match out.histograms.get_mut(k) {
                None => {
                    out.histograms.insert(k.clone(), h.clone());
                }
                Some(mine) => {
                    for i in 0..HIST_BUCKETS {
                        mine.buckets[i] += h.buckets[i];
                    }
                    mine.count += h.count;
                    mine.sum = mine.sum.saturating_add(h.sum);
                }
            }
        }
        for (k, s) in &other.sketches {
            match out.sketches.get_mut(k) {
                None => {
                    out.sketches.insert(k.clone(), s.clone());
                }
                Some(mine) => {
                    *mine = mine.merge(s);
                }
            }
        }
        out
    }

    /// Counters accumulated since `earlier` (absent keys treated as 0).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        for (k, &v) in &self.counters {
            let d = v - earlier.counters.get(k).copied().unwrap_or(0);
            if d > 0 {
                counters.insert(k.clone(), d);
            }
        }
        let mut histograms = BTreeMap::new();
        for (k, h) in &self.histograms {
            let mut d = h.clone();
            if let Some(e) = earlier.histograms.get(k) {
                for i in 0..HIST_BUCKETS {
                    d.buckets[i] -= e.buckets[i];
                }
                d.count -= e.count;
                d.sum -= e.sum;
            }
            if d.count > 0 {
                histograms.insert(k.clone(), d);
            }
        }
        let mut sketches = BTreeMap::new();
        for (k, s) in &self.sketches {
            let d = match earlier.sketches.get(k) {
                Some(e) => s.subtract(e),
                None => s.clone(),
            };
            if d.count > 0 {
                sketches.insert(k.clone(), d);
            }
        }
        MetricsSnapshot {
            counters,
            histograms,
            sketches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        // The edge cases from the issue: 0, u64::MAX, and bucket boundaries.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of((1 << 20) - 1), 20);
        assert_eq!(bucket_of(1 << 20), 21);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_of(1 << 63), 64);
        assert_eq!(bucket_of((1 << 63) - 1), 63);
        assert!(bucket_of(u64::MAX) < HIST_BUCKETS);
        // Every bucket's lower bound maps back into that bucket.
        for b in 0..HIST_BUCKETS {
            assert_eq!(bucket_of(bucket_lo(b)), b, "bucket {b}");
        }
    }

    #[test]
    fn histogram_saturates_sum_not_count() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat");
        r.observe(h, u64::MAX);
        r.observe(h, u64::MAX);
        let s = r.snapshot();
        let hs = &s.histograms["lat"];
        assert_eq!(hs.count, 2);
        assert_eq!(hs.sum, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(hs.buckets[64], 2);
    }

    #[test]
    fn counter_ids_are_stable_and_cheap() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("os.syscalls");
        let b = r.counter("os.syscalls");
        assert_eq!(a, b, "re-registering returns the same id");
        r.add(a, 3);
        r.inc(b);
        assert_eq!(r.get(a), 4);
        assert_eq!(r.value_of("os.syscalls", None), 4);
    }

    #[test]
    fn labeled_counters_are_distinct_series() {
        let mut r = MetricsRegistry::new();
        let g = r.counter_labeled("os.syscall", Some("getpid"));
        let w = r.counter_labeled("os.syscall", Some("write"));
        r.add(g, 2);
        r.add(w, 5);
        let s = r.snapshot();
        assert_eq!(s.get("os.syscall{getpid}"), 2);
        assert_eq!(s.get("os.syscall{write}"), 5);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("x");
        let h = r.histogram("y");
        r.add(c, 10);
        r.observe(h, 100);
        let before = r.snapshot();
        r.add(c, 7);
        r.observe(h, 200);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.get("x"), 7);
        assert_eq!(d.histograms["y"].count, 1);
        assert_eq!(d.histograms["y"].sum, 200);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("os.syscalls");
        r.add(c, 42);
        let h = r.histogram("os.pgfault.ns");
        r.observe(h, 1000);
        let text = r.prometheus(&[("backend", "cki")]);
        assert!(text.contains("# TYPE os_syscalls counter"));
        assert!(text.contains("os_syscalls{backend=\"cki\"} 42"));
        assert!(text.contains("# TYPE os_pgfault_ns histogram"));
        assert!(text.contains("os_pgfault_ns_count{backend=\"cki\"} 1"));
        assert!(text.contains("le=\"1023\""));
    }

    #[test]
    fn owned_labels_are_distinct_series() {
        let mut r = MetricsRegistry::new();
        let a = r.counter_owned("cloud.invokes", "c1");
        let b = r.counter_owned("cloud.invokes", "c2");
        assert_ne!(a, b);
        assert_eq!(r.counter_owned("cloud.invokes", "c1"), a, "idempotent");
        r.add(a, 3);
        r.add(b, 4);
        assert_eq!(r.value_of("cloud.invokes", Some("c1")), 3);
        let s = r.snapshot();
        assert_eq!(s.get("cloud.invokes{c1}"), 3);
        assert_eq!(s.get("cloud.invokes{c2}"), 4);
    }

    #[test]
    fn sketches_snapshot_merge_and_prometheus() {
        let mut r = MetricsRegistry::new();
        let s = r.sketch("cloud.invoke_cycles");
        for v in [100u64, 200, 300, 400, 10_000] {
            r.record(s, v);
        }
        assert_eq!(r.sketch_count(s), 5);
        let p99 = r.sketch_quantile(s, 0.99);
        assert!((9_000..=10_000).contains(&p99), "p99 = {p99}");
        let snap = r.snapshot();
        let fs = &snap.sketches["cloud.invoke_cycles"];
        assert_eq!(fs.count, 5);
        assert_eq!(fs.quantile(0.99), p99);
        // delta of a later snapshot against an earlier one.
        r.record(s, 50_000);
        let d = r.snapshot().delta(&snap);
        assert_eq!(d.sketches["cloud.invoke_cycles"].count, 1);
        // merge sums counts.
        let m = snap.merge(&snap);
        assert_eq!(m.sketches["cloud.invoke_cycles"].count, 10);
        let text = r.prometheus(&[]);
        assert!(text.contains("# TYPE cloud_invoke_cycles summary"));
        assert!(text.contains("cloud_invoke_cycles{quantile=\"0.99\"}"));
        assert!(text.contains("cloud_invoke_cycles_count 6"));
    }

    #[test]
    fn owned_sketch_labels_are_distinct_series() {
        let mut r = MetricsRegistry::new();
        let a = r.sketch_owned("net.request_cycles", "c1");
        let b = r.sketch_owned("net.request_cycles", "c2");
        assert_ne!(a, b);
        assert_eq!(r.sketch_owned("net.request_cycles", "c1"), a, "idempotent");
        r.record(a, 100);
        r.record(b, 900);
        assert_eq!(r.sketch_id_of("net.request_cycles", Some("c2")), Some(b));
        let s = r.snapshot();
        assert_eq!(s.sketches["net.request_cycles{c1}"].count, 1);
        assert_eq!(s.sketches["net.request_cycles{c2}"].count, 1);
    }

    #[test]
    fn reset_clears_sketches() {
        let mut r = MetricsRegistry::new();
        let s = r.sketch_labeled("x", Some("l"));
        r.record(s, 7);
        r.reset();
        assert_eq!(r.sketch_count(s), 0);
        assert_eq!(r.sketch_labeled("x", Some("l")), s);
    }

    #[test]
    fn reset_keeps_registrations() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("x");
        r.add(c, 5);
        r.reset();
        assert_eq!(r.get(c), 0);
        assert_eq!(r.counter("x"), c);
    }
}
