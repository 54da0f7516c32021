//! The unified metrics registry.
//!
//! Counters and streaming quantile sketches, registered once (a hash
//! lookup) and updated through dense integer ids (an array index — as
//! cheap as a plain struct field). Metric names follow a
//! `layer.noun[.verb]` convention (`os.syscalls`, `vmm.vm_exits`,
//! `cki.gate_aborts`). A counter may carry a `&'static str` label for the
//! fixed per-backend / per-syscall taxonomy (`vmm.vm_exits{hvm-bm}`,
//! `os.syscall{getpid}`); sketches are unlabeled. Every series is
//! registered at construction time by the layer that owns it, so the
//! registry's size is fixed by the stack's shape, not by how long it runs.

#![allow(
    clippy::disallowed_types,
    reason = "the name indexes are only looked up, never iterated: every export walks the dense series vectors in registration order"
)]

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::quantile::{QuantileSketch, SketchSnapshot};

/// Dense handle for a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Dense handle for a registered quantile sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchId(u32);

struct Counter {
    name: &'static str,
    label: Option<&'static str>,
    value: u64,
}

struct Sketch {
    name: &'static str,
    sketch: QuantileSketch,
}

/// The registry. One lives on the simulated CPU; every layer registers its
/// counters at construction and bumps them by id on the hot path.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Vec<Counter>,
    cindex: HashMap<(&'static str, Option<&'static str>), CounterId>,
    sketches: Vec<Sketch>,
    sindex: HashMap<&'static str, SketchId>,
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
        let counters = &mut self.counters;
        *self.cindex.entry((name, label)).or_insert_with(|| {
            counters.push(Counter {
                name,
                label,
                value: 0,
            });
            CounterId(counters.len() as u32 - 1)
        })
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
            .find(|c| c.name == name && c.label == label)
            .map_or(0, |c| c.value)
    }

    /// Iterates every counter as `(name, label, value)` in registration
    /// order (cold path).
    pub fn iter_counters(&self) -> impl Iterator<Item = (&'static str, Option<&str>, u64)> + '_ {
        self.counters.iter().map(|c| (c.name, c.label, c.value))
    }

    /// Registers (or finds) a quantile sketch. The dense bucket array is
    /// allocated here, once; recording never allocates.
    pub fn sketch(&mut self, name: &'static str) -> SketchId {
        let sketches = &mut self.sketches;
        *self.sindex.entry(name).or_insert_with(|| {
            sketches.push(Sketch {
                name,
                sketch: QuantileSketch::new(),
            });
            SketchId(sketches.len() as u32 - 1)
        })
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
    pub fn sketch_id_of(&self, name: &str) -> Option<SketchId> {
        self.sindex.get(name).copied()
    }

    /// Point-in-time copy of every metric, keyed `name` or `name{label}`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|c| {
                let k = match c.label {
                    Some(l) => format!("{}{{{l}}}", c.name),
                    None => c.name.to_string(),
                };
                (k, c.value)
            })
            .collect();
        let sketches = self
            .sketches
            .iter()
            .map(|s| (s.name.to_string(), SketchSnapshot::of(&s.sketch)))
            .collect();
        MetricsSnapshot { counters, sketches }
    }
}

/// A frozen copy of the registry, independent of the live ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values keyed `name` or `name{label}`.
    pub counters: BTreeMap<String, u64>,
    /// Frozen quantile sketches, keyed by name.
    pub sketches: BTreeMap<String, SketchSnapshot>,
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
        MetricsSnapshot { counters, sketches }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        r.add(c, 10);
        let before = r.snapshot();
        r.add(c, 7);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.get("x"), 7);
    }

    #[test]
    fn sketches_snapshot_delta_and_merge() {
        let mut r = MetricsRegistry::new();
        let s = r.sketch("cloud.invoke_cycles");
        assert_eq!(r.sketch("cloud.invoke_cycles"), s, "idempotent");
        assert_eq!(r.sketch_id_of("cloud.invoke_cycles"), Some(s));
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
    }
}
