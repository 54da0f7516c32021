//! What one round of a workload measured, and the helpers the workloads
//! share to fill it in.

use std::collections::BTreeMap;

use cki::obs::MetricsSnapshot;
use cki::sim_hw::{Clock, Tag};

/// One backend's measured phase within a round.
#[derive(Debug, Clone)]
pub struct Phase {
    /// `"cki"` or `"hvm"`.
    pub backend: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Simulated latency of every completed op, in cycles (emptied by
    /// [`Phase::summarize`]).
    pub lat: Vec<u64>,
    /// Ops completed, and their median and p99 latency in cycles.
    pub completed: u64,
    pub p50: u64,
    pub p99: u64,
    /// Simulated cycles the ops took (the throughput base).
    pub op_cycles: u64,
    /// Simulated cycles the whole measured phase advanced.
    pub sim_cycles: u64,
    /// Digest of every simulated output of the phase.
    pub digest: u64,
}

impl Phase {
    pub fn new(backend: &'static str) -> Self {
        Self {
            backend,
            attempted: 0,
            failed: 0,
            lat: Vec::new(),
            completed: 0,
            p50: 0,
            p99: 0,
            op_cycles: 0,
            sim_cycles: 0,
            digest: 0,
        }
    }

    /// Fills `completed`, `p50` and `p99` from `lat` and frees it, so a
    /// run's memory does not grow with its number of rounds.
    pub fn summarize(&mut self) {
        let mut lat = std::mem::take(&mut self.lat);
        lat.sort_unstable();
        self.completed = lat.len() as u64;
        self.p50 = quantile(&lat, 0.5);
        self.p99 = quantile(&lat, 0.99);
    }
}

/// One round: a fresh set-up, then a fixed, seed-derived amount of work.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host seconds spent before the first measured op.
    pub setup_s: f64,
    /// Host seconds of the measured phases.
    pub host_s: f64,
    pub phases: Vec<Phase>,
    /// Simulated per-layer numbers, by metric name.
    pub layer: BTreeMap<String, f64>,
    /// Correctness checks that failed, one message each.
    pub failures: Vec<String>,
}

impl Round {
    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.layer.insert(name.into(), value);
    }
}

/// FNV-1a over the simulated outputs of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn push_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self.push(s.len() as u64);
    }

    /// Folds in every counter of a registry snapshot (keys are ordered).
    pub fn push_counters(&mut self, snap: &MetricsSnapshot) {
        for (k, v) in &snap.counters {
            self.push_str(k);
            self.push(*v);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Cycles charged to every [`Tag`], in [`Tag::ALL`] order.
pub fn tags(clock: &Clock) -> [u64; 11] {
    Tag::ALL.map(|t| clock.tagged(t))
}

/// Sum of a counter over all its labels.
pub fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| {
            k.strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Stores the per-layer numbers every phase has: simulated cycles per
/// [`Tag`] and the machine registry's hardware, VMM and CKI counters.
/// `before`/`after` are the tag totals around the measured phase and
/// `d` the registry delta over it.
pub fn machine_layers(
    r: &mut Round,
    b: &str,
    before: &[u64; 11],
    after: &[u64; 11],
    d: &MetricsSnapshot,
) {
    for (i, tag) in Tag::ALL.iter().enumerate() {
        r.set(
            format!("sim_cycles.{tag:?}.{b}"),
            (after[i] - before[i]) as f64,
        );
    }
    let hits = counter(d, "hw.tlb.hits");
    let misses = counter(d, "hw.tlb.misses");
    r.set(format!("hw.tlb.hits.{b}"), hits as f64);
    r.set(format!("hw.tlb.misses.{b}"), misses as f64);
    r.set(
        format!("hw.tlb.hit_ratio.{b}"),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    r.set(
        format!("hw.page_walks.{b}"),
        counter(d, "hw.page_walks") as f64,
    );
    for name in ["vmm.vm_exits", "vmm.ept_faults", "cki.hypercalls"] {
        r.set(format!("{name}.{b}"), counter(d, name) as f64);
    }
}

/// Stores the guest kernel counters summed over a phase's kernels.
pub fn os_layers(r: &mut Round, b: &str, syscalls: u64, pgfaults: u64) {
    r.set(format!("os.syscalls.{b}"), syscalls as f64);
    r.set(format!("os.pgfaults.{b}"), pgfaults as f64);
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_labels_but_not_prefixes() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("vmm.vm_exits{hvm}".into(), 3);
        s.counters.insert("vmm.vm_exits{hvm-nst}".into(), 4);
        s.counters.insert("vmm.vm_exits_total".into(), 100);
        assert_eq!(counter(&s, "vmm.vm_exits"), 7);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 0.5), 3);
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 0.99), 5);
    }
}
