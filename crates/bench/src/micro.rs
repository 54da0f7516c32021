//! `repro micro`: host time per simulated event on the page-walk path
//! and in compaction.
//!
//! Boots CKI (1-D walks) and HVM-BM (2-D walks through the EPT) as
//! perfbench's `memwalk` does, then times two phases on the host clock:
//!
//! - **demand faults**: first writes to every page of a `REGION`-byte
//!   mapping, in batches of `FAULT_BATCH` pages; host ns per page fault
//!   (on HVM-BM this includes the EPT violations the faults raise);
//! - **TLB-miss walks**: random reads over the faulted region, about ten
//!   times the TLB's reach, in `WALK_BATCHES` batches of
//!   `WALK_BATCH`; host ns per page walk. The few TLB hits among the
//!   reads are counted in the time, not in the walks.
//!
//! A third phase times CKI compaction: a `COMPACT_POOL`-byte cloud host is
//! filled with cloned `COMPACT_SEG`-byte containers, every other one is
//! stopped, and one `compact()` slides the rest down; host ns per
//! resident page it migrates.
//!
//! Each backend is booted `RUNS` times, alternating, and each value is
//! the median over the batches of all its runs (one compaction per run). The simulated side is the
//! same in every run; only host time varies, so the result lives in
//! `FILE`, outside `results/BENCH_*.json`, and is checked loosely: a
//! value fails only when it exceeds `REGRESSION` times the committed
//! one, so a shared runner's noise does not make the check flap.
//! `repro micro` writes nothing; it prints the fresh medians in the
//! committed file's format.

use std::path::Path;
use std::time::Instant;

use cki::{Backend, CloudHost, Stack, StackConfig, StartSpec};
use obs::rng::SmallRng;

use crate::outcome::{flat_json, parse_bench_json, Value};

/// The committed medians, relative to the working directory.
const FILE: &str = "results/host/BENCH_micro.json";
/// How many times the committed value a fresh one may reach.
const REGRESSION: f64 = 2.0;
/// Bytes demand-faulted, then read at random: about ten times the reach
/// of the default TLB (3,072 4 KiB entries).
const REGION: u64 = 128 * 1024 * 1024;
/// Pages first-touched per timed fault batch.
const FAULT_BATCH: u64 = 1024;
/// Timed batches of random reads.
const WALK_BATCHES: usize = 25;
/// Random reads per walk batch.
const WALK_BATCH: usize = 20_000;
/// Fresh boots per backend.
const RUNS: usize = 5;
/// Physical memory of the compaction phase's cloud host.
const COMPACT_POOL: u64 = 1024 * MIB;
/// Segment of each container the compaction phase starts.
const COMPACT_SEG: u64 = 32 * MIB;

const PAGE: u64 = 4096;
const MIB: u64 = 1024 * 1024;

/// Median of `v` (the upper one of an even count).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Appends the host ns per demand fault and per TLB-miss walk of each
/// batch of one run on `backend`.
fn measure(backend: Backend, per_fault: &mut Vec<f64>, per_walk: &mut Vec<f64>) {
    let mut stack = Stack::new(
        backend,
        StackConfig {
            mem_bytes: 1024 * 1024 * 1024,
            vm_bytes: 512 * 1024 * 1024,
            ..StackConfig::default()
        },
    );
    let base = stack.env().mmap(REGION).expect("region mapping");

    let faults = |s: &Stack| s.kernel.metrics.value_of("os.pgfaults", None);
    for batch in (0..REGION / PAGE).step_by(FAULT_BATCH as usize) {
        let before = faults(&stack);
        let t = Instant::now();
        let mut env = stack.env();
        for page in batch..batch + FAULT_BATCH {
            env.touch(base + page * PAGE, true).expect("first touch");
        }
        let ns = t.elapsed().as_nanos() as f64;
        per_fault.push(ns / (faults(&stack) - before) as f64);
    }

    let mut rng = SmallRng::seed_from_u64(0x3a1c);
    for _ in 0..WALK_BATCHES {
        let offsets: Vec<u64> = (0..WALK_BATCH)
            .map(|_| rng.gen_range(0..REGION / 8) * 8)
            .collect();
        let before = stack.machine.cpu.page_walks();
        let t = Instant::now();
        let mut env = stack.env();
        for &off in &offsets {
            env.touch(base + off, false).expect("read");
        }
        let ns = t.elapsed().as_nanos() as f64;
        per_walk.push(ns / (stack.machine.cpu.page_walks() - before) as f64);
    }
}

/// Host ns per resident page one CKI compaction of a fragmented pool
/// migrates.
fn measure_compaction() -> f64 {
    let mut host = CloudHost::new(COMPACT_POOL, COMPACT_POOL / 8);
    let spec = StartSpec::new(COMPACT_SEG).with_warmup_pages(64).cloned();
    let mut ids = Vec::new();
    while let Ok(id) = host.start(spec) {
        ids.push(id);
    }
    for &id in ids.iter().step_by(2) {
        host.stop_container(id).expect("running container");
    }
    let t = Instant::now();
    let report = host.compact();
    let ns = t.elapsed().as_nanos() as f64;
    assert!(report.moved > 0, "the pool must fragment: {report:?}");
    ns / report.pages_migrated as f64
}

/// Measures both backends and returns the medians as named scalars.
fn measure_all() -> Vec<(String, Value)> {
    let backends = [(Backend::Cki, "cki"), (Backend::HvmBm, "hvm")];
    let mut batches = vec![(Vec::new(), Vec::new()); backends.len()];
    let mut compactions = Vec::new();
    for _ in 0..RUNS {
        for ((backend, _), (faults, walks)) in backends.iter().zip(&mut batches) {
            measure(*backend, faults, walks);
        }
        compactions.push(measure_compaction());
    }
    let mut out = Vec::new();
    for ((_, name), (faults, walks)) in backends.iter().zip(batches) {
        out.push((
            format!("{name}.demand_fault_ns"),
            Value::Fixed(median(faults), 1),
        ));
        out.push((
            format!("{name}.tlb_miss_walk_ns"),
            Value::Fixed(median(walks), 1),
        ));
    }
    out.push((
        "cki.compact_page_ns".to_owned(),
        Value::Fixed(median(compactions), 1),
    ));
    out
}

/// Checks `fresh` against the committed `text`: every fresh key must be
/// committed, and no fresh value may exceed [`REGRESSION`] times it.
/// Committed keys the run does not produce (the `parent.` baseline) are
/// left alone.
fn check(text: &str, fresh: &[(String, Value)]) -> Vec<String> {
    let committed = match parse_bench_json(text) {
        Ok(c) => c,
        Err(err) => return vec![format!("{FILE}: {err}")],
    };
    let mut failures = Vec::new();
    for (key, value) in fresh {
        let was = committed.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        match (was, value) {
            (Some(Value::Fixed(was, _)), Value::Fixed(now, _)) => {
                if *now > REGRESSION * was {
                    failures.push(format!(
                        "{FILE}: {key} {now:.1} ns is over {REGRESSION}x the committed {was:.1}"
                    ));
                }
            }
            (Some(was), _) => failures.push(format!(
                "{FILE}: {key} committed as {}, not a decimal",
                was.render()
            )),
            (None, _) => failures.push(format!("{FILE}: {key} not committed")),
        }
    }
    failures
}

/// `repro micro`: measures, prints the medians and checks them against
/// the committed file. Returns the failures.
pub fn run() -> Vec<String> {
    let fresh = measure_all();
    print!("{}", flat_json(&fresh));
    let failures = match std::fs::read_to_string(Path::new(FILE)) {
        Ok(text) => check(&text, &fresh),
        Err(err) => vec![format!("{FILE}: {err}")],
    };
    println!(
        "repro micro: {} medians checked against {FILE} (fail above {REGRESSION}x), {} failure(s)",
        fresh.len(),
        failures.len()
    );
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalars(pairs: &[(&str, f64)]) -> Vec<(String, Value)> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_owned(), Value::Fixed(v, 1)))
            .collect()
    }

    #[test]
    fn only_a_large_regression_or_a_missing_key_fails() {
        let committed = flat_json(&scalars(&[
            ("cki.tlb_miss_walk_ns", 100.0),
            ("parent.cki.tlb_miss_walk_ns", 300.0),
        ]));
        assert!(check(&committed, &scalars(&[("cki.tlb_miss_walk_ns", 199.0)])).is_empty());
        assert!(check(&committed, &scalars(&[("cki.tlb_miss_walk_ns", 20.0)])).is_empty());
        let slow = check(&committed, &scalars(&[("cki.tlb_miss_walk_ns", 201.0)]));
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert!(slow[0].contains("cki.tlb_miss_walk_ns"), "{slow:?}");
        let new = check(&committed, &scalars(&[("hvm.tlb_miss_walk_ns", 1.0)]));
        assert!(new[0].contains("not committed"), "{new:?}");
        assert_eq!(check("[]", &[]).len(), 1, "a malformed file fails");
    }

    #[test]
    fn committed_file_covers_every_measured_key() {
        let text = std::fs::read_to_string(Path::new("../..").join(FILE)).expect("committed");
        let committed = parse_bench_json(&text).expect("parses");
        let keys = ["cki", "hvm"]
            .iter()
            .flat_map(|b| ["demand_fault_ns", "tlb_miss_walk_ns"].map(|w| format!("{b}.{w}")))
            .chain(["cki.compact_page_ns".to_owned()]);
        for key in keys {
            for prefix in ["", "parent."] {
                let key = format!("{prefix}{key}");
                assert!(
                    committed
                        .iter()
                        .any(|(k, v)| *k == key && matches!(v, Value::Fixed(..))),
                    "{key} missing"
                );
            }
        }
    }
}
