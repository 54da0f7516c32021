//! `repro micro`: host time per simulated event, for the events CKI's
//! cost argument prices: page faults, page walks, syscalls, doorbells,
//! host service passes, compaction and KSM page-table checks.
//!
//! Every key is host ns per event, on CKI (`cki.`) and HVM-BM (`hvm.`)
//! unless it names one backend:
//!
//! - `demand_fault_ns`: first writes to every page of a `REGION`-byte
//!   mapping, in batches of `FAULT_BATCH` pages; per page fault (on
//!   HVM-BM this includes the EPT violations the faults raise). The
//!   stacks boot as perfbench's `memwalk` does.
//! - `tlb_miss_walk_ns`: random reads over the faulted region, about ten
//!   times the TLB's reach, in `WALK_BATCHES` batches of `WALK_BATCH`;
//!   per page walk (1-D on CKI, 2-D through the EPT on HVM-BM). The few
//!   TLB hits among the reads are counted in the time, not in the walks.
//! - `getpid_ns`: `Sys::Getpid` through `Stack::env` on the same stack,
//!   in `SYSCALL_BATCHES` batches of `SYSCALL_BATCH`.
//! - `net_send_ns`, `net_recv_ns` and `service_pass_ns`: on a two-node
//!   `workloads::serving::Cluster`, each round the client sends
//!   `NET_BURST` one-frame requests (`Sys::NetSend`), one
//!   `Cluster::service` pass moves them, and the server receives them
//!   (`Sys::NetRecv`). The three are timed apart, in `NET_BATCHES`
//!   batches of `NET_ROUNDS` rounds. The NIC rings a doorbell per send
//!   (`kick_batch` 1), so the doorbell's host cost is inside `NetSend`.
//! - `cki.compact_page_ns`: a `COMPACT_POOL`-byte cloud host is filled
//!   with cloned `COMPACT_SEG`-byte containers, every other one is
//!   stopped, and one `compact()` slides the rest down; per resident page
//!   it migrates.
//! - `cki.ksm_update_pte_ns`: `Ksm::update_pte` installing a user data
//!   PTE that passes validation, cycling over the 512 slots of one
//!   declared leaf page-table page, in `KSM_BATCHES` batches of
//!   `KSM_BATCH`.
//!
//! Every timed batch takes at least about a millisecond of host time, so
//! timer granularity cannot move a ~20 ns event. Each backend is set up
//! `RUNS` times, alternating, and each value is the median over the
//! batches of all its runs (one compaction per run). The simulated side
//! is the same in every run; only host time varies, so the result lives
//! in `FILE`, outside `results/BENCH_*.json`, and is checked loosely: a
//! value fails only when it exceeds `REGRESSION` times the committed
//! one, so a shared runner's noise does not make the check flap.
//! `repro micro` writes nothing; it prints the fresh medians in the
//! committed file's format.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use cki::netsim::Coalesce;
use cki::{Backend, CloudHost, Stack, StackConfig, StartSpec};
use cki_core::Ksm;
use guest_os::{Fd, Sys};
use obs::rng::SmallRng;
use sim_hw::{HwExtensions, Machine};
use sim_mem::{pte, Segment};
use workloads::serving::{Cluster, ServingConfig, SERVICE_PORT};

use crate::outcome::{flat_json, parse_bench_json, Value};

/// The committed medians, relative to the working directory.
const FILE: &str = "results/host/BENCH_micro.json";
/// How many times the committed value a fresh one may reach.
const REGRESSION: f64 = 2.0;
/// Every key `repro micro` measures, in the order it prints them. The
/// committed file holds each, and its `parent.` baseline.
const KEYS: [&str; 14] = [
    "cki.demand_fault_ns",
    "cki.tlb_miss_walk_ns",
    "hvm.demand_fault_ns",
    "hvm.tlb_miss_walk_ns",
    "cki.compact_page_ns",
    "cki.getpid_ns",
    "cki.net_send_ns",
    "cki.net_recv_ns",
    "cki.service_pass_ns",
    "hvm.getpid_ns",
    "hvm.net_send_ns",
    "hvm.net_recv_ns",
    "hvm.service_pass_ns",
    "cki.ksm_update_pte_ns",
];
/// Bytes demand-faulted, then read at random: about ten times the reach
/// of the default TLB (3,072 4 KiB entries).
const REGION: u64 = 128 * 1024 * 1024;
/// Pages first-touched per timed fault batch.
const FAULT_BATCH: u64 = 1024;
/// Timed batches of random reads.
const WALK_BATCHES: usize = 25;
/// Random reads per walk batch.
const WALK_BATCH: usize = 20_000;
/// Timed batches of `getpid` per run.
const SYSCALL_BATCHES: usize = 4;
/// `getpid` calls per batch.
const SYSCALL_BATCH: u64 = 100_000;
/// Timed batches of network rounds per run.
const NET_BATCHES: usize = 4;
/// Rounds per network batch.
const NET_ROUNDS: u64 = 256;
/// Requests the client sends per round; the default ring holds 32.
const NET_BURST: u64 = 16;
/// Timed batches of KSM PTE updates per run.
const KSM_BATCHES: usize = 4;
/// `update_pte` calls per batch.
const KSM_BATCH: u64 = 50_000;
/// Fresh setups per backend.
const RUNS: usize = 5;
/// Physical memory of the compaction phase's cloud host.
const COMPACT_POOL: u64 = 1024 * MIB;
/// Segment of each container the compaction phase starts.
const COMPACT_SEG: u64 = 32 * MIB;

const PAGE: u64 = 4096;
const MIB: u64 = 1024 * 1024;

/// Host ns per event of every timed batch, one list per entry of
/// [`KEYS`].
struct Samples(Vec<Vec<f64>>);

impl Samples {
    /// Records a batch of `events` events of `key` that took `ns`.
    fn push(&mut self, key: &str, ns: u128, events: u64) {
        let i = KEYS
            .iter()
            .position(|k| *k == key)
            .unwrap_or_else(|| panic!("{key} is not in KEYS"));
        self.0[i].push(ns as f64 / events as f64);
    }
}

/// Median of `v` (the upper one of an even count).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// One run on `backend` (key prefix `name`): demand faults, TLB-miss
/// walks and `getpid` on one fresh stack.
fn measure_stack(backend: Backend, name: &str, samples: &mut Samples) {
    let mut stack = Stack::new(
        backend,
        StackConfig {
            mem_bytes: 1024 * 1024 * 1024,
            vm_bytes: 512 * 1024 * 1024,
            ..StackConfig::default()
        },
    );
    let base = stack.env().mmap(REGION).expect("region mapping");

    let key = format!("{name}.demand_fault_ns");
    let faults = |s: &Stack| s.kernel.metrics.value_of("os.pgfaults", None);
    for batch in (0..REGION / PAGE).step_by(FAULT_BATCH as usize) {
        let before = faults(&stack);
        let t = Instant::now();
        let mut env = stack.env();
        for page in batch..batch + FAULT_BATCH {
            env.touch(base + page * PAGE, true).expect("first touch");
        }
        let ns = t.elapsed().as_nanos();
        samples.push(&key, ns, faults(&stack) - before);
    }

    let key = format!("{name}.tlb_miss_walk_ns");
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
        let ns = t.elapsed().as_nanos();
        samples.push(&key, ns, stack.machine.cpu.page_walks() - before);
    }

    let key = format!("{name}.getpid_ns");
    for _ in 0..SYSCALL_BATCHES {
        let t = Instant::now();
        let mut env = stack.env();
        for _ in 0..SYSCALL_BATCH {
            black_box(env.sys(Sys::Getpid).expect("getpid"));
        }
        samples.push(&key, t.elapsed().as_nanos(), SYSCALL_BATCH);
    }
}

/// One run on `backend` (key prefix `name`): `NetSend`, service passes
/// and `NetRecv` on a fresh two-node cluster, node 1 sending to node 0.
fn measure_net(backend: Backend, name: &str, samples: &mut Samples) {
    let cfg = ServingConfig {
        backend,
        clients: 1,
        coalesce: Coalesce {
            kick_batch: 1,
            ..Coalesce::default()
        },
        ..ServingConfig::default()
    };
    let mut cl = Cluster::build(&cfg);
    let server_mac = cl.server_mac();
    let mut bufs = [0; 2];
    for (node, buf) in bufs.iter_mut().enumerate() {
        cl.enter(node);
        let page = Sys::Mmap {
            len: PAGE,
            write: true,
        };
        *buf = cl.sys(node, page).expect("payload page");
    }
    cl.enter(0);
    let srv = cl.sys(0, Sys::NetSocket).expect("server socket") as Fd;
    let listen = Sys::NetListen {
        fd: srv,
        port: SERVICE_PORT,
    };
    cl.sys(0, listen).expect("listen");
    cl.enter(1);
    let cli = cl.sys(1, Sys::NetSocket).expect("client socket") as Fd;
    let connect = Sys::NetConnect {
        fd: cli,
        mac: server_mac,
        port: SERVICE_PORT,
    };
    cl.sys(1, connect).expect("connect");

    let send = Sys::NetSend {
        fd: cli,
        buf: bufs[1],
        len: cfg.request_bytes,
    };
    let recv = Sys::NetRecv {
        fd: srv,
        buf: bufs[0],
        len: 2048,
    };
    for _ in 0..NET_BATCHES {
        let (mut send_ns, mut pass_ns, mut recv_ns) = (0, 0, 0);
        for _ in 0..NET_ROUNDS {
            cl.enter(1);
            let t = Instant::now();
            for _ in 0..NET_BURST {
                cl.sys(1, send).expect("TX ring has room");
            }
            send_ns += t.elapsed().as_nanos();

            let t = Instant::now();
            let moved = cl.service();
            pass_ns += t.elapsed().as_nanos();
            assert_eq!(moved as u64, 2 * NET_BURST, "drained and delivered");

            cl.enter(0);
            let t = Instant::now();
            for _ in 0..NET_BURST {
                cl.sys(0, recv).expect("request delivered");
            }
            recv_ns += t.elapsed().as_nanos();
        }
        samples.push(
            &format!("{name}.net_send_ns"),
            send_ns,
            NET_ROUNDS * NET_BURST,
        );
        samples.push(&format!("{name}.service_pass_ns"), pass_ns, NET_ROUNDS);
        samples.push(
            &format!("{name}.net_recv_ns"),
            recv_ns,
            NET_ROUNDS * NET_BURST,
        );
    }
}

/// One CKI compaction of a fragmented pool, per resident page migrated.
fn measure_compaction(samples: &mut Samples) {
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
    let ns = t.elapsed().as_nanos();
    assert!(report.moved > 0, "the pool must fragment: {report:?}");
    samples.push("cki.compact_page_ns", ns, report.pages_migrated);
}

/// KSM PTE updates that pass validation, on a fresh 64 MiB segment.
fn measure_ksm(samples: &mut Samples) {
    let mut m = Machine::new(1 << 30, HwExtensions::cki());
    let pages = 16 * 1024;
    let start = m.frames.alloc_contiguous(pages).expect("segment frames");
    let seg = Segment {
        start,
        end: start + pages * PAGE,
    };
    let mut ksm = Ksm::new(&mut m, seg, 2, 3);
    let ptp = start + 64 * PAGE;
    ksm.declare_ptp(&mut m, ptp, 1).expect("leaf table");
    let entry = pte::make(start + 65 * PAGE, pte::P | pte::W | pte::U | pte::NX);
    for _ in 0..KSM_BATCHES {
        let t = Instant::now();
        for i in 0..KSM_BATCH {
            let old = ksm.update_pte(&mut m, ptp, (i % 512) as usize, entry);
            black_box(old.expect("validated"));
        }
        samples.push("cki.ksm_update_pte_ns", t.elapsed().as_nanos(), KSM_BATCH);
    }
}

/// Measures every event and returns the medians under [`KEYS`].
fn measure_all() -> Vec<(String, Value)> {
    let mut samples = Samples(vec![Vec::new(); KEYS.len()]);
    for _ in 0..RUNS {
        for (backend, name) in [(Backend::Cki, "cki"), (Backend::HvmBm, "hvm")] {
            measure_stack(backend, name, &mut samples);
            measure_net(backend, name, &mut samples);
        }
        measure_compaction(&mut samples);
        measure_ksm(&mut samples);
    }
    KEYS.iter()
        .zip(samples.0)
        .map(|(key, batches)| ((*key).to_owned(), Value::Fixed(median(batches), 1)))
        .collect()
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
        for key in KEYS {
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
