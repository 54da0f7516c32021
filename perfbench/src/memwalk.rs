//! `memwalk`: demand faults, then random read-modify-write updates over a
//! region far larger than the TLB's reach (GUPS, Table 4).
//!
//! One `Stack` per backend, CKI then HVM-BM. The measured phase first
//! demand-faults every page of a [`REGION`]-byte mapping (about ten times
//! the TLB's ~12 MiB reach), then makes [`UPDATES`] random 8-byte updates
//! at seed-drawn offsets. Each op is one update. TLB misses and page walks
//! do the work: 1-D walks on CKI, 2-D walks through the EPT on HVM-BM.
//! There are no syscalls in the update loop, and neither netsim nor the
//! control plane runs.

use std::time::Instant;

use cki::obs::rng::SmallRng;
use cki::{Backend, Stack, StackConfig};

use crate::round::{self, Digest, Phase, Round};
use crate::trace::Tracer;

const PAGE: u64 = 4096;
/// Bytes demand-faulted and then updated.
pub const REGION: u64 = 128 * 1024 * 1024;
/// Updates per backend per round.
pub const UPDATES: usize = 400_000;
/// Application compute per update (the XOR), as in `workloads::gups`.
const UPDATE_COMPUTE: u64 = 25;

fn boot(backend: Backend) -> (Stack, u64) {
    let mut stack = Stack::new(
        backend,
        StackConfig {
            mem_bytes: 1024 * 1024 * 1024,
            vm_bytes: 512 * 1024 * 1024,
            ..StackConfig::default()
        },
    );
    let base = stack.env().mmap(REGION).expect("region mapping");
    (stack, base)
}

fn measure(
    stack: &mut Stack,
    base: u64,
    b: &'static str,
    offsets: &[u64],
    tr: &mut Tracer,
    r: &mut Round,
) -> Phase {
    let mut ph = Phase::new(b);
    let mut digest = Digest::new();
    let tags0 = round::tags(&stack.machine.cpu.clock);
    let snap0 = stack.machine.cpu.metrics.snapshot();
    let os0 = stack.kernel.metrics.snapshot();
    let start = stack.machine.cpu.clock.mark();
    let mut env = stack.env();

    let mut faults_ok = true;
    let mut va = base;
    while va < base + REGION {
        tr.set_op(va);
        let s = tr.begin("guest.fault");
        faults_ok &= env.touch(va, true).is_ok();
        tr.end(s);
        va += PAGE;
    }
    r.check(faults_ok, || format!("memwalk {b}: a first touch failed"));

    let updates = env.machine.cpu.clock.mark();
    let mut updates_ok = true;
    ph.lat.reserve(offsets.len());
    for (i, &off) in offsets.iter().enumerate() {
        tr.set_op(i as u64);
        let mark = env.machine.cpu.clock.mark();
        let s = tr.begin("guest.touch");
        updates_ok &= env.touch(base + off, true).is_ok();
        tr.end(s);
        env.compute(UPDATE_COMPUTE);
        let lat = env.machine.cpu.clock.since(mark);
        ph.lat.push(lat);
        digest.push(lat);
    }
    ph.attempted = offsets.len() as u64;
    r.check(updates_ok, || format!("memwalk {b}: an update failed"));
    ph.op_cycles = env.machine.cpu.clock.since(updates);
    ph.sim_cycles = env.machine.cpu.clock.since(start);

    let d = stack.machine.cpu.metrics.snapshot().delta(&snap0);
    let tags1 = round::tags(&stack.machine.cpu.clock);
    round::machine_layers(r, b, &tags0, &tags1, &d);
    let os = stack.kernel.metrics.snapshot().delta(&os0);
    round::os_layers(
        r,
        b,
        round::counter(&os, "os.syscalls"),
        round::counter(&os, "os.pgfaults"),
    );
    digest.push_counters(&d);
    digest.push_counters(&os);
    for t in tags1 {
        digest.push(t);
    }
    ph.digest = digest.value();
    ph
}

pub fn round(seed: u64, tr: &mut Tracer, traced: bool) -> Round {
    let mut r = Round::default();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3e3_3a1c);
    let offsets: Vec<u64> = (0..UPDATES)
        .map(|_| rng.gen_range(0..REGION / 8) * 8)
        .collect();

    let t0 = Instant::now();
    let booted = [(boot(Backend::Cki), "cki"), (boot(Backend::HvmBm), "hvm")];
    r.setup_s = t0.elapsed().as_secs_f64();

    for ((mut stack, base), b) in booted {
        tr.set_enabled(traced);
        tr.set_backend(b);
        let t = Instant::now();
        let ph = measure(&mut stack, base, b, &offsets, tr, &mut r);
        r.host_s += t.elapsed().as_secs_f64();
        tr.set_enabled(false);
        r.phases.push(ph);
    }
    let p50 = |ph: &Phase| {
        let mut lat = ph.lat.clone();
        lat.sort_unstable();
        round::quantile(&lat, 0.5)
    };
    let (cki, hvm) = (p50(&r.phases[0]), p50(&r.phases[1]));
    r.check(hvm > cki, || {
        format!("memwalk: HVM-BM p50 {hvm} cycles is not above CKI's {cki} (2-D walks)")
    });
    r
}
