//! `churn`: short-lived containers started, invoked and stopped on one
//! CKI host whose pool runs near capacity.
//!
//! Set-up boots a `CloudHost` (about 3 GiB pool), the template of every
//! size class, and clones until the pool is full (about [`FLEET`]
//! containers, unfragmented). Each measured op
//! clones a container of a random size class (evicting random victims
//! until the request fits in total free memory), invokes it (`getpid`,
//! then mmap and touch 1–16 pages) and stops a random victim. A start
//! that fails with `OutOfContiguousMemory` compacts and retries; the op's
//! latency is the start including that stall, so p50 is the clone path
//! and p99 the compaction stall. A start that still fails is a failed op.
//!
//! The seed draws each op's invoke size. The fleet schedule, that is the
//! size classes and the victims, comes from one fixed stream for every
//! seed: over a round of this length, random schedules differ by about a
//! third in how many compactions they need (and so in host time), which
//! would hide any change to the code under test.
//!
//! The HVM-BM phase runs [`HVM_OPS`] ops of the same shape, with size
//! classes and invoke sizes drawn from the seed, but every start is a cold
//! VM boot with the same init warmup: HVM-BM has no snapshot-clone path,
//! and each VM gets its own machine, so there is no pool to compact. Its
//! ops are cheap in host time, so there are ten times as many, which keeps
//! the seed's share of its simulated throughput small.

use std::time::Instant;

use cki::guest_os::{Env, Sys};
use cki::obs::rng::SmallRng;
use cki::{
    Backend, CloudHost, CompactionReport, ContainerId, HostError, SloWatchdog, Stack, StackConfig,
    StartSpec,
};

use crate::round::{self, Digest, Phase, Round};
use crate::trace::Tracer;

const MIB: u64 = 1024 * 1024;
const PAGE: u64 = 4096;

/// The size classes a multi-tenant host sees.
pub const SIZES_MIB: [u64; 4] = [16, 24, 32, 48];
/// Containers kept running between ops.
pub const FLEET: usize = 100;
/// Heap pages each container's init touches during warmup.
const WARMUP_PAGES: u64 = 8;
/// Measured ops per round on CKI.
pub const OPS: usize = 80;
/// Measured ops per round on HVM-BM.
pub const HVM_OPS: usize = 800;

/// Seed of the fleet schedule shared by every run.
const SCHEDULE_SEED: u64 = 0x5eed_c10d;

struct Op {
    size: u64,
    pages: u64,
}

fn spec(size: u64) -> StartSpec {
    StartSpec::new(size)
        .with_warmup_pages(WARMUP_PAGES)
        .cloned()
}

fn draw_op(schedule: &mut SmallRng, rng: &mut SmallRng) -> Op {
    Op {
        size: SIZES_MIB[schedule.gen_range(0..SIZES_MIB.len() as u64) as usize] * MIB,
        pages: rng.gen_range(1..17),
    }
}

fn stop_random(host: &mut CloudHost, fleet: &mut Vec<ContainerId>, rng: &mut SmallRng) {
    let victim = fleet.swap_remove(rng.gen_range(0..fleet.len() as u64) as usize);
    host.stop_container(victim)
        .expect("fleet member is running");
}

/// Starts a clone, compacting and retrying once on fragmentation.
fn start(
    host: &mut CloudHost,
    size: u64,
    tr: &mut Tracer,
    compactions: &mut Vec<CompactionReport>,
) -> Result<ContainerId, HostError> {
    let s = tr.begin("cloud.start");
    let first = host.start(spec(size));
    tr.end(s);
    match first {
        Err(HostError::OutOfContiguousMemory) => {
            let s = tr.begin("cloud.compact");
            compactions.push(host.compact());
            tr.end(s);
            let s = tr.begin("cloud.start");
            let retry = host.start(spec(size));
            tr.end(s);
            retry
        }
        other => other,
    }
}

/// What one invoke observed inside the container.
struct Invoke {
    pid: u64,
    ok: bool,
    syscalls: u64,
    pgfaults: u64,
}

/// `getpid`, then mmap and touch `pages` pages.
fn invoke(env: &mut Env<'_>, pages: u64, tr: &mut Tracer) -> Invoke {
    let os = |env: &Env<'_>| {
        let m = &env.kernel.metrics;
        (
            m.value_of("os.syscalls", None),
            m.value_of("os.pgfaults", None),
        )
    };
    let (sys0, pf0) = os(env);
    let s = tr.begin("guest.sys.getpid");
    let pid = env.sys(Sys::Getpid).unwrap_or(0);
    tr.end(s);
    let s = tr.begin("guest.sys.mmap");
    let base = env.mmap(pages * PAGE);
    tr.end(s);
    let ok = base.is_ok_and(|base| {
        let s = tr.begin("guest.touch_range");
        let r = env.touch_range(base, pages * PAGE, true);
        tr.end(s);
        r.is_ok()
    });
    let (sys1, pf1) = os(env);
    Invoke {
        pid,
        ok,
        syscalls: sys1 - sys0,
        pgfaults: pf1 - pf0,
    }
}

pub fn round(seed: u64, tr: &mut Tracer, traced: bool) -> Round {
    let mut r = Round::default();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc4_0c4e);
    let mut schedule = SmallRng::seed_from_u64(SCHEDULE_SEED);

    // Set-up: host, every size class's template, and the warm fleet.
    let t0 = Instant::now();
    let mut host = CloudHost::new(6656 * MIB, 512 * MIB);
    host.enable_observability(64, SloWatchdog::cloud_default(1_000_000));
    for mib in SIZES_MIB {
        host.ensure_template(&spec(mib * MIB))
            .expect("template boots");
    }
    // The fill stops at the first clone that does not fit; nothing has
    // stopped yet, so the pool is not fragmented and nothing compacts.
    let mut fleet: Vec<ContainerId> = Vec::with_capacity(FLEET + 1);
    while fleet.len() < FLEET {
        let size = draw_op(&mut schedule, &mut rng).size;
        match host.start(spec(size)) {
            Ok(id) => fleet.push(id),
            Err(HostError::OutOfContiguousMemory) => break,
            Err(e) => panic!("fleet fill: {e}"),
        }
    }
    let ops: Vec<Op> = (0..OPS).map(|_| draw_op(&mut schedule, &mut rng)).collect();
    let mut hvm_sizes = SmallRng::seed_from_u64(seed ^ 0x4b_5e);
    let hvm_ops: Vec<Op> = (0..HVM_OPS)
        .map(|_| draw_op(&mut hvm_sizes, &mut rng))
        .collect();
    r.setup_s = t0.elapsed().as_secs_f64();

    // Measured: CKI churn.
    tr.set_enabled(traced);
    tr.set_backend("cki");
    let clock0 = host.machine.cpu.clock.cycles();
    let tags0 = round::tags(&host.machine.cpu.clock);
    let snap0 = host.machine.cpu.metrics.snapshot();
    let obs0 = host.obs_overhead_cycles();
    let mut compactions = Vec::new();
    let mut cki = Phase::new("cki");
    let mut digest = Digest::new();
    let (mut syscalls, mut pgfaults) = (0, 0);
    let t1 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        tr.set_op(i as u64);
        while host.free_bytes() < op.size {
            let s = tr.begin("cloud.stop");
            stop_random(&mut host, &mut fleet, &mut schedule);
            tr.end(s);
        }
        cki.attempted += 1;
        let mark = host.machine.cpu.clock.mark();
        let id = match start(&mut host, op.size, tr, &mut compactions) {
            Ok(id) => id,
            Err(e) => {
                cki.failed += 1;
                digest.push_str(&e.to_string());
                continue;
            }
        };
        let lat = host.machine.cpu.clock.since(mark);
        cki.lat.push(lat);
        fleet.push(id);

        let s = tr.begin("cloud.enter");
        let inv = host.enter(id, |env| invoke(env, op.pages, tr));
        tr.end(s);
        match inv {
            Ok(inv) => {
                r.check(inv.pid == 1 && inv.ok, || {
                    format!("churn op {i}: getpid {} / touch ok {}", inv.pid, inv.ok)
                });
                syscalls += inv.syscalls;
                pgfaults += inv.pgfaults;
                digest.push(inv.pid);
            }
            Err(e) => r.check(false, || format!("churn op {i}: enter failed: {e}")),
        }
        digest.push(op.size);
        digest.push(lat);

        if fleet.len() > FLEET {
            let s = tr.begin("cloud.stop");
            stop_random(&mut host, &mut fleet, &mut schedule);
            tr.end(s);
        }
    }
    let cki_host_s = t1.elapsed().as_secs_f64();
    tr.set_enabled(false);

    cki.sim_cycles = host.machine.cpu.clock.cycles() - clock0;
    cki.op_cycles = cki.sim_cycles;
    let d = host.machine.cpu.metrics.snapshot().delta(&snap0);
    let tags1 = round::tags(&host.machine.cpu.clock);
    round::machine_layers(&mut r, "cki", &tags0, &tags1, &d);
    round::os_layers(&mut r, "cki", syscalls, pgfaults);
    for c in &compactions {
        digest.push(c.moved);
        digest.push(c.pages_migrated);
        digest.push(c.pte_rewrites);
        digest.push(c.cycles);
    }
    digest.push_counters(&d);
    for t in tags1 {
        digest.push(t);
    }
    cki.digest = digest.value();
    r.set(
        "cloud.compactions",
        round::counter(&d, "cloud.compactions") as f64,
    );
    r.set(
        "cloud.pages_migrated",
        round::counter(&d, "cloud.pages_migrated") as f64,
    );
    r.set(
        "cloud.clone_pages_copied",
        round::counter(&d, "cloud.clone_pages_copied") as f64,
    );
    r.set(
        "cloud.compact.sim_cycles",
        compactions.iter().map(|c| c.cycles).sum::<u64>() as f64,
    );
    r.set(
        "obs.overhead_pct",
        100.0 * (host.obs_overhead_cycles() - obs0) as f64 / cki.sim_cycles.max(1) as f64,
    );
    r.phases.push(cki);
    drop(host);

    // Measured: HVM-BM cold starts.
    tr.set_enabled(traced);
    tr.set_backend("hvm");
    let mut hvm = Phase::new("hvm");
    let mut digest = Digest::new();
    let mut tags = [0u64; 11];
    let mut d = cki::obs::MetricsSnapshot::default();
    let (mut syscalls, mut pgfaults) = (0, 0);
    let t2 = Instant::now();
    for (i, op) in hvm_ops.iter().enumerate() {
        tr.set_op(i as u64);
        hvm.attempted += 1;
        let s = tr.begin("stack.boot");
        let stack = Stack::try_new(
            Backend::HvmBm,
            StackConfig {
                mem_bytes: op.size + 64 * MIB,
                vm_bytes: op.size,
                ..StackConfig::default()
            },
        );
        tr.end(s);
        let mut stack = match stack {
            Ok(stack) => stack,
            Err(e) => {
                hvm.failed += 1;
                digest.push_str(&e.to_string());
                continue;
            }
        };
        let mut env = stack.env();
        let s = tr.begin("guest.warmup");
        let warm = env.sys(Sys::Execve).is_ok()
            && env
                .mmap(WARMUP_PAGES * PAGE)
                .is_ok_and(|base| env.touch_range(base, WARMUP_PAGES * PAGE, true).is_ok());
        tr.end(s);
        let lat = env.machine.cpu.clock.cycles();
        let inv = invoke(&mut env, op.pages, tr);
        r.check(warm && inv.pid == 1 && inv.ok, || {
            format!(
                "churn hvm op {i}: warmup {warm} / getpid {} / touch ok {}",
                inv.pid, inv.ok
            )
        });
        hvm.lat.push(lat);
        hvm.sim_cycles += stack.machine.cpu.clock.cycles();
        let k = &stack.kernel.metrics;
        syscalls += k.value_of("os.syscalls", None);
        pgfaults += k.value_of("os.pgfaults", None);
        for (t, c) in tags.iter_mut().zip(round::tags(&stack.machine.cpu.clock)) {
            *t += c;
        }
        for (name, label, v) in stack.machine.cpu.metrics.iter_counters() {
            let key = match label {
                Some(l) => format!("{name}{{{l}}}"),
                None => name.to_string(),
            };
            *d.counters.entry(key).or_insert(0) += v;
        }
        digest.push(op.size);
        digest.push(lat);
        digest.push(inv.pid);
        let s = tr.begin("stack.drop");
        drop(stack);
        tr.end(s);
    }
    let hvm_host_s = t2.elapsed().as_secs_f64();
    tr.set_enabled(false);

    hvm.op_cycles = hvm.sim_cycles;
    round::machine_layers(&mut r, "hvm", &[0; 11], &tags, &d);
    round::os_layers(&mut r, "hvm", syscalls, pgfaults);
    digest.push_counters(&d);
    for t in tags {
        digest.push(t);
    }
    hvm.digest = digest.value();
    r.phases.push(hvm);
    r.host_s = cki_host_s + hvm_host_s;
    r
}
