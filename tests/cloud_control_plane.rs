//! End-to-end tests of the serverless control plane: PCID recycling and
//! monitor teardown over thousands of start/stop cycles, compaction under
//! mixed-size churn, snapshot-clone cost, and differential equivalence of
//! cloned vs cold-booted containers.

use cki::{BootError, CloudHost, HostError, StartSpec};
use dt::program::REGION_SLOTS;
use dt::snapshot_kernel;
use guest_os::{Env, Sys};

const MIB: u64 = 1024 * 1024;

/// More start/stop cycles than there are PCIDs (4096): without tag
/// recycling the host would exhaust the PCID space, and without monitor
/// teardown it would exhaust host frames long before that.
#[test]
fn sequential_churn_outlives_the_pcid_space() {
    let mut h = CloudHost::new(64 * MIB, 16 * MIB);
    let free0 = h.free_bytes();
    let spec = StartSpec::new(4 * MIB).with_warmup_pages(0);
    for i in 0..4100u32 {
        let id = h.start(spec).unwrap_or_else(|e| panic!("cycle {i}: {e}"));
        h.stop_container(id).unwrap();
    }
    assert_eq!(h.running(), 0);
    assert_eq!(h.free_bytes(), free0, "segment pool fully recycled");
    assert_eq!(h.pcids_in_use(), 0, "PCIDs fully recycled");
    assert_eq!(h.started, 4100);
    assert_eq!(h.stopped, 4100);
}

/// Mixed-size churn at near-full pool utilization: whenever total free
/// memory suffices, a start must succeed — directly, or after one
/// explicit compaction pass. Fragmentation never becomes fatal.
#[test]
fn mixed_churn_with_compaction_never_strands_memory() {
    let mut h = CloudHost::new(1024 * MIB, 128 * MIB);
    let sizes = [8 * MIB, 16 * MIB, 32 * MIB];
    let mut rng = obs::rng::SmallRng::seed_from_u64(7);
    let mut fleet: Vec<cki::ContainerId> = Vec::new();
    let mut compactions = 0;
    for i in 0..300 {
        let size = sizes[rng.gen_range(0..sizes.len() as u64) as usize];
        while h.free_bytes() < size && !fleet.is_empty() {
            let victim = fleet.swap_remove(rng.gen_range(0..fleet.len() as u64) as usize);
            h.stop_container(victim).unwrap();
        }
        let spec = StartSpec::new(size).with_warmup_pages(2).cloned();
        let id = match h.start(spec) {
            Ok(id) => id,
            Err(HostError::OutOfContiguousMemory) => {
                // Free memory suffices (ensured above) — this is pure
                // fragmentation, and compaction must recover it.
                let report = h.compact();
                assert!(report.moved > 0, "cycle {i}: compaction found no work");
                compactions += 1;
                h.start(spec)
                    .unwrap_or_else(|e| panic!("cycle {i}: failed after compaction: {e}"))
            }
            Err(e) => panic!("cycle {i}: {e}"),
        };
        fleet.push(id);
    }
    // Survivors (including migrated ones) still answer syscalls.
    for &id in &fleet {
        let pid = h.enter(id, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
        assert_eq!(pid, 1);
    }
    assert!(
        compactions > 0,
        "churn never fragmented the pool — test is not exercising compaction"
    );
}

/// The headline serverless claim: starting from a template snapshot costs
/// at least 5x fewer cycles than a full boot of the same configuration.
#[test]
fn clone_start_is_at_least_5x_cheaper_than_cold_boot() {
    let mut h = CloudHost::new(2048 * MIB, 256 * MIB);
    let spec = StartSpec::new(64 * MIB).with_warmup_pages(64);
    h.ensure_template(&spec).unwrap();

    let mark = h.machine.cpu.clock.mark();
    let cold = h.start(spec).unwrap();
    let boot_cycles = h.machine.cpu.clock.since(mark);
    let mark = h.machine.cpu.clock.mark();
    let cloned = h.start(spec.cloned()).unwrap();
    let clone_cycles = h.machine.cpu.clock.since(mark);

    assert!(
        boot_cycles >= 5 * clone_cycles,
        "boot {boot_cycles} vs clone {clone_cycles}"
    );
    let snap = h.machine.cpu.metrics.snapshot();
    assert_eq!(snap.get("cloud.cold_boots"), 2, "template + cold start");
    assert_eq!(snap.get("cloud.clones"), 1);
    assert!(snap.get("cloud.clone_pages_copied") > 0);
    for id in [cold, cloned] {
        h.stop_container(id).unwrap();
    }
}

/// Runs the same syscall program in a container, returning the encoded
/// results (the dt convention: `Ok(v)` → `v`, `Err(e)` → `-(e+1)`).
fn drive(env: &mut Env<'_>) -> Vec<i64> {
    let enc = |r: Result<u64, guest_os::Errno>| match r {
        Ok(v) => v as i64,
        Err(e) => -(e as i64 + 1),
    };
    let mut out = Vec::new();
    out.push(enc(env.sys(Sys::Getpid)));
    let base = env.mmap(8 * 4096).unwrap();
    env.touch_range(base, 8 * 4096, true).unwrap();
    let fd = env
        .sys(Sys::Open {
            path: "/fn/state",
            create: true,
            trunc: false,
        })
        .unwrap() as guest_os::Fd;
    out.push(enc(env.sys(Sys::Write {
        fd,
        buf: base,
        len: 3000,
    })));
    out.push(enc(env.sys(Sys::Pread {
        fd,
        buf: base,
        len: 512,
        offset: 1024,
    })));
    out.push(enc(env.sys(Sys::Stat { path: "/fn/state" })));
    out.push(enc(env.sys(Sys::Fork)));
    out.push(enc(env.sys(Sys::PipeCreate)));
    out.push(enc(env.sys(Sys::Brk { incr: 4096 })));
    out.push(enc(env.sys(Sys::Close { fd })));
    out
}

/// A snapshot-cloned container is functionally indistinguishable from a
/// cold-booted one: the same program yields the same results and the same
/// comparable kernel state (the differential-testing snapshot).
#[test]
fn cloned_container_is_equivalent_to_cold_booted() {
    let mut h = CloudHost::new(2048 * MIB, 256 * MIB);
    let spec = StartSpec::new(32 * MIB).with_warmup_pages(16);
    let cold = h.start(spec).unwrap();
    let cloned = h.start(spec.cloned()).unwrap();

    let r_cold = h.enter(cold, drive).unwrap();
    let r_clone = h.enter(cloned, drive).unwrap();
    assert_eq!(r_cold, r_clone, "syscall results diverge");

    let regions = [None; REGION_SLOTS];
    let s_cold = snapshot_kernel(&h.container(cold).unwrap().kernel, regions);
    let s_clone = snapshot_kernel(&h.container(cloned).unwrap().kernel, regions);
    let diff = s_cold.diff(&s_clone);
    assert!(diff.is_empty(), "state diverges: {diff:?}");

    // ...and stays equivalent after the clone keeps running on its own.
    h.enter(cloned, |env| {
        env.sys(Sys::Unlink { path: "/fn/state" }).unwrap();
    })
    .unwrap();
    let s_clone = snapshot_kernel(&h.container(cloned).unwrap().kernel, regions);
    assert!(
        !s_cold.diff(&s_clone).is_empty(),
        "diff must detect changes"
    );
}

/// Simulated-memory accesses (`PhysMem` 8-byte reads plus writes) so far:
/// a measure of host work that, unlike wall time, repeats exactly.
fn mem_accesses(h: &CloudHost) -> u64 {
    h.machine.mem.read_count() + h.machine.mem.write_count()
}

/// Host work of a segment migration or a clone start grows with the
/// segment's resident frames and leaf tables, not with its size: at most
/// 3 accesses per segment page (one read and one write rewrite a physmap
/// leaf; walking to its leaf table is shared by 512 pages), plus a fixed
/// allowance per resident frame (a page-table page's entries are each
/// read and possibly rewritten, in the segment and in the per-vCPU root
/// copies). A physmap rewrite that walks the tables once per page does
/// ~9 accesses per page and fails this bound.
#[test]
fn segment_host_work_scales_with_resident_frames() {
    const SEG: u64 = 64 * MIB;
    const PER_RESIDENT: u64 = 1536;
    let seg_pages = SEG / 4096;
    let mut h = CloudHost::new(2048 * MIB, 256 * MIB);
    let spec = StartSpec::new(SEG).with_warmup_pages(8).cloned();
    let mut ids = Vec::new();
    while let Ok(id) = h.start(spec) {
        ids.push(id);
    }
    assert!(ids.len() >= 8, "pool holds {} clones", ids.len());
    for &id in ids.iter().step_by(2) {
        h.stop_container(id).unwrap();
    }

    let before = mem_accesses(&h);
    let report = h.compact();
    let compact = mem_accesses(&h) - before;
    assert!(report.moved >= 3, "fixed pool must fragment: {report:?}");
    let bound = 3 * report.moved * seg_pages + PER_RESIDENT * report.pages_migrated;
    assert!(
        compact <= bound,
        "compaction did {compact} accesses for {} segments of {seg_pages} pages \
         with {} resident frames (bound {bound})",
        report.moved,
        report.pages_migrated
    );

    let copied = |h: &CloudHost| {
        h.machine
            .cpu
            .metrics
            .snapshot()
            .get("cloud.clone_pages_copied")
    };
    let copied0 = copied(&h);
    let before = mem_accesses(&h);
    h.start(spec).unwrap();
    let start = mem_accesses(&h) - before;
    let resident = copied(&h) - copied0;
    assert!(resident > 0);
    let bound = 3 * seg_pages + PER_RESIDENT * resident;
    assert!(
        start <= bound,
        "clone start did {start} accesses for a {seg_pages}-page segment \
         with {resident} resident frames (bound {bound})"
    );
}

#[test]
fn host_try_new_validates_configuration() {
    // Reserve must leave room for the pool.
    assert!(matches!(
        CloudHost::try_new(512 * MIB, 512 * MIB),
        Err(BootError::InvalidConfig(_))
    ));
    // The machine itself needs memory beyond its own reserve.
    assert!(matches!(
        CloudHost::try_new(8 * MIB, 4 * MIB),
        Err(BootError::InsufficientMemory { .. })
    ));
    // Errors render.
    let e = CloudHost::try_new(512 * MIB, 512 * MIB).unwrap_err();
    assert!(!e.to_string().is_empty());
    // A sane configuration boots and serves.
    let mut h = CloudHost::try_new(256 * MIB, 64 * MIB).unwrap();
    let id = h.start_container(16 * MIB).unwrap();
    let pid = h.enter(id, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
    assert_eq!(pid, 1);
}

/// Runs a fixed op sequence that leaves several templates registered (one
/// per configuration), stops half of the forked, multi-vCPU clones (so
/// their monitors free several roots' copies), retires the templates, and
/// records what the host hands out next: host frames straight from the
/// frame allocator, then the PCIDs of fresh starts.
fn allocations_after_retire() -> (Vec<u64>, Vec<u16>) {
    let mut h = CloudHost::new(512 * MIB, 64 * MIB);
    let mut fleet = Vec::new();
    for (i, seg) in [4 * MIB, 8 * MIB, 12 * MIB, 16 * MIB, 20 * MIB]
        .into_iter()
        .enumerate()
    {
        let mut spec = StartSpec::new(seg).with_warmup_pages(2).cloned();
        spec.vcpus = 1 + i as u32 % 3;
        let id = h.start(spec).unwrap();
        // Forked processes give the monitor several roots with copies.
        h.enter(id, |env| {
            for _ in 0..3 {
                env.sys(Sys::Fork).unwrap();
            }
        })
        .unwrap();
        fleet.push(id);
    }
    for id in fleet.drain(..).step_by(2) {
        h.stop_container(id).unwrap();
    }
    h.retire_templates();
    let frames = std::iter::from_fn(|| h.machine.frames.alloc())
        .take(1024)
        .collect();
    let pcids = (0..6)
        .map(|_| {
            let id = h.start_container(4 * MIB).unwrap();
            h.container(id).unwrap().pcid
        })
        .collect();
    (frames, pcids)
}

/// Retiring templates (and the monitor teardown under it) releases frames
/// and PCIDs onto LIFO free lists, so the release order decides the later
/// physical layout. It must not depend on per-process hash seeds: two hosts
/// driven identically allocate identically afterwards.
#[test]
fn retire_templates_releases_in_a_deterministic_order() {
    let first = allocations_after_retire();
    let second = allocations_after_retire();
    assert_eq!(first.0, second.0, "next host frames differ");
    assert_eq!(first.1, second.1, "next PCIDs differ");
}
