//! End-to-end tests of the serverless control plane: PCID recycling and
//! monitor teardown over thousands of start/stop cycles, compaction under
//! mixed-size churn, snapshot-clone cost, and differential equivalence of
//! cloned vs cold-booted containers.

use cki::cki_core::MAX_VCPUS;
use cki::{Backend, BootError, CloudHost, HostError, Stack, StackConfig, StartSpec};
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

/// Frame-table probes so far (frame slots looked up and group masks
/// read): the host work that the access counts miss, because a range
/// copy probes frames it does not access and a slot run accesses many
/// slots per probe.
fn mem_lookups(h: &CloudHost) -> u64 {
    h.machine.mem.lookup_count()
}

/// Host work of a segment migration or a clone start grows with the
/// segment's resident frames and leaf tables, not with its size: at most
/// 3 accesses per segment page (one read and one write rewrite a physmap
/// leaf; walking to its leaf table is shared by 512 pages), plus a fixed
/// allowance per resident frame (a page-table page's entries are each
/// read and possibly rewritten, in the segment and in the per-vCPU root
/// copies). A physmap rewrite that walks the tables once per page does
/// ~9 accesses per page and fails this bound.
///
/// Map probes are bounded tighter: one per 8 segment pages, plus the same
/// per-resident-frame allowance. Copying page by page, or rewriting the
/// physmap one `read_u64`/`write_u64` pair at a time, probes at least
/// once per segment page and fails this bound.
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

    let (before, probes_before) = (mem_accesses(&h), mem_lookups(&h));
    let report = h.compact();
    let compact = mem_accesses(&h) - before;
    let probes = mem_lookups(&h) - probes_before;
    assert!(report.moved >= 3, "fixed pool must fragment: {report:?}");
    let bound = 3 * report.moved * seg_pages + PER_RESIDENT * report.pages_migrated;
    assert!(
        compact <= bound,
        "compaction did {compact} accesses for {} segments of {seg_pages} pages \
         with {} resident frames (bound {bound})",
        report.moved,
        report.pages_migrated
    );
    let bound = report.moved * seg_pages / 8 + PER_RESIDENT * report.pages_migrated;
    assert!(
        probes <= bound,
        "compaction did {probes} map probes for {} segments of {seg_pages} pages \
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
    let (before, probes_before) = (mem_accesses(&h), mem_lookups(&h));
    h.start(spec).unwrap();
    let start = mem_accesses(&h) - before;
    let probes = mem_lookups(&h) - probes_before;
    let resident = copied(&h) - copied0;
    assert!(resident > 0);
    let bound = 3 * seg_pages + PER_RESIDENT * resident;
    assert!(
        start <= bound,
        "clone start did {start} accesses for a {seg_pages}-page segment \
         with {resident} resident frames (bound {bound})"
    );
    let bound = seg_pages / 8 + PER_RESIDENT * resident;
    assert!(
        probes <= bound,
        "clone start did {probes} map probes for a {seg_pages}-page segment \
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

/// A spec no container can be started from is refused with
/// `InvalidSpec` before anything is allocated: the pool and the PCID
/// space are as they were, and a valid start still succeeds.
#[test]
fn invalid_start_specs_are_refused_without_allocating() {
    let mut h = CloudHost::new(256 * MIB, 64 * MIB);
    let (free, pcids) = (h.free_bytes(), h.pcids_in_use());
    let no_vcpu = StartSpec {
        vcpus: 0,
        ..StartSpec::new(16 * MIB)
    };
    let bad = [
        StartSpec::new(0),
        StartSpec::new(4097),
        StartSpec::new(u64::MAX),
        StartSpec::new(16 * MIB).with_warmup_pages(1 << 40),
        no_vcpu,
    ];
    for spec in bad {
        for spec in [spec, spec.cloned()] {
            assert_eq!(h.start(spec), Err(HostError::InvalidSpec), "{spec:?}");
            assert_eq!(h.ensure_template(&spec), Err(HostError::InvalidSpec));
            assert_eq!((h.free_bytes(), h.pcids_in_use()), (free, pcids));
        }
    }
    assert!(!HostError::InvalidSpec.to_string().is_empty());
    h.start(StartSpec::new(16 * MIB)).unwrap();
}

/// A start the host cannot serve returns a typed error, and the pool, the
/// PCID space and the running set are as they were before the call.
#[test]
fn refused_starts_leave_the_host_unchanged() {
    let mut h = CloudHost::new(256 * MIB, 64 * MIB);
    h.enable_networking();
    let running = h.start(StartSpec::new(16 * MIB)).unwrap();
    let state = |h: &CloudHost| {
        let host_frames = h.machine.frames.available();
        (h.free_bytes(), h.pcids_in_use(), h.running(), host_frames)
    };
    let before = state(&h);

    // The warmup passes the static check, but the kernel's own frames
    // share the segment with it: the boot gets as far as the warmup
    // (NIC attached, template booting) before it runs out of frames.
    let warmup = StartSpec::new(16 * MIB).with_warmup_pages(4096);
    for spec in [warmup, warmup.cloned()] {
        assert_eq!(h.start(spec), Err(HostError::SegmentTooSmall), "{spec:?}");
        assert_eq!(state(&h), before, "{spec:?}");
    }
    assert!(!HostError::SegmentTooSmall.to_string().is_empty());

    let vcpus = |vcpus| StartSpec {
        vcpus,
        ..StartSpec::new(16 * MIB)
    };
    for spec in [vcpus(MAX_VCPUS + 1), vcpus(100_000)] {
        for spec in [spec, spec.cloned()] {
            assert_eq!(h.start(spec), Err(HostError::InvalidSpec), "{spec:?}");
            assert_eq!(state(&h), before, "{spec:?}");
        }
    }
    for vcpus in [MAX_VCPUS + 1, 100_000] {
        let cfg = StackConfig {
            vcpus,
            ..StackConfig::default()
        };
        assert!(matches!(
            Stack::try_new(Backend::Cki, cfg),
            Err(BootError::InvalidConfig(_))
        ));
    }

    // At the bound both paths boot, and the host serves on.
    let at_bound = StackConfig {
        vcpus: MAX_VCPUS,
        ..StackConfig::default()
    };
    Stack::try_new(Backend::Cki, at_bound).unwrap();
    let id = h.start(vcpus(MAX_VCPUS)).unwrap();
    h.stop_container(id).unwrap();
    assert_eq!(state(&h), before);
    h.stop_container(running).unwrap();
}

/// With networking on, a segment too small for the NIC rings is refused
/// with `SegmentTooSmall` on the cold and the clone path, and the start is
/// undone: the pool, the PCID space, the host's frames and the next id are
/// as they were. A 64-page segment still starts.
#[test]
fn networked_start_on_a_small_segment_is_refused() {
    let mut h = CloudHost::new(256 * MIB, 64 * MIB);
    h.enable_networking();
    let small = |pages: u64| StartSpec::new(pages * 4096).with_warmup_pages(0);
    let sizes = [1, 2, 4, 8, 16, 32];
    // Templates boot without a NIC; boot them first so that the clone
    // refusals below change nothing either.
    for n in sizes {
        h.ensure_template(&small(n)).unwrap();
    }
    let state = |h: &CloudHost| {
        let host_frames = h.machine.frames.available();
        (h.free_bytes(), h.pcids_in_use(), h.running(), host_frames)
    };
    let probe = h.start(small(64)).unwrap();
    h.stop_container(probe).unwrap();
    let before = state(&h);
    for n in sizes {
        for spec in [small(n), small(n).cloned()] {
            assert_eq!(h.start(spec), Err(HostError::SegmentTooSmall), "{spec:?}");
            assert_eq!(state(&h), before, "{spec:?}");
        }
    }
    let id = h.start(small(64)).unwrap();
    assert_eq!(id, probe + 1, "refused starts hand their ids back");
    assert!(h.container(id).unwrap().kernel.netif().is_some());
    let cloned = h.start(small(64).cloned()).unwrap();
    h.stop_container(cloned).unwrap();
    h.stop_container(id).unwrap();
}

/// A guest that forks until the host has no frame left for a new root's
/// per-vCPU copies gets `NoMem` back, not a host panic, and its host
/// frames all come back when the container stops.
#[test]
fn fork_loop_exhausting_host_frames_returns_nomem() {
    let mut h = CloudHost::new(256 * MIB, 64 * MIB);
    let host_frames = h.machine.frames.available();
    let spec = StartSpec {
        vcpus: MAX_VCPUS,
        ..StartSpec::new(16 * MIB)
    };
    let id = h.start(spec).unwrap();
    let (forks, err) = h
        .enter(id, |env| {
            let mut forks = 0u32;
            loop {
                match env.sys(Sys::Fork) {
                    Ok(_) => forks += 1,
                    Err(e) => return (forks, e),
                }
            }
        })
        .unwrap();
    assert_eq!(err, guest_os::Errno::NoMem);
    assert!(forks > 0, "some forks fit before the host ran out");
    assert!(
        h.machine.frames.available() < u64::from(MAX_VCPUS),
        "the host's frames, not the segment, ran out"
    );
    // The guest still runs after the refused fork.
    let pid = h.enter(id, |env| env.sys(Sys::Getpid)).unwrap();
    assert_eq!(pid, Ok(1));
    h.stop_container(id).unwrap();
    assert_eq!(h.machine.frames.available(), host_frames);
}

/// Starting and stopping containers does not grow the host's metrics
/// registry: with observability and networking on, every series is
/// registered by the end of the first cycle, and 199 more cycles of cold
/// and cloned starts, invocations, requests and compactions add none.
#[test]
fn registry_is_bounded_under_churn() {
    let mut h = CloudHost::new(256 * MIB, 64 * MIB);
    h.enable_observability(64, cki::SloWatchdog::cloud_default(100_000));
    h.enable_networking();
    let spec = StartSpec::new(16 * MIB);
    let series = |h: &CloudHost| {
        let s = h.machine.cpu.metrics.snapshot();
        s.counters.len() + s.sketches.len()
    };
    let mut first = None;
    for cycle in 0..200 {
        let cold = h.start(spec).unwrap();
        let cloned = h.start(spec.cloned()).unwrap();
        for id in [cold, cloned] {
            h.enter(id, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
            h.record_request(id, 10_000);
        }
        h.stop_container(cold).unwrap();
        h.compact();
        h.stop_container(cloned).unwrap();
        let n = series(&h);
        assert_eq!(*first.get_or_insert(n), n, "cycle {cycle}");
    }
    assert_eq!(h.running(), 0);
}
