//! Closed-loop serverless churn on one CKI host.
//!
//! Thousands of start → invoke → stop cycles with mixed container sizes,
//! exercising the control plane's three mechanisms end to end:
//! snapshot-clone cold starts, best-fit segment placement, and explicit
//! compaction when churn fragments the pool anyway (§4.3). Emits
//! `results/BENCH_cloud_churn.json` with cold-start and clone-start
//! cycle costs, invoke latency percentiles, and fragmentation/compaction
//! accounting.
//!
//! ```sh
//! CKI_BENCH_SCALE=quick cargo run --release -p cki-bench --bin repro -- cloud_churn
//! ```

use cki::{CloudHost, HostError, SloWatchdog, StartSpec};
use guest_os::Sys;
use obs::rng::SmallRng;

use crate::{Outcome, Scale};

const MIB: u64 = 1024 * 1024;

/// Mixed fleet: the size classes a multi-tenant host actually sees.
const SIZES_MIB: [u64; 4] = [16, 24, 32, 48];

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Runs the churn and returns its scalars (`BENCH_cloud_churn.json`).
pub fn run(scale: Scale) -> Outcome {
    let cycles = scale.n(2500);
    // Pool ≈ 3 GiB: tight enough that a ~100-container mixed fleet runs
    // the pool near capacity, where churn fragments the free space.
    let mut host = CloudHost::new(6656 * MIB, 512 * MIB);
    // Production posture: flight recorders on every container plus the
    // default SLO rule set, evaluated every 1M simulated cycles. The
    // benchmark asserts below that this whole layer costs <5% of the run.
    host.enable_observability(64, SloWatchdog::cloud_default(1_000_000));
    let mut rng = SmallRng::seed_from_u64(0x5eed_c10d);

    // Phase 1 — start-path cost: cold boot vs snapshot clone of the same
    // configuration (the template itself boots outside the measurement).
    let spec = StartSpec::new(64 * MIB).with_warmup_pages(64);
    host.ensure_template(&spec).unwrap();
    let samples = scale.n(64).min(16);
    let mut boot_cycles = Vec::new();
    let mut clone_cycles = Vec::new();
    for _ in 0..samples {
        let mark = host.machine.cpu.clock.mark();
        let id = host.start(spec).unwrap();
        boot_cycles.push(host.machine.cpu.clock.since(mark));
        host.stop_container(id).unwrap();

        let mark = host.machine.cpu.clock.mark();
        let id = host.start(spec.cloned()).unwrap();
        clone_cycles.push(host.machine.cpu.clock.since(mark));
        host.stop_container(id).unwrap();
    }
    let mean = |v: &[u64]| v.iter().sum::<u64>() / v.len().max(1) as u64;
    let (boot_mean, clone_mean) = (mean(&boot_cycles), mean(&clone_cycles));
    let ratio = boot_mean as f64 / clone_mean.max(1) as f64;

    // Phase 2 — closed-loop churn: every cycle clones a container of a
    // random size class, invokes it, and (once the fleet is warm) stops a
    // random victim. On a fragmentation failure the host compacts and
    // retries — an unrecovered failure is fatal to the benchmark.
    // Sized so the fleet occupies most of the pool: with mixed sizes and
    // random victim selection this reliably fragments the free space.
    let fleet_target = 100usize;
    let mut fleet: Vec<cki::ContainerId> = Vec::new();
    let mut invoke_cycles: Vec<u64> = Vec::new();
    let mut compactions = 0u64;
    let mut compaction_cycles = 0u64;
    let mut pages_migrated = 0u64;
    let mut recovered_stalls = 0u64;
    for i in 0..cycles {
        let size = SIZES_MIB[rng.gen_range(0..SIZES_MIB.len() as u64) as usize] * MIB;
        // Capacity management is the scheduler's job: evict until the
        // request *fits in total free memory*. Any start failure past this
        // point is fragmentation, which compaction must recover.
        while host.free_bytes() < size && !fleet.is_empty() {
            let victim = fleet.swap_remove(rng.gen_range(0..fleet.len() as u64) as usize);
            host.stop_container(victim).unwrap();
        }
        let spec = StartSpec::new(size).with_warmup_pages(8).cloned();
        let id = match host.start(spec) {
            Ok(id) => id,
            Err(HostError::OutOfContiguousMemory) => {
                let report = host.compact();
                compactions += 1;
                compaction_cycles += report.cycles;
                pages_migrated += report.pages_migrated;
                recovered_stalls += 1;
                host.start(spec).unwrap_or_else(|e| {
                    panic!("cycle {i}: start failed even after compaction: {e}")
                })
            }
            Err(e) => panic!("cycle {i}: {e}"),
        };
        fleet.push(id);

        let work = 4096 * rng.gen_range(1..17);
        let mark = host.machine.cpu.clock.mark();
        host.enter(id, |env| {
            assert_eq!(env.sys(Sys::Getpid).unwrap(), 1);
            let base = env.mmap(work).unwrap();
            env.touch_range(base, work, true).unwrap();
        })
        .unwrap();
        invoke_cycles.push(host.machine.cpu.clock.since(mark));

        if fleet.len() > fleet_target {
            let victim = fleet.swap_remove(rng.gen_range(0..fleet.len() as u64) as usize);
            host.stop_container(victim).unwrap();
        }
    }
    for id in fleet.drain(..) {
        host.stop_container(id).unwrap();
    }

    invoke_cycles.sort_unstable();

    // Observability accounting: what the flight recorders + watchdog cost,
    // and how close the streaming sketch tail is to the exact offline one.
    let total_cycles = host.machine.cpu.clock.cycles();
    let obs_cycles = host.obs_overhead_cycles();
    let obs_pct = 100.0 * obs_cycles as f64 / total_cycles.max(1) as f64;
    let metrics = &host.machine.cpu.metrics;
    let invoke_sketch = metrics
        .sketch_id_of("cloud.invoke_cycles", None)
        .expect("invoke sketch registered");
    let sketch_p50 = metrics.sketch_quantile(invoke_sketch, 0.50);
    let sketch_p99 = metrics.sketch_quantile(invoke_sketch, 0.99);
    let exact_p99 = percentile(&invoke_cycles, 0.99);
    let p99_err = (sketch_p99 as f64 - exact_p99 as f64).abs() / exact_p99.max(1) as f64;
    let wd_ticks = host.watchdog().expect("watchdog enabled").ticks();

    assert!(
        ratio >= 5.0,
        "snapshot clone must be >=5x cheaper than cold boot (got {ratio:.2}x)"
    );
    assert!(
        obs_pct < 5.0,
        "flight recorder + watchdog must cost <5% of the run (got {obs_pct:.3}%)"
    );
    assert!(
        p99_err <= 0.05,
        "sketch p99 {sketch_p99} must be within 5% of exact p99 {exact_p99} \
         (got {:.2}%)",
        p99_err * 100.0
    );

    let mut o = Outcome::default();
    o.push("churn_cycles", cycles);
    o.push("fleet_target", fleet_target as u64);
    o.push("cold_start_cycles_mean", boot_mean);
    o.push("clone_start_cycles_mean", clone_mean);
    o.fixed("cold_over_clone_ratio", ratio, 3);
    o.push("invoke_p50_cycles", percentile(&invoke_cycles, 0.50));
    o.push("invoke_p99_cycles", percentile(&invoke_cycles, 0.99));
    o.push("frag_stalls_recovered", recovered_stalls);
    o.push("frag_failures_unrecovered", 0u64);
    o.push("compactions", compactions);
    o.push("compaction_cycles", compaction_cycles);
    o.push("pages_migrated", pages_migrated);
    o.push(
        "clone_pages_copied",
        metrics.snapshot().get("cloud.clone_pages_copied"),
    );
    o.push("containers_started", host.started);
    o.push("containers_stopped", host.stopped);
    o.push("pcids_in_use_end", host.pcids_in_use() as u64);
    o.push("sketch_invoke_p50_cycles", sketch_p50);
    o.push("sketch_invoke_p99_cycles", sketch_p99);
    o.push("obs_overhead_cycles", obs_cycles);
    o.fixed("obs_overhead_pct", obs_pct, 4);
    o.push("flight_records", host.flight_records());
    o.push("watchdog_ticks", wd_ticks);
    o.push("slo_incidents", host.incidents().len() as u64);
    o
}
