//! `slo_report`: the SLO watchdog exercised end to end, machine-readable.
//!
//! Three deterministic scenarios drive the cloud control plane's
//! observability layer and record the watchdog's verdict for each:
//!
//! 1. **healthy** — mixed clone/boot churn under the default rule set
//!    ([`SloWatchdog::cloud_default`]); must stay incident-free.
//! 2. **irq_storm** — a `dt`-injected mid-gate interrupt storm lands
//!    mid-invoke; the invoke budget (derived from a measured warm invoke,
//!    not guessed) must breach, and the incident must bundle the offending
//!    container's flight-recorder dump.
//! 3. **fragmentation** — churn is forced into a §4.3 fragmentation stall;
//!    the recovery (compaction + retried start) must surface as a
//!    `frag_stall_recovery` incident naming the recovered container.
//!
//! Each verdict becomes dotted scalars in `results/BENCH_slo_report.json`
//! (`irq_storm.rules`, `irq_storm.ticks`, `irq_storm.ok`), and each
//! scenario's incidents go to `results/slo_<scenario>.incidents.jsonl`, one
//! JSON object per line. The run panics if any scenario disagrees with its
//! expectation — the report is itself a regression gate for the incident
//! pipeline.
//!
//! ```sh
//! CKI_BENCH_SCALE=quick cargo run --release -p cki-bench --bin repro -- slo_report
//! ```

use cki::slo::{Budget, RuleKind, SloRule};
use cki::{CloudHost, HostError, SloWatchdog, StartSpec};
use guest_os::Sys;
use obs::rng::SmallRng;

use crate::{Outcome, Scale, Value};

const MIB: u64 = 1024 * 1024;

fn host() -> CloudHost {
    CloudHost::new(4096 * MIB, 512 * MIB)
}

/// Scenario 1: benign mixed churn under the production rule set.
fn healthy_churn(rounds: u64) -> CloudHost {
    let mut h = host();
    h.enable_observability(64, SloWatchdog::cloud_default(200_000));
    let mut rng = SmallRng::seed_from_u64(0x510_FACE);
    let spec = StartSpec::new(64 * MIB).with_warmup_pages(8);
    h.ensure_template(&spec).unwrap();
    let mut live: Vec<cki::ContainerId> = Vec::new();
    for round in 0..rounds {
        let s = if round % 4 == 0 { spec } else { spec.cloned() };
        let id = match h.start(s) {
            Ok(id) => id,
            Err(HostError::OutOfContiguousMemory) => {
                h.compact();
                h.start(s).unwrap()
            }
            Err(e) => panic!("healthy churn round {round}: {e}"),
        };
        live.push(id);
        let pick = live[rng.gen_range(0..live.len() as u64) as usize];
        h.enter(pick, |env| {
            assert_eq!(env.sys(Sys::Getpid).unwrap(), 1);
            let work = 8 * 4096;
            let base = env.mmap(work).unwrap();
            env.touch_range(base, work, true).unwrap();
        })
        .unwrap();
        if live.len() > 12 {
            let victim = live.remove(0);
            h.stop_container(victim).unwrap();
        }
    }
    h
}

/// Cycles of one warm getpid invoke on a pristine host, so the storm
/// scenario's budget is measured rather than guessed.
fn normal_invoke_cycles() -> u64 {
    let mut h = host();
    let id = h.start_container(64 * MIB).unwrap();
    h.enter(id, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
    let mark = h.machine.cpu.clock.mark();
    h.enter(id, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
    h.machine.cpu.clock.since(mark)
}

/// Scenario 2: a mid-gate IRQ storm from `dt` blows one invoke past 3x
/// the warm baseline.
fn irq_storm(injections: u64) -> CloudHost {
    let normal = normal_invoke_cycles();
    let mut h = host();
    h.enable_observability(
        64,
        SloWatchdog::new(1).with_rule(SloRule {
            name: "invoke_worst",
            kind: RuleKind::MaxUnder {
                sketch: "cloud.invoke_cycles",
                budget: Budget::Cycles(normal * 3),
            },
        }),
    );
    let noisy = h.start_container(64 * MIB).unwrap();
    h.enter(noisy, |env| {
        env.sys(Sys::Getpid).unwrap();
        for _ in 0..injections {
            dt::mid_gate_irq_machine(env.machine, env.kernel.platform.as_ref())
                .expect("mid-gate IRQ invariants hold");
        }
    })
    .unwrap();
    h
}

/// Scenario 3: fill the pool, free every other container, then start
/// something too big for any extent — the recovery must be reported.
fn forced_fragmentation() -> CloudHost {
    let mut h = host();
    h.enable_observability(
        64,
        SloWatchdog::new(1).with_rule(SloRule {
            name: "frag_stall_recovery",
            kind: RuleKind::MaxUnder {
                sketch: "cloud.stall_recovery_cycles",
                // Any measurable stall breaches: recovery always costs a
                // compaction pass.
                budget: Budget::Cycles(1),
            },
        }),
    );
    let small = 128 * MIB;
    let mut ids = Vec::new();
    while h.free_bytes() >= small {
        match h.start_container(small) {
            Ok(id) => ids.push(id),
            Err(_) => break,
        }
    }
    for &id in ids.iter().step_by(2) {
        h.stop_container(id).unwrap();
    }
    let big = h.largest_startable() + small;
    assert!(
        h.start(StartSpec::new(big)).is_err(),
        "fragmentation stall must open"
    );
    h.compact();
    h.start(StartSpec::new(big))
        .expect("recovery after compaction");
    h
}

/// Runs the three scenarios and returns their verdicts and incidents.
pub fn run(scale: Scale) -> Outcome {
    let rounds = scale.n(512);
    let injections = 500u64;

    let healthy = healthy_churn(rounds);
    assert!(
        healthy.watchdog().unwrap().ticks() > 0,
        "healthy run must actually evaluate rules"
    );
    assert!(
        healthy.incidents().is_empty(),
        "benign churn must stay incident-free: {:?}",
        healthy.incidents()
    );

    let storm = irq_storm(injections);
    let si = storm.incidents();
    assert_eq!(si.len(), 1, "storm must breach exactly once: {si:?}");
    assert_eq!(si[0].rule, "invoke_worst");
    assert!(
        si[0].container.is_some(),
        "storm incident names its container"
    );
    let dump = si[0].flight_dump.as_ref().expect("flight dump bundled");
    assert!(dump.contains("\"event\":\"invoke\""));

    let frag = forced_fragmentation();
    let fi = frag.incidents();
    let recovery = fi.iter().find(|i| i.rule == "frag_stall_recovery");
    let recovery = recovery.unwrap_or_else(|| panic!("stall recovery must be reported: {fi:?}"));
    let fdump = recovery.flight_dump.as_ref().expect("flight dump bundled");
    assert!(fdump.contains("\"event\":\"stall.recovered\""));

    let mut o = Outcome::default();
    o.push("healthy_rounds", rounds);
    o.push("injected_irqs", injections);
    for (scenario, host) in [
        ("healthy", &healthy),
        ("irq_storm", &storm),
        ("fragmentation", &frag),
    ] {
        let wd = host.watchdog().unwrap();
        o.push(format!("{scenario}.rules"), wd.rules().len() as u64);
        o.push(format!("{scenario}.ticks"), wd.ticks());
        o.push(
            format!("{scenario}.ok"),
            Value::Bool(wd.incidents().is_empty()),
        );
        let jsonl: String = wd.incidents().iter().map(|i| i.to_json() + "\n").collect();
        o.files
            .push((format!("slo_{scenario}.incidents.jsonl"), jsonl));
    }
    o
}
