//! Two-clock benchmark of the CKI simulator. See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run repeats rounds of its workload until `--seconds` have passed
//! (and at least [`MIN_ROUNDS`] ran). Every round sets the system up
//! afresh and then does the same seed-derived work, so simulated results
//! repeat from round to round and host times are medians over rounds. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod churn;
mod memwalk;
mod round;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cki::sim_hw::{CostModel, Tag};
use round::{median, Round};
use trace::Tracer;

/// Fewest rounds a run makes, so that each median has three samples.
const MIN_ROUNDS: usize = 3;
/// Fewest rounds of a traced run: two untraced and two traced.
const MIN_TRACED_ROUNDS: usize = 4;

type RoundFn = fn(u64, &mut Tracer, bool) -> Round;

const WORKLOADS: [(&str, RoundFn); 3] = [
    ("churn", churn::round),
    ("serve", serve::round),
    ("memwalk", memwalk::round),
];

/// Workloads whose simulated outputs must repeat exactly. `memwalk`
/// overflows the TLB, whose eviction order follows a randomly seeded
/// `HashMap`, so its cycles vary between processes and between rounds.
const DETERMINISTIC: [&str; 2] = ["churn", "serve"];

const BACKENDS: [&str; 2] = ["cki", "hvm"];

/// Every per-layer metric and its unit, in output order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("cloud.compact.host_s", "s"),
        ("cloud.compact.host_us_per_page", "us"),
        ("cloud.start.host_us", "us"),
        ("cloud.stop.host_us", "us"),
        ("cloud.enter.host_us", "us"),
        ("cloud.compactions", "count"),
        ("cloud.pages_migrated", "count"),
        ("cloud.clone_pages_copied", "count"),
        ("cloud.compact.sim_cycles", "cycles"),
        ("obs.overhead_pct", "%"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    let per_backend: [(&str, &'static str); 23] = [
        ("guest.sys.send.host_us", "us"),
        ("guest.sys.recv.host_us", "us"),
        ("guest.recv.useful_ratio", "ratio"),
        ("net.payload_mismatches", "count"),
        ("netsim.service.host_us", "us"),
        ("platform.enter.host_us", "us"),
        ("guest.touch.host_ns", "ns"),
        ("guest.fault.host_us", "us"),
        ("nic.kicks", "count"),
        ("nic.kick_exits", "count"),
        ("nic.irqs", "count"),
        ("nic.ring_full", "count"),
        ("switch.forwarded", "count"),
        ("switch.backpressured", "count"),
        ("vmm.vm_exits", "count"),
        ("vmm.ept_faults", "count"),
        ("cki.hypercalls", "count"),
        ("os.syscalls", "count"),
        ("os.pgfaults", "count"),
        ("hw.tlb.hits", "count"),
        ("hw.tlb.misses", "count"),
        ("hw.tlb.hit_ratio", "ratio"),
        ("hw.page_walks", "count"),
    ];
    for b in BACKENDS {
        for (n, u) in per_backend {
            v.push((format!("{n}.{b}"), u));
        }
        for t in Tag::ALL {
            v.push((format!("sim_cycles.{t:?}.{b}"), "cycles"));
        }
    }
    v.push(("trace.overhead_pct".into(), "%"));
    v.push(("trace.unattributed_pct".into(), "%"));
    v
}

/// Host-time per-layer metrics read from spans: (metric, span name, ns
/// per unit). Each is the median host time per call. `cloud.*` spans run
/// on CKI only, so their metrics carry no backend suffix.
const SPAN_METRICS: [(&str, &str, f64); 9] = [
    ("cloud.start.host_us", "cloud.start", 1e3),
    ("cloud.stop.host_us", "cloud.stop", 1e3),
    ("cloud.enter.host_us", "cloud.enter", 1e3),
    ("guest.sys.send.host_us", "guest.sys.send", 1e3),
    ("guest.sys.recv.host_us", "guest.sys.recv", 1e3),
    ("netsim.service.host_us", "netsim.service", 1e3),
    ("platform.enter.host_us", "platform.enter", 1e3),
    ("guest.touch.host_ns", "guest.touch", 1.0),
    ("guest.fault.host_us", "guest.fault", 1e3),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    digests: bool,
    determinism: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        digests: false,
        determinism: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--digests" => a.digests = true,
            "--determinism" => a.determinism = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !a.determinism && !WORKLOADS.iter().any(|(n, _)| *n == a.workload) {
        return Err(format!(
            "--workload must be one of churn, serve, memwalk (got {:?})",
            a.workload
        ));
    }
    Ok(a)
}

/// Host memory high-water mark of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*v)
        );
    }
    out.push_str("}}");
    out
}

/// The end-to-end metrics of a run, from its untraced rounds.
fn end_to_end(rounds: &[&Round]) -> Vec<(String, &'static str, f64)> {
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let freq_hz = CostModel::default().freq_ghz * 1e9;
    let mut m = vec![
        ("setup_s".to_string(), "s", med(&|r| r.setup_s)),
        ("host_s".to_string(), "s", med(&|r| r.host_s)),
        (
            "sim_cycles_per_host_s".to_string(),
            "cycles/s",
            med(&|r| r.phases.iter().map(|p| p.sim_cycles).sum::<u64>() as f64 / r.host_s),
        ),
        ("peak_rss_mib".to_string(), "MiB", peak_rss_mib()),
    ];
    for (i, b) in BACKENDS.iter().enumerate() {
        let ops = med(&|r| {
            let p = &r.phases[i];
            p.completed as f64 / (p.op_cycles as f64 / freq_hz)
        });
        m.push((format!("sim_ops_per_s.{b}"), "ops/s", ops));
    }
    for (i, b) in BACKENDS.iter().enumerate() {
        let v = med(&|r| r.phases[i].p50 as f64);
        m.push((format!("sim_p50_cycles.{b}"), "cycles", v));
    }
    for (i, b) in BACKENDS.iter().enumerate() {
        let v = med(&|r| r.phases[i].p99 as f64);
        m.push((format!("sim_p99_cycles.{b}"), "cycles", v));
    }
    m
}

/// The per-layer metrics of a traced run.
fn per_layer(
    untraced: &[&Round],
    traced: &[&Round],
    tr: &Tracer,
) -> Vec<(String, &'static str, f64)> {
    let n = traced.len().max(1) as f64;
    let mut vals: BTreeMap<String, f64> = traced[0].layer.clone();
    for (metric, span, ns_per_unit) in SPAN_METRICS {
        for b in BACKENDS {
            let Some(a) = tr.agg(span, b) else { continue };
            let key = if metric.starts_with("cloud.") {
                metric.to_string()
            } else {
                format!("{metric}.{b}")
            };
            vals.insert(key, a.per_call.quantile(0.5) as f64 / ns_per_unit);
        }
    }
    if let Some(a) = tr.agg("cloud.compact", "cki") {
        let per_round_s = a.total_ns as f64 / 1e9 / n;
        vals.insert("cloud.compact.host_s".into(), per_round_s);
        let pages = vals.get("cloud.pages_migrated").copied().unwrap_or(0.0);
        if pages > 0.0 {
            vals.insert(
                "cloud.compact.host_us_per_page".into(),
                per_round_s * 1e6 / pages,
            );
        }
    }
    let host = |rs: &[&Round]| median(&rs.iter().map(|r| r.host_s).collect::<Vec<_>>());
    let traced_s: f64 = traced.iter().map(|r| r.host_s).sum();
    vals.insert(
        "trace.overhead_pct".into(),
        100.0 * (host(traced) / host(untraced) - 1.0),
    );
    vals.insert(
        "trace.unattributed_pct".into(),
        100.0 * (1.0 - tr.root_ns() as f64 / 1e9 / traced_s),
    );

    let names = per_layer_names();
    for k in vals.keys() {
        assert!(
            names.iter().any(|(n, _)| n == k),
            "per-layer metric {k} is not in the metric list"
        );
    }
    names
        .into_iter()
        .map(|(n, u)| {
            let v = vals.get(&n).copied().unwrap_or(0.0);
            (n, u, v)
        })
        .collect()
}

fn digest_lines(workload: &str, r: &Round) -> Vec<String> {
    r.phases
        .iter()
        .map(|p| {
            format!(
                "digest {workload}.{} {:016x} op_cycles {}",
                p.backend, p.digest, p.op_cycles
            )
        })
        .collect()
}

/// Runs every workload's first round in two separate child processes and
/// compares their simulated-output digests.
fn determinism(seed: u64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let mut outs = Vec::new();
        for _ in 0..2 {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    &seed.to_string(),
                    "--digests",
                ])
                .output();
            match out {
                Ok(o) if o.status.success() => outs.push(
                    String::from_utf8_lossy(&o.stdout)
                        .lines()
                        .filter(|l| l.starts_with("digest "))
                        .map(str::to_string)
                        .collect::<Vec<_>>(),
                ),
                Ok(o) => {
                    eprintln!(
                        "{workload}: child failed: {}",
                        String::from_utf8_lossy(&o.stderr)
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{workload}: cannot run child: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for (a, b) in outs[0].iter().zip(&outs[1]) {
            let same = a == b;
            let expected = DETERMINISTIC.contains(&workload);
            let verdict = match (same, expected) {
                (true, _) => "match",
                (false, true) => "MISMATCH",
                (false, false) => "mismatch (known: TLB eviction order)",
            };
            let tail = b.split_once(' ').map_or("", |(_, t)| t);
            let tail = tail.split_once(' ').map_or("", |(_, t)| t);
            println!("{a} | {tail} -> {verdict}");
            ok &= same || !expected;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.determinism {
        return determinism(args.seed);
    }
    let round_fn = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map(|(_, f)| *f)
        .expect("validated workload");
    let mut tr = Tracer::new();
    if args.digests {
        let r = round_fn(args.seed, &mut tr, false);
        for l in digest_lines(&args.workload, &r) {
            println!("{l}");
        }
        return ExitCode::SUCCESS;
    }

    let budget = Duration::from_secs(args.seconds);
    let min_rounds = if args.trace {
        MIN_TRACED_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let start = Instant::now();
    let mut rounds: Vec<(Round, bool)> = Vec::new();
    while rounds.len() < min_rounds || start.elapsed() < budget {
        // Traced runs alternate untraced and traced rounds, so tracing
        // overhead is measured under the same conditions.
        let traced = args.trace && rounds.len() % 2 == 1;
        let mut r = round_fn(args.seed, &mut tr, traced);
        r.phases.iter_mut().for_each(round::Phase::summarize);
        eprintln!(
            "round {}: setup {:.4} s, measured {:.4} s{}",
            rounds.len(),
            r.setup_s,
            r.host_s,
            if traced { " (traced)" } else { "" }
        );
        rounds.push((r, traced));
    }

    let untraced: Vec<&Round> = rounds.iter().filter(|(_, t)| !t).map(|(r, _)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();
    let first = &rounds[0].0;
    let mut correct = true;
    for (r, _) in &rounds {
        for f in &r.failures {
            println!("check failed: {f}");
            correct = false;
        }
    }
    let mut distinct = 0;
    for (i, ph) in first.phases.iter().enumerate() {
        let mut seen: Vec<u64> = rounds.iter().map(|(r, _)| r.phases[i].digest).collect();
        seen.sort_unstable();
        seen.dedup();
        distinct = distinct.max(seen.len());
        if seen.len() > 1 && DETERMINISTIC.contains(&args.workload.as_str()) {
            println!(
                "check failed: {} {} simulated outputs differ between rounds",
                args.workload, ph.backend
            );
            correct = false;
        }
    }
    for l in digest_lines(&args.workload, first) {
        println!("{l}");
    }
    println!(
        "rounds {} ({} traced), distinct simulated digests per backend: {distinct}",
        rounds.len(),
        traced.len()
    );
    for ph in &first.phases {
        println!(
            "{} {}: {} ops attempted, {} failed, {} latency samples per round",
            args.workload, ph.backend, ph.attempted, ph.failed, ph.completed
        );
    }
    let attempted: u64 = rounds
        .iter()
        .flat_map(|(r, _)| &r.phases)
        .map(|p| p.attempted)
        .sum();
    let failed: u64 = rounds
        .iter()
        .flat_map(|(r, _)| &r.phases)
        .map(|p| p.failed)
        .sum();
    let metrics = if args.trace {
        let m = per_layer(&untraced, &traced, &tr);
        let dir = std::path::Path::new(
            &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
        )
        .join("perfbench-trace");
        let file = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, tr.dump_tsv())) {
            Ok(()) => println!("spans written to {}", file.display()),
            Err(e) => println!("spans not written to {}: {e}", file.display()),
        }
        m
    } else {
        end_to_end(&untraced)
    };
    for (name, unit, v) in &metrics {
        println!("{name:<40} {v:>18.6} {unit}");
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
