//! `perf_report`: Figure 10a/10b regenerated from *measured spans*.
//!
//! Where `fig10a`/`fig10b` report end-to-end latencies (and tag-bucketed
//! clock charges), this report derives the per-stage breakdown from the
//! cycle-attributed span profiler: every stage row is the self-time of one
//! span name, so the rows sum to the time spent inside instrumented code by
//! construction. The report then cross-checks itself three ways and exits
//! non-zero on drift:
//!
//! 1. **Coverage**: Σ stage self-times must agree with the end-to-end
//!    measured latency within 1% (the instrumentation may not leak time).
//! 2. **Anchors**: CKI totals must land on the DESIGN.md §4 calibration
//!    table (page fault 1 067 ns ± 10%, syscall inside the 90–336 ns band
//!    with the OPT ablation ordering intact).
//! 3. **Export**: the Chrome-trace JSON of a profiled run must be
//!    structurally valid.
//!
//! Drift failures are returned as [`Outcome::failures`], so `repro` still
//! writes every output and then exits non-zero.

use cki::sim_hw::cost::FREQ_GHZ;
use cki::{Backend, Stack, StackConfig};
use guest_os::Sys;
use obs::export::json_balanced;

use crate::{Matrix, Outcome};

/// One profiled measurement window: per-op end-to-end latency plus the
/// per-op self-time of every span name that fired inside the window.
struct Breakdown {
    end_to_end_ns: f64,
    stages: Vec<(&'static str, f64)>,
}

impl Breakdown {
    fn spanned_ns(&self) -> f64 {
        self.stages.iter().map(|(_, ns)| ns).sum()
    }
}

/// Page-fault window: mmap first (untimed), then profile the touch loop.
fn pgfault_breakdown(backend: Backend, pages: u64) -> Breakdown {
    let mut stack = Stack::new(backend, StackConfig::default());
    stack.set_profiling(true);
    let mut env = stack.env();
    let base = env.mmap(pages * 4096).expect("mmap");
    let before = env.machine.cpu.profiler.agg_snapshot();
    let t0 = env.now_ns();
    env.touch_range(base, pages * 4096, true).expect("touch");
    let window_ns = env.now_ns() - t0;
    window(env, before, window_ns, pages)
}

/// Syscall window: one warm getpid (untimed), then profile a getpid loop.
fn syscall_breakdown(backend: Backend, iters: u64) -> Breakdown {
    let mut stack = Stack::new(backend, StackConfig::default());
    stack.set_profiling(true);
    let mut env = stack.env();
    env.sys(Sys::Getpid).expect("warm");
    let before = env.machine.cpu.profiler.agg_snapshot();
    let t0 = env.now_ns();
    for _ in 0..iters {
        env.sys(Sys::Getpid).expect("getpid");
    }
    let window_ns = env.now_ns() - t0;
    window(env, before, window_ns, iters)
}

fn window(
    env: guest_os::Env<'_>,
    before: std::collections::BTreeMap<&'static str, obs::SpanStat>,
    window_ns: f64,
    ops: u64,
) -> Breakdown {
    let stages = env
        .machine
        .cpu
        .profiler
        .agg_since(&before)
        .into_iter()
        .map(|(name, stat)| (name, stat.self_cycles as f64 / FREQ_GHZ / ops as f64))
        .collect();
    Breakdown {
        end_to_end_ns: window_ns / ops as f64,
        stages,
    }
}

/// Builds the stage × backend matrix, with SUM / end-to-end / paper rows.
fn report(
    title: &str,
    cases: &[(&str, Breakdown, f64)], // (column, measured, paper anchor ns)
) -> Matrix {
    let mut stage_names: Vec<&str> = Vec::new();
    for (_, b, _) in cases {
        for (name, _) in &b.stages {
            if !stage_names.contains(name) {
                stage_names.push(name);
            }
        }
    }
    stage_names.sort_unstable();
    let cols: Vec<&str> = cases.iter().map(|(n, _, _)| *n).collect();
    let mut m = Matrix::new(title, "ns per op (span self-times)", &cols);
    let row = |cell: &dyn Fn(&Breakdown, f64) -> f64| -> Vec<f64> {
        cases.iter().map(|(_, b, paper)| cell(b, *paper)).collect()
    };
    for stage in &stage_names {
        let ns = |b: &Breakdown| b.stages.iter().find(|(n, _)| n == stage).map(|(_, ns)| *ns);
        m.push_row(stage, row(&|b, _| ns(b).unwrap_or(0.0)));
    }
    m.push_row("SUM(stages)", row(&|b, _| b.spanned_ns()));
    m.push_row("end-to-end", row(&|b, _| b.end_to_end_ns));
    m.push_row("paper", row(&|_, paper| paper));
    m
}

/// Regenerates both breakdowns, the Chrome trace and the drift checks.
pub fn run() -> Outcome {
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if ok {
            println!("ok    {msg}");
        } else {
            println!("DRIFT {msg}");
            failures.push(msg);
        }
    };

    // --- Figure 10a: page-fault breakdown (DESIGN.md §4 anchors) ---------
    let pages = 512;
    let pf: Vec<(&str, Breakdown, f64)> = vec![
        ("CKI", pgfault_breakdown(Backend::Cki, pages), 1_067.0),
        ("PVM", pgfault_breakdown(Backend::Pvm, pages), 4_407.0),
        ("HVM-BM", pgfault_breakdown(Backend::HvmBm, pages), 3_257.0),
        (
            "HVM-NST",
            pgfault_breakdown(Backend::HvmNested, pages),
            32_565.0,
        ),
    ];
    let fig10a = report("Figure 10a (measured spans): page-fault breakdown", &pf);

    for (name, b, _) in &pf {
        let cov = b.spanned_ns() / b.end_to_end_ns;
        check(
            (cov - 1.0).abs() <= 0.01,
            format!(
                "pgfault/{name}: stage sum {:.1} ns vs end-to-end {:.1} ns (coverage {:.2}%)",
                b.spanned_ns(),
                b.end_to_end_ns,
                cov * 100.0
            ),
        );
    }
    let cki_pf = &pf[0].1;
    check(
        (cki_pf.end_to_end_ns / 1_067.0 - 1.0).abs() <= 0.10,
        format!(
            "pgfault/CKI total {:.1} ns within 10% of the 1 067 ns anchor",
            cki_pf.end_to_end_ns
        ),
    );

    // --- Figure 10b: syscall latency with the OPT ablations --------------
    let iters = 400;
    let sc: Vec<(&str, Breakdown, f64)> = vec![
        ("CKI", syscall_breakdown(Backend::Cki, iters), 90.0),
        (
            "CKI-wo-OPT3",
            syscall_breakdown(Backend::CkiWoOpt3, iters),
            153.0,
        ),
        (
            "CKI-wo-OPT2",
            syscall_breakdown(Backend::CkiWoOpt2, iters),
            238.0,
        ),
        ("PVM", syscall_breakdown(Backend::Pvm, iters), 336.0),
    ];
    let fig10b = report("Figure 10b (measured spans): syscall breakdown", &sc);

    for (name, b, _) in &sc {
        let cov = b.spanned_ns() / b.end_to_end_ns;
        check(
            (cov - 1.0).abs() <= 0.01,
            format!(
                "syscall/{name}: stage sum {:.1} ns vs end-to-end {:.1} ns (coverage {:.2}%)",
                b.spanned_ns(),
                b.end_to_end_ns,
                cov * 100.0
            ),
        );
    }
    let (cki, wo3, wo2, pvm) = (
        sc[0].1.end_to_end_ns,
        sc[1].1.end_to_end_ns,
        sc[2].1.end_to_end_ns,
        sc[3].1.end_to_end_ns,
    );
    check(
        (90.0..=336.0).contains(&cki),
        format!("syscall/CKI total {cki:.1} ns inside the paper's 90–336 ns band"),
    );
    check(
        cki < wo3 && wo3 < wo2 && wo2 < pvm,
        format!("syscall ablation ordering CKI {cki:.1} < wo-OPT3 {wo3:.1} < wo-OPT2 {wo2:.1} < PVM {pvm:.1}"),
    );

    // --- Chrome-trace export of a profiled CKI page-fault run -----------
    let mut stack = Stack::new(Backend::Cki, StackConfig::default());
    stack.set_profiling(true);
    let mut env = stack.env();
    let base = env.mmap(16 * 4096).expect("mmap");
    env.touch_range(base, 16 * 4096, true).expect("touch");
    let trace = stack.chrome_trace();
    check(
        trace.trim_start().starts_with('[')
            && json_balanced(&trace)
            && trace.contains("\"ph\": \"B\""),
        format!(
            "chrome trace valid ({} events) -> results/cki_pgfault_trace.json",
            trace.matches("\"ph\"").count()
        ),
    );

    // Machine-readable summary: per-backend end-to-end latencies plus the
    // drift-check tally, checked by `repro check`.
    let mut o = Outcome::from([fig10a, fig10b]);
    for (prefix, cases) in [("pgfault", &pf), ("syscall", &sc)] {
        for (name, b, _) in cases {
            let key = name.to_lowercase().replace('-', "_");
            o.fixed(format!("{prefix}_{key}_ns"), b.end_to_end_ns, 3);
        }
    }
    o.push("trace_events", trace.matches("\"ph\"").count() as u64);
    o.push("drift_failures", failures.len() as u64);
    o.files.push(("cki_pgfault_trace.json".to_owned(), trace));
    o.failures = failures;
    o
}
