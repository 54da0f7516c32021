//! One function per table/figure of the paper's evaluation.
//!
//! Every function boots fresh stacks, runs the paper's workload with the
//! paper's sweep, and returns a [`Matrix`] shaped like the original
//! artifact. The mapping to paper artifacts is in DESIGN.md §3; measured
//! vs paper values are recorded in EXPERIMENTS.md.

use cki::{Backend, Stack, StackConfig};
use guest_os::Sys;
use sim_hw::{HwExtensions, Tag};
use workloads::btree::BTreeWorkload;
use workloads::gups::GupsWorkload;
use workloads::iobench::{IoCase, IoWorkload};
use workloads::kv::{KvKind, KvServerWorkload};
use workloads::lmbench::{self, LmCase};
use workloads::parsec::{ParsecKind, ParsecWorkload};
use workloads::sqlite::{SqliteBlkWorkload, SqliteCase, SqliteWorkload};
use workloads::xsbench::XsBenchWorkload;

use crate::util::{Matrix, Scale};

/// The memory-intensive applications of Figures 4/12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemApp {
    /// BTree KV store.
    Btree,
    /// XSBench Monte Carlo.
    Xsbench,
    /// canneal.
    Canneal,
    /// dedup.
    Dedup,
    /// fluidanimate.
    Fluidanimate,
    /// freqmine.
    Freqmine,
}

impl MemApp {
    /// All six, in figure order.
    pub const ALL: [MemApp; 6] = [
        MemApp::Btree,
        MemApp::Xsbench,
        MemApp::Canneal,
        MemApp::Dedup,
        MemApp::Fluidanimate,
        MemApp::Freqmine,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MemApp::Btree => "btree",
            MemApp::Xsbench => "xsbench",
            MemApp::Canneal => "canneal",
            MemApp::Dedup => "dedup",
            MemApp::Fluidanimate => "fluidanimate",
            MemApp::Freqmine => "freqmine",
        }
    }
}

fn boot(backend: Backend, clients: u32) -> Stack {
    Stack::new(
        backend,
        StackConfig {
            clients,
            ..StackConfig::default()
        },
    )
}

/// One cell per backend, in column order.
fn row(backends: &[(&str, Backend)], cell: impl FnMut(Backend) -> f64) -> Vec<f64> {
    backends.iter().map(|&(_, b)| b).map(cell).collect()
}

/// Publishes a finished stack's unified metrics snapshot to the `repro`
/// sink (no-op outside a capture window — see [`crate::util::sink`]).
fn record_stack(stack: &Stack) {
    crate::util::sink::record(stack.backend.name(), stack.metrics_snapshot());
}

/// End-to-end latency (ns) of one memory-intensive app on one backend.
pub fn mem_app_latency(backend: Backend, app: MemApp, scale: Scale) -> f64 {
    let mut stack = boot(backend, 0);
    let mut env = stack.env();
    let report = match app {
        MemApp::Btree => BTreeWorkload::new(scale.n(24_000), 2).run(&mut env),
        MemApp::Xsbench => {
            XsBenchWorkload::new(scale.n(6_000) * 4096, scale.n(8_000)).run(&mut env)
        }
        MemApp::Canneal => {
            ParsecWorkload::new(ParsecKind::Canneal, scale.n(4_000) * 4096, scale.n(30_000))
                .run(&mut env)
        }
        MemApp::Dedup => {
            ParsecWorkload::new(ParsecKind::Dedup, scale.n(4_000) * 4096, scale.n(1_600))
                .run(&mut env)
        }
        MemApp::Fluidanimate => {
            ParsecWorkload::new(ParsecKind::Fluidanimate, scale.n(2_000) * 4096, 3).run(&mut env)
        }
        MemApp::Freqmine => {
            ParsecWorkload::new(ParsecKind::Freqmine, scale.n(4_000) * 4096, scale.n(9_000))
                .run(&mut env)
        }
    }
    .expect("mem app run");
    record_stack(&stack);
    report.ns
}

/// Empty-syscall latency (ns) on one backend.
pub fn syscall_ns(backend: Backend) -> f64 {
    let mut stack = boot(backend, 0);
    let mut env = stack.env();
    env.sys(Sys::Getpid).expect("warm");
    let t0 = env.now_ns();
    let iters = 200;
    for _ in 0..iters {
        env.sys(Sys::Getpid).expect("getpid");
    }
    let ns = (env.now_ns() - t0) / iters as f64;
    record_stack(&stack);
    ns
}

/// Anonymous-page fault latency (ns) on one backend.
pub fn pgfault_ns(backend: Backend, pages: u64) -> f64 {
    let mut stack = boot(backend, 0);
    let mut env = stack.env();
    let base = env.mmap(pages * 4096).expect("mmap");
    let t0 = env.now_ns();
    env.touch_range(base, pages * 4096, true).expect("touch");
    let ns = (env.now_ns() - t0) / pages as f64;
    record_stack(&stack);
    ns
}

/// Empty-hypercall latency (ns) on one backend.
pub fn hypercall_ns(backend: Backend) -> f64 {
    let mut stack = boot(backend, 0);
    stack.machine.cpu.mode = sim_hw::Mode::Kernel;
    let t0 = stack.ns();
    let iters = 100;
    for _ in 0..iters {
        stack
            .kernel
            .platform
            .hypercall(&mut stack.machine, guest_os::Hypercall::Nop);
    }
    let ns = (stack.ns() - t0) / iters as f64;
    record_stack(&stack);
    ns
}

/// Table 2: container performance on microbenchmarks (ns).
pub fn table2(scale: Scale) -> Matrix {
    let pages = scale.n(512);
    let backends = [
        ("RunC", Backend::RunC),
        ("HVM-BM", Backend::HvmBm),
        ("PVM", Backend::Pvm),
        ("HVM-NST", Backend::HvmNested),
        ("PVM-NST", Backend::PvmNested),
        ("CKI", Backend::Cki),
    ];
    let mut m = Matrix::new(
        "Table 2: container microbenchmarks",
        "ns",
        &backends.map(|(n, _)| n),
    );
    m.push_row("syscall", row(&backends, syscall_ns));
    m.push_row("pgfault", row(&backends, |b| pgfault_ns(b, pages)));
    let hypercall = |b| match b {
        Backend::RunC => 0.0,
        _ => hypercall_ns(b),
    };
    m.push_row("hypercall", row(&backends, hypercall));
    m
}

/// Figure 2: CVE classification.
pub fn fig02() -> Matrix {
    let f = cve_model::figure2();
    let mut m = Matrix::new(
        "Figure 2: Linux kernel CVEs exploitable by containers (2022-23)",
        "share",
        &["count", "share", "DoS"],
    );
    for (cat, count, share) in &f.rows {
        m.push_row(
            cat.label(),
            vec![*count as f64, *share, if cat.is_dos() { 1.0 } else { 0.0 }],
        );
    }
    m.push_row("TOTAL", vec![f.total as f64, 1.0, f.dos_share]);
    m
}

/// The five configurations of the motivation figures (4 and 5).
const MOTIVATION: [(&str, Backend); 5] = [
    ("HVM-NST", Backend::HvmNested),
    ("PVM-NST", Backend::PvmNested),
    ("RunC-BM", Backend::RunC),
    ("HVM-BM", Backend::HvmBm),
    ("PVM-BM", Backend::Pvm),
];

/// Latency of every memory-intensive app on every backend (Figures 4, 12).
fn mem_apps(title: &str, unit: &str, backends: &[(&str, Backend)], scale: Scale) -> Matrix {
    let cols: Vec<&str> = backends.iter().map(|&(n, _)| n).collect();
    let mut m = Matrix::new(title, unit, &cols);
    for app in MemApp::ALL {
        m.push_row(
            app.name(),
            row(backends, |b| mem_app_latency(b, app, scale)),
        );
    }
    m
}

/// Figure 4: motivation — memory-intensive latency, normalized to RunC-BM.
pub fn fig04(scale: Scale) -> Matrix {
    mem_apps(
        "Figure 4: memory-intensive latency (motivation)",
        "ns (normalize to RunC-BM)",
        &MOTIVATION,
        scale,
    )
}

/// Throughput (ops/s) of one I/O case on one backend with 16 clients.
pub fn io_tput(backend: Backend, case: IoCase, scale: Scale) -> f64 {
    // netperf RR is a single-stream latency test.
    let clients = if case == IoCase::NetperfRr { 1 } else { 16 };
    let mut stack = boot(backend, clients);
    let mut env = stack.env();
    let reqs = scale.n(3000);
    let ops = IoWorkload::new(case, reqs)
        .run(&mut env)
        .expect("io run")
        .ops_per_sec();
    record_stack(&stack);
    ops
}

/// Figure 5: motivation — I/O-intensive throughput, normalized to RunC-BM.
pub fn fig05(scale: Scale) -> Matrix {
    let mut m = Matrix::new(
        "Figure 5: I/O-intensive throughput (motivation)",
        "ops/s (normalize to RunC-BM)",
        &MOTIVATION.map(|(n, _)| n),
    );
    for case in IoCase::ALL {
        m.push_row(case.name(), row(&MOTIVATION, |b| io_tput(b, case, scale)));
    }
    // Key-value servers and SQLite round out the paper's eight columns.
    for kind in [KvKind::Redis, KvKind::Memcached] {
        m.push_row(
            kind.name(),
            row(&MOTIVATION, |b| kv_tput(b, kind, 16, scale)),
        );
    }
    let sqlite = |b| sqlite_run(b, SqliteCase::FillRandom, scale).ops_per_sec();
    m.push_row("sqlite(tmpfs)", row(&MOTIVATION, sqlite));
    m
}

/// Figure 10a: page-fault latency breakdown per backend.
///
/// Columns are the paper's breakdown buckets; rows are backends.
pub fn fig10a(scale: Scale) -> Matrix {
    let pages = scale.n(512);
    let mut m = Matrix::new(
        "Figure 10a: page-fault latency breakdown",
        "ns per fault",
        &[
            "handler",
            "vm-exits",
            "spt/sept-emu",
            "ept-fault",
            "ksm-calls",
            "total",
        ],
    );
    for (name, backend) in [
        ("HVM-NST", Backend::HvmNested),
        ("HVM-BM", Backend::HvmBm),
        ("PVM", Backend::Pvm),
        ("CKI", Backend::Cki),
        ("RunC", Backend::RunC),
    ] {
        let mut stack = boot(backend, 0);
        let mut env = stack.env();
        let base = env.mmap(pages * 4096).expect("mmap");
        env.machine.cpu.clock.reset_tags();
        let t0 = env.now_ns();
        env.touch_range(base, pages * 4096, true).expect("touch");
        let total = (env.now_ns() - t0) / pages as f64;
        let per = |t: Tag| env.machine.cpu.clock.tagged_ns(t) / pages as f64;
        m.push_row(
            name,
            vec![
                per(Tag::Handler) + per(Tag::Mmu) + per(Tag::Compute),
                per(Tag::VmExit),
                per(Tag::SptEmul),
                per(Tag::EptFault),
                per(Tag::KsmCall),
                total,
            ],
        );
        record_stack(&stack);
    }
    m
}

/// Figure 10b: empty-syscall latency with the OPT ablations.
pub fn fig10b() -> Matrix {
    let mut m = Matrix::new(
        "Figure 10b: syscall latency + ablations",
        "ns",
        &["latency"],
    );
    for (name, backend) in [
        ("RunC", Backend::RunC),
        ("HVM", Backend::HvmBm),
        ("CKI", Backend::Cki),
        ("CKI-wo-OPT3", Backend::CkiWoOpt3),
        ("CKI-wo-OPT2", Backend::CkiWoOpt2),
        ("PVM", Backend::Pvm),
    ] {
        m.push_row(name, vec![syscall_ns(backend)]);
    }
    m
}

/// Figure 11: lmbench, normalized to RunC.
pub fn fig11(scale: Scale) -> Matrix {
    let backends = [
        ("RunC", Backend::RunC),
        ("HVM", Backend::HvmBm),
        ("CKI", Backend::Cki),
        ("PVM", Backend::Pvm),
    ];
    let mut m = Matrix::new(
        "Figure 11: lmbench",
        "ns/op (normalize to RunC)",
        &backends.map(|(n, _)| n),
    );
    for case in LmCase::ALL {
        let iters = match case {
            LmCase::ForkExit | LmCase::ForkExecve => scale.n(120),
            _ => scale.n(1200),
        };
        let cell = |b| {
            let mut stack = boot(b, 0);
            let mut env = stack.env();
            let r = lmbench::run_case(&mut env, case, iters).expect("lmbench case");
            record_stack(&stack);
            r.ns_per_op()
        };
        m.push_row(case.name(), row(&backends, cell));
    }
    m
}

/// Figure 12: memory-intensive apps across all configurations (+2M).
pub fn fig12(scale: Scale) -> Matrix {
    let backends = [
        ("HVM-NST", Backend::HvmNested),
        ("HVM-BM", Backend::HvmBm),
        ("PVM", Backend::Pvm),
        ("CKI", Backend::Cki),
        ("RunC", Backend::RunC),
        ("HVM-BM-2M", Backend::HvmBm2M),
    ];
    mem_apps(
        "Figure 12: memory-intensive latency",
        "ns (normalize to RunC)",
        &backends,
        scale,
    )
}

/// The secure containers Figure 13 compares with RunC.
const FIG13: [(&str, Backend); 3] = [
    ("HVM-BM", Backend::HvmBm),
    ("PVM", Backend::Pvm),
    ("CKI", Backend::Cki),
];

/// Percent overhead over RunC of `ns(backend)` on each Figure 13 backend.
fn overhead_row(mut ns: impl FnMut(Backend) -> f64) -> Vec<f64> {
    let base = ns(Backend::RunC);
    row(&FIG13, |b| (ns(b) / base - 1.0) * 100.0)
}

/// Figure 13a: secure-container overhead vs the BTree lookup/insert ratio.
pub fn fig13a(scale: Scale) -> Matrix {
    let mut m = Matrix::new(
        "Figure 13a: BTree overhead vs lookup/insert ratio",
        "% over RunC",
        &FIG13.map(|(n, _)| n),
    );
    for ratio in [0u64, 1, 2, 4, 8, 16] {
        let run = |b: Backend| {
            let mut stack = boot(b, 0);
            let mut env = stack.env();
            let ns = BTreeWorkload::new(scale.n(12_000), ratio)
                .run(&mut env)
                .expect("btree")
                .ns;
            record_stack(&stack);
            ns
        };
        m.push_row(&format!("ratio={ratio}"), overhead_row(run));
    }
    m
}

/// Figure 13b: secure-container overhead vs the XSBench particle count.
pub fn fig13b(scale: Scale) -> Matrix {
    let mut m = Matrix::new(
        "Figure 13b: XSBench overhead vs particles",
        "% over RunC",
        &FIG13.map(|(n, _)| n),
    );
    for particles in [2_000u64, 5_000, 10_000, 20_000, 40_000] {
        let p = scale.n(particles);
        let run = |b: Backend| {
            let mut stack = boot(b, 0);
            let mut env = stack.env();
            let ns = XsBenchWorkload::new(scale.n(6_000) * 4096, p)
                .run(&mut env)
                .expect("xsbench")
                .ns;
            record_stack(&stack);
            ns
        };
        m.push_row(&format!("particles={particles}"), overhead_row(run));
    }
    m
}

/// Table 4: TLB-miss-intensive finish times (simulated seconds).
pub fn table4(scale: Scale) -> Matrix {
    let backends = [
        ("RunC-BM", Backend::RunC),
        ("HVM-BM", Backend::HvmBm),
        ("HVM-BM-2M", Backend::HvmBm2M),
        ("PVM-BM", Backend::Pvm),
        ("CKI-BM", Backend::Cki),
    ];
    let mut m = Matrix::new(
        "Table 4: TLB-miss-intensive finish time",
        "simulated ms",
        &backends.map(|(n, _)| n),
    );
    let gups = |b: Backend| {
        let mut stack = boot(b, 0);
        let mut env = stack.env();
        let ns = GupsWorkload::new(192 * 1024 * 1024, scale.n(400_000))
            .run(&mut env)
            .expect("gups")
            .ns;
        record_stack(&stack);
        ns / 1e6
    };
    m.push_row("GUPS", row(&backends, gups));
    let btree = |b: Backend| {
        let mut stack = boot(b, 0);
        let mut env = stack.env();
        let mut w = BTreeWorkload::new(scale.n(160_000), 0);
        let ns = w
            .run_lookup_only(&mut env, scale.n(300_000))
            .expect("btree lookup")
            .ns;
        record_stack(&stack);
        ns / 1e6
    };
    m.push_row("BTree-Lookup", row(&backends, btree));
    m
}

/// Runs one sqlite-bench case on one backend.
pub fn sqlite_run(backend: Backend, case: SqliteCase, scale: Scale) -> workloads::Report {
    let mut stack = boot(backend, 0);
    let mut env = stack.env();
    let report = SqliteWorkload::new(scale.n(4_000))
        .run(&mut env, case)
        .expect("sqlite");
    record_stack(&stack);
    report
}

/// Figure 14: SQLite throughput per case and backend, plus syscall rate.
pub fn fig14(scale: Scale) -> [Matrix; 2] {
    let backends = [
        ("PVM", Backend::Pvm),
        ("CKI", Backend::Cki),
        ("HVM", Backend::HvmBm),
        ("RunC", Backend::RunC),
    ];
    let mut tput = Matrix::new(
        "Figure 14: SQLite throughput",
        "ops/s (normalize to RunC)",
        &backends.map(|(n, _)| n),
    );
    let mut rate = Matrix::new("Figure 14: syscall frequency", "syscalls/s", &["RunC"]);
    for case in SqliteCase::ALL {
        let cell = |b| sqlite_run(b, case, scale).ops_per_sec();
        tput.push_row(case.name(), row(&backends, cell));
        let r = sqlite_run(Backend::RunC, case, scale);
        rate.push_row(case.name(), vec![r.syscall_rate()]);
    }
    [tput, rate]
}

/// Figure 15: syscall-optimization breakdown on SQLite (overhead vs CKI).
pub fn fig15(scale: Scale) -> Matrix {
    let variants = [
        ("PVM", Backend::Pvm),
        ("CKI-wo-OPT2", Backend::CkiWoOpt2),
        ("CKI-wo-OPT3", Backend::CkiWoOpt3),
    ];
    let mut m = Matrix::new(
        "Figure 15: CKI syscall optimizations on SQLite",
        "% overhead vs CKI",
        &variants.map(|(n, _)| n),
    );
    for case in SqliteCase::ALL {
        let base = sqlite_run(Backend::Cki, case, scale).ns;
        let cell = |b| (sqlite_run(b, case, scale).ns / base - 1.0) * 100.0;
        m.push_row(case.name(), row(&variants, cell));
    }
    m
}

/// Key-value server throughput with a 16-vCPU container model: clients are
/// spread over vCPUs; each vCPU runs the event loop independently.
pub fn kv_tput(backend: Backend, kind: KvKind, clients: u32, scale: Scale) -> f64 {
    // memcached is threaded across the container's 16 vCPUs; Redis runs a
    // single-threaded event loop (so all clients share one loop, and batch
    // amortization is much better — one reason the paper's Redis ratios
    // are smaller than its memcached ratios).
    let vcpus: u32 = match kind {
        KvKind::Memcached => 16,
        KvKind::Redis => 1,
    };
    let active = clients.min(vcpus).max(1);
    let per_vcpu_clients = clients.div_ceil(vcpus).max(1);
    let mut stack = boot(backend, per_vcpu_clients);
    let mut env = stack.env();
    let reqs = scale.n(3_000);
    let r = KvServerWorkload::new(kind, reqs)
        .run(&mut env)
        .expect("kv run");
    record_stack(&stack);
    r.ops_per_sec() * active as f64
}

/// Figure 16: KV-store throughput vs number of clients.
pub fn fig16(scale: Scale) -> Matrix {
    let series = [
        ("mc/HVM-NST", KvKind::Memcached, Backend::HvmNested),
        ("mc/PVM-BM", KvKind::Memcached, Backend::Pvm),
        ("mc/PVM-NST", KvKind::Memcached, Backend::PvmNested),
        ("mc/CKI-BM", KvKind::Memcached, Backend::Cki),
        ("mc/CKI-NST", KvKind::Memcached, Backend::CkiNested),
        ("rd/HVM-NST", KvKind::Redis, Backend::HvmNested),
        ("rd/PVM-BM", KvKind::Redis, Backend::Pvm),
        ("rd/PVM-NST", KvKind::Redis, Backend::PvmNested),
        ("rd/CKI-BM", KvKind::Redis, Backend::Cki),
        ("rd/CKI-NST", KvKind::Redis, Backend::CkiNested),
    ];
    let mut m = Matrix::new(
        "Figure 16: KV throughput vs clients",
        "kops/s",
        &series.map(|(n, _, _)| n),
    );
    for clients in [1u32, 2, 4, 8, 16, 32, 64, 128] {
        m.push_row(
            &format!("clients={clients}"),
            series
                .iter()
                .map(|&(_, kind, b)| kv_tput(b, kind, clients, scale) / 1e3)
                .collect(),
        );
    }
    m
}

/// Table 3: the privileged-instruction policy, verified live on the
/// simulated CKI hardware (each instruction is executed with
/// `PKRS = PKRS_GUEST` and the observed behaviour reported).
pub fn table3() -> Matrix {
    use sim_hw::instr::InvpcidMode;
    use sim_hw::{Instr, IretFrame};
    let rows: Vec<(&str, Instr)> = vec![
        ("lidt", Instr::Lidt { base: 0 }),
        ("lgdt", Instr::Lgdt { base: 0 }),
        ("ltr", Instr::Ltr { selector: 0 }),
        ("rdmsr", Instr::Rdmsr { msr: 0x10 }),
        (
            "wrmsr",
            Instr::Wrmsr {
                msr: 0x10,
                value: 0,
            },
        ),
        ("mov reg, cr0", Instr::ReadCr { cr: 0 }),
        ("mov reg, cr4", Instr::ReadCr { cr: 4 }),
        ("mov cr0, reg", Instr::WriteCr0 { value: 0x8000_0033 }),
        ("mov cr4, reg", Instr::WriteCr4 { value: 0 }),
        (
            "mov cr3, reg",
            Instr::WriteCr3 {
                value: 0,
                preserve_tlb: true,
            },
        ),
        ("clac", Instr::Clac),
        ("stac", Instr::Stac),
        ("invlpg", Instr::Invlpg { va: 0x1000 }),
        (
            "invpcid",
            Instr::Invpcid {
                mode: InvpcidMode::AllContexts,
            },
        ),
        ("swapgs", Instr::Swapgs),
        ("sysret", Instr::Sysret { restore_if: true }),
        (
            "iret",
            Instr::Iret {
                frame: IretFrame::default(),
            },
        ),
        ("hlt", Instr::Hlt),
        ("cli", Instr::Cli),
        ("sti", Instr::Sti),
        ("popf", Instr::Popf { if_flag: true }),
        ("in", Instr::InPort { port: 0x60 }),
        (
            "out",
            Instr::OutPort {
                port: 0x60,
                value: 0,
            },
        ),
        ("smsw", Instr::Smsw),
        (
            "wrpkrs",
            Instr::Wrpkrs {
                value: cki_core::pkrs_guest(),
            },
        ),
    ];
    let mut m = Matrix::new(
        "Table 3: privileged instructions in the deprivileged guest kernel",
        "1 = blocked (traps to host), 0 = executable",
        &["policy", "observed"],
    );
    for (name, instr) in rows {
        let policy = matches!(instr.guest_policy(), sim_hw::GuestPolicy::Blocked);
        let mut machine = sim_hw::Machine::new(64 * 1024 * 1024, HwExtensions::cki());
        machine.cpu.mode = sim_hw::Mode::Kernel;
        machine.cpu.pkrs = cki_core::pkrs_guest();
        let observed = matches!(
            machine.cpu.exec(&mut machine.mem, instr),
            Err(sim_hw::Fault::BlockedPrivileged { .. })
        );
        m.push_row(name, vec![policy as u64 as f64, observed as u64 as f64]);
    }
    m
}

/// Table 5: comparison with prior intra-kernel isolation work (static,
/// from the paper's related-work analysis; 1 = has the property).
pub fn table5() -> Matrix {
    let systems = [
        "NestedKernel",
        "LVD",
        "UnderBridge",
        "NICKLE",
        "SILVER",
        "BULKHEAD",
        "CKI",
    ];
    let mut m = Matrix::new(
        "Table 5: intra-kernel isolation domain comparison",
        "1 = property held",
        &systems,
    );
    m.push_row("scalable domains", vec![0., 1., 0., 0., 1., 1., 1.]);
    m.push_row(
        "secure+efficient pgtbl mgmt",
        vec![1., 0., 0., 0., 1., 1., 1.],
    );
    m.push_row("no virt hardware", vec![1., 0., 0., 0., 1., 1., 1.]);
    m.push_row(
        "complete priv-inst isolation",
        vec![0., 1., 1., 0., 0., 0., 1.],
    );
    m.push_row("interrupt redirection", vec![0., 1., 1., 0., 1., 1., 1.]);
    m.push_row(
        "interrupt-forgery prevention",
        vec![0., 0., 0., 0., 0., 0., 1.],
    );
    m
}

/// Extension: SQLite on a VirtIO block device. The paper's tmpfs setup
/// isolates syscall costs; this isolates *virtualized I/O*: every
/// buffer-cache miss and journal flush is a device request whose
/// notification path costs one exit-class crossing.
pub fn sqlite_blk(scale: Scale) -> Matrix {
    let backends = [
        ("RunC", Backend::RunC),
        ("HVM-BM", Backend::HvmBm),
        ("HVM-NST", Backend::HvmNested),
        ("PVM", Backend::Pvm),
        ("CKI", Backend::Cki),
    ];
    let mut m = Matrix::new(
        "Extension: SQLite on VirtIO-blk",
        "ops/s (normalize to RunC)",
        &backends.map(|(n, _)| n),
    );
    for case in [
        SqliteCase::FillSeq,
        SqliteCase::FillSeqBatch,
        SqliteCase::ReadRandom,
    ] {
        let cell = |b| {
            let mut stack = Stack::new(b, StackConfig::default());
            let mut env = stack.env();
            let r = SqliteBlkWorkload::new(scale.n(1500))
                .run(&mut env, case)
                .expect("run");
            r.ops_per_sec()
        };
        m.push_row(case.name(), row(&backends, cell));
    }
    m
}

/// The paper's Table 1 / Figure 3 design space, *measured*: every
/// VM-level container architecture on the same microbenchmarks, plus the
/// security and compatibility properties each one gives up.
pub fn design_space(scale: Scale) -> [Matrix; 2] {
    let pages = scale.n(512);
    let backends = [
        Backend::RunC,
        Backend::HvmBm,
        Backend::HvmNested,
        Backend::Pvm,
        Backend::Gvisor,
        Backend::LibOs,
        Backend::Cki,
    ]
    .map(|b| (b.name(), b));
    let names = backends.map(|(n, _)| n);

    let mut perf = Matrix::new("Design space (Table 1/Figure 3), measured", "ns", &names);
    perf.push_row("syscall", row(&backends, syscall_ns));
    perf.push_row("pgfault", row(&backends, |b| pgfault_ns(b, pages)));

    let mut props = Matrix::new("Design space: properties (1 = held)", "bool", &names);
    // Kernel separation: a compromised container kernel cannot reach the
    // host or neighbours.
    props.push_row("kernel separation", vec![0., 1., 1., 1., 1., 1., 1.]);
    // Guest user/kernel isolation inside the container.
    props.push_row("guest U/K isolation", vec![1., 1., 1., 1., 1., 0., 1.]);
    // Nested-cloud deployment without L0 intervention on exits.
    props.push_row("nested w/o L0 exits", vec![1., 0., 0., 1., 1., 1., 1.]);
    // Multi-processing support, measured right now:
    let forkable = |b| {
        let mut stack = Stack::new(b, StackConfig::default());
        let mut env = stack.env();
        env.sys(Sys::Fork).is_ok() as u64 as f64
    };
    props.push_row("fork works", row(&backends, forkable));
    [perf, props]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds() {
        let m = table2(Scale::Quick);
        // Syscall: RunC ≈ HVM ≈ CKI ≈ 90 ns; PVM ≈ 336 ns.
        assert!((m.get("syscall", "RunC") - 90.0).abs() < 15.0);
        assert!((m.get("syscall", "PVM") - 336.0).abs() < 40.0);
        assert!((m.get("syscall", "CKI") - 90.0).abs() < 15.0);
        // Page fault ordering: RunC ≈ CKI < HVM-BM < PVM < HVM-NST.
        assert!(m.get("pgfault", "CKI") < 1.25 * m.get("pgfault", "RunC"));
        assert!(m.get("pgfault", "HVM-BM") > 2.0 * m.get("pgfault", "CKI"));
        assert!(m.get("pgfault", "HVM-NST") > 5.0 * m.get("pgfault", "PVM"));
        // Hypercall: CKI < PVM < HVM-BM < HVM-NST.
        assert!(m.get("hypercall", "CKI") < m.get("hypercall", "PVM"));
        assert!(m.get("hypercall", "HVM-NST") > 10.0 * m.get("hypercall", "CKI"));
    }

    #[test]
    fn fig10b_opt_ablation_ordering() {
        let m = fig10b();
        let cki = m.get("CKI", "latency");
        let wo3 = m.get("CKI-wo-OPT3", "latency");
        let wo2 = m.get("CKI-wo-OPT2", "latency");
        let pvm = m.get("PVM", "latency");
        assert!(
            cki < wo3 && wo3 < wo2 && wo2 < pvm,
            "{cki} {wo3} {wo2} {pvm}"
        );
    }

    #[test]
    fn table3_policy_matches_observation() {
        let m = table3();
        for (i, row) in m.rows.iter().enumerate() {
            assert_eq!(m.data[i][0], m.data[i][1], "policy vs observed for {row}");
        }
    }

    #[test]
    fn fig02_dos_share() {
        let m = fig02();
        assert!((m.get("TOTAL", "DoS") - 0.973).abs() < 0.01);
    }
}
