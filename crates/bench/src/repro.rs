//! The experiment table and the three ways to run it: by name, `all`
//! (which also writes `results/run_all.json`) and `gate`.
//!
//! Every table and figure of the paper, the extension experiments and the
//! machine-readable benchmarks are one [`Experiment`] entry in
//! [`EXPERIMENTS`]. Running an entry prints its matrices and paper note,
//! writes each matrix to `results/<stem>.tsv`, its scalars to
//! `results/BENCH_<name>.json` (see [`crate::outcome`]) and any further
//! files it returned.

use std::path::Path;
use std::time::Instant;

use obs::export::{json_escape, metrics_json};
use obs::MetricsSnapshot;

use crate::outcome::{bench_json, compare, parse_bench_json, Outcome, TOLERANCE};
use crate::util::{sink, Scale};
use crate::{ablations, cloud_churn, experiments, net_serving, perf_report, slo_report};

/// Where every output goes, relative to the working directory.
pub const RESULTS: &str = "results";

/// One entry of the experiment table.
pub struct Experiment {
    /// Name on the command line.
    pub name: &'static str,
    /// Runs the experiment.
    pub run: fn(Scale) -> Outcome,
    /// TSV file stems of the matrices `run` returns, in order.
    pub tsv: &'static [&'static str],
    /// Column the first matrix is normalized to on screen (files keep raw
    /// values).
    pub display: Option<&'static str>,
    /// What the paper reports, printed after the matrices.
    pub paper: &'static str,
}

impl Experiment {
    const fn new(
        name: &'static str,
        tsv: &'static [&'static str],
        run: fn(Scale) -> Outcome,
    ) -> Self {
        Self {
            name,
            run,
            tsv,
            display: None,
            paper: "",
        }
    }

    const fn display(self, column: &'static str) -> Self {
        Self {
            display: Some(column),
            ..self
        }
    }

    const fn paper(self, note: &'static str) -> Self {
        Self {
            paper: note,
            ..self
        }
    }
}

/// Every experiment, in `repro all` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("fig02", &["fig02"], |_| [experiments::fig02()].into()),
    Experiment::new("table2", &["table2"], |s| [experiments::table2(s)].into()).paper(
        "paper: syscall 93/91/336/91/336/90; pgfault 1000/3257/4407/32565/-/1067; \
         hypercall -/1088/466/6746/486/390",
    ),
    Experiment::new("table3", &["table3"], |_| [experiments::table3()].into()),
    Experiment::new("fig04", &["fig04"], |s| [experiments::fig04(s)].into()).display("RunC-BM"),
    Experiment::new("fig05", &["fig05"], |s| [experiments::fig05(s)].into()).display("RunC-BM"),
    Experiment::new("fig10a", &["fig10a"], |s| [experiments::fig10a(s)].into())
        .paper("paper totals: HVM-NST 32565, HVM-BM 3257, PVM 4407, CKI 1067, RunC ~1000 ns"),
    Experiment::new("fig10b", &["fig10b"], |_| [experiments::fig10b()].into())
        .paper("paper: RunC/HVM/CKI ~90, CKI-wo-OPT3 153, CKI-wo-OPT2 238, PVM 336 ns"),
    Experiment::new("fig11", &["fig11"], |s| [experiments::fig11(s)].into()).display("RunC"),
    Experiment::new("fig12", &["fig12"], |s| [experiments::fig12(s)].into())
        .display("RunC")
        .paper(
            "paper: CKI cuts latency 24-72% vs HVM-NST, 1-18% vs HVM-BM, 2-47% vs PVM; \
             <3% over RunC",
        ),
    Experiment::new("fig13a", &["fig13a"], |s| [experiments::fig13a(s)].into())
        .paper("paper: overhead falls with more lookups; CKI stays low throughout"),
    Experiment::new("fig13b", &["fig13b"], |s| [experiments::fig13b(s)].into())
        .paper("paper: overhead falls with more particles; CKI stays low throughout"),
    Experiment::new("table4", &["table4"], |s| [experiments::table4(s)].into())
        .display("RunC-BM")
        .paper(
            "paper (s, normalized to RunC): GUPS 1.00/1.23/1.22/1.00/1.00; \
             BTree-Lookup 1.00/1.07/1.07/0.96/1.00",
        ),
    Experiment::new("fig14", &["fig14_tput", "fig14_rate"], |s| {
        experiments::fig14(s).into()
    })
    .display("RunC")
    .paper("paper: PVM 19-24% below RunC on writes; CKI/HVM/RunC converge; reads converge for all"),
    Experiment::new("fig15", &["fig15"], |s| [experiments::fig15(s)].into())
        .paper("paper %: PVM 24/1/23/22/22/1/0; wo-OPT2 15/1/15/13/12/1/1; wo-OPT3 9/0/8/5/6/0/0"),
    Experiment::new("fig16", &["fig16"], |s| [experiments::fig16(s)].into()).paper(
        "paper: CKI-NST 6.8x HVM-NST (memcached) / 2.0x (redis); 1.8x/1.4x PVM-BM; \
         1.5x/1.3x PVM-NST",
    ),
    Experiment::new("table5", &["table5"], |_| [experiments::table5()].into()),
    Experiment::new("sqlite_blk", &["sqlite_blk"], |s| {
        [experiments::sqlite_blk(s)].into()
    })
    .display("RunC")
    .paper(
        "tmpfs hides virtualized I/O (paper §7.3); a block device exposes it: the \
         nested-HVM gap returns even for a database, while CKI stays near RunC.",
    ),
    Experiment::new(
        "design_space",
        &["design_space", "design_space_props"],
        |s| experiments::design_space(s).into(),
    )
    .paper(
        "CKI is the only design with native-speed syscalls+faults, full guest U/K \
         isolation, fork, and no L0 intervention when nested (paper Table 1).",
    ),
    Experiment::new(
        "ablations",
        &[
            "ablation_AblationPTIIBRSontheKSMg",
            "ablation_AblationpervCPUrootcopie",
            "ablation_Ablationsegmentfragmenta",
            "ablation_Futurework9PKSfastpaths",
        ],
        ablations::run,
    ),
    Experiment::new("cloud_churn", &[], cloud_churn::run),
    Experiment::new("slo_report", &[], slo_report::run),
    Experiment::new(
        "perf_report",
        &["perf_report_fig10a", "perf_report_fig10b"],
        |_| perf_report::run(),
    ),
    Experiment::new("net_serving", &[], net_serving::run),
];

/// Looks an entry up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Runs one entry inside a metrics-capture window, prints it and writes
/// its files under [`RESULTS`]. Returns the outcome and the per-backend
/// metrics snapshots captured while it ran.
pub fn execute(e: &Experiment, scale: Scale) -> (Outcome, Vec<(String, MetricsSnapshot)>) {
    sink::begin();
    let o = (e.run)(scale);
    let metrics = sink::end();
    assert_eq!(o.matrices.len(), e.tsv.len(), "{}: TSV stems", e.name);
    let dir = Path::new(RESULTS);
    std::fs::create_dir_all(dir).expect("create results dir");
    for (i, (stem, m)) in e.tsv.iter().zip(&o.matrices).enumerate() {
        match e.display.filter(|_| i == 0) {
            Some(col) => print!("{}", m.normalized_to(col).render()),
            None => print!("{}", m.render()),
        }
        m.save_tsv(&dir.join(format!("{stem}.tsv")));
    }
    if !e.paper.is_empty() {
        println!("{}", e.paper);
    }
    let bench =
        (!o.scalars.is_empty()).then(|| (bench_file(e.name), bench_json(scale, &o.scalars)));
    if let Some((_, json)) = &bench {
        print!("{json}");
    }
    for (file, text) in bench.iter().chain(&o.files) {
        std::fs::write(dir.join(file), text).unwrap_or_else(|err| panic!("write {file}: {err}"));
        println!("wrote {RESULTS}/{file}");
    }
    (o, metrics)
}

fn bench_file(name: &str) -> String {
    format!("BENCH_{name}.json")
}

/// Runs every entry and writes `results/run_all.json`, which carries each
/// entry's host wall time, matrices, scalars and captured metrics
/// snapshots, and the total wall time. Returns the self-check failures.
pub fn all(scale: Scale) -> Vec<String> {
    let t = Instant::now();
    let mut failures = Vec::new();
    let mut entries = Vec::new();
    for e in EXPERIMENTS {
        let started = Instant::now();
        let (o, metrics) = execute(e, scale);
        let wall = started.elapsed().as_secs_f64();
        let mats: Vec<String> = o.matrices.iter().map(|m| m.to_json()).collect();
        let snaps: Vec<String> = metrics
            .iter()
            .map(|(tag, s)| format!("\"{}\":{}", json_escape(tag), metrics_json(s)))
            .collect();
        entries.push(format!(
            "\"{}\":{{\"wall_seconds\":{wall:.3},\"matrices\":[{}],\"scalars\":{},\"metrics\":{{{}}}}}",
            e.name,
            mats.join(","),
            bench_json(scale, &o.scalars).trim_end(),
            snaps.join(",")
        ));
        failures.extend(o.failures);
    }
    let wall = t.elapsed().as_secs_f64();
    let json = format!(
        "{{\"scale\":\"{}\",\"wall_seconds\":{wall:.1},\"experiments\":{{{}}}}}\n",
        scale.name(),
        entries.join(",")
    );
    std::fs::write(Path::new(RESULTS).join("run_all.json"), json).expect("write run_all.json");
    println!("\nall experiments done in {wall:.1}s (wall clock); outputs in {RESULTS}/");
    failures
}

/// Runs every entry and compares each one that has scalars, or a
/// committed `BENCH_<name>.json`, against that file, read before the run
/// overwrites it. Returns every violation and self-check failure.
pub fn gate(scale: Scale) -> Vec<String> {
    let mut compared = 0;
    let mut violations = Vec::new();
    for e in EXPERIMENTS {
        let path = Path::new(RESULTS).join(bench_file(e.name));
        let committed = std::fs::read_to_string(&path).ok();
        let (o, _) = execute(e, scale);
        violations.extend(o.failures);
        let fresh = parse_bench_json(&bench_json(scale, &o.scalars)).expect("writer output parses");
        match committed.map(|text| parse_bench_json(&text)) {
            None if o.scalars.is_empty() => {}
            None => violations.push(format!("{}: not committed", path.display())),
            Some(Err(err)) => violations.push(format!("{}: {err}", path.display())),
            Some(Ok(committed)) => {
                let (n, v) = compare(e.name, &committed, &fresh);
                compared += n;
                violations.extend(v);
            }
        }
    }
    let (pct, n) = (TOLERANCE * 100.0, violations.len());
    println!("repro gate: {compared} metrics compared at ±{pct:.0}%, {n} violation(s)");
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_output_files_are_unique() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let stems: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.tsv).copied().collect();
        for list in [names, stems] {
            let unique: std::collections::BTreeSet<_> = list.iter().collect();
            assert_eq!(unique.len(), list.len(), "duplicates among {list:?}");
        }
        for mode in ["all", "gate", "micro"] {
            assert!(find(mode).is_none(), "{mode} is a mode, not a name");
        }
    }
}
