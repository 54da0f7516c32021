//! The experiment table and the three ways to run it: by name, `all`
//! (which also writes `results/run_all.json`) and `check`.
//!
//! Every table and figure of the paper, the extension experiments and the
//! machine-readable benchmarks are one [`Experiment`] entry in
//! [`EXPERIMENTS`]. [`render`] runs an entry and renders each matrix as
//! `<stem>.tsv`, its scalars as `BENCH_<name>.json` (see [`crate::outcome`])
//! and any further files it returned; [`execute`] prints the entry and
//! writes those files under `results/`, [`check`] compares them with the
//! committed ones.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use obs::export::{json_escape, metrics_json};
use obs::MetricsSnapshot;

use crate::outcome::{bench_json, parse_bench_json, Outcome, Value};
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

/// Runs one entry inside a metrics-capture window. Returns the outcome,
/// its `files` now holding every file the entry writes as (name, text):
/// its TSVs, its `BENCH_<name>.json` when it has scalars, then the files it
/// returned; and the per-backend metrics snapshots captured while it ran.
pub fn render(e: &Experiment, scale: Scale) -> (Outcome, Vec<(String, MetricsSnapshot)>) {
    sink::begin();
    let mut o = (e.run)(scale);
    let metrics = sink::end();
    assert_eq!(o.matrices.len(), e.tsv.len(), "{}: TSV stems", e.name);
    let tsvs = e.tsv.iter().zip(&o.matrices);
    let tsvs = tsvs.map(|(stem, m)| (format!("{stem}.tsv"), m.tsv()));
    let bench = format!("BENCH_{}.json", e.name);
    let bench = (!o.scalars.is_empty()).then(|| (bench, bench_json(scale, &o.scalars)));
    o.files = tsvs.chain(bench).chain(o.files).collect();
    (o, metrics)
}

/// [`render`]s one entry, prints it and writes its files under [`RESULTS`].
pub fn execute(e: &Experiment, scale: Scale) -> (Outcome, Vec<(String, MetricsSnapshot)>) {
    let (o, metrics) = render(e, scale);
    for (i, m) in o.matrices.iter().enumerate() {
        let shown = e.display.filter(|_| i == 0).map(|col| m.normalized_to(col));
        print!("{}", shown.as_ref().unwrap_or(m).render());
    }
    if !e.paper.is_empty() {
        println!("{}", e.paper);
    }
    let dir = Path::new(RESULTS);
    std::fs::create_dir_all(dir).expect("create results dir");
    for (file, text) in &o.files {
        std::fs::write(dir.join(file), text).unwrap_or_else(|err| panic!("write {file}: {err}"));
        println!("wrote {RESULTS}/{file}");
    }
    (o, metrics)
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

/// Runs `entries` at the scale of the results committed in `dir` and
/// compares every file they render with the committed one, byte for byte.
/// Writes nothing. Returns every failure: a scale mismatch (before anything
/// runs), a self-check failure, and each file that differs (at its first
/// differing line), is not committed, or is in `dir` but rendered by none.
pub fn check(dir: &Path, entries: &[Experiment], requested: Option<Scale>) -> Vec<String> {
    let mut committed = committed_files(dir);
    let scale = match committed_scale(&committed, requested) {
        Ok(scale) => scale,
        Err(err) => return vec![format!("{}: {err}", dir.display())],
    };
    let (mut failures, mut compared) = (Vec::new(), 0);
    for e in entries {
        let (o, _) = render(e, scale);
        failures.extend(o.failures);
        for (file, text) in o.files {
            let why = match committed.remove(&file) {
                Some(was) => first_difference(&was, &text),
                None => Some(" not committed".to_owned()),
            };
            failures.extend(why.map(|why| format!("{}:{why}", dir.join(file).display())));
            compared += 1;
        }
    }
    for file in committed.into_keys() {
        failures.push(format!("{}: no entry writes it", dir.join(file).display()));
    }
    let (n, scale) = (failures.len(), scale.name());
    println!("repro check: {compared} files compared at {scale} scale, {n} failure(s)");
    failures
}

/// `<line>: committed <line> but rendered <line>` for the first line where
/// the texts differ, or `None` when they are equal.
fn first_difference(committed: &str, rendered: &str) -> Option<String> {
    if committed == rendered {
        return None;
    }
    let mut was = committed.split_inclusive('\n');
    let mut now = rendered.split_inclusive('\n');
    let show = |line: Option<&str>| line.map_or("end of file".to_owned(), |l| format!("{l:?}"));
    for n in 1.. {
        let (was, now) = (show(was.next()), show(now.next()));
        if was != now {
            return Some(format!("{n}: committed {was} but rendered {now}"));
        }
    }
    unreachable!("unequal texts differ in some line")
}

/// Every file directly in `dir` but `run_all.json` (host wall time): name
/// and text.
fn committed_files(dir: &Path) -> BTreeMap<String, String> {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    let files = entries.filter_map(|entry| {
        let name = entry.file_name().into_string().ok()?;
        let text = String::from_utf8_lossy(&std::fs::read(entry.path()).ok()?).into_owned();
        (name != "run_all.json").then_some((name, text))
    });
    files.collect()
}

/// The scale `check` runs at: the `"scale"` of every committed
/// `BENCH_*.json` and `requested` (`CKI_BENCH_SCALE`, when set), which must
/// all agree; full when there is none of them. The error names two sources
/// that disagree, or a benchmark file without a scale.
fn committed_scale(
    committed: &BTreeMap<String, String>,
    requested: Option<Scale>,
) -> Result<Scale, String> {
    let mut sources = Vec::new();
    for (file, text) in committed.iter().filter(|(f, _)| f.starts_with("BENCH_")) {
        let scale = match parse_bench_json(text).map(|scalars| scalars.into_iter().next()) {
            Ok(Some((key, Value::Str(name)))) if key == "scale" => Scale::parse(&name).ok(),
            _ => None,
        };
        let scale = scale.ok_or_else(|| format!("{file}: no \"scale\" first"))?;
        sources.push((file.as_str(), scale));
    }
    sources.extend(requested.map(|scale| ("CKI_BENCH_SCALE", scale)));
    let (first, scale) = *sources.first().unwrap_or(&("", Scale::Full));
    match sources.iter().find(|(_, other)| *other != scale) {
        Some((source, other)) => {
            let (was, now) = (scale.name(), other.name());
            Err(format!("{first} is at {was} scale but {source} at {now}"))
        }
        None => Ok(scale),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn names_and_output_files_are_unique() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let stems: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.tsv).copied().collect();
        for list in [names, stems] {
            let unique: BTreeSet<_> = list.iter().collect();
            assert_eq!(unique.len(), list.len(), "duplicates among {list:?}");
        }
        for mode in ["all", "check", "micro"] {
            assert!(find(mode).is_none(), "{mode} is a mode, not a name");
        }
    }

    #[test]
    fn check_compares_every_file_byte_for_byte_and_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("cki-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (tsv, stale) = (dir.join("fig02.tsv"), dir.join("stale.tsv"));
        let committed = include_str!("../../../results/fig02.tsv");
        let files = || -> BTreeSet<_> {
            let paths = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path());
            paths.map(|p| (std::fs::read(&p).unwrap(), p)).collect()
        };
        let check = || {
            let before = files();
            let failures = check(&dir, std::slice::from_ref(find("fig02").unwrap()), None);
            assert_eq!(files(), before, "check wrote into {dir:?}");
            failures
        };
        std::fs::write(&tsv, committed).unwrap();
        assert_eq!(check(), Vec::<String>::new());
        std::fs::write(&tsv, committed.replacen("\t42\t", "\t43\t", 1)).unwrap();
        let [failure] = &check()[..] else {
            panic!("one failure")
        };
        let line = format!("{}:4: committed \"Use-After-Free\\t43\\t", tsv.display());
        assert!(failure.starts_with(&line), "{failure}");
        std::fs::remove_file(&tsv).unwrap();
        assert_eq!(check(), [format!("{}: not committed", tsv.display())]);
        std::fs::write(&tsv, committed).unwrap();
        std::fs::write(&stale, "").unwrap();
        let extra = format!("{}: no entry writes it", stale.display());
        assert_eq!(check(), [extra]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scale_mismatch_fails_before_any_entry_runs() {
        let files = |scales: &[Scale]| -> BTreeMap<String, String> {
            let bench = |(i, s): (usize, &Scale)| (format!("BENCH_{i}.json"), bench_json(*s, &[]));
            scales.iter().enumerate().map(bench).collect()
        };
        let (q, f) = (Scale::Quick, Scale::Full);
        let scale = |scales: &[Scale], requested| committed_scale(&files(scales), requested);
        assert_eq!(scale(&[], None), Ok(f));
        assert_eq!(scale(&[], Some(q)), Ok(q));
        assert_eq!(scale(&[q, q], None), Ok(q));
        let err = "BENCH_0.json is at quick scale but CKI_BENCH_SCALE at full";
        assert_eq!(scale(&[q, q], Some(f)), Err(err.to_owned()));
        let err = "BENCH_0.json is at quick scale but BENCH_1.json at full";
        assert_eq!(scale(&[q, f], Some(q)), Err(err.to_owned()));
        // `check` resolves the scale before it runs anything.
        let dir = std::env::temp_dir().join(format!("cki-scale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (file, text) in files(&[q, f]) {
            std::fs::write(dir.join(file), text).unwrap();
        }
        let boom = [Experiment::new("boom", &[], |_| panic!("ran"))];
        let err = format!("{}: {err}", dir.display());
        assert_eq!(check(&dir, &boom, None), [err]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
