//! `repro`: regenerates the paper's tables and figures and the
//! machine-readable benchmarks from one experiment table.
//!
//! ```sh
//! repro <name>...   # run the named experiments
//! repro all         # run every experiment, also writes results/run_all.json
//! repro check       # compare every file the experiments render with the
//!                   # committed one, byte for byte; writes nothing
//! repro micro       # host ns per page fault, TLB-miss walk and compacted
//!                   # page, checked against results/host/BENCH_micro.json
//!                   # (fails at 2x)
//! ```
//!
//! Outputs go to `results/` under the working directory. `CKI_BENCH_SCALE`
//! (`quick` or `full`, default `full`) sizes every experiment; `check` runs at
//! the committed results' scale and fails if `CKI_BENCH_SCALE` names another.

use cki_bench::micro;
use cki_bench::repro::{self, EXPERIMENTS};
use cki_bench::Scale;

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let names = names.join(" ");
    eprintln!("usage: repro <name>... | all | check | micro\nnames: {names}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let requested = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    let scale = requested.unwrap_or(Scale::Full);
    // Resolve every name before running anything.
    let entries: Option<Vec<_>> = args.iter().map(|n| repro::find(n)).collect();
    let failures = match (&args[..], entries) {
        (["all"], _) => repro::all(scale),
        (["check"], _) => repro::check(repro::RESULTS.as_ref(), EXPERIMENTS, requested),
        (["micro"], _) => micro::run(),
        ([_, ..], Some(entries)) => entries
            .into_iter()
            .flat_map(|e| repro::execute(e, scale).0.failures)
            .collect(),
        _ => usage(),
    };
    if !failures.is_empty() {
        eprintln!("\nrepro: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
