//! A minimal Criterion-compatible micro-benchmark harness.
//!
//! The workspace must build with no network access, so the real `criterion`
//! crate is unavailable; this module keeps the `[[bench]]` targets (and
//! their `harness = false` entry points) compiling and running with the
//! same source shape: `Criterion`, `bench_function`, `benchmark_group`,
//! `iter`/`iter_batched`, `criterion_group!`/`criterion_main!`.
//!
//! Measurement model: per benchmark, a short warm-up sizes the batch so one
//! sample takes roughly `SAMPLE_TARGET` (20 ms); then `sample_size` samples are
//! timed and the **median** ns/iter is reported (robust against scheduler
//! noise). `CKI_BENCH_SAMPLES` overrides the sample count.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Per-sample wall-clock target.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);
/// Warm-up budget per benchmark.
const WARMUP: Duration = Duration::from_millis(30);

/// Batch sizing hint (accepted for source compatibility; the harness
/// always times per-call inside the batch).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small inputs: many per batch.
    SmallInput,
}

/// A benchmark identifier within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Builds an id from the parameter value alone.
    pub fn from_parameter<D: Display>(p: D) -> Self {
        Self(p.to_string())
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The timing driver handed to benchmark closures.
pub struct Bencher {
    samples_ns: Vec<f64>,
    sample_count: usize,
}

impl Bencher {
    fn new(sample_count: usize) -> Self {
        Self {
            samples_ns: Vec::new(),
            sample_count,
        }
    }

    /// Times `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and size the batch.
        let mut batch = 1u64;
        let warm_start = Instant::now();
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let dt = t0.elapsed();
            if warm_start.elapsed() > WARMUP {
                if dt < SAMPLE_TARGET && batch < 1 << 24 {
                    let scale =
                        (SAMPLE_TARGET.as_nanos() as u64 / dt.as_nanos().max(1) as u64).max(2);
                    batch = (batch * scale).min(1 << 24);
                }
                break;
            }
            if dt < Duration::from_millis(2) && batch < 1 << 24 {
                batch *= 2;
            }
        }
        for _ in 0..self.sample_count {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            self.samples_ns
                .push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
    }

    /// Times `routine` over fresh inputs built by `setup` (setup excluded
    /// from the measurement).
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        // Warm-up: one run.
        {
            let input = setup();
            std::hint::black_box(routine(input));
        }
        for _ in 0..self.sample_count {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            self.samples_ns.push(t0.elapsed().as_nanos() as f64);
        }
    }

    fn median_ns(&mut self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.samples_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        self.samples_ns[self.samples_ns.len() / 2]
    }
}

/// The harness entry point (mirrors `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        let samples = std::env::var("CKI_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10usize);
        Self {
            sample_size: samples.max(2),
        }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        report(name, b.median_ns(), b.samples_ns.len());
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.to_string(),
            sample_size: None,
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<D: Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: D,
        mut f: F,
    ) -> &mut Self {
        let samples = self.sample_size.unwrap_or(self.c.sample_size);
        let mut b = Bencher::new(samples);
        f(&mut b);
        report(
            &format!("{}/{id}", self.name),
            b.median_ns(),
            b.samples_ns.len(),
        );
        self
    }

    /// Ends the group (output is already flushed per benchmark).
    pub fn finish(self) {}
}

fn report(name: &str, median_ns: f64, samples: usize) {
    let (value, unit) = if median_ns >= 1e6 {
        (median_ns / 1e6, "ms")
    } else if median_ns >= 1e3 {
        (median_ns / 1e3, "µs")
    } else {
        (median_ns, "ns")
    };
    println!("{name:<40} time: {value:>10.3} {unit}/iter (median of {samples} samples)");
}

/// Declares a benchmark group runner, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_produces_a_positive_median() {
        std::env::set_var("CKI_BENCH_SAMPLES", "3");
        let mut c = Criterion::default();
        let mut x = 0u64;
        c.bench_function("harness/self_test", |b| {
            b.iter(|| {
                x = x.wrapping_add(1);
                x
            })
        });
        let mut g = c.benchmark_group("harness/group");
        g.sample_size(2)
            .bench_function(BenchmarkId::from_parameter("p"), |b| {
                b.iter_batched(|| 41u64, |v| v + 1, BatchSize::SmallInput)
            });
        g.finish();
        std::env::remove_var("CKI_BENCH_SAMPLES");
    }
}
