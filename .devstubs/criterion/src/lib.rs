//! Offline stand-in for criterion, wired in via `[patch.crates-io]` in
//! `.cargo/config.toml` (see `.devstubs/README.md`).
//!
//! A real, minimal benchmark harness covering the surface this
//! workspace's benches use: `Criterion::benchmark_group`, group
//! `sample_size` / `bench_function` / `finish`, `Bencher::iter`, and the
//! `criterion_group!` / `criterion_main!` macros. Each bench function
//! runs one warm-up iteration plus `sample_size` timed samples and
//! reports min/median/max to stderr. There are no HTML reports, no
//! statistical regression analysis, and no saved baselines — the
//! workspace's `mce-perf` benchmark (`crates/perf`) catches regressions.

use std::time::{Duration, Instant};

pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        // Upstream parses --bench/--save-baseline/...; the stand-in
        // accepts and ignores whatever cargo bench passed.
        self
    }

    pub fn final_summary(self) {}

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.default_sample_size,
            _criterion: self,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let sample_size = self.default_sample_size;
        run_bench(&name.into(), sample_size, f);
        self
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, name.into());
        run_bench(&label, self.sample_size, f);
        self
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    elapsed: Duration,
    iterations: u64,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        let out = f();
        self.elapsed += start.elapsed();
        self.iterations += 1;
        black_box(out);
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, mut f: F) {
    // Warm-up pass, unrecorded.
    let mut warmup = Bencher {
        elapsed: Duration::ZERO,
        iterations: 0,
    };
    f(&mut warmup);
    let mut samples: Vec<Duration> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size.max(1) {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iterations: 0,
        };
        f(&mut b);
        if b.iterations > 0 {
            samples.push(b.elapsed / u32::try_from(b.iterations).unwrap_or(1));
        }
    }
    samples.sort_unstable();
    if samples.is_empty() {
        eprintln!("bench {label}: no samples (closure never called iter)");
        return;
    }
    let median = samples[samples.len() / 2];
    eprintln!(
        "bench {label}: median {:?} (min {:?}, max {:?}, {} samples)",
        median,
        samples[0],
        samples[samples.len() - 1],
        samples.len()
    );
}

/// Opaque value sink preventing the optimizer from deleting benchmarked
/// work, same contract as upstream's `black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
