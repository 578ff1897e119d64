//! A minimal timing harness standing in for criterion.
//!
//! The workspace builds fully offline (no crates.io registry), so the
//! benches cannot link criterion. This module provides the thin slice the
//! benches need: named groups, per-input benchmarks, automatic
//! iteration-count calibration, and a median-of-samples report printed as
//! one line per benchmark.
//!
//! Output format (stable, grep-friendly):
//!
//! ```text
//! bench group/name/param ... median 1.234 ms/iter (min 1.1, max 1.4; 10 samples x 8 iters)
//! ```

use std::time::{Duration, Instant};

/// Target wall-clock time for one *sample* (a timed batch of iterations).
const TARGET_SAMPLE: Duration = Duration::from_millis(25);

/// A named group of benchmarks, mirroring criterion's `benchmark_group`.
pub struct BenchGroup {
    name: String,
    samples: usize,
}

impl BenchGroup {
    /// Creates a group; `samples` defaults to 10.
    pub fn new(name: impl Into<String>) -> Self {
        BenchGroup {
            name: name.into(),
            samples: 10,
        }
    }

    /// Sets how many timed samples each benchmark collects.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(2);
        self
    }

    /// Benchmarks `f`, labelling the line with `id`.
    ///
    /// The closure's return value is consumed with [`std::hint::black_box`]
    /// so the computation cannot be optimized away.
    pub fn bench<T>(&mut self, id: impl std::fmt::Display, mut f: impl FnMut() -> T) {
        // Warm-up + calibration: how many iterations fill TARGET_SAMPLE?
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(50));
        let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;

        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        self.report(&id.to_string(), &per_iter, iters);
    }

    /// Benchmarks `routine` with a fresh, untimed `setup()` product per
    /// iteration (criterion's `iter_with_setup`).
    pub fn bench_with_setup<S, T>(
        &mut self,
        id: impl std::fmt::Display,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        let state = setup();
        let t0 = Instant::now();
        std::hint::black_box(routine(state));
        let once = t0.elapsed().max(Duration::from_nanos(50));
        let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 100_000) as usize;

        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            // Pre-build the inputs so setup stays outside the timed span.
            let states: Vec<S> = (0..iters).map(|_| setup()).collect();
            let t = Instant::now();
            for s in states {
                std::hint::black_box(routine(s));
            }
            per_iter.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        self.report(&id.to_string(), &per_iter, iters);
    }

    fn report(&self, id: &str, per_iter: &[f64], iters: usize) {
        let mut sorted = per_iter.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        println!(
            "bench {}/{} ... median {} /iter (min {}, max {}; {} samples x {} iters)",
            self.name,
            id,
            fmt_secs(median),
            fmt_secs(min),
            fmt_secs(max),
            sorted.len(),
            iters,
        );
    }
}

/// Times one invocation of `f` under an obs span named `name`,
/// returning the result and its wall-clock seconds.
///
/// Timing a region through here also records it under its span name
/// whenever obs collection is on.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = localias_obs::span!(name);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Formats a duration in seconds with an auto-scaled unit.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_and_report_do_not_panic() {
        let mut g = BenchGroup::new("harness_smoke");
        g.sample_size(3);
        let mut acc = 0u64;
        g.bench("spin", || {
            acc = acc.wrapping_add(1);
            std::hint::black_box(acc)
        });
        g.bench_with_setup("setup", || vec![1u32, 2, 3], |v| v.iter().sum::<u32>());
    }

    #[test]
    fn timing_utilities_return_results_and_positive_times() {
        let (v, secs) = timed("test.timed", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn fmt_secs_scales_units() {
        assert_eq!(fmt_secs(2.5), "2.500 s");
        assert_eq!(fmt_secs(2.5e-3), "2.500 ms");
        assert_eq!(fmt_secs(2.5e-6), "2.500 us");
        assert_eq!(fmt_secs(2.5e-8), "25 ns");
    }
}
