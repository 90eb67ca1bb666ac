//! Order statistics and the repeated-timing loops every workload shares.

use std::time::Instant;

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Minimum wall time of one timed batch of set-up builds: a single build
/// of the smaller workloads takes well under a millisecond, far too short
/// to time on its own.
const SETUP_BATCH_S: f64 = 0.025;

/// Samples the wall time of one set-up build, in batches of at least
/// [`SETUP_BATCH_S`]. A run samples set-up between its timed passes, so
/// the host's drift in speed during the run reaches the set-up samples
/// as it reaches the passes.
pub struct SetupSampler<F> {
    build: F,
    reps: usize,
    samples: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupSampler<F> {
    /// Calibrates the batch size on one untimed warm-up build.
    pub fn new(mut build: F) -> Self {
        let warm = Instant::now();
        std::hint::black_box(build());
        let one = secs_since(warm).max(1e-7);
        SetupSampler {
            build,
            reps: ((SETUP_BATCH_S / one).ceil() as usize).max(1),
            samples: Vec::new(),
        }
    }

    /// Times batches for at least `seconds` (and at least one batch),
    /// keeping one seconds-per-build sample per batch.
    pub fn sample_for(&mut self, seconds: f64) {
        let start = Instant::now();
        loop {
            let batch = Instant::now();
            for _ in 0..self.reps {
                std::hint::black_box((self.build)());
            }
            self.samples.push(secs_since(batch) / self.reps as f64);
            if secs_since(start) >= seconds {
                break;
            }
        }
    }

    /// Median seconds per build over every sample so far.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// Whether a run that has spent `elapsed_s` of its `seconds`, and whose
/// passes took `pass_s` each so far, should start another pass: always
/// below `min_passes`, and otherwise only if one more pass of the median
/// length still ends within `seconds`. A run therefore ends close to its
/// budget instead of overshooting it by up to a whole pass.
pub fn another_pass(seconds: f64, min_passes: usize, elapsed_s: f64, pass_s: &[f64]) -> bool {
    pass_s.len() < min_passes || elapsed_s + median(pass_s) <= seconds
}

/// Runs `pass` repeatedly while [`another_pass`] allows, returning each
/// pass's result.
pub fn repeat_for<T>(seconds: f64, min_passes: usize, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut pass_s = Vec::new();
    while another_pass(seconds, min_passes, secs_since(start), &pass_s) {
        let t = Instant::now();
        out.push(pass(out.len()));
        pass_s.push(secs_since(t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn setup_sampler_keeps_one_sample_per_batch() {
        let mut builds = 0u64;
        let mut sampler = SetupSampler::new(|| builds += 1);
        sampler.sample_for(0.0);
        assert_eq!(sampler.samples.len(), 1);
        assert!(sampler.median() > 0.0);
        let reps = sampler.reps as u64;
        drop(sampler);
        assert_eq!(builds, 1 + reps);
    }

    #[test]
    fn repeat_for_honours_the_minimum_pass_count() {
        let passes = repeat_for(0.0, 3, |i| i);
        assert_eq!(passes, vec![0, 1, 2]);
    }

    #[test]
    fn no_pass_starts_that_would_end_past_the_budget() {
        assert!(another_pass(10.0, 2, 9.5, &[4.0]));
        assert!(another_pass(10.0, 2, 6.0, &[3.0, 3.0]));
        assert!(!another_pass(10.0, 2, 7.5, &[3.0, 3.0]));
        assert!(!another_pass(10.0, 0, 0.0, &[11.0]));
    }
}
