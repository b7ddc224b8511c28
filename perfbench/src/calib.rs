//! Host-speed calibration.
//!
//! The reference host's speed drifts by up to 1.5× in phases of tens of
//! seconds to minutes, far more than any bound a regression check could
//! use. The drift is not CPU frequency: over the same minutes a pure ALU
//! loop moved ±5% and a DRAM pointer chase ±12%, while a `pairs-snomed`
//! pass moved 1.5×. A cache-resident sort tracks it: the pass rate times
//! this kernel's time held within ±3–5% across 20 s windows where the raw
//! rate ranged from 358 to 577 items/s.
//!
//! So every run of a batch workload samples this kernel between its
//! measurements, and the end-to-end times are reported at the reference
//! host speed: each is divided by `median(kernel time) / REFERENCE_MS`
//! (throughputs are multiplied). The kernel is the benchmark's own code,
//! allocates nothing while timed, and never changes between the commits
//! it compares, so a change to the program moves the normalized figures
//! exactly as it moves the raw ones.
//!
//! `serve-mixed` is normalized at a finer grain by a [`SpeedTrack`]. Its
//! host switches between a fast mode and one about 1.4 times slower
//! every second or so, faster than a run-wide factor can follow: with
//! one factor per run, the normalized spreads of its request latencies
//! were up to 2.5 times the raw ones. A smaller kernel sampled between
//! requests follows the switches, and each latency is divided by the
//! samples taken around it.

use std::time::Instant;

use crate::stats::median;

/// Elements sorted per sample: 1.6 MB of `u64`, cache-resident.
const LEN: usize = 200_000;
/// The kernel's median time on the reference host at its typical speed.
/// Only a scale: normalized figures read as raw ones would at that speed.
pub const REFERENCE_MS: f64 = 3.5;

#[derive(Debug)]
pub struct Calibration {
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        Calibration {
            buf: vec![0; LEN],
            samples: Vec::new(),
        }
    }

    /// Time one fill-and-sort of the buffer.
    pub fn sample(&mut self) {
        self.samples.push(fill_and_sort(&mut self.buf) / 1e3);
    }

    /// How much slower than the reference the host ran during the
    /// samples taken so far (1.0 when none were taken).
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        median(&self.samples) / REFERENCE_MS
    }
}

/// Fill `buf` from a fixed xorshift sequence and sort it; returns the
/// time taken in µs.
fn fill_and_sort(buf: &mut [u64]) -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x;
    }
    buf.sort_unstable();
    std::hint::black_box(&buf);
    t.elapsed().as_secs_f64() * 1e6
}

/// Elements a [`SpeedTrack`] sample sorts: 200 KB, short enough to fit
/// between open-loop requests.
const TRACK_LEN: usize = 25_000;
/// A track sample's time on the reference host in its fast mode, µs.
const TRACK_REFERENCE_US: f64 = 400.0;
/// Samples on each side of a time that [`SpeedTrack::slowdown_at`] takes
/// the median of: about 0.3 s of an open loop, 30 ms of a cold sweep.
const TRACK_WINDOW: usize = 15;

/// Timestamped samples of a small sort kernel, taken between the
/// measurements of one phase; the slowdown at a time is the median of
/// the samples nearest to it over [`TRACK_REFERENCE_US`].
#[derive(Debug)]
pub struct SpeedTrack {
    buf: Vec<u64>,
    /// (time in s on the caller's clock, kernel µs), in time order.
    samples: Vec<(f64, f64)>,
}

impl SpeedTrack {
    pub fn new() -> Self {
        SpeedTrack {
            buf: vec![0; TRACK_LEN],
            samples: Vec::new(),
        }
    }

    /// Take one sample at time `at` (seconds, non-decreasing).
    pub fn sample(&mut self, at: f64) {
        let us = fill_and_sort(&mut self.buf);
        self.samples.push((at, us));
    }

    /// How much slower than the reference the host ran around `at` (1.0
    /// when no sample was taken).
    pub fn slowdown_at(&self, at: f64) -> f64 {
        let i = self.samples.partition_point(|&(t, _)| t < at);
        let lo = i.saturating_sub(TRACK_WINDOW);
        let hi = (i + TRACK_WINDOW).min(self.samples.len());
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, us)| us).collect();
        if near.is_empty() {
            return 1.0;
        }
        median(&near) / TRACK_REFERENCE_US
    }

    /// Median slowdown over all samples (1.0 when none were taken).
    pub fn slowdown(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, us)| us).collect();
        if all.is_empty() {
            return 1.0;
        }
        median(&all) / TRACK_REFERENCE_US
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_sample_over_the_reference() {
        let mut c = Calibration::new();
        assert_eq!(c.slowdown(), 1.0);
        c.sample();
        assert!(c.buf.windows(2).all(|w| w[0] <= w[1]), "the kernel sorts");
        c.samples = vec![7.0, 3.5, 1.0];
        assert_eq!(c.slowdown(), 1.0);
        c.samples = vec![7.0, 7.0, 1.0];
        assert_eq!(c.slowdown(), 2.0);
    }

    #[test]
    fn a_track_takes_the_median_of_the_samples_nearest_a_time() {
        let mut t = SpeedTrack::new();
        assert_eq!(t.slowdown_at(1.0), 1.0);
        t.sample(0.0);
        assert_eq!(t.samples.len(), 1);
        // A slow phase, then a fast one, each longer than the window.
        let r = TRACK_REFERENCE_US;
        t.samples = (0..100)
            .map(|i| (i as f64, if i < 50 { 2.0 * r } else { r }))
            .collect();
        assert_eq!(t.slowdown_at(10.0), 2.0);
        assert_eq!(t.slowdown_at(90.0), 1.0);
        assert_eq!(t.slowdown_at(1e9), 1.0);
        // One outlier inside the window does not move the median.
        t.samples[10].1 = 100.0 * r;
        assert_eq!(t.slowdown_at(10.0), 2.0);
    }
}
