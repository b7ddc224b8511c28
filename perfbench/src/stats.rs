//! Exact order statistics over every recorded sample.
//!
//! `osa_obs::RawHistogram` keeps a 4096-sample reservoir, so its
//! percentiles are approximate past that count. A benchmark run records
//! tens of thousands of samples, so it keeps them all and ranks them
//! exactly here.

/// Nearest-rank percentile (`p` in `[0, 100]`) of `samples`: the smallest
/// sample such that at least `p`% of all samples are at or below it.
/// `0.0` for an empty slice. NaN samples are not allowed.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p)
}

/// [`percentile`] over an already ascending slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of `samples` (the nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// FNV-1a over bytes: a cheap, stable digest for comparing rendered
/// outputs between passes, modes and runs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 10.0), 1.0);
        assert_eq!(percentile(&s, 11.0), 2.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentiles_stay_exact_past_the_registry_reservoir() {
        // 20,000 distinct samples in a scrambled order: every nearest-rank
        // answer is known in closed form, and a 4096-slot reservoir could
        // not reproduce them all.
        let n = 20_000u64;
        let samples: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        for (p, want) in [
            (25.0, 4_999.0),
            (50.0, 9_999.0),
            (99.0, 19_799.0),
            (99.5, 19_899.0),
        ] {
            assert_eq!(percentile(&samples, p), want, "p{p}");
        }
        let mut reservoir = osa_obs::RawHistogram::new();
        for &s in &samples {
            reservoir.record(s);
        }
        assert_eq!(reservoir.samples().len(), 4096);
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
