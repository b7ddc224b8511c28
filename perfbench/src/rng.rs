//! Seeded randomness for the benchmark's own choices: the open-loop
//! arrival schedule, the request mix, and samples of outputs to verify.
//! Inputs of the program under test come from the workspace generators,
//! seeded from the same `--seed`.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Exponentially distributed gap with mean `1 / rate`: the
    /// inter-arrival time of a Poisson process.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// Zipf distribution over ranks `0..n`: `P(i) ∝ 1 / (i + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty range");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix64::new(7);
        assert_eq!(a, (0..5).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut other = SplitMix64::new(8);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn zipf_frequencies_match_the_exponent() {
        let (n, s, draws) = (60usize, 1.1f64, 400_000usize);
        let zipf = Zipf::new(n, s);
        let mut rng = SplitMix64::new(42);
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let norm: f64 = (1..=n).map(|i| (i as f64).powf(-s)).sum();
        for (i, &c) in counts.iter().enumerate().take(10) {
            let want = draws as f64 * ((i + 1) as f64).powf(-s) / norm;
            let got = c as f64;
            assert!(
                (got - want).abs() < 5.0 * want.sqrt() + 1.0,
                "rank {i}: {got} vs {want}"
            );
        }
        // The log-log slope between ranks 1 and 8 recovers the exponent.
        let slope = (counts[0] as f64 / counts[7] as f64).ln() / 8f64.ln();
        assert!((slope - s).abs() < 0.05, "fitted exponent {slope}");
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut rng = SplitMix64::new(3);
        let n = 200_000;
        let mean = (0..n).map(|_| rng.exp(250.0)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / 250.0).abs() < 0.0001, "{mean}");
    }
}
