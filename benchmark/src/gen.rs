//! Seeded input generation. The harness carries its own generator so the
//! program under test receives only generated inputs.
//!
//! Length multisets are *stratified*: every run of a workload draws the same
//! multiset of prompt and output lengths (evenly spaced quantiles of the
//! stated distribution), and `--seed` decides their order, the arrival times
//! and the token contents. The offered token count is then identical across
//! seeds, so run-to-run spread measures the system and the host, not the
//! luck of the draw.

/// splitmix64 (Steele, Lea & Flood 2014).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn tokens(&mut self, n: usize, vocab: usize) -> Vec<usize> {
        (0..n).map(|_| self.below(vocab)).collect()
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Lets `esti_tensor::sample::sample_row` draw from the harness generator.
impl rand::RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation, relative
/// error below 1.2e-9 — far finer than a token count resolves).
fn probit(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < 0.02425 {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - 0.02425 {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// `n` evenly spaced quantiles of a lognormal with the given median and
/// log-space sigma, clamped to `[lo, hi]`, in ascending order.
pub fn lognormal_lengths(n: usize, median: f64, sigma: f64, lo: usize, hi: usize) -> Vec<usize> {
    (0..n)
        .map(|i| {
            let z = probit((i as f64 + 0.5) / n as f64);
            ((median * (sigma * z).exp()).round() as usize).clamp(lo, hi)
        })
        .collect()
}

/// `n` evenly spaced values of the uniform distribution on `lo..=hi`, in
/// ascending order.
pub fn uniform_lengths(n: usize, lo: usize, hi: usize) -> Vec<usize> {
    (0..n).map(|i| lo + i * (hi - lo + 1) / n).collect()
}

/// Arrival times of a Poisson process conditioned on its `n`-th arrival
/// falling at `horizon`: partial sums of `n` exponential gaps, normalised.
/// Every trace then offers its `n` requests over exactly `horizon` seconds.
pub fn poisson_arrivals(rng: &mut SplitMix64, n: usize, horizon: f64) -> Vec<f64> {
    let gaps: Vec<f64> = (0..n).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    gaps.iter()
        .map(|g| {
            at += g;
            horizon * at / total
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_are_seed_independent_multisets() {
        let l = lognormal_lengths(100, 64.0, 0.6, 16, 160);
        assert_eq!(l.len(), 100);
        assert!(l.windows(2).all(|w| w[0] <= w[1]));
        assert!((l[49] as i64 - 64).abs() <= 1 && l[0] >= 16 && l[99] <= 160);
        let u = uniform_lengths(49, 16, 64);
        assert_eq!((u[0], u[48]), (16, 64));
    }

    #[test]
    fn arrivals_are_sorted_inside_the_horizon() {
        let a = poisson_arrivals(&mut SplitMix64::new(7), 50, 10.0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]) && a[0] > 0.0);
        assert!((a[49] - 10.0).abs() < 1e-9);
    }
}
