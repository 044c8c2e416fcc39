//! Deterministic pseudo-random number generation for reproducible simulation.
//!
//! Every stochastic component of the CPI² reproduction draws from a
//! [`SimRng`] seeded explicitly, so experiments are bit-for-bit reproducible
//! run-to-run. The generator is a SplitMix64-seeded xoshiro256++, with
//! convenience samplers for the distributions the simulator needs.

/// SplitMix64 step: used for seeding and for cheap stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable PRNG (xoshiro256++).
///
/// # Examples
///
/// ```
/// use cpi2_stats::rng::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second normal variate from the polar method.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// Derives an independent child stream from this seed and a stream id.
    ///
    /// Children with different ids have uncorrelated sequences; the parent
    /// is not advanced. Used to hand each machine/task its own stream.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut sm = seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let _ = splitmix64(&mut sm);
        SimRng::new(splitmix64(&mut sm))
    }

    /// Next raw 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // Destructuring the state array keeps the xoshiro mix free of
        // `[…]` indexing (panic-freedom is machine-checked here: this fn
        // is reachable from `Machine::tick`).
        let [s0, s1, s2, s3] = &mut self.s;
        let r = (s0.wrapping_add(*s3)).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        r
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "range_f64: lo={lo} > hi={hi}");
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` without modulo bias (Lemire's method).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below: n must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let l = m as u64;
            if l >= n {
                return (m >> 64) as u64;
            }
            // Rejection zone for unbiased sampling.
            let t = n.wrapping_neg() % n;
            if l >= t {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo={lo} > hi={hi}");
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal variate via the Marsaglia polar method.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * f);
                return u * f;
            }
        }
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, stddev: f64) -> f64 {
        mean + stddev * self.normal()
    }

    /// Log-normal variate: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal_with(mu, sigma).exp()
    }

    /// Exponential variate with the given rate `lambda`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential: lambda must be positive");
        // 1 − U is in (0, 1], so the log is finite.
        -(1.0 - self.f64()).ln() / lambda
    }

    /// Gamma variate (shape `k`, scale `theta`) via Marsaglia–Tsang.
    pub fn gamma(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(
            shape > 0.0 && scale > 0.0,
            "gamma: parameters must be positive"
        );
        if shape < 1.0 {
            // Boost: Gamma(k) = Gamma(k+1) * U^{1/k}.
            let g = self.gamma(shape + 1.0, 1.0);
            let u = loop {
                let u = self.f64();
                if u > 0.0 {
                    break u;
                }
            };
            return scale * g * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.f64();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return scale * d * v;
            }
        }
    }

    /// Generalized-extreme-value variate with location `mu`, scale `sigma`,
    /// shape `xi` (the paper's Figure 7 fit uses `xi ≈ −0.053`).
    pub fn gev(&mut self, mu: f64, sigma: f64, xi: f64) -> f64 {
        assert!(sigma > 0.0, "gev: sigma must be positive");
        let u = loop {
            let u = self.f64();
            if u > 0.0 && u < 1.0 {
                break u;
            }
        };
        let ln_u = -u.ln(); // Exponential(1) variate as −ln U.
        if xi.abs() < 1e-12 {
            mu - sigma * ln_u.ln()
        } else {
            mu + sigma * (ln_u.powf(-xi) - 1.0) / xi
        }
    }

    /// Picks one index in `[0, weights.len())` proportionally to `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weighted_index: weights must be non-empty with positive sum"
        );
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derive_streams_independent() {
        let mut a = SimRng::derive(9, 0);
        let mut b = SimRng::derive(9, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_bounds_and_coverage() {
        let mut r = SimRng::new(4);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = r.below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(5);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(6);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn gamma_moments() {
        let mut r = SimRng::new(7);
        let (shape, scale) = (3.0, 2.0);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gamma(shape, scale)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - shape * scale).abs() < 0.1, "mean={mean}");
        assert!((var - shape * scale * scale).abs() < 0.5, "var={var}");
    }

    #[test]
    fn gamma_shape_below_one() {
        let mut r = SimRng::new(8);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gamma(0.5, 1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn gev_gumbel_limit_median() {
        // For xi = 0 (Gumbel), median = mu − sigma·ln(ln 2).
        let mut r = SimRng::new(9);
        let n = 100_000;
        let mut xs: Vec<f64> = (0..n).map(|_| r.gev(1.0, 0.5, 0.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        let expect = 1.0 - 0.5 * (2.0f64.ln()).ln();
        assert!(
            (median - expect).abs() < 0.02,
            "median={median} expect={expect}"
        );
    }

    #[test]
    fn weighted_index_proportional() {
        let mut r = SimRng::new(13);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio={ratio}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(14);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }
}
