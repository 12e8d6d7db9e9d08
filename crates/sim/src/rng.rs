//! Deterministic randomness and the samplers the workloads need.
//!
//! All randomness in a simulation flows from a single [`SimRng`] seeded by
//! the harness, so the same seed reproduces the same run bit-for-bit. The
//! generator is defined *in-tree* — SplitMix64 seed expansion feeding a
//! xoshiro256\*\* core — rather than inherited from an external crate, so
//! the stream is pinned by this file (and the known-answer tests below)
//! forever: no dependency upgrade can silently change every experiment in
//! `EXPERIMENTS.md`. On top of the raw generator we provide the two
//! distributions the paper's cited workloads rely on: exponential
//! inter-arrival times (open-loop load, \[56\]) and Zipfian key popularity
//! (YCSB / contention sweeps).

use crate::place::Fnv64;
use crate::time::SimDuration;

/// SplitMix64 step: expands a 64-bit seed into a stream of well-mixed
/// words. Used only to initialise the xoshiro256\*\* state so that
/// low-entropy seeds (0, 1, 2, …) land in unrelated regions of the state
/// space.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulation-wide deterministic random number generator.
///
/// A xoshiro256\*\* generator (Blackman & Vigna): 256 bits of state, period
/// 2^256 − 1, passes BigCrush. Every process draws from the same stream in
/// event order, which keeps runs reproducible; equal seeds produce equal
/// streams on every platform because the algorithm lives in this file.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a seed. Equal seeds produce equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut sm);
        }
        SimRng { s }
    }

    /// A raw 64-bit draw, for callers needing entropy directly.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)` without modulo bias (Lemire's
    /// widening-multiply rejection method). Panics if `n == 0`.
    fn bounded(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.bounded(hi - lo)
    }

    /// Uniform `usize` index in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.bounded(n as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        // The top 53 bits of a draw, scaled by 2^-53: every representable
        // value in [0, 1) with a 53-bit mantissa is equally likely.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `\[0, 1\]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Exponentially distributed duration with the given mean.
    ///
    /// This is the inter-arrival distribution of a Poisson (open-loop)
    /// arrival process.
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        // Inverse-CDF sampling; 1 - U avoids ln(0).
        let u: f64 = 1.0 - self.unit();
        let x = -u.ln() * mean.as_nanos() as f64;
        SimDuration::from_nanos(x.round().min(u64::MAX as f64).max(0.0) as u64)
    }

    /// Uniform duration jitter in `[0, max)`.
    pub fn jitter(&mut self, max: SimDuration) -> SimDuration {
        if max == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.range(0, max.as_nanos()))
    }

    /// Fork a child generator whose stream is independent of (and pinned
    /// by) the parent's: one draw from the parent seeds the child.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// A fingerprint of the generator's current internal state, without
    /// consuming any of the stream. Two generators with equal fingerprints
    /// will produce the same future draws; the model checker uses this to
    /// detect whether any handler consumed randomness along a schedule.
    pub fn state_fingerprint(&self) -> u64 {
        // FNV-1a over the four state words: cheap, deterministic, and
        // collision-free enough for a changed/unchanged test.
        self.s
            .iter()
            .fold(Fnv64::new(), |h, &word| h.u64(word))
            .finish()
    }
}

/// Zipfian sampler over `[0, n)` with skew parameter `theta`.
///
/// `theta = 0` is uniform; YCSB's default hot-spot setting is `theta ≈ 0.99`.
/// Sampling is inverse-CDF with a binary search over precomputed cumulative
/// weights: O(n) memory, O(log n) per sample, deterministic.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build the sampler. Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        assert!(theta >= 0.0, "negative skew");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(theta);
            cumulative.push(total);
        }
        // Normalise so the last entry is exactly 1.0.
        for c in &mut cumulative {
            *c /= total;
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Zipf { cumulative }
    }

    /// Number of items in the domain.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when the domain has a single element.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draw an index in `[0, n)`; index 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("NaN in cumulative"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first 8 outputs for seed 0 and seed 42, frozen forever.
    ///
    /// These pin the exact SplitMix64-seeded xoshiro256\*\* stream: if any
    /// future change alters a single bit of the generator, this test fails
    /// and every experiment table in `EXPERIMENTS.md` must be regenerated.
    /// Do NOT update these constants without bumping the experiment tables.
    #[test]
    fn known_answer_seed_0() {
        let mut rng = SimRng::new(0);
        let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(got, KAT_SEED_0, "xoshiro256** stream for seed 0 changed");
    }

    #[test]
    fn known_answer_seed_42() {
        let mut rng = SimRng::new(42);
        let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(got, KAT_SEED_42, "xoshiro256** stream for seed 42 changed");
    }

    const KAT_SEED_0: [u64; 8] = [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
        7684712102626143532,
        13521403990117723737,
        18442103541295991498,
        7788427924976520344,
        9881088229871127103,
    ];
    const KAT_SEED_42: [u64; 8] = [
        1546998764402558742,
        6990951692964543102,
        12544586762248559009,
        17057574109182124193,
        18295552978065317476,
        14199186830065750584,
        13267978908934200754,
        15679888225317814407,
    ];

    /// SplitMix64 has published test vectors: seed 1234567 produces this
    /// prefix (from the reference implementation's output stream).
    #[test]
    fn splitmix_reference_vector() {
        let mut state = 1234567u64;
        let got: Vec<u64> = (0..5).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            got,
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423,
                4593380528125082431,
                16408922859458223821,
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_streams_are_unrelated() {
        let mut parent = SimRng::new(9);
        let mut child_a = parent.fork();
        let mut child_b = parent.fork();
        let same = (0..32)
            .filter(|_| child_a.next_u64() == child_b.next_u64())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn range_is_unbiased_across_buckets() {
        // Chi-squared-style sanity check: 16 buckets, 64k draws. With a
        // fair generator each bucket expects 4096; the chi² statistic over
        // 15 degrees of freedom should comfortably sit below 50
        // (p ≈ 1e-5 cut-off ≈ 44; we leave headroom for one fixed seed).
        let mut rng = SimRng::new(2024);
        let mut counts = [0u64; 16];
        let n = 65_536;
        for _ in 0..n {
            counts[rng.range(0, 16) as usize] += 1;
        }
        let expected = n as f64 / 16.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 50.0, "chi2={chi2}, counts={counts:?}");
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut rng = SimRng::new(6);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(7);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(9);
        let mean = SimDuration::from_millis(10);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.exponential(mean).as_nanos()).sum();
        let avg = total as f64 / n as f64;
        let expected = mean.as_nanos() as f64;
        assert!((avg - expected).abs() / expected < 0.05, "avg={avg}");
    }

    /// Chi-squared goodness-of-fit for the exponential sampler: bucket
    /// draws by quartile boundaries of the target distribution and check
    /// each quartile receives ~25% of the mass.
    #[test]
    fn exponential_quartiles_match_theory() {
        let mut rng = SimRng::new(13);
        let mean = SimDuration::from_millis(1);
        let mean_ns = mean.as_nanos() as f64;
        // Quartile boundaries of Exp(mean): -mean * ln(1 - q).
        let q1 = -mean_ns * (1.0 - 0.25f64).ln();
        let q2 = -mean_ns * (1.0 - 0.50f64).ln();
        let q3 = -mean_ns * (1.0 - 0.75f64).ln();
        let n = 40_000;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            let x = rng.exponential(mean).as_nanos() as f64;
            let bucket = if x < q1 {
                0
            } else if x < q2 {
                1
            } else if x < q3 {
                2
            } else {
                3
            };
            counts[bucket] += 1;
        }
        let expected = n as f64 / 4.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 3 degrees of freedom; 16.3 is the p ≈ 0.001 cut-off.
        assert!(chi2 < 16.3, "chi2={chi2}, counts={counts:?}");
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(10, 0.0);
        let mut rng = SimRng::new(3);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!((max - min) as f64 / 5_000.0 < 0.15, "counts={counts:?}");
    }

    /// Chi-squared goodness-of-fit for the Zipfian sampler against its own
    /// analytic cell probabilities (theta = 0.99, n = 8).
    #[test]
    fn zipf_frequencies_match_theory() {
        let n_items = 8;
        let theta = 0.99;
        let z = Zipf::new(n_items, theta);
        let mut rng = SimRng::new(17);
        let draws = 80_000usize;
        let mut counts = vec![0u64; n_items];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let total: f64 = (0..n_items)
            .map(|i| 1.0 / ((i + 1) as f64).powf(theta))
            .sum();
        let chi2: f64 = (0..n_items)
            .map(|i| {
                let p = (1.0 / ((i + 1) as f64).powf(theta)) / total;
                let expected = draws as f64 * p;
                let d = counts[i] as f64 - expected;
                d * d / expected
            })
            .sum();
        // 7 degrees of freedom; 24.3 is the p ≈ 0.001 cut-off.
        assert!(chi2 < 24.3, "chi2={chi2}, counts={counts:?}");
    }

    #[test]
    fn zipf_skews_to_head() {
        let z = Zipf::new(100, 0.99);
        let mut rng = SimRng::new(4);
        let mut head = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With theta=0.99 the top 10% of keys absorb well over half the mass.
        assert!(head as f64 / n as f64 > 0.5, "head fraction {head}/{n}");
    }

    #[test]
    fn zipf_sample_in_range() {
        let z = Zipf::new(3, 1.2);
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    fn jitter_bounded() {
        let mut rng = SimRng::new(11);
        let max = SimDuration::from_micros(50);
        for _ in 0..1000 {
            assert!(rng.jitter(max) < max);
        }
        assert_eq!(rng.jitter(SimDuration::ZERO), SimDuration::ZERO);
    }
}
