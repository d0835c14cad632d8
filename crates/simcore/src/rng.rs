//! Deterministic random-number streams.
//!
//! Every stochastic component in the simulator (each link's fading process,
//! each interference source, each jitter model, …) draws from its **own**
//! stream, derived from the scenario's master seed and a stable string label.
//! This guarantees two properties that ad-hoc `rand::thread_rng()` use would
//! destroy:
//!
//! 1. **Reproducibility** — a run is a pure function of (scenario, seed).
//! 2. **Stream independence** — adding a new component, or reordering draws
//!    in one component, never perturbs the random sequence seen by another,
//!    so A/B comparisons (e.g. DiversiFi on vs off over the *same* channel
//!    realisation) are paired experiments, not noise.

use crate::digest::Fnv;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Derives independent child seeds from a master seed using SplitMix64, the
/// standard seed-sequencing construction (Steele et al., OOPSLA '14).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, mixing a stable string identity into seed space.
#[inline]
fn fnv1a(label: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(label.as_bytes());
    h.finish()
}

/// A factory of independent, reproducible RNG streams.
#[derive(Clone, Debug)]
pub struct SeedFactory {
    master: u64,
}

impl SeedFactory {
    /// Create a factory for a given master seed.
    pub fn new(master: u64) -> Self {
        SeedFactory { master }
    }

    /// The master seed this factory was created with.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derive the stream for a component identified by (`label`, `index`).
    /// The same (master, label, index) always yields the same stream.
    #[inline]
    pub fn stream(&self, label: &str, index: u64) -> RngStream {
        let mut s = self.master ^ fnv1a(label) ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
        // Two rounds of splitmix to decorrelate structured inputs.
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        RngStream { rng: SmallRng::seed_from_u64(a ^ b.rotate_left(32)) }
    }

    /// A derived factory, for components that own sub-components (e.g. a
    /// scenario derives a factory per simulated call).
    #[inline]
    pub fn subfactory(&self, label: &str, index: u64) -> SeedFactory {
        let mut s = self.master ^ fnv1a(label) ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        SeedFactory { master: splitmix64(&mut s) }
    }
}

/// A single deterministic random stream with the distributions the simulator
/// needs. Wraps `SmallRng` (xoshiro256++), which is fast and statistically
/// solid for simulation (not cryptographic — nothing here needs to be).
#[derive(Clone, Debug)]
pub struct RngStream {
    rng: SmallRng,
}

impl RngStream {
    /// A standalone stream from a raw seed (tests, micro-benchmarks).
    pub fn from_seed(seed: u64) -> Self {
        RngStream { rng: SmallRng::seed_from_u64(seed) }
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.rng.gen::<f64>() < p
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// Exponentially distributed value with the given mean (inverse-CDF
    /// method). Used for Markov-chain sojourn times and Poisson inter-arrivals.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // 1 - U avoids ln(0).
        -mean * (1.0 - self.rng.gen::<f64>()).ln()
    }

    /// Standard-normal draw via Box–Muller (single value; we deliberately do
    /// not cache the second value so stream consumption is call-count-stable).
    pub fn normal_std(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.rng.gen::<f64>();
        let u2: f64 = self.rng.gen::<f64>();
        box_muller(u1, u2)
    }

    /// Fill `out` with standard-normal draws: bit for bit the values of
    /// `out.len()` [`normal_std`](Self::normal_std) calls, leaving the
    /// stream where they would. Each block of up to 64 draws takes its
    /// uniforms first, in `normal_std`'s order, then transforms them in a
    /// loop that makes no call.
    pub fn fill_normal_std(&mut self, out: &mut [f64]) {
        let mut u2 = [0.0f64; NORMAL_BLOCK];
        for block in out.chunks_mut(NORMAL_BLOCK) {
            let u2 = &mut u2[..block.len()];
            for (u1, u2) in block.iter_mut().zip(u2.iter_mut()) {
                *u1 = 1.0 - self.rng.gen::<f64>();
                *u2 = self.rng.gen::<f64>();
            }
            for (z, &u2) in block.iter_mut().zip(u2.iter()) {
                *z = box_muller(*z, u2);
            }
        }
    }

    /// Normal draw with mean `mu` and standard deviation `sigma`.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.normal_std()
    }

    /// Log-normal draw parameterised by the mean/sigma of the underlying
    /// normal. Used for heavy-tailed WAN jitter.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// Pick a reference to a uniformly random element. Panics on empty slice.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.index(slice.len())]
    }
}

/// Normals [`RngStream::fill_normal_std`] draws per block: the size of its
/// stack buffer of second uniforms.
const NORMAL_BLOCK: usize = 64;

/// Box–Muller: `sqrt(-2·ln u1)·cos(2π·u2)` for `u1` in `(0, 1]` and `u2` in
/// `[0, 1)`. Built from [`ln_unit`] and [`cos_turn`], so it calls no libm
/// function and takes no data-dependent branch (`sqrt` is one instruction).
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * ln_unit(u1)).sqrt() * cos_turn(u2)
}

/// `1.5·2⁵²`: adding it to a float of magnitude below 2⁵¹ rounds that float
/// to an integer (ties to even), held in the sum's low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `2⁵² + 1023`: the float whose low mantissa bits hold a biased exponent,
/// less this, is the unbiased exponent.
const EXP_MAGIC: f64 = 4_503_599_627_371_519.0;

// fdlibm's ln(2) split and the minimax coefficients of its log kernel.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04);
const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF);
const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE);
const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F);
const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244);

/// Natural logarithm of a normal float in `(0, 1]`, within 1 ulp.
///
/// fdlibm's reduction without its special cases: `x = 2^k·m` with `m` in
/// `[√2/2, √2)`, found by offsetting the exponent field so the split falls
/// at `√2` rather than 2; then `ln m = 2·atanh(f/(2+f))` for `f = m − 1`,
/// whose odd series in `s = f/(2+f)` the `LG` polynomial approximates. Zero,
/// subnormals, negatives and values above 1 are outside its domain.
#[inline(always)]
fn ln_unit(x: f64) -> f64 {
    // Adding (high word of 1) − (high word of √2/2) to the high word
    // carries into the exponent exactly when the mantissa in [1, 2) is at
    // least √2. Adding √2/2's high word to the shifted mantissa bits gives `m`.
    const SQRT_HALF_HI: u64 = 0x3FE6_A09E;
    let bits = x.to_bits() + ((0x3FF0_0000 - SQRT_HALF_HI) << 32);
    let k = f64::from_bits(0x4330_0000_0000_0000 | (bits >> 52)) - EXP_MAGIC;
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) + (SQRT_HALF_HI << 32));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

// fdlibm's minimax coefficients for sin and cos on [−π/4, π/4].
const S1: f64 = f64::from_bits(0xBFC5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3F81_1111_1110_F8A6);
const S3: f64 = f64::from_bits(0xBF2A_01A0_19C1_61D5);
const S4: f64 = f64::from_bits(0x3EC7_1DE3_57B1_FE7D);
const S5: f64 = f64::from_bits(0xBE5A_E5E6_8A2B_9CEB);
const S6: f64 = f64::from_bits(0x3DE5_D93A_5ACF_D57C);
const C1: f64 = f64::from_bits(0x3FA5_5555_5555_554C);
const C2: f64 = f64::from_bits(0xBF56_C16C_16C1_5177);
const C3: f64 = f64::from_bits(0x3EFA_01A0_19CB_1590);
const C4: f64 = f64::from_bits(0xBE92_7E4F_809C_52AD);
const C5: f64 = f64::from_bits(0x3E21_EE9E_BDB4_B1C4);
const C6: f64 = f64::from_bits(0xBDA8_FAE9_BE88_38D4);

/// `cos(2π·u)` for a turn `u` in `[0, 1)`, within 2 ulp of `cos`/`sin` of
/// the reduced argument below.
///
/// `u` is split exactly as `q/4 + r`, `q` the nearest quarter turn and
/// `|r| ≤ 1/8` (both `4u` and `4u − q` are exact). Then `cos(2πu)` is
/// `cos x`, `−sin x`, `−cos x` or `sin x` for `q mod 4` = 0, 1, 2, 3, with
/// `x = 2π·r` in `[−π/4, π/4]` where fdlibm's kernels hold; both are
/// evaluated and the result and its sign are picked with bit masks.
#[inline(always)]
fn cos_turn(u: f64) -> f64 {
    let y = 4.0 * u;
    let rounded = y + ROUND_MAGIC;
    let q = rounded.to_bits();
    let x = (y - (rounded - ROUND_MAGIC)) * std::f64::consts::FRAC_PI_2;
    let z = x * x;
    let w = z * z;
    let sr = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = x + z * x * (S1 + z * sr);
    let cr = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_less = 1.0 - hz;
    let cos = one_less + (((1.0 - one_less) - hz) + z * cr);
    // An odd quarter takes sin; quarters 1 and 2 negate.
    let odd = (q & 1).wrapping_neg();
    let magnitude = (cos.to_bits() & !odd) | (sin.to_bits() & odd);
    f64::from_bits(magnitude ^ ((q.wrapping_add(1) & 2) << 62))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let f = SeedFactory::new(42);
        let mut a = f.stream("link", 0);
        let mut b = f.stream("link", 0);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_labels_different_streams() {
        let f = SeedFactory::new(42);
        let mut a = f.stream("link", 0);
        let mut b = f.stream("interference", 0);
        let same = (0..64).filter(|_| a.uniform().to_bits() == b.uniform().to_bits()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_indices_different_streams() {
        let f = SeedFactory::new(7);
        let mut a = f.stream("link", 0);
        let mut b = f.stream("link", 1);
        let same = (0..64).filter(|_| a.uniform().to_bits() == b.uniform().to_bits()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn subfactory_is_deterministic() {
        let f = SeedFactory::new(99);
        let mut a = f.subfactory("call", 3).stream("link", 0);
        let mut b = f.subfactory("call", 3).stream("link", 0);
        assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::from_seed(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = RngStream::from_seed(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = RngStream::from_seed(3);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(8.0)).sum::<f64>() / n as f64;
        assert!((mean - 8.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn normal_moments_match() {
        let mut r = RngStream::from_seed(4);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn fill_normal_std_matches_scalar_draws() {
        for n in [0usize, 1, 63, 64, 65, 300] {
            let mut block = RngStream::from_seed(8);
            let mut scalar = RngStream::from_seed(8);
            let mut out = vec![f64::NAN; n];
            block.fill_normal_std(&mut out);
            for (i, z) in out.iter().enumerate() {
                assert_eq!(z.to_bits(), scalar.normal_std().to_bits(), "n {n} draw {i}");
            }
            // Both streams must stand at the same position afterwards.
            assert_eq!(block.uniform().to_bits(), scalar.uniform().to_bits(), "n {n}");
        }
    }

    /// Distance in units in the last place between two finite floats.
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |x: f64| {
            let i = x.to_bits() as i64;
            if i < 0 {
                i64::MIN.wrapping_sub(i)
            } else {
                i
            }
        };
        key(a).abs_diff(key(b))
    }

    /// The `i`-th of a well-spread sequence of 53-bit fractions.
    fn spread(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11
    }

    /// `ln_unit` against `f64::ln` on `n` inputs: half are `1 − U` as
    /// `normal_std` draws them, half spread over every binade of `(0, 1)`.
    fn check_ln(n: u64) {
        for i in 0..n {
            let g = spread(i);
            let x = if i % 2 == 0 {
                1.0 - g as f64 / (1u64 << 53) as f64
            } else {
                f64::from_bits(((1022 - (i / 2) % 1022) << 52) | (g & ((1 << 52) - 1)))
            };
            let (got, want) = (ln_unit(x), x.ln());
            assert!(ulps(got, want) <= 1, "ln({x:e}) = {got:e}, libm {want:e}");
        }
    }

    /// `cos(2π·u)` as the kernel reduces it, from libm: `u = q/4 + r` with
    /// `q` the nearest quarter (ties to even) and `x = 2π·r`.
    fn cos_turn_reference(u: f64) -> f64 {
        let q = (4.0 * u).round_ties_even();
        let x = (4.0 * u - q) * std::f64::consts::FRAC_PI_2;
        match q as u64 % 4 {
            0 => x.cos(),
            1 => -x.sin(),
            2 => -x.cos(),
            _ => x.sin(),
        }
    }

    /// `cos_turn` against libm on `n` turns spaced as `uniform` draws them.
    fn check_cos(n: u64) {
        for i in 0..n {
            let u = spread(i) as f64 / (1u64 << 53) as f64;
            let (got, want) = (cos_turn(u), cos_turn_reference(u));
            assert!(ulps(got, want) <= 2, "cos_turn({u:e}) = {got:e}, libm {want:e}");
        }
    }

    #[test]
    fn ln_unit_is_within_one_ulp() {
        check_ln(1_000_000);
        let eps = f64::EPSILON / 2.0;
        for x in [1.0, eps, 1.0 - eps] {
            assert!(ulps(ln_unit(x), x.ln()) <= 1, "ln({x:e})");
        }
        assert_eq!(ln_unit(1.0), 0.0);
        for k in 0..=1022 {
            let x = f64::from_bits((1023 - k) << 52);
            assert!(ulps(ln_unit(x), x.ln()) <= 1, "ln(2^-{k})");
        }
    }

    #[test]
    fn cos_turn_is_within_two_ulp_of_the_reduced_argument() {
        check_cos(1_000_000);
    }

    #[test]
    fn cos_turn_is_exact_at_quarters_and_correct_at_octant_edges() {
        assert_eq!(cos_turn(0.0), 1.0);
        assert_eq!(cos_turn(0.25), 0.0);
        assert_eq!(cos_turn(0.5), -1.0);
        assert_eq!(cos_turn(0.75), 0.0);
        // At an odd eighth the nearest quarter changes: each side of the
        // edge must still land on the right branch and sign.
        let eps = f64::EPSILON / 2.0;
        for edge in [0.125, 0.375, 0.625, 0.875] {
            for u in [edge - eps, edge, edge + eps] {
                let got = cos_turn(u);
                assert!(ulps(got, cos_turn_reference(u)) <= 2, "cos_turn({u})");
                let direct = (std::f64::consts::TAU * u).cos();
                assert!((got - direct).abs() < 1e-15, "cos_turn({u}) = {got}, cos {direct}");
            }
        }
    }

    /// The dense sweep: 10⁸ kernel evaluations against libm, too slow for a
    /// debug run. Run it with
    /// `cargo test --release -p diversifi-simcore rng -- --ignored`.
    #[test]
    #[ignore]
    fn kernels_dense_sweep() {
        check_ln(50_000_000);
        check_cos(50_000_000);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = RngStream::from_seed(6);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input unchanged");
    }
}
