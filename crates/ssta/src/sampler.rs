use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The SplitMix64 output function: a high-quality 64-bit mixer.
///
/// Used to build *stateless* deterministic random streams: hash a tuple of
/// identifying integers into a stream id with [`mix_stream`], then map it
/// to a standard-normal draw with [`hash_normal`]. Unlike
/// [`NormalSampler`], no sequential state is involved, so a draw depends
/// only on the identifiers — independent of evaluation order, thread
/// count, or how many other draws happened first. The tester's injected
/// measurement noise and the aging [`DriftModel`](crate::DriftModel) both
/// rely on this for their bitwise-reproducibility contract.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one identifier into a stream id (SplitMix64 over the running
/// hash XOR the new word). Chain calls to combine several identifiers:
///
/// ```
/// use effitest_ssta::{hash_normal, mix_stream};
///
/// let stream = mix_stream(mix_stream(42, 7), 3); // (seed, chip, path)
/// let g = hash_normal(stream);
/// assert_eq!(g, hash_normal(mix_stream(mix_stream(42, 7), 3)));
/// ```
pub fn mix_stream(state: u64, word: u64) -> u64 {
    splitmix64(state ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Maps a stream id to one standard-normal draw, statelessly.
///
/// Two SplitMix64 evaluations give two uniforms, combined by Box–Muller.
/// The first uniform is kept in `(0, 1)` by construction (never exactly
/// zero), so the result is always finite. Same stream id, same draw — on
/// any thread, in any order.
pub fn hash_normal(stream: u64) -> f64 {
    let a = splitmix64(stream);
    let b = splitmix64(a);
    // 53 high bits -> uniform; +0.5 keeps u1 strictly inside (0, 1).
    let u1 = ((a >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    let u2 = (b >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Deterministic standard-normal sampler (Box–Muller over `StdRng`).
///
/// Hand-rolled rather than pulling in `rand_distr`: the reproduction brief
/// limits external dependencies, and Box–Muller is exact.
///
/// The sampler hands out a stream of normals in Box–Muller pairs: pair `k`
/// turns its two uniforms (drawn again while the first is too small for
/// its logarithm) into normals `2k` and `2k + 1`. A reader that needs only
/// some of the normals says which pairs in a mask. The other pairs still
/// draw their uniforms, so the stream does not depend on the mask, but
/// skip the `ln`, `sqrt`, `sin` and `cos`.
///
/// # Example
///
/// ```
/// use effitest_ssta::NormalSampler;
///
/// let mut xs = vec![0.0; 1000];
/// NormalSampler::seeded(7).fill(&mut xs, &[true; 500]);
/// let mean = xs.iter().sum::<f64>() / xs.len() as f64;
/// assert!(mean.abs() < 0.2);
///
/// // Computing only the first pair leaves the rest untouched.
/// let mut first = vec![0.0; 1000];
/// NormalSampler::seeded(7).fill(&mut first, &[true]);
/// assert_eq!(first[..2], xs[..2]);
/// assert!(first[2..].iter().all(|&x| x == 0.0));
/// ```
#[derive(Debug)]
pub struct NormalSampler {
    rng: StdRng,
}

impl NormalSampler {
    /// Creates a sampler from a seed.
    pub fn seeded(seed: u64) -> Self {
        NormalSampler { rng: StdRng::seed_from_u64(seed) }
    }

    /// Fills `out` with the next `out.len()` normals of the stream,
    /// computing only the Box–Muller pairs that `read` marks.
    ///
    /// `read[k]` covers `out[2k]` and `out[2k + 1]`; a pair past the end of
    /// `read` is not computed. The entries of a pair that is not computed
    /// keep their old values. Every pair draws its uniforms either way, so
    /// a computed entry equals the one an all-`true` mask gives. An
    /// odd-length fill uses only the first normal of its last pair.
    pub fn fill(&mut self, out: &mut [f64], read: &[bool]) {
        for (k, pair) in out.chunks_mut(2).enumerate() {
            let (u1, u2) = loop {
                let u1: f64 = self.rng.random();
                let u2: f64 = self.rng.random();
                if u1 > f64::MIN_POSITIVE {
                    break (u1, u2);
                }
            };
            if read.get(k) == Some(&true) {
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                pair[0] = r * theta.cos();
                if let Some(second) = pair.get_mut(1) {
                    *second = r * theta.sin();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normals(seed: u64, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        NormalSampler::seeded(seed).fill(&mut out, &vec![true; n.div_ceil(2)]);
        out
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        assert_eq!(normals(11, 10), normals(11, 10));
        assert_ne!(normals(11, 10), normals(12, 10));
    }

    #[test]
    fn moments_are_standard_normal() {
        let xs = normals(1, 200_000);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| x * x).sum::<f64>() / n - mean * mean;
        let kurt = xs.iter().map(|x| x.powi(4)).sum::<f64>() / n / (var * var);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn fill_populates_all_entries() {
        // Statistically impossible for any entry to remain exactly 0.
        assert!(normals(3, 64).iter().all(|&x| x != 0.0));
    }

    #[test]
    fn masked_fill_computes_exactly_the_marked_pairs() {
        let n = 301;
        let full = normals(5, n);
        // Every third pair, plus the half-used last pair; a short mask
        // leaves the pairs past its end out.
        let read: Vec<bool> = (0..n.div_ceil(2)).map(|k| k % 3 == 0 || k == n / 2).collect();
        for mask in [&read[..], &read[..40]] {
            let mut sampler = NormalSampler::seeded(5);
            let mut out = vec![f64::NAN; n];
            sampler.fill(&mut out, mask);
            for (i, (&got, &want)) in out.iter().zip(&full).enumerate() {
                if mask.get(i / 2) == Some(&true) {
                    assert_eq!(got.to_bits(), want.to_bits(), "normal {i}");
                } else {
                    assert!(got.is_nan(), "normal {i} was written");
                }
            }
            // The mask does not move the stream: the next normals match.
            let mut next = vec![0.0; 4];
            sampler.fill(&mut next, &[true; 2]);
            let mut reference = NormalSampler::seeded(5);
            reference.fill(&mut vec![0.0; n], &[]);
            let mut want = vec![0.0; 4];
            reference.fill(&mut want, &[true; 2]);
            assert_eq!(next, want);
        }
    }

    #[test]
    fn hash_normal_is_stateless_and_finite() {
        // Same stream, same draw — independent of evaluation order.
        let a = hash_normal(mix_stream(mix_stream(1, 2), 3));
        let b = hash_normal(mix_stream(mix_stream(1, 2), 3));
        assert_eq!(a, b);
        // Distinct streams decorrelate.
        assert_ne!(a, hash_normal(mix_stream(mix_stream(1, 2), 4)));
        // Always finite, including the all-zeros stream.
        for s in [0_u64, 1, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            assert!(hash_normal(s).is_finite());
        }
    }

    #[test]
    fn hash_normal_moments_are_standard_normal() {
        let n = 200_000_u64;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for k in 0..n {
            let x = hash_normal(mix_stream(99, k));
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }
}
