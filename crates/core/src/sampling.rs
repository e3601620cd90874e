//! Exact sampling from a batch-amplitude tensor.
//!
//! The paper's headline workload generates one million *correlated samples*:
//! bitstrings of the open qubits drawn from the exact output distribution of
//! the contracted network. Given the tensor of amplitudes over the open
//! qubits, sampling is a categorical draw proportional to `|amplitude|²`.

use crate::error::Error;
use qtn_tensor::{Complex64, DenseTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draw `count` bitstrings over the axes of `amplitudes`, with probability
/// proportional to the squared modulus of each amplitude. Bit `i` of a
/// returned sample corresponds to axis `i` of the tensor.
///
/// Returns [`Error::ZeroAmplitudeDistribution`] when the tensor has no
/// finite, positive probability mass: every amplitude is exactly zero, or
/// one is NaN or infinite (a CDF over such a mass is meaningless).
pub fn sample_bitstrings(
    amplitudes: &DenseTensor<Complex64>,
    count: usize,
    seed: u64,
) -> Result<Vec<Vec<u8>>, Error> {
    let rank = amplitudes.rank();
    let probs: Vec<f64> = amplitudes.data().iter().map(|a| a.norm_sqr()).collect();
    let total: f64 = probs.iter().sum();
    if !(total > 0.0 && total.is_finite()) {
        return Err(Error::ZeroAmplitudeDistribution);
    }

    // Cumulative distribution for binary search.
    let mut cdf = Vec::with_capacity(probs.len());
    let mut acc = 0.0;
    for p in &probs {
        acc += p / total;
        cdf.push(acc);
    }
    // Guard against floating-point shortfall at the end.
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }

    let mut rng = StdRng::seed_from_u64(seed);
    Ok((0..count)
        .map(|_| {
            let r: f64 = rng.gen_range(0.0..1.0);
            let idx = cdf.partition_point(|&c| c < r).min(probs.len() - 1);
            (0..rank).map(|axis| ((idx >> (rank - 1 - axis)) & 1) as u8).collect()
        })
        .collect())
}

/// Estimate the linear cross-entropy benchmarking fidelity (XEB) of a set of
/// samples against the exact output probabilities: `⟨2^n · p(x)⟩ − 1`, which
/// is ≈ 1 for samples drawn from the true distribution of a random circuit
/// and ≈ 0 for uniform noise.
pub fn linear_xeb(amplitudes: &DenseTensor<Complex64>, samples: &[Vec<u8>]) -> f64 {
    let n = amplitudes.rank();
    let norm: f64 = amplitudes.data().iter().map(|a| a.norm_sqr()).sum();
    let dim = (1usize << n) as f64;
    let mean_p: f64 =
        samples.iter().map(|bits| amplitudes.get(bits).norm_sqr() / norm).sum::<f64>()
            / samples.len() as f64;
    dim * mean_p - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_tensor::{c64, IndexSet};

    fn amplitude_tensor(values: Vec<Complex64>) -> DenseTensor<Complex64> {
        let rank = (values.len() as f64).log2() as usize;
        DenseTensor::from_data(IndexSet::new((0..rank as u32).collect()), values)
    }

    #[test]
    fn deterministic_distribution_always_returns_the_same_bitstring() {
        let t = amplitude_tensor(vec![
            Complex64::ZERO,
            Complex64::ZERO,
            c64(0.0, 1.0),
            Complex64::ZERO,
        ]);
        let samples = sample_bitstrings(&t, 50, 3).unwrap();
        for s in samples {
            assert_eq!(s, vec![1, 0]);
        }
    }

    #[test]
    fn uniform_distribution_is_roughly_uniform() {
        let h = 0.5;
        let t = amplitude_tensor(vec![c64(h, 0.0); 4]);
        let samples = sample_bitstrings(&t, 4000, 4).unwrap();
        let mut counts = [0usize; 4];
        for s in &samples {
            counts[(s[0] as usize) * 2 + s[1] as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 800 && c < 1200, "counts {counts:?}");
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let t = amplitude_tensor(vec![c64(0.6, 0.0), c64(0.8, 0.0)]);
        assert_eq!(sample_bitstrings(&t, 20, 9).unwrap(), sample_bitstrings(&t, 20, 9).unwrap());
        assert_ne!(sample_bitstrings(&t, 20, 9).unwrap(), sample_bitstrings(&t, 20, 10).unwrap());
    }

    #[test]
    fn xeb_of_true_samples_is_positive_for_peaked_distributions() {
        let t = amplitude_tensor(vec![c64(0.95, 0.0), c64(0.1, 0.0), c64(0.2, 0.0), c64(0.1, 0.0)]);
        let samples = sample_bitstrings(&t, 3000, 11).unwrap();
        let xeb = linear_xeb(&t, &samples);
        assert!(xeb > 0.5, "XEB {xeb} too low for correlated samples");
        // Uniform samples give ~0.
        let uniform: Vec<Vec<u8>> =
            (0..3000u32).map(|i| vec![(i % 2) as u8, ((i / 2) % 2) as u8]).collect();
        let xeb_uniform = linear_xeb(&t, &uniform);
        assert!(xeb_uniform.abs() < 0.2, "uniform XEB {xeb_uniform}");
    }

    #[test]
    fn zero_tensor_is_a_typed_error() {
        let t = amplitude_tensor(vec![Complex64::ZERO; 2]);
        assert_eq!(sample_bitstrings(&t, 1, 0).unwrap_err(), Error::ZeroAmplitudeDistribution);
        let t = amplitude_tensor(vec![c64(f64::INFINITY, 0.0), Complex64::ONE]);
        assert_eq!(sample_bitstrings(&t, 1, 0).unwrap_err(), Error::ZeroAmplitudeDistribution);
    }
}
