//! Complexity arithmetic in the log2 domain.
//!
//! Contraction costs for Sycamore-scale networks exceed 2^60, and sums of
//! such terms overflow 64-bit integers, so all complexity bookkeeping is done
//! with base-2 logarithms stored as `f64` ([`LogCost`]). Adding two costs
//! (`2^a + 2^b`) uses the standard log-sum-exp trick.

/// A cost expressed as its base-2 logarithm.
pub type LogCost = f64;

/// log2(2^a + 2^b), numerically stable.
///
/// A term at least 2^53 times smaller than the other is skipped: `2^(lo −
/// hi)` is then at most `2^-53`, `1 + 2^(lo − hi)` rounds to exactly 1 and
/// its log2 to 0, so the sum is `hi` to the bit, with or without the two
/// transcendental calls. Large folds (a tree's total cost, whose branch
/// nodes are tiny beside its stem) skip most of their terms this way.
pub fn log2_add(a: LogCost, b: LogCost) -> LogCost {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if lo - hi <= -53.0 {
        return hi;
    }
    hi + (1.0 + (lo - hi).exp2()).log2()
}

/// log2 of the sum of an iterator of log2 costs.
pub fn log2_sum<I: IntoIterator<Item = LogCost>>(costs: I) -> LogCost {
    costs.into_iter().fold(f64::NEG_INFINITY, log2_add)
}

/// The additive identity in the log2 domain (log2 of zero).
pub const LOG_ZERO: LogCost = f64::NEG_INFINITY;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_equal_costs_doubles() {
        assert!((log2_add(10.0, 10.0) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn add_dominant_term() {
        // 2^60 + 2^0 is essentially 2^60.
        let r = log2_add(60.0, 0.0);
        assert!((60.0..60.0 + 1e-9).contains(&r));
    }

    #[test]
    fn add_zero_identity() {
        assert_eq!(log2_add(LOG_ZERO, 5.0), 5.0);
        assert_eq!(log2_add(5.0, LOG_ZERO), 5.0);
        assert_eq!(log2_add(LOG_ZERO, LOG_ZERO), LOG_ZERO);
    }

    #[test]
    fn sum_matches_linear_domain() {
        // 2^3 + 2^4 + 2^5 = 8 + 16 + 32 = 56
        let s = log2_sum([3.0, 4.0, 5.0]);
        assert!((s.exp2() - 56.0).abs() < 1e-9);
    }

    #[test]
    fn sum_of_empty_is_zero() {
        assert_eq!(log2_sum(std::iter::empty()), LOG_ZERO);
    }

    #[test]
    fn commutative() {
        let a = log2_add(12.3, 45.6);
        let b = log2_add(45.6, 12.3);
        assert!((a - b).abs() < 1e-12);
    }

    /// Skipping a term 2^53 times smaller returns the bits the full
    /// formula returns, at every magnitude and around the cut.
    #[test]
    fn skipped_terms_round_away() {
        let full = |a: LogCost, b: LogCost| {
            let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
            hi + (1.0 + (lo - hi).exp2()).log2()
        };
        let mut checked = 0;
        for hi in [0.0, 1.0, 17.25, 53.0, 61.0, 80.123456789, 99.5, 1000.0, 1e6] {
            for k in 0..4000 {
                let gap = 40.0 + k as f64 * 0.005 + (k % 7) as f64 * 1e-9;
                for gap in [gap, 53.0, 53.0 + f64::EPSILON * 64.0, 53.0 - f64::EPSILON * 64.0] {
                    let lo = hi - gap;
                    assert_eq!(log2_add(hi, lo).to_bits(), full(hi, lo).to_bits(), "{hi} {lo}");
                    assert_eq!(log2_add(lo, hi).to_bits(), full(lo, hi).to_bits(), "{lo} {hi}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 100_000);
    }

    #[test]
    fn huge_costs_do_not_overflow() {
        let s = log2_sum([300.0, 301.0, 299.5]);
        assert!(s.is_finite());
        assert!(s > 301.0 && s < 302.0);
    }
}
