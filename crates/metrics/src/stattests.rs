//! Hypothesis tests for drift monitoring: the two-sample
//! Kolmogorov–Smirnov test (§5.2: "well-known metrics like the
//! Kolmogorov-Smirnov test statistic can be expensive and produce too many
//! false positive alerts") and Welch's t-test (the paper's "t-test
//! scores").

use crate::special::{kolmogorov_q, student_t_two_sided_p};

/// Result of a two-sample test: the statistic and its p-value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic (D for KS, t for Welch).
    pub statistic: f64,
    /// Probability of a statistic at least this extreme under H₀ (same
    /// distribution / same mean).
    pub p_value: f64,
}

impl TestResult {
    /// True when the null hypothesis is rejected at significance `alpha`.
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Two-sample Kolmogorov–Smirnov test. Sorts both samples: O(n log n) —
/// the cost the paper warns about at production scale. Returns NaN
/// statistic for empty samples.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> TestResult {
    let mut xs: Vec<f64> = a.iter().copied().filter(|x| x.is_finite()).collect();
    let mut ys: Vec<f64> = b.iter().copied().filter(|x| x.is_finite()).collect();
    if xs.is_empty() || ys.is_empty() {
        return TestResult {
            statistic: f64::NAN,
            p_value: f64::NAN,
        };
    }
    xs.sort_by(|p, q| p.total_cmp(q));
    ys.sort_by(|p, q| p.total_cmp(q));
    let (n1, n2) = (xs.len() as f64, ys.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < xs.len() && j < ys.len() {
        let x = xs[i];
        let y = ys[j];
        let t = x.min(y);
        while i < xs.len() && xs[i] <= t {
            i += 1;
        }
        while j < ys.len() && ys[j] <= t {
            j += 1;
        }
        let f1 = i as f64 / n1;
        let f2 = j as f64 / n2;
        d = d.max((f1 - f2).abs());
    }
    let ne = (n1 * n2 / (n1 + n2)).sqrt();
    // Asymptotic p-value with the small-sample correction of Stephens.
    let lambda = (ne + 0.12 + 0.11 / ne) * d;
    TestResult {
        statistic: d,
        p_value: kolmogorov_q(lambda),
    }
}

/// Welch's unequal-variance t-test for a difference in means, with the
/// Welch–Satterthwaite degrees of freedom. Requires ≥ 2 finite values per
/// sample (otherwise NaN).
pub fn welch_t_test(a: &[f64], b: &[f64]) -> TestResult {
    let xs: Vec<f64> = a.iter().copied().filter(|x| x.is_finite()).collect();
    let ys: Vec<f64> = b.iter().copied().filter(|x| x.is_finite()).collect();
    if xs.len() < 2 || ys.len() < 2 {
        return TestResult {
            statistic: f64::NAN,
            p_value: f64::NAN,
        };
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let var = |v: &[f64], m: f64| {
        v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() as f64 - 1.0)
    };
    let (m1, m2) = (mean(&xs), mean(&ys));
    let (v1, v2) = (var(&xs, m1), var(&ys, m2));
    let (n1, n2) = (xs.len() as f64, ys.len() as f64);
    let se2 = v1 / n1 + v2 / n2;
    if se2 == 0.0 {
        // Identical constants: no evidence of difference.
        let equal = (m1 - m2).abs() < f64::EPSILON;
        return TestResult {
            statistic: if equal { 0.0 } else { f64::INFINITY },
            p_value: if equal { 1.0 } else { 0.0 },
        };
    }
    let t = (m1 - m2) / se2.sqrt();
    let df = se2 * se2 / ((v1 / n1) * (v1 / n1) / (n1 - 1.0) + (v2 / n2) * (v2 / n2) / (n2 - 1.0));
    TestResult {
        statistic: t,
        p_value: student_t_two_sided_p(t, df),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic uniform stream in [0,1).
    fn uniform(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn ks_identical_samples_not_significant() {
        let a = uniform(2000, 7);
        let b = uniform(2000, 99);
        let r = ks_two_sample(&a, &b);
        assert!(r.statistic < 0.06, "D = {}", r.statistic);
        assert!(!r.significant(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn ks_shifted_samples_significant() {
        let a = uniform(1000, 7);
        let b: Vec<f64> = uniform(1000, 99).iter().map(|x| x + 0.2).collect();
        let r = ks_two_sample(&a, &b);
        assert!(r.statistic > 0.15);
        assert!(r.significant(0.001));
    }

    #[test]
    fn ks_detects_variance_change_mean_misses() {
        // Same mean (0.5), different spread: D should be sizable.
        let a = uniform(4000, 3);
        let b: Vec<f64> = uniform(4000, 11)
            .iter()
            .map(|x| 0.5 + (x - 0.5) * 0.3)
            .collect();
        let mean_a: f64 = a.iter().sum::<f64>() / a.len() as f64;
        let mean_b: f64 = b.iter().sum::<f64>() / b.len() as f64;
        assert!((mean_a - mean_b).abs() < 0.02, "means match by design");
        let r = ks_two_sample(&a, &b);
        assert!(r.significant(0.001), "KS should catch shape change");
    }

    #[test]
    fn ks_empty_is_nan() {
        let r = ks_two_sample(&[], &[1.0]);
        assert!(r.statistic.is_nan());
    }

    #[test]
    fn ks_statistic_bounds() {
        // Completely disjoint samples → D = 1.
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        let r = ks_two_sample(&a, &b);
        assert!((r.statistic - 1.0).abs() < 1e-12);
        assert!(r.p_value < 0.1);
    }

    #[test]
    fn welch_equal_means_not_significant() {
        let a = uniform(500, 5);
        let b = uniform(500, 17);
        let r = welch_t_test(&a, &b);
        assert!(!r.significant(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn welch_detects_mean_shift() {
        let a = uniform(500, 5);
        let b: Vec<f64> = uniform(500, 17).iter().map(|x| x + 0.3).collect();
        let r = welch_t_test(&a, &b);
        assert!(r.significant(1e-6));
        assert!(r.statistic < 0.0, "a's mean is lower");
    }

    #[test]
    fn welch_misses_pure_variance_change() {
        // The §5.2 claim, inverted: a mean test cannot see shape-only drift.
        let a = uniform(2000, 3);
        let b: Vec<f64> = uniform(2000, 11)
            .iter()
            .map(|x| 0.5 + (x - 0.5) * 0.3)
            .collect();
        let r = welch_t_test(&a, &b);
        assert!(!r.significant(0.001), "t-test blind to variance change");
    }

    #[test]
    fn welch_identical_constants() {
        let r = welch_t_test(&[2.0, 2.0, 2.0], &[2.0, 2.0]);
        assert_eq!(r.p_value, 1.0);
        let r = welch_t_test(&[2.0, 2.0, 2.0], &[3.0, 3.0]);
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn welch_small_samples_nan() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).statistic.is_nan());
    }

    #[test]
    fn ks_false_positive_rate_near_alpha() {
        // Repeated same-distribution comparisons should reject at ≈ alpha.
        let mut rejections = 0;
        let trials = 200;
        for t in 0..trials {
            let a = uniform(300, 1000 + t);
            let b = uniform(300, 5000 + t);
            if ks_two_sample(&a, &b).significant(0.05) {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / trials as f64;
        assert!(rate < 0.12, "false positive rate {rate} too high");
    }
}
