//! Probability calibration diagnostics: reliability curves and expected
//! calibration error (ECE). A drifting pipeline often *stays accurate*
//! while its probabilities decalibrate — a silent failure class the
//! paper's business-SLA monitoring (§4.1) wants surfaced before
//! thresholded decisions go wrong.

use serde::{Deserialize, Serialize};

/// One bin of a reliability curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityBin {
    /// Bin lower edge (inclusive).
    pub lo: f64,
    /// Bin upper edge (exclusive; the last bin includes 1.0).
    pub hi: f64,
    /// Predictions falling in the bin.
    pub count: u64,
    /// Mean predicted probability in the bin (NaN when empty).
    pub mean_predicted: f64,
    /// Observed positive fraction in the bin (NaN when empty).
    pub observed_rate: f64,
}

impl ReliabilityBin {
    /// |observed − predicted| for this bin; NaN when empty.
    pub fn gap(&self) -> f64 {
        (self.observed_rate - self.mean_predicted).abs()
    }
}

/// A binned reliability curve over `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityCurve {
    /// Equal-width bins.
    pub bins: Vec<ReliabilityBin>,
    /// Total scored predictions.
    pub total: u64,
}

impl ReliabilityCurve {
    /// Build from parallel probability/label slices with `bins`
    /// equal-width bins. Panics on length mismatch or zero bins;
    /// probabilities are clamped into [0, 1].
    pub fn fit(probabilities: &[f64], labels: &[bool], bins: usize) -> Self {
        assert_eq!(probabilities.len(), labels.len(), "length mismatch");
        assert!(bins >= 1, "need at least one bin");
        let mut count = vec![0u64; bins];
        let mut sum_p = vec![0.0f64; bins];
        let mut positives = vec![0u64; bins];
        for (&p, &l) in probabilities.iter().zip(labels.iter()) {
            if !p.is_finite() {
                continue;
            }
            let p = p.clamp(0.0, 1.0);
            let idx = ((p * bins as f64) as usize).min(bins - 1);
            count[idx] += 1;
            sum_p[idx] += p;
            if l {
                positives[idx] += 1;
            }
        }
        let total: u64 = count.iter().sum();
        let bins = (0..bins)
            .map(|i| {
                let width = 1.0 / count.len() as f64;
                ReliabilityBin {
                    lo: i as f64 * width,
                    hi: (i + 1) as f64 * width,
                    count: count[i],
                    mean_predicted: if count[i] == 0 {
                        f64::NAN
                    } else {
                        sum_p[i] / count[i] as f64
                    },
                    observed_rate: if count[i] == 0 {
                        f64::NAN
                    } else {
                        positives[i] as f64 / count[i] as f64
                    },
                }
            })
            .collect();
        ReliabilityCurve { bins, total }
    }

    /// Expected calibration error: count-weighted mean |observed −
    /// predicted| across non-empty bins. NaN when no predictions scored.
    pub fn ece(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        self.bins
            .iter()
            .filter(|b| b.count > 0)
            .map(|b| b.count as f64 / self.total as f64 * b.gap())
            .sum()
    }

    /// Maximum calibration error across non-empty bins; NaN when empty.
    pub fn mce(&self) -> f64 {
        self.bins
            .iter()
            .filter(|b| b.count > 0)
            .map(ReliabilityBin::gap)
            .fold(f64::NAN, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic uniform stream in [0,1).
    fn unif(state: &mut u64) -> f64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Perfectly calibrated stream: label drawn with probability p.
    fn calibrated(n: usize, seed: u64) -> (Vec<f64>, Vec<bool>) {
        let mut st = seed | 1;
        let mut probs = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let p = unif(&mut st);
            probs.push(p);
            labels.push(unif(&mut st) < p);
        }
        (probs, labels)
    }

    #[test]
    fn calibrated_predictions_have_low_ece() {
        let (probs, labels) = calibrated(50_000, 3);
        let ece = ReliabilityCurve::fit(&probs, &labels, 10).ece();
        assert!(ece < 0.02, "calibrated ECE {ece}");
    }

    #[test]
    fn overconfident_predictions_have_high_ece() {
        // Push probabilities toward the extremes without changing labels.
        let (probs, labels) = calibrated(50_000, 5);
        let sharpened: Vec<f64> = probs
            .iter()
            .map(|p| if *p >= 0.5 { 0.99 } else { 0.01 })
            .collect();
        let ece = ReliabilityCurve::fit(&sharpened, &labels, 10).ece();
        assert!(ece > 0.2, "overconfident ECE {ece}");
        let curve = ReliabilityCurve::fit(&sharpened, &labels, 10);
        assert!(curve.mce() >= ece);
    }

    #[test]
    fn bins_partition_and_count() {
        let probs = [0.05, 0.15, 0.95, 1.0, 0.95];
        let labels = [false, false, true, true, false];
        let curve = ReliabilityCurve::fit(&probs, &labels, 10);
        assert_eq!(curve.total, 5);
        assert_eq!(curve.bins.len(), 10);
        assert_eq!(curve.bins[0].count, 1);
        assert_eq!(curve.bins[1].count, 1);
        assert_eq!(curve.bins[9].count, 3, "1.0 clamps into the last bin");
        let last = curve.bins[9];
        assert!((last.observed_rate - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let curve = ReliabilityCurve::fit(&[], &[], 10);
        assert!(curve.ece().is_nan());
        assert!(curve.mce().is_nan());
        // NaN probabilities skipped.
        let curve = ReliabilityCurve::fit(&[f64::NAN, 0.5], &[true, true], 4);
        assert_eq!(curve.total, 1);
    }

    #[test]
    fn empty_bins_are_nan_but_excluded_from_ece() {
        let probs = [0.95; 100];
        let labels = [true; 100];
        let curve = ReliabilityCurve::fit(&probs, &labels, 10);
        assert!(curve.bins[0].mean_predicted.is_nan());
        let ece = curve.ece();
        assert!(
            (ece - 0.05).abs() < 1e-9,
            "single-bin gap |1.0 − 0.95|, got {ece}"
        );
    }
}
