//! Order statistics over latency samples.

/// The `p`-th percentile (`0.0..=100.0`) of `sorted`, by linear
/// interpolation between closest ranks. `sorted` must be ascending and
/// non-empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// Percentiles of an unsorted sample; sorts a copy once.
pub struct Distribution {
    sorted: Vec<f64>,
}

impl Distribution {
    /// `None` when there is nothing to summarise.
    pub fn new(samples: impl IntoIterator<Item = f64>) -> Option<Distribution> {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        Some(Distribution { sorted })
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    pub fn percentile(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// Median of a handful of values.
pub fn median(values: &[f64]) -> f64 {
    Distribution::new(values.iter().copied())
        .expect("median of no values")
        .median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_inputs() {
        let d = Distribution::new((1..=100).map(f64::from)).unwrap();
        assert_eq!(d.count(), 100);
        assert_eq!(d.percentile(0.0), 1.0);
        assert_eq!(d.percentile(100.0), 100.0);
        assert_eq!(d.median(), 50.5);
        assert!((d.percentile(95.0) - 95.05).abs() < 1e-9);
        assert_eq!(d.mean(), 50.5);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let d = Distribution::new([9.0, 1.0, 5.0]).unwrap();
        assert_eq!(d.median(), 5.0);
        assert_eq!(d.percentile(25.0), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let d = Distribution::new([7.0]).unwrap();
        assert_eq!(d.percentile(0.0), 7.0);
        assert_eq!(d.percentile(99.0), 7.0);
        assert!(Distribution::new([]).is_none());
    }
}
