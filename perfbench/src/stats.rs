//! Sample summaries: percentiles over a run's raw samples.

/// Raw samples of one quantity, kept whole so any percentile can be taken.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `p`-th percentile (0..=100), linearly interpolated between the
    /// closest ranks; 0 for an empty set.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = p / 100.0 * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    /// Every sample multiplied by `k` (a unit change).
    pub fn scaled(&self, k: f64) -> Samples {
        Samples(self.0.iter().map(|v| v * k).collect())
    }
}
