//! Order statistics over small samples (rounds, waves).

/// Sorted copy (total order; the samples are finite measurements).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count). 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median absolute deviation as a percentage of the median.
pub fn mad_pct(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    100.0 * median(&dev) / m
}

/// Nearest-rank percentile `p` in `0..=100`. 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Largest sample.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::MIN, f64::max)
}

/// Smallest sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::MAX, f64::min)
}

/// Most samples a [`Samples`] keeps.
const SAMPLES_CAP: usize = 1 << 16;

/// A bounded systematic sample of a stream of measurements: every
/// value until [`SAMPLES_CAP`] are held, then every 2nd, 4th, … — so the
/// memory a run uses does not depend on how many waves the box managed.
pub struct Samples {
    stride: u64,
    seen: u64,
    kept: Vec<f64>,
}

impl Default for Samples {
    fn default() -> Self {
        Samples {
            stride: 1,
            seen: 0,
            kept: Vec::with_capacity(SAMPLES_CAP),
        }
    }
}

impl Samples {
    /// Offer the next measurement.
    pub fn push(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == SAMPLES_CAP {
                let mut i = 0usize;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(v);
            }
        }
        self.seen += 1;
    }

    /// Measurements offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept measurements.
    pub fn kept(&self) -> &[f64] {
        &self.kept
    }

    /// Forget everything.
    pub fn clear(&mut self) {
        *self = Samples::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&xs[..4]), 3.0);
        assert_eq!(percentile(&xs, 5.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(mad_pct(&xs), 100.0 / 3.0);
        assert_eq!((min(&xs), max(&xs)), (1.0, 5.0));
    }

    #[test]
    fn samples_stay_bounded_and_evenly_strided() {
        let mut s = Samples::default();
        let n = 3 * SAMPLES_CAP as u64 + 7;
        for i in 0..n {
            s.push(i as f64);
        }
        assert_eq!(s.seen(), n);
        assert!(s.kept().len() <= SAMPLES_CAP);
        assert!(s.kept().iter().all(|v| (*v as u64).is_multiple_of(4)));
        assert!((median(s.kept()) - n as f64 / 2.0).abs() < 8.0);
    }
}
