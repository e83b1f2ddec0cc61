//! Streaming summary statistics (Welford's algorithm) and confidence
//! intervals for the experiment reports.

/// Online mean/variance accumulator.
///
/// ```
/// use hbh_experiments::stats::Summary;
///
/// let mut s = Summary::default();
/// for x in [2.0, 4.0, 6.0] {
///     s.add(x);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.n(), 3);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Summary {
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (Bessel-corrected); 0 for fewer than two samples.
    pub fn var(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn sd(&self) -> f64 {
        self.var().sqrt()
    }

    /// Half-width of the normal-approximation 95% confidence interval.
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.sd() / (self.n as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(xs: &[f64]) -> Summary {
        let mut s = Summary::default();
        for &x in xs {
            s.add(x);
        }
        s
    }

    #[test]
    fn mean_and_variance() {
        let s = of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.var() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(of(&[]).mean(), 0.0);
        assert_eq!(of(&[3.0]).var(), 0.0);
        assert_eq!(of(&[3.0]).ci95(), 0.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = of(&[1.0, 2.0, 3.0, 4.0]);
        let many = of(&(0..100).map(|i| (i % 4) as f64 + 1.0).collect::<Vec<_>>());
        assert!(many.ci95() < few.ci95());
    }
}
