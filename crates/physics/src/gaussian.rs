//! Gaussian statistics used by the yield model: error function, normal CDF
//! and in-window probabilities.
//!
//! The paper models every doping operation as adding an independent Gaussian
//! disturbance to the threshold voltage (Definition 5); a nanowire is
//! addressable only if every region's threshold stays inside its decision
//! window. These helpers compute that probability analytically so the yield
//! simulation does not need a Monte-Carlo pass (though `decoder-sim` provides
//! one for cross-validation).

use crate::error::{PhysicsError, Result};

/// Error function `erf(x)`, computed with the Abramowitz & Stegun 7.1.26
/// rational approximation (absolute error below 1.5 × 10⁻⁷, ample for yield
/// estimates dominated by model uncertainty).
#[must_use]
pub fn erf(x: f64) -> f64 {
    // erf(-x) = -erf(x)
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();

    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
#[must_use]
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Standard normal cumulative distribution function `Φ(z)`.
#[must_use]
pub fn standard_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// A Gaussian (normal) distribution described by its mean and standard
/// deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std_dev: f64,
}

impl Gaussian {
    /// Creates a Gaussian with the given mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::InvalidDistribution`] when the standard
    /// deviation is negative or not finite, or the mean is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self> {
        if !mean.is_finite() || !std_dev.is_finite() || std_dev < 0.0 {
            return Err(PhysicsError::InvalidDistribution {
                reason: format!("mean {mean}, std dev {std_dev}"),
            });
        }
        Ok(Gaussian { mean, std_dev })
    }

    /// The mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation of the distribution.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// The variance of the distribution.
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }

    /// Cumulative distribution function at `x`.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x >= self.mean { 1.0 } else { 0.0 };
        }
        standard_normal_cdf((x - self.mean) / self.std_dev)
    }

    /// Probability that a sample falls inside the closed interval
    /// `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::InvalidDistribution`] when `lo > hi`.
    pub fn probability_within(&self, lo: f64, hi: f64) -> Result<f64> {
        if lo > hi {
            return Err(PhysicsError::InvalidDistribution {
                reason: format!("empty interval [{lo}, {hi}]"),
            });
        }
        if self.std_dev == 0.0 {
            // Point mass at the mean: the closed interval either contains it
            // or it does not.
            return Ok(if (lo..=hi).contains(&self.mean) {
                1.0
            } else {
                0.0
            });
        }
        Ok((self.cdf(hi) - self.cdf(lo)).clamp(0.0, 1.0))
    }

    /// Probability that a sample deviates from the mean by at most
    /// `half_width` in either direction.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::InvalidDistribution`] when `half_width` is
    /// negative or NaN.
    pub fn probability_within_window(&self, half_width: f64) -> Result<f64> {
        // NaN is rejected with the negatives; `+∞` stays valid.
        if half_width.is_nan() || half_width < 0.0 {
            return Err(PhysicsError::InvalidDistribution {
                reason: format!("negative window half-width {half_width}"),
            });
        }
        self.probability_within(self.mean - half_width, self.mean + half_width)
    }

    /// The sum of two independent Gaussians: means add, variances add.
    #[must_use]
    pub fn convolve(&self, other: &Gaussian) -> Gaussian {
        Gaussian {
            mean: self.mean + other.mean,
            std_dev: (self.variance() + other.variance()).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_reference_values() {
        // Reference values from tables of erf.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.520_499_88),
            (1.0, 0.842_700_79),
            (1.5, 0.966_105_15),
            (2.0, 0.995_322_27),
            (3.0, 0.999_977_91),
        ];
        for (x, expected) in cases {
            assert!((erf(x) - expected).abs() < 2e-7, "erf({x})");
            assert!((erf(-x) + expected).abs() < 2e-7, "erf(-{x})");
        }
    }

    #[test]
    fn erfc_is_complementary() {
        for x in [-2.0, -0.5, 0.0, 0.7, 2.3] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn standard_normal_cdf_reference_values() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((standard_normal_cdf(1.959_964) - 0.975).abs() < 1e-4);
        assert!((standard_normal_cdf(-1.959_964) - 0.025).abs() < 1e-4);
        assert!(standard_normal_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn gaussian_construction_validates() {
        assert!(Gaussian::new(0.0, -1.0).is_err());
        assert!(Gaussian::new(f64::NAN, 1.0).is_err());
        assert!(Gaussian::new(0.0, f64::INFINITY).is_err());
        let g = Gaussian::new(0.5, 0.05).unwrap();
        assert_eq!(g.mean(), 0.5);
        assert_eq!(g.std_dev(), 0.05);
        assert!((g.variance() - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn window_probabilities() {
        let g = Gaussian::new(0.25, 0.05).unwrap();
        // One sigma each side ≈ 68.3 %.
        let one_sigma = g.probability_within_window(0.05).unwrap();
        assert!((one_sigma - 0.6827).abs() < 1e-3);
        // Five sigma each side is essentially certain.
        assert!(g.probability_within_window(0.25).unwrap() > 0.999_999);
        // Zero window has zero probability (continuous distribution).
        assert!(g.probability_within_window(0.0).unwrap() < 1e-12);
        assert!(g.probability_within_window(-0.1).is_err());
    }

    #[test]
    fn nan_window_half_widths_are_rejected() {
        let g = Gaussian::new(0.25, 0.05).unwrap();
        assert!(g.probability_within_window(f64::NAN).is_err());
        // An unbounded window is valid and accepts everything.
        assert_eq!(g.probability_within_window(f64::INFINITY).unwrap(), 1.0);
    }

    #[test]
    fn degenerate_distribution_is_a_point_mass() {
        let g = Gaussian::new(0.3, 0.0).unwrap();
        assert_eq!(g.cdf(0.2), 0.0);
        assert_eq!(g.cdf(0.3), 1.0);
        assert_eq!(g.probability_within(0.25, 0.35).unwrap(), 1.0);
        assert_eq!(g.probability_within(0.31, 0.35).unwrap(), 0.0);
        assert_eq!(g.probability_within_window(0.0).unwrap(), 1.0);
    }

    #[test]
    fn interval_validation() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        assert!(g.probability_within(1.0, -1.0).is_err());
        let p = g.probability_within(-1.0, 1.0).unwrap();
        assert!((p - 0.6827).abs() < 1e-3);
    }

    #[test]
    fn convolution_adds_variances() {
        let a = Gaussian::new(0.1, 0.03).unwrap();
        let b = Gaussian::new(0.2, 0.04).unwrap();
        let c = a.convolve(&b);
        assert!((c.mean() - 0.3).abs() < 1e-12);
        assert!((c.std_dev() - 0.05).abs() < 1e-12);
    }
}
