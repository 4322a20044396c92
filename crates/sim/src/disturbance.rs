//! Pluggable dose-disturbance distributions for the Monte-Carlo path.
//!
//! The analytic addressability model integrates **Gaussian** threshold
//! disturbances in closed form; that is the one distribution it can handle.
//! The Monte-Carlo sampler has no such restriction, so its region-disturbance
//! generator is a trait, [`DisturbanceModel`], with three stock
//! implementations:
//!
//! * [`GaussianDisturbance`] — the paper's model, and the default. Draws one
//!   standard normal per region (the fixed-seed regression in
//!   `tests/engine_equivalence.rs` pins the resulting counts).
//! * [`LaplaceDisturbance`] — heavy-tailed dose noise from the sampler's
//!   exponential ziggurat, scaled to the same per-region variance `σ²` as the
//!   Gaussian so the two differ only in tail shape. One Laplace draw per
//!   region.
//! * [`CorrelatedDisturbance`] — a shared per-nanowire offset plus
//!   independent per-region noise (systematic dose drift on top of local
//!   randomness). `1 + M` normals per nanowire of `M` regions.
//!
//! # Fixed-consumption contract
//!
//! Whatever the distribution, a model must draw a **fixed number** of values
//! from the source per nanowire, depending only on the region count. Each
//! value may take a varying number of raw words (the ziggurat retries on a
//! rejection), but that number depends only on the seed and the values
//! drawn. Consumption therefore never depends on σ, the window, or the
//! acceptance outcome. This is the same common-random-numbers discipline
//! [`crate::monte_carlo`] documents: it keeps chunked sampling
//! bit-identical for any thread count and makes same-seed comparisons
//! across windows exact.
//!
//! [`DisturbanceKind`] is the serializable, config-friendly enumeration of
//! the stock models; custom models plug in through
//! [`ExecutionEngine::monte_carlo_with_disturbance`](crate::ExecutionEngine::monte_carlo_with_disturbance).

use std::fmt;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::error::{Result, SimError};
use crate::monte_carlo::NormalSource;

/// A distribution of per-region threshold-voltage disturbances, sampled one
/// nanowire at a time.
///
/// Implementations must obey the module-level fixed-consumption contract:
/// the number of values drawn from `draws` may depend only on
/// `sigmas.len()`, and what they consume only on the seed and the values
/// drawn — never on σ, the window or the acceptance outcome.
///
/// # Examples
///
/// A custom distribution — uniform dose noise on `[-σ√3, σ√3]`, which has the
/// same variance `σ²` as the stock models:
///
/// ```
/// use decoder_sim::{DisturbanceModel, NormalSource};
/// use rand::rngs::StdRng;
///
/// #[derive(Debug)]
/// struct UniformDisturbance;
///
/// impl DisturbanceModel for UniformDisturbance {
///     fn sample_regions(
///         &self,
///         sigmas: &[f64],
///         draws: &mut NormalSource<StdRng>,
///         out: &mut [f64],
///     ) {
///         // One uniform per region: fixed consumption, as required.
///         for (slot, &sigma) in out.iter_mut().zip(sigmas) {
///             *slot = sigma * 3f64.sqrt() * (2.0 * draws.uniform() - 1.0);
///         }
///     }
/// }
///
/// let sigmas = [0.1, 0.2, 0.3];
/// let mut draws = NormalSource::from_seed(7);
/// let mut deviations = [0.0f64; 3];
/// UniformDisturbance.sample_regions(&sigmas, &mut draws, &mut deviations);
/// assert!(deviations
///     .iter()
///     .zip(&sigmas)
///     .all(|(d, s)| d.abs() <= s * 3f64.sqrt()));
/// ```
pub trait DisturbanceModel: fmt::Debug + Send + Sync {
    /// Fills `out` with one sampled disturbance per doping region of one
    /// nanowire; `sigmas[j]` is the standard deviation the analytic model
    /// assigns to region `j` (`out.len() == sigmas.len()`).
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]);

    /// Fills a whole `nanowires × regions` deviation matrix in one call —
    /// the structure-of-arrays entry point of the batched sampling kernel.
    /// `sigmas` and `out` are flat row-major matrices of equal length whose
    /// rows are `regions` wide.
    ///
    /// The provided body loops [`sample_regions`](Self::sample_regions) over
    /// the rows in order, so every implementation consumes the draw stream
    /// exactly as the scalar path did; implementations may override it with
    /// a batched draw **only** when the batch consumes the identical stream
    /// (see [`GaussianDisturbance`], whose override leans on
    /// [`NormalSource::fill`] replaying the scalar stream bit-exactly).
    fn sample_matrix(
        &self,
        sigmas: &[f64],
        regions: usize,
        draws: &mut NormalSource<StdRng>,
        out: &mut [f64],
    ) {
        if regions == 0 {
            return;
        }
        for (row_sigmas, row_out) in sigmas
            .chunks_exact(regions)
            .zip(out.chunks_exact_mut(regions))
        {
            self.sample_regions(row_sigmas, draws, row_out);
        }
    }
}

/// The paper's Gaussian disturbance: region `j` deviates by `σ_j · Z` with
/// `Z` standard normal. Draws exactly one normal per region, in region
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaussianDisturbance;

impl DisturbanceModel for GaussianDisturbance {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        for (slot, &sigma) in out.iter_mut().zip(sigmas) {
            *slot = sigma * draws.sample();
        }
    }

    /// Batched draw: one [`NormalSource::fill`] over the whole matrix, then
    /// an elementwise scale the compiler can autovectorize. Bit-identical to
    /// the row loop because the Gaussian consumes exactly one normal per
    /// cell in row-major order — the flat order *is* the scalar order.
    fn sample_matrix(
        &self,
        sigmas: &[f64],
        _regions: usize,
        draws: &mut NormalSource<StdRng>,
        out: &mut [f64],
    ) {
        draws.fill(out);
        for (slot, &sigma) in out.iter_mut().zip(sigmas) {
            *slot *= sigma;
        }
    }
}

/// Heavy-tailed Laplace dose noise: one unit-scale Laplace draw per region
/// (the symmetric exponential ziggurat of [`NormalSource`]) scaled to
/// variance `σ_j²` (Laplace scale `b = σ/√2`), so it is directly comparable
/// to [`GaussianDisturbance`]: same second moment, fatter tails (excess
/// kurtosis 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaplaceDisturbance;

impl DisturbanceModel for LaplaceDisturbance {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        for (slot, &sigma) in out.iter_mut().zip(sigmas) {
            *slot = sigma * std::f64::consts::FRAC_1_SQRT_2 * draws.laplace();
        }
    }
}

/// Correlated inter-region disturbance: one shared offset per nanowire (a
/// systematic dose drift hitting every region of the wire) plus independent
/// per-region noise, mixed so each region keeps variance `σ_j²`:
///
/// `ΔV_j = σ_j · (√ρ · Z₀ + √(1−ρ) · Z_j)`
///
/// where `ρ` is the [`shared_fraction`](CorrelatedDisturbance::shared_fraction)
/// of the variance carried by the shared offset `Z₀`. `ρ = 0` degenerates to
/// the Gaussian model (but consumes one extra normal per nanowire); `ρ = 1`
/// moves every region of a wire in lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedDisturbance {
    shared_fraction: f64,
}

impl CorrelatedDisturbance {
    /// Creates a correlated model with the given shared variance fraction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `shared_fraction` is outside
    /// `[0, 1]` or not finite.
    pub fn new(shared_fraction: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&shared_fraction) || !shared_fraction.is_finite() {
            return Err(SimError::InvalidConfig {
                reason: format!("shared variance fraction {shared_fraction} is outside [0, 1]"),
            });
        }
        Ok(CorrelatedDisturbance { shared_fraction })
    }

    /// The fraction of each region's variance carried by the shared
    /// per-nanowire offset.
    #[must_use]
    pub fn shared_fraction(&self) -> f64 {
        self.shared_fraction
    }
}

impl DisturbanceModel for CorrelatedDisturbance {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        let shared = draws.sample();
        let shared_weight = self.shared_fraction.sqrt();
        let local_weight = (1.0 - self.shared_fraction).sqrt();
        for (slot, &sigma) in out.iter_mut().zip(sigmas) {
            *slot = sigma * (shared_weight * shared + local_weight * draws.sample());
        }
    }
}

/// The serializable selection of a stock disturbance model — the form a
/// distribution takes inside [`SimConfig`](crate::SimConfig) and sweep
/// configurations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum DisturbanceKind {
    /// [`GaussianDisturbance`] — the paper's model and the default.
    #[default]
    Gaussian,
    /// [`LaplaceDisturbance`] — heavy-tailed dose noise.
    Laplace,
    /// [`CorrelatedDisturbance`] — shared per-nanowire offset plus
    /// independent region noise.
    Correlated {
        /// Fraction of each region's variance carried by the shared offset.
        shared_fraction: f64,
    },
}

impl DisturbanceKind {
    /// Instantiates the selected model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the kind's parameters are
    /// invalid (a correlated fraction outside `[0, 1]`).
    pub fn model(&self) -> Result<Box<dyn DisturbanceModel>> {
        Ok(match *self {
            DisturbanceKind::Gaussian => Box::new(GaussianDisturbance),
            DisturbanceKind::Laplace => Box::new(LaplaceDisturbance),
            DisturbanceKind::Correlated { shared_fraction } => {
                Box::new(CorrelatedDisturbance::new(shared_fraction)?)
            }
        })
    }
}

impl fmt::Display for DisturbanceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisturbanceKind::Gaussian => write!(f, "gaussian"),
            DisturbanceKind::Laplace => write!(f, "laplace"),
            DisturbanceKind::Correlated { shared_fraction } => {
                write!(f, "correlated(ρ={shared_fraction:.2})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Draws `count` single-region samples with unit sigma.
    fn draw(model: &dyn DisturbanceModel, count: usize, seed: u64) -> Vec<f64> {
        let mut draws = NormalSource::from_seed(seed);
        let mut out = [0.0f64];
        (0..count)
            .map(|_| {
                model.sample_regions(&[1.0], &mut draws, &mut out);
                out[0]
            })
            .collect()
    }

    fn mean_and_variance(samples: &[f64]) -> (f64, f64) {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let variance =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        (mean, variance)
    }

    #[test]
    fn all_stock_models_have_zero_mean_and_unit_variance() {
        for kind in [
            DisturbanceKind::Gaussian,
            DisturbanceKind::Laplace,
            DisturbanceKind::Correlated {
                shared_fraction: 0.5,
            },
        ] {
            let samples = draw(kind.model().unwrap().as_ref(), 40_000, 123);
            let (mean, variance) = mean_and_variance(&samples);
            assert!(mean.abs() < 0.03, "{kind}: mean {mean}");
            assert!((variance - 1.0).abs() < 0.05, "{kind}: variance {variance}");
        }
    }

    #[test]
    fn laplace_tails_are_heavier_than_gaussian() {
        let gaussian = draw(&GaussianDisturbance, 40_000, 9);
        let laplace = draw(&LaplaceDisturbance, 40_000, 9);
        let beyond = |samples: &[f64]| samples.iter().filter(|x| x.abs() > 3.0).count();
        // P(|X| > 3σ): ≈ 0.27 % Gaussian vs ≈ 1.4 % Laplace at equal variance.
        assert!(
            beyond(&laplace) > 2 * beyond(&gaussian),
            "laplace {} vs gaussian {}",
            beyond(&laplace),
            beyond(&gaussian)
        );
        // Excess kurtosis: ≈ 0 for the Gaussian, ≈ 3 for the Laplace.
        let kurtosis = |samples: &[f64]| {
            let (mean, variance) = mean_and_variance(samples);
            samples.iter().map(|x| (x - mean).powi(4)).sum::<f64>()
                / (samples.len() as f64 * variance * variance)
                - 3.0
        };
        assert!(kurtosis(&gaussian).abs() < 0.5);
        assert!(kurtosis(&laplace) > 1.5);
    }

    #[test]
    fn correlated_regions_share_their_offset() {
        let model = CorrelatedDisturbance::new(0.8).unwrap();
        let mut draws = NormalSource::from_seed(11);
        let sigmas = [1.0, 1.0];
        let mut out = [0.0f64; 2];
        let pairs: Vec<(f64, f64)> = (0..20_000)
            .map(|_| {
                model.sample_regions(&sigmas, &mut draws, &mut out);
                (out[0], out[1])
            })
            .collect();
        let covariance = pairs.iter().map(|(a, b)| a * b).sum::<f64>() / pairs.len() as f64;
        // Corr(ΔV_i, ΔV_j) = ρ for i ≠ j.
        assert!(
            (covariance - 0.8).abs() < 0.05,
            "inter-region correlation {covariance}"
        );

        // ρ = 1: every region of a nanowire moves in lockstep.
        let lockstep = CorrelatedDisturbance::new(1.0).unwrap();
        lockstep.sample_regions(&sigmas, &mut draws, &mut out);
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn consumption_is_fixed_per_nanowire() {
        // Two different windows or sampled magnitudes never change how many
        // draws a model takes: after sampling the same nanowire count, two
        // sources produce the same next value.
        for kind in [
            DisturbanceKind::Gaussian,
            DisturbanceKind::Laplace,
            DisturbanceKind::Correlated {
                shared_fraction: 0.3,
            },
        ] {
            let model = kind.model().unwrap();
            let mut a = NormalSource::from_seed(77);
            let mut b = NormalSource::from_seed(77);
            let mut out = [0.0f64; 3];
            model.sample_regions(&[0.1, 0.2, 0.3], &mut a, &mut out);
            model.sample_regions(&[10.0, 20.0, 30.0], &mut b, &mut out);
            assert_eq!(a.sample(), b.sample(), "{kind}: consumption diverged");
        }
    }

    #[test]
    fn sample_matrix_matches_the_row_by_row_scalar_path() {
        // The batched entry point (including the Gaussian's fill-based
        // override) must produce the exact deviations of looping
        // sample_regions over the rows — same stream, same values.
        for kind in [
            DisturbanceKind::Gaussian,
            DisturbanceKind::Laplace,
            DisturbanceKind::Correlated {
                shared_fraction: 0.4,
            },
        ] {
            let model = kind.model().unwrap();
            let regions = 3;
            let sigmas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2];
            let mut batched = NormalSource::from_seed(55);
            let mut scalar = NormalSource::from_seed(55);
            let mut batched_out = [0.0f64; 12];
            let mut scalar_out = [0.0f64; 12];
            // Two consecutive matrices: the stream position must carry
            // across batch calls exactly as it does across rows.
            for _ in 0..2 {
                model.sample_matrix(&sigmas, regions, &mut batched, &mut batched_out);
                for (row_sigmas, row_out) in sigmas
                    .chunks_exact(regions)
                    .zip(scalar_out.chunks_exact_mut(regions))
                {
                    model.sample_regions(row_sigmas, &mut scalar, row_out);
                }
                assert_eq!(batched_out, scalar_out, "{kind}: batched path diverged");
            }
            assert_eq!(batched.sample(), scalar.sample(), "{kind}: stream desync");
        }
    }

    #[test]
    fn invalid_correlation_fractions_are_rejected() {
        assert!(CorrelatedDisturbance::new(-0.1).is_err());
        assert!(CorrelatedDisturbance::new(1.1).is_err());
        assert!(CorrelatedDisturbance::new(f64::NAN).is_err());
        assert!(DisturbanceKind::Correlated {
            shared_fraction: 2.0
        }
        .model()
        .is_err());
        assert!(
            CorrelatedDisturbance::new(0.0)
                .unwrap()
                .shared_fraction()
                .abs()
                < f64::EPSILON
        );
    }

    #[test]
    fn kinds_render_and_default_to_gaussian() {
        assert_eq!(DisturbanceKind::default(), DisturbanceKind::Gaussian);
        assert_eq!(DisturbanceKind::Gaussian.to_string(), "gaussian");
        assert_eq!(DisturbanceKind::Laplace.to_string(), "laplace");
        assert_eq!(
            DisturbanceKind::Correlated {
                shared_fraction: 0.5
            }
            .to_string(),
            "correlated(ρ=0.50)"
        );
    }
}
