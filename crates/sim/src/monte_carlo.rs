//! Monte-Carlo cross-validation of the analytic yield model: sample the
//! threshold-voltage disturbance of every doping region, check the decision
//! window region by region, and estimate the per-nanowire addressability
//! empirically.
//!
//! The analytic model in `crossbar-array` integrates the same Gaussians in
//! closed form; the Monte-Carlo path exists to validate that integration and
//! to explore the distributions the closed form cannot reach — the sampler
//! draws its region disturbances through the pluggable
//! [`DisturbanceModel`](crate::disturbance) trait (Gaussian by default,
//! heavy-tailed Laplace and correlated inter-region models included).
//!
//! # Window semantics
//!
//! The `window` argument is the **half-width** of the decision interval, the
//! same quantity [`device_physics::DopingLadder::window_half_width`] returns
//! and `VariabilityModel::in_window_probability` integrates over: a region
//! passes iff `|ΔV_T| ≤ window`. The analytic path
//! ([`AddressabilityProfile::from_variability`]) uses the identical
//! convention, so the two estimates are directly comparable.
//!
//! # Sampling discipline (common random numbers)
//!
//! Every region's deviation is drawn **unconditionally**: a sample consumes
//! exactly `M` normals per nanowire whether or not an early region already
//! fell outside the window. RNG consumption therefore never depends on the
//! window or the acceptance outcome, so two runs with the same seed see the
//! *same* deviations and differ only in the accept/reject decision. That
//! makes common-random-number comparisons (wider window ⇒ supersets of
//! accepted samples, per nanowire) exact instead of statistical.
//!
//! # Adaptive stopping
//!
//! When [`MonteCarloConfig::target_half_width`] is set, the engine stops
//! sampling at the first **chunk boundary** where every nanowire's Wilson
//! score interval (at [`MonteCarloConfig::confidence`]) is at least as tight
//! as the target — see [`crate::stats`] and the engine docs for the
//! determinism argument. The stopping decision is evaluated in chunk order
//! over thread-independent per-chunk counts, so `samples_used` and the
//! resulting profile are bit-identical at any thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crossbar_array::AddressabilityProfile;
use device_physics::{VariabilityModel, Volts};
use mspt_fabrication::VariabilityMatrix;

// The stream-splitting primitive is shared with the defect-map sharding in
// `crossbar-array`; both determinism contracts rest on the same function.
pub(crate) use crossbar_array::chunk_seed;

use crate::disturbance::DisturbanceModel;
use crate::error::{Result, SimError};

/// The confidence level a [`MonteCarloConfig`] uses when none is specified:
/// the conventional 95 % two-sided interval.
pub const DEFAULT_MC_CONFIDENCE: f64 = 0.95;

/// Configuration of a Monte-Carlo addressability estimation.
///
/// Two operating modes share this struct:
///
/// * **Fixed** (`target_half_width` unset, the default and the only
///   pre-adaptive behaviour): draw exactly [`samples`](Self::samples)
///   array instances.
/// * **Adaptive** (`target_half_width` set): keep drawing chunks until every
///   nanowire's Wilson interval half-width at
///   [`confidence`](Self::confidence) drops to the target, capped at
///   [`max_samples`](Self::max_samples) (or `samples` when no explicit cap
///   is given).
///
/// Construct fixed-mode values with [`MonteCarloConfig::fixed`]; layer the
/// adaptive knobs on with the `with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Number of sampled array instances (the exact count in fixed mode;
    /// the default cap in adaptive mode).
    pub samples: usize,
    /// Seed of the deterministic random-number generator.
    pub seed: u64,
    /// When set, enables adaptive stopping: sampling ends at the first
    /// chunk boundary where every nanowire's Wilson-interval half-width is
    /// at most this value. Serde/codec-defaulted to `None`, so
    /// configurations serialized before the field existed keep the fixed
    /// behaviour.
    #[serde(default)]
    pub target_half_width: Option<f64>,
    /// Confidence level of the Wilson stopping interval (and of the
    /// [`MonteCarloOutcome`] CI bounds), strictly inside `(0, 1)`.
    /// Defaulted to [`DEFAULT_MC_CONFIDENCE`] for pre-field configurations.
    #[serde(default = "default_mc_confidence")]
    pub confidence: f64,
    /// Explicit ceiling on drawn samples in adaptive mode; `None` means
    /// [`samples`](Self::samples) is the cap. Ignored in fixed mode.
    #[serde(default)]
    pub max_samples: Option<usize>,
}

/// Serde default hook for [`MonteCarloConfig::confidence`].
fn default_mc_confidence() -> f64 {
    DEFAULT_MC_CONFIDENCE
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig::fixed(2_000, 0x5eed_cafe)
    }
}

impl MonteCarloConfig {
    /// Environment knob overriding [`MonteCarloConfig::samples`] in
    /// [`MonteCarloConfig::from_env`].
    pub const SAMPLES_ENV: &'static str = "MSPT_MC_SAMPLES";
    /// Environment knob overriding [`MonteCarloConfig::seed`].
    pub const SEED_ENV: &'static str = "MSPT_MC_SEED";
    /// Environment knob setting [`MonteCarloConfig::target_half_width`]
    /// (presence turns adaptive stopping on).
    pub const TARGET_HALF_WIDTH_ENV: &'static str = "MSPT_MC_TARGET_HALF_WIDTH";
    /// Environment knob overriding [`MonteCarloConfig::confidence`].
    pub const CONFIDENCE_ENV: &'static str = "MSPT_MC_CONFIDENCE";
    /// Environment knob setting [`MonteCarloConfig::max_samples`].
    pub const MAX_SAMPLES_ENV: &'static str = "MSPT_MC_MAX_SAMPLES";

    /// A fixed-sample configuration: draw exactly `samples` instances under
    /// `seed` — the pre-adaptive constructor every existing call site used
    /// as a struct literal.
    #[must_use]
    pub fn fixed(samples: usize, seed: u64) -> Self {
        MonteCarloConfig {
            samples,
            seed,
            target_half_width: None,
            confidence: default_mc_confidence(),
            max_samples: None,
        }
    }

    /// Enables adaptive stopping at the given Wilson half-width target.
    #[must_use]
    pub fn with_target_half_width(mut self, target: f64) -> Self {
        self.target_half_width = Some(target);
        self
    }

    /// Overrides the confidence level of the stopping interval.
    #[must_use]
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// Sets an explicit adaptive-mode sample ceiling.
    #[must_use]
    pub fn with_max_samples(mut self, max_samples: usize) -> Self {
        self.max_samples = Some(max_samples);
        self
    }

    /// Whether the adaptive stopping rule is active.
    #[must_use]
    pub fn is_adaptive(&self) -> bool {
        self.target_half_width.is_some()
    }

    /// The ceiling on drawn samples: in adaptive mode
    /// [`max_samples`](Self::max_samples) when set and
    /// [`samples`](Self::samples) otherwise; in fixed mode always
    /// `samples` (the exact count drawn).
    #[must_use]
    pub fn sample_cap(&self) -> usize {
        if self.is_adaptive() {
            self.max_samples.unwrap_or(self.samples)
        } else {
            self.samples
        }
    }

    /// The default configuration with the `MSPT_MC_*` environment knobs
    /// applied on top: [`SAMPLES_ENV`](Self::SAMPLES_ENV),
    /// [`SEED_ENV`](Self::SEED_ENV),
    /// [`TARGET_HALF_WIDTH_ENV`](Self::TARGET_HALF_WIDTH_ENV),
    /// [`CONFIDENCE_ENV`](Self::CONFIDENCE_ENV) and
    /// [`MAX_SAMPLES_ENV`](Self::MAX_SAMPLES_ENV). Unset or unparseable
    /// values keep the default — validation of the combination happens at
    /// sampling time, like every other configuration path.
    #[must_use]
    pub fn from_env() -> Self {
        let mut config = MonteCarloConfig::default();
        if let Some(samples) = parse_env::<usize>(Self::SAMPLES_ENV) {
            config.samples = samples;
        }
        if let Some(seed) = parse_env::<u64>(Self::SEED_ENV) {
            config.seed = seed;
        }
        if let Some(target) = parse_env::<f64>(Self::TARGET_HALF_WIDTH_ENV) {
            config.target_half_width = Some(target);
        }
        if let Some(confidence) = parse_env::<f64>(Self::CONFIDENCE_ENV) {
            config.confidence = confidence;
        }
        if let Some(max_samples) = parse_env::<usize>(Self::MAX_SAMPLES_ENV) {
            config.max_samples = Some(max_samples);
        }
        config
    }
}

/// Parses an environment variable, treating absence and parse failures the
/// same way (keep the default).
fn parse_env<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The result of a Monte-Carlo addressability estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloOutcome {
    /// Empirical per-nanowire addressability probabilities (successes over
    /// [`samples_used`](Self::samples_used)).
    pub profile: AddressabilityProfile,
    /// The requested sample ceiling ([`MonteCarloConfig::sample_cap`]); in
    /// fixed mode this equals the configured sample count.
    pub samples: usize,
    /// The number of array instances actually drawn: equal to
    /// [`samples`](Self::samples) in fixed mode, possibly smaller when the
    /// adaptive stopping rule fired early.
    pub samples_used: usize,
    /// Per-nanowire Wilson lower confidence bounds at the configured
    /// confidence level, over `samples_used` trials.
    pub ci_lower: Vec<f64>,
    /// Per-nanowire Wilson upper confidence bounds.
    pub ci_upper: Vec<f64>,
}

/// Validates a Monte-Carlo configuration and decision window.
pub(crate) fn validate_monte_carlo(config: &MonteCarloConfig, window: Volts) -> Result<()> {
    if config.samples == 0 {
        return Err(SimError::InvalidConfig {
            reason: "Monte-Carlo estimation needs at least one sample".to_string(),
        });
    }
    if window.value() < 0.0 {
        return Err(SimError::InvalidConfig {
            reason: format!("decision window must be non-negative, got {window}"),
        });
    }
    // `!(inside)` keeps NaN on the error path.
    if !(config.confidence > 0.0 && config.confidence < 1.0) {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "Monte-Carlo confidence must be strictly inside (0, 1), got {}",
                config.confidence
            ),
        });
    }
    if let Some(target) = config.target_half_width {
        // `<= 0.0` is false for NaN, but NaN is caught by `!is_finite()`.
        if target <= 0.0 || !target.is_finite() {
            return Err(SimError::InvalidConfig {
                reason: format!("Monte-Carlo target half-width must be positive, got {target}"),
            });
        }
    }
    if config.max_samples == Some(0) {
        return Err(SimError::InvalidConfig {
            reason: "Monte-Carlo max_samples must be positive when set".to_string(),
        });
    }
    Ok(())
}

/// The per-(nanowire, region) standard deviations in structure-of-arrays
/// form: one contiguous row-major `nanowires × regions` matrix, so the
/// sampling inner loop reads and window-checks flat slices instead of
/// chasing a `Vec<Vec<f64>>`'s per-row indirections.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SigmaMatrix {
    /// Row-major values: `values[i * regions + j]` is nanowire `i`,
    /// region `j`.
    values: Vec<f64>,
    nanowires: usize,
    regions: usize,
}

impl SigmaMatrix {
    /// Pre-computes the matrix from a variability matrix and model — the
    /// flattened successor of the old per-row `region_sigmas`.
    pub(crate) fn from_variability(
        variability: &VariabilityMatrix,
        model: &VariabilityModel,
    ) -> Result<SigmaMatrix> {
        let nanowires = variability.nanowire_count();
        let regions = variability.region_count();
        let mut values = vec![0.0f64; nanowires * regions];
        if regions > 0 {
            for (i, row) in values.chunks_exact_mut(regions).enumerate() {
                for (j, slot) in row.iter_mut().enumerate() {
                    let doses = variability.dose_counts().count(i, j)?;
                    *slot = model.sigma_after_doses(doses).value();
                }
            }
        }
        Ok(SigmaMatrix {
            values,
            nanowires,
            regions,
        })
    }

    /// Number of nanowire rows.
    pub(crate) fn nanowires(&self) -> usize {
        self.nanowires
    }

    /// Number of doping regions per nanowire.
    pub(crate) fn regions(&self) -> usize {
        self.regions
    }

    /// The flat row-major values.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Per-thread scratch space for [`sample_chunk`]: the deviation buffer is
/// engine-owned and reused across every chunk a worker thread claims, so the
/// inner loop allocates nothing proportional to the matrix size per chunk.
#[derive(Debug, Default)]
pub(crate) struct McScratch {
    /// Flat `nanowires × regions` deviation buffer, (re)sized on first use.
    deviations: Vec<f64>,
}

impl McScratch {
    /// An empty scratch; buffers grow on first [`sample_chunk`] call.
    pub(crate) fn new() -> McScratch {
        McScratch::default()
    }
}

/// Runs one deterministic chunk of `samples` array instances and returns the
/// per-nanowire counts of fully-in-window samples.
///
/// Every region deviation is drawn unconditionally (no early exit), so the
/// chunk consumes exactly the disturbance model's fixed per-nanowire draw
/// count regardless of the window — the fixed-consumption discipline the
/// module docs describe. Under [`GaussianDisturbance`] the consumed stream
/// is bit-identical to the pre-trait sampler: one normal per region, in
/// region order (the whole-matrix batch draw consumes the identical
/// sequence, because row-major order *is* the sequential order).
///
/// [`GaussianDisturbance`]: crate::disturbance::GaussianDisturbance
pub(crate) fn sample_chunk(
    sigmas: &SigmaMatrix,
    window_half_width: f64,
    seed: u64,
    samples: usize,
    disturbance: &dyn DisturbanceModel,
    scratch: &mut McScratch,
) -> Vec<usize> {
    let mut normals = NormalSource::from_seed(seed);
    let regions = sigmas.regions();
    scratch.deviations.clear();
    scratch.deviations.resize(sigmas.values().len(), 0.0);
    let deviations = scratch.deviations.as_mut_slice();
    let mut counts = vec![0usize; sigmas.nanowires()];
    for _ in 0..samples {
        if regions == 0 {
            // No doping regions: every nanowire is vacuously in-window.
            for count in &mut counts {
                *count += 1;
            }
            continue;
        }
        disturbance.sample_matrix(sigmas.values(), regions, &mut normals, deviations);
        for (count, row) in counts.iter_mut().zip(deviations.chunks_exact(regions)) {
            if row
                .iter()
                .all(|deviation| deviation.abs() <= window_half_width)
            {
                *count += 1;
            }
        }
    }
    counts
}

/// A standard-normal sampler over any uniform generator, via the Box–Muller
/// transform (the workspace only depends on `rand`, which provides uniform
/// sampling).
///
/// Each transform produces a *pair* of independent normals; the sine half is
/// cached and served by the next call, so the source consumes two uniforms
/// per two normals instead of discarding half of every pair.
#[derive(Debug, Clone)]
pub struct NormalSource<R: Rng> {
    rng: R,
    cached: Option<f64>,
}

impl NormalSource<StdRng> {
    /// A source over a deterministically seeded [`StdRng`].
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        // mspt-analyze: allow(raw-seed) callers pass a chunk_seed-derived seed; this is the single construction point for that stream
        NormalSource::new(StdRng::seed_from_u64(seed))
    }
}

impl<R: Rng> NormalSource<R> {
    /// Wraps a uniform generator.
    #[must_use]
    pub fn new(rng: R) -> Self {
        NormalSource { rng, cached: None }
    }

    /// Draws one uniform value in `[0, 1)` straight from the underlying
    /// generator — the primitive inverse-CDF disturbance models build on.
    ///
    /// Bypasses (and leaves untouched) the cached Box–Muller half, so a
    /// model mixing [`NormalSource::sample`] and [`NormalSource::uniform`]
    /// calls still consumes the underlying stream deterministically.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// One full Box–Muller transform: the `(cos, sin)` pair of independent
    /// standard normals from the next two accepted uniforms, bypassing the
    /// cache entirely.
    fn pair(&mut self) -> (f64, f64) {
        loop {
            let u1: f64 = self.rng.gen::<f64>();
            let u2: f64 = self.rng.gen::<f64>();
            if u1 > f64::MIN_POSITIVE {
                let radius = (-2.0 * u1.ln()).sqrt();
                let angle = 2.0 * std::f64::consts::PI * u2;
                return (radius * angle.cos(), radius * angle.sin());
            }
        }
    }

    /// Draws one standard-normal value (zero mean, unit variance).
    pub fn sample(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        let (cos, sin) = self.pair();
        self.cached = Some(sin);
        cos
    }

    /// Fills `out` with standard normals, consuming the underlying stream
    /// **exactly** as `out.len()` successive [`NormalSource::sample`] calls
    /// would: any cached half is served first, whole transforms fill the
    /// interior pairwise, and a trailing odd slot caches its sine half for
    /// the next draw. Batch callers (the structure-of-arrays sampling loop)
    /// and scalar callers therefore see bit-identical streams.
    pub fn fill(&mut self, out: &mut [f64]) {
        let mut index = 0;
        if index < out.len() {
            if let Some(z) = self.cached.take() {
                out[index] = z;
                index += 1;
            }
        }
        while out.len() - index >= 2 {
            let (cos, sin) = self.pair();
            out[index] = cos;
            out[index + 1] = sin;
            index += 2;
        }
        if index < out.len() {
            let (cos, sin) = self.pair();
            out[index] = cos;
            self.cached = Some(sin);
        }
    }
}

/// The largest absolute difference between the analytic and Monte-Carlo
/// per-nanowire probabilities — used by tests and the ablation bench to show
/// the two paths agree.
#[must_use]
pub fn max_profile_difference(
    analytic: &AddressabilityProfile,
    sampled: &AddressabilityProfile,
) -> f64 {
    analytic
        .probabilities()
        .iter()
        .zip(sampled.probabilities())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecutionEngine;
    use device_physics::{DopingLadder, ThresholdModel};
    use mspt_fabrication::PatternMatrix;
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn variability(kind: CodeKind, length: usize, nanowires: usize) -> VariabilityMatrix {
        let seq = CodeSpec::new(kind, LogicLevel::BINARY, length)
            .unwrap()
            .generate()
            .unwrap()
            .take_cyclic(nanowires)
            .unwrap();
        let ladder = DopingLadder::from_model(
            &ThresholdModel::default_mspt(),
            2,
            (Volts::new(0.0), Volts::new(1.0)),
        )
        .unwrap();
        VariabilityMatrix::from_pattern(
            &PatternMatrix::from_sequence(&seq).unwrap(),
            &ladder,
            &VariabilityModel::paper_default(),
        )
        .unwrap()
    }

    #[test]
    fn monte_carlo_matches_the_analytic_model() {
        let variability = variability(CodeKind::Gray, 8, 20);
        let model = VariabilityModel::paper_default();
        let window = Volts::new(0.25);
        let analytic =
            AddressabilityProfile::from_variability(&variability, &model, window).unwrap();
        let sampled = ExecutionEngine::serial()
            .monte_carlo_addressability(
                &variability,
                &model,
                window,
                MonteCarloConfig::fixed(4_000, 7),
            )
            .unwrap();
        assert_eq!(sampled.samples, 4_000);
        assert_eq!(sampled.samples_used, 4_000);
        let diff = max_profile_difference(&analytic, &sampled.profile);
        assert!(diff < 0.05, "analytic vs Monte-Carlo difference {diff}");
    }

    #[test]
    fn results_are_deterministic_for_a_fixed_seed() {
        let variability = variability(CodeKind::Tree, 8, 10);
        let model = VariabilityModel::paper_default();
        let window = Volts::new(0.25);
        let config = MonteCarloConfig::fixed(500, 42);
        let a = ExecutionEngine::serial()
            .monte_carlo_addressability(&variability, &model, window, config)
            .unwrap();
        let b = ExecutionEngine::serial()
            .monte_carlo_addressability(&variability, &model, window, config)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_samples_and_negative_windows_are_rejected() {
        let variability = variability(CodeKind::Tree, 6, 8);
        let model = VariabilityModel::paper_default();
        assert!(ExecutionEngine::serial()
            .monte_carlo_addressability(
                &variability,
                &model,
                Volts::new(0.25),
                MonteCarloConfig::fixed(0, 1),
            )
            .is_err());
        assert!(ExecutionEngine::serial()
            .monte_carlo_addressability(
                &variability,
                &model,
                Volts::new(-0.1),
                MonteCarloConfig::default(),
            )
            .is_err());
    }

    #[test]
    fn invalid_adaptive_parameters_are_rejected() {
        let variability = variability(CodeKind::Tree, 6, 8);
        let model = VariabilityModel::paper_default();
        let window = Volts::new(0.25);
        for bad in [
            MonteCarloConfig::default().with_confidence(0.0),
            MonteCarloConfig::default().with_confidence(1.0),
            MonteCarloConfig::default().with_confidence(f64::NAN),
            MonteCarloConfig::default().with_target_half_width(0.0),
            MonteCarloConfig::default().with_target_half_width(-0.01),
            MonteCarloConfig::default().with_target_half_width(f64::INFINITY),
            MonteCarloConfig::default().with_target_half_width(f64::NAN),
            MonteCarloConfig::default()
                .with_target_half_width(0.05)
                .with_max_samples(0),
        ] {
            assert!(
                ExecutionEngine::serial()
                    .monte_carlo_addressability(&variability, &model, window, bad)
                    .is_err(),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn fixed_constructor_matches_the_default_adaptive_knobs() {
        let config = MonteCarloConfig::fixed(2_000, 0x5eed_cafe);
        assert_eq!(config, MonteCarloConfig::default());
        assert!(!config.is_adaptive());
        assert_eq!(config.sample_cap(), 2_000);
        let adaptive = config.with_target_half_width(0.02).with_max_samples(10_000);
        assert!(adaptive.is_adaptive());
        assert_eq!(adaptive.sample_cap(), 10_000);
        // Without an explicit cap, `samples` bounds the adaptive run.
        assert_eq!(config.with_target_half_width(0.02).sample_cap(), 2_000);
    }

    #[test]
    fn env_knobs_override_the_default_configuration() {
        // Only this test reads the MSPT_MC_* variables, so setting them
        // here cannot race other tests.
        std::env::set_var(MonteCarloConfig::SAMPLES_ENV, "123");
        std::env::set_var(MonteCarloConfig::SEED_ENV, "77");
        std::env::set_var(MonteCarloConfig::TARGET_HALF_WIDTH_ENV, "0.03");
        std::env::set_var(MonteCarloConfig::CONFIDENCE_ENV, "0.99");
        std::env::set_var(MonteCarloConfig::MAX_SAMPLES_ENV, "456");
        let config = MonteCarloConfig::from_env();
        std::env::remove_var(MonteCarloConfig::SAMPLES_ENV);
        std::env::remove_var(MonteCarloConfig::SEED_ENV);
        std::env::remove_var(MonteCarloConfig::TARGET_HALF_WIDTH_ENV);
        std::env::remove_var(MonteCarloConfig::CONFIDENCE_ENV);
        std::env::remove_var(MonteCarloConfig::MAX_SAMPLES_ENV);
        assert_eq!(config.samples, 123);
        assert_eq!(config.seed, 77);
        assert_eq!(config.target_half_width, Some(0.03));
        assert_eq!(config.confidence, 0.99);
        assert_eq!(config.max_samples, Some(456));
        // Unset (or unparseable) knobs keep the default.
        assert_eq!(MonteCarloConfig::from_env(), MonteCarloConfig::default());
    }

    #[test]
    fn normal_source_has_zero_mean_and_unit_variance() {
        let mut normals = NormalSource::from_seed(123);
        let samples: Vec<f64> = (0..20_000).map(|_| normals.sample()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let variance =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((variance - 1.0).abs() < 0.05, "variance {variance}");
    }

    #[test]
    fn normal_source_serves_both_box_muller_halves() {
        // The cosine and sine halves of one transform come from the same two
        // uniforms: two fresh sources produce pairwise-equal radii.
        let mut a = NormalSource::from_seed(99);
        let mut b = NormalSource::from_seed(99);
        let first = a.sample();
        let second = a.sample();
        let radius = (first * first + second * second).sqrt();
        assert!(radius > 0.0);
        // Same stream, same values: the pair is deterministic.
        assert_eq!(b.sample(), first);
        assert_eq!(b.sample(), second);
        // And consuming the pair advanced the underlying RNG only once
        // (two uniforms): the third sample starts a new transform.
        assert_ne!(a.sample(), first);
    }

    #[test]
    fn fill_replays_the_scalar_sample_stream_exactly() {
        // Odd lengths, even lengths, and a pre-primed cache: the batch API
        // must consume the stream bit-identically to scalar sampling.
        for (prime, lengths) in [
            (false, vec![5usize, 4, 1, 6]),
            (true, vec![2usize, 7, 3]),
            (false, vec![0usize, 1, 0, 2]),
        ] {
            let mut batch = NormalSource::from_seed(2_024);
            let mut scalar = NormalSource::from_seed(2_024);
            if prime {
                assert_eq!(batch.sample(), scalar.sample());
            }
            for &len in &lengths {
                let mut out = vec![0.0f64; len];
                batch.fill(&mut out);
                for (i, &value) in out.iter().enumerate() {
                    assert_eq!(value, scalar.sample(), "slot {i} of fill({len})");
                }
            }
            // The caches end in the same state: the next draws agree too.
            assert_eq!(batch.sample(), scalar.sample());
        }
    }

    #[test]
    fn chunk_seeds_are_distinct_and_stable() {
        assert_eq!(chunk_seed(42, 0), chunk_seed(42, 0));
        assert_ne!(chunk_seed(42, 0), chunk_seed(42, 1));
        assert_ne!(chunk_seed(42, 0), chunk_seed(43, 0));
    }

    #[test]
    fn wider_windows_never_reduce_addressability() {
        // Common random numbers: the fixed-consumption sampling discipline
        // draws the same deviations for both runs (same seed, same sigmas),
        // so the wide-window run accepts a superset of the narrow-window
        // run's samples — the comparison is exact per nanowire, with no
        // statistical slack.
        let variability = variability(CodeKind::Hot, 6, 12);
        let model = VariabilityModel::paper_default();
        let narrow = ExecutionEngine::serial()
            .monte_carlo_addressability(
                &variability,
                &model,
                Volts::new(0.1),
                MonteCarloConfig::fixed(1_000, 9),
            )
            .unwrap();
        let wide = ExecutionEngine::serial()
            .monte_carlo_addressability(
                &variability,
                &model,
                Volts::new(0.4),
                MonteCarloConfig::fixed(1_000, 9),
            )
            .unwrap();
        for (n, (narrow_p, wide_p)) in narrow
            .profile
            .probabilities()
            .iter()
            .zip(wide.profile.probabilities())
            .enumerate()
        {
            assert!(
                wide_p >= narrow_p,
                "nanowire {n}: wide {wide_p} < narrow {narrow_p}"
            );
        }
        assert!(wide.profile.mean() >= narrow.profile.mean());
    }

    #[test]
    fn adaptive_stopping_needs_far_fewer_samples_and_matches_a_fixed_prefix() {
        let variability = variability(CodeKind::Gray, 8, 20);
        let model = VariabilityModel::paper_default();
        let window = Volts::new(0.25);
        let adaptive = ExecutionEngine::serial()
            .monte_carlo_addressability(
                &variability,
                &model,
                window,
                MonteCarloConfig::fixed(20_000, 7).with_target_half_width(0.05),
            )
            .unwrap();
        assert_eq!(adaptive.samples, 20_000);
        // The tentpole target: at least 5× fewer samples than the fixed run
        // on this tight-window configuration.
        assert!(
            adaptive.samples_used * 5 <= 20_000,
            "adaptive run used {} of 20000 samples",
            adaptive.samples_used
        );
        // The stopping decision lands on a chunk boundary.
        assert_eq!(adaptive.samples_used % 256, 0);
        // Determinism contract: the adaptive result is exactly the fixed
        // run over the prefix it kept — same seed, same chunk order.
        let prefix = ExecutionEngine::serial()
            .monte_carlo_addressability(
                &variability,
                &model,
                window,
                MonteCarloConfig::fixed(adaptive.samples_used, 7),
            )
            .unwrap();
        assert_eq!(adaptive.profile, prefix.profile);
        assert_eq!(adaptive.ci_lower, prefix.ci_lower);
        assert_eq!(adaptive.ci_upper, prefix.ci_upper);
        // And the delivered intervals honour the requested target.
        for ((lower, upper), p) in adaptive
            .ci_lower
            .iter()
            .zip(&adaptive.ci_upper)
            .zip(adaptive.profile.probabilities())
        {
            assert!(lower <= p && p <= upper, "CI [{lower}, {upper}] misses {p}");
            assert!(
                upper - lower <= 2.0 * 0.05 + 1e-12,
                "CI [{lower}, {upper}] wider than the target"
            );
        }
    }

    #[test]
    fn unreachable_targets_run_to_the_cap() {
        let variability = variability(CodeKind::Tree, 6, 8);
        let model = VariabilityModel::paper_default();
        let window = Volts::new(0.25);
        let outcome = ExecutionEngine::serial()
            .monte_carlo_addressability(
                &variability,
                &model,
                window,
                MonteCarloConfig::fixed(1_000, 3)
                    .with_target_half_width(1e-6)
                    .with_max_samples(700),
            )
            .unwrap();
        assert_eq!(outcome.samples, 700);
        assert_eq!(outcome.samples_used, 700);
        // The capped adaptive run equals the fixed run of the same length.
        let fixed = ExecutionEngine::serial()
            .monte_carlo_addressability(
                &variability,
                &model,
                window,
                MonteCarloConfig::fixed(700, 3),
            )
            .unwrap();
        assert_eq!(outcome.profile, fixed.profile);
    }
}
