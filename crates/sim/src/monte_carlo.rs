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
//! fell outside the window. Each normal comes from the ziggurat of
//! [`NormalSource`], which takes one word per accepted draw and retries on a
//! rejection, so the words consumed depend only on the seed and the values
//! drawn — never on σ, the window or the acceptance outcome. Two runs with
//! the same seed therefore see the *same* deviations and differ only in the
//! accept/reject decision. That makes common-random-number comparisons
//! (wider window ⇒ supersets of accepted samples, per nanowire) exact
//! instead of statistical.
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

use std::fmt;
use std::sync::OnceLock;

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
    // NaN is rejected with the negatives; `+∞` stays valid.
    if window.value().is_nan() || window.value() < 0.0 {
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
/// module docs describe. Under [`GaussianDisturbance`] that is one normal
/// per region, in region order (the whole-matrix batch draw consumes the
/// identical sequence, because row-major order *is* the sequential order).
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
            // Every region is tested, without a data-dependent branch; a NaN
            // deviation is out of window, as in a short-circuit `all`.
            *count += usize::from(row.iter().fold(true, |inside, deviation| {
                inside & (deviation.abs() <= window_half_width)
            }));
        }
    }
    counts
}

/// Layers per ziggurat table: Marsaglia & Tsang's 256, so the low 8 bits
/// of a draw pick one.
const ZIGGURAT_LAYERS: usize = 256;

/// Right edge `R` of the normal table's base layer, where its tail begins.
const NORMAL_R: f64 = 3.654_152_885_361_009;
/// Area `V` of every layer of the normal table (density `e^{−x²/2}`).
const NORMAL_V: f64 = 0.004_928_673_233_99;
/// Right edge `R` of the exponential table's base layer
/// (Marsaglia & Tsang's 7.69711747013104972).
const EXPONENTIAL_R: f64 = 7.697_117_470_131_05;
/// Area `V` of every layer of the exponential table (density `e^{−x}`;
/// Marsaglia & Tsang's 0.0039496598225815571993).
const EXPONENTIAL_V: f64 = 0.003_949_659_822_581_557;

/// The normal table's unnormalised density.
fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The exponential table's density.
fn exponential_pdf(x: f64) -> f64 {
    (-x).exp()
}

/// One ziggurat over an unnormalised, decreasing density `f` on `[0, ∞)`.
///
/// Layer `i ≥ 1` is the box `[0, x[i]] × [f(x[i]), f(x[i+1])]`, of area
/// `V`. The base layer (`i = 0`) is the box `[0, R] × [0, f(R)]` plus the
/// tail beyond `x[1] = R`, also of area `V`, stretched to the virtual width
/// `x[0] = V / f(R)`. `x[256] = 0` closes the top layer at the mode, and
/// `f[i] = f(x[i])`.
struct Ziggurat {
    x: [f64; ZIGGURAT_LAYERS + 1],
    f: [f64; ZIGGURAT_LAYERS + 1],
}

impl Ziggurat {
    /// Builds the edges downward from `R` by the equal-area recurrence
    /// `x[i+1] = f⁻¹(f(x[i]) + V / x[i])`; the last edge is pinned to the
    /// mode instead, so rounding can never push `f⁻¹` past `f(0)`.
    fn build(r: f64, v: f64, pdf: fn(f64) -> f64, inverse_pdf: fn(f64) -> f64) -> Ziggurat {
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        x[0] = v / pdf(r);
        x[1] = r;
        for i in 1..ZIGGURAT_LAYERS - 1 {
            x[i + 1] = inverse_pdf(pdf(x[i]) + v / x[i]);
        }
        Ziggurat { x, f: x.map(pdf) }
    }
}

/// The normal and exponential ziggurats (about 8 KB together), computed
/// from their `(R, V)` once per process.
struct ZigguratTables {
    normal: Ziggurat,
    exponential: Ziggurat,
}

impl ZigguratTables {
    /// The process-wide tables, built on first use.
    fn get() -> &'static ZigguratTables {
        static TABLES: OnceLock<ZigguratTables> = OnceLock::new();
        TABLES.get_or_init(|| ZigguratTables {
            normal: Ziggurat::build(NORMAL_R, NORMAL_V, normal_pdf, |y| (-2.0 * y.ln()).sqrt()),
            exponential: Ziggurat::build(EXPONENTIAL_R, EXPONENTIAL_V, exponential_pdf, |y| {
                -y.ln()
            }),
        })
    }
}

impl fmt::Debug for ZigguratTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ZigguratTables").finish_non_exhaustive()
    }
}

/// The top 52 bits of `bits` as a uniform on the open interval `(−1, 1)`:
/// the odd multiples of `2⁻⁵²`, symmetric about zero and never zero, so a
/// draw's sign is always defined. The layer index uses the low 8 bits, so
/// the two never share a bit.
fn symmetric_unit(bits: u64) -> f64 {
    let top = (bits >> 12) as i64;
    (2 * top + 1 - (1 << 52)) as f64 * f64::EPSILON
}

/// A standard-normal sampler over any uniform generator, via a 256-layer
/// symmetric ziggurat (Marsaglia & Tsang, *J. Stat. Softw.* 5(8), 2000; the
/// workspace only depends on `rand`, which provides uniform sampling).
///
/// A draw takes one `u64`: its low 8 bits pick a layer and its top 52 bits
/// a symmetric uniform `u ∈ (−1, 1)`. About 99 % of draws land inside the
/// layer's core box and return `u · x[layer]` after one compare. The rest
/// take one more uniform for the wedge test, or go to the tail sampler from
/// the base layer, and start over when rejected. How many words a draw
/// consumes therefore depends only on the stream itself — the seed and the
/// values drawn — never on what the caller does with the value.
///
/// The tables are built once per process from `(R, V)` and borrowed when
/// the source is built, so no draw touches the lazy initialiser.
#[derive(Debug, Clone)]
pub struct NormalSource<R: Rng> {
    rng: R,
    tables: &'static ZigguratTables,
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
        NormalSource {
            rng,
            tables: ZigguratTables::get(),
        }
    }

    /// Draws one uniform value in `[0, 1)` straight from the underlying
    /// generator — the primitive inverse-CDF disturbance models build on.
    /// It takes exactly one word, so a model mixing
    /// [`NormalSource::sample`] and [`NormalSource::uniform`] calls still
    /// consumes the underlying stream deterministically.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// One uniform in `(0, 1]`, safe to take the logarithm of.
    fn positive_uniform(&mut self) -> f64 {
        1.0 - self.uniform()
    }

    /// One symmetric draw from `table`, whose unnormalised density is `pdf`;
    /// `tail` samples `|x|` beyond `R` when the base layer's box misses.
    fn ziggurat(
        &mut self,
        table: &Ziggurat,
        pdf: impl Fn(f64) -> f64,
        tail: impl Fn(&mut Self) -> f64,
    ) -> f64 {
        loop {
            let bits = self.rng.gen::<u64>();
            let layer = (bits & 0xff) as usize;
            let u = symmetric_unit(bits);
            let x = u * table.x[layer];
            if x.abs() < table.x[layer + 1] {
                return x;
            }
            if layer == 0 {
                return tail(self).copysign(u);
            }
            // The wedge: accept when a uniform height inside the layer lies
            // under the curve.
            let (low, high) = (table.f[layer], table.f[layer + 1]);
            if low + (high - low) * self.uniform() < pdf(x.abs()) {
                return x;
            }
        }
    }

    /// Marsaglia's normal tail beyond `R`: `R + a` with `a = −ln U₁ / R`,
    /// accepted when `−2 ln U₂ > a²`.
    fn normal_tail(&mut self) -> f64 {
        loop {
            let a = -self.positive_uniform().ln() / NORMAL_R;
            let b = -self.positive_uniform().ln();
            if b + b > a * a {
                return NORMAL_R + a;
            }
        }
    }

    /// Draws one standard-normal value (zero mean, unit variance).
    pub fn sample(&mut self) -> f64 {
        let tables = self.tables;
        self.ziggurat(&tables.normal, normal_pdf, Self::normal_tail)
    }

    /// Draws one unit-scale Laplace value (density `½e^{−|x|}`, variance 2)
    /// from the exponential table used symmetrically. Its tail beyond `R`
    /// is `R + Exp(1)`, since the exponential is memoryless.
    pub(crate) fn laplace(&mut self) -> f64 {
        let tables = self.tables;
        self.ziggurat(&tables.exponential, exponential_pdf, |source| {
            EXPONENTIAL_R - source.positive_uniform().ln()
        })
    }

    /// Fills `out` with standard normals, consuming the underlying stream
    /// exactly as `out.len()` successive [`NormalSource::sample`] calls
    /// would, so batch callers (the structure-of-arrays sampling loop) and
    /// scalar callers see bit-identical streams.
    pub fn fill(&mut self, out: &mut [f64]) {
        for slot in out {
            *slot = self.sample();
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
    use crate::{SimConfig, SimulationPlatform};
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
    fn nan_windows_are_rejected_on_every_path() {
        let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap();
        let config = SimConfig::paper_defaults(code)
            .unwrap()
            .with_window(Volts::new(f64::NAN));
        let engine = ExecutionEngine::serial();
        assert!(matches!(
            engine.monte_carlo_for_config(&config, MonteCarloConfig::fixed(256, 1)),
            Err(SimError::InvalidConfig { .. })
        ));
        let analytic = SimulationPlatform::new(config.clone()).addressability();
        assert!(analytic.is_err(), "{analytic:?}");
        assert!(engine.report_for(&config).is_err());
        let variability = variability(CodeKind::Tree, 6, 8);
        assert!(engine
            .monte_carlo_addressability(
                &variability,
                &VariabilityModel::paper_default(),
                Volts::new(f64::NAN),
                MonteCarloConfig::fixed(256, 1),
            )
            .is_err());

        // An unbounded window stays valid and accepts every sample.
        let open = config.with_window(Volts::new(f64::INFINITY));
        let sampled = engine
            .monte_carlo_for_config(&open, MonteCarloConfig::fixed(256, 1))
            .unwrap();
        assert!(sampled.profile.probabilities().iter().all(|&p| p == 1.0));
        let analytic = SimulationPlatform::new(open).addressability().unwrap();
        assert!(analytic.probabilities().iter().all(|&p| p == 1.0));
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
    fn fill_replays_the_scalar_sample_stream_exactly() {
        // Odd lengths, even lengths, and a source already part-way through
        // its stream: the batch API must consume the stream bit-identically
        // to scalar sampling.
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
            // The streams end in the same state: the next draws agree too.
            assert_eq!(batch.sample(), scalar.sample());
        }
    }

    /// `∫_a^b f` by composite Simpson's rule over `steps` (even) intervals.
    fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, steps: usize) -> f64 {
        let h = (b - a) / steps as f64;
        let inner: f64 = (1..steps)
            .map(|k| f(a + k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        (f(a) + inner + f(b)) * h / 3.0
    }

    #[test]
    fn every_ziggurat_layer_has_area_v_and_the_edges_decrease() {
        let tables = ZigguratTables::get();
        // The tail mass beyond R, computed independently of the tables:
        // numerically for the normal, in closed form for the exponential.
        let normal_tail = simpson(normal_pdf, NORMAL_R, NORMAL_R + 30.0, 200_000);
        let exponential_tail = (-EXPONENTIAL_R).exp();
        for (name, table, r, v, tail) in [
            ("normal", &tables.normal, NORMAL_R, NORMAL_V, normal_tail),
            (
                "exponential",
                &tables.exponential,
                EXPONENTIAL_R,
                EXPONENTIAL_V,
                exponential_tail,
            ),
        ] {
            assert_eq!(table.x[1], r);
            assert_eq!(table.x[ZIGGURAT_LAYERS], 0.0);
            let base = r * table.f[1] + tail;
            assert!(
                ((base - v) / v).abs() < 1e-8,
                "{name}: base layer area {base} vs V {v}"
            );
            for layer in 1..ZIGGURAT_LAYERS {
                let area = table.x[layer] * (table.f[layer + 1] - table.f[layer]);
                assert!(
                    ((area - v) / v).abs() < 1e-8,
                    "{name}: layer {layer} area {area} vs V {v}"
                );
            }
            for (layer, pair) in table.x.windows(2).enumerate() {
                assert!(pair[0] > pair[1], "{name}: edge {layer} does not decrease");
            }
        }
    }

    /// Asserts that `hits` of `draws` is within 6 binomial standard errors
    /// of `draws · p`.
    fn assert_binomial(label: &str, hits: usize, draws: usize, p: f64) {
        let expected = draws as f64 * p;
        let sigma = (expected * (1.0 - p)).sqrt();
        assert!(
            (hits as f64 - expected).abs() < 6.0 * sigma,
            "{label}: {hits} of {draws}, expected {expected:.1} ± {sigma:.1}"
        );
    }

    #[test]
    fn normal_tail_probabilities_match_the_gaussian() {
        const DRAWS: usize = 1 << 22;
        // P(|Z| > t) = erfc(t / √2); t = R exercises the tail branch.
        let cases = [
            (1.96, 0.049_995_790_296_440_87),
            (3.0, 0.002_699_796_063_260_191),
            (NORMAL_R, 0.000_258_032_487_653_901_3),
        ];
        let mut hits = [0usize; 3];
        let mut normals = NormalSource::from_seed(0x21_6775);
        for _ in 0..DRAWS {
            let z = normals.sample().abs();
            for (hit, &(t, _)) in hits.iter_mut().zip(&cases) {
                *hit += usize::from(z > t);
            }
        }
        for (&hit, &(t, p)) in hits.iter().zip(&cases) {
            assert_binomial(&format!("P(|Z| > {t})"), hit, DRAWS, p);
        }
    }

    #[test]
    fn laplace_tail_probabilities_are_exponential() {
        const DRAWS: usize = 1 << 22;
        // P(|X| > t) = e^{-t} for the unit Laplace; t = 8 lies past R.
        let thresholds = [1.0, 3.0, 8.0];
        let mut hits = [0usize; 3];
        let mut draws = NormalSource::from_seed(0x1a_9ace);
        for _ in 0..DRAWS {
            let x = draws.laplace().abs();
            for (hit, &t) in hits.iter_mut().zip(&thresholds) {
                *hit += usize::from(x > t);
            }
        }
        for (&hit, &t) in hits.iter().zip(&thresholds) {
            assert_binomial(&format!("P(|X| > {t})"), hit, DRAWS, (-t).exp());
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
